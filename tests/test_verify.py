"""Check registry tests: rejection loops end and fail when every trial raises."""

import time

import hypext.verify as V
from hypext import visual
from hypext.errors import GeometryError

CFG = V.VerifyConfig(seed=7, scale=0.01)


def always_raise(*args, **kwargs):
    raise GeometryError("every trial rejected")


def run_starved(check, target):
    start = time.perf_counter()
    result = check(CFG)
    assert time.perf_counter() - start < 30.0
    assert not result.passed
    assert result.samples == 0
    assert result.detail["attempts"] == 100 * target


class TestBoundedLoops:
    def test_quasicenter_uniqueness(self, monkeypatch):
        monkeypatch.setattr(V, "quasicenter", always_raise)
        run_starved(V.check_quasicenter_uniqueness, CFG.count(50, 5))

    def test_lemma_2_7_perpendicular(self, monkeypatch):
        monkeypatch.setattr(visual, "near_perpendicular_probe", always_raise)
        run_starved(V.check_lemma_2_7_perpendicular, CFG.count(4_000, 50))
