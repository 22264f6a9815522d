"""Check registry tests: rejection loops end and fail when every trial raises,
and only geometric rejections count as rejected draws."""

import time

import numpy as np
import pytest

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


class TestRejectionCauses:
    def test_programming_error_is_raised(self, monkeypatch):
        def type_error(*args, **kwargs):
            raise TypeError("not a rejected draw")

        monkeypatch.setattr(V, "quasicenter", type_error)
        with pytest.raises(TypeError):
            V.check_quasicenter_uniqueness(CFG)


class TestReportRows:
    def test_pass_flag_is_a_json_boolean(self):
        # numpy comparisons give numpy booleans, which json writes as 1.0
        row = V.CheckResult("id", "anchor", 1, 0.0, 1.0, np.float64(0.0) < 1.0, 0.0).row()
        assert row["pass"] is True
