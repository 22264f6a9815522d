"""Check registry tests: rejection loops end and fail when every trial is
rejected, only geometric rejections count as rejected draws, and each row
says how it got its number."""

import json
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
        # the check calls the row-wise probe; here it admits no row
        def inadmissible(x, y, xi):
            return np.full(len(x), np.pi / 2.0), np.zeros(len(x), dtype=bool)

        monkeypatch.setattr(visual, "_near_perpendicular_raw", inadmissible)
        run_starved(V.check_lemma_2_7_perpendicular, CFG.count(4_000, 50))

    def test_lemma_2_1_gap(self, monkeypatch):
        # every angle reads 0, below the pi/4 floor
        monkeypatch.setattr(V, "_angle_raw", lambda x, y, z: np.zeros(len(x)))
        run_starved(V.check_lemma_2_1_gap, CFG.count(5_000, 30))


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


class TestBlockSampler:
    def test_first_accepted_rows_in_draw_order(self, monkeypatch):
        monkeypatch.setattr(V, "_BLOCK", 8)
        drawn = iter(range(1000))

        def draw(count):
            rows = np.array([next(drawn) for _ in range(count)])
            return rows, [("odd", rows % 2 == 1), ("three", rows % 3 == 0)]

        sampler = V._Sampler(10)
        rows = sampler.run(draw)
        assert rows.tolist() == [2, 4, 8, 10, 14, 16, 20, 22, 26, 28]
        # rows 0..28 drawn up to the last accepted one: 14 odd, 5 more
        # multiples of three (0, 6, 12, 18, 24)
        assert sampler.detail() == {"attempts": 29, "rejections": {"odd": 14, "three": 5}}

    def test_cap_stops_a_starved_sampler(self, monkeypatch):
        monkeypatch.setattr(V, "_BLOCK", 7)
        sampler = V._Sampler(3, cap=20)
        rows = sampler.run(lambda count: (np.zeros(count), [("all", np.ones(count, dtype=bool))]))
        assert rows.size == 0 and sampler.made == 0
        assert sampler.detail() == {"attempts": 20, "rejections": {"all": 20}}


REWRITTEN = ("trig_identity", "lemma_2_1_gap", "lemma_2_2_gap", "lemma_2_3_small_angle",
             "lemma_2_4_bound", "lemma_2_6_proximity", "lemma_2_7_perpendicular")


class TestSamplingReport:
    @pytest.mark.parametrize("check_id", REWRITTEN)
    def test_attempts_and_rejections_add_up_and_repeat(self, check_id):
        check = dict(V.ALL_CHECKS)[check_id]
        first, second = check(CFG), check(CFG)
        detail = first.detail
        assert json.dumps(detail, sort_keys=True) == json.dumps(second.detail, sort_keys=True)
        assert all(type(c) is int for c in detail["rejections"].values())
        assert detail["attempts"] == first.samples + sum(detail["rejections"].values())


class TestRandomTriangles:
    def test_full_scale_delta_log3_draws_keep_separation(self):
        # the draws of check_delta_log3 at scale 1
        rng = V.rng_from(V.VerifyConfig().seed + 10)
        per = V.VerifyConfig().count(100_000, 40) // 4
        for lam in (1.0, 2.0):
            for n in (2, 3):
                coords, flags = V._random_triangles(rng, per, n, lam)
                for i, j in ((0, 1), (1, 2), (2, 0)):
                    sep = np.linalg.norm(coords[:, i] - coords[:, j], axis=1)
                    both_ideal = flags[:, i] & flags[:, j]
                    same_kind = flags[:, i] == flags[:, j]
                    assert sep[both_ideal].min(initial=1.0) >= 3e-3
                    assert sep[same_kind].min(initial=1.0) >= 1e-6
