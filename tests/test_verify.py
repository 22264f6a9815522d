"""Check registry tests: the harness gates each direction as its row says,
rejection loops end and fail when every trial is rejected, only geometric
rejections count as rejected draws, and each row says how it got its
number."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import hypext.verify as V
from hypext import model, visual
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

    def test_comparison_angles(self, monkeypatch):
        monkeypatch.setattr(V, "comparison_report", always_raise)
        run_starved(V.check_comparison_angles, CFG.count(200, 6))

    def test_prop_5_1_gap(self, monkeypatch):
        # every drawn q lands on the reference point p = (-1, 0)
        def at_p(rng, count, n):
            return np.tile(V._ref_ideal(n).direction, (count, 1))

        monkeypatch.setattr(V, "sample_boundary", at_p)
        run_starved(V.check_inverse_gap, CFG.count(1_000, 12))


    def test_trig_identity(self, monkeypatch):
        # every residual is NaN; the one sampler runs once for each of 3 lam
        def nan_residual(lam, va, vb, vc):
            return np.full(len(va), np.nan), np.full(len(va), np.pi / 2.0)

        monkeypatch.setattr(V, "_right_triangle_residual_raw", nan_residual)
        run_starved(V.check_trig_identity, 3 * (CFG.count(10_000, 30) // 3))

    def test_lemma_2_3_small_angle(self, monkeypatch):
        def nan_angle(x, y, z):
            return np.full(np.broadcast_shapes(x.shape, y.shape, z.shape)[:-1], np.nan)

        monkeypatch.setattr(V, "_angle_raw", nan_angle)
        run_starved(V.check_lemma_2_3_small_angle, CFG.count(2_000, 20))


class TestNanStatistics:
    """A NaN in a folded statistic fails the row instead of being dropped."""

    @pytest.mark.parametrize("check", [V.check_metric_axioms, V.check_lambda_scaling,
                                       V.check_mobius_isometry, V.check_extension_identity])
    def test_nan_distance_fails(self, monkeypatch, check):
        def nan_dist(lam, x, y):
            return np.full(np.broadcast_shapes(np.shape(x), np.shape(y))[:-1], np.nan)

        monkeypatch.setattr(V, "_dist_raw", nan_dist)
        monkeypatch.setattr(model, "_dist_raw", nan_dist)    # under hyp_dist
        result = check(CFG)
        assert np.isnan(result.measured)
        assert not result.passed

    def test_nan_thinness_fails_delta_log3(self, monkeypatch):
        monkeypatch.setattr(V, "thinness_batch",
                            lambda coords, flags, k: np.full(len(coords), np.nan))
        result = V.check_delta_log3(CFG)
        assert np.isnan(result.measured)
        assert not result.passed


class TestRejectionCauses:
    def test_programming_error_is_raised(self, monkeypatch):
        def type_error(*args, **kwargs):
            raise TypeError("not a rejected draw")

        monkeypatch.setattr(V, "quasicenter", type_error)
        with pytest.raises(TypeError):
            V.check_quasicenter_uniqueness(CFG)


class TestGate:
    @staticmethod
    def probe(monkeypatch, direction, measured, threshold, ok=True):
        """The row of a one-off check registered through the harness."""
        monkeypatch.setattr(V, "ALL_CHECKS", [])

        @V._check("probe", "probe_anchor", seed=3, threshold=threshold, direction=direction)
        def check_probe(cfg, rng):
            return 5, measured, ok, {"draw": float(rng.uniform())}

        assert V.ALL_CHECKS == [("probe", check_probe)]
        return check_probe(CFG)

    @pytest.mark.parametrize("direction, measured, threshold, passed", [
        ("max<=thr", 0.0, 0.0, True),
        ("max<=thr", np.nextafter(0.0, 1.0), 0.0, False),
        ("max<=thr", np.nan, 0.0, False),
        ("measured>thr", 0.0, 0.0, False),
        ("measured>thr", np.nextafter(0.0, 1.0), 0.0, True),
        ("measured>=thr", 0.7, 0.7, True),
        ("measured>=thr", np.nextafter(0.7, 0.0), 0.7, False),
        ("measured==thr", 6.0, 6.0, True),
        ("measured==thr", np.nextafter(6.0, 7.0), 6.0, False),
        ("measured==thr", np.nextafter(6.0, 5.0), 6.0, False),
        ("finite", 1e308, np.inf, True),
        ("finite", np.inf, np.inf, False),
        ("finite", -np.inf, np.inf, False),
        ("finite", np.nan, np.inf, False),
    ])
    def test_direction_gate_at_its_boundary(self, monkeypatch, direction, measured,
                                            threshold, passed):
        result = self.probe(monkeypatch, direction, measured, threshold)
        assert result.passed is passed
        row = result.row()
        assert (row["id"], row["anchor"], row["samples"]) == ("probe", "probe_anchor", 5)
        assert (row["direction"], row["threshold"]) == (direction, threshold)

    def test_side_conditions_are_anded(self, monkeypatch):
        assert not self.probe(monkeypatch, "max<=thr", 0.0, 1.0, ok=False).passed

    def test_rng_is_seeded_at_the_declared_offset(self, monkeypatch):
        result = self.probe(monkeypatch, "max<=thr", 0.0, 1.0)
        assert result.detail == {"draw": float(V.rng_from(CFG.seed + 3).uniform())}


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
# checks drawing one row per _Sampler call
ONE_ROW = ("convexity", "exp_log_roundtrip", "ray_limit_homeo", "quasicenter_uniqueness",
           "comparison_angles", "prop_5_1_gap", "extension_injectivity")


class TestSamplingReport:
    @pytest.mark.parametrize("check_id", REWRITTEN + ONE_ROW)
    def test_attempts_and_rejections_add_up_and_repeat(self, check_id):
        check = dict(V.ALL_CHECKS)[check_id]
        first, second = check(CFG), check(CFG)
        detail = first.detail
        assert json.dumps(detail, sort_keys=True) == json.dumps(second.detail, sort_keys=True)
        assert type(detail["attempts"]) is int
        assert all(type(c) is int for c in detail["rejections"].values())
        # extension_injectivity also counts its grid points as samples
        made = first.samples - (CFG.count(300, 10) if check_id == "extension_injectivity" else 0)
        assert detail["attempts"] == made + sum(detail["rejections"].values())

    def test_quasicenter_descent_work_is_reported(self):
        first, second = V.check_quasicenter_uniqueness(CFG), V.check_quasicenter_uniqueness(CFG)
        for key in ("descent_nfev", "descent_restarts"):
            assert type(first.detail[key]) is int
            assert first.detail[key] == second.detail[key]
        assert first.detail["descent_nfev"] > 0

    def test_convexity_evaluates_every_sample(self, monkeypatch):
        # at seed 7, scale 1 one draw has close endpoints; its replacement
        # is drawn and evaluated, three geodesics per evaluated row
        calls = []
        geodesic_between = V.geodesic_between

        def counted(*args):
            calls.append(1)
            return geodesic_between(*args)

        monkeypatch.setattr(V, "geodesic_between", counted)
        result = V.check_convexity(V.VerifyConfig(seed=7, scale=1.0))
        assert result.samples == 800
        assert result.detail == {"attempts": 801, "rejections": {"close_endpoints": 1}}
        assert len(calls) == 3 * 800


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


class TestRegistry:
    def test_rows_match_the_benchmark_expectation(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "verify_expect.json"
        with open(path) as fh:
            expect = json.load(fh)
        cfg = V.VerifyConfig(seed=expect["seed"], scale=expect["scale"])
        assert (cfg.seed, cfg.scale) == (7, 0.05)
        rows = [r.row() for r in V.run_checks(cfg)]
        assert V.CHECK_IDS == [e["id"] for e in expect["rows"]]
        for row, exp in zip(rows, expect["rows"], strict=True):
            assert {k: row[k] for k in exp} == exp
        assert [r["id"] for r in rows if not r["pass"]] == []
        # max<=thr passes at equality
        coloring = rows[V.CHECK_IDS.index("lemma_6_1_coloring")]
        assert coloring["measured"] == coloring["threshold"] == 0.0
