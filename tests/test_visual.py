"""Visual metric tests: the exponential-of-distance representative, the
angle bridges, proximity probes, and quasisymmetry clouds."""

import json

import numpy as np
import pytest

from hypext.errors import GeometryError
from hypext.maps import angle_warp, identity_map, mobius_boundary, translation_along_first_axis
from hypext.model import (
    BallPoint,
    CurvatureScale,
    IdealPoint,
    K1,
    hyp_dist,
)
from hypext.sampling import rng_from, sample_ball_hyperbolic, sample_boundary
from hypext.visual import (
    QsCloud,
    VisualConfig,
    angle_visual_probe,
    geodesic_proximity_probe,
    near_perpendicular_probe,
    qs_basepoints,
    qs_cloud,
    visual_dist,
    visual_dist_many,
)
from hyperboloid_oracle import oracle_line_dist

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ORIGIN = BallPoint([0.0, 0.0])
CFG0 = VisualConfig(ORIGIN, K1)
SQRT2_M1 = np.sqrt(2.0) - 1.0


def ideal(deg):
    a = np.radians(deg)
    return IdealPoint([np.cos(a), np.sin(a)])


class TestVisualDist:
    def test_geodesic_through_basepoint(self):
        assert visual_dist(CFG0, IdealPoint(E1), IdealPoint(-E1)) == 1.0

    def test_quarter_separation(self):
        assert visual_dist(CFG0, IdealPoint(E1), IdealPoint(E2)) == pytest.approx(
            SQRT2_M1, abs=1e-12)

    def test_coincident_points(self):
        assert visual_dist(CFG0, IdealPoint(E1), IdealPoint(E1)) == 0.0

    def test_symmetry_and_positivity(self):
        gen = rng_from(0)
        for _ in range(50):
            n = int(gen.integers(2, 4))
            us = sample_boundary(gen, 2, n)
            if np.linalg.norm(us[0] - us[1]) < 1e-6:
                continue
            cfg = VisualConfig(BallPoint(sample_ball_hyperbolic(gen, 1, n, 1.0, 3.0)[0]))
            a = visual_dist(cfg, IdealPoint(us[0]), IdealPoint(us[1]))
            b = visual_dist(cfg, IdealPoint(us[1]), IdealPoint(us[0]))
            assert a == b > 0.0

    def test_rows_match_oracle(self):
        # 50 rows per (n, lam), bases out to radius 5, ends an angle apart
        # that is log-uniform in [1e-6, 1]; coincident ends read exactly 0
        gen = rng_from(1)
        for n in (2, 3):
            for lam in (1.0, 2.0):
                x = sample_ball_hyperbolic(gen, 50, n, lam, 5.0)
                e, f = np.linalg.qr(gen.normal(size=(50, n, 2)))[0].transpose(2, 0, 1)
                sep = 10.0 ** gen.uniform(-6.0, 0.0, (50, 1))
                u, v = e, np.cos(sep) * e + np.sin(sep) * f
                got = visual_dist_many(x, lam, u, v)
                ref = np.exp(-np.array([oracle_line_dist(*row, lam) for row in zip(x, u, v)]))
                assert np.max(np.abs(got / ref - 1.0)) <= 1e-9
                assert visual_dist_many(x[0], lam, u[0], u[0]) == 0.0


class TestAngleBridge:
    def test_antipodal_pair_at_origin(self):
        table = np.array([[visual_dist(CFG0, IdealPoint(E1), IdealPoint(-E1)),
                           np.pi]])
        assert table[0, 0] == 1.0

    def test_shrinking_family_both_coordinates_vanish(self):
        base = IdealPoint(E1)
        prev_d, prev_a = np.inf, np.inf
        for eps in (0.5, 0.1, 0.02, 0.004):
            other = IdealPoint.from_direction([np.cos(eps), np.sin(eps)])
            d = visual_dist(CFG0, base, other)
            from hypext.model import angle

            a = angle(ORIGIN, base, other)
            assert d < prev_d and a < prev_a
            prev_d, prev_a = d, a
        assert prev_d < 1e-2 and prev_a < 1e-2

    def test_probe_positive_envelopes_both_scales(self):
        for lam in (1.0, 2.0):
            cfg = VisualConfig(ORIGIN, CurvatureScale(lam))
            table = angle_visual_probe(cfg, 800, seed=3)
            d, a = table[:, 0], table[:, 1]
            for eps in (0.3, 1.0):
                if np.any(a >= eps):
                    assert d[a >= eps].min() > 0.0
                if np.any(d >= eps):
                    assert a[d >= eps].min() > 0.0

    def test_probe_needs_budget(self):
        with pytest.raises(GeometryError):
            angle_visual_probe(CFG0, 0)


class TestProximityProbe:
    def test_symmetric_configuration(self):
        got = geodesic_proximity_probe(ideal(180), ideal(0), ideal(90), ORIGIN)
        assert got[0] == pytest.approx(SQRT2_M1, abs=1e-12)
        assert got[1] == pytest.approx(np.log(1.0 + np.sqrt(2.0)), abs=1e-12)

    def test_shrinking_family(self):
        p, xi = ideal(180), ideal(0)
        for eps, bound in ((0.05, 0.2), (0.01, 0.05)):
            eta = ideal(np.degrees(eps))
            d_vis, d_geo = geodesic_proximity_probe(p, xi, eta, ORIGIN)
            assert d_vis < bound and d_geo < 4.0 * bound

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(GeometryError):
            geodesic_proximity_probe(ideal(180), ideal(0), ideal(180), ORIGIN)
        off_ray = BallPoint([0.0, 0.5])
        with pytest.raises(GeometryError):
            geodesic_proximity_probe(ideal(180), ideal(0), ideal(90), off_ray)


class TestNearPerpendicular:
    def test_small_gap_forces_near_right_angle(self):
        x = BallPoint([0.005, 0.0])
        got = near_perpendicular_probe(x, ORIGIN, ideal(90))
        d = hyp_dist(K1, x, ORIGIN)
        assert np.sin(got) >= 1.0 / np.cosh(d) - 1e-12

    def test_moderate_gap_bound(self):
        # admissible configuration at distance about 1
        x = BallPoint([np.tanh(0.5), 0.0])
        got = near_perpendicular_probe(x, ORIGIN, ideal(89))
        d = hyp_dist(K1, x, ORIGIN)
        assert np.sin(got) >= 1.0 / np.cosh(d) - 1e-12
        assert got >= np.arcsin(1.0 / np.cosh(1.0)) - 1e-9

    def test_precondition_violation_rejected(self):
        # the ideal point straight above x makes the angle exactly pi/2
        with pytest.raises(GeometryError):
            near_perpendicular_probe(ORIGIN, BallPoint([0.3, 0.0]), ideal(90))


class TestQsCloud:
    def test_identity_fit_is_exact(self):
        cloud = qs_cloud(identity_map(2), CFG0, CFG0, 3000, seed=5)
        assert cloud.alpha == pytest.approx(1.0, abs=1e-9)
        assert cloud.coeff == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(cloud.pairs[:, 0], cloud.pairs[:, 1])

    def test_mobius_boundary_is_one_quasisymmetric(self):
        h = mobius_boundary(translation_along_first_axis(1.0, 2))
        x, x_img = qs_basepoints(h, ideal(10), ideal(140), ideal(260))
        cloud = qs_cloud(h, VisualConfig(x), VisualConfig(x_img), 4000, seed=6)
        assert 0.9 <= cloud.alpha <= 1.1
        assert cloud.coeff < 3.0

    def test_warp_envelope_dominates_declared_exponent(self):
        h = angle_warp(0.2, 1, 2)
        x, x_img = qs_basepoints(h, ideal(10), ideal(140), ideal(260))
        cloud = qs_cloud(h, VisualConfig(x), VisualConfig(x_img), 12000, seed=7)
        assert cloud.alpha >= 1.0 / h.declared_L - 0.1
        # brute-force cross-check of the envelope on a coarse vertical slab:
        # near t = 1 the fitted line must dominate the sampled ratios
        t, ratio = cloud.pairs[:, 0], cloud.pairs[:, 1]
        slab = (t > 0.8) & (t < 1.25)
        fitted = cloud.coeff * t[slab] ** cloud.alpha
        assert np.quantile(ratio[slab] / fitted, 0.98) < 1.25

    def test_serialization(self, tmp_path):
        cloud = qs_cloud(identity_map(2), CFG0, CFG0, 500, seed=8)
        csv_path = tmp_path / "cloud.csv"
        cloud.to_csv(csv_path)
        header, first = csv_path.read_text().splitlines()[:2]
        assert header == "t,ratio"
        assert len(first.split(",")) == 2
        summary = json.loads(cloud.fit_json(tmp_path / "fit.json"))
        assert summary["alpha"] == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "fit.json").exists()

    def test_invalid_cloud_rejected(self):
        with pytest.raises(GeometryError):
            QsCloud(pairs=np.array([[1.0, -1.0]]), alpha=1.0, coeff=1.0)
