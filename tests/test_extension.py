"""Extension-map tests: the construction itself, its laws (identity,
isometry, equivariance, injectivity, ray monotonicity), span and band
measurements, continuity moduli, and comparisons with interior maps."""

import numpy as np
import pytest

from hypext.coarse import orthogonal_project
from hypext.errors import GeometryError
from hypext.extension import (
    ExtensionConfig,
    _extend_batch,
    _golden_max,
    basepoint_sensitivity,
    boundary_bounds_check,
    compare_to_interior,
    continuity_modulus,
    equator,
    extend,
    extension_field,
    projection_span,
    q_of,
)
from hypext.maps import (
    angle_warp,
    composite,
    identity_map,
    jittered_isometry,
    latitude_warp,
    mobius_boundary,
    mobius_map,
    polar_warp,
    translation_along_first_axis,
)
from hypext.model import (
    BallPoint,
    IdealPoint,
    K1,
    _mobius_add,
    _translate_ideal,
    apply_mobius,
    geodesic_between,
    hyp_dist,
)
from hypext.sampling import rng_from, sample_ball_euclidean, sample_ball_hyperbolic

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ORIGIN = BallPoint([0.0, 0.0])
P_REF = IdealPoint(-E1)
CFG2 = ExtensionConfig(p=P_REF)
SQRT2_M1 = np.sqrt(2.0) - 1.0
P3 = IdealPoint([-1.0, 0.0, 0.0])
# latitude_warp(0.15, 2, 3) has two maxima of the foot parameter 1.7e-4
# apart on the equator of this point
TWO_MAXIMA_3D = (0.8310816517909676, 0.30416482467208117, -0.3117331679837296)


def _dense_extremes(h, p, x, m=8192):
    """Lowest and highest foot parameter of h over m samples of the equator
    of x on the axis h(q_x) -> h(p), built without the extension core.

    The foot of an ideal u on the geodesic from a to b sits at parameter
    log(|u - a| / |u - b|) plus a constant (a cross-ratio), so the extreme
    samples are picked by that and placed on the axis by orthogonal_project.
    The samples sit half a step off the core's grid, with their own basis.
    """
    a, b = h(q_of(x, p)), h(p)
    axis = geodesic_between(a, b)
    basis = np.linalg.svd(_mobius_add(-x.coords, p.direction)[None, :])[2][1:]
    theta = (np.arange(m) + 0.5) * 2.0 * np.pi / m
    us = h.apply_raw(_translate_ideal(
        x.coords, np.cos(theta)[:, None] * basis[0] + np.sin(theta)[:, None] * basis[1]))
    rel = np.log(np.linalg.norm(us - a.direction, axis=1)
                 / np.linalg.norm(us - b.direction, axis=1))

    def param(u):
        return axis.param_of(orthogonal_project(IdealPoint(u), axis))

    return param(us[np.argmin(rel)]), param(us[np.argmax(rel)])


def ideal(deg):
    a = np.radians(deg)
    return IdealPoint([np.cos(a), np.sin(a)])


class TestQOf:
    def test_on_diameter(self):
        assert np.allclose(q_of(BallPoint([0.3, 0.0]), P_REF).direction, E1, atol=1e-12)

    def test_through_origin(self):
        p = IdealPoint.from_direction([0.6, 0.8])
        assert np.allclose(q_of(ORIGIN, p).direction, -p.direction, atol=1e-12)

    def test_defining_property(self):
        gen = rng_from(0)
        for _ in range(30):
            n = int(gen.integers(2, 4))
            x = BallPoint(sample_ball_euclidean(gen, 1, n, 0.9)[0])
            p = IdealPoint.from_direction(gen.normal(size=n))
            q = q_of(x, p)
            g = geodesic_between(p, q)
            assert np.allclose(g.point_at(g.param_of(x)).coords, x.coords, atol=1e-9)


class TestEquator:
    def test_origin_two_dim(self):
        pts = equator(ORIGIN, P_REF)
        got = sorted(tuple(q.direction.round(12)) for q in pts)
        assert got == [(0.0, -1.0), (0.0, 1.0)]

    def test_shifted_point_two_dim(self):
        s = 0.3
        expected_x = 2 * s / (1 + s * s)
        expected_y = np.sqrt(1 - expected_x ** 2)
        pts = equator(BallPoint([s, 0.0]), P_REF)
        got = sorted(tuple(q.direction) for q in pts)
        assert np.allclose(got[0], (expected_x, -expected_y), atol=1e-12)
        assert np.allclose(got[1], (expected_x, expected_y), atol=1e-12)

    def test_origin_three_dim(self):
        pts = equator(BallPoint([0.0, 0.0, 0.0]), IdealPoint([0.0, 0.0, -1.0]), 4)
        dirs = np.stack([q.direction for q in pts])
        assert np.allclose(np.abs(dirs[:, 2]), 0.0, atol=1e-12)
        gram = np.abs(dirs @ dirs.T)
        # four equally spaced directions: orthogonal or antipodal pairs
        assert np.allclose(np.sort(gram.ravel()), np.sort(
            np.abs(np.eye(4) * 0 + [[1, 0, 1, 0], [0, 1, 0, 1],
                                    [1, 0, 1, 0], [0, 1, 0, 1]]).ravel()), atol=1e-9)


class TestExtendLaws:
    def test_identity_law_exact(self):
        gen = rng_from(1)
        for coords in sample_ball_euclidean(gen, 60, 2, 0.93):
            x = BallPoint(coords)
            assert hyp_dist(K1, extend(identity_map(2), CFG2, x), x) < 1e-9

    def test_translation_closed_form(self):
        iso = translation_along_first_axis(1.0, 2)
        h = mobius_boundary(iso)
        img = extend(h, CFG2, ORIGIN)
        assert np.allclose(img.coords, [np.tanh(0.5), 0.0], atol=1e-12)
        assert hyp_dist(K1, ORIGIN, img) == pytest.approx(1.0, abs=1e-12)

    def test_warp_self_consistency_against_denser_equator(self):
        h = angle_warp(0.2, 1, 3)
        coarse = ExtensionConfig(p=IdealPoint([-1.0, 0.0, 0.0]), m=32, refine_iters=24)
        dense = ExtensionConfig(p=IdealPoint([-1.0, 0.0, 0.0]), m=512, refine_iters=48)
        gen = rng_from(2)
        for coords in sample_ball_euclidean(gen, 12, 3, 0.85):
            x = BallPoint(coords)
            gap = hyp_dist(K1, extend(h, coarse, x), extend(h, dense, x))
            assert gap < 1e-4

    def test_equivariance_under_target_isometry(self):
        gen = rng_from(3)
        h = angle_warp(0.2, 1, 2)
        iso = translation_along_first_axis(0.6, 2)
        post = composite([h, mobius_boundary(iso)])
        for coords in sample_ball_euclidean(gen, 25, 2, 0.9):
            x = BallPoint(coords)
            lhs = extend(post, CFG2, x)
            rhs = apply_mobius(iso, extend(h, CFG2, x))
            assert hyp_dist(K1, lhs, rhs) < 1e-6

    def test_colliding_images_rejected(self):
        # a boundary map squeezing p and q_x together is not accepted
        class Collapser:
            n = 2
            declared_L = 1.0
            declared_A = 0.0

            def __call__(self, point):
                return IdealPoint(E1)

            def apply_raw(self, us):
                return np.broadcast_to(E1, np.asarray(us).shape).copy()

            def label(self):
                return "collapser"

        with pytest.raises(GeometryError):
            extend(Collapser(), CFG2, BallPoint([0.2, 0.1]))

    def test_injectivity_on_grid(self):
        h = angle_warp(0.2, 1, 2)
        gen = rng_from(4)
        pts = sample_ball_euclidean(gen, 80, 2, 0.9)
        imgs = np.stack([extend(h, CFG2, BallPoint(c)).coords for c in pts])
        src = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        dst = np.linalg.norm(imgs[:, None, :] - imgs[None, :, :], axis=-1)
        mask = src >= 1e-3
        assert dst[mask].min() >= 1e-8

    def test_monotone_along_rays(self):
        h = angle_warp(0.2, 1, 2)
        gen = rng_from(5)
        for _ in range(40):
            q = gen.normal(size=2)
            q /= np.linalg.norm(q)
            if np.linalg.norm(q - P_REF.direction) < 1e-2:
                continue
            g = geodesic_between(P_REF, IdealPoint(q))
            t1, t2 = np.sort(gen.uniform(-3.0, 3.0, 2))
            if t2 - t1 < 1e-2:
                continue
            t = _extend_batch(h, CFG2, g.point_at_raw(np.array([t1, t2]))).t_max
            assert t[1] < t[0]  # closer to q means farther from h(p)


class TestSpanAndBands:
    def test_identity_span_degenerate(self):
        span = projection_span(identity_map(2), CFG2, BallPoint([0.3, 0.2]))
        assert span.length < 1e-9

    def test_mobius_span_degenerate(self):
        h = mobius_boundary(translation_along_first_axis(1.0, 2))
        span = projection_span(h, CFG2, BallPoint([0.3, 0.2]))
        assert span.length < 1e-6

    def test_warp_span_positive_and_bounded(self):
        h = angle_warp(0.2, 1, 2)
        gen = rng_from(6)
        lengths = [projection_span(h, CFG2, BallPoint(c)).length
                   for c in sample_ball_hyperbolic(gen, 100, 2, 1.0, 6.0)]
        assert max(lengths) > 0.0
        assert max(lengths) < 1.0

    def test_golden_extreme_minimum(self):
        # bracket 0 seeks the max of 5 - (t - 1)^2, bracket 1 the min of
        # (t - 1)^2 + 2 as the max of its negation, in lockstep
        def f(x):
            return np.array([5.0 - (x[0] - 1.0) ** 2, -((x[1] - 1.0) ** 2 + 2.0)])

        best = _golden_max(f, np.zeros(2), np.full(2, 3.0), 40)
        assert best[0] == pytest.approx(5.0, abs=1e-12)
        assert -best[1] == pytest.approx(2.0, abs=1e-12)

    def test_three_dim_span_matches_dense_equator(self):
        h = latitude_warp(0.15, 2, 3)
        cfg = ExtensionConfig(p=P3)
        for coords in sample_ball_hyperbolic(rng_from(31), 8, 3, 1.0, 4.0):
            x = BallPoint(coords)
            span = projection_span(h, cfg, x)
            lo, hi = _dense_extremes(h, P3, x)
            assert span.t_min == pytest.approx(lo, abs=1e-4)
            assert span.t_max == pytest.approx(hi, abs=1e-4)

    def test_two_near_equal_maxima_reach_the_higher(self):
        h = latitude_warp(0.15, 2, 3)
        x = BallPoint(TWO_MAXIMA_3D)
        lo, hi = _dense_extremes(h, P3, x)
        axis = geodesic_between(h(q_of(x, P3)), h(P3))
        t_x = axis.param_of(extend(h, ExtensionConfig(p=P3), x))
        assert hi - 1e-9 <= t_x <= hi + 1e-6

    def test_three_dim_span_ends_reach_dense_extremes(self):
        # the refined ends are attained feet, so they lie inside the true
        # extremes: no dense sample may sit more than 1e-9 beyond them, and
        # they may pass the densest sample only by the grid's own shortfall
        h = latitude_warp(0.15, 2, 3)
        pts = sample_ball_hyperbolic(rng_from(32), 300, 3, 1.0, 4.0)
        out = _extend_batch(h, ExtensionConfig(p=P3), pts)
        for coords, t_min, t_max in zip(pts, out.t_min, out.t_max):
            lo, hi = _dense_extremes(h, P3, BallPoint(coords))
            assert hi - 1e-9 <= t_max <= hi + 1e-6
            assert lo - 1e-6 <= t_min <= lo + 1e-9

    def test_source_band_is_homogeneous(self):
        gen = rng_from(7)
        pts = sample_ball_hyperbolic(gen, 40, 2, 1.0, 5.0)
        rep = boundary_bounds_check(angle_warp(0.2, 1, 2), CFG2, pts)
        assert rep.source_min == pytest.approx(SQRT2_M1, abs=1e-9)
        assert rep.source_max == pytest.approx(SQRT2_M1, abs=1e-9)

    def test_source_band_scales_with_curvature(self):
        from hypext.model import CurvatureScale

        k2 = CurvatureScale(2.0)
        cfg = ExtensionConfig(p=P_REF, k=k2)
        gen = rng_from(7)
        pts = sample_ball_hyperbolic(gen, 20, 2, 2.0, 3.0)
        rep = boundary_bounds_check(identity_map(2), cfg, pts)
        assert rep.source_min == pytest.approx(SQRT2_M1 ** 0.5, abs=1e-9)
        assert rep.source_max == pytest.approx(SQRT2_M1 ** 0.5, abs=1e-9)

    def test_identity_image_band_equals_source_band(self):
        gen = rng_from(8)
        pts = sample_ball_hyperbolic(gen, 25, 2, 1.0, 4.0)
        rep = boundary_bounds_check(identity_map(2), CFG2, pts)
        assert rep.image_min == pytest.approx(SQRT2_M1, abs=1e-9)
        assert rep.image_max == pytest.approx(SQRT2_M1, abs=1e-9)

    def test_warp_image_band_positive_below_one(self):
        gen = rng_from(9)
        pts = sample_ball_hyperbolic(gen, 60, 2, 1.0, 5.0)
        rep = boundary_bounds_check(angle_warp(0.2, 1, 2), CFG2, pts)
        assert 0.0 < rep.image_min <= rep.image_max < 1.0


class TestContinuity:
    def test_identity_moduli_are_exact(self):
        rows = continuity_modulus(identity_map(2), CFG2, 4.0,
                                  [0.01, 0.1, 0.5], n_base=8, n_dirs=5, seed=1)
        for eps, omega, delta in rows:
            assert omega == pytest.approx(eps, abs=1e-9)
            assert delta == pytest.approx(eps, abs=1e-9)

    def test_mobius_moduli_match_identity(self):
        h = mobius_boundary(translation_along_first_axis(1.0, 2))
        rows = continuity_modulus(h, CFG2, 4.0, [0.05, 0.4], n_base=6, n_dirs=5, seed=2)
        for eps, omega, delta in rows:
            assert omega == pytest.approx(eps, abs=1e-6)
            assert delta == pytest.approx(eps, abs=1e-6)

    def test_warp_moduli_positive_and_ordered(self):
        rows = continuity_modulus(angle_warp(0.2, 1, 2), CFG2, 5.0,
                                  [0.1], n_base=10, n_dirs=6, seed=3)
        eps, omega, delta = rows[0]
        assert 0.0 < delta <= omega

    def test_bad_grid_rejected(self):
        with pytest.raises(GeometryError):
            continuity_modulus(identity_map(2), CFG2, 4.0, [0.1, 0.1])


class TestCompareToInterior:
    def test_mobius_agrees_exactly(self):
        iso = translation_along_first_axis(1.0, 2)
        gen = rng_from(10)
        pts = sample_ball_hyperbolic(gen, 40, 2, 1.0, 4.0)
        assert compare_to_interior(mobius_map(iso), CFG2, pts) < 1e-5

    def test_jitter_stays_within_amplitude(self):
        iso = translation_along_first_axis(1.0, 2)
        f = jittered_isometry(iso, 0.3)
        gen = rng_from(11)
        pts = sample_ball_hyperbolic(gen, 60, 2, 1.0, 4.0)
        sup = compare_to_interior(f, CFG2, pts, h=mobius_boundary(iso))
        assert sup <= 0.3 + 1e-5

    def test_polar_warp_bounded_and_stable(self):
        f = polar_warp(0.2, 1, 2)
        gen = rng_from(12)
        inner = sample_ball_hyperbolic(gen, 120, 2, 1.0, 3.0)
        shell = sample_ball_hyperbolic(gen, 120, 2, 1.0, 6.0)
        sup3 = compare_to_interior(f, CFG2, inner)
        sup6 = max(sup3, compare_to_interior(f, CFG2, shell))
        assert np.isfinite(sup6) and sup6 > 0.0
        assert (sup6 - sup3) / sup6 < 0.10


class TestBasepointSensitivity:
    def test_identity_is_insensitive(self):
        gen = rng_from(13)
        pts = sample_ball_hyperbolic(gen, 25, 2, 1.0, 3.0)
        assert basepoint_sensitivity(identity_map(2), P_REF, IdealPoint(E2), pts) < 1e-9

    def test_mobius_is_insensitive(self):
        gen = rng_from(14)
        pts = sample_ball_hyperbolic(gen, 25, 2, 1.0, 3.0)
        h = mobius_boundary(translation_along_first_axis(1.0, 2))
        assert basepoint_sensitivity(h, P_REF, IdealPoint(E2), pts) < 1e-5

    def test_warp_is_sensitive_but_finite(self):
        gen = rng_from(15)
        pts = sample_ball_hyperbolic(gen, 25, 2, 1.0, 3.0)
        val = basepoint_sensitivity(angle_warp(0.2, 1, 2), P_REF, IdealPoint(E2), pts)
        assert np.isfinite(val) and val > 0.0

    def test_equal_reference_points_rejected(self):
        with pytest.raises(GeometryError):
            basepoint_sensitivity(identity_map(2), P_REF, P_REF, np.zeros((1, 2)))


class TestExtensionField:
    def test_rows_shape_and_identity_values(self):
        gen = rng_from(16)
        pts = sample_ball_euclidean(gen, 9, 2, 0.8)
        rows = extension_field(identity_map(2), CFG2, pts)
        assert rows.shape == (9, 6)
        assert np.allclose(rows[:, 2:4], pts, atol=1e-9)
        assert np.all(rows[:, 5] < 1e-9)

    def test_three_dim_planar_slice_matches_planar_run(self):
        h2 = angle_warp(0.2, 1, 2)
        h3 = angle_warp(0.2, 1, 3)
        cfg3 = ExtensionConfig(p=IdealPoint([-1.0, 0.0, 0.0]), m=256, refine_iters=40)
        gen = rng_from(17)
        pts2 = sample_ball_euclidean(gen, 8, 2, 0.8)
        for coords in pts2:
            f2 = extend(h2, CFG2, BallPoint(coords))
            f3 = extend(h3, cfg3, BallPoint([coords[0], coords[1], 0.0]))
            assert abs(f3.coords[2]) < 1e-9
            assert np.allclose(f3.coords[:2], f2.coords, atol=1e-4)


class TestConfigValidation:
    def test_small_equator_budget_rejected_in_three_dim(self):
        with pytest.raises(GeometryError):
            ExtensionConfig(p=IdealPoint([-1.0, 0.0, 0.0]), m=8)
