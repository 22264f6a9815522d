"""Core model tests: distances, geodesics, exponential map, angles,
isometries.  Derived expectations are computed by independent oracles
(quadrature of the line element, circle geometry) before being asserted."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hypext.errors import GeometryError
from hypext.model import (
    BallPoint,
    CurvatureScale,
    IdealPoint,
    K1,
    MobiusIsometry,
    TangentVector,
    _angle_raw,
    _direction_raw,
    _dist_raw,
    _exp_raw,
    _ray_limit_raw,
    _right_triangle_residual_raw,
    _shoot_raw,
    angle,
    apply_mobius,
    direction_at,
    exp_map,
    geodesic_between,
    hyp_dist,
    log_map,
    normalize_to_diameter,
    ray_limit,
    right_triangle_residual,
    rotation_taking,
)
from hypext.sampling import rng_from, sample_ball_hyperbolic, sample_boundary

K2 = CurvatureScale(2.0)
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ORIGIN = BallPoint([0.0, 0.0])


def radial_length_oracle(r, lam=1.0):
    """Quadrature of the line element 2 / (lam (1 - t^2)) along a radius."""
    val, _ = quad(lambda t: 2.0 / (lam * (1.0 - t * t)), 0.0, r)
    return val


def rng():
    return np.random.default_rng(1234)


def random_interior(gen, n, max_norm=0.9):
    v = gen.normal(size=n)
    return BallPoint(v / np.linalg.norm(v) * gen.uniform(0.0, max_norm))


class TestHypDist:
    def test_identity_case(self):
        assert hyp_dist(K1, ORIGIN, ORIGIN) == 0.0

    def test_radial_against_quadrature(self):
        oracle = radial_length_oracle(0.5)
        assert oracle == pytest.approx(np.log(3.0), abs=1e-10)
        assert hyp_dist(K1, ORIGIN, BallPoint([0.5, 0.0])) == pytest.approx(oracle, abs=1e-12)

    def test_curvature_scaling_of_radial(self):
        assert hyp_dist(K2, ORIGIN, BallPoint([0.5, 0.0])) == pytest.approx(
            np.log(3.0) / 2.0, abs=1e-12)

    def test_interior_guard_rejected(self):
        with pytest.raises(GeometryError):
            BallPoint([1.0 - 1e-14, 0.0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_triangle_inequality(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 4))
        x, y, z = (random_interior(gen, n) for _ in range(3))
        assert hyp_dist(K1, x, y) == hyp_dist(K1, y, x)
        assert hyp_dist(K1, x, y) <= hyp_dist(K1, x, z) + hyp_dist(K1, z, y) + 1e-9

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lambda_scaling_exact(self, seed):
        gen = np.random.default_rng(seed)
        x, y = random_interior(gen, 2), random_interior(gen, 2)
        lam = float(gen.uniform(1.0, 4.0))
        k = CurvatureScale(lam)
        assert hyp_dist(k, x, y) * lam == pytest.approx(hyp_dist(K1, x, y), abs=1e-13)


class TestGeodesics:
    def test_diameter_between_antipodal_ideals(self):
        g = geodesic_between(IdealPoint(E1), IdealPoint(-E1))
        assert np.allclose(g.anchor.coords, 0.0)

    def test_ray_from_origin(self):
        g = geodesic_between(ORIGIN, IdealPoint(E2))
        assert np.allclose(g.anchor.coords, 0.0)
        assert np.allclose(g.unit_direction_at_anchor, E2)

    def test_orthogonal_circle_through_neighbor_ideals(self):
        # circle through e1 and e2 orthogonal to the unit circle has center
        # (1, 1) and radius 1; nearest point to the origin is on the diagonal
        g = geodesic_between(IdealPoint(E1), IdealPoint(E2))
        expected_anchor = (1.0 - 1.0 / np.sqrt(2.0)) * (E1 + E2)
        assert np.allclose(g.anchor.coords, expected_anchor, atol=1e-12)
        center = np.array([1.0, 1.0])
        for t in (-1.0, 0.0, 2.0):
            p = g.point_at(t).coords
            # orthogonality: |p - c|^2 = r^2 = 1 exactly on the circle
            assert np.dot(p - center, p - center) == pytest.approx(1.0, abs=1e-10)

    def test_point_at_inverts_radial_distance(self):
        g = geodesic_between(IdealPoint(-E1), IdealPoint(E1))
        for t in (-1.2, 0.0, 0.7, 2.5):
            assert np.allclose(g.point_at(t).coords, [np.tanh(t / 2.0), 0.0], atol=1e-12)

    def test_unit_speed_contract(self):
        g = geodesic_between(IdealPoint(-E1), IdealPoint(E1))
        d = hyp_dist(K1, g.point_at(0.3), g.point_at(1.1))
        assert d == pytest.approx(0.8, abs=1e-9)

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(GeometryError):
            geodesic_between(IdealPoint(E1), IdealPoint(E1))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_anchor_on_arc_and_closure_membership(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 4))
        a = random_interior(gen, n, 0.85)
        direction = gen.normal(size=n)
        b = IdealPoint.from_direction(direction)
        g = geodesic_between(a, b)
        assert abs(g.param_of(a)) < 40.0
        assert np.allclose(g.point_at(g.param_of(a)).coords, a.coords, atol=1e-9)
        far = g.point_at(25.0).coords
        assert np.linalg.norm(far / np.linalg.norm(far) - g.ideal_ends[1]) < 1e-6


class TestExpLog:
    def test_radial_exponential(self):
        for t in (0.25, 1.0, 3.0):
            v = TangentVector(ORIGIN, E1 * (t / 2.0))  # conformal factor 2 at 0
            assert np.allclose(exp_map(ORIGIN, v).coords, [np.tanh(t / 2.0), 0.0],
                               atol=1e-12)

    def test_zero_vector_is_identity(self):
        x = BallPoint([0.3, -0.2])
        assert exp_map(x, TangentVector(x, [0.0, 0.0])) is x

    def test_log_of_coincident_points_rejected(self):
        x = BallPoint([0.3, -0.2])
        with pytest.raises(GeometryError):
            log_map(x, x)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 4))
        k = CurvatureScale(float(gen.uniform(1.0, 2.5)))
        x = random_interior(gen, n, 0.85)
        vec = gen.normal(size=n) * 0.1
        v = TangentVector(x, vec)
        y = exp_map(x, v, k)
        assert hyp_dist(k, x, y) == pytest.approx(v.hyp_norm(k), abs=1e-10)
        back = log_map(x, y, k)
        assert np.allclose(back.vec, vec, atol=1e-10)


class TestRayLimit:
    def test_radial_ray(self):
        assert np.allclose(ray_limit(ORIGIN, TangentVector(ORIGIN, E2)).direction, E2)

    def test_point_on_diameter(self):
        x = BallPoint([0.3, 0.0])
        assert np.allclose(ray_limit(x, TangentVector(x, E1)).direction, E1, atol=1e-12)

    def test_orthogonal_circle_endpoint(self):
        # independent oracle: endpoint of the circle orthogonal to the unit
        # circle through (s, 0) with vertical tangent: (2s/(1+s^2), ...)
        s = 0.3
        expected = np.array([2 * s / (1 + s * s),
                             np.sqrt(1.0 - (2 * s / (1 + s * s)) ** 2)])
        x = BallPoint([s, 0.0])
        got = ray_limit(x, TangentVector(x, E2)).direction
        assert np.allclose(got, expected, atol=1e-12)
        # cross-check by running far along the geodesic itself
        g = geodesic_between(x, IdealPoint(got))
        far = g.point_at(g.param_of(x) + 30.0).coords
        assert np.linalg.norm(far / np.linalg.norm(far) - expected) < 1e-5

    def test_zero_direction_rejected(self):
        with pytest.raises(GeometryError):
            ray_limit(ORIGIN, TangentVector(ORIGIN, [0.0, 0.0]))


class TestAngle:
    def test_orthogonal_radii(self):
        assert angle(ORIGIN, BallPoint([0.5, 0.0]), BallPoint([0.0, 0.5])) == pytest.approx(
            np.pi / 2.0)

    def test_antipodal_ideals(self):
        assert angle(ORIGIN, IdealPoint(E1), IdealPoint(-E1)) == pytest.approx(np.pi)

    def test_reflection_symmetric_split(self):
        x = BallPoint([0.3, 0.0])
        total = angle(x, IdealPoint(E2), IdealPoint(-E2))
        up = angle(x, IdealPoint(E2), IdealPoint(E1))
        down = angle(x, IdealPoint(-E2), IdealPoint(E1))
        assert 0.0 < total < np.pi
        assert up == pytest.approx(down, abs=1e-12)

    def test_vertex_coincidence_rejected(self):
        with pytest.raises(GeometryError):
            angle(ORIGIN, ORIGIN, IdealPoint(E1))


class TestRightTriangle:
    def build(self, k, leg_a=1.0, leg_b=1.0, at=None, dirs=None):
        c = at if at is not None else ORIGIN
        d1, d2 = dirs if dirs is not None else (E1, E2)
        conf = k.lam * (1.0 - c.coords @ c.coords) / 2.0
        va = exp_map(c, TangentVector(c, d1 * leg_b * conf), k)
        vb = exp_map(c, TangentVector(c, d2 * leg_a * conf), k)
        return va, vb, c

    def test_unit_legs_reference_curvature(self):
        va, vb, vc = self.build(K1)
        assert abs(right_triangle_residual(K1, va, vb, vc)) < 1e-9

    def test_euclidean_limit(self):
        va, vb, vc = self.build(K1, leg_a=1e-4, leg_b=1e-4)
        ang_sum = angle(va, vb, vc) + angle(vb, va, vc)
        assert ang_sum == pytest.approx(np.pi / 2.0, abs=1e-6)
        assert abs(right_triangle_residual(K1, va, vb, vc)) < 1e-9

    def test_rescaled_curvature(self):
        va, vb, vc = self.build(K2)
        assert abs(right_triangle_residual(K2, va, vb, vc)) < 1e-9

    def test_non_right_triangle_rejected(self):
        with pytest.raises(GeometryError):
            right_triangle_residual(K1, BallPoint([0.5, 0.0]), BallPoint([0.4, 0.3]),
                                    BallPoint([0.0, 0.1]))


class TestMobius:
    def test_identity(self):
        x = BallPoint([0.2, -0.4])
        assert np.allclose(apply_mobius(MobiusIsometry.identity(2), x).coords, x.coords)

    def test_normalize_diameter_is_axis_fixing(self):
        g = geodesic_between(IdealPoint(-E1), IdealPoint(E1))
        m = normalize_to_diameter(g)
        assert np.linalg.norm(m.apply_interior_raw(np.zeros(2))) < 1e-12
        assert np.allclose(m.apply_ideal_raw(E1), E1, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_distance_preserved(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 4))
        shift = gen.normal(size=n)
        shift *= gen.uniform(0.0, 0.7) / np.linalg.norm(shift)
        u = gen.normal(size=n)
        v = gen.normal(size=n)
        rot = rotation_taking(u / np.linalg.norm(u), v / np.linalg.norm(v))
        iso = MobiusIsometry.translation(shift).then(MobiusIsometry.rotation(rot))
        x, y = random_interior(gen, n), random_interior(gen, n)
        assert hyp_dist(K1, apply_mobius(iso, x), apply_mobius(iso, y)) == pytest.approx(
            hyp_dist(K1, x, y), abs=1e-9)
        back = apply_mobius(iso.inverse(), apply_mobius(iso, x))
        assert np.allclose(back.coords, x.coords, atol=1e-11)

    def test_normalize_arbitrary_geodesic(self):
        gen = np.random.default_rng(5)
        for _ in range(10):
            n = int(gen.integers(2, 4))
            a = random_interior(gen, n, 0.8)
            b = IdealPoint.from_direction(gen.normal(size=n))
            g = geodesic_between(a, b)
            m = normalize_to_diameter(g)
            image_a = m.apply_interior_raw(a.coords)
            assert np.linalg.norm(image_a[1:]) < 1e-9
            e1 = np.zeros(n)
            e1[0] = 1.0
            assert np.allclose(m.apply_ideal_raw(g.ideal_ends[1]), e1, atol=1e-9)


class TestConvexity:
    def test_midpoint_convexity_and_asymptotic_decrease(self):
        gen = np.random.default_rng(8)
        for _ in range(25):
            us = gen.normal(size=(3, 2))
            us /= np.linalg.norm(us, axis=1, keepdims=True)
            if min(np.linalg.norm(us[0] - us[1]), np.linalg.norm(us[2] - us[1])) < 1e-2:
                continue
            g1 = geodesic_between(IdealPoint(us[0]), IdealPoint(us[1]))
            g2 = geodesic_between(IdealPoint(us[2]), IdealPoint(us[1]))

            def gap(t):
                return hyp_dist(K1, g1.point_at(t), g2.point_at(t))

            t0, t1 = np.sort(gen.uniform(-3.0, 3.0, 2))
            assert gap(0.5 * (t0 + t1)) <= 0.5 * (gap(t0) + gap(t1)) + 1e-8
            # shared forward endpoint (both run toward us[1]): nonincreasing
            assert gap(t1 + 0.5) <= gap(t1) + 1e-8


class TestRowWiseKernels:
    """The row-wise kernels over many rows at once, held to the scalar APIs
    row by row and to closed forms that do not share their code."""

    ROWS = 60

    def rows(self, n, lam, seed):
        gen = rng_from(seed)
        x = sample_ball_hyperbolic(gen, self.ROWS, n, lam, 4.0)
        v = gen.normal(size=(self.ROWS, n)) * (1.0 - np.sum(x * x, axis=1, keepdims=True))
        y = sample_ball_hyperbolic(gen, self.ROWS, n, lam, 4.0)
        u = sample_boundary(gen, self.ROWS, n)
        return x, v, y, u

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0])
    def test_rows_match_scalar_apis(self, n, lam):
        k = CurvatureScale(lam)
        x, v, y, u = self.rows(n, lam, seed=int(10 * lam) + n)
        exp_rows = _exp_raw(x, v, lam)
        ray_rows = _ray_limit_raw(x, v)
        to_ball = _direction_raw(x, y)
        to_ideal = _direction_raw(x, u)
        angles = _angle_raw(x, y, u)
        for i in range(self.ROWS):
            xi, yi, ui = BallPoint(x[i]), BallPoint(y[i]), IdealPoint(u[i])
            tv = TangentVector(xi, v[i])
            assert np.abs(exp_rows[i] - exp_map(xi, tv, k).coords).max() <= 1e-12
            assert np.abs(ray_rows[i] - ray_limit(xi, tv).direction).max() <= 1e-12
            assert np.abs(to_ball[i] - direction_at(xi, yi)).max() <= 1e-12
            assert np.abs(to_ideal[i] - direction_at(xi, ui)).max() <= 1e-12
            assert abs(angles[i] - angle(xi, yi, ui)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0])
    def test_rows_match_closed_forms(self, n, lam):
        x, v, y, u = self.rows(n, lam, seed=int(10 * lam) + n + 100)
        conf = 2.0 / (lam * (1.0 - np.sum(x * x, axis=1)))
        # exp: the point lies at the tangent vector's hyperbolic length
        ends = _exp_raw(x, v, lam)
        length = conf * np.linalg.norm(v, axis=1)
        assert np.allclose(_dist_raw(lam, x, ends), length, rtol=1e-9, atol=1e-12)
        # ray limit: the exp of a long multiple of v sits on it
        far = _exp_raw(x, v * (40.0 / (lam * length))[:, None], lam)
        assert np.abs(_ray_limit_raw(x, v) - far).max() <= 1e-9
        # angle at x: hyperbolic law of cosines on interior triangles
        z = _exp_raw(x, np.roll(v, 1, axis=0), lam)
        a, b, c = (_dist_raw(lam, x, y), _dist_raw(lam, x, z), _dist_raw(lam, y, z))
        cos_c = ((np.cosh(lam * a) * np.cosh(lam * b) - np.cosh(lam * c))
                 / (np.sinh(lam * a) * np.sinh(lam * b)))
        assert np.abs(np.cos(_angle_raw(x, y, z)) - cos_c).max() <= 1e-8

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_per_row_curvature_and_padding(self, lam):
        x, v, y, u = self.rows(2, lam, seed=41)
        lams = np.where(np.arange(self.ROWS) % 2 == 0, lam, 1.5)
        per_row = _exp_raw(x, v, lams)
        for i in range(self.ROWS):
            assert np.array_equal(per_row[i], _exp_raw(x[i], v[i], lams[i]))
        # a 2-D row padded with a zero coordinate is the same row in 3-D
        pad = lambda a: np.hstack([a, np.zeros((a.shape[0], 1))])
        assert np.array_equal(pad(_exp_raw(x, v, lam)), _exp_raw(pad(x), pad(v), lam))
        assert np.array_equal(_angle_raw(x, y, u), _angle_raw(pad(x), pad(y), pad(u)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_shoot_rows_at_signed_distance(self, n):
        # per-row curvature and signed distances: a row lies at |r| from x,
        # seen along d for r > 0 and along -d for r < 0; r = 0 stays at x
        gen = rng_from(50 + n)
        lams = gen.choice([1.0, 1.5, 2.0], self.ROWS)
        x = sample_ball_hyperbolic(gen, self.ROWS, n, lams, 2.0)
        d = sample_boundary(gen, self.ROWS, n)
        r = gen.uniform(0.1, 3.0, self.ROWS) * np.where(np.arange(self.ROWS) % 2, -1.0, 1.0)
        r[:4] = 0.0
        y = _shoot_raw(x, d, r, lams)
        assert np.array_equal(y[:4], x[:4])
        assert np.abs(_dist_raw(lams, x, y)[4:] / np.abs(r[4:]) - 1.0).max() <= 1e-12
        assert np.abs(_direction_raw(x, y)[4:] - np.sign(r[4:, None]) * d[4:]).max() <= 1e-12

    def test_right_triangle_rows_match_scalar(self):
        gen = rng_from(5)
        c = sample_ball_hyperbolic(gen, 20, 3, 1.0, 2.0)
        d1 = sample_boundary(gen, 20, 3)
        d2 = sample_boundary(gen, 20, 3)
        d2 -= np.sum(d2 * d1, axis=1, keepdims=True) * d1
        d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
        conf = 2.0 * (1.0 - np.sum(c * c, axis=1, keepdims=True)) / 2.0
        va = _exp_raw(c, d1 * conf, 2.0)
        vb = _exp_raw(c, d2 * 0.5 * conf, 2.0)
        residual, gamma = _right_triangle_residual_raw(2.0, va, vb, c)
        assert np.abs(gamma - np.pi / 2.0).max() <= 1e-9
        for i in range(20):
            assert abs(residual[i] - right_triangle_residual(
                K2, BallPoint(va[i]), BallPoint(vb[i]), BallPoint(c[i]))) <= 1e-12

    def test_scalar_error_paths(self):
        x = BallPoint([0.3, -0.2])
        with pytest.raises(GeometryError):
            ray_limit(x, TangentVector(x, [0.0, 0.0]))
        with pytest.raises(GeometryError):
            direction_at(x, BallPoint([0.3, -0.2]))
        with pytest.raises(GeometryError):
            angle(x, x, IdealPoint(E1))
        with pytest.raises(GeometryError):
            exp_map(x, TangentVector(ORIGIN, [0.1, 0.0]))
        assert np.all(np.isnan(_ray_limit_raw(x.coords[None], np.zeros((1, 2)))))
        assert np.all(np.isnan(_direction_raw(x.coords[None], x.coords[None])))
