"""Coarse geometry tests: projections, thinness, quasicenters, Hausdorff
distance, quasigeodesic deviation, comparison triangles, area defect."""

import numpy as np
import pytest

from hypext import coarse, extension
from hypext.coarse import (
    R_TRUNC,
    Triangle,
    _prepare_side_data,
    _quasicenter_descent,
    _side_gaps,
    _window_dist,
    area_defect,
    comparison_report,
    hausdorff_distance,
    orthogonal_project,
    quasicenter,
    quasigeodesic_deviation,
    thinness,
    thinness_batch,
)
from hypext.errors import GeometryError
from hypext.model import (
    BallPoint,
    CurvatureScale,
    IdealPoint,
    K1,
    MobiusIsometry,
    _arc_frames_raw,
    _dist_raw,
    _geodesic_point_raw,
    _mobius_add,
    _translate_ideal,
    angle,
    apply_mobius,
    geodesic_between,
    hyp_dist,
)
from hypext.verify import _random_isometry, _random_triangles

K2 = CurvatureScale(2.0)
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ORIGIN = BallPoint([0.0, 0.0])
LN_1_SQRT2 = np.log(1.0 + np.sqrt(2.0))


def ideal(deg):
    a = np.radians(deg)
    return IdealPoint([np.cos(a), np.sin(a)])


class TestProjection:
    def test_point_on_geodesic(self):
        g = geodesic_between(IdealPoint(-E1), IdealPoint(E1))
        assert np.allclose(orthogonal_project(ORIGIN, g).coords, 0.0)
        on = BallPoint([0.4, 0.0])
        assert np.allclose(orthogonal_project(on, g).coords, on.coords, atol=1e-12)

    def test_reflection_symmetric_cases(self):
        g = geodesic_between(IdealPoint(-E1), IdealPoint(E1))
        assert np.allclose(orthogonal_project(BallPoint([0.0, 0.5]), g).coords, 0.0,
                           atol=1e-12)
        assert np.allclose(orthogonal_project(IdealPoint(E2), g).coords, 0.0,
                           atol=1e-12)

    def test_perpendicularity_of_foot(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            n = int(gen.integers(2, 4))
            us = gen.normal(size=(2, n))
            us /= np.linalg.norm(us, axis=1, keepdims=True)
            if np.linalg.norm(us[0] - us[1]) < 1e-2:
                continue
            g = geodesic_between(IdealPoint(us[0]), IdealPoint(us[1]))
            q = BallPoint(gen.uniform(-0.5, 0.5, n) * 0.9)
            w = orthogonal_project(q, g)
            if hyp_dist(K1, q, w) < 1e-6:
                continue
            fwd = g.point_at(g.param_of(w) + 1e-6)
            ang = angle(w, q, fwd)
            assert ang == pytest.approx(np.pi / 2.0, abs=1e-4)

    def test_ideal_endpoint_rejected(self):
        g = geodesic_between(IdealPoint(-E1), IdealPoint(E1))
        with pytest.raises(GeometryError):
            orthogonal_project(IdealPoint(E1), g)

    def test_end_guards_match_frame_tests(self):
        # an ideal point is a geodesic's own end when its axial component
        # w.d in the geodesic's Mobius frame exceeds 1 - eps: eps = 1e-10
        # drops an extension foot and eps = 1e-12 refuses a projection.
        # Points sit at 1 - |w.d| = 1.05 eps (inside) and 0.95 eps (outside).
        gen = np.random.default_rng(31)
        for n in (2, 3):
            for lam in (1.0, 2.0):
                us = gen.normal(size=(2, n))
                u, v = us / np.linalg.norm(us, axis=1, keepdims=True)
                m, d = _arc_frames_raw(u, v)
                side = gen.normal(size=(8, n))
                side -= np.outer(side @ d, d)
                side /= np.linalg.norm(side, axis=1, keepdims=True)
                g = geodesic_between(IdealPoint(u), IdealPoint(v), CurvatureScale(lam))
                for eps in (1e-10, 1e-12):
                    z = np.array([1, -1] * 4) * (1.0 - eps * np.repeat([1.05, 0.95], 4))
                    w = z[:, None] * d + np.sqrt(1.0 - z * z)[:, None] * side
                    pts = _translate_ideal(m, w)
                    outside = np.abs(_translate_ideal(-m, pts) @ d) > 1.0 - eps
                    assert np.array_equal(outside, np.repeat([False, True], 4))
                    if eps == 1e-10:
                        dropped = np.isnan(extension._ideal_feet(pts, u, v, lam))
                        assert np.array_equal(dropped, outside)
                        continue
                    for x, out in zip(pts, outside):
                        if out:
                            with pytest.raises(GeometryError):
                                orthogonal_project(IdealPoint(x), g)
                        else:
                            assert np.all(np.isfinite(orthogonal_project(IdealPoint(x), g).coords))
                for end in (u, v):
                    with pytest.raises(GeometryError):
                        orthogonal_project(IdealPoint(end), g)

    def test_distance_to_quarter_geodesic(self):
        # independent circle oracle: sinh d(0, arc(e1, e2)) = 1
        g = geodesic_between(IdealPoint(E1), IdealPoint(E2))
        foot = orthogonal_project(ORIGIN, g)
        assert hyp_dist(K1, ORIGIN, foot) == pytest.approx(LN_1_SQRT2, abs=1e-12)


class TestThinness:
    def test_degenerate_triangle(self):
        tri = Triangle(BallPoint([-0.5, 0.0]), BallPoint([0.5, 0.0]), BallPoint([0.1, 0.0]))
        assert thinness(tri) < 1e-12

    def test_ideal_triangle_attains_classical_constant(self):
        tri = Triangle(ideal(90), ideal(210), ideal(330))
        val = thinness(tri)
        assert val <= np.log(3.0)
        assert val == pytest.approx(LN_1_SQRT2, abs=1e-9)

    def test_lambda_two_is_half(self):
        tri = Triangle(ideal(10), ideal(130), ideal(250))
        assert thinness(tri, K2) == pytest.approx(thinness(tri, K1) / 2.0, abs=1e-9)

    def test_interior_triangle_below_scaled_value(self):
        tri = Triangle(BallPoint([0.5, 0.1]), BallPoint([-0.4, 0.3]), BallPoint([0.0, -0.6]))
        assert thinness(tri, K2) <= thinness(tri, K1) + 1e-12

    def test_batch_matches_scalar(self):
        gen = np.random.default_rng(4)
        coords = gen.uniform(-0.55, 0.55, size=(6, 3, 2))
        flags = np.zeros((6, 3), dtype=bool)
        flags[3:, 0] = True
        coords[flags] /= np.linalg.norm(coords[flags], axis=-1, keepdims=True)
        batch = thinness_batch(coords, flags, K1)
        for i in range(6):
            verts = [IdealPoint(coords[i, j]) if flags[i, j] else BallPoint(coords[i, j])
                     for j in range(3)]
            assert thinness(Triangle(*verts), K1) == pytest.approx(batch[i], abs=1e-10)

    def test_crossing_never_below_dense_sampling(self):
        _check_against_dense(np.random.default_rng(21), R_TRUNC)

    @pytest.mark.parametrize("r_trunc", [1.0, 3.0])
    def test_short_windows_never_below_dense_sampling(self, r_trunc):
        # short truncations put many crossings on the window-end pieces
        _check_against_dense(np.random.default_rng(25), r_trunc)

    def test_closed_form_matches_bisection(self):
        gen = np.random.default_rng(24)
        for lam in (1.0, 2.0):
            for n in (2, 3):
                coords, flags = _random_triangles(gen, 250, n, lam)
                sides = _prepare_side_data(coords, flags, lam, R_TRUNC)
                assert np.max(np.abs(_side_gaps(*sides, lam) - _bisection_gaps(*sides, lam))) \
                    <= 1e-11

    def test_shared_ideal_vertex(self):
        # both sides at the ideal vertex e1 recover it bit for bit, so the
        # coefficient |u_s - v_X|^2 / 2 of side 0 against side 2 is exactly 0
        coords = np.array([[[1.0, 0.0], [-0.5, -0.3], [-0.5, 0.3]]])
        flags = np.array([[True, False, False]])
        for lam in (1.0, 2.0):
            sides = _prepare_side_data(coords, flags, lam, R_TRUNC)
            u, v = sides[:2]
            assert np.array_equal(u[0, 0], v[0, 2])
            gaps = _side_gaps(*sides, lam)
            assert np.all(np.isfinite(gaps))
            assert np.max(np.abs(gaps - _bisection_gaps(*sides, lam))) <= 1e-11
            dist, _ = _dense_side_distances(coords, flags, lam)
            assert np.all(gaps >= dist.min(axis=-1).max(axis=2) - 1e-12)

    def test_end_against_end_crossing(self):
        # with the truncation at radius 1, d_A and d_B cross on side 0 where
        # both feet sit at window ends; without the end-against-end roots
        # the gap reads 0.3143 instead of 0.3356
        ideal_end = np.array([-0.99042, 0.13806])
        coords = np.array([[[-0.537, 0.085], [-0.195, -0.964],
                            ideal_end / np.linalg.norm(ideal_end)]])
        flags = np.array([[False, False, True]])
        sides = _prepare_side_data(coords, flags, 1.0, 1.0)
        gaps = _side_gaps(*sides, 1.0)
        assert np.max(np.abs(gaps - _bisection_gaps(*sides, 1.0))) <= 1e-11
        dist, spacing = _dense_side_distances(coords, flags, 1.0, r_trunc=1.0)
        ref = dist.min(axis=-1).max(axis=2)
        assert np.all(gaps >= ref - 1e-12) and np.all(gaps <= ref + 0.5 * spacing + 1e-12)
        assert gaps[0, 0] == pytest.approx(0.3356, abs=1e-4)

    def test_degenerate_and_tiny_triangles_are_finite(self):
        e1 = np.array([1.0, 0.0])
        base = np.array([0.3, -0.2])
        far = np.array([0.999, 0.0])
        tiny = np.array([[0.0, 0.0], [1e-9, 0.0], [0.0, 1e-9]])
        rows = [
            ([e1, [-0.5, 0.0], [0.2, 0.0]], [True, False, False]),     # collinear
            ([e1, -e1, [0.2, 0.0]], [True, True, False]),               # collinear
            ([base, base + [1e-7, 0.0], base + [2e-7, 1e-15]], [False] * 3),
            (list(tiny), [False] * 3),
            (list(far + tiny), [False] * 3),
            ([e1, [0.0, 1e-9], [0.0, -1e-9]], [True, False, False]),
        ]
        for coords, flags in rows:
            coords = np.array([coords], dtype=float)
            flags = np.array([flags])
            for lam in (1.0, 2.0):
                sides = _prepare_side_data(coords, flags, lam, R_TRUNC)
                gaps = _side_gaps(*sides, lam)
                assert np.all(np.isfinite(gaps)) and np.all(gaps >= 0.0)
                # with interior vertices a gap is at most the distance to a
                # shared vertex, so at most the side's length; sides with a
                # truncated ideal end are long
                assert np.all(gaps <= sides[3] - sides[2] + 1e-12)

    def test_moved_ideal_triangles_attain_classical_constant(self):
        gen = np.random.default_rng(22)
        for lam in (1.0, 2.0):
            for n in (2, 3):
                coords, flags = _random_triangles(gen, 40, n, lam, ideal_prob=1.0)
                for row in coords:
                    row[:] = _random_isometry(gen, n).apply_ideal_raw(row)
                vals = thinness_batch(coords, flags, CurvatureScale(lam))
                assert np.max(np.abs(vals - LN_1_SQRT2 / lam)) <= 1e-9

    def test_near_sphere_vertices_lie_on_their_sides(self):
        # interior vertices of these draws reach |x| ~ 0.9999, where ends
        # found through Mobius translations by a vertex missed the far
        # vertex by up to 1.2e-4
        for coords, flags in _near_sphere_triangles():
            u, v, _, _ = _prepare_side_data(coords, flags, 2.0, R_TRUNC)
            for side, vertex in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)):
                keep = ~flags[:, vertex]
                miss = _window_dist(coords[keep, vertex], u[keep, side], v[keep, side],
                                    -np.inf, np.inf, 2.0)
                assert np.max(miss) <= 1e-9

    def test_near_sphere_thinness_stays_below_sup(self):
        # all-ideal triangles attain ln(1 + sqrt 2) / lam and none exceeds it
        for coords, flags in _near_sphere_triangles():
            assert np.max(thinness_batch(coords, flags, K2)) <= LN_1_SQRT2 / 2.0 + 1e-12

    def test_maximum_at_window_end(self):
        # a short truncation leaves side 0 without a crossing of its two
        # distances, and that side's end carries the triangle's thinness
        coords = np.stack([ideal(11).direction, ideal(136).direction,
                           ideal(272).direction])[None]
        flags = np.ones((1, 3), dtype=bool)
        val = thinness_batch(coords, flags, K1, r_trunc=1.0)[0]
        dist, _ = _dense_side_distances(coords, flags, 1.0, r_trunc=1.0)
        gaps = dist[0].min(axis=-1)
        assert np.argmax(gaps.max(axis=1)) == 0
        diff = dist[0, 0, :, 0] - dist[0, 0, :, 1]
        assert np.all(np.sign(diff) == np.sign(diff[0]))
        assert np.argmax(gaps[0]) in (0, DENSE - 1)
        assert val == pytest.approx(gaps.max(), abs=1e-12)


def _oracle_line_dist(x, u, v, lam):
    """Distance from ball point x to the geodesic (u, v) at 50 digits:
    cosh^2 d = 2 <X, U> <X, V> / (-<U, V>) for X the unit timelike lift of
    x and U = (1, u), V = (1, v) null.  -<W, U> = (1 + |x|^2) / 2 - x.u for
    W = X (1 - |x|^2) / 2, and u, v are renormalized at 50 digits, since
    float unit vectors are not null."""
    import mpmath

    with mpmath.workdps(50):
        x, u, v = ([mpmath.mpf(float(c)) for c in row] for row in (x, u, v))
        u, v = ([c / mpmath.sqrt(sum(e * e for e in w)) for c in w] for w in (u, v))
        x2 = sum(c * c for c in x)
        xu, xv = ((1 + x2) / 2 - sum(a * b for a, b in zip(x, w)) for w in (u, v))
        cosh2 = 8 * xu * xv / ((1 - x2) ** 2 * (1 - sum(a * b for a, b in zip(u, v))))
        return float(mpmath.acosh(mpmath.sqrt(cosh2)) / lam)


def _near_sphere_triangles():
    """5000 lam = 2, radius-5 triangles per dimension 2 and 3 (seed 10)."""
    gen = np.random.default_rng(10)
    return [_random_triangles(gen, 5000, n, 2.0, radius=5.0) for n in (2, 3)]


def _check_against_dense(gen, r_trunc):
    """Each side's gap, and each triangle's thinness, lie between the dense
    reference and the reference plus half its spacing: the gap is
    1-Lipschitz along a side, so its sup is within half a spacing."""
    for lam in (1.0, 2.0):
        for n in (2, 3):
            coords, flags = _random_triangles(gen, 24, n, lam)
            dist, spacing = _dense_side_distances(coords, flags, lam, r_trunc)
            side_ref = dist.min(axis=-1).max(axis=2)
            gaps = _side_gaps(*_prepare_side_data(coords, flags, lam, r_trunc), lam)
            vals = thinness_batch(coords, flags, CurvatureScale(lam), r_trunc=r_trunc)
            for got, ref, step in ((gaps, side_ref, spacing),
                                   (vals, side_ref.max(axis=1), spacing.max(axis=1))):
                assert np.all(got >= ref - 1e-12)
                assert np.all(got <= ref + 0.5 * step + 1e-12)


def _bisection_gaps(u_all, v_all, lo_all, hi_all, lam, steps=48):
    """Reference side gaps by bisection on the sign of d_A - d_B, each
    distance measured by _window_dist; 48 steps narrow a window of at most
    40 below 1.5e-13, and the largest gap evaluated is kept."""
    count, _, n = u_all.shape
    others = np.array([[1, 2], [2, 0], [0, 1]])
    u, v = u_all.reshape(-1, n), v_all.reshape(-1, n)
    nbr_u = u_all[:, others].reshape(-1, 2, n)
    nbr_v = v_all[:, others].reshape(-1, 2, n)
    nbr_lo = lo_all[:, others].reshape(-1, 2)
    nbr_hi = hi_all[:, others].reshape(-1, 2)

    def dists(t):
        pts = _geodesic_point_raw(u, v, t, lam)
        return _window_dist(pts[:, None, :], nbr_u, nbr_v, nbr_lo, nbr_hi, lam)

    lo, hi = lo_all.reshape(-1), hi_all.reshape(-1)
    d_lo = dists(lo)
    best = np.maximum(d_lo.min(axis=1), dists(hi).min(axis=1))
    lo_sign = d_lo[:, 0] > d_lo[:, 1]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        d = dists(mid)
        best = np.maximum(best, d.min(axis=1))
        lo_side = (d[:, 0] > d[:, 1]) == lo_sign
        lo, hi = np.where(lo_side, mid, lo), np.where(lo_side, hi, mid)
    return best.reshape(count, 3)


# Dense reference for thinness and quasicenters: DENSE points of each side
# window, and distances from them to the other two windows by
# model._dist_raw to the perpendicular foot clamped into the window.  It
# reaches points through the Mobius frame of each side (its anchor m and
# unit direction d), apart from the model's kernels on ideal ends.
DENSE = 16384


def _frame_foot(w, d, lam):
    """Foot parameter on the diameter along d of frame points w = m (-) x.

    tanh(lam t / 2) = 2 z1 / (1 + |w|^2 + sqrt(disc)) with z1 = w.d; the
    discriminant (1 + |w|^2)^2 - 4 z1^2 is factored so points near the axis
    and near the sphere do not cancel catastrophically."""
    z1 = np.sum(w * d, axis=-1)
    perp = w - z1[..., None] * d
    rho2 = np.sum(perp * perp, axis=-1)
    disc = ((1.0 - z1) ** 2 + rho2) * ((1.0 + z1) ** 2 + rho2)
    s = 2.0 * z1 / ((1.0 + np.sum(w * w, axis=-1)) + np.sqrt(disc))
    return 2.0 * np.arctanh(np.clip(s, -1.0 + 1e-12, 1.0 - 1e-12)) / lam


def _dense_side_points(u, v, lo, hi, lam):
    """(B, 3, DENSE, n) evenly spaced points of each side window, and the
    sample spacing of each side (B, 3)."""
    m, d = _arc_frames_raw(u, v)
    ts = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, DENSE)
    pts = _mobius_add(m[:, :, None], np.tanh(0.5 * lam * ts)[..., None] * d[:, :, None])
    return pts, (hi - lo) / (DENSE - 1)


def _dense_side_distances(coords, flags, lam, r_trunc=R_TRUNC):
    """(B, 3, DENSE, 2) distances from the points of each side window to the
    windows of the other two sides, and the sample spacing of each side (B, 3)."""
    u, v, lo, hi = _prepare_side_data(coords, flags, lam, r_trunc)
    m, d = _arc_frames_raw(u, v)
    side_pts, spacing = _dense_side_points(u, v, lo, hi, lam)
    out = np.empty(side_pts.shape[:-1] + (2,))
    for i in range(3):
        pts = side_pts[:, i]
        for slot, j in enumerate(o for o in range(3) if o != i):
            foot = _frame_foot(_mobius_add(-m[:, j, None], pts), d[:, j, None], lam)
            foot = np.clip(foot, lo[:, j, None], hi[:, j, None])
            near = _mobius_add(m[:, j, None], np.tanh(0.5 * lam * foot)[..., None]
                               * d[:, j, None])
            out[:, i, :, slot] = _dist_raw(lam, pts, near)
    return out, spacing


def _triangle(coords, flags):
    return Triangle(*(IdealPoint(c) if f else BallPoint(c) for c, f in zip(coords, flags)))


class TestWindowDistance:
    def test_near_sphere_lines_match_oracle(self):
        # lines whose ends are 0.8-1.6e-4 apart have their anchor at
        # |m| ~ 0.99994; each point lies within 0.5 of the anchor, and the
        # window holds its foot
        gen = np.random.default_rng(41)
        lam = 2.0
        for n in (2, 3):
            e, f = np.linalg.qr(gen.normal(size=(100, n, 2)))[0].transpose(2, 0, 1)
            half = gen.uniform(0.4e-4, 0.8e-4, (100, 1))
            u = np.cos(half) * e - np.sin(half) * f
            v = np.cos(half) * e + np.sin(half) * f
            m = _arc_frames_raw(u, v)[0]
            dirs = gen.normal(size=(100, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radial = np.tanh(0.5 * lam * gen.uniform(0.0, 0.5, (100, 1)))
            x = _mobius_add(m, radial * dirs)
            got = _window_dist(x, u, v, -np.inf, np.inf, lam)
            ref = [_oracle_line_dist(*row, lam) for row in zip(x, u, v)]
            assert np.max(np.abs(got - ref)) <= 1e-9


class TestQuasicenter:
    def test_symmetric_ideal_triangle(self):
        tri = Triangle(ideal(90), ideal(210), ideal(330))
        w, c = quasicenter(tri)
        assert np.linalg.norm(w.coords) < 1e-12
        assert c == pytest.approx(np.log(3.0) / 2.0, abs=1e-12)

    def test_symmetric_interior_triangle(self):
        pts = [0.6 * np.array([np.cos(a), np.sin(a)])
               for a in np.radians([90, 210, 330])]
        tri = Triangle(*(BallPoint(p) for p in pts))
        w, _ = quasicenter(tri)
        assert np.linalg.norm(w.coords) < 1e-6

    def test_degenerate_triangle_gives_zero(self):
        tri = Triangle(BallPoint([-0.5, 0.0]), BallPoint([0.5, 0.0]), BallPoint([0.2, 0.0]))
        _, c = quasicenter(tri)
        assert c < 1e-6

    def test_mixed_triangles_value_matches_dense_sides(self):
        # value = max over sides of the distance to the side's truncated
        # window; the dense sampling reads each distance high by at most
        # half a spacing, since distance is 1-Lipschitz along the side
        gen = np.random.default_rng(23)
        for lam in (1.0, 2.0):
            k = CurvatureScale(lam)
            for n in (2, 3):
                coords, flags = _random_triangles(gen, 6, n, lam, ideal_prob=0.4, radius=3.0)
                flags[:, 0] = True
                coords[:, 0] /= np.linalg.norm(coords[:, 0], axis=-1, keepdims=True)
                side_pts, spacing = _dense_side_points(
                    *_prepare_side_data(coords, flags, lam, R_TRUNC), lam)
                for b in range(coords.shape[0]):
                    verts = [IdealPoint(c) if f else BallPoint(c)
                             for c, f in zip(coords[b], flags[b])]
                    w, val = quasicenter(Triangle(*verts), k)
                    ref = _dist_raw(lam, w.coords, side_pts[b]).min(axis=1).max()
                    assert ref - 0.5 * spacing[b].max() - 1e-12 <= val <= ref + 1e-12

    def test_seed_independence(self):
        # descents from two jittered simplices both find the closed form
        tri = Triangle(BallPoint([0.5, 0.2]), ideal(150), BallPoint([-0.1, -0.55]))
        w, _ = quasicenter(tri)
        for seed in (11, 99):
            w_seed = _quasicenter_descent(tri, seed=seed)[0]
            assert hyp_dist(K1, w, w_seed) < 1e-4

    def test_never_above_descent(self):
        # the incenter's three window distances agree to rounding, also on
        # the lam = 2, radius-5 rows, whose vertices reach |x| ~ 0.9999.
        # Distance to each window is convex and the feet surround the point,
        # so no point has a largest window distance below the smallest of
        # the three: the value is within their spread of the minimum.
        gen = np.random.default_rng(25)
        draws = [(lam, n, 3.0) for lam in (1.0, 1.5, 2.0) for n in (2, 3)]
        for lam, n, radius in draws + [(2.0, 2, 5.0), (2.0, 3, 5.0)]:
            k = CurvatureScale(lam)
            coords, flags = _random_triangles(gen, 10, n, lam, ideal_prob=0.3, radius=radius)
            sides = _prepare_side_data(coords, flags, lam, R_TRUNC)
            for row, row_flags, u, v, lo, hi in zip(coords, flags, *sides):
                tri = _triangle(row, row_flags)
                w, val = quasicenter(tri, k)
                w_descent, val_descent, _, _ = _quasicenter_descent(tri, k)
                dist = _window_dist(w.coords, u, v, lo, hi, lam)
                spread = dist.max() - dist.min()
                assert val == dist.max() and spread <= 1e-9
                assert val <= val_descent + spread + 1e-12
                if n == 2:
                    assert hyp_dist(k, w, w_descent) <= 1e-9

    def test_plane_triangles_stay_in_plane(self):
        # 2-D triangles embedded at z = 0 in 3-D: the incenter lies in the
        # span of the vertex lifts, the triangle's plane
        gen = np.random.default_rng(26)
        for lam in (1.0, 2.0):
            k = CurvatureScale(lam)
            coords, flags = _random_triangles(gen, 20, 2, lam, ideal_prob=0.3, radius=3.0)
            lifted = np.concatenate([coords, np.zeros(coords.shape[:2] + (1,))], axis=2)
            for row, row_lifted, row_flags in zip(coords, lifted, flags):
                w2, val2 = quasicenter(_triangle(row, row_flags), k)
                w3, val3 = quasicenter(_triangle(row_lifted, row_flags), k)
                assert w3.coords[2] == 0.0
                assert np.max(np.abs(w3.coords[:2] - w2.coords)) <= 1e-12
                assert val3 == pytest.approx(val2, abs=1e-12)

    def test_short_truncation_falls_back_to_descent(self, monkeypatch):
        # at r_trunc 0.1 every window of an ideal triangle lies in one ball
        # of radius 0.1, while the incenter's feet are about 1/lam apart,
        # so some foot leaves its window; the descent still meets the
        # dense reference
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _quasicenter_descent(*args, **kwargs)

        monkeypatch.setattr(coarse, "_quasicenter_descent", counted)
        monkeypatch.setattr(coarse, "R_TRUNC", 0.1)
        gen = np.random.default_rng(27)
        for lam in (1.0, 2.0):
            k = CurvatureScale(lam)
            coords, flags = _random_triangles(gen, 4, 2, lam, ideal_prob=1.0)
            side_pts, spacing = _dense_side_points(
                *_prepare_side_data(coords, flags, lam, 0.1), lam)
            for b in range(coords.shape[0]):
                w, val = quasicenter(Triangle(*(IdealPoint(c) for c in coords[b])), k)
                ref = _dist_raw(lam, w.coords, side_pts[b]).min(axis=1).max()
                assert ref - 0.5 * spacing[b].max() - 1e-12 <= val <= ref + 1e-12
        assert len(calls) == 8


class TestHausdorff:
    def test_identity(self):
        pts = np.array([[0.1, 0.2], [-0.3, 0.0]])
        assert hausdorff_distance(K1, pts, pts) == 0.0

    def test_single_pair_reduction(self):
        assert hausdorff_distance(K1, np.zeros((1, 2)), np.array([[0.5, 0.0]])) == \
            pytest.approx(np.log(3.0), abs=1e-12)

    def test_symmetry(self):
        gen = np.random.default_rng(6)
        a = gen.uniform(-0.5, 0.5, (7, 2))
        b = gen.uniform(-0.5, 0.5, (4, 2))
        assert hausdorff_distance(K1, a, b) == hausdorff_distance(K1, b, a)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            hausdorff_distance(K1, np.zeros((0, 2)), np.zeros((1, 2)))


class TestQuasigeodesicDeviation:
    def test_geodesic_itself(self):
        a, b = BallPoint([-0.6, 0.1]), BallPoint([0.55, 0.3])
        g = geodesic_between(a, b)
        ts = np.linspace(g.param_of(a), g.param_of(b), 300)
        path = g.point_at_raw(ts)
        assert quasigeodesic_deviation(path, a, b) < 5e-3

    def test_isometry_image_of_geodesic(self):
        a, b = BallPoint([-0.6, 0.1]), BallPoint([0.55, 0.3])
        g = geodesic_between(a, b)
        ts = np.linspace(g.param_of(a), g.param_of(b), 400)
        iso = MobiusIsometry.translation([0.3, -0.2])
        path = iso.apply_interior_raw(g.point_at_raw(ts))
        dev = quasigeodesic_deviation(path, apply_mobius(iso, a), apply_mobius(iso, b))
        assert dev < 5e-3

    def test_polar_warp_image_is_boundedly_close(self):
        from hypext.maps import polar_warp

        f = polar_warp(0.2, 1, 2)
        gen = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            us = gen.normal(size=(2, 2))
            us /= np.linalg.norm(us, axis=1, keepdims=True)
            if np.linalg.norm(us[0] - us[1]) < 0.1:
                continue
            g = geodesic_between(IdealPoint(us[0]), IdealPoint(us[1]))
            ts = np.linspace(-6.0, 6.0, 400)
            path = f.apply_raw(g.point_at_raw(ts))
            ia = IdealPoint(f.boundary_map().apply_raw(us[0][None, :])[0])
            ib = IdealPoint(f.boundary_map().apply_raw(us[1][None, :])[0])
            worst = max(worst, quasigeodesic_deviation(path, ia, ib))
        assert 0.0 < worst < 1.0

    def test_short_path_rejected(self):
        with pytest.raises(GeometryError):
            quasigeodesic_deviation(np.zeros((1, 2)), BallPoint([-0.1, 0.0]),
                                    BallPoint([0.1, 0.0]))


class TestComparison:
    def triangle(self, gen, n=2):
        pts = gen.uniform(-0.45, 0.45, size=(3, n))
        return Triangle(*(BallPoint(p) for p in pts))

    def test_self_comparison_at_reference_curvature(self):
        gen = np.random.default_rng(8)
        tri = self.triangle(gen)
        rep = comparison_report(tri, K1)
        for meas, comp in zip(rep.angles, rep.comparison_angles_one):
            assert meas == pytest.approx(comp, abs=1e-8)

    def test_angle_bracketing_under_curvature(self):
        gen = np.random.default_rng(9)
        for _ in range(10):
            tri = self.triangle(gen)
            rep = comparison_report(tri, K2)
            for meas, clam, cone in zip(rep.angles, rep.comparison_angles_lambda,
                                        rep.comparison_angles_one):
                assert meas == pytest.approx(clam, abs=1e-8)
                assert clam <= cone + 1e-12

    def test_corresponding_point_distances_ordered(self):
        gen = np.random.default_rng(10)
        for _ in range(10):
            tri = self.triangle(gen)
            rep = comparison_report(tri, K2)
            assert rep.corresponding_dist_lambda <= rep.corresponding_dist_actual + 1e-8
            assert rep.corresponding_dist_actual <= rep.corresponding_dist_one + 1e-8

    def test_ideal_vertex_rejected(self):
        tri = Triangle(ideal(0), BallPoint([0.1, 0.2]), BallPoint([-0.3, 0.1]))
        with pytest.raises(GeometryError):
            comparison_report(tri, K1)


class TestAreaDefect:
    def test_ideal_triangle(self):
        tri = Triangle(ideal(90), ideal(210), ideal(330))
        assert area_defect(tri) == pytest.approx(np.pi, abs=1e-12)

    def test_tiny_triangle_vanishing_defect(self):
        tri = Triangle(BallPoint([1e-4, 0.0]), BallPoint([0.0, 1e-4]),
                       BallPoint([-1e-4, -1e-4]))
        assert 0.0 <= area_defect(tri) < 1e-6

    def test_right_triangle_positive_defect(self):
        tri = Triangle(BallPoint([np.tanh(0.5), 0.0]), BallPoint([0.0, np.tanh(0.5)]),
                       ORIGIN)
        d = area_defect(tri)
        a = angle(tri.v1, tri.v2, tri.v3)
        b = angle(tri.v2, tri.v3, tri.v1)
        assert d == pytest.approx(np.pi - (np.pi / 2.0 + a + b), abs=1e-12)
        assert d > 0.0

    def test_scaled_curvature_rejected(self):
        tri = Triangle(BallPoint([0.1, 0.0]), BallPoint([0.0, 0.1]), BallPoint([-0.1, 0.0]))
        with pytest.raises(GeometryError):
            area_defect(tri, K2)
