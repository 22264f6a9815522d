"""Coarse measurements: thin triangles, quasicenters, Hausdorff distance,
quasigeodesic deviation, comparison triangles, projections onto geodesics.

A geodesic is its two ideal ends (u, v), and the model's row-wise kernels
give its point at a parameter and the parameter of a point's perpendicular
foot with no change of frame.  Triangles become sides in one place,
``_prepare_side_data``: each side's ends and its parameter window, with
ideal vertices truncated alike.  Distance to a side is exact (the distance
to the point at the foot parameter clamped to the window), and everything
vectorizes over rows.  Thinness and quasicenters measure the same windows.
Thinness is exact: along a side the gap to the other two sides peaks where
their distances cross, and that crossing is solved in closed form from
hyperboloid inner products with the sides' ideal ends.  The quasicenter is
the triangle's incenter, in closed form from the vertices' hyperboloid
lifts; a simplex descent stands in only when a short truncation cuts the
incenter's feet off their windows.
"""

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import ConvergenceError, GeometryError
from .model import (
    INTERIOR_EPS,
    BallPoint,
    ClosurePoint,
    CurvatureScale,
    Geodesic,
    K1,
    _clamp_interior,
    _dist_raw,
    _geodesic_ends_raw,
    _geodesic_param_raw,
    _geodesic_point_raw,
    _ideal_foot_reach,
    angle,
    closure_coords,
    closure_eq,
    geodesic_between,
    hyp_dist,
    is_ideal,
)

# Ideal vertices are cut off at this hyperbolic radius from the triangle's
# base point; beyond it side-to-side distances move by well under 1e-6.
R_TRUNC = 20.0


# ---------------------------------------------------------------------------
# orthogonal projection
# ---------------------------------------------------------------------------

def orthogonal_project(q: ClosurePoint, g: Geodesic) -> BallPoint:
    """Perpendicular foot of q on g; q itself when q already lies on g."""
    t = g.param_of(q)
    if is_ideal(q) and not g.lam * abs(t) <= _ideal_foot_reach(1e-12):
        raise GeometryError("projection undefined for an ideal endpoint of the geodesic")
    return BallPoint(g.point_at_raw(t))


# ---------------------------------------------------------------------------
# triangles
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Triangle:
    v1: ClosurePoint
    v2: ClosurePoint
    v3: ClosurePoint

    def __post_init__(self):
        pairs = [(self.v1, self.v2), (self.v2, self.v3), (self.v3, self.v1)]
        if any(closure_eq(p, q) for p, q in pairs):
            raise GeometryError("triangle vertices must be pairwise distinct")

    @property
    def vertices(self):
        return (self.v1, self.v2, self.v3)


@dataclass
class TriangleReport:
    angles: tuple
    thinness_delta: float
    quasicenter: BallPoint
    quasicenter_C: float
    comparison_angles_lambda: tuple
    comparison_angles_one: tuple
    area_defect: float
    corresponding_dist_lambda: float = float("nan")
    corresponding_dist_actual: float = float("nan")
    corresponding_dist_one: float = float("nan")


def _triangle_arrays(t: Triangle):
    """(1, 3, n) vertex coordinates and (1, 3) ideal flags of one triangle."""
    coords = np.stack([closure_coords(v) for v in t.vertices])[None, :, :]
    flags = np.array([[is_ideal(v) for v in t.vertices]])
    return coords, flags


def thinness(t: Triangle, k: CurvatureScale = K1) -> float:
    """Smallest delta for which each side lies in the delta-neighborhood of
    the other two, found exactly by the crossing search of thinness_batch."""
    coords, flags = _triangle_arrays(t)
    return float(thinness_batch(coords, flags, k)[0])


# --- batched thinness (the scalar op wraps batch size 1) --------------------

# Coordinates are only representable out to hyperbolic radius ~23/lam from
# the origin (tanh saturates).  The truncation ball is shrunk so every window
# end stays representable; the same ball cuts all three sides, which keeps
# truncation consistent near shared ideal vertices.  Tail gaps decay like
# e^(-lam t), so the shrink changes thinness by far less than 1e-3.
_SAFE_REACH = 23.0


def _prepare_side_data(coords, ideal_flags, lam, r_trunc):
    """Stacked per-side ends and windows for a batch of triangles.

    Returns (u, v, lo, hi) with shapes (B, 3, n) / (B, 3, n) / (B, 3) / (B, 3):
    each side's ideal ends, u beyond its first vertex and v beyond its
    second, and its parameter window.
    """
    count = coords.shape[0]
    pairs = ((0, 1), (1, 2), (2, 0))
    ends = [_geodesic_ends_raw(coords[:, i], coords[:, j], ideal_flags[:, i], ideal_flags[:, j])
            for i, j in pairs]

    # base point: the smallest-norm candidate among interior vertices and
    # the three side anchors (t = 0) keeps the truncation ball representable
    # even for slivers hugging the boundary sphere
    anchors = [_geodesic_point_raw(u, v, 0.0, lam) for u, v in ends]
    cand = np.concatenate([coords, np.stack(anchors, axis=1)], axis=1)
    cand_norm = np.linalg.norm(cand, axis=2)
    cand_norm[:, :3] = np.where(ideal_flags, np.inf, cand_norm[:, :3])
    pick = np.argmin(cand_norm, axis=1)
    base = cand[np.arange(count), pick]
    d0_base = _dist_raw(lam, np.zeros_like(base), base)
    r_eff = np.minimum(r_trunc, np.maximum(_SAFE_REACH / lam - d0_base, 1.0))

    sides = []
    for (i, j), (u, v) in zip(pairs, ends):
        t_foot = _geodesic_param_raw(u, v, base, lam)
        d_perp = _dist_raw(lam, base, _geodesic_point_raw(u, v, t_foot, lam))
        ratio = np.cosh(lam * r_eff) / np.cosh(lam * d_perp)
        cut = np.arccosh(np.maximum(ratio, 1.0)) / lam
        # an ideal vertex's own foot is -inf or +inf, and the cut replaces it
        lo = np.where(ideal_flags[:, i], t_foot - cut,
                      _geodesic_param_raw(u, v, coords[:, i], lam))
        hi = np.where(ideal_flags[:, j], t_foot + cut,
                      _geodesic_param_raw(u, v, coords[:, j], lam))
        sides.append((u, v, np.minimum(lo, hi), np.maximum(lo, hi)))
    return tuple(np.stack(a, axis=1) for a in zip(*sides))


def _window_dist(pts, u, v, lo, hi, lam):
    """Distance from ball points to side windows, row by row.

    Each side is given by its ideal ends u, v and its parameter window
    [lo, hi], or (-inf, inf) for the whole line; all arguments broadcast
    over leading axes.  Distance along the
    side is convex with its least value at the perpendicular foot, so the
    foot clamped to the window is the nearest point of the side segment.
    """
    t = np.clip(_geodesic_param_raw(u, v, pts, lam), lo, hi)
    return _dist_raw(lam, pts, _geodesic_point_raw(u, v, t, lam))


def _side_gaps(u_all, v_all, lo_all, hi_all, lam):
    """(B, 3) sup over each side of its distance to the nearer other side.

    Takes the side data of _prepare_side_data.  Along a side, the distances
    d_A and d_B to the two other sides are convex (CAT(-1)) and each is
    smallest at the vertex it shares with the side, so d_A - d_B is monotone
    and the largest gap min(d_A, d_B) sits at their crossing, or at a window
    end when there is none.

    The crossing has a closed form in the hyperboloid model (Ratcliffe,
    Foundations of Hyperbolic Manifolds, sec. 3.2).  Lift the ideal ends of
    a side to null vectors U = (1, u), V = (1, v), so -<U, U'> = |u - u'|^2/2;
    its point at t is Y = (e^-s U + e^s V) / |u - v| with s = lam t.  Against
    a neighbour X with ends (u', v'), g = -<Y, U'> and h = -<Y, V'> are
    (a + w b) / (e^s |u - v|) in w = e^(2s), a and b halves of squared
    chordal distances.  X's point at sigma is at cosh d = (e^-sigma g +
    e^sigma h) / |u' - v'| from Y, least at the foot e^(2 sigma) = g / h.
    With the foot clamped to X's window, d_X has three pieces (low end, line,
    high end), and w |u - v|^2 cosh^2 d_X is a quadratic in w on each.  So
    d_A = d_B is linear in w for an end against an end and quadratic
    otherwise: at most 14 roots per side.  Each root, clipped to the window,
    is scored by that cosh form, and the best is kept.  At it and at both
    window ends, the gap is the distance (model._dist_raw) from the side's
    point to the two feet: a value the side attains, to rounding.  The feet
    come from the same closed form, in e^(2 sigma), and the side's point
    and the feet from the ends.  cosh resolves a gap d only to about
    1e-16 / d, so gaps under about 1e-6 may read low, never high.
    """
    count, _, n = u_all.shape
    # row (b, i) is side i of triangle b; its neighbours are the other two
    others = np.array([[1, 2], [2, 0], [0, 1]])
    u, v = u_all.reshape(-1, 1, n), v_all.reshape(-1, 1, n)
    nbr_u = u_all[:, others].reshape(-1, 2, n)
    nbr_v = v_all[:, others].reshape(-1, 2, n)
    nbr_lo = lo_all[:, others].reshape(-1, 2)
    nbr_hi = hi_all[:, others].reshape(-1, 2)
    lo = lo_all.reshape(-1)
    hi = hi_all.reshape(-1)

    def half_sq(x, y):
        return 0.5 * np.sum((x - y) ** 2, axis=-1)

    # (3B, 2) against neighbours A and B: e^s |u - v| g = a1 + w b1 and
    # e^s |u - v| h = a2 + w b2; each neighbour's |u' - v'| and window in
    # z = e^sigma
    a1, b1 = half_sq(u, nbr_u), half_sq(v, nbr_u)
    a2, b2 = half_sq(u, nbr_v), half_sq(v, nbr_v)
    span = np.linalg.norm(nbr_u - nbr_v, axis=-1)
    span2 = span * span
    z_lo, z_hi = np.exp(lam * nbr_lo), np.exp(lam * nbr_hi)
    z2_lo, z2_hi = z_lo * z_lo, z_hi * z_hi

    def feet(w):
        """e^s |u - v| (g, h) at w and e^(2 sigma) at the feet on A and B."""
        g = a1 + w[..., None] * b1
        h = a2 + w[..., None] * b2
        return g, h, np.clip(g / h, z2_lo, z2_hi)

    def score(w):
        """Row-wise e^s |u - v| min(cosh d_A, cosh d_B) at w."""
        g, h, z2 = feet(w)
        z = np.sqrt(z2)
        return np.min((g / z + h * z) / span, axis=1) / np.sqrt(w)

    # e^s |u - v| cosh d_X = (alpha + w beta) / sqrt(w) at X's window ends,
    # and w |u - v|^2 cosh^2 d_X = c0 + c1 w + c2 w^2 on each of its pieces
    ends = [((a1 / z + a2 * z) / span, (b1 / z + b2 * z) / span) for z in (z_lo, z_hi)]
    pieces = [(alpha * alpha, 2.0 * alpha * beta, beta * beta) for alpha, beta in ends]
    pieces.insert(1, (4.0 * a1 * a2 / span2, 4.0 * (a1 * b2 + a2 * b1) / span2,
                      4.0 * b1 * b2 / span2))

    def roots():
        for i, piece_a in enumerate(pieces):
            for j, piece_b in enumerate(pieces):
                if i != 1 and j != 1:
                    (alpha_a, beta_a), (alpha_b, beta_b) = ends[i // 2], ends[j // 2]
                    yield (alpha_b[:, 1] - alpha_a[:, 0]) / (beta_a[:, 0] - beta_b[:, 1])
                else:
                    c0, c1, c2 = (ca[:, 0] - cb[:, 1] for ca, cb in zip(piece_a, piece_b))
                    disc = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0))
                    q = -0.5 * (c1 + np.copysign(disc, c1))
                    yield q / c2
                    yield c0 / q

    w_lo, w_hi = np.exp(2.0 * lam * lo), np.exp(2.0 * lam * hi)
    best_w, best = w_lo, np.full(lo.shape, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for w in roots():
            # negative, infinite and NaN roots land on a window end
            w = np.fmin(np.fmax(w, w_lo), w_hi)
            val = score(w)
            better = val > best
            best = np.where(better, val, best)
            best_w = np.where(better, w, best_w)

    def gap(w):
        t = np.clip(0.5 * np.log(w) / lam, lo, hi)
        foot = _geodesic_point_raw(nbr_u, nbr_v, 0.5 * np.log(feet(w)[2]) / lam, lam)
        return _dist_raw(lam, _geodesic_point_raw(u, v, t[:, None], lam), foot).min(axis=1)

    return np.max([gap(best_w), gap(w_lo), gap(w_hi)], axis=0).reshape(count, 3)


def thinness_batch(coords, ideal_flags, k: CurvatureScale = K1) -> np.ndarray:
    """Thinness of many triangles at once: the largest of each triangle's
    three side gaps, found exactly by a crossing search (see _side_gaps).

    coords: (B, 3, n) closure-point coordinates; ideal_flags: (B, 3) booleans.
    """
    coords = np.asarray(coords, dtype=float)
    ideal_flags = np.asarray(ideal_flags, dtype=bool)
    sides = _prepare_side_data(coords, ideal_flags, k.lam, R_TRUNC)
    return _side_gaps(*sides, k.lam).max(axis=1)


def _incenter_raw(coords, flags):
    """Row-wise incenter of triangles: (B, 3, n) closure coordinates and
    (B, 3) ideal flags to (B, n) ball points.

    Hyperboloid model (Ratcliffe, Foundations of Hyperbolic Manifolds, sec.
    3.2): a ball point x lifts to W = ((1 + |x|^2) / 2, x), a multiple of
    the unit timelike lift, and an ideal point u to the null vector (1, u).
    With a = 1 - |x|^2 (0 at an ideal point), -<W_i, W_j> = a_i a_j / 4 +
    |x_i - x_j|^2 / 2, a sum of nonnegative terms.  X = sum c_i W_i with
    c_i = sqrt(<W_j, W_k>^2 - <W_j, W_j> <W_k, W_k>), the Lorentz norm of
    W_j x W_k, has the same inner product with the three unit side normals,
    so it is equidistant from the three side lines; the c_i are positive,
    so X lies inside the triangle and its feet surround it.  In ball terms
    c_i = sqrt(g (a_j a_k + g)) / 2 with g = |x_j - x_k|^2, which is
    a_j a_k / 4 times sinh of the side length between interior vertices;
    no term cancels.  X lies in
    the span of the lifts, the triangle's plane, in any dimension, and maps
    back to x = X_s / (X_0 + sqrt(-<X, X>)).
    """
    a = np.where(flags, 0.0, 1.0 - np.sum(coords * coords, axis=-1))
    gap = np.empty(flags.shape)
    c = np.empty(flags.shape)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        gap[:, i] = np.sum((coords[:, j] - coords[:, k]) ** 2, axis=-1)
        c[:, i] = 0.5 * np.sqrt(gap[:, i] * (a[:, j] * a[:, k] + gap[:, i]))
    x0 = np.sum(c * (1.0 - 0.5 * a), axis=1)
    xs = np.sum(c[..., None] * coords, axis=1)
    # -<X, X> = (sum c_i a_i / 2)^2 + sum over pairs of c_j c_k |x_j - x_k|^2,
    # the pair (j, k) being the side opposite vertex i
    pair = c[:, [1, 2, 0]] * c[:, [2, 0, 1]]
    norm2 = (0.5 * np.sum(c * a, axis=1)) ** 2 + np.sum(pair * gap, axis=1)
    return xs / (x0 + np.sqrt(norm2))[:, None]


def quasicenter(t: Triangle, k: CurvatureScale = K1):
    """Minimizer of the max distance to the three sides and the attained value.

    Distances are to the truncated side windows that thinness measures.
    The point is the triangle's incenter (_incenter_raw): it is equidistant
    from the three side lines and no point is nearer all three, and distance
    to a window is at least the distance to its line, with equality when the
    foot lies in the window.  So when every foot lies in its window the
    incenter is the exact minimizer; otherwise (a short truncation) the
    simplex descent _quasicenter_descent finds it.  The value is the largest
    window distance at the point, which the windows attain.
    """
    coords, flags = _triangle_arrays(t)
    lam = k.lam
    u, v, lo, hi = (a[0] for a in _prepare_side_data(coords, flags, lam, R_TRUNC))
    x = _incenter_raw(coords, flags)[0]
    if np.all(np.isfinite(x)) and np.linalg.norm(x) <= 1.0 - INTERIOR_EPS:
        feet = _geodesic_param_raw(u, v, x, lam)
        if np.all((feet >= lo) & (feet <= hi)):
            return BallPoint(x), float(_window_dist(x, u, v, lo, hi, lam).max())
    return _quasicenter_descent(t, k)[:2]


def _quasicenter_descent(t: Triangle, k: CurvatureScale = K1, *, seed=None):
    """The quasicenter by derivative-free simplex descent in ball coordinates.

    Minimizes the same window distances as quasicenter, starting from the
    mean of the side midpoints (jittered by seed) and restarting the simplex
    from the incumbent until the value stalls.  Returns the point, the
    value, the objective evaluations and the restarts; raises
    ConvergenceError (carrying the best iterate) at the iteration cap.
    """
    coords, flags = _triangle_arrays(t)
    lam = k.lam
    u, v, lo, hi = (a[0] for a in _prepare_side_data(coords, flags, lam, R_TRUNC))
    n = u.shape[1]

    def objective(w):
        if np.linalg.norm(w) >= 1.0 - INTERIOR_EPS:
            return 1e6 + np.linalg.norm(w)
        return float(_window_dist(w, u, v, lo, hi, lam).max())

    mids = _geodesic_point_raw(u, v, 0.5 * (lo + hi), lam)
    start = _clamp_interior(mids.mean(axis=0) * 0.999)
    spread = 0.05
    simplex = np.vstack([start, start + spread * np.eye(n)])
    if seed is not None:
        simplex = simplex + np.random.default_rng(seed).uniform(-0.01, 0.01, simplex.shape)
    simplex = _clamp_interior(simplex)
    iters_left = 10_000
    best_x, best_f = start, objective(start)
    nfev = runs = 0
    # restart the simplex from the incumbent until the value stalls; the
    # objective is a max of smooth convex pieces and single runs can stall
    # on a shrunken degenerate simplex
    for _ in range(6):
        res = optimize.minimize(objective, best_x, method="Nelder-Mead",
                                options={"maxiter": iters_left, "xatol": 1e-10,
                                         "fatol": 1e-10,
                                         "initial_simplex": simplex})
        nfev += int(res.nfev)
        runs += 1
        iters_left -= res.nit
        improved = best_f - res.fun
        if res.fun < best_f:
            best_x, best_f = res.x, float(res.fun)
        if iters_left <= 0 or improved < 1e-10:
            break
        simplex = _clamp_interior(np.vstack([best_x, best_x + 1e-4 * np.eye(n)]))
    point = BallPoint(_clamp_interior(best_x))
    if iters_left <= 0:
        raise ConvergenceError("quasicenter descent hit its iteration cap",
                               point=point, value=best_f)
    return point, best_f, nfev, runs - 1


# ---------------------------------------------------------------------------
# point-set measurements
# ---------------------------------------------------------------------------

def _coords_array(points):
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        return arr
    return np.stack([closure_coords(p) if not isinstance(p, np.ndarray) else p
                     for p in points])


def hausdorff_distance(k: CurvatureScale, set_a, set_b) -> float:
    """max(sup_a d(a, B), sup_b d(b, A)) over finite interior point sets."""
    a = _coords_array(set_a)
    b = _coords_array(set_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise GeometryError("Hausdorff distance needs nonempty sets")
    d = _dist_raw(k.lam, a[:, None, :], b[None, :, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def quasigeodesic_deviation(path, a: ClosurePoint, b: ClosurePoint,
                            k: CurvatureScale = K1) -> float:
    """Hausdorff distance between a sampled path and the geodesic ab.

    The geodesic is sampled over the parameter window spanned by the path
    (ideal endpoints are windowed by the projection of the path's ends).
    """
    pts = _coords_array(path)
    if pts.shape[0] < 2:
        raise GeometryError("a path needs at least two points")
    g = geodesic_between(a, b, k)
    lo, hi = (g.param_of(row if is_ideal(end) else end)
              for end, row in ((a, pts[0]), (b, pts[-1])))
    if lo > hi:
        lo, hi = hi, lo
    geo = g.point_at_raw(np.linspace(lo, hi, max(256, 4 * pts.shape[0])))
    return hausdorff_distance(k, pts, geo)


# ---------------------------------------------------------------------------
# comparison triangles
# ---------------------------------------------------------------------------

def _sss_angles(lam, a, b, c):
    """Angles of the constant-curvature -lam^2 triangle with sides a, b, c.

    Angle order matches vertex order: the first angle is opposite side a.
    """
    def ang(opp, s1, s2):
        num = np.cosh(lam * s1) * np.cosh(lam * s2) - np.cosh(lam * opp)
        den = np.sinh(lam * s1) * np.sinh(lam * s2)
        return float(np.arccos(np.clip(num / den, -1.0, 1.0)))

    return ang(a, b, c), ang(b, c, a), ang(c, a, b)


def comparison_report(t: Triangle, k: CurvatureScale = K1) -> TriangleReport:
    """Measured and comparison data for a triangle with interior vertices."""
    if any(is_ideal(v) for v in t.vertices):
        raise GeometryError("comparison triangles need interior vertices")
    v1, v2, v3 = t.vertices
    side_a = hyp_dist(k, v2, v3)
    side_b = hyp_dist(k, v1, v3)
    side_c = hyp_dist(k, v1, v2)
    for s, s1, s2 in ((side_a, side_b, side_c), (side_b, side_c, side_a),
                      (side_c, side_a, side_b)):
        if s >= s1 + s2 - 1e-13:
            raise GeometryError("side lengths violate the strict triangle inequality")
    measured = (angle(v1, v2, v3), angle(v2, v3, v1), angle(v3, v1, v2))
    comp_lam = _sss_angles(k.lam, side_a, side_b, side_c)
    comp_one = _sss_angles(1.0, side_a, side_b, side_c)
    qc, qc_val = quasicenter(t, k)
    thin = thinness(t, k)

    def midpoint_gap(lam):
        # comparison triangle placed at the origin: v1 -> 0, v2 along e1
        ang1 = _sss_angles(lam, side_a, side_b, side_c)[0]
        p = np.array([np.tanh(0.25 * lam * side_c), 0.0])
        q = np.tanh(0.25 * lam * side_b) * np.array([np.cos(ang1), np.sin(ang1)])
        return float(_dist_raw(lam, p, q))

    g12 = geodesic_between(v1, v2, k)
    g13 = geodesic_between(v1, v3, k)
    mid12 = g12.point_at(0.5 * (g12.param_of(v1) + g12.param_of(v2)))
    mid13 = g13.point_at(0.5 * (g13.param_of(v1) + g13.param_of(v3)))
    return TriangleReport(
        angles=measured,
        thinness_delta=thin,
        quasicenter=qc,
        quasicenter_C=qc_val,
        comparison_angles_lambda=comp_lam,
        comparison_angles_one=comp_one,
        area_defect=float(np.pi - sum(measured)),
        corresponding_dist_lambda=midpoint_gap(k.lam),
        corresponding_dist_actual=hyp_dist(k, mid12, mid13),
        corresponding_dist_one=midpoint_gap(1.0),
    )


def area_defect(t: Triangle, k: CurvatureScale = K1) -> float:
    """pi minus the angle sum; equals the area at curvature -1."""
    if k.lam != 1.0:
        raise GeometryError("area defect is reported for the reference curvature only")
    total = 0.0
    for v, w1, w2 in ((t.v1, t.v2, t.v3), (t.v2, t.v3, t.v1), (t.v3, t.v1, t.v2)):
        if not is_ideal(v):
            total += angle(v, w1, w2)
    return float(np.pi - total)
