"""Coarse measurements: thin triangles, quasicenters, Hausdorff distance,
quasigeodesic deviation, comparison triangles, projections onto geodesics.

Triangles become sides in one place, ``_prepare_side_data``: parameter
windows, with ideal vertices truncated alike, on geodesics normalized to the
(-e1, e1) diameter.  There the perpendicular foot has a closed form, distance
to a side is exact (clamp the foot parameter to the window), and everything
vectorizes over rows.  Thinness and quasicenters measure the same windows.
Thinness is exact: along a side the gap to the other two sides peaks where
their distances cross, and a lockstep bisection finds that crossing.
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
    _mobius_add,
    angle,
    closure_coords,
    closure_eq,
    geodesic_between,
    hyp_dist,
    is_ideal,
    rotation_taking,
)

# Ideal vertices are cut off at this hyperbolic radius from the triangle's
# base point; beyond it side-to-side distances move by well under 1e-6.
R_TRUNC = 20.0
# Bisection steps of the thinness crossing search: they shrink a window of at
# most 2 * R_TRUNC = 40 below 1.5e-13, and the gap is 1-Lipschitz along it.
CROSSING_STEPS = 48


def _normalize_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _foot_params_raw(z, lam):
    """Foot parameter on the (-e1, e1) diameter for frame points z.

    The discriminant (1+|z|^2)^2 - 4 z1^2 is factored so points near the
    axis and near the sphere do not cancel catastrophically.
    """
    z = np.asarray(z, dtype=float)
    z1 = z[..., 0]
    rho2 = np.sum(z[..., 1:] ** 2, axis=-1)
    disc = ((1.0 - z1) ** 2 + rho2) * ((1.0 + z1) ** 2 + rho2)
    s = 2.0 * z1 / ((1.0 + z1 * z1 + rho2) + np.sqrt(disc))
    s = np.clip(s, -1.0 + INTERIOR_EPS, 1.0 - INTERIOR_EPS)
    return 2.0 * np.arctanh(s) / lam


def _axis_points_raw(t, lam, n):
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (n,))
    out[..., 0] = np.tanh(0.5 * lam * t)
    return out


def _side_points(m, r0, t, lam):
    """Points at arc-length parameters t on geodesics given by their frame
    anchor m and the first row r0 of their frame rotation; broadcasts."""
    return _clamp_interior(_mobius_add(m, np.tanh(0.5 * lam * t)[..., None] * r0))


# ---------------------------------------------------------------------------
# diameter frames
# ---------------------------------------------------------------------------

@dataclass
class _DiameterFrame:
    """Coordinates in which a geodesic is the (-e1, e1) diameter."""

    m: np.ndarray            # anchor of the geodesic (translated to origin)
    rot: np.ndarray          # rotation taking the anchor direction to e1
    lam: float

    @classmethod
    def of(cls, g: Geodesic):
        n = g.n
        e1 = np.zeros(n)
        e1[0] = 1.0
        return cls(m=g.anchor.coords.copy(),
                   rot=rotation_taking(g.unit_direction_at_anchor, e1),
                   lam=g.lam)

    def to_frame(self, pts):
        return _mobius_add(-self.m, np.asarray(pts, dtype=float)) @ self.rot.T

    def to_frame_ideal(self, us):
        z = _mobius_add(-self.m, np.asarray(us, dtype=float))
        z = z / np.linalg.norm(z, axis=-1, keepdims=True)
        return z @ self.rot.T

    def foot_params(self, z):
        """Arc-length parameter of the perpendicular foot on the diameter.

        Valid for frame points with |z| <= 1; ideal points that coincide with
        a diameter endpoint are rejected by callers beforehand.
        """
        return _foot_params_raw(z, self.lam)


# ---------------------------------------------------------------------------
# orthogonal projection
# ---------------------------------------------------------------------------

def orthogonal_project(q: ClosurePoint, g: Geodesic) -> BallPoint:
    """Perpendicular foot of q on g; q itself when q already lies on g."""
    frame = _DiameterFrame.of(g)
    if is_ideal(q):
        z = frame.to_frame_ideal(q.direction)
        if abs(z[0]) > 1.0 - 1e-12:
            raise GeometryError("projection undefined for an ideal endpoint of the geodesic")
    else:
        z = frame.to_frame(q.coords)
    return BallPoint(_side_points(frame.m, frame.rot[0], frame.foot_params(z), frame.lam))


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


def thinness(t: Triangle, k: CurvatureScale = K1, *, r_trunc: float = R_TRUNC) -> float:
    """Smallest delta for which each side lies in the delta-neighborhood of
    the other two, found exactly by the crossing search of thinness_batch."""
    coords, flags = _triangle_arrays(t)
    return float(thinness_batch(coords, flags, k, r_trunc=r_trunc)[0])


# --- batched thinness (the scalar op wraps batch size 1) --------------------

def _batch_side_endpoints(xa, ideal_a, xb, ideal_b):
    """Ideal endpoints (u toward a, v toward b) for rows of closure points."""
    u = np.empty_like(xa)
    v = np.empty_like(xa)
    both = ideal_a & ideal_b
    from_a = ~ideal_a
    from_b = ideal_a & ~ideal_b
    if np.any(both):
        u[both] = xa[both]
        v[both] = xb[both]
    if np.any(from_a):
        base, tgt = xa[from_a], xb[from_a]
        what = _normalize_rows(_mobius_add(-base, tgt))
        u[from_a] = _normalize_rows(_mobius_add(base, -what))
        vv = _normalize_rows(_mobius_add(base, what))
        tgt_ideal = ideal_b[from_a]
        vv[tgt_ideal] = tgt[tgt_ideal]
        v[from_a] = vv
    if np.any(from_b):
        base, tgt = xb[from_b], xa[from_b]
        what = _normalize_rows(_mobius_add(-base, tgt))
        u[from_b] = tgt
        v[from_b] = _normalize_rows(_mobius_add(base, -what))
    return u, v


def _batch_rotation_to_e1(d):
    """Row-wise minimal rotations R with R d = e1."""
    count, n = d.shape
    c = d[:, 0]
    rot = np.zeros((count, n, n))
    near_id = c >= 1.0 - 1e-15
    near_half = c <= -1.0 + 1e-15
    rot[near_id] = np.eye(n)
    if np.any(near_half):
        if n == 2:
            rot[near_half] = -np.eye(2)
        else:
            flip = -np.eye(3)
            flip[1, 1] = 1.0
            rot[near_half] = flip
    gen = ~(near_id | near_half)
    if np.any(gen):
        u = d[gen]
        cg = c[gen]
        w = -cg[:, None] * u
        w[:, 0] += 1.0
        sg = np.linalg.norm(w, axis=-1)
        w = w / sg[:, None]
        uu = u[:, :, None] * u[:, None, :]
        ww = w[:, :, None] * w[:, None, :]
        wu = w[:, :, None] * u[:, None, :]
        uw = u[:, :, None] * w[:, None, :]
        rot[gen] = np.eye(n) + (cg - 1.0)[:, None, None] * (uu + ww) + sg[:, None, None] * (wu - uw)
    return rot


def _batch_frames(u, v):
    """Row-wise anchor, direction and rotation-to-e1 for arcs from u to v."""
    s = np.sum(u * v, axis=-1)
    chord = u + v
    cn = np.linalg.norm(chord, axis=-1)
    m = np.zeros_like(u)
    d = np.empty_like(u)
    diam = cn < 1e-12
    d[diam] = v[diam]
    gen = ~diam
    if np.any(gen):
        c = chord[gen] / (1.0 + s[gen])[:, None]
        nc = np.linalg.norm(c, axis=-1)
        chat = c / nc[:, None]
        m[gen] = chat / (nc + np.sqrt(np.maximum(nc * nc - 1.0, 0.0)))[:, None]
        w = v[gen] - u[gen]
        w = w - np.sum(w * chat, axis=-1)[:, None] * chat
        d[gen] = _normalize_rows(w)
    return m, d, _batch_rotation_to_e1(d)


def _batch_to_frame(m, rot, pts):
    """pts (..., count, S, n) into the frame (m, rot) per row."""
    w = _mobius_add(-m[:, None, :], pts)
    return np.einsum("bij,bsj->bsi", rot, w)


def _batch_axis_param(z, lam):
    r = np.minimum(np.linalg.norm(z, axis=-1), 1.0 - INTERIOR_EPS)
    return 2.0 * np.arctanh(r) * np.sign(z[..., 0]) / lam


# Coordinates are only representable out to hyperbolic radius ~23/lam from
# the origin (tanh saturates).  The truncation ball is shrunk so every window
# end stays representable; the same ball cuts all three sides, which keeps
# truncation consistent near shared ideal vertices.  Tail gaps decay like
# e^(-lam t), so the shrink changes thinness by far less than 1e-3.
_SAFE_REACH = 23.0


def _prepare_side_data(coords, ideal_flags, lam, r_trunc):
    """Stacked per-side frames and windows for a batch of triangles.

    Returns (m, r0, lo, hi) with shapes (B, 3, n) / (B, 3, n) / (B, 3) / (B, 3)
    where r0 is the first row of the frame rotation (all the evaluator needs).
    """
    count, _, n = coords.shape
    pairs = ((0, 1), (1, 2), (2, 0))
    frames = []
    for i, j in pairs:
        u, v = _batch_side_endpoints(coords[:, i], ideal_flags[:, i],
                                     coords[:, j], ideal_flags[:, j])
        frames.append(_batch_frames(u, v))

    # base point: the smallest-norm candidate among interior vertices and
    # the three side anchors keeps the truncation ball representable even
    # for slivers hugging the boundary sphere
    cand = np.concatenate([coords, np.stack([fr[0] for fr in frames], axis=1)], axis=1)
    cand_norm = np.linalg.norm(cand, axis=2)
    cand_norm[:, :3] = np.where(ideal_flags, np.inf, cand_norm[:, :3])
    pick = np.argmin(cand_norm, axis=1)
    base = cand[np.arange(count), pick]
    d0_base = _dist_raw(lam, np.zeros_like(base), base)
    r_eff = np.minimum(r_trunc, np.maximum(_SAFE_REACH / lam - d0_base, 1.0))

    sides = []
    for (i, j), (m, _, rot) in zip(pairs, frames):
        zb = _batch_to_frame(m, rot, base[:, None, :])[:, 0, :]
        t_foot = _foot_params_raw(zb, lam)
        d_perp = _dist_raw(lam, zb, _axis_points_raw(t_foot, lam, n))
        ratio = np.cosh(lam * r_eff) / np.cosh(lam * d_perp)
        cut = np.arccosh(np.maximum(ratio, 1.0)) / lam
        za = _batch_to_frame(m, rot, coords[:, None, i, :])[:, 0, :]
        zb2 = _batch_to_frame(m, rot, coords[:, None, j, :])[:, 0, :]
        lo = np.where(ideal_flags[:, i], t_foot - cut, _batch_axis_param(za, lam))
        hi = np.where(ideal_flags[:, j], t_foot + cut, _batch_axis_param(zb2, lam))
        sides.append((m, rot[:, 0, :], np.minimum(lo, hi), np.maximum(lo, hi)))
    return tuple(np.stack(a, axis=1) for a in zip(*sides))


def _window_dist(pts, m, r0, s_lo, s_hi, lam):
    """Distance from ball points to side windows, row by row.

    Each side is given by its frame anchor m, the first row r0 of its frame
    rotation and its window [s_lo, s_hi] in tanh space; all arguments
    broadcast over leading axes.  The perpendicular foot has a closed form on
    the frame diameter, and clipping it to the window gives the nearest point
    of the side segment.
    """
    w = _mobius_add(-m, pts)
    nw2 = np.sum(w * w, axis=-1)
    z1 = np.sum(w * r0, axis=-1)
    perp = w - z1[..., None] * r0
    rho2 = np.sum(perp * perp, axis=-1)
    disc = ((1.0 - z1) ** 2 + rho2) * ((1.0 + z1) ** 2 + rho2)
    s = np.clip(2.0 * z1 / ((1.0 + nw2) + np.sqrt(disc)), s_lo, s_hi)
    d2 = (z1 - s) ** 2 + rho2
    conf = np.maximum((1.0 - nw2) * (1.0 - s * s), 1e-300)
    return 2.0 * np.arcsinh(np.sqrt(d2 / conf)) / lam


def _side_gaps(m_all, r0_all, lo_all, hi_all, lam):
    """(B, 3) sup over each side of its distance to the nearer other side.

    Takes the side data of _prepare_side_data.  Along a side, the distances
    d_A and d_B to the two other sides are convex (CAT(-1)) and each is
    smallest at the vertex it shares with the side, so d_A - d_B is monotone
    and the largest gap min(d_A, d_B) sits at its sign change, or at a window
    end when there is none.  All 3B sides bisect on that sign in lockstep.
    Each gap is the largest one evaluated, a value the side attains, so it
    exceeds the sup by float64 rounding at most; the final bracket around the
    crossing is narrower than 1.5e-13.
    """
    count, _, n = m_all.shape
    # row (b, i) is side i of triangle b; its neighbours are the other two
    others = np.array([[1, 2], [2, 0], [0, 1]])
    m = m_all.reshape(-1, n)
    r0 = r0_all.reshape(-1, n)
    nbr_m = m_all[:, others].reshape(-1, 2, n)
    nbr_r0 = r0_all[:, others].reshape(-1, 2, n)
    nbr_s_lo = np.tanh(0.5 * lam * lo_all)[:, others].reshape(-1, 2)
    nbr_s_hi = np.tanh(0.5 * lam * hi_all)[:, others].reshape(-1, 2)

    def dists(t):
        pts = _side_points(m, r0, t, lam)
        return _window_dist(pts[:, None, :], nbr_m, nbr_r0, nbr_s_lo, nbr_s_hi, lam)

    lo = lo_all.reshape(-1)
    hi = hi_all.reshape(-1)
    d_lo = dists(lo)
    best = np.maximum(d_lo.min(axis=1), dists(hi).min(axis=1))
    lo_sign = d_lo[:, 0] > d_lo[:, 1]
    for _ in range(CROSSING_STEPS):
        mid = 0.5 * (lo + hi)
        d = dists(mid)
        best = np.maximum(best, d.min(axis=1))
        lo_side = (d[:, 0] > d[:, 1]) == lo_sign
        lo = np.where(lo_side, mid, lo)
        hi = np.where(lo_side, hi, mid)
    return best.reshape(count, 3)


def thinness_batch(coords, ideal_flags, k: CurvatureScale = K1, *,
                   r_trunc: float = R_TRUNC) -> np.ndarray:
    """Thinness of many triangles at once: the largest of each triangle's
    three side gaps, found exactly by a crossing search (see _side_gaps).

    coords: (B, 3, n) closure-point coordinates; ideal_flags: (B, 3) booleans.
    """
    coords = np.asarray(coords, dtype=float)
    ideal_flags = np.asarray(ideal_flags, dtype=bool)
    sides = _prepare_side_data(coords, ideal_flags, k.lam, r_trunc)
    return _side_gaps(*sides, k.lam).max(axis=1)


def quasicenter(t: Triangle, k: CurvatureScale = K1, *, seed=None,
                max_iter: int = 10_000, f_tol: float = 1e-10):
    """Minimizer of the max distance to the three sides and the attained value.

    Exact distances to the truncated side windows that thinness measures;
    derivative-free simplex descent in ball coordinates; raises
    ConvergenceError (carrying the best iterate) at the iteration cap.
    """
    coords, flags = _triangle_arrays(t)
    lam = k.lam
    m, r0, lo, hi = (a[0] for a in _prepare_side_data(coords, flags, lam, R_TRUNC))
    s_lo, s_hi = np.tanh(0.5 * lam * lo), np.tanh(0.5 * lam * hi)
    n = m.shape[1]

    def objective(w):
        if np.linalg.norm(w) >= 1.0 - INTERIOR_EPS:
            return 1e6 + np.linalg.norm(w)
        return float(_window_dist(w, m, r0, s_lo, s_hi, lam).max())

    mids = _side_points(m, r0, 0.5 * (lo + hi), lam)
    start = _clamp_interior(mids.mean(axis=0) * 0.999)
    spread = 0.05
    simplex = np.vstack([start, start + spread * np.eye(n)])
    if seed is not None:
        simplex = simplex + np.random.default_rng(seed).uniform(-0.01, 0.01, simplex.shape)
    simplex = _clamp_interior(simplex)
    iters_left = max_iter
    best_x, best_f = start, objective(start)
    # restart the simplex from the incumbent until the value stalls; the
    # objective is a max of smooth convex pieces and single runs can stall
    # on a shrunken degenerate simplex
    for _ in range(6):
        res = optimize.minimize(objective, best_x, method="Nelder-Mead",
                                options={"maxiter": iters_left, "xatol": 1e-10,
                                         "fatol": f_tol,
                                         "initial_simplex": simplex})
        iters_left -= res.nit
        improved = best_f - res.fun
        if res.fun < best_f:
            best_x, best_f = res.x, float(res.fun)
        if iters_left <= 0 or improved < f_tol:
            break
        simplex = _clamp_interior(np.vstack([best_x, best_x + 1e-4 * np.eye(n)]))
    point = BallPoint(_clamp_interior(best_x))
    if iters_left <= 0:
        raise ConvergenceError("quasicenter descent hit its iteration cap",
                               point=point, value=best_f)
    return point, best_f


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
                            k: CurvatureScale = K1, *, geodesic_samples=None) -> float:
    """Hausdorff distance between a sampled path and the geodesic ab.

    The geodesic is sampled over the parameter window spanned by the path
    (ideal endpoints are windowed by the projection of the path's ends).
    """
    pts = _coords_array(path)
    if pts.shape[0] < 2:
        raise GeometryError("a path needs at least two points")
    g = geodesic_between(a, b, k)
    frame = _DiameterFrame.of(g)
    lo = g.param_of(a) if not is_ideal(a) else float(frame.foot_params(frame.to_frame(pts[0]))[()])
    hi = g.param_of(b) if not is_ideal(b) else float(frame.foot_params(frame.to_frame(pts[-1]))[()])
    if lo > hi:
        lo, hi = hi, lo
    count = geodesic_samples or max(256, 4 * pts.shape[0])
    geo = _side_points(frame.m, frame.rot[0], np.linspace(lo, hi, count), frame.lam)
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
