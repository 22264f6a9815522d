"""Boundary-driven extension of a sphere homeomorphism into the ball.

Given a boundary map h and a reference ideal point p, each interior x
determines the far endpoint q_x of the geodesic through p and x and an
equator E_x of ideal points reached perpendicularly from x.  The image of x
is the point of the geodesic h(p) h(q_x) closest to h(p) among the
perpendicular feet of h(E_x):

    F(x) = c(t_x),  t_x = sup of the foot parameters of h applied to E_x,

with c running from h(q_x) toward h(p).  In dimension 2 the equator has
exactly two points and the sup is exact; in dimension 3 it is a sampled
circle with golden-section refinement around the extreme samples.
"""

from dataclasses import dataclass

import numpy as np

from .coarse import _DiameterFrame
from .errors import GeometryError
from .maps import BoundaryMap, InteriorMap
from .model import (
    BallPoint,
    CurvatureScale,
    Geodesic,
    IdealPoint,
    K1,
    _mobius_add,
    _translate_ideal,
    geodesic_between,
    hyp_dist,
)
from .sampling import rng_from, sample_ball_hyperbolic, sample_boundary

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# boundary images this close (chordal) to a projection axis endpoint are
# skipped; matching the collision guard on h(p) vs h(q_x)
_ENDPOINT_GUARD = 1e-10


@dataclass(frozen=True)
class ExtensionConfig:
    """Everything F(x) depends on besides x and the boundary map."""

    p: IdealPoint
    m: int = 64
    refine_iters: int = 32
    tol: float = 1e-10
    k: CurvatureScale = K1

    def __post_init__(self):
        if self.tol <= 0.0:
            raise GeometryError("tolerance must be positive")
        if self.p.n == 3 and self.m < 16:
            raise GeometryError("dimension 3 needs at least 16 equator samples")


@dataclass
class ProjectionSpan:
    """Parameter extent of the projected equator image on the target axis."""

    t_min: float
    t_max: float
    argmax_index: int

    @property
    def length(self) -> float:
        return self.t_max - self.t_min


def q_of(x: BallPoint, p: IdealPoint) -> IdealPoint:
    """Second ideal endpoint of the geodesic through p and x."""
    toward_p = _mobius_add(-x.coords, p.direction)
    toward_p = toward_p / np.linalg.norm(toward_p)
    return IdealPoint(_translate_ideal(x.coords, -toward_p))


def _equator_frame(x: BallPoint, p: IdealPoint):
    """Unit axis toward q_x at x plus an orthonormal basis of its complement."""
    n = x.n
    toward_p = _mobius_add(-x.coords, p.direction)
    toward_p = toward_p / np.linalg.norm(toward_p)
    axis = -toward_p
    if n == 2:
        b1 = np.array([-axis[1], axis[0]])
        return axis, (b1,)
    pick = int(np.argmin(np.abs(axis)))
    b1 = np.zeros(3)
    b1[pick] = 1.0
    b1 = b1 - np.dot(b1, axis) * axis
    b1 = b1 / np.linalg.norm(b1)
    b2 = np.cross(axis, b1)
    return axis, (b1, b2)


def _equator_raw(x: BallPoint, p: IdealPoint, m: int) -> np.ndarray:
    axis, basis = _equator_frame(x, p)
    if x.n == 2:
        dirs = np.stack([basis[0], -basis[0]])
    else:
        theta = 2.0 * np.pi * np.arange(m) / m
        dirs = np.cos(theta)[:, None] * basis[0] + np.sin(theta)[:, None] * basis[1]
    return _translate_ideal(x.coords, dirs)


def equator(x: BallPoint, p: IdealPoint, m: int = 64):
    """Ideal endpoints of the rays from x perpendicular to the geodesic p q_x.

    Exactly two points in dimension 2; m equally spaced samples of the
    boundary circle in dimension 3.
    """
    return [IdealPoint(row) for row in _equator_raw(x, p, m)]


def _ideal_foot_params(frame: _DiameterFrame, us):
    """Foot parameters of ideal rows on the frame's diameter; rows too close
    to an axis endpoint are returned as nan."""
    z = frame.to_frame_ideal(us)
    z1 = np.clip(z[..., 0], -1.0, 1.0)
    bad = np.abs(z1) > 1.0 - _ENDPOINT_GUARD
    s = z1 / (1.0 + np.sqrt(np.maximum(1.0 - z1 * z1, 0.0)))
    t = 2.0 * np.arctanh(np.clip(s, -1.0, 1.0)) / frame.lam
    return np.where(bad, np.nan, t)


def _golden_extreme(fn, lo, hi, iters, want_max):
    """Golden-section search for a scalar extreme of fn on [lo, hi]."""
    sign = 1.0 if want_max else -1.0
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = sign * fn(c)
    fd = sign * fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = sign * fn(d)
    return sign * max(fc, fd)


@dataclass
class _ExtensionCore:
    axis: Geodesic
    t_min: float
    t_max: float
    argmax_index: int


def _extend_core(h: BoundaryMap, cfg: ExtensionConfig, x: BallPoint,
                 *, refine_min: bool = False) -> _ExtensionCore:
    qx = q_of(x, cfg.p)
    p_img = h(cfg.p).direction
    q_img = h(qx).direction
    if np.linalg.norm(p_img - q_img) < _ENDPOINT_GUARD:
        raise GeometryError("boundary images of p and q_x collide")
    axis = geodesic_between(IdealPoint(q_img), IdealPoint(p_img), cfg.k)
    frame = _DiameterFrame.of(axis)
    equator_pts = _equator_raw(x, cfg.p, cfg.m)
    images = h.apply_raw(equator_pts)
    feet = _ideal_foot_params(frame, images)
    keep = ~np.isnan(feet)
    if not np.any(keep):
        raise GeometryError("every equator image collided with an axis endpoint")
    kept = np.where(keep, feet, -np.inf)
    arg_hi = int(np.argmax(kept))
    t_hi = float(feet[arg_hi])
    arg_lo = int(np.argmin(np.where(keep, feet, np.inf)))
    t_lo = float(feet[arg_lo])

    if x.n == 3 and cfg.refine_iters > 0:
        axis_dir, basis = _equator_frame(x, cfg.p)
        step = 2.0 * np.pi / cfg.m

        def foot_of_angle(theta):
            d = np.cos(theta) * basis[0] + np.sin(theta) * basis[1]
            u = _translate_ideal(x.coords, d[None, :])
            val = _ideal_foot_params(frame, h.apply_raw(u))[0]
            return float(val) if np.isfinite(val) else -np.inf

        theta_hi = 2.0 * np.pi * arg_hi / cfg.m
        t_hi = max(t_hi, _golden_extreme(foot_of_angle, theta_hi - step,
                                         theta_hi + step, cfg.refine_iters, True))
        if refine_min:
            def foot_lo(theta):
                val = foot_of_angle(theta)
                return val if np.isfinite(val) else np.inf

            theta_lo = 2.0 * np.pi * arg_lo / cfg.m
            t_lo = min(t_lo, _golden_extreme(foot_lo, theta_lo - step,
                                             theta_lo + step, cfg.refine_iters, False))
    return _ExtensionCore(axis=axis, t_min=t_lo, t_max=t_hi, argmax_index=arg_hi)


def extend(h: BoundaryMap, cfg: ExtensionConfig, x: BallPoint) -> BallPoint:
    """The extension of h at x (see module docstring)."""
    core = _extend_core(h, cfg, x)
    return core.axis.point_at(core.t_max)


def projection_span(h: BoundaryMap, cfg: ExtensionConfig, x: BallPoint) -> ProjectionSpan:
    """Extent of the projected equator image along the target geodesic."""
    core = _extend_core(h, cfg, x, refine_min=True)
    return ProjectionSpan(t_min=core.t_min, t_max=core.t_max,
                          argmax_index=core.argmax_index)


def extension_field(h: BoundaryMap, cfg: ExtensionConfig, points) -> np.ndarray:
    """Rows (x_1..x_n, F_1..F_n, t_x, span_length) over the given points."""
    points = np.asarray(points, dtype=float)
    rows = np.empty((points.shape[0], 2 * points.shape[1] + 2))
    n = points.shape[1]
    for i, coords in enumerate(points):
        core = _extend_core(h, cfg, BallPoint(coords), refine_min=True)
        img = core.axis.point_at(core.t_max)
        rows[i, :n] = coords
        rows[i, n:2 * n] = img.coords
        rows[i, 2 * n] = core.t_max
        rows[i, 2 * n + 1] = core.t_max - core.t_min
    return rows


# ---------------------------------------------------------------------------
# measurement harnesses
# ---------------------------------------------------------------------------

@dataclass
class BoundaryBandReport:
    """Extremes of the visual separations driving the construction."""

    source_min: float
    source_max: float
    image_min: float
    image_max: float
    samples: int


def boundary_bounds_check(h: BoundaryMap, cfg: ExtensionConfig, points) -> BoundaryBandReport:
    """Visual separations d_x(beta, q_x) and d_x'(h q_x, h beta) over samples."""
    from .visual import visual_dist_many

    points = np.asarray(points, dtype=float)
    lam = cfg.k.lam
    src_lo, src_hi = np.inf, -np.inf
    img_lo, img_hi = np.inf, -np.inf
    for coords in points:
        x = BallPoint(coords)
        qx = q_of(x, cfg.p).direction
        betas = _equator_raw(x, cfg.p, cfg.m)
        src = visual_dist_many(coords, lam, betas, np.broadcast_to(qx, betas.shape))
        x_img = extend(h, cfg, x)
        q_img = h.apply_raw(qx[None, :])
        img = visual_dist_many(x_img.coords, lam, h.apply_raw(betas),
                               np.broadcast_to(q_img[0], betas.shape))
        src_lo, src_hi = min(src_lo, src.min()), max(src_hi, src.max())
        img_lo, img_hi = min(img_lo, img.min()), max(img_hi, img.max())
    return BoundaryBandReport(source_min=float(src_lo), source_max=float(src_hi),
                              image_min=float(img_lo), image_max=float(img_hi),
                              samples=points.shape[0])


def continuity_modulus(h: BoundaryMap, cfg: ExtensionConfig, radius: float,
                       eps_grid, *, n_base: int = 24, n_dirs: int = 8, seed=0):
    """Forward modulus omega and inverse sphere gap delta on an eps grid.

    omega(eps) = max d(F x, F y) over sampled pairs with d(x, y) <= eps
    (monotone by construction: the pair pool accumulates along the grid);
    delta(eps) = min d(F x, F y) over sampled y on the sphere S(x, eps).
    Rows are (eps, omega, delta).
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    if np.any(np.diff(eps_grid) <= 0.0) or np.any(eps_grid <= 0.0):
        raise GeometryError("eps grid must be positive and increasing")
    rng = rng_from(seed)
    n = cfg.p.n
    lam = cfg.k.lam
    bases = sample_ball_hyperbolic(rng, n_base, n, lam, radius)
    base_imgs = [extend(h, cfg, BallPoint(b)) for b in bases]
    dirs = sample_boundary(rng, n_base * n_dirs, n).reshape(n_base, n_dirs, n)
    rows = []
    pool_max = 0.0
    for eps in eps_grid:
        radial = np.tanh(0.5 * lam * eps)
        gaps = []
        for i, b in enumerate(bases):
            sphere = _mobius_add(b, radial * dirs[i])
            for y in sphere:
                gaps.append(hyp_dist(cfg.k, base_imgs[i],
                                     extend(h, cfg, BallPoint(y))))
        pool_max = max(pool_max, max(gaps))
        rows.append((float(eps), float(pool_max), float(min(gaps))))
    return rows


def compare_to_interior(f: InteriorMap, cfg: ExtensionConfig, points,
                        h: BoundaryMap | None = None) -> float:
    """sup over sampled points of d(F(x), f(x)) with F built from f's boundary map."""
    if h is None:
        h = f.boundary_map()
    points = np.asarray(points, dtype=float)
    worst = 0.0
    for coords in points:
        x = BallPoint(coords)
        worst = max(worst, hyp_dist(cfg.k, extend(h, cfg, x),
                                    BallPoint(f.apply_raw(coords[None, :])[0])))
    return worst


def basepoint_sensitivity(h: BoundaryMap, p1: IdealPoint, p2: IdealPoint,
                          points, *, m: int = 64, refine_iters: int = 32,
                          k: CurvatureScale = K1) -> float:
    """sup over sampled points of the disagreement between the extensions
    built from two different reference ideal points."""
    if np.linalg.norm(p1.direction - p2.direction) < 1e-12:
        raise GeometryError("reference points must differ")
    cfg1 = ExtensionConfig(p=p1, m=m, refine_iters=refine_iters, k=k)
    cfg2 = ExtensionConfig(p=p2, m=m, refine_iters=refine_iters, k=k)
    points = np.asarray(points, dtype=float)
    worst = 0.0
    for coords in points:
        x = BallPoint(coords)
        worst = max(worst, hyp_dist(k, extend(h, cfg1, x), extend(h, cfg2, x)))
    return worst
