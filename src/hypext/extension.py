"""Boundary-driven extension of a sphere homeomorphism into the ball.

Given a boundary map h and a reference ideal point p, each interior x
determines the far endpoint q_x of the geodesic through p and x and an
equator E_x of ideal points reached perpendicularly from x.  The image of x
is the point of the geodesic h(p) h(q_x) closest to h(p) among the
perpendicular feet of h(E_x):

    F(x) = c(t_x),  t_x = sup of the foot parameters of h applied to E_x,

with c running from h(q_x) toward h(p).  In dimension 2 the equator has
exactly two points and the sup is exact; in dimension 3 it is a sampled
circle with golden-section refinement around every local extreme of the
samples.  One core, ``_extend_batch``, works on (B, n) rows of points; the
scalar functions wrap it at batch size 1.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GeometryError
from .maps import BoundaryMap, InteriorMap
from .model import (
    BallPoint,
    CurvatureScale,
    IdealPoint,
    K1,
    _check_in_ball,
    _direction_raw,
    _dist_raw,
    _geodesic_param_raw,
    _geodesic_point_raw,
    _ideal_foot_reach,
    _shoot_raw,
    _translate_ideal,
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
    k: CurvatureScale = K1

    def __post_init__(self):
        if self.p.n == 3 and self.m < 16:
            raise GeometryError("dimension 3 needs at least 16 equator samples")


@dataclass
class ProjectionSpan:
    """Parameter extent of the projected equator image on the target axis."""

    t_min: float
    t_max: float

    @property
    def length(self) -> float:
        return self.t_max - self.t_min


def _q_axis(xs, p):
    """Unit direction at each row x of the ray toward q_x, away from p."""
    return -_direction_raw(xs, p)


def _q_raw(xs, p):
    """Far endpoints q_x of the geodesics through p and each row x."""
    return _translate_ideal(xs, _q_axis(xs, p))


def _equator_basis(axis):
    """(B, n - 1, n) orthonormal bases of the complements of unit rows."""
    if axis.shape[-1] == 2:
        return np.stack([-axis[:, 1], axis[:, 0]], axis=-1)[:, None, :]
    b1 = np.zeros_like(axis)
    b1[np.arange(axis.shape[0]), np.argmin(np.abs(axis), axis=-1)] = 1.0
    b1 = b1 - np.sum(b1 * axis, axis=-1, keepdims=True) * axis
    b1 = b1 / np.linalg.norm(b1, axis=-1, keepdims=True)
    return np.stack([b1, np.cross(axis, b1)], axis=1)


def _circle(basis, theta):
    """cos(theta) b1 + sin(theta) b2 for (B, 2, 3) bases; theta broadcasts
    against (B, k) and the result is (B, k, 3)."""
    return (np.cos(theta)[..., None] * basis[:, None, 0]
            + np.sin(theta)[..., None] * basis[:, None, 1])


def _equator_dirs(basis, m):
    """(B, k, n) unit directions of the equator at the origin: the two
    points of each basis line in dimension 2, m equally spaced in dimension 3."""
    if basis.shape[-1] == 2:
        return np.stack([basis[:, 0], -basis[:, 0]], axis=1)
    return _circle(basis, 2.0 * np.pi * np.arange(m) / m)


def _equator_raw(xs, p, m):
    """(B, k, n) ideal endpoints of the rays from each row x perpendicular
    to the geodesic p q_x."""
    basis = _equator_basis(_q_axis(xs, p))
    return _translate_ideal(xs[:, None, :], _equator_dirs(basis, m))


def q_of(x: BallPoint, p: IdealPoint) -> IdealPoint:
    """Second ideal endpoint of the geodesic through p and x."""
    return IdealPoint(_q_raw(x.coords[None, :], p.direction)[0])


def equator(x: BallPoint, p: IdealPoint, m: int = 64):
    """Ideal endpoints of the rays from x perpendicular to the geodesic p q_x.

    Exactly two points in dimension 2; m equally spaced samples of the
    boundary circle in dimension 3.
    """
    return [IdealPoint(row) for row in _equator_raw(x.coords[None, :], p.direction, m)[0]]


def _ideal_feet(us, u, v, lam):
    """Foot parameters of ideal rows us on the geodesics (u, v); rows too
    close to an axis endpoint are returned as nan."""
    t = _geodesic_param_raw(u, v, us, lam)
    return np.where(lam * np.abs(t) > _ideal_foot_reach(_ENDPOINT_GUARD), np.nan, t)


def _golden_max(f, lo, hi, iters):
    """Lockstep golden-section search for the max of f on each bracket
    [lo_i, hi_i]; f(x) evaluates bracket i at abscissa x_i for every i.
    Returns the largest value evaluated in each bracket."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_new = f(new)
        c, d = np.where(left, new, kept), np.where(left, kept, new)
        fc, fd = np.where(left, f_new, f_kept), np.where(left, f_kept, f_new)
    return np.maximum(fc, fd)


class _Batch(NamedTuple):
    image: np.ndarray    # (B, n): F(x) = c(t_max)
    t_min: np.ndarray    # (B,): lowest foot parameter of h(E_x)
    t_max: np.ndarray    # (B,): highest foot parameter of h(E_x)


def _extend_batch(h: BoundaryMap, cfg: ExtensionConfig, points) -> _Batch:
    """F and the extent of the projected equator image for (B, n) points.

    One h.apply_raw call maps every equator sample, q_x and p.  In dimension
    3 a lockstep golden-section search then refines both ends of every span
    within one sample step of each cyclic local extreme of the samples (and
    of each row's best sample), one apply_raw call per step, so the lower of
    two near-equal maxima cannot hide the higher one.
    """
    n = cfg.p.n
    xs = _check_in_ball(np.asarray(points, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != n:
        raise GeometryError(f"points must be rows of length {n}, got shape {xs.shape}")
    count = xs.shape[0]
    p = cfg.p.direction
    lam = cfg.k.lam
    axis = _q_axis(xs, p)
    basis = _equator_basis(axis)
    eq = _translate_ideal(xs[:, None, :], _equator_dirs(basis, cfg.m))
    size = eq.shape[1]
    imgs = h.apply_raw(np.concatenate([eq.reshape(-1, n), _translate_ideal(xs, axis),
                                       p[None, :]]))
    q_img, p_img = imgs[count * size:-1], imgs[-1]
    if np.any(np.linalg.norm(p_img - q_img, axis=-1) < _ENDPOINT_GUARD):
        raise GeometryError("boundary images of p and q_x collide")
    # the target axis runs from h(q_x) toward h(p)
    feet = _ideal_feet(imgs[:count * size].reshape(count, size, n), q_img[:, None], p_img, lam)
    if np.any(np.all(np.isnan(feet), axis=1)):
        raise GeometryError("every equator image collided with an axis endpoint")
    t_min = np.nanmin(feet, axis=1)
    t_max = np.nanmax(feet, axis=1)

    if n == 3 and cfg.refine_iters > 0:
        # rows [0, count) seek maxima of the feet, rows [count, 2 count)
        # maxima of the negated feet; one search bracket per cyclic peak
        signed = np.concatenate([feet, -feet])
        signed[np.isnan(signed)] = -np.inf
        peak = (signed > np.roll(signed, 1, axis=1)) & (signed >= np.roll(signed, -1, axis=1))
        peak[np.arange(2 * count), np.argmax(signed, axis=1)] = True
        row, j = np.nonzero(peak)
        src = row % count
        sign = np.where(row < count, 1.0, -1.0)
        theta = 2.0 * np.pi * j / cfg.m
        step = 2.0 * np.pi / cfg.m

        def signed_foot(th):
            us = _translate_ideal(xs[src], _circle(basis[src], th[:, None])[:, 0])
            t = _ideal_feet(h.apply_raw(us), q_img[src], p_img, lam)
            return np.where(np.isnan(t), -np.inf, sign * t)

        best = _golden_max(signed_foot, theta - step, theta + step, cfg.refine_iters)
        up = row < count
        np.maximum.at(t_max, src[up], best[up])
        np.minimum.at(t_min, src[~up], -best[~up])
    return _Batch(_geodesic_point_raw(q_img, p_img, t_max, lam), t_min, t_max)


def extend(h: BoundaryMap, cfg: ExtensionConfig, x: BallPoint) -> BallPoint:
    """The extension of h at x (see module docstring)."""
    return BallPoint(_extend_batch(h, cfg, x.coords[None, :]).image[0])


def projection_span(h: BoundaryMap, cfg: ExtensionConfig, x: BallPoint) -> ProjectionSpan:
    """Extent of the projected equator image along the target geodesic."""
    out = _extend_batch(h, cfg, x.coords[None, :])
    return ProjectionSpan(t_min=float(out.t_min[0]), t_max=float(out.t_max[0]))


def extension_field(h: BoundaryMap, cfg: ExtensionConfig, points) -> np.ndarray:
    """Rows (x_1..x_n, F_1..F_n, t_x, span_length) over the given points."""
    points = np.asarray(points, dtype=float)
    out = _extend_batch(h, cfg, points)
    return np.column_stack([points, out.image, out.t_max, out.t_max - out.t_min])


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
    qx = _q_raw(points, cfg.p.direction)[:, None, :]
    betas = _equator_raw(points, cfg.p.direction, cfg.m)
    src = visual_dist_many(points[:, None, :], lam, betas, qx)
    image = _extend_batch(h, cfg, points).image
    img = visual_dist_many(image[:, None, :], lam, h.apply_raw(betas), h.apply_raw(qx))
    return BoundaryBandReport(source_min=float(src.min()), source_max=float(src.max()),
                              image_min=float(img.min()), image_max=float(img.max()),
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
    dirs = sample_boundary(rng, n_base * n_dirs, n).reshape(n_base, n_dirs, n)
    # (eps, base, dir, n): the points at distance eps along each direction
    spheres = _shoot_raw(bases[:, None, :], dirs, eps_grid[:, None, None], lam)
    images = _extend_batch(h, cfg, np.concatenate([bases, spheres.reshape(-1, n)])).image
    gaps = _dist_raw(lam, images[:n_base, None, :],
                     images[n_base:].reshape(spheres.shape)).reshape(len(eps_grid), -1)
    omega = np.maximum.accumulate(gaps.max(axis=1))
    delta = gaps.min(axis=1)
    return [(float(e), float(w), float(g)) for e, w, g in zip(eps_grid, omega, delta)]


def compare_to_interior(f: InteriorMap, cfg: ExtensionConfig, points,
                        h: BoundaryMap | None = None) -> float:
    """sup over sampled points of d(F(x), f(x)) with F built from f's boundary map."""
    if h is None:
        h = f.boundary_map()
    points = np.asarray(points, dtype=float)
    image = _extend_batch(h, cfg, points).image
    return float(np.max(_dist_raw(cfg.k.lam, image, f.apply_raw(points)), initial=0.0))


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
    f1 = _extend_batch(h, cfg1, points).image
    f2 = _extend_batch(h, cfg2, points).image
    return float(np.max(_dist_raw(k.lam, f1, f2), initial=0.0))
