"""Poincare ball model of constant curvature -lambda^2 in dimensions 2 and 3.

The model is the open unit ball with line element 2|dx| / (lam (1 - |x|^2)),
so all lengths at curvature scale ``lam`` are the curvature -1 lengths divided
by ``lam``.  Geodesics are diameters and circular arcs orthogonal to the unit
sphere; ideal boundary points are unit vectors.  A geodesic is its two ideal
ends (u, v), and three row-wise kernels work on ends directly, with no change
of frame: the ends of the geodesic through two closure points, the point at
an arc-length parameter, and the parameter of a closure point's
perpendicular foot.  Mobius translations (gyro additions) supply exact
isometries; the exponential map, directions and angles reduce their input to
the origin with them, apply a closed form, and map back.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

# Interior guard: coordinates are kept at Euclidean norm <= 1 - INTERIOR_EPS.
INTERIOR_EPS = 1e-12
# Two closure points closer than this (Euclidean) count as coincident.
COINCIDENCE_EPS = 1e-12

_SUPPORTED_DIMS = (2, 3)


def _as_vec(coords):
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1 or v.shape[0] not in _SUPPORTED_DIMS:
        raise GeometryError(f"expected a vector of length 2 or 3, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class CurvatureScale:
    """Curvature -lam^2 with lam >= 1; lam = 1 is the reference model."""

    lam: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 1.0:
            raise GeometryError(f"curvature scale must satisfy lam >= 1, got {self.lam}")


K1 = CurvatureScale(1.0)


@dataclass(frozen=True, eq=False)
class BallPoint:
    """Interior point of the unit ball, norm bounded away from the sphere."""

    coords: np.ndarray

    def __init__(self, coords):
        v = _as_vec(coords)
        if np.linalg.norm(v) > 1.0 - INTERIOR_EPS:
            raise GeometryError(
                f"point with norm {np.linalg.norm(v):.17g} violates the interior guard"
            )
        object.__setattr__(self, "coords", v)

    @property
    def n(self):
        return self.coords.shape[0]

    def __repr__(self):
        return f"BallPoint({self.coords.tolist()})"


@dataclass(frozen=True, eq=False)
class IdealPoint:
    """Boundary point of the model: a unit vector."""

    direction: np.ndarray

    def __init__(self, direction):
        v = _as_vec(direction)
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise GeometryError(f"ideal point must be a unit vector, |v| = {np.linalg.norm(v)!r}")
        object.__setattr__(self, "direction", v)

    @classmethod
    def from_direction(cls, v):
        """Normalize a nonzero vector onto the boundary sphere."""
        v = _as_vec(v)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise GeometryError("cannot normalize the zero vector to an ideal point")
        return cls(v / nv)

    @property
    def n(self):
        return self.direction.shape[0]

    def __repr__(self):
        return f"IdealPoint({self.direction.tolist()})"


# Closure of the ball: interior points and ideal points.
ClosurePoint = BallPoint | IdealPoint


def closure_coords(p: ClosurePoint) -> np.ndarray:
    return p.coords if isinstance(p, BallPoint) else p.direction


def is_ideal(p: ClosurePoint) -> bool:
    return isinstance(p, IdealPoint)


def closure_eq(p: ClosurePoint, q: ClosurePoint, tol: float = COINCIDENCE_EPS) -> bool:
    if is_ideal(p) != is_ideal(q):
        return False
    return bool(np.linalg.norm(closure_coords(p) - closure_coords(q)) <= tol)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Euclidean vector attached at a base point; hyperbolic norm is scaled."""

    base: BallPoint
    vec: np.ndarray

    def __init__(self, base, vec):
        if not isinstance(base, BallPoint):
            base = BallPoint(base)
        v = _as_vec(vec)
        if v.shape != base.coords.shape:
            raise GeometryError("tangent vector dimension differs from its base point")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vec", v)

    def hyp_norm(self, k: CurvatureScale = K1) -> float:
        conf = 2.0 / (k.lam * (1.0 - np.dot(self.base.coords, self.base.coords)))
        return conf * float(np.linalg.norm(self.vec))


# ---------------------------------------------------------------------------
# raw-array kernels (broadcast over leading axes; trailing axis is coords)
# ---------------------------------------------------------------------------

def _clamp_interior(x):
    """Rescale rows with norm beyond the interior guard back onto it."""
    x = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(x, axis=-1, keepdims=True)
    limit = 1.0 - INTERIOR_EPS
    over = nrm > limit
    if np.any(over):
        # aim slightly inside the guard so rounding cannot push back over it
        scale = np.where(over, (limit * (1.0 - 4e-16)) / np.maximum(nrm, limit), 1.0)
        x = x * scale
    return x


def _mobius_add(a, x):
    """Mobius addition a (+) x; an isometry sending 0 to a.

    Works verbatim for |x| = 1 (boundary action of the translation) and
    broadcasts over leading axes of both arguments.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    ax = np.sum(a * x, axis=-1)
    x2 = np.sum(x * x, axis=-1)
    a2 = np.sum(a * a, axis=-1)
    num = (1.0 + 2.0 * ax + x2)[..., None] * a + (1.0 - a2)[..., None] * x
    den = 1.0 + 2.0 * ax + a2 * x2
    return num / den[..., None]


def _translate_interior(a, x):
    return _clamp_interior(_mobius_add(a, x))


def _translate_ideal(a, u):
    out = _mobius_add(a, u)
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def _dist_raw(lam, x, y):
    """Distance at curvature -lam^2, stable near the boundary.

    arcosh(1 + 2t) == 2 asinh(sqrt(t)); the latter avoids cancellation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d2 = np.sum((x - y) ** 2, axis=-1)
    cx = 1.0 - np.sum(x * x, axis=-1)
    cy = 1.0 - np.sum(y * y, axis=-1)
    t = d2 / (cx * cy)
    return 2.0 * np.arcsinh(np.sqrt(t)) / lam


def _check_in_ball(coords):
    coords = np.asarray(coords, dtype=float)
    if np.any(np.linalg.norm(coords, axis=-1) > 1.0 - INTERIOR_EPS):
        raise GeometryError("coordinates violate the interior guard")
    return coords


def hyp_dist(k: CurvatureScale, x: BallPoint, y: BallPoint) -> float:
    """Distance between interior points in the lam-scaled metric."""
    xc = _check_in_ball(x.coords if isinstance(x, BallPoint) else x)
    yc = _check_in_ball(y.coords if isinstance(y, BallPoint) else y)
    return float(_dist_raw(k.lam, xc, yc))


# ---------------------------------------------------------------------------
# orthogonal matrices and Mobius isometries
# ---------------------------------------------------------------------------

def rotation_taking(u, v):
    """Orthogonal matrix rotating unit vector u onto unit vector v.

    Minimal rotation in the plane span(u, v); for u = -v a half turn in a
    deterministic plane is used.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = u.shape[0]
    c = float(np.dot(u, v))
    if c > 1.0 - 1e-15:
        return np.eye(n)
    if c < -1.0 + 1e-15:
        # half turn: pick any axis direction w orthogonal to u
        w = np.zeros(n)
        w[int(np.argmin(np.abs(u)))] = 1.0
        w = w - np.dot(w, u) * u
        w /= np.linalg.norm(w)
        return -np.eye(n) + 2.0 * np.outer(w, w) if n == 3 else -np.eye(n)
    w = v - c * u
    s = np.linalg.norm(w)
    w = w / s
    eye = np.eye(n)
    return eye + (c - 1.0) * (np.outer(u, u) + np.outer(w, w)) + s * (np.outer(w, u) - np.outer(u, w))


@dataclass(frozen=True)
class MobiusIsometry:
    """Isometry of the ball model stored as a chain of primitive steps.

    Each step is ("t", translation vector) or ("r", orthogonal matrix); the
    chain is applied left to right.  Keeping raw composition data sidesteps
    gyration bookkeeping and makes inverses exact.
    """

    steps: tuple = field(default_factory=tuple)

    @classmethod
    def identity(cls, n: int = 2):
        return cls(steps=(("r", np.eye(n)),))

    @classmethod
    def translation(cls, a):
        a = _as_vec(a)
        if np.linalg.norm(a) > 1.0 - INTERIOR_EPS:
            raise GeometryError("translation parameter must be an interior point")
        return cls(steps=(("t", a),))

    @classmethod
    def rotation(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] not in _SUPPORTED_DIMS:
            raise GeometryError("rotation matrix must be 2x2 or 3x3")
        if np.linalg.norm(matrix @ matrix.T - np.eye(matrix.shape[0])) > 1e-10:
            raise GeometryError("matrix is not orthogonal")
        return cls(steps=(("r", matrix),))

    @property
    def n(self):
        kind, data = self.steps[0]
        return data.shape[0] if kind == "t" else data.shape[1]

    @property
    def orientation(self) -> int:
        """+1 for orientation preserving, -1 otherwise."""
        sign = 1.0
        for kind, data in self.steps:
            if kind == "r":
                sign *= np.sign(np.linalg.det(data))
        return int(sign)

    def then(self, other: "MobiusIsometry") -> "MobiusIsometry":
        """Isometry applying self first, then other."""
        return MobiusIsometry(steps=self.steps + other.steps)

    def inverse(self) -> "MobiusIsometry":
        inv = []
        for kind, data in reversed(self.steps):
            inv.append(("t", -data) if kind == "t" else ("r", data.T))
        return MobiusIsometry(steps=tuple(inv))

    def apply_interior_raw(self, x):
        x = np.asarray(x, dtype=float)
        for kind, data in self.steps:
            x = _translate_interior(data, x) if kind == "t" else x @ data.T
        return x

    def apply_ideal_raw(self, u):
        u = np.asarray(u, dtype=float)
        for kind, data in self.steps:
            u = _translate_ideal(data, u) if kind == "t" else u @ data.T
        return u / np.linalg.norm(u, axis=-1, keepdims=True)


def apply_mobius(m: MobiusIsometry, p: ClosurePoint) -> ClosurePoint:
    if isinstance(p, BallPoint):
        return BallPoint(m.apply_interior_raw(p.coords))
    return IdealPoint(m.apply_ideal_raw(p.direction))


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def _arc_frames_raw(u, v):
    """Anchor m and unit direction d of the geodesics from ideal u to ideal v.

    The anchor is the point of the arc nearest the Euclidean origin.  The
    reflection swapping u and v fixes it, so m lies along u + v and the
    direction there is that of v - u.  For unit u, v the anchor is
    m = (u + v) / (2 + |v - u|), which does not cancel near diameters.
    Broadcasts over leading axes.
    """
    diff = v - u
    gap = np.linalg.norm(diff, axis=-1, keepdims=True)
    return (u + v) / (2.0 + gap), diff / gap


def _geodesic_ends_raw(xa, xb, ideal_a, ideal_b):
    """Ideal ends (u beyond a, v beyond b) of the geodesics through closure
    rows xa and xb, whose ideal flags are ideal_a and ideal_b; ideal inputs
    come back unchanged.  Broadcasts over leading axes.

    Hyperboloid model (Ratcliffe, Foundations of Hyperbolic Manifolds, sec.
    3.2): x lifts to W = ((1 + |x|^2) / 2, x), with <W, W> = -a^2 / 4 for
    a = 1 - |x|^2 (0 at an ideal point) and -<W_a, W_b> = a_a a_b / 4 + g / 2
    for g = |x_a - x_b|^2.  W_a - c W_b is null where a_b^2 c^2 -
    2 (a_a a_b + 2 g) c + a_a^2 = 0.  Its smaller root, taken by Vieta as
    c = a_a^2 / D with D = a_a a_b + 2 g + 2 sqrt(g (a_a a_b + g)), gives the
    future null vector beyond a, whose ideal point is the unit spatial part
    of x_a - c x_b.  D is a sum of nonnegative terms, so nothing cancels.
    """
    ideal_a = np.asarray(ideal_a)[..., None]
    ideal_b = np.asarray(ideal_b)[..., None]
    a_a = np.where(ideal_a, 0.0, 1.0 - np.sum(xa * xa, axis=-1, keepdims=True))
    a_b = np.where(ideal_b, 0.0, 1.0 - np.sum(xb * xb, axis=-1, keepdims=True))
    g = np.sum((xa - xb) ** 2, axis=-1, keepdims=True)
    big = a_a * a_b + 2.0 * g + 2.0 * np.sqrt(g * (a_a * a_b + g))
    u = xa - (a_a * a_a / big) * xb
    v = xb - (a_b * a_b / big) * xa
    u = np.where(ideal_a, xa, u / np.linalg.norm(u, axis=-1, keepdims=True))
    v = np.where(ideal_b, xb, v / np.linalg.norm(v, axis=-1, keepdims=True))
    return u, v


def _geodesic_point_raw(u, v, t, lam):
    """Points at arc-length parameters t on the geodesics from ideal u to
    ideal v, with t = 0 at the anchor and t = -inf, +inf at u, v; broadcasts
    over leading axes.

    c(t) = (e^-s u + e^s v) / (e^-s + e^s + |u - v|) with s = lam t, the
    projection of the hyperboloid point (e^-s U + e^s V) / |u - v| for the
    null lifts U = (1, u), V = (1, v).  Numerator and denominator are scaled
    by e^-|s|, so no term overflows.
    """
    s = lam * np.asarray(t, dtype=float)[..., None]
    gap = np.linalg.norm(u - v, axis=-1, keepdims=True)
    wu, wv = np.exp(np.minimum(-2.0 * s, 0.0)), np.exp(np.minimum(2.0 * s, 0.0))
    return _clamp_interior((wu * u + wv * v) / (wu + wv + gap * np.exp(-np.abs(s))))


def _geodesic_param_raw(u, v, x, lam):
    """Arc-length parameters of the perpendicular feet of closure rows x on
    the geodesics from ideal u to ideal v; -inf at u and +inf at v.

    The level sets of |x - u| / |x - v| are the Apollonius spheres of u and
    v, which meet every sphere through u and v at right angles: the unit
    sphere and the geodesic.  So they are the hyperplanes perpendicular to
    the geodesic, and on it ln(|x - u| / |x - v|) = lam t.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(np.linalg.norm(x - u, axis=-1) / np.linalg.norm(x - v, axis=-1)) / lam


def _ideal_foot_reach(eps):
    """The lam |t| beyond which an ideal point's foot counts as a geodesic's
    own end: in the frame where the geodesic is the diameter along d, an
    ideal point w has tanh(lam t / 2) = z / (1 + sqrt(1 - z^2)) with z = w.d,
    increasing in z, so |z| > 1 - eps exactly when lam |t| exceeds
    2 artanh((1 - eps) / (1 + sqrt(eps (2 - eps))))."""
    return 2.0 * np.arctanh((1.0 - eps) / (1.0 + np.sqrt(eps * (2.0 - eps))))


@dataclass(eq=False)
class Geodesic:
    """Complete geodesic through two closure points, stored as its ideal
    ends (u, v), u beyond ``a`` and v beyond ``b``.

    ``point_at`` is unit speed in the lam metric with ``point_at(0)`` at the
    anchor (the point of the arc nearest the ball's origin) and increasing
    parameter running from u toward v.
    """

    a: ClosurePoint
    b: ClosurePoint
    ideal_ends: tuple
    lam: float = 1.0

    @property
    def anchor(self) -> BallPoint:
        return BallPoint(_arc_frames_raw(*self.ideal_ends)[0])

    @property
    def unit_direction_at_anchor(self) -> np.ndarray:
        return _arc_frames_raw(*self.ideal_ends)[1]

    @property
    def n(self):
        return self.ideal_ends[0].shape[0]

    def point_at(self, t: float) -> BallPoint:
        return BallPoint(self.point_at_raw(t))

    def point_at_raw(self, t):
        return _geodesic_point_raw(*self.ideal_ends, t, self.lam)

    def param_of(self, p: ClosurePoint) -> float:
        """Arc-length parameter of the perpendicular foot of a closure point
        (the point's own parameter when it lies on the geodesic)."""
        return float(self.param_of_raw(closure_coords(p) if isinstance(p, ClosurePoint) else p))

    def param_of_raw(self, coords):
        return _geodesic_param_raw(*self.ideal_ends, coords, self.lam)


def geodesic_between(a: ClosurePoint, b: ClosurePoint, k: CurvatureScale = K1) -> Geodesic:
    """The unique complete geodesic whose closure contains a and b."""
    if closure_eq(a, b):
        raise GeometryError("geodesic endpoints must be distinct closure points")
    u, v = _geodesic_ends_raw(closure_coords(a)[None], closure_coords(b)[None],
                              [is_ideal(a)], [is_ideal(b)])
    return Geodesic(a=a, b=b, ideal_ends=(u[0], v[0]), lam=k.lam)


def normalize_to_diameter(g: Geodesic) -> MobiusIsometry:
    """Isometry carrying g onto the (-e1, e1) diameter, anchor to the origin."""
    n = g.n
    e1 = np.zeros(n)
    e1[0] = 1.0
    move = MobiusIsometry.translation(-g.anchor.coords)
    spin = MobiusIsometry.rotation(rotation_taking(g.unit_direction_at_anchor, e1))
    return move.then(spin)


# ---------------------------------------------------------------------------
# exponential map, rays, angles
# ---------------------------------------------------------------------------

def _exp_raw(x, v, lam):
    """Row-wise exp_map: follow the geodesic from base rows x with Euclidean
    tangent rows v for their length at curvature -lam^2; zero rows stay at
    x.  Broadcasts over leading axes; lam is a scalar or one value per row.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v, axis=-1)
    length = 2.0 / (lam * (1.0 - np.sum(x * x, axis=-1))) * nv
    unit = np.divide(v, nv[..., None], out=np.zeros_like(v), where=nv[..., None] > 0.0)
    return _translate_interior(x, np.tanh(0.5 * lam * length)[..., None] * unit)


def _direction_raw(x, target):
    """Row-wise direction_at: unit initial directions at ball rows x toward
    closure rows target; NaN rows where a target coincides with its base."""
    w = _mobius_add(-np.asarray(x, dtype=float), target)
    nw = np.linalg.norm(w, axis=-1, keepdims=True)
    return np.divide(w, nw, out=np.full_like(w, np.nan), where=nw >= COINCIDENCE_EPS)


def _angle_raw(x, y, z):
    """Row-wise angle at x between the geodesics xy and xz; NaN where y or z
    coincides with x."""
    cos = np.sum(_direction_raw(x, y) * _direction_raw(x, z), axis=-1)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _ray_limit_raw(x, v):
    """Row-wise ray_limit: ideal endpoints of the rays from ball rows x with
    initial direction rows v; NaN rows where v is zero."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    return _translate_ideal(x, np.divide(v, nv, out=np.full_like(v, np.nan), where=nv > 0.0))


def _right_triangle_residual_raw(lam, va, vb, vc):
    """Row-wise right_triangle_residual and the angle at vc it presumes to
    be pi/2."""
    side_a = _dist_raw(lam, vb, vc)
    residual = (np.cosh(lam * side_a) * np.sin(_angle_raw(vb, va, vc))
                - np.cos(_angle_raw(va, vb, vc)))
    return residual, _angle_raw(vc, va, vb)


def exp_map(x: BallPoint, v: TangentVector, k: CurvatureScale = K1) -> BallPoint:
    """Follow the geodesic from x with initial direction v for length |v|."""
    if not np.array_equal(v.base.coords, x.coords):
        raise GeometryError("tangent vector is not based at x")
    if not np.any(v.vec):
        return x
    return BallPoint(_exp_raw(x.coords[None], v.vec[None], k.lam)[0])


def log_map(x: BallPoint, y: BallPoint, k: CurvatureScale = K1) -> TangentVector:
    """Inverse of exp_map: the initial velocity of the geodesic x -> y."""
    w = _mobius_add(-x.coords, y.coords)
    nw = np.linalg.norm(w)
    if nw < COINCIDENCE_EPS:
        raise GeometryError("log_map requires distinct points")
    length = 2.0 * np.arctanh(min(nw, 1.0 - INTERIOR_EPS)) / k.lam
    scale = length * k.lam * (1.0 - np.dot(x.coords, x.coords)) / 2.0
    return TangentVector(x, (w / nw) * scale)


def ray_limit(x: BallPoint, v: TangentVector) -> IdealPoint:
    """Ideal endpoint of the geodesic ray from x with initial direction v."""
    u = _ray_limit_raw(x.coords[None], v.vec[None])[0]
    if np.isnan(u[0]):
        raise GeometryError("ray direction must be nonzero")
    return IdealPoint(u)


def direction_at(x: BallPoint, target: ClosurePoint) -> np.ndarray:
    """Unit initial direction at x of the geodesic from x to target."""
    d = _direction_raw(x.coords[None], closure_coords(target)[None])[0]
    if np.isnan(d[0]):
        raise GeometryError("direction undefined: target coincides with the base point")
    return d


def angle(x: BallPoint, y: ClosurePoint, z: ClosurePoint) -> float:
    """Riemannian angle at x between the geodesics xy and xz, in [0, pi].

    The model is conformal, so this is the Euclidean angle between the two
    initial directions after translating x to the origin.
    """
    a = _angle_raw(x.coords[None], closure_coords(y)[None], closure_coords(z)[None])[0]
    if np.isnan(a):
        raise GeometryError("direction undefined: target coincides with the base point")
    return float(a)


def right_triangle_residual(k: CurvatureScale, va: BallPoint, vb: BallPoint,
                            vc: BallPoint, *, right_angle_tol: float = 1e-9) -> float:
    """Residual cosh(lam a) sin(B) - cos(A) for a right angle at vc.

    ``a`` is the side opposite va.  Exactly built right triangles keep the
    residual below 1e-9.
    """
    residual, gamma = _right_triangle_residual_raw(
        k.lam, va.coords[None], vb.coords[None], vc.coords[None])
    if not abs(gamma[0] - np.pi / 2.0) <= right_angle_tol:
        raise GeometryError(f"angle at the right-angle vertex is {gamma[0]!r}, not pi/2")
    return float(residual[0])
