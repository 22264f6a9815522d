"""Check registry: every quantitative property the library promises, run at
configurable sample counts and reported as machine-readable records.

A check is a body declared once with ``@_check(id, anchor, seed, threshold,
direction)``, in registry order; anchor names the property catalog entry it
implements.  The harness calls ``body(cfg, rng)``, rng seeded at ``cfg.seed
+ seed`` (None for a body that seeds its library calls from cfg), times it,
and builds the CheckResult from the ``samples, measured[, ok[, detail]]``
it returns.  A row passes when measured passes its direction's gate
(max<=thr: <=, measured>thr: >, measured>=thr: >=, measured==thr: ==,
finite: isfinite) and the side conditions ok hold.  Rejection loops run
through _Sampler and report ``attempts`` and ``rejections`` by cause.  The
CLI ``verify`` command runs the whole registry; the acceptance test suite
runs the flagship checks at their full default counts.
"""

import functools
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import coarse, extension, nets, visual
from .coarse import (
    Triangle,
    comparison_report,
    orthogonal_project,
    quasicenter,
    thinness_batch,
)
from .errors import ConvergenceError, GeometryError
from .extension import (
    ExtensionConfig,
    boundary_bounds_check,
    compare_to_interior,
    continuity_modulus,
)
from .maps import (
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
from .model import (
    COINCIDENCE_EPS,
    BallPoint,
    CurvatureScale,
    IdealPoint,
    K1,
    MobiusIsometry,
    TangentVector,
    _angle_raw,
    _dist_raw,
    _exp_raw,
    _geodesic_ends_raw,
    _geodesic_point_raw,
    _mobius_add,
    _ray_limit_raw,
    _right_triangle_residual_raw,
    apply_mobius,
    exp_map,
    geodesic_between,
    hyp_dist,
    log_map,
    ray_limit,
    rotation_taking,
)
from .sampling import rng_from, sample_ball_euclidean, sample_ball_hyperbolic, sample_boundary
from .visual import VisualConfig, qs_basepoints, qs_cloud, visual_dist_many

LOG3 = float(np.log(3.0))
LN_1_SQRT2 = float(np.log(1.0 + np.sqrt(2.0)))
SQRT2_M1 = float(np.sqrt(2.0) - 1.0)
# threshold of lemma 2.4's distance bound and of its Hausdorff clause
OBTUSE_THR = LN_1_SQRT2 + 1e-3


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    samples: int
    measured: float
    threshold: float
    passed: bool
    seconds: float
    direction: str = "max<=thr"
    detail: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "samples": self.samples,
            "measured": self.measured,
            "threshold": self.threshold,
            "direction": self.direction,
            "pass": bool(self.passed),
            "seconds": round(self.seconds, 3),
            **({"detail": self.detail} if self.detail else {}),
        }


@dataclass
class VerifyConfig:
    seed: int = 7
    scale: float = 1.0

    def count(self, default: int, minimum: int = 8) -> int:
        return max(int(round(default * self.scale)), minimum)

    @property
    def low_power(self) -> bool:
        return self.scale < 1.0


# The pass gate of each direction, on (measured, threshold).
_GATES = {
    "max<=thr": lambda m, t: m <= t,
    "measured>thr": lambda m, t: m > t,
    "measured>=thr": lambda m, t: m >= t,
    "measured==thr": lambda m, t: m == t,
    "finite": lambda m, t: np.isfinite(m),
}

# What a check body returns.
_Outcome = namedtuple("_Outcome", "samples measured ok detail", defaults=(True, None))

# (id, check) pairs in declaration order.
ALL_CHECKS = []


def _check(check_id, anchor, seed, threshold, direction="max<=thr"):
    """Register the decorated body as the check check_id (see the module
    docstring) and return the check, cfg -> CheckResult."""
    gate = _GATES[direction]

    def register(body):
        @functools.wraps(body)
        def check(cfg: VerifyConfig) -> CheckResult:
            start = time.perf_counter()
            out = _Outcome(*body(cfg, None if seed is None else rng_from(cfg.seed + seed)))
            passed = bool(gate(out.measured, threshold) and out.ok)
            return CheckResult(check_id, anchor, out.samples, out.measured, threshold, passed,
                               time.perf_counter() - start, direction, out.detail or {})

        ALL_CHECKS.append((check_id, check))
        return check

    return register


def _random_rotation(rng, n):
    u = sample_boundary(rng, 1, n)[0]
    v = sample_boundary(rng, 1, n)[0]
    return rotation_taking(u, v)


def _random_isometry(rng, n, max_shift=0.7):
    shift = sample_ball_euclidean(rng, 1, n, max_shift)[0]
    return (MobiusIsometry.translation(shift)
            .then(MobiusIsometry.rotation(_random_rotation(rng, n))))


def _builtin_boundary_maps(n):
    iso = translation_along_first_axis(1.0, n)
    parts = [angle_warp(0.2, 1, n), mobius_boundary(iso)]
    return [
        identity_map(n),
        mobius_boundary(iso),
        angle_warp(0.2, 1, n),
        latitude_warp(0.15, 2, n),
        composite(parts),
    ]


def _ref_ideal(n):
    v = np.zeros(n)
    v[0] = -1.0
    return IdealPoint(v)


def _normalize_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _padded(rng, ns, sampler, *args):
    """Rows of sampler(rng, count, n, *args) in the dimensions ns, drawn one
    call per dimension and zero-padded to three coordinates.  The model's
    kernels give a padded 2-D row the same value as the 2-D row."""
    out = np.zeros((ns.size, 3))
    for n in (2, 3):
        rows = ns == n
        if np.any(rows):
            out[rows, :n] = sampler(rng, int(rows.sum()), n, *args)
    return out


# Rows drawn per block by the rejection samplers.
_BLOCK = 2048


class _Sampler:
    """Rejection sampling in blocks of up to _BLOCK rows.

    ``run(draw)`` calls draw(count) for blocks of rows; draw returns an
    array of per-row values for at most count rows (a draw may return
    fewer) and a list of (cause, mask) pairs marking the rejected rows, the
    first matching cause counting each one.  It returns the values of the
    first ``target`` accepted rows in draw order, after at most ``cap`` rows
    (100 x target by default).  Repeated runs add up, one target each:
    ``attempts`` counts the rows drawn up to and including each run's last
    accepted row, ``rejections`` their rejected rows by cause.
    """

    def __init__(self, target, cap=None):
        self.target = target
        self.cap = 100 * target if cap is None else cap
        self.made = 0
        self.attempts = 0
        self.rejections = {}

    def run(self, draw):
        kept = []
        made = attempts = 0
        while made < self.target and attempts < self.cap:
            values, causes = draw(min(_BLOCK, self.cap - attempts))
            size = len(values)
            cause = np.full(size, len(causes))
            for i, (_, mask) in reversed(list(enumerate(causes))):
                cause[mask] = i
            accepted = np.nonzero(cause == len(causes))[0][:self.target - made]
            if made + accepted.size == self.target:
                size = int(accepted[-1]) + 1
            counts = np.bincount(cause[:size], minlength=len(causes))
            for (name, _), c in zip(causes, counts):
                self.rejections[name] = self.rejections.get(name, 0) + int(c)
            kept.append(values[accepted])
            made += accepted.size
            attempts += size
        self.made += made
        self.attempts += attempts
        return np.concatenate(kept)

    def detail(self):
        return {"attempts": self.attempts, "rejections": self.rejections}


def _one_row(causes, cause=None, value=np.nan):
    """One drawn row for _Sampler.run: value, rejected by cause unless cause
    is None.  causes names every cause the draw reports, so that each run
    counts them all."""
    return np.array([value]), [(name, np.array([name == cause])) for name in causes]


def _sampled_max(target, draw):
    """The outcome of a check whose statistic is the max of the values of
    target rows accepted from draw (0 when none), with the full sample
    count as its side condition."""
    sampler = _Sampler(target)
    worst = float(np.max(sampler.run(draw), initial=0.0))
    return sampler.made, worst, sampler.made == target, sampler.detail()


def _max_of(*values):
    """Largest entry of the scalars and arrays values; NaN when any entry is
    NaN, so that a NaN statistic fails its gate (Python's max keeps its
    first argument against a NaN: max(0.0, nan) == 0.0)."""
    return float(np.max(np.concatenate([np.ravel(v) for v in values])))


def _min_of(*values):
    """Smallest entry of the scalars and arrays values; NaN when any is."""
    return float(np.min(np.concatenate([np.ravel(v) for v in values])))


# Rejection causes of a one-row draw that calls the library, by the error
# the library raises.
_ERROR_CAUSES = {GeometryError: "geometry", ConvergenceError: "convergence"}


# ---------------------------------------------------------------------------
# model checks
# ---------------------------------------------------------------------------

@_check("trig_identity", "trig_identity", seed=0, threshold=1e-9)
def check_trig_identity(cfg, rng):
    """Right-triangle identity cosh(lam a) sin B = cos A."""
    total = cfg.count(10_000, 30)
    lams = (1.0, 1.5, 2.0)
    per = total // len(lams)
    worst = 0.0
    sampler = _Sampler(per)
    for lam in lams:
        def draw(count):
            ns = rng.integers(2, 4, count)
            c = _padded(rng, ns, sample_ball_euclidean, 0.75)
            d1 = _padded(rng, ns, sample_boundary)
            d2 = _padded(rng, ns, sample_boundary)
            d2 = _normalize_rows(d2 - np.sum(d2 * d1, axis=1, keepdims=True) * d1)
            legs = rng.uniform(0.05, 2.5, (count, 2))
            conf = lam * (1.0 - np.sum(c * c, axis=1, keepdims=True)) / 2.0
            va = _exp_raw(c, d1 * legs[:, :1] * conf, lam)
            vb = _exp_raw(c, d2 * legs[:, 1:] * conf, lam)
            residual, gamma = _right_triangle_residual_raw(lam, va, vb, c)
            return residual, [("geometry", ~np.isfinite(residual)),
                                 ("not_right_angle", ~(np.abs(gamma - np.pi / 2.0) <= 1e-9))]

        worst = _max_of(worst, np.abs(sampler.run(draw)))
    # the sampler adds up its three runs, one per lam, of per samples each
    return sampler.made, worst, sampler.made == per * len(lams), sampler.detail()


@_check("metric_axioms", "model_metric", seed=1, threshold=1e-9)
def check_metric_axioms(cfg, rng):
    """Symmetry (exact) and triangle inequality on random triples."""
    total = cfg.count(10_000, 50)
    worst = 0.0
    for n in (2, 3):
        for lam in (1.0, 2.0):
            cnt = total // 4
            a = sample_ball_hyperbolic(rng, cnt, n, lam, 6.0)
            b = sample_ball_hyperbolic(rng, cnt, n, lam, 6.0)
            c = sample_ball_hyperbolic(rng, cnt, n, lam, 6.0)
            dab = _dist_raw(lam, a, b)
            dba = _dist_raw(lam, b, a)
            dac = _dist_raw(lam, a, c)
            dcb = _dist_raw(lam, c, b)
            worst = _max_of(worst, np.abs(dab - dba), dab - (dac + dcb))
    return total, worst


@_check("lambda_scaling", "model_metric", seed=2, threshold=1e-12)
def check_lambda_scaling(cfg, rng):
    """Distance at scale lam equals the reference distance divided by lam."""
    total = cfg.count(5_000, 50)
    worst = 0.0
    for n in (2, 3):
        a = sample_ball_euclidean(rng, total // 2, n, 0.95)
        b = sample_ball_euclidean(rng, total // 2, n, 0.95)
        base = _dist_raw(1.0, a, b)
        for lam in (1.5, 2.0, 3.0):
            worst = _max_of(worst, np.abs(_dist_raw(lam, a, b) * lam - base))
    return total, worst


@_check("convexity", "distance_convexity", seed=3, threshold=1e-8)
def check_convexity(cfg, rng):
    """Distance between geodesics is convex; nonincreasing when the forward
    endpoints agree."""
    trials = cfg.count(800, 12)
    causes = ("close_endpoints",)

    def draw(_):
        n = int(rng.integers(2, 4))
        lam = float(rng.choice([1.0, 2.0]))
        k = CurvatureScale(lam)
        us = sample_boundary(rng, 4, n)
        if min(np.linalg.norm(us[0] - us[1]), np.linalg.norm(us[2] - us[3])) < 1e-3:
            return _one_row(causes, "close_endpoints")
        g1 = geodesic_between(IdealPoint(us[0]), IdealPoint(us[1]), k)
        g2 = geodesic_between(IdealPoint(us[2]), IdealPoint(us[3]), k)
        t = np.sort(rng.uniform(-4.0, 4.0, 2))
        f = lambda s: float(_dist_raw(lam, g1.point_at_raw(np.asarray(s)),
                                      g2.point_at_raw(np.asarray(s))))
        mid = 0.5 * (t[0] + t[1])
        worst = f(mid) - 0.5 * (f(t[0]) + f(t[1]))
        # shared forward endpoint: distance must not increase
        g3 = geodesic_between(IdealPoint(us[2]), IdealPoint(us[1]), k)
        if np.linalg.norm(us[2] - us[1]) > 1e-3:
            s0 = float(rng.uniform(-3.0, 3.0))
            s1 = s0 + float(rng.uniform(0.1, 3.0))
            d0 = float(_dist_raw(lam, g1.point_at_raw(np.asarray(s0)),
                                 g3.point_at_raw(np.asarray(s0))))
            d1 = float(_dist_raw(lam, g1.point_at_raw(np.asarray(s1)),
                                 g3.point_at_raw(np.asarray(s1))))
            worst = _max_of(worst, d1 - d0)
        return _one_row(causes, value=worst)

    return _sampled_max(trials, draw)


@_check("exp_log_roundtrip", "exponential_map", seed=4, threshold=1e-9)
def check_exp_log_roundtrip(cfg, rng):
    trials = cfg.count(2_000, 20)
    causes = ("zero_vector",)

    def draw(_):
        n = int(rng.integers(2, 4))
        lam = float(rng.choice([1.0, 1.5, 2.0]))
        k = CurvatureScale(lam)
        x = BallPoint(sample_ball_euclidean(rng, 1, n, 0.9)[0])
        vec = rng.normal(size=n) * 0.2 * (1.0 - np.linalg.norm(x.coords))
        if np.linalg.norm(vec) < 1e-12:
            return _one_row(causes, "zero_vector")
        v = TangentVector(x, vec)
        back = log_map(x, exp_map(x, v, k), k)
        return _one_row(causes, value=_max_of(np.linalg.norm(back.vec - v.vec),
                                              abs(hyp_dist(k, x, exp_map(x, v, k))
                                                  - v.hyp_norm(k))))

    return _sampled_max(trials, draw)


@_check("ray_limit_homeo", "direction_boundary_homeo", seed=5, threshold=1e-9)
def check_ray_limit_homeo(cfg, rng):
    """Direction-to-boundary map is injective and hits a dense boundary sample."""
    trials = cfg.count(400, 8)
    causes = ("close_pair",)

    def draw(_):
        n = int(rng.integers(2, 4))
        x = BallPoint(sample_ball_euclidean(rng, 1, n, 0.9)[0])
        d1, d2 = sample_boundary(rng, 2, n)
        if np.linalg.norm(d1 - d2) < 1e-3:
            return _one_row(causes, "close_pair")
        u1 = ray_limit(x, TangentVector(x, d1))
        u2 = ray_limit(x, TangentVector(x, d2))
        collapsed = float(np.linalg.norm(u1.direction - u2.direction) < 1e-8)
        # constructive surjectivity: invert and shoot back
        target = sample_boundary(rng, 1, n)[0]
        w = _mobius_add(-x.coords, target)
        again = ray_limit(x, TangentVector(x, w / np.linalg.norm(w)))
        return _one_row(causes, value=_max_of(collapsed,
                                              np.linalg.norm(again.direction - target)))

    return _sampled_max(trials, draw)


@_check("mobius_isometry", "model_isometries", seed=6, threshold=1e-9)
def check_mobius_isometry(cfg, rng):
    trials = cfg.count(2_000, 20)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        lam = float(rng.choice([1.0, 2.0]))
        k = CurvatureScale(lam)
        iso = _random_isometry(rng, n)
        x = BallPoint(sample_ball_euclidean(rng, 1, n, 0.9)[0])
        y = BallPoint(sample_ball_euclidean(rng, 1, n, 0.9)[0])
        worst = _max_of(worst, abs(hyp_dist(k, apply_mobius(iso, x), apply_mobius(iso, y))
                                   - hyp_dist(k, x, y)))
        u = IdealPoint(sample_boundary(rng, 1, n)[0])
        worst = _max_of(worst, abs(np.linalg.norm(apply_mobius(iso, u).direction) - 1.0))
    return trials, worst


# ---------------------------------------------------------------------------
# coarse checks
# ---------------------------------------------------------------------------

def _random_triangles(rng, count, n, lam, ideal_prob=0.4, radius=5.0):
    """Vertex coordinates and ideal flags for random triangles.

    Ideal vertex pairs are kept 3e-3 apart (chordal): slivers between nearer
    ideal points live deeper than float64 can chart, so their thinness is
    not measurable honestly.  Two interior vertices are kept 1e-6 apart.  A
    row that breaks either rule is redrawn whole, with its flags kept.
    """
    flags = rng.uniform(size=(count, 3)) < ideal_prob

    def draw(rows):
        boundary = sample_boundary(rng, rows.size * 3, n).reshape(rows.size, 3, n)
        interior = sample_ball_hyperbolic(rng, rows.size * 3, n, lam,
                                          radius).reshape(rows.size, 3, n)
        return np.where(flags[rows][:, :, None], boundary, interior)

    coords = draw(np.arange(count))
    while True:
        bad = np.zeros(count, dtype=bool)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            sep = np.linalg.norm(coords[:, i] - coords[:, j], axis=1)
            both_ideal = flags[:, i] & flags[:, j]
            same_kind = flags[:, i] == flags[:, j]
            bad |= np.where(both_ideal, sep < 3e-3, same_kind & (sep < 1e-6))
        if not np.any(bad):
            return coords, flags
        coords[bad] = draw(np.nonzero(bad)[0])


@_check("delta_log3", "delta_log3", seed=10, threshold=LOG3 + 1e-3)
def check_delta_log3(cfg, rng):
    """Thinness of random (interior and truncated-ideal) triangles stays
    below the hyperbolicity constant log 3."""
    total = cfg.count(100_000, 40)
    per = total // 4
    worst = 0.0
    for lam in (1.0, 2.0):
        k = CurvatureScale(lam)
        for n in (2, 3):
            coords, flags = _random_triangles(rng, per, n, lam)
            worst = _max_of(worst, thinness_batch(coords, flags, k))
    return per * 4, worst


def _admissible_angle_config(rng, count, min_angle, ideal_prob=0.5, radius=3.0):
    """Triangles (x, y, z) seen from x at an angle >= min_angle, in
    dimensions 2 and 3 drawn per row (2-D rows pad a zero coordinate).

    Returns vertex coordinates (count, 3, 3), ideal flags (count, 3) and a
    mask of the rows whose second direction was not degenerate.
    """
    ns = rng.integers(2, 4, count)
    x = _padded(rng, ns, sample_ball_hyperbolic, 1.0, radius)
    d1 = _padded(rng, ns, sample_boundary)
    d2 = _padded(rng, ns, sample_boundary)
    d2 = d2 - np.sum(d2 * d1, axis=1, keepdims=True) * d1
    nrm = np.linalg.norm(d2, axis=1, keepdims=True)
    ok = nrm[:, 0] >= 1e-9
    d2 = d2 / np.where(ok[:, None], nrm, 1.0)
    phi = rng.uniform(min_angle, np.pi * 0.98, (count, 1))
    dirs = np.stack([d1, np.cos(phi) * d1 + np.sin(phi) * d2], axis=1)
    ideal = rng.uniform(size=(count, 2)) < ideal_prob
    reach = rng.uniform(0.3, 6.0, (count, 2, 1))
    conf = (1.0 - np.sum(x * x, axis=1))[:, None, None] / 2.0
    xs = np.repeat(x[:, None, :], 2, axis=1)
    ends = np.where(ideal[:, :, None], _ray_limit_raw(xs, dirs),
                    _exp_raw(xs, dirs * reach * conf, 1.0))
    coords = np.concatenate([x[:, None, :], ends], axis=1)
    flags = np.concatenate([np.zeros((count, 1), dtype=bool), ideal], axis=1)
    return coords, flags, ok


def _coincident(coords, flags, i, j):
    """Rows whose vertices i and j are the same closure point."""
    sep = np.linalg.norm(coords[:, i] - coords[:, j], axis=1)
    return (flags[:, i] == flags[:, j]) & (sep <= COINCIDENCE_EPS)


def _thick_base_config(rng, count, min_angle, max_angle, reach):
    """Planar rows x, y at distance drawn from the interval reach, plus a
    cone direction making the angle at x land in [min_angle, max_angle);
    the partner angle at y still needs checking."""
    x = sample_ball_hyperbolic(rng, count, 2, 1.0, 3.0)
    d = sample_boundary(rng, count, 2)
    dist = rng.uniform(*reach, (count, 1))
    conf = (1.0 - np.sum(x * x, axis=1, keepdims=True)) / 2.0
    y = _exp_raw(x, d * dist * conf, 1.0)
    side = np.where(rng.uniform(size=(count, 1)) < 0.5, 1.0, -1.0)
    w = np.stack([-d[:, 1], d[:, 0]], axis=1) * side
    alpha = rng.uniform(min_angle, max_angle, (count, 1))
    return x, y, np.cos(alpha) * d + np.sin(alpha) * w


@_check("lemma_2_1_gap", "lemma_2_1", seed=12, threshold=0.0, direction="measured>thr")
def check_lemma_2_1_gap(cfg, rng):
    """Angle sum of thick-base triangles stays boundedly below pi."""
    total = cfg.count(5_000, 30)
    floor = np.pi / 4.0

    def draw(count):
        x, y, cone = _thick_base_config(rng, count, floor, np.pi * 0.7, (1.0, 5.0))
        interior = rng.uniform(size=(count, 1)) < 0.5
        reach_z = rng.uniform(0.5, 5.0, (count, 1))
        conf = (1.0 - np.sum(x * x, axis=1, keepdims=True)) / 2.0
        zc = np.where(interior, _exp_raw(x, cone * reach_z * conf, 1.0),
                      _ray_limit_raw(x, cone))
        ax = _angle_raw(x, y, zc)
        ay = _angle_raw(y, x, zc)
        return ax + ay, [("geometry", ~np.isfinite(ax + ay)),
                         ("angle_below_floor", (ax < floor) | (ay < floor))]

    sampler = _Sampler(total)
    sums = sampler.run(draw)
    gap = np.pi - float(np.max(sums, initial=0.0))
    return (sampler.made, gap, sampler.made == total,
            {"empirical_gap": gap, **sampler.detail()})


@_check("lemma_2_2_gap", "lemma_2_2", seed=13, threshold=0.0, direction="measured>thr")
def check_lemma_2_2_gap(cfg, rng):
    """Same gap with the far vertex replaced by a shared ideal point.

    Both base angles >= 3 pi / 8 force cosh(lam d(x, y)) <= 1.344, so the
    separation floor is 0.5 here (the floor 1.0 would make the hypothesis
    set empty and the check vacuous).
    """
    total = cfg.count(5_000, 30)
    floor = 3.0 * np.pi / 8.0

    def draw(count):
        x, y, cone = _thick_base_config(rng, count, floor, 0.55 * np.pi, (0.5, 0.81))
        xi = _ray_limit_raw(x, cone)
        ay = _angle_raw(y, x, xi)
        total_angle = _angle_raw(x, y, xi) + ay
        return total_angle, [("geometry", ~np.isfinite(total_angle)),
                             ("angle_below_floor", ay < floor)]

    sampler = _Sampler(total, cap=200 * total)
    sums = sampler.run(draw)
    gap = np.pi - float(np.max(sums, initial=0.0))
    return (sampler.made, gap, sampler.made >= max(total // 4, 1),
            {"empirical_gap": gap, "separation_floor": 0.5, **sampler.detail()})


@_check("lemma_2_3_small_angle", "lemma_2_3", seed=14, threshold=0.01)
def check_lemma_2_3_small_angle(cfg, rng):
    """Visual angle of a short segment shrinks monotonically with its length."""
    pool = cfg.count(2_000, 20)
    s_grid = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1])

    def draw(count):
        ns = rng.integers(2, 4, count)
        x = _padded(rng, ns, sample_ball_hyperbolic, 1.0, 3.0)
        d = _padded(rng, ns, sample_boundary)
        zdir = _padded(rng, ns, sample_boundary)
        reach = rng.uniform(1.0, 4.0, (count, 1))
        conf = (1.0 - np.sum(x * x, axis=1, keepdims=True)) / 2.0
        z = _exp_raw(x, zdir * reach * conf, 1.0)
        frac = rng.uniform(0.2, 1.0, (count, 1))
        y = _exp_raw(x[:, None], (d * frac * conf)[:, None] * s_grid[:, None], 1.0)
        ang = _angle_raw(z[:, None], x[:, None], y)
        return ang, [("geometry", ~np.all(np.isfinite(ang), axis=1))]

    sampler = _Sampler(pool)
    ang = sampler.run(draw)
    sups = np.max(ang, axis=0, initial=0.0)
    mono_violation = float(np.max(np.maximum(sups[:-1] - sups[1:], 0.0)))
    return (sampler.made, float(sups[0]), sampler.made == pool and mono_violation <= 1e-12,
            {"sup_by_scale": dict(zip(map(float, s_grid), map(float, sups))),
             "monotonicity_violation": mono_violation, **sampler.detail()})


def _obtuse_hausdorff_sup(coords, flags):
    """Hausdorff clause of lemma 2.4 over triangles (x, y, z) at curvature -1.

    The larger of the sup over the far side yz of the distance to the nearer
    leg (that side's gap in the thinness crossing search) and the sup over
    the legs xy and zx of the distance to yz.  Distance to the convex side yz
    is convex along a leg, so each leg's sup sits at one of its window ends.
    """
    u, v, lo, hi = sides = coarse._prepare_side_data(coords, flags, 1.0, coarse.R_TRUNC)
    leg_ends = _geodesic_point_raw(u[:, [0, 0, 2, 2]], v[:, [0, 0, 2, 2]],
                                   np.stack([lo[:, 0], hi[:, 0], lo[:, 2], hi[:, 2]], 1), 1.0)
    to_far = coarse._window_dist(leg_ends, u[:, 1:2], v[:, 1:2], lo[:, 1:2], hi[:, 1:2], 1.0)
    return _max_of(coarse._side_gaps(*sides, 1.0)[:, 1], to_far)


@_check("lemma_2_4_bound", "lemma_2_4", seed=11, threshold=OBTUSE_THR)
def check_lemma_2_4_bound(cfg, rng):
    """Obtuse-or-right vertex: distance to the far side is uniformly small,
    with the symmetric ideal right angle as the extreme case."""
    total = cfg.count(10_000, 30)

    def draw(count):
        coords, flags, ok = _admissible_angle_config(rng, count, np.pi / 2.0)
        same = _coincident(coords, flags, 1, 2)
        x = coords[:, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            u, v = _geodesic_ends_raw(coords[:, 1], coords[:, 2], flags[:, 1], flags[:, 2])
            dist = coarse._window_dist(x, u, v, -np.inf, np.inf, 1.0)
        return dist, [("degenerate_frame", ~ok), ("geometry", same)]

    samples, worst, full, detail = _sampled_max(total, draw)
    # symmetric ideal attainment
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    attained = hyp_dist(K1, BallPoint([0.0, 0.0]),
                        orthogonal_project(BallPoint([0.0, 0.0]),
                                           geodesic_between(IdealPoint(e1), IdealPoint(e2))))
    att_err = abs(attained - LN_1_SQRT2)
    # Hausdorff clause on a smaller sample, in one batch
    coords, flags, ok = _admissible_angle_config(rng, cfg.count(300, 6), np.pi / 2.0)
    keep = ok & ~_coincident(coords, flags, 1, 2)
    hd_worst = _obtuse_hausdorff_sup(coords[keep], flags[keep]) if np.any(keep) else 0.0
    ok = full and att_err <= 1e-6 and hd_worst <= OBTUSE_THR
    return (samples, worst, ok,
            {"attainment_error": att_err, "hausdorff_sup": hd_worst, **detail})


@_check("quasicenter_uniqueness", "quasicenter", seed=15, threshold=1e-4)
def check_quasicenter_uniqueness(cfg, rng):
    """The closed-form quasicenter and an independent simplex descent from
    the side midpoints find the same point; the row reports the descent's
    objective evaluations and restarts."""
    trials = cfg.count(50, 5)
    work = {"descent_nfev": 0, "descent_restarts": 0}

    def draw(_):
        n = int(rng.integers(2, 4))
        coords, flags = _random_triangles(rng, 1, n, 1.0, ideal_prob=0.3, radius=3.0)
        verts = [IdealPoint(coords[0, j]) if flags[0, j] else BallPoint(coords[0, j])
                 for j in range(3)]
        try:
            tri = Triangle(*verts)
            w1, _ = quasicenter(tri, K1)
            w2, _, nfev, restarts = coarse._quasicenter_descent(tri, K1, seed=2)
        except tuple(_ERROR_CAUSES) as err:
            return _one_row(_ERROR_CAUSES.values(), _ERROR_CAUSES[type(err)])
        work["descent_nfev"] += nfev
        work["descent_restarts"] += restarts
        return _one_row(_ERROR_CAUSES.values(), value=hyp_dist(K1, w1, w2))

    samples, worst, full, detail = _sampled_max(trials, draw)
    return samples, worst, full, {**detail, **work}


@_check("comparison_angles", "comparison_triangles", seed=16, threshold=1e-8)
def check_comparison_angles(cfg, rng):
    """Measured angles match the same-curvature comparison and are bracketed
    by the reference-curvature comparison; corresponding midpoint distances
    are ordered the same way."""
    trials = cfg.count(200, 6)

    def draw(_):
        n = int(rng.integers(2, 4))
        lam = float(rng.choice([1.5, 2.0]))
        k = CurvatureScale(lam)
        pts = sample_ball_hyperbolic(rng, 3, n, lam, 3.0)
        try:
            tri = Triangle(*(BallPoint(p) for p in pts))
            rep = comparison_report(tri, k)
        except tuple(_ERROR_CAUSES) as err:
            return _one_row(_ERROR_CAUSES.values(), _ERROR_CAUSES[type(err)])
        meas, clam, cone = map(np.array, (rep.angles, rep.comparison_angles_lambda,
                                          rep.comparison_angles_one))
        worst = _max_of(np.abs(meas - clam),
                        clam - meas,       # inequality (1) lower side
                        meas - cone,       # inequality (1) upper side
                        rep.corresponding_dist_lambda - rep.corresponding_dist_actual,
                        rep.corresponding_dist_actual - rep.corresponding_dist_one)
        return _one_row(_ERROR_CAUSES.values(), value=worst)

    return _sampled_max(trials, draw)


# ---------------------------------------------------------------------------
# visual checks
# ---------------------------------------------------------------------------

@_check("lemma_2_5_bridge", "lemma_2_5", seed=20, threshold=0.0, direction="measured>thr")
def check_lemma_2_5_bridge(cfg, rng):
    """Visual distance and visual angle are small together (both directions,
    as positive monotone envelopes)."""
    per = cfg.count(10_000, 100)
    eps_grid = (0.05, 0.15, 0.5, 1.0)
    min_env = np.inf
    for lam in (1.0, 2.0):
        k = CurvatureScale(lam)
        cfgv = visual.VisualConfig(BallPoint(np.zeros(2)), k)
        table = visual.angle_visual_probe(cfgv, per, seed=int(rng.integers(0, 2**31)))
        d, a = table[:, 0], table[:, 1]
        for eps in eps_grid:
            big_angle = a >= eps
            delta1 = float(d[big_angle].min()) if np.any(big_angle) else np.inf
            delta2 = float(a[d >= eps].min()) if np.any(d >= eps) else np.inf
            min_env = _min_of(min_env, delta1, delta2)
    return per * 2, float(min_env)


@_check("lemma_2_6_proximity", "lemma_2_6", seed=21, threshold=0.0, direction="measured>thr")
def check_lemma_2_6_proximity(cfg, rng):
    """Along a ray toward xi, visual separation of (xi, eta) and distance to
    the geodesic p-eta are small together."""
    total = cfg.count(4_000, 50)
    eps_grid = (0.05, 0.15, 0.5)

    def draw(count):
        ns = rng.integers(2, 4, count)
        ends = _padded(rng, np.repeat(ns, 3), sample_boundary).reshape(count, 3, 3)
        p, xi, eta = ends[:, 0], ends[:, 1], ends[:, 2]
        close = np.zeros(count, dtype=bool)
        for a, b in ((p, xi), (p, eta), (xi, eta)):
            close |= np.linalg.norm(a - b, axis=1) < 1e-3
        x = _geodesic_point_raw(p, xi, rng.uniform(-4.0, 4.0, count), 1.0)
        vis, dist, ok = visual._proximity_raw(p, xi, eta, x, 1.0)
        return np.stack([vis, dist], axis=1), [("close_pair", close), ("geometry", ~ok)]

    sampler = _Sampler(total)
    arr = sampler.run(draw)
    min_env = np.inf
    for eps in eps_grid:
        sel = arr[:, 1] >= eps
        if np.any(sel):
            min_env = _min_of(min_env, arr[sel, 0])
        sel = arr[:, 0] >= eps
        if np.any(sel):
            min_env = _min_of(min_env, arr[sel, 1])
    return sampler.made, float(min_env), sampler.made == total, sampler.detail()


@_check("lemma_2_7_perpendicular", "lemma_2_7", seed=22, threshold=-1e-9,
        direction="measured>=thr")
def check_lemma_2_7_perpendicular(cfg, rng):
    """Admissible near pairs see the ideal point nearly perpendicularly:
    sin(angle) >= 1 / cosh(lam d(x, y))."""
    total = cfg.count(4_000, 50)

    def draw(count):
        ns = rng.integers(2, 4, count)
        lam = rng.choice([1.0, 2.0], count)
        x = np.zeros((count, 3))
        for n in (2, 3):
            rows = ns == n
            x[rows, :n] = sample_ball_hyperbolic(rng, int(rows.sum()), n, lam[rows], 3.0)
        d = _padded(rng, ns, sample_boundary)
        reach = rng.uniform(1e-3, 1.5, (count, 1))
        conf = lam[:, None] * (1.0 - np.sum(x * x, axis=1, keepdims=True)) / 2.0
        y = _exp_raw(x, d * reach * conf, lam)
        xi = _padded(rng, ns, sample_boundary)
        ang, ok = visual._near_perpendicular_raw(x, y, xi)
        margin = np.sin(ang) - 1.0 / np.cosh(lam * _dist_raw(lam, x, y))
        return margin, [("geometry", np.isnan(ang)), ("inadmissible", ~ok)]

    sampler = _Sampler(total)
    margin = sampler.run(draw)
    worst = float(np.min(margin, initial=np.inf))
    return sampler.made, worst, sampler.made == total, sampler.detail()


@_check("lemma_3_1_qs_envelope", "lemma_3_1", seed=23, threshold=0.0,
        direction="measured>=thr")
def check_qs_envelope(cfg, rng):
    """Fitted distortion-envelope exponent respects the declared constants."""
    triples = cfg.count(20_000, 500)
    margin = np.inf
    detail = {}
    for n in (2, 3):
        def ideal(vec):
            return IdealPoint(np.asarray(vec) / np.linalg.norm(vec))

        if n == 2:
            p, q, r = ideal([1, 0.2]), ideal([-1, 0.3]), ideal([0.1, -1])
        else:
            p, q, r = ideal([1, 0.2, 0.1]), ideal([-1, 0.3, -0.2]), ideal([0.1, -1, 0.2])
        for h in _builtin_boundary_maps(n):
            x, x_img = qs_basepoints(h, p, q, r, K1)
            cloud = qs_cloud(h, VisualConfig(x, K1), VisualConfig(x_img, K1),
                             triples, seed=int(rng.integers(0, 2**31)))
            floor = 1.0 / h.declared_L - 0.1
            margin = _min_of(margin, cloud.alpha - floor)
            detail[f"n{n}:{h.label()}"] = {"alpha": round(cloud.alpha, 4),
                                           "coeff": round(cloud.coeff, 4)}
    return triples, float(margin), True, detail


# ---------------------------------------------------------------------------
# extension checks
# ---------------------------------------------------------------------------

@_check("extension_identity_law", "extension_construction", seed=30, threshold=1e-9)
def check_extension_identity(cfg, rng):
    per_dim = cfg.count(1_000, 12)
    worst = 0.0
    for n in (2, 3):
        h = identity_map(n)
        ext = ExtensionConfig(p=_ref_ideal(n), m=256, refine_iters=32)
        pts = sample_ball_hyperbolic(rng, per_dim, n, 1.0, 5.0)
        image = extension._extend_batch(h, ext, pts).image
        worst = _max_of(worst, _dist_raw(1.0, image, pts))
    return 2 * per_dim, float(worst)


@_check("extension_isometry_law", "extension_construction", seed=31, threshold=1e-5)
def check_extension_isometry(cfg, rng):
    per_dim = cfg.count(1_000, 12)
    worst = 0.0
    for n in (2, 3):
        iso = translation_along_first_axis(1.0, n).then(
            MobiusIsometry.rotation(_random_rotation(rng, n)))
        h = mobius_boundary(iso)
        ext = ExtensionConfig(p=_ref_ideal(n), m=256, refine_iters=32)
        pts = sample_ball_hyperbolic(rng, per_dim, n, 1.0, 5.0)
        image = extension._extend_batch(h, ext, pts).image
        worst = _max_of(worst, _dist_raw(1.0, image, iso.apply_interior_raw(pts)))
    return 2 * per_dim, float(worst)


@_check("lemma_3_2_visual_band", "lemma_3_2", seed=32, threshold=1e-9)
def check_visual_band_source(cfg, rng):
    """d_x(beta, q_x) is exactly sqrt(2)-1 at the reference curvature."""
    per_dim = cfg.count(300, 6)
    worst = 0.0
    for n in (2, 3):
        p = _ref_ideal(n).direction
        pts = sample_ball_hyperbolic(rng, per_dim, n, 1.0, 5.0)
        vals = visual_dist_many(pts[:, None, :], 1.0, extension._equator_raw(pts, p, 64),
                                extension._q_raw(pts, p)[:, None, :])
        worst = _max_of(worst, np.abs(vals - SQRT2_M1))
    return 2 * per_dim, worst


@_check("lemma_3_3_image_band", "lemma_3_3", seed=33, threshold=0.0, direction="measured>thr")
def check_image_band(cfg, rng):
    """Image-side visual separations d_x'(h q_x, h beta) stay in (0, 1)."""
    per_map = cfg.count(100, 4)
    lo, hi = np.inf, -np.inf
    detail = {}
    for n in (2, 3):
        ext = ExtensionConfig(p=_ref_ideal(n), m=32, refine_iters=16)
        for h in _builtin_boundary_maps(n):
            pts = sample_ball_hyperbolic(rng, per_map, n, 1.0, 4.0)
            rep = boundary_bounds_check(h, ext, pts)
            lo = _min_of(lo, rep.image_min)
            hi = _max_of(hi, rep.image_max)
            detail[f"n{n}:{h.label()}"] = {"min": round(rep.image_min, 6),
                                           "max": round(rep.image_max, 6)}
    return per_map * 10, float(lo), hi < 1.0, {"image_max": float(hi), **detail}


@_check("lemma_3_4_span", "lemma_3_4", seed=34, threshold=0.2)
def check_span_bound(cfg, rng):
    """Projected equator span has a finite sup that saturates as the sampled
    ball grows from radius 4 to 6 (nested samples)."""
    per_ball = cfg.count(1_000, 12)
    worst_rel = 0.0
    detail = {}
    ext = ExtensionConfig(p=_ref_ideal(2))
    inner = sample_ball_hyperbolic(rng, per_ball, 2, 1.0, 4.0)
    shell = sample_ball_hyperbolic(rng, per_ball, 2, 1.0, 6.0)
    for h in _builtin_boundary_maps(2):
        out = extension._extend_batch(h, ext, np.concatenate([inner, shell]))
        spans = out.t_max - out.t_min
        sup4 = float(spans[:per_ball].max())
        sup6 = float(spans.max())
        rel = 0.0 if sup6 < 1e-6 else (sup6 - sup4) / sup6
        worst_rel = _max_of(worst_rel, rel)
        detail[h.label()] = {"sup_r4": float(sup4), "sup_r6": float(sup6)}
    return per_ball * 2, worst_rel, True, detail


@_check("uniform_continuity", "forward_modulus", seed=None, threshold=1e-2)
def check_uniform_continuity(cfg, rng):
    """Forward modulus of the warp extension decays below 1e-2 at eps 1e-3."""
    h = angle_warp(0.2, 1, 2)
    ext = ExtensionConfig(p=_ref_ideal(2))
    grid = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1]
    rows = continuity_modulus(h, ext, 5.0, grid,
                              n_base=cfg.count(24, 4), n_dirs=cfg.count(8, 3),
                              seed=cfg.seed + 35)
    mono = all(rows[i][1] <= rows[i + 1][1] + 1e-15 for i in range(len(rows) - 1))
    return (cfg.count(24, 4) * cfg.count(8, 3) * len(grid), float(rows[0][1]), mono,
            {"rows": [[round(v, 6) for v in r] for r in rows]})


@_check("prop_5_1_gap", "prop_5_1", seed=37, threshold=0.0, direction="measured>thr")
def check_inverse_gap(cfg, rng):
    """Sphere images keep a positive gap; points far apart on a common ray
    have far images."""
    h = angle_warp(0.2, 1, 2)
    ext = ExtensionConfig(p=_ref_ideal(2))
    grid = [1e-3, 1e-2, 1e-1, 3e-1]
    rows = continuity_modulus(h, ext, 5.0, grid,
                              n_base=cfg.count(16, 4), n_dirs=cfg.count(8, 3),
                              seed=cfg.seed + 36)
    min_delta = _min_of([r[2] for r in rows])
    trials = cfg.count(1_000, 12)
    causes = ("close_endpoints",)

    def draw(_):
        q = sample_boundary(rng, 1, 2)[0]
        if np.linalg.norm(q - ext.p.direction) < 1e-3:
            return _one_row(causes, "close_endpoints", np.zeros((2, 2)))
        g = geodesic_between(ext.p, IdealPoint(q), K1)
        t0 = float(rng.uniform(-3.0, 3.0))
        gap = float(rng.uniform(0.5, 2.0))
        return _one_row(causes, value=g.point_at_raw(np.array([t0, t0 + gap])))

    sampler = _Sampler(trials)
    pairs = sampler.run(draw)
    imgs = extension._extend_batch(h, ext, pairs.reshape(-1, 2)).image.reshape(-1, 2, 2)
    ray_gap = float(np.min(_dist_raw(1.0, imgs[:, 0], imgs[:, 1]), initial=np.inf))
    return (sampler.made, _min_of(min_delta, ray_gap), sampler.made == trials,
            {"min_sphere_gap": float(min_delta), "min_ray_gap": float(ray_gap),
             **sampler.detail()})


@_check("extension_injectivity", "extension_construction", seed=38, threshold=1e-8,
        direction="measured>=thr")
def check_extension_injectivity(cfg, rng):
    """Distinct grid points keep distinct images; image order along every
    reference ray matches the source order."""
    count = cfg.count(300, 10)
    h = angle_warp(0.2, 1, 2)
    ext = ExtensionConfig(p=_ref_ideal(2))
    pts = sample_ball_hyperbolic(rng, count, 2, 1.0, 4.0)
    imgs = extension._extend_batch(h, ext, pts).image
    src = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    dst = np.linalg.norm(imgs[:, None, :] - imgs[None, :, :], axis=-1)
    ok_pairs = src >= 1e-3
    min_img = float(np.min(np.where(ok_pairs, dst, np.inf)))
    trials = cfg.count(1_000, 12)
    causes = ("close_endpoints", "close_params")

    def draw(_):
        q = sample_boundary(rng, 1, 2)[0]
        if np.linalg.norm(q - ext.p.direction) < 1e-3:
            return _one_row(causes, "close_endpoints", np.zeros((2, 2)))
        g = geodesic_between(ext.p, IdealPoint(q), K1)
        t1, t2 = np.sort(rng.uniform(-4.0, 4.0, 2))
        if t2 - t1 < 1e-3:
            return _one_row(causes, "close_params", np.zeros((2, 2)))
        return _one_row(causes, value=g.point_at_raw(np.array([t1, t2])))

    sampler = _Sampler(trials)
    pairs = sampler.run(draw)
    # larger source parameter lies closer to q = far endpoint, so its image
    # parameter t_x (measured toward the image of p) must be smaller
    t_x = extension._extend_batch(h, ext, pairs.reshape(-1, 2)).t_max.reshape(-1, 2)
    violations = int(np.sum(~(t_x[:, 1] < t_x[:, 0])))
    return (count + sampler.made, min_img, sampler.made == trials and violations == 0,
            {"ray_order_violations": violations, **sampler.detail()})


@_check("equivariance", "extension_construction", seed=39, threshold=1e-6)
def check_equivariance(cfg, rng):
    """Post-composing with a target isometry moves the extension by that
    isometry; pre-composing with a source isometry relocates it."""
    per_map = cfg.count(40, 4)
    worst = 0.0
    for n in (2, 3):
        ext = ExtensionConfig(p=_ref_ideal(n), m=96, refine_iters=24)
        g2 = _random_isometry(rng, n)
        g1 = _random_isometry(rng, n)
        for h in (identity_map(n), angle_warp(0.2, 1, n)):
            post = composite([h, mobius_boundary(g2)])
            pre = composite([mobius_boundary(g1), h])
            pre_cfg = ExtensionConfig(
                p=IdealPoint(g1.inverse().apply_ideal_raw(ext.p.direction)),
                m=96, refine_iters=24)
            pts = sample_ball_hyperbolic(rng, per_map, n, 1.0, 3.0)
            base = extension._extend_batch(h, ext, pts).image
            post_img = extension._extend_batch(post, ext, pts).image
            pre_img = extension._extend_batch(
                pre, pre_cfg, g1.inverse().apply_interior_raw(pts)).image
            worst = _max_of(worst, _dist_raw(1.0, post_img, g2.apply_interior_raw(base)),
                            _dist_raw(1.0, pre_img, base))
    return per_map * 8, float(worst)


@_check("equator_planar_match", "extension_construction", seed=40, threshold=1e-4)
def check_equator_planar_match(cfg, rng):
    """For plane-preserving maps the sampled 3d extension agrees with the
    exact planar one."""
    count = cfg.count(60, 6)
    worst = 0.0
    iso2 = translation_along_first_axis(0.8, 2)
    iso3 = translation_along_first_axis(0.8, 3)
    pairs = [
        (identity_map(2), identity_map(3)),
        (mobius_boundary(iso2), mobius_boundary(iso3)),
        (angle_warp(0.2, 1, 2), angle_warp(0.2, 1, 3)),
    ]
    cfg2 = ExtensionConfig(p=_ref_ideal(2))
    cfg3 = ExtensionConfig(p=_ref_ideal(3), m=256, refine_iters=40)
    pts = sample_ball_hyperbolic(rng, count, 2, 1.0, 4.0)
    flat = np.zeros((count, 1))
    for h2, h3 in pairs:
        f2 = extension._extend_batch(h2, cfg2, pts).image
        f3 = extension._extend_batch(h3, cfg3, np.hstack([pts, flat])).image
        worst = _max_of(worst, _dist_raw(1.0, f3, np.hstack([f2, flat])))
    return count * 3, float(worst)


@_check("bounded_distance", "bounded_distance", seed=41, threshold=0.10)
def check_bounded_distance(cfg, rng):
    """The extension stays at bounded distance from a companion interior
    quasiisometry: saturating sup for the warp pair, tight bounds for
    isometries and jittered isometries."""
    count = cfg.count(400, 8)
    ext = ExtensionConfig(p=_ref_ideal(2))
    f_warp = polar_warp(0.2, 1, 2)
    inner = sample_ball_hyperbolic(rng, count, 2, 1.0, 3.0)
    shell = sample_ball_hyperbolic(rng, count, 2, 1.0, 6.0)
    sup3 = compare_to_interior(f_warp, ext, inner)
    sup6 = _max_of(sup3, compare_to_interior(f_warp, ext, shell))
    rel = 0.0 if sup6 == 0.0 else (sup6 - sup3) / sup6

    iso = translation_along_first_axis(1.0, 2)
    pts = sample_ball_hyperbolic(rng, cfg.count(200, 8), 2, 1.0, 4.0)
    sup_iso = compare_to_interior(mobius_map(iso), ext, pts)
    f_jit = jittered_isometry(iso, 0.3)
    sup_jit = compare_to_interior(f_jit, ext, pts, h=mobius_boundary(iso))
    return (count * 2, rel, sup_iso < 1e-5 and sup_jit <= 0.3 + 1e-5,
            {"sup_r3": float(sup3), "sup_r6": float(sup6),
             "sup_isometry": float(sup_iso), "sup_jitter": float(sup_jit)})


@_check("basepoint_sensitivity", "extension_construction", seed=42, threshold=float("inf"),
        direction="finite")
def check_basepoint_sensitivity(cfg, rng):
    count = cfg.count(100, 6)
    pts = sample_ball_hyperbolic(rng, count, 2, 1.0, 3.0)
    p1 = _ref_ideal(2)
    p2 = IdealPoint([0.0, 1.0])
    s_id = extension.basepoint_sensitivity(identity_map(2), p1, p2, pts)
    iso = translation_along_first_axis(1.0, 2)
    s_mob = extension.basepoint_sensitivity(mobius_boundary(iso), p1, p2, pts)
    s_warp = extension.basepoint_sensitivity(angle_warp(0.2, 1, 2), p1, p2, pts)
    return (count, float(s_warp), s_id < 1e-9 and s_mob < 1e-5,
            {"identity": float(s_id), "mobius": float(s_mob), "warp": float(s_warp)})


# ---------------------------------------------------------------------------
# decomposition checks
# ---------------------------------------------------------------------------

def _all_graphs_up_to(nmax):
    for verts in range(nmax + 1):
        pairs = [(i, j) for i in range(verts) for j in range(i + 1, verts)]
        for mask in range(1 << len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            yield nets.Graph.from_edges(verts, edges)


@_check("lemma_6_1_coloring", "lemma_6_1", seed=50, threshold=0.0)
def check_coloring(cfg, rng):
    """First-fit colorings are proper with at most max-degree + 1 colors:
    exhaustively on tiny graphs, then on random bounded-degree graphs."""
    worst_excess = -np.inf
    exhaustive_n = 6 if cfg.scale >= 1.0 else 5
    checked = 0
    for g in _all_graphs_up_to(exhaustive_n):
        c = nets.greedy_color(g)
        if not c.is_proper_for(g):
            worst_excess = np.inf
        worst_excess = max(worst_excess, c.n_colors - (g.max_degree + 1))
        checked += 1
    randoms = cfg.count(1_000, 20)
    for _ in range(randoms):
        verts = int(rng.integers(2, 60))
        target_deg = int(rng.integers(1, 17))
        edges = set()
        deg = [0] * verts
        for _ in range(verts * target_deg):
            u, v = rng.integers(0, verts, 2)
            if u == v or deg[u] >= target_deg or deg[v] >= target_deg:
                continue
            if (min(u, v), max(u, v)) in edges:
                continue
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
            deg[u] += 1
            deg[v] += 1
        g = nets.Graph.from_edges(verts, edges)
        c = nets.greedy_color(g)
        if not c.is_proper_for(g):
            worst_excess = np.inf
        worst_excess = max(worst_excess, c.n_colors - (g.max_degree + 1))
        checked += 1
    return checked, float(worst_excess), True, {"exhaustive_up_to": exhaustive_n}


@_check("incidence_graph", "incidence_graph", seed=None, threshold=6.0,
        direction="measured==thr")
def check_incidence(cfg, rng):
    """Tangent hyperbolic disks: the hexagonal flower has center degree 6."""
    r = 0.4
    theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    ring = np.tanh(r / 2.0) * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    petals = []
    contact = []
    for j in range(6):
        ang = np.pi * j / 3.0
        d = np.array([np.cos(ang), np.sin(ang)])
        center = np.tanh(r) * d
        tangency = np.tanh(r / 2.0) * d
        petals.append(np.vstack([_mobius_add(center, ring), tangency]))
        contact.append(tangency)
    center_set = np.vstack([ring] + contact)
    g = nets.incidence_graph([center_set] + petals, 1e-6, K1)
    degs = [len(a) for a in g.adjacency]
    return 7, float(degs[0]), all(d == 1 for d in degs[1:]), {"degrees": degs}


@_check("separated_net", "separated_net", seed=None, threshold=0.5, direction="measured>=thr")
def check_net(cfg, rng):
    """Greedy nets satisfy both net inequalities against their sample and
    are deterministic under the seed."""
    sample_count = cfg.count(4_096, 128)
    net = nets.greedy_net(3.0, 0.5, n=2, seed=cfg.seed, sample_count=sample_count)
    d = _dist_raw(1.0, net.points[:, None, :], net.points[None, :, :])
    iu = np.triu_indices(net.points.shape[0], 1)
    min_sep = float(d[iu].min()) if iu[0].size else np.inf
    again = nets.greedy_net(3.0, 0.5, n=2, seed=cfg.seed, sample_count=sample_count)
    deterministic = np.array_equal(net.points, again.points)
    singleton = nets.greedy_net(2.0, 50.0, n=2, seed=cfg.seed,
                                sample_count=max(sample_count // 4, 64))
    ok = (net.covering_radius <= 0.5 + 0.2 and deterministic
          and singleton.points.shape[0] == 1)
    return (sample_count, min_sep, ok,
            {"covering_radius": net.covering_radius, "net_size": int(net.points.shape[0])})


@_check("net_bilipschitz", "net_restriction", seed=None, threshold=0.7,
        direction="measured>=thr")
def check_net_bilipschitz(cfg, rng):
    """Quasiisometries restrict to bilipschitz maps on coarse nets."""
    sample_count = cfg.count(4_096, 128)
    iso = translation_along_first_axis(0.7, 2)
    net = nets.greedy_net(4.0, 2.0, n=2, seed=cfg.seed + 1, sample_count=sample_count)
    lo_i, hi_i = nets.net_bilipschitz_estimate(mobius_map(iso), net)
    f_jit = jittered_isometry(iso, 0.3)
    lo_j, hi_j = nets.net_bilipschitz_estimate(f_jit, net)
    f_warp = polar_warp(0.2, 1, 2)
    lo_w, hi_w = nets.net_bilipschitz_estimate(f_warp, net)
    # net separation 2 with displacement <= 0.3 forces ratios into [0.7, 1.3]
    ok = (abs(lo_i - 1.0) < 1e-9 and abs(hi_i - 1.0) < 1e-9
          and hi_j <= 1.3 + 1e-9 and lo_w > 0.0 and np.isfinite(hi_w))
    return (int(net.points.shape[0]), float(lo_j), ok,
            {"isometry": [lo_i, hi_i], "jitter": [lo_j, hi_j], "warp": [lo_w, hi_w]})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECK_IDS = [name for name, _ in ALL_CHECKS]


def run_checks(cfg: VerifyConfig, only=None) -> list:
    if only is not None:
        unknown = set(only) - set(CHECK_IDS)
        if unknown:
            raise KeyError(f"unknown check ids: {sorted(unknown)}")
    return [fn(cfg) for name, fn in ALL_CHECKS if only is None or name in only]


def report_dict(results, cfg: VerifyConfig) -> dict:
    return {
        "seed": cfg.seed,
        "scale": cfg.scale,
        "low_power": cfg.low_power,
        "passed": all(r.passed for r in results),
        "failed_ids": [r.check_id for r in results if not r.passed],
        "checks": [r.row() for r in results],
    }
