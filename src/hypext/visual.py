"""Visual metrics on the ideal boundary and quasisymmetry measurement.

The representative d_x(u, v) = e^(-d(x, uv)) is used exactly (band constant
1): downstream claims are ratio and order statements, so any representative
in the band gives the same verdicts.  The scalar op routes through the
orthogonal projection; the batch evaluator uses a closed form obtained by
translating the basepoint to the origin, and the two are test-checked
against each other.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .coarse import _window_dist, orthogonal_project
from .errors import GeometryError
from .maps import BoundaryMap
from .model import (
    COINCIDENCE_EPS,
    BallPoint,
    CurvatureScale,
    IdealPoint,
    K1,
    _angle_raw,
    _mobius_add,
    closure_eq,
    geodesic_between,
    hyp_dist,
)
from .sampling import rng_from, sample_ball_hyperbolic, sample_boundary


@dataclass(frozen=True)
class VisualConfig:
    base: BallPoint
    k: CurvatureScale = K1


def visual_dist(cfg: VisualConfig, xi: IdealPoint, eta: IdealPoint) -> float:
    """e^(-d(base, geodesic xi eta)); zero exactly when xi = eta."""
    if closure_eq(xi, eta):
        return 0.0
    # canonical endpoint order keeps the value bit-exact under swapping
    if tuple(eta.direction) < tuple(xi.direction):
        xi, eta = eta, xi
    g = geodesic_between(xi, eta, cfg.k)
    foot = orthogonal_project(cfg.base, g)
    return float(np.exp(-hyp_dist(cfg.k, cfg.base, foot)))


def visual_dist_many(base_coords, lam, us, vs) -> np.ndarray:
    """Closed-form batch version of visual_dist for ideal rows us, vs.

    After translating the basepoint to the origin the distance to the
    geodesic between unit vectors w1, w2 depends only on s = <w1, w2>:
    e^(-d) = (sqrt(2) + sqrt(1-s) - sqrt(1+s)) / (sqrt(2) + sqrt(1-s) + sqrt(1+s)).
    """
    base = np.asarray(base_coords, dtype=float)
    w1 = _mobius_add(-base, np.asarray(us, dtype=float))
    w2 = _mobius_add(-base, np.asarray(vs, dtype=float))
    w1 = w1 / np.linalg.norm(w1, axis=-1, keepdims=True)
    w2 = w2 / np.linalg.norm(w2, axis=-1, keepdims=True)
    s = np.clip(np.sum(w1 * w2, axis=-1), -1.0, 1.0)
    lo = np.sqrt(1.0 - s)
    hi = np.sqrt(1.0 + s)
    base_val = (np.sqrt(2.0) + lo - hi) / (np.sqrt(2.0) + lo + hi)
    return base_val ** (1.0 / lam)


def angle_visual_probe(cfg: VisualConfig, samples: int, *, seed=0,
                       spread_radius: float = 3.0) -> np.ndarray:
    """Paired (d_x(xi, eta), angle_x(xi, eta)) rows over random basepoints
    near cfg.base and random distinct boundary pairs."""
    if samples < 1:
        raise GeometryError("probe needs a positive sample budget")
    rng = rng_from(seed)
    n = cfg.base.n
    lam = cfg.k.lam
    centers = sample_ball_hyperbolic(rng, samples, n, lam, spread_radius)
    centers = _mobius_add(cfg.base.coords, centers)
    us = sample_boundary(rng, samples, n)
    vs = sample_boundary(rng, samples, n)
    close = np.linalg.norm(us - vs, axis=1) < 1e-6
    while np.any(close):
        vs[close] = sample_boundary(rng, int(close.sum()), n)
        close = np.linalg.norm(us - vs, axis=1) < 1e-6
    return np.column_stack([visual_dist_many(centers, lam, us, vs),
                            _angle_raw(centers, us, vs)])


def _proximity_raw(p, xi, eta, x, lam, on_ray_tol=1e-6):
    """Row-wise geodesic_proximity_probe over ideal rows p, xi, eta and ball
    rows x: (d_x(xi, eta), d(x, geodesic p eta), ok).  ok is False where the
    probe would raise: two of the ideal points coincide, or x lies farther
    than on_ray_tol from the geodesic p xi."""
    def line_dist(u, v):
        return _window_dist(x, u, v, -np.inf, np.inf, lam)

    distinct = np.all([np.linalg.norm(a - b, axis=-1) > COINCIDENCE_EPS
                       for a, b in ((p, xi), (xi, eta), (p, eta))], axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = distinct & (line_dist(p, xi) <= on_ray_tol)
        return np.exp(-line_dist(xi, eta)), line_dist(p, eta), ok


def geodesic_proximity_probe(p: IdealPoint, xi: IdealPoint, eta: IdealPoint,
                             x: BallPoint, k: CurvatureScale = K1,
                             *, on_ray_tol: float = 1e-6):
    """(d_x(xi, eta), d(x, geodesic p eta)) for x on the geodesic p xi."""
    vis, dist, ok = _proximity_raw(p.direction[None], xi.direction[None],
                                   eta.direction[None], x.coords[None], k.lam, on_ray_tol)
    if not ok[0]:
        raise GeometryError("probe needs three distinct boundary points and x on the "
                            "geodesic between p and xi")
    return float(vis[0]), float(dist[0])


def _near_perpendicular_raw(x, y, xi):
    """Row-wise near_perpendicular_probe: angle_x(y, xi) and whether the row
    is admissible, angle_x(y, xi) < pi/2 and angle_y(x, xi) <= pi/2.  The
    angle is NaN, and the row inadmissible, where x and y coincide."""
    ax = _angle_raw(x, y, xi)
    return ax, (ax < np.pi / 2.0) & (_angle_raw(y, x, xi) <= np.pi / 2.0)


def near_perpendicular_probe(x: BallPoint, y: BallPoint, xi: IdealPoint,
                             k: CurvatureScale = K1) -> float:
    """angle_x(y, xi) under the admissibility preconditions.

    The admissible configurations satisfy sin(angle) >= 1 / cosh(lam d(x, y)),
    so the return value approaches pi/2 as the points merge.
    """
    ax, ok = _near_perpendicular_raw(x.coords[None], y.coords[None], xi.direction[None])
    if not ok[0]:
        raise GeometryError("probe preconditions: angle_x(y, xi) < pi/2 and angle_y(x, xi) <= pi/2")
    return float(ax[0])


# ---------------------------------------------------------------------------
# quasisymmetry clouds
# ---------------------------------------------------------------------------

QS_BINS = 32
QS_MIN_PER_BIN = 10
QS_QUANTILE = 0.99


@dataclass
class QsCloud:
    """Sampled three-point distortion data with an upper-envelope power fit."""

    pairs: np.ndarray          # columns: t, ratio
    alpha: float
    coeff: float
    map_label: str = ""
    used_bins: int = 0

    def __post_init__(self):
        if np.any(self.pairs <= 0.0):
            raise GeometryError("distortion pairs must be positive")
        if not (self.alpha > 0.0 and self.coeff > 0.0):
            raise GeometryError("fitted envelope must have positive exponent and coefficient")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "ratio"])
            for t, ratio in self.pairs:
                writer.writerow([f"{t:.12g}", f"{ratio:.12g}"])

    def fit_summary(self) -> dict:
        return {"map": self.map_label, "alpha": self.alpha, "coeff": self.coeff,
                "samples": int(self.pairs.shape[0]), "used_bins": self.used_bins}

    def fit_json(self, path=None) -> str:
        text = json.dumps(self.fit_summary(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _envelope_fit(log_t, log_ratio):
    """Upper-envelope line through per-bin high quantiles of the cloud."""
    order = np.argsort(log_t)
    log_t = log_t[order]
    log_ratio = log_ratio[order]
    edges = np.linspace(log_t[0], log_t[-1], QS_BINS + 1)
    xs, ys = [], []
    for b in range(QS_BINS):
        mask = (log_t >= edges[b]) & (log_t <= edges[b + 1] if b == QS_BINS - 1
                                      else log_t < edges[b + 1])
        if int(mask.sum()) < QS_MIN_PER_BIN:
            continue
        xs.append(np.quantile(log_t[mask], QS_QUANTILE))
        ys.append(np.quantile(log_ratio[mask], QS_QUANTILE))
    if len(xs) < 2:
        xs, ys = log_t, log_ratio
        used = 0
    else:
        used = len(xs)
        xs = np.asarray(xs)
        ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(np.exp(intercept)), used


def qs_cloud(h: BoundaryMap, cfg: VisualConfig, cfg_image: VisualConfig,
             n_triples: int, seed=0) -> QsCloud:
    """Three-point distortion cloud of h between two visual metrics.

    For random distinct boundary triples (a, b, c) records
    t = d_x(a, b) / d_x(a, c) against d_x'(ha, hb) / d_x'(ha, hc) and fits
    ratio <= C t^alpha through binned high quantiles in log-log space.
    """
    rng = rng_from(seed)
    n = cfg.base.n
    a = sample_boundary(rng, n_triples, n)
    b = sample_boundary(rng, n_triples, n)
    c = sample_boundary(rng, n_triples, n)
    bad = ((np.linalg.norm(a - b, axis=1) < 1e-6)
           | (np.linalg.norm(a - c, axis=1) < 1e-6)
           | (np.linalg.norm(b - c, axis=1) < 1e-6))
    while np.any(bad):
        count = int(bad.sum())
        b[bad] = sample_boundary(rng, count, n)
        c[bad] = sample_boundary(rng, count, n)
        bad = ((np.linalg.norm(a - b, axis=1) < 1e-6)
               | (np.linalg.norm(a - c, axis=1) < 1e-6)
               | (np.linalg.norm(b - c, axis=1) < 1e-6))
    lam = cfg.k.lam
    lam2 = cfg_image.k.lam
    t = (visual_dist_many(cfg.base.coords, lam, a, b)
         / visual_dist_many(cfg.base.coords, lam, a, c))
    ha, hb, hc = h.apply_raw(a), h.apply_raw(b), h.apply_raw(c)
    ratio = (visual_dist_many(cfg_image.base.coords, lam2, ha, hb)
             / visual_dist_many(cfg_image.base.coords, lam2, ha, hc))
    alpha, coeff, used = _envelope_fit(np.log(t), np.log(ratio))
    return QsCloud(pairs=np.column_stack([t, ratio]), alpha=alpha, coeff=coeff,
                   map_label=h.label(), used_bins=used)


def qs_basepoints(h: BoundaryMap, p: IdealPoint, q: IdealPoint, r: IdealPoint,
                  k: CurvatureScale = K1):
    """Matched basepoints: project r on pq, and the image of r on the image
    of pq.  The control function of the distortion cloud is then independent
    of the choice of (p, q, r)."""
    x = orthogonal_project(r, geodesic_between(p, q, k))
    hp, hq, hr = h(p), h(q), h(r)
    x_img = orthogonal_project(hr, geodesic_between(hp, hq, k))
    return x, x_img
