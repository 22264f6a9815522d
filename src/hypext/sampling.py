"""Deterministic seeded samplers used by probes, tests and the CLI."""

import numpy as np

from .model import _clamp_interior


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_boundary(rng, count: int, n: int) -> np.ndarray:
    """Uniform points on the unit sphere, rows of shape (count, n)."""
    v = rng.standard_normal((count, n))
    nrm = np.linalg.norm(v, axis=1, keepdims=True)
    # resample the (measure-zero) rows that collapsed to zero
    bad = nrm[:, 0] < 1e-12
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), n))
        nrm = np.linalg.norm(v, axis=1, keepdims=True)
        bad = nrm[:, 0] < 1e-12
    return v / nrm


def _radius_cdf_inverse(u, lam, radius, n):
    """Hyperbolic radius with density sinh^(n-1)(lam r), inverted per row."""
    if n == 2:
        top = np.cosh(lam * radius) - 1.0
        return np.arccosh(1.0 + u * top) / lam

    def mass(r):
        return (np.sinh(lam * r) * np.cosh(lam * r) / (2.0 * lam)) - r / 2.0

    target = u * mass(radius)
    lo = np.zeros_like(u)
    hi = np.full_like(u, radius)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = mass(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def sample_ball_hyperbolic(rng, count: int, n: int, lam: float, radius: float) -> np.ndarray:
    """Uniform samples (w.r.t. hyperbolic volume) in the ball of given radius;
    lam is a scalar or one curvature scale per row."""
    dirs = sample_boundary(rng, count, n)
    r_hyp = _radius_cdf_inverse(rng.uniform(size=count), lam, radius, n)
    r_euc = np.tanh(0.5 * lam * r_hyp)
    return _clamp_interior(dirs * r_euc[:, None])


def sample_ball_euclidean(rng, count: int, n: int, max_norm: float = 0.9) -> np.ndarray:
    """Uniform (Euclidean volume) samples with norm below max_norm."""
    pts = rng.uniform(-max_norm, max_norm, size=(count, n))
    bad = np.linalg.norm(pts, axis=1) >= max_norm
    while np.any(bad):
        pts[bad] = rng.uniform(-max_norm, max_norm, size=(int(bad.sum()), n))
        bad = np.linalg.norm(pts, axis=1) >= max_norm
    return pts
