"""Reference geometry of the Poincare ball, written apart from hypext.

The benchmark builds its inputs and checks the program's outputs with these
formulas, so a change inside hypext cannot move both the answer and the
reference at once.  Curvature is -lam^2 with metric 2|dx| / (lam (1 - |x|^2)).
"""

import numpy as np

LN_1_SQRT2 = float(np.log1p(np.sqrt(2.0)))


def mobius_add(a, x):
    """a (+) x, the isometry taking 0 to a; valid for |x| <= 1."""
    ax = np.sum(a * x, axis=-1, keepdims=True)
    a2 = np.sum(a * a, axis=-1, keepdims=True)
    x2 = np.sum(x * x, axis=-1, keepdims=True)
    return ((1.0 + 2.0 * ax + x2) * a + (1.0 - a2) * x) / (1.0 + 2.0 * ax + a2 * x2)


def dist(lam, x, y):
    """Hyperbolic distance, as 2 asinh(|x - y| / sqrt((1-|x|^2)(1-|y|^2))) / lam."""
    num = np.linalg.norm(x - y, axis=-1)
    den = np.sqrt((1.0 - np.sum(x * x, axis=-1)) * (1.0 - np.sum(y * y, axis=-1)))
    return 2.0 * np.arcsinh(num / den) / lam


def sphere(rng, count, n):
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ball(rng, count, n, lam, radius):
    """Points uniform in hyperbolic volume within the given radius of 0.

    The radial density is sinh^(n-1)(lam r); its distribution function is
    inverted in closed form for n = 2 and by bisection for n = 3.
    """
    u = rng.uniform(size=count)
    if n == 2:
        r = np.arccosh(1.0 + u * (np.cosh(lam * radius) - 1.0)) / lam
    else:
        def mass(r):
            return np.sinh(2.0 * lam * r) / (4.0 * lam) - r / 2.0
        target = u * mass(radius)
        lo, hi = np.zeros(count), np.full(count, radius)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = mass(mid) < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        r = 0.5 * (lo + hi)
    return sphere(rng, count, n) * np.tanh(0.5 * lam * r)[:, None]


def rotation(rng, n):
    """A random proper rotation (QR of a Gaussian matrix, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def isometry(rng, n, max_shift=0.7):
    """(a, R): translate by a, then rotate by R."""
    a = sphere(rng, 1, n)[0] * max_shift * rng.uniform() ** (1.0 / n)
    return a, rotation(rng, n)


def apply_isometry(g, x):
    """g(x) for interior rows; ideal rows are renormalised onto the sphere."""
    a, rot = g
    y = mobius_add(a, x) @ rot.T
    ideal = np.abs(np.linalg.norm(x, axis=-1, keepdims=True) - 1.0) < 1e-12
    return np.where(ideal, y / np.linalg.norm(y, axis=-1, keepdims=True), y)


def segment(lam, x, y, count):
    """count points evenly spaced along the geodesic segment from x to y,
    and their spacing in the lam metric."""
    w = mobius_add(-x, y)
    nw = np.linalg.norm(w, axis=-1, keepdims=True)
    length = 2.0 * np.arctanh(nw)                        # lam = 1 length
    frac = np.linspace(0.0, 1.0, count)
    radial = np.tanh(0.5 * length[..., None, :] * frac[:, None])
    pts = mobius_add(x[..., None, :], radial * (w / nw)[..., None, :])
    return pts, length[..., 0] / (lam * (count - 1))


def busemann_param(lam, pts, a, b):
    """ln(|pts - a| / |pts - b|) / lam.

    For a geodesic from the ideal point a to the ideal point b, this equals
    the arc-length parameter, up to one additive constant, both of ideal
    points (at their perpendicular foot) and of points on the geodesic.
    """
    return np.log(np.linalg.norm(pts - a, axis=-1)
                  / np.linalg.norm(pts - b, axis=-1)) / lam
