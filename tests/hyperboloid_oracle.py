"""50-digit reference values computed from definitions on the hyperboloid,
for tests of the float kernels."""


def oracle_line_dist(x, u, v, lam):
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
