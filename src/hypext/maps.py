"""Built-in boundary-map and interior-map families.

Boundary maps act on the unit sphere; interior maps act on the ball and each
carries declared quasiisometry constants (L, A) plus the boundary map it
induces.  Warp families are meridian warps about an axis u: the polar angle
from u is moved by theta -> theta + a sin(k theta), which is a sphere
diffeomorphism for integer k >= 1 and |a k| < 1, restricts to the classic
circle warp on any plane containing the axis, and fixes +-u.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .model import (
    BallPoint,
    CurvatureScale,
    IdealPoint,
    K1,
    MobiusIsometry,
    _clamp_interior,
    _mobius_add,
)


def _axis_vector(n: int, which: str) -> np.ndarray:
    v = np.zeros(n)
    v[0 if which == "first" else n - 1] = 1.0
    return v


def _meridian_warp(us, axis, amp, freq):
    """Warp the polar angle from ``axis`` by theta + amp sin(freq theta)."""
    us = np.asarray(us, dtype=float)
    ca = np.clip(us @ axis, -1.0, 1.0)
    theta = np.arccos(ca)
    perp = us - ca[..., None] * axis
    pn = np.linalg.norm(perp, axis=-1)
    theta2 = theta + amp * np.sin(freq * theta)
    safe = np.maximum(pn, 1e-300)
    out = (np.cos(theta2)[..., None] * axis
           + (np.sin(theta2) / safe)[..., None] * perp)
    # poles are fixed points of the warp
    pole = pn < 1e-13
    if np.any(pole):
        out = np.where(pole[..., None], us, out)
    scale = np.maximum(np.linalg.norm(out, axis=-1, keepdims=True), 1e-300)
    return out / scale


def _warp_bilipschitz(amp, freq):
    ak = abs(amp * freq)
    return max(1.0 + ak, 1.0 / (1.0 - ak))


def _check_warp_params(amp, freq):
    if int(freq) != freq or freq < 1:
        raise GeometryError("warp frequency must be a positive integer")
    if abs(amp * freq) >= 1.0:
        raise GeometryError("warp needs |amp * freq| < 1 to stay a diffeomorphism")


@dataclass(frozen=True)
class BoundaryMap:
    """Named boundary-sphere homeomorphism with declared control constants."""

    family: str
    n: int
    declared_L: float
    declared_A: float
    params: dict = field(default_factory=dict)

    def apply_raw(self, us):
        us = np.asarray(us, dtype=float)
        fam = self.family
        if fam == "identity":
            return us.copy()
        if fam == "mobius_boundary":
            return self.params["iso"].apply_ideal_raw(us)
        if fam in ("angle_warp", "latitude_warp"):
            return _meridian_warp(us, self.params["axis"],
                                  self.params["amp"], self.params["freq"])
        if fam == "composite":
            for part in self.params["parts"]:
                us = part.apply_raw(us)
            return us
        raise GeometryError(f"unknown boundary family {fam!r}")

    def __call__(self, p: IdealPoint) -> IdealPoint:
        return IdealPoint(self.apply_raw(p.direction[None, :])[0])

    def label(self) -> str:
        if self.family in ("angle_warp", "latitude_warp"):
            return f"{self.family}({self.params['amp']},{self.params['freq']})"
        if self.family == "composite":
            return "composite(" + ",".join(p.label() for p in self.params["parts"]) + ")"
        return self.family


def identity_map(n: int = 2) -> BoundaryMap:
    return BoundaryMap("identity", n, 1.0, 0.0)


def mobius_boundary(iso: MobiusIsometry) -> BoundaryMap:
    return BoundaryMap("mobius_boundary", iso.n, 1.0, 0.0, {"iso": iso})


def angle_warp(amp: float, freq: int, n: int = 2) -> BoundaryMap:
    _check_warp_params(amp, freq)
    return BoundaryMap("angle_warp", n, _warp_bilipschitz(amp, freq), 0.0,
                       {"amp": float(amp), "freq": int(freq),
                        "axis": _axis_vector(n, "first")})


def latitude_warp(amp: float, freq: int, n: int = 2) -> BoundaryMap:
    _check_warp_params(amp, freq)
    return BoundaryMap("latitude_warp", n, _warp_bilipschitz(amp, freq), 0.0,
                       {"amp": float(amp), "freq": int(freq),
                        "axis": _axis_vector(n, "last")})


def composite(parts) -> BoundaryMap:
    parts = tuple(parts)
    if not parts:
        raise GeometryError("composite needs at least one part")
    n = parts[0].n
    lip = 1.0
    slack = 0.0
    for p in parts:
        if p.n != n:
            raise GeometryError("composite parts must share a dimension")
        slack = p.declared_L * slack + p.declared_A
        lip *= p.declared_L
    return BoundaryMap("composite", n, lip, slack, {"parts": parts})


# ---------------------------------------------------------------------------
# interior maps
# ---------------------------------------------------------------------------

def _jitter_scale(pts):
    """Smooth field in [-1, 1] steering the jitter amplitude."""
    s = np.sin(3.0 * pts[..., 0] + 1.0) * np.cos(2.0 * pts[..., 1] - 1.0)
    if pts.shape[-1] == 3:
        s = s * np.cos(2.0 * pts[..., 2])
    return s


def _jitter_direction(pts):
    d = np.empty_like(pts)
    d[..., 0] = 2.0 + np.cos(2.0 * pts[..., 1])
    d[..., 1] = np.sin(3.0 * pts[..., 0])
    if pts.shape[-1] == 3:
        d[..., 2] = np.cos(pts[..., 0] + pts[..., 1])
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


@dataclass(frozen=True)
class InteriorMap:
    """Named quasiisometry of the ball with declared constants (L, A)."""

    family: str
    n: int
    declared_L: float
    declared_A: float
    params: dict = field(default_factory=dict)

    def apply_raw(self, pts):
        pts = np.asarray(pts, dtype=float)
        fam = self.family
        if fam == "mobius":
            return self.params["iso"].apply_interior_raw(pts)
        if fam == "polar_warp":
            r = np.linalg.norm(pts, axis=-1, keepdims=True)
            safe = np.maximum(r, 1e-300)
            warped = _meridian_warp(pts / safe, self.params["axis"],
                                    self.params["amp"], self.params["freq"])
            out = r * warped
            return np.where(r < 1e-13, pts, out)
        if fam == "jittered_isometry":
            base = self.params["iso"].apply_interior_raw(pts)
            lam = self.params["lam"]
            amp = self.params["amplitude"] * _jitter_scale(pts)
            direction = _jitter_direction(pts)
            radial = np.tanh(0.5 * lam * np.abs(amp)) * np.sign(amp)
            step = radial[..., None] * direction
            return _clamp_interior(_mobius_add(base, step))
        raise GeometryError(f"unknown interior family {fam!r}")

    def __call__(self, x: BallPoint) -> BallPoint:
        return BallPoint(self.apply_raw(x.coords[None, :])[0])

    def boundary_map(self) -> BoundaryMap:
        fam = self.family
        if fam == "mobius":
            return mobius_boundary(self.params["iso"])
        if fam == "polar_warp":
            bmap = angle_warp if self.params["axis"][0] == 1.0 else latitude_warp
            return bmap(self.params["amp"], self.params["freq"], self.n)
        if fam == "jittered_isometry":
            return mobius_boundary(self.params["iso"])
        raise GeometryError(f"unknown interior family {fam!r}")

    def label(self) -> str:
        if self.family == "polar_warp":
            return f"polar_warp({self.params['amp']},{self.params['freq']})"
        if self.family == "jittered_isometry":
            return f"jittered_isometry({self.params['amplitude']})"
        return self.family


def mobius_map(iso: MobiusIsometry) -> InteriorMap:
    return InteriorMap("mobius", iso.n, 1.0, 0.0, {"iso": iso})


def polar_warp(amp: float, freq: int, n: int = 2, *, axis: str = "first") -> InteriorMap:
    _check_warp_params(amp, freq)
    return InteriorMap("polar_warp", n, _warp_bilipschitz(amp, freq), 0.0,
                       {"amp": float(amp), "freq": int(freq),
                        "axis": _axis_vector(n, axis)})


def jittered_isometry(iso: MobiusIsometry, amplitude: float,
                      k: CurvatureScale = K1) -> InteriorMap:
    if not 0.0 <= amplitude <= 1.0:
        raise GeometryError("jitter amplitude must lie in [0, 1]")
    return InteriorMap("jittered_isometry", iso.n, 1.0, 2.0 * amplitude,
                       {"iso": iso, "amplitude": float(amplitude), "lam": k.lam})


def translation_along_first_axis(distance: float, n: int = 2,
                                 k: CurvatureScale = K1) -> MobiusIsometry:
    """Hyperbolic translation of the given (lam-metric) length along e1."""
    shift = np.zeros(n)
    shift[0] = np.tanh(0.5 * k.lam * distance)
    return MobiusIsometry.translation(shift)
