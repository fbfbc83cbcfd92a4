"""Vectors and the Gauss-map sphere geometry of E3 and L3."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AmbientMismatch, EquatorError

_LIGHT_BAND = 1e-12


class Ambient(Enum):
    EUCLIDEAN = "euclidean"
    LORENTZIAN = "lorentzian"


@dataclass(frozen=True)
class Vec3:
    """Point or tangent vector of E3 / L3, tagged with its ambient space.

    The components may also be float arrays of one shape: a batch of vectors,
    on which the arithmetic, inner and cross_lorentz act element-wise.
    """

    x1: float
    x2: float
    x3: float
    ambient: Ambient = Ambient.LORENTZIAN

    def __post_init__(self):
        components = (self.x1, self.x2, self.x3)
        if len({np.shape(c) for c in components}) > 1:
            raise ValueError("components of different shapes")
        for c in components:
            if not np.all(np.isfinite(c)):
                raise ValueError("non-finite component")

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    def __add__(self, other: "Vec3") -> "Vec3":
        _same_ambient(self, other)
        return Vec3(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3, self.ambient)

    def __sub__(self, other: "Vec3") -> "Vec3":
        _same_ambient(self, other)
        return Vec3(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3, self.ambient)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(s * self.x1, s * self.x2, s * self.x3, self.ambient)

    __rmul__ = __mul__


def _same_ambient(u: Vec3, v: Vec3):
    if u.ambient is not v.ambient:
        raise AmbientMismatch(f"{u.ambient.value} vs {v.ambient.value}")


def inner(u: Vec3, v: Vec3) -> float:
    """<u,v>; the x3 term carries sign -1 in the Lorentzian case."""
    _same_ambient(u, v)
    s = -1.0 if u.ambient is Ambient.LORENTZIAN else 1.0
    return u.x1 * v.x1 + u.x2 * v.x2 + s * u.x3 * v.x3


def cross_lorentz(u: Vec3, v: Vec3) -> Vec3:
    """Lorentzian vector product, oriented so that <u x v, z> = -det(u, v, z).

    With this orientation e1 x e2 = +e3, and the Gauss map N of a conformal
    spacelike immersion satisfies N x X_u = -X_v and N x X_v = X_u, i.e. the
    product rotates tangent frames the same way the conjugate surface does.
    """
    if u.ambient is not Ambient.LORENTZIAN or v.ambient is not Ambient.LORENTZIAN:
        raise AmbientMismatch("cross_lorentz requires Lorentzian operands")
    return Vec3(
        u.x3 * v.x2 - u.x2 * v.x3,
        u.x1 * v.x3 - u.x3 * v.x1,
        u.x1 * v.x2 - u.x2 * v.x1,
        Ambient.LORENTZIAN,
    )


def stereo_inv(z) -> Vec3:
    """Inverse stereographic projection onto the unit hyperboloid <x,x> = -1.

    mu^{-1}(z) = (-2 Re z, -2 Im z, |z|^2 + 1) / (|z|^2 - 1); |z| > 1 lands on
    the upper sheet x3 >= 1.  Undefined on the equator |z| = 1.  z may be an
    array; the result is then a batch.
    """
    m = abs(z)
    if np.any(abs(m - 1.0) < _LIGHT_BAND):
        raise EquatorError("|z| = 1 has no hyperboloid preimage")
    d = m**2 - 1.0
    return Vec3(-2.0 * z.real / d, -2.0 * z.imag / d, (m**2 + 1.0) / d, Ambient.LORENTZIAN)
