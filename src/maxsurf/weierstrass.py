"""Weierstrass data and conformal immersions.

A maximal surface in L3 (and a minimal surface in E3) is produced from a
meromorphic function g and a holomorphic form dh on a disk.  The triple

    psi1 = (1/g + g)/2 dh,   psi2 = i (1/g - g)/2 dh,   psi3 = -dh

is isotropic for the Lorentzian quadric (psi1^2 + psi2^2 - psi3^2 = 0) and the
immersion is recovered by X(w) = X(w0) + Re int_{w0}^{w} (psi1, psi2, psi3).
The conjugate surface is X*(w) = Im of the same integrals, pinned to 0 at w0,
with curve densities psi* = -i psi.  The Gauss map of the Lorentzian immersion
is the hyperboloid point stereo_inv(g(w)); graphs over spacelike planes have
|g| > 1 on the whole parameter disk.

For graph data anchored at w0 = 0 the horizontal projection pi = x1 + i x2
factors through two primitive integrals,

    sigma(w) = -int_0^w (g/2) dh,      tau(w) = int_0^w 1/(2g) dh,

as pi(X) = conj(tau) - sigma and pi(X*) = i (conj(tau) + sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbientMismatch,
    CommonZeroError,
    DomainError,
    IsotropyError,
    NotSpacelike,
)
from .lorentz import Ambient, Vec3, cross_lorentz, stereo_inv
from .rational import _RIM, RationalHolomorphic, _number, _rim, _zero_free, integrate_to_many

_ISOTROPY_TOL = 1e-10
_GRAPH_MARGIN = 1e-9

MAXIMAL_GRAPH = "maximal-graph"


@dataclass(frozen=True, eq=False)
class IsotropicCurve:
    """Holomorphic triple whose ambient quadric vanishes identically."""

    psi1: RationalHolomorphic
    psi2: RationalHolomorphic
    psi3: RationalHolomorphic
    ambient: Ambient

    def __post_init__(self):
        worst = self.isotropy_residual()
        if not worst <= _ISOTROPY_TOL:  # NaN when the squared densities overflow
            why = f"{worst:.3g} > {_ISOTROPY_TOL:g}" if np.isfinite(worst) else f"is not finite ({worst})"
            raise IsotropyError(f"sampled isotropy residual {why}")

    def isotropy_residual(self) -> float:
        """Max relative quadric residual over the rim (_rim, _RIM points): the
        quadric is holomorphic on the closed disk, so its largest modulus lies
        on the rim (maximum modulus)."""
        z = _rim(self.radius, _RIM)
        p1, p2, p3 = (f._eval(z) for f in self.forms)
        s = -1.0 if self.ambient is Ambient.LORENTZIAN else 1.0
        quad = p1 * p1 + p2 * p2 + s * (p3 * p3)
        scale = np.maximum(np.maximum(np.abs(p1), np.maximum(np.abs(p2), np.abs(p3))) ** 2, 1e-300)
        return float(np.max(np.abs(quad) / scale))

    @property
    def forms(self):
        return (self.psi1, self.psi2, self.psi3)

    @property
    def radius(self) -> float:
        return min(f.radius for f in self.forms)

    def densities_at(self, z) -> np.ndarray:
        """Stacked psi values, z checked in the disk; shape (3,) or (3, ...)."""
        return np.stack([f.eval(z) for f in self.forms])

    def to_obj(self) -> dict:
        return {
            "psi1": self.psi1.to_obj(),
            "psi2": self.psi2.to_obj(),
            "psi3": self.psi3.to_obj(),
            "ambient": self.ambient.value,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "IsotropicCurve":
        return cls(
            RationalHolomorphic.from_obj(obj["psi1"]),
            RationalHolomorphic.from_obj(obj["psi2"]),
            RationalHolomorphic.from_obj(obj["psi3"]),
            Ambient(obj["ambient"]),
        )


def conjugate_curve(curve: IsotropicCurve) -> IsotropicCurve:
    """Densities of the conjugate surface: psi* = -i psi, coefficient exact."""
    a, b, c = (f * -1j for f in curve.forms)
    return IsotropicCurve(a, b, c, curve.ambient)


@dataclass(frozen=True, eq=False)
class WeierstrassData:
    """(g, dh) on a disk, with the base point and value of the immersion."""

    g: RationalHolomorphic
    dh: RationalHolomorphic
    domain_radius: float
    base_point: complex = 0j
    base_value: Vec3 = Vec3(0.0, 0.0, 0.0, Ambient.LORENTZIAN)

    def __post_init__(self):
        r = float(self.domain_radius)
        if not (0 < r <= min(self.g.radius, self.dh.radius)):
            raise DomainError("domain radius must fit inside both validity disks")
        if not abs(self.base_point) <= r:  # NaN is not <= r
            raise DomainError(f"base point {self.base_point} outside domain disk")
        if self.base_value.ambient is not Ambient.LORENTZIAN:
            raise AmbientMismatch("base value must be a Lorentzian point")
        if not _zero_free(self.dh.num, r):
            raise CommonZeroError("dh vanishes in the domain disk")
        if not _zero_free(self.g.num, r):
            raise NotSpacelike("g vanishes in the domain disk; need |g| > 1")
        # g has no zero or pole on the closed disk: min |g| lies on the rim
        gmin = float(np.min(np.abs(self.g._eval(_rim(r, _RIM)))))
        if not gmin > 1.0 + _GRAPH_MARGIN:
            raise NotSpacelike(f"min |g| = {gmin:.6g} on the domain rim; need > 1")
        object.__setattr__(self, "domain_radius", r)
        object.__setattr__(self, "base_point", complex(self.base_point))

    def to_obj(self) -> dict:
        return {
            "g": self.g.to_obj(),
            "dh": self.dh.to_obj(),
            "radius": float(self.domain_radius),
            "base": [self.base_point.real, self.base_point.imag],
            "base_value": [self.base_value.x1, self.base_value.x2, self.base_value.x3],
            "kind": MAXIMAL_GRAPH,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "WeierstrassData":
        if obj["kind"] != MAXIMAL_GRAPH:
            raise ValueError(f"unknown kind {obj['kind']!r}; the only kind is {MAXIMAL_GRAPH!r}")
        for key, count in (("base", 2), ("base_value", 3)):
            if not isinstance(obj[key], list) or len(obj[key]) != count:
                raise ValueError(f"{key} must be a list of {count} numbers, got {obj[key]!r}")
        bx, by = (_number(v, "base") for v in obj["base"])
        vx, vy, vz = (_number(v, "base_value") for v in obj["base_value"])
        return cls(
            RationalHolomorphic.from_obj(obj["g"]),
            RationalHolomorphic.from_obj(obj["dh"]),
            _number(obj["radius"], "radius"),
            complex(bx, by),
            Vec3(vx, vy, vz, Ambient.LORENTZIAN),
        )


def _restrict(f: RationalHolomorphic, radius: float) -> RationalHolomorphic:
    return RationalHolomorphic(f.num, f.den, radius)


def build_isotropic_maximal(data: WeierstrassData) -> IsotropicCurve:
    """Isotropic triple of the Lorentzian immersion induced by (g, dh)."""
    r = data.domain_radius
    g = _restrict(data.g, r)
    hp = _restrict(data.dh, r)
    inv = g.reciprocal()  # PoleInDomain when g has a zero in the disk
    psi1 = 0.5 * (inv + g) * hp
    psi2 = 0.5j * (inv - g) * hp
    psi3 = -1.0 * hp
    return IsotropicCurve(psi1, psi2, psi3, Ambient.LORENTZIAN)


def build_isotropic_euclidean(
    g: RationalHolomorphic, dh: RationalHolomorphic, graph: bool = False
) -> IsotropicCurve:
    """Isotropic triple of the minimal immersion in E3 induced by (g, dh).

    phi1 = (1/g - g)/2 dh, phi2 = i (1/g + g)/2 dh, phi3 = dh.  With graph=True
    |g| != 1 (no horizontal normals) is enforced: g has no zero or pole on the
    closed disk, so |g| - 1 keeps one sign there when it keeps one sign,
    clear of _GRAPH_MARGIN, on the rim (minimum and maximum modulus).
    """
    r = min(g.radius, dh.radius)
    gr = _restrict(g, r)
    hp = _restrict(dh, r)
    if graph:
        d = np.abs(gr._eval(_rim(r, _RIM))) - 1.0
        if not (_zero_free(gr.num, r) and (np.all(d > _GRAPH_MARGIN) or np.all(d < -_GRAPH_MARGIN))):
            raise NotSpacelike("|g| meets 1 in the disk; surface is not a graph over the plane")
    inv = gr.reciprocal()
    phi1 = 0.5 * (inv - gr) * hp
    phi2 = 0.5j * (inv + gr) * hp
    phi3 = 1.0 * hp
    return IsotropicCurve(phi1, phi2, phi3, Ambient.EUCLIDEAN)


@dataclass(frozen=True)
class Immersion:
    """A conformal immersion: isotropic curve plus base point and value."""

    curve: IsotropicCurve
    base_point: complex
    base_value: Vec3

    def __post_init__(self):
        if not abs(self.base_point) <= self.domain_radius:
            raise DomainError(f"base point {self.base_point} outside domain disk")
        if self.base_value.ambient is not self.curve.ambient:
            raise AmbientMismatch("base value ambient does not match curve")
        object.__setattr__(self, "base_point", complex(self.base_point))

    @property
    def ambient(self) -> Ambient:
        return self.curve.ambient

    @property
    def domain_radius(self) -> float:
        return self.curve.radius


def immersion_from_data(data: WeierstrassData) -> Immersion:
    return Immersion(build_isotropic_maximal(data), data.base_point, data.base_value)


def integrals_at_many(im: Immersion, ws) -> np.ndarray:
    """int_{w0}^{w} (psi1, psi2, psi3) for an array of w; (N, 3)."""
    ws = np.asarray(ws, dtype=complex).ravel()
    logs = {}  # pole logarithms at ws, shared by forms with one denominator (psi1, psi2)
    cols = [integrate_to_many(f, im.base_point, ws, logs) for f in im.curve.forms]
    return np.stack(cols, axis=-1)


def immerse(im: Immersion, w) -> Vec3:
    """X(w) = base_value + Re int psi; a batch for an array of w."""
    x = im.base_value.as_array() + integrals_at_many(im, w).real
    return Vec3(*x.T.reshape((3,) + np.shape(w)), im.ambient)


def conjugate_immersion(im: Immersion) -> Immersion:
    """The conjugate as an immersion in its own right (base value 0)."""
    zero = Vec3(0.0, 0.0, 0.0, im.ambient)
    return Immersion(conjugate_curve(im.curve), im.base_point, zero)


def differential(im: Immersion, w) -> tuple[Vec3, Vec3]:
    """(X_u, X_v) at w, from the densities: X_u = Re psi, X_v = -Im psi."""
    psi = im.curve.densities_at(w)
    xu = Vec3(*psi.real, im.ambient)
    xv = Vec3(*(-psi.imag), im.ambient)
    return xu, xv


def gauss_map(data: WeierstrassData, w) -> Vec3:
    """Hyperboloid Gauss map N(w) = stereo_inv(g(w)); upper sheet for |g| > 1."""
    if np.max(np.abs(w)) > data.domain_radius * (1.0 + 1e-12):
        raise DomainError("parameter outside domain disk")
    return stereo_inv(data.g._eval(w))


def rotation_identity_check(
    im: Immersion, conj: Immersion, data: WeierstrassData, w, direction
) -> np.ndarray:
    """| N(w) x dX(a, b) - dX*(a, b) | per point, for the parameters w and the
    parameter directions (a, b) = direction (arrays shaped like w), where conj
    is conjugate_immersion(im)."""
    a, b = direction
    xu, xv = differential(im, w)
    su, sv = differential(conj, w)
    got = cross_lorentz(gauss_map(data, w), xu * a + xv * b)
    return np.linalg.norm((got - (su * a + sv * b)).as_array(), axis=0)


def half_forms(data: WeierstrassData) -> tuple[RationalHolomorphic, RationalHolomorphic]:
    """The forms -(g/2) dh and dh/(2g) whose primitives are sigma and tau."""
    r = data.domain_radius
    g = _restrict(data.g, r)
    hp = _restrict(data.dh, r)
    return -0.5 * (g * hp), 0.5 * (g.reciprocal() * hp)


def projection_residuals(
    im: Immersion, halves: tuple[RationalHolomorphic, RationalHolomorphic], ws
) -> np.ndarray:
    """Per parameter w, the larger of |pi(X) - pi(X(w0)) - (conj(tau) - sigma)|
    and |pi(X*) - i(conj(tau) + sigma)|.

    im is immersion_from_data(data) and halves is half_forms(data); build them
    once per datum, so their primitives are built once too.
    """
    ints = integrals_at_many(im, ws)
    pi_x = ints[:, 0].real + 1j * ints[:, 1].real
    pi_star = ints[:, 0].imag + 1j * ints[:, 1].imag
    s, t = (integrate_to_many(f, im.base_point, np.ravel(ws)) for f in halves)
    return np.maximum(np.abs(pi_x - (np.conj(t) - s)), np.abs(pi_star - 1j * (np.conj(t) + s)))
