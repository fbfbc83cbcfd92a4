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
from .lorentz import Ambient, Vec3, stereo_inv
from .rational import RationalHolomorphic, integrate_to_many

_ISOTROPY_SAMPLES = 32
_ISOTROPY_TOL = 1e-10
_GRID_RADII = 16
_GRID_ANGLES = 64
_GRAPH_MARGIN = 1e-9
_COMMON_ZERO_REL = 1e-9

MAXIMAL_GRAPH = "maximal-graph"


def _sample_circle(radius: float) -> np.ndarray:
    # Two interleaved rings; deterministic, stays away from the center.
    k = np.arange(_ISOTROPY_SAMPLES)
    r = radius * np.where(k % 2 == 0, 0.55, 0.95)
    return r * np.exp(2j * np.pi * k / _ISOTROPY_SAMPLES)


def _polar_grid(radius: float) -> np.ndarray:
    rr = radius * (np.arange(1, _GRID_RADII + 1) / _GRID_RADII)
    th = np.exp(2j * np.pi * np.arange(_GRID_ANGLES) / _GRID_ANGLES)
    return np.concatenate([[0.0 + 0j], np.outer(rr, th).ravel()])


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
        """Max relative quadric residual over _ISOTROPY_SAMPLES points in the disk."""
        z = _sample_circle(self.radius)
        p1, p2, p3 = (f._eval(z) for f in self.forms)
        s = -1.0 if self.ambient is Ambient.LORENTZIAN else 1.0
        quad = p1 * p1 + p2 * p2 + s * (p3 * p3)
        scale = np.maximum(
            np.max(np.stack([np.abs(p1), np.abs(p2), np.abs(p3)]), axis=0) ** 2, 1e-300
        )
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
        if abs(self.base_point) > r:
            raise DomainError("base point outside domain disk")
        if self.base_value.ambient is not Ambient.LORENTZIAN:
            raise AmbientMismatch("base value must be a Lorentzian point")
        grid = _polar_grid(r)
        hp = np.abs(self.dh._eval(grid))
        if float(np.min(hp)) < _COMMON_ZERO_REL * float(np.max(hp)):
            raise CommonZeroError("dh vanishes in the domain disk (sampled)")
        gmin = float(np.min(np.abs(self.g._eval(grid))))
        if not gmin > 1.0 + _GRAPH_MARGIN:
            raise NotSpacelike(f"min |g| = {gmin:.6g} on the domain disk; need > 1")
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
        bx, by, bz = obj["base_value"]
        return cls(
            RationalHolomorphic.from_obj(obj["g"]),
            RationalHolomorphic.from_obj(obj["dh"]),
            float(obj["radius"]),
            complex(obj["base"][0], obj["base"][1]),
            Vec3(bx, by, bz, Ambient.LORENTZIAN),
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
    the sampled condition |g| != 1 (no horizontal normals) is enforced.
    """
    r = min(g.radius, dh.radius)
    gr = _restrict(g, r)
    hp = _restrict(dh, r)
    if graph:
        vals = np.abs(gr._eval(_polar_grid(r)))
        if float(np.min(np.abs(vals - 1.0))) < _GRAPH_MARGIN:
            raise NotSpacelike("|g| touches 1; surface is not a graph over the plane")
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
        if abs(self.base_point) > self.domain_radius:
            raise DomainError("base point outside domain disk")
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


def integrals_at_many(im: Immersion, ws, components: int = 3) -> np.ndarray:
    """int_{w0}^{w} psi_k, k < components (2: the projection), for an array of w; (N, components)."""
    ws = np.asarray(ws, dtype=complex).ravel()
    logs = {}  # pole logarithms at ws, shared by forms with one denominator (psi1, psi2)
    cols = [integrate_to_many(f, im.base_point, ws, logs) for f in im.curve.forms[:components]]
    return np.stack(cols, axis=-1)


def immerse(im: Immersion, w: complex) -> Vec3:
    """X(w) = base_value + Re int psi."""
    vals = im.base_value.as_array() + integrals_at_many(im, [w])[0].real
    return Vec3(*vals, im.ambient)


def conjugate_immersion(im: Immersion) -> Immersion:
    """The conjugate as an immersion in its own right (base value 0)."""
    zero = Vec3(0.0, 0.0, 0.0, im.ambient)
    return Immersion(conjugate_curve(im.curve), im.base_point, zero)


def differential(im: Immersion, w: complex) -> tuple[Vec3, Vec3]:
    """(X_u, X_v) at w, from the densities: X_u = Re psi, X_v = -Im psi."""
    psi = im.curve.densities_at(complex(w))
    xu = Vec3(*psi.real, im.ambient)
    xv = Vec3(*(-psi.imag), im.ambient)
    return xu, xv


def gauss_map(data: WeierstrassData, w: complex) -> Vec3:
    """Hyperboloid Gauss map N(w) = stereo_inv(g(w)); upper sheet for |g| > 1."""
    if abs(w) > data.domain_radius * (1.0 + 1e-12):
        raise DomainError("parameter outside domain disk")
    return stereo_inv(complex(data.g._eval(complex(w))))


def half_forms(data: WeierstrassData) -> tuple[RationalHolomorphic, RationalHolomorphic]:
    """The forms -(g/2) dh and dh/(2g) whose primitives are sigma and tau."""
    r = data.domain_radius
    g = _restrict(data.g, r)
    hp = _restrict(data.dh, r)
    return -0.5 * (g * hp), 0.5 * (g.reciprocal() * hp)


@dataclass(frozen=True)
class ProjectionIdentities:
    """Both sides of the horizontal-projection identities at one parameter."""

    pi_x: complex
    pi_x_star: complex
    tau_conj_minus_sigma: complex
    i_tau_conj_plus_sigma: complex

    @property
    def residual(self) -> float:
        return max(
            abs(self.pi_x - self.tau_conj_minus_sigma),
            abs(self.pi_x_star - self.i_tau_conj_plus_sigma),
        )


def projection_identities(
    im: Immersion, halves: tuple[RationalHolomorphic, RationalHolomorphic], w: complex
) -> ProjectionIdentities:
    """Compare pi(X) - pi(X(w0)) with conj(tau) - sigma, and the conjugate
    projection with i(conj(tau) + sigma).

    im is immersion_from_data(data) and halves is half_forms(data); build them
    once per datum, so their primitives are built once too.
    """
    ints = integrals_at_many(im, [w])[0]
    pi_x = complex(ints[0].real, ints[1].real)
    pi_star = complex(ints[0].imag, ints[1].imag)
    s, t = (complex(integrate_to_many(f, im.base_point, complex(w))) for f in halves)
    return ProjectionIdentities(pi_x, pi_star, np.conj(t) - s, 1j * (np.conj(t) + s))
