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
from .rational import HolomorphicForm, RationalHolomorphic, integrate_to_many

_ISOTROPY_SAMPLES = 32
_ISOTROPY_TOL = 1e-10
_GRID_RADII = 16
_GRID_ANGLES = 64
_GRAPH_MARGIN = 1e-9
_COMMON_ZERO_REL = 1e-9

MAXIMAL_GRAPH = "maximal-graph"
GENERAL = "general"


def _sample_circle(radius: float, n: int = _ISOTROPY_SAMPLES) -> np.ndarray:
    # Two interleaved rings; deterministic, stays away from the center.
    k = np.arange(n)
    r = radius * np.where(k % 2 == 0, 0.55, 0.95)
    return r * np.exp(2j * np.pi * k / n)


def _polar_grid(radius: float) -> np.ndarray:
    rr = radius * (np.arange(1, _GRID_RADII + 1) / _GRID_RADII)
    th = np.exp(2j * np.pi * np.arange(_GRID_ANGLES) / _GRID_ANGLES)
    return np.concatenate([[0.0 + 0j], np.outer(rr, th).ravel()])


@dataclass(frozen=True)
class IsotropicCurve:
    """Holomorphic triple whose ambient quadric vanishes identically."""

    psi1: HolomorphicForm
    psi2: HolomorphicForm
    psi3: HolomorphicForm
    ambient: Ambient

    def __post_init__(self):
        worst = self.isotropy_residual()
        if worst > _ISOTROPY_TOL:
            raise IsotropyError(f"sampled isotropy residual {worst:.3g} > {_ISOTROPY_TOL:g}")

    def isotropy_residual(self, n: int = _ISOTROPY_SAMPLES) -> float:
        """Max relative quadric residual over n sample points in the disk."""
        z = _sample_circle(self.radius, n)
        p1, p2, p3 = (f.density._eval(z) for f in self.forms)
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
        """Stacked psi values; shape (3,) for scalar z, (3, ...) for arrays."""
        return np.stack([f.density._eval(z) for f in self.forms])

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
            HolomorphicForm.from_obj(obj["psi1"]),
            HolomorphicForm.from_obj(obj["psi2"]),
            HolomorphicForm.from_obj(obj["psi3"]),
            Ambient(obj["ambient"]),
        )


def conjugate_curve(curve: IsotropicCurve) -> IsotropicCurve:
    """Densities of the conjugate surface: psi* = -i psi, coefficient exact."""
    a, b, c = (f.scaled(-1j) for f in curve.forms)
    return IsotropicCurve(a, b, c, curve.ambient)


@dataclass(frozen=True)
class WeierstrassData:
    """(g, dh) on a disk, with the base point and value of the immersion."""

    g: RationalHolomorphic
    dh: HolomorphicForm
    domain_radius: float
    base_point: complex = 0j
    base_value: Vec3 = Vec3(0.0, 0.0, 0.0, Ambient.LORENTZIAN)
    kind: str = MAXIMAL_GRAPH

    def __post_init__(self):
        if self.kind not in (MAXIMAL_GRAPH, GENERAL):
            raise ValueError(f"unknown kind {self.kind!r}")
        r = float(self.domain_radius)
        if not (0 < r <= min(self.g.radius, self.dh.radius)):
            raise DomainError("domain radius must fit inside both validity disks")
        if abs(self.base_point) > r:
            raise DomainError("base point outside domain disk")
        if self.base_value.ambient is not Ambient.LORENTZIAN:
            raise AmbientMismatch("base value must be a Lorentzian point")
        grid = _polar_grid(r)
        hp = np.abs(self.dh.density._eval(grid))
        if float(np.min(hp)) < _COMMON_ZERO_REL * float(np.max(hp)):
            raise CommonZeroError("dh vanishes in the domain disk (sampled)")
        if self.kind == MAXIMAL_GRAPH:
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
            "kind": self.kind,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "WeierstrassData":
        bx, by, bz = obj["base_value"]
        return cls(
            RationalHolomorphic.from_obj(obj["g"]),
            HolomorphicForm.from_obj(obj["dh"]),
            float(obj["radius"]),
            complex(obj["base"][0], obj["base"][1]),
            Vec3(bx, by, bz, Ambient.LORENTZIAN),
            obj["kind"],
        )


def _restrict(f: RationalHolomorphic, radius: float) -> RationalHolomorphic:
    return RationalHolomorphic(f.num, f.den, radius)


def build_isotropic_maximal(data: WeierstrassData) -> IsotropicCurve:
    """Isotropic triple of the Lorentzian immersion induced by (g, dh)."""
    r = data.domain_radius
    g = _restrict(data.g, r)
    hp = _restrict(data.dh.density, r)
    inv = g.reciprocal()  # PoleInDomain when g has a zero in the disk
    psi1 = 0.5 * (inv + g) * hp
    psi2 = 0.5j * (inv - g) * hp
    psi3 = -1.0 * hp
    return IsotropicCurve(
        HolomorphicForm(psi1), HolomorphicForm(psi2), HolomorphicForm(psi3), Ambient.LORENTZIAN
    )


def build_isotropic_euclidean(
    g: RationalHolomorphic, dh: HolomorphicForm, graph: bool = False
) -> IsotropicCurve:
    """Isotropic triple of the minimal immersion in E3 induced by (g, dh).

    phi1 = (1/g - g)/2 dh, phi2 = i (1/g + g)/2 dh, phi3 = dh.  With graph=True
    the sampled condition |g| != 1 (no horizontal normals) is enforced.
    """
    r = min(g.radius, dh.radius)
    gr = _restrict(g, r)
    hp = _restrict(dh.density, r)
    if graph:
        vals = np.abs(gr._eval(_polar_grid(r)))
        if float(np.min(np.abs(vals - 1.0))) < _GRAPH_MARGIN:
            raise NotSpacelike("|g| touches 1; surface is not a graph over the plane")
    inv = gr.reciprocal()
    phi1 = 0.5 * (inv - gr) * hp
    phi2 = 0.5j * (inv + gr) * hp
    phi3 = 1.0 * hp
    return IsotropicCurve(
        HolomorphicForm(phi1), HolomorphicForm(phi2), HolomorphicForm(phi3), Ambient.EUCLIDEAN
    )


@dataclass(frozen=True)
class Immersion:
    """A conformal immersion: isotropic curve plus base point and value."""

    curve: IsotropicCurve
    base_point: complex
    base_value: Vec3
    domain_radius: float

    def __post_init__(self):
        if not (0 < self.domain_radius <= self.curve.radius):
            raise DomainError("domain radius exceeds curve validity radius")
        if abs(self.base_point) > self.domain_radius:
            raise DomainError("base point outside domain disk")
        if self.base_value.ambient is not self.curve.ambient:
            raise AmbientMismatch("base value ambient does not match curve")
        object.__setattr__(self, "base_point", complex(self.base_point))

    @property
    def ambient(self) -> Ambient:
        return self.curve.ambient

    def _check_domain(self, w):
        if np.max(np.abs(w)) > self.domain_radius * (1.0 + 1e-12):
            raise DomainError("parameter outside domain disk")


def immersion_from_data(data: WeierstrassData) -> Immersion:
    return Immersion(
        build_isotropic_maximal(data), data.base_point, data.base_value, data.domain_radius
    )


def integrals_at_many(im: Immersion, ws) -> np.ndarray:
    """Component integrals int_{w0}^{w} psi for an array of parameters; (N, 3)."""
    ws = np.asarray(ws, dtype=complex).ravel()
    im._check_domain(ws) if ws.size else None
    cols = [integrate_to_many(f, im.base_point, ws) for f in im.curve.forms]
    return np.stack(cols, axis=-1)


def immerse(im: Immersion, w: complex) -> Vec3:
    """X(w) = base_value + Re int psi."""
    vals = im.base_value.as_array() + integrals_at_many(im, [w])[0].real
    return Vec3(*vals, im.ambient)


def conjugate_immersion(im: Immersion) -> Immersion:
    """The conjugate as an immersion in its own right (base value 0)."""
    zero = Vec3(0.0, 0.0, 0.0, im.ambient)
    return Immersion(conjugate_curve(im.curve), im.base_point, zero, im.domain_radius)


def differential(im: Immersion, w: complex) -> tuple[Vec3, Vec3]:
    """(X_u, X_v) at w, from the densities: X_u = Re psi, X_v = -Im psi."""
    im._check_domain(w)
    psi = im.curve.densities_at(complex(w))
    xu = Vec3(*psi.real, im.ambient)
    xv = Vec3(*(-psi.imag), im.ambient)
    return xu, xv


def gauss_map(data: WeierstrassData, w: complex) -> Vec3:
    """Hyperboloid Gauss map N(w) = stereo_inv(g(w)); upper sheet for |g| > 1."""
    if abs(w) > data.domain_radius * (1.0 + 1e-12):
        raise DomainError("parameter outside domain disk")
    return stereo_inv(complex(data.g._eval(complex(w))))


def _half_forms(data: WeierstrassData) -> tuple[HolomorphicForm, HolomorphicForm]:
    r = data.domain_radius
    g = _restrict(data.g, r)
    hp = _restrict(data.dh.density, r)
    return HolomorphicForm(-0.5 * (g * hp)), HolomorphicForm(0.5 * (g.reciprocal() * hp))


def sigma_tau(data: WeierstrassData, w: complex) -> tuple[complex, complex]:
    """The primitive pair (sigma, tau) integrated from the base point."""
    s, t = (complex(integrate_to_many(f, data.base_point, w)) for f in _half_forms(data))
    return s, t


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


def projection_identities(data: WeierstrassData, w: complex) -> ProjectionIdentities:
    """Compare pi(X) - pi(X(w0)) with conj(tau) - sigma, and the conjugate
    projection with i(conj(tau) + sigma)."""
    im = immersion_from_data(data)
    ints = integrals_at_many(im, [w])[0]
    pi_x = complex(ints[0].real, ints[1].real)
    pi_star = complex(ints[0].imag, ints[1].imag)
    s, t = sigma_tau(data, complex(w))
    return ProjectionIdentities(pi_x, pi_star, np.conj(t) - s, 1j * (np.conj(t) + s))
