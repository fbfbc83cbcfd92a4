"""Rational holomorphic functions on certified pole-free disks.

A :class:`RationalHolomorphic` stores numerator and denominator coefficient
sequences (ascending powers, complex) together with a validity radius.
Construction certifies that the denominator has no zero in the closed disk
|z| <= radius via the argument-principle winding integral of Q'/Q around the
circle of that radius; the certificate must evaluate to 0 within 0.4 or the
value is rejected.  All arithmetic is exact quotient arithmetic on the
coefficient level, so algebraic identities between derived quantities hold to
rounding error rather than to a quadrature tolerance.

:class:`HolomorphicForm` tags a rational function as the coefficient of dz,
and :func:`integrate_to_many` integrates such a form along straight segments
with a composite 7-15 Gauss-Kronrod rule, vectorized over the segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, PoleInDomain, ToleranceError

# 15-point Kronrod abscissae/weights and the embedded 7-point Gauss weights
# (QUADPACK dqk15 constants, symmetric halves expanded to the full rule).
_XK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

XK15 = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
WK15 = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
# Gauss points sit at the odd Kronrod indices.
WG7_AT_K = np.zeros(15)
WG7_AT_K[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_POLE_EPS = 1e-14
_WINDING_SAMPLES = 512
_WINDING_BAND = 0.4


def _as_coeffs(seq) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(seq, dtype=complex)).ravel()
    if arr.size == 0:
        arr = np.zeros(1, dtype=complex)
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("non-finite coefficient")
    return arr


def _trim(arr: np.ndarray) -> np.ndarray:
    # Drop exact trailing zeros only; inexact trimming would break the
    # coefficient-level equality guarantees.
    n = arr.size
    while n > 1 and arr[n - 1] == 0:
        n -= 1
    return arr[:n]


def _horner(coeffs: np.ndarray, z):
    out = np.zeros_like(z, dtype=complex) if isinstance(z, np.ndarray) else 0j
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _deriv_coeffs(a: np.ndarray) -> np.ndarray:
    if a.size == 1:
        return np.zeros(1, dtype=complex)
    return a[1:] * np.arange(1, a.size)


def _winding_number(den: np.ndarray, radius: float) -> float:
    theta = np.linspace(0.0, 2.0 * np.pi, _WINDING_SAMPLES, endpoint=False)
    z = radius * np.exp(1j * theta)
    q = _horner(den, z)
    if np.any(np.abs(q) < _POLE_EPS):
        return np.inf
    qp = _horner(_deriv_coeffs(den), z)
    return abs(np.mean(qp / q * z))


@dataclass(frozen=True)
class RationalHolomorphic:
    """P(z)/Q(z) with Q certified zero-free on the closed disk |z| <= radius."""

    num: np.ndarray
    den: np.ndarray
    radius: float

    def __post_init__(self):
        num = _trim(_as_coeffs(self.num))
        den = _trim(_as_coeffs(self.den))
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("validity radius must be positive and finite")
        if np.all(den == 0):
            raise ZeroDivisionError("denominator identically zero")
        if den.size > 1:
            w = _winding_number(den, self.radius)
            if not w < _WINDING_BAND:
                raise PoleInDomain(
                    f"denominator winding {w:.3g} on |z| = {self.radius:g}; "
                    "zero inside the certified disk"
                )
        num.setflags(write=False)
        den.setflags(write=False)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "radius", float(self.radius))

    # ---- evaluation ----

    def _eval(self, z):
        q = _horner(self.den, z)
        if np.min(np.abs(q)) < _POLE_EPS:
            raise PoleError("denominator below 1e-14 at evaluation point")
        return _horner(self.num, z) / q

    def eval(self, z):
        """Evaluate at a point (or array of points) inside the disk."""
        zmax = np.max(np.abs(z))
        if zmax > self.radius * (1.0 + 1e-12):
            raise DomainError(f"|z| = {zmax:g} exceeds validity radius {self.radius:g}")
        return self._eval(z)

    def __call__(self, z):
        return self.eval(z)

    # ---- exact coefficient arithmetic ----

    def __add__(self, other):
        other = _coerce(other, self.radius)
        r = min(self.radius, other.radius)
        if np.array_equal(self.den, other.den):
            n = np.zeros(max(self.num.size, other.num.size), dtype=complex)
            n[: self.num.size] += self.num
            n[: other.num.size] += other.num
            return RationalHolomorphic(n, self.den, r)
        a = np.convolve(self.num, other.den)
        b = np.convolve(other.num, self.den)
        n = np.zeros(max(a.size, b.size), dtype=complex)
        n[: a.size] += a
        n[: b.size] += b
        return RationalHolomorphic(n, np.convolve(self.den, other.den), r)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RationalHolomorphic(-self.num, self.den, self.radius)

    def __sub__(self, other):
        return self.__add__(-_coerce(other, self.radius))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return RationalHolomorphic(self.num * complex(other), self.den, self.radius)
        other = _coerce(other, self.radius)
        return RationalHolomorphic(
            np.convolve(self.num, other.num),
            np.convolve(self.den, other.den),
            min(self.radius, other.radius),
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def reciprocal(self) -> "RationalHolomorphic":
        """1/f; fails with PoleInDomain if f has a zero in the disk."""
        return RationalHolomorphic(self.den, self.num, self.radius)

    def __truediv__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return RationalHolomorphic(self.num / complex(other), self.den, self.radius)
        return self.__mul__(_coerce(other, self.radius).reciprocal())

    def derivative(self) -> "RationalHolomorphic":
        """Exact quotient-rule derivative (P'Q - PQ')/Q^2."""
        if self.den.size == 1:
            return RationalHolomorphic(_deriv_coeffs(self.num) / self.den[0], np.ones(1), self.radius)
        pd = np.convolve(_deriv_coeffs(self.num), self.den)
        qd = np.convolve(self.num, _deriv_coeffs(self.den))
        n = np.zeros(max(pd.size, qd.size), dtype=complex)
        n[: pd.size] += pd
        n[: qd.size] -= qd
        return RationalHolomorphic(n, np.convolve(self.den, self.den), self.radius)

    def equivalent(self, other: "RationalHolomorphic", tol: float = 0.0) -> bool:
        """Cross-multiplication test P1*Q2 == P2*Q1 at the coefficient level."""
        a = np.convolve(self.num, other.den)
        b = np.convolve(other.num, self.den)
        n = max(a.size, b.size)
        d = np.zeros(n, dtype=complex)
        d[: a.size] += a
        d[: b.size] -= b
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
        return float(np.max(np.abs(d))) <= tol * scale

    # ---- serialization ----

    def to_obj(self) -> dict:
        return {
            "num": [[float(c.real), float(c.imag)] for c in self.num],
            "den": [[float(c.real), float(c.imag)] for c in self.den],
            "radius": float(self.radius),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "RationalHolomorphic":
        num = [complex(re, im) for re, im in obj["num"]]
        den = [complex(re, im) for re, im in obj["den"]]
        return cls(np.array(num), np.array(den), float(obj["radius"]))

    @classmethod
    def constant(cls, c, radius: float) -> "RationalHolomorphic":
        return cls(np.array([complex(c)]), np.ones(1), radius)

    @classmethod
    def polynomial(cls, coeffs, radius: float) -> "RationalHolomorphic":
        return cls(np.asarray(coeffs, dtype=complex), np.ones(1), radius)


def _coerce(value, radius: float) -> RationalHolomorphic:
    if isinstance(value, RationalHolomorphic):
        return value
    return RationalHolomorphic.constant(value, radius)


@dataclass(frozen=True)
class HolomorphicForm:
    """A holomorphic 1-form f(z) dz given by its rational density f."""

    density: RationalHolomorphic

    @property
    def radius(self) -> float:
        return self.density.radius

    def scaled(self, c) -> "HolomorphicForm":
        return HolomorphicForm(self.density * complex(c))

    def to_obj(self) -> dict:
        return self.density.to_obj()

    @classmethod
    def from_obj(cls, obj: dict) -> "HolomorphicForm":
        return cls(RationalHolomorphic.from_obj(obj))


def integrate_to_many(form: HolomorphicForm, a, endpoints, tol: float = 1e-10) -> np.ndarray:
    """Integrals of the form along the segments [a, w] for an array of endpoints w.

    The start a is one point or an array shaped like endpoints.  Composite
    G7/K15 with a panel count shared by all segments, starting at one panel
    and doubled until the worst per-segment error estimate is below tol
    (ToleranceError past 4096 panels).  All start and end points must lie in
    the validity disk.
    """
    shape = np.shape(endpoints)
    w = np.asarray(endpoints, dtype=complex).ravel()
    if w.size == 0:
        return np.zeros(shape, dtype=complex)
    a = np.broadcast_to(np.asarray(a, dtype=complex), shape).ravel()
    r = form.radius * (1.0 + 1e-12)
    if np.max(np.abs(a)) > r or np.max(np.abs(w)) > r:
        raise DomainError("segment endpoint outside validity disk")
    f = form.density._eval
    span = w - a
    m = 1
    while True:
        total = np.zeros(w.size, dtype=complex)
        err = np.zeros(w.size)
        for p in range(m):
            t0, t1 = p / m, (p + 1) / m
            tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
            tn = tm + th * XK15
            vals = f(a[:, None] + np.outer(span, tn))
            k15 = (span * th) * (vals @ WK15)
            g7 = (span * th) * (vals @ WG7_AT_K)
            total += k15
            err += np.abs(k15 - g7)
        if float(np.max(err)) <= tol:
            return total.reshape(shape)
        m *= 2
        if m > 4096:
            raise ToleranceError("panel doubling exhausted before reaching tolerance")
