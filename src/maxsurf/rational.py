"""Rational holomorphic functions on certified pole-free disks.

A :class:`RationalHolomorphic` stores numerator and denominator coefficient
sequences (ascending powers, complex) together with a validity radius.
Construction certifies that the denominator has no zero in the closed disk
|z| <= radius by :func:`_zero_free`, the argument principle on _RIM points of
the rim (:func:`_rim`).  The same test certifies dh and g zero-free in
:mod:`maxsurf.weierstrass`.  All arithmetic is exact quotient arithmetic on the
coefficient level, so algebraic identities between derived quantities hold to
rounding error rather than to an approximation tolerance.

:func:`integrate_to_many` integrates f as the form f dz by its :class:`Primitive`
(polynomial part plus principal parts at the poles), built on first use,
cached on f and certified on the rim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegreeError, DomainError, FloatRangeError, PoleError, PoleInDomain, ToleranceError

# A value below _POLE_EPS times the coefficient norm sum |a_k| r^k counts as a
# zero; _RIM points sample the rim for the zero test and the modulus guards.
_POLE_EPS = 1e-14
_RIM = 512
# Poles closer to each other than _CLUSTER times their distance from the disk
# share one Laurent expansion, read off _FFT_MIN or more points on a circle
# around them.  _CERT_DELTA bounds max |F' - f| / max |f| on the rim.
_CLUSTER = 0.1
_FFT_MIN = 64
_CERT_DELTA = 1e-10
# Primitive roots each denominator with a dense eigenproblem, O(degree^3);
# the catalog's curve forms reach degree 12.
_MAX_DEGREE = 256


def _as_coeffs(seq) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(seq, dtype=complex)).ravel()
    if arr.size == 0:
        arr = np.zeros(1, dtype=complex)
    if not np.all(np.isfinite(arr.view(float))):
        raise FloatRangeError("non-finite coefficient")
    return arr


def _number(value, what: str) -> float:
    """A number read from JSON, as a float: int or float, but not bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise FloatRangeError(f"{what} is beyond the float range") from None


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


def _padd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b on ascending coefficients, the shorter one padded with zeros."""
    out = np.zeros(max(a.size, b.size), dtype=complex)
    out[: a.size] += a
    out[: b.size] += b
    return out


def _rim(radius: float, m: int) -> np.ndarray:
    """m points radius e^(2 pi i k / m), k = 0 .. m - 1, on the circle |z| = radius."""
    return radius * np.exp(2j * np.pi * np.arange(m) / m)


def _norm(p: np.ndarray, radius: float) -> float:
    """sum |a_k| radius^k: a bound on |p| over the closed disk."""
    return float(np.sum(np.abs(p) * radius ** np.arange(p.size)))


def _zero_free(p: np.ndarray, radius: float) -> bool:
    """Whether p (ascending coefficients) has no zero in |z| <= radius, by the argument
    principle: the mean of z p'/p over _RIM rim points counts the zeros inside, and must
    be below 0.4.  A rim value below _POLE_EPS times the norm counts as a zero, as does p = 0."""
    z = _rim(radius, _RIM)
    v = _horner(p, z)
    if not np.min(np.abs(v)) > _POLE_EPS * _norm(p, radius):
        return False
    return bool(abs(np.mean(_horner(_deriv_coeffs(p), z) / v * z)) < 0.4)


@dataclass(frozen=True, eq=False)
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
        degree = max(num.size, den.size) - 1
        if degree > _MAX_DEGREE:
            raise DegreeError(f"degree {degree} exceeds the cap of {_MAX_DEGREE}")
        if den.size > 1 and not _zero_free(den, self.radius):
            raise PoleInDomain(f"denominator has a zero in |z| <= {self.radius:g}")
        num.setflags(write=False)
        den.setflags(write=False)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "radius", float(self.radius))

    # ---- evaluation ----

    @cached_property
    def _den_norm(self) -> float:
        return _norm(self.den, self.radius)

    def _eval(self, z):
        q = _horner(self.den, z)
        if np.min(np.abs(q)) < _POLE_EPS * self._den_norm:
            raise PoleError("denominator below 1e-14 of its coefficient norm at evaluation point")
        return _horner(self.num, z) / q

    def eval(self, z):
        """Evaluate at a point (or array of points) inside the disk."""
        zmax = np.max(np.abs(z))
        if not zmax <= self.radius * (1.0 + 1e-12):  # a NaN point fails too
            raise DomainError(f"|z| = {zmax:g} exceeds validity radius {self.radius:g}")
        return self._eval(z)

    # ---- exact coefficient arithmetic ----

    def __add__(self, other):
        other = _coerce(other, self.radius)
        r = min(self.radius, other.radius)
        if np.array_equal(self.den, other.den):
            return RationalHolomorphic(_padd(self.num, other.num), self.den, r)
        a = np.convolve(self.num, other.den)
        b = np.convolve(other.num, self.den)
        return RationalHolomorphic(_padd(a, b), np.convolve(self.den, other.den), r)

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
        return RationalHolomorphic(_padd(pd, -qd), np.convolve(self.den, self.den), self.radius)

    @cached_property
    def primitive(self) -> "Primitive":
        return Primitive(self)

    # ---- serialization ----

    def to_obj(self) -> dict:
        return {
            "num": [[float(c.real), float(c.imag)] for c in self.num],
            "den": [[float(c.real), float(c.imag)] for c in self.den],
            "radius": float(self.radius),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "RationalHolomorphic":
        num, den = (
            [complex(_number(re, "coefficient"), _number(im, "coefficient")) for re, im in obj[key]]
            for key in ("num", "den")
        )
        return cls(np.array(num), np.array(den), _number(obj["radius"], "radius"))

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


def _dyadic(floats) -> tuple[list[int], int]:
    """Integers m_k over one power of two s, floats[k] == m_k / s: each float is an
    integer over a power of two, and the largest clears all (Fraction arithmetic without gcd)."""
    ratios = [v.as_integer_ratio() for v in floats]
    s = max(d for _, d in ratios)
    return [m * (s // d) for m, d in ratios], s


def _shift(coeffs: np.ndarray, c: complex) -> np.ndarray:
    """Coefficients of p(c + u) in u, exact then rounded: a multiple root at c costs no
    digits near c.  Entry k carries a_k s^(n-k), s from _dyadic: the division stays integral."""
    n = len(coeffs)
    (cr, ci, *ab), s = _dyadic((c.real, c.imag, *coeffs.real, *coeffs.imag))
    a = [x * s ** (n - 1 - k % n) for k, x in enumerate(ab)]
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a[j], a[n + j] = (a[j] + cr * a[j + 1] - ci * a[n + j + 1],
                              a[n + j] + cr * a[n + j + 1] + ci * a[j + 1])
    try:
        return np.array([complex(a[k] / s ** (n - k), a[n + k] / s ** (n - k)) for k in range(n)])
    except OverflowError as e:
        raise ToleranceError(f"shifted coefficients overflow: {e}") from e


class Primitive:
    """Closed-form F with F' = f and F(0) = 0 on the disk of the density f.

    F integrates the polynomial part of f and, per cluster of poles with
    centre c, the principal part sum_k b_k (z - c)^-k: b_1 log(1 - z/c)
    (principal branch, exact because |c| exceeds the radius) and
    b_k ((z - c)^(1-k) - (-c)^(1-k)) / (1 - k).  The b_k are an FFT of f on
    a circle round the cluster (round several poles, in coefficients shifted
    exactly to c).

    Certificate: F' - f has no pole in the closed disk, so its maximum lies on
    the rim (maximum modulus).  The rim is sampled more densely for higher
    degree and nearer poles; unless max |F' - f| <= _CERT_DELTA max |f| there,
    construction raises ToleranceError.  Every segment in the disk then
    integrates to within 2 radius _CERT_DELTA max_rim |f|, plus rounding.
    """

    def __init__(self, f: RationalHolomorphic):
        num, den, radius = f.num, f.den, f.radius
        quot = np.polydiv(num[::-1], den[::-1])[0][::-1] if num.size >= den.size else np.zeros(1)
        self.poly = np.concatenate([[0], quot / np.arange(1, quot.size + 1)])
        self.laurent = []
        roots = np.roots(den[::-1])
        gaps = np.abs(roots) - radius
        near = np.abs(roots[:, None] - roots) < _CLUSTER * np.minimum.outer(gaps, gaps)
        label, prev = np.arange(roots.size), np.arange(roots.size) - 1
        while not np.array_equal(label, prev):  # connected components of near
            label, prev = np.min(np.where(near, label, label[:, None]), axis=1), label
        for k in np.flatnonzero(label == np.arange(label.size)):  # a cluster's least index labels it
            members = roots[label == k]
            c = complex(members.mean())
            rho, gap = float(np.max(np.abs(members - c))), abs(c) - radius
            if not gap > rho:
                raise ToleranceError(f"poles near {c:.6g} too close to |z| = {radius:g}")
            far = float(np.min(np.abs(roots[label != k] - c), initial=np.inf))
            r = min(gap, 0.5 * far)
            n = _FFT_MIN
            while max(rho / r, r / far) ** n > 1e-18 and n < 2**14:
                n *= 2
            # past the cluster size, terms shrink like (rho / gap)^k on the disk
            extra = np.log(2.0**-53) / np.log(rho / gap) if rho > 0 else 0.0
            order = min(members.size + int(np.ceil(extra)), n // 2)
            u = _rim(r, n)
            if members.size == 1:  # plain evaluation is accurate round a lone pole
                vals = _horner(num, c + u) / _horner(den, c + u)
            else:
                vals = _horner(_shift(num, c), u) / _horner(_shift(den, c), u)
            b = np.fft.fft(vals)[: -order - 1 : -1] / n * r ** np.arange(1.0, order + 1)
            self.laurent.append((c, b))
        # rim samples: more for higher degree and for poles nearer the rim
        m = max(256, 16 * (num.size + den.size), 16 * np.pi * radius / np.min(gaps, initial=np.inf))
        m = int(min(m, 2**16))
        z = _rim(radius, m)
        fz = f._eval(z)
        dF = _horner(quot, z)
        for c, b in self.laurent:
            dF = dF + _horner(np.concatenate([[0], b]), 1.0 / (z - c))
        self.defect = float(np.max(np.abs(dF - fz)) / np.max(np.abs(fz), initial=1e-300))
        if not self.defect <= _CERT_DELTA:
            raise ToleranceError(f"primitive certificate {self.defect:.3g} > {_CERT_DELTA:g}")

    def __call__(self, w, logs=None):
        """F(w).  logs, a dict owned by the caller, holds log(1 - w/c) per
        centre c for this w, filled on first use: forms with one denominator
        have the same centres, so they can share it."""
        logs = {} if logs is None else logs
        out = _horner(self.poly, w)
        for c, b in self.laurent:
            key = (c.real.hex(), c.imag.hex())  # exact: tells 0.0 from -0.0
            log = logs.get(key)
            if log is None:
                # log(1 - w/c); numpy's complex log1p loses digits for small |w/c|
                x = -w / c
                log = 0.5 * np.log1p(2 * x.real + np.abs(x) ** 2) + 1j * np.arctan2(x.imag, 1 + x.real)
                logs[key] = log
            out = out + b[0] * log
            for k in range(1, b.size):
                out = out - b[k] / (k * (-c) ** k) * np.expm1(-k * log)
        return out


def integrate_to_many(f: RationalHolomorphic, a, endpoints, logs=None) -> np.ndarray:
    """Integrals of f dz along the segments [a, w] for an array of endpoints w.

    The start a is one point or an array shaped like endpoints.  Evaluates f's
    cached closed-form primitive, F(w) - F(a); see Primitive for its error
    bound.  All start and end points must be finite and lie in the validity
    disk.  Calls on the same endpoints may pass one dict as logs to share the
    pole logarithms at w (see Primitive.__call__).
    """
    w = np.asarray(endpoints, dtype=complex)
    a = np.asarray(a, dtype=complex)
    r = f.radius * (1.0 + 1e-12)
    if not (np.max(np.abs(a), initial=0.0) <= r and np.max(np.abs(w), initial=0.0) <= r):
        raise DomainError("segment endpoint outside validity disk")  # or not finite
    return f.primitive(w, logs) - f.primitive(a)
