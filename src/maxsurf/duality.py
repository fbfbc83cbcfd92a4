"""Component-scaling duality between Euclidean and Lorentzian isotropic curves.

flat sends a Euclidean isotropic triple (phi1, phi2, phi3) to the Lorentzian
triple (phi1, phi2, -i phi3); sharp sends a Lorentzian triple (psi1, psi2,
psi3) to the Euclidean (psi1, psi2, i psi3).  Both are exact coefficient
scalings, mutually inverse, and each commutes with conjugation: scaling the
third component by -+i and then every component by -i lands on
(-i c1, -i c2, -+ i i c3) in either order.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbientMismatch
from .lorentz import Ambient
from .weierstrass import IsotropicCurve, conjugate_curve


def flat(curve: IsotropicCurve) -> IsotropicCurve:
    """E3 -> L3: multiply the third component by -i."""
    if curve.ambient is not Ambient.EUCLIDEAN:
        raise AmbientMismatch("flat expects a Euclidean curve")
    return IsotropicCurve(curve.psi1, curve.psi2, curve.psi3 * -1j, Ambient.LORENTZIAN)


def sharp(curve: IsotropicCurve) -> IsotropicCurve:
    """L3 -> E3: multiply the third component by i."""
    if curve.ambient is not Ambient.LORENTZIAN:
        raise AmbientMismatch("sharp expects a Lorentzian curve")
    return IsotropicCurve(curve.psi1, curve.psi2, curve.psi3 * 1j, Ambient.EUCLIDEAN)


def _coeff_gap(a: IsotropicCurve, b: IsotropicCurve) -> float:
    """Largest coefficient difference.  Scaling by units zeroes no coefficient and
    every form keeps at least one, so the shapes agree and no array is empty."""
    return max(float(np.max(np.abs(x - y))) for fa, fb in zip(a.forms, b.forms)
               for x, y in ((fa.num, fb.num), (fa.den, fb.den)))


def check_commutation(curve: IsotropicCurve) -> float:
    """Max coefficient discrepancy between dualize-then-conjugate and
    conjugate-then-dualize; exactly zero for the scalings used here."""
    dualize = flat if curve.ambient is Ambient.EUCLIDEAN else sharp
    return _coeff_gap(conjugate_curve(dualize(curve)), dualize(conjugate_curve(curve)))
