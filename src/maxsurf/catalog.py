"""Built-in maximal-graph data used by the test and verification suites.

Every datum uses dh = dz on a disk with |g| > 1, anchored at 0 -> (0,0,0):
a spacelike plane (g == 2), three perturbed planes g = z + c, and one rational
example, each at domain radii 0.5 and 0.9.
"""

from __future__ import annotations

from functools import lru_cache

from .rational import RationalHolomorphic
from .weierstrass import WeierstrassData

_VALIDITY = 2.0

# g = num/den, ascending coefficients: the plane g == 2, the shifts g = z + c
# and the rational (3 + z)/(1 - z/5).
_G = {
    "plane": ([2.0], [1.0]),
    "shift2.5": ([2.5, 1.0], [1.0]),
    "shift3": ([3.0, 1.0], [1.0]),
    "shift4": ([4.0, 1.0], [1.0]),
    "rational": ([3.0, 1.0], [1.0, -0.2]),
}

_RADII = {"r05": 0.5, "r09": 0.9}


@lru_cache(maxsize=1)
def catalog() -> dict[str, WeierstrassData]:
    """Name -> datum for all ten built-in graph data."""
    out = {}
    for gname, (num, den) in _G.items():
        for rname, radius in _RADII.items():
            g = RationalHolomorphic(num, den, _VALIDITY)
            dz = RationalHolomorphic([1.0], [1.0], _VALIDITY)
            out[f"{gname}-{rname}"] = WeierstrassData(g, dz, radius)
    return out


def get(name: str) -> WeierstrassData:
    try:
        return catalog()[name]
    except KeyError:
        raise KeyError(f"unknown catalog datum {name!r}; known: {sorted(catalog())}") from None
