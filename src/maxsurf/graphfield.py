"""Masked-grid scalar fields and the discrete graph dualities.

Fields live at cell centers (x0 + i h, y0 + j h), i < nx, j < ny, with a
boolean mask.  Dualization needs the mask nonempty, 4-connected and
hole-free: it checks the Euler count V - E + F = 1 of the mask's cell
complex up front, and connectivity as it integrates along a spanning tree
(the only topology checks; other fields, such as the plaquette residuals,
may have any mask).  Derivative estimates are built per grid edge: the
along-edge derivative is the exact two-point difference at the edge midpoint,
the cross derivative averages the two endpoint cells' best stencils.  Cells
use the central difference where both neighbors exist and otherwise a 5-point
one-sided rule built to share the central error expansion through h^3 (the
leading term h^2 f'''/6 and a vanishing h^3 moment), so the discretization
error stays a smooth field and plaquette divergences keep second order up to
the boundary; shorter one-sided stencils remain as fallbacks where the mask
is under five cells thick, and the residual/curl certificate is restricted
to plaquettes free of such fallbacks.

The normalized flux V = Df / sqrt(1 + |Df|^2) (minimal) or Df / sqrt(1 -
|Df|^2) (maximal) is assembled on edges, its conservative divergence lives on
plaquette centers and is the PDE residual.  The dual 1-form W is the same
edge data rotated in place (W = (-V2, V1) for minimal input, (V2, -V1) for
maximal input), so the loop circulation of W and the flux divergence of V are
evaluated by the *same* array expression: the curl certificate used before
integrating the dual equals the residual bit for bit (up to sign).

Integrating W along a deterministic spanning tree from the lowest-index
masked cell produces the dual graph function; on a simply connected mask the
vanishing of all plaquette circulations is exactly path independence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    CurlError,
    DegenerateMask,
    NotSimplyConnected,
    NotSpacelike,
    OverlapEmpty,
)

_SPACELIKE_EPS = 1e-12


def _validate_mask(mask: np.ndarray):
    # components minus holes; a second component with a hole passes here and
    # is caught by _tree_integrate's visited check
    if not mask.any():
        raise NotSimplyConnected("mask is empty")
    v = int(mask.sum())
    e = int((mask[:-1, :] & mask[1:, :]).sum()) + int((mask[:, :-1] & mask[:, 1:]).sum())
    f = int((mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]).sum())
    if v - e + f != 1:
        raise NotSimplyConnected(
            f"mask Euler count {v - e + f} != 1; region is disconnected or has holes"
        )


@dataclass(frozen=True)
class ScalarField:
    """Scalar samples on a masked uniform grid."""

    origin: tuple[float, float]
    spacing: float
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.shape != mask.shape or values.ndim != 2:
            raise ValueError("values and mask must be equal-shape 2d arrays")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("spacing must be positive")
        if not np.all(np.isfinite(values[mask])):
            raise ValueError("non-finite value on mask")
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    def xs(self) -> np.ndarray:
        return self.origin[0] + self.spacing * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.origin[1] + self.spacing * np.arange(self.ny)

    @classmethod
    def sample(cls, func, where, origin, spacing, nx, ny) -> "ScalarField":
        """Build a field from callables on the coordinate grid."""
        x = origin[0] + spacing * np.arange(nx)[:, None]
        y = origin[1] + spacing * np.arange(ny)[None, :]
        mask = np.broadcast_to(where(x, y), (nx, ny)).astype(bool)
        values = np.zeros((nx, ny))
        values[mask] = np.broadcast_to(func(x, y), (nx, ny))[mask]
        return cls(origin, spacing, values, mask)


@dataclass(frozen=True)
class VectorField2:
    """Two scalar component grids sharing one mask and grid geometry."""

    origin: tuple[float, float]
    spacing: float
    w1: np.ndarray
    w2: np.ndarray
    mask: np.ndarray

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.w1, self.w2)


def _axis_derivative(values, mask, h, axis):
    """Best per-cell derivative along an axis, with a quality grade.

    Quality 3 stencils share the central rule's error expansion through h^3:
    the 5-point one-sided rule with weights -5/2, 11/2, -5, 5/2, -1/2 has
    derivative moments (0, 1, 0, 1, 0), i.e. the same leading term h^2 f'''/6
    and no h^3 term, so quality-3 error is a smooth field and divided
    differences of it stay second-order accurate across stencil switches.
    Quality 2 (the 4-point rule with the matched h^2 term but an unmatched h^3
    term, then the plain second-order rule) and quality 1 are fallbacks for
    thin mask regions.
    """
    v = values if axis == 0 else values.T
    m = mask if axis == 0 else mask.T
    out = np.zeros_like(v)
    qual = np.zeros(v.shape, dtype=np.int8)

    def shifted(k):
        s = np.zeros_like(m)
        if k > 0:
            s[:-k, :] = m[k:, :]
        else:
            s[-k:, :] = m[:k, :]
        return s

    up1, up2, up3, up4 = shifted(1), shifted(2), shifted(3), shifted(4)
    dn1, dn2, dn3, dn4 = shifted(-1), shifted(-2), shifted(-3), shifted(-4)
    vp1, vp2, vp3, vp4 = (np.roll(v, -k, axis=0) for k in (1, 2, 3, 4))
    vm1, vm2, vm3, vm4 = (np.roll(v, k, axis=0) for k in (1, 2, 3, 4))

    for sel, grade, expr in [
        (m & dn1, 1, lambda: (v - vm1) / h),
        (m & up1, 1, lambda: (vp1 - v) / h),
        (m & dn1 & dn2, 2, lambda: (3 * v - 4 * vm1 + vm2) / (2 * h)),
        (m & up1 & up2, 2, lambda: (-3 * v + 4 * vp1 - vp2) / (2 * h)),
        (
            m & dn1 & dn2 & dn3,
            2,
            lambda: (2 * v - 7 * vm1 / 2 + 2 * vm2 - vm3 / 2) / h,
        ),
        (
            m & up1 & up2 & up3,
            2,
            lambda: (-2 * v + 7 * vp1 / 2 - 2 * vp2 + vp3 / 2) / h,
        ),
        (
            m & dn1 & dn2 & dn3 & dn4,
            3,
            lambda: (5 * v / 2 - 11 * vm1 / 2 + 5 * vm2 - 5 * vm3 / 2 + vm4 / 2) / h,
        ),
        (
            m & up1 & up2 & up3 & up4,
            3,
            lambda: (-5 * v / 2 + 11 * vp1 / 2 - 5 * vp2 + 5 * vp3 / 2 - vp4 / 2) / h,
        ),
        (m & up1 & dn1, 3, lambda: (vp1 - vm1) / (2 * h)),
    ]:
        if sel.any():
            out[sel] = expr()[sel]
            qual[sel] = grade

    if axis == 1:
        out, qual = out.T, qual.T
    return out, qual


def gradient(f: ScalarField) -> VectorField2:
    """Central differences, one-sided at the mask boundary; affine exact."""
    gx, qx = _axis_derivative(f.values, f.mask, f.spacing, 0)
    gy, qy = _axis_derivative(f.values, f.mask, f.spacing, 1)
    if np.any(f.mask & (qx == 0)) or np.any(f.mask & (qy == 0)):
        raise DegenerateMask("a masked cell has no masked neighbor on a needed axis")
    return VectorField2(f.origin, f.spacing, gx, gy, f.mask)


class _EdgeData:
    """Per-edge derivative estimates and normalizers for one field."""

    __slots__ = (
        "exist_x",
        "exist_y",
        "dx",
        "cx",
        "qx",
        "dy",
        "cy",
        "qy",
        "nx_edge",
        "ny_edge",
        "plaq",
        "supported",
    )

    def __init__(self, f: ScalarField, sign: float):
        v, m, h = f.values, f.mask, f.spacing
        self.exist_x = m[:-1, :] & m[1:, :]
        self.exist_y = m[:, :-1] & m[:, 1:]

        cy_cell, q_cy = _axis_derivative(v, m, h, 1)
        cx_cell, q_cx = _axis_derivative(v, m, h, 0)

        self.dx = np.where(self.exist_x, (v[1:, :] - v[:-1, :]) / h, 0.0)
        self.dy = np.where(self.exist_y, (v[:, 1:] - v[:, :-1]) / h, 0.0)

        self.cx, self.qx = _edge_average(cy_cell, q_cy, self.exist_x, axis=0)
        self.cy, self.qy = _edge_average(cx_cell, q_cx, self.exist_y, axis=1)

        self.nx_edge = _normalizer(self.dx, self.cx, self.exist_x, sign)
        self.ny_edge = _normalizer(self.dy, self.cy, self.exist_y, sign)

        self.plaq = (
            self.exist_y[:-1, :] & self.exist_y[1:, :] & self.exist_x[:, :-1] & self.exist_x[:, 1:]
        )
        # Plaquettes whose four edge estimates all carry the matched leading
        # error term (quality 3): residual and curl certificates are reported
        # here, so low-order fallbacks at ragged corners cannot pollute them.
        self.supported = (
            self.plaq
            & (self.qy[:-1, :] >= 3)
            & (self.qy[1:, :] >= 3)
            & (self.qx[:, :-1] >= 3)
            & (self.qx[:, 1:] >= 3)
        )


def _edge_average(cell_vals, cell_q, exist, axis):
    if axis == 0:
        a, b = cell_vals[:-1, :], cell_vals[1:, :]
        qa, qb = cell_q[:-1, :], cell_q[1:, :]
    else:
        a, b = cell_vals[:, :-1], cell_vals[:, 1:]
        qa, qb = cell_q[:, :-1], cell_q[:, 1:]
    ha, hb = qa > 0, qb > 0
    cnt = ha.astype(float) + hb.astype(float)
    if np.any(exist & (cnt == 0)):
        raise DegenerateMask("mask too thin for a cross-derivative estimate at an edge")
    out = np.zeros_like(a)
    np.divide(
        np.where(ha, a, 0.0) + np.where(hb, b, 0.0), cnt, out=out, where=exist & (cnt > 0)
    )
    # A one-cell average sits half a spacing off the edge midpoint, so it is
    # first-order at best whatever the cell stencil was.
    qual = np.where(cnt == 2, np.minimum(qa, qb), np.minimum(np.maximum(qa, qb), 1))
    qual = np.where(exist, qual, 0).astype(np.int8)
    return out, qual


def _normalizer(d, c, exist, sign):
    s = 1.0 + sign * (d * d + c * c)
    if sign < 0 and np.any(exist & (s <= _SPACELIKE_EPS)):
        raise NotSpacelike("|Df| >= 1 at a grid edge; field is not a spacelike graph")
    return np.sqrt(np.where(exist, np.abs(s), 1.0))


def _plaquette_divergence(f: ScalarField, a_on_y, b_on_x, plaq) -> ScalarField:
    h = f.spacing
    resid = np.zeros_like(plaq, dtype=float)
    resid[plaq] = (
        (a_on_y[1:, :] - a_on_y[:-1, :]) / h + (b_on_x[:, 1:] - b_on_x[:, :-1]) / h
    )[plaq]
    origin = (f.origin[0] + h / 2, f.origin[1] + h / 2)
    return ScalarField(origin, h, resid, plaq)


def _residual(f: ScalarField, sign: float) -> ScalarField:
    e = _EdgeData(f, sign)
    return _plaquette_divergence(f, e.cy / e.ny_edge, e.cx / e.nx_edge, e.supported)


def minimal_residual(f: ScalarField) -> ScalarField:
    """div(Df / sqrt(1 + |Df|^2)) on interior plaquette centers.

    Exactly 0 for affine f.  The field's mask covers the plaquettes whose
    four edge estimates are all at least second order; ragged mask corners
    that only admit an off-center fallback are excluded.
    """
    return _residual(f, +1.0)


def maximal_residual(f: ScalarField) -> ScalarField:
    """div(Df / sqrt(1 - |Df|^2)) on interior plaquette centers; needs |Df| < 1."""
    return _residual(f, -1.0)


def flux_curl(f: ScalarField, kind: str = "minimal") -> ScalarField:
    """Loop circulation per plaquette of the dual edge field W.

    Evaluated through the identical array expression as the residual, so it
    equals minimal_residual(f) (kind="minimal") or -maximal_residual(f)
    (kind="maximal") exactly.
    """
    sign = +1.0 if kind == "minimal" else -1.0
    e = _EdgeData(f, sign)
    w2_on_y = (sign) * e.cy / e.ny_edge
    w1_on_x = (-sign) * e.cx / e.nx_edge
    return _plaquette_divergence(f, w2_on_y, -w1_on_x, e.supported)


def _anchor_index(mask: np.ndarray) -> tuple[int, int]:
    flat = int(np.argmax(mask))
    return flat // mask.shape[1], flat % mask.shape[1]


def _tree_integrate(mask, inc_x, inc_y, anchor) -> np.ndarray:
    """Propagate values from the anchor across grid edges (deterministic wavefront)."""
    vals = np.zeros(mask.shape)
    visited = np.zeros(mask.shape, dtype=bool)
    visited[anchor] = True
    exist_x = mask[:-1, :] & mask[1:, :]
    exist_y = mask[:, :-1] & mask[:, 1:]
    lo_x, hi_x, lo_y, hi_y = np.s_[:-1, :], np.s_[1:, :], np.s_[:, :-1], np.s_[:, 1:]
    # (from, to, edges, increment) for steps east, west, north and south
    steps = [(lo_x, hi_x, exist_x, inc_x), (hi_x, lo_x, exist_x, -inc_x),
             (lo_y, hi_y, exist_y, inc_y), (hi_y, lo_y, exist_y, -inc_y)]
    new = True
    while new:
        new = False
        for src, dst, exist, inc in steps:
            sel = exist & visited[src] & ~visited[dst]
            if sel.any():
                vals[dst][sel] = vals[src][sel] + inc[sel]
                visited[dst][sel] = True
                new = True
    if not np.array_equal(visited, mask):
        raise NotSimplyConnected("mask is not 4-connected")
    return vals


def _dualize(f: ScalarField, sign: float, curl_tol: float) -> ScalarField:
    _validate_mask(f.mask)
    e = _EdgeData(f, sign)
    resid = _plaquette_divergence(f, e.cy / e.ny_edge, e.cx / e.nx_edge, e.supported)
    worst = float(np.max(np.abs(resid.values[resid.mask]))) if resid.mask.any() else 0.0
    if worst > curl_tol:
        raise CurlError(f"curl certificate {worst:.3g} exceeds tolerance {curl_tol:g}")
    w1_on_x = (-sign) * e.cx / e.nx_edge
    w2_on_y = (sign) * e.cy / e.ny_edge
    h = f.spacing
    vals = _tree_integrate(f.mask, h * w1_on_x, h * w2_on_y, _anchor_index(f.mask))
    return ScalarField(f.origin, h, np.where(f.mask, vals, 0.0), f.mask)


def dualize_minimal_to_maximal(f: ScalarField, curl_tol: float = 1e-3) -> ScalarField:
    """Conjugate (maximal) graph of a minimal graph: integrate
    W = (-f_y, f_x)/sqrt(1 + |Df|^2) from the anchor cell.

    The result satisfies |Df| < 1 on every grid edge; violation raises
    NotSpacelike.
    """
    out = _dualize(f, +1.0, curl_tol)
    _EdgeData(out, -1.0)
    return out


def dualize_maximal_to_minimal(f: ScalarField, curl_tol: float = 1e-3) -> ScalarField:
    """Inverse construction: integrate W = (f_y, -f_x)/sqrt(1 - |Df|^2).

    Composing the two dualities returns the input up to an additive constant.
    """
    return _dualize(f, -1.0, curl_tol)


def shift_agreement(a: ScalarField, b: ScalarField) -> float:
    """min over constants c of max |a - b - c| on the shared mask."""
    if a.values.shape != b.values.shape or a.spacing != b.spacing:
        raise ValueError("fields live on different grids")
    overlap = a.mask & b.mask
    if not overlap.any():
        raise OverlapEmpty("no common masked cells")
    d = a.values[overlap] - b.values[overlap]
    return float((d.max() - d.min()) / 2.0)


def save_field(f: ScalarField, csv_path, header_path):
    """CSV rows x,y,value for masked cells plus a JSON grid header."""
    with open(header_path, "w") as fh:
        json.dump(
            {
                "origin": [float(f.origin[0]), float(f.origin[1])],
                "spacing": float(f.spacing),
                "nx": f.nx,
                "ny": f.ny,
            },
            fh,
            sort_keys=True,
        )
        fh.write("\n")
    xs, ys = f.xs(), f.ys()
    with open(csv_path, "w") as fh:
        fh.write("x,y,value\n")
        for i in range(f.nx):
            for j in range(f.ny):
                if f.mask[i, j]:
                    fh.write(f"{float(xs[i])!r},{float(ys[j])!r},{float(f.values[i, j])!r}\n")


def load_field(csv_path, header_path) -> ScalarField:
    with open(header_path) as fh:
        head = json.load(fh)
    nx, ny, h = int(head["nx"]), int(head["ny"]), float(head["spacing"])
    origin = (float(head["origin"][0]), float(head["origin"][1]))
    values = np.zeros((nx, ny))
    mask = np.zeros((nx, ny), dtype=bool)
    with open(csv_path) as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                xs, ys, vs = line.split(",")
                i = int(round((float(xs) - origin[0]) / h))
                j = int(round((float(ys) - origin[1]) / h))
            except ValueError as exc:
                raise ValueError(f"{csv_path}:{lineno}: expected 'x,y,value' floats") from exc
            if not (0 <= i < nx and 0 <= j < ny):
                raise ValueError(f"{csv_path}:{lineno}: point lies off the declared grid")
            values[i, j] = float(vs)
            mask[i, j] = True
    return ScalarField(origin, h, values, mask)
