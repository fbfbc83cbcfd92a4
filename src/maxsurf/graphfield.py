"""Masked-grid scalar fields and the discrete graph dualities.

Fields live at cell centers (x0 + i h, y0 + j h), i < nx, j < ny, with a
boolean mask.  Dualization needs the mask nonempty, 4-connected and
hole-free: it checks the Euler count V - E + F = 1 of the mask's cell
complex up front, and connectivity as it integrates along a spanning tree
(the only topology checks; other fields, such as the plaquette residuals,
may have any mask).  Derivative estimates are built per grid edge: the
along-edge derivative is the exact two-point difference at the edge midpoint,
the cross derivative averages the two endpoint cells' best stencils from the
rule table _RULES, and the residual/curl certificate is restricted to
plaquettes free of low-order fallbacks.

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
import math
from collections import deque
from dataclasses import dataclass
from itertools import cycle

import numpy as np

from .errors import (
    CurlError,
    DegenerateMask,
    NotSimplyConnected,
    NotSpacelike,
    OverlapEmpty,
)
from .rational import _number
from .textio import read_rows, write_rows

_SPACELIKE_EPS = 1e-12
# load_field's limit on the header's nx * ny: a 2048 x 2048 grid.
_MAX_CELLS = 1 << 22


def _validate_mask(mask: np.ndarray):
    # components minus holes; a second component with a hole passes here and
    # is caught by _tree_integrate, which must reach every masked cell
    if not mask.any():
        raise NotSimplyConnected("mask is empty")
    v = int(mask.sum())
    e = int((mask[:-1, :] & mask[1:, :]).sum()) + int((mask[:, :-1] & mask[:, 1:]).sum())
    f = int((mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]).sum())
    if v - e + f != 1:
        raise NotSimplyConnected(
            f"mask Euler count {v - e + f} != 1; region is disconnected or has holes"
        )


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Scalar samples on a masked uniform grid, held C-contiguous and
    read-only."""

    origin: tuple[float, float]
    spacing: float
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        mask = np.ascontiguousarray(self.mask, dtype=bool)
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


# Difference rules as (grade, ((offset, weight), ...)): the derivative at cell
# i is sum(weight * f[i + offset]) / h.  A cell takes the last rule whose
# cells are all masked, so the central rule is last.  Grade 3 rules share the
# central rule's derivative moments (0, 1, 0, 1, 0), i.e. the same leading
# error h^2 f'''/6 and no h^3 term, so their error is a smooth field and
# divided differences of it stay second order across stencil switches.
# Grades 2 and 1 are fallbacks for thin mask regions.  A rule whose integer
# form divides by 2h has its weights halved (1.5 for 3), so each product and
# partial sum is the integer form's times a power of two and rounds alike.
_RULES = (
    (1, ((0, 1.0), (-1, -1.0))),
    (1, ((1, 1.0), (0, -1.0))),
    (2, ((0, 1.5), (-1, -2.0), (-2, 0.5))),
    (2, ((0, -1.5), (1, 2.0), (2, -0.5))),
    (2, ((0, 2.0), (-1, -3.5), (-2, 2.0), (-3, -0.5))),
    (2, ((0, -2.0), (1, 3.5), (2, -2.0), (3, 0.5))),
    (3, ((0, 2.5), (-1, -5.5), (-2, 5.0), (-3, -2.5), (-4, 0.5))),
    (3, ((0, -2.5), (1, 5.5), (2, -5.0), (3, 2.5), (4, -0.5))),
    (3, ((1, 0.5), (-1, -0.5))),
)


def _axis_derivative(values, mask, h, axis):
    """Best per-cell derivative along an axis by _RULES, with its grade:
    the last rule whose cells are all masked.  The central rule, last, is
    applied first to the interior by slices; the others run only at masked
    cells it does not fit, in reverse order, the first that fits winning.
    Taps are summed in table order, so each estimate rounds alike."""
    v = values if axis == 0 else values.T
    m = mask if axis == 0 else mask.T
    n = v.shape[0]
    out = np.zeros(values.shape)
    qual = np.zeros(values.shape, dtype=np.int8)
    out_v, qual_v = (out, qual) if axis == 0 else (out.T, qual.T)
    *fallbacks, (grade, ((k0, w0), *taps)) = _RULES

    def inner(a, k=0):  # a[i + k] at the cells i one step inside the grid
        return a[1 + k:n - 1 + k]

    central = inner(m).copy()
    for k in (k0, *(k for k, _ in taps)):
        central &= inner(m, k)
    est = np.multiply(inner(v, k0), w0, out=inner(out_v))
    for k, w in taps:
        est += w * inner(v, k)
    est /= h
    np.copyto(est, 0.0, where=~central)
    inner(qual_v)[central] = grade
    todo = m.copy()
    todo[1:n - 1] &= ~central
    i, j = np.nonzero(todo)
    for grade, taps in reversed(fallbacks):
        fits = np.ones(i.size, dtype=bool)
        for k, _ in taps:
            fits &= (0 <= i + k) & (i + k < n)
            fits[fits] = m[i[fits] + k, j[fits]]
        (k0, w0), *rest = taps
        a, b = i[fits], j[fits]
        est = w0 * v[a + k0, b]
        for k, w in rest:
            est += w * v[a + k, b]
        est /= h
        out_v[a, b] = est
        qual_v[a, b] = grade
        i, j = i[~fits], j[~fits]
    return out, qual


class _EdgeData:
    """Cross derivatives and normalizers on the edges of one field, and the
    plaquettes its certificates cover."""

    __slots__ = ("cx", "cy", "nx_edge", "ny_edge", "supported")

    def __init__(self, f: ScalarField, sign: float):
        exist_x, dx, self.cx, qx = _edges(f, 0)
        exist_y, dy, self.cy, qy = _edges(f, 1)
        # normalizers after both axes: a mask too thin on either axis is
        # reported ahead of a non-spacelike edge
        self.nx_edge = _normalizer(dx, self.cx, exist_x, sign)
        self.ny_edge = _normalizer(dy, self.cy, exist_y, sign)
        # Plaquettes whose four edge estimates all carry the matched leading
        # error term (grade 3, so the edges exist): residual and curl
        # certificates are reported here, so low-order fallbacks at ragged
        # corners cannot pollute them.
        self.supported = (qy[:-1, :] >= 3) & (qy[1:, :] >= 3) & (qx[:, :-1] >= 3) & (qx[:, 1:] >= 3)


def _edges(f: ScalarField, axis: int):
    """Edges from cell i to i + 1 along an axis, as C-contiguous arrays:
    existence, the along-edge difference quotient, and the cross derivative
    averaged over the end cells, with its grade."""
    lo, hi = (np.s_[:-1], np.s_[1:]) if axis == 0 else (np.s_[:, :-1], np.s_[:, 1:])
    v, m, h = f.values, f.mask, f.spacing
    c, q = _axis_derivative(v, m, h, 1 - axis)
    exist = m[lo] & m[hi]
    d = (v[hi] - v[lo]) / h
    np.copyto(d, 0.0, where=~exist)
    ha, hb = q[lo] > 0, q[hi] > 0
    cnt = ha.astype(np.int8) + hb
    if np.any(exist & (cnt == 0)):
        raise DegenerateMask("mask too thin for a cross-derivative estimate at an edge")
    # where(ha, c_lo, 0) + where(hb, c_hi, 0) in place: an absent end adds +0.0
    avg = np.where(ha, c[lo], 0.0)
    np.add(avg, c[hi], out=avg, where=hb)
    np.add(avg, 0.0, out=avg, where=~hb)
    del c
    np.divide(avg, cnt, out=avg, where=exist)
    np.copyto(avg, 0.0, where=~exist)
    # A one-cell average sits half a spacing off the edge midpoint, so it is
    # first-order at best whatever the cell stencil was.
    qual = np.where(cnt == 2, np.minimum(q[lo], q[hi]), np.minimum(np.maximum(q[lo], q[hi]), 1))
    qual = np.where(exist, qual, 0).astype(np.int8)
    return exist, d, avg, qual


def _normalizer(d, c, exist, sign):
    """sqrt|1 + sign |Df|^2| per edge, formed in d's buffer; 1 off the
    edges, where d and c are 0."""
    s = np.multiply(d, d, out=d)
    s += c * c
    s *= sign
    s += 1.0
    if sign < 0 and np.any(exist & (s <= _SPACELIKE_EPS)):
        raise NotSpacelike("|Df| >= 1 at a grid edge; field is not a spacelike graph")
    return np.sqrt(np.abs(s, out=s), out=s)


def _plaquette_divergence(f: ScalarField, a_on_y, b_on_x, plaq) -> ScalarField:
    h = f.spacing
    resid = (a_on_y[1:, :] - a_on_y[:-1, :]) / h
    resid += (b_on_x[:, 1:] - b_on_x[:, :-1]) / h
    np.copyto(resid, 0.0, where=~plaq)
    origin = (f.origin[0] + h / 2, f.origin[1] + h / 2)
    return ScalarField(origin, h, resid, plaq)


def _residual(f: ScalarField, e: _EdgeData) -> ScalarField:
    return _plaquette_divergence(f, e.cy / e.ny_edge, e.cx / e.nx_edge, e.supported)


def minimal_residual(f: ScalarField) -> ScalarField:
    """div(Df / sqrt(1 + |Df|^2)) on interior plaquette centers.

    Exactly 0 for affine f.  The field's mask covers the plaquettes whose
    four edge estimates are all at least second order; ragged mask corners
    that only admit an off-center fallback are excluded.
    """
    return _residual(f, _EdgeData(f, +1.0))


def maximal_residual(f: ScalarField) -> ScalarField:
    """div(Df / sqrt(1 - |Df|^2)) on interior plaquette centers; needs |Df| < 1."""
    return _residual(f, _EdgeData(f, -1.0))


def _tree_integrate(mask, inc_x, inc_y, anchor) -> np.ndarray:
    """Propagate values from the masked anchor across grid edges by a
    wavefront of steps east, west, north, south, repeated.  A cell reached
    before the last four steps was offered the current direction one sweep
    ago, so each step moves only the cells of the last four (the frontier):
    the work is linear in the cells.  Indices are flat in the grid padded
    by one unmasked cell.
    """
    nx, ny = mask.shape
    todo = np.pad(mask, 1).ravel()
    gx = np.pad(inc_x, ((1, 2), (1, 1))).ravel()  # edge data at its lower cell
    gy = np.pad(inc_y, ((1, 1), (1, 2))).ravel()
    vals = np.zeros(todo.size)
    start = (anchor[0] + 1) * (ny + 2) + anchor[1] + 1
    todo[start] = False
    # (offset, increment, edge index taken at the destination); a step
    # against an edge subtracts, which rounds as adding its negation does
    steps = [(ny + 2, gx, False), (-(ny + 2), gx, True), (1, gy, False), (-1, gy, True)]
    recent = deque([np.array([start])], maxlen=4)
    for off, inc, at_dst in cycle(steps):
        src = np.concatenate(recent)
        if not src.size:
            break
        dst = src + off
        keep = todo[dst]
        src, dst = src[keep], dst[keep]
        vals[dst] = vals[src] - inc[dst] if at_dst else vals[src] + inc[src]
        todo[dst] = False
        recent.append(dst)
    if todo.any():
        raise NotSimplyConnected("mask is not 4-connected")
    return vals.reshape(nx + 2, ny + 2)[1:-1, 1:-1]


def _dualize(f: ScalarField, sign: float, curl_tol: float) -> ScalarField:
    """Integrate W = sign * (-cx/nx, cy/ny) over the edges of f.  Each
    array goes once consumed; in field-sized grids: the edge data (4, at
    most 6 while built); the flux a = cy/ny, b = cx/nx formed in cy and cx
    (2); its residual, the curl certificate, until checked (2 + 2); a and b
    scaled by h in place into the tree's increments (2 + 3 in the tree);
    the result (2 while masked)."""
    _validate_mask(f.mask)
    e = _EdgeData(f, sign)
    a = np.divide(e.cy, e.ny_edge, out=e.cy)
    b = np.divide(e.cx, e.nx_edge, out=e.cx)
    plaq = e.supported
    del e
    resid = _plaquette_divergence(f, a, b, plaq)
    worst = float(np.max(np.abs(resid.values[resid.mask]))) if resid.mask.any() else 0.0
    del resid
    if worst > curl_tol:
        raise CurlError(f"curl certificate {worst:.3g} exceeds tolerance {curl_tol:g}")
    # sign is +-1, so b * (-sign * h) rounds as h * ((-sign) * cx / nx)
    h = f.spacing
    b *= (-sign) * h
    a *= sign * h
    anchor = np.unravel_index(np.argmax(f.mask), f.mask.shape)  # lowest-index masked cell
    vals = _tree_integrate(f.mask, b, a, anchor)
    del a, b
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
    if a.values.shape != b.values.shape or a.spacing != b.spacing or a.origin != b.origin:
        raise ValueError("fields live on different grids")
    overlap = a.mask & b.mask
    if not overlap.any():
        raise OverlapEmpty("no common masked cells")
    d = a.values[overlap] - b.values[overlap]
    return float((d.max() - d.min()) / 2.0)


def save_field(f: ScalarField, csv_path, header_path):
    """CSV rows x,y,value for masked cells, i-major, plus a JSON grid header."""
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
    # the x, y, value rows of masked cells a .. b
    cells, values, xs, ys = np.flatnonzero(f.mask), f.values.reshape(-1), f.xs(), f.ys()

    def rows(a, b):
        i, j = np.divmod(cells[a:b], f.ny)
        return np.stack([xs[i], ys[j], values[cells[a:b]]], axis=1)

    with open(csv_path, "wb") as fh:
        fh.write(b"x,y,value\n")
        write_rows(fh, "%r,%r,%r\n", cells.size, rows)


def _read_header(header_path) -> tuple[tuple[float, float], float, int, int]:
    with open(header_path) as fh:
        head = json.load(fh)
    nx, ny = head["nx"], head["ny"]
    h = _number(head["spacing"], f"{header_path}: spacing")
    origin = head["origin"]
    if not isinstance(origin, list) or len(origin) != 2:
        raise ValueError(f"{header_path}: origin must be a list of two numbers, got {origin!r}")
    origin = tuple(_number(v, f"{header_path}: origin") for v in origin)
    for key, n in (("nx", nx), ("ny", ny)):
        if type(n) is not int or n < 1:
            raise ValueError(f"{header_path}: {key} must be a positive integer, got {n!r}")
    if nx * ny > _MAX_CELLS:
        raise ValueError(f"{header_path}: {nx} x {ny} grid exceeds {_MAX_CELLS} cells")
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"{header_path}: spacing must be finite and positive, got {h!r}")
    if not np.all(np.isfinite(origin)):
        raise ValueError(f"{header_path}: origin must be finite, got {origin!r}")
    return origin, h, nx, ny


def load_field(csv_path, header_path) -> ScalarField:
    """Read a field written by save_field (contract: README, Formats).

    The header is validated before allocating; blank lines are skipped; rows
    parse as Python's float parses them and snap to the nearest cell.  The
    first malformed, non-finite, off-grid or repeated row raises ValueError
    as "path:LINE: reason".  Rows stream from the file into the grid
    (textio.read_rows); a file that fails there, or ends a line at a lone
    "\\r", is read again, a line at a time, by _load_rows (same result)."""
    origin, h, nx, ny = _read_header(header_path)
    values = np.zeros((nx, ny))
    mask = np.zeros((nx, ny), dtype=bool)
    rows = 0

    def put(xyv: np.ndarray) -> bool:
        nonlocal rows
        x, y, v = xyv.T
        with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates land off the grid
            fi = np.rint((x - origin[0]) / h)
            fj = np.rint((y - origin[1]) / h)
        if not (np.isfinite(xyv).all() and ((0 <= fi) & (fi < nx) & (0 <= fj) & (fj < ny)).all()):
            return False
        cell = fi.astype(np.intp) * ny + fj.astype(np.intp)
        values.flat[cell] = v
        mask.flat[cell] = True
        rows += len(xyv)
        return True

    # a repeated cell leaves fewer masked cells than rows
    if read_rows(csv_path, 3, (0, 1), put) and np.count_nonzero(mask) == rows:
        return ScalarField(origin, h, values, mask)
    del values, mask
    return _load_rows(csv_path, origin, h, nx, ny)


def _load_rows(csv_path, origin, h, nx, ny) -> ScalarField:
    """load_field one row at a time, over the lines as text mode splits
    them: raises at the first faulty row."""
    values = np.zeros((nx, ny))
    mask = np.zeros((nx, ny), dtype=bool)
    with open(csv_path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                x, y, v = map(float, line.split(","))
            except ValueError:
                raise ValueError(f"{csv_path}:{lineno}: expected 'x,y,value' floats") from None
            fi, fj = (x - origin[0]) / h, (y - origin[1]) / h
            if not all(map(math.isfinite, (x, y, v))):
                fault = "non-finite coordinate or value"
            elif not (math.isfinite(fi) and math.isfinite(fj) and 0 <= round(fi) < nx and 0 <= round(fj) < ny):
                fault = "point lies off the declared grid"
            elif mask[cell := (round(fi), round(fj))]:
                fault = "duplicate grid cell"
            else:
                values[cell], mask[cell] = v, True
                continue
            raise ValueError(f"{csv_path}:{lineno}: {fault}")
    return ScalarField(origin, h, values, mask)
