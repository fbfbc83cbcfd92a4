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
from collections import deque
from dataclasses import dataclass
from itertools import compress, cycle

import numpy as np

from .errors import (
    CurlError,
    DegenerateMask,
    NotSimplyConnected,
    NotSpacelike,
    OverlapEmpty,
)
from .textio import parse_rows, write_rows

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


@dataclass(frozen=True, eq=False)
class VectorField2:
    """Two scalar component grids sharing one mask and grid geometry."""

    origin: tuple[float, float]
    spacing: float
    w1: np.ndarray
    w2: np.ndarray
    mask: np.ndarray

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.w1, self.w2)


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
_REACH = 4  # the largest |offset|


def _axis_derivative(values, mask, h, axis):
    """Best per-cell derivative along an axis by _RULES, with its grade."""
    v = values if axis == 0 else values.T
    m = mask if axis == 0 else mask.T
    n = v.shape[0]
    vpad, mpad = (np.pad(a, ((_REACH, _REACH), (0, 0))) for a in (v, m))

    def shifted(a, k):  # a[i + k], zero (unmasked) off the grid
        return a[_REACH + k:_REACH + k + n]

    out = np.zeros(values.shape)
    qual = np.zeros(values.shape, dtype=np.int8)
    out_v, qual_v = (out, qual) if axis == 0 else (out.T, qual.T)
    for grade, ((k0, w0), *taps) in _RULES:
        sel = m & shifted(mpad, k0)
        for k, _ in taps:
            sel &= shifted(mpad, k)
        if sel.any():
            est = w0 * shifted(vpad, k0)
            for k, w in taps:
                est += w * shifted(vpad, k)
            est /= h
            np.copyto(out_v, est, where=sel)
            qual_v[sel] = grade
    return out, qual


def gradient(f: ScalarField) -> VectorField2:
    """Central differences, one-sided at the mask boundary; affine exact."""
    gx, qx = _axis_derivative(f.values, f.mask, f.spacing, 0)
    gy, qy = _axis_derivative(f.values, f.mask, f.spacing, 1)
    if np.any(f.mask & (qx == 0)) or np.any(f.mask & (qy == 0)):
        raise DegenerateMask("a masked cell has no masked neighbor on a needed axis")
    return VectorField2(f.origin, f.spacing, gx, gy, f.mask)


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

    def frame(a):
        return a if axis == 0 else a.T

    v, m, h = frame(f.values), frame(f.mask), f.spacing
    c, q = map(frame, _axis_derivative(f.values, f.mask, h, 1 - axis))
    exist = m[:-1] & m[1:]
    d = np.where(exist, (v[1:] - v[:-1]) / h, 0.0)
    ha, hb = q[:-1] > 0, q[1:] > 0
    cnt = ha.astype(float) + hb.astype(float)
    if np.any(exist & (cnt == 0)):
        raise DegenerateMask("mask too thin for a cross-derivative estimate at an edge")
    avg = np.zeros_like(c[1:])
    both = np.where(ha, c[:-1], 0.0) + np.where(hb, c[1:], 0.0)
    np.divide(both, cnt, out=avg, where=exist & (cnt > 0))
    # A one-cell average sits half a spacing off the edge midpoint, so it is
    # first-order at best whatever the cell stencil was.
    qual = np.where(cnt == 2, np.minimum(q[:-1], q[1:]), np.minimum(np.maximum(q[:-1], q[1:]), 1))
    qual = np.where(exist, qual, 0).astype(np.int8)
    return tuple(np.ascontiguousarray(frame(a)) for a in (exist, d, avg, qual))


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


def flux_curl(f: ScalarField, kind: str = "minimal") -> ScalarField:
    """Loop circulation per plaquette of the dual edge field W.

    Evaluated through the identical array expression as the residual, so it
    equals minimal_residual(f) bit for bit (kind="minimal"), or
    -maximal_residual(f) exactly (kind="maximal"; an exact zero keeps the
    sign of the rotated flux's difference).  Any other kind raises ValueError.
    """
    if kind not in ("minimal", "maximal"):
        raise ValueError(f"unknown kind {kind!r}; expected 'minimal' or 'maximal'")
    sign = +1.0 if kind == "minimal" else -1.0
    e = _EdgeData(f, sign)
    return _plaquette_divergence(
        f, sign * (e.cy / e.ny_edge), sign * (e.cx / e.nx_edge), e.supported
    )


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
    # (offset, increment, edge index taken at the destination)
    steps = [(ny + 2, gx, False), (-(ny + 2), -gx, True), (1, gy, False), (-1, -gy, True)]
    recent = deque([np.array([start])], maxlen=4)
    for off, inc, at_dst in cycle(steps):
        src = np.concatenate(recent)
        if not src.size:
            break
        dst = src + off
        keep = todo[dst]
        src, dst = src[keep], dst[keep]
        vals[dst] = vals[src] + inc[dst if at_dst else src]
        todo[dst] = False
        recent.append(dst)
    if todo.any():
        raise NotSimplyConnected("mask is not 4-connected")
    return vals.reshape(nx + 2, ny + 2)[1:-1, 1:-1]


def _dualize(f: ScalarField, sign: float, curl_tol: float) -> ScalarField:
    _validate_mask(f.mask)
    e = _EdgeData(f, sign)
    resid = _residual(f, e)
    worst = float(np.max(np.abs(resid.values[resid.mask]))) if resid.mask.any() else 0.0
    if worst > curl_tol:
        raise CurlError(f"curl certificate {worst:.3g} exceeds tolerance {curl_tol:g}")
    w1_on_x = (-sign) * e.cx / e.nx_edge
    w2_on_y = (sign) * e.cy / e.ny_edge
    h = f.spacing
    anchor = np.unravel_index(np.argmax(f.mask), f.mask.shape)  # lowest-index masked cell
    vals = _tree_integrate(f.mask, h * w1_on_x, h * w2_on_y, anchor)
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
    i, j = np.nonzero(f.mask)
    table = np.empty((i.size, 3), dtype=object)
    # each distinct grid coordinate is formatted once
    table[:, 0] = np.array(list(map(repr, f.xs().tolist())), dtype=object)[i]
    table[:, 1] = np.array(list(map(repr, f.ys().tolist())), dtype=object)[j]
    table[:, 2] = f.values[i, j]
    with open(csv_path, "wb") as fh:
        fh.write(b"x,y,value\n")
        write_rows(fh, "%s,%s,%r\n", table)


def _read_header(header_path) -> tuple[tuple[float, float], float, int, int]:
    with open(header_path) as fh:
        head = json.load(fh)
    nx, ny, h = head["nx"], head["ny"], float(head["spacing"])
    origin = (float(head["origin"][0]), float(head["origin"][1]))
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


_ROW_FAULTS = (
    "expected 'x,y,value' floats",
    "non-finite coordinate or value",
    "point lies off the declared grid",
    "duplicate grid cell",
)


def load_field(csv_path, header_path) -> ScalarField:
    """Read a field written by save_field (contract: README, Formats).

    The header is validated before allocating; blank lines are skipped; rows
    parse as Python's float parses them and snap to the nearest cell.  The
    first malformed, non-finite, off-grid or repeated row raises ValueError
    as "path:LINE: reason"."""
    origin, h, nx, ny = _read_header(header_path)
    with open(csv_path) as fh:
        lines = fh.read().split("\n")[1:]
    nonblank = list(map(str.strip, lines))
    xyv, malformed = parse_rows(list(compress(lines, nonblank)), 3, memo=(0, 1))
    x, y, v = xyv.T  # per column: numpy reduces slowly over a length-3 axis
    finite = np.isfinite(x) & np.isfinite(y) & np.isfinite(v)
    with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates land off the grid
        fi = np.rint((x - origin[0]) / h)
        fj = np.rint((y - origin[1]) / h)
        on_grid = (0 <= fi) & (fi < nx) & (0 <= fj) & (fj < ny)
        # rows with another fault get distinct negative cells, so only cells collide
        cell = np.where(finite & on_grid, fi * ny + fj, -1.0 - np.arange(len(xyv)))
    repeated = np.ones(len(xyv), dtype=bool)
    repeated[np.unique(cell, return_index=True)[1]] = False
    fault = np.select([malformed, ~finite, ~on_grid, repeated], [1, 2, 3, 4])
    if fault.any():
        row = int(np.flatnonzero(fault)[0])
        lineno = 2 + list(compress(range(len(lines)), nonblank))[row]
        raise ValueError(f"{csv_path}:{lineno}: {_ROW_FAULTS[fault[row] - 1]}")
    i, j = fi.astype(np.intp), fj.astype(np.intp)
    values = np.zeros((nx, ny))
    mask = np.zeros((nx, ny), dtype=bool)
    values[i, j] = v
    mask[i, j] = True
    return ScalarField(origin, h, values, mask)
