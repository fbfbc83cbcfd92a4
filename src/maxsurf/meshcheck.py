"""Desk-scale certification of graph properties on triangulated samples.

The key verification: sample an immersion and its conjugate on a triangulated
parameter disk, project both to the horizontal plane, and certify injectivity
of the projection (all projected triangles positively oriented plus a simple
projected boundary; for a disk-type mesh that combination certifies a global
graph).  The headline pipeline reports, per datum, whether the hypothesis
"graph over a convex domain" holds and whether the conjugate surface is then
itself certified as a graph.

Also here: the Newton pull-back of plane points to the parameter disk
(_pull_back: plain Newton, no step halving, each point stepped until its own
residual is within _TOL), and resampling of a sampled graph onto a masked grid
(used to compare the grid-level duality against the isotropic-curve duality):
one exact raster pass over the projected triangles locates every grid point,
which gives the mask and the Newton seeds, and the points are pulled back and
integrated in blocks of _BLOCK (8192); a point's height does not depend on
the block it falls in.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DegenerateTriangle,
    DomainError,
    FloatRangeError,
    NewtonDivergence,
    NotAGraph,
    OverlapEmpty,
)
from .graphfield import _MAX_CELLS, ScalarField, dualize_maximal_to_minimal, shift_agreement
from .rational import _dyadic, integrate_to_many
from .weierstrass import (
    Immersion,
    WeierstrassData,
    immersion_from_data,
    integrals_at_many,
)

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT_APPLICABLE"

_AREA_EPS = 1e-16
_NEWTON_ITERS = 30
# Newton residual tolerance of the pull-back (_pull_back); resample_graph's mesh
# rings and grid erosion; the curl tolerance of lee_equivalence_check's grid
# dualization.
_TOL = 1e-10
_RESAMPLE_MESH_N = 48
_RESAMPLE_MARGIN_CELLS = 2
# Triangles per block of _locate: its per-column float arrays reach 107 KiB on
# the catalog at h = 0.01, and 212 KiB in blocks of 2048, with which a catalog
# Lee pass peaked 0.8 MB higher (ru_maxrss, 2-core x86-64, numpy 2.4.6).
_LOCATE_BLOCK = 1024
# _locate's margin on a float P.y + (x - P.x) m: 2^-40 of |P.y| + w |m|, w >= |x - P.x|,
# about 10^3 times its rounding bound 7 eps, plus 2^-960 for underflow.
_LINE_REL, _LINE_ABS = 2.0**-40, 2.0**-960
_LEE_CURL_TOL = 1e-2
# Shewchuk's bound on the rounding error of the float (b - a) x (c - a),
# (3 + 16 eps) eps with eps = 2^-53, relative to the sum of the two products'
# magnitudes; 8 x 2^-52 exceeds it.  The tiny term covers underflow.
_ORIENT_REL = 8 * np.finfo(float).eps
_ORIENT_ABS = np.finfo(float).tiny
# ParamMesh radii, and its shape bound: area >= _SHAPE (longest edge)^2, where
# the least ratio is sqrt(3)/12 = 0.1443 for every n >= 2 measured (to 1024).
_MESH_RADIUS = (2.0**-500, 2.0**500)
_SHAPE = 0.14
# Entries per block: keys or triangles of the disk certificate (_check_disk),
# the ring runs of the disk builder (_ring_runs) and the area pass of
# _report_from_points; vertices of sample_surface and _projections; grid
# points of resample_graph's pull-back.  Each float temporary is 64 KiB and
# stays in the heap between calls, where a whole-mesh one goes back to the OS
# and is mapped afresh: 22,400 minor page faults per catalog verify-krust pass
# at n = 128, and none with blocks.  Each Newton temporary is 128 KiB: one
# catalog pass of lee_equivalence_check at h = 0.01 peaked at 50.7-52.4 MB RSS
# with blocks of 2048 to 32768 points, and at 64.2 MB with one block of all
# points (up to 100k, on shift4-r09); 2-core x86-64, numpy 2.4.6.
_BLOCK = 8192


# ---- parameter-disk triangulation ----


@dataclass(frozen=True, eq=False)
class ParamMesh:
    """The n-ring disk of the given radius: ring k holds 6k vertices at
    radius k/n * radius (1 + 3n(n+1) vertices, 6n^2 triangles).

    All meshes of n rings share the read-only int32 triangles and rim cycle
    of _disk_topology(n), certified once at unit radius: a positively oriented
    disk, each triangle of area >= _SHAPE L^2 (L its longest edge, >= radius/n).
    A radius in _MESH_RADIUS keeps rim coordinates and their products normal
    floats, and each vertex within d = 8 eps radius of radius times its
    unit-disk vertex; moving vertices by d changes an area by at most
    2 L d + 2 d^2, so no triangle flips for n < 10^13.
    """

    radius: float
    n: int
    vertices: np.ndarray = field(init=False, repr=False)  # complex (N,)
    triangles: np.ndarray = field(init=False, repr=False)  # int32 (6n^2, 3)
    boundary: np.ndarray = field(init=False, repr=False)  # (6n,), the rim cycle

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one ring")
        radius = float(self.radius)
        if not _MESH_RADIUS[0] <= radius <= _MESH_RADIUS[1]:
            raise FloatRangeError(f"disk radius {radius!r} outside [2**-500, 2**500]")
        t, b = _disk_topology(self.n)
        v = _ring_vertices(radius, self.n)
        v.setflags(write=False)
        for name, value in (("radius", radius), ("vertices", v), ("triangles", t), ("boundary", b)):
            object.__setattr__(self, name, value)


def _half_edge_keys(a: np.ndarray, c: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Half-edge a -> c between vertices below n as the int64 key
    2 (min(a, c) n + max(a, c)) + (a > c), formed in out: an edge's two
    half-edges sort next to each other."""
    np.minimum(a, c, out=out)
    out *= n
    out += np.maximum(a, c)
    out *= 2
    out += a > c
    return out


def _check_disk(z: np.ndarray, t: np.ndarray, b: np.ndarray):
    """Raise ValueError unless the triangles t over the vertices z form a positively
    oriented disk with rim cycle b, each of area >= _SHAPE (longest edge)^2.

    Besides the half-edge keys (24 B a triangle) it holds one block of
    _BLOCK keys or triangles at a time.  The checks raise in a fixed
    order: the shape fault of a block is reported only once every block has
    passed the orientation check."""
    n = z.size
    if min(t.min(), b.min()) < 0 or max(t.max(), b.max()) >= n:
        raise ValueError("vertex index out of range")
    if np.any(np.diff(np.sort(b)) == 0):
        raise ValueError("boundary cycle repeats a vertex")
    # Each half-edge's key (_half_edge_keys), one corner column at a time,
    # sorted once, in place.  In an oriented disk each half-edge occurs once;
    # a repeat means two triangles lie on the same side of one edge, i.e.
    # they overlap.
    half = np.empty((3, t.shape[0]), dtype=np.int64)
    for e in range(3):
        _half_edge_keys(t[:, e], t[:, (e + 1) % 3], n, half[e])
    half = half.reshape(-1)
    half.sort()
    # Without repeats an edge's half-edges are neighbours in half: an interior
    # edge carries both (a twin pair), a rim edge one.  Each block reads one
    # key either side of its own, so every neighbour pair is seen.
    twins, rim = 0, []
    for s in range(0, half.size, _BLOCK):
        lo = max(s - 1, 0)
        keys = half[lo:s + _BLOCK + 1]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("two triangles share a directed edge (they overlap)")
        keys = keys >> 1
        twin = keys[1:] == keys[:-1]
        twins += np.count_nonzero(twin[s - lo:])
        alone = np.ones(keys.size, dtype=bool)
        alone[1:] &= ~twin
        alone[:-1] &= ~twin
        rim.append(half[s:s + _BLOCK][alone[s - lo:s - lo + _BLOCK]])
    if n - (half.size - twins) + t.shape[0] != 1:
        raise ValueError("mesh is not disk-type (Euler count != 1)")
    # Euler count 1 alone admits e.g. two triangles glued at a vertex; a
    # disk additionally has its rim half-edges forming the one given
    # cycle, traversed in the mesh's (counterclockwise) orientation.
    cycle = np.sort(_half_edge_keys(b, np.roll(b, -1), n, np.empty(b.size, dtype=np.int64)))
    if not np.array_equal(cycle, np.concatenate(rim)):
        raise ValueError("boundary must be the rim cycle of the triangulation")
    del half, rim  # 9.4 MB at n = 256, 151 MB at n = 1024
    thin = False
    for s in range(0, t.shape[0], _BLOCK):
        block = t[s:s + _BLOCK]
        u, w = edges = _edge_vectors(z, block)
        area = _signed_areas(z, block, edges)
        if not area.min() > 0:
            raise ValueError("parameter triangles must be positively oriented")
        longest = np.abs(u)
        np.maximum(longest, np.abs(w), out=longest)
        u -= w  # z1 - z2, in place
        np.maximum(longest, np.abs(u), out=longest)
        thin = thin or bool(np.any(area < _SHAPE * longest**2))
    if thin:
        raise ValueError(f"a triangle's area is below {_SHAPE} (longest edge)^2")


def _ring_start(k: int) -> int:
    return 1 + 3 * k * (k - 1)


def _ring_runs(first: np.ndarray):
    """Runs (i, j) of the whole rings whose ascending starts are first[i:j]: a
    run holds its first ring and the later ones that start within _BLOCK of it."""
    cut = [0]
    while cut[-1] < first.size:
        cut.append(max(int(np.searchsorted(first, first[cut[-1]] + _BLOCK)), cut[-1] + 1))
    return zip(cut, cut[1:])


def _disk_triangles(n: int) -> np.ndarray:
    """Triangles of the n-ring disk: the fan of ring 1, then from 6 (k-1)^2 on
    the merge walk by angle over ring k's m = 6(k-1) inner and mm = 6k outer
    edges.  It takes outer step o before inner step i iff (o+1) m <= (i+1) mm,
    so step o follows ((o+1) m - 1) // mm inner steps, step i follows
    (i+1) mm // m outer ones, and either is triangle o + i of its ring.
    Inner-edge triangles are reversed so that all areas are positive.  Formed
    over _ring_runs."""
    t = np.empty((6 * n * n, 3), dtype=np.int32)
    j = np.arange(6)
    t[:6, 0], t[:6, 1], t[:6, 2] = 1 + j, 1 + (j + 1) % 6, 0
    for a, b in _ring_runs(6 * np.arange(1, n) ** 2):  # the first triangles of rings 2 .. n
        rings = np.arange(a + 2, b + 2)
        k = np.repeat(rings, 6 * rings)  # outer step o of ring k
        o = _offsets(6 * rings)
        m, mm = 6 * k - 6, 6 * k
        i = ((o + 1) * m - 1) // mm
        row = 6 * (k - 1) ** 2 + o + i
        t[row, 0] = _ring_start(k) + o
        t[row, 1] = _ring_start(k) + (o + 1) % mm
        t[row, 2] = _ring_start(k - 1) + i
        k = np.repeat(rings, 6 * rings - 6)  # inner step i of ring k
        i = _offsets(6 * rings - 6)
        m, mm = 6 * k - 6, 6 * k
        o = (i + 1) * mm // m
        row = 6 * (k - 1) ** 2 + o + i
        t[row, 0] = _ring_start(k - 1) + (i + 1) % m
        t[row, 1] = _ring_start(k - 1) + i
        t[row, 2] = _ring_start(k) + o % mm
    return t


def _ring_vertices(radius: float, n: int) -> np.ndarray:
    """Vertex j of ring k at (radius k / n) exp(2 pi i j / 6k); ring 0 is the
    centre.  Formed over _ring_runs."""
    count = np.maximum(6 * np.arange(n + 1), 1)
    first = np.cumsum(count) - count
    v = np.empty(_ring_start(n + 1), dtype=complex)
    for k0, k1 in _ring_runs(first):
        ring = np.repeat(np.arange(k0, k1), count[k0:k1])
        angle = 2.0 * np.pi * _offsets(count[k0:k1]) / count[ring]
        v[first[k0]:first[k0] + ring.size] = (radius * ring / n) * np.exp(1j * angle)
    return v


@functools.lru_cache(maxsize=4)
def _disk_topology(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int32 triangles and rim cycle of the n-ring disk, through
    _check_disk at unit radius once per n."""
    t = _disk_triangles(n)
    b = np.arange(_ring_start(n), _ring_start(n) + 6 * n)
    _check_disk(_ring_vertices(1.0, n), t, b)
    t.setflags(write=False)
    b.setflags(write=False)
    return t, b


def triangulate_disk(radius: float, n: int) -> ParamMesh:
    """The n-ring disk of the given radius (see ParamMesh)."""
    return ParamMesh(radius, n)


# ---- sampled surfaces ----


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Positions of an immersion at the vertices of a ParamMesh."""

    param: ParamMesh
    positions: np.ndarray  # (N, 3) float

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        if p.shape != (self.param.vertices.size, 3):
            raise ValueError("positions shape does not match vertex count")
        if not np.all(np.isfinite(p)):
            raise FloatRangeError("non-finite position")
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)


def sample_surface(im: Immersion, mesh: ParamMesh) -> SurfaceMesh:
    """Positions base value + Re (integrals), _BLOCK vertices at a time."""
    w, base = mesh.vertices, im.base_value.as_array()
    pos = np.empty((w.size, 3))
    for s in range(0, w.size, _BLOCK):
        np.add(base, integrals_at_many(im, w[s:s + _BLOCK]).real, out=pos[s:s + _BLOCK])
    return SurfaceMesh(mesh, pos)


# ---- planar predicates ----


def _edge_vectors(z: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z1 - z0 and z2 - z0 of each triangle (z0, z1, z2), each corner gathered once."""
    a = z.take(triangles[:, 0])
    u, w = z.take(triangles[:, 1]), z.take(triangles[:, 2])
    u -= a
    w -= a
    return u, w


def _signed_areas(z: np.ndarray, triangles: np.ndarray, edges: tuple | None = None) -> np.ndarray:
    """Signed area of each triangle; edges, if given, are its _edge_vectors."""
    u, w = _edge_vectors(z, triangles) if edges is None else edges
    area = u.real * w.imag
    area -= u.imag * w.real
    area *= 0.5
    return area


def _orientation(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sign (-1, 0 or 1) of (b - a) x (c - a) for complex point arrays, exact: a float
    result within its rounding bound is decided again over the integers of _dyadic."""
    u, v = b - a, c - a
    left, right = u.real * v.imag, u.imag * v.real
    det = left - right
    sign = np.sign(det)
    unsure = np.flatnonzero(~(np.abs(det) > _ORIENT_REL * (np.abs(left) + np.abs(right)) + _ORIENT_ABS))
    for k in unsure:
        (ax, ay, bx, by, cx, cy), _ = _dyadic([t for z in (a[k], b[k], c[k]) for t in (z.real, z.imag)])
        exact = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        sign[k] = (exact > 0) - (exact < 0)
    return sign


def _offsets(count: np.ndarray, first=0) -> np.ndarray:
    """first[g], ..., first[g] + count[g] - 1 for each run g in turn (with first = 0,
    the index of each entry of np.repeat(..., count) within its run)."""
    return np.arange(int(count.sum())) + np.repeat(first - np.cumsum(count) + count, count)


def _boundary_simple(z: np.ndarray) -> bool:
    """No contact between non-adjacent edges of the closed polyline z (complex).

    Contact is a proper crossing (strict orientation signs both ways) or an
    endpoint collinear with another edge and inside its closed bounding box.
    Orientation signs are exact (_orientation), and either kind of contact
    needs the two closed boxes to meet, so only such pairs are tested.  They
    are found by exact comparisons alone: with the edges stably sorted by
    their boxes' left ends, each is paired with the later edges whose left
    end is at or before its right end, which finds each pair whose x ranges
    meet, once, and the pairs whose y ranges also meet are kept.  Work
    and memory are linear in the edges plus the pairs that meet in x, and
    quadratic only when many edges share one x range (a 2048-edge square
    with 512 collinear edges a side traces 13.5 MB).
    A polyline with a non-finite point is not certified simple.
    """
    m = z.size
    if m < 4:  # every pair of edges is adjacent
        return True
    if not np.all(np.isfinite(z)):
        return False
    a, b = z, np.roll(z, -1)
    pa = np.column_stack([a.real, a.imag])  # box coordinates, (m, 2)
    pb = np.roll(pa, -1, axis=0)
    lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)

    # every pair (p, q), p < q, of sorted positions whose x ranges meet
    order = np.argsort(lo[:, 0], kind="stable")
    later = np.searchsorted(lo[order, 0], hi[order, 0], side="right") - np.arange(m) - 1
    p = np.repeat(np.arange(m), later)
    i, j = order[p], order[p + 1 + _offsets(later)]
    gap = np.abs(j - i)
    keep = (gap > 1) & (gap != m - 1) & (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1])
    i, j = i[keep], j[keep]

    def cross(e, f):  # orientation of f's endpoints against edge e
        return _orientation(a[e], b[e], a[f]), _orientation(a[e], b[e], b[f])

    def inside(x, e):
        return np.all((x >= lo[e]) & (x <= hi[e]), axis=1)

    d1, d2 = cross(i, j)
    e1, e2 = cross(j, i)
    proper = ((d1 > 0) & (d2 < 0) | (d1 < 0) & (d2 > 0)) & ((e1 > 0) & (e2 < 0) | (e1 < 0) & (e2 > 0))
    contact = (
        proper
        | (d1 == 0) & inside(pa[j], i)
        | (d2 == 0) & inside(pb[j], i)
        | (e1 == 0) & inside(pa[i], j)
        | (e2 == 0) & inside(pb[i], j)
    )
    return not bool(np.any(contact))


def _claim(v: np.ndarray, t: np.ndarray, cell: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """The pairs (t, cell) whose grid point the triangle v[t] holds: its exact sign (_orientation)
    against every edge a -> b is positive, or zero with b.y < a.y, or b.y == a.y and b.x > a.x."""
    q = xs[cell // ys.size] + 1j * ys[cell % ys.size]
    for e in range(3):
        a, b = v[t, e], v[t, (e + 1) % 3]
        sign = _orientation(a, b, q)
        keep = (sign > 0) | (sign == 0) & ((b.imag < a.imag) | (b.imag == a.imag) & (b.real > a.real))
        t, cell, q = t[keep], cell[keep], q[keep]
    return t, cell


def _locate(z: np.ndarray, triangles: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Which of the triangles over the points z (complex, not overlapping)
    holds each grid point (xs[i], ys[j]), xs and ys ascending: the one whose
    exact signs against its edges are positive, or zero where the point moved
    by (+e, +e^2), e infinitesimal, is inside (_claim).  So a point on a shared
    edge or vertex lies in one triangle, one on the union's rim is inside iff
    the moved point is, and a clockwise or zero-area triangle holds none.

    Most points are placed by float spans, one per triangle and grid column
    x.  A triangle lies above the line of each edge that runs right and below
    that of each edge that runs left.  Each line is evaluated as P.y +
    (x - P.x) m, P the edge's first corner and m its slope, with a margin
    d = 2^-40 (|P.y| + w |m|) + 2^-960, w the triangle's width: about 10^3
    times the value's rounding bound.  If the float area is certainly
    positive and no slope underflowed, rows more than d outside one line are
    not the triangle's, and the others are, unless a margin band holds one.
    Only then do they get the exact test, as do the bounding box's rows on a
    column with non-finite line data (on every column when an edge is
    vertical) and of every other triangle.  Work is linear in
    triangle-columns plus hits, in blocks of _LOCATE_BLOCK triangles.

    Returns the triangle of each grid point, flat at i * ys.size + j, or -1
    where none holds it (int32, 4 B a grid point).  Raises ValueError if a
    point lies in two triangles (they overlap).
    """
    owner, hits = np.full(xs.size * ys.size, -1, dtype=np.int32), 0
    for start in range(0, triangles.shape[0] if owner.size else 0, _LOCATE_BLOCK):  # an empty grid: none
        tri = triangles[start:start + _LOCATE_BLOCK]
        vx, vy = z.real.take(tri.T), z.imag.take(tri.T)  # (3, k): corner, triangle
        x0, x1 = vx.min(axis=0), vx.max(axis=0)
        i0 = np.searchsorted(xs, x0)
        cols = np.searchsorted(xs, x1, side="right") - i0
        t, i = np.repeat(np.arange(tri.shape[0]), cols), _offsets(cols, i0)  # triangle, column
        ex, ey = vx[[1, 2, 0]] - vx, vy[[1, 2, 0]] - vy  # edge e runs from corner e to corner e + 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = ey / ex
            slope[(np.abs(slope) < np.finfo(float).tiny) & (ey != 0)] = np.nan  # underflowed
            left, right = ex[0] * ey[1], ey[0] * ex[1]  # twice the area and its bound, as in _orientation
            slope[:, ~(left - right > _ORIENT_REL * (np.abs(left) + np.abs(right)) + _ORIENT_ABS)] = np.nan
            margin = _LINE_REL * (np.abs(vy) + (x1 - x0) * np.abs(slope)) + _LINE_ABS
            # (3, columns) in C order, for the reductions over axis 0
            line = vy.take(t, axis=1) + (xs[i] - vx.take(t, axis=1)) * slope.take(t, axis=1)
            margin = margin.take(t, axis=1)
            below, above = line - margin, line + margin
            up = (ex > 0).take(t, axis=1)  # the triangle lies above the line
            lo_out = np.where(up, below, -np.inf).max(axis=0)
            lo_in = np.where(up, above, -np.inf).max(axis=0)
            hi_in = np.where(up, np.inf, below).min(axis=0)
            hi_out = np.where(up, np.inf, above).min(axis=0)
            ok = np.isfinite(lo_out + lo_in + hi_in + hi_out)
        out0, out1 = np.searchsorted(ys, lo_out), np.searchsorted(ys, hi_out, side="right")  # not surely out
        exact = ~ok | (ys.take(out0, mode="clip") <= lo_in) | (ys.take(out1 - 1, mode="clip") >= hi_in)
        count = np.where(exact, 0, out1 - out0)
        cell = _offsets(count, i * ys.size + out0)
        owner[cell] = start + np.repeat(t, count)
        hits += cell.size
        if (e := np.flatnonzero(exact)).size:
            bad = e[~ok[e]]  # without float spans: the bounding box
            out0[bad] = np.searchsorted(ys, vy.take(t[bad], axis=1).min(axis=0))
            out1[bad] = np.searchsorted(ys, vy.take(t[bad], axis=1).max(axis=0), side="right")
            count = out1[e] - out0[e]
            cell = _offsets(count, i[e] * ys.size + out0[e])
            t, cell = _claim(z[tri], np.repeat(t[e], count), cell, xs, ys)
            owner[cell] = start + t
            hits += cell.size
    if np.count_nonzero(owner >= 0) != hits:
        raise ValueError("a grid point lies in two triangles (they overlap)")
    return owner


def _barycentric(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Barycentric weights (3, k) of the points q (k,) in the triangles whose
    corners are the rows of v (3, k), complex: the weight of corner e is the
    cross product Im(conj(c_f) c_g) of the two others about q, f = e + 1 and
    g = e + 2 (mod 3), over the sum (w0 + w1) + w2.  The complex product is
    kept: numpy may fuse its multiply-add, which x_f y_g - y_f x_g would not."""
    c = v - q
    w = np.empty(v.shape)
    for e in range(3):
        w[e] = np.imag(np.conj(c[(e + 1) % 3]) * c[(e + 2) % 3])
    w /= (w[0] + w[1]) + w[2]
    return w


# ---- projection certification ----


@dataclass(frozen=True)
class GraphReport:
    """Certificate that a sampled surface projects injectively to the plane."""

    min_projected_triangle_area: float
    boundary_simple: bool
    boundary_convexity_defect: float
    injective: bool
    is_convex_domain: bool

    def to_obj(self) -> dict:
        return asdict(self)


def _report_from_points(z: np.ndarray, param: ParamMesh) -> GraphReport:
    # The areas, _BLOCK triangles at a time, reduced to whether all are
    # finite, the least |area| and the least area.  These reductions are
    # exact, so the blocks give the whole-mesh values, and no verdict is
    # taken before the last block.
    t = param.triangles
    finite, least_abs, min_area = bool(np.all(np.isfinite(z))), np.inf, np.inf
    for s in range(0, t.shape[0], _BLOCK):
        areas = _signed_areas(z, t[s:s + _BLOCK])
        finite = finite and bool(np.all(np.isfinite(areas)))
        least_abs = min(least_abs, float(np.min(np.abs(areas))))
        min_area = min(min_area, float(areas.min()))
    if not finite:
        raise FloatRangeError("projected points or triangle areas are not finite floats")
    x, y = z.real, z.imag
    scale = max(float(x.max() - x.min()), float(y.max() - y.min()), 1e-300)
    if least_abs <= _AREA_EPS * scale * scale:
        raise DegenerateTriangle("projected triangle area below degeneracy threshold")

    cycle = z[param.boundary]
    simple = _boundary_simple(cycle)
    after, later = np.roll(cycle, -1), np.roll(cycle, -2)
    e, en = after - cycle, later - after
    defect = float(np.min(e.real * en.imag - e.imag * en.real))
    # A rim that turns strictly left at every vertex (exact signs) winds k >= 1
    # times around, and it meets a non-adjacent edge iff k > 1: so it is
    # convex iff it is also simple.
    left = bool(np.all(_orientation(cycle, after, later) > 0))

    return GraphReport(
        min_projected_triangle_area=min_area,
        boundary_simple=simple,
        boundary_convexity_defect=defect,
        injective=bool(min_area > 0 and simple),
        is_convex_domain=left and simple,
    )


def projection_report(mesh: SurfaceMesh) -> GraphReport:
    """Certify injectivity and convexity of the horizontal projection.

    Positive orientation of every projected triangle makes the projection a
    local diffeomorphism; combined with a simple projected boundary this
    certifies global injectivity for a disk-type mesh.
    """
    return _report_from_points(mesh.positions[:, :2].copy().view(complex)[:, 0], mesh.param)


# ---- the headline pipeline ----


@dataclass(frozen=True)
class KrustReport:
    domain_report: GraphReport
    conjugate_report: GraphReport
    verdict: str

    def to_obj(self) -> dict:
        return asdict(self)


def _verdict(domain: GraphReport, conjugate: GraphReport) -> str:
    if not (domain.injective and domain.is_convex_domain):
        return NOT_APPLICABLE
    return PASS if conjugate.injective else FAIL


def krust_pipeline(im: Immersion, n: int = 64) -> KrustReport:
    """Certify "graph over a convex domain implies the conjugate is a graph"
    for one immersion, sampled at n rings: both certificates read the
    projections of one mesh (_projections).
    """
    mesh = triangulate_disk(im.domain_radius, n)
    p, q = _projections(im, mesh.vertices)
    domain = _report_from_points(p, mesh)
    conjugate = _report_from_points(q, mesh)
    return KrustReport(domain, conjugate, _verdict(domain, conjugate))


# ---- Newton continuation in the projection plane ----


def _projections(im: Immersion, w) -> tuple[np.ndarray, np.ndarray]:
    """pi(X) and pi(X*) at the parameters w (1-d) as complex arrays: with I_k the
    integral of psi_k from the base point w0, pi(X) = X(w0)_1 + Re I1 +
    i (X(w0)_2 + Re I2) and pi(X*) = Im I1 + i Im I2.  Formed _BLOCK
    points at a time; in each block psi1 and psi2 share their pole logarithms."""
    w = np.asarray(w, dtype=complex)
    p, q = np.empty_like(w), np.empty_like(w)
    for s in range(0, w.size, _BLOCK):
        block, logs = w[s:s + _BLOCK], {}
        pb, qb = p[s:s + _BLOCK], q[s:s + _BLOCK]
        i = integrate_to_many(im.curve.psi1, im.base_point, block, logs)
        np.add(im.base_value.x1, i.real, out=pb.real)  # each part one IEEE sum or copy
        qb.real = i.imag
        i = integrate_to_many(im.curve.psi2, im.base_point, block, logs)
        np.add(im.base_value.x2, i.real, out=pb.imag)
        qb.imag = i.imag
    return p, q


def _pull_back(im: Immersion, w, target) -> np.ndarray:
    """Parameters beta with pi(X(beta)) = target: plain Newton from w, each point
    stepped until its own residual is within _TOL, so a point's beta does not
    depend on the points beside it.  pi(X) has _projections' bits: F_k(w0) is
    formed once, and psi1 and psi2 share the pole logarithms of each iterate.
    No step is halved: across a non-convex dent no step size has a preimage.
    A seed outside the domain disk raises DomainError.  Raises NewtonDivergence
    when an iterate or a residual is not finite, an iterate leaves the domain
    disk (nothing is evaluated outside it), the projected differential is
    singular at a point being stepped, or _NEWTON_ITERS steps do not converge."""
    psi1, psi2 = im.curve.psi1, im.curve.psi2
    base = np.asarray(im.base_point, dtype=complex)  # as integrate_to_many forms F_k(w0)
    f1, f2 = psi1.primitive(base), psi2.primitive(base)
    x1, x2 = im.base_value.x1, im.base_value.x2
    radius = im.domain_radius * (1.0 + 1e-12)
    beta = np.array(w, dtype=complex)
    flat = w = beta.reshape(-1)  # w: the iterates of the points not yet converged
    t = np.broadcast_to(np.asarray(target, dtype=complex), beta.shape).reshape(-1)
    live = np.arange(w.size)  # their indices in flat
    size = float(np.max(np.abs(w), initial=0.0))
    if not np.isfinite(size):
        raise NewtonDivergence("a Newton seed is not finite")
    if size > radius:
        raise DomainError("segment endpoint outside validity disk")
    for _ in range(_NEWTON_ITERS):
        logs, p = {}, np.empty_like(w)
        np.add(x1, (psi1.primitive(w, logs) - f1).real, out=p.real)  # as _projections
        np.add(x2, (psi2.primitive(w, logs) - f2).real, out=p.imag)
        r = p - t
        err = np.abs(r)
        if not np.isfinite(np.max(err, initial=0.0)):
            raise NewtonDivergence("a Newton residual is not finite")
        keep = err > _TOL
        if not keep.any():
            return beta
        live, w, t, r = live[keep], w[keep], t[keep], r[keep]
        v1 = psi1._eval(w)
        v2 = psi2._eval(w)
        a = 0.5 * (v1 + 1j * v2)
        bc = 0.5 * np.conj(v1 - 1j * v2)
        det = np.abs(a) ** 2 - np.abs(bc) ** 2
        if float(np.min(np.abs(det))) < 1e-300:
            raise NewtonDivergence("projected differential is singular")
        # np.multiply, as bc * np.conj(r) above 256 KiB runs in the temporary's
        # memory as conj(r) * bc, and a fused complex product rounds apart
        w = w + (-np.conj(a) * r + np.multiply(bc, np.conj(r))) / det
        size = float(np.max(np.abs(w)))
        if not np.isfinite(size):
            raise NewtonDivergence("a Newton iterate is not finite")
        if size > radius:
            raise NewtonDivergence("a Newton iterate left the domain disk "
                                   "(the pulled-back path leaves the domain)")
        flat[live] = w
    raise NewtonDivergence(f"no convergence in {_NEWTON_ITERS} Newton steps")


# ---- grid resampling and the graph-duality comparison ----


@dataclass(frozen=True)
class ResampledGraph:
    """A sampled maximal graph and the height of its Euclidean dual at the
    same horizontal points (third-component twist of the same integrals)."""

    field: ScalarField
    dual_height: ScalarField


def _erode(mask: np.ndarray, rounds: int) -> np.ndarray:
    out = mask.copy()
    for _ in range(rounds):
        nxt = out.copy()
        nxt[1:, :] &= out[:-1, :]
        nxt[:-1, :] &= out[1:, :]
        nxt[:, 1:] &= out[:, :-1]
        nxt[:, :-1] &= out[:, 1:]
        nxt[0, :] = nxt[-1, :] = nxt[:, 0] = nxt[:, -1] = False
        out = nxt
    return out


def _resample_grid(rim: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """resample_graph's grid xs, ys of spacing h, a cell beyond the rim's box.  Raises ValueError
    before allocating them if h is not finite and positive or they pass _MAX_CELLS points."""
    h = float(h)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"grid spacing must be finite and positive, got {h!r}")
    with np.errstate(over="ignore"):
        box = np.array([rim.real.min(), rim.imag.min(), rim.real.max(), rim.imag.max()]) / h
    lo, hi = np.floor(box[:2]) - 1, np.ceil(box[2:]) + 1
    if not (size := float(np.prod(hi - lo + 1))) <= _MAX_CELLS:
        raise ValueError(f"a grid of spacing {h!r} has {size:.3g} points, above {_MAX_CELLS}")
    (i0, j0), (i1, j1) = lo.astype(int), hi.astype(int)
    return h * np.arange(i0, i1 + 1), h * np.arange(j0, j1 + 1)


def resample_graph(data: WeierstrassData, grid_h: float) -> ResampledGraph:
    """Resample x3 as a function of (x1, x2) on a grid inside the projected
    domain (eroded by two cells), by Newton inversion of the projection.

    One raster pass (_locate) puts each grid point in the projected triangle
    of a 48-ring sampled mesh that holds it, with exact orientation signs and
    a tie rule that gives a point on an edge or vertex one triangle.  The hit
    cells are the mask, and Newton starts from the barycentric combination of
    the triangle's parameter vertices.  The mask's points, in np.nonzero
    order, are pulled back and integrated in blocks of _BLOCK (8192), so the
    working set does not grow with the grid; each point's Newton stops at its
    own _TOL, so its height does not depend on the block it falls in.

    Heights are exact up to the Newton tolerance: the grid carries no
    interpolation error, only its own later finite-difference error.
    """
    im = immersion_from_data(data)
    mesh = triangulate_disk(data.domain_radius, _RESAMPLE_MESH_N)
    p = _projections(im, mesh.vertices)[0]
    if not _report_from_points(p, mesh).injective:
        raise NotAGraph("projection of the sampled surface is not injective")

    xs, ys = _resample_grid(p[mesh.boundary], grid_h)
    owner = _locate(p, mesh.triangles, xs, ys)
    mask = _erode((owner >= 0).reshape(xs.size, ys.size), _RESAMPLE_MARGIN_CELLS)
    if not mask.any():
        raise OverlapEmpty("no grid cells inside the projected domain at this spacing")

    f = np.zeros(mask.shape)
    s = np.zeros(mask.shape)
    flat = np.flatnonzero(mask)
    for start in range(0, flat.size, _BLOCK):
        k = flat[start:start + _BLOCK]
        i, j = np.divmod(k, ys.size)
        target = xs[i] + 1j * ys[j]
        corners = mesh.triangles[owner[k]].T
        w, v = _barycentric(p[corners], target), mesh.vertices[corners]
        beta = _pull_back(im, (w[0] * v[0] + w[1] * v[1]) + w[2] * v[2], target)
        i3 = integrate_to_many(im.curve.psi3, im.base_point, beta)
        f.flat[k] = data.base_value.x3 + i3.real
        s.flat[k] = -i3.imag  # third component of the Euclidean dual: Re(i * I3)
    origin, h = (float(xs[0]), float(ys[0])), float(grid_h)
    return ResampledGraph(ScalarField(origin, h, f, mask), ScalarField(origin, h, s, mask))


def lee_equivalence_check(data: WeierstrassData, grid_h: float) -> float:
    """Max-norm gap (after the optimal vertical shift) between the grid-level
    dual of the resampled graph and the exact height of the isotropic-curve
    dual; O(grid_h^2) when the two constructions agree."""
    rs = resample_graph(data, grid_h)
    grid_dual = dualize_maximal_to_minimal(rs.field, curl_tol=_LEE_CURL_TOL)
    return shift_agreement(grid_dual, rs.dual_height)
