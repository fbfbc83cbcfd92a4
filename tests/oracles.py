"""Independent oracles for the test suite.

Everything here is computed by a route disjoint from the package internals:
closed-form antiderivatives, composite Simpson quadrature on dense nodes,
loop and all-pairs forms of the mesh build and planar predicates, row-by-row
forms of the text writers and reader, the writer's Python formatting of a
chunk of rows, one expression per finite-difference rule, the full-grid
sweeps of the tree integration, the grid dual as first
written on those sweeps and the per-axis edge data, the earlier forms of
routines rewritten for speed (signed areas and the report span, half-edge
pairing, per-form pole logarithms; the report oracle reuses the package's
rim simplicity test), an exact rim convexity test in Fraction arithmetic,
the projections in their earlier table and sum forms, the point location
that the raster pass replaced, the barycentric weights with their columns
rolled into place, and hand-derived constants for the built-in catalog
families.  Tests compare package output
against these, never against the package itself.  The vector field,
gradient and flux curl helpers are fixtures on the package's derivative
layer, and the causal character, stereographic projection and coefficient
equivalence are test-only helpers, not oracles.  So are the Krust inequality,
which continues the package's pull-back along plane segments, and the folded
control mesh.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from maxsurf.errors import (
    AmbientMismatch,
    CurlError,
    DegenerateMask,
    DegenerateTriangle,
    FloatRangeError,
    MaxsurfError,
    NotSimplyConnected,
    NotSpacelike,
)
from maxsurf.graphfield import (
    ScalarField,
    _axis_derivative,
    _EdgeData,
    _plaquette_divergence,
    _validate_mask,
)
from maxsurf.lorentz import Ambient, Vec3, inner
from maxsurf.meshcheck import (
    _AREA_EPS,
    GraphReport,
    SurfaceMesh,
    _boundary_simple,
    _offsets,
    _orientation,
    _projections,
    _pull_back,
    triangulate_disk,
)
from maxsurf.rational import _padd
from maxsurf.weierstrass import Immersion, WeierstrassData, immersion_from_data


def simpson_line(func, a: complex, b: complex, n: int = 4096) -> complex:
    """Composite Simpson rule for int_a^b func(z) dz on the straight segment.

    n must be even; func takes a complex ndarray.  For analytic integrands the
    error is O((|b-a|/n)^4), far below test tolerances at n = 4096.
    """
    if n % 2:
        raise ValueError("n must be even")
    t = np.linspace(0.0, 1.0, n + 1)
    z = a + (b - a) * t
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((b - a) / (3.0 * n) * np.sum(w * func(z)))


def polyval_ascending(coeffs, z):
    """Evaluate sum coeffs[k] z^k (independent of the package evaluator)."""
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(list(coeffs)):
        out = out * z + c
    return out


def poly_antiderivative(coeffs):
    """Ascending coefficients of the antiderivative with zero constant term."""
    return [0.0] + [c / (k + 1.0) for k, c in enumerate(coeffs)]


# ---- closed forms for the catalog families (dh = dz, base point 0) ----
#
# sigma(w) = -1/2 int_0^w g dz, tau(w) = 1/2 int_0^w dz/g.


def sigma_tau_plane(w: complex, c: float = 2.0) -> tuple[complex, complex]:
    return -c * w / 2.0, w / (2.0 * c)


def sigma_tau_shift(w: complex, c: float) -> tuple[complex, complex]:
    # g = z + c
    return -(w * w / 4.0 + c * w / 2.0), 0.5 * cmath.log((w + c) / c)


def sigma_tau_rational(w: complex) -> tuple[complex, complex]:
    # g = (3 + z)/(1 - z/5):  3 + z = -5(1 - z/5) + 8  and  1 - z/5 = (8/5 - (3+z)/5)
    s = 2.5 * w + 20.0 * cmath.log(1.0 - 0.2 * w)
    t = 0.8 * cmath.log((3.0 + w) / 3.0) - 0.1 * w
    return s, t


def maximal_psi_plane(c: float = 2.0) -> tuple[complex, complex, complex]:
    """Constant densities of the g == c, dh = dz maximal datum."""
    return 0.5 * (1.0 / c + c), 0.5j * (1.0 / c - c), -1.0


def plane_immersion_point(w: complex, c: float = 2.0) -> np.ndarray:
    p1, p2, p3 = maximal_psi_plane(c)
    return np.array([(p1 * w).real, (p2 * w).real, (p3 * w).real])


def plane_conjugate_point(w: complex, c: float = 2.0) -> np.ndarray:
    p1, p2, p3 = maximal_psi_plane(c)
    return np.array([(p1 * w).imag, (p2 * w).imag, (p3 * w).imag])


# Krust inequality for the plane datum between w1 = 0 and w2 = 1:
# both sides equal (c^2 - 1/c^2)/4 = 15/16 for c = 2.
PLANE_KRUST_BOTH_SIDES = 15.0 / 16.0


# ---- graph-PDE oracles: the catenoid/helicoid conjugate pair ----
#
# catenoid height arccosh(r) has normalized-gradient rotation equal to
# D atan2(y, x); helicoid height atan2(y, x) maps to -D arcsinh(r).


def catenoid_height(x, y):
    r = np.hypot(x, y)
    return np.arccosh(r)


def catenoid_dual_height(x, y):
    return np.arctan2(y, x)


def helicoid_height(x, y):
    return np.arctan2(y, x)


def helicoid_dual_height(x, y):
    return -np.arcsinh(np.hypot(x, y))


def disk_vertex_count(n: int) -> int:
    return 1 + 3 * n * (n + 1)


def disk_triangle_count(n: int) -> int:
    return 6 * n * n


# ---- brute-force mesh and planar-predicate oracles ----
#
# Straightforward loop and all-pairs forms of the package's triangulation and
# predicates; the package versions must agree with these bit for bit.


def merge_walk_disk(radius: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of the concentric-ring disk, built triangle by
    triangle with a merge walk by angle between consecutive rings."""

    def ring_start(k):
        return 1 + 3 * k * (k - 1)

    verts = [0.0 + 0.0j]
    for k in range(1, n + 1):
        ang = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        verts.append((radius * k / n) * np.exp(1j * ang))
    vertices = np.concatenate([np.atleast_1d(np.asarray(a)) for a in verts])

    tris = [(1 + j, 1 + (j + 1) % 6, 0) for j in range(6)]
    for k in range(2, n + 1):
        inner, m = ring_start(k - 1), 6 * (k - 1)
        outer, mm = ring_start(k), 6 * k
        i = o = 0
        while i < m or o < mm:
            if o < mm and (i == m or (o + 1) * m <= (i + 1) * mm):
                tris.append((outer + o % mm, outer + (o + 1) % mm, inner + i % m))
                o += 1
            else:
                tris.append((inner + (i + 1) % m, inner + i % m, outer + o % mm))
                i += 1
    return vertices, np.array(tris, dtype=int)


def triangulate_disk_uncached(radius: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices, triangles and boundary of the n-ring disk, built in full on
    every call by the vectorized merge walk (the mesh build as it stood
    before meshes shared one topology per n), unvalidated."""

    def ring_start(k):
        return 1 + 3 * k * (k - 1)

    def ring_triangles(k):
        inner, m = ring_start(k - 1), 6 * (k - 1)
        outer, mm = ring_start(k), 6 * k
        keys = np.concatenate([np.arange(1, mm + 1) * m, np.arange(1, m + 1) * mm])
        is_outer = np.argsort(keys, kind="stable") < mm
        o = np.cumsum(is_outer) - is_outer
        i = np.cumsum(~is_outer) - ~is_outer
        return np.column_stack([
            np.where(is_outer, outer + o % mm, inner + (i + 1) % m),
            np.where(is_outer, outer + (o + 1) % mm, inner + i % m),
            np.where(is_outer, inner + i % m, outer + o % mm),
        ])

    verts = [np.zeros(1, dtype=complex)]
    for k in range(1, n + 1):
        ang = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        verts.append((radius * k / n) * np.exp(1j * ang))
    first = np.arange(6)
    tris = [np.column_stack([1 + first, 1 + (first + 1) % 6, np.zeros(6, dtype=int)])]
    tris += [ring_triangles(k) for k in range(2, n + 1)]
    boundary = np.arange(ring_start(n), ring_start(n) + 6 * n)
    return np.concatenate(verts), np.concatenate(tris), boundary


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def boundary_simple_all_pairs(pts: np.ndarray) -> bool:
    """No contact between non-adjacent edges of the closed polyline, with every
    pair of edges tested through (m, m) arrays."""
    m = pts.shape[0]
    a = pts
    b = np.roll(pts, -1, axis=0)
    d1 = _cross2(b[:, None] - a[:, None], a[None, :] - a[:, None])
    d2 = _cross2(b[:, None] - a[:, None], b[None, :] - a[:, None])
    proper = (d1 > 0) & (d2 < 0) | (d1 < 0) & (d2 > 0)
    proper &= proper.T

    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    on_a = (d1 == 0) & np.all((a[None, :] >= lo[:, None]) & (a[None, :] <= hi[:, None]), axis=2)
    on_b = (d2 == 0) & np.all((b[None, :] >= lo[:, None]) & (b[None, :] <= hi[:, None]), axis=2)
    contact = proper | on_a | on_b | on_a.T | on_b.T

    i = np.arange(m)
    diff = np.abs(i[:, None] - i[None, :])
    adjacent = (diff <= 1) | (diff == m - 1)
    return not bool(np.any(contact & ~adjacent))


def boundary_simple_exact(pts: np.ndarray) -> bool:
    """boundary_simple_all_pairs in rational arithmetic: a loop over every
    non-adjacent pair of edges with Fraction coordinates, so no orientation
    sign is rounded."""
    m = pts.shape[0]
    p = [(Fraction(float(x)), Fraction(float(y))) for x, y in pts]

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    def in_box(c, a, b):
        return all(min(a[k], b[k]) <= c[k] <= max(a[k], b[k]) for k in (0, 1))

    for i in range(m):
        for j in range(i + 2, m - (i == 0)):
            a, b, c, d = p[i], p[(i + 1) % m], p[j], p[(j + 1) % m]
            d1, d2, e1, e2 = orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b)
            if d1 * d2 < 0 and e1 * e2 < 0:
                return False
            touching = [(d1, c, a, b), (d2, d, a, b), (e1, a, c, d), (e2, b, c, d)]
            if any(s == 0 and in_box(x, lo, hi) for s, x, lo, hi in touching):
                return False
    return True


def in_polygon_ray_cast(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray casting toward +x, every point against every edge."""
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    px = px[:, None]
    py = py[:, None]
    straddles = (y0[None, :] <= py) != (y1[None, :] <= py)
    dy = np.where(y1 - y0 == 0, 1.0, y1 - y0)
    xint = x0[None, :] + (py - y0[None, :]) * ((x1 - x0) / dy)[None, :]
    return (np.sum(straddles & (px < xint), axis=1) % 2) == 1


def in_polygon_exact(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """in_polygon_ray_cast with each crossing decided exactly: a point is
    inside iff an odd number of edges have exactly one endpoint with y <= py
    and cross that row strictly right of px, as for the point moved by
    (+e, +e^2), e infinitesimal.

    Every point meets every edge (in chunks of points).  Crossing edge
    (x0, y0) -> (x1, y1) right of px has the sign of
    D = (x0 - px)(y1 - y0) + (py - y0)(x1 - x0) times that of y1 - y0.  The
    float D is off by under 1e-15 of |x0 - px||y1 - y0| + |py - y0||x1 - x0|;
    a D within 1e-9 of that is recomputed with Fraction coordinates.
    """
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    inside = np.zeros(px.size, dtype=bool)
    for s in range(0, px.size, 4096):
        x, y = px[s:s + 4096, None], py[s:s + 4096, None]
        straddles = (y0 <= y) != (y1 <= y)
        left, right = (x0 - x) * (y1 - y0), (y - y0) * (x1 - x0)
        d = left + right
        sign = np.sign(d)
        for p, e in np.argwhere(straddles & ~(np.abs(d) > 1e-9 * (np.abs(left) + np.abs(right)))):
            fx, fy, a0, b0, a1, b1 = (Fraction(float(v)) for v in (x[p, 0], y[p, 0], x0[e], y0[e], x1[e], y1[e]))
            exact = (a0 - fx) * (b1 - b0) + (fy - b0) * (a1 - a0)
            sign[p, e] = (exact > 0) - (exact < 0)
        right_of = sign * np.sign(y1 - y0) > 0
        inside[s:s + 4096] = np.sum(straddles & right_of, axis=1) % 2 == 1
    return inside


# ---- point location before one raster pass ----
#
# The scanline in-domain test and the bucketed nearest-vertex search that
# resample_graph used before meshcheck._locate: references for its masks
# and for the heights Newton reaches from other seeds.  And _locate as first
# written, testing every grid point in each triangle's bounding box: the
# reference for its float spans.


def in_polygon_scanline(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray casting toward +x; poly complex (m,) finite, implicitly closed.

    Scanline form: the edge crossings of each distinct row py are computed
    once, and a point is inside iff an odd number of its row's crossings lie
    strictly right of px.  Edge e crosses row y iff exactly one endpoint has
    y_k <= y, i.e. min(y0, y1) <= y < max(y0, y1), which selects the rows of
    each edge by binary search.  Memory is linear in points plus crossings.
    """
    x0, y0 = poly.real, poly.imag
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    rows, row = np.unique(py, return_inverse=True)
    first = np.searchsorted(rows, np.minimum(y0, y1))
    count = np.searchsorted(rows, np.maximum(y0, y1)) - first
    edge = np.repeat(np.arange(x0.size), count)
    r = np.repeat(first, count) + _offsets(count)
    dy = np.where(y1 - y0 == 0, 1.0, y1 - y0)
    xint = x0[edge] + (rows[r] - y0[edge]) * ((x1 - x0) / dy)[edge]

    # rank the crossings among their distinct values, so (row, x) orders as
    # one integer key row * width + rank; px maps to the count of values <= px
    values = np.unique(xint)
    width = values.size + 1
    keys = np.sort(r * width + np.searchsorted(values, xint))
    right = np.searchsorted(keys, (row + 1) * width) - np.searchsorted(
        keys, row * width + np.searchsorted(values, px, side="right")
    )
    return right % 2 == 1


def nearest_vertex_bucketed(points: np.ndarray, triangles: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the projected mesh vertex nearest to each target (complex
    arrays; ties go to the lower index), for targets inside an injectively
    projected mesh.

    Vertices are bucketed on a square grid of spacing reach and only the
    3 x 3 buckets around a target are searched.  That is exact: every target
    lies in some projected triangle, and a point of a triangle lies within
    (longest edge)/sqrt(3) of one of its vertices, so the nearest vertex is
    closer than reach and sits in a neighbouring bucket.

    first[k] counts the vertices with bucket key x * width + y below k, so the
    buckets (x + dx, y - 1 .. y + 1) are the run first[key - 1] : first[key + 2]
    of the key-sorted vertices.  The three runs (dx = -1, 0, 1) are searched
    one at a time; each run's best distance and lowest index at it merge into
    the running pair.  The table is indexed without a search, so a target
    outside the mesh's buckets raises ValueError.
    """
    edges = points[triangles] - points[np.roll(triangles, 1, axis=1)]
    reach = float(np.max(np.abs(edges))) / np.sqrt(3.0) * (1.0 + 1e-9)
    corner = complex(points.real.min(), points.imag.min())

    def bucket(z):
        z = (z - corner) / reach
        return np.floor(z.real).astype(np.int64) + 1, np.floor(z.imag).astype(np.int64) + 1

    bx, by = bucket(points)
    width = int(by.max()) + 3
    keys = bx * width + by
    order = np.argsort(keys)
    first = np.cumsum(np.bincount(keys + 1, minlength=(int(bx.max()) + 2) * width))
    tx, ty = bucket(targets)
    if np.any((tx < 1) | (tx > bx.max()) | (ty < 1) | (ty > by.max())):
        raise ValueError("targets lie outside the projected mesh")
    best = np.full(targets.size, np.inf)
    nearest = np.full(targets.size, points.size)
    for dx in (-1, 0, 1):
        key = (tx + dx) * width + ty
        start = first[key - 1]
        count = first[key + 2] - start
        owner = np.repeat(np.arange(targets.size), count)
        cand = order[np.repeat(start, count) + _offsets(count)]
        dist = np.abs(points[cand] - targets[owner])
        run_best = np.full(targets.size, np.inf)
        np.minimum.at(run_best, owner, dist)
        hit = dist == run_best[owner]
        run_nearest = np.full(targets.size, points.size)
        np.minimum.at(run_nearest, owner[hit], cand[hit])
        take = (run_best < best) | ((run_best == best) & (run_nearest < nearest))
        best = np.where(take, run_best, best)
        nearest = np.where(take, run_nearest, nearest)
    return nearest


def locate_by_candidates(z: np.ndarray, triangles: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """meshcheck._locate's owner array, with every grid point in each
    triangle's bounding box tested by exact signs and the (+e, +e^2) tie
    rule, in blocks of 2048 triangles."""
    owner = np.full(xs.size * ys.size, -1, dtype=np.int32)
    hits = 0
    for start in range(0, triangles.shape[0], 2048):
        v = z[triangles[start:start + 2048]]
        i0 = np.searchsorted(xs, v.real.min(axis=1))
        j0 = np.searchsorted(ys, v.imag.min(axis=1))
        nx = np.searchsorted(xs, v.real.max(axis=1), side="right") - i0
        ny = np.searchsorted(ys, v.imag.max(axis=1), side="right") - j0
        t = np.repeat(np.arange(v.shape[0]), nx * ny)
        k = _offsets(nx * ny)
        cell = (i0[t] + k // ny[t]) * ys.size + j0[t] + k % ny[t]
        q = xs[cell // ys.size] + 1j * ys[cell % ys.size]
        for e in range(3):
            a, b = v[t, e], v[t, (e + 1) % 3]
            sign = _orientation(a, b, q)
            keep = (sign > 0) | (sign == 0) & ((b.imag < a.imag) | (b.imag == a.imag) & (b.real > a.real))
            t, cell, q = t[keep], cell[keep], q[keep]
        owner[cell] = start + t
        hits += cell.size
    if np.count_nonzero(owner >= 0) != hits:
        raise ValueError("a grid point lies in two triangles (they overlap)")
    return owner


def barycentric_by_roll(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """meshcheck._barycentric as first written, on the (k, 3) corner layout:
    the weight of corner e is Im(conj(c_{e+1}) c_{e+2}) about q, the columns
    rolled into place, over their np.sum."""
    corner = v - q[:, None]
    w = np.imag(np.conj(np.roll(corner, -1, axis=1)) * np.roll(corner, -2, axis=1))
    return w / w.sum(axis=1, keepdims=True)


# ---- row-by-row text writers and reader ----
#
# One f-string per row and one parse per line: the package's columnar
# writers and reader must match these byte for byte and bit for bit.


def format_rows(row, rows):
    """The bytes of row % tuple(r) for each row r of the 2-d array rows, by
    Python's own formatting: the text writer's earlier form, and its byte
    oracle."""
    return ((row * len(rows)) % tuple(rows.ravel().tolist())).encode()


def write_obj_rows(path, mesh):
    """OBJ text of a SurfaceMesh: v rows with repr floats, 1-based f rows."""
    lines = [f"v {float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.positions]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.param.triangles]
    path.write_text("\n".join(lines) + "\n")


def boundary_csv_rows(path, mesh):
    """The x,y rows of export's boundary.csv."""
    cycle = mesh.positions[mesh.param.boundary]
    rows = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in cycle[:, :2]]
    path.write_text("\n".join(rows) + "\n")


def save_field_rows(f, csv_path, header_path):
    """A ScalarField as its JSON header and one x,y,value row per masked cell."""
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


def load_field_rows(csv_path, header_path):
    """(origin, spacing, values, mask) of a saved field, parsed line by line.
    The first malformed, non-finite, off-grid or repeated row raises."""
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
                x, y, v = float(xs), float(ys), float(vs)
            except ValueError as exc:
                raise ValueError(f"{csv_path}:{lineno}: expected 'x,y,value' floats") from exc
            if not all(map(math.isfinite, (x, y, v))):
                raise ValueError(f"{csv_path}:{lineno}: non-finite coordinate or value")
            fi, fj = (x - origin[0]) / h, (y - origin[1]) / h
            if not (math.isfinite(fi) and math.isfinite(fj) and 0 <= round(fi) < nx and 0 <= round(fj) < ny):
                raise ValueError(f"{csv_path}:{lineno}: point lies off the declared grid")
            i, j = round(fi), round(fj)
            if mask[i, j]:
                raise ValueError(f"{csv_path}:{lineno}: duplicate grid cell")
            values[i, j] = v
            mask[i, j] = True
    return origin, h, values, mask


# ---- the finite-difference layer with one expression per rule ----
#
# Each difference rule written out as its own integer-weight expression, and
# separate x-edge and y-edge code.  The package's rule table and single axis
# path must reproduce these arrays bit for bit.


def axis_derivative_rules(values, mask, h, axis):
    """(derivative, grade) per cell along an axis; the last applicable rule wins."""
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
        (m & dn1 & dn2 & dn3, 2, lambda: (2 * v - 7 * vm1 / 2 + 2 * vm2 - vm3 / 2) / h),
        (m & up1 & up2 & up3, 2, lambda: (-2 * v + 7 * vp1 / 2 - 2 * vp2 + vp3 / 2) / h),
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
    qual = np.where(cnt == 2, np.minimum(qa, qb), np.minimum(np.maximum(qa, qb), 1))
    return out, np.where(exist, qual, 0).astype(np.int8)


def _normalizer(d, c, exist, sign):
    s = 1.0 + sign * (d * d + c * c)
    if sign < 0 and np.any(exist & (s <= 1e-12)):
        raise NotSpacelike("|Df| >= 1 at a grid edge; field is not a spacelike graph")
    return np.sqrt(np.where(exist, np.abs(s), 1.0))


class EdgeDataPerAxis:
    """Per-edge estimates and normalizers, x-edges and y-edges coded apart."""

    def __init__(self, f, sign):
        v, m, h = f.values, f.mask, f.spacing
        self.exist_x = m[:-1, :] & m[1:, :]
        self.exist_y = m[:, :-1] & m[:, 1:]
        cy_cell, q_cy = axis_derivative_rules(v, m, h, 1)
        cx_cell, q_cx = axis_derivative_rules(v, m, h, 0)
        self.dx = np.where(self.exist_x, (v[1:, :] - v[:-1, :]) / h, 0.0)
        self.dy = np.where(self.exist_y, (v[:, 1:] - v[:, :-1]) / h, 0.0)
        self.cx, self.qx = _edge_average(cy_cell, q_cy, self.exist_x, axis=0)
        self.cy, self.qy = _edge_average(cx_cell, q_cx, self.exist_y, axis=1)
        self.nx_edge = _normalizer(self.dx, self.cx, self.exist_x, sign)
        self.ny_edge = _normalizer(self.dy, self.cy, self.exist_y, sign)
        ey, ex = self.exist_y, self.exist_x
        self.plaq = ey[:-1, :] & ey[1:, :] & ex[:, :-1] & ex[:, 1:]
        qy, qx = self.qy, self.qx
        self.supported = (
            self.plaq & (qy[:-1, :] >= 3) & (qy[1:, :] >= 3) & (qx[:, :-1] >= 3) & (qx[:, 1:] >= 3)
        )


def flux_curl_per_axis(f, kind):
    """(values, mask) of the dual field's plaquette circulation, with W
    rotated from the edge flux and negated on the x-edges."""
    sign = +1.0 if kind == "minimal" else -1.0
    e = EdgeDataPerAxis(f, sign)
    w2_on_y = (sign) * e.cy / e.ny_edge
    w1_on_x = (-sign) * e.cx / e.nx_edge
    a_on_y, b_on_x, h = w2_on_y, -w1_on_x, f.spacing
    resid = np.zeros_like(e.supported, dtype=float)
    resid[e.supported] = (
        (a_on_y[1:, :] - a_on_y[:-1, :]) / h + (b_on_x[:, 1:] - b_on_x[:, :-1]) / h
    )[e.supported]
    return resid, e.supported


# ---- the full-grid wavefront ----

# Four masked full-grid updates per sweep, repeated until nothing changes
# (cells x grid diameter).  The package's frontier form must reproduce its
# values bit for bit.


def tree_integrate_sweeps(mask, inc_x, inc_y, anchor) -> np.ndarray:
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


def dualize_reference(f, sign, curl_tol):
    """The grid dual as first written, on the per-axis edge data and the
    full-grid sweeps: sign +1 dualizes a minimal graph (and then checks that
    the result is spacelike), -1 a maximal one.  The flux, the residual and
    the increments are fresh arrays; the mask check is the package's."""
    _validate_mask(f.mask)
    e = EdgeDataPerAxis(f, sign)
    a_on_y, b_on_x, h = e.cy / e.ny_edge, e.cx / e.nx_edge, f.spacing
    resid = ((a_on_y[1:, :] - a_on_y[:-1, :]) / h + (b_on_x[:, 1:] - b_on_x[:, :-1]) / h)[e.supported]
    worst = float(np.max(np.abs(resid))) if resid.size else 0.0
    if worst > curl_tol:
        raise CurlError(f"curl certificate {worst:.3g} exceeds tolerance {curl_tol:g}")
    w1_on_x = (-sign) * e.cx / e.nx_edge
    w2_on_y = (sign) * e.cy / e.ny_edge
    anchor = np.unravel_index(np.argmax(f.mask), f.mask.shape)  # lowest-index masked cell
    vals = tree_integrate_sweeps(f.mask, h * w1_on_x, h * w2_on_y, anchor)
    out = ScalarField(f.origin, h, np.where(f.mask, vals, 0.0), f.mask)
    if sign > 0:
        EdgeDataPerAxis(out, -1.0)
    return out


# ---- test fixtures on the package's derivative layer ----
#
# Not oracles: the gradient reads graphfield._axis_derivative, which the
# rule oracle above checks, and the curl reads graphfield._EdgeData.


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


def gradient(f) -> VectorField2:
    """Central differences, one-sided at the mask boundary; affine exact."""
    gx, qx = _axis_derivative(f.values, f.mask, f.spacing, 0)
    gy, qy = _axis_derivative(f.values, f.mask, f.spacing, 1)
    if np.any(f.mask & (qx == 0)) or np.any(f.mask & (qy == 0)):
        raise DegenerateMask("a masked cell has no masked neighbor on a needed axis")
    return VectorField2(f.origin, f.spacing, gx, gy, f.mask)


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



# ---- test-only vector, sphere and form helpers ----
#
# Not oracles: the causal character, the stereographic projection and the
# coefficient equivalence test that the tests use to check package output.
# The package itself needs none of them.


class OffHyperboloid(MaxsurfError):
    """Point does not satisfy <x,x> = -1 within tolerance."""


class NorthPole(MaxsurfError):
    """Stereographic projection undefined at the projection center."""


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def causal_character(v: Vec3) -> CausalCharacter:
    """Classify a Lorentzian vector, with a 1e-12 band around lightlike."""
    if v.ambient is not Ambient.LORENTZIAN:
        raise AmbientMismatch("causal character requires the Lorentzian ambient")
    q = inner(v, v)
    if abs(q) < 1e-12:
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.SPACELIKE if q > 0 else CausalCharacter.TIMELIKE


def stereo(p: Vec3) -> complex:
    """Stereographic projection from the north pole (0, 0, 1); inverse of
    lorentz.stereo_inv."""
    if p.ambient is not Ambient.LORENTZIAN:
        raise AmbientMismatch("stereo requires a Lorentzian point")
    q = inner(p, p)
    if abs(q + 1.0) > 1e-8:
        raise OffHyperboloid(f"<p,p> = {q:.3g} != -1")
    if abs(p.x3 - 1.0) < 1e-12:
        raise NorthPole("projection center has no image")
    return complex(-p.x1 / (p.x3 - 1.0), -p.x2 / (p.x3 - 1.0))


def equivalent(f, g) -> bool:
    """Cross-multiplication test P1*Q2 == P2*Q1 of two RationalHolomorphic,
    exact on the coefficients."""
    a = np.convolve(f.num, g.den)
    b = np.convolve(g.num, f.den)
    return not np.any(_padd(a, -b))

# ---- the predicate and primitive forms before their array-speed rewrite ----
#
# Signed areas halved into a new array, the span over axis 0 of the (N, 2)
# table, half-edges paired by a search on unsorted reversed keys, and a
# primitive that computes its own pole logarithms on every call.  The package
# must reproduce their values bit for bit and their verdicts exactly.


def signed_areas_copy(z: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = z[triangles[:, 0]]
    u, w = z[triangles[:, 1]], z[triangles[:, 2]]
    u -= a
    w -= a
    area = u.real * w.imag
    area -= u.imag * w.real
    return 0.5 * area


def rim_convex_exact(pts2: np.ndarray) -> bool:
    """The closed polyline pts2 (m, 2) turns strictly left at every vertex and
    winds once, in Fraction arithmetic.  Each left turn (under pi) moves the
    edge direction 0, 1 or 2 half-open quadrants on, so the steps sum to 4 per
    turn around."""
    p = [(Fraction(x), Fraction(y)) for x, y in np.asarray(pts2, dtype=float).tolist()]
    m = len(p)
    e = [(p[(k + 1) % m][0] - p[k][0], p[(k + 1) % m][1] - p[k][1]) for k in range(m)]

    def quadrant(x, y):  # [0, 90), [90, 180), [180, 270), [270, 360) degrees
        return 0 if x > 0 and y >= 0 else 1 if x <= 0 and y > 0 else 2 if x < 0 and y <= 0 else 3

    steps = 0
    for (ax, ay), (bx, by) in zip(e, e[1:] + e[:1]):
        if not ax * by - ay * bx > 0:
            return False
        steps += (quadrant(bx, by) - quadrant(ax, ay)) % 4
    return steps == 4


def report_from_points_axis0(pts2: np.ndarray, param):
    """meshcheck._report_from_points with signed_areas_copy, the span as
    pts2.max(axis=0) - pts2.min(axis=0) and convexity from rim_convex_exact;
    the simplicity test is the package's."""
    areas = signed_areas_copy(np.ascontiguousarray(pts2).view(complex)[:, 0], param.triangles)
    if not (np.all(np.isfinite(pts2)) and np.all(np.isfinite(areas))):
        raise FloatRangeError("projected points or triangle areas are not finite floats")
    span = pts2.max(axis=0) - pts2.min(axis=0)
    scale = max(float(span[0]), float(span[1]), 1e-300)
    if float(np.min(np.abs(areas))) <= _AREA_EPS * scale * scale:
        raise DegenerateTriangle("projected triangle area below degeneracy threshold")
    min_area = float(np.min(areas))
    cycle = pts2[param.boundary]
    simple = _boundary_simple(np.ascontiguousarray(cycle).view(complex)[:, 0])
    e = np.roll(cycle, -1, axis=0) - cycle
    e_next = np.roll(e, -1, axis=0)
    defect = float(np.min(e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]))
    return GraphReport(min_area, simple, defect, bool(min_area > 0 and simple), rim_convex_exact(cycle))


def check_disk_searched(z: np.ndarray, t: np.ndarray, b: np.ndarray, shape: float):
    """meshcheck._check_disk with directed keys a*n + b, each half-edge paired
    by np.searchsorted on its unsorted reversed key."""
    n = z.size
    if min(t.min(), b.min()) < 0 or max(t.max(), b.max()) >= n:
        raise ValueError("vertex index out of range")
    if np.unique(b).size != b.size:
        raise ValueError("boundary cycle repeats a vertex")
    half = np.multiply(t, n, dtype=np.int64)
    half[:, :2] += t[:, 1:]
    half[:, 2] += t[:, 0]
    half = np.sort(half.ravel())
    if np.any(half[1:] == half[:-1]):
        raise ValueError("two triangles share a directed edge (they overlap)")
    rev = half % n * n + half // n
    paired = np.take(half, np.searchsorted(half, rev), mode="clip") == rev
    if n - (half.size - np.count_nonzero(paired) // 2) + t.shape[0] != 1:
        raise ValueError("mesh is not disk-type (Euler count != 1)")
    if not np.array_equal(np.sort(b * n + np.roll(b, -1)), half[~paired]):
        raise ValueError("boundary must be the rim cycle of the triangulation")
    area = signed_areas_copy(z, t)
    if not area.min() > 0:
        raise ValueError("parameter triangles must be positively oriented")
    longest = np.zeros(area.size)
    for i in range(3):
        np.maximum(longest, np.abs(z[t[:, i]] - z[t[:, i - 1]]), out=longest)
    if np.any(area < shape * longest**2):
        raise ValueError(f"a triangle's area is below {shape} (longest edge)^2")


def primitive_per_form(prim, w):
    """rational.Primitive.__call__ with log(1 - w/c) computed afresh per call."""
    out = polyval_ascending(prim.poly, w)
    for c, b in prim.laurent:
        x = -w / c
        log = 0.5 * np.log1p(2 * x.real + np.abs(x) ** 2) + 1j * np.arctan2(x.imag, 1 + x.real)
        out = out + b[0] * log
        for k in range(1, b.size):
            out = out - b[k] / (k * (-c) ** k) * np.expm1(-k * log)
    return out


def integrate_per_form(f, a, w):
    """F(w) - F(a) by primitive_per_form, for an array of endpoints w."""
    w = np.asarray(w, dtype=complex)
    return primitive_per_form(f.primitive, w) - primitive_per_form(f.primitive, np.asarray(a, dtype=complex))


# ---- the projections before one complex form ----
#
# pi(X) and pi(X*) as (N, 2) float tables (the base value plus the real parts
# of the stacked psi1, psi2 integrals, and their imaginary parts) read as
# complex points, and as sums x + 1j * y of the same parts.
# meshcheck._projections must give the bits of both.


def _projection_integrals(im, w):
    return [integrate_per_form(f, im.base_point, w) for f in im.curve.forms[:2]]


def projections_from_tables(im, w):
    ints = np.stack(_projection_integrals(im, w), axis=-1)
    tables = (im.base_value.as_array()[:2] + ints.real, ints.imag)
    return tuple(np.ascontiguousarray(t).view(complex)[:, 0] for t in tables)


def projections_complex_formula(im, w):
    i1, i2 = _projection_integrals(im, w)
    off = complex(im.base_value.x1, im.base_value.x2)
    return off + i1.real + 1j * i2.real, i1.imag + 1j * i2.imag


# ---- the Krust inequality and the folded control ----
#
# Test-only checks on the package's pull-back, not independent oracles: the
# conjugate-width inner product against its path-integral form along the
# pulled-back plane segment (acceptance criterion 4), and a folded disk whose
# projection must not be certified injective (criterion 9).

# Rings of folded_disk_mesh; continuation (and trapezoid) steps of _walk.
_FOLD_N = 16
_KRUST_STEPS = 200


def folded_disk_mesh() -> SurfaceMesh:
    """Negative control: the flat disk (u, v, 0) folded by u -> u^2 for u < 0,
    whose projection is certifiably non-injective."""
    mesh = triangulate_disk(1.0, _FOLD_N)
    u, v = mesh.vertices.real.copy(), mesh.vertices.imag
    u[u < 0] = u[u < 0] ** 2
    pos = np.column_stack([u, v, np.zeros_like(u)])
    return SurfaceMesh(mesh, pos)


def _walk(im: Immersion, w, p1, p2) -> np.ndarray:
    """Pulled-back parameters at t = j / _KRUST_STEPS on p1 -> p2, each step's
    Newton starting from the last; (_KRUST_STEPS + 1, k), row 0 is w."""
    betas = np.empty((_KRUST_STEPS + 1, w.size), dtype=complex)
    betas[0] = w
    span = p2 - p1
    for j in range(1, _KRUST_STEPS + 1):
        betas[j] = _pull_back(im, betas[j - 1], p1 + (j / _KRUST_STEPS) * span)
    return betas


@dataclass(frozen=True, eq=False)
class KrustInequality:
    """Both sides of the positivity statement behind the graph certification."""

    lhs: np.ndarray
    integral: np.ndarray
    margin: np.ndarray


def krust_inequality_batch(data: WeierstrassData, w1, w2) -> KrustInequality:
    """lhs = <p2 - p1, i (q2 - q1)>_0 with p = pi(X), q = pi(X*), against the
    path-integral form along the pulled-back plane segment:

        integral over [0,1] of |beta'|^2 |h'(beta)|^2 / 4 * (|g|^2 - 1/|g|^2).

    Trapezoid quadrature on the continuation nodes, beta' by central
    differences (second-order one-sided at the ends).  Both sides must be
    positive; they agree to o(1/steps) for smooth data (steps = _KRUST_STEPS).
    """
    w1 = np.atleast_1d(np.asarray(w1, dtype=complex))
    w2 = np.atleast_1d(np.asarray(w2, dtype=complex))
    if w1.shape != w2.shape:
        raise ValueError("endpoint arrays differ in shape")
    if np.any(w1 == w2):
        raise ValueError("pair endpoints must be distinct")

    im = immersion_from_data(data)
    p1, q1 = _projections(im, w1)
    p2, q2 = _projections(im, w2)
    lhs = np.real(np.conj(p2 - p1) * (1j * (q2 - q1)))

    betas = _walk(im, w1, p1, p2)

    dt = 1.0 / _KRUST_STEPS
    bp = np.empty_like(betas)
    bp[1:-1] = (betas[2:] - betas[:-2]) / (2 * dt)
    bp[0] = (-3 * betas[0] + 4 * betas[1] - betas[2]) / (2 * dt)
    bp[-1] = (3 * betas[-1] - 4 * betas[-2] + betas[-3]) / (2 * dt)

    gv = np.abs(data.g._eval(betas))
    hp = np.abs(data.dh._eval(betas))
    f = (np.abs(bp) ** 2) * (hp ** 2) / 4.0 * (gv ** 2 - 1.0 / gv ** 2)
    integral = dt * (0.5 * f[0] + f[1:-1].sum(axis=0) + 0.5 * f[-1])

    return KrustInequality(lhs, integral, np.minimum(lhs, integral))
