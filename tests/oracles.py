"""Independent oracles for the test suite.

Everything here is computed by a route disjoint from the package internals:
closed-form antiderivatives, composite Simpson quadrature on dense nodes,
loop and all-pairs forms of the mesh build and planar predicates, row-by-row
forms of the text writers and reader, one expression per finite-difference
rule, the full-grid sweeps of the tree integration, the earlier forms of
routines rewritten for speed (signed areas and the report span, half-edge
pairing, per-form pole logarithms; the report oracle reuses the package's
unchanged rim test), and hand-derived constants for the built-in catalog
families.  Tests compare package output against these, never against the
package itself.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

import numpy as np

from maxsurf.errors import (
    DegenerateMask,
    DegenerateTriangle,
    FloatRangeError,
    NotSimplyConnected,
    NotSpacelike,
)
from maxsurf.meshcheck import _AREA_EPS, _CONVEXITY_BAND, GraphReport, _boundary_simple


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


# ---- row-by-row text writers and reader ----
#
# One f-string per row and one parse per line: the package's columnar
# writers and reader must match these byte for byte and bit for bit.


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
    """(origin, spacing, values, mask) of a saved field, parsed line by line."""
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
        raise NotSpacelike("|Df| >= 1 at a grid edge")
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


def report_from_points_axis0(pts2: np.ndarray, param):
    """meshcheck._report_from_points with signed_areas_copy and the span as
    pts2.max(axis=0) - pts2.min(axis=0); the rim predicates are the package's."""
    areas = signed_areas_copy(np.ascontiguousarray(pts2).view(complex)[:, 0], param.triangles)
    if not (np.all(np.isfinite(pts2)) and np.all(np.isfinite(areas))):
        raise FloatRangeError("projected points or triangle areas are not finite floats")
    span = pts2.max(axis=0) - pts2.min(axis=0)
    scale = max(float(span[0]), float(span[1]), 1e-300)
    if float(np.min(np.abs(areas))) <= _AREA_EPS * scale * scale:
        raise DegenerateTriangle("projected triangle area below degeneracy threshold")
    min_area = float(np.min(areas))
    cycle = pts2[param.boundary]
    simple = _boundary_simple(cycle)
    e = np.roll(cycle, -1, axis=0) - cycle
    e_next = np.roll(e, -1, axis=0)
    turn = e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]
    defect = float(np.min(turn))
    winding = round(float(np.sum(np.arctan2(turn, np.sum(e * e_next, axis=1)))) / (2 * np.pi))
    return GraphReport(min_area, simple, defect, bool(min_area > 0 and simple),
                       bool(defect >= _CONVEXITY_BAND and winding == 1))


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
