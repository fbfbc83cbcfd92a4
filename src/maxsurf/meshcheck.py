"""Desk-scale certification of graph properties on triangulated samples.

The key verification: sample an immersion and its conjugate on a triangulated
parameter disk, project both to the horizontal plane, and certify injectivity
of the projection (all projected triangles positively oriented plus a simple
projected boundary; for a disk-type mesh that combination certifies a global
graph).  The headline pipeline reports, per datum, whether the hypothesis
"graph over a convex domain" holds and whether the conjugate surface is then
itself certified as a graph.

Also here: the rotation identity N x dX = dX* of the Lorentzian Gauss map,
Newton continuation that pulls straight segments in the projection plane back
to the parameter disk, the positivity check of the conjugate-width inner
product against its path-integral form, and resampling of a sampled graph
onto a masked grid (used to compare the grid-level duality against the
isotropic-curve duality).
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DegenerateTriangle,
    FloatRangeError,
    NewtonDivergence,
    NotAGraph,
    OverlapEmpty,
)
from .graphfield import ScalarField, dualize_maximal_to_minimal, shift_agreement
from .lorentz import Ambient, cross_lorentz
from .rational import integrate_to_many
from .weierstrass import (
    Immersion,
    WeierstrassData,
    differential,
    gauss_map,
    immersion_from_data,
    integrals_at_many,
)

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT_APPLICABLE"

_CONVEXITY_BAND = -1e-9
_AREA_EPS = 1e-16
_NEWTON_ITERS = 30
_MAX_SPLIT = 12
# Newton residual tolerance of the projection walker; resample_graph's mesh
# rings and grid erosion; the curl tolerance of lee_equivalence_check's grid
# dualization.
_TOL = 1e-10
_RESAMPLE_MESH_N = 48
_RESAMPLE_MARGIN_CELLS = 2
_LEE_CURL_TOL = 1e-2
# Rings of folded_disk_mesh; continuation (and trapezoid) steps of _walk.
_FOLD_N = 16
_KRUST_STEPS = 200
# Shewchuk's bound on the rounding error of the float (b - a) x (c - a),
# (3 + 16 eps) eps with eps = 2^-53, relative to the sum of the two products'
# magnitudes; 8 x 2^-52 exceeds it.  The tiny term covers underflow.
_ORIENT_REL = 8 * np.finfo(float).eps
_ORIENT_ABS = np.finfo(float).tiny
# ParamMesh radii, and its shape bound: area >= _SHAPE (longest edge)^2, where
# the least ratio is sqrt(3)/12 = 0.1443 for every n >= 2 measured (to 1024).
_MESH_RADIUS = (2.0**-500, 2.0**500)
_SHAPE = 0.14


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


def _half_edge_keys(a: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Half-edge a -> c between vertices below n as the int64 key
    2 (min(a, c) n + max(a, c)) + (a > c): an edge's two half-edges sort
    next to each other."""
    key = np.multiply(np.minimum(a, c), n, dtype=np.int64)
    key += np.maximum(a, c)
    key *= 2
    key += a > c
    return key


def _check_disk(z: np.ndarray, t: np.ndarray, b: np.ndarray):
    """Raise ValueError unless the triangles t over the vertices z form a positively
    oriented disk with rim cycle b, each of area >= _SHAPE (longest edge)^2."""
    n = z.size
    if min(t.min(), b.min()) < 0 or max(t.max(), b.max()) >= n:
        raise ValueError("vertex index out of range")
    if np.unique(b).size != b.size:
        raise ValueError("boundary cycle repeats a vertex")
    # Each half-edge's key (_half_edge_keys), sorted once, in place.  In an
    # oriented disk each half-edge occurs once; a repeat means two triangles
    # lie on the same side of one edge, i.e. they overlap.
    half = _half_edge_keys(t, np.roll(t, -1, axis=1), n).ravel()
    half.sort()
    if np.any(half[1:] == half[:-1]):
        raise ValueError("two triangles share a directed edge (they overlap)")
    # Without repeats an edge's half-edges are neighbours in half: an interior
    # edge carries both, a rim edge one.
    edge = half >> 1
    twin = edge[1:] == edge[:-1]
    del edge
    if n - (half.size - np.count_nonzero(twin)) + t.shape[0] != 1:
        raise ValueError("mesh is not disk-type (Euler count != 1)")
    # Euler count 1 alone admits e.g. two triangles glued at a vertex; a
    # disk additionally has its rim half-edges forming the one given
    # cycle, traversed in the mesh's (counterclockwise) orientation.
    rim = np.ones(half.size, dtype=bool)
    rim[1:] &= ~twin
    rim[:-1] &= ~twin
    if not np.array_equal(np.sort(_half_edge_keys(b, np.roll(b, -1), n)), half[rim]):
        raise ValueError("boundary must be the rim cycle of the triangulation")
    del half, twin, rim  # 150 MB, 19 MB and 19 MB at n = 1024
    area = _signed_areas(z, t)
    if not area.min() > 0:
        raise ValueError("parameter triangles must be positively oriented")
    longest = np.zeros(area.size)
    for i in range(3):
        np.maximum(longest, np.abs(z[t[:, i]] - z[t[:, i - 1]]), out=longest)
    if np.any(area < _SHAPE * longest**2):
        raise ValueError(f"a triangle's area is below {_SHAPE} (longest edge)^2")


def _ring_start(k: int) -> int:
    return 1 + 3 * k * (k - 1)


def _disk_triangles(n: int) -> np.ndarray:
    """Triangles of the n-ring disk: the fan of ring 1, then from 6 (k-1)^2 on
    the merge walk by angle over ring k's m = 6(k-1) inner and mm = 6k outer
    edges.  It takes outer step o before inner step i iff (o+1) m <= (i+1) mm,
    so step o follows ((o+1) m - 1) // mm inner steps, step i follows
    (i+1) mm // m outer ones, and either is triangle o + i of its ring.
    Inner-edge triangles are reversed so that all areas are positive."""
    t = np.empty((6 * n * n, 3), dtype=np.int32)
    j = np.arange(6)
    t[:6] = np.column_stack([1 + j, 1 + (j + 1) % 6, 0 * j])
    rings = np.arange(2, n + 1)
    k = np.repeat(rings, 6 * rings)  # outer step o of ring k
    o = _offsets(6 * rings)
    m, mm = 6 * k - 6, 6 * k
    i = ((o + 1) * m - 1) // mm
    t[6 * (k - 1) ** 2 + o + i] = np.column_stack(
        [_ring_start(k) + o, _ring_start(k) + (o + 1) % mm, _ring_start(k - 1) + i])
    k = np.repeat(rings, 6 * rings - 6)  # inner step i of ring k
    i = _offsets(6 * rings - 6)
    m, mm = 6 * k - 6, 6 * k
    o = (i + 1) * mm // m
    t[6 * (k - 1) ** 2 + o + i] = np.column_stack(
        [_ring_start(k - 1) + (i + 1) % m, _ring_start(k - 1) + i, _ring_start(k) + o % mm])
    return t


def _ring_vertices(radius: float, n: int) -> np.ndarray:
    """Vertex j of ring k at (radius k / n) exp(2 pi i j / 6k); ring 0 is the centre."""
    count = np.maximum(6 * np.arange(n + 1), 1)
    ring = np.repeat(np.arange(n + 1), count)
    return (radius * ring / n) * np.exp(1j * (2.0 * np.pi * _offsets(count) / count[ring]))


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
    ambient: Ambient

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        if p.shape != (self.param.vertices.size, 3):
            raise ValueError("positions shape does not match vertex count")
        if not np.all(np.isfinite(p)):
            raise FloatRangeError("non-finite position")
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)


def sample_surface(im: Immersion, mesh: ParamMesh) -> SurfaceMesh:
    ints = integrals_at_many(im, mesh.vertices)
    pos = im.base_value.as_array()[None, :] + ints.real
    return SurfaceMesh(mesh, pos, im.ambient)


def folded_disk_mesh() -> SurfaceMesh:
    """Negative control: the flat disk (u, v, 0) folded by u -> u^2 for u < 0,
    whose projection is certifiably non-injective."""
    mesh = triangulate_disk(1.0, _FOLD_N)
    u, v = mesh.vertices.real.copy(), mesh.vertices.imag
    u[u < 0] = u[u < 0] ** 2
    pos = np.column_stack([u, v, np.zeros_like(u)])
    return SurfaceMesh(mesh, pos, Ambient.LORENTZIAN)


# ---- planar predicates ----


def _signed_areas(z: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = z[triangles[:, 0]]
    u, w = z[triangles[:, 1]], z[triangles[:, 2]]
    u -= a
    w -= a
    area = u.real * w.imag
    area -= u.imag * w.real
    area *= 0.5
    return area


def _orientation(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sign (-1, 0 or 1) of (b - a) x (c - a) for each row of the (k, 2)
    point arrays, exact: a float result within its rounding bound is decided
    again in integer arithmetic.  Every float is n / 2^j exactly, so scaling
    a row's six coordinates by their largest 2^j makes them integers (this
    is Fraction arithmetic without its gcd reductions)."""
    left = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
    right = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    det = left - right
    sign = np.sign(det)
    unsure = np.flatnonzero(~(np.abs(det) > _ORIENT_REL * (np.abs(left) + np.abs(right)) + _ORIENT_ABS))
    rows = np.column_stack([a[unsure], b[unsure], c[unsure]]).tolist()
    for k, row in zip(unsure, rows):
        ratios = [v.as_integer_ratio() for v in row]
        scale = max(den for _, den in ratios)
        ax, ay, bx, by, cx, cy = (num * (scale // den) for num, den in ratios)
        exact = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        sign[k] = (exact > 0) - (exact < 0)
    return sign


def _offsets(count: np.ndarray) -> np.ndarray:
    """0, 1, ..., count[g] - 1 for each run g in turn (the index of each
    entry of np.repeat(..., count) within its run)."""
    return np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)


def _boundary_simple(pts: np.ndarray) -> bool:
    """No contact between non-adjacent edges of the closed polyline.

    Contact is a proper crossing (strict orientation signs both ways) or an
    endpoint collinear with another edge and inside its closed bounding box.
    Orientation signs are exact (_orientation), and either kind of contact
    needs the two closed boxes to meet, so only such pairs are tested.  The
    pairs are found by bucketing the boxes on a square grid whose cell is the
    largest edge extent: each box covers a range of about 2 x 2 cells, and
    since floor is monotone, two boxes sharing a point share the cell of
    that point.  Work and memory are linear in the number of edges plus
    candidate pairs, which stays linear while edge lengths are comparable.
    A polyline with a non-finite point is not certified simple.
    """
    m = pts.shape[0]
    if m < 4:  # every pair of edges is adjacent
        return True
    if not np.all(np.isfinite(pts)):
        return False
    a = pts
    b = np.roll(pts, -1, axis=0)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    size = float(np.max(hi - lo)) or 1.0
    c0 = np.floor((lo - lo.min(axis=0)) / size).astype(np.int64)
    c1 = np.floor((hi - lo.min(axis=0)) / size).astype(np.int64)
    ny = c1[:, 1] - c0[:, 1] + 1
    cover = (c1[:, 0] - c0[:, 0] + 1) * ny

    # one (cell, edge) entry per covered cell, grouped by cell, edges ascending
    edge = np.repeat(np.arange(m), cover)
    k = _offsets(cover)
    cell = (c0[edge, 0] + k // ny[edge]) * (int(c1[:, 1].max()) + 1) + c0[edge, 1] + k % ny[edge]
    order = np.argsort(cell, kind="stable")
    edge, cell = edge[order], cell[order]

    # every pair (p, q), p < q, of entries in one cell
    stop = np.searchsorted(cell, cell, side="right")
    later = stop - np.arange(edge.size) - 1
    p = np.repeat(np.arange(edge.size), later)
    q = p + 1 + _offsets(later)
    pair = np.unique(edge[p] * m + edge[q])
    i, j = pair // m, pair % m
    gap = j - i
    keep = (gap > 1) & (gap != m - 1)
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
        | (d1 == 0) & inside(a[j], i)
        | (d2 == 0) & inside(b[j], i)
        | (e1 == 0) & inside(a[i], j)
        | (e2 == 0) & inside(b[i], j)
    )
    return not bool(np.any(contact))


def _in_polygon(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray casting toward +x; poly (m, 2) finite, implicitly closed.

    Scanline form: the edge crossings of each distinct row py are computed
    once, and a point is inside iff an odd number of its row's crossings lie
    strictly right of px.  Edge e crosses row y iff exactly one endpoint has
    y_k <= y, i.e. min(y0, y1) <= y < max(y0, y1), which selects the rows of
    each edge by binary search.  Memory is linear in points plus crossings.
    """
    x0, y0 = poly[:, 0], poly[:, 1]
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


def _report_from_points(pts2: np.ndarray, param: ParamMesh) -> GraphReport:
    areas = _signed_areas(np.ascontiguousarray(pts2).view(complex)[:, 0], param.triangles)
    if not (np.all(np.isfinite(pts2)) and np.all(np.isfinite(areas))):
        raise FloatRangeError("projected points or triangle areas are not finite floats")
    x, y = pts2[:, 0], pts2[:, 1]  # 1-D reductions: numpy is slow over a length-2 axis
    scale = max(float(x.max() - x.min()), float(y.max() - y.min()), 1e-300)
    if float(np.min(np.abs(areas))) <= _AREA_EPS * scale * scale:
        raise DegenerateTriangle("projected triangle area below degeneracy threshold")
    min_area = float(np.min(areas))

    cycle = pts2[param.boundary]
    simple = _boundary_simple(cycle)
    e = np.roll(cycle, -1, axis=0) - cycle
    e_next = np.roll(e, -1, axis=0)
    turn = e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]
    defect = float(np.min(turn))
    # a convex rim turns left at every vertex and once around in all: a rim
    # that winds twice also turns left everywhere
    winding = round(float(np.sum(np.arctan2(turn, np.sum(e * e_next, axis=1)))) / (2 * np.pi))

    return GraphReport(
        min_projected_triangle_area=min_area,
        boundary_simple=simple,
        boundary_convexity_defect=defect,
        injective=bool(min_area > 0 and simple),
        is_convex_domain=bool(defect >= _CONVEXITY_BAND and winding == 1),
    )


def projection_report(mesh: SurfaceMesh) -> GraphReport:
    """Certify injectivity and convexity of the horizontal projection.

    Positive orientation of every projected triangle makes the projection a
    local diffeomorphism; combined with a simple projected boundary this
    certifies global injectivity for a disk-type mesh.
    """
    return _report_from_points(mesh.positions[:, :2], mesh.param)


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
    for one immersion, sampled at n rings.

    Both certificates read one pass of the psi1, psi2 integrals on one mesh:
    the surface their real parts, the conjugate their imaginary parts.
    """
    mesh = triangulate_disk(im.domain_radius, n)
    ints = integrals_at_many(im, mesh.vertices, 2)
    domain = _report_from_points(im.base_value.as_array()[:2] + ints.real, mesh)
    conjugate = _report_from_points(ints.imag, mesh)
    return KrustReport(domain, conjugate, _verdict(domain, conjugate))


# ---- rotation identity ----


def rotation_identity_check(
    im: Immersion, conj: Immersion, data: WeierstrassData, w: complex, direction: tuple[float, float]
) -> float:
    """| N(w) x dX(a,b) - dX*(a,b) | for the parameter direction (a, b), where
    conj is conjugate_immersion(im)."""
    a, b = float(direction[0]), float(direction[1])
    xu, xv = differential(im, w)
    su, sv = differential(conj, w)
    n = gauss_map(data, w)
    got = cross_lorentz(n, xu * a + xv * b)
    want = su * a + sv * b
    return float(np.linalg.norm((got - want).as_array()))


# ---- Newton continuation in the projection plane ----


class _ProjectionWalker:
    """Tracks beta with pi(X(beta)) following prescribed plane targets.

    Starts at the parameters w and evaluates pi(X) at each Newton candidate
    from the closed-form primitives of im's psi1, psi2, integrated from the
    base point.  An iterate that leaves the domain disk (integrate_to_many's
    bound) ends the Newton loop, and the step to the target is halved.
    """

    def __init__(self, im: Immersion, w):
        self.f1, self.f2 = im.curve.psi1, im.curve.psi2
        self.base = im.base_point
        self.off = complex(im.base_value.x1, im.base_value.x2)
        self.w = np.array(w, dtype=complex)
        self.radius = im.domain_radius * (1.0 + 1e-12)

    def projection(self, w) -> np.ndarray:
        logs = {}  # shared by psi1 and psi2, as in integrals_at_many
        x1 = integrate_to_many(self.f1, self.base, w, logs).real
        return self.off + x1 + 1j * integrate_to_many(self.f2, self.base, w, logs).real

    def solve(self, target: np.ndarray, depth: int = 0):
        w = self.w.copy()
        for _ in range(_NEWTON_ITERS):
            r = self.projection(w) - target
            if float(np.max(np.abs(r))) <= _TOL:
                self.w = w
                return
            v1 = self.f1._eval(w)
            v2 = self.f2._eval(w)
            a = 0.5 * (v1 + 1j * v2)
            bc = 0.5 * np.conj(v1 - 1j * v2)
            det = np.abs(a) ** 2 - np.abs(bc) ** 2
            if float(np.min(np.abs(det))) < 1e-300:
                raise NewtonDivergence("projected differential is singular")
            w = w + (-np.conj(a) * r + bc * np.conj(r)) / det
            if float(np.max(np.abs(w))) > self.radius:
                break
        if depth >= _MAX_SPLIT:
            raise NewtonDivergence(f"no convergence after {_MAX_SPLIT} step halvings "
                                   "(or the pullback path leaves the domain disk)")
        mid = 0.5 * (self.projection(self.w) + target)
        self.solve(mid, depth + 1)
        self.solve(target, depth + 1)


def _walk(walker: _ProjectionWalker, p1, p2) -> np.ndarray:
    """Walker parameters at t = j / _KRUST_STEPS on p1 -> p2; (_KRUST_STEPS + 1, k)."""
    betas = np.empty((_KRUST_STEPS + 1, walker.w.size), dtype=complex)
    betas[0] = walker.w
    span = p2 - p1
    for j in range(1, _KRUST_STEPS + 1):
        walker.solve(p1 + (j / _KRUST_STEPS) * span)
        betas[j] = walker.w
    return betas


# ---- positivity of the conjugate width ----


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
    ints1 = integrals_at_many(im, w1, 2)
    ints2 = integrals_at_many(im, w2, 2)
    walker = _ProjectionWalker(im, w1)
    p1 = walker.off + ints1[:, 0].real + 1j * ints1[:, 1].real
    p2 = walker.off + ints2[:, 0].real + 1j * ints2[:, 1].real
    q1 = ints1[:, 0].imag + 1j * ints1[:, 1].imag
    q2 = ints2[:, 0].imag + 1j * ints2[:, 1].imag
    lhs = np.real(np.conj(p2 - p1) * (1j * (q2 - q1)))

    betas = _walk(walker, p1, p2)

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


def _nearest_vertex(points: np.ndarray, triangles: np.ndarray, targets: np.ndarray) -> np.ndarray:
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


def resample_graph(data: WeierstrassData, grid_h: float) -> ResampledGraph:
    """Resample x3 as a function of (x1, x2) on a grid inside the projected
    domain (eroded by two cells), by Newton inversion of the projection
    seeded from the nearest vertex of a 48-ring sampled mesh.

    Heights are exact up to the Newton tolerance: the grid carries no
    interpolation error, only its own later finite-difference error.
    """
    im = immersion_from_data(data)
    mesh = triangulate_disk(data.domain_radius, _RESAMPLE_MESH_N)
    base = data.base_value.as_array()
    pts = base[:2] + integrals_at_many(im, mesh.vertices, 2).real
    if not _report_from_points(pts, mesh).injective:
        raise NotAGraph("projection of the sampled surface is not injective")

    poly = pts[mesh.boundary]
    h = float(grid_h)
    i0 = int(np.floor(poly[:, 0].min() / h)) - 1
    i1 = int(np.ceil(poly[:, 0].max() / h)) + 1
    j0 = int(np.floor(poly[:, 1].min() / h)) - 1
    j1 = int(np.ceil(poly[:, 1].max() / h)) + 1
    xs = h * np.arange(i0, i1 + 1)
    ys = h * np.arange(j0, j1 + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    mask = _in_polygon(gx.ravel(), gy.ravel(), poly).reshape(gx.shape)
    mask = _erode(mask, _RESAMPLE_MARGIN_CELLS)
    if not mask.any():
        raise OverlapEmpty("no grid cells inside the projected domain at this spacing")

    targets = (gx + 1j * gy)[mask]
    seed = _nearest_vertex(pts[:, 0] + 1j * pts[:, 1], mesh.triangles, targets)
    walker = _ProjectionWalker(im, mesh.vertices[seed])
    walker.solve(targets)
    i3 = integrate_to_many(im.curve.psi3, im.base_point, walker.w)

    f = np.zeros(mask.shape)
    s = np.zeros(mask.shape)
    f[mask] = base[2] + i3.real
    s[mask] = -i3.imag  # third component of the Euclidean dual: Re(i * I3)
    origin = (float(xs[0]), float(ys[0]))
    return ResampledGraph(ScalarField(origin, h, f, mask), ScalarField(origin, h, s, mask))


def lee_equivalence_check(data: WeierstrassData, grid_h: float) -> float:
    """Max-norm gap (after the optimal vertical shift) between the grid-level
    dual of the resampled graph and the exact height of the isotropic-curve
    dual; O(grid_h^2) when the two constructions agree."""
    rs = resample_graph(data, grid_h)
    grid_dual = dualize_maximal_to_minimal(rs.field, curl_tol=_LEE_CURL_TOL)
    return shift_agreement(grid_dual, rs.dual_height)
