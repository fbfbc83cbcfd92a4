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

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    AmbientMismatch,
    DegenerateTriangle,
    NewtonDivergence,
    NotAGraph,
    OverlapEmpty,
    PoleInDomain,
)
from .graphfield import ScalarField, dualize_maximal_to_minimal, shift_agreement
from .lorentz import Ambient, cross_lorentz
from .rational import HolomorphicForm, RationalHolomorphic, integrate_to_many
from .weierstrass import (
    Immersion,
    WeierstrassData,
    conjugate_immersion,
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
# Shewchuk's bound on the rounding error of the float (b - a) x (c - a),
# (3 + 16 eps) eps with eps = 2^-53, relative to the sum of the two products'
# magnitudes; 8 x 2^-52 exceeds it.  The tiny term covers underflow.
_ORIENT_REL = 8 * np.finfo(float).eps
_ORIENT_ABS = np.finfo(float).tiny


# ---- parameter-disk triangulation ----


@dataclass(frozen=True)
class ParamMesh:
    """Disk-type triangulation of the parameter domain."""

    vertices: np.ndarray  # complex (N,)
    triangles: np.ndarray  # int (m, 3)
    boundary: np.ndarray  # int (k,), ordered cycle

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=complex).ravel()
        t = np.asarray(self.triangles, dtype=int)
        b = np.asarray(self.boundary, dtype=int).ravel()
        if t.ndim != 2 or t.shape[1] != 3 or t.shape[0] == 0:
            raise ValueError("mesh must contain at least one triangle")
        n = v.size
        if min(t.min(), b.min(initial=0)) < 0 or max(t.max(), b.max(initial=0)) >= n:
            raise ValueError("vertex index out of range")
        if np.unique(b).size != b.size:
            raise ValueError("boundary cycle repeats a vertex")
        areas = _signed_areas(np.column_stack([v.real, v.imag]), t)
        if np.min(areas) <= 0:
            raise ValueError("parameter triangles must be positively oriented")
        # Directed half-edge a -> b as the key a*n + b, sorted once.  In an
        # oriented disk each half-edge occurs once; a repeat means two
        # triangles lie on the same side of one edge, i.e. they overlap.
        head, tail = t.ravel(), np.roll(t, -1, axis=1).ravel()
        half = np.sort(head * n + tail)
        if np.any(half[1:] == half[:-1]):
            raise ValueError("two triangles share a directed edge (they overlap)")
        rev = (half % n) * n + half // n
        paired = half[np.minimum(np.searchsorted(half, rev), half.size - 1)] == rev
        # an interior edge carries both of its half-edges, a rim edge one
        if n - (half.size - np.count_nonzero(paired) // 2) + t.shape[0] != 1:
            raise ValueError("mesh is not disk-type (Euler count != 1)")
        # Euler count 1 alone admits e.g. two triangles glued at a vertex; a
        # disk additionally has its rim half-edges forming the one given
        # cycle, traversed in the mesh's (counterclockwise) orientation.
        rim = half[~paired]
        if not np.array_equal(np.sort(b * n + np.roll(b, -1)), rim):
            raise ValueError("boundary must be the rim cycle of the triangulation")
        for arr in (v, t, b):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "boundary", b)


def _undirected_edges(triangles: np.ndarray) -> np.ndarray:
    """Distinct edges (i, j), i < j, in lexicographic order."""
    n = int(triangles.max()) + 1
    a, b = triangles.ravel(), np.roll(triangles, -1, axis=1).ravel()
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    return np.column_stack([keys // n, keys % n])


def _ring_start(k: int) -> int:
    return 1 + 3 * k * (k - 1)


def _ring_triangles(k: int) -> np.ndarray:
    """Triangles between rings k - 1 and k (k >= 2), in the order of a merge
    walk by angle over the m = 6(k-1) inner and mm = 6k outer edges.

    The walk takes outer step o before inner step i iff (o+1) m <= (i+1) mm,
    so a stable sort of these keys, outer steps first, is the walk; running
    counts give the inner (outer) position at each outer (inner) step.
    Outer-edge triangles keep the outer circle CCW, inner-edge triangles are
    reversed so all areas stay positive.
    """
    inner, m = _ring_start(k - 1), 6 * (k - 1)
    outer, mm = _ring_start(k), 6 * k
    keys = np.concatenate([np.arange(1, mm + 1) * m, np.arange(1, m + 1) * mm])
    is_outer = np.argsort(keys, kind="stable") < mm
    o = np.cumsum(is_outer) - is_outer
    i = np.cumsum(~is_outer) - ~is_outer
    return np.column_stack([
        np.where(is_outer, outer + o % mm, inner + (i + 1) % m),
        np.where(is_outer, outer + (o + 1) % mm, inner + i % m),
        np.where(is_outer, inner + i % m, outer + o % mm),
    ])


def triangulate_disk(radius: float, n: int) -> ParamMesh:
    """Concentric-ring triangulation: ring k holds 6k vertices at radius
    k/n * radius, so the mesh has 1 + 3n(n+1) vertices and 6n^2 triangles."""
    if n < 1:
        raise ValueError("need at least one ring")
    if not radius > 0:
        raise ValueError("radius must be positive")
    verts = [np.zeros(1, dtype=complex)]
    for k in range(1, n + 1):
        ang = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        verts.append((radius * k / n) * np.exp(1j * ang))
    first = np.arange(6)
    tris = [np.column_stack([1 + first, 1 + (first + 1) % 6, np.zeros(6, dtype=int)])]
    tris += [_ring_triangles(k) for k in range(2, n + 1)]
    boundary = np.arange(_ring_start(n), _ring_start(n) + 6 * n)
    return ParamMesh(np.concatenate(verts), np.concatenate(tris), boundary)


# ---- sampled surfaces ----


@dataclass(frozen=True)
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
            raise ValueError("non-finite position")
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)


def sample_surface(im: Immersion, mesh: ParamMesh) -> SurfaceMesh:
    ints = integrals_at_many(im, mesh.vertices)
    pos = im.base_value.as_array()[None, :] + ints.real
    return SurfaceMesh(mesh, pos, im.ambient)


def folded_disk_mesh(n: int = 16) -> SurfaceMesh:
    """Negative control: the flat disk (u, v, 0) folded by u -> u^2 for u < 0,
    whose projection is certifiably non-injective."""
    mesh = triangulate_disk(1.0, n)
    u, v = mesh.vertices.real.copy(), mesh.vertices.imag
    u[u < 0] = u[u < 0] ** 2
    pos = np.column_stack([u, v, np.zeros_like(u)])
    return SurfaceMesh(mesh, pos, Ambient.LORENTZIAN)


# ---- planar predicates ----


def _signed_areas(pts2: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a, b, c = pts2[triangles[:, 0]], pts2[triangles[:, 1]], pts2[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


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
    areas = _signed_areas(pts2, param.triangles)
    span = pts2.max(axis=0) - pts2.min(axis=0)
    scale = max(float(span[0]), float(span[1]), 1e-300)
    if float(np.min(np.abs(areas))) <= _AREA_EPS * scale * scale:
        raise DegenerateTriangle("projected triangle area below degeneracy threshold")
    min_area = float(np.min(areas))

    cycle = pts2[param.boundary]
    simple = _boundary_simple(cycle)
    e = np.roll(cycle, -1, axis=0) - cycle
    defect = float(np.min(_cross2(e, np.roll(e, -1, axis=0))))

    return GraphReport(
        min_projected_triangle_area=min_area,
        boundary_simple=simple,
        boundary_convexity_defect=defect,
        injective=bool(min_area > 0 and simple),
        is_convex_domain=bool(defect >= _CONVEXITY_BAND),
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

    The surface and its conjugate come from one pass of integrals (real and
    imaginary parts), so both certificates refer to the same parameter mesh.
    """
    mesh = triangulate_disk(im.domain_radius, n)
    ints = integrals_at_many(im, mesh.vertices)
    base = im.base_value.as_array()
    domain = _report_from_points(base[None, :2] + ints[:, :2].real, mesh)
    conjugate = _report_from_points(ints[:, :2].imag, mesh)
    return KrustReport(domain, conjugate, _verdict(domain, conjugate))


# ---- rotation identity ----


def rotation_identity_check(
    im: Immersion, data: WeierstrassData, w: complex, direction: tuple[float, float]
) -> float:
    """| N(w) x dX(a,b) - dX*(a,b) | for the parameter direction (a, b)."""
    a, b = float(direction[0]), float(direction[1])
    xu, xv = differential(im, w)
    su, sv = differential(conjugate_immersion(im), w)
    n = gauss_map(data, w)
    got = cross_lorentz(n, xu * a + xv * b)
    want = su * a + sv * b
    return float(np.linalg.norm((got - want).as_array()))


# ---- Newton continuation in the projection plane ----


class _ProjectionWalker:
    """Tracks beta with pi(X(beta)) following prescribed plane targets.

    Starts at the parameters w and evaluates pi(X) at each Newton candidate
    from the closed-form primitives of psi1, psi2, integrated from the base
    point.  forms are im's curve forms, certified on the disk of eval_radius,
    which Newton iterates may reach beyond the domain disk.
    """

    def __init__(self, im: Immersion, forms, eval_radius: float, w):
        self.f1, self.f2 = forms[0], forms[1]
        self.base = im.base_point
        self.off = complex(im.base_value.x1, im.base_value.x2)
        self.w = np.array(w, dtype=complex)
        self.eval_r = eval_radius * (1.0 + 1e-12)
        self.domain_r = im.domain_radius

    def projection(self, w) -> np.ndarray:
        x1 = integrate_to_many(self.f1, self.base, w).real
        return self.off + x1 + 1j * integrate_to_many(self.f2, self.base, w).real

    def solve(self, target: np.ndarray, depth: int = 0):
        w = self.w.copy()
        for _ in range(_NEWTON_ITERS):
            r = self.projection(w) - target
            if float(np.max(np.abs(r))) <= _TOL:
                if float(np.max(np.abs(w))) > self.domain_r * (1.0 + 1e-9):
                    raise NewtonDivergence("pullback path exits the domain disk")
                self.w = w
                return
            v1 = self.f1.density._eval(w)
            v2 = self.f2.density._eval(w)
            a = 0.5 * (v1 + 1j * v2)
            bc = 0.5 * np.conj(v1 - 1j * v2)
            det = np.abs(a) ** 2 - np.abs(bc) ** 2
            if float(np.min(np.abs(det))) < 1e-300:
                raise NewtonDivergence("projected differential is singular")
            w = w + (-np.conj(a) * r + bc * np.conj(r)) / det
            if float(np.max(np.abs(w))) > self.eval_r:
                raise NewtonDivergence("Newton iterate left the evaluation disk")
        if depth >= _MAX_SPLIT:
            raise NewtonDivergence(f"no convergence after {_MAX_SPLIT} step halvings")
        mid = 0.5 * (self.projection(self.w) + target)
        self.solve(mid, depth + 1)
        self.solve(target, depth + 1)


def _wide_maximal_curve(im: Immersion, data: WeierstrassData):
    """The forms of im = immersion_from_data(data) and the disk they are
    certified on, as wide as possible for Newton overshoot.

    The coefficients do not depend on the radius, so the forms are re-tagged
    to min(g.radius, dh.radius).  Where g vanishes in that disk the re-tagged
    denominators fail their certificate and the domain disk is kept.
    """
    r = min(data.g.radius, data.dh.radius)
    try:
        forms = [
            HolomorphicForm(RationalHolomorphic(f.density.num, f.density.den, r))
            for f in im.curve.forms
        ]
    except PoleInDomain:
        return im.curve.forms, im.domain_radius
    return forms, r


def pullback_segment(im: Immersion, p1, p2, steps: int = 200) -> np.ndarray:
    """Parameters beta(t_k) with pi(X(beta(t_k))) = (1-t_k) p1 + t_k p2.

    Newton continuation seeded at the base point: a first pass walks the
    projection from pi(X(base)) to p1, the returned path covers p1 -> p2 at
    steps+1 uniform nodes.  Residual increase is met by step halving;
    NewtonDivergence signals that the segment leaves the sampled domain.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps")
    p1 = complex(p1) if np.isscalar(p1) or isinstance(p1, complex) else complex(p1[0], p1[1])
    p2 = complex(p2) if np.isscalar(p2) or isinstance(p2, complex) else complex(p2[0], p2[1])
    walker = _ProjectionWalker(im, im.curve.forms, im.curve.radius, [im.base_point])
    off = walker.off
    for t in np.linspace(0.0, 1.0, steps + 1)[1:]:
        walker.solve(np.array([off + t * (p1 - off)]))
    betas = [walker.w.copy()]
    for t in np.linspace(0.0, 1.0, steps + 1)[1:]:
        walker.solve(np.array([p1 + t * (p2 - p1)]))
        betas.append(walker.w.copy())
    return np.concatenate(betas)


# ---- positivity of the conjugate width ----


@dataclass(frozen=True)
class KrustInequality:
    """Both sides of the positivity statement behind the graph certification."""

    lhs: np.ndarray
    integral: np.ndarray
    margin: np.ndarray


def krust_inequality_batch(data: WeierstrassData, w1, w2, steps: int = 200) -> KrustInequality:
    """lhs = <p2 - p1, i (q2 - q1)>_0 with p = pi(X), q = pi(X*), against the
    path-integral form along the pulled-back plane segment:

        integral over [0,1] of |beta'|^2 |h'(beta)|^2 / 4 * (|g|^2 - 1/|g|^2).

    Trapezoid quadrature on the continuation nodes, beta' by central
    differences (second-order one-sided at the ends).  Both sides must be
    positive; they agree to o(1/steps) for smooth data.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps")
    w1 = np.atleast_1d(np.asarray(w1, dtype=complex))
    w2 = np.atleast_1d(np.asarray(w2, dtype=complex))
    if w1.shape != w2.shape:
        raise ValueError("endpoint arrays differ in shape")
    if np.any(w1 == w2):
        raise ValueError("pair endpoints must be distinct")

    im = immersion_from_data(data)
    ints1 = integrals_at_many(im, w1)
    ints2 = integrals_at_many(im, w2)
    walker = _ProjectionWalker(im, *_wide_maximal_curve(im, data), w1)
    off = walker.off
    p1 = off + ints1[:, 0].real + 1j * ints1[:, 1].real
    p2 = off + ints2[:, 0].real + 1j * ints2[:, 1].real
    q1 = ints1[:, 0].imag + 1j * ints1[:, 1].imag
    q2 = ints2[:, 0].imag + 1j * ints2[:, 1].imag
    lhs = np.real(np.conj(p2 - p1) * (1j * (q2 - q1)))

    betas = np.empty((steps + 1, w1.size), dtype=complex)
    betas[0] = w1
    span = p2 - p1
    for k in range(1, steps + 1):
        walker.solve(p1 + (k / steps) * span)
        betas[k] = walker.w

    dt = 1.0 / steps
    bp = np.empty_like(betas)
    bp[1:-1] = (betas[2:] - betas[:-2]) / (2 * dt)
    bp[0] = (-3 * betas[0] + 4 * betas[1] - betas[2]) / (2 * dt)
    bp[-1] = (3 * betas[-1] - 4 * betas[-2] + betas[-3]) / (2 * dt)

    gv = np.abs(data.g._eval(betas))
    hp = np.abs(data.dh.density._eval(betas))
    f = (np.abs(bp) ** 2) * (hp ** 2) / 4.0 * (gv ** 2 - 1.0 / gv ** 2)
    integral = dt * (0.5 * f[0] + f[1:-1].sum(axis=0) + 0.5 * f[-1])

    return KrustInequality(lhs, integral, np.minimum(lhs, integral))


# ---- edgewise spacelike check ----


@dataclass(frozen=True)
class SpacelikeReport:
    min_edge_quadratic_form: float
    pr_margin: float


def spacelike_mesh_check(mesh: SurfaceMesh) -> SpacelikeReport:
    """min <e,e> over mesh edges (positive iff all edges spacelike) and the
    projection-expansion margin min(|pi(e)|^2 - <e,e>) = min e3^2 >= 0."""
    if mesh.ambient is not Ambient.LORENTZIAN:
        raise AmbientMismatch("spacelike check needs a Lorentzian mesh")
    edges = _undirected_edges(mesh.param.triangles)
    e = mesh.positions[edges[:, 0]] - mesh.positions[edges[:, 1]]
    q = e[:, 0] ** 2 + e[:, 1] ** 2 - e[:, 2] ** 2
    return SpacelikeReport(float(np.min(q)), float(np.min(e[:, 2] ** 2)))


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
    keys = keys[order]
    tx, ty = bucket(targets)
    owner, cand = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            key = (tx + dx) * width + (ty + dy)
            start = np.searchsorted(keys, key, "left")
            count = np.searchsorted(keys, key, "right") - start
            owner.append(np.repeat(np.arange(targets.size), count))
            cand.append(order[np.repeat(start, count) + _offsets(count)])
    owner, cand = np.concatenate(owner), np.concatenate(cand)
    dist = np.abs(points[cand] - targets[owner])
    best = np.full(targets.size, np.inf)
    np.minimum.at(best, owner, dist)
    hit = dist == best[owner]
    nearest = np.full(targets.size, points.size)
    np.minimum.at(nearest, owner[hit], cand[hit])
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
    ints = integrals_at_many(im, mesh.vertices)
    base = data.base_value.as_array()
    px = base[0] + ints[:, 0].real
    py = base[1] + ints[:, 1].real
    report = _report_from_points(np.column_stack([px, py]), mesh)
    if not report.injective:
        raise NotAGraph("projection of the sampled surface is not injective")

    poly = np.column_stack([px, py])[mesh.boundary]
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
    seed = _nearest_vertex(px + 1j * py, mesh.triangles, targets)
    forms, eval_r = _wide_maximal_curve(im, data)
    walker = _ProjectionWalker(im, forms, eval_r, mesh.vertices[seed])
    walker.solve(targets)
    i3 = integrate_to_many(forms[2], im.base_point, walker.w)

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
