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

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbientMismatch,
    DegenerateTriangle,
    MaxsurfError,
    NewtonDivergence,
    NotAGraph,
    OverlapEmpty,
)
from .graphfield import ScalarField, dualize_maximal_to_minimal, shift_agreement
from .lorentz import Ambient, Vec3, cross_lorentz
from .rational import integrate_to_many
from .weierstrass import (
    GENERAL,
    Immersion,
    WeierstrassData,
    build_isotropic_maximal,
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
        if np.unique(b).size != b.size:
            raise ValueError("boundary cycle repeats a vertex")
        areas = _signed_areas(np.column_stack([v.real, v.imag]), t)
        if np.min(areas) <= 0:
            raise ValueError("parameter triangles must be positively oriented")
        if v.size - _undirected_edges(t).shape[0] + t.shape[0] != 1:
            raise ValueError("mesh is not disk-type (Euler count != 1)")
        # Euler count 1 alone admits e.g. two triangles glued at a vertex; a
        # disk additionally has its rim edges forming the one given cycle.
        raw = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
        edges, counts = np.unique(raw, axis=0, return_counts=True)
        rim = edges[counts == 1]
        cyc = np.unique(np.sort(np.column_stack([b, np.roll(b, -1)]), axis=1), axis=0)
        if rim.shape[0] != b.size or not np.array_equal(cyc, rim):
            raise ValueError("boundary must be the rim cycle of the triangulation")
        for arr in (v, t, b):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "boundary", b)


def _undirected_edges(triangles: np.ndarray) -> np.ndarray:
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def _ring_start(k: int) -> int:
    return 1 + 3 * k * (k - 1)


def triangulate_disk(radius: float, n: int) -> ParamMesh:
    """Concentric-ring triangulation: ring k holds 6k vertices at radius
    k/n * radius, so the mesh has 1 + 3n(n+1) vertices and 6n^2 triangles."""
    if n < 1:
        raise ValueError("need at least one ring")
    if not radius > 0:
        raise ValueError("radius must be positive")
    verts = [0.0 + 0.0j]
    for k in range(1, n + 1):
        ang = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        verts.append((radius * k / n) * np.exp(1j * ang))
    vertices = np.concatenate([np.atleast_1d(np.asarray(a)) for a in verts])

    tris = []
    for j in range(6):
        tris.append((1 + j, 1 + (j + 1) % 6, 0))
    for k in range(2, n + 1):
        inner, m = _ring_start(k - 1), 6 * (k - 1)
        outer, mm = _ring_start(k), 6 * k
        i = o = 0
        # merge walk by angle; outer-edge triangles keep the outer circle CCW,
        # inner-edge triangles are reversed so all areas stay positive
        while i < m or o < mm:
            if o < mm and (i == m or (o + 1) * m <= (i + 1) * mm):
                tris.append((outer + o % mm, outer + (o + 1) % mm, inner + i % m))
                o += 1
            else:
                tris.append((inner + (i + 1) % m, inner + i % m, outer + o % mm))
                i += 1
    boundary = np.arange(_ring_start(n), _ring_start(n) + 6 * n)
    return ParamMesh(vertices, np.array(tris, dtype=int), boundary)


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


def sample_surface(im: Immersion, mesh: ParamMesh, tol: float = 1e-10) -> SurfaceMesh:
    ints = integrals_at_many(im, mesh.vertices, tol)
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


def _boundary_simple(pts: np.ndarray) -> bool:
    """No contact between non-adjacent edges of the closed polyline (O(m^2))."""
    m = pts.shape[0]
    a = pts
    b = np.roll(pts, -1, axis=0)
    d1 = _cross2(b[:, None] - a[:, None], a[None, :] - a[:, None])
    d2 = _cross2(b[:, None] - a[:, None], b[None, :] - a[:, None])
    proper = ((d1 > 0) & (d2 < 0) | (d1 < 0) & (d2 > 0))
    proper &= proper.T

    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    # touching[i, j]: endpoint a_j (then b_j) collinear with and inside edge i's box
    on_a = (d1 == 0) & np.all((a[None, :] >= lo[:, None]) & (a[None, :] <= hi[:, None]), axis=2)
    on_b = (d2 == 0) & np.all((b[None, :] >= lo[:, None]) & (b[None, :] <= hi[:, None]), axis=2)
    contact = proper | on_a | on_b | on_a.T | on_b.T

    i = np.arange(m)
    diff = np.abs(i[:, None] - i[None, :])
    adjacent = (diff <= 1) | (diff == m - 1)
    return not bool(np.any(contact & ~adjacent))


def _in_polygon(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray casting toward +x; poly (m, 2), implicitly closed."""
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    px = px[:, None]
    py = py[:, None]
    straddles = (y0[None, :] <= py) != (y1[None, :] <= py)
    dy = np.where(y1 - y0 == 0, 1.0, y1 - y0)
    xint = x0[None, :] + (py - y0[None, :]) * ((x1 - x0) / dy)[None, :]
    return (np.sum(straddles & (px < xint), axis=1) % 2) == 1


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
        return {
            "min_projected_triangle_area": self.min_projected_triangle_area,
            "boundary_simple": self.boundary_simple,
            "boundary_convexity_defect": self.boundary_convexity_defect,
            "injective": self.injective,
            "is_convex_domain": self.is_convex_domain,
        }


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
        return {
            "domain_report": self.domain_report.to_obj(),
            "conjugate_report": self.conjugate_report.to_obj(),
            "verdict": self.verdict,
        }


def _verdict(domain: GraphReport, conjugate: GraphReport) -> str:
    if not (domain.injective and domain.is_convex_domain):
        return NOT_APPLICABLE
    return PASS if conjugate.injective else FAIL


def krust_pipeline_immersion(im: Immersion, n: int = 64, tol: float = 1e-10) -> KrustReport:
    """Certify "graph over a convex domain implies the conjugate is a graph"
    for one immersion, sampled at n rings.

    The surface and its conjugate come from one pass of integrals (real and
    imaginary parts), so both certificates refer to the same parameter mesh.
    """
    mesh = triangulate_disk(im.domain_radius, n)
    ints = integrals_at_many(im, mesh.vertices, tol)
    base = im.base_value.as_array()
    domain = _report_from_points(base[None, :2] + ints[:, :2].real, mesh)
    conjugate = _report_from_points(ints[:, :2].imag, mesh)
    return KrustReport(domain, conjugate, _verdict(domain, conjugate))


def krust_pipeline(data: WeierstrassData, n: int = 64, tol: float = 1e-10) -> KrustReport:
    return krust_pipeline_immersion(immersion_from_data(data), n, tol)


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

    Keeps the horizontal integrals of the forms psi1, psi2 at the last
    accepted node and extends them along the short segment to each Newton
    candidate, so each continuation step costs a handful of vectorized
    evaluations.
    """

    def __init__(self, f1, f2, pi_offset, w, i1, i2, eval_radius, domain_radius, tol):
        self.f1, self.f2 = f1, f2
        self.off = pi_offset
        self.w = np.asarray(w, dtype=complex).copy()
        self.i1 = np.asarray(i1, dtype=complex).copy()
        self.i2 = np.asarray(i2, dtype=complex).copy()
        self.eval_r = eval_radius
        self.domain_r = domain_radius
        self.tol = tol

    def projection(self) -> np.ndarray:
        return self.off + self.i1.real + 1j * self.i2.real

    def solve(self, target: np.ndarray, depth: int = 0):
        w = self.w.copy()
        for _ in range(_NEWTON_ITERS):
            j1 = self.i1 + integrate_to_many(self.f1, self.w, w, self.tol)
            j2 = self.i2 + integrate_to_many(self.f2, self.w, w, self.tol)
            r = (self.off + j1.real + 1j * j2.real) - target
            if float(np.max(np.abs(r))) <= self.tol:
                if float(np.max(np.abs(w))) > self.domain_r * (1.0 + 1e-9):
                    raise NewtonDivergence("pullback path exits the domain disk")
                self.w, self.i1, self.i2 = w, j1, j2
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
        mid = 0.5 * (self.projection() + target)
        self.solve(mid, depth + 1)
        self.solve(target, depth + 1)


def _wide_maximal_curve(data: WeierstrassData):
    # evaluation slack for Newton overshoot: prefer the full validity disk
    r = min(data.g.radius, data.dh.radius)
    try:
        wide = WeierstrassData(data.g, data.dh, r, data.base_point, data.base_value, GENERAL)
        return build_isotropic_maximal(wide), r
    except MaxsurfError:
        return build_isotropic_maximal(data), data.domain_radius


def pullback_segment(
    im: Immersion, p1, p2, steps: int = 200, tol: float = 1e-10
) -> np.ndarray:
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
    off = complex(im.base_value.x1, im.base_value.x2)
    walker = _ProjectionWalker(
        im.curve.psi1,
        im.curve.psi2,
        off,
        np.array([im.base_point]),
        np.zeros(1, complex),
        np.zeros(1, complex),
        im.curve.radius * (1.0 + 1e-12),
        im.domain_radius,
        tol,
    )
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


def krust_inequality_batch(
    data: WeierstrassData, w1, w2, steps: int = 200, tol: float = 1e-10
) -> KrustInequality:
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
    ints1 = integrals_at_many(im, w1, tol)
    ints2 = integrals_at_many(im, w2, tol)
    off = complex(data.base_value.x1, data.base_value.x2)
    p1 = off + ints1[:, 0].real + 1j * ints1[:, 1].real
    p2 = off + ints2[:, 0].real + 1j * ints2[:, 1].real
    q1 = ints1[:, 0].imag + 1j * ints1[:, 1].imag
    q2 = ints2[:, 0].imag + 1j * ints2[:, 1].imag
    lhs = np.real(np.conj(p2 - p1) * (1j * (q2 - q1)))

    curve, eval_r = _wide_maximal_curve(data)
    walker = _ProjectionWalker(
        curve.psi1,
        curve.psi2,
        off,
        w1,
        ints1[:, 0],
        ints1[:, 1],
        eval_r * (1.0 + 1e-12),
        data.domain_radius,
        tol,
    )
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


def krust_inequality_check(
    data: WeierstrassData, w1: complex, w2: complex, steps: int = 200, tol: float = 1e-10
) -> KrustInequality:
    out = krust_inequality_batch(data, [w1], [w2], steps, tol)
    return KrustInequality(float(out.lhs[0]), float(out.integral[0]), float(out.margin[0]))


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
            first = np.repeat(np.cumsum(count) - count, count)
            owner.append(np.repeat(np.arange(targets.size), count))
            cand.append(order[np.repeat(start, count) + np.arange(first.size) - first])
    owner, cand = np.concatenate(owner), np.concatenate(cand)
    dist = np.abs(points[cand] - targets[owner])
    best = np.full(targets.size, np.inf)
    np.minimum.at(best, owner, dist)
    hit = dist == best[owner]
    nearest = np.full(targets.size, points.size)
    np.minimum.at(nearest, owner[hit], cand[hit])
    return nearest


def resample_graph(
    data: WeierstrassData,
    grid_h: float,
    mesh_n: int = 48,
    tol: float = 1e-10,
    margin_cells: int = 2,
) -> ResampledGraph:
    """Resample x3 as a function of (x1, x2) on a grid inside the projected
    domain (eroded by margin_cells), by Newton inversion of the projection
    seeded from the nearest sampled mesh vertex.

    Heights are exact up to quadrature tolerance: the grid carries no
    interpolation error, only its own later finite-difference error.
    """
    im = immersion_from_data(data)
    mesh = triangulate_disk(data.domain_radius, mesh_n)
    ints = integrals_at_many(im, mesh.vertices, tol)
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
    mask = _erode(mask, margin_cells)
    if not mask.any():
        raise OverlapEmpty("no grid cells inside the projected domain at this spacing")

    targets = (gx + 1j * gy)[mask]
    seed = _nearest_vertex(px + 1j * py, mesh.triangles, targets)
    curve, eval_r = _wide_maximal_curve(data)
    walker = _ProjectionWalker(
        curve.psi1,
        curve.psi2,
        complex(base[0], base[1]),
        mesh.vertices[seed],
        ints[seed, 0],
        ints[seed, 1],
        eval_r * (1.0 + 1e-12),
        data.domain_radius,
        max(tol, 1e-12),
    )
    walker.solve(targets)
    i3 = ints[seed, 2] + integrate_to_many(curve.psi3, mesh.vertices[seed], walker.w, walker.tol)

    f = np.zeros(mask.shape)
    s = np.zeros(mask.shape)
    f[mask] = base[2] + i3.real
    s[mask] = -i3.imag  # third component of the Euclidean dual: Re(i * I3)
    origin = (float(xs[0]), float(ys[0]))
    return ResampledGraph(
        ScalarField(origin, h, f, mask), ScalarField(origin, h, s, mask, validate=False)
    )


def lee_equivalence_check(
    data: WeierstrassData,
    grid_h: float,
    tol: float = 1e-10,
    mesh_n: int = 48,
    curl_tol: float = 1e-2,
) -> float:
    """Max-norm gap (after the optimal vertical shift) between the grid-level
    dual of the resampled graph and the exact height of the isotropic-curve
    dual; O(grid_h^2) when the two constructions agree."""
    rs = resample_graph(data, grid_h, mesh_n, tol)
    grid_dual = dualize_maximal_to_minimal(rs.field, curl_tol=curl_tol)
    return shift_agreement(grid_dual, rs.dual_height)
