import tracemalloc

import numpy as np
import pytest

from maxsurf.duality import sharp
from maxsurf import meshcheck
from maxsurf.errors import DegenerateTriangle, FloatRangeError, NewtonDivergence
from maxsurf.graphfield import ScalarField, VectorField2, maximal_residual
from maxsurf.lorentz import Ambient, Vec3
from maxsurf.meshcheck import (
    KrustInequality,
    ParamMesh,
    SurfaceMesh,
    _SHAPE,
    _ProjectionWalker,
    _boundary_simple,
    _check_disk,
    _disk_topology,
    _in_polygon,
    _nearest_vertex,
    _report_from_points,
    _signed_areas,
    folded_disk_mesh,
    krust_inequality_batch,
    krust_pipeline,
    lee_equivalence_check,
    projection_report,
    resample_graph,
    rotation_identity_check,
    sample_surface,
    triangulate_disk,
)
from maxsurf.rational import RationalHolomorphic
from maxsurf.weierstrass import (
    Immersion,
    WeierstrassData,
    build_isotropic_maximal,
    conjugate_immersion,
    immerse,
    immersion_from_data,
    integrals_at_many,
)

from conftest import disk_samples
from oracles import (
    PLANE_KRUST_BOTH_SIDES,
    boundary_simple_all_pairs,
    boundary_simple_exact,
    check_disk_searched,
    disk_triangle_count,
    disk_vertex_count,
    in_polygon_ray_cast,
    integrate_per_form,
    merge_walk_disk,
    plane_immersion_point,
    report_from_points_axis0,
    signed_areas_copy,
    simpson_line,
    triangulate_disk_uncached,
)


class TestTriangulation:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_counts(self, n):
        mesh = triangulate_disk(1.0, n)
        assert len(mesh.vertices) == disk_vertex_count(n)
        assert len(mesh.triangles) == disk_triangle_count(n)
        assert len(mesh.boundary) == 6 * n

    def test_radius_scaling(self):
        mesh = triangulate_disk(0.7, 5)
        assert abs(np.max(np.abs(mesh.vertices)) - 0.7) < 1e-12
        assert np.min(np.abs(mesh.vertices[mesh.boundary])) > 0.7 - 1e-12

    def test_bad_args(self):
        with pytest.raises(ValueError):
            triangulate_disk(1.0, 0)
        with pytest.raises(ValueError):
            triangulate_disk(-1.0, 2)

    # The per-n certifier (_check_disk) on hand-made meshes: each way of not
    # being a positively oriented disk with the given rim is rejected.

    def test_negatively_oriented_triangle_rejected(self):
        verts = np.array([0.0, 1.0, 1j], dtype=complex)
        tris = np.array([[0, 2, 1]])  # clockwise, with its own rim
        with pytest.raises(ValueError, match="positively oriented"):
            _check_disk(verts, tris, np.array([0, 2, 1]))

    def test_repeated_boundary_vertex_rejected(self):
        verts = np.array([0.0, 1.0, 1j], dtype=complex)
        tris = np.array([[0, 1, 2]])
        with pytest.raises(ValueError, match="repeats a vertex"):
            _check_disk(verts, tris, np.array([0, 1, 1]))

    def test_non_disk_topology_rejected(self):
        # two triangles glued at one vertex: Euler count is still 1, but the
        # six rim edges cannot form a single cycle of distinct vertices
        verts = np.array([0.0, 1.0, 1j, -1.0, -1j], dtype=complex)
        tris = np.array([[0, 1, 2], [0, 3, 4]])
        with pytest.raises(ValueError, match="rim cycle"):
            _check_disk(verts, tris, np.array([1, 2, 3, 4]))

    @pytest.mark.parametrize("radius", [0.9, 1.3])
    def test_matches_merge_walk_oracle(self, radius):
        for n in range(1, 41):
            mesh = triangulate_disk(radius, n)
            verts, tris = merge_walk_disk(radius, n)
            assert np.array_equal(mesh.vertices, verts)
            assert np.array_equal(mesh.triangles, tris)

    def test_overlapping_flap_rejected(self):
        # both triangles sit left of the edge 0 -> 1 and overlap; Euler count
        # and the undirected rim alone accept this mesh
        verts = np.array([0, 1, 0.5 + 1j, 0.5 + 0.3j], dtype=complex)
        with pytest.raises(ValueError, match="directed edge"):
            _check_disk(verts, np.array([[0, 1, 2], [0, 1, 3]]), np.array([0, 3, 1, 2]))

    def test_three_triangles_on_one_edge_rejected(self):
        verts = np.array([0, 1, 0.5 + 1j, 0.5 + 0.3j, 0.5 - 1j], dtype=complex)
        tris = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]])
        with pytest.raises(ValueError, match="directed edge"):
            _check_disk(verts, tris, np.array([0, 4, 1, 3, 2]))

    @pytest.mark.parametrize("index", [-1, 3])
    def test_vertex_index_out_of_range_rejected(self, index):
        verts = np.array([0.0, 1.0, 1j], dtype=complex)
        with pytest.raises(ValueError, match="out of range"):
            _check_disk(verts, np.array([[0, 1, index]]), np.array([0, 1, 2]))

    def test_sliver_below_shape_bound_rejected(self):
        # positively oriented, area 0.005 against 0.14 x (longest edge)^2 = 0.14
        verts = np.array([0.0, 1.0, 0.5 + 0.01j], dtype=complex)
        with pytest.raises(ValueError, match="below 0.14"):
            _check_disk(verts, np.array([[0, 1, 2]]), np.array([0, 1, 2]))

    @pytest.mark.parametrize("cycle", ["reversed rim", "inner ring"])
    def test_boundary_cycle_other_than_rim_rejected(self, cycle):
        # the rim traversed clockwise, or ring 2 of the n = 3 disk (a cycle of
        # mesh edges inside the rim)
        mesh = triangulate_disk(1.0, 3)
        b = mesh.boundary[::-1] if cycle == "reversed rim" else np.arange(7, 19)
        with pytest.raises(ValueError, match="rim cycle"):
            _check_disk(mesh.vertices, mesh.triangles, b)

    def test_verdicts_match_searched_pairing_oracle(self, rng):
        # random damage to a valid disk: each variant gets the verdict (and
        # message) of the pairing by search on unsorted reversed keys
        mesh = triangulate_disk(1.0, 4)
        z, t0, b0 = mesh.vertices, np.array(mesh.triangles), np.array(mesh.boundary)
        nt, nb = len(t0), len(b0)

        def damage(kind):
            t, b = t0.copy(), b0.copy()
            i = rng.integers(nt)
            if kind == "swap":
                t[i, [0, 1]] = t[i, [1, 0]]
            elif kind == "drop":
                t = np.delete(t, i, axis=0)
            elif kind == "repeat":
                t = np.concatenate([t, t[[i]]])
            elif kind == "reindex":
                t[i, rng.integers(3)] = rng.integers(z.size)
            elif kind == "roll rim":
                b = np.roll(b, rng.integers(nb))
            elif kind == "reverse rim":
                b = b[::-1]
            elif kind == "move rim":
                b[rng.integers(nb)] = rng.integers(z.size)
            return t, b

        def verdict(check, *args):
            try:
                check(*args)
            except ValueError as e:
                return str(e)
            return "ok"

        seen = set()
        kinds = ["none", "swap", "drop", "repeat", "reindex", "roll rim", "reverse rim", "move rim"]
        for kind in kinds * 25:
            t, b = damage(kind)
            got = verdict(_check_disk, z, t, b)
            assert got == verdict(check_disk_searched, z, t, b, _SHAPE)
            seen.add(got)
        assert len(seen) >= 5

    # Meshes as built: certified once per n, at every radius in range.

    @pytest.mark.parametrize("radius", [0.5, 0.9, 1e-3, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_matches_uncached_build_bit_for_bit(self, radius, n):
        mesh = triangulate_disk(radius, n)
        verts, tris, boundary = triangulate_disk_uncached(radius, n)
        assert np.array_equal(mesh.vertices.view(np.int64), verts.view(np.int64))
        assert np.array_equal(mesh.triangles, tris)
        assert np.array_equal(mesh.boundary, boundary)

    def test_arrays_read_only_and_triangles_int32(self):
        mesh = triangulate_disk(0.9, 5)
        assert mesh.triangles.dtype == np.int32
        for arr in (mesh.vertices, mesh.triangles, mesh.boundary):
            assert not arr.flags.writeable

    def test_radii_share_one_topology_per_n(self):
        a, b = triangulate_disk(0.5, 9), triangulate_disk(0.9, 9)
        assert a.triangles is b.triangles and a.boundary is b.boundary
        assert not np.array_equal(a.vertices, b.vertices)

    def test_certified_once_per_n(self, monkeypatch):
        calls = []
        check = meshcheck._check_disk
        monkeypatch.setattr(meshcheck, "_check_disk", lambda *a: calls.append(a[0].size) or check(*a))
        _disk_topology.cache_clear()
        for radius in (0.5, 0.9, 1.3, 0.5):
            ParamMesh(radius, 6)
            triangulate_disk(radius, 5)
        assert calls == [disk_vertex_count(6), disk_vertex_count(5)]
        _disk_topology.cache_clear()

    @pytest.mark.parametrize("n", [*range(1, 33), 100, 256])
    def test_shape_bound(self, n):
        # every triangle has area >= 0.14 (longest edge)^2; from two rings on
        # the least ratio is that of the equilateral triangle's half, sqrt(3)/12
        mesh = triangulate_disk(1.0, n)
        a, b, c = (mesh.vertices[t] for t in mesh.triangles.T)
        area = 0.5 * ((b - a).real * (c - a).imag - (b - a).imag * (c - a).real)
        longest = np.max(np.abs([b - a, c - b, a - c]), axis=0)
        ratio = float(np.min(area / longest**2))
        assert ratio >= 0.14
        assert ratio == pytest.approx(np.sqrt(3) / (4 if n == 1 else 12), rel=1e-12)

    def test_radius_bound(self):
        # inside [2**-500, 2**500] coordinates and their products stay normal
        # floats; outside it (or at a non-finite radius) no mesh is built
        for radius in (2.0**-500, 1e-150, 1e150, 2.0**500):
            mesh = triangulate_disk(radius, 4)
            a, b, c = (mesh.vertices[t] for t in mesh.triangles.T)
            assert np.all((b - a).real * (c - a).imag - (b - a).imag * (c - a).real > 0)
        for radius in (2.0**-501, 1e-200, 1e-300, 0.0, -1.0, 1e200, np.inf, np.nan):
            with pytest.raises(FloatRangeError, match="outside"):
                triangulate_disk(radius, 4)


class TestProjectionReport:
    def test_plane_sample_injective_and_convex(self, catalog_data):
        im = immersion_from_data(catalog_data["plane-r09"])
        mesh = sample_surface(im, triangulate_disk(0.9, 12))
        rep = projection_report(mesh)
        assert rep.injective and rep.boundary_simple and rep.is_convex_domain
        assert rep.min_projected_triangle_area > 0

    def test_folded_mesh_not_injective(self):
        rep = projection_report(folded_disk_mesh())
        assert not rep.injective
        assert rep.min_projected_triangle_area < 0

    def test_nonconvex_injective_domain_detected(self):
        # univalent polynomial z + z^2/2: cardioid image has a concave dent
        param = triangulate_disk(1.0, 16)
        w = param.vertices + 0.5 * param.vertices**2
        pos = np.stack([w.real, w.imag, np.zeros(w.size)], axis=1)
        rep = projection_report(SurfaceMesh(param, pos, Ambient.EUCLIDEAN))
        assert rep.injective and rep.boundary_simple
        assert not rep.is_convex_domain
        assert rep.boundary_convexity_defect < 0

    def test_rim_winding_twice_not_convex(self):
        # w -> w^2 wraps the rim twice around the origin: every local turn is
        # to the left, but the total turning is 4 pi
        param = triangulate_disk(1.0, 8)
        w = param.vertices**2
        pos = np.stack([w.real, w.imag, np.zeros(w.size)], axis=1)
        rep = projection_report(SurfaceMesh(param, pos, Ambient.EUCLIDEAN))
        assert rep.boundary_convexity_defect > 0
        assert not rep.boundary_simple
        assert not rep.is_convex_domain

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_catalog_reports_match_axis0_span_oracle(self, catalog_data, n):
        # 1-D span reductions and in-place halved areas keep the oracle's bits
        def bits(rep):
            floats = np.array([rep.min_projected_triangle_area, rep.boundary_convexity_defect])
            return floats.view(np.int64).tolist(), rep.boundary_simple, rep.injective, rep.is_convex_domain

        for data in catalog_data.values():
            im = immersion_from_data(data)
            mesh = triangulate_disk(data.domain_radius, n)
            ints = integrals_at_many(im, mesh.vertices, 2)
            for pts in (im.base_value.as_array()[:2] + ints.real, ints.imag):
                z = np.ascontiguousarray(pts).view(complex)[:, 0]
                want = signed_areas_copy(z, mesh.triangles)
                assert np.array_equal(_signed_areas(z, mesh.triangles).view(np.int64), want.view(np.int64))
                assert bits(_report_from_points(pts, mesh)) == bits(report_from_points_axis0(pts, mesh))

    @pytest.mark.parametrize("stretch", [(1.0, 1.0), (1e3, 1.0), (1.0, 1e3)])
    def test_degeneracy_threshold_matches_axis0_span_oracle(self, stretch):
        # one triangle squeezed towards the threshold _AREA_EPS scale^2, with
        # either span the larger: both forms take the same decision at every squeeze
        param = triangulate_disk(1.0, 2)
        for squeeze in 10.0 ** -np.arange(9, 20, 0.25):
            pts = np.column_stack([param.vertices.real, param.vertices.imag]) * stretch
            pts[0] = pts[1] + squeeze * (pts[0] - pts[1])
            outcomes = []
            for report in (_report_from_points, report_from_points_axis0):
                try:
                    outcomes.append(report(pts, param).min_projected_triangle_area)
                except DegenerateTriangle:
                    outcomes.append("degenerate")
            assert outcomes[0] == outcomes[1]

    def test_degenerate_projection_rejected(self):
        param = triangulate_disk(1.0, 2)
        pos = np.zeros((len(param.vertices), 3))  # everything collapses
        with pytest.raises(DegenerateTriangle):
            projection_report(SurfaceMesh(param, pos, Ambient.EUCLIDEAN))

    def test_non_finite_positions_or_areas_rejected(self):
        param = triangulate_disk(1.0, 2)
        pos = np.zeros((len(param.vertices), 3))
        pos[:, :2] = 1e300 * np.column_stack([param.vertices.real, param.vertices.imag])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatRangeError, match="not finite"):
                projection_report(SurfaceMesh(param, pos, Ambient.EUCLIDEAN))
        pos = pos.copy()
        pos[3, 0] = np.inf
        with pytest.raises(FloatRangeError, match="non-finite position"):
            SurfaceMesh(param, pos, Ambient.EUCLIDEAN)

    def test_sample_surface_vertices_match_immersion(self, plane15):
        im = immersion_from_data(plane15)
        param = triangulate_disk(1.2, 4)
        mesh = sample_surface(im, param)
        for k in (0, 7, 30, len(param.vertices) - 1):
            want = plane_immersion_point(complex(param.vertices[k]))
            assert np.max(np.abs(mesh.positions[k] - want)) < 1e-12


def _random_polylines(rng, count):
    """Closed polylines of three kinds: small-integer points (exact
    predicates: collinear overlaps, touching endpoints, repeated points),
    Gaussian points, and circles with one vertex pushed out into a spike."""
    for k in range(count):
        m = int(rng.integers(3, 48))
        kind = k % 3
        if kind == 0:
            yield rng.integers(-3, 4, size=(m, 2)).astype(float)
        elif kind == 1:
            yield rng.normal(size=(m, 2))
        else:
            t = 2.0 * np.pi * np.arange(m) / m
            pts = np.column_stack([np.cos(t), np.sin(t)])
            pts[rng.integers(m)] *= rng.uniform(0.0, 4.0)
            yield pts


def _near_collinear_polylines(rng, count):
    """Closed polylines of 4 to 8 points within 1e-11 to 1e-6 of the line
    y = 7.5 x over x in [0, 1000], one point moved to y = 0, so that float
    orientation signs of nearly collinear edges fall within their rounding."""
    for k in range(count):
        m = int(rng.integers(4, 9))
        x = rng.uniform(0.0, 1000.0, m)
        if k % 2:
            x = np.sort(x)
        y = 7.5 * x + rng.normal(size=m) * 10.0 ** rng.integers(-11, -6)
        pts = np.column_stack([x, y])
        pts[rng.integers(m)] = [rng.uniform(0.0, 1000.0), 0.0]
        yield pts


class TestPlanarPredicates:
    def test_boundary_simple_exact_on_rounded_orientation(self):
        # simple in exact arithmetic; the float orientation products of the
        # nearly collinear edges AB and CD say they cross properly, although
        # their x-ranges are disjoint
        pts = np.array([
            [213.27856413882404, 1599.6462029096133],
            [725.299863158816, 5439.942718845754],
            [726.5067331216937, 5448.994565951524],
            [841.4779422374434, 6311.309345913316],
            [841.4779422374434, 0.0],
        ])
        assert boundary_simple_exact(pts)
        assert _boundary_simple(pts)

    def test_boundary_simple_matches_exact_oracle_near_collinear(self, rng):
        verdicts = []
        for pts in _near_collinear_polylines(rng, 1000):
            got = _boundary_simple(pts)
            assert got == boundary_simple_exact(pts), pts
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts exercised

    def test_boundary_simple_matches_all_pairs_oracle(self, rng):
        verdicts = []
        for pts in _random_polylines(rng, 3000):
            got = _boundary_simple(pts)
            assert got == boundary_simple_all_pairs(pts), pts
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts exercised

    def test_non_finite_boundary_not_simple(self):
        t = 2.0 * np.pi * np.arange(12) / 12
        pts = np.column_stack([np.cos(t), np.sin(t)])
        assert _boundary_simple(pts)
        pts[5] = np.nan
        assert not _boundary_simple(pts)
        assert not _boundary_simple(np.full((6, 2), np.nan))

    def test_boundary_simple_matches_oracle_on_catalog_rims(self, catalog_data):
        meshes = {r: triangulate_disk(r, 128) for r in {d.domain_radius for d in catalog_data.values()}}
        for data in catalog_data.values():
            im = immersion_from_data(data)
            mesh = meshes[data.domain_radius]
            ints = integrals_at_many(im, mesh.vertices[mesh.boundary])[:, :2]
            base = data.base_value.as_array()[:2]
            for rim in (base + ints.real, ints.imag):
                assert _boundary_simple(rim) == boundary_simple_all_pairs(rim)
                assert _boundary_simple(rim)

    def test_in_polygon_matches_ray_cast_oracle(self, rng):
        grid = np.arange(-6.0, 6.5, 0.5)  # integer rows pass through vertices
        gx, gy = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
        for k in range(200):
            m = int(rng.integers(3, 40))
            if k % 2:
                poly = rng.integers(-5, 6, size=(m, 2)).astype(float)
            else:
                poly = 3.0 * rng.normal(size=(m, 2))
            assert np.array_equal(_in_polygon(gx, gy, poly), in_polygon_ray_cast(gx, gy, poly))
            px, py = 3.0 * rng.normal(size=(2, 300))
            py[::3] = poly[rng.integers(m, size=100), 1]  # rows through vertices
            assert np.array_equal(_in_polygon(px, py, poly), in_polygon_ray_cast(px, py, poly))

    def test_boundary_simple_memory_is_linear(self):
        # 6144-edge circle, the rim of the n = 1024 disk.  The all-pairs form holds (m, m)
        # arrays: 6144^2 * 8 B = 302 MB per float array, 38 MB per bool array.
        # Bucketing holds O(m) arrays: each edge covers at most 2 x 2 cells,
        # so the (cell, edge) entries and candidate pairs number about 4m, and
        # 32 int64 arrays of 4m entries are 32 * 4 * 6144 * 8 B = 6.3 MB.
        t = 2.0 * np.pi * np.arange(6144) / 6144
        pts = np.column_stack([np.cos(t), np.sin(t)])
        assert _boundary_simple(pts)
        peak = _traced_peak(_boundary_simple, pts)
        assert peak < 8e6, peak

    def test_in_polygon_memory_is_linear(self):
        # 10^6 grid points against a 3000-edge circle.  Ray casting against
        # every edge holds (points, edges) arrays: 3e9 entries, 3 GB per bool
        # array.  The scanline form holds arrays over points (the row index
        # and sort workspace of np.unique, ranks, keys, counts) and over the
        # ~2000 crossings: 12 arrays of 10^6 * 8 B are 96 MB.
        t = 2.0 * np.pi * np.arange(3000) / 3000
        poly = np.column_stack([np.cos(t), np.sin(t)])
        g = np.linspace(-1.1, 1.1, 1000)
        gx, gy = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
        peak = _traced_peak(_in_polygon, gx, gy, poly)
        assert peak < 96e6, peak


def _traced_peak(fn, *args) -> int:
    """Peak bytes allocated during fn(*args); numpy reports its buffers to
    tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestKrustPipeline:
    def test_catalog_verdicts(self, catalog_data):
        for name in ("plane-r05", "shift3-r09", "rational-r09"):
            rep = krust_pipeline(immersion_from_data(catalog_data[name]), n=24)
            assert rep.verdict == "PASS"
            assert rep.domain_report.injective and rep.domain_report.is_convex_domain
            assert rep.conjugate_report.injective

    def test_report_serialization(self, catalog_data):
        obj = krust_pipeline(immersion_from_data(catalog_data["plane-r05"]), n=8).to_obj()
        assert obj["verdict"] == "PASS"
        assert set(obj["domain_report"]) == {
            "min_projected_triangle_area",
            "boundary_simple",
            "boundary_convexity_defect",
            "injective",
            "is_convex_domain",
        }

    def test_euclidean_pipeline_on_sharp_dual(self, catalog_data):
        data = catalog_data["shift3-r05"]
        im = immersion_from_data(data)
        dual = Immersion(
            sharp(im.curve),
            data.base_point,
            Vec3(0.0, 0.0, 0.0, Ambient.EUCLIDEAN),
        )
        rep = krust_pipeline(dual, n=24)
        assert rep.verdict == "PASS"
        assert rep.conjugate_report.injective


class TestRotationIdentity:
    def test_random_directions(self, catalog_data, rng):
        data = catalog_data["shift2.5-r05"]
        im = immersion_from_data(data)
        conj = conjugate_immersion(im)
        for w in disk_samples(rng, 0.5, 10):
            a, b = rng.normal(size=2)
            assert rotation_identity_check(im, conj, data, complex(w), (a, b)) < 1e-12

    def test_prebuilt_conjugate_bit_identical(self, catalog_data, rng):
        # a conjugate built once per datum gives the bits of one built per point
        for data in catalog_data.values():
            im = immersion_from_data(data)
            conj = conjugate_immersion(im)
            for w in disk_samples(rng, data.domain_radius, 3):
                w, d = complex(w), tuple(rng.normal(size=2))
                fresh = immersion_from_data(data)
                want = rotation_identity_check(fresh, conjugate_immersion(fresh), data, w, d)
                assert repr(rotation_identity_check(im, conj, data, w, d)) == repr(want)


class TestPullbackAndInequality:
    def test_plane_inequality_closed_form(self, plane15):
        out = krust_inequality_batch(plane15, [0j], [1.0 + 0j])
        assert abs(out.lhs[0] - PLANE_KRUST_BOTH_SIDES) < 1e-12
        assert abs(out.integral[0] - PLANE_KRUST_BOTH_SIDES) < 1e-9
        assert out.margin[0] > 0

    def test_batch_positive_margins(self, catalog_data, rng):
        data = catalog_data["rational-r05"]
        w1 = disk_samples(rng, 0.5, 12)
        w2 = disk_samples(rng, 0.5, 12)
        keep = np.abs(w1 - w2) > 1e-3
        out = krust_inequality_batch(data, w1[keep], w2[keep])
        assert np.all(out.lhs > 0)
        assert np.all(out.margin > 0)
        rel = np.abs(out.lhs - out.integral) / np.abs(out.lhs)
        assert float(np.max(rel)) < 1e-3

    def test_walker_halves_steps_that_leave_the_domain(self, catalog_data):
        # the target 10 lies far outside the projected domain: iterates that
        # leave the disk end in step halvings, never in an evaluation outside
        im = immersion_from_data(catalog_data["rational-r05"])
        walker = _ProjectionWalker(im, [0j, 0.1 + 0j])
        with pytest.raises(NewtonDivergence, match="12 step halvings"):
            walker.solve(np.array([0.2 + 0j, 10.0 + 0j]))
        assert np.max(np.abs(walker.w)) <= im.domain_radius

    def test_identical_endpoints_rejected(self, catalog_data):
        with pytest.raises(ValueError):
            krust_inequality_batch(catalog_data["plane-r05"], [0.1], [0.1])


class TestResampling:
    def test_resampled_field_solves_the_pde(self, catalog_data):
        out = resample_graph(catalog_data["shift3-r05"], 0.02)
        res = maximal_residual(out.field)
        assert float(np.max(np.abs(res.values[res.mask]))) < 1e-3
        assert out.dual_height.values.shape == out.field.values.shape

    def test_resampled_heights_match_immersion(self, catalog_data):
        data = catalog_data["shift3-r05"]
        out = resample_graph(data, 0.05)
        im = immersion_from_data(data)
        f = out.field
        idx = np.argwhere(f.mask)[:: max(1, int(f.mask.sum()) // 8)]
        for i, j in idx:
            x, y = f.xs()[i], f.ys()[j]
            # invert the projection by brute bisection-free scan: use the
            # stored height as a candidate and verify a true surface point
            # projects there with that height
            w = _invert_projection(im, complex(x, y))
            p = immerse(im, w)
            assert abs(complex(p.x1, p.x2) - complex(x, y)) < 1e-9
            assert abs(p.x3 - f.values[i, j]) < 1e-8

    def test_walker_projection_bits_per_form(self, catalog_data, rng):
        # psi1 and psi2 share their pole logarithms inside the walker
        for name in ("rational-r09", "shift4-r05"):
            data = catalog_data[name]
            im = immersion_from_data(data)
            w = disk_samples(rng, data.domain_radius, 200)
            x1, x2 = (integrate_per_form(f, im.base_point, w).real for f in im.curve.forms[:2])
            want = complex(data.base_value.x1, data.base_value.x2) + x1 + 1j * x2
            got = _ProjectionWalker(im, w).projection(w)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_nearest_vertex_matches_brute_force(self, catalog_data):
        data = catalog_data["rational-r09"]
        mesh = triangulate_disk(data.domain_radius, 48)
        ints = integrals_at_many(immersion_from_data(data), mesh.vertices)
        pv = ints[:, 0].real + 1j * ints[:, 1].real
        h = 0.01
        xs = h * np.arange(np.floor(pv.real.min() / h), np.ceil(pv.real.max() / h) + 1)
        ys = h * np.arange(np.floor(pv.imag.min() / h), np.ceil(pv.imag.max() / h) + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        poly = np.column_stack([pv.real, pv.imag])[mesh.boundary]
        inside = (gx + 1j * gy).ravel()[_in_polygon(gx.ravel(), gy.ravel(), poly)]
        targets = inside[::4]  # every 4th grid point keeps the brute force at ~1 s
        assert targets.size > 15000
        got = _nearest_vertex(pv, mesh.triangles, targets)
        want = np.concatenate(
            [np.argmin(np.abs(pv[None, :] - t[:, None]), axis=1) for t in np.array_split(targets, 32)]
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_nearest_vertex_ties_and_edge_buckets(self, seed):
        # a 4 x 4 lattice of unit squares in shuffled vertex order, with three
        # vertices repeated; half-integer targets sit on vertices (ties with
        # the repeats), mid-edges (two-way ties, across bucket columns) and
        # square centres (four-way ties), and reach every edge bucket row
        rng = np.random.default_rng(seed)
        n = 4
        i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
        lattice = (i + 1j * j).astype(complex)
        v00 = (i * (n + 1) + j)[(i < n) & (j < n)]
        tris = np.concatenate([np.column_stack([v00, v00 + n + 1, v00 + n + 2]),
                               np.column_stack([v00, v00 + n + 2, v00 + 1])])
        pts = np.concatenate([lattice, lattice[[0, 12, 24]]])
        order = rng.permutation(pts.size)
        points, triangles = pts[order], np.argsort(order)[tris]
        half = np.arange(0.0, n + 0.25, 0.5)
        targets = np.concatenate([(half[:, None] + 1j * half[None, :]).ravel(),
                                  rng.uniform(0, n, 200) + 1j * rng.uniform(0, n, 200)])
        got = _nearest_vertex(points, triangles, targets)
        want = np.argmin(np.abs(points[None, :] - targets[:, None]), axis=1)
        assert np.array_equal(got, want)

    def test_nearest_vertex_repeated_point_lower_index(self):
        points = np.array([0, 1, 1 + 1j, 1j, 1 + 1j], dtype=complex)
        triangles = np.array([[0, 1, 2], [0, 2, 3]])
        got = _nearest_vertex(points, triangles, np.array([1 + 1j, 0.9 + 0.9j, 0.5 + 0.5j]))
        assert got.tolist() == [2, 2, 0]

    def test_nearest_vertex_rejects_targets_outside_buckets(self):
        points = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
        triangles = np.array([[0, 1, 2], [0, 2, 3]])
        with pytest.raises(ValueError, match="outside the projected mesh"):
            _nearest_vertex(points, triangles, np.array([0.5 + 0.5j, 5.0 + 0.5j]))

    def test_lee_equivalence_small_discrepancy(self, catalog_data):
        assert lee_equivalence_check(catalog_data["shift3-r05"], 0.02) < 1e-4


def _invert_projection(im, target, iters=60):
    """Newton inversion of pi(X) independent of the package walker."""
    w = 0j
    for _ in range(iters):
        i1 = simpson_line(im.curve.psi1.eval, 0j, w)
        i2 = simpson_line(im.curve.psi2.eval, 0j, w)
        r = target - complex(i1.real, i2.real)
        if abs(r) < 1e-13:
            return w
        psi = im.curve.densities_at(w)
        a = 0.5 * (psi[0] + 1j * psi[1])
        b = 0.5 * np.conj(psi[0] - 1j * psi[1])
        det = abs(a) ** 2 - abs(b) ** 2
        w = w + (np.conj(a) * r - b * np.conj(r)) / det
    raise AssertionError("projection inversion did not converge")


def test_array_dataclasses_compare_by_identity(catalog_data):
    # frozen dataclasses holding ndarrays: == is identity and hash works
    data = catalog_data["rational-r05"]
    g = data.g

    def twice(make):
        return make(), make()

    pairs = [
        (g, RationalHolomorphic(g.num.copy(), g.den.copy(), g.radius)),
        twice(lambda: build_isotropic_maximal(data)),
        (data, WeierstrassData(data.g, data.dh, data.domain_radius, data.base_point, data.base_value)),
        twice(lambda: triangulate_disk(0.5, 3)),
        twice(lambda: sample_surface(immersion_from_data(data), triangulate_disk(0.5, 3))),
        twice(lambda: ScalarField((0.0, 0.0), 1.0, np.zeros((2, 2)), np.ones((2, 2), bool))),
        twice(lambda: VectorField2((0.0, 0.0), 1.0, np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2), bool))),
        twice(lambda: KrustInequality(np.ones(2), np.ones(2), np.zeros(2))),
    ]
    for a, b in pairs:
        assert a == a and a != b, type(a).__name__
        assert len({a, b, a}) == 2
