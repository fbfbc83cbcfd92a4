from types import SimpleNamespace

import numpy as np
import pytest

from maxsurf.duality import sharp
from maxsurf import meshcheck, rational
from maxsurf.errors import CurlError, DegenerateTriangle, DomainError, FloatRangeError, NewtonDivergence
from maxsurf.graphfield import ScalarField, maximal_residual
from maxsurf.lorentz import Ambient, Vec3
from maxsurf.meshcheck import (
    PASS,
    ParamMesh,
    SurfaceMesh,
    _BLOCK,
    _SHAPE,
    _barycentric,
    _boundary_simple,
    _check_disk,
    _disk_topology,
    _erode,
    _locate,
    _orientation,
    _projections,
    _pull_back,
    _report_from_points,
    _resample_grid,
    _signed_areas,
    krust_pipeline,
    lee_equivalence_check,
    projection_report,
    resample_graph,
    sample_surface,
    triangulate_disk,
)
from maxsurf.rational import RationalHolomorphic, integrate_to_many
from maxsurf.weierstrass import (
    Immersion,
    WeierstrassData,
    build_isotropic_maximal,
    conjugate_immersion,
    immerse,
    immersion_from_data,
    rotation_identity_check,
)

from conftest import disk_samples, traced_peak
from oracles import (
    PLANE_KRUST_BOTH_SIDES,
    KrustInequality,
    barycentric_by_roll,
    boundary_simple_all_pairs,
    boundary_simple_exact,
    check_disk_searched,
    disk_triangle_count,
    VectorField2,
    disk_vertex_count,
    folded_disk_mesh,
    in_polygon_exact,
    in_polygon_ray_cast,
    in_polygon_scanline,
    integrate_per_form,
    krust_inequality_batch,
    locate_by_candidates,
    merge_walk_disk,
    nearest_vertex_bucketed,
    plane_immersion_point,
    projections_complex_formula,
    projections_from_tables,
    report_from_points_axis0,
    rim_convex_exact,
    signed_areas_copy,
    simpson_line,
    triangulate_disk_uncached,
)

# _locate forms slopes of vertical edges (0/0, x/0) and may overflow on huge
# coordinates; it keeps these inside np.errstate.  The pull-back stops at a
# nan seed or residual before it steps on it.  So no test here may warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

    @pytest.mark.parametrize("first, second", [(0, 11), (2, 9)])
    def test_boundary_repeat_anywhere_in_the_cycle_rejected(self, first, second):
        # the rim of the n = 2 disk with one vertex listed twice, at both ends
        # of the cycle or apart (test_repeated_boundary_vertex_rejected has
        # the repeat side by side)
        mesh = triangulate_disk(1.0, 2)
        b = np.array(mesh.boundary)
        b[second] = b[first]
        with pytest.raises(ValueError, match="^boundary cycle repeats a vertex$"):
            _check_disk(mesh.vertices, mesh.triangles, b)

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

    @pytest.mark.parametrize("block, sizes", [(8192, range(37, 40)), (1, range(1, 13)), (7, range(1, 13))])
    def test_builder_matches_merge_walk_across_run_cuts(self, monkeypatch, block, sizes):
        # _disk_triangles and _ring_vertices form runs of whole rings of
        # about _BLOCK triangles or vertices: ring 38 starts at triangle 8214,
        # past the default block, and blocks of 1 and 7 cut after every ring
        # or every few
        monkeypatch.setattr(meshcheck, "_BLOCK", block)
        _disk_topology.cache_clear()
        try:
            for n in sizes:
                tris = merge_walk_disk(1.0, n)[1]
                assert np.array_equal(meshcheck._disk_triangles(n), tris)
                assert np.array_equal(triangulate_disk(1.0, n).triangles, tris)
                verts = merge_walk_disk(0.9, n)[0]
                assert np.array_equal(triangulate_disk(0.9, n).vertices.view(np.int64), verts.view(np.int64))
        finally:
            _disk_topology.cache_clear()

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

    @pytest.mark.parametrize("roll", range(3))
    def test_shape_bound_reads_all_three_edges(self, roll):
        # apex angle 130 degrees at corner `roll`, legs of length 1: area
        # 0.383 clears 0.14 x 1^2 but not 0.14 x (base 1.81)^2 = 0.460, so the
        # triangle passes only if one edge is missed; roll 0 puts the base at
        # z2 - z1, the edge that is the difference of the other two
        verts = np.exp(1j * np.radians([90.0, 25.0, 155.0]))
        verts[0] = 0.0
        tri = np.roll([0, 1, 2], roll)[None, :]
        with pytest.raises(ValueError, match="below 0.14"):
            _check_disk(verts, tri, tri[0])
        verts[1:] = np.exp(1j * np.radians([30.0, 150.0]))  # apex 120 degrees: 0.433 >= 0.420
        _check_disk(verts, tri, tri[0])

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

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
    def test_verdicts_across_block_cuts(self, monkeypatch, block):
        # _check_disk reads its sorted keys and its triangles in blocks: with
        # blocks this small, repeated keys, twin pairs and rim half-edges of
        # the n = 2 disk fall on every side of a cut, and each damage still
        # gets the message of the unblocked oracle
        monkeypatch.setattr(meshcheck, "_BLOCK", block)
        mesh = triangulate_disk(1.0, 2)
        z, t, b = mesh.vertices, np.array(mesh.triangles), np.array(mesh.boundary)
        cases = [(z, t, b), (z, t, b[::-1]), (z, t, np.roll(b, 5))]
        cases += [(z, np.concatenate([t, t[[i]]]), b) for i in range(len(t))]  # overlap, and Euler
        cases += [(z, np.delete(t, i, axis=0), b) for i in range(len(t))]  # Euler, or rim
        cases += [(z, t[:, [1, 0, 2]], b[::-1])]  # every triangle reversed, rim too
        for v in range(z.size):  # one vertex moved: thin or reversed triangles
            for move in (0.5, 0.9, -1.0, 1.5j):
                zv = np.array(z)
                zv[v] = move * zv[v] if v else 0.3 * move
                cases.append((zv, t, b))

        def verdict(check, *args):
            try:
                check(*args)
            except ValueError as e:
                return str(e)
            return "ok"

        seen = {verdict(_check_disk, *case) for case in cases}
        for case in cases:
            assert verdict(_check_disk, *case) == verdict(check_disk_searched, *case, _SHAPE)
        assert len(seen) >= 6

    @pytest.mark.parametrize("block", [1, 4, 8, 64])
    def test_orientation_decided_before_shape(self, monkeypatch, block):
        # n = 3: triangles 0 and 49 thin, 50 and 51 reversed; the thin one in
        # the first block must not be reported ahead of the later reversal
        monkeypatch.setattr(meshcheck, "_BLOCK", block)
        mesh = triangulate_disk(1.0, 3)
        z = np.array(mesh.vertices)
        z[0] = 0.9 * (z[1] + z[2]) / 2  # squashes triangle (1, 2, 0)
        with pytest.raises(ValueError, match="^a triangle's area is below 0.14"):
            _check_disk(z, mesh.triangles, mesh.boundary)
        z[mesh.boundary[-2]] *= 0.45  # a rim vertex inside ring 2
        with pytest.raises(ValueError, match="^parameter triangles must be positively oriented$"):
            _check_disk(z, mesh.triangles, mesh.boundary)
        with pytest.raises(ValueError, match="^parameter triangles must be positively oriented$"):
            check_disk_searched(z, mesh.triangles, mesh.boundary, _SHAPE)

    # Meshes as built: certified once per n, at every radius in range.

    @pytest.mark.parametrize("radius", [0.5, 0.9, 1e-3, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_matches_uncached_build_bit_for_bit(self, radius, n):
        mesh = triangulate_disk(radius, n)
        verts, tris, boundary = triangulate_disk_uncached(radius, n)
        assert np.array_equal(mesh.vertices.view(np.int64), verts.view(np.int64))
        assert np.array_equal(mesh.triangles, tris)
        assert np.array_equal(mesh.boundary, boundary)

    def test_build_holds_blocks(self):
        # n = 256: 393,216 triangles (4.7 MB), 197,377 vertices (3.2 MB) and
        # 9.4 MB of half-edge keys; full-size temporaries traced 30.3 MB
        _disk_topology.cache_clear()
        peak = traced_peak(triangulate_disk, 0.9, 256)
        _disk_topology.cache_clear()
        assert peak < 25e6, peak / 1e6

    def test_sampling_holds_blocks(self, catalog_data):
        # 4.7 MB of positions at n = 256; integrating every vertex at once
        # traced 25.4 MB
        mesh = triangulate_disk(0.9, 256)
        im = immersion_from_data(catalog_data["rational-r09"])
        peak = traced_peak(sample_surface, im, mesh)
        assert peak < 8e6, peak / 1e6

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
        rep = projection_report(SurfaceMesh(param, pos))
        assert rep.injective and rep.boundary_simple
        assert not rep.is_convex_domain
        assert rep.boundary_convexity_defect < 0

    def test_rim_winding_twice_not_convex(self):
        # w -> w^2 wraps the rim twice around the origin: every local turn is
        # to the left, but the total turning is 4 pi
        param = triangulate_disk(1.0, 8)
        w = param.vertices**2
        pos = np.stack([w.real, w.imag, np.zeros(w.size)], axis=1)
        rep = projection_report(SurfaceMesh(param, pos))
        assert rep.boundary_convexity_defect > 0
        assert not rep.boundary_simple
        assert not rep.is_convex_domain

    @pytest.mark.parametrize("m, k", [(3, 1), (4, 1), (6, 1), (64, 1), (5, 2), (7, 2), (7, 3), (8, 3), (11, 3)])
    def test_star_polygon_convex_iff_regular(self, m, k):
        # the star {m/k} turns left at every vertex and winds k times
        rim = np.exp(2j * np.pi * k * np.arange(m) / m)
        assert np.all(_orientation(rim, np.roll(rim, -1), np.roll(rim, -2)) > 0)
        rep = _fan_report(rim, 0j)
        assert rep.boundary_simple is rep.is_convex_domain is (k == 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_left_turning_rims_match_exact_oracle(self, rng, k):
        # points at increasing angles, steps under pi, on a random ellipse:
        # every turn is to the left and the rim winds k times
        for _ in range(100):
            m = int(rng.integers(8 * k, 41))
            step = rng.uniform(0.2, 1.0, m)
            angle = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(step * 2.0 * np.pi * k / step.sum())
            centre = complex(*rng.normal(size=2))
            a, b = rng.uniform(0.5, 2.0, 2)
            rim = centre + np.exp(1j * rng.uniform(0.0, np.pi)) * (a * np.cos(angle) + 1j * b * np.sin(angle))
            assert np.all(_orientation(rim, np.roll(rim, -1), np.roll(rim, -2)) > 0)
            rep = _fan_report(rim, centre)
            assert rep.is_convex_domain is rim_convex_exact(_xy(rim)) is (k == 1)

    @pytest.mark.parametrize("shift", [-1e-16, 0.0, 1e-16])
    def test_rim_convexity_ties_decided_exactly(self, shift):
        # each rim vertex in turn moved to its neighbours' rounded midpoint,
        # then out (or in) by a shift below the float turn's rounding error
        param = triangulate_disk(1.0, 4)
        rim = param.boundary
        for k in range(rim.size):
            z = param.vertices.copy()
            a, b = z[rim[k - 1]], z[rim[(k + 1) % rim.size]]
            mid = 0.5 * (a + b)
            z[rim[k]] = mid + shift * mid / abs(mid)
            want = rim_convex_exact(np.column_stack([z.real, z.imag])[rim])
            assert _report_from_points(z, param).is_convex_domain is want

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_catalog_reports_match_axis0_span_oracle(self, catalog_data, n):
        # 1-D span reductions and in-place halved areas keep the oracle's bits
        for data in catalog_data.values():
            im = immersion_from_data(data)
            mesh = triangulate_disk(data.domain_radius, n)
            for z in _projections(im, mesh.vertices):
                want = signed_areas_copy(z, mesh.triangles)
                assert np.array_equal(_signed_areas(z, mesh.triangles).view(np.int64), want.view(np.int64))
                assert _bits(_report_from_points(z, mesh)) == _bits(report_from_points_axis0(_xy(z), mesh))

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_projections_match_table_and_sum_oracles(self, catalog_data, n):
        # one complex form keeps the bits of the (N, 2) tables and of the
        # x + 1j * y sums, at every vertex including the centre w = base point;
        # each datum also with a base value whose three components differ
        shifted = Vec3(0.3, -1.7, 0.5, Ambient.LORENTZIAN)
        for data in catalog_data.values():
            mesh = triangulate_disk(data.domain_radius, n)
            assert mesh.vertices[0] == data.base_point
            for base in (data.base_value, shifted):
                im = Immersion(immersion_from_data(data).curve, data.base_point, base)
                got = _projections(im, mesh.vertices)
                for want in (projections_from_tables(im, mesh.vertices),
                             projections_complex_formula(im, mesh.vertices)):
                    for g, w in zip(got, want, strict=True):
                        assert np.array_equal(g.view(np.int64), w.view(np.int64))

    @pytest.mark.parametrize("stretch", [(1.0, 1.0), (1e3, 1.0), (1.0, 1e3)])
    def test_degeneracy_threshold_matches_axis0_span_oracle(self, stretch):
        # one triangle squeezed towards the threshold _AREA_EPS scale^2, with
        # either span the larger: both forms take the same decision at every squeeze
        param = triangulate_disk(1.0, 2)
        for squeeze in 10.0 ** -np.arange(9, 20, 0.25):
            pts = np.column_stack([param.vertices.real, param.vertices.imag]) * stretch
            pts[0] = pts[1] + squeeze * (pts[0] - pts[1])
            outcomes = []
            for report, points in ((_report_from_points, _complex(pts)), (report_from_points_axis0, pts)):
                try:
                    outcomes.append(report(points, param).min_projected_triangle_area)
                except DegenerateTriangle:
                    outcomes.append("degenerate")
            assert outcomes[0] == outcomes[1]

    def test_degenerate_projection_rejected(self):
        param = triangulate_disk(1.0, 2)
        pos = np.zeros((len(param.vertices), 3))  # everything collapses
        with pytest.raises(DegenerateTriangle):
            projection_report(SurfaceMesh(param, pos))

    def test_non_finite_positions_or_areas_rejected(self):
        param = triangulate_disk(1.0, 2)
        pos = np.zeros((len(param.vertices), 3))
        pos[:, :2] = 1e300 * np.column_stack([param.vertices.real, param.vertices.imag])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatRangeError, match="not finite"):
                projection_report(SurfaceMesh(param, pos))
        pos = pos.copy()
        pos[3, 0] = np.inf
        with pytest.raises(FloatRangeError, match="non-finite position"):
            SurfaceMesh(param, pos)

    # blocks of one point at n = 64 would take 12,289 blocks per datum
    @pytest.mark.parametrize("block, n", [(1, 7), (5, 7), (64, 7), (5, 64), (64, 64)])
    def test_block_cuts_keep_oracle_bits(self, monkeypatch, catalog_data, block, n):
        # _projections forms its points and _report_from_points its areas in
        # blocks of _BLOCK: cuts anywhere keep the whole-mesh oracles' bits
        monkeypatch.setattr(meshcheck, "_BLOCK", block)
        for data in catalog_data.values():
            im = immersion_from_data(data)
            mesh = triangulate_disk(data.domain_radius, n)
            got = _projections(im, mesh.vertices)
            for g, w in zip(got, projections_from_tables(im, mesh.vertices), strict=True):
                assert np.array_equal(g.view(np.int64), w.view(np.int64))
            for z in got:
                assert _bits(_report_from_points(z, mesh)) == _bits(report_from_points_axis0(_xy(z), mesh))

    @pytest.mark.parametrize("far", ["point", "area"])
    def test_non_finite_in_later_block_than_degenerate_triangle(self, monkeypatch, far):
        # n = 2 in blocks of 5 triangles: triangle 0 is collapsed in the first
        # block, and rim vertex 17 (triangles 19-21, blocks 3 and 4) is
        # infinite, or it and vertex 18 are finite but their triangle's area
        # overflows: the float range fault is raised, as the oracle raises it
        monkeypatch.setattr(meshcheck, "_BLOCK", 5)
        param = triangulate_disk(1.0, 2)
        far_vertices = [17] if far == "point" else [17, 18]
        assert not np.isin(far_vertices, param.triangles[:15]).any()
        z = np.array(param.vertices)
        z[0] = z[1]  # triangle (1, 2, 0)
        z[far_vertices] = np.inf if far == "point" else 1e300 * z[far_vertices]
        with np.errstate(over="ignore", invalid="ignore"):
            for report, points in ((_report_from_points, z), (report_from_points_axis0, _xy(z))):
                with pytest.raises(FloatRangeError, match="not finite"):
                    report(points, param)
        z[far_vertices] = param.vertices[far_vertices]
        for report, points in ((_report_from_points, z), (report_from_points_axis0, _xy(z))):
            with pytest.raises(DegenerateTriangle):
                report(points, param)

    def test_krust_pipeline_holds_blocks(self, catalog_data):
        # n = 256, mesh built beforehand: 3.2 MB of vertices and 6.3 MB of
        # projections; whole-mesh integrals and areas traced 31.5 MB
        data = catalog_data["rational-r09"]
        im = immersion_from_data(data)
        triangulate_disk(data.domain_radius, 256)
        peak = traced_peak(krust_pipeline, im, 256)
        assert peak < 12e6, peak / 1e6

    def test_projection_report_holds_blocks(self, catalog_data):
        # n = 256: 3.2 MB of projected points; whole-mesh areas traced 25.2 MB
        data = catalog_data["rational-r09"]
        mesh = sample_surface(immersion_from_data(data), triangulate_disk(data.domain_radius, 256))
        peak = traced_peak(projection_report, mesh)
        assert peak < 6e6, peak / 1e6

    def test_sample_surface_vertices_match_immersion(self, plane15):
        im = immersion_from_data(plane15)
        param = triangulate_disk(1.2, 4)
        mesh = sample_surface(im, param)
        for k in (0, 7, 30, len(param.vertices) - 1):
            want = plane_immersion_point(complex(param.vertices[k]))
            assert np.max(np.abs(mesh.positions[k] - want)) < 1e-12


def _complex(pts: np.ndarray) -> np.ndarray:
    """The (m, 2) float points as complex points, bit for bit."""
    return np.ascontiguousarray(pts, dtype=float).view(complex)[:, 0]


def _bits(rep) -> tuple:
    """A GraphReport's floats as their int64 bits, with its verdicts."""
    floats = np.array([rep.min_projected_triangle_area, rep.boundary_convexity_defect])
    return floats.view(np.int64).tolist(), rep.boundary_simple, rep.injective, rep.is_convex_domain


def _fan_report(rim: np.ndarray, centre: complex):
    """_report_from_points over the triangles (centre, rim[j], rim[j + 1]),
    the rim cycle being the closed polyline rim."""
    m = rim.size
    j = np.arange(m)
    param = SimpleNamespace(triangles=np.column_stack([np.full(m, m), j, (j + 1) % m]), boundary=j)
    return _report_from_points(np.append(rim, centre), param)


def _xy(z: np.ndarray) -> np.ndarray:
    """The complex points as an (m, 2) float array, bit for bit (the oracles' format)."""
    return np.column_stack([z.real, z.imag])


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
        assert _boundary_simple(_complex(pts))

    def test_boundary_simple_matches_exact_oracle_near_collinear(self, rng):
        verdicts = []
        for pts in _near_collinear_polylines(rng, 1000):
            got = _boundary_simple(_complex(pts))
            assert got == boundary_simple_exact(pts), pts
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts exercised

    def test_boundary_simple_matches_all_pairs_oracle(self, rng):
        # last: edge 0 folds back onto edge 1, so vertex 0 (the end of edge 3)
        # lies on edge 1, a contact only the end-on-edge term sees
        fold = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        verdicts = []
        for pts in [*_random_polylines(rng, 3000), fold]:
            got = _boundary_simple(_complex(pts))
            assert got == boundary_simple_all_pairs(pts), pts
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts exercised

    def test_boundary_simple_without_non_adjacent_candidates(self):
        # the unit square's two non-adjacent pairs are dropped by their boxes:
        # the horizontal edges' y ranges and the vertical edges' x ranges are
        # disjoint, so no pair is left to test
        z = np.array([0, 1, 1 + 1j, 1j])
        assert _boundary_simple(z)
        assert not _boundary_simple(z[[0, 2, 1, 3]])  # the crossed bow tie

    def test_non_finite_boundary_not_simple(self):
        t = 2.0 * np.pi * np.arange(12) / 12
        z = _complex(np.column_stack([np.cos(t), np.sin(t)]))
        assert _boundary_simple(z)
        z[5] = complex(np.nan, np.nan)
        assert not _boundary_simple(z)
        assert not _boundary_simple(np.full(6, complex(np.nan, np.nan)))
        assert not _boundary_simple(np.full(6, complex(0.0, np.nan)))

    def test_boundary_simple_matches_oracle_on_catalog_rims(self, catalog_data):
        meshes = {r: triangulate_disk(r, 128) for r in {d.domain_radius for d in catalog_data.values()}}
        for data in catalog_data.values():
            im = immersion_from_data(data)
            mesh = meshes[data.domain_radius]
            for rim in _projections(im, mesh.vertices[mesh.boundary]):
                assert _boundary_simple(rim) == boundary_simple_all_pairs(_xy(rim))
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
            assert np.array_equal(in_polygon_scanline(gx, gy, _complex(poly)), in_polygon_ray_cast(gx, gy, poly))
            px, py = 3.0 * rng.normal(size=(2, 300))
            py[::3] = poly[rng.integers(m, size=100), 1]  # rows through vertices
            assert np.array_equal(in_polygon_scanline(px, py, _complex(poly)), in_polygon_ray_cast(px, py, poly))

    def test_boundary_simple_memory_is_linear(self):
        # 6144-edge circle, the rim of the n = 1024 disk.  The all-pairs form holds (m, m)
        # arrays: 6144^2 * 8 B = 302 MB per float array, 38 MB per bool array.
        # The sweep holds O(m) arrays: each edge's x range meets those of
        # about 2 later edges in the sorted order, so the candidate pairs
        # number about 2m, and 32 int64 arrays of 2m entries are 3.1 MB.
        t = 2.0 * np.pi * np.arange(6144) / 6144
        z = _complex(np.column_stack([np.cos(t), np.sin(t)]))
        assert _boundary_simple(z)
        peak = traced_peak(_boundary_simple, z)
        assert peak < 8e6, peak

    def test_boundary_simple_memory_with_one_long_edge(self):
        # a 2047-point semicircle closed by its chord: the chord's x range
        # meets every other edge's, about m pairs.  A float grid whose cell is
        # the longest edge put every edge in one cell: m^2 / 2 pairs, 437.7 MB
        z = np.exp(1j * np.pi * np.arange(2047) / 2046)
        assert _boundary_simple(z)
        peak = traced_peak(_boundary_simple, z)
        assert peak <= 5e6, peak

    @pytest.mark.parametrize("seed", range(4))
    def test_locate_lattice_points_in_one_triangle(self, seed):
        # half-integer grid points sit on vertices, edge midpoints and square
        # centres: moved by (+e, +e^2), each point of the half-open square
        # [0, 4)^2 lies in one triangle (_locate raises on a point in two),
        # and no other point lies in any
        points, triangles, _ = _shuffled_lattice(seed)
        half = np.arange(-0.5, 4.75, 0.5)
        owner = _locate(points, triangles, half, half)
        gx, gy = np.meshgrid(half, half, indexing="ij")
        assert np.array_equal(owner.reshape(gx.shape) >= 0, (gx >= 0) & (gx < 4) & (gy >= 0) & (gy < 4))
        cell = np.flatnonzero(owner >= 0)
        q = (gx + 1j * gy).ravel()[cell]
        corners = points[triangles[owner[cell]]]
        weight = _barycentric(corners.T, q).T
        assert np.max(np.abs(np.sum(weight * corners, axis=1) - q)) < 1e-14
        assert np.all(weight >= 0) and np.allclose(weight.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_barycentric_matches_roll_oracle_on_random_triangles(self, rng):
        # about half the triangles are clockwise; the seeds' explicit
        # (w0 v0 + w1 v1) + w2 v2 has np.sum's bits
        for scale in (1.0, 1e-8, 1e8):
            v = scale * (rng.normal(size=(20000, 3)) + 1j * rng.normal(size=(20000, 3)))
            q = scale * (rng.normal(size=20000) + 1j * rng.normal(size=20000))
            u = rng.normal(size=(20000, 3)) + 1j * rng.normal(size=(20000, 3))
            want = barycentric_by_roll(v, q)
            got = _barycentric(v.T, q)
            assert np.count_nonzero(np.imag(np.conj(v[:, 1] - v[:, 0]) * (v[:, 2] - v[:, 0])) < 0) > 5000
            assert np.array_equal(got.view(np.int64), want.T.view(np.int64))
            seed = (got[0] * u[:, 0] + got[1] * u[:, 1]) + got[2] * u[:, 2]
            assert np.array_equal(seed.view(np.int64), np.sum(want * u, axis=1).view(np.int64))

    @pytest.mark.parametrize("seed", range(6))
    def test_locate_mask_matches_exact_oracle(self, seed):
        # even seeds: integer lattices whose grid points land on vertices and
        # edges (ties); odd seeds: float jitter
        points, triangles, rim, xs = _jittered_lattice(np.random.default_rng(seed), integer=seed % 2 == 0)
        assert np.all(_signed_areas(points, triangles) > 0) and _boundary_simple(points[rim])
        mask = _locate(points, triangles, xs, xs) >= 0  # raises on a point in two triangles
        gx, gy = (a.ravel() for a in np.meshgrid(xs, xs, indexing="ij"))
        assert np.array_equal(mask, in_polygon_exact(gx, gy, _xy(points[rim])))

    def test_locate_refuses_overlapping_triangles(self):
        # the second triangle covers half of the first: their common grid
        # points would each be claimed twice
        points = np.array([0, 4, 4j, 2j], dtype=complex)
        xs = np.arange(0.0, 4.5, 0.5)
        with pytest.raises(ValueError, match="lies in two triangles"):
            _locate(points, np.array([[0, 1, 2], [0, 1, 3]]), xs, xs)

    @pytest.mark.parametrize("h", [0.01, 0.02, 0.05])
    def test_locate_masks_match_scanline_on_catalog(self, catalog_data, h):
        # resample_graph's grids at n = 48; equal raw masks erode alike
        for data in catalog_data.values():
            mesh = triangulate_disk(data.domain_radius, 48)
            p = _projections(immersion_from_data(data), mesh.vertices)[0]
            xs, ys = _resample_grid(p[mesh.boundary], h)
            mask = (_locate(p, mesh.triangles, xs, ys) >= 0).reshape(xs.size, ys.size)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            want = in_polygon_scanline(gx.ravel(), gy.ravel(), p[mesh.boundary]).reshape(gx.shape)
            assert np.array_equal(mask, want)

    def test_locate_memory_is_linear(self):
        # 10^6 grid points against the 98,304 triangles of the n = 128 unit
        # disk, 0.65M hits.  Testing every grid point in each triangle's
        # bounding box peaked at 230 MB with all triangles in one block and
        # 9.2 MB in blocks of 2048.  Float spans in blocks of _LOCATE_BLOCK
        # triangles peak at 5.9 MB: the returned int32 triangle per grid
        # point (4 MB) and one block's per-column arrays.
        mesh = triangulate_disk(1.0, 128)
        g = np.linspace(-1.1, 1.1, 1000)
        peak = traced_peak(_locate, mesh.vertices, mesh.triangles, g, g)
        assert peak < 6.5e6, peak


def _shuffled_lattice(seed: int):
    """A 4 x 4 lattice of unit squares, each cut into two triangles, in
    shuffled vertex order with three vertices repeated: (points, triangles,
    the generator that shuffled them)."""
    rng = np.random.default_rng(seed)
    n = 4
    i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
    lattice = (i + 1j * j).astype(complex)
    v00 = (i * (n + 1) + j)[(i < n) & (j < n)]
    tris = np.concatenate([np.column_stack([v00, v00 + n + 1, v00 + n + 2]),
                           np.column_stack([v00, v00 + n + 2, v00 + 1])])
    pts = np.concatenate([lattice, lattice[[0, 12, 24]]])
    order = rng.permutation(pts.size)
    return pts[order], np.argsort(order)[tris], rng


def _jittered_lattice(rng, integer: bool, n: int = 5):
    """An n x n lattice of squares cut along random diagonals, with jittered
    vertices: (points, triangles, rim cycle, grid coordinates).  Integer
    jitter of at most 1 on spacing 6, or float jitter below 0.2 on spacing 1,
    moves no vertex across the opposite edge of a triangle."""
    i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
    if integer:
        points = (6 * i + rng.integers(-1, 2, i.size)) + 1j * (6 * j + rng.integers(-1, 2, i.size))
        xs = np.arange(-2.0, 6 * n + 2.5, 0.5)
    else:
        points = (i + rng.uniform(-0.2, 0.2, i.size)) + 1j * (j + rng.uniform(-0.2, 0.2, i.size))
        xs = np.linspace(-0.5, n + 0.5, 61)
    v00 = (i * (n + 1) + j)[(i < n) & (j < n)]
    v10, v11, v01 = v00 + n + 1, v00 + n + 2, v00 + 1
    cut = rng.random(v00.size) < 0.5  # diagonal v00 - v11, else v10 - v01
    triangles = np.concatenate([
        np.where(cut[:, None], np.column_stack([v00, v10, v11]), np.column_stack([v00, v10, v01])),
        np.where(cut[:, None], np.column_stack([v00, v11, v01]), np.column_stack([v10, v11, v01])),
    ])
    k = np.arange(n)
    rim = np.concatenate([k * (n + 1), n * (n + 1) + k, (n - k) * (n + 1) + n, n - k])
    return points.astype(complex), triangles, rim, xs


def _same_as_candidates(points, triangles, xs, ys):
    """_locate's owner array equals the bounding-box oracle's; returns it."""
    owner = _locate(points, triangles, xs, ys)
    assert np.array_equal(owner, locate_by_candidates(points, triangles, xs, ys))
    return owner


class TestLocateOracle:
    """_locate's float spans against locate_by_candidates, which tests every
    grid point in each triangle's bounding box exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_lattice(self, seed):
        points, triangles, _ = _shuffled_lattice(seed)
        for step in (0.5, 0.25, 1 / 3):
            g = np.arange(-0.5, 4.75, step)
            assert np.count_nonzero(_same_as_candidates(points, triangles, g, g) >= 0) > 0
        assert _same_as_candidates(points, triangles, g, g[:0]).size == 0  # no rows

    @pytest.mark.parametrize("seed", range(6))
    def test_jittered_lattice(self, seed):
        points, triangles, _, xs = _jittered_lattice(np.random.default_rng(seed), integer=seed % 2 == 0)
        _same_as_candidates(points, triangles, xs, xs)
        _same_as_candidates(points, triangles, xs, xs[::3] + 0.01)

    def test_vertical_edges_on_grid_columns(self):
        # an edge up x = 1 and an edge down x = 2, each with grid points on it
        points = np.array([1, 1 + 1j, 0.5j, 2 + 1j, 2, 3 + 0.5j])
        triangles = np.array([[0, 1, 2], [3, 4, 5]])
        g = np.arange(-0.5, 3.6, 0.25)
        owner = _same_as_candidates(points, triangles, g, g)
        assert np.count_nonzero(owner == 0) > 0 and np.count_nonzero(owner == 1) > 0

    def test_horizontal_edges_and_corners_on_grid_points(self):
        # the edges y = 0 and y = 1 lie on grid rows, every corner on a grid point
        points = np.array([0, 1, 0.5 + 1j, 3 + 1j, 2 + 1j, 2.5])
        g = np.arange(-0.5, 3.6, 0.25)
        _same_as_candidates(points, np.array([[0, 1, 2], [3, 4, 5]]), g, g)

    def test_slivers_on_the_long_edge(self):
        # B one ulp below AC (a float area within its rounding bound), and
        # 1e-13 below it (a certain area whose lines lie within the margin of
        # AC); a second triangle shares AC, and grid points lie on AC: moved
        # by (+e, +e^2) they fall below it
        g = np.arange(-0.25, 1.3, 0.125)
        for b in (0.5 + 1j * np.nextafter(0.25, 0), 0.5 + 1j * (0.25 - 1e-13)):
            points = np.array([0, b, 1 + 0.5j, 0.5 + 0.75j])
            triangles = np.array([[0, 1, 2], [0, 2, 3]])
            owner = _same_as_candidates(points, triangles, g, g).reshape(g.size, g.size)
            assert owner[np.searchsorted(g, 0.5), np.searchsorted(g, 0.25)] == 0

    def test_spacing_below_the_margin(self):
        # spacing 2^-45 at coordinates near 1: each margin band (about 2^-40)
        # holds dozens of rows
        points, triangles, _, _ = _jittered_lattice(np.random.default_rng(3), integer=False)
        points = 1 + 1j + points * 2.0**-42
        g = 1 + np.arange(-4, 48) * 2.0**-45
        assert np.count_nonzero(_same_as_candidates(points, triangles, g, g) >= 0) > 1000

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_scaled_coordinates(self, scale):
        for integer in (True, False):
            points, triangles, _, xs = _jittered_lattice(np.random.default_rng(1), integer=integer)
            owner = _same_as_candidates(points * scale, triangles, xs * scale, xs * scale)
            assert np.count_nonzero(owner >= 0) > 0

    def test_clockwise_and_zero_area_triangles_hold_nothing(self):
        # beside one counterclockwise triangle: two clockwise ones (one with a
        # vertical edge), two collinear ones and one with a repeated corner,
        # each over grid points
        points = np.array([0, 2, 2j, 3.1 + 0.1j, 3.7 + 2.2j, 4.6 + 0.4j, 1.1 + 3.1j, 2.1 + 3.6j,
                           3.1 + 4.1j, 5, 5 + 2j, 6, 1 + 5j, 3 + 5j, 4 + 5j])
        triangles = np.array([[0, 1, 2], [3, 4, 5], [9, 10, 11], [6, 7, 8], [12, 13, 14], [4, 4, 8]])
        g = np.arange(-0.5, 6.6, 0.5)
        owner = _same_as_candidates(points, triangles, g, g)
        assert set(np.unique(owner)) == {-1, 0}

    @pytest.mark.parametrize("h", [0.05, 0.02, 0.01, 0.005])
    def test_catalog_grids(self, catalog_data, h):
        for data in catalog_data.values():
            mesh = triangulate_disk(data.domain_radius, 48)
            p = _projections(immersion_from_data(data), mesh.vertices)[0]
            _same_as_candidates(p, mesh.triangles, *_resample_grid(p[mesh.boundary], h))


class TestKrustPipeline:
    def test_catalog_verdicts(self, catalog_data):
        for name in ("plane-r05", "shift3-r09", "rational-r09"):
            rep = krust_pipeline(immersion_from_data(catalog_data[name]), n=24)
            assert rep.verdict == "PASS"
            assert rep.domain_report.injective and rep.domain_report.is_convex_domain
            assert rep.conjugate_report.injective

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2])
    def test_non_convex_domain_not_applicable_at_every_scale(self, n, scale):
        # g = 1.6 + 0.3 z, dh = (1 + 0.5 z) dz: the domain rim bends inwards
        # near theta = pi; its turns there shrink like scale^2 / n^2
        g = RationalHolomorphic.polynomial([1.6, 0.3], 2.0)
        dh = RationalHolomorphic.polynomial([scale, 0.5 * scale], 2.0)
        rep = krust_pipeline(immersion_from_data(WeierstrassData(g, dh, 1.0)), n=n)
        assert rep.domain_report.injective and rep.domain_report.boundary_convexity_defect < 0
        assert rep.verdict == "NOT_APPLICABLE"

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1e2])
    def test_catalog_verdicts_scale_free(self, catalog_data, scale):
        # scaling dh is a similarity of both projections
        for name, data in catalog_data.items():
            scaled = WeierstrassData(data.g, data.dh * scale, data.domain_radius)
            reports = [krust_pipeline(immersion_from_data(d), n=16) for d in (data, scaled)]
            assert [r.verdict for r in reports] == ["PASS", "PASS"], name
            assert reports[1].conjugate_report.is_convex_domain is reports[0].conjugate_report.is_convex_domain

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
        ws, direction = disk_samples(rng, 0.5, 10), rng.normal(size=(2, 10))
        assert np.max(rotation_identity_check(im, conjugate_immersion(im), data, ws, direction)) < 1e-12

    def test_prebuilt_conjugate_bit_identical(self, catalog_data, rng):
        # a conjugate an earlier call used gives the bits of a fresh one
        for data in catalog_data.values():
            im = immersion_from_data(data)
            conj = conjugate_immersion(im)
            rotation_identity_check(im, conj, data, disk_samples(rng, data.domain_radius, 3), (1.0, 0.0))
            ws, d = disk_samples(rng, data.domain_radius, 3), rng.normal(size=(2, 3))
            fresh = immersion_from_data(data)
            want = rotation_identity_check(fresh, conjugate_immersion(fresh), data, ws, d)
            assert np.array_equal(rotation_identity_check(im, conj, data, ws, d), want)

    def test_surface_is_not_its_own_conjugate(self, catalog_data, rng):
        # the check can fail: with im in place of its conjugate, the residual
        # is |X_u (b - a) - X_v (a + b)|, at least sqrt(2) times the conformal
        # factor for a unit direction (a, b)
        for data in catalog_data.values():
            im = immersion_from_data(data)
            ws, d = disk_samples(rng, data.domain_radius, 20), rng.normal(size=(2, 20))
            d /= np.hypot(*d)
            assert np.min(rotation_identity_check(im, im, data, ws, d)) > 1.0


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

    def test_pull_back_stops_where_iterates_leave_the_domain(self, catalog_data, monkeypatch):
        # the target 10 lies far outside the projected domain: the iterate
        # that leaves the disk ends the pull-back by name, and no primitive
        # (so no projection) is evaluated outside the disk
        im = immersion_from_data(catalog_data["rational-r05"])
        seen = []
        original = rational.Primitive.__call__

        def primitive(self, w, logs=None):
            seen.append(float(np.max(np.abs(w))))
            return original(self, w, logs)

        monkeypatch.setattr(rational.Primitive, "__call__", primitive)
        with pytest.raises(NewtonDivergence, match="left the domain disk"):
            _pull_back(im, [0j, 0.1 + 0j], np.array([0.2 + 0j, 10.0 + 0j]))
        assert seen and max(seen) <= im.domain_radius

    def test_non_convex_segment_leaves_the_disk(self):
        # g = 1.6 + 0.6 z^2 on r = 0.9: the domain is not convex, and the plane
        # segment between these two points leaves it, so no continuation step
        # has a preimage
        data = WeierstrassData(RationalHolomorphic([1.6, 0.0, 0.6], [1.0], 2.0),
                               RationalHolomorphic.constant(1.0, 2.0), 0.9)
        assert krust_pipeline(immersion_from_data(data), n=32).verdict == "NOT_APPLICABLE"
        with pytest.raises(NewtonDivergence, match="left the domain disk"):
            krust_inequality_batch(data, [0.85 * np.exp(1j * np.pi / 6)], [0.85 * np.exp(2j * np.pi / 3)])

    def test_pull_back_singular_differential(self):
        # dh = 1e-155 dz: |a|^2 underflows below the 1e-300 cut
        data = WeierstrassData(RationalHolomorphic.constant(3.0, 2.0),
                               RationalHolomorphic.constant(1e-155, 2.0), 0.5)
        with pytest.raises(NewtonDivergence, match="projected differential is singular"):
            _pull_back(immersion_from_data(data), [0.1], [1.0])

    def test_pull_back_seed_outside_the_disk(self, catalog_data):
        im = immersion_from_data(catalog_data["rational-r05"])
        with pytest.raises(DomainError, match="outside validity disk"):
            _pull_back(im, [0j, 1.01 * im.domain_radius], [0j, 0j])

    @pytest.mark.parametrize("where", ["target", "seed"])
    def test_pull_back_refuses_nan_at_once(self, catalog_data, where):
        # a nan target or seed ran _NEWTON_ITERS steps of nan before "no
        # convergence"; a per-point err > _TOL would call a nan converged
        im = immersion_from_data(catalog_data["rational-r05"])
        w = np.array([0.1 + 0.1j, 0.2 + 0j, -0.1j])
        target = _projections(im, w)[0]
        (target if where == "target" else w)[1] = complex(np.nan, 0.0)
        with pytest.raises(NewtonDivergence, match="not finite"):
            _pull_back(im, w, target)

    def test_pull_back_projection_has_projections_bits(self, catalog_data, monkeypatch, rng):
        # with _TOL = 0, only _projections' own bits meet a target that is
        # _projections' image of w: one step more fails with no convergence
        monkeypatch.setattr(meshcheck, "_TOL", 0.0)
        monkeypatch.setattr(meshcheck, "_NEWTON_ITERS", 1)
        for name in ("rational-r09", "shift4-r09", "plane-r05"):
            data = catalog_data[name]
            im = immersion_from_data(data)
            w = disk_samples(rng, data.domain_radius, 2000)
            beta = _pull_back(im, w, _projections(im, w)[0])
            assert np.array_equal(beta.view(np.int64), w.view(np.int64))

    def test_pull_back_stops_each_point_at_its_own_tol(self, catalog_data):
        # an easy point (seeded 1e-6 off) and a hard one (0.05 off): stepping
        # every point until the batch converged moved the easy one's beta by
        # 1.0e-13 against its own run
        im = immersion_from_data(catalog_data["shift4-r09"])
        w = np.array([0.3 + 0.2j, -0.5 + 0.1j])
        target = _projections(im, w)[0]
        seed = w + np.array([1e-6, 0.05])
        alone = _pull_back(im, seed[:1], target[:1])
        both = _pull_back(im, seed, target)
        assert np.array_equal(both[:1].view(np.int64), alone.view(np.int64))
        assert np.max(np.abs(both - w)) < 1e-9

    def test_pull_back_no_convergence(self, catalog_data, monkeypatch):
        im = immersion_from_data(catalog_data["plane-r05"])
        target = _projections(im, np.array([0.3 + 0.2j]))[0]
        monkeypatch.setattr(meshcheck, "_NEWTON_ITERS", 1)
        with pytest.raises(NewtonDivergence, match="no convergence in 1 Newton steps"):
            _pull_back(im, [0j], target)

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
        # psi1 and psi2 share their pole logarithms in _projections, as the
        # pull-back does at each Newton iterate
        for name in ("rational-r09", "shift4-r05"):
            data = catalog_data[name]
            im = immersion_from_data(data)
            w = disk_samples(rng, data.domain_radius, 200)
            x1, x2 = (integrate_per_form(f, im.base_point, w).real for f in im.curve.forms[:2])
            want = complex(data.base_value.x1, data.base_value.x2) + x1 + 1j * x2
            got = _projections(im, w)[0]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_nearest_vertex_matches_brute_force(self, catalog_data):
        data = catalog_data["rational-r09"]
        mesh = triangulate_disk(data.domain_radius, 48)
        pv = _projections(immersion_from_data(data), mesh.vertices)[0]
        h = 0.01
        xs = h * np.arange(np.floor(pv.real.min() / h), np.ceil(pv.real.max() / h) + 1)
        ys = h * np.arange(np.floor(pv.imag.min() / h), np.ceil(pv.imag.max() / h) + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        inside = (gx + 1j * gy).ravel()[in_polygon_scanline(gx.ravel(), gy.ravel(), pv[mesh.boundary])]
        targets = inside[::4]  # every 4th grid point keeps the brute force at ~1 s
        assert targets.size > 15000
        got = nearest_vertex_bucketed(pv, mesh.triangles, targets)
        want = np.concatenate(
            [np.argmin(np.abs(pv[None, :] - t[:, None]), axis=1) for t in np.array_split(targets, 32)]
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_nearest_vertex_ties_and_edge_buckets(self, seed):
        # the shuffled lattice with three vertices repeated; half-integer
        # targets sit on vertices (ties with the repeats), mid-edges (two-way
        # ties, across bucket columns) and square centres (four-way ties),
        # and reach every edge bucket row
        points, triangles, rng = _shuffled_lattice(seed)
        n = 4
        half = np.arange(0.0, n + 0.25, 0.5)
        targets = np.concatenate([(half[:, None] + 1j * half[None, :]).ravel(),
                                  rng.uniform(0, n, 200) + 1j * rng.uniform(0, n, 200)])
        got = nearest_vertex_bucketed(points, triangles, targets)
        want = np.argmin(np.abs(points[None, :] - targets[:, None]), axis=1)
        assert np.array_equal(got, want)

    def test_heights_independent_of_seeds(self, catalog_data):
        # Newton from the nearest projected vertex, the earlier seeds, reaches
        # the heights resample_graph reaches from barycentric seeds
        data = catalog_data["rational-r09"]
        h = 0.05
        f = resample_graph(data, h).field
        im = immersion_from_data(data)
        mesh = triangulate_disk(data.domain_radius, 48)
        p = _projections(im, mesh.vertices)[0]
        xs, ys = _resample_grid(p[mesh.boundary], h)
        i, j = np.nonzero(f.mask)
        targets = xs[i] + 1j * ys[j]
        beta = _pull_back(im, mesh.vertices[nearest_vertex_bucketed(p, mesh.triangles, targets)], targets)
        heights = data.base_value.x3 + integrate_to_many(im.curve.psi3, im.base_point, beta).real
        assert np.max(np.abs(heights - f.values[f.mask])) < 1e-9

    def test_plane_rim_tie_decided_exactly(self, catalog_data):
        # at h = 0.005 the grid point (-0.625, 0) lies outside plane-r05's
        # sampled rim by a cross product of -6.8e-21 with one rim edge; the
        # scanline test's rounded crossing abscissa counted it inside
        data = catalog_data["plane-r05"]
        f = resample_graph(data, 0.005).field
        mesh = triangulate_disk(data.domain_radius, 48)
        rim = _projections(immersion_from_data(data), mesh.vertices)[0][mesh.boundary]
        xs, ys = _resample_grid(rim, 0.005)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        inside = in_polygon_exact(gx.ravel(), gy.ravel(), _xy(rim)).reshape(gx.shape)
        assert not inside[np.argmin(np.abs(xs + 0.625)), np.argmin(np.abs(ys))]
        assert np.array_equal(f.mask, _erode(inside, 2))

    def test_lee_equivalence_small_discrepancy(self, catalog_data):
        assert lee_equivalence_check(catalog_data["shift3-r05"], 0.02) < 1e-4

    def test_pull_back_calls_hold_one_block(self, catalog_data, monkeypatch):
        # about 100k grid points on shift4-r09 at h = 0.01, in np.nonzero order
        sizes = []
        pull_back = meshcheck._pull_back

        def recorded(im, w, target):
            sizes.append(np.size(target))
            return pull_back(im, w, target)

        monkeypatch.setattr(meshcheck, "_pull_back", recorded)
        f = resample_graph(catalog_data["shift4-r09"], 0.01).field
        assert sum(sizes) == np.count_nonzero(f.mask) > 10 * _BLOCK
        assert max(sizes) == _BLOCK

    def test_pull_back_work_per_point(self, catalog_data, monkeypatch):
        # about 100k grid points on shift4-r09 at h = 0.01; after one Newton
        # step 1 to 333 points per block stay above _TOL.  Stepping every
        # point until its block converged gave psi1's primitive 3.00 and its
        # _eval 2.00 points per grid point inside _pull_back
        counts = {"primitive": 0, "eval": 0}
        inside = []
        pull_back, primitive_call = meshcheck._pull_back, rational.Primitive.__call__
        eval_call = RationalHolomorphic._eval

        def recorded(im, w, target):
            inside.append(im.curve.psi1)
            try:
                return pull_back(im, w, target)
            finally:
                inside.pop()

        def primitive(self, w, logs=None):
            if inside and self is inside[-1].primitive:
                counts["primitive"] += np.size(w)
            return primitive_call(self, w, logs)

        def evaluate(self, z):
            if inside and self is inside[-1]:
                counts["eval"] += np.size(z)
            return eval_call(self, z)

        monkeypatch.setattr(meshcheck, "_pull_back", recorded)
        monkeypatch.setattr(rational.Primitive, "__call__", primitive)
        monkeypatch.setattr(RationalHolomorphic, "_eval", evaluate)
        points = np.count_nonzero(resample_graph(catalog_data["shift4-r09"], 0.01).field.mask)
        assert points > 10 * _BLOCK
        assert counts["primitive"] <= 2.05 * points, counts["primitive"] / points
        assert points <= counts["eval"] <= 1.05 * points, counts["eval"] / points

    def test_blocked_heights_match_one_pull_back(self, catalog_data):
        # each point's Newton stops at its own _TOL, so blocks cut at other
        # points give the same bits, and one call over all points the same
        # heights (to rounding: numpy may form a product of arrays above
        # 256 KiB in a temporary operand's memory, with the operands swapped)
        data = catalog_data["shift4-r09"]
        h = 0.01
        out = resample_graph(data, h)
        im = immersion_from_data(data)
        mesh = triangulate_disk(data.domain_radius, 48)
        p = _projections(im, mesh.vertices)[0]
        xs, ys = _resample_grid(p[mesh.boundary], h)
        i, j = np.nonzero(out.field.mask)
        assert i.size > _BLOCK
        targets = xs[i] + 1j * ys[j]
        corners = mesh.triangles[_locate(p, mesh.triangles, xs, ys).reshape(xs.size, ys.size)[i, j]]
        seeds = np.sum(barycentric_by_roll(p[corners], targets) * mesh.vertices[corners], axis=1)
        i3 = np.concatenate([integrate_to_many(im.curve.psi3, im.base_point,
                                               _pull_back(im, seeds[s:s + 3000], targets[s:s + 3000]))
                             for s in range(0, i.size, 3000)])
        assert np.array_equal(out.field.values[i, j], data.base_value.x3 + i3.real)
        assert np.array_equal(out.dual_height.values[i, j], -i3.imag)
        i3 = integrate_to_many(im.curve.psi3, im.base_point, _pull_back(im, seeds, targets))
        assert np.max(np.abs(out.field.values[i, j] - (data.base_value.x3 + i3.real))) < 1e-12
        assert np.max(np.abs(out.dual_height.values[i, j] + i3.imag)) < 1e-12

    @pytest.mark.parametrize("h", [0.05, 0.01])
    def test_resample_seeds_match_barycentric_oracle(self, catalog_data, monkeypatch, h):
        # the targets and seeds resample_graph gives _pull_back, against the
        # np.roll weights and their np.sum seeds on the same owner triangles
        calls = []
        pull_back = meshcheck._pull_back

        def recorded(im, w, target):
            calls.append((np.copy(w), np.copy(target)))
            return pull_back(im, w, target)

        monkeypatch.setattr(meshcheck, "_pull_back", recorded)
        for data in catalog_data.values():
            calls.clear()
            mask = resample_graph(data, h).field.mask
            mesh = triangulate_disk(data.domain_radius, 48)
            p = _projections(immersion_from_data(data), mesh.vertices)[0]
            xs, ys = _resample_grid(p[mesh.boundary], h)
            k = np.flatnonzero(mask)
            targets = xs[k // ys.size] + 1j * ys[k % ys.size]
            corners = mesh.triangles[_locate(p, mesh.triangles, xs, ys)[k]]
            weights = barycentric_by_roll(p[corners], targets)
            assert np.array_equal(_barycentric(p[corners.T], targets).view(np.int64), weights.T.view(np.int64))
            seeds = np.sum(weights * mesh.vertices[corners], axis=1)
            got_seeds, got_targets = (np.concatenate(c) for c in zip(*calls))
            assert np.array_equal(got_targets.view(np.int64), targets.view(np.int64))
            assert np.array_equal(got_seeds.view(np.int64), seeds.view(np.int64))

    @pytest.mark.parametrize("h", [0.0, -0.01, float("nan"), float("inf")])
    def test_resample_refuses_bad_spacing_by_name(self, catalog_data, h):
        # 0, -0.01 and nan failed inside numpy; inf raised OverlapEmpty
        with pytest.raises(ValueError, match="grid spacing must be finite and positive"):
            resample_graph(catalog_data["shift4-r09"], h)

    def test_resample_refuses_oversized_grid_before_allocating(self, catalog_data):
        # h = 1e-4 on shift4-r09 asks for 1.33e9 grid points (a 5.3 GB owner
        # array); the projection of the n = 48 mesh traces 0.97 MB before
        # the grid check
        data = catalog_data["shift4-r09"]
        resample_graph(data, 0.05)  # the mesh topology, cached

        def refused():
            with pytest.raises(ValueError, match="points, above 4194304"):
                resample_graph(data, 1e-4)

        assert traced_peak(refused) < 1e6

    def test_resample_memory_is_blocked(self, catalog_data):
        # 377k grid points on plane-r09 at h = 0.0025.  Blocks of
        # _BLOCK points peak at 23 MB, mostly whole-grid arrays;
        # one block of all points peaks at 72-97 MB, on Newton temporaries.
        peak = traced_peak(resample_graph, catalog_data["plane-r09"], 0.0025)
        assert peak < 30e6, peak

    @pytest.mark.xfail(strict=True, raises=CurlError,
                       reason="the absolute curl tolerance refuses steep convex data at h = 0.01")
    def test_lee_check_on_steep_convex_datum(self):
        # g = 1.6 + 0.6 z, dh = dz, r = 0.5: a convex domain whose conjugate is
        # a graph (min |g| = 1.3, near the light cone).  The grid curl falls
        # about linearly with h: 0.0147 at h = 0.01 against the pinned 1e-2
        # (a gap of 4.0e-5 at h = 0.005).
        data = WeierstrassData(RationalHolomorphic.polynomial([1.6, 0.6], 2.0),
                               RationalHolomorphic.polynomial([1.0], 2.0), 0.5)
        assert krust_pipeline(immersion_from_data(data), n=64).verdict == PASS
        assert meshcheck._LEE_CURL_TOL == 1e-2
        assert lee_equivalence_check(data, 0.01) < 1e-3


def _invert_projection(im, target, iters=60):
    """Newton inversion of pi(X) independent of the package pull-back."""
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
