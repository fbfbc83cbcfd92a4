import json

import numpy as np
import pytest

from maxsurf.errors import (
    CurlError,
    DegenerateMask,
    NotSimplyConnected,
    NotSpacelike,
    OverlapEmpty,
)
from maxsurf.graphfield import (
    ScalarField,
    dualize_maximal_to_minimal,
    dualize_minimal_to_maximal,
    flux_curl,
    gradient,
    load_field,
    maximal_residual,
    minimal_residual,
    save_field,
    shift_agreement,
)

from oracles import helicoid_dual_height, helicoid_height


def full(x, y):
    return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=bool)


def affine(x, y):
    return 0.25 * x - 0.6 * y + 1.5


def rect(func, h=0.1, origin=(0.0, 0.0), nx=12, ny=9):
    return ScalarField.sample(func, full, origin, h, nx, ny)


def helicoid_rect(h):
    return ScalarField.sample(
        helicoid_height, full, (1.1, -0.6), h, int(round(0.8 / h)) + 1, int(round(1.2 / h)) + 1
    )


class TestScalarField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScalarField((0, 0), 0.1, np.zeros((3, 3)), np.ones((3, 4), dtype=bool))

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            ScalarField((0, 0), 0.0, np.zeros((3, 3)), np.ones((3, 3), dtype=bool))

    def test_nan_on_mask_rejected(self):
        vals = np.zeros((3, 3))
        vals[1, 1] = np.nan
        with pytest.raises(ValueError):
            ScalarField((0, 0), 0.1, vals, np.ones((3, 3), dtype=bool))

    def test_arrays_read_only(self):
        f = rect(affine)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_sample_grid_coordinates(self):
        f = ScalarField.sample(lambda x, y: x + 10 * y, full, (1.0, 2.0), 0.5, 3, 2)
        assert f.xs().tolist() == [1.0, 1.5, 2.0]
        assert f.ys().tolist() == [2.0, 2.5]
        assert f.values[2, 1] == 2.0 + 25.0


class TestDerivatives:
    def test_gradient_affine_exact(self):
        g = gradient(rect(affine))
        assert np.max(np.abs(g.w1 - 0.25)) < 1e-13
        assert np.max(np.abs(g.w2 + 0.6)) < 1e-13

    def test_gradient_quadratic_exact(self):
        # central and the matched one-sided rules are all exact through quadratics
        g = gradient(rect(lambda x, y: x * x - 0.5 * y * y + x * y))
        f = rect(lambda x, y: x * x - 0.5 * y * y + x * y)
        X, Y = np.meshgrid(f.xs(), f.ys(), indexing="ij")
        assert np.max(np.abs(g.w1 - (2 * X + Y))) < 1e-12
        assert np.max(np.abs(g.w2 - (X - Y))) < 1e-12

    def test_gradient_isolated_cell_axis_raises(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, :] = True  # one-cell-thick row: no x-neighbors anywhere
        with pytest.raises(DegenerateMask):
            gradient(ScalarField((0, 0), 0.1, np.zeros((4, 4)), mask))

    def test_magnitude(self):
        g = gradient(rect(affine))
        assert abs(float(g.magnitude()[3, 3]) - np.hypot(0.25, 0.6)) < 1e-14


class TestResiduals:
    def test_affine_residuals_vanish(self):
        # not bitwise zero: the one-sided boundary stencils round their weights
        f = rect(affine)
        assert np.max(np.abs(minimal_residual(f).values)) < 1e-12
        assert np.max(np.abs(maximal_residual(f).values)) < 1e-12

    def test_helicoid_residual_second_order(self):
        worst = {}
        for h in (0.02, 0.01):
            res = minimal_residual(helicoid_rect(h))
            worst[h] = float(np.max(np.abs(res.values[res.mask])))
        assert worst[0.02] / worst[0.01] > 3.7  # order >= 1.9

    def test_curl_equals_residual_bit_for_bit(self):
        f = helicoid_rect(0.02)
        res = minimal_residual(f)
        curl = flux_curl(f, "minimal")
        assert np.array_equal(curl.values, res.values)
        assert np.array_equal(curl.mask, res.mask)

    def test_curl_equals_negated_residual_maximal(self):
        f = ScalarField.sample(
            lambda x, y: np.sqrt(1.0 + x * x + y * y), full, (-0.4, -0.4), 0.05, 17, 17
        )
        res = maximal_residual(f)
        curl = flux_curl(f, "maximal")
        assert np.array_equal(curl.values, -res.values)
        assert np.array_equal(curl.mask, res.mask)

    def test_residual_lives_on_plaquette_centers(self):
        f = rect(affine, h=0.1, origin=(2.0, 3.0))
        res = minimal_residual(f)
        assert abs(res.origin[0] - 2.05) < 1e-14 and abs(res.origin[1] - 3.05) < 1e-14
        assert res.values.shape == (f.nx - 1, f.ny - 1)

    def test_maximal_requires_spacelike(self):
        with pytest.raises(NotSpacelike):
            maximal_residual(rect(lambda x, y: 1.2 * x))


class TestDualize:
    def test_tilted_plane_dual_is_rotated_scaled(self):
        f = rect(lambda x, y: x, h=0.05, nx=21, ny=21)
        dual = dualize_minimal_to_maximal(f)
        X, Y = np.meshgrid(f.xs(), f.ys(), indexing="ij")
        target = Y / np.sqrt(2.0)
        assert shift_agreement(dual, ScalarField(f.origin, f.spacing, target, f.mask)) < 1e-13

    def test_helicoid_dual_matches_closed_form(self):
        f = helicoid_rect(0.01)
        dual = dualize_minimal_to_maximal(f, curl_tol=1e-2)
        X, Y = np.meshgrid(f.xs(), f.ys(), indexing="ij")
        exact = ScalarField(f.origin, f.spacing, helicoid_dual_height(X, Y), f.mask)
        assert shift_agreement(dual, exact) < 2e-6

    def test_round_trip_restores_input_to_second_order(self):
        # the two grid operators are inverse only up to their O(h^2) errors;
        # the intermediate field's own residual also feeds the curl guard
        errs = {}
        for h in (0.02, 0.01):
            f = helicoid_rect(h)
            back = dualize_maximal_to_minimal(
                dualize_minimal_to_maximal(f, curl_tol=0.1), curl_tol=0.1
            )
            errs[h] = shift_agreement(back, f)
        assert errs[0.02] < 5e-4
        assert errs[0.02] / errs[0.01] > 3.5

    def test_dual_gradient_stays_spacelike(self):
        f = helicoid_rect(0.02)
        dual = dualize_minimal_to_maximal(f, curl_tol=1e-2)
        assert float(np.max(gradient(dual).magnitude()[dual.mask])) < 1.0

    def test_non_solution_rejected(self):
        f = rect(lambda x, y: 0.25 * (x * x + y * y), h=0.05, nx=25, ny=25)
        with pytest.raises(CurlError):
            dualize_minimal_to_maximal(f)

    def test_non_spacelike_input_rejected(self):
        with pytest.raises(NotSpacelike):
            dualize_maximal_to_minimal(rect(lambda x, y: 1.5 * y))

    # Fields may have any mask; dualization is where the mask must be
    # nonempty, 4-connected and hole-free.
    def test_empty_mask_rejected(self):
        f = ScalarField((0, 0), 0.1, np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
        with pytest.raises(NotSimplyConnected, match="empty"):
            dualize_minimal_to_maximal(f)

    def test_disconnected_mask_rejected(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = mask[4, 4] = True
        f = ScalarField((0, 0), 0.1, np.zeros((5, 5)), mask)
        with pytest.raises(NotSimplyConnected, match="Euler count 2"):
            dualize_minimal_to_maximal(f)

    def test_annulus_mask_rejected(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[2, 2] = False
        f = ScalarField((0, 0), 0.1, np.zeros((5, 5)), mask)
        with pytest.raises(NotSimplyConnected, match="Euler count 0"):
            dualize_maximal_to_minimal(f)

    def test_annulus_plus_block_rejected_by_tree(self):
        # two components, one with a hole: Euler count 2 - 1 = 1, so the
        # spanning-tree integration is what finds the second component
        mask = np.zeros((12, 12), dtype=bool)
        mask[:5, :5] = True
        mask[2, 2] = False
        mask[7:, 7:] = True
        f = ScalarField((0, 0), 0.1, np.zeros((12, 12)), mask)
        with pytest.raises(NotSimplyConnected, match="4-connected"):
            dualize_minimal_to_maximal(f)


class TestShiftAgreement:
    def test_constant_shift_invisible(self):
        f = rect(affine)
        g = ScalarField(f.origin, f.spacing, f.values + 7.25, f.mask)
        assert shift_agreement(f, g) < 1e-12

    def test_grid_mismatch_rejected(self):
        f = rect(affine)
        g = rect(affine, h=0.2)
        with pytest.raises(ValueError):
            shift_agreement(f, g)

    def test_empty_overlap_rejected(self):
        mask_a = np.zeros((6, 6), dtype=bool)
        mask_a[:2, :2] = True
        mask_b = np.zeros((6, 6), dtype=bool)
        mask_b[4:, 4:] = True
        a = ScalarField((0, 0), 0.1, np.zeros((6, 6)), mask_a)
        b = ScalarField((0, 0), 0.1, np.zeros((6, 6)), mask_b)
        with pytest.raises(OverlapEmpty):
            shift_agreement(a, b)


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        f = ScalarField.sample(
            lambda x, y: np.sin(x) * np.cos(y),
            lambda x, y: (x - 0.55) ** 2 + (y - 0.55) ** 2 < 0.3,
            (0.0, 0.0),
            0.1,
            12,
            12,
        )
        csv, head = tmp_path / "f.csv", tmp_path / "f.json"
        save_field(f, csv, head)
        g = load_field(csv, head)
        assert g.origin == f.origin and g.spacing == f.spacing
        assert np.array_equal(g.mask, f.mask)
        assert np.array_equal(g.values[g.mask], f.values[f.mask])

    def test_malformed_row_rejected(self, tmp_path):
        head = tmp_path / "f.json"
        head.write_text(json.dumps({"origin": [0, 0], "spacing": 0.1, "nx": 3, "ny": 3}))
        csv = tmp_path / "f.csv"
        csv.write_text("x,y,value\n0.0,0.0\n")
        with pytest.raises(ValueError):
            load_field(csv, head)

    def test_off_grid_point_rejected(self, tmp_path):
        head = tmp_path / "f.json"
        head.write_text(json.dumps({"origin": [0, 0], "spacing": 0.1, "nx": 3, "ny": 3}))
        csv = tmp_path / "f.csv"
        csv.write_text("x,y,value\n5.0,0.0,1.0\n")
        with pytest.raises(ValueError):
            load_field(csv, head)
