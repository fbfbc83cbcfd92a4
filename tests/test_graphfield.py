import io
import json
import re

import numpy as np
import pytest

from maxsurf import textio
from maxsurf.errors import (
    CurlError,
    DegenerateMask,
    MaxsurfError,
    NotSimplyConnected,
    NotSpacelike,
    OverlapEmpty,
)
from maxsurf.graphfield import (
    _RULES,
    ScalarField,
    _axis_derivative,
    _dualize,
    _EdgeData,
    _edges,
    _load_rows,
    _read_header,
    _tree_integrate,
    _validate_mask,
    dualize_maximal_to_minimal,
    dualize_minimal_to_maximal,
    load_field,
    maximal_residual,
    minimal_residual,
    save_field,
    shift_agreement,
)

from maxsurf.meshcheck import _LEE_CURL_TOL, resample_graph

from conftest import assert_no_children, traced_peak
from oracles import (
    EdgeDataPerAxis,
    axis_derivative_rules,
    dualize_reference,
    flux_curl,
    flux_curl_per_axis,
    gradient,
    helicoid_dual_height,
    helicoid_height,
    load_field_rows,
    save_field_rows,
    tree_integrate_sweeps,
)


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

    def test_curl_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="'minmal'"):
            flux_curl(helicoid_rect(0.02), "minmal")

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

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["minimal", "maximal"])
    def test_curl_certificate_is_the_residual(self, sign):
        # _dualize's curl certificate is the input's largest plaquette
        # residual, bit for bit: one ulp below it the field is refused, and
        # at it the field passes
        f = rect(lambda x, y: 0.25 * (x * x + y * y), h=0.05, nx=25, ny=25)
        res = minimal_residual(f) if sign > 0 else maximal_residual(f)
        worst = float(np.max(np.abs(res.values[res.mask])))
        below = np.nextafter(worst, 0.0)
        message = f"curl certificate {worst:.3g} exceeds tolerance {below:g}"
        with pytest.raises(CurlError, match=f"^{re.escape(message)}$"):
            _dualize(f, sign, below)
        assert _dualize(f, sign, worst).mask.sum() == f.mask.sum()

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


def _snake(nx, ny):
    # rows joined alternately at the right and left ends: one path through
    # about nx * ny / 2 cells, far longer than the grid's diameter
    mask = np.zeros((nx, ny), dtype=bool)
    mask[::2, :] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def _disk(n):
    i, j = np.indices((n, n)) - (n - 1) / 2
    return i * i + j * j <= (n / 2) ** 2


def _ell(n):
    mask = np.zeros((n, n), dtype=bool)
    mask[:, :3] = mask[:3, :] = True
    return mask


def _blob(n, seed):
    # the 4-connected component of (0, 0) in a random mask: holes and
    # branches, so cells are often reachable from two sides in one sweep
    rng = np.random.default_rng(seed)
    cells = rng.random((n, n)) < 0.65
    cells[0, 0] = True
    comp = np.zeros_like(cells)
    comp[0, 0] = True
    while True:
        grown = comp.copy()
        grown[1:, :] |= comp[:-1, :]
        grown[:-1, :] |= comp[1:, :]
        grown[:, 1:] |= comp[:, :-1]
        grown[:, :-1] |= comp[:, 1:]
        grown &= cells
        if np.array_equal(grown, comp):
            return comp
        comp = grown


class TestTreeIntegrate:
    """The frontier wavefront against the full-grid sweeps of tests/oracles.py."""

    @pytest.mark.parametrize(
        "mask, anchor",
        [
            (np.ones((13, 8), dtype=bool), (0, 0)),
            (_disk(21), (0, 8)),
            (_ell(17), (0, 0)),
            (_snake(23, 19), (0, 0)),
            (_snake(23, 19), (12, 7)),
            (np.ones((1, 30), dtype=bool), (0, 0)),
            (np.ones((30, 1), dtype=bool), (0, 0)),
            (np.ones((1, 1), dtype=bool), (0, 0)),
            (np.ones((9, 11), dtype=bool), (5, 6)),
            (_disk(21), (10, 10)),
            (_blob(40, 0), (0, 0)),
            (_blob(40, 2), (0, 0)),
        ],
        ids=["rectangle", "disk", "ell", "snake", "snake-mid", "strip-1xN", "strip-Nx1",
             "one-cell", "rectangle-mid", "disk-center", "blob-0", "blob-2"],
    )
    def test_bit_identical_to_sweeps(self, mask, anchor):
        rng = np.random.default_rng(sum(mask.shape) + anchor[0])
        nx, ny = mask.shape
        inc_x = rng.standard_normal((nx - 1, ny))
        inc_y = rng.standard_normal((nx, ny - 1))
        got = _tree_integrate(mask, inc_x, inc_y, anchor)
        want = tree_integrate_sweeps(mask, inc_x, inc_y, anchor)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_disconnected_mask_raises_like_sweeps(self):
        mask = _snake(9, 9)
        mask[4, 4] = False
        inc_x, inc_y = np.ones((8, 9)), np.ones((9, 8))
        for integrate in (_tree_integrate, tree_integrate_sweeps):
            with pytest.raises(NotSimplyConnected, match="4-connected"):
                integrate(mask, inc_x, inc_y, (0, 0))


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

    def test_origin_mismatch_rejected(self):
        f = rect(affine, nx=4, ny=4)
        g = rect(affine, origin=(5.0, -3.0), nx=4, ny=4)
        with pytest.raises(ValueError, match="different grids"):
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


def ragged_field():
    """A field on a ragged mask whose values include signed zero, the
    smallest subnormal and long decimal expansions."""
    rng = np.random.default_rng(7)
    mask = rng.uniform(size=(9, 13)) < 0.6
    values = np.where(mask, rng.normal(size=(9, 13)) * 10.0 ** rng.integers(-8, 9, (9, 13)), 0.0)
    values[mask] = np.concatenate([[-0.0, 5e-324, 1e16, 0.1, 1 / 3], values[mask][5:]])
    return ScalarField((-0.35, 1 / 3), 0.1, values, mask)


def big_ragged_field():
    """ragged_field's kinds of values on a 150 x 170 grid: over 20k masked
    cells, so save_field and load_field split their rows into parts."""
    rng = np.random.default_rng(11)
    mask = rng.uniform(size=(150, 170)) < 0.85
    values = np.where(mask, rng.normal(size=mask.shape) * 10.0 ** rng.integers(-8, 9, mask.shape), 0.0)
    values[mask] = np.concatenate([[-0.0, 5e-324, 1e16, 0.1, 1 / 3], values[mask][5:]])
    return ScalarField((-0.35, 1 / 3), 0.1, values, mask)


def assert_same_field(got: ScalarField, want):
    origin, h, values, mask = want
    assert got.origin == origin and got.spacing == h
    assert got.values.tobytes() == values.tobytes()
    assert np.array_equal(got.mask, mask)


def saved_rows(tmp_path):
    """big_ragged_field saved: the CSV and header paths, and the CSV text."""
    csv, head = tmp_path / "f.csv", tmp_path / "f.json"
    save_field(big_ragged_field(), csv, head)
    return csv, head, csv.read_text()


def parse_cuts(text):
    """Where textio.read_rows cuts a file of this ASCII text: the part
    bounds, and the chunk starts inside each part."""
    fh = io.BytesIO(text.encode())
    cuts = textio._part_cuts(fh)
    return cuts, [c for a, b in zip(cuts, cuts[1:]) for c in textio._chunk_cuts(fh, a, b)[1:-1]]


def raw_cuts(text):
    """The offsets that textio.read_rows moves on to line starts in a file
    of this ASCII text: the part bounds, then the chunk bounds."""
    seen, line_start = [], textio._line_start
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_line_start", lambda fh, c: seen.append(c) or line_start(fh, c))
        fh = io.BytesIO(text.encode())
        cuts = textio._part_cuts(fh)
        parts = seen[1:]  # after the end of the header line
        seen.clear()
        for a, b in zip(cuts, cuts[1:]):
            textio._chunk_cuts(fh, a, b)
    return parts, seen


def load_or_message(csv, head, load):
    """load(csv, head), or the message of the ValueError it raises."""
    try:
        return load(csv, head)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    """The same message, or got is the field whose parts want holds."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert_same_field(got, want)


def straddle(text, c):
    """CRLF text with "\\r\\n" at c - 1 and c: the line holding c - 1 and the
    next become whitespace-only lines, at the same length."""
    if text[c - 1:c + 1] == "\r\n":
        return text
    s = text.rfind("\n", 0, c - 1) + 1
    e = text.index("\n", text.index("\n", c - 1) + 1) + 1
    return text[:s] + " " * (c - 1 - s) + "\r\n" + " " * (e - c - 3) + "\r\n" + text[e:]


class TestRowOracle:
    """save_field and load_field against their row-by-row forms."""

    def test_save_byte_identical(self, tmp_path):
        f = ragged_field()
        save_field(f, tmp_path / "a.csv", tmp_path / "a.json")
        save_field_rows(f, tmp_path / "b.csv", tmp_path / "b.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text,
            lambda text: text.replace("\n", "\n\n", 3) + "\n\n",
            lambda text: text.replace("\n", "\n  \t \n", 5),
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\r"),
            lambda text: text.rstrip("\n"),
            lambda text: text.replace(",", " , ", 4),
        ],
        ids=["plain", "blank-lines", "whitespace-lines", "crlf", "cr", "no-final-newline", "padded"],
    )
    def test_load_bit_identical(self, tmp_path, edit):
        f = ragged_field()
        csv, head = tmp_path / "f.csv", tmp_path / "f.json"
        save_field(f, csv, head)
        csv.write_bytes(edit(csv.read_text()).encode())
        got = load_field(csv, head)
        assert_same_field(got, load_field_rows(csv, head))
        assert got.values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize(
        "rows",
        [
            "0.0,0.0\n",
            "0.0,0.0,1.0\n0.1,abc,1.0\n",
            "zz,0.0,1.0\n",
            "0.0,0.0,1.0,2.0\n",
            "0.0,0.0,1.0\n\n5.0,0.0,1.0\n",
            "0.0,-0.3,1.0\n",
            "0.0,0.0,1.0\n0.1,0.0\n0.1,0.1,1.0,9\n",
            "0.0,0.0,1.0\n9.0,0.0,1.0\n0.1,x,1.0\n",
        ],
    )
    def test_same_error_message(self, tmp_path, rows):
        head = tmp_path / "f.json"
        head.write_text(json.dumps({"origin": [0, 0], "spacing": 0.1, "nx": 3, "ny": 3}))
        csv = tmp_path / "f.csv"
        csv.write_text("x,y,value\n" + rows)
        with pytest.raises(ValueError) as want:
            load_field_rows(csv, head)
        with pytest.raises(ValueError) as got:
            load_field(csv, head)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "text",
        [
            b"x,y,v\xc3\xa4lue\n0.0,0.0,1.0\n",  # UTF-8 in the header
            b"x,y,value\n0.0,0.1,\xef\xbc\x91.5\n",  # a fullwidth digit, which float() reads
            b"x,y,value\n0.0,0.0,1.0\n\xc2\xa00.1,0.0,2.0\n",  # a no-break space
            b"x,\xffy,value\n0.0,0.0,1.0\n",  # not UTF-8 in the header
            b"x,y,value\n0.0,0.0,1.0\n0.1,\xff,1.0\n",  # nor in a row
        ],
        ids=["header", "digit", "space", "bad-header", "bad-row"],
    )
    def test_non_ascii_text_as_text_mode(self, tmp_path, text):
        head = tmp_path / "f.json"
        head.write_text(json.dumps({"origin": [0, 0], "spacing": 0.1, "nx": 3, "ny": 3}))
        csv = tmp_path / "f.csv"
        csv.write_bytes(text)
        try:
            want = load_field_rows(csv, head)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                load_field(csv, head)
            assert str(got.value) == str(exc)
        else:
            assert_same_field(load_field(csv, head), want)

    def test_large_field_matches_row_oracle(self, tmp_path, cores):
        f = big_ragged_field()
        assert f.mask.sum() >= 20_000
        csv, head = tmp_path / "a.csv", tmp_path / "a.json"
        save_field(f, csv, head)
        save_field_rows(f, tmp_path / "b.csv", tmp_path / "b.json")
        assert csv.read_bytes() == (tmp_path / "b.csv").read_bytes()
        got = load_field(csv, head)
        assert_same_field(got, load_field_rows(csv, head))
        assert got.values.tobytes() == f.values.tobytes()
        assert_no_children()

    @pytest.mark.parametrize("bad_row", ["0.1,abc,1.0", "0.1,0.2", "0.1,0.2,1.0,9"])
    def test_large_field_malformed_last_row(self, tmp_path, cores, bad_row):
        csv, head = tmp_path / "f.csv", tmp_path / "f.json"
        save_field(big_ragged_field(), csv, head)
        lines = csv.read_text().splitlines()
        lines[-1] = bad_row  # in the last part
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as want:
            load_field_rows(csv, head)
        with pytest.raises(ValueError) as got:
            load_field(csv, head)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f":{len(lines)}: expected 'x,y,value' floats")
        assert_no_children()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_blank_lines_on_cuts(self, tmp_path, cores, newline):
        csv, head, text = saved_rows(tmp_path)
        text = text.replace("\n", newline)
        cuts, chunks = parse_cuts(text)
        assert len(cuts) == cores + 1 and chunks
        lines = text.split(newline)
        for c in cuts[1:-1] + chunks:
            k = text.count(newline, 0, c)  # the line that starts at c
            # a whitespace-only line ends the chunk before the cut, and an
            # empty and a whitespace-only line begin the next; lengths stay,
            # so the cuts do too
            lines[k - 1] = "\t" + " " * (len(lines[k - 1]) - 1)
            lines[k] = newline + " " * (len(lines[k]) - len(newline))
        edited = newline.join(lines)
        assert parse_cuts(edited) == (cuts, chunks)
        csv.write_bytes(edited.encode())
        got = load_field(csv, head)
        assert_same_field(got, load_field_rows(csv, head))
        assert got.mask.sum() == big_ragged_field().mask.sum() - 2 * (cores - 1 + len(chunks))
        assert_no_children()

    def test_crlf_straddling_cuts(self, tmp_path, cores):
        # "\r\n" with the "\r" before a part or chunk bound and the "\n" after
        # it: the part or chunk starts after the "\n"
        csv, head, text = saved_rows(tmp_path)
        text = text.replace("\n", "\r\n")
        for which in (0, 1):  # the part bounds, then the chunk bounds of the parts they give
            for c in raw_cuts(text)[which]:
                text = straddle(text, c)
        parts, chunks = raw_cuts(text)
        assert len(parts) == cores - 1 and chunks
        assert all(text[c - 1:c + 1] == "\r\n" for c in parts + chunks)
        cuts, starts = parse_cuts(text)
        assert cuts[1:-1] == [c + 1 for c in parts] and starts == [c + 1 for c in chunks]
        csv.write_bytes(text.encode())
        got = load_field(csv, head)
        assert_same_field(got, load_field_rows(csv, head))
        assert got.mask.sum() == big_ragged_field().mask.sum() - 2 * len(parts + chunks)
        assert_no_children()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("\n", "\r\r\n", 1),
            lambda text: text[:text.index(",", len(text) // 2)] + ",\r" + text[text.index(",", len(text) // 2) + 1:],
            lambda text: text[:-1] + "\r",
            lambda text: text.replace("\n", "\r").replace("\r", "\n", 1),
        ],
        ids=["header", "inside-a-row", "file-end", "every-row"],
    )
    def test_lone_cr_read_by_rows(self, tmp_path, cores, edit):
        # text mode ends a line at a lone "\r"; the forked reader, which
        # splits at "\n", leaves the file to _load_rows, within the bound of
        # test_load_holds_one_chunk
        csv, head, text = saved_rows(tmp_path)
        csv.write_bytes(edit(text).encode())
        assert_same_outcome(load_or_message(csv, head, load_field), load_or_message(csv, head, load_field_rows))
        assert traced_peak(load_or_message, csv, head, load_field) < 6e6
        assert_no_children()

    @pytest.mark.parametrize("header", ["x,y,value\n", "x,y,value\r"], ids=["lf-header", "cr-header"])
    def test_lone_cr_lines_read_in_pieces(self, tmp_path, cores, header):
        # with no "\n" after its first line, the 1.1 MB file is one line to
        # the forked reader: it gives up reading pieces of at most
        # _CHUNK_CHARS (0.40 MB traced), where reading the line whole traced
        # 1.14 MB
        csv, head, text = saved_rows(tmp_path)
        csv.write_bytes((header + text.split("\n", 1)[1].replace("\n", "\r")).encode())
        assert not textio.read_rows(csv, 3, (0, 1), lambda rows: True)
        assert traced_peak(textio.read_rows, csv, 3, (0, 1), lambda rows: True) < 5 * textio._CHUNK_CHARS
        assert_no_children()

    def test_chunk_cuts_scan_a_long_line_once(self, monkeypatch):
        # 1.2 MB with no "\n" after the header is one line: the first chunk
        # cut scans to its end, and the later cuts, which that scan passed,
        # are not scanned for again.  Scanning for each, read_rows took
        # 0.30 s on 8 MB of such rows and 3.75 s on 32 MB (2-vCPU x86-64)
        fh = io.BytesIO(b"x,y,value\n" + b"0.1,0.2,0.3\r" * 100_000)
        size = len(fh.getvalue())
        seen, line_start = [], textio._line_start
        monkeypatch.setattr(textio, "_line_start", lambda fh, c: seen.append(c) or line_start(fh, c))
        cuts = textio._chunk_cuts(fh, 10, size)
        assert len(cuts) > 3 and cuts == [10] + [size] * (len(cuts) - 1)
        assert seen == [10 + textio._CHUNK_CHARS]

    def test_fuzz_as_text_mode(self, tmp_path, rng):
        # short files of random fields and line ends: the field, or the
        # message, of the line-by-line reader
        csv, head = tmp_path / "f.csv", tmp_path / "f.json"
        head.write_text(json.dumps({"origin": [0, 0], "spacing": 1, "nx": 100, "ny": 100}))
        tokens = [*"0123456789", ".", "-", ",", " ", "\t", "\r", "\n", "x", "inf", "1_0"]
        weights = np.where([t.isdigit() for t in tokens], 6.0, 1.0)
        ends = ["\n", "\n", "\n", "\r\n", "\r", ""]

        def field():
            return "".join(rng.choice(tokens, rng.integers(1, 4), p=weights / weights.sum()))

        for _ in range(4000):
            rows = (",".join(field() for _ in range(3)) + rng.choice(ends) for _ in range(rng.integers(0, 7)))
            csv.write_bytes(("x,y,value" + rng.choice(ends) + "".join(rows)).encode())
            assert_same_outcome(load_or_message(csv, head, load_field), load_or_message(csv, head, load_field_rows))

    def test_no_final_newline_keeps_last_row(self, tmp_path, cores):
        csv, head, text = saved_rows(tmp_path)
        csv.write_text(text.rstrip("\n"))
        got = load_field(csv, head)
        assert_same_field(got, load_field_rows(csv, head))
        assert got.values.tobytes() == big_ragged_field().values.tobytes()
        assert_no_children()

    @pytest.mark.parametrize(
        "fault, reason",
        [
            (lambda x, y: f"{x},{y}", "expected 'x,y,value' floats"),
            (lambda x, y: f"{x},{y},inf", "non-finite coordinate or value"),
            (lambda x, y: f"1e300,{y},0", "point lies off the declared grid"),
            (lambda x, y: f"{x},{y},0", "duplicate grid cell"),
        ],
        ids=["malformed", "non-finite", "off-grid", "duplicate"],
    )
    def test_fault_after_chunk_cut_in_last_part(self, tmp_path, cores, fault, reason):
        csv, head, text = saved_rows(tmp_path)
        cuts, chunks = parse_cuts(text)
        assert len(cuts) == cores + 1 and chunks[-1] > cuts[-2]  # a chunk cut in the last part
        k = text.count("\n", 0, chunks[-1])
        lines = text.split("\n")
        x, y, _ = lines[k - 1].split(",")
        row = fault(x, y)  # x, y of the row before: a duplicate cell
        assert len(row) <= len(lines[k])
        lines[k] = row.ljust(len(lines[k]))
        edited = "\n".join(lines)
        assert parse_cuts(edited) == (cuts, chunks)
        csv.write_text(edited)
        with pytest.raises(ValueError) as want:
            load_field_rows(csv, head)
        with pytest.raises(ValueError) as got:
            load_field(csv, head)
        assert str(got.value) == str(want.value) == f"{csv}:{k + 1}: {reason}"
        assert_no_children()

    @pytest.mark.parametrize("first", ["chunk", "part"])
    def test_duplicate_of_an_earlier_chunk_or_part(self, tmp_path, cores, first):
        # the first row of the cell ends the chunk before the last chunk
        # cut, or starts the file; its repeat starts the last chunk, or the
        # last part (with one part, the last chunk)
        csv, head, text = saved_rows(tmp_path)
        cuts, chunks = parse_cuts(text)
        cut = cuts[-2] if first == "part" and cores > 1 else chunks[-1]
        k = text.count("\n", 0, cut)
        lines = text.split("\n")
        x, y, _ = lines[k - 1 if first == "chunk" else 1].split(",")
        assert len(f"{x},{y},0") <= len(lines[k])
        lines[k] = f"{x},{y},0".ljust(len(lines[k]))
        csv.write_text("\n".join(lines))
        with pytest.raises(ValueError) as want:
            load_field_rows(csv, head)
        with pytest.raises(ValueError) as got:
            load_field(csv, head)
        assert str(got.value) == str(want.value) == f"{csv}:{k + 1}: duplicate grid cell"
        assert_no_children()

    def test_more_rows_than_cells(self, tmp_path, cores):
        # every cell of a 150 x 170 grid, then its first rows again
        f = ScalarField((-0.35, 1 / 3), 0.1, big_ragged_field().values, np.ones((150, 170), dtype=bool))
        csv, head = tmp_path / "f.csv", tmp_path / "f.json"
        save_field(f, csv, head)
        lines = csv.read_text().split("\n")
        csv.write_text("\n".join(lines + lines[1:4]))
        with pytest.raises(ValueError) as want:
            load_field_rows(csv, head)
        with pytest.raises(ValueError) as got:
            load_field(csv, head)
        assert str(got.value) == str(want.value) == f"{csv}:{len(lines) + 1}: duplicate grid cell"
        assert_no_children()

    @pytest.mark.parametrize("piece", [1, 2, 3, 4096])
    def test_line_start_as_text_mode(self, monkeypatch, rng, piece):
        # the byte after the next "\n" from c - 1 on, which ends a line in
        # text mode when each "\r" begins a "\r\n", read in lines of at
        # most piece bytes, which may end between "\r" and "\n"
        monkeypatch.setattr(textio, "_CHUNK_CHARS", piece)
        for _ in range(50):
            data = rng.choice(list(b"a\r\n"), rng.integers(1, 30)).astype(np.uint8).tobytes()
            for c in range(1, len(data) + 1):
                want = data.find(b"\n", c - 1) + 1 or len(data)
                assert textio._line_start(io.BytesIO(data), c) == want, (data, c)

    @pytest.mark.parametrize("chunk, count", [(None, 8191), (None, 4096), (7, 50), (7, 49), (1, 3), (7, 0)])
    def test_write_rows_asks_each_row_once(self, monkeypatch, rng, chunk, count):
        # one part: rows(a, b) is asked for every row exactly once, in
        # ascending spans of at most _CHUNK rows, and the bytes are
        # row % tuple(r) over the whole table
        if chunk:
            monkeypatch.setattr(textio, "_CHUNK", chunk)
        assert count < textio._MIN_ROWS
        table = rng.normal(size=(count, 2))
        table[rng.uniform(size=table.shape) < 0.3] = 5e-324
        spans = []

        def rows(a, b):
            spans.append((a, b))
            return table[a:b]

        fh = io.BytesIO()
        textio.write_rows(fh, "%r,%r\n", count, rows)
        assert [i for a, b in spans for i in range(a, b)] == list(range(count))
        assert all(0 < b - a <= textio._CHUNK for a, b in spans)
        assert fh.getvalue() == "".join("%r,%r\n" % tuple(r) for r in table.tolist()).encode()

    def test_load_holds_one_chunk(self, tmp_path):
        # 154,401 rows, 7.1 MB of text.  The reader holds the grid arrays
        # (1.4 MB) and one chunk; reading the whole text, then checking
        # every row at once, traced 23 MB
        csv, head = tmp_path / "f.csv", tmp_path / "f.json"
        save_field(helicoid_rect(0.0025), csv, head)
        peak = traced_peak(load_field, csv, head)
        assert peak < 6e6, peak / 1e6
        assert_no_children()

    def test_fault_path_streams(self, tmp_path):
        # a truncated last row sends load_field to its row-by-row reader,
        # which reads a line at a time: holding the whole text and its lines
        # traced 3.1 times the 1.1 MB file
        csv, head, text = saved_rows(tmp_path)
        csv.write_text(text[:text.rindex(",")] + "\n")
        lineno = text.count("\n")  # the truncated row's
        message = f"{csv}:{lineno}: expected 'x,y,value' floats"
        with pytest.raises(ValueError) as exc:
            load_field(csv, head)
        assert str(exc.value) == message

        def load_rows():
            with pytest.raises(ValueError, match=re.escape(message)):
                _load_rows(csv, *_read_header(head))

        peak = traced_peak(load_rows)
        assert peak < csv.stat().st_size / 2, peak / 1e6

    def test_save_holds_one_chunk(self, tmp_path):
        # the 321 x 481 helicoid slab: formatting from one object table of
        # every masked cell traced 12 MB
        f = ScalarField.sample(helicoid_height, lambda x, y: x > -1.0, (1.6, -0.6), 0.0025, 321, 481)
        peak = traced_peak(save_field, f, tmp_path / "f.csv", tmp_path / "f.json")
        assert peak < 5e6, peak / 1e6
        assert_no_children()


class TestHostileFieldFiles:
    def write(self, tmp_path, head, rows="0.0,0.0,1.0\n"):
        hp, csv = tmp_path / "f.json", tmp_path / "f.csv"
        hp.write_text(json.dumps({"origin": [0, 0], "spacing": 0.1, "nx": 3, "ny": 3, **head}))
        csv.write_text("x,y,value\n" + rows)
        return csv, hp

    @pytest.mark.parametrize(
        "head, message",
        [
            ({"spacing": 0}, "spacing must be finite and positive"),
            ({"spacing": -0.1}, "spacing must be finite and positive"),
            ({"spacing": float("inf")}, "spacing must be finite and positive"),
            ({"origin": [float("nan"), 0]}, "origin must be finite"),
            ({"nx": 1e8, "ny": 1e8}, "nx must be a positive integer"),
            ({"nx": 10**8, "ny": 10**8}, "grid exceeds 4194304 cells"),
            ({"nx": 2049, "ny": 2048}, "grid exceeds 4194304 cells"),
            ({"nx": 0}, "nx must be a positive integer"),
            ({"ny": True}, "ny must be a positive integer"),
            ({"ny": "3"}, "ny must be a positive integer"),
        ],
    )
    def test_bad_header(self, tmp_path, head, message):
        with pytest.raises(ValueError, match=message):
            load_field(*self.write(tmp_path, head))

    def test_largest_grid_accepted(self, tmp_path):
        f = load_field(*self.write(tmp_path, {"nx": 2048, "ny": 2048}))
        assert f.values.shape == (2048, 2048) and int(f.mask.sum()) == 1

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,0.0,1.0\ninf,0,1\n", ":3: non-finite coordinate or value"),
            ("0.0,nan,1\n", ":2: non-finite coordinate or value"),
            ("0.0,0.0,-inf\n", ":2: non-finite coordinate or value"),
            ("1e308,0.0,1.0\n", ":2: point lies off the declared grid"),
            ("0.0,0.0,1.0\n0.0,0.1,1.0\n\n0.0,0.0,2.0\n", ":5: duplicate grid cell"),
            ("0.0,0.0,1\n0.04,0.0,2\n", ":3: duplicate grid cell"),
            ("0.0,0.0,1\n0.0,0.0,2\n9,9,9\n", ":3: duplicate grid cell"),
            ("0.0,0.0,abc\n", ":2: expected 'x,y,value' floats"),
        ],
    )
    def test_bad_row(self, tmp_path, rows, message):
        csv, hp = self.write(tmp_path, {}, rows)
        with pytest.raises(ValueError, match=f"^{re.escape(str(csv) + message)}$"):
            load_field(csv, hp)

    def test_duplicate_names_the_second_row_of_its_cell(self, tmp_path, rng):
        # 60 rows on random cells of a 12 x 12 grid, well past the length at
        # which an unstable sort may reorder equal cells: the first row whose
        # cell came before is named
        for _ in range(20):
            cells = rng.integers(0, 144, 60)
            seen = [c in cells[:k] for k, c in enumerate(cells)]
            rows = "".join(f"{c // 12 / 10},{c % 12 / 10},{k}\n" for k, c in enumerate(cells))
            csv, hp = self.write(tmp_path, {"nx": 12, "ny": 12}, rows)
            with pytest.raises(ValueError, match=f":{2 + seen.index(True)}: duplicate grid cell$"):
                load_field(csv, hp)

    @pytest.mark.parametrize("text", ["x,y,value\n", "x,y,value", "x,y,value\r\n \r\n\r\n"])
    def test_header_only_file_has_no_cells(self, tmp_path, text):
        csv, hp = self.write(tmp_path, {})
        csv.write_bytes(text.encode())
        f = load_field(csv, hp)
        assert not f.mask.any() and not f.values.any()

    def test_empty_file_has_no_cells(self, tmp_path):
        csv, hp = self.write(tmp_path, {}, "")
        csv.write_text("")
        assert not load_field(csv, hp).mask.any()


# ---- the derivative layer: rule table, one axis path, one residual ----


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype == float:
        got, want = got.view(np.int64), want.view(np.int64)
    return np.array_equal(got, want)


def random_ragged_field(rng):
    """Union of random rectangles, some one cell thin, sometimes peppered
    with holes; values from 1e-8 to 1e8 with signed zeros, spacing 1e-4..10."""
    nx, ny = rng.integers(2, 40, 2)
    mask = np.zeros((nx, ny), dtype=bool)
    for _ in range(rng.integers(1, 6)):
        i, j = rng.integers(0, nx), rng.integers(0, ny)
        mask[i:i + rng.integers(1, nx + 1), j:j + rng.integers(1, ny + 1)] = True
    if rng.uniform() < 0.3:
        mask &= rng.uniform(size=(nx, ny)) < rng.uniform(0.7, 1.0)
    h = 10.0 ** rng.uniform(-4, 1)
    if rng.uniform() < 0.5:  # slopes below 1, so the maximal normalizer passes
        values = 0.3 * h * rng.uniform(-1, 1, (nx, ny)).cumsum(axis=0)
    else:
        values = 10.0 ** rng.uniform(-8, 8) * rng.normal(size=(nx, ny))
    values[rng.uniform(size=(nx, ny)) < 0.05] = -0.0
    return ScalarField(tuple(rng.normal(size=2)), h, np.where(mask, values, 0.0), mask)


def connected_ragged_field(rng):
    """A region grown from one 2 x 2 block by random 2 x 2 blocks, each
    overlapping or edge-adjacent to a random cell of the region, with its
    holes filled: connected and hole-free, so it passes the mask check, and
    every cell has a neighbour on each axis.  The values are a plane of slope
    below 0.3 on each axis, plus up to 0.01 h per cell of noise, and half the
    time an offset from 1e-8 to 1e8: both duals stay spacelike, so the tree
    integration runs and its values compare."""
    nx, ny = rng.integers(2, 40, 2)
    mask = np.zeros((nx, ny), dtype=bool)
    i, j = rng.integers(0, nx - 1), rng.integers(0, ny - 1)
    mask[i:i + 2, j:j + 2] = True
    steps = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    for _ in range(rng.integers(0, nx * ny // 2)):
        i, j = divmod(int(rng.choice(np.flatnonzero(mask))), ny)
        di, dj = steps[rng.integers(5)]
        # a block holding the cell or its neighbour (i + di, j + dj)
        i = min(max(i + di - rng.integers(2), 0), nx - 2)
        j = min(max(j + dj - rng.integers(2), 0), ny - 2)
        mask[i:i + 2, j:j + 2] = True
    # fill the holes: outside are the cells off the region that the border
    # reaches through cells off the region
    outside = np.zeros_like(mask)
    outside[[0, -1], :] = outside[:, [0, -1]] = True
    outside &= ~mask
    while True:
        grown = outside.copy()
        grown[1:] |= outside[:-1]
        grown[:-1] |= outside[1:]
        grown[:, 1:] |= outside[:, :-1]
        grown[:, :-1] |= outside[:, 1:]
        grown &= ~mask
        if np.array_equal(grown, outside):
            break
        outside = grown
    h = 10.0 ** rng.uniform(-4, 1)
    gi, gj = np.indices(mask.shape)
    sx, sy = rng.uniform(-0.3, 0.3, 2)
    values = h * (sx * gi + sy * gj + rng.uniform(-0.01, 0.01, mask.shape))
    if rng.uniform() < 0.5:
        values += rng.choice([-1, 1]) * 10.0 ** rng.uniform(-8, 8)
    return ScalarField(tuple(rng.normal(size=2)), h, np.where(outside, 0.0, values), ~outside)


def comb_field(rng, axis):
    """A spine two cells thick that runs across the axis, with a tooth of
    random length along the axis from each spine cell: lone teeth are one
    cell thin, so every fallback rule and the no-rule case occur.  Teeth of
    at most one cell beyond the spine keep every edge's cross average
    defined, and the root edge of a lone tooth averages its spine cell
    alone.  Values are often signed zeros."""
    ny = int(rng.integers(3, 30))
    longest = 1 if rng.uniform() < 0.5 else 6
    mask = np.zeros((2 + longest, ny), dtype=bool)
    mask[:2, :] = True
    for j in range(ny):
        mask[2:2 + rng.integers(0, longest + 1), j] = True
    h = 0.5
    # slopes below 0.05 on edges and 0.4 for the widest rule: spacelike
    values = 0.025 * h * rng.uniform(-1, 1, mask.shape)
    zero = rng.uniform(size=mask.shape) < 0.4
    values[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    if axis == 1:
        mask, values = mask.T, values.T
    return ScalarField((0.0, 0.0), h, np.where(mask, values, 0.0), mask)


def assert_layer_matches_oracle(f):
    """_axis_derivative, _edges, _EdgeData and flux_curl against the
    per-rule, per-axis oracle: equal bits (signed zeros included), or the
    same error."""
    for axis in (0, 1):
        got = _axis_derivative(f.values, f.mask, f.spacing, axis)
        want = axis_derivative_rules(f.values, f.mask, f.spacing, axis)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    for sign, kind in ((1.0, "minimal"), (-1.0, "maximal")):
        try:
            want = EdgeDataPerAxis(f, sign)
        except MaxsurfError as exc:
            with pytest.raises(type(exc)):
                _EdgeData(f, sign)
            continue
        for axis, names in ((0, ("exist_x", "dx", "cx", "qx")), (1, ("exist_y", "dy", "cy", "qy"))):
            for got, name in zip(_edges(f, axis), names):
                assert same_bits(got, getattr(want, name)), name
                assert got.flags.c_contiguous, name
        got = _EdgeData(f, sign)
        for name in _EdgeData.__slots__:
            assert same_bits(getattr(got, name), getattr(want, name)), name
        curl = flux_curl(f, kind)
        want_values, want_mask = flux_curl_per_axis(f, kind)
        assert same_bits(curl.values, want_values) and same_bits(curl.mask, want_mask)


class TestRuleTable:
    @staticmethod
    def moments(taps, upto):
        return [sum(w * k**j for k, w in taps) for j in range(upto + 1)]

    def test_moments(self):
        # sum_k w k^j for j = 0, 1, ...: the Taylor coefficients of the rule
        for grade, taps in _RULES:
            m = self.moments(taps, 4)
            assert m[:2] == [0, 1]
            if grade >= 2:
                assert m[2] == 0
                if len(taps) == 4:
                    assert m[3] == 1
            if grade == 3:
                assert m == [0, 1, 0, 1, 0]

    def test_order_and_grades(self):
        assert [grade for grade, _ in _RULES] == [1, 1, 2, 2, 2, 2, 3, 3, 3]
        assert sorted(_RULES[-1][1]) == [(-1, -0.5), (1, 0.5)]  # central last
        for (_, backward), (_, forward) in zip(_RULES[:-1:2], _RULES[1:-1:2]):
            assert max(k for k, _ in backward) == 0
            assert sorted((-k, -w) for k, w in backward) == sorted(forward)


class TestDerivativeOracle:
    def test_random_ragged_masks(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            assert_layer_matches_oracle(random_ragged_field(rng))

    def test_helicoid(self):
        assert_layer_matches_oracle(helicoid_rect(0.01))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_masks_one_cell_thin(self, axis):
        rng = np.random.default_rng(20261019 + axis)
        grades = set()
        compared = 0
        for _ in range(40):
            f = comb_field(rng, axis)
            assert_layer_matches_oracle(f)
            compared += assert_dual_matches_reference(f, np.inf)
            for along in (0, 1):
                grades.update(_axis_derivative(f.values, f.mask, f.spacing, along)[1][f.mask].tolist())
        assert grades == {0, 1, 2, 3}
        assert compared >= 10

    def test_resampled_catalog_fields(self, catalog_data):
        zeros = 0
        for data in catalog_data.values():
            out = resample_graph(data, 0.02)
            for f in (out.field, out.dual_height):
                assert_layer_matches_oracle(f)
            curl = flux_curl(out.field, "maximal")
            zeros += int(np.sum(curl.values[curl.mask] == 0))
        assert zeros > 0  # so the bit comparison checks the sign of zero on the mask

    def test_thin_axis_reported_before_non_spacelike_axis(self):
        # x-edges of the block are steep (|Df| = 2); the one-cell column's
        # y-edges have no x-neighbor for a cross derivative
        mask = np.zeros((10, 6), dtype=bool)
        mask[:5, :] = True
        mask[7, :4] = True
        f = ScalarField((0.0, 0.0), 0.1, np.where(mask, 2.0 * 0.1 * np.arange(10)[:, None], 0.0), mask)
        with pytest.raises(DegenerateMask):
            maximal_residual(f)


def assert_dual_matches_reference(f, curl_tol):
    """Both dualizations against their first-written form: equal bits in
    values and mask, or the same error type and message.  Returns how many
    results were compared bit for bit."""
    compared = 0
    for sign, dualize in ((1.0, dualize_minimal_to_maximal), (-1.0, dualize_maximal_to_minimal)):
        try:
            want = dualize_reference(f, sign, curl_tol)
        except MaxsurfError as exc:
            with pytest.raises(MaxsurfError) as got:
                dualize(f, curl_tol)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            continue
        got = dualize(f, curl_tol)
        assert same_bits(got.values, want.values) and same_bits(got.mask, want.mask)
        compared += 1
    return compared


class TestDualizeOracle:
    def test_random_ragged_masks(self):
        rng, grown = np.random.default_rng(20261019), np.random.default_rng(20261020)
        unions = connected = 0
        for _ in range(200):
            f, g = random_ragged_field(rng), connected_ragged_field(grown)
            _validate_mask(g.mask)
            # no curl bound stops an infinite tolerance; 1e-3 mostly refuses
            for curl_tol in (np.inf, 1e-3):
                unions += assert_dual_matches_reference(f, curl_tol)
            connected += assert_dual_matches_reference(g, np.inf)
            assert_dual_matches_reference(g, 1e-3)
        assert unions >= 50  # the rest raise, on the mask or the slope
        assert connected == 400  # both directions of every grown field integrate

    def test_helicoid(self):
        assert assert_dual_matches_reference(helicoid_rect(0.01), 1e-2) == 2

    def test_resampled_catalog_fields(self, catalog_data):
        compared = 0
        for data in catalog_data.values():
            out = resample_graph(data, 0.02)
            for f in (out.field, out.dual_height):
                compared += assert_dual_matches_reference(f, _LEE_CURL_TOL)
        assert compared >= 20

    def test_traced_peak_within_eight_grids(self, catalog_data):
        # the edge data, flux and tree increments once held 14.3 grids here
        f = resample_graph(catalog_data["shift4-r09"], 0.01).field
        peak = traced_peak(dualize_maximal_to_minimal, f, _LEE_CURL_TOL)
        assert peak <= 8 * f.values.nbytes, peak / f.values.nbytes
