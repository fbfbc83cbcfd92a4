"""The text kernel against Python's formatting, byte for byte.

Each case is a table of at least _MIN_ROWS rows (its values repeated), so
that with three cores write_rows splits it into three forked parts."""

import io

import numpy as np
import pytest

from maxsurf import textio

from conftest import assert_no_children
from oracles import format_rows

# the kernel sets the values it leaves to repr (0, nan, inf, out of range)
# to 1.0 before log10 and the int casts, so none may warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.int64).view(np.float64)


def _around(x, ulps: int) -> np.ndarray:
    """Every float within ulps steps of each of x, on both signs."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    return np.concatenate([_bits(bits.ravel()), -_bits(bits.ravel())])


def _random_bits(rng) -> np.ndarray:
    """200k 64-bit patterns, one in ten of any exponent (nan, inf and
    subnormals among them) and the rest with the exponents of the kernel's
    range, and the special values."""
    bits = rng.integers(-(2**63), 2**63 - 1, 200_000, dtype=np.int64, endpoint=True)
    keep = np.arange(bits.size) % 10 == 0
    bits[~keep] = bits[~keep] & ~(0x7FF << 52) | rng.integers(1009, 1077, 180_000) << 52
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1.7976931348623157e308, 1e-4, 1e-5, 1e16, 1e17, 9999999999999998.0]
    return np.concatenate([_bits(bits), special])


def _dyadic(rng) -> np.ndarray:
    """Exact dyadic decimals m / 2^q, as 0.017578125 = 9 / 2^9, and ties:
    odd k / 2^(s + 1) in [10^(16 - s), 10^(17 - s)), whose |x|·10^s ends
    in .5, so two nearest digit strings may be equally near."""
    q = rng.integers(1, 40, 4000)
    dyadic = np.ldexp(rng.integers(1, 2**20, 4000) | 1, -q)
    ties = []
    for s in range(1, 21):
        k = rng.integers(10 ** (16 - s) * 2**s, min(10 ** (17 - s) * 2**s, 2**52), 200)
        ties.append(np.ldexp(2 * k + 1, -(s + 1)))
    return np.concatenate([[0.017578125], dyadic, *ties])


FLOAT_CASES = {
    "random-bits": _random_bits,
    # 64 ulps each side of 10^k; 1e-4 and 1e16 are where repr turns to
    # scientific notation
    "powers-of-ten": lambda rng: _around(10.0 ** np.arange(-6, 19), 64),
    "powers-of-two": lambda rng: _around(np.ldexp(1.0, np.arange(-30, 61)), 2),
    "dyadic-and-ties": _dyadic,
    "around-2^53": lambda rng: _around([2.0**53], 64),
}
INT_CASES = {
    "edges": np.array([0, -1, 1, -7, 2**31 - 1, -(2**31), 2**63 - 1, -(2**63), 2**53, 2**53 + 1, -(2**53) - 1]),
    "powers-of-ten": np.concatenate([s * (10 ** np.arange(19) + d) for s in (1, -1) for d in (-1, 0, 1)]),
}


def _write(row: str, table: np.ndarray) -> bytes:
    fh = io.BytesIO()
    textio.write_rows(fh, row, len(table), lambda a, b: table[a:b])
    assert_no_children()
    return fh.getvalue()


def _table(values: np.ndarray, width: int) -> np.ndarray:
    """values in rows of width, repeated to at least _MIN_ROWS rows."""
    return np.resize(values, (max(-(-len(values) // width), textio._MIN_ROWS), width))


@pytest.fixture(scope="module")
def float_tables():
    """Each float case's table and its oracle text, made once for both
    part counts."""
    rng = np.random.default_rng(20261021)
    tables = {case: _table(make(rng), 2) for case, make in FLOAT_CASES.items()}
    return {case: (table, format_rows("%r,%r\n", table)) for case, table in tables.items()}


@pytest.mark.parametrize("case", FLOAT_CASES)
def test_float_rows_match_oracle(float_tables, cores, case):
    table, want = float_tables[case]
    assert _write("%r,%r\n", table) == want


@pytest.mark.parametrize("case", INT_CASES)
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_int_rows_match_oracle(cores, case, dtype):
    values = INT_CASES[case]
    values = values[values == values.astype(dtype)].astype(dtype)
    table = _table(values, 3)
    assert _write("f %d %d %d\n", table) == format_rows("f %d %d %d\n", table)


def test_chunks_of_one_kind_match_oracle():
    # a chunk of small integers and -2**63, of floats that all go to repr,
    # of float32, one row, and literals of 9 bytes and of two-byte characters
    for row, table in [
        ("%d %d\n", np.array([[1, 2], [-(2**63), 5]])),
        ("%r %r\n", np.array([[np.nan, 0.0], [1e300, -np.inf]])),
        ("%r;%r\n", np.random.default_rng(5).normal(size=(300, 2)).astype(np.float32)),
        ("<%r>\n", np.array([[0.1]])),
        ("vertex x=%r, y=%r\n", np.array([[-1.5, 2.25], [3.0, -0.0]])),
        ("µµµµ%d±±±±±%d\n", np.array([[7, -8]], dtype=np.int16)),
    ]:
        assert textio._format(row, table) == format_rows(row, table), row


@pytest.mark.parametrize(
    "row, table",
    [
        ("%s,%s\n", np.zeros((1, 2))),
        ("%r,%d\n", np.zeros((1, 2))),
        ("%5.2f\n", np.zeros((1, 1))),
        ("%r\n", np.zeros((1, 1), dtype=np.int64)),
        ("%d\n", np.zeros((1, 1))),
        ("%d\n", np.zeros((1, 1), dtype=np.uint64)),
        ("\0%r\n", np.zeros((1, 1))),
    ],
)
def test_other_rows_raise(row, table):
    with pytest.raises(ValueError):
        _write(row, table)
