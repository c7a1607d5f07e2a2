import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbisol._csv import BLOCK_ROWS, csv_rows


def percent_rows(table) -> bytes:
    """The reference: Python's b"%.17g" % v for every value."""
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\n" for row in table.tolist())


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def neighbours(x: float) -> list[float]:
    with np.errstate(over="ignore"):
        return [float(np.nextafter(x, -math.inf)), x, float(np.nextafter(x, math.inf))]


# magnitudes where the formatter changes course: %g's switch points, the
# ends of the double-double range, the subnormals and the largest doubles
_EDGES = sorted({abs(v) for x in (1e-4, 1e16, 1e17, 1e-280, 1e280, 5e-324, 2.2250738585072014e-308,
                                  1.7976931348623157e308) for v in neighbours(x)})
FLOATS = st.one_of(
    st.integers(min_value=0, max_value=2 ** 64 - 1).map(from_bits),
    st.integers(min_value=1, max_value=2 ** 52 - 1).map(from_bits),
    st.integers(min_value=-323, max_value=308).map(lambda k: float(f"1e{k}")).flatmap(
        lambda x: st.sampled_from(neighbours(x))),
    st.sampled_from(_EDGES + [0.0, math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
).flatmap(lambda x: st.sampled_from([x, -x]))
EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 9.9999999999999992e+22,
               1e23, 1e22, 0.0001, 0.0001234, 9.9999999999999991e-05, 1e16, 1e17,
               99999999999999984.0, 1.2345678901234568e+17, 5e-324, 1e-280, 1e280,
               2251799813685247.75, 0.5, 1.0, -1.0, 123.456, 1e100, 1e-100, 1.7976931348623157e308,
               2.2250738585072014e-308, math.pi]


class TestCsvRowFormatter:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(FLOATS, min_size=1, max_size=60), cols=st.integers(1, 6))
    @example(values=[9.9999999999999992e+22], cols=1)
    def test_bytes_equal_percent_format(self, values, cols):
        values += [1.0] * (-len(values) % cols)
        table = np.array(values).reshape(-1, cols)
        assert csv_rows(table) == percent_rows(table)

    def test_edge_values(self):
        table = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES]).reshape(-1, 2)
        assert csv_rows(table) == percent_rows(table)

    def test_blocks_and_fallbacks(self):
        # more rows than one block, with every kind of value in a few rows
        rng = np.random.default_rng(8)
        table = rng.standard_normal((3 * BLOCK_ROWS + 7, 5)) * 10.0 ** rng.integers(
            -30, 30, (3 * BLOCK_ROWS + 7, 5))
        table[[0, BLOCK_ROWS, -1], :] = np.reshape(EDGE_VALUES[:15], (3, 5))
        assert csv_rows(table) == percent_rows(table)
        assert csv_rows(np.empty((0, 5))) == b""

    @pytest.mark.parametrize("shift", [-0.999, 0.999])
    def test_exponent_off_by_one_falls_back(self, monkeypatch, shift):
        # a decimal exponent one too small or too large puts the 17-digit
        # integer outside [10^16, 10^17), and the value goes through Python's %
        rng = np.random.default_rng(9)
        table = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-30, 30, (40, 5))
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda v: log10(v) + shift)
        assert csv_rows(table) == percent_rows(table)

