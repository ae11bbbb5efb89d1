"""Matrices and shifts are written byte for byte as ``np.savetxt`` writes their dense matrix."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # without hypothesis the property test below is left out
    given = None

import gsis
from gsis import io
from gsis.cli import main

from conftest import random_connected_graph


def assert_exported_like_savetxt(shift, tmp_path):
    path = io.save_shift_csv(tmp_path / "nested" / "shift.csv", shift)
    np.savetxt(tmp_path / "dense.csv", shift.matrix, delimiter=",")
    assert path.read_bytes() == (tmp_path / "dense.csv").read_bytes()


def _weighted_graph_with_an_isolated_vertex():
    graph = random_connected_graph(9, np.random.default_rng(4))
    return gsis.Graph(10, graph.edges, graph.weights)  # vertex 9 has no edge


def test_circulant_shifts_are_exported_like_savetxt(tmp_path):
    _, shifts = gsis.build_circulant(60, [1, 3])
    for shift in shifts:
        assert_exported_like_savetxt(shift, tmp_path)


@pytest.mark.parametrize("kind", gsis.SHIFT_KINDS)
def test_standard_shifts_are_exported_like_savetxt(kind, tmp_path):
    graph = _weighted_graph_with_an_isolated_vertex()
    if kind == "normalized_laplacian":  # undefined on an isolated vertex
        graph = random_connected_graph(9, np.random.default_rng(4))
    assert_exported_like_savetxt(gsis.build_standard_shifts(graph, kind), tmp_path)


def test_signed_zeros_are_exported_like_savetxt(tmp_path):
    graph = gsis.path_graph(4)
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = -0.0
    dense[1, 2] = dense[2, 1] = 1.5
    dense[3, 3] = -0.0
    shift = gsis.ShiftMatrix(dense, graph)
    assert np.signbit(shift.edge_weights[0]) and np.signbit(shift.diagonal[3])
    assert_exported_like_savetxt(shift, tmp_path)


def test_graph_export_writes_the_shifts_like_savetxt(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["graph", "export", "--circulant", "12", "--q", "1,3", "--out", str(out)]) == 0
    _, shifts = gsis.build_circulant(12, [1, 3])
    for k, shift in enumerate(shifts):
        np.savetxt(tmp_path / "dense.csv", shift.matrix, delimiter=",")
        assert (out / f"shift_{k}.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


# ---------------------------------------------------------------------------
# dense matrices: save_matrix_csv formats in numpy, byte for byte as savetxt


def assert_written_like_savetxt(matrix, directory):
    path = io.save_matrix_csv(directory / "nested" / "matrix.csv", matrix)
    np.savetxt(directory / "reference.csv", np.atleast_2d(matrix), delimiter=",")
    assert path.read_bytes() == (directory / "reference.csv").read_bytes()


def _exact_tie(x):
    """Whether |x|, rounded to 19 significant digits, lies exactly half-way."""
    digits = Decimal(abs(x)).as_tuple().digits
    return len(digits) > 19 and digits[19] == 5 and not any(digits[20:])


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf,
                  1e-99, 1e-98, -1e-98, 1e98, 1e99, -1e100, 1e300, np.finfo(float).max]


def test_dense_matrices_are_written_like_savetxt(tmp_path):
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    assert_written_like_savetxt(basis, tmp_path)
    scaled = rng.standard_normal((40, 25)) * 10.0 ** rng.uniform(-97, 97, (40, 25))
    assert_written_like_savetxt(scaled, tmp_path)
    assert_written_like_savetxt(np.eye(7), tmp_path)


def test_special_values_are_written_like_savetxt(tmp_path):
    assert_written_like_savetxt(np.array(SPECIAL_VALUES).reshape(4, 4), tmp_path)
    for v in SPECIAL_VALUES:
        assert_written_like_savetxt(np.array([[v, 1.5, -v]]), tmp_path)


def test_dyadic_near_ties_are_written_like_savetxt(tmp_path):
    values = []
    rng = np.random.default_rng(6)
    for j in range(4, 60):
        m = rng.integers(1, 2**53, 40, dtype=np.int64)
        values += [float(v) / 2.0**j for v in np.concatenate([m, m | 1, 2 * m + 1])]
        values += [(2 * k + 1) / 2.0**j for k in range(5)]
    values = np.array(values)
    assert sum(_exact_tie(v) for v in values) >= 20  # so the "%.18e" rows are exercised
    assert_written_like_savetxt(np.concatenate([values, -values]).reshape(-1, 10), tmp_path)


def test_powers_of_ten_and_their_neighbours_are_written_like_savetxt(tmp_path):
    values = []
    for k in range(-105, 106):
        p = float(f"1e{k}")
        below, above = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
        values += [p, 10.0**k, below, above, np.nextafter(below, 0.0), -p, -below]
        values += [float(f"9.9999999999999999999e{k}"), float(f"9.999999999999999e{k}")]
    assert_written_like_savetxt(np.array(values).reshape(-1, 9), tmp_path)


@pytest.mark.parametrize("bias", [-0.4, 0.4])
def test_the_exponent_does_not_trust_log10(bias, tmp_path, monkeypatch):
    # a log10 off by up to one in the floor, either way, changes no byte
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + bias)
    values = [v for k in range(-97, 97) for v in (10.0**k, float(f"1e{k}"), 3.0 * 10.0**k)]
    assert_written_like_savetxt(np.array(values).reshape(-1, 6), tmp_path)


def test_no_double_in_range_rounds_up_to_the_next_power_of_ten():
    # the writer relies on this: the largest double below 10**k is more than
    # a relative 5e-20, half a unit of the 19th digit, below it
    for k in range(-99, 100):
        power = Fraction(10) ** k
        below = float(power)
        if Fraction(below) >= power:
            below = float(np.nextafter(below, 0.0))
        assert (power - Fraction(below)) / power > Fraction(5, 10**20)


@pytest.mark.parametrize(
    "shape", [(17,), (1, 23), (23, 1), (1, 1), (0, 4), (3, 0), (40, 13)], ids=str
)
def test_shapes_are_written_like_savetxt(shape, tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_BLOCK", 8)  # rows span several blocks, and a long row is cut in pieces
    matrix = np.random.default_rng(7).standard_normal(shape)
    assert_written_like_savetxt(matrix, tmp_path)


@pytest.mark.parametrize("block", [8, 1 << 14])
def test_fallback_rows_between_vectorized_rows(block, tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_BLOCK", block)
    matrix = np.random.default_rng(8).standard_normal((12, 5))
    matrix[1, 3] = np.nan
    matrix[4, 0] = -1e-150
    matrix[5, 4] = 3 / 2**27  # 2.2351741790771484375e-08, half-way between two 19-digit values
    matrix[10, 2] = np.inf
    assert _exact_tie(matrix[5, 4])
    assert_written_like_savetxt(matrix, tmp_path)


if given is not None:

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
                st.sampled_from(SPECIAL_VALUES),
                st.floats(min_value=-1e-90, max_value=1e-90),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=1,
            max_size=60,
        ),
        cols=st.integers(1, 7),
    )
    def test_any_float64_bit_pattern_is_written_like_savetxt(values, cols, tmp_path_factory):
        matrix = np.array(values + [0.0] * (-len(values) % cols)).reshape(-1, cols)
        assert_written_like_savetxt(matrix, tmp_path_factory.mktemp("bits"))
