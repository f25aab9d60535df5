"""Property tests: matrix construction, the matrix file round trip, clock assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dee.circuits import cnot, h, rot, toffoli, x, z
from dee.hardness import ClockOperator, build_observable, clock_unitary_dense
from dee.sparse import format_matrix, from_coordinate_list, parse_matrix

SETTINGS = settings(max_examples=150, deadline=None)

values = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 1e300]),
)


@st.composite
def coordinate_lists(draw, faults=True):
    """(n, entries); with faults, indices may leave [0, n) and even int64,
    values may be non-finite, and pairs may repeat in either order."""
    n = draw(st.integers(1, 7))
    index, value = st.integers(0, n - 1), values
    if faults:
        index = st.integers(-1, n) | st.sampled_from([2**63, -(2**63) - 1])
        value = values | st.sampled_from([math.nan, math.inf, -math.inf])
    entries = draw(st.lists(st.tuples(index, index, value), max_size=12))
    if not faults:  # keep the first entry of each unordered pair
        unique = {}
        for i, j, v in entries:
            unique.setdefault(frozenset((i, j)), (i, j, v))
        entries = list(unique.values())
    return n, entries


@SETTINGS
@given(coordinate_lists())
def test_from_coordinate_list_matches_dense_build(case):
    n, entries = case
    pairs = [frozenset((i, j)) for i, j, _ in entries]
    faulty = (
        any(not (0 <= i < n and 0 <= j < n) for i, j, _ in entries)
        or any(not math.isfinite(v) for _, _, v in entries)
        or len(set(pairs)) != len(pairs)
    )
    if faulty:
        with pytest.raises(ValueError):
            from_coordinate_list(n, entries)
        return
    a = from_coordinate_list(n, entries)
    want = np.zeros((n, n))
    for i, j, v in entries:
        want[i, j] = want[j, i] = v
    dense = a.to_dense()
    assert np.array_equal(dense, want)
    assert a.nnz == sum(1 for _, _, v in entries if v != 0.0)
    row_sizes = np.count_nonzero(want, axis=1)
    assert a.max_row_nnz == int(row_sizes.max())
    for i in range(n):
        row = a.row(i)
        assert [c for c, _ in row] == sorted(np.flatnonzero(want[i]).tolist())
        assert all(a.entry(i, c) == v == want[i, c] for c, v in row)
    bound = max(math.fsum(abs(v) for v in r) for r in want.tolist())
    assert a.norm_bound == (bound if bound > 0 else 1.0)


@SETTINGS
@given(coordinate_lists(faults=False))
def test_matrix_text_round_trip_is_a_fixed_point(case):
    n, entries = case
    text = format_matrix(from_coordinate_list(n, entries))
    assert format_matrix(parse_matrix(text)) == text


@st.composite
def clocks(draw):
    """Odd-length clocks on 1-3 qubits over H, X, Z, CNOT, Toffoli and ROT,
    including the single-position clock."""
    n = draw(st.integers(1, 3))
    qubit = st.integers(0, n - 1)
    kinds = ["H", "X", "Z", "ROT"] + ["CNOT"] * (n >= 2) + ["TOFF"] * (n >= 3)
    gates = []
    for _ in range(draw(st.sampled_from([1, 3, 5]))):
        kind = draw(st.sampled_from(kinds))
        qs = draw(st.permutations(range(n)))
        if kind == "ROT":
            gates.append(rot(draw(qubit), draw(st.floats(-7.0, 7.0))))
        elif kind == "CNOT":
            gates.append(cnot(qs[0], qs[1]))
        elif kind == "TOFF":
            gates.append(toffoli(qs[0], qs[1], qs[2]))
        else:
            gates.append({"H": h, "X": x, "Z": z}[kind](draw(qubit)))
    return ClockOperator(gates=tuple(gates), n_qubits=n)


@SETTINGS
@given(clocks())
def test_build_observable_matches_dense_clock(clock):
    w = clock_unitary_dense(clock)
    a = build_observable(clock)
    dense = a.to_dense()
    assert np.array_equal(dense, dense.T)
    assert np.allclose(dense, 0.5 * (w + w.T), rtol=0.0, atol=1e-12)
    assert a.max_row_nnz <= 4
    assert a.norm_bound == 1.0
    assert all(v != 0.0 for i in range(a.dim) for _, v in a.row(i))
