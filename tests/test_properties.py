"""Property tests: matrix construction, the matrix, graph and circuit file
formats, clock assembly, the power oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dee.circuits import (
    Circuit,
    GateKind,
    cnot,
    format_circuit,
    fused,
    gate_row_entries,
    gate_unitary,
    h,
    parse_circuit,
    rot,
    toffoli,
    x,
    z,
)
from dee.gateset import H_THEN_PERM, LONE_H, OBSERVABLE_SCALE, PERM_THEN_H, UniformScaleGate
from dee.hardness import ClockOperator, build_observable, clock_unitary_dense
from dee.sparse import (
    format_matrix,
    from_coordinate_list,
    matvec,
    parse_graph,
    parse_matrix,
    power_entry_exact,
)

from conftest import connected_rows, merged_rows

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


def reference_perm_image(g, v):
    """One row at a time with branches, as the row oracles were first written."""
    if g.kind is GateKind.X:
        return v ^ (1 << g.qubits[0])
    if g.kind is GateKind.CNOT:
        c, t = g.qubits
        return v ^ (1 << t) if (v >> c) & 1 else v
    c1, c2, t = g.qubits
    return v ^ (1 << t) if ((v >> c1) & 1) and ((v >> c2) & 1) else v


def reference_row_entries(g, u, n):
    """Row u by per-row branches; fused rows merge through a dict after each factor."""
    q = g.qubits[0]
    base, top = u & ~(1 << q), u | (1 << q)
    if g.kind in (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI):
        return [(reference_perm_image(g, u), 1.0)]
    if g.kind is GateKind.Z:
        return [(u, -1.0 if (u >> q) & 1 else 1.0)]
    if g.kind is GateKind.H:
        inv = 1.0 / math.sqrt(2.0)
        return [(base, inv), (top, -inv)] if (u >> q) & 1 else [(base, inv), (top, inv)]
    if g.kind is GateKind.ROT:
        c, s = math.cos(g.angle), math.sin(g.angle)
        return [(base, s), (top, c)] if (u >> q) & 1 else [(base, c), (top, -s)]
    acc = {u: 1.0}
    for part in reversed(g.parts):
        nxt = {}
        for w, coeff in acc.items():
            for v, val in reference_row_entries(part, w, n):
                nxt[v] = nxt.get(v, 0.0) + coeff * val
        acc = {v: val for v, val in nxt.items() if val != 0.0}
    return sorted(acc.items())


def reference_element_row(e, u):
    """Row u of sqrt(2) * element by per-row branches, sorted."""
    bit = 1 << e.h_qubit
    if e.kind == H_THEN_PERM:
        u = reference_perm_image(e.perm, u)
    base, top = u & ~bit, u | bit
    sign = -1 if (u >> e.h_qubit) & 1 else 1
    if e.kind == PERM_THEN_H:
        return sorted([(reference_perm_image(e.perm, base), 1), (reference_perm_image(e.perm, top), sign)])
    return [(base, 1), (top, sign)]


@st.composite
def gates(draw, n, depth=0):
    """One gate on n qubits: any kind, ROT at any angle, fused nested twice."""
    qs = draw(st.permutations(range(n)))
    kinds = ["H", "X", "Z", "ROT"] + ["CNOT"] * (n >= 2) + ["TOFF"] * (n >= 3) + ["FUSED"] * (depth < 2)
    kind = draw(st.sampled_from(kinds))
    if kind == "FUSED":
        return fused(*draw(st.lists(gates(n, depth + 1), min_size=1, max_size=4)))
    if kind == "ROT":
        return rot(qs[0], draw(st.sampled_from([0.0, math.pi]) | st.floats(-7.0, 7.0)))
    if kind == "CNOT":
        return cnot(qs[0], qs[1])
    if kind == "TOFF":
        return toffoli(qs[0], qs[1], qs[2])
    return {"H": h, "X": x, "Z": z}[kind](qs[0])


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), gates(n))))
def test_gate_rows_array_call_matches_row_calls(case):
    """The array call's rows, slots merged, equal the branchy per-row
    reference exactly, and its slots are sorted by column."""
    n, g = case
    cols, vals = gate_row_entries(g, np.arange(2**n), n)
    assert cols.shape == vals.shape and cols.shape[1] == 2**n
    assert np.all(np.diff(cols, axis=0) >= 0)
    dense = gate_unitary(g, n)
    for u, row in enumerate(merged_rows(cols, vals)):
        assert row == {c: v for c, v in reference_row_entries(g, u, n) if v != 0.0}
        assert np.allclose([row.get(c, 0.0) for c in range(2**n)], dense[u], rtol=0.0, atol=1e-12)


@st.composite
def elements(draw):
    """(n, element) over all three element kinds; the H may share a qubit with the permutation."""
    n = draw(st.integers(3, 5))
    kind = draw(st.sampled_from([LONE_H, PERM_THEN_H, H_THEN_PERM]))
    perm, arity = draw(st.sampled_from([(x, 1), (cnot, 2), (toffoli, 3)]))
    qs = draw(st.permutations(range(n)))[:arity]
    h_qubit = draw(st.integers(0, n - 1))
    return n, UniformScaleGate(kind=kind, h_qubit=h_qubit, perm=None if kind == LONE_H else perm(*qs))


@SETTINGS
@given(elements())
def test_element_rows_array_call_matches_row_calls(case):
    """sqrt(2) times the fused element's rows is exactly the reference's +-1
    row: the integer clock's entries rest on this."""
    n, e = case
    cols, vals = gate_row_entries(e.as_fused_gate(), np.arange(2**n), n)
    assert cols.shape == vals.shape == (2, 2**n)
    for u, row in enumerate(merged_rows(cols, (OBSERVABLE_SCALE / 2) * vals)):
        assert sorted(row.items()) == reference_element_row(e, u)


def noisy_text(draw, lines):
    """The lines, each maybe followed by a comment, with blank and comment-only
    lines drawn in between; a parser must skip all of them."""
    comment = st.sampled_from(["", "  # note", "\t#x"])
    out = []
    for line in lines:
        out.extend(draw(st.lists(st.sampled_from(["", "   ", "# comment"]), max_size=2)))
        out.append(line + draw(comment))
    return "\n".join(out) + "\n"


@st.composite
def graph_cases(draw):
    n = draw(st.integers(1, 10**6))
    vertex = st.integers(-5, 2**63 - 1)  # the reader refuses integers outside int64
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    return n, edges, noisy_text(draw, lines)


@SETTINGS
@given(graph_cases())
def test_graph_text_round_trip(case):
    n, edges, text = case
    assert parse_graph(text) == (n, edges)


# a well-formed body after each of these headers must still be refused (a
# missing header is not among them: the first edge line would read as one)
bad_graph_headers = st.one_of(
    st.integers(0, 9).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)).map(lambda t: "%d %d %d" % t),
    st.tuples(st.sampled_from(["x", "2.5", "1e3", "0x3"]), st.integers(0, 9)).map(lambda t: "%s %d" % t),
    st.integers(0, 9).map(lambda n: f"{n} two"),
)


@SETTINGS
@given(graph_cases(), bad_graph_headers, st.integers(-3, 3).filter(bool))
def test_graph_refuses_malformed_headers(case, header, miscount):
    n, edges, _ = case
    body = [f"{u} {v}" for u, v in edges]
    with pytest.raises(ValueError):
        parse_graph("\n".join([header] + body) + "\n")
    if len(edges) + miscount >= 0:  # a count that disagrees with the body
        with pytest.raises(ValueError, match="header promises"):
            parse_graph("\n".join([f"{n} {len(edges) + miscount}"] + body) + "\n")


@st.composite
def circuits(draw):
    """Circuits of every file gate kind (no fused gates), ROT at any angle."""
    n = draw(st.integers(1, 5))
    return Circuit(n, tuple(draw(st.lists(gates(n, depth=2), max_size=8))))


@SETTINGS
@given(circuits(), st.data())
def test_circuit_text_round_trip(c, data):
    text = format_circuit(c)
    assert parse_circuit(text) == c
    assert format_circuit(parse_circuit(text)) == text
    assert parse_circuit(noisy_text(data.draw, text.splitlines())) == c


bad_circuit_headers = st.one_of(
    st.just(""),
    st.sampled_from(["QUBIT", "qubits", "QUBITS:", "Q"]).flatmap(lambda k: st.integers(1, 9).map(lambda n: f"{k} {n}")),
    st.integers(1, 9).map(lambda n: f"QUBITS {n} {n}"),
    st.sampled_from(["QUBITS", "QUBITS x", "QUBITS 2.5", "QUBITS 1e3", "QUBITS 0x3", "3"]),
    st.integers(-5, 0).map(lambda n: f"QUBITS {n}"),
)


@SETTINGS
@given(circuits(), bad_circuit_headers)
def test_circuit_refuses_malformed_headers(c, header):
    body = format_circuit(c).splitlines()[1:]
    with pytest.raises(ValueError):
        parse_circuit("\n".join([header] + body) + "\n")


def whole_matrix_power_entry(a, i, j, m):
    """(A^m)_ij by m matvecs over all N rows, read at i, refused as the oracle refuses."""
    v = np.zeros(a.dim)
    v[j] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m):
            v = matvec(a, v)
    if not math.isfinite(v[i]):
        raise ValueError(f"(A^{m})[{i}, {j}] = {v[i]} is outside the float range")
    return float(v[i])


def outcome(oracle, *args):
    """The exact bits of an oracle's value, or its refusal text."""
    try:
        return float.hex(oracle(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def split_matrices(draw):
    """Symmetric matrices whose graph falls apart: entries join only rows
    with equal labels, rows differ in size (so some are padded), and a
    diagonal entry may be 1e200, whose powers overflow.  A chain-shaped
    matrix joins only neighbouring rows of sorted labels, so its components
    are paths, which m steps from j need not exhaust."""
    n = draw(st.integers(1, 10))
    label = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    chain = draw(st.booleans())
    if chain:
        label.sort()
    ends = [min(n, i + 2) if chain else n for i in range(n)]
    pairs = [(i, k) for i in range(n) for k in range(i, ends[i]) if label[i] == label[k]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
    off_diagonal = st.floats(-2.0, 2.0)
    diagonal = off_diagonal | st.sampled_from([1e200, -1e200])
    return from_coordinate_list(n, [(i, k, draw(diagonal if i == k else off_diagonal)) for i, k in chosen])


@SETTINGS
@given(split_matrices(), st.integers(0, 12))
def test_power_entry_matches_whole_matrix_iteration(a, m):
    """Every entry of A^m, so j's m-step reach holds row 0 or not, i lies in
    it or not, and i == j: the same bits or the same refusal as m matvecs
    over all N rows.  More than m steps from j the entry is exactly 0.0,
    where the whole-matrix loop may instead refuse: an overflow that reaches
    row 0 spreads to every padded row through its padding slots' 0 * inf."""
    for j in range(a.dim):
        near = connected_rows(a, j, m)
        for i in range(a.dim):
            got = outcome(power_entry_exact, a, i, j, m)
            want = outcome(whole_matrix_power_entry, a, i, j, m)
            if i in near:
                assert got == want
            else:
                assert got == float.hex(0.0)
                assert want == got or 0 in near and want.startswith("ValueError")


OVERFLOWING = [(0, 0, 1e200), (0, 1, 0.5), (2, 2, 1e200), (2, 3, -0.5)]


@pytest.mark.parametrize("j", [0, 2])  # row 0 inside and outside j's component
def test_power_entry_refuses_an_overflowing_diagonal(j):
    a = from_coordinate_list(4, OVERFLOWING)
    for m in (2, 3):
        want = outcome(whole_matrix_power_entry, a, j, j, m)
        assert want.startswith("ValueError") and outcome(power_entry_exact, a, j, j, m) == want


def test_padding_slots_read_row_zero_outside_the_reach():
    """Row 0 joins every reach, so padded row 3 reads row 0's +0.0, not the
    first row reached from j = 1, whose powers overflow: (A^3)[3, 1] stays
    finite."""
    a = from_coordinate_list(4, [(1, 1, 1e200), (1, 2, 1.0), (2, 3, 1.0)])
    want = outcome(whole_matrix_power_entry, a, 3, 1, 3)
    assert not want.startswith("ValueError") and outcome(power_entry_exact, a, 3, 1, 3) == want


def test_power_entry_outside_the_component_is_zero_past_an_overflow():
    """A^3 e_0 holds inf at row 0 after two steps, so the whole-matrix loop's
    third step reads 0 * inf in padded row 3 of the other component."""
    a = from_coordinate_list(4, OVERFLOWING)
    assert outcome(whole_matrix_power_entry, a, 3, 0, 3) == "ValueError: (A^3)[3, 0] = nan is outside the float range"
    assert power_entry_exact(a, 3, 0, 3) == 0.0
