"""Shared helpers for the test suite."""

import math

import numpy as np
import pytest

from dee.circuits import Circuit, rot, x
from dee.sparse import from_coordinate_list


def random_sparse_matrix(rng, n, max_row_nnz=8):
    """Random sparse symmetric matrix with a hard cap on row occupancy.

    Entries are uniform in [-1, 1].  Roughly half the diagonal is filled,
    then off-diagonal pairs are inserted while both endpoint rows have
    room.  The result is never the zero matrix.
    """
    counts = [0] * n
    entries = []
    seen = set()
    for i in range(n):
        if counts[i] < max_row_nnz and rng.random() < 0.5:
            entries.append((i, i, float(rng.uniform(-1.0, 1.0))))
            counts[i] += 1
            seen.add((i, i))
    for _ in range(3 * n):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen or counts[i] >= max_row_nnz or counts[j] >= max_row_nnz:
            continue
        entries.append((key[0], key[1], float(rng.uniform(-1.0, 1.0))))
        counts[i] += 1
        counts[j] += 1
        seen.add(key)
    if not entries:
        entries.append((0, 0, 1.0))
    return from_coordinate_list(n, entries)


def scale_matrix(a, factor):
    """Return a copy of `a` with every entry multiplied by `factor`."""
    entries = []
    for i, row in enumerate(a.rows):
        for j, value in row:
            if i <= j:
                entries.append((i, j, value * factor))
    return from_coordinate_list(a.dim, entries, norm_bound=a.norm_bound * abs(factor))


def dense_power_diag(a, j, m):
    """Oracle: diagonal entry of the m-th power via dense linear algebra."""
    return float(np.linalg.matrix_power(a.to_dense(), m)[j, j])


def rotation_circuit(alpha_sq, n_gates):
    """Circuit of `n_gates` gates whose acceptance probability is alpha_sq.

    A single rotation on qubit 0 sets the acceptance amplitude; the rest
    are X gates on qubit 1, which leave qubit 0 untouched.
    """
    angle = math.asin(math.sqrt(alpha_sq))
    gates = [rot(0, angle)]
    gates.extend(x(1) for _ in range(n_gates - 1))
    return Circuit(n_qubits=2, gates=tuple(gates))


# Fixed 12-qubit circuits and input whose reductions have 53,248 and 86,016
# rows (clock lengths M = 13 and 21, so m = 2,197 and 9,261).  Qubit 0 is
# rotated only, so alpha1_sq is about 0.85 and the diagonal is far from 0.
TWELVE_QUBIT_INPUT = "101100111010"
TWELVE_QUBIT_6_GATES = "QUBITS 12\nROT 0 0.4\nCNOT 0 1\nTOFF 1 2 3\nH 4\nX 5\nCNOT 3 11\n"
TWELVE_QUBIT_10_GATES = TWELVE_QUBIT_6_GATES + "H 7\nTOFF 4 7 8\nZ 8\nROT 9 1.3\n"


def connected_rows(a, j, levels=math.inf):
    """The rows reachable from j through nonzero entries within `levels`
    steps (any number by default), by a Python breadth-first search."""
    reached, frontier, level = {j}, {j}, 0
    while frontier and level < levels:
        frontier = {col for row in frontier for col, _ in a.row(row)} - reached
        reached |= frontier
        level += 1
    return reached


def merged_rows(cols, vals):
    """Per-row {column: value} of slot arrays, slots summed by column, zeros dropped."""
    rows = []
    for u in range(cols.shape[1]):
        row = {}
        for c, v in zip(cols[:, u].tolist(), vals[:, u].tolist()):
            row[c] = row.get(c, -0.0) + v
        rows.append({c: v for c, v in row.items() if v != 0.0})
    return rows


def total_variation(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
