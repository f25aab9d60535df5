"""Gate semantics, circuit application, mirrors, and row/column oracles."""

import math

import numpy as np
import pytest

from dee.circuits import (
    Circuit,
    accept_probability,
    apply_circuit,
    basis_index,
    build_mirror_circuit,
    circuit_unitary,
    cnot,
    format_circuit,
    fused,
    gate_matrix,
    gate_row_entries,
    gate_unitary,
    h,
    inverse_gate,
    is_permutation_gate,
    parse_circuit,
    rot,
    toffoli,
    x,
    z,
)

from conftest import merged_rows

ALL_SMALL_GATES = [h(0), x(1), z(0), cnot(0, 1), cnot(2, 0), toffoli(0, 1, 2), rot(1, 0.7)]


def random_gate(rng, n):
    choice = int(rng.integers(0, 6))
    qs = rng.permutation(n)
    if choice == 0:
        return h(int(qs[0]))
    if choice == 1:
        return x(int(qs[0]))
    if choice == 2:
        return z(int(qs[0]))
    if choice == 3 and n >= 2:
        return cnot(int(qs[0]), int(qs[1]))
    if choice == 4 and n >= 3:
        return toffoli(int(qs[0]), int(qs[1]), int(qs[2]))
    return rot(int(qs[0]), float(rng.uniform(0.0, 2.0 * math.pi)))


def random_circuit(rng, n, length):
    return Circuit(n_qubits=n, gates=tuple(random_gate(rng, n) for _ in range(length)))


class TestGateMatrices:
    def test_all_gates_orthogonal(self, rng):
        for g in ALL_SMALL_GATES + [random_gate(rng, 3) for _ in range(20)]:
            u = gate_matrix(g)
            assert np.allclose(u @ u.T, np.eye(len(u)), atol=1e-12)

    def test_inverse_gate(self, rng):
        for g in ALL_SMALL_GATES:
            u = gate_matrix(g)
            v = gate_matrix(inverse_gate(g))
            assert np.allclose(u @ v, np.eye(len(u)), atol=1e-12)

    def test_self_inverse_gates(self):
        for g in (h(0), x(0), z(0), cnot(0, 1), toffoli(0, 1, 2)):
            assert inverse_gate(g) == g

    def test_permutation_predicate(self):
        assert is_permutation_gate(x(0))
        assert is_permutation_gate(cnot(0, 1))
        assert is_permutation_gate(toffoli(0, 1, 2))
        assert not is_permutation_gate(h(0))
        assert not is_permutation_gate(z(0))
        assert not is_permutation_gate(rot(0, 0.3))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            cnot(1, 1)
        with pytest.raises(ValueError):
            toffoli(0, 1, 1)


class TestApplication:
    def test_h_on_zero(self):
        c = Circuit(n_qubits=1, gates=(h(0),))
        out = apply_circuit(c, np.array([1.0, 0.0]))
        assert np.allclose(out, [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])

    def test_x_flips(self):
        c = Circuit(n_qubits=2, gates=(x(1),))
        out = apply_circuit(c, np.array([1.0, 0.0, 0.0, 0.0]))
        # qubit 1 is the second-least-significant bit
        assert np.allclose(out, [0.0, 0.0, 1.0, 0.0])

    def test_toffoli_on_basis_states(self):
        c = Circuit(n_qubits=3, gates=(toffoli(1, 2, 0),))
        u = circuit_unitary(c)
        # controls at qubits 1 and 2 set means indices 6 and 7 swap
        want = np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]]
        assert np.array_equal(u, want)

    def test_z_sign(self):
        c = Circuit(n_qubits=1, gates=(z(0),))
        out = apply_circuit(c, np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, -1.0])

    def test_circuit_unitary_is_gate_product(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            c = random_circuit(rng, n, int(rng.integers(1, 6)))
            u = np.eye(2**n)
            for g in c.gates:
                u = gate_unitary(g, n) @ u
            assert np.allclose(circuit_unitary(c), u, atol=1e-12)

    def test_norm_preserved(self, rng):
        c = random_circuit(rng, 3, 8)
        psi = rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        out = apply_circuit(c, psi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_dimension_mismatch_rejected(self):
        c = Circuit(n_qubits=2, gates=(h(0),))
        with pytest.raises(ValueError):
            apply_circuit(c, np.array([1.0, 0.0]))

    def test_gate_outside_register_rejected(self):
        with pytest.raises(ValueError):
            Circuit(n_qubits=1, gates=(cnot(0, 1),))


class TestFused:
    def test_fused_matrix_is_product(self, rng):
        for _ in range(10):
            n = 3
            parts = tuple(random_gate(rng, n) for _ in range(3))
            g = fused(*parts)
            u = np.eye(2**n)
            for part in parts:
                u = gate_unitary(part, n) @ u
            assert np.allclose(gate_unitary(g, n), u, atol=1e-12)

    def test_fused_inverse(self, rng):
        parts = (h(0), cnot(0, 1))
        g = fused(*parts)
        u = gate_unitary(g, 2)
        v = gate_unitary(inverse_gate(g), 2)
        assert np.allclose(u @ v, np.eye(4), atol=1e-12)

    def test_empty_fusion_rejected(self):
        with pytest.raises(ValueError):
            fused()


class TestAcceptProbability:
    def test_identity_circuit_rejects(self):
        c = Circuit(n_qubits=2, gates=())
        assert accept_probability(c, "0", 1) == 0.0

    def test_x_on_flag_accepts(self):
        c = Circuit(n_qubits=2, gates=(x(0),))
        assert accept_probability(c, "0", 1) == pytest.approx(1.0)

    def test_rotation_sets_alpha(self):
        target = 1.0 / 3.0
        c = Circuit(n_qubits=1, gates=(rot(0, math.asin(math.sqrt(target))),))
        assert accept_probability(c, "", 1) == pytest.approx(target, abs=1e-12)

    def test_spectator_gates_do_not_change_alpha(self, rng):
        base = Circuit(n_qubits=3, gates=(rot(0, 0.4),))
        padded = Circuit(
            n_qubits=3, gates=base.gates + (x(1), h(2), cnot(1, 2), x(1))
        )
        a0 = accept_probability(base, "01", 1)
        a1 = accept_probability(padded, "01", 1)
        assert a0 == pytest.approx(a1, abs=1e-12)

    def test_input_length_must_match(self):
        c = Circuit(n_qubits=2, gates=())
        with pytest.raises(ValueError):
            accept_probability(c, "00", 1)


class TestMirror:
    def test_shape_and_parity(self, rng):
        for length in (0, 1, 4):
            y = random_circuit(rng, 2, length)
            mirror = build_mirror_circuit(y)
            assert len(mirror.gates) == 2 * length + 1

    def test_mirror_squares_to_identity(self, rng):
        for _ in range(8):
            y = random_circuit(rng, 2, int(rng.integers(0, 5)))
            u = circuit_unitary(build_mirror_circuit(y))
            assert np.allclose(u @ u, np.eye(4), atol=1e-10)

    def test_mirror_diagonal_encodes_acceptance(self, rng):
        # input bits sit on the low qubits (the flag qubit 0 first), the
        # ancilla on the high qubit starts at 0
        for _ in range(8):
            y = random_circuit(rng, 3, int(rng.integers(0, 6)))
            u = circuit_unitary(build_mirror_circuit(y))
            for xs in ("00", "01", "11"):
                idx = basis_index(tuple(int(ch) for ch in xs))
                want = 1.0 - 2.0 * accept_probability(y, xs, 1)
                assert u[idx, idx] == pytest.approx(want, abs=1e-10)


class TestRowColumnOracles:
    def test_rows_match_dense(self, rng):
        gates = list(ALL_SMALL_GATES)
        gates.append(fused(h(0), cnot(0, 1)))
        gates.extend(random_gate(rng, 3) for _ in range(15))
        n = 3
        for g in gates:
            u = gate_unitary(g, n)
            rows = merged_rows(*gate_row_entries(g, np.arange(2**n), n))
            for row, dense_row in zip(rows, u):
                for col in range(2**n):
                    assert row.get(col, 0.0) == pytest.approx(dense_row[col], abs=1e-12)

    def test_fused_rows_are_merged(self):
        # H H = I: the two terms of each column meet, and one cancels to 0
        cols, vals = gate_row_entries(fused(h(0), h(0)), np.arange(4), 2)
        for u, row in enumerate(merged_rows(cols, vals)):
            assert list(row) == [u]
            assert row[u] == pytest.approx(1.0, abs=1e-15)

    def test_permutation_rows_have_one_entry(self):
        for g in (x(0), cnot(0, 1), toffoli(0, 1, 2)):
            for row in merged_rows(*gate_row_entries(g, np.arange(8), 3)):
                assert list(row.values()) == [1.0]


class TestBasisIndex:
    def test_little_endian(self):
        assert basis_index((1, 0)) == 1
        assert basis_index((0, 1)) == 2
        assert basis_index((1, 1, 1)) == 7

    def test_bad_input_string_rejected(self):
        c = Circuit(n_qubits=2, gates=())
        with pytest.raises(ValueError):
            accept_probability(c, "2", 1)


class TestFileFormat:
    def test_round_trip(self, rng):
        c = Circuit(
            n_qubits=3,
            gates=(h(0), x(1), z(2), cnot(0, 2), toffoli(0, 1, 2), rot(1, 0.25)),
        )
        back = parse_circuit(format_circuit(c))
        assert back == c

    def test_comments_ignored(self):
        c = parse_circuit("# test\nQUBITS 2\nH 0  # hadamard\nCNOT 0 1\n")
        assert len(c.gates) == 2

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_circuit("QUBITS 1\nFOO 0\n")

    def test_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            parse_circuit("QUBITS 2\nCNOT 0\n")

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_circuit("H 0\n")

    def test_qubit_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_circuit("QUBITS 1\nH 1\n")
