"""Clock-operator reduction: circuits to sparse diagonal-entry instances."""

import math

import numpy as np
import pytest

import dee.sparse
import dee.spectral
from dee.circuits import Circuit, build_mirror_circuit, h, parse_circuit, rot, toffoli, x, z
from dee.hardness import (
    ClockOperator,
    build_clock_operator,
    build_observable,
    clock_unitary_dense,
    cycle_phase_measure,
    moment_separation,
    predicted_diag,
    reduce,
    reference_measure,
    separation_floor,
    symmetric_overlap,
    verify_induced_measure,
)
from dee.qpe import LANCZOS_MIN_STEPS, choose_params, sample_measurements
from dee.sparse import SparseSymmetricMatrix, power_diag_exact

from conftest import TWELVE_QUBIT_10_GATES, TWELVE_QUBIT_6_GATES, TWELVE_QUBIT_INPUT, connected_rows


def rotation_gate_for(alpha_sq):
    return rot(0, math.asin(math.sqrt(alpha_sq)))


def mirror_clock(gates, n_qubits):
    y = Circuit(n_qubits=n_qubits, gates=tuple(gates))
    return build_clock_operator(build_mirror_circuit(y))


class TestClockOperator:
    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            ClockOperator(gates=(x(0), x(0)), n_qubits=1)

    def test_shapes(self):
        clock = mirror_clock([h(0), x(1)], 2)
        assert clock.n_positions == 5
        assert clock.system_dim == 4
        assert clock.dim == 20
        assert clock.flat_index(2, 3) == 11

    def test_gate_outside_register_rejected(self):
        with pytest.raises(ValueError):
            ClockOperator(gates=(x(1),), n_qubits=1)

    def test_dense_clock_is_orthogonal(self):
        clock = mirror_clock([h(0), cn := x(1)], 2)
        w = clock_unitary_dense(clock)
        assert np.allclose(w @ w.T, np.eye(clock.dim), atol=1e-12)

    def test_mirror_cycle_squares_to_identity(self):
        # one full trip around the clock applies the mirror, which is an
        # involution, so W^(2M) is the identity
        clock = mirror_clock([h(0), toffoli(0, 1, 2), x(2)], 3)
        w = clock_unitary_dense(clock)
        m_pos = clock.n_positions
        wm = np.linalg.matrix_power(w, m_pos)
        assert np.allclose(wm @ wm, np.eye(clock.dim), atol=1e-10)


class TestObservable:
    def test_rows_match_dense_oracle(self):
        for gates, n in (
            ([z(0)], 1),
            ([h(0)], 1),
            ([h(0), x(1), z(0)], 2),
            ([toffoli(0, 1, 2), h(1), x(0)], 3),
        ):
            clock = ClockOperator(gates=tuple(gates), n_qubits=n)
            dense = 0.5 * (clock_unitary_dense(clock) + clock_unitary_dense(clock).T)
            a = build_observable(clock)
            for r in range(clock.dim):
                row = dict(a.row(r))
                for c in range(clock.dim):
                    assert row.get(c, 0.0) == pytest.approx(dense[r, c], abs=1e-12)

    def test_sparsity_and_bound(self):
        clock = mirror_clock([h(0), x(1), h(1)], 2)
        a = build_observable(clock)
        assert a.max_row_nnz <= 4
        assert a.norm_bound == 1.0
        spec = float(np.abs(np.linalg.eigvalsh(a.to_dense())).max())
        assert spec <= 1.0 + 1e-12

    def test_single_position_clock(self):
        clock = ClockOperator(gates=(z(0),), n_qubits=1)
        a = build_observable(clock)
        assert np.allclose(a.to_dense(), np.diag([1.0, -1.0]))


class TestOverlap:
    def test_identity_like_clock(self):
        clock = ClockOperator(gates=(z(0),), n_qubits=1)
        assert symmetric_overlap(clock, "0") == pytest.approx(1.0)
        assert symmetric_overlap(clock, "1") == pytest.approx(0.0)

    def test_mirror_overlap_complements_acceptance(self):
        from dee.circuits import accept_probability

        for alpha in (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
            y = Circuit(n_qubits=2, gates=(rotation_gate_for(alpha), x(1)))
            clock = build_clock_operator(build_mirror_circuit(y))
            overlap = symmetric_overlap(clock, "00")
            p_acc = accept_probability(y, "00", 0)
            assert overlap + p_acc == pytest.approx(1.0, abs=1e-12)


class TestCycleMeasures:
    def test_smallest_cycles(self):
        assert cycle_phase_measure(1, twisted=False).atoms == ((1.0, 1.0),)
        assert cycle_phase_measure(1, twisted=True).atoms == ((-1.0, 1.0),)

    def test_odd_cycle_matches_direct_eigensum(self):
        m_pos = 7
        mu = cycle_phase_measure(m_pos, twisted=False)
        want = sorted(
            (math.cos(2.0 * math.pi * l / m_pos) for l in range(m_pos)), reverse=True
        )
        got = []
        for lam, w in mu.atoms:
            got.extend([lam] * round(w * m_pos))
        assert np.allclose(got, want, atol=1e-12)

    def test_even_cycle_endpoint_weights(self):
        mu = cycle_phase_measure(4, twisted=False)
        assert mu.atoms == ((1.0, 0.25), (pytest.approx(0.0, abs=1e-12), 0.5), (-1.0, 0.25))

    def test_twisted_atoms_avoid_plus_one(self):
        for m_pos in (3, 5, 7, 9):
            mu = cycle_phase_measure(m_pos, twisted=True)
            assert all(lam < 1.0 - 1e-6 for lam, _ in mu.atoms)
            assert mu.atoms[-1][0] == pytest.approx(-1.0)
            assert mu.atoms[-1][1] == pytest.approx(1.0 / m_pos)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            cycle_phase_measure(0, twisted=False)


class TestReferenceMeasure:
    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            reference_measure(4, 0.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            reference_measure(3, 1.5)

    def test_pure_branches(self):
        for m_pos in (3, 7):
            assert reference_measure(m_pos, 0.0).atoms == cycle_phase_measure(
                m_pos, twisted=False
            ).atoms
            assert reference_measure(m_pos, 1.0).atoms == cycle_phase_measure(
                m_pos, twisted=True
            ).atoms


class TestMomentSeparation:
    def test_reflection_identity_odd(self):
        for m_pos in (3, 5, 7, 9, 11):
            e0, e1 = moment_separation(m_pos, m_pos**3)
            assert e1 == pytest.approx(-e0, abs=1e-14)

    def test_longhand_moment(self):
        # direct sum over all cycle eigenvalues for M = 5, m = 3
        m_pos, m = 5, 3
        lams = [math.cos(2.0 * math.pi * l / m_pos) for l in range(m_pos)]
        want = math.fsum(lam**m for lam in lams) / m_pos
        e0, _ = moment_separation(m_pos, m)
        assert e0 == pytest.approx(want, abs=1e-14)

    def test_floor_holds_at_cubed_length(self):
        for m_pos in (3, 5, 7, 9, 11):
            e0, _ = moment_separation(m_pos, m_pos**3)
            assert e0 > separation_floor(m_pos)


class TestReduce:
    def test_accepting_circuit(self):
        inst = reduce(Circuit(n_qubits=1, gates=(x(0),)), "0")
        assert inst.alpha1_sq == pytest.approx(1.0)
        assert inst.n_positions == 3
        assert inst.dee.m == 27
        assert inst.dee.epsilon == pytest.approx(1.0 / 12.0)
        assert inst.dee.b == 1.0
        assert inst.dee.g == 0.0
        exact = power_diag_exact(inst.dee.matrix, inst.dee.j, inst.dee.m)
        want = predicted_diag(3, 1.0, 27)
        assert exact == pytest.approx(want, abs=1e-12)
        # accepting means the diagonal entry falls below -eps
        assert exact < -inst.dee.epsilon

    def test_rejecting_circuit(self):
        inst = reduce(Circuit(n_qubits=1, gates=(z(0),)), "0")
        assert inst.alpha1_sq == pytest.approx(0.0)
        exact = power_diag_exact(inst.dee.matrix, inst.dee.j, inst.dee.m)
        assert exact > inst.dee.epsilon

    def test_intermediate_alpha_matches_prediction(self):
        y = Circuit(n_qubits=2, gates=(rotation_gate_for(1.0 / 3.0), x(1)))
        inst = reduce(y, "00")
        assert inst.alpha1_sq == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert inst.n_positions == 5
        exact = power_diag_exact(inst.dee.matrix, inst.dee.j, inst.dee.m)
        want = predicted_diag(5, inst.alpha1_sq, 125)
        assert exact == pytest.approx(want, abs=1e-12)

    def test_promise_gap_separates_thirds(self):
        # alpha = 1/3 lands above +eps, alpha = 2/3 below -eps
        for alpha, expect_above in ((1.0 / 3.0, True), (2.0 / 3.0, False)):
            y = Circuit(n_qubits=1, gates=(rotation_gate_for(alpha),))
            inst = reduce(y, "0")
            exact = power_diag_exact(inst.dee.matrix, inst.dee.j, inst.dee.m)
            eps = inst.dee.epsilon
            if expect_above:
                assert exact >= eps
            else:
                assert exact <= -eps

    def test_input_length_checked(self):
        with pytest.raises(ValueError):
            reduce(Circuit(n_qubits=1, gates=(x(0),)), "00")

    def test_oracle_runs_on_the_component_of_j(self, monkeypatch):
        """At 12 qubits j's component holds 52 of 53,248 rows; every one of
        the oracle's m matvecs runs on that component and row 0 only."""
        dee_inst = reduce(parse_circuit(TWELVE_QUBIT_6_GATES), TWELVE_QUBIT_INPUT).dee
        a = dee_inst.matrix
        component = connected_rows(a, dee_inst.j)
        dims = []
        matvec = dee.sparse.matvec
        monkeypatch.setattr(dee.sparse, "matvec", lambda sub, v: dims.append(sub.dim) or matvec(sub, v))
        power_diag_exact(a, dee_inst.j, dee_inst.m)
        assert len(dims) == dee_inst.m == 2197
        assert max(dims) <= len(component) + 1
        assert 1000 * max(dims) < a.dim

    @pytest.mark.parametrize("m", [4, 9261])  # K = 32 Lanczos steps on 337 rows; a dense 337 x 337
    def test_sampler_runs_on_the_reach_of_j(self, m, monkeypatch):
        """At 12 qubits and 10 gates (86,016 rows), every matvec and dense
        matrix of the analytic sampler has at most |R| + 1 rows, R being the
        rows within K steps of j."""
        dee_inst = reduce(parse_circuit(TWELVE_QUBIT_10_GATES), TWELVE_QUBIT_INPUT).dee
        a = dee_inst.matrix
        near = connected_rows(a, dee_inst.j, max(m // 2 + 1, LANCZOS_MIN_STEPS))
        dims = []

        def counted(fn):
            return lambda sub, *args: dims.append(sub.dim) or fn(sub, *args)

        monkeypatch.setattr(dee.spectral, "matvec", counted(dee.spectral.matvec))
        monkeypatch.setattr(SparseSymmetricMatrix, "to_dense", counted(SparseSymmetricMatrix.to_dense))
        psi = np.zeros(a.dim)
        psi[dee_inst.j] = 1.0
        sample_measurements(a, dee_inst.b, psi, choose_params(m, 1.0, 0.05), seed=1)
        assert dims
        assert max(dims) <= len(near) + 1
        assert 100 * max(dims) < a.dim


class TestVerifyInducedMeasure:
    def test_passes_for_small_mirrors(self):
        cases = [
            ([z(0)], 1, "0"),
            ([h(0)], 1, "0"),
            ([rotation_gate_for(0.5), x(1)], 2, "00"),
            ([h(0), h(1), x(1)], 2, "10"),
        ]
        for gates, n, xs in cases:
            clock = mirror_clock(gates, n)
            mu = verify_induced_measure(clock, xs)
            assert abs(math.fsum(w for _, w in mu.atoms) - 1.0) < 1e-9

    def test_even_clock_rejected(self):
        with pytest.raises(ValueError):
            ClockOperator(gates=(x(0), x(0)), n_qubits=1)
