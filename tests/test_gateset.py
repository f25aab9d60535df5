"""Uniform-scale gate set: rewriting, fusion, integer observables."""

import math

import numpy as np
import pytest

from dee.circuits import (
    Circuit,
    circuit_unitary,
    cnot,
    gate_row_entries,
    gate_unitary,
    h,
    rot,
    toffoli,
    x,
    z,
)
from dee.gateset import (
    H_THEN_PERM,
    LONE_H,
    OBSERVABLE_SCALE,
    PERM_THEN_H,
    UniformScaleGate,
    build_integer_observable,
    even_m_thresholds,
    fuse_uniform_scale,
    predicted_integer_diag,
    reduce_integer,
    rewrite_to_th,
)
from dee.sparse import power_diag_exact
from dee.spectral import eig_sym

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def sample_elements():
    return [
        UniformScaleGate(kind=LONE_H, h_qubit=0),
        UniformScaleGate(kind=LONE_H, h_qubit=2),
        UniformScaleGate(kind=PERM_THEN_H, h_qubit=1, perm=x(0)),
        UniformScaleGate(kind=PERM_THEN_H, h_qubit=0, perm=cnot(2, 0)),
        UniformScaleGate(kind=H_THEN_PERM, h_qubit=2, perm=toffoli(0, 2, 1)),
        UniformScaleGate(kind=H_THEN_PERM, h_qubit=0, perm=x(1)),
    ]


class TestRewrite:
    def test_z_becomes_hxh(self):
        c = Circuit(n_qubits=2, gates=(z(1),))
        r = rewrite_to_th(c)
        assert tuple(g.kind.value for g in r.gates) == ("H", "X", "H")
        assert np.allclose(circuit_unitary(r), circuit_unitary(c), atol=1e-12)

    def test_h_and_permutations_pass_through(self):
        c = Circuit(n_qubits=3, gates=(h(0), cnot(0, 1), toffoli(0, 1, 2), x(2)))
        assert rewrite_to_th(c) == c

    def test_rotation_rejected(self):
        with pytest.raises(ValueError):
            rewrite_to_th(Circuit(n_qubits=1, gates=(rot(0, 0.3),)))


class TestElements:
    def test_validation(self):
        with pytest.raises(ValueError):
            UniformScaleGate(kind="bogus", h_qubit=0)
        with pytest.raises(ValueError):
            UniformScaleGate(kind=LONE_H, h_qubit=0, perm=x(1))
        with pytest.raises(ValueError):
            UniformScaleGate(kind=PERM_THEN_H, h_qubit=0)
        with pytest.raises(ValueError):
            UniformScaleGate(kind=PERM_THEN_H, h_qubit=0, perm=h(1))

    def test_int_rows_match_dense(self):
        n = 3
        for e in sample_elements():
            dense = gate_unitary(e.as_fused_gate(), n)
            cols, vals = gate_row_entries(e.as_fused_gate(), np.arange(1 << n), n)
            assert cols.shape == (2, 1 << n)
            for u in range(1 << n):
                row = np.zeros(1 << n)
                for v, val in zip(cols[:, u].tolist(), (OBSERVABLE_SCALE / 2 * vals[:, u]).tolist()):
                    assert val in (-1.0, 1.0)  # exactly: sqrt(2) * fl(1/sqrt(2)) == 1.0
                    row[v] = val * INV_SQRT2
                assert np.allclose(row, dense[u], atol=1e-12)


class TestFusion:
    def test_products_equal_original(self, rng):
        pool = [h(0), h(1), h(2), x(0), z(1), cnot(0, 2), toffoli(0, 1, 2), x(2)]
        for _ in range(12):
            length = int(rng.integers(1, 8))
            picks = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(length))
            c = Circuit(n_qubits=3, gates=picks)
            elements = fuse_uniform_scale(rewrite_to_th(c))
            fused_circuit = Circuit(
                n_qubits=3, gates=tuple(e.as_fused_gate() for e in elements)
            )
            assert np.allclose(
                circuit_unitary(fused_circuit), circuit_unitary(c), atol=1e-12
            )

    def test_every_element_holds_one_h(self):
        c = Circuit(n_qubits=3, gates=(toffoli(0, 1, 2), h(1), x(0), z(2)))
        for e in fuse_uniform_scale(rewrite_to_th(c)):
            dense = gate_unitary(e.as_fused_gate(), 3)
            # all entries uniform scale 1/sqrt(2)
            mags = np.unique(np.round(np.abs(dense), 12))
            assert set(mags.tolist()) <= {0.0, round(INV_SQRT2, 12)}

    def test_lone_permutation_absorbs_inserted_pair(self):
        c = Circuit(n_qubits=3, gates=(toffoli(0, 1, 2),))
        elements = fuse_uniform_scale(c)
        assert len(elements) == 2
        assert elements[0].kind == PERM_THEN_H
        assert elements[1].kind == LONE_H
        fused_circuit = Circuit(
            n_qubits=3, gates=tuple(e.as_fused_gate() for e in elements)
        )
        assert np.allclose(circuit_unitary(fused_circuit), circuit_unitary(c), atol=1e-12)

    def test_unrewritten_gate_rejected(self):
        with pytest.raises(ValueError):
            fuse_uniform_scale(Circuit(n_qubits=1, gates=(z(0),)))


class TestIntegerObservable:
    def test_entries_are_signed_units(self):
        elements = sample_elements()
        obs = build_integer_observable(elements, 3)
        for row in obs.rows:
            for _, val in row:
                assert val in (-1.0, 1.0)
        assert obs.max_row_nnz <= 4
        assert obs.norm_bound == OBSERVABLE_SCALE

    def test_matches_scaled_clock_oracle(self):
        elements = sample_elements()
        n = 3
        obs = build_integer_observable(elements, n)
        m_count = len(elements)
        nd = 1 << n
        w = np.zeros((obs.dim, obs.dim))
        for l, e in enumerate(elements):
            block = gate_unitary(e.as_fused_gate(), n)
            dst = (l + 1) % m_count
            w[dst * nd : (dst + 1) * nd, l * nd : (l + 1) * nd] = block
        want = OBSERVABLE_SCALE * 0.5 * (w + w.T)
        assert np.allclose(obs.to_dense(), want, atol=1e-12)

    def test_too_few_elements_rejected(self):
        with pytest.raises(ValueError):
            build_integer_observable(sample_elements()[:2], 3)


class TestThresholds:
    def test_midpoint_construction(self):
        # the moment gap is nonzero once the (even) power reaches the
        # clock length
        m_pos, power = 6, 10
        g, eps = even_m_thresholds(m_pos, power)
        v13 = predicted_integer_diag(m_pos, 1.0 / 3.0, power)
        v23 = predicted_integer_diag(m_pos, 2.0 / 3.0, power)
        s_m = OBSERVABLE_SCALE**power
        assert g == pytest.approx((v13 + v23) / 2.0, rel=1e-12)
        assert v13 >= g + eps * s_m
        assert v23 <= g - eps * s_m

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            even_m_thresholds(5, 10)

    def test_float_range_guard(self):
        with pytest.raises(ValueError):
            even_m_thresholds(12, 12**3)

    def test_degenerate_gap_rejected(self):
        # at m = 2 the twisted and untwisted second moments coincide
        with pytest.raises(ValueError):
            even_m_thresholds(4, 2)
        # odd powers vanish for both measures on an even cycle
        with pytest.raises(ValueError):
            even_m_thresholds(6, 9)


class TestReduceInteger:
    CASES = (
        # (circuit gates, n_qubits, input bits, acceptance)
        ((toffoli(0, 1, 2),), 3, "000", 0.0),
        ((h(1), h(2), toffoli(1, 2, 0)), 3, "000", 0.25),
        ((h(1), h(2), toffoli(1, 2, 0), x(0)), 3, "000", 0.75),
        ((x(0),), 1, "0", 1.0),
    )

    def test_exact_diag_matches_prediction(self):
        for gates, n, xs, alpha in self.CASES:
            red = reduce_integer(Circuit(n_qubits=n, gates=gates), xs)
            assert red.alpha1_sq == pytest.approx(alpha, abs=1e-12)
            assert red.n_positions % 2 == 0
            assert red.dee.m == red.n_positions**3
            exact = power_diag_exact(red.dee.matrix, red.dee.j, red.dee.m)
            want = predicted_integer_diag(red.n_positions, alpha, red.dee.m)
            assert exact == pytest.approx(want, rel=1e-8)

    def test_thresholds_separate_thirds(self):
        for gates, n, xs, alpha in self.CASES:
            red = reduce_integer(Circuit(n_qubits=n, gates=gates), xs)
            exact = power_diag_exact(red.dee.matrix, red.dee.j, red.dee.m)
            margin = red.dee.epsilon * red.dee.b**red.dee.m
            if alpha <= 1.0 / 3.0:
                assert exact >= red.dee.g + margin
            else:
                assert alpha >= 2.0 / 3.0
                assert exact <= red.dee.g - margin

    def test_spectral_oracle_agrees(self):
        # eigendecomposition route to the same diagonal entry
        red = reduce_integer(
            Circuit(n_qubits=3, gates=(h(1), h(2), toffoli(1, 2, 0))), "000"
        )
        dense = red.dee.matrix.to_dense()
        decomp = eig_sym(dense)
        weights = decomp.eigenvectors[red.dee.j, :] ** 2
        lam_pow = decomp.eigenvalues**red.dee.m
        want = float(np.dot(weights, lam_pow))
        exact = power_diag_exact(red.dee.matrix, red.dee.j, red.dee.m)
        assert exact == pytest.approx(want, rel=1e-8)

    def test_long_clock_rejected(self):
        gates = tuple(h(i % 2) for i in range(5))
        with pytest.raises(ValueError):
            reduce_integer(Circuit(n_qubits=2, gates=gates), "00")

    def test_rotation_circuit_rejected(self):
        with pytest.raises(ValueError):
            reduce_integer(Circuit(n_qubits=1, gates=(rot(0, 0.5),)), "0")
