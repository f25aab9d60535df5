"""Eigendecompositions, induced spectral measures, and moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dee.circuits import Circuit, cnot, h, rot, toffoli, x, z
from dee.gateset import reduce_integer
from dee.hardness import reduce
from dee.qpe import LANCZOS_MIN_STEPS
from dee.sparse import from_coordinate_list, power_diag_exact
from dee.spectral import (
    SpectralMeasure,
    eig_sym,
    induced_measure,
    lanczos_tridiagonal,
    make_measure,
    moment,
    signed_power,
)

from conftest import random_sparse_matrix


class TestEigSym:
    def test_diagonal_matrix(self):
        d = eig_sym(np.diag([3.0, 1.0]))
        assert np.allclose(d.eigenvalues, [3.0, 1.0])

    def test_descending_order(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 10))
            a = random_sparse_matrix(rng, n).to_dense()
            d = eig_sym(a)
            assert all(
                d.eigenvalues[i] >= d.eigenvalues[i + 1] for i in range(n - 1)
            )

    def test_reconstruction(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 12))
            a = random_sparse_matrix(rng, n).to_dense()
            d = eig_sym(a)
            back = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.T
            assert np.allclose(back, a, atol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eig_sym(np.zeros((2, 3)))


class TestInducedMeasure:
    def test_basis_state_on_diagonal_matrix(self):
        d = eig_sym(np.diag([2.0, 1.0]))
        mu = induced_measure(d, np.array([1.0, 0.0]))
        assert mu.atoms == ((2.0, 1.0),)

    def test_swap_matrix_uniform_state(self):
        # (|0> + |1>)/sqrt(2) is the +1 eigenvector of the swap matrix, so
        # all weight sits on eigenvalue +1.
        d = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        mu = induced_measure(d, np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert len(mu.atoms) == 1
        lam, w = mu.atoms[0]
        assert abs(lam - 1.0) < 1e-12
        assert abs(w - 1.0) < 1e-12

    def test_degenerate_eigenvalues_merge(self):
        d = eig_sym(np.eye(4))
        mu = induced_measure(d, np.array([0.5, 0.5, 0.5, 0.5]))
        assert len(mu.atoms) == 1
        assert mu.atoms[0][0] == pytest.approx(1.0)
        assert mu.atoms[0][1] == pytest.approx(1.0)

    def test_weights_sum_to_one(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 12))
            a = random_sparse_matrix(rng, n).to_dense()
            psi = rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            mu = induced_measure(eig_sym(a), psi)
            assert abs(math.fsum(w for _, w in mu.atoms) - 1.0) < 1e-9

    def test_non_unit_state_rejected(self):
        d = eig_sym(np.eye(2))
        with pytest.raises(ValueError):
            induced_measure(d, np.array([1.0, 1.0]))

    def test_moment_identity_against_power_oracle(self, rng):
        # sum of lambda^m * weight at basis state e_j equals (A^m)_jj.
        for _ in range(25):
            n = int(rng.integers(1, 10))
            a = random_sparse_matrix(rng, n).to_dense()
            j = int(rng.integers(0, n))
            m = int(rng.integers(1, 9))
            psi = np.zeros(n)
            psi[j] = 1.0
            mu = induced_measure(eig_sym(a), psi)
            want = float(np.linalg.matrix_power(a, m)[j, j])
            assert moment(mu, m) == pytest.approx(want, abs=1e-10, rel=1e-10)


class TestMeasureValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SpectralMeasure(atoms=((1.0, 1.5), (0.0, -0.5)))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            SpectralMeasure(atoms=((0.0, 0.5), (1.0, 0.5)))

    def test_wrong_total_mass_rejected(self):
        with pytest.raises(ValueError):
            SpectralMeasure(atoms=((1.0, 0.7),))

    def test_make_measure_merges_duplicates(self):
        mu = make_measure([(0.5, 0.25), (0.5, 0.25), (-0.5, 0.5)])
        assert mu.atoms == ((0.5, 0.5), (-0.5, 0.5))


class TestMoment:
    def test_rademacher_moments(self):
        mu = make_measure([(1.0, 0.5), (-1.0, 0.5)])
        assert moment(mu, 3) == 0.0
        assert moment(mu, 4) == 1.0

    def test_point_mass(self):
        mu = make_measure([(0.5, 1.0)])
        assert moment(mu, 3) == pytest.approx(0.125, rel=1e-15)


class TestSignedPower:
    def test_exact_special_cases(self):
        assert signed_power(0.0, 5) == 0.0
        assert signed_power(1.0, 7) == 1.0
        assert signed_power(-1.0, 7) == -1.0
        assert signed_power(-1.0, 8) == 1.0

    def test_matches_builtin_power(self, rng):
        for _ in range(200):
            x = float(rng.uniform(-1.0, 1.0))
            m = int(rng.integers(1, 30))
            assert signed_power(x, m) == pytest.approx(x**m, rel=1e-12, abs=1e-300)

    def test_sign_of_odd_powers(self):
        assert signed_power(-0.3, 3) < 0.0
        assert signed_power(-0.3, 4) > 0.0


def gauss_rule(matrix, psi, steps):
    """(K, the K-node Gauss rule) as the analytic sampler builds it, before scaling by b."""
    tri = lanczos_tridiagonal(matrix, psi, steps)
    e_1 = np.zeros(len(tri))
    e_1[0] = 1.0
    return len(tri), induced_measure(eig_sym(tri), e_1)


def basis(n, j):
    psi = np.zeros(n)
    psi[j] = 1.0
    return psi


def assert_moments_exact(matrix, j, steps, b):
    """Moments 0..2K-1 of the rule from e_j match the power oracle to 1e-12 b^m."""
    k, rule = gauss_rule(matrix, basis(matrix.dim, j), steps)
    for m in range(2 * k):
        assert abs(moment(rule, m) - power_diag_exact(matrix, j, m)) <= 1e-12 * b**m


class TestLanczosRule:
    def test_moments_match_power_oracle(self, rng):
        for _ in range(12):
            a = random_sparse_matrix(rng, int(rng.integers(1, 201)))
            j = int(rng.integers(0, a.dim))
            assert_moments_exact(a, j, int(rng.integers(1, 13)), a.norm_bound)

    @pytest.mark.parametrize(
        "reducer, gates",
        [
            (reduce, (h(0),)),
            (reduce, (h(0), x(1))),
            (reduce, (h(1), z(0))),
            (reduce, (h(0), cnot(0, 1))),
            (reduce, (h(0), h(1), toffoli(0, 1, 2))),
            (reduce, (rot(0, 0.7),)),
            (reduce_integer, (h(1), h(2), toffoli(1, 2, 0))),
        ],
        ids=["H", "X", "Z", "CNOT", "TOFF", "ROT", "integer"],
    )
    def test_moments_on_clock_reductions(self, reducer, gates):
        dee = reducer(Circuit(n_qubits=3, gates=gates), "000").dee
        assert_moments_exact(dee.matrix, dee.j, 4, dee.b)
        # at the instance's own power, with the sampler's step rule
        steps = max(math.ceil((dee.m + 1) / 2), LANCZOS_MIN_STEPS)
        _, rule = gauss_rule(dee.matrix, basis(dee.matrix.dim, dee.j), steps)
        assert abs(moment(rule, dee.m) - power_diag_exact(dee.matrix, dee.j, dee.m)) <= 1e-12 * dee.b**dee.m

    def test_exhaustion_gives_the_induced_measure(self, rng):
        sizes = [1, 2, 3, LANCZOS_MIN_STEPS] + [int(n) for n in rng.integers(4, LANCZOS_MIN_STEPS, size=16)]
        for n in sizes:
            a = random_sparse_matrix(rng, n)
            psi = basis(n, int(rng.integers(0, n))) if n % 2 else rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            _, rule = gauss_rule(a, psi, LANCZOS_MIN_STEPS)
            want = induced_measure(eig_sym(a.to_dense()), psi)
            assert len(rule.atoms) == len(want.atoms)
            assert np.allclose(rule.values, want.values, rtol=0.0, atol=1e-12)
            assert np.allclose(rule.weights, want.weights, rtol=0.0, atol=1e-12)

    def test_exhaustion_stops_at_the_support_size(self):
        # the triangle from a vertex sees eigenvalues 2 and -1 only
        a = from_coordinate_list(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert lanczos_tridiagonal(a, basis(3, 0), LANCZOS_MIN_STEPS).shape == (2, 2)
        assert lanczos_tridiagonal(a, np.ones(3) / math.sqrt(3.0), LANCZOS_MIN_STEPS).shape == (1, 1)

    def test_nodes_lie_inside_the_spectrum(self, rng):
        for _ in range(12):
            a = random_sparse_matrix(rng, int(rng.integers(1, 201)))
            lam = np.linalg.eigvalsh(a.to_dense())
            tri = lanczos_tridiagonal(a, basis(a.dim, int(rng.integers(0, a.dim))), int(rng.integers(1, 40)))
            nodes = np.linalg.eigvalsh(tri)
            slack = 1e-12 * a.norm_bound
            assert lam[0] - slack <= nodes[0] and nodes[-1] <= lam[-1] + slack

    def test_bad_arguments_rejected(self):
        a = from_coordinate_list(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            lanczos_tridiagonal(a, basis(2, 0), 0)
        with pytest.raises(ValueError):
            lanczos_tridiagonal(a, np.ones(2), 4)
        with pytest.raises(ValueError):
            lanczos_tridiagonal(a, basis(3, 0), 4)


entry_values = st.one_of(
    st.integers(-4, 4).map(lambda k: k / 4.0),  # exact degeneracies
    st.floats(-1.0, 1.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3),
)


@st.composite
def matrices_and_states(draw):
    """(matrix, unit psi): psi is a basis state, (e_i +- e_j)/sqrt(2) or a random unit vector."""
    n = draw(st.integers(1, 10))
    index = st.integers(0, n - 1)
    entries = {}
    for i, j, v in draw(st.lists(st.tuples(index, index, entry_values), min_size=1, max_size=20)):
        entries.setdefault((min(i, j), max(i, j)), v)
    a = from_coordinate_list(n, [(i, j, v) for (i, j), v in entries.items()])
    i, j = draw(index), draw(index)
    psi = basis(n, i)
    kind = draw(st.sampled_from(["basis", "plus", "minus", "random"]))
    if kind in ("plus", "minus") and i != j:
        psi[j] = 1.0 if kind == "plus" else -1.0
    elif kind == "random":
        psi = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        if np.linalg.norm(psi) < 1e-3:
            psi = basis(n, i)
    return a, psi / np.linalg.norm(psi), draw(st.integers(1, n + 2))


@settings(max_examples=150, deadline=None)
@given(matrices_and_states())
def test_gauss_rule_matches_moments_inside_the_spectrum(case):
    a, psi, steps = case
    k, rule = gauss_rule(a, psi, steps)
    dense = a.to_dense()
    b = a.norm_bound
    power = np.eye(a.dim)
    for m in range(2 * k):
        assert abs(moment(rule, m) - psi @ power @ psi) <= 1e-12 * b**m
        power = power @ dense
    lam = np.linalg.eigvalsh(dense)
    assert lam[0] - 1e-12 * b <= rule.values[-1] and rule.values[0] <= lam[-1] + 1e-12 * b
