"""The verification battery against full-vector recomputations."""

import gc
import weakref

import numpy as np
import pytest

import dee.verify
from dee.qpe import choose_params, eigenphase, moment_of_distribution, qpe_distribution_analytic
from dee.spectral import eig_sym, induced_measure, make_measure
from dee.verify import (
    _BUDGETS,
    _FAIL_PROB,
    WINDOW,
    phase_mass,
    phase_mass_check,
    random_sparse_symmetric,
    run_bound_checks,
    window_sums,
)


def _phase_mass_full_vector(n_matrices, seed):
    """phase_mass_check by masking each atom's whole 2^p distribution with
    the circular distance |a/T - phi| < eta, drawing the same matrices."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(n_matrices):
        m, eps = _BUDGETS[t % len(_BUDGETS)]
        params = choose_params(m, eps, _FAIL_PROB)
        big_t = 1 << params.p
        matrix = random_sparse_symmetric(rng, int(rng.integers(4, 17)))
        psi = np.zeros(matrix.dim)
        psi[int(rng.integers(0, matrix.dim))] = 1.0
        measure = induced_measure(eig_sym(matrix.to_dense() / matrix.norm_bound), psi)
        a_over_t = np.arange(big_t, dtype=np.float64) / big_t
        for lam, _ in measure.atoms:
            dist = qpe_distribution_analytic(make_measure([(lam, 1.0)]), params.p)
            dist_circ = np.abs(a_over_t - eigenphase(lam))
            dist_circ = np.minimum(dist_circ, 1.0 - dist_circ)
            mass = float(np.sum(dist[dist_circ < params.eta]))
            worst = max(worst, (1.0 - mass) / params.theta)
    return worst


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_phase_mass_window_matches_full_vector(seed):
    got = phase_mass_check(n_matrices=4, seed=seed).measured
    assert got == pytest.approx(_phase_mass_full_vector(4, seed), rel=0, abs=1e-12)


def _full_moment(lam, p, m):
    return moment_of_distribution(qpe_distribution_analytic(make_measure([(lam, 1.0)]), p), p, m)


# eigenvalues near 0 and +-1, where outcomes wrap around 0 and reach the
# dead zones, plus random ones
LAMBDAS = [0.0, 1e-9, -1e-9, 1.0, -1.0, 0.37, -0.81] + np.random.default_rng(5).uniform(-1, 1, 6).tolist()


@pytest.mark.parametrize("p", [8, 12, 16])
def test_whole_window_equals_full_vector_moment(p):
    assert (1 << p) // 2 <= WINDOW
    for lam in LAMBDAS:
        for m in (1, 2, 3, 4):
            sums = window_sums(np.array([lam]), p, m)
            assert sums.moment[0] == pytest.approx(_full_moment(lam, p, m), rel=0, abs=1e-12)
            assert sums.tail[0] < 1e-12


@pytest.mark.parametrize("p", [18, 20])
def test_narrow_window_brackets_full_vector_moment(p):
    """Past p = 17 the window covers part of the law; the full-vector moment
    lies within tail of S, up to the rounding of the two sums."""
    assert (1 << p) // 2 > WINDOW
    for lam in LAMBDAS[5:]:
        for m in (2, 3):
            sums = window_sums(np.array([lam]), p, m)
            assert sums.tail[0] > 0.0
            assert abs(_full_moment(lam, p, m) - sums.moment[0]) <= sums.tail[0] + 1e-14


def test_window_wrapping_zero_past_float_resolution():
    """At p = 54 the windows of eigenvalues near 0 hold outcome 2^p - 1."""
    values = np.array([0.0, 1e-13, -1e-13])
    sums = window_sums(values, 54, 2)
    assert np.all(np.abs(sums.moment) < 1e-20)
    assert np.all(phase_mass(values, 54, 1e-9) > 0.999) and np.all(sums.tail < 1e-5)


def test_bound_checks_build_no_distribution_vector(monkeypatch):
    """The battery passes with the 2^p distribution unavailable, every
    array the windowed checks build has at most 2 WINDOW + 1 entries, and
    none of them outlives the battery."""

    def refuse(*args, **kwargs):
        raise AssertionError("verify built a 2^p distribution")

    sizes, built = [], []

    def record(array):
        sizes.append(array.size)
        built.append(weakref.ref(array))
        return array

    def recorded_basis(j, t):
        table = basis(j, t)
        record(table.sin), record(table.cos)
        return table

    basis, law, decode = dee.verify.offset_basis, dee.verify.outcome_law, dee.verify.outcomes_to_z
    monkeypatch.setattr(dee.verify, "qpe_distribution_analytic", refuse)
    monkeypatch.setattr(dee.verify, "offset_basis", recorded_basis)
    monkeypatch.setattr(dee.verify, "outcome_law", lambda f, b, out: record(law(f, b, out)))
    monkeypatch.setattr(
        dee.verify, "outcomes_to_z", lambda a, p, out: sizes.append(a.size) or record(decode(a, p, out))
    )
    checks = run_bound_checks(n_matrices=4, trials=2)
    assert all(c.passed for c in checks)
    assert max(sizes) == 2 * WINDOW + 1  # the p = 18 budgets
    gc.collect()
    assert not [ref for ref in built if ref() is not None]


# atoms near 0 and +-1, a repeated atom (its window's outcome set is the
# last one's), and random ones
ATOMS = np.array([0.0, 1e-13, -1e-13, 1.0, -1.0, 0.37, 0.37, -0.81, 0.2, -0.55])


@pytest.mark.parametrize("p", [8, 16, 17, 18, 54, 62])
@pytest.mark.parametrize("m", [1, 2, 4, 2197])
def test_atoms_sharing_tables_do_not_interact(p, m):
    """A call over many atoms gives each the bits of a call over it alone."""
    together = window_sums(ATOMS, p, m)
    for i in range(len(ATOMS)):
        alone = window_sums(ATOMS[i : i + 1], p, m)
        assert together.moment[i] == alone.moment[0] and together.tail[i] == alone.tail[0]
    masses = phase_mass(ATOMS, p, 1e-3)
    assert np.array_equal(masses, [phase_mass(ATOMS[i : i + 1], p, 1e-3)[0] for i in range(len(ATOMS))])


@pytest.mark.parametrize("seed", [1, 2])
def test_battery_is_the_same_after_other_batteries(seed):
    """No table outlives a battery: a battery's checks are the same whatever ran before it."""
    first = run_bound_checks(n_matrices=4, trials=2, seed=seed)
    run_bound_checks(n_matrices=3, trials=1, seed=seed + 100)
    window_sums(ATOMS, 20, 3)
    phase_mass(ATOMS, 54, 1e-9)
    assert run_bound_checks(n_matrices=4, trials=2, seed=seed) == first
