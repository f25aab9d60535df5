"""The verification battery against full-vector recomputations."""

import numpy as np
import pytest

from dee.qpe import choose_params, eigenphase, qpe_distribution_analytic
from dee.spectral import eig_sym, induced_measure, make_measure
from dee.verify import _BUDGETS, _FAIL_PROB, phase_mass_check, random_sparse_symmetric


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
