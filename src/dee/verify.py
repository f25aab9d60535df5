"""Numerical verification battery for the estimator's error-analysis bounds.

Each check measures a worst case over randomized instances (fixed seeds, so
runs are reproducible) and compares it against the corresponding theoretical
bound:

  * phase mass: per eigen-atom, outcome mass within circular distance eta of
    the true eigenphase exceeds 1 - theta;
  * atom moment: per eigen-atom, |E[Z^m] - lambda^m| <= 2 theta + 2 pi m eta;
  * state moment: |E[Z^m] - (A^m)_jj / b^m| < eps/3 for the full mixture;
  * sampling: k-shot means stay within eps/3 of E[Z^m] (k sized for failure
    probability 1e-4, so a violation in a fixed-seed battery is a red flag);
  * perturbation: replacing exp(iA) by any V with ||V - U|| <= delta moves
    E[Z^m] by at most 2^(p+2) delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dee.sparse import SparseSymmetricMatrix, from_coordinate_list, power_diag_exact
from dee.spectral import SpectralMeasure, eig_sym, induced_measure, signed_power
from dee.qpe import (
    analytic_backend,
    choose_params,
    eigenphase,
    estimate_from_outcomes,
    moment_of_distribution,
    outcome_law,
    qpe_distribution_analytic,
    qpe_distribution_unitary,
    perturbed_unitary,
    sample_measurements,
    z_power_table,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BoundCheck:
    """One verified bound: passed iff measured <= bound."""

    name: str
    bound: float
    measured: float
    passed: bool


def _check(name: str, bound: float, measured: float) -> BoundCheck:
    return BoundCheck(name=name, bound=bound, measured=measured, passed=measured <= bound)


def random_sparse_symmetric(rng: np.random.Generator, n: int) -> SparseSymmetricMatrix:
    """Random symmetric matrix with a handful of entries per row, |values| <= 1."""
    entries: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for i in range(n):
        if rng.random() < 0.7:
            entries.append((i, i, float(rng.uniform(-1.0, 1.0))))
            seen.add((i, i))
    for _ in range(2 * n):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        key = (min(i, j), max(i, j))
        if i == j or key in seen:
            continue
        seen.add(key)
        entries.append((i, j, float(rng.uniform(-1.0, 1.0))))
    if not entries:
        entries.append((0, 0, 1.0))
    return from_coordinate_list(n, entries)


def _normalized_measure(
    matrix: SparseSymmetricMatrix, j: int
) -> tuple[SpectralMeasure, float]:
    b = matrix.norm_bound
    psi = np.zeros(matrix.dim)
    psi[j] = 1.0
    return induced_measure(eig_sym(matrix.to_dense() / b), psi), b

# (m, eps) schedule keeping p at or below 20 so full 2^p vectors stay cheap
_BUDGETS = [(1, 1.0), (2, 0.5), (4, 0.5), (2, 0.25)]
_FAIL_PROB = 0.05


def phase_mass_check(n_matrices: int = 20, seed: int = 20260819) -> BoundCheck:
    """Worst per-atom (1 - mass within eta) against theta.

    An outcome round(phi*T) + j lies within circular distance eta of phase
    phi iff |j - frac| < eta*T, so each atom's mass is `outcome_law` summed
    over the offsets |j| <= ceil(eta*T); no 2^p vector is built.
    """
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0  # (1 - mass) / theta, so mixed budgets share one row
    for t in range(n_matrices):
        m, eps = _BUDGETS[t % len(_BUDGETS)]
        params = choose_params(m, eps, _FAIL_PROB)
        big_t = 1 << params.p
        reach = params.eta * big_t
        matrix = random_sparse_symmetric(rng, int(rng.integers(4, 17)))
        measure, _ = _normalized_measure(matrix, int(rng.integers(0, matrix.dim)))
        x0 = eigenphase(measure.values)[:, None] * big_t
        frac = x0 - np.rint(x0)
        offsets = np.arange(-math.ceil(reach), math.ceil(reach) + 1)
        law = outcome_law(frac, offsets, big_t)
        mass = np.sum(law, axis=1, where=np.abs(offsets - frac) < reach)
        worst_ratio = max(worst_ratio, float(np.max(1.0 - mass)) / params.theta)
    return _check("phase mass outside eta vs theta (ratio)", 1.0, worst_ratio)


def atom_moment_check(n_matrices: int = 20, seed: int = 20260820) -> BoundCheck:
    """Worst per-atom |E[Z^m] - lambda^m| against 2 theta + 2 pi m eta."""
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    for t in range(n_matrices):
        m, eps = _BUDGETS[t % len(_BUDGETS)]
        params = choose_params(m, eps, _FAIL_PROB)
        bound = 2.0 * params.theta + _TWO_PI * m * params.eta
        matrix = random_sparse_symmetric(rng, int(rng.integers(4, 17)))
        measure, _ = _normalized_measure(matrix, int(rng.integers(0, matrix.dim)))
        zm = z_power_table(params.p, m)
        for lam, _w in measure.atoms:
            single = SpectralMeasure(atoms=((lam, 1.0),))
            got = float(np.dot(qpe_distribution_analytic(single, params.p), zm))
            worst_ratio = max(worst_ratio, abs(got - signed_power(lam, m)) / bound)
    return _check("per-atom |E[Z^m] - lambda^m| vs 2 theta + 2 pi m eta (ratio)", 1.0, worst_ratio)


def state_moment_check(n_matrices: int = 20, seed: int = 20260821) -> BoundCheck:
    """Worst |E[Z^m] - (A^m)_jj / b^m| against eps/3 over full mixtures."""
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    for t in range(n_matrices):
        m, eps = _BUDGETS[t % len(_BUDGETS)]
        params = choose_params(m, eps, _FAIL_PROB)
        matrix = random_sparse_symmetric(rng, int(rng.integers(4, 17)))
        j = int(rng.integers(0, matrix.dim))
        measure, b = _normalized_measure(matrix, j)
        dist = qpe_distribution_analytic(measure, params.p)
        got = moment_of_distribution(dist, params.p, m)
        exact = power_diag_exact(matrix, j, m) / b**m
        worst_ratio = max(worst_ratio, abs(got - exact) / (eps / 3.0))
    return _check("|E[Z^m] - (A^m)_jj / b^m| vs eps/3 (ratio)", 1.0, worst_ratio)


def sampling_check(trials: int = 50, seed: int = 20260822) -> BoundCheck:
    """Worst k-shot deviation |mean(z^m) - E[Z^m]| against eps/3.

    k is sized for failure probability 1e-4 per trial, so the whole battery
    violates the bound with probability under trials * 1e-4.
    """
    rng = np.random.default_rng(seed)
    m, eps = 2, 0.5
    params = choose_params(m, eps, 1e-4)
    zm = z_power_table(params.p, m)
    worst_ratio = 0.0
    for t in range(trials):
        matrix = random_sparse_symmetric(rng, int(rng.integers(4, 13)))
        j = int(rng.integers(0, matrix.dim))
        b = matrix.norm_bound
        measure, _ = _normalized_measure(matrix, j)
        expected = float(np.dot(qpe_distribution_analytic(measure, params.p), zm))
        psi = np.zeros(matrix.dim)
        psi[j] = 1.0
        outcomes = sample_measurements(
            matrix, b, psi, params, analytic_backend(), seed=(seed, t)
        )
        got = estimate_from_outcomes(outcomes, params, 1.0)
        worst_ratio = max(worst_ratio, abs(got - expected) / (eps / 3.0))
    return _check("sampled |mean - E[Z^m]| vs eps/3 (ratio)", 1.0, worst_ratio)


def perturbation_check(seed: int = 20260823) -> list[BoundCheck]:
    """Moment shift under a exp(iA) call of accuracy delta vs 2^(p+2) delta,
    for three deltas on three random matrices each, at p = 8 and m = 3."""
    rng = np.random.default_rng(seed)
    p, m = 8, 3
    out = []
    for delta in (1e-2, 1e-3, 1e-4):
        worst = 0.0
        for t in range(3):
            matrix = random_sparse_symmetric(rng, int(rng.integers(4, 9)))
            b = matrix.norm_bound
            dense = matrix.to_dense() / b
            psi = np.zeros(matrix.dim)
            psi[int(rng.integers(0, matrix.dim))] = 1.0
            decomp = eig_sym(dense)
            u = (decomp.eigenvectors * np.exp(1j * decomp.eigenvalues)) @ decomp.eigenvectors.T
            v = perturbed_unitary(dense, delta, seed=seed + 31 * t)
            dist_u = qpe_distribution_unitary(u, psi, p)
            dist_v = qpe_distribution_unitary(v, psi, p)
            shift = abs(
                moment_of_distribution(dist_u, p, m) - moment_of_distribution(dist_v, p, m)
            )
            worst = max(worst, shift)
        out.append(_check(f"moment shift at delta={delta} vs 2^(p+2) delta", 2 ** (p + 2) * delta, worst))
    return out


def run_bound_checks(
    n_matrices: int = 20, trials: int = 50, seed: int = 20260819
) -> list[BoundCheck]:
    checks = [
        phase_mass_check(n_matrices=n_matrices, seed=seed),
        atom_moment_check(n_matrices=n_matrices, seed=seed + 1),
        state_moment_check(n_matrices=n_matrices, seed=seed + 2),
        sampling_check(trials=trials, seed=seed + 3),
    ]
    checks.extend(perturbation_check(seed=seed + 4))
    return checks
