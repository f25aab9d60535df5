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

The three moment checks read one mechanism, `window_sums`: each atom's
`outcome_law` summed over a window of at most 2 WINDOW + 1 offsets, with no
2^p vector.  Since |z| <= 1, the law mass outside the window bounds how far
E[Z^m] can lie from the windowed sum, and each check adds it to its measured
value, so every measured value is an upper bound on the true one.  While
T/2 <= WINDOW (p <= 17) the window is the whole law and the sums are exact.
The phase-mass check, `phase_mass`, evaluates the law only on the slice of
that window within eta of the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dee.sparse import SparseSymmetricMatrix, from_coordinate_list, power_diag_exact
from dee.spectral import SpectralMeasure, eig_sym, induced_measure, signed_power
from dee.qpe import (
    QpeParams,
    analytic_backend,
    choose_params,
    eigenphase,
    estimate_from_outcomes,
    moment_of_distribution,
    outcome_law,
    outcomes_to_z,
    qpe_distribution_unitary,
    perturbed_unitary,
    sample_measurements,
)
# no check calls it; imported so the benchmark's tracer still resolves it (ROADMAP item 4)
from dee.qpe import qpe_distribution_analytic  # noqa: F401

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


# (m, eps) schedule at p = 12, 16, 18 and 18, so the battery sums both
# whole laws and windows narrower than the law
_BUDGETS = [(1, 1.0), (2, 0.5), (4, 0.5), (2, 0.25)]
_FAIL_PROB = 0.05

# half-width of the offset window `window_sums` evaluates each law over
WINDOW = 1 << 16


class WindowSums(NamedTuple):
    """Per atom, its law summed over the window of `window_sums`."""

    moment: np.ndarray  # S = sum of law * z^m
    tail: np.ndarray  # law mass outside the window, so |E[Z^m] - S| <= tail


def window_sums(values: np.ndarray, p: int, m: int, eta: float) -> WindowSums:
    """Each eigenvalue's `outcome_law`, evaluated once over the offsets
    |j| <= WINDOW around round(phi*T), or over all of [-T/2, T/2) when
    T/2 <= WINDOW, and the two sums the moment checks read from it.

    Atoms are taken one at a time in arrays allocated once per call (fresh
    ones per atom page-faulted enough to slow the battery by a third).
    """
    t = 1 << p
    half = min(t // 2, WINDOW)
    offsets = np.arange(-half, half) if half == t // 2 else np.arange(-half, half + 1)
    outcomes = np.empty_like(offsets)
    law, zm = np.empty(len(offsets)), np.empty(len(offsets))
    sums = np.empty((2, len(values)))
    for i, lam in enumerate(values):
        x0 = eigenphase(lam) * t
        centre = int(np.rint(x0))
        frac = x0 - centre
        outcome_law(frac, offsets, t, out=law)
        np.add(offsets, centre, out=outcomes)
        outcomes &= t - 1
        np.power(outcomes_to_z(outcomes, p, out=zm), m, out=zm)
        sums[:, i] = np.dot(law, zm), max(0.0, 1.0 - float(np.sum(law)))
    return WindowSums(*sums)


def phase_mass(values: np.ndarray, p: int, eta: float) -> np.ndarray:
    """Per eigenvalue, its law's mass at circular distance < eta from its phase.

    Outcome round(phi*T) + j lies within that distance iff |j - frac| < eta*T,
    so the law is evaluated only at the offsets |j| <= ceil(eta*T) of the
    `window_sums` window; past the window the mass is a lower bound.
    """
    t = 1 << p
    reach = min(math.ceil(eta * t), t // 2, WINDOW)
    offsets = np.arange(-reach, min(reach + 1, t // 2))
    law = np.empty(len(offsets))
    mass = np.empty(len(values))
    for i, lam in enumerate(values):
        x0 = eigenphase(lam) * t
        frac = x0 - int(np.rint(x0))
        outcome_law(frac, offsets, t, out=law)
        mass[i] = np.sum(law, where=np.abs(offsets - frac) < eta * t)
    return mass


def phase_mass_check(n_matrices: int = 20, seed: int = 20260819) -> BoundCheck:
    """Worst per-atom (1 - mass within eta) against theta."""
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0  # (1 - mass) / theta, so mixed budgets share one row
    for t in range(n_matrices):
        m, eps = _BUDGETS[t % len(_BUDGETS)]
        params = choose_params(m, eps, _FAIL_PROB)
        matrix = random_sparse_symmetric(rng, int(rng.integers(4, 17)))
        measure, _ = _normalized_measure(matrix, int(rng.integers(0, matrix.dim)))
        mass = phase_mass(measure.values, params.p, params.eta)
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
        sums = window_sums(measure.values, params.p, m, params.eta)
        powers = [signed_power(lam, m) for lam in measure.values]
        worst_ratio = max(worst_ratio, float(np.max(np.abs(sums.moment - powers) + sums.tail)) / bound)
    return _check("per-atom |E[Z^m] - lambda^m| vs 2 theta + 2 pi m eta (ratio)", 1.0, worst_ratio)


def _mixture_moment(measure: SpectralMeasure, params: QpeParams) -> tuple[float, float]:
    """(sum w S, sum w tail) over the atoms: E[Z^m] lies within the second of the first."""
    sums = window_sums(measure.values, params.p, params.m, params.eta)
    return float(np.dot(measure.weights, sums.moment)), float(np.dot(measure.weights, sums.tail))


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
        got, tail = _mixture_moment(measure, params)
        exact = power_diag_exact(matrix, j, m) / b**m
        worst_ratio = max(worst_ratio, (abs(got - exact) + tail) / (eps / 3.0))
    return _check("|E[Z^m] - (A^m)_jj / b^m| vs eps/3 (ratio)", 1.0, worst_ratio)


def sampling_check(trials: int = 50, seed: int = 20260822) -> BoundCheck:
    """Worst k-shot deviation |mean(z^m) - E[Z^m]| against eps/3.

    k is sized for failure probability 1e-4 per trial, so the whole battery
    violates the bound with probability under trials * 1e-4.
    """
    rng = np.random.default_rng(seed)
    m, eps = 2, 0.5
    params = choose_params(m, eps, 1e-4)
    worst_ratio = 0.0
    for t in range(trials):
        matrix = random_sparse_symmetric(rng, int(rng.integers(4, 13)))
        j = int(rng.integers(0, matrix.dim))
        b = matrix.norm_bound
        measure, _ = _normalized_measure(matrix, j)
        expected, tail = _mixture_moment(measure, params)
        psi = np.zeros(matrix.dim)
        psi[j] = 1.0
        outcomes = sample_measurements(matrix, b, psi, params, analytic_backend(), seed=(seed, t))
        got = estimate_from_outcomes(outcomes, params, 1.0)
        worst_ratio = max(worst_ratio, (abs(got - expected) + tail) / (eps / 3.0))
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
