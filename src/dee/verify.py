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

The four randomized checks draw their instances (budget, matrix, j and the
measure e_j induces on A/b) from one generator, each from its own seed.
They read one per-atom walk: each atom's `qpe.grid_position` and its
`outcome_law` over the offsets [-h, h] within [-T/2, T/2), so no array
has more than 2 WINDOW + 1 entries, whatever p.  The atoms of a check
share two tables: the offsets' `qpe.offset_basis`, from which each law
follows by angle addition without a sine of its own, and z^m over the
outcomes a window covers, decoded once per outcome set.  While the window
is the whole grid every atom covers the same set, so that is one T-entry
table per (p, m), which each atom reads rotated to its centre.  The
three moment checks take h = WINDOW (`window_sums`).  Since |z| <= 1, the
law mass outside the window bounds how far E[Z^m] can lie
from the windowed sum, and each check adds it to its measured value, so
every measured value is an upper bound on the true one.  While
T/2 <= WINDOW (p <= 17) the window is the whole law and the sums are exact.
The phase-mass check, `phase_mass`, takes h = ceil(eta T), the slice of
that window within eta of the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dee.sparse import SparseSymmetricMatrix, from_coordinate_arrays, power_diag_exact
from dee.spectral import SpectralMeasure, eig_sym, induced_measure, signed_power
from dee.qpe import (
    QpeParams,
    analytic_backend,
    choose_params,
    estimate_from_outcomes,
    grid_position,
    moment_of_distribution,
    offset_basis,
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
    """Random symmetric matrix with a handful of entries per row, |values| <= 1.

    Each diagonal entry is present with chance 0.7; 2n index pairs are drawn,
    and each off-diagonal pair keeps its first draw.
    """
    diag = np.flatnonzero(rng.random(n) < 0.7)
    pairs = np.sort(rng.integers(0, n, size=(2 * n, 2)), axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    first = np.sort(np.unique(pairs[:, 0] * n + pairs[:, 1], return_index=True)[1])
    i, j = pairs[first].T
    if not diag.size and not i.size:
        return from_coordinate_arrays(n, [0], [0], [1.0])
    dv, ov = rng.uniform(-1.0, 1.0, diag.size), rng.uniform(-1.0, 1.0, i.size)
    rows, cols = np.concatenate([diag, i, j]), np.concatenate([diag, j, i])
    return from_coordinate_arrays(n, rows, cols, np.concatenate([dv, ov, ov]))


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


class _WindowWalk:
    """The per-atom walk of one instance stream, and the two tables its
    atoms share: the `offset_basis` of the latest (p, window), and z^m over
    the latest outcome set a window covers.

    z^m depends on the outcome alone.  A window of h around each atom covers
    the outcomes (centre + j) mod T, j in [lo, hi] = [-h, h] cut to
    [-T/2, T/2), which is one set whatever the centre when it is the whole
    grid (T/2 <= h), and the atom's own set otherwise.  Each table is
    rebuilt only when its key changes, and the walk holds only the latest
    of each, so nothing outlives the check that made the walk.
    """

    def __init__(self) -> None:
        self._basis_key = self._z_key = self.basis = self.law = None
        self._zm = np.empty(0)

    def _window(self, p: int, h: int) -> tuple[int, int]:
        """(lo, hi), after fitting `basis` and the `law` buffer to the offsets [lo, hi]."""
        t = 1 << p
        lo, hi = max(-h, -(t // 2)), min(h, t // 2 - 1)
        if self._basis_key != (p, lo, hi):
            self.basis = self.law = None  # release the old tables before building the new
            self.basis = offset_basis(np.arange(lo, hi + 1, dtype=np.float64), t)
            self._basis_key, self.law = (p, lo, hi), np.empty(hi - lo + 1)
        return lo, hi

    def _z_power(self, p: int, m: int, start: int, count: int) -> np.ndarray:
        """z^m of the outcomes (start + i) mod T, i < count."""
        if self._z_key != (p, m, start, count):
            if len(self._zm) != count:
                self._zm = None  # release the old table before building the new
                self._zm = np.empty(count)
            outcomes = np.arange(start, start + count, dtype=np.int64)
            outcomes &= (1 << p) - 1
            np.power(outcomes_to_z(outcomes, p, out=self._zm), m, out=self._zm)
            self._z_key = (p, m, start, count)
        return self._zm

    def sums(self, values: np.ndarray, p: int, m: int) -> WindowSums:
        t = 1 << p
        lo, hi = self._window(p, WINDOW)
        count = hi - lo + 1
        centres, fracs = grid_position(values, p)
        sums = np.empty((2, len(values)))
        for i, (centre, frac) in enumerate(zip(centres.tolist(), fracs.tolist())):
            first = (centre + lo) % t  # the outcome at offset lo
            start = first if count < t else 0  # a whole-grid window covers one set
            z = self._z_power(p, m, start, count)
            law = outcome_law(frac, self.basis, out=self.law)
            r = first - start  # offset lo + k is outcome start + (r + k) mod count
            moment = np.dot(law[: count - r], z[r:]) + np.dot(law[count - r :], z[:r])
            sums[:, i] = moment, max(0.0, 1.0 - float(np.sum(law)))
        return WindowSums(*sums)

    def phase_mass(self, values: np.ndarray, p: int, eta: float) -> np.ndarray:
        t = 1 << p
        inside = eta * t
        lo, hi = self._window(p, min(math.ceil(inside), WINDOW))
        masses = []
        for frac in grid_position(values, p)[1].tolist():
            # the offsets j with |j - frac| < inside
            a, b = max(math.floor(frac - inside) + 1, lo), min(math.ceil(frac + inside) - 1, hi)
            masses.append(float(np.sum(outcome_law(frac, self.basis, out=self.law)[a - lo : b - lo + 1])))
        return np.array(masses)


def window_sums(values: np.ndarray, p: int, m: int) -> WindowSums:
    """The two sums the moment checks read from each eigenvalue's law over
    the offsets |j| <= WINDOW, or over all of [-T/2, T/2) when T/2 <= WINDOW."""
    return _WindowWalk().sums(values, p, m)


def phase_mass(values: np.ndarray, p: int, eta: float) -> np.ndarray:
    """Per eigenvalue, its law's mass at circular distance < eta from its phase.

    Outcome centre + j lies within that distance iff |j - frac| < eta*T, so
    the law is evaluated only at the offsets |j| <= ceil(eta*T), capped at
    the `window_sums` window; past the window the mass is a lower bound.
    """
    return _WindowWalk().phase_mass(values, p, eta)


def _instances(seed: int, count: int, budgets=_BUDGETS, fail_prob: float = _FAIL_PROB, max_dim: int = 16):
    """`count` random (params, matrix, j, measure) from one seeded stream:
    instance t runs at budget t mod len(budgets), on a random 4..max_dim-row
    matrix A and diagonal index j, with the measure e_j induces on A/b, b
    being A's norm bound."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        m, eps = budgets[t % len(budgets)]
        matrix = random_sparse_symmetric(rng, int(rng.integers(4, max_dim + 1)))
        j = int(rng.integers(0, matrix.dim))
        measure = induced_measure(eig_sym(matrix.to_dense() / matrix.norm_bound), np.eye(1, matrix.dim, j)[0])
        yield choose_params(m, eps, fail_prob), matrix, j, measure


def phase_mass_check(n_matrices: int = 20, seed: int = 20260819) -> BoundCheck:
    """Worst per-atom (1 - mass within eta) against theta."""
    worst_ratio = 0.0  # (1 - mass) / theta, so mixed budgets share one row
    walk = _WindowWalk()
    for params, _, _, measure in _instances(seed, n_matrices):
        mass = walk.phase_mass(measure.values, params.p, params.eta)
        worst_ratio = max(worst_ratio, float(np.max(1.0 - mass)) / params.theta)
    return _check("phase mass outside eta vs theta (ratio)", 1.0, worst_ratio)


def atom_moment_check(n_matrices: int = 20, seed: int = 20260820) -> BoundCheck:
    """Worst per-atom |E[Z^m] - lambda^m| against 2 theta + 2 pi m eta."""
    worst_ratio = 0.0
    walk = _WindowWalk()
    for params, _, _, measure in _instances(seed, n_matrices):
        bound = 2.0 * params.theta + _TWO_PI * params.m * params.eta
        sums = walk.sums(measure.values, params.p, params.m)
        powers = [signed_power(lam, params.m) for lam in measure.values]
        worst_ratio = max(worst_ratio, float(np.max(np.abs(sums.moment - powers) + sums.tail)) / bound)
    return _check("per-atom |E[Z^m] - lambda^m| vs 2 theta + 2 pi m eta (ratio)", 1.0, worst_ratio)


def _mixture_moment(walk: _WindowWalk, measure: SpectralMeasure, params: QpeParams) -> tuple[float, float]:
    """(sum w S, sum w tail) over the atoms: E[Z^m] lies within the second of the first."""
    sums = walk.sums(measure.values, params.p, params.m)
    return float(np.dot(measure.weights, sums.moment)), float(np.dot(measure.weights, sums.tail))


def state_moment_check(n_matrices: int = 20, seed: int = 20260821) -> BoundCheck:
    """Worst |E[Z^m] - (A^m)_jj / b^m| against eps/3 over full mixtures."""
    worst_ratio = 0.0
    walk = _WindowWalk()
    for params, matrix, j, measure in _instances(seed, n_matrices):
        got, tail = _mixture_moment(walk, measure, params)
        exact = power_diag_exact(matrix, j, params.m) / matrix.norm_bound**params.m
        worst_ratio = max(worst_ratio, (abs(got - exact) + tail) / (params.epsilon / 3.0))
    return _check("|E[Z^m] - (A^m)_jj / b^m| vs eps/3 (ratio)", 1.0, worst_ratio)


def sampling_check(trials: int = 50, seed: int = 20260822) -> BoundCheck:
    """Worst k-shot deviation |mean(z^m) - E[Z^m]| against eps/3.

    k is sized for failure probability 1e-4 per trial, so the whole battery
    violates the bound with probability under trials * 1e-4.
    """
    worst_ratio = 0.0
    walk = _WindowWalk()
    instances = _instances(seed, trials, budgets=[(2, 0.5)], fail_prob=1e-4, max_dim=12)
    for t, (params, matrix, j, measure) in enumerate(instances):
        expected, tail = _mixture_moment(walk, measure, params)
        b, psi = matrix.norm_bound, np.eye(1, matrix.dim, j)[0]
        outcomes = sample_measurements(matrix, b, psi, params, analytic_backend(), seed=(seed, t))
        got = estimate_from_outcomes(outcomes, params, 1.0)
        worst_ratio = max(worst_ratio, (abs(got - expected) + tail) / (params.epsilon / 3.0))
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
