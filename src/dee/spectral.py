"""Exact spectral decompositions, Lanczos quadrature and induced spectral measures.

The estimator's ground truth: for a unit vector psi and symmetric A with
eigenpairs (lambda_i, v_i), the induced measure puts weight |<v_i, psi>|^2 on
lambda_i, and its m-th moment equals <psi|A^m|psi>.  Measures are finite atom
lists (eigenvalue, weight), sorted by descending eigenvalue.  A K-step
Lanczos run from psi gives, through the same two functions applied to its
K x K tridiagonal and e_1, a K-atom measure with the same moments 0..2K-1,
without forming A densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dee.sparse import SparseSymmetricMatrix, matvec

# atoms below this weight are dropped; small enough that totals stay
# within 1e-9 of 1 at desk-scale dimensions
WEIGHT_FLOOR = 1e-12

# eigenvalues closer than this times max|lambda| merge into one atom
MERGE_RTOL = 1e-8

# Lanczos stops once the residual norm is at most this times the norm bound;
# dropping a coupling beta moves an m-th moment by O(m^2 beta^2 b^(m-2)),
# far below eps * b^m for every register the sampler accepts
LANCZOS_BREAK_RTOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order; eigenvectors[:, i] pairs with eigenvalues[i]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite probability measure on the real line, atoms sorted descending."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        values = [v for v, _ in self.atoms]
        for v, w in self.atoms:
            if not (math.isfinite(v) and math.isfinite(w)):
                raise ValueError(f"non-finite atom ({v}, {w})")
            if w < 0:
                raise ValueError(f"negative weight {w} at eigenvalue {v}")
        if any(values[i] <= values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("atom eigenvalues must be strictly decreasing")
        total = math.fsum(w for _, w in self.atoms)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, not 1 within 1e-9")

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])


def make_measure(pairs: list[tuple[float, float]]) -> SpectralMeasure:
    """Sort, merge exact duplicates, drop negligible weights, validate."""
    acc: dict[float, float] = {}
    for v, w in pairs:
        acc[v] = acc.get(v, 0.0) + w
    atoms = tuple(
        sorted(((v, w) for v, w in acc.items() if w > WEIGHT_FLOOR), key=lambda t: -t[0])
    )
    return SpectralMeasure(atoms=atoms)


def eig_sym(a: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues descending.

    Raises ValueError on an asymmetric input or if the solver fails to
    converge; a silent wrong answer is never returned.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition did not converge: {exc}") from exc
    return EigenDecomposition(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def induced_measure(decomp: EigenDecomposition, psi: np.ndarray) -> SpectralMeasure:
    """Spectral measure of A in state psi: weight |<v_i, psi>|^2 at lambda_i.

    Nearby eigenvalues (gap <= MERGE_RTOL * max|lambda|) merge into one atom
    at their weight-averaged position, so numerically split degeneracies
    come back as a single atom.
    """
    psi = np.asarray(psi)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm is {norm}, not 1 within 1e-9")
    w = decomp.eigenvalues
    merge_tol = MERGE_RTOL * float(np.max(np.abs(w))) if w.size else 0.0
    weights = np.abs(decomp.eigenvectors.conj().T @ psi) ** 2
    atoms: list[tuple[float, float]] = []
    i = 0
    n = len(w)
    while i < n:
        k = i + 1
        while k < n and w[k - 1] - w[k] <= merge_tol:
            k += 1
        grp_w = float(np.sum(weights[i:k]))
        if grp_w > WEIGHT_FLOOR:
            atoms.append((float(np.dot(w[i:k], weights[i:k]) / grp_w), grp_w))
        i = k
    return SpectralMeasure(atoms=tuple(atoms))


def lanczos_tridiagonal(matrix: SparseSymmetricMatrix, psi: np.ndarray, steps: int) -> np.ndarray:
    """The K x K Lanczos tridiagonal T of `matrix` from the unit vector psi, K <= steps.

    Runs the three-term recurrence over `sparse.matvec`, with one full
    reorthogonalisation pass against every earlier Lanczos vector per step,
    and stops at `steps` or at Krylov exhaustion: a residual norm beta at or
    below LANCZOS_BREAK_RTOL times the norm bound (so K <= N).  The
    eigenvalues of T weighted by the squared first components of its
    eigenvectors are the K-node Gauss rule of the measure psi induces
    (Golub-Welsch): it matches moments 0..2K-1, its nodes lie in
    [lambda_min, lambda_max], and at exhaustion it is that measure.
    """
    if steps < 1:
        raise ValueError(f"Lanczos needs at least one step, got {steps}")
    psi = np.asarray(psi, dtype=np.float64)
    if psi.shape != (matrix.dim,):
        raise ValueError(f"state shape {psi.shape} does not match dimension {matrix.dim}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm is {norm}, not 1 within 1e-9")
    q = np.zeros((min(steps, matrix.dim), matrix.dim))
    q[0] = psi
    alpha: list[float] = []
    beta: list[float] = []
    for k in range(len(q)):
        w = matvec(matrix, q[k])
        if k:
            w -= beta[-1] * q[k - 1]
        alpha.append(float(np.dot(q[k], w)))
        w -= alpha[-1] * q[k]
        w -= q[: k + 1].T @ (q[: k + 1] @ w)
        b_k = float(np.linalg.norm(w))
        if k + 1 == len(q) or b_k <= LANCZOS_BREAK_RTOL * matrix.norm_bound:
            break
        beta.append(b_k)
        q[k + 1] = w / b_k
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


def signed_power(x: float, m: int) -> float:
    """x^m for integer m >= 0, stable for tiny |x| and large m.

    Goes through exp(m * log|x|) so x^m underflows gracefully to 0 instead
    of losing the sign, and |x| = 1 stays exactly 1.
    """
    if m == 0:
        return 1.0
    if x == 0.0:
        return 0.0
    sign = -1.0 if (x < 0 and m % 2 == 1) else 1.0
    ax = abs(x)
    if ax == 1.0:
        return sign
    return sign * math.exp(m * math.log(ax))


def moment(measure: SpectralMeasure, m: int) -> float:
    """m-th moment sum_i lambda_i^m * w_i with exact accumulation."""
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    return math.fsum(signed_power(v, m) * w for v, w in measure.atoms)
