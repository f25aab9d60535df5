"""Exact spectral decompositions and induced spectral measures.

The estimator's ground truth: for a unit vector psi and symmetric A with
eigenpairs (lambda_i, v_i), the induced measure puts weight |<v_i, psi>|^2 on
lambda_i, and its m-th moment equals <psi|A^m|psi>.  Measures are finite atom
lists (eigenvalue, weight), sorted by descending eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# atoms below this weight are dropped; small enough that totals stay
# within 1e-9 of 1 at desk-scale dimensions
WEIGHT_FLOOR = 1e-12

# eigenvalues closer than this times max|lambda| merge into one atom
MERGE_RTOL = 1e-8


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


def measure_to_csv(measure: SpectralMeasure) -> str:
    lines = ["eigenvalue,weight"]
    for v, w in measure.atoms:
        lines.append(f"{v!r},{w!r}")
    return "\n".join(lines) + "\n"


def parse_measure_csv(text: str) -> SpectralMeasure:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "eigenvalue,weight":
        raise ValueError("measure csv must start with header 'eigenvalue,weight'")
    pairs = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'eigenvalue,weight', got {line!r}")
        pairs.append((float(parts[0]), float(parts[1])))
    return make_measure(pairs)
