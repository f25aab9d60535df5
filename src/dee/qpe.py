"""Phase-estimation measurement of a normalized symmetric observable.

Pipeline: normalize A by the instance's norm bound b, measure the observable
through p-bit phase estimation on U = exp(iA), map each p-bit outcome a to an
eigenvalue estimate z, average z^m over k independent shots, and rescale by
b^m.  Parameter budgets come from the accuracy target alone:

    p     = 2 * ceil(log2(48 m / eps))      phase register width
    theta = eps / 13                        per-shot phase failure chance
    eta   = eps / (13 pi m)                 per-shot phase accuracy
    k     = ceil(18 ln(2/fail_prob)/eps^2)  shots (Hoeffding)
    delta = eps / (3 * 2^(p+2))             tolerated error per exp(iA) call

Two interchangeable backends produce outcome samples: a statevector
simulation of the phase-estimation circuit (capped at 22 total qubits), and
an analytic sampler that draws from the exact outcome distribution

    Pr(a | phase phi) = sin^2(pi T d) / (T^2 sin^2(pi d)),  d = phi - a/T

of the eigen-atoms, as a table-plus-tail mixture that needs no 2^p-sized
vector and runs at any register width up to p = 62 (outcomes are int64).
`grid_position` is the one map from an eigenvalue to the grid, phi*T =
centre + frac, and `outcome_law` the one closed form of the law at the
offsets j from that centre.  It reads the offsets through their
`offset_basis`, T sin(pi j/T) and T cos(pi j/T), and reaches each phase by
angle addition, so the sines are paid once per set of offsets, not once
per phase: the full distribution evaluates it over the whole grid, the
sampler over |j| <= J = TABLE_HALF_WIDTH, and every moment and phase-mass
check of `dee.verify` over a window of offsets around each atom.

The sampler's mixture holds, per atom of weight w, one cell per offset
|j| <= J of mass w * law(j), and one tail cell of mass w * num / (2J),
num = sin^2(pi frac): the mass of the envelope num * e(j), e(j) =
1/(4i(i-1)) at i = |j|, over i > J, since 2 sum_{i>J} 1/(4i(i-1)) = 1/(2J).
The envelope dominates the law: for j in (-T/2, T/2] the circular grid
offset d = j - frac has |d| >= i - 1/2, and sin(pi x) >= 2x on [0, 1/2]
gives law = num / (T sin(pi d/T))^2 <= num / (2i-1)^2 < num * e(j), as
(2i-1)^2 = 4i(i-1) + 1.  A shot picks one cell by inverse CDF.  A table
cell is the outcome centre + j.  A tail cell proposes |j| > J from the
envelope and accepts it with chance law(j) / (num * e(j)); a rejected shot
is redrawn from the whole mixture.  Every accepted shot therefore lands on
offset j with chance proportional to w * law(j), exactly.  The tail's true
mass, 1 - sum of the table, never enters, so float noise in it cannot send
a shot into a tail it cannot leave.  Acceptance is bounded below for every
frac, num included: law / (num * e(j)) = 4i(i-1)/den^2 >= 4i(i-1) /
(pi^2 (i + 1/2)^2) > 0.38 for i > J, den = T sin(pi d/T), so every block
ends, even at frac = 1e-12.  At most num / (2J) <= 1.6% of shots reach a
tail cell.  When T/2 <= J the table is the whole grid: the cell at offset
-T/2, the outcome +T/2 already holds, and the tail cell get mass 0.
Shots are drawn in blocks of 4,096, each block from its own Philox stream
spawned from the seed, so the outcomes depend only on the seed and k.

The analytic sampler works on S, the rows within K steps of psi's support
(`sparse.reach`), K = max(ceil((m+1)/2), LANCZOS_MIN_STEPS): the first K
Krylov vectors live there, so nothing of size N is built.  Its eigen-atoms
come from a K-step Lanczos run from psi: the K-node Gauss rule of the
measure psi induces on A/b, or fewer nodes at Krylov exhaustion.  Its
moments 0..2K-1 >= m equal those of the induced measure, so the moment
guarantee is unchanged, but the outcomes follow the quadrature measure's
law, not that of the full spectrum.  When S has at most K rows, the search
has exhausted psi's components, the rule would be the induced measure
itself, and the sampler takes that measure from the dense eigensolve on S
instead, which costs far less than |S| reorthogonalised Lanczos steps.  The
|lambda| <= 1 refusal applies to the atoms sampled: past K rows to the
quadrature nodes, which lie strictly inside the spectrum, so a b below the
spectral norm passes whenever every node lies within it.  The estimate
still meets its guarantee then, since the nodes lie in [-1, 1] and the
moments through m are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dee.sparse import DeeDecision, DeeInstance, SparseSymmetricMatrix, decide, reach
from dee.spectral import SpectralMeasure, eig_sym, induced_measure, lanczos_tridiagonal

_TWO_PI = 2.0 * math.pi

STATEVECTOR = "statevector"
ANALYTIC = "analytic"

# largest statevector qubit cap: past it the 2^p x N register array outgrows memory
MAX_STATEVECTOR_QUBITS = 22

# the analytic sampler's largest array, its K x |S| Lanczos basis or its
# |S| x |S| dense matrix, holds at most MAX_DENSE_DIM**2 entries; the
# statevector budget (p >= 12, at most 22 qubits) already caps N at 1,024
MAX_DENSE_DIM = 4096

# floor on the analytic sampler's Lanczos steps K (module docstring): when psi
# reaches at most this many rows, the sampled law is the full spectrum's
LANCZOS_MIN_STEPS = 32


@dataclass(frozen=True)
class QpeParams:
    """Full parameter budget for one estimation run.

    The constructor re-derives every bound, so a hand-built instance cannot
    silently run outside the regime the error analysis covers.
    """

    m: int
    epsilon: float
    fail_prob: float
    p: int
    theta: float
    eta: float
    k: int
    delta: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"power m must be >= 1, got {self.m}")
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 0 < self.fail_prob < 1:
            raise ValueError(f"fail_prob must lie in (0, 1), got {self.fail_prob}")
        p_req = 2 * math.ceil(math.log2(48 * self.m / self.epsilon))
        if self.p != p_req:
            raise ValueError(f"p must be {p_req} for m={self.m}, eps={self.epsilon}, got {self.p}")
        if not 0 < self.theta < self.epsilon / 12:
            raise ValueError(f"theta={self.theta} not strictly inside (0, eps/12)")
        if not 0 < self.eta < self.epsilon / (12 * math.pi * self.m):
            raise ValueError(f"eta={self.eta} not strictly inside (0, eps/(12 pi m))")
        k_req = 18.0 * math.log(2.0 / self.fail_prob) / self.epsilon**2
        if self.k < k_req:
            raise ValueError(f"k={self.k} below the Hoeffding requirement {k_req}")
        if not 0 < self.delta <= self.epsilon / (3.0 * 2 ** (self.p + 2)):
            raise ValueError(f"delta={self.delta} exceeds eps/(3*2^(p+2))")


def choose_params(m: int, epsilon: float, fail_prob: float) -> QpeParams:
    """Smallest budget meeting accuracy eps*b^m with the given failure odds."""
    if m < 1:
        raise ValueError(f"power m must be >= 1, got {m}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0 < fail_prob < 1:
        raise ValueError(f"fail_prob must lie in (0, 1), got {fail_prob}")
    p = 2 * math.ceil(math.log2(48 * m / epsilon))
    return QpeParams(
        m=m,
        epsilon=epsilon,
        fail_prob=fail_prob,
        p=p,
        theta=epsilon / 13.0,
        eta=epsilon / (13.0 * math.pi * m),
        k=math.ceil(18.0 * math.log(2.0 / fail_prob) / epsilon**2),
        delta=epsilon / (3.0 * 2 ** (p + 2)),
    )


@dataclass(frozen=True)
class EstimatorBackend:
    variant: str
    max_qubits: int = MAX_STATEVECTOR_QUBITS

    def __post_init__(self) -> None:
        if self.variant not in (STATEVECTOR, ANALYTIC):
            raise ValueError(f"unknown backend variant {self.variant!r}")
        if not 1 <= self.max_qubits <= MAX_STATEVECTOR_QUBITS:
            raise ValueError(f"max_qubits must lie in 1..{MAX_STATEVECTOR_QUBITS}, got {self.max_qubits}")


def statevector_backend(max_qubits: int = MAX_STATEVECTOR_QUBITS) -> EstimatorBackend:
    return EstimatorBackend(variant=STATEVECTOR, max_qubits=max_qubits)


def analytic_backend() -> EstimatorBackend:
    return EstimatorBackend(variant=ANALYTIC)


def outcome_to_z(a: int, p: int) -> float:
    """`outcomes_to_z` of a single outcome."""
    return float(outcomes_to_z(np.array([a]), p)[0])


def outcomes_to_z(a_values: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """Map p-bit outcomes to eigenvalue estimates in [-1, 1].

    Outcomes near 0 (resp. 2^p) decode small positive (resp. negative)
    eigenvalues as 2 pi a / 2^p shifted into [-pi, pi); the dead zones where
    no eigenvalue of a normalized observable can land clip to +-1.  The
    estimates are decoded in place, in `out` if given, else in a new array.
    The range check reads the outcomes before the float cast, which past
    p = 53 rounds 2^p - 1 up to 2^p (decoded as 0).
    """
    a = np.asarray(a_values)
    if a.size and (a.min() < 0 or a.max() >= 1 << p):
        raise ValueError(f"outcome out of range for p={p}")
    t = float(1 << p)
    z = np.empty(a.shape) if out is None else out
    z[...] = a
    np.subtract(z, t, out=z, where=z >= t / 2)
    z *= _TWO_PI / t  # T is a power of 2, so this rounds as 2 pi z / T does
    return np.clip(z, -1.0, 1.0, out=z)


def eigenphase(lam: float | np.ndarray) -> float | np.ndarray:
    """Phase phi in [0, 1] with exp(i * lam) = exp(2 pi i phi), elementwise for arrays."""
    return (lam % _TWO_PI) / _TWO_PI


def grid_position(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(centre, frac) of each eigenvalue's phase on the 2^p outcome grid:
    phi*T = centre + frac, centre = round(phi*T) as int64 and |frac| <= 1/2.

    The one eigenvalue-to-grid map: `outcome_law` at frac and offset j is
    then the chance of outcome (centre + j) mod T.  Eigenvalues outside
    [-1, 1] are refused.
    """
    lam = np.asarray(values, dtype=np.float64)
    for bad in lam[np.abs(lam) > 1.0 + 1e-9][:1]:
        raise ValueError(f"eigenvalue {bad} outside [-1, 1]; b must dominate the spectral norm")
    x0 = eigenphase(lam) * float(1 << p)
    centre = np.rint(x0)
    return centre.astype(np.int64), x0 - centre


class OffsetBasis(NamedTuple):
    """T sin(pi j/T) and T cos(pi j/T) at grid offsets j of a 2^p grid."""

    t: int
    sin: np.ndarray
    cos: np.ndarray


def offset_basis(offsets: np.ndarray, t: int) -> OffsetBasis:
    """The basis `outcome_law` evaluates a law over, at the given offsets.

    Offsets must lie in [-T/2, T/2]: float sin(k pi) is not 0, so an offset
    of +-T would not give the exact point mass.  The two passes of sines
    here are the only ones a law over these offsets takes, however many
    phases are evaluated over them.
    """
    angle = np.multiply(offsets, np.pi / t)  # T is a power of 2, so this rounds as pi * j / T does
    sin = np.sin(angle)
    sin *= t
    cos = np.cos(angle, out=angle)
    cos *= t
    return OffsetBasis(t, sin, cos)


def outcome_law(frac: float | np.ndarray, basis: OffsetBasis, out: np.ndarray | None = None) -> np.ndarray:
    """Pr(round(phi*T) + j | phi) at the offsets j of `basis`, with
    frac = phi*T - round(phi*T).

    The phase-estimation law sin^2(pi T d) / (T^2 sin^2(pi d)) at d = phi - a/T
    (Cleve, Ekert, Macchiavello and Mosca 1998), written at the grid offset
    j - frac: num / (T sin(pi (j - frac)/T))^2 with num = sin^2(pi frac).
    The denominator comes by angle addition from the basis: with c and s
    the cosine and sine of pi frac/T, T sin(pi (j - frac)/T) =
    c (T sin(pi j/T) - T cos(pi j/T) s/c), so a phase costs a few multiply
    passes over the offsets and no sine of its own.  The law is at most 1,
    and the denominator vanishes only where the law is 1 (j = frac = 0, or
    j = 0 with sin(pi frac/T) underflowing): num/0 is inf or nan there, and
    the final fmin(law, 1) makes both 1.  frac and the basis broadcast.
    The law is computed in place in one array: `out` if given, else a new one.
    """
    angle = np.multiply(frac, np.pi / basis.t)
    c = np.cos(angle)
    law = np.multiply(basis.cos, -np.sin(angle) / c, out=out)
    law += basis.sin
    law *= law
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.sin(np.pi * frac) ** 2 / (c * c), law, out=law)
    return np.fmin(law, 1.0, out=law)


def qpe_distribution_analytic(measure: SpectralMeasure, p: int) -> np.ndarray:
    """Exact outcome distribution over all 2^p outcomes for a spectral measure.

    Tabulates `outcome_law` once per atom over every offset in [-T/2, T/2),
    so p is capped at 20 (8 MB per vector); the rejection sampler covers
    larger registers.
    """
    if p < 1:
        raise ValueError(f"register width p must be >= 1, got {p}")
    if p > 20:
        raise ValueError(f"p={p} needs a 2^{p}-entry vector; sample instead")
    t = 1 << p
    half = t // 2
    basis = offset_basis(np.arange(-half, half), t)
    out = np.zeros(t)
    for centre, frac, w in zip(*grid_position(measure.values, p), measure.weights):
        # offset j is outcome (centre + j) mod T, at index j + T/2
        out += np.roll(w * outcome_law(frac, basis), centre - half)
    return out


def _check_statevector_budget(dim: int, p: int, backend: EstimatorBackend) -> None:
    n_equiv = max(1, (dim - 1).bit_length())
    if p + n_equiv > backend.max_qubits:
        raise ValueError(
            f"statevector backend needs p + ceil(log2 N) = {p} + {n_equiv} qubits, "
            f"over the cap {backend.max_qubits}; use the analytic backend"
        )


def qpe_statevector(
    a_normalized: np.ndarray, psi: np.ndarray, p: int, max_qubits: int = MAX_STATEVECTOR_QUBITS
) -> np.ndarray:
    """Outcome distribution by simulating the phase-estimation circuit.

    Hadamards put the register in a uniform superposition (row c of the joint
    state holds psi / sqrt(T)), each controlled power multiplies the rows
    whose control bit is set by exp(iA)^(2^l), and the inverse Fourier
    transform over the register index is a length-T DFT.
    """
    _check_statevector_budget(len(a_normalized), p, statevector_backend(max_qubits))
    decomp = eig_sym(a_normalized)
    dim = len(decomp.eigenvalues)
    if float(np.max(np.abs(decomp.eigenvalues))) > 1.0 + 1e-9:
        raise ValueError("spectral norm exceeds 1; normalize by the norm bound first")
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (dim,):
        raise ValueError(f"state shape {psi.shape} does not match dimension {dim}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    t = 1 << p
    beta = decomp.eigenvectors.T @ psi  # eigenbasis coordinates; V is real
    coef = np.tile(beta / math.sqrt(t), (t, 1))
    reg = np.arange(t)
    for l in range(p):
        mask = (reg >> l) & 1 == 1
        coef[mask] *= np.exp(1j * float(2**l) * decomp.eigenvalues)
    state = np.fft.fft(coef, axis=0) / math.sqrt(t)  # inverse QFT on the register
    return np.sum(np.abs(state) ** 2, axis=1)


def qpe_distribution_unitary(u: np.ndarray, psi: np.ndarray, p: int) -> np.ndarray:
    """Same circuit for an arbitrary unitary, powers by repeated squaring.

    Used to measure how a perturbed exp(iA) call shifts the outcome
    distribution; the controlled powers apply U^(2^l) exactly, matching a
    circuit that repeats the controlled-U block.
    """
    u = np.asarray(u, dtype=np.complex128)
    dim = u.shape[0]
    if u.shape != (dim, dim):
        raise ValueError(f"unitary must be square, got {u.shape}")
    if not np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-9):
        raise ValueError("matrix is not unitary within 1e-9")
    _check_statevector_budget(dim, p, statevector_backend())
    psi = np.asarray(psi, dtype=np.complex128)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    t = 1 << p
    state = np.tile(psi / math.sqrt(t), (t, 1))
    reg = np.arange(t)
    upow = u
    for l in range(p):
        mask = (reg >> l) & 1 == 1
        state[mask] = state[mask] @ upow.T
        if l + 1 < p:
            upow = upow @ upow
    state = np.fft.fft(state, axis=0) / math.sqrt(t)
    return np.sum(np.abs(state) ** 2, axis=1)


def moment_of_distribution(probs: np.ndarray, p: int, m: int) -> float:
    """E[Z^m] under a distribution over all 2^p outcomes."""
    if probs.shape != (1 << p,):
        raise ValueError(f"distribution length {probs.shape} does not match p={p}")
    return float(np.dot(probs, outcomes_to_z(np.arange(1 << p), p) ** m))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# shots per block; each block draws from its own Philox stream
BLOCK_SHOTS = 4096

# widest register the sampler accepts: outcomes a* + j with a* <= 2^p and
# |j| <= 2^(p-1) must fit int64
MAX_SAMPLED_P = 62

# half-width J of the offset table each atom's law is tabulated over; the
# sampler's rejection runs only on the offsets |j| > J
TABLE_HALF_WIDTH = 32


def _envelope(j: np.ndarray) -> np.ndarray:
    """Tail envelope e(j) = 1/(4i(i-1)) at i = |j| >= 2 (1 at |j| <= 1): num * e
    dominates `outcome_law` with numerator num at every offset |j| >= 2."""
    i = np.abs(j)
    return 1.0 / np.maximum(4.0 * i * (i - 1.0), 1.0)


def _mixture_cdf(frac: np.ndarray, weights: np.ndarray, p: int) -> np.ndarray:
    """Normalised CDF over the sampler's cells, atom by atom: each atom's
    weighted `outcome_law` at the offsets -h..h, h = min(J, T/2), then its
    tail cell of mass w * num / (2J), num = sin^2(pi frac).

    When T/2 <= J the offsets are the whole grid: offset -T/2 is the same
    outcome as +T/2, so its cell and the tail cell get mass 0.
    """
    t = 1 << p
    h = min(TABLE_HALF_WIDTH, t // 2)
    w = weights[:, None]
    cells = np.empty((len(w), 2 * h + 2))
    outcome_law(frac[:, None], offset_basis(np.arange(-h, h + 1), t), out=cells[:, :-1])
    cells[:, :-1] *= w
    if h == t // 2:
        cells[:, 0] = 0.0
        cells[:, -1] = 0.0
    else:
        cells[:, -1:] = w * np.sin(np.pi * frac[:, None]) ** 2 / (2 * TABLE_HALF_WIDTH)
    cdf = np.cumsum(cells)
    cdf /= cdf[-1]
    return cdf


def _tail_offsets(frac: np.ndarray, t: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One proposal j per entry of frac from its tail envelope, and whether
    the rejection test accepts it.

    i = |j| has the closed-form inverse i = 1 + floor(J/U), U uniform on
    (0, 1]: Pr(i) = J/(i-1) - J/i, proportional to e(i) over i > J, and the
    sign is uniform.  Accept iff x * den^2 * e(j) <= 1, den = T sin(pi (j -
    frac)/T), x uniform: that is x * num * e(j) <= `outcome_law` at j
    with num cancelled.  Offsets outside (-T/2, T/2] have law 0 and are
    rejected.
    """
    u, s, x = gen.random((3, len(frac)))
    i = 1.0 + np.floor(TABLE_HALF_WIDTH / (1.0 - u))
    j = np.where(s < 0.5, i, -i)
    den = t * np.sin(np.pi * (j - frac) / t)
    keep = (j > -t / 2) & (j <= t / 2) & (x * den * den * _envelope(j) <= 1.0)
    return j.astype(np.int64), keep


def _draw_outcomes(
    centre: np.ndarray, frac: np.ndarray, cdf: np.ndarray, p: int, gen: np.random.Generator, n: int
) -> np.ndarray:
    """n outcomes a ~ sum_atoms w Pr(a | phi), exactly, given each atom's
    `grid_position` (centre, frac) and its cells' `_mixture_cdf`.

    One inverse-CDF draw per shot picks a cell.  A table cell is the
    outcome centre + j.  A tail cell proposes an offset by `_tail_offsets`;
    a rejected shot is redrawn from the whole mixture, until none is left.
    """
    t = 1 << p
    h = min(TABLE_HALF_WIDTH, t // 2)
    atom = np.empty(n, dtype=np.int64)
    offset = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        atom[pending], cell = np.divmod(_pick(cdf, pending.size, gen), 2 * h + 2)
        offset[pending] = cell - h
        pending = pending[cell == 2 * h + 1]
        j, keep = _tail_offsets(frac[atom[pending]], t, gen)
        offset[pending[keep]] = j[keep]
        pending = pending[~keep]
    return (centre[atom] + offset) % t


def _pick(cdf: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    """n inverse-CDF draws of an index into cdf."""
    return np.minimum(np.searchsorted(cdf, gen.random(n), side="right"), len(cdf) - 1)


def sample_measurements(
    matrix: SparseSymmetricMatrix,
    b: float,
    psi: np.ndarray,
    params: QpeParams,
    backend: EstimatorBackend | None = None,
    seed: int | tuple = 0,
) -> np.ndarray:
    """k independent phase-estimation outcomes for observable A/b in state psi.

    Shots are drawn in blocks of BLOCK_SHOTS, block i from the i-th Philox
    stream spawned from the seed, so the outcome array depends only on
    (seed, k): a block's outcomes do not depend on k.
    Registers wider than MAX_SAMPLED_P bits are refused before any draw.
    The analytic backend samples the Lanczos Gauss rule of the module
    docstring on the rows S psi reaches in K steps, building A densely only
    when S has at most K rows, and draws each block from the rule's
    table-plus-tail mixture (`_mixture_cdf`, `_draw_outcomes`).  It refuses
    a run whose Lanczos basis or dense matrix would pass MAX_DENSE_DIM**2
    entries before building either; the table then holds at most
    MAX_DENSE_DIM * (2J + 2) cells.  The statevector backend always builds
    A densely, after its qubit budget check.  Atoms of A/b outside [-1, 1]
    are refused: past K rows these are the rule's nodes, not the
    eigenvalues of A.
    """
    if backend is None:
        backend = analytic_backend()
    if params.p > MAX_SAMPLED_P:
        raise ValueError(
            f"register width p={params.p} exceeds the sampler limit p <= {MAX_SAMPLED_P} "
            "(outcomes must fit int64); use a larger epsilon or a smaller m"
        )
    if backend.variant == STATEVECTOR:
        _check_statevector_budget(matrix.dim, params.p, backend)
        cdf = np.cumsum(qpe_statevector(matrix.to_dense() / b, psi, params.p, backend.max_qubits))

        def draw_block(gen: np.random.Generator, n: int) -> np.ndarray:
            return _pick(cdf, n, gen)

    else:
        steps = max(params.m // 2 + 1, LANCZOS_MIN_STEPS)  # 2K - 1 >= m
        sub, rows = reach(matrix, np.flatnonzero(psi), steps)
        built = min(steps, sub.dim)  # rows of the Lanczos basis, or of the dense matrix
        if built * sub.dim > MAX_DENSE_DIM**2:
            raise ValueError(f"the sampler's {built} x {sub.dim} array exceeds {MAX_DENSE_DIM}^2 entries")
        if steps < sub.dim:
            tri = lanczos_tridiagonal(sub, psi[rows], steps)
            e_1 = np.zeros(len(tri))
            e_1[0] = 1.0
            measure = induced_measure(eig_sym(tri / b), e_1)
        else:  # K >= |S|: the rule would be the induced measure, cheaper densely
            measure = induced_measure(eig_sym(sub.to_dense() / b), psi[rows])
        centre, frac = grid_position(measure.values, params.p)
        cdf = _mixture_cdf(frac, measure.weights, params.p)

        def draw_block(gen: np.random.Generator, n: int) -> np.ndarray:
            return _draw_outcomes(centre, frac, cdf, params.p, gen, n)

    children = np.random.SeedSequence(seed).spawn(-(-params.k // BLOCK_SHOTS))
    out = np.empty(params.k, dtype=np.int64)
    for start, child in zip(range(0, params.k, BLOCK_SHOTS), children):
        n = min(BLOCK_SHOTS, params.k - start)
        out[start : start + n] = draw_block(np.random.Generator(np.random.Philox(child)), n)
    return out


def estimate_from_outcomes(a_values: np.ndarray, params: QpeParams, b: float) -> float:
    """mean(z^m) * b^m over the sampled outcomes (pairwise deterministic sum)."""
    z = outcomes_to_z(a_values, params.p)
    zm = z**params.m
    return float(np.sum(zm)) / len(a_values) * b**params.m


def estimate_diag(
    instance: DeeInstance,
    params: QpeParams,
    backend: EstimatorBackend | None = None,
    seed: int | tuple = 0,
) -> DeeDecision:
    """Estimate (A^m)_jj to accuracy eps*b^m and decide the side of g.

    With probability at least 1 - fail_prob the estimate is within eps*b^m
    of the true value, so on promise instances the decision is correct.
    """
    if params.m != instance.m or params.epsilon != instance.epsilon:
        raise ValueError(
            f"params (m={params.m}, eps={params.epsilon}) do not match instance "
            f"(m={instance.m}, eps={instance.epsilon})"
        )
    psi = np.zeros(instance.matrix.dim)
    psi[instance.j] = 1.0
    outcomes = sample_measurements(instance.matrix, instance.b, psi, params, backend, seed)
    return decide(estimate_from_outcomes(outcomes, params, instance.b), instance.g)


def estimate_offdiag(
    matrix: SparseSymmetricMatrix,
    i: int,
    j: int,
    m: int,
    params: QpeParams,
    backend: EstimatorBackend | None = None,
    seed: int | tuple = 0,
) -> float:
    """Estimate (A^m)_ij for i != j via the polarization identity.

    (A^m)_ij = (<psi+|A^m|psi+> - <psi-|A^m|psi->) / 2 with
    psi+- = (e_i +- e_j)/sqrt(2); each sub-estimate runs at accuracy eps/2
    so the combination lands within eps * b^m.
    """
    if i == j:
        raise ValueError("off-diagonal estimate needs i != j; use estimate_diag")
    if not (0 <= i < matrix.dim and 0 <= j < matrix.dim):
        raise ValueError(f"indices ({i}, {j}) out of range for dimension {matrix.dim}")
    if params.m != m:
        raise ValueError(f"params.m={params.m} does not match m={m}")
    sub = choose_params(m, params.epsilon / 2.0, params.fail_prob)
    b = matrix.norm_bound
    psi = np.zeros((2, matrix.dim))  # rows psi+ and psi-
    psi[:, i] = 1.0 / math.sqrt(2.0)
    psi[:, j] = psi[:, i] * (1.0, -1.0)
    base = seed if isinstance(seed, tuple) else (seed,)
    e_plus, e_minus = (
        estimate_from_outcomes(sample_measurements(matrix, b, psi[k], sub, backend, base + (k,)), sub, b)
        for k in (0, 1)
    )
    return (e_plus - e_minus) / 2.0


def perturbed_unitary(a_normalized: np.ndarray, delta: float, seed: int = 0) -> np.ndarray:
    """A unitary V at operator-norm distance exactly delta (minus one ulp of
    slack) from U = exp(iA), for exercising error-propagation bounds.

    V = U * exp(i * delta' * G) with G random symmetric of unit spectral
    norm; then ||V - U|| = ||exp(i delta' G) - I|| = 2 sin(delta'/2), and
    delta' is chosen so that value is delta*(1 - 1e-9).  The constructor
    verifies the distance by direct computation.
    """
    if not 0 <= delta <= 1:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    decomp = eig_sym(a_normalized)
    v = decomp.eigenvectors
    u = (v * np.exp(1j * decomp.eigenvalues)) @ v.T
    if delta == 0.0:
        return u
    dim = u.shape[0]
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    g = gen.standard_normal((dim, dim))
    g = (g + g.T) / 2.0
    g /= float(np.max(np.abs(np.linalg.eigvalsh(g))))
    dprime = 2.0 * math.asin(delta * (1.0 - 1e-9) / 2.0)
    gd = eig_sym(g)
    expg = (gd.eigenvectors * np.exp(1j * dprime * gd.eigenvalues)) @ gd.eigenvectors.T
    vp = u @ expg
    dist = float(np.linalg.norm(vp - u, 2))
    if not 0.0 < dist <= delta:
        raise ValueError(f"perturbation construction failed: ||V-U|| = {dist}, target {delta}")
    return vp
