"""Circuit-to-observable reduction: acceptance probability as a diagonal entry.

Given a circuit y and input x, the mirror circuit u = y, Z(0), y^(-1) is an
involution whose expectation <x,0|u|x,0> equals 1 - 2*p_accept.  Interleaving
its M gates around an M-cycle gives the clock unitary

    W = sum_l |l+1 mod M><l| (x) U_l        on C^M (x) C^(2^n),

and the observable A = (W + W^dagger)/2 is symmetric with at most 4 nonzeros
per row, norm at most 1, and entries computable row-by-row from two gates.
In the state |s_x> = |0>|x,0> the spectral measure of A is an explicit
mixture: weight 1 - |alpha_1|^2 on the measure P0 supported on cos(2 pi l/M)
and |alpha_1|^2 on P1 supported on cos(pi (2l+1)/M), where |alpha_1|^2 is the
squared projection of |s_x> onto the W^M = -1 sector, equal to p_accept for
mirror circuits.  For odd M and odd m the two measures' m-th moments satisfy
E1 = -E0 with E0 > 3/(4M), so at m = M^3 the sign of

    (A^m)_jj = (1 - 2 |alpha_1|^2) * E0

separates acceptance probability >= 2/3 from <= 1/3 with threshold margin
1/(4M): instances use g = 0, eps = 1/(4M), b = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dee.circuits import (
    Circuit,
    Gate,
    accept_probability,
    apply_circuit,
    basis_index,
    build_mirror_circuit,
    gate_row_entries,
    gate_unitary,
    _bits,
)
from dee.sparse import DeeInstance, SparseSymmetricMatrix, check_dim, from_coordinate_arrays, reach
from dee.spectral import (
    SpectralMeasure,
    eig_sym,
    induced_measure,
    make_measure,
    moment,
)


@dataclass(frozen=True)
class ClockOperator:
    """M gates on n qubits arranged around an M-cycle; M odd.

    Basis index r = l * 2^n + u combines clock position l and system state u.
    """

    gates: tuple[Gate, ...]
    n_qubits: int

    def __post_init__(self) -> None:
        if len(self.gates) % 2 == 0:
            raise ValueError(f"clock length must be odd, got {len(self.gates)}")
        if self.n_qubits < 1:
            raise ValueError("clock needs at least 1 system qubit")
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValueError(f"gate on qubit {max(g.qubits)} exceeds {self.n_qubits} qubits")

    @property
    def n_positions(self) -> int:
        return len(self.gates)

    @property
    def system_dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def dim(self) -> int:
        return self.n_positions * self.system_dim

    def flat_index(self, position: int, system: int) -> int:
        return position * self.system_dim + system


@dataclass(frozen=True)
class HardnessInstance:
    """Output of both reductions: the decision instance plus what it encodes."""

    dee: DeeInstance
    alpha1_sq: float
    n_positions: int


def build_clock_operator(circuit: Circuit) -> ClockOperator:
    """Wrap a circuit's gate list (odd length) around the clock cycle."""
    if not circuit.gates:
        raise ValueError("clock needs at least one gate")
    return ClockOperator(gates=circuit.gates, n_qubits=circuit.n_qubits)


def clock_unitary_dense(clock: ClockOperator) -> np.ndarray:
    """Dense W = sum_l |l+1 mod M><l| (x) U_l, for oracle comparisons."""
    m_pos = clock.n_positions
    nd = clock.system_dim
    w = np.zeros((clock.dim, clock.dim))
    for l, g in enumerate(clock.gates):
        block = gate_unitary(g, clock.n_qubits)
        dst = (l + 1) % m_pos
        w[dst * nd : (dst + 1) * nd, l * nd : (l + 1) * nd] = block
    return w


def assemble_clock(blocks, n_qubits: int, weight: float, norm_bound: float) -> SparseSymmetricMatrix:
    """weight * (W + W^T) for the clock W = sum_l |l+1 mod M><l| (x) B_l.

    One row oracle serves every block, plain or fused: `gate_row_entries`
    with u = arange(2^n) gives the slot arrays (cols, vals) of every row of
    block l at once.  Row u lands at row (l+1)*2^n + u, column l*2^n + v of
    W, and mirrored in W^T.  Entries that meet at one position (the slots of
    one fused row, or W and W^T when M = 1) are summed, and zeros are
    dropped.  A clock past MAX_DIM rows is refused before anything is
    allocated.
    """
    m_pos = len(blocks)
    check_dim(m_pos, n_qubits)
    nd = 1 << n_qubits
    dim = m_pos * nd
    u = np.arange(nd)
    rows, cols, vals = [], [], []
    for l, block in enumerate(blocks):
        block_cols, block_vals = gate_row_entries(block, u, n_qubits)
        rows.append(np.broadcast_to((l + 1) % m_pos * nd + u, block_cols.shape).ravel())
        cols.append((l * nd + block_cols).ravel())
        vals.append(block_vals.ravel())
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    keys, where = np.unique(np.concatenate([rows * dim + cols, cols * dim + rows]), return_inverse=True)
    summed = np.zeros(keys.size)
    np.add.at(summed, where, weight * np.concatenate([vals, vals]))
    return from_coordinate_arrays(dim, keys // dim, keys % dim, summed, norm_bound)


def build_observable(clock: ClockOperator) -> SparseSymmetricMatrix:
    """A = (W + W^T)/2 from the gates' row oracles; norm bound 1 because W is unitary.

    Block (l, l-1) of A is U_{l-1}/2 and block (l, l+1) is U_l^T/2, so row
    l*2^n + u holds row u of gate l-1 and column u of gate l.  Each gate
    contributes at most 2 nonzeros, hence at most 4 per row.
    """
    return assemble_clock(clock.gates, clock.n_qubits, 0.5, 1.0)


def symmetric_overlap(clock: ClockOperator, xs: str | list[int] | tuple[int, ...]) -> float:
    """(1 + <x,0| U_{M-1} ... U_0 |x,0>) / 2, the W^M = +1 sector weight.

    For a mirror circuit the round-trip product is the mirror itself and the
    value is 1 - p_accept(x).
    """
    bits = _bits(xs)
    if len(bits) > clock.n_qubits:
        raise ValueError(f"{len(bits)} input bits exceed {clock.n_qubits} qubits")
    idx = basis_index(bits)
    state = np.zeros(clock.system_dim)
    state[idx] = 1.0
    out = apply_circuit(Circuit(clock.n_qubits, clock.gates), state)
    return 0.5 * (1.0 + float(np.real(out[idx])))


def cycle_phase_measure(n_positions: int, twisted: bool) -> SpectralMeasure:
    """Spectral measure of the real part of an M-cycle shift, in a uniform state.

    Untwisted: atoms cos(2 pi l / M), weight 1/M at l = 0 (and at 2l = M when
    M is even), 2/M otherwise.  Twisted (a -1 sign somewhere on the cycle):
    atoms cos(pi (2l+1) / M), weight 1/M when 2l + 1 = M, 2/M otherwise.
    """
    m_pos = n_positions
    if m_pos < 1:
        raise ValueError(f"cycle length must be >= 1, got {m_pos}")
    pairs: list[tuple[float, float]] = []
    if twisted:
        for l in range(0, (m_pos + 1) // 2):
            lam = math.cos(math.pi * (2 * l + 1) / m_pos)
            weight = 1.0 / m_pos if 2 * l + 1 == m_pos else 2.0 / m_pos
            pairs.append((lam, weight))
    else:
        for l in range(0, m_pos // 2 + 1):
            lam = math.cos(2.0 * math.pi * l / m_pos)
            weight = 1.0 / m_pos if (l == 0 or 2 * l == m_pos) else 2.0 / m_pos
            pairs.append((lam, weight))
    return make_measure(pairs)


def reference_measure(n_positions: int, alpha1_sq: float) -> SpectralMeasure:
    """Mixture (1 - |alpha_1|^2) P0 + |alpha_1|^2 P1 for an odd-length clock."""
    if n_positions % 2 == 0:
        raise ValueError(f"reference measure needs odd clock length, got {n_positions}")
    if not 0.0 <= alpha1_sq <= 1.0:
        raise ValueError(f"alpha1_sq must lie in [0, 1], got {alpha1_sq}")
    pairs: list[tuple[float, float]] = []
    for lam, w in cycle_phase_measure(n_positions, twisted=False).atoms:
        pairs.append((lam, (1.0 - alpha1_sq) * w))
    for lam, w in cycle_phase_measure(n_positions, twisted=True).atoms:
        pairs.append((lam, alpha1_sq * w))
    return make_measure(pairs)


def moment_separation(n_positions: int, m: int) -> tuple[float, float]:
    """(E0, E1): m-th moments of the untwisted and twisted cycle measures.

    For odd clock length and odd m the spectra are antisymmetric images of
    each other, so E1 = -E0; that identity is asserted to 1e-12.
    """
    e0 = moment(cycle_phase_measure(n_positions, twisted=False), m)
    e1 = moment(cycle_phase_measure(n_positions, twisted=True), m)
    if n_positions % 2 == 1 and m % 2 == 1 and abs(e0 + e1) > 1e-12:
        raise AssertionError(f"E1 = -E0 violated: E0={e0}, E1={e1}")
    return e0, e1


def separation_floor(n_positions: int) -> float:
    """The guaranteed lower bound 3/(4M) on E0 at m = M^3 for odd M."""
    return 3.0 / (4.0 * n_positions)


def reduce(y: Circuit, xs: str | list[int] | tuple[int, ...]) -> HardnessInstance:
    """Turn (circuit, input) into a diagonal-entry decision instance.

    The mirror of y becomes a clock observable A with
    (A^(M^3))_jj = (1 - 2 p_accept) * E0 at j = index of |0>|x,0>, so
    deciding the sign against eps = 1/(4M) decides acceptance.
    """
    bits = _bits(xs)
    if len(bits) > y.n_qubits:
        raise ValueError(f"{len(bits)} input bits exceed {y.n_qubits} circuit qubits")
    mirror = build_mirror_circuit(y)
    clock = build_clock_operator(mirror)
    matrix = build_observable(clock)
    m_pos = clock.n_positions
    alpha1_sq = accept_probability(y, bits, y.n_qubits - len(bits))
    dee = DeeInstance(
        matrix=matrix,
        j=clock.flat_index(0, basis_index(bits)),
        m=m_pos**3,
        g=0.0,
        epsilon=1.0 / (4.0 * m_pos),
        b=1.0,
    )
    return HardnessInstance(dee=dee, alpha1_sq=alpha1_sq, n_positions=m_pos)


def predicted_diag(n_positions: int, alpha1_sq: float, m: int) -> float:
    """(1 - a) E0 + a E1 from the reference measures; the exact-oracle target."""
    e0, e1 = moment_separation(n_positions, m)
    return (1.0 - alpha1_sq) * e0 + alpha1_sq * e1


def verify_induced_measure(
    clock: ClockOperator, xs: str | list[int] | tuple[int, ...], tol: float = 1e-8
) -> SpectralMeasure:
    """Check the induced measure of A at |0>|x,0> against the reference mixture.

    A is eigensolved densely only on the connected component of |0>|x,0>
    (`sparse.reach`), so clocks of any size the reduction builds are checked.
    Raises ValueError on any atom position or weight deviating beyond tol;
    returns the induced measure on success.
    """
    if clock.n_positions % 2 == 0:
        raise ValueError("verification needs an odd clock length")
    bits = _bits(xs)
    j = clock.flat_index(0, basis_index(bits))
    sub, rows = reach(build_observable(clock), j, clock.dim)  # rows outside j's component weigh 0
    psi = np.zeros(sub.dim)
    psi[np.searchsorted(rows, j)] = 1.0
    induced = induced_measure(eig_sym(sub.to_dense()), psi)
    alpha1_sq = 1.0 - symmetric_overlap(clock, bits)
    reference = reference_measure(clock.n_positions, alpha1_sq)
    ref_atoms = [(lam, w) for lam, w in reference.atoms if w > 10 * tol]
    ind_atoms = [(lam, w) for lam, w in induced.atoms if w > 10 * tol]
    if len(ref_atoms) != len(ind_atoms):
        raise ValueError(
            f"induced measure has {len(ind_atoms)} atoms, reference {len(ref_atoms)}"
        )
    for (lam_i, w_i), (lam_r, w_r) in zip(ind_atoms, ref_atoms):
        if abs(lam_i - lam_r) > tol:
            raise ValueError(f"atom position {lam_i} deviates from reference {lam_r}")
        if abs(w_i - w_r) > tol:
            raise ValueError(f"atom weight {w_i} at {lam_r} deviates from reference {w_r}")
    return induced
