"""Rewriting clock observables over Toffoli+Hadamard into integer matrices.

Every gate in {H, X, Z, CNOT, Toffoli} rewrites to Hadamards plus basis
permutations (Z = H X H), and a permutation fused with an adjacent H gives a
"uniform-scale" element: a real orthogonal matrix whose entries all lie in
{0, +-1/sqrt(2)}.  Unpaired permutations absorb an inserted H H = identity
pair, so the element count M always has the parity of the H count and every
element carries exactly one 1/sqrt(2).

The clock observable of M such elements, rescaled by s = 2*sqrt(2) (the 1/2
from (W + W^dagger)/2 and the 1/sqrt(2) from the element), has every entry
in {-1, 0, 1}.  It is built by the norm-1 reduction's clock builder,
`hardness.assemble_clock`, run on the elements as fused gates at weight
s/2 = fl(sqrt(2)), and its entries are exactly +-1 in binary64: each element
entry is one H entry fl(1/fl(sqrt(2))) = 0.7071067811865475 times
permutation 1.0s, and fl(sqrt(2)) * 0.7071067811865475 == 1.0 holds exactly.
`format_matrix(integer_values=True)` refuses any entry that is not an
integer, so `reduce --integer` exits 1 rather than write an entry that is
off by an ulp.  Of the decision thresholds, the odd-M sign argument is
unavailable (M is even here), so thresholds come from the exact even-M cycle
moments E0, E1:

    g = s^m (E0 + E1) / 2,   eps = (E0 - E1) / 12,   b = s,

which separates acceptance probability <= 1/3 from >= 2/3 by two eps*b^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from dee.circuits import (
    Circuit,
    Gate,
    GateKind,
    accept_probability,
    basis_index,
    build_mirror_circuit,
    fused,
    h,
    is_permutation_gate,
    x,
    _bits,
)
from dee.sparse import DeeInstance, SparseSymmetricMatrix
from dee.hardness import HardnessInstance, assemble_clock, moment_separation, predicted_diag

OBSERVABLE_SCALE = 2.0 * math.sqrt(2.0)

LONE_H = "h"
PERM_THEN_H = "perm_then_h"
H_THEN_PERM = "h_then_perm"


@dataclass(frozen=True)
class UniformScaleGate:
    """One element: a single H on h_qubit, optionally composed with a permutation.

    kind "perm_then_h" means the permutation acts first (matrix H P);
    "h_then_perm" means the H acts first (matrix P H).  All entries of the
    element matrix lie in {0, +-1/sqrt(2)}.
    """

    kind: str
    h_qubit: int
    perm: Gate | None = None

    def __post_init__(self) -> None:
        if self.kind not in (LONE_H, PERM_THEN_H, H_THEN_PERM):
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.h_qubit < 0:
            raise ValueError(f"negative qubit {self.h_qubit}")
        if self.kind == LONE_H:
            if self.perm is not None:
                raise ValueError("lone-H element carries no permutation")
        else:
            if self.perm is None or not is_permutation_gate(self.perm):
                raise ValueError(f"{self.kind} element needs a permutation gate")

    def as_fused_gate(self) -> Gate:
        if self.kind == LONE_H:
            return h(self.h_qubit)
        if self.kind == PERM_THEN_H:
            return fused(self.perm, h(self.h_qubit))
        return fused(h(self.h_qubit), self.perm)


def rewrite_to_th(circuit: Circuit) -> Circuit:
    """Replace Z by H X H; H and permutations pass through; rotations have
    no uniform-scale form and are rejected."""
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind is GateKind.Z:
            q = g.qubits[0]
            out.extend([h(q), x(q), h(q)])
        elif g.kind is GateKind.H or is_permutation_gate(g):
            out.append(g)
        else:
            raise ValueError(f"gate {g.kind.value} has no Toffoli+Hadamard rewrite")
    return Circuit(circuit.n_qubits, tuple(out))


def fuse_uniform_scale(circuit: Circuit) -> list[UniformScaleGate]:
    """Greedily pair each permutation with a neighboring H.

    A permutation with no free neighbor absorbs an inserted H(0) H(0) pair,
    becoming (perm then H) followed by a lone H, so the element product
    still equals the circuit and every element holds exactly one H.
    """
    gates = list(circuit.gates)
    for g in gates:
        if g.kind is not GateKind.H and not is_permutation_gate(g):
            raise ValueError(f"gate {g.kind.value} must be rewritten to H/permutation form first")
    out: list[UniformScaleGate] = []
    i = 0
    while i < len(gates):
        g = gates[i]
        nxt = gates[i + 1] if i + 1 < len(gates) else None
        if g.kind is GateKind.H:
            if nxt is not None and is_permutation_gate(nxt):
                out.append(UniformScaleGate(kind=H_THEN_PERM, h_qubit=g.qubits[0], perm=nxt))
                i += 2
            else:
                out.append(UniformScaleGate(kind=LONE_H, h_qubit=g.qubits[0]))
                i += 1
        else:
            if nxt is not None and nxt.kind is GateKind.H:
                out.append(UniformScaleGate(kind=PERM_THEN_H, h_qubit=nxt.qubits[0], perm=g))
                i += 2
            else:
                out.append(UniformScaleGate(kind=PERM_THEN_H, h_qubit=0, perm=g))
                out.append(UniformScaleGate(kind=LONE_H, h_qubit=0))
                i += 1
    return out


def build_integer_observable(elements: list[UniformScaleGate], n_qubits: int) -> SparseSymmetricMatrix:
    """The clock observable of the fused elements, times s = OBSERVABLE_SCALE.

    It is the norm-1 clock builder at weight s/2 = sqrt(2), so each entry is
    sqrt(2) times one element entry, exactly +-1 (see the module docstring).
    Needs M >= 3 so the two block neighbors of a row never collide; the norm
    bound is s.
    """
    m_count = len(elements)
    if m_count < 3:
        raise ValueError(f"need at least 3 elements to build the clock, got {m_count}")
    blocks = [e.as_fused_gate() for e in elements]
    return assemble_clock(blocks, n_qubits, OBSERVABLE_SCALE / 2, OBSERVABLE_SCALE)


def even_m_thresholds(n_positions: int, m: int) -> tuple[float, float]:
    """(g, eps) separating acceptance <= 1/3 from >= 2/3 at even clock length.

    The diagonal entry of the scaled observable is
    s^m ((1 - a) E0 + a E1) for acceptance probability a, linear in a, so
    the midpoint of its values at a = 1/3 and a = 2/3 is g and a quarter of
    their gap is eps * b^m, with s = b = OBSERVABLE_SCALE.  Degenerate
    moments (gap <= 1e-12) and s^m outside the float range are rejected.
    """
    if n_positions % 2 != 0 or n_positions < 4:
        raise ValueError(f"even clock length >= 4 required, got {n_positions}")
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    if m * math.log2(OBSERVABLE_SCALE) >= 1024:
        raise ValueError(
            f"scale^m = {OBSERVABLE_SCALE}^{m} exceeds the float range; clock length must stay below 10"
        )
    s_m = OBSERVABLE_SCALE**m
    e0, e1 = moment_separation(n_positions, m)
    if (e0 - e1) / 3.0 <= 1e-12:
        raise ValueError(f"moment gap E0-E1 = {e0 - e1} is degenerate at m={m}")
    g = s_m * (e0 + e1) / 2.0
    eps = (e0 - e1) / 12.0
    value_13 = s_m * ((2.0 / 3.0) * e0 + (1.0 / 3.0) * e1)
    value_23 = s_m * ((1.0 / 3.0) * e0 + (2.0 / 3.0) * e1)
    if not (value_13 >= g + eps * s_m and value_23 <= g - eps * s_m):
        raise ValueError("threshold construction failed to separate 1/3 from 2/3")
    return g, eps


def reduce_integer(y: Circuit, xs: str | list[int] | tuple[int, ...]) -> HardnessInstance:
    """Full pipeline: mirror, rewrite to H/permutations, fuse, build, threshold.

    The circuit y must use only H, X, Z, CNOT, Toffoli.  The exact diagonal
    entry of the emitted matrix at j is s^m ((1-a) E0 + a E1) with
    a = p_accept(x), decided against the even-length thresholds.
    """
    bits = _bits(xs)
    if len(bits) > y.n_qubits:
        raise ValueError(f"{len(bits)} input bits exceed {y.n_qubits} circuit qubits")
    mirror = build_mirror_circuit(y)
    rewritten = rewrite_to_th(mirror)
    elements = fuse_uniform_scale(rewritten)
    m_count = len(elements)
    power = m_count**3
    g, eps = even_m_thresholds(m_count, power)
    matrix = build_integer_observable(elements, n_qubits=y.n_qubits)
    alpha1_sq = accept_probability(y, bits, y.n_qubits - len(bits))
    dee = DeeInstance(
        matrix=matrix,
        j=basis_index(bits),
        m=power,
        g=g,
        epsilon=eps,
        b=OBSERVABLE_SCALE,
    )
    return HardnessInstance(dee=dee, alpha1_sq=alpha1_sq, n_positions=m_count)


def predicted_integer_diag(n_positions: int, alpha1_sq: float, m: int) -> float:
    """Exact target value s^m ((1-a) E0 + a E1) for the emitted matrix, s = OBSERVABLE_SCALE."""
    return OBSERVABLE_SCALE**m * predicted_diag(n_positions, alpha1_sq, m)
