"""Reversible real-valued circuits: gates, simulation, and mirror construction.

Gate alphabet is real orthogonal (H, X, Z, CNOT, Toffoli, a real rotation,
and fused products of gates), which keeps every operator symmetric-friendly:
transposes are inverses, so column slices of a gate come from row slices of
its inverse.  Basis convention: qubit q is bit q of the index (qubit 0 is the
least significant bit); a gate matrix lists its first qubit as the most
significant bit of the gate-local index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from dee.sparse import data_lines

_SQRT2 = math.sqrt(2.0)


class GateKind(enum.Enum):
    H = "H"
    X = "X"
    Z = "Z"
    CNOT = "CNOT"
    TOFFOLI = "TOFF"
    ROT = "ROT"
    FUSED = "FUSED"


_QUBIT_COUNT = {
    GateKind.H: 1,
    GateKind.X: 1,
    GateKind.Z: 1,
    GateKind.CNOT: 2,
    GateKind.TOFFOLI: 3,
    GateKind.ROT: 1,
}

# permutation gates: the matrix is a self-inverse basis permutation
_PERM_KINDS = frozenset({GateKind.X, GateKind.CNOT, GateKind.TOFFOLI})


@dataclass(frozen=True)
class Gate:
    """One gate; `qubits` is role-ordered (controls before target).

    For FUSED, `parts` lists factors in application order (parts[0] acts
    first) and `qubits` is the sorted union of the parts' qubits.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float = 0.0
    parts: tuple["Gate", ...] = field(default=())

    def __post_init__(self) -> None:
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit index in {self.qubits}")
        if self.kind is GateKind.FUSED:
            if len(self.parts) < 1:
                raise ValueError("fused gate needs at least one part")
            union = sorted({q for p in self.parts for q in p.qubits})
            if list(self.qubits) != union:
                raise ValueError("fused gate qubits must be the sorted union of part qubits")
        else:
            if self.parts:
                raise ValueError("only fused gates carry parts")
            if len(self.qubits) != _QUBIT_COUNT[self.kind]:
                raise ValueError(
                    f"{self.kind.value} takes {_QUBIT_COUNT[self.kind]} qubits, got {self.qubits}"
                )
            if self.kind is not GateKind.ROT and self.angle != 0.0:
                raise ValueError("only rotation gates carry an angle")
            if self.kind is GateKind.ROT and not math.isfinite(self.angle):
                raise ValueError(f"non-finite rotation angle {self.angle}")


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def z(q: int) -> Gate:
    return Gate(GateKind.Z, (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (c1, c2, target))


def rot(q: int, angle: float) -> Gate:
    return Gate(GateKind.ROT, (q,), angle=angle)


def fused(*parts: Gate) -> Gate:
    union = tuple(sorted({q for p in parts for q in p.qubits}))
    return Gate(GateKind.FUSED, union, parts=tuple(parts))


def inverse_gate(g: Gate) -> Gate:
    if g.kind is GateKind.ROT:
        return rot(g.qubits[0], -g.angle)
    if g.kind is GateKind.FUSED:
        return fused(*(inverse_gate(p) for p in reversed(g.parts)))
    return g  # H, X, Z, CNOT, Toffoli are involutions


def is_permutation_gate(g: Gate) -> bool:
    return g.kind in _PERM_KINDS


_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z2 = np.array([[1.0, 0.0], [0.0, -1.0]])
_CNOT4 = np.eye(4)[[0, 1, 3, 2]]
_TOFF8 = np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense matrix on the gate's own qubits (first listed qubit = MSB)."""
    if g.kind is GateKind.H:
        return _H2.copy()
    if g.kind is GateKind.X:
        return _X2.copy()
    if g.kind is GateKind.Z:
        return _Z2.copy()
    if g.kind is GateKind.CNOT:
        return _CNOT4.copy()
    if g.kind is GateKind.TOFFOLI:
        return _TOFF8.copy()
    if g.kind is GateKind.ROT:
        c, s = math.cos(g.angle), math.sin(g.angle)
        return np.array([[c, -s], [s, c]])
    # fused: embed each part into the union space and multiply
    k = len(g.qubits)
    local = {q: i for i, q in enumerate(g.qubits)}
    m = np.eye(2**k)
    for part in g.parts:
        part_local = tuple(local[q] for q in part.qubits)
        m = _apply_to_array(gate_matrix(part), part_local, k, m)
    return m


def _apply_to_array(mat: np.ndarray, qs: tuple[int, ...], n: int, arr: np.ndarray) -> np.ndarray:
    """Apply `mat` on qubits `qs` of an n-qubit space to arr (leading axis 2^n)."""
    k = len(qs)
    rest = arr.shape[1:]
    t = arr.reshape((2,) * n + rest)
    axes = [n - 1 - q for q in qs]  # qubit q lives on axis n-1-q; qs[0] becomes MSB
    t = np.moveaxis(t, axes, range(k))
    head = t.shape[:k]
    flat = t.reshape(2**k, -1)
    out = np.asarray(mat) @ flat
    out = out.reshape(head + t.shape[k:])
    out = np.moveaxis(out, range(k), axes)
    return out.reshape((2**n,) + rest)


def _apply_gate(g: Gate, n: int, arr: np.ndarray) -> np.ndarray:
    if g.kind is GateKind.FUSED:
        for part in g.parts:
            arr = _apply_gate(part, n, arr)
        return arr
    return _apply_to_array(gate_matrix(g), g.qubits, n, arr)


@dataclass(frozen=True)
class Circuit:
    """Gate list on n_qubits; gates[0] acts first."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"circuit needs at least 1 qubit, got {self.n_qubits}")
        for g in self.gates:
            top = max(g.qubits) if g.qubits else 0
            if top >= self.n_qubits:
                raise ValueError(f"gate {g.kind.value} on qubit {top} exceeds {self.n_qubits} qubits")


def apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply every gate in order to a unit vector of dimension 2^n."""
    state = np.asarray(state)
    if state.dtype.kind == "c":
        state = state.astype(np.complex128)
    else:
        state = state.astype(np.float64)
    if state.shape != (2**c.n_qubits,):
        raise ValueError(f"state shape {state.shape} does not match {c.n_qubits} qubits")
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm is {norm}, not 1 within 1e-9")
    arr = state.reshape(-1, 1)
    for g in c.gates:
        arr = _apply_gate(g, c.n_qubits, arr)
    return arr.reshape(-1)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (desk scale only)."""
    arr = np.eye(2**c.n_qubits)
    for g in c.gates:
        arr = _apply_gate(g, c.n_qubits, arr)
    return arr


def gate_unitary(g: Gate, n: int) -> np.ndarray:
    """Dense matrix of a single gate embedded in the full n-qubit space."""
    return _apply_gate(g, n, np.eye(2**n))


def _bits(xs: str | list[int] | tuple[int, ...]) -> tuple[int, ...]:
    bits = []
    for ch in xs:
        bit = int(ch)
        if bit not in (0, 1):
            raise ValueError(f"input bits must be 0/1, got {ch!r}")
        bits.append(bit)
    return tuple(bits)


def basis_index(bits: tuple[int, ...]) -> int:
    """Index of |x> with x[q] on qubit q (bit q of the index)."""
    return sum(b << q for q, b in enumerate(bits))


def accept_probability(y: Circuit, xs: str | list[int] | tuple[int, ...], n_ancilla: int) -> float:
    """Probability that qubit 0 reads 1 after running y on |x, 0...0>."""
    bits = _bits(xs)
    if len(bits) + n_ancilla != y.n_qubits:
        raise ValueError(
            f"{len(bits)} input bits + {n_ancilla} ancillas != {y.n_qubits} circuit qubits"
        )
    state = np.zeros(2**y.n_qubits)
    state[basis_index(bits)] = 1.0
    out = apply_circuit(y, state)
    return float(np.sum(np.abs(out[1::2]) ** 2))  # odd indices have qubit 0 = 1


def build_mirror_circuit(y: Circuit) -> Circuit:
    """y, then Z on the output qubit, then y reversed gate-by-gate.

    The result u satisfies u^2 = identity and has odd length 2*len(y)+1;
    <x,0| u |x,0> = 1 - 2*p_accept(x).
    """
    back = tuple(inverse_gate(g) for g in reversed(y.gates))
    return Circuit(y.n_qubits, y.gates + (z(0),) + back)


# ---------------------------------------------------------------------------
# sparse row access
#
# row/column slices of a gate's full-space matrix, without building it.
# Columns come from rows of the inverse: gates are real orthogonal, so
# G^T = G^{-1}.
# ---------------------------------------------------------------------------


def _perm_image(g: Gate, v: int) -> int:
    if g.kind is GateKind.X:
        return v ^ (1 << g.qubits[0])
    if g.kind is GateKind.CNOT:
        c, t = g.qubits
        return v ^ (1 << t) if (v >> c) & 1 else v
    if g.kind is GateKind.TOFFOLI:
        c1, c2, t = g.qubits
        return v ^ (1 << t) if ((v >> c1) & 1) and ((v >> c2) & 1) else v
    raise ValueError(f"{g.kind.value} is not a permutation gate")


def gate_row_entries(g: Gate, u: int, n: int) -> list[tuple[int, float]]:
    """Nonzeros of row u of the gate's 2^n x 2^n matrix, sorted by column."""
    if not 0 <= u < 2**n:
        raise ValueError(f"row index {u} out of range for {n} qubits")
    if g.kind in _PERM_KINDS:
        return [(_perm_image(g, u), 1.0)]  # row u of a self-inverse permutation
    if g.kind is GateKind.Z:
        q = g.qubits[0]
        return [(u, -1.0 if (u >> q) & 1 else 1.0)]
    if g.kind is GateKind.H:
        q = g.qubits[0]
        base = u & ~(1 << q)
        top = base | (1 << q)
        inv = 1.0 / _SQRT2
        if (u >> q) & 1:
            return [(base, inv), (top, -inv)]
        return [(base, inv), (top, inv)]
    if g.kind is GateKind.ROT:
        q = g.qubits[0]
        base = u & ~(1 << q)
        top = base | (1 << q)
        c, s = math.cos(g.angle), math.sin(g.angle)
        if (u >> q) & 1:
            return [(base, s), (top, c)]
        return [(base, c), (top, -s)]
    if g.kind is GateKind.FUSED:
        # row u of M_k ... M_1 expands right-to-left through the factors
        acc = {u: 1.0}
        for part in reversed(g.parts):
            nxt: dict[int, float] = {}
            for w, coeff in acc.items():
                for v, val in gate_row_entries(part, w, n):
                    nxt[v] = nxt.get(v, 0.0) + coeff * val
            acc = {v: val for v, val in nxt.items() if val != 0.0}
        return sorted(acc.items())
    raise ValueError(f"unknown gate kind {g.kind}")


def gate_col_entries(g: Gate, u: int, n: int) -> list[tuple[int, float]]:
    """Nonzeros of column u, i.e. row u of the transpose (= inverse)."""
    return gate_row_entries(inverse_gate(g), u, n)


# ---------------------------------------------------------------------------
# circuit file format: "QUBITS n" then one gate per line
# ---------------------------------------------------------------------------

_GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CNOT": 2, "TOFF": 3, "ROT": 2}


def parse_circuit(text: str) -> Circuit:
    lines = data_lines(text)
    if not lines:
        raise ValueError("circuit text has no data lines")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "QUBITS":
        raise ValueError(f"line {lineno}: expected header 'QUBITS n', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad qubit count {parts[1]!r}") from exc
    gates = []
    for lineno, line in lines[1:]:
        parts = line.split()
        name, args = parts[0], parts[1:]
        if name not in _GATE_ARITY:
            raise ValueError(f"line {lineno}: unknown gate {name!r}")
        if len(args) != _GATE_ARITY[name]:
            raise ValueError(f"line {lineno}: {name} takes {_GATE_ARITY[name]} arguments")
        try:
            if name == "ROT":
                gates.append(rot(int(args[0]), float(args[1])))
            else:
                qs = tuple(int(a) for a in args)
                gates.append(
                    {
                        "H": lambda qs: h(qs[0]),
                        "X": lambda qs: x(qs[0]),
                        "Z": lambda qs: z(qs[0]),
                        "CNOT": lambda qs: cnot(qs[0], qs[1]),
                        "TOFF": lambda qs: toffoli(qs[0], qs[1], qs[2]),
                    }[name](qs)
                )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return Circuit(n, tuple(gates))


def format_circuit(c: Circuit) -> str:
    lines = [f"QUBITS {c.n_qubits}"]
    for g in c.gates:
        if g.kind is GateKind.ROT:
            lines.append(f"ROT {g.qubits[0]} {g.angle!r}")
        elif g.kind is GateKind.FUSED:
            raise ValueError("fused gates have no file representation")
        else:
            lines.append(f"{g.kind.value} {' '.join(str(q) for q in g.qubits)}")
    return "\n".join(lines) + "\n"


def read_circuit_file(path: str) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def write_circuit_file(path: str, c: Circuit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_circuit(c))
