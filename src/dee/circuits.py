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

from dee.sparse import text_lines

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


_FIXED_MATRICES = {
    GateKind.H: np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2,
    GateKind.X: np.array([[0.0, 1.0], [1.0, 0.0]]),
    GateKind.Z: np.array([[1.0, 0.0], [0.0, -1.0]]),
    GateKind.CNOT: np.eye(4)[[0, 1, 3, 2]],
    GateKind.TOFFOLI: np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]],
}


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense matrix on the gate's own qubits (first listed qubit = MSB)."""
    if g.kind in _FIXED_MATRICES:
        return _FIXED_MATRICES[g.kind].copy()
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
# row/column slices of a gate's full-space matrix, without building it, for
# a whole int array of row indices at once: the bit operations act
# elementwise.  Columns come from rows of the inverse: gates are real
# orthogonal, so G^T = G^{-1}.
# ---------------------------------------------------------------------------


def _perm_image(g: Gate, v):
    """Image of row v (an int or an int array) under a permutation gate:
    the target bit flips where every control bit is set."""
    if g.kind not in _PERM_KINDS:
        raise ValueError(f"{g.kind.value} is not a permutation gate")
    *controls, t = g.qubits
    on = 1
    for c in controls:
        on = on & (v >> c)
    return v ^ ((on & 1) << t)


def _merge_slots(cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """vals with the slots of each row that share a column summed, in slot
    order, into the first of them; the others become 0."""
    slot = np.arange(len(cols)).reshape((-1,) + (1,) * (cols.ndim - 1))
    first = np.argmax(cols[:, None] == cols[None, :], axis=1)
    merged = np.zeros(vals.shape)
    for s in range(len(cols)):
        merged += np.where(first[s] == slot, vals[s], 0.0)
    return merged


def gate_row_entries(g: Gate, u, n: int):
    """Rows u (an int array) of the gate's 2^n x 2^n matrix, sorted by column.

    Returns the slot arrays (cols, vals) of shape (slots, *u.shape).  A fused
    gate's terms are merged into the first slot of their column, and the
    other slots hold 0.
    """
    u = np.asarray(u)
    if np.any((u < 0) | (u >= 1 << n)):
        raise ValueError(f"row index {u} out of range for {n} qubits")
    q = g.qubits[0]
    bit = (u >> q) & 1
    if g.kind in _PERM_KINDS:  # row u of a self-inverse permutation
        cols, vals = [_perm_image(g, u)], [np.ones(u.shape)]
    elif g.kind is GateKind.Z:
        cols, vals = [u], [1.0 - 2.0 * bit]
    elif g.kind is not GateKind.FUSED:  # H and ROT: row `bit` of the 2x2 matrix
        mat = gate_matrix(g)
        cols, vals = [u & ~(1 << q), u | (1 << q)], [mat[bit, 0], mat[bit, 1]]
    else:  # row u of M_k ... M_1 expands right-to-left, merging each factor's terms
        cols, vals = u[None], np.ones((1,) + u.shape)
        for part in reversed(g.parts):
            part_cols, part_vals = gate_row_entries(part, cols, n)
            cols = part_cols.swapaxes(0, 1).reshape((-1,) + u.shape)
            vals = _merge_slots(cols, (vals * part_vals).swapaxes(0, 1).reshape((-1,) + u.shape))
        order = np.argsort(cols, axis=0, kind="stable")
        cols, vals = np.take_along_axis(cols, order, 0), np.take_along_axis(vals, order, 0)
    return np.array(cols), np.array(vals, dtype=np.float64)


# ---------------------------------------------------------------------------
# circuit file format: "QUBITS n" then one gate per line
# ---------------------------------------------------------------------------

_GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CNOT": 2, "TOFF": 3, "ROT": 2}
_PLAIN_GATES = {"H": h, "X": x, "Z": z, "CNOT": cnot, "TOFF": toffoli}  # arguments are qubits


def parse_circuit(text: str) -> Circuit:
    lines = [(lineno, line) for lineno, line, _ in text_lines(text)]
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
                gates.append(_PLAIN_GATES[name](*(int(a) for a in args)))
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
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_circuit(fh.read())

