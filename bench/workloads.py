"""Seeded request streams for the dee benchmark, and the correctness gate.

A workload is an endless, lazily generated stream of requests.  Request i
depends only on (workload seed, i): its input files are written when it is
first asked for, and its expected values (exact oracle value, tolerance,
acceptance probability) are computed then, outside any timed region.  The
program under test only ever sees the generated files and a command line.

Request sizes are fixed per stream position and only the random content comes
from the seed, so the latency distribution of a run hardly depends on which
seed was drawn.  Within a workload, request costs stay within a small factor
of each other: the tail percentile of a run of a few dozen requests then sits
inside one cost band instead of jumping between bands.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from dee import circuits, gateset, hardness
from dee.qpe import choose_params
from dee.sparse import adjacency_from_edges, from_coordinate_list, power_diag_exact, write_matrix_file

FAIL_PROB = 0.05  # the CLI default; k and p below assume it


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what its report must satisfy."""

    index: int
    kind: str
    argv: tuple[str, ...]
    props: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def random_sparse_entries(rng: np.random.Generator, n: int, max_row_nnz: int = 8):
    """Conftest-style random symmetric matrix as (i, j, value) triples, i <= j.

    About half the diagonal is filled, then 3n off-diagonal pairs are tried
    while both rows have room; values are uniform in [-1, 1].
    """
    counts = np.zeros(n, dtype=np.int64)
    entries = []
    seen = set()
    diag = rng.random(n) < 0.5
    diag_vals = rng.uniform(-1.0, 1.0, n)
    for i in np.flatnonzero(diag):
        entries.append((int(i), int(i), float(diag_vals[i])))
        counts[i] += 1
        seen.add((int(i), int(i)))
    pairs = rng.integers(0, n, size=(3 * n, 2))
    vals = rng.uniform(-1.0, 1.0, 3 * n)
    for (i, j), v in zip(pairs.tolist(), vals.tolist()):
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen or counts[i] >= max_row_nnz or counts[j] >= max_row_nnz:
            continue
        entries.append((key[0], key[1], v))
        counts[i] += 1
        counts[j] += 1
        seen.add(key)
    if not entries:
        entries.append((0, 0, 1.0))
    return entries


def random_graph(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Simple undirected graph: a ring (so no vertex is isolated) plus n chords."""
    edges = {(min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n)}
    for u, v in rng.integers(0, n, size=(n, 2)).tolist():
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


_ARITY = {"H": 1, "X": 1, "Z": 1, "CNOT": 2, "TOFF": 3, "ROT": 1}


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int, kinds) -> str:
    """Circuit file text with n_gates gates drawn from kinds on n_qubits qubits."""
    usable = [k for k in kinds if _ARITY[k] <= n_qubits]
    lines = [f"QUBITS {n_qubits}"]
    for _ in range(n_gates):
        kind = usable[int(rng.integers(len(usable)))]
        qs = rng.choice(n_qubits, size=_ARITY[kind], replace=False).tolist()
        if kind == "ROT":
            lines.append(f"ROT {qs[0]} {float(rng.uniform(0.0, math.pi))!r}")
        else:
            lines.append(kind + " " + " ".join(str(q) for q in qs))
    return "\n".join(lines) + "\n"


def random_bits(rng: np.random.Generator, n: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, size=n).tolist())


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _shot_props(m: int, eps: float) -> dict:
    params = choose_params(m, eps, FAIL_PROB)
    return {"m": m, "p": params.p, "k": params.k}


def matrix_request(i: int, rng: np.random.Generator, path: str, n: int, m: int, eps: float, kind: str) -> Request:
    """`estimate` of (A^m)_jj on a conftest-style random n x n matrix file."""
    entries = random_sparse_entries(rng, n)
    matrix = from_coordinate_list(n, entries)
    j = int(rng.integers(n))
    write_matrix_file(path + ".mat", matrix)
    argv = ["estimate", "--matrix", path + ".mat", "--j", str(j), "--m", str(m),
            "--epsilon", repr(eps), "--seed", str(i), "--workers", "1"]
    b = matrix.norm_bound
    return Request(i, kind, tuple(argv),
                   props={"dim": n, "nnz": len(entries), **_shot_props(m, eps)},
                   expect={"exact": power_diag_exact(matrix, j, m), "b": b, "tol": eps * b**m, "g": 0.0})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base class: subclasses set name/why and implement make(i, rng, path)."""

    name = ""
    why = ""
    min_requests = 20  # the tail percentile needs well over ten samples
    period = 1  # the window runs whole periods of the stream, so its mix of kinds is fixed

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._cache: dict[int, Request] = {}

    def get(self, i: int) -> Request:
        if i not in self._cache:
            rng = np.random.default_rng((self.seed, i))
            self._cache[i] = self.make(i, rng, os.path.join(self.workdir, f"r{i:05d}"))
        return self._cache[i]

    def make(self, i: int, rng: np.random.Generator, path: str) -> Request:
        raise NotImplementedError


class Estimate(Workload):
    """Estimate requests: dense eigensolves alternate with many-shot sampling.

    Request kind by stream position.  Half the requests are few-shot
    decisions (eps = 0.5, k = 266) on N ~ 1250 matrices read from files,
    where parsing, to_dense and the dense eigensolve dominate.  The other
    half draw k = 9,562 shots each on small inputs: N <= 24 matrices,
    1-gate reductions (whose eps = 1/(4M) = 1/12 the matrix and graph
    requests share) and graphs, where the per-shot sampler dominates.  The
    dense sizes are chosen so both halves cost about the same, so the median
    and the tail do not sit on a boundary between two cost bands.  The small
    matrices stay below the size where OpenBLAS runs eigh on two threads:
    waking the second thread after a long pure-Python sampling loop cost
    about 80 ms a call at N = 64-128.
    """

    name = "estimate"
    why = "k=266 decisions on N~1250 matrices alternating with 9.6k-shot ones on small inputs, so dense eig and the qpe sampler dominate"

    cycle = ("dense", "matrix", "dense", "reduction", "dense", "paths")
    period = len(cycle)
    # largest first, so the set-up probes' peak RSS covers the biggest matrix
    dense_dims = (1296, 1216, 1280, 1232, 1264)
    dense_epsilon = 0.5
    epsilon = 1.0 / 12.0
    dim_range = (8, 25)
    graph_range = (6, 17)
    max_reduction_qubits = 3

    def make(self, i, rng, path):
        kind, eps = self.cycle[i % len(self.cycle)], self.epsilon
        if kind == "dense":
            n = self.dense_dims[(i // 2) % len(self.dense_dims)]
            return matrix_request(i, rng, path, n, 2 + (i // 2) % 3, self.dense_epsilon, "estimate-dense")
        if kind == "matrix":
            n = int(rng.integers(*self.dim_range))
            return matrix_request(i, rng, path, n, int(rng.integers(2, 5)), eps, "estimate")
        if kind == "reduction":
            n_qubits = int(rng.integers(1, self.max_reduction_qubits + 1))
            text = random_circuit(rng, n_qubits, 1, list(_ARITY))
            circuit = circuits.parse_circuit(text)
            red = hardness.reduce(circuit, random_bits(rng, n_qubits))
            dee = red.dee
            write_matrix_file(path + ".mat", dee.matrix)
            argv = ["estimate", "--matrix", path + ".mat", "--j", str(dee.j), "--m", str(dee.m),
                    "--b", repr(dee.b), "--g", repr(dee.g), "--epsilon", repr(dee.epsilon),
                    "--seed", str(i), "--workers", "1"]
            return Request(i, "estimate-reduction", tuple(argv),
                           props={"dim": dee.matrix.dim, "nnz": dee.matrix.nnz, "M": red.n_positions,
                                  "qubits": n_qubits, **_shot_props(dee.m, dee.epsilon)},
                           expect={"exact": power_diag_exact(dee.matrix, dee.j, dee.m), "b": dee.b,
                                   "tol": dee.epsilon * dee.b**dee.m, "g": dee.g})
        n = int(rng.integers(*self.graph_range))
        edges = random_graph(rng, n)
        m = int(rng.integers(3, 5))
        j = int(rng.integers(n))
        _write(path + ".graph", "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n")
        adjacency = adjacency_from_edges(n, edges)
        b = adjacency.norm_bound
        argv = ["paths", "--graph", path + ".graph", "--j", str(j), "--m", str(m),
                "--epsilon", repr(eps), "--seed", str(i), "--workers", "1"]
        return Request(i, "paths", tuple(argv),
                       props={"dim": n, "nnz": len(edges), **_shot_props(m, eps)},
                       expect={"exact": power_diag_exact(adjacency, j, m), "b": b, "tol": eps * b**m})


class ReduceVerify(Workload):
    """Circuit reductions alternating with the error-bound battery.

    Reductions: clock assembly, file writes and the m = M^3 exact oracle
    dominate.  verify-bounds is the only path through verify and the
    2^p-vector distributions.  Each request costs about 0.4 s on a 2-vCPU VM.
    """

    name = "reduce-verify"
    why = "reduce, reduce --integer and verify-bounds on 9-12 qubit circuits, so clock assembly, the M^3-matvec oracle and verify dominate"

    # Reductions as (integer, qubits, gates, clock length M), one between
    # every two verify-bounds requests; the biggest (dim 24,576) comes first
    # so the set-up probes' peak RSS covers it.  Norm-1 circuits put an H or
    # ROT gate (two nonzeros per row) at every third position and a
    # permutation or Z elsewhere, so row sparsity, and with it the cost, does
    # not depend on the draw.  Integer circuits over {H, TOFF} are redrawn
    # until their clock length is M, since the exact oracle's cost grows as
    # M^4 2^n.  The 12-qubit 6-gate reduction (4 s) is left out: one request
    # would cost ten of the others.
    reductions = ((True, 12, 3, 6), (False, 10, 5, 11), (True, 11, 3, 8), (False, 9, 6, 13))
    branching = ("H", "ROT")
    permutations = ("X", "Z", "CNOT", "TOFF")
    integer_kinds = ("H", "TOFF")
    max_draws = 1000
    period = 2 * len(reductions)
    matrices = 2
    trials = 6

    def make(self, i, rng, path):
        if i % 2:
            vseed = int(rng.integers(1, 2**31))
            argv = ["verify-bounds", "--matrices", str(self.matrices), "--trials", str(self.trials),
                    "--seed", str(vseed)]
            return Request(i, "verify", tuple(argv), props={"matrices": self.matrices, "trials": self.trials})
        integer, n_qubits, n_gates, n_pos = self.reductions[(i // 2) % len(self.reductions)]
        if integer:
            text = self._integer_circuit(rng, n_qubits, n_gates, n_pos)
        else:
            text = f"QUBITS {n_qubits}\n" + "".join(
                random_circuit(rng, n_qubits, 1, self.permutations if g % 3 else self.branching).split("\n", 1)[1]
                for g in range(n_gates)
            )
        circuit = circuits.parse_circuit(text)
        bits = random_bits(rng, n_qubits)
        _write(path + ".circ", text)
        argv = ["reduce", "--circuit", path + ".circ", "--input", bits,
                "--out-matrix", path + ".out.mat", "--out-meta", path + ".out.meta"]
        if integer:
            argv.append("--integer")
        b = gateset.OBSERVABLE_SCALE if integer else 1.0
        return Request(i, "reduce-integer" if integer else "reduce", tuple(argv),
                       props={"dim": n_pos << n_qubits, "m": n_pos**3, "M": n_pos, "qubits": n_qubits},
                       expect={"accept": circuits.accept_probability(circuit, bits, 0),
                               "scale": b ** (n_pos**3), "dim": n_pos << n_qubits,
                               "meta": path + ".out.meta", "matrix": path + ".out.mat"})

    def _integer_circuit(self, rng, n_qubits, n_gates, n_pos):
        for _ in range(self.max_draws):
            text = random_circuit(rng, n_qubits, n_gates, self.integer_kinds)
            mirror = circuits.build_mirror_circuit(circuits.parse_circuit(text))
            if len(gateset.fuse_uniform_scale(gateset.rewrite_to_th(mirror))) == n_pos:
                return text
        raise RuntimeError(f"no {n_gates}-gate H/TOFF circuit with clock length {n_pos} in {self.max_draws} draws")


WORKLOADS = {w.name: w for w in (Estimate, ReduceVerify)}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def report_fields(report: str) -> dict[str, str]:
    out = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check(req: Request, rc: int, report: str) -> list[str]:
    """Problems with one request's outcome; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    if req.kind == "verify":
        lines = report.splitlines()
        bad = [line for line in lines if not line.endswith(" PASS")]
        if not lines or lines[-1] != "verify-bounds: PASS":
            bad.append("missing 'verify-bounds: PASS'")
        return bad
    fields = report_fields(report)
    try:
        if req.kind in ("reduce", "reduce-integer"):
            return _check_reduce(req, fields)
        return _check_estimate(req, fields)
    except (KeyError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"]


def _check_estimate(req: Request, fields: dict[str, str]) -> list[str]:
    ex = req.expect
    problems = []
    estimate = float(fields["estimate"])
    err = abs(estimate - ex["exact"])
    if not err <= ex["tol"]:
        problems.append(f"|estimate - exact| = {err!r} exceeds eps*b^m = {ex['tol']!r}")
    if req.kind == "paths":
        if int(fields["closed_walks"]) != round(ex["exact"]):
            problems.append(f"closed_walks {fields['closed_walks']} != {round(ex['exact'])}")
    elif abs(ex["exact"] - ex["g"]) >= ex["tol"]:
        want = "AboveG" if ex["exact"] > ex["g"] else "BelowG"
        if fields["decision"] != want:
            problems.append(f"decision {fields['decision']} on a promise instance, want {want}")
    return problems


def _check_reduce(req: Request, fields: dict[str, str]) -> list[str]:
    ex = req.expect
    problems = []
    gap = abs(float(fields["exact_diag"]) - float(fields["predicted_diag"]))
    if not gap <= 1e-8 * ex["scale"]:
        problems.append(f"|exact_diag - predicted_diag| = {gap!r} exceeds 1e-8 * b^m")
    a = ex["accept"]
    if a >= 2.0 / 3.0 or a <= 1.0 / 3.0:
        want = "accept" if a >= 2.0 / 3.0 else "reject"
        if fields["verdict"] != want:
            problems.append(f"verdict {fields['verdict']} at acceptance {a!r}, want {want}")
    if int(fields["n"]) != ex["dim"]:
        problems.append(f"dimension {fields['n']} != {ex['dim']}")
    with open(ex["matrix"], encoding="utf-8") as fh:
        header = fh.readline().split()
    if not header or int(header[0]) != ex["dim"]:
        problems.append(f"matrix file header {header} does not start with {ex['dim']}")
    with open(ex["meta"], encoding="utf-8") as fh:
        meta = fh.read()
    if report_fields(meta) != fields:
        problems.append("metadata file differs from the printed report")
    return problems
