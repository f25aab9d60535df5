"""Command-line interface: estimate, exact, reduce, verify-bounds, paths.

Reports are deterministic byte-for-byte for a fixed seed and command line,
regardless of worker count: every float is printed with repr, no timestamps
or host details appear, and wall time goes to stderr only.  Output files and
the report are written only after the whole computation succeeds, and every
output file is opened before any is written, so a run that exits 1 prints no
report and leaves no output file behind.  Exit codes: 0 success, 1
validation or file errors, 2 a verification check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import os
import sys
import time

import numpy as np

from dee.sparse import (
    DeeInstance,
    adjacency_from_edges,
    decide,
    format_matrix,
    power_diag_exact,
    power_entry_exact,
    power_scale,
    reach,
    read_graph_file,
    read_matrix_file,
    upper_triangle,
)
from dee.qpe import (
    MAX_STATEVECTOR_QUBITS,
    EstimatorBackend,
    analytic_backend,
    choose_params,
    estimate_from_outcomes,
    estimate_offdiag,
    outcomes_to_z,
    sample_measurements,
)
from dee import hardness, gateset
from dee.circuits import read_circuit_file
from dee.verify import run_bound_checks

# estimate reports the exact value only while the oracle's work stays within
# EXACT_ORACLE_MAX_WORK row-slots: m matvecs, each s slot passes over the |S|
# rows within m steps of j, a pass costing as much again as SLOT_PASS_ROWS
# rows (numpy call overhead).  At the 9-10 ns per row-slot of a 2-vCPU VM the
# bound is about 1 s of oracle.
EXACT_ORACLE_MAX_WORK = 10**8
SLOT_PASS_ROWS = 500
WORKERS_HELP = "accepted and validated; sampling runs on one thread, output is invariant"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(pairs: list[tuple[str, object]], report_path: str | None, files=()) -> None:
    """Write the report to report_path and each (path, text) of files, skipping
    paths that are None, then print the report.  Every file is opened before
    any is written; if one cannot be opened or written, the files opened so
    far are removed and nothing is printed."""
    text = "\n".join(f"{k}: {_fmt(v)}" for k, v in pairs) + "\n"
    files = [(path, body) for path, body in [(report_path, text), *files] if path]
    if len({os.path.realpath(path) for path, _ in files}) < len(files):
        raise ValueError("one file is named for two outputs")
    handles = []
    try:
        with contextlib.ExitStack() as stack:
            for path, _ in files:
                handles.append(stack.enter_context(open(path, "w", encoding="utf-8")))
            for fh, (_, body) in zip(handles, files):
                fh.write(body)
    except OSError:
        for fh in handles:
            if os.path.isfile(fh.name):  # not a device such as /dev/stdout
                os.remove(fh.name)
        raise
    sys.stdout.write(text)


def _instance_digest(matrix, *fields) -> str:
    """sha256 of dim, the upper-triangle (i, j, value) as <i8/<i8/<f8 records
    by row then column, and the '|'-joined fields; its first 16 hex digits."""
    i, j, v = upper_triangle(matrix)
    entries = np.empty(i.size, dtype=[("i", "<i8"), ("j", "<i8"), ("v", "<f8")])
    entries["i"], entries["j"], entries["v"] = i, j, v
    digest = hashlib.sha256(np.array(matrix.dim, dtype="<i8").tobytes())
    digest.update(entries.tobytes())
    digest.update(("|" + "|".join(_fmt(f) for f in fields)).encode())
    return digest.hexdigest()[:16]


def _oracle_affordable(matrix, j: int, m: int) -> bool:
    """Whether m * s * (|S| + SLOT_PASS_ROWS) <= EXACT_ORACLE_MAX_WORK, S being
    the rows within m steps of j; the zero matrix (s = 0) counts one pass."""
    passes = m * max(matrix.max_row_nnz, 1)
    if passes * SLOT_PASS_ROWS > EXACT_ORACLE_MAX_WORK:  # too much whatever S is: no search
        return False
    _, rows = reach(matrix, j, m)
    return passes * (rows.size + SLOT_PASS_ROWS) <= EXACT_ORACLE_MAX_WORK


def cmd_estimate(args) -> int:
    if args.workers < 1:
        raise ValueError("workers must be >= 1")
    matrix = read_matrix_file(args.matrix, norm_bound=args.b)
    b = matrix.norm_bound
    params = choose_params(args.m, args.epsilon, args.fail_prob)
    backend = EstimatorBackend(args.backend, args.max_qubits)
    tol = args.epsilon * power_scale(b, args.m)
    pairs: list[tuple[str, object]] = [
        ("command", "estimate"),
        ("matrix", args.matrix),
        ("n", matrix.dim),
        ("j", args.j),
    ]
    files: list[tuple[str, str]] = []
    if args.i is not None:
        if args.samples_csv:
            raise ValueError("--samples-csv applies to diagonal runs only")
        estimate = estimate_offdiag(matrix, args.i, args.j, args.m, params, backend, seed=args.seed)
        pairs.append(("i", args.i))
        affordable = _oracle_affordable(matrix, args.j, args.m)
        exact = power_entry_exact(matrix, args.i, args.j, args.m) if affordable else None
        decision = None
    else:
        instance = DeeInstance(
            matrix=matrix, j=args.j, m=args.m, g=args.g, epsilon=args.epsilon, b=b
        )
        outcomes, estimate = _sample_diag(instance, params, backend, args)
        decision = decide(estimate, instance.g)
        if args.samples_csv:
            z = outcomes_to_z(outcomes, params.p)
            zm = z**params.m
            rows = ["a,z,zm"]
            rows.extend(
                f"{int(a)},{float(zv)!r},{float(zmv)!r}" for a, zv, zmv in zip(outcomes, z, zm)
            )
            files.append((args.samples_csv, "\n".join(rows) + "\n"))
        affordable = _oracle_affordable(matrix, args.j, args.m)
        exact = power_diag_exact(matrix, args.j, args.m) if affordable else None
    pairs.extend(
        [
            ("m", args.m),
            ("g", args.g),
            ("epsilon", args.epsilon),
            ("b", b),
            ("instance_hash", _instance_digest(matrix, args.i, args.j, args.m, args.g, args.epsilon, b)),
            ("backend", args.backend),
            ("seed", args.seed),
            ("p", params.p),
            ("eta", params.eta),
            ("theta", params.theta),
            ("k", params.k),
            ("delta", params.delta),
            ("estimate", estimate),
        ]
    )
    if decision is not None:
        pairs.append(("decision", decision.side.value))
    if exact is not None:
        pairs.append(("exact", exact))
        pairs.append(("within_tolerance", abs(estimate - exact) <= tol))
        if decision is not None:
            pairs.append(("promise_holds", abs(exact - args.g) >= tol))
    _emit(pairs, args.report, files)
    return 0


def _sample_diag(instance: DeeInstance, params, backend, args) -> tuple[np.ndarray, float]:
    """Outcomes for psi = e_j and the estimate of (A^m)_jj they give."""
    psi = np.zeros(instance.matrix.dim)
    psi[instance.j] = 1.0
    outcomes = sample_measurements(instance.matrix, instance.b, psi, params, backend, seed=args.seed)
    return outcomes, estimate_from_outcomes(outcomes, params, instance.b)


def cmd_exact(args) -> int:
    matrix = read_matrix_file(args.matrix)
    if args.i is not None:
        value = power_entry_exact(matrix, args.i, args.j, args.m)
    else:
        value = power_diag_exact(matrix, args.j, args.m)
    pairs = [
        ("command", "exact"),
        ("matrix", args.matrix),
        ("n", matrix.dim),
        ("j", args.j),
    ]
    if args.i is not None:
        pairs.append(("i", args.i))
    pairs.extend([("m", args.m), ("value", value)])
    _emit(pairs, args.report)
    return 0


def cmd_reduce(args) -> int:
    circuit = read_circuit_file(args.circuit)
    bits = args.input
    red = (gateset.reduce_integer if args.integer else hardness.reduce)(circuit, bits)
    dee = red.dee
    matrix = dee.matrix
    alpha = red.alpha1_sq
    n_pos = red.n_positions
    matrix_text = format_matrix(matrix, integer_values=args.integer)
    e0, e1 = hardness.moment_separation(n_pos, dee.m)
    predicted = dee.b**dee.m * hardness.predicted_diag(n_pos, alpha, dee.m)
    exact = power_diag_exact(matrix, dee.j, dee.m)
    tol = dee.epsilon * dee.b**dee.m
    verdict = "accept" if exact < dee.g else "reject"
    pairs = [
        ("command", "reduce"),
        ("circuit", args.circuit),
        ("input", bits),
        ("integer", bool(args.integer)),
        ("n_positions", n_pos),
        ("n", matrix.dim),
        ("j", dee.j),
        ("m", dee.m),
        ("g", dee.g),
        ("epsilon", dee.epsilon),
        ("b", dee.b),
        ("alpha1_sq", alpha),
        ("e0", e0),
        ("e1", e1),
        ("exact_diag", exact),
        ("predicted_diag", predicted),
        ("threshold_above", dee.g + tol),
        ("threshold_below", dee.g - tol),
        ("verdict", verdict),
        ("promise_holds", abs(exact - dee.g) >= tol),
        ("matrix_file", args.out_matrix),
    ]
    if not args.integer:
        pairs.insert(13, ("e0_exceeds_floor", e0 > hardness.separation_floor(n_pos)))
    _emit(pairs, args.out_meta, [(args.out_matrix, matrix_text)])
    return 0


def cmd_verify_bounds(args) -> int:
    if args.matrices < 1 or args.trials < 1:
        raise ValueError(f"--matrices and --trials must be >= 1, got {args.matrices} and {args.trials}")
    checks = run_bound_checks(n_matrices=args.matrices, trials=args.trials, seed=args.seed)
    all_passed = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        sys.stdout.write(f"{c.name}: bound={c.bound!r} measured={c.measured!r} {status}\n")
        all_passed = all_passed and c.passed
    sys.stdout.write(f"verify-bounds: {'PASS' if all_passed else 'FAIL'}\n")
    return 0 if all_passed else 2


def cmd_paths(args) -> int:
    if args.workers < 1:
        raise ValueError("workers must be >= 1")
    n, edges = read_graph_file(args.graph)
    matrix = adjacency_from_edges(n, edges)
    b = matrix.norm_bound
    tol = args.epsilon * power_scale(b, args.m)
    # the instance checks --j, then the sampler and the work bound refuse
    # oversized runs, all before the oracle's m matvecs
    instance = DeeInstance(matrix=matrix, j=args.j, m=args.m, g=0.0, epsilon=args.epsilon, b=b)
    params = choose_params(args.m, args.epsilon, args.fail_prob)
    _, estimate = _sample_diag(instance, params, analytic_backend(), args)
    if not _oracle_affordable(matrix, args.j, args.m):
        raise ValueError(f"the exact count needs over {EXACT_ORACLE_MAX_WORK} row-slots of oracle work; "
                         "use a smaller m")
    exact = power_diag_exact(matrix, args.j, args.m)
    pairs = [
        ("command", "paths"),
        ("graph", args.graph),
        ("n", n),
        ("j", args.j),
        ("m", args.m),
        ("b", b),
        ("closed_walks", int(round(exact))),
        ("exact", exact),
        ("epsilon", args.epsilon),
        ("seed", args.seed),
        ("estimate", estimate),
        ("tolerance", tol),
        ("within_tolerance", abs(estimate - exact) <= tol),
    ]
    _emit(pairs, args.report)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dee",
        description="Estimate diagonal entries of sparse symmetric matrix powers "
        "via simulated phase-estimation measurements, and reduce circuits to "
        "such instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run the measurement estimator on a matrix file")
    est.add_argument("--matrix", required=True, help="matrix file (N NNZ header, 'i j value' lines)")
    est.add_argument("--j", type=int, required=True, help="diagonal index, or column for --i")
    est.add_argument("--i", type=int, default=None, help="row index for an off-diagonal entry")
    est.add_argument("--m", type=int, required=True, help="matrix power")
    est.add_argument("--epsilon", type=float, required=True, help="accuracy, units of b^m")
    est.add_argument("--g", type=float, default=0.0, help="decision threshold (default 0)")
    est.add_argument("--b", type=float, default=None, help="norm bound (default Gershgorin)")
    est.add_argument("--fail-prob", type=float, default=0.05, help="failure probability budget")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--backend", choices=["analytic", "statevector"], default="analytic")
    est.add_argument("--max-qubits", type=int, default=MAX_STATEVECTOR_QUBITS,
                     help=f"statevector qubit cap, 1..{MAX_STATEVECTOR_QUBITS}")
    est.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    est.add_argument("--report", default=None, help="also write the report to this file")
    est.add_argument("--samples-csv", default=None, help="write per-shot a,z,zm rows")
    est.set_defaults(func=cmd_estimate)

    exa = sub.add_parser("exact", help="exact (A^m)_jj or (A^m)_ij by sparse matvecs")
    exa.add_argument("--matrix", required=True)
    exa.add_argument("--j", type=int, required=True)
    exa.add_argument("--i", type=int, default=None)
    exa.add_argument("--m", type=int, required=True)
    exa.add_argument("--report", default=None)
    exa.set_defaults(func=cmd_exact)

    red = sub.add_parser("reduce", help="reduce a circuit + input to a decision instance")
    red.add_argument("--circuit", required=True, help="circuit file (QUBITS n header)")
    red.add_argument("--input", required=True, help="input bit string, e.g. 0110")
    red.add_argument("--out-matrix", required=True, help="where to write the observable")
    red.add_argument("--out-meta", required=True, help="where to write instance metadata")
    red.add_argument(
        "--integer",
        action="store_true",
        help="emit the {-1,0,1} matrix at scale 2*sqrt(2) (Toffoli+Hadamard circuits)",
    )
    red.set_defaults(func=cmd_reduce)

    ver = sub.add_parser("verify-bounds", help="check the error-analysis bounds numerically")
    ver.add_argument("--matrices", type=int, default=20, help="random matrices per check")
    ver.add_argument("--trials", type=int, default=50, help="sampling trials")
    ver.add_argument("--seed", type=int, default=20260819)
    ver.set_defaults(func=cmd_verify_bounds)

    pat = sub.add_parser("paths", help="closed-walk counts of a graph, exact and estimated")
    pat.add_argument("--graph", required=True, help="graph file (N M header, 'u v' lines)")
    pat.add_argument("--j", type=int, required=True, help="start vertex")
    pat.add_argument("--m", type=int, required=True, help="walk length")
    pat.add_argument("--epsilon", type=float, default=0.25)
    pat.add_argument("--fail-prob", type=float, default=0.05)
    pat.add_argument("--seed", type=int, default=0)
    pat.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    pat.add_argument("--report", default=None)
    pat.set_defaults(func=cmd_paths)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wall_time_s: {time.perf_counter() - t0:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
