"""Timing wrappers installed around dee's public functions for a traced run.

dee modules import each other with `from ... import name`, so a function is
replaced in the namespace of every module that calls it (for example
`dee.qpe.eig_sym`, `dee.cli.power_diag_exact`), plus the class attribute
`SparseSymmetricMatrix.to_dense`.  Each call records a span (name, start,
end, parent span, request id) and the counters its arguments or result give.
Spans stay in memory; `remove()` puts every original attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import dee.cli
import dee.gateset
import dee.hardness
import dee.qpe
import dee.sparse
import dee.verify


def _exact_counts(a, m):
    return {"matvecs": m, "bytes": 24 * m * a.dim * a.max_row_nnz}


def _sample_counts(params):
    return {"shots": params.k, "p": params.p}


# (module, attribute, span name, counter function of the bound arguments)
# The counter functions take the call's bound arguments by name, plus
# `result` for the ones that count what came back.
TARGETS = [
    (dee.cli, "read_matrix_file", "sparse.parse", None),
    (dee.cli, "read_graph_file", "sparse.parse", None),
    (dee.cli, "format_matrix", "sparse.format", None),
    (dee.sparse.SparseSymmetricMatrix, "to_dense", "sparse.to_dense", None),
    (dee.cli, "power_diag_exact", "sparse.exact", lambda a, j, m, result: _exact_counts(a, m)),
    (dee.cli, "power_entry_exact", "sparse.exact", lambda a, i, j, m, result: _exact_counts(a, m)),
    (dee.verify, "power_diag_exact", "sparse.exact", lambda a, j, m, result: _exact_counts(a, m)),
    (dee.qpe, "eig_sym", "spectral.eig", lambda a, result: {"dim": len(a)}),
    (dee.verify, "eig_sym", "spectral.eig", lambda a, result: {"dim": len(a)}),
    (dee.qpe, "induced_measure", "spectral.induced", lambda result, **_: {"atoms": len(result.atoms)}),
    (dee.verify, "induced_measure", "spectral.induced", lambda result, **_: {"atoms": len(result.atoms)}),
    (dee.cli, "sample_measurements", "qpe.sample", lambda params, result, **_: _sample_counts(params)),
    (dee.verify, "sample_measurements", "qpe.sample", lambda params, result, **_: _sample_counts(params)),
    (dee.qpe, "sample_measurements", "qpe.sample", lambda params, result, **_: _sample_counts(params)),
    (dee.cli, "estimate_from_outcomes", "qpe.estimate", None),
    (dee.verify, "estimate_from_outcomes", "qpe.estimate", None),
    (dee.verify, "qpe_distribution_analytic", "qpe.distribution", lambda p, result, **_: {"entries": 1 << p}),
    (dee.verify, "qpe_distribution_unitary", "qpe.distribution", lambda p, result, **_: {"entries": 1 << p}),
    (dee.cli, "read_circuit_file", "circuits.parse", None),
    (dee.hardness, "accept_probability", "circuits.accept_probability", None),
    (dee.gateset, "accept_probability", "circuits.accept_probability", None),
    (dee.hardness, "reduce", "hardness.reduce", None),
    (dee.hardness, "build_observable", "hardness.build_observable", lambda clock, result: {"rows": result.dim}),
    (dee.hardness, "moment_separation", "hardness.moments", None),
    (dee.hardness, "predicted_diag", "hardness.moments", None),
    (dee.gateset, "reduce_integer", "gateset.reduce_integer", None),
    (dee.gateset, "build_integer_observable", "gateset.build_integer_observable", None),
    (dee.gateset, "even_m_thresholds", "gateset.moments", None),
    (dee.gateset, "predicted_integer_diag", "gateset.moments", None),
    (dee.verify, "phase_mass_check", "verify.phase_mass", None),
    (dee.verify, "atom_moment_check", "verify.atom_moment", None),
    (dee.verify, "state_moment_check", "verify.state_moment", None),
    (dee.verify, "sampling_check", "verify.sampling", None),
    (dee.verify, "perturbation_check", "verify.perturbation", None),
]

ROOT = "cli"


def dee_namespace_snapshot() -> dict:
    """Identity of every attribute of every loaded dee module and of the matrix class."""
    owners = [m for n, m in sorted(sys.modules.items()) if n == "dee" or n.startswith("dee.")]
    owners.append(dee.sparse.SparseSymmetricMatrix)
    return {(o.__name__, k): id(v) for o in owners for k, v in list(vars(o).items())}


class Tracer:
    """Span recorder; spans are (name, start, end, parent, request, counts)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._request: int | None = None

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][5].update(counter(result=result, **bound.arguments))
            return result

        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, request_id: int):
        """The root span of one request; wrapped calls record only inside one."""
        self._request = request_id
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            self._request = None

    def layer_totals(self, requests=None) -> dict[str, dict]:
        """Per span name: self time (duration minus direct children), calls, counters.

        With `requests`, only the spans of those request ids count.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "counts": defaultdict(list)})
        for idx, (name, start, end, _, request, counts) in enumerate(self.spans):
            if requests is not None and request not in requests:
                continue
            agg = out[name]
            agg["self_s"] += (end - start) - child_time[idx]
            agg["calls"] += 1
            for key, value in counts.items():
                agg["counts"][key].append(value)
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "request": r, **c}
            for n, s, e, p, r, c in self.spans
        ]
