"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import dee.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as fh:
    META = json.load(fh)


class TinyEstimate(workloads.Estimate):
    dense_dims = (24, 16)
    epsilon = 0.5
    dim_range = (4, 9)
    graph_range = (4, 7)
    max_reduction_qubits = 2
    min_requests = 12


class TinyReduceVerify(workloads.ReduceVerify):
    reductions = ((False, 2, 2, 5), (True, 3, 2, 4))
    period = 2 * len(reductions)
    matrices = 1
    trials = 1
    min_requests = 12


TINY = (TinyEstimate, TinyReduceVerify)


def _printed_metrics(text: str) -> dict[str, str]:
    """name -> unit for every 'name: <number> <unit>' line."""
    out = {}
    for line in text.splitlines():
        m = re.match(r"^([\w.]+): (-?[0-9.e+-]+|nan|inf) (\S+)", line)
        if m:
            out[m.group(1)] = m.group(3)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_every_metric_printed_with_unit(cls, trace, capsys):
    result = run.run(cls, 3, 0.01, bool(trace), ROOT, SPEC, META)
    printed = _printed_metrics(capsys.readouterr().out)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert printed["failed_share"] == "share"
    if not trace:  # the wall times as measured, beside their reference-speed metrics
        assert {printed.get(k) for k in ("latency_p50_s", "latency_tail_s")} == {"s"}
        assert printed.get("throughput_rps") == "1/s"
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= cls.min_requests


def _served(stream, i):
    req = stream.get(i)
    _, rc, report, _ = run.serve(dee.cli, req.argv)
    return req, rc, report


def test_wrong_exact_value_trips_the_gate(tmp_path):
    stream = TinyEstimate(5, str(tmp_path))
    req, rc, report = _served(stream, 1)
    assert req.kind == "estimate"
    assert workloads.check(req, rc, report) == []
    wrong = replace(req, expect={**req.expect, "exact": req.expect["exact"] + 2 * req.expect["tol"]})
    assert any("exceeds eps*b^m" in p for p in workloads.check(wrong, rc, report))


def test_wrong_reduce_diagonal_trips_the_gate(tmp_path):
    stream = TinyReduceVerify(5, str(tmp_path))
    req, rc, report = _served(stream, 0)
    assert workloads.check(req, rc, report) == []
    exact = workloads.report_fields(report)["exact_diag"]
    tampered = report.replace(f"exact_diag: {exact}\n", f"exact_diag: {float(exact) + 1e-6!r}\n")
    assert any("predicted_diag" in p for p in workloads.check(req, rc, tampered))


def test_trace_wrappers_restore_every_dee_attribute(tmp_path):
    before = tracing.dee_namespace_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.dee_namespace_snapshot() != before
        stream = TinyEstimate(5, str(tmp_path))
        with tracer.request(0):
            _served(stream, 0)
    finally:
        tracer.remove()
    assert tracing.dee_namespace_snapshot() == before
    names = {span[0] for span in tracer.spans}
    assert {"cli", "sparse.parse", "sparse.to_dense", "spectral.eig", "qpe.sample"} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reduce-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
