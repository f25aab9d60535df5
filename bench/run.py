"""Benchmark of dee's estimate, reduce and verify pipelines.

Run from the repository root:

    python3 bench/run.py --workload estimate --seed 1 --seconds 40 --trace 0

The benchmark generates its inputs from --seed (see workloads.py), then acts
as one closed-loop client: it calls `dee.cli.main(argv)` in this process with
one request in flight and `--workers 1`, for --seconds seconds of request
time.  Every report is checked for correctness, outside the timed region.

--trace 0 measures the end-to-end metrics: latency median and tail and
throughput, at a reference host speed gauged around every request (see
README.md), and, from fresh interpreters, set-up time and peak memory.
--trace 1 runs the same window untraced, then replays its requests with
timing wrappers installed (tracing.py) and reports per-layer self times and
counters.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import gauge

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5  # fresh interpreters per run; setup_s and peak_rss_mb are their medians
PROBE_REQUESTS = 2  # requests each probe runs: the warm-up and the next one
PASSES = 3  # times the window runs its requests; a request's latency is the median pass
DIGEST_REQUESTS = 3  # requests 0..2, whose first reports make the report digest
WALL_LIMIT_S = 30.0  # stop starting new requests in the first pass past this, so a run ends inside 180 s


@dataclass
class Outcome:
    index: int
    latency: float  # wall time, median of the request's passes
    ref: float  # wall time at the reference host speed, median of the passes


def serve(cli, argv) -> tuple[float, int, str, str]:
    """One request: time dee.cli.main(argv), capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request, not a crashed benchmark
            traceback.print_exc()
            rc = -1
        latency = time.perf_counter() - t0
    return latency, rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs requests of one stream, checks each, and keeps first reports and failures."""

    def __init__(self, cli, stream, workloads) -> None:
        self.cli = cli
        self.stream = stream
        self.workloads = workloads
        self.first_report: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.gauges: list[float] = []

    def run(self, i: int) -> Outcome:
        req = self.stream.get(i)  # generates the inputs; not timed
        before = gauge.gauge()
        latency, rc, report, err = serve(self.cli, req.argv)
        after = gauge.gauge()
        self.gauges += [before, after]
        problems = self.workloads.check(req, rc, report)
        if i in self.first_report and report != self.first_report[i]:
            problems.append("report differs from the first run of this request")
        self.first_report.setdefault(i, report)
        self.record(i, req, problems, err)
        return Outcome(i, latency, latency * gauge.speed(before, after))

    def record(self, i, req, problems, err="") -> None:
        self.attempted += 1
        if problems:
            tail = err.strip().splitlines()[-1:] if err.strip() else []
            self.failures.append(
                f"request {i} ({req.kind}: dee {' '.join(req.argv)}): " + "; ".join(problems + tail)
            )

    def window(self, seconds: float, start: int) -> list[Outcome]:
        """Closed loop over requests `start`, `start + 1`, ... in PASSES passes.

        The first pass runs new requests, in whole periods of the stream,
        until seconds / PASSES of request time have passed; each later pass
        runs the same requests again, in the same order.  Each outcome holds
        the median of a request's passes.
        """
        first: list[Outcome] = []
        busy = 0.0
        wall0 = time.perf_counter()
        i = start
        while busy < seconds / PASSES or len(first) < self.stream.min_requests or (i - start) % self.stream.period:
            if time.perf_counter() - wall0 > WALL_LIMIT_S:
                break
            first.append(self.run(i))
            busy += first[-1].latency
            i += 1
        passes = [first] + [[self.run(o.index) for o in first] for _ in range(PASSES - 1)]
        return [
            Outcome(runs[0].index, statistics.median(p.latency for p in runs), statistics.median(p.ref for p in runs))
            for runs in zip(*passes)
        ]


def latency_stats(outcomes: list[Outcome], field: str = "latency") -> dict:
    lat = sorted(getattr(o, field) for o in outcomes)
    n = len(lat)
    stats = {"n": n, "p50": statistics.median(lat), "throughput": n / sum(lat)}
    if n <= 10:
        raise RuntimeError(f"only {n} requests completed; the tail percentile needs more than 10")
    # the highest percentile with at least ten samples beyond it
    stats["tail"] = lat[n - 11]
    stats["tail_pct"] = 100.0 * (n - 10) / n
    return stats


def probe_setup(root: str, stream, runner: Runner) -> tuple[list[float], list[float], list[float]]:
    """Fresh interpreters: import dee.cli + warm-up request, then a few more requests.

    Returns each probe's set-up time at the reference host speed, its wall
    set-up time and its peak RSS.
    """
    reqs = [stream.get(i) for i in range(PROBE_REQUESTS)]
    payload = json.dumps({"requests": [list(r.argv) for r in reqs]})
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    setup, wall, rss = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), payload],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(got["setup_s"] * gauge.speed(*got["gauge_s"]))
        wall.append(got["setup_s"])
        rss.append(got["peak_rss_mb"])
        for req, rc, digest in zip(reqs, got["rc"], got["digest"]):
            problems = [] if rc == 0 else [f"exit code {rc} in a fresh interpreter"]
            first = runner.first_report.get(req.index)
            if first is not None and hashlib.sha256(first.encode()).hexdigest() != digest:
                problems.append("report in a fresh interpreter differs from the in-process one")
            runner.record(req.index, req, problems)
    return setup, wall, rss


def environment() -> list[tuple[str, str]]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        ("env.nproc", str(os.cpu_count())),
        ("env.python", platform.python_version()),
        ("env.numpy", np.__version__),
        ("env.blas", f"{blas.get('name')} {blas.get('version')}"),
        ("env.blas_threads", blas_threads()),
        ("env.platform", platform.platform()),
    ]


def blas_threads() -> str:
    """Thread count OpenBLAS will use, asked of the library bundled with numpy."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return str(getattr(lib, fn)())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def input_summary(stream, outcomes: list[Outcome]) -> list[tuple[str, str]]:
    """What the timed requests exercised: sizes, powers, registers and shots."""
    props = defaultdict(list)
    kinds = defaultdict(int)
    for o in outcomes:
        req = stream.get(o.index)
        kinds[req.kind] += 1
        for key, value in req.props.items():
            props[key].append(value)
    lines = [("input.requests", ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items())))]
    for key in ("dim", "nnz", "m", "p", "k", "M", "qubits", "matrices", "trials"):
        if props[key]:
            lines.append((f"input.{key}", f"{min(props[key])}..{max(props[key])}"))
    if props["k"]:
        lines.append(("input.shots_total", str(sum(props["k"]))))
    return lines


def leaders(totals: dict, top: int = 4) -> str:
    """The spans with the most self time, with their share of all traced time."""
    total = sum(t["self_s"] for t in totals.values())
    ranked = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    return ", ".join(f"{name} {t['self_s']:.3f} s ({100 * t['self_s'] / total:.0f}%)" for name, t in ranked)


def layer_metrics(tracer, traced_p50: float, untraced_p50: float) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from the traced spans, and call counts for the timed ones."""
    t = tracer.layer_totals()

    def self_s(name):
        return t[name]["self_s"] if name in t else 0.0

    def counts(name, key):
        return t[name]["counts"][key] if name in t else []

    shots = sum(counts("qpe.sample", "shots"))
    sample_self = self_s("qpe.sample")
    exact = "sparse.exact"
    out = {
        "cli.self_s": self_s("cli"),
        "sparse.parse_s": self_s("sparse.parse"),
        "sparse.format_s": self_s("sparse.format"),
        "sparse.to_dense_s": self_s("sparse.to_dense"),
        "sparse.exact_s": self_s(exact),
        "sparse.exact_matvecs": sum(counts(exact, "matvecs")),
        "sparse.exact_bytes_computed": sum(counts(exact, "bytes")),
        "spectral.eig_s": self_s("spectral.eig"),
        "spectral.eig_dim_max": max(counts("spectral.eig", "dim"), default=0),
        "spectral.induced_s": self_s("spectral.induced"),
        "spectral.atoms": sum(counts("spectral.induced", "atoms")),
        "qpe.sample_self_s": sample_self,
        "qpe.shots": shots,
        "qpe.us_per_shot": 1e6 * sample_self / shots if shots else 0.0,
        "qpe.p_max": max(counts("qpe.sample", "p"), default=0),
        "qpe.estimate_s": self_s("qpe.estimate"),
        "qpe.distribution_s": self_s("qpe.distribution"),
        "qpe.distribution_entries": sum(counts("qpe.distribution", "entries")),
        "circuits.parse_s": self_s("circuits.parse"),
        "circuits.accept_probability_s": self_s("circuits.accept_probability"),
        "hardness.build_observable_s": self_s("hardness.build_observable"),
        "hardness.rows_built": sum(counts("hardness.build_observable", "rows")),
        "hardness.reduce_self_s": self_s("hardness.reduce"),
        "hardness.moments_s": self_s("hardness.moments"),
        "gateset.build_integer_observable_s": self_s("gateset.build_integer_observable"),
        "gateset.reduce_integer_self_s": self_s("gateset.reduce_integer"),
        "gateset.moments_s": self_s("gateset.moments"),
        "verify.phase_mass_s": self_s("verify.phase_mass"),
        "verify.atom_moment_s": self_s("verify.atom_moment"),
        "verify.state_moment_s": self_s("verify.state_moment"),
        "verify.sampling_s": self_s("verify.sampling"),
        "verify.perturbation_s": self_s("verify.perturbation"),
        "trace.overhead_share": traced_p50 / untraced_p50 - 1.0,
    }
    calls = {
        "cli.self_s": "cli", "sparse.parse_s": "sparse.parse", "sparse.format_s": "sparse.format",
        "sparse.to_dense_s": "sparse.to_dense", "sparse.exact_s": exact, "spectral.eig_s": "spectral.eig",
        "spectral.induced_s": "spectral.induced", "qpe.sample_self_s": "qpe.sample",
        "qpe.estimate_s": "qpe.estimate", "qpe.distribution_s": "qpe.distribution",
    }
    return out, {k: (t[v]["calls"] if v in t else 0) for k, v in calls.items()}


def run(workload_cls, seed: int, seconds: float, trace: bool, root: str, spec: dict, meta: dict) -> dict:
    """One benchmark run; prints its report lines and returns the result object."""
    import dee.cli
    import tracing
    import workloads

    workdir = os.path.join(root, ".bench_work", f"{workload_cls.name}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    stream = workload_cls(seed, os.path.relpath(workdir, root))
    runner = Runner(dee.cli, stream, workloads)
    lines: list[tuple[str, str]] = [("workload", workload_cls.name), ("why", workload_cls.why), ("seed", str(seed))]
    lines += [("client", "closed loop, 1 client, 1 request in flight, --workers 1")]
    lines += environment()

    warm = runner.run(0)
    window = runner.window(seconds, start=1)
    stats = latency_stats(window)
    metrics: dict[str, float] = {}
    extra: dict[str, str] = {}

    if trace:
        tracer = tracing.Tracer()
        before = tracing.dee_namespace_snapshot()
        tracer.install()
        try:
            traced = []
            for o in window:
                with tracer.request(o.index):
                    traced.append(runner.run(o.index))
        finally:
            tracer.remove()
        if tracing.dee_namespace_snapshot() != before:
            raise RuntimeError("trace wrappers were not fully removed")
        untraced_p50 = latency_stats(window, "ref")["p50"]
        layer, calls = layer_metrics(tracer, latency_stats(traced, "ref")["p50"], untraced_p50)
        metrics.update(layer)
        spans_path = os.path.join(root, ".bench_work", f"spans-{workload_cls.name}-{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        extra.update({k: f"calls {n}" for k, n in calls.items()})
        lines.append(("trace.leading_layers", leaders(tracer.layer_totals())))
        by_kind = defaultdict(set)
        for o in window:
            by_kind[stream.get(o.index).kind].add(o.index)
        for kind, ids in sorted(by_kind.items()):
            lines.append((f"trace.leading_layers.{kind}", leaders(tracer.layer_totals(ids))))
        lines.append(("trace.spans_file", os.path.relpath(spans_path, root)))
    else:
        setup, setup_wall, rss = probe_setup(root, stream, runner)
        ref = latency_stats(window, "ref")
        metrics.update({
            "latency_p50_ref_s": ref["p50"],
            "latency_tail_ref_s": ref["tail"],
            "throughput_ref_rps": ref["throughput"],
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
        })
        extra["latency_p50_ref_s"] = f"at the reference host speed, over {ref['n']} requests after 1 warm-up, each the median of {PASSES} passes"
        extra["latency_tail_ref_s"] = f"p{ref['tail_pct']:.1f} of {ref['n']} requests, 10 beyond it"
        extra["throughput_ref_rps"] = "requests over their summed time at the reference host speed"
        # the same statistics of the wall times as measured, at whatever speed the host ran
        lines.append(("latency_p50_s", f"{stats['p50']!r} s  (wall time, same requests and passes)"))
        lines.append(("latency_tail_s", f"{stats['tail']!r} s  (wall time, p{stats['tail_pct']:.1f})"))
        lines.append(("throughput_rps", f"{stats['throughput']!r} 1/s  (wall time)"))
        extra["setup_s"] = (f"at the reference host speed, median of {SETUP_PROBES} fresh interpreters: "
                            + ", ".join(f"{s:.4f}" for s in setup) + "; wall " + ", ".join(f"{s:.4f}" for s in setup_wall))
        extra["peak_rss_mb"] = f"median of {SETUP_PROBES} fresh interpreters running {PROBE_REQUESTS} requests"

    digest = hashlib.sha256("".join(runner.first_report[i] for i in range(DIGEST_REQUESTS)).encode()).hexdigest()[:16]
    recorded = meta["report_digests"].get(workload_cls.name) if seed == meta["default_seed"] else None
    verdict = "no record for this seed" if recorded is None else ("matches" if recorded == digest else "differs from") + " the recorded " + recorded

    lines += input_summary(stream, window)
    reruns = f"{PASSES - 1 + trace} in-process reruns of each window request"
    fresh = f"requests 0..{PROBE_REQUESTS - 1} in {SETUP_PROBES} fresh interpreters" if not trace else "no fresh interpreters"
    lines.append(("determinism", f"{reruns}, {fresh}, compared with the first report"))
    lines.append(("report_digest", f"{digest} ({verdict})"))
    lines.append(("warmup_latency_s", repr(warm.latency)))
    lines.append(("host_speed", f"{gauge.REF_S / statistics.median(runner.gauges)!r} of the reference, the median over {len(runner.gauges)} gauge runs"))
    if trace:
        lines.append(("untraced.latency_p50_ref_s", f"{untraced_p50!r} s over {stats['n']} requests"))

    failed = len(runner.failures)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        note = f"  ({extra[name]})" if name in extra else ""
        lines.append((name, f"{value!r} {units[name]}{note}"))
    lines.append(("failed_share", f"{failed / runner.attempted!r} share  ({failed} of {runner.attempted} requests)"))
    for f in runner.failures:
        lines.append(("failed", f))
    for key, value in lines:
        print(f"{key}: {value}")

    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    root = os.getcwd()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(root, "src", "dee", "cli.py")):
        print("error: src/dee/cli.py not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root, spec, meta)
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        print(f"error: metrics {sorted(set(result['metrics']) ^ wanted)} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
