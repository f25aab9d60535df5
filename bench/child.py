"""Fresh-interpreter probe for set-up time and peak memory.

Run as `python3 bench/child.py '<json>'` with src/ on PYTHONPATH, where the
JSON holds {"requests": [argv, ...]}.  It times `import dee.cli` plus the
first request (the workload's warm-up), runs the rest untimed, and prints one
JSON line: setup_s, the host-speed gauge's times just before and after the
timed region, peak_rss_mb (this process's high-water mark), and each
request's exit code and report digest.
"""

import time

import gauge

BEFORE = gauge.gauge()
T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from dee import cli  # noqa: E402


def serve(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    requests = json.loads(sys.argv[1])["requests"]
    results = [serve(requests[0])]
    setup_s = time.perf_counter() - T0
    after = gauge.gauge()
    results.extend(serve(argv) for argv in requests[1:])
    print(json.dumps({
        "setup_s": setup_s,
        "gauge_s": [BEFORE, after],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rc": [rc for rc, _ in results],
        "digest": [d for _, d in results],
    }))


if __name__ == "__main__":
    main()
