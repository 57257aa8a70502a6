"""Run one workload of the rabivar benchmark and print its metrics.

    python3 bench/run.py --workload scan-fig2 --seed 7 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports rabivar from ``src/``.
One caller drives the workload's public call in a closed loop: calls run
strictly in sequence for about ``--seconds``, and at least two run.
Every call writes into a fresh directory under ``.bench_work/`` and its
outputs are checked afterwards, outside the timed region.

With ``--trace 0`` the metrics are the end-to-end ones: the median wall time
of a call, the median set-up time of fresh processes and the peak resident
memory.  With ``--trace 1`` untraced and traced calls alternate and the
metrics are the per-layer ones from the traced calls; the spans are written
to ``.bench_work/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

SETUP_SAMPLES = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# A fresh interpreter up to ready-to-run: imports rabivar with numpy and
# scipy, builds the workload's inputs, then prints the monotonic clock.
_SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.make({name!r}, workloads.call_seed({seed!r}, 0))
print(time.monotonic())
"""


def measure_setup(name: str, seed: int) -> float:
    """Median time from spawning a fresh process to its ready-to-run point."""
    code = _SETUP_CHILD.format(src=SRC, bench=BENCH, name=name, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True, timeout=120
        )
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def _blas_threads():
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def run_record(args) -> dict:
    """Where and on what the figures were measured."""
    import numpy as np
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
    }


def run_calls(make, seconds, tracer=None):
    """Closed loop of public calls; with a tracer, odd calls are traced.

    make(i) gives the workload with the inputs of the i-th input set.  A
    traced call repeats the inputs of the untraced call before it, so the
    two times compare like with like.  Returns the untraced and traced wall
    times and the checks of every call.
    """
    walls = {False: [], True: []}
    checks = []
    os.makedirs(WORK, exist_ok=True)
    start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        workload = make(n // 2 if tracer else n)
        with tempfile.TemporaryDirectory(dir=WORK) as out_dir:
            if traced:
                with tracer.installed(), tracer.span(workload.layer):
                    t0 = time.perf_counter()
                    output = workload.call(out_dir)
                    walls[True].append(time.perf_counter() - t0)
            else:
                t0 = time.perf_counter()
                output = workload.call(out_dir)
                walls[False].append(time.perf_counter() - t0)
            checks += workload.check(output, out_dir)
        n += 1
        elapsed = time.perf_counter() - start
        # Stop at the call boundary nearest to the time limit, after two calls.
        if n >= 2 and elapsed + elapsed / (2 * n) > seconds:
            return walls[False], walls[True], checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the README inputs")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import rabivar
    except ImportError as exc:
        print(f"cannot import rabivar from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(rabivar.__file__)) != os.path.join(SRC, "rabivar"):
        print(f"rabivar was imported from {rabivar.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    record = run_record(args)
    print("record " + json.dumps(record), flush=True)

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, checks = run_calls(
        lambda i: workloads.make(args.workload, workloads.call_seed(args.seed, i)), args.seconds, tracer
    )

    attempted = len(checks)
    failures = [(name, kind) for name, ok, kind in checks if not ok]
    correct = not any(kind == workloads.WRONG for _, kind in failures)

    if args.trace:
        values = tracing.layer_metrics(tracer.spans, len(traced), traced, untraced)
        units = tracing.PER_LAYER_UNITS
        with open(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"record": record, "spans": tracer.spans}, fh)
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("call wall_s untraced " + " ".join(f"{w:.4g}" for w in untraced) + " traced " + " ".join(f"{w:.4g}" for w in traced))
    print(f"failed_frac {len(failures) / attempted:.6g} fraction ({len(failures)} of {attempted} checks failed)")
    for name in sorted({name for name, _ in failures}):
        print(f"failed check {name} x{sum(n == name for n, _ in failures)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
