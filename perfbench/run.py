#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload vqgan-query --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
that checkout's ``src/``. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run instead. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh set-ups per untraced run, and fresh interpreters timed importing
#: the library; ``setup_s`` adds the two medians.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import patchsmooth; print(time.perf_counter() - t)"
)


def _blas_threads() -> str:
    """BLAS threads: one per CPU this process may run on."""
    return str(len(os.sched_getaffinity(0)))


def import_library():
    """Import ``patchsmooth`` from this checkout's ``src/``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, _blas_threads())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import patchsmooth

    if Path(patchsmooth.__file__).resolve().parent != SRC / "patchsmooth":
        raise ImportError(f"patchsmooth imported from {patchsmooth.__file__}, not {SRC}")
    return patchsmooth


def import_seconds(repeats: int) -> float:
    """Median time to import the library in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def min_ops_for_tail(pct: float) -> int:
    """Ops needed so that at least ten samples lie beyond the percentile."""
    return int(round(10 / (1 - pct / 100)))


def measure(wl, seconds: float, min_ops: int, first_op: int, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` of op time and ``min_ops`` ops.

    Only ``run_op`` is timed (a failed op's time counts towards the
    deadline too); each op's check runs after its clock stops.
    """
    latencies, failures = [], []
    busy = 0.0
    i = first_op
    while busy < seconds or len(latencies) + len(failures) < min_ops:
        for _ in range(wl.round_size):
            if tracer is not None:
                tracer.op = i - first_op
            start = time.perf_counter()
            try:
                result = wl.run_op(i)
            except Exception as exc:  # a failed op is counted, not fatal
                busy += time.perf_counter() - start
                failures.append(f"op {i}: {type(exc).__name__}: {exc}")
                i += 1
                continue
            latencies.append(time.perf_counter() - start)
            busy += latencies[-1]
            if tracer is not None:
                tracer.op = -1
            wl.check_op(i, result)
            i += 1
    return {"latencies": latencies, "failures": failures, "next_op": i}


def _percentile(values, pct):
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def run_untraced(ps, wl_cls, seed, seconds, workroot, tiny=False,
                 min_ops=None) -> tuple[dict, dict]:
    setup_times = []
    for r in range(SETUP_REPEATS):
        wl = wl_cls(ps, seed, workroot / f"setup{r}", tiny=tiny)
        start = time.perf_counter()
        wl.setup()
        warm = wl.run_op(0)
        setup_times.append(time.perf_counter() - start)
        wl.check_op(0, warm)
        if r < SETUP_REPEATS - 1:
            shutil.rmtree(wl.workdir, ignore_errors=True)
            del wl, warm
            gc.collect()

    if min_ops is None:
        min_ops = min_ops_for_tail(wl.tail_pct)
    run = measure(wl, seconds, min_ops, first_op=0)
    details = wl.finish()
    lat = run["latencies"]
    imports = import_seconds(IMPORT_REPEATS)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * _percentile(lat, wl.tail_pct), "ms"),
        "setup_s": (imports + statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details.update({
        "tail_percentile": wl.tail_pct,
        "timed_ops": len(lat),
        "setup_repeats_s": setup_times,
        "import_s_fresh_interpreter": imports,
        "failures": run["failures"],
        "latencies_ms": [round(1e3 * x, 3) for x in lat],
    })
    return {"attempted": len(lat) + len(run["failures"]), "failed": len(run["failures"]),
            "metrics": metrics}, details


def run_traced(ps, wl_cls, seed, seconds, workroot, trace_path, tiny=False) -> tuple[dict, dict]:
    from spans import Tracer

    wl = wl_cls(ps, seed, workroot / "setup0", tiny=tiny)
    tracer = Tracer()
    tracer.install(ps, wl.index_builders())
    wl.setup()
    wl.check_op(0, wl.run_op(0))
    tracer.uninstall()

    half = seconds / 2
    plain = measure(wl, half, 1, first_op=0)
    tracer.install(ps, wl.index_builders())
    try:
        traced = measure(wl, half, 1, first_op=plain["next_op"], tracer=tracer)
    finally:
        tracer.uninstall()
    details = wl.finish()
    tracer.write(trace_path)

    plain_rate = len(plain["latencies"]) / sum(plain["latencies"])
    traced_rate = len(traced["latencies"]) / sum(traced["latencies"])
    metrics = tracer.layer_metrics(len(traced["latencies"]))
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (plain_rate / traced_rate - 1.0), "%")
    failures = plain["failures"] + traced["failures"]
    details.update({"traced_ops": len(traced["latencies"]),
                    "untraced_ops": len(plain["latencies"]),
                    "spans": len(tracer.spans), "trace_file": str(trace_path),
                    "failures": failures})
    attempted = len(plain["latencies"]) + len(traced["latencies"]) + len(failures)
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}, details


def run_workload(name, seed, seconds, trace, tiny=False, min_ops=None) -> dict:
    """Run one workload in this process; return the result object.

    ``tiny`` shrinks the inputs and ``min_ops`` lowers the op floor, for
    the quick check of the benchmark itself.
    """
    ps = import_library()
    from reference import CheckFailed
    from workloads import WORKLOADS

    wl_cls = WORKLOADS[name]
    workroot = HERE / "work" / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    try:
        if trace:
            trace_path = results / f"trace-{name}-s{seed}-{os.getpid()}.json.gz"
            result, details = run_traced(ps, wl_cls, seed, seconds, workroot, trace_path, tiny)
        else:
            result, details = run_untraced(ps, wl_cls, seed, seconds, workroot, tiny, min_ops)
        result["correct"] = True
    except CheckFailed as exc:
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
        details = {"check_failed": str(exc)}
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    result["details"] = details
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "patchsmooth" / "__init__.py").is_file():
        print(f"no library source under {SRC}; run from a patchsmooth checkout", file=sys.stderr)
        return 2
    import_library()  # sets the BLAS thread count before numpy loads
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    details = result.pop("details")
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    (HERE / "results" / f"{stamp}.json").write_text(
        json.dumps({**result, "metrics": {k: list(v) for k, v in result["metrics"].items()},
                    "details": details}, indent=2, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in details.items():
        if key not in ("setup_repeats_s", "latencies_ms"):
            print(f"  {key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
