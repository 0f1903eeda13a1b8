#!/usr/bin/env python3
"""Quick check of the benchmark itself (about ten seconds).

    python3 perfbench/quick_check.py

Runs every workload at a tiny size for a few ops, untraced and traced,
with all correctness checks on, and verifies that each result names
exactly the metrics ``BENCHMARK.json`` lists. Then, for each workload,
it plants a fault in the library in memory (the least similar items retrieved, or
the weights handed out farthest-first) and verifies that the checks notice. Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import sys

import run
import spans

SEED = 7


def _spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def _reversed_weights(original):
    """Softmax weights handed out farthest-first."""

    def weights(distances, tau):
        return original(distances, tau)[::-1].copy()

    return weights


def _least_similar(original):
    """Top-m with the sign of the similarity flipped: the m least similar
    items, most dissimilar first."""

    def top_m(query, index, m):
        full = original(query, index, len(index))
        worst = full.items[::-1][:m]
        # RetrievedSet insists on nonincreasing scores, so relabel them.
        scores = sorted((score for _, score in worst), reverse=True)
        return type(full)(items=tuple(zip((i for i, _ in worst), scores)),
                          query_id=full.query_id)

    return top_m


#: (workload, fault, module, attribute, wrapper making the faulty version)
FAULTS = (
    ("vqgan-query", "least similar items retrieved", "retrieval", "top_m", _least_similar),
    ("vqgan-allpatch", "weights handed out farthest-first", "smoothing", "softmax_weights",
     _reversed_weights),
    ("desk-sweep", "least similar items retrieved", "retrieval", "top_m", _least_similar),
)


def main() -> int:
    end_to_end, per_layer, names = _spec()
    problems = []
    for name in names:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            result = run.run_workload(name, SEED, 0.0, trace, tiny=True, min_ops=3)
            got = {k: unit for k, (_, unit) in result["metrics"].items()}
            status = "ok"
            if not result["correct"] or result["failed"] or got != wanted:
                status = "FAILED"
                problems.append(f"{name} trace={trace}: correct={result['correct']} "
                                f"failed={result['failed']} metrics differ: "
                                f"{sorted(set(got.items()) ^ set(wanted.items()))} "
                                f"{result['details']}")
            print(f"{status:6} {name:15} trace={trace} attempted={result['attempted']}")

    ps = run.import_library()
    for name, fault, module, attr, make in FAULTS:
        owner = getattr(ps, module)
        tracer = spans.Tracer()
        tracer.patch_function(owner, attr, make)
        try:
            result = run.run_workload(name, SEED, 0.0, 0, tiny=True, min_ops=3)
        finally:
            tracer.uninstall()
        caught = not result["correct"]
        print(f"{'ok' if caught else 'FAILED':6} {name:15} fault {fault!r} "
              f"{'caught' if caught else 'NOT caught'}")
        if not caught:
            problems.append(f"{name}: fault {fault!r} passed the checks")

    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
