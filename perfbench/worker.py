"""Run one workload in this process and print its raw results as one JSON line.

``run.py`` starts this in a fresh interpreter with a fixed PYTHONHASHSEED and
``src`` on PYTHONPATH.  Inputs are generated before any timing starts.  The
operations run in a closed loop with one caller, single-process: the next
operation starts when the previous one returns, and no pool is started.

Each operation's time is reported twice: ``raw_s`` as measured and ``s``
divided by the host slowdown the probe of ``hostspeed.py`` saw around it.

With ``--trace 1`` the same operations run twice, first untraced and then
under the tracer, so the trace overhead and the digests of both passes are
compared on identical work.
"""

import argparse
import json
import resource
import time
from collections import Counter

import hostspeed
import tracing
import workloads
from valperm import kernels


def run_items(items, op):
    """Time each operation; a raised exception counts as a failed operation."""
    results = []
    with hostspeed.Sampler() as sampler:
        for index, item in enumerate(items):
            spent = sampler.spent
            start = time.perf_counter()
            try:
                problems, digest, cells = op(index, item)
            except Exception as exc:  # a failing operation is recorded, the run goes on
                problems, digest, cells = [f"{type(exc).__name__}: {exc}"], None, None
            end = time.perf_counter()
            results.append({"start": start, "end": end, "raw_s": end - start - (sampler.spent - spent),
                            "problems": problems, "digest": digest, "cells": cells})
    for r in results:
        r["slowdown"] = sampler.slowdown(r.pop("start"), r.pop("end"))
        r["s"] = r["raw_s"] / r["slowdown"]
    return results


def make_op(workload, tracer):
    if workload == "fan4":
        def stage(name):
            if tracer is not None:
                tracer.item = name

        def op(index, _):
            problems, digest = workloads.run_fan4(stage)
            return problems, digest, None
    else:
        def op(index, matrix):
            if tracer is not None:
                tracer.item = index
            return workloads.certify_flag(matrix)
    return op


def check_pins(workload, seed, results):
    """Mark flags whose digest differs from the one pinned for the default seed."""
    if workload == "fan4" or seed != workloads.DEFAULT_SEED:
        return
    for result, pinned in zip(results, workloads.PINNED_FLAG_DIGESTS):
        if result["digest"] is not None and result["digest"][:16] != pinned:
            result["problems"].append("pinned-digest")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("fan4", "flags4"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="where to write the spans of a traced run")
    args = parser.parse_args()

    if args.workload == "fan4":
        items, properties = [None], {"passes": 1}
    else:
        count = workloads.flag_count(args.seconds)
        items, rejects = workloads.random_matrices(workloads.FLAG_N, args.seed, count)
        properties = {"n": workloads.FLAG_N, "flags": count, "rejects": rejects}

    results = run_items(items, make_op(args.workload, None))
    check_pins(args.workload, args.seed, results)
    if args.workload != "fan4":
        cells = Counter(r["cells"] for r in results if r["cells"] is not None)
        properties["cells_histogram"] = {str(k): v for k, v in sorted(cells.items())}
    out = {
        "impl": kernels.IMPL,
        "properties": properties,
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_items(items, make_op(args.workload, tracer))
        finally:
            tracer.uninstall()
        per_layer = tracing.layer_metrics(tracer)
        per_layer["trace_overhead_ratio"] = sum(r["s"] for r in traced) / sum(r["s"] for r in results)
        out["per_layer"] = per_layer
        out["unexpected_zeros"] = tracing.unexpected_zeros(args.workload, per_layer)
        out["traced_digests_match"] = [r["digest"] for r in traced] == [r["digest"] for r in results]
        out["traced_failures"] = sum(1 for r in traced if r["problems"])
        if args.spans:
            tracing.write_spans(tracer, args.spans)

    print(json.dumps(out))


if __name__ == "__main__":
    main()
