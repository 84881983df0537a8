"""The valperm benchmark: seeded workloads, checked outputs, named metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fan4 --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``):

* ``fan4``: the work of ``valperm fan 4 --census --homology --refinement
  --patterns`` plus the symmetry orbits; one pass per run, no random input.
* ``flags4``: a seeded stream of random realizable complete flags on n = 4,
  each taken through the certificate chain.  The stream has ``--seconds``
  times a nominal rate flags, fixed before timing.

An operation is one pass on fan4 and one flag on flags4.  Each
workload runs in a fresh worker process (``worker.py``) with a fixed
PYTHONHASHSEED, single-process, as a closed loop with one caller.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones:

* ``setup_s``: median time for a fresh interpreter to import
  ``valperm.cli``, ``valperm.fans`` and ``valperm.subdivisions``, over
  SETUP_REPEATS runs after one untimed run that fills the bytecode cache;
* ``wall_s``: time for all operations of the run, without set-up and
  without generating inputs;
* ``ops_per_s``: operations that passed every check, per second of wall_s;
* ``op_p50_ms`` / ``op_p95_ms``: median and 95th percentile of the
  per-operation latency.  flags4 has 480 samples at ``--seconds 40``, 24
  of them beyond the 95th percentile; on fan4 (one sample) both read the
  single pass;
* ``peak_rss_mb``: peak resident set of the worker process.

The operation times behind wall_s, ops_per_s and the percentiles are at a
reference host speed: each is divided by the slowdown that the probe of
``hostspeed.py`` measured in the worker while it ran.  On a shared host
the raw times of one seed drift by 20% and more from run to run, the
scaled ones by a few percent.  The summary lines print the raw values too,
and the record keeps them.

``failed_ratio`` (failed / attempted operations) is printed in the summary;
the JSON line carries it as ``failed`` and ``attempted``.

With ``--trace 1`` the metrics are the per-layer ones of ``tracing.py``,
taken in a traced pass over the same operations as an untraced pass in the
same worker; ``trace_overhead_ratio`` is the ratio of their wall times at
reference speed.  The per-layer times are as measured.  The calls of dot,
combine_ray, vec_gcd_reduce, scale_to_int and permutohedron_vertices are
counted, not timed: their time is in the self time of the spans that call
them.

Every run writes a record (machine facts, workload properties, latencies,
failures) to ``perfbench/out``, and a traced run also its spans.  The exit
code is 0 when a result was printed, also when a check failed (then
``correct`` is false); it is 2 when the package sources are missing or the
arguments are bad, 1 when the worker fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNTED, METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fan4", "flags4")
HASH_SEED = "0"
SETUP_REPEATS = 9
SETUP_IMPORT = "import valperm.cli, valperm.fans, valperm.subdivisions"
DEADLINE_S = 175


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def setup_seconds(env):
    """Median time of SETUP_REPEATS fresh imports, after one untimed import
    that fills the bytecode cache.  The host probe does not track the cost of
    starting a process, so this time is reported as measured.  The wait has
    no timeout: with one, ``Popen.wait`` polls and rounds the time up to its
    50 ms polling step."""
    cmd = [sys.executable, "-c", SETUP_IMPORT]
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code = subprocess.Popen(cmd, env=env).wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times)


def end_to_end(worker, setup_s, passed, key):
    """End-to-end metrics from the operation times under ``key``: "s" (at
    reference speed, the reported ones) or "raw_s" (as measured)."""
    latencies = [r[key] for r in worker["results"]]
    wall = sum(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (passed / wall, "1/s"),
        "op_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "op_p95_ms": (1000 * percentile(latencies, 95), "ms"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="valperm benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "valperm" / "__init__.py").is_file():
        print(f"perfbench: no valperm sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_s = None if args.trace else setup_seconds(env)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"{tag}-spans.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("perfbench: the worker did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: the worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    results = worker["results"]
    attempted = len(results)
    failed = sum(1 for r in results if r["problems"])
    correct = failed == 0
    if args.trace:
        correct = (correct and worker["traced_digests_match"] and not worker["traced_failures"]
                   and not worker["unexpected_zeros"])
        metrics = {name: (worker["per_layer"][name], unit) for name, unit, _ in METRICS}
    else:
        metrics = end_to_end(worker, setup_s, attempted - failed, "s")
        raw_metrics = end_to_end(worker, setup_s, attempted - failed, "raw_s")

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernels_impl": worker["impl"],
        "pythonhashseed": HASH_SEED,
    }
    record = dict(facts, properties=worker["properties"], attempted=attempted, failed=failed,
                  correct=correct, metrics=metrics,
                  failures=[{"op": k, "problems": r["problems"]}
                            for k, r in enumerate(results) if r["problems"]],
                  latencies_s=[r["s"] for r in results],
                  raw_latencies_s=[r["raw_s"] for r in results],
                  slowdowns=[r["slowdown"] for r in results],
                  digests=[r["digest"] for r in results])
    if not args.trace:
        record["raw_metrics"] = raw_metrics
    for key in ("unexpected_zeros", "traced_digests_match"):
        if key in worker:
            record[key] = worker[key]
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in facts.items()))
    print("properties:", json.dumps(worker["properties"]))
    for name, (value, unit) in metrics.items():
        raw = f"  (as measured: {raw_metrics[name][0]:.6g})" if not args.trace else ""
        print(f"  {name} {value:.6g} {unit}{raw}")
    print(f"  failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for key in ("unexpected_zeros", "traced_digests_match"):
        if key in worker:
            print(f"  {key}: {worker[key]}")
    if args.trace:
        print("  note: calls of", ", ".join(COUNTED), "are counted, not timed;",
              "their time is in the self time of the calling spans")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
