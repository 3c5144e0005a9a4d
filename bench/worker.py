"""One workload in a process of its own: set up, run timed rounds, check.

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                           [--setup-only]

`bench/run.py` starts this with BLAS threads pinned and ``PYTHONPATH`` set
to the package sources. Set-up time runs from the start of this module,
before numpy and catbreed are imported. Rounds run back to back while the
next one is expected to end within ``--seconds``; at least one always runs.
With ``--trace 1`` untraced and traced rounds alternate. Rounds of one input
set must produce outputs with one digest, which in a traced run shows that
the spans do not change what is measured. The last line of standard output
is one JSON object.
"""

import time

_START = time.perf_counter()

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy
import scipy

import tracing
import workloads


def _blas_version() -> str:
    try:
        return numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        return "unknown"


def _record(args, rounds: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
    }


def run_rounds(workload, seconds: float, trace: bool) -> dict:
    walls = {False: [], True: []}
    rates = []      # operations completed per second, per untraced round
    tracers, extras, digests, failures = [], [], {}, []
    ops = failed = 0
    timed = 0.0
    # a traced run alternates untraced and traced rounds, at least one of each
    min_rounds = 2 if trace else 1
    for index in itertools.count():
        traced = trace and index % 2 == 1
        # a traced round repeats the input set of the untraced round before it
        inputs = (index // 2 if trace else index) % workload.n_slices
        tracer = tracing.Tracer() if traced else None
        start = time.perf_counter()
        rnd = workload.run_round(inputs, tracer)
        wall = time.perf_counter() - start
        timed += wall
        walls[traced].append(wall)
        if not traced:
            rates.append((rnd.ops - rnd.failed) / wall)
        ops += rnd.ops
        failed += rnd.failed
        if inputs not in digests:
            failures += workload.check(rnd.outputs)
        digests.setdefault(inputs, set()).add(workload.digest(rnd.outputs))
        workload.discard(rnd.outputs)
        if traced:
            tracers.append(tracer)
            extras.append(rnd.layer_extras)
        rounds = index + 1
        if rounds >= min_rounds and timed + timed / rounds > seconds:
            break
    for inputs, seen in digests.items():
        if len(seen) != 1:
            failures.append(f"input set {inputs}: outputs differ between "
                            f"rounds ({len(seen)} distinct digests)")

    plain = walls[False]
    if workload.caches_in_process and len(plain) > 1:
        # the first round filled the caches; ops_per_s still counts it
        plain = plain[1:]
    # medians over rounds, so that a slow spell of the host within a run
    # moves them less than a mean would
    metrics = {
        "wall_s": statistics.median(plain),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(workload.rss_who).ru_maxrss / 1024.0,
    }
    if trace:
        metrics.update(tracing.layer_metrics(tracers))
        for key in extras[0]:
            metrics[key] = statistics.fmean(e[key] for e in extras)
        metrics.update(workload.layer_probe())
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(plain))
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{workload.name}-seed{workload.seed}.json",
                  "w") as fh:
            json.dump([{"spans": t.spans, "counters": t.counters}
                       for t in tracers], fh)
    return {"attempted": ops, "failed": failed, "failures": failures,
            "metrics": metrics, "rounds": rounds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = run_rounds(workload, args.seconds, bool(args.trace))
            result["setup_s"] = setup_s
            result["record"] = _record(args, result.pop("rounds"))
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
