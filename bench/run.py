"""Run catbreed benchmark workloads and print their metrics.

    python3 bench/run.py --workload breed-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a worker process of its own (`bench/worker.py`), with
BLAS pinned to one thread and the package imported from ``src``. An
untraced run also starts set-up-only workers and reports the median set-up
time; it prints the end-to-end metrics named in BENCHMARK.json. A traced
run (``--trace 1``) prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# set-up-only workers per untraced run, besides the measured worker
SETUP_PROBES = 4
# a workload's processes must all end within this many seconds
WORKLOAD_BUDGET_S = 170.0
# One BLAS thread. On a 2-vCPU host whose second vCPU is often taken by the
# host (steal time), two threads made breed-sweep rounds vary from 6.3 to
# 10.6 s within one process; one thread gave 7.6 to 8.6 s.
BLAS_THREADS = 1


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(name: str, args, env: dict, deadline: float,
               setup_only: bool) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    # the worker leads a process group of its own, so that on a timeout the
    # commands it started are stopped with it
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            stop_group(proc)
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def stop_group(proc: subprocess.Popen) -> None:
    """Kill a worker's process group and wait until it has ended."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    for _ in range(100):     # orphans are reaped by init; allow 5 s
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(name: str, args, env: dict, spec: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = []
    if not args.trace:
        setups = [run_worker(name, args, env, deadline, True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    result = run_worker(name, args, env, deadline, False)
    setups.append(result["setup_s"])
    measured = dict(result["metrics"], setup_s=statistics.median(setups))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None:
            if not args.trace:
                raise RuntimeError(f"{name} did not measure {metric['name']}")
            value = 0  # a layer this workload does not call
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    record = dict(result["record"], commit=commit(), trace=args.trace,
                  seconds=args.seconds)
    print(f"[{name}] record {json.dumps(record, sort_keys=True)}")
    for failure in result["failures"]:
        print(f"[{name}] check failed: {failure}")
    for metric, entry in metrics.items():
        print(f"[{name}] {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"[{name}] attempted = {result['attempted']}, failed = "
          f"{result['failed']}, correct = {not result['failures']}")
    return {"correct": not result["failures"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workload_names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "catbreed" / "__init__.py").is_file():
        print(f"bench: no catbreed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    names = workload_names if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args, env, spec) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
