"""Benchmark of the `bucketing` package: one workload per fresh process.

    python3 perfbench/run.py --workload mc-exact --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run from the repository root.  The package is imported from ./src.  Each
workload runs in its own single-threaded child process (BLAS and OpenMP
pools set to one thread).  setup_s is the median, over PROBES fresh
interpreters, of the wall time from process start to built inputs.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics, or with --trace 1 the
per-layer ones).  Exits non-zero, printing no result, when anything fails
to run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

WORKLOADS = ("info-batch", "bound-cli", "mc-exact", "mc-scale")
PROBES = 3          # set-up samples per run, the measured run's own included
TIMEOUT_S = 170.0   # whole run, set-up probes included
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    paths = [str(Path("src").resolve()), str(HERE)]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def start_worker(args, extra, deadline):
    """Start a worker; return (process, seconds from start to 'ready')."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise SystemExit(f"{args.workload}: worker did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline) -> str:
    """Wait for the worker until the deadline; kill it past that."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker passed the run's time limit and was stopped")
    return out


def run_one(args) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    setup = []
    if not args.trace:
        for _ in range(PROBES - 1):
            proc, ready = start_worker(args, ["--probe"], deadline)
            finish(proc, deadline)
            if proc.returncode != 0:
                raise SystemExit(f"{args.workload}: set-up probe exited with {proc.returncode}")
            setup.append(ready)
    proc, ready = start_worker(args, [], deadline)
    setup.append(ready)
    out = finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"{args.workload}: worker exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "tasks_per_s": {"value": res["attempted"] / res["wall_s"], "unit": "1/s"},
            "task_p50_s": {"value": statistics.median(res["task_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not Path("src/bucketing/__init__.py").is_file():
        print("run from the repository root: src/bucketing not found", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
        summary = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                            for k, v in result["metrics"].items())
        print(f"# {name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}; {summary}")
        out_dir = Path("perfbench/out")
        out_dir.mkdir(parents=True, exist_ok=True)
        record = out_dir / f"result-{name}-{args.seed}-{args.trace}.json"
        record.write_text(json.dumps(result) + "\n")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
