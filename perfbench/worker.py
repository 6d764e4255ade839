"""One benchmark workload in one process: build inputs, run tasks, check.

Started by run.py with the package on PYTHONPATH.  With --probe it stops
after printing "ready" (the set-up time sample); otherwise it runs whole
rounds of the workload's task list until --seconds have passed, checks
every task, and prints one JSON line with the task times and outcomes.
A round's inputs come from (seed, round), so no input repeats in a run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import bucketing
from bucketing import InfoQuery, make_matrix
from bucketing import cli, information

import reference as ref
from tracing import Tracer

OUT = Path("perfbench/out")

# info-batch: fixed base 2x2 matrices; a round mixes each with 5% of a
# Dirichlet draw from (seed, round), so cost stays comparable between seeds.
INFO_BASE = np.random.default_rng(20081024).dirichlet(np.ones(4), size=4)
INFO_JITTER = 0.05
INFO_MUS = (0.5, 1.0, 2.0, math.inf)
INFO_LAMBDAS = ((1.0, 1.0), (0.75, 0.5), (0.5, 1.0))

BOUND_ARGS = {"n0": 1000.0, "n1": 1000.0, "S": 0.9, "directions": 5}
BOUND_P = (0.8995, 0.9005)  # Bernoulli p: new to each round, same cost
SIM_P = 0.9
SHELL_ARGS = ["--code", "shell", "--d", "12", "--d0", "7", "--p", str(SIM_P),
              "--eps", "0.1", "--trials", "2000"]
SHELL_TASKS = 16
SCALE_ARGS = ["--code", "classical", "--d", "64", "--k", "13", "--T", "8",
              "--n0", "10000", "--n1", "10000", "--p", str(SIM_P), "--trials", "20"]
SCALE_TASKS = 5


def round_rng(seed: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng([seed, rnd])


# ------------------------------------------------------------ workloads
# Each workload gives tasks(seed, round) -> list of task dicts,
# run(task) -> raw output, and check(tasks, outputs) -> per-task failure
# lists plus the cases the self-check perturbs.

class InfoBatch:
    """info_numeric on four 2x2 matrices and two 4x4 tensor products."""

    def tasks(self, seed, rnd):
        rng = round_rng(seed, rnd)
        small = []
        for base in INFO_BASE:
            v = (1 - INFO_JITTER) * base + INFO_JITTER * rng.dirichlet(np.ones(4))
            small.append((v / v.sum()).reshape(2, 2))
        mats = small + [np.kron(small[0], small[1]), np.kron(small[2], small[3])]
        return [{"m": i, "p": m, "query": (l0, l1, mu)}
                for i, m in enumerate(mats)
                for mu in INFO_MUS for l0, l1 in INFO_LAMBDAS]

    def run(self, task):
        return information.info_numeric(make_matrix(task["p"]),
                                        InfoQuery(*task["query"]))

    def output_bytes(self, task, res):
        return res.to_json(InfoQuery(*task["query"])).encode()

    def check(self, tasks, outs):
        bad = [[] for _ in tasks]
        value = {}
        for i, (task, res) in enumerate(zip(tasks, outs)):
            blocks = [np.asarray(b.entries, float) for b in res.witness]
            bad[i] += ref.check_info(task["p"], task["query"], res.value, blocks)
            value[task["m"], task["query"]] = (i, res.value)
        for (m, (l0, l1, mu)), (i, v) in value.items():
            if m >= 4:  # products 4 = 0 x 1 and 5 = 2 x 3
                a, b = 2 * (m - 4), 2 * (m - 4) + 1
                bad[i] += ref.check_additivity(
                    v, value[a, (l0, l1, mu)][1], value[b, (l0, l1, mu)][1])
            if (l0, l1) != (1.0, 1.0):
                bad[i] += ref.check_monotone(value[m, (1.0, 1.0, mu)][1], v,
                                             "lambda")
            k = INFO_MUS.index(mu)
            if k:
                bad[i] += ref.check_monotone(
                    value[m, (l0, l1, INFO_MUS[k - 1])][1], v, "mu")
        task, res = tasks[-1], outs[-1]  # the last product at mu = inf
        l0, l1, mu = task["query"]
        case = {"p": task["p"], "query": task["query"], "value": res.value,
                "blocks": [np.asarray(b.entries, float) for b in res.witness],
                "i_product": res.value, "i_a": value[2, task["query"]][1],
                "i_b": value[3, task["query"]][1],
                "i_low": res.value, "i_high": value[5, (l0, l1, 2.0)][1]}
        return bad, [("info", case)]


class CliWorkload:
    """Shared by the CLI workloads: one `bucketing` call per task, its output
    written with --out and read back (a few hundred bytes) as the result."""

    def __init__(self, out_path: Path):
        self.out_path = out_path

    def run(self, task):
        if cli.dispatch(task["argv"] + ["--out", str(self.out_path)]) != 0:
            raise RuntimeError(f"bucketing {' '.join(task['argv'])} failed")
        return self.out_path.read_bytes()

    def output_bytes(self, task, out):
        return out


class BoundCli(CliWorkload):
    """`bucketing bound` on a Bernoulli matrix whose p is new to the run."""

    def tasks(self, seed, rnd):
        p = float(round_rng(seed, rnd).uniform(*BOUND_P))
        argv = ["bound", "--p", repr(p)]
        for key, value in BOUND_ARGS.items():
            argv += [f"--{key}", str(value)]
        return [{"p": p, "argv": argv}]

    def check(self, tasks, outs):
        bad, cases = [], []
        args = (BOUND_ARGS["n0"], BOUND_ARGS["n1"], BOUND_ARGS["S"])
        for task, raw in zip(tasks, outs):
            out = {}
            for line in raw.decode().splitlines():
                if not line.startswith("#"):
                    key, value = line.split()
                    out[key] = float(value)
            bad.append(ref.check_bound(out, task["p"], *args))
            cases.append(("bound", {"out": out, "args": (task["p"], *args)}))
        return bad, cases[:1]


class Simulate(CliWorkload):
    """`bucketing simulate` with distinct seeds.  The run's ExperimentResult
    and code are captured from `bucketing.cli.run_experiment` because
    mean_lookups is not in the CSV."""

    def __init__(self, out_path, kind, args, count):
        super().__init__(out_path)
        self.kind, self.args, self.count = kind, args, count
        self.captured = []
        inner = cli.run_experiment

        def capture(code, *rest, **kw):
            res = inner(code, *rest, **kw)
            self.captured.append((code, res))
            return res

        cli.run_experiment = capture

    def tasks(self, seed, rnd):
        seeds = round_rng(seed, rnd).choice(1 << 31, self.count, replace=False)
        return [{"argv": ["simulate", *self.args, "--seed", str(int(s))]}
                for s in seeds]

    def run(self, task):
        out = super().run(task)
        task["code"], task["result"] = self.captured.pop()
        return out

    def check(self, tasks, outs):
        bad, cases = [], []
        p = SIM_P
        for task, raw in zip(tasks, outs):
            text = raw.decode().splitlines()
            header, values = text[1].split(","), text[2].split(",")
            row = dict(zip(header, values))
            row = {k: (int(row[k]) if k in ("n0", "n1", "trials") else float(row[k]))
                   for k in ("n0", "n1", "trials", "empirical_S", "ci",
                             "predicted_S", "mean_comparisons", "predicted_W")}
            row["mean_lookups"] = task["result"].mean_lookups
            code = task["code"]
            if self.kind == "shell":
                r = ref.shell_reference(code.centers, code.d0, p)
                bad.append(ref.check_shell_run(row, r, p))
            else:
                r = ref.classical_reference(code.coords, p)
                bad.append(ref.check_classical_run(row, r, p))
            cases.append((self.kind, {"row": row, "ref": r, "p": p}))
        return bad, cases[:1]


def make_workload(name: str, out_dir: Path):
    out_path = out_dir / "task.out"
    if name == "info-batch":
        return InfoBatch()
    if name == "bound-cli":
        return BoundCli(out_path)
    if name == "mc-exact":
        return Simulate(out_path, "shell", SHELL_ARGS, SHELL_TASKS)
    if name == "mc-scale":
        return Simulate(out_path, "classical", SCALE_ARGS, SCALE_TASKS)
    raise SystemExit(f"unknown workload {name!r}")


# ------------------------------------------------------------------ main

def self_check(cases) -> list:
    """Names of perturbed results that a checker failed to reject."""
    missed = []
    for kind, case in cases:
        for label, call in ref.perturbations(kind, case):
            if not call():
                missed.append(f"{kind}: {label}")
    return missed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    src = Path("src").resolve()
    if Path(bucketing.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bucketing imported from {bucketing.__file__}, not {src}")
    out_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = make_workload(args.workload, out_dir)
    tasks = work.tasks(args.seed, 0)
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = Tracer()
    if args.trace:
        tracer.install(bucketing)
    rounds, times = [], []  # rounds: (tasks, outputs)
    start = time.perf_counter()
    while True:
        outs = []
        for task in tasks:
            t0 = time.perf_counter()
            outs.append(work.run(task))
            times.append(time.perf_counter() - t0)
        rounds.append((tasks, outs))
        if time.perf_counter() - start >= args.seconds:
            break
        tasks = work.tasks(args.seed, len(rounds))
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer.uninstall()

    problems = []
    if args.trace:
        task, out = rounds[0][0][0], rounds[0][1][0]
        again = work.run(task)  # untraced replay of the first task
        if work.output_bytes(task, again) != work.output_bytes(task, out):
            problems.append("traced and untraced outputs differ")
        tracer.dump(out_dir / "spans.jsonl")

    bad, cases = [], []
    for tasks, outs in rounds:
        b, c = work.check(tasks, outs)
        bad += b
        cases = cases or c
    for i, msgs in enumerate(bad):
        for msg in msgs:
            print(f"task {i} failed: {msg}", file=sys.stderr)
    problems += [f"self-check accepted {m}" for m in self_check(cases)]
    for msg in problems:
        print(msg, file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": len(bad),
        "failed": sum(1 for msgs in bad if msgs),
        "wall_s": wall,
        "task_s": times,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    if args.trace:
        result["layers"] = tracer.metrics()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
