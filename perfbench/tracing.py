"""Spans around the package's public functions, installed from outside.

Each wrapper replaces a module attribute that callers resolve at call time,
such as `bucketing.simharness.code_success_exact` or a code class's
`assign`, so no file of the package changes.  A span is
(name, start, end, parent index); spans stay in memory and are written out
when the run ends.  Layer counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter, defaultdict

# Per-layer metrics reported by a traced run: name -> (unit, better).
PER_LAYER = {
    "information.single_term.calls": ("count", "lower"),
    "information.single_term.s": ("s", "lower"),
    "information.multi_block.calls": ("count", "lower"),
    "information.multi_block.s": ("s", "lower"),
    "information.infinite_mu.calls": ("count", "lower"),
    "information.infinite_mu.s": ("s", "lower"),
    "information.solver.runs": ("count", "lower"),
    "information.solver.nfev": ("count", "lower"),
    "information.solver.nit": ("count", "lower"),
    "information.info_numeric.calls": ("count", "lower"),
    "information.frontier.calls": ("count", "lower"),
    "information.frontier.s": ("s", "lower"),
    "information.direct_lower_bound.s": ("s", "lower"),
    "information.work_lower_bound.s": ("s", "lower"),
    "codes.code_success_exact.calls": ("count", "lower"),
    "codes.code_success_exact.s": ("s", "lower"),
    "codes.assign.calls": ("count", "lower"),
    "codes.assign.s": ("s", "lower"),
    "codes.assign.points": ("count", "lower"),
    "codes.assign.memberships": ("count", "lower"),
    "codes.build.s": ("s", "lower"),
    "simharness.run_experiment.s": ("s", "lower"),
    "simharness.run_experiment.self_s": ("s", "lower"),
    "simharness.comparisons": ("count", "lower"),
    "simharness.successes": ("count", "higher"),
    "probmodel.generate_dataset.calls": ("count", "lower"),
    "probmodel.generate_dataset.s": ("s", "lower"),
    "probmodel.points_sampled": ("count", "lower"),
    "rng.derive_rng.calls": ("count", "lower"),
    "rng.derive_rng.s": ("s", "lower"),
    "cli.dispatch.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}


def _regime(args, kwargs) -> str:
    mu = (kwargs.get("query") or args[1]).mu
    if mu <= 1:
        return "information.single_term"
    return "information.infinite_mu" if math.isinf(mu) else "information.multi_block"


def _count_solver(counts, args, out):
    counts["information.solver.runs"] += 1
    counts["information.solver.nfev"] += int(out.nfev)
    counts["information.solver.nit"] += int(getattr(out, "nit", 0))


def _count_assign(counts, args, out):
    counts["codes.assign.points"] += len(args[1])
    counts["codes.assign.memberships"] += sum(len(ids) for ids in out)


def _count_dataset(counts, args, out):
    counts["probmodel.points_sampled"] += out.n0 + out.n1


def _count_experiment(counts, args, out):
    counts["simharness.comparisons"] += round(out.mean_comparisons * out.trials)
    counts["simharness.successes"] += out.successes


class Tracer:
    """Records spans and counts through wrappers it installs and removes."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        `name` is a span name or a function of the call's (args, kwargs);
        `count(counts, args, result)` adds layer counts.  A call nested in a
        span of the same name (a composite code's `assign`) adds no counts.
        """
        fn = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else -1
            rec = [label, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None and (parent < 0 or spans[parent][0] != label):
                count(counts, args, out)
            return out

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self, bucketing) -> None:
        cli, codes, info = bucketing.cli, bucketing.codes, bucketing.information
        sim, prob = bucketing.simharness, bucketing.probmodel
        self.wrap(cli, "dispatch", "cli.dispatch")
        for owner in (info, cli):
            self.wrap(owner, "info_numeric", _regime)
        self.wrap(info, "minimize", "information.solver", _count_solver)
        self.wrap(info, "subconjugate_frontier", "information.frontier")
        self.wrap(cli, "direct_lower_bound", "information.direct_lower_bound")
        self.wrap(cli, "work_lower_bound", "information.work_lower_bound")
        for attr in ("shell_code", "classical_code", "shell_analytics"):
            self.wrap(cli, attr, "codes.build")
        self.wrap(cli, "run_experiment", "simharness.run_experiment",
                  _count_experiment)
        self.wrap(sim, "code_success_exact", "codes.code_success_exact")
        self.wrap(sim, "generate_dataset", "probmodel.generate_dataset",
                  _count_dataset)
        for cls in vars(codes).values():
            if isinstance(cls, type) and "assign" in vars(cls):
                self.wrap(cls, "assign", "codes.assign", _count_assign)
        for owner in (bucketing.rng, prob, sim, codes, info):
            self.wrap(owner, "derive_rng", "rng.derive_rng")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def metrics(self) -> dict:
        """Calls, busy seconds and self seconds per span name, plus counts."""
        calls, busy, child = Counter(), defaultdict(float), defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        calls["information.info_numeric"] = sum(
            calls[f"information.{r}"]
            for r in ("single_term", "multi_block", "infinite_mu"))
        values = dict(self.counts)
        for name in set(calls) | set(busy):
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.s"] = busy[name]
            values[f"{name}.self_s"] = self_s[name]
        values["cli.self_s"] = self_s["cli.dispatch"]
        return {key: values.get(key, 0) for key in PER_LAYER}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
