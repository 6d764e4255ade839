"""Checks of every benchmark task against computations made apart from the
package: closed forms, the defining objective of I, properties the methods
must have, and exact enumerations of the Monte Carlo expectations.

Nothing here imports `bucketing`; each checker returns a list of failure
messages, empty when the result passes.  `perturbations` feeds each checker
altered results and is used by the run's self-check.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

WITNESS_TOL = 1e-9      # witness re-evaluation, mass and mixture
CLOSED_FORM_TOL = 1e-6  # numeric I against the closed forms at l0 = l1 = 1
ADDITIVITY_TOL = 5e-3   # |I(A x B) - I(A) - I(B)|, acceptance criterion 2
MONOTONE_TOL = 5e-3     # slack for optimizer error in monotonicity
BISECTION_TOL = 2e-4    # two coordinates, each bisected to 1e-4
SIGMAS = 6.0            # normal-approximation band for Monte Carlo means
BINOM_TAIL = 1e-9       # exact binomial tail below which empirical S fails


# ----------------------------------------------------------------- maths

def kl(r, p) -> float:
    """Extended divergence sum r ln(r / (r_total p)) over r > 0."""
    r = np.asarray(r, float).ravel()
    p = np.asarray(p, float).ravel()
    m = r > 0
    return float(np.sum(r[m] * np.log(r[m] / (r.sum() * p[m]))))


def objective(p: np.ndarray, blocks, l0: float, l1: float, mu: float) -> float:
    """sum_i [l0 K(R_i row) + l1 K(R_i col) - K(R_i || P)]
    + (1 - mu) K(R_* || P); the last term is dropped at mu = inf."""
    rows, cols = p.sum(axis=1), p.sum(axis=0)
    val = 0.0
    for b in blocks:
        if b.sum() > 0:
            val += l0 * kl(b.sum(axis=1), rows) + l1 * kl(b.sum(axis=0), cols)
            val -= kl(b, p)
    if math.isinf(mu):
        return val
    return val + (1.0 - mu) * kl(sum(blocks), p)


def closed_form(p: np.ndarray, mu: float) -> float:
    """I(P, 1, 1, mu): max-ratio for mu <= 1, log-sum-exp for 1 < mu < inf,
    mutual information at mu = inf."""
    outer = np.outer(p.sum(axis=1), p.sum(axis=0))
    m = p > 0
    lift = np.log(p[m]) - np.log(outer[m])
    if math.isinf(mu):
        return float(np.sum(p[m] * lift))
    if mu <= 1:
        return float(np.max(mu * np.log(p[m]) - np.log(outer[m])))
    a = np.log(p[m]) + lift / (mu - 1.0)
    top = a.max()
    return float((mu - 1.0) * (top + math.log(np.sum(np.exp(a - top)))))


def binom_tail(k: int, n: int, q: float) -> float:
    """Smaller one-sided tail of Binomial(n, q) at k, exactly, in log space."""
    if q <= 0.0 or q >= 1.0:
        return 1.0 if k == round(q * n) else 0.0
    logs = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(q) + (n - i) * math.log1p(-q) for i in range(n + 1)]
    lo = sum(math.exp(v) for v in logs[:k + 1])
    hi = sum(math.exp(v) for v in logs[k:])
    return min(lo, hi)


@lru_cache(maxsize=1)
def _xor_table(d: int) -> np.ndarray:
    """(2^d, 2^d) table of x ^ e, row e, column x, as uint16."""
    states = np.arange(1 << d, dtype=np.uint16)
    return states[:, None] ^ states[None, :]


@lru_cache(maxsize=1)
def _popcount_table() -> np.ndarray:
    return np.array([bin(i).count("1") for i in range(1 << 16)], np.uint8)


def _popcount(values: np.ndarray) -> np.ndarray:
    return _popcount_table()[values]


def shell_reference(centers: np.ndarray, d0: int, p: float) -> dict:
    """Exact S and the moments behind the Monte Carlo bands of a shell code
    under Bernoulli(p) pairs, by enumerating all 2^d x 2^d states.

    A point is in bucket t when it agrees with center t in d0 - 1 or d0
    coordinates, that is, lies at Hamming distance d - d0 or d - d0 + 1.
    The pair (x, x ^ e) has weight (p/2)^(d-|e|) ((1-p)/2)^|e| and shares
    popcount(mask[x] & mask[x ^ e]) buckets.  Returns S, p_star, the planted
    pair's expected number of shared buckets, and the variances of the
    per-point bucket count K and of the shared-bucket count A of an
    independent pair.
    """
    t_count, d = centers.shape
    if t_count > 16 or d > 16:
        raise ValueError("the 16-bit bucket masks need T <= 16 and d <= 16")
    states = np.arange(1 << d)
    keys = (centers.astype(np.int64) << np.arange(d)).sum(axis=1)
    dist = _popcount(states[:, None] ^ keys[None, :])
    member = (dist == d - d0) | (dist == d - d0 + 1)  # state x center
    mask = (member.astype(np.uint16) << np.arange(t_count, dtype=np.uint16)).sum(
        axis=1, dtype=np.uint16)
    shared = _popcount(mask[None, :] & mask[_xor_table(d)])  # row e, column x
    weight = ((p / 2) ** (d - _popcount(states)) * ((1 - p) / 2) ** _popcount(states))
    a_freq = np.bincount(shared.ravel(), minlength=t_count + 1) / shared.size
    a_values = np.arange(t_count + 1)
    k_count = member.sum(axis=1)
    return {
        "S": float(weight @ np.count_nonzero(shared, axis=1)),
        "p_star": float(member[:, 0].mean()), "T": t_count,
        "planted_shared": float(weight @ shared.sum(axis=1, dtype=np.int64)),
        "var_k": float(k_count.var()),
        "var_a": float(a_freq @ a_values**2 - (a_freq @ a_values) ** 2),
    }


def classical_reference(coords: np.ndarray, p: float) -> dict:
    """Exact S by inclusion-exclusion over the draws' coordinate sets, and
    the comparison-count variance of an independent pair."""
    sets = [frozenset(row.tolist()) for row in coords]
    draws, k = coords.shape
    s = 0.0
    for size in range(1, draws + 1):
        for group in combinations(sets, size):
            s += (-1) ** (size + 1) * p ** len(frozenset().union(*group))
    pair_var = sum(2.0 ** -len(a | b) - 4.0 ** -k for a in sets for b in sets)
    return {"S": s, "k": k, "draws": draws, "pair_var": pair_var}


# -------------------------------------------------------------- checkers

def check_info(p: np.ndarray, query, value: float, blocks) -> list:
    """One I evaluation: witness validity, witness value, closed form."""
    l0, l1, mu = query
    bad = []
    if any(np.any(b < 0) for b in blocks):
        bad.append("witness has a negative entry")
    mass = sum(float(b.sum()) for b in blocks)
    if abs(mass - 1.0) > WITNESS_TOL:
        bad.append(f"witness mass {mass!r} != 1")
    if math.isinf(mu) and np.max(np.abs(sum(blocks) - p)) > WITNESS_TOL:
        bad.append("witness mixture differs from P at mu = inf")
    if not bad:
        again = objective(p, blocks, l0, l1, mu)
        if abs(again - value) > WITNESS_TOL:
            bad.append(f"witness evaluates to {again!r}, value {value!r}")
    if l0 == 1 and l1 == 1:
        exact = closed_form(p, mu)
        if abs(value - exact) > CLOSED_FORM_TOL:
            bad.append(f"I = {value!r} but closed form {exact!r} at mu={mu}")
    return bad


def check_additivity(i_product: float, i_a: float, i_b: float) -> list:
    gap = abs(i_product - i_a - i_b)
    return [f"tensor additivity gap {gap:.3e}"] if gap > ADDITIVITY_TOL else []


def check_monotone(larger: float, smaller: float, what: str) -> list:
    if smaller > larger + MONOTONE_TOL:
        return [f"I not monotone in {what}: {smaller!r} > {larger!r}"]
    return []


def check_bound(out: dict, p: float, n0: float, n1: float, s: float) -> list:
    """`bucketing bound` output: 1/p along the diagonal and the ln W window
    set by the grid point (1, 1, 0) below and the full-space code above."""
    bad = []
    exponent = math.log(out["direct_work_bound"] / s) / math.log(n0)
    if abs(exponent - 1.0 / p) > BISECTION_TOL:
        bad.append(f"log_n(direct/S) = {exponent!r}, expected 1/p = {1 / p!r}")
    ln_w = out["ln_work_bound"]
    if not math.log(n0 * n1 / 4) - WITNESS_TOL <= ln_w <= math.log(n0 * n1) + WITNESS_TOL:
        bad.append(f"ln_work_bound {ln_w!r} outside [ln(n0 n1/4), ln(n0 n1)]")
    l0, l1, mu = out["at_lambda0"], out["at_lambda1"], out["at_mu"]
    if not (0 <= l0 <= 1 and 0 <= l1 <= 1 and l0 + l1 >= 1 - 1e-12 and mu >= 0):
        bad.append(f"maximiser ({l0}, {l1}, {mu}) outside the domain")
    return bad


def _check_success(row: dict, exact_s: float) -> list:
    trials = row["trials"]
    hits = round(row["empirical_S"] * trials)
    bad = []
    if abs(hits - row["empirical_S"] * trials) > 1e-6:
        bad.append(f"empirical_S {row['empirical_S']!r} is not k/{trials}")
    elif binom_tail(hits, trials, exact_s) < BINOM_TAIL:
        bad.append(f"empirical_S {row['empirical_S']!r} vs exact S {exact_s!r}")
    phat = row["empirical_S"]
    ci = 1.96 * math.sqrt(max(phat * (1 - phat), 0.25 / trials) / trials)
    if abs(row["ci"] - ci) > 1e-12:
        bad.append(f"ci {row['ci']!r} != {ci!r}")
    return bad


def _check_mean(name: str, got: float, want: float, var: float,
                trials: int) -> list:
    band = SIGMAS * math.sqrt(var / trials) + 1e-9 * abs(want)
    if abs(got - want) > band:
        return [f"{name} {got!r} vs expected {want!r} (band {band:.4g})"]
    return []


def check_shell_run(row: dict, ref: dict, p: float) -> list:
    """`simulate --code shell` row plus the run's mean_lookups."""
    n0, n1, trials, t = row["n0"], row["n1"], row["trials"], ref["T"]
    ps = ref["p_star"]
    bad = []
    if abs(row["predicted_S"] - ref["S"]) > WITNESS_TOL:
        bad.append(f"predicted_S {row['predicted_S']!r} vs {ref['S']!r}")
    work = t * max(n0 * ps, n1 * ps, n0 * n1 * ps * ps)
    if abs(row["predicted_W"] - work) > 1e-9 * work:
        bad.append(f"predicted_W {row['predicted_W']!r} vs {work!r}")
    bad += _check_success(row, ref["S"])
    bad += _check_mean("mean_lookups", row["mean_lookups"], t * ps * (n0 + n1),
                       (n0 + n1 + 2) * ref["var_k"], trials)
    var_c = n0 * n1 * (ref["var_a"] + (n0 + n1 - 2) * ps * ps * ref["var_k"])
    bad += _check_mean("mean_comparisons", row["mean_comparisons"],
                       (n0 * n1 - 1) * t * ps * ps + ref["planted_shared"],
                       var_c + ref["var_a"], trials)
    return bad


def check_classical_run(row: dict, ref: dict, p: float) -> list:
    """`simulate --code classical` row plus the run's mean_lookups."""
    n0, n1, trials = row["n0"], row["n1"], row["trials"]
    k, draws = ref["k"], ref["draws"]
    bad = []
    if row["mean_lookups"] != draws * (n0 + n1):
        bad.append(f"mean_lookups {row['mean_lookups']!r} != {draws * (n0 + n1)}")
    work = draws * 2.0**k * max(n0 * 2.0**-k, n1 * 2.0**-k, n0 * n1 * 4.0**-k)
    if row["predicted_W"] != work:
        bad.append(f"predicted_W {row['predicted_W']!r} != {work!r}")
    if not math.isnan(row["predicted_S"]):
        bad.append(f"predicted_S {row['predicted_S']!r} should be nan")
    bad += _check_success(row, ref["S"])
    bad += _check_mean("mean_comparisons", row["mean_comparisons"],
                       draws * ((n0 * n1 - 1) * 2.0**-k + p**k),
                       n0 * n1 * ref["pair_var"], trials)
    return bad


# ------------------------------------------------------------ self-check

def perturbations(kind: str, case: dict):
    """Yield (label, checker call) pairs on altered copies of a passing case.

    Every call must return a failure; `case` holds the arguments the real
    check was made with.
    """
    if kind == "info":
        p, q, v, blocks = case["p"], case["query"], case["value"], case["blocks"]
        yield "value + 1e-4", lambda: check_info(p, q, v + 1e-4, blocks)
        yield "witness mass x 1.001", lambda: check_info(
            p, q, v, [b * 1.001 for b in blocks])
        yield "witness entry < 0", lambda: check_info(
            p, q, v, [np.where(b == b.max(), -b, b) for b in blocks])
        yield "additivity + 0.01", lambda: check_additivity(
            case["i_product"] + 0.01, case["i_a"], case["i_b"])
        yield "monotone swapped", lambda: check_monotone(
            case["i_low"], case["i_high"] + 0.01, "mu")
        return
    if kind == "bound":
        out, args = case["out"], case["args"]
        overrides = [("direct_work_bound", 1.01 * out["direct_work_bound"]),
                     ("ln_work_bound", out["ln_work_bound"] + 0.8),
                     ("ln_work_bound", out["ln_work_bound"] - 1.5),
                     ("at_lambda0", out["at_lambda0"] + 0.5)]
        for key, value in overrides:
            yield f"{key} = {value!r}", lambda key=key, value=value: check_bound(
                {**out, key: value}, *args)
        return
    row, ref, p = case["row"], case["ref"], case["p"]
    check = check_shell_run if kind == "shell" else check_classical_run
    overrides = [
        ("predicted_S", 0.5 if kind == "classical" else row["predicted_S"] + 1e-6),
        ("predicted_W", row["predicted_W"] + 0.01),
        ("mean_lookups", row["mean_lookups"] * 1.05),
        ("mean_comparisons", row["mean_comparisons"] * 1.2),
        ("empirical_S", 0.0),
        ("ci", row["ci"] + 1e-6),
    ]
    for key, value in overrides:
        yield f"{key} = {value!r}", lambda key=key, value=value: check(
            {**row, key: value}, ref, p)
