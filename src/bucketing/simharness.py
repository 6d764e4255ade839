"""Monte Carlo validation of the code analytics, plus baseline comparisons.

Experiments sample fresh planted-pair datasets, take every point's bucket
memberships from the code, and compare the observed success frequency and
operation counts against the exact formulas.  Success means capturing the
planted pair; spurious near pairs do not count.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .codes import BucketingCode, code_success_exact, shell_analytics
from .errors import DimensionMismatch, DomainError, OutOfRange, TooLarge
from .probmodel import (
    DATASET_STREAMS,
    ProbabilityMatrix,
    check_planted_args,
    generate_dataset,
    make_matrix,
    sample_planted,
)
from .rng import derive_rng, derive_states

CSV_FIELDS = [
    "experiment_id", "kind", "d", "d0", "p", "n0", "n1", "T", "trials",
    "empirical_S", "ci", "predicted_S", "mean_comparisons", "predicted_W",
    "seed", "successes", "mean_lookups",
]


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate of a seeded batch of planted-pair trials."""

    trials: int
    successes: int
    empirical_S: float
    ci: float  # 95% halfwidth, normal approximation with continuity floor
    mean_comparisons: float
    mean_lookups: float
    predicted_S: float  # exact S when computable, else nan
    predicted_W: float
    seed: int


@dataclass(frozen=True)
class ExponentRow:
    """One row of a shell-family exponent sweep at fixed rho = 2*d0/d - 1."""

    d: int
    d0: int
    ln_n_over_d: float
    ln_T_over_d: float
    ratio: float  # ln T / ln n, the work exponent of the family member
    rho: float
    limit_ln_n_over_d: float
    limit_ln_T_over_d: float


# max sampled points per side in one chunk of trials; from 2^6 points up the
# loop's speed is bound by each trial's own work, about 20 us at n0 = n1 = 2
# to derive, load and draw from its five streams, while the heap that a
# chunk's temporaries leave behind adds to peak RSS from 2^10 points up
_TRIAL_CHUNK = 1 << 8
# trials whose streams are derived in one batch; a batch has a fixed cost of
# about 80 us, 50 streams' worth, and its state dicts take about 0.5 kB a
# stream, which at 2^8 trials raised mc-exact's peak RSS by 1 MiB
_STREAM_BATCH = 1 << 7
# comparisons are counted by a key histogram while its length is at most
# this many times the entry count; past that, sorting both sides is cheaper
# and holds no array of the largest key's length
_DENSE_KEYS_PER_ENTRY = 4


def _trial_batches(seed: int, trials: int, *tags):
    """Yield, _STREAM_BATCH trials t < trials at a time, the trials' dataset
    seeds (the first integers(2^62) of stream (seed, "trial", t)) and the
    states of streams (seed, tag, t) for each tag of `tags`, tag by tag;
    all derived in one batch by derive_states."""
    gen = np.random.default_rng(0)
    for first in range(0, trials, _STREAM_BATCH):
        ts = range(first, min(first + _STREAM_BATCH, trials))
        states = derive_states([(seed, tag, t) for tag in ("trial",) + tags
                                for t in ts])
        seeds = []
        for state in states[:len(ts)]:
            gen.bit_generator.state = state
            seeds.append(int(gen.integers(1 << 62)))
        yield seeds, states[len(ts):]


def _planted_trials(p: ProbabilityMatrix, d: int, n0: int, n1: int,
                    seed: int, trials: int):
    """Yield (x0, x1, i0, i1) for each trial t < trials, the draws of
    generate_dataset(p, d, n0, n1, s_t) with s_t the trial's dataset seed
    (see _trial_batches).  A batch of trials derives its dataset streams at
    once, and each trial loads its four into generators that are reused."""
    check_planted_args(p, d, n0, n1)
    gens = [np.random.default_rng(0) for _ in DATASET_STREAMS]
    for seeds, _ in _trial_batches(seed, trials):
        states = derive_states([(s, tag) for s in seeds
                                for tag in DATASET_STREAMS])
        for j in range(0, len(states), len(gens)):
            for gen, state in zip(gens, states[j:j + len(gens)]):
                gen.bit_generator.state = state
            yield sample_planted(p, d, n0, n1, *gens)


def _chunk_memberships(code: BucketingCode, points: list, side: int):
    """Memberships of a chunk's trials as (rows, keys), rows stacked trial
    after trial and keys = trial * code.T + bucket; a lone trial keeps its
    points and raw bucket ids."""
    if len(points) == 1:
        return code.membership(points[0], side)
    n = len(points[0])
    rows, ids = code.membership(np.concatenate(points), side)
    return rows, rows // n * code.T + ids


def _co_keyed_pairs(keys0: np.ndarray, keys1: np.ndarray) -> int:
    """Number of (side-0, side-1) entry pairs with equal nonnegative keys,
    sum over keys of c0(key) * c1(key).

    When the largest key is below _DENSE_KEYS_PER_ENTRY times the entry
    count, both sides' counts come from one bincount each and meet in a dot
    product.  Sparser keys, such as tensor-power bucket ids up to 2^62, are
    sorted on both sides, and each side-1 key's run of equal side-0 keys is
    found by bisection, which sorted needles keep cache-friendly.
    """
    top = int(max(keys0.max(initial=-1), keys1.max(initial=-1))) + 1
    if top <= _DENSE_KEYS_PER_ENTRY * (keys0.size + keys1.size):
        return int(np.dot(np.bincount(keys0, minlength=top),
                          np.bincount(keys1, minlength=top)))
    sorted0 = np.sort(keys0)
    sorted1 = np.sort(keys1)
    return int(np.sum(np.searchsorted(sorted0, sorted1, side="right")
                      - np.searchsorted(sorted0, sorted1)))


def _planted_keys(rows: np.ndarray, keys: np.ndarray,
                  planted: list) -> np.ndarray:
    """The keys of each planted row, found by bisection on the sorted rows."""
    lo = np.searchsorted(rows, planted)
    count = np.searchsorted(rows, planted, side="right") - lo
    first = np.repeat(lo - np.cumsum(count) + count, count)
    return keys[first + np.arange(count.sum())]


def run_experiment(
    code: BucketingCode,
    p: ProbabilityMatrix,
    d: int,
    n0: int,
    n1: int,
    trials: int,
    seed: int,
) -> ExperimentResult:
    """Estimate S and operation counts over `trials` independent datasets.

    Each trial draws a fresh dataset from its own derived sub-streams, so the
    result is a pure function of the arguments; the streams are derived in
    batches of trials (see _planted_trials), which changes no draw.  Lookups count bucket
    memberships over all points; comparisons count co-bucketed point pairs
    summed over buckets, sum_t |B0_t & X0| |B1_t & X1|.  Trials are sampled
    one by one and counted in chunks: a chunk's points take one membership
    call per side, and its memberships are told apart by trial-offset bucket
    keys.  Comparisons are the pairs of equal keys across the two sides,
    from per-key counts when the keys are dense and from both sides' sorted
    keys otherwise (see _co_keyed_pairs).  Chunking changes no sample and
    no count.  Raises OutOfRange unless n0, n1 >= 1, and TooLarge when the
    code's T bucket ids do not fit in int64.
    """
    if trials < 1:
        raise DomainError(f"trials={trials} must be >= 1")
    if n0 < 1 or n1 < 1:
        raise OutOfRange(f"n0={n0}, n1={n1} must both be >= 1")
    if d != code.d:
        raise DimensionMismatch(f"dataset d={d} but code has d={code.d}")
    # keys trial * T + bucket of a chunk must fit in int64
    key_max = np.iinfo(np.int64).max
    if code.T > key_max:
        raise TooLarge(f"{code.T} bucket ids overflow int64")
    per_chunk = max(1, min(_TRIAL_CHUNK // max(n0, n1),
                           key_max // max(code.T, 1)))
    datasets = _planted_trials(p, d, n0, n1, seed, trials)
    successes = 0
    comparisons = 0.0
    lookups = 0.0
    for _ in range(0, trials, per_chunk):
        x0, x1, planted0, planted1 = [], [], [], []
        for j, (a0, a1, i0, i1) in enumerate(islice(datasets, per_chunk)):
            x0.append(a0)
            x1.append(a1)
            planted0.append(j * n0 + i0)
            planted1.append(j * n1 + i1)
        rows0, keys0 = _chunk_memberships(code, x0, 0)
        rows1, keys1 = _chunk_memberships(code, x1, 1)
        lookups += keys0.size + keys1.size
        comparisons += _co_keyed_pairs(keys0, keys1)
        # a trial succeeds iff its planted points share a key; the trial
        # of a shared key is key // T
        shared = np.intersect1d(_planted_keys(rows0, keys0, planted0),
                                _planted_keys(rows1, keys1, planted1),
                                assume_unique=True)
        successes += np.unique(shared // max(code.T, 1)).size
    phat = successes / trials
    var = max(phat * (1.0 - phat), 0.25 / trials)
    try:
        predicted = code_success_exact(code, p)
    except TooLarge:
        predicted = math.nan
    return ExperimentResult(
        trials=trials,
        successes=successes,
        empirical_S=phat,
        ci=1.96 * math.sqrt(var / trials),
        mean_comparisons=comparisons / trials,
        mean_lookups=lookups / trials,
        predicted_S=predicted,
        predicted_W=code.work(n0, n1),
        seed=seed,
    )


def baseline_exponents(p: float) -> dict:
    """Work exponents of the known algorithms at agreement probability p.

    classical: bucket by k = log2 n coordinates and retry, W ~ n^log2(2/p);
    improved: the shell-family limit W ~ n^(1/p);
    indyk_motwani: W ~ n^(3-2p);
    mnp_lower: the cell-probe lower bound n^(2/(1+e^(2p-2))).
    """
    if not 0.5 < p < 1.0:
        raise DomainError(f"p={p} must lie strictly inside (1/2, 1)")
    return {
        "classical": math.log2(2.0 / p),
        "improved": 1.0 / p,
        "indyk_motwani": 3.0 - 2.0 * p,
        "mnp_lower": 2.0 / (1.0 + math.exp(2.0 * p - 2.0)),
    }


def _binary_entropy_shift(q: float) -> float:
    """I(q) = q ln 2q + (1-q) ln 2(1-q); the exponent rate function."""
    out = 0.0
    if q > 0:
        out += q * math.log(2.0 * q)
    if q < 1:
        out += (1.0 - q) * math.log(2.0 * (1.0 - q))
    return out


def exponent_table(p: float, d_list, rho: float,
                   epsilon: float = 0.1) -> list:
    """Exact shell exponents ln T / ln n along a fixed-rho family.

    d0 = round((1+rho)d/2); ln n = -ln p_star (the continuum set size, not
    its floor); ln T from the Chebyshev repeat count.  Each row also carries
    the d -> infinity limits I((1+rho)/2) and p*I((1+rho/p)/2) for reference.
    """
    if not 0.5 < p < 1.0:
        raise DomainError(f"p={p} must lie strictly inside (1/2, 1)")
    if not 0.0 <= rho < p:
        raise DomainError(f"need 0 <= rho < p, got rho={rho}")
    limit_n = _binary_entropy_shift((1.0 + rho) / 2.0)
    limit_t = p * _binary_entropy_shift((1.0 + rho / p) / 2.0)
    rows = []
    for d in d_list:
        d0 = round((1.0 + rho) * d / 2.0)
        if not 1 <= d0 <= d:
            raise DomainError(f"d0={d0} outside [1, {d}] at d={d}, rho={rho}")
        sa = shell_analytics(d, d0, p, epsilon)
        ln_n = -math.log(sa.p_star)
        ln_t = math.log(sa.T)
        rows.append(
            ExponentRow(
                d=d, d0=d0,
                ln_n_over_d=ln_n / d,
                ln_T_over_d=ln_t / d,
                ratio=ln_t / ln_n,
                rho=2.0 * d0 / d - 1.0,
                limit_ln_n_over_d=limit_n,
                limit_ln_T_over_d=limit_t,
            )
        )
    return rows


def cauchy_baseline(samples: int, seed: int) -> float:
    """Empirical Prob{sign(C1+C2) = sign(C1+C3)} for i.i.d. standard Cauchy.

    Cauchy variates come from the inverse CDF tan(pi*(u - 1/2)); the exact
    value of the probability is 2/3.
    """
    if samples < 10**4:
        raise DomainError(f"samples={samples} below the 10^4 floor")
    u = derive_rng(seed, "cauchy-triples").uniform(size=(samples, 3))
    c = np.tan(np.pi * (u - 0.5))
    agree = np.sign(c[:, 0] + c[:, 1]) == np.sign(c[:, 0] + c[:, 2])
    return float(agree.mean())


def sparse_matrix(eps: float) -> ProbabilityMatrix:
    """The sparse-bits coordinate distribution [[1-3e, e], [e, e]]."""
    if not 0.0 < eps < 1.0 / 3.0:
        raise DomainError(f"eps={eps} outside (0, 1/3)")
    return make_matrix([[1.0 - 3.0 * eps, eps], [eps, eps]])


def _first_ones_keys(points: np.ndarray, order: np.ndarray,
                     k: int) -> np.ndarray:
    """Key sum_j pos_j d^(k-j) of each point, pos_1..pos_k the coordinates
    of its first k ones in `order`; -1 for a point with fewer than k ones."""
    ones = points[:, order] == 1
    rank = np.cumsum(ones, axis=1)
    place = np.where(ones & (rank <= k),
                     len(order) ** np.maximum(k - rank, 0), 0)
    keys = place @ order
    keys[rank[:, -1] < k] = -1
    return keys


def _sign_keys(points: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Base-3 key of each point's projection signs, first projection
    most significant."""
    signs = np.sign(points.astype(float) @ proj.T).astype(np.int64)
    return (signs + 1) @ 3 ** np.arange(len(proj) - 1, -1, -1)


def sparse_hash_experiment(eps: float, k: int, n: int, trials: int,
                           seed: int) -> dict:
    """Compare two hashes on sparse-bits data: first k ones vs Cauchy signs.

    The first-k-ones hash keys each point by the coordinate positions of its
    first k ones under a random coordinate order, and skips points with
    fewer ones.  The Cauchy hash keys each point by ceil(log2 n) projection
    signs.  Keys are int64 codes of those tuples, so d^k must fit in int64.
    For each method the report carries the per-try planted-pair collision
    frequency, the mean number of candidate comparisons, and the implied
    work exponent ln(mean_comparisons / success) / ln(n); the analytic
    targets are 1 + ln3/ln(1/2*eps) and log2(3).
    """
    if trials < 1 or n < 2 or k < 1:
        raise DomainError(f"need trials >= 1, n >= 2, k >= 1")
    p = sparse_matrix(eps)
    d = max(int(math.ceil(2.0 * k / eps)), 4 * k)
    if d**k > np.iinfo(np.int64).max:
        raise TooLarge(f"first-{k}-ones keys over d={d} overflow int64")
    bits = max(1, math.ceil(math.log2(n)))
    tallies = {
        name: {"hits": 0, "comparisons": 0.0}
        for name in ("first_k_ones", "cauchy")
    }

    def record(name, keys0, keys1, planted):
        tallies[name]["comparisons"] += _co_keyed_pairs(keys0[keys0 >= 0],
                                                        keys1[keys1 >= 0])
        key = keys0[planted[0]]
        if key >= 0 and key == keys1[planted[1]]:
            tallies[name]["hits"] += 1

    rng = np.random.default_rng(0)
    for seeds, hash_states in _trial_batches(seed, trials, "sparse-hash"):
        for trial_seed, state in zip(seeds, hash_states):
            ds = generate_dataset(p, d, n, n, trial_seed)
            rng.bit_generator.state = state
            order = rng.permutation(d)
            record("first_k_ones", _first_ones_keys(ds.x0_points, order, k),
                   _first_ones_keys(ds.x1_points, order, k), ds.planted)
            proj = np.tan(np.pi * (rng.uniform(size=(bits, d)) - 0.5))
            record("cauchy", _sign_keys(ds.x0_points, proj),
                   _sign_keys(ds.x1_points, proj), ds.planted)

    out = {"eps": eps, "k": k, "n": n, "d": d, "trials": trials, "seed": seed}
    for name, tally in tallies.items():
        success = tally["hits"] / trials
        mean_cmp = tally["comparisons"] / trials
        if success > 0 and mean_cmp > 0:
            exponent = math.log(mean_cmp / success) / math.log(n)
        else:
            exponent = math.inf
        out[name] = {
            "success": success,
            "mean_comparisons": mean_cmp,
            "work_exponent": exponent,
        }
    out["predicted_exponents"] = {
        "first_k_ones": 1.0 + math.log(3.0) / math.log(1.0 / (2.0 * eps)),
        "cauchy": math.log2(3.0),
    }
    return out


def result_row(experiment_id: str, code: BucketingCode, p_value,
               n0: int, n1: int, result: ExperimentResult) -> dict:
    """Flatten one experiment into the CSV schema."""
    desc = code.descriptor()
    return {
        "experiment_id": experiment_id,
        "kind": desc["kind"],
        "d": code.d,
        "d0": desc.get("params", {}).get("d0", ""),
        "p": p_value,
        "n0": n0,
        "n1": n1,
        "T": code.T,
        "trials": result.trials,
        "empirical_S": repr(result.empirical_S),
        "ci": repr(result.ci),
        "predicted_S": repr(result.predicted_S),
        "mean_comparisons": repr(result.mean_comparisons),
        "predicted_W": repr(result.predicted_W),
        "seed": result.seed,
        "successes": result.successes,
        "mean_lookups": repr(result.mean_lookups),
    }


def write_csv(rows) -> str:
    """Serialize experiment rows to CSV text."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
