import csv
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bucketing import simharness
from bucketing.codes import (
    classical_code,
    code_success_exact,
    concatenate,
    empty_code,
    full_space_code,
    shell_analytics,
    shell_code,
    tensor_power,
    typeclass_code,
)
from bucketing.errors import (
    DimensionMismatch,
    DomainError,
    OutOfRange,
    TooLarge,
)
from bucketing.probmodel import bernoulli_matrix, generate_dataset, make_matrix
from bucketing.rng import derive_rng
from bucketing.simharness import (
    CSV_FIELDS,
    ExperimentResult,
    baseline_exponents,
    cauchy_baseline,
    exponent_table,
    result_row,
    run_experiment,
    sparse_hash_experiment,
    write_csv,
)


def per_trial_reference(code, p, d, n0, n1, trials, seed):
    """run_experiment one trial at a time: one membership call per side and
    trial, and the planted pair's buckets picked out by a row mask."""
    successes = 0
    comparisons = 0.0
    lookups = 0.0
    for t in range(trials):
        trial_seed = int(derive_rng(seed, "trial", t).integers(1 << 62))
        ds = generate_dataset(p, d, n0, n1, trial_seed)
        rows0, ids0 = code.membership(ds.x0_points, 0)
        rows1, ids1 = code.membership(ds.x1_points, 1)
        lookups += ids0.size + ids1.size
        sorted0 = np.sort(ids0)
        comparisons += int(np.sum(np.searchsorted(sorted0, ids1, side="right")
                                  - np.searchsorted(sorted0, ids1)))
        i0, i1 = ds.planted
        if np.intersect1d(ids0[rows0 == i0], ids1[rows1 == i1],
                          assume_unique=True).size:
            successes += 1
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


P23 = make_matrix([[0.3, 0.1, 0.05], [0.05, 0.2, 0.3]])
# (code, matrix, n0, n1); n0 != n1 throughout
CHUNK_CASES = {
    "full": (full_space_code(6), bernoulli_matrix(0.9), 3, 5),
    "empty": (empty_code(6), bernoulli_matrix(0.9), 3, 5),
    "classical": (classical_code(8, 3, 2, seed=1), bernoulli_matrix(0.9), 4, 3),
    "shell": (shell_code(8, 5, 6, seed=2), bernoulli_matrix(0.9), 3, 4),
    "typeclass-2x3": (typeclass_code(P23, 6, [P23.entries], seed=2, T=5),
                      P23, 3, 4),
    "tensor": (tensor_power(shell_code(5, 3, 3, seed=1), 2),
               bernoulli_matrix(0.9), 3, 2),
    "concat-blocks": (concatenate(shell_code(5, 3, 3, seed=1),
                                  classical_code(4, 2, 2, seed=3)),
                      bernoulli_matrix(0.9), 4, 3),
    "concat-union": (concatenate(shell_code(6, 4, 3, seed=1),
                                 classical_code(6, 2, 2, seed=3), mode="union"),
                     bernoulli_matrix(0.9), 4, 3),
    # T = 2^62: keys of two trials would overflow int64, so every chunk
    # holds one trial
    "tensor-2^62": (tensor_power(classical_code(1, 1, 1, seed=0), 62),
                    bernoulli_matrix(0.99), 2, 3),
}


class TestChunkedTrials:
    @pytest.mark.parametrize("chunk", [None, 16], ids=["default", "small"])
    @pytest.mark.parametrize("name", list(CHUNK_CASES))
    def test_matches_per_trial_loop(self, name, chunk, monkeypatch):
        code, p, n0, n1 = CHUNK_CASES[name]
        if chunk is not None:
            monkeypatch.setattr(simharness, "_TRIAL_CHUNK", chunk)
        sizes = []
        inner = code.membership

        def spy(points, side):
            sizes.append(len(points))
            return inner(points, side)

        monkeypatch.setattr(code, "membership", spy)
        got = run_experiment(code, p, code.d, n0, n1, 40, seed=3)
        monkeypatch.setattr(code, "membership", inner)
        want = per_trial_reference(code, p, code.d, n0, n1, 40, seed=3)
        assert repr(got) == repr(want)
        # one membership call per side and chunk; the exact-S sweep's own
        # calls follow the trial loop's
        per_chunk = 1 if name == "tensor-2^62" else (
            simharness._TRIAL_CHUNK // max(n0, n1))
        loop = []
        for first in range(0, 40, per_chunk):
            m = min(per_chunk, 40 - first)
            loop += [m * n0, m * n1]
        assert sizes[:len(loop)] == loop
        if name != "tensor-2^62":
            # the default chunk holds all 40 trials, the small one 3 to 5
            assert (len(loop) == 2) == (chunk is None)

    def test_dense_keys_match_per_trial_loop(self, monkeypatch):
        # at n0 = n1 = 3000 a chunk is one trial, whose 48000 memberships
        # fall in 65536 buckets: dense enough for key counts
        code, p = classical_code(64, 13, 8), bernoulli_matrix(0.9)
        histograms = []
        inner = np.bincount

        def spy(keys, minlength=0):
            histograms.append(minlength)
            return inner(keys, minlength=minlength)

        monkeypatch.setattr(np, "bincount", spy)
        got = run_experiment(code, p, code.d, 3000, 3000, 3, seed=3)
        monkeypatch.setattr(np, "bincount", inner)
        assert len(histograms) == 6 and max(histograms) <= code.T
        want = per_trial_reference(code, p, code.d, 3000, 3000, 3, seed=3)
        assert repr(got) == repr(want)


class TestStreamBatches:
    def test_trial_batches_equal_derived_streams(self, monkeypatch):
        monkeypatch.setattr(simharness, "_STREAM_BATCH", 4)
        batches = list(simharness._trial_batches(9, 10, "a", "b"))
        assert [len(seeds) for seeds, _ in batches] == [4, 4, 2]
        t = 0
        for seeds, states in batches:
            assert len(states) == 2 * len(seeds)
            for j, seed in enumerate(seeds):
                assert seed == derive_rng(9, "trial", t).integers(1 << 62)
                for i, tag in enumerate("ab"):
                    assert (states[i * len(seeds) + j]
                            == derive_rng(9, tag, t).bit_generator.state)
                t += 1

    @pytest.mark.parametrize("chunk", [None, 16], ids=["default", "small"])
    @pytest.mark.parametrize("name", ["full", "classical", "typeclass-2x3",
                                      "tensor-2^62"])
    def test_batch_bounds_change_nothing(self, name, chunk, monkeypatch):
        # 40 trials over stream batches of 7, which chunks of 16 points
        # cut across
        code, p, n0, n1 = CHUNK_CASES[name]
        monkeypatch.setattr(simharness, "_STREAM_BATCH", 7)
        if chunk is not None:
            monkeypatch.setattr(simharness, "_TRIAL_CHUNK", chunk)
        got = run_experiment(code, p, code.d, n0, n1, 40, seed=5)
        want = per_trial_reference(code, p, code.d, n0, n1, 40, seed=5)
        assert repr(got) == repr(want)


@st.composite
def key_sides(draw, top):
    """Two int64 key arrays below `top`, drawn from one pool of up to six
    keys so that equal keys recur across the sides."""
    pool = draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=6))
    side = st.lists(st.sampled_from(pool), max_size=40)
    return (np.array(draw(side), dtype=np.int64),
            np.array(draw(side), dtype=np.int64))


class TestCoKeyedPairs:
    # keys below 4 are always dense; a key of 2^62 on both sides forces
    # the sort
    @pytest.mark.parametrize("empty", [None, 0, 1],
                             ids=["both", "empty0", "empty1"])
    @pytest.mark.parametrize("top, dense", [(4, True), (2**62 + 1, False)],
                             ids=["dense", "sparse"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_brute_force(self, top, dense, empty, data):
        sides = list(data.draw(key_sides(top)))
        if not dense:
            sides = [np.append(keys, top - 1) for keys in sides]
        if empty is not None:
            sides[empty] = sides[empty][:0]
        keys0, keys1 = sides
        largest = max(keys0.max(initial=-1), keys1.max(initial=-1))
        assert (largest < simharness._DENSE_KEYS_PER_ENTRY
                * (keys0.size + keys1.size)) == dense
        count1 = Counter(keys1.tolist())
        want = sum(count1[key] for key in keys0.tolist())
        assert simharness._co_keyed_pairs(keys0, keys1) == want


class TestRunExperiment:
    def test_full_space_always_succeeds(self):
        res = run_experiment(
            full_space_code(4), bernoulli_matrix(0.8), 4, 3, 3, 50, seed=1
        )
        assert res.empirical_S == 1.0
        assert res.successes == res.trials == 50
        assert res.mean_comparisons == 9.0

    def test_deterministic(self):
        code = shell_code(8, 5, 3, seed=2)
        P = bernoulli_matrix(0.9)
        a = run_experiment(code, P, 8, 4, 4, 200, seed=5)
        b = run_experiment(code, P, 8, 4, 4, 200, seed=5)
        assert a == b

    def test_seed_changes_outcome(self):
        code = shell_code(8, 5, 3, seed=2)
        P = bernoulli_matrix(0.9)
        a = run_experiment(code, P, 8, 4, 4, 200, seed=5)
        b = run_experiment(code, P, 8, 4, 4, 200, seed=6)
        assert a != b

    def test_tracks_exact_success(self):
        code = shell_code(10, 6, 4, seed=3)
        P = bernoulli_matrix(0.9)
        exact = code_success_exact(code, P)
        res = run_experiment(code, P, 10, 3, 3, 2000, seed=9)
        sigma = math.sqrt(exact * (1 - exact) / 2000)
        assert abs(res.empirical_S - exact) < 3 * sigma
        assert res.predicted_S == pytest.approx(exact)

    def test_operation_accounting(self):
        code = shell_code(10, 6, 4, seed=3)
        P = bernoulli_matrix(0.9)
        n = 3
        res = run_experiment(code, P, 10, n, n, 1000, seed=4)
        budget = 2 * n + 3 * res.predicted_W
        ops = 2 * n + res.mean_lookups + res.mean_comparisons
        assert ops <= budget * 1.1  # loose; the tight 3-sigma check is below
        # expected lookups are exactly 2 n T p_star
        target = 2 * n * 4 * (
            (math.comb(10, 5) + math.comb(10, 6)) / 1024
        )
        sigma = 3 * math.sqrt(target / 1000)  # crude Poisson-scale band
        assert abs(res.mean_lookups - target) < sigma

    def test_validation(self):
        with pytest.raises(DomainError):
            run_experiment(full_space_code(4), bernoulli_matrix(0.8),
                           4, 2, 2, 0, seed=0)
        with pytest.raises(DimensionMismatch):
            run_experiment(full_space_code(4), bernoulli_matrix(0.8),
                           5, 2, 2, 5, seed=0)

    @pytest.mark.parametrize("n0, n1", [(0, 0), (0, 5), (5, 0), (-1, 2)])
    def test_point_counts_must_be_positive(self, n0, n1):
        with pytest.raises(OutOfRange):
            run_experiment(full_space_code(4), bernoulli_matrix(0.8),
                           4, n0, n1, 5, seed=0)


class TestBaselines:
    def test_reference_values(self):
        rec = baseline_exponents(0.9)
        assert rec["classical"] == pytest.approx(1.15200309344505)
        assert rec["improved"] == pytest.approx(1 / 0.9)
        assert rec["indyk_motwani"] == pytest.approx(1.2)
        assert rec["mnp_lower"] == pytest.approx(2 / (1 + math.exp(-0.2)))

    def test_limits_coincide_near_half(self):
        rec = baseline_exponents(0.5 + 1e-9)
        assert rec["classical"] == pytest.approx(2.0, abs=1e-6)
        assert rec["improved"] == pytest.approx(2.0, abs=1e-6)

    def test_improvement_ordering(self):
        for p in (0.6, 0.75, 0.9):
            rec = baseline_exponents(p)
            assert rec["improved"] < rec["classical"]

    def test_validation(self):
        with pytest.raises(DomainError):
            baseline_exponents(0.5)
        with pytest.raises(DomainError):
            baseline_exponents(1.0)


class TestExponentTable:
    def test_row_shape_and_fields(self):
        rows = exponent_table(0.9, [40, 80], 0.1)
        assert [r.d for r in rows] == [40, 80]
        for r in rows:
            assert r.ratio > 0
            assert r.d0 == round((1 + 0.1) * r.d / 2)
            assert r.ln_n_over_d > 0 and r.ln_T_over_d > 0

    def test_ratio_trends_toward_limit(self):
        rows = exponent_table(0.9, [50, 100, 200, 400], 0.1)
        limit_ratio = rows[0].limit_ln_T_over_d / rows[0].limit_ln_n_over_d
        gaps = [abs(r.ratio - limit_ratio) for r in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_limit_values_match_rate_function(self):
        def rate(q):
            return q * math.log(2 * q) + (1 - q) * math.log(2 * (1 - q))

        rows = exponent_table(0.8, [60], 0.12)
        assert rows[0].limit_ln_n_over_d == pytest.approx(rate(0.56))
        assert rows[0].limit_ln_T_over_d == pytest.approx(
            0.8 * rate((1 + 0.15) / 2)
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            exponent_table(0.9, [50], 0.95)
        with pytest.raises(DomainError):
            exponent_table(0.3, [50], 0.1)


class TestCauchy:
    def test_sign_agreement_near_two_thirds(self):
        freq = cauchy_baseline(4 * 10**4, seed=8)
        assert abs(freq - 2 / 3) < 0.01

    def test_independent_pairs_agree_half_the_time(self):
        # control: with no shared summand the signs are independent
        u = derive_rng(3, "control").uniform(size=(4 * 10**4, 4))
        c = np.tan(np.pi * (u - 0.5))
        freq = np.mean(
            np.sign(c[:, 0] + c[:, 1]) == np.sign(c[:, 2] + c[:, 3])
        )
        assert abs(freq - 0.5) < 0.01

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            cauchy_baseline(100, seed=0)


class TestSparseHash:
    def test_report_structure(self):
        rep = sparse_hash_experiment(0.05, 2, 16, 40, seed=6)
        for method in ("first_k_ones", "cauchy"):
            assert 0.0 <= rep[method]["success"] <= 1.0
            assert rep[method]["mean_comparisons"] >= 0.0
        assert rep["predicted_exponents"]["cauchy"] == pytest.approx(
            math.log2(3)
        )
        assert rep["predicted_exponents"]["first_k_ones"] == pytest.approx(
            1 + math.log(3) / math.log(10.0)
        )

    def test_deterministic(self):
        a = sparse_hash_experiment(0.05, 2, 16, 20, seed=6)
        b = sparse_hash_experiment(0.05, 2, 16, 20, seed=6)
        assert a == b

    def test_pinned_report(self):
        rep = sparse_hash_experiment(0.05, 2, 32, 400, seed=11)
        assert rep["first_k_ones"] == {
            "success": 0.145, "mean_comparisons": 3.0375,
            "work_exponent": 0.8777519206731142}
        assert rep["cauchy"] == {
            "success": 0.14, "mean_comparisons": 44.3975,
            "work_exponent": 1.661781560812788}

    def test_keys_encode_tuples(self):
        rng = np.random.default_rng(3)
        d, k = 12, 3
        pts = (rng.random((200, d)) < 0.3).astype(np.uint8)
        order = rng.permutation(d)
        keys = simharness._first_ones_keys(pts, order, k)
        for x, key in zip(pts, keys):
            ones = order[x[order] == 1][:k]
            expected = -1 if len(ones) < k else sum(
                int(pos) * d ** (k - 1 - j) for j, pos in enumerate(ones))
            assert key == expected
        proj = np.tan(np.pi * (rng.random((4, d)) - 0.5))
        proj[0] = 0.0  # a zero sign is its own symbol
        signs = np.sign(pts.astype(float) @ proj.T)
        keys = simharness._sign_keys(pts, proj)
        for row, key in zip(signs, keys):
            assert key == sum(int(s + 1) * 3 ** (3 - j)
                              for j, s in enumerate(row))

    def test_key_overflow_rejected(self):
        # d = 320 at k = 8: 320^8 > 2^63
        with pytest.raises(TooLarge):
            sparse_hash_experiment(0.05, 8, 16, 1, seed=0)

    def test_first_ones_hash_catches_related_points(self):
        rep = sparse_hash_experiment(0.05, 1, 8, 250, seed=2)
        assert rep["first_k_ones"]["success"] > 0.05

    def test_validation(self):
        with pytest.raises(DomainError):
            sparse_hash_experiment(0.4, 2, 16, 10, seed=0)
        with pytest.raises(DomainError):
            sparse_hash_experiment(0.05, 0, 16, 10, seed=0)


class TestCsv:
    def test_schema_round_trip(self):
        code = classical_code(6, 2, 2, seed=1)
        P = bernoulli_matrix(0.9)
        res = run_experiment(code, P, 6, 4, 4, 50, seed=3)
        text = write_csv([result_row("exp-1", code, 0.9, 4, 4, res)])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        assert CSV_FIELDS == [
            "experiment_id", "kind", "d", "d0", "p", "n0", "n1", "T",
            "trials", "empirical_S", "ci", "predicted_S", "mean_comparisons",
            "predicted_W", "seed", "successes", "mean_lookups",
        ]
        assert list(rows[0].keys()) == CSV_FIELDS
        assert rows[0]["kind"] == "classical"
        assert float(rows[0]["empirical_S"]) == res.empirical_S
        assert int(rows[0]["successes"]) == res.successes
        assert float(rows[0]["mean_lookups"]) == res.mean_lookups
        assert int(rows[0]["T"]) == code.T
