import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bucketing.codes import (
    classical_code,
    code_from_descriptor,
    code_success_exact,
    code_work,
    concatenate,
    empty_code,
    full_space_code,
    shell_analytics,
    shell_capture_probability,
    shell_code,
    tensor_power,
    typeclass_code,
)
from bucketing.errors import (
    DimensionMismatch,
    DomainError,
    RoundingInfeasible,
    TooLarge,
)
from bucketing.probmodel import bernoulli_matrix, make_matrix


def every_kind():
    """One code of each kind, composites included."""
    P = bernoulli_matrix(0.8)
    return [
        full_space_code(5),
        empty_code(5),
        shell_code(6, 3, 5, seed=11),
        classical_code(6, 2, 3, seed=12),
        typeclass_code(P, 6, [P.entries], seed=13, T=2),
        tensor_power(shell_code(3, 2, 2, seed=14), 2),
        concatenate(shell_code(4, 2, 2, 1), classical_code(4, 2, 1, 2),
                    "union"),
        concatenate(classical_code(4, 1, 2, 3), shell_code(3, 2, 3, 4),
                    "blocks"),
    ]


def dense(code, pts, side):
    """(n, T) bool membership matrix of a code."""
    m = np.zeros((len(pts), code.T), dtype=bool)
    m[code.membership(pts, side)] = True
    return m


def kron_success(code, P):
    """Reference S for d <= 6: the dense P^(x)d pair measure summed over
    every co-bucketed (x0, x1) state pair."""
    states0, states1 = (
        np.array(list(itertools.product(range(b), repeat=code.d)), np.uint8)
        for b in (P.rows, P.cols)
    )
    joint = np.ones((1, 1))
    for _ in range(code.d):
        joint = np.kron(joint, P.entries)
    co = dense(code, states0, 0).astype(int) @ dense(code, states1, 1).T > 0
    return float(joint[co].sum())


ALL_POINTS_6 = ((np.arange(64)[:, None] >> np.arange(6)) & 1).astype(np.uint8)


def enumerated_measures(code, P):
    """Per-bucket side measures (p0_t, p1_t) as two length-T arrays: each
    bucket's membership summed over all b^d states of its side under P's
    marginal on that side."""
    out = []
    for side, marginal in ((0, P.row_marginals), (1, P.col_marginals)):
        states = np.array(
            list(itertools.product(range(len(marginal)), repeat=code.d)),
            np.uint8,
        )
        out.append(np.prod(marginal[states], axis=1) @ dense(code, states, side))
    return out


def brute_capture(d, d0, m):
    """Count centers capturing a fixed distance-m pair, by enumeration."""
    centers = (
        np.arange(1 << d)[:, None] >> np.arange(d)[None, :]
    ) & 1
    x0 = np.zeros(d, dtype=int)
    x1 = np.zeros(d, dtype=int)
    x1[:m] = 1
    a0 = (centers == x0).sum(axis=1)
    a1 = (centers == x1).sum(axis=1)
    both = ((a0 == d0 - 1) | (a0 == d0)) & ((a1 == d0 - 1) | (a1 == d0))
    return both.sum() / (1 << d)


class TestShellCapture:
    def test_matches_enumeration(self):
        for d in (4, 7, 10):
            for d0 in range(1, d + 1):
                for m in range(d + 1):
                    assert shell_capture_probability(d, d0, m) == (
                        pytest.approx(brute_capture(d, d0, m), abs=1e-15)
                    )

    def test_zero_distance_is_p_star(self):
        sa = shell_analytics(12, 7, 0.9, 0.1)
        assert sa.capture[0] == sa.p_star


class TestShellAnalytics:
    def test_reference_instance(self):
        sa = shell_analytics(12, 7, 0.9, 0.1)
        assert sa.p_star == 1716 / 4096
        assert sa.capture[4] == 756 / 4096
        assert sa.n == 2
        assert sa.T == 13
        assert sa.S >= 1 - 2 * 0.1

    def test_success_guarantee_across_instances(self):
        for d, d0, p, eps in ((10, 6, 0.85, 0.15), (16, 9, 0.9, 0.1)):
            sa = shell_analytics(d, d0, p, eps)
            assert sa.S >= 1 - 2 * eps

    def test_large_dimension_log_space(self):
        sa = shell_analytics(400, 220, 0.9, 0.1)
        assert sa.T > 1 and math.isfinite(math.log(sa.T))
        assert 0 < sa.p_star < 1

    def test_validation(self):
        with pytest.raises(DomainError):
            shell_analytics(10, 0, 0.9, 0.1)
        with pytest.raises(DomainError):
            shell_analytics(10, 5, 0.5, 0.1)
        with pytest.raises(DomainError):
            shell_analytics(10, 5, 0.9, 1.5)


class TestShellCode:
    def test_success_matches_analytics_at_single_center(self):
        p_val = 0.85
        P = bernoulli_matrix(p_val)
        d, d0 = 4, 2
        target = sum(
            math.comb(d, m)
            * p_val ** (d - m)
            * (1 - p_val) ** m
            * shell_capture_probability(d, d0, m)
            for m in range(d + 1)
        )
        for seed in (0, 3, 11):
            code = shell_code(d, d0, 1, seed=seed)
            assert code_success_exact(code, P) == pytest.approx(
                target, abs=1e-12
            )

    def test_multi_center_union_mean_over_seeds(self):
        # E over center draws of S equals the per-distance union formula
        p_val, d, d0, t_count = 0.8, 4, 2, 3
        P = bernoulli_matrix(p_val)
        target = sum(
            math.comb(d, m)
            * p_val ** (d - m)
            * (1 - p_val) ** m
            * (1 - (1 - shell_capture_probability(d, d0, m)) ** t_count)
            for m in range(d + 1)
        )
        vals = [
            code_success_exact(shell_code(d, d0, t_count, seed=s), P)
            for s in range(150)
        ]
        sigma = np.std(vals) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - target) < 3 * max(sigma, 1e-6)

    def test_side_probs_and_work(self):
        code = shell_code(12, 7, 13, seed=1)
        [(count, p0, p1)] = code.bucket_probs()
        assert count == 13
        assert np.allclose([p0, p1], 1716 / 4096)
        n = 2
        per_bucket = max(n * 1716 / 4096, (n * 1716 / 4096) ** 2)
        assert code_work(code, n, n) == pytest.approx(13 * per_bucket)

    def test_membership_matches_agreement_rule(self):
        code = shell_code(6, 3, 4, seed=5)
        pts = np.array([[0, 1, 0, 1, 1, 0], [1, 1, 1, 1, 1, 1]], dtype=np.uint8)
        rows, buckets = code.membership(pts, 0)
        for i, x in enumerate(pts):
            for t in range(4):
                agree = int((x == code.centers[t]).sum())
                assert (t in buckets[rows == i]) == (agree in (2, 3))

    def test_membership_slices_match_agreement_rule(self):
        # 2^22 entries per slice / 2^16 centers: 300 points in 5 slices
        d, d0 = 16, 3
        code = shell_code(d, d0, 1 << 16, seed=5)
        pts = np.random.default_rng(4).integers(0, 2, (300, d), dtype=np.uint8)
        rows, buckets = code.membership(pts, 0)
        assert np.all(np.diff(rows * code.T + buckets) > 0)
        ends = np.searchsorted(rows, np.arange(len(pts) + 1))
        for i, x in enumerate(pts):
            agree = (code.centers == x).sum(axis=1)
            expected = np.flatnonzero((agree == d0 - 1) | (agree == d0))
            assert np.array_equal(buckets[ends[i]:ends[i + 1]], expected)

    def test_membership_peak_memory(self):
        # one slice of 4096 states x 256 centers: the float32 offsets and
        # nonzero's int64 output are all that needs to be live at once
        code = shell_code(12, 7, 256, seed=0)
        states = np.array(list(itertools.product((0, 1), repeat=12)),
                          dtype=np.uint8)
        tracemalloc.start()
        try:
            rows, buckets = code.membership(states, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.dtype == buckets.dtype == np.int64
        assert peak <= 2.5 * (rows.nbytes + buckets.nbytes)


class TestClassicalCode:
    def test_single_draw_success_is_p_to_k(self):
        P = bernoulli_matrix(0.9)
        for k in (1, 2, 3):
            code = classical_code(5, k, 1, seed=2)
            assert code_success_exact(code, P) == pytest.approx(
                0.9**k, abs=1e-12
            )

    def test_full_width_draws_identical(self):
        # k = d leaves nothing to sample, so repeats add no new buckets
        P = bernoulli_matrix(0.8)
        one = code_success_exact(classical_code(3, 3, 1, seed=9), P)
        many = code_success_exact(classical_code(3, 3, 5, seed=9), P)
        assert one == pytest.approx(many, abs=1e-15)

    def test_bucket_count_and_work(self):
        code = classical_code(10, 3, 4, seed=0)
        assert code.T == 4 * 8
        w = code_work(code, 16, 16)
        assert w == pytest.approx(4 * 8 * max(16 / 8, (16 / 8) ** 2))

    def test_each_point_in_one_bucket_per_draw(self):
        code = classical_code(8, 4, 6, seed=3)
        pts = np.random.default_rng(0).integers(0, 2, (20, 8), dtype=np.uint8)
        rows, buckets = code.membership(pts, 0)
        for i in range(len(pts)):
            draws = buckets[rows == i] >> 4
            assert sorted(draws.tolist()) == list(range(6))

    @pytest.mark.parametrize("d, k, draws", [(12, 5, 4), (70, 62, 3)])
    def test_membership_matches_pattern_product(self, d, k, draws):
        # symbols 0..2 as from a 3-symbol --matrix; at k = 62 the ids wrap
        # mod 2^64 like the int64 product
        code = classical_code(d, k, draws, seed=4)
        pts = np.random.default_rng(1).integers(0, 3, (30, d), dtype=np.uint8)
        patterns = pts[:, code.coords].astype(np.int64)
        want = patterns @ (1 << np.arange(k, dtype=np.int64))
        want += np.arange(draws, dtype=np.int64) << k
        rows, ids = code.membership(pts, 0)
        assert rows.dtype == ids.dtype == np.int64
        assert np.array_equal(rows, np.repeat(np.arange(30), draws))
        assert np.array_equal(ids, want.reshape(-1))

    def test_validation(self):
        with pytest.raises(DomainError):
            classical_code(4, 5, 1, seed=0)
        with pytest.raises(TooLarge):
            classical_code(100, 63, 1, seed=0)


class TestTypeClassCode:
    P = bernoulli_matrix(0.8)

    def test_single_block_equals_total_type(self):
        code = typeclass_code(self.P, 6, [self.P.entries], seed=4)
        assert code.T == 1
        assert code.U == pytest.approx(code.V)
        cnt = code.block_counts[0].ravel()
        direct = math.factorial(6) * float(
            np.prod(self.P.entries.ravel() ** cnt)
        )
        for c in cnt:
            direct /= math.factorial(int(c))
        assert code.U == pytest.approx(direct)

    def test_largest_remainder_within_unit(self):
        r = np.array([[0.37, 0.13], [0.29, 0.21]])
        code = typeclass_code(make_matrix(r), 7, [r], seed=0, T=1)
        assert int(code.block_counts.sum()) == 7
        assert np.all(np.abs(code.block_counts - r * 7) < 1.0)

    def test_success_meets_lower_bound_on_average(self):
        blocks = [self.P.entries * 0.5, self.P.entries * 0.5]
        ref = typeclass_code(self.P, 8, blocks, seed=0, T=3)
        vals = [
            code_success_exact(
                typeclass_code(self.P, 8, blocks, seed=s, T=3), self.P
            )
            for s in range(40)
        ]
        sigma = np.std(vals) / math.sqrt(len(vals))
        assert np.mean(vals) >= ref.success_lower_bound() - 3 * sigma

    def test_exact_success_at_least_joint_type_mass(self):
        code = typeclass_code(self.P, 6, [self.P.entries], seed=4)
        assert code_success_exact(code, self.P) >= code.U - 1e-12

    def test_side_probs_from_enumeration(self):
        code = typeclass_code(self.P, 6, [self.P.entries], seed=4, T=2)
        pts = (np.arange(64)[:, None] >> np.arange(6)[None, :]) & 1
        rows, buckets = code.membership(pts.astype(np.uint8), 0)
        member = np.isin(np.arange(64), rows[buckets == 0])
        weights = np.prod(
            np.where(pts == 0, 0.5, 0.5), axis=1
        )  # uniform marginals
        assert member @ weights == pytest.approx(code.bucket_probs()[0][1])

    def test_mass_validation(self):
        with pytest.raises(DomainError):
            typeclass_code(self.P, 6, [self.P.entries * 0.7], seed=0)
        # a nan mass fails the mass check itself, before any cast warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                typeclass_code(bernoulli_matrix(0.9), 8,
                               [[[math.nan, 0.05], [0.05, 0.45]]])

    def test_one_permutation_per_bucket(self):
        assert len(typeclass_code(self.P, 6, [self.P.entries], T=3).perms) == 3
        code = typeclass_code(self.P, 6, [self.P.entries], T=0)
        assert code.T == len(code.perms) == 0
        for side in (0, 1):
            rows, buckets = code.membership(ALL_POINTS_6, side)
            assert rows.size == buckets.size == 0
        assert code.work(5, 5) == 0.0

    def test_support_violation(self):
        gappy = make_matrix([[0.5, 0.0], [0.25, 0.25]])
        with pytest.raises(DomainError):
            typeclass_code(gappy, 6, [np.full((2, 2), 0.25)], seed=0)


class TestCombinators:
    P = bernoulli_matrix(0.85)

    def test_tensor_success_squares(self):
        base = shell_code(3, 2, 2, seed=5)
        squared = tensor_power(base, 2)
        s = code_success_exact(base, self.P)
        assert code_success_exact(squared, self.P) == pytest.approx(s * s)

    def test_tensor_enumeration_agrees_with_product_form(self):
        for base, k in ((shell_code(3, 2, 2, seed=5), 2),
                        (classical_code(2, 1, 2, seed=3), 3)):
            power = tensor_power(base, k)
            power.success_exact = lambda p: None  # force the state sweep
            assert code_success_exact(power, self.P) == pytest.approx(
                code_success_exact(base, self.P) ** k, abs=1e-12
            )

    def test_tensor_membership_is_and_of_blocks(self):
        base = shell_code(3, 2, 2, seed=5)
        squared = tensor_power(base, 2)
        for side in (0, 1):
            m1 = dense(base, ALL_POINTS_6[:, :3], side)
            m2 = dense(base, ALL_POINTS_6[:, 3:], side)
            # composite id of (t1, t2) is t1 * T + t2
            expected = (m1[:, :, None] & m2[:, None, :]).reshape(64, 4)
            assert np.array_equal(dense(squared, ALL_POINTS_6, side), expected)

    def test_union_membership_is_or_with_offset(self):
        c1 = shell_code(6, 3, 3, seed=2)
        c2 = classical_code(6, 2, 2, seed=3)
        u = concatenate(c1, c2, "union")
        for side in (0, 1):
            expected = np.hstack([dense(c1, ALL_POINTS_6, side),
                                  dense(c2, ALL_POINTS_6, side)])
            assert np.array_equal(dense(u, ALL_POINTS_6, side), expected)

    def test_tensor_work_matches_materialized(self):
        base = shell_code(4, 2, 3, seed=8)
        cubed = tensor_power(base, 3)
        a, b = enumerated_measures(cubed, bernoulli_matrix(0.5))
        direct = float(
            np.sum(np.maximum(np.maximum(100 * a, 40 * b), 100 * a * 40 * b))
        )
        assert cubed.work(100, 40) == pytest.approx(direct)

    def test_tensor_groups_are_multisets(self):
        # float products are not associative, so keying groups by measure
        # pair split this base's powers into 11, 20 and 33 groups
        R = make_matrix([[0.5, 0.1], [0.15, 0.25]])
        base = concatenate(
            typeclass_code(R, 3, [R.entries], T=1),
            concatenate(shell_code(3, 2, 1), classical_code(3, 1, 1)),
            "blocks")
        per_bucket = [g for c, *g in base.bucket_probs() for _ in range(c)]
        group_of = [i for i, (c, _, _) in enumerate(base.bucket_probs())
                    for _ in range(c)]
        for k in (3, 4, 5):
            # group the base^k composite buckets, in lexicographic id order,
            # by the multiset of their components' groups
            expected = {}
            for ids in itertools.product(range(base.T), repeat=k):
                key = tuple(sorted(group_of[t] for t in ids))
                count, p0, p1 = expected.get(key, (0, 1.0, 1.0))
                if not count:
                    p0 = math.prod(per_bucket[t][0] for t in ids)
                    p1 = math.prod(per_bucket[t][1] for t in ids)
                expected[key] = (count + 1, p0, p1)
            groups = tensor_power(base, k).bucket_probs()
            assert len(groups) == len(expected) == math.comb(3 + k - 1, k)
            for (c, p0, p1), (ec, e0, e1) in zip(groups, expected.values()):
                assert c == ec
                assert p0 == pytest.approx(e0, rel=1e-14)
                assert p1 == pytest.approx(e1, rel=1e-14)
        with pytest.raises(TooLarge):  # C(1502, 1500) > 2^20 groups
            tensor_power(base, 1500).bucket_probs()

    def test_tensor_bucket_count(self):
        base = shell_code(4, 2, 3, seed=8)
        assert tensor_power(base, 3).T == 27
        assert tensor_power(base, 1) is base

    def test_concat_blocks_closed_form(self):
        c1 = shell_code(3, 2, 2, seed=5)
        c2 = classical_code(2, 1, 1, seed=6)
        cc = concatenate(c1, c2, "blocks")
        cc_enum = concatenate(c1, c2, "blocks")
        cc_enum.success_exact = lambda p: None
        assert code_success_exact(cc, self.P) == pytest.approx(
            code_success_exact(cc_enum, self.P), abs=1e-12
        )
        s1 = code_success_exact(c1, self.P)
        s2 = code_success_exact(c2, self.P)
        assert code_success_exact(cc, self.P) == pytest.approx(
            1 - (1 - s1) * (1 - s2)
        )

    def test_union_requires_equal_dims(self):
        with pytest.raises(DimensionMismatch):
            concatenate(shell_code(4, 2, 1, 0), shell_code(5, 2, 1, 0),
                        "union")

    def test_union_improves_success(self):
        c1 = shell_code(4, 2, 1, seed=1)
        c2 = shell_code(4, 2, 1, seed=2)
        u = concatenate(c1, c2, "union")
        assert code_success_exact(u, self.P) >= max(
            code_success_exact(c1, self.P), code_success_exact(c2, self.P)
        ) - 1e-12

    def test_trivial_codes(self):
        assert code_success_exact(full_space_code(4), self.P) == 1.0
        assert code_success_exact(empty_code(4), self.P) == 0.0
        assert code_work(full_space_code(4), 10, 20) == 200.0


RECT = make_matrix([[0.3, 0.1, 0.1], [0.1, 0.2, 0.2]])
HALVES = [RECT.entries * 0.5] * 2  # two blocks, so permutations matter
BERN = bernoulli_matrix(0.85)


class TestExactSweep:
    @pytest.mark.parametrize("code, P", [
        (typeclass_code(RECT, 4, HALVES, seed=1, T=3), RECT),
        (typeclass_code(RECT, 5, HALVES, seed=2, T=3), RECT),
        (typeclass_code(RECT, 1, [RECT.entries], seed=0, T=1), RECT),
        (shell_code(5, 3, 3, seed=2), BERN),
        (classical_code(1, 1, 1, seed=0), BERN),
        (concatenate(shell_code(6, 3, 3, seed=1), classical_code(6, 2, 2, 2),
                     "union"), BERN),
        (concatenate(typeclass_code(RECT, 4, HALVES, seed=1, T=2),
                     typeclass_code(RECT, 4, HALVES, seed=2, T=2),
                     "union"), RECT),
    ], ids=["typeclass-2x3-d4", "typeclass-2x3-d5", "typeclass-2x3-d1",
            "shell-d5", "classical-d1", "union", "union-2x3"])
    def test_matches_pair_enumeration(self, code, P):
        assert code.success_exact(P) is None  # no closed form to fall to
        assert abs(code_success_exact(code, P) - kron_success(code, P)) <= 1e-14

    def test_memory_is_one_row_block(self):
        code, P = shell_code(12, 7, 13, seed=3), bernoulli_matrix(0.9)
        tracemalloc.start()
        try:
            code_success_exact(code, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 4096 x 4096 pair arrays alone would take 128 MiB
        assert peak < 16 * 2**20


class TestGuardsAndDescriptors:
    def test_enumeration_guard(self):
        with pytest.raises(TooLarge):
            code_success_exact(shell_code(30, 15, 1, 0), bernoulli_matrix(0.9))

    def test_membership_matrix_guard(self, monkeypatch):
        def no_membership(self, points, side):
            raise AssertionError("membership computed")

        P = bernoulli_matrix(0.9)
        monkeypatch.setattr("bucketing.codes.ShellCode.membership",
                            no_membership)
        # 4096 states x 257 buckets per side exceed the 2^20-entry guard
        with pytest.raises(TooLarge):
            code_success_exact(shell_code(12, 7, 257), P)
        with pytest.raises(AssertionError):  # 4096 x 256 is admitted
            code_success_exact(shell_code(12, 7, 256), P)

    def test_tensor_membership_guards(self):
        pts = np.zeros((2, 2), dtype=np.uint8)
        # d0 = d = 1 puts every point in all 1100 buckets: 1100^2 > 2^20
        with pytest.raises(TooLarge):
            tensor_power(shell_code(1, 1, 1100, 0), 2).membership(pts, 0)
        # 2^62 buckets per factor: composite ids would overflow int64
        with pytest.raises(TooLarge):
            tensor_power(classical_code(62, 62, 1, 0), 2).membership(
                np.zeros((2, 124), dtype=np.uint8), 0)

    def test_work_size_validation(self):
        with pytest.raises(DomainError):
            code_work(shell_code(4, 2, 1, 0), 0, 5)

    def test_descriptor_round_trip(self):
        pts = np.random.default_rng(7).integers(0, 2, (12, 12), dtype=np.uint8)
        for code in every_kind():
            clone = code_from_descriptor(code.descriptor())
            sub = pts[:, : code.d]
            for side in (0, 1):
                for a, b in zip(code.membership(sub, side),
                                clone.membership(sub, side)):
                    assert np.array_equal(a, b)

    def test_membership_is_sorted_coo(self):
        pts = np.random.default_rng(8).integers(0, 2, (15, 12), dtype=np.uint8)
        for code in every_kind():
            for side in (0, 1):
                rows, buckets = code.membership(pts[:, : code.d], side)
                assert rows.dtype == buckets.dtype == np.int64
                assert rows.shape == buckets.shape
                key = rows * code.T + buckets
                assert np.all(np.diff(key) > 0)  # by point, then bucket
                assert np.all((0 <= buckets) & (buckets < code.T))
                assert np.all((0 <= rows) & (rows < len(pts)))

    @pytest.mark.parametrize("n0, n1", [
        (math.nan, 3), (3, math.nan), (math.inf, 3), (3, -math.inf),
    ])
    def test_work_rejects_non_finite(self, n0, n1):
        with pytest.raises(DomainError):
            code_work(shell_code(4, 2, 1, 0), n0, n1)

    # json.dumps of each descriptor: every_kind(), then a default-T
    # type-class code; key order and every field are part of the format
    DESCRIPTORS = (
        '{"kind": "full_space", "d": 5, "T": 1, "seed": 0, "params": {}}',
        '{"kind": "empty", "d": 5, "T": 0, "seed": 0, "params": {}}',
        '{"kind": "shell", "d": 6, "T": 5, "seed": 11, "params": {"d0": 3}}',
        '{"kind": "classical", "d": 6, "T": 12, "seed": 12, "params": {"k": 2, "draws": 3}}',
        '{"kind": "typeclass", "d": 6, "T": 2, "seed": 13, "params": {"matrix": [[0.4, 0.09999999999999998], [0.09999999999999998, 0.4]], "block_counts": [[[2, 1], [1, 2]]]}}',
        '{"kind": "tensor_power", "d": 6, "T": 4, "seed": 14, "params": {"k": 2, "base": {"kind": "shell", "d": 3, "T": 2, "seed": 14, "params": {"d0": 2}}}}',
        '{"kind": "concatenate", "d": 4, "T": 6, "seed": 1, "params": {"mode": "union", "first": {"kind": "shell", "d": 4, "T": 2, "seed": 1, "params": {"d0": 2}}, "second": {"kind": "classical", "d": 4, "T": 4, "seed": 2, "params": {"k": 2, "draws": 1}}}}',
        '{"kind": "concatenate", "d": 7, "T": 7, "seed": 3, "params": {"mode": "blocks", "first": {"kind": "classical", "d": 4, "T": 4, "seed": 3, "params": {"k": 1, "draws": 2}}, "second": {"kind": "shell", "d": 3, "T": 3, "seed": 4, "params": {"d0": 2}}}}',
        '{"kind": "typeclass", "d": 6, "T": 1, "seed": 13, "params": {"matrix": [[0.4, 0.09999999999999998], [0.09999999999999998, 0.4]], "block_counts": [[[2, 1], [1, 2]]]}}',
    )

    def test_descriptor_bytes_pinned(self):
        P = bernoulli_matrix(0.8)
        codes = every_kind() + [typeclass_code(P, 6, [P.entries], seed=13)]
        assert len(codes) == len(self.DESCRIPTORS)
        for code, want in zip(codes, self.DESCRIPTORS):
            assert json.dumps(code.descriptor()) == want

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            code_from_descriptor({"kind": "mystery", "d": 4, "T": 1,
                                  "seed": 0, "params": {}})

    def test_negative_counts_rejected(self):
        P = bernoulli_matrix(0.8)
        builders = (
            lambda: shell_code(4, 2, -1),
            lambda: classical_code(4, 2, -1),
            lambda: typeclass_code(P, 6, [P.entries], T=-1),
        )
        for build in builders:
            with pytest.raises(DomainError):
                build()


@st.composite
def small_matrices(draw):
    """(P, binary): a symmetric binary P with uniform marginals, on which
    every kind is defined, or a full-support P of up to 3x3, on which the
    shell and classical codes are not."""
    if draw(st.booleans()):
        a = draw(st.integers(1, 9))
        return make_matrix(np.array([[a, 10 - a], [10 - a, a]]) / 20), True
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = np.array(draw(st.lists(st.integers(1, 9), min_size=rows * cols,
                               max_size=rows * cols)), float)
    return make_matrix((w / w.sum()).reshape(rows, cols)), False


@st.composite
def small_codes(draw, P, binary, d, depth=2):
    """A code of dimension d over P's alphabet, combinators nested up to
    `depth` deep."""
    kinds = ["full", "empty", "typeclass"] + (["shell", "classical"]
                                              if binary else [])
    if depth:
        kinds += ["union"] + (["tensor", "blocks"] if d > 1 else [])
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 1 << 16))
    if kind == "full":
        return full_space_code(d)
    if kind == "empty":
        return empty_code(d)
    if kind == "shell":
        return shell_code(d, draw(st.integers(1, d)), draw(st.integers(0, 3)),
                          seed)
    if kind == "classical":
        return classical_code(d, draw(st.integers(1, d)),
                              draw(st.integers(0, 2)), seed)
    if kind == "typeclass":
        share = draw(st.sampled_from([1.0, 0.5, 0.25]))
        blocks = ([P.entries] if share == 1.0
                  else [P.entries * share, P.entries * (1 - share)])
        return typeclass_code(P, d, blocks, seed, T=draw(st.integers(0, 3)))
    if kind == "tensor":
        k = draw(st.sampled_from([k for k in range(2, d + 1) if d % k == 0]))
        return tensor_power(draw(small_codes(P, binary, d // k, depth - 1)), k)
    d1 = d if kind == "union" else draw(st.integers(1, d - 1))
    d2 = d if kind == "union" else d - d1
    return concatenate(draw(small_codes(P, binary, d1, depth - 1)),
                       draw(small_codes(P, binary, d2, depth - 1)), kind)


class TestBucketProbs:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_groups_match_membership(self, data):
        P, binary = data.draw(small_matrices())
        code = data.draw(small_codes(P, binary, data.draw(st.integers(1, 6))))
        n0 = data.draw(st.floats(0.5, 100.0))
        n1 = data.draw(st.floats(0.5, 100.0))
        groups = code.bucket_probs()
        a, b = enumerated_measures(code, P)
        assert sum(count for count, _, _ in groups) == code.T == len(a)
        # every group's pair is carried by as many buckets as the groups
        # with that pair count, so the two multisets of pairs agree
        for _, p0, p1 in groups:
            carried = np.isclose(a, p0, rtol=1e-9, atol=0) & np.isclose(
                b, p1, rtol=1e-9, atol=0)
            listed = sum(c for c, q0, q1 in groups
                         if math.isclose(q0, p0, rel_tol=1e-9)
                         and math.isclose(q1, p1, rel_tol=1e-9))
            assert carried.sum() == listed
        direct = float(np.sum(np.maximum(np.maximum(n0 * a, n1 * b),
                                         n0 * a * n1 * b)))
        assert code.work(n0, n1) == pytest.approx(direct, rel=1e-12, abs=0)
        assert code_from_descriptor(code.descriptor()).bucket_probs() == groups

    def test_work_closed_form_beyond_guard(self):
        # both codes have more than 2^20 buckets, all alike but the shell's
        n0, n1 = 1e5, 3e4
        shell = shell_code(40, 20, 1)
        code = concatenate(classical_code(40, 20, 3), shell)
        assert code.T == 3 * 2**20 + 1
        q, p = 2.0**-20, shell.p_star
        assert code.work(n0, n1) == pytest.approx(
            3 * 2**20 * max(n0 * q, n1 * q, n0 * q * n1 * q)
            + max(n0 * p, n1 * p, n0 * p * n1 * p), rel=1e-15)
        nested = tensor_power(tensor_power(classical_code(22, 11, 1), 2), 2)
        assert nested.T == 2**44
        q = 2.0**-44
        assert nested.bucket_probs() == [(2**44, q, q)]
        assert nested.work(n0, n1) == 2**44 * max(n0 * q, n1 * q,
                                                  n0 * q * n1 * q)
        with pytest.raises(TooLarge):  # 100^200 buckets
            tensor_power(shell_code(4, 2, 100), 200).work(2, 2)
