import itertools
import json
import math

import numpy as np
import pytest

from bucketing.errors import DomainError, MassError, SupportViolation
from bucketing.information import (
    InfoQuery,
    attainable_point,
    asymmetric_comparisons,
    block_objective,
    conjecture_scan,
    direct_lower_bound,
    info_closed_form,
    info_numeric,
    is_subconjugate,
    subconjugate_frontier,
    work_lower_bound,
)
from bucketing.probmodel import (
    bernoulli_matrix,
    kl_extended,
    make_matrix,
    mutual_information,
    tensor,
)
from bucketing.rng import derive_rng

UNIFORM = make_matrix([[0.25, 0.25], [0.25, 0.25]])
BERN9 = bernoulli_matrix(0.9)
SKEW = make_matrix([[0.5, 0.1], [0.1, 0.3]])


def random_matrix(rng, b0, b1=None, sparsify=False):
    b1 = b0 if b1 is None else b1
    e = rng.dirichlet(np.ones(b0 * b1)).reshape(b0, b1)
    if sparsify:
        e.ravel()[int(rng.integers(e.size))] = 0.0
        e = e / e.sum()
    return make_matrix(e)


class TestClosedForm:
    def test_mu_zero_is_min_marginal_product(self):
        # I(P,1,1,0) = -ln min over support of p_j* p_*k
        for p in (BERN9, SKEW, UNIFORM):
            cells = np.outer(p.row_marginals, p.col_marginals)
            target = -math.log(cells[p.entries >= 0].min())
            assert info_closed_form(p, 0.0) == pytest.approx(target)

    def test_mu_one_is_max_lift(self):
        for p in (BERN9, SKEW):
            lift = p.entries / np.outer(p.row_marginals, p.col_marginals)
            assert info_closed_form(p, 1.0) == pytest.approx(
                math.log(lift.max())
            )

    def test_mu_infinite_is_mutual_information(self):
        for p in (BERN9, SKEW, UNIFORM):
            assert info_closed_form(p, math.inf) == pytest.approx(
                mutual_information(p)
            )

    def test_mu_above_one_log_sum(self):
        # (mu-1) ln sum p (p/(p_row p_col))^(1/(mu-1)), recomputed here
        for p in (BERN9, SKEW):
            for mu in (1.5, 2.0, 3.0):
                lift = p.entries / np.outer(p.row_marginals, p.col_marginals)
                target = (mu - 1) * math.log(
                    float(np.sum(p.entries * lift ** (1.0 / (mu - 1))))
                )
                assert info_closed_form(p, mu) == pytest.approx(target)

    def test_uniform_zero_from_mu_one(self):
        # below mu = 1 the marginal reward dominates even for uniform P:
        # a single-cell Q earns ln(1/(p_j* p_*k)) at price mu ln(1/p_jk)
        assert info_closed_form(UNIFORM, 0.0) == pytest.approx(math.log(4.0))
        assert info_closed_form(UNIFORM, 0.5) == pytest.approx(math.log(2.0))
        for mu in (1.0, 2.0, math.inf):
            assert info_closed_form(UNIFORM, mu) == pytest.approx(0.0, abs=1e-12)

    def test_continuity_at_mu_one(self):
        assert info_closed_form(BERN9, 1.0 + 1e-9) == pytest.approx(
            info_closed_form(BERN9, 1.0), abs=1e-6
        )

    def test_negative_mu_rejected(self):
        with pytest.raises(DomainError):
            info_numeric(BERN9, InfoQuery(1.0, 1.0, -0.5))

    @pytest.mark.parametrize("query", [
        (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (math.inf, 1.0, 1.0),
        (1.0, -math.inf, 1.0), (1.0, 1.0, math.nan),
    ])
    def test_non_finite_query_rejected(self, query):
        # mu = inf is a regime of its own; nan and infinite lambdas are not
        with pytest.raises(DomainError):
            InfoQuery(*query)


class TestInfoNumeric:
    def test_matches_closed_form_at_unit_lambdas(self):
        rng = derive_rng(41, "cf")
        for i in range(6):
            p = random_matrix(rng, 2)
            for mu in (0.0, 0.5, 1.0, 2.0, math.inf):
                res = info_numeric(p, InfoQuery(1.0, 1.0, mu), n_starts=8)
                assert res.value == pytest.approx(
                    info_closed_form(p, mu), abs=1e-8
                )

    def test_witness_attains_value(self):
        # block_objective re-evaluates the definition at the witness, so
        # agreement rules out optimizer overshoot; the 2x3 and zero-cell
        # matrices place witness blocks on supports that are not the full
        # square grid, and at mu = 0 the zero-cell witness sits on the zero
        # cell itself
        rng = derive_rng(42, "wit")
        matrices = [random_matrix(rng, 2) for _ in range(4)] + [
            make_matrix([[0.3, 0.1, 0.05], [0.05, 0.2, 0.3]]),
            make_matrix([[0.2, 0.0], [0.4, 0.4]]),
        ]
        for p in matrices:
            for l0, l1, mu in (
                (1.0, 1.0, 0.0), (0.7, 0.9, 0.0),
                (0.7, 1.0, 0.5), (1.0, 0.6, 1.0), (0.8, 0.9, 2.0),
                (1.0, 1.0, math.inf),
            ):
                res = info_numeric(p, InfoQuery(l0, l1, mu), n_starts=8)
                assert block_objective(p, res.witness, l0, l1, mu) == (
                    pytest.approx(res.value, abs=1e-7)
                )
        # only mu = 0 prices a block on a zero cell of P
        with pytest.raises(SupportViolation):
            block_objective(matrices[-1], [[[0.0, 1.0], [0.0, 0.0]]], 1.0, 1.0, 0.5)

    def test_grid_oracle_single_term(self):
        # dense simplex scan of the single-term objective (mu <= 1 regime)
        p = SKEW
        l0, l1, mu = 0.75, 0.9, 0.8
        res = info_numeric(p, InfoQuery(l0, l1, mu), n_starts=16)
        n = 80
        best = 0.0
        pr, pc = p.row_marginals, p.col_marginals
        pe = p.entries.ravel()
        for a in range(n + 1):
            for b in range(n + 1 - a):
                for c in range(n + 1 - a - b):
                    q = np.array([a, b, c, n - a - b - c]) / n
                    qm = q.reshape(2, 2)
                    val = (
                        l0 * _kl(qm.sum(1), pr)
                        + l1 * _kl(qm.sum(0), pc)
                        - mu * _kl(q, pe)
                    )
                    best = max(best, val)
        assert res.value >= best - 1e-9
        assert res.value <= best + 5e-3  # grid spacing slack

    def test_zero_lambdas_zero(self):
        for mu in (0.5, 1.0, 2.0):
            res = info_numeric(SKEW, InfoQuery(0.0, 0.0, mu), n_starts=4)
            assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_monotone_nonincreasing_in_mu(self):
        rng = derive_rng(43, "mono")
        for i in range(3):
            p = random_matrix(rng, 2)
            vals = [
                info_numeric(p, InfoQuery(1.0, 0.8, mu), n_starts=8).value
                for mu in (0.0, 0.5, 1.0, 2.0)
            ]
            for lo, hi in zip(vals[1:], vals):
                assert lo <= hi + 1e-8

    def test_monotone_nondecreasing_in_lambda(self):
        p = SKEW
        vals = [
            info_numeric(p, InfoQuery(l, 1.0, 1.0), n_starts=8).value
            for l in (0.25, 0.5, 0.75, 1.0)
        ]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-8

    def test_tensor_additivity_spot(self):
        rng = derive_rng(44, "tens")
        p1 = random_matrix(rng, 2)
        p2 = random_matrix(rng, 2)
        pt = tensor(p1, p2)
        for l0, l1, mu in ((1.0, 1.0, 0.5), (0.8, 0.9, 1.0)):
            a = info_numeric(p1, InfoQuery(l0, l1, mu), n_starts=12).value
            b = info_numeric(p2, InfoQuery(l0, l1, mu), n_starts=12).value
            c = info_numeric(pt, InfoQuery(l0, l1, mu), n_starts=24).value
            assert c == pytest.approx(a + b, abs=5e-3)

    def test_zero_cell_support(self):
        p = make_matrix([[0.6, 0.0], [0.2, 0.2]])
        for mu in (0.5, 1.0, 2.0, math.inf):
            res = info_numeric(p, InfoQuery(1.0, 1.0, mu), n_starts=8)
            assert res.value == pytest.approx(
                info_closed_form(p, mu), abs=1e-8
            )

    def test_closed_form_win_is_converged(self):
        # n_starts=1 leaves only the two fixed starts, and neither comes
        # within 1e-6 of the exact identity split that attains the maximum
        res = info_numeric(BERN9, InfoQuery(1.0, 1.0, math.inf), n_starts=1)
        assert res.method == "closed_form"
        assert res.value == pytest.approx(mutual_information(BERN9), abs=1e-15)
        assert res.converged

    def test_result_json(self):
        res = info_numeric(BERN9, InfoQuery(1.0, 1.0, 2.0), n_starts=4)
        rec = json.loads(res.to_json(InfoQuery(1.0, 1.0, 2.0)))
        assert rec["value"] == pytest.approx(res.value)


def _kl(q, p):
    q = np.asarray(q, float).ravel()
    p = np.asarray(p, float).ravel()
    m = q > 0
    return float(np.sum(q[m] * np.log(q[m] / p[m])))


class TestSubconjugacy:
    def test_axes_always_subconjugate(self):
        for p in (BERN9, SKEW, UNIFORM):
            assert is_subconjugate(p, 1.0, 0.0)[0]
            assert is_subconjugate(p, 0.0, 1.0)[0]
            assert is_subconjugate(p, 0.5, 0.5)[0]

    def test_independent_matrix_unit_corner(self):
        # K(Q||P) = K(Q row) + K(Q col) + I(Q) when P is a product, so
        # (1,1) is sub-conjugate for any independent P
        prod = make_matrix(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert is_subconjugate(prod, 1.0, 1.0)[0]
        assert is_subconjugate(UNIFORM, 1.0, 1.0)[0]

    def test_kl_product_decomposition(self):
        rng = derive_rng(45, "prod")
        prod = make_matrix(np.outer([0.3, 0.7], [0.6, 0.4]))
        for i in range(20):
            q = random_matrix(rng, 2)
            lhs = kl_extended(q, prod)
            rhs = (
                _kl(q.row_marginals, prod.row_marginals)
                + _kl(q.col_marginals, prod.col_marginals)
                + mutual_information(q)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_correlated_matrix_refuted_with_witness(self):
        flag, witness, value = is_subconjugate(BERN9, 1.0, 1.0)
        assert not flag and value > 0
        q = np.asarray(getattr(witness, "entries", witness), float)
        margin = (
            _kl(q.sum(1), BERN9.row_marginals)
            + _kl(q.sum(0), BERN9.col_marginals)
            - kl_extended(q, BERN9)
        )
        assert margin > 1e-6  # witness genuinely refutes the inequality

    def test_lambda_constraints(self):
        with pytest.raises(DomainError):
            is_subconjugate(BERN9, 1.2, 0.5)
        with pytest.raises(DomainError):
            is_subconjugate(BERN9, 0.3, 0.3)

    def test_frontier_axis_directions(self):
        assert subconjugate_frontier(BERN9, (1.0, 0.0))[:2] == (
            pytest.approx(1.0), pytest.approx(0.0)
        )

    def test_frontier_diagonal_bernoulli(self):
        # conjectured diagonal frontier at lambda = 1/(2p)
        for p_val in (0.8, 0.9):
            l0, l1 = subconjugate_frontier(
                bernoulli_matrix(p_val), (1.0, 1.0)
            )[:2]
            assert l0 == pytest.approx(l1, abs=1e-6)
            assert l0 == pytest.approx(1.0 / (2.0 * p_val), abs=2e-3)

    def test_frontier_diagonal_uniform_is_unit(self):
        l0, l1 = subconjugate_frontier(UNIFORM, (1.0, 1.0))[:2]
        assert l0 == pytest.approx(1.0, abs=1e-6)
        assert l1 == pytest.approx(1.0, abs=1e-6)

    def test_subconjugacy_closed_under_tensor(self):
        l0, l1 = subconjugate_frontier(BERN9, (1.0, 1.0))[:2]
        shrink = (l0 - 1e-3, l1 - 1e-3)
        assert is_subconjugate(BERN9, *shrink)[0]
        t = tensor(BERN9, BERN9)
        assert is_subconjugate(t, *shrink)[0]

    def test_rectangle_probability_bound(self):
        # P(A x B) <= P0(A)^l0 P1(B)^l1 for certified sub-conjugate pairs
        for p in (BERN9, SKEW):
            l0, l1 = subconjugate_frontier(p, (1.0, 1.0))[:2]
            for amask in range(1, 4):
                for bmask in range(1, 4):
                    rows = [j for j in range(2) if amask >> j & 1]
                    cols = [k for k in range(2) if bmask >> k & 1]
                    paxb = p.entries[np.ix_(rows, cols)].sum()
                    pa = p.row_marginals[rows].sum()
                    pb = p.col_marginals[cols].sum()
                    assert paxb <= pa**l0 * pb**l1 + 1e-9


class TestLowerBounds:
    def test_direct_bound_independent_case(self):
        # (1,1) on the frontier of a product P gives S * n0 * n1
        bound = direct_lower_bound(UNIFORM, 100, 50, 0.5, n_directions=16)
        assert bound == pytest.approx(0.5 * 100 * 50, rel=1e-3)

    def test_direct_bound_monotone(self):
        b1 = direct_lower_bound(BERN9, 100, 100, 0.5, n_directions=16)
        b2 = direct_lower_bound(BERN9, 1000, 100, 0.5, n_directions=16)
        assert b2 >= b1 > 0

    def test_direct_bound_validation(self):
        # set sizes must be finite and >= 1 in both bounds, checked before
        # any I evaluation
        for n0, n1, s in (
            (0.5, 10, 0.5), (10, 10, 1.5), (math.nan, 1000, 0.9),
            (math.inf, 1000, 0.9), (1000, math.nan, 0.9), (0, 1000, 0.9),
        ):
            with pytest.raises(DomainError):
                direct_lower_bound(BERN9, n0, n1, s)
            with pytest.raises(DomainError):
                work_lower_bound([BERN9], n0, n1, s)

    def test_work_bound_dominates_any_candidate(self):
        # the reported sup must be >= the (1,1,1) candidate computed here
        n0 = n1 = 1000.0
        s = 0.9
        d = 3
        wb = work_lower_bound([BERN9] * d, n0, n1, s, n_starts=8)
        i_one = info_numeric(BERN9, InfoQuery(1.0, 1.0, 1.0), n_starts=8).value
        candidate = (
            math.log(n0) + math.log(n1) + 1.0 * math.log(s) - d * i_one
        )
        assert wb.ln_w >= candidate - 1e-6
        assert wb.lambda0 <= 1.0 + 1e-12 and wb.lambda1 <= 1.0 + 1e-12


class TestConjectureScan:
    def test_small_scan_clean(self):
        report = conjecture_scan([0.6, 0.8], 16)
        assert report.violations == 0
        assert report.worst_margin >= -1e-9

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            conjecture_scan([0.6], 5)

    def test_margin_zero_at_p_itself(self):
        # Q = P makes both sides vanish, so the margin is ~0 somewhere
        report = conjecture_scan([0.75], 12)
        assert report.worst_margin == pytest.approx(0.0, abs=1e-9)


class TestAttainablePoints:
    def test_trivial_block_is_origin(self):
        pt = attainable_point([BERN9.entries], BERN9)
        assert np.allclose(pt.as_array(), 0.0, atol=1e-12)

    def test_mass_validation(self):
        with pytest.raises(MassError):
            attainable_point([BERN9.entries * 0.5], BERN9)

    def test_dominated_by_information(self):
        # lambda0 m0 + lambda1 m1 - mu s - w <= I(P, lambda0, lambda1, mu)
        rng = derive_rng(46, "att")
        for i in range(5):
            w = rng.dirichlet(np.ones(2))
            blocks = [
                w[0] * random_matrix(rng, 2).entries,
                w[1] * random_matrix(rng, 2).entries,
            ]
            pt = attainable_point(blocks, BERN9)
            for l0, l1, mu in ((1.0, 1.0, 1.0), (0.7, 0.9, 2.0)):
                lhs = l0 * pt.m0 + l1 * pt.m1 - mu * pt.s - pt.w
                rhs = info_numeric(
                    BERN9, InfoQuery(l0, l1, mu), n_starts=8
                ).value
                assert lhs <= rhs + 1e-6


class TestAsymmetricComparisons:
    def test_formula(self):
        p, n0, n1, eps = 0.8, 1e6, 1e4, 0.1
        comparisons, threshold = asymmetric_comparisons(p, n0, n1, eps)
        num = (
            math.log(n0) + math.log(n1)
            - 2 * (2 * p - 1) * math.sqrt(math.log(n0) * math.log(n1))
        )
        assert comparisons == pytest.approx(
            math.exp(num / (4 * p * (1 - p) * (1 - eps)))
        )
        assert threshold == pytest.approx((2 * p - 1) ** 2)

    def test_symmetric_case_positive(self):
        comparisons, _ = asymmetric_comparisons(0.9, 1e5, 1e5, 0.1)
        assert comparisons > 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            asymmetric_comparisons(0.5, 10, 10, 0.1)
        with pytest.raises(DomainError):
            asymmetric_comparisons(0.8, 1, 10, 0.1)
