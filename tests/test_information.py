import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bucketing import information
from bucketing.errors import DomainError, MassError, SupportViolation
from bucketing.information import (
    InfoQuery,
    attainable_point,
    asymmetric_comparisons,
    block_objective,
    conjecture_scan,
    direct_lower_bound,
    info_closed_form,
    info_floor,
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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lam=st.floats(-10, 10), bad_lam=st.sampled_from(
               [math.nan, math.inf, -math.inf]),
           mu=st.floats(0, 1e6) | st.just(math.inf),
           bad_mu=st.floats(max_value=-1e-300) | st.just(math.nan),
           which=st.integers(0, 1))
    def test_query_validation_property(self, lam, bad_lam, mu, bad_mu, which):
        # finite lambdas with mu >= 0 (inf included) pass; a non-finite
        # lambda in either place, or a nan or negative mu, raises
        InfoQuery(lam, -lam, mu)
        lams = [lam, lam]
        lams[which] = bad_lam
        with pytest.raises(DomainError):
            InfoQuery(*lams, mu)
        with pytest.raises(DomainError):
            InfoQuery(lam, lam, bad_mu)


NAN_BLOCK = [[math.nan, 0.5], [0.25, 0.25]]


@pytest.mark.parametrize("call, error", [
    (lambda: info_closed_form(BERN9, math.nan), DomainError),
    (lambda: asymmetric_comparisons(0.8, math.nan, 100, 0.1), DomainError),
    (lambda: asymmetric_comparisons(0.8, math.inf, 100, 0.1), DomainError),
    (lambda: asymmetric_comparisons(0.8, 100, math.inf, 0.1), DomainError),
    (lambda: conjecture_scan([2.0], 12), DomainError),
    (lambda: conjecture_scan([math.nan], 12), DomainError),
    (lambda: conjecture_scan([0.4], 12), DomainError),
    (lambda: conjecture_scan([0.75], 12, tol=math.nan), DomainError),
    (lambda: conjecture_scan([0.75], 12, tol=-1e-3), DomainError),
    (lambda: subconjugate_frontier(BERN9, (math.inf, 1.0)), DomainError),
    (lambda: kl_extended([math.nan, 1.0], [0.5, 0.5]), MassError),
    (lambda: attainable_point([NAN_BLOCK], BERN9), MassError),
    (lambda: block_objective(BERN9, [NAN_BLOCK], 1.0, 1.0, 0.5), MassError),
    (lambda: block_objective(BERN9, [BERN9.entries], 1.0, 1.0, math.nan),
     DomainError),
    (lambda: block_objective(BERN9, [BERN9.entries], math.inf, 1.0, 0.5),
     DomainError),
], ids=[
    "closed-form-nan-mu", "comparisons-nan-n0", "comparisons-inf-n0",
    "comparisons-inf-n1", "scan-p-above-1", "scan-nan-p", "scan-p-below-half",
    "scan-nan-tol", "scan-negative-tol", "frontier-inf-direction",
    "kl-nan-entry", "attainable-nan-block", "objective-nan-block",
    "objective-nan-mu", "objective-inf-lambda",
])
def test_bad_input_raises(call, error):
    # each of these used to return nan, a clean report, or (the infinite
    # frontier direction) never return
    with pytest.raises(error):
        call()


class TestInfoNumeric:
    def test_matches_closed_form_at_unit_lambdas(self):
        # info_numeric answers unit lambdas from the candidates, so the
        # evidence for the closed form is the regime's ascent without them,
        # also on supports that are not the full square grid
        rng = derive_rng(41, "cf")
        matrices = [random_matrix(rng, 2) for _ in range(6)] + [
            make_matrix([[0.2, 0.0], [0.4, 0.4]]),
            make_matrix([[0.3, 0.1, 0.05], [0.05, 0.2, 0.3]]),
            bernoulli_matrix(1.0),
        ]
        for p in matrices:
            for mu in (0.0, 0.5, 1.0, 1.5, 2.0, 8.0, math.inf):
                support = information._support(p, mu)
                _, w = information._candidates(p, 1.0, 1.0, mu, support)
                problem = information._problem(p, support, w, 1.0, 1.0, mu,
                                               n_starts=8, seed=20240)
                ascent = information._ascend(*problem, [])[0]
                closed = info_closed_form(p, mu)
                assert closed - 1e-4 <= ascent <= closed + 1e-12

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
        # the exact identity split attains the maximum, and a candidate
        # win needs no start to agree with it
        res = info_numeric(BERN9, InfoQuery(1.0, 1.0, math.inf), n_starts=1)
        assert res.method == "closed_form"
        assert res.value == pytest.approx(mutual_information(BERN9), abs=1e-15)
        assert res.converged

    def test_unit_lambdas_need_no_solve(self, monkeypatch):
        # at lambda0 = lambda1 = 1 a candidate is exact in every regime, so
        # the answer is the best candidate and no optimizer runs
        def no_solve(*args, **kwargs):
            raise AssertionError("the optimizer ran at unit lambdas")

        monkeypatch.setattr(information, "minimize", no_solve)
        for p in (SKEW, make_matrix([[0.2, 0.0], [0.4, 0.4]]),
                  make_matrix([[0.3, 0.1, 0.05], [0.05, 0.2, 0.3]]),
                  tensor(SKEW, BERN9)):
            for mu in (0.0, 0.5, 1.0, 2.0, math.inf):
                res = info_numeric(p, InfoQuery(1.0, 1.0, mu))
                assert res.method == "closed_form" and res.converged
                assert res.value == info_closed_form(p, mu)

    def test_floor_is_sound(self):
        # info_floor is the best exact candidate, which the solvers also rank,
        # so it never exceeds the solved value and equals it when a
        # candidate wins
        matrices = [
            SKEW,
            make_matrix([[0.2, 0.0], [0.4, 0.4]]),
            make_matrix([[0.3, 0.1, 0.05], [0.05, 0.2, 0.3]]),
            tensor(SKEW, BERN9),
        ]
        positive = 0
        for p in matrices:
            for mu in (0.0, 0.5, 1.0, 2.0, 8.0, math.inf):
                if p.entries.size == 16 and 1 < mu < math.inf:
                    continue  # the 4x4 multi-block solve costs seconds
                for l0, l1 in ((1.0, 1.0), (0.7, 0.9), (1.0, 0.2), (0.3, 0.8)):
                    query = InfoQuery(l0, l1, mu)
                    floor = info_floor(p, query)
                    res = info_numeric(p, query, n_starts=8)
                    assert floor <= res.value
                    if res.method == "closed_form":
                        assert floor == res.value
                    positive += floor > 0
        assert positive > 0

    def test_result_json(self):
        res = info_numeric(BERN9, InfoQuery(1.0, 1.0, 2.0), n_starts=4)
        rec = json.loads(res.to_json(InfoQuery(1.0, 1.0, 2.0)))
        assert rec["value"] == pytest.approx(res.value)


def _kl(q, p):
    q = np.asarray(q, float).ravel()
    p = np.asarray(p, float).ravel()
    m = q > 0
    return float(np.sum(q[m] * np.log(q[m] / p[m])))


def _count_solves(monkeypatch):
    """Record every I solve from here on.  The I cache is bypassed, so a
    value another test left in it is counted too."""
    real = information.info_numeric
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(information, "info_numeric", counting)
    monkeypatch.setattr(information, "_info_cached",
                        information._info_cached.__wrapped__)
    return calls


def _ribbon_margin(p_val, l0, l1):
    rho = 2 * p_val - 1
    return (1 - l0) * (1 - l1) - rho * rho * l0 * l1


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
        # the diagonal frontier of B_p is lambda = 1/(2p), Bonami-Beckner
        # hypercontractivity: the paper's 1/p-optimality conjecture is a
        # theorem
        for p_val in (0.8, 0.9):
            l0, l1 = subconjugate_frontier(
                bernoulli_matrix(p_val), (1.0, 1.0)
            )[:2]
            assert l0 == pytest.approx(l1, abs=1e-6)
            assert l0 == pytest.approx(1.0 / (2.0 * p_val), abs=1e-12)

    @pytest.mark.parametrize("p_val", [0.55, 0.7, 0.9, 0.99, 1.0])
    def test_ribbon_frontier_is_certified(self, p_val, monkeypatch):
        # B_p's frontier is the ribbon (1-l0)(1-l1) = rho^2 l0 l1, taken
        # without an I solve and stepped inside until its float margin is
        # positive; the solver is an independent oracle on either side
        p = bernoulli_matrix(p_val)
        directions = [(math.cos(th), math.sin(th))
                      for th in np.linspace(0.0, math.pi / 2, 10)[1:-1]]
        calls = _count_solves(monkeypatch)
        points = [subconjugate_frontier(p, d) for d in directions]
        assert calls == []
        monkeypatch.undo()
        for l0, l1 in points:
            if p_val < 1:
                assert _ribbon_margin(p_val, l0, l1) > 0
                assert l0 + l1 >= 1
                assert is_subconjugate(p, l0, l1)[0]
            else:
                # rho = 1: the ribbon is lambda0 + lambda1 <= 1, which is
                # sub-conjugate for every P
                assert l0 + l1 == pytest.approx(1.0, abs=1e-15)
            scale = 1 + 2 * information.FRONTIER_WIDTH
            out = (min(l0 * scale, 1.0), min(l1 * scale, 1.0))
            assert not is_subconjugate(p, *out)[0]

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

    def test_direct_bound_validation(self, monkeypatch):
        # set sizes must be finite and >= 1 in both bounds, and the work
        # bound needs at least one matrix, checked before any I evaluation
        def no_solve(*args, **kwargs):
            raise AssertionError("I solved before the arguments were checked")

        monkeypatch.setattr(information, "info_numeric", no_solve)
        # the fan needs both axis points: fewer than 2 directions is no fan
        for n_directions in (-1, 0, 1):
            with pytest.raises(DomainError):
                direct_lower_bound(BERN9, 1000, 1000, 0.9,
                                   n_directions=n_directions)
        for n0, n1, s in (
            (0.5, 10, 0.5), (10, 10, 1.5), (math.nan, 1000, 0.9),
            (math.inf, 1000, 0.9), (1000, math.nan, 0.9), (0, 1000, 0.9),
        ):
            with pytest.raises(DomainError):
                direct_lower_bound(BERN9, n0, n1, s)
            with pytest.raises(DomainError):
                work_lower_bound([BERN9], n0, n1, s)
        with pytest.raises(DomainError):
            work_lower_bound([], 1000, 1000, 0.9)

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

    def test_work_bound_skips_unwinnable_solves(self, monkeypatch):
        # one solve per finite-mu grid point would be 336; points whose
        # exact-candidate floor cannot beat the incumbent, or falls short
        # of the unit-lambda column, are not solved
        calls = _count_solves(monkeypatch)
        work_lower_bound([bernoulli_matrix(0.87)], 1000, 1000, 0.9)
        assert len(calls) <= 2

    def test_bound_cli_arguments_need_no_solve(self, monkeypatch):
        # `bucketing bound` on B_p: the work bound's maximum sits on the
        # free unit-lambda column and the frontier is the ribbon
        calls = _count_solves(monkeypatch)
        for p_val in (0.8995, 0.9, 0.9005):
            p = bernoulli_matrix(p_val)
            work_lower_bound([p], 1000, 1000, 0.9)
            direct_lower_bound(p, 1000, 1000, 0.9, n_directions=5)
        assert calls == []

    @pytest.mark.parametrize("p_list, n0, n1, s, n_starts, expected", [
        ([bernoulli_matrix(0.87)], 1000, 1000, 0.9, 16,
         "WorkBound(ln_w=13.173140647458501, lambda0=1.0, lambda1=1.0, "
         "mu=1.6754150390625)"),
        ([make_matrix([[0.5, 0.1], [0.15, 0.25]])], 1000, 100, 0.9, 16,
         "WorkBound(ln_w=11.105336189130718, lambda0=1.0, lambda1=1.0, "
         "mu=1.8045654296875)"),
        ([BERN9], 2, 2, 0.99, 16,
         "WorkBound(ln_w=0.9209925804587218, lambda0=1.0, lambda1=1.0, "
         "mu=5.004638671875)"),
        ([BERN9] * 3, 1000, 1000, 0.9, 8,
         "WorkBound(ln_w=12.151943500259044, lambda0=1.0, lambda1=1.0, "
         "mu=2.7706298828125)"),
        ([make_matrix([[0.3, 0.1, 0.05], [0.05, 0.2, 0.3]])], 100, 100, 0.9,
         16,
         "WorkBound(ln_w=8.676424873256494, lambda0=1.0, lambda1=1.0, "
         "mu=1.8341064453125)"),
        ([BERN9, bernoulli_matrix(0.8), BERN9], 1000, 1000, 0.9, 16,
         "WorkBound(ln_w=12.342689466277596, lambda0=1.0, lambda1=1.0, "
         "mu=2.76513671875)"),
        # demo 03's shell code, whose maximizer is off the unit column
        ([BERN9] * 12, 4, 4, 0.9679207501918179, 8,
         "WorkBound(ln_w=1.504214375562589, lambda0=0.45182291666666685, "
         "lambda1=0.6588541666666669, mu=1.0)"),
        # (0, 1, 1) ties (1, 0, 1), and grid order keeps the first
        ([BERN9] * 12, 4, 4, 0.5, 8,
         "WorkBound(ln_w=0.6931471805599453, lambda0=0.0, lambda1=1.0, "
         "mu=1.0)"),
    ], ids=["b087", "non-symmetric", "b09-n2", "b09-3-blocks", "2x3", "mixed",
            "shell-demo", "axis-tie"])
    def test_work_bound_pinned(self, p_list, n0, n1, s, n_starts, expected):
        # values of the search that solved every point the floor could not
        # rule out; skipping points below the unit-lambda column keeps them
        wb = work_lower_bound(p_list, n0, n1, s, n_starts=n_starts)
        assert repr(wb) == expected


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

    def test_linear_below_threshold(self):
        # n0 = n1^0.3 and 0.3 <= (2p-1)^2 - eps: the ribbon bound is linear,
        # n1^1, where the formula would give n1^1.177
        n1 = 1e6
        for n0, n1 in ((n1**0.3, n1), (n1, n1**0.3)):
            comparisons, threshold = asymmetric_comparisons(0.9, n0, n1, 0.1)
            assert comparisons == max(n0, n1)
            assert threshold == pytest.approx(0.64)

    def test_symmetric_case_positive(self):
        comparisons, _ = asymmetric_comparisons(0.9, 1e5, 1e5, 0.1)
        assert comparisons > 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            asymmetric_comparisons(0.5, 10, 10, 0.1)
        with pytest.raises(DomainError):
            asymmetric_comparisons(0.8, 1, 10, 0.1)
