"""The bucketing information function I(P, lambda0, lambda1, mu).

I generalizes Shannon mutual information (recovered at lambda0=lambda1=1,
mu=infinity) and governs both the work lower bounds and the attainable
region of bucketing codes.  The maximization underlying I is a difference
of divergence terms and is not concave.  Each of the three regimes (mu <= 1,
1 < mu < infinity, mu = infinity) supplies a softmax parametrization with
its gradient, deterministic starts and a witness map.  The two block
regimes map their parameters to a block family and share one objective,
the definition lambda0 m0 + lambda1 m1 - mu s - w with its gradient
(`_block_value_grad`); mu <= 1 keeps its own one-block form, so that its
values stay the same to the last bit.  The exact closed-form candidates
(vertices, the identity split, the concentrated-block stationary point)
come from `_candidates`, and `info_numeric` alone solves: `_ascend` runs
L-BFGS-B from every start and keeps the best of the local maxima and the
candidates.  At lambda0 = lambda1 = 1 a candidate is exact in every regime,
so no start runs there and `info_closed_form` is the best candidate.  The
best candidate alone, `info_floor`, is a solve-free lower bound on I that
lets the frontier bisection and the work bound's search skip points that
cannot change their answer.  For a binary symmetric P the sub-conjugate
region is the hypercontractivity ribbon, so its frontier takes no bisection
at all.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import rel_entr

from .errors import DomainError, MassError
from .probmodel import NonnegMatrix, ProbabilityMatrix, kl_extended
from .rng import derive_rng

_VERTEX_LOGIT = 16.0
SUBCONJ_TOL = 1e-9  # (l0, l1) is sub-conjugate when I(P, l0, l1, 1) <= this
FRONTIER_WIDTH = 1e-4  # the frontier bisection stops at this lambda width


@dataclass(frozen=True)
class InfoQuery:
    """Exponent triple (lambda0, lambda1, mu >= 0; math.inf allowed)."""

    lambda0: float
    lambda1: float
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda0) and math.isfinite(self.lambda1)):
            raise DomainError(
                f"lambda0={self.lambda0}, lambda1={self.lambda1} must be finite"
            )
        if not self.mu >= 0:  # also rejects nan
            raise DomainError(f"mu={self.mu} must be >= 0")


@dataclass(frozen=True)
class InfoResult:
    """Value of the information function plus its maximizing witness.

    witness is a list of nonnegative blocks R_i with total mass 1; for
    mu <= 1 it contains a single probability matrix.
    """

    value: float
    witness: tuple
    method: str  # "closed_form" | "optimizer"
    converged: bool

    def to_json(self, query: InfoQuery) -> str:
        rec = {
            "query": {
                "lambda0": query.lambda0,
                "lambda1": query.lambda1,
                "mu": "inf" if math.isinf(query.mu) else query.mu,
            },
            "value": self.value,
            "witness": [np.asarray(b.entries).tolist() for b in self.witness],
            "converged": self.converged,
            "method": self.method,
        }
        return json.dumps(rec)


@dataclass(frozen=True)
class AttainablePoint:
    """A log-attainable tuple (m0, m1, s, w), all per dimension."""

    m0: float
    m1: float
    s: float
    w: float

    def as_array(self) -> np.ndarray:
        return np.array([self.m0, self.m1, self.s, self.w])


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a scan of the 1/p inequality, a theorem (conjecture_scan)."""

    grid: str
    worst_margin: float
    worst_point: tuple  # (p, q00, q01, q10, q11)
    violations: int


@dataclass(frozen=True)
class WorkBound:
    """Lower bound on ln W with its maximizing exponent triple."""

    ln_w: float
    lambda0: float
    lambda1: float
    mu: float


def info_closed_form(p: ProbabilityMatrix, mu: float) -> float:
    """Exact value of I(P, 1, 1, mu), the best `_candidates` value, which
    info_numeric returns without a solve: max_{jk} ln(p_jk^mu/(p_j* p_*k))
    for mu <= 1, (mu-1) ln sum p_jk (p_jk/(p_j* p_*k))^(1/(mu-1)) for
    mu > 1, mutual information at mu = infinity."""
    return info_floor(p, InfoQuery(1.0, 1.0, mu))


def block_objective(p: ProbabilityMatrix, blocks, lambda0: float,
                    lambda1: float, mu: float) -> float:
    """Evaluate the defining objective of I at an explicit block family.

    blocks: nonnegative matrices R_i with total mass 1.  The objective is
    lambda0 m0 + lambda1 m1 - mu s - w at the blocks' attainable point.
    For mu = infinity the mu s term is a hard constraint R_* = P (returns
    -inf when s > 1e-9).  A single block has w = 0, so at mu = 0 it is
    priced lambda0 m0 + lambda1 m1 even where it sits on zero cells of P.
    """
    InfoQuery(lambda0, lambda1, mu)  # rejects nan and infinite exponents
    if len(blocks) == 1 and mu == 0:
        a = _block_arrays(blocks)[0]
        return (lambda0 * kl_extended(a.sum(axis=1), p.row_marginals)
                + lambda1 * kl_extended(a.sum(axis=0), p.col_marginals))
    pt = attainable_point(blocks, p)
    val = lambda0 * pt.m0 + lambda1 * pt.m1
    if math.isinf(mu):
        return val - pt.w if pt.s <= 1e-9 else -math.inf
    return val - mu * pt.s - pt.w


def _block_arrays(blocks) -> list:
    """The blocks as float arrays; their total mass must be within 1e-9
    of 1, written so that nan fails."""
    arrs = [np.asarray(getattr(b, "entries", b), dtype=float) for b in blocks]
    total = sum(a.sum() for a in arrs)
    if not abs(total - 1.0) <= 1e-9:
        raise MassError(f"blocks have total mass {total}, expected 1")
    return arrs


def _support(p: ProbabilityMatrix, mu: float):
    """Cells (jj, kk) and masses ps that the regime at mu optimizes over:
    every cell with a positive row and column marginal at mu = 0, the
    positive cells of P otherwise."""
    e = p.entries
    if mu == 0:
        support = np.outer(p.row_marginals > 0, p.col_marginals > 0)
    else:
        support = e > 0
    jj, kk = np.nonzero(support)
    return jj, kk, e[support]


def _candidates(p: ProbabilityMatrix, l0: float, l1: float, mu: float,
                support):
    """Exact (value, blocks, True) candidates of the regime at mu over its
    `_support`, in the order the solver ranks them, and the
    concentrated-point weights w (None outside 1 < mu < infinity).

    The single block P (value 0) comes first.  Then, for mu <= 1, every
    vertex of the simplex over the support; for 1 < mu < infinity, the
    stationary point with block i concentrated on cell i, where the
    objective reduces to a concave function of the weights maximized by a
    log-sum-exp; at mu = infinity, the identity split with one block per
    cell.
    """
    e = p.entries
    pr, pc = p.row_marginals, p.col_marginals
    jj, kk, ps = support
    out = [(0.0, [e.copy()], True)]
    if mu <= 1:
        vertices = _scatter(e, jj, kk, np.eye(ps.size))
        for t in range(ps.size):
            v = (l0 * math.log(1.0 / pr[jj[t]])
                 + l1 * math.log(1.0 / pc[kk[t]]))
            if mu > 0:
                v -= mu * math.log(1.0 / ps[t])
            out.append((v, [vertices[t]], True))
        return out, None
    lr, lc, lp = np.log(pr[jj]), np.log(pc[kk]), np.log(ps)
    if math.isinf(mu):
        ident = float(np.sum(ps * (lp - l0 * lr - l1 * lc)))
        out.append((ident, _scatter(e, jj, kk, np.diag(ps)), True))
        return out, None
    logw = lp + (-l0 * lr - l1 * lc + lp) / (mu - 1.0)
    lse = float(np.logaddexp.reduce(logw))
    w = np.exp(logw - lse)
    out.append(((mu - 1.0) * lse, _scatter(e, jj, kk, np.diag(w)), True))
    return out, w


def info_floor(p: ProbabilityMatrix, query: InfoQuery) -> float:
    """Best exact candidate value of I at query, at least 0, without a solve.

    info_numeric keeps the best of its local maxima and these candidates,
    so as floats info_floor(p, query) <= info_numeric(p, query).value for
    every start count and seed, with equality when a candidate wins
    (method "closed_form").
    """
    mu = query.mu
    cands, _ = _candidates(p, query.lambda0, query.lambda1, mu, _support(p, mu))
    return max(v for v, _, _ in cands)


def _single_term(p: ProbabilityMatrix, support, l0: float, l1: float,
                 mu: float, n_starts: int, seed: int):
    """l0 K(Q_row) + l1 K(Q_col) - mu K(Q||P) over prob matrices Q on the
    support, as (value_grad, starts, witness) for `_ascend`.

    This is the block objective of `_block_value_grad` at one block Q, in
    its own float form, which keeps every mu <= 1 value the same to the
    last bit."""
    e = p.entries
    pr, pc = p.row_marginals, p.col_marginals
    jj, kk, ps = support
    b0, b1 = e.shape
    n = ps.size

    def value_grad(z):
        q = _softmax(z)
        m = np.zeros((b0, b1))
        m[jj, kk] = q
        qr = m.sum(axis=1)
        qc = m.sum(axis=0)
        val = 0.0
        g = np.zeros(n)
        rmask = qr > 0
        cmask = qc > 0
        val += l0 * float(np.sum(qr[rmask] * np.log(qr[rmask] / pr[rmask])))
        val += l1 * float(np.sum(qc[cmask] * np.log(qc[cmask] / pc[cmask])))
        g += l0 * (np.log(qr[jj] / pr[jj]) + 1.0)
        g += l1 * (np.log(qc[kk] / pc[kk]) + 1.0)
        if mu > 0:
            val -= mu * float(np.sum(q * np.log(q / ps)))
            g -= mu * (np.log(q / ps) + 1.0)
        grad_z = q * (g - np.dot(q, g))
        return val, grad_z

    starts = ([np.log(ps)] if mu > 0 else []) + [np.zeros(n)]
    starts.extend(np.eye(n)[:4] * (_VERTEX_LOGIT / 2))
    # larger supports carve up the landscape into more basins; scale the
    # start count with the cell count and vary the dispersion
    _random_starts(starts, max(n_starts, 4 * n), n,
                   derive_rng(seed, "single-term-starts"), (0.5, 1.5, 3.0))
    return (value_grad, starts,
            lambda z: _scatter(e, jj, kk, _softmax(z)[None]))


def _ascend(value_grad, starts, witness, candidates):
    """(value, witness, exact, converged) of the best L-BFGS-B ascent of
    value_grad(x) -> (value, gradient) from any start, with blocks
    witness(x), or of an exact (value, witness, True) candidate.

    An exact candidate is its own evidence; an optimizer result counts as
    converged when some other result comes within 1e-6 of it.
    """
    results = []
    for x0 in starts:
        # resolved as a module global on every run, so that a wrapper set
        # on this module from outside (a tracer) sees each solver call
        res = minimize(
            lambda x: tuple(-v for v in value_grad(x)),
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 400},
        )
        val, _ = value_grad(res.x)
        results.append((val, witness(res.x), False))
    results = sorted(results + candidates, key=lambda t: t[0], reverse=True)
    best_val, best, exact = results[0]
    near = sum(1 for v, _, _ in results if v >= best_val - 1e-6)
    return best_val, best, exact, exact or near >= 2


def _random_starts(starts, target, size, rng, scales):
    """Pad `starts` in place to `target` normal draws of length `size`,
    the scale cycling through `scales` with the list position."""
    while len(starts) < target:
        starts.append(
            rng.normal(scale=scales[len(starts) % len(scales)], size=size)
        )


def _scatter(e, jj, kk, rows):
    """One matrix shaped like e per row of `rows`, the row placed on the
    support cells (jj, kk) and zero elsewhere."""
    blocks = np.zeros((len(rows), *e.shape))
    blocks[:, jj, kk] = rows
    return list(blocks)


def _softmax(z, axis=None):
    # clip keeps every probability strictly positive so logs stay finite
    z = np.clip(z - z.max(axis=axis, keepdims=True), -600.0, 0.0)
    out = np.exp(z)
    out /= out.sum(axis=axis, keepdims=True)
    return np.maximum(out, 1e-300)


def _block_value_grad(p: ProbabilityMatrix, support, r, l0, l1, mu):
    """The defining objective of I at the block family r, with its gradient.

    r is an (nb, n) array whose row i holds the masses of block R_i on the
    support cells, with total mass 1.  The value is
    sum_i [l0 K(R_i,row) + l1 K(R_i,col) - K(R_i||R_*)] - mu K(R_*||P),
    that is l0 m0 + l1 m1 - mu s - w; the mu term is dropped at
    mu = infinity, where the regime keeps R_* = P.  The gradient d/dr is
    that of the 1-homogeneous form, l0 ln(r_ij*/(r_i** p_j*))
    + l1 ln(r_i*k/(r_i** p_*k)) - ln(r_ijk/(r_i** r_*jk))
    - mu ln(r_*jk/p_jk).  On total mass 1 the gradient of any other form
    differs from it by a constant, which every softmax's vector-Jacobian
    product cancels.  By Euler's identity the value is the gradient's inner
    product with r.
    """
    jj, kk, ps = support
    # the product of two softmax floors underflows to 0; the logs are taken
    # apart, as products of small masses underflow too
    r = np.maximum(r, 1e-300)
    m = np.zeros((len(r), *p.entries.shape))
    m[:, jj, kk] = r
    mix = r.sum(axis=0)
    g = (l0 * (np.log(m.sum(axis=2))[:, jj] - np.log(p.row_marginals[jj]))
         + l1 * (np.log(m.sum(axis=1))[:, kk] - np.log(p.col_marginals[kk]))
         - np.log(r) + np.log(mix)
         + (1.0 - l0 - l1) * np.log(r.sum(axis=1, keepdims=True)))
    if not math.isinf(mu):
        g -= mu * np.log(mix / ps)
    return float(np.sum(r * g)), g


def _kept_blocks(p: ProbabilityMatrix, support, r):
    """The rows of the block family r with mass at least 1e-12, as
    witness matrices shaped like P."""
    jj, kk, _ = support
    return _scatter(p.entries, jj, kk, r[r.sum(axis=1) >= 1e-12])


def _multi_block(p: ProbabilityMatrix, support, w, l0, l1, mu, n_starts,
                 seed):
    """The multi-block objective for finite mu > 1, as (value_grad, starts,
    witness) for `_ascend`; w are the concentrated-point weights.

    Blocks R_i = w_i Q_i with w = softmax(u) and each Q_i = softmax(Z_i)
    restricted to the support of P; b0*b1 blocks suffice by Caratheodory.
    """
    n = support[2].size
    nb = p.entries.size

    def split(x):
        return _softmax(x[:nb]), _softmax(x[nb:].reshape(nb, n), axis=1)

    def value_grad(x):
        w, q = split(x)
        val, g = _block_value_grad(p, support, w[:, None] * q, l0, l1, mu)
        a = np.sum(q * g, axis=1)
        grad_u = w * (a - float(w @ a))
        grad_z = (w[:, None] * q) * (g - a[:, None])
        return val, np.concatenate([grad_u, grad_z.ravel()])

    # Start at the concentrated stationary point.
    z0 = np.full((nb, n), 0.0)
    u0 = np.full(nb, -_VERTEX_LOGIT)
    for i in range(min(nb, n)):
        z0[i, i] = _VERTEX_LOGIT
        u0[i] = math.log(max(w[i], 1e-300))
    starts = [np.concatenate([u0, z0.ravel()]), np.zeros(nb + nb * n)]
    # larger alphabets need proportionally more random restarts
    _random_starts(starts, max(n_starts, 4 * nb), nb + nb * n,
                   derive_rng(seed, "multi-block-starts"), (0.5, 1.5, 3.0))

    def witness(x):
        w, q = split(x)
        return _kept_blocks(p, support, w[:, None] * q)

    return value_grad, starts, witness


def _infinite_mu(p: ProbabilityMatrix, support, l0, l1, n_starts, seed):
    """mu = infinity: block splittings of P itself, as (value_grad, starts,
    witness) for `_ascend`.

    The (1-mu) K(R_*||P) penalty forces R_* = P in the limit, so blocks are
    parametrized as r_{i,jk} = p_jk c_{i|jk} with a per-cell softmax over i.
    """
    ps = support[2]
    n = nb = ps.size

    def value_grad(x):
        c = _softmax(x.reshape(nb, n), axis=0)
        val, g = _block_value_grad(p, support, ps * c, l0, l1, math.inf)
        grad_z = ps * c * (g - np.sum(c * g, axis=0, keepdims=True))
        return val, grad_z.ravel()

    starts = [np.eye(nb).ravel() * _VERTEX_LOGIT, np.zeros(nb * n)]
    _random_starts(starts, n_starts, nb * n,
                   derive_rng(seed, "inf-mu-starts"), (1.5,))

    def witness(x):
        r = ps * _softmax(x.reshape(nb, n), axis=0)
        return _kept_blocks(p, support, r)

    return value_grad, starts, witness


def _problem(p: ProbabilityMatrix, support, w, l0, l1, mu, n_starts, seed):
    """The regime at mu as (value_grad, starts, witness) for `_ascend`."""
    if math.isinf(mu):
        return _infinite_mu(p, support, l0, l1, n_starts, seed)
    if mu > 1:
        return _multi_block(p, support, w, l0, l1, mu, n_starts, seed)
    return _single_term(p, support, l0, l1, mu, n_starts, seed)


def info_numeric(p: ProbabilityMatrix, query: InfoQuery, n_starts: int = 32,
                 seed: int = 20240) -> InfoResult:
    """Numerically evaluate I(P, lambda0, lambda1, mu) with a witness.

    Multi-start L-BFGS-B ascent over a softmax parametrization; for
    mu <= 1 the single-term form suffices, for mu > 1 the full b0*b1-block
    objective is maximized.  Both block regimes evaluate the one objective
    lambda0 m0 + lambda1 m1 - mu s - w (`_block_value_grad`, without the
    mu s term at mu = infinity); mu <= 1 keeps its one-block form so that
    its values stay the same to the last bit.  A maximum attained by an
    exact closed-form candidate counts as converged; otherwise
    non-convergence (no two starts agreeing with the maximum within 1e-6)
    is reported via converged=False, never raised.  At lambda0 = lambda1 = 1
    a candidate is exact in every regime (info_closed_form), so no start
    runs: the best candidate is returned with method "closed_form" and
    converged=True.

    n_starts is a floor, not a count: max(n_starts, 4 * support cells)
    starts run for mu <= 1 (at mu = 0 the support is every cell with a
    positive row and column marginal), max(n_starts, 4 * b0 * b1) for
    1 < mu < infinity and max(n_starts, 2) at mu = infinity.  On a 2x2
    matrix with full support, n_starts below 16 has no effect at finite mu.
    """
    l0, l1, mu = query.lambda0, query.lambda1, query.mu
    support = _support(p, mu)
    candidates, w = _candidates(p, l0, l1, mu, support)
    if l0 == l1 == 1:
        problem = (None, (), None)  # no starts: the best candidate wins
    else:
        problem = _problem(p, support, w, l0, l1, mu, n_starts, seed)
    val, blocks, exact, conv = _ascend(*problem, candidates)
    witness = tuple(NonnegMatrix(np.asarray(b)) for b in blocks)
    return InfoResult(max(val, 0.0), witness,
                      "closed_form" if exact else "optimizer", conv)


@functools.lru_cache(maxsize=100000)
def _info_cached(p: ProbabilityMatrix, l0: float, l1: float, mu: float,
                 n_starts: int) -> float:
    return info_numeric(p, InfoQuery(l0, l1, mu), n_starts=n_starts).value


def is_subconjugate(p: ProbabilityMatrix, lambda0: float, lambda1: float,
                    n_starts: int = 32):
    """Decide whether (lambda0, lambda1) is sub-conjugate for P.

    Equivalent to I(P, lambda0, lambda1, 1) <= SUBCONJ_TOL.  Returns
    (flag, witness_q, value); when the flag is False the witness is a
    probability matrix refuting the defining inequality.
    """
    if lambda0 > 1 or lambda1 > 1 or lambda0 + lambda1 < 1:
        raise DomainError(
            f"need lambda0,lambda1 <= 1 <= lambda0+lambda1, "
            f"got ({lambda0}, {lambda1})"
        )
    res = info_numeric(p, InfoQuery(lambda0, lambda1, 1.0), n_starts=n_starts)
    q = np.asarray(res.witness[0].entries)
    return res.value <= SUBCONJ_TOL, q, res.value


def _ribbon_rho2(p: ProbabilityMatrix):
    """rho^2 for a binary symmetric P (a 2x2 matrix with p00 = p11 and
    p01 = p10), where rho = (p00 - p01) / (p00 + p01) is its correlation;
    None for every other P.

    For such a P, (lambda0, lambda1) in the unit box is sub-conjugate iff
    (1 - lambda0)(1 - lambda1) >= rho^2 lambda0 lambda1: the
    hypercontractivity ribbon of Bonami-Beckner (Beckner, Ann. Math. 1975;
    Ahlswede-Gacs, Ann. Probab. 1976), of which B_p, with rho = 2p - 1, is
    the case the paper works with.
    """
    e = p.entries
    if e.shape != (2, 2) or e[0, 0] != e[1, 1] or e[0, 1] != e[1, 0]:
        return None
    rho = (e[0, 0] - e[0, 1]) / (e[0, 0] + e[0, 1])
    return float(rho * rho)


def subconjugate_frontier(p: ProbabilityMatrix, direction: tuple,
                          n_starts: int = 12) -> tuple:
    """Largest sub-conjugate point along a ray, clipped to the unit box.

    Scales t*(a0, a1) and clips each coordinate at 1.  For a binary
    symmetric P the point comes from the hypercontractivity ribbon
    (`_ribbon_rho2`) without an I solve: t is the smaller root of
    a0 a1 (1 - rho^2) t^2 - (a0 + a1) t + 1 = 0, stepped inward one float
    at a time until the ribbon margin (1 - l0)(1 - l1) - rho^2 l0 l1,
    evaluated in floats, is strictly positive, so the point is certified
    by the theorem rather than by a solve.  The step stops at
    lambda0 + lambda1 = 1, sub-conjugate for every P, which is where the
    ribbon meets the ray at rho = 1.  At rho = 0 the whole unit box is
    sub-conjugate.

    Every other P bisects for the largest t that is still certified
    sub-conjugate, to FRONTIER_WIDTH in lambda.  The scan starts at
    lambda0+lambda1 = 1 which is sub-conjugate for every P.  A point whose
    info_floor already exceeds SUBCONJ_TOL is rejected without an I solve;
    the result is the same as with the solve.
    """
    a0, a1 = float(direction[0]), float(direction[1])
    # written so that nan fails; an infinite coordinate would never settle
    if not (0 <= a0 < math.inf and 0 <= a1 < math.inf and a0 + a1 > 0):
        raise DomainError(
            f"direction {direction} must be finite, nonnegative, nonzero")

    def lam(t):
        return min(t * a0, 1.0), min(t * a1, 1.0)

    def ok(t):
        l0, l1 = lam(t)
        # I >= info_floor, so a floor above the tolerance settles it unsolved
        if info_floor(p, InfoQuery(l0, l1, 1.0)) > SUBCONJ_TOL:
            return False
        return _info_cached(p, l0, l1, 1.0, n_starts) <= SUBCONJ_TOL

    if a0 == 0:
        return (0.0, 1.0)
    if a1 == 0:
        return (1.0, 0.0)
    lo = 1.0 / (a0 + a1)  # lambda0+lambda1 = 1, always sub-conjugate
    hi = 1.0 / min(a0, a1)  # both coordinates clipped at 1 beyond this
    rho2 = _ribbon_rho2(p)
    if rho2 == 0:
        return lam(hi)
    if rho2 is not None:
        # the smaller root, in a form without cancellation that also
        # covers rho = 1 (the root is then lo); the discriminant
        # (a0 + a1)^2 - 4 a0 a1 (1 - rho^2) is written as a sum of squares
        # so that rounding cannot make it negative
        t = 2.0 / ((a0 + a1) + math.sqrt(
            (a0 - a1) ** 2 + 4.0 * a0 * a1 * rho2))

        def margin(t):
            l0, l1 = lam(t)
            return (1.0 - l0) * (1.0 - l1) - rho2 * l0 * l1

        while t > lo and not margin(t) > 0:
            t = math.nextafter(t, 0.0)
        return lam(max(t, lo))
    if ok(hi):
        return lam(hi)
    while (hi - lo) * max(a0, a1) > FRONTIER_WIDTH:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lam(lo)


def _check_bound_args(n0, n1, s) -> None:
    # written so that nan fails every comparison
    if not (1 <= n0 < math.inf and 1 <= n1 < math.inf and 0 < s <= 1):
        raise DomainError(f"need finite n0,n1 >= 1 and 0 < S <= 1, got {n0},{n1},{s}")


def direct_lower_bound(p: ProbabilityMatrix, n0: float, n1: float, s: float,
                       n_directions: int = 64, n_starts: int = 12) -> float:
    """Lower bound on W: S * max over certified sub-conjugate (l0, l1)
    of n0^l0 n1^l1, swept over a fan of frontier directions.

    The fan is the two axis points and the frontier on each of the
    n_directions - 2 interior directions, so n_directions must be at least
    2.  A coarse sweep only weakens the bound.  For a binary symmetric P
    every frontier point lies inside the hypercontractivity ribbon with a
    strictly positive float margin (see subconjugate_frontier), so the
    bound is a theorem's consequence and costs no I solve; at n0 = n1 = n
    the diagonal gives S * n^(1/p) for B_p.  Any other P takes the
    bisection, whose points are sub-conjugate to SUBCONJ_TOL.  n_starts is
    the start floor of every frontier I solve (see info_numeric), whose
    values `_info_cached` keeps.
    """
    _check_bound_args(n0, n1, s)
    if not n_directions >= 2:
        raise DomainError(
            f"n_directions={n_directions} < 2: the fan needs both axis points")
    pts = [(1.0, 0.0), (0.0, 1.0)]
    for theta in np.linspace(0.0, math.pi / 2, n_directions)[1:-1]:
        pts.append(subconjugate_frontier(
            p, (math.cos(theta), math.sin(theta)), n_starts=n_starts))
    return s * max(n0**l0 * n1**l1 for l0, l1 in pts)


def work_lower_bound(p_list, n0: float, n1: float, s: float,
                     n_starts: int = 16) -> WorkBound:
    """Lower bound on ln W for a code over per-coordinate matrices p_list.

    ln W >= sup [l0 ln n0 + l1 ln n1 + mu ln S - sum_i I(P_i, l0, l1, mu)]
    over l0,l1 <= 1 <= l0+l1 and mu >= 0, by grid search plus local
    refinement; mu is capped at 64 with an infinity sentinel.  A grid or
    refinement point is solved only when the objective with info_floor in
    place of I, an upper bound on it, could beat the incumbent.  At
    l0 = l1 = 1 info_floor is I exactly, so that column of the grid costs
    no solve, and its best value is an incumbent before the grid loop
    starts: a grid point whose upper bound is strictly below it is not
    solved either.  Skipped points could never have been the first
    maximizer in grid order, so the result is the same as solving
    everywhere.  p_list must hold at least one matrix.
    """
    _check_bound_args(n0, n1, s)
    counts: dict[ProbabilityMatrix, int] = {}
    for p in p_list:
        counts[p] = counts.get(p, 0) + 1
    if not counts:
        raise DomainError("p_list is empty: the bound needs a matrix")
    ln0, ln1, lns = math.log(n0), math.log(n1), math.log(s)

    def objective(l0, l1, mu, beat, floor=-math.inf):
        """The objective at (l0, l1, mu), or -inf without solving when it
        cannot exceed `beat` or falls short of `floor`: info_floor <= I and
        float rounding is monotone, so the objective with floors in place
        of I is at least the solved one.  At l0 = l1 = 1 info_floor is I
        itself, so that objective is returned unsolved and uncached."""
        if math.isinf(mu) and lns < 0:
            return -math.inf
        base = l0 * ln0 + l1 * ln1 + (0.0 if math.isinf(mu) else mu * lns)
        ub = base
        for p, c in counts.items():
            ub -= c * info_floor(p, InfoQuery(l0, l1, mu))
        if l0 == l1 == 1:
            return ub
        if ub <= beat or ub < floor:
            return -math.inf
        val = base
        for p, c in counts.items():
            val -= c * _info_cached(p, l0, l1, mu, n_starts)
        return val

    lam_grid = np.linspace(0.0, 1.0, 7)
    mu_grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
               math.inf]
    # the unit-lambda column costs no solve and bounds the grid's maximum
    # from below; a point strictly under it can never be the first argmax
    floor = max(objective(1.0, 1.0, mu, -math.inf) for mu in mu_grid)
    best = (-math.inf, 1.0, 0.0, 0.0)
    for l0 in lam_grid:
        for l1 in lam_grid:
            if l0 + l1 < 1.0 - 1e-12:
                continue
            for mu in mu_grid:
                v = objective(l0, l1, mu, best[0], floor)
                if v > best[0]:
                    best = (v, l0, l1, mu)

    # Pattern-search refinement around the best finite-mu grid point.
    v, l0, l1, mu = best
    if not math.isinf(mu):
        step_l, step_mu = lam_grid[1] - lam_grid[0], 0.5 * max(mu, 1.0)
        for _ in range(24):
            improved = False
            for dl0, dl1, dmu in (
                (step_l, 0, 0), (-step_l, 0, 0),
                (0, step_l, 0), (0, -step_l, 0),
                (0, 0, step_mu), (0, 0, -step_mu),
            ):
                c0 = min(max(l0 + dl0, 0.0), 1.0)
                c1 = min(max(l1 + dl1, 0.0), 1.0)
                cm = min(max(mu + dmu, 0.0), 64.0)
                if c0 + c1 < 1.0:
                    continue
                cv = objective(c0, c1, cm, v + 1e-12)
                if cv > v + 1e-12:
                    v, l0, l1, mu = cv, c0, c1, cm
                    improved = True
            if not improved:
                step_l *= 0.5
                step_mu *= 0.5
                if step_l < 1e-4 and step_mu < 1e-4:
                    break
    return WorkBound(ln_w=float(v), lambda0=float(l0), lambda1=float(l1),
                     mu=float(mu))


def _simplex_grid(resolution: int) -> np.ndarray:
    """All 4-part compositions of `resolution`, normalized to the simplex."""
    r = resolution
    i, j, k = np.meshgrid(
        np.arange(r + 1), np.arange(r + 1), np.arange(r + 1), indexing="ij"
    )
    keep = i + j + k <= r
    i, j, k = i[keep], j[keep], k[keep]
    grid = np.stack([i, j, k, r - i - j - k], axis=1).astype(float) / r
    return grid


def _conjecture_margins(p: float, q: np.ndarray) -> np.ndarray:
    """Margin of 2p K(Q||P_ber) >= K(Q_row||u) + K(Q_col||u), row-wise.

    q columns are (q00, q01, q10, q11).  The published inequality repeats
    one marginal term; the standard interpretation with both column
    marginals is used here.
    """
    pi = np.array([p / 2, (1 - p) / 2, (1 - p) / 2, p / 2])
    lhs = 2 * p * rel_entr(q, pi[None, :]).sum(axis=1)
    r0 = q[:, 0] + q[:, 1]
    r1 = q[:, 2] + q[:, 3]
    c0 = q[:, 0] + q[:, 2]
    c1 = q[:, 1] + q[:, 3]
    rhs = (
        rel_entr(r0, 0.5) + rel_entr(r1, 0.5)
        + rel_entr(c0, 0.5) + rel_entr(c1, 0.5)
    )
    return lhs - rhs


def _constrained_points(p: float, resolution: int) -> np.ndarray:
    """Grid of q on the submanifold (1-p)^2 q00 q11 = p^2 q01 q10."""
    ab = np.linspace(0.0, 1.0, resolution + 1)[1:-1]
    a, b = np.meshgrid(ab, ab, indexing="ij")
    a, b = a.ravel(), b.ravel()
    aa = (1 - p) ** 2 - p**2
    bb = (1 - p) ** 2 * (1 - a - b) + p**2 * (a + b)
    cc = -(p**2) * a * b
    pts = []
    if abs(aa) < 1e-15:
        roots = [-cc / bb]
    else:
        disc = bb**2 - 4 * aa * cc
        disc = np.where(disc < 0, np.nan, disc)
        roots = [(-bb + np.sqrt(disc)) / (2 * aa), (-bb - np.sqrt(disc)) / (2 * aa)]
    for t in roots:
        lo = np.maximum(0.0, a + b - 1.0)
        hi = np.minimum(a, b)
        valid = np.isfinite(t) & (t >= lo - 1e-12) & (t <= hi + 1e-12)
        tt = np.clip(t[valid], lo[valid], hi[valid])
        q = np.stack(
            [tt, a[valid] - tt, b[valid] - tt, 1 - a[valid] - b[valid] + tt],
            axis=1,
        )
        pts.append(np.clip(q, 0.0, 1.0))
    return np.concatenate(pts, axis=0) if pts else np.zeros((0, 4))


def conjecture_scan(p_values, resolution: int, tol: float = 1e-9) -> ScanReport:
    """Scan the 1/p-optimality inequality over the probability simplex.

    The paper conjectures it; it is Bonami-Beckner hypercontractivity of
    B_p at lambda0 = lambda1 = 1/(2p), a theorem, so a violation flags a
    numerical fault.  For each p in [1/2, 1], evaluates the margin on the
    full 3-simplex at the given resolution and on the fixed-marginal
    submanifold grid; margins below -tol (tol >= 0) count as violations.
    """
    if resolution < 10:
        raise DomainError(f"resolution {resolution} < 10")
    # written so that nan fails
    if not (tol >= 0 and all(0.5 <= p <= 1.0 for p in p_values)):
        raise DomainError(f"need p in [1/2, 1] and tol >= 0, got {p_values}, {tol}")
    worst = math.inf
    worst_point = None
    violations = 0
    base = _simplex_grid(resolution)
    for p in p_values:
        for q in (base, _constrained_points(p, resolution)):
            if q.shape[0] == 0:
                continue
            margins = _conjecture_margins(p, q)
            violations += int(np.sum(margins < -tol))
            i = int(np.argmin(margins))
            if margins[i] < worst:
                worst = float(margins[i])
                worst_point = (float(p), *(float(x) for x in q[i]))
    return ScanReport(
        grid=f"simplex resolution {resolution}, p in {list(p_values)}",
        worst_margin=worst,
        worst_point=worst_point,
        violations=violations,
    )


def attainable_point(r_blocks, p: ProbabilityMatrix) -> AttainablePoint:
    """Log-attainable tuple generated by a block family of total mass 1.

    Emits (sum_i K(R_i,row), sum_i K(R_i,col), K(R_*||P),
    -K(R_*||P) + sum_i K(R_i||P)).
    """
    m0 = m1 = ksum = 0.0
    mix = np.zeros_like(p.entries)
    for a in _block_arrays(r_blocks):
        mix = mix + a
        if a.sum() <= 0:
            continue
        m0 += kl_extended(a.sum(axis=1), p.row_marginals)
        m1 += kl_extended(a.sum(axis=0), p.col_marginals)
        ksum += kl_extended(a, p)
    s = kl_extended(mix, p)
    return AttainablePoint(m0=m0, m1=m1, s=s, w=-s + ksum)


def asymmetric_comparisons(p: float, n0: float, n1: float, epsilon: float):
    """Comparison-count estimate for the asymmetric planted-pair problem.

    exp[(ln n0 + ln n1 - 2(2p-1) sqrt(ln n0 ln n1)) / (4p(1-p)(1-eps))],
    together with the linear-time threshold exponent (2p-1)^2: when
    ln min(n0, n1) <= ((2p-1)^2 - eps) ln max(n0, n1) the problem is
    solvable in linear time, and the estimate is max(n0, n1), the linear
    count that the ribbon bound gives there.
    """
    if not 0.5 < p < 1.0:
        raise DomainError(f"p={p} must lie strictly inside (1/2, 1)")
    # written so that nan fails
    if not (1 < n0 < math.inf and 1 < n1 < math.inf and 0 < epsilon < 1):
        raise DomainError(
            f"need finite n0,n1 > 1 and 0 < eps < 1, got {n0},{n1},{epsilon}")
    threshold = (2 * p - 1) ** 2
    small, large = sorted((n0, n1))
    if math.log(small) <= (threshold - epsilon) * math.log(large):
        return large, threshold
    num = math.log(n0) + math.log(n1) - 2 * (2 * p - 1) * math.sqrt(
        math.log(n0) * math.log(n1)
    )
    comparisons = math.exp(num / (4 * p * (1 - p) * (1 - epsilon)))
    return comparisons, threshold
