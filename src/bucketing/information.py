"""The bucketing information function I(P, lambda0, lambda1, mu).

I generalizes Shannon mutual information (recovered at lambda0=lambda1=1,
mu=infinity) and governs both the work lower bounds and the attainable
region of bucketing codes.  The maximization underlying I is a difference
of divergence terms and is not concave.  Each of the three regimes (mu <= 1,
1 < mu < infinity, mu = infinity) supplies its own softmax-parametrized
objective, exact closed-form candidates (vertices, the identity split, the
concentrated-block stationary point) and deterministic starts; one driver,
`_ascend`, runs L-BFGS-B from every start and keeps the best of the local
maxima and the candidates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp, rel_entr

from .errors import DomainError, MassError
from .probmodel import NonnegMatrix, ProbabilityMatrix, kl_extended, mutual_information
from .rng import derive_rng

_VERTEX_LOGIT = 16.0


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

    def to_json(self, query: InfoQuery | None = None) -> str:
        rec = {
            "query": None
            if query is None
            else {
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
    """Outcome of a conjecture-inequality scan."""

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
    """Exact value of I(P, 1, 1, mu).

    max_{jk} ln(p_jk^mu / (p_j* p_*k)) for 0 <= mu <= 1,
    (mu-1) ln sum p_jk (p_jk/(p_j* p_*k))^(1/(mu-1)) for mu > 1,
    mutual information at mu = infinity.  Both finite branches agree at
    mu = 1.
    """
    if mu < 0:
        raise DomainError(f"mu={mu} must be >= 0")
    e = p.entries
    outer = np.outer(p.row_marginals, p.col_marginals)
    if math.isinf(mu):
        return mutual_information(p)
    if mu <= 1:
        if mu == 0:
            # p_jk^0 = 1 even on zero entries; only empty rows/cols excluded
            mask = outer > 0
            vals = -np.log(outer[mask])
        else:
            mask = e > 0
            vals = mu * np.log(e[mask]) - np.log(outer[mask])
        return float(vals.max())
    # log-space evaluation: the per-cell exponent 1/(mu-1) blows up as
    # mu -> 1+, so the power itself can overflow long before the result does
    mask = e > 0
    exponents = np.log(e[mask]) + np.log(e[mask] / outer[mask]) / (mu - 1.0)
    return float((mu - 1.0) * logsumexp(exponents))


def block_objective(p: ProbabilityMatrix, blocks, lambda0: float,
                    lambda1: float, mu: float) -> float:
    """Evaluate the defining objective of I at an explicit block family.

    blocks: nonnegative matrices R_i with total mass 1.  For mu = infinity
    the (1-mu) K(R_*||P) term is treated as a hard constraint R_* = P
    (returns -inf when K(R_*||P) > 1e-9).  A single block is its own
    mixture, so its -K + (1-mu) K is taken as -mu K, which is 0 at mu = 0
    even where the block sits on zero cells of P.
    """
    arrs = [np.asarray(getattr(b, "entries", b), dtype=float) for b in blocks]
    total = sum(a.sum() for a in arrs)
    if abs(total - 1.0) > 1e-9:
        raise MassError(f"blocks have total mass {total}, expected 1")
    if len(arrs) == 1 and not math.isinf(mu):
        a = arrs[0]
        val = lambda0 * kl_extended(a.sum(axis=1), p.row_marginals)
        val += lambda1 * kl_extended(a.sum(axis=0), p.col_marginals)
        return val - mu * kl_extended(a, p) if mu > 0 else val
    val = 0.0
    mix = np.zeros_like(p.entries)
    for a in arrs:
        mix = mix + a
        if a.sum() <= 0:
            continue
        val += lambda0 * kl_extended(a.sum(axis=1), p.row_marginals)
        val += lambda1 * kl_extended(a.sum(axis=0), p.col_marginals)
        val -= kl_extended(a, p)
    k_mix = kl_extended(mix, p)
    if math.isinf(mu):
        return val if k_mix <= 1e-9 else -math.inf
    return val + (1.0 - mu) * k_mix


def _single_term(p: ProbabilityMatrix, l0: float, l1: float, mu: float,
                 n_starts: int, seed: int):
    """Maximize l0 K(Q_row) + l1 K(Q_col) - mu K(Q||P) over prob matrices."""
    e = p.entries
    pr, pc = p.row_marginals, p.col_marginals
    support = np.outer(pr > 0, pc > 0) if mu == 0 else e > 0
    jj, kk = np.nonzero(support)
    ps = e[support]
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

    # Exact candidates: Q = P (value 0) and every vertex of the simplex.
    candidates = [(0.0, [e.copy()], True)]
    vertices = _scatter(e, jj, kk, np.eye(n))
    for t in range(n):
        v = l0 * math.log(1.0 / pr[jj[t]]) + l1 * math.log(1.0 / pc[kk[t]])
        if mu > 0:
            v -= mu * math.log(1.0 / ps[t])
        candidates.append((v, [vertices[t]], True))

    starts = ([np.log(ps)] if mu > 0 else []) + [np.zeros(n)]
    starts.extend(np.eye(n)[:4] * (_VERTEX_LOGIT / 2))
    # larger supports carve up the landscape into more basins; scale the
    # start count with the cell count and vary the dispersion
    _random_starts(starts, max(n_starts, 4 * n), n,
                   derive_rng(seed, "single-term-starts"), (0.5, 1.5, 3.0))
    return _ascend(value_grad, starts,
                   lambda z: _scatter(e, jj, kk, _softmax(z)[None]), candidates)


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


def _multi_block(p: ProbabilityMatrix, l0, l1, mu, n_starts, seed):
    """Maximize the multi-block objective for finite mu > 1.

    Blocks R_i = w_i Q_i with w = softmax(u) and each Q_i = softmax(Z_i)
    restricted to the support of P; b0*b1 blocks suffice by Caratheodory.
    """
    e = p.entries
    pr, pc = p.row_marginals, p.col_marginals
    mask = e > 0
    jj, kk = np.nonzero(mask)
    ps = e[mask]
    b0, b1 = e.shape
    n = ps.size
    nb = b0 * b1

    lr = np.log(pr[jj])
    lc = np.log(pc[kk])
    lp = np.log(ps)

    row_onehot = np.eye(b0)[jj]
    col_onehot = np.eye(b1)[kk]

    def value_grad(x):
        u = x[:nb]
        z = x[nb:].reshape(nb, n)
        w = _softmax(u)
        q = _softmax(z, axis=1)
        qr = q @ row_onehot
        qc = q @ col_onehot
        lqr = np.log(qr[:, jj]) - lr  # (nb, n) log(qr_j / pr_j) per cell
        lqc = np.log(qc[:, kk]) - lc
        lqp = np.log(q) - lp
        phi = (
            l0 * np.sum(q * lqr, axis=1)
            + l1 * np.sum(q * lqc, axis=1)
            - np.sum(q * lqp, axis=1)
        )
        mix = w @ q
        lm = np.log(mix) - lp
        k_mix = float(np.sum(mix * lm))
        val = float(w @ phi) + (1.0 - mu) * k_mix

        a = phi + (1.0 - mu) * (q @ (lm + 1.0))
        grad_u = w * (a - float(w @ a))
        gq = (
            l0 * (lqr + 1.0)
            + l1 * (lqc + 1.0)
            - (lqp + 1.0)
            + (1.0 - mu) * (lm + 1.0)[None, :]
        ) * w[:, None]
        grad_z = q * (gq - np.sum(q * gq, axis=1, keepdims=True))
        return val, np.concatenate([grad_u, grad_z.ravel()])

    # Exact candidates: a single block P (value 0) and the stationary point
    # with block i concentrated on cell i, where the objective reduces to a
    # concave function of the weights w maximized by a log-sum-exp.
    logw = lp + (-l0 * lr - l1 * lc + lp) / (mu - 1.0)
    lse = float(np.logaddexp.reduce(logw))
    w = np.exp(logw - lse)
    conc_blocks = _scatter(e, jj, kk, np.diag(w))
    candidates = [(0.0, [e.copy()], True), ((mu - 1.0) * lse, conc_blocks, True)]

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
        w = _softmax(x[:nb])
        q = _softmax(x[nb:].reshape(nb, n), axis=1)
        return _scatter(e, jj, kk, (w[:, None] * q)[w >= 1e-12])

    return _ascend(value_grad, starts, witness, candidates)


def _infinite_mu(p: ProbabilityMatrix, l0, l1, n_starts, seed):
    """mu = infinity: maximize over block splittings of P itself.

    The (1-mu) K(R_*||P) penalty forces R_* = P in the limit, so blocks are
    parametrized as r_{i,jk} = p_jk c_{i|jk} with a per-cell softmax over i.
    """
    e = p.entries
    pr, pc = p.row_marginals, p.col_marginals
    mask = e > 0
    jj, kk = np.nonzero(mask)
    ps = e[mask]
    b0, b1 = e.shape
    n = ps.size
    nb = n

    lr = np.log(pr[jj])
    lc = np.log(pc[kk])
    lp = np.log(ps)

    row_onehot = np.eye(b0)[jj]
    col_onehot = np.eye(b1)[kk]

    def value_grad(zflat):
        z = zflat.reshape(nb, n)
        c = _softmax(z, axis=0)
        r = ps[None, :] * c
        mass = r.sum(axis=1)  # r_{i,**}
        rr = r @ row_onehot
        rc = r @ col_onehot
        lmass = np.log(mass)
        # per-cell derivative ln(r_{i,j*}/(r_{i,**} p_j*)) etc.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_row = np.log(rr[:, jj]) - lmass[:, None] - lr[None, :]
            t_col = np.log(rc[:, kk]) - lmass[:, None] - lc[None, :]
            t_jnt = np.log(r) - lmass[:, None] - lp[None, :]
        t_row = np.nan_to_num(t_row, neginf=0.0)
        t_col = np.nan_to_num(t_col, neginf=0.0)
        val = float(
            np.sum(r * np.nan_to_num(l0 * t_row + l1 * t_col - t_jnt, nan=0.0))
        )
        g = l0 * t_row + l1 * t_col - np.nan_to_num(t_jnt, neginf=0.0)
        grad_z = ps[None, :] * c * (g - np.sum(c * g, axis=0, keepdims=True))
        return val, grad_z.ravel()

    # Exact candidates: a single block P (value 0) and the identity
    # splitting with one block per cell.
    ident = float(np.sum(ps * (np.log(ps) - l0 * lr - l1 * lc)))
    id_blocks = _scatter(e, jj, kk, np.diag(ps))
    candidates = [(0.0, [e.copy()], True), (ident, id_blocks, True)]

    starts = [np.eye(nb).ravel() * _VERTEX_LOGIT, np.zeros(nb * n)]
    _random_starts(starts, n_starts, nb * n,
                   derive_rng(seed, "inf-mu-starts"), (1.5,))

    def witness(x):
        r = ps[None, :] * _softmax(x.reshape(nb, n), axis=0)
        return _scatter(e, jj, kk, r[r.sum(axis=1) >= 1e-12])

    return _ascend(value_grad, starts, witness, candidates)


def info_numeric(
    p: ProbabilityMatrix,
    query: InfoQuery,
    n_starts: int = 32,
    seed: int = 20240,
) -> InfoResult:
    """Numerically evaluate I(P, lambda0, lambda1, mu) with a witness.

    Multi-start L-BFGS-B ascent over a softmax parametrization; for
    mu <= 1 the single-term form suffices, for mu > 1 the full b0*b1-block
    objective is maximized.  A maximum attained by an exact closed-form
    candidate counts as converged; otherwise non-convergence (no two starts
    agreeing with the maximum within 1e-6) is reported via converged=False,
    never raised.

    n_starts is a floor, not a count: max(n_starts, 4 * support cells)
    starts run for mu <= 1 (at mu = 0 the support is every cell with a
    positive row and column marginal), max(n_starts, 4 * b0 * b1) for
    1 < mu < infinity and max(n_starts, 2) at mu = infinity.  On a 2x2
    matrix with full support, n_starts below 16 has no effect at finite mu.
    """
    l0, l1, mu = query.lambda0, query.lambda1, query.mu
    if math.isinf(mu):
        val, blocks, exact, conv = _infinite_mu(p, l0, l1, n_starts, seed)
    elif mu > 1:
        val, blocks, exact, conv = _multi_block(p, l0, l1, mu, n_starts, seed)
    else:
        val, blocks, exact, conv = _single_term(p, l0, l1, mu, n_starts, seed)
    val = max(val, 0.0)
    witness = tuple(NonnegMatrix(np.asarray(b)) for b in blocks)
    return InfoResult(
        value=val,
        witness=witness,
        method="closed_form" if exact else "optimizer",
        converged=conv,
    )


@lru_cache(maxsize=100000)
def _info_cached(p: ProbabilityMatrix, l0: float, l1: float, mu: float,
                 n_starts: int) -> float:
    return info_numeric(p, InfoQuery(l0, l1, mu), n_starts=n_starts).value


def is_subconjugate(p: ProbabilityMatrix, lambda0: float, lambda1: float,
                    tol: float = 1e-9, n_starts: int = 32):
    """Decide whether (lambda0, lambda1) is sub-conjugate for P.

    Equivalent to I(P, lambda0, lambda1, 1) <= tol.  Returns
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
    return res.value <= tol, q, res.value


def subconjugate_frontier(
    p: ProbabilityMatrix,
    direction: tuple,
    tol: float = 1e-4,
    subconj_tol: float = 1e-9,
    n_starts: int = 12,
) -> tuple:
    """Largest sub-conjugate point along a ray, clipped to the unit box.

    Scales t*(a0, a1), clips each coordinate at 1, and bisects for the
    largest t that is still certified sub-conjugate.  The scan starts at
    lambda0+lambda1 = 1 which is sub-conjugate for every P.
    """
    a0, a1 = float(direction[0]), float(direction[1])
    if a0 < 0 or a1 < 0 or a0 + a1 == 0:
        raise DomainError(f"direction {direction} must be nonnegative, nonzero")

    def lam(t):
        return min(t * a0, 1.0), min(t * a1, 1.0)

    def ok(t):
        l0, l1 = lam(t)
        return _info_cached(p, l0, l1, 1.0, n_starts) <= subconj_tol

    if a0 == 0:
        return (0.0, 1.0)
    if a1 == 0:
        return (1.0, 0.0)
    lo = 1.0 / (a0 + a1)  # lambda0+lambda1 = 1, always sub-conjugate
    hi = 1.0 / min(a0, a1)  # both coordinates clipped at 1 beyond this
    if ok(hi):
        return lam(hi)
    while (hi - lo) * max(a0, a1) > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lam(lo)


@lru_cache(maxsize=4096)
def _frontier_sweep(p: ProbabilityMatrix, n_directions: int, tol: float):
    pts = [(1.0, 0.0), (0.0, 1.0)]
    for theta in np.linspace(0.0, math.pi / 2, n_directions)[1:-1]:
        pts.append(
            subconjugate_frontier(p, (math.cos(theta), math.sin(theta)), tol=tol)
        )
    return tuple(pts)


def _check_bound_args(n0, n1, s) -> None:
    # written so that nan fails every comparison
    if not (1 <= n0 < math.inf and 1 <= n1 < math.inf and 0 < s <= 1):
        raise DomainError(f"need finite n0,n1 >= 1 and 0 < S <= 1, got {n0},{n1},{s}")


def direct_lower_bound(
    p: ProbabilityMatrix,
    n0: float,
    n1: float,
    s: float,
    n_directions: int = 64,
    tol: float = 1e-4,
) -> float:
    """Lower bound on W: S * max over certified sub-conjugate (l0, l1)
    of n0^l0 n1^l1, swept over a fan of frontier directions.

    A coarse sweep only weakens the bound; every reported exponent pair is
    certified sub-conjugate, so the bound is always valid.
    """
    _check_bound_args(n0, n1, s)
    best = 0.0
    for l0, l1 in _frontier_sweep(p, n_directions, tol):
        best = max(best, n0**l0 * n1**l1)
    return s * best


def work_lower_bound(p_list, n0: float, n1: float, s: float,
                     n_starts: int = 16) -> WorkBound:
    """Lower bound on ln W for a code over per-coordinate matrices p_list.

    ln W >= sup [l0 ln n0 + l1 ln n1 + mu ln S - sum_i I(P_i, l0, l1, mu)]
    over l0,l1 <= 1 <= l0+l1 and mu >= 0, by grid search plus local
    refinement; mu is capped at 64 with an infinity sentinel.
    """
    _check_bound_args(n0, n1, s)
    counts: dict[ProbabilityMatrix, int] = {}
    for p in p_list:
        counts[p] = counts.get(p, 0) + 1
    ln0, ln1, lns = math.log(n0), math.log(n1), math.log(s)

    def objective(l0, l1, mu):
        if math.isinf(mu) and lns < 0:
            return -math.inf
        val = l0 * ln0 + l1 * ln1 + (0.0 if math.isinf(mu) else mu * lns)
        for p, c in counts.items():
            val -= c * _info_cached(p, l0, l1, mu, n_starts)
        return val

    lam_grid = np.linspace(0.0, 1.0, 7)
    mu_grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
               math.inf]
    best = (-math.inf, 1.0, 0.0, 0.0)
    for l0 in lam_grid:
        for l1 in lam_grid:
            if l0 + l1 < 1.0 - 1e-12:
                continue
            for mu in mu_grid:
                v = objective(l0, l1, mu)
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
                cv = objective(c0, c1, cm)
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

    For each p, evaluates the margin on the full 3-simplex at the given
    resolution and on the fixed-marginal submanifold grid; margins below
    -tol count as violations.
    """
    if resolution < 10:
        raise DomainError(f"resolution {resolution} < 10")
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
    arrs = [np.asarray(getattr(b, "entries", b), dtype=float) for b in r_blocks]
    total = sum(a.sum() for a in arrs)
    if abs(total - 1.0) > 1e-9:
        raise MassError(f"total block mass {total}, expected 1")
    m0 = m1 = ksum = 0.0
    mix = np.zeros_like(p.entries)
    for a in arrs:
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
    ln n0 <= ((2p-1)^2 - eps) ln n1 the problem is solvable in linear time.
    """
    if not 0.5 < p < 1.0:
        raise DomainError(f"p={p} must lie strictly inside (1/2, 1)")
    if n0 <= 1 or n1 <= 1 or not 0 < epsilon < 1:
        raise DomainError(f"need n0,n1 > 1 and 0 < eps < 1")
    num = math.log(n0) + math.log(n1) - 2 * (2 * p - 1) * math.sqrt(
        math.log(n0) * math.log(n1)
    )
    comparisons = math.exp(num / (4 * p * (1 - p) * (1 - epsilon)))
    return comparisons, (2 * p - 1) ** 2
