"""Bucketing-code constructions and their exact success/work analytics.

A bucketing code is a data-independent family of T bucket pairs
(B0_t, B1_t); a candidate point pair is compared iff some bucket contains
both sides.  A code never stores its buckets as point sets.  It answers
one question about a batch of points, `membership(points, side)`, with
two int64 arrays (rows, buckets) in COO form: one entry per (point index,
bucket id) membership, sorted by point and then by bucket.  Monte Carlo
counting and the exact success sweep both work on these arrays.  Work
W = sum_t max(n0 p0_t, n1 p1_t, n0 p0_t n1 p1_t) depends only on how many
buckets share each pair (p0_t, p1_t) of side measures, so a code reports
its buckets as `bucket_probs()`, a short list of (count, p0, p1) groups:
the random constructions repeat one pair T times and cost one term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import DimensionMismatch, DomainError, RoundingInfeasible, TooLarge
from .probmodel import ProbabilityMatrix, make_matrix
from .rng import derive_rng

# max b0^d * b1^d pair states the exact-S sweep visits; it bounds the
# sweep's time, since its memory is one row block and the membership
# matrices that BUCKET_INDEX_GUARD bounds
ENUMERATION_GUARD = 1 << 26
# max materialized bucket count / group table size / states x buckets
# entries of one side's exact-S membership matrix
BUCKET_INDEX_GUARD = 1 << 20
_SHELL_SLICE = 1 << 22  # max points x centers entries per membership slice


def _comb0(n: int, k: int) -> int:
    """Binomial coefficient that is 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


class BucketingCode:
    """Base interface: dimension, bucket count, membership, probabilities.

    A code's identity is its `kind` (a class attribute), its dimension d,
    its bucket count T and its seed.  `__init__` sets d, T and seed once
    and rejects T < 0 before a subclass allocates anything;
    `descriptor()` writes them around the subclass's `params()`.
    """

    kind: str

    def __init__(self, d: int, T: int, seed: int):
        if T < 0:
            raise DomainError(f"T={T} must be >= 0")
        self.d = d
        self.T = T
        self.seed = seed

    def bucket_probs(self) -> list:
        """[(count, p0, p1), ...]: the buckets grouped by the marginal
        measures p0 of B0_t and p1 of B1_t, in the order of each group's
        first bucket; counts sum to T, and a pair may recur."""
        raise NotImplementedError

    def membership(self, points: np.ndarray, side: int):
        """(rows, buckets): int64 arrays with one entry per (point index,
        bucket id) membership of the (n, d) `points` on `side`, sorted by
        point and then by bucket."""
        raise NotImplementedError

    def work(self, n0: float, n1: float) -> float:
        """W = sum_t max(n0 p0_t, n1 p1_t, n0 p0_t n1 p1_t), one term per
        group of `bucket_probs`."""
        try:
            return float(sum(count * max(n0 * p0, n1 * p1, n0 * p0 * n1 * p1)
                             for count, p0, p1 in self.bucket_probs()))
        except OverflowError:  # an integer count beyond the float range
            raise TooLarge("bucket counts overflow the float work sum") from None

    def success_exact(self, p: ProbabilityMatrix):
        """Closed-form planted-pair success probability, or None."""
        return None

    def params(self) -> dict:
        """The kind's own descriptor parameters."""
        return {}

    def descriptor(self) -> dict:
        """{kind, d, T, seed, params}: JSON that rebuilds this code."""
        return {"kind": self.kind, "d": self.d, "T": self.T, "seed": self.seed,
                "params": self.params()}


class FullSpaceCode(BucketingCode):
    """A single bucket pair covering both full spaces (S = 1, W = n0*n1)."""

    kind = "full_space"

    def __init__(self, d: int, seed: int = 0):
        super().__init__(d, 1, seed)

    def bucket_probs(self):
        return [(1, 1.0, 1.0)]

    def membership(self, points, side):
        n = len(points)
        return np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64)

    def success_exact(self, p):
        return 1.0


class EmptyCode(BucketingCode):
    """A code with no buckets (S = 0, W = 0)."""

    kind = "empty"

    def __init__(self, d: int, seed: int = 0):
        super().__init__(d, 0, seed)

    def bucket_probs(self):
        return []

    def membership(self, points, side):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    def success_exact(self, p):
        return 0.0


class ClassicalCode(BucketingCode):
    """Agreement on k random coordinates, repeated over independent draws.

    Binary alphabet with uniform marginals.  Each draw t picks a sorted
    k-subset of coordinates and partitions each side into 2^k pattern
    buckets; bucket id = draw * 2^k + pattern.  Every bucket has side
    probability 2^-k on both sides.
    """

    kind = "classical"

    def __init__(self, d: int, k: int, draws: int, seed: int):
        if not 1 <= k <= d:
            raise DomainError(f"need 1 <= k <= d, got k={k}, d={d}")
        if k > 62:
            raise TooLarge(f"k={k} exceeds the 62-bit pattern guard")
        super().__init__(d, draws << k, seed)
        self.k = k
        self.draws = draws
        self.coords = np.stack(
            [
                np.sort(derive_rng(seed, "classical-draw", t).choice(d, k, replace=False))
                for t in range(draws)
            ]
        ) if draws else np.zeros((0, k), dtype=int)

    def bucket_probs(self):
        return [(self.T, 2.0**-self.k, 2.0**-self.k)]

    def membership(self, points, side):
        # id = draw * 2^k + sum_j symbol_j 2^j by Horner's rule over the
        # draws' j-th coordinates, gathered as rows of the transposed points;
        # uint64 wraps mod 2^64 as the int64 ids do at large k
        columns = np.ascontiguousarray(np.asarray(points).T)
        n = columns.shape[1]
        ids = np.empty((self.draws, n), dtype=np.uint64)
        ids[:] = np.arange(self.draws, dtype=np.uint64)[:, None]
        for j in range(self.k - 1, -1, -1):
            ids <<= np.uint64(1)
            ids += columns[self.coords[:, j]]
        rows = np.repeat(np.arange(n, dtype=np.int64), self.draws)
        return rows, ids.view(np.int64).T.reshape(-1)

    def params(self):
        return {"k": self.k, "draws": self.draws}


class ShellCode(BucketingCode):
    """Agreement with a random center in exactly d0-1 or d0 coordinates.

    Binary alphabet with uniform marginals; every bucket has side
    probability p_star = [C(d,d0-1) + C(d,d0)] 2^-d on both sides.
    """

    kind = "shell"

    def __init__(self, d: int, d0: int, T: int, seed: int):
        if not 1 <= d0 <= d:
            raise DomainError(f"need 1 <= d0 <= d, got d0={d0}, d={d}")
        super().__init__(d, T, seed)
        self.d0 = d0
        self.centers = derive_rng(seed, "shell-centers").integers(
            0, 2, size=(T, d), dtype=np.uint8
        )
        self.p_star = shell_capture_probability(d, d0, 0)
        # binary x agrees with center c in x.(2c-1) + d - |c| coordinates,
        # so that count is d0 - 1 or d0 iff |x.(2c-1) + shift| = 1/2 with
        # shift = d - |c| - d0 + 1/2; float32 holds these half-integers
        # exactly
        self._signs = (2.0 * self.centers - 1.0).T.astype(np.float32)
        self._shift = (d - d0 + 0.5 - self.centers.sum(axis=1, dtype=np.int64)
                       ).astype(np.float32)

    def bucket_probs(self):
        return [(self.T, self.p_star, self.p_star)]

    def membership(self, points, side):
        pts = np.asarray(points)
        # slices of points keep the points x centers offset matrix near
        # _SHELL_SLICE entries; a lone empty slice covers zero points.  The
        # offsets are shifted and rectified in place and a lone slice is
        # returned as it is, so the peak stays under twice the result
        step = max(1, _SHELL_SLICE // max(self.T, 1))
        rows, buckets = [], []
        for start in range(0, max(len(pts), 1), step):
            offset = pts[start:start + step] @ self._signs
            offset += self._shift
            r, b = np.nonzero(np.abs(offset, out=offset) == 0.5)
            r = r.astype(np.int64, copy=False)
            r += start
            rows.append(r)
            buckets.append(b.astype(np.int64, copy=False))
        if len(rows) == 1:
            return rows[0], buckets[0]
        return np.concatenate(rows), np.concatenate(buckets)

    def params(self):
        return {"d0": self.d0}


@dataclass(frozen=True)
class ShellAnalytics:
    """Exact analytics of the shell construction at given (d, d0, p, eps).

    capture[m] is the probability S_m that one random center captures a
    planted pair disagreeing in exactly m coordinates; T is chosen so the
    Chebyshev argument guarantees success probability S >= 1 - 2*eps.
    """

    d: int
    d0: int
    p_star: float
    capture: tuple
    n: int
    T: int
    S: float
    epsilon: float


def shell_capture_probability(d: int, d0: int, m: int) -> float:
    """S_m: both points of a distance-m pair agree with a random center in
    exactly d0-1 or d0 coordinates.  Exact integer arithmetic."""
    num = _comb0(m, m // 2) * (
        _comb0(d - m, d0 - (m + 1) // 2) + _comb0(d - m, d0 - (m + 2) // 2)
    )
    return num / (1 << d)


def shell_analytics(d: int, d0: int, p: float, epsilon: float) -> ShellAnalytics:
    """Success/work analytics for the shell code under bernoulli(p) data."""
    if not 1 <= d0 <= d:
        raise DomainError(f"need 1 <= d0 <= d, got d0={d0}, d={d}")
    if not 0.5 < p < 1.0:
        raise DomainError(f"p={p} must lie strictly inside (1/2, 1)")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon={epsilon} outside (0, 1)")
    capture = tuple(shell_capture_probability(d, d0, m) for m in range(d + 1))
    p_star = capture[0]
    width = math.sqrt(p * (1 - p) * d / epsilon)
    center = (1 - p) * d
    window = [m for m in range(d + 1) if abs(m - center) < width]
    floor_sm = min(capture[m] for m in window)
    if floor_sm <= 0:
        raise DomainError(
            f"capture probability vanishes inside the Chebyshev window "
            f"(d={d}, d0={d0}, p={p}, eps={epsilon})"
        )
    t_count = math.ceil(-math.log(epsilon) / floor_sm)
    s_total = 0.0
    for m in range(d + 1):
        # binomial weight in log space; C(d, m) alone can overflow a float
        weight = math.exp(
            math.lgamma(d + 1) - math.lgamma(m + 1) - math.lgamma(d - m + 1)
            + (d - m) * math.log(p) + m * math.log(1 - p)
        )
        if capture[m] >= 1.0:
            hit = 1.0
        else:
            hit = -math.expm1(t_count * math.log1p(-capture[m]))
        s_total += weight * hit
    n = int(1.0 / p_star)
    return ShellAnalytics(
        d=d, d0=d0, p_star=p_star, capture=capture, n=n, T=t_count,
        S=s_total, epsilon=epsilon,
    )


def classical_code(d: int, k: int, T: int = 1, seed: int = 0) -> ClassicalCode:
    """T counts draws, so `code.T` = T * 2^k (T = 8 at k = 13 gives 65 536)."""
    return ClassicalCode(d, k, T, seed)


def shell_code(d: int, d0: int, T: int, seed: int = 0) -> ShellCode:
    return ShellCode(d, d0, T, seed)


def full_space_code(d: int) -> FullSpaceCode:
    return FullSpaceCode(d)


def empty_code(d: int) -> EmptyCode:
    return EmptyCode(d)


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Apportion `total` units proportionally; each |count - w*total| < 1.

    Ties between equal fractional parts break by flat (block, row, col)
    index order.
    """
    scaled = weights * total
    base = np.floor(scaled).astype(int)
    short = total - int(base.sum())
    if short < 0 or short > weights.size:
        raise RoundingInfeasible(
            f"cannot apportion {total} units over {weights.size} cells"
        )
    frac = scaled - base
    order = np.lexsort((np.arange(weights.size), -frac))
    base[order[:short]] += 1
    return base


def _log_multinomial(counts) -> float:
    c = [int(x) for x in counts]
    return math.lgamma(sum(c) + 1) - sum(math.lgamma(x + 1) for x in c)


def _log_type_probability(counts: np.ndarray, probs: np.ndarray) -> float:
    """ln P[multinomial sample realizes exactly `counts`] over probs."""
    counts = counts.ravel()
    probs = probs.ravel()
    if np.any((counts > 0) & (probs <= 0)):
        return -math.inf
    mask = counts > 0
    return _log_multinomial(counts) + float(
        np.sum(counts[mask] * np.log(probs[mask]))
    )


class TypeClassCode(BucketingCode):
    """Type-class buckets: fixed per-block symbol-count compositions.

    Block i occupies a contiguous run of d_{i,**} coordinates (after a
    per-bucket random permutation); side 0 requires exactly d_{i,j*}
    occurrences of symbol j in block i, side 1 the column counts d_{i,*k}.
    Bucket 0 uses the identity permutation, bucket t >= 1 the uniform
    permutation drawn from stream (seed, "typeclass-perm", t) when
    `membership` needs it, so building a code costs the same at any T.
    `membership` walks every bucket, so it refuses T > BUCKET_INDEX_GUARD.
    """

    kind = "typeclass"

    def __init__(self, p: ProbabilityMatrix, d: int, r_blocks, seed: int,
                 T: int | None = None):
        blocks = np.stack([np.asarray(getattr(b, "entries", b), float)
                           for b in r_blocks])
        if np.any(blocks < 0):
            raise DomainError("block masses must be nonnegative")
        if not abs(blocks.sum() - 1.0) <= 1e-9:  # written so that nan fails
            raise DomainError(f"blocks have total mass {blocks.sum()}, expected 1")
        self.p = p
        self.block_counts = _largest_remainder(blocks.reshape(-1), d).reshape(
            blocks.shape
        )
        if np.any(np.abs(self.block_counts - blocks * d) >= 1.0):
            raise RoundingInfeasible("apportionment drifted a full unit")
        self.row_counts = self.block_counts.sum(axis=2)  # d_{i,j*}
        self.col_counts = self.block_counts.sum(axis=1)  # d_{i,*k}
        self.block_sizes = self.block_counts.sum(axis=(1, 2))  # d_{i,**}
        self.boundaries = np.concatenate([[0], np.cumsum(self.block_sizes)])

        self._p0 = math.exp(
            sum(
                _log_type_probability(self.row_counts[i], p.row_marginals)
                for i in range(len(blocks))
            )
        )
        self._p1 = math.exp(
            sum(
                _log_type_probability(self.col_counts[i], p.col_marginals)
                for i in range(len(blocks))
            )
        )
        ln_u = _log_type_probability(self.block_counts.sum(axis=0), p.entries)
        ln_v = sum(
            _log_type_probability(self.block_counts[i], p.entries)
            for i in range(len(blocks))
        )
        if not math.isfinite(ln_u) or not math.isfinite(ln_v):
            raise DomainError("block counts put mass outside the support of P")
        self.U = math.exp(ln_u)
        self.V = math.exp(ln_v)
        if T is None:
            T = max(1, math.ceil(math.exp(ln_u - ln_v)))
        super().__init__(d, T, seed)

    def bucket_probs(self):
        return [(self.T, self._p0, self._p1)]

    def success_lower_bound(self) -> float:
        """E[S] >= U (1 - (1 - V/U)^T) over the permutation randomness."""
        ratio = min(self.V / self.U, 1.0) if self.U > 0 else 0.0
        return self.U * -math.expm1(self.T * math.log1p(-ratio)) if ratio < 1 \
            else self.U

    def membership(self, points, side):
        if self.T > BUCKET_INDEX_GUARD:
            raise TooLarge(f"{self.T} type-class buckets exceed the "
                           f"materialized bucket guard")
        pts = np.asarray(points)
        targets = self.row_counts if side == 0 else self.col_counts
        symbols = np.arange(targets.shape[1])
        member = np.ones((len(pts), self.T), dtype=bool)
        for t in range(self.T):
            perm = (derive_rng(self.seed, "typeclass-perm", t).permutation(self.d)
                    if t else np.arange(self.d))
            for i, target in enumerate(targets):
                seg = pts[:, perm[self.boundaries[i]:self.boundaries[i + 1]]]
                # a symbol outside the alphabet leaves the counts short
                counts = (seg[:, :, None] == symbols).sum(axis=1)
                member[:, t] &= (counts == target).all(axis=1)
        rows, buckets = np.nonzero(member)
        return rows.astype(np.int64), buckets.astype(np.int64)

    def params(self):
        return {"matrix": self.p.entries.tolist(),
                "block_counts": self.block_counts.tolist()}


def typeclass_code(p: ProbabilityMatrix, d: int, r_blocks, seed: int = 0,
                   T: int | None = None) -> TypeClassCode:
    return TypeClassCode(p, d, r_blocks, seed, T)


class TensorPowerCode(BucketingCode):
    """k-fold tensor power: composite buckets indexed lazily by k-tuples.

    Dimension k*d; bucket (t_1..t_k) contains a point iff every block
    belongs to its component bucket; side probabilities multiply.  The
    T^k buckets are never materialized.
    """

    kind = "tensor_power"

    def __init__(self, base: BucketingCode, k: int):
        if k < 1:
            raise DomainError(f"tensor power k={k} must be >= 1")
        super().__init__(base.d * k, base.T**k, base.seed)
        self.base = base
        self.k = k

    def bucket_probs(self):
        """One group per multiset of k base groups, a sorted index tuple in
        which group i occurs c_i times: count multinomial(k; c) *
        prod m_i^{c_i}, measures the products of the base measures in
        tuple order.  Composite ids run over k-tuples in lexicographic
        order, and so do the sorted tuples, so groups stay in the order of
        their first bucket."""
        base = self.base.bucket_probs()
        if comb(len(base) + self.k - 1, self.k) > BUCKET_INDEX_GUARD:
            raise TooLarge("work accumulation table exceeds the guard")
        groups = []
        for tup in combinations_with_replacement(range(len(base)), self.k):
            count = math.factorial(self.k)
            for i in set(tup):
                count //= math.factorial(tup.count(i))
            pa = pb = 1.0
            for i in tup:
                count *= base[i][0]
                pa *= base[i][1]
                pb *= base[i][2]
            groups.append((count, pa, pb))
        return groups

    def membership(self, points, side):
        """Composite id sum_i t_i base_T^(k-1-i) for every k-tuple of the
        point's per-block base buckets, joined block by block."""
        if self.T > np.iinfo(np.int64).max:
            raise TooLarge(f"{self.T} composite bucket ids overflow int64")
        pts = np.asarray(points)
        n, bd = len(pts), self.base.d
        parts = [self.base.membership(pts[:, i * bd:(i + 1) * bd], side)
                 for i in range(self.k)]
        lens = np.stack([np.bincount(r, minlength=n) for r, _ in parts], axis=1)
        if np.any(np.cumprod(lens, axis=1, dtype=float) > BUCKET_INDEX_GUARD):
            raise TooLarge("composite bucket list exceeds the guard")
        rows = np.arange(n, dtype=np.int64)
        ids = np.zeros(n, dtype=np.int64)
        for (_, base_ids), blen in zip(parts, lens.T):
            # pair each composite prefix with every base id of its point
            rep = blen[rows]
            start = np.repeat((np.cumsum(blen) - blen)[rows], rep)
            offset = np.arange(rep.sum()) - np.repeat(np.cumsum(rep) - rep, rep)
            ids = np.repeat(ids, rep) * self.base.T + base_ids[start + offset]
            rows = np.repeat(rows, rep)
        return rows, ids

    def success_exact(self, p):
        base_s = code_success_exact(self.base, p)
        return base_s**self.k

    def params(self):
        return {"k": self.k, "base": self.base.descriptor()}


class ConcatenatedCode(BucketingCode):
    """Disjoint union of two codes' bucket lists (T = T1 + T2).

    mode="blocks": dimensions add and each code acts on its own coordinate
    block.  mode="union": both codes act on the same coordinates (equal
    dimensions required).
    """

    kind = "concatenate"

    def __init__(self, c1: BucketingCode, c2: BucketingCode, mode: str = "blocks"):
        if mode not in ("blocks", "union"):
            raise DomainError(f"unknown concatenation mode {mode!r}")
        if mode == "union" and c1.d != c2.d:
            raise DimensionMismatch(
                f"union mode needs equal dimensions, got {c1.d} and {c2.d}"
            )
        super().__init__(c1.d + c2.d if mode == "blocks" else c1.d,
                         c1.T + c2.T, c1.seed)
        self.c1 = c1
        self.c2 = c2
        self.mode = mode

    def bucket_probs(self):
        return self.c1.bucket_probs() + self.c2.bucket_probs()

    def membership(self, points, side):
        pts = np.asarray(points)
        if self.mode == "blocks":
            r1, b1 = self.c1.membership(pts[:, :self.c1.d], side)
            r2, b2 = self.c2.membership(pts[:, self.c1.d:], side)
        else:
            r1, b1 = self.c1.membership(pts, side)
            r2, b2 = self.c2.membership(pts, side)
        rows = np.concatenate([r1, r2])
        order = np.argsort(rows, kind="stable")
        return rows[order], np.concatenate([b1, b2 + self.c1.T])[order]

    def success_exact(self, p):
        if self.mode != "blocks":
            return None
        s1 = code_success_exact(self.c1, p)
        s2 = code_success_exact(self.c2, p)
        # blocks are disjoint coordinates, so failures are independent
        return 1.0 - (1.0 - s1) * (1.0 - s2)

    def params(self):
        return {"mode": self.mode, "first": self.c1.descriptor(),
                "second": self.c2.descriptor()}


def tensor_power(code: BucketingCode, k: int) -> BucketingCode:
    if k == 1:
        return code
    return TensorPowerCode(code, k)


def concatenate(c1: BucketingCode, c2: BucketingCode,
                mode: str = "blocks") -> ConcatenatedCode:
    return ConcatenatedCode(c1, c2, mode)


def code_work(code: BucketingCode, n0: float, n1: float) -> float:
    """Work of a code at (possibly non-integer) expected set sizes."""
    if not (0 < n0 < math.inf and 0 < n1 < math.inf):  # also rejects nan
        raise DomainError(
            f"set sizes must be positive and finite, got {n0}, {n1}"
        )
    return code.work(n0, n1)


def _enumerate_states(b: int, d: int) -> np.ndarray:
    """All b^d points as a (b^d, d) array, row-major (first coord slowest)."""
    n = b**d
    idx = np.arange(n)
    cols = []
    for i in range(d):
        cols.append((idx // b ** (d - 1 - i)) % b)
    return np.stack(cols, axis=1).astype(np.uint8)


def _membership_matrix(code: BucketingCode, points: np.ndarray,
                       side: int) -> np.ndarray:
    """(n, T) float32 0/1 matrix, ready for a matmul that counts shared
    buckets; refused before any membership is computed when its n T
    entries exceed the guard."""
    if len(points) * code.T > BUCKET_INDEX_GUARD:
        raise TooLarge(f"{len(points)} states x {code.T} buckets exceed the "
                       f"membership guard")
    m = np.zeros((len(points), code.T), dtype=np.float32)
    m[code.membership(points, side)] = 1.0
    return m


def _product_measure(p: ProbabilityMatrix, k: int) -> np.ndarray:
    """P^{(x)k} as a (b0^k, b1^k) array, states in row-major order."""
    out = np.ones((1, 1))
    for _ in range(k):
        out = np.kron(out, p.entries)
    return out


def code_success_exact(code: BucketingCode, p: ProbabilityMatrix) -> float:
    """Exact planted-pair success probability S.

    Uses the code's closed form when available, otherwise sweeps the full
    (x0, x1) state space and sums the product measure over co-bucketed
    pairs.  The guard (2^26 pair states) bounds the sweep's time; its
    memory is one row block of b0^(d - d//2) side-0 states against all
    side-1 states, never the b0^d x b1^d pair array, plus each side's
    (states, T) membership matrix, refused above 2^20 entries.
    """
    closed = code.success_exact(p)
    if closed is not None:
        return float(closed)
    d = code.d
    b0, b1 = p.rows, p.cols
    if b0**d * b1**d > ENUMERATION_GUARD:
        raise TooLarge(
            f"{b0}^{d} * {b1}^{d} pair states exceed the enumeration guard"
        )
    m0 = _membership_matrix(code, _enumerate_states(b0, d), 0)
    m1 = _membership_matrix(code, _enumerate_states(b1, d), 1)
    # a state is x = (u, v) with u its h slowest coordinates, so the pair
    # measure factors as P^{(x)h}[u, u'] * P^{(x)(d-h)}[v, v']; one block
    # fixes u and sums over (v, u', v')
    h = d // 2
    a = _product_measure(p, h)
    b = _product_measure(p, d - h)
    nv, nv1 = b.shape
    total = 0.0
    for u, a_row in enumerate(a):
        co = (m0[u * nv:(u + 1) * nv] @ m1.T) > 0
        # summing over v' and then over v keeps every float sum short; one
        # flat contraction over (v, v') had 10x the rounding error at d = 12
        co = co.reshape(nv, len(a_row), nv1)
        total += a_row @ np.matmul(co, b[:, :, None]).sum(axis=(0, 2))
    return float(total)


def _typeclass_from(desc: dict, params: dict) -> TypeClassCode:
    counts = np.asarray(params["block_counts"], dtype=float)
    return TypeClassCode(make_matrix(params["matrix"]), desc["d"],
                         counts / counts.sum(), desc["seed"], desc["T"])


# descriptor kind -> builder(desc, params)
_BUILDERS = {
    FullSpaceCode.kind: lambda desc, params: FullSpaceCode(
        desc["d"], desc.get("seed", 0)),
    EmptyCode.kind: lambda desc, params: EmptyCode(desc["d"],
                                                   desc.get("seed", 0)),
    ClassicalCode.kind: lambda desc, params: ClassicalCode(
        desc["d"], params["k"], params["draws"], desc["seed"]),
    ShellCode.kind: lambda desc, params: ShellCode(desc["d"], params["d0"],
                                                   desc["T"], desc["seed"]),
    TypeClassCode.kind: _typeclass_from,
    TensorPowerCode.kind: lambda desc, params: TensorPowerCode(
        code_from_descriptor(params["base"]), params["k"]),
    ConcatenatedCode.kind: lambda desc, params: ConcatenatedCode(
        code_from_descriptor(params["first"]),
        code_from_descriptor(params["second"]), params["mode"]),
}


def code_from_descriptor(desc: dict) -> BucketingCode:
    """Rebuild a bit-identical code from its JSON descriptor."""
    build = _BUILDERS.get(desc["kind"])
    if build is None:
        raise DomainError(f"unknown code kind {desc['kind']!r}")
    return build(desc, desc.get("params", {}))
