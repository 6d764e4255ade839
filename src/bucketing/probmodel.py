"""Joint probability matrices, their calculus, and the planted-pair sampler.

The data model: two point sets X0 in {0..b0-1}^d and X1 in {0..b1-1}^d whose
coordinates are drawn i.i.d. from the row/column marginals of a joint matrix
P, except for one uniformly chosen "planted" pair whose coordinates are drawn
jointly from P itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    MassError,
    NegativeEntry,
    NotNormalized,
    OutOfRange,
    SupportViolation,
    TooLarge,
)
from .rng import derive_rng

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProbabilityMatrix:
    """A validated b0 x b1 joint distribution of a single coordinate pair.

    Immutable; marginals are precomputed at construction.  Use make_matrix()
    instead of calling this constructor directly.
    """

    entries: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": self.rows,
                "cols": self.cols,
                "entries": self.entries.tolist(),
            }
        )

    def __eq__(self, other):
        if not isinstance(other, ProbabilityMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash(self.entries.tobytes())


@dataclass(frozen=True)
class NonnegMatrix:
    """A nonnegative matrix (or vector, stored as one column) with mass > 0."""

    entries: np.ndarray

    @property
    def total(self) -> float:
        return float(self.entries.sum())


@dataclass(frozen=True)
class DatasetPair:
    """Sampled X0, X1 point sets with a single planted correlated pair."""

    d: int
    x0_points: np.ndarray  # (n0, d) uint8
    x1_points: np.ndarray  # (n1, d) uint8
    planted: tuple[int, int]
    seed: int

    @property
    def n0(self) -> int:
        return self.x0_points.shape[0]

    @property
    def n1(self) -> int:
        return self.x1_points.shape[0]


def make_matrix(entries) -> ProbabilityMatrix:
    """Validate a rectangular grid of probabilities and precompute marginals.

    Raises NegativeEntry for any entry < 0 and NotNormalized when the total
    differs from 1 by more than 1e-9 (a nan entry included).
    """
    arr = np.array(entries, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size == 0:
        raise NotNormalized("entries must form a nonempty rectangular grid")
    if np.any(arr < 0):
        raise NegativeEntry(f"negative entry in probability matrix: min={arr.min()}")
    total = arr.sum()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # also catches nan
        raise NotNormalized(f"entries sum to {total!r}, expected 1")
    arr = arr.copy()
    arr.flags.writeable = False
    row = arr.sum(axis=1)
    col = arr.sum(axis=0)
    row.flags.writeable = False
    col.flags.writeable = False
    return ProbabilityMatrix(arr, row, col)


def matrix_from_json(text: str) -> ProbabilityMatrix:
    """Parse the matrix JSON format {"rows", "cols", "entries"}."""
    obj = json.loads(text)
    entries = np.array(obj["entries"], dtype=float)
    if entries.shape != (obj["rows"], obj["cols"]):
        raise NotNormalized(
            f"entries shape {entries.shape} does not match "
            f"declared ({obj['rows']}, {obj['cols']})"
        )
    return make_matrix(entries)


def bernoulli_matrix(p: float) -> ProbabilityMatrix:
    """The symmetric 2x2 matrix [[p/2,(1-p)/2],[(1-p)/2,p/2]], 1/2 <= p <= 1."""
    if not 0.5 <= p <= 1.0:
        raise OutOfRange(f"agreement probability p={p} outside [1/2, 1]")
    return make_matrix([[p / 2, (1 - p) / 2], [(1 - p) / 2, p / 2]])


def tensor(p1: ProbabilityMatrix, p2: ProbabilityMatrix) -> ProbabilityMatrix:
    """Tensor product of two coordinate distributions.

    The composite row index is row-major on (j1, j2), i.e. j = j1*b0' + j2,
    and likewise for columns; tests of additivity identities rely on this
    fixed layout.
    """
    e = np.einsum("jk,lm->jlkm", p1.entries, p2.entries)
    return make_matrix(e.reshape(p1.rows * p2.rows, p1.cols * p2.cols))


def _as_array(m) -> np.ndarray:
    if isinstance(m, (ProbabilityMatrix, NonnegMatrix)):
        return np.asarray(m.entries, dtype=float)
    arr = np.asarray(m, dtype=float)
    return arr


def kl_extended(r, p) -> float:
    """Extended Kullback-Leibler divergence K(R||P) in nats.

    K(R||P) = sum r_jk ln(r_jk / (r_** p_jk)) for a nonnegative matrix R and
    probability matrix P of the same shape; vectors are treated as one-column
    matrices.  Zero entries of R contribute nothing (0 ln 0 = 0); a positive
    R entry on a zero P entry raises SupportViolation.
    """
    rr = _as_array(r).ravel()
    pp = _as_array(p).ravel()
    if rr.shape != pp.shape:
        raise MassError(f"shape mismatch: {rr.shape} vs {pp.shape}")
    if np.any(rr < 0):
        raise NegativeEntry("R must be nonnegative")
    total = rr.sum()
    if not 0 < total < np.inf:  # also catches a nan or infinite entry
        raise MassError(f"R must have finite positive total mass, got {total}")
    mask = rr > 0
    if np.any(pp[mask] == 0):
        raise SupportViolation("R puts mass where P has none")
    return float(np.sum(rr[mask] * np.log(rr[mask] / (total * pp[mask]))))


def mutual_information(p: ProbabilityMatrix) -> float:
    """Shannon mutual information of the joint matrix, in nats."""
    outer = np.outer(p.row_marginals, p.col_marginals)
    mask = p.entries > 0
    return float(np.sum(p.entries[mask] * np.log(p.entries[mask] / outer[mask])))


# one comparison pass over a draw's uniforms costs about as much as
# bisecting this many of them, so a draw is counted by passes once it has
# this many uniforms per pass
_DRAWS_PER_PASS = 512


def _draw(rng: np.random.Generator, probs: np.ndarray, shape) -> np.ndarray:
    """Indices drawn i.i.d. from `probs`: the draws of
    rng.choice(len(probs), shape, p=probs), without its per-call checks.

    Each uniform u maps to the number of cdf steps at or below it, which is
    searchsorted(cdf, u, side="right"), since the cumulative sum never
    decreases and its last step is exactly 1 > u.  A draw over at most 256
    indices with at least _DRAWS_PER_PASS uniforms per step below the last
    counts those steps in uint8, one comparison pass each; a smaller or
    wider draw bisects the cdf and returns intp indices.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(shape)
    if len(cdf) > 256 or u.size < _DRAWS_PER_PASS * (len(cdf) - 1):
        return cdf.searchsorted(u, side="right")
    out = (u >= cdf[0]).view(np.uint8)
    for step in cdf[1:-1]:
        out += u >= step
    return out


# the tags of generate_dataset's four sub-streams, in sample_planted's
# argument order
DATASET_STREAMS = ("x0", "x1", "planted_index", "planted_pair")


def check_planted_args(p: ProbabilityMatrix, d: int, n0: int, n1: int) -> None:
    """Raise what generate_dataset raises for its sizes and matrix."""
    if d < 1 or n0 < 1 or n1 < 1:
        raise OutOfRange(f"d={d}, n0={n0}, n1={n1} must all be >= 1")
    if max(p.rows, p.cols) > 256:
        raise TooLarge(f"a {p.rows}x{p.cols} matrix has symbols beyond uint8")


def sample_planted(p: ProbabilityMatrix, d: int, n0: int, n1: int,
                   x0_rng, x1_rng, index_rng, pair_rng) -> tuple:
    """The sampling body of generate_dataset, from one generator per
    DATASET_STREAMS tag: (x0, x1, i0, i1), points as uint8 arrays and the
    planted indices as ints.  Arguments are not checked (check_planted_args).
    """
    x0 = _draw(x0_rng, p.row_marginals, (n0, d)).astype(np.uint8, copy=False)
    x1 = _draw(x1_rng, p.col_marginals, (n1, d)).astype(np.uint8, copy=False)
    i0 = int(index_rng.integers(n0))
    i1 = int(index_rng.integers(n1))
    cells = _draw(pair_rng, p.entries.ravel(), d)
    # intp, because uint8 cells cannot be divided by 256 columns
    x0[i0], x1[i1] = np.divmod(cells, p.cols, dtype=np.intp)
    return x0, x1, i0, i1


def generate_dataset(
    p: ProbabilityMatrix, d: int, n0: int, n1: int, seed: int
) -> DatasetPair:
    """Sample a planted-pair dataset; bit-identical for a fixed seed.

    Non-planted coordinates are i.i.d. from the respective marginals, the
    planted pair's coordinates are drawn jointly from P, and the planted
    indices are uniform on the n0 x n1 grid.  Sub-streams are derived
    statelessly from (seed, purpose), so the four sampling steps are
    mutually independent.  Points are stored as uint8, so P may have at
    most 256 rows and 256 columns (TooLarge otherwise).
    """
    check_planted_args(p, d, n0, n1)
    x0, x1, i0, i1 = sample_planted(
        p, d, n0, n1, *(derive_rng(seed, tag) for tag in DATASET_STREAMS))
    x0.flags.writeable = False
    x1.flags.writeable = False
    return DatasetPair(d=d, x0_points=x0, x1_points=x1, planted=(i0, i1), seed=seed)
