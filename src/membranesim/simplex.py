"""Barycentric geometry of the (N-1)-simplex.

Conventions used throughout the package:

* A state is a point x on the simplex
      S_{N-1} = {x in R^N : x_i >= 0, sum_i x_i = 1},
  spanned by N orthonormal vertex vectors. The same representation
  doubles as the breaking point lambda of a membrane stretched over the
  simplex.
* The state splits the simplex into N collapse regions: region i is the
  convex hull of the N vertices with vertex i replaced by x, and a
  break landing in region i collapses the state onto vertex i.
* Region membership is decided by the ratio rule

      region(lam, x) = argmin_j lam_j / x_j,   ratio := +inf if x_j = 0.

  Writing lam = mu*x + sum_{j!=i} nu_j e_j with mu + sum_j nu_j = 1 and
  eliminating mu = lam_i / x_i gives nu_j = lam_j - (lam_i/x_i) x_j, so
  feasibility (all nu_j >= 0) holds exactly when i minimises the ratio.
  The independent oracle for the rule, a linear program that solves
  that feasibility problem directly, lives in `tests/test_simplex.py`.

States built from ints or `fractions.Fraction` keep an exact copy of
their coordinates next to the float view; operations that can stay in
rational arithmetic (tie detection, cellular integrals) do so when both
operands carry exact coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: absolute tolerance on the sum-to-one constraint for float coordinates
SUM_TOL = 1e-12
#: relative tolerance for declaring two breaking-point ratios tied
TIE_RTOL = 1e-12
#: rows per tile, the one tile length: `region_counts` classifies a batch
#: and `estimate` draws a uniform block this many rows at a time; at N <= 8
#: the tile's (N, tile) float64 ratios take at most 1 MiB, inside a core's
#: 2 MiB L2 cache; per row the tile also holds a float64 bound, two N-byte
#: tie masks, an intp label and a byte tie count
_TILE_POINTS = 1 << 14


def _as_exact(values) -> tuple[Fraction, ...] | None:
    out = []
    for v in values:
        if isinstance(v, (Fraction, int)) and not isinstance(v, bool):
            out.append(Fraction(v))
        else:
            return None
    return tuple(out)


class BarycentricState:
    """Point on S_{N-1}: N non-negative weights summing to one.

    Floats are validated within SUM_TOL; ints and Fractions must sum to
    exactly one and are retained in `exact_coords` for the exact code
    paths (float view always available in `coords`).
    """

    __slots__ = ("coords", "exact_coords", "_divisors", "_zero_rows")

    def __init__(self, coords):
        try:
            if isinstance(coords, np.ndarray):
                exact = None
                arr = np.array(coords, dtype=float)
            else:
                coords = tuple(coords)
                exact = _as_exact(coords)
                arr = np.array([float(c) for c in coords], dtype=float)
        except OverflowError:  # an int or Fraction too large for a float
            raise ValueError("barycentric weights must be finite") from None
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a state needs at least two outcome weights")
        if not np.all(np.isfinite(arr)):
            raise ValueError("barycentric weights must be finite")
        if np.any(arr < 0.0):
            raise ValueError("barycentric weights must be non-negative")
        if exact is not None:
            if sum(exact) != 1:
                raise ValueError("exact weights must sum to exactly 1")
        else:
            # finite weights can overflow their sum to inf, rejected just below
            with np.errstate(over="ignore"):
                total = arr.sum()
            if abs(total - 1.0) > SUM_TOL:
                raise ValueError(f"weights sum to {total:.17g}, expected 1")
        arr.flags.writeable = False
        self.coords = arr
        self.exact_coords = exact
        # what `_breaking_ratios` divides by: each weight, or 1 where it is
        # 0, whose ratio row is then set to +inf; kept with the state, since
        # every tile of a batch would otherwise redo it holding the GIL
        divisors = np.where(arr > 0, arr, 1.0)
        divisors.flags.writeable = False
        self._divisors = divisors[:, None]
        self._zero_rows = np.flatnonzero(arr == 0)

    @property
    def n_outcomes(self) -> int:
        return self.coords.size

    def __repr__(self) -> str:
        coords = self.exact_coords or self.coords.tolist()
        return f"BarycentricState([{', '.join(map(repr, coords))}])"


@dataclass(frozen=True)
class RegionLabel:
    """Collapse-region classification of a breaking point.

    `indices` holds the 1-based outcome indices attaining the minimal
    ratio, sorted ascending. One index means the point lies strictly
    inside that region; two or more mean the point sits on a boundary
    between regions (a measure-zero tie, reported rather than silently
    resolved).
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("a region label needs at least one index")
        if self.is_boundary and len(set(self.indices)) < 2:
            raise ValueError("boundary labels need distinct indices")

    @property
    def is_boundary(self) -> bool:
        return len(self.indices) > 1

    @property
    def outcome(self) -> int:
        """Lowest tied index: the deterministic tie-break used by samplers."""
        return self.indices[0]


def region_of(lam: BarycentricState, x: BarycentricState) -> RegionLabel:
    """Classify breaking point `lam` relative to state `x`.

    Exact rational arithmetic is used when both points carry exact
    coordinates; otherwise ties are detected within TIE_RTOL (relative).
    """
    if lam.n_outcomes != x.n_outcomes:
        raise ValueError(
            f"dimension mismatch: {lam.n_outcomes} vs {x.n_outcomes} outcomes"
        )
    if lam.exact_coords is not None and x.exact_coords is not None:
        ratios = [
            lj / xj if xj > 0 else None
            for lj, xj in zip(lam.exact_coords, x.exact_coords)
        ]
        rmin = min(r for r in ratios if r is not None)
        tied = tuple(j + 1 for j, r in enumerate(ratios) if r == rmin)
        return RegionLabel(tied)
    ratios, bound = _breaking_ratios(lam.coords[None, :], x)
    tied = np.flatnonzero(ratios[:, 0] <= bound[0])
    return RegionLabel(tuple(int(j) + 1 for j in tied))


def _breaking_ratios(
    lams: np.ndarray, x: BarycentricState
) -> tuple[np.ndarray, np.ndarray]:
    """The ratio rule of a (size, N) batch: its (N, size) ratios, one
    outcome per row and +inf where x_j = 0, and each point's tie bound,
    its minimal ratio widened by TIE_RTOL. Outcome j ties for a point
    when its ratio is at most the bound.

    A bound that is NaN, negative or infinite cannot rank its row (no
    outcome would tie), so it raises FloatingPointError: such rows are a
    fault of whatever produced them, not an invalid input."""
    xs = x.coords
    if lams.ndim != 2 or lams.shape[1] != xs.size:
        raise ValueError("batch shape does not match the state dimension")
    # one divide for every outcome, written in (N, size) order so that the
    # row operations after it run on contiguous memory; a zero weight's
    # column is divided by 1, never by 0, and its row then set to +inf
    ratios = np.divide(
        lams.T, x._divisors, out=np.empty((xs.size, lams.shape[0]))
    )
    if x._zero_rows.size:
        ratios[x._zero_rows] = np.inf
    bound = np.minimum.reduce(ratios, axis=0)
    if bound.size and not (
        np.minimum.reduce(bound) >= 0 and np.maximum.reduce(bound) < np.inf
    ):
        raise FloatingPointError(
            "a row has a NaN, negative or infinite minimal ratio; "
            "the ratio rule cannot rank it"
        )
    bound *= 1.0 + TIE_RTOL
    return ratios, bound


def classify_batch(
    lams: np.ndarray, x: BarycentricState
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised region classification for a (size, N) batch of points.

    A row may be any positive multiple of a point: the ratios and the
    relative TIE_RTOL band both scale with it.

    Returns (outcomes, on_boundary): 0-based outcome indices after the
    lowest-index tie-break, and the mask of points whose minimal ratio
    is attained more than once within TIE_RTOL, as in `region_of`'s
    float path. Both come from one (N, size) tie mask: a tie count
    above one marks a boundary point, and weighing outcome j's ties by
    N - j makes a point's heaviest tie its lowest tied index. Each step
    is one numpy call over the whole batch, so a batch takes the same
    dozen calls whatever N is. The number matters when two workers
    classify at once: every call releases the GIL and takes it back, and
    a worker that finds it held sleeps until the other hands it over.
    Its temporaries grow with `size`; `region_counts` counts a large
    batch tile by tile through it.
    """
    ratios, bound = _breaking_ratios(lams, x)
    n = len(ratios)
    count_type = np.min_scalar_type(n)
    tied = (ratios <= bound).view(np.uint8)
    on_boundary = np.add.reduce(tied, axis=0, dtype=count_type) > 1
    # outcome j weighs n - j where it ties: the heaviest tie is the lowest
    weights = np.arange(n, 0, -1, dtype=count_type)[:, None]
    heaviest = np.maximum.reduce(np.multiply(tied, weights), axis=0)
    outcomes = np.subtract(n, heaviest, out=np.empty(len(heaviest), dtype=np.intp))
    return outcomes, on_boundary


def _tile_bounds(size: int):
    """(start, stop) rows of the consecutive tiles of a `size`-row batch,
    each at most _TILE_POINTS long, read when the generator starts; an
    empty batch still takes one empty tile, so its classification checks
    the batch's shape."""
    tile = _TILE_POINTS
    for start in range(0, max(size, 1), tile):
        yield start, min(start + tile, size)


def region_counts(
    lams: np.ndarray, x: BarycentricState, paired: BarycentricState | None = None
) -> tuple[np.ndarray, int] | tuple[np.ndarray, np.ndarray]:
    """Outcome counts of a (size, N) batch and its number of boundary ties.

    As in `classify_batch`, a row may be any positive multiple of a point.
    `_count_tiles` counts the batch in consecutive slices of _TILE_POINTS
    rows, so its temporaries stay one slice long whatever `size` is.
    Counts are sums over rows, so they do not depend on the slice length.

    With a second state `paired`, the result is (joint, hits): joint[i, j]
    counts the rows with outcome i under `x` and j under `paired` (int64,
    N x N), and hits holds the two states' boundary counts.
    """
    tiles = (lams[start:stop] for start, stop in _tile_bounds(len(lams)))
    return _count_tiles(tiles, x, paired)


def _count_tiles(tiles, x: BarycentricState, paired: BarycentricState | None = None):
    """`region_counts` of the batch that the (rows, N) arrays `tiles`
    make up in order, holding one tile at a time: `estimate` passes the
    tiles of a block as its density draws them.

    Runs `classify_batch` on each tile and sums its boundary count and,
    for each outcome but the last, the count of its labels (one
    comparison per outcome, cheaper at small N than `np.bincount`'s
    scattered increments); the last outcome takes the remaining rows. A
    tile thus costs a fixed dozen numpy calls to classify and two per
    outcome to count; each call hands the GIL to any other worker that
    waits for it, so fewer calls per tile let two workers count in
    parallel instead of queuing.

    With `paired`, each tile is also classified against it while the
    tile is in cache. Only rows whose two outcomes differ are gathered
    and bincounted; each diagonal entry is its outcome's count under `x`
    less the rest of its row.
    """
    n = x.n_outcomes
    counts = np.zeros(n, dtype=np.int64)
    off_diagonal = np.zeros(n * n, dtype=np.int64)
    size = boundary_hits = paired_hits = 0
    for tile in tiles:
        outcomes, on_boundary = classify_batch(tile, x)
        size += len(tile)
        for j in range(n - 1):
            counts[j] += np.count_nonzero(outcomes == j)
        boundary_hits += int(np.count_nonzero(on_boundary))
        if paired is not None:
            others, on_paired_boundary = classify_batch(tile, paired)
            paired_hits += int(np.count_nonzero(on_paired_boundary))
            rows = np.flatnonzero(outcomes != others)
            off_diagonal += np.bincount(
                outcomes[rows] * n + others[rows], minlength=n * n
            )
            del others, rows
        # free this tile's arrays before the next tile is drawn
        del tile, outcomes, on_boundary
    counts[-1] = size - counts[:-1].sum()
    if paired is None:
        return counts, boundary_hits
    joint = off_diagonal.reshape(n, n)
    joint[np.diag_indices(n)] = counts - joint.sum(axis=1)
    return joint, np.array([boundary_hits, paired_hits], dtype=np.int64)


@lru_cache(maxsize=None)
def internal_basis(n: int) -> np.ndarray:
    """Orthonormal basis of R^n whose last row is (1, ..., 1)/sqrt(n).

    Row k (1-based, k < n) is the normalised vector with entry k at
    position n-k, -1 at the positions right of it and 0 elsewhere, up to
    a sign chosen so that n = 2 gives z1 = (y1 - y2)/sqrt(2) and n = 3
    gives z1 = (y3 - y2)/sqrt(2), z2 = (2 y1 - y2 - y3)/sqrt(6). The
    first n-1 rows span the directions of the simplex hyperplane, so the
    induced chart is an isometry for points on the simplex.
    """
    if n < 2:
        raise ValueError("need at least two outcomes")
    rows = np.zeros((n, n))
    for k in range(1, n):
        v = np.zeros(n)
        v[n - 1 - k] = k
        v[n - k :] = -1.0
        v *= (-1.0) ** (n - 1 - k) / math.sqrt(k * (k + 1))
        rows[k - 1] = v
    rows[n - 1] = 1.0 / math.sqrt(n)
    rows.flags.writeable = False
    return rows


def to_internal_coords(p: BarycentricState) -> np.ndarray:
    """First N-1 coordinates of `p` in the internal orthonormal basis.

    The last coordinate is constant (1/sqrt(N)) on the simplex and is
    dropped; the map is invertible on the hyperplane sum(y) = 1.
    """
    basis = internal_basis(p.n_outcomes)
    return basis[:-1] @ p.coords


def from_internal_batch(zs: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `to_internal_coords`: map a (size, N-1) batch of internal
    coordinates to barycentric ones.

    No simplex-membership check is performed; callers that may produce
    outside points must validate or reject themselves.
    """
    grad = internal_basis(n)[:-1, :]
    ys = zs @ grad  # a new array, so the input is never written
    ys += 1.0 / n
    return ys


def simplex_measure(n: int) -> float:
    """Lebesgue measure of S_{n-1} within its hyperplane: sqrt(n)/(n-1)!."""
    if n < 2:
        raise ValueError("need at least two outcomes")
    return math.sqrt(n) / math.factorial(n - 1)
