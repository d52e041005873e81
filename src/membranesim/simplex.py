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
  `hull_membership` solves that feasibility problem directly with a
  linear program and serves as the independent oracle for the rule.

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
#: rows per `region_counts` slice: at N <= 8 the slice's (N, tile)
#: float64 ratios take at most 1 MiB, inside a 4 MiB L2 cache
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

    __slots__ = ("coords", "exact_coords")

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
    ratios = _breaking_ratios(lam.coords, x.coords)
    rmin = ratios.min()
    tied = np.flatnonzero(ratios <= rmin * (1.0 + TIE_RTOL))
    return RegionLabel(tuple(int(j) + 1 for j in tied))


def _breaking_ratios(lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.divide(lam, x, out=np.full_like(lam, np.inf), where=x > 0)


def classify_batch(
    lams: np.ndarray, x: BarycentricState
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised region classification for a (size, N) batch of points.

    Returns (outcomes, on_boundary): 0-based outcome indices after the
    lowest-index tie-break, and the mask of points whose minimal ratio
    is attained more than once within TIE_RTOL, as in `region_of`'s
    float path. The ratios are laid out one outcome per row, so every
    reduction runs over contiguous rows of length `size`. Its temporaries
    grow with `size`; `region_counts` counts a large batch tile by tile
    through it.
    """
    xs = x.coords
    if lams.ndim != 2 or lams.shape[1] != xs.size:
        raise ValueError("batch shape does not match the state dimension")
    n, size = xs.size, lams.shape[0]
    ratios = np.empty((n, size))
    for j in range(n):
        if xs[j] > 0:
            np.divide(lams[:, j], xs[j], out=ratios[j])
        else:
            ratios[j] = np.inf
    bound = ratios.min(axis=0)
    bound *= 1.0 + TIE_RTOL
    tied = ratios <= bound
    outcomes = np.full(size, n - 1, dtype=np.intp)
    for j in range(n - 2, -1, -1):
        outcomes[tied[j]] = j
    return outcomes, np.count_nonzero(tied, axis=0) > 1


def region_counts(lams: np.ndarray, x: BarycentricState) -> tuple[np.ndarray, int]:
    """Outcome counts of a (size, N) batch and its number of boundary ties.

    Runs `classify_batch` on consecutive slices of _TILE_POINTS rows and
    sums each slice's `np.bincount` and boundary count, so its temporaries
    stay one slice long whatever `size` is. Counts are sums over rows, so
    they do not depend on the slice length.
    """
    counts = np.zeros(x.n_outcomes, dtype=np.int64)
    boundary_hits = 0
    # one slice even when the batch is empty, so classify_batch checks its shape
    for start in range(0, max(len(lams), 1), _TILE_POINTS):
        outcomes, on_boundary = classify_batch(lams[start : start + _TILE_POINTS], x)
        counts += np.bincount(outcomes, minlength=x.n_outcomes)
        boundary_hits += int(np.count_nonzero(on_boundary))
    return counts, boundary_hits


def _hull_equations(
    lam: BarycentricState, x: BarycentricState, outcome: int
) -> tuple[np.ndarray, np.ndarray]:
    """Equality system A v = lam of `hull_membership`, v = (mu, nu_j)."""
    n = x.n_outcomes
    if lam.n_outcomes != n:
        raise ValueError("dimension mismatch")
    if not 1 <= outcome <= n:
        raise ValueError(f"outcome must be in 1..{n}")
    a_eq = np.zeros((n, n))
    a_eq[:, 0] = x.coords
    col = 1
    for j in range(n):
        if j != outcome - 1:
            a_eq[j, col] = 1.0
            col += 1
    return a_eq, lam.coords


def hull_membership(lam: BarycentricState, x: BarycentricState, outcome: int) -> bool:
    """Independent linear-feasibility test that `lam` lies in region `outcome`.

    Solves for mu, nu_j >= 0 with lam = mu*x + sum_{j != outcome} nu_j e_j;
    the affine constraint mu + sum nu_j = 1 is implied because the
    weights sum to one on both sides. Does not use the ratio rule.
    """
    from scipy.optimize import linprog

    a_eq, b_eq = _hull_equations(lam, x, outcome)
    res = linprog(
        c=np.zeros(len(b_eq)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0


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
