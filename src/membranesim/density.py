"""Probability densities over the simplex and their breaking-point samplers.

Five families are provided. The uniform density is the reference
measure; cellular densities are indicator densities, constant on the
breakable cells of a tessellation and zero on the unbreakable ones (1-D
cells on the two-outcome segment, hyperrectangular grid cells in
general); truncated densities vanish on an experimenter-chosen control
region; Dirac mixtures are finite point masses. Analytic variants
expose exact region integrals, every variant exposes sampling.

On the two-outcome segment every breakable zone, cellular or left by a
control region, is a union of x1 intervals, and one `IntervalDensity`
with Fraction endpoints validates, samples and integrates it exactly.
Only the uniform density truncates, through a control region's direct
sampler; there is no rejection fallback.

Orientation of the two-outcome segment: positions are tracked by the
first barycentric coordinate x1 in [0, 1], growing from vertex 2 (left
end) to vertex 1 (right end), and cell indices grow left to right. A
break at position p < x1 lies in region 1 and collapses the state onto
vertex 1; breaks on one side of the state pull it to the opposite end.
The physical cell length is sqrt(2)/n_cells, x1 being an affine
reparametrisation of arc length.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .simplex import (
    SUM_TOL,
    TIE_RTOL,
    BarycentricState,
    _tile_bounds,
    from_internal_batch,
    internal_basis,
    region_counts,
    region_of,
    simplex_measure,
    to_internal_coords,
)

#: subsample budget per straddling grid cell
GRID_SUBSAMPLES = 256
#: rounds of grid-cell rejection before giving up
MAX_REJECTION_ROUNDS = 10_000
#: most lattice points a grid density maps at once
_CHUNK_POINTS = 2**16
#: most m * ell cells of a cellular approximation; each cell is a Python bool
MAX_APPROXIMATION_CELLS = 1 << 22
#: most resolution ** (N - 1) cells of a grid density, each with a float64
#: origin per axis and a weight
MAX_GRID_CELLS = 1 << 22
#: at most this many weights are drawn with one bucket and no guide table
_FEW_WEIGHTS = 8
#: how far weights may sum from 1, as `Generator.choice` allows
_WEIGHT_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)


class NotAnalyticError(Exception):
    """No closed-form integral exists for this case. Raised by
    `Density.region_probabilities` for a family without one and by
    `ControlRegion.breakable_intervals` above two outcomes, so by a
    truncated uniform density's region integrals there. No caller
    catches it: `robustness_sweep` rejects the analytic path above two
    outcomes with ValueError before it integrates anything."""


class _WeightedIndex:
    """Draws of indices 0..len(p)-1 with probabilities `p` that equal
    `Generator.choice(len(p), size, p=p)` value for value and leave the
    generator in the same state.

    `choice` takes cdf = p.cumsum() / its last entry, draws
    u = rng.random(size) and returns #{k : cdf[k] <= u} by binary search.
    Here the same count comes from a guide table built once (Chen and
    Asau, 1974; Devroye, 1986, section III.2.4): K buckets, K the smallest
    power of two >= len(p) so that u*K is exact, lo[b] = #{cdf <= b/K},
    then one compare-and-add against the cdf entry, if any, strictly
    inside u's bucket. Weights that put two entries strictly inside one
    bucket (zero or crowded tiny weights) keep the cdf and draw with
    `choice`'s own binary search. At most _FEW_WEIGHTS weights skip the
    table and compare u with each entry. `p` is checked here, once, as
    `choice` checks it on every call. The table holds two arrays of K
    entries, K < 2 len(p).
    """

    def __init__(self, p):
        p = np.array(p, dtype=np.float64)
        # NaN fails both tests, an infinite weight the sum
        if not ((p >= 0.0).all() and abs(p.sum() - 1.0) <= _WEIGHT_SUM_TOL):
            raise ValueError("weights must be non-negative and sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        n = len(cdf)
        self._cdf = cdf
        self._buckets = 1 if n <= _FEW_WEIGHTS else 1 << (n - 1).bit_length()
        cuts = np.arange(self._buckets + 1) / self._buckets
        lo = self._lo = cdf.searchsorted(cuts[:-1], side="right")
        # entries lo[b]..hi[b]-1 lie strictly inside bucket b
        hi = cdf.searchsorted(cuts[1:], side="left")
        if self._buckets == 1:
            # few weights: u is compared with every entry inside (0, 1)
            self._edge = cdf[lo[0] : hi[0]]
        elif (hi - lo).max() <= 1:
            # u is compared with the entry inside its bucket, or with 2,
            # which no u reaches
            self._edge = np.where(lo < hi, cdf[np.minimum(lo, n - 1)], 2.0)
        else:
            self._edge = None

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        if self._buckets == 1:
            idx = np.full(size, self._lo[0])
            for entry in self._edge:
                idx += u >= entry
            return idx
        if self._edge is None:
            return self._cdf.searchsorted(u, side="right")
        # u*K is exact and non-negative, so the cast takes its floor
        bucket = np.empty(size, dtype=np.intp)
        np.multiply(u, self._buckets, out=bucket, casting="unsafe")
        idx = self._lo.take(bucket)
        idx += self._edge.take(bucket) <= u
        return idx


@dataclass(frozen=True)
class CellularMask:
    """Breakable/unbreakable assignment for the cells of a tessellation.

    Cell i (1-based) is breakable when breakable[i-1] is True. Entries
    must be `bool` or `numpy.bool_`, so that an integer cannot count as
    several breakable cells; the all-unbreakable assignment is
    rejected, it produces no outcomes. The entries are kept as a tuple
    whatever sequence held them, so equal masks compare and hash equal.
    """

    breakable: tuple[bool, ...]

    def __post_init__(self):
        if len(self.breakable) < 1:
            raise ValueError("a mask needs at least one cell")
        if not set(map(type, self.breakable)) <= {bool, np.bool_}:
            raise ValueError("mask entries must be booleans")
        if not any(self.breakable):
            raise ValueError("a mask needs at least one breakable cell")
        object.__setattr__(self, "breakable", tuple(self.breakable))

    @classmethod
    def from_string(cls, text: str) -> "CellularMask":
        """Parse a left-to-right cell string of 'b' and 'u' characters."""
        if set(text) - {"b", "u"}:
            raise ValueError(f"mask string must use only 'b'/'u': {text!r}")
        return cls(tuple(c == "b" for c in text))

    @classmethod
    def from_bits(cls, bits: int, n_cells: int) -> "CellularMask":
        """Bit i of `bits` is cell i+1; at least one bit must be set."""
        if not 0 < bits < (1 << n_cells):
            raise ValueError("bits must be a nonzero n_cells-bit pattern")
        return cls(tuple(bool((bits >> i) & 1) for i in range(n_cells)))

    @property
    def n_cells(self) -> int:
        return len(self.breakable)

    @property
    def n_breakable(self) -> int:
        return sum(self.breakable)

    def __str__(self) -> str:
        return "".join("b" if b else "u" for b in self.breakable)


class Density(abc.ABC):
    """Probability density over S_{N-1} with respect to the hyperplane's
    Lebesgue measure; total mass one."""

    n_outcomes: int

    @abc.abstractmethod
    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` breaking points, returned as a (size, N) array of
        barycentric coordinates. Deterministic given the generator state."""

    def sample_rays(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` rows, each a positive multiple of a breaking point
        that `sample_batch` would draw from the same generator state.
        Region classification ignores the scale, so `estimate` draws
        through this; by default the rows are the points themselves."""
        return self.sample_batch(rng, size)

    def _ray_tiles(self, rng: np.random.Generator, size: int):
        """The rows of `sample_rays(rng, size)` as consecutive tiles of
        at most `simplex._TILE_POINTS` rows, which `estimate` counts one
        at a time; by default slices of that one draw."""
        rays = self.sample_rays(rng, size)
        return (rays[start:stop] for start, stop in _tile_bounds(size))

    def region_probabilities(self, x: BarycentricState) -> list:
        """Integrals of the density over every collapse region of state
        `x`, outcome 1 first, in one pass; Fractions on the exact code
        paths, floats otherwise."""
        raise NotAnalyticError(
            f"{type(self).__name__} has no analytic region integral"
        )

    def region_probability(self, x: BarycentricState, outcome: int):
        """Integral of the density over collapse region `outcome` of `x`."""
        if not 1 <= outcome <= self.n_outcomes:
            raise ValueError(f"outcome must be in 1..{self.n_outcomes}")
        return self.region_probabilities(x)[outcome - 1]

    def _check_state(self, x: BarycentricState) -> None:
        if x.n_outcomes != self.n_outcomes:
            raise ValueError("state dimension does not match the density")


class UniformDensity(Density):
    """Flat density: every patch of the simplex is equally likely to break.

    Sampling draws a flat Dirichlet vector (normalised unit-rate
    exponentials); because the barycentric-to-internal change of basis
    is orthonormal, this is uniform for the hyperplane's Lebesgue
    measure. `sample_rays` returns the exponentials before that
    normalisation, the same draws, and `estimate` classifies them as
    they are, drawn one tile at a time. The region integrals are the
    barycentric coordinates of the state itself.
    """

    def __init__(self, n_outcomes: int):
        if n_outcomes < 2:
            raise ValueError("need at least two outcomes")
        self.n_outcomes = n_outcomes

    def sample_batch(self, rng, size):
        return rng.dirichlet(np.ones(self.n_outcomes), size=size)

    def sample_rays(self, rng, size):
        # rng.dirichlet with unit alphas draws exactly these, then scales
        # each row by 1/sum
        return rng.standard_exponential((size, self.n_outcomes))

    def _ray_tiles(self, rng, size):
        # the generator fills rows in order, so one draw per tile gives
        # the bytes of one whole draw and no block-sized array is made
        for start, stop in _tile_bounds(size):
            yield self.sample_rays(rng, stop - start)

    def region_probabilities(self, x):
        self._check_state(x)
        if x.exact_coords is not None:
            return list(x.exact_coords)
        return [float(c) for c in x.coords]


class IntervalDensity(Density):
    """Flat density on a finite union of x1 intervals of the two-outcome
    segment.

    `intervals` are (lo, hi) pairs with 0 <= lo < hi <= 1 that may touch
    but not overlap; they are sorted here and kept as Fractions (a float
    endpoint converts exactly). The region integral of outcome 1 is the
    breakable length below x1 over the total length, computed in
    Fractions: an exact state gets a Fraction, a float state the float
    nearest to the same rational, its x1 taken exactly. Sampling picks an
    interval with weight float(hi) - float(lo), the draws that
    `Generator.choice` would make, then a uniform point in it.
    """

    def __init__(self, intervals):
        ivals, last = [], 0
        for lo, hi in sorted((lo, hi) for lo, hi in intervals):
            if not 0 <= lo < hi <= 1:
                raise ValueError(f"bad interval ({lo}, {hi})")
            if lo < last:
                raise ValueError("breakable intervals must be disjoint")
            ivals.append((Fraction(lo), Fraction(hi)))
            last = hi
        if not ivals:
            raise ValueError("need at least one breakable interval")
        self.n_outcomes = 2
        self.intervals = tuple(ivals)
        self.length = sum(hi - lo for lo, hi in ivals)
        self._los = np.array([float(lo) for lo, _ in ivals])
        self._lengths = np.array([float(hi) - float(lo) for lo, hi in ivals])

    @cached_property
    def _pick(self) -> _WeightedIndex:
        """Interval picks by float length, built on the first draw, so
        that the exact region integrals never depend on how the
        endpoints round to floats."""
        return _WeightedIndex(self._lengths / self._lengths.sum())

    def sample_batch(self, rng, size):
        idx = self._pick.draw(rng, size)
        x1 = self._los.take(idx) + rng.random(size) * self._lengths.take(idx)
        return _segment_points(x1)

    def region_probabilities(self, x):
        self._check_state(x)
        exact = x.exact_coords is not None
        x1 = x.exact_coords[0] if exact else Fraction(float(x.coords[0]))
        below = sum(max(0, min(hi, x1) - lo) for lo, hi in self.intervals)
        p1 = below / self.length
        return [p1, 1 - p1] if exact else [float(p1), float(1 - p1)]


class Cellular1DDensity(IntervalDensity):
    """Indicator density on n equal cells of the two-outcome segment.

    The density is 1/(n_breakable * sqrt(2)/n_cells) on breakable cells
    and zero elsewhere; in x1 units each cell is [j/n, (j+1)/n), and
    each maximal run of breakable cells is one interval of the union.
    """

    def __init__(self, mask: CellularMask):
        n = mask.n_cells
        bits = np.array(mask.breakable, dtype=np.int8)
        # runs of breakable cells start where the zero-padded bits rise
        edges = np.flatnonzero(np.diff(bits, prepend=0, append=0)).reshape(-1, 2)
        super().__init__([(Fraction(int(a), n), Fraction(int(b), n)) for a, b in edges])
        self.mask = mask
        self._breakable_idx = np.flatnonzero(bits)

    def sample_batch(self, rng, size):
        # equal cells: an integer cell draw, cheaper than the weighted choice
        n = self.mask.n_cells
        picks = rng.integers(0, len(self._breakable_idx), size)
        cells = self._breakable_idx.take(picks)
        x1 = (cells + rng.random(size)) / n
        return _segment_points(x1)


class DiracMixtureDensity(Density):
    """Finite mixture of point masses at fixed breaking points.

    Weights default to the uniform mixture 1/k (kept as Fractions so the
    region integrals stay exact); each draw returns one of the support
    points verbatim, picked by float weight with the draws that
    `Generator.choice` would make.
    """

    def __init__(self, points, weights=None):
        points = list(points)
        if not points:
            raise ValueError("need at least one support point")
        n = points[0].n_outcomes
        if any(p.n_outcomes != n for p in points):
            raise ValueError("support points must share a dimension")
        self.n_outcomes = n
        self.points = tuple(points)
        if weights is None:
            weights = [Fraction(1, len(points))] * len(points)
        else:
            weights = list(weights)
            if len(weights) != len(points):
                raise ValueError("one weight per support point")
            # a non-finite weight makes the sum non-finite, as does overflow;
            # an int too large for a float raises OverflowError instead
            try:
                total = sum(weights)
                finite = math.isfinite(total)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError("weights and their sum must be finite")
            if any(w < 0 for w in weights) or total == 0:
                raise ValueError("weights must be non-negative, not all zero")
            weights = [w / total for w in weights]
        self.weights = tuple(weights)
        self._points_arr = np.array([p.coords for p in points])
        self._pick = _WeightedIndex([float(w) for w in weights])

    def sample_batch(self, rng, size):
        return np.take(self._points_arr, self._pick.draw(rng, size), axis=0)

    def region_probabilities(self, x):
        self._check_state(x)
        totals = [0] * self.n_outcomes
        for point, w in zip(self.points, self.weights):
            totals[region_of(point, x).outcome - 1] += w
        return totals


class ControlRegion(abc.ABC):
    """Region of the simplex made unbreakable by the experimenter.

    `epsilon` is the fraction of simplex measure left breakable; the
    control region itself has measure (1 - epsilon) * simplex_measure(N).
    Every geometry checks N and epsilon here.
    """

    def __init__(self, n_outcomes: int, epsilon):
        if n_outcomes < 2:
            raise ValueError("need at least two outcomes")
        if not 0.0 < epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        self.n_outcomes = n_outcomes
        self.epsilon = float(epsilon)

    @abc.abstractmethod
    def sample_breakable_batch(self, rng, size) -> np.ndarray:
        """Draw `size` points uniformly from the breakable zone, as rows
        of barycentric coordinates."""

    @abc.abstractmethod
    def breakable_intervals(self) -> list[tuple]:
        """Breakable zone as disjoint x1 intervals (two outcomes only)."""


class CentroidNeighborhood(ControlRegion):
    """Control region leaving breakable a simplex-shaped neighbourhood of
    the centroid.

    The breakable zone is c + t*(S - c) with t = epsilon**(1/(N-1)), the
    centroid-scaled copy of the simplex with measure fraction epsilon;
    equivalently {y : min_j y_j >= (1 - t)/N}. The zone is convex, so a
    covering epsilon for a set of states covers their convex hull too.
    """

    def __init__(self, n_outcomes: int, epsilon: float):
        super().__init__(n_outcomes, epsilon)
        self._t = self.epsilon ** (1.0 / (n_outcomes - 1))

    def sample_breakable_batch(self, rng, size):
        n = self.n_outcomes
        p = rng.dirichlet(np.ones(n), size=size)
        centroid = 1.0 / n
        p -= centroid
        p *= self._t
        p += centroid
        return p

    def breakable_intervals(self):
        if self.n_outcomes != 2:
            raise NotAnalyticError("interval description needs two outcomes")
        return [((1.0 - self._t) / 2.0, (1.0 + self._t) / 2.0)]

    @staticmethod
    def min_epsilon_covering(states) -> float:
        """Smallest epsilon whose breakable zone contains the given
        states, which share a dimension."""
        n = states[0].n_outcomes
        worst = max(1.0 - n * float(min(s.coords)) for s in states)
        return float(np.clip(worst, 0.0, 1.0)) ** (n - 1)


class BallComplement(ControlRegion):
    """Control region leaving breakable a union of equal-measure balls.

    Each of the k balls is centred at one of the given points and has
    measure fraction epsilon/k of the simplex. Construction fails when a
    ball leaves the simplex (by more than TIE_RTOL of its radius, so a
    ball touching a face is accepted) or two balls overlap, so shrinking
    epsilon afterwards always stays valid. Distances are Euclidean between
    barycentric coordinate vectors, which equal internal-chart distances.
    """

    def __init__(self, centers, epsilon: float):
        centers = list(centers)
        if not centers:
            raise ValueError("need at least one ball centre")
        n = centers[0].n_outcomes
        if any(c.n_outcomes != n for c in centers):
            raise ValueError("ball centres must share a dimension")
        super().__init__(n, epsilon)
        self.centers = tuple(centers)
        d = n - 1
        ball_volume = self.epsilon / len(centers) * simplex_measure(n)
        unit_volume = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        self.radius = (ball_volume / unit_volume) ** (1.0 / d)
        coords = np.array([c.coords for c in centers])
        self._centers_z = np.array([to_internal_coords(c) for c in centers])
        face_scale = math.sqrt(1.0 - 1.0 / n)
        for c in centers:
            if float(min(c.coords)) / face_scale < self.radius * (1.0 - TIE_RTOL):
                raise ValueError(
                    f"ball of radius {self.radius:.4g} around {c!r} leaves the simplex"
                )
        for a in range(len(centers)):
            for b in range(a + 1, len(centers)):
                gap = np.linalg.norm(coords[a] - coords[b])
                if gap <= 2.0 * self.radius:
                    raise ValueError("breakable balls overlap at this epsilon")

    def sample_breakable_batch(self, rng, size):
        d = self.n_outcomes - 1
        idx = rng.integers(0, len(self.centers), size)
        direction = rng.normal(size=(size, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = self.radius * rng.random(size) ** (1.0 / d)
        direction *= radii[:, None]
        direction += np.take(self._centers_z, idx, axis=0)
        ys = from_internal_batch(direction, self.n_outcomes)
        return np.clip(ys, 0.0, None, out=ys)

    def breakable_intervals(self):
        if self.n_outcomes != 2:
            raise NotAnalyticError("interval description needs two outcomes")
        # x1 distance = euclidean distance / sqrt(2) on the segment; a
        # ball touching an end may overshoot it by rounding
        half = self.radius / math.sqrt(2.0)
        x1s = sorted(float(c.coords[0]) for c in self.centers)
        return [(max(0.0, x1 - half), min(1.0, x1 + half)) for x1 in x1s]


class IntervalControl(ControlRegion):
    """Two-outcome control region specified by its breakable x1 intervals.

    Covers half-space cuts (a single interval touching an end) and any
    finite union of disjoint segments, held as an `IntervalDensity`;
    epsilon is the exact total breakable length rounded once, since x1
    is an affine chart of arc length.
    """

    def __init__(self, breakable):
        self._zone = IntervalDensity(breakable)
        super().__init__(2, self._zone.length)

    def sample_breakable_batch(self, rng, size):
        return self._zone.sample_batch(rng, size)

    def breakable_intervals(self):
        return list(self._zone.intervals)


class TruncatedUniformDensity(Density):
    """Uniform density forced to zero on a control region.

    The value is (N-1)!/(epsilon * sqrt(N)) on the breakable zone and
    zero on the control region; samples come from the region's direct
    sampler. Region integrals are exact for two outcomes, through the
    geometry's interval description; elsewhere Monte Carlo is the route.
    """

    def __init__(self, control: ControlRegion):
        self.control = control
        self.n_outcomes = control.n_outcomes

    def sample_batch(self, rng, size):
        return self.control.sample_breakable_batch(rng, size)

    def region_probabilities(self, x):
        self._check_state(x)
        zone = IntervalDensity(self.control.breakable_intervals())
        return zone.region_probabilities(x)


def truncate(control: ControlRegion) -> Density:
    """The uniform density zeroed on the control region and renormalised.

    With epsilon = 1 the control region is empty, and the result is the
    `UniformDensity` of the same N, so it draws the uniform stream; any
    smaller epsilon gives a `TruncatedUniformDensity`.
    """
    if control.epsilon >= 1.0:
        return UniformDensity(control.n_outcomes)
    return TruncatedUniformDensity(control)


class CellularGridDensity(Density):
    """Indicator density on an axis-aligned grid over the simplex's
    enclosing box in internal coordinates.

    Cell weights are the Lebesgue measure of the cell-simplex overlap:
    exact for cells entirely inside or outside the simplex (the
    barycentric coordinate functions are affine in the chart, so box
    corners decide), estimated with a fixed stratified lattice of
    GRID_SUBSAMPLES points for straddling cells. Cells outside the
    simplex carry weight zero whatever the mask says. Region integrals
    are lattice count ratios: the lattice points of breakable cells
    inside the simplex that classify to the outcome, over all such
    points. They are approximations meant for discretisation demos, not
    for exactness claims.

    Sampling picks a live cell by weight, with the draws that
    `Generator.choice` would make, and a uniform point in its box,
    drawing again for the points that fall outside the simplex, for at
    most MAX_REJECTION_ROUNDS rounds in all.
    """

    def __init__(self, n_outcomes: int, resolution: int, mask=None):
        if n_outcomes < 2:
            raise ValueError("need at least two outcomes")
        if resolution < 1:
            raise ValueError("resolution must be positive")
        if resolution ** (n_outcomes - 1) > MAX_GRID_CELLS:
            raise ValueError(
                f"resolution {resolution} gives {resolution ** (n_outcomes - 1)} "
                f"grid cells, above the bound of {MAX_GRID_CELLS}"
            )
        self.n_outcomes = n_outcomes
        self.resolution = resolution
        d = n_outcomes - 1
        vertices_z = internal_basis(n_outcomes)[:-1, :].T  # vertex j = row j
        lo = vertices_z.min(axis=0)
        self._widths = (vertices_z.max(axis=0) - lo) / resolution
        n_cells = resolution**d
        if mask is None:
            breakable = np.ones(n_cells, dtype=bool)
        else:
            breakable = np.array(mask)
            if breakable.dtype != bool:
                flags = breakable.dtype.kind in "iu" and np.isin(breakable, (0, 1))
                if not np.all(flags):
                    raise ValueError("mask entries must be true, false, 0 or 1")
                breakable = breakable.astype(bool)
            if breakable.shape != (n_cells,):
                raise ValueError(f"mask must cover {n_cells} grid cells")
            if not breakable.any():
                raise ValueError("a mask needs at least one breakable cell")
        self.mask = breakable
        # cell c sits at (c % r, c // r % r, ...) along the axes; one row of
        # origins per axis
        index = np.unravel_index(np.arange(n_cells), (resolution,) * d, order="F")
        self._origins = lo[:, None] + np.stack(index) * self._widths[:, None]
        side = max(2, math.ceil(GRID_SUBSAMPLES ** (1.0 / d)))
        self._lattice = _unit_lattice((np.arange(side) + 0.5) / side, d)
        corners = _unit_lattice([0, 1], d)
        overlap = np.zeros(n_cells)
        straddling = []
        for cells, ys in self._cell_chunks(corners, np.arange(n_cells)):
            inside = ys.min(axis=(1, 2)) >= 0.0
            outside = (ys.max(axis=1) < 0.0).any(axis=1)
            overlap[cells[inside]] = 1.0
            straddling.append(cells[~inside & ~outside])
        for cells, ys in self._cell_chunks(self._lattice, np.concatenate(straddling)):
            overlap[cells] = (ys.min(axis=2) >= 0.0).mean(axis=1)
        self._weights = overlap * float(np.prod(self._widths))
        total = float(self._weights[breakable].sum())
        if total <= 0.0:
            raise ValueError("no breakable cell intersects the simplex")
        self._cells = np.flatnonzero(breakable & (self._weights > 0.0))
        self._pick = _WeightedIndex(self._weights[self._cells] / total)

    def _cell_points(self, rel: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Barycentric coordinates, shape (len(cells), len(rel), N), of
        the points at unit-box offsets `rel` within each of `cells`."""
        z = self._origins[:, cells].T[:, None, :] + rel * self._widths
        return from_internal_batch(z, self.n_outcomes)

    def _cell_chunks(self, rel, cells):
        """`_cell_points` over `cells` in chunks of at most _CHUNK_POINTS
        points (at least one cell each), as (cells, points) pairs."""
        step = max(1, _CHUNK_POINTS // len(rel))
        for start in range(0, len(cells), step):
            part = cells[start : start + step]
            yield part, self._cell_points(rel, part)

    def sample_batch(self, rng, size):
        chosen = self._cells.take(self._pick.draw(rng, size))
        out = self._box_points(rng, chosen)
        pending = np.flatnonzero(~_on_simplex(out))
        rounds = 1
        while len(pending):
            if rounds == MAX_REJECTION_ROUNDS:
                raise RuntimeError("grid cell rejection sampling failed")
            rounds += 1
            ys = self._box_points(rng, chosen.take(pending))
            ok = _on_simplex(ys)
            out[pending[ok]] = ys[ok]
            pending = pending[~ok]
        return out

    def _box_points(self, rng, cells: np.ndarray) -> np.ndarray:
        """One uniform point in the box of each of `cells`, as barycentric
        rows, with no simplex check."""
        z = rng.random((len(cells), self.n_outcomes - 1))
        z *= self._widths
        for axis, origins in enumerate(self._origins):
            z[:, axis] += origins.take(cells)
        return from_internal_batch(z, self.n_outcomes)

    def region_probabilities(self, x):
        self._check_state(x)
        hits = np.zeros(self.n_outcomes, dtype=np.int64)
        for _, ys in self._cell_chunks(self._lattice, self._cells):
            hits += region_counts(ys[ys.min(axis=2) >= 0.0], x)[0]
        inside = int(hits.sum())
        return [int(h) / inside for h in hits]


def _segment_points(x1: np.ndarray) -> np.ndarray:
    """Rows (x1, 1 - x1) of the two-outcome segment, written into one new
    array: `np.column_stack` would add a temporary for 1 - x1 and copy
    both columns, and the freed temporaries fault their pages in again
    on the next block."""
    out = np.empty((len(x1), 2))
    out[:, 0] = x1
    np.subtract(1.0, x1, out=out[:, 1])
    return out


def _on_simplex(ys: np.ndarray) -> np.ndarray:
    """Mask of the rows with no negative coordinate, one column at a time:
    a min over each short row costs about ten times as much."""
    ok = ys[:, 0] >= 0.0
    for column in ys.T[1:]:
        ok &= column >= 0.0
    return ok


def _unit_lattice(axis, d: int) -> np.ndarray:
    """Every point of the d-fold product of the 1-D `axis` values, as
    rows, with the last axis varying fastest."""
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def cellular_approximation(target_cdf, m: int, ell: int) -> Cellular1DDensity:
    """Cellular density on m*ell cells approximating a target on the segment.

    `target_cdf` maps the first barycentric coordinate in [0, 1] to
    cumulative probability, with cdf(0) = 0 and cdf(1) = 1. Each of the
    m blocks holds ell elementary cells; block i receives
    round(ell * p_i / p_max) breakable cells, filled leftmost-first, so
    after global renormalisation the breakable fraction of each block is
    a denominator-(m*ell) rational approximation of the block mass p_i.
    The block-sum error shrinks like 1/ell and the within-block rest
    like 1/m.
    """
    if m < 1 or ell < 1:
        raise ValueError("m and ell must be positive")
    if m * ell > MAX_APPROXIMATION_CELLS:
        raise ValueError(
            f"m * ell = {m * ell} cells exceeds the bound of "
            f"{MAX_APPROXIMATION_CELLS} cells"
        )
    masses = []
    prev = 0.0
    for i in range(1, m + 1):
        cur = float(target_cdf(i / m))
        masses.append(max(0.0, cur - prev))
        prev = cur
    if abs(sum(masses) - 1.0) > 1e-9:
        raise ValueError("target_cdf must increase from 0 to 1 on [0, 1]")
    # the masses sum to 1 within 1e-9, so the largest is positive
    p_max = max(masses)
    bits: list[bool] = []
    for p in masses:
        count = round(ell * p / p_max)
        bits.extend([True] * count + [False] * (ell - count))
    return Cellular1DDensity(CellularMask(tuple(bits)))


#: per spec type, the keys it reads besides "type": (kind, expected, optional),
#: where kind is a type, a tuple of types, or [kind] for a list of such values
_DENSITY_KEYS = {
    "uniform": {},
    "cellular1d": {"mask": (str, "a string of 'b'/'u' cells", False)},
    "dirac": {
        "points": ([[numbers.Real]], "a list of points", False),
        "weights": ([numbers.Real], "a list of numbers", True),
    },
    "grid": {
        "resolution": (numbers.Integral, "an integer", False),
        "mask": ([(bool, numbers.Integral)], "a list of flags", True),
    },
    "truncated-uniform": {
        "epsilon": (numbers.Real, "a number", False),
        "control": (dict, "a control region spec", False),
    },
}
_CONTROL_KEYS = {
    "centroid": {},
    "balls": {"centers": ([[numbers.Real]], "a list of points", False)},
    "intervals": {"breakable": ([[numbers.Real]], "[lo, hi] pairs", False)},
}


def density_from_spec(spec, n_outcomes: int | None = None) -> Density:
    """Build a density from the tagged dictionary used by config files.

    Supported variants:

    - {"type": "uniform"}
    - {"type": "cellular1d", "mask": "bub..."}
    - {"type": "dirac", "points": [[...], ...], "weights": [...]?}
    - {"type": "grid", "resolution": r, "mask": [...]?}
    - {"type": "truncated-uniform", "epsilon": e, "control": {...}}

    Control regions: {"type": "centroid"}, {"type": "balls",
    "centers": [[...], ...]}, {"type": "intervals",
    "breakable": [[lo, hi], ...]}. A string "<type>" stands for
    {"type": "<type>"} and "<type>:<mask>" for {"type": "<type>",
    "mask": "<mask>"}, so "uniform" and "cellular1d:bub" are specs too.
    A key the type does not read or a missing required key is an error.
    """
    if isinstance(spec, str):
        kind, colon, mask = spec.partition(":")
        spec = {"type": kind, "mask": mask} if colon else {"type": kind}
    kind, values = _read_spec(spec, "density", _DENSITY_KEYS)
    if n_outcomes is None and kind in ("uniform", "grid", "truncated-uniform"):
        raise ValueError(f"{kind} density needs the number of outcomes")
    if kind == "uniform":
        return UniformDensity(n_outcomes)
    if kind == "cellular1d":
        return Cellular1DDensity(CellularMask.from_string(values["mask"]))
    if kind == "dirac":
        points = [BarycentricState(p) for p in values["points"]]
        return DiracMixtureDensity(points, values["weights"])
    if kind == "grid":
        return CellularGridDensity(n_outcomes, values["resolution"], values["mask"])
    epsilon = float(values["epsilon"])
    return truncate(control_from_spec(values["control"], n_outcomes, epsilon))


def control_from_spec(spec, n_outcomes: int, epsilon: float) -> ControlRegion:
    """Build a control region for an `n_outcomes` density from its tagged
    dictionary. An interval region must have total breakable length
    `epsilon` within SUM_TOL. A ball or interval region takes its N from
    its own points, and that N must be `n_outcomes`."""
    kind, values = _read_spec(spec, "control region", _CONTROL_KEYS)
    if kind == "centroid":
        return CentroidNeighborhood(n_outcomes, epsilon)
    if kind == "balls":
        control = BallComplement([BarycentricState(c) for c in values["centers"]], epsilon)
    else:
        control = IntervalControl(values["breakable"])
        if abs(control.epsilon - epsilon) > SUM_TOL:
            raise ValueError(
                f"epsilon {epsilon!r} disagrees with the breakable length "
                f"{control.epsilon!r} of the intervals"
            )
    if control.n_outcomes != n_outcomes:
        raise ValueError("control region dimension does not match density")
    return control


def _read_spec(spec, what: str, types: dict) -> tuple[str, dict]:
    """The type of a tagged `spec` and the values of the keys `types` says
    it reads. A key the type does not read, a missing key and a value of
    the wrong kind are errors, where JSON true/false matches only bool; an
    optional key may be absent or null and then gives None."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    if not isinstance(kind, str):
        raise ValueError(f"{what} spec must be a dict with a 'type' tag")
    if kind not in types:
        raise ValueError(f"unknown {what} type {kind!r}")
    keys = types[kind]
    for key in spec:
        if key != "type" and key not in keys:
            raise ValueError(f"{what} spec key {key!r} is not read by type {kind!r}")
    values = {}
    for key, (value_kind, expected, optional) in keys.items():
        if key not in spec and not optional:
            raise ValueError(f"{what} spec key {key!r} is missing")
        value = values[key] = spec.get(key)
        if not ((optional and value is None) or _matches(value, value_kind)):
            raise ValueError(
                f"{what} spec key {key!r} must be {expected}, got {value!r}"
            )
    return kind, values


def _matches(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, (list, tuple)) and all(
            _matches(v, kind[0]) for v in value
        )
    if isinstance(value, bool):
        return bool in (kind if isinstance(kind, tuple) else (kind,))
    return isinstance(value, kind)
