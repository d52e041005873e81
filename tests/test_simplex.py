import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranesim import simplex
from membranesim.montecarlo import BLOCK_SIZE
from membranesim.simplex import (
    BarycentricState,
    RegionLabel,
    classify_batch,
    from_internal_batch,
    internal_basis,
    region_counts,
    region_of,
    simplex_measure,
    to_internal_coords,
)
from membranesim.simplex import _TILE_POINTS, _breaking_ratios


def random_state(rng, n):
    return BarycentricState(rng.dirichlet(np.ones(n)))


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


class TestBarycentricState:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            BarycentricState([0.5, 0.6, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            BarycentricState([0.5, 0.6])

    def test_rejects_non_finite_weights(self):
        with pytest.raises(ValueError, match="finite"):
            BarycentricState([math.nan, 1.0])

    def test_exact_coordinates_are_kept(self):
        s = BarycentricState([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)])
        assert s.exact_coords == (Fraction(1, 3),) * 3
        assert np.allclose(s.coords, 1 / 3)

    def test_exact_sum_must_be_one(self):
        with pytest.raises(ValueError):
            BarycentricState([Fraction(1, 3), Fraction(1, 3)])

    def test_floats_do_not_get_exact_coords(self):
        assert BarycentricState([0.5, 0.5]).exact_coords is None

    def test_coords_are_read_only(self):
        s = BarycentricState([0.5, 0.5])
        with pytest.raises(ValueError):
            s.coords[0] = 0.9

    def test_rejects_a_two_dimensional_array(self):
        with pytest.raises(ValueError, match="at least two"):
            BarycentricState(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_overflowing_sum_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum to inf"):
                BarycentricState([1e308, 1e308])

    def test_repr_shows_plain_floats_and_fractions(self):
        assert repr(BarycentricState(np.array([0.5, 0.3, 0.2]))) == (
            "BarycentricState([0.5, 0.3, 0.2])"
        )
        assert repr(BarycentricState([Fraction(1, 2), Fraction(1, 2)])) == (
            "BarycentricState([Fraction(1, 2), Fraction(1, 2)])"
        )


class TestRegionOf:
    def test_three_outcome_example(self):
        x = BarycentricState([Fraction(1, 3)] * 3)
        lam = BarycentricState([0.1, 0.5, 0.4])
        label = region_of(lam, x)
        assert label.indices == (1,)
        assert not label.is_boundary
        assert hull_membership(lam, x, 1)

    def test_two_outcome_example(self):
        x = BarycentricState([0.7, 0.3])
        lam = BarycentricState([0.5, 0.5])
        assert region_of(lam, x).outcome == 1
        # 1-D picture: lam sits between the vertex-2 end and the state
        assert lam.coords[0] < x.coords[0]

    def test_state_equal_to_break_point_is_all_boundary(self):
        for n in (2, 3, 5):
            x = random_state(np.random.default_rng(n), n)
            label = region_of(x, x)
            assert label.indices == tuple(range(1, n + 1))
            assert label.is_boundary

    def test_eigenstate_forces_its_own_region(self):
        x = BarycentricState([1, 0, 0])
        rng = np.random.default_rng(4)
        for _ in range(25):
            lam = random_state(rng, 3)
            assert region_of(lam, x).outcome == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            region_of(BarycentricState([0.5, 0.5]), BarycentricState([1, 0, 0]))

    def test_exact_path_detects_exact_ties(self):
        x = BarycentricState([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        lam = BarycentricState([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        assert region_of(lam, x).indices == (1, 2, 3)

    def test_shared_face_uses_infinite_ratio_convention(self):
        # state and break point on the same face: the degenerate region is
        # never selected
        x = BarycentricState([0.6, 0.4, 0.0])
        lam = BarycentricState([0.3, 0.7, 0.0])
        assert region_of(lam, x).outcome == 1

    def test_float_point_on_a_face_has_ratio_zero(self):
        # the minimal ratio is 0, so the tie bound is 0 and the float
        # path must count a ratio equal to its bound
        x = BarycentricState([0.2, 0.3, 0.5])
        lam = BarycentricState([0.0, 0.5, 0.5])
        assert region_of(lam, x) == RegionLabel((1,))


@st.composite
def rational_points(draw, n):
    """A point of the simplex with small-denominator rational coordinates,
    zeros included."""
    den = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=n - 1, max_size=n - 1)))
    return [Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]


@st.composite
def states_and_points(draw):
    """A rational state and rational breaking points: free ones, and ones
    on region boundaries, t*x + (1 - t)*e_k, whose ratios tie at t for
    every index but k."""
    n = draw(st.integers(2, 8))
    x = draw(rational_points(n))
    lams = draw(st.lists(rational_points(n), max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.fractions(0, 1, max_denominator=12))
        k = draw(st.integers(0, n - 1))
        lams.append([t * xj + (1 - t) * (j == k) for j, xj in enumerate(x)])
    return x, draw(st.permutations(lams)) if lams else [x]


def batch_views(lams):
    """The points' coordinates as C-order, Fortran-order and strided views."""
    batch = np.array([lam.coords for lam in lams])
    # NaN rows padded between the points make strided[::2] a non-contiguous view
    strided = np.full((2 * len(lams), batch.shape[1]), np.nan)
    strided[::2] = batch
    return batch, np.asfortranarray(batch), strided[::2]


@given(states_and_points())
@settings(max_examples=400, deadline=None)
def test_classify_batch_agrees_with_exact_region_of(case):
    x_exact, lams_exact = case
    x = BarycentricState(x_exact)
    lams = [BarycentricState(lam) for lam in lams_exact]
    labels = [region_of(lam, x) for lam in lams]
    for view in batch_views(lams):
        outcomes, on_boundary = classify_batch(view, x)
        assert outcomes.dtype == np.intp and on_boundary.dtype == bool
        assert len(outcomes) == len(on_boundary) == len(labels)
        for label, outcome, boundary in zip(labels, outcomes, on_boundary):
            assert outcome == label.outcome - 1
            assert boundary == label.is_boundary


@given(states_and_points())
@settings(max_examples=400, deadline=None)
def test_region_counts_agree_with_exact_region_of(case):
    # region_counts runs classify_batch, so its oracle is the exact path
    # of region_of
    x_exact, lams_exact = case
    x = BarycentricState(x_exact)
    lams = [BarycentricState(lam) for lam in lams_exact]
    labels = [region_of(lam, x) for lam in lams]
    want = np.bincount([label.outcome - 1 for label in labels], minlength=x.n_outcomes)
    want_hits = sum(label.is_boundary for label in labels)
    for view in batch_views(lams):
        # tiles of 1 and 3 rows end mid-batch; the default tile holds it whole
        for tile in (1, 3, _TILE_POINTS):
            with mock.patch.object(simplex, "_TILE_POINTS", tile):
                counts, boundary_hits = region_counts(view, x)
            np.testing.assert_array_equal(counts, want)
            assert boundary_hits == want_hits


def test_classify_batch_resolves_a_rounded_tie_to_the_lowest_index():
    # regions 1 and 2 tie exactly; the float ratio of region 2 rounds lower
    x = BarycentricState([Fraction(5, 21), Fraction(11, 21), Fraction(5, 21), 0])
    lam = BarycentricState([Fraction(5, 56), Fraction(11, 56), Fraction(5, 7), 0])
    assert region_of(lam, x).indices == (1, 2)
    outcomes, on_boundary = classify_batch(lam.coords[None, :], x)
    assert outcomes.tolist() == [0] and on_boundary.tolist() == [True]


def tie_batch(points, size, seed):
    """`size` rows, each one of `points` or a uniform draw, in random order."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(len(points[0])), size=size)
    fixed = rng.random(size) < 0.5
    rows[fixed] = np.asarray(points)[rng.integers(0, len(points), fixed.sum())]
    return rows


# x itself ties every ratio; (0.4, 0.225, 0.375) ties outcomes 2 and 3
TIED_3 = ([0.2, 0.3, 0.5], [[0.2, 0.3, 0.5], [0.4, 0.225, 0.375], [0.5, 0.3, 0.2]])
# a zero weight: outcome 3's ratio is +inf, and x ties the other five
TIED_6 = (
    [0.05, 0.1, 0.0, 0.25, 0.3, 0.3],
    [[0.05, 0.1, 0.0, 0.25, 0.3, 0.3], [0.1, 0.2, 0.0, 0.5, 0.1, 0.1]],
)
# outcomes 1 and 3 tie across outcome 2, whose ratio is larger: 0.5, 2.17, 0.5
TIED_GAP = ([0.2, 0.3, 0.5], [[0.1, 0.65, 0.25]])
# at N = 4 the tied outcome 3 is not the last one: 0.5, 1, 0.5, 4
TIED_GAP_4 = ([0.2, 0.3, 0.4, 0.1], [[0.1, 0.3, 0.2, 0.4]])


class TestRegionCounts:
    @pytest.mark.parametrize(
        "size",
        [0, 1, _TILE_POINTS - 1, _TILE_POINTS, _TILE_POINTS + 1, BLOCK_SIZE + 3],
    )
    @pytest.mark.parametrize(
        "state,points", [TIED_3, TIED_6, TIED_GAP, TIED_GAP_4]
    )
    def test_matches_the_per_point_classification(self, size, state, points):
        x = BarycentricState(state)
        # each fixed point's label is region_of's lowest tied index
        for point in points:
            label = region_of(BarycentricState(point), x)
            outcome, on_boundary = classify_batch(np.asarray([point]), x)
            assert outcome[0] == label.outcome - 1
            assert on_boundary[0] == label.is_boundary
        lams = tie_batch(points, size, seed=size)
        outcomes, on_boundary = classify_batch(lams, x)
        counts, boundary_hits = region_counts(lams, x)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(
            counts, np.bincount(outcomes, minlength=x.n_outcomes)
        )
        assert boundary_hits == int(on_boundary.sum())
        assert counts.sum() == size
        if size > _TILE_POINTS:
            assert boundary_hits > 0

    @pytest.mark.parametrize("size", [0, 5])
    def test_a_batch_of_the_wrong_dimension_is_rejected(self, size):
        with pytest.raises(ValueError, match="batch shape"):
            region_counts(np.zeros((size, 4)), BarycentricState([0.2, 0.3, 0.5]))


# each tie case with a second state: a point of the batch itself, which
# ties every ratio of that point, or one that weighs x's zero coordinate
PAIRED_TIES = {
    "tied-3": (*TIED_3, [0.4, 0.225, 0.375]),
    "tied-6-zero-weight": (*TIED_6, [0.05, 0.1, 0.05, 0.2, 0.3, 0.3]),
    "tied-6-both-zero": (*TIED_6, [0.1, 0.2, 0.0, 0.5, 0.1, 0.1]),
    "tied-gap": (*TIED_GAP, [0.1, 0.65, 0.25]),
    "tied-gap-4": (*TIED_GAP_4, [0.1, 0.3, 0.2, 0.4]),
}


class TestPairedRegionCounts:
    @pytest.mark.parametrize(
        "size",
        [0, 1, _TILE_POINTS - 1, _TILE_POINTS, _TILE_POINTS + 1, BLOCK_SIZE + 3],
    )
    @pytest.mark.parametrize(
        "state,points,other", PAIRED_TIES.values(), ids=PAIRED_TIES
    )
    def test_joint_counts_match_two_classifications(self, size, state, points, other):
        x, paired = BarycentricState(state), BarycentricState(other)
        n = x.n_outcomes
        lams = tie_batch(points, size, seed=size)
        strided = np.full((2 * size, n), np.nan)
        strided[::2] = lams
        for view in (lams, strided[::2]):
            la, ba = classify_batch(view, x)
            lb, bb = classify_batch(view, paired)
            joint, hits = region_counts(view, x, paired)
            assert joint.dtype == hits.dtype == np.int64
            np.testing.assert_array_equal(
                joint, np.bincount(la * n + lb, minlength=n * n).reshape(n, n)
            )
            assert hits.tolist() == [int(ba.sum()), int(bb.sum())]
            # the first state's counts are the single-state call's, exactly
            counts, boundary_hits = region_counts(view, x)
            np.testing.assert_array_equal(joint.sum(axis=1), counts)
            assert hits[0] == boundary_hits
        if size > _TILE_POINTS:
            assert hits[0] > 0 and (joint != np.diag(np.diag(joint))).any()

    @pytest.mark.parametrize("size", [0, 5])
    def test_a_batch_of_the_wrong_dimension_is_rejected(self, size):
        x = BarycentricState([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="batch shape"):
            region_counts(np.zeros((size, 4)), x, x)
        with pytest.raises(ValueError, match="batch shape"):
            region_counts(np.zeros((size, 3)), x, BarycentricState([0.25] * 4))

    @pytest.mark.parametrize("row", [[1.0, 1.0, -1.0], [1.0, 1.0, np.nan]])
    def test_a_row_only_the_paired_state_cannot_rank_raises(self, row):
        # x's zero weight makes the bad coordinate's ratio +inf, so only the
        # paired state, which weighs that coordinate, reads it
        x = BarycentricState([0.5, 0.5, 0.0])
        paired = BarycentricState([0.49, 0.5, 0.01])
        lams = np.tile([0.3, 0.3, 0.4], (_TILE_POINTS + 5, 1))
        lams[_TILE_POINTS + 2] = row
        assert region_counts(lams, x)[0].sum() == len(lams)
        with pytest.raises(FloatingPointError, match="cannot rank"):
            region_counts(lams, x, paired)


@pytest.mark.parametrize("size", [0, BLOCK_SIZE + 3])
def test_region_counts_classifies_every_row_once_per_state(size):
    # a benchmark span times simplex.classify_batch and counts its points,
    # so region_counts must route every row through that name: once per
    # state, one tile per call (an empty batch still takes one empty tile,
    # which checks its shape)
    x, paired = BarycentricState(TIED_3[0]), BarycentricState([0.4, 0.225, 0.375])
    lams = np.random.default_rng(5).dirichlet(np.ones(3), size=size)
    tiles = max(1, math.ceil(size / _TILE_POINTS))
    for states in ((x,), (x, paired)):
        calls = []

        def spy(tile, state):
            calls.append((tile, state))
            return classify_batch(tile, state)

        with mock.patch.object(simplex, "classify_batch", spy):
            region_counts(lams, *states)
        assert len(calls) == tiles * len(states)
        for state in states:
            rows = [tile for tile, s in calls if s is state]
            assert len(rows) == tiles
            assert all(len(tile) <= _TILE_POINTS for tile in rows)
            np.testing.assert_array_equal(np.concatenate(rows), lams)


# rows whose minimal ratio is negative, NaN or +inf: no outcome ties at
# such a bound, so they used to fall to the last outcome
UNRANKABLE_ROWS = {
    "negative-first": [-1e-17, 0.5, 0.5],
    "negative-middle": [0.5, -1e-17, 0.5],
    "nan": [np.nan, 0.5, 0.5],
    "infinite": [np.inf, np.inf, np.inf],
}


@pytest.mark.parametrize("row", UNRANKABLE_ROWS.values(), ids=UNRANKABLE_ROWS)
class TestUnrankableRows:
    x = BarycentricState([0.2, 0.3, 0.5])

    def test_classify_batch_raises(self, row):
        with pytest.raises(FloatingPointError, match="cannot rank"):
            classify_batch(np.array([[0.2, 0.3, 0.5], row]), self.x)

    def test_region_counts_raises_in_any_tile(self, row):
        lams = np.tile([0.2, 0.3, 0.5], (_TILE_POINTS + 5, 1))
        lams[_TILE_POINTS + 2] = row
        with pytest.raises(FloatingPointError, match="cannot rank"):
            region_counts(lams, self.x)


def _classify_by_outcome(lams, x):
    """`classify_batch` as one pass per outcome: a row divide per weight
    and a running mask of the points tied at a lower outcome. The
    reference for the whole-batch version, which must match it exactly."""
    xs = x.coords
    ratios = np.empty((xs.size, lams.shape[0]))
    for j, xj in enumerate(xs):
        if xj > 0:
            np.divide(lams[:, j], xj, out=ratios[j])
        else:
            ratios[j] = np.inf
    bound = ratios.min(axis=0)
    if bound.size and not (bound.min() >= 0 and bound.max() < np.inf):
        raise FloatingPointError("the ratio rule cannot rank a row")
    bound *= 1.0 + simplex.TIE_RTOL
    n, size = ratios.shape
    claimed = ratios[0] <= bound
    n_claimed = np.zeros(size, dtype=np.min_scalar_type(n - 1))
    on_boundary = np.zeros(size, dtype=bool)
    tied = np.empty(size, dtype=bool)
    for j in range(1, n):
        n_claimed += claimed
        np.less_equal(ratios[j], bound, out=tied)
        on_boundary |= tied & claimed
        claimed |= tied
    np.subtract(n - 1, n_claimed, out=n_claimed)
    return n_claimed.astype(np.intp), on_boundary


def boundary_points(x, size, seed):
    """`size` points t*x + (1 - t)*v with v a uniform point on the outcomes
    outside a random set S of at least two positive-weight outcomes: the
    ratios of S tie at t, so every point lies on a region boundary, and
    when S holds every positive weight the point is x itself."""
    rng = np.random.default_rng(seed)
    positive = np.flatnonzero(x.coords > 0)
    rows = np.empty((size, x.n_outcomes))
    for row in rows:
        tied = rng.choice(positive, rng.integers(2, len(positive) + 1), replace=False)
        rest = np.setdiff1d(np.arange(x.n_outcomes), tied)
        v = np.zeros(x.n_outcomes)
        v[rest] = rng.dirichlet(np.ones(len(rest))) if len(rest) else 0.0
        t = rng.random() if len(rest) else 1.0
        row[:] = t * x.coords + (1 - t) * v
    return rows


# each N's state, and states with one and with two zero weights
ORACLE_STATES = {
    **{
        f"n{n}": np.random.default_rng(n).dirichlet(np.ones(n))
        for n in (2, 3, 4, 6, 8, 300)
    },
    "one-zero": [0.05, 0.1, 0.0, 0.25, 0.3, 0.3],
    "two-zeros": [0.0, 0.3, 0.2, 0.0, 0.5],
    "two-zeros-n4": [0.4, 0.0, 0.6, 0.0],
}


@pytest.mark.parametrize("state", ORACLE_STATES.values(), ids=ORACLE_STATES)
class TestClassifyBatchOracle:
    """The whole-batch classification against the per-outcome loop, with
    every floating-point exception raised, so a divide by a zero weight
    fails the test."""

    def check(self, lams, x):
        with np.errstate(all="raise"):
            want = _classify_by_outcome(lams, x)
            got = classify_batch(lams, x)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)
        return got

    def test_uniform_draws(self, state):
        x = BarycentricState(state)
        rng = np.random.default_rng(1)
        lams = rng.dirichlet(np.ones(x.n_outcomes), size=2000)
        self.check(lams, x)
        # unnormalised rays and a strided view classify the same way
        self.check(rng.standard_exponential((2000, x.n_outcomes)), x)
        self.check(lams[::3], x)

    def test_boundary_points(self, state):
        x = BarycentricState(state)
        lams = boundary_points(x, 500, seed=2)
        _, on_boundary = self.check(lams, x)
        assert on_boundary.all()
        # x itself ties every positive weight
        outcomes, on_boundary = self.check(np.tile(x.coords, (3, 1)), x)
        assert outcomes.tolist() == [np.flatnonzero(x.coords)[0]] * 3
        assert on_boundary.all() == (np.count_nonzero(x.coords) > 1)

    @pytest.mark.parametrize("size", [0, 1])
    def test_empty_and_one_row_batches(self, state, size):
        x = BarycentricState(state)
        lams = np.random.default_rng(3).dirichlet(np.ones(x.n_outcomes), size=size)
        outcomes, on_boundary = self.check(lams, x)
        assert len(outcomes) == len(on_boundary) == size

    @pytest.mark.parametrize("row", UNRANKABLE_ROWS.values(), ids=UNRANKABLE_ROWS)
    def test_unrankable_rows_still_raise(self, state, row):
        # the row's entries go to the positive weights, whose ratios count
        x = BarycentricState(state)
        positive = np.flatnonzero(x.coords)
        lams = np.tile(x.coords, (2, 1))
        lams[1, positive] = np.resize(row, len(positive))
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError):
                _classify_by_outcome(lams, x)
            with pytest.raises(FloatingPointError, match="cannot rank"):
                classify_batch(lams, x)


# the breaking points of the pinned boundary stream: x ties three ways,
# (0.4, 0.225, 0.375) ties outcomes 2 and 3
PINNED_TIES = (
    [0.2, 0.3, 0.5],
    [[0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.4, 0.225, 0.375], [0.1, 0.6, 0.3]],
)


class TestPositiveScale:
    @pytest.mark.parametrize("scale", [1e-13, 1e-3, 0.5, 3.0, math.pi, 1e6, 1e13])
    def test_scaled_points_count_the_same_ties_included(self, scale):
        state, points = PINNED_TIES
        x = BarycentricState(state)
        pts = np.asarray(points)
        counts, boundary_hits = region_counts(pts, x)
        assert boundary_hits == 2
        scaled_counts, scaled_hits = region_counts(scale * pts, x)
        np.testing.assert_array_equal(scaled_counts, counts)
        assert scaled_hits == boundary_hits

    @pytest.mark.parametrize(
        "state",
        [
            [0.3, 0.7],
            [0.05, 0.1, 0.0, 0.25, 0.3, 0.3],
            [Fraction(1, 3)] * 3,
        ],
    )
    def test_exponential_rays_classify_as_their_normalised_rows(self, state):
        x = BarycentricState(state)
        rays = np.random.default_rng(8).standard_exponential((BLOCK_SIZE, x.n_outcomes))
        rows = rays * (1.0 / rays.sum(axis=1, keepdims=True))
        for got, want in zip(classify_batch(rays, x), classify_batch(rows, x)):
            np.testing.assert_array_equal(got, want)


class TestRegionLabel:
    def test_needs_at_least_one_index(self):
        with pytest.raises(ValueError):
            RegionLabel(())

    def test_boundary_flag(self):
        assert RegionLabel((1, 3)).is_boundary
        assert RegionLabel((1, 3)).outcome == 1


SIMPLEX_REJECTIONS = {
    "one-outcome basis": (lambda: internal_basis(1), "two outcomes"),
    "repeated boundary index": (
        lambda: RegionLabel((1, 1)), "boundary labels need distinct indices"
    ),
}


@pytest.mark.parametrize("case", sorted(SIMPLEX_REJECTIONS))
def test_bad_inputs_are_rejected(case):
    call, message = SIMPLEX_REJECTIONS[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.slow
def test_region_oracle_agreement_bulk():
    """The ratio rule and the hull-feasibility oracle agree on every
    non-boundary case, 10**4 random pairs per outcome count.

    The pairs' feasibility systems are independent blocks of one linear
    program per outcome count, which is feasible exactly when every block
    is; if it is not, per-pair calls name the failing pair."""
    from scipy.optimize import linprog
    from scipy.sparse import block_diag

    rng = np.random.default_rng(123)
    for n in (2, 3, 4, 5, 6):
        pairs = []
        for _ in range(10_000):
            x = random_state(rng, n)
            lam = random_state(rng, n)
            label = region_of(lam, x)
            if not label.is_boundary:
                pairs.append((lam, x, label.outcome))
        systems = [_hull_equations(*pair) for pair in pairs]
        a_eq = block_diag([a for a, _ in systems], format="csr")
        b_eq = np.concatenate([b for _, b in systems])
        res = linprog(
            c=np.zeros(a_eq.shape[1]),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
        )
        if res.status != 0:
            for lam, x, outcome in pairs:
                assert hull_membership(lam, x, outcome), (lam, x, outcome)


def test_region_oracle_agreement_bidirectional():
    """Oracle also rejects membership in every other region."""
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5, 6):
        for _ in range(60):
            x = random_state(rng, n)
            lam = random_state(rng, n)
            label = region_of(lam, x)
            if label.is_boundary:
                continue
            for j in range(1, n + 1):
                assert hull_membership(lam, x, j) == (j == label.outcome)


def test_region_measures_partition_the_simplex():
    """Independently estimated region measures sum to one within noise."""
    rng = np.random.default_rng(99)
    n_samples = 40_000
    for n in (2, 3, 4):
        x = random_state(np.random.default_rng(n + 10), n)
        total = 0.0
        var = 0.0
        for outcome in range(n):
            lams = rng.dirichlet(np.ones(n), n_samples)
            outcomes, _ = classify_batch(lams, x)
            p = (outcomes == outcome).mean()
            total += p
            var += p * (1 - p) / n_samples
        assert abs(total - 1.0) <= 3.0 * math.sqrt(var) + 1e-9


def test_ratio_rule_is_scale_free():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = rng.integers(2, 7)
        lam = rng.dirichlet(np.ones(n))
        x = rng.dirichlet(np.ones(n))
        ratios = _breaking_ratios(lam[None, :], BarycentricState(x))[0][:, 0]
        scale = float(rng.uniform(0.01, 100.0))
        assert np.argmin(ratios) == np.argmin(scale * ratios)


class TestInternalCoords:
    def test_two_outcome_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.dirichlet(np.ones(2))
            z = to_internal_coords(BarycentricState(y))
            assert z[0] == pytest.approx((y[0] - y[1]) / math.sqrt(2))

    def test_three_outcome_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.dirichlet(np.ones(3))
            z = to_internal_coords(BarycentricState(y))
            assert z[0] == pytest.approx((y[2] - y[1]) / math.sqrt(2))
            assert z[1] == pytest.approx((2 * y[0] - y[1] - y[2]) / math.sqrt(6))

    def test_centers_map_to_origin(self):
        assert to_internal_coords(BarycentricState([0.5, 0.5])) == pytest.approx(0.0)
        assert to_internal_coords(
            BarycentricState([1 / 3, 1 / 3, 1 / 3])
        ) == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_vertex_value(self):
        z = to_internal_coords(BarycentricState([1, 0]))
        assert z[0] == pytest.approx(1 / math.sqrt(2))

    def test_inverse_examples(self):
        s2, s6 = math.sqrt(2), math.sqrt(6)
        zs = np.array([[0.0, 0.0], [0.0, 2 / s6], [1 / s2, -1 / s6]])
        ys = np.array([[1 / 3] * 3, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert from_internal_batch(zs, 3) == pytest.approx(ys, abs=1e-12)
        assert from_internal_batch(np.array([[-1 / s2]]), 2) == pytest.approx(
            np.array([[0.0, 1.0]]), abs=1e-12
        )

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for n in range(2, 8):
            ps = [random_state(rng, n) for _ in range(30)]
            zs = np.array([to_internal_coords(p) for p in ps])
            ys = from_internal_batch(zs, n)
            assert np.abs(ys - [p.coords for p in ps]).max() < 1e-12

    def test_distances_are_preserved(self):
        rng = np.random.default_rng(3)
        for n in range(2, 7):
            pts = [random_state(rng, n) for _ in range(8)]
            zs = [to_internal_coords(p) for p in pts]
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    dy = np.linalg.norm(pts[a].coords - pts[b].coords)
                    dz = np.linalg.norm(zs[a] - zs[b])
                    assert dz == pytest.approx(dy, abs=1e-12)

    def test_bases_are_orthonormal(self):
        for n in range(2, 10):
            basis = internal_basis(n)
            assert np.allclose(basis @ basis.T, np.eye(n), atol=1e-14)
            assert np.allclose(basis[-1], 1 / math.sqrt(n))


class TestSimplexMeasure:
    def test_values(self):
        assert simplex_measure(2) == pytest.approx(math.sqrt(2))
        assert simplex_measure(3) == pytest.approx(math.sqrt(3) / 2)
        assert simplex_measure(4) == pytest.approx(1 / 3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            simplex_measure(1)
