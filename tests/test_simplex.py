import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranesim.montecarlo import BLOCK_SIZE
from membranesim.simplex import (
    BarycentricState,
    RegionLabel,
    classify_batch,
    from_internal_batch,
    hull_membership,
    internal_basis,
    region_counts,
    region_of,
    simplex_measure,
    to_internal_coords,
)
from membranesim.simplex import _TILE_POINTS, _breaking_ratios, _hull_equations


def random_state(rng, n):
    return BarycentricState(rng.dirichlet(np.ones(n)))


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


@given(states_and_points())
@settings(max_examples=400, deadline=None)
def test_classify_batch_agrees_with_exact_region_of(case):
    x_exact, lams_exact = case
    x = BarycentricState(x_exact)
    lams = [BarycentricState(lam) for lam in lams_exact]
    batch = np.array([lam.coords for lam in lams])
    # NaN rows padded between the points make strided[::2] a non-contiguous view
    strided = np.full((2 * len(lams), x.n_outcomes), np.nan)
    strided[::2] = batch
    labels = [region_of(lam, x) for lam in lams]
    for view in (batch, np.asfortranarray(batch), strided[::2]):
        outcomes, on_boundary = classify_batch(view, x)
        assert outcomes.dtype == np.intp and on_boundary.dtype == bool
        assert len(outcomes) == len(on_boundary) == len(labels)
        for label, outcome, boundary in zip(labels, outcomes, on_boundary):
            assert outcome == label.outcome - 1
            assert boundary == label.is_boundary


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


class TestRegionCounts:
    @pytest.mark.parametrize(
        "size",
        [0, 1, _TILE_POINTS - 1, _TILE_POINTS, _TILE_POINTS + 1, BLOCK_SIZE + 3],
    )
    @pytest.mark.parametrize("state,points", [TIED_3, TIED_6])
    def test_matches_the_per_point_classification(self, size, state, points):
        x = BarycentricState(state)
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


class TestRegionLabel:
    def test_needs_at_least_one_index(self):
        with pytest.raises(ValueError):
            RegionLabel(())

    def test_boundary_flag(self):
        assert RegionLabel((1, 3)).is_boundary
        assert RegionLabel((1, 3)).outcome == 1


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
        ratios = _breaking_ratios(lam, x)
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
