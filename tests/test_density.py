import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from membranesim import density as density_module
from membranesim import simplex
from membranesim.density import (
    GRID_SUBSAMPLES,
    BallComplement,
    Cellular1DDensity,
    CellularGridDensity,
    CellularMask,
    CentroidNeighborhood,
    DiracMixtureDensity,
    IntervalControl,
    IntervalDensity,
    NotAnalyticError,
    TruncatedUniformDensity,
    UniformDensity,
    cellular_approximation,
    density_from_spec,
    truncate,
)
from membranesim.montecarlo import BLOCK_SIZE, _RandomMaskDensity, estimate
from membranesim.simplex import (
    SUM_TOL,
    BarycentricState,
    classify_batch,
    from_internal_batch,
    internal_basis,
    region_counts,
    region_of,
    to_internal_coords,
)


def random_state(rng, n):
    return BarycentricState(rng.dirichlet(np.ones(n)))


class TestCellularMask:
    def test_needs_a_breakable_cell(self):
        with pytest.raises(ValueError):
            CellularMask((False, False))

    def test_string_round_trip(self):
        mask = CellularMask.from_string("bub")
        assert str(mask) == "bub"
        assert mask.n_cells == 3
        assert mask.n_breakable == 2
        assert CellularMask.from_bits(0b101, 3) == mask

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            CellularMask.from_string("bxu")

    @pytest.mark.parametrize(
        "entries", [(1, 2, 0), ("u", "u"), (1, 0), (True, np.int64(1))]
    )
    def test_entries_must_be_booleans(self, entries):
        # (1, 2, 0) would count 3 breakable cells yet print as "bbu"
        with pytest.raises(ValueError, match="booleans"):
            CellularMask(entries)

    def test_numpy_booleans_are_booleans(self):
        assert str(CellularMask((np.True_, np.False_))) == "bu"
        with pytest.raises(ValueError):
            CellularMask.from_bits(0, 3)

    def test_a_list_mask_is_the_tuple_mask(self):
        listed = CellularMask([True, False, True])
        tupled = CellularMask((True, False, True))
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert listed.breakable == (True, False, True)

    def test_a_list_mask_gives_the_tuple_masks_probabilities(self):
        listed = Cellular1DDensity(CellularMask([True, False, True, True]))
        tupled = Cellular1DDensity(CellularMask((True, False, True, True)))
        for x in ([Fraction(5, 8), Fraction(3, 8)], [0.625, 0.375]):
            x = BarycentricState(x)
            assert listed.region_probabilities(x) == tupled.region_probabilities(x)


class TestUniformDensity:
    def test_region_probability_is_the_coordinate(self):
        rng = np.random.default_rng(1)
        for n in range(2, 7):
            rho = UniformDensity(n)
            for _ in range(100):
                x = random_state(rng, n)
                for i in range(1, n + 1):
                    assert rho.region_probability(x, i) == x.coords[i - 1]

    def test_exact_states_give_exact_values(self):
        rho = UniformDensity(3)
        x = BarycentricState([Fraction(1, 3)] * 3)
        assert rho.region_probability(x, 2) == Fraction(1, 3)

    def test_center_of_three_outcomes(self):
        rho = UniformDensity(3)
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        assert rho.region_probabilities(x) == pytest.approx([1 / 3] * 3)

    def test_sampler_is_uniform_on_the_segment(self):
        draws = UniformDensity(2).sample_batch(np.random.default_rng(42), 100_000)
        ks = stats.kstest(draws[:, 0], "uniform")
        assert ks.statistic < 1.6276 / math.sqrt(len(draws))

    def test_sampler_stays_on_simplex(self):
        draws = UniformDensity(5).sample_batch(np.random.default_rng(0), 1000)
        assert draws.min() >= 0
        assert np.abs(draws.sum(axis=1) - 1.0).max() < 1e-12


class TestCellular1D:
    def test_two_cell_left_breakable_at_midpoint(self):
        # left cell breaking sends the state to the right vertex
        rho = Cellular1DDensity(CellularMask.from_string("bu"))
        x = BarycentricState([Fraction(1, 2), Fraction(1, 2)])
        assert rho.region_probability(x, 1) == 1
        assert rho.region_probability(x, 2) == 0

    def test_support_restriction(self):
        rho = Cellular1DDensity(CellularMask.from_string("bu"))
        draws = rho.sample_batch(np.random.default_rng(0), 5000)
        assert draws[:, 0].max() < 0.5

    def test_exact_mass_conservation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n_cells = int(rng.integers(1, 12))
            bits = int(rng.integers(1, 2**n_cells))
            rho = Cellular1DDensity(CellularMask.from_bits(bits, n_cells))
            num = int(rng.integers(0, 1000))
            x = BarycentricState([Fraction(num, 1000), Fraction(1000 - num, 1000)])
            total = rho.region_probability(x, 1) + rho.region_probability(x, 2)
            assert total == 1

    def test_matches_direct_integration(self):
        rho = Cellular1DDensity(CellularMask.from_string("bubb"))
        x = BarycentricState([Fraction(5, 8), Fraction(3, 8)])
        # breakable length in [0, 5/8]: 1/4 (first cell) + 1/8 (third cell)
        assert rho.region_probability(x, 1) == Fraction(3, 8) / Fraction(3, 4)


class TestDiracMixture:
    def test_point_mass_sampling(self):
        lam = BarycentricState([0.25, 0.35, 0.4])
        rho = DiracMixtureDensity([lam])
        draws = rho.sample_batch(np.random.default_rng(0), 64)
        assert np.array_equal(draws, np.tile(lam.coords, (64, 1)))

    def test_deterministic_region_probability(self):
        lam = BarycentricState([0.6, 0.1, 0.3])
        x = BarycentricState([Fraction(1, 3)] * 3)
        rho = DiracMixtureDensity([lam])
        assert rho.region_probabilities(x) == [0, 1, 0]

    def test_mixture_weights(self):
        pts = [BarycentricState([0.5, 0.3, 0.2]), BarycentricState([0.2, 0.5, 0.3])]
        rho = DiracMixtureDensity(pts)
        x = BarycentricState([Fraction(1, 3)] * 3)
        probs = rho.region_probabilities(x)
        assert probs == [Fraction(1, 2), 0, Fraction(1, 2)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_are_rejected(self, bad):
        pts = [BarycentricState([0.5, 0.5]), BarycentricState([1, 0])]
        with pytest.raises(ValueError, match="finite"):
            DiracMixtureDensity(pts, weights=[bad, 1])

    def test_overflowing_weight_sum_is_rejected(self):
        # each weight is finite, their float sum is not
        pts = [BarycentricState([0.5, 0.5]), BarycentricState([1, 0])]
        with pytest.raises(ValueError, match="sum must be finite"):
            DiracMixtureDensity(pts, weights=[1e308, 1e308])


SAMPLER_CASES = [
    lambda: (UniformDensity(3), 3),
    lambda: (Cellular1DDensity(CellularMask.from_string("bubb")), 2),
    lambda: (TruncatedUniformDensity(IntervalControl([(1.0 - 0.5, 1.0)])), 2),
    lambda: (TruncatedUniformDensity(CentroidNeighborhood(2, 0.4)), 2),
    lambda: (
        DiracMixtureDensity(
            [BarycentricState([0.5, 0.3, 0.2]), BarycentricState([0.2, 0.5, 0.3])]
        ),
        3,
    ),
]


@pytest.mark.parametrize("case", range(len(SAMPLER_CASES)))
def test_sampler_matches_analytic_integrals(case):
    rho, n = SAMPLER_CASES[case]()
    n_samples = 200_000
    for trial in range(3):
        x = random_state(np.random.default_rng(17 * case + trial), n)
        est = estimate(x, rho, n_samples, seed=1000 * case + trial)
        for i in range(1, n + 1):
            p = float(rho.region_probability(x, i))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n_samples)
            assert abs(est.probabilities[i - 1] - p) <= 4 * se + 1e-9


@pytest.mark.slow
@pytest.mark.parametrize("case", range(len(SAMPLER_CASES)))
def test_sampler_matches_analytic_integrals_bulk(case):
    """Full-size invariant: 20 random states, a million samples each."""
    rho, n = SAMPLER_CASES[case]()
    n_samples = 1_000_000
    for trial in range(20):
        x = random_state(np.random.default_rng(17 * case + trial), n)
        est = estimate(x, rho, n_samples, seed=5000 * case + trial, threads=4)
        for i in range(1, n + 1):
            p = float(rho.region_probability(x, i))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n_samples)
            assert abs(est.probabilities[i - 1] - p) <= 4 * se + 1e-9


class TestTruncation:
    def test_epsilon_one_is_identity(self):
        rho = truncate(CentroidNeighborhood(3, 1.0))
        assert type(rho) is UniformDensity and rho.n_outcomes == 3

    # an empty control region keeps the uniform stream, end to end
    @pytest.mark.parametrize(
        "n, control",
        [
            (2, {"type": "centroid"}),
            (3, {"type": "centroid"}),
            (2, {"type": "intervals", "breakable": [[0, 1]]}),
            (2, {"type": "balls", "centers": [[0.5, 0.5]]}),
        ],
        ids=["centroid-2", "centroid-3", "intervals", "balls"],
    )
    def test_epsilon_one_draws_the_uniform_stream(self, n, control):
        spec = {"type": "truncated-uniform", "epsilon": 1, "control": control}
        x = BarycentricState([0.2, 0.3, 0.5] if n == 3 else [0.4, 0.6])
        got = estimate(x, density_from_spec(spec, n), 100_003, seed=7)
        want = estimate(x, UniformDensity(n), 100_003, seed=7)
        assert got.counts.tolist() == want.counts.tolist()
        assert got.boundary_hits == want.boundary_hits

    def test_left_cut_matches_piecewise_integration(self):
        eps = 0.5
        rho = truncate(IntervalControl([(1.0 - eps, 1.0)]))
        for x1 in (0.55, 0.75, 0.9, 1.0):
            x = BarycentricState([x1, 1.0 - x1])
            expected = max(0.0, x1 - (1.0 - eps)) / eps
            assert rho.region_probability(x, 1) == pytest.approx(expected)

    def test_interval_mass_conservation(self):
        rho = TruncatedUniformDensity(
            IntervalControl([(0.1, 0.3), (0.6, 0.9)])
        )
        x = BarycentricState([0.65, 0.35])
        total = rho.region_probability(x, 1) + rho.region_probability(x, 2)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_no_analytic_path_beyond_two_outcomes(self):
        rho = TruncatedUniformDensity(CentroidNeighborhood(3, 0.5))
        with pytest.raises(NotAnalyticError):
            rho.region_probability(BarycentricState([1 / 3, 1 / 3, 1 / 3]), 1)

    def test_shrinking_ball_concentrates_samples(self):
        lam = BarycentricState([0.45, 0.3, 0.25])
        spreads = []
        for eps in (0.3, 0.05, 0.005):
            rho = truncate(BallComplement([lam], eps))
            draws = rho.sample_batch(np.random.default_rng(3), 2000)
            spreads.append(np.linalg.norm(draws - lam.coords, axis=1).max())
        assert spreads[0] > spreads[1] > spreads[2]
        assert spreads[2] < 0.05


class TestControlRegions:
    def test_centroid_interval(self):
        ctrl = CentroidNeighborhood(2, 0.5)
        (lo, hi), = ctrl.breakable_intervals()
        assert (lo, hi) == pytest.approx((0.25, 0.75))

    def test_centroid_covering_threshold(self):
        ctrl = CentroidNeighborhood(2, 1.0)
        states = [BarycentricState([0.45, 0.55]), BarycentricState([0.6, 0.4])]
        assert ctrl.min_epsilon_covering(states) == pytest.approx(0.2)
        family = CentroidNeighborhood.min_epsilon_covering(states)
        assert family == ctrl.min_epsilon_covering(states)

    def test_ball_validation(self):
        with pytest.raises(ValueError, match="leaves the simplex"):
            BallComplement([BarycentricState([0.05, 0.95])], 0.5)
        close = [
            BarycentricState([0.48, 0.26, 0.26]),
            BarycentricState([0.52, 0.24, 0.24]),
        ]
        with pytest.raises(ValueError, match="overlap"):
            BallComplement(close, 0.4)

    def test_ball_measure_fraction(self):
        # fraction of uniform draws landing in the breakable balls ~ epsilon
        pts = [BarycentricState([0.5, 0.3, 0.2]), BarycentricState([0.2, 0.5, 0.3])]
        ctrl = BallComplement(pts, 0.15)
        draws = UniformDensity(3).sample_batch(np.random.default_rng(4), 200_000)
        centres = np.array([p.coords for p in pts])
        dists = np.linalg.norm(draws[:, None, :] - centres[None, :, :], axis=2)
        frac = (dists.min(axis=1) <= ctrl.radius).mean()
        assert frac == pytest.approx(0.15, abs=4 * math.sqrt(0.15 * 0.85 / 200_000))

    @pytest.mark.parametrize("n, epsilon", [(3, 0.1), (4, 0.1), (6, 0.01)])
    def test_ball_radii_fill_the_ball_uniformly(self, n, epsilon):
        # a uniform point of a d-ball lies within r R of its centre with
        # probability r^d; radii R U instead crowd the centre
        centre = BarycentricState(np.full(n, 1 / n))
        ctrl = BallComplement([centre], epsilon)
        size = 200_000
        ys = ctrl.sample_breakable_batch(np.random.default_rng(30 + n), size)
        dist = np.linalg.norm(ys - centre.coords, axis=1)
        for r in (0.5, 0.8):
            p = r ** (n - 1)
            inside = np.mean(dist <= r * ctrl.radius)
            assert abs(inside - p) <= 5 * math.sqrt(p * (1 - p) / size)

    @pytest.mark.parametrize("n, epsilon", [(3, 0.1), (4, 0.1), (6, 0.01)])
    def test_ball_directions_are_isotropic(self, n, epsilon):
        # a uniform direction u on the unit (d-1)-sphere has E[u_v^4] =
        # 3/(d(d+2)) along any unit v; directions from a centred cube
        # miss it along the cube's axes, one of which points at vertex 1
        centre = BarycentricState(np.full(n, 1 / n))
        ctrl = BallComplement([centre], epsilon)
        ys = ctrl.sample_breakable_batch(np.random.default_rng(50 + n), 200_000)
        v = np.eye(n)[0] - centre.coords
        v /= np.linalg.norm(v)
        offsets = ys - centre.coords
        q = (offsets @ v / np.linalg.norm(offsets, axis=1)) ** 4
        d = n - 1
        se = q.std(ddof=1) / math.sqrt(len(q))
        assert abs(q.mean() - 3 / (d * (d + 2))) <= 5 * se

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_centroid_draws_fill_the_zone_and_stay_in_it(self, n):
        # the zone is {y : min_j y_j >= (1 - t)/N}, t = epsilon^(1/(N-1));
        # its draws must also reach below the bound that t = epsilon gives
        epsilon = 0.2
        ctrl = CentroidNeighborhood(n, epsilon)
        ys = ctrl.sample_breakable_batch(np.random.default_rng(70 + n), 200_000)
        lowest = ys.min(axis=1)
        t = epsilon ** (1 / (n - 1))
        assert lowest.min() >= (1 - t) / n - 1e-12
        assert lowest.min() < (1 - epsilon) / n - 1e-12

    def test_interval_epsilon_is_its_exact_length_rounded_once(self):
        ctrl = IntervalControl([(Fraction(1, 10), Fraction(1, 5)), (0.5, 0.7)])
        assert ctrl.epsilon == float(Fraction(1, 10) + Fraction(0.7) - Fraction(0.5))
        assert ctrl.n_outcomes == 2

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            IntervalControl([(0.2, 0.1)])
        with pytest.raises(ValueError):
            IntervalControl([(0.0, 0.5), (0.4, 0.8)])
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                IntervalControl([(0.0, bad)])

    def test_ball_touching_an_end_has_a_region_integral(self):
        ctrl = BallComplement([BarycentricState([0.85, 1 - 0.85])], 0.3)
        ((lo, hi),) = ctrl.breakable_intervals()
        assert hi == 1.0
        x = BarycentricState([0.9, 0.1])
        p = TruncatedUniformDensity(ctrl).region_probability(x, 1)
        lo, hi = Fraction(lo), Fraction(hi)
        assert p == float((Fraction(0.9) - lo) / (hi - lo))
        assert p == pytest.approx(2 / 3)

    @pytest.mark.parametrize("epsilon", [0.2, 0.3, 0.4, 0.5, 0.6])
    @pytest.mark.parametrize("end", ["left", "right"])
    def test_ball_touching_an_end_is_accepted(self, epsilon, end):
        # on the segment the ball's x1 half-width radius/sqrt(2) is epsilon/2
        c1 = epsilon / 2 if end == "left" else 1 - epsilon / 2
        ctrl = BallComplement([BarycentricState([c1, 1 - c1])], epsilon)
        ((lo, hi),) = ctrl.breakable_intervals()
        assert 0.0 <= lo < hi <= 1.0
        assert (lo if end == "left" else 1.0 - hi) == pytest.approx(0.0, abs=1e-15)
        x = BarycentricState([0.5, 0.5])
        p = TruncatedUniformDensity(ctrl).region_probability(x, 1)
        assert p == pytest.approx(min(max((0.5 - lo) / (hi - lo), 0.0), 1.0))

    @pytest.mark.parametrize("end", ["left", "right"])
    def test_ball_poking_out_of_an_end_is_rejected(self, end):
        half = 0.3 / 2 * (1 - 1e-6)
        c1 = half if end == "left" else 1 - half
        with pytest.raises(ValueError, match="leaves the simplex"):
            BallComplement([BarycentricState([c1, 1 - c1])], 0.3)


@pytest.mark.parametrize(
    "rho, n",
    [(density_from_spec("cellular1d:" + "bub" * 40), 120), (_RandomMaskDensity(20), 20)],
    ids=["cellular1d bub x40", "mask sampler 20 cells"],
)
def test_draws_are_uniform_within_their_cells(rho, n):
    # frac(n x1), the position of a draw inside its cell, is uniform on
    # [0, 1); cell midpoints put every draw in one bin, u^2 crowds bin 0
    size = 2**20
    x1 = rho.sample_batch(np.random.default_rng(60 + n), size)[:, 0]
    inside = np.modf(x1 * n)[0]
    observed = np.bincount((inside * 16).astype(np.intp), minlength=16)
    assert len(observed) == 16
    chi2 = ((observed - size / 16) ** 2 / (size / 16)).sum()
    assert stats.chi2.sf(chi2, 15) > 1e-4


def _two(x1):
    return BarycentricState([x1, 1 - x1])


#: inputs the density module rejects, by name: (call, error, message)
DENSITY_REJECTIONS = {
    "empty mask": (lambda: CellularMask(()), ValueError, "at least one cell"),
    "one-outcome uniform": (lambda: UniformDensity(1), ValueError, "two outcomes"),
    "no intervals": (
        lambda: IntervalDensity([]), ValueError, "at least one breakable interval"
    ),
    "dirac without points": (
        lambda: DiracMixtureDensity([]), ValueError, "at least one support point"
    ),
    "dirac of mixed dimensions": (
        lambda: DiracMixtureDensity([_two(0.5), BarycentricState([0.2, 0.3, 0.5])]),
        ValueError,
        "share a dimension",
    ),
    "dirac weight count": (
        lambda: DiracMixtureDensity([_two(0.5)], weights=[1, 2]),
        ValueError,
        "one weight per support point",
    ),
    "dirac all-zero weights": (
        lambda: DiracMixtureDensity([_two(0.5), _two(0.2)], weights=[0, 0]),
        ValueError,
        "not all zero",
    ),
    "one-outcome centroid zone": (
        lambda: CentroidNeighborhood(1, 0.5), ValueError, "two outcomes"
    ),
    "centroid epsilon 0": (
        lambda: CentroidNeighborhood(3, 0.0), ValueError, "epsilon"
    ),
    "centroid epsilon above 1": (
        lambda: CentroidNeighborhood(3, 1.5), ValueError, "epsilon"
    ),
    # the dimension is checked first, as in the base class
    "one-outcome centroid zone with a bad epsilon": (
        lambda: CentroidNeighborhood(1, 2.0), ValueError, "two outcomes"
    ),
    "ball epsilon 0": (
        lambda: BallComplement([_two(0.5)], 0.0), ValueError, "epsilon"
    ),
    "ball epsilon above 1": (
        lambda: BallComplement([_two(0.5)], 2.0), ValueError, "epsilon"
    ),
    "balls without centres": (
        lambda: BallComplement([], 0.1), ValueError, "at least one ball centre"
    ),
    "balls of mixed dimensions": (
        lambda: BallComplement([_two(0.5), BarycentricState([0.3, 0.3, 0.4])], 0.1),
        ValueError,
        "share a dimension",
    ),
    "ball intervals at three outcomes": (
        lambda: BallComplement(
            [BarycentricState([1 / 3] * 3)], 0.1
        ).breakable_intervals(),
        NotAnalyticError,
        "two outcomes",
    ),
    "one-outcome grid": (
        lambda: CellularGridDensity(1, 4), ValueError, "two outcomes"
    ),
    "grid resolution 0": (
        lambda: CellularGridDensity(3, 0), ValueError, "resolution must be positive"
    ),
    "all-false grid mask": (
        lambda: CellularGridDensity(3, 2, [False] * 4),
        ValueError,
        "at least one breakable cell",
    ),
    # cells 7 and 9 of the N = 3, r = 3 grid lie outside the simplex
    "grid breakable only outside the simplex": (
        lambda: CellularGridDensity(3, 3, [i in (6, 8) for i in range(9)]),
        ValueError,
        "no breakable cell intersects the simplex",
    ),
    "approximation with no blocks": (
        lambda: cellular_approximation(lambda u: u, 0, 4),
        ValueError,
        "m and ell must be positive",
    ),
    "massless approximation target": (
        lambda: cellular_approximation(lambda u: 0.0, 4, 4),
        ValueError,
        "increase from 0 to 1",
    ),
    "truncation across dimensions": (
        lambda: density_from_spec(
            {
                "type": "truncated-uniform",
                "epsilon": 0.5,
                "control": {"type": "intervals", "breakable": [[0, 0.5]]},
            },
            3,
        ),
        ValueError,
        "control region dimension does not match density",
    ),
    "epsilon spelt as a JSON boolean": (
        lambda: density_from_spec(
            {"type": "truncated-uniform", "epsilon": True, "control": {"type": "centroid"}},
            3,
        ),
        ValueError,
        "'epsilon' must be a number",
    ),
    "state of another dimension": (
        lambda: UniformDensity(3).region_probabilities(BarycentricState([0.5, 0.5])),
        ValueError,
        "state dimension does not match the density",
    ),
    "region integral of a sampling-only density": (
        lambda: _RandomMaskDensity(4).region_probabilities(_two(0.5)),
        NotAnalyticError,
        "_RandomMaskDensity has no analytic region integral",
    ),
}


@pytest.mark.parametrize("case", sorted(DENSITY_REJECTIONS))
def test_bad_inputs_are_rejected(case):
    call, error, message = DENSITY_REJECTIONS[case]
    with pytest.raises(error, match=message):
        call()


class TestCellularApproximation:
    def test_uniform_target_is_all_breakable(self):
        rho = cellular_approximation(lambda u: u, 8, 4)
        assert rho.mask.n_breakable == rho.mask.n_cells == 32
        x = BarycentricState([Fraction(3, 8), Fraction(5, 8)])
        assert rho.region_probability(x, 1) == Fraction(3, 8)

    def test_ramp_error_bound(self):
        rho = cellular_approximation(lambda u: u * u, 32, 32)
        x = BarycentricState([0.5, 0.5])
        assert abs(float(rho.region_probability(x, 1)) - 0.25) <= 0.05

    def test_ramp_error_shrinks(self):
        x = BarycentricState([0.5, 0.5])
        errs = {}
        for m in (8, 64):
            rho = cellular_approximation(lambda u: u * u, m, m)
            errs[m] = abs(float(rho.region_probability(x, 1)) - 0.25)
        assert errs[64] < errs[8]

    @pytest.mark.parametrize(
        "name,cdf,exact",
        [
            ("uniform", lambda u: u, 0.5),
            ("ramp", lambda u: u * u, 0.25),
            ("cut", lambda u: max(0.0, (u - 1 / 3) / (2 / 3)), 0.25),
        ],
    )
    def test_error_monotone_along_doubling(self, name, cdf, exact):
        x = BarycentricState([0.5, 0.5])
        errs = []
        for k in range(3, 7):
            rho = cellular_approximation(cdf, 2**k, 2**k)
            errs.append(abs(float(rho.region_probability(x, 1)) - exact))
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_rejects_bad_cdf(self):
        with pytest.raises(ValueError):
            cellular_approximation(lambda u: 0.5 * u, 8, 8)


class TestCellularGrid:
    def test_cell_bound_fires_before_any_array_is_built(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} ran before the cell bound")

        monkeypatch.setattr(density_module, "np", NoNumpy())
        with pytest.raises(ValueError, match=str(density_module.MAX_GRID_CELLS)):
            CellularGridDensity(3, 100_000)
        with pytest.raises(ValueError, match="grid cells"):
            CellularGridDensity(24, 2)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, 1.0, None, "b"], ids=repr)
    def test_mask_entries_must_be_flags(self, bad):
        with pytest.raises(ValueError, match="true, false, 0 or 1"):
            CellularGridDensity(3, 3, [bad] + [1] * 8)

    def test_mask_flags_may_mix_booleans_and_bits(self):
        grid = CellularGridDensity(3, 3, [True, 0, 1] + [False] * 6)
        assert grid.mask.tolist() == [True, False, True] + [False] * 6

    def test_mask_is_copied_and_one_dimensional(self):
        mask = np.ones(9, dtype=bool)
        grid = CellularGridDensity(3, 3, mask)
        mask[0] = False
        assert grid.mask[0]
        with pytest.raises(ValueError, match="cover 9 grid cells"):
            CellularGridDensity(3, 3, mask.reshape(3, 3))

    def test_cell_bound_admits_exactly_max_grid_cells(self, monkeypatch):
        monkeypatch.setattr(density_module, "MAX_GRID_CELLS", 16)
        assert CellularGridDensity(3, 4).mask.size == 16
        assert CellularGridDensity(5, 2).mask.size == 16
        for n, r in ((3, 5), (4, 3), (6, 2)):
            with pytest.raises(ValueError, match="above the bound of 16"):
                CellularGridDensity(n, r)

    def test_outside_cells_carry_no_weight(self):
        grid = CellularGridDensity(3, 8)
        weights = grid._weights.reshape(8, 8)
        # the corner cell opposite the simplex is empty
        assert weights.min() == 0.0
        assert weights.sum() == pytest.approx(
            math.sqrt(3) / 2, rel=0.02
        )

    def test_samples_stay_on_the_simplex(self):
        grid = CellularGridDensity(3, 6)
        draws = grid.sample_batch(np.random.default_rng(0), 5000)
        assert draws.min() >= 0.0
        assert np.abs(draws.sum(axis=1) - 1.0).max() < 1e-9

    def test_all_breakable_grid_approximates_uniform(self):
        grid = CellularGridDensity(3, 16)
        x = BarycentricState([0.2, 0.3, 0.5])
        probs = grid.region_probabilities(x)
        assert probs == pytest.approx([0.2, 0.3, 0.5], abs=0.02)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_masked_grid_mass_is_one(self):
        mask = np.zeros(36, dtype=bool)
        mask[::2] = True
        grid = CellularGridDensity(3, 6, mask)
        x = BarycentricState([0.4, 0.35, 0.25])
        assert sum(grid.region_probabilities(x)) == pytest.approx(1.0, abs=1e-12)

    def test_sampler_matches_attribution(self):
        mask = np.zeros(64, dtype=bool)
        mask[:40] = True
        grid = CellularGridDensity(3, 8, mask)
        x = BarycentricState([0.3, 0.4, 0.3])
        est = estimate(x, grid, 100_000, seed=5)
        probs = grid.region_probabilities(x)
        assert est.probabilities == pytest.approx(probs, abs=0.02)


class GridOracle:
    """The grid density cell by cell: each cell's origin rebuilt from its
    index digit by digit, its overlap decided by its box corners or else
    measured on the lattice, and region integrals summed over the cells
    in floats."""

    def __init__(self, n, resolution, mask=None):
        self.n, self.r, d = n, resolution, n - 1
        vertices = internal_basis(n)[:-1, :].T
        self.lo = vertices.min(axis=0)
        self.widths = (vertices.max(axis=0) - self.lo) / resolution
        n_cells = resolution**d
        self.mask = np.ones(n_cells, bool) if mask is None else np.asarray(mask)
        side = max(2, math.ceil(GRID_SUBSAMPLES ** (1.0 / d)))
        axis = (np.arange(side) + 0.5) / side
        self.lattice = np.array(list(itertools.product(axis, repeat=d)))
        self.corners = np.array(list(itertools.product([0.0, 1.0], repeat=d)))
        self.weights = np.array(
            [self.overlap(c) for c in range(n_cells)]
        ) * float(np.prod(self.widths))
        self.total = float(self.weights[self.mask].sum())

    def origin(self, cell):
        idx = np.empty(self.n - 1, dtype=int)
        for axis in range(self.n - 1):
            idx[axis] = cell % self.r
            cell //= self.r
        return self.lo + idx * self.widths

    def points(self, cell, rel):
        return from_internal_batch(self.origin(cell) + rel * self.widths, self.n)

    def overlap(self, cell):
        ys = self.points(cell, self.corners)
        if ys.min() >= 0.0:
            return 1.0
        if (ys.max(axis=0) < 0.0).any():
            return 0.0
        return float((self.points(cell, self.lattice).min(axis=1) >= 0.0).mean())

    def sample_batch(self, rng, size):
        """Draws as `CellularGridDensity.sample_batch`; `self.rounds` is
        the number of rejection rounds they took."""
        cells = np.flatnonzero(self.mask & (self.weights > 0.0))
        probs = self.weights[cells] / self.total
        chosen = cells[rng.choice(len(cells), size=size, p=probs)]
        out = np.empty((size, self.n))
        pending = np.arange(size)
        self.rounds = 0
        while len(pending):
            self.rounds += 1
            rel = rng.random((len(pending), self.n - 1))
            origins = np.array([self.origin(c) for c in chosen[pending]])
            ys = from_internal_batch(origins + rel * self.widths, self.n)
            ok = ys.min(axis=1) >= 0.0
            out[pending[ok]] = ys[ok]
            pending = pending[~ok]
        return out

    def region_probability(self, x, outcome):
        vol = float(np.prod(self.widths))
        attributed = total = 0.0
        for cell in np.flatnonzero(self.mask & (self.weights > 0.0)):
            ys = self.points(cell, self.lattice)
            inside = ys.min(axis=1) >= 0.0
            outcomes, _ = classify_batch(ys[inside], x)
            total += vol * inside.mean()
            attributed += vol * (outcomes == outcome - 1).sum() / len(self.lattice)
        return attributed / total


#: (3, 16) is the benchmark's grid, drawn as one whole block
GRID_CASES = [(2, 5), (2, 16), (3, 8), (3, 16), (3, 32), (4, 6)]


class TestCellularGridOracle:
    @pytest.mark.parametrize("n,resolution", GRID_CASES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_grid_matches_the_per_cell_oracle(self, n, resolution, masked):
        size = BLOCK_SIZE if (n, resolution) == (3, 16) else 3000
        rng = np.random.default_rng(resolution * n)
        mask = None
        if masked:
            mask = rng.random(resolution ** (n - 1)) < 0.5
            mask[resolution ** (n - 1) // 2] = True
        grid = CellularGridDensity(n, resolution, mask)
        oracle = GridOracle(n, resolution, mask)
        assert grid._weights.tobytes() == oracle.weights.tobytes()
        draws = grid.sample_batch(np.random.default_rng(9), size)
        expected = oracle.sample_batch(np.random.default_rng(9), size)
        assert draws.tobytes() == expected.tobytes()
        x = random_state(rng, n)
        for outcome in range(1, n + 1):
            assert grid.region_probability(x, outcome) == pytest.approx(
                oracle.region_probability(x, outcome), abs=1e-12
            )

    def test_rejection_rounds_are_counted_from_the_first(self, monkeypatch):
        grid = CellularGridDensity(3, 8)
        oracle = GridOracle(3, 8)
        expected = oracle.sample_batch(np.random.default_rng(9), 3000)
        assert oracle.rounds >= 2
        monkeypatch.setattr(density_module, "MAX_REJECTION_ROUNDS", oracle.rounds)
        draws = grid.sample_batch(np.random.default_rng(9), 3000)
        assert draws.tobytes() == expected.tobytes()
        monkeypatch.setattr(density_module, "MAX_REJECTION_ROUNDS", oracle.rounds - 1)
        with pytest.raises(RuntimeError, match="rejection sampling failed"):
            grid.sample_batch(np.random.default_rng(9), 3000)

    def test_results_do_not_depend_on_the_chunk_size(self, monkeypatch):
        mask = np.random.default_rng(2).random(100) < 0.6
        x = BarycentricState([0.25, 0.35, 0.4])
        whole = CellularGridDensity(3, 10, mask)
        # 75 cells a chunk for the corner test, one for the lattice
        monkeypatch.setattr(density_module, "_CHUNK_POINTS", 300)
        chunked = CellularGridDensity(3, 10, mask)
        assert chunked._weights.tobytes() == whole._weights.tobytes()
        assert chunked.region_probabilities(x) == whole.region_probabilities(x)


def weight_cases():
    """Weight vectors for the weighted-index oracle: one weight, few
    weights and many, zero weights first, in the middle and last, weights
    of 1e-12, p**8-skewed weights, near-even weights, a long run of zero
    weights and crowded tiny weights."""
    rng = np.random.default_rng(2024)
    cases = {"1": np.ones(1)}
    for k in (2, 3, 8, 9, 144, 1000, 4096):
        p = rng.random(k)
        cases[f"{k}"] = p
        cases[f"{k}-skewed"] = p**8
        for where, at in (("first", 0), ("middle", k // 2), ("last", k - 1)):
            zeroed = p.copy()
            zeroed[at] = 0.0
            cases[f"{k}-zero-{where}"] = zeroed
        tiny = p.copy()
        tiny[::2] = 1e-12
        cases[f"{k}-tiny"] = tiny
    # near-even weights put at most one cdf entry strictly inside each
    # bucket: the one-pass table; a zero weight first or last keeps it so
    for k in (9, 144, 3000):
        even = 1.0 + 0.1 * rng.random(k)
        cases[f"{k}-even"] = even
        for where, at in (("first", 0), ("last", k - 1)):
            zeroed = even.copy()
            zeroed[at] = 0.0
            cases[f"{k}-even-zero-{where}"] = zeroed
    # 998 equal cdf entries of 1/3 inside one bucket at any bucket count
    cases["1000-zero-run"] = np.array([1.0] + [0.0] * 997 + [1.0, 1.0])
    # the first 4095 cdf entries crowd the first bucket
    cases["4096-crowded"] = np.array([1e-20] * 4095 + [1.0])
    return {name: p / p.sum() for name, p in cases.items()}


WEIGHT_CASES = weight_cases()


class TestWeightedIndex:
    @pytest.mark.parametrize("name", list(WEIGHT_CASES))
    def test_draws_equal_generator_choice(self, name):
        p = WEIGHT_CASES[name]
        pick = density_module._WeightedIndex(p)
        for seed, size in enumerate((0, 1, 3000, BLOCK_SIZE)):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            idx = pick.draw(rng, size)
            expected = reference.choice(len(p), size, p=p)
            assert idx.dtype == expected.dtype
            assert idx.tobytes() == expected.tobytes()
            # the generator is left where choice leaves it
            assert rng.random() == reference.random()

    @pytest.mark.parametrize(
        "p",
        [
            np.array([0.25, 0.25, 0.0, 0.5]),
            np.array([1, 0, 3, 0, 2, 2, 0, 4, 1, 1, 0, 2] * 2) / 32,
            WEIGHT_CASES["144"],
            WEIGHT_CASES["4096-skewed"],
            WEIGHT_CASES["1000-zero-run"],
            WEIGHT_CASES["3000-even-zero-first"],
        ],
        ids=[
            "4 dyadic",
            "24 dyadic",
            "144",
            "4096 skewed",
            "1000 zero run",
            "3000 even",
        ],
    )
    def test_a_draw_equal_to_a_cdf_entry_or_a_bucket_edge_counts_it(self, p):
        # choice returns cdf.searchsorted(u, side="right"); draws that hit
        # a cdf entry or a bucket edge exactly, and their neighbours, must
        # count the same
        class FixedDraws:
            def random(self, size):
                return u

        cdf = p.cumsum()
        cdf /= cdf[-1]
        pick = density_module._WeightedIndex(p)
        edges = np.arange(pick._buckets) / pick._buckets
        exact = np.concatenate([cdf[:-1], edges])
        u = np.concatenate(
            [exact, np.nextafter(exact, 1.0), np.nextafter(exact, -1.0)]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        idx = pick.draw(FixedDraws(), len(u))
        assert np.array_equal(idx, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize(
        "p", [[math.nan, 1.0], [0.6, -0.1, 0.5], [0.5, 0.4], [math.inf, 1.0]]
    )
    def test_weights_choice_would_reject_are_rejected_once(self, p):
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            density_module._WeightedIndex(p)

    def test_intervals_of_zero_float_length_integrate_but_do_not_sample(self):
        # distinct Fractions, one float: the exact integrals hold, and the
        # first draw fails as choice failed on every draw
        tiny = (Fraction(1, 10), Fraction(1, 10) + Fraction(3, 10**30))
        rho = IntervalDensity([tiny])
        x1 = tiny[0] + Fraction(1, 10**30)
        x = BarycentricState([x1, 1 - x1])
        assert rho.region_probabilities(x) == [Fraction(1, 3), Fraction(2, 3)]
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="sum to 1"):
            rho.sample_batch(np.random.default_rng(0), 1)

    def test_the_table_has_one_pass_or_none(self):
        few = density_module._WeightedIndex(WEIGHT_CASES["8-zero-middle"])
        assert few._buckets == 1
        # the benchmark grid's 144 live cells: 256 buckets, one pass
        grid = CellularGridDensity(3, 16)._pick
        assert grid._buckets == 256 and grid._edge is not None
        for name, p in WEIGHT_CASES.items():
            if "-even" in name:
                assert density_module._WeightedIndex(p)._edge is not None
        # equal or crowded cdf entries share a bucket: binary search
        for name in ("1000-zero-run", "4096-crowded", "4096-skewed"):
            assert density_module._WeightedIndex(WEIGHT_CASES[name])._edge is None
        for p in WEIGHT_CASES.values():
            pick = density_module._WeightedIndex(p)
            assert pick._buckets < 2 * len(p)
            bound = max(pick._buckets, density_module._FEW_WEIGHTS)
            assert pick._edge is None or len(pick._edge) <= bound


def dirac_oracle(rho, rng, size):
    """The Dirac mixture sampler through `Generator.choice` and a row gather."""
    points = np.array([p.coords for p in rho.points])
    weights = np.array([float(w) for w in rho.weights])
    return points[rng.choice(len(points), size=size, p=weights)]


def interval_oracle(intervals, rng, size):
    """The interval sampler through `Generator.choice` and fancy indexing."""
    los = np.array([float(lo) for lo, _ in intervals])
    lengths = np.array([float(hi) - float(lo) for lo, hi in intervals])
    idx = rng.choice(len(los), size=size, p=lengths / lengths.sum())
    x1 = los[idx] + rng.random(size) * lengths[idx]
    return np.column_stack([x1, 1.0 - x1])


def cellular_oracle(rho, rng, size):
    """The cellular sampler with a fancy-indexed cell draw and column_stack."""
    breakable = np.flatnonzero(rho.mask.breakable)
    cells = breakable[rng.integers(0, len(breakable), size)]
    x1 = (cells + rng.random(size)) / rho.mask.n_cells
    return np.column_stack([x1, 1.0 - x1])


def ball_oracle(control, rng, size):
    """The ball sampler with its centres gathered by fancy indexing."""
    d = control.n_outcomes - 1
    centers_z = np.array([to_internal_coords(c) for c in control.centers])
    idx = rng.integers(0, len(control.centers), size)
    direction = rng.normal(size=(size, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = control.radius * rng.random(size) ** (1.0 / d)
    direction *= radii[:, None]
    direction += centers_z[idx]
    ys = from_internal_batch(direction, control.n_outcomes)
    return np.clip(ys, 0.0, None, out=ys)


def many_intervals():
    edges = np.sort(np.random.default_rng(5).random(40))
    return IntervalDensity(list(zip(edges[::2], edges[1::2])))


def many_points():
    rng = np.random.default_rng(6)
    weights = rng.random(50)
    weights[[0, 25, 49]] = 0.0
    points = [BarycentricState(p) for p in rng.dirichlet(np.ones(4), 50)]
    return DiracMixtureDensity(points, list(weights))


DIRAC_3 = ([0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6])
INTERVALS_SPEC = {
    "type": "truncated-uniform",
    "epsilon": 0.6,
    "control": {"type": "intervals", "breakable": [[0, 0.1], [0.3, 0.35], [0.55, 1]]},
}
BALL_CASES = [
    ([[0.3, 0.7], [0.6, 0.4]], 0.2),
    ([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]], 0.1),
    ([[0.4, 0.2, 0.2, 0.2], [0.2, 0.2, 0.2, 0.4]], 0.05),
    ([[0.3, 0.1, 0.2, 0.1, 0.1, 0.2], [1 / 6] * 6], 0.001),
]
SAMPLE_SIZES = [0, 1, 3000, BLOCK_SIZE]


class TestSamplerReplay:
    """Each weighted or gathered sampler against a replay of its draws."""

    @pytest.mark.parametrize("size", SAMPLE_SIZES)
    @pytest.mark.parametrize(
        "rho",
        [
            DiracMixtureDensity(
                [BarycentricState(p) for p in DIRAC_3],
                [5, 3, 2],
            ),
            many_points(),
        ],
        ids=["3 points", "50 points"],
    )
    def test_dirac(self, rho, size):
        draws = rho.sample_batch(np.random.default_rng(size), size)
        expected = dirac_oracle(rho, np.random.default_rng(size), size)
        assert draws.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", SAMPLE_SIZES)
    @pytest.mark.parametrize(
        "rho",
        [density_from_spec(INTERVALS_SPEC, 2), many_intervals()],
        ids=["intervals truncation", "20 intervals"],
    )
    def test_intervals(self, rho, size):
        intervals = zone_of(rho)
        draws = rho.sample_batch(np.random.default_rng(size), size)
        expected = interval_oracle(intervals, np.random.default_rng(size), size)
        assert draws.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", SAMPLE_SIZES)
    @pytest.mark.parametrize("mask", ["bubbuub", "bub" * 40])
    def test_cellular(self, mask, size):
        rho = Cellular1DDensity(CellularMask.from_string(mask))
        draws = rho.sample_batch(np.random.default_rng(size), size)
        expected = cellular_oracle(rho, np.random.default_rng(size), size)
        assert draws.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", SAMPLE_SIZES)
    @pytest.mark.parametrize(
        "centers,epsilon", BALL_CASES, ids=["N=2", "N=3", "N=4", "N=6"]
    )
    def test_balls(self, centers, epsilon, size):
        control = BallComplement([BarycentricState(c) for c in centers], epsilon)
        rho = TruncatedUniformDensity(control)
        draws = rho.sample_batch(np.random.default_rng(size), size)
        expected = ball_oracle(control, np.random.default_rng(size), size)
        assert draws.tobytes() == expected.tobytes()


class TestDensitySpec:
    def test_uniform(self):
        rho = density_from_spec("uniform", 4)
        assert isinstance(rho, UniformDensity) and rho.n_outcomes == 4

    def test_cellular(self):
        rho = density_from_spec({"type": "cellular1d", "mask": "bub"})
        assert isinstance(rho, Cellular1DDensity)
        assert str(rho.mask) == "bub"

    def test_dirac(self):
        rho = density_from_spec(
            {"type": "dirac", "points": [[0.5, 0.5], [0.25, 0.75]]}
        )
        assert isinstance(rho, DiracMixtureDensity)
        assert len(rho.points) == 2

    def test_truncated_uniform(self):
        rho = density_from_spec(
            {"type": "truncated-uniform", "epsilon": 0.5, "control": {"type": "centroid"}},
            3,
        )
        assert isinstance(rho, TruncatedUniformDensity)
        assert rho.control.epsilon == 0.5

    def test_grid(self):
        rho = density_from_spec({"type": "grid", "resolution": 4}, 3)
        assert isinstance(rho, CellularGridDensity)

    def test_grid_mask_of_json_booleans_reads_as_its_flags(self):
        bits = [1, 0, 1, 1, 1, 0, 1, 0, 0]
        x = BarycentricState([0.2, 0.3, 0.5])

        def run(mask):
            spec = {"type": "grid", "resolution": 3, "mask": mask}
            return estimate(x, density_from_spec(spec, 3), 100_000, seed=7)

        ints, flags = run(bits), run([b == 1 for b in bits])
        assert flags.counts.tolist() == ints.counts.tolist()
        assert flags.boundary_hits == ints.boundary_hits

    def test_errors(self):
        with pytest.raises(ValueError):
            density_from_spec({"type": "nope"}, 2)
        with pytest.raises(ValueError):
            density_from_spec({"mask": "bb"}, 2)
        with pytest.raises(ValueError):
            density_from_spec("uniform")

    def test_cellular_text(self):
        rho = density_from_spec("cellular1d:bub")
        assert isinstance(rho, Cellular1DDensity)
        assert str(rho.mask) == "bub"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("nope:bub", "unknown density type 'nope'"),
            ("uniform:bub", "key 'mask' is not read by type 'uniform'"),
            ({"type": 5}, "'type' tag"),
            ({"type": ["grid"]}, "'type' tag"),
            ({"type": "uniform", "resolution": 4}, "key 'resolution' is not read"),
            ({"type": "grid"}, "key 'resolution' is missing"),
            ({"type": "grid", "resolution": 4, "mask": None, "x": 1}, "key 'x'"),
            (
                {"type": "truncated-uniform", "epsilon": 0.5, "contorl": {}},
                "key 'contorl' is not read",
            ),
            (
                {"type": "truncated-uniform", "epsilon": 0.5},
                "key 'control' is missing",
            ),
            (
                {
                    "type": "truncated-uniform",
                    "epsilon": 0.5,
                    "control": {"type": "centroid", "epsilon": 0.5},
                },
                "control region spec key 'epsilon' is not read by type 'centroid'",
            ),
            (
                {
                    "type": "truncated-uniform",
                    "epsilon": 0.5,
                    "control": {"type": "balls"},
                },
                "control region spec key 'centers' is missing",
            ),
            (
                {"type": "truncated-uniform", "epsilon": 0.5, "control": {}},
                "control region spec must be a dict with a 'type' tag",
            ),
        ],
    )
    def test_keys_are_checked(self, spec, message):
        with pytest.raises(ValueError, match=message):
            density_from_spec(spec, 3)

    def test_null_optional_keys_read_as_absent(self):
        spec = {"type": "dirac", "points": [[0.5, 0.5]], "weights": None}
        assert density_from_spec(spec).weights == (1,)


def cell_oracle(bits, x1: Fraction) -> Fraction:
    """Breakable length below x1 over the breakable total, summed cell by
    cell over n equal cells, in Fractions."""
    n = len(bits)
    cell = Fraction(1, n)
    below = sum(
        (min(max(x1 - j * cell, 0), cell) for j, b in enumerate(bits) if b),
        Fraction(0),
    )
    return below / (sum(bits) * cell)


@st.composite
def grid_zones(draw):
    """A nonzero mask of n equal cells and its breakable cells as sorted
    intervals on the grid, each run of cells cut at random into touching
    pieces."""
    bits = draw(st.lists(st.booleans(), min_size=1, max_size=24).filter(any))
    n = len(bits)
    cuts = draw(st.sets(st.integers(0, n)))
    runs = []
    for j, b in enumerate(bits):
        if b and runs and runs[-1][1] == j and j not in cuts:
            runs[-1][1] = j + 1
        elif b:
            runs.append([j, j + 1])
    return bits, [(Fraction(lo, n), Fraction(hi, n)) for lo, hi in runs]


two_outcome_states = st.one_of(
    st.fractions(0, 1, max_denominator=2000).map(
        lambda f: BarycentricState([f, 1 - f])
    ),
    st.floats(0, 1).map(lambda u: BarycentricState([u, 1.0 - u])),
)


def exact_x1(x) -> Fraction:
    if x.exact_coords is not None:
        return x.exact_coords[0]
    return Fraction(float(x.coords[0]))


def expected_pair(x, p1: Fraction) -> list:
    """The exact pair for an exact state, its correctly rounded floats
    otherwise."""
    pair = [p1, 1 - p1]
    return pair if x.exact_coords is not None else [float(p) for p in pair]


class TestIntervalIntegralOracle:
    @given(grid_zones(), two_outcome_states)
    @settings(max_examples=300, deadline=None)
    def test_interval_families_match_the_cell_oracle(self, zone, x):
        bits, intervals = zone
        expected = expected_pair(x, cell_oracle(bits, exact_x1(x)))
        kind = Fraction if x.exact_coords is not None else float
        for rho in (
            IntervalDensity(intervals),
            Cellular1DDensity(CellularMask(tuple(bits))),
            TruncatedUniformDensity(IntervalControl(intervals)),
        ):
            got = rho.region_probabilities(x)
            assert got == expected
            assert all(type(p) is kind for p in got)

    @given(st.floats(0.01, 1.0), two_outcome_states)
    @settings(max_examples=200, deadline=None)
    def test_centroid_zone_rounds_the_exact_integral(self, eps, x):
        control = CentroidNeighborhood(2, eps)
        ((lo, hi),) = control.breakable_intervals()
        lo, hi = Fraction(lo), Fraction(hi)
        p1 = (min(max(exact_x1(x), lo), hi) - lo) / (hi - lo)
        rho = TruncatedUniformDensity(control)
        assert rho.region_probabilities(x) == expected_pair(x, p1)


#: the families whose region integrals are exact on exact states
EXACT_FAMILIES = (UniformDensity, IntervalDensity, TruncatedUniformDensity)


def analytic_families():
    """One density of every family with region integrals, and exact and
    float states of its dimension."""
    pair = [BarycentricState([Fraction(3, 10), Fraction(7, 10)])]
    pair.append(BarycentricState([0.3, 0.7]))
    triple = [BarycentricState([Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)])]
    triple.append(BarycentricState([0.2, 0.3, 0.5]))
    dirac = DiracMixtureDensity(
        [BarycentricState(p) for p in ([0.5, 0.3, 0.2], [0.6, 0.1, 0.3])],
        [Fraction(1, 4), Fraction(3, 4)],
    )
    return [
        (UniformDensity(3), triple),
        (IntervalDensity([(0.1, 0.2), (Fraction(1, 2), 1)]), pair),
        (Cellular1DDensity(CellularMask.from_string("bubbu")), pair),
        (dirac, triple),
        (TruncatedUniformDensity(CentroidNeighborhood(2, 0.5)), pair),
        (CellularGridDensity(3, 6), triple),
    ]


class TestRegionIntegrals:
    @pytest.mark.parametrize(
        "rho, states", analytic_families(), ids=lambda v: type(v).__name__
    )
    def test_one_outcome_is_an_entry_of_every_outcome(self, rho, states):
        for x in states:
            probs = rho.region_probabilities(x)
            assert len(probs) == rho.n_outcomes
            for i in range(1, rho.n_outcomes + 1):
                p = rho.region_probability(x, i)
                assert p == probs[i - 1] and type(p) is type(probs[i - 1])

    @pytest.mark.parametrize(
        "rho, states",
        [
            (rho, states)
            for rho, states in analytic_families()
            if isinstance(rho, EXACT_FAMILIES)
        ],
        ids=lambda v: type(v).__name__,
    )
    def test_exact_states_get_fractions_and_float_states_floats(self, rho, states):
        exact, inexact = states
        assert all(type(p) is Fraction for p in rho.region_probabilities(exact))
        assert all(type(p) is float for p in rho.region_probabilities(inexact))

    def test_an_empty_dirac_region_is_the_integer_zero(self):
        rho = DiracMixtureDensity([BarycentricState([0.5, 0.3, 0.2])])
        x = BarycentricState([0.2, 0.3, 0.5])
        probs = rho.region_probabilities(x)
        assert probs == [0, 0, 1]
        assert type(probs[0]) is int and type(probs[1]) is int
        assert type(rho.region_probability(x, 2)) is int

    def test_dirac_classifies_each_support_point_once(self, monkeypatch):
        calls = []

        def counted(lam, x):
            calls.append(lam)
            return region_of(lam, x)

        points = [BarycentricState(p) for p in ([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])]
        points.append(BarycentricState([0.3, 0.2, 0.5]))
        rho = DiracMixtureDensity(points)
        monkeypatch.setattr(density_module, "region_of", counted)
        rho.region_probabilities(BarycentricState([0.2, 0.3, 0.5]))
        assert calls == points

    def test_grid_classifies_each_lattice_chunk_once(self, monkeypatch):
        monkeypatch.setattr(density_module, "_CHUNK_POINTS", 300)
        grid = CellularGridDensity(3, 10)
        chunks = len(list(grid._cell_chunks(grid._lattice, grid._cells)))
        assert chunks > 1
        calls = []

        def counted(ys, x):
            calls.append(len(ys))
            return region_counts(ys, x)

        monkeypatch.setattr(density_module, "region_counts", counted)
        grid.region_probabilities(BarycentricState([0.25, 0.35, 0.4]))
        assert len(calls) == chunks

    @pytest.mark.parametrize("outcome", [0, 4])
    def test_an_outcome_out_of_range_fails_before_any_lattice_work(
        self, monkeypatch, outcome
    ):
        grid = CellularGridDensity(3, 4)

        def must_not_run(*args):
            raise AssertionError("the lattice was walked")

        monkeypatch.setattr(CellularGridDensity, "_cell_chunks", must_not_run)
        with pytest.raises(ValueError, match="outcome must be in 1..3"):
            grid.region_probability(BarycentricState([0.2, 0.3, 0.5]), outcome)


SPEC_CASES = [
    (3, "uniform"),
    (2, {"type": "cellular1d", "mask": "bubbuub"}),
    (
        3,
        {
            "type": "dirac",
            "points": [[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]],
            "weights": [5, 3, 2],
        },
    ),
    (3, {"type": "grid", "resolution": 4}),
    (3, {"type": "grid", "resolution": 3, "mask": [1, 0, 1, 1, 0, 0, 1, 0, 1]}),
    (4, {"type": "truncated-uniform", "epsilon": 0.3, "control": {"type": "centroid"}}),
    (2, {"type": "truncated-uniform", "epsilon": 0.4, "control": {"type": "centroid"}}),
    (
        3,
        {
            "type": "truncated-uniform",
            "epsilon": 0.1,
            "control": {"type": "balls", "centers": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]},
        },
    ),
    (
        2,
        {
            "type": "truncated-uniform",
            "epsilon": 0.2,
            "control": {"type": "balls", "centers": [[0.3, 0.7], [0.6, 0.4]]},
        },
    ),
    (
        2,
        {
            "type": "truncated-uniform",
            "epsilon": 0.3,
            "control": {"type": "intervals", "breakable": [[0.1, 0.2], [0.5, 0.7]]},
        },
    ),
]


def zone_of(rho):
    """Breakable x1 intervals of a two-outcome interval family, else None."""
    if isinstance(rho, IntervalDensity):
        return rho.intervals
    if isinstance(rho, TruncatedUniformDensity) and rho.n_outcomes == 2:
        return rho.control.breakable_intervals()
    return None


class TestSpecFamilies:
    @pytest.mark.parametrize("case", range(len(SPEC_CASES)))
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 400))
    @settings(max_examples=25, deadline=None)
    def test_samples_lie_on_the_simplex_and_in_the_zone(self, case, seed, size):
        n, spec = SPEC_CASES[case]
        rho = density_from_spec(spec, n)
        draws = rho.sample_batch(np.random.default_rng(seed), size)
        assert draws.shape == (size, n)
        assert draws.min() >= 0.0
        assert np.abs(draws.sum(axis=1) - 1.0).max() <= SUM_TOL
        zone = zone_of(rho)
        if zone is not None:
            x1 = draws[:, 0]
            inside = np.zeros(size, dtype=bool)
            for lo, hi in zone:
                inside |= (x1 >= float(lo)) & (x1 <= float(hi))
            assert inside.all()

    @pytest.mark.parametrize("case", range(len(SPEC_CASES)))
    def test_counts_do_not_depend_on_the_thread_count(self, case):
        n, spec = SPEC_CASES[case]
        rho = density_from_spec(spec, n)
        x = random_state(np.random.default_rng(case), n)
        runs = [
            estimate(x, rho, 2 * BLOCK_SIZE + 123, seed=11, threads=t)
            for t in (1, 2, 4)
        ]
        for run in runs[1:]:
            assert np.array_equal(run.counts, runs[0].counts)
            assert run.boundary_hits == runs[0].boundary_hits


def other_families():
    """One density of every family that keeps the default `sample_rays`."""
    balls = {"type": "balls", "centers": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]}
    dirac_3 = ([0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6])
    dirac_6 = ([0.1, 0.2, 0.0, 0.3, 0.2, 0.2], [1 / 6] * 6)
    return [
        Cellular1DDensity(CellularMask.from_string("bubbuub")),
        DiracMixtureDensity([BarycentricState(p) for p in dirac_3], [5, 3, 2]),
        DiracMixtureDensity([BarycentricState(p) for p in dirac_6]),
        CellularGridDensity(3, 4),
        CellularGridDensity(6, 2),
        TruncatedUniformDensity(CentroidNeighborhood(2, 0.4)),
        TruncatedUniformDensity(CentroidNeighborhood(3, 0.3)),
        TruncatedUniformDensity(CentroidNeighborhood(6, 0.5)),
        density_from_spec(
            {"type": "truncated-uniform", "epsilon": 0.1, "control": balls}, 3
        ),
        _RandomMaskDensity(12),
    ]


class TestSampleRays:
    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("size", [1, 5000, BLOCK_SIZE])
    def test_uniform_rays_normalise_to_the_dirichlet_draws(self, n, size):
        rho = UniformDensity(n)
        rays = rho.sample_rays(np.random.default_rng(size + n), size)
        points = rho.sample_batch(np.random.default_rng(size + n), size)
        assert rays.shape == (size, n) and rays.min() > 0.0
        assert np.array_equal(rays * (1.0 / rays.sum(axis=1, keepdims=True)), points)

    @pytest.mark.parametrize("rho", other_families(), ids=lambda v: type(v).__name__)
    def test_every_other_family_draws_its_points(self, rho):
        rays = rho.sample_rays(np.random.default_rng(21), 5000)
        points = rho.sample_batch(np.random.default_rng(21), 5000)
        assert np.array_equal(rays, points)


def _drawn_tiles(rho, seed, size):
    """`rho._ray_tiles` of `size` rows, with its `sample_rays` calls."""
    sizes = []
    sample_rays = rho.sample_rays

    def spy(rng, k):
        sizes.append(k)
        return sample_rays(rng, k)

    rho.sample_rays = spy
    return list(rho._ray_tiles(np.random.default_rng(seed), size)), sizes


class TestRayTiles:
    T = simplex._TILE_POINTS

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize(
        "size", [1, T - 1, T, T + 1, BLOCK_SIZE, 1_000_003 % BLOCK_SIZE]
    )
    def test_uniform_tiles_are_one_draw(self, n, size):
        # one draw per tile, and together the bytes of one whole draw
        tiles, sizes = _drawn_tiles(UniformDensity(n), size, size)
        whole = UniformDensity(n).sample_rays(np.random.default_rng(size), size)
        assert sizes == [len(tile) for tile in tiles]
        assert len(tiles) == math.ceil(size / self.T)
        assert all(0 < len(tile) <= self.T for tile in tiles)
        assert np.concatenate(tiles).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("rho", other_families(), ids=lambda v: type(v).__name__)
    def test_every_other_family_slices_its_one_draw(self, rho, monkeypatch):
        monkeypatch.setattr(simplex, "_TILE_POINTS", 1500)
        tiles, sizes = _drawn_tiles(rho, 21, 5000)
        assert sizes == [5000]
        assert [len(tile) for tile in tiles] == [1500, 1500, 1500, 500]
        assert all(t.base is not None and t.base is tiles[0].base for t in tiles)
        whole = rho.sample_rays(np.random.default_rng(21), 5000)
        assert np.array_equal(np.concatenate(tiles), whole)

    @pytest.mark.parametrize("rho", [UniformDensity(3)] + other_families()[:1])
    def test_an_empty_draw_is_one_empty_tile(self, rho):
        # so the block's classification still checks the shape
        tiles, _ = _drawn_tiles(rho, 3, 0)
        assert [tile.shape for tile in tiles] == [(0, rho.n_outcomes)]
