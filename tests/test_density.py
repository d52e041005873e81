import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from membranesim import density as density_module
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
from membranesim.montecarlo import BLOCK_SIZE, estimate
from membranesim.simplex import (
    SUM_TOL,
    BarycentricState,
    classify_batch,
    from_internal_batch,
    internal_basis,
    region_counts,
    region_of,
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
        assert CellularMask.from_bits(mask.as_bits(), 3) == mask

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            CellularMask.from_string("bxu")
        with pytest.raises(ValueError):
            CellularMask.from_bits(0, 3)


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
    lambda: (TruncatedUniformDensity(IntervalControl.cut_left(0.5)), 2),
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
        rho = UniformDensity(3)
        assert truncate(rho, CentroidNeighborhood(3, 1.0)) is rho

    def test_left_cut_matches_piecewise_integration(self):
        eps = 0.5
        rho = truncate(UniformDensity(2), IntervalControl.cut_left(eps))
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
            rho = truncate(UniformDensity(3), BallComplement([lam], eps))
            draws = rho.sample_batch(np.random.default_rng(3), 2000)
            spreads.append(np.linalg.norm(draws - lam.coords, axis=1).max())
        assert spreads[0] > spreads[1] > spreads[2]
        assert spreads[2] < 0.05

    def test_dirac_truncation_renormalises(self):
        pts = [BarycentricState([0.2, 0.8]), BarycentricState([0.9, 0.1])]
        rho = truncate(DiracMixtureDensity(pts), IntervalControl([(0.85, 0.95)]))
        assert len(rho.points) == 1
        assert rho.weights == (Fraction(1),)

    def test_degenerate_truncation_errors(self):
        pts = [BarycentricState([0.2, 0.8])]
        with pytest.raises(ValueError, match="degenerate"):
            truncate(DiracMixtureDensity(pts), IntervalControl([(0.5, 0.6)]))

    def test_other_densities_have_no_truncation(self):
        base = Cellular1DDensity(CellularMask.from_string("bb"))
        with pytest.raises(ValueError, match="cannot truncate"):
            truncate(base, IntervalControl([(0.0, 0.25)]))


class TestControlRegions:
    def test_centroid_interval(self):
        ctrl = CentroidNeighborhood(2, 0.5)
        (lo, hi), = ctrl.breakable_intervals()
        assert (lo, hi) == pytest.approx((0.25, 0.75))

    def test_centroid_covering_threshold(self):
        ctrl = CentroidNeighborhood(2, 1.0)
        states = [BarycentricState([0.45, 0.55]), BarycentricState([0.6, 0.4])]
        assert ctrl.min_epsilon_covering(states) == pytest.approx(0.2)

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
        frac = 1.0 - ctrl.contains_batch(draws).mean()
        assert frac == pytest.approx(0.15, abs=4 * math.sqrt(0.15 * 0.85 / 200_000))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CentroidNeighborhood(1, 0.5), "two outcomes"),
            (lambda: CentroidNeighborhood(3, 0.0), "epsilon"),
            (lambda: CentroidNeighborhood(3, 1.5), "epsilon"),
            (lambda: BallComplement([BarycentricState([0.5, 0.5])], 0.0), "epsilon"),
            (lambda: BallComplement([BarycentricState([0.5, 0.5])], 2.0), "epsilon"),
            # the dimension is checked first, as in the base class
            (lambda: CentroidNeighborhood(1, 2.0), "two outcomes"),
        ],
    )
    def test_outcomes_and_epsilon_are_checked_for_every_geometry(
        self, build, message
    ):
        with pytest.raises(ValueError, match=message):
            build()

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
        cells = np.flatnonzero(self.mask & (self.weights > 0.0))
        probs = self.weights[cells] / self.total
        chosen = cells[rng.choice(len(cells), size=size, p=probs)]
        out = np.empty((size, self.n))
        pending = np.arange(size)
        while len(pending):
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


GRID_CASES = [(2, 5), (2, 16), (3, 8), (3, 32), (4, 6)]


class TestCellularGridOracle:
    @pytest.mark.parametrize("n,resolution", GRID_CASES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_grid_matches_the_per_cell_oracle(self, n, resolution, masked):
        rng = np.random.default_rng(resolution * n)
        mask = None
        if masked:
            mask = rng.random(resolution ** (n - 1)) < 0.5
            mask[resolution ** (n - 1) // 2] = True
        grid = CellularGridDensity(n, resolution, mask)
        oracle = GridOracle(n, resolution, mask)
        assert grid._weights.tobytes() == oracle.weights.tobytes()
        draws = grid.sample_batch(np.random.default_rng(9), 3000)
        expected = oracle.sample_batch(np.random.default_rng(9), 3000)
        assert draws.tobytes() == expected.tobytes()
        x = random_state(rng, n)
        for outcome in range(1, n + 1):
            assert grid.region_probability(x, outcome) == pytest.approx(
                oracle.region_probability(x, outcome), abs=1e-12
            )

    def test_results_do_not_depend_on_the_chunk_size(self, monkeypatch):
        mask = np.random.default_rng(2).random(100) < 0.6
        x = BarycentricState([0.25, 0.35, 0.4])
        whole = CellularGridDensity(3, 10, mask)
        # 75 cells a chunk for the corner test, one for the lattice
        monkeypatch.setattr(density_module, "_CHUNK_POINTS", 300)
        chunked = CellularGridDensity(3, 10, mask)
        assert chunked._weights.tobytes() == whole._weights.tobytes()
        assert chunked.region_probabilities(x) == whole.region_probabilities(x)


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
        assert rho.epsilon == 0.5

    def test_grid(self):
        rho = density_from_spec({"type": "grid", "resolution": 4}, 3)
        assert isinstance(rho, CellularGridDensity)

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
