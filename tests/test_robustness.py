import numpy as np
import pytest

from membranesim import robustness
from membranesim.density import CentroidNeighborhood, truncate
from membranesim.montecarlo import estimate, standard_error
from membranesim.robustness import (
    dirac_limit_demo,
    perturb_state,
    robustness_sweep,
)
from membranesim.simplex import BarycentricState


class TestPerturbState:
    def test_moves_the_state(self):
        x = BarycentricState([0.5, 0.5])
        moved = perturb_state(x, [0.01, -0.01])
        assert moved.coords == pytest.approx([0.51, 0.49])

    def test_must_sum_to_zero(self):
        with pytest.raises(ValueError):
            perturb_state(BarycentricState([0.5, 0.5]), [0.01, 0.0])

    def test_must_stay_on_simplex(self):
        with pytest.raises(ValueError):
            perturb_state(BarycentricState([0.995, 0.005]), [0.01, -0.01])


class TestAnalyticSweep:
    def test_full_density_change_equals_delta(self):
        x = BarycentricState([0.495, 0.505])
        report = robustness_sweep(x, [0.01, -0.01], [1.0])
        assert report.measured[0] == pytest.approx(0.01, abs=1e-12)

    def test_half_control_doubles_the_change(self):
        x = BarycentricState([0.495, 0.505])
        report = robustness_sweep(x, [0.01, -0.01], [0.5])
        assert report.measured[0] == pytest.approx(0.02, abs=1e-12)

    def test_scaling_law_across_grid(self):
        x = BarycentricState([0.495, 0.505])
        grid = [0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
        report = robustness_sweep(x, [0.01, -0.01], grid)
        assert report.epsilon_tilde <= min(grid)
        assert report.epsilon_tilde_exact
        for measured, predicted in zip(report.measured, report.predicted):
            assert measured == pytest.approx(predicted, abs=1e-12)

    def test_zero_perturbation(self):
        x = BarycentricState([0.495, 0.505])
        report = robustness_sweep(x, [0.0, 0.0], [0.25, 0.5, 1.0])
        assert report.measured == (0.0, 0.0, 0.0)

    def test_threshold_formula(self):
        x = BarycentricState([0.48, 0.52])
        report = robustness_sweep(x, [0.01, -0.01], [1.0])
        # both states must fit in the breakable interval
        assert report.epsilon_tilde == pytest.approx(0.04)

    def test_below_threshold_law_breaks(self):
        # state outside the breakable zone: probabilities saturate
        x = BarycentricState([0.3, 0.7])
        report = robustness_sweep(x, [0.01, -0.01], [0.1])
        assert report.epsilon_tilde > 0.1
        assert report.measured[0] == 0.0 != report.predicted[0]

    def test_second_outcome(self):
        x = BarycentricState([0.495, 0.505])
        report = robustness_sweep(x, [0.01, -0.01], [0.5], outcome=2)
        assert report.measured[0] == pytest.approx(0.02, abs=1e-12)

    def test_rows_have_ratio(self):
        x = BarycentricState([0.495, 0.505])
        rows = robustness_sweep(x, [0.01, -0.01], [0.5, 1.0]).rows()
        assert [r["ratio"] for r in rows] == pytest.approx([1.0, 1.0])

    def test_needs_two_outcomes(self):
        x = BarycentricState([0.3, 0.3, 0.4])
        with pytest.raises(ValueError, match="two outcomes"):
            robustness_sweep(x, [0.01, -0.01, 0.0], [0.5])


class TestMonteCarloSweep:
    def test_matches_prediction_within_noise(self):
        x = BarycentricState([0.495, 0.505])
        grid = [0.05, 0.2, 1.0]
        report = robustness_sweep(
            x, [0.01, -0.01], grid, method="mc", n_samples=150_000, seed=4
        )
        for measured, predicted, err in zip(
            report.measured, report.predicted, report.standard_errors
        ):
            assert abs(measured - predicted) <= 3 * err

    def test_needs_a_seed(self):
        x = BarycentricState([0.495, 0.505])
        with pytest.raises(ValueError):
            robustness_sweep(x, [0.01, -0.01], [1.0], method="mc")

    def test_is_reproducible(self):
        x = BarycentricState([0.495, 0.505])
        kwargs = dict(method="mc", n_samples=50_000, seed=8)
        a = robustness_sweep(x, [0.01, -0.01], [0.5, 1.0], **kwargs)
        b = robustness_sweep(x, [0.01, -0.01], [0.5, 1.0], **kwargs)
        assert a.measured == b.measured

    def test_threads_do_not_change_the_result(self):
        x = BarycentricState([0.3, 0.3, 0.4])
        kwargs = dict(method="mc", n_samples=150_000, seed=8)
        a = robustness_sweep(x, [0.01, -0.01, 0.0], [0.5], **kwargs)
        b = robustness_sweep(x, [0.01, -0.01, 0.0], [0.5], threads=2, **kwargs)
        assert a.measured == b.measured

    def test_threshold_at_three_outcomes(self):
        # the moved state (0.32, 0.29, 0.39) sits nearest a face:
        # epsilon_tilde = (1 - 3 * 0.29)**2, a lower bound at N = 3
        x = BarycentricState([0.3, 0.3, 0.4])
        kwargs = dict(method="mc", n_samples=1000, seed=1)
        report = robustness_sweep(x, [0.02, -0.01, -0.01], [1.0], **kwargs)
        assert report.epsilon_tilde == pytest.approx(0.0169, abs=1e-12)
        assert not report.epsilon_tilde_exact

    def test_zero_prediction_has_no_ratio(self):
        x = BarycentricState([0.3, 0.3, 0.4])
        kwargs = dict(outcome=3, method="mc", n_samples=1000, seed=1)
        report = robustness_sweep(x, [0.01, -0.01, 0.0], [1.0], **kwargs)
        assert report.predicted == (0.0,)
        assert report.rows()[0]["ratio"] is None


def spy_on_estimate(monkeypatch):
    """Record every `estimate` call the sweep makes, with its result."""
    calls = []

    def spy(*args, **kwargs):
        result = estimate(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(robustness, "estimate", spy)
    return calls


#: the README sweep, and the benchmark's N = 3 state and delta
PAIRED_SWEEPS = {
    "readme-n2": ([0.495, 0.505], [0.01, -0.01], [0.02, 0.1, 0.5, 1.0]),
    "n3": ([0.3, 0.3, 0.4], [0.02, -0.01, -0.01], [0.1, 0.3, 0.5, 1.0]),
}


@pytest.mark.parametrize("case", sorted(PAIRED_SWEEPS))
class TestPairedSweep:
    N_SAMPLES = 150_003
    SEED = 5

    def sweep(self, case, monkeypatch):
        state, delta, grid = PAIRED_SWEEPS[case]
        x = BarycentricState(state)
        calls = spy_on_estimate(monkeypatch)
        report = robustness_sweep(
            x, delta, grid, method="mc", n_samples=self.N_SAMPLES, seed=self.SEED
        )
        return x, report, calls

    def test_one_draw_per_epsilon_and_the_first_state_keeps_its_stream(
        self, case, monkeypatch
    ):
        x, report, calls = self.sweep(case, monkeypatch)
        assert len(calls) == len(report.epsilon_grid)
        for idx, (eps, (args, kwargs, est)) in enumerate(
            zip(report.epsilon_grid, calls)
        ):
            assert args[0] is x and kwargs["paired"] is not x
            rho = truncate(CentroidNeighborhood(x.n_outcomes, eps))
            seq = np.random.SeedSequence(self.SEED, spawn_key=(idx, 0))
            want = estimate(x, rho, self.N_SAMPLES, seq)
            assert est.first.to_json() == want.to_json()

    def test_paired_error_is_at_most_the_independent_one(self, case, monkeypatch):
        _x, report, calls = self.sweep(case, monkeypatch)
        n, i = self.N_SAMPLES, report.outcome - 1
        for measured, err, (*_, est) in zip(
            report.measured, report.standard_errors, calls
        ):
            p_a = float(est.first.probabilities[i])
            p_b = float(est.second.probabilities[i])
            independent = np.hypot(standard_error(p_a, n), standard_error(p_b, n))
            assert 0.0 < err <= independent
            d, paired_error = est.difference(report.outcome)
            assert (measured, err) == (abs(d), paired_error)
            assert measured == pytest.approx(abs(p_b - p_a), abs=1e-15)


def test_paired_sweep_matches_the_analytic_sweep_on_the_readme_grid():
    x = BarycentricState([0.495, 0.505])
    grid = [0.02, 0.1, 0.5, 1.0]
    exact = robustness_sweep(x, [0.01, -0.01], grid)
    mc = robustness_sweep(
        x, [0.01, -0.01], grid, method="mc", n_samples=200_000, seed=1
    )
    for measured, want, err in zip(mc.measured, exact.measured, mc.standard_errors):
        assert abs(measured - want) <= 5 * err


ROBUSTNESS_REJECTIONS = {
    "perturbation of the wrong length": (
        lambda: perturb_state(BarycentricState([0.5, 0.5]), [0.1, -0.1, 0.0]),
        "perturbation dimension does not match",
    ),
    "outcome 0": (
        lambda: robustness_sweep(
            BarycentricState([0.5, 0.5]), [0.01, -0.01], [0.5], outcome=0
        ),
        "outcome must be in 1..2",
    ),
    "unknown method": (
        lambda: robustness_sweep(
            BarycentricState([0.5, 0.5]), [0.01, -0.01], [0.5], method="x"
        ),
        "method must be 'analytic' or 'mc'",
    ),
}


class TestSweepValidation:
    def test_epsilon_range(self):
        x = BarycentricState([0.495, 0.505])
        with pytest.raises(ValueError):
            robustness_sweep(x, [0.01, -0.01], [0.0])
        with pytest.raises(ValueError):
            robustness_sweep(x, [0.01, -0.01], [1.5])

    @pytest.mark.parametrize("case", sorted(ROBUSTNESS_REJECTIONS))
    def test_bad_inputs_are_rejected(self, case):
        call, message = ROBUSTNESS_REJECTIONS[case]
        with pytest.raises(ValueError, match=message):
            call()


class TestDiracLimit:
    def test_two_points_in_distinct_regions(self):
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        pts = [BarycentricState([0.5, 0.3, 0.2]), BarycentricState([0.2, 0.5, 0.3])]
        report = dirac_limit_demo(
            x, pts, [0.2, 0.1, 0.05, 0.02], n_samples=50_000, seed=11
        )
        assert report.target_distribution == (0.5, 0.0, 0.5)
        assert report.tv_distances[-1] < 0.02
        # distances shrink along the sequence, modulo noise
        slack = 3 * 0.5 / np.sqrt(50_000)
        for a, b in zip(report.tv_distances, report.tv_distances[1:]):
            assert b <= a + slack

    def test_single_point_becomes_deterministic(self):
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        lam = BarycentricState([0.55, 0.15, 0.3])
        report = dirac_limit_demo(x, [lam], [0.05, 0.01], n_samples=20_000, seed=3)
        assert report.distributions[-1] == pytest.approx((0.0, 1.0, 0.0))

    def test_points_in_one_region_classify_together(self):
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        pts = [
            BarycentricState([0.1, 0.5, 0.4]),
            BarycentricState([0.15, 0.35, 0.5]),
            BarycentricState([0.2, 0.55, 0.25]),
        ]
        report = dirac_limit_demo(x, pts, [0.05, 0.01], n_samples=20_000, seed=7)
        assert report.target_distribution == (1.0, 0.0, 0.0)
        assert report.distributions[-1] == pytest.approx((1.0, 0.0, 0.0))

    def test_target_is_the_exact_mixture_probability(self):
        # three of five points in region 1: the target is float(3/5), not
        # a float sum of five 1/5 terms
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        pts = [
            BarycentricState([0.1, 0.5, 0.4]),
            BarycentricState([0.15, 0.35, 0.5]),
            BarycentricState([0.2, 0.55, 0.25]),
            BarycentricState([0.5, 0.3, 0.2]),
            BarycentricState([0.3, 0.2, 0.5]),
        ]
        report = dirac_limit_demo(x, pts, [0.01], n_samples=1000, seed=1)
        assert report.target_distribution == (0.6, 0.2, 0.2)

    def test_threads_do_not_change_the_result(self):
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        pts = [BarycentricState([0.5, 0.3, 0.2]), BarycentricState([0.2, 0.5, 0.3])]
        a = dirac_limit_demo(x, pts, [0.1], n_samples=150_000, seed=2)
        b = dirac_limit_demo(x, pts, [0.1], n_samples=150_000, seed=2, threads=2)
        assert a.distributions == b.distributions

    def test_needs_seed_and_distinct_points(self):
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        lam = BarycentricState([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            dirac_limit_demo(x, [lam], [0.1])
        with pytest.raises(ValueError):
            dirac_limit_demo(x, [lam, lam], [0.1], seed=1)

    def test_oversized_balls_fail_upfront(self):
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        pts = [BarycentricState([0.5, 0.3, 0.2]), BarycentricState([0.2, 0.5, 0.3])]
        with pytest.raises(ValueError):
            dirac_limit_demo(x, pts, [0.9, 0.1], n_samples=100, seed=1)


@pytest.mark.parametrize("bad_epsilon", [0.0, 1.5])
def test_every_epsilon_is_checked_before_any_sampling(bad_epsilon, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("sampling started before every epsilon was checked")

    monkeypatch.setattr(robustness, "estimate", must_not_run)
    x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
    grid = [0.5, bad_epsilon]
    with pytest.raises(ValueError, match="epsilon"):
        robustness_sweep(
            x, [0.01, -0.01, 0.0], grid, method="mc", n_samples=100, seed=1
        )
    pts = [BarycentricState([0.5, 0.3, 0.2])]
    with pytest.raises(ValueError, match="epsilon"):
        dirac_limit_demo(x, pts, [0.01, bad_epsilon], n_samples=100, seed=1)
