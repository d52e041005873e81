"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; every tolerance is fixed here, nothing is calibrated at run
time.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from membranesim.density import (
    Cellular1DDensity,
    CellularMask,
    UniformDensity,
    cellular_approximation,
)
from membranesim.montecarlo import estimate, standard_error
from membranesim.robustness import dirac_limit_demo, robustness_sweep
from membranesim.simplex import BarycentricState
from membranesim.universal import (
    binomial_identity_a,
    binomial_identity_b,
    recurrence_step_check,
    universal_average_1d,
    universal_average_abstract,
)


@contextmanager
def criterion(name):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}  ({time.time() - start:.1f}s)")


def test_criterion_1_uniform_estimates_reproduce_the_state():
    """Monte Carlo estimates under the uniform density match the state
    coordinates to 0.004 at one million samples, five outcome counts,
    ten random states each."""
    with criterion("1 uniform-density estimates reproduce state coordinates"):
        worst = 0.0
        for n in range(2, 7):
            rho = UniformDensity(n)
            state_rng = np.random.default_rng(1000 + n)
            for trial in range(10):
                x = BarycentricState(state_rng.dirichlet(np.ones(n)))
                est = estimate(x, rho, 1_000_000, seed=100 * n + trial, threads=4)
                err = np.abs(est.probabilities - x.coords).max()
                worst = max(worst, float(err))
        assert worst < 0.004, f"worst deviation {worst}"


def test_criterion_2_mask_average_equals_uniform_for_all_small_n():
    """Exact enumeration: the average over all nonzero masks equals
    (n - i)/n for every n <= 16 and every interior position. Zero
    tolerance."""
    with criterion("2 mask average equals uniform value, n <= 16, exact"):
        for n in range(2, 17):
            for i in range(1, n):
                assert universal_average_1d(n, i) == Fraction(n - i, n)


def test_criterion_3_two_cell_worked_example():
    """The three two-cell structures give 1/2, 1, 0 for the left end and
    average exactly 1/2."""
    with criterion("3 two-cell structures: 1/2, 1, 0, average 1/2"):
        x = BarycentricState([Fraction(1, 2), Fraction(1, 2)])
        values = {
            mask: Cellular1DDensity(
                CellularMask.from_string(mask)
            ).region_probabilities(x)[1]
            for mask in ("bb", "ub", "bu")
        }
        assert values["bb"] == Fraction(1, 2)
        assert values["ub"] == 1
        assert values["bu"] == 0
        assert sum(values.values(), Fraction(0)) / 3 == Fraction(1, 2)
        assert universal_average_1d(2, 1) == Fraction(1, 2)


def test_criterion_4_binomial_identities_up_to_sixty():
    """Both combinatorial identities hold exactly for all n <= 60."""
    with criterion("4 binomial identities exact for n <= 60"):
        for n in range(61):
            lhs_a, rhs_a = binomial_identity_a(n)
            lhs_b, rhs_b = binomial_identity_b(n)
            assert lhs_a == rhs_a
            assert lhs_b == rhs_b


def test_criterion_5_recurrence_intermediates_match_closed_forms():
    """Every intermediate sum of the induction step matches its closed
    form for n <= 12, all positions, with the binomial index convention
    settled by enumeration."""
    with criterion("5 induction-step sums match closed forms, n <= 12"):
        for n in range(3, 13):
            for i in range(1, n - 1):
                report = recurrence_step_check(n, i)
                assert report.all_match, (n, i)
                assert report.index_convention == "n-1"


def test_criterion_6_linearised_region_average():
    """The multidimensional linearisation gives (n_c - i)/n_c exactly for
    n_c <= 16, including the 16-cell configuration with a 12-cell
    region... scaled from the 32-cell picture: here 16 cells, 6 in the
    region, average 3/8."""
    with criterion("6 linearised region average (n_c - i)/n_c, n_c <= 16"):
        for n_c in range(1, 17):
            for i in range(n_c + 1):
                assert universal_average_abstract(n_c, i) == Fraction(n_c - i, n_c)
        assert universal_average_abstract(16, 10) == Fraction(3, 8)


def test_criterion_7_cellular_approximation_converges_on_the_ramp():
    """For the linear-ramp target, the 64x64 cellular approximation is
    within 0.02 of the closed-form value at the midpoint and strictly
    better than the 8x8 one."""
    with criterion("7 ramp approximation: 64x64 below 0.02 and below 8x8"):
        ramp_cdf = lambda u: u * u  # closed-form integral of the ramp
        x = BarycentricState([0.5, 0.5])
        exact = ramp_cdf(0.5)
        errors = {}
        for m in (8, 64):
            rho = cellular_approximation(ramp_cdf, m, m)
            errors[m] = abs(float(rho.region_probability(x, 1)) - exact)
        assert errors[64] < 0.02, errors
        assert errors[64] < errors[8], errors


def test_criterion_8_robustness_scaling_law():
    """With the default control geometry and a 0.01 perturbation of the
    first coordinate, measured |dP_1| * epsilon is constant (= 0.01)
    across the grid from epsilon_tilde to 1: exactly on the analytic
    two-outcome path, within 3 sigma on the Monte Carlo path."""
    with criterion("8 scaling law |dP|*eps constant from eps_tilde to 1"):
        x = BarycentricState([0.495, 0.505])
        delta = [0.01, -0.01]
        grid = [0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0]

        analytic = robustness_sweep(x, delta, grid, method="analytic")
        assert analytic.epsilon_tilde <= grid[0] + 1e-12
        products = [m * e for m, e in zip(analytic.measured, analytic.epsilon_grid)]
        for product in products:
            assert product == pytest.approx(0.01, abs=1e-12)
        spread = (max(products) - min(products)) / 0.01
        assert spread <= 0.05

        mc = robustness_sweep(
            x, delta, grid, method="mc", n_samples=150_000, seed=2024
        )
        for measured, predicted, err in zip(
            mc.measured, mc.predicted, mc.standard_errors
        ):
            assert abs(measured - predicted) <= 3 * err


def test_criterion_9_dirac_limit_reaches_the_two_point_mixture():
    """With two shrinking breakable balls in distinct regions, the
    outcome distribution ends within total-variation 0.01 of the
    half-half mixture over the two regions."""
    with criterion("9 two-ball limit within TV 0.01 of the half-half mix"):
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        points = [
            BarycentricState([0.5, 0.3, 0.2]),
            BarycentricState([0.2, 0.5, 0.3]),
        ]
        report = dirac_limit_demo(
            x,
            points,
            [0.2, 0.1, 0.05, 0.02, 0.01],
            n_samples=200_000,
            seed=99,
        )
        assert report.target_distribution == (0.5, 0.0, 0.5)
        assert report.tv_distances[-1] < 0.01
