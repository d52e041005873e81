"""Perturbation response of controlled measurements.

A sweep compares the collapse probabilities of two nearby states under
truncated uniform densities whose unbreakable control region grows as
epsilon shrinks. Above the geometry threshold epsilon_tilde, where the
zone swept by the moving region boundaries stays breakable, the change
obeys |dP_i| = |dx_i| / epsilon, so control (small epsilon) buys
determinism at the price of sensitivity, and the uncontrolled
measurement (epsilon = 1) is the most robust one.

A sweep has one control geometry: it leaves breakable a simplex-shaped
neighbourhood of the centroid. For two outcomes its covering threshold
is exact: the swept zone is the segment between the two states, and it
lies in the breakable interval exactly when epsilon >= epsilon_tilde =
max over the two states of |2 x1 - 1|. For more outcomes the swept
zone fans out to the simplex corners, and reported thresholds are
centroid-specific lower bounds; sweeps then run on the Monte Carlo
path.

The Monte Carlo path draws each epsilon's breaking points once and
classifies every draw against both states (common random numbers), so
only the draws in the swept zone carry the difference, and the reported
standard error is the paired one of that difference. Its stream is
version SWEEP_STREAM_VERSION.

Driving epsilon to zero instead, with ball-shaped breakable zones
around chosen points, concentrates the density on those points and the
measurement becomes a mixture of deterministic collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import (
    BallComplement,
    CentroidNeighborhood,
    DiracMixtureDensity,
    TruncatedUniformDensity,
    truncate,
)
from .montecarlo import estimate
from .simplex import SUM_TOL, BarycentricState

#: version of the Monte Carlo sweep's random stream: 2 since each epsilon
#: draws one stream, spawn key (index, 0), for both states. Version 1,
#: every earlier stream, carries no version field.
SWEEP_STREAM_VERSION = 2


@dataclass(frozen=True)
class RobustnessReport:
    """Measured versus predicted probability changes along an epsilon grid."""

    outcome: int
    delta: float
    epsilon_grid: tuple[float, ...]
    measured: tuple[float, ...]
    predicted: tuple[float, ...]
    standard_errors: tuple[float, ...]
    epsilon_tilde: float
    epsilon_tilde_exact: bool
    method: str

    def rows(self) -> list[dict]:
        """One row per epsilon; Monte Carlo rows also carry the measured
        value's standard error."""
        out = []
        for eps, meas, pred, err in zip(
            self.epsilon_grid, self.measured, self.predicted, self.standard_errors
        ):
            row = {
                "epsilon": eps,
                "measured": meas,
                "predicted": pred,
                "ratio": meas / pred if pred else None,
            }
            if self.method == "mc":
                row["standard_error"] = err
            out.append(row)
        return out


def perturb_state(x: BarycentricState, delta_x) -> BarycentricState:
    """State x + delta for a perturbation with components summing to zero."""
    delta = np.asarray(delta_x, dtype=float)
    if delta.shape != x.coords.shape:
        raise ValueError("perturbation dimension does not match the state")
    if abs(delta.sum()) > SUM_TOL:
        raise ValueError("perturbation components must sum to zero")
    moved = x.coords + delta
    if moved.min() < 0.0:
        raise ValueError("perturbation pushes the state off the simplex")
    return BarycentricState(moved)


def robustness_sweep(
    x: BarycentricState,
    delta_x,
    epsilon_grid,
    outcome: int = 1,
    method: str = "analytic",
    n_samples: int = 200_000,
    seed=None,
    threads: int = 1,
) -> RobustnessReport:
    """Measure |dP_outcome| across an epsilon grid and compare with
    |dx_outcome| / epsilon.

    The control region is the centroid neighbourhood; the region for
    every epsilon is built, and so validated, before any sampling. The
    analytic path needs two outcomes. The Monte Carlo path needs a seed
    and runs on `threads` workers: for each epsilon, one `estimate` call
    draws `n_samples` points from SeedSequence(seed, spawn_key=(idx, 0))
    and classifies each against both states, and the report carries the
    paired standard error of each measured value. A zero prediction has
    ratio None. The report flags the threshold epsilon where the scaling
    law starts to hold: exact for two outcomes, a lower bound otherwise.
    """
    n = x.n_outcomes
    if not 1 <= outcome <= n:
        raise ValueError(f"outcome must be in 1..{n}")
    if method not in ("analytic", "mc"):
        raise ValueError("method must be 'analytic' or 'mc'")
    if method == "analytic" and n != 2:
        raise ValueError("the analytic path needs two outcomes; use method 'mc'")
    if method == "mc" and seed is None:
        raise ValueError("the Monte Carlo path needs a seed")
    x_moved = perturb_state(x, delta_x)
    delta_i = float(np.asarray(delta_x, dtype=float)[outcome - 1])
    epsilon_tilde = CentroidNeighborhood.min_epsilon_covering([x, x_moved])

    grid = [float(e) for e in epsilon_grid]
    densities = [truncate(CentroidNeighborhood(n, e)) for e in grid]
    measured, predicted, errors = [], [], []
    for idx, (eps, density) in enumerate(zip(grid, densities)):
        if method == "analytic":
            p_a = float(density.region_probability(x, outcome))
            p_b = float(density.region_probability(x_moved, outcome))
            change = p_b - p_a
            err = 0.0
        else:
            seq = np.random.SeedSequence(seed, spawn_key=(idx, 0))
            est = estimate(x, density, n_samples, seq, threads, paired=x_moved)
            change, err = est.difference(outcome)
        measured.append(abs(change))
        predicted.append(abs(delta_i) / eps)
        errors.append(err)
    return RobustnessReport(
        outcome=outcome,
        delta=delta_i,
        epsilon_grid=tuple(grid),
        measured=tuple(measured),
        predicted=tuple(predicted),
        standard_errors=tuple(errors),
        epsilon_tilde=epsilon_tilde,
        epsilon_tilde_exact=n == 2,
        method=method,
    )


@dataclass(frozen=True)
class DiracLimitReport:
    """Outcome distributions along a shrinking-epsilon sequence."""

    epsilon_sequence: tuple[float, ...]
    distributions: tuple[tuple[float, ...], ...]
    tv_distances: tuple[float, ...]
    target_distribution: tuple[float, ...]

    def rows(self) -> list[dict]:
        return [
            {"epsilon": eps, "tv_distance": tv}
            for eps, tv in zip(self.epsilon_sequence, self.tv_distances)
        ]


def dirac_limit_demo(
    x: BarycentricState,
    points,
    epsilon_sequence,
    n_samples: int = 100_000,
    seed=None,
    threads: int = 1,
) -> DiracLimitReport:
    """Shrink ball-shaped breakable zones around `points` and watch the
    outcome distribution converge to the classification of the points.

    The target distribution is the exact region probabilities of the
    uniform point-mass mixture on `points`, each rounded to float once.
    The ball-shaped zone for every epsilon is built before any sampling,
    so an epsilon outside (0, 1], coincident or overlapping balls, or a
    ball poking out of the simplex fail first.
    """
    if seed is None:
        raise ValueError("the Dirac limit demo samples; it needs a seed")
    points = list(points)
    eps_seq = [float(e) for e in epsilon_sequence]
    densities = [TruncatedUniformDensity(BallComplement(points, e)) for e in eps_seq]
    mixture = DiracMixtureDensity(points)
    target = np.array(mixture.region_probabilities(x), dtype=float)

    distributions, tvs = [], []
    for idx, density in enumerate(densities):
        seq = np.random.SeedSequence(seed, spawn_key=(idx,))
        est = estimate(x, density, n_samples, seq, threads)
        probs = est.probabilities
        distributions.append(tuple(float(p) for p in probs))
        tvs.append(float(0.5 * np.abs(probs - target).sum()))
    return DiracLimitReport(
        epsilon_sequence=tuple(eps_seq),
        distributions=tuple(distributions),
        tv_distances=tuple(tvs),
        target_distribution=tuple(float(t) for t in target),
    )
