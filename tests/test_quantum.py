import warnings

import numpy as np
import pytest

from membranesim.density import UniformDensity
from membranesim.montecarlo import estimate
from membranesim.quantum import QuantumState, to_simplex_state


def random_amplitudes(rng, n):
    """Complex amplitudes with Dirichlet squared moduli and random phases."""
    moduli = np.sqrt(rng.dirichlet(np.ones(n)))
    return moduli * np.exp(1j * rng.uniform(-np.pi, np.pi, n))


def test_eigenstate():
    psi = QuantumState([0.0, 1.0, 0.0])
    assert to_simplex_state(psi).coords == pytest.approx([0.0, 1.0, 0.0])


def test_normalization_is_enforced():
    with pytest.raises(ValueError):
        QuantumState([0.5, 0.6])
    with pytest.raises(ValueError):
        QuantumState([0.5, -0.5, 1.0])


def test_non_finite_moduli_are_rejected():
    with pytest.raises(ValueError, match="finite"):
        QuantumState([np.nan, 1.0])


def test_two_dimensional_moduli_are_rejected():
    with pytest.raises(ValueError):
        QuantumState(np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_overflowing_moduli_are_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sum to inf"):
            QuantumState([1e308, 1e308])


def test_output_sums_to_one():
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        psi = QuantumState(rng.dirichlet(np.ones(n)))
        assert abs(to_simplex_state(psi).coords.sum() - 1.0) < 1e-12


def test_from_amplitudes():
    amps = np.sqrt([0.2, 0.3, 0.5]) * np.exp(1j * np.array([0.3, -1.0, 2.0]))
    psi = QuantumState.from_amplitudes(amps)
    assert to_simplex_state(psi).coords == pytest.approx([0.2, 0.3, 0.5])


def test_simplex_map_examples():
    amps = np.sqrt(0.5) * np.exp(1j * np.array([0.3, 1.1]))
    assert to_simplex_state(QuantumState.from_amplitudes(amps)).coords == (
        pytest.approx([0.5, 0.5])
    )
    assert to_simplex_state(QuantumState([1.0, 0.0])).coords == pytest.approx([1, 0])


def test_simplex_map_is_the_squared_moduli_whatever_the_phases():
    rng = np.random.default_rng(8)
    for n in range(2, 7):
        amps = random_amplitudes(rng, n)
        x = to_simplex_state(QuantumState.from_amplitudes(amps)).coords
        np.testing.assert_allclose(x, np.abs(amps) ** 2, rtol=0, atol=1e-15)
        for theta in rng.uniform(-np.pi, np.pi, 5):
            shifted = amps * np.exp(1j * theta)
            relative = amps * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            for a in (shifted, relative):
                y = to_simplex_state(QuantumState.from_amplitudes(a)).coords
                np.testing.assert_allclose(y, x, rtol=0, atol=1e-15)


def test_uniform_measurement_of_image_matches_born_rule():
    rng = np.random.default_rng(21)
    for n in range(2, 7):
        psi = QuantumState(rng.dirichlet(np.ones(n)))
        state = to_simplex_state(psi)
        rho = UniformDensity(n)
        probs = [rho.region_probability(state, i) for i in range(1, n + 1)]
        assert probs == pytest.approx(psi.moduli_sq)


def test_sampled_uniform_measurement_of_image_matches_born_rule():
    # the region integrals above are the state's own coordinates; here
    # the membrane actually breaks, 200k times per state
    rng = np.random.default_rng(34)
    n_samples = 200_000
    for n in range(2, 7):
        amps = random_amplitudes(rng, n)
        born = np.abs(amps) ** 2
        psi = QuantumState.from_amplitudes(amps)
        est = estimate(to_simplex_state(psi), UniformDensity(n), n_samples, 5)
        standard_errors = np.sqrt(born * (1.0 - born) / n_samples)
        assert np.all(np.abs(est.probabilities - born) <= 5.0 * standard_errors)
