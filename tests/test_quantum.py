import warnings

import numpy as np
import pytest

from membranesim.density import UniformDensity
from membranesim.quantum import QuantumState, born_probabilities, to_simplex_state


def test_phases_drop_out():
    psi = QuantumState([0.5, 0.5], [0.0, np.pi])
    assert born_probabilities(psi) == pytest.approx([0.5, 0.5])


def test_eigenstate():
    psi = QuantumState([0.0, 1.0, 0.0])
    assert born_probabilities(psi) == pytest.approx([0.0, 1.0, 0.0])


def test_weights_pass_through_whatever_the_phases():
    weights = [0.2, 0.3, 0.5]
    rng = np.random.default_rng(8)
    reference = born_probabilities(QuantumState(weights))
    for _ in range(25):
        psi = QuantumState(weights, rng.uniform(-np.pi, np.pi, 3))
        # exact equality: the output is a function of the weights alone
        assert np.array_equal(born_probabilities(psi), reference)


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
        assert abs(born_probabilities(psi).sum() - 1.0) < 1e-12


def test_from_amplitudes():
    amps = np.sqrt([0.2, 0.3, 0.5]) * np.exp(1j * np.array([0.3, -1.0, 2.0]))
    psi = QuantumState.from_amplitudes(amps)
    assert born_probabilities(psi) == pytest.approx([0.2, 0.3, 0.5])
    assert psi.phases == pytest.approx([0.3, -1.0, 2.0])


def test_simplex_map_examples():
    assert to_simplex_state(QuantumState([0.5, 0.5], [0.3, 1.1])).coords == (
        pytest.approx([0.5, 0.5])
    )
    assert to_simplex_state(QuantumState([1.0, 0.0])).coords == pytest.approx([1, 0])


def test_uniform_measurement_of_image_matches_born_rule():
    rng = np.random.default_rng(21)
    for n in range(2, 7):
        psi = QuantumState(rng.dirichlet(np.ones(n)), rng.uniform(0, 1, n))
        state = to_simplex_state(psi)
        rho = UniformDensity(n)
        probs = [rho.region_probability(state, i) for i in range(1, n + 1)]
        assert probs == pytest.approx(born_probabilities(psi))


def test_phases_default_to_zero_and_length_checked():
    psi = QuantumState([0.4, 0.6])
    assert psi.phases == pytest.approx([0.0, 0.0])
    with pytest.raises(ValueError):
        QuantumState([0.4, 0.6], [0.1])


def test_phases_are_copied_not_frozen_in_place():
    phases = np.array([0.1, 0.2])
    psi = QuantumState([0.5, 0.5], phases)
    assert phases.flags.writeable
    assert not psi.phases.flags.writeable
    phases[0] = 3.0
    assert psi.phases.tolist() == [0.1, 0.2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_phases_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        QuantumState([0.5, 0.5], [0.0, bad])
