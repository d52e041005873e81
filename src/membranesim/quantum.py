"""Finite-dimensional quantum states and their simplex representation.

Only measurements in the state's own basis are represented. There the
transition probability onto basis vector i is x_i = |a_i|^2, so the
phase of each amplitude does not enter and a state is stored as its
squared moduli alone. The simplex map sends a state to the point whose
barycentric coordinates are exactly those probabilities, so a uniform
membrane measurement of the image reproduces the quantum statistics.
"""

from __future__ import annotations

import numpy as np

from .simplex import BarycentricState


class QuantumState:
    """N-outcome pure state as its squared amplitude moduli, validated
    as the weights of a `BarycentricState`."""

    __slots__ = ("moduli_sq",)

    def __init__(self, moduli_sq):
        self.moduli_sq = BarycentricState(np.asarray(moduli_sq, dtype=float)).coords

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "QuantumState":
        return cls(np.abs(np.asarray(amplitudes, dtype=complex)) ** 2)

    def __repr__(self) -> str:
        return f"QuantumState(moduli_sq={self.moduli_sq!r})"


def to_simplex_state(psi: QuantumState) -> BarycentricState:
    """Born map: the simplex point whose barycentric coordinates are the
    transition probabilities of `psi` onto the measurement basis."""
    return BarycentricState(psi.moduli_sq)
