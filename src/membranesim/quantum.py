"""Finite-dimensional quantum states and their simplex representation.

A normalized pure state is stored in polar form: outcome weights x_i
(the squared amplitude moduli) plus phases alpha_i. Transition
probabilities onto the measurement basis depend on the weights only,
and the simplex map sends a state to the point whose barycentric
coordinates are exactly those probabilities, so a uniform membrane
measurement of the image reproduces the quantum statistics.
"""

from __future__ import annotations

import numpy as np

from .simplex import BarycentricState


class QuantumState:
    """N-outcome pure state in polar (weight, phase) form.

    `moduli_sq` are the squared amplitude moduli, validated as the
    weights of a `BarycentricState`; `phases` are radians and default to
    zero.
    """

    __slots__ = ("moduli_sq", "phases")

    def __init__(self, moduli_sq, phases=None):
        m = BarycentricState(np.asarray(moduli_sq, dtype=float)).coords
        if phases is None:
            p = np.zeros(m.size)
        else:
            p = np.array(phases, dtype=float)
            if p.shape != m.shape:
                raise ValueError("phases must match the amplitudes in length")
            if not np.all(np.isfinite(p)):
                raise ValueError("phases must be finite")
        p.flags.writeable = False
        self.moduli_sq = m
        self.phases = p

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "QuantumState":
        a = np.asarray(amplitudes, dtype=complex)
        return cls(np.abs(a) ** 2, np.angle(a))

    @property
    def n_outcomes(self) -> int:
        return self.moduli_sq.size

    def __repr__(self) -> str:
        return f"QuantumState(moduli_sq={self.moduli_sq!r}, phases={self.phases!r})"


def born_probabilities(psi: QuantumState) -> np.ndarray:
    """Transition probabilities onto the measurement basis.

    The squared projection of the state onto basis vector i is x_i, so
    phases drop out entirely; the result sums to one by the state
    invariant.
    """
    return psi.moduli_sq.copy()


def to_simplex_state(psi: QuantumState) -> BarycentricState:
    """Simplex point whose barycentric coordinates are the transition
    probabilities of `psi`."""
    return BarycentricState(born_probabilities(psi))
