"""Teleportation through a noisy entangled pair.

The shared pair is a Werner state with parameter lam, so the receiver ends
up with a two-component mixture of the input state and its orthogonal
complement. This module provides the closed-form mixture and fidelity plus
a full three-qubit density-matrix simulation of the protocol that serves
as an independent oracle for both.
"""

from __future__ import annotations

import numpy as np

from . import qmath
from .qmath import BlochAngles, require_lambda

#: Below this channel quality the orthogonal component dominates the output.
LAMBDA_CRIT = 0.25

# Outcome-conditioned corrections of the standard protocol; validated
# end to end by the lam=1 identity check in the tests.
_CORRECTIONS = {
    "phi+": qmath.ID2,
    "psi+": qmath.SIGMA_X,
    "phi-": qmath.SIGMA_Z,
    "psi-": qmath.SIGMA_X @ qmath.SIGMA_Z,
}


def mixture_weights(lam: float | np.ndarray) -> tuple:
    """Output mixture weights (c1, c0) = ((1+2*lam)/3, 2*(1-lam)/3) of one teleportation.

    The single source of the mixture for every module. Accepts the full
    mathematical range [0, 1], like the other closed forms; the strategies
    enforce the protocol range [LAMBDA_CRIT, 1] at their own entry points.
    Works elementwise on an array of lam values.
    """
    require_lambda(lam)
    return (1.0 + 2.0 * lam) / 3.0, 2.0 * (1.0 - lam) / 3.0


def single_shot_fidelity(lam: float) -> float:
    """Fidelity (2*lam+1)/3 of a single run of the protocol.

    Accepts the full mathematical range [0, 1]; protocol-level callers
    enforce the [1/4, 1] restriction themselves. The value at lam = 1/4 is
    exactly 1/2, the fidelity of a completely mixed output.
    """
    require_lambda(lam)
    return (2.0 * lam + 1.0) / 3.0


def _teleport_branches(lam: float, angles: BlochAngles):
    """Per-outcome (label, probability, corrected unnormalized receiver state)."""
    psi = qmath.bloch_to_ket(angles)
    rho = qmath.tensor(np.outer(psi, psi.conj()), qmath.werner_density(lam))
    branches = []
    for label in qmath.BELL_LABELS:
        bell = qmath.bell_state(label)
        proj = qmath.tensor(np.outer(bell, bell.conj()), qmath.ID2)
        selected = proj @ rho @ proj
        prob = float(np.real(np.trace(selected)))
        receiver = qmath.partial_trace(selected, keep=[2])
        correction = _CORRECTIONS[label]
        branches.append((label, prob, correction @ receiver @ correction.conj().T))
    return branches


def teleport_oracle(lam: float, angles: BlochAngles) -> np.ndarray:
    """Receiver's averaged 2x2 output state from a full protocol simulation.

    Builds |psi><psi| (x) werner(lam) on three qubits (input, sender half,
    receiver half), measures the two sender qubits in the Bell basis,
    applies the outcome-conditioned Pauli correction, and averages the
    corrected states over the four outcomes.
    """
    total = np.zeros((2, 2), dtype=complex)
    for _, _, state in _teleport_branches(lam, angles):
        total += state
    return total


def teleport_outcome_probabilities(lam: float, angles: BlochAngles) -> dict[str, float]:
    """Probability of each Bell outcome in the sender's measurement."""
    return {label: prob for label, prob, _ in _teleport_branches(lam, angles)}


def output_state(lam: float, angles: BlochAngles) -> np.ndarray:
    """Closed-form receiver state c1|psi><psi| + c0|psi_bar><psi_bar|."""
    c1, c0 = mixture_weights(lam)
    psi = qmath.bloch_to_ket(angles)
    psi_bar = qmath.orthogonal_ket(angles)
    return c1 * np.outer(psi, psi.conj()) + c0 * np.outer(psi_bar, psi_bar.conj())
