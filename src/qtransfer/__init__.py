"""Finite-resource qubit transfer over a noisy entanglement channel.

Exact average fidelities, Monte Carlo cross-checks, and break-even
analysis for three ways to move an unknown qubit from a sender to a
receiver when only N noisy entangled pairs (or N copies of the qubit) are
available: purify the channel and teleport once, teleport every copy and
purify the copies collectively, or estimate the state classically and
re-prepare it.
"""

from __future__ import annotations

from . import channel, cli, compare, entpur, estimate, qmath, qubitpur, validation
from .channel import LAMBDA_CRIT, single_shot_fidelity, teleport_oracle
from .compare import (
    AmbiguousCrossingError,
    CrossingResult,
    SweepRow,
    crossing_points,
    effective_entpur_fidelity,
    recommend,
    sweep,
)
from .entpur import (
    EntPurResult,
    expected_fidelity_dp,
    mc_simulate,
    pass_probability,
    purified_bell_diagonal,
    purify_lambda,
    step_oracle,
)
from .estimate import EstimationResult, estimation_fidelity
from .qmath import BellDiagonal, BlochAngles, bloch_to_ket, fidelity_pure, werner_density
from .qubitpur import (
    OutcomeDistribution,
    QubitPurResult,
    average_fidelity,
    multiplicity,
    outcome_distribution,
    reduced_state_quadrature_oracle,
    single_qubit_fidelity,
    spin_projector_oracle,
)

__version__ = "0.1.0"
