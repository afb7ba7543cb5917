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

__version__ = "0.1.0"
