"""Classical estimate-then-prepare baseline."""

from __future__ import annotations

from dataclasses import dataclass

from .qmath import require_supply


@dataclass(frozen=True)
class EstimationResult:
    """Best average fidelity achievable by measuring n copies and re-preparing."""

    n: int
    fidelity: float


def estimation_fidelity(n: int) -> EstimationResult:
    """Optimal estimate-and-prepare fidelity (n+1)/(n+2).

    Strictly increasing in n and independent of the channel quality, since
    no quantum channel is involved.
    """
    n = require_supply(n)
    return EstimationResult(n=n, fidelity=(n + 1) / (n + 2))
