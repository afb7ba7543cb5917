"""Classical estimate-then-prepare baseline."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EstimationResult:
    """Best average fidelity achievable by measuring n copies and re-preparing."""

    n: int
    fidelity: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")


def estimation_fidelity(n: int) -> EstimationResult:
    """Optimal estimate-and-prepare fidelity (n+1)/(n+2).

    Strictly increasing in n and independent of the channel quality, since
    no quantum channel is involved.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return EstimationResult(n=n, fidelity=(n + 1) / (n + 2))
