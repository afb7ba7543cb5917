"""Classical estimate-then-prepare baseline."""

from __future__ import annotations

from .qmath import require_supply


def estimation_fidelity(n: int) -> float:
    """Optimal estimate-and-prepare fidelity (n+1)/(n+2) from measuring n copies.

    Strictly increasing in n and independent of the channel quality, since
    no quantum channel is involved.
    """
    n = require_supply(n)
    return (n + 1) / (n + 2)
