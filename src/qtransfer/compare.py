"""Head-to-head comparison of the three transfer strategies.

Includes the discard-to-odd rule for the purification strategy (an even
supply keeps a strictly weaker guarantee than the next odd one down, so
one pair is dropped), grid sweeps of all strategies, and a bracketed root
finder for the channel quality at which each purification strategy breaks
even with the classical estimation baseline.

Tables evaluate each strategy once per N over a whole lambda0 grid, with
`entpur.expected_fidelity_grid` and `qubitpur.average_fidelity_grid`:
`sweep` for its rows, `crossing_points` for its 64-point prescan. The
Illinois steps that refine each crossing to float resolution after the
prescan, and every single-point query, use the single-point evaluators,
which are faster for one lambda0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entpur, estimate, qubitpur

METHOD_NAMES = ("ent_pur", "estimation", "qubit_pur")

_PRESCAN_LAMBDAS = np.linspace(0.25, 1.0, 64)
_SPARE_STEPS = 3


class AmbiguousCrossingError(RuntimeError):
    """The prescan found more than one sign change, so any one root would be arbitrary."""

    def __init__(self, n: int, method: str, brackets):
        self.n = n
        self.method = method
        self.brackets = tuple(brackets)
        super().__init__(
            f"{method} fidelity crosses the estimation baseline more than once for N={n}; "
            f"brackets: {self.brackets}")


@dataclass(frozen=True)
class SweepRow:
    """One (method, n, lambda0) evaluation of a strategy's average fidelity."""

    method: str
    n: int
    lambda0: float
    fidelity: float

    def __post_init__(self):
        if not 0.5 - 1e-12 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError("fidelity must lie in [1/2, 1]")


@dataclass(frozen=True)
class CrossingResult:
    """Break-even channel qualities of both purification strategies against estimation.

    `tolerance` is the width of the wider of the two final brackets, each
    of which holds a sign change of its strategy's gap to the baseline.
    """

    n: int
    lambda_1: float | None
    lambda_2: float | None
    tolerance: float

    def __post_init__(self):
        for value in (self.lambda_1, self.lambda_2):
            if value is not None and not 0.25 < value < 1.0:
                raise ValueError("crossing values must lie in (1/4, 1)")
        if (self.n > 2 and self.lambda_1 is not None and self.lambda_2 is not None
                and self.lambda_2 > self.lambda_1 + 2.0 * self.tolerance):
            raise ValueError("the teleport-then-purify crossing cannot exceed the "
                             "channel-purification crossing")


def _odd_supply(n: int) -> int:
    """Pairs the purification strategy runs on under the discard-to-odd rule.

    Odd n runs as is; even n runs on n-1 pairs, which is better on average
    because an odd run can never lose every pair.
    """
    return n if n % 2 == 1 else n - 1


def effective_entpur_fidelity(n: int, lam0: float) -> float:
    """Purification-strategy fidelity with the discard-to-odd rule applied."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return entpur.expected_fidelity_dp(_odd_supply(n), lam0).expected_fidelity


def _evaluate_grid(method: str, n: int, lambdas: list[float]) -> list[float]:
    if method == "ent_pur":
        return entpur.expected_fidelity_grid(n, lambdas).tolist()
    if method == "qubit_pur":
        return qubitpur.average_fidelity_grid(n, lambdas).tolist()
    return [estimate.estimation_fidelity(n).fidelity] * len(lambdas)


def sweep(methods, n_values, lambda_grid) -> list[SweepRow]:
    """Evaluate the named strategies on the full (n, lambda0) grid.

    Rows come out ordered by method name, then n, then lambda0, all
    ascending, regardless of the input ordering. The ent_pur rows report
    the raw run on exactly n pairs (so the even/odd structure is visible);
    the discard-to-odd rule is applied by effective_entpur_fidelity and by
    crossing_points, which is how the strategies are actually compared.
    """
    methods = sorted(set(methods))
    if not methods:
        raise ValueError("at least one method is required")
    unknown = [m for m in methods if m not in METHOD_NAMES]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected a subset of {METHOD_NAMES}")
    n_values = sorted({int(n) for n in n_values})
    if not n_values:
        raise ValueError("at least one n value is required")
    if n_values[0] < 1:
        raise ValueError("n values must be positive")
    lambdas = sorted({float(l) for l in lambda_grid})
    if not lambdas:
        raise ValueError("at least one lambda0 value is required")
    if lambdas[0] <= 0.25 or lambdas[-1] >= 1.0:
        raise ValueError("lambda0 grid values must lie strictly inside (1/4, 1)")
    return [SweepRow(method=m, n=n, lambda0=lam, fidelity=fidelity)
            for m in methods for n in n_values
            for lam, fidelity in zip(lambdas, _evaluate_grid(m, n, lambdas))]


def _find_crossing(gap, prescan_gaps: np.ndarray, n: int,
                   method: str) -> tuple[float | None, float]:
    """Unique root of `gap` on [1/4, 1] and the width of its final bracket.

    `prescan_gaps` holds the values of `gap` on `_PRESCAN_LAMBDAS`, from one
    grid evaluation, which equals the single-point `gap` bit for bit, so
    its ends start the refinement. Its one sign change is refined with
    single-point `gap` values by Illinois steps (Dowell and Jarratt 1971:
    regula falsi that halves the secant weight of an end kept twice in a
    row), until no float lies strictly inside the bracket.
    As in ITP (Oliveira and Takahashi 2020), each step is pulled toward
    the midpoint just enough to keep the bracket on bisection's schedule,
    so no root takes more than `_SPARE_STEPS` steps beyond bisection's.
    The root returned is the end of the final bracket with the smaller
    |gap|.
    """
    xs = _PRESCAN_LAMBDAS.tolist()
    gs = prescan_gaps.tolist()
    brackets = []  # index pairs of prescan points, equal where the gap is zero
    for i in range(len(xs) - 1):
        if gs[i] == 0.0:
            brackets.append((i, i))
        elif (gs[i] < 0.0) != (gs[i + 1] < 0.0) and gs[i + 1] != 0.0:
            brackets.append((i, i + 1))
    if gs[-1] == 0.0:
        brackets.append((len(xs) - 1,) * 2)
    if not brackets:
        return None, 0.0
    if len(brackets) > 1:
        raise AmbiguousCrossingError(n, method, [(xs[i], xs[k]) for i, k in brackets])
    (i, k), = brackets
    lo, hi, g_lo, g_hi = xs[i], xs[k], gs[i], gs[k]
    if lo == hi:
        return lo, 0.0
    w_lo, w_hi = g_lo, g_hi  # secant weights of the ends
    moved = None  # the end the last step replaced
    # Bisection narrows the bracket to `unit` in `budget - _SPARE_STEPS`
    # steps; each step keeps it within unit * 2**budget, budget steps left.
    unit = math.ulp(lo)
    budget = math.ceil(math.log2((hi - lo) / unit)) + _SPARE_STEPS
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        budget -= 1
        reach = unit * 2.0 ** budget - 0.5 * (hi - lo)
        x = lo - w_lo * (hi - lo) / (w_hi - w_lo)
        x = min(max(x, mid - reach), mid + reach)
        if not lo < x < hi:
            x = mid
        g = gap(x)
        if g == 0.0:
            return x, 0.0
        if (g < 0.0) == (g_lo < 0.0):
            lo, g_lo, w_lo = x, g, g
            if moved == "lo":
                w_hi *= 0.5
            moved = "lo"
        else:
            hi, g_hi, w_hi = x, g, g
            if moved == "hi":
                w_lo *= 0.5
            moved = "hi"
    return (lo if abs(g_lo) <= abs(g_hi) else hi), hi - lo


def crossing_points(n: int) -> CrossingResult:
    """Channel qualities where each purification strategy matches estimation.

    lambda_1 is the break-even point of the channel-purification strategy
    (with the discard-to-odd rule), lambda_2 that of teleport-then-purify.
    A 64-point prescan over [1/4, 1] must see exactly one sign change per
    strategy; more than one raises AmbiguousCrossingError, and none yields
    an absent value. Each root is then refined to float resolution; the
    result's `tolerance` is the wider of the two final brackets.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    baseline = estimate.estimation_fidelity(n).fidelity
    lambda_1, width_1 = _find_crossing(
        lambda lam: effective_entpur_fidelity(n, lam) - baseline,
        entpur.expected_fidelity_grid(_odd_supply(n), _PRESCAN_LAMBDAS) - baseline,
        n, "ent_pur")
    lambda_2, width_2 = _find_crossing(
        lambda lam: qubitpur.average_fidelity(n, lam).expected_fidelity - baseline,
        qubitpur.average_fidelity_grid(n, _PRESCAN_LAMBDAS) - baseline,
        n, "qubit_pur")
    return CrossingResult(n=n, lambda_1=lambda_1, lambda_2=lambda_2,
                          tolerance=max(width_1, width_2))


def recommend(n: int, lam0: float) -> str:
    """Name of the better strategy for n resources at channel quality lam0.

    Channel purification is never recommended; it is dominated by
    teleport-then-purify everywhere. Ties go to estimation because it
    needs no quantum channel at all.
    """
    if not 0.25 < lam0 < 1.0:
        raise ValueError("channel parameter must lie strictly inside (1/4, 1)")
    purify_value = qubitpur.average_fidelity(n, lam0).expected_fidelity
    baseline = estimate.estimation_fidelity(n).fidelity
    return "qubit_pur" if purify_value > baseline else "estimation"
