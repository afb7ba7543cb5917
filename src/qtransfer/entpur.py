"""Channel-purification transfer strategy.

A supply of N identical noisy pairs is repeatedly distilled: pairs are
combined two at a time, a parity test keeps or discards each combination,
and one pair is set aside whenever the count is odd so a failure late in
the run can still fall back on it. The run ends when no pair is left to
combine: it teleports with the pair stored last (a single survivor is
stored, then teleported at once), or, if none was ever stored, ends with a
completely mixed output, fidelity 1/2.

This module provides the one-step closed forms, a 16x16 matrix oracle for
the step, the exact expected fidelity of the whole run, and a seeded
vectorized Monte Carlo cross-check. The exact expectation is a dynamic
programme over the walk state (pair count, round, round of the stored
pair): N pairs reach about 1.4 N states (257 at N=193), and each state
takes its branch weights from one binomial row, about N^2/10 terms in all.
Enumerating every outcome path instead grows super-polynomially (169,396
paths at N=193); `enumerate_paths` keeps that walk as the small-N oracle,
and `path_count` counts its paths, which do not depend on lam0, in O(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .channel import LAMBDA_CRIT, single_shot_fidelity
from .qmath import BellDiagonal, require_lambda

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# One side rotates by +pi/2 about x, the other by -pi/2, before the CNOTs.
_ROT_FORWARD = _SQRT_HALF * (qmath.ID2 - 1j * qmath.SIGMA_X)
_ROT_BACKWARD = _SQRT_HALF * (qmath.ID2 + 1j * qmath.SIGMA_X)

_KET_PROJ = (np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 0], [0, 1]], dtype=complex))


def pass_probability(lam: float) -> float:
    """Probability (8*lam**2 - 4*lam + 5)/9 that one purification step keeps the pair."""
    require_lambda(lam)
    return (8.0 * lam * lam - 4.0 * lam + 5.0) / 9.0


def purify_lambda(lam: float) -> float:
    """Werner parameter (10*lam**2 - 2*lam + 1)/(8*lam**2 - 4*lam + 5) after one kept step.

    Fixed points at 1/2 and 1; strictly improving in between, strictly
    degrading below 1/2.
    """
    require_lambda(lam)
    return (10.0 * lam * lam - 2.0 * lam + 1.0) / (8.0 * lam * lam - 4.0 * lam + 5.0)


def purified_bell_diagonal(lam: float) -> tuple[BellDiagonal, float]:
    """Closed-form Bell weights of the surviving pair and the pass probability."""
    p_pass = pass_probability(lam)
    w_phi_plus = (10.0 * lam * lam - 2.0 * lam + 1.0) / (9.0 * p_pass)
    w_phi_minus = 2.0 * (lam - lam * lam) / (3.0 * p_pass)
    w_psi = 2.0 * (1.0 - lam) ** 2 / (9.0 * p_pass)
    bd = BellDiagonal(w_phi_plus=w_phi_plus, w_psi_plus=w_psi,
                      w_phi_minus=w_phi_minus, w_psi_minus=w_psi)
    return bd, p_pass


def _binomial_row(pairs: int, p: float) -> list[float]:
    """Chances that j = 0..pairs of `pairs` attempts pass, each passing with probability p.

    The row is 1 at its mode and walks out by the ratio r_j = row[j-1] /
    row[j] = j q / ((pairs - j + 1) p), q = 1 - p; it is then divided by its
    total, summed left to right. Each step is one correctly rounded IEEE
    operation and no term exceeds 1, so nothing overflows at any supply.
    """
    q = 1.0 - p
    mode = min(int((pairs + 1) * p), pairs)
    row = [1.0]
    for j in range(mode, 0, -1):
        row.append(row[-1] * (j * q / ((pairs - j + 1) * p)))
    row.reverse()
    for j in range(mode + 1, pairs + 1):
        row.append(row[-1] / (j * q / ((pairs - j + 1) * p)))
    total = 0.0
    for w in row:
        total += w
    return [w / total for w in row]


def _binomial_rows(pairs: int, p: np.ndarray) -> np.ndarray:
    """`_binomial_row` for every pass probability in p at once, one column each, bit for bit.

    Ratios masked to 1 on the other side of each column's mode, j > (pairs
    + 1) p, feed one accumulated quotient up and one product down; numpy
    accumulates strictly in order, as the scalar loops do.
    """
    j = np.arange(pairs + 1.0)[:, None]
    ratios = j * (1.0 - p) / ((pairs - j + 1.0) * p)
    above = j > (pairs + 1) * p
    rows = np.divide.accumulate(np.where(above, ratios, 1.0), axis=0)
    rows[-2::-1] *= np.multiply.accumulate(np.where(above, 1.0, ratios)[:0:-1], axis=0)
    return rows / np.add.accumulate(rows, axis=0)[-1]


def outcome_probabilities(pairs: int, lam: float) -> list[float]:
    """Binomial chances that j = 0..pairs of `pairs` simultaneous purification attempts survive."""
    if pairs < 1:
        raise ValueError("pairs must be at least 1")
    return _binomial_row(pairs, pass_probability(lam))


def step_oracle(lam: float) -> tuple[BellDiagonal, float]:
    """Matrix simulation of one purification step on two identical Werner pairs.

    Qubit order is sender1, receiver1, sender2, receiver2. Applies the
    single-qubit x-rotations (sender +pi/2, receiver -pi/2), the two CNOTs
    with pair 1 controlling pair 2, measures pair 2 in the computational
    basis, and keeps the coinciding outcomes. Returns the Bell weights of
    the surviving pair and the total coincidence probability.
    """
    require_lambda(lam)
    werner = qmath.werner_density(lam)
    rho = qmath.tensor(werner, werner)
    for q in (0, 2):
        rho = qmath.apply_unitary(rho, _ROT_FORWARD, [q])
    for q in (1, 3):
        rho = qmath.apply_unitary(rho, _ROT_BACKWARD, [q])
    rho = qmath.apply_unitary(rho, qmath.CNOT, [0, 2])
    rho = qmath.apply_unitary(rho, qmath.CNOT, [1, 3])
    bit_pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    projectors = [qmath.tensor(np.eye(4, dtype=complex), np.kron(_KET_PROJ[a], _KET_PROJ[b]))
                  for a, b in bit_pairs]
    outcomes = qmath.measure_projective(rho, projectors)
    kept = np.zeros_like(rho)
    p_pass = 0.0
    for (a, b), (prob, post) in zip(bit_pairs, outcomes):
        if a == b and post is not None:
            kept += prob * post
            p_pass += prob
    pair = qmath.partial_trace(kept, keep=[0, 1]) / p_pass
    return qmath.bell_diagonal_weights(pair), p_pass


@dataclass(frozen=True)
class EntPurResult:
    """Expected output fidelity of a full purification run, with optional Monte Carlo companion."""

    expected_fidelity: float
    path_count: int
    mc_estimate: float | None = None
    mc_stderr: float | None = None
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not 0.5 - 1e-12 <= self.expected_fidelity <= 1.0 + 1e-12:
            raise ValueError("expected fidelity must lie in [1/2, 1]")
        if self.mc_stderr is not None and self.mc_stderr < 0.0:
            raise ValueError("standard error must be nonnegative")


def _run_sequences(n_ebits: int, lam0) -> tuple[list, list]:
    """Check a run's arguments; return the pass probability and the end fidelity by round.

    Entry r belongs to the pair after r kept purification rounds: its
    teleportation fidelity for every round the run can reach, its pass
    probability for every round that can still purify. The end fidelities
    close with 1/2, the mixed output, read at index -1 when nothing was
    stored. lam0 may be an array, and then so is every other entry.
    """
    if n_ebits < 1:
        raise ValueError("the run needs at least one pair")
    require_lambda(lam0, LAMBDA_CRIT)
    lam_seq = [lam0]
    for _ in range(max(1, math.ceil(math.log2(max(n_ebits, 2)))) + 1):
        lam_seq.append(purify_lambda(lam_seq[-1]))
    return ([pass_probability(lam) for lam in lam_seq[:-1]],
            [single_shot_fidelity(lam) for lam in lam_seq] + [0.5])


def enumerate_paths(n_ebits: int, lam0: float) -> list[tuple[float, float]]:
    """Every (probability, terminal fidelity) pair of the repeated-purification run.

    The walk state is (pair count, completed rounds, round of the lastly
    stored pair, -1 if none). An odd count stores one pair at the current
    round and continues with the rest; a count of zero falls back on the
    stored pair (or on fidelity 1/2 if none was ever stored); j surviving
    pairs out of count/2 attempts branch binomially into the state
    (j, round + 1, stored), so j = 0 ends at the fallback and j = 1 stores
    its pair and teleports it. Pending states are kept on an explicit stack.

    The number of paths grows super-polynomially in n_ebits, so this is
    the small-N oracle for `expected_fidelity_dp`, not an evaluator.
    """
    p_seq, ends = _run_sequences(n_ebits, lam0)
    paths: list[tuple[float, float]] = []
    pending = [(n_ebits, 0, -1, 1.0)]
    while pending:
        count, rnd, stored, prob = pending.pop()
        if count % 2 == 1:
            stored = rnd
            count -= 1
        if count == 0:
            paths.append((prob, ends[stored]))
            continue
        for j, weight in enumerate(_binomial_row(count // 2, p_seq[rnd])):
            pending.append((j, rnd + 1, stored, prob * weight))
    return paths


def path_count(n_ebits: int) -> int:
    """Number of outcome paths of the run on n_ebits pairs, as `enumerate_paths` lists them.

    The walk's branching does not depend on lam0, so neither does the
    count P: P(0) = 1, an odd count stores a pair, P(c) = P(c - 1), and an
    even count branches into every survivor count j = 0..c/2,
    P(c) = P(0) + ... + P(c/2). Prefix sums make that O(n_ebits).
    """
    prefix = [1]  # prefix[c] = P(0) + ... + P(c)
    paths = 1
    for c in range(1, n_ebits + 1):
        if c % 2 == 0:
            paths = prefix[c // 2]
        prefix.append(prefix[-1] + paths)
    return paths


def _walk_state(count: int, rnd: int, stored: int, p_seq: list, ends: list, memo: dict,
                row=_binomial_row, total=math.fsum):
    """Expected terminal fidelity from one walk state.

    The state and its branches are those of `enumerate_paths`, with the
    branch weights read from one binomial row. Each value is written as its
    fallback plus the weighted gains over it, fb + sum_j w_j (v_j - fb):
    where every branch ends at the fallback fidelity (lam0 = 1/2 with a
    stored pair, a fixed point of the purification map) the sum is exactly
    zero and the value is the fallback itself, not a rounding of it.
    With `_binomial_rows` and a column sum for `row` and `total`, the
    sequences hold arrays and every value is an array over lam0.
    """
    if count % 2 == 1:
        stored = rnd
        count -= 1
    fallback = ends[stored]
    if count == 0:
        return fallback
    key = (count, rnd, stored)
    if key in memo:
        return memo[key]
    gains = []
    for j, weight in enumerate(row(count // 2, p_seq[rnd])):
        gains.append(weight * (_walk_state(j, rnd + 1, stored, p_seq, ends, memo, row, total)
                               - fallback))
    memo[key] = value = fallback + total(gains)
    return value


def expected_fidelity_dp(n_ebits: int, lam0: float) -> EntPurResult:
    """Exact expectation of the run's terminal fidelity over all outcome paths.

    A memoized dynamic programme over the walk state of `enumerate_paths`;
    `path_count` is the number of outcome paths that walk would list,
    from the lam0-free recurrence of `path_count`.
    """
    p_seq, ends = _run_sequences(n_ebits, lam0)
    return EntPurResult(expected_fidelity=_walk_state(n_ebits, 0, -1, p_seq, ends, {}),
                        path_count=path_count(n_ebits))


def expected_fidelity_grid(n_ebits: int, lam0s) -> np.ndarray:
    """`expected_fidelity_dp(n_ebits, lam).expected_fidelity` for every lam in lam0s, in one pass.

    The same programme with every quantity an array over lam0s, so a whole
    grid costs about as much as a few single points. Each column takes the
    single-point evaluator's steps in its order, so the two are equal.
    """
    p_seq, ends = _run_sequences(n_ebits, np.array(lam0s, dtype=float, ndmin=1))
    return _walk_state(n_ebits, 0, -1, p_seq, ends, {}, _binomial_rows, qmath.fsum_columns)


def mc_simulate(n_ebits: int, lam0: float, samples: int, seed: int) -> EntPurResult:
    """Monte Carlo estimate of the run's expected fidelity.

    Each sample plays the full store-and-purify run with independent
    binomial draws for the surviving pair counts. Returns the exact
    expectation alongside the sample mean, its standard error, and the
    seed; results are deterministic for a fixed (seed, samples).
    """
    p_seq, ends = _run_sequences(n_ebits, lam0)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    exact = expected_fidelity_dp(n_ebits, lam0)
    rng = np.random.default_rng(seed)
    ends = np.array(ends)

    # The samples still running, kept in ascending order, which fixes the
    # order in which the binomial draws take the random stream.
    live = np.arange(samples)
    count = np.full(samples, n_ebits, dtype=np.int64)
    stored = np.full(samples, -1, dtype=np.int64)
    result = np.empty(samples, dtype=float)
    rnd = 0
    while True:
        odd = count % 2 == 1
        stored[odd] = rnd
        count -= odd
        over = count == 0
        result[live[over]] = ends[stored[over]]
        running = ~over
        live, count, stored = live[running], count[running], stored[running]
        if live.size == 0:
            break
        count = rng.binomial(count // 2, p_seq[rnd])
        rnd += 1

    if samples == 1 or np.all(result == result[0]):
        # A constant sample has mean exactly that constant and no spread;
        # summation noise must not leak into the "no randomness" cases.
        mean, stderr = float(result[0]), 0.0
    else:
        mean = float(result.mean())
        stderr = float(result.std(ddof=1) / math.sqrt(samples))
    return EntPurResult(expected_fidelity=exact.expected_fidelity, path_count=exact.path_count,
                        mc_estimate=mean, mc_stderr=stderr, samples=samples, seed=seed)
