"""Teleport-everything-then-purify transfer strategy.

All n noisy copies the receiver ends up with are projected collectively
onto total-spin sectors. A sector of size m keeps m copies in a
symmetrized block (the rest leave as singlets and are discarded), and the
reduced single-copy state of that block is strictly closer to the original
input than any single teleported copy for m >= 2.

Closed forms for the sector distribution and per-sector fidelities are
paired with two independent oracles: total-spin projector traces for the
distribution, and spherical quadrature of the symmetrized block state for
the fidelities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel, qmath
from .qmath import BlochAngles, require_lambda, require_supply

#: Probe state used by the oracles when no angles are given; the results
#: are provably independent of this choice, which the tests verify.
DEFAULT_PROBE_ANGLES = BlochAngles(theta=1.2, phi=2.2)

_SPIN_GROUP_RTOL = 1e-8
_QUADRATURE_NODES = 64


def multiplicity(n: int, m: int) -> int:
    """Number of total-spin sectors of n qubits whose surviving block has size m.

    Equals C(n, (n-m)/2) - C(n, (n-m)/2 - 1), with the second term absent
    for m = n.
    """
    n = require_supply(n)
    if m < 0 or m > n or (n - m) % 2:
        raise ValueError("block size must have the parity of n and lie in [0, n]")
    if m == n:
        return 1
    k = (n - m) // 2
    return math.comb(n, k) - math.comb(n, k - 1)


def _block_sums(m_max: int, c1, c0, xp=math) -> tuple[list, list]:
    """Geometric sums S_m and block fidelities f_m for block sizes m = 0..m_max.

    S_m = c1^m + c1^(m-1) c0 + ... + c0^m = c0^m + c1 S_(m-1), and with
    T_m = S_(m-1) + c1 T_(m-1), T_0 = 0, a block of size m >= 1 has fidelity
    f_m = c1 T_m / (m S_m); f_0 = 1/2. Every term is positive, so one pass
    is stable at the degenerate point c1 = c0 (lam0 = 1/4, where f_m is
    exactly 1/2). S_m >= max(c1, c0) S_(m-1) >= S_(m-1)/2, so every 512
    steps the running values are scaled by the power of two that puts S_m
    back in [1/2, 1), and in between S_m stays above 2^-513, far from
    underflow; scaling by a power of two changes no ratio and no rounding.
    S_m is returned as a pair (value, exponent) with S_m = ldexp(value,
    exponent). With numpy for `xp`, c1 and c0 may be arrays, and then so is
    every value, fidelity and exponent.
    """
    s = power = 1.0 + 0.0 * c1  # S_m and c0^m, each times 2^shift, shaped like c1
    t, shift = 0.0 * s, 0  # T_m times 2^shift
    sums, fidelities = [(s, 0)], [0.5]
    for m in range(1, m_max + 1):
        t = s + c1 * t
        power = power * c0
        s = power + c1 * s
        sums.append((s, -shift))
        fidelities.append(c1 * t / (m * s))
        if m % 512 == 0:
            exp = xp.frexp(s)[1]
            power, s, t = (xp.ldexp(x, -exp) for x in (power, s, t))
            shift = shift - exp
    return sums, fidelities


def _block_probabilities(n: int, pair, sums: list, xp=math) -> list:
    """Probability multiplicity(n, m) (c0 c1)^k S_m of each block size m = n - 2k, k = 0, 1, ...

    `pair` is c0 c1 and `sums` the S_m of `_block_sums`. The multiplicities
    are exact integers from one binomial recurrence, and each factor is
    carried as a float and a binary exponent, so nothing overflows or
    underflows before the product is formed, at any n. With numpy for
    `xp`, `pair` and `sums` may hold arrays, and so does the result.
    """
    power, power_exp = 1.0, 0  # (c0 c1)^k = ldexp(power, power_exp)
    binom_below, binom = 0, 1  # C(n, k - 1) and C(n, k)
    weights = []
    for k in range(n // 2 + 1):
        mult = binom - binom_below  # multiplicity(n, n - 2k)
        mult_exp = max(mult.bit_length() - 64, 0)
        s_value, s_exp = sums[n - 2 * k]
        weights.append(xp.ldexp(float(mult >> mult_exp) * power * s_value,
                                mult_exp + power_exp + s_exp))
        power, exp = xp.frexp(power * pair)
        power_exp += exp
        binom_below, binom = binom, binom * (n - k) // (k + 1)
    return weights


@dataclass(frozen=True)
class OutcomeDistribution:
    """Distribution of the surviving-block size m after the collective projection."""

    n: int
    probs: dict[int, float]

    def __post_init__(self):
        expected_keys = set(range(self.n % 2, self.n + 1, 2))
        if set(self.probs) != expected_keys:
            raise ValueError("block sizes must run over {n, n-2, ...} down to 0 or 1")
        values = list(self.probs.values())
        if any(v < -1e-12 for v in values):
            raise ValueError("probabilities must be nonnegative")
        if abs(math.fsum(values) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")


def outcome_distribution(n: int, lam0: float, *, sums: list | None = None) -> OutcomeDistribution:
    """Probability multiplicity(n, m) (c0 c1)^k S_m of each surviving-block size m.

    k = (n - m)/2 copies leave as singlets; see `_block_probabilities`. A
    caller that already holds the S_m of `_block_sums(n, ...)` for this
    lam0 passes them as `sums`, so they are not computed twice.
    """
    n = require_supply(n)
    c1, c0 = channel.mixture_weights(lam0)
    if sums is None:
        sums = _block_sums(n, c1, c0)[0]
    weights = _block_probabilities(n, c0 * c1, sums)
    probs = {n - 2 * k: weights[k] for k in reversed(range(n // 2 + 1))}
    return OutcomeDistribution(n=n, probs=probs)


def single_qubit_fidelity(m: int, lam0: float) -> float:
    """Fidelity of one copy drawn from a surviving block of size m.

    For m = 0 nothing survives and the value is 1/2. For m >= 1 the closed
    form is evaluated through homogeneous geometric sums in O(m), so the
    degenerate point lam0 = 1/4 (where both mixture weights are 1/2) needs
    no special casing and yields exactly 1/2.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _block_sums(m, *channel.mixture_weights(lam0))[1][m]


@dataclass(frozen=True)
class QubitPurResult:
    """Average output fidelity with the distribution of surviving block sizes."""

    expected_fidelity: float
    distribution: OutcomeDistribution


def average_fidelity(n: int, lam0: float) -> QubitPurResult:
    """Average fidelity sum_m p_m f_m of the strategy for n copies, in O(n)."""
    n = require_supply(n)
    require_lambda(lam0, channel.LAMBDA_CRIT)
    sums, fidelities = _block_sums(n, *channel.mixture_weights(lam0))
    dist = outcome_distribution(n, lam0, sums=sums)
    # The block probabilities can sum one ulp over 1; a fidelity cannot.
    expected = min(math.fsum(p * fidelities[m] for m, p in dist.probs.items()), 1.0)
    return QubitPurResult(expected_fidelity=expected, distribution=dist)


def average_fidelity_grid(n: int, lam0s) -> np.ndarray:
    """`average_fidelity(n, lam).expected_fidelity` for every lam in lam0s, in one pass.

    The same recurrences and sums with every quantity an array over lam0s,
    so the results are equal to the single-point ones, bit for bit. Each
    column's distribution must sum to 1 within 1e-12, as in
    `OutcomeDistribution`.
    """
    n = require_supply(n)
    lam0s = np.array(lam0s, dtype=float, ndmin=1)
    require_lambda(lam0s, channel.LAMBDA_CRIT)
    c1, c0 = channel.mixture_weights(lam0s)
    sums, fidelities = _block_sums(n, c1, c0, np)
    probs = _block_probabilities(n, c0 * c1, sums, np)
    if not np.all(np.abs(qmath.fsum_columns(probs) - 1.0) <= 1e-12):
        raise ValueError("probabilities must sum to 1")
    terms = [p * fidelities[n - 2 * k] for k, p in enumerate(probs)]
    return np.minimum(qmath.fsum_columns(terms), 1.0)


def _embed_single(op: np.ndarray, index: int, n: int) -> np.ndarray:
    left = np.eye(2 ** index, dtype=complex)
    right = np.eye(2 ** (n - index - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


@functools.lru_cache(maxsize=8)
def _total_spin_squared(n: int) -> np.ndarray:
    dim = 2 ** n
    s_sq = np.zeros((dim, dim), dtype=complex)
    for axis in (qmath.SIGMA_X, qmath.SIGMA_Y, qmath.SIGMA_Z):
        component = np.zeros((dim, dim), dtype=complex)
        for q in range(n):
            component += _embed_single(0.5 * axis, q, n)
        s_sq += component @ component
    return s_sq


def spin_projector_oracle(n: int, lam0: float, angles: BlochAngles | None = None) -> OutcomeDistribution:
    """Surviving-block distribution from explicit total-spin projector traces.

    Builds the n-fold product of the teleported single-copy state,
    eigendecomposes the squared total-spin operator, groups eigenvectors by
    the sector value j(j+1) with m = 2j, and returns the projector traces.
    Raises if the detected sector dimensions disagree with the expected
    multiplicities instead of absorbing a mismatch.
    """
    if not 1 <= n <= 8:
        raise ValueError("the spin-sector oracle supports 1 to 8 copies")
    single = channel.output_state(lam0, angles if angles is not None else DEFAULT_PROBE_ANGLES)
    rho = functools.reduce(np.kron, [single] * n)

    eigenvalues, eigenvectors = np.linalg.eigh(_total_spin_squared(n))
    probs = {}
    assigned = 0
    for m in range(n % 2, n + 1, 2):
        j = 0.5 * m
        sector_value = j * (j + 1.0)
        selector = np.abs(eigenvalues - sector_value) <= _SPIN_GROUP_RTOL * max(1.0, sector_value)
        dim_expected = multiplicity(n, m) * (m + 1)
        if int(selector.sum()) != dim_expected:
            raise RuntimeError(
                f"spin sector m={m} of {n} copies has dimension {int(selector.sum())}, "
                f"expected {dim_expected}")
        vectors = eigenvectors[:, selector]
        probs[m] = float(np.real(np.sum(vectors.conj() * (rho @ vectors))))
        assigned += dim_expected
    if assigned != 2 ** n:
        raise RuntimeError("spin sectors do not exhaust the state space")
    return OutcomeDistribution(n=n, probs=probs)


def reduced_state_quadrature_oracle(m: int, lam0: float,
                                    angles: BlochAngles | None = None) -> float:
    """Per-block fidelity from direct spherical quadrature of the block state.

    The size-m block is an average over the sphere of m-fold products of
    the unnormalized superposition sqrt(c1) cos(t/2)|psi> +
    sqrt(c0) sin(t/2) e^{i p}|psi_bar>. The integral is evaluated with
    `_QUADRATURE_NODES` Gauss-Legendre nodes in cos(t) crossed with as many
    uniform points in p (the integrand is a low-degree trigonometric
    polynomial in p, so the uniform rule is exact well below that count).
    The integral is divided by its own trace, S_m/(m+1), so nothing here
    comes from the closed form's sums. The block state is then traced down
    to one copy and compared with |psi>.
    """
    if not 1 <= m <= 4:
        raise ValueError("the quadrature oracle supports block sizes 1 to 4")
    c1, c0 = channel.mixture_weights(lam0)
    probe = angles if angles is not None else DEFAULT_PROBE_ANGLES
    psi = qmath.bloch_to_ket(probe)
    psi_bar = qmath.orthogonal_ket(probe)

    x, w = np.polynomial.legendre.leggauss(_QUADRATURE_NODES)
    half_angles = 0.5 * np.arccos(x)
    azimuth = np.exp(2j * np.pi * np.arange(_QUADRATURE_NODES) / _QUADRATURE_NODES)
    amp_psi = np.repeat(np.sqrt(c1) * np.cos(half_angles), _QUADRATURE_NODES)
    amp_bar = (np.sqrt(c0) * np.sin(half_angles)[:, None] * azimuth[None, :]).reshape(-1)
    kets = amp_psi[None, :] * psi[:, None] + amp_bar[None, :] * psi_bar[:, None]

    block = np.ones((1, kets.shape[1]), dtype=complex)
    for _ in range(m):
        block = (block[:, None, :] * kets[None, :, :]).reshape(block.shape[0] * 2, -1)
    weights = np.repeat(0.5 * w, _QUADRATURE_NODES) / _QUADRATURE_NODES
    integral = (block * weights[None, :]) @ block.conj().T
    rho_block = integral / np.real(np.trace(integral))
    reduced = qmath.partial_trace(rho_block, keep=[0])
    return qmath.fidelity_pure(psi, reduced)
