"""Multiprecision oracles for the strategy fidelities, shared by the test modules.

Each is written straight from the closed forms in mpmath, at the caller's
working precision, and imports nothing from qtransfer.
"""

import functools
import math

import mpmath


def mp_ent_pur(n, lam):
    """Expected terminal fidelity of the run on n pairs, in mpmath at the working precision.

    A memoized DP over the walk state (pair count, round, round of the
    stored pair): an odd count stores a pair, an empty count falls back on
    the stored pair (or on 1/2), and j survivors of count/2 attempts move
    to (j, round + 1, stored) with binomial weight.
    """
    lams = [lam]

    def lam_at(rnd):
        while len(lams) <= rnd:
            x = lams[-1]
            lams.append((10 * x * x - 2 * x + 1) / (8 * x * x - 4 * x + 5))
        return lams[rnd]

    memo = {}

    def value(count, rnd, stored):
        if count % 2:
            count, stored = count - 1, rnd
        fallback = (2 * lam_at(stored) + 1) / 3 if stored >= 0 else mpmath.mpf(1) / 2
        if count == 0:
            return fallback
        if (count, rnd, stored) not in memo:
            x = lam_at(rnd)
            p, pairs = (8 * x * x - 4 * x + 5) / 9, count // 2
            memo[count, rnd, stored] = mpmath.fsum(
                mpmath.binomial(pairs, j) * p ** j * (1 - p) ** (pairs - j)
                * (fallback if j == 0 else value(j, rnd + 1, stored))
                for j in range(pairs + 1))
        return memo[count, rnd, stored]

    return value(n, 0, -1)


@functools.cache
def multiplicities(n):
    """Spin-sector count C(n, k) - C(n, k - 1) of each block size m = n - 2k, m ascending."""
    counts = {}
    for m in range(n % 2, n + 1, 2):
        k = (n - m) // 2
        counts[m] = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
    return counts


def mp_average_fidelity(n, lam0, digits=50):
    """`mp_qubit_pur` at `digits` digits, rounded to a float."""
    with mpmath.workdps(digits):
        return float(mp_qubit_pur(n, mpmath.mpf(lam0)))


def mp_qubit_pur(n, lam):
    """sum_m p_m f_m from the ratio forms of the closed forms, in mpmath at the working precision.

    S_m = (c1^(m+1) - c0^(m+1))/(c1 - c0), p_m = multiplicity(n, m) (c0 c1)^k S_m
    and f_m = (m c1^(m+1) - c1 c0 S_(m-1)) / ((c1 - c0) m S_m); needs lam > 1/4.
    """
    c1, c0 = (1 + 2 * lam) / 3, 2 * (1 - lam) / 3
    pow1, pow0 = [mpmath.mpf(1)], [mpmath.mpf(1)]
    for _ in range(n + 1):
        pow1.append(pow1[-1] * c1)
        pow0.append(pow0[-1] * c0)
    geometric = [(pow1[m + 1] - pow0[m + 1]) / (c1 - c0) for m in range(n + 1)]
    total = mpmath.mpf(0)
    for m, mult in multiplicities(n).items():
        k = (n - m) // 2
        prob = mult * pow0[k] * pow1[k] * geometric[m]
        fid = (mpmath.mpf(0.5) if m == 0 else
               (m * pow1[m + 1] - c1 * c0 * geometric[m - 1]) / ((c1 - c0) * m * geometric[m]))
        total += prob * fid
    return total
