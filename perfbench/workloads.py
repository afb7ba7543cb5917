"""Seeded operation generators for the benchmark workloads.

An operation is one qtransfer command line, given as its argv list. A
workload is an endless sequence of rounds. Every round holds the same mix
of operation kinds, each drawing its parameters from its own stratum, in a
seeded shuffled order. Where a call's cost climbs steeply with a parameter
(N in `large_n`, --n-max in `tables`, the Monte Carlo N in `oracles`), that
parameter is fixed and only values that barely move the cost are drawn.
Runs with different seeds therefore see the same mix of work and differ
only in the values drawn, which keeps the run-to-run spread of the timings
small.
"""

from __future__ import annotations

import math
import random

MC_SAMPLES = 1_000_000


def _lambda0(rng: random.Random) -> str:
    # Uniform strictly inside (1/4, 1); repr keeps every digit, so the
    # checker sees exactly the value the program saw.
    while True:
        lam = rng.uniform(0.25, 1.0)
        if 0.25 < lam < 1.0:
            return repr(lam)


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def _decide_round(rng: random.Random) -> list[list[str]]:
    # N log-uniform in 1..64, split into the strata 1..8 and 9..64.
    low, high = (1, 8), (9, 64)
    ops = [["single", "--lambda0", _lambda0(rng)],
           ["strategy", "est", "--n", str(_log_uniform(rng, 1, 64))]]
    for method, extra in (("ent", []), ("qubit", []), ("qubit", ["--distribution"])):
        for stratum in (low, high):
            ops.append(["strategy", method, "--n", str(_log_uniform(rng, *stratum)),
                        "--lambda0", _lambda0(rng)] + extra)
    return ops


def _large_n_round(rng: random.Random) -> list[list[str]]:
    # A fixed N grid over 97..193 for both methods, plus a second ent run at
    # N=193: eleven operations whose costs stay in the same order, so the
    # median falls inside one cluster (N=145) and p90 inside the N=193 ent
    # cluster instead of between clusters. Only lambda0 is seeded; the cost
    # of both evaluators does not depend on it.
    ops = [["strategy", method, "--n", str(n), "--lambda0", _lambda0(rng)]
           for method in ("ent", "qubit") for n in (97, 121, 145, 169, 193)]
    ops.append(["strategy", "ent", "--n", "193", "--lambda0", _lambda0(rng)])
    return ops


# Crossing tables at fixed sizes, in pairs: the cost of `crossings` climbs
# steeply and unevenly with --n-max (about 15 ms at 4, 80 ms at 10, 140 ms
# at 13 and 280 ms at 17), so drawing it would make the work of a run depend
# on the seed. With ten operations a round, sorted by cost, the pairs sit at
# 40-60 % (N 10), 60-80 % (N 13) and 80-100 % (N 17), which puts the median
# and p90 in the middle of a cluster of identical calls instead of between
# clusters.
_TABLES_CROSSINGS = (10, 10, 13, 13, 17, 17)


def _tables_round(rng: random.Random) -> list[list[str]]:
    # The four cheap calls: one small crossing table, and sweeps over round
    # grid sizes and a few small N, as people do, so calls share
    # (N, lambda0) points with each other. Only these are seeded.
    ops = [["crossings", "--n-max", str(n_max)] for n_max in _TABLES_CROSSINGS]
    ops.append(["crossings", "--n-max", str(rng.randint(4, 8))])
    for _ in range(3):
        n_values = sorted(rng.sample(range(1, 13), 3))
        ops.append(["sweep", "--methods", "all", "--n", ",".join(map(str, n_values)),
                    "--grid", str(rng.choice((20, 30, 40, 50, 60)))])
    return ops


# Monte Carlo at fixed N: its cost grows with N (about 240 ms at N 9 and
# 400 ms at N 33), and p90 falls inside the costlier of the two, so a drawn
# N would move p90 with the seed.
_ORACLES_MC_N = (12, 29)


def _oracles_round(rng: random.Random) -> list[list[str]]:
    ops = [["validate", "--seed", str(rng.randrange(2 ** 31))] for _ in range(4)]
    for n in _ORACLES_MC_N:
        ops.append(["strategy", "ent", "--n", str(n),
                    "--lambda0", _lambda0(rng), "--mc-samples", str(MC_SAMPLES),
                    "--seed", str(rng.randrange(2 ** 31))])
    return ops


_ROUNDS = {
    "decide": _decide_round,
    "large_n": _large_n_round,
    "tables": _tables_round,
    "oracles": _oracles_round,
}

WORKLOADS = tuple(_ROUNDS)


def operations(workload: str, seed: int):
    """Endless, seed-determined iterator over the workload's command lines."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    make_round = _ROUNDS[workload]
    while True:
        ops = make_round(rng)
        rng.shuffle(ops)
        yield from ops
