"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them inline). Tolerances and runtime
budgets are part of the criteria and are asserted, not just reported.
"""

import math
import time

import numpy as np

from qtransfer import channel, compare, entpur, estimate, qmath, qubitpur
from qtransfer.qmath import BlochAngles


def _report(name, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"[{status}] {name}{timing}")
    return ok


def _random_angles(rng):
    return BlochAngles(theta=math.acos(rng.uniform(-1.0, 1.0)),
                       phi=rng.uniform(0.0, 2.0 * math.pi))


def test_01_teleportation_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_state = worst_fid = 0.0
    for _ in range(50):
        lam = float(rng.uniform(0.25, 1.0))
        angles = _random_angles(rng)
        simulated = channel.teleport_oracle(lam, angles)
        worst_state = max(worst_state,
                          float(np.max(np.abs(simulated - channel.output_state(lam, angles)))))
        fid = qmath.fidelity_pure(qmath.bloch_to_ket(angles), simulated)
        worst_fid = max(worst_fid, abs(fid - (2.0 * lam + 1.0) / 3.0))
    elapsed = time.perf_counter() - start
    ok = worst_state <= 1e-12 and worst_fid <= 1e-12 and elapsed < 1.0
    assert _report("teleportation oracle equivalence", ok, elapsed), \
        (worst_state, worst_fid, elapsed)


def test_02_purification_step_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for lam in np.linspace(0.0, 1.0, 20):
        lam = float(lam)
        bd_oracle, p_oracle = entpur.step_oracle(lam)
        bd_closed, p_closed = entpur.purified_bell_diagonal(lam)
        worst = max(worst, abs(p_oracle - p_closed),
                    max(abs(a - b) for a, b in zip(bd_oracle.weights(), bd_closed.weights())))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _report("purification step oracle equivalence", ok, elapsed), (worst, elapsed)


def test_03_purification_fixed_points_and_gain():
    fixed = max(abs(entpur.purify_lambda(0.5) - 0.5), abs(entpur.purify_lambda(1.0) - 1.0))
    interior = np.linspace(0.5, 1.0, 1002)[1:-1]
    gains = all(entpur.purify_lambda(float(lam)) > lam for lam in interior)
    ok = fixed <= 1e-14 and gains
    assert _report("purification fixed points and strict gain", ok), fixed


def test_04_exact_expectation_versus_monte_carlo():
    start = time.perf_counter()
    ok = True
    for n, lam0, seed in ((5, 0.7, 101), (9, 0.8, 102), (15, 0.9, 103)):
        result = entpur.mc_simulate(n, lam0, 1_000_000, seed)
        ok &= abs(result.mc_estimate - result.expected_fidelity) <= 5.0 * result.mc_stderr
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert _report("exact expectation agrees with Monte Carlo", ok, elapsed)


def test_05_hand_computed_run_anchors():
    # Two-pair run at quality 0.8: one purification attempt, then either a
    # win (teleport with the improved pair) or a total loss (coin flip).
    lam0 = 0.8
    p = (8 * lam0**2 - 4 * lam0 + 5) / 9
    lam1 = (10 * lam0**2 - 2 * lam0 + 1) / (8 * lam0**2 - 4 * lam0 + 5)
    win = (2 * lam1 + 1) / 3
    two_pair = p * win + (1 - p) * 0.5
    # Three pairs store one first, so the loss branch still teleports.
    three_pair = p * win + (1 - p) * (2 * lam0 + 1) / 3
    err2 = abs(entpur.expected_fidelity_dp(2, lam0).expected_fidelity - two_pair)
    err3 = abs(entpur.expected_fidelity_dp(3, lam0).expected_fidelity - three_pair)
    ok = err2 <= 1e-5 and err3 <= 1e-5
    assert _report("hand-computed run anchors", ok), (err2, err3)


def test_06_odd_even_structure():
    start = time.perf_counter()
    ok = True
    for lam0 in (0.6, 0.7, 0.8, 0.9):
        fid = [entpur.expected_fidelity_dp(n, lam0).expected_fidelity for n in range(1, 34)]
        for k in range(0, 16):
            if k >= 1:
                ok &= fid[2 * k] > fid[2 * k - 1]
            ok &= fid[2 * k] > fid[2 * k + 1]
    for lam0 in (0.3, 0.4, 0.5):
        single = entpur.expected_fidelity_dp(1, lam0).expected_fidelity
        ok &= all(single >= entpur.expected_fidelity_dp(n, lam0).expected_fidelity
                  for n in range(2, 33))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert _report("odd/even structure of the purification run", ok, elapsed)


def test_07_collective_outcome_normalization_and_identities():
    worst_norm = 0.0
    for n in range(1, 21):
        for lam0 in np.linspace(0.0, 1.0, 20):
            dist = qubitpur.outcome_distribution(n, float(lam0))
            worst_norm = max(worst_norm, abs(math.fsum(dist.probs.values()) - 1.0))
    worst_identity = 0.0
    for lam0 in np.linspace(0.25, 1.0, 20):
        lam0 = float(lam0)
        base = (1 + 2 * lam0) / 3
        worst_identity = max(
            worst_identity,
            abs(qubitpur.average_fidelity(1, lam0).expected_fidelity - base),
            abs(qubitpur.average_fidelity(2, lam0).expected_fidelity - base))
    ok = worst_norm <= 1e-12 and worst_identity <= 1e-12
    assert _report("collective outcome normalization and small-supply identities", ok), \
        (worst_norm, worst_identity)


def test_08_spin_projector_oracle():
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        tolerance = 1e-10 if n <= 6 else 1e-8
        for lam0 in (0.3, 0.5, 0.7, 0.9):
            oracle = qubitpur.spin_projector_oracle(n, lam0)
            closed = qubitpur.outcome_distribution(n, lam0)
            worst = max(abs(oracle.probs[m] - closed.probs[m]) for m in closed.probs)
            ok &= worst <= tolerance
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _report("total-spin projector oracle", ok, elapsed)


def test_09_quadrature_oracle():
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 5):
        for lam0 in (0.3, 0.6, 0.9):
            worst = max(worst, abs(qubitpur.reduced_state_quadrature_oracle(m, lam0)
                                   - qubitpur.single_qubit_fidelity(m, lam0)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    assert _report("spherical quadrature oracle", ok, elapsed), worst


def test_10_collective_purification_dominates():
    start = time.perf_counter()
    grid = np.linspace(0.25, 1.0, 202)[1:-1]
    ok = all(qubitpur.average_fidelity(9, float(lam)).expected_fidelity
             >= compare.effective_entpur_fidelity(9, float(lam)) - 1e-12
             for lam in grid)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert _report("collective purification dominates at N=9", ok, elapsed)


def test_11_crossing_anchors_and_trends():
    start = time.perf_counter()
    results = {n: compare.crossing_points(n) for n in range(1, 32)}
    ok = abs(results[1].lambda_1 - 0.5) <= 1e-9
    ok &= abs(results[1].lambda_2 - 0.5) <= 1e-9
    ok &= abs(results[2].lambda_1 - results[2].lambda_2) <= 1e-9
    ok &= abs(results[31].lambda_2 - 0.625) <= 0.02
    ok &= all(results[n].lambda_2 <= results[n].lambda_1 for n in range(3, 32))
    odd_lambda1 = [results[n].lambda_1 for n in range(3, 32, 2)]
    ok &= all(b >= a for a, b in zip(odd_lambda1, odd_lambda1[1:]))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _report("crossing anchors and trends", ok, elapsed)


def test_12_estimation_values():
    ok = (estimate.estimation_fidelity(1) == 2 / 3
          and estimate.estimation_fidelity(9) == 10 / 11)
    assert _report("estimation baseline values", ok)
