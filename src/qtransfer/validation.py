"""Oracle suite: every closed form cross-checked against an independent oracle.

Each check group returns a list of check records
``{"name", "passed", "max_error", "tolerance"}``. The groups compare the
teleportation mixture with the three-qubit simulation, the purification
step with its 16x16 simulation, the block distribution with total-spin
projector traces, the block fidelities with spherical quadrature, and the
exact purification run with its Monte Carlo estimate. `qtransfer validate`
prints the records as JSON.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import channel, entpur, qmath, qubitpur

DEFAULT_MC_SAMPLES = 100_000


def _check(name: str, max_error: float, tolerance: float, passed: bool | None = None) -> dict:
    ok = bool(max_error <= tolerance) if passed is None else bool(passed)
    return {"name": name, "passed": ok,
            "max_error": float(max_error), "tolerance": float(tolerance)}


def _teleportation_checks(rng) -> list[dict]:
    err_mixture = err_fidelity = err_outcome = 0.0
    for _ in range(50):
        lam = float(rng.uniform(0.25, 1.0))
        angles = qmath.BlochAngles(theta=math.acos(float(rng.uniform(-1.0, 1.0))),
                                   phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        simulated = channel.teleport_oracle(lam, angles)
        err_mixture = max(err_mixture,
                          float(np.max(np.abs(simulated - channel.output_state(lam, angles)))))
        psi = qmath.bloch_to_ket(angles)
        err_fidelity = max(err_fidelity, abs(qmath.fidelity_pure(psi, simulated)
                                             - channel.single_shot_fidelity(lam)))
        probs = channel.teleport_outcome_probabilities(lam, angles)
        err_outcome = max(err_outcome, max(abs(p - 0.25) for p in probs.values()))
    return [_check("teleport_mixture_match", err_mixture, 1e-12),
            _check("teleport_fidelity_match", err_fidelity, 1e-12),
            _check("teleport_outcomes_uniform", err_outcome, 1e-12)]


def _purification_step_checks(rng) -> list[dict]:
    err_weights = err_pass = err_twirl = 0.0
    for lam in np.linspace(0.0, 1.0, 20):
        lam = float(lam)
        oracle_bd, oracle_pass = entpur.step_oracle(lam)
        closed_bd, closed_pass = entpur.purified_bell_diagonal(lam)
        err_weights = max(err_weights, max(abs(a - b) for a, b in
                                           zip(oracle_bd.weights(), closed_bd.weights())))
        err_pass = max(err_pass, abs(oracle_pass - closed_pass))
        # Twirling back to Werner form keeps the phi+ weight.
        err_twirl = max(err_twirl, abs(oracle_bd.w_phi_plus - entpur.purify_lambda(lam)))
    return [_check("purification_step_weights_match", err_weights, 1e-12),
            _check("purification_step_pass_probability_match", err_pass, 1e-12),
            _check("purification_twirl_consistency", err_twirl, 1e-12)]


def _purification_map_checks(rng) -> list[dict]:
    fixed_err = max(abs(entpur.purify_lambda(0.5) - 0.5), abs(entpur.purify_lambda(1.0) - 1.0))
    interior = np.linspace(0.5, 1.0, 202)[1:-1]
    worst_gain = min(entpur.purify_lambda(float(lam)) - float(lam) for lam in interior)
    return [_check("purification_fixed_points", fixed_err, 1e-14),
            _check("purification_gain_above_half", -worst_gain, 0.0,
                   passed=worst_gain > 0.0)]


def _distribution_checks(rng) -> list[dict]:
    err_norm = 0.0
    for n in range(1, 21):
        for lam in np.linspace(0.0, 1.0, 20):
            dist = qubitpur.outcome_distribution(n, float(lam))
            err_norm = max(err_norm, abs(math.fsum(dist.probs.values()) - 1.0))
    return [_check("outcome_distribution_normalization", err_norm, 1e-12)]


def _spin_projector_checks(rng) -> list[dict]:
    err_spin = 0.0
    for n in range(1, 7):
        for lam in (0.3, 0.5, 0.7, 0.9):
            oracle = qubitpur.spin_projector_oracle(n, lam)
            closed = qubitpur.outcome_distribution(n, lam)
            err_spin = max(err_spin, max(abs(oracle.probs[m] - closed.probs[m])
                                         for m in closed.probs))
    return [_check("spin_projector_match", err_spin, 1e-10)]


def _quadrature_checks(rng) -> list[dict]:
    err_quad = 0.0
    for m in range(1, 5):
        for lam in (0.3, 0.6, 0.9):
            err_quad = max(err_quad, abs(qubitpur.reduced_state_quadrature_oracle(m, lam)
                                         - qubitpur.single_qubit_fidelity(m, lam)))
    return [_check("quadrature_fidelity_match", err_quad, 1e-6)]


def _small_supply_checks(rng) -> list[dict]:
    err_identity = 0.0
    for lam in np.linspace(0.25, 1.0, 16):
        lam = float(lam)
        base = (1.0 + 2.0 * lam) / 3.0
        err_identity = max(err_identity,
                           abs(qubitpur.average_fidelity(1, lam).expected_fidelity - base),
                           abs(qubitpur.average_fidelity(2, lam).expected_fidelity - base))
    return [_check("small_supply_identities", err_identity, 1e-12)]


def _run_expectation_checks(rng) -> list[dict]:
    err_single = err_paths = 0.0
    for lam in np.linspace(0.25, 1.0, 16):
        lam = float(lam)
        err_single = max(err_single, abs(entpur.expected_fidelity_dp(1, lam).expected_fidelity
                                         - channel.single_shot_fidelity(lam)))
        for n in (2, 5, 9, 12):
            total = math.fsum(p for p, _ in entpur.enumerate_paths(n, lam))
            err_paths = max(err_paths, abs(total - 1.0))
    return [_check("run_single_pair_identity", err_single, 1e-14),
            _check("run_path_weights_normalized", err_paths, 1e-12)]


def _monte_carlo_checks(rng, seed: int, mc_samples: int) -> list[dict]:
    # The spread of the sample mean comes from the exact outcome distribution:
    # the sample's own standard error is 0 when its few samples tie.
    mc = entpur.mc_simulate(9, 0.8, mc_samples, seed)
    paths = entpur.enumerate_paths(9, 0.8)
    variance = math.fsum(p * (f - mc.expected_fidelity) ** 2 for p, f in paths)
    return [_check("mc_within_five_sigma", abs(mc.mc_estimate - mc.expected_fidelity),
                   5.0 * math.sqrt(variance / mc_samples))]


_CHECK_GROUPS = (
    ("teleportation_oracle", _teleportation_checks),
    ("purification_step_oracle", _purification_step_checks),
    ("purification_map", _purification_map_checks),
    ("collective_distribution", _distribution_checks),
    ("spin_projector_oracle", _spin_projector_checks),
    ("quadrature_oracle", _quadrature_checks),
    ("small_supply_identities", _small_supply_checks),
    ("run_expectation", _run_expectation_checks),
)


def run_validation_checks(seed: int = 0, mc_samples: int = DEFAULT_MC_SAMPLES) -> list[dict]:
    """Cross-check every closed form against its matrix or sampling oracle.

    `seed` drives the random probe states and the Monte Carlo run, whose
    sample count is `mc_samples`. A check group that raises is recorded as
    a failed check instead of aborting the suite, so a single defect cannot
    mask the remaining diagnostics.
    """
    rng = np.random.default_rng(seed)
    monte_carlo = functools.partial(_monte_carlo_checks, seed=seed, mc_samples=mc_samples)
    checks: list[dict] = []
    for group_name, group in _CHECK_GROUPS + (("monte_carlo", monte_carlo),):
        try:
            checks.extend(group(rng))
        except Exception as exc:  # deliberate: a crash is a failed check
            checks.append({"name": group_name, "passed": False,
                           "max_error": math.inf, "tolerance": 0.0,
                           "error": f"{type(exc).__name__}: {exc}"})
    return checks
