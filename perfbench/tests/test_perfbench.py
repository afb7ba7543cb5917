"""Tests of the benchmark itself: references, operation generator, tracer, checker.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest

import qtransfer
import reference
import tracer
import workloads
from qtransfer import cli, compare, entpur, qubitpur
from worker import Loop

LAMBDAS = (0.2500001, 0.3, 0.55, 0.8, 0.999)


def _first(workload, seed, count):
    return list(itertools.islice(workloads.operations(workload, seed), count))


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("lam", LAMBDAS)
def test_ent_reference_matches_evaluator_and_path_enumeration(lam):
    for n in range(1, 25):
        ref = reference.ent_pur(n, lam)
        assert math.isclose(ref, entpur.expected_fidelity_dp(n, lam).expected_fidelity,
                            rel_tol=1e-13)
        paths = entpur.enumerate_paths(n, lam)
        assert math.isclose(ref, math.fsum(p * f for p, f in paths), rel_tol=1e-13)
        second = reference.ent_pur_moments(n, lam)[1]
        assert math.isclose(second, math.fsum(p * f * f for p, f in paths), rel_tol=1e-13)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_qubit_reference_matches_evaluator_and_distribution(lam):
    for n in range(1, 25):
        fid, probs = reference.qubit_pur_distribution(n, lam)
        result = qubitpur.average_fidelity(n, lam)
        assert math.isclose(fid, result.expected_fidelity, rel_tol=1e-13)
        assert reference.qubit_pur(n, lam) == fid
        assert probs.keys() == result.distribution.probs.keys()
        for m, p in probs.items():
            assert math.isclose(p, result.distribution.probs[m], rel_tol=1e-12, abs_tol=1e-300)


def test_sweep_grid_matches_cli_grid():
    for points in (20, 33, 60):
        assert np.allclose(reference.sweep_grid(points), cli._lambda_grid(points),
                           rtol=0, atol=1e-15)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operations_are_deterministic_per_seed_and_differ_across_seeds(workload):
    first = _first(workload, 7, 40)
    assert first == _first(workload, 7, 40)
    assert first != _first(workload, 8, 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_operations_pass_the_checker(workload):
    for argv in _first(workload, 3, 8 if workload == "oracles" else 12):
        if workload == "oracles" and argv[0] == "strategy":
            argv = [*argv[:argv.index("--mc-samples") + 1], "20000", *argv[argv.index("--seed"):]]
        assert reference.check(argv, *_run_cli(argv)) is None, argv


def test_self_times_on_a_synthetic_span_tree():
    # 0 [0, 10] has children 1 [1, 4] and 4 [5, 9]; 1 has children 2 [1, 2]
    # and 3 [2.5, 3.5]; 5 [11, 12] is a second root.
    parent = np.array([-1, 0, 1, 1, 0, -1])
    start = np.array([0.0, 1.0, 1.0, 2.5, 5.0, 11.0])
    end = np.array([10.0, 4.0, 2.0, 3.5, 9.0, 12.0])
    assert np.allclose(tracer.self_times(parent, start, end), [3.0, 1.0, 1.0, 1.0, 4.0, 1.0])


def test_traced_run_wraps_handlers_and_restores_the_package():
    originals = (cli.main, cli._HANDLERS["crossings"], compare.crossing_points,
                 entpur.expected_fidelity_dp, entpur.single_shot_fidelity)
    recorder = tracer.SpanRecorder()
    undo = tracer.install(recorder, qtransfer)
    try:
        assert entpur.single_shot_fidelity is originals[-1]  # per-path helper stays bare
        code, _ = _run_cli(["crossings", "--n-max", "3"])
    finally:
        tracer.uninstall(undo)
    assert code == 0
    assert originals == (cli.main, cli._HANDLERS["crossings"], compare.crossing_points,
                         entpur.expected_fidelity_dp, entpur.single_shot_fidelity)
    names = [recorder.names[i] for i in recorder.name_id]
    handler = names.index("cli.cmd_crossings")
    assert names[recorder.parent[handler]] == "cli.main"
    metrics, self_seconds = tracer.layer_metrics(recorder)
    assert metrics["compare.crossing_points.calls"] == 3
    evals = metrics["entpur.expected_fidelity_dp.calls"] + metrics["qubitpur.average_fidelity.calls"]
    assert metrics["compare.exact_evals"] == evals > 0
    assert metrics["compare.exact_evals_per_crossing"] == evals / 3
    assert metrics["entpur.paths_per_eval"] >= 1.0
    assert metrics["qubitpur.blocks"] > 0
    durations = np.frombuffer(recorder.end) - np.frombuffer(recorder.start)
    roots = np.frombuffer(recorder.parent, np.int32) < 0
    assert math.isclose(sum(self_seconds[layer] for layer in tracer.LAYERS),
                        float(durations[roots].sum()), rel_tol=1e-9)


WRONG_ANSWERS = [
    (["single", "--lambda0", "0.7"], "0.800000000002\n"),
    (["strategy", "est", "--n", "9"], json.dumps(
        {"method": "est", "n": 9, "lambda0": None, "fidelity": 0.9})),
    (["strategy", "ent", "--n", "3", "--lambda0", "0.8"], json.dumps(
        {"method": "ent", "n": 3, "lambda0": 0.8, "fidelity": 0.886222222225})),
    (["strategy", "qubit", "--n", "2", "--lambda0", "0.7", "--distribution"], json.dumps(
        {"method": "qubit", "n": 2, "lambda0": 0.7, "fidelity": 0.8,
         "distribution": {"0": 0.15, "2": 0.84}})),
    (["crossings", "--n-max", "2"], "N,lambda1,lambda2\n1,0.5,0.5\n2,0.625,0.6251\n"),
    (["sweep", "--methods", "estimation", "--n", "1", "--grid", "2"],
     "method,N,lambda0,fidelity\nestimation,1,0.5,0.666666666667\nestimation,1,0.75,0.7\n"),
    (["validate", "--seed", "1"], json.dumps({"passed": False})),
]


@pytest.mark.parametrize("argv,output", WRONG_ANSWERS, ids=lambda v: str(v)[:30])
def test_checker_rejects_a_wrong_answer(argv, output):
    assert reference.check(argv, 0, output) is not None


def test_monte_carlo_check_uses_the_exact_spread():
    # Near lambda0 = 1 the low-fidelity paths go unsampled in 1e6 draws: the
    # reported sample stderr (2.5e-10) is far below the estimator's real
    # spread (about 1e-7), and a 5-sigma test on it fails a correct answer.
    argv = ["strategy", "ent", "--n", "12", "--lambda0", "0.9997966112061726",
            "--mc-samples", "1000000", "--seed", "1915297984"]
    code, out = _run_cli(argv)
    assert reference.check(argv, code, out) is None
    report = json.loads(out)
    report["mc_estimate"] -= 1e-5
    assert reference.check(argv, code, json.dumps(report)) is not None


def test_checker_rejects_a_nonzero_exit_even_with_right_output():
    assert reference.check(["single", "--lambda0", "0.7"], 2, "0.8\n") is not None


def test_loop_counts_a_wrong_answer_as_failed_and_keeps_going():
    class WrongCli:
        @staticmethod
        def main(argv):
            print("0.9" if argv[-1] == "0.7" else "0.6")
            return 0

    loop = Loop(WrongCli)
    loop.run(["single", "--lambda0", "0.7"])
    loop.run(["single", "--lambda0", "0.4"])
    assert (len(loop.latencies), loop.failed) == (2, 1)
    assert "single --lambda0 0.7" in loop.reasons[0]
