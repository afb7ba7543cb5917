import json

import pytest

from qtransfer import cli, compare, entpur
from qtransfer.cli import main


class TestSingle:
    def test_generic_value(self, capsys):
        assert main(["single", "--lambda0", "0.7"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.8, abs=1e-12)

    def test_ideal_channel(self, capsys):
        assert main(["single", "--lambda0", "1.0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_out_of_range_is_an_input_error(self, capsys):
        assert main(["single", "--lambda0", "1.5"]) == 2
        assert capsys.readouterr().err.strip()

    def test_missing_flag_is_an_input_error(self, capsys):
        assert main(["single"]) == 2
        capsys.readouterr()


class TestStrategy:
    def test_estimation_report(self, capsys):
        assert main(["strategy", "est", "--n", "9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "est"
        assert report["n"] == 9
        assert report["lambda0"] is None
        assert report["fidelity"] == pytest.approx(10 / 11, abs=1e-9)

    def test_collective_purification_report(self, capsys):
        assert main(["strategy", "qubit", "--n", "2", "--lambda0", "0.7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fidelity"] == pytest.approx(0.8, abs=1e-9)

    def test_distribution_table(self, capsys):
        assert main(["strategy", "qubit", "--n", "2", "--lambda0", "0.7",
                     "--distribution"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["distribution"]["0"] == pytest.approx(0.16, abs=1e-9)
        assert report["distribution"]["2"] == pytest.approx(0.84, abs=1e-9)

    def test_channel_purification_report(self, capsys):
        assert main(["strategy", "ent", "--n", "3", "--lambda0", "0.8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fidelity"] == pytest.approx(2991 / 3375, abs=1e-9)

    def test_monte_carlo_companion(self, capsys):
        assert main(["strategy", "ent", "--n", "5", "--lambda0", "0.75",
                     "--mc-samples", "20000", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 20000
        assert report["seed"] == 3
        assert abs(report["mc_estimate"] - report["fidelity"]) <= 5 * report["mc_stderr"]

    def test_large_supply_reports_a_fidelity(self, capsys):
        # From about 1035 copies the block multiplicities no longer fit a float.
        assert main(["strategy", "qubit", "--n", "1040", "--lambda0", "0.8",
                     "--distribution"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.99 < report["fidelity"] < 1.0
        assert len(report["distribution"]) == 521

    @pytest.mark.parametrize("method,flag", [
        ("est", ["--lambda0", "0.7"]),
        ("est", ["--mc-samples", "5"]),
        ("est", ["--distribution"]),
        ("qubit", ["--mc-samples", "5"]),
        ("ent", ["--distribution"]),
    ])
    def test_flag_the_method_never_reads_is_an_input_error(self, capsys, method, flag):
        argv = ["strategy", method, "--n", "4"] + flag
        if method != "est":
            argv += ["--lambda0", "0.7"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag[0]} does not apply to strategy {method}" in captured.err

    def test_missing_lambda_is_an_input_error(self, capsys):
        assert main(["strategy", "ent", "--n", "3"]) == 2
        capsys.readouterr()

    def test_domain_violation_is_an_input_error(self, capsys):
        assert main(["strategy", "qubit", "--n", "3", "--lambda0", "0.2"]) == 2
        capsys.readouterr()

    def test_nan_channel_is_an_input_error(self, capsys):
        assert main(["strategy", "ent", "--n", "3", "--lambda0", "nan"]) == 2
        assert "lambda must lie in" in capsys.readouterr().err

    def test_arithmetic_failure_is_an_input_error(self, monkeypatch, capsys):
        from qtransfer import qubitpur

        def overflowing(n, lam0):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(qubitpur, "average_fidelity", overflowing)
        assert main(["strategy", "qubit", "--n", "3", "--lambda0", "0.8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("message,expected", [
        ("Unable to allocate 7.28 TiB for an array", "error: Unable to allocate 7.28 TiB for an array"),
        ("", "error: out of memory"),
    ])
    def test_memory_failure_is_an_input_error(self, monkeypatch, capsys, message, expected):
        def exhausting(n_ebits, lam0, samples, seed):
            raise MemoryError(message)

        monkeypatch.setattr(entpur, "mc_simulate", exhausting)
        assert main(["strategy", "ent", "--n", "9", "--lambda0", "0.8",
                     "--mc-samples", "1000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == expected


class TestSweep:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["sweep", "--methods", "all", "--n", "9", "--grid", "50",
                     "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,N,lambda0,fidelity"
        assert len(lines) == 1 + 3 * 50

    def test_estimation_rows_constant(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["sweep", "--methods", "estimation", "--n", "9", "--grid", "10",
                     "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[3]) == pytest.approx(10 / 11, abs=1e-9)

    def test_dominance_between_methods(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["sweep", "--methods", "ent_pur,qubit_pur", "--n", "9", "--grid", "25",
                     "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        ent = [float(r[3]) for r in rows if r[0] == "ent_pur"]
        qubit = [float(r[3]) for r in rows if r[0] == "qubit_pur"]
        assert all(q >= e - 1e-12 for e, q in zip(ent, qubit))

    def test_output_is_bit_identical_across_runs(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["sweep", "--methods", "all", "--n", "3,5", "--grid", "20"]
        assert main(argv + ["-o", str(first)]) == 0
        assert main(argv + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_json_format(self, capsys):
        assert main(["sweep", "--methods", "estimation", "--n", "4", "--grid", "5",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 5
        assert rows[0]["method"] == "estimation"

    def test_bad_n_list_is_an_input_error(self, capsys):
        assert main(["sweep", "--methods", "all", "--n", "3;5"]) == 2
        capsys.readouterr()

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        assert main(["sweep", "--methods", "all", "--n", "3", "-o", str(target)]) == 3
        capsys.readouterr()


class TestCrossings:
    def test_anchor_rows(self, tmp_path):
        out = tmp_path / "crossings.csv"
        assert main(["crossings", "--n-max", "3", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,lambda1,lambda2"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(0.5, abs=1e-9)
        assert float(first[2]) == pytest.approx(0.5, abs=1e-9)
        second = lines[2].split(",")
        assert float(second[1]) == pytest.approx(float(second[2]), abs=1e-9)

    def test_ambiguity_exits_with_code_4(self, monkeypatch, capsys):
        import numpy as np

        from qtransfer import qubitpur

        # The prescan evaluates each strategy once per N over its whole grid.
        for module, grid_evaluator in ((qubitpur, "average_fidelity_grid"),
                                       (entpur, "expected_fidelity_grid")):
            with monkeypatch.context() as patch:
                patch.setattr(module, grid_evaluator,
                              lambda n, lam0s: 0.75 + 0.2 * np.sin(40.0 * np.asarray(lam0s)))
                assert main(["crossings", "--n-max", "3"]) == 4
                assert "N=1" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt,expected", [("csv", "1,0.5,\n"), ("json", '"lambda2": null')])
    def test_absent_crossing_is_rendered_empty(self, monkeypatch, capsys, fmt, expected):
        monkeypatch.setattr(compare, "crossing_points",
                            lambda n: compare.CrossingResult(n, 0.5, None))
        assert main(["crossings", "--n-max", "1", "--format", fmt]) == 0
        assert expected in capsys.readouterr().out

    def test_missing_n_max_is_an_input_error(self, capsys):
        assert main(["crossings"]) == 2
        capsys.readouterr()


class TestValidate:
    def test_healthy_build_passes(self, capsys):
        assert main(["validate", "--mc-samples", "20000"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["passed"] is True
        assert summary["failed"] == []
        assert {c["name"] for c in summary["checks"]} >= {
            "teleport_mixture_match", "purification_step_weights_match",
            "spin_projector_match", "quadrature_fidelity_match", "mc_within_five_sigma"}

    def test_deterministic_for_fixed_seed(self, capsys):
        assert main(["validate", "--seed", "7", "--mc-samples", "20000"]) == 0
        first = capsys.readouterr().out
        assert main(["validate", "--seed", "7", "--mc-samples", "20000"]) == 0
        assert capsys.readouterr().out == first

    def test_injected_recurrence_error_is_detected(self, monkeypatch, capsys):
        healthy = entpur.purify_lambda

        def corrupted(lam):
            # sign error in the linear term of the numerator
            return (10.0 * lam * lam + 2.0 * lam + 1.0) / (8.0 * lam * lam - 4.0 * lam + 5.0)

        monkeypatch.setattr(entpur, "purify_lambda", corrupted)
        assert corrupted(1.0) != healthy(1.0)
        assert main(["validate", "--mc-samples", "5000"]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["passed"] is False
        assert "purification_twirl_consistency" in summary["failed"]

    @pytest.mark.parametrize("samples", ["1", "2", "3"])
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_few_monte_carlo_samples_pass(self, capsys, samples, seed):
        # Tied samples have a sample standard error of 0; the check must not use it.
        assert main(["validate", "--mc-samples", samples, "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["failed"] == []

    def test_report_can_be_written_to_a_file(self, tmp_path):
        out = tmp_path / "validate.json"
        assert main(["validate", "--mc-samples", "5000", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_sample_count_is_an_input_error(self, capsys, samples):
        assert main(["validate", "--mc-samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert main(["nonsense"]) == 2
        capsys.readouterr()

    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_precision_bounds(self, capsys):
        assert main(["single", "--lambda0", "0.7", "--precision", "30"]) == 2
        capsys.readouterr()

    def test_precision_is_applied(self, capsys):
        assert main(["single", "--lambda0", "0.3", "--precision", "6"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.533333"

    def test_entry_point_is_wired(self):
        assert callable(cli.entry)
