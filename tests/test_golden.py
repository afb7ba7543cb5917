"""Golden outputs: the README's command-line examples and the oracle suite's layout.

The determinism tests elsewhere compare two runs of the same code; these
compare against fixed text, so a change that alters a printed digit,
reorders the checks or renames one fails here.
"""

import json
import shlex
from pathlib import Path

import pytest

from qtransfer.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> dict[str, str]:
    """Map each `$ qtransfer ...` line in the README's text blocks to the output under it."""
    examples = {}
    in_block = False
    command = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = line == "```text"
            command = None
        elif in_block and line.startswith("$ qtransfer "):
            command = line[len("$ qtransfer "):]
            examples[command] = ""
        elif in_block and command is not None:
            if line:
                examples[command] += line + "\n"
            else:
                command = None
    return examples


EXAMPLES = _readme_examples()


def test_readme_lists_the_expected_examples():
    assert list(EXAMPLES) == [
        "single --lambda0 0.7",
        "strategy ent --n 3 --lambda0 0.8",
        "strategy qubit --n 2 --lambda0 0.7 --distribution",
        "strategy est --n 9",
        "crossings --n-max 4",
    ]


@pytest.mark.parametrize("command", list(EXAMPLES))
def test_readme_example_output(command, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == EXAMPLES[command]


# Every break-even point up to N = 20, as printed when each prescan point
# was evaluated on its own; a sign flip anywhere in a prescan moves a row.
# Each value is the 30-digit mpmath root rounded to 12 digits (test_compare).
CROSSINGS_TO_20 = """\
N,lambda1,lambda2
1,0.5,0.5
2,0.625,0.625
3,0.678175860075,0.607870131949
4,0.723954951378,0.643085023462
5,0.740802100265,0.634049483843
6,0.76532171039,0.648434598629
7,0.774286743845,0.642880681751
8,0.790537759572,0.649658151592
9,0.794656602092,0.645890245622
10,0.806292352581,0.649262368311
11,0.808494400309,0.646529560208
12,0.817431176094,0.648196060935
13,0.818935165988,0.646118223264
14,0.826172621392,0.646871866779
15,0.827884465748,0.645236588221
16,0.834009982839,0.645483202819
17,0.835137593789,0.644162392329
18,0.840365673108,0.644123420347
19,0.84080914976,0.64303500272
20,0.845307380851,0.642836735727
"""


def test_crossings_table_output(capsys):
    assert main(["crossings", "--n-max", "20"]) == 0
    assert capsys.readouterr().out == CROSSINGS_TO_20


def test_sweep_row_matches_multiprecision_value(capsys):
    # The 40-digit value is 0.85316853914350014 (test_compare's _mp_ent_pur):
    # 1.4e-16, about an ulp, above a 12-digit rounding boundary.
    assert main(["sweep", "--methods", "ent_pur", "--n", "12", "--grid", "60"]) == 0
    assert "ent_pur,12,0.741803278689,0.853168539144\n" in capsys.readouterr().out


def test_validate_check_layout(capsys):
    assert main(["validate", "--seed", "7", "--mc-samples", "20000"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    layout = [(c["name"], c["passed"], c["tolerance"]) for c in checks]
    # The Monte Carlo tolerance is five exact standard errors of a 20,000-sample
    # mean, sqrt(Var F / 20000) from the 10 outcome paths of N = 9, lambda0 = 0.8.
    assert layout == [
        ("teleport_mixture_match", True, 1e-12),
        ("teleport_fidelity_match", True, 1e-12),
        ("teleport_outcomes_uniform", True, 1e-12),
        ("purification_step_weights_match", True, 1e-12),
        ("purification_step_pass_probability_match", True, 1e-12),
        ("purification_twirl_consistency", True, 1e-12),
        ("purification_fixed_points", True, 1e-14),
        ("purification_gain_above_half", True, 0.0),
        ("outcome_distribution_normalization", True, 1e-12),
        ("spin_projector_match", True, 1e-10),
        ("quadrature_fidelity_match", True, 1e-06),
        ("small_supply_identities", True, 1e-12),
        ("run_single_pair_identity", True, 1e-14),
        ("run_path_weights_normalized", True, 1e-12),
        ("mc_within_five_sigma", True, pytest.approx(0.0006606121273581245, rel=1e-9)),
    ]
