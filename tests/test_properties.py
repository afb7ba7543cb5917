"""Property tests of the exact strategy evaluators over random (N, lambda0),
and of the command line over random argument lists.

Examples are derandomized and not stored, so a run is reproducible from the
code alone.
"""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qtransfer import compare, entpur, qubitpur
from qtransfer.cli import main

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

supplies = st.integers(min_value=1, max_value=128)
strategy_lambdas = st.floats(min_value=0.25, max_value=1.0)


@PROPERTY_SETTINGS
@given(n=supplies, lam0=strategy_lambdas)
def test_fidelities_lie_between_a_coin_flip_and_one(n, lam0):
    assert 0.5 - 1e-12 <= entpur.expected_fidelity_dp(n, lam0).expected_fidelity <= 1.0 + 1e-12
    assert 0.5 - 1e-12 <= qubitpur.average_fidelity(n, lam0).expected_fidelity <= 1.0


@PROPERTY_SETTINGS
@given(n=st.integers(min_value=1, max_value=400), lam0=strategy_lambdas)
def test_qubit_pur_does_not_decrease_with_supply(n, lam0):
    smaller = qubitpur.average_fidelity(n, lam0).expected_fidelity
    assert qubitpur.average_fidelity(n + 1, lam0).expected_fidelity >= smaller - 1e-12


@PROPERTY_SETTINGS
@given(n=supplies, lam0=strategy_lambdas)
def test_qubit_pur_dominates_channel_purification(n, lam0):
    assert (qubitpur.average_fidelity(n, lam0).expected_fidelity
            >= compare.effective_entpur_fidelity(n, lam0) - 1e-12)


@PROPERTY_SETTINGS
@given(k=st.integers(min_value=0, max_value=31), lam0=st.floats(min_value=0.5, max_value=0.999))
def test_odd_supply_beats_the_next_even_one(k, lam0):
    # The discard-to-odd rule: an odd run can always fall back on a stored pair.
    assert (entpur.expected_fidelity_dp(2 * k + 1, lam0).expected_fidelity
            > entpur.expected_fidelity_dp(2 * k + 2, lam0).expected_fidelity)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(n=st.integers(min_value=1, max_value=200))
def test_crossings_are_sign_changes_of_the_scalar_gap(n):
    # Both fidelities rise with lambda0, so each gap is negative just below its root.
    result = compare.crossing_points(n)
    baseline = (n + 1) / (n + 2)
    for root, fidelity in ((result.lambda_1, compare.effective_entpur_fidelity),
                           (result.lambda_2,
                            lambda n, lam: qubitpur.average_fidelity(n, lam).expected_fidelity)):
        if root is not None:
            assert fidelity(n, root - 1e-12) - baseline <= 0.0 <= fidelity(n, root + 1e-12) - baseline


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(n=st.integers(min_value=1, max_value=61),
       lam0s=st.lists(strategy_lambdas, min_size=2, max_size=20))
def test_grid_fidelities_do_not_decrease_with_channel_quality(n, lam0s):
    # The crossing prescan takes one sign change per strategy to be the only root.
    lam0s = sorted(lam0s)
    for values in (entpur.expected_fidelity_grid(n, lam0s),
                   qubitpur.average_fidelity_grid(n, lam0s)):
        for lower, higher in zip(values.tolist(), values.tolist()[1:]):
            assert higher >= lower - 4 * math.ulp(lower), (n, lam0s)


# Sizes stay small so that every command line runs in milliseconds.
cli_supplies = st.integers(min_value=-2, max_value=40)
lambda_tokens = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0.5", "0", "0.25", "0.5", "1", "1.5"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=0.25, max_value=1.0).map(repr),
)
junk_tokens = st.sampled_from(["--bogus", "nan", "", "-1", "--n", "--lambda0",
                               "--precision", "--format", "--help"])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["single", "strategy", "sweep", "crossings"]))
    argv = [command]
    if command == "single":
        argv += ["--lambda0", draw(lambda_tokens)]
    elif command == "strategy":
        argv += [draw(st.sampled_from(["ent", "qubit", "est"])), "--n", str(draw(cli_supplies))]
        if draw(st.booleans()):
            argv += ["--lambda0", draw(lambda_tokens)]
        if draw(st.booleans()):
            argv += ["--mc-samples", str(draw(st.integers(min_value=-2, max_value=2000)))]
        if draw(st.booleans()):
            argv.append("--distribution")
    elif command == "sweep":
        sizes = draw(st.lists(cli_supplies, max_size=3))
        argv += ["--n", ",".join(map(str, sizes)),
                 "--grid", str(draw(st.integers(min_value=-1, max_value=8)))]
        if draw(st.booleans()):
            argv += ["--methods", draw(st.sampled_from(
                ["all", "ent_pur", "qubit_pur,estimation", "bogus", " ", "ent_pur,,"]))]
    else:
        argv += ["--n-max", str(draw(st.integers(min_value=-2, max_value=5)))]
    if draw(st.booleans()):
        argv += ["--precision", str(draw(st.integers(min_value=-5, max_value=25)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(min_value=-3, max_value=2**32)))]
    for token in draw(st.lists(junk_tokens, max_size=2)):
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), token)
    return argv


@PROPERTY_SETTINGS
@given(argv=command_lines())
def test_cli_returns_a_documented_exit_code(argv):
    # `validate` is left out: one run takes about a second.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
