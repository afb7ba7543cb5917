"""Property tests of the exact strategy evaluators over random (N, lambda0).

Examples are derandomized and not stored, so a run is reproducible from the
code alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qtransfer import compare, entpur, qubitpur

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

supplies = st.integers(min_value=1, max_value=128)
strategy_lambdas = st.floats(min_value=0.25, max_value=1.0)


@PROPERTY_SETTINGS
@given(n=supplies, lam0=strategy_lambdas)
def test_fidelities_lie_between_a_coin_flip_and_one(n, lam0):
    # The slack is the result types' own: qubit_pur reads 1.0000000000000002
    # at N=3, lambda0 = 1 - 1e-16, where its block probabilities sum one ulp over 1.
    for value in (entpur.expected_fidelity_dp(n, lam0).expected_fidelity,
                  qubitpur.average_fidelity(n, lam0).expected_fidelity):
        assert 0.5 - 1e-12 <= value <= 1.0 + 1e-12


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
