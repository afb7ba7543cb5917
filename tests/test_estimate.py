import numpy as np
import pytest

from qtransfer import estimate


def test_reference_values():
    assert estimate.estimation_fidelity(1) == 2 / 3
    assert estimate.estimation_fidelity(9) == 10 / 11


def test_strictly_increasing_up_to_a_million():
    n = np.arange(1, 1_000_001, dtype=float)
    values = (n + 1) / (n + 2)
    assert np.all(np.diff(values) > 0)
    # spot-check the vectorized identity against the API
    for k in (1, 2, 10, 999, 1_000_000):
        assert estimate.estimation_fidelity(k) == values[k - 1]


def test_bounds():
    for n in (1, 5, 100, 10_000):
        fid = estimate.estimation_fidelity(n)
        assert 2 / 3 <= fid < 1.0


def test_rejects_empty_ensemble():
    with pytest.raises(ValueError):
        estimate.estimation_fidelity(0)
