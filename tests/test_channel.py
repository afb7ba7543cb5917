import math

import numpy as np
import pytest

from qtransfer import channel, qmath
from qtransfer.qmath import BlochAngles


def random_angles(rng):
    return BlochAngles(theta=math.acos(rng.uniform(-1.0, 1.0)),
                       phi=rng.uniform(0.0, 2.0 * math.pi))


class TestTeleportMap:
    def test_ideal_channel(self):
        assert channel.mixture_weights(1.0) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_critical_point(self):
        assert channel.mixture_weights(0.25) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_generic_value(self):
        assert channel.mixture_weights(0.7) == pytest.approx((0.8, 0.2), abs=1e-15)

    def test_weights_form_a_distribution(self):
        lams = np.linspace(0.0, 1.0, 101)
        c1s, c0s = channel.mixture_weights(lams)
        for lam, c1, c0 in zip(lams.tolist(), c1s.tolist(), c0s.tolist()):
            assert channel.mixture_weights(lam) == (c1, c0)
            assert c1 >= 0.0 and c0 >= 0.0
            assert abs(c1 + c0 - 1.0) <= 1e-12

    @pytest.mark.parametrize("lam", [-0.1, 1.1, float("nan")])
    def test_rejects_out_of_protocol_range(self, lam):
        with pytest.raises(ValueError):
            channel.mixture_weights(lam)


class TestSingleShotFidelity:
    @pytest.mark.parametrize("lam,expected", [(1.0, 1.0), (0.25, 0.5), (0.7, 0.8)])
    def test_values(self, lam, expected):
        assert channel.single_shot_fidelity(lam) == pytest.approx(expected, abs=1e-15)

    def test_accepts_full_mathematical_range(self):
        assert channel.single_shot_fidelity(0.0) == pytest.approx(1.0 / 3.0)
        with pytest.raises(ValueError):
            channel.single_shot_fidelity(1.5)


class TestTeleportOracle:
    def test_ideal_channel_reproduces_input(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            angles = random_angles(rng)
            psi = qmath.bloch_to_ket(angles)
            out = channel.teleport_oracle(1.0, angles)
            np.testing.assert_allclose(out, np.outer(psi, psi.conj()), atol=1e-12)

    def test_completely_mixed_channel(self):
        rng = np.random.default_rng(11)
        out = channel.teleport_oracle(0.25, random_angles(rng))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_matches_closed_form_mixture(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            lam = rng.uniform(0.25, 1.0)
            angles = random_angles(rng)
            out = channel.teleport_oracle(lam, angles)
            assert np.max(np.abs(out - channel.output_state(lam, angles))) < 1e-12

    def test_matches_mixture_below_protocol_range(self):
        # The closed-form mixture covers the whole mathematical range,
        # including channels below the protocol threshold LAMBDA_CRIT.
        angles = BlochAngles(theta=1.3, phi=0.4)
        np.testing.assert_allclose(channel.teleport_oracle(0.1, angles),
                                   channel.output_state(0.1, angles), atol=1e-12)

    def test_fidelity_is_angle_independent(self):
        rng = np.random.default_rng(13)
        for lam in (0.3, 0.55, 0.9):
            for _ in range(5):
                angles = random_angles(rng)
                psi = qmath.bloch_to_ket(angles)
                fid = qmath.fidelity_pure(psi, channel.teleport_oracle(lam, angles))
                assert abs(fid - channel.single_shot_fidelity(lam)) < 1e-12

    def test_output_is_a_density_operator(self):
        rho = channel.teleport_oracle(0.6, BlochAngles(0.9, 5.1))
        assert rho.shape == (2, 2)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert abs(np.trace(rho).imag) <= 1e-12
        assert float(np.min(np.linalg.eigvalsh(rho))) >= -1e-9


class TestOutcomeStatistics:
    def test_bell_outcomes_are_uniform(self):
        rng = np.random.default_rng(14)
        for lam in (0.25, 0.5, 1.0):
            probs = channel.teleport_outcome_probabilities(lam, random_angles(rng))
            assert set(probs) == set(qmath.BELL_LABELS)
            for p in probs.values():
                assert abs(p - 0.25) < 1e-12
