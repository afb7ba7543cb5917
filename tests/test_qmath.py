import math

import numpy as np
import pytest

from qtransfer import channel, entpur, qmath, qubitpur
from qtransfer.qmath import BellDiagonal, BlochAngles


def random_density(rng, dim=2):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


def random_angles(rng):
    return BlochAngles(theta=math.acos(rng.uniform(-1.0, 1.0)),
                       phi=rng.uniform(0.0, 2.0 * math.pi))


class TestBlochKets:
    def test_poles(self):
        np.testing.assert_allclose(qmath.bloch_to_ket(BlochAngles(0.0, 0.0)), [1, 0], atol=1e-14)
        np.testing.assert_allclose(qmath.bloch_to_ket(BlochAngles(math.pi, 0.0)), [0, 1], atol=1e-14)

    def test_equator_with_phase(self):
        ket = qmath.bloch_to_ket(BlochAngles(math.pi / 2, math.pi / 2))
        np.testing.assert_allclose(ket, [1 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-14)

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            ket = qmath.bloch_to_ket(random_angles(rng))
            assert abs(np.linalg.norm(ket) - 1.0) < 1e-14

    def test_orthogonal_reference_points(self):
        np.testing.assert_allclose(qmath.orthogonal_ket(BlochAngles(0.0, 0.0)), [0, -1], atol=1e-14)
        np.testing.assert_allclose(qmath.orthogonal_ket(BlochAngles(math.pi / 2, 0.0)),
                                   [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-14)

    def test_orthogonality_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            angles = random_angles(rng)
            inner = np.vdot(qmath.bloch_to_ket(angles), qmath.orthogonal_ket(angles))
            assert abs(inner) < 1e-14

    def test_canonicalization(self):
        angles = BlochAngles(theta=1.0, phi=2.0 * math.pi + 1.0)
        assert angles.phi == pytest.approx(1.0)
        assert BlochAngles(theta=-0.1, phi=0.0).theta == 0.0
        assert BlochAngles(theta=4.0, phi=0.0).theta == math.pi
        with pytest.raises(ValueError):
            BlochAngles(theta=math.nan, phi=0.0)


class TestBellStates:
    def test_reference_vectors(self):
        np.testing.assert_allclose(qmath.bell_state("phi+"),
                                   np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(qmath.bell_state("psi-"),
                                   np.array([0, 1, -1, 0]) / math.sqrt(2), atol=1e-15)

    def test_orthonormal(self):
        kets = [qmath.bell_state(label) for label in qmath.BELL_LABELS]
        gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            qmath.bell_state("phi*")


class TestWernerState:
    def test_pure_limit(self):
        phi = qmath.bell_state("phi+")
        np.testing.assert_allclose(qmath.werner_density(1.0), np.outer(phi, phi.conj()),
                                   atol=1e-15)

    def test_completely_mixed_point(self):
        np.testing.assert_allclose(qmath.werner_density(0.25), np.eye(4) / 4.0, atol=1e-15)

    def test_bell_diagonal_weights(self):
        rng = np.random.default_rng(3)
        for lam in rng.uniform(0.0, 1.0, size=100):
            bd = qmath.bell_diagonal_weights(qmath.werner_density(lam))
            assert abs(bd.w_phi_plus - lam) < 1e-12
            for w in (bd.w_psi_plus, bd.w_phi_minus, bd.w_psi_minus):
                assert abs(w - (1.0 - lam) / 3.0) < 1e-12

    def test_density_invariants(self):
        for lam in (0.0, 0.25, 0.6, 1.0):
            rho = qmath.werner_density(lam)
            assert rho.shape == (4, 4)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert abs(np.trace(rho).imag) <= 1e-12
            assert float(np.min(np.linalg.eigvalsh(rho))) >= -1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qmath.werner_density(1.2)


class TestLambdaDomain:
    # Every closed form and matrix oracle shares one domain check,
    # qmath.require_lambda: [0, 1] for the closed forms and oracles,
    # [1/4, 1] for the two strategy evaluators.
    CASES = {
        "single_shot_fidelity": (channel.single_shot_fidelity, 0.0),
        "mixture_weights": (channel.mixture_weights, 0.0),
        "werner_density": (qmath.werner_density, 0.0),
        "pass_probability": (entpur.pass_probability, 0.0),
        "purify_lambda": (entpur.purify_lambda, 0.0),
        "teleport_oracle": (lambda lam: channel.teleport_oracle(lam, BlochAngles(1.2, 2.2)), 0.0),
        "step_oracle": (entpur.step_oracle, 0.0),
        "outcome_distribution": (lambda lam: qubitpur.outcome_distribution(3, lam), 0.0),
        "single_qubit_fidelity": (lambda lam: qubitpur.single_qubit_fidelity(2, lam), 0.0),
        "expected_fidelity_dp": (lambda lam: entpur.expected_fidelity_dp(3, lam), 0.25),
        "average_fidelity": (lambda lam: qubitpur.average_fidelity(3, lam), 0.25),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_rejects_values_outside_the_domain(self, name):
        fn, low = self.CASES[name]
        bad = [float("nan"), -0.1, 1.1] + ([0.2] if low > 0.0 else [])
        for lam in bad:
            with pytest.raises(ValueError, match="lambda must lie in"):
                fn(lam)
        fn(low)
        fn(1.0)


class TestTwirl:
    def test_extraction_roundtrip_within_tolerance(self):
        for lam in (0.0, 0.25, 0.5, 0.8, 1.0):
            bd = qmath.bell_diagonal_weights(qmath.werner_density(lam))
            assert abs(bd.w_phi_plus - lam) < 1e-12

    def test_bell_diagonal_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            BellDiagonal(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(ValueError):
            BellDiagonal(0.5, 0.2, 0.2, 0.2)


class TestTensorAndPartialTrace:
    def test_tensor_identity_mix(self):
        np.testing.assert_allclose(qmath.tensor(np.eye(2) / 2, np.eye(2) / 2),
                                   np.eye(4) / 4, atol=1e-15)

    def test_tensor_basis_projectors(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        np.testing.assert_allclose(qmath.tensor(p0, p1), expected, atol=1e-15)

    def test_tensor_trace_multiplicative(self):
        w = qmath.werner_density(0.8)
        prod = qmath.tensor(w, w)
        assert prod.shape == (16, 16)
        assert abs(np.trace(prod) - 1.0) < 1e-12

    def test_tensor_dimension_cap(self):
        big = np.eye(32) / 32.0
        with pytest.raises(ValueError):
            qmath.tensor(big, np.eye(16) / 16.0)

    def test_partial_trace_of_maximally_entangled(self):
        phi = qmath.bell_state("phi+")
        rho = np.outer(phi, phi.conj())
        np.testing.assert_allclose(qmath.partial_trace(rho, keep=[0]), np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(qmath.partial_trace(rho, keep=[1]), np.eye(2) / 2, atol=1e-14)

    def test_partial_trace_of_product_state(self):
        rng = np.random.default_rng(5)
        psi = qmath.bloch_to_ket(random_angles(rng))
        pure = np.outer(psi, psi.conj())
        sigma = random_density(rng)
        np.testing.assert_allclose(qmath.partial_trace(qmath.tensor(pure, sigma), keep=[0]),
                                   pure, atol=1e-14)

    def test_partial_trace_of_werner(self):
        np.testing.assert_allclose(qmath.partial_trace(qmath.werner_density(0.7), keep=[0]),
                                   np.eye(2) / 2, atol=1e-14)

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, dim=8)
        for keep in ([0], [1, 2], [0, 2]):
            reduced = qmath.partial_trace(rho, keep=keep)
            assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12

    def test_partial_trace_bad_indices(self):
        rho = qmath.werner_density(0.5)
        with pytest.raises(ValueError):
            qmath.partial_trace(rho, keep=[])
        with pytest.raises(ValueError):
            qmath.partial_trace(rho, keep=[2])


class TestApplyUnitary:
    def test_identity(self):
        rho = qmath.werner_density(0.6)
        np.testing.assert_allclose(qmath.apply_unitary(rho, np.eye(4), [0, 1]), rho, atol=1e-14)

    def test_cnot_truth_table(self):
        ket10 = np.zeros(4, dtype=complex)
        ket10[2] = 1.0
        rho = np.outer(ket10, ket10.conj())
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        np.testing.assert_allclose(qmath.apply_unitary(rho, qmath.CNOT, [0, 1]), expected,
                                   atol=1e-14)

    def test_bit_flip_on_first_qubit_maps_bell_states(self):
        phi = qmath.bell_state("phi+")
        psi = qmath.bell_state("psi+")
        rho = qmath.apply_unitary(np.outer(phi, phi.conj()), qmath.SIGMA_X, [0])
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-14)

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, dim=8)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unitary, _ = np.linalg.qr(raw)
        rotated = qmath.apply_unitary(rho, unitary, [0, 2])
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(rotated))
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            qmath.apply_unitary(qmath.werner_density(0.5), np.diag([1.0, 2.0]), [0])


class TestMeasurement:
    def test_unbiased_on_maximally_mixed(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        outcomes = qmath.measure_projective(np.eye(2, dtype=complex) / 2, [p0, p1])
        assert [prob for prob, _ in outcomes] == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_certain_on_eigenstate(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        outcomes = qmath.measure_projective(p0.copy(), [p0, p1])
        assert outcomes[0][0] == pytest.approx(1.0, abs=1e-14)
        assert outcomes[1][0] == pytest.approx(0.0, abs=1e-14)
        assert outcomes[1][1] is None

    def test_first_qubit_of_bell_pair(self):
        phi = qmath.bell_state("phi+")
        rho = np.outer(phi, phi.conj())
        p0 = qmath.tensor(np.diag([1.0, 0.0]).astype(complex), qmath.ID2)
        p1 = qmath.tensor(np.diag([0.0, 1.0]).astype(complex), qmath.ID2)
        outcomes = qmath.measure_projective(rho, [p0, p1])
        expected00 = np.zeros((4, 4), dtype=complex)
        expected00[0, 0] = 1.0
        expected11 = np.zeros((4, 4), dtype=complex)
        expected11[3, 3] = 1.0
        assert outcomes[0][0] == pytest.approx(0.5, abs=1e-14)
        assert outcomes[1][0] == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(outcomes[0][1], expected00, atol=1e-14)
        np.testing.assert_allclose(outcomes[1][1], expected11, atol=1e-14)

    def test_incomplete_set_rejected(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            qmath.measure_projective(np.eye(2, dtype=complex) / 2, [p0])


class TestFidelity:
    def test_self_overlap(self):
        rng = np.random.default_rng(8)
        psi = qmath.bloch_to_ket(random_angles(rng))
        assert qmath.fidelity_pure(psi, np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        assert qmath.fidelity_pure(np.array([1.0, 0.0]), np.eye(2) / 2) == pytest.approx(0.5)

    def test_completeness_of_orthogonal_pair(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            angles = random_angles(rng)
            rho = random_density(rng)
            total = (qmath.fidelity_pure(qmath.bloch_to_ket(angles), rho)
                     + qmath.fidelity_pure(qmath.orthogonal_ket(angles), rho))
            assert abs(total - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qmath.fidelity_pure(np.array([1.0, 0.0]), np.eye(4) / 4)
