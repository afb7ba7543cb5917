"""Dense complex linear algebra and few-qubit state primitives.

Conventions used by every module in this package: qubit 0 is the leftmost
tensor factor, the computational basis of two qubits is ordered
|00>, |01>, |10>, |11>, and all operators are dense complex matrices of
dimension at most 256 (eight qubits). `require_lambda` and `require_supply`
check the two inputs of every strategy: channel quality and supply size.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

MAX_DIM = 256

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Control is qubit 0 (left factor), target is qubit 1.
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)

BELL_LABELS = ("phi+", "psi+", "phi-", "psi-")

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) * _SQRT_HALF,
    "psi+": np.array([0, 1, 1, 0], dtype=complex) * _SQRT_HALF,
    "phi-": np.array([1, 0, 0, -1], dtype=complex) * _SQRT_HALF,
    "psi-": np.array([0, 1, -1, 0], dtype=complex) * _SQRT_HALF,
}


@dataclass(frozen=True)
class BlochAngles:
    """Polar and azimuthal angle of a pure qubit state on the Bloch sphere.

    theta is clipped into [0, pi] and phi is reduced modulo 2*pi at
    construction; non-finite values are rejected.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        phi = float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("Bloch angles must be finite")
        object.__setattr__(self, "theta", min(max(theta, 0.0), math.pi))
        object.__setattr__(self, "phi", phi % (2.0 * math.pi))


@dataclass(frozen=True)
class BellDiagonal:
    """Weights of a two-qubit state on the four Bell projectors."""

    w_phi_plus: float
    w_psi_plus: float
    w_phi_minus: float
    w_psi_minus: float

    def __post_init__(self):
        ws = self.weights()
        if any(not math.isfinite(w) for w in ws):
            raise ValueError("Bell weights must be finite")
        if any(w < -1e-12 or w > 1.0 + 1e-12 for w in ws):
            raise ValueError("Bell weights must lie in [0, 1]")
        if abs(math.fsum(ws) - 1.0) > 1e-12:
            raise ValueError("Bell weights must sum to 1")

    def weights(self) -> tuple[float, float, float, float]:
        """Weights in the label order phi+, psi+, phi-, psi-."""
        return (self.w_phi_plus, self.w_psi_plus, self.w_phi_minus, self.w_psi_minus)


def require_lambda(lam: float | np.ndarray, low: float = 0.0) -> None:
    """Reject a Werner parameter outside [low, 1], NaN included.

    The convention throughout the package: every closed form and oracle
    accepts the full mathematical range [0, 1], and the transfer strategies
    (`entpur` runs and `qubitpur.average_fidelity`) require
    [1/4, 1] (`channel.LAMBDA_CRIT`), below which a teleported copy is worse
    than a coin flip. An array is checked elementwise and its first value
    outside the range is reported, so the closed forms built on this check
    also take arrays. The message is formatted only when the check fails.
    """
    # Testing for a float first keeps the scalar call, made once per round
    # by the single-point evaluators, nearly as cheap as the bare comparison.
    if type(lam) is not float and isinstance(lam, np.ndarray):
        outside = lam[~((lam >= low) & (lam <= 1.0))]
        if outside.size:
            require_lambda(float(outside.flat[0]), low)
    elif not low <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [{low:g}, 1], got {lam}")


def require_supply(n) -> int:
    """Return a supply of pairs or copies as an int; reject all but integers of at least 1.

    A numpy integer becomes an int; a float, even 3.0, is rejected, not truncated.
    """
    # `int` first: the abstract-class test alone costs about 20 bare comparisons.
    if type(n) is not int and isinstance(n, numbers.Integral):
        n = int(n)
    if type(n) is not int or n < 1:
        raise ValueError(f"the supply must be a positive integer, got {n}")
    return n


def fsum_columns(rows) -> np.ndarray:
    """Correctly rounded sum down each column of a stack of equal-length rows, as `math.fsum`."""
    return np.array([math.fsum(column) for column in np.array(rows).T.tolist()])


def _qubit_count(dim: int) -> int:
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def _proj(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def bloch_to_ket(angles: BlochAngles) -> np.ndarray:
    """Unit ket cos(theta/2)|0> + sin(theta/2) e^{i phi}|1>."""
    half = 0.5 * angles.theta
    return np.array([math.cos(half), math.sin(half) * cmath.exp(1j * angles.phi)], dtype=complex)


def orthogonal_ket(angles: BlochAngles) -> np.ndarray:
    """Ket sin(theta/2)|0> - cos(theta/2) e^{i phi}|1>, orthogonal to bloch_to_ket(angles).

    The global phase is fixed exactly as written so that oracle comparisons
    are phase-deterministic.
    """
    half = 0.5 * angles.theta
    return np.array([math.sin(half), -math.cos(half) * cmath.exp(1j * angles.phi)], dtype=complex)


def bell_state(label: str) -> np.ndarray:
    """One of the four maximally entangled two-qubit kets."""
    try:
        return _BELL_VECTORS[label].copy()
    except KeyError:
        raise ValueError(f"unknown Bell label {label!r}; expected one of {BELL_LABELS}") from None


def werner_density(lam: float) -> np.ndarray:
    """Two-qubit mixture with weight lam on phi+ and (1-lam)/3 on each other Bell projector."""
    require_lambda(lam)
    rho = lam * _proj(_BELL_VECTORS["phi+"])
    rest = (1.0 - lam) / 3.0
    for label in ("psi+", "phi-", "psi-"):
        rho = rho + rest * _proj(_BELL_VECTORS[label])
    return rho


def bell_diagonal_weights(rho: np.ndarray) -> BellDiagonal:
    """Bell-basis diagonal of a two-qubit density operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 density operator")
    w = {label: float(np.real(np.vdot(_BELL_VECTORS[label], rho @ _BELL_VECTORS[label])))
         for label in BELL_LABELS}
    return BellDiagonal(w["phi+"], w["psi+"], w["phi-"], w["psi-"])


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, capped at dimension 256."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"tensor product dimension {dim} exceeds the supported maximum {MAX_DIM}")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced density operator on the kept qubits.

    Parameters
    ----------
    rho : array
        Density operator on n qubits (dimension 2**n).
    keep : iterable of int
        Qubit indices to retain, 0 being the leftmost factor.
    """
    rho = np.asarray(rho, dtype=complex)
    n = _qubit_count(rho.shape[0])
    keep = sorted({int(q) for q in keep})
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices must lie in 0..{n - 1}")
    drop = [q for q in range(n) if q not in keep]
    tens = rho.reshape((2,) * (2 * n))
    remaining = n
    for q in sorted(drop, reverse=True):
        tens = np.trace(tens, axis1=q, axis2=q + remaining)
        remaining -= 1
    dim = 2 ** remaining
    return tens.reshape(dim, dim)


def apply_unitary(rho: np.ndarray, u: np.ndarray, targets) -> np.ndarray:
    """Conjugate rho by a unitary acting on the given qubits.

    u must be a 2**k x 2**k unitary where k = len(targets); it is embedded
    on the target qubits (in the listed order) and applied as U rho U^dag.
    """
    rho = np.asarray(rho, dtype=complex)
    u = np.asarray(u, dtype=complex)
    n = _qubit_count(rho.shape[0])
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target qubit")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"target indices must lie in 0..{n - 1}")
    k = len(targets)
    if u.shape != (2 ** k, 2 ** k):
        raise ValueError("unitary dimension does not match the number of targets")
    if np.max(np.abs(u.conj().T @ u - np.eye(2 ** k))) > 1e-12:
        raise ValueError("matrix is not unitary")
    tens = rho.reshape((2,) * (2 * n))
    ut = u.reshape((2,) * (2 * k))
    tens = np.tensordot(ut, tens, axes=(tuple(range(k, 2 * k)), tuple(targets)))
    tens = np.moveaxis(tens, range(k), targets)
    bra_axes = [n + t for t in targets]
    tens = np.tensordot(ut.conj(), tens, axes=(tuple(range(k, 2 * k)), tuple(bra_axes)))
    tens = np.moveaxis(tens, range(k), bra_axes)
    return tens.reshape(rho.shape)


def measure_projective(rho: np.ndarray, projectors) -> list[tuple[float, np.ndarray | None]]:
    """Projective measurement outcomes (probability, normalized post-state).

    The projectors must resolve the identity within 1e-12. Outcomes with
    zero probability carry None as their post-state.
    """
    rho = np.asarray(rho, dtype=complex)
    projs = [np.asarray(p, dtype=complex) for p in projectors]
    total = sum(projs)
    if np.max(np.abs(total - np.eye(rho.shape[0]))) > 1e-12:
        raise ValueError("projectors do not resolve the identity")
    outcomes = []
    for proj in projs:
        prob = float(np.real(np.trace(proj @ rho)))
        prob = max(prob, 0.0)
        post = (proj @ rho @ proj) / prob if prob > 0.0 else None
        outcomes.append((prob, post))
    return outcomes


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float:
    """Overlap <psi|rho|psi>, clamped into [0, 1]."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (psi.size, psi.size):
        raise ValueError("state vector and density operator dimensions do not match")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state vector must be normalized")
    value = float(np.real(np.vdot(psi, rho @ psi)))
    return min(max(value, 0.0), 1.0)
