"""Local single-qubit noise channels applied uniformly to every qubit.

Amplitude damping loses an excitation to the environment with probability
`rate`; phase damping destroys coherence at the same rate while leaving all
populations untouched.  Both are applied through their two-element Kraus
decompositions; an independent environment-dilation route lives in `oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix

AMPLITUDE_DAMPING = "amplitude_damping"
PHASE_DAMPING = "phase_damping"
_KINDS = (AMPLITUDE_DAMPING, PHASE_DAMPING)

_COMPLETENESS_TOL = 1e-12


@dataclass(frozen=True)
class ChannelSpec:
    """A single-qubit channel kind plus its damping rate in [0, 1]."""

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        rate = float(self.rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {rate}")
        object.__setattr__(self, "rate", rate)


def kraus_operators(spec: ChannelSpec) -> list:
    """Two-element Kraus decomposition of the channel."""
    r = spec.rate
    if spec.kind == AMPLITUDE_DAMPING:
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - r)]], dtype=complex)
        k1 = np.array([[0.0, np.sqrt(r)], [0.0, 0.0]], dtype=complex)
    else:
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - r)]], dtype=complex)
        k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(r)]], dtype=complex)
    total = k0.conj().T @ k0 + k1.conj().T @ k1
    if not np.abs(total - np.eye(2)).max() < _COMPLETENESS_TOL:
        raise ValueError(f"Kraus operators are not complete within {_COMPLETENESS_TOL}")
    return [k0, k1]


def _apply_on_qubit(data: np.ndarray, n: int, qubit: int, kraus: list) -> np.ndarray:
    d_left = 2**qubit
    d_right = 2 ** (n - qubit - 1)
    t = data.reshape(d_left, 2, d_right, d_left, 2, d_right)
    out = np.zeros_like(t)
    for k in kraus:
        out += np.einsum("ab,cd,LbRMdS->LaRMcS", k, k.conj(), t)
    dim = 2**n
    return out.reshape(dim, dim)


def apply_local_channel(rho: DensityMatrix, spec: ChannelSpec) -> DensityMatrix:
    """Apply the channel independently to every qubit, same rate for all."""
    kraus = kraus_operators(spec)
    data = np.array(rho.data)
    for q in range(rho.n_qubits):
        data = _apply_on_qubit(data, rho.n_qubits, q, kraus)
    return DensityMatrix(rho.n_qubits, data)


def amplitude_damp(rho: DensityMatrix, lam: float) -> DensityMatrix:
    return apply_local_channel(rho, ChannelSpec(AMPLITUDE_DAMPING, lam))


def phase_damp(rho: DensityMatrix, gamma: float) -> DensityMatrix:
    return apply_local_channel(rho, ChannelSpec(PHASE_DAMPING, gamma))
