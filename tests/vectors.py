"""Pure states from their amplitude vectors: the dense references that tests build states and probes from."""

import math

import numpy as np

from symcorr.qstate import DensityMatrix


def basis_vector(n: int, index: int) -> np.ndarray:
    """|index> of n qubits, qubit 0 the most significant bit of `index`."""
    vec = np.zeros(2**n, dtype=complex)
    vec[index] = 1.0
    return vec


def ghz_vector(n: int, alpha1: float) -> np.ndarray:
    """alpha1|0...0> + alpha2|1...1>, with alpha2 = sqrt(1 - alpha1^2) computed as `ghz_state` does."""
    vec = np.zeros(2**n, dtype=complex)
    vec[0], vec[-1] = alpha1, math.sqrt(max(0.0, 1.0 - alpha1 * alpha1))
    return vec


def pure(vec) -> DensityMatrix:
    """The dense state |v><v| of a unit vector `vec` of length 2^n."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    return DensityMatrix.from_matrix(np.outer(vec, vec.conj()))
