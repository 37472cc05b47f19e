"""State families and symmetry-adapted measurement bases.

Covers the symmetric mixed states produced by coherently remixing the extremal
levels of a thermal product state, weighted GHZ states with their amplitude-
and phase-damped closed forms, the single-angle measurement basis families
used by the discord optimizers, and the symmetry operators (translation and
parity-phase) that those bases diagonalize.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, PureState, check_qubit_count, permutation_unitary

ALPHA_MAX_STRICT = 1.0 / math.sqrt(2.0)
_ORTHONORMALITY_TOL = 1e-10


def _check_unit_interval(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _check_alpha(alpha1: float, strict: bool) -> tuple[float, float]:
    alpha1 = float(alpha1)
    if strict:
        if not 0.0 <= alpha1 <= ALPHA_MAX_STRICT + 1e-12:
            raise ValueError(
                f"alpha1 must lie in [0, 1/sqrt(2)] in strict mode, got {alpha1}"
            )
    else:
        if not 0.0 <= alpha1 <= 1.0:
            raise ValueError(f"alpha1 must lie in [0, 1], got {alpha1}")
        if alpha1 > ALPHA_MAX_STRICT + 1e-12:
            warnings.warn(
                f"alpha1={alpha1} exceeds 1/sqrt(2); accepted because swapping the "
                "two amplitudes is a local relabeling",
                stacklevel=3,
            )
    alpha2 = math.sqrt(max(0.0, 1.0 - alpha1 * alpha1))
    return alpha1, alpha2


def _x_state(n: int, populations, coherence: float) -> DensityMatrix:
    """Diagonal state with the real corner coherence |0...0><1...1| (an X state).

    `populations[w]` sits on every basis state with w qubits in |1>,
    w = 0..n; `coherence` sits on both corners.
    """
    idx = np.arange(2**n)
    weight = sum((idx >> q) & 1 for q in range(n))
    mat = np.diag(np.asarray(populations, dtype=complex)[weight])
    mat[0, -1] = mat[-1, 0] = coherence
    return DensityMatrix(n, mat)


def thermo_state(n: int, p0: float) -> DensityMatrix:
    """Symmetric n-qubit mixed state with remixed extremal levels.

    Starting from (p0|0><0| + p1|1><1|)^n with p1 = 1 - p0, the all-zeros and
    all-ones levels are coherently remixed: the two extremal populations become
    (p0^n + p1^n)/2 with coherence (p0^n - p1^n)/2, while every intermediate
    computational level keeps its product weight p0^j p1^(n-j), where j is the
    number of qubits in |0>.  At p0 = 1/2 the state is maximally mixed.
    p0 <-> p1 is a global bit flip followed by Z on any one qubit: the flip
    alone keeps the coherence, which the exchange negates.
    """
    check_qubit_count(n, minimum=2)
    p0 = _check_unit_interval(p0, "p0")
    p1 = 1.0 - p0
    top = (p0**n + p1**n) / 2.0
    populations = [top] + [p0 ** (n - w) * p1**w for w in range(1, n)] + [top]
    return _x_state(n, populations, (p0**n - p1**n) / 2.0)


def ghz_state(n: int, alpha1: float, strict: bool = False) -> PureState:
    """Weighted GHZ state alpha1|0...0> + alpha2|1...1>, alpha2 = sqrt(1 - alpha1^2).

    The canonical parameter domain is alpha1 in [0, 1/sqrt(2)]; larger values up
    to 1 are accepted with a warning (they only relabel the two amplitudes)
    unless `strict` is set.
    """
    check_qubit_count(n, minimum=2)
    alpha1, alpha2 = _check_alpha(alpha1, strict)
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = alpha1
    vec[-1] = alpha2
    return PureState(n, vec)


def ghz_ad_closed(n: int, alpha1: float, lam: float, strict: bool = False) -> DensityMatrix:
    """Closed form of the weighted GHZ state after per-qubit amplitude damping.

    Populations: alpha1^2 + alpha2^2 lam^n on |0...0>, alpha2^2 (1-lam)^n on
    |1...1>, and alpha2^2 (1-lam)^k lam^(n-k) on every level with k qubits in
    |1>.  The extremal coherence is damped to alpha1 alpha2 (1-lam)^(n/2).
    """
    check_qubit_count(n, minimum=2)
    alpha1, alpha2 = _check_alpha(alpha1, strict)
    lam = _check_unit_interval(lam, "lambda")
    populations = [alpha2**2 * (1.0 - lam) ** k * lam ** (n - k) for k in range(n + 1)]
    populations[0] += alpha1**2
    return _x_state(n, populations, alpha1 * alpha2 * (1.0 - lam) ** (n / 2.0))


def ghz_pd_closed(n: int, alpha1: float, gamma: float, strict: bool = False) -> DensityMatrix:
    """Closed form of the weighted GHZ state after per-qubit phase damping.

    Populations are untouched; the extremal coherence is damped by
    (1-gamma)^(n/2).  The state has rank at most 2 for every gamma.
    """
    check_qubit_count(n, minimum=2)
    alpha1, alpha2 = _check_alpha(alpha1, strict)
    gamma = _check_unit_interval(gamma, "gamma")
    populations = [alpha1**2] + [0.0] * (n - 1) + [alpha2**2]
    return _x_state(n, populations, alpha1 * alpha2 * (1.0 - gamma) ** (n / 2.0))


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Complete orthonormal set of 2^k projective probes on a k-qubit block."""

    block_size: int
    vectors: tuple

    def __post_init__(self):
        dim = 2**self.block_size
        if len(self.vectors) != dim:
            raise ValueError(f"basis needs {dim} vectors, got {len(self.vectors)}")
        stacked = np.array([v.amplitudes for v in self.vectors]).T
        gram = stacked.conj().T @ stacked
        if np.abs(gram - np.eye(dim)).max() > _ORTHONORMALITY_TOL:
            raise ValueError("basis vectors are not orthonormal within 1e-10")
        object.__setattr__(self, "vectors", tuple(self.vectors))


def symmetric_basis(k: int, theta: float) -> MeasurementBasis:
    """Single-angle measurement basis for a permutation-symmetric k-qubit block.

    The first two vectors are the theta-rotated extremal pair
    cos(theta)|0..0> + sin(theta)|1..1> and -sin(theta)|0..0> + cos(theta)|1..1>.
    Each intermediate excitation sector (j qubits in |1>, 0 < j < k) is filled
    with its C(k, j) Fourier modes over the lexicographically ordered basis
    states; the sector phases never enter a conditional probability, so any
    orthonormal completion would give the same discord.  k = 1 degenerates to
    the plain rotated single-qubit pair.
    """
    check_qubit_count(k)
    theta = float(theta)
    dim = 2**k
    c, s = math.cos(theta), math.sin(theta)
    rows = np.zeros((dim, dim), dtype=complex)
    rows[:2, [0, -1]] = [[c, s], [-s, c]]
    filled = 2
    for j in range(1, k):
        sector = [idx for idx in range(dim) if int(idx).bit_count() == j]
        size = len(sector)
        for m in range(size):
            rows[filled, sector] = np.exp(2j * np.pi * m * np.arange(size) / size) / math.sqrt(size)
            filled += 1
    return MeasurementBasis(k, tuple(PureState(k, row) for row in rows))


def symmetry_generator(kind: str, k: int) -> np.ndarray:
    """Unitary on a k-qubit block that leaves the symmetric state families fixed.

    `kind` is "translation" (cyclic shift of the block's qubits) or
    "parity_phase" (diagonal: the 0-count parity times a per-|1> phase,
    exp(i pi / k) for odd k and exp(2 i pi / k) for even k > 2; for k = 2 the
    phase degenerates and the plain parity is returned).  The parity-phase
    sign convention makes |0...0> and |1...1> eigenvectors with eigenvalue +1
    for odd k.
    """
    check_qubit_count(k)
    if kind == "translation":
        return permutation_unitary(k, [(i + 1) % k for i in range(k)]).astype(complex)
    if kind == "parity_phase":
        dim = 2**k
        diag = np.zeros(dim, dtype=complex)
        for idx in range(dim):
            ones = int(idx).bit_count()
            zeros = k - ones
            if k == 2:
                diag[idx] = (-1.0) ** zeros
            elif k % 2 == 1:
                diag[idx] = -((-1.0) ** zeros) * np.exp(1j * np.pi * ones / k)
            else:
                diag[idx] = ((-1.0) ** zeros) * np.exp(2j * np.pi * ones / k)
        return np.diag(diag)
    raise ValueError(f"unknown symmetry kind {kind!r}")
