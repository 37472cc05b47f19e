"""State families and symmetry-adapted measurement bases.

Covers the symmetric mixed states produced by coherently remixing the extremal
levels of a thermal product state, weighted GHZ states with their amplitude-
and phase-damped closed forms, and the single-angle measurement basis
families used by the discord optimizers.  All four families, the pure GHZ
state among them, are X states, built from their populations by excitation
count and their corner (`DensityMatrix.from_x`), so no dense matrix exists
until one is read.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .qstate import (
    DensityMatrix,
    basis_bits,
    check_qubit_count,
    check_unit_interval,
    rotation_matrix,
)


def _check_alpha(alpha1: float) -> tuple[float, float]:
    alpha1 = check_unit_interval("alpha1", alpha1)
    if alpha1 > 1.0 / math.sqrt(2.0) + 1e-12:  # past the canonical domain [0, 1/sqrt(2)]
        warnings.warn(
            f"alpha1={alpha1} exceeds 1/sqrt(2); accepted because swapping the "
            "two amplitudes is a local relabeling",
            stacklevel=3,
        )
    alpha2 = math.sqrt(max(0.0, 1.0 - alpha1 * alpha1))
    return alpha1, alpha2


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
    p0 = check_unit_interval("p0", p0)
    p1 = 1.0 - p0
    top = (p0**n + p1**n) / 2.0
    populations = [top] + [p0 ** (n - w) * p1**w for w in range(1, n)] + [top]
    return DensityMatrix.from_x(n, populations, (p0**n - p1**n) / 2.0)


def ghz_state(n: int, alpha1: float) -> DensityMatrix:
    """Weighted GHZ state alpha1|0...0> + alpha2|1...1>, alpha2 = sqrt(1 - alpha1^2).

    A pure GHZ state is an X state: populations alpha1^2 and alpha2^2 at the
    two ends and corner alpha1 alpha2, the entries of its outer product.  The
    canonical parameter domain is alpha1 in [0, 1/sqrt(2)]; larger values up
    to 1 are accepted with a warning (they only relabel the two amplitudes).
    """
    check_qubit_count(n, minimum=2)
    alpha1, alpha2 = _check_alpha(alpha1)
    return DensityMatrix.from_x(n, [alpha1 * alpha1] + [0.0] * (n - 1) + [alpha2 * alpha2], alpha1 * alpha2)


def ghz_ad_closed(n: int, alpha1: float, lam: float) -> DensityMatrix:
    """Closed form of the weighted GHZ state after per-qubit amplitude damping.

    Populations: alpha1^2 + alpha2^2 lam^n on |0...0>, alpha2^2 (1-lam)^n on
    |1...1>, and alpha2^2 (1-lam)^k lam^(n-k) on every level with k qubits in
    |1>.  The extremal coherence is damped to alpha1 alpha2 (1-lam)^(n/2).
    """
    check_qubit_count(n, minimum=2)
    alpha1, alpha2 = _check_alpha(alpha1)
    lam = check_unit_interval("lambda", lam)
    populations = [alpha2**2 * (1.0 - lam) ** k * lam ** (n - k) for k in range(n + 1)]
    populations[0] += alpha1**2
    return DensityMatrix.from_x(n, populations, alpha1 * alpha2 * (1.0 - lam) ** (n / 2.0))


def ghz_pd_closed(n: int, alpha1: float, gamma: float) -> DensityMatrix:
    """Closed form of the weighted GHZ state after per-qubit phase damping.

    Populations are untouched; the extremal coherence is damped by
    (1-gamma)^(n/2).  The state has rank at most 2 for every gamma.
    """
    check_qubit_count(n, minimum=2)
    alpha1, alpha2 = _check_alpha(alpha1)
    gamma = check_unit_interval("gamma", gamma)
    populations = [alpha1**2] + [0.0] * (n - 1) + [alpha2**2]
    return DensityMatrix.from_x(n, populations, alpha1 * alpha2 * (1.0 - gamma) ** (n / 2.0))


def symmetric_basis(k: int, theta: float) -> np.ndarray:
    """Single-angle measurement basis for a permutation-symmetric k-qubit block.

    Returns the 2^k orthonormal probes as the rows of a read-only complex
    (2^k, 2^k) array.  The first two rows are the theta-rotated extremal pair
    cos(theta)|0..0> + sin(theta)|1..1> and -sin(theta)|0..0> + cos(theta)|1..1>.
    Each intermediate excitation sector (j qubits in |1>, 0 < j < k) is filled
    with its C(k, j) Fourier modes over the lexicographically ordered basis
    states; the sector phases never enter a conditional probability, so any
    orthonormal completion would give the same discord.  k = 1 degenerates to
    the plain rotated single-qubit pair.
    """
    check_qubit_count(k)
    rows = np.zeros((2**k, 2**k), dtype=complex)
    rows[:2, [0, -1]] = rotation_matrix(float(theta), 0.0)
    weight = basis_bits(k).sum(axis=1)
    filled = 2
    for j in range(1, k):
        sector = np.flatnonzero(weight == j)
        size = sector.size
        m = np.arange(size)
        rows[filled : filled + size, sector] = np.exp(2j * np.pi * m[:, None] * m / size) / math.sqrt(size)
        filled += size
    rows.flags.writeable = False
    return rows
