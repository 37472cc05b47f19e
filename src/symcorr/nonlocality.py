"""Generalized Svetlichny inequalities for n qubits.

The polynomial is built from the two-outcome recursion
m_k = (m_{k-1} (o_k + O_k) + M_{k-1} (o_k - O_k)) / 2 (and its partner), with
the even/odd assembly N_n = m_n (n even) or (m_n + M_n) / 2 (n odd).
Unrolled, every monomial weighs +-2^-floor((n+1)/2), with a sign set only by
how many second settings it holds (Collins et al., PRL 88, 170405 (2002)).
Each monomial corresponds to one n-qubit correlation function measured in the
equatorial plane, R(theta) = cos(theta) sigma_x + sin(theta) sigma_y per
qubit.  The hidden-variable bound of the normalized polynomial is 1.

States whose only full-bit-flip coherence sits in the extremal corner (all noisy GHZ and remixed thermal
states here) admit a closed-form maximum, 2 |rho[0, 2^n - 1]| * sqrt(2^(n-1)) for even n (sqrt(2^(n-2))
odd), with explicit optimal settings; anything else falls back to a seeded multi-start coordinate search.
Along one setting angle t the polynomial is c + a cos t + b sin t (it is linear in each observable), so
each coordinate step reads a, b and c at t = 0, pi/2 and pi and moves to the maximum, t = atan2(b, a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qstate import DensityMatrix, basis_bits, check_qubit_count

_FAST_PATH_TOL = 1e-12
_IMAG_TOL = 1e-10
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class SvetlichnyExpansion:
    """Signed weights of the 2^n correlation monomials, keyed by the setting
    choice tuple (q_1 .. q_n) with q_i in {1, 2}."""

    n: int
    coefficients: dict


@dataclass(frozen=True)
class SettingsTable:
    """Per-qubit measurement angle pair (theta_i^1, theta_i^2), wrapped to [0, 2 pi)."""

    pairs: tuple

    def __post_init__(self):
        # a second wrap maps 2 pi, the remainder of a tiny negative angle in floats, to 0
        pairs = tuple((float(a) % _TWO_PI % _TWO_PI, float(b) % _TWO_PI % _TWO_PI) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)

    @property
    def n_qubits(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SvetlichnyBounds:
    lhv: float
    quantum_max: float
    separability_thresholds: tuple


def _monomial_weights(bits: np.ndarray) -> np.ndarray:
    """Weight of each monomial, one per row of a `basis_bits` table (bit 1 = second setting).

    Every weight is +-2^-floor((n+1)/2); with t second settings the sign is +
    iff (2t - 2 floor((n-1)/2) - 1) mod 8 is 1 or 7.
    """
    n = bits.shape[1]
    phase = (2 * bits.sum(axis=1) - 2 * ((n - 1) // 2) - 1) % 8
    return np.where((phase == 1) | (phase == 7), 1.0, -1.0) * 2.0 ** -((n + 1) // 2)


def svetlichny_expansion(n: int) -> SvetlichnyExpansion:
    """Expansion of the n-qubit polynomial into its 2^n signed monomials."""
    check_qubit_count(n, minimum=2)
    bits = basis_bits(n)
    weights = _monomial_weights(bits).tolist()  # dyadic, so Fraction(w) is exact
    return SvetlichnyExpansion(n, {tuple(q): Fraction(w) for q, w in zip((bits + 1).tolist(), weights)})


def _antidiagonal(rho: DensityMatrix) -> np.ndarray:
    """Elements rho[~s, s] connecting every basis state to its full bit flip; (c*, 0, ..., 0, c) for a state
    held in X form with corner c, read without building its dense matrix."""
    dim = rho.dim
    if rho.x_parts is not None:
        corner = rho.x_parts[1]
        anti = np.zeros(dim, dtype=complex)
        anti[0], anti[-1] = corner.conjugate() if corner.imag else corner, corner  # as `x_matrix` mirrors it
        return anti
    idx = np.arange(dim)
    return rho.data[dim - 1 - idx, idx]


def correlation(rho: DensityMatrix, angles) -> float:
    """Expectation of the product of equatorial observables, one per qubit.

    Tr[(tensor_i cos(theta_i) sigma_x + sin(theta_i) sigma_y) rho].  The
    product operator only connects each basis state to its full bit flip, so
    the trace reduces to a phase-weighted sum over the anti-diagonal.
    """
    n = rho.n_qubits
    theta = np.asarray(angles, dtype=float).reshape(-1)
    if theta.size != n:
        raise ValueError(f"need one angle per qubit ({n}), got {theta.size}")
    phases = np.exp(1j * ((2.0 * basis_bits(n) - 1.0) @ theta))
    value = complex((_antidiagonal(rho) * phases).sum())
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(f"correlation has imaginary part {value.imag}")
    return float(value.real)


def _svetlichny_evaluator(rho: DensityMatrix):
    """The polynomial of `rho` at flattened (n, 2) angle tables; O(n 2^n) per nonzero antidiagonal entry."""
    n = rho.n_qubits
    choices = basis_bits(n)
    weights = _monomial_weights(choices)
    anti = _antidiagonal(rho)
    nonzero = np.flatnonzero(anti)  # exact zeros add nothing: an X state keeps two entries
    anti = anti[nonzero]
    signs = 2.0 * choices[nonzero] - 1.0
    index = (2 * np.arange(n) + choices).T  # [q, m]: flat position of monomial m's setting of qubit q

    def value(flat: np.ndarray):
        """The polynomial at a flattened (n, 2) table, or at each of a stack of them."""
        return (anti @ np.exp(1j * (signs @ flat.take(index, axis=-1)))).real @ weights

    return value


def svetlichny_value(rho: DensityMatrix, settings: SettingsTable) -> float:
    """Value of the normalized polynomial at the given per-qubit settings."""
    check_qubit_count(rho.n_qubits, minimum=2)
    if settings.n_qubits != rho.n_qubits:
        raise ValueError("settings table does not match the state's qubit count")
    return float(_svetlichny_evaluator(rho)(np.ravel(settings.pairs)))


def _comb_max(n: int) -> float:
    return math.sqrt(2.0 ** (n - 1)) if n % 2 == 0 else math.sqrt(2.0 ** (n - 2))


def _closed_form_settings(n: int, delta: float) -> SettingsTable:
    """Settings maximizing the cosine-comb objective 2c cos(sum theta + delta)."""
    pairs = [(-delta, math.pi / 2.0 - delta)]
    pairs += [(-math.pi / 4.0, math.pi / 4.0)] * (n - 1)
    if n % 2 == 1:
        pairs[1] = (-math.pi / 2.0, 0.0)
    return SettingsTable(tuple(pairs))


def _coordinate_search_max(rho: DensityMatrix, restarts: int, seed: int):
    n = rho.n_qubits
    evaluate = _svetlichny_evaluator(rho)
    rng = np.random.default_rng(seed)
    best_val, best_x = -math.inf, None
    for _ in range(restarts):
        x = rng.uniform(0.0, _TWO_PI, 2 * n)
        for _ in range(3):
            for i in range(2 * n):
                trials = x[None].repeat(3, axis=0)
                trials[:, i] = 0.0, math.pi / 2.0, math.pi
                f0, f1, f2 = evaluate(trials)
                x[i] = math.atan2(f1 - (f0 + f2) / 2.0, (f0 - f2) / 2.0)
        v = float(evaluate(x))
        if v > best_val:
            best_val, best_x = v, x.copy()
    return best_val, SettingsTable(tuple((best_x[2 * i], best_x[2 * i + 1]) for i in range(n)))


def max_violation(
    rho: DensityMatrix, restarts: int = 64, seed: int = 0
) -> tuple[float, SettingsTable]:
    """Maximum of the polynomial over the 2n equatorial measurement angles.

    Uses the closed form when the extremal corner holds the only
    full-bit-flip coherence; otherwise runs the seeded multi-start
    coordinate search: three exact sweeps over the 2n angles per restart,
    which can stop short of the maximum, so its result is a lower bound.
    """
    n = rho.n_qubits
    check_qubit_count(n, minimum=2)
    anti = _antidiagonal(rho)
    inner = anti[1:-1]
    if inner.size == 0 or np.abs(inner).max() < _FAST_PATH_TOL:
        c = anti[-1]  # rho[0...0, 1...1]
        delta = float(np.angle(c)) if abs(c) > 0.0 else 0.0
        settings = _closed_form_settings(n, delta)
        value = svetlichny_value(rho, settings)
        if abs(value - 2.0 * abs(c) * _comb_max(n)) <= 1e-9:
            return value, settings
    return _coordinate_search_max(rho, restarts, seed)


def bounds(n: int) -> SvetlichnyBounds:
    """Hidden-variable bound, quantum maximum and 1:(n-1) separability lines.

    The separability threshold 2^floor((n-2)/2) reproduces the known lines at
    2 (four or five qubits) and 4 (six or seven); no threshold is reported
    below four qubits.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"need an integer n >= 2, got {n!r}")
    try:
        quantum_max = _comb_max(n)
    except OverflowError:
        raise ValueError(f"the quantum maximum for n = {n} overflows a float") from None
    thresholds = () if n < 4 else (float(2 ** ((n - 2) // 2)),)
    return SvetlichnyBounds(lhv=1.0, quantum_max=quantum_max, separability_thresholds=thresholds)
