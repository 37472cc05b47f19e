"""Generalized Svetlichny inequalities for n qubits.

The polynomial is built from the two-outcome recursion
m_k = (m_{k-1} (o_k + O_k) + M_{k-1} (o_k - O_k)) / 2 (and its partner), with
the even/odd assembly N_n = m_n (n even) or (m_n + M_n) / 2 (n odd).  Each
monomial corresponds to one n-qubit correlation function measured in the
equatorial plane, R(theta) = cos(theta) sigma_x + sin(theta) sigma_y per
qubit.  The hidden-variable bound of the normalized polynomial is 1.

States whose only full-bit-flip coherence sits in the extremal corner (all
noisy GHZ and remixed thermal states here) admit a closed-form maximum,
2 |rho[0, 2^n - 1]| * sqrt(2^(n-1)) for even n (sqrt(2^(n-2)) odd), with
explicit optimal settings; anything else falls back to a seeded multi-start
coordinate search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .optim import grid_golden_min
from .qstate import DensityMatrix

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
        pairs = tuple((float(a) % _TWO_PI, float(b) % _TWO_PI) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)

    @property
    def n_qubits(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SvetlichnyBounds:
    lhv: float
    quantum_max: float
    separability_thresholds: tuple


@lru_cache(maxsize=None)
def _expansion_items(n: int) -> tuple:
    m = {(1,): Fraction(1)}
    big_m = {(2,): Fraction(1)}
    half = Fraction(1, 2)
    for _ in range(n - 1):
        next_m, next_big = {}, {}
        keys = set(m) | set(big_m)
        for q in keys:
            mq = m.get(q, Fraction(0))
            bq = big_m.get(q, Fraction(0))
            for setting, (cm, cb) in (
                (1, (half * (mq + bq), half * (bq - mq))),
                (2, (half * (mq - bq), half * (bq + mq))),
            ):
                if cm:
                    next_m[q + (setting,)] = next_m.get(q + (setting,), Fraction(0)) + cm
                if cb:
                    next_big[q + (setting,)] = next_big.get(q + (setting,), Fraction(0)) + cb
        m, big_m = next_m, next_big
    if n % 2 == 0:
        final = m
    else:
        final = {}
        for q in set(m) | set(big_m):
            w = (m.get(q, Fraction(0)) + big_m.get(q, Fraction(0))) / 2
            if w:
                final[q] = w
    return tuple(sorted(final.items()))


def svetlichny_expansion(n: int) -> SvetlichnyExpansion:
    """Expansion of the n-qubit polynomial into its 2^n signed monomials."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"need an integer n >= 2, got {n!r}")
    return SvetlichnyExpansion(n, dict(_expansion_items(n)))


def _bit_signs(n: int) -> np.ndarray:
    idx = np.arange(2**n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))) & 1
    return 2.0 * bits - 1.0


def _antidiagonal(rho: DensityMatrix) -> np.ndarray:
    """Elements rho[~s, s] connecting every basis state to its full bit flip."""
    dim = rho.dim
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
    phases = np.exp(1j * (_bit_signs(n) @ theta))
    value = complex((_antidiagonal(rho) * phases).sum())
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(f"correlation has imaginary part {value.imag}")
    return float(value.real)


def _svetlichny_evaluator(rho: DensityMatrix):
    """The polynomial of `rho` as a function of an (n, 2) per-qubit angle table."""
    n = rho.n_qubits
    items = _expansion_items(n)
    signs = _bit_signs(n)
    anti = _antidiagonal(rho)
    weights = np.array([float(w) for _, w in items])
    choices = np.array([[q[i] - 1 for i in range(n)] for q, _ in items])
    qubits = np.arange(n)[None, :]

    def value(table: np.ndarray) -> float:
        theta_rows = table[qubits, choices]
        corrs = (anti @ np.exp(1j * (signs @ theta_rows.T))).real
        return float(weights @ corrs)

    return value


def svetlichny_value(rho: DensityMatrix, settings: SettingsTable) -> float:
    """Value of the normalized polynomial at the given per-qubit settings."""
    if settings.n_qubits != rho.n_qubits:
        raise ValueError("settings table does not match the state's qubit count")
    return _svetlichny_evaluator(rho)(np.array(settings.pairs))


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

    def value(flat: np.ndarray) -> float:
        return evaluate(flat.reshape(n, 2))

    rng = np.random.default_rng(seed)
    best_val, best_x = -math.inf, None
    for _ in range(restarts):
        x = rng.uniform(0.0, _TWO_PI, 2 * n)
        for _ in range(3):
            for i in range(2 * n):

                def neg(t, i=i):
                    trial = x.copy()
                    trial[i] = t
                    return -value(trial)

                xi, fv = grid_golden_min(neg, x[i] - math.pi, x[i] + math.pi, num=17, tol=1e-6)
                x[i] = xi
        v = value(x)
        if v > best_val:
            best_val, best_x = v, x.copy()
    return best_val, SettingsTable(tuple((best_x[2 * i], best_x[2 * i + 1]) for i in range(n)))


def max_violation(
    rho: DensityMatrix, restarts: int = 64, seed: int = 0
) -> tuple[float, SettingsTable]:
    """Maximum of the polynomial over the 2n equatorial measurement angles.

    Uses the closed form when the extremal corner holds the only
    full-bit-flip coherence; otherwise runs the seeded multi-start
    coordinate search.
    """
    n = rho.n_qubits
    anti = _antidiagonal(rho)
    inner = anti[1:-1]
    if inner.size == 0 or np.abs(inner).max() < _FAST_PATH_TOL:
        c = rho.data[0, rho.dim - 1]
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
    thresholds = () if n < 4 else (float(2 ** ((n - 2) // 2)),)
    return SvetlichnyBounds(lhv=1.0, quantum_max=_comb_max(n), separability_thresholds=thresholds)
