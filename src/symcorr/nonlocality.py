"""Generalized Svetlichny inequalities for n qubits.

The polynomial is built from the two-outcome recursion
m_k = (m_{k-1} (o_k + O_k) + M_{k-1} (o_k - O_k)) / 2 (and its partner), with
the even/odd assembly N_n = m_n (n even) or (m_n + M_n) / 2 (n odd).
Unrolled, every monomial weighs +-2^-floor((n+1)/2), with a sign set only by
how many second settings it holds (Collins et al., PRL 88, 170405 (2002)).
Each monomial corresponds to one n-qubit correlation function measured in the
equatorial plane, R(theta) = cos(theta) sigma_x + sin(theta) sigma_y per
qubit.  The hidden-variable bound of the normalized polynomial is 1.

The monomial sum factorizes over the qubits, the product form of the Svetlichny and Mermin-Klyshko
operators: with t second settings a monomial weighs C Re(e^{-i pi c / 4} i^t), C = sqrt(2) 2^-floor((n+1)/2)
and c = 2 floor((n-1)/2) + 1, so the coefficient of an antidiagonal entry rho[~s, s], with spins
sigma_q = 2 s_q - 1, a_q = e^{i sigma_q theta_q1} and b_q = e^{i sigma_q theta_q2}, is
(C / 2) [e^{-i pi c / 4} prod_q (a_q + i b_q) + e^{i pi c / 4} prod_q (a_q - i b_q)].  Evaluation costs
O(n) per nonzero entry, so O(n) for an X state, whose corners are its only two.

States whose only full-bit-flip coherence sits in the extremal corner (all noisy GHZ and remixed thermal
states here) admit a closed-form maximum, 2 |rho[0, 2^n - 1]| * sqrt(2^(n-1)) for even n (sqrt(2^(n-2))
odd), with explicit optimal settings; anything else falls back to a seeded multi-start coordinate search.
Along one setting angle t the polynomial is c + a cos t + b sin t (it is linear in each observable), so
each coordinate step reads a, b and c at t = 0, pi/2 and pi and moves to the maximum, t = atan2(b, a).
All restarts take each step together, in one evaluator call on a (restarts, 3, 2n) stack of tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qstate import DensityMatrix, basis_bits, check_integer, check_qubit_count

_FAST_PATH_TOL = 1e-12
_IMAG_TOL = 1e-10
_TWO_PI = 2.0 * math.pi
_SLICE_FACTORS = 2**16  # gathered product factors per evaluator slice, which bound its intermediates
_I_SPIN = np.array([[-1j], [1j]])  # i sigma for the spins sigma = -1, +1
_PLUS_MINUS = np.array([[1.0, 1.0], [1j, -1j]])  # (a, b) @ _PLUS_MINUS = (a + i b, a - i b)


@dataclass(frozen=True, eq=False)
class SvetlichnyExpansion:
    """Signed weights of the 2^n correlation monomials, keyed by the setting
    choice tuple (q_1 .. q_n) with q_i in {1, 2}."""

    n: int
    coefficients: dict


@dataclass(frozen=True)
class SettingsTable:
    """Per-qubit measurement angle pair (theta_i^1, theta_i^2), finite, wrapped to [0, 2 pi)."""

    pairs: tuple

    def __post_init__(self):
        try:
            pairs = tuple((float(a), float(b)) for a, b in self.pairs)
        except (TypeError, ValueError):
            raise ValueError(f"settings must be pairs of real angles, got {self.pairs!r}") from None
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in pairs):
            raise ValueError(f"setting angles must be finite, got {self.pairs!r}")
        # a second wrap maps 2 pi, the remainder of a tiny negative angle in floats, to 0
        pairs = tuple((a % _TWO_PI % _TWO_PI, b % _TWO_PI % _TWO_PI) for a, b in pairs)
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


def _antidiagonal_entries(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(spins, values) of the nonzero elements rho[~s, s] connecting a basis state s to its full bit flip:
    row j of `spins` holds sigma_q = 2 s_q - 1 of entry `values[j]`.  A state held in X form gives its
    `XState.corner_pair` (c*, c), with no 2^n vector."""
    n = rho.n_qubits
    if rho.x_parts is not None:
        values = np.array(rho.x_parts.corner_pair)
        spins = np.array([[-1.0] * n, [1.0] * n])
        return (spins, values) if rho.x_parts.corner else (spins[:0], values[:0])
    dim = rho.dim
    idx = np.arange(dim)
    anti = rho.data[dim - 1 - idx, idx]
    nonzero = np.flatnonzero(anti)  # exact zeros add nothing
    return 2.0 * basis_bits(n)[nonzero] - 1.0, anti[nonzero]


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
    if not np.isfinite(theta).all():
        raise ValueError(f"correlation angles must be finite, got {angles!r}")
    spins, values = _antidiagonal_entries(rho)
    value = complex((values * np.exp(1j * (spins @ theta))).sum())
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(f"correlation has imaginary part {value.imag}")
    return float(value.real)


def _svetlichny_evaluator(n: int, spins: np.ndarray, values: np.ndarray):
    """The polynomial at flattened (n, 2) angle tables, from the nonzero antidiagonal entries (`spins`,
    `values`) of an n-qubit state, in its product form; O(n) per entry."""
    index = np.arange(0, 2 * n, 2)[:, None] + (spins.T > 0)  # [q, j]: qubit q's factors for entry j's spin
    half_c = (1 - 1j) * (-1j) ** ((n - 1) // 2) * 2.0 ** -((n + 1) // 2 + 1)  # (C / 2) e^{-i pi c / 4}
    weights = np.multiply.outer(values, (half_c, half_c.conjugate())).ravel()
    per_slice = max(1, _SLICE_FACTORS // (n * max(1, weights.size)))

    def value(flat: np.ndarray):
        """The polynomial at a flattened (n, 2) table, or at each of a stack of them."""
        flat = np.asarray(flat, dtype=float)
        tables = flat.reshape(-1, 2 * n)
        out = np.empty(len(tables))
        for start in range(0, len(tables), per_slice):
            chunk = tables[start:start + per_slice]
            e = np.exp(chunk.reshape(-1, n, 1, 2) * _I_SPIN)  # [table, q, spin, setting]
            factors = (e.reshape(-1, 2) @ _PLUS_MINUS).reshape(len(e), 2 * n, 2)  # [table, (q, spin), +-]
            prods = factors.take(index, axis=1).prod(axis=1)  # [table, entry, +-], qubit by qubit
            # a row sum, not a matrix product, so a table's value does not depend on the slice it is in
            out[start:start + per_slice] = (prods.reshape(len(e), -1) * weights).sum(axis=-1).real
        return out.reshape(flat.shape[:-1])

    return value


def svetlichny_value(rho: DensityMatrix, settings: SettingsTable) -> float:
    """Value of the normalized polynomial at the given per-qubit settings."""
    n = rho.n_qubits
    check_qubit_count(n, minimum=2)
    if settings.n_qubits != n:
        raise ValueError("settings table does not match the state's qubit count")
    return float(_svetlichny_evaluator(n, *_antidiagonal_entries(rho))(np.ravel(settings.pairs)))


def _comb_max(n: int) -> float:
    return math.sqrt(2.0 ** (n - 1)) if n % 2 == 0 else math.sqrt(2.0 ** (n - 2))


def _closed_form_settings(n: int, delta: float) -> SettingsTable:
    """Settings maximizing the cosine-comb objective 2c cos(sum theta + delta)."""
    pairs = [(-delta, math.pi / 2.0 - delta)]
    pairs += [(-math.pi / 4.0, math.pi / 4.0)] * (n - 1)
    if n % 2 == 1:
        pairs[1] = (-math.pi / 2.0, 0.0)
    return SettingsTable(tuple(pairs))


def _coordinate_search_max(evaluate, n: int, restarts: int, seed: int):
    """Three sweeps of exact coordinate steps from `restarts` seeded random tables, all restarts stepped
    together; the best final table, the first one on ties."""
    x = np.random.default_rng(seed).uniform(0.0, _TWO_PI, (restarts, 2 * n))
    for _ in range(3):
        for i in range(2 * n):
            trials = x[:, None, :].repeat(3, axis=1)
            trials[:, :, i] = 0.0, math.pi / 2.0, math.pi
            f = evaluate(trials)
            f0, f1, f2 = f[:, 0], f[:, 1], f[:, 2]
            x[:, i] = np.arctan2(f1 - (f0 + f2) / 2.0, (f0 - f2) / 2.0)
    values = evaluate(x)
    best = int(np.argmax(values))
    return float(values[best]), SettingsTable(tuple(zip(x[best, 0::2], x[best, 1::2])))


def max_violation(
    rho: DensityMatrix, restarts: int = 64, seed: int = 0
) -> tuple[float, SettingsTable]:
    """Maximum of the polynomial over the 2n equatorial measurement angles.

    Uses the closed form when the extremal corner holds the only
    full-bit-flip coherence; otherwise runs the seeded multi-start
    coordinate search: three exact sweeps over the 2n angles per restart,
    which can stop short of the maximum, so its result is a lower bound.
    `restarts` must be an integer >= 1 and `seed` an integer >= 0.
    """
    n = rho.n_qubits
    check_qubit_count(n, minimum=2)
    check_integer("restarts", restarts, minimum=1)
    check_integer("seed", seed, minimum=0)
    spins, values = _antidiagonal_entries(rho)
    evaluate = _svetlichny_evaluator(n, spins, values)
    weight = spins.sum(axis=1)
    if np.abs(values[np.abs(weight) != n]).max(initial=0.0) < _FAST_PATH_TOL:
        c = values[-1] if len(values) and weight[-1] == n else 0j  # rho[0...0, 1...1], last in index order
        delta = float(np.arctan2(c.imag, c.real)) if abs(c) > 0.0 else 0.0  # np.angle(c)
        settings = _closed_form_settings(n, delta)
        value = float(evaluate(np.ravel(settings.pairs)))
        if abs(value - 2.0 * abs(c) * _comb_max(n)) <= 1e-9:
            return value, settings
    return _coordinate_search_max(evaluate, n, restarts, seed)


def bounds(n: int) -> SvetlichnyBounds:
    """Hidden-variable bound, quantum maximum and 1:(n-1) separability lines.

    The separability threshold 2^floor((n-2)/2) reproduces the known lines at
    2 (four or five qubits) and 4 (six or seven); no threshold is reported
    below four qubits.
    """
    check_integer("n", n, minimum=2)
    try:
        quantum_max = _comb_max(n)
    except OverflowError:
        raise ValueError(f"the quantum maximum for n = {n} overflows a float") from None
    thresholds = () if n < 4 else (float(2 ** ((n - 2) // 2)),)
    return SvetlichnyBounds(lhv=1.0, quantum_max=quantum_max, separability_thresholds=thresholds)
