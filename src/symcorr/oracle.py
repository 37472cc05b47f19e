"""Brute-force validators for every optimized quantity.

These deliberately avoid the symmetry shortcuts used elsewhere: discord is
minimized over fully general projective bases (Givens-parametrized unitaries),
global discord over all 2n rotation angles, channels are realized through an
explicit system-environment isometry, and the hidden-variable bound is taken
over every deterministic strategy.  Everything is deterministic given the
configured seed.  Cost grows quickly, so the searches are capped at four qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import AMPLITUDE_DAMPING, ChannelSpec
from .nonlocality import svetlichny_expansion
from .qstate import (
    Cut,
    DensityMatrix,
    QubitCapError,
    RotationAngles,
    check_integer,
    check_qubit_count,
    clamp_nonneg,
    conditional_entropy,
    embed_operator,
    partial_trace,
    product_basis,
    rotation_matrix,
    shannon_entropy,
    von_neumann_entropy,
)

_TWO_PI = 2.0 * math.pi
_POWELL_OPTIONS = {"xtol": 1e-7, "ftol": 1e-12, "maxfev": 40000}
MAX_ORACLE_QUBITS = 4


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 8
    grid_density: int = 32
    seed: int = 2026

    def __post_init__(self):
        for name, minimum in (("restarts", 1), ("grid_density", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), minimum)


DEFAULT_CONFIG = OracleConfig()


def _check_cap(n: int) -> None:
    if n > MAX_ORACLE_QUBITS:
        raise QubitCapError(f"oracle is capped at {MAX_ORACLE_QUBITS} qubits, got {n}")


def _restart_seeds(config: OracleConfig) -> list:
    rng = np.random.default_rng(config.seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, config.restarts)]


def _multistart_min(objective, dim: int, config: OracleConfig) -> tuple[float, np.ndarray]:
    best_val, best_x = math.inf, None
    for seed in _restart_seeds(config):
        rng = np.random.default_rng(seed)
        candidates = rng.uniform(0.0, _TWO_PI, (config.grid_density, dim))
        values = [objective(x) for x in candidates]
        x0 = candidates[int(np.argmin(values))]
        result = minimize(objective, x0, method="Powell", options=_POWELL_OPTIONS)
        if result.fun < best_val:
            best_val, best_x = float(result.fun), np.asarray(result.x)
    return best_val, best_x


def _givens_unitary(dim: int, params: np.ndarray) -> np.ndarray:
    """Product of two-level rotations with phases; spans all projective bases."""
    u = np.eye(dim, dtype=complex)
    idx = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            theta, phi = params[idx], params[idx + 1]
            idx += 2
            g = np.eye(dim, dtype=complex)
            c, s = math.cos(theta), math.sin(theta)
            g[i, i] = c
            g[i, j] = -s * np.exp(1j * phi)
            g[j, i] = s * np.exp(-1j * phi)
            g[j, j] = c
            u = u @ g
    return u


def oracle_bipartite_discord(rho: DensityMatrix, cut: Cut, config: OracleConfig = DEFAULT_CONFIG) -> float:
    """Discord across `cut` minimized over general orthonormal measured bases."""
    _check_cap(rho.n_qubits)
    dim = 2 ** len(cut.measured)

    def ce(params: np.ndarray) -> float:
        # the unitary's columns are the measured basis
        return conditional_entropy(rho, cut, _givens_unitary(dim, params).T)

    ce_min, _ = _multistart_min(ce, dim * (dim - 1), config)
    s_meas = von_neumann_entropy(partial_trace(rho, cut.measured))
    return clamp_nonneg(s_meas - von_neumann_entropy(rho) + ce_min, "discord")


def oracle_global_discord_full(
    rho: DensityMatrix, config: OracleConfig = DEFAULT_CONFIG
) -> tuple[float, RotationAngles]:
    """Global discord minimized over all 2n rotation angles; returns the angles too.

    Each point does a full dense change of basis, independent of the fast path's one outcome string per
    weight: `product_basis` of the n rotations, and one stacked product for the n single-qubit terms,
    summed in qubit order.  The objective is bit-identical to the per-qubit `np.kron` form, so Powell
    takes the same path.
    """
    check_qubit_count(rho.n_qubits, minimum=2)
    _check_cap(rho.n_qubits)
    n = rho.n_qubits
    s_rho = von_neumann_entropy(rho)
    reduced = [partial_trace(rho, {j}) for j in range(n)]
    s_reduced = [von_neumann_entropy(r) for r in reduced]
    reduced_data = np.stack([r.data for r in reduced])
    data = rho.data

    def objective(params: np.ndarray) -> float:
        rots = rotation_matrix(params[:n], params[n:])
        b = product_basis(rots)
        dense = shannon_entropy(np.diag(b.conj().T @ data @ b).real)
        single = shannon_entropy((rots.conj().swapaxes(1, 2) @ reduced_data @ rots).diagonal(0, 1, 2).real)
        return (dense - s_rho) - sum(e - s for e, s in zip(single.tolist(), s_reduced))

    value, x = _multistart_min(objective, 2 * n, config)
    # a second wrap maps the period, the remainder of a tiny negative angle in floats, to 0
    pairs = tuple((x[i] % math.pi % math.pi, x[n + i] % _TWO_PI % _TWO_PI) for i in range(n))
    return clamp_nonneg(value, "global discord"), RotationAngles(pairs)


def oracle_global_discord(rho: DensityMatrix, config: OracleConfig = DEFAULT_CONFIG) -> float:
    return oracle_global_discord_full(rho, config)[0]


def _dilation_unitary(spec: ChannelSpec) -> np.ndarray:
    """Two-qubit (system, environment) unitary realizing the channel on env |0>."""
    r = spec.rate
    u = np.zeros((4, 4), dtype=complex)
    # basis order |s e>: 00, 01, 10, 11
    u[0, 0] = 1.0
    if spec.kind == AMPLITUDE_DAMPING:
        u[2, 2] = math.sqrt(1.0 - r)
        u[1, 2] = math.sqrt(r)
        u[1, 1] = math.sqrt(1.0 - r)
        u[2, 1] = -math.sqrt(r)
        u[3, 3] = 1.0
    else:
        u[2, 2] = math.sqrt(1.0 - r)
        u[3, 2] = math.sqrt(r)
        u[1, 1] = 1.0
        u[3, 3] = math.sqrt(1.0 - r)
        u[2, 3] = -math.sqrt(r)
    return u


def oracle_channel_dilation(rho: DensityMatrix, spec: ChannelSpec) -> DensityMatrix:
    """Apply the channel by attaching one environment qubit per system qubit,
    evolving unitarily and tracing the environment back out."""
    n = rho.n_qubits
    u = _dilation_unitary(spec)
    env0 = np.zeros((2, 2), dtype=complex)
    env0[0, 0] = 1.0
    data = rho.data
    for q in range(n):
        extended = np.kron(data, env0)
        full = embed_operator(u, (q, n), n + 1)
        extended = full @ extended @ full.conj().T
        t = extended.reshape(2**n, 2, 2**n, 2)
        data = np.trace(t, axis1=1, axis2=3)
    return DensityMatrix(n, data)


def oracle_lhv_bound(n: int) -> float:
    """Exhaustive maximum of the polynomial over deterministic +-1 strategies.

    All weights and partial sums are dyadic rationals, so the float result is
    exact.  The 4^n strategies are enumerated up to n = 5 (a few ms); larger n
    raises QubitCapError.
    """
    if n > 5:
        raise QubitCapError(f"deterministic-strategy enumeration is capped at 5 qubits, got {n}")
    coefficients = svetlichny_expansion(n).coefficients
    strategies = np.array(
        [[1.0 - 2.0 * ((a >> b) & 1) for b in range(2 * n)] for a in range(4**n)]
    )
    total = np.zeros(len(strategies))
    for q, w in coefficients.items():
        cols = [2 * i + (q[i] - 1) for i in range(n)]
        total += float(w) * strategies[:, cols].prod(axis=1)
    return float(np.abs(total).max())
