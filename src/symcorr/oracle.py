"""Brute-force validators for every optimized quantity.

These deliberately avoid the symmetry shortcuts used elsewhere: discord is
minimized over fully general projective bases (Givens-parametrized unitaries),
global discord over all 2n rotation angles, channels are realized through an
explicit system-environment isometry, and the hidden-variable bound is taken
over every deterministic strategy.  Everything is deterministic given the
configured seed.  Cost grows quickly, so the default cap is four qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.optimize import minimize

from .channels import AMPLITUDE_DAMPING, ChannelSpec
from .global_discord import RotationAngles, rotation_matrix
from .nonlocality import svetlichny_expansion
from .qstate import (
    Cut,
    DensityMatrix,
    PureState,
    QubitCapError,
    conditional_state,
    embed_operator,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
)

_TWO_PI = 2.0 * math.pi
_POWELL_OPTIONS = {"xtol": 1e-7, "ftol": 1e-12, "maxfev": 40000}


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 8
    grid_density: int = 32
    seed: int = 2026
    max_qubits: int = 4

    def __post_init__(self):
        if self.max_qubits > 5:
            raise ValueError("oracle searches are capped at 5 qubits")
        if self.restarts < 1 or self.grid_density < 1:
            raise ValueError("restarts and grid_density must be positive")


DEFAULT_CONFIG = OracleConfig()


def _check_cap(n: int, config: OracleConfig) -> None:
    if n > config.max_qubits:
        raise QubitCapError(
            f"oracle is capped at {config.max_qubits} qubits, got {n}; "
            "raise max_qubits (at most 5) explicitly to override"
        )


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
    _check_cap(rho.n_qubits, config)
    if cut.n_qubits != rho.n_qubits:
        raise ValueError("cut does not match the state's qubit count")
    k = len(cut.measured)
    dim = 2**k
    n_params = dim * (dim - 1)

    def conditional_entropy(params: np.ndarray) -> float:
        u = _givens_unitary(dim, params)
        total = 0.0
        for col in range(dim):
            b, cond = conditional_state(rho, cut, PureState(k, u[:, col]))
            if cond is not None:
                total += b * von_neumann_entropy(cond)
        return total

    ce_min, _ = _multistart_min(conditional_entropy, n_params, config)
    s_meas = von_neumann_entropy(partial_trace(rho, cut.measured))
    return max(0.0, s_meas - von_neumann_entropy(rho) + ce_min)


def oracle_global_discord_full(
    rho: DensityMatrix, config: OracleConfig = DEFAULT_CONFIG
) -> tuple[float, RotationAngles]:
    """Global discord minimized over all 2n rotation angles; returns the angles too."""
    _check_cap(rho.n_qubits, config)
    n = rho.n_qubits
    s_rho = von_neumann_entropy(rho)
    reduced = [partial_trace(rho, {j}) for j in range(n)]
    s_reduced = [von_neumann_entropy(r) for r in reduced]
    reduced_data = [r.data for r in reduced]
    data = rho.data

    def objective(params: np.ndarray) -> float:
        rots = rotation_matrix(params[:n], params[n:])
        # a full dense change of basis, independent of the fast path's contraction
        ent = [
            shannon_entropy(np.diag(b.conj().T @ d @ b).real)
            for d, b in [(data, reduce(np.kron, rots))] + list(zip(reduced_data, rots))
        ]
        return (ent[0] - s_rho) - sum(e - s for e, s in zip(ent[1:], s_reduced))

    value, x = _multistart_min(objective, 2 * n, config)
    pairs = tuple(((x[i] % math.pi), (x[n + i] % _TWO_PI)) for i in range(n))
    return max(0.0, value), RotationAngles(pairs)


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


def oracle_lhv_bound(n: int, allow_large: bool = False) -> float:
    """Exhaustive maximum of the polynomial over deterministic +-1 strategies.

    All weights and partial sums are dyadic rationals, so the float result is
    exact.  n = 5 must be enabled explicitly; larger n is refused.
    """
    if n > 5 or (n == 5 and not allow_large):
        raise QubitCapError(
            "deterministic-strategy enumeration is capped at 4 qubits "
            "(5 with allow_large=True)"
        )
    coefficients = svetlichny_expansion(n).coefficients
    strategies = np.array(
        [[1.0 - 2.0 * ((a >> b) & 1) for b in range(2 * n)] for a in range(4**n)]
    )
    total = np.zeros(len(strategies))
    for q, w in coefficients.items():
        cols = [2 * i + (q[i] - 1) for i in range(n)]
        total += float(w) * strategies[:, cols].prod(axis=1)
    return float(np.abs(total).max())
