"""Global discord through dephasing in locally rotated product bases.

The collective measurement is parametrized by one rotation
R(theta, phi) = cos(theta) I + i sin(theta) cos(phi) sigma_y
              + i sin(theta) sin(phi) sigma_x
per qubit, applied to the computational product basis.  Global discord is the
minimum over angles of the relative entropy to the dephased state minus the
sum of the single-qubit relative entropies, each evaluated through the
identity S(rho || Pi(rho)) = S(Pi(rho)) - S(rho).

For permutation-invariant states one shared (theta, phi) pair suffices; the
projector set is exactly pi/2-periodic in theta, so the search runs over
theta in (0, pi/2] and reports the computational-basis optimum as pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .optim import golden_section_min
from .qstate import (
    DensityMatrix,
    partial_trace,
    require_permutation_symmetric,
    shannon_entropy,
    von_neumann_entropy,
)

_THETA_GRID = 64
_PHI_GRID = 64
_GRID_CHUNK = 256
_REFINE_SWEEPS = 3
_REFINE_TOL = 1e-7
_SEAM_TOL = 1e-6
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RotationAngles:
    """Per-qubit (theta, phi) rotation pairs, theta in [0, pi), phi in [0, 2 pi)."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(t), float(p)) for t, p in self.pairs)
        for t, p in pairs:
            if not 0.0 <= t < math.pi:
                raise ValueError(f"theta {t} outside [0, pi)")
            if not 0.0 <= p < _TWO_PI:
                raise ValueError(f"phi {p} outside [0, 2 pi)")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def uniform(cls, n_qubits: int, theta: float, phi: float) -> "RotationAngles":
        return cls(((theta, phi),) * n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.pairs)


def rotation_matrix(theta, phi) -> np.ndarray:
    """R(theta, phi) as a 2 x 2 matrix; equal-shape angle arrays give a stack of them."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    e = np.exp(1j * np.asarray(phi, dtype=float))
    r = np.empty(theta.shape + (2, 2), dtype=complex)
    r[..., 0, 0] = c
    r[..., 0, 1] = s * e
    r[..., 1, 0] = -s * e.conj()
    r[..., 1, 1] = c
    return r


def dephase_in_rotated_basis(rho: DensityMatrix, angles: RotationAngles) -> DensityMatrix:
    """Zero all off-diagonal elements of `rho` in the rotated product basis."""
    if angles.n_qubits != rho.n_qubits:
        raise ValueError("angle count does not match the state's qubit count")
    basis = reduce(np.kron, [rotation_matrix(t, p) for t, p in angles.pairs])
    probs = (basis.conj() * (rho.data @ basis)).sum(axis=0).real  # diag of basis^dag rho basis
    out = (basis * probs) @ basis.conj().T
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(rho.n_qubits, out)


def global_discord_thermo_analytic(n: int, p0: float) -> float:
    """Closed-form global discord of the remixed thermal state family.

    Direct evaluation of
    p0^n log2 p0^n + p1^n log2 p1^n - (p0^n + p1^n) log2((p0^n + p1^n) / 2)
    with the 0 * log 0 = 0 convention.
    """
    p0 = float(p0)
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must lie in [0, 1], got {p0}")
    x = p0**n
    y = (1.0 - p0) ** n

    def plog(t: float) -> float:
        return t * math.log2(t) if t > 0.0 else 0.0

    return plog(x) + plog(y) - (x + y) * math.log2((x + y) / 2.0)


def _paired_tensor(data: np.ndarray, n: int) -> np.ndarray:
    """Reindex rho so each qubit contributes one 4-valued (row, col) axis."""
    t = data.reshape((2,) * (2 * n))
    order = []
    for i in range(n):
        order += [i, n + i]
    return t.transpose(order).reshape((4,) * n)


def _shared_rotation_probs(paired: np.ndarray, n: int, r: np.ndarray) -> np.ndarray:
    """Dephased outcome distributions for a batch of shared per-qubit rotations.

    Contracts one qubit at a time, O(n 4^n) per grid point instead of the
    O(8^n) full change of basis.
    """
    v = (r.conj()[:, :, None, :] * r[:, None, :, :]).reshape(-1, 4, 2)
    p = np.einsum("xr,gxm->gmr", paired.reshape(4, -1), v)
    done = 2
    for _ in range(n - 1):
        shape = p.shape
        p = p.reshape(shape[0], done, 4, -1)
        p = np.einsum("gkxr,gxm->gkmr", p, v)
        done *= 2
    return p.reshape(-1, 2**n).real


def _shared_angle_values(paired, d0, n, s_rho, s_rho0, thetas, phis) -> np.ndarray:
    """Global-discord objective at each shared (theta, phi) pair of the arrays.

    S(Pi(rho)) - S(rho) - n [S(Pi(rho_0)) - S(rho_0)], with rho given as its
    `_paired_tensor` and rho_0 as the single-qubit reduced matrix `d0`.
    """
    r = rotation_matrix(thetas, phis)
    glob = shannon_entropy(_shared_rotation_probs(paired, n, r)) - s_rho
    local_probs = np.einsum("gak,ab,gbk->gk", r.conj(), d0, r).real
    return glob - n * (shannon_entropy(local_probs) - s_rho0)


def _symmetric_grid_scan(values) -> tuple[float, float, float]:
    """Best (value, theta, phi) of `values(thetas, phis)` over the 64 x 64 grid."""
    thetas = np.linspace(0.0, math.pi / 2.0, _THETA_GRID + 1)[1:]
    phis = np.linspace(0.0, _TWO_PI, _PHI_GRID, endpoint=False)
    tt, pp = [a.reshape(-1) for a in np.meshgrid(thetas, phis, indexing="ij")]
    best = (math.inf, thetas[-1], 0.0)
    for lo in range(0, tt.size, _GRID_CHUNK):
        t_chunk = tt[lo : lo + _GRID_CHUNK]
        p_chunk = pp[lo : lo + _GRID_CHUNK]
        chunk = values(t_chunk, p_chunk)
        i = int(np.argmin(chunk))
        if chunk[i] < best[0]:
            best = (float(chunk[i]), float(t_chunk[i]), float(p_chunk[i]))
    return best


def _fold_theta(theta: float) -> float:
    """Canonical representative in (0, pi/2]; the projector set has period pi/2."""
    t = theta % (math.pi / 2.0)
    if t <= _SEAM_TOL:
        return math.pi / 2.0
    return t


def global_discord(
    rho: DensityMatrix, mode: str = "symmetric"
) -> tuple[float, RotationAngles]:
    """Global discord of `rho` and the minimizing rotation angles.

    Symmetric mode (permutation-invariant states) shares one (theta, phi) pair
    across all qubits and runs a 64 x 64 grid with coordinate-wise
    golden-section refinement.  General mode optimizes all 2n angles through
    the multi-start oracle (small systems only).
    """
    if mode == "general":
        from .oracle import DEFAULT_CONFIG, oracle_global_discord_full

        return oracle_global_discord_full(rho, DEFAULT_CONFIG)
    if mode != "symmetric":
        raise ValueError(f"mode must be 'symmetric' or 'general', got {mode!r}")
    require_permutation_symmetric(rho, "symmetric-mode global discord")
    n = rho.n_qubits
    rho0 = partial_trace(rho, {0})
    values = partial(
        _shared_angle_values, _paired_tensor(rho.data, n), rho0.data, n,
        von_neumann_entropy(rho), von_neumann_entropy(rho0),
    )

    def objective(theta: float, phi: float) -> float:
        return float(values(np.array([theta]), np.array([phi]))[0])

    _, t, p = _symmetric_grid_scan(values)
    ht = (math.pi / 2.0) / _THETA_GRID
    hp = _TWO_PI / _PHI_GRID
    for _ in range(_REFINE_SWEEPS):
        t, _ = golden_section_min(lambda x: objective(x, p), t - ht, t + ht, tol=_REFINE_TOL)
        p, _ = golden_section_min(lambda x: objective(t, x), p - hp, p + hp, tol=_REFINE_TOL)
        ht /= 8.0
        hp /= 8.0
    t = _fold_theta(t)
    p = p % _TWO_PI
    value = objective(t, p)
    if value < -1e-9:
        raise ValueError(f"global discord evaluated to {value}, below the numerical slack")
    return max(value, 0.0), RotationAngles.uniform(n, t, p)
