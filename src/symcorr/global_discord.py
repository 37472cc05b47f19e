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
theta in (0, pi/2] and reports the computational-basis optimum as pi/2.  For X
states phi enters only through cos(n phi - arg c), in which the entropy is
concave, so only phi = arg c / n and (arg c + pi) / n are scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .optim import fold_theta, golden_section_min
from .qstate import (
    DensityMatrix,
    QubitCapError,
    check_mode,
    partial_trace,
    require_permutation_symmetric,
    shannon_entropy,
    von_neumann_entropy,
)
from .xstate import XState, binomials, x_form

_THETA_GRID = 64
_PHI_GRID = 64
_GRID_CHUNK = 256
_MAX_SYMMETRIC_QUBITS = 10  # the grid chunk's intermediate is 2.1 GB here, 8.6 GB at n = 11
_REFINE_SWEEPS = 3
_REFINE_TOL = 1e-7
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


def _shared_angle_min(dephased_entropy, d0, n, s_rho, s_rho0, phis, refine_phi) -> tuple[float, float, float]:
    """Global discord over one shared rotation, as (value, theta, phi), theta folded into (0, pi/2].

    S(Pi(rho)) - S(rho) - n [S(Pi(rho_0)) - S(rho_0)], S(Pi(rho)) from `dephased_entropy(thetas, phis)`
    and rho_0 the single-qubit matrix `d0`, is scanned on 64 thetas times `phis`; golden-section
    sweeps then refine theta and, when `refine_phi`, phi in turn.
    """

    def values(thetas, phis):
        r = rotation_matrix(thetas, phis)
        local_probs = np.einsum("gak,ab,gbk->gk", r.conj(), d0, r).real
        return dephased_entropy(thetas, phis) - s_rho - n * (shannon_entropy(local_probs) - s_rho0)

    def objective(theta: float, phi: float) -> float:
        return float(values(np.array([theta]), np.array([phi]))[0])

    thetas = np.linspace(0.0, math.pi / 2.0, _THETA_GRID + 1)[1:]
    tt, pp = [a.reshape(-1) for a in np.meshgrid(thetas, phis, indexing="ij")]
    best = (math.inf, thetas[-1], 0.0)
    for lo in range(0, tt.size, _GRID_CHUNK):
        chunk = values(tt[lo : lo + _GRID_CHUNK], pp[lo : lo + _GRID_CHUNK])
        i = int(np.argmin(chunk))
        if chunk[i] < best[0]:
            best = (float(chunk[i]), float(tt[lo + i]), float(pp[lo + i]))
    _, t, p = best
    ht, hp = (math.pi / 2.0) / _THETA_GRID, _TWO_PI / _PHI_GRID
    for _ in range(_REFINE_SWEEPS if refine_phi else 1):  # with phi fixed one sweep suffices
        t, _ = golden_section_min(lambda v: objective(v, p), t - ht, t + ht, tol=_REFINE_TOL)
        if refine_phi:
            p, _ = golden_section_min(lambda v: objective(t, v), p - hp, p + hp, tol=_REFINE_TOL)
        ht /= 8.0
        hp /= 8.0
    t, p = fold_theta(t), p % _TWO_PI
    if p == _TWO_PI:  # a negative angle within an ulp of 0 rounds up to 2 pi
        p = 0.0
    value = objective(t, p)
    if value < -1e-9:
        raise ValueError(f"global discord evaluated to {value}, below the numerical slack")
    return max(value, 0.0), t, p


def _dense_shared_angle(rho: DensityMatrix) -> tuple[float, float, float]:
    """Shared-angle global discord by the dense contraction: every non-X state, and the X path's validator."""
    n = rho.n_qubits
    require_permutation_symmetric(rho, "symmetric-mode global discord")
    rho0 = partial_trace(rho, {0})
    paired = _paired_tensor(rho.data, n)

    def dephased(thetas, phis):
        return shannon_entropy(_shared_rotation_probs(paired, n, rotation_matrix(thetas, phis)))

    phis = np.linspace(0.0, _TWO_PI, _PHI_GRID, endpoint=False)
    s_rho, s_rho0 = von_neumann_entropy(rho), von_neumann_entropy(rho0)
    return _shared_angle_min(dephased, rho0.data, n, s_rho, s_rho0, phis, True)


def _x_shared_angle(x: XState, n: int) -> tuple[float, float, float]:
    """Shared-angle global discord of an X state, phi on its branches arg c / n and (arg c + pi) / n."""
    distribution = x.weight_distribution()

    def dephased(thetas, phis):
        return shannon_entropy(distribution(thetas, phis)[..., None]) @ binomials(n)[n]

    phis = (np.angle(x.corner) + np.array([0.0, math.pi])) / n
    d0 = np.diag(x.block_populations(1))
    return _shared_angle_min(dephased, d0, n, x.entropy(), x.block_entropy(1), phis, False)


def global_discord(
    rho: DensityMatrix, mode: str = "symmetric"
) -> tuple[float, RotationAngles]:
    """Global discord of `rho` and the minimizing rotation angles.

    Symmetric mode (permutation-invariant states) shares one (theta, phi) pair
    across all qubits and runs a 64 x 64 grid with coordinate-wise
    golden-section refinement; X states scan 64 thetas on their two phi
    branches and refine theta alone.  General mode optimizes all 2n angles through
    the multi-start oracle (small systems only).
    """
    check_mode(mode)
    if mode == "general":
        from .oracle import DEFAULT_CONFIG, oracle_global_discord_full

        return oracle_global_discord_full(rho, DEFAULT_CONFIG)
    n = rho.n_qubits
    if n > _MAX_SYMMETRIC_QUBITS:
        raise QubitCapError(
            f"symmetric global discord is capped at {_MAX_SYMMETRIC_QUBITS} qubits, got {n}: its grid "
            f"scan would hold {_GRID_CHUNK * 2 * 4 ** (n - 1) * 16 / 1e9:.1f} GB at once"
        )
    x = x_form(rho)
    value, t, p = _dense_shared_angle(rho) if x is None else _x_shared_angle(x, n)
    return value, RotationAngles.uniform(n, t, p)
