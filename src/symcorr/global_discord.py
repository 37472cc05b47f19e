"""Global discord through dephasing in locally rotated product bases.

The collective measurement is parametrized by one rotation
R(theta, phi) = cos(theta) I + i sin(theta) cos(phi) sigma_y
              + i sin(theta) sin(phi) sigma_x
per qubit, applied to the computational product basis.  Global discord is the
minimum over angles of the relative entropy to the dephased state minus the
sum of the single-qubit relative entropies, each evaluated through the
identity S(rho || Pi(rho)) = S(Pi(rho)) - S(rho).

Only permutation-invariant states are accepted, and for them one shared
(theta, phi) pair suffices; `oracle.oracle_global_discord_full` optimizes all
2n angles of an arbitrary state of up to four qubits, and is reached only by
name.  `optim.grid_golden_min` scans `optim.THETA_GRID` times the phis of the
state's structure-class view (`xstate.symmetric_view`), which also gives the
probability of one outcome string per weight; `optim.fold_angles` folds the
pair it reports into theta in (0, pi/2], phi in [0, pi).
"""

from __future__ import annotations

import math

import numpy as np

from .optim import THETA_GRID, THETA_STEP, fold_angles, grid_golden_min
from .qstate import (
    DensityMatrix,
    RotationAngles,
    binomials,
    check_integer,
    check_unit_interval,
    clamp_nonneg,
    product_basis,
    rotation_matrix,
    shannon_entropy,
)
from .xstate import symmetric_view

_REFINE_TOL = 1e-7


def dephase_in_rotated_basis(rho: DensityMatrix, angles: RotationAngles) -> DensityMatrix:
    """Zero all off-diagonal elements of `rho` in the rotated product basis."""
    if angles.n_qubits != rho.n_qubits:
        raise ValueError("angle count does not match the state's qubit count")
    basis = product_basis(rotation_matrix(*np.transpose(angles.pairs)))
    probs = (basis.conj() * (rho.data @ basis)).sum(axis=0).real  # diag of basis^dag rho basis
    out = (basis * probs) @ basis.conj().T
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(rho.n_qubits, out)


def global_discord_thermo_analytic(n: int, p0: float) -> float:
    """Closed-form global discord of the remixed thermal state family.

    Direct evaluation of
    p0^n log2 p0^n + p1^n log2 p1^n - (p0^n + p1^n) log2((p0^n + p1^n) / 2)
    with the 0 * log 0 = 0 convention, for any integer n >= 2: no matrix is built, so n has no cap.
    """
    check_integer("n", n, minimum=2)
    p0 = check_unit_interval("p0", p0)
    n = min(n, 2**64)  # past 2^64 every power of a p0 in [0, 1] is exactly 0 or 1, and n must fit a float
    x = p0**n
    y = (1.0 - p0) ** n

    if x + y == 0.0:  # both powers underflow (n past about 1070); the value, at most x + y, rounds to 0
        return 0.0

    def plog(t: float) -> float:
        return t * math.log2(t) if t > 0.0 else 0.0

    return plog(x) + plog(y) - (x + y) * math.log2((x + y) / 2.0)


def _shared_angle_min(view, n: int) -> tuple[float, float, float]:
    """Global discord over one shared rotation, as (value, theta, phi) folded by `fold_angles`: S(Pi(rho)) =
    sum_w C(n, w) h(p_w) over the view's weight distribution p_w, and S(Pi(rho_0)) over its marginal
    P(b) = sum_w C(n-1, w-b) p_w, on `THETA_GRID` times the view's phis."""
    distribution = view.weight_distribution()
    s_rho, s_rho0 = view.entropy(), view.block(1).entropy()
    marginal = np.stack([binomials(n)[n - 1], np.roll(binomials(n)[n - 1], 1)], axis=-1)  # C(n-1, w-b)

    def values(points):
        p = distribution(*points)
        dephased = shannon_entropy(p[..., None]) @ binomials(n)[n]
        return dephased - s_rho - n * (shannon_entropy(p @ marginal) - s_rho0)

    axes, steps = (THETA_GRID, view.phis), (THETA_STEP, view.phi_step)
    (t, p), value = grid_golden_min(values, axes, steps, tol=_REFINE_TOL)
    return clamp_nonneg(value, "global discord"), *fold_angles(t, p)


def global_discord(rho: DensityMatrix) -> tuple[float, RotationAngles]:
    """Global discord of a permutation-invariant `rho` and the minimizing rotation angles.

    One (theta, phi) pair is shared across all qubits: X states take 64 thetas
    on their two phi branches with theta refined alone, up to the 12-qubit
    dense cap; other invariant states a 64 x 64 grid with three sweeps of
    Brent's method, whose dense scan raises `QubitCapError` above 10 qubits
    before any grid work.  Any other state raises `ValueError`.
    """
    value, t, p = _shared_angle_min(symmetric_view(rho, "global_discord"), rho.n_qubits)
    return value, RotationAngles.uniform(rho.n_qubits, t, p)
