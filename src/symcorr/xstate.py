"""The two structure classes of a permutation-invariant state, told apart only by `symmetric_view`.

An X state is read as its `qstate.XState`, every spectrum in closed form: the one a family state holds in
`x_parts`, else the one `x_form` finds in a dense matrix.  Any other invariant state is read from its dense
matrix through `DenseSymmetric`, which bounds its own cost.  Both views answer `entropy()`, `block(k)`,
`conditional_entropy(k)`, `weight_distribution()` and `phis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    INVARIANCE_TOL,
    Cut,
    DensityMatrix,
    QubitCapError,
    XState,
    basis_bits,
    conditional_entropy,
    partial_trace,
    product_basis,
    require_permutation_symmetric,
    rotation_matrix,
    von_neumann_entropy,
)
from .states import symmetric_basis

_PHI_GRID = 64
_MAX_SCAN_QUBITS = 10
_SCAN_SLICE = 256  # angle pairs per dense weight-scan product, which bounds its intermediates


@dataclass(frozen=True)
class DenseSymmetric:
    """An invariant state outside the X class, read from its dense matrix; a block is its last k qubits.
    The dense cost is kept here: the weight scan's 256-pair slices and its 10-qubit cap."""

    rho: DensityMatrix
    phis = np.linspace(0.0, 2.0 * math.pi, _PHI_GRID, endpoint=False)
    phi_step = 2.0 * math.pi / _PHI_GRID

    def entropy(self) -> float:
        return von_neumann_entropy(self.rho)

    def block(self, k: int) -> DenseSymmetric:
        return DenseSymmetric(partial_trace(self.rho, range(self.rho.n_qubits - k, self.rho.n_qubits)))

    def conditional_entropy(self, k: int):
        """ce over theta arrays of the last k qubits: the sector rows measured once, and the extremal pair
        turned by `rotation_matrix(theta, 0)` at every angle of an array in one kernel call."""
        rho, rows = self.rho, symmetric_basis(k, 0.0)
        cut = Cut.of(rho.n_qubits, range(rho.n_qubits - k, rho.n_qubits))
        fixed = conditional_entropy(rho, cut, rows[2:])
        return lambda thetas: fixed + conditional_entropy(rho, cut, rotation_matrix(thetas, 0.0) @ rows[:2])

    def weight_distribution(self):
        """<v_w|rho|v_w>, v_w = R|1>^w (x) R|0>^(n-w), a function of angle arrays, O(n 4^n) per angle pair;
        exact, since every weight-w outcome string of an invariant state is equally likely.  Capped at 10
        qubits, where a global-discord scan takes about 12 s on one core, 3.2 times more per qubit."""
        n = self.rho.n_qubits
        if n > _MAX_SCAN_QUBITS:
            raise QubitCapError(f"a dense shared-angle scan is capped at {_MAX_SCAN_QUBITS} qubits, got {n}")
        bit = (np.arange(n + 1)[:, None] > np.arange(n)).astype(int)  # [w, q]: qubit q is R|1> iff w > q

        def weights(thetas, phis):
            rows = rotation_matrix(thetas, phis).swapaxes(-1, -2)  # row b is R|b>
            v = product_basis(rows[..., bit, None, :])[..., 0, :].reshape(-1, 2**n)  # row (pair, w) is v_w
            return ((v.conj() @ self.rho.data) * v).sum(axis=-1).real

        def distribution(thetas, phis):
            pairs = np.stack(np.broadcast_arrays(thetas, phis))
            flat = pairs.reshape(2, -1)
            parts = [weights(*flat[:, i : i + _SCAN_SLICE]) for i in range(0, flat.shape[1], _SCAN_SLICE)]
            return np.concatenate(parts).reshape(*pairs.shape[1:], n + 1)

        return distribution


def x_form(rho: DensityMatrix) -> XState | None:
    """The X form of `rho`, or None below 2 qubits or outside the class; O(4^n).

    Every off-diagonal entry but the two corners must be at most INVARIANCE_TOL in modulus, and the diagonal
    constant within it on each excitation count; `XState` rechecks positivity, which `rho` had when made.
    """
    n = rho.n_qubits
    off = np.abs(rho.data)
    np.fill_diagonal(off, 0.0)
    off[0, -1] = off[-1, 0] = 0.0
    diag = rho.data.diagonal().real
    populations = diag[2 ** np.arange(n + 1) - 1]  # index 2^w - 1 holds w excitations
    uneven = np.abs(diag - populations[basis_bits(n).sum(axis=1)])
    if n < 2 or not max(off.max(), uneven.max()) <= INVARIANCE_TOL:
        return None
    return XState(populations, complex(rho.data[0, -1]))


def symmetric_view(rho: DensityMatrix, context: str) -> XState | DenseSymmetric:
    """The X form `rho` was built from, else the one `x_form` finds in its matrix, else its dense view once
    `require_permutation_symmetric(rho, context)` passes."""
    if rho.x_parts is not None:
        return rho.x_parts
    x = x_form(rho)
    if x is not None:
        return x
    require_permutation_symmetric(rho, context)
    return DenseSymmetric(rho)
