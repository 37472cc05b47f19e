"""The two structure classes of a permutation-invariant state, told apart only by `symmetric_view`.

An X state (one population per excitation count plus the corner |0...0><1...1|) has every spectrum in closed
form: its populations, with binomial multiplicities, plus at most one 2 x 2 block (Yu & Eberly, QIC 7, 459
(2007); Ali, Rau & Alber, PRA 81, 042105 (2010)); any other invariant state is read from its dense matrix.
Both views answer `entropy()`, `block(k)`, `conditional_entropy(k)`, `weight_distribution()` and `phis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    INVARIANCE_TOL,
    PROBABILITY_FLOOR,
    Cut,
    DensityMatrix,
    QubitCapError,
    basis_bits,
    binomials,
    check_x_positive,
    conditional_entropy,
    partial_trace,
    product_basis,
    require_permutation_symmetric,
    rotation_matrix,
    shannon_entropy,
    von_neumann_entropy,
)
from .states import symmetric_basis

_PHI_GRID = 64
_MAX_SCAN_QUBITS = 10


def x_entropy(d, z):
    """Entropy of the m-qubit X state with populations d[..., w] and corner z; leading axes batch."""
    m = d.shape[-1] - 1
    mean = (d[..., 0] + d[..., m]) / 2.0
    r = np.hypot((d[..., 0] - d[..., m]) / 2.0, np.abs(z))
    spectrum = np.concatenate([(mean + r)[..., None], (mean - r)[..., None], d[..., 1:m]], axis=-1)
    return shannon_entropy(spectrum[..., None]) @ np.concatenate([[1.0, 1.0], binomials(m)[m, 1:m]])


def _branch_sum(d, z, counts):
    """Sum over the branch axis -1 of counts b S(branch / b), populations d[..., i, :], corner z[..., i];
    leading axes batch, and branches below b = 1e-12 add nothing."""
    m = d.shape[-1] - 1
    b = d @ binomials(m)[m]
    keep = b >= PROBABILITY_FLOOR
    safe = np.where(keep, b, 1.0)
    return (np.where(keep, counts * b, 0.0) * x_entropy(d / safe[..., None], z / safe)).sum(axis=-1)


@dataclass(frozen=True)
class XState:
    """Populations p_0..p_n by excitation count and the corner c = rho[0...0, 1...1], n >= 1."""

    populations: np.ndarray
    corner: complex
    phi_step = 0.0  # phi enters only through cos(n phi - arg c), in which the entropy is concave

    @property
    def phis(self) -> np.ndarray:
        """arg c / n and (arg c + pi) / n, the two ends of cos(n phi - arg c); exact, so `phi_step` is 0."""
        return (np.angle(self.corner) + np.array([0.0, math.pi])) / (self.populations.size - 1)

    def entropy(self) -> float:
        return float(x_entropy(self.populations, self.corner))

    def block(self, k: int) -> XState:
        """Any k-qubit block, 0 < k < n: diagonal, populations summed over the traced qubits' counts."""
        m = self.populations.size - 1 - k
        return XState(np.correlate(self.populations, binomials(m)[m], "valid"), 0.0)

    def conditional_entropy(self, k: int):
        """ce over theta arrays of measuring a k-qubit block in `symmetric_basis(k, theta)`.

        Each weight-j sector probe, 0 < j < k, leaves populations p_{j+w} at every theta; the rotated
        extremal pair leaves cos^2 p_w + sin^2 p_{k+w} and sin^2 p_w + cos^2 p_{k+w}, corners +-cos sin c.
        """
        windows = np.lib.stride_tricks.sliding_window_view(self.populations, self.populations.size - k)
        fixed = _branch_sum(windows[1:k], np.zeros(k - 1), binomials(k)[k, 1:k])
        lo, hi = windows[0], windows[k]

        def ce(thetas):
            c, s = np.cos(thetas)[..., None], np.sin(thetas)[..., None]
            d = np.stack([c * c * lo + s * s * hi, s * s * lo + c * c * hi], axis=-2)
            return fixed + _branch_sum(d, np.array([1.0, -1.0]) * (c * s * self.corner), np.ones(2))

        return ce

    def weight_distribution(self):
        """Outcome probability per weight w after dephasing in R(theta, phi), a function of angle arrays.

        sum_{a,b} C(n-w, a) C(w, b) p_{a+b} sin^{2(a+w-b)} cos^{2(n-w-a+b)} (tabulated over w, a+w-b)
        + 2 Re(c e^{-i n phi}) (-1)^{n-w} (cos sin)^n.
        """
        n = self.populations.size - 1
        w, a, b = np.ogrid[: n + 1, : n + 1, : n + 1]  # C(n-w, a) C(w, b) vanishes off the sum
        terms = binomials(n)[n - w, a] * binomials(n)[w, b] * self.populations[np.minimum(a + b, n)]
        table = np.zeros((n + 1, n + 1))
        np.add.at(table, (np.broadcast_to(w, terms.shape), np.clip(a + w - b, 0, n)), terms)
        e = np.arange(n + 1)

        def distribution(thetas, phis):
            c, s = np.cos(thetas)[..., None], np.sin(thetas)[..., None]
            corner = 2.0 * (self.corner * np.exp(-1j * n * phis[..., None])).real * (c * s) ** n
            return (s ** (2 * e) * c ** (2 * (n - e))) @ table.T + corner * (-1.0) ** (n - e)

        return distribution


@dataclass(frozen=True)
class DenseSymmetric:
    """An invariant state outside the X class, read from its dense matrix; a block is its last k qubits.
    The dense cost is kept here: one kernel call per angle array, and the weight scan's 10-qubit cap."""

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

        def distribution(thetas, phis):
            rows = rotation_matrix(thetas, phis).swapaxes(-1, -2)  # row b is R|b>
            v = product_basis(rows[..., bit, None, :])[..., 0, :]  # [..., w, 2^n]: row w is v_w
            flat = v.reshape(-1, 2**n)  # one matrix product for the whole batch
            return ((flat.conj() @ self.rho.data) * flat).sum(axis=-1).real.reshape(v.shape[:-1])

        return distribution


def x_form(rho: DensityMatrix) -> XState | None:
    """The X form of `rho`, or None below 2 qubits or outside the class; O(4^n).

    Every off-diagonal entry but the two corners must be at most INVARIANCE_TOL
    in modulus, and the diagonal constant within it on each excitation count.
    A form that is not positive semidefinite raises ValueError (`check_x_positive`).
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
    corner = complex(rho.data[0, -1])
    check_x_positive(populations, corner)
    populations.flags.writeable = False
    return XState(populations, corner)


def symmetric_view(rho: DensityMatrix, context: str) -> XState | DenseSymmetric:
    """The X form `rho` was built from, else the one `x_form` finds in its matrix, else its dense view once
    `require_permutation_symmetric(rho, context)` passes."""
    if rho.x_parts is not None:
        return XState(*rho.x_parts)
    x = x_form(rho)
    if x is not None:
        return x
    require_permutation_symmetric(rho, context)
    return DenseSymmetric(rho)
