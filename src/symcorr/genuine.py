"""Genuine multipartite correlations: total, quantum (discord) and classical.

The total genuine correlation of a permutation-symmetric state is the minimum
bipartite mutual information over all cuts; its quantum part is the minimum
bipartite discord.  For symmetric states the discord minimization over
projective bases on the measured block collapses to a single rotation angle
(the `symmetric_basis` family), found by `optim.grid_golden_min` on the shared
`optim.THETA_GRID`.  Every entropy and conditional entropy is read from the
state's structure-class view (`xstate.symmetric_view`): closed forms for X
states, the dense matrix otherwise.  Only permutation-invariant states are
accepted; `symcorr.oracle` searches general bases for arbitrary states of up to
four qubits, and is reached only by name.  A rank-2 shortcut through the
purification ancilla (entanglement of formation of the block-ancilla pair) is
provided for phase-damped GHZ states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .optim import THETA_GRID, THETA_STEP, fold_theta, grid_golden_min
from .qstate import (
    Cut,
    DensityMatrix,
    check_qubit_count,
    clamp_nonneg,
    enumerate_cuts,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
)
from .xstate import symmetric_view

THETA_TOL = 1e-6
_RANK2_TOL = 1e-9
_SIDE_TIE_TOL = 1e-12


@dataclass(frozen=True)
class CutReport:
    """Correlation split across one cut; `cut.measured` is the measured side."""

    cut: Cut
    mutual_info: float
    discord: float
    classical: float
    optimal_theta: float


@dataclass(frozen=True)
class GenuineReport:
    total: float
    quantum: float
    classical: float
    optimal_cut: Cut
    per_cut: tuple
    min_mutual_info_cut: Cut


def _symmetric_discord(s_measured: float, s_rho: float, ce) -> tuple[float, float]:
    """(discord, theta folded into (0, pi/2]) from the block and state entropies and ce over theta arrays."""
    (theta,), ce_min = grid_golden_min(lambda t: ce(t[0]), (THETA_GRID,), (THETA_STEP,), tol=THETA_TOL)
    return clamp_nonneg(s_measured - s_rho + ce_min, "discord"), fold_theta(theta)


def _cut_measures(rho: DensityMatrix, context: str):
    """(cut -> mutual information, cut -> (discord, optimal_theta)), both read from the structure-class
    view, with S(rho) and each block entropy computed once."""
    view = symmetric_view(rho, context)
    s_rho = view.entropy()
    s_block = cache(lambda k: view.block(k).entropy())

    def mutual_info(cut: Cut) -> float:
        return s_block(len(cut.measured)) + s_block(len(cut.remainder)) - s_rho

    def discord(cut: Cut) -> tuple[float, float]:
        k = len(cut.measured)
        return _symmetric_discord(s_block(k), s_rho, view.conditional_entropy(k))

    return mutual_info, discord


def bipartite_discord(rho: DensityMatrix, cut: Cut) -> tuple[float, float]:
    """Discord across `cut`, measuring the `cut.measured` block of a permutation-invariant state.

    Minimizes the measured conditional entropy over the single angle of
    `symmetric_basis` and returns (discord, optimal_theta), theta folded into
    (0, pi/2].  Any other state raises `ValueError`; `oracle.oracle_bipartite_discord`
    takes it, up to four qubits.
    """
    if cut.n_qubits != rho.n_qubits:
        raise ValueError("cut does not match the state's qubit count")
    return _cut_measures(rho, "bipartite_discord")[1](cut)


def _direction_min(discord, cut: Cut):
    """(cut, discord, theta) for the better of the two measurement directions.

    The flipped cut is tried only when the blocks differ in size (equal blocks
    of an invariant state measure the same way from either side), and wins only
    by more than 1e-12, so rounding noise cannot flip the side.
    """
    best = (cut, *discord(cut))
    if len(cut.measured) == len(cut.remainder):
        return best
    flipped = Cut(cut.remainder, cut.measured)
    other = (flipped, *discord(flipped))
    return other if other[1] < best[1] - _SIDE_TIE_TOL else best


def genuine_correlations(rho: DensityMatrix) -> GenuineReport:
    """Total, quantum and classical genuine correlations of a permutation-invariant `rho`.

    The total is the minimum bipartite mutual information over cuts; the
    quantum part is the minimum bipartite discord (each cut is measured from
    the better of its two sides); the classical part is their difference.
    The invariance makes every cut of one measured-block size equivalent, so
    one cut per size is visited.  Any other state raises `ValueError`.
    """
    n = rho.n_qubits
    check_qubit_count(n, minimum=2)
    mutual_info_of, discord_of = _cut_measures(rho, "genuine_correlations")

    reports = []
    for cut in enumerate_cuts(n):
        mi = clamp_nonneg(mutual_info_of(cut), "mutual information")
        best_cut, discord, theta = _direction_min(discord_of, cut)
        discord = min(discord, mi)  # optimizer noise must not push D past MI
        reports.append(CutReport(best_cut, mi, discord, mi - discord, theta))
    by_mi = min(reports, key=lambda r: r.mutual_info)
    by_discord = min(reports, key=lambda r: r.discord)
    total = by_mi.mutual_info
    quantum = by_discord.discord
    return GenuineReport(
        total=total,
        quantum=quantum,
        classical=clamp_nonneg(total - quantum, "classical correlations"),
        optimal_cut=by_discord.cut,
        per_cut=tuple(reports),
        min_mutual_info_cut=by_mi.cut,
    )


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum."""
    if rho.n_qubits != 2:
        raise ValueError("concurrence is defined for two qubits")
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    yy = np.kron(sy, sy)
    m = rho.data @ yy @ rho.data.conj() @ yy
    evals = np.linalg.eigvals(m).real
    evals = np.sqrt(np.clip(evals, 0.0, None))
    evals.sort()
    return float(max(0.0, evals[-1] - evals[-2] - evals[-3] - evals[-4]))


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation, in bits."""
    c = wootters_concurrence(rho)
    x = (1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    return shannon_entropy([x, 1.0 - x])


def _pure_reduced(vec: np.ndarray, n: int, keep: list) -> np.ndarray:
    """Reduced matrix of a pure state |vec> on the qubits in `keep` (sorted)."""
    rest = [q for q in range(n) if q not in keep]
    t = vec.reshape((2,) * n).transpose(keep + rest)
    m = t.reshape(2 ** len(keep), 2 ** len(rest))
    return m @ m.conj().T


def _block_ancilla_eof(psi: np.ndarray, n_plus_1: int, block: list) -> float:
    """EoF between a qubit block and the purification ancilla (last qubit).

    The block side must populate at most two levels; it is projected onto its
    populated subspace so the two-qubit concurrence formula applies.
    """
    keep = sorted(block) + [n_plus_1 - 1]
    rho_ba = _pure_reduced(psi, n_plus_1, keep)
    d_block = 2 ** len(block)
    rho_b = (
        rho_ba.reshape(d_block, 2, d_block, 2).trace(axis1=1, axis2=3)
    )
    evals, evecs = np.linalg.eigh(rho_b)
    if d_block > 2 and evals[:-2].max() > _RANK2_TOL:
        raise ValueError("block populates more than two levels; rank-2 shortcut invalid")
    iso = evecs[:, -2:]
    w = np.kron(iso, np.eye(2))
    rho2 = w.conj().T @ rho_ba @ w
    if abs(rho2.trace().real - 1.0) > 1e-9:
        raise ValueError("support projection lost probability; rank-2 shortcut invalid")
    rho2 = (rho2 + rho2.conj().T) / 2.0
    return entanglement_of_formation(DensityMatrix(2, rho2))


def koashi_winter_discord(rho: DensityMatrix, cut: Cut) -> float:
    """Discord of a rank-2 state across `cut` via its single-ancilla purification.

    Purifies rho with one ancilla qubit; for each measurement direction the
    minimized conditional entropy equals the entanglement of formation between
    the unmeasured block and the ancilla, so the discord is
    S(measured) - S(rho) + EoF(unmeasured, ancilla).  Returns the smaller of
    the two directions.  Requires the third eigenvalue of rho to vanish.
    """
    if cut.n_qubits != rho.n_qubits:
        raise ValueError("cut does not match the state's qubit count")
    n = rho.n_qubits
    evals, evecs = np.linalg.eigh(rho.data)
    if n >= 2 and evals[:-2].max() > _RANK2_TOL:
        raise ValueError(f"state has rank > 2 (third eigenvalue {evals[-3]})")
    lam = np.clip(evals[-2:], 0.0, 1.0)
    # sum_m sqrt(lam_m) |e_m>|m>, the ancilla as the last qubit
    psi = (evecs[:, -2:] * np.sqrt(lam)).reshape(-1)
    psi /= np.linalg.norm(psi)

    s_rho = von_neumann_entropy(rho)
    measured = sorted(cut.measured)
    remainder = sorted(cut.remainder)
    values = []
    for meas, rest in ((measured, remainder), (remainder, measured)):
        s_meas = von_neumann_entropy(partial_trace(rho, meas))
        values.append(s_meas - s_rho + _block_ancilla_eof(psi, n + 1, rest))
    return clamp_nonneg(min(values), "Koashi-Winter discord")
