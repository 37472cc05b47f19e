"""Genuine multipartite correlations: total, quantum (discord) and classical.

The total genuine correlation of a permutation-symmetric state is the minimum
bipartite mutual information over all cuts; its quantum part is the minimum
bipartite discord.  For symmetric states the discord minimization over
projective bases on the measured block collapses to a single rotation angle
(the `symmetric_basis` family), found here by a grid-seeded golden-section
search.  A rank-2 shortcut through the purification ancilla (entanglement of
formation of the block-ancilla pair) is provided for phase-damped GHZ states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .optim import grid_golden_min
from .qstate import (
    Cut,
    DensityMatrix,
    PureState,
    conditional_state,
    enumerate_cuts,
    mutual_information,
    partial_trace,
    require_permutation_symmetric,
    shannon_entropy,
    von_neumann_entropy,
)
from .states import symmetric_basis

THETA_TOL = 1e-6
_GRID_POINTS = 64
_NEGATIVE_SLACK = -1e-9
_RANK2_TOL = 1e-9


@dataclass(frozen=True)
class CutReport:
    """Correlation split across one cut; `cut.measured` is the measured side."""

    cut: Cut
    mutual_info: float
    discord: float
    classical: float
    optimal_theta: Optional[float]


@dataclass(frozen=True)
class GenuineReport:
    total: float
    quantum: float
    classical: float
    optimal_cut: Cut
    per_cut: tuple
    min_mutual_info_cut: Cut


def _clamp_nonneg(x: float, what: str) -> float:
    if x < _NEGATIVE_SLACK:
        raise ValueError(f"{what} evaluated to {x}, below the numerical slack")
    return max(x, 0.0)


def _symmetric_conditional_entropy(rho: DensityMatrix, cut: Cut):
    """Conditional entropy over the single-angle basis family, as a function of theta.

    The fixed-excitation Fourier probes do not depend on theta, so their
    contribution is evaluated once; only the two extremal rotated probes are
    recomputed per angle.
    """
    k = len(cut.measured)
    fixed = 0.0
    for probe in symmetric_basis(k, 0.0).vectors[2:]:
        b, cond = conditional_state(rho, cut, probe)
        if cond is not None:
            fixed += b * von_neumann_entropy(cond)
    dim = 2**k

    def ce(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        total = fixed
        for amp0, amp1 in ((c, s), (-s, c)):
            vec = np.zeros(dim, dtype=complex)
            vec[0], vec[-1] = amp0, amp1
            b, cond = conditional_state(rho, cut, PureState(k, vec))
            if cond is not None:
                total += b * von_neumann_entropy(cond)
        return total

    return ce


def _symmetric_discord(rho: DensityMatrix, cut: Cut) -> tuple[float, float]:
    s_measured = von_neumann_entropy(partial_trace(rho, cut.measured))
    s_rho = von_neumann_entropy(rho)
    ce = _symmetric_conditional_entropy(rho, cut)
    theta, ce_min = grid_golden_min(ce, 0.0, math.pi / 2.0, num=_GRID_POINTS, tol=THETA_TOL)
    discord = _clamp_nonneg(s_measured - s_rho + ce_min, "discord")
    return discord, theta


def _cut_discord(rho: DensityMatrix, mode: str, context: str):
    """The per-cut discord for `mode`, as cut -> (discord, optimal_theta or None)."""
    if mode == "symmetric":
        require_permutation_symmetric(rho, context)
        return lambda cut: _symmetric_discord(rho, cut)
    if mode == "general":
        from .oracle import DEFAULT_CONFIG, oracle_bipartite_discord

        return lambda cut: (oracle_bipartite_discord(rho, cut, DEFAULT_CONFIG), None)
    raise ValueError(f"mode must be 'symmetric' or 'general', got {mode!r}")


def bipartite_discord(
    rho: DensityMatrix, cut: Cut, mode: str = "symmetric"
) -> tuple[float, Optional[float]]:
    """Discord across `cut`, measuring the `cut.measured` block.

    Symmetric mode (permutation-invariant states only) minimizes the measured
    conditional entropy over the single angle of `symmetric_basis` and returns
    (discord, optimal_theta).  General mode delegates to the brute-force
    basis-search oracle and returns (discord, None).
    """
    if cut.n_qubits != rho.n_qubits:
        raise ValueError("cut does not match the state's qubit count")
    return _cut_discord(rho, mode, "symmetric-mode discord")(cut)


def _direction_min(discord, cut: Cut, mode: str):
    """(cut, discord, theta) for the better of the two measurement directions.

    The flipped cut is tried when the blocks differ in size or, in general
    mode, always; equal symmetric blocks measure the same way from either side.
    """
    cuts = [cut]
    if len(cut.measured) != len(cut.remainder) or mode == "general":
        cuts.append(Cut(cut.remainder, cut.measured))
    return min(((c, *discord(c)) for c in cuts), key=lambda item: item[1])


def genuine_correlations(rho: DensityMatrix, mode: str = "symmetric") -> GenuineReport:
    """Total, quantum and classical genuine correlations of `rho`.

    The total is the minimum bipartite mutual information over cuts; the
    quantum part is the minimum bipartite discord (each cut is measured from
    the better of its two sides); the classical part is their difference.
    Symmetric mode exploits the spatial invariance and only visits one cut per
    measured-block size; general mode enumerates every bipartition and uses
    the brute-force oracle, subject to its qubit cap.
    """
    n = rho.n_qubits
    if n < 2:
        raise ValueError("genuine correlations need at least 2 qubits")
    cuts = enumerate_cuts(n, mode)
    discord_of = _cut_discord(rho, mode, "genuine_correlations")

    reports = []
    for cut in cuts:
        mi = _clamp_nonneg(mutual_information(rho, cut), "mutual information")
        best_cut, discord, theta = _direction_min(discord_of, cut, mode)
        discord = min(discord, mi)  # optimizer noise must not push D past MI
        reports.append(
            CutReport(
                cut=best_cut,
                mutual_info=mi,
                discord=discord,
                classical=mi - discord,
                optimal_theta=theta,
            )
        )
    by_mi = min(reports, key=lambda r: r.mutual_info)
    by_discord = min(reports, key=lambda r: r.discord)
    total = by_mi.mutual_info
    quantum = by_discord.discord
    return GenuineReport(
        total=total,
        quantum=quantum,
        classical=_clamp_nonneg(total - quantum, "classical correlations"),
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
    psi = np.zeros(2 ** (n + 1), dtype=complex)
    for m in range(2):
        anc = np.zeros(2, dtype=complex)
        anc[m] = 1.0
        psi += math.sqrt(lam[m]) * np.kron(evecs[:, -2 + m], anc)
    psi /= np.linalg.norm(psi)

    s_rho = von_neumann_entropy(rho)
    measured = sorted(cut.measured)
    remainder = sorted(cut.remainder)
    values = []
    for meas, rest in ((measured, remainder), (remainder, measured)):
        s_meas = von_neumann_entropy(partial_trace(rho, meas))
        values.append(s_meas - s_rho + _block_ancilla_eof(psi, n + 1, rest))
    return _clamp_nonneg(min(values), "Koashi-Winter discord")
