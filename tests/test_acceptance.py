"""Acceptance suite: the binding end-to-end requirements with pinned tolerances.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`).

Criterion 10a (noise-threshold strict monotonicity in n) is implemented
exactly as stated and is expected to FAIL: the closed-form thresholds
lambda*(n) = 1 - (2^(n-1))^(-1/n) for even n and 1 - (2^(n-2))^(-1/n) for odd
n alternate between the even and odd subsequences (0.293, 0.206, 0.405,
0.340, 0.439 for n = 2..6), so no implementation consistent with the pinned
pure-state maxima (criterion 4) and the CHSH threshold (criterion 8) can make
them strictly increasing.  The failure message carries the computed table.
"""

import time
import warnings

import numpy as np
import pytest

from symcorr.channels import AMPLITUDE_DAMPING, PHASE_DAMPING, ChannelSpec, apply_local_channel
from symcorr.genuine import bipartite_discord, genuine_correlations
from symcorr.global_discord import global_discord, global_discord_thermo_analytic
from symcorr.nonlocality import max_violation
from symcorr.oracle import (
    OracleConfig,
    oracle_bipartite_discord,
    oracle_global_discord,
    oracle_lhv_bound,
)
from symcorr.qstate import Cut
from symcorr.states import ghz_ad_closed, ghz_pd_closed, ghz_state, thermo_state

SQ2 = 1 / np.sqrt(2)
FIG3B_ALPHA = np.sqrt(2 + np.sqrt(3)) / 2
ORACLE = OracleConfig(restarts=6, grid_density=24, seed=20260808)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"{criterion}: {detail}"


def quantum_max(n: int) -> float:
    return np.sqrt(2.0 ** (n - 1)) if n % 2 == 0 else np.sqrt(2.0 ** (n - 2))


def violation_threshold(n: int, alpha1: float = SQ2, tol: float = 1e-10) -> float:
    """Damping rate where the maximal polynomial value crosses 1, by bisection."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        value, _ = max_violation(ghz_ad_closed(n, alpha1, mid))
        if value > 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_1_analytic_global_discord():
    t0 = time.monotonic()
    worst = 0.0
    for n in (3, 4, 5, 6):
        for p0 in np.linspace(0.0, 1.0, 21):
            numeric, _ = global_discord(thermo_state(n, p0))
            worst = max(worst, abs(numeric - global_discord_thermo_analytic(n, p0)))
        end0, _ = global_discord(thermo_state(n, 0.0))
        end1, _ = global_discord(thermo_state(n, 1.0))
        mid, _ = global_discord(thermo_state(n, 0.5))
        assert abs(end0 - 1.0) < 1e-6 and abs(end1 - 1.0) < 1e-6 and abs(mid) < 1e-6
    elapsed = time.monotonic() - t0
    report(
        "criterion 1 (analytic global discord, n=3..6 x 21 points)",
        worst <= 1e-6 and elapsed < 60.0,
        f"worst diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_optimal_angle_recovery():
    failures = []
    for n in (3, 4):
        for p0 in (0.2, 0.35, 0.8):
            rho = thermo_state(n, p0)
            rep = genuine_correlations(rho)
            best = min(rep.per_cut, key=lambda c: c.discord)
            if abs(best.optimal_theta - np.pi / 4) > 1e-3:
                failures.append(f"genuine n={n} p0={p0}: theta={best.optimal_theta:.5f}")
            _, angles = global_discord(rho)
            if abs(angles.pairs[0][0] - np.pi / 2) > 1e-3:
                failures.append(f"global n={n} p0={p0}: theta={angles.pairs[0][0]:.5f}")
    report("criterion 2 (theta = pi/4 and pi/2 recovery)", not failures, "; ".join(failures))


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    failures = []
    for n in (3, 4):
        states = [
            ("thermo p0=0.2", thermo_state(n, 0.2)),
            ("thermo p0=0.8", thermo_state(n, 0.8)),
            ("ghz_ad 0.3", ghz_ad_closed(n, SQ2, 0.3)),
        ]
        for label, rho in states:
            for measured in ({n - 1}, {n - 2, n - 1}):
                cut = Cut.of(n, measured)
                sym, _ = bipartite_discord(rho, cut)
                brute = oracle_bipartite_discord(rho, cut, ORACLE)
                if abs(sym - brute) > 2e-3:
                    failures.append(f"bipartite n={n} {label} k={len(measured)}: "
                                    f"{sym:.6f} vs {brute:.6f}")
            sym_g, _ = global_discord(rho)
            brute_g = oracle_global_discord(rho, ORACLE)
            if abs(sym_g - brute_g) > 2e-3:
                failures.append(f"global n={n} {label}: {sym_g:.6f} vs {brute_g:.6f}")
    elapsed = time.monotonic() - t0
    report(
        "criterion 3 (brute-force oracle equivalence, 6 states each)",
        not failures and elapsed < 600.0,
        "; ".join(failures) or f"{elapsed:.0f}s",
    )


def test_criterion_4_pure_ghz_baselines():
    failures = []
    for n in range(2, 7):
        rep = genuine_correlations(ghz_state(n, SQ2))
        for name, got, want in (
            ("T", rep.total, 2.0),
            ("D", rep.quantum, 1.0),
            ("J", rep.classical, 1.0),
        ):
            if abs(got - want) > 1e-9:
                failures.append(f"n={n} {name}={got!r}")
    for n in range(2, 6):
        value, _ = max_violation(ghz_state(n, SQ2))
        if abs(value - quantum_max(n)) > 1e-3:
            failures.append(f"n={n} svetlichny={value}")
    report("criterion 4 (pure GHZ baselines)", not failures, "; ".join(failures))


def test_criterion_5_channel_closed_form_consistency():
    worst = 0.0
    for n in range(2, 7):
        psi = ghz_state(n, 0.55)
        for rate in np.linspace(0.0, 1.0, 11):
            ad = apply_local_channel(psi, ChannelSpec(AMPLITUDE_DAMPING, rate))
            pd = apply_local_channel(psi, ChannelSpec(PHASE_DAMPING, rate))
            worst = max(
                worst,
                np.abs(ad.data - ghz_ad_closed(n, 0.55, rate).data).max(),
                np.abs(pd.data - ghz_pd_closed(n, 0.55, rate).data).max(),
            )
    report("criterion 5 (Kraus vs closed forms, n=2..6)", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_6_noise_type_indistinguishable_nonlocality():
    worst = 0.0
    for n in (2, 3, 4):
        for alpha1 in np.linspace(0.1, SQ2, 5):
            for rate in np.linspace(0.0, 0.8, 5):
                va, _ = max_violation(ghz_ad_closed(n, alpha1, rate))
                vp, _ = max_violation(ghz_pd_closed(n, alpha1, rate))
                worst = max(worst, abs(va - vp))
    report("criterion 6 (AD/PD indistinguishable violation)", worst <= 1e-6, f"worst {worst:.2e}")


def test_criterion_7_local_hidden_variable_bound():
    values = {n: oracle_lhv_bound(n) for n in (2, 3, 4)}
    ok = all(v == 1.0 for v in values.values())
    report("criterion 7 (deterministic-strategy bound = 1)", ok, f"{values}")


def test_criterion_8_chsh_violation_threshold():
    threshold = violation_threshold(2)
    expected = 1 - SQ2
    report(
        "criterion 8 (CHSH violation lost at 1 - 1/sqrt(2))",
        abs(threshold - expected) <= 1e-4,
        f"threshold {threshold:.6f} vs {expected:.6f}",
    )


def test_criterion_9_discord_curve_shape():
    failures = []
    grid = np.linspace(0.0, 1.0, 201)
    for n in (3, 4, 6):
        genuine_curve = np.array(
            [genuine_correlations(thermo_state(n, p0)).quantum for p0 in grid]
        )
        global_curve = np.array([global_discord(thermo_state(n, p0))[0] for p0 in grid])
        for name, curve in (("genuine", genuine_curve), ("global", global_curve)):
            sym_err = np.abs(curve - curve[::-1]).max()
            if sym_err > 1e-9:
                failures.append(f"{name} n={n} asymmetric by {sym_err:.2e}")
            if abs(curve[100]) > 1e-9:
                failures.append(f"{name} n={n} nonzero at p0=1/2: {curve[100]:.2e}")
            jump = np.abs(np.diff(curve)).max()
            if jump > 0.05:
                failures.append(f"{name} n={n} jump {jump:.3f}")
    report("criterion 9 (curve symmetry, zero at 1/2, continuity)", not failures, "; ".join(failures))


def test_criterion_10a_noise_threshold_monotonicity():
    thresholds = {n: violation_threshold(n) for n in range(2, 7)}
    increasing = all(thresholds[n] < thresholds[n + 1] for n in range(2, 6))
    table = ", ".join(f"n={n}: {v:.4f}" for n, v in thresholds.items())
    report(
        "criterion 10a (threshold strictly increasing in n; known-unattainable as stated)",
        increasing,
        table,
    )


def test_criterion_10b_weakly_weighted_ghz_never_violates():
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # alpha1 above 1/sqrt(2) warns by design
        for n in (2, 3):
            for rate in np.linspace(0.0, 1.0, 21):
                for rho in (ghz_ad_closed(n, FIG3B_ALPHA, rate),
                            ghz_pd_closed(n, FIG3B_ALPHA, rate)):
                    value, _ = max_violation(rho)
                    if value > 1.0 + 1e-9:
                        failures.append(f"n={n} rate={rate:.2f}: {value:.4f}")
    report("criterion 10b (alpha1 = sqrt(2+sqrt(3))/2 never violates for n=2,3)",
           not failures, "; ".join(failures))
