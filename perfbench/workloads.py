"""The four benchmark workloads, each a fixed round of items with reference checks.

An item is one measure evaluated on one state: a zero-argument callable into
the public symcorr API plus a check of its output against a reference.  Items
call the library through module attributes looked up at call time, so the
tracer's wrappers see them.  Checks run with tracing paused and use the
repository's pinned tolerances:

* ANALYTIC_TOL, thermal global discord against the closed formula (criterion 1);
* CURVE_TOL, p0 <-> 1 - p0 symmetry and the zero at p0 = 1/2 (criterion 9);
* SLACK, the numerical slack of the clamps in `genuine` for 0 <= D <= MI;
* CLOSED_FORM_TOL, the closed-form self-check inside `max_violation`;
* THRESHOLD_TOL, the bisected violation threshold (criterion 8);
* ORACLE_TOL, fast path against the brute-force oracles (criterion 3);
* CHANNEL_TOL, Kraus route against the dilation route (criterion 5).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import symcorr
import symcorr.cli
import symcorr.oracle

ANALYTIC_TOL = 1e-6
CURVE_TOL = 1e-9
SLACK = 1e-9
CLOSED_FORM_TOL = 1e-9
THRESHOLD_TOL = 1e-4
ORACLE_TOL = 2e-3
CHANNEL_TOL = 1e-12
CSV_TOL = 1e-9  # the CSV keeps 12 significant digits

SQ2 = 1.0 / math.sqrt(2.0)
# the oracle configuration of the acceptance suite
ORACLE = symcorr.oracle.OracleConfig(restarts=6, grid_density=24, seed=20260808)
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # failure message, or None when correct


@dataclass
class Round:
    """One pass over a workload's items; `results` holds this pass's outputs by item name."""

    items: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)

    def add(self, name, run, check):
        self.items.append(Item(name, run, check))


def build(workload: str, seed: int, tiny: bool = False) -> Round:
    """The round of `workload`; `seed` fixes every generated input, `tiny` shrinks sizes."""
    by_name = {
        "thermo-figure": _thermo_figure,
        "large-n": _large_n,
        "ghz-nonlocality": _ghz_nonlocality,
        "cross-check": _cross_check,
    }
    if workload not in by_name:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(by_name)}")
    rnd = Round()
    by_name[workload](rnd, np.random.default_rng(seed), seed, tiny)
    return rnd


def _comb_max(n: int) -> float:
    return math.sqrt(2.0 ** (n - 1)) if n % 2 == 0 else math.sqrt(2.0 ** (n - 2))


def _symmetric_cuts(n: int) -> list:
    return [symcorr.Cut.of(n, range(n - k, n)) for k in range(1, n // 2 + 1)]


def _min_mutual_info(rho) -> float:
    return min(symcorr.mutual_information(rho, cut) for cut in _symmetric_cuts(rho.n_qubits))


def _bounded(value: float, upper: float, what: str) -> Optional[str]:
    """The 0 <= D <= MI gate."""
    if not 0.0 <= value <= upper + SLACK:
        return f"{what} {value!r} outside [0, {upper!r}]"
    return None


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _thermo_figure(rnd: Round, rng, seed, tiny):
    """Genuine and global discord curves of the thermal family, then one CLI sweep."""
    sizes = (3,) if tiny else (3, 4, 6)
    grid = np.linspace(0.0, 1.0, 3 if tiny else 9)
    res = rnd.results

    def mirrored(name, n, i, value):
        j = len(grid) - 1 - i
        if j == i:
            return None if abs(value) <= CURVE_TOL else f"{name} n={n} is {value!r} at p0=1/2"
        if j > i:
            return None
        ref = res.get(f"{name} n={n} p0={grid[j]:.4f}")
        if ref is None:
            return f"{name} n={n}: mirror point p0={grid[j]:.4f} missing"
        ref = ref.quantum if name == "genuine" else ref[0]
        if abs(value - ref) > CURVE_TOL:
            return f"{name} n={n} p0={grid[i]:.4f} asymmetric by {abs(value - ref):.2e}"
        return None

    for n in sizes:
        for i, p0 in enumerate(grid):
            p0 = float(p0)
            tag = f"n={n} p0={p0:.4f}"

            def genuine(n=n, p0=p0):
                return symcorr.genuine_correlations(symcorr.thermo_state(n, p0))

            def check_genuine(rep, n=n, i=i):
                return (_bounded(rep.quantum, rep.total, "genuine discord")
                        or _bounded(rep.classical, rep.total, "genuine classical")
                        or mirrored("genuine", n, i, rep.quantum))

            def global_(n=n, p0=p0):
                return symcorr.global_discord(symcorr.thermo_state(n, p0))

            def check_global(out, n=n, p0=p0, i=i):
                value = out[0]
                want = symcorr.global_discord_thermo_analytic(n, p0)
                if abs(value - want) > ANALYTIC_TOL:
                    return f"global discord {value!r} vs analytic {want!r}"
                total = symcorr.total_correlations(symcorr.thermo_state(n, p0))
                return _bounded(value, total, "global discord") or mirrored("global", n, i, value)

            def mutual_info(n=n, p0=p0):
                return _min_mutual_info(symcorr.thermo_state(n, p0))

            def check_mi(value, tag=tag):
                rep = res.get(f"genuine {tag}")
                if rep is None:
                    return "genuine report for the same point missing"
                if abs(max(value, 0.0) - rep.total) > SLACK:
                    return f"min mutual information {value!r} vs genuine total {rep.total!r}"
                return None

            rnd.add(f"genuine {tag}", genuine, check_genuine)
            rnd.add(f"global {tag}", global_, check_global)
            rnd.add(f"mutual_info {tag}", mutual_info, check_mi)

    steps = 3 if tiny else 5
    out = OUT_DIR / "thermo-figure-sweep.csv"

    def sweep():
        return symcorr.cli.main([
            "sweep", "thermo", "--n", "3", "--start", "0", "--stop", "1",
            "--steps", str(steps), "--measure", "genuine_discord",
            "--measure", "genuine_classical", "--measure", "global_discord",
            "--measure", "mutual_info", "--out", str(out),
        ])

    def check_sweep(code):
        if code != 0:
            return f"sweep exited with {code}"
        rows = _read_csv(out)
        if len(rows) != steps:
            return f"sweep wrote {len(rows)} rows, expected {steps}"
        for row in rows:
            tag = f"n=3 p0={row['p0']:.4f}"
            rep, glob, mi = (res.get(f"{k} {tag}") for k in ("genuine", "global", "mutual_info"))
            if rep is None or glob is None or mi is None:
                return f"no item results for {tag}"
            for key, want in (("genuine_discord", rep.quantum), ("genuine_classical", rep.classical),
                              ("global_discord", glob[0]), ("mutual_info", mi)):
                if abs(row[key] - want) > CSV_TOL:
                    return f"sweep {key} at {tag}: {row[key]!r} vs {want!r}"
        return None

    rnd.add("cli sweep thermo n=3", sweep, check_sweep)


def _large_n(rnd: Round, rng, seed, tiny):
    """Single points at the top of the dense range: genuine discord at n = 8 and
    global discord at n = 7.  One global item at n = 8 takes about 6.6 s, so a
    run would hold too few items for a steady median."""
    sizes = {"genuine": 4, "global": 3} if tiny else {"genuine": 8, "global": 7}
    for measure, n in sizes.items():
        for family, x in (("thermo", 0.25), ("ghz_ad", 0.25)):
            def make(n=n, family=family, x=x):
                if family == "thermo":
                    return symcorr.thermo_state(n, x)
                return symcorr.ghz_ad_closed(n, SQ2, x)

            if measure == "genuine":
                def run(make=make):
                    return symcorr.genuine_correlations(make())

                def check(rep):
                    return (_bounded(rep.quantum, rep.total, "genuine discord")
                            or _bounded(rep.classical, rep.total, "genuine classical"))
            else:
                def run(make=make):
                    return symcorr.global_discord(make())

                def check(out, n=n, family=family, x=x, make=make):
                    if family == "thermo":
                        want = symcorr.global_discord_thermo_analytic(n, x)
                        if abs(out[0] - want) > ANALYTIC_TOL:
                            return f"global discord {out[0]!r} vs analytic {want!r}"
                    return _bounded(out[0], symcorr.total_correlations(make()), "global discord")

            rnd.add(f"{measure} {family} n={n} x={x}", run, check)


def _threshold(n: int) -> float:
    """Closed-form damping rate where the maximal value of a damped GHZ state reaches 1."""
    return 1.0 - 2.0 ** (-((n - 1) / n if n % 2 == 0 else (n - 2) / n))


def _ghz_nonlocality(rnd: Round, rng, seed, tiny):
    """Svetlichny sweeps over the damping rate, threshold bisections, one CLI sweep."""
    sizes = range(2, 5) if tiny else range(2, 12)
    rates = np.linspace(0.0, 1.0, 3 if tiny else 5)
    for family in ("ghz_ad", "ghz_pd"):
        for n in sizes:
            for rate in rates:
                rate = float(rate)

                def point(family=family, n=n, rate=rate):
                    make = symcorr.ghz_ad_closed if family == "ghz_ad" else symcorr.ghz_pd_closed
                    return symcorr.max_violation(make(n, SQ2, rate), seed=seed)[0]

                def check_point(value, n=n, rate=rate):
                    # |rho[0, 2^n - 1]| = alpha1 alpha2 (1 - rate)^(n/2) for both channels
                    want = 2.0 * 0.5 * (1.0 - rate) ** (n / 2.0) * _comb_max(n)
                    if abs(value - want) > CLOSED_FORM_TOL:
                        return f"Svetlichny value {value!r} vs closed form {want!r}"
                    return None

                rnd.add(f"svetlichny {family} n={n} rate={rate:.2f}", point, check_point)

    for n in range(2, 4 if tiny else 9):
        def bisect(n=n):
            lo, hi = 0.0, 1.0
            while hi - lo > 1e-10:
                mid = (lo + hi) / 2.0
                value, _ = symcorr.max_violation(symcorr.ghz_ad_closed(n, SQ2, mid), seed=seed)
                lo, hi = (mid, hi) if value > 1.0 else (lo, mid)
            return (lo + hi) / 2.0

        def check_bisect(lam, n=n):
            if abs(lam - _threshold(n)) > THRESHOLD_TOL:
                return f"threshold {lam!r} vs closed form {_threshold(n)!r}"
            return None

        rnd.add(f"threshold ghz_ad n={n}", bisect, check_bisect)

    out = OUT_DIR / "ghz-nonlocality-sweep.csv"

    def sweep():
        return symcorr.cli.main([
            "sweep", "ghz_ad", "--n", "4", "--alpha1", repr(SQ2), "--start", "0",
            "--stop", "1", "--steps", str(len(rates)), "--measure", "svetlichny",
            "--seed", str(seed), "--out", str(out),
        ])

    def check_sweep(code):
        if code != 0:
            return f"sweep exited with {code}"
        rows = _read_csv(out)
        if len(rows) != len(rates):
            return f"sweep wrote {len(rows)} rows, expected {len(rates)}"
        for row in rows:
            want = rnd.results.get(f"svetlichny ghz_ad n=4 rate={row['lambda']:.2f}")
            if want is None or abs(row["svetlichny"] - want) > CSV_TOL:
                return f"sweep svetlichny at lambda={row['lambda']}: {row['svetlichny']!r} vs {want!r}"
        return None

    rnd.add("cli sweep ghz_ad n=4", sweep, check_sweep)


def _pure(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def _ghz_mixture(n: int, weight: float, other: str):
    """weight * GHZ + (1 - weight) * |+...+> or the one-excitation Dicke state."""
    ghz = np.zeros(2**n)
    ghz[0] = ghz[-1] = 1.0
    if other == "plus":
        partner = np.ones(2**n)
    else:
        partner = np.array([1.0 if bin(i).count("1") == 1 else 0.0 for i in range(2**n)])
    return symcorr.DensityMatrix(n, weight * _pure(ghz) + (1.0 - weight) * _pure(partner))


def _cross_check(rnd: Round, rng, seed, tiny):
    """Fast paths against the brute-force validators at n = 3, 4.

    X-states must agree with the oracles both ways.  The GHZ mixtures are
    permutation invariant but not X-states; there the oracle searches a
    superset of angles, so an oracle value above the fast path is its own
    miss: counted in `counts`, not failed.  Only the fast path exceeding the
    oracle fails.
    """
    states = [
        ("thermo n=3", True, symcorr.thermo_state(3, float(rng.uniform(0.05, 0.45)))),
        ("ghz+plus 0.7 n=3", False, _ghz_mixture(3, 0.7, "plus")),
    ]
    if not tiny:
        states += [
            ("ghz_ad n=4", True, symcorr.ghz_ad_closed(4, SQ2, float(rng.uniform(0.1, 0.6)))),
            ("ghz+plus 0.5 n=3", False, _ghz_mixture(3, 0.5, "plus")),
            ("ghz+dicke n=3", False, _ghz_mixture(3, float(rng.uniform(0.2, 0.9)), "dicke")),
            ("ghz+plus 0.6 n=4", False, _ghz_mixture(4, 0.6, "plus")),
        ]
    res = rnd.results
    for label, x_state, rho in states:
        n = rho.n_qubits
        cut = symcorr.Cut.of(n, {n - 1})

        def against(fast, oracle_value, x_state=x_state):
            if x_state:
                if abs(fast - oracle_value) > ORACLE_TOL:
                    return f"fast path {fast!r} vs oracle {oracle_value!r}"
                return None
            rnd.counts["oracle_compared"] += 1
            if oracle_value - fast > ORACLE_TOL:
                rnd.counts["oracle_missed"] += 1
            if fast - oracle_value > ORACLE_TOL:
                return f"fast path {fast!r} exceeds oracle {oracle_value!r}"
            return None

        def check_sym_bip(out, rho=rho, cut=cut):
            return _bounded(out[0], symcorr.mutual_information(rho, cut), "bipartite discord")

        def check_oracle_bip(value, label=label):
            fast = res.get(f"symmetric bipartite {label}")
            return "symmetric result missing" if fast is None else against(fast[0], value)

        def check_sym_glob(out, rho=rho):
            return _bounded(out[0], symcorr.total_correlations(rho), "global discord")

        def check_oracle_glob(out, label=label):
            fast = res.get(f"symmetric global {label}")
            return "symmetric result missing" if fast is None else against(fast[0], out[0])

        def check_violation(out, rho=rho, x_state=x_state):
            value, settings = out
            if value > symcorr.nonlocality.bounds(rho.n_qubits).quantum_max + CLOSED_FORM_TOL:
                return f"Svetlichny value {value!r} above the quantum maximum"
            again = symcorr.svetlichny_value(rho, settings)
            if abs(again - value) > CLOSED_FORM_TOL:
                return f"svetlichny_value gives {again!r} at the returned settings, not {value!r}"
            if x_state:
                want = 2.0 * abs(rho.data[0, -1]) * _comb_max(rho.n_qubits)
                if abs(value - want) > CLOSED_FORM_TOL:
                    return f"Svetlichny value {value!r} vs closed form {want!r}"
            return None

        rnd.add(f"symmetric bipartite {label}",
                lambda rho=rho, cut=cut: symcorr.bipartite_discord(rho, cut), check_sym_bip)
        rnd.add(f"oracle bipartite {label}",
                lambda rho=rho, cut=cut: symcorr.oracle.oracle_bipartite_discord(rho, cut, ORACLE),
                check_oracle_bip)
        rnd.add(f"symmetric global {label}", lambda rho=rho: symcorr.global_discord(rho), check_sym_glob)
        rnd.add(f"oracle global {label}",
                lambda rho=rho: symcorr.oracle.oracle_global_discord_full(rho, ORACLE),
                check_oracle_glob)
        rnd.add(f"max_violation {label}",
                lambda rho=rho: symcorr.max_violation(rho, seed=seed), check_violation)

    # Kraus route against the environment-dilation route
    for rho in (rho for label, _, rho in states if label.startswith("ghz+plus")):
        for kind in (symcorr.channels.AMPLITUDE_DAMPING, symcorr.channels.PHASE_DAMPING):
            spec = symcorr.ChannelSpec(kind, float(rng.uniform(0.05, 0.95)))
            tag = f"{kind} n={rho.n_qubits} rate={spec.rate:.4f}"

            def check_dilation(out, tag=tag):
                kraus = res.get(f"kraus {tag}")
                if kraus is None:
                    return "Kraus result missing"
                diff = float(np.abs(kraus.data - out.data).max())
                return None if diff <= CHANNEL_TOL else f"Kraus and dilation differ by {diff:.2e}"

            rnd.add(f"kraus {tag}", lambda rho=rho, spec=spec: symcorr.apply_local_channel(rho, spec),
                    lambda out: None)
            rnd.add(f"dilation {tag}",
                    lambda rho=rho, spec=spec: symcorr.oracle.oracle_channel_dilation(rho, spec),
                    check_dilation)

    # Koashi-Winter on the rank-2 phase-damped family against symmetric discord
    for n in (3,) if tiny else (3, 4):
        rho = symcorr.ghz_pd_closed(n, SQ2, float(rng.uniform(0.1, 0.9)))
        cut = symcorr.Cut.of(n, {n - 1})

        def check_kw(value, rho=rho, cut=cut):
            flipped = symcorr.Cut(cut.remainder, cut.measured)
            want = min(symcorr.bipartite_discord(rho, c)[0] for c in (cut, flipped))
            if abs(value - want) > ORACLE_TOL:
                return f"Koashi-Winter {value!r} vs symmetric discord {want!r}"
            return None

        rnd.add(f"koashi_winter ghz_pd n={n}",
                lambda rho=rho, cut=cut: symcorr.koashi_winter_discord(rho, cut), check_kw)
