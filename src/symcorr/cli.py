"""Command-line front end: single-state reports, parameter sweeps, bounds.

Measures: genuine_discord, genuine_classical, global_discord, svetlichny and
mutual_info (the minimum bipartite mutual information).  Sweeps write a CSV
with one row per parameter value plus a JSON sidecar (<out>.meta.json) that
records the run configuration and the per-point optimal angles in radians.

Exit codes: 0 success, 2 usage error, 3 size-cap guard, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .genuine import genuine_correlations
from .global_discord import global_discord
from .nonlocality import bounds as svetlichny_bounds
from .nonlocality import max_violation
from .qstate import DensityMatrix, QubitCapError, enumerate_cuts, mutual_information
from .states import ghz_ad_closed, ghz_pd_closed, thermo_state

MEASURES = ("genuine_discord", "genuine_classical", "global_discord", "svetlichny", "mutual_info")
FAMILIES = ("thermo", "ghz_ad", "ghz_pd")
_PARAM_NAME = {"thermo": "p0", "ghz_ad": "lambda", "ghz_pd": "gamma"}


@dataclass(frozen=True)
class SweepSpec:
    family: str
    n: int
    start: float
    stop: float
    steps: int
    measures: tuple
    alpha1: float = None
    mode: str = "symmetric"
    seed: int = 0
    strict_alpha: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        if not (0.0 <= self.start <= self.stop <= 1.0):
            raise ValueError(
                f"range [{self.start}, {self.stop}] outside the parameter domain [0, 1]"
            )
        if not self.measures or any(m not in MEASURES for m in self.measures):
            raise ValueError(f"measures must be a nonempty subset of {MEASURES}")
        if self.family != "thermo" and self.alpha1 is None:
            raise ValueError(f"family {self.family!r} requires alpha1")
        object.__setattr__(self, "measures", tuple(self.measures))


def _build_state(family: str, n: int, value: float, alpha1, strict: bool) -> DensityMatrix:
    if family == "thermo":
        return thermo_state(n, value)
    if family == "ghz_ad":
        return ghz_ad_closed(n, alpha1, value, strict=strict)
    return ghz_pd_closed(n, alpha1, value, strict=strict)


def _compute_measures(rho: DensityMatrix, measures, mode: str, seed: int):
    values, angles = {}, {}
    if "genuine_discord" in measures or "genuine_classical" in measures:
        report = genuine_correlations(rho, mode=mode)
        values["genuine_discord"] = report.quantum
        values["genuine_classical"] = report.classical
        best = min(report.per_cut, key=lambda r: r.discord)
        if best.optimal_theta is not None:
            angles["genuine_discord"] = {"theta": best.optimal_theta}
    if "global_discord" in measures:
        value, rot = global_discord(rho, mode=mode)
        values["global_discord"] = value
        angles["global_discord"] = {
            "theta": rot.pairs[0][0],
            "phi": rot.pairs[0][1],
        }
    if "svetlichny" in measures:
        value, settings = max_violation(rho, seed=seed)
        values["svetlichny"] = value
        angles["svetlichny"] = {"settings": [list(p) for p in settings.pairs]}
    if "mutual_info" in measures:
        cuts = enumerate_cuts(rho.n_qubits, mode)
        values["mutual_info"] = min(mutual_information(rho, cut) for cut in cuts)
    return values, angles


def run_single(args) -> int:
    measures = tuple(dict.fromkeys(args.measure))
    family = args.family
    if family == "thermo":
        if args.p0 is None:
            raise ValueError("thermo requires --p0")
        value, fixed = args.p0, {}
    elif family == "ghz_ad":
        if args.alpha1 is None or args.lam is None:
            raise ValueError("ghz_ad requires --alpha1 and --lambda")
        value, fixed = args.lam, {"alpha1": args.alpha1}
    else:
        if args.alpha1 is None or args.gamma is None:
            raise ValueError("ghz_pd requires --alpha1 and --gamma")
        value, fixed = args.gamma, {"alpha1": args.alpha1}
    rho = _build_state(family, args.n, value, args.alpha1, args.strict_alpha)
    values, _ = _compute_measures(rho, measures, args.mode, args.seed)
    rows = [("family", family), ("n", str(args.n)), (_PARAM_NAME[family], f"{value:.12g}")]
    rows += [(k, f"{v:.12g}") for k, v in fixed.items()]
    rows += [(m, f"{values[m]:.12g}") for m in measures]
    width = max(len(k) for k, _ in rows)
    for key, text in rows:
        print(f"{key:<{width}}  {text}")
    return 0


def run_sweep(spec: SweepSpec, out_path: str):
    """Evaluate the sweep, write the CSV and its metadata sidecar, return the rows."""
    param = _PARAM_NAME[spec.family]
    grid = np.linspace(spec.start, spec.stop, spec.steps)
    rows, points = [], []
    for value in grid:
        rho = _build_state(spec.family, spec.n, float(value), spec.alpha1, spec.strict_alpha)
        values, angles = _compute_measures(rho, spec.measures, spec.mode, spec.seed)
        rows.append((float(value), [values[m] for m in spec.measures]))
        points.append({param: float(value), "angles": angles})

    header = ",".join([param] + list(spec.measures))
    lines = [header]
    for value, measured in rows:
        lines.append(",".join(f"{x:.12g}" for x in [value] + measured))
    with open(out_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    meta = {
        "version": __version__,
        "family": spec.family,
        "n": spec.n,
        "parameter": param,
        "start": spec.start,
        "stop": spec.stop,
        "steps": spec.steps,
        "alpha1": spec.alpha1,
        "measures": list(spec.measures),
        "mode": spec.mode,
        "seed": spec.seed,
        "angle_unit": "radians",
        "points": points,
    }
    with open(f"{out_path}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcorr",
        description="Multipartite correlation measures for symmetric n-qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, required=True, help="number of qubits")
        p.add_argument("--measure", action="append", choices=MEASURES, required=True)
        p.add_argument("--mode", choices=("symmetric", "general"), default="symmetric")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--strict-alpha", action="store_true",
                       help="reject alpha1 above 1/sqrt(2) instead of warning")

    single = sub.add_parser("single", help="compute measures for one state")
    single.add_argument("family", choices=FAMILIES)
    add_common(single)
    single.add_argument("--p0", type=float)
    single.add_argument("--alpha1", type=float)
    single.add_argument("--lambda", dest="lam", type=float)
    single.add_argument("--gamma", type=float)

    sweep = sub.add_parser("sweep", help="sweep a state parameter, write CSV")
    sweep.add_argument("family", choices=FAMILIES)
    add_common(sweep)
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--alpha1", type=float)
    sweep.add_argument("--out", required=True)

    bnd = sub.add_parser("bounds", help="print the nonlocality bounds for n qubits")
    bnd.add_argument("--n", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "single":
            return run_single(args)
        if args.command == "sweep":
            spec = SweepSpec(
                family=args.family,
                n=args.n,
                start=args.start,
                stop=args.stop,
                steps=args.steps,
                measures=tuple(dict.fromkeys(args.measure)),
                alpha1=args.alpha1,
                mode=args.mode,
                seed=args.seed,
                strict_alpha=args.strict_alpha,
            )
            run_sweep(spec, args.out)
            return 0
        b = svetlichny_bounds(args.n)
        print(f"lhv                       {b.lhv:.12g}")
        print(f"quantum_max               {b.quantum_max:.12g}")
        thresholds = " ".join(f"{t:.12g}" for t in b.separability_thresholds)
        print(f"separability_thresholds   {thresholds if thresholds else '-'}")
        return 0
    except QubitCapError as exc:
        print(f"symcorr: size cap: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"symcorr: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"symcorr: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
