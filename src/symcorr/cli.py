"""Command-line front end: single-state reports, parameter sweeps, bounds.

Measures: genuine_discord, genuine_classical, global_discord, svetlichny and
mutual_info (the genuine total, the minimum bipartite mutual information).
Sweeps write a CSV with one row per parameter value plus a JSON sidecar
(<out>.meta.json) that records the run configuration and the per-point optimal
angles in radians.

Exit codes: 0 success, 2 usage error, 3 size-cap guard, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .genuine import genuine_correlations
from .global_discord import global_discord
from .nonlocality import bounds as svetlichny_bounds
from .nonlocality import max_violation
from .qstate import DensityMatrix, QubitCapError, check_integer, check_qubit_count
from .states import ghz_ad_closed, ghz_pd_closed, thermo_state

MEASURES = ("genuine_discord", "genuine_classical", "global_discord", "svetlichny", "mutual_info")
FAMILIES = {"thermo": "p0", "ghz_ad": "lambda", "ghz_pd": "gamma"}  # family -> swept parameter


def _checked_measures(measures) -> tuple:
    """`measures` with each measure kept once, at its first position; ValueError unless they form a
    nonempty subset of MEASURES."""
    if not measures or any(m not in MEASURES for m in measures):
        raise ValueError(f"measures must be a nonempty subset of {MEASURES}")
    return tuple(dict.fromkeys(measures))


def _fixed_params(family: str, alpha1) -> dict:
    """The parameters held fixed along `family`: alpha1, which the GHZ families need and thermo refuses."""
    if family == "thermo":
        if alpha1 is not None:
            raise ValueError("family 'thermo' takes no alpha1")
        return {}
    if alpha1 is None:
        raise ValueError(f"family {family!r} requires alpha1")
    return {"alpha1": alpha1}


@dataclass(frozen=True)
class SweepSpec:
    family: str
    n: int
    start: float
    stop: float
    steps: int
    measures: tuple
    alpha1: float = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {tuple(FAMILIES)}, got {self.family!r}")
        check_qubit_count(self.n, minimum=2)
        check_integer("steps", self.steps, 2)
        if not (0.0 <= self.start <= self.stop <= 1.0):
            raise ValueError(
                f"range [{self.start}, {self.stop}] outside the parameter domain [0, 1]"
            )
        object.__setattr__(self, "measures", _checked_measures(self.measures))
        _fixed_params(self.family, self.alpha1)


def _build_state(family: str, n: int, value: float, alpha1) -> DensityMatrix:
    if family == "thermo":
        return thermo_state(n, value)
    return (ghz_ad_closed if family == "ghz_ad" else ghz_pd_closed)(n, alpha1, value)


def _compute_measures(rho: DensityMatrix, measures, seed: int):
    """Values and optimal angles of `measures`; mutual_info is the genuine total, from the genuine report."""
    values, angles = {}, {}
    genuine = "genuine_discord" in measures or "genuine_classical" in measures
    if genuine or "mutual_info" in measures:
        report = genuine_correlations(rho)
        values.update(genuine_discord=report.quantum, genuine_classical=report.classical,
                      mutual_info=report.total)
        if genuine:
            angles["genuine_discord"] = {"theta": min(report.per_cut, key=lambda r: r.discord).optimal_theta}
    if "global_discord" in measures:
        value, rot = global_discord(rho)
        values["global_discord"] = value
        angles["global_discord"] = {"theta": rot.pairs[0][0], "phi": rot.pairs[0][1]}
    if "svetlichny" in measures:
        value, settings = max_violation(rho, seed=seed)
        values["svetlichny"] = value
        angles["svetlichny"] = {"settings": [list(p) for p in settings.pairs]}
    return values, angles


def run_single(args) -> int:
    measures = _checked_measures(args.measures)
    family, param = args.family, FAMILIES[args.family]
    given = [p for p in FAMILIES.values() if getattr(args, p) is not None]
    if given != [param]:
        raise ValueError(f"{family} takes exactly one family parameter, --{param}; got {given}")
    value = getattr(args, param)
    fixed = _fixed_params(family, args.alpha1)
    rho = _build_state(family, args.n, value, args.alpha1)
    values, _ = _compute_measures(rho, measures, args.seed)
    rows = [("family", family), ("n", str(args.n)), (param, f"{value:.12g}")]
    rows += [(k, f"{v:.12g}") for k, v in fixed.items()]
    rows += [(m, f"{values[m]:.12g}") for m in measures]
    width = max(len(k) for k, _ in rows)
    for key, text in rows:
        print(f"{key:<{width}}  {text}")
    return 0


def run_sweep(spec: SweepSpec, out_path: str):
    """Evaluate the sweep, write the CSV and its metadata sidecar, return the rows."""
    param = FAMILIES[spec.family]
    grid = np.linspace(spec.start, spec.stop, spec.steps)
    rows, points = [], []
    for value in grid:
        rho = _build_state(spec.family, spec.n, float(value), spec.alpha1)
        values, angles = _compute_measures(rho, spec.measures, spec.seed)
        rows.append((float(value), [values[m] for m in spec.measures]))
        points.append({param: float(value), "angles": angles})

    header = ",".join([param] + list(spec.measures))
    lines = [header]
    for value, measured in rows:
        lines.append(",".join(f"{x:.12g}" for x in [value] + measured))
    with open(out_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    meta = {f.name: getattr(spec, f.name) for f in fields(SweepSpec)}
    meta.update(version=__version__, parameter=param, angle_unit="radians", points=points)
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
        p.add_argument("family", choices=FAMILIES)
        p.add_argument("--n", type=int, required=True, help="number of qubits")
        p.add_argument("--measure", dest="measures", action="append", choices=MEASURES, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--alpha1", type=float, help="GHZ weight, for ghz_ad and ghz_pd only")

    single = sub.add_parser("single", help="compute measures for one state")
    add_common(single)
    for family, param in FAMILIES.items():
        single.add_argument(f"--{param}", type=float, help=f"the {family} parameter")

    sweep = sub.add_parser("sweep", help="sweep a state parameter, write CSV")
    add_common(sweep)
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
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
            run_sweep(SweepSpec(**{f.name: getattr(args, f.name) for f in fields(SweepSpec)}), args.out)
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
