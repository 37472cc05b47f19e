#!/usr/bin/env python3
"""symcorr benchmark.

    python3 perfbench/run.py --workload thermo-figure --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a checkout against the library sources in
its `src/`, as a closed loop with one caller: each item is one call into the
public symcorr API and the next starts only when the previous one returned.
Every output is checked against a reference.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
a separate traced round with `--trace 1`.  `--workload all` runs every
workload in its own process and prints a table.
"""

import os
import sys

# Pinned before numpy loads; the value is recorded in the environment block.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("thermo-figure", "large-n", "ghz-nonlocality", "cross-check")
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile

# Set-up as a user pays it: a fresh interpreter imports symcorr, the scipy
# import behind symcorr.oracle, and makes the workload's first call.
SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import symcorr, symcorr.oracle, workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1").items[0].run()
"""


def import_library():
    """Import symcorr from this checkout's sources, never from anywhere else."""
    if not (SRC / "symcorr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no symcorr sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import symcorr

    if SRC not in Path(symcorr.__file__).resolve().parents:
        sys.exit(f"perfbench: symcorr was imported from {symcorr.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": _openblas_threads(np),
    }


def _openblas_threads(np):
    """Thread count reported by the OpenBLAS bundled with numpy, or None."""
    import ctypes

    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in libs.glob("libscipy_openblas*.so"):
        try:
            return int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            return None
    return None


def run_round(rnd, tracer=None):
    """Run every item once; return (latencies, failure messages)."""
    latencies, failures = [], []
    rnd.results.clear()
    for index, item in enumerate(rnd.items):
        if tracer is not None:
            tracer.item = index
        start = time.perf_counter()
        try:
            out, error = item.run(), None
        except Exception as exc:  # a raising item is a failed item, not a crashed run
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        rnd.results[item.name] = out
        if error is None:
            if tracer is not None:
                tracer.enabled = False
            try:
                error = item.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.enabled = True
        if error:
            failures.append(f"{item.name}: {error}")
    return latencies, failures


def timed_rounds(rnd, seconds):
    """Whole rounds until `seconds` is used, stopping where the next would overshoot by half.

    Returns the latencies of each round, the failures and the elapsed time.
    """
    rounds, failures = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        lat, fail = run_round(rnd)
        rounds.append(lat)
        failures += fail
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) >= seconds:
            return rounds, failures, now - start


def setup_seconds(workload, seed, tiny):
    times = []
    for _ in range(1 if tiny else SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed),
             "1" if tiny else "0"],
            check=True, timeout=150, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rnd, args):
    setup = setup_seconds(args.workload, args.seed, args.tiny)
    rounds, failures, elapsed = timed_rounds(rnd, args.seconds)
    latencies = [x for lat in rounds for x in lat]
    n = len(latencies)
    # Every round is timed, the cold first one too.  Each item's median over
    # the rounds rejects that round and bursts of machine noise; both metrics
    # are taken from these medians.
    per_item = [statistics.median(samples) for samples in zip(*rounds)]
    metrics = {
        "items_per_s": metric(len(per_item) / sum(per_item), "1/s"),
        "item_s.p50": metric(statistics.median(per_item), "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"timed phase: {len(rounds)} round(s), {n} items, {elapsed:.3f} s, "
          f"{n / elapsed:.6g} items/s counted over the whole phase")
    for name, m in metrics.items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f"  {'item_s.p90':<14} {p90:.6g} s ({n} samples)")
    else:
        print(f"  {'item_s.p90':<14} not reported: {n} samples, fewer than {P90_MIN_SAMPLES}")
    print(f"  {'fail_ratio':<14} {len(failures) / n:.6g} ({len(failures)} of {n} items)")
    return n, failures, metrics


def per_layer(rnd, args):
    from spans import Tracer

    run_round(rnd)  # warm-up: lazy set-up and first-round slowness stay out of the trace
    start = time.perf_counter()
    _, plain_failures = run_round(rnd)
    plain = time.perf_counter() - start
    rnd.counts.clear()
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        latencies, failures = run_round(rnd, tracer)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    spans_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)

    calls, busy, self_s, refine, closed_form = tracer.layer_metrics()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in ("qstate.is_invariant_under", "qstate.von_neumann_entropy", "qstate.DensityMatrix",
                  "qstate.conditional_state", "qstate.partial_trace", "cli.run_sweep"):
        metrics[f"{layer}.calls"] = metric(calls[layer], "count")
        metrics[f"{layer}.busy_s"] = metric(busy[layer], "s")
    metrics["qstate.DensityMatrix.bytes_computed"] = metric(
        counts["qstate.DensityMatrix.bytes_computed"], "bytes")
    metrics["qstate.conditional_state.null_ratio"] = metric(
        ratio(counts["qstate.conditional_state.null"], calls["qstate.conditional_state"]), "ratio")
    for layer in ("states.thermo_state", "states.ghz_ad_closed", "states.ghz_pd_closed",
                  "states.symmetric_basis", "channels.apply_local_channel",
                  "genuine.genuine_correlations", "genuine.koashi_winter_discord",
                  "global_discord.global_discord", "nonlocality.max_violation",
                  "nonlocality.svetlichny_value", "oracle.oracle_bipartite_discord",
                  "oracle.oracle_global_discord_full"):
        metrics[f"{layer}.busy_s"] = metric(busy[layer], "s")
    for layer in ("genuine.genuine_correlations", "global_discord.global_discord"):
        metrics[f"{layer}.self_s"] = metric(self_s[layer], "s")
    metrics["global_discord.refine_s"] = metric(refine, "s")
    metrics["optim.grid_golden_min.calls"] = metric(calls["optim.grid_golden_min"], "count")
    metrics["optim.golden_section_min.calls"] = metric(calls["optim.golden_section_min"], "count")
    metrics["optim.objective_evals"] = metric(counts["optim.objective_evals"], "count")
    metrics["optim.evals_per_solve"] = metric(
        ratio(counts["optim.objective_evals"], counts["optim.solves"]), "count")
    metrics["nonlocality.closed_form_ratio"] = metric(
        ratio(closed_form, calls["nonlocality.max_violation"]), "ratio")
    metrics["oracle.powell_nfev"] = metric(counts["oracle.powell_nfev"], "count")
    metrics["oracle.miss_ratio"] = metric(
        ratio(rnd.counts["oracle_missed"], rnd.counts["oracle_compared"]), "ratio")
    metrics["trace.overhead_s"] = metric(traced - plain, "s")

    print(f"traced round: {len(latencies)} items, {traced:.3f} s traced, {plain:.3f} s untraced, "
          f"{len(tracer.spans)} spans written to {spans_path}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    return 2 * len(latencies), plain_failures + failures, metrics


def run_all(args):
    """Every workload in its own process, then one table."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=900)
        print(proc.stdout, end="")
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    for workload, result in rows:
        print(f"{workload}: {result['failed']} of {result['attempted']} items failed")
        for name, m in result["metrics"].items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    import_library()
    if args.workload == "all":
        return run_all(args)
    import workloads

    (HERE / "out").mkdir(exist_ok=True)
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    rnd = workloads.build(args.workload, args.seed, args.tiny)

    if args.trace:
        attempted, failures, metrics = per_layer(rnd, args)
    else:
        attempted, failures, metrics = end_to_end(rnd, args)
    if rnd.counts["oracle_compared"]:
        print(f"oracle above the fast path by more than {workloads.ORACLE_TOL} on non-X states: "
              f"{rnd.counts['oracle_missed']} of {rnd.counts['oracle_compared']} comparisons")
    for failure in failures:
        print(f"FAIL {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
