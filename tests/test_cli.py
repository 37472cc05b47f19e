"""Command-line interface: verbs, CSV sweeps, sidecar metadata, exit codes."""

import json
import sys
from functools import cache

import numpy as np
import pytest

from bipartitions import every_bipartition
from symcorr.cli import FAMILIES, SweepSpec, main, run_sweep
from symcorr.global_discord import global_discord_thermo_analytic
from symcorr.qstate import QubitCapError, mutual_information
from symcorr.states import ghz_ad_closed, ghz_pd_closed, thermo_state


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_single_thermo_global_discord_at_p0_one(capsys):
    code = main(["single", "thermo", "--n", "3", "--p0", "1.0", "--measure", "global_discord"])
    assert code == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("global_discord")][0]
    assert float(line.split()[-1]) == pytest.approx(1.0, abs=1e-6)


def test_single_ghz_pd_svetlichny(capsys):
    code = main(
        ["single", "ghz_pd", "--n", "3", "--alpha1", "0.7071067811865476",
         "--gamma", "0", "--measure", "svetlichny"]
    )
    assert code == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("svetlichny")][0]
    assert float(line.split()[-1]) == pytest.approx(np.sqrt(2), abs=1e-4)


def test_single_thermo_half_genuine_discord_zero(capsys):
    code = main(["single", "thermo", "--n", "4", "--p0", "0.5", "--measure", "genuine_discord"])
    assert code == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("genuine_discord")][0]
    assert abs(float(line.split()[-1])) < 1e-9


def test_bounds_verb(capsys):
    assert main(["bounds", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "quantum_max" in out
    assert "2.82842712475" in out
    assert "2" in out.splitlines()[-1]
    assert main(["bounds", "--n", "13"]) == 0  # above the dense cap: a pure formula


def test_bounds_past_the_float_range_exit_2(capsys):
    assert main(["bounds", "--n", "1100"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_sweep_thermo_symmetric_and_zero_at_half(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = SweepSpec(
        family="thermo", n=3, start=0.0, stop=1.0, steps=11,
        measures=("genuine_discord",),
    )
    run_sweep(spec, str(out))
    header, rows = read_csv(out)
    assert header == ["p0", "genuine_discord"]
    values = {round(r[0], 3): r[1] for r in rows}
    assert abs(values[0.5]) < 1e-9
    for p0 in (0.0, 0.1, 0.2, 0.3, 0.4):
        assert values[p0] == pytest.approx(values[round(1 - p0, 3)], abs=1e-9)


def test_sweep_ghz_ad_svetlichny_threshold(tmp_path):
    out = tmp_path / "ad.csv"
    code = main(
        ["sweep", "ghz_ad", "--n", "2", "--alpha1", "0.7071067811865476",
         "--start", "0", "--stop", "0.5", "--steps", "51",
         "--measure", "svetlichny", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert rows[0][1] == pytest.approx(np.sqrt(2), abs=1e-6)
    crossing = None
    for (l1, v1), (l2, v2) in zip(rows, rows[1:]):
        if v1 > 1.0 >= v2:
            crossing = l1 + (l2 - l1) * (v1 - 1.0) / (v1 - v2)
    assert crossing == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-3)


def test_sweep_is_byte_stable(tmp_path):
    args = ["sweep", "thermo", "--n", "2", "--start", "0.2", "--stop", "0.8",
            "--steps", "5", "--measure", "global_discord", "--measure", "mutual_info",
            "--seed", "3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta1 = (tmp_path / "a.csv.meta.json").read_bytes()
    meta2 = (tmp_path / "b.csv.meta.json").read_bytes()
    assert meta1.replace(b"a.csv", b"") == meta2.replace(b"b.csv", b"")


def test_sidecar_metadata_contents(tmp_path):
    out = tmp_path / "meta.csv"
    assert main(
        ["sweep", "thermo", "--n", "3", "--start", "0.3", "--stop", "0.7", "--steps", "3",
         "--measure", "genuine_discord", "--measure", "global_discord", "--out", str(out)]
    ) == 0
    meta = json.loads((tmp_path / "meta.csv.meta.json").read_text())
    assert meta["family"] == "thermo"
    assert meta["n"] == 3
    assert meta["angle_unit"] == "radians"
    assert "mode" not in meta
    assert len(meta["points"]) == 3
    point = meta["points"][0]
    assert point["angles"]["global_discord"]["theta"] == pytest.approx(np.pi / 2, abs=1e-3)
    assert point["angles"]["genuine_discord"]["theta"] == pytest.approx(np.pi / 4, abs=1e-3)


def test_repeated_measure_gives_one_column(tmp_path, capsys):
    """`--measure genuine_discord` twice is one measure, in `single` and in `sweep` (`SweepSpec` keeps the
    first occurrence of each)."""
    twice = ["--measure", "genuine_discord", "--measure", "mutual_info", "--measure", "genuine_discord"]
    assert main(["single", "thermo", "--n", "3", "--p0", "0.3", *twice]) == 0
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == ["family", "n", "p0", "genuine_discord", "mutual_info"]
    out = tmp_path / "twice.csv"
    assert main(["sweep", "thermo", "--n", "3", "--start", "0.2", "--stop", "0.8", "--steps", "3", *twice,
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["p0", "genuine_discord", "mutual_info"] and all(len(row) == 3 for row in rows)
    assert json.loads((tmp_path / "twice.csv.meta.json").read_text())["measures"] == header[1:]
    spec = SweepSpec(family="thermo", n=3, start=0.2, stop=0.8, steps=3, measures=["mutual_info"] * 2)
    assert spec.measures == ("mutual_info",)


def test_usage_errors_exit_2(capsys):
    assert main(["single", "thermo", "--n", "3", "--measure", "genuine_discord"]) == 2
    assert main(["single", "thermo", "--n", "3", "--p0", "2.0",
                 "--measure", "genuine_discord"]) == 2
    assert main(["single", "exotic", "--n", "3", "--measure", "genuine_discord"]) == 2
    assert main(["sweep", "thermo", "--n", "3", "--start", "0", "--stop", "1",
                 "--steps", "1", "--measure", "mutual_info", "--out", "x.csv"]) == 2
    capsys.readouterr()


def test_family_flags_are_checked_in_single_and_sweep(tmp_path, capsys):
    """`--strict-alpha` is gone, `thermo` refuses `--alpha1` in both commands, and `single` takes only its
    own family's parameter flag, so no flag is accepted and then ignored."""
    single = ["single", "thermo", "--n", "3", "--p0", "0.3", "--measure", "mutual_info"]
    assert main(single) == 0
    assert main(single + ["--lambda", "0.9"]) == 2
    assert main(single + ["--alpha1", "0.5"]) == 2
    assert main(single + ["--lambda", "0.9", "--alpha1", "0.5"]) == 2
    assert main(["single", "ghz_pd", "--n", "3", "--alpha1", "0.6", "--gamma", "0.2", "--p0", "0.3",
                 "--measure", "mutual_info"]) == 2
    ghz = ["single", "ghz_ad", "--n", "3", "--alpha1", "0.6", "--lambda", "0.2", "--measure", "mutual_info"]
    assert main(ghz) == 0
    assert main(ghz + ["--strict-alpha"]) == 2
    out = tmp_path / "thermo.csv"
    sweep = ["sweep", "thermo", "--n", "3", "--start", "0.2", "--stop", "0.8", "--steps", "3",
             "--measure", "mutual_info", "--out", str(out)]
    assert main(sweep + ["--alpha1", "0.5"]) == 2
    assert main(sweep + ["--strict-alpha"]) == 2
    assert not out.exists() and not (tmp_path / "thermo.csv.meta.json").exists()
    assert "takes no alpha1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="takes no alpha1"):
        SweepSpec(family="thermo", n=3, start=0.2, stop=0.8, steps=3, measures=("mutual_info",), alpha1=0.5)


@pytest.mark.parametrize("field, value, error, match", [
    ("steps", 2.5, ValueError, "steps must be an integer >= 2"),
    ("steps", "3", ValueError, "steps must be an integer >= 2"),
    ("n", 1, ValueError, "qubit count must be an integer >= 2"),
    ("n", 13, QubitCapError, "capped at 12 qubits"),
], ids=["steps-float", "steps-str", "n-1", "n-13"])
def test_spec_checks_steps_and_n_at_construction(field, value, error, match):
    """A fractional or string `steps` failed inside `np.linspace` or the `<` test with `TypeError`, and a
    bad `n` only in `run_sweep`."""
    given = dict(family="thermo", n=3, start=0.2, stop=0.8, steps=3, measures=("mutual_info",))
    with pytest.raises(error, match=match):
        SweepSpec(**{**given, field: value})


def test_negative_svetlichny_seed_exits_2(capsys):
    args = ["single", "ghz_ad", "--n", "3", "--alpha1", "0.7071067811865476", "--lambda", "0.2",
            "--measure", "svetlichny"]
    assert main(args + ["--seed", "0"]) == 0
    assert main(args + ["--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_size_guard_exits_3(capsys):
    code = main(["single", "thermo", "--n", "13", "--p0", "0.7", "--measure", "genuine_discord"])
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_mode_flag_is_a_usage_error(tmp_path, capsys):
    """The oracles are reached only by name, so no flag picks a discord search."""
    out = tmp_path / "out.csv"
    for verb_args in (["single", "thermo", "--p0", "0.7"],
                      ["sweep", "thermo", "--start", "0", "--stop", "1", "--steps", "2", "--out", str(out)]):
        assert main(verb_args + ["--n", "3", "--mode", "general", "--measure", "genuine_discord"]) == 2
        assert "--mode" in capsys.readouterr().err
    assert not out.exists()


def test_symmetric_global_discord_of_an_x_state_above_ten_qubits(capsys):
    code = main(["single", "thermo", "--n", "11", "--p0", "0.3", "--measure", "global_discord"])
    assert code == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(printed["global_discord"]) == pytest.approx(global_discord_thermo_analytic(11, 0.3), abs=1e-11)


def test_fast_path_completes_at_eight_qubits(capsys):
    code = main(["single", "thermo", "--n", "8", "--p0", "0.7", "--measure", "svetlichny"])
    assert code == 0
    capsys.readouterr()


def test_io_error_exits_4(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code = main(["sweep", "thermo", "--n", "2", "--start", "0", "--stop", "1",
                 "--steps", "2", "--measure", "mutual_info", "--out", str(target)])
    assert code == 4
    capsys.readouterr()


ALPHA1 = 0.6
_STATES = {
    "thermo": thermo_state,
    "ghz_ad": lambda n, value: ghz_ad_closed(n, ALPHA1, value),
    "ghz_pd": lambda n, value: ghz_pd_closed(n, ALPHA1, value),
}


@cache
def _dense_min_mutual_info(family, n, value):
    rho = _STATES[family](n, value)
    return min(mutual_information(rho, cut) for cut in every_bipartition(n))


def _mutual_info_gap(tmp_path, family, n, grid, measures):
    """Largest distance of the swept mutual_info on `grid` from the dense minimum over every cut."""
    spec = SweepSpec(family=family, n=n, start=grid[0], stop=grid[1], steps=grid[2], measures=measures,
                     alpha1=None if family == "thermo" else ALPHA1)
    rows = run_sweep(spec, str(tmp_path / "mi.csv"))
    return max(abs(measured[measures.index("mutual_info")] - _dense_min_mutual_info(family, n, value))
               for value, measured in rows)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(2, 9))
def test_mutual_info_is_the_dense_minimum_over_every_bipartition(tmp_path, family, n):
    """The genuine total equals the dense minimum of `mutual_information` over all 2^(n-1) - 1 cuts, with
    and without a genuine measure in the sweep.  n = 8 takes two points, because its 127 dense cuts
    dominate the test's time."""
    grid = (0.25, 0.75, 2) if n == 8 else (0.0, 1.0, 9)
    for measures in (("genuine_discord", "mutual_info"), ("mutual_info",)):
        assert _mutual_info_gap(tmp_path, family, n, grid, measures) <= 1e-13, measures


def test_mutual_info_reads_no_dense_mutual_information(monkeypatch, capsys):
    """The genuine report reads the structure-class view; the dense path re-solved S(rho) for every cut."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense mutual_information called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symcorr" and hasattr(module, "mutual_information"):
            monkeypatch.setattr(module, "mutual_information", refuse)
    assert main(["single", "thermo", "--n", "10", "--p0", "0.3", "--measure", "mutual_info"]) == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(printed["mutual_info"]) > 0.0
