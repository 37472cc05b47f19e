"""State families held in X form: the dense matrix built on first read, O(n) validation at construction, X-class
positivity, and measures that never build, scan or symmetry-check a family state."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcorr.cli import main
from symcorr.genuine import bipartite_discord, genuine_correlations
from symcorr.global_discord import global_discord, global_discord_thermo_analytic
from symcorr.nonlocality import max_violation, svetlichny_value
from symcorr.qstate import Cut, DensityMatrix
from symcorr.states import ghz_ad_closed, ghz_pd_closed, thermo_state
from symcorr.xstate import symmetric_view, x_form

PROPS = settings(database=None, derandomize=True, max_examples=40, deadline=None)

FAMILIES = {
    "thermo": thermo_state,
    "ghz_ad": lambda n, x: ghz_ad_closed(n, 1.0 / math.sqrt(2.0), x),
    "ghz_pd": lambda n, x: ghz_pd_closed(n, 0.6, x),
}
unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def _builder(n, populations, corner):
    """The X matrix entry by entry: populations by bin(i).count("1"), a real corner mirrored as it is."""
    data = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**n):
        data[i, i] = populations[bin(i).count("1")]
    data[0, -1] = corner
    data[-1, 0] = corner if corner.imag == 0.0 else corner.conjugate()
    return data


@st.composite
def x_forms(draw, max_n=8):
    """(n, populations, corner): a unit-trace PSD X form with a real or complex corner."""
    n = draw(st.integers(2, max_n))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1)))
    total = raw @ [math.comb(n, w) for w in range(n + 1)]
    populations = raw / total if total > 1e-3 else np.eye(n + 1)[0]
    corner = draw(st.floats(0.0, 1.0)) * math.sqrt(populations[0] * populations[n])
    return n, populations, complex(corner * np.exp(1j * draw(st.sampled_from([0.0, 1.0, math.pi / 3.0]))))


@PROPS
@given(form=x_forms())
def test_lazy_data_matches_an_independent_builder_byte_for_byte(form):
    n, populations, corner = form
    rho = DensityMatrix.from_x(n, populations, corner)
    expected = _builder(n, populations, corner)
    assert rho.data.tobytes() == expected.tobytes()
    assert rho.data.tobytes() == DensityMatrix(n, expected).data.tobytes()


@PROPS
@given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(2, 8), x=unit)
def test_family_data_matches_an_independent_builder_byte_for_byte(family, n, x):
    rho = FAMILIES[family](n, x)
    assert rho.data.tobytes() == _builder(n, rho.x_parts.populations, rho.x_parts.corner).tobytes()


def test_data_is_read_only_and_built_once():
    rho = thermo_state(4, 0.3)
    assert "data" not in vars(rho)
    first = rho.data
    assert rho.data is first
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    with pytest.raises(ValueError):
        rho.x_parts.populations[0] = 1.0


def test_threads_reading_one_state_get_one_matrix():
    """Eight readers on two cores, switching every microsecond: a lost update would hand out two arrays."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for p0 in (0.1, 0.3, 0.7):
            rho, seen, start = thermo_state(8, p0), [], threading.Barrier(8)

            def read():
                start.wait(timeout=10)
                seen.append(rho.data)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 8 and all(data is seen[0] for data in seen)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_structure_view_of_a_family_state_is_its_held_x_state(family):
    rho = FAMILIES[family](5, 0.3)
    assert symmetric_view(rho, "test") is rho.x_parts
    assert not rho.x_parts.populations.flags.writeable


def test_dense_built_states_hold_no_x_form():
    assert DensityMatrix(3, thermo_state(3, 0.3).data).x_parts is None
    with pytest.raises(AttributeError, match="no attribute 'other'"):
        thermo_state(3, 0.3).other


@PROPS
@given(form=x_forms(max_n=6), where=st.sampled_from(["population", "corner"]),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_entries_raise_at_construction(form, where, bad):
    n, populations, corner = form
    if where == "population":
        populations = populations.copy()
        populations[n // 2] = bad
    else:
        corner = complex(bad, 0.0)
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix.from_x(n, populations, corner)


@PROPS
@given(form=x_forms(max_n=6), excess=st.floats(1.01e-10, 1e-3), sign=st.sampled_from([-1.0, 1.0]),
       w=st.integers(0, 6))
def test_a_trace_off_by_more_than_1e_10_raises_at_construction(form, excess, sign, w):
    n, populations, corner = form
    w = min(w, n)
    populations = populations.copy()
    populations[w] += sign * excess / math.comb(n, w)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix.from_x(n, populations, corner)


def test_complex_populations_and_wrong_lengths_raise_at_construction():
    with pytest.raises(ValueError, match="real"):
        DensityMatrix.from_x(2, [0.5, 0.0, 0.5 + 1e-3j], 0.0)
    with pytest.raises(ValueError, match="populations"):
        DensityMatrix.from_x(3, [0.5, 0.0, 0.5], 0.0)


@PROPS
@given(form=x_forms(max_n=6), excess=st.floats(1e-3, 1.0), phase=st.floats(0.0, 2.0 * math.pi))
def test_a_corner_past_sqrt_p0_pn_raises_at_construction(form, excess, phase):
    n, populations, _ = form
    corner = (math.sqrt(populations[0] * populations[n]) + excess) * np.exp(1j * phase)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        DensityMatrix.from_x(n, populations, corner)


def test_a_negative_population_raises_at_construction():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        DensityMatrix.from_x(2, [0.5, -0.05, 0.6], 0.0)


def _non_psd_x_matrix():
    """3-qubit X matrix with |c|^2 > p_0 p_3: Hermitian with unit trace, so the dense constructor admits it."""
    data = np.diag([0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2]).astype(complex)
    data[0, -1] = data[-1, 0] = 0.35
    return DensityMatrix(3, data)


def test_x_form_of_a_dense_matrix_rejects_a_non_psd_form():
    rho = _non_psd_x_matrix()
    for call in (x_form, genuine_correlations, global_discord):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            call(rho)


def _refuse(*args, **kwargs):
    raise AssertionError("a family state was built, scanned or symmetry-checked")


@pytest.fixture
def compact_only(monkeypatch):
    """Every measure must run from the held X form: building, scanning or symmetry-checking a state raises."""
    monkeypatch.setattr("symcorr.qstate.XState.matrix", _refuse)
    monkeypatch.setattr("symcorr.xstate.x_form", _refuse)
    monkeypatch.setattr("symcorr.xstate.require_permutation_symmetric", _refuse)
    monkeypatch.setattr("symcorr.qstate.require_permutation_symmetric", _refuse)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_states_stay_compact_through_every_measure(compact_only, family):
    for n in range(2, 13):
        rho = FAMILIES[family](n, 0.3)
        report = genuine_correlations(rho)
        assert 0.0 <= report.quantum <= report.total + 1e-9
        assert global_discord(rho)[0] >= 0.0
        assert bipartite_discord(rho, Cut.of(n, {n - 1}))[0] >= 0.0
        value, table = max_violation(rho)
        assert svetlichny_value(rho, table) == value
        assert "data" not in vars(rho)


def test_cli_single_at_twelve_qubits_stays_compact(compact_only, capsys):
    code = main(["single", "thermo", "--n", "12", "--p0", "0.3", "--measure", "genuine_discord",
                 "--measure", "global_discord", "--measure", "svetlichny"])
    assert code == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert abs(float(printed["global_discord"]) - global_discord_thermo_analytic(12, 0.3)) <= 1e-12
