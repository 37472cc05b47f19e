"""Svetlichny polynomials, correlation functions and violation maximization."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from symcorr import nonlocality
from symcorr.nonlocality import (
    SettingsTable,
    _antidiagonal_entries,
    _coordinate_search_max,
    _svetlichny_evaluator,
    bounds,
    correlation,
    max_violation,
    svetlichny_expansion,
    svetlichny_value,
)
from symcorr.oracle import oracle_lhv_bound
from symcorr.qstate import DensityMatrix, QubitCapError
from symcorr.states import ghz_ad_closed, ghz_pd_closed, ghz_state, thermo_state

SQ2 = 1 / np.sqrt(2)


def recursive_polynomial_value(n, o_values, big_o_values):
    """Direct evaluation of the defining recursion, independent of the
    symbolic expansion."""
    m, big = o_values[0], big_o_values[0]
    for i in range(1, n):
        o, big_o = o_values[i], big_o_values[i]
        m, big = (
            0.5 * m * (o + big_o) + 0.5 * big * (o - big_o),
            0.5 * big * (o + big_o) + 0.5 * m * (big_o - o),
        )
    return m if n % 2 == 0 else (m + big) / 2.0


def search(rho, restarts, seed):
    """The coordinate search alone, on the evaluator `max_violation` builds."""
    n = rho.n_qubits
    return _coordinate_search_max(_svetlichny_evaluator(n, *_antidiagonal_entries(rho)), n, restarts, seed)


def ghz_plus_mixture(n, ghz_weight):
    """ghz_weight GHZ + (1 - ghz_weight) |+...+>: coherence on every antidiagonal entry."""
    ghz = ghz_state(n, SQ2).data
    return DensityMatrix(n, ghz_weight * ghz + (1.0 - ghz_weight) * np.full((2**n, 2**n), 2.0**-n))


def per_restart_search(rho, restarts, seed):
    """The coordinate search one restart at a time, as it ran before the restarts were batched: every
    restart's final value and flattened table, in draw order."""
    n = rho.n_qubits
    evaluate = _svetlichny_evaluator(n, *_antidiagonal_entries(rho))
    rng = np.random.default_rng(seed)
    finals = []
    for _ in range(restarts):
        x = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
        for _ in range(3):
            for i in range(2 * n):
                trials = x[None].repeat(3, axis=0)
                trials[:, i] = 0.0, math.pi / 2.0, math.pi
                f0, f1, f2 = evaluate(trials)
                x[i] = math.atan2(f1 - (f0 + f2) / 2.0, (f0 - f2) / 2.0)
        finals.append((float(evaluate(x)), x.copy()))
    return finals


class TestExpansion:
    def test_two_qubit_pattern_is_chsh(self):
        exp = svetlichny_expansion(2)
        half = Fraction(1, 2)
        assert exp.coefficients == {
            (1, 1): half,
            (1, 2): half,
            (2, 1): half,
            (2, 2): -half,
        }

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_recursion_on_numeric_inputs(self, n):
        rng = np.random.default_rng(n)
        exp = svetlichny_expansion(n)
        for _ in range(6):
            o = rng.normal(size=n) + 1j * rng.normal(size=n)
            big_o = rng.normal(size=n) + 1j * rng.normal(size=n)
            direct = recursive_polynomial_value(n, o, big_o)
            summed = sum(
                float(w) * reduce(lambda a, b: a * b, ((o, big_o)[q[i] - 1][i] for i in range(n)))
                for q, w in exp.coefficients.items()
            )
            assert abs(direct - summed) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_uniform_dyadic_weights_and_count(self, n):
        exp = svetlichny_expansion(n)
        assert len(exp.coefficients) == 2**n
        magnitudes = {abs(w) for w in exp.coefficients.values()}
        assert len(magnitudes) == 1
        (mag,) = magnitudes
        assert mag.numerator == 1 and mag.denominator & (mag.denominator - 1) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_deterministic_strategies_bounded_by_one(self, n):
        assert oracle_lhv_bound(n) == 1.0


class TestCorrelation:
    def test_pure_ghz_all_zero_angles(self):
        rho = ghz_state(3, SQ2)
        assert correlation(rho, [0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_damped_ghz_closed_form(self, n):
        rng = np.random.default_rng(n + 10)
        a1 = 0.61
        a2 = np.sqrt(1 - a1 * a1)
        for lam in (0.0, 0.3, 0.8):
            rho_ad = ghz_ad_closed(n, a1, lam)
            rho_pd = ghz_pd_closed(n, a1, lam)
            angles = rng.uniform(0, 2 * np.pi, n)
            expected = 2 * (1 - lam) ** (n / 2) * a1 * a2 * np.cos(angles.sum())
            assert correlation(rho_ad, angles) == pytest.approx(expected, abs=1e-12)
            assert correlation(rho_pd, angles) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_explicit_operator_trace(self, n):
        rng = np.random.default_rng(n + 20)
        dim = 2**n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = m @ m.conj().T
        rho = DensityMatrix(n, m / m.trace())
        angles = rng.uniform(0, 2 * np.pi, n)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        op = reduce(np.kron, [np.cos(t) * sx + np.sin(t) * sy for t in angles])
        assert correlation(rho, angles) == pytest.approx(
            np.trace(op @ rho.data).real, abs=1e-12
        )

    def test_angle_count_checked(self):
        with pytest.raises(ValueError, match="angle"):
            correlation(DensityMatrix.maximally_mixed(2), [0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, bad):
        """As `SettingsTable` does: no nan result, and no numpy warning from exp(i inf)."""
        with pytest.raises(ValueError, match="angles must be finite"):
            correlation(thermo_state(3, 0.3), [bad, 0.0, 0.0])


class TestSvetlichnyValue:
    def test_bell_state_at_optimal_settings(self):
        rho = ghz_state(2, SQ2)
        settings = SettingsTable(((0.0, np.pi / 2), (-np.pi / 4, np.pi / 4)))
        assert svetlichny_value(rho, settings) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_maximally_mixed_gives_zero(self):
        rho = DensityMatrix.maximally_mixed(3)
        settings = SettingsTable(((0.1, 0.9),) * 3)
        assert svetlichny_value(rho, settings) == pytest.approx(0.0, abs=1e-12)

    def test_periodic_in_two_pi(self):
        rho = ghz_ad_closed(3, SQ2, 0.2)
        base = SettingsTable(((0.3, 1.2), (0.7, 2.0), (0.1, 0.4)))
        shifted = SettingsTable(((0.3 + 2 * np.pi, 1.2), (0.7, 2.0 - 2 * np.pi), (0.1, 0.4)))
        assert svetlichny_value(rho, base) == pytest.approx(
            svetlichny_value(rho, shifted), abs=1e-12
        )

    @pytest.mark.parametrize("pairs", [
        ((np.nan, 0.0), (0.0, np.inf)),
        ((0.0, 1.0), (0.0, -np.inf)),
        ((0.0, 1.0, 2.0), (0.0, 1.0)),
        ((0.0,), (0.0, 1.0)),
        (0.5, (0.0, 1.0)),
        ((1j, 0.0), (0.0, 1.0)),
    ])
    def test_bad_angles_are_rejected_at_construction(self, pairs):
        with pytest.raises(ValueError, match="setting"):
            SettingsTable(pairs)

    def test_tiny_negative_angles_wrap_to_zero(self):
        # -1e-17 % (2 pi) is 2 pi in floats, outside the promised [0, 2 pi)
        assert SettingsTable(((-1e-17, 0.0), (0.0, -1e-300))).pairs == ((0.0, 0.0), (0.0, 0.0))


class TestMaxViolation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pure_ghz_reaches_quantum_max(self, n):
        rho = ghz_state(n, SQ2)
        value, settings = max_violation(rho)
        expected = np.sqrt(2.0 ** (n - 1)) if n % 2 == 0 else np.sqrt(2.0 ** (n - 2))
        assert value == pytest.approx(expected, abs=1e-3)
        assert svetlichny_value(rho, settings) == pytest.approx(value, abs=1e-12)

    def test_chsh_violation_lost_at_known_rate(self):
        lam = 1 - 1 / np.sqrt(2)
        v_at, _ = max_violation(ghz_ad_closed(2, SQ2, lam))
        assert v_at == pytest.approx(1.0, abs=1e-9)
        v_below, _ = max_violation(ghz_ad_closed(2, SQ2, lam - 0.01))
        v_above, _ = max_violation(ghz_ad_closed(2, SQ2, lam + 0.01))
        assert v_below > 1.0 > v_above

    def test_thermo_scales_with_extremal_coherence(self):
        for n, p0 in ((3, 0.8), (4, 0.9)):
            rho = thermo_state(n, p0)
            value, _ = max_violation(rho)
            amp = p0**n - (1 - p0) ** n
            expected = amp * (np.sqrt(2.0 ** (n - 1)) if n % 2 == 0 else np.sqrt(2.0 ** (n - 2)))
            assert value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_agrees_with_generic_search(self, n):
        rho = ghz_ad_closed(n, SQ2, 0.15)
        fast, _ = max_violation(rho)
        generic, _ = search(rho, restarts=12, seed=4)
        assert generic == pytest.approx(fast, abs=1e-9)
        assert generic <= fast + 1e-9

    def test_each_coordinate_step_is_one_call_on_three_tables(self):
        rho = ghz_ad_closed(2, SQ2, 0.15)
        evaluate = _svetlichny_evaluator(2, *_antidiagonal_entries(rho))
        shapes = []

        def counted(flat):
            shapes.append(np.shape(flat))
            return evaluate(flat)

        _coordinate_search_max(counted, 2, restarts=5, seed=0)
        # three sweeps over 4 angles, every restart's three tables in one call, then every restart's value
        assert shapes == [(5, 3, 4)] * 12 + [(5, 4)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, ghz_weight", [(3, 0.6), (5, 0.3)])
    def test_batched_restarts_match_the_per_restart_loop(self, n, ghz_weight, seed):
        rho = ghz_plus_mixture(n, ghz_weight)
        finals = per_restart_search(rho, restarts=nonlocality.RESTARTS, seed=seed)
        winner = max(range(len(finals)), key=lambda r: (finals[r][0], -r))  # the first best restart
        value, settings = max_violation(rho, seed=seed)
        got = np.ravel(settings.pairs)
        gaps = [np.abs((got - x + np.pi) % (2 * np.pi) - np.pi).max() for _, x in finals]
        assert int(np.argmin(gaps)) == winner
        assert gaps[winner] <= 1e-9
        assert abs(value - finals[winner][0]) <= 1e-12

    @pytest.mark.parametrize("kwargs", [{"seed": 1.5}, {"seed": -1}, {"seed": True}, {"seed": None}])
    def test_arguments_are_checked_on_every_path(self, kwargs):
        for rho in (ghz_ad_closed(3, SQ2, 0.2), ghz_plus_mixture(3, 0.6)):
            with pytest.raises(ValueError, match="seed"):
                max_violation(rho, **kwargs)

    def test_the_restart_count_is_not_an_argument(self):
        with pytest.raises(TypeError, match="restarts"):
            max_violation(ghz_plus_mixture(2, 0.6), restarts=8)

    def test_numpy_integer_arguments_pass(self):
        rho = ghz_plus_mixture(2, 0.6)
        assert max_violation(rho, seed=np.int32(1)) == max_violation(rho, seed=1)

    def test_a_state_without_full_bit_flip_coherence_is_zero_in_closed_form(self):
        for rho in (ghz_ad_closed(4, SQ2, 1.0), thermo_state(3, 0.5), DensityMatrix.maximally_mixed(3)):
            value, settings = max_violation(rho)
            assert value == 0.0
            assert svetlichny_value(rho, settings) == 0.0

    @pytest.mark.parametrize("family", ["thermo", "ghz_ad", "ghz_pd", "ghz"])
    def test_family_states_build_no_basis_table_and_no_matrix(self, family, monkeypatch):
        def refuse(*args):
            raise AssertionError("a 2^n table on an X-state path")

        for target in ("symcorr.qstate.basis_bits", "symcorr.nonlocality.basis_bits", "symcorr.qstate.XState.matrix"):
            monkeypatch.setattr(target, refuse)
        make = {"thermo": lambda n, x: thermo_state(n, 1.0 - x / 2.0), "ghz_ad": lambda n, x: ghz_ad_closed(n, 0.6, x),
                "ghz_pd": lambda n, x: ghz_pd_closed(n, 0.6, x), "ghz": lambda n, x: ghz_state(n, x * SQ2)}[family]
        for n in range(2, 13):
            for x in (0.0, 0.3, 0.8):
                rho = make(n, x)
                value, settings = max_violation(rho)
                assert value == pytest.approx(2.0 * abs(rho.x_parts.corner) * nonlocality._comb_max(n), rel=1e-13)
                assert svetlichny_value(rho, settings) == value
                assert correlation(rho, [0.0] * n) == pytest.approx(2.0 * rho.x_parts.corner.real, abs=1e-15)

    def test_generic_path_handles_general_states(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = m @ m.conj().T
        rho = DensityMatrix(2, m / m.trace())
        value, settings = max_violation(rho, seed=2)
        assert svetlichny_value(rho, settings) == pytest.approx(value, abs=1e-9)

    def test_monotone_in_damping_rate(self):
        values = []
        for lam in np.linspace(0, 0.9, 10):
            v, _ = max_violation(ghz_ad_closed(3, SQ2, lam))
            values.append(v)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_ad_pd_indistinguishable(self):
        for rate in (0.1, 0.45):
            va, _ = max_violation(ghz_ad_closed(3, 0.6, rate))
            vp, _ = max_violation(ghz_pd_closed(3, 0.6, rate))
            assert va == pytest.approx(vp, abs=1e-12)


class TestBounds:
    def test_reference_values(self):
        b2 = bounds(2)
        assert (b2.lhv, b2.quantum_max, b2.separability_thresholds) == (
            1.0,
            pytest.approx(np.sqrt(2)),
            (),
        )
        b4 = bounds(4)
        assert b4.quantum_max == pytest.approx(np.sqrt(8))
        assert b4.separability_thresholds == (2.0,)
        b6 = bounds(6)
        assert b6.quantum_max == pytest.approx(np.sqrt(32))
        assert b6.separability_thresholds == (4.0,)

    def test_odd_even_rule(self):
        assert bounds(3).quantum_max == pytest.approx(np.sqrt(2))
        assert bounds(5).separability_thresholds == (2.0,)
        assert bounds(7).separability_thresholds == (4.0,)

    def test_bounds_are_uncapped_but_the_expansion_is_not(self):
        # bounds are a pure formula; the expansion allocates one row per monomial
        assert bounds(13).separability_thresholds == (32.0,)
        with pytest.raises(QubitCapError):
            svetlichny_expansion(13)
        with pytest.raises(ValueError):
            svetlichny_expansion(1)

    def test_a_quantum_maximum_past_the_float_range_is_a_value_error(self):
        assert bounds(1024).quantum_max == pytest.approx(2.0**511.5)
        with pytest.raises(ValueError, match="overflows"):
            bounds(1100)


def test_one_qubit_is_rejected_like_the_expansion():
    """The polynomial needs two qubits; one qubit is a ValueError, not an IndexError or a silent 0."""
    rho = DensityMatrix.maximally_mixed(1)
    with pytest.raises(ValueError, match=">= 2"):
        svetlichny_value(rho, SettingsTable(((0.0, np.pi / 2),)))
    with pytest.raises(ValueError, match=">= 2"):
        max_violation(rho)

