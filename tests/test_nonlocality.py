"""Svetlichny polynomials, correlation functions and violation maximization."""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from symcorr import nonlocality
from symcorr.nonlocality import (
    SettingsTable,
    _coordinate_search_max,
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
        rho = ghz_state(3, SQ2).to_density_matrix()
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


class TestSvetlichnyValue:
    def test_bell_state_at_optimal_settings(self):
        rho = ghz_state(2, SQ2).to_density_matrix()
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

    def test_tiny_negative_angles_wrap_to_zero(self):
        # -1e-17 % (2 pi) is 2 pi in floats, outside the promised [0, 2 pi)
        assert SettingsTable(((-1e-17, 0.0), (0.0, -1e-300))).pairs == ((0.0, 0.0), (0.0, 0.0))


class TestMaxViolation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pure_ghz_reaches_quantum_max(self, n):
        rho = ghz_state(n, SQ2).to_density_matrix()
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
        generic, _ = _coordinate_search_max(rho, restarts=12, seed=4)
        assert generic == pytest.approx(fast, abs=1e-9)
        assert generic <= fast + 1e-9

    def test_each_coordinate_step_is_one_call_on_three_tables(self, monkeypatch):
        shapes = []
        build = nonlocality._svetlichny_evaluator

        def counted(rho):
            evaluate = build(rho)

            def value(flat):
                shapes.append(np.shape(flat))
                return evaluate(flat)

            return value

        monkeypatch.setattr(nonlocality, "_svetlichny_evaluator", counted)
        _coordinate_search_max(ghz_ad_closed(2, SQ2, 0.15), restarts=2, seed=0)
        assert shapes == ([(3, 4)] * 12 + [(4,)]) * 2  # three sweeps over 4 angles, then the restart's value

    def test_generic_path_handles_general_states(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = m @ m.conj().T
        rho = DensityMatrix(2, m / m.trace())
        value, settings = max_violation(rho, restarts=8, seed=2)
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
