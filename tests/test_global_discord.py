"""Global discord: dephasing map, analytic formula, optimizer behavior."""

import importlib

import numpy as np
import pytest

from symcorr.global_discord import (
    RotationAngles,
    dephase_in_rotated_basis,
    global_discord,
    global_discord_thermo_analytic,
    rotation_matrix,
)
from symcorr.oracle import DEFAULT_CONFIG, OracleConfig, oracle_global_discord, oracle_global_discord_full
from symcorr.qstate import DensityMatrix, QubitCapError, partial_trace, tensor, von_neumann_entropy
from symcorr.states import ghz_ad_closed, ghz_state, thermo_state
from vectors import ghz_vector

FAST_ORACLE = OracleConfig(restarts=4, grid_density=16, seed=7)


def random_density(rng, n):
    dim = 2**n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return DensityMatrix(n, m / m.trace())


class TestRotations:
    def test_rotation_is_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            r = rotation_matrix(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            assert np.abs(r @ r.conj().T - np.eye(2)).max() < 1e-12

    def test_projector_set_has_period_pi_over_2(self):
        rng = np.random.default_rng(5)
        theta, phi = rng.uniform(0.1, 1.2), rng.uniform(0, 2 * np.pi)
        a = rotation_matrix(theta, phi)
        b = rotation_matrix(theta + np.pi / 2, phi)
        projs_a = [np.outer(a[:, k], a[:, k].conj()) for k in range(2)]
        projs_b = [np.outer(b[:, k], b[:, k].conj()) for k in range(2)]
        assert np.abs(projs_a[0] - projs_b[1]).max() < 1e-12
        assert np.abs(projs_a[1] - projs_b[0]).max() < 1e-12

    def test_half_turn_in_phi_mirrors_theta(self):
        # R(pi/2 - theta, phi + pi) = R(theta, phi) (-i n.sigma): the same projectors, in the other order
        rng = np.random.default_rng(6)
        theta, phi = rng.uniform(0.1, 1.2), rng.uniform(0, np.pi)
        a = rotation_matrix(theta, phi)
        b = rotation_matrix(np.pi / 2 - theta, phi + np.pi)
        for k in range(2):
            assert np.abs(np.outer(a[:, k], a[:, k].conj()) - np.outer(b[:, 1 - k], b[:, 1 - k].conj())).max() < 1e-12

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            RotationAngles(((np.pi, 0.0),))
        with pytest.raises(ValueError):
            RotationAngles(((0.5, -1.0),))


class TestDephasing:
    def test_zero_angles_keep_diagonal_states(self):
        rho = DensityMatrix(2, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        out = dephase_in_rotated_basis(rho, RotationAngles.uniform(2, 0.0, 0.0))
        assert np.abs(out.data - rho.data).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        angles = RotationAngles.uniform(2, 0.7, 1.1)
        once = dephase_in_rotated_basis(rho, angles)
        twice = dephase_in_rotated_basis(once, angles)
        assert np.abs(once.data - twice.data).max() < 1e-12

    def test_trace_preserved_entropy_nondecreasing(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            rho = random_density(rng, 3)
            angles = RotationAngles(
                tuple((rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(3))
            )
            out = dephase_in_rotated_basis(rho, angles)
            assert abs(out.data.trace().real - 1.0) < 1e-12
            assert von_neumann_entropy(out) >= von_neumann_entropy(rho) - 1e-10


class TestAnalyticFormula:
    def test_endpoint_values(self):
        for n in (3, 4, 6):
            assert global_discord_thermo_analytic(n, 1.0) == pytest.approx(1.0)
            assert global_discord_thermo_analytic(n, 0.0) == pytest.approx(1.0)
            assert global_discord_thermo_analytic(n, 0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1.5, 1, True, -1])
    def test_qubit_count_must_be_an_integer_of_at_least_two(self, n):
        """No global discord below two qubits, and no silent float or bool count; -1 used to divide by zero."""
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            global_discord_thermo_analytic(n, 0.0 if n == -1 else 0.3)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.3", None, 1 + 0j, 1.5])
    def test_p0_must_be_a_real_number_in_the_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"p0 must lie in \[0, 1\], got"):
            global_discord_thermo_analytic(3, bad)
        if isinstance(bad, str):
            with pytest.raises(ValueError, match="got '0.3'"):  # quoted, so it cannot read as a number
                global_discord_thermo_analytic(3, bad)

    def test_numpy_floats_and_the_ints_0_and_1_pass(self):
        for p0 in (np.float64(0.3), np.float32(0.3), 0, 1):
            assert global_discord_thermo_analytic(3, p0) == global_discord_thermo_analytic(3, float(p0))

    def test_no_cap_on_the_qubit_count(self):
        """Past n of about 1070 both powers of p0 = 1/2 underflow to 0; the value is 0, not a math domain error."""
        assert global_discord_thermo_analytic(1100, 0.5) == 0.0
        assert 0.0 < global_discord_thermo_analytic(1100, 0.3) < 1e-150
        # 10**400 does not fit a float: the limit, 0 inside (0, 1) and 1 at either end
        assert global_discord_thermo_analytic(10**400, 0.3) == 0.0
        assert global_discord_thermo_analytic(10**400, 0.0) == global_discord_thermo_analytic(10**400, 1.0) == 1.0

    def test_matches_numeric_minimizer(self):
        for n, p0 in ((3, 0.8), (4, 0.3)):
            numeric, _ = global_discord(thermo_state(n, p0))
            assert numeric == pytest.approx(
                global_discord_thermo_analytic(n, p0), abs=1e-6
            )


class TestOptimizer:
    def test_optimal_theta_is_pi_over_2(self):
        for n, p0 in ((3, 0.8), (4, 0.35)):
            _, angles = global_discord(thermo_state(n, p0))
            assert angles.pairs[0][0] == pytest.approx(np.pi / 2, abs=1e-3)

    def test_reports_the_canonical_angle_pair(self):
        # (pi/4, pi) and (pi/4, 0) give the same product basis; the fold reports phi in [0, pi)
        _, angles = global_discord(thermo_state(2, 0.2))
        assert angles.pairs[0] == (pytest.approx(np.pi / 4, abs=1e-6), 0.0)

    def test_thermo_half_is_zero(self):
        value, _ = global_discord(thermo_state(3, 0.5))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_identical_product_states_give_zero(self):
        rng = np.random.default_rng(13)
        single = random_density(rng, 1)
        rho = tensor(tensor(single, single), single)
        value, _ = global_discord(rho)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_matches_full_angle_oracle(self):
        rho = thermo_state(3, 0.8)
        sym, _ = global_discord(rho)
        assert sym == pytest.approx(oracle_global_discord(rho, FAST_ORACLE), abs=2e-3)

    def test_nonnegative_and_p0_symmetric(self):
        for p0 in (0.15, 0.4):
            a, _ = global_discord(thermo_state(3, p0))
            b, _ = global_discord(thermo_state(3, 1 - p0))
            assert a >= -1e-9 and b >= -1e-9
            assert a == pytest.approx(b, abs=1e-9)

    def test_pure_ghz_value(self):
        value, _ = global_discord(ghz_state(3, 1 / np.sqrt(2)))
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_rejects_asymmetric_states(self):
        rng = np.random.default_rng(17)
        rho = tensor(random_density(rng, 1), random_density(rng, 1))
        with pytest.raises(ValueError, match="symcorr.oracle"):
            global_discord(rho)

    def test_the_named_oracle_takes_the_rejected_state(self):
        """A product of single-qubit states has zero global discord: measure each qubit in its eigenbasis."""
        rng = np.random.default_rng(17)
        rho = tensor(random_density(rng, 1), random_density(rng, 1))
        assert oracle_global_discord(rho, FAST_ORACLE) == pytest.approx(0.0, abs=1e-6)

    def test_oracle_runs_all_angles(self):
        rho = thermo_state(3, 0.8)
        value, angles = oracle_global_discord_full(rho, DEFAULT_CONFIG)
        assert angles.n_qubits == 3
        assert value == pytest.approx(global_discord_thermo_analytic(3, 0.8), abs=2e-3)


def _ghz_plus_mixture(n, weight=0.7):
    plus = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    ghz = ghz_vector(n, 1 / np.sqrt(2))
    return DensityMatrix(n, weight * np.outer(ghz, ghz.conj()) + (1 - weight) * np.outer(plus, plus))


class TestSharedAngleEvaluatorMatchesDensePath:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "make",
        [lambda n: thermo_state(n, 0.8), lambda n: ghz_ad_closed(n, 0.6, 0.3), _ghz_plus_mixture],
        ids=["thermo", "ghz_ad", "ghz_plus_mixture"],
    )
    def test_value_at_returned_angles(self, make, n):
        rho = make(n)
        value, angles = global_discord(rho)
        theta, phi = angles.pairs[0]
        rho0 = partial_trace(rho, {0})
        local = von_neumann_entropy(
            dephase_in_rotated_basis(rho0, RotationAngles.uniform(1, theta, phi))
        ) - von_neumann_entropy(rho0)
        dense = von_neumann_entropy(dephase_in_rotated_basis(rho, angles)) - von_neumann_entropy(rho)
        assert value == pytest.approx(dense - n * local, abs=1e-12)

    def test_single_qubit_is_a_plain_value_error(self):
        with pytest.raises(ValueError) as info:
            global_discord(DensityMatrix.maximally_mixed(1))
        assert type(info.value) is ValueError

    def test_single_qubit_is_a_plain_value_error_in_the_oracle(self):
        with pytest.raises(ValueError) as info:
            oracle_global_discord_full(DensityMatrix.maximally_mixed(1), DEFAULT_CONFIG)
        assert type(info.value) is ValueError

    def test_symmetric_mode_refuses_eleven_qubits_up_front(self, monkeypatch):
        # a dense shared-angle scan takes about 12 s at 10 qubits; at 11 the cap of the dense view fires
        # before any grid work or entropy read (the state's one eigensolve ran when it was built)
        def unreachable(*args, **kwargs):
            raise AssertionError("work done past the qubit cap")

        # the package's `global_discord` function shadows its module of the same name
        monkeypatch.setattr(importlib.import_module("symcorr.global_discord"), "grid_golden_min", unreachable)
        monkeypatch.setattr("symcorr.xstate.von_neumann_entropy", unreachable)
        with pytest.raises(QubitCapError, match="capped at 10 qubits"):
            global_discord(_ghz_plus_mixture(11))

    @pytest.mark.parametrize("n", [11, 12])
    def test_x_states_past_the_dense_cap_match_the_analytic_value(self, n):
        for p0 in (0.0, 0.3, 0.5, 0.8):
            value, _ = global_discord(thermo_state(n, p0))
            assert value == pytest.approx(global_discord_thermo_analytic(n, p0), abs=1e-12)
