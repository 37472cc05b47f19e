"""Brute-force validators: determinism, guards, and cross-route agreement."""

from functools import reduce

import numpy as np
import pytest
from scipy.optimize import minimize

from symcorr.channels import AMPLITUDE_DAMPING, PHASE_DAMPING, ChannelSpec, apply_local_channel
from symcorr.genuine import bipartite_discord
from symcorr.global_discord import global_discord_thermo_analytic
from symcorr.oracle import (
    OracleConfig,
    _givens_unitary,
    oracle_bipartite_discord,
    oracle_channel_dilation,
    oracle_global_discord,
    oracle_global_discord_full,
    oracle_lhv_bound,
)
from symcorr.qstate import (
    Cut,
    DensityMatrix,
    QubitCapError,
    partial_trace,
    rotation_matrix,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
)
from symcorr.states import ghz_ad_closed, ghz_pd_closed, ghz_state, thermo_state
from vectors import ghz_vector

FAST = OracleConfig(restarts=4, grid_density=16, seed=5)


def random_density(rng, n):
    dim = 2**n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return DensityMatrix(n, m / m.trace())


def test_config_guards():
    bad = [{"restarts": 1.5}, {"restarts": True}, {"grid_density": 16.0}, {"grid_density": False},
           {"seed": 1.5}, {"seed": -1}, {"seed": True}]
    for kwargs in bad:
        with pytest.raises(ValueError):
            OracleConfig(**kwargs)
    with pytest.raises(TypeError):
        OracleConfig(max_qubits=5)  # the cap is a constant, not a setting
    OracleConfig(restarts=np.int64(2), grid_density=np.int32(3), seed=np.int64(0))
    with pytest.raises(QubitCapError):
        oracle_bipartite_discord(thermo_state(5, 0.7), Cut.of(5, {4}), FAST)
    with pytest.raises(QubitCapError, match="capped at 4 qubits, got 5"):
        oracle_global_discord(thermo_state(5, 1.0), OracleConfig(restarts=1, grid_density=4, seed=1))


def test_givens_parametrization_is_unitary():
    rng = np.random.default_rng(3)
    for dim in (2, 4, 8):
        params = rng.uniform(0, 2 * np.pi, dim * (dim - 1))
        u = _givens_unitary(dim, params)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12


def test_bipartite_product_state_zero():
    rng = np.random.default_rng(7)
    rho = tensor(random_density(rng, 1), random_density(rng, 1))
    assert oracle_bipartite_discord(rho, Cut.of(2, {0}), FAST) == pytest.approx(0.0, abs=1e-7)


def test_bipartite_werner_mixture_positive():
    bell = ghz_state(2, 1 / np.sqrt(2))
    rho = DensityMatrix(2, 0.5 * bell.data + 0.5 * np.eye(4) / 4)
    assert oracle_bipartite_discord(rho, Cut.of(2, {1}), FAST) > 1e-3


def test_bipartite_brackets_symmetric_mode():
    rho = thermo_state(3, 0.35)
    for measured in ({2}, {0, 1}):
        cut = Cut.of(3, measured)
        sym, _ = bipartite_discord(rho, cut)
        brute = oracle_bipartite_discord(rho, cut, FAST)
        assert brute <= sym + 1e-9
        assert brute >= sym - 2e-3


def test_global_matches_analytic_and_symmetric():
    rho = thermo_state(3, 0.8)
    value = oracle_global_discord(rho, FAST)
    assert value == pytest.approx(global_discord_thermo_analytic(3, 0.8), abs=2e-3)


def test_global_product_state_zero():
    rng = np.random.default_rng(11)
    rho = tensor(random_density(rng, 1), random_density(rng, 1))
    assert oracle_global_discord(rho, FAST) == pytest.approx(0.0, abs=1e-6)


def test_deterministic_given_seed():
    rho = thermo_state(3, 0.6)
    cut = Cut.of(3, {2})
    a = oracle_bipartite_discord(rho, cut, FAST)
    b = oracle_bipartite_discord(rho, cut, FAST)
    assert a == b
    other = oracle_bipartite_discord(rho, cut, OracleConfig(restarts=4, grid_density=16, seed=99))
    assert a == pytest.approx(other, abs=1e-6)


def test_global_angles_wrap_tiny_negative_results_to_zero(monkeypatch):
    # a Powell result of -1e-17 wraps to the period itself in floats, outside RotationAngles' ranges
    monkeypatch.setattr("symcorr.oracle._multistart_min", lambda objective, dim, config: (0.25, np.full(dim, -1e-17)))
    value, angles = oracle_global_discord_full(thermo_state(3, 0.8), FAST)
    assert value == 0.25
    assert angles.pairs == ((0.0, 0.0),) * 3


def _kron_objective(rho):
    """The full-angle global objective written per qubit, with the basis built by `reduce(np.kron, rots)`."""
    n = rho.n_qubits
    s_rho = von_neumann_entropy(rho)
    reduced = [partial_trace(rho, {j}) for j in range(n)]
    s_reduced = [von_neumann_entropy(r) for r in reduced]

    def objective(params):
        rots = rotation_matrix(params[:n], params[n:])
        pairs = [(rho.data, reduce(np.kron, rots))] + [(r.data, u) for r, u in zip(reduced, rots)]
        ent = [shannon_entropy(np.diag(b.conj().T @ d @ b).real) for d, b in pairs]
        return (ent[0] - s_rho) - sum(e - s for e, s in zip(ent[1:], s_reduced))

    return objective


def _ghz_plus(n, weight):
    ghz = ghz_vector(n, 1 / np.sqrt(2))
    plus = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    return DensityMatrix(n, weight * np.outer(ghz, ghz.conj()) + (1 - weight) * np.outer(plus, plus))


@pytest.mark.parametrize(
    "make",
    [
        lambda: thermo_state(2, 0.8),
        lambda: random_density(np.random.default_rng(29), 2),
        lambda: ghz_pd_closed(3, 1 / np.sqrt(2), 0.4),
        lambda: _ghz_plus(3, 0.6),
        lambda: ghz_ad_closed(4, 1 / np.sqrt(2), 0.3),
        lambda: tensor(random_density(np.random.default_rng(31), 3), DensityMatrix(1, np.diag([1.0, 0.0]))),
    ],
    ids=["thermo n=2", "random n=2", "ghz_pd n=3", "ghz+plus n=3", "ghz_ad n=4", "random x pure n=4"],
)
def test_global_objective_is_bit_identical_to_the_kron_form(monkeypatch, make):
    # bit-identical objectives keep every Powell step, and so every oracle value and angle, unchanged
    rho = make()
    n = rho.n_qubits
    seen = []

    def recording(objective, x0, **kwargs):
        seen.append(objective)
        return minimize(objective, x0, **kwargs)

    monkeypatch.setattr("symcorr.oracle.minimize", recording)
    oracle_global_discord_full(rho, OracleConfig(restarts=1, grid_density=1, seed=3))
    (objective,) = seen
    want = _kron_objective(rho)
    rng = np.random.default_rng(37)
    # theta = 0 on some qubits leaves exact zero probabilities in the dephased diagonals
    thetas = 0.5 * np.pi * rng.integers(0, 2, (200, n))
    quarter_turns = np.concatenate([thetas, rng.uniform(0, 2 * np.pi, (200, n))], 1)
    points = np.concatenate([rng.uniform(0, 2 * np.pi, (1000, 2 * n)), quarter_turns])
    assert sum(objective(x) != want(x) for x in points) == 0


class TestChannelDilation:
    def test_identity_at_rate_zero(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 2)
        for kind in (AMPLITUDE_DAMPING, PHASE_DAMPING):
            out = oracle_channel_dilation(rho, ChannelSpec(kind, 0.0))
            assert np.abs(out.data - rho.data).max() < 1e-12

    def test_matches_kraus_route(self):
        rng = np.random.default_rng(17)
        for kind in (AMPLITUDE_DAMPING, PHASE_DAMPING):
            for rate in (0.25, 0.8):
                rho = random_density(rng, 3)
                spec = ChannelSpec(kind, rate)
                kraus = apply_local_channel(rho, spec)
                dilated = oracle_channel_dilation(rho, spec)
                assert np.abs(kraus.data - dilated.data).max() < 1e-12

    def test_phase_damping_preserves_populations(self):
        rng = np.random.default_rng(19)
        rho = random_density(rng, 2)
        out = oracle_channel_dilation(rho, ChannelSpec(PHASE_DAMPING, 0.6))
        assert np.abs(np.diag(out.data) - np.diag(rho.data)).max() < 1e-12


class TestLhvBound:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bound_is_exactly_one(self, n):
        assert oracle_lhv_bound(n) == 1.0

    def test_large_n_gated(self):
        """The 4^5 strategies take milliseconds, so n = 5 needs no flag; n = 6 is refused."""
        assert oracle_lhv_bound(5) == 1.0
        with pytest.raises(QubitCapError):
            oracle_lhv_bound(6)
