"""Kraus channels: completeness, closed-form agreement, composition."""

import itertools

import numpy as np
import pytest

from symcorr.channels import (
    AMPLITUDE_DAMPING,
    PHASE_DAMPING,
    ChannelSpec,
    _apply_on_qubit,
    amplitude_damp,
    apply_local_channel,
    kraus_operators,
    phase_damp,
)
from symcorr.qstate import DensityMatrix
from symcorr.states import ghz_ad_closed, ghz_pd_closed, ghz_state, thermo_state


def random_density(rng, n):
    dim = 2**n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return DensityMatrix(n, m / m.trace())


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ChannelSpec("depolarizing", 0.5)
    with pytest.raises(ValueError, match="rate"):
        ChannelSpec(AMPLITUDE_DAMPING, 1.5)
    for bad in (None, [0.3], 1 + 0j, False, True, np.bool_(False), "0.3"):
        with pytest.raises(ValueError, match=r"rate must lie in \[0, 1\], got"):
            ChannelSpec(PHASE_DAMPING, bad)
    for rate in (np.float64(0.3), np.float32(0.3), 0, 1):
        assert ChannelSpec(PHASE_DAMPING, rate).rate == float(rate)


def test_kraus_completeness():
    for kind in (AMPLITUDE_DAMPING, PHASE_DAMPING):
        for rate in np.linspace(0, 1, 11):
            ks = kraus_operators(ChannelSpec(kind, rate))
            total = sum(k.conj().T @ k for k in ks)
            assert np.abs(total - np.eye(2)).max() < 1e-12


def test_full_amplitude_damping_relaxes_to_ground():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 3)
    out = amplitude_damp(rho, 1.0)
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.abs(out.data - expected).max() < 1e-12


def test_phase_damping_preserves_populations():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 3)
    for gamma in (0.2, 0.9):
        out = phase_damp(rho, gamma)
        assert np.abs(np.diag(out.data) - np.diag(rho.data)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_amplitude_damping_matches_closed_form(n):
    for lam in np.linspace(0, 1, 5):
        got = amplitude_damp(ghz_state(n, 0.55).to_density_matrix(), lam)
        want = ghz_ad_closed(n, 0.55, lam)
        assert np.abs(got.data - want.data).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phase_damping_matches_closed_form(n):
    for gamma in np.linspace(0, 1, 5):
        got = phase_damp(ghz_state(n, 0.55).to_density_matrix(), gamma)
        want = ghz_pd_closed(n, 0.55, gamma)
        assert np.abs(got.data - want.data).max() < 1e-12


def test_trace_and_positivity_preserved():
    rng = np.random.default_rng(7)
    for kind in (AMPLITUDE_DAMPING, PHASE_DAMPING):
        for _ in range(4):
            rho = random_density(rng, 3)
            out = apply_local_channel(rho, ChannelSpec(kind, rng.uniform(0, 1)))
            assert abs(out.data.trace().real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out.data).min() > -1e-12


def test_per_qubit_order_is_irrelevant():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 3)
    kraus = kraus_operators(ChannelSpec(AMPLITUDE_DAMPING, 0.37))
    for order in itertools.permutations(range(3)):
        data = np.array(rho.data)
        for q in order:
            data = _apply_on_qubit(data, 3, q, kraus)
        reference = apply_local_channel(rho, ChannelSpec(AMPLITUDE_DAMPING, 0.37))
        assert np.abs(data - reference.data).max() < 1e-12


def test_amplitude_damping_composition():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 1)
    for lam1, lam2 in ((0.2, 0.5), (0.7, 0.1)):
        two_step = amplitude_damp(amplitude_damp(rho, lam1), lam2)
        combined = 1.0 - (1.0 - lam1) * (1.0 - lam2)
        one_step = amplitude_damp(rho, combined)
        assert np.abs(two_step.data - one_step.data).max() < 1e-12


def test_thermo_state_stays_valid_under_noise():
    out = apply_local_channel(thermo_state(4, 0.8), ChannelSpec(PHASE_DAMPING, 0.6))
    assert out.n_qubits == 4  # constructor revalidates Hermiticity and trace


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_incomplete_kraus_set_raises_value_error():
    spec = ChannelSpec(AMPLITUDE_DAMPING, 0.5)
    object.__setattr__(spec, "rate", 1.5)  # bypass validation: sqrt(1 - rate) is NaN
    with pytest.raises(ValueError, match="complete"):
        kraus_operators(spec)
