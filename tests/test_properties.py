"""Properties on generated inputs: the state families' X form, the batched
Shannon entropy, qubit-block reductions and the Svetlichny polynomial."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symcorr.nonlocality import SettingsTable, correlation, svetlichny_expansion, svetlichny_value
from symcorr.qstate import (
    Cut,
    DensityMatrix,
    PureState,
    conditional_state,
    partial_trace,
    permutation_unitary,
    require_permutation_symmetric,
    shannon_entropy,
)
from symcorr.states import ghz_ad_closed, ghz_pd_closed, thermo_state

PROPS = settings(database=None, derandomize=True, max_examples=40, deadline=None)

unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
alpha = st.floats(0.0, 1.0 / math.sqrt(2.0))
seeds = st.integers(0, 2**32 - 1)


def _thermo(n, p0):
    p1 = 1.0 - p0
    top = (p0**n + p1**n) / 2.0
    # intermediate levels: p0^j p1^(n-j) with j qubits in |0>, i.e. n - w
    pops = {w: p0 ** (n - w) * p1**w for w in range(1, n)}
    pops[0] = pops[n] = top
    return thermo_state(n, p0), pops, (p0**n - p1**n) / 2.0


def _ghz_ad(n, alpha1, lam):
    a2 = 1.0 - alpha1**2
    pops = {w: a2 * (1.0 - lam) ** w * lam ** (n - w) for w in range(1, n)}
    pops[0] = alpha1**2 + a2 * lam**n
    pops[n] = a2 * (1.0 - lam) ** n
    return ghz_ad_closed(n, alpha1, lam), pops, alpha1 * math.sqrt(a2) * (1.0 - lam) ** (n / 2.0)


def _ghz_pd(n, alpha1, gamma):
    a2 = 1.0 - alpha1**2
    pops = {w: 0.0 for w in range(1, n)}
    pops[0], pops[n] = alpha1**2, a2
    return ghz_pd_closed(n, alpha1, gamma), pops, alpha1 * math.sqrt(a2) * (1.0 - gamma) ** (n / 2.0)


def _check_x_form(rho, pops, coherence):
    """Diagonal by excitation count plus the corner, unit trace, permutation invariant."""
    m = rho.data
    expected = np.array([pops[bin(i).count("1")] for i in range(rho.dim)])
    np.testing.assert_allclose(np.diag(m).real, expected, rtol=1e-12, atol=1e-15)
    assert np.all(np.diag(m).imag == 0.0)
    off = m - np.diag(np.diag(m))
    assert off[0, -1] == off[-1, 0]
    assert off[0, -1].imag == 0.0 and off[0, -1].real == pytest.approx(coherence, rel=1e-12, abs=1e-15)
    off[0, -1] = off[-1, 0] = 0.0
    assert not off.any()
    assert abs(m.trace() - 1.0) <= 1e-12
    require_permutation_symmetric(rho, "property test")


@PROPS
@given(n=st.integers(2, 7), p0=unit)
def test_thermo_state_is_x_form(n, p0):
    _check_x_form(*_thermo(n, p0))


@PROPS
@given(n=st.integers(2, 7), alpha1=alpha, lam=unit)
def test_ghz_ad_closed_is_x_form(n, alpha1, lam):
    _check_x_form(*_ghz_ad(n, alpha1, lam))


@PROPS
@given(n=st.integers(2, 7), alpha1=alpha, gamma=unit)
def test_ghz_pd_closed_is_x_form(n, alpha1, gamma):
    _check_x_form(*_ghz_pd(n, alpha1, gamma))


@PROPS
@given(n=st.integers(2, 7), p0=unit)
def test_thermo_p0_exchange_is_bit_flip_then_one_z(n, p0):
    # reversing the index order is the global bit flip; it keeps the corner,
    # whereas p0 <-> 1 - p0 flips its sign, which one Z on any qubit restores
    flipped = thermo_state(n, p0).data[::-1, ::-1].copy()
    flipped[0, -1] *= -1.0
    flipped[-1, 0] *= -1.0
    assert np.abs(flipped - thermo_state(n, 1.0 - p0).data).max() <= 1e-12


@PROPS
@given(
    rows=arrays(
        float,
        st.tuples(st.integers(1, 6), st.integers(1, 16)),
        elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
)
def test_batched_shannon_entropy_matches_scalar_rows(rows):
    sums = rows.sum(axis=1, keepdims=True)
    probs = np.where(sums > 0.0, rows / np.where(sums > 0.0, sums, 1.0), rows)
    batched = shannon_entropy(probs)
    assert batched.shape == (probs.shape[0],)
    for row, h in zip(probs, batched):
        scalar = shannon_entropy(row)
        assert isinstance(scalar, float)
        assert abs(h - scalar) <= 1e-15


@PROPS
@given(seed=seeds, shape=st.tuples(st.integers(1, 6), st.integers(1, 16)))
def test_batched_shannon_entropy_rejects_row_below_floor(seed, shape):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(shape[1]), size=shape[0])
    probs[rng.integers(shape[0]), rng.integers(shape[1])] = -1e-8
    with pytest.raises(ValueError, match="below"):
        shannon_entropy(probs)


def _random_state(n, rng):
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = g @ g.conj().T
    return DensityMatrix(n, m / m.trace().real)


@st.composite
def state_and_block(draw, max_n=5):
    """A random (non-symmetric) state and a proper nonempty qubit subset."""
    n = draw(st.integers(2, max_n))
    block = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return _random_state(n, np.random.default_rng(draw(seeds))), sorted(block)


def _to_front(n, block):
    """Permutation unitary putting `block` first and the rest after, orders kept."""
    order = block + [q for q in range(n) if q not in block]
    perm = [0] * n
    for pos, q in enumerate(order):
        perm[q] = pos
    return permutation_unitary(n, perm)


@PROPS
@given(case=state_and_block())
def test_partial_trace_matches_permuted_kron_reference(case):
    rho, keep = case
    n = rho.n_qubits
    u = _to_front(n, keep)
    moved = u @ rho.data @ u.conj().T
    d_rest = 2 ** (n - len(keep))
    ref = 0.0
    for j in range(d_rest):
        bra = np.kron(np.eye(2 ** len(keep)), np.eye(d_rest)[j][None, :])
        ref = ref + bra @ moved @ bra.T
    assert np.abs(partial_trace(rho, keep).data - ref).max() <= 1e-12


@PROPS
@given(case=state_and_block(), probe_seed=seeds)
def test_conditional_state_matches_permuted_kron_reference(case, probe_seed):
    rho, measured = case
    n, k = rho.n_qubits, len(measured)
    rng = np.random.default_rng(probe_seed)
    v = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
    probe = PureState(k, v / np.linalg.norm(v))
    u = _to_front(n, measured)
    ket = np.kron(probe.amplitudes[:, None], np.eye(2 ** (n - k)))
    m = ket.conj().T @ (u @ rho.data @ u.conj().T) @ ket
    b_ref = m.trace().real
    assume(b_ref > 1e-6)
    b, cond = conditional_state(rho, Cut.of(n, measured), probe)
    assert abs(b - b_ref) <= 1e-12
    assert np.abs(cond.data - m / b_ref).max() <= 1e-12


@PROPS
@given(n=st.integers(2, 6), seed=seeds)
def test_svetlichny_value_is_weighted_sum_of_correlations(n, seed):
    rng = np.random.default_rng(seed)
    rho = _random_state(n, rng)
    table = SettingsTable(tuple(map(tuple, rng.uniform(0.0, 2.0 * math.pi, (n, 2)))))
    expected = sum(
        float(w) * correlation(rho, [table.pairs[i][q[i] - 1] for i in range(n)])
        for q, w in svetlichny_expansion(n).coefficients.items()
    )
    assert abs(svetlichny_value(rho, table) - expected) <= 1e-12
