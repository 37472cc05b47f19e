"""Properties on generated inputs: the state families' X form, the batched
Shannon entropy, qubit-block reductions, the conditional-entropy kernel, the
Svetlichny polynomial, the bounds 0 <= D <= MI, classical >= 0 and global
discord >= 0 on permutation-invariant states, the X-state closed forms
against the dense paths they replace, the grid-then-golden angle search and
the canonical angle folds."""

import functools
import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symcorr.genuine import (
    THETA_TOL,
    _symmetric_discord,
    bipartite_discord,
    genuine_correlations,
)
from symcorr.global_discord import (
    RotationAngles,
    _shared_angle_min,
    dephase_in_rotated_basis,
    global_discord,
    rotation_matrix,
)
from symcorr.nonlocality import (
    SettingsTable,
    bounds,
    correlation,
    max_violation,
    svetlichny_expansion,
    svetlichny_value,
)
from symcorr.optim import THETA_GRID, THETA_STEP, fold_angles, grid_golden_min
from symcorr.qstate import (
    Cut,
    DensityMatrix,
    PureState,
    conditional_entropy,
    conditional_state,
    enumerate_cuts,
    mutual_information,
    partial_trace,
    permutation_unitary,
    product_basis,
    require_permutation_symmetric,
    shannon_entropy,
    von_neumann_entropy,
)
from symcorr.states import ghz_ad_closed, ghz_pd_closed, ghz_state, thermo_state
from symcorr.xstate import DenseSymmetric, x_form

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


def _reference_conditional_entropy(rho, measured, rows):
    """sum_i b_i S(rho_i) with explicit (<v_i| x I) projectors on the permuted state."""
    n, k = rho.n_qubits, len(measured)
    u = _to_front(n, measured)
    moved = u @ rho.data @ u.conj().T
    total = 0.0
    for v in rows:
        ket = np.kron(v[:, None], np.eye(2 ** (n - k)))
        m = ket.conj().T @ moved @ ket
        b = m.trace().real
        if b >= 1e-12:
            lam = np.clip(np.linalg.eigvalsh((m + m.conj().T) / (2.0 * b)), 0.0, 1.0)
            lam = lam[lam > 0.0]
            total += b * -np.sum(lam * np.log2(lam))
    return total


@PROPS
@given(case=state_and_block(), seed=seeds, data=st.data())
def test_conditional_entropy_matches_kron_reference(case, seed, data):
    rho, measured = case
    d = 2 ** len(measured)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    subset = data.draw(st.none() | st.sets(st.integers(0, d - 1)))
    rows = q if subset is None else q[sorted(subset)]  # a full unitary, or some of its rows
    cut = Cut.of(rho.n_qubits, measured)
    ce = conditional_entropy(rho, cut, rows)
    assert isinstance(ce, float)
    assert abs(ce - _reference_conditional_entropy(rho, measured, rows)) <= 1e-12
    # a (2, 3) stack of probe sets with the same rows of other unitaries: one value per set
    unitaries = [np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0] for _ in range(6)]
    stack = np.reshape([u if subset is None else u[sorted(subset)] for u in unitaries], (2, 3) + rows.shape)
    stacked = conditional_entropy(rho, cut, stack)
    assert stacked.shape == (2, 3)
    for index in np.ndindex(2, 3):
        assert abs(stacked[index] - conditional_entropy(rho, cut, stack[index])) <= 1e-12
        assert abs(stacked[index] - _reference_conditional_entropy(rho, measured, stack[index])) <= 1e-12


def test_conditional_entropy_edge_cases():
    rho = _random_state(2, np.random.default_rng(5))
    cut = Cut.of(2, {0})
    assert conditional_entropy(rho, cut, np.empty((0, 2))) == 0.0
    zero2 = PureState.basis_state(2, 0).to_density_matrix()  # |00><00|, measured on |1>
    assert conditional_entropy(zero2, cut, np.array([[0.0, 1.0]])) == 0.0
    with pytest.raises(ValueError, match="probe"):
        conditional_entropy(rho, cut, np.eye(4))
    with pytest.raises(ValueError, match="unit"):
        conditional_entropy(rho, cut, np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]))


def _permutation_average(n, rng):
    """A random state averaged over all n! qubit permutations."""
    data = _random_state(n, rng).data
    us = [permutation_unitary(n, p) for p in itertools.permutations(range(n))]
    return DensityMatrix(n, sum(u @ data @ u.T for u in us) / len(us))


def _ghz_dicke_plus_mixture(n, rng):
    """Random weights on GHZ, a random-excitation Dicke state and |+...+>."""
    weight = np.array([bin(i).count("1") for i in range(2**n)])
    ghz = (weight == 0) | (weight == n)
    kets = [ghz, weight == rng.integers(0, n + 1), np.ones(2**n)]
    kets = [k / np.linalg.norm(k) for k in np.array(kets, dtype=float)]
    data = sum(p * np.outer(k, k) for p, k in zip(rng.dirichlet(np.ones(3)), kets))
    return DensityMatrix(n, data)


@settings(database=None, derandomize=True, max_examples=15, deadline=None)
@given(n=st.integers(2, 4), seed=seeds, make=st.sampled_from([_permutation_average, _ghz_dicke_plus_mixture]))
def test_symmetric_state_bounds(n, seed, make):
    rho = make(n, np.random.default_rng(seed))
    for cut in enumerate_cuts(n, "symmetric"):
        for c in (cut, Cut(cut.remainder, cut.measured)):
            discord, _ = bipartite_discord(rho, c)
            assert 0.0 <= discord <= mutual_information(rho, c) + 1e-9
    assert genuine_correlations(rho).classical >= 0.0
    assert global_discord(rho)[0] >= 0.0


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


def _weights(n):
    return np.array([bin(i).count("1") for i in range(2**n)])


@st.composite
def x_states(draw, max_n=6):
    """A random X state: one population per excitation count, |c| <= sqrt(p_0 p_n), random phase."""
    n = draw(st.integers(2, max_n))
    raw = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=n + 1, max_size=n + 1)))
    weight = _weights(n)
    total = raw[weight].sum()
    assume(total > 1e-3)
    pops = raw / total
    corner = draw(st.floats(0.0, 1.0)) * math.sqrt(pops[0] * pops[n])
    corner *= np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    data = np.diag(pops[weight]).astype(complex)
    data[0, -1], data[-1, 0] = corner, np.conj(corner)
    return DensityMatrix(n, data)


def _dense_global_objective(rho, angles):
    """S(Pi(rho)) - S(rho) - n [S(Pi(rho_0)) - S(rho_0)] by the dense change of basis."""
    n = rho.n_qubits
    rho0 = partial_trace(rho, {0})
    theta, phi = angles.pairs[0]
    local = von_neumann_entropy(dephase_in_rotated_basis(rho0, RotationAngles.uniform(1, theta, phi)))
    glob = von_neumann_entropy(dephase_in_rotated_basis(rho, angles)) - von_neumann_entropy(rho)
    return glob - n * (local - von_neumann_entropy(rho0))


@PROPS
@given(rho=x_states(), theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi))
def test_x_closed_forms_match_dense_spectra(rho, theta, phi):
    n = rho.n_qubits
    x = x_form(rho)
    assert abs(x.entropy() - von_neumann_entropy(rho)) <= 1e-12
    for k in range(1, n):
        assert abs(x.block(k).entropy() - von_neumann_entropy(partial_trace(rho, range(k)))) <= 1e-12
    basis = functools.reduce(np.kron, [rotation_matrix(theta, phi)] * n)
    probs = (basis.conj() * (rho.data @ basis)).sum(axis=0).real  # diagonal in the rotated basis
    distribution = x.weight_distribution()(np.array([theta]), np.array([phi]))[0]
    assert np.abs(distribution[_weights(n)] - probs).max() <= 1e-12


@settings(database=None, derandomize=True, max_examples=25, deadline=None)
@given(rho=x_states())
def test_x_global_discord_matches_dense_path(rho):
    assert x_form(rho) is not None
    value, angles = global_discord(rho)
    dense, _, _ = _shared_angle_min(DenseSymmetric(rho), rho.n_qubits)
    assert abs(value - dense) <= 1e-10
    assert abs(value - _dense_global_objective(rho, angles)) <= 1e-12


@PROPS
@given(rho=x_states())
def test_x_bipartite_discord_matches_dense_kernel(rho):
    n = rho.n_qubits
    for k in range(1, n):
        cut = Cut.of(n, range(n - k, n))
        value, theta = bipartite_discord(rho, cut)
        ce = DenseSymmetric(rho).conditional_entropy(len(cut.measured))
        s_measured = von_neumann_entropy(partial_trace(rho, cut.measured))
        dense, _ = _symmetric_discord(s_measured, von_neumann_entropy(rho), ce)
        assert abs(value - dense) <= 1e-12
        assert 0.0 < theta <= math.pi / 2.0
        _, ce_min = grid_golden_min(lambda t: ce(t[0]), (THETA_GRID,), (THETA_STEP,), tol=THETA_TOL)
        assert abs(ce(theta) - ce_min) <= 1e-12


def _ghz_plus_mixture(n, eps):
    ghz = ghz_state(n, 1.0 / math.sqrt(2.0)).amplitudes
    plus = np.full(2**n, 2 ** (-n / 2))
    return DensityMatrix(n, (1.0 - eps) * np.outer(ghz, ghz.conj()) + eps * np.outer(plus, plus))


def _two_qubit_swap_coherence():
    data = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
    data[1, 2] = data[2, 1] = 0.1  # |01><10|: symmetric, but not in the X class
    return DensityMatrix(2, data)


@pytest.mark.parametrize("rho", [_ghz_plus_mixture(3, 1e-3), _two_qubit_swap_coherence()], ids=["ghz+plus", "swap"])
def test_symmetric_states_outside_x_class_take_dense_path(rho):
    assert x_form(rho) is None
    assert global_discord(rho)[0] == _shared_angle_min(DenseSymmetric(rho), rho.n_qubits)[0]
    n = rho.n_qubits
    cut = Cut.of(n, {n - 1})
    s_measured = von_neumann_entropy(partial_trace(rho, cut.measured))
    ce = DenseSymmetric(rho).conditional_entropy(len(cut.measured))
    dense = _symmetric_discord(s_measured, von_neumann_entropy(rho), ce)
    assert bipartite_discord(rho, cut) == dense


def test_uneven_populations_within_one_count_take_dense_path():
    rho = DensityMatrix(3, np.diag([0.3, 0.1, 0.2, 0.05, 0.15, 0.05, 0.05, 0.1]))
    assert x_form(rho) is None
    with pytest.raises(ValueError, match="general"):
        global_discord(rho)
    with pytest.raises(ValueError, match="general"):
        genuine_correlations(rho)


@pytest.mark.parametrize("module, measure", [
    ("symcorr.genuine", genuine_correlations),
    ("symcorr.global_discord", global_discord),
])
def test_each_measure_call_detects_the_class_once(monkeypatch, module, measure):
    calls = []

    def counted(rho):
        calls.append(rho)
        return x_form(rho)

    monkeypatch.setattr(importlib.import_module("symcorr.xstate"), "x_form", counted)
    measure(DensityMatrix(4, thermo_state(4, 0.3).data))  # built dense: a family state is never scanned
    assert len(calls) == 1


@PROPS
@given(n=st.integers(2, 8), p0=unit)
def test_genuine_and_global_discord_symmetric_under_p0_exchange(n, p0):
    a, b = thermo_state(n, p0), thermo_state(n, 1.0 - p0)
    assert abs(genuine_correlations(a).quantum - genuine_correlations(b).quantum) <= 1e-9
    assert abs(global_discord(a)[0] - global_discord(b)[0]) <= 1e-9


def _invariant_non_x_state(n, seed, kind):
    rho = (_permutation_average if kind == "average" else _ghz_dicke_plus_mixture)(n, np.random.default_rng(seed))
    assume(x_form(rho) is None)
    return rho


non_x_states = st.builds(
    _invariant_non_x_state, st.integers(2, 5), seeds, st.sampled_from(["average", "mixture"]))


@PROPS
@given(rho=st.one_of(x_states(max_n=5), non_x_states), seed=seeds, t=st.floats(0.0, 2.0 * math.pi))
def test_svetlichny_polynomial_is_a_sinusoid_in_each_setting_angle(rho, seed, t):
    """The premise of the coordinate search's exact step: along any one of the 2n angles the polynomial is
    c + a cos t + b sin t, with a, b and c read off its values at t = 0, pi/2 and pi."""
    n = rho.n_qubits
    table = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, 2 * n)

    def along(i, angle):
        x = table.copy()
        x[i] = angle
        return svetlichny_value(rho, SettingsTable(tuple(zip(x[0::2], x[1::2]))))

    for i in range(2 * n):
        f0, f1, f2 = (along(i, angle) for angle in (0.0, math.pi / 2.0, math.pi))
        a, c = (f0 - f2) / 2.0, (f0 + f2) / 2.0
        assert abs(along(i, t) - (c + a * math.cos(t) + (f1 - c) * math.sin(t))) <= 1e-12


@PROPS
@given(rho=st.one_of(x_states(max_n=8), non_x_states))
def test_svetlichny_violation_within_quantum_maximum(rho):
    value, settings = max_violation(rho)
    assert value <= bounds(rho.n_qubits).quantum_max + 1e-9
    assert abs(svetlichny_value(rho, settings) - value) <= 1e-12


@PROPS
@given(rho=non_x_states, theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi))
def test_dense_weight_distribution_matches_dense_change_of_basis(rho, theta, phi):
    n = rho.n_qubits
    basis = functools.reduce(np.kron, [rotation_matrix(theta, phi)] * n)
    probs = (basis.conj() * (rho.data @ basis)).sum(axis=0).real  # diagonal in the rotated basis
    distribution = DenseSymmetric(rho).weight_distribution()(np.array([theta]), np.array([phi]))[0]
    assert np.abs(distribution[_weights(n)] - probs).max() <= 1e-12


@settings(database=None, derandomize=True, max_examples=20, deadline=None)
@given(rho=st.one_of(x_states(), non_x_states))
def test_symmetric_cut_mutual_information_matches_dense(rho):
    for report in genuine_correlations(rho).per_cut:
        assert abs(report.mutual_info - mutual_information(rho, report.cut)) <= 1e-12


@PROPS
@given(rho=x_states(max_n=8))
def test_genuine_correlations_of_x_states_make_no_dense_eigensolve(rho):
    def refuse(self):
        raise AssertionError("dense eigensolve on an X state")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DensityMatrix, "eigenvalues", refuse)
        genuine_correlations(rho)


@PROPS
@given(n=st.integers(5, 8), p0=st.floats(0.0, 1.0))
def test_cut_side_ties_keep_the_enumerated_cut(n, p0):
    rho = thermo_state(n, p0)
    ties = 0
    for cut, report in zip(enumerate_cuts(n, "symmetric"), genuine_correlations(rho).per_cut):
        flipped = Cut(cut.remainder, cut.measured)
        if len(cut.measured) == len(flipped.measured):
            continue
        gap = bipartite_discord(rho, flipped)[0] - bipartite_discord(rho, cut)[0]
        ties += abs(gap) <= 1e-12
        assert report.cut == (flipped if gap < -1e-12 else cut)
    assume(ties)


def _full_antidiagonal_value(rho, table):
    """The Svetlichny polynomial as its weighted correlations, each summed over the whole antidiagonal."""
    n = rho.n_qubits
    return sum(
        float(w) * correlation(rho, [table.pairs[i][q[i] - 1] for i in range(n)])
        for q, w in svetlichny_expansion(n).coefficients.items()
    )


@PROPS
@given(rho=st.one_of(x_states(max_n=8), non_x_states), seed=seeds)
def test_svetlichny_value_matches_full_antidiagonal_sum(rho, seed):
    table = SettingsTable(tuple(map(tuple, np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (rho.n_qubits, 2)))))
    assert abs(svetlichny_value(rho, table) - _full_antidiagonal_value(rho, table)) <= 1e-12
    if x_form(rho) is not None:  # the closed form's self-check reads the same evaluator
        value, settings_ = max_violation(rho)
        assert abs(value - _full_antidiagonal_value(rho, settings_)) <= 1e-12


@PROPS
@given(n=st.integers(2, 8), seed=seeds)
def test_svetlichny_value_matches_full_antidiagonal_sum_on_general_states(n, seed):
    """The product form against the monomial expansion on states with no permutation symmetry."""
    rng = np.random.default_rng(seed)
    rho = _random_state(n, rng)
    table = SettingsTable(tuple(map(tuple, rng.uniform(0.0, 2.0 * math.pi, (n, 2)))))
    assert abs(svetlichny_value(rho, table) - _full_antidiagonal_value(rho, table)) <= 1e-12


@PROPS
@given(rho=st.one_of(x_states(), non_x_states), seed=seeds)
def test_conditional_entropy_over_theta_arrays_matches_scalar_calls(rho, seed):
    thetas = np.random.default_rng(seed).uniform(-math.pi, math.pi, (3, 5))
    views = [DenseSymmetric(rho)] + ([x_form(rho)] if x_form(rho) is not None else [])
    for view in views:
        for k in range(1, rho.n_qubits):
            ce = view.conditional_entropy(k)
            scalar = np.array([[ce(float(t)) for t in row] for row in thetas])
            assert np.abs(ce(thetas) - scalar).max() <= 1e-15


def test_dense_conditional_entropy_makes_one_kernel_call_per_angle_array(monkeypatch):
    """The dense view measures every angle of an array in one call of the kernel, a scalar angle too."""
    rho = _ghz_dicke_plus_mixture(4, np.random.default_rng(3))
    assert x_form(rho) is None
    calls = []

    def counting(*args):
        calls.append(args)
        return conditional_entropy(*args)

    monkeypatch.setattr("symcorr.xstate.conditional_entropy", counting)
    thetas = np.random.default_rng(4).uniform(-math.pi, math.pi, (3, 5))
    for k in range(1, 4):
        ce = DenseSymmetric(rho).conditional_entropy(k)
        for angles in (thetas, 0.3):
            calls.clear()
            assert np.shape(ce(angles)) == np.shape(angles)
            assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dense_distribution_over_a_4096_point_grid_is_its_value_point_by_point(n):
    """The dense weight scan slices a long angle array itself, and no slice changes a point's value."""
    rho = _ghz_dicke_plus_mixture(n, np.random.default_rng(n))
    assert x_form(rho) is None
    distribution = DenseSymmetric(rho).weight_distribution()
    thetas, phis = np.meshgrid(THETA_GRID, DenseSymmetric.phis, indexing="ij")
    batched = distribution(thetas, phis)
    assert batched.shape == (64, 64, n + 1)
    for i, j in itertools.product(range(64), range(64)):
        assert (batched[i, j] == distribution(thetas[i, j : j + 1], phis[i, j : j + 1])[0]).all()


def _unimodal_wave(u, r):
    """cos u + r cos 2u, r < 1/4: one minimum per period, r - 1 at u = pi."""
    return np.cos(u) + r * np.cos(2.0 * u)


@PROPS
@given(a=st.floats(0.1, 2.0), b=st.floats(0.0, 2.0 * math.pi), r=st.floats(0.0, 0.24), size=st.integers(3, 700))
def test_grid_golden_min_one_axis(a, b, r, size):
    sizes = []

    def fn(points):
        sizes.append(points.shape[1])
        return a * _unimodal_wave(points[0] - b, r)

    axis = np.linspace(0.0, 2.0 * math.pi, size, endpoint=False)
    (x,), value = grid_golden_min(fn, (axis,), (2.0 * math.pi / size,), tol=1e-7)
    assert sizes[0] == size and set(sizes[1:]) == {1}
    assert abs(value - a * (r - 1.0)) <= 1e-10
    assert abs(value - fn(np.array([[x]]))[0]) == 0.0


@PROPS
@given(a=st.floats(0.1, 2.0), c=st.floats(0.1, 2.0), coupling=st.floats(-0.1, 0.1),
       b=st.floats(0.0, 2.0 * math.pi), d=st.floats(0.0, 2.0 * math.pi), phi_steps=st.sampled_from([0, 1]))
def test_grid_golden_min_two_axes(a, c, coupling, b, d, phi_steps):
    """a cos u + c cos v + e sin u sin v, |e| <= min(a, c) / 10, has its minimum -a - c at u = v = pi.

    With a zero phi step the phi grid is exact (it holds the optimum) and phi is not refined."""
    e = coupling * min(a, c)
    sizes = []

    def fn(points):
        sizes.append(points.shape[1])
        u, v = points[0] - b, points[1] - d
        return a * np.cos(u) + c * np.cos(v) + e * np.sin(u) * np.sin(v)

    phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False) if phi_steps else np.array([d + math.pi, d])
    (x, y), value = grid_golden_min(fn, (THETA_GRID * 4.0, phis), (THETA_STEP * 4.0, phi_steps * math.pi / 32.0))
    assert sizes[0] == 64 * phis.size and set(sizes[1:]) == {1}
    assert abs(value - (-a - c)) <= 1e-10
    assert phi_steps or y == d + math.pi


def test_grid_golden_min_keeps_a_lower_grid_point():
    axis = np.linspace(0.0, 1.0, 11)

    def fn(points):  # smooth, but with a deep well on the grid point 0.3 that golden section cannot find
        return np.where(points[0] == axis[3], -5.0, (points[0] - 0.62) ** 2)

    assert grid_golden_min(fn, (axis,), (0.1,)) == ([axis[3]], -5.0)


def _dephased(rho, theta, phi):
    basis = functools.reduce(np.kron, [rotation_matrix(theta, phi)] * rho.n_qubits)
    probs = (basis.conj() * (rho.data @ basis)).sum(axis=0).real
    return (basis * probs) @ basis.conj().T


@PROPS
@given(n=st.integers(2, 4), seed=seeds, theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
       phi=st.floats(-4.0 * math.pi, 4.0 * math.pi))
@example(n=2, seed=0, theta=0.3, phi=-1.2e-16)  # the remainder of phi by pi rounds up to pi
def test_fold_angles_keeps_the_dephased_state(n, seed, theta, phi):
    assume(not 0.0 < theta % (math.pi / 2.0) <= 1e-6)  # fold_theta reads these as pi/2
    t, p = fold_angles(theta, phi)
    assert 0.0 < t <= math.pi / 2.0 and 0.0 <= p < math.pi and (p == 0.0 or t < math.pi / 2.0)
    rho = _random_state(n, np.random.default_rng(seed))
    assert np.abs(_dephased(rho, theta, phi) - _dephased(rho, t, p)).max() <= 1e-12


@settings(database=None, derandomize=True, max_examples=20, deadline=None)
@given(rho=st.one_of(x_states(), non_x_states))
def test_global_discord_reports_canonical_angles(rho):
    value, angles = global_discord(rho)
    theta, phi = angles.pairs[0]
    assert set(angles.pairs) == {(theta, phi)}
    assert 0.0 < theta <= math.pi / 2.0 and 0.0 <= phi < math.pi and (phi == 0.0 or theta < math.pi / 2.0)
    assert abs(value - _dense_global_objective(rho, angles)) <= 1e-12


@PROPS
@given(seed=seeds, count=st.integers(1, 5), cols=st.sampled_from([2, 1]),
       batch=st.lists(st.integers(1, 3), max_size=2), zeros=st.sampled_from([0.0, 0.3]))
def test_product_basis_is_the_kron_fold(seed, count, cols, batch, zeros):
    """Bit for bit `reduce(np.kron)` over the factor axis, at every batch index, exact zeros included."""
    rng = np.random.default_rng(seed)
    shape = (*batch, count, 2, cols)
    factors = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    factors[rng.random(shape) < zeros] = 0.0
    out = product_basis(factors)
    assert out.shape == (*batch, 2**count, cols**count)
    for index in np.ndindex(*batch):
        assert np.array_equal(out[index], functools.reduce(np.kron, factors[index]))


def _per_weight_fold(rho, thetas, phis):
    """The dense weight distribution as it was written before `product_basis`: a running vector from 1,
    multiplied by R|1> or R|0> qubit by qubit."""
    n = rho.n_qubits
    r = rotation_matrix(thetas, phis)[..., None, :, :]
    v = np.ones(r.shape[:-3] + (n + 1, 1), dtype=complex)
    for q in range(n):
        column = np.where((np.arange(n + 1) > q)[:, None], r[..., :, 1], r[..., :, 0])
        v = (v[..., :, None] * column[..., None, :]).reshape(v.shape[:-1] + (-1,))
    flat = v.reshape(-1, 2**n)
    return ((flat.conj() @ rho.data) * flat).sum(axis=-1).real.reshape(v.shape[:-1])


@PROPS
@given(rho=st.one_of(x_states(max_n=5), non_x_states), seed=seeds)
def test_dense_weight_distribution_is_the_per_weight_fold(rho, seed):
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (2, 3, 2))
    distribution = DenseSymmetric(rho).weight_distribution()(angles[..., 0], angles[..., 1])
    assert np.array_equal(distribution, _per_weight_fold(rho, angles[..., 0], angles[..., 1]))


@PROPS
@given(rho=st.one_of(x_states(max_n=5), non_x_states), seed=seeds)
def test_dephasing_is_the_kron_formula(rho, seed):
    """`dephase_in_rotated_basis` as it was written with `reduce(np.kron)` over per-qubit rotations."""
    rng = np.random.default_rng(seed)
    angles = RotationAngles(tuple(zip(rng.uniform(0.0, math.pi, rho.n_qubits),
                                      rng.uniform(0.0, 2.0 * math.pi, rho.n_qubits))))
    basis = functools.reduce(np.kron, [rotation_matrix(t, p) for t, p in angles.pairs])
    probs = (basis.conj() * (rho.data @ basis)).sum(axis=0).real
    out = (basis * probs) @ basis.conj().T
    assert np.array_equal(dephase_in_rotated_basis(rho, angles).data, (out + out.conj().T) / 2.0)
