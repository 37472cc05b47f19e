"""Density-operator core: construction, reductions, entropies, measurement."""

import itertools

import numpy as np
import pytest
from scipy.linalg import logm

from bipartitions import every_bipartition
from symcorr.nonlocality import SettingsTable, correlation, max_violation, svetlichny_value
from symcorr.qstate import (
    EIGENVALUE_FLOOR,
    Cut,
    DensityMatrix,
    QubitCapError,
    basis_bits,
    clamp_nonneg,
    conditional_state,
    embed_operator,
    enumerate_cuts,
    is_invariant_under,
    mutual_information,
    partial_trace,
    permutation_unitary,
    require_permutation_symmetric,
    tensor,
    total_correlations,
    von_neumann_entropy,
)
from symcorr.states import ghz_ad_closed, ghz_state, symmetric_basis, thermo_state
from vectors import basis_vector, ghz_vector, pure


def random_density(rng, n):
    dim = 2**n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return DensityMatrix(n, m / m.trace())


def random_unitary(rng, dim):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def naive_partial_trace(data, n, keep):
    """Index-loop reduction, independent of the reshape-based implementation."""
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    out = np.zeros((dk, dk), dtype=complex)

    def assemble(kbits, tbits):
        idx = 0
        for pos, q in enumerate(keep):
            idx |= ((kbits >> (len(keep) - 1 - pos)) & 1) << (n - 1 - q)
        for pos, q in enumerate(traced):
            idx |= ((tbits >> (len(traced) - 1 - pos)) & 1) << (n - 1 - q)
        return idx

    for a in range(dk):
        for b in range(dk):
            for t in range(dt):
                out[a, b] += data[assemble(a, t), assemble(b, t)]
    return out


def bell_state():
    return pure(np.array([1, 0, 0, 1]) / np.sqrt(2))


def _non_psd_matrices():
    """Hermitian unit-trace matrices with a negative eigenvalue: diag(1.1, -0.1); the 3-qubit X matrix with
    |c|^2 > p_0 p_3; and 1.3 GHZ - 0.3 |+++><+++|, permutation invariant but not X."""
    x = np.diag([0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2]).astype(complex)
    x[0, -1] = x[-1, 0] = 0.35
    plus = np.full(8, 8**-0.5)
    ghz_minus_plus = 1.3 * ghz_state(3, 1.0 / np.sqrt(2.0)).data - 0.3 * np.outer(plus, plus)
    return {"diag": np.diag([1.1, -0.1]).astype(complex), "x": x, "ghz-minus-plus": ghz_minus_plus}


NON_PSD = _non_psd_matrices()


class TestTypes:
    def test_density_matrix_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.4, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, m)

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2))

    def test_each_state_is_solved_once(self, monkeypatch):
        """A dense state at construction, a `from_x` state on its first `eigenvalues` call; repeated
        measures solve nothing more, and the spectrum they share is read-only."""
        solves, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
        plus, ghz = np.full(8, 8**-0.5), ghz_vector(3, 2**-0.5)
        dense = DensityMatrix(3, 0.7 * np.outer(ghz, ghz.conj()) + 0.3 * np.outer(plus, plus))
        assert solves == [(8, 8)]
        settings = SettingsTable(((0.0, np.pi / 2.0),) * 3)
        for _ in range(3):
            von_neumann_entropy(dense)
            correlation(dense, [0.1, 0.2, 0.3])
            svetlichny_value(dense, settings)
            max_violation(dense)
        family = thermo_state(4, 0.3)
        assert solves == [(8, 8)] and "data" not in vars(family)
        spectrum = family.eigenvalues()
        assert family.eigenvalues() is spectrum and von_neumann_entropy(family) >= 0.0
        assert solves == [(8, 8), (16, 16)]
        for values in (dense.eigenvalues(), spectrum):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5

    def test_clamp_nonneg_at_the_slack_boundary(self):
        assert clamp_nonneg(0.25, "discord") == 0.25
        assert clamp_nonneg(EIGENVALUE_FLOOR, "discord") == 0.0
        with pytest.raises(ValueError, match="discord evaluated to .* below the numerical slack"):
            clamp_nonneg(np.nextafter(EIGENVALUE_FLOOR, -1.0), "discord")

    def test_qubit_cap(self):
        with pytest.raises(QubitCapError):  # the cap fires before the shape check, so no 2^13 matrix is needed
            DensityMatrix(13, np.eye(2) / 2)

    def test_the_cap_is_checked_before_the_matrix_is_allocated(self, monkeypatch):
        """`maximally_mixed(40)` raised numpy's "array is too big" and `tensor` of two 7-qubit states
        allocated 4 GB before the cap fired; with `np.eye` and `np.kron` refused, nothing is built."""
        seven = thermo_state(7, 0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("4^n matrix allocated before the qubit cap")

        monkeypatch.setattr(np, "eye", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        for n in (13, 40):
            with pytest.raises(QubitCapError):
                DensityMatrix.maximally_mixed(n)
        with pytest.raises(QubitCapError):
            tensor(seven, seven)
        assert "data" not in vars(seven)

    def test_a_bool_is_not_a_qubit_count(self):
        with pytest.raises(ValueError, match="qubit count must be an integer >= 1"):
            DensityMatrix(True, np.eye(2) / 2)

    def test_cut_validation(self):
        with pytest.raises(ValueError):
            Cut(frozenset({0}), frozenset({0, 1}))
        with pytest.raises(ValueError):
            Cut(frozenset(), frozenset({0}))
        with pytest.raises(ValueError):
            Cut(frozenset({0}), frozenset({2}))
        cut = Cut.of(3, {2})
        assert cut.remainder == frozenset({0, 1})

    def test_data_is_read_only(self):
        rho = DensityMatrix.maximally_mixed(1)
        with pytest.raises(ValueError):
            rho.data[0, 0] = 2.0

    def test_basis_bits_put_qubit_zero_first(self):
        for n in range(1, 7):
            expected = [[int(c) for c in np.binary_repr(i, n)] for i in range(2**n)]
            assert basis_bits(n).tolist() == expected


class TestTensorAndTrace:
    def test_tensor_identity_case(self):
        mixed = DensityMatrix.maximally_mixed(1)
        out = tensor(mixed, mixed)
        assert np.allclose(out.data, np.diag([0.25] * 4))

    def test_tensor_basis_product(self):
        zero = pure(basis_vector(1, 0))
        one = pure(basis_vector(1, 1))
        out = tensor(zero, one)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01> sits at index 1: qubit 0 is the high bit
        assert np.allclose(out.data, expected)

    def test_tensor_trace_multiplies(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, b = random_density(rng, 1), random_density(rng, 2)
            out = tensor(a, b)
            assert out.n_qubits == 3
            assert np.allclose(out.data, np.kron(a.data, b.data))
            assert abs(out.data.trace() - a.data.trace() * b.data.trace()) < 1e-12

    def test_partial_trace_bell(self):
        reduced = partial_trace(bell_state(), {0})
        assert np.abs(reduced.data - np.eye(2) / 2).max() < 1e-12

    def test_partial_trace_product_factorizes(self):
        rng = np.random.default_rng(11)
        a, b = random_density(rng, 1), random_density(rng, 1)
        assert np.abs(partial_trace(tensor(a, b), {0}).data - a.data).max() < 1e-12
        assert np.abs(partial_trace(tensor(a, b), {1}).data - b.data).max() < 1e-12

    def test_partial_trace_ghz_pair(self):
        rho = ghz_state(3, 1 / np.sqrt(2))
        reduced = partial_trace(rho, {0, 1})
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.abs(reduced.data - expected).max() < 1e-12

    def test_partial_trace_matches_naive(self):
        rng = np.random.default_rng(13)
        for keep in ({0}, {2}, {0, 2}, {1, 3}, {0, 1, 3}):
            rho = random_density(rng, 4)
            got = partial_trace(rho, keep).data
            want = naive_partial_trace(rho.data, 4, keep)
            assert np.abs(got - want).max() < 1e-12

    def test_partial_trace_composes(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 3)
        two_step = partial_trace(partial_trace(rho, {0, 1}), {0})
        one_step = partial_trace(rho, {0})
        assert np.abs(two_step.data - one_step.data).max() < 1e-12

    def test_partial_trace_errors(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            partial_trace(rho, set())
        with pytest.raises(ValueError):
            partial_trace(rho, {5})


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(1)) == pytest.approx(1.0)

    def test_pure_state_zero(self):
        rng = np.random.default_rng(19)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert von_neumann_entropy(pure(vec / np.linalg.norm(vec))) == pytest.approx(0.0, abs=1e-12)

    def test_three_quarters_mixture(self):
        rho = DensityMatrix(1, np.diag([0.75, 0.25]).astype(complex))
        expected = 0.75 * np.log2(4 / 3) + 0.25 * np.log2(4)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_matches_logm_oracle(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            rho = random_density(rng, n)
            oracle = -np.trace(rho.data @ logm(rho.data)).real / np.log(2)
            assert von_neumann_entropy(rho) == pytest.approx(oracle, abs=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            rho = random_density(rng, 3)
            u = random_unitary(rng, 8)
            rotated = DensityMatrix(3, u @ rho.data @ u.conj().T)
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9


class TestCorrelationQuantities:
    def test_total_correlations_product_pure(self):
        zero = pure(basis_vector(1, 0))
        rho = tensor(tensor(zero, zero), zero)
        assert total_correlations(rho) == pytest.approx(0.0, abs=1e-12)

    def test_total_correlations_ghz(self):
        for n in (2, 3, 4):
            rho = ghz_state(n, 1 / np.sqrt(2))
            assert total_correlations(rho) == pytest.approx(n, abs=1e-9)

    def test_total_correlations_thermo_half(self):
        assert total_correlations(thermo_state(4, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_total_correlations_needs_two_qubits(self):
        with pytest.raises(ValueError, match="qubit count must be an integer >= 2"):
            total_correlations(DensityMatrix.maximally_mixed(1))

    def test_mutual_information_product_zero(self):
        rng = np.random.default_rng(31)
        rho = tensor(random_density(rng, 1), random_density(rng, 2))
        assert mutual_information(rho, Cut.of(3, {0})) == pytest.approx(0.0, abs=1e-9)

    def test_mutual_information_ghz_two(self):
        rho = ghz_state(4, 1 / np.sqrt(2))
        for measured in ({0}, {1, 2}, {3}):
            assert mutual_information(rho, Cut.of(4, measured)) == pytest.approx(2.0, abs=1e-9)

    def test_mutual_information_symmetric_in_blocks(self):
        rng = np.random.default_rng(37)
        rho = random_density(rng, 3)
        cut = Cut.of(3, {1})
        flipped = Cut(cut.remainder, cut.measured)
        assert mutual_information(rho, cut) == pytest.approx(
            mutual_information(rho, flipped), abs=1e-12
        )

    def test_mutual_information_thermo_independent_eval(self):
        rho = thermo_state(3, 0.8)
        cut = Cut.of(3, {2})
        entropies = []
        for block in (sorted(cut.measured), sorted(cut.remainder), list(range(3))):
            reduced = naive_partial_trace(rho.data, 3, block)
            evals = np.clip(np.linalg.eigvalsh(reduced), 0, 1)
            nz = evals[evals > 0]
            entropies.append(float(-(nz * np.log2(nz)).sum()))
        expected = entropies[0] + entropies[1] - entropies[2]
        assert mutual_information(rho, cut) == pytest.approx(expected, abs=1e-10)

    def test_total_equals_mutual_information_for_two_qubits(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 2)
        assert total_correlations(rho) == pytest.approx(
            mutual_information(rho, Cut.of(2, {1})), abs=1e-12
        )


class TestConditionalState:
    def test_bell_probe(self):
        b, cond = conditional_state(bell_state(), Cut.of(2, {1}), basis_vector(1, 0))
        assert b == pytest.approx(0.5, abs=1e-12)
        assert np.abs(cond.data - np.diag([1.0, 0.0])).max() < 1e-12

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(43)
        a, b = random_density(rng, 1), random_density(rng, 1)
        rho = tensor(a, b)
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        probe = vec / np.linalg.norm(vec)
        prob, cond = conditional_state(rho, Cut.of(2, {0}), probe)
        expected = probe.conj() @ a.data @ probe
        assert prob == pytest.approx(expected.real, abs=1e-12)
        assert np.abs(cond.data - b.data).max() < 1e-10

    def test_probabilities_complete(self):
        rng = np.random.default_rng(47)
        rho = random_density(rng, 3)
        cut = Cut.of(3, {1, 2})
        for theta in rng.uniform(0, np.pi / 2, 3):
            total = 0.0
            for row in symmetric_basis(2, theta):
                prob, _ = conditional_state(rho, cut, row)
                total += prob
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("probe, match", [
        (np.array([1.0, 1.0]), "not unit vectors"),
        (np.array([np.nan, np.nan]), "not unit vectors"),
        (np.array([]), r"probe rows \(1, 0\) do not fit 1 measured qubits"),
        (basis_vector(2, 0), r"probe rows \(1, 4\) do not fit 1 measured qubits"),
        (np.array([[1.0, 0.0]]), r"probe must be one vector, got shape \(1, 2\)"),
    ], ids=["non-unit", "nan", "empty", "wrong-length", "2-d"])
    def test_probe_must_be_one_unit_vector_of_the_block(self, probe, match):
        with pytest.raises(ValueError, match=match):
            conditional_state(bell_state(), Cut.of(2, {1}), probe)

    def test_zero_probability_branch(self):
        zero2 = pure(basis_vector(2, 0))  # |00><00|
        prob, cond = conditional_state(zero2, Cut.of(2, {0}), basis_vector(1, 1))
        assert prob == 0.0 and cond is None


class TestSymmetryChecks:
    def test_identity_always_invariant(self):
        rng = np.random.default_rng(53)
        rho = random_density(rng, 2)
        assert is_invariant_under(rho, np.eye(4))

    def test_thermo_invariant_under_any_permutation(self):
        rng = np.random.default_rng(59)
        rho = thermo_state(4, 0.7)
        for _ in range(4):
            perm = rng.permutation(4)
            assert is_invariant_under(rho, permutation_unitary(4, perm))

    def test_single_bit_flip_breaks_invariance(self):
        rho = thermo_state(3, 0.8)
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        assert not is_invariant_under(rho, flip, qubits=[0])
        assert is_invariant_under(thermo_state(3, 0.5), flip, qubits=[0])

    def test_permutation_unitary_matches_the_bit_loop(self):
        for n in range(1, 6):
            for perm in itertools.permutations(range(n)):
                expected = np.zeros((2**n, 2**n))
                for src in range(2**n):
                    dst = sum(((src >> (n - 1 - i)) & 1) << (n - 1 - perm[i]) for i in range(n))
                    expected[dst, src] = 1.0
                assert np.array_equal(permutation_unitary(n, perm), expected), perm
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_unitary(3, [0, 0, 1])

    def test_non_unitary_rejected(self):
        rho = DensityMatrix.maximally_mixed(1)
        with pytest.raises(ValueError, match="unitary"):
            is_invariant_under(rho, np.array([[1, 0], [0, 2]]))

    def test_embed_operator_matches_kron(self):
        rng = np.random.default_rng(61)
        u = random_unitary(rng, 2)
        assert np.abs(embed_operator(u, [0], 2) - np.kron(u, np.eye(2))).max() < 1e-12
        assert np.abs(embed_operator(u, [1], 2) - np.kron(np.eye(2), u)).max() < 1e-12

    def test_embed_operator_nontrivial_order(self):
        rng = np.random.default_rng(67)
        u = random_unitary(rng, 4)
        # acting on (qubit 2, qubit 0) of three qubits, checked on basis states
        full = embed_operator(u, [2, 0], 3)
        assert np.abs(full @ full.conj().T - np.eye(8)).max() < 1e-12
        psi = np.zeros(8, dtype=complex)
        psi[0b011] = 1.0  # qubit order (0,1,2) = (0,1,1)
        out = full @ psi
        # u sees |q2 q0> = |10>, i.e. input index 2; qubit 1 stays |1>
        expected = np.zeros(8, dtype=complex)
        for s in range(4):
            amp = u[s, 2]
            q2, q0 = (s >> 1) & 1, s & 1
            expected[(q0 << 2) | (1 << 1) | q2] += amp
        assert np.abs(out - expected).max() < 1e-12


class TestConstructionRejectsBadInput:
    @pytest.mark.parametrize("kind", ["all-nan", "single-nan", "diagonal-inf"])
    def test_density_matrix_rejects_non_finite(self, kind):
        m = np.eye(4, dtype=complex) / 4
        if kind == "all-nan":
            m[:] = np.nan
        elif kind == "single-nan":
            m[1, 2] = np.nan
        else:
            m[0, 0] = np.inf
        with pytest.raises(ValueError):
            DensityMatrix(2, m)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="length 0"):
            DensityMatrix.from_matrix(np.zeros((0, 0)))

    def test_non_power_of_two_matrix_rejected(self):
        with pytest.raises(ValueError, match="length 3 is not a positive power of two"):
            DensityMatrix.from_matrix(np.eye(3) / 3)

    @pytest.mark.parametrize("name", sorted(NON_PSD))
    def test_a_non_psd_matrix_is_rejected_at_construction(self, name):
        """Every measure used to take these as states; the Svetlichny maxima read 0.990 and 1.741 on the
        two 3-qubit ones, whose antidiagonal cannot show the negative eigenvalue."""
        mat = NON_PSD[name]
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix(len(mat).bit_length() - 1, mat)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix.from_matrix(mat)


def _w_with_phases(n):
    """Single-excitation state sum_k w^k |e_k>, w = exp(2 pi i / n): cycle-invariant only."""
    vec = np.zeros(2**n, dtype=complex)
    for k in range(n):
        vec[1 << (n - 1 - k)] = np.exp(2j * np.pi * k / n) / np.sqrt(n)
    return pure(vec)


def _passes_symmetry_check(rho):
    try:
        require_permutation_symmetric(rho, "test")
    except ValueError:
        return False
    return True


class TestPermutationSymmetryCheck:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_unitary_conjugation(self, n):
        swap = permutation_unitary(n, [1, 0] + list(range(2, n)))
        cycle = permutation_unitary(n, [(i + 1) % n for i in range(n)])
        mixed = 0.6 * ghz_state(n, 0.6).data + 0.4 * thermo_state(n, 0.3).data
        cases = [
            (thermo_state(n, 0.8), True),
            (ghz_ad_closed(n, 0.6, 0.3), True),
            (DensityMatrix(n, mixed), True),
            # qubits 0 and 1 in |0>, the rest in |1>: swap-invariant, not cycle-invariant
            (pure(basis_vector(n, 2 ** (n - 2) - 1)), n == 2),
        ]
        if n >= 3:
            cases.append((_w_with_phases(n), False))  # cycle-invariant, not swap-invariant
        for rho, expected in cases:
            by_unitary = is_invariant_under(rho, swap) and is_invariant_under(rho, cycle)
            assert by_unitary == expected
            assert _passes_symmetry_check(rho) == expected

    def test_each_generator_is_checked(self):
        n = 4
        swap = permutation_unitary(n, [1, 0, 2, 3])
        cycle = permutation_unitary(n, [1, 2, 3, 0])
        only_cycle = _w_with_phases(n)
        only_swap = pure(basis_vector(n, 0b0011))
        assert is_invariant_under(only_cycle, cycle) and not is_invariant_under(only_cycle, swap)
        assert is_invariant_under(only_swap, swap) and not is_invariant_under(only_swap, cycle)

    def test_error_names_the_oracle(self):
        with pytest.raises(ValueError, match="symcorr.oracle"):
            require_permutation_symmetric(_w_with_phases(3), "test")

    def test_single_qubit_is_a_plain_value_error(self):
        with pytest.raises(ValueError, match="qubit count must be an integer >= 2") as info:
            require_permutation_symmetric(DensityMatrix.maximally_mixed(1), "test")
        assert type(info.value) is ValueError


class TestEnumerateCuts:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symmetric_one_cut_per_block_size(self, n):
        cuts = enumerate_cuts(n)
        assert [len(c.measured) for c in cuts] == list(range(1, n // 2 + 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_general_every_unordered_bipartition_once(self, n):
        cuts = every_bipartition(n)
        unordered = {frozenset((c.measured, c.remainder)) for c in cuts}
        assert len(unordered) == len(cuts) == 2 ** (n - 1) - 1
