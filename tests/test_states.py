"""State family constructors and symmetry machinery."""

import warnings

import numpy as np
import pytest

from symcorr.qstate import (
    DensityMatrix,
    QubitCapError,
    is_invariant_under,
    permutation_unitary,
    total_correlations,
)
from symcorr.states import ghz_ad_closed, ghz_pd_closed, ghz_state, symmetric_basis, thermo_state

SQ2 = 1 / np.sqrt(2)
FIG3B_ALPHA = np.sqrt(2 + np.sqrt(3)) / 2


def parity_phase(k):
    """Diagonal parity-phase symmetry of a k-qubit block: the 0-count parity
    times a per-|1> phase, exp(i pi / k) for odd k (with an overall sign that
    fixes |0...0> and |1...1>) and exp(2 i pi / k) for even k > 2; plain
    parity for k = 2."""
    ones = np.array([bin(i).count("1") for i in range(2**k)])
    parity = (-1.0) ** (k - ones)
    if k == 2:
        return np.diag(parity.astype(complex))
    if k % 2 == 1:
        return np.diag(-parity * np.exp(1j * np.pi * ones / k))
    return np.diag(parity * np.exp(2j * np.pi * ones / k))


class TestThermoState:
    def test_p0_one_is_pure_ghz_plus(self):
        for n in (2, 3, 5):
            rho = thermo_state(n, 1.0)
            ghz = ghz_state(n, SQ2).to_density_matrix()
            assert np.abs(rho.data - ghz.data).max() < 1e-12

    def test_p0_half_is_product(self):
        rho = thermo_state(3, 0.5)
        assert np.abs(rho.data - np.eye(8) / 8).max() < 1e-12
        assert total_correlations(rho) == pytest.approx(0.0, abs=1e-12)

    def test_trace_one_on_grid(self):
        for n in (2, 4, 6):
            for p0 in np.linspace(0, 1, 9):
                rho = thermo_state(n, p0)  # constructor enforces trace within 1e-10
                assert abs(rho.data.trace().real - 1.0) < 1e-13

    def test_local_unitary_exchanges_p0_p1(self):
        # the extremal coherence (p0^n - p1^n)/2 flips sign under p0 <-> p1,
        # so the exact relating unitary is the global bit flip times one Z
        n = 4
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        full = z @ x
        for _ in range(n - 1):
            full = np.kron(full, x)
        for p0 in (0.2, 0.7):
            lhs = full @ thermo_state(n, p0).data @ full.conj().T
            assert np.abs(lhs - thermo_state(n, 1 - p0).data).max() < 1e-14

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        rho = thermo_state(4, 0.7)
        for _ in range(3):
            assert is_invariant_under(rho, permutation_unitary(4, rng.permutation(4)))

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            thermo_state(1, 0.5)
        with pytest.raises(ValueError):
            thermo_state(3, 1.5)
        with pytest.raises(QubitCapError):
            thermo_state(99, 0.5)


class TestGhzFamilies:
    def test_standard_ghz(self):
        psi = ghz_state(3, SQ2)
        assert psi.amplitudes[0] == pytest.approx(SQ2)
        assert psi.amplitudes[-1] == pytest.approx(SQ2)
        assert np.abs(psi.amplitudes[1:-1]).max() == 0.0

    def test_alpha_zero_endpoint(self):
        psi = ghz_state(3, 0.0)
        assert psi.amplitudes[-1] == pytest.approx(1.0)

    def test_large_alpha_warns_in_every_ghz_family(self):
        """alpha1 above 1/sqrt(2), the Fig. 3b weight among them, is accepted by all three GHZ constructors
        with the same warning; 1/sqrt(2) itself is silent, and a weight outside [0, 1] is refused."""
        for make in (ghz_state, lambda n, a: ghz_ad_closed(n, a, 0.2), lambda n, a: ghz_pd_closed(n, a, 0.2)):
            with pytest.warns(UserWarning, match="relabeling"):
                make(2, FIG3B_ALPHA)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                make(2, SQ2)
            for outside in (-0.1, 1.1):
                with pytest.raises(ValueError, match=r"alpha1 must lie in \[0, 1\]"):
                    make(2, outside)

    @pytest.mark.parametrize("bad", [None, [0.3], 1 + 0j, True, False, np.bool_(True), "0.25", b"0.25"])
    def test_non_real_parameters_raise_value_error(self, bad):
        """Bools and strings too, although `float` reads them as 1, 0 and 0.25."""
        for make in (lambda: thermo_state(3, bad), lambda: ghz_state(3, bad), lambda: ghz_ad_closed(3, bad, 0.2),
                     lambda: ghz_ad_closed(3, 0.6, bad), lambda: ghz_pd_closed(3, bad, 0.2),
                     lambda: ghz_pd_closed(3, 0.6, bad)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got"):
                make()

    def test_numpy_floats_and_the_ints_0_and_1_pass(self):
        for p0 in (np.float64(0.3), np.float32(0.3), 0, 1):
            assert thermo_state(3, p0).data.tobytes() == thermo_state(3, float(p0)).data.tobytes()
            assert ghz_ad_closed(3, 0.6, p0).data.tobytes() == ghz_ad_closed(3, 0.6, float(p0)).data.tobytes()

    def test_ad_closed_endpoints(self):
        psi = ghz_state(3, 0.6)
        assert np.abs(ghz_ad_closed(3, 0.6, 0.0).data - psi.to_density_matrix().data).max() < 1e-12
        full_decay = ghz_ad_closed(3, 0.6, 1.0).data
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        assert np.abs(full_decay - expected).max() < 1e-12

    def test_pd_closed_endpoints_and_rank(self):
        psi = ghz_state(3, 0.6)
        assert np.abs(ghz_pd_closed(3, 0.6, 0.0).data - psi.to_density_matrix().data).max() < 1e-12
        diag = ghz_pd_closed(3, 0.6, 1.0).data
        assert np.abs(diag - np.diag(np.diag(diag))).max() < 1e-14
        for gamma in np.linspace(0, 1, 7):
            evals = np.sort(np.linalg.eigvalsh(ghz_pd_closed(4, 0.6, gamma).data))
            assert evals[-3] < 1e-10  # rank at most 2

    def test_noisy_states_permutation_invariant(self):
        rng = np.random.default_rng(9)
        for rho in (ghz_ad_closed(4, 0.6, 0.35), ghz_pd_closed(4, 0.6, 0.35)):
            for _ in range(3):
                assert is_invariant_under(rho, permutation_unitary(4, rng.permutation(4)))

    def test_rate_range_errors(self):
        with pytest.raises(ValueError):
            ghz_ad_closed(3, 0.6, 1.2)
        with pytest.raises(ValueError):
            ghz_pd_closed(3, 0.6, -0.1)


class TestSymmetricBasis:
    def test_bell_basis_at_pi_over_4(self):
        vecs = symmetric_basis(2, np.pi / 4)
        bell = np.array(
            [
                [1, 0, 0, 1],
                [-1, 0, 0, 1],
                [0, 1, 1, 0],
                [0, 1, -1, 0],
            ]
        ) / np.sqrt(2)
        # same projectors up to intra-sector phase freedom: match by overlap
        for b in bell:
            overlaps = np.abs(vecs @ b.conj())
            assert overlaps.max() > 1 - 1e-10

    def test_contains_w_states_for_k3(self):
        vecs = symmetric_basis(3, 0.3)
        w = np.zeros(8)
        w[[1, 2, 4]] = 1 / np.sqrt(3)
        wbar = np.zeros(8)
        wbar[[3, 5, 6]] = 1 / np.sqrt(3)
        for target in (w, wbar):
            assert np.abs(vecs @ target).max() > 1 - 1e-10

    def test_orthonormal_and_complete(self):
        rng = np.random.default_rng(13)
        for k in range(1, 7):  # 6 is the largest block at the 12-qubit cap
            theta = rng.uniform(0, np.pi / 2)
            vecs = symmetric_basis(k, theta)
            assert vecs.shape == (2**k, 2**k)
            assert not vecs.flags.writeable
            gram = vecs.conj() @ vecs.T
            assert np.abs(gram - np.eye(2**k)).max() < 1e-12


class TestSymmetryGenerators:
    def test_translation_leaves_thermo_invariant(self):
        rho = thermo_state(4, 0.7)
        t = permutation_unitary(4, [(i + 1) % 4 for i in range(4)])
        assert is_invariant_under(rho, t)

    def test_parity_phase_eigenvalue_on_extremes(self):
        p3 = parity_phase(3)
        e000 = np.zeros(8)
        e000[0] = 1.0
        assert np.abs(p3 @ e000 - e000).max() < 1e-12
        e111 = np.zeros(8)
        e111[-1] = 1.0
        assert np.abs(p3 @ e111 - e111).max() < 1e-12

    def test_parity_phase_eigenvalue_on_w(self):
        p3 = parity_phase(3)
        w = np.zeros(8, dtype=complex)
        w[[1, 2, 4]] = 1 / np.sqrt(3)
        expected = -np.exp(1j * np.pi / 3)
        assert np.abs(p3 @ w - expected * w).max() < 1e-12

    def test_parity_phase_leaves_states_invariant(self):
        for k in (2, 3, 4):
            p = parity_phase(k)
            rho = thermo_state(k + 1, 0.7)
            assert is_invariant_under(rho, p, qubits=list(range(k)))

    def test_basis_vectors_are_parity_phase_eigenvectors(self):
        rng = np.random.default_rng(17)
        for k in (2, 3, 4, 5):
            p = parity_phase(k)
            for probe in symmetric_basis(k, rng.uniform(0, np.pi / 2)):
                image = p @ probe
                phase = image @ probe.conj()
                assert np.abs(image - phase * probe).max() < 1e-10
