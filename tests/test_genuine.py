"""Genuine correlation measures and the rank-2 purification shortcut."""

import numpy as np
import pytest

from bipartitions import every_bipartition
from symcorr.genuine import (
    bipartite_discord,
    entanglement_of_formation,
    genuine_correlations,
    koashi_winter_discord,
    wootters_concurrence,
)
from symcorr.oracle import OracleConfig, oracle_bipartite_discord
from symcorr.qstate import (
    Cut,
    DensityMatrix,
    mutual_information,
    partial_trace,
    tensor,
    von_neumann_entropy,
)
from symcorr.states import ghz_ad_closed, ghz_pd_closed, ghz_state, symmetric_basis, thermo_state
from vectors import basis_vector, pure

SQ2 = 1 / np.sqrt(2)
FAST_ORACLE = OracleConfig(restarts=4, grid_density=16, seed=3)


def oracle_genuine_discord(rho, config):
    """Genuine discord by brute force: the oracle's discord across every bipartition, measured from either
    side, minimized."""
    return min(oracle_bipartite_discord(rho, c, config)
               for cut in every_bipartition(rho.n_qubits) for c in (cut, Cut(cut.remainder, cut.measured)))


def manual_conditional_entropy(rho, measured, theta):
    """From-scratch evaluation over the single-angle basis, no library reuse."""
    n = rho.n_qubits
    k = len(measured)
    rest = [q for q in range(n) if q not in measured]
    probes = symmetric_basis(k, theta)
    t = rho.data.reshape((2,) * (2 * n))
    total = 0.0
    for vec in probes:
        block = np.zeros((2 ** len(rest), 2 ** len(rest)), dtype=complex)
        for a in range(2 ** len(rest)):
            for b in range(2 ** len(rest)):
                for ma in range(2**k):
                    for mb in range(2**k):
                        row = [0] * n
                        col = [0] * n
                        for pos, q in enumerate(sorted(measured)):
                            row[q] = (ma >> (k - 1 - pos)) & 1
                            col[q] = (mb >> (k - 1 - pos)) & 1
                        for pos, q in enumerate(rest):
                            row[q] = (a >> (len(rest) - 1 - pos)) & 1
                            col[q] = (b >> (len(rest) - 1 - pos)) & 1
                        block[a, b] += (
                            np.conj(vec[ma]) * vec[mb] * t[tuple(row) + tuple(col)]
                        )
        prob = block.trace().real
        if prob > 1e-12:
            evals = np.clip(np.linalg.eigvalsh(block / prob), 0, 1)
            nz = evals[evals > 0]
            total += prob * float(-(nz * np.log2(nz)).sum())
    return total


class TestBipartiteDiscord:
    def test_pure_ghz_any_cut_is_one(self):
        rho = ghz_state(3, SQ2)
        for measured in ({2}, {1, 2}, {0}):
            d, theta = bipartite_discord(rho, Cut.of(3, measured))
            assert d == pytest.approx(1.0, abs=1e-9)

    def test_thermo_optimal_theta_is_pi_over_4(self):
        # the pi/4 optimum holds for the discord-minimizing measurement at
        # every tested p0: the 2-block at n=3 and the 3-block at n=4
        for n, measured in ((3, {1, 2}), (4, {1, 2, 3})):
            for p0 in (0.2, 0.35, 0.8):
                _, theta = bipartite_discord(thermo_state(n, p0), Cut.of(n, measured))
                assert theta == pytest.approx(np.pi / 4, abs=1e-3)

    def test_thermo_two_block_optimum_leaves_pi_over_4_at_extreme_p0(self):
        # outside a window around p0 = 1/2 the 2-block family of a 4-qubit
        # state is minimized by the computational basis; the brute-force
        # oracle confirms the lower value
        rho = thermo_state(4, 0.8)
        cut = Cut.of(4, {2, 3})
        d, theta = bipartite_discord(rho, cut)
        assert min(abs(theta - 0.0), abs(theta - np.pi / 2)) < 1e-3
        brute = oracle_bipartite_discord(rho, cut, FAST_ORACLE)
        assert d == pytest.approx(brute, abs=2e-3)

    def test_symmetric_matches_brute_force_oracle(self):
        rho = thermo_state(3, 0.8)
        for measured in ({2}, {0, 1}):
            cut = Cut.of(3, measured)
            sym, _ = bipartite_discord(rho, cut)
            brute = oracle_bipartite_discord(rho, cut, FAST_ORACLE)
            assert sym == pytest.approx(brute, abs=2e-3)
            assert sym >= brute - 1e-9

    def test_symmetric_mode_rejects_asymmetric_states(self):
        rng = np.random.default_rng(21)
        a = rng.dirichlet(np.ones(2))
        rho = tensor(
            DensityMatrix(1, np.diag(a).astype(complex)),
            DensityMatrix.maximally_mixed(1),
        )
        with pytest.raises(ValueError, match="symcorr.oracle"):
            bipartite_discord(rho, Cut.of(2, {1}))

    def test_the_named_oracle_takes_the_rejected_state(self):
        """A diagonal state times the maximally mixed qubit is classical, so its discord is zero."""
        a = np.random.default_rng(21).dirichlet(np.ones(2))
        rho = tensor(DensityMatrix(1, np.diag(a).astype(complex)), DensityMatrix.maximally_mixed(1))
        assert oracle_bipartite_discord(rho, Cut.of(2, {1}), FAST_ORACLE) == pytest.approx(0.0, abs=1e-6)

    def test_conditional_entropy_period_and_reflection(self):
        ce_pts = {}
        rho = thermo_state(3, 0.75)
        cut = Cut.of(3, {1, 2})
        from symcorr.xstate import DenseSymmetric

        ce = DenseSymmetric(rho).conditional_entropy(len(cut.measured))
        grid = np.linspace(0, np.pi / 2, 9)
        for theta in grid:
            ce_pts[theta] = ce(theta)
            assert ce(theta + np.pi) == pytest.approx(ce_pts[theta], abs=1e-10)
        for theta in grid:
            assert ce(np.pi / 2 - theta) == pytest.approx(ce_pts[theta], abs=1e-10)


class TestGenuineCorrelations:
    def test_needs_two_qubits(self):
        with pytest.raises(ValueError, match="qubit count must be an integer >= 2"):
            genuine_correlations(DensityMatrix.maximally_mixed(1))

    def test_thermo_half_all_zero(self):
        rep = genuine_correlations(thermo_state(3, 0.5))
        assert rep.total == pytest.approx(0.0, abs=1e-9)
        assert rep.quantum == pytest.approx(0.0, abs=1e-9)
        assert rep.classical == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pure_ghz_baselines(self, n):
        rep = genuine_correlations(ghz_state(n, SQ2))
        assert rep.total == pytest.approx(2.0, abs=1e-9)
        assert rep.quantum == pytest.approx(1.0, abs=1e-9)
        assert rep.classical == pytest.approx(1.0, abs=1e-9)

    def test_thermo_from_scratch_recomputation(self):
        rho = thermo_state(3, 0.8)
        rep = genuine_correlations(rho)
        # independent route: entropies by eigendecomposition, conditional
        # entropy by the explicit basis loop, theta by dense scan
        s_all = von_neumann_entropy(rho)
        results = {}
        for measured in ({2}, {0, 1}):
            s_meas = von_neumann_entropy(partial_trace(rho, measured))
            thetas = np.linspace(0, np.pi / 2, 201)
            ce = min(manual_conditional_entropy(rho, measured, t) for t in thetas)
            results[frozenset(measured)] = s_meas - s_all + ce
        expected_d = min(results.values())
        assert rep.quantum == pytest.approx(expected_d, abs=1e-5)
        mi = mutual_information(rho, Cut.of(3, {2}))
        assert rep.total == pytest.approx(mi, abs=1e-12)
        assert rep.classical == pytest.approx(mi - expected_d, abs=1e-5)

    def test_cut_report_identities(self):
        for rho in (thermo_state(4, 0.3), ghz_pd_closed(4, 0.6, 0.4)):
            rep = genuine_correlations(rho)
            for cr in rep.per_cut:
                assert cr.discord + cr.classical == pytest.approx(cr.mutual_info, abs=1e-9)
                assert -1e-9 <= cr.discord <= cr.mutual_info + 1e-9
                assert 0.0 < cr.optimal_theta <= np.pi / 2  # canonical: 0 reads as pi/2

    def test_same_size_cuts_agree(self):
        rho = thermo_state(4, 0.8)
        contiguous = Cut.of(4, {2, 3})
        scattered = Cut.of(4, {0, 2})
        assert mutual_information(rho, contiguous) == pytest.approx(
            mutual_information(rho, scattered), abs=1e-9
        )
        d1, _ = bipartite_discord(rho, contiguous)
        d2, _ = bipartite_discord(rho, scattered)
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_p0_reflection_symmetry(self):
        for p0 in (0.2, 0.35):
            a = genuine_correlations(thermo_state(3, p0))
            b = genuine_correlations(thermo_state(3, 1 - p0))
            assert a.quantum == pytest.approx(b.quantum, abs=1e-9)
            assert a.total == pytest.approx(b.total, abs=1e-9)

    def test_rejects_asymmetric_states(self):
        rng = np.random.default_rng(33)
        diag = rng.dirichlet(np.ones(8))
        rho = DensityMatrix(3, np.diag(diag).astype(complex))
        with pytest.raises(ValueError, match="symcorr.oracle"):
            genuine_correlations(rho)

    def test_the_named_oracle_takes_the_rejected_state(self):
        """A diagonal state is classical across every cut, so its genuine discord is zero."""
        diag = np.random.default_rng(33).dirichlet(np.ones(8))
        rho = DensityMatrix(3, np.diag(diag).astype(complex))
        assert oracle_genuine_discord(rho, FAST_ORACLE) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize(
        "make",
        [lambda: thermo_state(3, 0.8), lambda: ghz_pd_closed(3, 0.6, 0.4), lambda: ghz_ad_closed(3, 0.6, 0.3)],
        ids=["thermo", "ghz_pd", "ghz_ad"],
    )
    def test_one_cut_per_block_size_matches_the_oracle_over_every_bipartition(self, make):
        """Permutation invariance lets the symmetric path visit one cut per block size and one basis angle;
        the oracle searches general bases across all 2^(n-1) - 1 cuts, from both sides."""
        rho = make()
        sym = genuine_correlations(rho).quantum
        brute = oracle_genuine_discord(rho, FAST_ORACLE)
        assert sym == pytest.approx(brute, abs=2e-3)
        assert sym >= brute - 1e-9


class TestEntanglementHelpers:
    def test_bell_state_concurrence_and_eof(self):
        bell = pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert wootters_concurrence(bell) == pytest.approx(1.0, abs=1e-10)
        assert entanglement_of_formation(bell) == pytest.approx(1.0, abs=1e-10)

    def test_product_state_zero(self):
        rho = pure(basis_vector(2, 1))
        assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-10)
        assert entanglement_of_formation(rho) == pytest.approx(0.0, abs=1e-10)

    def test_weighted_pure_state_concurrence(self):
        # for a|00> + b|11> the concurrence is 2ab
        for a in (0.3, 0.6):
            b = np.sqrt(1 - a * a)
            vec = np.zeros(4)
            vec[0], vec[3] = a, b
            rho = pure(vec)
            assert wootters_concurrence(rho) == pytest.approx(2 * a * b, abs=1e-10)


class TestKoashiWinter:
    def test_pure_ghz_gives_one(self):
        rho = ghz_pd_closed(3, SQ2, 0.0)
        for measured in ({2}, {1, 2}):
            assert koashi_winter_discord(rho, Cut.of(3, measured)) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_fully_dephased_gives_zero(self):
        rho = ghz_pd_closed(3, SQ2, 1.0)
        assert koashi_winter_discord(rho, Cut.of(3, {2})) == pytest.approx(0.0, abs=1e-9)

    def test_matches_general_mode_discord(self):
        rho = ghz_pd_closed(3, SQ2, 0.5)
        kw = koashi_winter_discord(rho, Cut.of(3, {2}))
        brute = min(
            oracle_bipartite_discord(rho, Cut.of(3, {2}), FAST_ORACLE),
            oracle_bipartite_discord(rho, Cut.of(3, {0, 1}), FAST_ORACLE),
        )
        assert kw == pytest.approx(brute, abs=1e-2)

    def test_rejects_higher_rank(self):
        with pytest.raises(ValueError, match="rank"):
            koashi_winter_discord(thermo_state(3, 0.8), Cut.of(3, {2}))
