import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cml_lab as cl
from cml_lab import cli, spectral, transfer


@pytest.fixture(scope="module")
def doubling_L(doubling, doubling_eigen_k0):
    return cl.ulam_matrix("L", 0, 256, doubling, eigen=doubling_eigen_k0)


@pytest.fixture(scope="module")
def perturbed_L(perturbed, perturbed_eigen_k0):
    return cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)


class TestSpectralGap:
    def test_leading_eigenvalue_is_one(self, perturbed_L):
        rep = cl.spectral_gap(perturbed_L)
        assert rep.lambda1 == pytest.approx(1.0, abs=1e-10)
        assert rep.gap == pytest.approx(1.0 - rep.lambda2_modulus)

    def test_doubling_chain_mixes_in_finitely_many_steps(self, doubling_L):
        # on 2^8 aligned cells the doubling chain reaches uniform exactly
        # after 8 steps, so the discrete matrix has no genuine second
        # eigenvalue: the rest of the spectrum collapses to (near) zero
        rep = cl.spectral_gap(doubling_L)
        assert rep.lambda2_modulus < 0.05
        x = cl.node_coordinate().on_array(doubling_L.grid.reps(), 0)
        v = x - x.mean()
        for _ in range(8):
            v = doubling_L.matrix @ v
        assert np.max(np.abs(v)) < 1e-12

    def test_second_eigenvalue_stable_under_refinement(self, perturbed, metric):
        pot = cl.srb_potential(perturbed, max_k=0, metric=metric)
        mods = []
        for n_bins in (256, 1024):
            p = cl.ulam_matrix("P", 0, n_bins, perturbed, potential=pot)
            e = cl.leading_eigenpair(p)
            l_op = cl.ulam_matrix("L", 0, n_bins, perturbed, eigen=e)
            mods.append(cl.spectral_gap(l_op).lambda2_modulus)
        assert abs(mods[0] - mods[1]) < 0.02

    def test_arnoldi_is_repeatable(self, doubling):
        # the constant start vector is the leading eigenvector of every 'L'
        # operator; on the flat 4,096-cell operator it made ARPACK restart
        # from a vector that changed from call to call
        p = cl.ulam_matrix("P", 1, 16, doubling, potential=cl.zero_potential())
        l_op = cl.ulam_matrix("L", 1, 16, doubling, eigen=cl.leading_eigenpair(p))
        assert l_op.n_cells > 2048  # above the dense limit: the Arnoldi path
        first = cl.spectral_gap(l_op).eigenvalues
        assert cl.spectral_gap(l_op).eigenvalues == first

    def test_arnoldi_on_reachable_block(self, perturbed, metric):
        # at eps = 0.1 the coupling's range misses 718 of the 4,096 cells:
        # Arnoldi on the 3,378 reachable ones finds the eigenvalues that
        # eigs finds on the whole matrix from the whole-grid start vector
        # and ARPACK's default Krylov dimension
        pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
        op = cl.ulam_matrix(
            "coupled", 1, 16, perturbed, potential=pot,
            coupling=cl.Coupling(epsilon=0.1),
        )
        rep = cl.spectral_gap(op)
        assert (rep.solver, rep.cells_solved) == ("arnoldi", 3378)
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, op.n_cells)
        ref = spla.eigs(op.matrix, k=6, which="LM", v0=v0, return_eigenvectors=False)
        ref = ref[np.lexsort((np.angle(ref), -np.abs(ref)))]
        if ref[-1].imag < 0.0:
            ref[-1] = np.conj(ref[-1])
        assert np.max(np.abs(np.array(rep.eigenvalues) - ref)) < 1e-12
        again = cl.spectral_gap(op)
        assert again.operator_applications == rep.operator_applications > 0
        assert again.eigenvalues == rep.eigenvalues

    def test_cut_through_conjugate_pair_keeps_positive_member(self):
        # real block-diagonal matrix on the dense path: eigenvalues 1, 0.9,
        # 0.8, 0.7, 0.6, then the pair 0.5 +- 0.3i (modulus 0.583) that the
        # six-value cut splits, then 0.1
        blocks = [np.array([[v]]) for v in (1.0, 0.9, 0.8, 0.7, 0.6)]
        blocks += [np.array([[0.5, -0.3], [0.3, 0.5]]), np.array([[0.1]])]
        op = cl.UlamOperator(
            kind="L", grid=cl.Grid(k=0, n_bins=8), quad=1,
            matrix=sp.block_diag(blocks, format="csr"),
        )
        vals = cl.spectral_gap(op).eigenvalues
        assert len(vals) == 6
        assert vals[-1] == pytest.approx(0.5 + 0.3j, abs=1e-12)

    @staticmethod
    def arpack_reference(op):
        """ARPACK (scipy's eigs, kept here as a reference only) on the block
        of non-empty rows, with spectral_gap's start vector and ncv, sorted
        and cut the way spectral_gap cuts."""
        active = np.flatnonzero(np.diff(op.matrix.indptr))
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, op.n_cells)[active]
        ref = spla.eigs(
            op.matrix[active][:, active], k=6, which="LM", v0=v0,
            ncv=spectral._ARNOLDI_NCV, return_eigenvectors=False,
        )
        ref = ref[np.lexsort((np.angle(ref), -np.abs(ref)))]
        if ref[-1].imag < 0.0:
            ref[-1] = np.conj(ref[-1])
        return ref

    def test_arnoldi_matches_arpack(self, coupled_op_k1, raw_coupled_eps01):
        # desk's operator (k=1, N=16, eps = 0.05) and eps = 0.1, whose
        # block is 3,378 of the 4,096 cells
        eps01 = transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_eps01))
        for op in (coupled_op_k1, eps01):
            rep = cl.spectral_gap(op)
            assert rep.solver == "arnoldi"
            assert np.max(np.abs(np.array(rep.eigenvalues) - self.arpack_reference(op))) < 1e-12
            assert 0 < rep.restarts and rep.ritz_residual <= spectral._ARNOLDI_TOL

    def test_arnoldi_keeps_positive_member_of_a_cut_pair(self):
        # real block-diagonal matrix above the dense limit: eigenvalues 1,
        # 0.9, 0.8, 0.7, 0.6, the pair 0.5 +- 0.3i that the six-value cut
        # splits, and 2,100 values in [0.05, 0.3] split into rotation
        # blocks of eigenvalues r e^(+-i/2)
        blocks = [np.array([[v]]) for v in (1.0, 0.9, 0.8, 0.7, 0.6)]
        blocks.append(np.array([[0.5, -0.3], [0.3, 0.5]]))
        c, s_ = np.cos(0.5), np.sin(0.5)
        for r in np.linspace(0.05, 0.3, 1050):
            blocks.append(r * np.array([[c, -s_], [s_, c]]))
        matrix = sp.block_diag(blocks, format="csr")
        op = cl.UlamOperator(
            kind="L", grid=cl.Grid(k=0, n_bins=matrix.shape[0]), quad=1, matrix=matrix,
        )
        rep = cl.spectral_gap(op)
        assert rep.solver == "arnoldi" and rep.cells_solved == 2107
        exact = np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.5 + 0.3j])
        assert np.max(np.abs(np.array(rep.eigenvalues) - exact)) < 1e-12

    def test_arnoldi_stops_on_an_invariant_krylov_space(self, doubling):
        # flat's 4,096-cell 'L' operator is nilpotent off the constants:
        # the Krylov space of the start vector is invariant after a few
        # products, where ARPACK took 31, and its zero eigenvalues read at
        # the roundoff that a nilpotent block of index 4 raises to the 1/4
        p = cl.ulam_matrix("P", 1, 16, doubling, potential=cl.zero_potential())
        op = cl.ulam_matrix("L", 1, 16, doubling, eigen=cl.leading_eigenpair(p))
        rep = cl.spectral_gap(op)
        assert rep.solver == "arnoldi" and rep.cells_solved == 4096
        assert rep.operator_applications < 31 and rep.restarts == 0
        assert rep.lambda1 == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < rep.lambda2_modulus <= 1e-4

    def test_arnoldi_extends_a_small_invariant_space(self, monkeypatch, cpus):
        # the identity fixes every vector: each Krylov space is invariant,
        # and is extended by fresh vectors until it holds six, in one part
        # and in two row halves on two threads
        op = cl.UlamOperator(
            kind="L", grid=cl.Grid(k=0, n_bins=2100), quad=1,
            matrix=sp.identity(2100, format="csr"),
        )
        cpus(2)
        for parts, split_nnz in ((1, transfer._SPLIT_NNZ), (2, 1)):
            monkeypatch.setattr(transfer, "_SPLIT_NNZ", split_nnz)
            rep = cl.spectral_gap(op)
            assert (rep.solver, rep.operator_applications, rep.restarts) == ("arnoldi", 6, 0)
            assert (rep.parts, rep.threads) == (parts, parts)
            assert np.max(np.abs(np.array(rep.eigenvalues) - 1.0)) < 1e-12
            assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_restart_cap_raises(self, raw_coupled_eps01, monkeypatch):
        op = transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_eps01))
        monkeypatch.setattr(spectral, "_ARNOLDI_RESTARTS", 1)
        with pytest.raises(RuntimeError, match=r"in 1 restarts; [0-5] of 6 eigenvalues found"):
            cl.spectral_gap(op)

    def test_restart_refines_a_near_defective_pair(self):
        # a Rayleigh quotient whose 18 kept values hold the 2x2 Jordan
        # block of 0.7 at ranks 7 and 8: eig returns two nearly parallel
        # eigenvectors for it, whose QR basis misses invariance by about
        # 1e-9; the refined basis spans the kept invariant subspace
        rng = np.random.default_rng(0)
        kept = np.concatenate([np.linspace(1.0, 0.75, 6), [0.7, 0.7], np.linspace(0.65, 0.5, 10)])
        t = np.diag(np.concatenate([kept, np.linspace(0.3, 0.05, 12)]))
        t[6, 7] = 1.0
        t[:, 18:] += np.triu(rng.uniform(-0.1, 0.1, (30, 30)), 1)[:, 18:]
        u = np.linalg.qr(rng.standard_normal((30, 30)))[0]
        h = u @ t @ u.T
        theta, vecs = np.linalg.eig(h)
        top = np.argsort(-np.abs(theta))[:18]
        assert not theta[top].imag.any()
        columns = vecs[:, top].real

        def defect(q):
            return np.linalg.norm(h @ q - q @ (q.T @ h @ q)) / np.linalg.norm(h)

        assert defect(np.linalg.qr(columns)[0]) > 1e-12
        q = spectral._invariant_basis(h, columns)
        assert np.allclose(q.T @ q, np.eye(18), rtol=0.0, atol=1e-14)
        assert defect(q) <= spectral._ARNOLDI_TOL
        assert np.linalg.norm(u[:, :18] - q @ (q.T @ u[:, :18])) < 1e-13

    @staticmethod
    def jordan_operator():
        # real block-diagonal matrix above the dense limit: eigenvalues 1,
        # 0.995, ..., 0.975, a 2x2 Jordan block of 0.9 (ranks 7 and 8), and
        # 2,100 values in [0.05, 0.3] in rotation blocks of r e^(+-i/2)
        blocks = [np.array([[v]]) for v in np.linspace(1.0, 0.975, 6)]
        blocks.append(np.array([[0.9, 1.0], [0.0, 0.9]]))
        c, s_ = np.cos(0.5), np.sin(0.5)
        for r in np.linspace(0.05, 0.3, 1050):
            blocks.append(r * np.array([[c, -s_], [s_, c]]))
        matrix = sp.block_diag(blocks, format="csr")
        return cl.UlamOperator(
            kind="L", grid=cl.Grid(k=0, n_bins=matrix.shape[0]), quad=1, matrix=matrix,
        )

    def test_arnoldi_with_a_jordan_block_among_the_kept_values(self):
        rep = cl.spectral_gap(self.jordan_operator())
        assert rep.solver == "arnoldi" and rep.restarts > 0
        exact = np.linspace(1.0, 0.975, 6)
        assert np.max(np.abs(np.array(rep.eigenvalues) - exact)) < 1e-12

    def test_restart_raises_without_an_invariant_basis(self, monkeypatch):
        # the Jordan block's restart needs a Newton step: without one, the
        # solve raises rather than drop the basis's defect
        monkeypatch.setattr(spectral, "_INVARIANT_STEPS", 0)
        with pytest.raises(RuntimeError, match="no invariant subspace"):
            cl.spectral_gap(self.jordan_operator())

    def test_rejects_raw_kind(self, perturbed_eigen_k0):
        with pytest.raises(ValueError):
            cl.spectral_gap(perturbed_eigen_k0.operator)


class TestGapOnTheMatrix:
    """Arnoldi applies the normalized matrix itself on the reachable cells."""

    @staticmethod
    def explicit_block_spectrum(op):
        """spectral_gap's Arnoldi solve on the block copied out of the
        matrix: its reported eigenvalues, and how the solve ended."""
        active = np.flatnonzero(np.diff(op.matrix.indptr))
        block = op.matrix[active][:, active]
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, op.n_cells)[active]
        with transfer._SplitBlock(block, np.arange(active.size)) as explicit:
            solve = spectral._krylov_schur(explicit, v0)
        vals = solve.values[np.lexsort((np.angle(solve.values), -np.abs(solve.values)))]
        if vals[-1].imag < 0.0:
            vals[-1] = np.conj(vals[-1])
        return tuple(complex(v) for v in vals), solve.applications, solve.restarts, solve.residual

    def test_one_part_solve_keeps_its_bits(self, coupled_op_k1):
        # desk's operator is below _SPLIT_NNZ: one part, whose passes take
        # each sum whole.  Its six values, products, restarts and residual
        # are pinned bit for bit, so the one-part path cannot drift unseen.
        rep = cl.spectral_gap(coupled_op_k1)
        assert (rep.solver, rep.cells_solved, rep.parts, rep.threads) == ("arnoldi", 4096, 1, 1)
        assert [(v.real.hex(), v.imag.hex()) for v in rep.eigenvalues] == [
            ("0x1.ffffffffffffep-1", "0x0.0p+0"),
            ("-0x1.e626822564a2bp-2", "0x0.0p+0"),
            ("-0x1.d55d2b74caf38p-2", "0x0.0p+0"),
            ("-0x1.b1ab27cb1ac00p-3", "-0x1.91bf7f21c3603p-2"),
            ("-0x1.b1ab27cb1ac00p-3", "0x1.91bf7f21c3603p-2"),
            ("-0x1.ae803af0dbba4p-3", "0x1.8df92df47624ep-2"),
        ]
        assert (rep.operator_applications, rep.restarts) == (130, 16)
        assert rep.ritz_residual.hex() == "0x1.50e84e88eb226p-47"

    def test_split_solve_has_the_same_bits_on_one_or_two_threads(
        self, raw_coupled_eps01, monkeypatch, cpus
    ):
        # eps = 0.1, N=16 cut in two row halves: the parts do not depend on
        # the CPUs, and the caller adds their partial sums in part order,
        # so one thread and two give the same bits; they differ from the
        # one-part solve's only by the order of the sums
        op = transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_eps01))
        whole = cl.spectral_gap(op)
        assert whole.parts == 1
        monkeypatch.setattr(transfer, "_SPLIT_NNZ", 1)
        runs = []
        for n in (1, 2):
            cpus(n)
            rep = cl.spectral_gap(op)
            assert (rep.solver, rep.parts, rep.threads) == ("arnoldi", 2, n)
            runs.append(rep)
        one, two = (
            (
                [(v.real.hex(), v.imag.hex()) for v in rep.eigenvalues],
                rep.operator_applications, rep.restarts, rep.ritz_residual.hex(),
            )
            for rep in runs
        )
        assert one == two
        assert np.max(np.abs(np.subtract(runs[0].eigenvalues, whole.eigenvalues))) <= 1e-13
        assert runs[0].ritz_residual <= spectral._ARNOLDI_TOL

    def test_matches_explicit_block(self, raw_coupled_eps01):
        # eps = 0.1, N=16: 718 of the 4,096 cells are unreachable
        op = transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_eps01))
        rep = cl.spectral_gap(op)
        assert (rep.solver, rep.cells_solved) == ("arnoldi", 3378)
        assert (
            rep.eigenvalues, rep.operator_applications, rep.restarts, rep.ritz_residual
        ) == self.explicit_block_spectrum(op)

    def test_memory_is_matrix_and_krylov_basis(self, perturbed, metric, monkeypatch, cpus):
        # k=1, N=24, the Arnoldi path: peak traced memory from the end of
        # the coupled assembly, through its eigen-solve and normalization,
        # to the end of spectral_gap, above the raw matrix.  Measured 3.2 MB:
        # the basis of 21 rows of n doubles (2.1 MB) and the solves'
        # vectors, as the raw matrix is normalized in place (4.6 MB with a
        # normalized copy of 2.3 MB and a basis of 31 rows).  ARPACK, whose
        # scipy wrapper copies the basis to extract the eigenvalues, read
        # 7.6 MB against the 6.9 MB this bound allowed at 31 rows, and the
        # explicit blocks that the solves copied out of the matrix 9.6 MB.
        # The bound holds in one part and in two row halves on two threads,
        # whose parts hold the basis between them and copy neither it nor
        # the matrix.
        assembled = {}
        assemble = transfer._assemble_coupled_matrix

        def assemble_then_reset(*args):
            raw = assemble(*args)
            tracemalloc.reset_peak()
            assembled["traced"] = tracemalloc.get_traced_memory()[0]
            return raw

        monkeypatch.setattr(transfer, "_assemble_coupled_matrix", assemble_then_reset)
        pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
        cpus(2)
        for parts, split_nnz in ((1, transfer._SPLIT_NNZ), (2, 1)):
            monkeypatch.setattr(transfer, "_SPLIT_NNZ", split_nnz)
            tracemalloc.start()
            try:
                op = cl.ulam_matrix(
                    "coupled", 1, 24, perturbed, potential=pot,
                    coupling=cl.Coupling(epsilon=0.05),
                )
                rep = cl.spectral_gap(op)
                peak = tracemalloc.get_traced_memory()[1] - assembled["traced"]
            finally:
                tracemalloc.stop()
            assert (rep.solver, rep.parts, rep.threads) == ("arnoldi", parts, parts)
            matrix = op.matrix
            matrix_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            basis_bytes = rep.cells_solved * spectral._ARNOLDI_NCV * 8
            assert peak <= matrix_bytes + 3 * basis_bytes // 2


class TestStationaryDistribution:
    def test_matches_eigen_measure(self, perturbed_L, perturbed_eigen_k0):
        nu = cl.stationary_distribution(perturbed_L)
        assert np.max(np.abs(nu - perturbed_eigen_k0.mu)) < 1e-10

    def test_is_fixed_by_adjoint(self, doubling_L):
        nu = cl.stationary_distribution(doubling_L)
        assert np.max(np.abs(doubling_L.matrix.T @ nu - nu)) < 1e-12

    def test_operator_without_triple_raises(self, coupled_op_k1, tmp_path):
        # a loaded operator has no triple; its spectrum is still available
        path = tmp_path / "op.txt"
        cl.save_operator(coupled_op_k1, str(path))
        loaded = cl.load_operator(str(path))
        with pytest.raises(ValueError, match="ulam_matrix"):
            cl.stationary_distribution(loaded)
        hand_built = dataclasses.replace(coupled_op_k1, eigen=None)
        with pytest.raises(ValueError, match="ulam_matrix"):
            cl.variance_green_kubo(cl.node_coordinate(), hand_built)
        assert cl.spectral_gap(loaded).lambda1 == pytest.approx(1.0, abs=1e-10)


class TestCorrelations:
    def test_doubling_coordinate_decay_closed_form(self, doubling_L):
        # the continuum covariance 2^-n/12 picks up the exact finite-grid
        # correction: C_n = (2^-n - 2^n/N^2)/12 on N aligned cells
        c = cl.operator_correlation(
            cl.node_coordinate(), cl.node_coordinate(), doubling_L, 8
        )
        n = np.arange(9)
        big_n = doubling_L.n_cells
        expected = (2.0 ** -n - 2.0 ** n / big_n ** 2) / 12.0
        assert np.max(np.abs(c - expected)) < 1e-12

    def test_constant_observable_vanishes(self, perturbed_L):
        c = cl.operator_correlation(
            cl.constant_potential(3.0), cl.constant_potential(3.0), perturbed_L, 5
        )
        assert np.max(np.abs(c)) < 1e-12

    def test_lag_zero_is_covariance(self, perturbed_L):
        phi = cl.node_coordinate()
        mu = cl.stationary_distribution(perturbed_L)
        c = cl.operator_correlation(phi, phi, perturbed_L, 0)
        x = phi.on_array(perturbed_L.grid.reps(), 0)
        mean = float(mu @ x)
        assert c[0] == pytest.approx(float(mu @ (x - mean) ** 2), abs=1e-14)

    def test_coupled_correlations_vanish(self, coupled_op_k1, raw_coupled_eps01):
        # centring with mu, the operator's own stationary measure, lets C_n
        # decay to rounding: centring with Lebesgue measure instead leaves
        # a constant offset (a 43% sigma^2 error once).  Also on the eps =
        # 0.1 operator, whose unreachable cells make mu non-uniform.
        eps01 = transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_eps01))
        x0 = cl.node_coordinate(0)
        for op in (coupled_op_k1, eps01):
            c = cl.operator_correlation(x0, x0, op, 60)
            assert c[0] > 0.0 and abs(c[60]) <= 1e-12 * c[0]

    def test_fitted_decay_matches_gap(self, perturbed_L):
        # log-linear fit on operator correlations recovers |lambda_2|
        c = cl.operator_correlation(
            cl.node_coordinate(), cl.node_coordinate(), perturbed_L, 20
        )
        lags = np.arange(5, 21)
        slope = np.polyfit(lags, np.log(np.abs(c[5:])), 1)[0]
        lam2 = cl.spectral_gap(perturbed_L).lambda2_modulus
        assert np.exp(slope) == pytest.approx(lam2, abs=0.02)


class TestTwistedOperators:
    def test_zero_twist_is_the_base(self, perturbed_L):
        tw = cl.twisted_matrix(perturbed_L, cl.node_coordinate(), 0.0)
        diff = (tw - perturbed_L.matrix.astype(complex)).tocoo()
        assert diff.nnz == 0

    def test_twist_scales_each_stored_entry_by_its_column_phase(
        self, perturbed_L, coupled_op_k1
    ):
        # a complex copy in the base's sorted index order, each stored
        # entry times the phase of its column: no product reorders a row
        phi = cl.node_coordinate()
        for base in (perturbed_L, coupled_op_k1):
            phase = np.exp(1j * 0.1 * phi.on_array(base.grid.reps(), base.grid.k))
            tw = cl.twisted_matrix(base, phi, 0.1)
            assert tw.format == "csr" and tw.has_sorted_indices
            for name in ("indptr", "indices"):
                assert getattr(tw, name).tobytes() == getattr(base.matrix, name).tobytes()
            ref = base.matrix.data.astype(complex) * phase[base.matrix.indices]
            assert tw.data.tobytes() == ref.tobytes()
            assert not np.shares_memory(tw.data, base.matrix.data)

    def test_entrywise_modulus_is_the_base(self, perturbed_L):
        tw = cl.twisted_matrix(perturbed_L, cl.node_coordinate(), 0.1)
        assert np.allclose(
            np.abs(tw.toarray()), perturbed_L.matrix.toarray(), atol=1e-14
        )

    def test_opposite_twists_are_conjugate(self, perturbed_L):
        phi = cl.node_coordinate()
        a = cl.twisted_matrix(perturbed_L, phi, 0.1)
        b = cl.twisted_matrix(perturbed_L, phi, -0.1)
        assert np.allclose(a.toarray(), np.conj(b.toarray()), atol=1e-15)

    def test_power_iteration_on_twisted_operator(self, perturbed_L):
        tw = cl.twisted_matrix(perturbed_L, cl.node_coordinate(), 0.1)
        lam, v = cl.power_iterate(tw)[:2]
        w = np.linalg.eigvals(tw.toarray())
        ref = w[np.argmax(np.abs(w))]
        assert abs(lam - ref) < 1e-12
        assert np.max(np.abs(tw @ v - lam * v)) < 1e-12 * np.max(np.abs(v))

    def test_bound_holds_on_small_twists(self, perturbed_L):
        # |lambda(t)| < 1 off t = 0, and -2 log|lambda(t)| / t^2 is the
        # Green-Kubo variance up to a bias of order t^2 (the log modulus is
        # even in t)
        phi = cl.node_coordinate()
        gk = cl.variance_green_kubo(phi, perturbed_L).sigma2
        rows = cl.check_twisted_bound(perturbed_L, phi, [0.01, -0.05, 0.1, 0.2])
        assert [r.t for r in rows] == [0.01, -0.05, 0.1, 0.2]
        moduli = [r.modulus for r in rows]
        assert moduli == sorted(moduli, reverse=True) and moduli[0] < 1.0
        for r in rows:
            assert abs(r.sigma2 / gk - 1.0) <= 0.05 * r.t ** 2, r

    def test_large_twist_rejected(self, perturbed_L):
        for t in (0.5, -0.21, 0.0):
            with pytest.raises(ValueError, match="small-twist regime"):
                cl.check_twisted_bound(perturbed_L, cl.node_coordinate(), [0.1, t])


class TestTwistedGates:
    """The twisted experiment's three gates on desk's coupled operator,
    against the Green-Kubo variance of the unaltered operator."""

    @pytest.fixture(scope="class")
    def target(self, coupled_op_k1):
        return cl.variance_green_kubo(cl.node_coordinate(), coupled_op_k1).sigma2

    @staticmethod
    def verdicts(op, target):
        cfg = cl.ExperimentConfig()
        state = {"coupled": op, "sigma2": target}
        report = cli.RunReport(fingerprint="", config=cfg)
        cli._step_twisted(cfg, state, report)
        return {k: e["passed"] for k, e in report.results["twisted"].items()}

    def test_desk_operator_passes(self, coupled_op_k1, target):
        assert self.verdicts(coupled_op_k1, target) == {
            "max_modulus": True, "small_twist_sigma2": True, "curvature_sigma2": True,
        }

    def test_scaled_row_fails(self, coupled_op_k1, target):
        # 1.01 times the first reachable row: the small-twist variance is
        # 32% low and the curvature reads -4.9
        matrix = coupled_op_k1.matrix.copy()
        row = int(np.flatnonzero(np.diff(matrix.indptr))[0])
        matrix.data[matrix.indptr[row]:matrix.indptr[row + 1]] *= 1.01
        op = dataclasses.replace(coupled_op_k1, matrix=matrix)
        verdicts = self.verdicts(op, target)
        assert not verdicts["small_twist_sigma2"] and not verdicts["curvature_sigma2"]

    def test_twist_by_another_node_fails(self, coupled_op_k1, target, monkeypatch):
        # the twist phase read from node 1, the window's edge: both variance
        # estimates are 2.5e-3 low
        coordinate = cli.node_coordinate
        monkeypatch.setattr(
            cli, "node_coordinate", lambda j, metric=None: coordinate(1, metric=metric)
        )
        verdicts = self.verdicts(coupled_op_k1, target)
        assert not verdicts["small_twist_sigma2"] and not verdicts["curvature_sigma2"]


    def test_conjugate_twists_equal_direct_solves(self, coupled_op_k1):
        # a -t row comes from the conjugate of its +t solve, and the
        # curvature from one solve per step: both have the bits of solving
        # every twist directly
        phi = cl.node_coordinate()
        twists = [0.01, -0.01, 0.05, -0.05, 0.1, -0.1]
        rows = cl.check_twisted_bound(coupled_op_k1, phi, twists)
        assert rows == tuple(
            cl.check_twisted_bound(coupled_op_k1, phi, [t])[0] for t in twists
        )
        for t in (0.01, 1e-3, 2e-3):
            plus = cl.power_iterate(cl.twisted_matrix(coupled_op_k1, phi, t))
            minus = cl.power_iterate(cl.twisted_matrix(coupled_op_k1, phi, -t))
            assert minus.lam == np.conj(plus.lam)
            assert np.array_equal(minus.v, np.conj(plus.v))

        def curvature(h):
            lam_p = cl.power_iterate(cl.twisted_matrix(coupled_op_k1, phi, h)).lam
            lam_m = cl.power_iterate(cl.twisted_matrix(coupled_op_k1, phi, -h)).lam
            return -((np.log(lam_p) + np.log(lam_m)).real) / h ** 2

        direct = (4.0 * curvature(1e-3) - curvature(2e-3)) / 3.0
        assert cl.variance_from_twisted_curvature(coupled_op_k1, phi) == direct


class TestVariance:
    def test_doubling_green_kubo_closed_form(self, doubling_L):
        # continuum value C_0 + 2 sum C_n = 1/12 + 2/12 = 1/4; the finite
        # grid subtracts the exact aliasing corrections summed over the
        # 8-step mixing horizon
        sigma2 = cl.variance_green_kubo(cl.node_coordinate(), doubling_L).sigma2
        big_n = doubling_L.n_cells
        ns = np.arange(1, 9)
        expected = (
            (1.0 - 1.0 / big_n ** 2)
            + 2.0 * np.sum(2.0 ** -ns - 2.0 ** ns / big_n ** 2)
        ) / 12.0
        assert sigma2 == pytest.approx(expected, abs=1e-12)
        assert sigma2 == pytest.approx(0.25, abs=0.01)

    @pytest.mark.parametrize("n_bins", [16, 24])
    def test_resolvent_sum_matches_a_300_lag_sum(
        self, n_bins, coupled_op_k1, raw_coupled_n24
    ):
        # desk's coupled operator: lambda_2 = -0.4748, so C_n alternates;
        # the lag sum with a geometric tail was off by 8.5e-8 and 1.1e-6
        op = coupled_op_k1 if n_bins == 16 else transfer._normalized(
            "coupled", cl.leading_eigenpair(raw_coupled_n24)
        )
        phi = cl.node_coordinate()
        c = cl.operator_correlation(phi, phi, op, 300)
        reference = c[0] + 2.0 * c[1:].sum()
        gk = cl.variance_green_kubo(phi, op)
        assert gk.sigma2 == pytest.approx(reference, rel=1e-11, abs=0.0)
        assert 0 < gk.products < spectral._GK_MAX_PRODUCTS

    def test_shift_of_the_observable_leaves_sigma2(self, coupled_op_k1, perturbed, metric):
        # x_0 + 1000 on desk's and fine's coupled operators: the mean's
        # roundoff, about 1e-13, is re-centred out of every iterate (the lag
        # sum moved desk's sigma^2 by 1.3e-8 relative)
        fine = cl.ulam_matrix(
            "coupled", 1, 48, perturbed,
            potential=cl.srb_potential(perturbed, max_k=1, metric=metric),
            coupling=cl.Coupling(epsilon=0.05), cell_budget=110_592,
        )
        for op in (coupled_op_k1, fine):
            plain = cl.variance_green_kubo(cl.node_coordinate(), op).sigma2
            shifted = cl.variance_green_kubo(cl.node_coordinate(offset=-1000.0), op)
            assert shifted.sigma2 == pytest.approx(plain, rel=1e-12, abs=0.0)
            assert shifted.products < spectral._GK_MAX_PRODUCTS

    def test_constant_observable_zero_variance(self, doubling_L):
        assert cl.variance_green_kubo(cl.constant_potential(2.0), doubling_L).sigma2 == 0.0

    def test_curvature_cross_check(self, perturbed_L):
        phi = cl.node_coordinate()
        gk = cl.variance_green_kubo(phi, perturbed_L).sigma2
        curv = cl.variance_from_twisted_curvature(perturbed_L, phi)
        assert abs(curv - gk) / gk < 0.05

    def test_grid_doubling_invariance(self, perturbed, metric):
        phi = cl.node_coordinate()
        vals = []
        for n_bins in (256, 512):
            pot = cl.srb_potential(perturbed, max_k=0, metric=metric)
            p = cl.ulam_matrix("P", 0, n_bins, perturbed, potential=pot)
            e = cl.leading_eigenpair(p)
            l_op = cl.ulam_matrix("L", 0, n_bins, perturbed, eigen=e)
            vals.append(cl.variance_green_kubo(phi, l_op).sigma2)
        assert abs(vals[0] - vals[1]) / vals[0] < 0.05


class TestSharedIteratePass:
    @pytest.mark.parametrize("n_lags", [0, 10, 60])
    def test_correlations_are_operator_correlations_bits(self, coupled_op_k1, n_lags):
        # desk's operator: the sum stops at 38 products, so lag 60 carries
        # the pass on; sigma^2 and how the sum ended do not move with n_lags
        phi = cl.node_coordinate()
        gk = cl.variance_green_kubo(phi, coupled_op_k1, n_lags)
        ref = cl.operator_correlation(phi, phi, coupled_op_k1, n_lags)
        assert np.array(gk.correlations).tobytes() == ref.tobytes()
        alone = cl.variance_green_kubo(phi, coupled_op_k1)
        assert (gk.sigma2, gk.products, gk.last_norm) == (
            alone.sigma2, alone.products, alone.last_norm
        )
        assert alone.products == 38


class TestGreenKuboChain:
    """Two-cell chains that flip with probability p: for x_0, phi~ = +-1/4,
    L^n phi~ = (1 - 2p)^n phi~ and C_n = C_0 (1 - 2p)^n (C_0 = 1/16), so
    sigma^2 = C_0 (2 - 2p) / (2p).  The re-centred iterates reach
    1e-14 |phi~| at n = 145 for |1 - 2p| = 0.8."""

    @staticmethod
    def chain(p):
        mu = np.array([0.5, 0.5])
        return cl.UlamOperator(
            kind="L", grid=cl.Grid(k=0, n_bins=2), quad=1,
            matrix=sp.csr_matrix([[1.0 - p, p], [p, 1.0 - p]]),
            eigen=cl.EigenData(lam=1.0, v=mu, nu=mu, mu=mu, operator=None),
        )

    @pytest.mark.parametrize("p, sigma2", [(0.1, 0.5625), (0.9, 1.0 / 144.0)])
    def test_closed_form(self, p, sigma2):
        # at p = 0.9 (lambda_2 = -0.8) the tail's sign rule was 7.8e-5 off
        gk = cl.variance_green_kubo(cl.node_coordinate(), self.chain(p))
        assert gk.sigma2 == pytest.approx(sigma2, rel=1e-12, abs=0.0)
        assert gk.products == 145
        assert gk.last_norm <= 1e-14 * 0.25

    def test_the_product_cap_raises_with_the_last_norm(self, monkeypatch):
        # the fifth iterate's sup-norm is 0.8^5 / 4
        monkeypatch.setattr(spectral, "_GK_MAX_PRODUCTS", 5)
        with pytest.raises(ValueError, match=r"in 5 products: last sup-norm 8\.192e-02"):
            cl.variance_green_kubo(cl.node_coordinate(), self.chain(0.1))


class TestCoupledSpectrum:
    def test_coupled_operator_has_a_gap(self, coupled_op_k1):
        rep = cl.spectral_gap(coupled_op_k1)
        assert rep.lambda1 == pytest.approx(1.0, abs=1e-8)
        assert rep.lambda2_modulus < 0.9
