import fractions
import json
import math

import numpy as np
import pytest

from karabounds import classical_entropy as ce
from karabounds import operator_calculus as oc
from karabounds import verification as vf
from karabounds.errors import ConvergenceError, DomainError, ShapeError
from karabounds.functions import FunctionSpec, Interval

RNG = np.random.default_rng(20240811)


def rand_herm(dim, rng=RNG):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (G + G.conj().T) / 2.0


class TestJacobiEigh:
    def test_diagonal_matrix(self):
        w, V = oc.jacobi_eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(V), np.abs(V).round())  # permutation pattern

    def test_identity(self):
        w, V = oc.jacobi_eigh(np.eye(4, dtype=complex))
        assert np.allclose(w, 1.0)
        assert np.allclose(V @ V.conj().T, np.eye(4))

    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 11])
    def test_reconstruction_and_unitarity(self, dim):
        for _ in range(20):
            A = rand_herm(dim)
            w, V = oc.jacobi_eigh(A)
            assert np.all(np.diff(w) >= -1e-12)
            scale = max(1.0, np.linalg.norm(A))
            assert np.linalg.norm(V @ np.diag(w) @ V.conj().T - A) <= 1e-10 * scale
            assert np.linalg.norm(V @ V.conj().T - np.eye(dim)) <= 1e-10

    def test_stack_matches_single(self):
        stack = np.stack([rand_herm(5) for _ in range(7)])
        ws, Vs = oc.eigh_stack(stack)
        for k in range(7):
            w, _ = oc.jacobi_eigh(stack[k])
            assert np.allclose(ws[k], w, atol=1e-12)

    @staticmethod
    def assert_stack_bitwise_matches_single_calls(dim, k):
        # a matrix stops rotating once it converges, so the slowest matrix
        # of a stack (or of its chunk) does not move the others' eigenvalues
        # or eigenvectors
        rng = np.random.default_rng(dim)
        stack = np.stack([rand_herm(dim, rng) for _ in range(k)])
        ws, Vs = oc.eigh_stack(stack)
        for j in range(k):
            w, V = oc.eigh_stack(stack[j:j + 1])
            assert np.array_equal(ws[j], w[0])
            assert np.array_equal(Vs[j], V[0])

    # odd dimensions leave one index idle in every round of the schedule
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 9, 15, 16])
    def test_stack_bitwise_matches_single_calls(self, dim):
        self.assert_stack_bitwise_matches_single_calls(dim, 64)

    # chunks hold max(64, 16384 // d**2) matrices: 256 at d = 8, 64 at d = 16
    @pytest.mark.parametrize("dim, chunk", [(8, 256), (16, 64)])
    def test_stack_bitwise_matches_single_calls_across_chunks(self, dim, chunk):
        assert max(64, oc._JACOBI_CHUNK_ENTRIES // dim**2) == chunk
        # two full chunks and a part of one
        self.assert_stack_bitwise_matches_single_calls(dim, 2 * chunk + 2)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 0, 0), (2, 0, 0)])
    def test_empty_stacks_keep_their_shapes(self, shape):
        w, V = oc.eigh_stack(np.zeros(shape, dtype=complex))
        assert w.shape == shape[:2] and V.shape == shape
        assert oc.eigvals_stack(np.zeros(shape, dtype=complex)).shape == shape[:2]

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 0, 0), (2, 0, 0)])
    def test_empty_stacks_have_empty_function_images(self, shape):
        # the spectrum check of a FunctionSpec reduces over no eigenvalues
        for f in (FunctionSpec.power(2.0, Interval(0.0, 1.0)), np.abs):
            assert oc.apply_function_stack(f, np.zeros(shape, dtype=complex)).shape == shape

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_round_robin_schedule(self, dim):
        rounds = oc._round_robin(dim)
        assert len(rounds) == dim - 1 + dim % 2
        seen = []
        for P, Q, PQ, QP in rounds:
            assert len(P) == len(Q) == dim // 2
            assert np.all(P < Q)
            assert len(set(PQ.tolist())) == 2 * len(P)  # disjoint pairs
            assert np.array_equal(PQ, np.concatenate([P, Q]))
            assert np.array_equal(QP, np.concatenate([Q, P]))
            seen += zip(P.tolist(), Q.tolist())
        assert sorted(seen) == [(p, q) for p in range(dim) for q in range(p + 1, dim)]

    @pytest.mark.parametrize("dim", range(3, 16, 2))
    def test_odd_rounds_are_the_next_ring_without_its_pad_index(self, dim):
        # an odd d is solved zero-padded in the ring of d + 1, on that ring's
        # rounds; its own rounds drop just the pairs on the pad index d
        rounds, ring = oc._round_robin(dim), oc._round_robin(dim + 1)
        assert len(rounds) == len(ring)
        for (P, Q, _, _), (P1, Q1, _, _) in zip(rounds, ring):
            keep = Q1 < dim
            assert np.array_equal(P, P1[keep]) and np.array_equal(Q, Q1[keep])

    @staticmethod
    def repeated_eigenvalue_input():
        rng = np.random.default_rng(7)
        U = oc.rand_unitary(6, rng)
        spectrum = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 5.0])
        return oc.hermitize(U @ np.diag(spectrum) @ U.conj().T), spectrum

    def test_mixed_dimensions_match_single_calls_bitwise(self):
        # one call solves every dimension in ring-size stacks, an odd d
        # zero-padded with d + 1 (d = 15 and 16 together fill more than one
        # chunk of 64, so each gets its own stack, and d = 16 two chunks);
        # each matrix still gets the bytes of its own call, also one that
        # never rotates while the rest of its stack does
        rng = np.random.default_rng(2026)
        mats = [rand_herm(d, rng) for d in range(1, 17) for _ in range(3)]
        mats += [rand_herm(d, rng) for d in (15, 16) for _ in range(35)]
        mats += [np.diag(rng.standard_normal(d)).astype(complex) for d in (1, 4, 5, 9)]
        mats += [np.zeros((d, d), dtype=complex) for d in (1, 2, 3, 7)]
        mats.append(self.repeated_eigenvalue_input()[0])
        mats = [mats[j] for j in rng.permutation(len(mats))]
        for M, (w, V) in zip(mats, oc._jacobi(mats), strict=True):
            w1, V1 = oc.eigh_stack(M[None])
            assert w.tobytes() == w1[0].tobytes()
            assert V.tobytes() == V1[0].tobytes()

    def test_two_dimensions_share_a_stack_only_within_one_chunk(self, monkeypatch):
        # ring 4 is solved in chunks of 1,024: 10 + 10 matrices of d = 3 and
        # 4 ride in one stack, d = 3 zero-padded, while 1,000 + 1,000 get a
        # stack each, so that no d = 3 matrix is padded
        solve, seen = oc.eigh_stack, []

        def spy(A, dims):
            seen.append((A.shape, sorted(dims)))
            return solve(A, dims)

        monkeypatch.setattr(oc, "eigh_stack", spy)
        rng = np.random.default_rng(12)
        for count, calls in [(10, [((20, 4, 4), [3] * 10 + [4] * 10)]),
                             (1000, [((1000, 4, 4), [4] * 1000), ((1000, 3, 3), [3] * 1000)])]:
            seen.clear()
            oc._jacobi([rand_herm(d, rng) for d in (3, 4) for _ in range(count)])
            assert seen == calls

    def test_dims_solve_a_zero_padded_ring_stack(self):
        # a 5 x 5 matrix padded to 6 gets its own eigenpairs in the leading
        # block, and the pad keeps its eigenpair (0, e_5) last
        rng = np.random.default_rng(9)
        A, B = rand_herm(5, rng), rand_herm(6, rng)
        ring = np.zeros((2, 6, 6), dtype=complex)
        ring[0, :5, :5], ring[1] = A, B
        w, V = oc.eigh_stack(ring, dims=[5, 6])
        wa, Va = oc.eigh_stack(A[None])
        assert w[0, :5].tobytes() == wa[0].tobytes()
        assert V[0, :5, :5].tobytes() == Va[0].tobytes()
        assert w[0, 5] == 0.0 and np.array_equal(V[0, :, 5], np.eye(6)[5])
        assert not V[0, 5, :5].any()
        with pytest.raises(ShapeError):
            oc.eigh_stack(ring, dims=[4, 6])
        ring[0, 5, 0] = 1e-300
        with pytest.raises(DomainError):
            oc.eigh_stack(ring, dims=[5, 6])

    def test_mixed_dimensions_sweep_cap_raises_the_worst_residual(self, monkeypatch):
        # rings 4 and 8 each hold an odd and an even dimension
        monkeypatch.setattr(oc, "MAX_SWEEPS", 1)
        rng = np.random.default_rng(5)
        mats = [rand_herm(d, rng) for d in (2, 3, 4, 7, 8)]
        single = []
        for M in mats:
            try:
                oc.eigh_stack(M[None])
            except ConvergenceError as err:
                single.append(err.residual)
        assert len(single) == 4  # one sweep solves a 2 x 2 matrix exactly
        with pytest.raises(ConvergenceError) as err:
            oc._jacobi(mats)
        assert err.value.residual == max(single)

    def test_repeated_eigenvalues(self):
        A, spectrum = self.repeated_eigenvalue_input()
        w, V = oc.jacobi_eigh(A)
        assert np.max(np.abs(w - spectrum)) <= 1e-13
        assert np.linalg.norm(V @ np.diag(w) @ V.conj().T - A) <= 1e-13
        assert np.linalg.norm(V.conj().T @ V - np.eye(6)) <= 1e-13

    def test_diagonal_input_is_returned_sorted(self):
        diag = np.array([3.0, -1.0, 7.0, 0.5, 2.0])
        w, V = oc.jacobi_eigh(np.diag(diag).astype(complex))
        assert np.array_equal(w, np.sort(diag))
        # no rotation runs: V is the permutation that sorts the diagonal
        assert np.array_equal(V, np.eye(5)[:, np.argsort(diag)])

    @pytest.mark.parametrize("k", [1, 64])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 9, 15, 16])
    def test_eigvals_bitwise_match_eigh(self, dim, k):
        # eigvals_stack returns eigh_stack's eigenvalues, so they are the same
        # bits.  This holds for Jacobi only: LAPACK's eigvalsh and eigh take
        # different routes, and
        # their eigenvalues differ in the last bits from d = 3 on
        rng = np.random.default_rng(100 + dim)
        stack = np.stack([rand_herm(dim, rng) for _ in range(k)])
        assert np.array_equal(oc.eigvals_stack(stack), oc.eigh_stack(stack)[0])

    @pytest.mark.parametrize("dim", [2, 5, 9, 16])
    def test_eigenvalues_match_lapack(self, dim):
        # independent route: LAPACK's solver, compared eigenvalue by eigenvalue
        stack = np.stack([rand_herm(dim) for _ in range(25)])
        ours = oc.eigh_stack(stack)[0]
        ref = np.linalg.eigvalsh(stack)
        assert np.max(np.abs(ours - ref)) <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            oc.jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sweep_cap_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(oc, "MAX_SWEEPS", 1)
        A = rand_herm(6)
        with pytest.raises(ConvergenceError, match="in 1 sweeps") as err:
            oc.eigh_stack(A[None])
        assert err.value.residual is not None


NON_FINITE = [np.array([[1.0, np.nan], [np.nan, 2.0]]),
              np.array([[np.inf, 0.0], [0.0, 2.0]])]


@pytest.mark.parametrize("solve", [
    oc.eigh_stack, oc.eigvals_stack, oc._eigh, oc._eigvalsh,
    lambda mats: oc.apply_function_stack(np.abs, mats),
], ids=["eigh_stack", "eigvals_stack", "_eigh", "_eigvalsh", "apply_function_stack"])
@pytest.mark.parametrize("A", NON_FINITE, ids=["nan", "inf"])
def test_eigensolvers_reject_non_finite_input(solve, A):
    # Jacobi used to read the NaN off-diagonal mass as converged and return
    # the diagonal [1, 2]
    with pytest.raises(DomainError, match="non-finite"):
        solve(A[None])


class TestLapackEigh:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_stack_bitwise_matches_single_calls(self, dim):
        # the margin kernels decompose whole suites in one stack per
        # dimension and the checkers one instance at a time; both must give
        # each matrix the same bits
        rng = np.random.default_rng(200 + dim)
        stack = np.stack([rand_herm(dim, rng) for _ in range(64)])
        ws, Vs = oc._eigh(stack)
        vals = oc._eigvalsh(stack)
        for k in range(64):
            w, V = oc._eigh(stack[k:k + 1])
            assert np.array_equal(ws[k], w[0])
            assert np.array_equal(Vs[k], V[0])
            assert np.array_equal(vals[k], oc._eigvalsh(stack[k:k + 1])[0])

    @pytest.mark.parametrize("dim", [2, 5, 9, 16])
    def test_eigenvalues_match_jacobi(self, dim):
        stack = np.stack([rand_herm(dim) for _ in range(25)])
        ref = oc.eigh_stack(stack)[0]
        for w in (oc._eigh(stack)[0], oc._eigvalsh(stack)):
            assert np.max(np.abs(w - ref)) <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_reconstruction_and_unitarity(self):
        stack = np.stack([rand_herm(6) for _ in range(20)])
        w, V = oc._eigh(stack)
        assert np.all(np.diff(w, axis=1) >= 0.0)
        assert np.abs(oc._recompose(w, V) - stack).max() <= 1e-12
        assert np.abs(V @ np.swapaxes(V, 1, 2).conj() - np.eye(6)).max() <= 1e-12

    def test_symmetrizes_input(self):
        # LAPACK reads one triangle; the wrapper decomposes (A + A*)/2
        A = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        for w in (oc._eigh(A[None])[0][0], oc._eigvalsh(A[None])[0]):
            assert np.allclose(w, [0.0, 2.0], atol=1e-15)

    def test_exactly_hermitian_input_unchanged(self):
        stack = np.stack([rand_herm(5) for _ in range(8)])
        w, V = oc._eigh(stack)
        raw = np.linalg.eigh(stack)
        assert np.array_equal(w, raw[0]) and np.array_equal(V, raw[1])

    @pytest.mark.parametrize("bad", [np.eye(3), np.zeros((2, 2, 3))], ids=["2d", "non-square"])
    def test_rejects_bad_shape(self, bad):
        for solve in (oc._eigh, oc._eigvalsh):
            with pytest.raises(ShapeError):
                solve(bad)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(oc.np.linalg, "eigh", fail)
        monkeypatch.setattr(oc.np.linalg, "eigvalsh", fail)
        for solve in (oc._eigh, oc._eigvalsh):
            with pytest.raises(ConvergenceError):
                solve(rand_herm(3)[None])

    @pytest.mark.parametrize("fn", [oc.sqrtm_psd, oc.invsqrtm_pd, oc.mat_log,
                                    lambda A: oc.mat_power(A, 0.5)],
                             ids=["sqrtm_psd", "invsqrtm_pd", "mat_log", "mat_power"])
    def test_spectral_functions_reject_non_hermitian(self, fn):
        # symmetrizing for LAPACK must not hide a non-Hermitian argument
        with pytest.raises(DomainError, match="not Hermitian"):
            fn(np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex))


def _bits(A):
    return np.ascontiguousarray(A).view(np.uint64)


class TestEnsembleBuild:
    # the one-matrix arithmetic the stacked builds replaced
    @staticmethod
    def unitary(G):
        Q, R = np.linalg.qr(G)
        diag = np.diagonal(R)
        return Q * (diag / np.abs(diag))

    @staticmethod
    def hermitize(A):
        return (A + A.conj().T) / 2.0

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 8, 16])
    def test_public_ensembles_are_rows_of_one_stacked_build(self, dim):
        # draw 40 triples as rand_unitary, rand_hermitian_spectrum_in and
        # rand_density draw them, build each kind in one stack, and compare
        # every row with the public call and with the one-matrix arithmetic;
        # the same draws as 8 blocks of 5 (leading batch axes) build the
        # same bits
        iv = Interval(0.3, 4.0)
        Gu, Gs, w, Gd = [], [], [], []
        for j in range(40):
            rng = np.random.default_rng([dim, j])
            Gu.append(oc._gaussian(dim, rng))
            Gs.append(oc._gaussian(dim, rng))
            w.append(rng.uniform(iv.m, iv.M, size=dim))
            Gd.append(oc._gaussian(dim, rng))
        U, H = oc._build_haar(np.stack(Gu), np.stack(Gs), np.stack(w))
        rho = oc._build_densities(np.stack(Gd))
        blocks = [np.stack(x).reshape(8, 5, *x[0].shape) for x in (Gu, Gs, w, Gd)]
        for flat, block in zip((U, H, rho), (*oc._build_haar(*blocks[:3]),
                                             oc._build_densities(blocks[3]))):
            assert block.shape == (8, 5, dim, dim)
            assert np.array_equal(_bits(block.reshape(flat.shape)), _bits(flat)), dim
        for j in range(40):
            rng = np.random.default_rng([dim, j])
            V = self.unitary(Gs[j])
            gram = Gd[j] @ Gd[j].conj().T
            for row, public, reference in (
                    (U[j], oc.rand_unitary(dim, rng), self.unitary(Gu[j])),
                    (H[j], oc.rand_hermitian_spectrum_in(dim, iv, rng),
                     self.hermitize(V @ (w[j][:, None] * V.conj().T))),
                    (rho[j], oc.rand_density(dim, rng),
                     self.hermitize(gram / np.trace(gram).real))):
                assert np.array_equal(_bits(row), _bits(public)), (dim, j)
                assert np.array_equal(_bits(row), _bits(reference)), (dim, j)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_k_gaussians_are_k_single_draws(self, dim, k):
        # one k-draw makes the numbers of k single draws, each a real and
        # then an imaginary (dim, dim) call, bit for bit, and leaves the rng
        # where they do
        for seed in range(25):
            rng, one, two = (np.random.default_rng([seed, k, dim]) for _ in range(3))
            stack = oc._gaussian(dim, rng, k)
            singles = np.stack([oc._gaussian(dim, one) for _ in range(k)])
            calls = np.stack([two.standard_normal((dim, dim)) + 1j * two.standard_normal((dim, dim))
                              for _ in range(k)])
            assert stack.shape == (k, dim, dim)
            assert np.array_equal(_bits(stack), _bits(singles))
            assert np.array_equal(_bits(stack), _bits(calls))
            nxt = _bits(oc._gaussian(dim, rng))
            assert np.array_equal(nxt, _bits(oc._gaussian(dim, one)))
            assert np.array_equal(nxt, _bits(oc._gaussian(dim, two)))

    def test_hermitize_checks_each_matrix_of_a_stack(self):
        stack = np.stack([oc.rand_density(3, RNG) for _ in range(5)])
        out = oc.hermitize(stack)
        for A, B in zip(stack, out):
            assert np.array_equal(_bits(B), _bits(self.hermitize(A)))
        stack[3, 0, 1] += 1e-3
        with pytest.raises(DomainError, match="drifted"):
            oc.hermitize(stack)


class TestApplyFunction:
    def test_identity_map(self):
        f = FunctionSpec.custom(lambda t: np.asarray(t, dtype=float), "convex",
                                Interval(-10.0, 10.0), "t")
        A = rand_herm(4)
        assert np.allclose(oc.apply_function(f, A), A, atol=1e-12)

    def test_square_on_diagonal(self):
        f = FunctionSpec.custom(lambda t: np.asarray(t, dtype=float) ** 2, "convex",
                                Interval(-10.0, 10.0), "t^2")
        A = np.diag([2.0, -1.0, 0.5]).astype(complex)
        assert np.allclose(oc.apply_function(f, A), np.diag([4.0, 1.0, 0.25]))

    def test_square_is_matrix_square(self):
        f = FunctionSpec.custom(lambda t: np.asarray(t, dtype=float) ** 2, "convex",
                                Interval(-20.0, 20.0), "t^2")
        for _ in range(10):
            A = rand_herm(6)
            assert np.linalg.norm(oc.apply_function(f, A) - A @ A) <= 1e-10 * max(
                1.0, np.linalg.norm(A @ A))

    def test_entropy_via_t_log_t(self):
        rho = oc.rand_density(5, RNG)
        f = FunctionSpec.t_log_t(Interval(0.0, 1.0))
        assert -np.trace(oc.apply_function(f, rho)).real == pytest.approx(
            oc.von_neumann_entropy(rho), abs=1e-10)

    def test_unitary_covariance(self):
        f = FunctionSpec.t_log_t(Interval(0.0, 1.0))
        for _ in range(10):
            rho = oc.rand_density(4, RNG)
            U = oc.rand_unitary(4, RNG)
            lhs = oc.apply_function(f, oc.hermitize(U.conj().T @ rho @ U))
            rhs = U.conj().T @ oc.apply_function(f, rho) @ U
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_domain_violation_names_eigenvalue(self):
        f = FunctionSpec.neg_log(Interval(0.5, 1.0))
        A = np.diag([0.1, 0.6]).astype(complex)
        with pytest.raises(DomainError, match="eigenvalue"):
            oc.apply_function(f, A)
        with pytest.raises(DomainError, match="eigenvalue"):
            oc.apply_function_stack(f, np.stack([np.diag([0.7, 0.6]).astype(complex), A]))


class TestSpectrumIn:
    def test_identity_cases(self):
        eye = np.eye(3, dtype=complex)
        assert oc.spectrum_in(eye, Interval(1.0, 1.0 + 1e-6))
        assert not oc.spectrum_in(eye, Interval(2.0, 3.0))

    def test_generator_contract(self):
        iv = Interval(0.25, 1.75)
        for _ in range(25):
            A = oc.rand_hermitian_spectrum_in(5, iv, RNG)
            assert oc.spectrum_in(A, iv)


class TestMapFamilies:
    def test_single_identity_map(self):
        eye = np.eye(3, dtype=complex)
        fam = oc.MapFamily((oc.WeightedConjugation(1.0, eye),), 3)
        A = rand_herm(3)
        assert np.allclose(oc.apply_map_family(fam, [A]), A)

    def test_normalized_trace_on_density(self):
        fam = oc.MapFamily((oc.NormalizedTrace(1.0),), 4)
        rho = oc.rand_density(4, RNG)
        out = oc.apply_map_family(fam, [rho])
        assert out.shape == (1, 1)
        assert out[0, 0].real == pytest.approx(0.25, abs=1e-12)

    def test_scalar_weights_sum(self):
        eye = np.eye(3, dtype=complex)
        w = np.array([0.2, 0.3, 0.5])
        fam = oc.MapFamily(tuple(oc.WeightedConjugation(float(x), eye) for x in w), 3)
        mats = [rand_herm(3) for _ in range(3)]
        expected = sum(x * A for x, A in zip(w, mats))
        assert np.allclose(oc.apply_map_family(fam, mats), expected, atol=1e-12)

    def test_kraus_family_unital_and_positive(self):
        U1 = oc.rand_unitary(4, RNG)
        U2 = oc.rand_unitary(4, RNG)
        maps = (oc.KrausMap((math.sqrt(0.3) * U1,)), oc.KrausMap((math.sqrt(0.7) * U2,)))
        fam = oc.MapFamily(maps, 4)
        assert fam.unital_residual() <= 1e-10
        psd = [oc.rand_density(4, RNG) for _ in range(2)]
        out = oc.apply_map_family(fam, psd)
        assert oc.eigvals_stack(out[None])[0].min() >= -1e-10

    def test_positivity_preserved(self):
        for _ in range(10):
            w = RNG.dirichlet(np.ones(3))
            maps = tuple(oc.WeightedConjugation(float(x), oc.rand_unitary(4, RNG))
                         for x in w)
            fam = oc.MapFamily(maps, 4)
            mats = [oc.rand_hermitian_spectrum_in(4, Interval(0.0, 2.0), RNG)
                    for _ in range(3)]
            assert oc.eigvals_stack(oc.apply_map_family(fam, mats)[None])[0].min() >= -1e-10

    def test_rejects_non_unital(self):
        # unitality is a hypothesis of the map-sum and Jensen bounds, checked
        # by their kernels where a bound uses the family; the constructor and
        # apply_map_family take any family, and its residual is that of its
        # own map sum on I: conjugation by 2I maps I to 4I
        eye = np.eye(2, dtype=complex)
        half = oc.MapFamily((oc.WeightedConjugation(0.5, eye),), 2)
        doubled = oc.MapFamily((oc.WeightedConjugation(1.0, 2.0 * eye),), 2)
        assert np.array_equal(oc.apply_map_family(half, [eye]), 0.5 * eye)
        assert half.unital_residual() == pytest.approx(0.5 * math.sqrt(2.0))
        assert doubled.unital_residual() == pytest.approx(3.0 * math.sqrt(2.0))
        f = FunctionSpec.power(2.0, Interval(0.2, 2.0))
        for fam in (half, doubled):
            with pytest.raises(DomainError, match="not unital-sum"):
                vf.check_theorem_beta(fam, [eye], [eye], f, 1.0)

    @staticmethod
    def family(kind, dim, rng):
        """A unital family of three maps of one kind, or of two kinds
        (``mixed``), on dim x dim matrices."""
        w = rng.dirichlet(np.ones(3))
        if kind == "conjugation":
            maps = tuple(oc.WeightedConjugation(float(x), oc.rand_unitary(dim, rng)) for x in w)
        elif kind == "kraus":
            maps = tuple(oc.KrausMap((math.sqrt(x / 2) * oc.rand_unitary(dim, rng),
                                      math.sqrt(x / 2) * oc.rand_unitary(dim, rng))) for x in w)
        elif kind == "trace":
            maps = tuple(oc.NormalizedTrace(float(x)) for x in w)
        else:
            maps = (oc.WeightedConjugation(float(w[0]), oc.rand_unitary(dim, rng)),
                    oc.KrausMap((math.sqrt(w[1]) * oc.rand_unitary(dim, rng),)),
                    oc.WeightedConjugation(float(w[2]), oc.rand_unitary(dim, rng)))
        return oc.MapFamily(maps, dim)

    @staticmethod
    def stacked(fams):
        """The family stack (kinds, params) of families of one layout."""
        kinds = oc._family_stack(fams[0])[0]
        return kinds, [np.concatenate(col) for col in zip(*(oc._family_stack(f)[1] for f in fams))]

    @staticmethod
    def term(phi, A):
        """Phi(A), written out for one matrix."""
        if isinstance(phi, oc.WeightedConjugation):
            return phi.weight * (phi.unitary.conj().T @ A @ phi.unitary)
        if isinstance(phi, oc.KrausMap):
            return sum(V.conj().T @ A @ V for V in phi.operators)
        return np.array([[phi.weight * np.trace(A) / A.shape[0]]], dtype=complex)

    def unhermitized_sum(self, family, mats):
        """sum_i Phi_i(A_i), added in map order."""
        out = self.term(family.maps[0], mats[0])
        for phi, A in zip(family.maps[1:], mats[1:]):
            out = out + self.term(phi, A)
        return out

    @pytest.mark.parametrize("kind", ["conjugation", "kraus", "trace", "mixed"])
    def test_public_call_is_a_row_of_the_stacked_kernel(self, kind):
        # every row of a stack of families gets the bits of its own public
        # call, which are those of the terms written out and added in map order
        rng = np.random.default_rng(11)
        for dim in (2, 3, 5):
            fams = [self.family(kind, dim, rng) for _ in range(9)]
            mats = np.stack([[rand_herm(dim, rng) for _ in range(3)] for _ in fams])
            stack = oc._map_family_sums(*self.stacked(fams), mats)
            for fam, row, A in zip(fams, stack, mats):
                public = oc.apply_map_family(fam, list(A))
                assert np.array_equal(_bits(row), _bits(public)), (kind, dim)
                want = oc.hermitize(self.unhermitized_sum(fam, A))
                assert np.array_equal(_bits(public), _bits(want)), (kind, dim)
                for phi, X in zip(fam.maps, A):
                    assert np.array_equal(_bits(phi(X)), _bits(self.term(phi, X)))

    @pytest.mark.parametrize("kind", ["conjugation", "kraus", "trace", "mixed"])
    def test_one_drifting_row_of_a_stack_raises_and_names_its_drift(self, kind):
        rng = np.random.default_rng(12)
        fams = [self.family(kind, 3, rng) for _ in range(6)]
        mats = np.stack([[rand_herm(3, rng) for _ in range(3)] for _ in fams])
        mats[4, 1, 0, 0] += 1e-3j  # one non-Hermitian input, in row 4
        total = self.unhermitized_sum(fams[4], mats[4])
        drift = np.linalg.norm(total - total.conj().T)
        assert drift > 1e-8 * max(1.0, np.linalg.norm(total))
        with pytest.raises(DomainError, match=f"drifted too far from Hermitian: {drift:.3e}"):
            oc._map_family_sums(*self.stacked(fams), mats)
        with pytest.raises(DomainError, match=f"drifted too far from Hermitian: {drift:.3e}"):
            oc.apply_map_family(fams[4], list(mats[4]))
        oc._map_family_sums(*self.stacked(fams[:4] + fams[5:]), np.delete(mats, 4, axis=0))

    def test_shape_mismatch(self):
        eye = np.eye(2, dtype=complex)
        fam = oc.MapFamily((oc.WeightedConjugation(1.0, eye),), 2)
        with pytest.raises(ShapeError):
            oc.apply_map_family(fam, [rand_herm(3)])
        with pytest.raises(ShapeError):
            oc.apply_map_family(fam, [rand_herm(2), rand_herm(2)])


class TestMeans:
    def setup_method(self):
        self.X = oc.rand_hermitian_spectrum_in(4, Interval(0.5, 2.0), RNG)
        self.Y = oc.rand_hermitian_spectrum_in(4, Interval(0.5, 2.0), RNG)

    def test_endpoints(self):
        assert np.allclose(oc.natural_power_mean(self.X, self.Y, 0.0), self.X, atol=1e-12)
        assert np.allclose(oc.natural_power_mean(self.X, self.Y, 1.0), self.Y, atol=1e-12)

    def test_equal_arguments_fixed_point(self):
        for r in (-1.0, 0.37, 2.5):
            assert np.allclose(oc.natural_power_mean(self.X, self.X, r), self.X,
                               atol=1e-11)

    def test_order_flip_identity(self):
        for r in (0.0, 0.25, 0.5, 0.8, 1.0):
            lhs = oc.natural_power_mean(self.X, self.Y, r)
            rhs = oc.natural_power_mean(self.Y, self.X, 1.0 - r)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_requires_positive_definite(self):
        bad = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(DomainError):
            oc.natural_power_mean(bad, np.eye(2, dtype=complex), 0.5)


class TestRelativeOperatorEntropy:
    def test_equal_arguments_vanish(self):
        X = oc.rand_hermitian_spectrum_in(3, Interval(0.5, 2.0), RNG)
        for r in (0.0, 0.4, 1.5):
            assert np.linalg.norm(oc.tsallis_relative_operator_entropy(X, X, r)) <= 1e-12

    def test_r_to_zero_continuity(self):
        X = oc.rand_hermitian_spectrum_in(3, Interval(0.5, 2.0), RNG)
        Y = oc.rand_hermitian_spectrum_in(3, Interval(0.5, 2.0), RNG)
        a = oc.tsallis_relative_operator_entropy(X, Y, 1e-6)
        b = oc.relative_operator_entropy(X, Y)
        assert np.linalg.norm(a - b) <= 1e-4

    def test_identity_first_argument_diagonal(self):
        from karabounds.functions import ln_r
        lam = np.array([0.5, 1.5, 2.5])
        S = oc.tsallis_relative_operator_entropy(np.eye(3, dtype=complex),
                                                 np.diag(lam).astype(complex), 0.4)
        assert np.allclose(S, np.diag(ln_r(0.4, lam)), atol=1e-12)

    def test_equals_conjugated_deformed_log(self):
        # (X natural_r Y - X)/r == X^(1/2) ln_r(X^(-1/2) Y X^(-1/2)) X^(1/2)
        from karabounds.functions import FunctionSpec, Interval
        X = oc.rand_hermitian_spectrum_in(4, Interval(0.5, 2.0), RNG)
        Y = oc.rand_hermitian_spectrum_in(4, Interval(0.5, 2.0), RNG)
        for r in (-1.0, 0.3, 0.8, 2.0):
            lhs = oc.tsallis_relative_operator_entropy(X, Y, r)
            xs = oc.sqrtm_psd(X)
            xis = oc.invsqrtm_pd(X)
            mid = oc.hermitize(xis @ Y @ xis)
            lnr_spec = FunctionSpec.custom(
                lambda t, r=r: np.expm1(r * np.log(np.asarray(t, dtype=float))) / r,
                "concave" if r <= 1 else "convex", Interval(0.05, 20.0), "ln_r")
            rhs = xs @ oc.apply_function(lnr_spec, mid) @ xs
            assert np.linalg.norm(lhs - rhs) <= 1e-10


class TestConjugateByRoot:
    @staticmethod
    def two_roots(X, Y, f):
        # X^(1/2) and X^(-1/2) from two decompositions of X
        xs = oc.sqrtm_psd(X)
        xis = oc.invsqrtm_pd(X)
        mid = oc.hermitize(xis @ Y @ xis)
        return oc.hermitize(xs @ f(mid) @ xs)

    def test_means_equal_two_root_composition(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 3, 5):
            X = oc.rand_hermitian_spectrum_in(dim, Interval(0.3, 3.0), rng)
            Y = oc.rand_hermitian_spectrum_in(dim, Interval(0.3, 3.0), rng)
            for r in (-1.0, 0.0, 0.3, 0.5, 1.0, 2.5):
                want = self.two_roots(X, Y, lambda mid: oc.mat_power(mid, r))
                assert np.array_equal(oc.natural_power_mean(X, Y, r), want), (dim, r)
                if r != 0.0:
                    got = oc.tsallis_relative_operator_entropy(X, Y, r)
                    assert np.array_equal(got, (want - X) / r), (dim, r)
            assert np.array_equal(oc.relative_operator_entropy(X, Y),
                                  self.two_roots(X, Y, oc.mat_log)), dim

    def test_x_decomposed_once(self, monkeypatch):
        X = oc.rand_hermitian_spectrum_in(3, Interval(0.5, 2.0), RNG)
        Y = oc.rand_hermitian_spectrum_in(3, Interval(0.5, 2.0), RNG)
        calls = []
        solve = oc._eigh

        def counting(mats):
            calls.append(mats.shape[0])
            return solve(mats)

        monkeypatch.setattr(oc, "_eigh", counting)
        for mean in (lambda: oc.natural_power_mean(X, Y, 0.4),
                     lambda: oc.relative_operator_entropy(X, Y),
                     lambda: oc.tsallis_relative_operator_entropy(X, Y, 0.4)):
            calls.clear()
            mean()
            # one matrix for X, one for X^(-1/2) Y X^(-1/2)
            assert sum(calls) == 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            oc.relative_operator_entropy(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


class TestRelativeEigenvalueFloor:
    @pytest.mark.parametrize("c", [10.0 ** e for e in range(-15, 16, 2)])
    def test_scaled_identity_is_positive_definite_at_any_scale(self, c):
        # the floor is relative to each spectrum's largest eigenvalue, so
        # c I passes for every c > 0
        X, eye = c * np.eye(2), np.eye(2)
        for got, want in ((oc.mat_power(X, 0.5), math.sqrt(c) * eye),
                          (oc.mat_log(X), math.log(c) * eye),
                          (oc.invsqrtm_pd(X), eye / math.sqrt(c)),
                          (oc.natural_power_mean(X, 2.0 * X, 0.5), math.sqrt(2.0) * X),
                          (oc.relative_operator_entropy(X, 2.0 * X), math.log(2.0) * X)):
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), c

    @pytest.mark.parametrize("A", [np.diag([1e-13, 1.0]), np.diag([1e-28, 1e-15]),
                                   np.zeros((2, 2)), np.diag([-1.0, 1.0]), -np.eye(2)])
    def test_floor_rejects_a_spectrum_near_singular_for_its_scale(self, A):
        for image in (lambda A: oc.mat_power(A, 0.5), oc.mat_log, oc.invsqrtm_pd):
            with pytest.raises(DomainError, match="positive definite"):
                image(A)

    def test_floor_holds_per_row_of_a_stack(self):
        # a row far below another's scale passes on its own scale
        w = np.array([[1e-14, 2e-14], [1.0, 2.0]])
        assert np.array_equal(oc._power_of_psd(w, 0.5), w ** 0.5)
        with pytest.raises(DomainError, match=r"\[1\.000e-13, 1\.000e\+00\]"):
            oc._log_of_pd(np.array([[1.0, 2.0], [1e-13, 1.0]]))


class TestMeanStep:
    def test_stack_rows_match_the_public_means_bytewise(self):
        # one stack of (X, Y, r) rows with mixed r, the log variant (None)
        # among them, gives each row the bytes of its own public call
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3, 5):
            pairs = [(oc.rand_hermitian_spectrum_in(dim, Interval(0.3, 3.0), rng),
                      oc.rand_hermitian_spectrum_in(dim, Interval(0.3, 3.0), rng))
                     for _ in range(7)]
            rs = [0.3, None, -1.0, 0.3, 2.5, 0.0, None]
            zs, mids = zip(*(oc._z_relative(X, [Y]) for X, Y in pairs))
            zw, zV = (np.stack(x) for x in zip(*zs))
            w, V = oc._eigh(np.stack([mid for mid, in mids]))
            S = oc._mean_step(zw, zV, w[:, None], V[:, None], np.ones((7, 1)), rs)
            for (X, Y), r, got in zip(pairs, rs, S):
                want = (oc.relative_operator_entropy(X, Y) if r is None
                        else oc.natural_power_mean(X, Y, r))
                assert got.tobytes() == want.tobytes(), (dim, r)


class TestMatrixEntropies:
    def test_maximally_mixed(self):
        for d in (2, 5):
            assert oc.von_neumann_entropy(np.eye(d) / d) == pytest.approx(math.log(d))

    def test_pure_state(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[1, 1] = 1.0
        assert oc.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)
        assert oc.quantum_tsallis_entropy(rho, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_matches_shannon(self):
        p = np.array([0.5, 0.3, 0.2])
        rho = np.diag(p).astype(complex)
        assert oc.von_neumann_entropy(rho) == pytest.approx(ce.shannon_entropy(p),
                                                            abs=1e-12)

    def test_from_evals_ignores_nonpositive_entries(self):
        w = np.array([-1e-17, 0.0, 0.5, 0.5])
        assert oc.von_neumann_entropy_from_evals(w) == pytest.approx(math.log(2.0))
        assert oc.tsallis_entropy_from_evals(w, 0.5) == pytest.approx(
            (2.0 * math.sqrt(0.5) - 1.0) / 0.5)

    def test_entropy_bridge_random(self):
        for _ in range(20):
            rho = oc.rand_density(6, RNG)
            evals = np.clip(oc.eigvals_stack(rho[None])[0], 0.0, None)
            evals = evals / evals.sum()
            assert oc.von_neumann_entropy(rho) == pytest.approx(
                ce.shannon_entropy(evals), abs=1e-10)

    def test_tsallis_limit_and_mixed_value(self):
        rho = oc.rand_density(4, RNG)
        assert oc.quantum_tsallis_entropy(rho, 1e-6) == pytest.approx(
            oc.von_neumann_entropy(rho), abs=1e-4)
        from karabounds.functions import ln_r
        for d in (2, 5):
            for r in (0.3, 0.9):
                got = oc.quantum_tsallis_entropy(np.eye(d) / d, r)
                assert got == pytest.approx(ln_r(r, float(d)), rel=1e-12)

    @pytest.mark.parametrize("r", [1e-11, 1e-7, 1e-3, 0.1, 0.5, 0.9])
    def test_tsallis_matches_a_50_digit_reference(self, r):
        # spectra of entries k / 2^40 with integers k summing to 2^40, so
        # that their float entries sum to exactly 1; the power form
        # (sum w^(1-r) - 1)/r cancels to about 1e-16/r as r -> 0
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(38)
        for d in (2, 3, 5, 8, 16):
            k = rng.integers(1, 2 ** 36, size=d)
            k[-1] = 2 ** 40 - k[:-1].sum()
            w = k / 2.0 ** 40
            assert sum(map(fractions.Fraction, w.tolist())) == 1
            with mpmath.workdps(50):
                rm = mpmath.mpf(r)
                want = float(mpmath.fsum(x * mpmath.expm1(-rm * mpmath.log(x))
                                         for x in map(mpmath.mpf, w.tolist())) / rm)
            rho = np.diag(rng.permutation(w)).astype(complex)
            for got in (oc.tsallis_entropy_from_evals(w, r), oc.quantum_tsallis_entropy(rho, r)):
                assert abs(got - want) <= 1e-14 * abs(want), (d, got, want)

    @pytest.mark.parametrize("r", [1e-11, 0.5, 1.0])
    def test_quantum_entropies_are_the_classical_ones_of_the_spectrum(self, r):
        # bit for bit, as README promises: all are batches of one of the one
        # entropy row kernel
        rng = np.random.default_rng(38)
        for d in (1, 2, 3, 8, 9, 16):
            rho = oc.rand_density(d, rng)
            w = oc._eigvalsh(rho[None])[0]
            assert oc.von_neumann_entropy(rho) == ce.shannon_entropy(w)
            assert oc.quantum_tsallis_entropy(rho, r) == ce.tsallis_cross_terms(w, w, r)[1]

    def test_rejects_non_density(self):
        with pytest.raises(DomainError):
            oc.von_neumann_entropy(np.eye(2, dtype=complex))  # trace 2
        with pytest.raises(DomainError):
            oc.quantum_tsallis_entropy(oc.rand_density(3, RNG), 1.5)


class TestTraceDistance:
    def test_zero_for_equal(self):
        A = rand_herm(4)
        assert oc.trace_distance_l1(A, A) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert oc.trace_distance_l1(a, b) == pytest.approx(2.0)

    def test_mixed_example(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.5, 0.5]).astype(complex)
        assert oc.trace_distance_l1(a, b) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            oc.trace_distance_l1(rand_herm(2), rand_herm(3))


class TestMatrixJson:
    def test_round_trip(self):
        A = rand_herm(3)
        blob = json.dumps(oc.matrix_to_json(A))
        back = oc.matrix_from_json(json.loads(blob))
        assert np.allclose(back, A, atol=0.0)

    def test_schema_fields(self):
        obj = oc.matrix_to_json(np.eye(2, dtype=complex))
        assert set(obj) == {"dim", "re", "im"}
        assert obj["dim"] == 2
        assert obj["re"] == [1.0, 0.0, 0.0, 1.0]
        assert obj["im"] == [0.0, 0.0, 0.0, 0.0]

    def test_bad_lengths_rejected(self):
        with pytest.raises(ShapeError):
            oc.matrix_from_json({"dim": 2, "re": [1.0], "im": [0.0]})
