import math
import hashlib
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.lapack import dposv, zheevr
from scipy.optimize import brentq

from risdoa import anm
from risdoa.anm import (
    AtomicDecomposition,
    SolverConfig,
    atomic_norm,
    project_block_toeplitz,
    project_psd,
    project_toeplitz_hermitian,
    smat,
    solve_danm,
    solve_full_anm,
    svec,
    toeplitz_from_atoms,
    unit_matrix_atom,
    unit_vec_atom,
    vandermonde_decompose,
)
from risdoa.errors import (
    ConfigError,
    DegenerateInputError,
    InfeasibleConstraintError,
    SizeCapError,
    SolverConvergenceError,
)
from risdoa.extraction import estimate_from_full
from risdoa.model import (
    RisGeometry,
    SourceSet,
    axis_atom,
    build_code_schedule,
    steering_vector,
    synthesize_ideal,
)


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestToeplitzProjection:
    def test_hand_case(self):
        A = np.array([[1.0, 0.0], [2.0, 3.0]])
        np.testing.assert_allclose(
            project_toeplitz_hermitian(A), [[2.0, 1.0], [1.0, 2.0]], atol=1e-14
        )

    def test_fixed_point_on_constructed_toeplitz(self):
        T = toeplitz_from_atoms([0.3, -0.6], [1.0, 2.5], dim=6)
        np.testing.assert_allclose(project_toeplitz_hermitian(T), T, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        A = _rand_complex(rng, 7, 7)
        P1 = project_toeplitz_hermitian(A)
        np.testing.assert_allclose(project_toeplitz_hermitian(P1), P1, atol=1e-12)

    def test_orthogonality_of_residual(self):
        # the residual of an orthogonal projection is orthogonal to the subspace
        rng = np.random.default_rng(1)
        A = _rand_complex(rng, 6, 6)
        B = toeplitz_from_atoms([0.1, 0.7, -0.4], [0.5, 1.0, 2.0], dim=6)
        resid = A - project_toeplitz_hermitian(A)
        inner = np.vdot(B, resid).real
        assert abs(inner) < 1e-10


class TestBlockToeplitzProjection:
    def test_hand_case_two_by_two_grid(self):
        A = np.array(
            [
                [4, 1, 2, 0],
                [0, 6, 1, 3],
                [2, 1, 8, 1],
                [1, 0, 2, 4],
            ],
            dtype=complex,
        )
        A += 1j * np.array(
            [
                [0, 1, 0, 0],
                [0, 0, 2, 0],
                [0, 0, 0, 1],
                [1, 0, 0, 0],
            ]
        )
        expected = np.array(
            [
                [5.5, 1.0 + 0.5j, 1.75, 0.5 - 0.5j],
                [1.0 - 0.5j, 5.5, 1.0 + 1.0j, 1.75],
                [1.75, 1.0 - 1.0j, 5.5, 1.0 + 0.5j],
                [0.5 + 0.5j, 1.75, 1.0 - 0.5j, 5.5],
            ]
        )
        np.testing.assert_allclose(project_block_toeplitz(A, 2, 2), expected, atol=1e-14)

    def test_fixed_point_on_atom_built_matrix(self):
        geom = RisGeometry(3, 4)
        T = np.zeros((12, 12), dtype=complex)
        for f_r, f_c, c in ((0.2, -0.5, 1.0), (-0.6, 0.4, 2.0)):
            a = unit_vec_atom(geom, f_r, f_c)
            T += c * np.outer(a, a.conj())
        np.testing.assert_allclose(project_block_toeplitz(T, 3, 4), T, atol=1e-12)

    def test_idempotent_and_hermitian(self):
        rng = np.random.default_rng(2)
        A = _rand_complex(rng, 12, 12)
        P1 = project_block_toeplitz(A, 3, 4)
        np.testing.assert_allclose(project_block_toeplitz(P1, 3, 4), P1, atol=1e-12)
        np.testing.assert_allclose(P1, P1.conj().T, atol=1e-12)


def _psd(A):
    """project_psd of a full matrix, through the packed form it works on."""
    return smat(project_psd(svec(A)))


class TestPsdProjection:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(3)
        B = _rand_complex(rng, 5, 5)
        A = B @ B.conj().T
        np.testing.assert_allclose(_psd(A), A, atol=1e-10)

    def test_eigen_clip_oracle(self):
        # build a Hermitian matrix with known eigenvalues, clip by hand
        rng = np.random.default_rng(4)
        B = _rand_complex(rng, 4, 4)
        V, _ = np.linalg.qr(B)
        lam = np.array([2.0, 0.5, -0.25, -3.0])
        A = (V * lam) @ V.conj().T
        expected = (V * np.maximum(lam, 0.0)) @ V.conj().T
        np.testing.assert_allclose(_psd(A), expected, atol=1e-10)

    def test_output_is_psd(self):
        rng = np.random.default_rng(5)
        A = _rand_complex(rng, 6, 6)
        lam = np.linalg.eigvalsh(_psd(A))
        assert lam.min() >= -1e-12

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), side=st.integers(1, 70), positives=st.integers(0, 70))
    def test_matches_the_full_eigendecomposition(self, seed, side, positives):
        # a Hermitian matrix with a chosen count of positive eigenvalues plus a
        # skew-Hermitian part, which the projection must ignore
        rng = np.random.default_rng(seed)
        V, _ = np.linalg.qr(_rand_complex(rng, side, side))
        signs = np.where(np.arange(side) < positives, 1.0, -1.0)
        S = _rand_complex(rng, side, side)
        A = (V * (signs * rng.uniform(0.01, 3.0, side))) @ V.conj().T + (S - S.conj().T)
        lam, W = np.linalg.eigh((A + A.conj().T) / 2.0)
        expected = (W * np.maximum(lam, 0.0)) @ W.conj().T
        P = _psd(A)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(P - expected) <= 1e-12 * scale
        assert np.array_equal(P, P.conj().T)
        assert np.linalg.eigvalsh(P)[0] >= -1e-12 * scale

    def test_negative_definite_gives_the_zero_matrix(self):
        rng = np.random.default_rng(6)
        B = _rand_complex(rng, 7, 7)
        P = _psd(-(B @ B.conj().T) - 0.1 * np.eye(7))
        assert np.array_equal(P, np.zeros((7, 7)))

    def test_positive_definite_is_kept_whole(self):
        rng = np.random.default_rng(7)
        B = _rand_complex(rng, 9, 9)
        A = B @ B.conj().T + 0.1 * np.eye(9)
        assert np.linalg.norm(_psd(A) - A) <= 1e-12 * np.linalg.norm(A)

    def test_exact_zero_eigenvalues(self):
        assert np.array_equal(_psd(np.zeros((4, 4))), np.zeros((4, 4)))
        np.testing.assert_array_equal(
            _psd(np.diag([2.0, 0.0, 0.0, -1.0])), np.diag([2.0, 0.0, 0.0, 0.0])
        )
        rng = np.random.default_rng(8)
        V, _ = np.linalg.qr(_rand_complex(rng, 5, 5))
        lam = np.array([1.5, 0.0, 0.0, -0.5, 0.7])
        expected = (V * np.maximum(lam, 0.0)) @ V.conj().T
        P = _psd((V * lam) @ V.conj().T)
        assert np.linalg.norm(P - expected) <= 1e-12 * np.linalg.norm(lam)

    def test_eigensolver_failure_raises(self, monkeypatch):
        def failing(H, **kwargs):
            n = H.shape[0]
            return np.zeros(n), np.zeros((n, n), complex), 1, np.zeros(2 * n, np.int32), 1

        monkeypatch.setattr(anm, "zheevr", failing)
        with pytest.raises(DegenerateInputError, match=r"PSD projection.*info = 1"):
            project_psd(svec(np.eye(3)))
        # a solve stops with the error instead of returning a partial iterate
        geom = RisGeometry(2, 2)
        with pytest.raises(DegenerateInputError, match="PSD projection"):
            solve_danm(np.ones(4), np.eye(4), geom, noise_power=0.0)


def _with_positives(rng, side, positives):
    """Random Hermitian matrix with the given count of positive eigenvalues."""
    V, _ = np.linalg.qr(_rand_complex(rng, side, side))
    lam = rng.uniform(0.01, 3.0, side) * np.where(np.arange(side) < positives, 1.0, -1.0)
    return (V * lam) @ V.conj().T


def _psd_reference(A):
    lam, W = np.linalg.eigh(A)
    return svec((W * np.maximum(lam, 0.0)) @ W.conj().T)


class TestPartialEigensolve:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        side=st.integers(4, 16),
        positives=st.integers(0, 16),
        k=st.integers(-40, 40),
    )
    def test_power_of_two_scaling_is_exact(self, seed, side, positives, k):
        # bit for bit; zheevr on the unscaled matrix broke this on about one
        # random matrix in four
        rng = np.random.default_rng(seed)
        S = _rand_complex(rng, side, side)
        w = svec(_with_positives(rng, side, min(positives, side)) + 0.1 * (S + S.conj().T))
        assert np.array_equal(project_psd(2.0**k * w), 2.0**k * project_psd(w))

    def test_blocks_of_very_different_scale(self):
        # a Hermitian matrix made of such blocks, permuted, has a tridiagonal
        # form that splits; zheevr's inverse iteration then fails to converge
        # from the absolute tolerance on about one in twenty-five of these
        for seed in range(40):
            rng = np.random.default_rng(seed)
            side = int(rng.integers(4, 17))
            split = int(rng.integers(1, side))
            for small in (1e-2, 1e-3, 1e-5, 1e-8):
                A = np.zeros((side, side), complex)
                A[:split, :split] = _with_positives(rng, split, int(rng.integers(0, split + 1)))
                lower = _with_positives(rng, side - split, int(rng.integers(0, side - split + 1)))
                A[split:, split:] = small * lower
                order = rng.permutation(side)
                A = A[order][:, order]
                assert np.linalg.norm(project_psd(svec(A)) - _psd_reference(A)) <= 1e-12 * np.linalg.norm(A)

    def test_a_failure_at_the_absolute_tolerance_retries_at_lapacks_own(self, monkeypatch):
        tolerances = []

        def fails_with_abstol(H, **kwargs):
            tolerances.append(kwargs.get("abstol"))
            if "abstol" in kwargs:
                n = H.shape[0]
                return np.zeros(n), np.zeros((n, n), complex), 0, np.zeros(2 * n, np.int32), 3
            return zheevr(H, **kwargs)

        monkeypatch.setattr(anm, "zheevr", fails_with_abstol)
        A = _with_positives(np.random.default_rng(2), 6, 3)
        assert np.linalg.norm(project_psd(svec(A)) - _psd_reference(A)) <= 1e-12 * np.linalg.norm(A)
        assert len(tolerances) == 2 and tolerances[0] > 0.0 and tolerances[1] is None


def _hermitian_matrix(rng, side):
    A = _rand_complex(rng, side, side)
    return A + A.conj().T


def _full_matrix_step(V, rho, grids, data, weight):
    """The structure step on the full matrix: each block projected, the border coupled."""
    H = (V + V.conj().T) / 2.0
    k = grids[0][0] * grids[0][1]
    out = np.empty_like(H)
    out[:k, :k] = project_block_toeplitz(H[:k, :k], *grids[0])
    out[k:, k:] = project_block_toeplitz(H[k:, k:], *grids[1])
    X = data.couple(H[:k, k:].reshape(-1), rho).reshape(k, -1)
    out[:k, k:] = X
    out[k:, :k] = X.conj().T
    out[np.diag_indices(len(H))] -= weight / (2.0 * rho)
    return out


class TestPackedForm:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), side=st.integers(1, 12))
    def test_svec_is_an_isometry(self, seed, side):
        rng = np.random.default_rng(seed)
        A, B = _hermitian_matrix(rng, side), _hermitian_matrix(rng, side)
        a, b = svec(A), svec(B)
        assert a.shape == (side * side,) and a.dtype == np.float64
        frobenius = np.vdot(A, B).real
        assert abs(a @ b - frobenius) <= 1e-12 * np.linalg.norm(A) * np.linalg.norm(B)
        assert a @ a == pytest.approx(np.linalg.norm(A) ** 2, rel=1e-12)
        # sqrt(2) is irrational, so an off-diagonal entry comes back to within one
        # ulp; the diagonal comes back exactly, and the result is exactly Hermitian
        back = smat(a)
        assert np.array_equal(back, back.conj().T)
        assert np.array_equal(back.diagonal(), A.diagonal())
        np.testing.assert_array_max_ulp(back.real, A.real, maxulp=1)
        np.testing.assert_array_max_ulp(back.imag, A.imag, maxulp=1)
        # a general matrix packs its Hermitian part
        S = _rand_complex(rng, side, side)
        skewed = svec(A + S - S.conj().T)
        assert np.linalg.norm(skewed - a) <= 1e-14 * (np.linalg.norm(A) + np.linalg.norm(S))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        program=st.sampled_from(["full", "decoupled"]),
        coupling=st.sampled_from(["noise-ball", "regularized", "atomic"]),
        rho=st.floats(1e-3, 1e3),
    )
    def test_structure_step_matches_the_full_matrix_step(self, seed, rows, cols, program, coupling, rho):
        rng = np.random.default_rng(seed)
        mn = rows * cols
        grids = ((rows, cols), (1, 1)) if program == "full" else ((1, rows), (1, cols))
        side = sum(r * c for r, c in grids)

        def data():  # a fresh coupling per step, so both start from the same warm start
            if coupling == "atomic":
                x = _rand_complex(np.random.default_rng(seed), mn)
                return anm._DataStep(np.eye(mn), x, "noise-ball")  # the atomic norm's coupling
            G = _rand_complex(np.random.default_rng(seed), max(mn - 1, 1), mn)
            z = G @ _rand_complex(np.random.default_rng(seed + 1), mn)
            return anm._DataStep(G, z, coupling, radius=0.3 * np.linalg.norm(z))

        V = _hermitian_matrix(rng, side)
        weight = float(rng.uniform(0.1, 2.0))
        expected = _full_matrix_step(V, rho, grids, data(), weight)
        got = smat(anm._structure_step(svec(V), rho, anm._structure(grids), data(), weight))
        assert np.array_equal(got, got.conj().T)
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("program", ["full", "decoupled"])
    def test_every_iteration_projects_once_through_the_module_name(self, monkeypatch, program):
        # perfbench counts the PSD projections by wrapping anm.project_psd
        calls = []
        projection = anm.project_psd

        def counted(w):
            calls.append(w.size)
            return projection(w)

        monkeypatch.setattr(anm, "project_psd", counted)
        geom, G, z = _full_denoise_problem()
        if program == "full":
            sol = solve_full_anm(geom, SolverConfig(mode="regularized", alpha=1e-3), z=z, G=G)
        else:
            sol = solve_danm(z, G, geom, noise_power=1e-3)
        side = 10 if program == "full" else 6
        assert len(calls) == sol.diagnostics.iterations and set(calls) == {side * side}


@pytest.fixture
def blas_pools():
    """Thread controls of numpy's and scipy's OpenBLAS, each set to two threads."""
    controls = anm._blas_thread_controls()
    if len(controls) < 2:
        pytest.skip("the thread functions of numpy's and scipy's OpenBLAS are not both found")
    saved = _thread_counts(controls)
    for _, put in controls:
        put(2)
    yield controls
    for (_, put), count in zip(controls, saved):
        put(count)


def _thread_counts(controls) -> list:
    return [get() for get, _ in controls]


def _record_threads_in_projection(monkeypatch, controls) -> list:
    """Swap in a project_psd that notes the pools' thread counts on each call."""
    seen = []

    def stand_in(A):
        seen.append(_thread_counts(controls))
        return project_psd(A)

    monkeypatch.setattr(anm, "project_psd", stand_in)
    return seen


def _small_danm(config=None):
    geom = RisGeometry(3, 3)
    G = build_code_schedule(9, 9, seed=1).codes
    return solve_danm(G @ steering_vector(geom, 60.0, 10.0), G, geom, config, noise_power=0.0)


class TestBlasThreadPin:
    def test_both_pools_run_one_thread_inside_a_solve(self, blas_pools, monkeypatch):
        seen = _record_threads_in_projection(monkeypatch, blas_pools)
        _small_danm()
        assert seen and all(counts == [1, 1] for counts in seen)
        assert _thread_counts(blas_pools) == [2, 2]

    def test_counts_restored_after_a_convergence_error(self, blas_pools, monkeypatch):
        seen = _record_threads_in_projection(monkeypatch, blas_pools)
        with pytest.raises(SolverConvergenceError):
            _small_danm(SolverConfig(max_iterations=2))
        assert seen == [[1, 1], [1, 1]]
        assert _thread_counts(blas_pools) == [2, 2]

    @pytest.mark.parametrize("missing", ["library", "symbol"])
    def test_a_missing_pool_is_left_alone(self, blas_pools, monkeypatch, tmp_path, missing):
        numpy_dir, pattern, suffix = anm._BLAS_POOLS[0]
        absent = (tmp_path, pattern, suffix) if missing == "library" else (numpy_dir, pattern, "_x")
        monkeypatch.setattr(anm, "_BLAS_POOLS", (absent, anm._BLAS_POOLS[1]))
        anm._blas_thread_controls.cache_clear()
        try:
            assert len(anm._blas_thread_controls()) == 1  # scipy's pool only
            seen = _record_threads_in_projection(monkeypatch, blas_pools)
            _small_danm()
        finally:
            anm._blas_thread_controls.cache_clear()
        # numpy's pool keeps its two threads throughout; scipy's is pinned
        assert seen and all(counts == [2, 1] for counts in seen)
        assert _thread_counts(blas_pools) == [2, 2]


class TestMarginals:
    def test_atom_construction_oracle(self):
        # estimate_from_full roots the (dm, 0) and (0, dn) lag classes of a
        # two-level Toeplitz T; on a sum of frequency atoms every entry of a
        # class equals the first column of that axis's 1D Toeplitz sum
        geom = RisGeometry(3, 5)
        freqs = ((0.3, -0.2), (-0.5, 0.6))
        weights = (1.0, 2.0)
        T = np.zeros((15, 15), dtype=complex)
        row_ref = np.zeros((3, 3), dtype=complex)
        col_ref = np.zeros((5, 5), dtype=complex)
        for (f_r, f_c), w in zip(freqs, weights):
            u = axis_atom(f_r, 3, geom.row_spacing)
            v = axis_atom(f_c, 5, geom.col_spacing)
            vec = np.kron(u, v)
            T += w * np.outer(vec, vec.conj())
            row_ref += w * np.outer(u, u.conj())
            col_ref += w * np.outer(v, v.conj())
        T4 = T.reshape(3, 5, 3, 5)
        for n in range(5):
            np.testing.assert_allclose(T4[:, n, 0, n], row_ref[:, 0], atol=1e-12)
        for m in range(3):
            np.testing.assert_allclose(T4[m, :, m, 0], col_ref[:, 0], atol=1e-12)
        np.testing.assert_allclose(T[::5, 0], row_ref[:, 0], atol=1e-12)
        np.testing.assert_allclose(T[:5, 0], col_ref[:, 0], atol=1e-12)


class TestVandermonde:
    def test_two_atoms_round_trip(self):
        T = toeplitz_from_atoms([0.2, -0.5], [1.0, 2.0], dim=8)
        dec = vandermonde_decompose(T, 2)
        np.testing.assert_allclose(sorted(dec.frequencies), [-0.5, 0.2], atol=1e-6)
        np.testing.assert_allclose(sorted(dec.weights), [1.0, 2.0], atol=1e-6)

    def test_all_ones_is_dc(self):
        dec = vandermonde_decompose(np.ones((5, 5), dtype=complex), 1)
        assert dec.frequencies[0] == pytest.approx(0.0, abs=1e-9)
        assert dec.weights[0] == pytest.approx(1.0, abs=1e-9)

    def test_rebuild_residual(self):
        T = toeplitz_from_atoms([0.35, -0.1, 0.8], [0.5, 1.5, 1.0], dim=10)
        dec = vandermonde_decompose(T, 3)
        R = toeplitz_from_atoms(dec.frequencies, dec.weights, dim=10)
        assert np.linalg.norm(R - T) / np.linalg.norm(T) < 1e-6
        assert dec.weights.min() > 0

    def test_rank_deficient_raises(self):
        T = toeplitz_from_atoms([0.2], [1.0], dim=6)
        with pytest.raises(DegenerateInputError):
            vandermonde_decompose(T, 3)


def _code_matrix(rng, rows, cols, singular_values):
    """rows x cols complex matrix with the given singular values (zeros pad the rank)."""
    U, _ = np.linalg.qr(_rand_complex(rng, rows, rows))
    V, _ = np.linalg.qr(_rand_complex(rng, cols, cols))
    S = np.zeros((rows, cols))
    S[: len(singular_values), : len(singular_values)] = np.diag(singular_values)
    return U @ S @ V.conj().T


def _ball_case(seed, rank, decades, fraction):
    """A data step whose start point lies outside the ball.

    The squared radius is the energy outside the range of G plus the given
    fraction of the start point's residual energy on the range.
    """
    rng = np.random.default_rng(seed)
    rows, cols = 12, 8
    G = _code_matrix(rng, rows, cols, np.logspace(0.0, -decades, rank))
    z, x0 = _rand_complex(rng, rows), _rand_complex(rng, cols)
    U = np.linalg.svd(G)[0][:, :rank]
    outside = z - U @ (U.conj().T @ z)
    inside = U @ (U.conj().T @ (z - G @ x0))
    radius_sq = np.vdot(outside, outside).real + fraction * np.vdot(inside, inside).real
    return anm._DataStep(G, z, "noise-ball", radius=math.sqrt(radius_sq)), G, z, x0


def _reference_root(data, x0):
    """Multiplier of the ball projection by a tight bracketed search."""
    r0 = data.zt - data.s * (data.Vh @ x0)[: data.rank]

    def gap(lam):
        return np.sum(np.abs(r0) ** 2 / (1.0 + lam * data.s**2) ** 2) - data.budget_sq

    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
    return brentq(gap, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


class TestBallProjection:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 8),
        decades=st.floats(0.0, 10.0),
        fraction=st.floats(0.01, 0.9),
    )
    def test_root_matches_a_reference_bracketed_root(self, seed, rank, decades, fraction):
        data, G, z, x0 = _ball_case(seed, rank, decades, fraction)
        data.ball_project(x0)
        assert data.root_solves == 1 and data.brentq_fallbacks == 0
        assert data.lam == pytest.approx(_reference_root(data, x0), rel=1e-12)

    # a wider spread makes x large, and rounding in G x then swamps the check
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 8),
        decades=st.floats(0.0, 3.0),
        fraction=st.floats(0.01, 0.9),
    )
    def test_point_outside_lands_on_the_boundary(self, seed, rank, decades, fraction):
        data, G, z, x0 = _ball_case(seed, rank, decades, fraction)
        x = data.ball_project(x0)
        assert np.linalg.norm(z - G @ x) == pytest.approx(data.radius, rel=1e-12)

    def test_point_inside_is_returned_unchanged(self):
        data, G, z, x0 = _ball_case(1, 5, 2.0, 0.5)
        inner = data.ball_project(x0)
        assert data.ball_project(inner) is inner
        assert data.root_solves == 1

    def test_zero_budget_gives_the_exact_range_fit(self):
        rng = np.random.default_rng(2)
        G = _code_matrix(rng, 12, 8, np.logspace(0.0, -3.0, 6))
        z, x0 = G @ _rand_complex(rng, 8), _rand_complex(rng, 8)
        x = anm._DataStep(G, z, "noise-ball", radius=0.0).ball_project(x0)
        np.testing.assert_allclose(x, x0 + np.linalg.pinv(G) @ (z - G @ x0), atol=1e-9)

    def test_warm_start_from_a_nearby_root_saves_evaluations(self):
        warm, G, z, x0 = _ball_case(3, 8, 2.0, 0.3)
        cold, *_ = _ball_case(3, 8, 2.0, 0.3)
        x1 = x0 * (1.0 + 1e-3)
        warm.ball_project(x0)
        before = warm.secular_evaluations
        np.testing.assert_allclose(warm.ball_project(x1), cold.ball_project(x1), rtol=1e-12)
        assert warm.secular_evaluations - before < cold.secular_evaluations

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        decades=st.floats(0.0, 4.0),
        fraction=st.floats(0.3, 0.9),
        start=st.floats(1e3, 1e15),
    )
    def test_warm_start_far_right_of_the_root_is_clamped(self, seed, decades, fraction, start):
        # a Newton step from far right of the root can land left of zero,
        # near the pole of the secular sum, unless it is clamped
        data, G, z, x0 = _ball_case(seed, 8, decades, fraction)
        data.lam = start
        data.ball_project(x0)
        assert data.brentq_fallbacks == 0
        assert data.lam == pytest.approx(_reference_root(data, x0), rel=1e-12)

    def test_brentq_fallback_gives_the_same_point(self, monkeypatch):
        data, G, z, x0 = _ball_case(4, 6, 4.0, 0.2)
        newton = data.ball_project(x0)
        monkeypatch.setattr(anm, "_NEWTON_STEPS", 0)
        fallback, *_ = _ball_case(4, 6, 4.0, 0.2)
        np.testing.assert_allclose(fallback.ball_project(x0), newton, rtol=1e-12, atol=0)
        assert fallback.brentq_fallbacks == 1

    def test_fallback_that_cannot_bracket_raises(self, monkeypatch):
        monkeypatch.setattr(anm, "_NEWTON_STEPS", 0)
        # a direction with singular value 1e-11 needs a multiplier near 1e34
        data, G, z, x0 = _ball_case(5, 3, 11.0, 1e-12)
        with pytest.raises(InfeasibleConstraintError, match="bracket"):
            data.ball_project(x0)

    def test_energy_outside_the_range_beyond_the_ball_is_infeasible(self):
        geom = RisGeometry(2, 2)
        rng = np.random.default_rng(6)
        G = _code_matrix(rng, 6, 4, [1.0, 0.5, 0.2, 0.1])
        z = _rand_complex(rng, 6)
        U = np.linalg.svd(G)[0][:, :4]
        outside = z - U @ (U.conj().T @ z)
        with pytest.raises(InfeasibleConstraintError, match="outside the range"):
            solve_danm(z, G, geom, noise_power=0.5 * float(np.vdot(outside, outside).real))

    def test_desk_solve_needs_few_secular_evaluations(self):
        geom = RisGeometry(8, 8)
        sched = build_code_schedule(96, geom.n_elements, seed=5)
        src = SourceSet(
            elevations_deg=np.array([45.4, 72.8]),
            azimuths_deg=np.array([-22.3, 18.9]),
            amplitudes=np.array([1.0, np.exp(0.9j)]),
        )
        snap = synthesize_ideal(geom, sched, src, snr_db=20.0, seed=12)
        budget = snap.noise_power * snap.samples.size
        d = solve_danm(snap.samples, sched.codes, geom, noise_power=budget).diagnostics
        assert d.root_solves > d.iterations // 2
        assert d.secular_evaluations <= 3 * d.root_solves
        assert d.brentq_fallbacks == 0


class TestCodeSvdCache:
    GEOM = RisGeometry(3, 3)

    def _observation(self, G, seed):
        noise = 0.1 * _rand_complex(np.random.default_rng(seed), G.shape[0])
        z = G @ steering_vector(self.GEOM, 70.0, 25.0) + noise
        return z, float(np.vdot(noise, noise).real)

    def _solve(self, G, z, budget):
        vars = solve_danm(z, G, self.GEOM, noise_power=budget)
        return vars.T_x.tobytes() + vars.T_y.tobytes() + vars.X.tobytes()

    def _fresh(self, G, z, budget):
        anm._svd_of.cache_clear()  # the cache is the only state a solve leaves behind
        return self._solve(G, z, budget)

    def test_interleaved_codes_solve_as_in_a_fresh_process(self):
        G1 = build_code_schedule(12, 9, seed=1).codes
        G2 = build_code_schedule(12, 9, seed=2).codes
        cases = [(G1, *self._observation(G1, 1)), (G2, *self._observation(G2, 2))]
        fresh = [self._fresh(*case) for case in cases]
        anm._svd_of.cache_clear()
        for k in (0, 1, 0):
            assert self._solve(*cases[k]) == fresh[k]
        info = anm._svd_of.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_changed_entry_misses_the_cache(self):
        G = build_code_schedule(12, 9, seed=3).codes.copy()
        anm._svd_of.cache_clear()
        self._solve(G, *self._observation(G, 3))
        G[5, 4] = -G[5, 4]  # same array and shape, new contents
        z, budget = self._observation(G, 3)
        got = self._solve(G, z, budget)
        assert anm._svd_of.cache_info().misses == 2
        assert got == self._fresh(G.copy(), z, budget)

    def test_factors_are_read_only_and_factor_the_matrix(self):
        G = build_code_schedule(12, 9, seed=4).codes
        U, s, Vh, V, rank = anm.code_svd(G)
        for a in (U, s, Vh, V):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        np.testing.assert_allclose(U[:, :9] @ (s[:, None] * Vh), G, atol=1e-12)
        assert np.array_equal(V, Vh.conj().T)
        assert rank == 9


class TestSolverConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(mode="magic")

    def test_bad_numbers_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(tolerance=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_iterations", 2.5),
            ("max_iterations", True),
            ("max_iterations", 0),
            ("tolerance", math.inf),
            ("tolerance", "1e-5"),
            ("tolerance", True),
        ],
    )
    def test_non_numbers_and_non_finite_values_rejected(self, field, value):
        # once a TypeError mid-solve, a solve "in True iterations" or a stop after one iteration
        with pytest.raises(ConfigError, match=f"^{field} "):
            SolverConfig(**{field: value})

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerance"):
            SolverConfig(tolerance=math.nan)

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf, "0.1"])
    def test_negative_or_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            SolverConfig(mode="regularized", alpha=alpha)

    def test_zero_alpha_accepted(self):
        assert SolverConfig(mode="regularized", alpha=0.0).alpha == 0.0


class TestDecoupledSolver:
    def test_zero_datum_gives_zero(self):
        geom = RisGeometry(3, 3)
        G = build_code_schedule(9, 9, seed=1).codes
        vars = solve_danm(np.zeros(9), G, geom, noise_power=0.0)
        assert np.linalg.norm(vars.X) < 1e-8
        assert vars.diagnostics.trace_objective < 1e-8

    def test_single_atom_recovery(self):
        geom = RisGeometry(4, 4)
        G = build_code_schedule(16, 16, seed=2).codes
        x = steering_vector(geom, 55.0, 10.0)
        z = G @ x
        vars = solve_danm(z, G, geom, noise_power=0.0)
        rel = np.linalg.norm(vars.X.reshape(-1) - x) / np.linalg.norm(x)
        assert rel < 1e-3
        # tolerance is relative to the iterate scale, so is the cone violation
        min_eigenvalue = np.linalg.eigvalsh(_bordered(vars))[0]
        assert min_eigenvalue > -1e-5 * max(1.0, vars.diagnostics.trace_objective)
        assert np.linalg.norm(z - G @ vars.X.reshape(-1)) < 1e-6

    def test_two_atom_objective_equals_weight_sum(self):
        geom = RisGeometry(4, 4)
        x = 1.0 * unit_vec_atom(geom, 0.8, -0.6) + 2.0 * np.exp(0.7j) * unit_vec_atom(
            geom, -0.4, 0.55
        )
        vars = solve_danm(x, np.eye(16), geom, noise_power=0.0)
        assert vars.diagnostics.trace_objective == pytest.approx(3.0, rel=2e-2)

    def test_cone_homogeneity(self):
        geom = RisGeometry(3, 4)
        G = build_code_schedule(12, 12, seed=3).codes
        rng = np.random.default_rng(7)
        x = steering_vector(geom, 50.0, -15.0) + 0.5 * steering_vector(geom, 110.0, 20.0)
        z = G @ x + 0.05 * _rand_complex(rng, 12)
        base = solve_danm(z, G, geom, noise_power=0.03)
        scaled = solve_danm(3.0 * z, G, geom, noise_power=9.0 * 0.03)
        assert scaled.diagnostics.trace_objective == pytest.approx(
            3.0 * base.diagnostics.trace_objective, rel=1e-3
        )

    def test_noise_ball_residual_feasible(self):
        geom = RisGeometry(3, 3)
        G = build_code_schedule(12, 9, seed=4).codes
        rng = np.random.default_rng(8)
        x = steering_vector(geom, 70.0, 25.0)
        noise = 0.1 * _rand_complex(rng, 12)
        budget = float(np.vdot(noise, noise).real)
        z = G @ x + noise
        vars = solve_danm(z, G, geom, noise_power=budget)
        assert np.linalg.norm(z - G @ vars.X.reshape(-1)) <= math.sqrt(budget) + 1e-6

    def test_regularized_mode_runs(self):
        geom = RisGeometry(3, 3)
        G = build_code_schedule(12, 9, seed=5).codes
        x = steering_vector(geom, 60.0, 0.0)
        cfg = SolverConfig(mode="regularized", alpha=1e-3)
        vars = solve_danm(G @ x, G, geom, cfg)
        rel = np.linalg.norm(vars.X.reshape(-1) - x) / np.linalg.norm(x)
        assert rel < 1e-2

    def test_missing_noise_power_rejected(self):
        geom = RisGeometry(2, 2)
        with pytest.raises(ConfigError):
            solve_danm(np.zeros(4), np.eye(4), geom)

    def test_nonconvergence_raises_with_residuals(self):
        geom = RisGeometry(3, 3)
        G = build_code_schedule(9, 9, seed=6).codes
        x = steering_vector(geom, 40.0, 10.0)
        cfg = SolverConfig(max_iterations=3)
        with pytest.raises(SolverConvergenceError) as err:
            solve_danm(G @ x, G, geom, cfg, noise_power=0.0)
        assert err.value.iterations == 3
        assert err.value.primal_residual > 0


_REAL_NON_FINITE = [math.nan, math.inf, -math.inf]
_NON_FINITE_INPUTS = [
    (name, bad)
    for name in ("z", "G", "noise_power")
    for bad in _REAL_NON_FINITE + ([] if name == "noise_power" else [complex(0.0, math.nan)])
]


class TestNonFiniteInput:
    """NaN or inf input is rejected up front, naming the argument."""

    def _inputs(self, name, bad):
        G = build_code_schedule(6, 4, seed=12).codes.astype(complex)
        z = G @ steering_vector(RisGeometry(2, 2), 60.0, 10.0)
        inputs = {"z": z, "G": G, "noise_power": 0.1}
        if name == "noise_power":
            inputs[name] = bad
        else:
            inputs[name].flat[1] = bad
        return inputs

    @pytest.mark.parametrize("mode", ["noise-ball", "regularized"])
    @pytest.mark.parametrize("name,bad", _NON_FINITE_INPUTS)
    def test_decoupled(self, mode, name, bad):
        inputs = self._inputs(name, bad)
        with pytest.raises(DegenerateInputError, match=f"^{name} "):
            solve_danm(geom=RisGeometry(2, 2), config=SolverConfig(mode=mode), **inputs)

    @pytest.mark.parametrize("mode", ["noise-ball", "regularized"])
    @pytest.mark.parametrize("name,bad", _NON_FINITE_INPUTS)
    def test_full_denoise(self, mode, name, bad):
        inputs = self._inputs(name, bad)
        with pytest.raises(DegenerateInputError, match=f"^{name} "):
            solve_full_anm(RisGeometry(2, 2), SolverConfig(mode=mode), **inputs)

    @pytest.mark.parametrize("bad", _REAL_NON_FINITE + [complex(0.0, math.nan)])
    def test_full_atomic(self, bad):
        x = np.ones(4, dtype=complex)
        x[2] = bad
        with pytest.raises(DegenerateInputError, match="^x "):
            solve_full_anm(RisGeometry(2, 2), x=x)


@pytest.mark.parametrize("mode", ["noise-ball", "regularized"])
@pytest.mark.parametrize("program", ["danm", "full"])
def test_negative_noise_power_rejected(program, mode):
    # once clamped to a zero ball radius or a zero trace weight without a word
    geom, G, z = _full_denoise_problem()
    config = SolverConfig(mode=mode)
    solve = {
        "danm": partial(solve_danm, z, G, geom, config),
        "full": partial(solve_full_anm, geom, config, z=z, G=G),
    }[program]
    with pytest.raises(ConfigError, match="noise_power"):
        solve(noise_power=-1e-3)


class TestFullSolver:
    def test_zero_target(self):
        geom = RisGeometry(2, 3)
        vars = solve_full_anm(geom, x=np.zeros(6))
        assert vars.diagnostics.trace_objective < 1e-8

    def test_unit_atom_has_unit_value(self):
        geom = RisGeometry(3, 3)
        value = atomic_norm(unit_vec_atom(geom, 0.7, -0.3), geom)
        assert value == pytest.approx(1.0, abs=1e-2)

    def test_weighted_pair_value(self):
        geom = RisGeometry(4, 4)
        x = 2.0 * unit_vec_atom(geom, 0.8, -0.6) + 3.0 * np.exp(-0.4j) * unit_vec_atom(
            geom, -0.4, 0.55
        )
        assert atomic_norm(x, geom) == pytest.approx(5.0, rel=2e-2)

    def test_homogeneity(self):
        geom = RisGeometry(3, 3)
        rng = np.random.default_rng(9)
        x = _rand_complex(rng, 9)
        assert atomic_norm(2.0 * x, geom) == pytest.approx(2.0 * atomic_norm(x, geom), rel=1e-3)

    @pytest.mark.parametrize("scale", [1e-4, 1e-7, 1e-8, 1e-12, 1e6])
    def test_homogeneity_holds_for_tiny_responses(self, scale):
        # a zero noise ball fits x exactly at every scale, however small ||x|| is
        geom = RisGeometry(3, 3)
        x = _rand_complex(np.random.default_rng(9), 9)
        value = atomic_norm(scale * x, geom)
        assert value == pytest.approx(scale * atomic_norm(x, geom), rel=1e-3)

    def test_matches_decoupled_objective(self):
        geom = RisGeometry(3, 4)
        x = 1.0 * unit_vec_atom(geom, -0.55, 0.6) + 2.0 * np.exp(0.3j) * unit_vec_atom(
            geom, 0.5, -0.35
        )
        full = solve_full_anm(geom, x=x)
        dec = solve_danm(x, np.eye(12), geom, noise_power=0.0)
        assert full.diagnostics.trace_objective == pytest.approx(3.0, rel=2e-2)
        assert dec.diagnostics.trace_objective == pytest.approx(3.0, rel=2e-2)

    def test_atomic_norm_ignores_the_configured_mode(self):
        # the x route is always the noise-ball solve of z = x through G = I
        geom = RisGeometry(3, 4)
        x = unit_vec_atom(geom, -0.55, 0.6) + 2.0 * np.exp(0.3j) * unit_vec_atom(geom, 0.5, -0.35)
        ball = solve_full_anm(geom, x=x)
        regularized = solve_full_anm(geom, SolverConfig(mode="regularized"), x=x)
        for a, b in ((ball.T, regularized.T), (ball.x, regularized.x)):
            assert a.tobytes() == b.tobytes()
        assert repr(ball.t) == repr(regularized.t)
        assert ball.diagnostics == regularized.diagnostics

    def test_denoise_mode_recovers_target(self):
        geom = RisGeometry(3, 3)
        G = build_code_schedule(12, 9, seed=10).codes
        x = steering_vector(geom, 65.0, -20.0)
        cfg = SolverConfig(mode="regularized", alpha=1e-3)
        vars = solve_full_anm(geom, cfg, z=G @ x, G=G)
        rel = np.linalg.norm(vars.x - x) / np.linalg.norm(x)
        assert rel < 1e-2

    def test_size_cap(self):
        geom = RisGeometry(17, 16)
        with pytest.raises(SizeCapError):
            solve_full_anm(geom, x=np.zeros(272))

    def test_argument_validation(self):
        geom = RisGeometry(2, 2)
        with pytest.raises(ValueError):
            solve_full_anm(geom)
        with pytest.raises(ValueError):
            solve_full_anm(geom, x=np.zeros(4), z=np.zeros(4), G=np.eye(4))
        # x with only half of the observation pair is refused, not ignored
        with pytest.raises(ValueError):
            solve_full_anm(geom, x=np.zeros(4), z=np.ones(7))
        with pytest.raises(ValueError):
            solve_full_anm(geom, x=np.zeros(4), G=np.eye(3))


def _desk_problem(seed: int, snr_db: float):
    """A seeded two-source snapshot on the 8 x 8 desk surface with 96 codes."""
    geom = RisGeometry(8, 8)
    sched = build_code_schedule(96, geom.n_elements, seed=5)
    rng = np.random.default_rng(seed)
    src = SourceSet(
        elevations_deg=np.array([40.0, 70.0]) + 10.0 * rng.random(2),
        azimuths_deg=np.array([-30.0, 10.0]) + 15.0 * rng.random(2),
        amplitudes=np.array([1.0, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))]),
    )
    snap = synthesize_ideal(geom, sched, src, snr_db=snr_db, seed=seed)
    return snap.samples, sched.codes, geom, snap.noise_power * snap.samples.size


def _bordered(sol) -> np.ndarray:
    """The solution's bordered matrix, for either program."""
    if hasattr(sol, "X"):
        return np.block([[sol.T_x, sol.X], [sol.X.conj().T, sol.T_y]])
    return np.block([[sol.T, sol.x[:, None]], [sol.x.conj()[None, :], np.array([[sol.t]])]])


def _relative_distance(a, b) -> float:
    A, B = _bordered(a), _bordered(b)
    return float(np.linalg.norm(A - B) / np.linalg.norm(B))


def _full_denoise_problem():
    """The 3 x 3 full program of test_denoise_mode_recovers_target; its rho is rescaled down."""
    geom = RisGeometry(3, 3)
    G = build_code_schedule(12, 9, seed=10).codes
    return geom, G, G @ steering_vector(geom, 65.0, -20.0)


class TestAndersonAcceleration:
    @pytest.mark.parametrize("coefficients", ["misleading", "oversized", "failed solve"])
    def test_bad_extrapolation_is_refused_and_the_solve_still_agrees(self, monkeypatch, coefficients):
        z, G, geom, budget = _desk_problem(0, 20.0)
        config = SolverConfig()
        unforced = solve_danm(z, G, geom, config, noise_power=budget)
        weights = anm._anderson_weights
        memory = []

        def forced(gram, rhs):
            memory.append(gram.shape[0])
            if len(memory) > 5 or coefficients == "failed solve":
                return weights(gram, rhs)
            if coefficients == "misleading":  # within the cap; only the residual check can refuse it
                return np.full(gram.shape[0], -50.0)
            return np.full(gram.shape[0], 1e5)

        def failing_cholesky(a, b):  # LAPACK's report of a nonpositive pivot
            return (a, b, 1) if len(memory) <= 5 else dposv(a, b)

        if coefficients == "failed solve":
            monkeypatch.setattr(anm, "dposv", failing_cholesky)

        taken = []
        step = anm._Anderson.step

        def watched(self, g, f):
            calls = len(memory)
            extrapolated = step(self, g, f)
            if calls < len(memory) <= 5:
                taken.append(extrapolated is not None)
            return extrapolated

        monkeypatch.setattr(anm, "_anderson_weights", forced)
        monkeypatch.setattr(anm._Anderson, "step", watched)
        sol = solve_danm(z, G, geom, config, noise_power=budget)
        d = sol.diagnostics
        # oversized or missing coefficients are refused before the point is
        # evaluated; a misleading extrapolation is taken, then undone
        assert taken == [coefficients == "misleading"] * 5
        assert d.anderson_rejections == 5
        # each refusal clears the history, so the next extrapolation has one difference
        assert memory[:6] == [1] * 6
        assert _relative_distance(sol, unforced) <= config.tolerance

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_rescaled_rho_restarts_with_empty_history(self, monkeypatch, direction):
        events = []
        weights = anm._anderson_weights
        step = anm._structure_step

        def record_memory(gram, rhs):
            events.append(("memory", gram.shape[0]))
            return weights(gram, rhs)

        def record_rho(V, rho, *args):
            events.append(("rho", rho))
            return step(V, rho, *args)

        monkeypatch.setattr(anm, "_anderson_weights", record_memory)
        monkeypatch.setattr(anm, "_structure_step", record_rho)
        if direction == "up":
            z, G, geom, budget = _desk_problem(2, 30.0)
            sol = solve_danm(z, G, geom, noise_power=budget)
        else:
            geom, G, z = _full_denoise_problem()
            sol = solve_full_anm(geom, SolverConfig(mode="regularized", alpha=1e-3), z=z, G=G)
        start = next(v for k, v in events if k == "rho")
        assert (sol.diagnostics.rho_final > start) == (direction == "up")
        rho, memory, before_rescales = start, 0, []
        for i, (kind, value) in enumerate(events):
            if kind == "memory":
                memory = value
            elif value != rho:
                rho = value
                before_rescales.append(memory)
                # the first extrapolation under the new rho sees one difference
                assert next(v for k, v in events[i:] if k == "memory") == 1
        assert len(before_rescales) >= 2 and max(before_rescales) > 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
    def test_desk_solution_is_near_a_tight_tolerance_solution(self, seed, snr_db):
        z, G, geom, budget = _desk_problem(seed, snr_db)
        default = solve_danm(z, G, geom, noise_power=budget)
        tight = solve_danm(z, G, geom, SolverConfig(tolerance=1e-10), noise_power=budget)
        assert default.diagnostics.anderson_steps > 0
        assert _relative_distance(default, tight) < 1e-4

    @pytest.mark.parametrize("mode", ["noise-ball", "regularized"])
    def test_full_solution_is_near_a_tight_tolerance_solution(self, mode):
        geom = RisGeometry(3, 3)
        G = build_code_schedule(12, 9, seed=10).codes
        x = steering_vector(geom, 65.0, -20.0) + 0.7 * steering_vector(geom, 110.0, 25.0)
        noise = 0.05 * _rand_complex(np.random.default_rng(3), 12)
        power = float(np.vdot(noise, noise).real)
        solve = partial(solve_full_anm, geom, z=G @ x + noise, G=G, noise_power=power)
        default = solve(SolverConfig(mode=mode))
        tight = solve(SolverConfig(mode=mode, tolerance=1e-10))
        assert _relative_distance(default, tight) < 1e-4

    def test_bench_full_shape_is_near_a_tight_tolerance_solution(self):
        # the 8 x 8 regularized full program of the bench-full workload, PSD side 65
        z, G, geom, budget = _desk_problem(4, 10.0)
        solve = partial(solve_full_anm, geom, z=z, G=G, noise_power=budget)
        default = solve(SolverConfig(mode="regularized"))
        tight = solve(SolverConfig(mode="regularized", tolerance=1e-10))
        assert default.T.shape == (64, 64) and default.diagnostics.anderson_steps > 0
        assert default.diagnostics.iterations <= 700  # 892 when rho started at 1
        assert _relative_distance(default, tight) < 1e-4

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
    def test_bench_full_shape_angles_match_a_tight_tolerance_solve(self, snr_db):
        # the accuracy gate of a solver change: the angles extracted from a
        # default-tolerance solve of the regularized 8 x 8 full program stay
        # within 5e-3 degrees of those of a tolerance-1e-10 solve
        z, G, geom, budget = _desk_problem(7, snr_db)
        solve = partial(solve_full_anm, geom, z=z, G=G, noise_power=budget)
        default, tight = (
            estimate_from_full(solve(SolverConfig(mode="regularized", tolerance=tol)), geom, 2)
            for tol in (1e-6, 1e-10)
        )
        # each is (elevations, azimuths)
        np.testing.assert_allclose(default, tight, rtol=0.0, atol=5e-3)


def _start_rho(monkeypatch, solve):
    """The step size of a solve's first structure step, and the solution."""
    rhos = []
    step = anm._structure_step

    def record_rho(v, rho, *args):
        rhos.append(rho)
        return step(v, rho, *args)

    monkeypatch.setattr(anm, "_structure_step", record_rho)
    solution = solve()
    return rhos[0], solution


def _curvature_scale(G) -> float:
    """s_min s_max / 2 over the nonzero singular values of G."""
    s = np.linalg.svd(G, compute_uv=False)
    s = s[s > s[0] * 1e-12]
    return s[0] * s[-1] / 2.0


class TestStepSizeStart:
    """Where rho starts: regularized solves at the data term's curvature scale.

    A known noise power P multiplies that by sqrt(||z|| / sqrt(P)); an
    explicit alpha without P, a zero z and P = 0 keep the curvature scale.
    The noise-ball coupling starts at 1, the atomic norm's solve included.
    """

    @pytest.mark.parametrize("program", ["danm", "full"])
    def test_regularized_starts_at_the_curvature_scale(self, monkeypatch, program):
        geom, G, z = _full_denoise_problem()
        config = SolverConfig(mode="regularized", alpha=1e-3)
        solve = {
            "danm": partial(solve_danm, z, G, geom, config),
            "full": partial(solve_full_anm, geom, config, z=z, G=G),
        }[program]
        rho, _ = _start_rho(monkeypatch, solve)
        assert rho == pytest.approx(_curvature_scale(G), rel=1e-12)
        assert rho != 1.0

    @pytest.mark.parametrize("alpha", [None, 1e-3])
    @pytest.mark.parametrize("program", ["danm", "full"])
    def test_known_noise_power_scales_the_start_by_the_root_snr(self, monkeypatch, program, alpha):
        geom, G, z = _full_denoise_problem()
        power = 1e-2
        config = SolverConfig(mode="regularized", alpha=alpha)
        solve = {
            "danm": partial(solve_danm, z, G, geom, config, noise_power=power),
            "full": partial(solve_full_anm, geom, config, z=z, G=G, noise_power=power),
        }[program]
        rho, _ = _start_rho(monkeypatch, solve)
        factor = math.sqrt(np.linalg.norm(z) / math.sqrt(power))
        assert rho == pytest.approx(_curvature_scale(G) * factor, rel=1e-12)
        assert factor > 2.0

    @pytest.mark.parametrize("z_scale,power", [(0.0, 1e-2), (1.0, 0.0)], ids=["zero z", "zero noise"])
    @pytest.mark.parametrize("program", ["danm", "full"])
    def test_zero_data_or_noise_keeps_the_curvature_start(self, monkeypatch, program, z_scale, power):
        geom, G, z = _full_denoise_problem()
        config = SolverConfig(mode="regularized")
        solve = {
            "danm": partial(solve_danm, z_scale * z, G, geom, config, noise_power=power),
            "full": partial(solve_full_anm, geom, config, z=z_scale * z, G=G, noise_power=power),
        }[program]
        rho, _ = _start_rho(monkeypatch, solve)
        assert rho == pytest.approx(_curvature_scale(G), rel=1e-12)

    @pytest.mark.parametrize("program", ["danm", "full", "atomic"])
    def test_ball_and_atomic_couplings_start_at_one(self, monkeypatch, program):
        geom, G, z = _full_denoise_problem()
        solve = {
            "danm": partial(solve_danm, z, G, geom, noise_power=1e-4),
            "full": partial(solve_full_anm, geom, z=z, G=G, noise_power=1e-4),
            "atomic": partial(solve_full_anm, geom, x=np.linalg.lstsq(G, z, rcond=None)[0]),
        }[program]
        assert _start_rho(monkeypatch, solve)[0] == 1.0

    def test_only_nonzero_singular_values_count(self, monkeypatch):
        geom = RisGeometry(3, 3)
        rng = np.random.default_rng(21)
        G = _rand_complex(rng, 12, 4) @ _rand_complex(rng, 4, 9)  # rank 4 of 9
        z = G @ steering_vector(geom, 65.0, -20.0)
        config = SolverConfig(mode="regularized", alpha=1e-3)
        rho, _ = _start_rho(monkeypatch, partial(solve_full_anm, geom, config, z=z, G=G))
        s = np.linalg.svd(G, compute_uv=False)
        assert rho == pytest.approx(s[0] * s[3] / 2.0, rel=1e-12)
        assert rho > 1e3 * s[0] * s[-1]  # the zero singular values are left out

    def test_zero_code_matrix_solves_from_one(self, monkeypatch):
        geom = RisGeometry(3, 3)
        z = steering_vector(geom, 65.0, -20.0)
        config = SolverConfig(mode="regularized", alpha=1e-3)
        solve = partial(solve_full_anm, geom, config, z=z, G=np.zeros((9, 9)))
        rho, sol = _start_rho(monkeypatch, solve)
        assert rho == 1.0
        assert np.linalg.norm(sol.x) < 1e-6

    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.sampled_from([(3, 3), (3, 4), (4, 4)]),
        program=st.sampled_from(["danm", "full"]),
        seed=st.integers(0, 2**16),
        k=st.integers(-6, 6),
    )
    @example(shape=(4, 4), program="full", seed=6912, k=-3)  # took 388 and 444 iterations once
    def test_scaled_data_scales_the_solution(self, shape, program, seed, k):
        # z -> 2^k z and noise_power -> 4^k noise_power scale the trace weight
        # by 2^k, leave G and the ratio ||z|| / sqrt(noise_power) alone, so
        # no absolute scale may enter the solve. The PSD projection scales
        # exactly by powers of two, and so does every other step, so the
        # solve is bit for bit 2^k times the unscaled one. A rho start that
        # grew with ||z|| alone failed 76 of 100 random examples.
        geom = RisGeometry(*shape)
        mn = geom.n_elements
        rng = np.random.default_rng(seed)
        G = build_code_schedule(mn + 3, mn, seed=seed).codes
        x = steering_vector(geom, 50.0, -12.0) + 0.6 * steering_vector(geom, 105.0, 18.0)
        noise = 0.05 * _rand_complex(rng, mn + 3)
        power = float(np.vdot(noise, noise).real)
        config = SolverConfig(mode="regularized")

        def solve(scale):
            z, noise_power = scale * (G @ x + noise), scale**2 * power
            if program == "danm":
                return solve_danm(z, G, geom, config, noise_power=noise_power)
            return solve_full_anm(geom, config, z=z, G=G, noise_power=noise_power)

        base, scaled = solve(1.0), solve(2.0**k)
        assert scaled.diagnostics.iterations == base.diagnostics.iterations
        assert np.array_equal(_bordered(scaled), 2.0**k * _bordered(base))


def _pinned_solves():
    """Every (program, mode) pair on seeded problems of side up to 4x4.

    Yields one label and one solution per solve; the solution's arrays and
    diagnostics are what the byte pin below hashes.
    """
    cfg = dict(tolerance=1e-5)
    for seed, (rows, cols) in enumerate([(3, 3), (3, 4), (4, 4)]):
        geom = RisGeometry(rows, cols)
        mn = rows * cols
        rng = np.random.default_rng(100 + seed)
        G = build_code_schedule(mn + 3, mn, seed=200 + seed).codes
        x = steering_vector(geom, 50.0 + 7 * seed, -12.0 + 5 * seed) + 0.6 * steering_vector(
            geom, 105.0 - 4 * seed, 18.0
        )
        noise = 0.05 * _rand_complex(rng, mn + 3)
        z = G @ x + noise
        power = float(np.vdot(noise, noise).real)
        # the regularized trace weight comes from noise_power or from a fixed alpha
        for mode, alpha in (("noise-ball", None), ("regularized", None), ("regularized", 0.05)):
            config = SolverConfig(mode=mode, alpha=alpha, **cfg)
            label = f"{mode} alpha={alpha}"
            yield f"danm {label}", solve_danm(z, G, geom, config, noise_power=power)
            yield f"full {label}", solve_full_anm(geom, config, z=z, G=G, noise_power=power)
        yield "full atomic", solve_full_anm(geom, SolverConfig(**cfg), x=x)


def _solution_digest(solves) -> str:
    digest = hashlib.sha256()
    for label, sol in solves:
        digest.update(label.encode())
        arrays = (sol.T_x, sol.T_y, sol.X) if hasattr(sol, "X") else (sol.T, sol.x)
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())
        if hasattr(sol, "t"):
            digest.update(repr(sol.t).encode())
        d = sol.diagnostics
        kept = (
            d.iterations,
            d.trace_objective,
            d.rho_final,
            d.root_solves,
            d.secular_evaluations,
            d.brentq_fallbacks,
            d.anderson_steps,
            d.anderson_rejections,
        )
        digest.update(repr(kept).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def pinned_solves():
    return list(_pinned_solves())


# one digest per mode, so a change to one coupling shows which pins it moved
_PINNED_DIGESTS = {
    "noise-ball": "c22cc01d6eaa4b39621fb9be8fb8e1d088fc4d182cb406b29f6525350bf2d718",
    "regularized": "5e2709ec216e7d89e7a4856a2b10810e2c98dbfb1e566a4749b854e59e7ad6ec",
    "atomic": "c4301a75506bea0bd9f3aa2d0c059680146c3cf13541e5f2cd9fd7665696b0a3",
}


@pytest.mark.parametrize("mode", list(_PINNED_DIGESTS))
def test_every_solver_path_is_byte_pinned(pinned_solves, mode):
    # decoupled and full programs in both denoise modes plus the atomic mode;
    # a refactor of the splitting code must leave every bit of them alone
    solves = [(label, sol) for label, sol in pinned_solves if mode in label]
    assert _solution_digest(solves) == _PINNED_DIGESTS[mode]
