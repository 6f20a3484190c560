import math
import hashlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dposv
from scipy.optimize import brentq

from risdoa import anm
from risdoa.anm import (
    AtomicDecomposition,
    SolverConfig,
    atomic_norm,
    full_toeplitz_marginals,
    project_block_toeplitz,
    project_psd,
    project_toeplitz_hermitian,
    solve_danm,
    solve_full_anm,
    toeplitz_from_atoms,
    unit_matrix_atom,
    unit_vec_atom,
    vandermonde_decompose,
    write_residual_history,
)
from risdoa.errors import (
    ConfigError,
    DegenerateInputError,
    InfeasibleConstraintError,
    SizeCapError,
    SolverConvergenceError,
)
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


class TestPsdProjection:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(3)
        B = _rand_complex(rng, 5, 5)
        A = B @ B.conj().T
        np.testing.assert_allclose(project_psd(A), A, atol=1e-10)

    def test_eigen_clip_oracle(self):
        # build a Hermitian matrix with known eigenvalues, clip by hand
        rng = np.random.default_rng(4)
        B = _rand_complex(rng, 4, 4)
        V, _ = np.linalg.qr(B)
        lam = np.array([2.0, 0.5, -0.25, -3.0])
        A = (V * lam) @ V.conj().T
        expected = (V * np.maximum(lam, 0.0)) @ V.conj().T
        np.testing.assert_allclose(project_psd(A), expected, atol=1e-10)

    def test_output_is_psd(self):
        rng = np.random.default_rng(5)
        A = _rand_complex(rng, 6, 6)
        lam = np.linalg.eigvalsh(project_psd(A))
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
        P = project_psd(A)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(P - expected) <= 1e-12 * scale
        assert np.array_equal(P, P.conj().T)
        assert np.linalg.eigvalsh(P)[0] >= -1e-12 * scale

    def test_negative_definite_gives_the_zero_matrix(self):
        rng = np.random.default_rng(6)
        B = _rand_complex(rng, 7, 7)
        P = project_psd(-(B @ B.conj().T) - 0.1 * np.eye(7))
        assert np.array_equal(P, np.zeros((7, 7)))

    def test_positive_definite_is_kept_whole(self):
        rng = np.random.default_rng(7)
        B = _rand_complex(rng, 9, 9)
        A = B @ B.conj().T + 0.1 * np.eye(9)
        assert np.linalg.norm(project_psd(A) - A) <= 1e-12 * np.linalg.norm(A)

    def test_exact_zero_eigenvalues(self):
        assert np.array_equal(project_psd(np.zeros((4, 4))), np.zeros((4, 4)))
        np.testing.assert_array_equal(
            project_psd(np.diag([2.0, 0.0, 0.0, -1.0])), np.diag([2.0, 0.0, 0.0, 0.0])
        )
        rng = np.random.default_rng(8)
        V, _ = np.linalg.qr(_rand_complex(rng, 5, 5))
        lam = np.array([1.5, 0.0, 0.0, -0.5, 0.7])
        expected = (V * np.maximum(lam, 0.0)) @ V.conj().T
        P = project_psd((V * lam) @ V.conj().T)
        assert np.linalg.norm(P - expected) <= 1e-12 * np.linalg.norm(lam)

    def test_eigensolver_failure_raises(self, monkeypatch):
        def failing(H, **kwargs):
            n = H.shape[0]
            return np.zeros(n), np.zeros((n, n), complex), 1, np.zeros(2 * n, np.int32), 1

        monkeypatch.setattr(anm, "zheevr", failing)
        with pytest.raises(DegenerateInputError, match=r"PSD projection.*info = 1"):
            project_psd(np.eye(3))
        # a solve stops with the error instead of returning a partial iterate
        geom = RisGeometry(2, 2)
        with pytest.raises(DegenerateInputError, match="PSD projection"):
            solve_danm(np.ones(4), np.eye(4), geom, noise_power=0.0)


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
            assert _small_danm().diagnostics.converged
        finally:
            anm._blas_thread_controls.cache_clear()
        # numpy's pool keeps its two threads throughout; scipy's is pinned
        assert seen and all(counts == [2, 1] for counts in seen)
        assert _thread_counts(blas_pools) == [2, 2]


class TestMarginals:
    def test_atom_construction_oracle(self):
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
        t_row, t_col = full_toeplitz_marginals(T, 3, 5)
        np.testing.assert_allclose(t_row, row_ref, atol=1e-12)
        np.testing.assert_allclose(t_col, col_ref, atol=1e-12)


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
        assert d.secular_evaluations <= 4 * d.root_solves
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
        U, s, Vh, V = anm._code_svd(G)
        for a in (U, s, Vh, V):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        np.testing.assert_allclose(U[:, :9] @ (s[:, None] * Vh), G, atol=1e-12)
        assert np.array_equal(V, Vh.conj().T)


class TestSolverConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(mode="magic")

    def test_bad_numbers_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(tolerance=0.0)


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
        vars = solve_danm(G @ x, G, geom, noise_power=0.0)
        rel = np.linalg.norm(vars.X.reshape(-1) - x) / np.linalg.norm(x)
        assert rel < 1e-3
        d = vars.diagnostics
        # tolerance is relative to the iterate scale, so is the cone violation
        assert d.converged and d.min_eigenvalue > -1e-5 * max(1.0, d.trace_objective)
        assert d.data_residual < 1e-6

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
        vars = solve_danm(G @ x + noise, G, geom, noise_power=budget)
        assert vars.diagnostics.data_residual <= math.sqrt(budget) + 1e-6

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

    def test_matches_decoupled_objective(self):
        geom = RisGeometry(3, 4)
        x = 1.0 * unit_vec_atom(geom, -0.55, 0.6) + 2.0 * np.exp(0.3j) * unit_vec_atom(
            geom, 0.5, -0.35
        )
        full = solve_full_anm(geom, x=x)
        dec = solve_danm(x, np.eye(12), geom, noise_power=0.0)
        assert full.diagnostics.trace_objective == pytest.approx(3.0, rel=2e-2)
        assert dec.diagnostics.trace_objective == pytest.approx(3.0, rel=2e-2)

    def test_denoise_mode_recovers_target(self):
        geom = RisGeometry(3, 3)
        G = build_code_schedule(12, 9, seed=10).codes
        x = steering_vector(geom, 65.0, -20.0)
        cfg = SolverConfig(mode="regularized", alpha=1e-3)
        vars = solve_full_anm(geom, cfg, z=G @ x, G=G)
        rel = np.linalg.norm(vars.x - x) / np.linalg.norm(x)
        assert rel < 1e-2

    def test_size_cap(self):
        geom = RisGeometry(9, 9)
        with pytest.raises(SizeCapError):
            solve_full_anm(geom, x=np.zeros(81))

    def test_argument_validation(self):
        geom = RisGeometry(2, 2)
        with pytest.raises(ValueError):
            solve_full_anm(geom)
        with pytest.raises(ValueError):
            solve_full_anm(geom, x=np.zeros(4), z=np.zeros(4), G=np.eye(4))


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
        assert d.converged and d.anderson_rejections == 5
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
        assert (sol.diagnostics.rho_final > 1.0) == (direction == "up")
        rho, memory, before_rescales = 1.0, 0, []
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


class TestDiagnosticsExport:
    def test_residual_history_csv(self, tmp_path):
        geom = RisGeometry(3, 3)
        G = build_code_schedule(9, 9, seed=11).codes
        x = steering_vector(geom, 75.0, 5.0)
        vars = solve_danm(G @ x, G, geom, noise_power=0.0)
        out = tmp_path / "resid.csv"
        write_residual_history(vars.diagnostics, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iteration,primal_residual,dual_residual"
        assert len(lines) >= 2


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
        digest.update(repr(d).encode())
        digest.update(repr(d.residual_history).encode())
    return digest.hexdigest()


def test_every_solver_path_is_byte_pinned():
    # decoupled and full programs in both denoise modes plus the atomic mode;
    # a refactor of the splitting code must leave every bit of them alone
    assert _solution_digest(_pinned_solves()) == (
        "96b32e67e1ab4b53f537fff70a4f51c645859cacda9f1266bde4a609e57de6b5"
    )
