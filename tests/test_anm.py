import math
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
        "7cc5a7efd062bdbb27d5cca6609d7946a70dd760886ced4fa6e8dd6c94a3002b"
    )
