import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risdoa.anm import (
    DecoupledSdpVars,
    FullSdpVars,
    SolverDiagnostics,
    solve_danm,
    solve_full_anm,
    toeplitz_from_atoms,
)
from risdoa.errors import DegenerateInputError, EndfirePoleError
from risdoa.extraction import (
    estimate_doa,
    estimate_from_full,
    freqs_to_angles,
    pair_frequencies,
    pairing_scores,
    toeplitz_to_freqs,
)
from risdoa.model import (
    RisGeometry,
    SourceSet,
    angle_frequencies,
    axis_atom,
    build_code_schedule,
    synthesize_ideal,
)

_DUMMY_DIAG = SolverDiagnostics(iterations=0, trace_objective=0.0, rho_final=1.0)


def _rank_one_X(geom, f_pairs, weights):
    X = np.zeros((geom.rows, geom.cols), dtype=complex)
    for (f_r, f_c), w in zip(f_pairs, weights):
        u = axis_atom(f_r, geom.rows, geom.row_spacing)
        v = axis_atom(f_c, geom.cols, geom.col_spacing)
        X += w * np.outer(u, v)
    return X


class TestToeplitzToFreqs:
    def test_all_ones_is_dc(self):
        f = toeplitz_to_freqs(np.ones(6), 1, spacing=0.5)
        assert f[0] == pytest.approx(0.0, abs=1e-10)

    def test_single_frequency_exact(self):
        T = toeplitz_from_atoms([0.5], [1.0], dim=8, spacing=0.4)
        f = toeplitz_to_freqs(T[:, 0], 1, spacing=0.4)
        assert f[0] == pytest.approx(0.5, abs=1e-9)

    def test_two_frequencies_with_unequal_weights(self):
        T = toeplitz_from_atoms([0.2, 0.35], [1.0, 2.0], dim=8, spacing=0.4)
        f = toeplitz_to_freqs(T[:, 0], 2, spacing=0.4)
        np.testing.assert_allclose(f, [0.2, 0.35], atol=1e-8)

    def test_negative_frequency_sign(self):
        T = toeplitz_from_atoms([-0.4], [1.0], dim=6, spacing=0.5)
        f = toeplitz_to_freqs(T[:, 0], 1, spacing=0.5)
        assert f[0] == pytest.approx(-0.4, abs=1e-9)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateInputError):
            toeplitz_to_freqs(np.zeros(6), 2, spacing=0.5)

    def test_too_many_freqs_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_to_freqs(np.eye(4)[:, 0], 4, spacing=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_lags_degenerate(self, bad):
        lags = toeplitz_from_atoms([0.3], [1.0], dim=6)[:, 0]
        lags[2] = bad
        with pytest.raises(DegenerateInputError, match="finite"):
            toeplitz_to_freqs(lags, 1, spacing=0.5)

    def test_matrix_argument_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            toeplitz_to_freqs(np.ones((6, 6)), 1, spacing=0.5)


class TestFreqsToAngles:
    def test_broadside(self):
        theta, phi = freqs_to_angles(0.0, 0.0)
        assert theta == pytest.approx(90.0)
        assert phi == pytest.approx(0.0)

    def test_known_pair(self):
        theta, phi = freqs_to_angles(0.5, 0.4330)
        assert theta == pytest.approx(60.0, abs=1e-2)
        assert phi == pytest.approx(30.0, abs=1e-2)

    def test_boundary_azimuth(self):
        theta, phi = freqs_to_angles(0.5, np.sin(np.arccos(0.5)))
        assert phi == pytest.approx(90.0)

    def test_overshoot_is_clamped(self):
        _, phi = freqs_to_angles(0.5, 1.01 * np.sin(np.arccos(0.5)))
        assert phi == pytest.approx(90.0)

    def test_endfire_pole(self):
        with pytest.raises(EndfirePoleError):
            freqs_to_angles(1.0, 0.0)

    def test_row_frequency_out_of_range(self):
        with pytest.raises(ValueError):
            freqs_to_angles(1.5, 0.0)

    @pytest.mark.parametrize("f_row, f_col", [(np.nan, 0.0), (0.5, np.nan), (0.5, np.inf)])
    def test_non_finite_frequency_rejected(self, f_row, f_col):
        with pytest.raises(ValueError):
            freqs_to_angles(f_row, f_col)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=5.0, max_value=175.0),
        st.floats(min_value=-85.0, max_value=85.0),
    )
    def test_round_trip(self, theta, phi):
        f_r, f_c = angle_frequencies(theta, phi)
        t2, p2 = freqs_to_angles(f_r, f_c)
        assert t2 == pytest.approx(theta, abs=1e-9)
        assert p2 == pytest.approx(phi, abs=1e-9)


class TestPairing:
    GEOM = RisGeometry(5, 6)

    def test_rank_two_truth(self):
        f_pairs = [(0.7, -0.3), (-0.2, 0.5)]
        X = _rank_one_X(self.GEOM, f_pairs, [1.0, 0.8])
        pairs = pair_frequencies([0.7, -0.2], [-0.3, 0.5], X, self.GEOM)
        assert set(pairs) == {(0, 0), (1, 1)}

    def test_crossed_lists(self):
        f_pairs = [(0.7, -0.3), (-0.2, 0.5)]
        X = _rank_one_X(self.GEOM, f_pairs, [1.0, 0.8])
        pairs = pair_frequencies([-0.2, 0.7], [-0.3, 0.5], X, self.GEOM)
        assert set(pairs) == {(0, 1), (1, 0)}

    def test_single_pair(self):
        X = _rank_one_X(self.GEOM, [(0.4, 0.1)], [2.0])
        assert pair_frequencies([0.4], [0.1], X, self.GEOM) == [(0, 0)]

    def test_estimate_scores_each_pairing_once(self, monkeypatch):
        from risdoa import extraction

        calls = []
        original = extraction.pairing_scores

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(extraction, "pairing_scores", counted)
        X = _rank_one_X(self.GEOM, [(0.7, -0.3), (-0.2, 0.5)], [1.0, 0.8])
        extraction._assemble_estimate([0.7, -0.2], [-0.3, 0.5], X, self.GEOM)
        assert len(calls) == 1

    def test_scores_peak_on_truth(self):
        X = _rank_one_X(self.GEOM, [(0.6, -0.4)], [1.0])
        S = pairing_scores([0.6, -0.5], [-0.4, 0.3], X, self.GEOM)
        assert S[0, 0] == pytest.approx(30.0, rel=1e-9)
        assert S[0, 0] > 2.0 * max(S[0, 1], S[1, 0], S[1, 1])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), rows=st.integers(1, 4), cols=st.integers(1, 4))
    def test_scores_match_one_response_per_pair(self, seed, rows, cols):
        # the reference takes |u^H X w| one pair at a time; the product sums
        # in another order, so agreement is to rounding of the M N terms
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
        f_rows, f_cols = rng.uniform(-1.0, 1.0, rows), rng.uniform(-1.0, 1.0, cols)
        expected = [
            [
                abs(axis_atom(f_r, 5, self.GEOM.row_spacing).conj() @ X
                    @ axis_atom(f_c, 6, self.GEOM.col_spacing).conj())
                for f_c in f_cols
            ]
            for f_r in f_rows
        ]
        S = pairing_scores(f_rows, f_cols, X, self.GEOM)
        atol = 4 * X.size * np.finfo(float).eps * np.abs(X).sum()
        np.testing.assert_allclose(S, expected, rtol=0.0, atol=atol)


class TestManufacturedSolutions:
    """Construction oracles pin the sign conventions of both solver outputs."""

    def test_decoupled_conventions(self):
        geom = RisGeometry(6, 7)
        f_rows = [0.25, -0.55]
        f_cols = [-0.35, 0.6]
        weights = [1.0, 2.0]
        T_x = toeplitz_from_atoms(f_rows, weights, geom.rows, geom.row_spacing)
        # the column factor of X is conjugated, so T_y carries conjugated atoms
        T_y = toeplitz_from_atoms(f_cols, weights, geom.cols, geom.col_spacing).conj()
        X = _rank_one_X(geom, list(zip(f_rows, f_cols)), weights)
        vars = DecoupledSdpVars(T_x=T_x, T_y=T_y, X=X, diagnostics=_DUMMY_DIAG)
        els, azs = estimate_doa(vars, geom, 2)
        expected = sorted(
            freqs_to_angles(f_r, f_c) for f_r, f_c in zip(f_rows, f_cols)
        )
        np.testing.assert_allclose(els, [e[0] for e in expected], atol=1e-6)
        np.testing.assert_allclose(azs, [e[1] for e in expected], atol=1e-6)

    def test_full_marginal_conventions(self):
        # a rectangular grid, so the row and column lag strides differ
        geom = RisGeometry(4, 6)
        f_rows = [0.3, -0.45]
        f_cols = [0.5, -0.15]
        weights = [1.5, 1.0]
        T = np.zeros((24, 24), dtype=complex)
        x = np.zeros(24, dtype=complex)
        for f_r, f_c, w in zip(f_rows, f_cols, weights):
            vec = np.kron(
                axis_atom(f_r, 4, geom.row_spacing), axis_atom(f_c, 6, geom.col_spacing)
            )
            T += w * np.outer(vec, vec.conj())
            x += w * vec
        vars = FullSdpVars(T=T, t=sum(weights), x=x, diagnostics=_DUMMY_DIAG)
        els, azs = estimate_from_full(vars, geom, 2)
        expected = sorted(
            freqs_to_angles(f_r, f_c) for f_r, f_c in zip(f_rows, f_cols)
        )
        np.testing.assert_allclose(els, [e[0] for e in expected], atol=1e-6)
        np.testing.assert_allclose(azs, [e[1] for e in expected], atol=1e-6)


class TestEndToEnd:
    def _solve(self, sources, geom, n_samples, seed):
        sched = build_code_schedule(n_samples, geom.n_elements, seed=seed)
        snap = synthesize_ideal(geom, sched, sources, snr_db=np.inf, seed=seed)
        return solve_danm(snap.samples, sched.codes, geom, noise_power=0.0)

    def test_noiseless_two_source_recovery(self):
        geom = RisGeometry(8, 8)
        src = SourceSet([40.0, 70.0], [-20.0, 25.0], [1.0 + 0.3j, -0.6 + 0.8j])
        vars = self._solve(src, geom, 64, seed=0)
        els, azs = estimate_doa(vars, geom, 2)
        np.testing.assert_allclose(els, [40.0, 70.0], atol=0.1)
        np.testing.assert_allclose(azs, [-20.0, 25.0], atol=0.1)

    def test_source_order_invariance(self):
        geom = RisGeometry(8, 8)
        a = SourceSet([40.0, 70.0], [-20.0, 25.0], [1.0, 1.0j])
        b = SourceSet([70.0, 40.0], [25.0, -20.0], [1.0j, 1.0])
        els_a, azs_a = estimate_doa(self._solve(a, geom, 64, seed=1), geom, 2)
        els_b, azs_b = estimate_doa(self._solve(b, geom, 64, seed=1), geom, 2)
        np.testing.assert_allclose(els_a, els_b, atol=1e-6)
        np.testing.assert_allclose(azs_a, azs_b, atol=1e-6)

    def test_full_pipeline_small_grid(self):
        geom = RisGeometry(4, 4)
        src = SourceSet([30.0, 100.0], [-40.0, 30.0], [1.0, 1.0 + 0.5j])
        sched = build_code_schedule(16, 16, seed=2)
        snap = synthesize_ideal(geom, sched, src, snr_db=np.inf, seed=2)
        vars = solve_full_anm(geom, z=snap.samples, G=sched.codes, noise_power=0.0)
        els, azs = estimate_from_full(vars, geom, 2)
        np.testing.assert_allclose(els, [30.0, 100.0], atol=0.1)
        np.testing.assert_allclose(azs, [-40.0, 30.0], atol=0.1)
