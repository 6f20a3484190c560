"""Baseline estimator tests. The matched-filter peak value has a closed
form on clean data, the bound scales as sqrt with noise power, and the
refinement step has an exact quadratic oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from risdoa.baselines import (
    AngleGrid,
    _parabolic_offset,
    build_dictionary,
    crb_numeric,
    grid_estimate,
    grid_spectrum,
    matched_squared_error,
    omp_estimate,
    rmse_deg,
)
from risdoa.errors import DegenerateInputError, SingularFimError
from risdoa.model import (
    CodeSchedule,
    RisGeometry,
    SourceSet,
    build_code_schedule,
    steering_vector,
    synthesize_ideal,
)

GEOM = RisGeometry(8, 8)
SCHEDULE = build_code_schedule(64, GEOM.n_elements, seed=33)
BOX = ((20.0, 80.0), (-30.0, 30.0))  # the default SourceSpec angle box


def clean_snapshot(sources):
    return synthesize_ideal(GEOM, SCHEDULE, sources, snr_db=math.inf, seed=0)


class TestGrid:
    def test_from_ranges_includes_endpoints(self):
        grid = AngleGrid.from_ranges((20.0, 80.0), (-30.0, 30.0), 1.0)
        assert grid.elevations_deg[0] == 20.0 and grid.elevations_deg[-1] == 80.0
        assert grid.shape == (61, 61)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            AngleGrid.from_ranges(*BOX, 0.0)

    def test_dictionary_columns_are_code_responses(self):
        grid = AngleGrid(np.array([40.0, 60.0]), np.array([-10.0, 25.0]))
        d = build_dictionary(GEOM, SCHEDULE, grid)
        # column order is elevation-major: (40,-10), (40,25), (60,-10), (60,25)
        expected = SCHEDULE.codes.astype(complex) @ steering_vector(GEOM, 60.0, -10.0)
        np.testing.assert_allclose(d.matrix[:, 2], expected, atol=1e-12)
        np.testing.assert_allclose(d.norms, np.linalg.norm(d.matrix, axis=0))


class TestSpectrum:
    def test_peak_at_truth_with_closed_form_value(self):
        # matched filter on its own column: score = |c^H c s|^2/||c||^2
        # = ||c||^2 |s|^2 = ||z||^2 on clean data
        sources = SourceSet([40.0], [10.0], [1.0 + 0j])
        snap = clean_snapshot(sources)
        grid = AngleGrid.from_ranges((20.0, 80.0), (-30.0, 30.0), 1.0)
        spec = grid_spectrum(snap.samples, build_dictionary(GEOM, SCHEDULE, grid))
        i, j = np.unravel_index(np.argmax(spec), spec.shape)
        assert grid.point(i, j) == (40.0, 10.0)
        assert spec[i, j] == pytest.approx(np.linalg.norm(snap.samples) ** 2, rel=1e-10)

    def test_two_sources_give_two_nearby_peaks(self):
        # equal-power sources leak into each other through the aperture
        # sidelobes, so grid peaks land near, not on, the true cells
        sources = SourceSet([35.0, 65.0], [-15.0, 20.0], [1.0, 1.0])
        snap = clean_snapshot(sources)
        grid = AngleGrid.from_ranges(*BOX, 1.0)
        els, azs = grid_estimate(
            snap.samples, build_dictionary(GEOM, SCHEDULE, grid), 2, refine=False
        )
        for true_el, true_az in ((35.0, -15.0), (65.0, 20.0)):
            dist = np.hypot(els - true_el, azs - true_az)
            assert dist.min() < 2.5


class TestRefinement:
    def test_parabola_vertex_recovered_exactly(self):
        # s(x) = 1 - (x - 0.3)^2 sampled at -1, 0, 1
        s = lambda x: 1 - (x - 0.3) ** 2
        assert _parabolic_offset(s(-1), s(0), s(1)) == pytest.approx(0.3, abs=1e-12)

    def test_flat_or_rising_returns_zero(self):
        assert _parabolic_offset(1.0, 1.0, 1.0) == 0.0

    def test_offset_clipped_to_half_step(self):
        assert abs(_parabolic_offset(1.0, 1.001, 1.0009)) <= 0.5

    def test_off_grid_source_improves_with_refinement(self):
        sources = SourceSet([40.4], [9.7], [1.0 + 0j])
        snap = clean_snapshot(sources)
        d = build_dictionary(GEOM, SCHEDULE, AngleGrid.from_ranges(*BOX, 1.0))
        el_raw, az_raw = grid_estimate(snap.samples, d, 1, refine=False)
        el_ref, az_ref = grid_estimate(snap.samples, d, 1, refine=True)
        raw_err = math.hypot(el_raw[0] - 40.4, az_raw[0] - 9.7)
        ref_err = math.hypot(el_ref[0] - 40.4, az_ref[0] - 9.7)
        assert ref_err < raw_err
        assert ref_err < 0.5


class TestOmp:
    def test_weak_source_recovered_exactly_after_refit(self):
        # the strong source's atom is in the dictionary, so the noiseless
        # least-squares refit cancels it and the weak pick is exact
        sources = SourceSet([35.0, 65.0], [-15.0, 20.0], [1.0, 0.05j])
        snap = clean_snapshot(sources)
        d = build_dictionary(GEOM, SCHEDULE, AngleGrid.from_ranges(*BOX, 1.0))
        els, azs = omp_estimate(snap.samples, d, 2)
        np.testing.assert_array_equal(els, [35.0, 65.0])
        np.testing.assert_array_equal(azs, [-15.0, 20.0])

    def test_equal_power_sources_found_nearby(self):
        sources = SourceSet([35.0, 65.0], [-15.0, 20.0], [1.0, 1.0])
        snap = clean_snapshot(sources)
        d = build_dictionary(GEOM, SCHEDULE, AngleGrid.from_ranges(*BOX, 1.0))
        els, azs = omp_estimate(snap.samples, d, 2)
        for true_el, true_az in ((35.0, -15.0), (65.0, 20.0)):
            assert np.hypot(els - true_el, azs - true_az).min() < 2.5

    def test_single_pick_matches_spectrum_argmax(self):
        sources = SourceSet([52.0], [7.0], [1.0 + 0j])
        snap = clean_snapshot(sources)
        d = build_dictionary(GEOM, SCHEDULE, AngleGrid.from_ranges(*BOX, 1.0))
        els, azs = omp_estimate(snap.samples, d, 1)
        grid_els, grid_azs = grid_estimate(snap.samples, d, 1, refine=False)
        assert els[0] == grid_els[0] and azs[0] == grid_azs[0]

    def test_duplicate_grid_points_raise(self):
        grid = AngleGrid(np.array([40.0, 40.0]), np.array([10.0]))
        d = build_dictionary(GEOM, SCHEDULE, grid)
        snap = clean_snapshot(SourceSet([40.0], [10.0], [1.0 + 0j]))
        with pytest.raises(DegenerateInputError):
            omp_estimate(snap.samples, d, 2)


def _dense_reference(geom, schedule, grid):
    """Every response built column by column from its steering vector."""
    atoms = [
        steering_vector(geom, el, az) for el in grid.elevations_deg for az in grid.azimuths_deg
    ]
    return schedule.codes @ np.stack(atoms, axis=1)


def _reference_norms(matrix):
    """Column norms, with inf for a column that vanishes to rounding, which then scores 0."""
    norms = np.linalg.norm(matrix, axis=0)
    return np.where(norms > 1e-10 * norms.max(), norms, np.inf)


def _reference_omp(z, matrix, count):
    """Dense OMP; rejects the example when a pick is a near tie that rounding can flip."""
    norms = _reference_norms(matrix)
    residual = z
    chosen = []
    for step in range(count):
        scores = np.abs(matrix.conj().T @ residual) / norms
        scores[chosen] = -1.0
        top = np.sort(scores)[-2:]
        assume(top.size < 2 or top[1] - top[0] > 1e-9 * top[1])
        chosen.append(int(np.argmax(scores)))
        selected = matrix[:, chosen]
        coef, _, rank, _ = np.linalg.lstsq(selected, z, rcond=None)
        if rank < len(chosen):
            raise DegenerateInputError(f"rank deficient after {step + 1} picks")
        residual = z - selected @ coef
    return chosen


class TestFactoredDictionary:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        samples=st.integers(2, 40),
        el_start=st.floats(5.0, 80.0),
        az_start=st.floats(-60.0, 30.0),
        span=st.floats(0.0, 40.0),
        step=st.sampled_from([0.7, 1.0, 2.5, 5.0]),
        count=st.integers(1, 3),
    )
    # a one-point grid at azimuth 0 whose only response is exactly zero
    @example(seed=38485, rows=1, cols=2, samples=2, el_start=5.0, az_start=0.0, span=0.0, step=0.7, count=1)
    def test_spectrum_and_omp_match_a_dense_reference(
        self, seed, rows, cols, samples, el_start, az_start, span, step, count
    ):
        rng = np.random.default_rng(seed)
        geom = RisGeometry(rows, cols)
        schedule = build_code_schedule(samples, geom.n_elements, seed=seed)
        grid = AngleGrid.from_ranges((el_start, el_start + span), (az_start, az_start + span), step)
        d = build_dictionary(geom, schedule, grid)
        matrix = _dense_reference(geom, schedule, grid)
        z = rng.standard_normal(samples) + 1j * rng.standard_normal(samples)
        # the factored sums round differently from the dense product
        expected = np.abs(matrix.conj().T @ z) ** 2 / _reference_norms(matrix) ** 2
        spectrum = grid_spectrum(z, d)
        assert spectrum.shape == grid.shape
        assert np.max(np.abs(spectrum.ravel() - expected)) <= 1e-12 * expected.max()
        try:
            chosen = _reference_omp(z, matrix, count)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                omp_estimate(z, d, count)
            return
        rows_, cols_ = np.unravel_index(chosen, grid.shape)
        els = grid.elevations_deg[rows_]
        order = np.argsort(els)
        got = omp_estimate(z, d, count)
        assert np.array_equal(got[0], els[order])
        assert np.array_equal(got[1], grid.azimuths_deg[cols_][order])

    def test_peak_frequencies_are_the_scaled_spatial_frequencies(self):
        grid = AngleGrid.from_ranges(*BOX, 3.0)
        d = build_dictionary(GEOM, SCHEDULE, grid)
        el = np.deg2rad(grid.elevations_deg)[:, None]
        az = np.deg2rad(grid.azimuths_deg)[None, :]
        np.testing.assert_allclose(d.peak_row, GEOM.row_spacing * np.cos(el) * np.ones_like(az))
        np.testing.assert_allclose(d.peak_col, GEOM.col_spacing * np.sin(el) * np.sin(az))

    def test_responses_in_the_code_null_space_score_zero(self):
        # every 4-element code row sums to zero, so at azimuth 0 (column
        # phases all 1) the response is exactly zero, while the factored
        # sums leave rounding noise that a zero norm would blow up
        geom = RisGeometry(2, 4)
        bits = np.array([[0, 1, 1, 0, 1, 0, 0, 1], [0, 0, 1, 1, 1, 1, 0, 0], [1, 0, 1, 0, 0, 1, 0, 1]])
        grid = AngleGrid(np.array([30.0, 50.0, 70.0]), np.array([-10.0, 0.0, 10.0]))
        d = build_dictionary(geom, CodeSchedule(bits), grid)
        z = np.array([0.3 - 1.2j, -0.8 + 0.1j, 1.1 + 0.6j])
        spectrum = grid_spectrum(z, d)
        assert np.all(spectrum[:, 1] == 0.0) and np.all(spectrum[:, [0, 2]] > 0.1)
        i, j = np.unravel_index(np.argmax(spectrum), grid.shape)
        els, azs = omp_estimate(z, d, 1)
        assert (els[0], azs[0]) == grid.point(i, j)

    def test_factors_are_read_only_and_no_dense_copy_is_held(self):
        d = build_dictionary(GEOM, SCHEDULE, AngleGrid.from_ranges(*BOX, 1.0))
        held = {k: v for k, v in vars(d).items() if isinstance(v, np.ndarray)}
        assert set(held) == {"code_t", "row_conj", "col_conj", "norms", "peak_row", "peak_col"}
        dense = (SCHEDULE.sample_count, d.norms.size)
        for name, array in held.items():
            assert array.size < dense[0] * dense[1], name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # all factors together take under a quarter of one dense complex copy
        assert sum(a.nbytes for a in held.values()) < dense[0] * dense[1] * 16 / 4
        matrix = d.matrix
        matrix[...] = 0
        assert np.all(d.matrix != 0)


ESTIMATORS = pytest.mark.parametrize("estimate", [grid_estimate, omp_estimate], ids=["fft", "omp"])


class TestSnapshotChecks:
    def setup_method(self):
        self.d = build_dictionary(GEOM, SCHEDULE, AngleGrid.from_ranges(*BOX, 1.0))
        self.z = clean_snapshot(SourceSet([40.0], [10.0], [1.0 + 0j])).samples

    @ESTIMATORS
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("everywhere", [True, False])
    def test_non_finite_samples_raise(self, estimate, bad, everywhere):
        # a non-finite snapshot fails as a trial; it must not come back as a grid point
        z = np.full_like(self.z, bad) if everywhere else self.z.copy()
        z[3] = bad
        with pytest.raises(DegenerateInputError, match=r"samples \[(0, 1, .*)?3.*NaN or inf"):
            estimate(z, self.d, 2)

    @ESTIMATORS
    def test_wrong_snapshot_length_names_both_lengths(self, estimate):
        with pytest.raises(ValueError, match=r"must hold 64 samples, got shape \(63,\)"):
            estimate(self.z[:63], self.d, 1)


class TestBound:
    def test_noise_power_sqrt_scaling(self):
        sources = SourceSet([40.0, 70.0], [-20.0, 25.0], [1.0, 1.0j])
        low = crb_numeric(GEOM, SCHEDULE, sources, noise_power=0.1)
        high = crb_numeric(GEOM, SCHEDULE, sources, noise_power=0.2)
        assert high == pytest.approx(math.sqrt(2.0) * low, rel=1e-12)

    def test_derivatives_match_central_differences(self):
        from risdoa.baselines import _steering_derivatives

        el, az = 47.3, -12.6
        _, d_th, d_ph = _steering_derivatives(GEOM, el, az)
        step = 1e-6
        step_deg = math.degrees(step)
        num_th = (
            steering_vector(GEOM, el + step_deg, az) - steering_vector(GEOM, el - step_deg, az)
        ) / (2 * step)
        num_ph = (
            steering_vector(GEOM, el, az + step_deg) - steering_vector(GEOM, el, az - step_deg)
        ) / (2 * step)
        assert np.max(np.abs(d_th - num_th)) < 1e-4 * max(np.max(np.abs(num_th)), 1.0)
        assert np.max(np.abs(d_ph - num_ph)) < 1e-4 * max(np.max(np.abs(num_ph)), 1.0)

    def test_magnitude_is_small_at_high_snr(self):
        sources = SourceSet([50.0], [0.0], [1.0 + 0j])
        snap = synthesize_ideal(GEOM, SCHEDULE, sources, snr_db=20.0, seed=1)
        bound = crb_numeric(GEOM, SCHEDULE, sources, snap.noise_power)
        assert 0.0 < bound < 1.0

    def test_zero_noise_rejected(self):
        sources = SourceSet([50.0], [0.0], [1.0 + 0j])
        with pytest.raises(ValueError):
            crb_numeric(GEOM, SCHEDULE, sources, noise_power=0.0)

    def test_coincident_sources_are_singular(self):
        sources = SourceSet([50.0, 50.0], [5.0, 5.0], [1.0, 1.0])
        with pytest.raises(SingularFimError):
            crb_numeric(GEOM, SCHEDULE, sources, noise_power=0.1)


class TestErrorAccounting:
    def test_single_trial_hand_value(self):
        # errors of 1 degree on both coordinates of one source:
        # sqrt(2 / (2*1*1)) = 1
        sq = matched_squared_error([41.0], [-19.0], [40.0], [-20.0])
        assert sq == pytest.approx(2.0)
        assert rmse_deg([sq], num_sources=1) == pytest.approx(1.0)

    def test_matching_is_permutation_invariant(self):
        a = matched_squared_error([40.0, 70.0], [-20.0, 25.0], [70.0, 40.0], [25.0, -20.0])
        b = matched_squared_error([40.0, 70.0], [-20.0, 25.0], [40.0, 70.0], [-20.0, 25.0])
        assert a == pytest.approx(b) == pytest.approx(0.0)

    def test_matching_picks_cheaper_pairing(self):
        # crossed assignment would cost far more than aligned
        sq = matched_squared_error([41.0, 69.0], [0.0, 0.0], [70.0, 40.0], [0.0, 0.0])
        assert sq == pytest.approx(1.0 + 1.0)

    def test_rmse_pools_all_coordinates(self):
        # two trials, two sources: total 8 deg^2 over 2*2*2 coordinates
        assert rmse_deg([4.0, 4.0], num_sources=2) == pytest.approx(1.0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matched_squared_error([40.0], [0.0], [40.0, 50.0], [0.0, 0.0])

    def test_empty_trials_rejected(self):
        with pytest.raises(ValueError):
            rmse_deg([], num_sources=1)
