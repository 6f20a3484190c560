import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risdoa.config import ImpairmentSpec, SourceSpec
from risdoa.model import (
    CodeSchedule,
    ImpairmentModel,
    RisGeometry,
    Snapshot,
    SourceSet,
    angle_frequencies,
    axis_atom,
    build_code_schedule,
    read_snapshot,
    sample_impairments,
    sample_sources,
    steering_matrix,
    steering_vector,
    synthesize_ideal,
    synthesize_impaired,
    write_snapshot,
)

GEOM22 = RisGeometry(rows=2, cols=2, row_spacing=0.4, col_spacing=0.4)


def _reference_snapshot(geom, schedule, imp, sources):
    """Straight-line loop evaluation of the impaired noiseless forward model."""
    M, N = geom.rows, geom.cols
    incident = np.zeros(M * N, dtype=complex)
    for k in range(sources.count):
        t = math.radians(float(sources.elevations_deg[k]))
        p = math.radians(float(sources.azimuths_deg[k]))
        for m in range(M):
            for n in range(N):
                ph = -2.0 * math.pi * (
                    n * geom.col_spacing * math.sin(t) * math.sin(p)
                    + m * geom.row_spacing * math.cos(t)
                )
                incident[m * N + n] += sources.amplitudes[k] * cmath.exp(1j * ph)
    coupled = np.zeros(M * N, dtype=complex)
    for i in range(M * N):
        for j in range(M * N):
            coupled[i] += imp.coupling[i, j] * incident[j]
    out = np.zeros(schedule.sample_count, dtype=complex)
    for pi in range(schedule.sample_count):
        acc = 0.0 + 0.0j
        for i in range(M * N):
            if schedule.bits[pi, i] == 0:
                g = 1.0 + 0.0j
            else:
                g = -imp.mismatch_amp[i] * cmath.exp(1j * imp.mismatch_phase[i])
            acc += g * coupled[i]
        out[pi] = acc
    return out


class TestSteering:
    def test_first_element_is_always_one(self):
        v = steering_vector(GEOM22, 37.0, -12.0)
        assert v[0] == pytest.approx(1.0)

    def test_broadside_gives_all_ones(self):
        v = steering_vector(GEOM22, 90.0, 0.0)
        np.testing.assert_allclose(v, np.ones(4), atol=1e-12)

    def test_known_entry_value(self):
        # phase at (m=1, n=1) for d=0.4, theta=60, phi=30:
        # -2*pi*(0.4*sin60*sin30 + 0.4*cos60), computed independently
        v = steering_vector(GEOM22, 60.0, 30.0)
        assert v[3] == pytest.approx(cmath.exp(-2.344916679976448j), abs=1e-12)
        assert abs(v[3]) == pytest.approx(1.0)

    def test_unit_modulus(self):
        v = steering_vector(RisGeometry(5, 7), 44.0, 21.0)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=179.0),
        st.floats(min_value=-89.0, max_value=89.0),
    )
    def test_factorization_matches_outer_product(self, elev, azim):
        geom = RisGeometry(3, 4, 0.4, 0.45)
        f_row, f_col = angle_frequencies(elev, azim)
        row = axis_atom(f_row, geom.rows, geom.row_spacing)
        col_conj = axis_atom(f_col, geom.cols, geom.col_spacing).conj()
        # row-major vec of the rank-1 matrix row @ col_conj^H equals the vector
        X = np.outer(row, col_conj.conj())
        np.testing.assert_allclose(X.reshape(-1), steering_vector(geom, elev, azim), atol=1e-12)

    def test_conjugate_symmetry_at_zero_row_frequency(self):
        geom = RisGeometry(4, 4)
        v_pos = steering_vector(geom, 90.0, 25.0)
        v_neg = steering_vector(geom, 90.0, -25.0)
        np.testing.assert_allclose(v_neg, v_pos.conj(), atol=1e-12)

    @pytest.mark.parametrize("elev,azim", [(-1.0, 0.0), (181.0, 0.0), (90.0, 91.0), (90.0, -90.5)])
    def test_out_of_range_angles_raise(self, elev, azim):
        with pytest.raises(ValueError):
            steering_vector(GEOM22, elev, azim)

    def test_spacing_above_half_wavelength_rejected(self):
        with pytest.raises(ValueError):
            RisGeometry(2, 2, row_spacing=0.6)

    def test_steering_matrix_stacks_columns(self):
        src = SourceSet([40.0, 70.0], [-20.0, 25.0], [1.0, 1.0])
        A = steering_matrix(GEOM22, src)
        assert A.shape == (4, 2)
        np.testing.assert_allclose(A[:, 1], steering_vector(GEOM22, 70.0, 25.0))


def _reference_steering_matrix(geom, sources):
    """Kronecker product of the axis responses, one source at a time."""
    columns = []
    for el, az in zip(sources.elevations_deg, sources.azimuths_deg):
        f_row, f_col = angle_frequencies(el, az)
        columns.append(
            np.kron(
                axis_atom(f_row, geom.rows, geom.row_spacing),
                axis_atom(f_col, geom.cols, geom.col_spacing),
            )
        )
    return np.column_stack(columns)


_geometries = st.builds(
    RisGeometry,
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    row_spacing=st.floats(0.05, 0.5),
    col_spacing=st.floats(0.05, 0.5),
)


def _any_sources(count, seed):
    spec = SourceSpec(count, (0.0, 180.0), (-90.0, 90.0), min_separation_deg=0.0)
    return sample_sources(spec, seed=seed)


_EDGE = 1e-8 + 1e-5 * abs(1.0)  # np.allclose's default tolerance at 1.0
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_diagonal_entries = st.one_of(
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.builds(
        complex,
        st.floats(1.0 - 3 * _EDGE, 1.0 + 3 * _EDGE) | _NON_FINITE,
        st.floats(-3 * _EDGE, 3 * _EDGE) | _NON_FINITE,
    ),
    st.sampled_from([1.0, 1.0 + _EDGE, 1.0 - _EDGE, 1.0 + 1j * _EDGE, complex(1.0, -_EDGE)]),
)


def _accepts_diagonal(diagonal) -> bool:
    n = len(diagonal)
    coupling = np.full((n, n), 0.25 + 0.5j)
    coupling[np.diag_indices(n)] = diagonal
    try:
        ImpairmentModel(np.ones(n), np.zeros(n), coupling)
    except ValueError:
        return False
    return True


class TestSteeringMatrix:
    @settings(max_examples=150, deadline=None)
    @given(geom=_geometries, count=st.integers(1, 4), seed=st.integers(0, 2**63 - 1))
    def test_matches_kron_of_axis_atoms_bit_for_bit(self, geom, count, seed):
        sources = _any_sources(count, seed)
        got = steering_matrix(geom, sources)
        ref = _reference_steering_matrix(geom, sources)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_edge_angles_match_bit_for_bit(self):
        geom = RisGeometry(5, 7, 0.45, 0.3)
        sources = SourceSet([0.0, 180.0, 90.0, 45.0], [-90.0, 90.0, 0.0, -0.0], np.ones(4))
        got = steering_matrix(geom, sources)
        assert got.tobytes() == _reference_steering_matrix(geom, sources).tobytes()

    def test_angles_edited_after_construction_are_rejected(self):
        sources = SourceSet([40.0], [10.0], [1.0])
        sources.elevations_deg[0] = 190.0
        with pytest.raises(ValueError, match="elevation"):
            steering_matrix(GEOM22, sources)

    @pytest.mark.parametrize("index,name", [(0, "elevation"), (1, "azimuth")])
    def test_nan_angles_are_rejected(self, index, name):
        angles = [[40.0], [10.0]]
        angles[index] = [math.nan]
        with pytest.raises(ValueError, match=name):
            SourceSet(*angles, [1.0])
        with pytest.raises(ValueError, match=name):
            steering_vector(GEOM22, angles[0][0], angles[1][0])
        sources = SourceSet([40.0], [10.0], [1.0])
        (sources.elevations_deg, sources.azimuths_deg)[index][0] = math.nan
        with pytest.raises(ValueError, match=name):
            steering_matrix(GEOM22, sources)


class TestCodes:
    def test_bit_to_sign_map(self):
        sched = CodeSchedule(bits=np.array([[0, 1], [1, 0]], dtype=np.uint8))
        np.testing.assert_array_equal(sched.codes, [[1.0, -1.0], [-1.0, 1.0]])

    def test_seeded_draw_is_reproducible(self):
        a = build_code_schedule(16, 9, seed=7)
        b = build_code_schedule(16, 9, seed=7)
        np.testing.assert_array_equal(a.bits, b.bits)
        assert a.sample_count == 16 and a.element_count == 9

    def test_different_seed_differs(self):
        a = build_code_schedule(32, 16, seed=1)
        b = build_code_schedule(32, 16, seed=2)
        assert not np.array_equal(a.bits, b.bits)

    def test_cached_views_are_read_only_and_leave_the_caller_array_alone(self):
        bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        sched = CodeSchedule(bits=bits)
        assert bits.flags.writeable
        for cached in (sched.bits, sched.codes, sched.reflects):
            assert not cached.flags.writeable
        assert sched.codes.dtype == complex and sched.codes is sched.codes
        np.testing.assert_array_equal(sched.reflects, bits == 0)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            CodeSchedule(bits=np.array([[0, 2]]))


class TestImpairments:
    def test_identity_is_degenerate(self):
        imp = ImpairmentModel.identity(6)
        np.testing.assert_array_equal(imp.coupling, np.eye(6))
        np.testing.assert_array_equal(imp.mismatch_amp, np.ones(6))

    def test_identity_effective_codes_are_plain_signs(self):
        sched = build_code_schedule(8, 6, seed=3)
        eff = ImpairmentModel.identity(6).effective_codes(sched)
        assert eff.tobytes() == sched.codes.tobytes()

    def test_interior_element_has_three_neighbors(self):
        geom = RisGeometry(16, 16)
        imp = sample_impairments(geom, ImpairmentSpec(), seed=11)
        i = 5 * 16 + 5
        row = imp.coupling[i].copy()
        row[i] = 0.0
        assert np.count_nonzero(row) == 3
        # the three default neighbors: right, down, down-right
        expected = {5 * 16 + 6, 6 * 16 + 5, 6 * 16 + 6}
        assert set(np.flatnonzero(row)) == expected

    def test_bottom_right_corner_has_no_neighbors(self):
        geom = RisGeometry(4, 4)
        imp = sample_impairments(geom, ImpairmentSpec(), seed=11)
        row = imp.coupling[15].copy()
        row[15] = 0.0
        assert np.count_nonzero(row) == 0

    def test_draw_ranges(self):
        geom = RisGeometry(8, 8)
        imp = sample_impairments(geom, ImpairmentSpec(), seed=5)
        off = imp.coupling[~np.eye(64, dtype=bool)]
        mags = np.abs(off[off != 0])
        assert mags.size > 0
        assert mags.min() >= 0.1 and mags.max() <= 0.4
        assert imp.mismatch_amp.min() >= 0.5 and imp.mismatch_amp.max() <= 1.5
        assert np.all(np.abs(imp.mismatch_phase) <= math.pi / 6)
        np.testing.assert_allclose(np.diag(imp.coupling), 1.0)

    def test_coupling_is_directed(self):
        imp = sample_impairments(RisGeometry(4, 4), ImpairmentSpec(), seed=2)
        assert not np.allclose(imp.coupling, imp.coupling.conj().T)

    def test_coupling_diagonal_validation(self):
        with pytest.raises(ValueError):
            ImpairmentModel(np.ones(2), np.zeros(2), 2.0 * np.eye(2))

    @settings(max_examples=300, deadline=None)
    @given(diagonal=st.lists(_diagonal_entries, min_size=1, max_size=9))
    def test_diagonal_check_decides_as_allclose(self, diagonal):
        assert _accepts_diagonal(diagonal) == bool(np.allclose(np.array(diagonal), 1.0))

    def test_diagonal_check_at_the_tolerance_edge(self):
        for delta in (_EDGE, -_EDGE, 1j * _EDGE, -1j * _EDGE):
            for value in (1.0 + delta, 1.0 + delta * (1 - 1e-15), 1.0 + delta * (1 + 1e-15)):
                assert _accepts_diagonal([value]) == bool(np.allclose(np.array([value]), 1.0))

    @settings(max_examples=100, deadline=None)
    @given(
        geom=_geometries,
        samples=st.integers(1, 40),
        code_seed=st.integers(0, 2**63 - 1),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_effective_codes_match_the_bit_test(self, geom, samples, code_seed, seed):
        sched = build_code_schedule(samples, geom.n_elements, code_seed)
        imp = sample_impairments(geom, ImpairmentSpec(), seed=seed)
        mismatched = -imp.mismatch_amp * np.exp(1j * imp.mismatch_phase)
        ref = np.where(sched.bits == 0, 1.0 + 0.0j, mismatched[None, :])
        assert imp.effective_codes(sched).tobytes() == ref.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 9),
        cols=st.integers(1, 9),
        neighbors=st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda d: d != (0, 0)),
            max_size=6,
        ),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_matches_the_element_loop_draw_for_draw(self, rows, cols, neighbors, seed):
        # duplicate offsets draw twice and the later draw lands
        geom = RisGeometry(rows, cols)
        got = sample_impairments(geom, ImpairmentSpec(neighbors=tuple(neighbors)), seed=seed)
        ref = _reference_impairments(geom, neighbors, seed)
        assert got.mismatch_amp.tobytes() == ref.mismatch_amp.tobytes()
        assert got.mismatch_phase.tobytes() == ref.mismatch_phase.tobytes()
        assert got.coupling.tobytes() == ref.coupling.tobytes()

    def test_default_neighbors_match_the_element_loop(self):
        geom = RisGeometry(8, 8)
        for seed in range(50):
            got = sample_impairments(geom, ImpairmentSpec(), seed=seed)
            ref = _reference_impairments(geom, ((0, 1), (1, 0), (1, 1)), seed)
            assert got.coupling.tobytes() == ref.coupling.tobytes()


def _reference_impairments(geom, neighbors, seed, coupling_amp_range=(0.1, 0.4)):
    """Element-by-element draw that defines the seeded impairment stream."""
    rng = np.random.default_rng(seed)
    n = geom.n_elements
    amp = rng.uniform(0.5, 1.5, size=n)
    phase = rng.uniform(-math.pi / 6, math.pi / 6, size=n)
    coupling = np.eye(n, dtype=complex)
    for m in range(geom.rows):
        for c in range(geom.cols):
            i = m * geom.cols + c
            for dm, dc in neighbors:
                mm, cc = m + dm, c + dc
                if 0 <= mm < geom.rows and 0 <= cc < geom.cols:
                    j = mm * geom.cols + cc
                    mag = rng.uniform(*coupling_amp_range)
                    ang = rng.uniform(0.0, 2.0 * math.pi)
                    coupling[i, j] = mag * np.exp(1j * ang)
    return ImpairmentModel(mismatch_amp=amp, mismatch_phase=phase, coupling=coupling)


class TestSynthesis:
    def _scene(self):
        geom = RisGeometry(3, 3)
        sched = build_code_schedule(10, 9, seed=21)
        src = SourceSet([40.0, 70.0], [-20.0, 25.0], [1.0 + 0.5j, -0.7 + 0.2j])
        return geom, sched, src

    @settings(max_examples=150, deadline=None)
    @given(
        geom=_geometries,
        count=st.integers(1, 4),
        samples=st.integers(1, 40),
        snr_db=st.floats(-30.0, 60.0) | st.just(math.inf),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_ideal_is_the_identity_model_bit_for_bit(self, geom, count, samples, snr_db, seed):
        sources = _any_sources(count, seed)
        sched = build_code_schedule(samples, geom.n_elements, seed)
        got = synthesize_ideal(geom, sched, sources, snr_db, seed)
        identity = ImpairmentModel.identity(geom.n_elements)
        ref = synthesize_impaired(geom, sched, identity, sources, snr_db, seed)
        assert got.samples.tobytes() == ref.samples.tobytes()
        assert got.noise_power == ref.noise_power and got.seed == ref.seed

    def test_identity_impairments_reduce_to_ideal_bitwise(self):
        geom, sched, src = self._scene()
        ident = ImpairmentModel.identity(geom.n_elements)
        a = synthesize_ideal(geom, sched, src, snr_db=10.0, seed=99)
        b = synthesize_impaired(geom, sched, ident, src, snr_db=10.0, seed=99)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.noise_power == b.noise_power

    def test_matches_straight_line_reference(self):
        geom, sched, src = self._scene()
        imp = sample_impairments(geom, ImpairmentSpec(), seed=4)
        snap = synthesize_impaired(geom, sched, imp, src, snr_db=np.inf, seed=0)
        ref = _reference_snapshot(geom, sched, imp, src)
        np.testing.assert_allclose(snap.samples, ref, rtol=1e-10)
        assert snap.noise_power == 0.0

    def test_mismatch_collapsed_to_ideal_leaves_only_coupling(self):
        geom, sched, src = self._scene()
        imp = sample_impairments(geom, ImpairmentSpec(), seed=4)
        collapsed = ImpairmentModel(
            mismatch_amp=np.ones(geom.n_elements),
            mismatch_phase=np.zeros(geom.n_elements),
            coupling=imp.coupling,
        )
        snap = synthesize_impaired(geom, sched, collapsed, src, snr_db=np.inf, seed=0)
        ref = _reference_snapshot(geom, sched, collapsed, src)
        np.testing.assert_allclose(snap.samples, ref, rtol=1e-10)
        # coupling alone must still differ from the fully ideal surface
        ideal = synthesize_ideal(geom, sched, src, snr_db=np.inf, seed=0)
        assert not np.allclose(snap.samples, ideal.samples)

    def test_single_source_all_ones_codes(self):
        # with every bit 0 each sample is the plain sum of the incident field
        geom = RisGeometry(2, 2)
        sched = CodeSchedule(bits=np.zeros((3, 4), dtype=np.uint8))
        src = SourceSet([60.0], [30.0], [1.0])
        snap = synthesize_ideal(geom, sched, src, snr_db=np.inf, seed=0)
        expected = steering_vector(geom, 60.0, 30.0).sum()
        np.testing.assert_allclose(snap.samples, expected)

    def test_empirical_snr_calibration(self):
        geom, sched, src = self._scene()
        clean = synthesize_ideal(geom, sched, src, snr_db=np.inf, seed=0)
        target_db = 12.0
        sig_power = np.mean(np.abs(clean.samples) ** 2)
        noise_acc = 0.0
        n_draws = 10_000
        for i in range(n_draws):
            snap = synthesize_ideal(geom, sched, src, snr_db=target_db, seed=i)
            noise_acc += np.mean(np.abs(snap.samples - clean.samples) ** 2)
        measured_db = 10.0 * np.log10(sig_power / (noise_acc / n_draws))
        assert abs(measured_db - target_db) <= 0.2

    def test_seeded_noise_is_reproducible(self):
        geom, sched, src = self._scene()
        a = synthesize_ideal(geom, sched, src, snr_db=5.0, seed=123)
        b = synthesize_ideal(geom, sched, src, snr_db=5.0, seed=123)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_schedule_width_mismatch_raises(self):
        geom, _, src = self._scene()
        bad = build_code_schedule(10, 4, seed=0)
        with pytest.raises(ValueError):
            synthesize_ideal(geom, bad, src, snr_db=np.inf, seed=0)


def _reference_sources(count, elevation_range, azimuth_range, min_separation_deg, seed):
    """The rejection draw of sample_sources with its pair indices built per try."""
    rng = np.random.default_rng(seed)
    while True:
        el = rng.uniform(*elevation_range, size=count)
        az = rng.uniform(*azimuth_range, size=count)
        if count > 1 and min_separation_deg > 0.0:
            d = np.hypot(el[:, None] - el[None, :], az[:, None] - az[None, :])
            if np.min(d[np.triu_indices(count, k=1)]) < min_separation_deg:
                continue
        amps = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=count))
        return el, az, amps


class TestSourceDraws:
    @settings(max_examples=100, deadline=None)
    @given(
        count=st.integers(1, 4),
        separation=st.sampled_from([0.0, 5.0, 20.0]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_matches_the_rejection_loop(self, count, separation, seed):
        spec = SourceSpec(count, (20.0, 80.0), (-30.0, 30.0), min_separation_deg=separation)
        got = sample_sources(spec, seed=seed)
        el, az, amps = _reference_sources(count, (20.0, 80.0), (-30.0, 30.0), separation, seed)
        assert got.elevations_deg.tobytes() == el.tobytes()
        assert got.azimuths_deg.tobytes() == az.tobytes()
        assert got.amplitudes.tobytes() == amps.tobytes()

    def test_ranges_and_separation(self):
        src = sample_sources(SourceSpec(3, (20.0, 80.0), (-30.0, 30.0), 15.0), seed=8)
        assert np.all((src.elevations_deg >= 20) & (src.elevations_deg <= 80))
        assert np.all((src.azimuths_deg >= -30) & (src.azimuths_deg <= 30))
        d = np.hypot(
            src.elevations_deg[:, None] - src.elevations_deg[None, :],
            src.azimuths_deg[:, None] - src.azimuths_deg[None, :],
        )
        assert d[np.triu_indices(3, k=1)].min() >= 15.0
        np.testing.assert_allclose(np.abs(src.amplitudes), 1.0)

    def test_reproducible(self):
        a = sample_sources(SourceSpec(min_separation_deg=0.0), seed=3)
        b = sample_sources(SourceSpec(min_separation_deg=0.0), seed=3)
        np.testing.assert_array_equal(a.elevations_deg, b.elevations_deg)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


class TestSnapshotIo:
    def test_round_trip(self, tmp_path):
        snap = Snapshot(samples=np.array([1 + 2j, -0.5 + 0.25j]), noise_power=0.125, seed=42)
        path = tmp_path / "snap.csv"
        write_snapshot(snap, path, scenario_hash="abc123")
        back = read_snapshot(path)
        np.testing.assert_array_equal(back.samples, snap.samples)
        assert back.noise_power == snap.noise_power
        assert back.seed == 42

    def test_csv_layout(self, tmp_path):
        snap = Snapshot(samples=np.array([1.0 + 0.0j]), noise_power=0.0, seed=0)
        path = tmp_path / "snap.csv"
        write_snapshot(snap, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_index,real,imag"
        assert lines[1].startswith("0,")
        sidecar = path.with_suffix(".json")
        assert sidecar.exists() and "scenario_hash" in sidecar.read_text()
