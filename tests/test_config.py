"""Config parsing, presets, and the scenario hash."""

import json
import math

import numpy as np
import pytest

from risdoa.config import (
    ImpairmentSpec,
    PlanConfig,
    ScenarioConfig,
    SourceSpec,
    TrainSettings,
    desk_scenario,
    load_plan,
    load_scenario,
    load_train_settings,
    large_scenario,
    scenario_hash,
)
from risdoa.errors import ConfigError
from risdoa.model import RisGeometry

INI_TEXT = """
[geometry]
rows = 4
cols = 5
row_spacing = 0.3
col_spacing = 0.25

[sources]
count = 2
elevation_range = 30 70
azimuth_range = -20 20
min_separation_deg = 10

[impairments]
enabled = true
coupling_amp_range = 0.05 0.2
mismatch_amp_range = 0.8 1.2
mismatch_phase_range = -0.1 0.1
neighbors = 0,1 1,0

[snapshot]
num_samples = 32
snr_db = 15

[run]
seed = 99

[train]
dataset_size = 50
epochs = 7
batch_size = 10
learning_rate = 0.001
snr_range = 10 40
seed = 3

[bench]
methods = fft omp
snr_list = 0 10 20
trials = 5
seed = 11
workers = 2
"""


class TestPresets:
    def test_desk_defaults(self):
        s = desk_scenario()
        assert (s.geometry.rows, s.geometry.cols) == (8, 8)
        assert s.num_samples == 64
        assert s.geometry.row_spacing == 0.4

    def test_large_scale(self):
        s = large_scenario()
        assert (s.geometry.rows, s.geometry.cols) == (16, 16)
        assert s.num_samples == 128

    def test_preset_overrides(self):
        s = large_scenario(seed=7)
        assert s.seed == 7 and s.geometry.rows == 16


class TestIniLoading:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(INI_TEXT)
        s = load_scenario(path)
        assert (s.geometry.rows, s.geometry.cols) == (4, 5)
        assert s.geometry.col_spacing == 0.25
        assert s.sources.elevation_range == (30.0, 70.0)
        assert s.sources.min_separation_deg == 10.0
        assert s.impairments.coupling_amp_range == (0.05, 0.2)
        assert s.impairments.neighbors == ((0, 1), (1, 0))
        assert s.num_samples == 32
        assert s.snr_db == 15.0
        assert s.seed == 99

    def test_missing_sections_use_defaults(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[run]\nseed = 5\n")
        s = load_scenario(path)
        assert s.seed == 5
        assert s.geometry.rows == 8
        assert s.impairments.enabled is True

    def test_fixed_sources(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[sources]\ncount = 2\nelevations = 40 70\nazimuths = -20 25\n")
        s = load_scenario(path)
        assert s.sources.elevations == (40.0, 70.0)
        assert s.sources.azimuths == (-20.0, 25.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "nope.ini")

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[geometry]\nrows = banana\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_train_section(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(INI_TEXT)
        t = load_train_settings(path)
        assert t.dataset_size == 50 and t.epochs == 7
        assert t.snr_range == (10.0, 40.0)
        assert t.learning_rate == 0.001

    def test_train_defaults_when_section_missing(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[run]\nseed = 1\n")
        t = load_train_settings(path)
        assert t.epochs == 1000 and t.batch_size == 64

    def test_bench_section(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(INI_TEXT)
        p = load_plan(path)
        assert p.methods == ("fft", "omp")
        assert p.snr_list == (0.0, 10.0, 20.0)
        assert p.trials == 5 and p.workers == 2


class TestJsonLoading:
    def test_nested_structure(self, tmp_path):
        payload = {
            "geometry": {"rows": 3, "cols": 3},
            "sources": {"count": 1, "elevation_range": [25, 75]},
            "impairments": {"enabled": False},
            "snapshot": {"num_samples": 16, "snr_db": 25},
            "run": {"seed": 42},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        s = load_scenario(path)
        assert s.geometry.rows == 3
        assert s.sources.elevation_range == (25.0, 75.0)
        assert s.impairments.enabled is False
        assert s.num_samples == 16 and s.seed == 42

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario(path)


class TestValidation:
    def test_source_count_positive(self):
        with pytest.raises(ConfigError):
            SourceSpec(count=0)

    def test_fixed_angles_need_both(self):
        with pytest.raises(ConfigError):
            SourceSpec(count=1, elevations=(40.0,))

    def test_fixed_angles_match_count(self):
        with pytest.raises(ConfigError):
            SourceSpec(count=2, elevations=(40.0,), azimuths=(0.0,))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_plan_needs_a_trial(self, trials):
        with pytest.raises(ConfigError, match="trials"):
            PlanConfig(trials=trials)

    def test_plan_needs_a_worker(self):
        with pytest.raises(ConfigError, match="workers"):
            PlanConfig(workers=0)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan])
    def test_plan_grid_step_positive(self, step):
        with pytest.raises(ConfigError, match="grid step"):
            PlanConfig(grid_step_deg=step)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_plan_snr_is_a_level(self, snr):
        with pytest.raises(ConfigError, match="SNR"):
            PlanConfig(snr_list=(10.0, snr))

    def test_plan_infinite_snr_means_no_noise(self):
        assert PlanConfig(snr_list=(math.inf,)).snr_list == (math.inf,)

    @pytest.mark.parametrize(
        "field", [{"solver_tolerance": 0.0}, {"solver_tolerance": math.nan},
                  {"solver_max_iterations": 0}]
    )
    def test_plan_solver_limits_positive(self, field):
        with pytest.raises(ConfigError, match="solver"):
            PlanConfig(**field)

    @pytest.mark.parametrize("field", ["dataset_size", "epochs", "batch_size"])
    @pytest.mark.parametrize("value", [0, -2, 1.5])
    def test_train_counts_are_positive_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainSettings(**{field: value})

    @pytest.mark.parametrize("rate", [0.0, -1e-3, math.nan, math.inf, "0.1"])
    def test_train_learning_rate_positive_and_finite(self, rate):
        with pytest.raises(ConfigError, match="learning rate"):
            TrainSettings(learning_rate=rate)

    @pytest.mark.parametrize(
        "widths", [(), (8, 8), (8, 8, 8, 8, 8), (8, 8, 0, 8), (8, -1, 8, 8), (8, 8.0, 8, 8), 8]
    )
    def test_train_hidden_widths_are_four_positive_ints(self, widths):
        with pytest.raises(ConfigError, match="hidden widths"):
            TrainSettings(hidden_widths=widths)

    @pytest.mark.parametrize(
        "snr",
        [(20.0,), (20.0, 30.0, 40.0), (30.0, 20.0), (math.nan, 20.0), (20.0, math.inf), "ab"],
    )
    def test_train_snr_range_is_an_ordered_finite_pair(self, snr):
        with pytest.raises(ConfigError, match="SNR range"):
            TrainSettings(snr_range=snr)

    def test_train_settings_accept_valid_values(self):
        s = TrainSettings(
            dataset_size=1, epochs=1, batch_size=1, learning_rate=1,
            hidden_widths=[1, 2, 3, np.int64(4)], snr_range=(5, 5.0),
        )
        assert s.hidden_widths == [1, 2, 3, 4]

    def test_train_file_is_validated(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nbatch_size = 0\n")
        with pytest.raises(ConfigError, match="batch_size"):
            load_train_settings(path)

    def test_plan_file_is_validated(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("[bench]\ntrials = 0\n")
        with pytest.raises(ConfigError, match="trials"):
            load_plan(path)


class TestDraws:
    def test_schedule_is_deterministic(self):
        s = desk_scenario()
        np.testing.assert_array_equal(s.schedule().bits, s.schedule().bits)

    def test_pinned_sources_returned_exactly(self):
        s = ScenarioConfig(
            sources=SourceSpec(count=2, elevations=(40.0, 70.0), azimuths=(-20.0, 25.0))
        )
        drawn = s.draw_sources(123)
        np.testing.assert_array_equal(drawn.elevations_deg, [40.0, 70.0])
        np.testing.assert_allclose(np.abs(drawn.amplitudes), 1.0)

    def test_sampled_sources_respect_ranges(self):
        s = desk_scenario()
        for seed in range(5):
            drawn = s.draw_sources(seed)
            assert np.all(drawn.elevations_deg >= 20.0) and np.all(drawn.elevations_deg <= 80.0)
            assert np.all(np.abs(drawn.azimuths_deg) <= 30.0)

    def test_disabled_impairments_are_identity(self):
        s = ScenarioConfig(impairments=ImpairmentSpec(enabled=False))
        imp = s.draw_impairments(5)
        np.testing.assert_array_equal(imp.coupling, np.eye(s.geometry.n_elements))
        np.testing.assert_array_equal(imp.mismatch_amp, np.ones(s.geometry.n_elements))


class TestHash:
    def test_stable_for_equal_configs(self):
        assert scenario_hash(desk_scenario()) == scenario_hash(desk_scenario())

    def test_sensitive_to_changes(self):
        assert scenario_hash(desk_scenario()) != scenario_hash(desk_scenario(seed=9))
        assert scenario_hash(desk_scenario()) != scenario_hash(large_scenario())

    def test_short_hex(self):
        h = scenario_hash(desk_scenario())
        assert len(h) == 16 and int(h, 16) >= 0
