"""Config parsing, presets, and the scenario hash."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from test_cli import TINY_INI

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


# INI_TEXT and TINY_INI written as JSON, with integers where the INI has them
INI_TEXT_JSON = {
    "geometry": {"rows": 4, "cols": 5, "row_spacing": 0.3, "col_spacing": 0.25},
    "sources": {
        "count": 2, "elevation_range": [30, 70], "azimuth_range": [-20, 20],
        "min_separation_deg": 10,
    },
    "impairments": {
        "enabled": True, "coupling_amp_range": [0.05, 0.2], "mismatch_amp_range": [0.8, 1.2],
        "mismatch_phase_range": [-0.1, 0.1], "neighbors": [[0, 1], [1, 0]],
    },
    "snapshot": {"num_samples": 32, "snr_db": 15},
    "run": {"seed": 99},
    "train": {
        "dataset_size": 50, "epochs": 7, "batch_size": 10, "learning_rate": 0.001,
        "snr_range": [10, 40], "seed": 3,
    },
    "bench": {
        "methods": ["fft", "omp"], "snr_list": [0, 10, 20], "trials": 5, "seed": 11, "workers": 2,
    },
}
TINY_JSON = {
    "geometry": {"rows": 3, "cols": 3},
    "sources": {"count": 1, "min_separation_deg": 0},
    "snapshot": {"num_samples": 16, "snr_db": 20},
    "run": {"seed": 70},
    "train": {"dataset_size": 24, "epochs": 3, "batch_size": 8, "learning_rate": 0.001, "seed": 5},
    "bench": {"methods": ["fft", "omp", "crb"], "snr_list": [20], "trials": 2, "seed": 17},
}
LOADERS = (load_scenario, load_train_settings, load_plan)


def _write(tmp_path, text, name="config"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIniJsonParity:
    @pytest.mark.parametrize(
        "ini,payload",
        [(INI_TEXT, INI_TEXT_JSON), (TINY_INI, TINY_JSON)],
        ids=["INI_TEXT", "TINY_INI"],
    )
    def test_json_loads_what_the_ini_loads(self, tmp_path, ini, payload):
        ini_path = _write(tmp_path, ini, "c.ini")
        json_path = _write(tmp_path, json.dumps(payload), "c.json")
        for loader in LOADERS:
            # equal reprs: equal values of equal types, 10.0 not 10
            assert repr(loader(json_path)) == repr(loader(ini_path))
        assert scenario_hash(load_scenario(json_path)) == scenario_hash(load_scenario(ini_path))

    def test_json_hidden_widths_list(self, tmp_path):
        path = _write(tmp_path, json.dumps({"train": {"hidden_widths": [64, 64, 64, 64]}}))
        assert load_train_settings(path).hidden_widths == (64, 64, 64, 64)

    @pytest.mark.parametrize("word,value", [("false", False), ("no", False), ("On", True)])
    def test_json_boolean_words_read_as_in_ini(self, tmp_path, word, value):
        json_path = _write(tmp_path, json.dumps({"impairments": {"enabled": word}}), "c.json")
        ini_path = _write(tmp_path, f"[impairments]\nenabled = {word}\n", "c.ini")
        assert load_scenario(json_path).impairments.enabled is value
        assert load_scenario(ini_path).impairments.enabled is value


class TestDefaults:
    @pytest.mark.parametrize(
        "loader,default,others",
        [
            (load_scenario, ScenarioConfig(), "[train]\nepochs = 3\n[bench]\ntrials = 2\n"),
            (load_train_settings, TrainSettings(), "[run]\nseed = 2\n[bench]\ntrials = 2\n"),
            (load_plan, PlanConfig(), "[geometry]\nrows = 3\n[train]\nepochs = 3\n"),
        ],
    )
    def test_files_without_relevant_keys_give_the_dataclass_defaults(
        self, tmp_path, loader, default, others
    ):
        for text in ("", "{}", others):
            assert loader(_write(tmp_path, text)) == default


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

    @pytest.mark.parametrize(
        "field", [{"methods": ("fft", "omp", "fft")}, {"snr_list": (10.0, 20.0, 10.0)}]
    )
    def test_plan_entries_do_not_repeat(self, field):
        # a repeat would run its cells twice and write duplicate summary rows
        with pytest.raises(ConfigError, match="repeat"):
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

    @pytest.mark.parametrize("samples", [0, -4, 2.5, True])
    def test_scenario_needs_a_sample(self, samples):
        with pytest.raises(ConfigError, match="num_samples"):
            ScenarioConfig(num_samples=samples)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf, "20"])
    def test_scenario_snr_is_a_level(self, snr):
        with pytest.raises(ConfigError, match="snr_db"):
            ScenarioConfig(snr_db=snr)

    def test_scenario_infinite_snr_means_no_noise(self):
        assert ScenarioConfig(snr_db=math.inf).snr_db == math.inf

    @pytest.mark.parametrize(
        "field", ["coupling_amp_range", "mismatch_amp_range", "mismatch_phase_range"]
    )
    @pytest.mark.parametrize("value", [(0.4, 0.1), (math.nan, 0.1), (0.1,), "ab"])
    def test_impairment_ranges_are_ordered_finite_pairs(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ImpairmentSpec(**{field: value})

    def test_impairment_neighbors_exclude_the_element_itself(self):
        with pytest.raises(ConfigError, match=r"\(0, 0\)"):
            ImpairmentSpec(neighbors=((0, 1), (0, 0)))

    def test_scenario_file_is_validated(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[impairments]\ncoupling_amp_range = 0.4, 0.1\n")
        with pytest.raises(ConfigError, match="coupling_amp_range"):
            load_scenario(path)

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


class TestUnknownNames:
    @pytest.mark.parametrize(
        "loader,text,name",
        [
            (load_train_settings, "[train]\nepoch = 5\n", "train.epoch"),
            (load_plan, '{"bench": {"trial": 3}}', "bench.trial"),
            (load_scenario, "[geometry]\nrow = 4\n", "geometry.row"),
            # seed is a ScenarioConfig field, but [snapshot] does not hold it
            (load_scenario, "[snapshot]\nseed = 4\n", "snapshot.seed"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, loader, text, name):
        with pytest.raises(ConfigError, match=f"unknown key {name}"):
            loader(_write(tmp_path, text))

    @pytest.mark.parametrize(
        "text", ["[trian]\nepochs = 5\n", '{"trian": {}}', "[DEFAULT]\nseed = 1\n"]
    )
    def test_unknown_section_rejected(self, tmp_path, text):
        path = _write(tmp_path, text)
        for loader in LOADERS:
            with pytest.raises(ConfigError, match="unknown section"):
                loader(path)

    def test_other_loaders_sections_are_ignored(self, tmp_path):
        path = _write(tmp_path, "[train]\nepoch = 5\n[bench]\ntrial = 3\n")
        assert load_scenario(path) == ScenarioConfig()


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "loader,text",
        [
            (load_scenario, "[geometry]\nrows = 5%\n"),
            (load_scenario, "[impairments]\nneighbors = 0;1\n"),
            (load_scenario, "[impairments]\nenabled = maybe\n"),
            (load_scenario, "[sources]\nelevation_range = a b\n"),
            (load_scenario, "[sources]\nelevation_range = 20 50 80\n"),
            (load_scenario, "[sources]\nelevation_range = 80 20\n"),
            (load_scenario, '{"geometry": {"rows": 2.5}}'),
            (load_scenario, '{"geometry": {"rows": true}}'),
            (load_scenario, '{"geometry": 5}'),
            (load_scenario, '{"snapshot": {"snr_db": 1' + "0" * 400 + "}}"),
            (load_scenario, '{"sources": {"elevation_range": 20}}'),
            (load_train_settings, '{"train": {"hidden_widths": [64, [64], 64, 64]}}'),
            (load_plan, '{"bench": {"methods": ["fft", 5]}}'),
            (load_plan, "[bench]\nsnr_list = 10 x\n"),
        ],
    )
    def test_malformed_value_raises_config_error(self, tmp_path, loader, text):
        with pytest.raises(ConfigError):
            loader(_write(tmp_path, text))

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "binary.ini"
        path.write_bytes(b"\xff\xfe[\x00")
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(path)

    @pytest.mark.parametrize("name", ["elevation_range", "azimuth_range"])
    @pytest.mark.parametrize("bad", [(80.0, 20.0), (math.nan, 20.0), (20.0, math.inf), (20.0,)])
    def test_source_ranges_are_ordered_finite_pairs(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            SourceSpec(**{name: bad})

    @pytest.mark.parametrize(
        "field",
        [
            {"elevation_range": (-10.0, 80.0)},
            {"elevation_range": (20.0, 250.0)},
            {"azimuth_range": (-95.0, 30.0)},
            {"count": 2, "elevations": (200.0, 10.0), "azimuths": (0.0, 0.0)},
            {"count": 1, "elevations": (40.0,), "azimuths": (90.5,)},
        ],
    )
    def test_source_angles_stay_in_the_angle_domain(self, field):
        with pytest.raises(ConfigError, match="must be in"):
            SourceSpec(**field)


# every key each section may hold; the fuzz mixes in unknown names too
SECTION_KEYS = {
    "geometry": [f.name for f in fields(RisGeometry)],
    "sources": [f.name for f in fields(SourceSpec)],
    "impairments": [f.name for f in fields(ImpairmentSpec)],
    "snapshot": ["num_samples", "snr_db"],
    "run": ["seed"],
    "train": [f.name for f in fields(TrainSettings)],
    "bench": [f.name for f in fields(PlanConfig)],
    "trian": ["epochs"],
}
_WORDS = st.sampled_from(
    ["", "0", "1", "-3", "2.5", "1e999", "nan", "-inf", "true", "maybe", "20 50", "50 20",
     "0,1 1,0", "0;1", "a b", "64 64 64 64", "fft omp", "%", "%(x)s", "%%", "[64", "1,2,3"]
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400), st.floats(), _WORDS,
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(_WORDS, inner, max_size=2)
    ),
    max_leaves=8,
)
_ENTRIES = st.sampled_from(sorted(SECTION_KEYS)).flatmap(
    lambda section: st.tuples(
        st.just(section), st.sampled_from(SECTION_KEYS[section] + ["epoch"]), _VALUES
    )
)


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entries=st.lists(_ENTRIES, max_size=8), as_json=st.booleans())
    def test_every_file_loads_or_raises_config_error(self, tmp_path, entries, as_json):
        sections: dict = {}
        for section, key, value in entries:
            sections.setdefault(section, {})[key] = value
        if as_json:
            text = json.dumps(sections)
        else:
            text = "".join(
                f"[{section}]\n"
                + "".join(
                    f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n"
                    for key, value in keys.items()
                )
                for section, keys in sections.items()
            )
        path = _write(tmp_path, text)
        for loader in LOADERS:
            try:
                loader(path)
            except ConfigError:
                pass
