"""Scenario, training, and benchmark configuration with file round-trip.

Configs load from INI-style key-value files with sections, or from JSON
files mirroring the same structure. Every derived artifact records a short
hash of the scenario so outputs can be traced back to their inputs.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import (
    CodeSchedule,
    ImpairmentModel,
    RisGeometry,
    SourceSet,
    build_code_schedule,
    sample_impairments,
    sample_sources,
)
from .seeding import child_seed

# named seed streams, so adding a consumer never shifts another's draws
STREAM_CODES = 1
STREAM_SOURCES = 2
STREAM_IMPAIRMENTS = 3
STREAM_NOISE = 4
STREAM_SNR = 5
STREAM_INIT = 6
STREAM_SHUFFLE = 7


@dataclass(frozen=True)
class SourceSpec:
    """How benchmark and dataset sources are drawn (or pinned)."""

    count: int = 2
    elevation_range: tuple = (20.0, 80.0)
    azimuth_range: tuple = (-30.0, 30.0)
    min_separation_deg: float = 15.0
    elevations: tuple | None = None
    azimuths: tuple | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("source count must be positive")
        if (self.elevations is None) != (self.azimuths is None):
            raise ConfigError("fixed elevations and azimuths must be given together")
        if self.elevations is not None and (
            len(self.elevations) != self.count or len(self.azimuths) != self.count
        ):
            raise ConfigError("fixed angle lists must match the source count")


@dataclass(frozen=True)
class ImpairmentSpec:
    enabled: bool = True
    coupling_amp_range: tuple = (0.1, 0.4)
    mismatch_amp_range: tuple = (0.5, 1.5)
    mismatch_phase_range: tuple = (-math.pi / 6, math.pi / 6)
    neighbors: tuple = ((0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: RisGeometry = field(default_factory=lambda: RisGeometry(8, 8))
    sources: SourceSpec = field(default_factory=SourceSpec)
    impairments: ImpairmentSpec = field(default_factory=ImpairmentSpec)
    num_samples: int = 64
    snr_db: float = 20.0
    seed: int = 1234

    def schedule(self) -> CodeSchedule:
        return build_code_schedule(
            self.num_samples, self.geometry.n_elements, child_seed(self.seed, STREAM_CODES)
        )

    def draw_sources(self, stream_seed: int) -> SourceSet:
        spec = self.sources
        if spec.elevations is not None:
            rng = np.random.default_rng(stream_seed)
            amps = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=spec.count))
            return SourceSet(list(spec.elevations), list(spec.azimuths), amps)
        return sample_sources(
            spec.count,
            spec.elevation_range,
            spec.azimuth_range,
            spec.min_separation_deg,
            seed=stream_seed,
        )

    def draw_impairments(self, stream_seed: int) -> ImpairmentModel:
        spec = self.impairments
        if not spec.enabled:
            return ImpairmentModel.identity(self.geometry.n_elements)
        return sample_impairments(
            self.geometry,
            coupling_amp_range=spec.coupling_amp_range,
            coupling_neighbors=spec.neighbors,
            mismatch_amp_range=spec.mismatch_amp_range,
            mismatch_phase_range=spec.mismatch_phase_range,
            seed=stream_seed,
        )


@dataclass(frozen=True)
class TrainSettings:
    """One training run: dataset, schedule of Adam steps and network widths."""

    dataset_size: int = 2000
    epochs: int = 1000
    batch_size: int = 64
    learning_rate: float = 1e-4
    hidden_widths: tuple | None = None
    snr_range: tuple = (20.0, 50.0)
    seed: int = 77

    def __post_init__(self):
        for name in ("dataset_size", "epochs", "batch_size"):
            value = getattr(self, name)
            if not (_is_count(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")
        if not (_is_real(self.learning_rate) and 0.0 < self.learning_rate < math.inf):
            raise ConfigError(
                f"learning rate must be positive and finite, got {self.learning_rate!r}"
            )
        # the network depth is fixed at five affine layers
        widths = self.hidden_widths
        if widths is not None and not (
            _is_sequence(widths, 4) and all(_is_count(w) and w >= 1 for w in widths)
        ):
            raise ConfigError(f"hidden widths must be four positive integers, got {widths!r}")
        snr = self.snr_range
        if not (
            _is_sequence(snr, 2)
            and all(_is_real(v) and math.isfinite(v) for v in snr)
            and snr[0] <= snr[1]
        ):
            raise ConfigError(f"SNR range must be two finite values lo <= hi, got {snr!r}")


def _is_sequence(value, length: int) -> bool:
    return isinstance(value, (tuple, list)) and len(value) == length


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PlanConfig:
    """One benchmark run: methods x SNR sweep x trials."""

    methods: tuple = ("fft", "omp", "fft-denoise", "omp-denoise", "dnn-danm")
    snr_list: tuple = (20.0,)
    trials: int = 100
    seed: int = 4321
    workers: int = 1
    grid_step_deg: float = 1.0
    solver_tolerance: float = 1e-5
    solver_max_iterations: int = 20_000
    full_solver_cap: int = 256

    def __post_init__(self):
        if self.trials < 1 or self.workers < 1:
            raise ConfigError(
                f"trials and workers must be at least 1, got {self.trials} and {self.workers}"
            )
        if not self.grid_step_deg > 0.0:
            raise ConfigError(f"grid step must be positive, got {self.grid_step_deg}")
        # +inf is a noiseless cell; nan and -inf name no noise level
        bad = [v for v in self.snr_list if math.isnan(v) or v == -math.inf]
        if bad:
            raise ConfigError(f"SNR values must be numbers or +inf, got {bad}")
        if not (self.solver_tolerance > 0.0 and self.solver_max_iterations > 0):
            raise ConfigError(
                "solver tolerance and iteration cap must be positive, got "
                f"{self.solver_tolerance} and {self.solver_max_iterations}"
            )


def desk_scenario(**overrides) -> ScenarioConfig:
    """Small grid sized for quick runs: 8x8 elements, 64 samples."""
    return ScenarioConfig(**overrides)


def large_scenario(**overrides) -> ScenarioConfig:
    """Large configuration: 16x16 elements, 128 samples."""
    base = dict(geometry=RisGeometry(16, 16), num_samples=128)
    base.update(overrides)
    return ScenarioConfig(**base)


def scenario_hash(scenario: ScenarioConfig) -> str:
    payload = json.dumps(asdict(scenario), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# file round-trip


def _pair(text: str, cast=float) -> tuple:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"expected two values, got {text!r}")
    return (cast(parts[0]), cast(parts[1]))


def _num_list(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _neighbor_list(text: str) -> tuple:
    out = []
    for token in text.split():
        a, b = token.split(",")
        out.append((int(a), int(b)))
    return tuple(out)


def _scenario_from_mapping(data: dict) -> ScenarioConfig:
    try:
        geo = data.get("geometry", {})
        geometry = RisGeometry(
            rows=int(geo.get("rows", 8)),
            cols=int(geo.get("cols", 8)),
            row_spacing=float(geo.get("row_spacing", 0.4)),
            col_spacing=float(geo.get("col_spacing", 0.4)),
        )
        src = data.get("sources", {})
        sources = SourceSpec(
            count=int(src.get("count", 2)),
            elevation_range=tuple(src.get("elevation_range", (20.0, 80.0))),
            azimuth_range=tuple(src.get("azimuth_range", (-30.0, 30.0))),
            min_separation_deg=float(src.get("min_separation_deg", 15.0)),
            elevations=tuple(src["elevations"]) if src.get("elevations") else None,
            azimuths=tuple(src["azimuths"]) if src.get("azimuths") else None,
        )
        imp = data.get("impairments", {})
        impairments = ImpairmentSpec(
            enabled=bool(imp.get("enabled", True)),
            coupling_amp_range=tuple(imp.get("coupling_amp_range", (0.1, 0.4))),
            mismatch_amp_range=tuple(imp.get("mismatch_amp_range", (0.5, 1.5))),
            mismatch_phase_range=tuple(
                imp.get("mismatch_phase_range", (-math.pi / 6, math.pi / 6))
            ),
            neighbors=tuple(tuple(n) for n in imp.get("neighbors", ((0, 1), (1, 0), (1, 1)))),
        )
        snap = data.get("snapshot", {})
        run = data.get("run", {})
        return ScenarioConfig(
            geometry=geometry,
            sources=sources,
            impairments=impairments,
            num_samples=int(snap.get("num_samples", 64)),
            snr_db=float(snap.get("snr_db", 20.0)),
            seed=int(run.get("seed", 1234)),
        )
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"bad scenario config: {err}") from err


def _ini_to_mapping(parser: configparser.ConfigParser) -> dict:
    data: dict = {}
    if parser.has_section("geometry"):
        data["geometry"] = dict(parser["geometry"])
    if parser.has_section("sources"):
        s = parser["sources"]
        entry: dict = {}
        if "count" in s:
            entry["count"] = s["count"]
        if "elevation_range" in s:
            entry["elevation_range"] = _pair(s["elevation_range"])
        if "azimuth_range" in s:
            entry["azimuth_range"] = _pair(s["azimuth_range"])
        if "min_separation_deg" in s:
            entry["min_separation_deg"] = s["min_separation_deg"]
        if "elevations" in s:
            entry["elevations"] = _num_list(s["elevations"])
        if "azimuths" in s:
            entry["azimuths"] = _num_list(s["azimuths"])
        data["sources"] = entry
    if parser.has_section("impairments"):
        s = parser["impairments"]
        entry = {}
        if "enabled" in s:
            entry["enabled"] = s.getboolean("enabled")
        for key in ("coupling_amp_range", "mismatch_amp_range", "mismatch_phase_range"):
            if key in s:
                entry[key] = _pair(s[key])
        if "neighbors" in s:
            entry["neighbors"] = _neighbor_list(s["neighbors"])
        data["impairments"] = entry
    if parser.has_section("snapshot"):
        data["snapshot"] = dict(parser["snapshot"])
    if parser.has_section("run"):
        data["run"] = dict(parser["run"])
    return data


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario from an INI-style or JSON file (detected by content)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    if text.lstrip().startswith("{"):
        try:
            return _scenario_from_mapping(json.loads(text))
        except json.JSONDecodeError as err:
            raise ConfigError(f"bad JSON config: {err}") from err
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"bad INI config: {err}") from err
    return _scenario_from_mapping(_ini_to_mapping(parser))


def _section(parser_or_dict, name: str) -> dict:
    if isinstance(parser_or_dict, dict):
        return dict(parser_or_dict.get(name, {}))
    if parser_or_dict.has_section(name):
        return dict(parser_or_dict[name])
    return {}


def load_train_settings(path) -> TrainSettings:
    """Read the [train] section (missing keys fall back to defaults)."""
    data = _load_any(path)
    s = _section(data, "train")
    try:
        return TrainSettings(
            dataset_size=int(s.get("dataset_size", 2000)),
            epochs=int(s.get("epochs", 1000)),
            batch_size=int(s.get("batch_size", 64)),
            learning_rate=float(s.get("learning_rate", 1e-4)),
            hidden_widths=(
                tuple(int(v) for v in str(s["hidden_widths"]).replace(",", " ").split())
                if s.get("hidden_widths")
                else None
            ),
            snr_range=(
                _pair(s["snr_range"]) if isinstance(s.get("snr_range"), str)
                else tuple(s.get("snr_range", (20.0, 50.0)))
            ),
            seed=int(s.get("seed", 77)),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad train settings: {err}") from err


def load_plan(path) -> PlanConfig:
    """Read the [bench] section (missing keys fall back to defaults)."""
    data = _load_any(path)
    s = _section(data, "bench")
    try:
        methods = s.get("methods", PlanConfig.methods)
        if isinstance(methods, str):
            methods = tuple(methods.replace(",", " ").split())
        snrs = s.get("snr_list", PlanConfig.snr_list)
        if isinstance(snrs, str):
            snrs = tuple(float(v) for v in snrs.replace(",", " ").split())
        return PlanConfig(
            methods=tuple(methods),
            snr_list=tuple(float(v) for v in snrs),
            trials=int(s.get("trials", 100)),
            seed=int(s.get("seed", 4321)),
            workers=int(s.get("workers", 1)),
            grid_step_deg=float(s.get("grid_step_deg", 1.0)),
            solver_tolerance=float(s.get("solver_tolerance", 1e-5)),
            solver_max_iterations=int(s.get("solver_max_iterations", 20_000)),
            full_solver_cap=int(s.get("full_solver_cap", 256)),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad bench settings: {err}") from err


def _load_any(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"bad JSON config: {err}") from err
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"bad INI config: {err}") from err
    return parser
