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
import types
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .model import (
    CodeSchedule,
    ImpairmentModel,
    RisGeometry,
    SourceSet,
    _check_int,
    _is_count,
    _is_real,
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
    elevation_range: tuple[float, float] = (20.0, 80.0)
    azimuth_range: tuple[float, float] = (-30.0, 30.0)
    min_separation_deg: float = 15.0
    elevations: tuple[float, ...] | None = None
    azimuths: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_int("count", self.count, least=1)
        sep = self.min_separation_deg
        if not (_is_real(sep) and 0.0 <= sep < math.inf):
            raise ConfigError(f"min_separation_deg must be a finite number >= 0, got {sep!r}")
        for name in ("elevation_range", "azimuth_range"):
            _check_range(name, getattr(self, name))
        if (self.elevations is None) != (self.azimuths is None):
            raise ConfigError("fixed elevations and azimuths must be given together")
        if self.elevations is not None and (
            len(self.elevations) != self.count or len(self.azimuths) != self.count
        ):
            raise ConfigError("fixed angle lists must match the source count")
        # the angle domain of SourceSet, checked here so that no draw can leave it
        for axis, lo, hi in (("elevation", 0.0, 180.0), ("azimuth", -90.0, 90.0)):
            got = (*getattr(self, f"{axis}_range"), *(getattr(self, f"{axis}s") or ()))
            if not all(lo <= v <= hi for v in got):
                raise ConfigError(f"{axis}_range and {axis}s must be in [{lo:g}, {hi:g}]: {got}")


@dataclass(frozen=True)
class ImpairmentSpec:
    enabled: bool = True
    coupling_amp_range: tuple[float, float] = (0.1, 0.4)
    mismatch_amp_range: tuple[float, float] = (0.5, 1.5)
    mismatch_phase_range: tuple[float, float] = (-math.pi / 6, math.pi / 6)
    neighbors: tuple[tuple[int, int], ...] = ((0, 1), (1, 0), (1, 1))

    def __post_init__(self):
        for name in ("coupling_amp_range", "mismatch_amp_range", "mismatch_phase_range"):
            _check_range(name, getattr(self, name))
        # the coupling matrix keeps its unit diagonal, so an element cannot couple to itself
        if (0, 0) in map(tuple, self.neighbors):
            raise ConfigError("coupling neighbors must not include the offset (0, 0)")


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: RisGeometry = field(default_factory=lambda: RisGeometry(8, 8))
    sources: SourceSpec = field(default_factory=SourceSpec)
    impairments: ImpairmentSpec = field(default_factory=ImpairmentSpec)
    num_samples: int = 64
    snr_db: float = 20.0
    seed: int = 1234

    def __post_init__(self):
        _check_int("num_samples", self.num_samples, least=1)
        _check_int("seed", self.seed)
        if not _is_level(self.snr_db):
            raise ConfigError(f"snr_db must be a number within ±3000 dB or +inf, got {self.snr_db!r}")

    def schedule(self) -> CodeSchedule:
        return build_code_schedule(
            self.num_samples, self.geometry.n_elements, child_seed(self.seed, STREAM_CODES)
        )

    def draw_sources(self, stream_seed: int) -> SourceSet:
        return sample_sources(self.sources, stream_seed)

    def draw_impairments(self, stream_seed: int) -> ImpairmentModel:
        return sample_impairments(self.geometry, self.impairments, stream_seed)


@dataclass(frozen=True)
class TrainSettings:
    """One training run: dataset, schedule of Adam steps and network widths."""

    dataset_size: int = 2000
    epochs: int = 1000
    batch_size: int = 64
    learning_rate: float = 1e-4
    hidden_widths: tuple[int, ...] = (256, 256, 256, 256)
    snr_range: tuple[float, float] = (20.0, 50.0)
    seed: int = 77

    def __post_init__(self):
        for name in ("dataset_size", "epochs", "batch_size"):
            _check_int(name, getattr(self, name), least=1)
        _check_int("seed", self.seed)
        if not (_is_real(self.learning_rate) and 0.0 < self.learning_rate < math.inf):
            raise ConfigError(
                f"learning rate must be positive and finite, got {self.learning_rate!r}"
            )
        # the network depth is fixed at five affine layers
        widths = self.hidden_widths
        if not (_is_sequence(widths, 4) and all(_is_count(w) and w >= 1 for w in widths)):
            raise ConfigError(f"hidden widths must be four positive integers, got {widths!r}")
        _check_range("SNR range", self.snr_range)


def _check_range(label: str, value) -> None:
    if not (
        _is_sequence(value, 2)
        and all(_is_real(v) and math.isfinite(v) for v in value)
        and value[0] <= value[1]
    ):
        raise ConfigError(f"{label} must be two finite values lo <= hi, got {value!r}")


def _is_sequence(value, length: int) -> bool:
    return isinstance(value, (tuple, list)) and len(value) == length


def _is_level(value) -> bool:
    """An SNR in dB: +inf (noiseless) or within ±3000 dB, where 10^(snr/10) stays a normal float."""
    return _is_real(value) and (value == math.inf or abs(value) <= 3000.0)


def snr_index(snr_db: float) -> int:
    """An SNR's integer in a bench cell's noise seed: its rounded millidecibels, 0 for +inf."""
    return int(round(snr_db * 1000.0)) if math.isfinite(snr_db) else 0


@dataclass(frozen=True)
class PlanConfig:
    """One benchmark run: methods x SNR sweep x trials."""

    methods: tuple[str, ...] = ("fft", "omp", "fft-denoise", "omp-denoise", "dnn-danm")
    snr_list: tuple[float, ...] = (20.0,)
    trials: int = 100
    seed: int = 4321
    workers: int = 1

    def __post_init__(self):
        for name in ("trials", "workers"):
            _check_int(name, getattr(self, name), least=1)
        _check_int("seed", self.seed)
        bad = [v for v in self.snr_list if not _is_level(v)]
        if bad:
            raise ConfigError(f"snr_list must hold SNR numbers within ±3000 dB or +inf, got {bad}")
        for name in ("methods", "snr_list"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must hold at least one entry")
            # a repeated method or SNR would run and summarize its cells twice
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat an entry, got {values}")
        # two SNRs in one millidecibel would draw the same noise in every trial
        finite = [snr_index(v) for v in self.snr_list if math.isfinite(v)]
        if len(set(finite)) != len(finite):
            raise ConfigError(f"snr_list entries must round to distinct 0.001 dB, got {self.snr_list}")


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
# file round-trip: one reader for INI and JSON, cast by the field annotations

_SECTIONS = ("geometry", "sources", "impairments", "snapshot", "run", "train", "bench")
# [snapshot] and [run] set ScenarioConfig's own fields; each other section is one dataclass
_SCENARIO_KEYS = {"snapshot": ("num_samples", "snr_db"), "run": ("seed",)}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


def _read_sections(path) -> dict:
    """Read an INI-style or JSON file (told apart by content) as {section: {key: raw}}."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    if text.lstrip().startswith("{"):
        try:
            sections = json.loads(text)
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"bad JSON config: {err}") from err
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
            # a non-empty [DEFAULT] is listed so that it is rejected as unknown below
            names = parser.sections() + ([parser.default_section] if parser.defaults() else [])
            sections = {name: dict(parser[name]) for name in names}
        except configparser.Error as err:
            raise ConfigError(f"bad INI config: {err}") from err
    for name, section in sections.items():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]; the sections are {', '.join(_SECTIONS)}")
        if not isinstance(section, dict):
            raise ConfigError(f"section [{name}] must map keys to values, got {section!r}")
    return sections


def _coerce(raw, hint):
    """Cast one raw value, INI text or a JSON value, to the annotated type `hint`.

    `T | None` reads an empty value as None. In text, a flat tuple splits on
    commas or spaces, and a tuple of pairs on spaces, then commas ("0,1 1,0").
    """
    if isinstance(hint, types.UnionType):
        if raw in (None, []) or (isinstance(raw, str) and not raw.strip()):
            return None
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        items = raw
        if isinstance(raw, str):
            nested = typing.get_origin(args[0]) is tuple
            items = raw.split() if nested else raw.replace(",", " ").split()
        if not isinstance(items, list):
            raise ConfigError(f"expected a list, got {raw!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(items)
        elif len(items) != len(args):
            raise ConfigError(f"expected {len(args)} values, got {raw!r}")
        return tuple(_coerce(item, arg) for item, arg in zip(items, args))
    if hint is bool and isinstance(raw, (int, str)):
        word = str(raw).strip().lower()
        if word in _BOOLEANS:
            return _BOOLEANS[word]
    elif hint is str and isinstance(raw, str):
        return raw
    # from JSON, true is not a number and 2.5 is not an int (int() would truncate it)
    elif hint in (int, float) and type(raw) in (str, int, hint):
        try:
            return hint(raw)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"expected {hint.__name__}, got {raw!r}")


def override(base, values: dict, where: str, keys=None):
    """Return dataclass `base` with `values` (raw file or flag values by field name) set.

    Each value is cast by its field's annotation; `keys` limits the fields
    that may be set. `where` names the source in errors, as `where.key`.
    """
    hints = typing.get_type_hints(type(base))
    cast = {}
    for key, raw in values.items():
        if key not in (keys or hints):
            raise ConfigError(f"unknown key {where}.{key}; the keys are {', '.join(keys or hints)}")
        try:
            cast[key] = _coerce(raw, hints[key])
        except ConfigError as err:
            raise ConfigError(f"{where}.{key}: {err}") from None
    try:
        return replace(base, **cast)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario from an INI-style or JSON file (detected by content)."""
    sections = _read_sections(path)
    scenario = ScenarioConfig()
    for name in ("geometry", "sources", "impairments"):
        part = override(getattr(scenario, name), sections.get(name, {}), name)
        scenario = replace(scenario, **{name: part})
    for name, keys in _SCENARIO_KEYS.items():
        scenario = override(scenario, sections.get(name, {}), name, keys)
    return scenario


def load_train_settings(path) -> TrainSettings:
    """Read the [train] section (missing keys keep the TrainSettings defaults)."""
    return override(TrainSettings(), _read_sections(path).get("train", {}), "train")


def load_plan(path) -> PlanConfig:
    """Read the [bench] section (missing keys keep the PlanConfig defaults)."""
    return override(PlanConfig(), _read_sections(path).get("bench", {}), "bench")
