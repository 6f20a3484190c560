"""Surface geometry, code schedules, hardware impairments, and snapshot synthesis.

A planar reflecting surface of M x N elements redirects the field of far
sources toward a single-channel receiver. One complex sample is measured per
code configuration: sample p of an ideal surface is

    y[p] = sum_i g[p, i] * (A s)[i] + w[p]

with g the +/-1 code matrix, A the steering matrix of the incident sources,
s their complex amplitudes, and w circular white Gaussian noise. A practical
surface deviates from this through inter-element coupling applied to the
incident field and through per-element reflection mismatch where the
programmed code is -1.

Element (m, n) sits at (m * d_r, n * d_c) in wavelengths and is flattened
row-major to index m * N + n. The incident phase separates per axis into the
row frequency cos(theta) and the column frequency sin(theta) * sin(phi),
which is what every downstream estimator exploits.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_int(name: str, value, least: int | None = None) -> None:
    """Refuse a value that is not an integer (a bool is not one) or is under `least`."""
    if not (_is_count(value) and (least is None or value >= least)):
        bound = "" if least is None else f" of at least {least}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class RisGeometry:
    """Element grid shape and spacings (spacings in carrier wavelengths)."""

    rows: int
    cols: int
    row_spacing: float = 0.4
    col_spacing: float = 0.4

    def __post_init__(self):
        _check_int("rows", self.rows, least=1)
        _check_int("cols", self.cols, least=1)
        for name, d in (("row_spacing", self.row_spacing), ("col_spacing", self.col_spacing)):
            if not (isinstance(d, numbers.Real) and 0.0 < d <= 0.5):
                raise ConfigError(f"{name} must lie in (0, 0.5] wavelengths, got {d!r}")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class SourceSet:
    """Far sources: angles in degrees plus complex amplitudes."""

    elevations_deg: np.ndarray
    azimuths_deg: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        el = np.atleast_1d(np.asarray(self.elevations_deg, dtype=float))
        az = np.atleast_1d(np.asarray(self.azimuths_deg, dtype=float))
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex))
        if not el.shape == az.shape == amp.shape or el.ndim != 1 or el.size == 0:
            raise ValueError("elevations, azimuths, and amplitudes must be equal-length 1D")
        _check_angles(el, az)
        object.__setattr__(self, "elevations_deg", el)
        object.__setattr__(self, "azimuths_deg", az)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def count(self) -> int:
        return self.elevations_deg.size


@dataclass(frozen=True)
class CodeSchedule:
    """Per-sample 1-bit element programming: bit 0 reflects as +1, bit 1 as -1."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.array(self.bits, dtype=np.uint8)
        if b.ndim != 2 or b.size == 0:
            raise ValueError("bits must be a nonempty (samples, elements) array")
        if not np.isin(b, (0, 1)).all():
            raise ValueError("bits must be 0/1")
        b.flags.writeable = False  # the cached views below are derived from it
        object.__setattr__(self, "bits", b)

    @cached_property
    def codes(self) -> np.ndarray:
        """Ideal reflection signs (+1 for bit 0, -1 for bit 1), read-only complex, made once."""
        codes = (1.0 - 2.0 * self.bits.astype(float)).astype(complex)
        codes.flags.writeable = False
        return codes

    @cached_property
    def reflects(self) -> np.ndarray:
        """Read-only mask of the (sample, element) entries programmed to bit 0."""
        mask = self.bits == 0
        mask.flags.writeable = False
        return mask

    @property
    def sample_count(self) -> int:
        return self.bits.shape[0]

    @property
    def element_count(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True)
class ImpairmentModel:
    """Hardware deviations: reflection mismatch per element plus coupling.

    The realized reflection coefficient is exactly 1 where the code bit is 0
    and -amp * exp(j * phase) where it is 1, replacing the ideal -1. The
    coupling matrix mixes the incident field across elements before
    reflection; its diagonal is 1.
    """

    mismatch_amp: np.ndarray
    mismatch_phase: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.mismatch_amp, dtype=float)
        phase = np.asarray(self.mismatch_phase, dtype=float)
        c = np.asarray(self.coupling, dtype=complex)
        n = amp.size
        if amp.shape != (n,) or phase.shape != (n,) or c.shape != (n, n):
            raise ValueError("mismatch vectors must be (n,), coupling (n, n)")
        if not _unit_diagonal(c):
            raise ValueError("coupling diagonal must be 1")
        object.__setattr__(self, "mismatch_amp", amp)
        object.__setattr__(self, "mismatch_phase", phase)
        object.__setattr__(self, "coupling", c)

    @classmethod
    def identity(cls, n_elements: int) -> "ImpairmentModel":
        """Degenerate model with no mismatch and no coupling."""
        return cls(
            mismatch_amp=np.ones(n_elements),
            mismatch_phase=np.zeros(n_elements),
            coupling=np.eye(n_elements, dtype=complex),
        )

    def effective_codes(self, schedule: CodeSchedule) -> np.ndarray:
        """Realized reflection coefficients for every (sample, element)."""
        if schedule.element_count != self.mismatch_amp.size:
            raise ValueError("schedule and impairment element counts differ")
        mismatched = -self.mismatch_amp * np.exp(1j * self.mismatch_phase)
        return np.where(schedule.reflects, 1.0 + 0.0j, mismatched[None, :])


# np.allclose(d, 1.0) with its default tolerances: |d - 1| <= atol + rtol * |1|
_DIAGONAL_TOLERANCE = 1e-8 + 1e-5 * abs(1.0)


def _unit_diagonal(c: np.ndarray) -> bool:
    """Same decision as np.allclose(np.diag(c), 1.0), without its generic set-up.

    NaN and infinite entries fail the comparison, as they do there.
    """
    return bool((np.abs(np.diagonal(c) - 1.0) <= _DIAGONAL_TOLERANCE).all())


@dataclass(frozen=True)
class Snapshot:
    """One received sample vector plus the noise variance and seed that made it."""

    samples: np.ndarray
    noise_power: float
    seed: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("samples must be a nonempty 1D complex vector")
        if not self.noise_power >= 0:  # written to refuse NaN
            raise ValueError(f"noise_power must be nonnegative, got {self.noise_power!r}")
        object.__setattr__(self, "samples", s)


def _check_angles(elevations_deg, azimuths_deg):
    el = np.asarray(elevations_deg, dtype=float)
    az = np.asarray(azimuths_deg, dtype=float)
    # one entry per source: comparing Python floats beats numpy's per-call cost;
    # the negated range test also rejects NaN, for which every comparison is false
    if any(not 0.0 <= v <= 180.0 for v in el.ravel().tolist()):
        raise ValueError(f"elevation must lie in [0, 180] degrees, got {el}")
    if any(not -90.0 <= v <= 90.0 for v in az.ravel().tolist()):
        raise ValueError(f"azimuth must lie in [-90, 90] degrees, got {az}")


def angle_frequencies(elevation_deg, azimuth_deg):
    """Map angles to (row, column) spatial frequencies (cos t, sin t sin p)."""
    t = np.deg2rad(elevation_deg)
    p = np.deg2rad(azimuth_deg)
    return np.cos(t), np.sin(t) * np.sin(p)


def axis_atom(freq: float, length: int, spacing: float) -> np.ndarray:
    """Unit-modulus axis response exp(-2j pi l d f) for l = 0..length-1."""
    return np.exp(-2j * np.pi * spacing * freq * np.arange(length))


def steering_vector(geom: RisGeometry, elevation_deg: float, azimuth_deg: float) -> np.ndarray:
    """Surface response to a unit far source, flattened row-major.

    Entry m * N + n is exp(-2j pi (n d_c sin(t) sin(p) + m d_r cos(t))):
    the single column of steering_matrix for that source.
    """
    return steering_matrix(geom, SourceSet([elevation_deg], [azimuth_deg], [1.0]))[:, 0]


def steering_matrix(geom: RisGeometry, sources: SourceSet) -> np.ndarray:
    """Stack steering vectors of all sources as columns, shape (MN, K).

    Column k is the outer product of source k's two axis responses,
    flattened row-major, i.e. their Kronecker product: the factorization
    the gridless estimators rely on.
    """
    _check_angles(sources.elevations_deg, sources.azimuths_deg)
    f_row, f_col = angle_frequencies(sources.elevations_deg, sources.azimuths_deg)
    rows = axis_atom(f_row[:, None], geom.rows, geom.row_spacing)
    cols = axis_atom(f_col[:, None], geom.cols, geom.col_spacing)
    per_source = rows[:, :, None] * cols[:, None, :]
    return np.ascontiguousarray(per_source.reshape(sources.count, geom.n_elements).T)


def build_code_schedule(num_samples: int, num_elements: int, seed: int) -> CodeSchedule:
    """Draw a uniform random 1-bit schedule, reproducible from the seed."""
    if num_samples < 1 or num_elements < 1:
        raise ValueError("num_samples and num_elements must be positive")
    rng = np.random.default_rng(seed)
    return CodeSchedule(bits=rng.integers(0, 2, size=(num_samples, num_elements), dtype=np.uint8))


def sample_impairments(geom: RisGeometry, spec, seed: int) -> ImpairmentModel:
    """Draw one hardware realization of an ImpairmentSpec (the identity if it is disabled).

    Coupling entries appear only from an element to the spec's grid
    neighbors (offsets (drow, dcol) relative to the element), each with
    magnitude uniform in coupling_amp_range and phase uniform over the full
    circle. The matrix is directed: entry (i, j) is drawn independently of
    (j, i). Mismatch amplitude and phase are uniform per element.
    """
    n = geom.n_elements
    if not spec.enabled:
        return ImpairmentModel.identity(n)
    rng = np.random.default_rng(seed)
    amp = rng.uniform(*spec.mismatch_amp_range, size=n)
    phase = rng.uniform(*spec.mismatch_phase_range, size=n)
    src, dst, keep = _coupling_pairs(geom.rows, geom.cols, tuple(map(tuple, spec.neighbors)))
    # one (magnitude, angle) pair per directed neighbor link, drawn in the
    # order of the element-by-element loop the seeds were defined with
    draws = rng.uniform(*_coupling_bounds(src.size, *spec.coupling_amp_range))
    values = draws[0::2] * np.exp(1j * draws[1::2])
    coupling = np.eye(n, dtype=complex)
    coupling[src[keep], dst[keep]] = values[keep]
    return ImpairmentModel(mismatch_amp=amp, mismatch_phase=phase, coupling=coupling)


@lru_cache(maxsize=None)
def _coupling_pairs(rows: int, cols: int, neighbors: tuple):
    """Directed coupling links of a grid, in draw order, and which draws land.

    Link (i, j) runs from element i to neighbor j = i + offset, ordered by
    element (row-major) and then by offset as listed; offsets that leave the
    grid make no link. A repeated offset draws again and overwrites, so
    keep marks the last draw of each (i, j).
    """
    m, c = np.divmod(np.arange(rows * cols), cols)
    offsets = np.asarray(neighbors, dtype=int).reshape(-1, 2)
    mm = m[:, None] + offsets[None, :, 0]
    cc = c[:, None] + offsets[None, :, 1]
    inside = (mm >= 0) & (mm < rows) & (cc >= 0) & (cc < cols)
    src = np.broadcast_to(np.arange(rows * cols)[:, None], mm.shape)[inside]
    dst = (mm * cols + cc)[inside]
    flat = (src * (rows * cols) + dst)[::-1]
    _, first_from_end = np.unique(flat, return_index=True)
    keep = np.sort(src.size - 1 - first_from_end)
    for a in (src, dst, keep):
        a.flags.writeable = False  # shared by every draw through the cache
    return src, dst, keep


@lru_cache(maxsize=16)
def _coupling_bounds(links: int, lo: float, hi: float):
    """Interleaved (magnitude, angle) lower and upper bounds for links draws."""
    low = np.tile([lo, 0.0], links)
    high = np.tile([hi, 2.0 * math.pi], links)
    low.flags.writeable = high.flags.writeable = False
    return low, high


def _noise_power_for(clean: np.ndarray, snr_db: float) -> float:
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    signal_power = float(np.mean(np.abs(clean) ** 2))
    return signal_power / (10.0 ** (snr_db / 10.0))


def synthesize_impaired(
    geom: RisGeometry,
    schedule: CodeSchedule,
    impairments: ImpairmentModel,
    sources: SourceSet,
    snr_db: float,
    seed: int,
) -> Snapshot:
    """Simulate one snapshot of the practical surface: received(clean_impaired(...))."""
    return received(clean_impaired(geom, schedule, impairments, sources), snr_db, seed)


def clean_impaired(
    geom: RisGeometry, schedule: CodeSchedule, impairments: ImpairmentModel, sources: SourceSet
) -> np.ndarray:
    """Noiseless samples of the practical surface, one per code configuration.

    The incident field per element is A s, coupling mixes it, and each
    sample sums the realized per-element reflections.
    """
    if schedule.element_count != geom.n_elements:
        raise ValueError("schedule width does not match the element count")
    incident = steering_matrix(geom, sources) @ sources.amplitudes
    return impairments.effective_codes(schedule) @ (impairments.coupling @ incident)


def received(clean: np.ndarray, snr_db: float, seed: int) -> Snapshot:
    """Add receiver noise at the SNR in dB to clean samples; at +inf the samples are `clean` itself."""
    noise_power = _noise_power_for(clean, snr_db)
    rng = np.random.default_rng(seed)
    if noise_power > 0.0:
        w = rng.standard_normal(clean.size) + 1j * rng.standard_normal(clean.size)
        samples = clean + math.sqrt(noise_power / 2.0) * w
    else:
        samples = clean
    return Snapshot(samples=samples, noise_power=noise_power, seed=int(seed))


def synthesize_ideal(
    geom: RisGeometry,
    schedule: CodeSchedule,
    sources: SourceSet,
    snr_db: float,
    seed: int,
) -> Snapshot:
    """Simulate one snapshot of the ideal surface (no mismatch, no coupling).

    Equal, bit for bit, to synthesize_impaired with ImpairmentModel.identity:
    an identity coupling passes the incident field through unchanged, and the
    identity's realized codes are the schedule's ideal signs.
    """
    if schedule.element_count != geom.n_elements:
        raise ValueError("schedule width does not match the element count")
    incident = steering_matrix(geom, sources) @ sources.amplitudes
    return received(schedule.codes @ incident, snr_db, seed)


def sample_sources(spec, seed: int) -> SourceSet:
    """Draw the sources of a SourceSpec with unit random-phase amplitudes.

    Pinned angles are kept as given. Otherwise the angles are uniform in the
    angle box, redrawn until every pair lies min_separation_deg apart in the
    (elevation, azimuth) plane; ConfigError when 10000 draws all fall short.
    """
    rng = np.random.default_rng(seed)
    count = spec.count
    if spec.elevations is not None:
        amps = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=count))
        return SourceSet(list(spec.elevations), list(spec.azimuths), amps)
    for _ in range(10_000):
        el = rng.uniform(*spec.elevation_range, size=count)
        az = rng.uniform(*spec.azimuth_range, size=count)
        if count > 1 and spec.min_separation_deg > 0.0:
            d = np.hypot(el[:, None] - el[None, :], az[:, None] - az[None, :])
            if np.min(d[_source_pairs(count)]) < spec.min_separation_deg:
                continue
        amps = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=count))
        return SourceSet(elevations_deg=el, azimuths_deg=az, amplitudes=amps)
    raise ConfigError(f"no draw of {count} sources {spec.min_separation_deg} degrees apart")


@lru_cache(maxsize=16)
def _source_pairs(count: int):
    """Index arrays of the source pairs (i < j), shared by every draw of count."""
    pairs = np.triu_indices(count, k=1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def write_snapshot(snapshot: Snapshot, csv_path, scenario_hash: str = "") -> None:
    """Write samples as CSV rows (sample_index, real, imag) plus a JSON sidecar."""
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "real", "imag"])
        for i, v in enumerate(snapshot.samples):
            writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
    sidecar = {
        "noise_power": snapshot.noise_power,
        "seed": snapshot.seed,
        "scenario_hash": scenario_hash,
    }
    csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_snapshot(csv_path) -> Snapshot:
    """Inverse of write_snapshot (scenario hash is not retained)."""
    csv_path = Path(csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])
    meta = json.loads(csv_path.with_suffix(".json").read_text())
    return Snapshot(samples=values, noise_power=float(meta["noise_power"]), seed=int(meta["seed"]))
