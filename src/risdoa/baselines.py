"""Classical estimators and benchmark accounting.

Grid methods score candidate angles against the ideal code response, so
running them on reconstructed (rather than raw impaired) snapshots shows
exactly what the reconstruction buys. The numeric bound treats elevation,
azimuth, and the complex amplitude of each source as unknowns of the ideal
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DegenerateInputError, SingularFimError
from .model import CodeSchedule, RisGeometry, SourceSet, steering_vector


@dataclass(frozen=True)
class AngleGrid:
    """Rectangular search grid in (elevation, azimuth) degrees."""

    elevations_deg: np.ndarray
    azimuths_deg: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "elevations_deg", np.asarray(self.elevations_deg, float))
        object.__setattr__(self, "azimuths_deg", np.asarray(self.azimuths_deg, float))

    @classmethod
    def from_ranges(cls, elevation_range, azimuth_range, step_deg):
        if step_deg <= 0:
            raise ValueError("grid step must be positive")
        els = np.arange(elevation_range[0], elevation_range[1] + step_deg / 2, step_deg)
        azs = np.arange(azimuth_range[0], azimuth_range[1] + step_deg / 2, step_deg)
        return cls(elevations_deg=els, azimuths_deg=azs)

    @property
    def shape(self):
        return (self.elevations_deg.size, self.azimuths_deg.size)

    def point(self, i: int, j: int):
        return float(self.elevations_deg[i]), float(self.azimuths_deg[j])


@dataclass(frozen=True)
class GridDictionary:
    """Ideal-code responses for every grid point, built once and reused.

    Every use correlates a snapshot against the responses, so only their
    conjugates are kept: conjugate holds the conjugated responses and
    unit_conjugate the same scaled to unit norm, both (samples, grid
    points) with elevation-major columns. peak_row/peak_col are the grid's
    spatial frequencies times the element spacings, the coordinates peak
    picking measures distances in. All arrays are read-only, since one
    dictionary serves every cell of a run.
    """

    grid: AngleGrid
    geometry: RisGeometry
    conjugate: np.ndarray
    unit_conjugate: np.ndarray
    norms: np.ndarray
    peak_row: np.ndarray
    peak_col: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The code responses themselves, (samples, grid points); a fresh copy."""
        return self.conjugate.conj()


def build_dictionary(geom: RisGeometry, schedule: CodeSchedule, grid: AngleGrid) -> GridDictionary:
    el = np.deg2rad(grid.elevations_deg)
    az = np.deg2rad(grid.azimuths_deg)
    f_row = np.cos(el)[:, None] * np.ones_like(az)[None, :]
    f_col = np.sin(el)[:, None] * np.sin(az)[None, :]
    m_idx = np.arange(geom.rows)
    n_idx = np.arange(geom.cols)
    row_phase = np.exp(-2j * np.pi * geom.row_spacing * np.outer(m_idx, f_row.ravel()))
    col_phase = np.exp(-2j * np.pi * geom.col_spacing * np.outer(n_idx, f_col.ravel()))
    atoms = (row_phase[:, None, :] * col_phase[None, :, :]).reshape(geom.n_elements, -1)
    matrix = schedule.codes @ atoms
    # dropping the atoms and overwriting the responses with their unit-norm
    # conjugates keeps the build within the arrays the norm itself takes
    del atoms
    norms = np.linalg.norm(matrix, axis=0)
    conjugate = matrix.conj()
    unit_conjugate = np.divide(matrix, np.maximum(norms, 1e-300), out=matrix)
    np.conjugate(unit_conjugate, out=unit_conjugate)
    peak_row = geom.row_spacing * np.cos(el)[:, None] * np.ones(az.size)[None, :]
    peak_col = geom.col_spacing * np.sin(el)[:, None] * np.sin(az)[None, :]
    for a in (conjugate, unit_conjugate, norms, peak_row, peak_col):
        a.flags.writeable = False
    return GridDictionary(
        grid=grid,
        geometry=geom,
        conjugate=conjugate,
        unit_conjugate=unit_conjugate,
        norms=norms,
        peak_row=peak_row,
        peak_col=peak_col,
    )


def grid_spectrum(samples: np.ndarray, dictionary: GridDictionary) -> np.ndarray:
    """Matched-filter score per grid point: |response^H z|^2 / ||response||^2."""
    z = np.asarray(samples, complex)
    corr = dictionary.conjugate.T @ z
    score = np.abs(corr) ** 2 / np.maximum(dictionary.norms**2, 1e-300)
    return score.reshape(dictionary.grid.shape)


def _parabolic_offset(left: float, mid: float, right: float) -> float:
    """Vertex of the parabola through three equispaced samples, in step units."""
    denom = left - 2.0 * mid + right
    if denom >= 0.0:  # not a local max in the quadratic sense
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(np.clip(offset, -0.5, 0.5))


def _pick_peaks(spectrum: np.ndarray, dictionary: GridDictionary, count: int):
    """Greedy maxima, each suppressing its own mainlobe before the next pick.

    Exclusion is an ellipse in the two spatial frequencies sized by the
    aperture Rayleigh widths (1/rows, 1/cols); a fixed angle radius would
    under-suppress the much wider beams near grazing elevations and the
    next pick would land on the shoulder of the previous one.
    """
    work = spectrum.copy()
    geom = dictionary.geometry
    f_row, f_col = dictionary.peak_row, dictionary.peak_col
    picks = []
    for _ in range(count):
        flat = int(np.argmax(work))
        if not np.isfinite(work.flat[flat]):
            raise DegenerateInputError("spectrum exhausted before finding enough peaks")
        i, j = np.unravel_index(flat, work.shape)
        picks.append((int(i), int(j)))
        dist2 = ((f_row - f_row[i, j]) * geom.rows) ** 2 + ((f_col - f_col[i, j]) * geom.cols) ** 2
        work[dist2 < 1.0] = -np.inf
    return picks


def grid_estimate(
    samples: np.ndarray,
    dictionary: GridDictionary,
    num_sources: int,
    refine: bool = True,
):
    """Peak angles of the matched-filter spectrum, optionally refined off-grid.

    Successive peaks must be at least one Rayleigh width apart in spatial
    frequency. Refinement fits a parabola through each peak and its axis
    neighbors and is skipped at grid edges. Returns (elevations, azimuths)
    sorted by elevation.
    """
    spectrum = grid_spectrum(samples, dictionary)
    grid = dictionary.grid
    picks = _pick_peaks(spectrum, dictionary, num_sources)
    el_step = float(grid.elevations_deg[1] - grid.elevations_deg[0]) if grid.elevations_deg.size > 1 else 0.0
    az_step = float(grid.azimuths_deg[1] - grid.azimuths_deg[0]) if grid.azimuths_deg.size > 1 else 0.0
    els, azs = [], []
    for i, j in picks:
        el, az = grid.point(i, j)
        if refine:
            if 0 < i < spectrum.shape[0] - 1 and el_step > 0:
                el += el_step * _parabolic_offset(
                    spectrum[i - 1, j], spectrum[i, j], spectrum[i + 1, j]
                )
            if 0 < j < spectrum.shape[1] - 1 and az_step > 0:
                az += az_step * _parabolic_offset(
                    spectrum[i, j - 1], spectrum[i, j], spectrum[i, j + 1]
                )
        els.append(el)
        azs.append(az)
    order = np.argsort(els)
    return np.asarray(els)[order], np.asarray(azs)[order]


def omp_estimate(samples: np.ndarray, dictionary: GridDictionary, num_sources: int):
    """Orthogonal matching pursuit over the grid dictionary.

    Selection correlates the residual with unit-normalized columns; the
    residual is refit by least squares on the raw selected columns after
    every pick. Returns raw grid angles (no refinement), sorted by
    elevation.
    """
    z = np.asarray(samples, complex)
    residual = z.copy()
    chosen: list[int] = []
    for step in range(num_sources):
        scores = np.abs(dictionary.unit_conjugate.T @ residual)
        scores[chosen] = -1.0
        pick = int(np.argmax(scores))
        chosen.append(pick)
        selected = dictionary.conjugate[:, chosen].conj()
        coef, _, rank, _ = np.linalg.lstsq(selected, z, rcond=None)
        if rank < len(chosen):
            raise DegenerateInputError(
                f"selected responses are rank deficient after {step + 1} picks"
            )
        residual = z - selected @ coef
    rows, cols = np.unravel_index(chosen, dictionary.grid.shape)
    els = dictionary.grid.elevations_deg[rows]
    azs = dictionary.grid.azimuths_deg[cols]
    order = np.argsort(els)
    return els[order], azs[order]


# ---------------------------------------------------------------------------
# numeric lower bound


def _steering_derivatives(geom: RisGeometry, elevation_deg: float, azimuth_deg: float):
    """d(steering)/d(theta) and d(steering)/d(phi), angles in radians."""
    theta = math.radians(elevation_deg)
    phi = math.radians(azimuth_deg)
    a = steering_vector(geom, elevation_deg, azimuth_deg)
    m_idx, n_idx = np.divmod(np.arange(geom.n_elements), geom.cols)
    d_theta_phase = -2.0 * np.pi * (
        -geom.row_spacing * m_idx * math.sin(theta)
        + geom.col_spacing * n_idx * math.cos(theta) * math.sin(phi)
    )
    d_phi_phase = -2.0 * np.pi * geom.col_spacing * n_idx * math.sin(theta) * math.cos(phi)
    return a * 1j * d_theta_phase, a * 1j * d_phi_phase


def crb_numeric(
    geom: RisGeometry,
    schedule: CodeSchedule,
    sources: SourceSet,
    noise_power: float,
) -> float:
    """Root-mean lower bound on angle error, in degrees.

    Unknowns per source: elevation, azimuth (radians), and the real and
    imaginary amplitude parts. The information matrix of the ideal model is
    inverted and the angle variances averaged, matching the benchmark error
    definition. Raises SingularFimError when the geometry cannot separate
    the parameters.
    """
    if noise_power <= 0.0:
        raise ValueError("noise power must be positive for a finite bound")
    codes = schedule.codes
    count = sources.count
    columns = []
    for k in range(count):
        a = steering_vector(geom, sources.elevations_deg[k], sources.azimuths_deg[k])
        d_th, d_ph = _steering_derivatives(geom, sources.elevations_deg[k], sources.azimuths_deg[k])
        s_k = sources.amplitudes[k]
        columns.append(codes @ (s_k * d_th))
        columns.append(codes @ (s_k * d_ph))
        columns.append(codes @ a)
        columns.append(1j * (codes @ a))
    jac = np.stack(columns, axis=1)
    fim = (2.0 / noise_power) * np.real(jac.conj().T @ jac)
    if np.linalg.cond(fim) > 1e12:
        raise SingularFimError("information matrix is numerically singular")
    cov = np.linalg.inv(fim)
    angle_idx = [4 * k + off for k in range(count) for off in (0, 1)]
    mean_var = float(np.mean(np.diag(cov)[angle_idx]))
    return math.degrees(math.sqrt(mean_var))


# ---------------------------------------------------------------------------
# error accounting


def matched_squared_error(est_el, est_az, true_el, true_az) -> float:
    """Total squared angle error (degrees^2) under best source pairing."""
    est_el = np.asarray(est_el, float)
    est_az = np.asarray(est_az, float)
    true_el = np.asarray(true_el, float)
    true_az = np.asarray(true_az, float)
    if est_el.shape != true_el.shape:
        raise ValueError("estimate and truth must have the same source count")
    cost = (est_el[:, None] - true_el[None, :]) ** 2 + (est_az[:, None] - true_az[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def rmse_deg(trial_squared_errors, num_sources: int) -> float:
    """Root mean squared angle error over trials.

    Each entry is one trial's matched total squared error; the mean runs
    over every angle coordinate (2 per source) of every trial.
    """
    errors = np.asarray(list(trial_squared_errors), float)
    if errors.size == 0:
        raise ValueError("need at least one trial")
    return float(np.sqrt(errors.sum() / (2.0 * errors.size * num_sources)))
