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


# a response whose norm is under this fraction of the largest is zero up to
# the rounding of its sums (C times an atom in C's null space)
_VANISHING = 1e-10


@dataclass(frozen=True)
class GridDictionary:
    """Ideal-code responses for every grid point, kept in factored form.

    The response of grid point (e, a) is C (r_e kron c_ea): the code matrix
    C (samples x elements) times the steering atom, whose row phases r_e
    depend on the elevation alone and whose column phases c_ea on both
    angles. With the atoms as the columns of A, the dictionary is D = C A,
    and the ideal codes are real +-1, so the matched filter is
    D^H z = A^H C^H z = A^H (C^T z). ``correlate`` computes it in three
    small products: Y = C^T z as a rows x cols array, one row-phase sum per
    elevation, then one column-phase sum per grid point. No (samples, grid
    points) array is held: on the desk dictionary (96 samples, 8 x 8
    elements, 61 x 61 points) the factors take 0.7 MB, where one dense
    complex copy of D takes 5.7 MB.

    code_t is C^T (elements, samples), stored complex so the first product
    needs no cast; row_conj holds conj(r_e) (elevations, rows); col_conj
    holds conj(c_ea) (elevations, cols, azimuths); norms are the response
    norms, elevation-major, with inf for a response that vanishes to
    rounding (under _VANISHING of the largest), so that its score, rounding
    noise over a zero norm, comes out 0. peak_row and peak_col are the
    grid's spatial frequencies times the element spacings, the coordinates
    peak picking measures distances in. All arrays are read-only, since one
    dictionary serves every cell of a run.
    """

    grid: AngleGrid
    geometry: RisGeometry
    code_t: np.ndarray
    row_conj: np.ndarray
    col_conj: np.ndarray
    norms: np.ndarray
    peak_row: np.ndarray
    peak_col: np.ndarray

    def correlate(self, samples: np.ndarray) -> np.ndarray:
        """D^H z, (elevations, azimuths); rejects a wrong length or NaN/inf."""
        z = np.asarray(samples, complex)
        if z.shape != (self.code_t.shape[1],):
            raise ValueError(
                f"snapshot must hold {self.code_t.shape[1]} samples, got shape {z.shape}"
            )
        if not np.isfinite(z).all():
            bad = np.flatnonzero(~np.isfinite(z))
            raise DegenerateInputError(
                f"snapshot samples {bad[:8].tolist()}{' ...' if bad.size > 8 else ''} are NaN or inf"
            )
        y = (self.code_t @ z).reshape(self.geometry.rows, self.geometry.cols)
        u = self.row_conj @ y
        return np.matmul(u[:, None, :], self.col_conj)[:, 0]

    def columns(self, index) -> np.ndarray:
        """Responses of the flat grid points in index, (samples, len(index))."""
        e, a = np.unravel_index(np.asarray(index, int), self.grid.shape)
        atoms = np.conj(self.row_conj[e][:, :, None] * self.col_conj[e, :, a][:, None, :])
        return (atoms.reshape(e.size, -1) @ self.code_t).T

    @property
    def matrix(self) -> np.ndarray:
        """Every response, (samples, grid points); a dense reference for tests."""
        return self.columns(np.arange(self.norms.size))


def build_dictionary(geom: RisGeometry, schedule: CodeSchedule, grid: AngleGrid) -> GridDictionary:
    code_t = np.ascontiguousarray(schedule.codes.T)
    el = np.deg2rad(grid.elevations_deg)
    az = np.deg2rad(grid.azimuths_deg)
    m_idx = np.arange(geom.rows)
    n_idx = np.arange(geom.cols)
    # conjugated phases exp(+2j pi d m f), per elevation and per grid point
    row_conj = np.exp(2j * np.pi * geom.row_spacing * np.outer(np.cos(el), m_idx))
    col_freq = np.sin(el)[:, None, None] * n_idx[None, :, None] * np.sin(az)[None, None, :]
    col_conj = np.exp(2j * np.pi * geom.col_spacing * col_freq)
    peak_row = geom.row_spacing * np.cos(el)[:, None] * np.ones(az.size)[None, :]
    peak_col = geom.col_spacing * np.sin(el)[:, None] * np.sin(az)[None, :]
    norms = np.empty(el.size * az.size)  # filled from the factors once they are in place
    dictionary = GridDictionary(grid, geom, code_t, row_conj, col_conj, norms, peak_row, peak_col)
    norms[:] = np.linalg.norm(dictionary.matrix, axis=0)
    norms[norms <= _VANISHING * norms.max()] = np.inf
    for arr in (code_t, row_conj, col_conj, norms, peak_row, peak_col):
        arr.flags.writeable = False
    return dictionary


def grid_spectrum(samples: np.ndarray, dictionary: GridDictionary) -> np.ndarray:
    """Matched-filter score per grid point: |response^H z|^2 / ||response||^2."""
    corr = dictionary.correlate(samples)
    return np.abs(corr) ** 2 / dictionary.norms.reshape(corr.shape) ** 2


def _parabolic_offset(left: float, mid: float, right: float) -> float:
    """Vertex of the parabola through three equispaced samples, in step units."""
    denom = left - 2.0 * mid + right
    if denom >= 0.0:  # not a local max in the quadratic sense
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(min(max(offset, -0.5), 0.5))  # as np.clip, NaN and -0.0 included


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
        if len(picks) < count:
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
    residual = z
    chosen: list[int] = []
    for step in range(num_sources):
        scores = np.abs(dictionary.correlate(residual)).ravel() / dictionary.norms
        scores[chosen] = -1.0
        pick = int(np.argmax(scores))
        chosen.append(pick)
        selected = dictionary.columns(chosen)
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
    """The steering vector a and its derivatives d(a)/d(theta), d(a)/d(phi), angles in radians."""
    theta = math.radians(elevation_deg)
    phi = math.radians(azimuth_deg)
    a = steering_vector(geom, elevation_deg, azimuth_deg)
    m_idx, n_idx = np.divmod(np.arange(geom.n_elements), geom.cols)
    d_theta_phase = -2.0 * np.pi * (
        -geom.row_spacing * m_idx * math.sin(theta)
        + geom.col_spacing * n_idx * math.cos(theta) * math.sin(phi)
    )
    d_phi_phase = -2.0 * np.pi * geom.col_spacing * n_idx * math.sin(theta) * math.cos(phi)
    return a, a * 1j * d_theta_phase, a * 1j * d_phi_phase


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
        a, d_th, d_ph = _steering_derivatives(geom, sources.elevations_deg[k], sources.azimuths_deg[k])
        s_k = sources.amplitudes[k]
        response = codes @ a
        columns += [codes @ (s_k * d_th), codes @ (s_k * d_ph), response, 1j * response]
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
