"""Angle recovery from the structured solver output.

The per-axis Toeplitz factors carry the source frequencies as damped-free
exponentials in their first column. A single-snapshot linear predictor turns
that column into an annihilating polynomial whose roots, projected to the
unit circle, give the frequencies; row and column frequencies are then
paired through the rank-1 structure of X and mapped to (elevation, azimuth).

Sign conventions follow the forward model: the row factor of X uses
exp(-2j pi m d_r f) atoms while its column factor enters conjugated, so the
decoupled T_y is rooted after conjugation. The marginals of the full
two-level Toeplitz solution carry unconjugated atoms on both axes and are
rooted directly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import toeplitz as build_toeplitz
from scipy.optimize import linear_sum_assignment

from .anm import DecoupledSdpVars, FullSdpVars, full_toeplitz_marginals
from .errors import DegenerateInputError, EndfirePoleError
from .model import RisGeometry, axis_atom


@dataclass(frozen=True)
class FrequencyEstimates:
    """Per-axis spatial frequencies recovered from the Toeplitz factors."""

    row: np.ndarray
    col: np.ndarray


@dataclass(frozen=True)
class DoaEstimate:
    """Paired angle estimates sorted by elevation, plus fit diagnostics.

    score_matrix[i, j] is the response of X to row frequency i and column
    frequency j; pair_scores are its entries along the chosen assignment.
    pair_residuals measure the misfit amplitude each atom pair still sees
    after subtracting the joint rank-1 rebuild, and fit_residual is the
    relative Frobenius misfit of that rebuild.
    """

    elevations_deg: np.ndarray
    azimuths_deg: np.ndarray
    score_matrix: np.ndarray
    pair_scores: np.ndarray
    pair_residuals: np.ndarray
    fit_residual: float

    @property
    def count(self) -> int:
        return self.elevations_deg.size


def toeplitz_to_freqs(T: np.ndarray, num_freqs: int, spacing: float) -> np.ndarray:
    """Root the annihilating polynomial of a (near) Toeplitz PSD matrix.

    Averages each diagonal of the Hermitian part to a single lag, solves the
    linear prediction H b = -u[K:] by least squares, forms the monic
    polynomial [1; b], and takes companion-matrix roots. Roots are projected
    to the unit circle, the num_freqs closest ones kept, and phases mapped
    through f = -angle / (2 pi spacing), clamped to [-1, 1].
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("T must be square")
    dim = T.shape[0]
    if not 1 <= num_freqs < dim:
        raise ValueError(f"need 1 <= num_freqs < {dim}, got {num_freqs}")
    H = (T + T.conj().T) / 2.0
    lags = np.array([np.mean(np.diag(H, -k)) for k in range(dim)])
    rows = build_toeplitz(lags[num_freqs - 1 : dim - 1], lags[num_freqs - 1 :: -1])
    b, _, rank, _ = np.linalg.lstsq(rows, -lags[num_freqs:], rcond=None)
    if rank < num_freqs:
        raise DegenerateInputError(
            f"prediction system rank {rank} cannot identify {num_freqs} frequencies"
        )
    roots = np.roots(np.concatenate(([1.0], b)))
    mags = np.abs(roots)
    if np.any(mags < 1e-12):
        raise DegenerateInputError("annihilating polynomial has a zero root")
    roots = roots[np.argsort(np.abs(mags - 1.0))[:num_freqs]]
    freqs = -np.angle(roots / np.abs(roots)) / (2.0 * np.pi * spacing)
    return np.sort(np.clip(freqs, -1.0, 1.0))


def pairing_scores(row_freqs, col_freqs, X: np.ndarray, geom: RisGeometry) -> np.ndarray:
    """Response magnitude of X to every (row, column) frequency combination."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (geom.rows, geom.cols):
        raise ValueError(f"X must be {geom.rows}x{geom.cols}")
    rows = [axis_atom(f, geom.rows, geom.row_spacing) for f in np.atleast_1d(row_freqs)]
    # column steering enters X conjugated, see module docstring
    cols = [axis_atom(f, geom.cols, geom.col_spacing).conj() for f in np.atleast_1d(col_freqs)]
    S = np.empty((len(rows), len(cols)))
    for i, u in enumerate(rows):
        for j, w in enumerate(cols):
            S[i, j] = abs(u.conj() @ X @ w)
    return S


def pair_frequencies(row_freqs, col_freqs, X: np.ndarray, geom: RisGeometry):
    """Match row to column frequencies by maximum total response of X."""
    return _pairs_and_scores(row_freqs, col_freqs, X, geom)[0]


def _pairs_and_scores(row_freqs, col_freqs, X: np.ndarray, geom: RisGeometry):
    """The pairing of pair_frequencies together with the score matrix it maximized."""
    S = pairing_scores(row_freqs, col_freqs, X, geom)
    if S.shape[0] != S.shape[1]:
        raise ValueError("row and column frequency lists must have equal length")
    ri, ci = linear_sum_assignment(-S)
    return list(zip(ri.tolist(), ci.tolist())), S


def freqs_to_angles(f_row: float, f_col: float):
    """Map a (row, column) frequency pair to (elevation, azimuth) in degrees.

    Elevation comes from arccos of the row frequency; azimuth from arcsin of
    the column frequency over sin(elevation), with the ratio clamped to
    [-1, 1] so boundary overshoot degrades gracefully.
    """
    if abs(f_row) > 1.0 + 1e-9:
        raise ValueError(f"row frequency must lie in [-1, 1], got {f_row}")
    f_row = float(np.clip(f_row, -1.0, 1.0))
    theta = float(np.degrees(np.arccos(f_row)))
    sin_t = float(np.sqrt(max(1.0 - f_row * f_row, 0.0)))
    if sin_t < 1e-6:
        raise EndfirePoleError("azimuth is undefined at the elevation endfire")
    ratio = float(np.clip(f_col / sin_t, -1.0, 1.0))
    phi = float(np.degrees(np.arcsin(ratio)))
    return theta, phi


def _assemble_estimate(row_freqs, col_freqs, X, geom: RisGeometry) -> DoaEstimate:
    pairs, S = _pairs_and_scores(row_freqs, col_freqs, X, geom)
    atoms = []
    angles = []
    for i, j in pairs:
        theta, phi = freqs_to_angles(row_freqs[i], col_freqs[j])
        angles.append((theta, phi))
        u = axis_atom(row_freqs[i], geom.rows, geom.row_spacing)
        v = axis_atom(col_freqs[j], geom.cols, geom.col_spacing)
        atoms.append(np.outer(u, v))
    basis = np.stack([a.reshape(-1) for a in atoms], axis=1)
    coef, *_ = np.linalg.lstsq(basis, X.reshape(-1), rcond=None)
    rebuild = (basis @ coef).reshape(geom.rows, geom.cols)
    err = X - rebuild
    x_norm = max(float(np.linalg.norm(X)), 1e-300)
    scale = np.sqrt(geom.rows * geom.cols)
    pair_res = []
    pair_scores = []
    for (i, j), atom in zip(pairs, atoms):
        u = axis_atom(row_freqs[i], geom.rows, geom.row_spacing)
        w = axis_atom(col_freqs[j], geom.cols, geom.col_spacing).conj()
        pair_res.append(abs(u.conj() @ err @ w) / scale)
        pair_scores.append(S[i, j])
    order = np.argsort([a[0] for a in angles], kind="stable")
    angles = np.asarray(angles)[order]
    return DoaEstimate(
        elevations_deg=angles[:, 0],
        azimuths_deg=angles[:, 1],
        score_matrix=S,
        pair_scores=np.asarray(pair_scores)[order],
        pair_residuals=np.asarray(pair_res)[order],
        fit_residual=float(np.linalg.norm(err)) / x_norm,
    )


def frequency_estimates(vars: DecoupledSdpVars, geom: RisGeometry, num_sources: int) -> FrequencyEstimates:
    """Root both Toeplitz factors of a decoupled solution."""
    row = toeplitz_to_freqs(vars.T_x, num_sources, geom.row_spacing)
    col = toeplitz_to_freqs(vars.T_y.conj(), num_sources, geom.col_spacing)
    return FrequencyEstimates(row=row, col=col)


def estimate_doa(vars: DecoupledSdpVars, geom: RisGeometry, num_sources: int) -> DoaEstimate:
    """Full extraction from a decoupled solution: root, pair, map to angles."""
    freqs = frequency_estimates(vars, geom, num_sources)
    return _assemble_estimate(freqs.row, freqs.col, vars.X, geom)


def estimate_from_full(vars: FullSdpVars, geom: RisGeometry, num_sources: int) -> DoaEstimate:
    """Extraction from a full bordered solution via its per-axis marginals."""
    t_row, t_col = full_toeplitz_marginals(vars.T, geom.rows, geom.cols)
    row = toeplitz_to_freqs(t_row, num_sources, geom.row_spacing)
    col = toeplitz_to_freqs(t_col, num_sources, geom.col_spacing)
    X = np.asarray(vars.x, dtype=complex).reshape(geom.rows, geom.cols)
    return _assemble_estimate(row, col, X, geom)


def estimate_num_sources(T: np.ndarray, max_count: int | None = None) -> int:
    """Eigenvalue-gap model-order pick (provided for completeness, unused by default)."""
    lam = np.linalg.eigvalsh(np.asarray(T, dtype=complex))[::-1]
    lam = np.maximum(lam, 0.0) + 1e-300
    limit = max_count if max_count is not None else lam.size - 1
    limit = min(limit, lam.size - 1)
    if limit < 1:
        raise ValueError("need at least a 2x2 matrix to pick a model order")
    gaps = lam[:limit] / lam[1 : limit + 1]
    return int(np.argmax(gaps)) + 1


def export_estimates_csv(estimates, path) -> None:
    """Write per-trial estimates as rows (trial, k, theta_deg, phi_deg, residual)."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "k", "theta_deg", "phi_deg", "residual"])
        for trial, est in enumerate(estimates):
            for k in range(est.count):
                writer.writerow(
                    [
                        trial,
                        k,
                        repr(float(est.elevations_deg[k])),
                        repr(float(est.azimuths_deg[k])),
                        repr(float(est.pair_residuals[k])),
                    ]
                )
