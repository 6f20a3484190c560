"""Angle recovery from the structured solver output.

The per-axis Toeplitz factors carry the source frequencies as undamped
exponentials in their first column. A single-snapshot linear predictor turns
that column into an annihilating polynomial whose roots, projected to the
unit circle, give the frequencies; row and column frequencies are then
paired through the rank-1 structure of X and mapped to (elevation, azimuth).

Sign conventions follow the forward model: the row factor of X uses
exp(-2j pi m d_r f) atoms while its column factor enters conjugated, so the
decoupled T_y is rooted after conjugation. The full two-level Toeplitz
solution is read at its (dm, 0) and (0, dn) lag classes, which carry
unconjugated atoms on both axes and are rooted directly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import toeplitz as build_toeplitz
from scipy.optimize import linear_sum_assignment

from .anm import DecoupledSdpVars, FullSdpVars
from .errors import DegenerateInputError, EndfirePoleError
from .model import RisGeometry, axis_atom


def toeplitz_to_freqs(lags: np.ndarray, num_freqs: int, spacing: float) -> np.ndarray:
    """Root the annihilating polynomial of a Hermitian Toeplitz PSD matrix.

    Takes the matrix's first column, lags[k] = T[k, 0], solves the linear
    prediction H b = -u[K:] by least squares, forms the monic polynomial
    [1; b], and takes companion-matrix roots. Roots are projected to the
    unit circle, the num_freqs closest ones kept, and phases mapped through
    f = -angle / (2 pi spacing), clamped to [-1, 1].
    """
    lags = np.asarray(lags, dtype=complex)
    if lags.ndim != 1:
        raise ValueError(f"lags must be a 1-D first column, got shape {lags.shape}")
    dim = lags.size
    if not 1 <= num_freqs < dim:
        raise ValueError(f"need 1 <= num_freqs < {dim}, got {num_freqs}")
    if not np.isfinite(lags).all():
        raise DegenerateInputError("Toeplitz lags must be finite")
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
    """Response magnitude of X to every (row, column) frequency combination.

    Entry (i, j) is |u_i^H X w_j|, computed as one product |U^H X W| over
    the row atoms U and the conjugated column atoms W.
    """
    X = np.asarray(X, dtype=complex)
    if X.shape != (geom.rows, geom.cols):
        raise ValueError(f"X must be {geom.rows}x{geom.cols}")
    U = np.stack([axis_atom(f, geom.rows, geom.row_spacing) for f in np.atleast_1d(row_freqs)], axis=1)
    # column steering enters X conjugated, see module docstring
    W = np.stack([axis_atom(f, geom.cols, geom.col_spacing) for f in np.atleast_1d(col_freqs)], axis=1)
    return np.abs(U.conj().T @ X @ W.conj())


def pair_frequencies(row_freqs, col_freqs, X: np.ndarray, geom: RisGeometry):
    """Match row to column frequencies by maximum total response of X."""
    S = pairing_scores(row_freqs, col_freqs, X, geom)
    if S.shape[0] != S.shape[1]:
        raise ValueError("row and column frequency lists must have equal length")
    ri, ci = linear_sum_assignment(-S)
    return list(zip(ri.tolist(), ci.tolist()))


def freqs_to_angles(f_row: float, f_col: float):
    """Map a (row, column) frequency pair to (elevation, azimuth) in degrees.

    Elevation comes from arccos of the row frequency; azimuth from arcsin of
    the column frequency over sin(elevation), with the ratio clamped to
    [-1, 1] so boundary overshoot degrades gracefully.
    """
    # the negated range test also rejects NaN, for which every comparison is false
    if not abs(f_row) <= 1.0 + 1e-9:
        raise ValueError(f"row frequency must lie in [-1, 1], got {f_row}")
    if not np.isfinite(f_col):
        raise ValueError(f"column frequency must be finite, got {f_col}")
    f_row = float(min(max(f_row, -1.0), 1.0))  # the builtins keep NaN and -0.0 as np.clip does
    theta = float(np.degrees(np.arccos(f_row)))
    sin_t = float(np.sqrt(max(1.0 - f_row * f_row, 0.0)))
    if sin_t < 1e-6:
        raise EndfirePoleError("azimuth is undefined at the elevation endfire")
    ratio = float(min(max(f_col / sin_t, -1.0), 1.0))
    phi = float(np.degrees(np.arcsin(ratio)))
    return theta, phi


def _assemble_estimate(row_freqs, col_freqs, X, geom: RisGeometry):
    pairs = pair_frequencies(row_freqs, col_freqs, X, geom)
    angles = [freqs_to_angles(row_freqs[i], col_freqs[j]) for i, j in pairs]
    angles = np.array(sorted(angles, key=lambda a: a[0]))  # stable, by elevation
    return angles[:, 0], angles[:, 1]


def estimate_doa(vars: DecoupledSdpVars, geom: RisGeometry, num_sources: int):
    """Full extraction from a decoupled solution: root, pair, map to angles.

    Returns (elevations_deg, azimuths_deg) sorted by elevation.
    """
    row = toeplitz_to_freqs(vars.T_x[:, 0], num_sources, geom.row_spacing)
    # T_y carries conjugated atoms, see module docstring
    col = toeplitz_to_freqs(vars.T_y[:, 0].conj(), num_sources, geom.col_spacing)
    return _assemble_estimate(row, col, vars.X, geom)


def estimate_from_full(vars: FullSdpVars, geom: RisGeometry, num_sources: int):
    """Extraction from a full bordered solution via the (dm, 0) and (0, dn) lags of T.

    Returns (elevations_deg, azimuths_deg) sorted by elevation.
    """
    row = toeplitz_to_freqs(vars.T[:: geom.cols, 0], num_sources, geom.row_spacing)
    col = toeplitz_to_freqs(vars.T[: geom.cols, 0], num_sources, geom.col_spacing)
    X = np.asarray(vars.x, dtype=complex).reshape(geom.rows, geom.cols)
    return _assemble_estimate(row, col, X, geom)
