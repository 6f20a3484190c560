"""Gridless sparse recovery via structured trace-minimization programs.

Two convex programs share one operator-splitting solver over a bordered PSD
matrix [[T_top, x], [x^H, T_bottom]] and differ only in the projector of
each diagonal block. The full program's T_top is MN x MN two-level Toeplitz
(outer level along the row axis, inner level along the column axis,
matching the row-major element flattening) and T_bottom the scalar t. The
decoupled program has [[T_x, X], [X^H, T_y]] of side M + N, a Hermitian
Toeplitz block per axis; the PSD cone shrinks from MN + 1 to M + N, which
is where the large runtime gap between the two comes from.

Both minimize half the trace of the structured diagonal blocks, subject to
the observation either through a hard residual ball ||z - G x|| <= radius
("noise-ball") or through a quadratic penalty plus a weighted trace
("regularized"). Atoms are unit Frobenius norm throughout, so the optimal
objective of a well-separated sparse target equals the sum of its atom
weights. The atomic norm of a given x is the full noise-ball program with
z = x, G = I and a zero radius (Bhaskar, Tang & Recht 2013).

The splitting is the scaled-dual ADMM of Boyd et al. (2011), run in its
one-variable Douglas-Rachford form on W, the input of the PSD projection.
Every iterate is Hermitian and held packed as in SCS (O'Donoghue, Chu,
Parikh & Boyd 2016): one real vector of length side^2 with the diagonal,
then sqrt(2) times the real and imaginary parts of the strict lower
triangle, so its dot products are the matrices' Frobenius inner products
(svec, smat). Each iteration
  (1) projects onto the PSD cone, Z = P(W);
  (2) takes the scaled dual, dual = W - Z;
  (3) runs one structure step, Q = S(Z - dual): one average over the
      entry classes of both diagonal blocks, the border through the mode's
      data coupling, the trace term as a shift of the diagonal;
  (4) forms the image g(W) = Q + dual.
The fixed-point residual g(W) - W = Q - Z is the primal residual of the
returned Q. The solve stops when it, the change of the dual and rho times
the change of Z are all within the tolerance relative to the iterates, and
residual balancing rescales the step size rho every 50 iterations. In
regularized mode rho starts at the curvature scale of the data term,
s_min s_max / 2 over the nonzero singular values s of G: in the packed
border 0.5 ||z - G x||^2 has Hessian eigenvalues s^2 / 2, and the geometric
mean of the extreme curvatures is the ADMM step size of Ghadimi, Teixeira,
Shames & Johansson (2015). When the noise power P is given, that start is
multiplied by sqrt(||z|| / sqrt(P)), the root of the data's amplitude SNR,
which rescaling z by c and P by c^2 leaves alone; an explicit alpha without
P, a zero z and P = 0 keep the curvature start. The ball coupling has no
data curvature and starts at rho = 1.

W advances by type-II Anderson acceleration (Walker & Ni 2011) on the
packed vector, as in SCS 3 (O'Donoghue 2021): the next W is g(W) minus the
combination of the last 10 differences of g(W) whose residual differences
best cancel the current residual, from a Tikhonov-damped Gram system that
gains one row and column per iteration. The extrapolation is safeguarded
(Zhang, O'Donoghue & Boyd 2020). It is refused when the Gram solve fails or
its coefficients blow up. It is undone, for the plain image it replaced,
when the residual at the extrapolated point exceeds the last plain step's.
Either way, and on each change of rho, the history is cleared.

The PSD projection is most of a solve's cost. Near a sparse solution the
iterate has few positive eigenvalues (Boyd et al. 2011, sec. 4.4), and the
projection computes only those m eigenpairs, with LAPACK's zheevr over the
interval (0, inf): bisection to an absolute tolerance of 1e-12 ||W|| /
sqrt(side), then inverse iteration. LAPACK gets W divided by the power of
two that brings ||W||^2 into [1/2, 2), and the eigenvalues are scaled back,
so the projection of 2^j W is exactly 2^j times that of W.

zheevr runs in scipy's OpenBLAS and the matrix products in numpy's; the two
libraries keep separate thread pools, which under default threads
oversubscribe the cores on these small matrices. A solve therefore runs
with both pools set to one thread and puts their thread counts back when it
returns or raises; a pool whose library or thread functions cannot be found
is left alone. The SVD of the code matrix, computed once per matrix
(code_svd), runs pinned too, so a solve gives the same bits under any
thread setting.

In noise-ball mode step (3) projects the observed block onto the residual
ball. In the SVD basis of G = U diag(s) V^H the projection of a point with
range residual r is a one-parameter family, and its multiplier lam >= 0
solves the secular equation

    sum_i |r_i|^2 / (1 + lam s_i^2)^2 = budget,

the trust-region subproblem of More & Sorensen (1983). Newton's method on
the reciprocal form 1/sqrt(budget) - 1/||r(lam)|| converges monotonically
from the left of the root. Each projection starts from the previous
projection's root, which the iterates barely move between splitting steps,
and stops after a step of at most 1e-7 of the multiplier, which quadratic
convergence leaves good to about 1e-14: two or three secular sums suffice. A
projection that exceeds the Newton step cap falls back to brentq. The solver
diagnostics count the root solves, the secular evaluations and the
fallbacks.
"""

from __future__ import annotations

import ctypes
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import dposv, zheevr
from scipy.optimize import brentq

from .errors import (
    ConfigError,
    DegenerateInputError,
    InfeasibleConstraintError,
    SizeCapError,
    SolverConvergenceError,
)
from .model import RisGeometry, _check_int, _is_real, axis_atom

_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# packed Hermitian matrices and the structure and PSD projections

_SQRT2 = math.sqrt(2.0)


def _real(A: np.ndarray) -> np.ndarray:
    """Real view of a contiguous complex array as one flat vector."""
    return A.view(np.float64).reshape(-1)


@lru_cache(maxsize=None)
def _svec_layout(n: int):
    """Float offsets and scales of the packed entries of a side-n Hermitian matrix.

    The packed vector holds the diagonal, then sqrt(2) Re and sqrt(2) Im of
    the strict lower triangle taken column by column, so its dot products
    are the Frobenius inner products of the matrices. The offsets index the
    float view of the matrix stored column-major, which is the memory of
    its conjugate stored row-major.
    """
    c, r = np.triu_indices(n, 1)
    cells = np.concatenate([np.arange(n) * (n + 1), c * n + r])
    offsets = np.concatenate([2 * cells, 2 * cells[n:] + 1])
    scale = np.full(n * n, _SQRT2)
    scale[:n] = 1.0
    offsets.flags.writeable = scale.flags.writeable = False  # shared through the cache
    return offsets, scale


def _lower(v: np.ndarray) -> np.ndarray:
    """Column-major matrix with the packed v in its lower triangle and zeros above."""
    n = math.isqrt(v.size)
    offsets, scale = _svec_layout(n)
    L = np.zeros((n, n), dtype=complex, order="F")
    _real(L.T)[offsets] = v / scale
    return L


def svec(A: np.ndarray) -> np.ndarray:
    """Packed real vector of the Hermitian part of a square matrix (the svec of SCS)."""
    A = np.asarray(A, dtype=complex)
    offsets, scale = _svec_layout(A.shape[0])
    return _real(np.ascontiguousarray(A.T + A.conj()) / 2.0)[offsets] * scale


def smat(v: np.ndarray) -> np.ndarray:
    """Hermitian matrix of a packed vector, the inverse of svec."""
    L = _lower(v)
    A = L + L.conj().T
    np.fill_diagonal(A, v[: L.shape[0]])
    return A


@lru_cache(maxsize=None)
def _structure(grids: tuple):
    """(side, class ids, class counts, border offsets, border scales) of a packed matrix.

    grids holds the (rows, cols) of each diagonal block; its entry
    ((m, n), (m', n')) is in class (m - m', n - n'), with the real and
    imaginary parts in classes of their own, so averaging each class
    projects the blocks onto Hermitian (two-level) Toeplitz structure. The
    border between two blocks is one class for the caller to overwrite; the
    packed entries at its offsets times scales are the top-right block's Re, Im.
    """
    n = sum(rows * cols for rows, cols in grids)
    key = np.full((n, n), -1)
    start = base = 0
    for rows, cols in grids:
        mm, nn = np.divmod(np.arange(rows * cols), cols)
        dm = mm[:, None] - mm[None, :] + rows - 1
        dn = nn[:, None] - nn[None, :] + cols - 1
        end = start + rows * cols
        key[start:end, start:end] = base + dm * (2 * cols - 1) + dn
        start, base = end, base + (2 * rows - 1) * (2 * cols - 1)
    c, r = np.triu_indices(n, 1)
    lower = key[r, c]
    packed = np.concatenate([key.diagonal(), lower, np.where(lower < 0, -1, lower + base)])
    _, ids, counts = np.unique(packed, return_inverse=True, return_counts=True)
    where = np.zeros((n, n), dtype=int)
    where[r, c] = np.arange(n, n + r.size)
    k = grids[0][0] * grids[0][1]
    re = where[k:, :k].T.ravel()  # the lower-left block holds conj(x)
    border = np.stack([re, re + r.size], axis=1).ravel()
    scales = np.tile([1.0, -1.0], re.size) / _SQRT2
    for array in (ids, counts, border, scales):
        array.flags.writeable = False
    return n, ids, counts, border, scales


def project_toeplitz_hermitian(A: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto Hermitian Toeplitz matrices: the one-row two-level case."""
    return project_block_toeplitz(A, 1, len(A))


def project_block_toeplitz(A: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Orthogonal projection onto Hermitian two-level Toeplitz matrices.

    Entry ((m, n), (m', n')) of the projection depends only on
    (m - m', n - n'): the outer level runs over the row axis, each of the
    (2 rows - 1) representative blocks is cols x cols Toeplitz.
    """
    A = np.asarray(A, dtype=complex)
    mn = rows * cols
    if A.shape != (mn, mn):
        raise ValueError(f"expected a {mn}x{mn} matrix for a {rows}x{cols} grid")
    _, ids, counts, *_ = _structure(((rows, cols),))
    return smat((np.bincount(ids, weights=svec(A)) / counts)[ids])


def project_psd(w: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix, packed in and out (svec).

    Keeps the m eigenpairs with positive eigenvalue: V_m diag(w_m) V_m^H, or
    zero at m = 0. LAPACK sees W / 2^k with ||W / 2^k||^2 in [1/2, 2), so the
    result for 2^j w is exactly 2^j times that for w. zheevr finds only the
    m pairs, to a tolerance of 1e-12 ||W|| / sqrt(side), so their m errors
    move the result by at most 5e-13 ||W||, and to LAPACK's own where
    inverse iteration fails from that (a tridiagonal form that splits into
    blocks of very different scale). A failed eigensolve raises
    DegenerateInputError.
    """
    w = np.asarray(w, dtype=float)
    norm_sq = w.dot(w)
    k = math.frexp(norm_sq)[1] // 2
    scaled = w * math.ldexp(1.0, -k)
    n = math.isqrt(w.size)
    tol = 1e-12 * math.sqrt(math.ldexp(norm_sq, -2 * k) / n)
    positive = dict(range="V", lower=1, vl=0.0, vu=np.inf, overwrite_a=1)
    ev, V, m, _, info = zheevr(_lower(scaled), abstol=tol, **positive)
    if info > 0:  # inverse iteration may not converge from that tolerance: LAPACK's own instead
        ev, V, m, _, info = zheevr(_lower(scaled), **positive)
    if info != 0:
        raise DegenerateInputError(f"PSD projection: LAPACK zheevr failed with info = {info}")
    offsets, scale = _svec_layout(n)
    # the lower triangle of 2^k V_m diag(w_m) V_m^H, column-major like the input
    Z = zherk(math.ldexp(1.0, k), V[:, :m] * np.sqrt(ev[:m], dtype=complex), lower=1)
    return _real(Z.T)[offsets] * scale


# numpy and scipy each load their own OpenBLAS: the directory of each
# library, its file name pattern and the suffix of its thread functions
_BLAS_POOLS = (
    (Path(np.__file__).parent.parent / "numpy.libs", "libscipy_openblas64_*.so", "64_"),
    (Path(scipy.__file__).parent.parent / "scipy.libs", "libscipy_openblas*.so", ""),
)


@lru_cache(maxsize=None)
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each loaded OpenBLAS in _BLAS_POOLS.

    A library is opened only if the process has loaded it already, and a
    pool whose library or functions are missing is left out.
    """
    controls = []
    for directory, pattern, suffix in _BLAS_POOLS:
        for path in sorted(directory.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
            break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the block with every found OpenBLAS pool on one thread, then restore the counts."""
    controls = _blas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


# ---------------------------------------------------------------------------
# atoms and Toeplitz construction (shared by tests and oracles)


def unit_matrix_atom(geom: RisGeometry, f_row: float, f_col: float) -> np.ndarray:
    """Rank-1 M x N response of one (row, column) frequency pair, unit Frobenius norm."""
    u = axis_atom(f_row, geom.rows, geom.row_spacing)
    v = axis_atom(f_col, geom.cols, geom.col_spacing)
    return np.outer(u, v) / math.sqrt(geom.n_elements)


def unit_vec_atom(geom: RisGeometry, f_row: float, f_col: float) -> np.ndarray:
    """Row-major vectorization of unit_matrix_atom; unit 2-norm."""
    return unit_matrix_atom(geom, f_row, f_col).reshape(-1)


def toeplitz_from_atoms(freqs, weights, dim: int, spacing: float = 0.5) -> np.ndarray:
    """Sum of weighted rank-1 Toeplitz atoms a(f) a(f)^H with unit-modulus entries."""
    T = np.zeros((dim, dim), dtype=complex)
    for f, w in zip(np.atleast_1d(freqs), np.atleast_1d(weights)):
        a = axis_atom(f, dim, spacing)
        T += w * np.outer(a, a.conj())
    return T


# ---------------------------------------------------------------------------
# solver configuration and results

# the largest MN of the full program, whose PSD block has side MN + 1 (257 at 16 x 16)
_FULL_SIZE_CAP = 256


@dataclass(frozen=True)
class SolverConfig:
    """Splitting-solver knobs shared by both programs.

    mode selects the data coupling: "noise-ball" enforces
    ||z - G x|| <= sqrt(noise_power) exactly, "regularized" adds
    0.5 ||z - G x||^2 and weights the trace by alpha (default
    sigma * sqrt(MN log MN) with sigma the per-sample noise deviation).
    """

    mode: str = "noise-ball"
    alpha: float | None = None
    max_iterations: int = 50_000
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.mode not in ("noise-ball", "regularized"):
            raise ConfigError(f"unknown solver mode {self.mode!r}")
        _check_int("max_iterations", self.max_iterations, least=1)
        # written to refuse NaN, which would only fail at the end of the budget
        if not (_is_real(self.tolerance) and 0.0 < self.tolerance < math.inf):
            raise ConfigError(f"tolerance must be a finite positive number, got {self.tolerance!r}")
        alpha = self.alpha
        if alpha is not None and not (_is_real(alpha) and math.isfinite(alpha) and alpha >= 0):
            raise ConfigError(f"alpha must be finite and nonnegative, got {alpha!r}")


@dataclass(frozen=True)
class SolverDiagnostics:
    """What a converged solve reports; a solve that does not converge raises.

    iterations is written to trials.csv by the benchmark harness, and
    trace_objective is the value atomic_norm returns. The tests of the
    safeguards read the rest: rho_final those of step-size balancing, the
    root-solve counts those of the ball projection and the Anderson counts
    those of the acceleration. Each costs only an increment.
    """

    iterations: int
    trace_objective: float
    rho_final: float
    # noise-ball projections that solved for a multiplier, the secular
    # equation evaluations they took and how many fell back to brentq
    root_solves: int = 0
    secular_evaluations: int = 0
    brentq_fallbacks: int = 0
    # Anderson extrapolations taken and those the safeguards refused
    anderson_steps: int = 0
    anderson_rejections: int = 0


@dataclass(frozen=True)
class DecoupledSdpVars:
    """Solution of the decoupled program: per-axis Toeplitz factors plus X."""

    T_x: np.ndarray
    T_y: np.ndarray
    X: np.ndarray
    diagnostics: SolverDiagnostics


@dataclass(frozen=True)
class FullSdpVars:
    """Solution of the full program: two-level Toeplitz T, scalar t, vector x."""

    T: np.ndarray
    t: float
    x: np.ndarray
    diagnostics: SolverDiagnostics


@dataclass(frozen=True)
class AtomicDecomposition:
    """Frequencies and nonnegative weights of a Toeplitz Vandermonde expansion."""

    frequencies: np.ndarray
    weights: np.ndarray


# ---------------------------------------------------------------------------
# data-coupling steps in the SVD basis of G


# Newton steps per ball projection before brentq takes over; the relative step that ends them
_NEWTON_STEPS = 30
_NEWTON_STOP = 1e-7


@lru_cache(maxsize=4)
def _svd_of(shape: tuple, data: bytes):
    with _one_blas_thread():
        U, s, Vh = np.linalg.svd(np.frombuffer(data, dtype=complex).reshape(shape), full_matrices=True)
    V = Vh.conj()
    for a in (U, s, Vh, V):
        a.flags.writeable = False  # shared by every solve through the cache
    rank = int(np.sum(s > s[0] * 1e-12)) if s.size else 0
    return U, s, Vh, V.T, rank


def code_svd(G: np.ndarray):
    """Full SVD (U, s, Vh) of the code matrix G, V = Vh^H and G's numerical rank.

    The factors are read-only, and U[:, :rank] is an orthonormal basis of
    the range of G. The SVD runs with both BLAS pools on one thread, like
    a solve, so the factors have the same bits under any thread setting.
    A benchmark run solves many snapshots against one code matrix, so the
    result is cached by G's contents: a matrix with the same shape and
    bytes reuses it, and any change to an entry misses the cache.
    """
    G = np.ascontiguousarray(G, dtype=complex)
    return _svd_of(G.shape, G.tobytes())


class _DataStep:
    """Closed-form updates of the observed block for both coupling modes.

    One instance serves one solve: it holds the observation in the SVD
    basis of G (the factors themselves are shared through code_svd), the
    warm start of the ball projection and that solve's root-finding counts.
    """

    def __init__(self, G: np.ndarray, z: np.ndarray, mode: str, radius: float = 0.0, noise_power=None):
        self.mode = mode
        self.radius = float(radius)
        U, s, self.Vh, self.V, rank = code_svd(G)  # V maps the SVD basis back
        zt = U.conj().T @ np.asarray(z, dtype=complex)
        self.rank = rank
        self.s = s[:rank]
        self.s_sq = self.s**2
        self.u = 1.0 / self.s_sq  # 1 / (1 + lam s^2) = u / (u + lam)
        self.zt = zt[:rank]
        # observation energy outside the range of G is unreachable by any x
        self.unreachable_sq = float(np.sum(np.abs(zt[rank:]) ** 2))
        n = G.shape[1]
        self.s_full = np.zeros(n)
        self.s_full[:rank] = self.s
        self.sz_full = np.zeros(n, dtype=complex)
        self.sz_full[:rank] = self.s * self.zt
        self.lam = 0.0  # multiplier of the last ball projection; warm start of the next
        self.root_solves = 0
        self.secular_evaluations = 0
        self.brentq_fallbacks = 0
        # the starting step size (module docstring); a zero G has no curvature
        self.rho0 = 1.0
        if mode == "regularized" and rank:
            self.rho0 = float(self.s[0] * self.s[-1]) / 2.0
            z_norm = float(np.linalg.norm(z))
            if noise_power and z_norm:  # and scaled by the data's SNR when that is known
                self.rho0 *= math.sqrt(z_norm / math.sqrt(noise_power))
        if mode == "noise-ball":
            budget_sq = self.radius**2 - self.unreachable_sq
            if budget_sq < -max(1e-20, 1e-10 * float(np.vdot(z, z).real)):
                raise InfeasibleConstraintError(
                    "observation has energy outside the range of the code matrix "
                    "exceeding the noise ball"
                )
            self.budget_sq = max(budget_sq, 0.0)

    def ball_project(self, x0: np.ndarray) -> np.ndarray:
        """Nearest x to x0 with ||z - G x|| inside the noise ball.

        In the SVD basis the residual of x0 is r on the range of G, and the
        projection is xt = (xt0 + lam s zt) / (1 + lam s^2) for the
        multiplier lam >= 0 that solves the secular equation
        sum |r|^2 / (1 + lam s^2)^2 = budget. A zero budget always gives the
        exact fit on the range, however small z is; otherwise x0 comes back
        unchanged when it already lies in the ball.
        """
        xt = self.Vh @ x0
        if self.budget_sq <= _FLOOR**2:  # checked first, so a tiny z is fit exactly too
            xt[: self.rank] = self.zt / self.s
            return self.V @ xt
        r0 = self.zt - self.s * xt[: self.rank]
        if r0.view(float).dot(r0.view(float)) <= self.budget_sq + _FLOOR:
            return x0
        lam = self._secular_root(np.abs(r0) ** 2)
        xt[: self.rank] = (xt[: self.rank] + lam * self.sz_full[: self.rank]) / (1.0 + lam * self.s_sq)
        return self.V @ xt

    def _secular_root(self, r0_sq: np.ndarray) -> float:
        """Multiplier of the ball projection by safeguarded Newton steps.

        Newton runs on 1/sqrt(budget) - 1/||r(lam)||, which is decreasing and
        convex in lam (the trust-region form of More & Sorensen), so from any
        point left of the root its steps rise monotonically to the root
        without passing it. It starts at the previous projection's root; a
        step from the right of the root can overshoot to the left, and one
        that lands below the largest multiplier known to leave the residual
        outside the ball is moved up to it. The iteration stops after a step
        of at most _NEWTON_STOP times the multiplier: convergence is
        quadratic, so the multiplier that step lands on is good to about the
        square of that. It falls back to a bracketed brentq search after
        _NEWTON_STEPS steps.
        """
        u, budget = self.u, self.budget_sq
        target = 1.0 / math.sqrt(budget)
        self.root_solves += 1
        rs_sq = r0_sq * self.s_sq
        lo = 0.0  # the residual at lam = 0 lies outside the ball
        lam = self.lam
        for _ in range(_NEWTON_STEPS):
            inverse = u / (u + lam)
            power = inverse * inverse
            n_sq = float(r0_sq.dot(power))
            self.secular_evaluations += 1
            if n_sq > budget:
                lo = lam  # no step goes below lo, so this lam is the largest such
            power *= inverse
            step = n_sq * (math.sqrt(n_sq) * target - 1.0) / float(rs_sq.dot(power))
            lam, last = max(lam + step, lo), lam
            if abs(lam - last) <= _NEWTON_STOP * last:
                break
        else:
            lam = self._bracketed_root(r0_sq)
            self.brentq_fallbacks += 1
        self.lam = lam
        return lam

    def _bracketed_root(self, r0_sq: np.ndarray) -> float:
        s_sq, budget = self.s_sq, self.budget_sq

        def gap(lam):
            self.secular_evaluations += 1
            return float(np.sum(r0_sq / (1.0 + lam * s_sq) ** 2)) - budget

        hi = 1.0
        while gap(hi) > 0.0:
            hi *= 4.0
            if hi > 1e24:
                raise InfeasibleConstraintError("ball projection failed to bracket")
        return brentq(gap, 0.0, hi, xtol=1e-14)

    def couple(self, v: np.ndarray, rho: float) -> np.ndarray:
        """Data update of the observed block v at step size rho, in this step's mode."""
        if self.mode == "noise-ball":
            return self.ball_project(v)
        return self.penalty_solve(v, rho)

    def penalty_solve(self, v: np.ndarray, rho: float) -> np.ndarray:
        # argmin_x 0.5 ||z - G x||^2 + rho ||x - v||^2 (x enters the bordered
        # matrix twice, hence the doubled quadratic weight)
        vt = self.Vh @ v
        xt = (self.sz_full + 2.0 * rho * vt) / (self.s_full**2 + 2.0 * rho)
        return self.V @ xt


def _resolve_alpha(config: SolverConfig, noise_power, n_atoms: int, n_obs: int) -> float:
    if config.alpha is not None:
        return float(config.alpha)
    if noise_power is None:
        raise ConfigError("regularized mode needs alpha or noise_power to size the trace weight")
    sigma = math.sqrt(float(noise_power) / n_obs)
    return sigma * math.sqrt(n_atoms * math.log(n_atoms)) if n_atoms > 1 else sigma


def _require_finite(**inputs) -> None:
    """Reject solver input holding NaN or inf, naming the argument."""
    for name, value in inputs.items():
        if value is not None and not np.isfinite(value).all():
            raise DegenerateInputError(f"{name} contains NaN or inf")


def _coupling(config: SolverConfig, z, G, noise_power, n_atoms: int):
    """Checked observation pair -> (data step in the configured mode, trace weight)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    G = np.asarray(G, dtype=complex)
    if G.shape != (z.size, n_atoms):
        raise ValueError(f"code matrix must be {z.size}x{n_atoms}, got {G.shape}")
    _require_finite(z=z, G=G, noise_power=noise_power)
    if noise_power is not None and noise_power < 0:
        raise ConfigError(f"noise_power must be nonnegative, got {noise_power!r}")
    if config.mode == "regularized":
        data = _DataStep(G, z, "regularized", noise_power=noise_power)
        return data, _resolve_alpha(config, noise_power, n_atoms, z.size)
    if noise_power is None:
        raise ConfigError("noise-ball mode requires noise_power")
    return _DataStep(G, z, "noise-ball", radius=math.sqrt(noise_power)), 1.0


# ---------------------------------------------------------------------------
# the splitting loop over one bordered block matrix

# the step size rho starts at the data coupling's rho0, clamped to the range
# residual balancing keeps it in, and balancing rescales it every
# _ADAPT_EVERY iterations
_ADAPT_EVERY = 50
# Anderson acceleration keeps the last _ANDERSON_MEMORY differences, damps
# each diagonal entry of its Gram matrix by the factor
# 1 + _ANDERSON_REGULARIZATION (Tikhonov damping relative to each column's
# norm) and refuses coefficients whose 1-norm exceeds _ANDERSON_CAP
_ANDERSON_MEMORY = 10
_ANDERSON_REGULARIZATION = 1e-3
_ANDERSON_CAP = 1e4


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector, as one dot product."""
    return math.sqrt(v.dot(v))


def _structure_step(v, rho, structure, data, weight):
    """Projection of the packed v onto the bordered structure [[T_top, x], [x^H, T_bottom]].

    One class average projects both diagonal blocks, the border goes through
    the data coupling, and the trace term shifts the diagonal by weight / (2 rho).
    """
    n, ids, counts, border, scales = structure
    q = (np.bincount(ids, weights=v) / counts)[ids]
    x = data.couple((v[border] * scales).view(complex), rho)
    q[border] = x.view(float) / scales
    q[:n] -= weight / (2.0 * rho)
    return q


def _anderson_weights(gram: np.ndarray, rhs: np.ndarray):
    """Solution of gram gamma = rhs by Cholesky, or None when the factorization fails."""
    _, gamma, info = dposv(gram, rhs)
    return gamma if info == 0 else None


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map W -> g(W) on real vectors.

    With f = g(W) - W the next point is g(W) - dG gamma, where gamma fits f
    by the columns of dF in least squares; dF and dG are ring buffers of
    the last _ANDERSON_MEMORY differences of residuals and images, and their
    damped Gram matrix gains one row and column per step. Coefficients that
    the Gram solve fails to give, or whose 1-norm exceeds _ANDERSON_CAP,
    are refused: the plain image is taken and the history cleared. One
    instance serves one solve.
    """

    def __init__(self, size: int):
        m = _ANDERSON_MEMORY
        self.dF = np.empty((m + 1, size))  # and after the differences the last residual
        self.dG = np.empty((m, size))
        self.gram = np.empty((m, m))
        self.accepted = self.rejected = 0
        self.reset()

    def reset(self) -> None:
        """Forget every difference; the next step only records its point."""
        self.filled = self.slot = 0
        self.primed = False

    def step(self, g: np.ndarray, f: np.ndarray):
        """Extrapolated next point from image g and residual f, or None to take g.

        Keeps g itself, not a copy, until the next step, so the caller must
        not change it in place.
        """
        if self.primed:
            j = self.slot
            np.subtract(f, self.dF[-1], out=self.dF[j])
            np.subtract(g, self.g, out=self.dG[j])
            self.slot = (j + 1) % _ANDERSON_MEMORY
            self.filled = min(self.filled + 1, _ANDERSON_MEMORY)
        self.dF[-1], self.g = f, g
        self.primed = True
        c = self.filled
        if not c:
            return None
        # rows j and -1 of dF against the differences: the new Gram column and dF f
        products = self.dF[j :: _ANDERSON_MEMORY - j] @ self.dF[:c].T
        products[0, j] *= 1.0 + _ANDERSON_REGULARIZATION
        self.gram[j, :c] = self.gram[:c, j] = products[0]
        gamma = _anderson_weights(self.gram[:c, :c], products[1])
        # summed in Python, which is quicker on a few entries; NaN is refused too
        if gamma is None or not sum(map(abs, gamma.tolist())) <= _ANDERSON_CAP:
            self.refuse()
            return None
        self.accepted += 1
        return g - gamma @ self.dG[:c]

    def refuse(self) -> None:
        self.rejected += 1
        self.reset()


def _solve(grids: tuple, data, weight: float, config: SolverConfig, label):
    """Minimize half the trace of a bordered PSD matrix with diagonal blocks on grids.

    grids holds the (rows, cols) of the top and bottom blocks (_structure),
    data couples the border to the observation. Returns the final
    structured iterate, unpacked, and its diagnostics. Runs with both BLAS
    pools on one thread (_one_blas_thread).

    The loop is the one-variable form of the module docstring on the packed
    PSD projection input W, Anderson-accelerated (_Anderson). An
    extrapolated W whose residual exceeds the last plain step's is dropped
    for the plain image of the W it was extrapolated from, and the history
    is cleared.
    """
    structure = _structure(grids)
    W, Z, dual = np.zeros((3, structure[0] ** 2))
    rho = min(max(data.rho0, 1e-8), 1e8)
    anderson = _Anderson(W.size)
    fallback = None  # (plain image, Z, dual) of the point W was extrapolated from
    with _one_blas_thread():
        for it in range(1, config.max_iterations + 1):
            Z_prev, dual_prev = Z, dual
            Z = project_psd(W)
            dual = W - Z
            Q = _structure_step(Z - dual, rho, structure, data, weight)
            R = Q - Z
            r_pri = _norm(R)
            r_cons = _norm(dual - dual_prev)  # the primal residual of a plain ADMM step
            r_dual = rho * _norm(Z - Z_prev)
            limit_pri = config.tolerance * max(_norm(Q), _norm(Z), _FLOOR)
            limit_dual = config.tolerance * max(rho * _norm(dual), _FLOOR)
            if r_pri <= limit_pri and r_cons <= limit_pri and r_dual <= limit_dual:
                break
            if fallback is None:
                reference = r_pri  # W is a plain image
            elif r_pri > reference:
                W, Z, dual = fallback
                fallback = None
                anderson.refuse()
                continue
            if it % _ADAPT_EVERY == 0:
                # rescaling rho changes the map, so the history is cleared
                if r_cons > 10.0 * r_dual and rho < 1e8:
                    rho *= 2.0
                    dual /= 2.0
                    anderson.reset()
                elif r_dual > 10.0 * r_cons and rho > 1e-8:
                    rho /= 2.0
                    dual *= 2.0
                    anderson.reset()
            image = Q + dual
            extrapolated = anderson.step(image, R)
            fallback = None if extrapolated is None else (image, Z, dual)
            W = image if extrapolated is None else extrapolated
        else:  # max_iterations >= 1, so the loop ran and set it, r_pri and r_dual
            raise SolverConvergenceError(
                f"{label} splitting did not reach tolerance {config.tolerance:g} "
                f"in {config.max_iterations} iterations "
                f"(primal {r_pri:.3e}, dual {r_dual:.3e})",
                iterations=it,
                primal_residual=r_pri,
                dual_residual=r_dual,
            )
        Q = smat(Q)
    diagnostics = SolverDiagnostics(
        iterations=it,
        trace_objective=0.5 * float(np.trace(Q).real),
        rho_final=rho,
        root_solves=data.root_solves,
        secular_evaluations=data.secular_evaluations,
        brentq_fallbacks=data.brentq_fallbacks,
        anderson_steps=anderson.accepted,
        anderson_rejections=anderson.rejected,
    )
    return Q, diagnostics


# ---------------------------------------------------------------------------
# solvers


def solve_danm(
    z: np.ndarray,
    G: np.ndarray,
    geom: RisGeometry,
    config: SolverConfig | None = None,
    noise_power: float | None = None,
) -> DecoupledSdpVars:
    """Recover the structured M x N response X from z = G vec(X) + noise.

    noise_power is the squared-norm budget of the residual ball (total
    expected noise energy over the snapshot, i.e. samples x per-sample
    variance); in regularized mode it sizes the default trace weight and
    the step-size start. A NaN or inf in z, G or noise_power raises
    DegenerateInputError, a negative noise_power ConfigError.
    """
    config = config or SolverConfig()
    M, N = geom.rows, geom.cols
    data, weight = _coupling(config, z, G, noise_power, M * N)
    Q, diag = _solve(((1, M), (1, N)), data, weight, config, "decoupled")
    return DecoupledSdpVars(T_x=Q[:M, :M], T_y=Q[M:, M:], X=Q[:M, M:], diagnostics=diag)


def solve_full_anm(
    geom: RisGeometry,
    config: SolverConfig | None = None,
    x: np.ndarray | None = None,
    z: np.ndarray | None = None,
    G: np.ndarray | None = None,
    noise_power: float | None = None,
) -> FullSdpVars:
    """Solve the full bordered program over the MN-element response.

    Pass either the observation pair (z, G) for denoising in the configured
    mode, or the response x itself for its atomic norm: the noise-ball solve
    of z = x through G = I at zero noise power, whatever config.mode says.
    An MN above 256 raises SizeCapError: the PSD block has side MN + 1.
    A NaN or inf in x, z, G or noise_power raises DegenerateInputError.
    """
    config = config or SolverConfig()
    M, N = geom.rows, geom.cols
    mn = M * N
    if mn > _FULL_SIZE_CAP:
        raise SizeCapError(f"MN = {mn} exceeds the full program's cap of {_FULL_SIZE_CAP}")
    if (x is None, z is None, G is None) not in ((False, True, True), (True, False, False)):
        raise ValueError("pass exactly one of x or the pair (z, G)")
    scale = 1.0
    if x is None:
        data, weight = _coupling(config, z, G, noise_power, mn)
    else:
        x = np.asarray(x, dtype=complex).reshape(-1)
        if x.size != mn:
            raise ValueError(f"x must have {mn} entries")
        _require_finite(x=x)
        # the program is positively homogeneous: solve at ||x|| in [1/2, 1) and scale back
        scale = math.ldexp(1.0, math.frexp(np.linalg.norm(x))[1])
        data, weight = _DataStep(np.eye(mn), x / scale, "noise-ball"), 1.0  # zero radius: exact fit
    Q, diag = _solve(((M, N), (1, 1)), data, weight, config, "full")  # the scalar t last
    Q, diag = scale * Q, replace(diag, trace_objective=scale * diag.trace_objective)
    return FullSdpVars(T=Q[:mn, :mn], t=float(Q[mn, mn].real), x=Q[:mn, mn], diagnostics=diag)


def atomic_norm(x: np.ndarray, geom: RisGeometry, config: SolverConfig | None = None) -> float:
    """Atomic-decomposition value of a response vector (unit-norm atom dictionary)."""
    return solve_full_anm(geom, config, x=x).diagnostics.trace_objective


def vandermonde_decompose(T: np.ndarray, num_atoms: int, spacing: float = 0.5) -> AtomicDecomposition:
    """Recover frequencies and weights of T = sum_q w_q a(f_q) a(f_q)^H.

    The frequencies come from the annihilating-polynomial roots of the
    first Toeplitz column; weights are the least-squares fit of the rank-1
    atoms to T. Requires numerical rank at least num_atoms.
    """
    from .extraction import toeplitz_to_freqs

    T = project_toeplitz_hermitian(T)
    dim = T.shape[0]
    lam = np.linalg.eigvalsh(T)
    tol = max(abs(lam[-1]), _FLOOR) * 1e-8
    if int(np.sum(lam > tol)) < num_atoms:
        raise DegenerateInputError(
            f"matrix rank {int(np.sum(lam > tol))} below requested atom count {num_atoms}"
        )
    freqs = toeplitz_to_freqs(T[:, 0], num_atoms, spacing=spacing)
    atoms = np.stack(
        [np.outer(a, a.conj()).reshape(-1) for a in (axis_atom(f, dim, spacing) for f in freqs)],
        axis=1,
    )
    weights, *_ = np.linalg.lstsq(atoms, T.reshape(-1), rcond=None)
    order = np.argsort(freqs)
    return AtomicDecomposition(frequencies=np.asarray(freqs)[order], weights=weights.real[order])
