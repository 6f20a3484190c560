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
weights.

The splitting is the scaled-dual ADMM of Boyd et al. (2011), run in its
one-variable Douglas-Rachford form on W, the input of the PSD projection.
Each iteration
  (1) projects onto the PSD cone, Z = P(W);
  (2) takes the scaled dual, dual = W - Z;
  (3) runs one block structure step, Q = S(Z - dual): each diagonal block
      through its projector, the border through the mode's data coupling,
      the trace term as a closed-form diagonal shift;
  (4) forms the image g(W) = Q + dual.
The fixed-point residual g(W) - W = Q - Z is the primal residual of the
returned Q. The solve stops when it, the change of the dual and rho times
the change of Z are all within the tolerance relative to the iterates, and
residual balancing rescales the step size rho every 50 iterations.

W advances by type-II Anderson acceleration (Walker & Ni 2011): the next W
is g(W) minus the combination of the last 10 differences of g(W) whose
residual differences best cancel the current residual, from a Tikhonov-
damped Gram system that gains one row and column per iteration. The
extrapolation is safeguarded (Zhang, O'Donoghue & Boyd 2020). It is
refused when the Gram solve fails or its coefficients blow up. It is
undone, for the plain image it replaced, when the residual at the
extrapolated point exceeds the last plain step's. Either way, and on each
change of rho, the history is cleared. On the benchmark problems this
takes about a third of the plain splitting's iterations, each about 30%
dearer. The atomic mode, which evaluates the atomic norm of a given x,
couples the border to that fixed x.

The PSD projection is most of a solve's cost. Near a sparse solution the
iterate has few positive eigenvalues (Boyd et al. 2011, sec. 4.4), and the
projection computes only those eigenpairs, with LAPACK's zheevr over the
interval (0, inf). For such a partial request zheevr finds the eigenvalues
by bisection and their vectors by inverse iteration (its MRRR path, Dhillon
& Parlett 2004, serves the full spectrum), so the saving over a full
eigendecomposition shrinks as the positive share grows: on a 2-vCPU Xeon
about a fifth of the side-65 full program's eigenvalues are positive and
the projection is 2.3x cheaper, while on the 16 x 16 decoupled program
(side 32) about half are, and it costs 1.6 to 2.1 times a full eigh.

zheevr runs in scipy's OpenBLAS and the matrix products in numpy's; the two
libraries keep separate thread pools, which under default threads
oversubscribe the cores on these small matrices. A solve therefore runs
with both pools set to one thread and puts their thread counts back when it
returns or raises; a pool whose library or thread functions cannot be found
is left alone.

In noise-ball mode step (3) projects the observed block onto the residual
ball. In the SVD basis of G = U diag(s) V^H the projection of a point with
range residual r is a one-parameter family, and its multiplier lam >= 0
solves the secular equation

    sum_i |r_i|^2 / (1 + lam s_i^2)^2 = budget,

the trust-region subproblem of More & Sorensen (1983). Newton's method on
the reciprocal form 1/sqrt(budget) - 1/||r(lam)|| converges monotonically
from the left of the root. Each projection starts from the previous
projection's root, which the iterates barely move between splitting steps,
so a few evaluations of the secular sum suffice; a projection that exceeds
the Newton step cap falls back to a bracketed brentq search. The solver
diagnostics count the root solves, the secular evaluations and the
fallbacks.
"""

from __future__ import annotations

import csv
import ctypes
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg.lapack import dposv, zheevr
from scipy.optimize import brentq

from .errors import (
    ConfigError,
    DegenerateInputError,
    InfeasibleConstraintError,
    SizeCapError,
    SolverConvergenceError,
)
from .model import RisGeometry, axis_atom

_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# structure projections


@lru_cache(maxsize=None)
def _two_level_classes(m: int, n: int):
    r = np.arange(m * n)
    mm, nn = r // n, r % n
    dm = mm[:, None] - mm[None, :] + (m - 1)
    dn = nn[:, None] - nn[None, :] + (n - 1)
    idx = dm * (2 * n - 1) + dn
    counts = np.bincount(idx.ravel(), minlength=(2 * m - 1) * (2 * n - 1))
    return idx, counts


@lru_cache(maxsize=None)
def _toeplitz_map(n: int) -> np.ndarray:
    """Real n^2 x n^2 matrix that averages each diagonal of a row-major n x n matrix."""
    i = np.arange(n)
    diag = (i[None, :] - i[:, None]).ravel()
    same = diag[:, None] == diag[None, :]
    P = same / same.sum(axis=1, keepdims=True)
    P.flags.writeable = False  # shared by every caller through the cache
    return P


def _toeplitz_average(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Diagonal averages of the square complex block A through its cached map P."""
    n = A.shape[0]
    pairs = np.ascontiguousarray(A).view(np.float64).reshape(n * n, 2)
    return (P @ pairs).view(np.complex128).reshape(n, n)


def _class_average(A: np.ndarray, idx: np.ndarray, counts: np.ndarray) -> np.ndarray:
    flat = idx.ravel()
    re = np.bincount(flat, weights=A.real.ravel(), minlength=counts.size)
    im = np.bincount(flat, weights=A.imag.ravel(), minlength=counts.size)
    return ((re + 1j * im) / counts)[idx]


def _hermitian(A: np.ndarray) -> np.ndarray:
    return (A + A.conj().T) / 2.0


def project_toeplitz_hermitian(A: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto Hermitian Toeplitz matrices.

    Hermitian symmetrization followed by averaging each diagonal; the two
    projections commute, so the composition is the projection onto the
    intersection.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("input must be square")
    return _toeplitz_average(_hermitian(A), _toeplitz_map(A.shape[0]))


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
    idx, counts = _two_level_classes(rows, cols)
    return _class_average(_hermitian(A), idx, counts)


def project_psd(A: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix to the Hermitian part.

    The projection keeps the eigenpairs with positive eigenvalue and drops
    the rest, so only those m pairs are computed (zheevr over (0, inf)) and
    the result is V_m diag(w_m) V_m^H; m = 0 gives the zero matrix. A
    failed eigensolve raises DegenerateInputError.
    """
    H = _hermitian(np.asarray(A, dtype=complex))
    w, V, m, _, info = zheevr(H, compute_v=1, range="V", vl=0.0, vu=np.inf)
    if info != 0:
        raise DegenerateInputError(f"PSD projection: LAPACK zheevr failed with info = {info}")
    V = V[:, :m]
    return _hermitian((V * w[:m]) @ V.conj().T)


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
# atoms and Toeplitz construction (shared by tests, oracles, and extraction)


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


def full_toeplitz_marginals(T: np.ndarray, rows: int, cols: int):
    """Per-axis Toeplitz factors of a two-level Toeplitz matrix.

    Averaging the inner (column) diagonal collapses the structure to the
    row-axis factor and vice versa; on a matrix built from frequency atoms
    both marginals carry the same atoms as a plain 1D Toeplitz sum.
    """
    T4 = np.asarray(T, dtype=complex).reshape(rows, cols, rows, cols)
    t_row = np.einsum("mnpn->mp", T4) / cols
    t_col = np.einsum("mnmq->nq", T4) / rows
    return t_row, t_col


# ---------------------------------------------------------------------------
# solver configuration and results


@dataclass(frozen=True)
class SolverConfig:
    """Splitting-solver knobs shared by both programs.

    mode selects the data coupling: "noise-ball" enforces
    ||z - G x|| <= sqrt(noise_power) exactly, "regularized" adds
    0.5 ||z - G x||^2 and weights the trace by alpha (default
    sigma * sqrt(MN log MN) with sigma the per-sample noise deviation).
    size_cap bounds MN in the full program, whose PSD block has side MN + 1.
    """

    mode: str = "noise-ball"
    alpha: float | None = None
    max_iterations: int = 50_000
    tolerance: float = 1e-6
    size_cap: int = 64

    def __post_init__(self):
        if self.mode not in ("noise-ball", "regularized"):
            raise ConfigError(f"unknown solver mode {self.mode!r}")
        if self.tolerance <= 0 or self.max_iterations < 1:
            raise ConfigError("tolerance, max_iterations must be positive")


@dataclass(frozen=True)
class SolverDiagnostics:
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    trace_objective: float
    data_residual: float
    min_eigenvalue: float
    rho_final: float
    mode: str
    residual_history: tuple = field(repr=False, default=())
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


def write_residual_history(diagnostics: SolverDiagnostics, path) -> None:
    """Dump the recorded (iteration, primal, dual) residual trace as CSV."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "primal_residual", "dual_residual"])
        for row in diagnostics.residual_history:
            writer.writerow([row[0], repr(row[1]), repr(row[2])])


# ---------------------------------------------------------------------------
# data-coupling steps in the SVD basis of G


# Newton steps allowed per ball projection before it falls back to brentq
_NEWTON_STEPS = 30
_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=4)
def _svd_of(shape: tuple, data: bytes):
    U, s, Vh = np.linalg.svd(np.frombuffer(data, dtype=complex).reshape(shape), full_matrices=True)
    V = Vh.conj()
    for a in (U, s, Vh, V):
        a.flags.writeable = False  # shared by every solve through the cache
    return U, s, Vh, V.T


def _code_svd(G: np.ndarray):
    """Full SVD (U, s, Vh) of the code matrix G plus V = Vh^H, read-only.

    A benchmark run solves many snapshots against one code matrix, so the
    factors are cached by G's contents: a matrix with the same shape and
    bytes reuses them, and any change to an entry misses the cache.
    """
    G = np.ascontiguousarray(G, dtype=complex)
    return _svd_of(G.shape, G.tobytes())


class _DataStep:
    """Closed-form updates of the observed block for both coupling modes.

    One instance serves one solve: it holds the observation in the SVD
    basis of G (the factors themselves are shared through _code_svd), the
    warm start of the ball projection and that solve's root-finding counts.
    """

    def __init__(self, G: np.ndarray, z: np.ndarray, mode: str, radius: float = 0.0):
        self.mode = mode
        self.radius = float(radius)
        self.G, self.z = G, np.asarray(z, dtype=complex)
        U, s, self.Vh, self.V = _code_svd(G)  # V maps the SVD basis back
        zt = U.conj().T @ self.z
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > smax * 1e-12))
        self.rank = rank
        self.s = s[:rank]
        self.s_sq = self.s**2
        self.zt = zt[:rank]
        # observation energy outside the range of G is unreachable by any x
        self.unreachable_sq = float(np.sum(np.abs(zt[rank:]) ** 2))
        n = self.size = G.shape[1]
        self.s_full = np.zeros(n)
        self.s_full[:rank] = self.s
        self.sz_full = np.zeros(n, dtype=complex)
        self.sz_full[:rank] = self.s * self.zt
        self.lam = 0.0  # multiplier of the last ball projection; warm start of the next
        self.root_solves = 0
        self.secular_evaluations = 0
        self.brentq_fallbacks = 0
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
        sum |r|^2 / (1 + lam s^2)^2 = budget. x0 comes back unchanged when
        it already lies in the ball, and a zero budget gives the exact fit
        on the range.
        """
        xt = self.Vh @ x0
        r0 = self.zt - self.s * xt[: self.rank]
        r0_sq = np.abs(r0) ** 2
        if float(r0_sq.sum()) <= self.budget_sq + _FLOOR:
            return x0
        if self.budget_sq <= _FLOOR**2:
            xt[: self.rank] = self.zt / self.s
        else:
            lam = self._secular_root(r0_sq)
            xt[: self.rank] = (xt[: self.rank] + lam * self.s * self.zt) / (1.0 + lam * self.s_sq)
        return self.V @ xt

    def _secular_root(self, r0_sq: np.ndarray) -> float:
        """Multiplier of the ball projection by safeguarded Newton steps.

        Newton runs on 1/sqrt(budget) - 1/||r(lam)||, which is decreasing and
        convex in lam (the trust-region form of More & Sorensen), so from any
        point left of the root its steps rise monotonically to the root
        without passing it. It starts at the previous projection's root; a
        step from the right of the root can overshoot to the left, and one
        that lands below the largest multiplier known to leave the residual
        outside the ball is moved up to it. The iteration stops when the
        secular residual is within a few ulps of the budget or the
        multiplier stops changing, and falls back to a bracketed brentq
        search after _NEWTON_STEPS steps.
        """
        s_sq, budget = self.s_sq, self.budget_sq
        target = 1.0 / math.sqrt(budget)
        self.root_solves += 1
        lo = 0.0  # the residual at lam = 0 lies outside the ball
        lam = self.lam
        for _ in range(_NEWTON_STEPS):
            w = 1.0 + lam * s_sq
            terms = r0_sq / (w * w)
            n_sq = float(terms.sum())
            self.secular_evaluations += 1
            if abs(n_sq - budget) <= 4.0 * _EPS * budget:
                break
            if n_sq > budget:
                lo = lam  # no step goes below lo, so this lam is the largest such
            slope = float(terms.dot(s_sq / w))
            step = n_sq * (math.sqrt(n_sq) * target - 1.0) / slope
            new = max(lam + step, lo)
            settled = abs(new - lam) <= 4.0 * _EPS * lam
            lam = new
            if settled:
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

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.z - self.G @ x))

    def penalty_solve(self, v: np.ndarray, rho: float) -> np.ndarray:
        # argmin_x 0.5 ||z - G x||^2 + rho ||x - v||^2 (x enters the bordered
        # matrix twice, hence the doubled quadratic weight)
        vt = self.Vh @ v
        xt = (self.sz_full + 2.0 * rho * vt) / (self.s_full**2 + 2.0 * rho)
        return self.V @ xt


class _FixedCoupling:
    """The atomic mode's coupling: the observed block is held at x itself."""

    mode = "atomic"
    root_solves = secular_evaluations = brentq_fallbacks = 0

    def __init__(self, x: np.ndarray):
        self.x = x
        self.size = x.size

    def couple(self, v: np.ndarray, rho: float) -> np.ndarray:
        return self.x

    def residual(self, x: np.ndarray) -> float:
        return 0.0


def _resolve_alpha(config: SolverConfig, noise_power, n_atoms: int, n_obs: int) -> float:
    if config.alpha is not None:
        return float(config.alpha)
    if noise_power is None:
        raise ConfigError("regularized mode needs alpha or noise_power to size the trace weight")
    sigma = math.sqrt(max(float(noise_power), 0.0) / n_obs)
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
    if config.mode == "regularized":
        return _DataStep(G, z, "regularized"), _resolve_alpha(config, noise_power, n_atoms, z.size)
    if noise_power is None:
        raise ConfigError("noise-ball mode requires noise_power")
    return _DataStep(G, z, "noise-ball", radius=math.sqrt(max(noise_power, 0.0))), 1.0


# ---------------------------------------------------------------------------
# the splitting loop over one bordered block matrix

# the step size rho starts at 1 and residual balancing rescales it every
# _ADAPT_EVERY iterations; the residual history keeps every _RECORD_EVERY-th
# iteration plus the first and the last
_ADAPT_EVERY = 50
_RECORD_EVERY = 25
# Anderson acceleration keeps the last _ANDERSON_MEMORY differences, damps
# each diagonal entry of its Gram matrix by the factor
# 1 + _ANDERSON_REGULARIZATION (Tikhonov damping relative to each column's
# norm) and refuses coefficients whose 1-norm exceeds _ANDERSON_CAP
_ANDERSON_MEMORY = 10
_ANDERSON_REGULARIZATION = 1e-3
_ANDERSON_CAP = 1e4


def _real(A: np.ndarray) -> np.ndarray:
    """Real view of a contiguous complex array as one flat vector."""
    return A.view(np.float64).reshape(-1)


def _fro(A: np.ndarray) -> float:
    """Frobenius norm of a contiguous complex array, as one real dot product."""
    v = _real(A)
    return math.sqrt(v.dot(v))


def _structure_step(V, rho, k, project_top, project_bottom, data, weight):
    """Projection of V onto the bordered structure [[T_top, x], [x^H, T_bottom]].

    Each diagonal block goes through its own projector, the k x (side - k)
    border through the data coupling, and the trace term shifts the
    diagonal by weight / (2 rho).
    """
    H = _hermitian(V)
    out = np.empty_like(H)
    out[:k, :k] = project_top(H[:k, :k])
    out[k:, k:] = project_bottom(H[k:, k:])
    X = data.couple(H[:k, k:].reshape(-1), rho).reshape(k, -1)
    out[:k, k:] = X
    out[k:, :k] = X.conj().T
    out.reshape(-1)[:: out.shape[0] + 1] -= weight / (2.0 * rho)
    return out


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
        self.dF = np.empty((m, size))
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

        Keeps g and f themselves, not copies, until the next step, so the
        caller must not change them in place.
        """
        if self.primed:
            j = self.slot
            np.subtract(f, self.f, out=self.dF[j])
            np.subtract(g, self.g, out=self.dG[j])
            self.slot = (j + 1) % _ANDERSON_MEMORY
            self.filled = c = min(self.filled + 1, _ANDERSON_MEMORY)
            column = self.dF[:c] @ self.dF[j]
            column[j] *= 1.0 + _ANDERSON_REGULARIZATION
            self.gram[j, :c] = self.gram[:c, j] = column
        self.f, self.g = f, g
        self.primed = True
        c = self.filled
        if not c:
            return None
        gamma = _anderson_weights(self.gram[:c, :c], self.dF[:c] @ f)
        # summed in Python, which is quicker on a few entries; NaN is refused too
        if gamma is None or not sum(map(abs, gamma.tolist())) <= _ANDERSON_CAP:
            self.refuse()
            return None
        self.accepted += 1
        return g - gamma @ self.dG[:c]

    def refuse(self) -> None:
        self.rejected += 1
        self.reset()


def _solve(k: int, project_top, project_bottom, data, weight: float, config: SolverConfig, label):
    """Minimize half the trace of a bordered PSD matrix whose top block has side k.

    project_top and project_bottom map the Hermitian diagonal blocks onto
    their structure, data couples the border to the observation. Returns
    the final structured iterate and its diagnostics. Runs with both BLAS
    pools on one thread (_one_blas_thread).

    The loop is the one-variable form of the module docstring on the PSD
    projection's input W, Anderson-accelerated (_Anderson). An extrapolated
    W whose residual exceeds the last plain step's is dropped for the plain
    image of the W it was extrapolated from, and the history is cleared.
    """
    dim = k + data.size // k  # the border holds the coupled x as a k-row block
    W = np.zeros((dim, dim), dtype=complex)
    Z = np.zeros_like(W)
    dual = np.zeros_like(W)
    rho = 1.0
    history = []
    anderson = _Anderson(2 * W.size)
    fallback = None  # (plain image, Z, dual) of the point W was extrapolated from
    with _one_blas_thread():
        for it in range(1, config.max_iterations + 1):
            Z_prev, dual_prev = Z, dual
            Z = project_psd(W)
            dual = W - Z
            Q = _structure_step(Z - dual, rho, k, project_top, project_bottom, data, weight)
            R = Q - Z
            r_pri = _fro(R)
            r_cons = _fro(dual - dual_prev)  # the primal residual of a plain ADMM step
            r_dual = rho * _fro(Z - Z_prev)
            if it == 1 or it % _RECORD_EVERY == 0:
                history.append((it, r_pri, r_dual))
            limit_pri = config.tolerance * max(_fro(Q), _fro(Z), _FLOOR)
            limit_dual = config.tolerance * max(rho * _fro(dual), _FLOOR)
            if r_pri <= limit_pri and r_cons <= limit_pri and r_dual <= limit_dual:
                history.append((it, r_pri, r_dual))
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
            extrapolated = anderson.step(_real(image), _real(R))
            fallback = None if extrapolated is None else (image, Z, dual)
            W = image if extrapolated is None else extrapolated.view(complex).reshape(dim, dim)
        else:  # max_iterations >= 1, so the loop ran and set it, r_pri and r_dual
            raise SolverConvergenceError(
                f"{label} splitting did not reach tolerance {config.tolerance:g} "
                f"in {config.max_iterations} iterations "
                f"(primal {r_pri:.3e}, dual {r_dual:.3e})",
                iterations=it,
                primal_residual=r_pri,
                dual_residual=r_dual,
            )
        min_eigenvalue = float(np.linalg.eigvalsh(Q)[0])
    diagnostics = SolverDiagnostics(
        iterations=it,
        converged=True,
        primal_residual=r_pri,
        dual_residual=r_dual,
        trace_objective=0.5 * float(np.trace(Q[:k, :k]).real + np.trace(Q[k:, k:]).real),
        data_residual=data.residual(Q[:k, k:].reshape(-1)),
        min_eigenvalue=min_eigenvalue,
        rho_final=rho,
        mode=data.mode,
        residual_history=tuple(history),
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
    variance); it also sizes the default trace weight in regularized mode.
    A NaN or inf in z, G or noise_power raises DegenerateInputError.
    """
    config = config or SolverConfig()
    M, N = geom.rows, geom.cols
    data, weight = _coupling(config, z, G, noise_power, M * N)
    top = partial(_toeplitz_average, P=_toeplitz_map(M))
    bottom = partial(_toeplitz_average, P=_toeplitz_map(N))
    Q, diag = _solve(M, top, bottom, data, weight, config, "decoupled")
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

    Pass either x (the response itself; computes its atomic decomposition
    value) or the observation pair (z, G) for denoising in the configured
    mode. The PSD block has side MN + 1, so the size cap guards runtime.
    A NaN or inf in x, z, G or noise_power raises DegenerateInputError.
    """
    config = config or SolverConfig()
    M, N = geom.rows, geom.cols
    mn = M * N
    if mn > config.size_cap:
        raise SizeCapError(f"MN = {mn} exceeds size_cap={config.size_cap} for the full program")
    if (x is None) == (z is None or G is None):
        raise ValueError("pass exactly one of x or the pair (z, G)")
    if x is None:
        data, weight = _coupling(config, z, G, noise_power, mn)
    else:
        x = np.asarray(x, dtype=complex).reshape(-1)
        if x.size != mn:
            raise ValueError(f"x must have {mn} entries")
        _require_finite(x=x)
        data, weight = _FixedCoupling(x), 1.0
    idx, counts = _two_level_classes(M, N)
    top = partial(_class_average, idx=idx, counts=counts)
    bottom = partial(_toeplitz_average, P=_toeplitz_map(1))  # the scalar t
    Q, diag = _solve(mn, top, bottom, data, weight, config, "full")
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
    freqs = toeplitz_to_freqs(T, num_atoms, spacing=spacing)
    atoms = np.stack(
        [np.outer(a, a.conj()).reshape(-1) for a in (axis_atom(f, dim, spacing) for f in freqs)],
        axis=1,
    )
    weights, *_ = np.linalg.lstsq(atoms, T.reshape(-1), rcond=None)
    order = np.argsort(freqs)
    return AtomicDecomposition(frequencies=np.asarray(freqs)[order], weights=weights.real[order])
