"""Eigenvalue counting measures and log-potential density surrogates.

At matrix scale the Brown measure of T is the normalized eigenvalue counting
measure: atoms at the eigenvalue clusters with weight multiplicity/n.  The
log-potential  (1/2) tau log((T-l)*(T-l) + eps^2)  recovers it as a density
through the distributional Laplacian; `brown_density_grid` discretizes that
identity with a 5-point stencil over the working square.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg import cython_blas, cython_lapack
from scipy.linalg.blas import zgemm

from .core import (
    _bind,
    _g17_blocks,
    _int_p,
    as_matrix,
    cluster_labels,
    cluster_tolerance,
    eigenvalue_matching_distance,
    matrix_digest,
    operator_norm,
    single_thread_blas,
    write_output,
)
from .projections import _times_columns
from .regions import Region, Square, ambient_square


@dataclass(frozen=True)
class PointMeasure:
    """Finite atomic probability measure on C.

    `atoms` holds (location, weight) pairs with positive weights summing to
    one.
    """

    atoms: tuple[tuple[complex, float], ...]

    def __post_init__(self):
        total = sum(w for _, w in self.atoms)
        if self.atoms and abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("weights must be positive")

    @property
    def locations(self) -> tuple[complex, ...]:
        return tuple(z for z, _ in self.atoms)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.atoms)


def _measure_from_clusters(clusters, n: int) -> PointMeasure:
    """Counting measure of n eigenvalues already grouped into `clusters`."""
    return PointMeasure(atoms=tuple((c.location, c.multiplicity / n) for c in clusters))


def _measure_from_values(values, tol: float) -> PointMeasure:
    return _measure_from_clusters(cluster_labels(values, tol)[0], len(values))


def empirical_brown(T, tol: float | None = None) -> PointMeasure:
    """Normalized eigenvalue counting measure, clustered at `tol`."""
    T = as_matrix(T)
    if tol is None:
        tol = cluster_tolerance(T)
    return _measure_from_values(np.linalg.eigvals(T).tolist(), tol)


# A normal N has commuting Hermitian parts H = (N + N*)/2, K = (N - N*)/2i,
# so a unitary V that diagonalizes the pencil A = H + alpha K diagonalizes N
# too, with the Rayleigh quotients lambda_j = v_j* N v_j as eigenvalues.  The
# residual r = ||NV - V diag(lambda)||_F is the off-diagonal part of the normal
# V*NV, so by Hoffman-Wielandt (Duke Math. J. 20, 1953) lambda matches N's
# eigenvalues to within r, and to O(r^2 / gap) where they are apart.  Distinct
# eigenvalues with equal x + alpha y share an eigenspace of A, whose mixed
# quotients leave a residual of about their distance; above the bound, N
# takes a general eigensolve.
_PENCIL_ALPHA = 0.6180339887498949
_PENCIL_RESIDUAL = 0.1  # the residual bound, as a fraction of the cluster tolerance


def _normal_eigvals(N: np.ndarray, tol: float) -> np.ndarray:
    """N's eigenvalues from one `eigh` of H + alpha K (see above), or
    `np.linalg.eigvals(N)` when the residual exceeds `_PENCIL_RESIDUAL * tol`.
    Real-component arithmetic and matmul only, so the bits do not depend on
    numpy's CPU dispatch.  Each temporary is dropped once the next is formed,
    so the eigensolve holds N, A and `eigh`'s workspace, then N, V and NV."""
    with np.errstate(all="ignore"):
        Mr = N.real + _PENCIL_ALPHA * N.imag
        Mi = N.imag - _PENCIL_ALPHA * N.real
        A = np.empty_like(N)
        A.real = (Mr + Mr.T) / 2
        A.imag = (Mi - Mi.T) / 2
        del Mr, Mi
        if np.isfinite(A).all():
            V = np.linalg.eigh(A)[1]
            del A
            NV = N @ V
            lam = np.empty(N.shape[0], dtype=np.complex128)
            lam.real = (V.real * NV.real + V.imag * NV.imag).sum(axis=0)
            lam.imag = (V.real * NV.imag - V.imag * NV.real).sum(axis=0)
            NV -= _times_columns(V, lam.real, lam.imag)  # the residual, in place
            if np.linalg.norm(NV) <= _PENCIL_RESIDUAL * tol:
                return lam
    return np.linalg.eigvals(N)


def mixture(parts: list[tuple[PointMeasure, float]], tol: float) -> PointMeasure:
    """Convex combination of measures, re-clustering coincident atoms."""
    locs: list[complex] = []
    weights: list[float] = []
    for m, coeff in parts:
        if coeff < 0:
            raise ValueError("mixture coefficients must be nonnegative")
        for z, w in m.atoms:
            locs.append(z)
            weights.append(coeff * w)
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture coefficients must sum to 1, got {total}")
    clusters, labels = cluster_labels(locs, tol)
    sums = [0.0] * len(clusters)
    for ci, w in zip(labels, weights):
        sums[ci] += w
    out = tuple((c.location, s / total) for c, s in zip(clusters, sums) if s > 0)
    return PointMeasure(atoms=out)


def region_mass(m: PointMeasure, B: Region) -> float:
    """Total weight of the atoms lying in B."""
    return float(sum(w for z, w in m.atoms if B.contains(z)))


_WEIGHT_TOL = 1e-9  # atom weights closer than this are equal in `measure_distance`


def measure_distance(m1: PointMeasure, m2: PointMeasure) -> float:
    """Optimal-matching distance between two atomic measures.

    Atoms are grouped into equal-weight classes (weights compared within
    `_WEIGHT_TOL`); within each class the bottleneck matching distance of the
    locations is taken, and the maximum over classes is returned.  If the
    weight profiles disagree the measures are incomparable and the result
    is infinity.
    """
    w1 = sorted(m1.weights)
    w2 = sorted(m2.weights)
    if len(w1) != len(w2):
        return float("inf")
    if any(abs(x - y) > _WEIGHT_TOL for x, y in zip(w1, w2)):
        return float("inf")
    # group both atom lists by weight class
    all_weights = sorted(set(w1) | set(w2))
    classes: list[float] = []
    for w in all_weights:
        if not classes or w - classes[-1] > _WEIGHT_TOL:
            classes.append(w)

    def klass(w: float) -> int:
        return min(range(len(classes)), key=lambda i: abs(classes[i] - w))

    out = 0.0
    for ci in range(len(classes)):
        a = [z for z, w in m1.atoms if klass(w) == ci]
        b = [z for z, w in m2.atoms if klass(w) == ci]
        if len(a) != len(b):
            return float("inf")
        if a:
            out = max(out, eigenvalue_matching_distance(a, b))
    return out


# ---------------------------------------------------------------------------
# log potential and density grids

@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Cell masses of the discrete Laplacian of the log potential.

    `masses` holds the raw stencil output: each entry is the mass the
    5-point Laplacian assigns to one grid cell, and the full array sums to
    the measure captured by the square (about 1, up to boundary leakage).
    The stencil produces genuine negative lobes next to atoms when the
    regularization is smaller than the cell size; `clamped()` zeroes them
    for display, and `negative_mass`/`min_mass` report what was clipped.
    Row 0 is the top row of the square.
    """

    square: Square
    resolution: int
    eps: float
    masses: np.ndarray

    @property
    def min_mass(self) -> float:
        return float(self.masses.min())

    @property
    def negative_mass(self) -> float:
        return float(self.masses[self.masses < 0].sum())

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def clamped(self) -> np.ndarray:
        return np.clip(self.masses, 0.0, None)


# above a size of 2^_GRID_SCALE_EXP the density grid is evaluated on a scaled
# copy: the entries of (T - l)*(T - l) + eps^2 stay below about 2^1004
_GRID_SCALE_EXP = 500


# grid points per batch, formed by one dgemm: M (1 MB at n = 64) stays in L2
# next to the 256 KB basis.  Batches start at multiples of _CHUNK whatever the
# worker count, so a point's bits depend only on the OpenBLAS kernel behind
# scipy and on numpy's dispatch of `np.log` (see `brown_density_grid`)
_CHUNK = 16
# batches whose coefficient rows a worker forms at a time: 1,024 points, 32 KB
_BLOCK = 64

_double_p = ctypes.POINTER(ctypes.c_double)
_d_ptr = "__pyx_t_5scipy_6linalg_11cython_blas_d *"  # cython_blas's double *

# Cholesky factor of a Fortran-ordered matrix, in place
_zpotrf = _bind(cython_lapack, "zpotrf",
                b"void (char *, int *, __pyx_t_double_complex *, int *, int *)",
                ctypes.c_char_p, _int_p, ctypes.c_void_p, _int_p, _int_p)
# C = alpha op(A) op(B) + beta C on column-major float64 matrices
_dgemm = _bind(cython_blas, "dgemm",
               f"void (char *, char *, int *, int *, int *, {_d_ptr}, {_d_ptr}, int *, {_d_ptr}, "
               f"int *, {_d_ptr}, {_d_ptr}, int *)".encode("ascii"),
               ctypes.c_char_p, ctypes.c_char_p, _int_p, _int_p, _int_p, _double_p,
               ctypes.c_void_p, _int_p, ctypes.c_void_p, _int_p, _double_p,
               ctypes.c_void_p, _int_p)


# one grid's workers run at a time, so concurrent callers queue for the
# CPUs instead of each starting _cpu_count() threads of their own
_GRID_WORKERS = threading.Lock()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _coefficient_rows(xs, ys, eps2: float, lo: int, hi: int) -> np.ndarray:
    """Rows lo, ..., hi - 1 of the grid's coefficient table, C-ordered.

    Point p = r (g + 2) + c, row-major over the grid, lies at x = xs[c],
    y = ys[r] and has the row [1, -x, -y, x*x + y*y + eps2]: the same
    operations on each element as a table of the whole grid would take.
    """
    r, c = np.divmod(np.arange(lo, hi), xs.size)
    x, y = xs[c], ys[r]
    rows = np.empty((hi - lo, 4))
    rows[:, 0] = 1.0
    np.negative(x, out=rows[:, 1])
    np.negative(y, out=rows[:, 2])
    rows[:, 3] = x * x + y * y + eps2
    return rows


def _log_potential(phi, xs, ys, eps2: float, starts, basis) -> None:
    """phi[s : s + _CHUNK] for every s in `starts`, with buffers of its own.

    Each point's coefficients [1, -x, -y, x*x + y*y + eps2] (see
    `_coefficient_rows`, formed for _BLOCK batches at a time) weigh the four
    n x n slices of `basis`, the transposes of T*T, T + T*, i(T* - T) and I.
    Read as float64, a batch's coefficients are a b x 4 matrix and the basis
    is 4 x 2n^2, so one dgemm writes every C-ordered slice of M as
    (T - l)*(T - l) + eps^2 in Fortran order, which zpotrf factors in place.
    """
    n = basis.shape[1]
    M = np.empty((_CHUNK, n, n), dtype=np.complex128)
    diag = np.einsum("bii->bi", M)
    order, info = ctypes.c_int(n), ctypes.c_int(0)
    size, terms = ctypes.c_int(2 * n * n), ctypes.c_int(4)
    one, zero = ctypes.c_double(1.0), ctypes.c_double(0.0)
    base, stride, basis_p = M.ctypes.data, M.strides[0], basis.ctypes.data
    for i in range(0, len(starts), _BLOCK):
        block = starts[i : i + _BLOCK]
        lo = block[0]
        coef = _coefficient_rows(xs, ys, eps2, lo, min(block[-1] + _CHUNK, phi.size))
        coef_p, coef_stride = coef.ctypes.data, coef.strides[0]
        for s in block:
            b = min(_CHUNK, phi.size - s)
            # column-major, M[:b] is (2n^2 x b) = basis (2n^2 x 4) @ rows s..s+b-1 (4 x b)
            _dgemm(b"N", b"N", size, ctypes.c_int(b), terms, one, basis_p, size,
                   coef_p + (s - lo) * coef_stride, terms, zero, base, size)
            for k in range(b):
                _zpotrf(b"L", order, base + k * stride, order, info)
                if info.value != 0:  # a pivot <= 0: no factor, no potential
                    diag[k, 0] = np.nan
            phi[s : s + b] = np.log(diag[:b].real).mean(axis=1)


def _stencil(phi: np.ndarray) -> np.ndarray:
    """Cell masses of the 5-point stencil on the (g+2) x (g+2) potential,
    ((((a + b) + c) + d) - 4 phi) / (2 pi) in that order, in one new g x g
    array.  phi's centre is scaled by 4 in place, which is exact."""
    masses = np.add(phi[:-2, 1:-1], phi[2:, 1:-1])
    masses += phi[1:-1, :-2]
    masses += phi[1:-1, 2:]
    centre = phi[1:-1, 1:-1]
    centre *= 4.0
    masses -= centre
    masses /= 2.0 * math.pi
    return masses


def brown_density_grid(T, g: int = 256) -> DensityGrid:
    """Discrete-Laplacian density of the regularized log potential.

    Evaluates the potential at the centers of a (g+2)^2 grid covering the
    working square of ||T|| plus one guard ring, then applies the 5-point
    stencil, at the regularization eps = 1e-3 max(1, ||T||).
    With x = Re l and y = Im l, each point's matrix is the real combination
    T*T - x (T + T*) - y i(T* - T) + (x*x + y*y + eps^2) I of four fixed
    matrices, so one float64 dgemm forms a batch of 16 points from their
    coefficient rows and zpotrf factors each in place, both from scipy's
    `cython_blas`/`cython_lapack`.  Each worker forms the coefficient rows
    of 64 batches at a time, so the grid holds about two grids of float64
    values, the potential and the masses (the 5-point stencil runs in
    place on the potential), plus one batch per worker and the four
    matrices.
    The batches are split into one contiguous range per available CPU,
    with every OpenBLAS library pinned to one thread
    (`core.single_thread_blas`; one range if none can be pinned).  Grids
    called from several threads take turns to run their ranges, so the
    process runs at most one grid worker per CPU.  Each point's arithmetic
    is fixed, so the masses do not depend on the thread or core count or
    on numpy's BLAS.  They do depend on the kernel
    (`OPENBLAS_CORETYPE`) of the OpenBLAS behind scipy and on numpy's
    CPU-dispatched float64 `np.log`.
    The masses do not change under (T, l, eps) -> (cT, cl, c eps), which
    only shifts the potential by log c.  When the largest of ||T||, eps and
    the square's extent exceeds 2^_GRID_SCALE_EXP, the points are evaluated
    at c the power of two that brings it into [1/2, 1), so (T - l)*(T - l)
    does not overflow for any finite T; every smaller input keeps its bits.
    Raises ValueError when the potential is not finite at some point.
    """
    T = as_matrix(T)
    if g < 16:
        raise ValueError("grid resolution must be >= 16")
    norm = operator_norm(T)
    eps, square = 1e-3 * max(1.0, norm), ambient_square(norm)
    # the result carries the input's own square and eps
    T_in, grid_square, grid_eps = T, square, eps
    size = max(norm, eps, abs(square.cx) + abs(square.cy) + square.side)
    if size > 2.0**_GRID_SCALE_EXP:
        c = math.ldexp(1.0, -math.frexp(size)[1])  # exact, perhaps subnormal
        T, eps = T * c, eps * c
        square = Square(cx=square.cx * c, cy=square.cy * c, side=square.side * c)
    h = square.side / g
    xs = square.x0 + (np.arange(-1, g + 1) + 0.5) * h
    ys = square.y1 - (np.arange(-1, g + 1) + 0.5) * h  # row 0 on top
    phi = np.empty((g + 2) ** 2, dtype=np.float64)  # row-major over the grid
    starts = range(0, phi.size, _CHUNK)
    with single_thread_blas() as pinned:
        # the transposes of T*T (by scipy's BLAS, in Fortran order), T + T*, i(T* - T) and I
        basis = np.empty((4,) + T.shape, dtype=np.complex128)
        basis[0] = zgemm(1.0, T, T, trans_a=2).T
        basis[1] = T.T + T.conj()
        basis[2] = 1j * (T.conj() - T.T)
        basis[3] = np.eye(T.shape[0])
        workers = min(_cpu_count(), len(starts)) if pinned else 1
        cuts = [len(starts) * w // workers for w in range(workers + 1)]
        with _GRID_WORKERS, ThreadPoolExecutor(workers) as pool:
            futures = [
                pool.submit(_log_potential, phi, xs, ys, eps * eps, starts[lo:hi], basis)
                for lo, hi in zip(cuts, cuts[1:])
            ]
            for f in futures:
                f.result()
    # zpotrf passes NaN pivots with info = 0, so the values themselves are checked
    bad = np.count_nonzero(~np.isfinite(phi))
    if bad:
        raise ValueError(f"density grid: the log potential is not finite at {bad} of "
                         f"{phi.size} points (input digest {matrix_digest(T_in)})")
    masses = _stencil(phi.reshape(g + 2, g + 2))
    return DensityGrid(square=grid_square, resolution=g, eps=float(grid_eps), masses=masses)


# ---------------------------------------------------------------------------
# file output

# both CSVs stream their `%.17g` blocks; the values exist before the file
# does and `%.17g` cannot fail, so no partial file is left behind

def write_atoms_csv(m: PointMeasure, path) -> None:
    values = [v for z, w in m.atoms for v in (z.real, z.imag, w)]
    write_output(path, chain((b"re,im,weight\n",), _g17_blocks(values, (b",", b",", b"\n"))))


def write_density_csv(grid: DensityGrid, path) -> None:
    cols = grid.masses.shape[1]
    write_output(path, _g17_blocks(grid.masses, (b",",) * (cols - 1) + (b"\n",)))


def write_density_pgm(grid: DensityGrid, path) -> None:
    """8-bit binary PGM of the clamped, max-normalized masses."""
    img = grid.clamped()  # the one copy, scaled and rounded in place
    peak = img.max()
    if peak > 0:
        img /= peak
    img *= 255.0
    pix = np.round(img, out=img).astype(np.uint8)
    del img
    g = grid.resolution
    write_output(path, (f"P5\n{g} {g}\n255\n".encode("ascii"), pix))
