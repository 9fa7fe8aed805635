"""Dense complex matrix primitives.

Schur triangularization with a prescribed eigenvalue order (LAPACK ztrexc
adjacent swaps), R's eigenvectors, disc radii, eigenvalue clustering and matching,
the Fuglede-Kadison determinant |det T|^(1/n), and the matrix file format.
All functions are pure; returned arrays are freshly allocated and inputs
are never mutated.  The one exception is `single_thread_blas`, which sets
the process-wide OpenBLAS thread counts for the duration of a block.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from hashlib import sha256
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import cython_lapack


# ---------------------------------------------------------------------------
# OpenBLAS threads

# (get, set) thread-count symbols: a plain OpenBLAS build, numpy's wheel
# (64-bit integer interface) and scipy's wheel
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)
# the thread counts are process-wide: the first pinned block to enter saves
# them and the last one to exit restores them; pinned blocks may overlap
_BLAS_PIN = threading.Lock()
_blas_pin_depth = 0
_blas_saved: list = []


@functools.cache
def _openblas_libraries() -> tuple:
    """(file name, get, set) thread-count functions of every OpenBLAS
    library loaded in this process; empty without /proc/self/maps.

    Found once, at first use: this module imports numpy and scipy.linalg,
    which load the OpenBLAS builds that specord calls into.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return ()
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone or not a library
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                out.append((Path(path).name, get, put))
                break
    return tuple(out)


def openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    return {name: int(get()) for name, get, _ in _openblas_libraries()}


@contextmanager
def single_thread_blas():
    """Run the block with every loaded OpenBLAS library on one thread.

    Yields whether any library was pinned; where none was, BLAS may still
    run its own threads.  Blocks may nest and may run in concurrent
    threads: the first block to enter saves the counts and pins them, and
    the last one to exit restores them, also when a block raises.
    """
    global _blas_pin_depth
    libs = _openblas_libraries()
    with _BLAS_PIN:
        if _blas_pin_depth == 0:
            _blas_saved[:] = [(put, int(get())) for _, get, put in libs]
            for _, _, put in libs:
                put(1)
        _blas_pin_depth += 1
    try:
        yield bool(libs)
    finally:
        with _BLAS_PIN:
            _blas_pin_depth -= 1
            if _blas_pin_depth == 0:
                for put, count in _blas_saved:
                    put(count)


class SchurConvergenceError(RuntimeError):
    """The QR iteration exhausted its sweep budget without triangularizing."""


def as_matrix(obj) -> np.ndarray:
    """Validate `obj` as a square matrix and return a complex128 copy."""
    return _checked_matrix(np.array(obj, dtype=np.complex128))


def _checked_matrix(A: np.ndarray) -> np.ndarray:
    """`A` itself, once it is found to be a nonempty, square and finite matrix."""
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


@single_thread_blas()
def operator_norm(A) -> float:
    """Largest singular value, by one SVD on one OpenBLAS thread, so its
    bits do not depend on the BLAS thread count."""
    return float(np.linalg.norm(as_matrix(A), 2))


def fk_determinant(T) -> float:
    """Fuglede-Kadison determinant |det T|^(1/n); 0 for singular T."""
    T = as_matrix(T)
    sign, logdet = np.linalg.slogdet(T)
    if sign == 0 or np.isneginf(logdet):
        return 0.0
    return float(np.exp(logdet / T.shape[0]))


# ---------------------------------------------------------------------------
# eigenvalue clustering

def cluster_tolerance(T) -> float:
    """Distance below which two computed eigenvalues count as one point."""
    return _tolerance_at(operator_norm(T))


def _tolerance_at(norm: float) -> float:
    return 1e-8 * max(1.0, norm)


@dataclass(frozen=True)
class Cluster:
    """A group of numerically coincident eigenvalues."""

    location: complex
    members: tuple[complex, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)


def _close_pairs(vals: list[complex], tol: float) -> list[tuple[int, int]]:
    """Every pair of indices i != j, once, with abs(vals[i] - vals[j]) <= tol.

    The values are swept in order of real part, so only pairs at most
    2 tol apart in x are measured.  `np.hypot` of the differences gives the
    bits of Python's complex `abs` (both are C `hypot`), and it is never
    below the x difference, so no close pair falls outside the window.
    """
    z = np.array(vals, dtype=np.complex128)
    order = np.argsort(z.real, kind="stable")
    x, y = z.real[order], z.imag[order]
    # sorted positions p < q with x[q] <= x[p] + 2 tol
    stop = np.searchsorted(x, x + 2 * tol, side="right")
    counts = np.maximum(stop - np.arange(1, len(x) + 1), 0)
    p = np.repeat(np.arange(len(x)), counts)
    starts = np.cumsum(counts) - counts
    q = np.arange(counts.sum()) - np.repeat(starts, counts) + p + 1
    close = np.hypot(x[q] - x[p], y[q] - y[p]) <= tol
    return list(zip(order[p[close]].tolist(), order[q[close]].tolist()))


def cluster_labels(values: Sequence[complex], tol: float) -> tuple[list[Cluster], list[int]]:
    """Partition `values` into connected components of the <=tol proximity
    graph, and give each value's component.

    Components are located at the arithmetic mean of their members and
    returned sorted by (real, imag) of the location.  labels[i] is the
    index, in the returned cluster list, of the component that holds
    values[i].  A value may lie nearer to another component's location than
    to its own, so the labels cannot be recovered from the locations.
    """
    vals = [complex(v) for v in values]
    k = len(vals)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in _close_pairs(vals, tol):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    components = list(groups.values())
    clusters = [
        Cluster(location=sum(vals[i] for i in g) / len(g), members=tuple(vals[i] for i in g))
        for g in components
    ]
    order = sorted(range(len(clusters)),
                   key=lambda c: (clusters[c].location.real, clusters[c].location.imag))
    labels = [0] * k
    for pos, c in enumerate(order):
        for i in components[c]:
            labels[i] = pos
    return [clusters[c] for c in order], labels


def eigenvalue_matching_distance(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Bottleneck matching distance between two eigenvalue multisets.

    The minimum over bijections of the largest matched |a_i - b_j|;
    infinity when the multisets have different sizes.
    """
    a = [complex(x) for x in a]
    b = [complex(x) for x in b]
    if len(a) != len(b):
        return float("inf")
    if not a:
        return 0.0
    dist = np.abs(np.subtract.outer(np.array(a), np.array(b)))
    # every bijection gives each a_i a partner at least its nearest distance
    # away, so when the nearest partners are all distinct they are optimal
    nearest = dist.argmin(axis=1)
    if np.unique(nearest).size == len(a):
        return float(dist[np.arange(len(a)), nearest].max())
    return _bottleneck(dist)


def _bottleneck(dist: np.ndarray) -> float:
    """Smallest d such that the bipartite graph {dist <= d} has a perfect matching."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    k = dist.shape[0]
    levels = np.unique(dist)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        adj = csr_matrix(dist <= levels[mid])
        match = maximum_bipartite_matching(adj, perm_type="column")
        if np.all(match >= 0):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bind(module, name: str, signature: bytes, *argtypes):
    """Routine `name` of a scipy `cython_blas`/`cython_lapack` module, through
    ctypes, which releases the GIL in the call.  A capsule read under another
    C signature raises ValueError, so argument types are checked at import."""
    address = _capsule_pointer(module.__pyx_capi__[name], signature)
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_int_p = ctypes.POINTER(ctypes.c_int)

_ztrevc = _bind(cython_lapack, "ztrevc",
                b"void (char *, char *, int *, int *, __pyx_t_double_complex *, int *, "
                b"__pyx_t_double_complex *, int *, __pyx_t_double_complex *, int *, int *, "
                b"int *, __pyx_t_double_complex *, "
                b"__pyx_t_5scipy_6linalg_13cython_lapack_d *, int *)",
                ctypes.c_char_p, ctypes.c_char_p, _int_p, _int_p, ctypes.c_void_p, _int_p,
                ctypes.c_void_p, _int_p, ctypes.c_void_p, _int_p, _int_p, _int_p,
                ctypes.c_void_p, ctypes.c_void_p, _int_p)


# ---------------------------------------------------------------------------
# Schur forms

@dataclass(frozen=True, eq=False)
class SchurForm:
    """Unitary U and upper triangular R with U R U* equal to `matrix`.

    The form is the input context of everything computed from T: `norm`
    is ||T||, which sizes the working square, the cluster tolerance `tol`
    and every bound that scales with T.
    """

    matrix: np.ndarray
    norm: float
    unitary: np.ndarray
    triangular: np.ndarray

    @property
    def n(self) -> int:
        return self.triangular.shape[0]

    @property
    def diag_order(self) -> tuple[complex, ...]:
        """The diagonal of R: the eigenvalues in the order the form realizes."""
        return tuple(np.diag(self.triangular))

    @property
    def tol(self) -> float:
        return _tolerance_at(self.norm)

    @cached_property
    def compression(self) -> np.ndarray:
        """G = U* T U, formed fresh from `matrix` (unlike `triangular`): T's
        compression to any span of the form's columns is a block of G."""
        return self.unitary.conj().T @ self.matrix @ self.unitary

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Unit upper triangular V with R V = V diag(R): ztrevc's eigenvectors of
        R over their diagonal entries (inf or nan where one underflows)."""
        n = self.n
        R = np.array(self.triangular, dtype=np.complex128, order="F")  # ztrevc restores it
        V = np.empty((n, n), dtype=np.complex128, order="F")
        work = np.empty(2 * n, dtype=np.complex128)
        rwork = np.empty(n, dtype=np.float64)
        order, found, info, unused = ctypes.c_int(n), *(ctypes.c_int(0) for _ in range(3))
        # side R: no left eigenvectors, so VL is not referenced
        _ztrevc(b"R", b"A", unused, order, R.ctypes.data, order, None, order,
                V.ctypes.data, order, order, found, work.ctypes.data, rwork.ctypes.data, info)
        with np.errstate(all="ignore"):
            V /= np.diag(V).copy()   # ztrevc zeroes the entries below the diagonal
        np.fill_diagonal(V, 1.0)
        return V

    @cached_property
    def inverse_eigenvectors(self) -> np.ndarray:
        """W = V^-1 by LAPACK ztrtri, so W U* is the inverse of U V."""
        return scipy.linalg.lapack.ztrtri(self.eigenvectors, lower=0, unitdiag=1)[0]

    disc_radii = cached_property(lambda self: _disc_radii(self))
    # T's eigenvalues by an eigensolve of their own, not `triangular`'s diagonal
    eigvals = cached_property(lambda self: np.linalg.eigvals(self.matrix))

    @cached_property
    def json_text(self) -> bytes:
        """`matrix_json_bytes(matrix)`, formatted once per form."""
        return matrix_json_bytes(self.matrix)

    @cached_property
    def _json_sha256(self):
        """sha256 state after `json_text`; digests copy it."""
        return sha256(self.json_text)


@single_thread_blas()
def schur_form(T) -> SchurForm:
    """Complex Schur triangularization T = U R U*, with ||T|| by one SVD.

    Uses the LAPACK QR iteration (deterministic shift strategy, internal
    sweep cap); a non-converged iteration raises SchurConvergenceError
    rather than returning a partial factorization.  Runs on one OpenBLAS
    thread, so U, R and the norm do not depend on the BLAS thread count.
    """
    T = as_matrix(T)
    try:
        R, U = scipy.linalg.schur(T, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise SchurConvergenceError(f"QR iteration did not converge: {exc}") from exc
    R = np.triu(R)  # discard strictly-lower roundoff noise
    return SchurForm(matrix=T, norm=float(np.linalg.norm(T, 2)), unitary=U, triangular=R)


# targets carried per pass of the blocked reorder; windows hold at most 2b rows
_REORDER_BLOCK = 32


def _reorder_by_keys(form: SchurForm, keys: Sequence[int]) -> SchurForm:
    """Stably sort the diagonal into nondecreasing key order.

    Every move is one LAPACK ztrexc call, a chain of unitary adjacent
    exchanges that write the swapped diagonal entries back exactly (Bai &
    Demmel 1993), so the output diagonal is a permutation of the input's
    bits.  Up to n = 2b, ztrexc moves each entry to its slot in (R, U)
    itself.  Beyond, the sort is blocked (Kressner, ACM TOMS 32, 2006):
    the next b entries of the sorted order are carried upward through
    windows of at most 2b rows, ztrexc reorders the window block alone and
    accumulates its unitary Z, and one matmul each applies Z to the rows
    right of the window, the columns above it and U.  A window in which no
    entry moves is left as it is, so a sorted input comes back with the
    bits it has.  `form` is not mutated; its matrix and norm, and its
    `eigvals` and `json_text` once computed, carry over.
    """
    # private Fortran-ordered copies, so ztrexc can update them in place
    R = np.array(form.triangular, dtype=np.complex128, order="F")
    U = np.array(form.unitary, dtype=np.complex128, order="F")
    n, b = R.shape[0], _REORDER_BLOCK
    order = sorted(range(n), key=keys.__getitem__)
    at = list(range(n))  # at[p]: input position of the entry now at p
    if n <= 2 * b:
        R, U = _ztrexc_moves(R, U, at, order)
        return _reordered(form, U, R)
    for p0 in range(0, n, b):
        targets = order[p0 : p0 + b]
        carried = set(targets)
        hi = 1 + max(p for p in range(p0, n) if at[p] in carried)
        while True:
            lo = max(p0, hi - 2 * b)
            window = at[lo:hi]
            members = set(window)
            inside = [idx for idx in targets if idx in members]
            if window[: len(inside)] != inside:
                W, Z = _ztrexc_moves(np.array(R[lo:hi, lo:hi], order="F"),
                                     np.eye(hi - lo, dtype=np.complex128, order="F"),
                                     window, inside)
                R[lo:hi, lo:hi] = W
                R[lo:hi, hi:] = Z.conj().T @ R[lo:hi, hi:]
                R[:lo, lo:hi] = R[:lo, lo:hi] @ Z
                U[:, lo:hi] = U[:, lo:hi] @ Z
                at[lo:hi] = window
            if lo == p0:
                break
            hi = lo + len(inside)
    return _reordered(form, U, R)


def _reordered(form: SchurForm, U: np.ndarray, R: np.ndarray) -> SchurForm:
    """`form` with the factors (U, R), keeping the cached `eigvals` and
    `json_text`, which depend on T alone; V, W and the radii depend on R."""
    out = replace(form, unitary=U, triangular=R)
    vars(out).update({k: v for k, v in vars(form).items() if k in ("eigvals", "json_text")})
    return out


def _ztrexc_moves(R, Q, at, wanted):
    """Move `wanted[t]` to position t of `at`, for t = 0, 1, ..., by ztrexc
    on the Fortran-ordered (R, Q), which it overwrites and returns; `at`
    follows the moves."""
    for p, idx in enumerate(wanted):
        q = at.index(idx, p)
        if q == p:
            continue
        R, Q, info = scipy.linalg.lapack.ztrexc(R, Q, q + 1, p + 1,
                                                overwrite_a=1, overwrite_q=1)
        if info != 0:
            raise RuntimeError(f"ztrexc failed with info={info}")
        at.insert(p, at.pop(q))
    return R, Q


# ---------------------------------------------------------------------------
# disc radii of the diagonal blocks of a form's compression
#
# For R = form.triangular and G = form.compression, the leading and trailing
# blocks of R's eigenvector matrix V = form.eigenvectors, and of W = V^-1,
# diagonalize the matching blocks of R.  With E = G - R, F = RV - V diag(R)
# and K = I - WV, restricted to a block:
#     V^-1 G V = diag(R) + (I - K)^-1 W (F + E V),
# so by Bauer-Fike (Numer. Math. 2, 1960) every eigenvalue of the block lies within
#     rho = ||W|| (||F|| + ||E|| ||V||) / (1 - ||K||)
# of some R_ii of the block, whenever ||K|| < 1.  The norms are Frobenius
# upper bounds on the stored V, W, G and R, with the rounding of F, K, E and
# of the norms themselves added (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, sections 3.1-3.6), so rho bounds the exact spectrum.

_UNIT_ROUNDOFF = 2.0 ** -53


def _gamma(k: int) -> float:
    """k u / (1 - k u): the relative error bound of k rounded operations."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _block_norms(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds on ||A[:r, :r]||_F and ||A[r:, r:]||_F for r = 0..n;
    inf or nan for a block that holds a non-finite entry.

    The squares are summed by 2-D cumulative sums of |A|^2 / s^2, with s the
    power of two that brings the largest finite |A_ij| below 2^480 (1 when
    it is), so no square or sum of up to 2^60 squares overflows.  The
    result carries the rounding of the squares, of the sums of at most 2n
    terms, of the square root and of the scaling back, and an absolute term
    for the squares that underflow, each off by at most 3 * 2^-1074.
    """
    n = A.shape[0]
    mag = np.abs(A)
    amax = float(mag.max(initial=0.0, where=np.isfinite(mag)))
    scale = math.ldexp(1.0, max(0, math.frexp(amax)[1] - 480))
    B = A / scale
    sq = B.real * B.real + B.imag * B.imag
    lead, trail = np.zeros(n + 1), np.zeros(n + 1)
    lead[1:] = np.diagonal(sq.cumsum(axis=0).cumsum(axis=1))
    trail[:-1] = np.diagonal(sq[::-1, ::-1].cumsum(axis=0).cumsum(axis=1))[::-1]
    grow = (1.0 + _gamma(2 * n + 8)) * scale
    floor = 2 * n * math.ldexp(1.0, -537) * scale
    return np.sqrt(lead) * grow + floor, np.sqrt(trail) * grow + floor


def _disc_radii(form: SchurForm) -> tuple[np.ndarray, np.ndarray]:
    """Radii for r = 0..n: every eigenvalue of G[:r, :r], and of G[r:, r:],
    lies within `lead[r]`, and `trail[r]`, of some R_ii of the block (see
    the section comment).  inf where no bound holds, and everywhere when G
    is not finite."""
    R, G, n = form.triangular, form.compression, form.n
    if n == 0 or not np.isfinite(G).all():
        return np.full(n + 1, np.inf), np.full(n + 1, np.inf)
    V, W = form.eigenvectors, form.inverse_eigenvectors
    with np.errstate(all="ignore"):
        d = np.diag(R)
        F = R @ V - V * d
        K = np.eye(n) - W @ V
        norms = [_block_norms(A) for A in (V, W, G - R, F, K, R)]
        # g bounds the rounding of an inner product of length n in complex
        # arithmetic and of one more operation on its result
        g = _gamma(n + 5)
        radii = []
        for v, w, e, f, k, m in zip(*norms):   # leading blocks, then trailing
            # |fl(RV - V diag(R)) - F| <= g (|R||V| + |V||R|)
            f = f + 2 * g * m * v
            # |fl(I - WV) - K| <= g |W||V| + u |K|
            k = (k * (1 + g) + g * w * v) * (1 + _gamma(8))
            # |fl(G - R) - E| <= u |E|
            e = e * (1 + g)
            # these lines round a dozen more times, all in sums and products
            # of nonnegative bounds: k is raised before 1 - k, and rho here
            rho = w * (f + e * v) / (1.0 - k) * (1 + _gamma(16))
            radii.append(np.where(k < 1.0, rho, np.inf))
    return tuple(np.nan_to_num(r, nan=np.inf, posinf=np.inf) for r in radii)


# ---------------------------------------------------------------------------
# %.17g text

# values per block: float64 and int64 temporaries of 32 KiB, and each block's
# text (about 90 KiB) stays below glibc's default mmap threshold of 128 KiB
_G17_BLOCK = 4096
# m of the table entries 10^m: 16 - k for k = floor(log10|x|) over every
# finite nonzero double
_G17_M_LO, _G17_M_HI = -292, 340
# decimal exponents k of the lookup tables, with room on both sides
_G17_K_LO, _G17_K_HI = -330, 320
_E16, _E17 = 10**16, 10**17
# a remainder this close to 1/2 is a possible tie: that value goes to `%`
_G17_TIE = 2.0**-20
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1
# layout row of a decimal exponent k: k + 4 in fixed notation, else _G17_EXP_ROW
_G17_EXP_ROW = 21


@functools.cache
def _g17_tables() -> dict:
    """The power-of-ten table and the text lookups of `_g17_blocks`.

    10^m = (hi + lo) 2^b, with hi and lo the float64 roundings of 10^m / 2^b
    in [1/2, 1] and of its remainder, from exact integers; hi_h and hi_l
    are Dekker's 26-bit halves of hi.

    A record is 13 little-endian uint32 words, so a word's first byte is
    written first: word 0 holds [sign, lead digit, point, zero], words 1-4
    the digits before the point, word 5 [point, zero, zero, digit], words
    6-9 the digits after the point, words 10-11 the exponent and word 12
    the separator.  The layout of a value depends only on its decimal
    exponent k and its count nd of significant digits, so one entry of
    each layout table, indexed by the class 18 row(k) + nd, holds a word's
    constant bytes or the mask of the digits it keeps.
    """
    hi, lo, b = [], [], []
    for m in range(_G17_M_LO, _G17_M_HI + 1):
        num, den = (10**m, 1) if m >= 0 else (1, 10**-m)
        e = num.bit_length() - den.bit_length()
        if (num << max(-e, 0)) >= (den << max(e, 0)):
            e += 1  # now 2^(e-1) <= 10^m < 2^e
        # 10^m / 2^e = A / (B 2^53); int / int rounds correctly
        A, B = num << max(53 - e, 0), den << max(e - 53, 0)
        q = A / B  # an integer in [2^52, 2^53]
        hi.append(q * 2.0**-53)
        lo.append((A - int(q) * B) / (B << 53))
        b.append(e)
    hi = np.array(hi)
    c = _DEKKER_SPLIT * hi
    hi_h = c - (c - hi)

    row, nd = np.divmod(np.arange(18 * (_G17_EXP_ROW + 1)), 18)
    k = row - 4
    fixed = row < _G17_EXP_ROW
    below_one = fixed & (k < 0)
    ni = np.where(fixed, np.maximum(k + 1, 0), 1)  # digits before the point
    f_lo, f_hi = np.maximum(ni, 1), np.maximum(nd, ni)  # digits [f_lo, f_hi) after it
    point = (f_hi > f_lo) | below_one
    zeros = np.where(below_one, -1 - k, 0)  # 0.000ddd
    first = np.arange(1, 17, 4)[:, None]  # digit index of each word's first digit

    def prefix(count):  # the first `count` bytes of a word, count clipped to [0, 4]
        return (1 << 8 * np.clip(count, 0, 4)) - 1

    layout = {
        "w0": 48 << 8 | (point & (ni <= 1)) * 46 << 16 | (zeros >= 1) * 48 << 24,
        "lead0": np.where(below_one, 0, 1 << 8),
        "w5": ((point & (ni >= 2)) * 46 | (zeros >= 2) * 48 << 8 | (zeros >= 3) * 48 << 16
               | below_one * 48 << 24),
        "lead5": below_one * (1 << 24),
        "int": prefix(ni - first),
        "frac": prefix(f_hi - first) ^ prefix(f_lo - first),
    }
    tables = {name: v.astype("<u4") for name, v in layout.items()}
    ks = np.arange(_G17_K_LO, _G17_K_HI + 1)
    g4 = np.arange(10**4, dtype=np.uint32)
    exp_text = [b"" if -4 <= j < 17 else b"e%+03d" % j for j in ks.tolist()]
    exp = np.frombuffer(b"".join(e.ljust(8, b"\0") for e in exp_text), dtype="<u4")
    tables.update(
        hi=hi, hi_h=hi_h, hi_l=hi - hi_h, lo=np.array(lo), b=np.array(b, dtype=np.int32),
        row=np.where((ks >= -4) & (ks < 17), ks + 4, _G17_EXP_ROW) * 18,
        exp0=exp[0::2].copy(), exp1=exp[1::2].copy(),
        digits4=sum((g4 // 10**(3 - j) % 10 + 48) << 8 * j for j in range(4)).astype("<u4"),
        tz4=sum(g4 % 10**j == 0 for j in range(1, 5)).astype(np.uint8),  # 4 for 0000
    )
    return tables


def _scaled_decimal(t: dict, M, E, k):
    """Integer part I and fraction f of |x| 10^(16 - k), for |x| = M 2^E.

    M times the table's hi is Dekker's exact two-term product (numpy has no
    fused multiply-add) and the power-of-two shifts are exact, so I + f is
    within about 2^-48 of the exact product.
    """
    i = (16 - _G17_M_LO) - k
    hi, hi_h, hi_l = t["hi"].take(i), t["hi_h"].take(i), t["hi_l"].take(i)
    c = _DEKKER_SPLIT * M
    m_h = c - (c - M)
    m_l = M - m_h
    p = M * hi
    s = (((m_h * hi_h - p) + m_h * hi_l + m_l * hi_h) + m_l * hi_l) + M * t["lo"].take(i)
    shift = E + t["b"].take(i)
    p = np.ldexp(p, shift)  # an integer whenever the result is in range (> 2^53)
    s = np.ldexp(s, shift)
    whole = np.floor(s)
    return np.minimum(p, 2.0**62).astype(np.int64) + whole.astype(np.int64), s - whole


def _g17_block(x: np.ndarray, seps: np.ndarray, buffers: dict) -> bytearray:
    """`'%.17g' % v` followed by its separator word, for each v in `x`.

    The 17 digits of v are the nearest integer D to |v| 10^(16 - k), for
    k = floor(log10|v|).  A value whose scaled |v| falls outside
    [10^16, 10^17) (log10 rounded across a power of ten), whose remainder
    is within 2^-20 of 1/2 (a possible tie, which `%` rounds to even) or
    that is not finite is written by `%`.  The records (see `_g17_tables`) leave out the
    integer digit words when no value of the block is 10 or more, and the
    exponent words when none needs an exponent; NUL bytes pad each record
    and one `translate` drops them.
    """
    t = _g17_tables()
    ax = np.abs(x)
    zero = ax == 0
    ok = np.isfinite(ax) & ~zero
    if not ok.all():
        ax = np.where(ok, ax, 1.0)
    M, E = np.frexp(ax)
    k = np.floor(np.log10(ax)).astype(np.intp)
    I, f = _scaled_decimal(t, M, E, k)
    # below 10^16 by at most 0.04, D = 10^16 is also what k - 1 rounds to
    low = (I < _E16 - 1) | ((I == _E16 - 1) & (f < 0.96))
    fallback = np.flatnonzero(low | (I >= _E17) | (np.abs(f - 0.5) < _G17_TIE) | ~(ok | zero))
    D = I + (f > 0.5)
    up = np.flatnonzero(D == _E17)  # rounds up to the next power of ten
    D[up] = _E16
    k[up] += 1
    D[zero] = 0  # digit 0 is then the lead "0" of "0" and "-0"
    k[zero] = 0

    d0, rest = np.divmod(D, _E16)
    g0, rest = np.divmod(rest, 10**12)
    g1, rest = np.divmod(rest, 10**8)
    g2, g3 = np.divmod(rest, 10**4)
    groups = (g0, g1, g2, g3)
    tz4 = t["tz4"]  # trailing zeros of D, from those of its 4-digit groups
    tz = tz4.take(g0)
    for g in groups[1:]:
        tz = tz4.take(g) + (g == 0) * tz
    c = t["row"].take(k - _G17_K_LO) + (17 - tz)

    k_hi, k_lo = k.max(), k.min()
    with_int, with_exp = k_hi >= 1, k_hi >= 17 or k_lo < -4
    cols = 7 + 4 * with_int + 2 * with_exp
    key = (x.size, cols)
    if key not in buffers:
        buffers[key] = bytearray(4 * cols * x.size)
    buf = buffers[key]
    words = np.frombuffer(buf, dtype="<u4").reshape(x.size, cols)
    words[:, 0] = t["w0"].take(c) + d0 * t["lead0"].take(c) + np.signbit(x) * 45
    pos = 1
    digits = [t["digits4"].take(g) for g in groups]
    if with_int:
        for j in range(4):
            np.bitwise_and(digits[j], t["int"][j].take(c), out=words[:, pos + j])
        pos += 4
    words[:, pos] = t["w5"].take(c) + d0 * t["lead5"].take(c)
    for j in range(4):
        np.bitwise_and(digits[j], t["frac"][j].take(c), out=words[:, pos + 1 + j])
    if with_exp:
        words[:, pos + 5] = t["exp0"].take(k - _G17_K_LO)
        words[:, pos + 6] = t["exp1"].take(k - _G17_K_LO)
    words[:, -1] = seps
    if fallback.size:
        text = words.view(np.uint8)
        for i in fallback:
            s = b"%.17g" % x[i]
            text[i, :-4] = 0
            text[i, :len(s)] = np.frombuffer(s, dtype=np.uint8)
    return buf.translate(None, b"\0")


def _g17_blocks(values, seps: Sequence[bytes]) -> Iterator[bytearray]:
    """`'%.17g' % v` for every v in `values`, the i-th followed by
    seps[i % len(seps)] (each at most 4 bytes, without NUL), one block of
    `_G17_BLOCK` values at a time.

    Byte for byte what `%` writes.  The arithmetic is IEEE float64 add
    and multiply, exact power-of-two scaling and integer division; `log10`
    only gives k a first guess, so the text is the same on every CPU.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    period = len(seps)
    words = np.frombuffer(b"".join(s.ljust(4, b"\0") for s in seps), dtype="<u4")
    pattern = words[np.arange(min(x.size, _G17_BLOCK) + period) % period]
    buffers: dict = {}
    for start in range(0, x.size, _G17_BLOCK):
        yield _g17_block(x[start:start + _G17_BLOCK],
                         pattern[start % period:][:min(x.size - start, _G17_BLOCK)], buffers)


# ---------------------------------------------------------------------------
# matrix file format

def _matrix_json_chunks(T) -> Iterator[bytes]:
    """The text of `matrix_json_bytes(T)` in pieces: the header, the
    `%.17g` blocks (the last one without its trailing `],[`) and the footer.
    T is validated as `as_matrix` does, but copied only when it is not
    complex128 already or not row-major."""
    T = _checked_matrix(np.asarray(T, dtype=np.complex128))
    yield b'{"n":%d,"entries":[[' % T.shape[0]
    # ravel() first: it makes the row-major copy that .view needs, if any
    blocks = _g17_blocks(T.ravel().view(np.float64), (b",", b"],["))
    last = next(blocks)  # T is nonempty, so there is at least one block
    for block in blocks:
        yield last
        last = block
    yield last[:-2]
    yield b"]}"


def matrix_json_bytes(T) -> bytes:
    """Serialize to the repo-wide JSON format with 17 significant digits.

    Each number is exactly `'%.17g' % x` (see `_g17_blocks`).
    """
    return b"".join(_matrix_json_chunks(T))


def write_output(path, data: bytes | Iterable[bytes]) -> None:
    """Replace the file at `path` with `data`: bytes, or an iterable of
    byte chunks written in turn, so no chunk is joined to the next in memory.

    Any existing file (or symlink) is unlinked first and `data` goes to a
    newly created file, so a symlink is never followed.  Truncating a file
    that holds data and rewriting it in place can stall for tens of
    milliseconds on ext4 (its auto_da_alloc flush); unlink-and-create does
    not.  Nothing is fsynced.  An iterable that raises leaves the chunks
    before it in the file.
    """
    Path(path).unlink(missing_ok=True)
    with open(path, "xb") as fh:
        fh.writelines((data,) if isinstance(data, (bytes, bytearray)) else data)


def save_matrix(T, path) -> None:
    """Write `matrix_json_bytes(T)` and a newline to `path`, streamed one
    `%.17g` block at a time, so the whole text is never held in memory.

    T is validated (square, nonempty, finite) before the file is created,
    and `%.17g` of a finite double cannot fail, so a call that raises
    leaves no partial file behind.
    """
    chunks = _matrix_json_chunks(T)
    header = next(chunks)  # runs the validation before the file exists
    write_output(path, chain((header,), chunks, (b"\n",)))


def json_int(literal: str):
    """`parse_int` hook for json: the literal -0 reads as the float -0.0.

    `matrix_json_bytes` writes a -0.0 entry as `-0`, which json would read
    as the integer 0; every other integer literal reads as an int.
    """
    return -0.0 if literal == "-0" else int(literal)


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        doc = json.load(fh, parse_int=json_int)
    return matrix_from_dict(doc)


def matrix_from_dict(doc: dict) -> np.ndarray:
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise ValueError("matrix document must carry 'n' and 'entries'")
    try:
        n = int(doc["n"])
    except (TypeError, ValueError):
        raise ValueError(f"matrix 'n' must be an integer, got {doc['n']!r}") from None
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise ValueError("matrix 'entries' must be a list")
    if n < 1 or len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries for n={n}, got {len(entries)}")
    values = _entry_values(entries)
    if values is None:  # the loop names the first entry that is not a pair
        values = np.array([_pair_value(k, e) for k, e in enumerate(entries)],
                          dtype=np.complex128)
    return as_matrix(values.reshape(n, n))


def _pair_value(k: int, e) -> complex:
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    if (type(e) is list and len(e) == 2
            and type(e[0]) in (int, float) and type(e[1]) in (int, float)):
        try:
            return complex(e[0], e[1])
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ValueError(f"matrix entry {k} is not a pair of numbers: {e!r:.60}")


def _entry_values(entries: list) -> np.ndarray | None:
    """The entries as complex values when every one is a list of two ints
    or floats, all within the float range; None otherwise.

    `_pair_value`'s checks, run in C by mapping `type` and `len` over the
    lists.  The values go straight from the lists into one float64 array,
    with no list in between; numpy rounds each int to the nearest float as
    `complex` does.
    """
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    if not set(map(type, chain.from_iterable(entries))) <= {int, float}:
        return None
    try:
        return np.fromiter(chain.from_iterable(entries), dtype=np.float64,
                           count=2 * len(entries)).view(np.complex128)
    except OverflowError:
        return None


def matrix_digest(T) -> str:
    """sha256 hex digest of the canonical serialization."""
    return sha256(matrix_json_bytes(T)).hexdigest()
