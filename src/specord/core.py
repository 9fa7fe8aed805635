"""Dense complex matrix primitives.

Schur triangularization with a prescribed eigenvalue order (LAPACK ztrexc
exchanges of adjacent diagonal entries), eigenvalue clustering and matching,
the Fuglede-Kadison determinant |det T|^(1/n), and the matrix file format.
All functions are pure; returned arrays are freshly allocated and inputs
are never mutated.  The one exception is `single_thread_blas`, which sets
the process-wide OpenBLAS thread counts for the duration of a block.
"""

from __future__ import annotations

import ctypes
import functools
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import sha256
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.linalg


class SchurConvergenceError(RuntimeError):
    """The QR iteration exhausted its sweep budget without triangularizing."""


def as_matrix(obj) -> np.ndarray:
    """Validate `obj` as a square matrix and return a complex128 copy."""
    A = np.array(obj, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def operator_norm(A) -> float:
    """Largest singular value."""
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
    return 1e-8 * max(1.0, operator_norm(T))


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


# ---------------------------------------------------------------------------
# Schur forms

@dataclass(frozen=True, eq=False)
class SchurForm:
    """Unitary U and upper triangular R with U R U* equal to the input.

    `diag_order` records the diagonal of R, i.e. the eigenvalues in the
    order the form realizes.
    """

    unitary: np.ndarray
    triangular: np.ndarray
    diag_order: tuple[complex, ...]

    @property
    def n(self) -> int:
        return self.triangular.shape[0]


def schur_form(T) -> SchurForm:
    """Complex Schur triangularization T = U R U*.

    Uses the LAPACK QR iteration (deterministic shift strategy, internal
    sweep cap); a non-converged iteration raises SchurConvergenceError
    rather than returning a partial factorization.
    """
    T = as_matrix(T)
    try:
        R, U = scipy.linalg.schur(T, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise SchurConvergenceError(f"QR iteration did not converge: {exc}") from exc
    R = np.triu(R)  # discard strictly-lower roundoff noise
    return SchurForm(unitary=U, triangular=R, diag_order=tuple(np.diag(R)))


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
    bits it has.  `form` is not mutated.
    """
    # private Fortran-ordered copies, so ztrexc can update them in place
    R = np.array(form.triangular, dtype=np.complex128, order="F")
    U = np.array(form.unitary, dtype=np.complex128, order="F")
    n, b = R.shape[0], _REORDER_BLOCK
    order = sorted(range(n), key=keys.__getitem__)
    at = list(range(n))  # at[p]: input position of the entry now at p
    if n <= 2 * b:
        R, U = _ztrexc_moves(R, U, at, order)
        return SchurForm(unitary=U, triangular=R, diag_order=tuple(np.diag(R)))
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
    return SchurForm(unitary=U, triangular=R, diag_order=tuple(np.diag(R)))


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
# matrix file format

def matrix_json_bytes(T) -> bytes:
    """Serialize to the repo-wide JSON format with 17 significant digits."""
    T = as_matrix(T)
    n = T.shape[0]
    # ravel() first: it makes the row-major copy that .view needs
    parts = T.ravel().view(np.float64).tolist()
    cells = ",".join(["[%.17g,%.17g]"] * (n * n)) % tuple(parts)
    return f'{{"n":{n},"entries":[{cells}]}}'.encode("ascii")


def write_output(path, data: bytes) -> None:
    """Replace the file at `path` with `data`.

    Any existing file (or symlink) is unlinked first and `data` goes to a
    newly created file, so a symlink is never followed.  Truncating a file
    that holds data and rewriting it in place can stall for tens of
    milliseconds on ext4 (its auto_da_alloc flush); unlink-and-create does
    not.  Nothing is fsynced.
    """
    Path(path).unlink(missing_ok=True)
    with open(path, "xb") as fh:
        fh.write(data)


def save_matrix(T, path) -> None:
    write_output(path, matrix_json_bytes(T) + b"\n")


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
