"""Dense complex matrix primitives.

Schur triangularization with a prescribed eigenvalue order (LAPACK ztrexc
exchanges of adjacent diagonal entries), the normalized trace, the
Fuglede-Kadison determinant |det T|^(1/n), and operator-norm power-growth
sequences.  All functions are pure; returned arrays are freshly
allocated and inputs are never mutated.  The one exception is
`single_thread_blas`, which sets the process-wide OpenBLAS thread counts
for the duration of a block.
"""

from __future__ import annotations

import ctypes
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import sha256
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


def normalized_trace(A) -> complex:
    """tr(A)/n, the tracial state at matrix scale."""
    A = as_matrix(A)
    return complex(np.trace(A)) / A.shape[0]


def fk_determinant(T) -> float:
    """Fuglede-Kadison determinant |det T|^(1/n); 0 for singular T."""
    T = as_matrix(T)
    sign, logdet = np.linalg.slogdet(T)
    if sign == 0 or np.isneginf(logdet):
        return 0.0
    return float(np.exp(logdet / T.shape[0]))


def power_growth(T, m_max: int) -> list[float]:
    """Operator-norm growth sequence ||T^m||^(1/m) for m = 1..m_max.

    Powers are taken on T/||T|| and rescaled, so no intermediate can
    overflow.  Entry m equals the norm of ((T*)^m T^m)^(1/2m).
    """
    T = as_matrix(T)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    s = operator_norm(T)
    if s == 0.0:
        return [0.0] * m_max
    M = T / s
    P = np.eye(T.shape[0], dtype=np.complex128)
    out = []
    for m in range(1, m_max + 1):
        P = P @ M
        nm = float(np.linalg.norm(P, 2))
        out.append(s * nm ** (1.0 / m) if nm > 0.0 else 0.0)
    return out


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


def cluster_points(values: Sequence[complex], tol: float) -> list[Cluster]:
    """Partition `values` into connected components of the <=tol proximity graph.

    Components are located at the arithmetic mean of their members and
    returned sorted by (real, imag) of the location.
    """
    return cluster_labels(values, tol)[0]


def cluster_labels(values: Sequence[complex], tol: float) -> tuple[list[Cluster], list[int]]:
    """`cluster_points(values, tol)` and each value's component.

    labels[i] is the index, in the returned cluster list, of the component
    that holds values[i].  A value may lie nearer to another component's
    location than to its own, so the labels cannot be recovered from the
    locations.
    """
    vals = [complex(v) for v in values]
    k = len(vals)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(vals[i] - vals[j]) <= tol:
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

    def reconstruct(self) -> np.ndarray:
        U, R = self.unitary, self.triangular
        return U @ R @ U.conj().T


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


def _reorder_by_keys(form: SchurForm, keys: Sequence[int]) -> SchurForm:
    """Stably sort the diagonal into nondecreasing key order.

    An insertion sort: each entry moves to its slot in one LAPACK ztrexc
    call, a chain of unitary adjacent exchanges that write the swapped
    diagonal entries back exactly (Bai & Demmel 1993), so the output
    diagonal is a permutation of the input's bits.  `form` is not mutated.
    """
    # private Fortran-ordered copies, so ztrexc can update them in place
    R = np.array(form.triangular, dtype=np.complex128, order="F")
    U = np.array(form.unitary, dtype=np.complex128, order="F")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    at = list(range(len(keys)))  # at[p]: input position of the entry now at p
    for p, idx in enumerate(order):
        q = at.index(idx, p)
        if q == p:
            continue
        R, U, info = scipy.linalg.lapack.ztrexc(
            R, U, q + 1, p + 1, overwrite_a=1, overwrite_q=1
        )
        if info != 0:
            raise RuntimeError(f"ztrexc failed with info={info}")
        at.insert(p, at.pop(q))
    return SchurForm(unitary=U, triangular=R, diag_order=tuple(np.diag(R)))


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
    values = []
    for k, e in enumerate(entries):
        # type(), not isinstance(): JSON true/false load as bool, a subclass of int
        if (type(e) is list and len(e) == 2
                and type(e[0]) in (int, float) and type(e[1]) in (int, float)):
            try:
                values.append(complex(e[0], e[1]))
                continue
            except OverflowError:  # an integer literal beyond the float range
                pass
        raise ValueError(f"matrix entry {k} is not a pair of numbers: {e!r:.60}")
    return as_matrix(np.array(values, dtype=np.complex128).reshape(n, n))


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
# the thread count is process-wide, so pinned blocks must not interleave
_BLAS_PIN = threading.RLock()


def _openblas_libraries() -> dict:
    """File name -> (get, set) thread-count functions of every OpenBLAS
    library loaded in this process; empty without /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    out = {}
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
                out[Path(path).name] = (get, put)
                break
    return out


def openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    return {name: int(get()) for name, (get, _) in _openblas_libraries().items()}


@contextmanager
def single_thread_blas():
    """Run the block with every loaded OpenBLAS library on one thread.

    Yields whether any library was pinned; where none was, BLAS may still
    run its own threads.  The previous counts are restored on exit, also
    when the block raises.  Blocks entered from concurrent threads run one
    at a time, so no block restores the counts while another one runs.
    """
    with _BLAS_PIN:
        saved = [(put, int(get())) for get, put in _openblas_libraries().values()]
        try:
            for put, _ in saved:
                put(1)
            yield bool(saved)
        finally:
            for put, count in saved:
                put(count)
