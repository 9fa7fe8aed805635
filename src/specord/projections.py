"""Invariant-subspace projections selected by a planar region.

`hs_projection(T, B)` returns the orthogonal projection onto the sum of the
generalized eigenspaces of T whose eigenvalues lie in B: the matrix-scale
Haagerup-Schultz projection.  It is computed by reordering a Schur form so
the selected eigenvalues lead, never through explicit generalized
eigenvectors.  The projection P satisfies

* tau(P) = counting mass of B (exact rank arithmetic),
* TP = PTP up to roundoff (the range is T-invariant),
* the compressions of T to range(P) / range(I-P) have spectra inside /
  outside B,
* P is invariant under the commutant of T (hyperinvariance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    SchurForm,
    cluster_labels,
    operator_norm,
    schur_form,
    single_thread_blas,
    _reorder_by_keys,
)
from .regions import Region, decide_cluster


@dataclass(frozen=True, eq=False)
class Projection:
    """Orthogonal projection onto the span of the orthonormal columns of
    `basis` (n x rank); the dense n x n `matrix` is built only when read."""

    basis: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def invariance_leak(X: np.ndarray, basis: np.ndarray) -> float:
    """||(I - P) X P||_F for P the projection onto the orthonormal columns
    `basis`, computed as ||XB - B(B*XB)||_F without forming P."""
    XB = X @ basis
    return float(np.linalg.norm(XB - basis @ (basis.conj().T @ XB)))


def projection_from_columns(cols: np.ndarray, n: int) -> Projection:
    """Projection onto the span of orthonormal columns in C^n (n = len(cols))."""
    return Projection(basis=cols)


@single_thread_blas()
def hs_projection(T, B: Region, *, form: SchurForm | None = None) -> Projection:
    """Orthogonal projection onto the invariant subspace of the spectrum in B.

    Eigenvalue clusters must be decidably inside or outside B; a straddling
    cluster raises AmbiguousRegionError naming the offending eigenvalue.
    `form`, when given, must be `schur_form(T)`; a caller projecting onto
    several regions of one matrix factors it once.  It is not mutated.
    Clusters are taken at the form's tolerance.  Runs with every OpenBLAS
    library on one thread (`core.single_thread_blas`).
    """
    if form is None:
        form = schur_form(T)
    clusters, labels = cluster_labels(form.diag_order, form.tol)
    member = [decide_cluster(B, c.members) for c in clusters]
    keys = [0 if member[ci] else 1 for ci in labels]
    ordered = _reorder_by_keys(form, keys)
    k = sum(1 for v in keys if v == 0)
    return projection_from_columns(ordered.unitary[:, :k], form.n)


# ---------------------------------------------------------------------------
# commutant diagnostics

@dataclass(frozen=True)
class HyperinvarianceReport:
    samples: int
    max_leak: float             # worst ||(I-P) S P||_F / ||S||
    polynomials_only: bool
    verdict: str


def hyperinvariance_check(
    form: SchurForm, P: Projection, samples: int = 20, seed: int = 0
) -> HyperinvarianceReport:
    """Leakage of range(P) under sampled elements of the commutant of T.

    T is `form.matrix`.  Samples are random polynomials in T of degree <= n
    and, when T is diagonalizable within the form's tolerance, random
    combinations of the cluster spectral idempotents.  For defective T the
    idempotent family is unreliable, so sampling falls back to polynomials
    only (reported).  The samples are drawn by `_commutant_samples` in
    O(n^2) memory.
    """
    T = form.matrix
    factors = _eigenvector_factors(form)
    commutator_tol = 1e-9 * max(form.norm, 1.0)
    max_leak = 0.0
    used = 0
    for S in _commutant_samples(form, factors, samples, seed):
        nS = operator_norm(S)
        if nS == 0.0:
            continue
        S = _real_divide(S, nS)
        if operator_norm(S @ T - T @ S) > commutator_tol:
            continue  # numerically not in the commutant; do not judge with it
        used += 1
        max_leak = max(max_leak, invariance_leak(S, P.basis))
    verdict = "pass" if used > 0 and max_leak <= 1e-8 else "fail"
    return HyperinvarianceReport(
        samples=used,
        max_leak=max_leak,
        polynomials_only=factors is None,
        verdict=verdict,
    )


def _eigenvector_factors(form: SchurForm):
    """(V, V^-1, owner, m) with T = V diag(w) V^-1 and owner[j] the index of
    w[j]'s cluster, of m, at the form's tolerance; None when cond(V) >= 1e8,
    where T counts as defective."""
    w, V = np.linalg.eig(form.matrix)
    if float(np.linalg.cond(V)) >= 1e8:
        return None
    clusters, labels = cluster_labels(w.tolist(), form.tol)
    return V, np.linalg.inv(V), np.array(labels), len(clusters)


def _commutant_samples(form: SchurForm, factors, count: int, seed: int):
    """Yield `count` random elements of the commutant of T, unnormalized.

    Each is, with probability 1/2 when `factors` (`_eigenvector_factors`)
    is given, a combination sum_c a_c E_c of the cluster idempotents
    E_c = V 1_c V^-1, formed as V diag(a[owner]) V^-1 by one matmul with no
    E_c stored; otherwise a polynomial of degree d <= n in
    X = T/max(1, ||T||), evaluated by `_paterson_stockmeyer` on the powers
    X^0..X^s, s = ceil(sqrt(n + 1)).  The powers are computed when a
    polynomial is first drawn and shared by the samples; they are the
    largest store, about s n^2 values.  Complex coefficients enter by
    matmul or by real-component arithmetic only, so the bits do not depend
    on numpy's CPU dispatch.
    """
    rng = np.random.default_rng(seed)
    n = form.n
    powers = None
    for _ in range(count):
        if factors is not None and rng.random() < 0.5:
            V, Vinv, owner, m = factors
            re = rng.standard_normal(m)
            im = rng.standard_normal(m)
            yield _times_columns(V, re[owner], im[owner]) @ Vinv
        else:
            deg = int(rng.integers(1, n + 1))
            re = rng.standard_normal(deg + 1)
            im = rng.standard_normal(deg + 1)
            if powers is None:
                X = _real_divide(form.matrix, max(form.norm, 1.0))
                powers = _powers(X, math.isqrt(n) + 1)
            yield _paterson_stockmeyer(re, im, powers)


def _real_divide(A: np.ndarray, x: float) -> np.ndarray:
    """A / x for a complex matrix A and a real x, divided component by
    component (correctly rounded, unlike numpy's complex division)."""
    return (np.ascontiguousarray(A).view(np.float64) / x).view(np.complex128)


def _times_columns(V: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """V * (re + i im)[None, :] by real-component arithmetic."""
    out = np.empty_like(V)
    out.real = V.real * re - V.imag * im
    out.imag = V.real * im + V.imag * re
    return out


def _powers(X: np.ndarray, s: int) -> np.ndarray:
    """The stack X^0, X^1, ..., X^s (s >= 1), one matmul per power above X."""
    out = np.empty((s + 1,) + X.shape, dtype=np.complex128)
    out[0] = np.eye(X.shape[0])
    out[1] = X
    for j in range(2, s + 1):
        np.matmul(out[j - 1], X, out=out[j])
    return out


def _paterson_stockmeyer(re: np.ndarray, im: np.ndarray,
                         powers: np.ndarray) -> np.ndarray:
    """sum_k coeff[k] X^k, k = 0..d, for coeff = re + i im, from the stack
    powers[j] = X^j, which must reach j = s = ceil(sqrt(d + 1)).

    Paterson & Stockmeyer (SIAM J. Comput. 2, 1973; Higham, Functions of
    Matrices, 4.2): with blocks B_j = sum_{i<s} coeff[js + i] X^i, the sum
    is Horner's rule in X^s over the B_j, floor(d/s) matmuls beside the
    s - 1 of the powers.  Each block is one matrix-vector product of its
    coefficients with the stacked X^0..X^(s-1).
    """
    d = len(re) - 1
    s = math.isqrt(d) + 1
    n = powers.shape[1]
    flat = powers[:s].reshape(s, n * n)
    blocks = np.zeros((d // s + 1) * s, dtype=np.complex128)
    blocks.real[: d + 1] = re
    blocks.imag[: d + 1] = im
    blocks = blocks.reshape(-1, s)
    S = (blocks[-1] @ flat).reshape(n, n)
    for row in blocks[-2::-1]:
        S = S @ powers[s]
        S += (row @ flat).reshape(n, n)
    return S
