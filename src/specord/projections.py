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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    SchurForm,
    as_matrix,
    cluster_labels,
    cluster_tolerance,
    operator_norm,
    schur_form,
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


def hs_projection(T, B: Region, tol: float | None = None, *,
                  form: SchurForm | None = None) -> Projection:
    """Orthogonal projection onto the invariant subspace of the spectrum in B.

    Eigenvalue clusters must be decidably inside or outside B; a straddling
    cluster raises AmbiguousRegionError naming the offending eigenvalue.
    `form`, when given, must be `schur_form(T)`; a caller projecting onto
    several regions of one matrix factors it once.  It is not mutated.
    """
    T = as_matrix(T)
    if tol is None:
        tol = cluster_tolerance(T)
    if form is None:
        form = schur_form(T)
    clusters, labels = cluster_labels(form.diag_order, tol)
    member = [decide_cluster(B, c.members) for c in clusters]
    keys = [0 if member[ci] else 1 for ci in labels]
    ordered = _reorder_by_keys(form, keys)
    k = sum(1 for v in keys if v == 0)
    return projection_from_columns(ordered.unitary[:, :k], T.shape[0])


# ---------------------------------------------------------------------------
# commutant diagnostics

@dataclass(frozen=True)
class HyperinvarianceReport:
    samples: int
    max_leak: float             # worst ||(I-P) S P||_F / ||S||
    polynomials_only: bool
    verdict: str


def hyperinvariance_check(
    T, P: Projection, samples: int = 20, seed: int = 0
) -> HyperinvarianceReport:
    """Leakage of range(P) under sampled elements of the commutant of T.

    Samples are random polynomials in T of degree <= n and, when T is
    diagonalizable within tolerance, random combinations of the cluster
    spectral idempotents.  For defective T the idempotent family is
    unreliable, so sampling falls back to polynomials only (reported).
    """
    T = as_matrix(T)
    n = T.shape[0]
    rng = np.random.default_rng(seed)
    norm_T = max(operator_norm(T), 1.0)
    Tn = T / norm_T

    idempotents: list[np.ndarray] = []
    polynomials_only = True
    w, V = np.linalg.eig(T)
    cond_V = float(np.linalg.cond(V))
    if cond_V < 1e8:
        polynomials_only = False
        Vinv = np.linalg.inv(V)
        clusters, labels = cluster_labels(w.tolist(), cluster_tolerance(T))
        owner = np.array(labels)
        for ci in range(len(clusters)):
            idempotents.append((V * (owner == ci)[None, :]) @ Vinv)

    commutator_tol = 1e-9 * norm_T
    max_leak = 0.0
    used = 0
    for _ in range(samples):
        if idempotents and rng.random() < 0.5:
            coeff = rng.standard_normal(len(idempotents)) + 1j * rng.standard_normal(
                len(idempotents)
            )
            S = sum(c * E for c, E in zip(coeff, idempotents))
        else:
            deg = int(rng.integers(1, n + 1))
            coeff = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            S = coeff[0] * np.eye(n, dtype=np.complex128)
            Pk = np.eye(n, dtype=np.complex128)
            for k in range(1, deg + 1):
                Pk = Pk @ Tn
                S = S + coeff[k] * Pk
        nS = operator_norm(S)
        if nS == 0.0:
            continue
        S = S / nS
        if operator_norm(S @ T - T @ S) > commutator_tol:
            continue  # numerically not in the commutant; do not judge with it
        used += 1
        max_leak = max(max_leak, invariance_leak(S, P.basis))
    verdict = "pass" if used > 0 and max_leak <= 1e-8 else "fail"
    return HyperinvarianceReport(
        samples=used,
        max_leak=max_leak,
        polynomials_only=polynomials_only,
        verdict=verdict,
    )
