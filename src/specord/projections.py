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
    as_matrix,
    cluster_points,
    cluster_tolerance,
    nearest_cluster,
    operator_norm,
    schur_form,
    _reorder_by_keys,
)
from .brown import PointMeasure, _measure_from_values
from .regions import AmbiguousRegionError, Region, decide_cluster


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

    def defect(self) -> float:
        """max of the idempotency and self-adjointness residuals."""
        P = self.matrix
        return max(
            float(np.linalg.norm(P @ P - P)),
            float(np.linalg.norm(P.conj().T - P)),
        )

    def complement_basis(self) -> np.ndarray:
        """Orthonormal basis of range(I - P)."""
        w, V = np.linalg.eigh(self.matrix)
        return V[:, w < 0.5]


def projection_from_columns(cols: np.ndarray, n: int) -> Projection:
    """Projection onto the span of orthonormal columns in C^n (n = len(cols))."""
    return Projection(basis=cols)


def hs_projection(T, B: Region, tol: float | None = None) -> Projection:
    """Orthogonal projection onto the invariant subspace of the spectrum in B.

    Eigenvalue clusters must be decidably inside or outside B; a straddling
    cluster raises AmbiguousRegionError naming the offending eigenvalue.
    """
    T = as_matrix(T)
    if tol is None:
        tol = cluster_tolerance(T)
    form = schur_form(T)
    clusters = cluster_points(form.diag_order, tol)
    member = [decide_cluster(B, c.members) for c in clusters]
    keys = [0 if member[nearest_cluster(clusters, z)] else 1 for z in form.diag_order]
    ordered = _reorder_by_keys(form, keys)
    k = sum(1 for v in keys if v == 0)
    return projection_from_columns(ordered.unitary[:, :k], T.shape[0])


def compression_brown(
    T, P: Projection, side: str = "inside", tol: float | None = None
) -> PointMeasure:
    """Counting measure of T compressed to range(P) or its complement.

    `side='inside'` uses an orthonormal basis Q of range(P) and returns the
    measure of Q* T Q; `side='outside'` does the same on range(I-P).  The
    selected corner must have positive rank.
    """
    T = as_matrix(T)
    if side not in ("inside", "outside"):
        raise ValueError("side must be 'inside' or 'outside'")
    if tol is None:
        tol = cluster_tolerance(T)
    Q = P.basis if side == "inside" else P.complement_basis()
    if Q.shape[1] == 0:
        raise ValueError(f"{side} corner has rank zero")
    A = Q.conj().T @ T @ Q
    return _measure_from_values(np.linalg.eigvals(A).tolist(), tol)


# ---------------------------------------------------------------------------
# growth and commutant diagnostics

@dataclass(frozen=True)
class GrowthReport:
    radius: float
    m_max: int
    inside_growth: tuple[float, ...]    # ||T^m xi||^(1/m) at m = m_max, per trial
    outside_growth: tuple[float, ...]
    separation: float                   # min |eigenvalue| outside minus r
    verdict: str                        # "pass" | "fail" | "skipped"
    note: str = ""


def _vector_growth(T: np.ndarray, xi: np.ndarray, m_max: int) -> float:
    """||T^m xi||^(1/m) at m = m_max, via normalized iteration."""
    v = xi / np.linalg.norm(xi)
    log_acc = 0.0
    for _ in range(m_max):
        v = T @ v
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return 0.0
        log_acc += np.log(nv)
        v /= nv
    return float(np.exp(log_acc / m_max))


def ball_growth_check(
    T, r: float, trials: int = 8, m_max: int = 200, seed: int = 0
) -> GrowthReport:
    """Power growth of vectors in / out of the closed-ball projection.

    Vectors from range(P) for the ball |z| <= r grow at most like r; vectors
    with a component outside grow at least past r plus half the spectral gap,
    provided the spectrum splits across the circle |z| = r.  Cases with
    eigenvalues on (or numerically touching) the circle are reported as
    skipped rather than judged.
    """
    from .regions import disk

    T = as_matrix(T)
    if r < 0:
        raise ValueError("r must be >= 0")
    tol = cluster_tolerance(T)
    eigs = np.linalg.eigvals(T)
    on_circle = bool(np.any(np.abs(np.abs(eigs) - r) <= 10 * tol))
    splits_outside = bool(np.any(np.abs(eigs) > r + 10 * tol))
    if on_circle and splits_outside:
        # the outside-growth margin degenerates when spectrum sits on the circle
        return GrowthReport(r, m_max, (), (), 0.0, "skipped",
                            "spectrum touches the circle |z| = r")
    P = hs_projection(T, disk(0.0, 0.0, r), tol=tol)
    rng = np.random.default_rng(seed)
    n = T.shape[0]

    inside = []
    if P.rank > 0:
        Q = P.basis
        for _ in range(trials):
            coeff = rng.standard_normal(P.rank) + 1j * rng.standard_normal(P.rank)
            inside.append(_vector_growth(T, Q @ coeff, m_max))
    outside = []
    sep = 0.0
    splits = 0 < P.rank < n
    if splits:
        sep = float(np.min(np.abs(eigs[np.abs(eigs) > r]))) - r
        Qc = P.complement_basis()
        for _ in range(trials):
            coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            xi = coeff / np.linalg.norm(coeff)
            if np.linalg.norm(Qc.conj().T @ xi) < 1e-6:
                xi = Qc[:, 0]
            outside.append(_vector_growth(T, xi, m_max))

    ok = all(g <= r + 0.1 for g in inside)
    if splits:
        ok = ok and all(g > r + sep / 2 for g in outside)
    return GrowthReport(
        radius=r,
        m_max=m_max,
        inside_growth=tuple(inside),
        outside_growth=tuple(outside),
        separation=sep,
        verdict="pass" if ok else "fail",
    )


@dataclass(frozen=True)
class HyperinvarianceReport:
    samples: int
    max_commutator: float       # worst ||ST - TS|| over accepted samples
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
        clusters = cluster_points(w.tolist(), cluster_tolerance(T))
        owner = np.array([nearest_cluster(clusters, z) for z in w])
        for ci in range(len(clusters)):
            idempotents.append((V * (owner == ci)[None, :]) @ Vinv)

    commutator_tol = 1e-9 * max(1.0, operator_norm(T))
    max_comm = 0.0
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
        comm = operator_norm(S @ T - T @ S)
        if comm > commutator_tol:
            continue  # numerically not in the commutant; do not judge with it
        used += 1
        max_comm = max(max_comm, comm)
        leak = float(np.linalg.norm((np.eye(n) - P.matrix) @ S @ P.matrix))
        max_leak = max(max_leak, leak)
    verdict = "pass" if used > 0 and max_leak <= 1e-8 else "fail"
    return HyperinvarianceReport(
        samples=used,
        max_commutator=max_comm,
        max_leak=max_leak,
        polynomials_only=polynomials_only,
        verdict=verdict,
    )
