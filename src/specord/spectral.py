"""Curve-ordered spectral tables, flag projections, and the decomposition
T = N + Q.

Ordering the eigenvalue clusters of T by their minimal curve preimages and
reordering a Schur form accordingly yields an increasing flag of invariant
projections.  A region's spectral projection E(B) is the span of the
clusters inside B: the curve parameters are distinct, so a narrow enough
open cover of B's parameters holds only B's own.  Summing z E({z}) over
the clusters produces the normal part N, and Q = T - N is quasinilpotent:
in the joint ordered basis it is strictly upper triangular up to the cluster
diameters.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

# empirical_brown is unused here but stays importable from this module: the
# benchmark's traced run (perfbench/spans.py) wraps it here
from .brown import (  # noqa: F401
    PointMeasure,
    _measure_from_clusters,
    _measure_from_values,
    _normal_eigvals,
    empirical_brown,
    measure_distance,
)
from .core import (
    Cluster,
    SchurForm,
    cluster_labels,
    matrix_json_bytes,
    schur_form,
    single_thread_blas,
    write_output,
    _reorder_by_keys,
)
from .curves import OrderingCurve, ordered_preimages, param_to_bits
from .projections import Projection, projection_from_columns
from .regions import Region, decide_cluster


class CurveValidationError(ValueError):
    """The spectrum is not cleanly ordered by the requested curve."""


# ---------------------------------------------------------------------------
# the spectral table

@dataclass(frozen=True, eq=False)
class SpectralTable:
    """Eigenvalue clusters in curve order with the ordered Schur form.

    `form` is the Schur form of T reordered along the curve; it carries T
    as `matrix`, its norm and the cluster tolerance `tol`.
    `params[i]` is the cell-visit index of `clusters[i]`; `ranks[i]`
    counts the eigenvalues in the first i clusters, so columns
    ranks[i]:ranks[i+1] of `unitary` span the range of cluster i,
    `range_projection(i, i + 1)`, and the leading ranks[i+1] columns span
    the range of flag i, `range_projection(0, i + 1)`.
    """

    form: SchurForm
    curve: OrderingCurve
    clusters: tuple[Cluster, ...]
    params: tuple[int, ...]
    ranks: tuple[int, ...]

    @property
    def matrix(self) -> np.ndarray:
        return self.form.matrix

    @property
    def unitary(self) -> np.ndarray:
        return self.form.unitary

    @property
    def norm(self) -> float:
        return self.form.norm

    @property
    def tol(self) -> float:
        return self.form.tol

    @property
    def n(self) -> int:
        return self.form.n

    # -- projections from cluster index ranges ------------------------------

    def range_projection(self, lo: int, hi: int) -> Projection:
        """Projection onto the span of clusters lo..hi-1 (curve order)."""
        cols = self.unitary[:, self.ranks[lo] : self.ranks[hi]]
        return projection_from_columns(cols, self.n)

    def flag_at(self, k: int) -> Projection:
        """P_T of the curve segment up to cell-visit index k."""
        return self.range_projection(0, bisect_right(self.params, k))

    def cluster_columns(self, idxs) -> np.ndarray:
        """The columns of clusters `idxs`, concatenated in the given order."""
        blocks = [self.unitary[:, self.ranks[i] : self.ranks[i + 1]] for i in idxs]
        return np.concatenate([self.unitary[:, :0], *blocks], axis=1)

    def member_clusters(self, B: Region) -> list[int]:
        """Indices of clusters decidably inside B (unanimous membership)."""
        return [i for i, c in enumerate(self.clusters)
                if decide_cluster(B, c.members)]

    def spectral_projection(self, B: Region) -> Projection:
        """E(B): the span of the clusters inside B.

        The cluster parameters are distinct, so an open cover of B's
        parameters narrower than their smallest gap holds no other cluster.
        """
        return projection_from_columns(
            self.cluster_columns(self.member_clusters(B)), self.n
        )

    # -- dyadic grid machinery ----------------------------------------------

    def cell_assignment(self, level: int) -> dict[int, list[int]]:
        """Cell index -> cluster indices, by representative location."""
        from .regions import locate_cell

        square = self.curve.square
        out: dict[int, list[int]] = {}
        for i, c in enumerate(self.clusters):
            k = locate_cell(square, level, c.location)
            if k is None:
                raise ValueError(
                    f"cluster at {c.location} escapes the level-{level} grid"
                )
            out.setdefault(k, []).append(i)
        return out

    def expectation(self, level: int) -> np.ndarray:
        """Conditional expectation of T onto the algebra of level cells.

        Sum over cells of nonzero trace of
        tau(E_k T E_k)/tau(E_k) * E_k  with E_k the cell's spectral
        projection; cells carrying no spectral mass are skipped.  Each
        column carries its cell's mean of diag(G), G = `form.compression`.
        """
        diag = np.diag(self.form.compression)
        scalars = np.empty(self.n, dtype=np.complex128)
        for idxs in self.cell_assignment(level).values():
            cols = np.concatenate([np.arange(self.ranks[i], self.ranks[i + 1])
                                   for i in idxs])
            scalars[cols] = diag[cols].mean()
        return (self.unitary * scalars) @ self.unitary.conj().T

    def _locations(self) -> np.ndarray:
        """Each column's cluster location: the diagonal of N in this basis."""
        d = np.empty(self.n, dtype=np.complex128)
        for i, c in enumerate(self.clusters):
            d[self.ranks[i] : self.ranks[i + 1]] = c.location
        return d

    def normal_part(self) -> np.ndarray:
        """N = sum over clusters of z E({z})."""
        return (self.unitary * self._locations()[None, :]) @ self.unitary.conj().T

    def block_diagonal_part(self) -> np.ndarray:
        """Sum over clusters of E({z}) T E({z}) (block-diagonal compression)."""
        G = self.form.compression
        B = np.zeros_like(G)
        for lo, hi in zip(self.ranks, self.ranks[1:]):
            B[lo:hi, lo:hi] = G[lo:hi, lo:hi]
        return self.unitary @ B @ self.unitary.conj().T

    def commutes_with_cluster_projs(self) -> bool:
        """T P = P T for every cluster projection P, to 1e-9 max(1, ||T||):
        ||[T, P]||_F^2 = ||(I-P) T P||_F^2 + ||P T (I-P)||_F^2, the squared
        norms of the blocks of G = `form.compression` off P's diagonal block."""
        G = self.form.compression
        bound = 1e-9 * max(1.0, self.norm)
        for lo, hi in zip(self.ranks, self.ranks[1:]):
            off = (G[:lo, lo:hi], G[hi:, lo:hi], G[lo:hi, :lo], G[lo:hi, hi:])
            if math.hypot(*(np.linalg.norm(b) for b in off)) > bound:
                return False
        return True

    def to_json_dict(self) -> dict:
        bits = 2 * self.curve.depth
        return {
            "curve": self.curve.spec_string(),
            "clusters": [
                {
                    "re": c.location.real,
                    "im": c.location.imag,
                    "multiplicity": c.multiplicity,
                    "param": param_to_bits(self.params[i], bits),
                    "flag_rank": self.ranks[i + 1],
                }
                for i, c in enumerate(self.clusters)
            ],
        }


@single_thread_blas()
def build_table(T, curve: OrderingCurve, *,
                form: SchurForm | None = None) -> SpectralTable:
    """Order the spectrum of T along the curve in a reordered Schur form.

    `form`, when given, must be `schur_form(T)`; a caller that orders one
    matrix along several curves factors it once.  It is not mutated.
    Clusters are taken at the form's tolerance.  Runs with every OpenBLAS
    library on one thread, like `decompose`.
    """
    if form is None:
        form = schur_form(T)
    clusters, labels = cluster_labels(form.diag_order, form.tol)
    entries, problems = ordered_preimages(curve, [c.location for c in clusters])
    if problems:
        raise CurveValidationError("; ".join(problems))

    order = [ci for _, ci in entries]
    rank_of = {ci: pos for pos, ci in enumerate(order)}
    ordered_clusters = [clusters[ci] for ci in order]

    keys = [rank_of[ci] for ci in labels]
    ranks = [0]
    for c in ordered_clusters:
        ranks.append(ranks[-1] + c.multiplicity)
    return SpectralTable(
        form=_reorder_by_keys(form, keys),
        curve=curve,
        clusters=tuple(ordered_clusters),
        params=tuple(k for k, _ in entries),
        ranks=tuple(ranks),
    )


# ---------------------------------------------------------------------------
# the decomposition

@dataclass(frozen=True, eq=False)
class Decomposition:
    """T = N + Q with N normal and Q quasinilpotent."""

    N: np.ndarray
    Q: np.ndarray
    table: SpectralTable
    report: dict
    normal_measure: PointMeasure  # counting measure of N's eigenvalues, at table.tol

    @property
    def T(self) -> np.ndarray:
        return self.table.matrix

    @cached_property
    def commuting_table(self) -> SpectralTable:
        """The table of T if T commutes with its cluster projections, else of N.

        N commutes with its cluster projections by construction.  Checks
        whose bounds assume a commuting input run on this table.  N is
        U diag(d) U* with U T's ordered unitary and d the cluster locations,
        so N's table is T's flag with diag(d) as its triangular factor:
        T's params and ranks, one point cluster per location, and nothing
        factored again.  Its `normal_part()` has the bits of `N`.
        """
        table = self.table
        if table.commutes_with_cluster_projs():
            return table
        d = table._locations()
        form = SchurForm(matrix=self.N, norm=float(np.linalg.norm(self.N, 2)),
                         unitary=table.unitary, triangular=np.diag(d))
        clusters = tuple(Cluster(c.location, (c.location,) * c.multiplicity)
                         for c in table.clusters)
        return replace(table, form=form, clusters=clusters)


@single_thread_blas()
def decompose(T, curve: OrderingCurve, *,
              form: SchurForm | None = None) -> Decomposition:
    """Split T into its curve-ordered normal part and the residual.

    N is assembled from exact cluster atoms (sum of z E({z})); Q = T - N by
    subtraction, so T = N + Q holds exactly.  The report records the
    normality defect of N, the matching distance between the counting
    measures of N and T, and the structural quasinilpotence of Q (diagonal
    magnitude and strictly-lower residual in the joint ordered basis).
    N's eigenvalues come from one Hermitian eigensolve (`brown._normal_eigvals`),
    T's from the table's clusters of its Schur spectrum.

    `form`, when given, must be `schur_form(T)` and is passed to
    `build_table`.  Runs with every OpenBLAS library pinned to one thread
    (`core.single_thread_blas`), so the bits do not depend on the BLAS
    thread count.
    """
    table = build_table(T, curve, form=form)
    N = table.normal_part()
    Q = table.matrix - N
    G = table.unitary.conj().T @ Q @ table.unitary
    diag_mag = float(np.abs(np.diag(G)).max()) if table.n else 0.0
    lower = float(np.linalg.norm(np.tril(G, -1)))
    nn = N @ N.conj().T - N.conj().T @ N
    normal_measure = _measure_from_values(_normal_eigvals(N, table.tol).tolist(), table.tol)
    report = {
        "normality_defect": float(np.linalg.norm(nn)),
        "normal_fro_sq": float(np.linalg.norm(N) ** 2),
        "measure_distance": measure_distance(
            normal_measure, _measure_from_clusters(table.clusters, table.n),
        ),
        "quasinilpotent_diag": diag_mag,
        "quasinilpotent_lower": lower,
        "cluster_count": len(table.clusters),
    }
    return Decomposition(N=N, Q=Q, table=table, report=report,
                         normal_measure=normal_measure)


def write_bundle(dec: Decomposition, outdir) -> None:
    """Write T.json, N.json, Q.json and table.json into `outdir`."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    # T's text as the digests and the CLI's config.json read it, when they
    # have; a bundle on its own formats T without keeping the text (the
    # size of three n x n matrices) on the form or in a local
    form = dec.table.form
    write_output(out / "T.json",
                 (vars(form).get("json_text") or matrix_json_bytes(form.matrix)) + b"\n")
    for name, M in (("N", dec.N), ("Q", dec.Q)):
        write_output(out / f"{name}.json", matrix_json_bytes(M) + b"\n")
    doc = dec.table.to_json_dict()
    doc["report"] = {
        k: (v if not isinstance(v, float) else float(f"{v:.17g}"))
        for k, v in dec.report.items()
    }
    write_output(
        out / "table.json",
        (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("ascii"),
    )
