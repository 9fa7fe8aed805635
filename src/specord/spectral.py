"""Curve-ordered spectral tables, flag projections, and the decomposition
T = N + Q.

Ordering the eigenvalue clusters of T by their minimal curve preimages and
reordering a Schur form accordingly yields an increasing flag of invariant
projections.  Half-open pullback intervals of the parameter line map to
differences of flags; shrinking open covers of a region's parameter set
stabilize to the region's spectral projection E(B).  Summing z E({z}) over
the clusters produces the normal part N, and Q = T - N is quasinilpotent:
in the joint ordered basis it is strictly upper triangular up to the cluster
diameters.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .brown import _measure_from_clusters, empirical_brown, measure_distance
from .core import (
    Cluster,
    as_matrix,
    cluster_points,
    cluster_tolerance,
    matrix_json_bytes,
    nearest_cluster,
    operator_norm,
    schur_form,
    _reorder_by_keys,
)
from .curves import OrderingCurve, curve_validate, param_to_bits
from .projections import Projection, projection_from_columns
from .regions import CellUnion, Region, ambient_square, decide_cluster


class CurveValidationError(ValueError):
    """The spectrum is not cleanly ordered by the requested curve."""


class CoverStabilizationError(RuntimeError):
    """Shrinking open covers never isolated a region's parameters."""


# ---------------------------------------------------------------------------
# parameter intervals

@dataclass(frozen=True)
class Interval:
    """A subinterval of [0,1] with independently open or closed endpoints."""

    lo: Fraction
    hi: Fraction
    lo_open: bool
    hi_open: bool

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError(f"invalid interval bounds [{self.lo}, {self.hi}]")

    def contains(self, t: Fraction) -> bool:
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and self.lo_open:
            return False
        if t == self.hi and self.hi_open:
            return False
        return True

    def is_relatively_open(self) -> bool:
        """Open as a subset of [0,1]: closed endpoints only at 0 or 1."""
        return (self.lo_open or self.lo == 0) and (self.hi_open or self.hi == 1)

    def is_empty(self) -> bool:
        return self.lo == self.hi and (self.lo_open or self.hi_open)


def open_interval(a, b) -> Interval:
    return Interval(Fraction(a), Fraction(b), True, True)


def left_segment(b, inclusive: bool = False) -> Interval:
    """[0, b) by default, [0, b] when inclusive."""
    return Interval(Fraction(0), Fraction(b), False, not inclusive)


def right_segment(a) -> Interval:
    """(a, 1]."""
    return Interval(Fraction(a), Fraction(1), True, False)


def full_interval() -> Interval:
    return Interval(Fraction(0), Fraction(1), False, False)


def _check_disjoint(intervals: list[Interval]) -> list[Interval]:
    ivs = sorted((iv for iv in intervals if not iv.is_empty()),
                 key=lambda iv: (iv.lo, iv.hi))
    for a, b in zip(ivs, ivs[1:]):
        if b.lo < a.hi:
            raise ValueError(f"overlapping interval components at [{b.lo}, {a.hi}]")
        if b.lo == a.hi and not (a.hi_open or b.lo_open):
            raise ValueError(f"interval components share the endpoint {b.lo}")
    return ivs


# ---------------------------------------------------------------------------
# the spectral table

@dataclass(frozen=True, eq=False)
class SpectralTable:
    """Eigenvalue clusters in curve order with the ordered Schur form.

    `params[i]` is the minimal curve preimage of `clusters[i]`; `ranks[i]`
    counts the eigenvalues in the first i clusters, so columns
    ranks[i]:ranks[i+1] of `unitary` span the range of cluster i,
    `range_projection(i, i + 1)`, and the leading ranks[i+1] columns span
    the range of flag i, `range_projection(0, i + 1)`.
    """

    matrix: np.ndarray
    curve: OrderingCurve
    tol: float
    clusters: tuple[Cluster, ...]
    params: tuple[Fraction, ...]
    unitary: np.ndarray
    triangular: np.ndarray
    ranks: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    # -- projections from cluster index ranges ------------------------------

    def range_projection(self, lo: int, hi: int) -> Projection:
        """Projection onto the span of clusters lo..hi-1 (curve order)."""
        cols = self.unitary[:, self.ranks[lo] : self.ranks[hi]]
        return projection_from_columns(cols, self.n)

    def flag_at(self, t, inclusive: bool = True) -> Projection:
        """P_T of the curve segment up to t; right-continuous in t."""
        t = Fraction(t)
        cut = bisect_right(self.params, t) if inclusive else bisect_left(self.params, t)
        return self.range_projection(0, cut)

    def _interval_cluster_range(self, iv: Interval) -> tuple[int, int]:
        lo = (bisect_right(self.params, iv.lo) if iv.lo_open
              else bisect_left(self.params, iv.lo))
        hi = (bisect_left(self.params, iv.hi) if iv.hi_open
              else bisect_right(self.params, iv.hi))
        return lo, max(lo, hi)

    def open_set_projection(self, intervals) -> Projection:
        """F(v) for a finite disjoint union v of relatively open intervals.

        Each component contributes the columns of the clusters between its
        endpoints; the components must be pairwise disjoint and open in
        [0,1], so the concatenated columns stay orthonormal.
        """
        ivs = _check_disjoint(list(intervals))
        for iv in ivs:
            if not iv.is_relatively_open():
                raise ValueError(f"component {iv} is not relatively open in [0,1]")
        blocks = [self.unitary[:, :0]]
        for iv in ivs:
            lo, hi = self._interval_cluster_range(iv)
            blocks.append(self.unitary[:, self.ranks[lo] : self.ranks[hi]])
        return projection_from_columns(np.concatenate(blocks, axis=1), self.n)

    def pullback_mass(self, intervals) -> float:
        """Mass of the ordering pullback measure on a union of intervals."""
        ivs = _check_disjoint(list(intervals))
        hits = 0
        for i, t in enumerate(self.params):
            if any(iv.contains(t) for iv in ivs):
                hits += self.clusters[i].multiplicity
        return hits / self.n

    def member_clusters(self, B: Region) -> list[int]:
        """Indices of clusters decidably inside B (unanimous membership)."""
        return [i for i, c in enumerate(self.clusters)
                if decide_cluster(B, c.members)]

    def spectral_projection(self, B: Region) -> Projection:
        """E(B): stabilized flag mass of shrinking open covers of B's parameters.

        Starting from coarse dyadic radii, the open cover of the selected
        parameters is refined until the set of clusters it captures stops
        changing for three successive refinements (the selected set, and
        with it the materialized projection, is then exact).
        """
        targets = sorted(self.params[i] for i in self.member_clusters(B))
        if not targets:
            return self.range_projection(0, 0)
        want = frozenset(targets)
        max_j = 2 * self.curve.depth + 6
        stable = 0
        last: frozenset | None = None
        for j in range(2, max_j + 1):
            rad = Fraction(1, 1 << j)
            cover = self._merged_cover(targets, rad)
            got = frozenset(
                t for iv in cover for t in self.params if iv.contains(t)
            )
            if last is not None and got == last:
                stable += 1
            else:
                stable = 0
            last = got
            if got == want and stable >= 2:
                return self.open_set_projection(cover)
        raise CoverStabilizationError(
            "open covers failed to stabilize; parameters not separated at depth"
        )

    @staticmethod
    def _merged_cover(targets: list[Fraction], rad: Fraction) -> list[Interval]:
        comps: list[list[Fraction]] = []
        for s in targets:
            lo = max(Fraction(0), s - rad)
            hi = min(Fraction(1), s + rad)
            if comps and lo < comps[-1][1]:
                comps[-1][1] = max(comps[-1][1], hi)
            else:
                comps.append([lo, hi])
        return [
            Interval(lo, hi, lo_open=(lo != 0), hi_open=(hi != 1))
            for lo, hi in comps
        ]

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
        projection; cells carrying no spectral mass are skipped.
        """
        T = self.matrix
        out = np.zeros_like(T)
        for k, idxs in sorted(self.cell_assignment(level).items()):
            cols = np.concatenate(
                [self.unitary[:, self.ranks[i] : self.ranks[i + 1]] for i in idxs],
                axis=1,
            )
            comp = cols.conj().T @ T @ cols
            scalar = np.trace(comp) / cols.shape[1]
            out += scalar * (cols @ cols.conj().T)
        return out

    def normal_part(self) -> np.ndarray:
        """N = sum over clusters of z E({z})."""
        d = np.empty(self.n, dtype=np.complex128)
        for i, c in enumerate(self.clusters):
            d[self.ranks[i] : self.ranks[i + 1]] = c.location
        return (self.unitary * d[None, :]) @ self.unitary.conj().T

    def block_diagonal_part(self) -> np.ndarray:
        """Sum over clusters of E({z}) T E({z}) (block-diagonal compression)."""
        G = self.unitary.conj().T @ self.matrix @ self.unitary
        B = np.zeros_like(G)
        for i in range(len(self.clusters)):
            lo, hi = self.ranks[i], self.ranks[i + 1]
            B[lo:hi, lo:hi] = G[lo:hi, lo:hi]
        return self.unitary @ B @ self.unitary.conj().T

    def commutes_with_cluster_projs(self) -> bool:
        """T P = P T for every cluster projection P, to 1e-9 max(1, ||T||)."""
        T = self.matrix
        bound = 1e-9 * max(1.0, operator_norm(T))
        for i in range(len(self.clusters)):
            B = self.range_projection(i, i + 1).basis
            TB, BT = T @ B, B.conj().T @ T
            C = BT @ B
            leak = np.hypot(np.linalg.norm(TB - B @ C),
                            np.linalg.norm(BT - C @ B.conj().T))
            if leak > bound:
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


def build_table(T, curve: OrderingCurve, tol: float | None = None) -> SpectralTable:
    """Order the spectrum of T along the curve in a reordered Schur form."""
    T = as_matrix(T)
    if tol is None:
        tol = cluster_tolerance(T)
    form = schur_form(T)
    clusters = cluster_points(form.diag_order, tol)
    report = curve_validate(curve, [c.location for c in clusters], tol=0.0)
    if not report.valid:
        raise CurveValidationError("; ".join(report.problems))

    param_of = [curve.min_preimage(c.location) for c in clusters]
    order = sorted(range(len(clusters)), key=lambda i: param_of[i])
    rank_of = {ci: pos for pos, ci in enumerate(order)}
    ordered_clusters = [clusters[ci] for ci in order]

    keys = [rank_of[nearest_cluster(clusters, z)] for z in form.diag_order]
    ordered = _reorder_by_keys(form, keys)

    ranks = [0]
    for c in ordered_clusters:
        ranks.append(ranks[-1] + c.multiplicity)
    return SpectralTable(
        matrix=T,
        curve=curve,
        tol=tol,
        clusters=tuple(ordered_clusters),
        params=tuple(param_of[ci] for ci in order),
        unitary=ordered.unitary,
        triangular=ordered.triangular,
        ranks=tuple(ranks),
    )


def dyadic_cells(radius: float, level: int) -> list[Region]:
    """The 4^level half-open cells partitioning the working square."""
    if level < 0:
        raise ValueError("level must be >= 0")
    square = ambient_square(radius)
    return [CellUnion(square, level, {k}) for k in range(1, (1 << (2 * level)) + 1)]


def flag_compression(T, flags: list[Projection]) -> np.ndarray:
    """Block-diagonal compression of T along an arbitrary increasing flag.

    `flags` lists nested orthogonal projections ending in the identity; the
    result is the sum of (P_i - P_{i-1}) T (P_i - P_{i-1}).  When every flag
    member is T-invariant the compression preserves all shifted
    Fuglede-Kadison determinants of T.
    """
    T = as_matrix(T)
    n = T.shape[0]
    prev = np.zeros((n, n), dtype=np.complex128)
    out = np.zeros_like(T)
    for P in flags:
        step = P.matrix - prev
        out += step @ T @ step
        prev = P.matrix
    if not np.allclose(prev, np.eye(n), atol=1e-12):
        raise ValueError("flag must end at the identity")
    return out


# ---------------------------------------------------------------------------
# the decomposition

@dataclass(frozen=True, eq=False)
class Decomposition:
    """T = N + Q with N normal and Q quasinilpotent."""

    N: np.ndarray
    Q: np.ndarray
    table: SpectralTable
    report: dict

    @property
    def T(self) -> np.ndarray:
        return self.table.matrix

    @cached_property
    def commuting_table(self) -> SpectralTable:
        """The table of T if T commutes with its cluster projections, else of N.

        N commutes with its cluster projections by construction.  Checks
        whose bounds assume a commuting input run on this table, which is
        built at most once per decomposition.
        """
        if self.table.commutes_with_cluster_projs():
            return self.table
        return build_table(self.N, self.table.curve)


def decompose(T, curve: OrderingCurve, tol: float | None = None) -> Decomposition:
    """Split T into its curve-ordered normal part and the residual.

    N is assembled from exact cluster atoms (sum of z E({z})); Q = T - N by
    subtraction, so T = N + Q holds exactly.  The report records the
    normality defect of N, the matching distance between the counting
    measures of N (from its eigenvalues) and T (from the table's clusters of
    its Schur spectrum), and the structural quasinilpotence of Q (diagonal
    magnitude and strictly-lower residual in the joint ordered basis).
    """
    table = build_table(T, curve, tol=tol)
    N = table.normal_part()
    Q = table.matrix - N
    G = table.unitary.conj().T @ Q @ table.unitary
    diag_mag = float(np.abs(np.diag(G)).max()) if table.n else 0.0
    lower = float(np.linalg.norm(np.tril(G, -1)))
    nn = N @ N.conj().T - N.conj().T @ N
    report = {
        "normality_defect": float(np.linalg.norm(nn)),
        "normal_fro_sq": float(np.linalg.norm(N) ** 2),
        "measure_distance": measure_distance(
            empirical_brown(N, tol=table.tol),
            _measure_from_clusters(table.clusters, table.n),
        ),
        "quasinilpotent_diag": diag_mag,
        "quasinilpotent_lower": lower,
        "cluster_count": len(table.clusters),
    }
    return Decomposition(N=N, Q=Q, table=table, report=report)


def quasinilpotence_defect(dec: Decomposition) -> float:
    """Bound on the eigenvalue moduli of Q read from its triangularization."""
    return dec.report["quasinilpotent_diag"] + dec.report["quasinilpotent_lower"]


def write_bundle(dec: Decomposition, outdir) -> None:
    """Write T.json, N.json, Q.json and table.json into `outdir`."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, M in (("T", dec.T), ("N", dec.N), ("Q", dec.Q)):
        (out / f"{name}.json").write_bytes(matrix_json_bytes(M) + b"\n")
    doc = dec.table.to_json_dict()
    doc["report"] = {
        k: (v if not isinstance(v, float) else float(f"{v:.17g}"))
        for k, v in dec.report.items()
    }
    (out / "table.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii"
    )
