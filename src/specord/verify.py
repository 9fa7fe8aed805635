"""Property verification harness.

Every named identity the library promises is packaged as a check that
measures residuals against explicit bounds and emits a machine-readable
`CheckReport`.  Checks never assert an identity outside its hypotheses:
runs whose preconditions fail are reported as skipped, not failed.

Tolerance policy: structural identities 1e-9 absolute on unit-normalized
data, determinant identities 1e-10 relative, growth and limit checks 0.05
to 0.1 additive.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from .brown import (  # noqa: F401 (empirical_brown, as build_table below)
    PointMeasure,
    _measure_from_values,
    empirical_brown,
    measure_distance,
    mixture,
    region_mass,
)
from .core import SchurForm, _block_norms, _gamma, fk_determinant, schur_form, single_thread_blas
from .curves import CurveSegment, OrderingCurve, parse_curve
from .projections import hyperinvariance_check
from .regions import (
    AmbiguousRegionError,
    CellUnion,
    EmptyRegion,
    FullPlane,
    Region,
    disk,
    halfplane,
)
# build_table and empirical_brown are unused here but stay importable from
# this module: the benchmark's traced run (perfbench/spans.py) wraps them here
from .spectral import Decomposition, SpectralTable, build_table, decompose  # noqa: F401

TOL_STRUCTURAL = 1e-9
TOL_DETERMINANT = 1e-10
TOL_GROWTH = 0.1
_RANDOM_SEGMENTS = 10  # random curve segments checked against the flags


@dataclass(frozen=True)
class CheckValue:
    name: str
    measured: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound


@dataclass(frozen=True)
class CheckReport:
    """One verified identity: measured residuals against stated bounds."""

    check_id: str
    claim: str
    inputs_digest: str
    seed: int
    tolerance: float
    values: tuple[CheckValue, ...]
    verdict: str  # "pass" | "fail" | "skip"
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "claim": self.claim,
            "inputs_digest": self.inputs_digest,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "values": [
                {"name": v.name, "measured": v.measured, "bound": v.bound}
                for v in self.values
            ],
            "verdict": self.verdict,
            "note": self.note,
        }


def make_report(
    check_id: str,
    claim: str,
    digest: str,
    values: list[CheckValue],
    tolerance: float,
    seed: int = 0,
    skip: str | None = None,
) -> CheckReport:
    if skip is not None:
        verdict = "skip"
    else:
        verdict = "pass" if all(v.ok for v in values) else "fail"
    return CheckReport(
        check_id=check_id,
        claim=claim,
        inputs_digest=digest,
        seed=seed,
        tolerance=tolerance,
        values=tuple(values),
        verdict=verdict,
        note=skip or "",
    )


def reports_to_json(reports: list[CheckReport]) -> str:
    docs = [r.to_dict() for r in sorted(reports, key=lambda r: r.check_id)]
    return json.dumps(docs, indent=1, sort_keys=True) + "\n"


def _fro(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def _shifted(A: np.ndarray, lam: complex) -> np.ndarray:
    """A - lam I, with lam subtracted on the diagonal alone."""
    S = A.copy()
    S[np.diag_indices_from(S)] -= lam
    return S


def _indicator(table: SpectralTable, members) -> np.ndarray:
    """Per cluster of `table`: 1 at the indices `members`, 0 elsewhere."""
    out = np.zeros(len(table.clusters), dtype=np.int64)
    out[members] = 1
    return out


def _cluster_sum_norm(table: SpectralTable, coeffs) -> float:
    """||sum_i c_i P_i||_F for the cluster projections P_i of `table` and
    integers c_i = `coeffs[i]`: the P_i span disjoint column ranges of one
    unitary, so this is sqrt(sum_i m_i c_i^2), m_i the multiplicity of
    cluster i.  E(B), the flags and the identity are all such sums."""
    return math.sqrt(sum(c.multiplicity * int(k) ** 2 for c, k in zip(table.clusters, coeffs)))


def _context_digest(form: SchurForm, curve: OrderingCurve | None = None,
                    extra: str = "") -> str:
    """sha256 of T's canonical bytes, the curve spec and `extra`; T's bytes
    are hashed once per form."""
    h = form._json_sha256.copy()
    if curve is not None:
        h.update(curve.spec_string().encode())
    h.update(extra.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# random region machinery

def _random_region(rng: np.random.Generator,
                   table: SpectralTable) -> tuple[Region, list[int]]:
    """A boundary-decidable random region and the clusters inside it."""
    square = table.curve.square
    for _ in range(60):
        B = _candidate_region(rng, square)
        try:
            return B, table.member_clusters(B)
        except AmbiguousRegionError:
            continue
    return FullPlane(), list(range(len(table.clusters)))


def _candidate_region(rng: np.random.Generator, square) -> Region:
    kind = int(rng.integers(0, 5))
    if kind == 0:
        cx = rng.uniform(square.x0, square.x1)
        cy = rng.uniform(square.y0, square.y1)
        r = rng.uniform(0.05, 0.8) * square.side
        return disk(cx, cy, r)
    if kind == 1:
        a, b = rng.standard_normal(2)
        if a == 0.0 and b == 0.0:
            a = 1.0
        px = rng.uniform(square.x0, square.x1)
        py = rng.uniform(square.y0, square.y1)
        return halfplane(a, b, a * px + b * py)
    if kind == 2:
        level = int(rng.integers(1, 4))
        total = 1 << (2 * level)
        count = int(rng.integers(1, total + 1))
        ks = rng.choice(np.arange(1, total + 1), size=count, replace=False)
        return CellUnion(square, level, [int(k) for k in ks])
    if kind == 3:
        return _candidate_region(rng, square) & ~_candidate_region(rng, square)
    return _candidate_region(rng, square) | _candidate_region(rng, square)


def _random_param(rng: np.random.Generator, bits: int) -> int:
    """Uniform parameter in [0, 2^bits), drawn in chunks of at most 32 bits."""
    k = 0
    remaining = bits
    while remaining > 0:
        take = min(remaining, 32)
        k = (k << take) | int(rng.integers(0, 1 << take))
        remaining -= take
    return k


# ---------------------------------------------------------------------------
# the context the checks of one family call share

@dataclass(eq=False)
class _Context:
    """What the checks of one family call on one (matrix, curve) share.

    Each member is computed when a check first reads it.  A family's random
    draws are members too, drawn from its one generator `rng` in a fixed
    order: a member reads the draws before it first, so a check's values do
    not depend on which other checks run.  Replaying a draw decides regions
    and solves nothing, though the commutant regions are drawn on the
    commuting table, which the decomposition forms once.  The grid members
    hold the one level `lvl`.
    """

    form: SchurForm
    seed: int
    table: SpectralTable | None = None
    dec: Decomposition | None = None
    trials: int = 0   # measure-law region pairs
    k: int = 0        # block-split rank
    lvl: int = 0      # grid level

    rng = cached_property(lambda c: np.random.default_rng(c.seed))
    certified = cached_property(lambda c: _certified_flags(c.table))

    @cached_property
    def precond(self) -> str:
        """The note a report adds when its check runs on N's table."""
        if self.dec.commuting_table is self.table:
            return ""
        return " (preconditioned to the commuting normal part)"

    @cached_property
    def pairs(self) -> list[tuple]:
        """Per measure-law trial, (B1, S(B1), B2, S(B2)): two random regions
        and the clusters inside them."""
        return [(*_random_region(self.rng, self.table), *_random_region(self.rng, self.table))
                for _ in range(self.trials)]

    @cached_property
    def meets(self) -> list:
        """Per trial, S(B1 & B2), or None where that decision is ambiguous."""
        out = []
        for B1, _, B2, _ in self.pairs:
            try:
                out.append(self.table.member_clusters(B1 & B2))
            except AmbiguousRegionError:
                out.append(None)
        return out

    @cached_property
    def segment_params(self) -> list[int]:
        """The random curve parameters of `flag-spectral-agreement`, drawn first."""
        bits = 2 * self.table.curve.depth
        return [_random_param(self.rng, bits) for _ in range(_RANDOM_SEGMENTS)]

    @cached_property
    def regions(self) -> list[tuple[Region, list[int]]]:
        """The random regions of `commutant-compression-support` and their
        clusters on the commuting table, drawn next."""
        self.segment_params
        return [_random_region(self.rng, self.dec.commuting_table) for _ in range(5)]

    @cached_property
    def shifts(self) -> list[complex]:
        """Up to 20 random shifts at least 0.05 max(1, ||T||) from every
        cluster, from at most 400 draws, drawn last."""
        self.regions
        sq, out = self.table.curve.square, []
        margin = 0.05 * max(1.0, self.table.norm)
        for _ in range(400):
            if len(out) == 20:
                break
            lam = complex(self.rng.uniform(sq.x0, sq.x1), self.rng.uniform(sq.y0, sq.y1))
            if min(abs(lam - cl.location) for cl in self.table.clusters) >= margin:
                out.append(lam)
        return out

    def at_level(self, lvl: int) -> None:
        """Move the grid members to level `lvl`, dropping the last level's."""
        self.lvl = lvl
        for name in ("expectation", "residual"):
            vars(self).pop(name, None)

    expectation = cached_property(lambda c: c.table.expectation(c.lvl))

    @cached_property
    def residual(self) -> np.ndarray:
        """X - E_{D_lvl}(X) for the commuting input X."""
        x = self.dec.commuting_table
        return x.matrix - (self.expectation if x is self.table else x.expectation(self.lvl))

    @cached_property
    def scaled_normal_residual(self) -> np.ndarray:
        """(X - N) / (2 ||X||): X scaled to norm 1/2, less its normal part."""
        x = self.dec.commuting_table
        return (x.matrix - self.dec.N) / (2.0 * x.norm)

    @cached_property
    def squared_radius(self) -> float:
        Qs = self.scaled_normal_residual
        return float(np.abs(np.linalg.eigvals(Qs @ Qs)).max())


# ---------------------------------------------------------------------------
# measure laws: each identity a `_cluster_sum_norm` of member indicators

def _trace_law(c: _Context) -> list[CheckValue]:
    """Exact rank arithmetic against the counting measure: the rank of E(B)
    is the number of columns its members span."""
    table = c.table
    nu = _measure_from_values(table.form.eigvals.tolist(), table.tol)
    vals = []
    for t, (B1, members1, B2, members2) in enumerate(c.pairs):
        for tag, B, members in (("a", B1, members1), ("b", B2, members2)):
            rank = sum(table.ranks[i + 1] - table.ranks[i] for i in members)
            count = sum(table.clusters[i].multiplicity for i in members)
            mass = region_mass(nu, B)
            vals.append(CheckValue(f"rank-vs-count[{t}{tag}]", float(abs(rank - count)), 0.0))
            vals.append(CheckValue(f"rank-vs-measure[{t}{tag}]", abs(rank - mass * table.n), 1e-6))
    return vals


def _intersection_law(c: _Context) -> list[CheckValue]:
    table = c.table
    return [CheckValue(f"product[{t}]",
                       _cluster_sum_norm(table, _indicator(table, members1)
                                         * _indicator(table, members2) - _indicator(table, both)),
                       TOL_STRUCTURAL)
            for t, ((_, members1, _, members2), both) in enumerate(zip(c.pairs, c.meets))
            if both is not None]


def _additivity_law(c: _Context) -> list[CheckValue]:
    """Additivity across each trial's disjoint split, where its intersection
    is decided; then complements and a full cell partition, against the
    identity.  A compound region is decided anew by `member_clusters`, not
    composed from its parts' clusters."""
    table = c.table
    vals = []
    for t, ((B1, members1, B2, _), both) in enumerate(zip(c.pairs, c.meets)):
        if both is None:
            continue
        try:
            rest = _indicator(table, table.member_clusters(B2 & ~B1))
            union = _indicator(table, table.member_clusters(B1 | (B2 & ~B1)))
        except AmbiguousRegionError:
            continue
        vals.append(CheckValue(f"disjoint-union[{t}]",
                               _cluster_sum_norm(table, _indicator(table, members1) + rest - union),
                               TOL_STRUCTURAL))
    full = _indicator(table, table.member_clusters(FullPlane()))
    empty = _indicator(table, table.member_clusters(EmptyRegion()))
    vals.append(CheckValue("complement", _cluster_sum_norm(table, full - empty - 1),
                           TOL_STRUCTURAL))
    level = 2
    cover = _indicator(table, [])
    for k in range(1, (1 << (2 * level)) + 1):
        cover[table.member_clusters(CellUnion(table.curve.square, level, {k}))] += 1
    vals.append(CheckValue("cell-partition", _cluster_sum_norm(table, cover - 1),
                           TOL_STRUCTURAL))
    return vals


# ---------------------------------------------------------------------------
# grid convergence, one level `c.lvl` at a time.  The residual-radius and
# power bounds assume an input commuting with its cluster projections; a
# non-commuting T is preconditioned to its normal part (which commutes by
# construction).  The power bound needs that input X at norm 1/2: its
# normal part is N scaled alike, and since E is linear and the cell
# partition scales with the working square, so is each level's residual.

def _rate(c: _Context) -> list[CheckValue]:
    bound = 3.0 * math.sqrt(2.0) * c.table.norm / (1 << c.lvl)
    return [CheckValue(f"rate[n={c.lvl}]", float(np.linalg.norm(c.dec.N - c.expectation, 2)),
                       bound + 1e-12)]


def _radius(c: _Context) -> list[CheckValue]:
    bound = 6.0 * math.sqrt(2.0) * c.dec.commuting_table.norm / (1 << c.lvl)
    return [CheckValue(f"radius[n={c.lvl}]", float(np.abs(np.linalg.eigvals(c.residual)).max()),
                       bound + 1e-12)]


def _power_bound(c: _Context) -> list[CheckValue]:
    """20 random unit eta per level up to 6, the trials of a level as the
    columns of one block, each eta drawn in turn."""
    lvl = c.lvl
    if lvl > 6:
        return []
    Qs = c.scaled_normal_residual
    delta = 3.0 * math.sqrt(2.0) * 0.5 / (1 << lvl)
    Dn = c.residual / (2.0 * c.dec.commuting_table.norm)
    n_dim, trials, steps = Qs.shape[0], 20, 20
    V = np.empty((n_dim, trials), dtype=np.complex128)
    for trial in range(trials):
        eta = c.rng.standard_normal(n_dim) + 1j * c.rng.standard_normal(n_dim)
        V[:, trial] = eta / np.linalg.norm(eta)
    W = V.copy()
    lhs = np.empty((steps, trials))
    rhs = np.empty((steps, trials))
    for m in range(steps):
        V = Qs @ (Qs @ V)     # (S - N)^{2m} eta, S = X / (2 ||X||)
        W = Dn @ W            # (S - E_n)^m eta
        lhs[m] = np.linalg.norm(V, axis=0)
        rhs[m] = np.linalg.norm(W, axis=0)
    vals = []
    for trial, (lefts, ws) in enumerate(zip(lhs.T.tolist(), rhs.T.tolist())):
        for m, (left, w) in enumerate(zip(lefts, ws), start=1):
            bound = (4.0**m) * max(delta**m, w)
            vals.append(CheckValue(f"power[n={lvl},trial={trial},m={m}]", left,
                                   bound * (1.0 + 1e-9) + 1e-300))
    return vals


def _squared_radius(c: _Context) -> list[CheckValue]:
    bound = 28.0 * math.sqrt(2.0) * 0.5 / (1 << c.lvl)
    return [CheckValue(f"sq-radius[n={c.lvl}]", c.squared_radius, bound + 1e-12)]


# ---------------------------------------------------------------------------
# corner splits

def _snap_atoms(values: list[complex], targets: list[complex]) -> list[complex] | None:
    """Snap computed eigenvalues onto reference atoms.

    Eigenvalues of a numerically materialized corner of a defective matrix
    can scatter around the true (multiple) eigenvalue; each computed value
    is assigned to the nearest reference atom, provided that assignment is
    unambiguous (closer than half the reference separation when there are
    several atoms).  Ties go to the first nearest target.

    Distances are `np.hypot` of the real and imaginary differences, which
    gives the bits of Python's `abs(v - t)` (both are C `hypot`).  `np.abs`
    of a complex array does not: its loop is CPU-dispatched and rounds
    differently on some CPUs.
    """
    if not targets:
        return None
    if len(targets) == 1:
        return [targets[0]] * len(values)
    t = np.array(targets, dtype=np.complex128)
    pair = np.hypot(t.real[:, None] - t.real, t.imag[:, None] - t.imag)
    sep = float(pair[np.triu_indices(len(targets), 1)].min())
    v = np.array(values, dtype=np.complex128).reshape(-1, 1)
    dist = np.hypot(v.real - t.real, v.imag - t.imag)
    if (dist.min(axis=1) > sep / 2).any():
        return None
    return [targets[i] for i in dist.argmin(axis=1).tolist()]


def _compression_snaps(block: np.ndarray,
                       targets: list[complex]) -> list[complex] | None:
    """The spectrum of the compression `block`, a block of a form's
    `compression`, snapped onto `targets` by `_snap_atoms`; None when it
    does not snap.  A snap onto one target never reads the spectrum, so a
    finite block skips its eigensolve; `eigvals` still refuses any other."""
    if len(targets) == 1 and np.isfinite(block).all():
        return [targets[0]] * block.shape[0]
    return _snap_atoms(np.linalg.eigvals(block).tolist(), targets)


# ---------------------------------------------------------------------------
# disc certificates for compression spectra, from `SchurForm.disc_radii`

def _fits(dev, radius, sep):
    """Whether discs of `radius` about centers at most `dev` from their
    targets lie strictly within half the targets' separation `sep`, with
    the rounding of this test; False where any term is nan."""
    with np.errstate(all="ignore"):
        return (dev + radius) * (1 + _gamma(4)) < sep / 2


def _disc_snaps(centers: np.ndarray, radius: float, targets: list[complex],
                apart: float = 0.0) -> list[complex] | None:
    """`_compression_snaps` of a block none of whose eigenvalues, nor those
    of any block on the segment from diag(centers) to it, lies farther than
    `radius` from every center: each center's nearest target, when each
    target's discs sit inside its half-separation ball.  The balls are
    disjoint, so by continuity each holds as many eigenvalues as centers.
    None when that is not shown, or when two targets are at most `apart`
    apart."""
    if len(targets) < 2:
        return None
    t = np.array(targets, dtype=np.complex128)
    pair = np.hypot(t.real[:, None] - t.real, t.imag[:, None] - t.imag)
    sep = float(pair[np.triu_indices(len(targets), 1)].min())
    dist = np.hypot(centers.real[:, None] - t.real, centers.imag[:, None] - t.imag)
    if not (sep > apart and _fits(float(dist.min(axis=1).max()), radius, sep)):
        return None
    return [targets[i] for i in dist.argmin(axis=1).tolist()]


def _certified_flags(table: SpectralTable) -> tuple[np.ndarray, np.ndarray]:
    """Per cluster i, with r = ranks[i + 1]: whether the discs of
    `form.disc_radii` show that G[:r, :r] snaps onto the locations of clusters
    0..i, and G[r:, r:] onto those of clusters i+1.. (False for the last).
    An index's center is its R_ii and its target its cluster's location,
    and the separations are the pairwise ones `_snap_atoms` computes."""
    lead, trail = table.form.disc_radii
    ranks = np.asarray(table.ranks)
    locs = np.array([c.location for c in table.clusters], dtype=np.complex128)
    d, own = np.diag(table.form.triangular), table._locations()
    dev = np.maximum.reduceat(np.hypot(d.real - own.real, d.imag - own.imag), ranks[:-1])
    pair = np.hypot(locs.real[:, None] - locs.real, locs.imag[:, None] - locs.imag)
    pair[np.tril_indices(len(locs))] = np.inf   # pair[a, b] for a < b only
    # clusters 0..i and clusters j.. as running extremes over clusters
    sep_head = np.minimum.accumulate(pair.min(axis=0))
    sep_tail = np.minimum.accumulate(pair.min(axis=1)[::-1])[::-1]
    dev_head = np.maximum.accumulate(dev)
    dev_tail = np.maximum.accumulate(dev[::-1])[::-1]
    r = ranks[1:]
    inside = _fits(dev_head, lead[r], sep_head)
    outside = np.zeros(len(locs), dtype=bool)
    outside[:-1] = _fits(dev_tail[1:], trail[r[:-1]], sep_tail[1:])
    return inside, outside


def _corner_measure(block: np.ndarray, centers: np.ndarray, radius: float,
                    reference: PointMeasure, tol: float) -> PointMeasure | None:
    """The counting measure of `block`'s spectrum snapped onto `reference`,
    from its discs when they decide it; targets more than tol apart make
    the measure independent of the order of the snapped values."""
    targets = list(reference.locations)
    snapped = _disc_snaps(centers, radius, targets, apart=tol)
    if snapped is None:
        snapped = _compression_snaps(block, targets)
    if snapped is None:
        return None
    return _measure_from_values(snapped, tol)


def _corner_determinants(c: _Context) -> list[CheckValue]:
    form, k, n = c.form, c.k, c.form.n
    if k in (0, n):
        return [CheckValue("degenerate", 0.0, TOL_DETERMINANT)]
    G = form.compression
    dT, dA, dC = fk_determinant(form.matrix), fk_determinant(G[:k, :k]), fk_determinant(G[k:, k:])
    split = (dA ** (k / n)) * (dC ** ((n - k) / n))
    scale = max(dT, split, 1e-300)
    return [CheckValue("relative-error", abs(dT - split) / scale, TOL_DETERMINANT)]


def _corner_measures(c: _Context) -> list[CheckValue]:
    form, k, n, tol = c.form, c.k, c.form.n, c.form.tol
    if k in (0, n):
        return [CheckValue("degenerate", 0.0, tol)]
    G, nu_T = form.compression, _measure_from_values(form.eigvals.tolist(), tol)
    lead, trail = form.disc_radii
    d = np.diag(form.triangular)
    nu_A = _corner_measure(G[:k, :k], d[:k], lead[k], nu_T, tol)
    nu_C = _corner_measure(G[k:, k:], d[k:], trail[k], nu_T, tol)
    if nu_A is None or nu_C is None:
        return [CheckValue("atom-snap", float("inf"), tol)]
    mix = mixture([(nu_A, k / n), (nu_C, (n - k) / n)], tol)
    return [CheckValue("matching-distance", measure_distance(mix, nu_T), max(tol, 1e-12))]


# ---------------------------------------------------------------------------
# the decomposition: flags, commutant, E(B) and T = N + Q.  Each flag's
# structural checks read the one product G = U* T U: with U unitary and
# P = U[:, :r] U[:, :r]*, ||(I - P) T P||_F = ||G[r:, :r]||_F, and the
# compressions of T to range(P) and range(I - P) are G[:r, :r] and G[r:, r:]

def _flag_agreement(c: _Context) -> list[CheckValue]:
    """E of each cluster's curve segment and of random ones, against the flag
    at its endpoint."""
    table = c.table
    order = np.arange(len(table.clusters))
    vals = []
    for i, k in enumerate([*table.params, *c.segment_params]):
        inside = _indicator(table, table.member_clusters(CurveSegment(table.curve, k)))
        flag = order < bisect_right(table.params, k)
        vals.append(CheckValue(f"agreement[{i}]", _cluster_sum_norm(table, inside - flag),
                               TOL_STRUCTURAL))
    return vals


def _flag_ranks(c: _Context) -> list[CheckValue]:
    table = c.table
    cums = accumulate(cl.multiplicity for cl in table.clusters)
    return [CheckValue(f"rank[{i}]", float(abs(r - cum)), 0.0)
            for i, (r, cum) in enumerate(zip(table.ranks[1:], cums))]


def _flag_leaks(c: _Context) -> list[CheckValue]:
    G, bound = c.form.compression, TOL_STRUCTURAL * max(1.0, c.table.norm)
    return [CheckValue(f"invariance[{i}]", _fro(G[r:, :r]), bound)
            for i, r in enumerate(c.table.ranks[1:])]


def _flag_chain(c: _Context) -> list[CheckValue]:
    U, ranks = c.table.unitary, c.table.ranks
    vals = []
    for i, (r, r_next) in enumerate(zip(ranks[1:-1], ranks[2:])):
        B, Bn = U[:, :r], U[:, :r_next]
        vals.append(CheckValue(f"monotone[{i}]", _fro(B - Bn @ (Bn.conj().T @ B)),
                               TOL_STRUCTURAL))
    return vals


def _flag_sides(c: _Context, inside: bool) -> list[CheckValue]:
    """Per flag i of rank r: whether G[:r, :r] snaps onto the locations of
    clusters 0..i (`inside`), or G[r:, r:] onto those of clusters i+1..
    (the last flag has no outside).  Sides whose discs decide the snap
    (`_certified_flags`) skip their eigensolve."""
    table, G = c.table, c.form.compression
    locs = [cl.location for cl in table.clusters]
    certified, side = (c.certified[0], "inside") if inside else (c.certified[1], "outside")
    vals = []
    for i, r in enumerate(table.ranks[1:] if inside else table.ranks[1:-1]):
        block, targets = (G[:r, :r], locs[: i + 1]) if inside else (G[r:, r:], locs[i + 1 :])
        ok = certified[i] or _compression_snaps(block, targets) is not None
        vals.append(CheckValue(f"{side}[{i}]", 0.0 if ok else float("inf"), 0.0))
    return vals


def _flag_hyperinvariance(c: _Context):
    """Sampled commutant elements against the flag of the middle cluster."""
    table = c.table
    mid = table.range_projection(0, len(table.clusters) // 2 + 1)
    hrep = hyperinvariance_check(table.form, mid, samples=12, seed=c.seed)
    return ([CheckValue("max-leak", hrep.max_leak, 1e-8)],
            None if hrep.samples > 0 else "no commutant samples accepted")


def _commutant_support(c: _Context):
    """Corner compressions of the commuting input over random regions B,
    snapped onto their clusters' locations, which must lie in B."""
    xtable = c.dec.commuting_table
    GX = xtable.form.compression
    # N's triangular factor is diag(d), so V = I and the disc radius of a
    # finite corner C is ||C - diag(d)||_F
    d = np.diag(xtable.form.triangular)
    diagonal = xtable is not c.table and np.array_equal(xtable.form.triangular, np.diag(d))
    vals = []
    for trial, (B, members) in enumerate(c.regions):
        if not members:
            continue
        cols = np.concatenate([np.arange(xtable.ranks[i], xtable.ranks[i + 1])
                               for i in members])
        locs = [xtable.clusters[i].location for i in members]
        corner = GX[np.ix_(cols, cols)]
        snapped = None
        if diagonal and np.isfinite(corner).all():
            off = corner - np.diag(d[cols])
            snapped = _disc_snaps(d[cols], float(_block_norms(off)[0][-1]), locs)
        if snapped is None:
            snapped = _compression_snaps(corner, locs)
        ok = snapped is not None and all(B.contains(z) for z in set(snapped))
        vals.append(CheckValue(f"support[{trial}]", 0.0 if ok else float("inf"), 0.0))
    return vals, None if vals else "no region with spectral mass sampled"


def _blockdiag_determinants(c: _Context) -> list[CheckValue]:
    T, D = c.table.matrix, c.table.block_diagonal_part()
    vals = []
    for i, lam in enumerate(c.shifts):
        d1 = fk_determinant(_shifted(T, lam))
        d2 = fk_determinant(_shifted(D, lam))
        vals.append(CheckValue(f"shift[{i}]", abs(d1 - d2) / max(d1, d2, 1e-300), 1e-8))
    return vals


def _quasinilpotence(c: _Context) -> list[CheckValue]:
    report, norm = c.dec.report, c.table.norm
    return [CheckValue("diagonal", report["quasinilpotent_diag"], 1e-8 * max(1.0, norm)),
            CheckValue("lower-residual", report["quasinilpotent_lower"],
                       TOL_STRUCTURAL * max(1.0, norm))]


# ---------------------------------------------------------------------------
# the table of checks

# check id -> (family, claim, tolerance, values), families in the order of
# their functions below.  A claim or tolerance may be a function of the
# context; `values(c)` returns the check's values, or the values and the
# note of a skipped check.  A grid check's values are those of level c.lvl.
_CHECKS = {
    "spectral-trace-law": (
        "measure-laws",
        "tau(E(B)) equals the eigenvalue counting mass of B, by rank arithmetic",
        0.0, _trace_law),
    "spectral-intersection-law": (
        "measure-laws", "E(B1) E(B2) = E(B1 intersect B2)", TOL_STRUCTURAL, _intersection_law),
    "spectral-additivity-law": (
        "measure-laws", "E is additive over disjoint regions and cell partitions",
        TOL_STRUCTURAL, _additivity_law),
    "flag-spectral-agreement": (
        "decomposition", "E of a curve segment equals the flag projection at its endpoint",
        TOL_STRUCTURAL, _flag_agreement),
    "flag-trace-law": (
        "decomposition", "flag traces accumulate the cluster multiplicities", 0.0, _flag_ranks),
    "flag-invariance": (
        "decomposition", "T maps each flag range into itself", TOL_STRUCTURAL, _flag_leaks),
    "flag-monotonicity": (
        "decomposition", "the flag chain is increasing", TOL_STRUCTURAL, _flag_chain),
    "flag-compression-inside": (
        "decomposition", "the inside compression's spectrum lies on the ordered prefix",
        0.0, lambda c: _flag_sides(c, inside=True)),
    "flag-compression-outside": (
        "decomposition", "the outside compression's spectrum lies on the ordered suffix",
        0.0, lambda c: _flag_sides(c, inside=False)),
    "flag-hyperinvariance": (
        "decomposition", "sampled commutant elements leave the flag range invariant",
        1e-8, _flag_hyperinvariance),
    "commutant-compression-support": (
        "decomposition",
        lambda c: "for commuting inputs the corner compression of E(B) T E(B)"
                  " concentrates in B" + c.precond,
        0.0, _commutant_support),
    "blockdiag-determinant-agreement": (
        "decomposition", "T and its block-diagonal expectation share all shifted determinants",
        1e-8, _blockdiag_determinants),
    "normal-part-normality": (
        "decomposition", "N N* = N* N", TOL_STRUCTURAL,
        lambda c: [CheckValue("defect", c.dec.report["normality_defect"],
                              TOL_STRUCTURAL * max(c.dec.report["normal_fro_sq"], 1e-30))]),
    "normal-part-measure": (
        "decomposition", "the counting measures of N and T coincide", 1e-8,
        lambda c: [CheckValue("matching-distance", c.dec.report["measure_distance"], 1e-8)]),
    "residual-quasinilpotence": (
        "decomposition",
        "in the ordered basis Q is strictly upper triangular with vanishing diagonal",
        lambda c: 1e-8 * max(1.0, c.table.norm), _quasinilpotence),
    "grid-expectation-rate": (
        "convergence", "||N - E_{D_n}(T)|| <= 3 sqrt(2) ||T|| / 2^n", 0.0, _rate),
    "grid-residual-radius": (
        "convergence",
        lambda c: "spectrum of T - E_{D_n}(T) lies within 6 sqrt(2) ||T|| / 2^n" + c.precond,
        0.0, _radius),
    "grid-power-bound": (
        "convergence",
        lambda c: "||(T - E_D(T))^{2m} eta|| <= 2^{2m} max((3 sqrt(2)||T||/2^n)^m,"
                  " ||(T - E_{D_n}(T))^m eta||)" + c.precond,
        0.0, _power_bound),
    "grid-residual-squared-radius": (
        "convergence",
        lambda c: "spectrum of (T - E_D(T))^2 lies within 28 sqrt(2) ||T|| / 2^n" + c.precond,
        0.0, _squared_radius),
    "corner-determinant-product": (
        "block-split", "Delta(T) = Delta(A)^{tau(p)} Delta(C)^{tau(1-p)}", TOL_DETERMINANT,
        _corner_determinants),
    "corner-measure-split": (
        "block-split", "nu_T = tau(p) nu_A + tau(1-p) nu_C", lambda c: c.form.tol,
        _corner_measures),
}
KNOWN_CHECKS = tuple(_CHECKS)

# the grid checks that a zero input X skips, with the claims they report:
# X has no norm-1/2 scaling
_ZERO_SKIPS = {
    "grid-power-bound": "binomial bound on ||(T - E_D(T))^{2m} eta||",
    "grid-residual-squared-radius":
        "spectrum of (T - E_D(T))^2 lies within 28 sqrt(2) ||T|| / 2^n",
}


def _requested(family: str, checks) -> list[str]:
    """The ids of `family` that `checks` names (all when None), in table order."""
    return [cid for cid, (fam, *_) in _CHECKS.items()
            if fam == family and (checks is None or cid in checks)]


def _report(c: _Context, cid: str, digest: str, got) -> CheckReport:
    """The report of check `cid` from what its `values` returned."""
    _, claim, tol, _ = _CHECKS[cid]
    values, skip = got if isinstance(got, tuple) else (got, None)
    return make_report(cid, claim(c) if callable(claim) else claim, digest, values,
                       tol(c) if callable(tol) else tol, c.seed, skip)


def _reports(c: _Context, family: str, checks, digest: str) -> list[CheckReport]:
    return [_report(c, cid, digest, _CHECKS[cid][3](c)) for cid in _requested(family, checks)]


# ---------------------------------------------------------------------------
# the families: each takes what its caller already built, and `checks`, the
# ids to report (all of the family's when None)

def verify_measure_laws(table: SpectralTable, trials: int = 100, seed: int = 0,
                        checks=None) -> list[CheckReport]:
    """Trace, intersection, and additivity laws of the spectral measure E
    over `trials` pairs of random regions."""
    digest = _context_digest(table.form, table.curve, f"measure-laws:{seed}:{trials}")
    return _reports(_Context(table.form, seed, table, trials=trials), "measure-laws", checks,
                    digest)


def verify_decomposition(dec: Decomposition, seed: int = 0, checks=None) -> list[CheckReport]:
    """End-to-end checks of the decomposition pipeline for one input."""
    table = dec.table
    digest = _context_digest(table.form, table.curve, f"decomposition:{seed}")
    return _reports(_Context(table.form, seed, table, dec), "decomposition", checks, digest)


def verify_convergence(dec: Decomposition, n_max: int = 8, seed: int = 0,
                       checks=None) -> list[CheckReport]:
    """Grid expectation rate, residual support radii, and the power bound,
    for the levels 1..n_max, one level at a time.

    The rate bound holds unconditionally.  The other bounds run on the
    commuting input, whose reports note a substitution; a zero commuting
    input skips the power and squared-radius bounds.
    """
    table = dec.table
    digest = _context_digest(table.form, table.curve, f"convergence:{n_max}:{seed}")
    c = _Context(table.form, seed, table, dec)
    ids = _requested("convergence", checks)
    zero = [cid for cid in ids if cid in _ZERO_SKIPS and dec.commuting_table.norm == 0.0]
    ids = [cid for cid in ids if cid not in zero]
    values = {cid: [] for cid in ids}
    for lvl in range(1, n_max + 1):
        c.at_level(lvl)
        for cid in ids:
            values[cid] += _CHECKS[cid][3](c)
    return ([_report(c, cid, digest, values[cid]) for cid in ids]
            + [make_report(cid, _ZERO_SKIPS[cid], digest, [], TOL_GROWTH, seed, skip="zero matrix")
               for cid in zero])


def verify_block_split(form: SchurForm, k: int, seed: int = 0,
                       checks=None) -> list[CheckReport]:
    """Determinant and measure splitting across a T-invariant projection.

    T is `form.matrix`; the leading k columns of `form.unitary` span a
    T-invariant subspace, the range of p, and the other columns span its
    complement.  With A and C the compressions of T to range(p) and its
    complement, Delta(T) = Delta(A)^{tau(p)} Delta(C)^{tau(1-p)} and the
    counting measure of T is the convex split tau(p) nu_A + tau(1-p) nu_C.
    """
    digest = _context_digest(form, None, f"block-split:{k}:{seed}")
    # with U unitary, ||(I - p) T p||_F = ||G[k:, :k]||_F, and A and C are
    # the diagonal blocks of G
    leak = _fro(form.compression[k:, :k])
    if leak > 1e-9 * max(1.0, form.norm):
        raise ValueError(
            f"projection is not T-invariant: ||(I-p) T p|| = {leak:.3e}"
        )
    return _reports(_Context(form, seed, k=k), "block-split", checks, digest)


# ---------------------------------------------------------------------------
# suite driver

@single_thread_blas()
def run_suite(
    matrices: list[tuple[str, np.ndarray]],
    curve_specs: tuple[str, ...] = ("hilbert:depth=32", "morton:depth=32", "lex"),
    seed: int = 0,
    checks: tuple[str, ...] | None = None,
    measure_trials: int = 20,
    n_max: int = 6,
) -> list[CheckReport]:
    """Run every requested check over labeled matrices and curves.

    A family runs only when an id of its is requested, and computes only
    the requested ids' values.  Each family draws from its own generator,
    and a check replays the draws before its own, so a report is the same
    whichever other ids run.  Each matrix is factored once, and its form
    sizes every curve and serves every decomposition.  Every loaded
    OpenBLAS library runs on one thread (`core.single_thread_blas`), as in
    the CLI: the checks' many small products gain nothing from a second
    thread, and an idle BLAS thread spinning between them would hold a
    second core for the whole run.
    """
    wanted = set(KNOWN_CHECKS if checks is None else checks)
    unknown = wanted - set(KNOWN_CHECKS)
    if unknown:
        raise ValueError(f"unknown check ids: {sorted(unknown)}")
    if n_max < 1:
        raise ValueError(f"n_max, the deepest grid level checked, must be >= 1, got {n_max}")
    repeated = sorted({c for c in curve_specs if curve_specs.count(c) > 1})
    if repeated:
        # a repeated spec would emit every check id of its runs twice
        raise ValueError(f"curve specs repeat: {repeated}")
    families = {_CHECKS[cid][0] for cid in wanted}

    out: list[CheckReport] = []
    for label, T in matrices:
        form = schur_form(T)
        form.json_text   # T's text, once per matrix: every curve's form carries it
        for cspec in curve_specs:
            dec = decompose(T, parse_curve(cspec, form.norm), form=form)
            table = dec.table
            batch = []
            if "decomposition" in families:
                batch += verify_decomposition(dec, seed=seed, checks=wanted)
            if "measure-laws" in families:
                batch += verify_measure_laws(table, trials=measure_trials, seed=seed,
                                             checks=wanted)
            if "convergence" in families:
                batch += verify_convergence(dec, n_max=n_max, seed=seed, checks=wanted)
            if "block-split" in families:
                batch += verify_block_split(table.form, table.ranks[len(table.clusters) // 2 + 1],
                                            seed, checks=wanted)
            # T's eigenvalues, once a check solved them, serve every later form
            if "eigvals" in vars(table.form):
                vars(form)["eigvals"] = table.form.eigvals
            out += [replace(rep, check_id=f"{rep.check_id}@{label}@{cspec}") for rep in batch]
    return sorted(out, key=lambda r: r.check_id)


def suite_summary(reports: list[CheckReport]) -> dict:
    return {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.verdict == "pass"),
        "failed": sum(1 for r in reports if r.verdict == "fail"),
        "skipped": sum(1 for r in reports if r.verdict == "skip"),
    }
