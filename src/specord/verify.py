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

import ctypes
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cython_lapack, lapack

from .brown import (
    PointMeasure,
    _bind,
    _int_p,
    empirical_brown,
    measure_distance,
    mixture,
    region_mass,
)
from .core import SchurForm, fk_determinant, schur_form, single_thread_blas
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
# build_table is unused here but stays importable from this module: the
# benchmark's traced run (perfbench/spans.py) wraps it at this site
from .spectral import Decomposition, SpectralTable, build_table, decompose  # noqa: F401

TOL_STRUCTURAL = 1e-9
TOL_DETERMINANT = 1e-10
TOL_GROWTH = 0.1
_RANDOM_SEGMENTS = 10  # random curve segments checked against the flags

# check ids by the family that emits them
_MEASURE_LAW_CHECKS = (
    "spectral-trace-law",
    "spectral-intersection-law",
    "spectral-additivity-law",
)
_DECOMPOSITION_CHECKS = (
    "flag-spectral-agreement",
    "flag-trace-law",
    "flag-invariance",
    "flag-monotonicity",
    "flag-compression-inside",
    "flag-compression-outside",
    "flag-hyperinvariance",
    "commutant-compression-support",
    "blockdiag-determinant-agreement",
    "normal-part-normality",
    "normal-part-measure",
    "residual-quasinilpotence",
)
_CONVERGENCE_CHECKS = (
    "grid-expectation-rate",
    "grid-residual-radius",
    "grid-power-bound",
    "grid-residual-squared-radius",
)
_BLOCK_SPLIT_CHECKS = (
    "corner-determinant-product",
    "corner-measure-split",
)
KNOWN_CHECKS = (_MEASURE_LAW_CHECKS + _DECOMPOSITION_CHECKS + _CONVERGENCE_CHECKS
                + _BLOCK_SPLIT_CHECKS)


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
# measure laws

def verify_measure_laws(table: SpectralTable, trials: int = 100,
                        seed: int = 0) -> list[CheckReport]:
    """Trace, intersection, and additivity laws of the spectral measure E,
    each identity a `_cluster_sum_norm` of member indicators."""
    T = table.matrix
    rng = np.random.default_rng(seed)
    digest = _context_digest(table.form, table.curve, f"measure-laws:{seed}:{trials}")

    nu = empirical_brown(T, tol=table.tol)
    trace_vals: list[CheckValue] = []
    inter_vals: list[CheckValue] = []
    add_vals: list[CheckValue] = []
    n = table.n

    for t in range(trials):
        B1, members1 = _random_region(rng, table)
        B2, members2 = _random_region(rng, table)
        # trace law, exact rank arithmetic against the counting measure; the
        # rank of E(B) is the number of columns its members span
        for tag, B, members in (("a", B1, members1), ("b", B2, members2)):
            rank = sum(table.ranks[i + 1] - table.ranks[i] for i in members)
            count = sum(table.clusters[i].multiplicity for i in members)
            mass = region_mass(nu, B)
            trace_vals.append(
                CheckValue(f"rank-vs-count[{t}{tag}]", float(abs(rank - count)), 0.0)
            )
            trace_vals.append(
                CheckValue(f"rank-vs-measure[{t}{tag}]", abs(rank - mass * n), 1e-6)
            )
        E1, E2 = _indicator(table, members1), _indicator(table, members2)
        # intersection law; compound regions are decided anew, the way
        # `spectral_projection` decides them
        try:
            both = _indicator(table, table.member_clusters(B1 & B2))
        except AmbiguousRegionError:
            continue
        inter_vals.append(CheckValue(f"product[{t}]", _cluster_sum_norm(table, E1 * E2 - both),
                                     TOL_STRUCTURAL))
        # additivity across a disjoint split
        try:
            rest = _indicator(table, table.member_clusters(B2 & ~B1))
            union = _indicator(table, table.member_clusters(B1 | (B2 & ~B1)))
        except AmbiguousRegionError:
            continue
        add_vals.append(CheckValue(f"disjoint-union[{t}]",
                                   _cluster_sum_norm(table, E1 + rest - union),
                                   TOL_STRUCTURAL))

    # complements and a full cell partition, against the identity
    full = _indicator(table, table.member_clusters(FullPlane()))
    empty = _indicator(table, table.member_clusters(EmptyRegion()))
    add_vals.append(CheckValue("complement", _cluster_sum_norm(table, full - empty - 1),
                               TOL_STRUCTURAL))
    level = 2
    cover = _indicator(table, [])
    for k in range(1, (1 << (2 * level)) + 1):
        cover[table.member_clusters(CellUnion(table.curve.square, level, {k}))] += 1
    add_vals.append(CheckValue("cell-partition", _cluster_sum_norm(table, cover - 1),
                               TOL_STRUCTURAL))

    return [
        make_report(
            "spectral-trace-law",
            "tau(E(B)) equals the eigenvalue counting mass of B, by rank arithmetic",
            digest,
            trace_vals,
            0.0,
            seed,
        ),
        make_report(
            "spectral-intersection-law",
            "E(B1) E(B2) = E(B1 intersect B2)",
            digest,
            inter_vals,
            TOL_STRUCTURAL,
            seed,
        ),
        make_report(
            "spectral-additivity-law",
            "E is additive over disjoint regions and cell partitions",
            digest,
            add_vals,
            TOL_STRUCTURAL,
            seed,
        ),
    ]


# ---------------------------------------------------------------------------
# grid convergence

def _commuting_input(dec: Decomposition) -> tuple[SpectralTable, str]:
    """`dec.commuting_table` and the note a report adds when it is N's."""
    xtable = dec.commuting_table
    if xtable is dec.table:
        return xtable, ""
    return xtable, " (preconditioned to the commuting normal part)"


def verify_convergence(dec: Decomposition, n_max: int = 8,
                       seed: int = 0) -> list[CheckReport]:
    """Grid expectation rate, residual support radii, and the power bound.

    The rate bound holds unconditionally.  The residual-radius and power
    bounds assume an input commuting with its cluster projections; a
    non-commuting T is preconditioned to its normal part (which commutes by
    construction) and the report notes the substitution.  The power bound
    additionally needs the input scaled to norm 1/2, so the zero matrix
    skips it.
    """
    table = dec.table
    T, curve, N = table.matrix, table.curve, dec.N
    digest = _context_digest(table.form, curve, f"convergence:{n_max}:{seed}")
    norm = table.norm

    rate_vals = []
    expectations = [table.expectation(lvl) for lvl in range(1, n_max + 1)]
    for lvl, E_n in enumerate(expectations, start=1):
        bound = 3.0 * math.sqrt(2.0) * norm / (1 << lvl)
        rate_vals.append(
            CheckValue(f"rate[n={lvl}]", float(np.linalg.norm(N - E_n, 2)), bound + 1e-12)
        )
    reports = [
        make_report(
            "grid-expectation-rate",
            "||N - E_{D_n}(T)|| <= 3 sqrt(2) ||T|| / 2^n",
            digest,
            rate_vals,
            0.0,
            seed,
        )
    ]

    xtable, precond = _commuting_input(dec)
    X, xnorm = xtable.matrix, xtable.norm
    # when X is T, the rate loop's E_n are X's
    xexpectations = (expectations if xtable is table else
                     [xtable.expectation(lvl) for lvl in range(1, n_max + 1)])

    radius_vals = []
    resids = []
    for lvl, E_n in enumerate(xexpectations, start=1):
        bound = 6.0 * math.sqrt(2.0) * xnorm / (1 << lvl)
        resid = X - E_n
        resids.append(resid)
        radius_vals.append(
            CheckValue(
                f"radius[n={lvl}]",
                float(np.abs(np.linalg.eigvals(resid)).max()),
                bound + 1e-12,
            )
        )
    reports.append(
        make_report(
            "grid-residual-radius",
            "spectrum of T - E_{D_n}(T) lies within 6 sqrt(2) ||T|| / 2^n" + precond,
            digest,
            radius_vals,
            0.0,
            seed,
        )
    )

    if xnorm == 0.0:
        reports.append(
            make_report("grid-power-bound",
                        "binomial bound on ||(T - E_D(T))^{2m} eta||",
                        digest, [], TOL_GROWTH, seed, skip="zero matrix"))
        reports.append(
            make_report("grid-residual-squared-radius",
                        "spectrum of (T - E_D(T))^2 lies within 28 sqrt(2) ||T|| / 2^n",
                        digest, [], TOL_GROWTH, seed, skip="zero matrix"))
        return reports

    # X scaled to norm 1/2: its normal part is N scaled alike, and since E
    # is linear and the cell partition scales with the working square, so
    # is each level's residual X - E_{D_n}(X)
    Qs = (X - N) / (2.0 * xnorm)
    ns = 0.5
    rng = np.random.default_rng(seed)
    power_vals = []
    n_dim = X.shape[0]
    trials, steps = 20, 20
    for lvl in range(1, min(n_max, 6) + 1):
        delta = 3.0 * math.sqrt(2.0) * ns / (1 << lvl)
        Dn = resids[lvl - 1] / (2.0 * xnorm)
        # the trials of a level as the columns of one block, eta drawn in turn
        V = np.empty((n_dim, trials), dtype=np.complex128)
        for trial in range(trials):
            eta = rng.standard_normal(n_dim) + 1j * rng.standard_normal(n_dim)
            V[:, trial] = eta / np.linalg.norm(eta)
        W = V.copy()
        lhs = np.empty((steps, trials))
        rhs = np.empty((steps, trials))
        for m in range(steps):
            V = Qs @ (Qs @ V)     # (S - N)^{2m} eta, S = X / (2 ||X||)
            W = Dn @ W            # (S - E_n)^m eta
            lhs[m] = np.linalg.norm(V, axis=0)
            rhs[m] = np.linalg.norm(W, axis=0)
        lhs_t, rhs_t = lhs.T.tolist(), rhs.T.tolist()
        for trial in range(trials):
            for m, (left, w) in enumerate(zip(lhs_t[trial], rhs_t[trial]), start=1):
                bound = (4.0**m) * max(delta**m, w)
                power_vals.append(
                    CheckValue(
                        f"power[n={lvl},trial={trial},m={m}]",
                        left,
                        bound * (1.0 + 1e-9) + 1e-300,
                    )
                )
    reports.append(
        make_report(
            "grid-power-bound",
            "||(T - E_D(T))^{2m} eta|| <= 2^{2m} max((3 sqrt(2)||T||/2^n)^m,"
            " ||(T - E_{D_n}(T))^m eta||)" + precond,
            digest,
            power_vals,
            0.0,
            seed,
        )
    )

    sq_vals = []
    Q2 = Qs @ Qs
    sq_radius = float(np.abs(np.linalg.eigvals(Q2)).max())
    for lvl in range(1, n_max + 1):
        bound = 28.0 * math.sqrt(2.0) * ns / (1 << lvl)
        sq_vals.append(CheckValue(f"sq-radius[n={lvl}]", sq_radius, bound + 1e-12))
    reports.append(
        make_report(
            "grid-residual-squared-radius",
            "spectrum of (T - E_D(T))^2 lies within 28 sqrt(2) ||T|| / 2^n" + precond,
            digest,
            sq_vals,
            0.0,
            seed,
        )
    )
    return reports


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
# disc certificates for compression spectra
#
# For R = form.triangular and G = form.compression, the leading and trailing
# blocks of R's unit upper triangular eigenvector matrix V, and of W = V^-1,
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

_ztrevc = _bind(cython_lapack, "ztrevc",
                b"void (char *, char *, int *, int *, __pyx_t_double_complex *, int *, "
                b"__pyx_t_double_complex *, int *, __pyx_t_double_complex *, int *, int *, "
                b"int *, __pyx_t_double_complex *, "
                b"__pyx_t_5scipy_6linalg_13cython_lapack_d *, int *)",
                ctypes.c_char_p, ctypes.c_char_p, _int_p, _int_p, ctypes.c_void_p, _int_p,
                ctypes.c_void_p, _int_p, ctypes.c_void_p, _int_p, _int_p, _int_p,
                ctypes.c_void_p, ctypes.c_void_p, _int_p)


def _gamma(k: int) -> float:
    """k u / (1 - k u): the relative error bound of k rounded operations."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _eigenvectors(R: np.ndarray) -> np.ndarray:
    """V with R V = V diag(R) up to rounding: LAPACK ztrevc's right
    eigenvectors of the upper triangular R, each column scaled to a unit
    diagonal entry, so V is unit upper triangular."""
    n = R.shape[0]
    T = np.array(R, dtype=np.complex128, order="F")  # ztrevc writes and restores it
    V = np.empty((n, n), dtype=np.complex128, order="F")
    work = np.empty(2 * n, dtype=np.complex128)
    rwork = np.empty(n, dtype=np.float64)
    order, found, info, unused = (ctypes.c_int(n), ctypes.c_int(0), ctypes.c_int(0),
                                  ctypes.c_int(0))
    # side R: no left eigenvectors, so VL is not referenced
    _ztrevc(b"R", b"A", unused, order, T.ctypes.data, order, None, order,
            V.ctypes.data, order, order, found, work.ctypes.data, rwork.ctypes.data, info)
    V /= np.diag(V).copy()   # ztrevc zeroes the entries below the diagonal
    np.fill_diagonal(V, 1.0)
    return V


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
    with np.errstate(all="ignore"):
        d = np.diag(R)
        V = _eigenvectors(R)
        W = lapack.ztrtri(V, lower=0, unitdiag=1)[0]
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
    `_disc_radii` show that G[:r, :r] snaps onto the locations of clusters
    0..i, and G[r:, r:] onto those of clusters i+1.. (False for the last).
    An index's center is its R_ii and its target its cluster's location,
    and the separations are the pairwise ones `_snap_atoms` computes."""
    lead, trail = _disc_radii(table.form)
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
    from .brown import _measure_from_values

    return _measure_from_values(snapped, tol)


def verify_block_split(form: SchurForm, k: int, seed: int = 0) -> list[CheckReport]:
    """Determinant and measure splitting across a T-invariant projection.

    T is `form.matrix`; the leading k columns of `form.unitary` span a
    T-invariant subspace, the range of p, and the other columns span its
    complement.  With A and C the compressions of T to range(p) and its
    complement, Delta(T) = Delta(A)^{tau(p)} Delta(C)^{tau(1-p)} and the
    counting measure of T is the convex split tau(p) nu_A + tau(1-p) nu_C.
    """
    T, n, tol = form.matrix, form.n, form.tol
    digest = _context_digest(form, None, f"block-split:{k}:{seed}")
    # with U unitary, ||(I - p) T p||_F = ||G[k:, :k]||_F, and A and C are
    # the diagonal blocks of G
    G = form.compression
    leak = _fro(G[k:, :k])
    if leak > 1e-9 * max(1.0, form.norm):
        raise ValueError(
            f"projection is not T-invariant: ||(I-p) T p|| = {leak:.3e}"
        )
    nu_T = empirical_brown(T, tol=tol)

    if k == 0 or k == n:
        det_vals = [CheckValue("degenerate", 0.0, TOL_DETERMINANT)]
        meas_vals = [CheckValue("degenerate", 0.0, tol)]
    else:
        A, C = G[:k, :k], G[k:, k:]
        dT, dA, dC = fk_determinant(T), fk_determinant(A), fk_determinant(C)
        split = (dA ** (k / n)) * (dC ** ((n - k) / n))
        scale = max(dT, split, 1e-300)
        det_vals = [CheckValue("relative-error", abs(dT - split) / scale, TOL_DETERMINANT)]
        lead, trail = _disc_radii(form)
        d = np.diag(form.triangular)
        nu_A = _corner_measure(A, d[:k], lead[k], nu_T, tol)
        nu_C = _corner_measure(C, d[k:], trail[k], nu_T, tol)
        if nu_A is None or nu_C is None:
            meas_vals = [CheckValue("atom-snap", float("inf"), tol)]
        else:
            mix = mixture([(nu_A, k / n), (nu_C, (n - k) / n)], tol)
            meas_vals = [CheckValue("matching-distance",
                                    measure_distance(mix, nu_T), max(tol, 1e-12))]
    return [
        make_report("corner-determinant-product",
                    "Delta(T) = Delta(A)^{tau(p)} Delta(C)^{tau(1-p)}",
                    digest, det_vals, TOL_DETERMINANT, seed),
        make_report("corner-measure-split",
                    "nu_T = tau(p) nu_A + tau(1-p) nu_C",
                    digest, meas_vals, tol, seed),
    ]


# ---------------------------------------------------------------------------
# full decomposition verification

def verify_decomposition(dec: Decomposition, seed: int = 0) -> list[CheckReport]:
    """End-to-end checks of the decomposition pipeline for one input."""
    table = dec.table
    T = table.matrix
    digest = _context_digest(table.form, table.curve, f"decomposition:{seed}")
    norm = table.norm
    rng = np.random.default_rng(seed)
    reports = []

    # N is normal; counting measures agree; Q is quasinilpotent
    reports.append(
        make_report(
            "normal-part-normality",
            "N N* = N* N",
            digest,
            [CheckValue("defect", dec.report["normality_defect"],
                        TOL_STRUCTURAL * max(dec.report["normal_fro_sq"], 1e-30))],
            TOL_STRUCTURAL,
            seed,
        )
    )
    reports.append(
        make_report(
            "normal-part-measure",
            "the counting measures of N and T coincide",
            digest,
            [CheckValue("matching-distance", dec.report["measure_distance"], 1e-8)],
            1e-8,
            seed,
        )
    )
    qn_bound = 1e-8 * max(1.0, norm)
    reports.append(
        make_report(
            "residual-quasinilpotence",
            "in the ordered basis Q is strictly upper triangular with"
            " vanishing diagonal",
            digest,
            [
                CheckValue("diagonal", dec.report["quasinilpotent_diag"], qn_bound),
                CheckValue("lower-residual", dec.report["quasinilpotent_lower"],
                           TOL_STRUCTURAL * max(1.0, norm)),
            ],
            qn_bound,
            seed,
        )
    )

    # flags against the spectral projections of curve segments
    agree_vals = []
    ks = list(table.params)
    bits = 2 * table.curve.depth
    for _ in range(_RANDOM_SEGMENTS):
        ks.append(_random_param(rng, bits))
    order = np.arange(len(table.clusters))
    for i, k in enumerate(ks):
        inside = _indicator(table, table.member_clusters(CurveSegment(table.curve, k)))
        flag = order < bisect_right(table.params, k)
        agree_vals.append(CheckValue(f"agreement[{i}]",
                                     _cluster_sum_norm(table, inside - flag), TOL_STRUCTURAL))
    reports.append(
        make_report(
            "flag-spectral-agreement",
            "E of a curve segment equals the flag projection at its endpoint",
            digest,
            agree_vals,
            TOL_STRUCTURAL,
            seed,
        )
    )

    # per-flag structural checks from the one product G = U* T U: with U
    # unitary and P = U[:, :r] U[:, :r]*, ||(I - P) T P||_F = ||G[r:, :r]||_F,
    # and the compressions of T to range(P) and range(I - P) are G[:r, :r]
    # and G[r:, r:]
    trace_vals, inv_vals, mono_vals = [], [], []
    inside_vals, outside_vals = [], []
    cum = 0
    U, G = table.unitary, table.form.compression
    nclust = len(table.clusters)
    # flag sides whose discs decide the snap skip their eigensolve
    inside_ok, outside_ok = _certified_flags(table) if nclust else ((), ())
    cluster_locs = [c.location for c in table.clusters]
    for i in range(nclust):
        r = table.ranks[i + 1]
        cum += table.clusters[i].multiplicity
        trace_vals.append(CheckValue(f"rank[{i}]", float(abs(r - cum)), 0.0))
        inv_vals.append(CheckValue(f"invariance[{i}]", _fro(G[r:, :r]),
                                   TOL_STRUCTURAL * max(1.0, norm)))
        if i + 1 < nclust:
            B, Bn = U[:, :r], U[:, : table.ranks[i + 2]]
            mono_vals.append(
                CheckValue(
                    f"monotone[{i}]",
                    _fro(B - Bn @ (Bn.conj().T @ B)),
                    TOL_STRUCTURAL,
                )
            )
        if r > 0:
            ok = inside_ok[i] or _compression_snaps(G[:r, :r], cluster_locs[: i + 1]) is not None
            inside_vals.append(CheckValue(f"inside[{i}]", 0.0 if ok else float("inf"), 0.0))
        if r < table.n:
            ok = outside_ok[i] or _compression_snaps(G[r:, r:], cluster_locs[i + 1 :]) is not None
            outside_vals.append(CheckValue(f"outside[{i}]", 0.0 if ok else float("inf"), 0.0))
    reports.append(
        make_report("flag-trace-law",
                    "flag traces accumulate the cluster multiplicities",
                    digest, trace_vals, 0.0, seed))
    reports.append(
        make_report("flag-invariance", "T maps each flag range into itself",
                    digest, inv_vals, TOL_STRUCTURAL, seed))
    reports.append(
        make_report("flag-monotonicity", "the flag chain is increasing",
                    digest, mono_vals, TOL_STRUCTURAL, seed))
    reports.append(
        make_report("flag-compression-inside",
                    "the inside compression's spectrum lies on the ordered prefix",
                    digest, inside_vals, 0.0, seed))
    reports.append(
        make_report("flag-compression-outside",
                    "the outside compression's spectrum lies on the ordered suffix",
                    digest, outside_vals, 0.0, seed))

    # hyperinvariance of a sampled flag
    if nclust:
        mid = table.range_projection(0, nclust // 2 + 1)
        hrep = hyperinvariance_check(table.form, mid, samples=12, seed=seed)
        reports.append(
            make_report(
                "flag-hyperinvariance",
                "sampled commutant elements leave the flag range invariant",
                digest,
                [CheckValue("max-leak", hrep.max_leak, 1e-8)],
                1e-8,
                seed,
                skip=None if hrep.samples > 0 else "no commutant samples accepted",
            )
        )

    # corner compressions of a commuting input concentrate where they should;
    # a non-commuting input is preconditioned to its normal part
    xtable, precond = _commuting_input(dec)
    GX = xtable.form.compression
    # N's triangular factor is diag(d), so V = I and the disc radius of a
    # finite corner C is ||C - diag(d)||_F
    d = np.diag(xtable.form.triangular)
    diagonal = xtable is not table and np.array_equal(xtable.form.triangular, np.diag(d))
    comm_vals = []
    for trial in range(5):
        B, members = _random_region(rng, xtable)
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
        comm_vals.append(
            CheckValue(f"support[{trial}]", 0.0 if ok else float("inf"), 0.0)
        )
    reports.append(
        make_report(
            "commutant-compression-support",
            "for commuting inputs the corner compression of E(B) T E(B)"
            " concentrates in B" + precond,
            digest, comm_vals, 0.0, seed,
            skip=None if comm_vals else "no region with spectral mass sampled",
        )
    )

    # block-diagonal expectation preserves shifted determinants
    D = table.block_diagonal_part()
    det_vals = []
    margin = 0.05 * max(1.0, norm)
    count = 0
    attempts = 0
    sq = table.curve.square
    while count < 20 and attempts < 400:
        attempts += 1
        lam = complex(rng.uniform(sq.x0, sq.x1), rng.uniform(sq.y0, sq.y1))
        if min(abs(lam - z) for z in cluster_locs) < margin:
            continue
        d1 = fk_determinant(_shifted(T, lam))
        d2 = fk_determinant(_shifted(D, lam))
        det_vals.append(
            CheckValue(
                f"shift[{count}]",
                abs(d1 - d2) / max(d1, d2, 1e-300),
                1e-8,
            )
        )
        count += 1
    reports.append(
        make_report(
            "blockdiag-determinant-agreement",
            "T and its block-diagonal expectation share all shifted determinants",
            digest,
            det_vals,
            1e-8,
            seed,
        )
    )
    return reports


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

    Only the families that emit a requested id run.  Each family seeds its
    own generator, so skipping one changes no other family's values.  Each
    matrix is factored once, and its form sizes every curve and serves
    every decomposition.  Every loaded OpenBLAS library runs on one thread
    (`core.single_thread_blas`), as in the CLI: the checks' many small
    products gain nothing from a second thread, and an idle BLAS thread
    spinning between them would hold a second core for the whole run.
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

    def wants(family_checks) -> bool:
        return not wanted.isdisjoint(family_checks)

    out: list[CheckReport] = []
    for label, T in matrices:
        form = schur_form(T)
        for cspec in curve_specs:
            dec = decompose(T, parse_curve(cspec, form.norm), form=form)
            k = len(dec.table.clusters)
            batch = []
            if wants(_DECOMPOSITION_CHECKS):
                batch += verify_decomposition(dec, seed=seed)
            if wants(_MEASURE_LAW_CHECKS):
                batch += verify_measure_laws(dec.table, trials=measure_trials, seed=seed)
            if wants(_CONVERGENCE_CHECKS):
                batch += verify_convergence(dec, n_max=n_max, seed=seed)
            if k and wants(_BLOCK_SPLIT_CHECKS):
                batch += verify_block_split(dec.table.form, dec.table.ranks[k // 2 + 1], seed)
            out += [replace(rep, check_id=f"{rep.check_id}@{label}@{cspec}")
                    for rep in batch if rep.check_id in wanted]
    return sorted(out, key=lambda r: r.check_id)


def suite_summary(reports: list[CheckReport]) -> dict:
    return {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.verdict == "pass"),
        "failed": sum(1 for r in reports if r.verdict == "fail"),
        "skipped": sum(1 for r in reports if r.verdict == "skip"),
    }
