"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <criterion>: PASS/FAIL` line (run pytest
with -s to see them).  The corpus is the fixed ensemble list plus the two
curve-stress constructions; the three standard curves are Hilbert, Morton,
and the lexicographic sweep at depth 32.
"""

import math
import time

import numpy as np
import pytest

from specord.brown import (
    brown_density_grid,
    empirical_brown,
    measure_distance,
    region_mass,
)
from specord.core import (
    eigenvalue_matching_distance,
    fk_determinant,
    operator_norm,
)
from specord.curves import CurveSegment, LexicographicCurve, parse_curve
from specord.ensembles import corpus_matrices, parse_ensemble, sample
from specord.regions import ambient_square, cell_box
from specord.spectral import build_table, decompose
from specord.verify import (
    _random_param,
    _random_region,
    _snap_atoms,
    run_suite,
    suite_summary,
    verify_block_split,
    verify_measure_laws,
)

CURVES = ("hilbert:depth=32", "morton:depth=32", "lex:depth=32")

_matrices = None
_tables: dict = {}
_decs: dict = {}


def corpus_items():
    global _matrices
    if _matrices is None:
        _matrices = corpus_matrices()
    return _matrices


def table_for(name, T, cspec):
    key = (name, cspec)
    if key not in _tables:
        curve = parse_curve(cspec, operator_norm(T))
        _tables[key] = build_table(T, curve)
    return _tables[key]


def dec_for(name, T, cspec):
    key = (name, cspec)
    if key not in _decs:
        curve = parse_curve(cspec, operator_norm(T))
        _decs[key] = decompose(T, curve)
    return _decs[key]


def announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_decomposition_suite():
    t0 = time.time()
    worst_normality = 0.0
    worst_measure = 0.0
    worst_qn = 0.0
    for name, T in corpus_items():
        norm = operator_norm(T)
        eig_T = np.linalg.eigvals(T)
        for cspec in CURVES:
            dec = dec_for(name, T, cspec)
            assert np.array_equal(dec.Q, T - dec.N)
            nfro2 = float(np.linalg.norm(dec.N)) ** 2
            defect = dec.report["normality_defect"]
            assert defect <= 1e-9 * max(nfro2, 1e-30), (name, cspec)
            worst_normality = max(worst_normality,
                                  defect / max(nfro2, 1e-30))
            d = eigenvalue_matching_distance(np.linalg.eigvals(dec.N), eig_T)
            assert d <= 1e-8, (name, cspec, d)
            worst_measure = max(worst_measure, d)
            qn = dec.report["quasinilpotent_diag"] + dec.report["quasinilpotent_lower"]
            assert qn <= 1e-8 * max(1.0, norm), (name, cspec, qn)
            worst_qn = max(worst_qn, qn / max(1.0, norm))
    dt = time.time() - t0
    announce(
        "criterion-1 decomposition-suite",
        dt <= 120.0,
        f"({len(corpus_items())} matrices x {len(CURVES)} curves in {dt:.1f}s; "
        f"worst normality {worst_normality:.2e}, measure {worst_measure:.2e}, "
        f"quasinilpotence {worst_qn:.2e})",
    )


def test_criterion_2_segment_projections_agree():
    rng = np.random.default_rng(202)
    worst = 0.0
    for name, T in corpus_items():
        for cspec in CURVES:
            table = table_for(name, T, cspec)
            bits = 2 * table.curve.depth
            ts = [_random_param(rng, bits) for _ in range(50)]
            for t in ts:
                E = table.spectral_projection(CurveSegment(table.curve, t))
                P = table.flag_at(t)
                worst = max(worst, float(np.linalg.norm(E.matrix - P.matrix)))
            assert worst <= 1e-9, (name, cspec, worst)
    announce("criterion-2 segment-flag-agreement", worst <= 1e-9,
             f"(max deviation {worst:.2e} over 50 t per matrix/curve)")


def test_criterion_3_measure_laws():
    failures = []
    for idx, (name, T) in enumerate(corpus_items()):
        cspec = CURVES[idx % len(CURVES)]
        table = table_for(name, T, cspec)
        reports = verify_measure_laws(table, trials=50, seed=300 + idx)
        for r in reports:
            if r.verdict != "pass":
                failures.append((name, r.check_id))
    announce("criterion-3 measure-laws", not failures,
             f"(100 regions per matrix; failures: {failures[:3]})")


def test_criterion_4_flag_properties():
    rng = np.random.default_rng(404)
    worst_leak = 0.0
    worst_mono = 0.0
    bad = []
    for name, T in corpus_items():
        norm = operator_norm(T)
        n = T.shape[0]
        nu = empirical_brown(T)
        for cspec in CURVES:
            table = table_for(name, T, cspec)
            cum = 0
            for i in range(len(table.clusters)):
                P = table.range_projection(0, i + 1)
                cum += table.clusters[i].multiplicity
                if P.rank != cum:
                    bad.append((name, cspec, "trace", i))
                seg = CurveSegment(table.curve, table.params[i])
                if P.rank != round(region_mass(nu, seg) * n):
                    bad.append((name, cspec, "measure-trace", i))
                leak = float(
                    np.linalg.norm((np.eye(n) - P.matrix) @ T @ P.matrix)
                )
                worst_leak = max(worst_leak, leak / max(norm, 1e-30))
                if leak > 1e-9 * max(1.0, norm):
                    bad.append((name, cspec, "invariance", i))
                inside_locs = [c.location for c in table.clusters[: i + 1]]
                outside_locs = [c.location for c in table.clusters[i + 1 :]]
                if P.rank > 0:
                    vals = np.linalg.eigvals(
                        table.unitary[:, : P.rank].conj().T
                        @ T @ table.unitary[:, : P.rank]
                    )
                    if _snap_atoms(vals.tolist(), inside_locs) is None:
                        bad.append((name, cspec, "inside", i))
                if P.rank < n:
                    vals = np.linalg.eigvals(
                        table.unitary[:, P.rank :].conj().T
                        @ T @ table.unitary[:, P.rank :]
                    )
                    if _snap_atoms(vals.tolist(), outside_locs) is None:
                        bad.append((name, cspec, "outside", i))
    # monotonicity over 200 random nested region pairs
    items = corpus_items()
    pairs = 0
    while pairs < 200:
        name, T = items[int(rng.integers(0, len(items)))]
        table = table_for(name, T, CURVES[pairs % len(CURVES)])
        B1, _ = _random_region(rng, table)
        B2 = B1 | _random_region(rng, table)[0]
        try:
            P1 = table.spectral_projection(B1)
            P2 = table.spectral_projection(B2)
        except Exception:
            continue
        worst_mono = max(
            worst_mono,
            float(np.linalg.norm(P1.matrix - P1.matrix @ P2.matrix)),
        )
        pairs += 1
    ok = not bad and worst_mono <= 1e-9
    announce("criterion-4 flag-properties", ok,
             f"(worst invariance leak {worst_leak:.2e} rel, monotonicity "
             f"{worst_mono:.2e}; issues: {bad[:3]})")


def test_criterion_5_rate_bounds():
    rng = np.random.default_rng(505)
    checked = 0
    bad = []
    for name, T in corpus_items():
        table = table_for(name, T, CURVES[0])
        if not table.commutes_with_cluster_projs():
            continue
        checked += 1
        norm = operator_norm(T)
        N = table.normal_part()
        for lvl in range(1, 9):
            bound = 3.0 * math.sqrt(2.0) * norm / 2**lvl
            if np.linalg.norm(N - table.expectation(lvl), 2) > bound + 1e-12:
                bad.append((name, "rate", lvl))
            bound19 = 6.0 * math.sqrt(2.0) * norm / 2**lvl
            resid = T - table.expectation(lvl)
            if np.abs(np.linalg.eigvals(resid)).max() > bound19 + 1e-12:
                bad.append((name, "radius", lvl))
        if norm == 0.0:
            continue
        S = T / (2.0 * norm)
        scurve = parse_curve(CURVES[0], operator_norm(S))
        stab = build_table(S, scurve)
        Ns = stab.normal_part()
        Qs = S - Ns
        for lvl in range(1, 7):
            delta = 3.0 * math.sqrt(2.0) * 0.5 / 2**lvl
            Dn = S - stab.expectation(lvl)
            for _ in range(20):
                eta = rng.standard_normal(S.shape[0]) + 1j * rng.standard_normal(
                    S.shape[0]
                )
                eta /= np.linalg.norm(eta)
                v = eta.copy()
                w = eta.copy()
                for m in range(1, 21):
                    v = Qs @ (Qs @ v)
                    w = Dn @ w
                    if np.linalg.norm(v) > (4.0**m) * max(
                        delta**m, np.linalg.norm(w)
                    ) * (1 + 1e-9) + 1e-300:
                        bad.append((name, "power", lvl, m))
                        break
    announce("criterion-5 rate-bounds", checked >= 10 and not bad,
             f"({checked} commuting-case inputs; violations: {bad[:3]})")


def test_criterion_6_corner_splits():
    rng = np.random.default_rng(606)
    pairs = 0
    det_fail = []
    items = corpus_items()
    while pairs < 100:
        name, T = items[int(rng.integers(0, len(items)))]
        table = table_for(name, T, CURVES[pairs % len(CURVES)])
        if not table.clusters:
            continue
        i = int(rng.integers(0, len(table.clusters)))
        # flag i: the leading ranks[i + 1] columns of the ordered unitary
        reports = verify_block_split(table.form, table.ranks[i + 1], seed=pairs)
        for r in reports:
            if r.verdict != "pass":
                det_fail.append((name, r.check_id, pairs))
        pairs += 1
    # shifted-determinant agreement through the block-diagonal compression
    agree_fail = []
    for name, T in corpus_items():
        table = table_for(name, T, CURVES[1])
        D = table.block_diagonal_part()
        locs = [c.location for c in table.clusters]
        sq = table.curve.square
        margin = 0.05 * max(1.0, operator_norm(T))
        done = 0
        attempts = 0
        while done < 20 and attempts < 400:
            attempts += 1
            lam = complex(rng.uniform(sq.x0, sq.x1), rng.uniform(sq.y0, sq.y1))
            if min(abs(lam - z) for z in locs) < margin:
                continue
            d1 = fk_determinant(T - lam * np.eye(table.n))
            d2 = fk_determinant(D - lam * np.eye(table.n))
            if abs(d1 - d2) > 1e-8 * max(d1, d2, 1e-300):
                agree_fail.append((name, done))
            done += 1
    ok = not det_fail and not agree_fail
    announce("criterion-6 corner-splits", ok,
             f"(100 invariant pairs, 20 shifts per matrix; "
             f"failures: {(det_fail + agree_fail)[:3]})")


def test_criterion_7_brown_density():
    T = sample(parse_ensemble("ginibre:n=64,seed=7"))
    norm = operator_norm(T)
    t0 = time.time()
    grid = brown_density_grid(T, g=256, eps=1e-3 * norm)
    dt = time.time() - t0
    eigs = np.linalg.eigvals(T)
    sq = grid.square
    worst = 0.0
    for k in range(1, 65):
        x0, x1, y0, y1 = cell_box(sq, 3, k)
        count = float(
            np.sum(
                (eigs.real >= x0) & (eigs.real < x1)
                & (eigs.imag > y0) & (eigs.imag <= y1)
            )
        ) / 64.0
        bi, bj = divmod(k - 1, 8)
        block = float(grid.masses[bi * 32 : (bi + 1) * 32,
                                  bj * 32 : (bj + 1) * 32].sum())
        worst = max(worst, abs(block - count))
    ok = worst <= 0.05 and dt <= 30.0
    announce("criterion-7 brown-density", ok,
             f"(max level-3 cell deviation {worst:.4f}, {dt:.1f}s)")


def test_criterion_8_ordering_sensitivity_witness():
    T = np.array([[1, 1], [0, 2]], dtype=complex)

    class ReversedLex(LexicographicCurve):
        def min_preimage(self, z):
            return (1 << 2 * self.depth) - 1 - super().min_preimage(z)

    fwd = decompose(T, parse_curve("lex", operator_norm(T)))
    rev = decompose(
        T, ReversedLex(square=ambient_square(operator_norm(T)), depth=32)
    )
    dev = max(
        float(np.abs(fwd.N - np.diag([1.0, 2.0])).max()),
        float(np.abs(fwd.Q - np.array([[0, 1], [0, 0]])).max()),
        float(np.abs(rev.N - np.array([[1.5, 0.5], [0.5, 1.5]])).max()),
        float(np.abs(rev.Q - np.array([[-0.5, 0.5], [-0.5, 0.5]])).max()),
    )
    md = measure_distance(empirical_brown(fwd.N), empirical_brown(rev.N))
    ok = dev <= 1e-10 and md <= 1e-10
    announce("criterion-8 ordering-sensitivity", ok,
             f"(entrywise deviation {dev:.2e}, measure distance {md:.2e})")


def test_criterion_9_replay_determinism(tmp_path):
    from specord.cli import main

    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["decompose", "--ensemble", "ginibre:n=12,seed=4",
                 "--curve", "hilbert:depth=32", "--out", str(out1)]) == 0
    assert main(["replay", str(out1 / "config.json"), "--out", str(out2)]) == 0
    same = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    out3 = tmp_path / "c"
    out4 = tmp_path / "d"
    assert main(["verify", "--ensemble", "jordan:n=4,lam=2", "--curve", "lex",
                 "--out", str(out3)]) == 0
    assert main(["replay", str(out3 / "config.json"), "--out", str(out4)]) == 0
    same = same and (
        (out3 / "report.json").read_bytes() == (out4 / "report.json").read_bytes()
    )
    announce("criterion-9 replay-determinism", same,
             "(decompose and verify report.json byte-identical)")


def test_full_corpus_suite():
    # the suite over the whole corpus must pass with zero failures and at
    # most 5% skipped (hypothesis-violating combinations)
    reports = run_suite(corpus_items(), curve_specs=CURVES, seed=0,
                        measure_trials=5)
    s = suite_summary(reports)
    ok = s["failed"] == 0 and s["skipped"] <= 0.05 * s["total"]
    announce("corpus-suite", ok,
             f"({s['passed']} passed, {s['failed']} failed, "
             f"{s['skipped']} skipped of {s['total']})")
