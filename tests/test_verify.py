import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import specord
from specord import core
from specord.brown import empirical_brown
from specord.core import _disc_radii, operator_norm, schur_form
from specord.curves import HilbertCurve, RadialCurve, _interleave, parse_curve
from specord.ensembles import EnsembleSpec, corpus_matrices, parse_ensemble, sample
from specord.projections import hs_projection, invariance_leak
from specord.regions import Square, disk, halfplane
from specord.spectral import build_table, decompose
from specord.verify import (
    CheckValue,
    KNOWN_CHECKS,
    _certified_flags,
    _cluster_sum_norm,
    _commuting_input,
    _compression_snaps,
    _disc_snaps,
    _snap_atoms,
    make_report,
    reports_to_json,
    run_suite,
    suite_summary,
    verify_block_split,
    verify_convergence,
    verify_decomposition,
    verify_measure_laws,
)


def curve_for(T, spec="hilbert:depth=32"):
    return parse_curve(spec, operator_norm(T))


def split_form(T, unitary):
    """The Schur form of T with `unitary` in place of its own."""
    return replace(schur_form(T), unitary=unitary)


def test_report_verdicts():
    r = make_report("x", "claim", "d", [CheckValue("a", 0.5, 1.0)], 1.0)
    assert r.verdict == "pass"
    r = make_report("x", "claim", "d", [CheckValue("a", 2.0, 1.0)], 1.0)
    assert r.verdict == "fail"
    r = make_report("x", "claim", "d", [], 1.0, skip="why not")
    assert r.verdict == "skip" and r.note == "why not"
    r = make_report("x", "claim", "d", [CheckValue("a", float("inf"), 1.0)], 1.0)
    assert r.verdict == "fail"


def test_report_json_roundtrip():
    reports = [
        make_report("beta", "c2", "d2", [], 0.1, skip="hypothesis"),
        make_report("alpha", "c1", "d1", [CheckValue("v", 0.1, 0.2)], 0.2, seed=3),
    ]
    text = reports_to_json(reports)
    docs = json.loads(text)
    assert docs == [r.to_dict() for r in sorted(reports, key=lambda r: r.check_id)]
    assert [d["check_id"] for d in docs] == ["alpha", "beta"]
    assert text == json.dumps(docs, indent=1, sort_keys=True) + "\n"


def test_measure_laws_small():
    T = np.diag([1.0, 2.0]).astype(complex)
    reports = verify_measure_laws(build_table(T, curve_for(T, "lex")), trials=50, seed=1)
    assert {r.check_id for r in reports} == {
        "spectral-trace-law", "spectral-intersection-law", "spectral-additivity-law"
    }
    assert all(r.verdict == "pass" for r in reports)


def test_measure_laws_single_cluster():
    J = np.diag(np.ones(3), 1).astype(complex)
    reports = verify_measure_laws(build_table(J, curve_for(J)), trials=20, seed=2)
    assert all(r.verdict == "pass" for r in reports)


def test_convergence_commuting_and_not():
    T = sample(EnsembleSpec("diag_perturb", 10, seed=3, params=(("eps", 0.0),)))
    reports = verify_convergence(decompose(T, curve_for(T)), n_max=6, seed=0)
    assert all(r.verdict == "pass" for r in reports)
    assert all("preconditioned" not in r.claim for r in reports)

    G = sample(EnsembleSpec("ginibre", 10, seed=4))
    reports = verify_convergence(decompose(G, curve_for(G)), n_max=5, seed=0)
    assert all(r.verdict == "pass" for r in reports)
    assert any("preconditioned" in r.claim for r in reports)


def test_convergence_zero_matrix_skips_power_bound():
    Z = np.zeros((3, 3), dtype=complex)
    reports = verify_convergence(decompose(Z, curve_for(Z)), n_max=4, seed=0)
    verdicts = {r.check_id: r.verdict for r in reports}
    assert verdicts["grid-power-bound"] == "skip"
    assert verdicts["grid-expectation-rate"] == "pass"


def test_block_split_examples():
    T = np.array([[1, 5], [0, 2]], dtype=complex)
    I = np.eye(2, dtype=complex)
    reports = verify_block_split(split_form(T, I), 1, seed=0)
    assert all(r.verdict == "pass" for r in reports)
    # k = n: degenerate identity
    assert all(r.verdict == "pass" for r in verify_block_split(split_form(T, I), 2, seed=0))
    # a non-invariant leading column is rejected
    with pytest.raises(ValueError):
        verify_block_split(split_form(T, I[:, ::-1]), 1)


def test_block_split_random_triangular():
    rng = np.random.default_rng(5)
    T = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    cases = []
    # the whole spectrum (k = n), and the 6 eigenvalues with Re z <= 0
    for B in (disk(0, 0, operator_norm(T)), halfplane(1, 0, 0)):
        p = hs_projection(T, B)
        completed, _ = np.linalg.qr(p.basis, mode="complete")
        cases.append((completed, p.rank))
    table = build_table(T, curve_for(T))
    cases.append((table.unitary, table.ranks[len(table.clusters) // 2 + 1]))
    assert [k for _, k in cases[:2]] == [8, 6]
    for unitary, k in cases:
        reports = verify_block_split(split_form(T, unitary), k, seed=1)
        assert all(r.verdict == "pass" for r in reports), [
            (r.check_id, r.verdict) for r in reports
        ]


def test_decomposition_reports():
    T = sample(EnsembleSpec("ginibre", 8, seed=6))
    reports = verify_decomposition(decompose(T, curve_for(T)), seed=2)
    ids = {r.check_id for r in reports}
    assert "normal-part-normality" in ids
    assert "flag-spectral-agreement" in ids
    assert "blockdiag-determinant-agreement" in ids
    assert all(r.verdict in ("pass", "skip") for r in reports)
    fails = [r for r in reports if r.verdict == "fail"]
    assert not fails


@pytest.mark.parametrize("spec", ["hilbert:depth=32", "radial:depth=32"])
def test_each_point_is_indexed_once_per_curve(monkeypatch, spec):
    T = dict(corpus_matrices())["ginibre:n=16,seed=6"]
    cls = HilbertCurve if spec.startswith("hilbert") else RadialCurve
    index_name = "_cell_to_index" if cls is HilbertCurve else "_polar_quantize"
    indexed, queried, calls = [0], set(), [0]
    index, memoized = getattr(cls, index_name), cls.min_preimage

    def counted_index(self, *args):
        indexed[0] += 1
        return index(self, *args)

    def recorded(self, z):
        queried.add(complex(z))
        calls[0] += 1
        return memoized(self, z)

    monkeypatch.setattr(cls, index_name, counted_index)
    monkeypatch.setattr(cls, "min_preimage", recorded)
    report = reports_to_json(verify_decomposition(decompose(T, curve_for(T, spec)), seed=3))
    assert 0 < indexed[0] <= len(queried) < calls[0]

    def uncached(self, z):  # the map without its memo
        if cls is HilbertCurve:
            return self._cell_to_index(*self._quantize(complex(z)))
        return _interleave(*self._polar_quantize(complex(z)), self.depth)

    monkeypatch.setattr(cls, "min_preimage", uncached)
    assert reports_to_json(verify_decomposition(decompose(T, curve_for(T, spec)), seed=3)) == report


def test_reports_reproducible():
    T = sample(EnsembleSpec("ginibre", 6, seed=7))
    a = reports_to_json(verify_decomposition(decompose(T, curve_for(T)), seed=9))
    b = reports_to_json(verify_decomposition(decompose(T, curve_for(T)), seed=9))
    assert a == b


def test_run_suite_and_summary():
    mats = [("jordan4", sample(EnsembleSpec("jordan", 4, seed=0,
                                            params=(("lam", 2.0),))))]
    reports = run_suite(mats, curve_specs=("lex",), seed=0, measure_trials=5)
    s = suite_summary(reports)
    assert s["failed"] == 0
    assert s["total"] == len(reports)
    assert all("@jordan4@lex" in r.check_id for r in reports)
    with pytest.raises(ValueError):
        run_suite(mats, checks=("no-such-check",))
    # a repeated curve would emit each of its check ids twice
    with pytest.raises(ValueError, match=r"^curve specs repeat: \['lex'\]$"):
        run_suite(mats, curve_specs=("lex", "hilbert:depth=32", "lex"))


def test_known_checks_cover_suite_ids():
    mats = [("m", np.diag([1.0, 2.0]).astype(complex))]
    reports = run_suite(mats, curve_specs=("lex",), seed=0, measure_trials=3)
    bases = {r.check_id.split("@")[0] for r in reports}
    assert bases <= set(KNOWN_CHECKS)


@pytest.mark.parametrize("T", [
    np.diag([1.0, 2.0]).astype(complex),  # commuting: the norm-1/2 scaling reads T's table
    sample(EnsembleSpec("ginibre", 6)),    # N's table is read off T's
    np.zeros((3, 3), dtype=complex),       # nothing to scale
])
def test_run_suite_builds_each_table_once(monkeypatch, T):
    from specord import spectral, verify

    calls = Counter()
    for module in (spectral, verify):
        original = module.build_table

        def counted(*args, _original=original, **kwargs):
            calls["table"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "build_table", counted)
    schur = scipy.linalg.schur

    def counted_schur(*args, **kwargs):
        calls["schur"] += 1
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted_schur)
    run_suite([("m", T)], curve_specs=("hilbert:depth=32",), seed=0, measure_trials=2,
              n_max=2)
    assert calls == {"table": 1, "schur": 1}


def count_input_calls(monkeypatch, inputs):
    """Counter of the Schur forms, SVDs (2-norms) and JSON texts computed
    from a matrix equal to one of `inputs`, filled as the calls happen."""
    counts = Counter()
    keys = {core.as_matrix(T).tobytes() for T in inputs}

    def patch(owner, attr, name, when=lambda *args, **kwargs: True):
        fn = getattr(owner, attr)

        def wrapper(A, *args, **kwargs):
            arr = np.asarray(A)
            if arr.dtype == np.complex128 and arr.tobytes() in keys and when(*args, **kwargs):
                counts[name] += 1
            return fn(A, *args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    patch(scipy.linalg, "schur", "schur")
    patch(np.linalg, "norm", "svd", when=lambda ord=None, *args, **kwargs: ord == 2)
    patch(core, "matrix_json_bytes", "json")
    return counts


def test_run_suite_factors_each_matrix_once(monkeypatch):
    mats = [(f"g{seed}", sample(EnsembleSpec("ginibre", 5, seed=seed))) for seed in (1, 2)]
    specs = ("hilbert:depth=32", "morton:depth=32", "lex")
    want = run_suite(mats, curve_specs=specs, seed=0, measure_trials=2, n_max=2)
    counts = count_input_calls(monkeypatch, [T for _, T in mats])
    got = run_suite(mats, curve_specs=specs, seed=0, measure_trials=2, n_max=2)
    assert reports_to_json(got) == reports_to_json(want)
    # one form per matrix, its norm by one SVD and its JSON text, which
    # every table's reordered form carries over
    assert counts == {"schur": 2, "svd": 2, "json": 2}


def test_run_suite_solves_each_form_once(monkeypatch):
    # the certificate and the commutant samples read one eigenvector matrix
    # of each (matrix, curve) form, and both measure-law families one
    # eigvals(T) per matrix, which each curve's reordered form carries
    # over; no eig or inv runs
    specs = ("ginibre:n=12,seed=5", "jordan:n=2,lam=0,lam_im=0,seed=0",
             "normal_plus_nilpotent:n=12,scale=1,seed=32", "strict_upper:n=4,seed=21")
    mats = [(spec, sample(parse_ensemble(spec))) for spec in specs]
    curves = ("hilbert:depth=32", "lex")
    # a block of G = U* T U, or a grid residual, of a triangular T may have
    # T's bytes, so eigvals(T) is counted on the others
    keys = {core.as_matrix(T).tobytes() for _, T in mats if not np.array_equal(T, np.triu(T))}
    calls, radii_forms = Counter(), []

    def count(owner, attr, name, when=lambda *args: True):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if when(*args):
                calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    count(np.linalg, "eig", "eig")
    count(np.linalg, "inv", "inv")
    count(np.linalg, "eigvals", "eigvals(T)", when=lambda A: np.asarray(A).tobytes() in keys)
    count(core, "_ztrevc", "ztrevc")
    count(core, "_disc_radii", "radii", when=lambda form: not radii_forms.append(form))
    run_suite(mats, curve_specs=curves, seed=0, measure_trials=2, n_max=2)
    forms = len(mats) * len(curves)
    assert calls == {"eigvals(T)": len(keys), "ztrevc": forms, "radii": forms}
    assert len({id(form) for form in radii_forms}) == forms


@pytest.mark.parametrize("spec", ["ginibre:n=12,seed=3", "jordan:n=6,lam=0.5",
                                  "diag_perturb:n=16,eps=0,seed=41"])
def test_flag_invariance_matches_the_leak_of_each_flag_basis(spec):
    # every value is ||G[r:, :r]||_F of one G = U* T U, for each flag rank r
    T = sample(parse_ensemble(spec))
    dec = decompose(T, curve_for(T))
    table = dec.table
    (rep,) = [r for r in verify_decomposition(dec, seed=2)
              if r.check_id == "flag-invariance"]
    ranks = table.ranks[1:]
    assert [v.name for v in rep.values] == [f"invariance[{i}]" for i in range(len(ranks))]
    for v, r in zip(rep.values, ranks):
        want = invariance_leak(T, table.unitary[:, :r])
        assert abs(v.measured - want) <= 1e-12 * max(1.0, table.norm), (r, v, want)


def test_flag_spectral_agreement_counts_the_columns_a_segment_misses(monkeypatch):
    # a segment whose E drops a cluster of multiplicity m differs from the
    # flag in m columns of one unitary: ||E - P||_F = sqrt(m)
    from specord.spectral import SpectralTable

    T = np.diag([0.5, 0.5, 0.5, -0.4 + 0.3j, 0.2 - 0.6j]).astype(complex)
    T[0, 1] = T[1, 2] = 1.0
    dec = decompose(T, curve_for(T))
    table = dec.table
    (j,) = [i for i, c in enumerate(table.clusters) if c.multiplicity == 3]
    member_clusters = SpectralTable.member_clusters
    monkeypatch.setattr(SpectralTable, "member_clusters",
                        lambda self, B: [i for i in member_clusters(self, B) if i != j])
    (rep,) = [r for r in verify_decomposition(dec, seed=4)
              if r.check_id == "flag-spectral-agreement"]
    assert rep.verdict == "fail"
    # the cluster parameters come first: segment i holds clusters 0..i
    want = [math.sqrt(3) if i >= j else 0.0 for i in range(len(table.clusters))]
    assert [v.measured for v in rep.values[: len(want)]] == want
    assert {v.measured for v in rep.values} <= {0.0, math.sqrt(3)}


def jordan_beside_two_simple():
    """A 3 x 3 Jordan block at 0.5 beside two simple eigenvalues: one cluster
    of multiplicity 3."""
    T = np.diag([0.5, 0.5, 0.5, -0.4 + 0.3j, 0.2 - 0.6j]).astype(complex)
    T[0, 1] = T[1, 2] = 1.0
    return T


def multi_member_cluster():
    """Three eigenvalues closer than the cluster tolerance, and two apart,
    in a random unitary basis: one cluster of three distinct members."""
    Q, _ = np.linalg.qr(sample(EnsembleSpec("ginibre", 5, seed=5)))
    D = np.diag([0.3, 0.3 + 2e-9, 0.3 - 3e-9j, -0.5 + 0.2j, 0.1 - 0.4j])
    return Q @ D @ Q.conj().T


@pytest.mark.parametrize("make", [lambda: sample(EnsembleSpec("ginibre", 12, seed=3)),
                                  jordan_beside_two_simple, multi_member_cluster],
                         ids=["ginibre", "jordan", "multi-member"])
def test_cluster_sum_norm_matches_the_dense_sum(make):
    # sqrt(sum_i m_i c_i^2) against ||sum_i c_i P_i||_F over dense cluster projections
    T = make()
    table = build_table(T, curve_for(T))
    k = len(table.clusters)
    if make is multi_member_cluster:
        assert sorted(len(set(c.members)) for c in table.clusters) == [1, 1, 3]
    rng = np.random.default_rng(11)
    for _ in range(20):
        coeffs = rng.integers(-2, 3, size=k)
        dense = sum((int(c) * table.range_projection(i, i + 1).matrix
                     for i, c in enumerate(coeffs)),
                    np.zeros((table.n, table.n), dtype=complex))
        got = _cluster_sum_norm(table, coeffs)
        assert abs(got - np.linalg.norm(dense)) <= 1e-12, (coeffs, got)


def test_measure_laws_count_the_columns_a_compound_region_misses(monkeypatch):
    # compound regions that drop a cluster of multiplicity 3 leave E(B1 & B2)
    # and E(B1 | rest) 3 columns short: each law then reads 0 or sqrt(3)
    from specord.regions import CellUnion, FullPlane, _And, _Not, _Or
    from specord.spectral import SpectralTable

    T = jordan_beside_two_simple()
    table = build_table(T, curve_for(T))
    (j,) = [i for i, c in enumerate(table.clusters) if c.multiplicity == 3]
    member_clusters = SpectralTable.member_clusters
    monkeypatch.setattr(
        SpectralTable, "member_clusters",
        lambda self, B: [i for i in member_clusters(self, B)
                         if i != j or not isinstance(B, (_And, _Or, _Not))])
    reports = {r.check_id: r for r in verify_measure_laws(table, trials=20, seed=4)}
    for cid in ("spectral-intersection-law", "spectral-additivity-law"):
        rep = reports[cid]
        assert rep.verdict == "fail", cid
        assert {v.measured for v in rep.values} == {0.0, math.sqrt(3)}, cid
    # dropped from the whole plane and from every cell, it leaves the
    # complement and the cell partition 3 columns short of the identity
    monkeypatch.setattr(
        SpectralTable, "member_clusters",
        lambda self, B: [i for i in member_clusters(self, B)
                         if i != j or not isinstance(B, (CellUnion, FullPlane))])
    values = {v.name: v.measured for r in verify_measure_laws(table, trials=1, seed=4)
              for v in r.values}
    assert values["complement"] == values["cell-partition"] == math.sqrt(3)


def test_projection_identities_build_no_dense_matrix(monkeypatch):
    from specord.projections import Projection

    reads = []
    monkeypatch.setattr(Projection, "matrix", property(lambda P: reads.append(P)))
    for T in (sample(EnsembleSpec("ginibre", 12, seed=3)), jordan_beside_two_simple()):
        dec = decompose(T, curve_for(T))
        verify_measure_laws(dec.table, trials=20, seed=1)
        verify_decomposition(dec, seed=1)
    assert reads == []


def test_verify_decomposition_formats_the_matrix_once(monkeypatch):
    T = sample(EnsembleSpec("ginibre", 6, seed=3))
    dec = decompose(T, curve_for(T))
    counts = count_input_calls(monkeypatch, [T])
    verify_decomposition(dec, seed=1)
    assert counts == {"json": 1}
    # the other families digest the same table from the text hashed above
    verify_measure_laws(dec.table, trials=2)
    verify_convergence(dec, n_max=2)
    verify_block_split(dec.table.form, dec.table.ranks[1])
    assert counts == {"json": 1}


def scaled_operators(dec, levels):
    """Qs and each level's Dn of the commuting input X scaled to norm 1/2,
    read off X's table: (X - N) / (2 ||X||) and (X - E_{D_n}(X)) / (2 ||X||)."""
    xtable, _ = _commuting_input(dec)
    X = xtable.matrix
    xnorm = operator_norm(X)
    Qs = (X - dec.N) / (2.0 * xnorm)
    return Qs, [(X - xtable.expectation(lvl)) / (2.0 * xnorm) for lvl in levels]


def rescaled_rebuild_operators(dec, levels):
    """Qs and Dn from a table of S = X / (2 ||X||) built again along the curve
    scaled alike: the derivation `scaled_operators` replaces."""
    xtable, _ = _commuting_input(dec)
    X, curve = xtable.matrix, dec.table.curve
    xnorm = operator_norm(X)
    S = X / (2.0 * xnorm)
    f, sq = 0.5 / xnorm, curve.square
    stable = build_table(S, type(curve)(square=Square(sq.cx * f, sq.cy * f, sq.side * f),
                                        depth=curve.depth))
    return S - stable.normal_part(), [S - stable.expectation(lvl) for lvl in levels]


def power_bound_oracle(dec, n_max, seed):
    """(name, measured, bound) of grid-power-bound, one eta at a time."""
    levels = range(1, min(n_max, 6) + 1)
    Qs, Dns = scaled_operators(dec, levels)
    rng = np.random.default_rng(seed)
    out = []
    for lvl, Dn in zip(levels, Dns):
        delta = 3.0 * math.sqrt(2.0) * 0.5 / (1 << lvl)
        for trial in range(20):
            eta = rng.standard_normal(Qs.shape[0]) + 1j * rng.standard_normal(Qs.shape[0])
            eta /= np.linalg.norm(eta)
            v = eta.copy()
            w = eta.copy()
            for m in range(1, 21):
                v = Qs @ (Qs @ v)
                w = Dn @ w
                rhs = (4.0**m) * max(delta**m, float(np.linalg.norm(w)))
                out.append((f"power[n={lvl},trial={trial},m={m}]",
                            float(np.linalg.norm(v)), rhs * (1.0 + 1e-9) + 1e-300))
    return out


@pytest.mark.parametrize("spec", [
    EnsembleSpec("ginibre", 12, seed=5),
    EnsembleSpec("strict_upper", 16, seed=22),
    EnsembleSpec("jordan", 6, seed=0, params=(("lam", 0.5), ("lam_im", -0.5))),
])
def test_power_bound_block_matches_one_vector_at_a_time(spec):
    T = sample(spec)
    dec = decompose(T, curve_for(T))
    reports = verify_convergence(dec, n_max=4, seed=3)
    (power,) = [r for r in reports if r.check_id == "grid-power-bound"]
    expected = power_bound_oracle(dec, n_max=4, seed=3)
    assert [v.name for v in power.values] == [name for name, _, _ in expected]
    for v, (_, measured, bound) in zip(power.values, expected):
        assert v.measured == pytest.approx(measured, rel=1e-13, abs=1e-300)
        assert v.bound == pytest.approx(bound, rel=1e-13, abs=1e-300)
    # the operators read off X's table are those of the rescaled rebuild
    levels = range(1, 5)
    Qs, Dns = scaled_operators(dec, levels)
    Qs_old, Dns_old = rescaled_rebuild_operators(dec, levels)
    assert np.linalg.norm(Qs - Qs_old, 2) <= 1e-12
    for Dn, Dn_old in zip(Dns, Dns_old):
        assert np.linalg.norm(Dn - Dn_old, 2) <= 1e-12


def snap_atoms_oracle(values, targets):
    """Nearest target by Python's abs, one value and one target at a time."""
    if not targets:
        return None
    if len(targets) == 1:
        return [targets[0]] * len(values)
    sep = min(abs(a - b) for i, a in enumerate(targets) for b in targets[i + 1:])
    out = []
    for v in values:
        d, z = min(((abs(v - t), t) for t in targets), key=lambda p: p[0])
        if d > sep / 2:
            return None
        out.append(z)
    return out


def test_snap_atoms_matches_python_abs_on_random_inputs():
    rng = np.random.default_rng(11)
    snapped = 0
    for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            targets = (scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))).tolist()
            near = rng.choice(targets, size=int(rng.integers(0, 8)))
            jitter = rng.standard_normal(near.size) + 1j * rng.standard_normal(near.size)
            values = (near + scale * 10.0 ** rng.uniform(-16, 0) * jitter).tolist()
            got = _snap_atoms(values, targets)
            assert got == snap_atoms_oracle(values, targets)
            snapped += got is not None
    assert snapped > 100  # both outcomes are exercised


def test_snap_atoms_ties_duplicates_and_degenerate_inputs():
    cases = [
        ([1 + 0j, 1.5 + 0j], [0j, 2 + 0j, 10j]),        # 1 is equidistant: first wins
        ([1 + 0j], [2 + 0j, 0j, 10j]),
        ([1 + 0j, 0.5 + 0j], [1 + 0j, 1 + 0j, 3 + 0j]),  # duplicate target: sep = 0
        ([1 + 0j, 1 + 0j], [1 + 0j, 1 + 0j, 3 + 0j]),
        ([0.3 + 0.1j, 7 - 2j], [5 + 5j]),                # one target
        ([], [0j, 1 + 0j]),                              # no values
        ([0j], []),                                      # no targets
        ([], []),
    ]
    for values, targets in cases:
        assert _snap_atoms(values, targets) == snap_atoms_oracle(values, targets), (
            values, targets)
    assert _snap_atoms([1 + 0j], [2 + 0j, 0j, 10j]) == [2 + 0j]
    # midpoints of two targets: the last bit of each distance decides
    rng = np.random.default_rng(3)
    for scale in (1e-200, 1.0, 1e200):
        for _ in range(500):
            targets = (scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))).tolist()
            values = [(targets[0] + targets[1]) / 2]
            assert _snap_atoms(values, targets) == snap_atoms_oracle(values, targets)


def test_hypot_gives_the_bits_of_python_abs():
    # the premise of `_snap_atoms`; numpy's complex abs does not hold it on
    # every CPU
    rng = np.random.default_rng(4)
    for scale in (1e-300, 1e-100, 1.0, 1e100, 1e300):
        a = scale * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        b = scale * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        python = [abs(x - y) for x, y in zip(a.tolist(), b.tolist())]
        assert np.hypot(a.real - b.real, a.imag - b.imag).tolist() == python


DETERMINISM_CHILD = """
import hashlib, sys
from specord.ensembles import corpus_matrices
from specord.verify import reports_to_json, run_suite
names = sys.argv[1:]
mats = [(name, M) for name, M in corpus_matrices() if name in names]
assert len(mats) == len(names)
reports = run_suite(mats, curve_specs=("hilbert:depth=32",), seed=0, n_max=3,
                    measure_trials=20)
print(hashlib.sha256(reports_to_json(reports).encode("ascii")).hexdigest())
"""


def test_corpus_reports_independent_of_blas_threads():
    # the `specord verify` defaults on corpus entries up to n = 64; each
    # thread count applies to a child process only
    names = ["ginibre:n=64,seed=7", "strict_upper:n=64,seed=24",
             "jordan:n=8,lam=1,lam_im=1,seed=0", "stress:edge_axis"]
    src = str(Path(specord.__file__).resolve().parent.parent)
    digests = {}
    for threads in ("1", "2"):
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run([sys.executable, "-c", DETERMINISM_CHILD, *names], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (threads, proc.stderr[-2000:])
        digests[threads] = proc.stdout.split()[-1]
    assert digests["1"] == digests["2"], digests


# ---------------------------------------------------------------------------
# disc certificates of compression spectra

def snap_eigvals_by_caller(monkeypatch):
    """Counter of the `eigvals` calls that `_compression_snaps` makes, by the
    function that called it, filled as the calls happen."""
    calls = Counter()
    eigvals = np.linalg.eigvals

    def counted(*args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_compression_snaps":
            calls[frame.f_back.f_code.co_name] += 1
        return eigvals(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def without_certificates(monkeypatch):
    """Make every disc test inconclusive, so each compression spectrum is
    solved for and snapped as it was before the certificate."""
    from specord import verify

    monkeypatch.setattr(verify, "_fits", lambda dev, radius, sep: np.zeros(
        np.broadcast(dev, radius, sep).shape, dtype=bool))


def flag_sides_holding(table, clusters):
    """Per flag i: whether its inside block, clusters 0..i, and its outside
    block, clusters i+1.., hold every cluster index in `clusters`."""
    flags = np.arange(len(table.clusters))
    return flags >= max(clusters), flags < min(clusters)


def decomposition_checks(dec):
    return reports_to_json(verify_decomposition(dec, seed=2))


def test_a_jordan_block_falls_back_to_eigvals_and_keeps_its_verdict(monkeypatch):
    T = jordan_beside_two_simple()
    dec = decompose(T, curve_for(T))
    (jordan,) = [i for i, c in enumerate(dec.table.clusters) if c.multiplicity == 3]
    inside, outside = _certified_flags(dec.table)
    held_in, held_out = flag_sides_holding(dec.table, [jordan])
    # a block that holds the defective cluster has no disc bound
    assert not inside[held_in].any() and not outside[held_out].any()
    assert inside.any() and outside.any()
    calls = snap_eigvals_by_caller(monkeypatch)
    got = decomposition_checks(dec)
    assert calls["verify_decomposition"] > 0
    without_certificates(monkeypatch)
    assert got == decomposition_checks(dec)


def close_pair_beside_three_simple():
    """Eigenvalues 0.5 and 0.5 + 1e-6, coupled by unit entries, beside three
    simple ones in a random unitary basis: two clusters whose discs, at
    eigenvector condition about 1e6, are wider than half their separation."""
    Q, _ = np.linalg.qr(sample(EnsembleSpec("ginibre", 5, seed=3)))
    R = np.diag([0.5, 0.5 + 1e-6, 1.0, 2.0 + 1.0j, -1.0]) + np.triu(np.ones((5, 5)), 1)
    return Q @ R @ Q.conj().T


def test_a_close_pair_falls_back_to_eigvals_and_keeps_its_verdict(monkeypatch):
    T = close_pair_beside_three_simple()
    dec = decompose(T, curve_for(T))
    table = dec.table
    pair = [i for i, c in enumerate(table.clusters) if abs(c.location - 0.5) < 1e-5]
    assert len(pair) == 2
    inside, outside = _certified_flags(table)
    held_in, held_out = flag_sides_holding(table, pair)
    # exactly the blocks that hold both eigenvalues of the pair fall back
    # (the last flag has no outside)
    assert np.array_equal(inside, ~held_in)
    assert np.array_equal(outside[:-1], ~held_out[:-1]) and not outside[-1]
    calls = snap_eigvals_by_caller(monkeypatch)
    got = decomposition_checks(dec)
    assert calls["verify_decomposition"] > 0
    for doc in json.loads(got):
        if doc["check_id"].startswith("flag-compression"):
            assert doc["verdict"] == "pass"
    without_certificates(monkeypatch)
    assert got == decomposition_checks(dec)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from([("ginibre", ()), ("elliptic", (("rho", 0.9),)),
                             ("elliptic", (("rho", -0.5),)),
                             ("normal_plus_nilpotent", (("scale", 0.5),)),
                             ("normal_plus_nilpotent", (("scale", 2.0),))]),
       n=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
def test_every_certified_compression_spectrum_snaps(kind, n, seed):
    T = sample(EnsembleSpec(kind[0], n, seed=seed, params=kind[1]))
    table = decompose(T, curve_for(T)).table
    G = table.form.compression
    locs = [c.location for c in table.clusters]
    inside, outside = _certified_flags(table)
    for i, r in enumerate(table.ranks[1:]):
        if inside[i]:
            assert _snap_atoms(np.linalg.eigvals(G[:r, :r]).tolist(), locs[: i + 1]) is not None
        if outside[i]:
            assert _snap_atoms(np.linalg.eigvals(G[r:, r:]).tolist(), locs[i + 1 :]) is not None
    # a corner split's snaps, multiplicities included
    lead, trail = _disc_radii(table.form)
    d = np.diag(table.form.triangular)
    targets = list(empirical_brown(T, tol=table.tol).locations)
    for k in range(1, n):
        for block, centers, radius in ((G[:k, :k], d[:k], lead[k]),
                                       (G[k:, k:], d[k:], trail[k])):
            got = _disc_snaps(centers, radius, targets)
            if got is not None:
                want = _snap_atoms(np.linalg.eigvals(block).tolist(), targets)
                assert want is not None and Counter(got) == Counter(want)


def test_ginibre_self_check_solves_no_compression_spectrum(monkeypatch):
    T = sample(parse_ensemble("ginibre:n=32,seed=1"))
    dec = decompose(T, curve_for(T))
    calls = snap_eigvals_by_caller(monkeypatch)
    got = decomposition_checks(dec)
    assert calls == {}
    without_certificates(monkeypatch)
    assert got == decomposition_checks(dec)
    # both flag sides of every flag but the two single-cluster ones
    assert calls["verify_decomposition"] >= 2 * len(dec.table.clusters) - 3


@pytest.mark.parametrize("spec", ["ginibre:n=16,seed=4", "normal_plus_nilpotent:n=12,seed=9",
                                  "jordan:n=4,lam=0.5"])
def test_corner_measure_split_reads_the_discs_like_the_spectrum(monkeypatch, spec):
    form = schur_form(sample(parse_ensemble(spec)))
    k = form.n // 2
    calls = snap_eigvals_by_caller(monkeypatch)
    got = reports_to_json(verify_block_split(form, k, seed=1))
    solved = calls["_corner_measure"]
    without_certificates(monkeypatch)
    assert got == reports_to_json(verify_block_split(form, k, seed=1))
    # a single-atom Jordan reference never solves; the others solve only
    # without their certificate
    assert solved == 0 and calls["_corner_measure"] == (0 if "jordan" in spec else 2)


def test_a_non_finite_compression_is_never_certified_or_shortcut():
    block = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    for targets in ([1 + 0j], [0j, 1 + 0j]):
        with pytest.raises(np.linalg.LinAlgError):
            _compression_snaps(block, targets)
    T = sample(EnsembleSpec("ginibre", 6, seed=2))
    table = decompose(T, curve_for(T)).table
    inside, outside = _certified_flags(table)
    assert inside.all() and outside[:-1].all()   # the last flag has no outside
    bad = T.copy()
    bad[3, 1] = np.inf
    form = replace(table.form, matrix=bad)   # its G = U* T U is not finite
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(form.compression).all()
    assert all(np.isinf(radii).all() for radii in _disc_radii(form))
    assert not any(side.any() for side in _certified_flags(replace(table, form=form)))
    assert _disc_snaps(np.zeros(2, dtype=complex), np.inf, [0j, 1 + 0j]) is None
