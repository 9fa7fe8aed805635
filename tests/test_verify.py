import numpy as np
import pytest

from specord.core import operator_norm
from specord.curves import parse_curve
from specord.ensembles import EnsembleSpec, sample
from specord.projections import Projection, hs_projection
from specord.regions import disk
from specord.spectral import build_table, decompose
from specord.verify import (
    CheckValue,
    KNOWN_CHECKS,
    make_report,
    reports_from_json,
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
        make_report("alpha", "c1", "d1", [CheckValue("v", 0.1, 0.2)], 0.2, seed=3),
        make_report("beta", "c2", "d2", [], 0.1, skip="hypothesis"),
    ]
    text = reports_to_json(reports)
    back = reports_from_json(text)
    assert back == sorted(reports, key=lambda r: r.check_id)
    assert reports_to_json(back) == text


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
    p = Projection(basis=np.eye(2, dtype=complex)[:, :1])
    reports = verify_block_split(T, p, seed=0)
    assert all(r.verdict == "pass" for r in reports)
    # p = I: degenerate identity
    pI = Projection(basis=np.eye(2, dtype=complex))
    assert all(r.verdict == "pass" for r in verify_block_split(T, pI, seed=0))
    # a non-invariant projection is rejected
    bad = Projection(basis=np.eye(2, dtype=complex)[:, 1:])
    with pytest.raises(ValueError):
        verify_block_split(T, bad)


def test_block_split_random_triangular():
    rng = np.random.default_rng(5)
    T = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    p = hs_projection(T, disk(0, 0, operator_norm(T)))  # some flag split
    table = build_table(T, curve_for(T))
    mid = table.range_projection(0, len(table.clusters) // 2 + 1)
    for proj in (p, mid):
        reports = verify_block_split(T, proj, seed=1)
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


def test_known_checks_cover_suite_ids():
    mats = [("m", np.diag([1.0, 2.0]).astype(complex))]
    reports = run_suite(mats, curve_specs=("lex",), seed=0, measure_trials=3)
    bases = {r.check_id.split("@")[0] for r in reports}
    assert bases <= set(KNOWN_CHECKS)


@pytest.mark.parametrize("T, builds", [
    (np.diag([1.0, 2.0]).astype(complex), 2),  # T and T rescaled to norm 1/2
    (sample(EnsembleSpec("ginibre", 6)), 3),    # T, N and N rescaled
    (np.zeros((3, 3), dtype=complex), 1),       # T only: nothing to rescale
])
def test_run_suite_builds_each_table_once(monkeypatch, T, builds):
    from specord import spectral, verify

    calls = []
    for module in (spectral, verify):
        original = module.build_table

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "build_table", counted)
    run_suite([("m", T)], curve_specs=("hilbert:depth=32",), seed=0, measure_trials=2,
              n_max=2)
    assert len(calls) == builds
