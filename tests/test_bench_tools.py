"""`tools/bench_decompose.py` and `tools/bench_cli_decompose.py` name every
side they measure and run their children with a fixed mmap threshold, the
committed sweeps hold their recorded claims, and
`tools/report_diff.py` counts what moved between two reports."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name="bench_decompose"):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_side_outside_git_is_named_by_its_sources(tmp_path, monkeypatch):
    tool = load_tool()
    side = tmp_path / "side"
    shutil.copytree(ROOT / "src" / "specord", side / "src" / "specord",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(tool, "SIZES", (16,))
    monkeypatch.setattr(tool, "REPEATS", 1)
    out = tmp_path / "bench.json"
    assert tool.main(["--side", f"copy={side}", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["sides"]["copy"]
    assert doc["commit"] is None
    assert doc["source_sha256"] == tool.source_sha256(ROOT)
    assert [row["n"] for row in doc["rows"]] == [16]
    # any edit to a source file renames the side
    core = side / "src" / "specord" / "core.py"
    core.write_bytes(core.read_bytes() + b"\n")
    assert tool.source_sha256(side) != tool.source_sha256(ROOT)


def test_cli_sweep_rows_hold_every_stage(tmp_path, monkeypatch):
    tool = load_tool("bench_cli_decompose")
    side = tmp_path / "side"
    shutil.copytree(ROOT / "src" / "specord", side / "src" / "specord",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(tool, "SIZES", (16,))
    monkeypatch.setattr(tool, "REPEATS", 1)
    out = tmp_path / "bench.json"
    assert tool.main(["--side", f"copy={side}", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["sides"]["copy"]
    assert doc["commit"] is None
    assert doc["source_sha256"] == tool.bench.source_sha256(ROOT)
    (row,) = doc["rows"]
    assert row["n"] == 16
    assert set(row["runs"][0]) == set(tool.METRICS)
    # the self-check runs inside the command, and its parts inside it
    assert 0 < row["median_verify_s"] < row["median_wall_s"]
    assert 0 < row["median_hyperinvariance_share"] < 1
    # the disc certificate decides every compression spectrum of ginibre
    # n=16, so no eigensolve runs; its time is the compression stage
    assert row["median_eigvals_s"] == 0
    assert 0 < row["median_compression_s"] < row["median_verify_s"]
    assert set(row["blas_threads_in_verify"]) == set(row["blas_threads"])


def test_sweep_ratio_over_a_zero_median_is_null(tmp_path, monkeypatch):
    # neither side solves a compression spectrum, so eigvals_s is 0 on both
    tool = load_tool("bench_cli_decompose")
    monkeypatch.setattr(tool, "SIZES", (16,))
    monkeypatch.setattr(tool, "REPEATS", 1)
    out = tmp_path / "bench.json"
    assert tool.main(["--side", f"a={ROOT}", "--side", f"b={ROOT}", "--out", str(out)]) == 0
    (ratio,) = json.loads(out.read_text())["ratios"]["b/a"]
    assert ratio["eigvals_s"] is None and ratio["wall_s"] > 0


def test_sweep_reverses_the_side_order_on_every_other_repeat(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "SIZES", (16, 32))
    monkeypatch.setattr(tool, "REPEATS", 3)
    order = []

    def measure(root, n, child):
        order.append((root.name, n))
        return {**{k: 1.0 for k in tool.TIMES}, "blas_threads": {},
                "blas_threads_in_reorder": {}, "numpy": "", "scipy": "",
                "numpy_blas": None, "scipy_blas": None}

    monkeypatch.setattr(tool, "measure", measure)
    out = tmp_path / "bench.json"
    assert tool.main(["--side", f"a={tmp_path / 'a'}", "--side", f"b={tmp_path / 'b'}",
                      "--out", str(out)]) == 0
    sides = ["a", "b", "b", "a", "a", "b"]
    assert order == [(side, n) for n in (16, 32) for side in sides]


MALLOC_CHILD = r"""
import json, os, resource
import numpy as np, scipy
from specord import core
stage = {"threshold": float(os.environ.get("MALLOC_MMAP_THRESHOLD_", "nan")),
         "peak_rss_mb": 1.5}
extra = {}
"""


def test_children_hold_the_mmap_threshold_and_may_read_their_own_peak():
    tool = load_tool()
    row = tool.measure(ROOT, 16, MALLOC_CHILD)
    assert row["threshold"] == 131072
    # a peak read by the child before a later stage is the one reported
    assert row["peak_rss_mb"] == 1.5


def test_committed_cli_sweep_records_the_self_check_claims():
    doc = json.loads((ROOT / "BENCH_cli_decompose.json").read_text())
    parent, change = (doc["sides"][label] for label in ("parent", "change"))
    for side in (parent, change):
        assert [row["n"] for row in side["rows"]] == [64, 128, 256]
        assert all(len(row["runs"]) == doc["repeats"] == 3 for row in side["rows"])
    big = {label: side["rows"][-1] for label, side in (("parent", parent),
                                                       ("change", change))}
    assert big["change"]["median_peak_rss_mb"] <= 130
    assert (big["change"]["median_hyperinvariance_s"]
            <= big["parent"]["median_hyperinvariance_s"] / 3)


def test_committed_brown_sweep_records_the_memory_claim():
    tool = load_tool("bench_brown")
    doc = json.loads((ROOT / "BENCH_brown_memory.json").read_text())
    parent, change = (doc["sides"][label] for label in ("parent", "change"))
    for side in (parent, change):
        assert [row["g"] for row in side["rows"]] == [256, 512, 1024]
        assert all(len(row["runs"]) == doc["repeats"] == 3 for row in side["rows"])
        assert all(set(run) == set(tool.METRICS) for row in side["rows"] for run in row["runs"])
    old, new = parent["rows"][-1], change["rows"][-1]
    # grid and writers in about two grids of working memory; at g = 1024 a
    # whole-grid coefficient table and its temporaries (about ten grids,
    # 80 MB) set the first side's peak
    assert new["median_peak_rss_mb"] <= 0.65 * old["median_peak_rss_mb"]


def test_committed_compression_sweep_records_the_certificate_claims():
    tool = load_tool("bench_cli_decompose")
    doc = json.loads((ROOT / "BENCH_cli_compression.json").read_text())
    parent, change = (doc["sides"][label] for label in ("parent", "change"))
    for side in (parent, change):
        assert [row["n"] for row in side["rows"]] == [64, 128, 256]
        assert all(len(row["runs"]) == doc["repeats"] == 3 for row in side["rows"])
        assert all(set(run) == set(tool.METRICS) for row in side["rows"] for run in row["runs"])
    for old, new in zip(parent["rows"], change["rows"]):
        # the certificate decides every compression spectrum of the sweep
        assert new["median_eigvals_s"] == 0 < old["median_eigvals_s"]
        assert new["median_peak_rss_mb"] <= old["median_peak_rss_mb"] + 2
    big = {label: side["rows"][-1] for label, side in (("parent", parent),
                                                       ("change", change))}
    # compression spectra at n = 256 in at most 5% of the parent's time
    assert (big["change"]["median_compression_s"]
            <= big["parent"]["median_compression_s"] / 20)
    assert big["change"]["median_wall_s"] < big["parent"]["median_wall_s"] / 2


def test_report_diff_counts_moved_values_and_flags_mismatches(tmp_path, capsys):
    from specord.cli import main

    tool = load_tool("report_diff")
    for label, level in (("a", "3"), ("b", "3"), ("c", "2")):
        assert main(["verify", "--ensemble", "ginibre:n=4,seed=1", "--level", level,
                     "--out", str(tmp_path / label)]) == 0
    a, b, c = (tmp_path / label / "report.json" for label in "abc")
    assert tool.main([str(a), str(b)]) == 0
    rows, problems = tool.diff(json.loads(a.read_text()), json.loads(b.read_text()))
    assert problems == []
    assert all(r["moved"] == r["bounds"] == r["flips"] == 0 for r in rows.values())
    assert rows["grid-power-bound"]["values"] == 3 * 20 * 20

    # move one value and one bound of one family
    docs = json.loads(b.read_text())
    (rate,) = [r for r in docs if r["check_id"].startswith("grid-expectation-rate@")]
    rate["values"][0]["measured"] += 0.5
    rate["values"][1]["bound"] *= 2
    b.write_text(json.dumps(docs))
    capsys.readouterr()
    assert tool.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    (line,) = [ln for ln in out.splitlines() if ln.startswith("grid-expectation-rate ")]
    assert line.split()[1:] == ["3", "1", "0.5", "1", "0"]

    # a flipped verdict, a renamed value and a missing report each exit 1
    rate["verdict"] = "fail"
    b.write_text(json.dumps(docs))
    assert tool.main([str(a), str(b)]) == 1
    assert "verdict pass -> fail: grid-expectation-rate@" in capsys.readouterr().out
    assert tool.main([str(a), str(c)]) == 1
    assert "value names differ: grid-expectation-rate@" in capsys.readouterr().out
    b.write_text(json.dumps(docs[1:]))
    assert tool.main([str(a), str(b)]) == 1
    assert f"only in A: {docs[0]['check_id']}" in capsys.readouterr().out

    # so does any change to a report's claim, note, digest, seed or tolerance
    for key, value in (("claim", "other"), ("note", "why"), ("inputs_digest", "0" * 64),
                       ("seed", 7), ("tolerance", 0.5)):
        docs = json.loads(a.read_text())
        docs[0][key] = value
        b.write_text(json.dumps(docs))
        assert tool.main([str(a), str(b)]) == 1, key
        assert f"{key} differs: {docs[0]['check_id']}" in capsys.readouterr().out

    # and a check id that occurs twice in one file, which a match by id
    # would otherwise resolve silently to its last report
    docs = json.loads(a.read_text())
    twice = docs + [docs[0]]
    b.write_text(json.dumps(twice))
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"repeated in B: {docs[0]['check_id']}"
    rows, problems = tool.diff(twice, twice)
    assert problems == [f"repeated in {side}: {docs[0]['check_id']}" for side in "AB"]
