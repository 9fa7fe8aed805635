"""`tools/bench_decompose.py` and `tools/bench_cli_decompose.py` name every
side they measure, the committed CLI sweep holds its recorded claims, and
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
    assert 0 < row["median_eigvals_share"] < 1
    assert set(row["blas_threads_in_verify"]) == set(row["blas_threads"])


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
