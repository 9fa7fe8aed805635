"""`tools/bench_decompose.py` and `tools/bench_cli_decompose.py` name every
side they measure, and the committed CLI sweep holds its recorded claims."""

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
