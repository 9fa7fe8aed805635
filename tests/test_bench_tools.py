"""`tools/bench_decompose.py` names every side it measures."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_decompose", ROOT / "tools" / "bench_decompose.py")
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
