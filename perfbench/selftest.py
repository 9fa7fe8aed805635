"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it runs the set-up, one untraced cycle and one traced
cycle at tiny sizes (n=16 decompose, two corpus entries, a g=32 grid at
n=64, one CLI cycle at n=8 and 16).  It requires every op to pass its
output check, every per-layer metric named in BENCHMARK.json to be
produced, and the traced cycle to leave the library functions as it found
them.  It then checks that
`run.py` fails without printing a result in a directory that holds only
BENCHMARK.json and perfbench/.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import worker

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench-tmp" / "selftest"


def check_workload(name: str, per_layer_names: list[str]) -> list[str]:
    import spans
    import workloads
    from specord import spectral

    problems = []
    wl = workloads.make(name, seed=1, workdir=SCRATCH / name, tiny=True)
    rec = spans.Recorder()
    worker.set_up(wl, rec)
    original = spectral.build_table
    doc = worker.traced_cycles(wl, rec)
    if spectral.build_table is not original:
        problems.append("tracer left a wrapper installed")
    for label in ("untraced", "traced"):
        if doc[label]["failed"]:
            problems.append(f"{label} cycle failed: {doc[label]['failures']}")
    metrics = doc["per_layer"]
    missing = [m for m in per_layer_names if m not in metrics]
    if missing:
        problems.append(f"per-layer metrics missing: {missing}")
    if not wl.digests():
        problems.append("no input digests")
    print(f"{name}: {doc['traced']['attempted']} ops per cycle, "
          f"{sum(1 for s in rec.spans if s[0] != spans.ROOT)} spans, "
          f"{'ok' if not problems else 'FAILED'}")
    return problems


def check_bare_directory() -> list[str]:
    """run.py must fail, printing no result, without the specord sources."""
    bare = SCRATCH / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"bare directory: exit {proc.returncode}, {'ok' if ok else 'FAILED'}")
    return [] if ok else ["run.py succeeded without specord sources"]


def main() -> int:
    sys.dont_write_bytecode = True
    worker.import_specord()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    problems = []
    try:
        for w in spec["workloads"]:
            problems += check_workload(w["name"], names)
        problems += check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        if SCRATCH.parent.is_dir() and not any(SCRATCH.parent.iterdir()):
            SCRATCH.parent.rmdir()
    for p in problems:
        print("problem:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
