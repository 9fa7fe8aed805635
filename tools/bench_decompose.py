"""n-sweep of the library `spectral.decompose`, written to BENCH_decompose.json.

    python3 tools/bench_decompose.py --side parent=../old --side change=. \
        --out BENCH_decompose.json

Each `--side LABEL=ROOT` names a checkout whose `ROOT/src` holds specord;
sides are measured alternately, one child process per (side, n, repeat)
for n in SIZES and REPEATS repeats, in the given order on even repeats
and in reverse on odd ones, so every number in the file comes from one
session on one machine.  A child samples ginibre n with seed 1,
orders it along `hilbert:depth=32` and times one `decompose` and one
`write_bundle` of its result (after a warm-up of both at n = 32), with the
stages of `decompose` read by wrapping the module globals that
`build_table` calls:

* `schur_s`: `core.schur_form`;
* `reorder_s`: `core._reorder_by_keys`, the ordered-Schur reorder;
* `total_s`: the whole `decompose`, and the first read of its `report`,
  which computes N, N's eigenvalues, Q and the report values;
* `write_bundle_s`: `spectral.write_bundle` into a temporary directory;
* `format_s`: `core.matrix_json_bytes` of T, N and Q, the text that
  `write_bundle` writes, timed again on its own;
* `peak_rss_mb`: the child's peak resident set once `write_bundle` has
  returned, read before the `format_s` stage, so it is the op's own;
* `blas_threads`: `core.openblas_threads()` outside `decompose`, and
  `blas_threads_in_reorder` as seen inside the reorder.

Children run with `MALLOC_MMAP_THRESHOLD_=131072`, glibc's default mmap
threshold held fixed as in the perfbench workers, so that freed large
arrays go back to the system and the peak follows the live data.

Per (side, n) the file keeps every repeat and the median of each time;
`ratios` divides the last side's medians by the first's (null where the
first's is 0).  Each side is named by its git commit (null when ROOT is
not a git checkout) and by `source_sha256`, a hash of its
`src/specord/*.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import json, resource, sys, tempfile
from time import perf_counter
import numpy as np, scipy
from specord import core, spectral
from specord.curves import curve_for_matrix
from specord.ensembles import parse_ensemble, sample

stage = {"schur_s": 0.0, "reorder_s": 0.0}
inside = {}

def timed(name, fn, probe=False):
    def wrapper(*args, **kwargs):
        if probe:
            inside.update(core.openblas_threads())
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stage[name] += perf_counter() - t
    return wrapper

spectral.schur_form = timed("schur_s", spectral.schur_form)
spectral._reorder_by_keys = timed("reorder_s", spectral._reorder_by_keys, probe=True)

def run(n):
    T = sample(parse_ensemble(f"ginibre:n={n},seed=1"))
    curve = curve_for_matrix("hilbert:depth=32", T)
    for key in list(stage):
        stage[key] = 0.0
    t = perf_counter()
    dec = spectral.decompose(T, curve)
    dec.report  # N, Q and the report, which a decomposition computes when first read
    stage["total_s"] = perf_counter() - t
    with tempfile.TemporaryDirectory() as out:
        t = perf_counter()
        spectral.write_bundle(dec, out)
        stage["write_bundle_s"] = perf_counter() - t
    stage["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t = perf_counter()
    for M in (T, dec.N, dec.Q):
        core.matrix_json_bytes(M)
    stage["format_s"] = perf_counter() - t

run(32)
run(int(sys.argv[1]))
extra = {"blas_threads_in_reorder": dict(inside)}
"""

# the end of every child: one JSON line of its `stage` dict, its peak RSS
# (unless `stage` holds one read earlier), BLAS builds and thread counts, and
# its own `extra` dict
CHILD_REPORT = r"""
def blas_build(module):
    return module.__config__.CONFIG["Build Dependencies"]["blas"].get(
        "openblas configuration")

print(json.dumps({
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    **stage,
    "blas_threads": core.openblas_threads(),
    "numpy": np.__version__,
    "scipy": scipy.__version__,
    "numpy_blas": blas_build(np),
    "scipy_blas": blas_build(scipy),
    **extra,
}))
"""

CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
TIMES = ("schur_s", "reorder_s", "total_s", "write_bundle_s", "format_s", "peak_rss_mb")
SIZES = (128, 256, 512, 1024)
REPEATS = 3


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_sha256(root: Path) -> str:
    """sha256 over the name, length and bytes of each `src/specord/*.py`
    of `root`, in name order."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "specord").glob("*.py")):
        data = path.read_bytes()
        h.update(b"%s\0%d\0" % (path.name.encode(), len(data)) + data)
    return h.hexdigest()


def measure(root: Path, n: int, child: str) -> dict:
    """Run `child` (a script ending in CHILD_REPORT) at size n on the
    specord of `root`, in a fresh process with glibc's mmap threshold held
    fixed (see the module docstring); its JSON line."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), **CHILD_ENV}
    proc = subprocess.run([sys.executable, "-c", child + CHILD_REPORT, str(n)], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} n={n}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def sweep(argv, *, doc: str, child: str, sizes, repeats: int, metrics, extra,
          workload: str, out: str, size_name: str = "n") -> int:
    """Measure `child` on every `--side` at each size, sides alternating
    and their order reversed on every other repeat, and write the medians
    of `metrics`, the `extra` keys of the first repeat and the ratios of
    the last side to the first to `--out`; rows name their size
    `size_name`."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--side", action="append", required=True,
                    help="LABEL=ROOT of a checkout; repeat for each side")
    ap.add_argument("--out", default=out)
    args = ap.parse_args(argv)
    sides = {}
    for item in args.side:
        label, _, root = item.partition("=")
        sides[label] = Path(root).resolve()

    runs = {label: {n: [] for n in sizes} for label in sides}
    for n in sizes:
        for rep in range(repeats):
            # odd repeats run the sides in reverse, so a drift of the host
            # within a repeat favours no side
            order = list(sides.items())[:: -1 if rep % 2 else 1]
            for label, root in order:
                row = measure(root, n, child)
                runs[label][n].append(row)
                print(f"{label} {size_name}={n} rep={rep}: "
                      + ", ".join(f"{k} {row[k]:.3f}" for k in metrics), file=sys.stderr)

    result = {
        "workload": workload,
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "repeats": repeats,
        "sides": {},
    }
    for label, root in sides.items():
        rows = []
        for n in sizes:
            reps = runs[label][n]
            rows.append({
                size_name: n,
                **{f"median_{k}": round(statistics.median(r[k] for r in reps), 4)
                   for k in metrics},
                "runs": [{k: round(r[k], 4) for k in metrics} for r in reps],
                **{k: reps[0][k] for k in extra},
            })
        first = runs[label][sizes[0]][0]
        result["sides"][label] = {
            "commit": git_commit(root),
            "source_sha256": source_sha256(root),
            "numpy": first["numpy"], "scipy": first["scipy"],
            "numpy_blas": first["numpy_blas"], "scipy_blas": first["scipy_blas"],
            "rows": rows,
        }
    labels = list(sides)
    if len(labels) >= 2:
        base, new = result["sides"][labels[0]]["rows"], result["sides"][labels[-1]]["rows"]
        result["ratios"] = {
            f"{labels[-1]}/{labels[0]}": [
                {size_name: a[size_name],
                 **{k: round(b[f"median_{k}"] / a[f"median_{k}"], 3) if a[f"median_{k}"]
                    else None for k in metrics}}
                for a, b in zip(base, new)
            ]
        }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="ascii")
    return 0


def main(argv=None) -> int:
    return sweep(argv, doc=__doc__, child=CHILD, sizes=SIZES, repeats=REPEATS,
                 metrics=TIMES, extra=("blas_threads", "blas_threads_in_reorder"),
                 workload="library spectral.decompose and write_bundle of "
                          "ginibre:n=N,seed=1 along hilbert:depth=32, after a "
                          "warm-up of both at n=32",
                 out="BENCH_decompose.json")


if __name__ == "__main__":
    sys.exit(main())
