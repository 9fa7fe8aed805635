"""g-sweep of the library density grid, written to BENCH_brown_memory.json.

    python3 tools/bench_brown.py --side parent=../old --side change=. \
        --out BENCH_brown_memory.json

Sides, child processes (with glibc's mmap threshold held fixed), repeats
and the file layout are those of `tools/bench_decompose.py`, whose helpers
this tool runs; rows are named by the grid resolution g.  A child samples
ginibre n=64 with seed 1 and, after a warm-up of the same steps at g = 32,
as `specord brown` does:

* `grid_s`: one `brown.brown_density_grid(T, g=g)`;
* `writers_s`: `write_density_csv` and `write_density_pgm` of that grid
  into a temporary directory;
* `peak_rss_mb`: the child's peak resident set at the end;
* `blas_threads`: `core.openblas_threads()` outside the grid.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_decompose as bench  # noqa: E402

CHILD = r"""
import json, resource, sys, tempfile
from pathlib import Path
from time import perf_counter
import numpy as np, scipy
from specord import brown, core
from specord.ensembles import parse_ensemble, sample

T = sample(parse_ensemble("ginibre:n=64,seed=1"))
stage = {}

def run(g):
    t = perf_counter()
    grid = brown.brown_density_grid(T, g=g)
    stage["grid_s"] = perf_counter() - t
    with tempfile.TemporaryDirectory() as out:
        t = perf_counter()
        brown.write_density_csv(grid, Path(out) / "density.csv")
        brown.write_density_pgm(grid, Path(out) / "density.pgm")
        stage["writers_s"] = perf_counter() - t

run(32)
run(int(sys.argv[1]))
extra = {}
"""

METRICS = ("grid_s", "writers_s", "peak_rss_mb")
SIZES = (256, 512, 1024)
REPEATS = 3


def main(argv=None) -> int:
    return bench.sweep(argv, doc=__doc__, child=CHILD, sizes=SIZES, repeats=REPEATS,
                       metrics=METRICS, extra=("blas_threads",),
                       workload="library brown_density_grid of ginibre:n=64,seed=1 at "
                                "resolution g, then write_density_csv and "
                                "write_density_pgm, after a warm-up of the same at g=32",
                       out="BENCH_brown_memory.json", size_name="g")


if __name__ == "__main__":
    sys.exit(main())
