"""n-sweep of the CLI `specord decompose`, written to a BENCH_cli_*.json.

    python3 tools/bench_cli_decompose.py --side parent=../old --side change=. \
        --out BENCH_cli_compression.json

Sides, child processes, repeats and the file layout are those of
`tools/bench_decompose.py`, whose helpers this tool runs.  A child runs
`cli.main(["decompose", "--ensemble", "ginibre:n=N,seed=1", ...])` into a
temporary directory, after a warm-up of the same command at n = 32; the
command factors T, decomposes it along `hilbert:depth=32`, runs the
`verify_decomposition` self-check and writes the bundle.  Stages are read
by wrapping the names the CLI and the verifier call:

* `wall_s`: the whole command;
* `verify_s`: `verify_decomposition`.  A decomposition computes N, Q and
  its report when first read, so the child reads `report` as soon as the
  CLI's `decompose` returns, and `verify_s` holds the self-check alone;
* `hyperinvariance_s`: `hyperinvariance_check`, inside `verify_s`;
* `eigvals_s`: `np.linalg.eigvals` called from `verify_decomposition` or
  from `_compression_snaps`, through which the self-check tests every
  compression spectrum it solves for: two per flag, and at most five
  commutant-support corners;
* `compression_s`: the time in `_compression_snaps` and in the disc
  certificate that decides most compression spectra without an eigensolve
  (`_certified_flags`, `_disc_radii`, `_disc_snaps`, `_block_norms`),
  counted once when one calls another.  Each is wrapped in `verify` and
  in `core`, wherever the side defines or imports it, and a side with
  none of them stops the child.  The form's eigenvector matrices V and
  W = V^-1 are computed when `_disc_radii` first reads them, so this
  stage holds their `ztrevc` and `ztrtri`, and `hyperinvariance_s` reads
  them from the form;
* `hyperinvariance_share`, `eigvals_share`: those two over `verify_s`;
* `peak_rss_mb`: the child's peak resident set;
* `blas_threads`: `core.openblas_threads()` outside the command, and
  `blas_threads_in_verify` as seen inside `verify_decomposition`.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_decompose as bench  # noqa: E402

CHILD = r"""
import json, resource, sys, tempfile
from time import perf_counter
import numpy as np, scipy
from specord import cli, core, verify

stage = {"verify_s": 0.0, "hyperinvariance_s": 0.0, "eigvals_s": 0.0, "compression_s": 0.0}
inside = {}
depth = [0]

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

def outermost(name, fn):
    def wrapper(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] += 1
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            stage[name] += perf_counter() - t
    return wrapper

cli.verify_decomposition = timed("verify_s", cli.verify_decomposition, probe=True)
decompose = cli.decompose

def decompose_and_report(*args, **kwargs):
    dec = decompose(*args, **kwargs)
    dec.report  # computed when first read: here, not inside the self-check
    return dec

cli.decompose = decompose_and_report
wrapped = [(module, name) for module in (verify, core)
           for name in ("_compression_snaps", "_certified_flags", "_disc_radii",
                        "_disc_snaps", "_block_norms") if hasattr(module, name)]
if not wrapped:
    sys.exit("no compression-stage function found in specord.verify or specord.core")
for module, name in wrapped:
    setattr(module, name, outermost("compression_s", getattr(module, name)))
verify.hyperinvariance_check = timed("hyperinvariance_s", verify.hyperinvariance_check)
eigvals, eigvals_timed = np.linalg.eigvals, timed("eigvals_s", np.linalg.eigvals)
SELF_CHECK_CALLERS = ("verify_decomposition", "_compression_snaps")

def eigvals_by_caller(*args, **kwargs):
    caller = sys._getframe(1).f_code.co_name
    fn = eigvals_timed if caller in SELF_CHECK_CALLERS else eigvals
    return fn(*args, **kwargs)

np.linalg.eigvals = eigvals_by_caller

def run(n):
    for key in list(stage):
        stage[key] = 0.0
    with tempfile.TemporaryDirectory() as out:
        t = perf_counter()
        code = cli.main(["decompose", "--ensemble", f"ginibre:n={n},seed=1",
                         "--out", out])
        stage["wall_s"] = perf_counter() - t
    assert code == 0, code
    stage["hyperinvariance_share"] = stage["hyperinvariance_s"] / stage["verify_s"]
    stage["eigvals_share"] = stage["eigvals_s"] / stage["verify_s"]

run(32)
run(int(sys.argv[1]))
extra = {"blas_threads_in_verify": dict(inside)}
"""

METRICS = ("wall_s", "verify_s", "hyperinvariance_s", "eigvals_s", "compression_s",
           "hyperinvariance_share", "eigvals_share", "peak_rss_mb")
SIZES = (64, 128, 256)
REPEATS = 3


def main(argv=None) -> int:
    return bench.sweep(argv, doc=__doc__, child=CHILD, sizes=SIZES, repeats=REPEATS,
                       metrics=METRICS, extra=("blas_threads", "blas_threads_in_verify"),
                       workload="CLI specord decompose --ensemble ginibre:n=N,seed=1 "
                                "(hilbert:depth=32, self-check included), after a "
                                "warm-up of the same command at n=32",
                       out="BENCH_cli_decompose.json")


if __name__ == "__main__":
    sys.exit(main())
