"""Benchmark of specord: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; specord is imported from its `src`.  Each
workload runs in a child process (`worker.py`) as a closed loop with one
client.  With `--trace 0` the child measures whole input cycles until at
least S seconds are measured, and the end-to-end metrics are printed;
`setup_s` is the median over SETUP_REPEATS fresh processes of the time
from process start to the first timed op.  With `--trace 1` the child runs
one untraced and one traced cycle and the per-layer metrics are printed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the details:
environment, input digests, the op tail latency, fail_frac and the
per-span totals of a traced run.  Workloads and metrics are described in
BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PREFIX = "@perfbench "
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
# glibc's default 128 KiB mmap threshold, held fixed: without it the
# threshold rises to the largest array freed so far, freed n x n arrays stay
# in the heap, and peak RSS varies by 10% from run to run with that history
# instead of following the live data.
WORKER_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def git_commit(root: Path) -> str | None:
    """The commit checked out at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode: str, workdir: Path, deadline: float) -> tuple[float, dict | None]:
    """Run worker.py; return (seconds from spawn to its ready line, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--workdir", str(workdir)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                sys.stderr.write(line)
                continue
            event = json.loads(line[len(PREFIX):])
            if event["event"] == "ready":
                ready = perf_counter() - start
            elif event["event"] == "result":
                result = event
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise ChildFailed(f"worker --mode {mode} exited with code {code}")
    return ready, result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "specord" / "__init__.py").is_file():
        print(f"perfbench: no specord sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    scratch = ROOT / ".perfbench-tmp"
    workdir = scratch / f"{args.workload}-{args.seed}"
    try:
        if args.trace:
            _, result = run_child(args, "trace", workdir / "trace", deadline)
            setups = []
        else:
            first, result = run_child(args, "run", workdir / "run", deadline)
            setups = [first] + [run_child(args, "setup", workdir / f"setup{k}", deadline)[0]
                                for k in range(1, SETUP_REPEATS)]
    except ChildFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()

    attempted, failed = result["attempted"], result["failed"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "environment": result["environment"],
        "inputs": result["inputs"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        details.update({k: result[k] for k in ("untraced", "traced", "spans")})
        values = result["per_layer"]
    else:
        details.update({k: result[k] for k in (
            "cycles", "fail_frac", "op_p50_s", "op_mean_s", "op_tail_s", "failures",
            "latencies_s")})
        details["setup_samples_s"] = setups
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": result["ops_per_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
