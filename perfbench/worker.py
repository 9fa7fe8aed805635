"""Run one workload in this process and report to the parent on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --workdir DIR

MODE is `setup` (set up, then exit), `run` (set up, then measure whole
cycles until at least S seconds are measured) or `trace` (set up, then
one untraced and one traced cycle).  Lines meant for the parent start with
`@perfbench ` and carry one JSON object; `run.py` starts this program and
reads them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

PREFIX = "@perfbench "
SRC = Path(__file__).resolve().parent.parent / "src"


def emit(event: str, **doc) -> None:
    print(PREFIX + json.dumps({"event": event, **doc}), flush=True)


def import_specord():
    """Import specord from this checkout's `src`, never from elsewhere."""
    sys.dont_write_bytecode = True  # leave the checkout as it was found
    sys.path.insert(0, str(SRC))
    import specord

    if Path(specord.__file__).resolve().parent != SRC / "specord":
        raise ImportError(f"specord imported from {specord.__file__}, not {SRC}")
    return specord


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    def blas_build(mod):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_build(numpy),
        "scipy_blas": blas_build(scipy),
        "blas_threads": blas_threads(),
        "cpu_model": cpu_model(),
        "nproc": nproc(),
    }


def refuse_oversubscription(env: dict) -> str | None:
    """Why BLAS would run more threads than this process has cores, if so."""
    threads = dict(env["blas_threads"])
    if not threads:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            if os.environ.get(var, "").isdigit():
                threads[var] = int(os.environ[var])
    over = {k: v for k, v in threads.items() if v > env["nproc"]}
    if over:
        return f"BLAS threads {over} exceed nproc={env['nproc']}"
    return None


def run_one(wl, i: int, recorder=None) -> tuple[float, str | None]:
    """One op and its output check: (op seconds, failure or None)."""
    start = perf_counter()
    try:
        out = recorder.run_op(i, wl.op, i) if recorder else wl.op(i)
    except Exception:  # a failed op is counted and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - start, f"op {i} raised"
    elapsed = perf_counter() - start
    try:
        wl.check(i, out)
    except Exception as exc:  # likewise for a failed output check
        print(f"op {i} failed its check: {exc!r}", file=sys.stderr)
        return elapsed, f"op {i}: {exc}"
    return elapsed, None


def run_cycles(wl, seconds: float, recorder=None):
    """Whole cycles until at least `seconds` of them have been measured
    (one cycle when `seconds` is 0)."""
    latencies: list[float] = []
    failures: list[str] = []
    start = perf_counter()
    cycles = 0
    while True:
        for i in range(wl.cycle):
            dt, failure = run_one(wl, i, recorder)
            latencies.append(dt)
            if failure:
                failures.append(failure)
        cycles += 1
        if perf_counter() - start >= seconds:
            return {"cycles": cycles, "latencies": latencies, "failures": failures}


def summarize(loop: dict) -> dict:
    lat = loop["latencies"]
    attempted = len(lat)
    failed = len(loop["failures"])
    doc = {
        "cycles": loop["cycles"],
        "attempted": attempted,
        "failed": failed,
        "failures": loop["failures"][:20],
        "fail_frac": failed / attempted,
        "ops_per_s": (attempted - failed) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_mean_s": sum(lat) / attempted,
        "op_tail_s": None,
        "latencies_s": lat,
    }
    if attempted >= 11:
        # the highest percentile with at least 10 samples beyond it
        doc["op_tail_s"] = {"value": sorted(lat)[attempted - 11],
                            "percentile": 100.0 * (attempted - 10) / attempted,
                            "beyond": 10, "samples": attempted}
    return doc


def set_up(wl, recorder=None) -> None:
    """Make the inputs (traced when a recorder is given) and warm up."""
    if recorder:
        recorder.install()
    try:
        wl.make_inputs()
    finally:
        if recorder:
            recorder.uninstall()
    wl.warmup()


def traced_cycles(wl, recorder) -> dict:
    """One untraced and one traced cycle, and the per-layer metrics."""
    untraced = summarize(run_cycles(wl, 0.0))
    recorder.install()
    try:
        traced = summarize(run_cycles(wl, 0.0, recorder=recorder))
    finally:
        recorder.uninstall()
    return {
        "untraced": untraced,
        "traced": traced,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "per_layer": recorder.per_layer_metrics(traced["op_mean_s"], untraced["op_mean_s"]),
        "spans": recorder.layer_totals(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import_specord()
    env = environment()
    refusal = refuse_oversubscription(env)
    if refusal:
        print(f"perfbench: refusing to run: {refusal}", file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.make(args.workload, args.seed, Path(args.workdir))
    recorder = spans.Recorder() if args.mode == "trace" else None
    set_up(wl, recorder)
    emit("ready")
    if args.mode == "setup":
        return 0

    doc = {"environment": env, "inputs": wl.digests()}
    if args.mode == "run":
        doc.update(summarize(run_cycles(wl, args.seconds)))
    else:
        doc.update(traced_cycles(wl, recorder))
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit("result", **doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
