"""In-memory span recorder for the traced benchmark run.

A span is recorded around every call into one of specord's layers.  The
recorder replaces each function where its caller looks it up: a module
global such as `specord.spectral.schur_form`, or a method on a class such
as `SpectralTable.spectral_projection`.  Nothing inside `src/specord`
changes, and `uninstall` puts every original back.

Each span holds its name, start and end (`perf_counter_ns`), the index of
its parent span and the id of the benchmark op it belongs to.  A layer's
self time is a span's duration minus the durations of its direct children;
the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter_ns

ROOT = "bench.op"

# layer -> the places its callers look it up ("module" or "module:Class")
LAYERS = {
    "core.schur_form": ["specord.spectral", "specord.projections"],
    "core.reorder": ["specord.spectral", "specord.projections", "specord.core"],
    "curves.min_preimage": ["specord.curves:OrderingCurve", "specord.curves:RadialCurve"],
    "regions.decide_cluster": ["specord.spectral", "specord.projections"],
    "spectral.build_table": ["specord.spectral", "specord.verify"],
    "spectral.decompose": ["specord.spectral", "specord.verify", "specord.cli"],
    "spectral.spectral_projection": ["specord.spectral:SpectralTable"],
    "spectral.expectation": ["specord.spectral:SpectralTable"],
    "spectral.normal_part": ["specord.spectral:SpectralTable"],
    "spectral.write_bundle": ["specord.spectral", "specord.cli"],
    "projections.projection_from_columns": ["specord.spectral", "specord.projections"],
    "projections.hs_projection": ["specord.projections", "specord.cli"],
    "projections.hyperinvariance_check": ["specord.verify"],
    "brown.empirical_brown": ["specord.brown", "specord.spectral", "specord.verify",
                              "specord.cli"],
    "brown.measure_distance": ["specord.brown", "specord.spectral", "specord.verify"],
    "brown.brown_density_grid": ["specord.brown", "specord.cli"],
    "verify.run_suite": ["specord.verify", "specord.cli"],
    "verify.verify_decomposition": ["specord.verify", "specord.cli"],
    "verify.verify_measure_laws": ["specord.verify"],
    "verify.verify_convergence": ["specord.verify"],
    "verify.verify_block_split": ["specord.verify"],
    "cli.main": ["specord.cli"],
    "ensembles.sample": ["specord.ensembles"],
}

# the attribute name behind each layer, where it differs from the last part
_ATTR = {"core.reorder": "_reorder_by_keys"}

_VERIFY_LAYERS = ("verify.verify_decomposition", "verify.verify_measure_laws",
                  "verify.verify_convergence", "verify.verify_block_split")


def grid_flop(n: int, points: int) -> float:
    """Nominal real flops of `brown_density_grid`, computed from array sizes.

    Per grid point: forming (T - l)*(T - l) + eps^2 from T*T takes two
    complex scaled-matrix subtractions (16 n^2), and the complex Cholesky
    factorization n^3/3 complex multiply-adds (8 n^3 / 3).
    """
    return points * (8.0 * n**3 / 3.0 + 16.0 * n * n)


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tables: set[tuple] = set()
        self._command = None
        self._notes = {
            "projections.projection_from_columns": self._note_dense,
            "brown.brown_density_grid": self._note_grid,
            "spectral.build_table": self._note_table,
            "spectral.decompose": self._note_decompose,
            **{layer: self._note_checks for layer in _VERIFY_LAYERS},
        }

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op under a root span."""
        self.op = op_id
        rec = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(rec)
            self.op = None

    def _wrap(self, name: str, fn):
        note = self._notes.get(name)
        before = self._note_command if name == "cli.main" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    # -- counters computed at the layer boundary ------------------------------

    def _note_dense(self, args, kwargs, result):
        n = kwargs["n"] if "n" in kwargs else args[1]
        self.counters["projections.dense_bytes"] += n * n * 16

    def _note_grid(self, args, kwargs, result):
        points = (result.resolution + 2) ** 2
        self.counters["brown.grid_points"] += points
        self.counters["brown.grid_gflop"] += grid_flop(args[0].shape[0], points) / 1e9

    def _note_table(self, args, kwargs, result):
        self._tables.add((hashlib.sha1(result.matrix.tobytes()).hexdigest(),
                          result.curve.spec_string(), repr(result.curve.square)))

    def _note_decompose(self, args, kwargs, result):
        if self._command in ("decompose", "replay"):
            self.counters["cli.decompose_calls"] += 1

    def _note_checks(self, args, kwargs, result):
        for rep in result:
            if rep.verdict == "fail":
                self.counters["verify.checks_failed"] += 1
            elif rep.verdict == "skip":
                self.counters["verify.checks_skipped"] += 1

    def _note_command(self, args, kwargs):
        self._command = args[0][0]
        if self._command in ("decompose", "replay"):
            self.counters["cli.decompose_commands"] += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, owners in LAYERS.items():
            attr = _ATTR.get(layer, layer.rsplit(".", 1)[1])
            for owner_path in owners:
                mod_name, _, cls_name = owner_path.partition(":")
                owner = importlib.import_module(mod_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, total duration and self time (seconds)."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - child_ns[i]) / 1e9
        return dict(out)

    def per_layer_metrics(self, traced_op_mean_s: float,
                          untraced_op_mean_s: float) -> dict[str, float]:
        """Calls and self time of every layer, and the computed counters.

        BENCHMARK.json lists the ones a traced run reports.

        `trace.ops_per_s_ratio` is traced throughput over untraced
        throughput, from the mean op time of one cycle of each.
        """
        tot = self.layer_totals()

        def calls(layer):
            return tot.get(layer, {}).get("calls", 0)

        def self_s(layer):
            return tot.get(layer, {}).get("self_s", 0.0)

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls(layer)
            m[f"{layer}.s"] = self_s(layer)
        builds = calls("spectral.build_table")
        m["spectral.build_table.reuse"] = len(self._tables) / builds if builds else 1.0
        m["projections.dense_bytes"] = self.counters["projections.dense_bytes"]
        m["brown.grid_points"] = self.counters["brown.grid_points"]
        m["brown.grid_gflop"] = self.counters["brown.grid_gflop"]
        m["verify.checks_failed"] = self.counters["verify.checks_failed"]
        m["verify.checks_skipped"] = self.counters["verify.checks_skipped"]
        commands = self.counters["cli.decompose_commands"]
        m["cli.decompose_per_command"] = (
            self.counters["cli.decompose_calls"] / commands if commands else 0.0)
        wall = tot.get(ROOT, {}).get("s", 0.0)
        m["bench.unattributed.s"] = self_s(ROOT)
        m["trace.coverage"] = (wall - self_s(ROOT)) / wall if wall else 0.0
        m["trace.ops_per_s_ratio"] = untraced_op_mean_s / traced_op_mean_s
        return m
