"""The benchmark's workloads: inputs, ops and output checks.

Each workload is one closed loop with one client: the next op starts when
the previous one has finished.  A cycle is one pass over the workload's
input list; runs measure whole cycles, so every run of a workload does the
same mix of work.  Inputs are made from the benchmark seed only.

`tiny` selects the small inputs of the self-test, which runs the same
ops, checks and traced path.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from pathlib import Path

import numpy as np

from specord import brown, cli, core, curves, ensembles, spectral, verify
from specord.regions import cell_box


class CheckFailed(Exception):
    """An op ran but its output failed the workload's check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.inputs: list = []
        self.matrices: list[tuple] = []  # (label, matrix, ...) per input matrix

    def make_inputs(self) -> None:
        raise NotImplementedError

    def digests(self) -> list[dict]:
        """Label, size and `matrix_digest` of every input matrix."""
        return [{"input": label, "n": int(T.shape[0]), "digest": core.matrix_digest(T)}
                for label, T, *_ in self.matrices]

    def warmup(self) -> None:
        raise NotImplementedError

    @property
    def cycle(self) -> int:
        return len(self.inputs)

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError


class DecomposeN256(Workload):
    """`spectral.decompose` then `spectral.write_bundle` on one n=256 matrix."""

    name = "decompose-n256"
    ENSEMBLES = (("ginibre", ()), ("elliptic", (("rho", 0.5),)),
                 ("normal_plus_nilpotent", (("scale", 0.5),)))
    CURVES = ("hilbert:depth=32", "morton:depth=32", "lex")

    def make_inputs(self):
        n = 16 if self.tiny else 256
        for kind, params in self.ENSEMBLES:
            spec = ensembles.EnsembleSpec(kind=kind, n=n, seed=self.seed, params=params)
            T = ensembles.sample(spec)
            self.matrices.append((spec.spec_string(), T, core.operator_norm(T)))
        self.inputs = [(m, c) for m in range(len(self.matrices)) for c in self.CURVES]
        warm = ensembles.EnsembleSpec(kind="ginibre", n=16 if self.tiny else 64,
                                      seed=self.seed)
        self.warm_matrix = ensembles.sample(warm)

    def _run(self, T, curve_spec):
        dec = spectral.decompose(T, curves.curve_for_matrix(curve_spec, T))
        spectral.write_bundle(dec, self.workdir / "bundle")
        return dec

    def warmup(self):
        self._run(self.warm_matrix, self.CURVES[0])

    def op(self, i):
        m, curve_spec = self.inputs[i]
        return self._run(self.matrices[m][1], curve_spec)

    def check(self, i, dec):
        T, norm = self.matrices[self.inputs[i][0]][1:]
        r = dec.report
        scale = max(1.0, norm)
        _require(r["normality_defect"] <= 1e-9 * r["normal_fro_sq"], "normality_defect")
        _require(r["measure_distance"] <= 1e-8, "measure_distance")
        _require(r["quasinilpotent_diag"] <= 1e-8 * scale, "quasinilpotent_diag")
        _require(r["quasinilpotent_lower"] <= 1e-9 * scale, "quasinilpotent_lower")
        _require(not np.any(T - dec.N - dec.Q), "T - N - Q != 0")


class VerifyCorpus(Workload):
    """`verify.run_suite` on one corpus entry, with the `specord verify` defaults."""

    name = "verify-corpus"
    WARM = "ginibre:n=16,seed=6"
    TINY = ("ginibre:n=2,seed=1", "ginibre:n=16,seed=6")

    def make_inputs(self):
        corpus = ensembles.corpus_matrices()
        if self.tiny:
            corpus = [entry for entry in corpus if entry[0] in self.TINY]
        self.warm_entry = next(entry for entry in corpus if entry[0] == self.WARM)
        self.matrices = corpus
        # the corpus is fixed by the library; the seed sets the order of a pass
        self.inputs = list(corpus)
        random.Random(self.seed).shuffle(self.inputs)

    @staticmethod
    def _run(entry):
        # the defaults of `specord verify`: --curve hilbert:depth=32, --seed 0,
        # --level 3 (n_max=3), measure_trials=20
        return verify.run_suite([entry], curve_specs=("hilbert:depth=32",), seed=0,
                                n_max=3)

    def warmup(self):
        self._run(self.warm_entry)

    def op(self, i):
        return verify.suite_summary(self._run(self.inputs[i]))

    def check(self, i, summary):
        _require(summary["failed"] == 0, f"{summary['failed']} failed checks")


class BrownG256(Workload):
    """What `specord brown --grid 256` computes for a ginibre n=64 matrix."""

    name = "brown-g256"

    def make_inputs(self):
        # criterion 7 holds at n=64 even on the coarse self-test grid
        self.g = 32 if self.tiny else 256
        spec = ensembles.EnsembleSpec(kind="ginibre", n=64, seed=self.seed)
        self.T = ensembles.sample(spec)
        self.matrices = [(spec.spec_string(), self.T)]
        self.eigs = np.linalg.eigvals(self.T)
        self.inputs = [self.g]

    def _run(self, g):
        out = self.workdir / "brown"
        out.mkdir(parents=True, exist_ok=True)
        measure = brown.empirical_brown(self.T)
        brown.write_atoms_csv(measure, out / "atoms.csv")
        grid = brown.brown_density_grid(self.T, g=g)
        brown.write_density_csv(grid, out / "density.csv")
        brown.write_density_pgm(grid, out / "density.pgm")
        return grid

    def warmup(self):
        self._run(32)

    def op(self, i):
        return self._run(self.inputs[i])

    def check(self, i, grid):
        # criterion 7: level-3 cell masses match the eigenvalue counts
        n = self.T.shape[0]
        e = self.eigs
        block = self.g // 8
        worst = 0.0
        for k in range(1, 65):
            x0, x1, y0, y1 = cell_box(grid.square, 3, k)
            count = np.sum((e.real >= x0) & (e.real < x1)
                           & (e.imag > y0) & (e.imag <= y1)) / n
            bi, bj = divmod(k - 1, 8)
            mass = grid.masses[bi * block:(bi + 1) * block,
                               bj * block:(bj + 1) * block].sum()
            worst = max(worst, abs(float(mass) - float(count)))
        _require(worst <= 0.05, f"level-3 cell deviation {worst:.4f} > 0.05")


class CliMix(Workload):
    """One in-process `cli.main` command from a fixed cycle of five."""

    name = "cli-mix"

    def make_inputs(self):
        small, large = (8, 16) if self.tiny else (32, 128)
        for n in (small, large):
            spec = ensembles.EnsembleSpec(kind="ginibre", n=n, seed=self.seed)
            T = ensembles.sample(spec)
            path = self.workdir / f"T{n}.json"
            core.save_matrix(T, path)
            self.matrices.append((spec.spec_string(), T, str(path)))
        w = self.workdir
        a, b = self.matrices[0][2], self.matrices[1][2]
        self.inputs = [
            ["decompose", "--matrix", a, "--curve", "hilbert:depth=32",
             "--out", str(w / "decompose")],
            ["project", "--matrix", b, "--region", "disk:0,0,0.5",
             "--region", "halfplane:1,0,0", "--region", "disk:0,0,1&!disk:0,0,0.5",
             "--out", str(w / "project")],
            ["curve", "order", "--matrix", b, "--curve", "hilbert:depth=32",
             "--out", str(w / "order")],
            ["curve", "compare", "--matrix", b, "--curve", "hilbert:depth=32",
             "--curve2", "morton:depth=32", "--out", str(w / "compare")],
            ["replay", str(w / "decompose" / "config.json"), "--out", str(w / "replay")],
        ]

    @staticmethod
    def _run(argv):
        # the CLI prints a status line per command; keep the benchmark's
        # stdout for its own result lines
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warmup(self):
        argv = list(self.inputs[0])
        argv[-1] = str(self.workdir / "warmup")
        _require(self._run(argv) == 0, "warm-up decompose exited nonzero")

    def op(self, i):
        return self._run(self.inputs[i])

    def check(self, i, code):
        _require(code == 0, f"{self.inputs[i][0]} exited {code}")
        if self.inputs[i][0] == "replay":
            a = (self.workdir / "decompose" / "report.json").read_bytes()
            b = (self.workdir / "replay" / "report.json").read_bytes()
            _require(a == b, "replayed report.json differs")


WORKLOADS = {w.name: w for w in (DecomposeN256, VerifyCorpus, BrownG256, CliMix)}


def make(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    workdir = Path(workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](seed, workdir, tiny)
