"""Command-line surface.

Commands
--------
decompose   split a matrix into N + Q along a curve and write the bundle
brown       write the counting measure and log-potential density of a matrix
project     write the invariant-subspace projection selected by a region
verify      run the check suite over the corpus or a single input
curve       tabulate a curve, order a spectrum, or compare two curves
replay      re-run a recorded config.json and reproduce its outputs

Exit codes: 0 success, 1 at least one check failed, 2 invalid input, usage
or a library failure.  Every command computes its outputs before it writes
a file, so a run that exits 2 on invalid input or a library failure leaves
no file behind; every other run writes a config.json into its output
directory, and `replay` reproduces the run (byte-identical output files,
config.json included) from that file alone.  Commands run with every
OpenBLAS library pinned to one thread (`core.single_thread_blas`), so
their outputs do not depend on the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ensembles
from .brown import (
    brown_density_grid,
    empirical_brown,
    write_atoms_csv,
    write_density_csv,
    write_density_pgm,
)
from .core import (
    SchurConvergenceError,
    SchurForm,
    json_int,
    load_matrix,
    matrix_digest,
    matrix_from_dict,
    matrix_json_bytes,
    save_matrix,
    schur_form,
    single_thread_blas,
    write_output,
)
from .curves import parse_curve
from .projections import hs_projection, invariance_leak
from .regions import ambient_square, parse_region
from .spectral import decompose, write_bundle
from .verify import (
    KNOWN_CHECKS,
    reports_to_json,
    run_suite,
    suite_summary,
    verify_decomposition,
)

# stands in for the inlined matrix while json lays out the rest of a config
_MATRIX_SLOT = "@matrix@"
# the integer literal -0: followed by a delimiter, not by a fraction or exponent
_NEG_ZERO_INT = re.compile(r"-0[\s,\]}]")


@dataclass
class RunConfig:
    """Complete, replayable description of one CLI run."""

    command: str
    matrix_path: str | None = None
    matrix_data: dict | None = None
    ensemble: str | None = None
    curve: str = "hilbert:depth=32"
    curve2: str | None = None
    regions: list[str] = field(default_factory=list)
    level: int = 3
    grid: int = 256
    seed: int = 0
    checks: list[str] = field(default_factory=list)
    count: int = 16
    tolerances: dict = field(default_factory=dict)

    def to_json(self, matrix_text: bytes | None = None) -> str:
        """Indented, key-sorted JSON.  `matrix_text`, when given, is inlined
        as `matrix_data`: T's canonical one-line form, `matrix_json_bytes(T)`."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        if matrix_text is None:
            return json.dumps(doc, indent=1, sort_keys=True) + "\n"
        # json indents in pure Python, slowly for n*n pairs, so the matrix
        # replaces a slot after dumps; a JSON string holds no unescaped
        # quote, so the slot's key-value text occurs only as the key's value
        doc["matrix_data"] = _MATRIX_SLOT
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        return text.replace(f'"matrix_data": "{_MATRIX_SLOT}"',
                            '"matrix_data": ' + matrix_text.decode("ascii"), 1)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("config.json must hold a JSON object")
        unknown = set(doc) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"config.json has unknown keys: {sorted(unknown)}")
        if "command" not in doc:
            raise ValueError("config.json has no command")
        if isinstance(doc.get("matrix_data"), dict) and _NEG_ZERO_INT.search(text):
            # json reads -0 as the integer 0: re-read the matrix so that its
            # -0.0 entries keep their sign, and only the matrix
            doc["matrix_data"] = json.loads(text, parse_int=json_int)["matrix_data"]
        return RunConfig(**doc)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _resolve_matrix(cfg: RunConfig) -> np.ndarray:
    if cfg.matrix_data is not None:
        return matrix_from_dict(cfg.matrix_data)
    if cfg.matrix_path is not None:
        return load_matrix(cfg.matrix_path)
    if cfg.ensemble is not None:
        spec = ensembles.parse_ensemble(cfg.ensemble)
        return ensembles.sample(spec)
    raise ValueError("no input: pass --matrix or --ensemble")


def _write_json(path: Path, doc) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    write_output(path, text.encode("ascii"))


def _write_config(cfg: RunConfig, outdir: Path,
                  T: np.ndarray | SchurForm | None = None) -> None:
    """Write config.json; the input T is inlined when it came from a matrix
    file or from a config's matrix_data.  A Schur form of T lends its text."""
    outdir.mkdir(parents=True, exist_ok=True)
    text = None
    if T is not None and (cfg.matrix_data is not None or cfg.matrix_path is not None):
        text = T.json_text if isinstance(T, SchurForm) else matrix_json_bytes(T)
    write_output(outdir / "config.json", cfg.to_json(text).encode("ascii"))


def _run_decompose(cfg: RunConfig, outdir: Path) -> int:
    from .verify import TOL_STRUCTURAL

    T = _resolve_matrix(cfg)
    # compute before writing, so a run that raises leaves no partial bundle;
    # one form gives ||T|| to the curve and the table's form gives T's text
    # to the digests, config.json and T.json
    form = schur_form(T)
    dec = decompose(T, parse_curve(cfg.curve, form.norm), form=form)
    reports = verify_decomposition(
        dec, seed=cfg.seed,
        structural_tol=float(cfg.tolerances.get("structural", TOL_STRUCTURAL)),
    )
    _write_config(cfg, outdir, dec.table.form)
    write_bundle(dec, outdir)
    write_output(outdir / "report.json", reports_to_json(reports).encode("ascii"))
    summary = suite_summary(reports)
    print(f"decompose: {summary['passed']} passed, {summary['failed']} failed, "
          f"{summary['skipped']} skipped -> {outdir}")
    return 0 if summary["failed"] == 0 else 1


def _run_brown(cfg: RunConfig, outdir: Path) -> int:
    T = _resolve_matrix(cfg)
    # compute before writing, so a grid that raises leaves no partial bundle
    measure = empirical_brown(T)
    grid = brown_density_grid(T, g=cfg.grid)
    _write_config(cfg, outdir, T)
    write_atoms_csv(measure, outdir / "atoms.csv")
    write_density_csv(grid, outdir / "density.csv")
    write_density_pgm(grid, outdir / "density.pgm")
    info = {
        "input_digest": matrix_digest(T),
        "atoms": len(measure.atoms),
        "grid": cfg.grid,
        "eps": grid.eps,
        "total_mass": grid.total_mass(),
        "min_mass": grid.min_mass,
        "negative_mass": grid.negative_mass,
    }
    _write_json(outdir / "report.json", info)
    print(f"brown: {len(measure.atoms)} atoms, grid mass "
          f"{grid.total_mass():.6f} -> {outdir}")
    return 0


def _run_project(cfg: RunConfig, outdir: Path) -> int:
    T = _resolve_matrix(cfg)
    if not cfg.regions:
        raise ValueError("project needs at least one --region")
    # one Schur form, with its norm and tolerance, serves every region
    form = schur_form(T)
    square = ambient_square(form.norm)
    projections = [hs_projection(T, parse_region(spec, square), form=form)
                   for spec in cfg.regions]
    _write_config(cfg, outdir, T)
    results = []
    for i, (spec, P) in enumerate(zip(cfg.regions, projections)):
        save_matrix(P.matrix, outdir / f"P{i}.json")
        results.append({
            "region": spec,
            "rank": P.rank,
            "trace": P.rank / P.n,
            "invariance_leak": invariance_leak(T, P.basis),
            "file": f"P{i}.json",
        })
    _write_json(outdir / "report.json", results)
    print(f"project: {len(results)} projection(s) -> {outdir}")
    return 0


def _run_verify(cfg: RunConfig, outdir: Path) -> int:
    if cfg.checks:
        unknown = set(cfg.checks) - set(KNOWN_CHECKS)
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
    T = None
    if cfg.matrix_data is not None or cfg.matrix_path is not None or cfg.ensemble:
        T = _resolve_matrix(cfg)
        matrices = [("input", T)]
    else:
        matrices = ensembles.corpus_matrices()
    from .verify import TOL_DETERMINANT, TOL_STRUCTURAL

    reports = run_suite(
        matrices,
        curve_specs=(cfg.curve,) if cfg.curve2 is None else (cfg.curve, cfg.curve2),
        seed=cfg.seed,
        checks=tuple(cfg.checks) or None,
        n_max=cfg.level if cfg.level > 0 else 6,
        structural_tol=float(cfg.tolerances.get("structural", TOL_STRUCTURAL)),
        det_tol=float(cfg.tolerances.get("determinant", TOL_DETERMINANT)),
    )
    _write_config(cfg, outdir, T)
    write_output(outdir / "report.json", reports_to_json(reports).encode("ascii"))
    summary = suite_summary(reports)
    print(f"verify: {summary['passed']} passed, {summary['failed']} failed, "
          f"{summary['skipped']} skipped -> {outdir}")
    return 0 if summary["failed"] == 0 else 1


def _run_curve(cfg: RunConfig, outdir: Path, mode: str) -> int:
    if mode == "tabulate":
        curve = parse_curve(cfg.curve, radius=1.0)
        count = cfg.count
        if count < 1:
            raise ValueError(f"curve tabulate needs --count >= 1, got {count}")
        _write_config(cfg, outdir)
        lines = ["t,re,im"]
        cells = 1 << (2 * curve.depth)
        for i in range(count + 1):
            z = curve.eval(min(i * cells // count, cells - 1))
            lines.append(f"{i / count:.17g},{z.real:.17g},{z.imag:.17g}")
        write_output(outdir / "curve.csv", ("\n".join(lines) + "\n").encode("ascii"))
        print(f"curve tabulate: {count + 1} samples -> {outdir}")
        return 0
    T = _resolve_matrix(cfg)
    # one Schur form, with its norm, serves every curve and table
    form = schur_form(T)
    curve = parse_curve(cfg.curve, form.norm)
    if mode == "order":
        from .spectral import build_table

        table = build_table(T, curve, form=form)
        doc = table.to_json_dict()
        _write_config(cfg, outdir, T)
        _write_json(outdir / "order.json", doc)
        locs = ", ".join(f"{c.location:.4g}" for c in table.clusters)
        print(f"curve order ({cfg.curve}): {locs}")
        return 0
    if mode == "compare":
        if cfg.curve2 is None:
            raise ValueError("curve compare needs --curve2")
        from .brown import measure_distance

        da = decompose(T, curve, form=form)
        db = decompose(T, parse_curve(cfg.curve2, form.norm), form=form)
        dist = measure_distance(da.normal_measure, db.normal_measure)
        doc = {
            "curve_a": cfg.curve,
            "curve_b": cfg.curve2,
            "normal_parts_equal_measure": dist,
            "normal_part_difference": float(np.linalg.norm(da.N - db.N)),
            "order_a": [f"{c.location.real:.17g}{c.location.imag:+.17g}j"
                        for c in da.table.clusters],
            "order_b": [f"{c.location.real:.17g}{c.location.imag:+.17g}j"
                        for c in db.table.clusters],
        }
        _write_config(cfg, outdir, T)
        _write_json(outdir / "compare.json", doc)
        print(f"curve compare: measure distance {dist:.3e}, operator "
              f"difference {doc['normal_part_difference']:.3e} -> {outdir}")
        return 0
    raise ValueError(f"unknown curve mode {mode!r}")


_RUNNERS = {
    "decompose": _run_decompose,
    "brown": _run_brown,
    "project": _run_project,
    "verify": _run_verify,
}


def _run(cfg: RunConfig, outdir: Path) -> int:
    """Run the command `cfg` records: a name in `_RUNNERS` or `curve:<mode>`.

    A fresh run and the replay of its config.json both come through here.
    """
    command = cfg.command
    if command.startswith("curve:"):
        return _run_curve(cfg, outdir, command.split(":", 1)[1])
    if command not in _RUNNERS:
        raise ValueError(f"config carries unknown command {command!r}")
    return _RUNNERS[command](cfg, outdir)


def _add_common(p: argparse.ArgumentParser, need_out: bool = True) -> None:
    p.add_argument("--matrix", help="path to a matrix JSON file")
    p.add_argument("--ensemble", help="ensemble spec, e.g. ginibre:n=32,seed=7")
    p.add_argument("--curve", default="hilbert:depth=32",
                   help="curve spec: hilbert:depth=32, morton:depth=32, lex, radial")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=int, default=3,
                   help="dyadic grid level (verify: deepest level checked)")
    p.add_argument("--tol-structural", type=float, default=None,
                   help="override the structural identity tolerance (default 1e-9)")
    p.add_argument("--tol-determinant", type=float, default=None,
                   help="override the determinant identity tolerance (default 1e-10)")
    p.add_argument("--out", required=need_out, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="specord",
                                 description="spectral orderings and decompositions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="split T into N + Q along a curve")
    _add_common(p)

    p = sub.add_parser("brown", help="counting measure and density heatmap")
    _add_common(p)
    p.add_argument("--grid", type=int, default=256)

    p = sub.add_parser("project", help="invariant projection for region(s)")
    _add_common(p)
    p.add_argument("--region", action="append", default=[],
                   help="region spec, repeatable: disk:cx,cy,r | halfplane:a,b,c"
                        " | cells:n=3,k=1,5,9 with & | ! combinators")

    p = sub.add_parser("verify", help="run the check suite")
    _add_common(p, need_out=False)
    p.add_argument("--curve2", help="second curve spec for the suite")
    p.add_argument("--check", action="append", default=[],
                   help=f"restrict to check ids; known: {', '.join(KNOWN_CHECKS)}")
    p.add_argument("--list-corpus", action="store_true",
                   help="print the corpus manifest and exit")

    p = sub.add_parser("curve", help="tabulate/order/compare curves")
    p.add_argument("mode", choices=["tabulate", "order", "compare"])
    _add_common(p)
    p.add_argument("--curve2", help="second curve for compare")
    p.add_argument("--count", type=int, default=16,
                   help="samples for tabulate")

    p = sub.add_parser("replay", help="re-run a recorded config.json")
    p.add_argument("config", help="path to config.json")
    p.add_argument("--out", required=True)
    return ap


@single_thread_blas()
def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify" and args.list_corpus:
            print(ensembles.corpus_manifest_json(), end="")
            return 0
        if args.out is None:
            return _fail("the following arguments are required: --out")
        outdir = Path(args.out)
        if args.command == "replay":
            return _run(RunConfig.from_json(Path(args.config).read_text(encoding="ascii")),
                        outdir)
        tolerances = {}
        if getattr(args, "tol_structural", None) is not None:
            tolerances["structural"] = args.tol_structural
        if getattr(args, "tol_determinant", None) is not None:
            tolerances["determinant"] = args.tol_determinant
        cfg = RunConfig(
            command=args.command if args.command != "curve" else f"curve:{args.mode}",
            matrix_path=getattr(args, "matrix", None),
            ensemble=getattr(args, "ensemble", None),
            curve=getattr(args, "curve", "hilbert:depth=32"),
            curve2=getattr(args, "curve2", None),
            regions=list(getattr(args, "region", []) or []),
            seed=getattr(args, "seed", 0),
            checks=list(getattr(args, "check", []) or []),
            grid=getattr(args, "grid", 256),
            count=getattr(args, "count", 16),
            level=getattr(args, "level", 3),
            tolerances=tolerances,
        )
        return _run(cfg, outdir)
    except (ValueError, OSError, json.JSONDecodeError, SchurConvergenceError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
