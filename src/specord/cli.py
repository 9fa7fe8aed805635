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
import types
import typing
from dataclasses import dataclass, field, fields
from hashlib import sha256
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
        # earlier versions record an empty "tolerances" in every config;
        # check bounds are constants, so no other value replays
        legacy = doc.pop("tolerances", {})
        if legacy != {}:
            raise ValueError(f"config.json sets tolerances {json.dumps(legacy)}; "
                             "check bounds are fixed")
        unknown = set(doc) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"config.json has unknown keys: {sorted(unknown)}")
        if "command" not in doc:
            raise ValueError("config.json has no command")
        hints = typing.get_type_hints(RunConfig)
        for f in fields(RunConfig):
            if f.name in doc and not _has_json_type(doc[f.name], hints[f.name]):
                raise ValueError(f"config.json field {f.name!r} must be {f.type}, "
                                 f"got {type(doc[f.name]).__name__}")
        # a field the command does not read may only hold its default, as
        # in every config.json the CLI writes
        read = _fields_read_by(doc["command"])
        if read is not None:
            default = RunConfig(command=doc["command"])
            unread = sorted(name for name in set(doc) - read
                            if doc[name] != getattr(default, name))
            if unread:
                raise ValueError(f"config.json sets {unread}, which command "
                                 f"{doc['command']!r} does not read")
        if isinstance(doc.get("matrix_data"), dict) and _NEG_ZERO_INT.search(text):
            # json reads -0 as the integer 0: re-read the matrix so that its
            # -0.0 entries keep their sign, and only the matrix
            doc["matrix_data"] = json.loads(text, parse_int=json_int)["matrix_data"]
        return RunConfig(**doc)


def _has_json_type(value, hint) -> bool:
    """Whether a value read from JSON has the type of a `RunConfig` field:
    a JSON true or false is not an int."""
    if isinstance(hint, types.UnionType):
        return any(_has_json_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_json_type(v, item) for v in value)
    if hint is int:
        return type(value) is int
    return isinstance(value, hint)


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
                  T: np.ndarray | SchurForm | bytes | None = None) -> None:
    """Write config.json; the input T is inlined when it came from a matrix
    file or from a config's matrix_data.  A Schur form of T lends its text,
    and bytes are taken as T's text itself."""
    outdir.mkdir(parents=True, exist_ok=True)
    text = None
    if T is not None and (cfg.matrix_data is not None or cfg.matrix_path is not None):
        text = (T if isinstance(T, bytes) else
                T.json_text if isinstance(T, SchurForm) else matrix_json_bytes(T))
    write_output(outdir / "config.json", cfg.to_json(text).encode("ascii"))


def _run_decompose(cfg: RunConfig, outdir: Path) -> int:
    T = _resolve_matrix(cfg)
    # compute before writing, so a run that raises leaves no partial bundle;
    # one form gives ||T|| to the curve and the table's form gives T's text
    # to the digests, config.json and T.json
    form = schur_form(T)
    table = decompose(form, parse_curve(cfg.curve, form.norm))
    reports = verify_decomposition(table, seed=cfg.seed)
    _write_config(cfg, outdir, table.form)
    write_bundle(table, outdir)
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
    text = matrix_json_bytes(T)  # T's one text: config.json and the digest
    _write_config(cfg, outdir, text)
    write_atoms_csv(measure, outdir / "atoms.csv")
    write_density_csv(grid, outdir / "density.csv")
    write_density_pgm(grid, outdir / "density.pgm")
    info = {
        "input_digest": sha256(text).hexdigest(),
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
    projections = [hs_projection(form, parse_region(spec, square))
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
    T = None
    if cfg.matrix_data is not None or cfg.matrix_path is not None or cfg.ensemble:
        T = _resolve_matrix(cfg)
        matrices = [("input", T)]
    else:
        matrices = ensembles.corpus_matrices()
    reports = run_suite(
        matrices,
        curve_specs=(cfg.curve,) if cfg.curve2 is None else (cfg.curve, cfg.curve2),
        seed=cfg.seed,
        checks=tuple(cfg.checks) or None,
        n_max=cfg.level,
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

        table = build_table(form, curve)
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

        da = decompose(form, curve)
        db = decompose(form, parse_curve(cfg.curve2, form.norm))
        dist = measure_distance(da.normal_measure, db.normal_measure)
        doc = {
            "curve_a": cfg.curve,
            "curve_b": cfg.curve2,
            "normal_parts_equal_measure": dist,
            "normal_part_difference": float(np.linalg.norm(da.N - db.N)),
            "order_a": [f"{c.location.real:.17g}{c.location.imag:+.17g}j"
                        for c in da.clusters],
            "order_b": [f"{c.location.real:.17g}{c.location.imag:+.17g}j"
                        for c in db.clusters],
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


# every option of the commands; an optional dest is a RunConfig field name
# (or list_corpus), and an option not given is left out of the parse, so its
# field keeps the RunConfig default
_OPTIONS = {
    "config": dict(help="path to config.json"),
    "--matrix": dict(dest="matrix_path", help="path to a matrix JSON file"),
    "--ensemble": dict(help="ensemble spec, e.g. ginibre:n=32,seed=7"),
    "--curve": dict(help="curve spec: hilbert:depth=32, morton:depth=32, lex, radial"),
    "--curve2": dict(help="second curve spec"),
    "--seed": dict(type=int),
    "--level": dict(type=int, help="deepest dyadic grid level checked"),
    "--grid": dict(type=int, help="grid points per side"),
    "--count": dict(type=int, help="steps along the curve: count + 1 samples"),
    "--region": dict(dest="regions", action="append",
                     help="region spec, repeatable: disk:cx,cy,r | halfplane:a,b,c"
                          " | cells:n=3,k=1,5,9 with & | ! combinators"),
    "--check": dict(dest="checks", action="append",
                    help=f"restrict to check ids; known: {', '.join(KNOWN_CHECKS)}"),
    "--list-corpus": dict(action="store_true", help="print the corpus manifest and exit"),
}
_INPUT = ("--matrix", "--ensemble")
# each command with its help and the options it reads besides --out; the
# modes of `curve` are commands of their own
_COMMANDS = {
    "decompose": ("split T into N + Q along a curve", (*_INPUT, "--curve", "--seed")),
    "brown": ("counting measure and density heatmap", (*_INPUT, "--grid")),
    "project": ("invariant projection for region(s)", (*_INPUT, "--region")),
    "verify": ("run the check suite", (*_INPUT, "--curve", "--curve2", "--seed", "--level",
                                       "--check", "--list-corpus")),
    "curve": ("tabulate/order/compare curves", {
        "tabulate": ("sample a curve's cell anchors", ("--curve", "--count")),
        "order": ("order a spectrum along a curve", (*_INPUT, "--curve")),
        "compare": ("decompose along two curves", (*_INPUT, "--curve", "--curve2")),
    }),
    "replay": ("re-run a recorded config.json", ("config",)),
}


def _fields_read_by(command: str) -> set[str] | None:
    """The `RunConfig` fields that `command` (a name or `curve:<mode>`)
    reads, from `_COMMANDS`; `matrix_data` belongs to the matrix input.
    None for a command the table does not hold."""
    name, _, mode = command.partition(":")
    entry = _COMMANDS.get(name)
    if entry is not None and isinstance(entry[1], dict):
        entry = entry[1].get(mode)
    elif mode:
        entry = None
    if entry is None:
        return None
    read = {"command"}
    for opt in entry[1]:
        if opt.startswith("--"):
            read.add(_OPTIONS[opt].get("dest", opt[2:].replace("-", "_")))
    if "matrix_path" in read:
        read.add("matrix_data")
    return read & {f.name for f in fields(RunConfig)}


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command or `curve` mode.  argparse hands the
    arguments a subparser does not know up to the root parser, which
    reports them under the top-level usage line; this parser reports them
    under its own."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


def _add_commands(sub, commands: dict) -> None:
    for name, (text, options) in commands.items():
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        if isinstance(options, dict):
            _add_commands(p.add_subparsers(dest="mode", required=True,
                                           parser_class=_CommandParser), options)
            continue
        for opt in options:
            p.add_argument(opt, **_OPTIONS[opt])
        # a run that only lists the corpus writes no file
        p.add_argument("--out", required="--list-corpus" not in options,
                       help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="specord",
                                 description="spectral orderings and decompositions")
    _add_commands(ap.add_subparsers(dest="command", required=True,
                                    parser_class=_CommandParser), _COMMANDS)
    return ap


@single_thread_blas()
def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "list_corpus", False):
            print(ensembles.corpus_manifest_json(), end="")
            return 0
        if not hasattr(args, "out"):
            return _fail("the following arguments are required: --out")
        outdir = Path(args.out)
        if args.command == "replay":
            return _run(RunConfig.from_json(Path(args.config).read_text(encoding="ascii")),
                        outdir)
        opts = {k: v for k, v in vars(args).items()
                if k in {f.name for f in fields(RunConfig)}}
        opts["command"] = f"curve:{args.mode}" if args.command == "curve" else args.command
        return _run(RunConfig(**opts), outdir)
    except (ValueError, OSError, json.JSONDecodeError, SchurConvergenceError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
