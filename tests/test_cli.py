import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import specord
from specord import cli
from specord.brown import empirical_brown, measure_distance
from specord.cli import RunConfig, main
from specord.core import (
    SchurConvergenceError,
    _matrix_json_chunks,
    json_int,
    load_matrix,
    matrix_json_bytes,
    operator_norm,
    save_matrix,
)
from specord.curves import curve_for_matrix
from specord.ensembles import parse_ensemble, sample
from specord.spectral import decompose
from specord.verify import reports_to_json, verify_decomposition

# every command that reads --matrix, with the rest of its arguments
MATRIX_COMMANDS = {
    "decompose": ["decompose"],
    "brown": ["brown", "--grid", "16"],
    "project": ["project", "--region", "disk:0,0,0.5", "--region", "halfplane:1,0,0"],
    "curve order": ["curve", "order"],
    "curve compare": ["curve", "compare", "--curve2", "morton:depth=32"],
    "verify": ["verify", "--level", "2"],
}
# the options each command and `curve` mode reads, besides --out
INPUT_OPTIONS = ["--matrix", "--ensemble"]
COMMAND_OPTIONS = {
    ("decompose",): INPUT_OPTIONS + ["--curve", "--seed"],
    ("brown",): INPUT_OPTIONS + ["--grid"],
    ("project",): INPUT_OPTIONS + ["--region"],
    ("verify",): INPUT_OPTIONS + ["--curve", "--curve2", "--seed", "--level", "--check",
                                  "--list-corpus"],
    ("curve", "tabulate"): ["--curve", "--count"],
    ("curve", "order"): INPUT_OPTIONS + ["--curve"],
    ("curve", "compare"): INPUT_OPTIONS + ["--curve", "--curve2"],
    ("replay",): [],
}
# json reads the literal -0.0 as a float and `-0`, which the writer puts, as 0
NEGATIVE_ZERO_FILE = '{"n":2,"entries":[[-0.0,1.0],[0.5,-0.0],[0,0],[1,-0.25]]}'


def test_decompose_jordan(tmp_path):
    out = tmp_path / "run"
    code = main(["decompose", "--ensemble", "jordan:n=4,lam=2",
                 "--curve", "hilbert:depth=32", "--out", str(out)])
    assert code == 0
    N = load_matrix(out / "N.json")
    assert np.allclose(N, 2.0 * np.eye(4), atol=1e-12)
    for name in ("T.json", "Q.json", "table.json", "report.json", "config.json"):
        assert (out / name).exists()
    reports = json.loads((out / "report.json").read_text())
    assert all(r["verdict"] in ("pass", "skip") for r in reports)


def test_decompose_worked_example(tmp_path):
    T = np.array([[1, 1], [0, 2]], dtype=complex)
    src = tmp_path / "T.json"
    save_matrix(T, src)
    out = tmp_path / "run"
    code = main(["decompose", "--matrix", str(src), "--curve", "lex",
                 "--out", str(out)])
    assert code == 0
    assert np.allclose(load_matrix(out / "N.json"), np.diag([1.0, 2.0]), atol=1e-10)
    assert np.allclose(load_matrix(out / "Q.json"),
                       np.array([[0, 1], [0, 0]]), atol=1e-10)


def test_decompose_nan_matrix_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":2,"entries":[[0,0],[NaN,0],[0,0],[1,0]]}')
    code = main(["decompose", "--matrix", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


def test_malformed_matrix_entries_exit_2(tmp_path, capsys):
    for i, entries in enumerate(('[["1","0"]]', "[1]", f"[[1{'0' * 400},0]]")):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(f'{{"n":1,"entries":{entries}}}')
        code = main(["decompose", "--matrix", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: matrix entry 0 ")
    for i, text in enumerate(('{"n":[1],"entries":[[1,0]]}', '{"n":1,"entries":5}')):
        bad = tmp_path / f"shape{i}.json"
        bad.write_text(text)
        code = main(["decompose", "--matrix", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: matrix ")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"command": "decompose", "matrix_data": {
        "n": 2, "entries": [[1, 0], [0, 0], [0, 0], [True, 0]]}}))
    assert main(["replay", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("error: matrix entry 3 ")


def test_decompose_replaces_existing_outputs(tmp_path):
    names = ("T.json", "N.json", "Q.json", "table.json", "report.json", "config.json")
    args = ["decompose", "--ensemble", "ginibre:n=6,seed=3", "--out"]
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main(args + [str(fresh)]) == 0
    # T.json and the streamed N.json and Q.json replace a symlink, not its target
    linked = ("T.json", "N.json", "Q.json")
    out.mkdir()
    for name in linked:
        (tmp_path / f"outside-{name}").write_bytes(b"keep me\n")
        (out / name).symlink_to(tmp_path / f"outside-{name}")
    for _ in range(2):
        assert main(args + [str(out)]) == 0
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    for name in linked:
        assert not (out / name).is_symlink()
        assert (tmp_path / f"outside-{name}").read_bytes() == b"keep me\n"


def test_missing_input_exits_2(tmp_path):
    assert main(["decompose", "--out", str(tmp_path / "o")]) == 2


def test_brown_eighth_roots(tmp_path):
    roots = np.exp(2j * np.pi * np.arange(8) / 8)
    src = tmp_path / "roots.json"
    save_matrix(np.diag(roots), src)
    out = tmp_path / "b"
    code = main(["brown", "--matrix", str(src), "--grid", "32", "--out", str(out)])
    assert code == 0
    lines = (out / "atoms.csv").read_text().strip().split("\n")
    assert lines[0] == "re,im,weight" and len(lines) == 9
    assert (out / "density.pgm").read_bytes().startswith(b"P5\n32 32\n255\n")
    info = json.loads((out / "report.json").read_text())
    assert info["atoms"] == 8


def test_brown_single_entry(tmp_path):
    src = tmp_path / "m.json"
    save_matrix(np.array([[0.5 + 0.5j]]), src)
    out = tmp_path / "b"
    assert main(["brown", "--matrix", str(src), "--grid", "16",
                 "--out", str(out)]) == 0
    lines = (out / "atoms.csv").read_text().strip().split("\n")
    assert len(lines) == 2


def test_brown_non_finite_potential_exits_2(tmp_path, capsys, monkeypatch):
    # no grid point's matrix factors, so the log potential is not finite
    def not_positive_definite(uplo, n, a, lda, info):
        info.value = 2

    monkeypatch.setattr("specord.brown._zpotrf", not_positive_definite)
    src = tmp_path / "m.json"
    save_matrix(sample(parse_ensemble("ginibre:n=8,seed=1")), src)
    out = tmp_path / "b"
    assert main(["brown", "--matrix", str(src), "--grid", "16",
                 "--out", str(out)]) == 2
    assert "log potential is not finite" in capsys.readouterr().err
    # the grid fails before anything is written: no partial bundle
    for name in ("config.json", "atoms.csv", "density.csv", "report.json"):
        assert not (out / name).exists()


def test_brown_of_large_norm_exits_0(tmp_path):
    # ||T||^2 overflows; the grid is evaluated on a scaled copy of T
    T = sample(parse_ensemble("ginibre:n=8,seed=1"))
    for name, M in (("small", T), ("big", T * 2.0**600)):
        save_matrix(M, tmp_path / f"{name}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["brown", "--matrix", str(tmp_path / f"{name}.json"), "--grid", "16",
                         "--out", str(tmp_path / name)]) == 0
    read = [np.loadtxt(tmp_path / name / "density.csv", delimiter=",")
            for name in ("small", "big")]
    np.testing.assert_allclose(read[1], read[0], rtol=0, atol=1e-12)


def test_project_command(tmp_path):
    out = tmp_path / "p"
    code = main(["project", "--ensemble", "diag_perturb:n=6,eps=0,seed=2",
                 "--region", "disk:0,0,0.8", "--region", "!disk:0,0,0.8",
                 "--out", str(out)])
    assert code == 0
    results = json.loads((out / "report.json").read_text())
    assert len(results) == 2
    assert results[0]["rank"] + results[1]["rank"] == 6
    P0 = load_matrix(out / "P0.json")
    P1 = load_matrix(out / "P1.json")
    assert np.allclose(P0 + P1, np.eye(6), atol=1e-9)


def test_verify_single_check_filter(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--ensemble", "ginibre:n=4,seed=1",
                 "--check", "normal-part-normality", "--out", str(out)])
    assert code == 0
    reports = json.loads((out / "report.json").read_text())
    assert reports and all(
        r["check_id"].startswith("normal-part-normality@") for r in reports
    )


def test_verify_check_equals_filtered_full_run(tmp_path, monkeypatch):
    from specord import verify

    args = ["verify", "--ensemble", "ginibre:n=6,seed=2"]
    assert main(args + ["--out", str(tmp_path / "all")]) == 0
    full = json.loads((tmp_path / "all" / "report.json").read_text())
    ran = []
    for name in ("verify_decomposition", "verify_measure_laws",
                 "verify_convergence", "verify_block_split"):
        def spy(*a, _name=name, _fn=getattr(verify, name), **kw):
            ran.append(_name)
            return _fn(*a, **kw)

        monkeypatch.setattr(verify, name, spy)
    ids = ("spectral-trace-law", "corner-measure-split")
    checks = [arg for c in ids for arg in ("--check", c)]
    assert main(args + checks + ["--out", str(tmp_path / "some")]) == 0
    want = [r for r in full if r["check_id"].split("@")[0] in ids]
    assert want
    # the full report is sorted by check id, so its filtered part is too
    assert (tmp_path / "some" / "report.json").read_bytes() == \
        (json.dumps(want, indent=1, sort_keys=True) + "\n").encode("ascii")
    assert sorted(set(ran)) == ["verify_block_split", "verify_measure_laws"]


def test_verify_unknown_check_exits_2(tmp_path):
    assert main(["verify", "--ensemble", "ginibre:n=4,seed=1",
                 "--check", "bogus", "--out", str(tmp_path / "v")]) == 2


def test_verify_level_below_one_exits_2(tmp_path, capsys):
    # --level is the deepest grid level checked; none below 1 exists
    for level in (0, -1):
        out = tmp_path / f"v{level}"
        assert main(["verify", "--ensemble", "ginibre:n=4,seed=1", "--level", str(level),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: n_max, the deepest grid level checked, must be >= 1, got {level}\n")
        assert not out.exists()


def test_verify_list_corpus(tmp_path, capsys):
    assert main(["verify", "--list-corpus", "--out", str(tmp_path / "x")]) == 0
    man = json.loads(capsys.readouterr().out)
    assert len(man) >= 40 and {"spec", "n", "digest"} <= set(man[0])
    assert main(["verify", "--list-corpus"]) == 0
    assert json.loads(capsys.readouterr().out) == man
    # every run that writes files still needs --out
    assert main(["verify", "--ensemble", "ginibre:n=4,seed=1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_replay_reproduces_report_bytes(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    code = main(["decompose", "--ensemble", "ginibre:n=6,seed=3",
                 "--curve", "morton:depth=32", "--out", str(out1)])
    assert code == 0
    code = main(["replay", str(out1 / "config.json"), "--out", str(out2)])
    assert code == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "N.json").read_bytes() == (out2 / "N.json").read_bytes()


def test_parser_gives_each_command_the_options_it_reads():
    def commands(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def options(parser):
        return sorted(s for a in parser._actions for s in a.option_strings
                      if s not in ("-h", "--help"))

    top = commands(cli.build_parser())
    assert sorted(top) == ["brown", "curve", "decompose", "project", "replay", "verify"]
    assert options(top["curve"]) == []
    for path, want in COMMAND_OPTIONS.items():
        parser = top[path[0]] if len(path) == 1 else commands(top["curve"])[path[1]]
        assert options(parser) == sorted(want + ["--out"]), path
    assert sorted(commands(top["curve"])) == ["compare", "order", "tabulate"]


@pytest.mark.parametrize("argv, unread", [
    (["decompose", "--ensemble", "ginibre:n=4,seed=1"], ["--level", "2"]),
    (["decompose", "--ensemble", "ginibre:n=4,seed=1"], ["--tol-structural", "inf"]),
    (["brown", "--ensemble", "ginibre:n=4,seed=1", "--grid", "16"], ["--curve", "lex"]),
    (["brown", "--ensemble", "ginibre:n=4,seed=1"], ["--seed", "5"]),
    (["project", "--ensemble", "ginibre:n=4,seed=1", "--region", "disk:0,0,1"],
     ["--seed", "1"]),
    (["project", "--ensemble", "ginibre:n=4,seed=1", "--region", "disk:0,0,1"],
     ["--curve", "lex"]),
    (["verify", "--ensemble", "ginibre:n=4,seed=1"], ["--tol-structural", "1"]),
    (["verify", "--ensemble", "ginibre:n=4,seed=1"], ["--tol-determinant", "1"]),
    (["verify", "--ensemble", "ginibre:n=4,seed=1"], ["--grid", "16"]),
    (["curve", "tabulate", "--count", "4"], ["--matrix", "T.json"]),
    (["curve", "tabulate"], ["--seed", "1"]),
    (["curve", "order", "--ensemble", "ginibre:n=4,seed=1"], ["--curve2", "lex"]),
    (["curve", "order", "--ensemble", "ginibre:n=4,seed=1"], ["--count", "4"]),
    (["curve", "compare", "--ensemble", "ginibre:n=4,seed=1", "--curve2", "lex"],
     ["--level", "2"]),
    (["replay", "config.json"], ["--seed", "1"]),
])
def test_an_option_the_command_does_not_read_exits_2(tmp_path, capsys, argv, unread):
    out = tmp_path / "o"
    assert main(argv + unread + ["--out", str(out)]) == 2
    # reported under the usage line of the command (or curve mode) itself
    prog = " ".join(["specord", *argv[: 2 if argv[0] == "curve" else 1]])
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"\n{prog}: error: unrecognized arguments: {' '.join(unread)}\n")
    assert not out.exists()


def test_brown_reports_an_unread_curve_under_its_own_usage(tmp_path, capsys):
    out = tmp_path / "X"
    assert main(["brown", "--curve", "nonsense", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: specord brown [-h]") and "{decompose," not in err
    assert err.endswith("specord brown: error: unrecognized arguments: --curve nonsense\n")
    assert not out.exists()


def test_verify_repeated_curve_exits_2(tmp_path, capsys):
    # each check id of a repeated curve would occur twice in the report
    for curves, spec in ((["--curve", "lex", "--curve2", "lex"], "lex"),
                         (["--curve2", "hilbert:depth=32"], "hilbert:depth=32")):
        out = tmp_path / "v"
        assert main(["verify", "--ensemble", "ginibre:n=4,seed=1", *curves,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: curve specs repeat: [{spec!r}]\n"
        assert not out.exists()


def test_replay_rejects_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    for text in ("[1,2]", '{"command":"decompose","bogus":1}', '{"seed":1}'):
        cfg.write_text(text)
        assert main(["replay", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_curve_tabulate(tmp_path):
    out = tmp_path / "c"
    assert main(["curve", "tabulate", "--curve", "hilbert:depth=3",
                 "--count", "8", "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().strip().split("\n")
    assert lines[0] == "t,re,im" and len(lines) == 10


def test_curve_tabulate_any_count(tmp_path):
    # sample i visits cell min(i 4^depth // count, 4^depth - 1); t is i/count
    def tabulate(count, depth=4):
        out = tmp_path / f"c{depth}-{count}"
        assert main(["curve", "tabulate", "--curve", f"hilbert:depth={depth}",
                     "--count", str(count), "--out", str(out)]) == 0
        return (out / "curve.csv").read_bytes()

    rows = tabulate(10).decode().splitlines()
    assert len(rows) == 1 + 11
    assert rows[1] == "0,-1.5,-1.5"
    assert rows[4] == "0.29999999999999999,-1.3125,0.5625"  # cell 76 of 256
    assert rows[-1] == "1,1.3125,-1.5"  # the last cell, bottom right
    assert len(tabulate(1000).splitlines()) == 1 + 1001  # more samples than cells
    assert len(tabulate(3, depth=1).splitlines()) == 1 + 4
    # power-of-two counts keep their bytes
    digest = hashlib.sha256(tabulate(64)).hexdigest()
    assert digest == "2bbc673e5163cd1052957524035dac7b4d1832c1933175988c317c95daf63d10"


def test_curve_tabulate_count_below_one_exits_2(tmp_path, capsys):
    for count in (0, -3):
        out = tmp_path / f"c{count}"
        assert main(["curve", "tabulate", "--count", str(count), "--out", str(out)]) == 2
        assert "--count >= 1" in capsys.readouterr().err
        assert not out.exists()
    # every count from 1 on writes count + 1 rows
    for count, cells in ((1, ["0", "1"]), (2, ["0", "0.5", "1"])):
        out = tmp_path / f"c{count}"
        assert main(["curve", "tabulate", "--curve", "hilbert:depth=1",
                     "--count", str(count), "--out", str(out)]) == 0
        rows = (out / "curve.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == cells


def test_curve_order_and_compare(tmp_path):
    assert main(["curve", "order", "--ensemble", "ginibre:n=5,seed=2",
                 "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "order.json").read_text())
    assert len(doc["clusters"]) == 5
    assert main(["curve", "compare", "--ensemble", "ginibre:n=5,seed=2",
                 "--curve", "hilbert:depth=32", "--curve2", "lex",
                 "--out", str(tmp_path / "c")]) == 0
    cmpdoc = json.loads((tmp_path / "c" / "compare.json").read_text())
    assert cmpdoc["normal_parts_equal_measure"] <= 1e-8


def test_usage_error_exits_2():
    assert main(["decompose"]) == 2  # missing --out
    assert main([]) == 2


def test_curve_compare_requires_second_curve(tmp_path):
    assert main(["curve", "compare", "--ensemble", "ginibre:n=4,seed=1",
                 "--out", str(tmp_path / "c")]) == 2


def test_failed_runs_leave_no_files(tmp_path, capsys):
    # a working square of side 3 ||T|| = inf: every curve-ordering command
    # fails after reading the input, and must exit 2 before it writes
    src = tmp_path / "T.json"
    src.write_text('{"n":1,"entries":[[1e308,1e308]]}')
    for name in ("decompose", "verify", "curve order", "curve compare"):
        out = tmp_path / name.replace(" ", "-")
        argv = MATRIX_COMMANDS[name] + ["--matrix", str(src), "--out", str(out)]
        assert main(argv) == 2, name
        assert capsys.readouterr().err == (
            "error: curve 'hilbert:depth=32': the working square of side 3 x radius "
            "overflows for radius 1.4142135623730951e+308\n"), name
        assert not out.exists() or not any(out.iterdir()), name
    # project orders along no curve
    assert main(MATRIX_COMMANDS["project"] + ["--matrix", str(src),
                                              "--out", str(tmp_path / "p")]) == 0
    # the second region splits the cluster {0, 1e-12}, after the first succeeded
    src.write_text('{"n":2,"entries":[[0,0],[0,0],[0,0],[1e-12,0]]}')
    out = tmp_path / "project"
    assert main(["project", "--matrix", str(src), "--region", "disk:0,0,1",
                 "--region", "disk:0,0,5e-13", "--out", str(out)]) == 2
    assert "straddles" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_decompose_verifies_the_decomposition_it_wrote(tmp_path, monkeypatch):
    decs = []
    original = cli.decompose

    def recorded(*args, **kwargs):
        decs.append(original(*args, **kwargs))
        return decs[-1]

    monkeypatch.setattr(cli, "decompose", recorded)
    out = tmp_path / "d"
    assert main(["decompose", "--ensemble", "ginibre:n=6,seed=3", "--out", str(out)]) == 0
    assert len(decs) == 1
    assert (out / "report.json").read_text() == reports_to_json(
        verify_decomposition(decs[0]))


def test_library_failures_exit_2(tmp_path, monkeypatch, capsys):
    def no_convergence(T):
        raise SchurConvergenceError("QR iteration did not converge")

    monkeypatch.setattr("specord.cli.schur_form", no_convergence)
    assert main(["decompose", "--ensemble", "ginibre:n=4,seed=1",
                 "--out", str(tmp_path / "a")]) == 2
    assert "error: QR iteration" in capsys.readouterr().err


def write_input(path, kind):
    if kind == "negative-zero":
        path.write_text(NEGATIVE_ZERO_FILE)
    else:
        save_matrix(sample(parse_ensemble("ginibre:n=6,seed=3")), path)


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("kind", ["ginibre", "negative-zero"])
@pytest.mark.parametrize("command", sorted(MATRIX_COMMANDS))
def test_replay_reproduces_every_matrix_command(tmp_path, command, kind):
    src = tmp_path / "T.json"
    write_input(src, kind)
    run = tmp_path / "run"
    assert main(MATRIX_COMMANDS[command] + ["--matrix", str(src), "--out", str(run)]) == 0
    # the matrix is inlined as its canonical one-line document
    text = (run / "config.json").read_text()
    inlined = matrix_json_bytes(load_matrix(src)).decode()
    assert f'\n "matrix_data": {inlined},\n' in text
    again = tmp_path / "again"
    assert main(["replay", str(run / "config.json"), "--out", str(again)]) == 0
    assert_same_files(run, again)
    # a config with the matrix indented like every other field (the layout
    # of earlier versions) replays to the same outputs and config.json
    indented = tmp_path / "indented.json"
    indented.write_text(
        json.dumps(json.loads(text, parse_int=json_int), indent=1, sort_keys=True) + "\n")
    assert main(["replay", str(indented), "--out", str(tmp_path / "old")]) == 0
    assert_same_files(run, tmp_path / "old")


@pytest.mark.parametrize("command", sorted(MATRIX_COMMANDS))
def test_replay_of_a_config_that_records_empty_tolerances(tmp_path, command):
    # earlier versions wrote `"tolerances": {}` as the last key of every
    # config.json; such a config replays, and the line is gone from its
    # config.json
    src = tmp_path / "T.json"
    write_input(src, "ginibre")
    run = tmp_path / "run"
    assert main(MATRIX_COMMANDS[command] + ["--matrix", str(src), "--out", str(run)]) == 0
    text = (run / "config.json").read_text()
    assert text.endswith('\n "seed": 0\n}\n')
    legacy = tmp_path / "legacy.json"
    legacy.write_text(text[:-len("\n}\n")] + ',\n "tolerances": {}\n}\n')
    again = tmp_path / "again"
    assert main(["replay", str(legacy), "--out", str(again)]) == 0
    assert_same_files(run, again)


def test_replay_rejects_tolerances(tmp_path, capsys):
    # every check runs at its fixed bound
    cfg, out = tmp_path / "config.json", tmp_path / "o"
    for tolerances in ('{"structural": 1}', '{"determinant": 0.001}', "null"):
        cfg.write_text(f'{{"command": "curve:tabulate", "tolerances": {tolerances}}}')
        assert main(["replay", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config.json sets tolerances {tolerances}; check bounds are fixed\n")
        assert not out.exists()


def test_replay_rejects_a_field_its_command_does_not_read(tmp_path, capsys):
    cfg, out = tmp_path / "config.json", tmp_path / "o"
    cfg.write_text('{"command":"curve:tabulate","count":2,"curve":"hilbert:depth=1",'
                   '"matrix_path":"/nonexistent","seed":5,"grid":-3}')
    assert main(["replay", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: config.json sets ['grid', 'matrix_path', "
                                       "'seed'], which command 'curve:tabulate' does not read\n")
    assert not out.exists()
    # an unread field at its default replays, as in every config the CLI writes
    cfg.write_text('{"command":"curve:tabulate","count":2,"curve":"hilbert:depth=1",'
                   '"seed":0,"grid":256,"matrix_data":null}')
    assert main(["replay", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["count"] == 2
    # matrix_data belongs to the matrix input of the commands that read it
    assert cli._fields_read_by("brown") == {"command", "matrix_path", "matrix_data",
                                            "ensemble", "grid"}
    assert cli._fields_read_by("curve:tabulate") == {"command", "curve", "count"}


# a valid config of each command that a field below belongs to
TYPED_CONFIGS = {
    "decompose": {"command": "decompose", "ensemble": "ginibre:n=4,seed=1"},
    "project": {"command": "project", "ensemble": "ginibre:n=4,seed=1",
                "regions": ["disk:0,0,1"]},
    "verify": {"command": "verify", "ensemble": "ginibre:n=4,seed=1", "level": 1,
               "checks": ["flag-invariance"]},
    "curve:tabulate": {"command": "curve:tabulate", "count": 4},
    "curve:compare": {"command": "curve:compare", "ensemble": "ginibre:n=4,seed=1",
                      "curve2": "lex"},
}


@pytest.mark.parametrize("command, name, value", [
    ("decompose", "seed", "3"),
    ("decompose", "seed", None),  # would run on an unseeded generator
    ("decompose", "seed", True),  # JSON true is not an int
    ("decompose", "curve", 5),
    ("decompose", "ensemble", 7),
    ("decompose", "matrix_path", 3),  # would open file descriptor 3
    ("decompose", "matrix_data", [[1, 0]]),
    ("decompose", "command", 5),
    ("curve:compare", "curve2", 1),
    ("verify", "level", "2"),
    ("verify", "level", False),
    ("verify", "checks", "flag-invariance"),  # would be read letter by letter
    ("verify", "checks", [1]),
    ("curve:tabulate", "count", "4"),
    ("curve:tabulate", "count", 4.0),
    ("project", "regions", "disk:0,0,1"),
])
def test_replay_checks_the_json_type_of_each_field(tmp_path, capsys, command, name, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TYPED_CONFIGS[command]))
    assert main(["replay", str(cfg), "--out", str(tmp_path / "valid")]) == 0
    capsys.readouterr()
    cfg.write_text(json.dumps({**TYPED_CONFIGS[command], name: value}))
    out = tmp_path / "o"
    assert main(["replay", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config.json field {name!r} must be ")
    assert not out.exists()


def test_config_reads_negative_zero_only_in_the_matrix():
    cfg = RunConfig.from_json(
        '{"command":"decompose","seed":-0,"matrix_data":{"n":1,"entries":[[-0,0]]}}')
    assert type(cfg.seed) is int and cfg.seed == 0
    z = cli._resolve_matrix(cfg)[0, 0]
    assert np.signbit(z.real) and not np.signbit(z.imag)
    # "-0.5" and "-0e1" are not the integer literal -0
    cfg = RunConfig.from_json('{"command":"decompose","seed":3,"matrix_data":'
                              '{"n":1,"entries":[[-0.5,-0e1]]}}')
    assert cfg.matrix_data == {"n": 1, "entries": [[-0.5, -0.0]]}


def test_curve_compare_distance_equals_measures_of_both_normal_parts(tmp_path):
    src = tmp_path / "T.json"
    T = sample(parse_ensemble("normal_plus_nilpotent:n=10,scale=0.5,seed=3"))
    save_matrix(T, src)
    out = tmp_path / "c"
    assert main(["curve", "compare", "--matrix", str(src), "--curve", "hilbert:depth=32",
                 "--curve2", "lex", "--out", str(out)]) == 0
    doc = json.loads((out / "compare.json").read_text())
    # reference: the counting measure of each N as `decompose` measures it,
    # from N's Hermitian pencil
    da, db = (decompose(T, curve_for_matrix(spec, T))
              for spec in ("hilbert:depth=32", "lex"))
    want = measure_distance(da.normal_measure, db.normal_measure)
    assert repr(doc["normal_parts_equal_measure"]) == repr(want)
    # cross-check: from each N's eigvals the distance moves by at most the
    # pencil's matching error, 1e-12 max(1, ||N||) per side
    by_eigvals = measure_distance(empirical_brown(da.N, tol=da.table.tol),
                                  empirical_brown(db.N, tol=db.table.tol))
    bound = 1e-12 * max(1.0, operator_norm(da.N), operator_norm(db.N))
    assert abs(doc["normal_parts_equal_measure"] - by_eigvals) <= 2 * bound


def test_curve_compare_computes_no_report(tmp_path, monkeypatch):
    # compare reads N and its measure; the report's matching distance of N
    # against T is the one place spectral calls measure_distance
    def refuse(*args, **kwargs):
        raise AssertionError("curve compare computed a decomposition report")

    monkeypatch.setattr("specord.spectral.measure_distance", refuse)
    assert main(["curve", "compare", "--ensemble", "normal_plus_nilpotent:n=10,scale=0.5,seed=3",
                 "--curve", "hilbert:depth=32", "--curve2", "lex",
                 "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "compare.json").exists()


def test_project_and_compare_factor_the_matrix_once(tmp_path, monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    src = tmp_path / "T.json"
    save_matrix(sample(parse_ensemble("ginibre:n=12,seed=4")), src)
    assert main(["project", "--matrix", str(src), "--region", "disk:0,0,0.5",
                 "--region", "halfplane:1,0,0", "--region", "disk:0,0,1&!disk:0,0,0.5",
                 "--out", str(tmp_path / "p")]) == 0
    assert counts == {"schur": 1}
    counts.clear()
    assert main(["curve", "compare", "--matrix", str(src), "--curve", "hilbert:depth=32",
                 "--curve2", "morton:depth=32", "--out", str(tmp_path / "c")]) == 0
    # one form for both curves; one Hermitian eigensolve of N's pencil per
    # decomposition, for its report, and no fallback to eigvals(N)
    assert counts == {"schur": 1, "eigh": 2}


def test_decompose_factors_and_formats_the_matrix_once(tmp_path, monkeypatch):
    T = sample(parse_ensemble("ginibre:n=12,seed=4"))
    src = tmp_path / "T.json"
    save_matrix(T, src)
    want = tmp_path / "want"
    assert main(["decompose", "--matrix", str(src), "--out", str(want)]) == 0
    counts = Counter()
    key = T.tobytes()

    def counted(name, fn, when=lambda *args, **kwargs: True):
        def wrapper(A, *args, **kwargs):
            arr = np.asarray(A)
            if arr.dtype == np.complex128 and arr.tobytes() == key and when(*args, **kwargs):
                counts[name] += 1
            return fn(A, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "norm", counted(
        "svd", np.linalg.norm, when=lambda ord=None, *args, **kwargs: ord == 2))
    # every matrix text, joined (`matrix_json_bytes`) or streamed
    # (`save_matrix`), starts from core's chunk generator
    monkeypatch.setattr("specord.core._matrix_json_chunks",
                        counted("json", _matrix_json_chunks))
    got = tmp_path / "got"
    assert main(["decompose", "--matrix", str(src), "--out", str(got)]) == 0
    # ||T|| sizes the curve, the tolerance and the bounds; one text of T
    # serves config.json, T.json and the report digests
    assert counts == {"svd": 1, "json": 1}
    assert_same_files(want, got)


def test_brown_formats_the_matrix_once(tmp_path, monkeypatch):
    src = tmp_path / "T.json"
    save_matrix(sample(parse_ensemble("ginibre:n=12,seed=4")), src)
    want = tmp_path / "want"
    assert main(["brown", "--matrix", str(src), "--grid", "16", "--out", str(want)]) == 0
    calls = []

    def counted(T):
        calls.append(1)
        return matrix_json_bytes(T)

    monkeypatch.setattr("specord.core.matrix_json_bytes", counted)
    monkeypatch.setattr("specord.cli.matrix_json_bytes", counted)
    got = tmp_path / "got"
    assert main(["brown", "--matrix", str(src), "--grid", "16", "--out", str(got)]) == 0
    # one text of T serves config.json and the report's input digest
    assert len(calls) == 1
    assert_same_files(want, got)
    replayed = tmp_path / "replayed"
    assert main(["replay", str(got / "config.json"), "--out", str(replayed)]) == 0
    assert_same_files(want, replayed)


DISPATCH_CHILD = """
import json, sys
from specord.cli import main
code = main(["decompose", "--ensemble", "ginibre:n=64,seed=1", "--out", sys.argv[1]])
assert code == 0, code
with open(sys.argv[1] + "/report.json") as fh:
    for rep in json.load(fh):
        if rep["check_id"] in ("flag-hyperinvariance", "flag-invariance"):
            for v in rep["values"]:
                print(rep["check_id"], v["name"], v["measured"].hex())
"""


def test_self_check_values_independent_of_cpu_dispatch(tmp_path):
    # the commutant samples and flag leaks use matmul, LAPACK and
    # real-component arithmetic only; each dispatch setting applies to a
    # child process only
    src = str(Path(specord.__file__).resolve().parent.parent)
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    listings = {}
    for label, disabled in (("default", None),
                            ("baseline", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run([sys.executable, "-c", DISPATCH_CHILD, str(tmp_path / label)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (label, proc.stderr[-2000:])
        listings[label] = [line for line in proc.stdout.splitlines()
                           if line.startswith("flag-")]
    assert len(listings["default"]) == 65
    assert listings["default"] == listings["baseline"]
