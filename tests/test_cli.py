import hashlib
import json

import numpy as np
import pytest

from specord import cli
from specord.cli import main
from specord.core import SchurConvergenceError, load_matrix, save_matrix
from specord.ensembles import parse_ensemble, sample
from specord.verify import reports_to_json, verify_decomposition


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
    outside = tmp_path / "outside.json"
    outside.write_bytes(b"keep me\n")
    out.mkdir()
    (out / "T.json").symlink_to(outside)
    for _ in range(2):
        assert main(args + [str(out)]) == 0
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    assert not (out / "T.json").is_symlink()
    assert outside.read_bytes() == b"keep me\n"


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_brown_non_finite_potential_exits_2(tmp_path, capsys):
    # (T - l)*(T - l) overflows, so the log potential is not finite
    src = tmp_path / "big.json"
    save_matrix(sample(parse_ensemble("ginibre:n=8,seed=1")) * 2.0**600, src)
    out = tmp_path / "b"
    assert main(["brown", "--matrix", str(src), "--grid", "16",
                 "--out", str(out)]) == 2
    assert "log potential is not finite" in capsys.readouterr().err
    assert not (out / "density.csv").exists() and not (out / "report.json").exists()


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
    full = verify.reports_from_json((tmp_path / "all" / "report.json").read_text())
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
    want = [r for r in full if r.check_id.split("@")[0] in ids]
    assert want
    assert (tmp_path / "some" / "report.json").read_bytes() == \
        reports_to_json(want).encode("ascii")
    assert sorted(set(ran)) == ["verify_block_split", "verify_measure_laws"]


def test_verify_unknown_check_exits_2(tmp_path):
    assert main(["verify", "--ensemble", "ginibre:n=4,seed=1",
                 "--check", "bogus", "--out", str(tmp_path / "v")]) == 2


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

    monkeypatch.setattr("specord.spectral.schur_form", no_convergence)
    assert main(["decompose", "--ensemble", "ginibre:n=4,seed=1",
                 "--out", str(tmp_path / "a")]) == 2
    assert "error: QR iteration" in capsys.readouterr().err
