import io
import json
import os
import subprocess
import sys

import pytest

import lineops

from lineops.arrangements import (arrangement_from_json, arrangement_to_json,
                                  dump_json, sel_at_least, sel_exact)
from lineops.catalog import build, entries
from lineops.cli import UsageError, parse_operator_expr, run_cli


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- operator grammar ---------------------------------------------------------

def test_operator_grammar():
    op = parse_operator_expr("L{>=2;>=2}")
    assert op.kind == "lambda" and op.nsel == sel_at_least(2)
    # the diagonal shorthand, with the tolerated comma form
    assert parse_operator_expr("L{>=2,>=2}") == parse_operator_expr("L{>=2}")
    op2 = parse_operator_expr("L{2;3}")
    assert op2.nsel == sel_exact(2) and op2.msel == sel_exact(3)
    op3 = parse_operator_expr("L{3,4;3}")
    assert op3.nsel.members() == (3, 4) and op3.msel == sel_exact(3)
    op4 = parse_operator_expr("D{2}")
    assert op4.kind == "dual_lines" and op4.sel == sel_exact(2)
    chain = parse_operator_expr("L{3;2}.D{2}")
    assert isinstance(chain, tuple) and len(chain) == 2
    assert parse_operator_expr("L{3;2}∘D{2}") == chain
    for bad in ("", "L{}", "X{2}", "L{2", "L{a;b}"):
        with pytest.raises(UsageError):
            parse_operator_expr(bad)


# -- subcommands --------------------------------------------------------------

def test_catalog_list_and_show(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["catalog", "list"])
    assert code == 0
    assert "dual-hesse" in out and "wiman [heavy]" in out
    code, out, _ = run(capsys, monkeypatch, ["catalog", "show", "flashing3"])
    assert code == 0 and "t (fraction" in out


def test_build_apply_profile_pipeline(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["catalog", "build", "gv13", "--param", "a=2",
                        "--param", "sign=+"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["lines"]) == 13
    code, out, _ = run(capsys, monkeypatch, ["apply", "--op", "L{3;2}"],
                       stdin=out)
    assert code == 0
    assert len(json.loads(out)["lines"]) == 18
    code, out, _ = run(capsys, monkeypatch, ["profile"], stdin=out)
    assert code == 0 and "d=18" in out
    # the minus component
    code, out, _ = run(capsys, monkeypatch,
                       ["catalog", "build", "gv13", "--param", "a=2",
                        "--param", "sign=-"])
    code, out, _ = run(capsys, monkeypatch, ["apply", "--op", "L{3;2}"],
                       stdin=out)
    assert len(json.loads(out)["lines"]) == 30


def test_seq_table_and_json(capsys, monkeypatch):
    argv = ["seq", "--catalog", "complete-quadrilateral", "--op", "L{>=2;>=2}",
            "--steps", "3", "--profile-budget", "100"]
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 0
    assert "verdict: budget_steps" in out
    assert "1741" in out
    code, out, _ = run(capsys, monkeypatch, argv + ["--json"])
    doc = json.loads(out)
    assert [s["lines"] for s in doc["steps"]] == [6, 9, 25, 1741]


def test_check_command(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["check", "--catalog", "complete-quadrilateral"])
    assert code == 0
    assert "classification: other" in out
    assert "melchior: slack 0 (applies)" in out
    assert "freeness root test: roots 2, 3" in out


def test_equiv_command(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    dh = build("dual-hesse")
    a.write_text(dump_json(arrangement_to_json(dh)))
    img = build("hesse")
    from lineops.arrangements import lambda_op
    nine = lambda_op(sel_exact(2), sel_exact(4), img)
    b.write_text(dump_json(arrangement_to_json(nine)))
    code, out, _ = run(capsys, monkeypatch, ["equiv", str(a), str(b)])
    assert code == 0 and out.startswith("equivalent")
    c = tmp_path / "c.json"
    c.write_text(dump_json(arrangement_to_json(build("ceva-ext", n=3))))
    code, out, _ = run(capsys, monkeypatch, ["equiv", str(a), str(c)])
    assert code == 0 and "not equivalent" in out
    d = tmp_path / "d.json"
    d.write_text(dump_json(arrangement_to_json(build("grid6"))))
    code, _, err = run(capsys, monkeypatch, ["equiv", str(a), str(d)])
    assert code == 1 and "field" in err  # cross-field comparison is an error


def test_matroid_commands(tmp_path, capsys, monkeypatch):
    arr = tmp_path / "fano.json"
    arr.write_text(dump_json(arrangement_to_json(build("finite-plane", q=2))))
    code, out, _ = run(capsys, monkeypatch,
                       ["matroid", "extract", "--in", str(arr)])
    assert code == 0
    m1 = tmp_path / "m1.json"
    m1.write_text(out)
    code, out2, _ = run(capsys, monkeypatch,
                        ["matroid", "iso", "--a", str(m1), "--b", str(m1)])
    assert code == 0 and out2.startswith("isomorphic")


def test_conics_command(capsys, monkeypatch):
    from lineops.arrangements import point_config_to_json, dualize_arrangement
    cfg = dualize_arrangement(build("unassuming"))
    # use the 15 double points instead: feed via stdin
    from lineops.arrangements import points_operator
    pts = points_operator(sel_exact(2), build("unassuming"))
    doc = dump_json(point_config_to_json(pts))
    code, out, _ = run(capsys, monkeypatch, ["conics", "--min", "6"], stdin=doc)
    assert code == 0
    found = json.loads(out)["conics"]
    assert sum(1 for c in found if c["irreducible"]) == 12


def test_render_command(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "grid.svg"
    code, out, err = run(capsys, monkeypatch,
                         ["render", "--catalog", "grid6",
                          "--window=-2,2,-2,2", "--out", str(out_file)])
    assert code == 0
    svg = out_file.read_text()
    assert svg.count("<line") == 6


def test_export_import_roundtrip_all_entries(tmp_path, capsys, monkeypatch):
    for entry in entries():
        if entry.heavy:
            continue
        code, out, _ = run(capsys, monkeypatch,
                           ["export", "--catalog", entry.name])
        assert code == 0, entry.name
        code, out2, _ = run(capsys, monkeypatch, ["import"], stdin=out)
        assert code == 0, entry.name
        assert arrangement_from_json(json.loads(out2)) == \
            arrangement_from_json(json.loads(out)), entry.name


def test_exit_codes(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["catalog", "build", "nope"])
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, monkeypatch,
                       ["catalog", "build", "flashing3", "--param", "t=2"])
    assert code == 1 and "degenerate" in err
    code, _, err = run(capsys, monkeypatch, ["apply", "--op", "Q{2}"],
                       stdin="{}")
    assert code == 2
    code, _, err = run(capsys, monkeypatch, ["apply", "--op", "L{2;3}"],
                       stdin="not json")
    assert code == 1


def test_reducible_modulus_is_a_domain_error(capsys, monkeypatch):
    # x^5+x^4+1 = (x^2+x+1)(x^3+x+1) has no root in GF(2)
    code, out, err = run(capsys, monkeypatch,
                         ["catalog", "build", "complete-quadrilateral",
                          "--param", "field=GF(32;x^5+x^4+1)"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, doc", [
    (["import"], "5"),
    (["profile"], '{"field": "Q", "lines": 5}'),
    (["import"], '{"field": "Q", "lines": [[1, "a", 0]]}'),
    (["profile"], '{"field": 7, "lines": []}'),
    (["conics", "--min", "5"], '{"field": "Q", "points": ["100", "010"]}'),
])
def test_malformed_document_is_a_domain_error(capsys, monkeypatch, argv, doc):
    code, out, err = run(capsys, monkeypatch, argv, stdin=doc)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_python_dash_m():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lineops.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for module in ("lineops", "lineops.cli"):
        res = subprocess.run([sys.executable, "-m", module, "catalog", "list"],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert res.returncode == 0, (module, res.stderr)
        assert "dual-hesse" in res.stdout and "wiman [heavy]" in res.stdout, \
            module
