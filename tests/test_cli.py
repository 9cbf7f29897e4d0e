import io
import json
import os
import random
import subprocess
import sys

import pytest

import lineops

from lineops.arrangements import (arrangement_from_json, arrangement_to_json,
                                  dump_json, sel_at_least, sel_exact)
from lineops.catalog import build, entries
from lineops.cli import UsageError, build_parser, parse_operator_expr, run_cli
from lineops.dynamics import (DEFAULT_MAX_LINES, DEFAULT_MAX_STEPS,
                              DEFAULT_PROFILE_BUDGET)
from lineops.matroids import Matroid3, extract_matroid, matroid_to_json


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


def test_check_command_pairs_once(capsys, monkeypatch):
    """check reads the classification, the slacks and the freeness roots
    off one profile: with the catalog build's validation, two row passes
    over the 21 lines in all."""
    from lineops import arrangements
    passes = []
    row_sizes = arrangements._row_sizes

    def counting(codes, field, workers):
        passes.append(len(codes))
        return row_sizes(codes, field, workers)
    monkeypatch.setattr(arrangements, "_row_sizes", counting)
    code, out, _ = run(capsys, monkeypatch,
                       ["check", "--catalog", "grunbaum-rigby"])
    assert code == 0 and passes == [21, 21]
    assert out == (
        "classification: other\n"
        "hirzebruch: slack 49 (applies)\n"
        "melchior: slack 39 (informational)  [not declared real]\n"
        "simplicial: slack -39 (applies)  [zero slack = combinatorially simplicial]\n"
        "de-bruijn-erdos: slack 70 (applies)  [zero slack = near pencil or finite plane]\n"
        "freeness root test: no integer roots\n")


def test_equiv_command(tmp_path, capsys, monkeypatch, same_witness):
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


def _shuffled_matroid_files(tmp_path, q, seed):
    """PG(2,q)'s matroid and a seeded relabeling of it, as JSON files."""
    m = extract_matroid(build("finite-plane", q=q))
    perm = list(range(m.ground))
    random.Random(seed).shuffle(perm)
    moved = Matroid3.from_flats(m.ground, [[perm[i] for i in f] for f in m.flats])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dump_json(matroid_to_json(m)))
    b.write_text(dump_json(matroid_to_json(moved)))
    return m, moved, a, b


def test_matroid_isomorphism_of_pg27(tmp_path, capsys, monkeypatch):
    m, moved, a, b = _shuffled_matroid_files(tmp_path, 7, 1)
    code, out, _ = run(capsys, monkeypatch,
                       ["matroid", "iso", "--a", str(a), "--b", str(b)])
    assert code == 0 and out.startswith("isomorphic; bijection ")
    bij = [int(x) for x in out.split("bijection ")[1].split()]
    assert sorted(bij) == list(range(m.ground))
    assert {tuple(sorted(bij[i] for i in f)) for f in m.flats} == set(moved.flats)


def test_matroid_isomorphism_output_is_hash_seed_independent(tmp_path):
    """The witness of a pair that is not the identity, printed by
    subprocesses under two string-hash seeds, is the same bytes."""
    m, _, a, b = _shuffled_matroid_files(tmp_path, 4, 3)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lineops.__file__)))
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        res = subprocess.run([sys.executable, "-m", "lineops", "matroid", "iso",
                              "--a", str(a), "--b", str(b)],
                             capture_output=True, env=env, timeout=60)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"isomorphic; bijection ")
    assert outs[0].split(b"bijection ")[1].split() != [
        str(i).encode() for i in range(m.ground)]


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


def test_conics_command_in_characteristic_2(capsys, monkeypatch):
    """Over GF(4) the degeneracy test runs: 12 points of PG(2,4) give
    irreducible and degenerate conics, and the command exits 0."""
    from lineops.arrangements import (PointConfig, all_projective_lines,
                                      dualize_arrangement, point_config_to_json)
    from lineops.fields import GF
    pts = list(dualize_arrangement(all_projective_lines(GF(4))).points)[:12]
    doc = dump_json(point_config_to_json(PointConfig(GF(4), pts)))
    code, out, err = run(capsys, monkeypatch, ["conics", "--min", "5"], stdin=doc)
    assert code == 0 and not err
    assert {c["irreducible"] for c in json.loads(out)["conics"]} == {True, False}


def test_render_command(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "grid.svg"
    code, out, err = run(capsys, monkeypatch,
                         ["render", "--catalog", "grid6",
                          "--window=-2,2,-2,2", "--out", str(out_file)])
    assert code == 0
    svg = out_file.read_text()
    assert svg.count("<line") == 6


def test_render_mixed_fields_is_a_domain_error(tmp_path, capsys, monkeypatch):
    """Marks over layers in Q and Q(sqrt 5) are one error line, exit 1;
    with --no-marks the layers are drawn."""
    doc = tmp_path / "poly10.json"
    doc.write_text(dump_json(arrangement_to_json(build("polygonal", n=10))))
    argv = ["render", "--catalog", "pappus", "--in", str(doc)]
    code, out, err = run(capsys, monkeypatch, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "live in different fields" in err
    code, out, _ = run(capsys, monkeypatch, argv + ["--no-marks"])
    assert code == 0 and out.count("<line") > 0


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
    # a file that cannot be read or written is a one-line domain error
    for argv in (["profile", "--in", "/nonexistent"],
                 ["equiv", "/nonexistent", "/nonexistent"],
                 ["render", "--catalog", "pappus",
                  "--out", "/nonexistent/dir/x.svg"]):
        code, out, err = run(capsys, monkeypatch, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    # a bad argument is a usage error, not a traceback
    for argv in (["catalog", "show"], ["catalog", "build"],
                 ["render", "--catalog", "pappus", "--window", "a,b,c,d"],
                 ["render", "--catalog", "pappus", "--window", "1/0,1,0,1"],
                 ["profile", "--catalog", "pappus", "--approx", "-1"],
                 ["seq", "--catalog", "pappus", "--op", "L{2}", "--steps", "0"],
                 ["seq", "--catalog", "pappus", "--op", "L{2}",
                  "--max-lines", "0"]):
        code, out, err = run(capsys, monkeypatch, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage error:") and err.count("\n") == 1, argv


def test_seq_negative_profile_budget_is_a_usage_error(capsys, monkeypatch):
    """A negative --profile-budget is refused as --steps 0 is; 0 profiles
    no step."""
    argv = ["seq", "--catalog", "finite-plane", "--param", "q=4", "--op",
            "L{>=2;>=2}", "--profile-budget"]
    code, out, err = run(capsys, monkeypatch, argv + ["-1"])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    code, out, err = run(capsys, monkeypatch, argv + ["0"])
    assert code == 0 and err == "" and out.count("(skipped)") == 2


def test_profile_approx_places(capsys, monkeypatch):
    """--approx 0 prints the exact H only; the default is four places."""
    outs = {}
    for extra in ([], ["--approx", "0"], ["--approx", "2"]):
        code, out, _ = run(capsys, monkeypatch,
                           ["profile", "--catalog", "dual-hesse"] + extra)
        assert code == 0
        outs[tuple(extra)] = out.splitlines()[-1]
    assert outs[()] == "H = -9/4 (-2.2500)"
    assert outs[("--approx", "0")] == "H = -9/4"
    assert outs[("--approx", "2")] == "H = -9/4 (-2.25)"


def test_seq_budget_defaults_are_the_dynamics_defaults():
    args = build_parser().parse_args(["seq", "--op", "L{2}"])
    assert (args.steps, args.max_lines, args.profile_budget) == (
        DEFAULT_MAX_STEPS, DEFAULT_MAX_LINES, DEFAULT_PROFILE_BUDGET)


def test_reducible_modulus_is_a_domain_error(capsys, monkeypatch):
    # x^5+x^4+1 = (x^2+x+1)(x^3+x+1) has no root in GF(2)
    code, out, err = run(capsys, monkeypatch,
                         ["catalog", "build", "complete-quadrilateral",
                          "--param", "field=GF(32;x^5+x^4+1)"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_malformed_field_order_is_a_domain_error(capsys, monkeypatch):
    # a modulus coefficient 1/2 has no value in characteristic 2
    for spec in ("GF(a)", "GF(4;x^2+x+1/2)"):
        code, out, err = run(capsys, monkeypatch,
                             ["catalog", "build", "complete-quadrilateral",
                              "--param", f"field={spec}"])
        assert code == 1 and out == "", spec
        assert err.startswith("error:") and err.count("\n") == 1, spec


@pytest.mark.parametrize("argv", [
    ["catalog", "build", "ceva", "--param", "n=abc"],
    ["profile", "--catalog", "ceva", "--param", "n=x"],
])
def test_malformed_integer_parameter_is_a_domain_error(capsys, monkeypatch,
                                                        argv):
    code, out, err = run(capsys, monkeypatch, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'n' must be an integer" in err


@pytest.mark.parametrize("argv, doc", [
    (["import"], "5"),
    (["profile"], '{"field": "Q", "lines": 5}'),
    (["import"], '{"field": "Q", "lines": [[1, "a", 0]]}'),
    (["profile"], '{"field": 7, "lines": []}'),
    (["conics", "--min", "5"], '{"field": "Q", "points": ["100", "010"]}'),
    (["matroid", "iso"], '{"ground": 3}'),
    (["matroid", "iso"], '[3]'),
    (["matroid", "iso"], '{"ground": 3, "flats": 5}'),
    # catalog fraction parameters that are neither a fraction nor a scalar
    (["catalog", "build", "flashing3", "--param", "t=abc"], None),
    (["catalog", "build", "flashing3", "--param", "t=1/0"], None),
    (["catalog", "build", "flashing3", "--param", "t=y",
      "--param", "field=Q[x]/(x^2+x+1)"], None),
    (["catalog", "build", "pappus", "--param", "a1=abc"], None),
    (["catalog", "build", "gv13", "--param", "a=abc"], None),
    # a zero denominator inside a field spec
    (["catalog", "build", "complete-quadrilateral",
      "--param", "field=Q[x]/(x^2-1/0)"], None),
    (["catalog", "build", "complete-quadrilateral",
      "--param", "field=GF(4;x^2+x+1/0)"], None),
    # a negative exponent, in a coordinate or in a field spec
    (["import"], '{"field": "Q[x]/(x^2+x+1)", "lines": [["1", "2*x^-1+3", "0"],'
                 ' ["0", "1", "x^-1"]]}'),
    (["catalog", "build", "complete-quadrilateral",
      "--param", "field=Q[x]/(x^2-x^-1+1)"], None),
    # a negative ground size
    (["matroid", "iso"], '{"ground": -3, "flats": []}'),
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
