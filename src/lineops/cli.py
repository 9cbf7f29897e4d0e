"""Command-line interface: build, apply, iterate, check, render, export.

Subcommands read and write the JSON documents of the arrangement layer, so
`catalog build ... | apply ... | profile` pipelines compose.  Exit codes:
0 success, 1 domain error or unreadable/unwritable file (one-line reason on
stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arrangements import (Arrangement, ArrangementError, _classify,
                           _inequalities, arrangement_from_json,
                           arrangement_to_json, dump_json, freeness_necessary,
                           h_constant, lines_from_json, parse_selector,
                           point_config_from_json, profile,
                           arrangements_equivalent)
from .catalog import CatalogError, build, entries, get_entry
from .dynamics import (DEFAULT_MAX_LINES, DEFAULT_MAX_STEPS,
                       DEFAULT_PROFILE_BUDGET, apply_operator, dual_spec,
                       lambda_spec, run_sequence, trace_table, trace_to_json)
from .fields import FieldError
from .matroids import (extract_matroid, matroid_from_json, matroid_isomorphic,
                       matroid_to_json)
from .projective import GeometryError, rich_conics
from .render import RenderSpec, render_svg

DOMAIN_ERRORS = (ArrangementError, CatalogError, FieldError, GeometryError,
                 NotImplementedError, OSError)


class UsageError(Exception):
    pass


def parse_operator_expr(text: str):
    """`L{nsel;msel}`, `L{sel}`, `D{sel}`, composed with `.` or the ring sign.

    Selectors are comma lists of integers and/or `>=k`.  A chain is applied
    right-to-left, as composition.
    """
    t = text.replace("∘", ".").replace(" ", "")
    chain = []
    pos = 0
    while pos < len(t):
        ch = t[pos]
        if ch == ".":
            pos += 1
            continue
        if ch not in ("L", "D"):
            raise UsageError(f"operator must start with L or D at {t[pos:]!r}")
        if pos + 1 >= len(t) or t[pos + 1] != "{":
            raise UsageError(f"missing '{{' in operator {text!r}")
        end = t.find("}", pos)
        if end < 0:
            raise UsageError(f"missing '}}' in operator {text!r}")
        body = t[pos + 2:end]
        try:
            if ch == "L":
                if ";" in body:
                    n_text, m_text = body.split(";", 1)
                    spec = lambda_spec(parse_selector(n_text), parse_selector(m_text))
                else:
                    sel = parse_selector(body)
                    spec = lambda_spec(sel, sel)
            else:
                spec = dual_spec(parse_selector(body))
        except (ArrangementError, ValueError) as e:
            raise UsageError(f"bad selector in {text!r}: {e}")
        chain.append(spec)
        pos = end + 1
    if not chain:
        raise UsageError("empty operator expression")
    return chain[0] if len(chain) == 1 else tuple(chain)


def _read_doc(path):
    if path in (None, "-"):
        data = sys.stdin.read()
    else:
        with open(path) as fh:
            data = fh.read()
    try:
        return json.loads(data)
    except json.JSONDecodeError as e:
        raise ArrangementError(f"bad JSON input: {e}")


def _load_arrangement(args) -> Arrangement:
    if getattr(args, "catalog", None):
        return build(args.catalog, degenerate_ok=getattr(args, "degenerate_ok", False),
                     **_catalog_params(args))
    return arrangement_from_json(_read_doc(getattr(args, "input", None)))


def _catalog_params(args) -> dict:
    params = {}
    for item in getattr(args, "param", []) or []:
        if "=" not in item:
            raise UsageError(f"catalog parameter must be name=value, got {item!r}")
        k, v = item.split("=", 1)
        params[k] = v
    return params


def _emit(text: str):
    sys.stdout.write(text)


def _fmt_fraction(x, approx):
    s = f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if approx:
        s += f" ({float(x):.{approx}f})"
    return s


# ---------------------------------------------------------------------------
# subcommands

def cmd_catalog(args):
    if args.action == "list":
        for e in entries():
            tag = " [heavy]" if e.heavy else ""
            _emit(f"{e.name}{tag}\n")
        return 0
    if args.name is None:
        raise UsageError(f"catalog {args.action} needs an entry name")
    if args.action == "show":
        e = get_entry(args.name)
        _emit(f"name: {e.name}\nsummary: {e.summary}\n")
        if e.params:
            _emit("parameters:\n")
            for n, kind, default in e.params:
                _emit(f"  {n} ({kind}, default {default})\n")
        if e.expected is not None:
            want = e.expected(e.default_params())
            if want:
                body = ", ".join(f"t{k}={v}" for k, v in sorted(want.items()))
                _emit(f"expected profile (defaults): {body}\n")
        if e.forbidden is not None:
            msg = e.forbidden(e.default_params())
            _emit("degenerate parameters are refused "
                  "(--degenerate-ok overrides)\n" if msg is None else
                  f"default parameters are degenerate: {msg}\n")
        if e.heavy:
            _emit("heavy: yes (long build)\n")
        return 0
    # build
    arr = build(args.name, degenerate_ok=args.degenerate_ok,
                **_catalog_params(args))
    _emit(dump_json(arrangement_to_json(arr)))
    return 0


def cmd_apply(args):
    op = parse_operator_expr(args.op)
    arr = _load_arrangement(args)
    out = apply_operator(op, arr)
    _emit(dump_json(arrangement_to_json(out)))
    return 0


def cmd_seq(args):
    if args.steps < 1 or args.max_lines < 1 or args.profile_budget < 0:
        raise UsageError("--steps and --max-lines must be >= 1, --profile-budget >= 0")
    op = parse_operator_expr(args.op)
    arr = _load_arrangement(args)
    trace = run_sequence(op, arr, max_steps=args.steps,
                         max_lines=args.max_lines,
                         profile_budget=args.profile_budget)
    if args.json:
        _emit(dump_json(trace_to_json(trace)))
    else:
        _emit(trace_table(trace))
    return 0


def cmd_profile(args):
    if args.approx < 0:
        raise UsageError("--approx must be at least 0")
    arr = _load_arrangement(args)
    prof = profile(arr)
    _emit(prof.text() + "\n")
    if prof.total_points:
        _emit("H = " + _fmt_fraction(h_constant(prof), args.approx) + "\n")
    return 0


def cmd_check(args):
    arr = _load_arrangement(args)
    real = args.real if args.real is not None else arr.field.spec.text == "Q"
    prof = profile(arr)  # one pair pass serves every line below
    rep = _inequalities(len(arr), prof, arr.field, real)
    _emit(f"classification: {_classify(len(arr), prof, arr.field)}\n")
    for chk in rep.checks():
        slack = "n/a" if chk.slack is None else _fmt_fraction(chk.slack, 0)
        flag = "applies" if chk.applicable else "informational"
        note = f"  [{chk.note}]" if chk.note else ""
        _emit(f"{chk.name}: slack {slack} ({flag}){note}\n")
    roots = freeness_necessary(prof)
    if roots is None:
        _emit("freeness root test: no integer roots\n")
    else:
        _emit(f"freeness root test: roots {roots[0]}, {roots[1]}\n")
    return 0


def cmd_equiv(args):
    a = arrangement_from_json(_read_doc(args.a))
    b = arrangement_from_json(_read_doc(args.b))
    witness = arrangements_equivalent(a, b)
    if witness is None:
        _emit("not equivalent\n")
        return 0
    rows = witness.matrix.scaled_canonical().rows
    _emit("equivalent; witness matrix rows:\n")
    for row in rows:
        _emit("  [" + ", ".join(str(e) for e in row) + "]\n")
    return 0


def cmd_matroid(args):
    if args.action == "extract":
        field, lines = lines_from_json(_read_doc(args.input))
        m = extract_matroid(lines)
        _emit(dump_json(matroid_to_json(m)))
        return 0
    ma = matroid_from_json(_read_doc(args.a))
    mb = matroid_from_json(_read_doc(args.b))
    bij = matroid_isomorphic(ma, mb)
    if bij is None:
        _emit("not isomorphic\n")
    else:
        _emit("isomorphic; bijection " + " ".join(map(str, bij)) + "\n")
    return 0


def cmd_conics(args):
    cfg = point_config_from_json(_read_doc(args.input))
    found = rich_conics(list(cfg.points), args.min)
    out = []
    for rc in found:
        out.append({
            "coefficients": [str(c) for c in rc.conic.coeffs],
            "points": rc.count,
            "irreducible": rc.irreducible,
        })
    _emit(dump_json({"field": cfg.field.spec.text, "conics": out}))
    return 0


def cmd_render(args):
    layers = []
    if args.catalog:
        layers.append(build(args.catalog, **_catalog_params(args)))
    for path in args.input or []:
        layers.append(arrangement_from_json(_read_doc(path)))
    if not layers:
        raise UsageError("render needs --catalog or --in")
    try:
        window = tuple(Fraction(v) for v in args.window.split(","))
    except (ValueError, ZeroDivisionError):
        window = ()
    if len(window) != 4:
        raise UsageError("window must be four numbers x0,x1,y0,y1")
    spec = RenderSpec(window=window, chart=args.chart,
                      root_index=args.root_index,
                      mark_points=not args.no_marks)
    result = render_svg(layers, spec)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.svg)
    else:
        _emit(result.svg)
    skipped = sum(result.omitted)
    if skipped:
        print(f"omitted {skipped} line(s) not visible on this chart",
              file=sys.stderr)
    return 0


def cmd_export(args):
    arr = build(args.catalog, **_catalog_params(args))
    doc = dump_json(arrangement_to_json(arr))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
    else:
        _emit(doc)
    return 0


def cmd_import(args):
    arr = arrangement_from_json(_read_doc(args.input))
    _emit(dump_json(arrangement_to_json(arr)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lineops",
        description="exact line arrangements, incidence operators, dynamics")
    sub = p.add_subparsers(dest="command", required=True)

    def add_source(sp, with_catalog=True):
        if with_catalog:
            sp.add_argument("--catalog", help="catalog entry name")
            sp.add_argument("--param", action="append", metavar="NAME=VALUE",
                            help="catalog parameter (repeatable)")
            sp.add_argument("--degenerate-ok", action="store_true",
                            dest="degenerate_ok",
                            help="allow forbidden catalog parameters")
        sp.add_argument("--in", dest="input", metavar="FILE",
                        help="JSON input file ('-' for stdin; default stdin)")

    sp = sub.add_parser("catalog", help="list, show or build named arrangements")
    sp.add_argument("action", choices=["list", "show", "build"])
    sp.add_argument("name", nargs="?")
    sp.add_argument("--param", action="append", metavar="NAME=VALUE")
    sp.add_argument("--degenerate-ok", action="store_true", dest="degenerate_ok")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("apply", help="apply an operator expression")
    sp.add_argument("--op", required=True, help='e.g. "L{>=2;>=3}" or "D{2}"')
    add_source(sp)
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("seq", help="iterate an operator, print the trace")
    sp.add_argument("--op", required=True)
    sp.add_argument("--steps", type=int, default=DEFAULT_MAX_STEPS)
    sp.add_argument("--max-lines", type=int, default=DEFAULT_MAX_LINES,
                    dest="max_lines")
    sp.add_argument("--profile-budget", type=int,
                    default=DEFAULT_PROFILE_BUDGET, dest="profile_budget")
    sp.add_argument("--json", action="store_true")
    add_source(sp)
    sp.set_defaults(func=cmd_seq)

    sp = sub.add_parser("profile", help="singularity profile and H-constant")
    sp.add_argument("--approx", type=int, default=4,
                    help="decimal places for the H approximation "
                    "(0: the exact H only)")
    add_source(sp)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("check", help="inequality slacks, freeness, class")
    real = sp.add_mutually_exclusive_group()
    real.add_argument("--real", dest="real", action="store_true", default=None)
    real.add_argument("--no-real", dest="real", action="store_false")
    add_source(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("equiv", help="projective equivalence of two files")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("matroid", help="extract or compare matroids")
    sp.add_argument("action", choices=["extract", "iso"])
    sp.add_argument("--in", dest="input", metavar="FILE")
    sp.add_argument("--a", dest="a", metavar="FILE")
    sp.add_argument("--b", dest="b", metavar="FILE")
    sp.set_defaults(func=cmd_matroid)

    sp = sub.add_parser("conics", help="conics through many points of a config")
    sp.add_argument("--min", type=int, required=True)
    sp.add_argument("--in", dest="input", metavar="FILE")
    sp.set_defaults(func=cmd_conics)

    sp = sub.add_parser("render", help="SVG drawing of arrangements")
    sp.add_argument("--catalog")
    sp.add_argument("--param", action="append", metavar="NAME=VALUE")
    sp.add_argument("--in", dest="input", action="append", metavar="FILE")
    sp.add_argument("--out", metavar="FILE")
    sp.add_argument("--window", default="-2,2,-2,2")
    sp.add_argument("--chart", default="z", choices=["x", "y", "z"])
    sp.add_argument("--root-index", type=int, default=0, dest="root_index")
    sp.add_argument("--no-marks", action="store_true", dest="no_marks")
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("export", help="build a catalog entry to JSON")
    sp.add_argument("--catalog", required=True)
    sp.add_argument("--param", action="append", metavar="NAME=VALUE")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("import", help="validate and canonicalize a JSON file")
    sp.add_argument("--in", dest="input", metavar="FILE")
    sp.set_defaults(func=cmd_import)

    return p


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
