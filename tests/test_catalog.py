import math
import warnings
from fractions import Fraction

import pytest

from lineops import arrangements
from lineops.arrangements import (arrangements_equivalent, lambda_op,
                                  lines_operator, profile, sel_at_least,
                                  sel_exact)
from lineops.catalog import (CatalogError, DegenerateParameterError,
                             ProfileMismatchError, _polygon_vertices, build,
                             build_lines, cos_field, entries,
                             generic_points_on_conic, get_entry, minpoly_2cos,
                             pappus_base_points, regular_hexagon_points)
from lineops.fields import FieldError, format_scalar, real_embedding



EXPECTED_PROFILES = {
    "trivial": {5: 1},
    "quasi-trivial": {2: 3, 3: 1},
    "generic": {2: 10},
    "complete-quadrilateral": {2: 3, 3: 4},
    "grid6": {2: 9, 3: 2},
    "parallel-pairs6": {2: 15},
    "finite-plane": {4: 13},
    "ceva": {3: 12},
    "ceva-ext": {2: 9, 3: 9, 5: 3},
    "dual-hesse": {3: 12},
    "maclane": {2: 4, 3: 8},
    "hesse": {2: 12, 4: 9},
    "polygonal": {2: 5, 3: 10, 5: 1},
    "polygonal-ext": {2: 6, 3: 4, 4: 3},
    "flashing3": {2: 12, 3: 1},
    "flashing4": {2: 22, 4: 1},
    "unassuming": {2: 15},
    "gv13": {2: 25, 3: 11, 5: 2},
    "pappus": {2: 9, 3: 9},
    "desargues9": {2: 15, 3: 7},
    "hexagon-on-conic": {2: 15},
    "klein": {3: 28, 4: 21},
    "grunbaum-rigby": {2: 63, 3: 7, 4: 21},
}


def test_every_default_build_validates():
    for entry in entries():
        if entry.heavy:
            continue
        arr = build(entry.name)
        assert profile(arr).as_dict() == EXPECTED_PROFILES[entry.name], entry.name


def test_build_lines_order_is_construction_order():
    field, lines = build_lines("gv13")
    assert lines[0].key() == (Fraction(1), Fraction(0), Fraction(0))
    assert len(lines) == 13


def test_unknown_entry_and_params():
    with pytest.raises(CatalogError):
        build("no-such-thing")
    with pytest.raises(CatalogError):
        build("grid6", n=5)
    with pytest.raises(CatalogError):
        build("flashing4", part="c2")


def test_forbidden_parameters():
    for t in (0, 1, -1, Fraction(1, 2), 2):
        with pytest.raises(DegenerateParameterError):
            build("flashing3", t=t)
    with pytest.raises(DegenerateParameterError):
        build("unassuming", t=1)
    with pytest.raises(DegenerateParameterError):
        build("flashing4", t=Fraction(1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        arr = build("flashing3", t=2, degenerate_ok=True)
    assert len(arr) == 6


def test_build_makes_one_arrangement(monkeypatch):
    init = arrangements.Arrangement.__init__
    calls = []

    def counting(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(arrangements.Arrangement, "__init__", counting)
    build("flashing3")
    assert len(calls) == 1


def test_flashing_tau_is_forbidden_in_its_field():
    with pytest.raises(DegenerateParameterError):
        build("flashing3", t="x", field="Q[x]/(x^2-x+1)")


# build_lines of the t-families at t = 7/3 and -2/5 over Q, 3 over GF(7), x
# over GF(9) and (1+i)/2 over Q(i): (entry, part, t, field, then the field
# and each line's coefficients in construction order, or the refusal)
PARAMETRIC_BUILDS = [
    ('flashing3', None, '7/3', None,
     'Q: 0 1 0 | 1 1 1 | 1 7/3 1 | 1 0 0 | 0 0 1 | 1 37/9 7/3'),
    ('flashing3', None, '-2/5', None,
     'Q: 0 1 0 | 1 1 1 | 1 -2/5 1 | 1 0 0 | 0 0 1 | 1 39/25 -2/5'),
    ('flashing3', None, '3', 'GF(7)',
     'DegenerateParameterError: flashing3: t in the degenerate set {0, 1, -1, 1/2, 2, tau, tau^2} (tau^2-tau+1=0)'),
    ('flashing3', None, 'x', 'GF(9)',
     'GF(9;x^2+1): 0 1 0 | 1 1 1 | 1 x 1 | 1 0 0 | 0 0 1 | 1 2*x x'),
    ('flashing3', None, '1/2+1/2*x', 'Q[x]/(x^2+1)',
     'Q[x]/(x^2+1): 0 1 0 | 1 1 1 | 1 1/2*x+1/2 1 | 1 0 0 | 0 0 1 | 1 1/2 1/2*x+1/2'),
    ('flashing4', 'c0', '7/3', None,
     'Q: 1 0 0 | 0 0 1 | 1 65/77 1 | 1 65/98 1/2 | 1 1 1 | 0 1 7/3 | 1 4/7 0 | 1 11/14 1/2'),
    ('flashing4', 'c0', '-2/5', None,
     'Q: 1 0 0 | 0 0 1 | 1 53/18 1 | 1 53/8 1/2 | 1 1 1 | 0 1 -2/5 | 1 7/2 0 | 1 9/4 1/2'),
    ('flashing4', 'c0', '3', 'GF(7)',
     'GF(7): 1 0 0 | 0 0 1 | 1 6 1 | 1 5 4 | 1 1 1 | 0 1 3 | 1 3 0 | 1 2 4'),
    ('flashing4', 'c0', 'x', 'GF(9)',
     'GF(9;x^2+1): 1 0 0 | 0 0 1 | 1 2 1 | 1 x+2 2 | 1 1 1 | 0 1 x | 1 x+1 0 | 1 2*x+1 2'),
    ('flashing4', 'c0', '1/2+1/2*x', 'Q[x]/(x^2+1)',
     'DegenerateParameterError: flashing4: t in the degenerate set {0, 1, -1, 1/2, 2, (1+i)/2, (1-i)/2}'),
    ('flashing4', 'c1', '7/3', None,
     'Q: 1 1 1 | 0 1 7/3 | 1 4/7 0 | 1 11/14 1/2 | 0 1 0 | 1 4/7 4/11 | 1 11/14 11/14 | 1 1 7/3'),
    ('flashing4', 'c1', '-2/5', None,
     'Q: 1 1 1 | 0 1 -2/5 | 1 7/2 0 | 1 9/4 1/2 | 0 1 0 | 1 7/2 7/9 | 1 9/4 9/4 | 1 1 -2/5'),
    ('flashing4', 'c1', '3', 'GF(7)',
     'GF(7): 1 1 1 | 0 1 3 | 1 3 0 | 1 2 4 | 0 1 0 | 1 3 6 | 1 2 2 | 1 1 3'),
    ('flashing4', 'c1', 'x', 'GF(9)',
     'GF(9;x^2+1): 1 1 1 | 0 1 x | 1 x+1 0 | 1 2*x+1 2 | 0 1 0 | 1 x+1 2*x | 1 2*x+1 2*x+1 | 1 1 x'),
    ('flashing4', 'c1', '1/2+1/2*x', 'Q[x]/(x^2+1)',
     'DegenerateParameterError: flashing4: t in the degenerate set {0, 1, -1, 1/2, 2, (1+i)/2, (1-i)/2}'),
    ('flashing4', 'all', '7/3', None,
     'Q: 1 0 0 | 0 0 1 | 1 65/77 1 | 1 65/98 1/2 | 1 1 1 | 0 1 7/3 | 1 4/7 0 | 1 11/14 1/2 | 0 1 0 | 1 4/7 4/11 | 1 11/14 11/14 | 1 1 7/3'),
    ('flashing4', 'all', '-2/5', None,
     'Q: 1 0 0 | 0 0 1 | 1 53/18 1 | 1 53/8 1/2 | 1 1 1 | 0 1 -2/5 | 1 7/2 0 | 1 9/4 1/2 | 0 1 0 | 1 7/2 7/9 | 1 9/4 9/4 | 1 1 -2/5'),
    ('flashing4', 'all', '3', 'GF(7)',
     'GF(7): 1 0 0 | 0 0 1 | 1 6 1 | 1 5 4 | 1 1 1 | 0 1 3 | 1 3 0 | 1 2 4 | 0 1 0 | 1 3 6 | 1 2 2 | 1 1 3'),
    ('flashing4', 'all', 'x', 'GF(9)',
     'GF(9;x^2+1): 1 0 0 | 0 0 1 | 1 2 1 | 1 x+2 2 | 1 1 1 | 0 1 x | 1 x+1 0 | 1 2*x+1 2 | 0 1 0 | 1 x+1 2*x | 1 2*x+1 2*x+1 | 1 1 x'),
    ('flashing4', 'all', '1/2+1/2*x', 'Q[x]/(x^2+1)',
     'DegenerateParameterError: flashing4: t in the degenerate set {0, 1, -1, 1/2, 2, (1+i)/2, (1-i)/2}'),
    ('unassuming', None, '7/3', None,
     'Q: 1 0 0 | 0 1 0 | 0 0 1 | 1 1 1 | 1 -2/5 3/5 | 1 -5/2 -3/2'),
    ('unassuming', None, '-2/5', None,
     'Q: 1 0 0 | 0 1 0 | 0 0 1 | 1 1 1 | 1 7/3 10/3 | 1 3/7 10/7'),
    ('unassuming', None, '3', 'GF(7)',
     'GF(7): 1 0 0 | 0 1 0 | 0 0 1 | 1 1 1 | 1 3 4 | 1 5 6'),
    ('unassuming', None, 'x', 'GF(9)',
     'GF(9;x^2+1): 1 0 0 | 0 1 0 | 0 0 1 | 1 1 1 | 1 2*x 2*x+1 | 1 x x+1'),
    ('unassuming', None, '1/2+1/2*x', 'Q[x]/(x^2+1)',
     'Q[x]/(x^2+1): 1 0 0 | 0 1 0 | 0 0 1 | 1 1 1 | 1 -2/5*x+1/5 -2/5*x+6/5 | 1 2*x+1 2*x+2'),
]


@pytest.mark.parametrize("name, part, t, field, want", PARAMETRIC_BUILDS)
def test_parametric_builds_pinned(name, part, t, field, want):
    params = {k: v for k, v in (("part", part), ("field", field)) if v}
    try:
        F, lines = build_lines(name, t=t, **params)
    except (DegenerateParameterError, FieldError) as e:
        got = f"{type(e).__name__}: {e}"
    else:
        got = F.spec.text + ": " + " | ".join(
            " ".join(format_scalar(c) for c in ln.coeffs) for ln in lines)
    assert got == want


def test_profile_mismatch_reported():
    # a gv13 parameter that degenerates the combinatorics must fail loudly
    with pytest.raises((ProfileMismatchError, DegenerateParameterError)):
        build("gv13", a=1)


def test_generic_certified_nodal():
    for n in (3, 4, 6):
        arr = build("generic", n=n, seed=3)
        from math import comb
        assert profile(arr).as_dict() == {2: comb(n, 2)}


def test_ceva_family(same_witness):
    c2 = build("ceva", n=2)
    cq = build("complete-quadrilateral")
    assert arrangements_equivalent(c2, cq) is not None
    for n in (3, 4):
        cv = build("ceva", n=n)
        assert lambda_op(sel_at_least(3), sel_at_least(3), cv) == cv
        ext = build("ceva-ext", n=n)
        assert lambda_op(sel_at_least(3), sel_at_least(3), ext) == cv


def test_hesse_family_relations():
    dh = build("dual-hesse")
    ml = build("maclane")
    h = build("hesse")
    assert lambda_op(sel_at_least(3), sel_at_least(3), dh) == dh
    assert lambda_op(sel_at_least(3), sel_at_least(4), dh) == dh
    assert lambda_op(sel_at_least(3), sel_at_least(3), ml) == ml
    assert lambda_op(sel_at_least(2), sel_at_least(3), ml) == dh
    assert lambda_op(sel_exact(4), sel_exact(3), h) == h


def test_polygonal_fields():
    F6, c6 = cos_field(6)
    assert F6.spec.text == "Q" and c6.rep == Fraction(1)  # 2cos(pi/3)
    F5, _ = cos_field(5)
    assert F5.degree == 2
    F7, _ = cos_field(7)
    assert F7.degree == 3
    # the shipped heptagon minimal polynomial: x^3 - x^2 - 2x + 1 at 2cos(pi/7)
    assert minpoly_2cos(14) == (1, -2, -1, 1)


def test_minpoly_2cos_matches_sympy():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    for m in range(1, 31):
        want = sympy.Poly(sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / m), y), y)
        assert minpoly_2cos(m) == tuple(int(c) for c in reversed(want.all_coeffs())), m


def test_polygon_vertices_embed_as_the_regular_polygon():
    """Vertex k is (cos 2pi k/m, sin 2pi k/m / sin 2pi/m, 1) under the
    largest real root of the field's modulus, which is 2cos(2pi/m)."""
    for m in range(3, 16):
        F, two_c = cos_field(m)
        root = F.degree - 1  # a totally real field: every root is real
        assert abs(real_embedding(two_c, root) - 2 * math.cos(2 * math.pi / m)) < 1e-9
        verts = _polygon_vertices(F, two_c, m)
        assert len(verts) == m
        for k, v in enumerate(verts):
            x, y, z = (real_embedding(s, root) for s in v)
            a = 2 * math.pi * k / m
            assert z == 1, (m, k)
            assert abs(x - math.cos(a)) < 1e-9, (m, k)
            assert abs(y - math.sin(a) / math.sin(2 * math.pi / m)) < 1e-9, (m, k)


def test_polygonal_profiles_more():
    assert profile(build("polygonal", n=8)).as_dict() == {2: 4, 3: 6, 4: 1}
    assert profile(build("polygonal", n=14)).as_dict() == {2: 7, 3: 21, 7: 1}
    # the 32-gon: Phi_64 lies past every order the cyclotomic fields once capped
    assert profile(build("polygonal", n=64)).as_dict() == {2: 32, 3: 496, 32: 1}
    assert profile(build("polygonal-ext", n=13)).as_dict() == \
        {2: 9, 3: 12, 4: 3, 6: 1}
    with pytest.raises(CatalogError):
        build("polygonal", n=7)
    with pytest.raises(CatalogError):
        build("polygonal-ext", n=11)


def test_conic_points_and_hexagons():
    cfg = generic_points_on_conic(6, seed=1)
    assert len(cfg) == 6
    joins = lines_operator(sel_exact(2), cfg)
    assert profile(joins).as_dict() == {2: 45, 5: 6}
    five = generic_points_on_conic(5, seed=1)
    from lineops.projective import conic_through
    conic = conic_through(list(five.points))
    assert all(conic.contains(p) for p in five.points)
    reg = regular_hexagon_points()
    assert len(reg) == 6 and reg.field.degree == 2


def test_pappus_points_default_matches_builder():
    pts = pappus_base_points()
    l9 = lines_operator(sel_exact(2), pts)
    assert len(l9) == 9
    img = lambda_op(sel_exact(2), sel_exact(3), l9)
    assert len(img) == 6


def test_klein_operator_claims():
    k = build("klein")
    from lineops.arrangements import h_constant
    assert h_constant(profile(k)) == Fraction(-3)
    assert lambda_op(sel_at_least(4), sel_at_least(4), k) == k
    assert lambda_op(sel_at_least(3), sel_at_least(4), k) == k
    img43 = lambda_op(sel_at_least(4), sel_at_least(3), k)
    assert profile(img43).as_dict() == {2: 252, 3: 112, 8: 21}
    assert lambda_op(sel_at_least(4), sel_at_least(4), img43) == k


def test_grunbaum_rigby_basics():
    gr = build("grunbaum-rigby")
    from lineops.arrangements import h_constant, is_km_configuration
    assert h_constant(profile(gr)) == Fraction(-30, 13)
    assert lambda_op(sel_at_least(4), sel_at_least(4), gr) == gr
    assert is_km_configuration(gr, 4, 4) == (True, 21, 21)


def test_wiman_is_heavy():
    assert get_entry("wiman").heavy


def test_catalog_listing():
    names = [e.name for e in entries()]
    assert names == sorted(names)
    assert "klein" in names and "unassuming" in names
