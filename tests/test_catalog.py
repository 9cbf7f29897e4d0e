import warnings
from fractions import Fraction

import pytest

from lineops import arrangements
from lineops.arrangements import (arrangements_equivalent, lambda_op,
                                  lines_operator, profile, sel_at_least,
                                  sel_exact)
from lineops.catalog import (CatalogError, DegenerateParameterError,
                             ProfileMismatchError, build, build_lines,
                             cos_field, entries, generic_points_on_conic,
                             get_entry, minpoly_2cos, pappus_base_points,
                             regular_hexagon_points)



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


def test_polygonal_profiles_more():
    assert profile(build("polygonal", n=8)).as_dict() == {2: 4, 3: 6, 4: 1}
    assert profile(build("polygonal", n=14)).as_dict() == {2: 7, 3: 21, 7: 1}
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
