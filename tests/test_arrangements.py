import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from lineops.arrangements import (Arrangement, ArrangementError,
                                  _from_key, _pair_counts, _pair_index,
                                  MultiplicitySelector, PointConfig,
                                  SingularityProfile, all_projective_lines,
                                  arrangement_from_json, arrangement_to_json,
                                  arrangements_equivalent, classify_degenerate,
                                  dual_lines_op, dualize_arrangement,
                                  freeness_necessary, h_constant,
                                  incidence_index, inequality_report,
                                  is_km_configuration, configuration_connected,
                                  lambda_op, lambda_decomposition_check,
                                  lines_from_json, lines_operator,
                                  make_arrangement, parse_selector,
                                  point_config_from_json, point_config_to_json,
                                  points_operator, profile, property_suite,
                                  psi_op, sel_at_least, sel_exact)
from lineops.catalog import build
from lineops.fields import GF, QQ
from lineops.projective import ProjLine, ProjPoint, join, line, meet, point

F = QQ()


def complete_quadrilateral():
    pts = [point(F, 1, 0, 0), point(F, 0, 1, 0), point(F, 0, 0, 1),
           point(F, 1, 1, 1)]
    return Arrangement(F, [join(a, b) for a, b in combinations(pts, 2)])


def generic_lines(n, seed=1):
    return build("generic", n=n, seed=seed)


# -- selectors ---------------------------------------------------------------

def test_selector_membership_and_text():
    s = parse_selector("2,3")
    assert s.contains(2) and s.contains(3) and not s.contains(4)
    s2 = parse_selector(">=3")
    assert not s2.contains(2) and s2.contains(3) and s2.contains(99)
    s3 = parse_selector("2,>=5")
    assert s3.contains(2) and not s3.contains(4) and s3.contains(7)
    assert parse_selector(s3.text) == s3
    assert parse_selector(">=2,>=2") == sel_at_least(2)


def test_selector_validation():
    with pytest.raises(ArrangementError):
        MultiplicitySelector()
    with pytest.raises(ArrangementError):
        sel_exact(1)
    with pytest.raises(ArrangementError):
        sel_at_least(1)
    with pytest.raises(ArrangementError):
        sel_at_least(3).members()


# -- construction ------------------------------------------------------------

def test_make_arrangement_dedup():
    arr, dropped = make_arrangement([(1, 0, 0), (2, 0, 0), (0, 1, 0)], F)
    assert len(arr) == 2 and dropped == 1
    with pytest.raises(Exception):
        make_arrangement([(0, 0, 0)], F)


def test_sets_hold_one_member_type():
    pts = [point(F, 1, 0, 0), point(F, 0, 1, 0)]
    with pytest.raises(ArrangementError):
        Arrangement(F, pts)
    with pytest.raises(ArrangementError):
        PointConfig(F, [line(F, 1, 0, 0)])
    with pytest.raises(ArrangementError):
        Arrangement(F, [line(F, 1, 0, 0), pts[0]])
    assert point(F, 1, 2, 3) != line(F, 1, 2, 3)
    assert len({point(F, 1, 2, 3), line(F, 1, 2, 3)}) == 2


def test_dualize_twice_is_identity():
    for arr in (complete_quadrilateral(), build("dual-hesse"),
                _sample_of_plane(7, 12), Arrangement(F)):
        cfg = dualize_arrangement(arr)
        assert isinstance(cfg, PointConfig)
        assert [p.coords for p in cfg.points] == [l.coeffs for l in arr.lines]
        assert dualize_arrangement(cfg) == arr


def test_set_equality_is_order_independent():
    a1, _ = make_arrangement([(1, 0, 0), (0, 1, 0)], F)
    a2, _ = make_arrangement([(0, 1, 0), (3, 0, 0)], F)
    assert a1 == a2 and hash(a1) == hash(a2)


# -- incidence index and operators -------------------------------------------

def test_incidence_index_triangle():
    tri, _ = make_arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1)], F)
    idx = incidence_index(tri)
    assert len(idx.entries) == 3
    assert all(len(s) == 2 for _, s in idx.entries)


def test_incidence_index_quadrilateral_and_pencil():
    cq = complete_quadrilateral()
    idx = incidence_index(cq)
    mults = sorted(len(s) for _, s in idx.entries)
    assert mults == [2, 2, 2, 3, 3, 3, 3]
    pencil, _ = make_arrangement([(1, k, 0) for k in range(5)], F)
    idx2 = incidence_index(pencil)
    assert len(idx2.entries) == 1 and len(idx2.entries[0][1]) == 5


def _sample_of_plane(q, n):
    lines = all_projective_lines(GF(q)).lines
    return Arrangement(GF(q), random.Random(7).sample(lines, n))


KERNEL_INPUTS = {
    "Q": lambda: lambda_op(sel_at_least(2), sel_at_least(2), lambda_op(
        sel_at_least(2), sel_at_least(2), complete_quadrilateral())),
    "Q(omega)": lambda: build("dual-hesse"),
    "cubic": lambda: build("grunbaum-rigby"),
    "GF(7)": lambda: _sample_of_plane(7, 25),
    "GF(49)": lambda: _sample_of_plane(49, 40),
}


@pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
def test_pair_kernel_matches_single_meets_and_joins(name):
    """The pair kernel groups exactly as meet/join of each pair does."""
    arr = KERNEL_INPUTS[name]()
    field = arr.field
    for objs, op, cls in ((arr.lines, meet, ProjPoint),
                          (dualize_arrangement(arr).points, join, ProjLine)):
        want_index, want_counts = {}, {}
        for i, j in combinations(range(len(objs)), 2):
            o = op(objs[i], objs[j])
            want_index.setdefault(o, set()).update((i, j))
            want_counts[o] = want_counts.get(o, 0) + 1
        idx = _pair_index(objs, field)
        got = {_from_key(cls, k, field): s for k, s in idx.items()}
        assert len(got) == len(idx) and got == want_index
        counts = _pair_counts(objs, field)
        got = {_from_key(cls, k, field): c for k, c in counts.items()}
        assert len(got) == len(counts) and got == want_counts


def test_points_operator_examples():
    cq = complete_quadrilateral()
    assert len(points_operator(sel_at_least(2), cq)) == 7
    pencil, _ = make_arrangement([(1, k, 0) for k in range(4)], F)
    assert len(points_operator(sel_at_least(2), pencil)) == 1
    single, _ = make_arrangement([(1, 0, 0)], F)
    assert points_operator(sel_at_least(2), single).is_empty()


def test_lines_operator_examples():
    cq = complete_quadrilateral()
    p7 = points_operator(sel_at_least(2), cq)
    assert lines_operator(sel_at_least(3), p7) == cq
    tri = PointConfig(F, [point(F, 0, 0, 1), point(F, 1, 0, 1),
                          point(F, 0, 1, 1)])
    assert len(lines_operator(sel_exact(2), tri)) == 3
    assert lines_operator(sel_exact(2), PointConfig(F)).is_empty()


def test_grid_exact_2_3():
    grid = build("grid6")
    img = lambda_op(sel_exact(2), sel_exact(3), grid)
    extra = set(img.lines) - set(grid.lines)
    assert len(img) == 8
    assert extra == {line(F, 1, -1, 0), line(F, 1, 1, 0)}


def test_operator_monotone_in_selector():
    rng = random.Random(4)
    arr = generic_lines(6, seed=2)
    small = points_operator(sel_exact(2), arr)
    big = points_operator(sel_at_least(2), arr)
    assert set(small.points) <= set(big.points)
    cq = complete_quadrilateral()
    assert set(lambda_op(sel_exact(3), sel_exact(3), cq).lines) <= \
        set(lambda_op(sel_at_least(2), sel_at_least(2), cq).lines)


def test_duality_conjugation_random():
    for seed in (1, 3, 5):
        arr = generic_lines(5, seed=seed)
        for nsel, msel in ((sel_exact(2), sel_exact(2)),
                           (sel_at_least(2), sel_at_least(2))):
            lhs = dualize_arrangement(lambda_op(nsel, msel, arr))
            rhs = psi_op(nsel, msel, dualize_arrangement(arr))
            assert lhs == rhs


def test_dual_relation_composition():
    # D_n . D_m = Lambda_{m,n} on small arrangements
    arr = complete_quadrilateral()
    for nsel, msel in ((sel_at_least(2), sel_at_least(3)),
                       (sel_exact(2), sel_exact(3))):
        direct = lambda_op(msel, nsel, arr)
        via_dual = dual_lines_op(nsel, dual_lines_op(msel, arr))
        assert direct == via_dual


def test_decomposition_check():
    sel23 = MultiplicitySelector(exact=frozenset({2, 3}))
    assert lambda_decomposition_check(sel23, sel23, complete_quadrilateral())
    dh = build("dual-hesse")
    assert lambda_decomposition_check(
        sel_exact(3), MultiplicitySelector(exact=frozenset({3, 4})), dh)
    arr = generic_lines(8, seed=6)
    assert lambda_decomposition_check(sel23, sel_exact(2), arr)
    with pytest.raises(ArrangementError):
        lambda_decomposition_check(sel_at_least(2), sel23, arr)
    # the identity genuinely fails for non-singleton point selectors:
    # each grid line meets 4 points of P_{{2,3}} but exactly 3 of P_{{2}}
    assert not lambda_decomposition_check(sel23, sel23, build("grid6"))
    for m in (2, 3):
        assert lambda_decomposition_check(sel_exact(m), sel23, build("grid6"))


def test_empty_propagation():
    empty = Arrangement(F)
    assert lambda_op(sel_at_least(2), sel_at_least(2), empty).is_empty()
    assert dual_lines_op(sel_exact(2), empty).is_empty()
    assert psi_op(sel_exact(2), sel_exact(2), PointConfig(F)).is_empty()


# -- profiles and invariants --------------------------------------------------

def test_profile_quadrilateral():
    prof = profile(complete_quadrilateral())
    assert prof.as_dict() == {2: 3, 3: 4}
    assert h_constant(prof) == Fraction(-12, 7)


def test_profile_consistency_assertion():
    with pytest.raises(ArrangementError):
        SingularityProfile.from_dict(6, {2: 16})


def test_h_constant_cases():
    two, _ = make_arrangement([(1, 0, 0), (0, 1, 0)], F)
    assert h_constant(profile(two)) == 0
    single, _ = make_arrangement([(1, 0, 0)], F)
    with pytest.raises(ArrangementError):
        h_constant(profile(single))
    l2 = SingularityProfile.from_dict(25, {2: 60, 3: 24, 4: 3, 6: 10})
    assert h_constant(l2) == Fraction(-239, 97)


def test_freeness_roots():
    assert freeness_necessary(SingularityProfile.from_dict(12, {2: 12, 4: 9})) == (4, 7)
    assert freeness_necessary(SingularityProfile.from_dict(4, {2: 6})) is None
    assert freeness_necessary(SingularityProfile.from_dict(3, {3: 1})) == (0, 2)


def test_classify():
    assert classify_degenerate(Arrangement(F)) == "empty"
    pencil, _ = make_arrangement([(1, k, 0) for k in range(5)], F)
    assert classify_degenerate(pencil) == "trivial"
    qt = build("quasi-trivial", n=4)
    assert classify_degenerate(qt) == "quasi-trivial"
    fano = build("finite-plane", q=2)
    assert classify_degenerate(fano) == "finite-plane"
    assert classify_degenerate(complete_quadrilateral()) == "other"
    tri = build("generic", n=3)
    assert classify_degenerate(tri) == "quasi-trivial"


def test_inequality_report_quadrilateral():
    rep = inequality_report(complete_quadrilateral(), real=True)
    assert rep.melchior.slack == 0 and rep.melchior.applicable
    assert rep.hirzebruch.slack == 1 and rep.hirzebruch.applicable
    assert rep.de_bruijn_erdos.slack == 1
    assert rep.simplicial.slack == 0


def test_inequality_report_hesse_simplicial():
    rep = inequality_report(build("hesse"), real=False)
    assert rep.simplicial.slack == 0
    assert not rep.melchior.applicable


def test_inequality_report_finite_plane_informational():
    arr = all_projective_lines(GF(4))
    rep = inequality_report(arr, real=False)
    assert rep.hirzebruch.slack == -42
    assert not rep.hirzebruch.applicable


def test_km_configuration():
    fano = build("finite-plane", q=2)
    assert is_km_configuration(fano, 3, 3) == (True, 7, 7)
    pap = build("pappus")
    assert is_km_configuration(pap, 3, 3) == (True, 9, 9)
    gen = generic_lines(5, seed=1)
    ok, r, s = is_km_configuration(gen, 2, 4)
    assert ok and r == comb(5, 2) and s == 5
    assert configuration_connected(fano, 3)
    assert configuration_connected(pap, 3)


def test_km_configuration_closure():
    # a [k, m]-configuration is contained in its own exact-(k, m) image
    cases = [(build("finite-plane", q=2), 3, 3), (build("pappus"), 3, 3),
             (generic_lines(5, seed=1), 2, 4), (build("hesse"), 4, 3)]
    for arr, k, m in cases:
        ok, _, _ = is_km_configuration(arr, k, m)
        assert ok
        img = lambda_op(sel_exact(k), sel_exact(m), arr)
        assert set(arr.lines) <= set(img.lines)


def test_ceva_per_line_structure():
    # every line of ceva(n) carries n triple points plus one n-point;
    # for n = 3 those classes merge, giving 4 triple points per line
    ok, r, s = is_km_configuration(build("ceva", n=3), 3, 4)
    assert ok and r == 12 and s == 9
    for n in (4, 5):
        cv = build("ceva", n=n)
        ok, r, s = is_km_configuration(cv, 3, n)
        assert ok and r == n * n and s == 3 * n


def test_de_bruijn_erdos_on_builds():
    for name in ("complete-quadrilateral", "grid6", "pappus", "dual-hesse"):
        arr = build(name)
        assert profile(arr).total_points >= len(arr)


def test_property_suite_clean_on_catalog():
    for name in ("complete-quadrilateral", "grid6", "pappus", "maclane"):
        for check, ok, detail in property_suite(build(name)):
            assert ok, (name, check, detail)


# -- json --------------------------------------------------------------------

def test_json_roundtrip_fields():
    samples = [
        complete_quadrilateral(),
        build("dual-hesse"),
        build("finite-plane", q=3),
        build("klein"),
    ]
    for arr in samples:
        doc = arrangement_to_json(arr)
        again = arrangement_from_json(doc)
        assert again == arr


def test_json_point_config_roundtrip():
    cfg = dualize_arrangement(build("grid6"))
    doc = point_config_to_json(cfg)
    assert point_config_from_json(doc) == cfg


def test_json_preserves_labelling_order():
    doc = {"field": "Q", "lines": [["0", "1", "0"], ["1", "0", "0"]]}
    field, lines = lines_from_json(doc)
    assert lines[0] == line(F, 0, 1, 0)
    assert lines[1] == line(F, 1, 0, 0)


def test_json_errors():
    with pytest.raises(ArrangementError):
        arrangement_from_json({"lines": []})
    with pytest.raises(ArrangementError):
        arrangement_from_json({"field": "Q", "lines": [["1", "0"]]})
    with pytest.raises(ArrangementError):
        point_config_from_json({"field": "Q", "points": [["1", "0"]]})
    with pytest.raises(ArrangementError):
        point_config_from_json({"field": "Q", "points": ["100"]})


def _satisfies_P(p6):
    """Six points whose connecting lines have exactly six triple points,
    not inscribed in a conic."""
    from lineops.projective import common_conic
    joins = lines_operator(sel_exact(2), p6)
    triples = points_operator(sel_exact(3), joins)
    if len(triples) != 6:
        return False
    return common_conic(list(p6.points)) is None


def test_psi_preserves_property_P():
    # the dual view of the six-line family with 15 nodes: Psi_{2,3} carries
    # a property-(P) hexad to a property-(P) hexad
    p6 = dualize_arrangement(build("unassuming"))
    assert _satisfies_P(p6)
    image = psi_op(sel_exact(2), sel_exact(3), p6)
    assert len(image) == 6
    assert _satisfies_P(image)


def test_psi_brianchon_point():
    from lineops.catalog import circumscribed_hexagon_vertices
    verts = circumscribed_hexagon_vertices()
    assert len(psi_op(sel_exact(2), sel_exact(3), verts)) == 1
    assert psi_op(sel_exact(2), sel_exact(2), PointConfig(F)).is_empty()


def test_equivalence_reflexive_symmetric_on_catalog():
    from lineops.projective import apply_projectivity
    for name in ("trivial", "quasi-trivial", "complete-quadrilateral",
                 "grid6", "dual-hesse", "hesse", "klein"):
        arr = build(name)
        assert len(arr) <= 21
        w = arrangements_equivalent(arr, arr)
        assert w is not None, name
        # symmetry through the witness inverse
        back = w.inverse()
        assert {apply_projectivity(back, l) for l in arr.lines} == set(arr.lines)


def test_equivalence_wrapper():
    cq = complete_quadrilateral()
    assert arrangements_equivalent(cq, cq) is not None
    assert arrangements_equivalent(Arrangement(F), Arrangement(F)) is not None
    assert arrangements_equivalent(cq, build("grid6")) is None
