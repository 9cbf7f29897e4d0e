"""Acceptance criteria, one test each, with the stated time budgets.

Every test prints one `ACCEPTANCE <n>: PASS` line (run pytest with -s to
see them); a failing assertion is the FAIL line.  Criterion 1 checks the
step-3 count 1741 of the iterated complete quadrilateral against a small
integer oracle in this file that shares no code with lineops; the 1471 of
the reference table is a digit transposition of 1741.
"""
import os
import time
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from lineops.arrangements import (Arrangement, all_projective_lines,
                                  arrangements_equivalent, dual_lines_op,
                                  dualize_arrangement, freeness_necessary,
                                  h_constant, is_km_configuration, lambda_op,
                                  lines_operator, points_operator, profile,
                                  property_suite, sel_at_least, sel_exact)
from lineops.catalog import (build, build_lines, dual_hesse_triple_points,
                             entries, flashing3_partner_normals,
                             generic_points_on_conic, pappus_base_points,
                             regular_hexagon_points)
from lineops.dynamics import (apply_operator, lambda_spec,
                              orbit_over_finite_field, run_sequence,
                              union_of_steps)
from lineops.fields import GF
from lineops.matroids import extract_matroid
from lineops.projective import (Matrix3, Projectivity, apply_projectivity,
                                common_conic, incident, join, point,
                                rich_conics)

HEAVY = os.environ.get("LINEOPS_HEAVY") == "1"
L22 = lambda_spec(sel_at_least(2), sel_at_least(2))
L23 = lambda_spec(sel_at_least(2), sel_at_least(3))
L33 = lambda_spec(sel_at_least(3), sel_at_least(3))
L32 = lambda_spec(sel_at_least(3), sel_at_least(2))
Lx23 = lambda_spec(sel_exact(2), sel_exact(3))
Lx24 = lambda_spec(sel_exact(2), sel_exact(4))


def _pass(n, t0, budget, note=""):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"
    extra = f" [{note}]" if note else ""
    print(f"\nACCEPTANCE {n}: PASS ({elapsed:.1f}s < {budget}s){extra}")


# --- criterion 1 oracle: integer triples only, nothing from lineops ---

def _prim(v):
    """Primitive integer triple: divided by its gcd, first nonzero > 0."""
    g = gcd(*v)
    v = tuple(x // g for x in v)
    return v if next(x for x in v if x) > 0 else tuple(-x for x in v)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _oracle_incidence(objs):
    """Meet (or join) every pair of distinct primitive triples: key -> the
    members through it."""
    table = {}
    for a, b in combinations(objs, 2):
        table.setdefault(_prim(_cross(a, b)), set()).update((a, b))
    return table


def _oracle_quadrilateral_l22(steps):
    """Line sets and step profiles of L{>=2;>=2} iterated on the six lines
    through (1,0,0), (0,1,0), (0,0,1), (1,1,1).  Every meet of two lines
    has multiplicity >= 2 and every join of two points holds >= 2 of
    them, so a step is the join table of the meet table."""
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    lines = {_prim(_cross(a, b)) for a, b in combinations(frame, 2)}
    line_sets, profiles = [lines], []
    for _ in range(steps):
        points = _oracle_incidence(sorted(lines))
        profiles.append(Counter(len(m) for m in points.values()))
        joins = _oracle_incidence(sorted(points))
        # each pair of points lies on exactly one of the joined lines
        assert sum(len(m) * (len(m) - 1) // 2 for m in joins.values()) == (
            len(points) * (len(points) - 1) // 2)
        lines = set(joins)
        line_sets.append(lines)
    return line_sets, profiles


def _as_int_triple(l):
    """A ProjLine over Q as its primitive integer triple."""
    q = [c.rep for c in l.coeffs]
    den = lcm(*(f.denominator for f in q))
    return _prim(tuple(int(f * den) for f in q))


def test_criterion_01_quadrilateral_sequence():
    t0 = time.time()
    cq = build("complete-quadrilateral")
    tr = run_sequence(L22, cq, max_steps=3, profile_budget=100)
    assert tr.steps[1].profile.as_dict() == {2: 6, 3: 4, 4: 3}
    assert tr.steps[2].profile.as_dict() == {2: 60, 3: 24, 4: 3, 6: 10}
    hs = [tr.steps[i].h for i in range(3)]
    assert [round(float(h), 3) for h in hs] == [-1.714, -2.077, -2.464]
    elapsed = time.time() - t0
    assert elapsed < 60
    oracle_lines, oracle_profiles = _oracle_quadrilateral_l22(3)
    oracle_counts = [len(s) for s in oracle_lines]
    assert oracle_counts == [6, 9, 25, 1741]
    assert oracle_profiles[1] == {2: 6, 3: 4, 4: 3}
    assert oracle_profiles[2] == {2: 60, 3: 24, 4: 3, 6: 10}
    for i, want in enumerate(oracle_lines):
        assert {_as_int_triple(l) for l in tr.arrangement(i)} == want, (
            f"step {i} line set differs from the integer oracle")
    assert tr.counts() == oracle_counts, (
        "the reference table's step-3 count 1471 is a transposition of "
        "1741, the count of the integer oracle in this file; lineops "
        f"yields {tr.counts()[3]}")
    _pass(1, t0, 60)


def test_criterion_01_computed_baseline():
    # regression pin for the sequence, independent of the oracle above; the
    # reference table's step-3 count 1471 is a transposition of this 1741
    t0 = time.time()
    cq = build("complete-quadrilateral")
    tr = run_sequence(L22, cq, max_steps=3, profile_budget=100)
    assert tr.counts() == [6, 9, 25, 1741]
    _pass("1b", t0, 60, "computed baseline 1741")


def test_criterion_02_parallel_pairs_table():
    t0 = time.time()
    pp = build("parallel-pairs6")
    tr = run_sequence(L23, pp, max_steps=4, profile_budget=200)
    assert tr.counts() == [6, 10, 13, 28, 946]
    assert tr.steps[1].profile.as_dict() == {2: 9, 3: 6, 4: 3}
    assert tr.steps[2].profile.as_dict() == {2: 12, 3: 16, 4: 3}
    assert tr.steps[3].profile.as_dict() == {2: 87, 3: 31, 4: 15, 6: 3, 7: 3}
    _pass(2, t0, 600, "stretch C4=946 included")


def test_criterion_03_dual_hesse_growth():
    t0 = time.time()
    dh = build("dual-hesse")
    tr = run_sequence(L32, dh, max_steps=3, profile_budget=100)
    assert tr.counts() == [9, 21, 57, 7401]
    _pass(3, t0, 600, "stretch count 7401 included")


def test_criterion_04_hesse_family(same_witness):
    t0 = time.time()
    h = build("hesse")
    dh = build("dual-hesse")
    assert apply_operator(L33, h) == h
    assert apply_operator(L33, dh) == dh
    pts = points_operator(sel_exact(3), dh)
    assert pts == dual_hesse_triple_points()
    img = apply_operator(L32, dh)
    assert len(img) == 21
    assert profile(img).as_dict() == {2: 36, 4: 9, 5: 12}
    # the exact-(2,4) image only makes sense from the Hesse side:
    # the dual Hesse has no double points at all
    assert lambda_op(sel_exact(2), sel_exact(4), dh).is_empty()
    nine = lambda_op(sel_exact(2), sel_exact(4), h)
    assert arrangements_equivalent(nine, dh) is not None
    assert freeness_necessary(profile(h)) == (4, 7)
    _pass(4, t0, 30)


def test_criterion_05_flashing_six_lines():
    t0 = time.time()
    for t in (Fraction(3), Fraction(5), Fraction(7, 3)):
        f0 = build("flashing3", t=t)
        tr = run_sequence(Lx23, f0)
        assert tr.verdict.kind == "cycle"
        assert (tr.verdict.preperiod, tr.verdict.period) == (0, 2)
        f1 = tr.arrangement(1)
        new = set(f1.lines) - set(f0.lines)
        want = set(flashing3_partner_normals(f0.field, f0.field.scalar(t)))
        assert new == want
        kept = set(f1.lines) & set(f0.lines)
        assert len(kept) == 3 and len(new) == 3
        union = union_of_steps(tr, 0, 1)
        assert profile(union).as_dict() == {2: 6, 3: 10}
        # the family's involution: gamma acts on the normals
        F = f0.field
        tt = F.scalar(t)
        gamma = Matrix3.from_values(
            F, [[-1, 1, 1 - t], [-t, t, 1 - t], [-t, 1, 0]])
        g = Projectivity(gamma)
        assert g.compose(g).is_identity()
        g_pts = Projectivity(gamma.transpose())
        image = Arrangement(F, [apply_projectivity(g_pts, l) for l in f0])
        assert image == f1
    for t_deg in (Fraction(2), Fraction(1, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f2 = build("flashing3", t=t_deg, degenerate_ok=True)
        img = apply_operator(Lx23, f2)
        assert len(img) == 7
        # computed: nine nodes and four triple points; the extinction that
        # follows is the substantive claim
        assert profile(img).as_dict() == {2: 9, 3: 4}
        assert apply_operator(Lx23, img).is_empty()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ftau = build("flashing3", t="x", field="Q[x]/(x^2-x+1)",
                     degenerate_ok=True)
    image = apply_operator(Lx23, ftau)
    assert profile(image).as_dict() == {3: 12}  # the Ceva(3) profile
    _pass(5, t0, 10)


def test_criterion_06_flashing_duals(same_witness):
    t0 = time.time()
    f0 = build("flashing3")
    a0 = dual_lines_op(sel_exact(2), f0)
    assert len(a0) == 12 and profile(a0).as_dict() == {2: 18, 3: 6, 5: 3}
    tr = run_sequence(lambda_spec(sel_exact(3), sel_exact(2)), a0)
    assert tr.verdict.kind == "cycle"
    assert (tr.verdict.preperiod, tr.verdict.period) == (0, 2)
    assert profile(tr.arrangement(1)).as_dict() == {2: 18, 3: 6, 5: 3}
    u = union_of_steps(tr, 0, 1)
    assert len(u) == 15 and profile(u).as_dict() == {2: 36, 3: 3, 5: 6}
    # section 6.2 at t = 3
    c0 = build("flashing4", part="c0")
    c1 = build("flashing4", part="c1")
    tr2 = run_sequence(Lx24, c0)
    assert tr2.verdict.kind == "cycle"
    assert (tr2.verdict.preperiod, tr2.verdict.period) == (0, 2)
    assert tr2.arrangement(1) == c1
    assert arrangements_equivalent(c0, c1) is not None
    u12 = c0.union(c1)
    assert profile(u12).as_dict() == {2: 12, 3: 16, 4: 1}
    assert is_km_configuration(u12, 3, 4) == (True, 16, 12)
    d0 = dual_lines_op(sel_exact(2), c0)
    d1 = dual_lines_op(sel_exact(2), c1)
    assert len(d0) == len(d1) == 22
    assert profile(d0).as_dict() == {2: 99, 4: 8, 7: 4}
    assert lambda_op(sel_exact(4), sel_exact(2), d0) == d1
    assert lambda_op(sel_exact(4), sel_exact(2), d1) == d0
    du = d0.union(d1)
    assert len(du) == 28 and profile(du).as_dict() == {2: 180, 4: 5, 7: 8}
    _pass(6, t0, 60)


def _unassuming_conditions(arr):
    if profile(arr).as_dict() != {2: 15}:
        return False
    dual2 = dual_lines_op(sel_exact(2), arr)
    if len(dual2) != 15 or profile(dual2).as_dict() != {2: 27, 3: 6, 5: 6}:
        return False
    return common_conic(list(dualize_arrangement(arr).points)) is None


def test_criterion_07_unassuming():
    t0 = time.time()
    c0 = build("unassuming")  # t = 3
    assert _unassuming_conditions(c0)
    c1 = apply_operator(Lx23, c0)
    assert _unassuming_conditions(c1)
    arr = c0
    for _ in range(5):
        arr = apply_operator(Lx23, arr)
        assert len(arr) == 6 and profile(arr).as_dict() == {2: 15}
    pts = list(points_operator(sel_exact(2), c0).points)
    found = rich_conics(pts, 6)
    irreducible = [rc for rc in found if rc.irreducible]
    assert len(irreducible) == 12
    assert all(rc.count == 6 for rc in irreducible)
    _pass(7, t0, 60)


def test_criterion_08_gv13():
    t0 = time.time()
    plus = build("gv13", a=2, sign=+1)
    minus = build("gv13", a=2, sign=-1)
    # the component counts are reached by exactly-2-rich lines
    op = lambda_spec(sel_exact(3), sel_exact(2))
    assert len(apply_operator(op, plus)) == 18
    assert len(apply_operator(op, minus)) == 30
    listed = [(1, 5, 7), (1, 8, 10), (1, 11, 12), (2, 5, 6), (2, 8, 9),
              (2, 11, 13), (3, 4, 5), (3, 6, 8), (3, 7, 11), (3, 9, 10),
              (3, 12, 13), (2, 4, 7, 10, 12), (1, 4, 6, 9, 13)]
    want = sorted(tuple(sorted(x - 1 for x in f)) for f in listed)
    for arr_lines in (build_lines("gv13", a=2, sign=+1)[1],
                      build_lines("gv13", a=2, sign=-1)[1]):
        assert sorted(extract_matroid(arr_lines).flats) == want
    _pass(8, t0, 30)


def test_criterion_09_classical_theorems():
    t0 = time.time()
    hexagon = build("hexagon-on-conic")
    assert len(apply_operator(Lx23, hexagon)) == 1
    p6 = generic_points_on_conic(6, seed=1)
    l15 = lines_operator(sel_exact(2), p6)
    assert len(l15) == 15
    assert len(apply_operator(Lx23, l15)) == 60
    reg = regular_hexagon_points()
    l15r = lines_operator(sel_exact(2), reg)
    assert len(apply_operator(Lx23, l15r)) == 67
    pap6 = pappus_base_points()
    pap_lines = apply_operator(Lx23, lines_operator(sel_exact(2), pap6))
    assert len(pap_lines) == 6
    des = build("desargues9")
    assert len(apply_operator(Lx23, des)) == 1
    l10 = apply_operator(L23, des)
    assert len(l10) == 10
    assert is_km_configuration(l10, 3, 3) == (True, 10, 10)
    assert apply_operator(L33, l10) == l10
    _pass(9, t0, 60)


def test_criterion_10_klein():
    t0 = time.time()
    k = build("klein")
    assert profile(k).as_dict() == {3: 28, 4: 21}
    assert apply_operator(lambda_spec(sel_at_least(4), sel_at_least(4)), k) == k
    img3 = apply_operator(L33, k)
    assert len(img3) == 133
    assert profile(img3).as_dict() == {2: 2436, 3: 588, 4: 84, 5: 168,
                                       9: 28, 12: 21}
    img43 = apply_operator(lambda_spec(sel_at_least(4), sel_at_least(3)), k)
    assert len(img43) == 49
    assert profile(img43).as_dict() == {2: 252, 3: 112, 8: 21}
    assert apply_operator(lambda_spec(sel_at_least(4), sel_at_least(4)),
                          img43) == k
    _pass(10, t0, 300)


@pytest.mark.skipif(not HEAVY, reason="wiman stretch runs behind LINEOPS_HEAVY=1")
def test_criterion_10_stretch_wiman():
    t0 = time.time()
    w = build("wiman")
    assert profile(w).as_dict() == {3: 120, 4: 45, 5: 36}
    img = apply_operator(lambda_spec(sel_at_least(4), sel_at_least(5)), w)
    assert len(img) == 81
    assert h_constant(profile(img)) == Fraction(-753, 247)
    _pass("10-stretch", t0, 600)


def test_criterion_11_grunbaum_rigby():
    t0 = time.time()
    gr = build("grunbaum-rigby")
    assert profile(gr).as_dict() == {2: 63, 3: 7, 4: 21}
    assert apply_operator(lambda_spec(sel_at_least(4), sel_at_least(4)),
                          gr) == gr
    img3 = apply_operator(L33, gr)
    assert len(img3) == 50
    assert profile(img3).as_dict() == {2: 259, 3: 119, 7: 29}
    img4 = apply_operator(lambda_spec(sel_at_least(4), sel_at_least(4)), img3)
    assert len(img4) == 29
    assert profile(img4).as_dict() == {2: 70, 3: 21, 4: 7, 5: 21, 7: 1}
    p1 = points_operator(sel_at_least(3), gr)
    assert len(p1) == 28
    # the 28 exactly-3-rich connecting lines form a 28_3 with those points;
    # the full rich-line census is pinned as well
    from lineops.arrangements import richness_index
    idx = richness_index(p1)
    census = {}
    for _, s in idx.entries:
        census[len(s)] = census.get(len(s), 0) + 1
    assert census == {2: 63, 3: 28, 5: 21, 7: 1}
    rich3 = lines_operator(sel_exact(3), p1)
    assert len(rich3) == 28
    per_point = [sum(1 for l in rich3 if incident(p, l)) for p in p1]
    assert set(per_point) == {3}
    _pass(11, t0, 120)


def test_criterion_12_exact_2_2():
    t0 = time.time()
    g4 = build("generic", n=4, seed=1)
    tr = run_sequence(lambda_spec(sel_exact(2), sel_exact(2)), g4, max_steps=6)
    assert tr.counts()[:2] == [4, 3]
    assert tr.verdict.kind == "fixed" and tr.verdict.at_step == 1
    g5 = build("generic", n=5, seed=1)
    op = lambda_spec(sel_exact(2), sel_exact(2))
    a1 = apply_operator(op, g5)
    a2 = apply_operator(op, a1)
    assert len(a1) == 15 and len(a2) == 2070
    s0, s1, s2 = set(g5.lines), set(a1.lines), set(a2.lines)
    assert not (s0 & s1) and not (s0 & s2) and not (s1 & s2)
    _pass(12, t0, 300)


def test_criterion_13_finite_fields():
    t0 = time.time()
    for q in (2, 3, 4, 5):
        fp = build("finite-plane", q=q)
        for n in range(2, q + 2):
            for m in range(2, q + 2):
                assert lambda_op(sel_at_least(n), sel_at_least(m), fp) == fp, \
                    (q, n, m)
    # complete quadrilateral over GF(2): the diagonal points are collinear,
    # so the (>=2,>=3) operator yields the Fano plane
    G2 = GF(2)
    pts = [point(G2, 1, 0, 0), point(G2, 0, 1, 0), point(G2, 0, 0, 1),
           point(G2, 1, 1, 1)]
    cq2 = Arrangement(G2, [join(a, b) for a, b in combinations(pts, 2)])
    assert apply_operator(L23, cq2) == build("finite-plane", q=2)
    assert orbit_over_finite_field(L23, cq2) == (1, 1)
    # every GF(3) orbit terminates with an exact preperiod and period
    G3 = GF(3)
    lines13 = list(all_projective_lines(G3).lines)
    cache = {}

    def step(arr):
        d = arr.digest()
        nxt = cache.get(d)
        if nxt is None:
            nxt = apply_operator(L22, arr)
            cache[d] = nxt
        return nxt

    results = {}
    for mask in range(1 << 13):
        arr = Arrangement(G3, [lines13[i] for i in range(13)
                               if mask >> i & 1])
        seen = {}
        cur, i = arr, 0
        while cur.digest() not in seen:
            seen[cur.digest()] = i
            cur = step(cur)
            i += 1
        pre = seen[cur.digest()]
        results[mask] = (pre, i - pre)
        assert pre + (i - pre) <= len(seen)
    assert results[(1 << 13) - 1] == (0, 1)   # the full plane is fixed
    assert results[0] == (0, 1)               # empty is fixed
    # the public orbit API agrees on a sample
    for mask in range(0, 1 << 13, 373):
        arr = Arrangement(G3, [lines13[i] for i in range(13)
                               if mask >> i & 1])
        assert orbit_over_finite_field(L22, arr) == results[mask]
    _pass(13, t0, 30, f"all {1 << 13} GF(3) orbits swept")


def test_criterion_14_property_suites(count_passes):
    t0 = time.time()
    failures = []
    calls, passes = count_passes(), {}  # pair passes of each suite, by tag

    def run_suite(tag, arr, real=None):
        del calls[:]
        for name, ok, detail in property_suite(arr, real=real):
            if not ok:
                failures.append((tag, name, detail))
        passes[tag] = len(calls)

    for entry in entries():
        if entry.heavy:
            continue
        run_suite(entry.name, build(entry.name))
    small_steps = []
    tr = run_sequence(L23, build("parallel-pairs6"), max_steps=3)
    small_steps += list(tr.arrangements)
    tr = run_sequence(L32, build("dual-hesse"), max_steps=2)
    dual_hesse_step2 = len(small_steps) + 2
    small_steps += list(tr.arrangements)
    tr = run_sequence(Lx23, build("flashing3"))
    small_steps += list(tr.arrangements)
    tr = run_sequence(Lx23, build("unassuming"), max_steps=3)
    small_steps += list(tr.arrangements)
    for i, arr in enumerate(small_steps):
        if len(arr) <= 500:
            run_suite(f"step[{i}]", arr)
    assert not failures, failures
    # the 57-line step's suite pairs 5 distinct sets 32 times: once each
    assert len(small_steps[dual_hesse_step2]) == 57
    assert passes[f"step[{dual_hesse_step2}]"] == 5
    _pass(14, t0, 600, f"{len(small_steps)} sequence steps checked")


def test_criterion_15_polygonal():
    t0 = time.time()
    a10 = build("polygonal", n=10)
    assert apply_operator(L33, a10) == a10
    a12 = build("polygonal", n=12)
    a13 = build("polygonal-ext", n=13)
    assert apply_operator(L33, a12) == a13
    assert apply_operator(L33, a13) == a13
    a9 = build("polygonal-ext", n=9)
    img = apply_operator(L33, a9)
    assert profile(img).as_dict() == {2: 3, 3: 4}
    _pass(15, t0, 60)
