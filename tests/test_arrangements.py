import os
import random
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
from math import comb

import pytest

from lineops import arrangements, fields, projective
from lineops.arrangements import (Arrangement, ArrangementError,
                                  _code_meets, _encode,
                                  _from_key, _groups, _mult_from_pairs,
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
                                  psi_op, richness_index, sel_at_least,
                                  sel_exact)
from lineops.catalog import build
from lineops.dynamics import apply_operator, dual_spec, lambda_spec
from lineops.fields import (GF, NUMBER_FIELD, QQ, RATIONALS, FieldError,
                            Scalar, cyclotomic_field, number_field)
from lineops.matroids import extract_matroid
from lineops.projective import (GeometryError, Matrix3, ProjLine, ProjPoint,
                                Projectivity, apply_projectivity,
                                dualize, join, line, meet, point)

from conftest import code_counts, nf_fractions, reference_pair_index
from test_projective import _reference

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


def test_union_refuses_a_point_config():
    from lineops.catalog import pappus_base_points
    grid = build("grid6")
    pts = pappus_base_points()
    assert pts.field.spec == grid.field.spec
    with pytest.raises(ArrangementError):
        grid.union(pts)
    with pytest.raises(ArrangementError):
        grid.union(PointConfig(grid.field, [point(grid.field, 1, 2, 3)]))
    assert len(grid.union(Arrangement(grid.field, [line(grid.field, 1, 2, 3)]))) == len(grid) + 1


def test_sets_hold_one_field():
    # GF(7) and GF(11) points with identical reps: every member is checked
    # before the set merges members by their reps, in either order
    p7, p11 = point(GF(7), 1, 2, 3), point(GF(11), 1, 2, 3)
    for pts in ([p7, p11], [p11, p7]):
        with pytest.raises(FieldError):
            PointConfig(GF(7), pts)
    l7 = line(GF(7), 1, 2, 3)
    for objs in ([l7, p7], [p7, l7]):
        with pytest.raises(ArrangementError):
            Arrangement(GF(7), objs)


def test_dualize_twice_is_identity():
    for arr in (complete_quadrilateral(), _cq_step2(), build("dual-hesse"),
                _moved_grunbaum_rigby(), _sample_of_plane(7, 12),
                _sample_of_plane(49, 20), Arrangement(F)):
        cfg = dualize_arrangement(arr)
        assert isinstance(cfg, PointConfig)
        assert [p.coords for p in cfg.points] == [l.coeffs for l in arr.lines]
        assert dualize_arrangement(cfg) == arr
        # the relabelled members are the canonical set, in the same order
        assert cfg.points == PointConfig(arr.field, [dualize(o) for o in arr]).points
        assert dualize_arrangement(cfg).lines == \
            Arrangement(arr.field, [dualize(o) for o in cfg]).lines


def test_dualize_does_not_normalize_again(monkeypatch):
    """The dual object shares the already normalized triple."""
    arr = _cq_step2()
    list(arr)  # an operator's result: decode it before the patch

    def normalize(*args):
        raise AssertionError("dualize normalized a triple again")
    monkeypatch.setattr(projective, "_normalize", normalize)
    cfg = dualize_arrangement(arr)
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


def _cq_step2():
    return lambda_op(sel_at_least(2), sel_at_least(2), lambda_op(
        sel_at_least(2), sel_at_least(2), complete_quadrilateral()))


def _moved_into(field):
    """The complete quadrilateral's step 2 (25 lines; points of multiplicity
    2, 3, 4 and 6) over ``field``, moved by a projectivity whose entries
    involve the generator and denominators, so that coordinates leave Q."""
    x = field.generator
    half, third = Fraction(1, 2), Fraction(1, 3)
    g = Projectivity(Matrix3.from_values(field, (
        (x, 1, half), (0, third, x), (1, x - 2, x * x + third))))
    return Arrangement(field, [
        apply_projectivity(g, line(field, *(c.rep for c in l.coeffs)))
        for l in _cq_step2().lines])


def _big_rationals():
    """The complete quadrilateral's step 2 moved by a projectivity with
    entries beyond 2^64, so that the integer codes go beyond 2^64 with both
    signs.  M's first column is (1, 0, 0), so the six lines with first
    coordinate 0 keep it."""
    g = Projectivity(Matrix3.from_values(F, (
        (1, 2 ** 70 + 3, -(2 ** 66 + 5)), (0, 3 ** 45, -(5 ** 30)),
        (0, -(7 ** 25), 2 ** 65 - 1))))
    return Arrangement(F, [apply_projectivity(g, l) for l in _cq_step2().lines])


def _large_prime_lines(p=1048583):
    """25 seeded lines over GF(p), p > 2^20: the 15 joins of six points,
    each then on five lines, and ten lines, each through one of the six and
    one of ten more points."""
    rng = random.Random(24)
    pts = [[rng.randrange(p) for _ in range(3)] for _ in range(16)]

    def join3(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])
    normals = ([join3(a, b) for a, b in combinations(pts[:6], 2)]
               + [join3(pts[i % 6], pts[6 + i]) for i in range(10)])
    return make_arrangement(normals, GF(p))[0]


KERNEL_INPUTS = {
    "Q": _cq_step2,
    "Q, beyond 2^64": _big_rationals,
    "GF(1048583)": _large_prime_lines,
    "Q(omega)": lambda: build("dual-hesse"),
    "cubic": lambda: build("grunbaum-rigby"),
    # x^2 - 1/2 is monic but not integral: the codec works with theta = 2x
    "Q[x]/(x^2-1/2)": lambda: _moved_into(number_field([Fraction(-1, 2), 0, 1])),
    "Q(zeta_7)": lambda: _moved_into(cyclotomic_field(7)),
    "Q(zeta_5)": lambda: _moved_into(cyclotomic_field(5)),
    "Q(zeta_15)": lambda: _moved_into(cyclotomic_field(15)),
    # x^3 + x/2 + 1/3: theta = 6x is a root of y^3 + 18y + 72
    "Q[x]/(x^3+x/2+1/3)": lambda: _moved_into(
        number_field([Fraction(1, 3), Fraction(1, 2), 0, 1])),
    "GF(7)": lambda: _sample_of_plane(7, 25),
    "GF(101)": lambda: _sample_of_plane(101, 40),
    "GF(8)": lambda: _sample_of_plane(8, 30),
    "GF(49)": lambda: _sample_of_plane(49, 40),
    "GF(64)": lambda: _sample_of_plane(64, 40),
}


@pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
def test_pair_kernel_matches_single_meets_and_joins(name):
    """The pair kernel groups exactly as meet/join of each pair does: the
    positions on at least 2, 3 and 4 of the objects with their sorted
    indices (``_groups``), and each position's multiplicity."""
    arr = KERNEL_INPUTS[name]()
    field = arr.field
    for objs, op, cls in ((arr.lines, meet, ProjPoint),
                          (dualize_arrangement(arr).points, join, ProjLine)):
        want_index, want_counts = {}, {}
        for i, j in combinations(range(len(objs)), 2):
            o = op(objs[i], objs[j])
            want_index.setdefault(o, set()).update((i, j))
            want_counts[o] = want_counts.get(o, 0) + 1
        for least in (2, 3, 4):
            idx = _groups(_encode(objs, field), field, least)
            got = {_from_key(cls, k, field): s for k, s in idx.items()}
            assert len(got) == len(idx) and got == {
                o: sorted(s) for o, s in want_index.items() if len(s) >= least}
        counts = code_counts(_encode(objs, field), field)
        got = {_from_key(cls, key, field): k for key, k in counts.items()}
        assert len(got) == len(counts) and got == {
            o: _mult_from_pairs(c) for o, c in want_counts.items()}


@pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
def test_groups_match_reference_incidence_index(name):
    """``_groups`` on at least 2, 3 and 4 of the lines and of the dual
    points gives the sets of the reference pair index with that many
    members, each in ascending order."""
    arr = KERNEL_INPUTS[name]()
    field = arr.field
    for codes in (arr._code_list(), _encode(dualize_arrangement(arr).points, field)):
        ref = reference_pair_index(codes, field)
        for least in (2, 3, 4):
            assert _groups(codes, field, least) == {
                k: sorted(s) for k, s in ref.items() if len(s) >= least}


OPERATOR_SELS = (sel_exact(2), sel_exact(3), sel_at_least(2), sel_at_least(3))


@pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
def test_operators_match_object_compositions(name):
    """Lambda, Psi and the dual step, each one run of selections on codes,
    equal P and L applied one at a time through point and line sets, and L
    on the dualized arrangement."""
    arr = KERNEL_INPUTS[name]()
    cfg = dualize_arrangement(arr)
    # each selector once as the first and once as the second selection
    for n, m in zip(OPERATOR_SELS, OPERATOR_SELS[1:] + OPERATOR_SELS[:1]):
        assert lambda_op(n, m, arr) == lines_operator(m, points_operator(n, arr))
        assert psi_op(n, m, cfg) == points_operator(m, lines_operator(n, cfg))
        assert dual_lines_op(n, arr) == lines_operator(n, dualize_arrangement(arr))


@pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
def test_operator_chain_matches_single_operators(name):
    """A chain of three operators, flattened into one run of selections,
    equals its operators applied one at a time, right to left."""
    arr = KERNEL_INPUTS[name]()
    arr = Arrangement(arr.field, arr.lines[:24])  # keeps every image small
    g3 = sel_at_least(3)
    chain = (dual_spec(g3), lambda_spec(g3, g3), dual_spec(sel_exact(3)))
    want = arr
    for spec in reversed(chain):
        want = apply_operator(spec, want)
    assert apply_operator(chain, arr) == want


@pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
def test_operator_keys_round_trip(name):
    """Every key of a pair table is the code of the point, and of the line,
    it names: what lets a selection's keys be the next selection's codes."""
    arr = KERNEL_INPUTS[name]()
    field = arr.field
    keys = code_counts(_encode(arr.lines, field), field)
    assert keys
    for key in keys:
        for cls in (ProjPoint, ProjLine):
            assert _encode([_from_key(cls, key, field)], field) == [key]


def _random_scalar(field, rng, zeros=True):
    """A seeded element of ``field``, zero one time in three when ``zeros``:
    a polynomial in the generator with coefficients in -5..5, divided by
    1..4 over a number field, or a rational or residue over Q or GF(p)."""
    while True:
        if zeros and not rng.randrange(3):
            return field.zero
        if field.degree > 1:
            x = field.generator
            e = sum((field.scalar(rng.randint(-5, 5)) * x ** i
                     for i in range(field.degree)), field.zero)
            e = e if field.characteristic else e / rng.randint(1, 4)
        elif field.characteristic:
            e = field.scalar(rng.randrange(field.characteristic))
        else:
            e = field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        if not e.is_zero():
            return e


def _random_matrix(field, rng):
    """A seeded matrix, zero entries one time in three, maybe singular."""
    return Matrix3([[_random_scalar(field, rng) for _ in range(3)]
                    for _ in range(3)])


def _random_projectivity(field, rng):
    while True:
        m = _random_matrix(field, rng)
        if not m.det().is_zero():
            return Projectivity(m)


@pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
def test_projectivity_action_matches_matrix_images(name):
    """``apply_projectivity`` moves integer codes (``arrangements._act``)
    and gives the object that the Scalar matrix and the constructor give:
    M v for a point v, adj(M)^T u for a line u.  A matrix is refused
    exactly when its determinant is zero."""
    arr = KERNEL_INPUTS[name]()
    field, rng = arr.field, random.Random(22)
    lines = arr.lines[:12]
    points = points_operator(sel_at_least(2), arr).points[:12]
    perm = rng.sample(range(3), 3)  # first a monomial matrix
    mats = [Matrix3([[_random_scalar(field, rng, False) if j == perm[i]
                      else field.zero for j in range(3)] for i in range(3)])]
    singular = 0
    for m in mats + [_random_matrix(field, rng) for _ in range(9)]:
        if m.det().is_zero():
            singular += 1
            with pytest.raises(GeometryError):
                Projectivity(m)
            continue
        g, cof = Projectivity(m), m.adjugate().transpose()
        assert ([apply_projectivity(g, p) for p in points]
                == [ProjPoint(m.apply_vec(p.coords)) for p in points])
        assert ([apply_projectivity(g, l) for l in lines]
                == [ProjLine(cof.apply_vec(l.coeffs)) for l in lines])
    # a third row that is a combination of the first two
    r0, r1 = m.rows[:2]
    c = _random_scalar(field, rng)
    with pytest.raises(GeometryError):
        Projectivity(Matrix3([r0, r1, [a + c * b for a, b in zip(r0, r1)]]))
    assert singular < 10


@pytest.mark.parametrize("field", [QQ(), cyclotomic_field(3), GF(7), GF(8),
                                   GF(101)],
                         ids=["Q", "Q(omega)", "GF(7)", "GF(8)", "GF(101)"])
def test_equivalence_witness_matches_reference_on_seeded_pairs(field,
                                                               same_witness):
    """The search with images on codes finds the reference's witness: on
    arrangements A against g(A) for a seeded g, and on pairs of
    arrangements with the same profile, some of them inequivalent; five
    lines over Q and Q(omega), six over the finite fields, where five-line
    pairs of one profile are mostly equivalent."""
    rng, size = random.Random(23), 6 if field.characteristic else 5
    first, outcomes = {}, []
    while len(outcomes) < 3 or None not in outcomes:
        lines = set()
        while len(lines) < size:
            try:
                lines.add(ProjLine([_random_scalar(field, rng) for _ in range(3)]))
            except GeometryError:  # the zero triple
                pass
        arr = Arrangement(field, lines)
        g = _random_projectivity(field, rng)
        assert same_witness(list(arr.lines), [apply_projectivity(g, l)
                                              for l in arr.lines]) is not None
        other = first.setdefault(profile(arr), arr)
        if other is not arr:
            outcomes.append(same_witness(list(other.lines), list(arr.lines)))
        assert len(outcomes) < 12, "no inequivalent pair of the same profile"


LAZY_INPUTS = ("Q", "Q, beyond 2^64", "Q(omega)", "cubic", "GF(7)", "GF(8)",
               "GF(49)", "GF(101)", "GF(1048583)")


@pytest.mark.parametrize("name", LAZY_INPUTS)
def test_lazy_results_match_eager_sets(name):
    """An operator's result holds its codes and decodes them on first
    access to the members; it then equals the set built from the decoded
    codes in members, order, digest, hash, length and equality, both ways.
    Its codes, sorted by ``_code_order`` when their order is first read,
    are those of its members in their canonical order on every field.
    Equality, hash and membership agree on the decoded result and on the
    same result undecoded, both ways, and decode nothing; a point is never
    in an arrangement, nor a line in a point set.  The [k, m] predicates on
    an undecoded arrangement read its codes, decode nothing and agree with
    the set built from its decoded lines."""
    arr = KERNEL_INPUTS[name]()
    arr = Arrangement(arr.field, arr.lines[:16])  # keeps every image small
    cfg = dualize_arrangement(arr)
    g2, g3 = sel_at_least(2), sel_at_least(3)

    def operate():
        return [points_operator(g2, arr), lines_operator(g2, cfg),
                lambda_op(g2, g3, arr), psi_op(g2, g3, cfg), dual_lines_op(g3, arr),
                apply_operator((dual_spec(g2), lambda_spec(g2, g3)), arr),
                lines_operator(g3, points_operator(g2, arr))]
    results = operate()
    for res in results:
        field, cls = res.field, type(res)
        codes = list(res._codes)  # as the last selection left them
        assert res._code_list() == arrangements._code_order(codes, field)
        assert res._objs is None and len(res) == len(codes) == len(set(codes))
        eager = cls(field, [_from_key(cls._member, k, field) for k in codes])
        assert list(res) == list(eager) == _reference(eager) and len(res) == len(eager)
        assert res == eager and eager == res and hash(res) == hash(eager)
        if cls is Arrangement:
            assert res.digest() == eager.digest()
        assert res._code_list() == eager._code_list() == _encode(list(res), field)
    other = KERNEL_INPUTS["Q" if arr.field.characteristic else "GF(7)"]()
    for res, lazy in zip(results, operate()):
        assert lazy == res and res == lazy and hash(lazy) == hash(res)
        members = set(res)
        for o in (*arr, *cfg, *res, *map(dualize, res), *other.lines[:3]):
            assert (o in lazy) == (o in res) == (o in members)
        assert not any(dualize(o) in lazy for o in res)
        if type(res) is Arrangement and len(res) < 500:  # a loop per pair
            eager = Arrangement(res.field, list(res))
            for k in (2, 3):
                assert is_km_configuration(lazy, k, 3) == \
                    is_km_configuration(eager, k, 3)
                assert configuration_connected(lazy, k) == \
                    configuration_connected(eager, k)
        assert lazy._objs is None


def test_lazy_count_builds_no_object(monkeypatch):
    """len, is_empty and repr of P_{>=2} read its codes and build no point
    and no set."""
    arrs = [_cq_step2(), build("grunbaum-rigby"), _sample_of_plane(8, 30),
            _sample_of_plane(101, 40)]
    for arr in arrs:  # operators' results: decode them before the patch
        list(arr)
    built = []
    for cls in (ProjPoint, ProjLine, Arrangement, PointConfig):
        def counting(self, *args, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    results = [points_operator(sel_at_least(2), arr) for arr in arrs]
    for res, arr in zip(results, arrs):
        assert len(res) == profile(arr).total_points and not res.is_empty()
        assert repr(res).startswith(f"PointConfig({len(res)} points over")
    assert built == []
    assert len(list(results[0])) == len(results[0])  # the count works
    assert set(built) == {"ProjPoint"}  # decoding builds no set


# every field of KERNEL_INPUTS, GF(2), GF(61), GF(67) and every stock GF(p^k)
ORDER_INPUTS = dict(KERNEL_INPUTS, **{
    f"GF({q})": lambda q=q: _sample_of_plane(q, 7 if q == 2 else 16)
    for q in (2, 61, 67, *fields._STOCK_IRREDUCIBLES) if f"GF({q})" not in KERNEL_INPUTS})


@pytest.mark.parametrize("name", sorted(ORDER_INPUTS))
def test_code_order_matches_reference(name, monkeypatch):
    """``_code_order`` sorts codes given in any order as the
    continued-fraction reference of test_projective.py sorts the objects
    they decode to: 16 lines of the input, their points of multiplicity
    >= 2 and the lines through >= 3 of those, undecoded, and the whole
    plane of a field of at most 67 elements.  Decoding a result builds its
    points or lines and no set; ``dualize_arrangement``, ``union``,
    ``incidence_index``, ``richness_index`` and ``extract_matroid`` read
    the codes of undecoded results, decode none of them and agree with the
    sets built from their decoded members."""
    arr = ORDER_INPUTS[name]()
    field, g2, g3 = arr.field, sel_at_least(2), sel_at_least(3)
    arr = Arrangement(field, arr.lines[:16])
    sets = [arr, points_operator(g2, arr), lambda_op(g2, g3, arr)]
    if 0 < field.characteristic ** field.degree <= 67:
        sets.append(all_projective_lines(field))
    rng = random.Random(26)
    for s in sets:
        codes, cls = list(s._codes), s._member
        rng.shuffle(codes)
        assert ([_from_key(cls, k, field) for k in arrangements._code_order(codes, field)]
                == _reference([_from_key(cls, k, field) for k in codes]))
    built = []
    for cls in (Arrangement, PointConfig):
        def counting(self, *args, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    cfg, img, other = (points_operator(g2, arr), lambda_op(g2, g3, arr),
                       dual_lines_op(g3, arr))
    both, dual = img.union(other), dualize_arrangement(img)
    found = (incidence_index(other), richness_index(cfg), extract_matroid(other))
    assert all(s._objs is None for s in (cfg, img, other, both, dual))
    for s in (cfg, img, other, both, dual):
        assert len(list(s)) == len(s)
    assert built == []
    eager = Arrangement(field, list(other))
    assert found == (incidence_index(eager), richness_index(PointConfig(field, list(cfg))),
                     extract_matroid(eager))
    assert both == Arrangement(field, [*img, *other])
    assert list(dual) == [dualize(l) for l in img]


def test_lazy_codes_are_encoded_once(count_passes):
    """A chain, its result's profile and its property suite encode only the
    chain's input, once: the result's codes are the chain's last keys, and
    a set keeps its codes, decoded or not."""
    calls = count_passes("_encode")
    g2 = sel_at_least(2)
    cq = complete_quadrilateral()
    step = apply_operator((lambda_spec(g2, g2), lambda_spec(g2, g2)), cq)
    list(step)
    assert profile(step).d == len(step) == 25 and profile(cq).d == 6
    assert all(ok for _, ok, _ in property_suite(step))
    assert [c for c in calls if c[0] == "_encode"] == [("_encode", 6)]


def test_incidence_table_built_once_per_spec():
    """One table of PG(2,q) masks per finite field of order <= 64, however
    many passes use it, holding the masks of only the ordinals the passes
    read, and none for GF(101), which the pair kernel serves."""
    table = arrangements._plane_masks
    table.cache_clear()
    finite = [KERNEL_INPUTS[name]() for name in ("GF(7)", "GF(8)", "GF(49)",
                                                 "GF(64)", "GF(101)")]
    for _ in range(2):
        for arr in finite:
            profile(arr)
            incidence_index(arr)
            points_operator(sel_at_least(2), arr)
    assert table.cache_info().misses == 4
    for arr in finite[:-1]:
        assert table(arr.field.spec).keys() == set(arr._codes)
    table.cache_clear()
    profile(finite[-1])
    incidence_index(finite[-1])
    assert table.cache_info().misses == table.cache_info().currsize == 0


def test_number_field_kernel_makes_no_mulmod_call(monkeypatch):
    """The number-field pair loop is straight-line code: it multiplies no
    Scalar and calls no field's product."""
    arrs = [make() for make in KERNEL_INPUTS.values()]
    arrs = [arr for arr in arrs if arr.field.kind == NUMBER_FIELD]
    assert {arr.field.degree for arr in arrs} == {2, 3, 4, 6, 8}
    want = [list(_code_meets(_encode(arr.lines, arr.field), arr.field))
            for arr in arrs]

    def forbidden(*args):
        raise AssertionError("field product called in the pair kernel")
    monkeypatch.setattr(Scalar, "__mul__", forbidden)
    monkeypatch.setattr(Scalar, "__rmul__", forbidden)
    # every Field the inputs hold, and every one made from now on
    for f in [arr.field for arr in arrs] + [s.field for arr in arrs
                                            for o in arr.lines for s in o.coords]:
        monkeypatch.setattr(f, "r_mul", forbidden)
    ops = fields._nf_ops
    monkeypatch.setattr(fields, "_nf_ops", lambda spec: (*ops(spec)[:2], forbidden,
                                                         ops(spec)[3]))
    arrangements._ring_kernel.cache_clear()  # building the code calls none either
    fields._adjugate.cache_clear()
    assert [list(_code_meets(_encode(arr.lines, arr.field), arr.field))
            for arr in arrs] == want


def test_number_field_kernel_is_built_once_per_modulus():
    """One pair kernel per ring: per integer modulus over a number field,
    one over Q and one per p over GF(p), p > 64; the rings of degree 1
    build no adjugate."""
    kernel, adjugate = arrangements._ring_kernel, fields._adjugate
    gf101 = _sample_of_plane(101, 40)
    kernel.cache_clear()
    adjugate.cache_clear()
    omega = build("dual-hesse")
    assert adjugate.cache_info().misses == 1  # the build's inverses made it
    for objs in (omega.lines, points_operator(sel_at_least(2), omega).points,
                 _moved_into(omega.field).lines, build("grunbaum-rigby").lines):
        code_counts(_encode(objs, objs[0].field), objs[0].field)
    # Q(omega), the cubic and Z, for the operators over Q in _moved_into
    assert kernel.cache_info().misses == 3
    # the kernel uses the inverses' adjugate: one per modulus, none for Z
    assert adjugate.cache_info().misses == 2
    # Q[x]/(x^2 - 1/2) and Q(sqrt 2) share the integer modulus y^2 - 2
    for f in (number_field([Fraction(-1, 2), 0, 1]), number_field([-2, 0, 1])):
        code_counts(_encode(_moved_into(f).lines, f), f)
    assert kernel.cache_info().misses == 4
    assert adjugate.cache_info().misses == 3
    for arr in (_cq_step2(), gf101, gf101):  # Z again, then Z/101
        code_counts(_encode(arr.lines, arr.field), arr.field)
    assert kernel.cache_info().misses == 5
    assert adjugate.cache_info().misses == 3


def test_generated_source_compiles(monkeypatch):
    """Every generated function is built afresh through ``fields._compiled``
    and gives what the cached one gives: the pair kernel and the
    projectivity action over Q, GF(101), Q(omega) and a cubic field, the
    cofactors and the entrywise product of the exact linear algebra over
    their rings and GF(8)'s, the adjugates of the number-field rings, the
    number-field sum, difference, product and inverse, and the GF(p^k) product
    table.  Under ``-W error``
    a warning while compiling any of them fails the test."""
    m, gf8 = [[1, 2, 0], [0, 1, 3], [1, 0, 1]], GF(8).spec  # det 7

    def outputs(kernel, action, cofactors, comb, adjugate, nf_ops, gf_tables):
        out = [gf_tables(gf8)]
        for arr in (build("pappus"), _sample_of_plane(101, 40), build("dual-hesse"),
                    build("grunbaum-rigby"), build("finite-plane", q=8)):
            field, codes = arr.field, arr._code_list()
            (g, p), n = arrangements._ring(field), field.degree
            out += [cofactors(g, p)(tuple(range(1, 9 * n + 1))),
                    comb(g, p)(*arrangements._ring_vecs(codes[:4], field))]
            if not arrangements._plane_order(field):
                on_lines = Projectivity(Matrix3.from_values(field, m))._on_lines
                out += [list(kernel(g, p)(codes, range(len(codes) - 1))),
                        list(action(g, p)(on_lines, codes))]
            if field.kind == NUMBER_FIELD:
                a, b = (tuple(range(i, i + n + 1)) for i in (1, 5))
                add, sub, mul, inv = nf_ops(field.spec)
                out += [adjugate(g)(*range(2, n + 2)), add(a, b), sub(a, b), mul(a, b), inv(a)]
        return out
    builders = (arrangements._ring_kernel, arrangements._ring_action,
                arrangements._cofactors, arrangements._ring_comb, fields._adjugate,
                fields._nf_ops, fields._gf_tables)
    want = outputs(*builders)
    built, compiled = [], fields._compiled

    def recording(src, name, **names):
        built.append(name)
        return compiled(src, name, **names)
    monkeypatch.setattr(fields, "_compiled", recording)
    monkeypatch.setattr(arrangements, "_compiled", recording)
    assert outputs(*(b.__wrapped__ for b in builders)) == want
    assert sorted(built) == sorted(["mul"] + ["cof", "comb"] * 5 + ["kernel", "act"] * 4
                                   + ["adj", "add", "sub", "mul", "inv"] * 2)


def test_pair_kernel_zero_divisor_is_a_field_error():
    """Over a reducible modulus the kernel meets a zero divisor and says so,
    in the same one line as the inverse of that zero divisor."""
    field = number_field([6, 0, 0, -5, 0, 0, 1])  # (x^3 - 2)(x^3 - 3)
    x = field.generator
    lines = [line(field, 1, 0, 0), line(field, 0, 1, x ** 3 - 2)]
    with pytest.raises(FieldError) as kernel:
        code_counts(_encode(lines, field), field)
    with pytest.raises(FieldError) as inverse:
        (x ** 3 - 2).inverse()
    # the elimination refuses a pivot that is a zero divisor the same way
    with pytest.raises(FieldError) as pivot:
        arrangements._null_basis([arrangements._ring_flat(
            [(x ** 3 - 2).rep, field.one.rep], field)], field)
    assert (str(kernel.value) == str(inverse.value) == str(pivot.value)
            == "non-invertible element (reducible modulus)")


ELIMINATION_FIELDS = {"Q": QQ(), "Q(omega)": cyclotomic_field(3), "GF(7)": GF(7),
                      "GF(101)": GF(101)}


@pytest.mark.parametrize("name", sorted(ELIMINATION_FIELDS))
def test_elimination_matches_sympy(name):
    """Rank and kernel of the elimination on ring codes (``_null_basis``;
    the rank is the number of columns less the kernel's) on seeded
    matrices, some with dependent rows, against sympy's ``DomainMatrix``
    over the same field, an oracle that shares no code with lineops: the
    ranks agree, and each kernel vector, decoded by ``_from_key`` with
    first nonzero entry 1, is a multiple of sympy's in the same place,
    since the reduced-echelon basis is unique."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import FF, QQ as SQQ
    from sympy.polys.matrices import DomainMatrix
    field, rng = ELIMINATION_FIELDS[name], random.Random(31)
    if field.kind == NUMBER_FIELD:  # x = omega, a root of x^2 + x + 1
        dom = SQQ.algebraic_field(sympy.sqrt(-3))
        w = dom.from_sympy((-1 + sympy.sqrt(-3)) / 2)

        def to_dom(s):
            return sum((dom.from_sympy(sympy.Rational(a.numerator, a.denominator))
                        * w ** i for i, a in enumerate(nf_fractions(field, s.rep))), dom.zero)
    elif field.characteristic:
        dom = FF(field.characteristic)

        def to_dom(s):
            return dom(s.rep)
    else:
        dom = SQQ

        def to_dom(s):
            return dom(s.rep.numerator, s.rep.denominator)
    x = field.generator if field.degree > 1 else field.one

    def entry():
        e = field.scalar(rng.randint(-3, 3)) + x * rng.randint(-2, 2)
        return e if field.characteristic else e / rng.randint(1, 4)
    ranks = Counter()
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(2, 7)
        rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, nrows))]
        while len(rows) < nrows:
            a, b, c = rng.choice(rows), rng.choice(rows), entry()
            rows.append([u + c * v for u, v in zip(a, b)])
        rng.shuffle(rows)
        ring = [arrangements._ring_flat([e.rep for e in row], field) for row in rows]
        oracle = DomainMatrix([[to_dom(e) for e in row] for row in rows],
                              (nrows, ncols), dom)
        decoded = [_from_key(tuple, v, field) for v in arrangements._null_basis(ring, field)]
        # in the normal form _from_key reads: first nonzero entry 1
        assert all(next(e for e in v if not e.is_zero()) == field.one for v in decoded)
        got = [[to_dom(e) for e in v] for v in decoded]
        rank = ncols - len(got)
        assert rank == oracle.rank()
        ranks[rank == min(nrows, ncols)] += 1
        want = oracle.nullspace().to_list() if rank < ncols else []
        assert len(got) == len(want)
        for u, v in zip(got, want):
            i = next(i for i, e in enumerate(u) if e)
            assert v[i] and all(u[i] * b == a * v[i] for a, b in zip(u, v))
    assert ranks[True] > 10 and ranks[False] > 10  # full rank and deficient


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


def test_decomposition_check_pairs_each_distinct_set_once(count_passes):
    """Lambda_{N,M} and the Lambda_{n,m} of its singletons read one memo of
    pair tables: the complete quadrilateral and grid6 pair their lines,
    P_{2,3}, P_2 and P_3 once each, and dual Hesse, with no double point,
    its lines and P_3 = P_{2,3}."""
    calls, sel23 = count_passes(), sel_exact(2, 3)
    for name, passes, ok in (("complete-quadrilateral", 4, True),
                             ("grid6", 4, False), ("dual-hesse", 2, True)):
        arr = build(name)
        del calls[:]
        assert lambda_decomposition_check(sel23, sel23, arr) is ok
        assert len(calls) == passes, (name, calls)


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


def _moved_grunbaum_rigby():
    arr = build("grunbaum-rigby")
    field = arr.field
    x = field.generator
    g = Projectivity(Matrix3.from_values(field, (
        (1, x, Fraction(1, 2)), (0, x + 1, 2), (x * x, 0, Fraction(-1, 3)))))
    return Arrangement(field, [apply_projectivity(g, l) for l in arr.lines])


def _near_pencil(n):
    return make_arrangement([(1, k, 0) for k in range(n - 1)] + [(0, 0, 1)], F)[0]


def _coordinate_lines(c, ks):
    """The lines (1, k) with 0 inserted at place c: a pencil through the
    coordinate point e_c, whose meets have coordinates 0 in the row keys'
    chart pairs."""
    return [[1, k][:c] + [0] + [1, k][c:] for k in ks]


def _near_pencil_at(c):
    """Six lines through e_c and the line e_c, which misses e_c."""
    e = [0, 0, 0]
    e[c] = 1
    return make_arrangement(_coordinate_lines(c, range(-2, 4)) + [e], F)[0]


def _q_charts():
    """Row lines in each chart of the Q row keys, (1, 0, 0) among them, with
    several meets each, v = 0 meets and meets at u = 0 in the same row."""
    rng = random.Random(11)
    lines = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, -2), (0, 1, 3),
             (1, 0, -1), (1, 0, 2), (1, -1, 0), (2, -3, 0), (3, 1, 0)]
    lines += [[rng.randint(-9, 9) for _ in range(3)] for _ in range(12)]
    return make_arrangement([t for t in lines if any(t)], F)[0]


def _q_big():
    """Lines with coordinates beyond 2^64, of both signs, three to five
    through each of three points."""
    rng = random.Random(5)
    big = lambda: rng.choice((-1, 1)) * rng.randrange(2 ** 64, 2 ** 70)
    lines = [[big() for _ in range(3)] for _ in range(2)]
    for n in (3, 4, 5):
        p = [big() for _ in range(3)]
        for _ in range(n):
            r = [rng.randint(-5, 5) for _ in range(3)]
            lines.append([p[1] * r[2] - p[2] * r[1], p[2] * r[0] - p[0] * r[2],
                          p[0] * r[1] - p[1] * r[0]])
    return make_arrangement(lines, F)[0]


def _farey_row(b):
    """a = (b, -b, 1) and the pencil (j, 1 - j, b), j = 1..40, which sorts
    after it.  In a's chart (x, y) the meet with line j is (n + 1)/n with
    n = b^2 - j: neighbouring meets are Farey neighbours 1/(n (n + 1)) apart,
    near the least distance of two points in a row with coordinates at most
    b, 1/(b (b + 1))^2."""
    return make_arrangement([(b, -b, 1)] + [(j, 1 - j, b) for j in range(1, 41)],
                            F)[0]


PROFILE_INPUTS = {
    "Q": (_cq_step2, None),
    "Q(omega)": (lambda: build("dual-hesse"), None),
    "cubic": (lambda: build("grunbaum-rigby"), None),
    "cubic moved": (_moved_grunbaum_rigby, None),
    "GF(7)": (lambda: _sample_of_plane(7, 25), None),
    "GF(49)": (lambda: _sample_of_plane(49, 40), None),
    # over GF(p), p > 64, the profile is a row pass, which may fork
    "GF(101)": (lambda: _sample_of_plane(101, 40), None),
    "pencil": (lambda: make_arrangement([(1, k, 0) for k in range(6)], F)[0],
               {6: 1}),
    "near pencil": (lambda: _near_pencil(7), {6: 1, 2: 6}),
    "PG(2,3)": (lambda: all_projective_lines(GF(3)), {4: 13}),
    "Q charts": (_q_charts, None),
    "Q coordinate pencils": (lambda: make_arrangement(
        [l for c in range(3) for l in _coordinate_lines(c, range(-3, 4))]
        + [(0, 0, 1)], F)[0], {8: 3, 3: 20, 2: 66}),
    "Q near pencil e0": (lambda: _near_pencil_at(0), {6: 1, 2: 6}),
    "Q near pencil e1": (lambda: _near_pencil_at(1), {6: 1, 2: 6}),
    "Q near pencil e2": (lambda: _near_pencil_at(2), {6: 1, 2: 6}),
    "Q big": (_q_big, None),
    "Q Farey row": (lambda: _farey_row(40), {40: 1, 2: 40}),
    "Q Farey row big": (lambda: _farey_row(2 ** 65 + 1), {40: 1, 2: 40}),
    # the largest b whose row keys are floats, and one whose meets in a's
    # row would collapse as floats: the integer keys must keep them apart
    "Q Farey row float": (lambda: _farey_row(5792), {40: 1, 2: 40}),
    "Q Farey row past floats": (lambda: _farey_row(2 ** 14 + 1), {40: 1, 2: 40}),
}


@pytest.fixture
def forks_unwarned():
    """Fail the test if a fork warned: Python 3.12 and later warn when a
    process with threads forks.  The warning is recorded, because raised as
    an error inside ``os.fork`` it would be cleared."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        yield
    assert not [w for w in log if "fork" in str(w.message)]


@pytest.mark.parametrize("name", sorted(PROFILE_INPUTS))
def test_profile_matches_pair_table(name, monkeypatch, forks_unwarned,
                                    reference_kernels, count_passes):
    """Grouping row by row gives the profile the whole pair table gives,
    with the rows in one share or split among 2 or 3 forked workers, and
    so does the table inside a suite call.  Each row's keys split the row's
    lines as the pair kernel's keys do."""
    make, want = PROFILE_INPUTS[name]
    arr = make()
    ref = _table_profile(arr)
    assert want is None or ref == want
    codes = arrangements._encode(arr.lines, arr.field)
    keys = _code_meets(codes, arr.field)
    for row in arrangements._row_keys(codes, arr.field, range(len(arr) - 1)):
        row = list(row)
        pairs = set(zip(row, islice(keys, len(row))))
        assert len(pairs) == len(set(row)) == len({k for _, k in pairs})
    calls = count_passes()
    prof = profile(arr)
    assert len(calls) == (arr.field.kind != "rationals")
    assert prof.d == len(arr) and prof.as_dict() == ref
    for workers in (2, 3):
        monkeypatch.setattr(arrangements, "_workers", lambda pairs: workers)
        assert profile(arr) == prof
    details = {check: detail for check, _, detail in property_suite(arr)}
    assert details["profile-consistency"] == prof.text()


def test_row_keys_float_up_to_shift_52():
    """Over Q the row keys are floats while 2^52 > V^2, V = 2 bmax^2, and
    exact integers from there on; at b = 2^14 + 1 the 40 quotients
    (n + 1)/n of a's row round to fewer than 40 floats, so keying them by
    floats there would merge meets."""
    for b, kind in ((5792, float), (5793, int)):
        codes = _encode(_farey_row(b).lines, F)
        row = next(arrangements._row_keys(codes, F, range(1)))
        assert {k.__class__ for k in row} == {kind} and len(set(row)) == 40
    b = 2 ** 14 + 1
    assert len({(n + 1) / n for n in range(b * b - 40, b * b)}) < 40


def _table_profile(arr):
    """The profile from the whole pair table, as a dict."""
    table = Counter(_code_meets(_encode(arr.lines, arr.field), arr.field))
    return {_mult_from_pairs(c): n for c, n in Counter(table.values()).items()}


SPLIT_INPUTS = (_cq_step2, lambda: build("dual-hesse"),
                lambda: _sample_of_plane(49, 40),
                lambda: _sample_of_plane(101, 40))


@pytest.mark.parametrize("fault", ["raises", "short result", "killed",
                                   "exits non-zero"])
def test_profile_split_child_fault_is_recomputed(fault, monkeypatch,
                                                 forks_unwarned,
                                                 reference_kernels):
    """A child that raises, sends too little, dies, or exits non-zero after
    sending leaves its share to the parent, which still gives the profile
    of the pair table, and every child is reaped."""
    share_sizes = arrangements._share_sizes

    def raises(tris, field, rows):
        raise RuntimeError("fault in a profile worker")

    def short(tris, field, rows):  # one size missing
        counts = share_sizes(tris, field, rows)
        del counts[max(counts)]
        return counts

    def killed(tris, field, rows):
        os.kill(os.getpid(), signal.SIGKILL)

    def wrong(tris, field, rows):  # every pair its own group: adds up
        return Counter({1: sum(len(tris) - 1 - i for i in rows)})
    if fault == "exits non-zero":
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_(3))
    child_fault = {"raises": raises, "short result": short, "killed": killed,
                   "exits non-zero": wrong}[fault]
    parent = os.getpid()

    def faulty(tris, field, rows):  # only a child sees the fault
        if os.getpid() != parent:
            return child_fault(tris, field, rows)
        return share_sizes(tris, field, rows)
    monkeypatch.setattr(arrangements, "_share_sizes", faulty)
    monkeypatch.setattr(arrangements, "_workers", lambda pairs: 3)
    for make in SPLIT_INPUTS:
        arr = make()
        assert profile(arr).as_dict() == _table_profile(arr)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_profile_split_parent_fault_stops_children(monkeypatch,
                                                   forks_unwarned):
    """When the parent raises, it kills and reaps the children first: here
    they would otherwise run for a minute."""
    parent = os.getpid()

    def faulty(tris, field, rows):
        if os.getpid() == parent:
            raise RuntimeError("fault in the parent's share")
        time.sleep(60)
    monkeypatch.setattr(arrangements, "_share_sizes", faulty)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="parent's share"):
        arrangements._row_sizes(arrangements._encode(_cq_step2().lines, F),
                                F, 3)
    assert time.monotonic() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_profile_split_without_processes(monkeypatch, reference_kernels):
    """When no process can be made, the parent counts every share."""
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(arrangements, "_workers", lambda pairs: 3)
    for make in SPLIT_INPUTS:
        arr = make()
        assert profile(arr).as_dict() == _table_profile(arr)


def test_profile_split_with_sigchld_ignored(monkeypatch, forks_unwarned):
    """A process that ignores SIGCHLD has its children reaped by the
    system; their shares are then counted again, not lost."""
    monkeypatch.setattr(arrangements, "_workers", lambda pairs: 2)
    arr = _cq_step2()
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        prof = profile(arr)
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert prof.as_dict() == _table_profile(arr)


@pytest.mark.skipif(sys.platform != "linux", reason="forks only on Linux")
def test_profile_split_not_with_threads(monkeypatch):
    """With a second thread alive, profile never forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(arrangements, "_SHARE_PAIRS", 1)
    arr = _cq_step2()
    assert arrangements._workers(comb(len(arr), 2)) == 3

    def no_fork():
        raise AssertionError("forked with a second thread alive")
    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert arrangements._workers(comb(len(arr), 2)) == 1
        assert profile(arr).as_dict() == _table_profile(arr)
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()


@pytest.mark.skipif(sys.platform != "linux", reason="forks only on Linux")
def test_profile_split_workers_bounded(monkeypatch):
    """One worker per usable CPU at most, and each share of at least
    ``_SHARE_PAIRS`` pairs."""
    least = arrangements._SHARE_PAIRS
    cpus = len(os.sched_getaffinity(0))
    for pairs in (0, 1, least - 1, least, 2 * least, 7 * least, 10 ** 9):
        workers = arrangements._workers(pairs)
        assert 1 <= workers <= max(1, min(cpus, pairs // least))
    for n in (1, 2, 3, 8):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n: set(range(n)))
        for pairs in (0, least - 1, least, 3 * least, 10 ** 9):
            workers = arrangements._workers(pairs)
            assert workers == max(1, min(n, pairs // least))


def test_profile_holds_no_pair_table():
    """The row-wise profile peaks far below the pair table it replaces."""
    rng = random.Random(3)
    arr = make_arrangement([[rng.randint(-30, 30) for _ in range(3)]
                            for _ in range(320)], F)[0]
    assert len(arr) > 250
    tracemalloc.start()
    try:
        table = Counter(_code_meets(_encode(arr.lines, arr.field), arr.field))
        table_peak = tracemalloc.get_traced_memory()[1]
        ref = Counter(table.values())
        del table
        tracemalloc.reset_peak()
        prof = profile(arr)
        profile_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.as_dict() == {_mult_from_pairs(c): n for c, n in ref.items()}
    assert profile_peak < 500_000 and profile_peak * 20 < table_peak, \
        (profile_peak, table_peak)


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
    for q in (2, 3, 4):
        plane = build("finite-plane", q=q)
        assert classify_degenerate(plane) == "finite-plane"
    assert classify_degenerate(complete_quadrilateral()) == "other"
    tri = build("generic", n=3)
    assert classify_degenerate(tri) == "quasi-trivial"


def test_classify_finite_plane_by_line_count(monkeypatch):
    """q^2+q+1 distinct lines of PG(2,q) are the whole plane, so the
    classification counts them and builds no reference plane."""
    planes = {q: all_projective_lines(GF(q)) for q in (2, 3, 4, 8, 9)}

    def forbidden(field):
        raise AssertionError("all_projective_lines called")
    monkeypatch.setattr(arrangements, "all_projective_lines", forbidden)
    rng = random.Random(11)
    for q, plane in planes.items():
        assert classify_degenerate(plane) == "finite-plane", q
        lines = list(plane.lines)
        # one line short: points of multiplicity q and q + 1
        assert classify_degenerate(Arrangement(plane.field, lines[1:])) == "other"
        sub = Arrangement(plane.field, rng.sample(lines, q + 1))
        assert classify_degenerate(sub) != "finite-plane"
        # the q + 1 lines through (0 : 0 : 1)
        pencil = [l for l in lines if l.coeffs[2].is_zero()]
        assert len(pencil) == q + 1
        assert classify_degenerate(Arrangement(plane.field, pencil)) == "trivial"


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


def _connected_reference(arr, k):
    """Whether the k-points of arr, its lines met one pair at a time, are
    one component when two are joined by sharing a line: a search over the
    k-points."""
    on = {}
    for a, b in combinations(arr.lines, 2):
        on.setdefault(meet(a, b), set()).update((a, b))
    pts = [p for p, ls in on.items() if len(ls) == k]
    seen, todo = set(), pts[:1]
    while todo:
        p = todo.pop()
        if p not in seen:
            seen.add(p)
            todo += [r for r in pts if on[r] & on[p]]
    return len(seen) == len(pts)


def test_configuration_connected_matches_reference():
    """The union-find over lines agrees with a search over the k-points
    that share a line: on two 3-line pencils with no line through both
    centres, whose two 3-points are apart, and on seeded arrangements over
    Q, GF(5) and GF(7), both connected and not: lines of the plane, and
    pencils of three lines through two or three points."""
    pencils, _ = make_arrangement([(1, 0, 0), (0, 1, 0), (1, 1, 0),
                                   (1, 0, -5), (0, 1, -7), (1, 1, -12)], F)
    assert profile(pencils).get(3) == 2
    assert not configuration_connected(pencils, 3)
    assert configuration_connected(pencils, 2)
    rng, outcomes = random.Random(27), Counter()
    cases = [pencils, build("finite-plane", q=2), build("pappus")]
    for _ in range(8):
        lines = all_projective_lines(GF(5)).lines
        cases.append(Arrangement(GF(5), rng.sample(lines, rng.randint(4, 9))))
        for field in (F, GF(7)):
            normals = []
            for _ in range(rng.randint(2, 3)):
                x, y = rng.randint(-3, 3), rng.randint(-3, 3)
                for a, b in rng.sample([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)], 3):
                    normals.append((a, b, -a * x - b * y))
            cases.append(make_arrangement(normals, field)[0])
    for arr in cases:
        for k in (2, 3, 4):
            got = configuration_connected(arr, k)
            assert got == _connected_reference(arr, k), (arr, k)
            outcomes[got] += 1
    assert min(outcomes[True], outcomes[False]) > 5


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


def test_property_suite_pairs_each_distinct_set_once(count_passes):
    calls = count_passes()
    for arr, want in ((build("dual-hesse"), 2), (build("hesse"), 4),
                      (build("finite-plane", q=3), 1)):
        for _ in range(2):  # nothing kept from the previous call
            del calls[:]
            results = property_suite(arr)
            assert all(ok for _, ok, _ in results)
            assert len(calls) == want, (arr, calls)
    # outside a suite call nothing is cached
    arr = build("dual-hesse")
    del calls[:]
    profile(arr)
    profile(arr)
    assert len(calls) == 2
    assert points_operator(sel_at_least(2), arr) is not \
        points_operator(sel_at_least(2), arr)


def test_property_suite_drops_its_memo_when_it_raises(monkeypatch,
                                                     count_passes):
    calls = count_passes()

    def broken(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(arrangements, "_inequalities", broken)
    arr = build("hesse")
    with pytest.raises(RuntimeError):
        property_suite(arr)
    del calls[:]
    profile(arr)
    profile(arr)
    assert len(calls) == 2


def _reference_suite(arr, real):
    """The property suite on objects: each check through the public
    operators, profile and classification, with no memo."""
    results = []
    if real is None:
        real = arr.field.kind == RATIONALS
    prof = None
    try:
        prof = profile(arr)
        results.append(("profile-consistency", True, prof.text()))
    except ArrangementError as e:
        results.append(("profile-consistency", False, str(e)))
    for nsel, msel in ((sel_exact(2), sel_exact(3)),
                       (sel_at_least(2), sel_at_least(3))):
        lhs = dualize_arrangement(lambda_op(nsel, msel, arr))
        rhs = psi_op(nsel, msel, dualize_arrangement(arr))
        results.append((f"duality-conjugation[{nsel.text};{msel.text}]",
                        lhs == rhs, ""))
    msel = MultiplicitySelector(exact=frozenset({2, 3}))
    for m in (2, 3):
        ok = lambda_decomposition_check(sel_exact(m), msel, arr)
        results.append((f"decomposition[{m};2,3]", ok, ""))
    for nsel, msel in ((sel_at_least(2), sel_at_least(2)),
                       (sel_at_least(3), sel_at_least(2)),
                       (sel_at_least(2), sel_at_least(3))):
        has_new = len(arr.union(lambda_op(nsel, msel, arr))) > len(arr)
        bound = nsel.min_member * msel.min_member
        ok = (not has_new) or len(arr) >= bound
        results.append((f"new-line-bound[{nsel.text};{msel.text}]", ok,
                        f"|L|={len(arr)}, bound={bound}"))
    kind = classify_degenerate(arr)
    if len(arr) >= 3 and kind not in ("trivial", "empty") and prof is not None:
        results.append(("de-bruijn-erdos", prof.total_points >= len(arr),
                        f"t={prof.total_points}, d={len(arr)}"))
    rep = inequality_report(arr, real=real)
    if rep.melchior.applicable:
        results.append(("melchior", rep.melchior.slack >= 0,
                        f"slack={rep.melchior.slack}"))
    if rep.hirzebruch.applicable:
        results.append(("hirzebruch", rep.hirzebruch.slack >= 0,
                        f"slack={rep.hirzebruch.slack}"))
    sel2 = sel_at_least(2)
    if not arr.is_empty() and lambda_op(sel2, sel2, arr) == arr:
        results.append(("2-2-fixed-classification",
                        kind in ("quasi-trivial", "finite-plane"), kind))
    return results


def _plane_and_subsets(q):
    plane = all_projective_lines(GF(q))
    rng = random.Random(q)
    return [plane] + [Arrangement(plane.field, rng.sample(plane.lines, k))
                      for k in (2, 3, q + 2, len(plane) // 2, len(plane) - 1)]


SUITE_INPUTS = {
    "Q": lambda: [complete_quadrilateral(), build("grid6"), build("pappus"),
                  _cq_step2(), generic_lines(7), build("unassuming")],
    "Q(omega)": lambda: [build("dual-hesse"), build("hesse"),
                         _moved_into(build("dual-hesse").field)],
    "cubic": lambda: [build("grunbaum-rigby")],
    "GF(3)": lambda: _plane_and_subsets(3),
    "GF(4)": lambda: _plane_and_subsets(4),
    "GF(8)": lambda: _plane_and_subsets(8),
    "edge cases": lambda: [
        Arrangement(F), make_arrangement([(1, 2, 3)], F)[0],
        make_arrangement([(1, k, 0) for k in range(5)], F)[0],
        _near_pencil(6), build("quasi-trivial", n=4),
        all_projective_lines(GF(9)), Arrangement(GF(4)),
        Arrangement(GF(9), all_projective_lines(GF(9)).lines[:1])],
}


@pytest.mark.parametrize("name", sorted(SUITE_INPUTS))
def test_property_suite_matches_reference_suite(name):
    """The suite on codes reports what the checks on objects report."""
    for arr in SUITE_INPUTS[name]():
        for real in (None, True, False):
            assert property_suite(arr, real=real) == _reference_suite(arr, real), \
                (name, arr, real)


def test_property_suite_builds_no_objects(monkeypatch):
    arrs = [build("dual-hesse"), build("grunbaum-rigby"), _cq_step2(),
            all_projective_lines(GF(4)), Arrangement(F)]
    for arr in arrs:  # operators' results: decode them before the patch
        list(arr)
    built = []
    for cls in (ProjPoint, ProjLine, Arrangement, PointConfig):
        def counting(self, *args, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    for arr in arrs:
        assert all(ok for _, ok, _ in property_suite(arr))
    assert built == []
    sel = sel_at_least(2)
    pts = points_operator(sel, arrs[0])
    list(pts), list(lines_operator(sel, pts))  # the count works
    # decoding builds the members, never a set
    assert set(built) == {"ProjPoint", "ProjLine"}


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


def test_equivalence_reflexive_symmetric_on_catalog(same_witness):
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


def test_equivalence_wrapper(same_witness):
    cq = complete_quadrilateral()
    assert arrangements_equivalent(cq, cq) is not None
    assert arrangements_equivalent(Arrangement(F), Arrangement(F)) is not None
    assert arrangements_equivalent(cq, build("grid6")) is None
