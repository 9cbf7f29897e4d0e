"""The finite-plane incidence pass against the reference pair kernels and
the reference incidence count.

Over GF(q), q <= ``arrangements._PLANE_ORDER``, objects are coded by their
ordinals in PG(2,q), and pair tables, pair indices, profiles and operator
images come from counting incidences on one int mask per ordinal of PG(2,q)
(``arrangements._plane_masks``) in a bit-sliced counter, read as one mask
per count (``arrangements._value_classes``).  The references are the pair
kernels of ``conftest.py`` that the ``reference_kernels`` fixture supplies,
``_prime_meets`` over GF(p), and a table kernel over GF(p^k), each run on
the triples of the ordinals; and the ``Counter`` pass over a table of
PG(2,q), ``reference_incidences``, which the value classes are checked
against directly.
"""
import os
import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from lineops import arrangements
from lineops.arrangements import (Arrangement, PointConfig,
                                  SingularityProfile, _bits,
                                  _encode, _from_key, _groups,
                                  _mult_from_pairs, _plane_key,
                                  _value_classes, all_projective_lines,
                                  dualize_arrangement, lambda_op,
                                  lines_operator, points_operator, profile,
                                  sel_at_least, sel_exact)
from lineops.catalog import build
from lineops.dynamics import apply_operator, lambda_spec
from lineops.fields import GF, _gf_tables, prime_field_spec
from lineops.projective import ProjPoint, dualize, incident, meet

from conftest import code_counts, reference_incidences, reference_plane_table

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 61, 64)
# over GF(49) and up the reference kernels pair about 12M point pairs, several
# seconds, so tier-1 skips those orders and the heavy CI step runs them
HEAVY = os.environ.get("LINEOPS_HEAVY") == "1"


def _dot(field):
    """a.b of the triples of two ordinals of PG(2,q), for the incidence of
    a point and a line."""
    _, code, mul, sub, _ = _gf_tables(field.spec)
    q = len(code)

    def dot(a, b):
        s = 0
        for x, y in zip(_plane_key(a, q), _plane_key(b, q)):
            s = sub[s * q + sub[mul[x * q + y]]]  # s - (-(x y))
        return s
    return dot


def _reference_table(codes, field):
    """key -> multiplicity, from the reference pair kernel's pair counts."""
    counts = Counter(arrangements._code_meets(codes, field))
    return {k: _mult_from_pairs(c) for k, c in counts.items()}


def _reference_profile(d, table) -> dict:
    """t_k of d objects from a pair table key -> multiplicity."""
    return SingularityProfile.from_dict(d, Counter(table.values())).as_dict()


def _selected_keys(sel, table):
    return {key for key, k in table.items() if sel.contains(k)}


def _keys(objs):
    return set(arrangements._encode(objs, objs.field))


def _check_pass(objs, field, ref):
    """The pair table and the groups of ``objs`` on at least 2 and 3 of
    them against the reference table ``ref``: the groups have the
    reference sizes, in ascending order, and each of their objects is
    incident to the keyed position."""
    codes, dot = _encode(objs, field), _dot(field)
    assert code_counts(codes, field) == ref
    for least in (2, 3):
        index = _groups(codes, field, least)
        assert index.keys() == {key for key, k in ref.items() if k >= least}
        for key, s in index.items():
            assert len(s) == ref[key] and s == sorted(s)
            assert all(dot(codes[i], key) == 0 for i in s)


def _subsets(q):
    """Fixed-seed line subsets of PG(2,q), of sizes 2, 3, q+1, 2q+3 and 60
    (at most the whole plane)."""
    field = GF(q)
    lines = all_projective_lines(field).lines
    rng = random.Random(q)
    return [Arrangement(field, rng.sample(lines, n))
            for n in sorted({min(n, len(lines))
                             for n in (2, 3, q + 1, 2 * q + 3, 60)})]


def _check_arrangement(arr):
    """Every incidence pass over ``arr`` and its P_{>=2} points against
    the reference pair kernels."""
    field = arr.field
    ref = _reference_table(arrangements._encode(arr.lines, field), field)
    _check_pass(arr.lines, field, ref)
    assert profile(arr).as_dict() == _reference_profile(len(arr), ref)
    pts = points_operator(sel_at_least(2), arr)
    assert _keys(pts) == _selected_keys(sel_at_least(2), ref)
    two = points_operator(sel_exact(2), arr)
    assert _keys(two) == _selected_keys(sel_exact(2), ref)
    ref2 = _reference_table(arrangements._encode(two.points, field), field)
    assert _keys(lambda_op(sel_exact(2), sel_exact(3), arr)) == \
        _selected_keys(sel_exact(3), ref2)
    # the P_{>=2} points, paired as points
    ref_pts = _reference_table(arrangements._encode(pts.points, field), field)
    _check_pass(pts.points, field, ref_pts)
    for sel in (sel_at_least(2), sel_exact(3)):
        assert _keys(lines_operator(sel, pts)) == _selected_keys(sel, ref_pts)
    assert profile(dualize_arrangement(pts)).as_dict() == \
        _reference_profile(len(pts), ref_pts)


LARGE = pytest.mark.skipif(not HEAVY,
                           reason="large fields run behind LINEOPS_HEAVY=1")


@pytest.mark.parametrize("q", [pytest.param(q, marks=LARGE) if q >= 49 else q
                               for q in ORDERS])
def test_incidence_matches_reference_kernels(q, reference_kernels):
    """Each subset's pair table, groups, profile and P, L and
    Lambda_{2,3} images, as lines and with its P_{>=2} points as points."""
    for arr in _subsets(q):
        _check_arrangement(arr)


@st.composite
def _plane_subset(draw):
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    lines = all_projective_lines(GF(q)).lines
    mask = draw(st.lists(st.booleans(), min_size=len(lines),
                         max_size=len(lines)))
    return Arrangement(GF(q), [l for l, keep in zip(lines, mask) if keep])


# the fixture only adds a kernel to a table, so examples may share it
@hypothesis.settings(derandomize=True, database=None, max_examples=150,
                     deadline=None, suppress_health_check=[
                         hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(arr=_plane_subset())
def test_incidence_property_on_small_planes(arr, reference_kernels):
    """Any subset of PG(2,q), q <= 9, on fixed-seed examples: the passes
    agree with the reference kernels, the groups partition the pairs
    as ``meet`` on the objects does, and the profile counts every pair."""
    _check_arrangement(arr)
    lines, want = arr.lines, {}
    for i, j in combinations(range(len(lines)), 2):
        want.setdefault(meet(lines[i], lines[j]), set()).update((i, j))
    assert {_from_key(ProjPoint, k, arr.field): set(s) for k, s in
            _groups(_encode(lines, arr.field), arr.field, 2).items()} == want
    counts = profile(arr).counts
    assert sum(comb(k, 2) * t for k, t in counts) == comb(len(arr), 2)


@pytest.mark.parametrize("q", ORDERS)
def test_incidence_table_structure(q):
    """The lines of the plane are coded by the ordinals 0, ..., q^2+q; each
    ordinal's mask has the q+1 bits of the row of the reference table, all
    of objects incident to its own, and two masks share exactly one bit
    (every pair for q <= 9, 2,000 random pairs above)."""
    field = GF(q)
    masks, n = arrangements._PlaneMasks(field.spec), q * q + q + 1
    table = reference_plane_table(field.spec)
    assert len(table) == n * (q + 1)
    assert sorted(_encode(all_projective_lines(field).lines, field)) == \
        list(range(n))
    rows = [_bits(masks[o]) for o in range(n)]
    assert rows == [sorted(table[o * (q + 1):(o + 1) * (q + 1)]) for o in range(n)]
    dot = _dot(field)
    assert all(dot(o, x) == 0 for o, row in enumerate(rows) for x in row)
    if q <= 9:
        pairs = combinations(range(n), 2)
    else:
        rng = random.Random(q)
        pairs = (rng.sample(range(n), 2) for _ in range(2000))
    assert all((masks[a] & masks[b]).bit_count() == 1 for a, b in pairs)


def _pencils(field):
    """The q+1 lines through the point of the top ordinal q^2+q, (0, 0, 1),
    and the q+1 points on the line of that ordinal, as their sets."""
    top = ProjPoint((field.zero, field.zero, field.one))
    through = [l for l in all_projective_lines(field) if incident(top, l)]
    return Arrangement(field, through), PointConfig(field, map(dualize, through))


@pytest.mark.parametrize("q", ORDERS)
def test_incidence_value_classes_match_counter_reference(q):
    """The value classes of the plane pass against the ``Counter`` pass of
    the reference table, in the line and in the point direction: the empty
    set, each single object at either end of the ordinals, the whole plane
    (every position on q+1, so the counts cross slice boundaries at q+1 =
    4, 8, 17 and 65), the pencil through the top ordinal and fixed-seed
    subsets.  The classes partition the positions counted at all."""
    field, n = GF(q), q * q + q + 1
    plane = all_projective_lines(field)
    pencil, points = _pencils(field)
    rng = random.Random(q)
    sets = [Arrangement(field), PointConfig(field), plane,
            dualize_arrangement(plane), pencil, points,
            Arrangement(field, rng.sample(plane.lines, min(n, 2 * q + 3)))]
    sets += [PointConfig(field, [dualize(plane.lines[i])]) for i in (0, n - 1)]
    sets += [Arrangement(field, [plane.lines[i]]) for i in (0, n - 1)]
    for objs in sets:
        codes = _encode(objs, field)
        classes = _value_classes(codes, field)
        got = {o: k for k, m in classes.items() for o in _bits(m)}
        assert got == dict(reference_incidences(codes, field))
        assert sum(m.bit_count() for m in classes.values()) == len(got)
        assert all(m for m in classes.values())
    assert _value_classes(_encode(plane, field), field) == {q + 1: (1 << n) - 1}
    top = 1 << n - 1
    for objs in (pencil, points):
        assert len(objs) == q + 1 and _value_classes(_encode(objs, field), field) \
            == {q + 1: top, 1: (1 << n) - 1 - top}


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 61, 64))
def test_incidence_finite_plane_closed_form(q):
    """PG(2,q) has t_(q+1) = q^2+q+1, which its build checks, and
    L{>=2;>=2} fixes it."""
    plane = build("finite-plane", q=q)
    assert profile(plane).as_dict() == {q + 1: q * q + q + 1}
    L22 = lambda_spec(sel_at_least(2), sel_at_least(2))
    assert apply_operator(L22, plane) == plane


def test_prime_field_tables_are_residue_arithmetic():
    """A prime spec reads as GF(p)[x]/(x), so ``_gf_tables`` gives the
    residue product, difference and inverse tables that ``_plane_masks``
    take for every GF(p), p <= 61."""
    for p in (p for p in range(2, 62) if all(p % d for d in range(2, p))):
        _, code, mul, sub, inv = _gf_tables(prime_field_spec(p))
        assert code == {(a,): a for a in range(p)}
        assert mul == [a * b % p for a in range(p) for b in range(p)]
        assert sub == [(a - b) % p for a in range(p) for b in range(p)]
        assert inv == [0] + [pow(a, -1, p) for a in range(1, p)]
