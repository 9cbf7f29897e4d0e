import random
import time

import pytest

from lineops.arrangements import (_encode, lambda_op, make_arrangement,
                                  sel_at_least)
from lineops.catalog import build, build_lines
from lineops.fields import GF, QQ, FieldError
from lineops.matroids import (Matroid3, MatroidError, extract_matroid,
                              flashing_incidence, matroid_from_json,
                              matroid_isomorphic, matroid_to_json,
                              reye_matroid)
from lineops.projective import GeometryError, line, point

from conftest import reference_pair_index


def _gf67_lines():
    """Lambda_{>=2;>=2} of seven seeded lines over GF(67), past the finite
    planes, so that the pair kernel groups them."""
    rng = random.Random(67)
    start, _ = make_arrangement([[rng.randrange(67) for _ in range(3)] for _ in range(7)],
                                GF(67))
    return lambda_op(sel_at_least(2), sel_at_least(2), start)


def test_extract_examples():
    assert extract_matroid(build("generic", n=5)).flats == ()
    fano = extract_matroid(build("finite-plane", q=2))
    assert fano.flat_sizes() == [3] * 7
    pap = extract_matroid(build("pappus"))
    assert pap.flat_sizes() == [3] * 9


def test_extract_lines_from_different_fields_rejected():
    """A labelled sequence of lines over GF(7) and GF(5), or over Q and a
    number field, is refused, not coded in the first line's field."""
    gf7, _ = make_arrangement([(1, 0, 0), (0, 1, 0)], GF(7))
    gf5, _ = make_arrangement([(1, 1, 1)], GF(5))
    q, nf = build("pappus"), build("polygonal", n=10)
    for seq in ([*gf7.lines, *gf5.lines], [*q.lines[:2], *nf.lines[:2]]):
        with pytest.raises(FieldError, match="live in different fields"):
            extract_matroid(seq)


def test_extract_points_or_mixed_objects_rejected():
    """Points are not read as the lines with their triples: four points,
    three of them collinear, or a line and the point with its triple."""
    F = QQ()
    pts = [point(F, 1, 0, 0), point(F, 0, 1, 0), point(F, 1, 1, 0), point(F, 0, 0, 1)]
    for seq in (pts, [line(F, 1, 0, 0), point(F, 1, 0, 0)]):
        with pytest.raises(GeometryError, match="expected lines"):
            extract_matroid(seq)


@pytest.mark.parametrize("name", ["pappus", "dual-hesse", "klein", "PG(2,4)",
                                  "GF(67)"])
def test_extract_matroid_matches_reference_incidence(name):
    """The flats of a labelled arrangement, in its canonical order and in
    a shuffled order, are the sets of the reference pair index of three or
    more lines."""
    arr = (build("finite-plane", q=4) if name == "PG(2,4)" else
           _gf67_lines() if name == "GF(67)" else build(name))
    lines = list(arr.lines)
    random.Random(5).shuffle(lines)
    for labelled in (arr, lines):
        ref = reference_pair_index(_encode(list(labelled), arr.field), arr.field)
        flats = sorted(tuple(sorted(s)) for s in ref.values() if len(s) >= 3)
        assert extract_matroid(labelled).flats == tuple(flats) and flats


def test_affine_plane_incidence_matroid_builds_fast():
    """The matroid of AG(2,37), its 1406 lines of 37 points as flats on
    1369 points: the flat rules are checked in one pass over the flats
    through each point, under 0.3 s, and a line that meets a flat in two
    points is still refused."""
    q = 37
    flats = [[q * x + (m * x + c) % q for x in range(q)] for m in range(q) for c in range(q)]
    flats += [[q * c + y for y in range(q)] for c in range(q)]

    def seconds():
        t0 = time.perf_counter()
        m = Matroid3.from_flats(q * q, flats)
        assert len(m.flats) == 1406 and m.flat_sizes() == [q] * 1406
        return time.perf_counter() - t0
    assert min(seconds() for _ in range(3)) < 0.3
    with pytest.raises(MatroidError, match="share more than one element"):
        Matroid3.from_flats(q * q, flats + [[0, 1, q]])


def test_flat_rules_enforced():
    with pytest.raises(MatroidError):
        Matroid3.from_flats(5, [(0, 1)])
    with pytest.raises(MatroidError):
        Matroid3.from_flats(5, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(MatroidError):
        Matroid3.from_flats(3, [(0, 1, 5)])


def test_matroid_refuses_flats_out_of_order():
    """A flat built directly must be a strictly increasing tuple: a repeated
    element, a flat out of order or a list is refused; ``from_flats`` and
    the JSON reader sort and merge as before."""
    for flat in ((0, 0, 1), (0, 1, 1, 2), (2, 1, 0), [0, 1, 2]):
        with pytest.raises(MatroidError):
            Matroid3(4, (flat,))
    assert Matroid3(4, ((0, 1, 2),)).non_bases() == [(0, 1, 2)]
    m = Matroid3.from_flats(4, [(2, 0, 1, 1)])
    assert m.flats == ((0, 1, 2),) and m.non_bases() == [(0, 1, 2)]
    assert matroid_from_json({"ground": 4, "flats": [[2, 1, 0, 0]]}) == m


def test_non_bases():
    m = Matroid3.from_flats(5, [(0, 1, 2, 3)])
    assert m.non_bases() == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_isomorphism_identity_and_relabel():
    fano = extract_matroid(build("finite-plane", q=2))
    assert matroid_isomorphic(fano, fano) == tuple(range(7))
    relabel = Matroid3.from_flats(
        7, [tuple((i * 3 + 1) % 7 for i in f) for f in fano.flats])
    bij = matroid_isomorphic(fano, relabel)
    assert bij is not None
    assert {tuple(sorted(bij[i] for i in f)) for f in fano.flats} == \
        set(relabel.flats)


def test_isomorphism_negative():
    fano = extract_matroid(build("finite-plane", q=2))
    pap = extract_matroid(build("pappus"))
    assert matroid_isomorphic(fano, pap) is None  # different ground size
    # same sizes, different structure: pappus vs 9 lines with other flats
    other = Matroid3.from_flats(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8),
                                    (0, 3, 6), (1, 4, 7), (2, 5, 8),
                                    (0, 4, 8), (2, 4, 6), (1, 3, 8)])
    # element 4 of other lies on four flats, every Pappus element on three
    assert matroid_isomorphic(pap, other) is None


def test_gv13_flats_match_listed_non_bases():
    _, lines = build_lines("gv13")
    m = extract_matroid(lines)
    listed = [(1, 5, 7), (1, 8, 10), (1, 11, 12), (2, 5, 6), (2, 8, 9),
              (2, 11, 13), (3, 4, 5), (3, 6, 8), (3, 7, 11), (3, 9, 10),
              (3, 12, 13), (2, 4, 7, 10, 12), (1, 4, 6, 9, 13)]
    want = sorted(tuple(sorted(x - 1 for x in f)) for f in listed)
    assert sorted(m.flats) == want


def test_flashing_incidence_matrix():
    with pytest.raises(MatroidError):
        flashing_incidence(2)
    fi3 = flashing_incidence(3)
    assert fi3.shape == (10, 9)
    assert all(sum(row) in (3,) for row in fi3.rows[:-1])
    assert sum(fi3.rows[-1]) == 3
    fi4 = flashing_incidence(4)
    assert fi4.shape == (17, 12)
    assert fi4.as_matroid().flat_sizes() == [3] * 16 + [4]
    fi5 = flashing_incidence(5)
    assert fi5.shape == (26, 15)
    assert fi5.as_matroid().flat_sizes() == [3] * 25 + [5]


def test_flashing_realizations_match_incidence():
    from lineops.arrangements import lambda_op, sel_exact
    f0 = build("flashing3")
    f1 = lambda_op(sel_exact(2), sel_exact(3), f0)
    union9 = f0.union(f1)
    m9 = extract_matroid(union9)
    assert matroid_isomorphic(flashing_incidence(3).as_matroid(), m9) is not None
    _, l12 = build_lines("flashing4", part="all")
    m12 = extract_matroid(l12)
    assert matroid_isomorphic(flashing_incidence(4).as_matroid(), m12) is not None


def test_reye_not_isomorphic_to_flashing4():
    rey = reye_matroid()
    assert rey.flat_sizes() == [3] * 16
    _, l12 = build_lines("flashing4", part="all")
    m12 = extract_matroid(l12)
    assert matroid_isomorphic(rey, m12) is None


def test_reye_flats():
    rey = reye_matroid()
    assert rey.flats == (
        (0, 1, 11), (0, 2, 10), (0, 4, 9), (0, 7, 8), (1, 3, 10), (1, 5, 9),
        (1, 6, 8), (2, 3, 11), (2, 5, 8), (2, 6, 9), (3, 4, 8), (3, 7, 9),
        (4, 5, 11), (4, 6, 10), (5, 7, 10), (6, 7, 11))
    assert all(sum(i in f for f in rey.flats) == 4 for i in range(12))


def test_isomorphism_transitive_on_relabelings():
    base = extract_matroid(build("finite-plane", q=2))
    perm1 = [(i * 2 + 3) % 7 for i in range(7)]
    perm2 = [(i * 4 + 1) % 7 for i in range(7)]
    m1 = Matroid3.from_flats(7, [tuple(perm1[i] for i in f) for f in base.flats])
    m2 = Matroid3.from_flats(7, [tuple(perm2[i] for i in f) for f in base.flats])
    ab = matroid_isomorphic(base, m1)
    bc = matroid_isomorphic(m1, m2)
    assert ab is not None and bc is not None
    composed = tuple(bc[ab[i]] for i in range(7))
    assert {tuple(sorted(composed[i] for i in f)) for f in base.flats} == \
        set(m2.flats)


def test_flat_pair_bound():
    from math import comb
    for name in ("pappus", "dual-hesse", "klein"):
        m = extract_matroid(build(name))
        assert sum(comb(len(f), 2) for f in m.flats) <= comb(m.ground, 2)


def test_matroid_json_roundtrip():
    m = extract_matroid(build("pappus"))
    assert matroid_from_json(matroid_to_json(m)) == m


@pytest.mark.parametrize("doc", [
    [3], None, {"flats": []}, {"ground": "3", "flats": []},
    {"ground": 3}, {"ground": 3, "flats": 5}, {"ground": 3, "flats": [5]},
    {"ground": 3, "flats": [[0, 1, "a"]]},
])
def test_malformed_matroid_document(doc):
    with pytest.raises(MatroidError):
        matroid_from_json(doc)
