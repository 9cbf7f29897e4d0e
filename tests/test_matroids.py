import random
import time
from itertools import combinations

import pytest

from lineops.arrangements import (_encode, lambda_op, make_arrangement,
                                  sel_at_least, sel_exact)
from lineops.catalog import build, build_lines
from lineops.fields import GF, QQ, FieldError
from lineops.matroids import (Matroid3, MatroidError, extract_matroid,
                              flashing_incidence, matroid_from_json,
                              matroid_isomorphic, matroid_to_json,
                              reye_matroid)
from lineops.projective import GeometryError, line, point

from conftest import reference_matroid_isomorphic, reference_pair_index


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
    with pytest.raises(MatroidError, match="non-negative"):
        Matroid3.from_flats(-3, [])


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


def _maps_flats(bij, a, b):
    """Whether ``bij`` is a bijection of the ground set carrying a's flats
    exactly onto b's."""
    return (sorted(bij) == list(range(a.ground))
            and {tuple(sorted(bij[i] for i in f)) for f in a.flats} == set(b.flats))


def _shuffled(m, seed):
    perm = list(range(m.ground))
    random.Random(seed).shuffle(perm)
    return Matroid3.from_flats(m.ground, [[perm[i] for i in f] for f in m.flats])


def _affine_plane(q):
    flats = [[q * x + (s * x + c) % q for x in range(q)] for s in range(q) for c in range(q)]
    flats += [[q * c + y for y in range(q)] for c in range(q)]
    return Matroid3.from_flats(q * q, flats)


# the two 9_3 configurations other than Pappus (Grünbaum, *Configurations
# of Points and Lines*, 2009)
_OTHER_9_3 = (
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 7), (2, 4, 8),
     (2, 6, 7), (3, 6, 8), (5, 7, 8)],
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 7), (2, 3, 8),
     (2, 6, 7), (4, 6, 8), (5, 7, 8)])


def _differential_matroids():
    f0 = build("flashing3")
    return ([extract_matroid(build("finite-plane", q=q)) for q in (2, 3, 4)]
            + [extract_matroid(build(name))
               for name in ("pappus", "dual-hesse", "hesse", "klein")]
            + [Matroid3.from_flats(9, flats) for flats in _OTHER_9_3]
            + [extract_matroid(f0.union(lambda_op(sel_exact(2), sel_exact(3), f0))),
               flashing_incidence(3).as_matroid(),
               extract_matroid(build_lines("flashing4", part="all")[1]),
               flashing_incidence(4).as_matroid(),
               reye_matroid(),
               extract_matroid(build_lines("gv13")[1])])


def test_isomorphism_matches_reference_search():
    """The refinement and the backtracking it replaced agree on None
    against a witness, on seeded relabelings of each matroid and on every
    pair of matroids with the same ground size and flat sizes, and each
    witness of either maps flats onto flats.  The witnesses themselves may
    differ: both searches return the first one they reach."""
    mats = _differential_matroids()
    pairs = [(m, _shuffled(m, seed)) for m in mats for seed in (1, 2, 3)]
    pairs += [(a, b) for a in mats for b in mats if a is not b
              and a.ground == b.ground and a.flat_sizes() == b.flat_sizes()]
    found = [matroid_isomorphic(a, b) is not None for a, b in pairs[3 * len(mats):]]
    assert found.count(True) == 4 and found.count(False) == 6
    for a, b in pairs:
        got, want = matroid_isomorphic(a, b), reference_matroid_isomorphic(a, b)
        assert (got is None) == (want is None), (a, b)
        for bij in (got, want):
            assert bij is None or _maps_flats(bij, a, b), (a, b)


def _non_collinearity_cycles(flats, n):
    """Cycle lengths of the graph joining two of the n points when no flat
    holds both; in a 9_3 configuration every point is collinear with six
    others, so the graph is 2-regular and a union of cycles."""
    collinear = {frozenset(p) for f in flats for p in combinations(f, 2)}
    adj = [[j for j in range(n) if j != i and frozenset((i, j)) not in collinear]
           for i in range(n)]
    assert all(len(nb) == 2 for nb in adj)
    seen, lengths = set(), []
    for start in range(n):
        if start in seen:
            continue
        stack, size = [start], 0
        seen.add(start)
        while stack:
            size += 1
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        lengths.append(size)
    return sorted(lengths)


def test_isomorphism_tells_the_three_9_3_configurations_apart():
    """Pappus and the two other 9_3 configurations have equal flat sizes
    and every element on three flats, so no flat count tells them apart;
    the cycle types of their non-collinearity graphs (3 C3, C9, C3 + C6)
    show they are pairwise non-isomorphic."""
    nines = [extract_matroid(build("pappus"))]
    nines += [Matroid3.from_flats(9, flats) for flats in _OTHER_9_3]
    types = [_non_collinearity_cycles(m.flats, 9) for m in nines]
    assert types == [[3, 3, 3], [9], [3, 6]]
    for a, b in combinations(nines, 2):
        assert matroid_isomorphic(a, b) is None
    for seed, m in enumerate(nines):
        moved = _shuffled(m, seed)
        assert _maps_flats(matroid_isomorphic(m, moved), m, moved)


@pytest.mark.parametrize("name, bound", [("PG(2,5)", 0.05), ("PG(2,7)", 1.0),
                                         ("PG(2,8)", 1.0), ("AG(2,7)", 1.0)])
def test_isomorphism_of_symmetric_planes_is_fast(name, bound):
    """The matroids of the finite planes against seeded shuffles of
    themselves: the backtracking search took 0.2 s on PG(2,5) and was not
    done after 300 s on PG(2,7).  Best of three runs per shuffle."""
    m = (_affine_plane(7) if name == "AG(2,7)" else
         extract_matroid(build("finite-plane", q=int(name[5]))))
    for seed in (1, 2):
        moved = _shuffled(m, seed)

        def seconds():
            t0 = time.perf_counter()
            bij = matroid_isomorphic(m, moved)
            assert _maps_flats(bij, m, moved), (name, seed)
            return time.perf_counter() - t0
        assert min(seconds() for _ in range(3)) < bound, (name, seed)
    assert matroid_isomorphic(m, m) == tuple(range(m.ground))


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


def test_isomorphism_pairs_interchangeable_elements_without_recursion(tmp_path, capsys):
    """1,200 elements on no flat, one flat through 1,200 elements, and PG(2,3)
    beside 1,187 elements on no flat, each against a seeded shuffle: a
    class no flat separates is paired at once and the search runs on a
    stack, so each gives a checked bijection in under 1 s (recursing once
    per element ended in a RecursionError).  The CLI exits 0 on the
    flat-free document."""
    from lineops.cli import run_cli
    pg3 = extract_matroid(build("finite-plane", q=3))
    for m in (Matroid3(1200, ()), Matroid3(1200, (tuple(range(1200)),)),
              Matroid3.from_flats(1200, pg3.flats)):
        for moved in (m, _shuffled(m, 4)):
            t0 = time.perf_counter()
            bij = matroid_isomorphic(m, moved)
            assert time.perf_counter() - t0 < 1.0
            assert _maps_flats(bij, m, moved)
    doc = tmp_path / "free.json"
    doc.write_text('{"ground": 1200, "flats": []}')
    assert run_cli(["matroid", "iso", "--a", str(doc), "--b", str(doc)]) == 0
    out = capsys.readouterr().out
    assert out == "isomorphic; bijection " + " ".join(map(str, range(1200))) + "\n"
