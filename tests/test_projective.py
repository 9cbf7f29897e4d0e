import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from lineops.arrangements import (Arrangement, PointConfig, all_projective_lines,
                                  dualize_arrangement, incidence_index)
from lineops.fields import GF, QQ, FieldError, cyclotomic_field, number_field
from lineops.projective import (Conic, GeometryError, Matrix3, ProjLine,
                                ProjPoint, Projectivity, RichConic,
                                apply_projectivity,
                                collinear, common_conic, conic_through,
                                dualize, incident, join, line,
                                lines_in_general_position, meet, point,
                                projectively_equivalent,
                                projectivity_from_line_frames,
                                projectivity_from_point_frames, rich_conics,
                                _concurrency)

from conftest import nf_rep, reference_general_position, reference_pencil_split, value_key

F = QQ()


def rand_lines(rng, n, lo=-4, hi=4):
    out = []
    seen = set()
    while len(out) < n:
        try:
            cand = line(F, rng.randint(lo, hi), rng.randint(lo, hi),
                        rng.randint(lo, hi))
        except GeometryError:
            continue
        if cand.key() not in seen:
            seen.add(cand.key())
            out.append(cand)
    return out


def test_join_meet_basics():
    assert join(point(F, 1, 0, 0), point(F, 0, 1, 0)) == line(F, 0, 0, 1)
    assert meet(line(F, 1, 0, 0), line(F, 0, 1, 0)) == point(F, 0, 0, 1)
    with pytest.raises(GeometryError):
        join(point(F, 1, 2, 3), point(F, 2, 4, 6))
    with pytest.raises(GeometryError):
        meet(line(F, 1, 0, 0), line(F, 2, 0, 0))
    # one body serves both; each still takes only its own kind of object
    with pytest.raises(GeometryError):
        meet(point(F, 1, 0, 0), point(F, 0, 1, 0))
    with pytest.raises(GeometryError):
        join(point(F, 1, 0, 0), line(F, 0, 1, 0))


def test_meet_over_cube_root_field():
    K = number_field([1, 1, 1])
    w = K.generator
    l1 = ProjLine((-w, K.zero, K.one))        # -wx + z
    l2 = ProjLine((K.scalar(-1), K.one, K.zero))  # -x + y
    assert meet(l1, l2) == ProjPoint((K.one, K.one, w))
    l3 = ProjLine((K.zero, -w, K.one))        # -wy + z
    assert incident(ProjPoint((K.one, K.one, w)), l3)


def test_incidence():
    assert not incident(point(F, 0, 0, 1), line(F, 0, 0, 1))
    assert incident(point(F, 1, 1, 1), line(F, 1, -1, 0))


def test_dualize_involution():
    rng = random.Random(5)
    for l in rand_lines(rng, 10):
        assert dualize(dualize(l)) == l
    assert dualize(line(F, 1, 0, 0)) == point(F, 1, 0, 0)
    with pytest.raises(GeometryError):
        dualize((F.one, F.zero, F.zero))


def test_join_meet_duality():
    rng = random.Random(9)
    for _ in range(20):
        p = point(F, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5))
        q = point(F, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5))
        if p == q:
            continue
        assert dualize(join(p, q)) == meet(dualize(p), dualize(q))


def test_normalization_idempotent():
    p = ProjPoint((F.scalar(2), F.scalar(-4), F.scalar(6)))
    assert p.coords[0] == F.one
    assert ProjPoint(p.coords) == p
    with pytest.raises(GeometryError):
        ProjPoint((F.zero, F.zero, F.zero))
    # a triple whose first nonzero entry is already 1 is kept as it is, and
    # a scaled copy of it gives the same object
    for K in (F, number_field([1, 1, 1]), GF(7), GF(49)):
        g = K.generator if K.degree > 1 else K.scalar(5)
        s = g + 1
        for t in ((K.one, g, g * g + 2), (K.zero, K.one, g - 1),
                  (K.zero, K.zero, K.one)):
            for cls in (ProjPoint, ProjLine):
                assert cls(t).coords == t
                assert cls(tuple(s * c for c in t)) == cls(t), (K, t)
    # entries from another field are refused with a pivot of 1 as well
    with pytest.raises(FieldError):
        ProjPoint((F.one, GF(7).one, F.zero))


def test_projectivity_actions():
    g = Projectivity(Matrix3.from_values(F, [[1, 2, 0], [0, 1, 1], [1, 0, 3]]))
    rng = random.Random(13)
    for _ in range(20):
        p = point(F, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 4))
        l = rand_lines(rng, 1)[0]
        assert incident(p, l) == incident(apply_projectivity(g, p),
                                          apply_projectivity(g, l))
    ident = Projectivity(Matrix3.identity(F))
    assert ident.is_identity()
    with pytest.raises(GeometryError):
        Projectivity(Matrix3.from_values(F, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]))


def test_apply_projectivity_takes_one_point_or_line():
    """A list of lines, an Arrangement or a bare triple is refused, and so
    is an object of another field."""
    g = Projectivity(Matrix3.from_values(F, [[1, 2, 0], [0, 1, 1], [1, 0, 3]]))
    lines = [line(F, 1, 0, 0), line(F, 0, 1, 2)]
    for bad in (lines, Arrangement(F, lines), (1, 0, 0)):
        with pytest.raises(GeometryError):
            apply_projectivity(g, bad)
    with pytest.raises(FieldError):
        apply_projectivity(g, line(GF(7), 1, 0, 0))


@pytest.mark.parametrize("field", [cyclotomic_field(3), GF(8)],
                         ids=["Q(omega)", "GF(8)"])
def test_matrix_products_match_textbook_sums(field):
    """Matrix3 products and images agree with sum_k a_ik b_kj from zero."""
    rng = random.Random(8)
    x, zero = field.generator, field.zero

    def rand():
        e = sum((field.scalar(rng.randint(-3, 3)) * x ** i for i in range(3)),
                zero)
        return e if field.characteristic else e / rng.randint(1, 5)
    for _ in range(25):
        a, b = ([[rand() for _ in range(3)] for _ in range(3)] for _ in "ab")
        v = [rand() for _ in range(3)]
        want = tuple(tuple(sum((a[i][k] * b[k][j] for k in range(3)), zero)
                           for j in range(3)) for i in range(3))
        assert (Matrix3(a) * Matrix3(b)).rows == want
        assert Matrix3(a).apply_vec(v) == tuple(
            sum((a[i][k] * v[k] for k in range(3)), zero) for i in range(3))


def test_line_frame_map():
    src = [line(F, 1, 0, 0), line(F, 0, 1, 0), line(F, 0, 0, 1), line(F, 1, 1, 1)]
    dst = [line(F, 2, 0, 0), line(F, 0, 3, 0), line(F, 0, 0, 5), line(F, 1, 1, 1)]
    g = projectivity_from_line_frames(src, dst)
    for s, d in zip(src, dst):
        assert apply_projectivity(g, s) == ProjLine(d.coeffs)
    # the same coordinates as points: the inverse-transpose
    h = projectivity_from_point_frames([dualize(l) for l in src], [dualize(l) for l in dst])
    assert h.matrix.scaled_canonical() == g.matrix.adjugate().transpose().scaled_canonical()
    for s, d in zip(src, dst):
        assert apply_projectivity(h, dualize(s)) == dualize(d)
    with pytest.raises(GeometryError):
        projectivity_from_line_frames(
            [line(F, 1, 0, 0), line(F, 1, 1, 0), line(F, 1, 2, 0), line(F, 0, 0, 1)],
            dst)


def _cross_ratios(lam):
    """The six cross-ratios of four collinear points, one of them lam."""
    one = lam.field.one
    return {lam, one - lam, one / lam, one / (one - lam), (lam - one) / lam,
            lam / (lam - one)}


CONCURRENCY_FIELDS = {"Q": F, "Q(omega)": cyclotomic_field(3), "GF(7)": GF(7),
                      "GF(8)": GF(8), "GF(101)": GF(101)}


def _concurrency_cases(field, rng):
    """Seeded lists of lines: quadruples, some with a duplicate (a scaled
    copy) or a concurrent triple, pencils of 3 to 6 lines through a point
    with duplicates, near pencils, and sets of 5 to 7 lines with three or
    more through one point."""
    x = field.generator if field.degree > 1 else field.scalar(2)
    elems = list(dict.fromkeys(field.scalar(rng.randint(-2, 2)) + x * rng.randint(0, 1)
                               for _ in range(12)))

    def triple():
        while True:
            t = tuple(rng.choice(elems) for _ in range(3))
            if any(not c.is_zero() for c in t):
                return t

    def rand_line():
        return ProjLine(triple())

    def scaled(l):
        c = rng.choice([e for e in elems if not e.is_zero()])
        return ProjLine(tuple(c * v for v in l.coeffs))

    def through(p, n):
        out = []
        while len(out) < n:
            q = ProjPoint(triple())
            if q != p:
                out.append(join(p, q))
        return out

    cases = []
    for _ in range(6):
        quad = [rand_line() for _ in range(4)]
        cases += [quad, quad[:3] + [scaled(quad[rng.randrange(3)])]]
        p = ProjPoint(triple())
        cases.append(through(p, 3) + [rand_line()])
        pencil = through(p, rng.randint(3, 6))
        cases += [pencil, pencil + [scaled(pencil[0])], pencil + [rand_line()],
                  [rand_line() for _ in range(rng.randint(2, 3))] + pencil]
    return cases


@pytest.mark.parametrize("name", sorted(CONCURRENCY_FIELDS))
def test_concurrency_matches_object_incidence(name):
    """``lines_in_general_position`` and the pencil and near-pencil splits
    and concurrent triples of the equivalence search, read off the groups
    of positions on three or more lines, agree with the object-level
    reference (``meet``, ``join`` and ``incident``)."""
    field, rng = CONCURRENCY_FIELDS[name], random.Random(27)
    kinds = set()
    for lines in _concurrency_cases(field, rng):
        gp = lines_in_general_position(lines)
        assert gp == reference_general_position(lines)
        arr = Arrangement(field, lines)
        canon = list(arr.lines)
        duals = [dualize(l) for l in canon]
        triples, split = _concurrency(arr, duals)
        want = reference_pencil_split(duals)
        assert split == want
        if want is None:
            assert triples == {t for t in combinations(range(len(canon)), 3)
                               if incident(meet(canon[t[0]], canon[t[1]]), canon[t[2]])}
        kinds.add((gp, len(arr) < len(lines), want and want[1] is None,
                   want and want[1] is not None))
    # general position, duplicates, pencils and near pencils all occur
    assert {k[0] for k in kinds} == {k[1] for k in kinds} == {True, False}
    assert any(k[2] for k in kinds) and any(k[3] for k in kinds)


def test_concurrency_incidence_refuses_mixed_fields_and_points():
    """Lines of two fields raise FieldError, before any merge by reps, in
    the general-position test and the equivalence search, on lines and on
    arrangements; points in place of lines raise GeometryError."""
    lines = [line(F, 1, 0, 0), line(F, 0, 1, 0), line(F, 0, 0, 1), line(F, 1, 1, 1)]
    other = [line(GF(7), 1, 0, 0)] + lines[1:]
    with pytest.raises(FieldError):
        lines_in_general_position(other)
    for a, b in ((lines, other), (other, lines),
                 (Arrangement(F, lines), Arrangement(GF(7), other[:1])),
                 (Arrangement(F, lines), other)):
        with pytest.raises(FieldError):
            projectively_equivalent(a, b)
    pts = [dualize(l) for l in lines]
    with pytest.raises(GeometryError):
        lines_in_general_position(pts)
    with pytest.raises(GeometryError):
        projectively_equivalent(pts, pts)


@pytest.mark.parametrize("field", [F, GF(2), GF(7), GF(8), GF(101),
                                   cyclotomic_field(3)],
                         ids=["Q", "GF(2)", "GF(7)", "GF(8)", "GF(101)",
                              "Q(omega)"])
def test_equivalence_generic_and_degenerate(field, same_witness):
    """Witnesses for an arrangement and its image, generic over Q and
    degenerate over every field kind: one and two lines, a triangle,
    pencils of 3 to 5 lines as the field has room for them, and a near
    pencil; none for a pencil against a near pencil, for pencils of four
    lines with different cross-ratios, or for sets of different sizes."""
    g = Projectivity(Matrix3.from_values(field, [[1, 2, 0], [0, 1, 1], [1, 0, 3]]))
    zero, one = field.zero, field.one
    x = field.generator if field.degree > 1 else zero
    ts = list(dict.fromkeys(field.scalar(i) + x * j + x * x * k
                            for k in range(2) for j in range(2) for i in range(6)))
    # the lines through (0 : 0 : 1); t is the cross-ratio coordinate of [1 : t : 0]
    through = [ProjLine((one, t, zero)) for t in ts] + [line(field, 0, 1, 0)]
    pencils = [through[:n] for n in (3, 4, 5) if n <= len(through)]
    near = through[:3] + [line(field, 0, 0, 1)]
    cases = [
        [line(field, 1, 2, 3)],
        [line(field, 1, 0, 0), line(field, 0, 1, 0)],
        [line(field, 1, 0, 0), line(field, 0, 1, 0), line(field, 0, 0, 1)],  # triangle
        *pencils,
        near,                                                  # quasi-trivial
    ]
    if field is F:
        cases.append(rand_lines(random.Random(21), 6))
    for lines in cases:
        image = [apply_projectivity(g, l) for l in lines]
        w = same_witness(lines, image)
        assert w is not None
        assert {apply_projectivity(w, l) for l in lines} == set(image)
    if len(through) >= 4:
        assert same_witness(through[:4], near) is None
        assert same_witness(near, through[:4]) is None
    # pencils of four lines with cross-ratios in different orbits are
    # inequivalent; GF(2) has no such pencil, GF(8) one orbit of them
    if len(ts) > 4:
        a, b = ts[2:4]
        lam = _cross_ratios(a * (b - one) / ((a - one) * b))
        others = [c for c in ts[4:]
                  if not lam & _cross_ratios(a * (c - one) / ((a - one) * c))]
        assert bool(others) == (field.characteristic != 2)
        for c in others[:1]:
            p1, p2 = ([ProjLine((one, t, zero)) for t in (zero, one, a, d)]
                      for d in (b, c))
            assert same_witness(p1, p2) is None
    # five lines in general position (dual to points of a conic) against
    # four of them and a diagonal, which makes two concurrent triples: only
    # the ordered quadruples in general position are frames
    if len(ts) >= 5:
        conic = [ProjLine((one, t, t * t)) for t in ts[:5]]
        diag = join(meet(conic[0], conic[1]), meet(conic[2], conic[3]))
        assert same_witness(conic, conic[:4] + [diag]) is None
        assert same_witness(conic[:4] + [diag], conic) is None
    # cardinality mismatch, and a triangle against three concurrent lines
    assert same_witness(pencils[0], pencils[0][:2]) is None
    assert same_witness(cases[2], pencils[0]) is None
    assert same_witness(pencils[0], cases[2]) is None
    # a line of another field with the same reps is refused, not merged
    stranger = GF(7) if field is F else F
    with pytest.raises(FieldError):
        projectively_equivalent([line(stranger, 1, 0, 0)] + pencils[0], pencils[0])


@pytest.mark.parametrize("name", sorted(CONCURRENCY_FIELDS))
def test_frames_on_codes_give_the_reference_witness(name, same_witness):
    """Seeded pairs over each field kind: random sets of 4 to 6 lines
    against their image under a random projectivity, and against another
    random set of the same size.  The frames on ring codes find the witness
    of the Scalar-frame reference (``same_witness``), or none with it."""
    field, rng = CONCURRENCY_FIELDS[name], random.Random(14)
    x = field.generator if field.degree > 1 else field.one

    def elem():
        return field.scalar(rng.randint(-3, 3)) + x * rng.randint(0, 1)

    def rand_set(n):
        out = {}
        while len(out) < n:
            t = (elem(), elem(), elem())
            if any(not c.is_zero() for c in t):
                out[ProjLine(t)] = None
        return list(out)
    inequivalent = 0
    for n in (4, 4, 5, 5, 6):
        lines = rand_set(n)
        m = Matrix3([[elem() for _ in range(3)] for _ in range(3)])
        while m.det().is_zero():
            m = Matrix3([[elem() for _ in range(3)] for _ in range(3)])
        image = [apply_projectivity(Projectivity(m), l) for l in lines]
        w = same_witness(lines, image)
        assert w is not None and {apply_projectivity(w, l) for l in lines} == set(image)
        inequivalent += same_witness(lines, rand_set(n)) is None
    assert inequivalent


def test_equivalence_search_builds_no_objects(monkeypatch):
    """Two inequivalent 12-line generic arrangements are compared on codes
    alone: a counter on the constructors of Scalar, ProjPoint and ProjLine
    stays at 0, so the search cannot slide back onto objects.  The counter
    does see the one witness matrix a search returns."""
    from lineops.catalog import build
    from lineops.fields import Scalar
    a, b = (build("generic", n=12, seed=seed) for seed in (1, 2))
    built = Counter()
    for cls in (Scalar, ProjPoint, ProjLine):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    assert projectively_equivalent(a, b) is None
    assert not built
    assert projectively_equivalent(a, a).is_identity()
    assert built["Scalar"] and not built["ProjPoint"] and not built["ProjLine"]


def test_frame_map_recovers_flashing_involution():
    # deriving the map from 4 lines and their images reproduces the
    # involution of the six-line flashing family, up to scale
    from fractions import Fraction as Fr
    from lineops.catalog import build
    from lineops.arrangements import lambda_op, sel_exact
    f0 = build("flashing3")  # t = 3
    f1 = lambda_op(sel_exact(2), sel_exact(3), f0)
    field = f0.field
    t = Fr(3)
    gamma_t = Matrix3.from_values(field,
                                  [[-1, -t, -t], [1, t, 1], [1 - t, 1 - t, 0]])
    g = Projectivity(gamma_t)  # transpose of the family's normal action
    src = None
    for quad in combinations(list(f0.lines), 4):
        if lines_in_general_position(list(quad)):
            src = list(quad)
            break
    dst = [apply_projectivity(g, l) for l in src]
    assert set(apply_projectivity(g, l) for l in f0.lines) == set(f1.lines)
    recovered = projectivity_from_line_frames(src, dst)
    assert recovered == g


def test_conic_through_five():
    pts = [point(F, 1, s, s * s) for s in (0, 1, -1, 2, -2)]
    conic = conic_through(pts)
    assert conic.contains(point(F, 1, 3, 9))
    assert conic.is_irreducible()
    assert not conic.contains(point(F, 1, 1, 2))
    # 4 collinear points leave the conic undetermined
    bad = [point(F, k, 0, 1) for k in range(4)] + [point(F, 0, 1, 0)]
    with pytest.raises(GeometryError):
        conic_through(bad)


def test_generic_five_points_unique_conic():
    rng = random.Random(1)
    pts = []
    while len(pts) < 5:
        cand = point(F, rng.randint(-6, 6), rng.randint(-6, 6), 1)
        if cand not in pts:
            pts.append(cand)
    assert not any(collinear(a, b, c) for a, b, c in combinations(pts, 3))
    conic = conic_through(pts)
    assert all(conic.contains(p) for p in pts)


def test_common_conic_rank():
    pts = [point(F, 1, s, s * s) for s in (0, 1, -1, 2, -2, 3)]
    assert common_conic(pts) is not None
    spread = [point(F, 1, 0, 0), point(F, 0, 1, 0), point(F, 0, 0, 1),
              point(F, 1, 1, 1), point(F, 1, 2, 4), point(F, 1, -1, 2)]
    assert common_conic(spread) is None


def test_rich_conics_guard():
    pts = [point(F, 1, s, s * s) for s in range(31)]
    with pytest.raises(GeometryError):
        rich_conics(pts, 6)
    with pytest.raises(GeometryError):
        rich_conics(pts[:10], 4)
    # a GF(7) point with the reps of a rational one is refused, not merged
    with pytest.raises(FieldError):
        rich_conics([point(GF(7), 1, 0, 0)] + pts[:10], 5)


def test_degenerate_conic_detected():
    # pair of lines x*y = 0: coefficients (0,0,0,1,0,0)
    c = Conic((F.zero, F.zero, F.zero, F.one, F.zero, F.zero))
    assert not c.is_irreducible()


@pytest.mark.parametrize("q", [4, 8])
def test_conic_degeneracy_in_characteristic_2(q):
    """The half-discriminant decides degeneracy in characteristic 2 too:
    xy + z^2 is irreducible, xy and x^2 + y^2 = (x + y)^2 are not; and
    rich_conics runs on 12 points of PG(2,q), each count the points on its
    conic."""
    K = GF(q)
    o, z = K.one, K.zero
    assert Conic((z, z, o, o, z, z)).is_irreducible()
    assert not Conic((z, z, z, o, z, z)).is_irreducible()
    assert not Conic((o, o, z, z, z, z)).is_irreducible()
    pts = list(dualize_arrangement(all_projective_lines(K)).points)[:12]
    found = rich_conics(pts, 5)
    assert found and all(rc.count == sum(map(rc.conic.contains, pts)) for rc in found)


def test_conic_is_a_normalized_tuple():
    """A conic's coefficients are scaled so the first nonzero one is 1, and
    conics compare and hash by that tuple; a point is never equal to one."""
    two = F.scalar(2)
    c = Conic((F.zero, two, -two, two, F.zero, F.zero))
    assert c.coeffs == c.coords == (F.zero, F.one, -F.one, F.one, F.zero, F.zero)
    assert c == Conic(c.coeffs) and hash(c) == hash(Conic(c.coeffs))
    assert c.key() == (0, 1, -1, 1, 0, 0) and c.field == F
    assert repr(c) == "Conic(0, 1, -1, 1, 0, 0)"
    assert c != point(F, 0, 1, -1) and c.contains(point(F, 0, 1, 1))
    with pytest.raises(GeometryError, match="6 coefficients"):
        Conic(c.coeffs[:3])


def test_immutable_classes_refuse_writes():
    """One write guard for every immutable class, its message naming the
    class; no instance has a dict to write to instead."""
    m = Matrix3.identity(F)
    conic = Conic((F.one, F.one, -F.one, F.zero, F.zero, F.zero))
    for obj in (F.one, point(F, 1, 0, 0), line(F, 0, 1, 0), conic, m,
                Projectivity(m), RichConic(conic, 5, True), Arrangement(F),
                PointConfig(F)):
        with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
            obj.coords = ()
        assert not hasattr(obj, "__dict__")


# -- the canonical order ---------------------------------------------------------
#
# The reference order compares reps by value through a second, independent
# key: the signed continued fraction of each rational.  A set of points or
# lines keeps its members in the order ``arrangements._code_order`` gives
# their integer codes, keyed by floor(2^s r); it must be the same order,
# with the same deduplication (the code order on shuffled codes is checked
# in test_arrangements.py).

def _q_key(x):
    """The signed continued fraction (a0, -a1, a2, -a3, ...) of x.

    Euclid's expansion is unique, and a larger a_i makes x larger for even
    i and smaller for odd i.  The next term is inf: +inf is appended after
    an odd i; after an even i the shorter tuple sorts first, as -inf would.
    """
    n, d = x.numerator, x.denominator
    if d == 1:
        return (n,)
    key = []
    while d:
        key.append(n // d)
        n, d = d, n % d
    key[1::2] = [-a for a in key[1::2]]
    return (*key, float("inf")) if len(key) % 2 == 0 else tuple(key)


def _rep_key(rep):
    """Rationals, alone or as number-field coefficients, become ``_q_key``;
    residues stay."""
    if rep.__class__ is int:
        return (rep,)
    if rep.__class__ is Fraction:
        return _q_key(rep)
    return rep if rep[0].__class__ is int else tuple(map(_q_key, rep))


def _reference(objs):
    """The distinct objects sorted by the reference key of their values."""
    return sorted(set(objs), key=lambda o: tuple(map(_rep_key, value_key(o))))


def _random_fractions(rng, n):
    out = [Fraction(0), Fraction(7), Fraction(-7), Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(n):
        den = rng.choice((1, 2, 3, 12, rng.randint(1, 50), rng.randint(1, 10 ** 12)))
        num = rng.choice((rng.randint(-60, 60), rng.randint(-10 ** 15, 10 ** 15)))
        out.append(Fraction(num, den))
    # neighbours whose continued fractions share a long prefix
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    out += [Fraction(a, b) for a, b in zip(fib[1:], fib)]
    out += [Fraction(-a, b) for a, b in zip(fib[2:], fib)]
    # equal values as distinct objects
    out += [Fraction(x.numerator * 3, x.denominator * 3) for x in out[:300]]
    rng.shuffle(out)
    return out


# larger than every denominator of _random_fractions, so it is the set's D
FAREY_D = 10 ** 12 + 39


def _farey_pairs(rng, n, den=FAREY_D):
    """n pairs of Farey neighbours a/den < c/d: c/d - a/den = 1/(d den)."""
    out = []
    while len(out) < n:
        a = rng.randint(-3 * den, 3 * den)
        try:
            d = -pow(a, -1, den) % den
        except ValueError:  # a shares a factor with den
            continue
        out.append((Fraction(a, den), Fraction((a * d + 1) // den, d)))
    return out


def _chart_objects(cls, field, coords, rng):
    """Objects of ``cls`` on every chart (1,u,v), (0,1,v), (0,0,1) from
    coordinate pairs (u, v), each also given a second time as a distinct
    instance built from a scaled triple."""
    one, zero = field.one, field.zero
    out = [cls((zero, zero, one))]
    for u, v in coords:
        out.append(cls((one, u, v)))
        out.append(cls((zero, one, v)))
    lam = field.generator if field.degree > 1 else field.scalar(3)
    out += [cls(tuple(c * lam for c in o.coords)) for o in rng.sample(out, 40)]
    rng.shuffle(out)
    return out


def _check_canonical(objs):
    ref = _reference(objs)
    cls = Arrangement if objs[0].__class__ is ProjLine else PointConfig
    got = list(cls(objs[0].field, objs))
    assert got == ref
    assert len(got) < len(objs)  # the scaled copies merged


def test_rational_sort_key_orders_by_value():
    rng = random.Random(11)
    xs = _random_fractions(rng, 3000)
    # the reference orders rationals by value
    by_key = sorted(xs, key=_rep_key)
    assert by_key == sorted(xs)
    for _ in range(5000):
        a, b = rng.choice(xs), rng.choice(xs)
        assert (_rep_key(a) < _rep_key(b)) == (a < b)
        assert (_rep_key(a) == _rep_key(b)) == (a == b)
    # a set orders points and lines over Q as the reference does, with
    # Farey neighbours whose denominator is the set's largest in either place
    pairs = _farey_pairs(rng, 150)
    coords = [(F.scalar(rng.choice(xs)), F.scalar(rng.choice(xs)))
              for _ in range(300)]
    for x, y in pairs:
        u = F.scalar(rng.choice(xs))
        coords += [(u, F.scalar(x)), (u, F.scalar(y)),
                   (F.scalar(x), u), (F.scalar(y), u)]
    for cls in (ProjPoint, ProjLine):
        _check_canonical(_chart_objects(cls, F, coords, rng))


def test_number_field_sort_key_orders_by_value():
    rng = random.Random(12)
    xs = _random_fractions(rng, 400)
    pairs = _farey_pairs(rng, 60)
    for degree, mp in ((2, [1, 1, 1]), (3, [-2, 0, 0, 1])):
        K = number_field(mp)
        reps = [tuple(rng.choice(xs) for _ in range(degree)) for _ in range(2000)]
        reps += [tuple(Fraction(c.numerator * 2, c.denominator * 2) for c in r)
                 for r in reps[:200]]
        assert sorted(reps, key=_rep_key) == sorted(reps)
        # Farey neighbours in each coefficient place, the rest equal
        for x, y in pairs:
            base = [rng.choice(xs) for _ in range(degree)]
            i = rng.randrange(degree)
            for z in (x, y):
                reps.append(tuple(z if j == i else c for j, c in enumerate(base)))
        scal = [K.from_rep(nf_rep(K, r)) for r in reps]
        coords = [(rng.choice(scal), rng.choice(scal)) for _ in range(300)]
        for k in range(len(scal) - 2 * len(pairs), len(scal), 2):
            u = rng.choice(scal)
            coords += [(u, scal[k]), (u, scal[k + 1]),
                       (scal[k], u), (scal[k + 1], u)]
        _check_canonical(_chart_objects(ProjPoint, K, coords, rng))


def _value_key(obj):
    """The canonical order as values compared directly."""
    return tuple(r if isinstance(r, tuple) else (r,) for r in value_key(obj))


def test_sort_key_orders_points_by_value():
    K = number_field([1, 1, 1])
    rng = random.Random(13)
    xs = _random_fractions(rng, 100)
    w, x, y = K.generator, GF(8).generator, GF(9).generator
    gf8 = [a + b * x + c * x * x for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    gf9 = [a + b * y for a in range(3) for b in range(3)]
    for field, scal, n in ((F, lambda: rng.choice(xs), 300),
                           (K, lambda: rng.choice(xs) + rng.choice(xs) * w, 300),
                           (GF(7), lambda: rng.randint(0, 6), 40),
                           (GF(8), lambda: rng.choice(gf8), 60),
                           (GF(9), lambda: rng.choice(gf9), 70)):
        coords = [(field.scalar(scal()), field.scalar(scal())) for _ in range(n)]
        for cls in (ProjPoint, ProjLine):
            objs = _chart_objects(cls, field, coords, rng)
            _check_canonical(objs)
        # an arrangement keeps the canonical order, as do its incidence index
        # and rich conics
        lines = _chart_objects(ProjLine, field, coords[:25], rng)
        arr = Arrangement(field, lines)
        assert list(arr.lines) == _reference(lines)
        pts = [p for p, _ in incidence_index(arr).entries]
        assert pts == _reference(pts) and len(pts) > 25
        if field.characteristic != 2:
            g = field.generator if field.degree > 1 else field.one
            found = rich_conics([ProjPoint((field.one, g * rng.randint(0, 1)
                                            + rng.randint(-3, 3),
                                            field.scalar(rng.randint(-3, 3))))
                                 for _ in range(9)], 5)
            keys = [tuple(map(_rep_key, value_key(rc.conic))) for rc in found]
            assert keys == sorted(set(keys)) and len(keys) > 5


def test_rich_conics_in_coefficient_order():
    K = number_field([1, 1, 1])
    w = K.generator
    for pts in ([point(F, Fraction(a, 3), Fraction(-b, 2), 1)
                 for a, b in ((1, 2), (4, -1), (-5, 3), (2, 7), (-3, -3),
                              (6, 1), (0, 5), (7, -4), (-1, 0))],
                [point(K, 1, w + a, w * a - b)
                 for a, b in ((0, 1), (1, 2), (2, -1), (-1, 3), (3, 0),
                              (-2, -2), (1, -3))]):
        found = rich_conics(pts, 5)
        assert len(found) > 10
        keys = [_value_key(rc.conic) for rc in found]
        assert keys == sorted(keys)
        # counted on codes, as the conic's own Scalar evaluation counts
        assert all(rc.count == sum(map(rc.conic.contains, pts)) for rc in found)
