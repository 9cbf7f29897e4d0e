import random
from itertools import combinations

import pytest

from lineops.fields import QQ, number_field
from lineops.projective import (Conic, GeometryError, Matrix3, ProjLine,
                                ProjPoint, Projectivity, apply_projectivity,
                                collinear, common_conic, conic_through,
                                dualize, incident, join, line,
                                lines_in_general_position, meet, point,
                                projectively_equivalent,
                                projectivity_from_line_frames, rich_conics)

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


def test_line_frame_map():
    src = [line(F, 1, 0, 0), line(F, 0, 1, 0), line(F, 0, 0, 1), line(F, 1, 1, 1)]
    dst = [line(F, 2, 0, 0), line(F, 0, 3, 0), line(F, 0, 0, 5), line(F, 1, 1, 1)]
    g = projectivity_from_line_frames(src, dst)
    for s, d in zip(src, dst):
        assert apply_projectivity(g, s) == ProjLine(d.coeffs)
    with pytest.raises(GeometryError):
        projectivity_from_line_frames(
            [line(F, 1, 0, 0), line(F, 1, 1, 0), line(F, 1, 2, 0), line(F, 0, 0, 1)],
            dst)


def test_equivalence_generic_and_degenerate():
    g = Projectivity(Matrix3.from_values(F, [[1, 2, 0], [0, 1, 1], [1, 0, 3]]))
    rng = random.Random(21)
    cases = [
        rand_lines(rng, 6),
        [line(F, 1, k, 0) for k in range(4)],                  # pencil
        [line(F, 1, 0, 0), line(F, 1, 1, 0), line(F, 1, 2, 0),
         line(F, 0, 0, 1)],                                    # quasi-trivial
        [line(F, 1, 0, 0), line(F, 0, 1, 0), line(F, 0, 0, 1)],  # triangle
        [line(F, 1, 2, 3)],
    ]
    for lines in cases:
        image = [apply_projectivity(g, l) for l in lines]
        w = projectively_equivalent(lines, image)
        assert w is not None
        assert {apply_projectivity(w, l) for l in lines} == set(image)
    # different cross-ratio pencils are inequivalent
    p1 = [line(F, 1, t, 0) for t in (0, 1, 2, 3)]
    p2 = [line(F, 1, t, 0) for t in (0, 1, 2, 5)]
    assert projectively_equivalent(p1, p2) is None
    # cardinality mismatch
    assert projectively_equivalent(p1, p1[:3]) is None


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


def test_degenerate_conic_detected():
    # pair of lines x*y = 0: coefficients (0,0,0,1,0,0)
    c = Conic((F.zero, F.zero, F.zero, F.one, F.zero, F.zero))
    assert not c.is_irreducible()
