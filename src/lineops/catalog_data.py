"""Hard-coded derived data for the reflection-style catalog entries.

The Klein and real-21 constants were computed once with the package's own
exact arithmetic (group orbits over cyclotomic fields, then a change of
frame into the smallest field carrying the arrangement) and are
re-validated against their expected singularity profiles by the catalog
on every build.  The 45-line entry regenerates its group orbit at build
time from exact generator matrices.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .fields import number_field, parse_scalar
from .arrangements import _from_key, _normal, _null_basis, _ring_flat
from .projective import Matrix3, ProjLine

# 21 mirror lines of the order-168 symmetry group, over Q(sqrt-7): x = sqrt(-7).
_KLEIN_COLS = (
    ("0", "0", "1"),
    ("0", "1", "-1/16*x+5/16"),
    ("0", "1", "-1/8*x+5/8"),
    ("0", "1", "0"),
    ("1", "-1", "-1/8*x-3/8"),
    ("1", "-1", "0"),
    ("1", "-1", "1/8*x+3/8"),
    ("1", "-1/2*x-1/2", "-1/4*x+1/4"),
    ("1", "-1/2*x-1/2", "-1/8*x-3/8"),
    ("1", "-1/4*x+1/4", "-1/16*x+5/16"),
    ("1", "-1/4*x+1/4", "-1/4*x+1/4"),
    ("1", "0", "-1/16*x+5/16"),
    ("1", "0", "-1/8*x+5/8"),
    ("1", "0", "0"),
    ("1", "1", "-1/4*x+1/4"),
    ("1", "1", "-1/8*x+5/8"),
    ("1", "1", "1"),
    ("1", "1/2*x+1/2", "1"),
    ("1", "1/2*x+1/2", "1/8*x+3/8"),
    ("1", "1/4*x-1/4", "-1/16*x+5/16"),
    ("1", "1/4*x-1/4", "1/8*x+3/8"),
)


def klein_lines():
    field = number_field([7, 0, 1])
    lines = [ProjLine(tuple(parse_scalar(field, c) for c in col))
             for col in _KLEIN_COLS]
    return field, lines


# 21 real lines with t2 = 63, t3 = 7, t4 = 21: the astral heptagon model.
# Three rotation orbits of 7 lines each (two chord families of the regular
# heptagon and one inner family at a derived radius), written over the
# field of cos(pi/7): x = 2cos(pi/7), x^3 - x^2 - 2x + 1 = 0, with the
# y-axis rescaled by sin(pi/7) to keep every coefficient in that field.
_GR_MINPOLY = (1, -2, -1, 1)
_GR_COLS = (
    ("1", "2*x^2-3/2*x-4", "2*x^2-x-4"),
    ("1", "2*x^2-3/2*x-4", "-x^2+3"),
    ("1", "2*x^2-3/2*x-4", "-5*x^2+3*x+11"),
    ("1", "-1/2*x-1", "2*x^2-x-4"),
    ("1", "-1/2*x-1", "-1"),
    ("1", "-1/2*x-1", "x+1"),
    ("1", "x^2-3/2*x", "-1"),
    ("1", "x^2-3/2*x", "-x^2+2*x"),
    ("1", "x^2-3/2*x", "-x^2+3"),
    ("1", "0", "x^2-1/2*x-5/2"),
    ("1", "0", "1/2*x^2-1/2*x-1/2"),
    ("1", "0", "-1/2*x^2+1"),
    ("1", "-x^2+3/2*x", "-1"),
    ("1", "-x^2+3/2*x", "-x^2+2*x"),
    ("1", "-x^2+3/2*x", "-x^2+3"),
    ("1", "1/2*x+1", "2*x^2-x-4"),
    ("1", "1/2*x+1", "-1"),
    ("1", "1/2*x+1", "x+1"),
    ("1", "-2*x^2+3/2*x+4", "2*x^2-x-4"),
    ("1", "-2*x^2+3/2*x+4", "-x^2+3"),
    ("1", "-2*x^2+3/2*x+4", "-5*x^2+3*x+11"),
)


def grunbaum_rigby_lines():
    field = number_field(_GR_MINPOLY)
    lines = [ProjLine(tuple(parse_scalar(field, c) for c in col))
             for col in _GR_COLS]
    return field, lines


# The 45-line mirror arrangement of the order-360 collineation group,
# over Q(w, sqrt5) presented as Q[x]/(x^4 + 2x^3 - 7x^2 - 8x + 31) with
# x = w + sqrt5.  Generators: the coordinate 3-cycle, diag(1,-1,-1), the
# order-5 rotation about the axis (0, 1, phi), and the extension
# involution diag-block(w; antidiag(w^2, 1)) found by demanding that it
# preserve a member of the invariant sextic pencil.
# w and sqrt5 as reps (a0, ..., a3, d), sum a_i x^i / d (theta = x).
_W_MINPOLY = (31, -8, -7, 2, 1)
_W_OMEGA = (-14, -4, 3, 2, 23)
_W_SQRT5 = (14, 27, -3, -2, 23)


@lru_cache(maxsize=None)
def wiman_lines():
    field = number_field(list(_W_MINPOLY))
    w = field.from_rep(_W_OMEGA)
    s5 = field.from_rep(_W_SQRT5)
    one, zero = field.one, field.zero
    half = field.scalar(Fraction(1, 2))
    phi = (one + s5) * half

    sigma = ((zero, one, zero), (zero, zero, one), (one, zero, zero))
    d = ((one, zero, zero), (zero, -one, zero), (zero, zero, -one))
    ccos = (s5 - one) * field.scalar(Fraction(1, 4))
    kfac = (field.scalar(3) - s5) * field.scalar(Fraction(1, 4))
    kvec = (zero, one, phi)
    crossk = ((zero, -phi, one), (phi, zero, zero), (-one, zero, zero))
    rot5 = tuple(tuple((ccos if i == j else zero) + half * crossk[i][j]
                       + kfac * kvec[i] * kvec[j] for j in range(3))
                 for i in range(3))
    t_ext = ((w, zero, zero), (zero, zero, w * w), (zero, one, zero))
    ident = Matrix3.identity(field)

    gens = [Matrix3(g).scaled_canonical() for g in (sigma, d, rot5, t_ext)]
    seen = {ident: None}  # the group, in discovery order
    queue = [ident]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = (cur * g).scaled_canonical()
            if nxt not in seen:
                if len(seen) > 400:
                    raise AssertionError("mirror group failed to close")
                seen[nxt] = None
                queue.append(nxt)
    if len(seen) != 360:
        raise AssertionError(f"expected order 360, got {len(seen)}")

    mirrors = {}  # the ``_normal`` row of each mirror, in the order found
    n = 3 * field.degree  # the integers in a row over the field's ring
    for A in seen:
        sq = (A * A).rows
        if A == ident or any(sq[i][j] != (sq[0][0] if i == j else zero)
                             for i in range(3) for j in range(3)):
            continue
        # an involution, A^2 = lam: up to sign its eigenvalues are s, s, -s,
        # so tr A = s and A - tr A has rank 1, its nonzero row the mirror
        tr = A.rows[0][0] + A.rows[1][1] + A.rows[2][2]
        flat = _ring_flat([(e - tr if i == j else e).rep
                           for i, row in enumerate(A.rows) for j, e in enumerate(row)],
                          field)
        rows = [flat[k:k + n] for k in range(0, 3 * n, n)]
        if len(_null_basis(rows, field)) != 2:
            raise AssertionError("an involution of the mirror group is not a reflection")
        mirrors[_normal(next(r for r in rows if any(r)), field)] = None
    if len(mirrors) != 45:
        raise AssertionError(f"expected 45 mirrors, got {len(mirrors)}")
    return field, [_from_key(ProjLine, k, field) for k in mirrors]
