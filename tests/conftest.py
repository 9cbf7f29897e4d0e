"""Shared fixtures: the reference pair kernels over GF(q), the reference
incidence count over PG(2,q), the pair table as key -> k, a counter of
pair passes, the reference pair index, the object-level concurrency
tests and projective-equivalence search (on frames built from Scalars),
the reference operator sequence with cycle detection on digests, the
backtracking matroid isomorphism search, and number-field arithmetic on
tuples of Fraction coefficients.

Over every finite field of order at most ``arrangements._PLANE_ORDER`` the
program codes an object by its ordinal in PG(2,q) and counts incidences on
int masks of PG(2,q) ordinals instead of pairing.  The pair kernels below
are the ones those fields used before the incidence count, and the table
and ``Counter`` pass after them the ones they used before the masks; the
tests keep both as references those counts are checked against.
"""
import math
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations
from typing import Optional

import pytest

from lineops import arrangements, dynamics, projective
from lineops.fields import (NUMBER_FIELD, PRIME_FIELD, PRIME_POWER_FIELD, _adjugate,
                            _compiled, _gf_tables, _mul_src, _nf_codec)
from lineops.projective import (GeometryError, Matrix3, ProjLine, Projectivity,
                                collinear, dualize, incident, join, meet, point)


def _prime_meets(tris, field, rows):
    """Over GF(p): the residue triple with first nonzero 1."""
    p = field.characteristic
    e = p - 2
    for i in rows:
        a0, a1, a2 = tris[i]
        for b0, b1, b2 in tris[i + 1:]:
            x = (a1 * b2 - a2 * b1) % p
            y = (a2 * b0 - a0 * b2) % p
            z = (a0 * b1 - a1 * b0) % p
            if x:
                w = pow(x, e, p)
                yield (1, y * w % p, z * w % p)
            elif y:
                yield (0, 1, z * pow(y, e, p) % p)
            else:
                yield (0, 0, 1)


def _prime_power_meets(tris, field, rows):
    """Over GF(p^k): the triple of element codes with first nonzero 1."""
    _, code, mul, sub, inv = _gf_tables(field.spec)
    q = len(code)
    for i in rows:
        a0, a1, a2 = tris[i]
        a0, a1, a2 = a0 * q, a1 * q, a2 * q  # row offsets into the tables
        for b0, b1, b2 in tris[i + 1:]:
            x = sub[mul[a1 + b2] * q + mul[a2 + b1]]
            y = sub[mul[a2 + b0] * q + mul[a0 + b2]]
            z = sub[mul[a0 + b1] * q + mul[a1 + b0]]
            if x:
                w = inv[x]
                yield (1, mul[y * q + w], mul[z * q + w])
            elif y:
                yield (0, 1, mul[z * q + inv[y]])
            else:
                yield (0, 0, 1)


@pytest.fixture
def reference_kernels(monkeypatch):
    """``_code_meets`` and ``_row_keys`` run a pair kernel over every field
    kind: over GF(q), q <= ``_PLANE_ORDER``, the reference ones above on
    the triples of the ordinal codes (``_prime_meets`` over GF(p)), giving
    the ordinals of the meets as an iterator, so that ``_row_keys`` can
    slice it row by row; over any other field the program's kernel."""
    kernels = {PRIME_FIELD: _prime_meets, PRIME_POWER_FIELD: _prime_power_meets}
    program = arrangements._kernel

    def kernel(field):
        q = arrangements._plane_order(field)
        if not q:
            return program(field)

        def meets(codes, rows):
            tris = [arrangements._plane_key(o, q) for o in codes]
            return iter(arrangements._ordinals(kernels[field.kind](tris, field, rows), q))
        return meets
    monkeypatch.setattr(arrangements, "_kernel", kernel)


@lru_cache(maxsize=None)
def reference_plane_table(spec) -> array:
    """The incidences of PG(2,q) over GF(q) of ``spec``: entries (q+1)o to
    (q+1)o + q are the ordinals of the q+1 lines through the point of
    ordinal o, which are those of the points on the line of ordinal o.

    On the line a, a point (1, y, z) has z = -(a0 + a1 y)/a2 for each y if
    a2 != 0, and y = -a0/a1 for each z if a2 = 0 != a1; a point (0, 1, z)
    has z = -a1/a2, or any z if a1 = a2 = 0; (0, 0, 1) lies on a if a2 = 0.
    """
    _, _, mul, sub, inv = _gf_tables(spec)
    q = len(inv)
    q2, yq = q * q, range(0, q * q, q)
    table = array("H")
    # the lines in ordinal order: (1, a1, a2), (0, 1, a2), then (0, 0, 1)
    for a0, a1, a2s in ([(1, a1, range(q)) for a1 in range(q)]
                        + [(0, 1, range(q)), (0, 0, (1,))]):
        a0q = a0 * q  # sub[a0q + sub[m]] = a0 + m, sub[x] = -x
        s = [sub[a0q + sub[m]] for m in mul[a1 * q:a1 * q + q]]  # a0 + a1 y
        for a2 in a2s:
            if a2:
                c = sub[inv[a2]] * q  # the row of -1/a2 in mul
                table.extend([y + mul[c + v] for y, v in zip(yq, s)])
                table.append(q2 + mul[c + a1])
            elif a1:
                y = mul[sub[a0] * q + inv[a1]] * q
                table.extend(range(y, y + q))
                table.append(q2 + q)
            else:  # a = (1, 0, 0)
                table.extend(range(q2, q2 + q + 1))
    return table


def reference_incidences(codes, field) -> Counter:
    """ordinal -> the number of the objects with ordinals ``codes`` incident
    to the dual object of that ordinal: the pass over a finite plane before
    the masks, which counts the objects' rows of ``reference_plane_table``."""
    q = arrangements._plane_order(field)
    table, r = reference_plane_table(field.spec), q + 1
    return Counter(chain.from_iterable(table[o * r:o * r + r] for o in codes))


def code_counts(codes, field) -> dict:
    """The pair table of the objects with ``codes``: key -> k for each
    position on k >= 2 of them, from ``_pair_counts``, whose value classes
    over a finite plane it reads bit by bit."""
    counts, k = arrangements._pair_counts(codes, field)
    if k is None:
        return {o: c for c, m in counts.items() if c > 1
                for o in arrangements._bits(m)}
    return dict(zip(counts, map(k.__getitem__, counts.values())))


@pytest.fixture
def count_passes(monkeypatch):
    """``count_passes(*extra)`` -> a list that grows by (name, number of
    codes) for each pair pass, a call of the pair kernel (``_code_meets``)
    or of the incidence count over a finite plane (``_value_classes``), and
    for each call of the ``arrangements`` functions named in ``extra``,
    which take (codes, field, ...) as those do."""
    def install(*extra):
        calls = []
        for name in ("_code_meets", "_value_classes") + extra:
            def counting(codes, field, *rest, name=name,
                         pass_=getattr(arrangements, name)):
                calls.append((name, len(codes)))
                return pass_(codes, field, *rest)
            monkeypatch.setattr(arrangements, name, counting)
        return calls
    return install


def reference_pair_index(codes, field):
    """key -> set of indices of the codes through the keyed position, from
    one set-building loop over every pair of the pair kernel, or over a
    finite plane from each object's row of the incidence table: the index
    the program kept before ``_groups``."""
    q = arrangements._plane_order(field)
    if q:
        table, r = reference_plane_table(field.spec), q + 1
        index = {o: set() for o, k in reference_incidences(codes, field).items()
                 if k > 1}
        for i, o in enumerate(codes):
            for pos in index.keys() & table[o * r:o * r + r]:
                index[pos].add(i)
        return index
    index = {}
    for (i, j), key in zip(combinations(range(len(codes)), 2),
                           arrangements._code_meets(codes, field)):
        index.setdefault(key, set()).update((i, j))
    return index


# ---------------------------------------------------------------------------
# projective equivalence: the object-level concurrency tests and the search
# as they were before both moved to codes

def value_key(obj) -> tuple:
    """An object's coordinates as values: a number-field coordinate as its
    Fraction coefficients on 1, x, ... (``nf_fractions``), any other as its
    rep."""
    return tuple(nf_fractions(c.field, c.rep) if c.field.kind == NUMBER_FIELD
                 else c.rep for c in obj.coords)


def canonical(objs, key=value_key) -> list:
    """The distinct objects in canonical order: their reps compared by
    value, coordinate by coordinate; objects with equal keys count once."""
    canon = {key(o): o for o in objs}
    return [canon[k] for k in sorted(canon)]


def reference_general_position(lines) -> bool:
    """No two equal, no three concurrent, by ``meet`` and ``incident``."""
    if any(a == b for a, b in combinations(lines, 2)):
        return False
    return not any(incident(meet(a, b), c) for a, b, c in combinations(lines, 3))


def _first_gp_quadruple(lines):
    for quad in combinations(range(len(lines)), 4):
        if reference_general_position([lines[i] for i in quad]):
            return quad
    return None


def _all_collinear(pts) -> bool:
    if len(pts) <= 2:
        return True
    base = join(pts[0], pts[1])
    return all(incident(p, base) for p in pts[2:])


def _near_pencil_split(pts):
    """(on_line, off) when all points but one are collinear, else None."""
    if len(pts) < 4:
        return None
    for i, q in enumerate(pts):
        rest = pts[:i] + pts[i + 1:]
        if _all_collinear(rest) and not incident(q, join(rest[0], rest[1])):
            return rest, q
    return None


def reference_pencil_split(pts):
    """(pts, None) for at least 3 collinear points, else (on_line, off) for
    a near pencil, else None."""
    if len(pts) > 2 and _all_collinear(pts):
        return pts, None
    return _near_pencil_split(pts)


def _pool_points(field):
    return [point(field, 1, 0, 0), point(field, 0, 1, 0), point(field, 0, 0, 1),
            point(field, 1, 1, 1), point(field, 1, 1, 0), point(field, 1, 0, 1),
            point(field, 0, 1, 1), point(field, 1, -1, 1), point(field, 1, 2, 3)]


def _inverse(m: Matrix3) -> Matrix3:
    d = m.det()
    if d.is_zero():
        raise GeometryError("singular matrix")
    inv = d.inverse()
    return Matrix3([[e * inv for e in row] for row in m.adjugate().rows])


def _point_frame_matrix(pts) -> Matrix3:
    """Matrix sending the standard frame e1,e2,e3,(1:1:1) to the given 4
    points, on Scalars: the frame builder the program had before frames
    moved to ring codes."""
    p1, p2, p3, p4 = [p.coords for p in pts]
    base = Matrix3([[p1[0], p2[0], p3[0]],
                    [p1[1], p2[1], p3[1]],
                    [p1[2], p2[2], p3[2]]])
    if base.det().is_zero():
        raise GeometryError("first three frame points are collinear")
    lam = base.adjugate().apply_vec(p4)  # base * lam = p4 (up to det factor)
    if any(x.is_zero() for x in lam):
        raise GeometryError("fourth frame point lies on a side of the triangle")
    return Matrix3([[base.rows[i][j] * lam[j] for j in range(3)] for i in range(3)])


def _frame_map(src, dst) -> Matrix3:
    """The Scalar matrix sending one ordered 4-point frame to another."""
    return _point_frame_matrix(dst) * _inverse(_point_frame_matrix(src))


def _image_set(g, lines):
    """The images of ``lines`` under g as objects: the Scalar matrix
    adj(M)^T on each line's coefficients, then the constructor."""
    cof = g.matrix.adjugate().transpose()
    return {ProjLine(cof.apply_vec(l.coeffs)) for l in lines}


def reference_equivalent(lines_a, lines_b):
    """``projectively_equivalent`` with each candidate checked as it was
    before the check moved to codes: the full image set of A's lines, built
    as objects by ``_image_set``, against the set of B's lines, and with
    the three searches the program had before they became one loop over
    frame pairs: the pencil bases below solve a 2x2 system of their own.
    The frames are built on Scalars (``_point_frame_matrix``), as before
    they moved to ring codes, and the order of the candidates is the
    program's."""
    if len({l.field.spec for l in (*lines_a, *lines_b)}) > 1:
        raise projective.FieldError("arrangements live in different fields")
    lines_a, lines_b = canonical(lines_a), canonical(lines_b)
    if not lines_a or len(lines_a) != len(lines_b):
        return None
    set_b = set(lines_b)
    quad = _first_gp_quadruple(lines_a)
    if quad is not None:
        src = [lines_a[i] for i in quad]
        for cand in permutations(range(len(lines_b)), 4):
            dst = [lines_b[i] for i in cand]
            if reference_general_position(dst):
                g = Projectivity(_frame_map([dualize(l) for l in src],
                                            [dualize(l) for l in dst]).adjugate().transpose())
                if _image_set(g, lines_a) == set_b:
                    return g
        return None
    field = lines_a[0].field
    dual_a, dual_b = [dualize(l) for l in lines_a], [dualize(l) for l in lines_b]
    if len(dual_a) > 2 and _all_collinear(dual_a):
        if not _all_collinear(dual_b):
            return None
        return _reference_pencil(dual_a, None, dual_b, None, lines_a, set_b, field)
    split_a = _near_pencil_split(dual_a) if len(dual_a) > 2 else None
    if split_a is not None:
        split_b = _near_pencil_split(dual_b)
        if split_b is None:
            return None
        return _reference_pencil(*split_a, *split_b, lines_a, set_b, field)
    pool = _pool_points(field)

    def completions(base, duals):
        for extra in combinations([p for p in pool if p not in duals], 4 - len(base)):
            frame = list(base) + list(extra)
            if all(not collinear(x, y, z) and len({x, y, z}) == 3
                   for x, y, z in combinations(frame, 3)):
                yield frame
    for src_frame in completions(dual_a[:3], dual_a):
        for idx in permutations(range(len(dual_b)), min(3, len(dual_b))):
            for dst_frame in completions([dual_b[i] for i in idx], dual_b):
                try:
                    h = _frame_map(src_frame, dst_frame)
                except GeometryError:
                    continue
                g = Projectivity(h.adjugate().transpose())
                if _image_set(g, lines_a) == set_b:
                    return g
    return None


def _column_matrix(v1, v2, v3) -> Matrix3:
    return Matrix3([[v1[i], v2[i], v3[i]] for i in range(3)])


def _pencil_basis(duals, off, field) -> Optional[Matrix3]:
    """Matrix whose columns pin (d1, d2, d3 or unit-sum, off-or-pool point)."""
    v1 = duals[0].coords
    v2 = duals[1].coords
    if len(duals) >= 3:
        # scale v1, v2 so the third dual is v1 + v2
        target = duals[2].coords
        base2 = [[v1[i], v2[i]] for i in range(3)]
        ab = _solve_2d(base2, target, field)
        if ab is None:
            return None
        a, b = ab
        if a.is_zero() or b.is_zero():
            return None
        v1 = tuple(a * x for x in v1)
        v2 = tuple(b * x for x in v2)
    if off is not None:
        v3 = off.coords
    else:
        axis = join(duals[0], duals[1])
        v3 = next(p for p in _pool_points(field) if not incident(p, axis)).coords
    m = _column_matrix(v1, v2, v3)
    if m.det().is_zero():
        return None
    return m


def _solve_2d(rows, target, field):
    """(a, b) with a*col1 + b*col2 = target for a 3x2 system, else None."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
        if not det.is_zero():
            inv = det.inverse()
            a = (target[i] * rows[j][1] - target[j] * rows[i][1]) * inv
            b = (rows[i][0] * target[j] - rows[j][0] * target[i]) * inv
            for k in range(3):
                if not (rows[k][0] * a + rows[k][1] * b - target[k]).is_zero():
                    return None
            return a, b
    return None


def _reference_pencil(on_a, off_a, on_b, off_b, lines_a, set_b, field):
    if len(on_a) != len(on_b):
        return None
    base_a = _pencil_basis(on_a, off_a, field)
    if base_a is None:
        return None
    n_a = _inverse(base_a)
    for idx in permutations(range(len(on_b)), min(3, len(on_b))):
        base_b = _pencil_basis([on_b[i] for i in idx], off_b, field)
        if base_b is not None:
            g = Projectivity((base_b * n_a).adjugate().transpose())
            if _image_set(g, lines_a) == set_b:
                return g
    return None


@pytest.fixture
def same_witness(monkeypatch):
    """A ``projectively_equivalent`` that also runs ``reference_equivalent``
    and asserts that both give the same witness matrix up to a scalar
    (``scaled_canonical``), or both None; it
    replaces the one ``arrangements`` calls, so ``arrangements_equivalent``
    and the CLI's ``equiv`` are checked too."""
    search = arrangements.projectively_equivalent

    def checked(lines_a, lines_b):
        got, want = search(lines_a, lines_b), reference_equivalent(lines_a, lines_b)
        assert (got is None) == (want is None)
        assert got is None or (got.matrix.scaled_canonical()
                               == want.matrix.scaled_canonical())
        return got
    monkeypatch.setattr(arrangements, "projectively_equivalent", checked)
    return checked


# ---------------------------------------------------------------------------
# operator sequences

def reference_sequence(op, start, max_steps=dynamics.DEFAULT_MAX_STEPS,
                       max_lines=dynamics.DEFAULT_MAX_LINES,
                       profile_budget=dynamics.DEFAULT_PROFILE_BUDGET):
    """``run_sequence`` as it was with cycle detection on the canonical
    digest of every step: (verdict, one (count, profile, H, digest) per
    step).  Each step is decoded, and profiled within the budget by
    ``profile`` on its own, apart from any operator pass."""
    Verdict = dynamics.Verdict
    arrs, verdict = [start], None
    seen = {start.digest(): 0}
    if start.is_empty():
        verdict = Verdict("extinguished", length=0)
    while verdict is None:
        step = len(arrs) - 1
        if step >= max_steps:
            verdict = Verdict("budget_steps", at_step=step)
            break
        nxt = dynamics.apply_operator(op, arrs[-1])
        arrs.append(nxt)
        if nxt.is_empty():
            verdict = Verdict("extinguished", length=step + 1)
            break
        first = seen.setdefault(nxt.digest(), step + 1)
        if first <= step:
            period = step + 1 - first
            verdict = (Verdict("fixed", at_step=first) if period == 1 else
                       Verdict("cycle", preperiod=first, period=period))
        elif len(nxt) > max_lines:
            verdict = Verdict("budget_lines", at_step=step + 1)
    steps = []
    for arr in arrs:
        prof = arrangements.profile(arr) if len(arr) <= profile_budget else None
        h = (arrangements.h_constant(prof) if prof is not None
             and prof.total_points else None)
        steps.append((len(arr), prof, h, arr.digest()))
    return verdict, steps


# ---------------------------------------------------------------------------
# matroid isomorphism

def reference_matroid_isomorphic(a, b) -> Optional[tuple]:
    """A ground-set bijection carrying flats to flats, or None: the
    backtracking search ``matroids.matroid_isomorphic`` ran before its
    colour refinement, kept as the reference the refinement is checked
    against.

    Deterministic first witness: backtracking in ground order with
    flat-size-multiset pruning, then a full flat-set verification.
    """
    if a.ground != b.ground or a.flat_sizes() != b.flat_sizes():
        return None
    m = a.ground

    def flat_of(mat):
        """flat(i, j): the index of the flat of mat holding i != j, or None."""
        through = mat._through

        def flat(i, j):
            common = set(through.get(i, ())).intersection(through.get(j, ()))
            return common.pop() if common else None
        return flat

    def inv(mat):
        return [tuple(sorted(len(mat.flats[fi]) for fi in mat._through.get(i, ())))
                for i in range(mat.ground)]

    pa, pb = flat_of(a), flat_of(b)
    ia, ib = inv(a), inv(b)
    cand = [[j for j in range(m) if ib[j] == ia[i]] for i in range(m)]
    if any(not c for c in cand):
        return None
    assign = [-1] * m
    used = [False] * m
    # flat correspondence forced by pairs must stay a function
    flat_image = {}

    def consistent(i, j):
        for i2 in range(i):
            fa, fb = pa(i, i2), pb(j, assign[i2])
            if (fa is None) != (fb is None):
                return False
            if fa is not None:
                if len(a.flats[fa]) != len(b.flats[fb]):
                    return False
                if fa in flat_image and flat_image[fa] != fb:
                    return False
        return True

    def record(i, j):
        added = []
        for i2 in range(i):
            fa = pa(i, i2)
            if fa is not None and fa not in flat_image:
                flat_image[fa] = pb(j, assign[i2])
                added.append(fa)
        return added

    def backtrack(i):
        if i == m:
            image = {tuple(sorted(assign[k] for k in f)) for f in a.flats}
            return image == set(b.flats)
        for j in cand[i]:
            if used[j] or not consistent(i, j):
                continue
            assign[i] = j
            used[j] = True
            added = record(i, j)
            if backtrack(i + 1):
                return True
            for fa in added:
                del flat_image[fa]
            used[j] = False
            assign[i] = -1
        return False

    if backtrack(0):
        return tuple(assign)
    return None


# ---------------------------------------------------------------------------
# number fields on tuples of Fractions
#
# Before number-field reps became integer vectors (a0, ..., a(n-1), d) of
# Z[theta] over one denominator, a rep was the tuple of an element's
# coefficients on 1, x, ..., x^(n-1) as Fractions, with the arithmetic below.

def nf_fractions(field, rep) -> tuple:
    """The Fraction coefficients on 1, x, ... of the rep (a0, ..., d):
    theta = c x, so the coefficient of x^i is a_i c^i / d."""
    c = _nf_codec(field.spec)[0]
    return tuple(Fraction(a * c ** i, rep[-1]) for i, a in enumerate(rep[:-1]))


def nf_rep(field, coeffs) -> tuple:
    """The rep of the element with coefficients ``coeffs`` on 1, x, ...:
    its Z[theta] coordinates a_i / c^i over their least common
    denominator, which leaves the n + 1 integers coprime."""
    c = _nf_codec(field.spec)[0]
    t = [Fraction(a) / c ** i for i, a in enumerate(coeffs)]
    d = math.lcm(*(v.denominator for v in t))
    return tuple(int(v * d) for v in t) + (d,)


@lru_cache(maxsize=None)
def reference_nf_ops(spec) -> tuple:
    """(add, sub, neg, mul, inv) on Fraction coefficient tuples, as the
    program had them: sums entrywise, and a product or inverse of operands
    cleared into Z[theta] as the integers v0, v1, ... over s<v> (x^i =
    theta^i / c^i), multiplied by ``_mul_src(g)`` or inverted by
    ``_adjugate(g)``, each coefficient divided once."""
    c, g = _nf_codec(spec)
    n = len(g) - 1

    def to_z(v):  # v<i>_ = v[i] = v<i> * c^i / s<v>
        e = [f"{v}{i}_" for i in range(n)]
        den = ", ".join(x + ".denominator" for x in e)
        return ([f"{', '.join(e)}, = {v}", f"s{v} = lcm({den}) * {c ** (n - 1)}"]
                + [f"{v}{i} = {x}.numerator * (s{v} // ({x}.denominator * {c ** i}))"
                   for i, x in enumerate(e)])

    def from_z(num, den):  # the coefficients of the sum of num<i> theta^i / den
        return "return " + "".join(f"F({num}{i} * {c ** i}, {den}), " for i in range(n))
    a, w = (", ".join(f"{v}{i}" for i in range(n)) for v in "aw")
    names = {"F": Fraction, "lcm": math.lcm, "adj": _adjugate(g)}
    mul = _compiled(["def mul(a, b):", *to_z("a"), *to_z("b"),
                     *_mul_src(g, "p", (1, "a", "b")), from_z("p", "sa * sb")],
                    "mul", **names)
    inv = _compiled(["def inv(a):", *to_z("a"), "if not any(a):",
                     " raise ZeroDivisionError('division by zero')",
                     f"d, {w} = adj({a})", from_z("sa * w", "d")], "inv", **names)
    return (lambda a, b: tuple(x + y for x, y in zip(a, b)),
            lambda a, b: tuple(x - y for x, y in zip(a, b)),
            lambda a: tuple(-x for x in a), mul, inv)
