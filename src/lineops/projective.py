"""Projective points, lines, conics and projectivities over an exact field.

Points and lines are normalized homogeneous triples: the leftmost nonzero
coordinate equals 1, so equal projective objects have identical coordinate
tuples and serve directly as dictionary keys.
"""
from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional, Sequence

from .fields import Field, FieldError, Scalar, _Frozen


class GeometryError(Exception):
    """Degenerate geometric input (identical lines, singular matrix, ...)."""


def _normalize(coords: Sequence[Scalar], what: str = "coordinate triple") -> tuple:
    """Scale so the first nonzero entry is 1 (the projective representative).

    Entries already scaled so, all scalars of the pivot's field, come back
    as they are: the pair kernel decodes its keys to such triples.
    """
    for pivot in coords:
        if not pivot.is_zero():
            field = pivot.field
            if pivot.rep == field.one.rep and all(
                    c.__class__ is Scalar and c.field is field for c in coords):
                return tuple(coords)
            inv = pivot.inverse()
            return tuple(c * inv for c in coords)
    raise GeometryError(f"zero {what}")


class _ProjObject(_Frozen):
    """A point, a line or a conic: one normalized homogeneous tuple.

    Points and lines share the representation, so duality keeps the triple
    and swaps the class.  Equality needs the same class: a point never
    equals the line with the same triple.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Scalar]):
        if len(coords) != 3:
            raise GeometryError(f"a {type(self).__name__} needs 3 coordinates")
        object.__setattr__(self, "coords", _normalize(coords))

    @property
    def field(self) -> Field:
        return self.coords[0].field

    def key(self):
        return tuple(c.rep for c in self.coords)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.coords == other.coords

    def __hash__(self):
        return hash((self._brackets,) + self.coords)

    def __repr__(self):
        return (self._brackets[0] + " : ".join(str(c) for c in self.coords)
                + self._brackets[1])


# Each class binds __init__ in its own namespace, not through inheritance, so
# that bench/tracer.py can wrap the constructor of one class and not the other.

class ProjPoint(_ProjObject):
    __slots__ = ()
    __init__ = _ProjObject.__init__
    _brackets = "()"


class ProjLine(_ProjObject):
    __slots__ = ()
    __init__ = _ProjObject.__init__
    _brackets = "[]"
    coeffs = _ProjObject.coords  # a line's triple under its usual name


_DUAL = {ProjPoint: ProjLine, ProjLine: ProjPoint}


def point(field: Field, x, y, z) -> ProjPoint:
    return ProjPoint((field.scalar(x), field.scalar(y), field.scalar(z)))


def line(field: Field, u1, u2, u3) -> ProjLine:
    return ProjLine((field.scalar(u1), field.scalar(u2), field.scalar(u3)))


def _check_same_field(a, b):
    if a.field.spec != b.field.spec:
        raise FieldError("objects live in different fields")


def _cross(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    return _span(p, q, ProjPoint, "join")


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    """The unique intersection point of two distinct lines."""
    return _span(l, m, ProjLine, "meet")


def _span(a, b, cls, name: str):
    """The dual object through two distinct objects of class ``cls``."""
    if a.__class__ is not cls or b.__class__ is not cls:
        raise GeometryError(f"{name} expects two {cls.__name__} objects")
    _check_same_field(a, b)
    if a == b:
        raise GeometryError(f"{name} of identical {cls.__name__} objects")
    return _DUAL[cls](_cross(a.coords, b.coords))


def incident(p: ProjPoint, l: ProjLine) -> bool:
    _check_same_field(p, l)
    s = p.coords[0] * l.coeffs[0] + p.coords[1] * l.coeffs[1] + p.coords[2] * l.coeffs[2]
    return s.is_zero()


def dualize(obj):
    """Coordinate-identity swap of role; an involution.  The triple is
    already normalized, so the dual object shares it unchecked."""
    dual = _DUAL.get(obj.__class__)
    if dual is None:
        raise GeometryError("dualize expects a point or a line")
    out = object.__new__(dual)
    object.__setattr__(out, "coords", obj.coords)
    return out


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    if p == q or p == r or q == r:
        return True
    return incident(r, join(p, q))


# ---------------------------------------------------------------------------
# 3x3 matrices / projectivities

class Matrix3(_Frozen):
    __slots__ = ("rows", "field")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "field", rows[0][0].field)

    @classmethod
    def from_values(cls, field: Field, values) -> "Matrix3":
        return cls([[field.scalar(v) for v in row] for row in values])

    @classmethod
    def identity(cls, field: Field) -> "Matrix3":
        o, z = field.one, field.zero
        return cls([[o, z, z], [z, o, z], [z, z, o]])

    def det(self) -> Scalar:
        r = self.rows
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))

    def transpose(self) -> "Matrix3":
        r = self.rows
        return Matrix3([[r[0][0], r[1][0], r[2][0]],
                        [r[0][1], r[1][1], r[2][1]],
                        [r[0][2], r[1][2], r[2][2]]])

    def adjugate(self) -> "Matrix3":
        r = self.rows
        c = [[r[1][1] * r[2][2] - r[1][2] * r[2][1],
              r[0][2] * r[2][1] - r[0][1] * r[2][2],
              r[0][1] * r[1][2] - r[0][2] * r[1][1]],
             [r[1][2] * r[2][0] - r[1][0] * r[2][2],
              r[0][0] * r[2][2] - r[0][2] * r[2][0],
              r[0][2] * r[1][0] - r[0][0] * r[1][2]],
             [r[1][0] * r[2][1] - r[1][1] * r[2][0],
              r[0][1] * r[2][0] - r[0][0] * r[2][1],
              r[0][0] * r[1][1] - r[0][1] * r[1][0]]]
        return Matrix3(c)

    def __mul__(self, other: "Matrix3") -> "Matrix3":
        b0, b1, b2 = other.rows
        return Matrix3([[r0 * c0 + r1 * c1 + r2 * c2
                         for c0, c1, c2 in zip(b0, b1, b2)]
                        for r0, r1, r2 in self.rows])

    def apply_vec(self, v: Sequence[Scalar]) -> tuple:
        v0, v1, v2 = v
        return tuple(r0 * v0 + r1 * v1 + r2 * v2 for r0, r1, r2 in self.rows)

    def scaled_canonical(self) -> "Matrix3":
        """Scale so the first nonzero entry is 1 (projective representative)."""
        e = _normalize([x for row in self.rows for x in row], "matrix")
        return Matrix3([e[0:3], e[3:6], e[6:9]])

    def __eq__(self, other):
        return isinstance(other, Matrix3) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix3(" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows) + ")"


class Projectivity(_Frozen):
    """Invertible 3x3 matrix acting on points; lines map by inverse-transpose.

    It acts on the integer codes of its field: the matrix and its cofactor
    matrix adj^T, the inverse-transpose up to the determinant, are kept in
    the codec at construction (``arrangements._matrix_codes``), which also
    refuses a singular matrix.
    """

    __slots__ = ("matrix", "_on_points", "_on_lines")

    def __init__(self, matrix: Matrix3):
        on_points, on_lines = _arrangements()._matrix_codes(matrix)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_on_points", on_points)
        object.__setattr__(self, "_on_lines", on_lines)

    @property
    def field(self) -> Field:
        return self.matrix.field

    def inverse(self) -> "Projectivity":
        return Projectivity(self.matrix.adjugate())

    def compose(self, other: "Projectivity") -> "Projectivity":
        """self after other."""
        return Projectivity(self.matrix * other.matrix)

    def __call__(self, obj):
        return apply_projectivity(self, obj)

    def is_identity(self) -> bool:
        return self.matrix.scaled_canonical() == Matrix3.identity(self.field)

    def __eq__(self, other):
        return (isinstance(other, Projectivity)
                and self.matrix.scaled_canonical() == other.matrix.scaled_canonical())

    def __hash__(self):
        return hash(self.matrix.scaled_canonical())

    def __repr__(self):
        return f"Projectivity({self.matrix!r})"


def _arrangements():
    """The ``arrangements`` module, home of the integer codec (``_encode``,
    ``_from_key``) and of the actions on codes (``_matrix_codes``,
    ``_act``); imported on first use, since it imports this module."""
    from . import arrangements
    return arrangements


def apply_projectivity(g: Projectivity, obj):
    """The image of one point or one line under g, normalized.

    Anything else, an iterable of lines or an Arrangement included, raises
    GeometryError: map a collection one member at a time.  The object is
    encoded, moved by ``arrangements._act`` and decoded.
    """
    if isinstance(obj, ProjPoint):
        m = g._on_points
    elif isinstance(obj, ProjLine):
        m = g._on_lines
    else:
        raise GeometryError("apply_projectivity expects a point or a line")
    _check_same_field(g, obj)
    arr, field = _arrangements(), g.field
    image, = arr._act(m, arr._encode([obj], field), field)
    return arr._from_key(obj.__class__, image, field)


def _carrying(m_a, m_b, field: Field) -> Projectivity:
    """The projectivity whose line action M_b adj(M_a) takes the dual
    points of the frame matrix M_a (``arrangements._ring_frame``) to those
    of M_b: its point matrix is cof(M_b adj(M_a)) = cof(M_b) M_a^T up to a
    scalar, decoded (``_normal``, ``_from_key``) and multiplied out on
    Scalars."""
    arr = _arrangements()
    a, b = (arr._from_key(tuple, arr._normal(m, field), field)
            for m in (m_a, arr._cofactors(*arr._ring(field))(m_b)[1]))
    return Projectivity(Matrix3([b[0:3], b[3:6], b[6:9]]) * Matrix3([a[0::3], a[1::3], a[2::3]]))


def _frame_pair(src: Sequence, dst: Sequence) -> tuple:
    """(M_src, M_dst, field): the frame matrices of two ordered 4-frames of
    points (dually: lines) over the field's ring, or GeometryError."""
    if len(src) != 4 or len(dst) != 4:
        raise GeometryError("a frame needs 4 points")
    for o in (*src, *dst):
        _check_same_field(src[0], o)
    field, arr = src[0].field, _arrangements()
    vecs = arr._ring_vecs(arr._encode([*src, *dst], field), field)
    m_src, m_dst = arr._ring_frame(vecs[:4], field), arr._ring_frame(vecs[4:], field)
    if m_src is None or m_dst is None:
        raise GeometryError("three frame points are collinear")
    return m_src, m_dst, field


def projectivity_from_point_frames(src: Sequence[ProjPoint],
                                   dst: Sequence[ProjPoint]) -> Projectivity:
    """Unique projectivity sending one ordered 4-point frame to another:
    the map of the same coordinates as lines (``_carrying``), its point
    matrix inverse-transposed."""
    return Projectivity(_carrying(*_frame_pair(src, dst)).matrix.adjugate().transpose())


def projectivity_from_line_frames(src: Sequence[ProjLine],
                                  dst: Sequence[ProjLine]) -> Projectivity:
    """Unique projectivity carrying 4 general-position lines to 4 others,
    computed on the dual frames (``_carrying``)."""
    return _carrying(*_frame_pair(src, dst))


def _field_of(sides) -> Optional[Field]:
    """The one field of ``sides``, sequences of lines or
    ``arrangements.Arrangement``s, or None when they hold no line.  Lines
    of two fields are refused first, so that lines with the same reps never
    merge, then anything that is not a line."""
    arrangement = _arrangements().Arrangement
    fields = {}
    for s in sides:
        for f in ([s.field] if isinstance(s, arrangement) else (l.field for l in s)):
            fields[f.spec] = f
    if len(fields) > 1:
        raise FieldError("arrangements live in different fields")
    if any(l.__class__ is not ProjLine for s in sides
           if not isinstance(s, arrangement) for l in s):
        raise GeometryError("expected lines")
    return next(iter(fields.values()), None)


def lines_in_general_position(lines: Sequence[ProjLine]) -> bool:
    """No two equal, no three concurrent: distinct codes, and no position
    on three of them (``arrangements._groups``)."""
    field, arr = _field_of([lines]), _arrangements()
    if field is None:
        return True
    codes = arr._encode(lines, field)
    return len(set(codes)) == len(codes) and not arr._groups(codes, field, 3)


def projectively_equivalent(lines_a, lines_b) -> Optional[Projectivity]:
    """A witness g with g(A) = B as sets, or None.  Each side is a sequence
    of lines, ordered and encoded once as an ``arrangements.Arrangement``,
    or an Arrangement, whose codes are read as they are.

    Deterministic: the first candidate of ``_frames`` whose frame_b moves
    A's moved codes into B's code set, one code at a time
    (``arrangements._act``), gives the witness (``_carrying``); no object
    is built before it, and g is injective, so images all in B are all of B.
    """
    field, arr = _field_of((lines_a, lines_b)), _arrangements()
    if field is None:
        return None
    a, b = (s if isinstance(s, arr.Arrangement) else arr.Arrangement(field, s)
            for s in (lines_a, lines_b))
    if a.is_empty() or len(a) != len(b):
        return None  # no canvas for a witness when both are empty
    in_b = b._code_set().__contains__
    for frame_a, moved, frame_b in _frames(a, b):
        if all(map(in_b, arr._act(frame_b, moved, field))):
            return _carrying(frame_a, frame_b, field)
    return None


# The points that complete fewer than four dual points to frames, in order.
_POOL = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0), (1, 0, 1),
         (0, 1, 1), (1, -1, 1), (1, 2, 3))


def _concurrency(s, duals) -> tuple:
    """(triples, split) of the lines of the Arrangement s, from the
    positions on three or more of them (``arrangements._groups``); duals
    are their dual points in canonical order.  A position on all n lines
    (n >= 3) makes a pencil, and one on n - 1 lines (n >= 4) a near pencil:
    then split is (its points on the line, the point off it or None), and
    triples is None, as no 4 lines are in general position.  Otherwise
    split is None and triples the set of index triples of concurrent
    lines, ascending."""
    n = len(s)
    groups = _arrangements()._groups(s._code_list(), s.field, 3).values()
    for on in groups:
        if len(on) >= n - 1:
            off = next(iter(set(range(n)).difference(on)), None)
            return None, ([duals[i] for i in on], None if off is None else duals[off])
    return {t for g in groups for t in combinations(g, 3)}, None


def _frames(a, b):
    """The witness candidates in order for two Arrangements, as triples
    (frame_a, moved, frame_b): frame matrices (``arrangements._ring_frame``)
    of A's and of B's dual points over the field's ring, and A's codes moved
    by adj(frame_a), found once per frame of A.

    A's first general-position quadruple is matched against each ordered
    quadruple of B in general position: one with no concurrent triple
    (``_concurrency``).  Without one, A is dually collinear points (a
    pencil), collinear points plus one (a near pencil) or at most 3
    points.  A pencil or near pencil pins its first three collinear points
    d1, d2, d3 and the point off their line, or the first of ``_POOL`` off
    it, as the frame (d1, d2, off, d3 + off), each point at the scale that
    makes its first nonzero coordinate 1, against those of B's ordered
    triples; it has no match unless B splits the same way.  Anything else
    is at most 3 lines, no three concurrent: its first completion to a
    frame from ``_POOL`` against B's, which maps A onto B unless B has
    three concurrent lines, and then B has none.
    """
    field, arr = a.field, _arrangements()
    g, p = arr._ring(field)
    n, frame = len(g) - 1, arr._ring_frame
    dual_a, dual_b = (arr._ring_vecs(s._code_list(), field) for s in (a, b))
    (triples_a, split_a), (triples_b, split_b) = (_concurrency(a, dual_a),
                                                  _concurrency(b, dual_b))

    def standard(m):  # (m, A's codes moved by adj(m) = cof(m)^T)
        adj = arr._transpose(arr._cofactors(g, p)(m)[1], n)
        return m, list(arr._act(adj, a._codes, field))

    quad = None if triples_a is None else next(
        (q for q in combinations(range(len(a)), 4)
         if triples_a.isdisjoint(combinations(q, 3))), None)
    if quad is not None:
        to_a = standard(frame([dual_a[i] for i in quad], field))
        for cand in permutations(range(len(b)), 4):
            if triples_b is not None and triples_b.isdisjoint(
                    combinations(sorted(cand), 3)):
                yield *to_a, frame([dual_b[i] for i in cand], field)
        return
    pool = [tuple([v for c in t for v in (c % p if p else c,) + (0,) * (n - 1)])
            for t in _POOL]

    def pencil(on, off):
        d1, d2, d3 = on[:3]
        for o in [off] if off is not None else pool:
            k3, ko = next(filter(None, d3)), next(filter(None, o))
            m = frame((d1, d2, o, [ko * x + k3 * y for x, y in zip(d3, o)]), field)
            if m is not None:
                return m
        return None

    if split_a is not None:
        (on_a, off_a), (on_b, off_b) = split_a, split_b or ((), None)
        base_a = pencil(on_a, off_a)
        if len(on_a) != len(on_b) or base_a is None:
            return
        to_a = standard(base_a)
        for idx in permutations(range(len(on_b)), 3):
            base_b = pencil([on_b[i] for i in idx], off_b)
            if base_b is not None:
                yield *to_a, base_b
        return

    def completion(duals):
        extras = combinations([q for q in pool if q not in duals], 4 - len(duals))
        return next(filter(None, (frame([*duals, *e], field) for e in extras)), None)

    frame_a, frame_b = completion(dual_a), completion(dual_b)
    if frame_a is not None and frame_b is not None:
        yield *standard(frame_a), frame_b


# ---------------------------------------------------------------------------
# conics

class Conic(_ProjObject):
    """a x^2 + b y^2 + c z^2 + d xy + e xz + f yz = 0, normalized 6-tuple."""

    __slots__ = ()
    _brackets = ("Conic(", ")")
    coeffs = _ProjObject.coords

    def __init__(self, coeffs: Sequence[Scalar]):
        if len(coeffs) != 6:
            raise GeometryError("a conic needs 6 coefficients")
        object.__setattr__(self, "coords", _normalize(coeffs, "conic"))

    def contains(self, p: ProjPoint) -> bool:
        a, b, c, d, e, f = self.coeffs
        x, y, z = p.coords
        val = a * x * x + b * y * y + c * z * z + d * x * y + e * x * z + f * y * z
        return val.is_zero()

    def is_irreducible(self) -> bool:
        """Smooth conic test in every characteristic: the half-discriminant
        4abc + def - af^2 - be^2 - cd^2, half the determinant of the
        doubled symmetric form, is nonzero."""
        a, b, c, d, e, f = self.coeffs
        return not (a * b * c * 4 + d * e * f - a * f * f - b * e * e
                    - c * d * d).is_zero()

    def __repr__(self):
        return self._brackets[0] + ", ".join(map(str, self.coords)) + self._brackets[1]


def _conic_rows(pts: Sequence[ProjPoint]) -> tuple:
    """(field, rows) for points of one field, ordered and deduplicated as
    an ``arrangements.PointConfig``: each point's row (x^2, y^2, z^2, xy,
    xz, yz) over the ring of its code (``arrangements._ring``), so the
    conics through points are a kernel of their rows."""
    arr = _arrangements()
    cfg = arr.PointConfig(pts[0].field, pts)
    field = cfg.field
    g, p = arr._ring(field)
    n = len(g) - 1
    comb, zero, rows = arr._ring_comb(g, p), [0] * 6 * n, []
    for v in arr._ring_vecs(cfg._code_list(), field):
        x, y, z = v[:n], v[n:2 * n], v[2 * n:]
        rows.append(comb([*x, *y, *z, *x, *x, *y], [*x, *y, *z, *y, *z, *z], zero, zero))
    return field, rows


def conic_through(pts: Sequence[ProjPoint]) -> Conic:
    """The unique conic through 5 points (error when not unique)."""
    if len(pts) != 5:
        raise GeometryError("conic_through expects exactly 5 points")
    field, rows = _conic_rows(pts)
    basis = _arrangements()._null_basis(rows, field)
    if len(basis) != 1:
        raise GeometryError("conic through the 5 points is not unique")
    return _arrangements()._from_key(Conic, basis[0], field)


def common_conic(pts: Sequence[ProjPoint]) -> Optional[Conic]:
    """Some conic through all the points, or None when only the zero conic fits."""
    if not pts:
        raise GeometryError("no points")
    field, rows = _conic_rows(pts)
    basis = _arrangements()._null_basis(rows, field)
    return _arrangements()._from_key(Conic, basis[0], field) if basis else None


class RichConic(_Frozen):
    __slots__ = ("conic", "count", "irreducible")

    def __init__(self, conic: Conic, count: int, irreducible: bool):
        object.__setattr__(self, "conic", conic)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "irreducible", irreducible)

    def __repr__(self):
        tag = "irreducible" if self.irreducible else "degenerate"
        return f"RichConic({self.conic!r}, {self.count} points, {tag})"


def rich_conics(pts: Sequence[ProjPoint], min_count: int) -> list:
    """Conics through >= min_count of the points, from 5-subset enumeration.

    Input size is capped at 30 points (C(30,5) subsets is the practical
    limit for exact enumeration); 5-subsets that do not determine a unique
    conic are skipped.  Each subset's conic is found on the points' codes
    (``arrangements._null_basis``) and deduplicated by its ``_normal``
    vector, and each distinct one counts its points on the same rows; a
    Conic is built only for one that is returned, in the canonical order
    of the vectors (``arrangements._vector_order``).
    """
    arr = _arrangements()
    field, rows = _conic_rows(pts) if pts else (None, [])
    if len(rows) > 30:
        raise GeometryError("rich_conics accepts at most 30 points")
    if min_count < 5:
        raise GeometryError("min_count must be at least 5")
    seen = {}
    for sub in combinations(rows, 5):
        basis = arr._null_basis(sub, field)
        if len(basis) == 1:
            seen[basis[0]] = None
    out, flat = [], [v for row in rows for v in row]
    for key in arr._vector_order(list(seen), field):
        cnt = sum(not any(e) for e in arr._ring_dots(flat, list(key) * len(rows), 6, field))
        if cnt >= min_count:
            conic = arr._from_key(Conic, key, field)
            out.append(RichConic(conic, cnt, conic.is_irreducible()))
    return out
