"""Projective points, lines, conics and projectivities over an exact field.

Points and lines are normalized homogeneous triples: the leftmost nonzero
coordinate equals 1, so equal projective objects have identical coordinate
tuples and serve directly as dictionary keys.
"""
from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional, Sequence

from .fields import Field, FieldError, Scalar


class GeometryError(Exception):
    """Degenerate geometric input (identical lines, singular matrix, ...)."""


def _normalize(coords: Sequence[Scalar], what: str = "coordinate triple") -> tuple:
    """Scale so the first nonzero entry is 1 (the projective representative)."""
    for pivot in coords:
        if not pivot.is_zero():
            inv = pivot.inverse()
            return tuple(c * inv for c in coords)
    raise GeometryError(f"zero {what}")


class _ProjObject:
    """A point or a line: one normalized homogeneous triple.

    Points and lines share the representation, so duality keeps the triple
    and swaps the class.  Equality needs the same class: a point never
    equals the line with the same triple.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Scalar]):
        if len(coords) != 3:
            raise GeometryError(f"a {type(self).__name__} needs 3 coordinates")
        object.__setattr__(self, "coords", _normalize(coords))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

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
    """Coordinate-identity swap of role; an involution."""
    dual = _DUAL.get(obj.__class__)
    if dual is None:
        raise GeometryError("dualize expects a point or a line")
    return dual(obj.coords)


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    if p == q or p == r or q == r:
        return True
    return incident(r, join(p, q))


# ---------------------------------------------------------------------------
# 3x3 matrices / projectivities

class Matrix3:
    __slots__ = ("rows", "field")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "field", rows[0][0].field)

    def __setattr__(self, *a):
        raise AttributeError("Matrix3 is immutable")

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

    def inverse(self) -> "Matrix3":
        d = self.det()
        if d.is_zero():
            raise GeometryError("singular matrix")
        inv = d.inverse()
        return Matrix3([[e * inv for e in row] for row in self.adjugate().rows])

    def __mul__(self, other: "Matrix3") -> "Matrix3":
        a, b = self.rows, other.rows
        return Matrix3([[sum((a[i][k] * b[k][j] for k in range(3)),
                             self.field.zero) for j in range(3)] for i in range(3)])

    def apply_vec(self, v: Sequence[Scalar]) -> tuple:
        return tuple(sum((row[k] * v[k] for k in range(3)), self.field.zero)
                     for row in self.rows)

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


class Projectivity:
    """Invertible 3x3 matrix acting on points; lines map by inverse-transpose."""

    __slots__ = ("matrix", "_line_matrix")

    def __init__(self, matrix: Matrix3):
        if matrix.det().is_zero():
            raise GeometryError("projectivity matrix must be invertible")
        object.__setattr__(self, "matrix", matrix)
        # adjugate^T acts on line coefficients; equals inverse-transpose
        # up to the (irrelevant) determinant factor
        object.__setattr__(self, "_line_matrix", matrix.adjugate().transpose())

    def __setattr__(self, *a):
        raise AttributeError("Projectivity is immutable")

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


def apply_projectivity(g: Projectivity, obj):
    """Image of a point / line / iterable of lines, renormalized."""
    if isinstance(obj, ProjPoint):
        return ProjPoint(g.matrix.apply_vec(obj.coords))
    if isinstance(obj, ProjLine):
        return ProjLine(g._line_matrix.apply_vec(obj.coeffs))
    raise GeometryError("apply_projectivity expects a point or a line")


def _point_frame_matrix(pts: Sequence[ProjPoint]) -> Matrix3:
    """Matrix sending the standard frame e1,e2,e3,(1:1:1) to the given 4 points."""
    if len(pts) != 4:
        raise GeometryError("a frame needs 4 points")
    field = pts[0].field
    p1, p2, p3, p4 = [p.coords for p in pts]
    base = Matrix3([[p1[0], p2[0], p3[0]],
                    [p1[1], p2[1], p3[1]],
                    [p1[2], p2[2], p3[2]]])
    d = base.det()
    if d.is_zero():
        raise GeometryError("first three frame points are collinear")
    lam = base.adjugate().apply_vec(p4)  # base * lam = p4 (up to det factor)
    if any(x.is_zero() for x in lam):
        raise GeometryError("fourth frame point lies on a side of the triangle")
    cols = []
    for j, l in enumerate(lam):
        cols.append([base.rows[i][j] * l for i in range(3)])
    return Matrix3([[cols[j][i] for j in range(3)] for i in range(3)])


def projectivity_from_point_frames(src: Sequence[ProjPoint],
                                   dst: Sequence[ProjPoint]) -> Projectivity:
    """Unique projectivity sending one ordered 4-point frame to another."""
    a = _point_frame_matrix(src)
    b = _point_frame_matrix(dst)
    return Projectivity(b * a.inverse())


def projectivity_from_line_frames(src: Sequence[ProjLine],
                                  dst: Sequence[ProjLine]) -> Projectivity:
    """Unique projectivity carrying 4 general-position lines to 4 others.

    Computed on the dual frame: the matrix h moving the dual points of src
    to those of dst transforms line coefficients, hence the point action is
    its inverse-transpose.
    """
    h = projectivity_from_point_frames([dualize(l) for l in src],
                                       [dualize(l) for l in dst])
    return Projectivity(h.matrix.adjugate().transpose())


def lines_in_general_position(lines: Sequence[ProjLine]) -> bool:
    """No two equal, no three concurrent."""
    for a, b in combinations(lines, 2):
        if a == b:
            return False
    for a, b, c in combinations(lines, 3):
        if incident(meet(a, b), c):
            return False
    return True


def _first_gp_quadruple(lines: Sequence[ProjLine]) -> Optional[tuple]:
    for quad in combinations(range(len(lines)), 4):
        if lines_in_general_position([lines[i] for i in quad]):
            return quad
    return None


def projectively_equivalent(lines_a: Sequence[ProjLine],
                            lines_b: Sequence[ProjLine]) -> Optional[Projectivity]:
    """A witness g with g(A) = B as sets, or None.

    Deterministic: the first general-position quadruple of A (in canonical
    order) is matched against ordered quadruples of B in canonical order.
    Arrangements without a general-position quadruple (pencils, near
    pencils, <= 3 lines) go through a dual-frame fallback.
    """
    lines_a = sorted(set(lines_a), key=_sort_key)
    lines_b = sorted(set(lines_b), key=_sort_key)
    if not lines_a and not lines_b:
        return None  # no canvas to define a witness on; treated by caller
    if len(lines_a) != len(lines_b):
        return None
    if lines_a and lines_b and lines_a[0].field.spec != lines_b[0].field.spec:
        raise FieldError("arrangements live in different fields")
    set_b = set(lines_b)
    quad = _first_gp_quadruple(lines_a)
    if quad is None:
        return _degenerate_equivalent(lines_a, lines_b)
    src = [lines_a[i] for i in quad]
    for cand in permutations(range(len(lines_b)), 4):
        dst = [lines_b[i] for i in cand]
        if not lines_in_general_position(dst):
            continue
        g = projectivity_from_line_frames(src, dst)
        if {apply_projectivity(g, l) for l in lines_a} == set_b:
            return g
    return None


def _sort_key(obj):
    """The canonical total order on points and on lines."""
    return tuple(_rep_key(c.rep) for c in obj.coords)


def _rep_key(rep):
    if isinstance(rep, tuple):
        return rep
    return (rep,)


def _pool_points(field: Field):
    return [point(field, 1, 0, 0), point(field, 0, 1, 0), point(field, 0, 0, 1),
            point(field, 1, 1, 1), point(field, 1, 1, 0), point(field, 1, 0, 1),
            point(field, 0, 1, 1), point(field, 1, -1, 1), point(field, 1, 2, 3)]


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


def _degenerate_equivalent(lines_a, lines_b) -> Optional[Projectivity]:
    """Equivalence for arrangements without a general-position quadruple.

    Dually these are collinear point sets (pencils), collinear plus one
    (near pencils / quasi-trivial arrangements) or at most 3 points; the
    first two get a cross-ratio normal form, the rest a frame search.
    """
    field = lines_a[0].field
    dual_a = [dualize(l) for l in lines_a]
    dual_b = [dualize(l) for l in lines_b]
    set_b = set(lines_b)

    if len(dual_a) <= 2:
        return _small_frame_search(dual_a, dual_b, lines_a, set_b, field)
    if _all_collinear(dual_a):
        if not _all_collinear(dual_b):
            return None
        return _pencil_witness(dual_a, None, dual_b, None, lines_a, set_b, field)
    split_a = _near_pencil_split(dual_a)
    if split_a is not None:
        split_b = _near_pencil_split(dual_b)
        if split_b is None:
            return None
        on_a, off_a = split_a
        on_b, off_b = split_b
        return _pencil_witness(on_a, off_a, on_b, off_b, lines_a, set_b, field)
    return _small_frame_search(dual_a, dual_b, lines_a, set_b, field)


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


def _pencil_witness(on_a, off_a, on_b, off_b, lines_a, set_b, field):
    if len(on_a) != len(on_b):
        return None
    base_a = _pencil_basis(on_a, off_a, field)
    if base_a is None:
        return None
    n_a = base_a.inverse()
    for idx in permutations(range(len(on_b)), min(3, len(on_b))):
        cand = [on_b[i] for i in idx]
        base_b = _pencil_basis(cand, off_b, field)
        if base_b is None:
            continue
        h = base_b * n_a  # dual-plane point map
        g = Projectivity(h.adjugate().transpose())
        if {apply_projectivity(g, l) for l in lines_a} == set_b:
            return g
    return None


def _small_frame_search(dual_a, dual_b, lines_a, set_b, field):
    """Frame-completion search; sound for <= 3 lines in any position."""
    pool = _pool_points(field)

    def completions(base, duals):
        for extra in combinations([p for p in pool if p not in duals], 4 - len(base)):
            frame = list(base) + list(extra)
            if all(not collinear(x, y, z) and len({x, y, z}) == 3
                   for x, y, z in combinations(frame, 3)):
                yield frame

    for src_frame in completions(dual_a[:3], dual_a):
        for idx in permutations(range(len(dual_b)), min(3, len(dual_b))):
            cand = [dual_b[i] for i in idx]
            for dst_frame in completions(cand, dual_b):
                try:
                    g_pts = projectivity_from_point_frames(src_frame, dst_frame)
                except GeometryError:
                    continue
                g = Projectivity(g_pts.matrix.adjugate().transpose())
                if {apply_projectivity(g, l) for l in lines_a} == set_b:
                    return g
    return None


# ---------------------------------------------------------------------------
# conics

class Conic:
    """a x^2 + b y^2 + c z^2 + d xy + e xz + f yz = 0, normalized 6-tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        if len(coeffs) != 6:
            raise GeometryError("a conic needs 6 coefficients")
        object.__setattr__(self, "coeffs", _normalize(coeffs, "conic"))

    def __setattr__(self, *a):
        raise AttributeError("Conic is immutable")

    @property
    def field(self) -> Field:
        return self.coeffs[0].field

    def contains(self, p: ProjPoint) -> bool:
        a, b, c, d, e, f = self.coeffs
        x, y, z = p.coords
        val = a * x * x + b * y * y + c * z * z + d * x * y + e * x * z + f * y * z
        return val.is_zero()

    def is_irreducible(self) -> bool:
        """Smooth conic test via the doubled symmetric form determinant."""
        field = self.field
        if field.characteristic == 2:
            raise GeometryError("conic degeneracy test unavailable in characteristic 2")
        a, b, c, d, e, f = self.coeffs
        m = Matrix3([[a + a, d, e], [d, b + b, f], [e, f, c + c]])
        return not m.det().is_zero()

    def key(self):
        return tuple(c.rep for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Conic) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("cn",) + self.coeffs)

    def __repr__(self):
        return "Conic(" + ", ".join(str(c) for c in self.coeffs) + ")"


def _conic_row(p: ProjPoint):
    x, y, z = p.coords
    return [x * x, y * y, z * z, x * y, x * z, y * z]


def nullspace(rows, field: Field):
    """Basis of the nullspace of a small matrix of Scalars."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(tuple(vec))
    return basis


def conic_through(pts: Sequence[ProjPoint]) -> Conic:
    """The unique conic through 5 points (error when not unique)."""
    if len(pts) != 5:
        raise GeometryError("conic_through expects exactly 5 points")
    field = pts[0].field
    basis = nullspace([_conic_row(p) for p in pts], field)
    if len(basis) != 1:
        raise GeometryError("conic through the 5 points is not unique")
    return Conic(basis[0])


def common_conic(pts: Sequence[ProjPoint]) -> Optional[Conic]:
    """Some conic through all the points, or None when only the zero conic fits."""
    if not pts:
        raise GeometryError("no points")
    field = pts[0].field
    basis = nullspace([_conic_row(p) for p in pts], field)
    if not basis:
        return None
    return Conic(basis[0])


class RichConic:
    __slots__ = ("conic", "count", "irreducible")

    def __init__(self, conic: Conic, count: int, irreducible: bool):
        object.__setattr__(self, "conic", conic)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "irreducible", irreducible)

    def __setattr__(self, *a):
        raise AttributeError("RichConic is immutable")

    def __repr__(self):
        tag = "irreducible" if self.irreducible else "degenerate"
        return f"RichConic({self.conic!r}, {self.count} points, {tag})"


def rich_conics(pts: Sequence[ProjPoint], min_count: int) -> list:
    """Conics through >= min_count of the points, from 5-subset enumeration.

    Input size is capped at 30 points (C(30,5) subsets is the practical
    limit for exact enumeration); 5-subsets that do not determine a unique
    conic are skipped.
    """
    pts = sorted(set(pts), key=_sort_key)
    if len(pts) > 30:
        raise GeometryError("rich_conics accepts at most 30 points")
    if len(pts) < 5 or min_count < 5:
        if min_count < 5:
            raise GeometryError("min_count must be at least 5")
    field = pts[0].field if pts else None
    seen = {}
    for sub in combinations(pts, 5):
        basis = nullspace([_conic_row(p) for p in sub], field)
        if len(basis) != 1:
            continue
        conic = Conic(basis[0])
        if conic.key() not in seen:
            seen[conic.key()] = conic
    out = []
    for conic in seen.values():
        cnt = sum(1 for p in pts if conic.contains(p))
        if cnt >= min_count:
            out.append(RichConic(conic, cnt, conic.is_irreducible()))
    out.sort(key=lambda rc: tuple(_rep_key(r) for r in rc.conic.key()))
    return out
