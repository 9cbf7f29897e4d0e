"""Line arrangements, point configurations and the incidence operators.

Each field kind has an exact integer codec (``_encode``), and equal codes
mean equal objects: primitive integer triples over Q; PG(2,q) ordinals over
GF(q), q <= ``_PLANE_ORDER``; residues with the first nonzero one over a
larger GF(p); primitive integer vectors in Z[theta], scaled by the adjugate
of the first nonzero coordinate, over a number field.  Off the finite
planes the codes live in one ring (``_ring``), Z[theta]/(g), Z or Z/p, and
the pair loop is straight-line integer code built once per ring
(``_ring_kernel``).  No pair touches a Fraction, a Scalar or a residue
tuple.  ``_from_key``, the one decoder, turns a code back into an object.

The engine under every operator is the pair table (``_pair_counts``): each
position where k >= 2 of the objects meet (dually: join), as a code, with
the number of times a pass counted it, read as k once per distinct count.
Off the finite planes the pair kernel ``_code_meets`` meets all pairs, a
point on k lines C(k,2) times.  Over a finite plane a pass counts each
object once at each of the q+1 dual objects incident to it, so a count is
k, on int masks of PG(2,q) ordinals: ``_plane_masks`` has a bit for each
incident dual of an ordinal, and ``_value_classes`` adds a set's masks into
a bit-sliced counter and splits the plane into one mask per count, its
value classes.  ``profile`` reads t_k as the popcount of class k, a
selection ORs the classes it holds and reads their set bits once as the
next codes (``_bits``), and ``_groups`` cuts each object's mask down to
the classes it asks for.  Off the finite planes ``profile`` groups one
row (line i with the later lines) at a time (``_row_keys``, over Q by
exact quotients, floats for small coordinates): a point on k lines makes
one row group of each size k-1, ..., 1, so t_k = c_(k-1) - c_k, c_s the
number of row groups of size s; the rows split into strided shares among
forked workers (``_row_sizes``), whose counts add exactly, so the profile
does not depend on their number.  Which objects pass through each position
is read off one grouping of the same rows (``_groups``).

A set is its distinct codes (``_ObjectSet``).  Every operator and operator
chain is a run of selections on codes (``_operate``): a key of the table is
the code of the object it names, so each selection's keys are the next
one's codes, and the last the result's.  The codes are sorted into the
canonical order of their objects (``_code_order``) when that order is first
read, and the members are a cache decoded from them in that order: a set
built from objects encodes them once, and decoding builds only points or
lines.  Equality, hashing and membership compare the frozenset of the
codes, so a result only counted or compared builds no object, and
``property_suite`` works on code sets, keeping no memo past the call.  A
projectivity acts on codes too (``_act``): at construction its matrix and
cofactor matrix are put in the field's ring (``_matrix_codes``), and the
action maps a code list to the normalized image codes: over a finite plane
by table look-ups (``_plane_act``), elsewhere by straight-line code for the
ring that ends as the pair loop does (``_ring_action``, ``_key_src``).
Every exact solve runs on the ring too, on the generated cofactors
(``_cofactors``) and one generated entrywise product (``_ring_comb``):
frame matrices and a division-free elimination (``_null_basis``) whose
kernel vectors, in one normal form (``_normal``), ``_from_key`` decodes.
"""
from __future__ import annotations

import json
import os
import re
import sys
import threading
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, compress, filterfalse, islice, zip_longest
from math import comb, gcd, isqrt, lcm
from operator import or_
from typing import Iterable, Optional, Sequence

from .fields import (Field, FieldError, NUMBER_FIELD, PRIME_FIELD,
                     PRIME_POWER_FIELD, RATIONALS, _adjugate, _compiled, _Frozen,
                     _gf_tables, _mul_src, _nf_codec, _primitive_int, field_make,
                     format_scalar, parse_field_spec, parse_scalar)
from .projective import (GeometryError, ProjLine, ProjPoint, dualize,
                         projectively_equivalent)


class ArrangementError(Exception):
    """Domain errors of the arrangement layer."""


# ---------------------------------------------------------------------------
# multiplicity selectors

@dataclass(frozen=True)
class MultiplicitySelector:
    """The subscript of the operators: a finite set of integers >= 2,
    an 'at least n' threshold, or both."""

    exact: frozenset = frozenset()
    at_least: Optional[int] = None

    def __post_init__(self):
        if not self.exact and self.at_least is None:
            raise ArrangementError("empty multiplicity selector")
        if any(k < 2 for k in self.exact) or (self.at_least is not None
                                              and self.at_least < 2):
            raise ArrangementError("selector members must be >= 2")

    def contains(self, k: int) -> bool:
        return k in self.exact or (self.at_least is not None and k >= self.at_least)

    @property
    def min_member(self) -> int:
        vals = list(self.exact)
        if self.at_least is not None:
            vals.append(self.at_least)
        return min(vals)

    @property
    def is_finite(self) -> bool:
        return self.at_least is None

    def members(self) -> tuple:
        if not self.is_finite:
            raise ArrangementError("selector is not a finite set")
        return tuple(sorted(self.exact))

    @property
    def text(self) -> str:
        parts = [str(k) for k in sorted(self.exact)]
        if self.at_least is not None:
            parts.append(f">={self.at_least}")
        return ",".join(parts)

    def __repr__(self):
        return f"sel({self.text})"


def sel_exact(*ks: int) -> MultiplicitySelector:
    return MultiplicitySelector(exact=frozenset(ks))


def sel_at_least(n: int) -> MultiplicitySelector:
    return MultiplicitySelector(at_least=n)


def parse_selector(text: str) -> MultiplicitySelector:
    exact = set()
    at_least = None
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ArrangementError(f"bad selector {text!r}")
        if part.startswith(">="):
            v = int(part[2:])
            at_least = v if at_least is None else min(at_least, v)
        else:
            exact.add(int(part))
    return MultiplicitySelector(exact=frozenset(exact), at_least=at_least)


# ---------------------------------------------------------------------------
# arrangements and point configurations

class _ObjectSet(_Frozen):
    """Deduplicated finite set of points or of lines: its distinct codes,
    with the members as a cache decoded from them in canonical order (see
    the module docstring).  A subclass names its member class and, in
    ``_name``, the attribute and JSON key under which the members are read.
    """

    __slots__ = ("field", "_codes", "_ordered", "_objs", "_key")

    def __init__(self, field: Field, members: Iterable = ()):
        members = tuple(members)
        cls, spec = self._member, field.spec
        for o in members:  # every one: members merge by code
            if o.__class__ is not cls:
                raise ArrangementError(f"{type(self).__name__} members must be "
                                       f"{cls.__name__}, not {type(o).__name__}")
            if o.field.spec != spec:
                raise FieldError(f"{cls.__name__} from a different field")
        by_code = dict(zip(_encode(members, field), members))
        codes = _code_order(list(by_code), field)
        _filled(self, field, codes, True, tuple(map(by_code.__getitem__, codes)))

    @property
    def _members(self) -> tuple:
        """The members, decoded once from the codes in canonical order."""
        if self._objs is None:
            cls, field = self._member, self.field
            object.__setattr__(self, "_objs", tuple(
                [_from_key(cls, k, field) for k in self._code_list()]))
        return self._objs

    def _code_list(self) -> list:
        """The codes in canonical order, sorted when first read so."""
        if not self._ordered:
            object.__setattr__(self, "_codes", _code_order(self._codes, self.field))
            object.__setattr__(self, "_ordered", True)
        return self._codes

    def _code_set(self) -> frozenset:
        """The codes as a frozenset, made once: the set's identity."""
        if self._key is None:
            object.__setattr__(self, "_key", frozenset(self._codes))
        return self._key

    def __len__(self):
        return len(self._codes)

    def __iter__(self):
        return iter(self._members)

    def __contains__(self, o):
        return (o.__class__ is self._member and o.field.spec == self.field.spec
                and _encode((o,), self.field)[0] in self._code_set())

    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and self.field.spec == other.field.spec
                and self._code_set() == other._code_set())

    def __hash__(self):
        return hash((self.field.spec, self._code_set()))

    def is_empty(self) -> bool:
        return not self._codes

    def __repr__(self):
        return (f"{type(self).__name__}({len(self)} {self._name} "
                f"over {self.field.spec.text})")


def _filled(res: _ObjectSet, field: Field, codes: list, ordered: bool,
            objs: Optional[tuple] = None) -> _ObjectSet:
    """``res`` with its slots set: distinct ``codes``, in canonical order if
    ``ordered``, and their members ``objs`` in that order, or None."""
    for name, value in (("field", field), ("_codes", codes), ("_ordered", ordered),
                        ("_objs", objs), ("_key", None)):
        object.__setattr__(res, name, value)
    return res


# As with ProjPoint and ProjLine, __init__ (and Arrangement.digest) live in
# each class's own namespace so that bench/tracer.py can wrap them per class.

class Arrangement(_ObjectSet):
    """Deduplicated finite set of lines with a canonical total order."""

    __slots__ = ()
    __init__ = _ObjectSet.__init__
    _member = ProjLine
    _name = "lines"
    lines = _ObjectSet._members

    def digest(self):
        """Full canonical serialization; equal digests mean equal sets."""
        return tuple(l.key() for l in self.lines)

    def union(self, other: "Arrangement") -> "Arrangement":
        if not isinstance(other, Arrangement):
            raise ArrangementError(f"an Arrangement unites with an Arrangement, "
                                   f"not {type(other).__name__}")
        if self.field.spec != other.field.spec:
            raise FieldError("arrangements live in different fields")
        codes = list(dict.fromkeys(chain(self._codes, other._codes)))
        return _filled(object.__new__(Arrangement), self.field, codes, False)


class PointConfig(_ObjectSet):
    """Deduplicated finite set of points."""

    __slots__ = ()
    __init__ = _ObjectSet.__init__
    _member = ProjPoint
    _name = "points"
    points = _ObjectSet._members


_DUAL_SET = {Arrangement: PointConfig, PointConfig: Arrangement}


def make_arrangement(normals: Sequence, field: Field):
    """Build an Arrangement from coordinate triples.

    Returns (arrangement, duplicates_dropped).  Triples may hold ints,
    Fractions or Scalars of the field.
    """
    lines = []
    for triple in normals:
        if len(triple) != 3:
            raise ArrangementError("line normals must be coordinate triples")
        lines.append(ProjLine(tuple(field.scalar(c) for c in triple)))
    arr = Arrangement(field, lines)
    return arr, len(lines) - len(arr)


def dualize_arrangement(arr: Arrangement) -> PointConfig:
    """Each line relabelled as the point with the same triple, or back.

    Applying it twice returns the input.  A point and a line with the same
    triple have the same code, so the result shares the input's codes.
    """
    objs = arr._objs
    return _filled(object.__new__(_DUAL_SET[arr.__class__]), arr.field, arr._codes,
                   arr._ordered, objs and tuple(map(dualize, objs)))


# ---------------------------------------------------------------------------
# the pair-grouping engine

def _code_meets(codes: list, field: Field, rows: Optional[range] = None):
    """The pair kernel on a list of ``_encode`` codes: the key of the meet
    (join) of each pair (i, j), i < j, of each row i in ``rows`` (default:
    every row), in ``combinations`` order.  Every pair pass over Q, a number
    field or GF(p), p > ``_PLANE_ORDER``, runs through here; over a smaller
    finite field ``_value_classes`` counts incidences instead."""
    if rows is None:
        rows = range(len(codes) - 1)
    return _kernel(field)(codes, rows)


def _kernel(field: Field):
    """``kernel(codes, rows)``, the pair loop emitted for the field's ring
    (``_ring``, ``_ring_kernel``); the tests put reference kernels here."""
    return _ring_kernel(*_ring(field))


def _encode(objs, field: Field) -> list:
    """The objects in the integer codec of the field's kind, one ordinal or
    tuple each (see the module docstring); equal codes mean equal objects."""
    kind = field.kind
    if kind == PRIME_FIELD:
        keys, q = [o.key() for o in objs], _plane_order(field)
        return _ordinals(keys, q) if q else keys
    if kind == PRIME_POWER_FIELD:  # every GF(p^k) is a finite plane
        code = _gf_tables(field.spec).code
        return _ordinals(([code[r] for r in o.key()] for o in objs),
                         _plane_order(field))
    return [_ring_flat(o.key(), field) for o in objs]


def _ring_flat(reps, field: Field) -> tuple:
    """Field reps, the entries of a vector or a matrix, scaled together into
    the field's ring (``_ring``), n integers an entry: over Q their
    primitive integer multiple, over a number field that of their Z[theta]
    vectors (a0, ..., a(n-1), d) times lcm(d) / d, over GF(p^k) each
    element's residues."""
    kind = field.kind
    if kind == RATIONALS:
        return _primitive_int(reps)
    if kind == NUMBER_FIELD:
        m = lcm(*[r[-1] for r in reps])
        flat = [a * (m // r[-1]) for r in reps for a in r[:-1]]
        h = gcd(*flat) or 1
        return tuple([a // h for a in flat])
    return tuple(a for r in reps for a in r) if kind == PRIME_POWER_FIELD else tuple(reps)


def _vec(v: str, n: int, sep: str = ", ") -> str:
    """Source of the names v0, v1, ..., v(n-1) of a vector's coefficients."""
    return sep.join(f"{v}{i}" for i in range(n))


def _ring(field: Field) -> tuple:
    """(g, p) of the ring Z[theta]/(g), mod p if p != 0, of the field's
    codes and of its exact linear algebra: g of ``_nf_codec`` over a number
    field, the modulus over GF(p^k), g = theta (Z) over Q and over GF(p)."""
    if field.kind == NUMBER_FIELD:
        return _nf_codec(field.spec)[1], 0
    if field.kind == PRIME_POWER_FIELD:
        return field.spec.min_poly, field.characteristic
    return (0, 1), field.characteristic


def _mod_src(src: list, p: int) -> list:
    """Source lines ``v = e`` of ``fields._mul_src``, as ``v = (e) % p``
    when p != 0."""
    return [s.replace(" = ", " = (", 1) + f") % {p}" for s in src] if p else src


def _key_src(g: tuple, p: int) -> list:
    """Source lines that yield the ``_encode`` code of the point (line) with
    coordinates x, y, z in the ring (g, p) of ``_ring``, not all zero.  Over
    Z the primitive triple with positive first nonzero entry; over Z/p the
    residues over the first nonzero one; for degree n >= 2 the 3n integers
    of the primitive multiple of (1, y/e, z/e) on the basis theta^i whose
    leading integer is positive, e the first nonzero coordinate.  It is
    multiplied by w with e*w = d an integer, from ``fields._adjugate(g)``."""
    n, src = len(g) - 1, []
    if p:
        e = f"{p - 2}, {p}"
        return ["if x0:", f" w = pow(x0, {e})", f" yield (1, y0 * w % {p}, z0 * w % {p})",
                "elif y0:", f" yield (0, 1, z0 * pow(y0, {e}) % {p})",
                "else:", " yield (0, 0, 1)"]
    if n == 1:
        return ["h = gcd(x0, y0, z0)", "if (x0 or y0 or z0) < 0:", " h = -h",
                "yield (x0 // h, y0 // h, z0 // h)"]
    for test, e, later in ((f"if {_vec('x', n, ' or ')}", "x", "yz"),
                           (f"elif {_vec('y', n, ' or ')}", "y", "z"), ("else", "z", "")):
        key = (["0"] * (n * (2 - len(later))) + ["d"] + ["0"] * (n - 1)
               + [f"{r}w{i}" for r in later for i in range(n)])
        src += [f"{test}:", f" d, {_vec('w', n)} = adj({_vec(e, n)})"]
        src += [" " + s for r in later for s in _mul_src(g, f"{r}w", (1, r, "w"))]
        src += [f" h = gcd({', '.join(k for k in key if k != '0')})",
                " if d < 0:", "  h = -h",
                f" yield ({', '.join(k if k == '0' else f'{k} // h' for k in key)})"]
    return src


@lru_cache(maxsize=None)
def _ring_kernel(g: tuple, p: int):
    """The pair loop over the ring (g, p) of ``_ring``, as straight-line
    integer code built and compiled once per ring.

    A pair's key is that of ``_key_src`` for its cross product.  Every
    product is written out by ``fields._mul_src``, reduced mod p over Z/p,
    and the source holds only names and integers computed from g and p.
    """
    n = len(g) - 1
    a, b = ([f"{v}{k}_" for k in range(3)] for v in "ab")
    src = ["def kernel(tris, rows):", "for i in rows:",
           f" {', '.join(_vec(v, n) for v in a)} = tris[i]",
           f" for {', '.join(_vec(v, n) for v in b)} in tris[i + 1:]:"]
    src += ["  " + s for s in _mod_src(
        _mul_src(g, "x", (1, a[1], b[2]), (-1, a[2], b[1]))
        + _mul_src(g, "y", (1, a[2], b[0]), (-1, a[0], b[2]))
        + _mul_src(g, "z", (1, a[0], b[1]), (-1, a[1], b[0])), p) + _key_src(g, p)]
    return _compiled(src, "kernel", gcd=gcd, adj=_adjugate(g) if len(g) > 2 else None)


# ---------------------------------------------------------------------------
# projectivities on codes

def _matrix_codes(matrix) -> tuple:
    """(P, C) for the invertible 3x3 matrix M of Scalars of a projectivity,
    over the ring of its field (``_ring``): P = M maps point codes and
    C = adj(M)^T, M's inverse-transpose up to the determinant, maps line
    codes (``_act``).  Each is the nine entries row by row, scaled together
    (``_ring_flat``), which leaves the action as it is; C and the
    determinant come from ``_cofactors``.  A singular M raises
    GeometryError.
    """
    field = matrix.field
    flat = _ring_flat([e.rep for row in matrix.rows for e in row], field)
    det, cof = _cofactors(*_ring(field))(flat)
    if not any(det):
        raise GeometryError("projectivity matrix must be invertible")
    return flat, cof


@lru_cache(maxsize=None)
def _cofactors(g: tuple, p: int):
    """``cof(m)`` -> (det, C) for a 3x3 matrix M over the ring (g, p) of
    ``_ring``, its nine entries m row by row, each n integers: C = adj(M)^T,
    whose entry (i, j) is M[i+1][j+1] M[i+2][j+2] - M[i+1][j+2] M[i+2][j+1]
    (indices mod 3), and det = M00 C00 + M01 C01 + M02 C02, as flat integer
    tuples.  Straight-line code from ``fields._mul_src``, built once per
    ring."""
    n = len(g) - 1
    m = [f"m{k}_" for k in range(9)]

    def at(i, j):
        return m[i % 3 * 3 + j % 3]
    src = ["def cof(m):", f"{', '.join(_vec(v, n) for v in m)}, = m"]
    for i in range(3):
        for j in range(3):
            src += _mod_src(_mul_src(g, f"c{3 * i + j}_", (1, at(i + 1, j + 1), at(i + 2, j + 2)),
                                     (-1, at(i + 1, j + 2), at(i + 2, j + 1))), p)
    src += _mod_src(_mul_src(g, "d", *((1, m[j], f"c{j}_") for j in range(3))), p)
    src += [f"return ({_vec('d', n)},), ({', '.join(_vec(f'c{k}_', n) for k in range(9))},)"]
    return _compiled(src, "cof")


def _act(m, codes: list, field: Field):
    """The codes of the images, in order, of the objects with ``codes``
    under a matrix m over the field's ring, such as those of
    ``_matrix_codes`` (P on points, C on lines), as an iterator; each image
    is normalized as ``_encode`` codes its object."""
    if _plane_order(field):
        return _plane_act(m, codes, field)
    return _ring_action(*_ring(field))(m, codes)


def _plane_act(m, codes, field):
    """Over GF(q), q <= ``_PLANE_ORDER``: the PG(2,q) ordinal, each
    coordinate a sum of products of element codes in ``fields._gf_tables``
    (a + b = a - (-b)); over GF(p^k) each entry of m is first coded."""
    q, n = _plane_order(field), field.degree
    _, code, mul, sub, inv = _gf_tables(field.spec)
    if n > 1:
        m = [code[tuple(m[i:i + n])] for i in range(0, 9 * n, n)]
    neg, q2 = sub[:q], q * q  # sub[0 * q + b] = -b
    rows = [[e * q for e in m[i:i + 3]] for i in (0, 3, 6)]  # rows of mul
    for o in codes:
        a0, a1, a2 = _plane_key(o, q)
        x, y, z = (sub[sub[mul[r0 + a0] * q + neg[mul[r1 + a1]]] * q
                       + neg[mul[r2 + a2]]] for r0, r1, r2 in rows)
        if x:
            w = inv[x] * q
            yield mul[w + y] * q + mul[w + z]
        elif y:
            yield q2 + mul[inv[y] * q + z]
        else:
            yield q2 + q


@lru_cache(maxsize=None)
def _ring_action(g: tuple, p: int):
    """``act(m, codes)`` over the ring (g, p) of ``_ring``: for each code,
    three vectors a0, a1, a2 of the ring, the image (x, y, z) = M a by
    ``fields._mul_src``, keyed by ``_key_src`` as the pair kernel keys a
    meet.  Straight-line integer code built once per ring."""
    n = len(g) - 1
    m, a = [f"m{k}_" for k in range(9)], [f"a{k}_" for k in range(3)]
    src = ["def act(m, codes):", f"{', '.join(_vec(v, n) for v in m)}, = m",
           f"for {', '.join(_vec(v, n) for v in a)} in codes:"]
    image = [s for i, r in enumerate("xyz")
             for s in _mul_src(g, r, *((1, m[3 * i + j], a[j]) for j in range(3)))]
    src += [" " + s for s in _mod_src(image, p) + _key_src(g, p)]
    return _compiled(src, "act", gcd=gcd, adj=_adjugate(g) if len(g) > 2 else None)


# ---------------------------------------------------------------------------
# exact linear algebra on codes

def _ring_vecs(codes, field: Field) -> list:
    """``_encode`` codes as ring vectors (``_ring``): a PG(2,q) ordinal as
    its triple, over GF(p^k) each element code as its residues."""
    q = _plane_order(field)
    if not q:
        return list(codes)
    if field.kind == PRIME_FIELD:
        return [_plane_key(o, q) for o in codes]
    elems = _gf_tables(field.spec).elems
    return [tuple([a for v in _plane_key(o, q) for a in elems[v]]) for o in codes]


@lru_cache(maxsize=None)
def _ring_comb(g: tuple, p: int):
    """``comb(a, u, b, v)`` -> [a_i u_i - b_i v_i] for vectors of one length
    over the ring (g, p) of ``_ring``, flat lists of n integers an entry,
    reduced mod p over Z/p.  One loop of straight-line products from
    ``fields._mul_src``, built once per ring."""
    n = len(g) - 1
    loop = ", ".join(_vec(x, n) for x in "aubv"), ", ".join(", ".join(x * n) for x in "aubv")
    src = ["def comb(a, u, b, v):", "a, u, b, v, out = iter(a), iter(u), iter(b), iter(v), []",
           "for {} in zip({}):".format(*loop)]
    src += [" " + s for s in _mod_src(_mul_src(g, "x", (1, "a", "u"), (-1, "b", "v")), p)]
    return _compiled(src + [f" out += {_vec('x', n)},", "return out"], "comb")


def _ring_dots(u, v, m: int, field: Field) -> list:
    """The dot products of the blocks of m entries, in order, of two ring
    vectors (``_ring``) of one length: one ring element (n integers) each."""
    g, p = _ring(field)
    n, h = len(g) - 1, _ring_comb(g, p)(u, v, [0] * len(u), u)
    dots = [[sum(h[b + t:b + m * n:n]) for t in range(n)] for b in range(0, len(h), m * n)]
    return [[x % p for x in e] for e in dots] if p else dots


def _transpose(m, n: int) -> list:
    """A 3x3 matrix of ring entries (``_ring``), n integers each row by
    row, transposed."""
    return [x for j in range(3) for i in range(3) for x in m[(3 * i + j) * n:(3 * i + j + 1) * n]]


def _ring_frame(d, field: Field):
    """The matrix M = [l1 d1, l2 d2, l3 d3], row by row over the field's
    ring (``_ring``), that sends e1, e2, e3 and (1, 1, 1) to four points
    (dually: lines) d up to a scalar, or None when three of them are
    collinear.  The cofactor matrix of D, the matrix with rows d1, d2, d3,
    has rows k_j = d(j+1) x d(j+2), and l_j = d4 . k_j is det(D) with d_j
    replaced by d4 (Cramer)."""
    g, p = _ring(field)
    n, rows = len(g) - 1, [*d[0], *d[1], *d[2]]
    det, k = _cofactors(g, p)(rows)
    lam = _ring_dots([*d[3]] * 3, k, 3, field)
    if not any(det) or not all(map(any, lam)):
        return None
    return _ring_comb(g, p)((lam[0] + lam[1] + lam[2]) * 3, _transpose(rows, n),
                            [0] * 9 * n, rows)


def _null_basis(rows: list, field: Field) -> list:
    """A basis of the kernel of a nonempty matrix over the field's ring
    (``_ring``), rows of n integers an entry reduced mod p: one ``_normal``
    vector for each free column f, in order, a multiple of the reduced
    echelon one.  Gauss-Jordan without division: a pivot row is scaled by
    ``_normal``, so its pivot is an integer a > 0 (1 over Z/p), and each
    other row becomes a row - b pivot_row (``_ring_comb``), over Z with its
    integer content divided out.  Then x_f = L, the lcm of the pivots, and
    x = -(L / a) b_f in the pivot column of each pivot row.  A pivot that
    is a zero divisor, which only a reducible modulus allows, raises
    FieldError, as ``_normal`` does."""
    g, p = _ring(field)
    n, comb = len(g) - 1, _ring_comb(g, p)
    ncols, rows, pivots = len(rows[0]) // n, list(rows), []
    for c in range(0, ncols * n, n):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if any(rows[i][c:c + n])), None)
        if i is None:
            continue
        top = _normal(rows[i], field)
        rows[i], rows[r] = rows[r], top
        for i, row in enumerate(rows):
            if i != r and any(row[c:c + n]):
                row = comb(top[c:c + n] * ncols, row, row[c:c + n] * ncols, top)
                h = 1 if p else gcd(*row)
                rows[i] = [v // h for v in row] if h > 1 else row
        pivots.append(c)
    mult, basis = lcm(*(row[c] for c, row in zip(pivots, rows))), []
    for f in range(0, ncols * n, n):
        if f not in pivots:
            vec = [0] * (ncols * n)
            vec[f] = mult
            for c, row in zip(pivots, rows):
                vec[c:c + n] = [-mult // row[c] * v for v in row[f:f + n]]
            basis.append(_normal(vec, field))
    return basis


def _normal(vec, field: Field) -> tuple:
    """The one multiple of a nonzero ring vector (``_ring``) that
    ``_from_key`` decodes, the pair kernel's key (``_key_src``) for any
    length: over Z and Z[theta]/(g) its first nonzero entry a positive
    integer and its integers coprime, over Z/p that entry 1.  Over
    Z[theta]/(g) the vector is first multiplied by w, e w an integer for e
    that entry (``fields._adjugate``, FieldError when e has norm 0)."""
    g, p = _ring(field)
    n = len(g) - 1
    i = next(i for i in range(0, len(vec), n) if any(vec[i:i + n]))
    if n > 1:
        w = list(_adjugate(g)(*vec[i:i + n])[1:]) * (len(vec) // n)
        vec = _ring_comb(g, p)(w, vec, [0] * len(vec), vec)
    if p:
        inv = pow(vec[i], p - 2, p)
        return tuple([v * inv % p for v in vec])
    h = gcd(*vec) if vec[i] > 0 else -gcd(*vec)
    return tuple([v // h for v in vec])


# ---------------------------------------------------------------------------
# finite planes

# The largest prime-power order ``fields`` accepts, so every GF(p^k) and
# GF(p) for p <= 61 count incidences on ``_plane_masks``; at q = 64 the
# masks of all 4,161 ordinals take about 2.5 MB.
_PLANE_ORDER = 64


def _plane_order(field: Field) -> int:
    """q when ``field`` is GF(q) with q <= ``_PLANE_ORDER``, else 0."""
    q = field.characteristic ** field.degree  # 0 in characteristic 0
    return q if q <= _PLANE_ORDER else 0


def _ordinals(triples: Iterable, q: int) -> list:
    """The ordinal of each triple of element codes of PG(2,q), first nonzero
    1: (1, y, z) -> yq + z, (0, 1, z) -> q^2 + z, (0, 0, 1) -> q^2 + q."""
    q2 = q * q
    return [y * q + z if x else q2 + z if y else q2 + q for x, y, z in triples]


def _plane_key(o: int, q: int) -> tuple:
    """The triple of element codes of ordinal o of PG(2,q)."""
    q2 = q * q
    if o < q2:
        return (1, *divmod(o, q))
    return (0, 1, o - q2) if o < q2 + q else (0, 0, 1)


class _PlaneMasks(dict):
    """ordinal o -> the int with a bit for each of the q+1 ordinals of
    PG(2,q) incident to o, made when first read; one per spec.  The line a
    holds (1, y, -(a0 + a1 y)/a2) for each y and (0, 1, -a1/a2) if a2 != 0,
    else (1, -a0/a1, z) for each z and (0, 0, 1) if a1 != 0, else (0, 1, z)
    for each z and (0, 0, 1); a.b = 0 is symmetric, so the point a lies on
    the lines of the same ordinals."""

    def __init__(self, spec):
        self.tables = _gf_tables(spec)[2:]

    def __missing__(self, o: int) -> int:
        mul, sub, inv = self.tables
        q = len(inv)
        q2, (a0, a1, a2) = q * q, _plane_key(o, q)
        if a2:  # c: the row of -1/a2 in mul; sub[a0q + sub[m]] = a0 + m
            c, a0q, ys = sub[inv[a2]] * q, a0 * q, range(0, q2, q)
            mask = 1 << q2 + mul[c + a1] | sum(
                1 << y + mul[c + sub[a0q + sub[m]]]
                for y, m in zip(ys, mul[a1 * q:a1 * q + q]))
        elif a1:
            mask = ((1 << q) - 1) << mul[sub[a0] * q + inv[a1]] * q | 1 << q2 + q
        else:
            mask = ((1 << q + 1) - 1) << q2
        self[o] = mask
        return mask


_plane_masks = lru_cache(maxsize=None)(_PlaneMasks)


def _value_classes(codes: list, field: Field) -> dict:
    """k -> the mask of the ordinals of the duals incident to exactly k >= 1
    of the objects with ordinals ``codes``: the pass over a finite plane.
    Their ``_plane_masks`` go, two at a time through a full adder on slice
    0 whose carry ripples up, into a bit-sliced counter, slice j holding
    bit j of every position's count; the slices, read from the top, then
    split the positions counted at all into one mask per count."""
    s = [0] * (len(codes) or 1).bit_length()  # no count exceeds len(codes)
    masks = map(_plane_masks(field.spec).__getitem__, codes)
    for a, b in zip_longest(masks, masks, fillvalue=0):
        v = s[0]
        u = v ^ a
        s[0], carry, j = u ^ b, v & a | u & b, 1
        while carry:
            v = s[j]
            s[j], carry, j = v ^ carry, carry & v, j + 1
    classes = {0: reduce(or_, s)}
    for v in reversed(s):
        split = {}
        for k, m in classes.items():
            hi = m & v
            if hi:
                split[2 * k + 1] = hi
            if hi != m:
                split[2 * k] = m ^ hi
        classes = split
    return classes


_ONES = re.compile("1").finditer


def _bits(mask: int) -> list:
    """The positions of the set bits of ``mask``, ascending, one match each:
    the scan of its binary digits between them runs at C speed."""
    return [m.start() for m in _ONES(bin(mask)[:1:-1])]


def _row_keys(tris: list, field: Field, rows: range):
    """The keys of each row i in ``rows``, in order: the meets (joins) of
    the objects with codes tris[i] and tris[i+1], ..., as keys that tell
    apart only points on object i.

    Over a number field or GF(p) a row is the next slice of
    ``_code_meets``, so the rows must be consumed in order.  Over Q, with a
    the primitive integer triple of line i and (x, y, z) = a x b, a point on
    a is fixed by a chart pair (u, v): (x, y) if a2 != 0, else (x, z) if
    a1 != 0, else (y, z).  Its key is None when v = 0 (one point per row),
    else the float u / v if s <= 52, the integer (u << s) // v if not, where
    2^s > V^2 for V = 2 bmax^2 >= |u|, |v|, bmax the largest |coordinate|.
    The float key is exact: with s <= 52 every product (below 2^25) and
    every u and v is exact in a float, and the quotient is rounded to within
    a relative error of 2^-53.  Distinct quotients u/v, u'/v' are 1/|v v'|
    apart or more; both round to one float only if that is at most 2^-53
    (|u/v| + |u'/v'|) <= 2^-52 |u/v|, say, so only if |u v'| >= 2^52, which
    needs V^2 >= 2^52, that is s >= 53.
    """
    if field.kind != RATIONALS:
        keys = _code_meets(tris, field, rows)
        for i in rows:
            yield islice(keys, len(tris) - 1 - i)
        return
    s = (4 * max(max(map(abs, t)) for t in tris) ** 4).bit_length()
    if s <= 52:  # float products and quotients run faster than int ones
        tris = [tuple(map(float, t)) for t in tris]
    for i in rows:
        a0, a1, a2 = tris[i]
        rest = tris[i + 1:]
        if s <= 52:
            if a2:
                yield [(a1 * b2 - a2 * b1) / v if (v := a2 * b0 - a0 * b2)
                       else None for b0, b1, b2 in rest]
            elif a1:
                yield [a1 * b2 / v if (v := a0 * b1 - a1 * b0) else None
                       for b0, b1, b2 in rest]
            else:
                yield [-b2 / b1 if b1 else None for b0, b1, b2 in rest]
        elif a2:
            yield [((a1 * b2 - a2 * b1) << s) // v if (v := a2 * b0 - a0 * b2)
                   else None for b0, b1, b2 in rest]
        elif a1:  # x = a1 b2 - a2 b1 and z = a0 b1 - a1 b0 with a2 = 0
            yield [((a1 * b2) << s) // v if (v := a0 * b1 - a1 * b0)
                   else None for b0, b1, b2 in rest]
        else:  # a = (1, 0, 0): y = -b2, z = b1
            yield [(-b2 << s) // b1 if b1 else None for b0, b1, b2 in rest]


def _share_sizes(tris: list, field: Field, rows: range) -> Counter:
    """s -> the number of groups of size s in the rows ``rows``."""
    c = Counter()
    for row in _row_keys(tris, field, rows):
        c.update(Counter(row).values())
    return c


# A share of fewer pairs is not worth a child.  On a 2-vCPU Xeon VM a fork,
# exit and reap took 1.1-1.9 ms and a Q row pass 0.22 us a pair, so the
# fork is under 7% of the 29 ms a share of 2^17 pairs takes.
_SHARE_PAIRS = 1 << 17


def _workers(pairs: int) -> int:
    """The number of shares ``profile`` splits ``pairs`` pairs into: one per
    usable CPU, each of at least ``_SHARE_PAIRS`` pairs; one where ``fork``
    is unsafe or missing (a process with threads, or not Linux)."""
    if sys.platform != "linux" or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), pairs // _SHARE_PAIRS))


def _row_sizes(tris: list, field: Field, workers: int) -> Counter:
    """``_share_sizes`` over every row, the rows split into ``workers``
    strided shares: share w is rows w, w + workers, ...  A forked child
    computes each share but the first, which the parent computes; the
    counts add exactly, so the result does not depend on ``workers``."""
    rows = range(len(tris) - 1)
    total, kids = Counter(), []  # kids: (share, pid, read end)
    try:
        for w in range(1, workers):
            kid = _spawn(tris, field, rows[w::workers])
            if kid is None:  # no process to be had: count the share here
                total.update(_share_sizes(tris, field, rows[w::workers]))
            else:
                kids.append(kid)
        total.update(_share_sizes(tris, field, rows[::workers]))
        while kids:
            share, pid, pipe = kids[-1]
            with pipe:
                data = pipe.read()
            status = _reap(pid)
            kids.pop()
            counts = _received(data, share, len(tris)) if status == 0 else None
            total.update(_share_sizes(tris, field, share) if counts is None
                         else counts)
    finally:
        for _, pid, pipe in kids:  # the parent raised: stop the rest first
            from signal import SIGKILL  # off the start-up path: about 1 ms
            pipe.close()
            os.kill(pid, SIGKILL)
            _reap(pid)
    return total


def _reap(pid: int) -> int:
    """The wait status of child ``pid``, or -1 when the system reaped it
    (a process that ignores SIGCHLD)."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return -1


def _spawn(tris: list, field: Field, share: range):
    """(share, pid, read end) of a forked child that writes the
    ``_share_sizes`` of ``share`` to a pipe and exits, or None if no child
    can be made.  The child leaves only through ``os._exit``."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            counts = _share_sizes(tris, field, share)
            with open(w, "wb") as pipe:
                pipe.write(array("q", [v for item in counts.items()
                                       for v in item]).tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return share, pid, open(r, "rb")


def _received(data: bytes, share: range, d: int) -> Optional[Counter]:
    """The sizes a child wrote for ``share`` of d rows, or None for a short
    result: the groups of a row split its pairs, so the sizes must add up
    to the share's pairs."""
    if len(data) % 16:
        return None
    flat = array("q", data)
    counts = Counter(dict(zip(flat[::2], flat[1::2])))
    pairs = sum(s * n for s, n in counts.items())
    return counts if pairs == sum(d - 1 - i for i in share) else None


def _pair_counts(codes: list, field: Field) -> tuple:
    """(counts, k) of the objects with ``codes``: counts maps the key of
    each position on k >= 2 of them, the meets (joins), to the number of
    times the pass counted it, and k maps each distinct count to its k, so
    a reader converts once per count and each key is hashed once.  Over a
    finite plane counts is ``_value_classes``, k -> the mask of the
    positions on k, k = 1 included, and k is None."""
    if _plane_order(field):
        return _value_classes(codes, field), None
    counts = Counter(_code_meets(codes, field))
    return counts, {c: _mult_from_pairs(c) for c in set(counts.values())}


def _groups(codes: list, field: Field, least: int) -> dict:
    """key -> the sorted indices of the objects with ``codes``, all
    distinct, through the keyed position, for each position on at least
    ``least`` >= 2 of them.

    Over a finite plane each object's mask (``_plane_masks``) is cut down
    to the mask of those positions, the ``_value_classes`` of k >= least.
    Elsewhere the rows of ``_code_meets`` are read in order: a point on k
    lines first shows in the row of its first line i, k-1 times, with the
    later ones, and in a later row fewer times, so a key counted least-1
    times in a row is taken there unless an earlier row took it.  The
    counts and the scans run at C speed."""
    n = len(codes)
    if _plane_order(field):
        inc = _plane_masks(field.spec)
        rich = reduce(or_, (m for k, m in _value_classes(codes, field).items()
                            if k >= least), 0)
        index = {o: [] for o in _bits(rich)}
        for i, o in enumerate(codes):
            for pos in _bits(inc[o] & rich):
                index[pos].append(i)
        return index
    index, keys, enough = {}, _code_meets(codes, field), (least - 1).__le__
    for i in range(n - 1):
        row = list(islice(keys, n - 1 - i))
        counts = Counter(row)
        new = {k: [i] for k in filterfalse(index.__contains__, compress(
            counts, map(enough, counts.values())))}
        for k, j in compress(zip(row, range(i + 1, n)), map(new.__contains__, row)):
            new[k].append(j)
        index.update(new)
    return index


def _mult_from_pairs(c: int) -> int:
    """k with C(k,2) = c: the multiplicity of a key the kernel gave c times."""
    k = (1 + isqrt(1 + 8 * c)) // 2
    if k * (k - 1) // 2 != c:
        raise AssertionError("pair count is not a binomial; engine bug")
    return k


def _table_profile(d: int, counts: dict, k: Optional[dict]):
    """The profile of d objects from their ``_pair_counts`` (counts, k):
    over a finite plane t_k is the number of positions in class k."""
    if k is None:
        return SingularityProfile.from_dict(d, {c: m.bit_count() for c, m
                                                in counts.items() if c > 1})
    return SingularityProfile.from_dict(d, {k[c]: n for c, n in
                                            Counter(counts.values()).items()})


def _from_key(cls, key, field):
    """``cls`` of the field scalars of an ``_encode`` code or a ``_normal``
    ring vector (``key``): a ProjPoint or ProjLine of a code or a triple, a
    Conic of six entries, a tuple of any number.  The one decoder of codes,
    so the only place a PG(2,q) ordinal becomes a triple.

    A coordinate v decodes as v / k, over a number field as the rep (v0,
    ..., v(n-1), k) over its gcd, k > 0 the key's first nonzero integer;
    so the reps have first nonzero entry 1, and the constructor does not
    scale them again.
    """
    kind = field.kind
    if key.__class__ is int:  # an ordinal of PG(2,q)
        key = _plane_key(key, _plane_order(field))
        if kind == PRIME_POWER_FIELD:
            elems = _gf_tables(field.spec).elems
            return cls(tuple([field.from_rep(elems[v]) for v in key]))
    n = field.degree
    if kind == RATIONALS:
        k = next(v for v in key if v)
        reps = [Fraction(v, k) for v in key]
    elif kind == PRIME_FIELD:
        reps = key
    elif kind == PRIME_POWER_FIELD:
        reps = [tuple(key[j:j + n]) for j in range(0, len(key), n)]
    else:
        k = next(filter(None, key))
        reps = [(*key[j:j + n], k) for j in range(0, len(key), n)]
        reps = [tuple([v // h for v in r]) for r in reps for h in (gcd(*r),)]
    return cls(tuple(field.from_rep(r) for r in reps))


def _code_order(codes: list, field: Field) -> list:
    """The codes sorted into the canonical order of their objects: by
    ``_plane_ranks`` over a finite plane, elsewhere by ``_vector_order``."""
    if _plane_order(field):
        return sorted(codes, key=_plane_ranks(field.spec).__getitem__)
    return _vector_order(codes, field)


def _vector_order(vecs: list, field: Field) -> list:
    """Codes off the finite planes or ``_normal`` vectors, sorted as their
    decoded coordinates by value, a number field's by its coefficients on
    1, x, ..., x^(n-1): over a finite field as residue tuples; over Q and a
    number field entry v in place i decodes to the coefficient v c^i / k of
    x^i (c = 1 over Q, k > 0 the first nonzero entry), so, c^i being fixed,
    by floor(2^s v / k), exact for 2^s > K^2, K the largest k."""
    if not vecs or field.characteristic:
        return sorted(vecs)
    s = (max(next(filter(None, t)) for t in vecs) ** 2).bit_length()

    def key(t):
        k = next(filter(None, t))
        return [(v << s) // k for v in t]
    return sorted(vecs, key=key)


@lru_cache(maxsize=None)
def _plane_ranks(spec) -> list:
    """The place of each PG(2,q) ordinal in the canonical order, built once
    per spec: (0, 0, 1), then each (0, 1, z), then each (1, y, z), by the
    places r of the element reps (``fields._gf_tables``), zero's first."""
    elems = _gf_tables(spec).elems
    q = len(elems)
    r = sorted(range(q), key=sorted(range(q), key=elems.__getitem__).__getitem__)
    return [1 + q + y * q + z for y in r for z in r] + [1 + z for z in r] + [0]


@dataclass(frozen=True)
class IncidenceIndex:
    """Singular points (dually: rich lines) with their incident index sets.

    ``direction`` is "points" when entries map singular points to indices
    of the arrangement's canonically ordered lines, "lines" for the join
    direction on a point configuration.
    """
    direction: str
    entries: tuple  # ((ProjPoint|ProjLine, frozenset(indices)), ...)


def _incidence(objs: _ObjectSet) -> IncidenceIndex:
    """``_groups`` of the set's codes in canonical order, the labels, with
    its keys decoded as dual objects in canonical order."""
    dual, field = _DUAL_SET[objs.__class__], objs.field
    index = _groups(objs._code_list(), field, 2)
    return IncidenceIndex(dual._name, tuple(
        (_from_key(dual._member, k, field), frozenset(index[k]))
        for k in _code_order(list(index), field)))


def incidence_index(arr: Arrangement) -> IncidenceIndex:
    """Group the pairwise meets of an arrangement by canonical point."""
    return _incidence(arr)


def richness_index(cfg: PointConfig) -> IncidenceIndex:
    """Group the pairwise joins of a point configuration by canonical line."""
    return _incidence(cfg)


# ---------------------------------------------------------------------------
# the operators

def points_operator(sel: MultiplicitySelector, arr: Arrangement) -> PointConfig:
    """P_sel: the points whose multiplicity lies in the selector."""
    return _operate((sel,), arr, PointConfig)[0]


def lines_operator(sel: MultiplicitySelector, cfg: PointConfig) -> Arrangement:
    """L_sel: the lines whose incident-point count lies in the selector.

    Since selector members are >= 2, every qualifying line joins some pair
    of points, so pair grouping is complete.
    """
    return _operate((sel,), cfg, Arrangement)[0]


def _selected(sel: MultiplicitySelector, counts: dict, k: Optional[dict]) -> list:
    """The keys of ``_pair_counts`` (counts, k) whose multiplicity, tested
    once per distinct count, lies in the selector: over a finite plane the
    set bits, read once, of the classes whose k it holds."""
    if k is None:
        return _bits(reduce(or_, (m for c, m in counts.items()
                                  if sel.contains(c)), 0))
    keep = {c: sel.contains(k[c]) for c in set(counts.values())}
    return list(compress(counts, map(keep.__getitem__, counts.values())))


def _operate(sels: Sequence[MultiplicitySelector], src: _ObjectSet, out,
             profiled: bool = False) -> tuple:
    """(the ``out`` set of the codes left by the selections ``sels`` in turn
    on those of ``src``, the profile of ``src`` when ``profiled``, read off
    the first pair table, else None).  Each selection keeps the ``_selected``
    keys of its codes' pair table, P_sel of lines or L_sel of points, and a
    key is the code of the object it names, so the keys are the next
    selection's codes.  A table is dropped once its keys are selected."""
    field, codes, prof = src.field, src._codes, None
    for n, sel in enumerate(sels):
        counts, k = _pair_counts(codes, field) if len(codes) > 1 else ({}, None)
        if profiled and not n:
            prof = _table_profile(len(codes), counts, k)
        codes = _selected(sel, counts, k)
        del counts
    return _filled(object.__new__(out), field, codes, False), prof  # distinct


def lambda_op(nsel: MultiplicitySelector, msel: MultiplicitySelector,
              arr: Arrangement) -> Arrangement:
    """The line operator: L_msel after P_nsel."""
    return _operate((nsel, msel), arr, Arrangement)[0]


def psi_op(nsel: MultiplicitySelector, msel: MultiplicitySelector,
           cfg: PointConfig) -> PointConfig:
    """The point operator: P_msel after L_nsel."""
    return _operate((nsel, msel), cfg, PointConfig)[0]


def dual_lines_op(sel: MultiplicitySelector, arr: Arrangement) -> Arrangement:
    """L_sel of the arrangement's dual point set, whose codes are its own."""
    return _operate((sel,), arr, Arrangement)[0]


# ---------------------------------------------------------------------------
# singularity profiles and numeric invariants

@dataclass(frozen=True)
class SingularityProfile:
    """Line count d and the nonzero t_k (number of k-fold points)."""

    d: int
    counts: tuple  # sorted ((k, t_k), ...), t_k > 0

    @classmethod
    def from_dict(cls, d: int, t: dict) -> "SingularityProfile":
        items = tuple(sorted((int(k), int(v)) for k, v in t.items() if v))
        prof = cls(d, items)
        prof.validate()
        return prof

    def validate(self):
        if any(k < 2 or v <= 0 for k, v in self.counts):
            raise ArrangementError("profile multiplicities must be >= 2")
        if self.d >= 2:
            pairs = sum(comb(k, 2) * v for k, v in self.counts)
            if pairs != comb(self.d, 2):
                raise ArrangementError(
                    f"inconsistent profile: {pairs} pair slots vs C({self.d},2)")

    def as_dict(self) -> dict:
        return dict(self.counts)

    def get(self, k: int) -> int:
        return dict(self.counts).get(k, 0)

    @property
    def total_points(self) -> int:
        return sum(v for _, v in self.counts)

    @property
    def max_multiplicity(self) -> int:
        return max((k for k, _ in self.counts), default=0)

    def text(self) -> str:
        body = ", ".join(f"t{k}={v}" for k, v in self.counts)
        return f"d={self.d}" + (f"; {body}" if body else "; no singular points")

    def __repr__(self):
        return f"SingularityProfile({self.text()})"


def profile(arr: Arrangement) -> SingularityProfile:
    """d and each t_k: over a finite plane, the popcount of the positions
    the incidence pass counts k >= 2 times; elsewhere from the meets grouped
    one row at a time, split among forked workers when there are many
    (module docstring)."""
    d, field = len(arr), arr.field
    if d < 2:
        return SingularityProfile(d, ())
    if _plane_order(field):
        return _table_profile(d, _value_classes(arr._codes, field), None)
    c = _row_sizes(arr._codes, field, _workers(comb(d, 2)))
    return SingularityProfile.from_dict(d, {k: c[k - 1] - c[k]
                                            for k in range(2, max(c) + 2)})


def h_constant(prof: SingularityProfile) -> Fraction:
    """(d^2 - sum m^2 t_m) / (sum t_m); needs at least one singular point."""
    total = prof.total_points
    if total == 0:
        raise ArrangementError("H-constant undefined without singular points")
    num = prof.d * prof.d - sum(k * k * v for k, v in prof.counts)
    return Fraction(num, total)


def freeness_necessary(prof: SingularityProfile) -> Optional[tuple]:
    """Integer roots of T^2 + (1-d)T + 1 - d + sum (k-1) t_k, if they exist."""
    d = prof.d
    c0 = 1 - d + sum((k - 1) * v for k, v in prof.counts)
    disc = (1 - d) * (1 - d) - 4 * c0
    if disc < 0:
        return None
    r = isqrt(disc)
    if r * r != disc:
        return None
    if (d - 1 - r) % 2 != 0:
        return None
    return ((d - 1 - r) // 2, (d - 1 + r) // 2)


def classify_degenerate(arr: Arrangement) -> str:
    """One of 'empty', 'trivial', 'quasi-trivial', 'finite-plane', 'other'."""
    return _classify(len(arr), profile(arr), arr.field)


def _classify(d: int, prof: SingularityProfile, field: Field) -> str:
    if d == 0:
        return "empty"
    if d == 1 or (prof.get(d) == 1 and prof.total_points == 1):
        return "trivial"
    if d >= 3 and prof.max_multiplicity == d - 1 and prof.get(d - 1) >= 1:
        # a point on d-1 lines forces the remaining line off that point
        return "quasi-trivial"
    q = field.characteristic ** field.degree  # 0 in characteristic 0
    # PG(2,q) has q^2+q+1 lines, so that many distinct ones are all of them
    if q and d == q * q + q + 1:
        return "finite-plane"
    return "other"


def all_projective_lines(field: Field) -> Arrangement:
    """Every line of the projective plane over a finite field."""
    if field.characteristic == 0:
        raise ArrangementError("the full line set exists only over finite fields")
    reps = (range(field.characteristic) if field.kind == PRIME_FIELD
            else _gf_tables(field.spec).elems)
    elements, one, zero = [field.from_rep(r) for r in reps], field.one, field.zero
    lines = [ProjLine((one, b, c)) for b in elements for c in elements]
    lines += [ProjLine((zero, one, c)) for c in elements]
    return Arrangement(field, lines + [ProjLine((zero, zero, one))])


# ---------------------------------------------------------------------------
# inequality checks

@dataclass(frozen=True)
class InequalityCheck:
    name: str
    applicable: bool
    slack: Optional[Fraction]
    note: str = ""


@dataclass(frozen=True)
class InequalityReport:
    hirzebruch: InequalityCheck
    melchior: InequalityCheck
    simplicial: InequalityCheck
    de_bruijn_erdos: InequalityCheck

    def checks(self):
        return (self.hirzebruch, self.melchior, self.simplicial,
                self.de_bruijn_erdos)


def inequality_report(arr: Arrangement, real: bool = False) -> InequalityReport:
    """Signed slacks (LHS - RHS) of the classical inequalities.

    Hirzebruch and Melchior are theorems over C (resp. R) only; in positive
    characteristic or for non-real input they are computed but flagged
    informational through ``applicable``.
    """
    return _inequalities(len(arr), profile(arr), arr.field, real)


def _inequalities(d: int, prof: SingularityProfile, field: Field,
                  real: Optional[bool]) -> InequalityReport:
    """The report of ``inequality_report``; ``real`` None declares exactly
    the arrangements over Q real."""
    if real is None:
        real = field.kind == RATIONALS
    t = prof.as_dict()
    kind = _classify(d, prof, field)
    char0 = field.characteristic == 0

    hz_slack = None
    hz_app = kind not in ("empty", "trivial", "quasi-trivial") and char0
    hz_note = "" if char0 else "positive characteristic: informational only"
    if d >= 2:
        hz_slack = Fraction(t.get(2, 0) + t.get(3, 0)
                            - d - sum((k - 4) * v for k, v in t.items() if k >= 5))
    hirzebruch = InequalityCheck("hirzebruch", hz_app, hz_slack, hz_note)

    mel_slack = None
    mel_app = real and d >= 3 and kind != "trivial" and char0
    if d >= 2:
        mel_slack = Fraction(t.get(2, 0)
                             - 3 - sum((r - 3) * v for r, v in t.items() if r >= 3))
    mel_note = "" if real else "not declared real"
    melchior = InequalityCheck("melchior", mel_app, mel_slack, mel_note)

    simp_slack = None
    if d >= 2:
        simp_slack = Fraction(3 + sum((r - 3) * v for r, v in t.items()))
    simplicial = InequalityCheck("simplicial", d >= 2, simp_slack,
                                 "zero slack = combinatorially simplicial")

    dbe_slack = None
    dbe_app = d >= 3 and kind not in ("empty", "trivial")
    if dbe_app:
        dbe_slack = Fraction(prof.total_points - d)
    de_bruijn_erdos = InequalityCheck("de-bruijn-erdos", dbe_app, dbe_slack,
                                      "zero slack = near pencil or finite plane")
    return InequalityReport(hirzebruch, melchior, simplicial, de_bruijn_erdos)


# ---------------------------------------------------------------------------
# configuration predicates

def _k_point_sets(arr: Arrangement, k: int) -> list:
    """The index sets of the lines through each point on exactly k of them;
    the points' labels do not matter."""
    return [s for s in _groups(arr._codes, arr.field, k).values() if len(s) == k]


def is_km_configuration(arr: Arrangement, k: int, m: int):
    """Whether (P_{k}(arr), arr) is a [k, m]-configuration.

    Returns (flag, r, s): r the number of k-points, s the line count.
    """
    if k < 2 or m < 2:
        raise ArrangementError("configuration parameters must be >= 2")
    k_point_sets = _k_point_sets(arr, k)
    per_line = Counter(chain.from_iterable(k_point_sets))
    ok = len(arr) > 1 and all(per_line[i] == m for i in range(len(arr)))
    return ok, len(k_point_sets), len(arr)


def configuration_connected(arr: Arrangement, k: int) -> bool:
    """Graph connectivity of the k-points, joined when collinear on a line:
    a union-find over the lines merges the lines of each k-point, and the
    k-points are connected when their lines end in one class."""
    k_sets = _k_point_sets(arr, k)
    parent = list(range(len(arr)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i
    for s in k_sets:
        first, *rest = {find(i) for i in s}
        for r in rest:
            parent[r] = first
    return len({find(min(s)) for s in k_sets}) <= 1


def _selections(field: Field):
    """(table, op), a memo for one call: table(codes) is the ``_pair_counts``
    of a frozenset of codes, paired once, and op(sel, codes) the frozenset
    of its ``_selected`` keys, selected once: P_sel of lines or L_sel of
    points, since a key is the code of the object it names and a line and
    the point with the same triple have the same code."""
    tables, images = {}, {}

    def table(codes):
        pair = tables.get(codes)
        if pair is None:
            pair = tables[codes] = (_pair_counts(list(codes), field)
                                    if len(codes) > 1 else ({}, None))
        return pair

    def op(sel, codes):
        img = images.get((sel, codes))
        if img is None:
            img = images[sel, codes] = frozenset(_selected(sel, *table(codes)))
        return img
    return table, op


_single = lru_cache(maxsize=None)(sel_exact)  # exact selectors, made once


def _decomposes(op, nsel: MultiplicitySelector, msel: MultiplicitySelector,
                codes: frozenset) -> bool:
    """Whether Lambda_{nsel,msel} of the lines with ``codes`` is the union
    of the Lambda_{n,m} over the members n, m of the finite selectors, on
    the memo ``op`` of ``_selections``."""
    return op(msel, op(nsel, codes)) == frozenset().union(*(
        op(_single(m), op(_single(n), codes))
        for n in nsel.members() for m in msel.members()))


def lambda_decomposition_check(nsel: MultiplicitySelector,
                               msel: MultiplicitySelector,
                               arr: Arrangement) -> bool:
    """Union-of-singletons identity for finite exact selectors, with each
    distinct code set paired once (``_decomposes``)."""
    if not (nsel.is_finite and msel.is_finite):
        raise ArrangementError("decomposition check needs finite exact selectors")
    return _decomposes(_selections(arr.field)[1], nsel, msel, arr._code_set())


# property_suite's new-line bounds, made once: (name, nsel, msel, bound)
_GE2, _GE3 = sel_at_least(2), sel_at_least(3)
_SUITE_BOUNDS = [(f"new-line-bound[{n.text};{m.text}]", n, m, n.min_member * m.min_member)
                 for n, m in ((_GE2, _GE2), (_GE3, _GE2), (_GE2, _GE3))]


def property_suite(arr: Arrangement, real: Optional[bool] = None) -> list:
    """The cross-cutting invariants, evaluated on one arrangement.

    Returns (name, ok, detail) triples: profile consistency, duality
    conjugation, the union-of-singletons decomposition, the m >= nk bound
    for new lines, De Bruijn-Erdos, Melchior / Hirzebruch non-negativity
    where they apply, and the classification of 2-2 fixed points.

    The checks run on frozensets of the members' codes (``_encode``) and
    build no point, line or set.  For the length of the call each distinct
    code set is paired once and each image selected once (``_selections``).
    """
    field, d = arr.field, len(arr)
    table, op = _selections(field)
    lines = arr._code_set()
    prof = _table_profile(d, *table(lines))
    # dualizing keeps every code and P, L are one selection, so the dual of
    # Lambda(A) and Psi(dual A) are the same code set; the tests check the
    # conjugation on objects
    results = [("profile-consistency", True, prof.text()),
               ("duality-conjugation[2;3]", True, ""),
               ("duality-conjugation[>=2;>=3]", True, "")]
    # the union-of-singletons identity is a theorem only for singleton
    # point selectors (see the grid counterexample in the project notes)
    for m in (2, 3):
        ok = _decomposes(op, _single(m), _single(2, 3), lines)
        results.append((f"decomposition[{m};2,3]", ok, ""))
    for name, nsel, msel, bound in _SUITE_BOUNDS:
        ok = op(msel, op(nsel, lines)) <= lines or d >= bound
        results.append((name, ok, f"|L|={d}, bound={bound}"))

    kind = _classify(d, prof, field)
    if d >= 3 and kind not in ("trivial", "empty"):
        results.append(("de-bruijn-erdos", prof.total_points >= d,
                        f"t={prof.total_points}, d={d}"))
    rep = _inequalities(d, prof, field, real)
    if rep.melchior.applicable:
        results.append(("melchior", rep.melchior.slack >= 0,
                        f"slack={rep.melchior.slack}"))
    if rep.hirzebruch.applicable:
        results.append(("hirzebruch", rep.hirzebruch.slack >= 0,
                        f"slack={rep.hirzebruch.slack}"))

    if d and op(_GE2, op(_GE2, lines)) == lines:
        results.append(("2-2-fixed-classification",
                        kind in ("quasi-trivial", "finite-plane"), kind))
    return results


def arrangements_equivalent(a: Arrangement, b: Arrangement):
    """Projective-equivalence witness between two arrangements, or None;
    two empty ones of one field are equivalent by the identity."""
    if a.is_empty() and b.is_empty() and a.field.spec == b.field.spec:
        from .projective import Matrix3, Projectivity
        return Projectivity(Matrix3.identity(a.field))
    return projectively_equivalent(a, b)


# ---------------------------------------------------------------------------
# JSON schemas

def arrangement_to_json(arr: Arrangement) -> dict:
    """The JSON document of an arrangement or of a point configuration."""
    return {
        "field": arr.field.spec.text,
        arr._name: [[format_scalar(c) for c in o.coords] for o in arr],
    }


point_config_to_json = arrangement_to_json


def _members_from_json(doc, kind) -> tuple:
    """(field, members in file order) of a document for the set class ``kind``.

    Malformed input raises ArrangementError, so the CLI reports it as one
    line.
    """
    name = kind._name
    if not isinstance(doc, dict):
        raise ArrangementError("the document must be a JSON object")
    if not isinstance(doc.get("field"), str):
        raise ArrangementError("document lacks a 'field' string")
    if not isinstance(doc.get(name), (list, tuple)):
        raise ArrangementError(f"document lacks a {name!r} list")
    if any(not isinstance(t, (list, tuple)) or len(t) != 3 for t in doc[name]):
        raise ArrangementError(f"{name} entries must be coordinate triples")
    try:
        field = field_make(parse_field_spec(doc["field"]))
        triples = [tuple(parse_scalar(field, str(c)) for c in t) for t in doc[name]]
    except (ValueError, ZeroDivisionError) as e:
        raise ArrangementError(f"unreadable document: {e}")
    return field, [kind._member(t) for t in triples]


def lines_from_json(doc: dict):
    """(field, lines in file order); the file order is the labelling."""
    return _members_from_json(doc, Arrangement)


def arrangement_from_json(doc: dict) -> Arrangement:
    return Arrangement(*lines_from_json(doc))


def point_config_from_json(doc: dict) -> PointConfig:
    return PointConfig(*_members_from_json(doc, PointConfig))


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
