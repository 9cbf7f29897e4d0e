"""Rank-3 matroids of labelled line arrangements and their isomorphism.

A labelled arrangement determines its matroid through the concurrency
classes of size >= 3 (the rank-2 flats); simple double points carry no
information.  Flats of a legal rank-3 matroid intersect pairwise in at
most one element.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Union

from .arrangements import Arrangement, ArrangementError, _encode, _groups, _null_basis
from .fields import QQ
from .projective import ProjLine, _field_of


class MatroidError(ArrangementError):
    pass


@dataclass(frozen=True)
class Matroid3:
    """Ground set {0..m-1} with its rank-2 flats of size >= 3."""

    ground: int
    flats: tuple  # sorted tuple of sorted index tuples

    def __post_init__(self):
        if self.ground < 0:
            raise MatroidError("ground size must be non-negative")
        for f in self.flats:
            if f.__class__ is not tuple or any(a >= b for a, b in zip(f, f[1:])):
                raise MatroidError("flats must be strictly increasing tuples")
            if len(f) < 3:
                raise MatroidError("flats must have size >= 3")
            if any(not 0 <= i < self.ground for i in f):
                raise MatroidError("flat index out of range")
        # the flats through each element, in one pass; two flats that share
        # two elements both pass through each, so the flats through an
        # element must hold as many elements as they would sharing only it
        sets, through = [set(f) for f in self.flats], {}
        for fi, f in enumerate(sets):
            for i in f:
                through.setdefault(i, []).append(fi)
        for fis in through.values():
            if len(set().union(*(sets[fi] for fi in fis))) <= sum(
                    len(sets[fi]) - 1 for fi in fis):
                raise MatroidError("two flats share more than one element")
        object.__setattr__(self, "_through", through)

    @classmethod
    def from_flats(cls, ground: int, flats) -> "Matroid3":
        canon = tuple(sorted(tuple(sorted(set(f))) for f in flats))
        return cls(ground, canon)

    def non_bases(self):
        """All dependent triples (the 3-subsets of flats)."""
        return sorted({t for f in self.flats for t in combinations(f, 3)})

    def flat_sizes(self):
        return sorted(len(f) for f in self.flats)

    def __repr__(self):
        return f"Matroid3(ground={self.ground}, flats={len(self.flats)})"


def extract_matroid(lines: Union[Arrangement, Sequence[ProjLine]]) -> Matroid3:
    """Matroid of a labelled arrangement; indices follow the given order.

    Passing an Arrangement uses its canonical line order as the labelling.
    Lines of two fields, or anything that is not a line, are refused
    (``projective._field_of``).
    """
    if not isinstance(lines, Arrangement):
        lines = list(lines)
    field = _field_of([lines])
    if field is None:
        return Matroid3.from_flats(0, ())
    codes = (lines._code_list() if isinstance(lines, Arrangement)
             else _encode(lines, field))
    if len(set(codes)) != len(codes):
        raise MatroidError("labelled arrangement must have distinct lines")
    return Matroid3.from_flats(len(codes), _groups(codes, field, 3).values())


def matroid_to_json(m: Matroid3) -> dict:
    return {"ground": m.ground, "flats": [list(f) for f in m.flats]}


def matroid_from_json(doc: dict) -> Matroid3:
    """The matroid of a JSON document; malformed input is a MatroidError."""
    if not isinstance(doc, dict):
        raise MatroidError("the document must be a JSON object")
    ground, flats = doc.get("ground"), doc.get("flats")
    if type(ground) is not int:
        raise MatroidError("document lacks an integer 'ground'")
    if not isinstance(flats, list) or any(
            not isinstance(f, list) or any(type(i) is not int for i in f)
            for f in flats):
        raise MatroidError("document lacks a 'flats' list of index lists")
    return Matroid3.from_flats(ground, flats)


def matroid_isomorphic(a: Matroid3, b: Matroid3) -> Optional[tuple]:
    """A ground-set bijection carrying flats to flats, or None.

    Individualization and refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): the elements of both matroids are coloured
    together, each round by an element's colour and the sorted colours of
    the flats through it, a flat's colour being the sorted colours of its
    elements, until the classes stop growing.  The members of a class that
    no flat separates on either side are interchangeable, so they are
    paired in ascending order at once.  Then the first element of a's
    largest class is paired with each element of b's class in turn, both
    get a fresh colour, and the search goes on depth first, from a stack.
    A discrete colouring pairs the elements; it is returned once checked to
    map flats onto flats.  ``matroid_isomorphic(m, m)`` is the identity.
    """
    if a.ground != b.ground or a.flat_sizes() != b.flat_sizes():
        return None
    m = a.ground

    def refine(ca, cb):  # None when the colour multisets differ
        while True:
            table = {}  # one signature table, so a colour means the same on both sides
            new = []
            for mat, col in ((a, ca), (b, cb)):
                flat_col = [tuple(sorted(col[i] for i in f)) for f in mat.flats]
                new.append([table.setdefault(
                    (col[i], tuple(sorted(flat_col[fi] for fi in mat._through.get(i, ())))),
                    len(table)) for i in range(m)])
            stable, (ca, cb) = len(table) == len(set(ca).union(cb)), new
            if not stable:
                continue
            if sorted(ca) != sorted(cb):
                return None
            members = {c: ([], []) for c in ca}
            for side, col in enumerate(new):
                for i, c in enumerate(col):
                    members[c][side].append(i)
            fresh = len(table)
            for pair in members.values():
                if len(pair[0]) > 1 and all(len({tuple(mat._through.get(i, ())) for i in s}) == 1
                                            for mat, s in zip((a, b), pair)):
                    for x, y in zip(*pair):
                        ca[x] = cb[y] = fresh
                        fresh += 1
            if fresh == len(table):
                return ca, cb

    def branches(ca, cb):  # the first element of a's largest class against b's
        count = Counter(ca)
        x = max(range(m), key=lambda i: (count[ca[i]], -i))
        for y in range(m):
            if cb[y] == ca[x]:
                yield ca[:x] + [len(count)] + ca[x + 1:], cb[:y] + [len(count)] + cb[y + 1:]

    stack = [iter([([0] * m, [0] * m)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif (node := refine(*node)) and len(set(node[0])) < m:
            stack.append(branches(*node))
        elif node:
            where = {c: j for j, c in enumerate(node[1])}
            bij = tuple(where[c] for c in node[0])
            if {tuple(sorted(bij[i] for i in f)) for f in a.flats} == set(b.flats):
                return bij
    return None


# ---------------------------------------------------------------------------
# the flashing incidence matrix

@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 matrix; rows are concurrency classes, columns are lines."""

    rows: tuple  # tuple of 0/1 tuples

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def as_matroid(self) -> Matroid3:
        return Matroid3.from_flats(self.shape[1], [[i for i, v in enumerate(r) if v]
                                                   for r in self.rows])


def flashing_incidence(n: int) -> IncidenceMatrix:
    """The (n^2+1) x 3n incidence pattern behind the flashing families.

    Block rows C_k | I_n | G^(k-1) for k = 1..n (G the cyclic shift), and
    a final row marking the n-fold point on the middle block.
    """
    if n < 3:
        raise MatroidError("flashing incidence needs n >= 3")
    rows = []
    for k in range(n):          # block k+1
        for r in range(n):
            row = [0] * (3 * n)
            row[k] = 1                       # C_{k+1}: column k
            row[n + r] = 1                   # I_n
            row[2 * n + (r - k) % n] = 1     # G^k
            rows.append(tuple(row))
    rows.append(tuple([0] * n + [1] * n + [0] * n))  # the n-fold point
    return IncidenceMatrix(tuple(rows))


def reye_matroid() -> Matroid3:
    """The classical (12_4, 16_3) point-line configuration as a matroid.

    Ground set: 8 cube vertices, the center, and the three axis directions
    (a 3-space model); flats are the 16 collinear triples.  No four of the
    points are collinear, so every flat is a triple, and ``Matroid3``
    rejects two triples that share two points.
    """
    F = QQ()
    coords = [(sx, sy, sz, 1) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    coords += [(0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    # three points are collinear when their 3x4 matrix has rank 2
    m = Matroid3.from_flats(12, [t for t in combinations(range(12), 3)
                                 if len(_null_basis([coords[i] for i in t], F)) == 2])
    if len(m.flats) != 16 or any(sum(i in f for f in m.flats) != 4
                                 for i in range(12)):
        raise MatroidError("Reye realization must be a (12_4, 16_3)")
    return m
