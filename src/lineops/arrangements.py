"""Line arrangements, point configurations and the incidence operators.

The engine underlying every operator is one pair kernel, ``_meet_keys``:
the meets (dually: joins) of all pairs, each as a canonical coordinate key.
Grouping those keys gives everything else.  A point met by k lines receives
exactly C(k,2) of the pair meets, so multiplicity is read off the group size
with no incidence rescan.  The kernel has two key codecs: over Q, primitive
integer triples normalized by gcd and sign, which keeps the big runs
(thousands of lines) cheap; over every other field, representatives scaled
so that the first nonzero coordinate is one.  ``_from_key`` turns a key back
into a point or line at the API boundary.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isqrt
from typing import Iterable, Optional, Sequence

from .fields import (Field, FieldError, RATIONALS, PRIME_FIELD, _primitive_int,
                     field_make, format_scalar, parse_field_spec, parse_scalar)
from .projective import (ProjLine, ProjPoint, _sort_key, dualize,
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

class _ObjectSet:
    """Deduplicated finite set of points or of lines, in canonical order.

    A subclass names its member class and, in ``_name``, the attribute and
    JSON key under which the members are read.
    """

    __slots__ = ("field", "_members")

    def __init__(self, field: Field, members: Iterable = ()):
        members = tuple(sorted(set(members), key=_sort_key))
        cls, spec = self._member, field.spec
        for o in members:
            if o.__class__ is not cls:
                raise ArrangementError(f"{type(self).__name__} members must be "
                                       f"{cls.__name__}, not {type(o).__name__}")
            if o.field.spec != spec:
                raise FieldError(f"{cls.__name__} from a different field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_members", members)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __contains__(self, o):
        return o in self._members

    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and self.field.spec == other.field.spec
                and self._members == other._members)

    def __hash__(self):
        return hash((self.field.spec, self._members))

    def is_empty(self) -> bool:
        return not self._members

    def __repr__(self):
        return (f"{type(self).__name__}({len(self._members)} {self._name} "
                f"over {self.field.spec.text})")


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
        if self.field.spec != other.field.spec:
            raise FieldError("arrangements live in different fields")
        return Arrangement(self.field, self.lines + other.lines)


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
    """Each line relabelled as the point with the same triple.

    Given a PointConfig it relabels the other way, so applying it twice
    returns the input.
    """
    return _DUAL_SET[arr.__class__](arr.field, (dualize(o) for o in arr))


# ---------------------------------------------------------------------------
# the pair-grouping engine

def _meet_keys(objs, field: Field):
    """Canonical key of the meet (join) of each pair of lines (points).

    Keys come in ``combinations(range(len(objs)), 2)`` order.  Over Q a key
    is the primitive integer triple with first nonzero > 0; over any other
    field it is the triple of representatives whose first nonzero is one.
    """
    if field.kind == RATIONALS:
        # the objects' first nonzero coordinate is 1, so that of each
        # primitive integer triple is positive
        tris = [_primitive_int(o.key()) for o in objs]
        for i, (a0, a1, a2) in enumerate(tris):
            for b0, b1, b2 in tris[i + 1:]:
                x = a1 * b2 - a2 * b1
                y = a2 * b0 - a0 * b2
                z = a0 * b1 - a1 * b0
                g = gcd(gcd(x, y), z)
                if x:
                    if x < 0:
                        g = -g
                elif y:
                    if y < 0:
                        g = -g
                elif z < 0:
                    g = -g
                yield (x // g, y // g, z // g)
        return
    rmul, rsub, rinv, rzero = field.r_mul, field.r_sub, field.r_inv, field.r_is_zero
    one = field.one.rep
    reps = [o.key() for o in objs]
    for i, (a0, a1, a2) in enumerate(reps):
        for b0, b1, b2 in reps[i + 1:]:
            x = rsub(rmul(a1, b2), rmul(a2, b1))
            y = rsub(rmul(a2, b0), rmul(a0, b2))
            z = rsub(rmul(a0, b1), rmul(a1, b0))
            if not rzero(x):
                inv = rinv(x)
                yield (one, rmul(y, inv), rmul(z, inv))
            elif not rzero(y):
                inv = rinv(y)
                yield (x, one, rmul(z, inv))
            else:
                yield (x, y, one)


def _pair_counts(objs, field: Field) -> dict:
    """key -> number of pairs meeting (joining) there, over all C(n,2) pairs."""
    return Counter(_meet_keys(objs, field))


def _pair_index(objs, field: Field) -> dict:
    """key -> set of indices of the objects through the keyed position."""
    index = {}
    for (i, j), key in zip(combinations(range(len(objs)), 2),
                           _meet_keys(objs, field)):
        s = index.get(key)
        if s is None:
            index[key] = {i, j}
        else:
            s.add(i)
            s.add(j)
    return index


def _mult_from_pairs(c: int) -> int:
    k = (1 + isqrt(1 + 8 * c)) // 2
    if k * (k - 1) // 2 != c:
        raise AssertionError("pair count is not a binomial; engine bug")
    return k


def _from_key(cls, key, field):
    """The ProjPoint or ProjLine (``cls``) with kernel key ``key``."""
    if field.kind == RATIONALS:
        return cls(tuple(field.scalar(Fraction(c)) for c in key))
    return cls(tuple(field.from_rep(r) for r in key))


@dataclass(frozen=True)
class IncidenceIndex:
    """Singular points (dually: rich lines) with their incident index sets.

    ``direction`` is "points" when entries map singular points to indices
    of the arrangement's canonically ordered lines, "lines" for the join
    direction on a point configuration.
    """
    direction: str
    entries: tuple  # ((ProjPoint|ProjLine, frozenset(indices)), ...)


def _incidence(direction: str, cls, objs, field: Field) -> IncidenceIndex:
    if len(objs) < 2:
        return IncidenceIndex(direction, ())
    entries = [(_from_key(cls, k, field), frozenset(s))
               for k, s in _pair_index(objs, field).items()]
    entries.sort(key=lambda e: _sort_key(e[0]))
    return IncidenceIndex(direction, tuple(entries))


def incidence_index(arr: Arrangement) -> IncidenceIndex:
    """Group the pairwise meets of an arrangement by canonical point."""
    return _incidence("points", ProjPoint, arr.lines, arr.field)


def richness_index(cfg: PointConfig) -> IncidenceIndex:
    """Group the pairwise joins of a point configuration by canonical line."""
    return _incidence("lines", ProjLine, cfg.points, cfg.field)


# ---------------------------------------------------------------------------
# the operators

def points_operator(sel: MultiplicitySelector, arr: Arrangement) -> PointConfig:
    """P_sel: the points whose multiplicity lies in the selector."""
    return _select(sel, arr.lines, arr.field, PointConfig)


def lines_operator(sel: MultiplicitySelector, cfg: PointConfig) -> Arrangement:
    """L_sel: the lines whose incident-point count lies in the selector.

    Since selector members are >= 2, every qualifying line joins some pair
    of points, so pair grouping is complete.
    """
    return _select(sel, cfg.points, cfg.field, Arrangement)


def _select(sel: MultiplicitySelector, objs, field: Field, out):
    """The ``out`` set of the pair meets (joins) of ``objs`` whose
    multiplicity lies in the selector."""
    if len(objs) < 2:
        return out(field)
    counts = _pair_counts(objs, field)
    return out(field, [_from_key(out._member, k, field) for k, c in counts.items()
                       if sel.contains(_mult_from_pairs(c))])


def lambda_op(nsel: MultiplicitySelector, msel: MultiplicitySelector,
              arr: Arrangement) -> Arrangement:
    """The line operator: L_msel after P_nsel."""
    return lines_operator(msel, points_operator(nsel, arr))


def psi_op(nsel: MultiplicitySelector, msel: MultiplicitySelector,
           cfg: PointConfig) -> PointConfig:
    """The point operator: P_msel after L_nsel."""
    return points_operator(msel, lines_operator(nsel, cfg))


def dual_lines_op(sel: MultiplicitySelector, arr: Arrangement) -> Arrangement:
    """L_sel applied to the dual point set of the arrangement."""
    return lines_operator(sel, dualize_arrangement(arr))


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
    if len(arr) < 2:
        return SingularityProfile(len(arr), ())
    counts = _pair_counts(arr.lines, arr.field)
    t = {}
    for c in counts.values():
        k = _mult_from_pairs(c)
        t[k] = t.get(k, 0) + 1
    return SingularityProfile.from_dict(len(arr), t)


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
    d = len(arr)
    if d == 0:
        return "empty"
    if d == 1:
        return "trivial"
    prof = profile(arr)
    if prof.get(d) == 1 and prof.total_points == 1:
        return "trivial"
    if d >= 3 and prof.max_multiplicity == d - 1 and prof.get(d - 1) >= 1:
        # a point on d-1 lines forces the remaining line off that point
        return "quasi-trivial"
    field = arr.field
    if field.characteristic > 0 and field.kind in (PRIME_FIELD,
                                                   "prime_power_field"):
        q = field.characteristic ** field.degree
        if d == q * q + q + 1:
            if set(arr.lines) == set(all_projective_lines(field).lines):
                return "finite-plane"
    return "other"


def all_projective_lines(field: Field) -> Arrangement:
    """Every line of the projective plane over a finite field."""
    if field.characteristic == 0:
        raise ArrangementError("the full line set exists only over finite fields")
    elements = _all_field_elements(field)
    lines = []
    one = field.one
    zero = field.zero
    for b in elements:
        for c in elements:
            lines.append(ProjLine((one, b, c)))
    for c in elements:
        lines.append(ProjLine((zero, one, c)))
    lines.append(ProjLine((zero, zero, one)))
    return Arrangement(field, lines)


def _all_field_elements(field: Field):
    p = field.characteristic
    if field.kind == PRIME_FIELD:
        return [field.scalar(i) for i in range(p)]
    out = []
    d = field.degree
    total = p ** d
    for n in range(total):
        rep = []
        m = n
        for _ in range(d):
            rep.append(m % p)
            m //= p
        out.append(field.from_rep(tuple(rep)))
    return out


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
    d = len(arr)
    prof = profile(arr)
    t = prof.as_dict()
    kind = classify_degenerate(arr)
    char0 = arr.field.characteristic == 0

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

def is_km_configuration(arr: Arrangement, k: int, m: int):
    """Whether (P_{k}(arr), arr) is a [k, m]-configuration.

    Returns (flag, r, s): r the number of k-points, s the line count.
    """
    if k < 2 or m < 2:
        raise ArrangementError("configuration parameters must be >= 2")
    if len(arr) < 2:
        return False, 0, len(arr)
    idx = _pair_index(arr.lines, arr.field)
    k_point_sets = [s for s in idx.values() if len(s) == k]
    per_line = [0] * len(arr)
    for s in k_point_sets:
        for i in s:
            per_line[i] += 1
    ok = all(c == m for c in per_line)
    return ok, len(k_point_sets), len(arr)


def configuration_connected(arr: Arrangement, k: int) -> bool:
    """Graph connectivity of the k-points, joined when collinear on a line."""
    if len(arr) < 2:
        return True
    idx = _pair_index(arr.lines, arr.field)
    k_keys = [key for key, s in idx.items() if len(s) == k]
    if len(k_keys) <= 1:
        return True
    pos = {key: n for n, key in enumerate(k_keys)}
    parent = list(range(len(k_keys)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_line = {}
    for key, s in idx.items():
        if key in pos:
            for i in s:
                by_line.setdefault(i, []).append(pos[key])
    for members in by_line.values():
        for other in members[1:]:
            ra, rb = find(members[0]), find(other)
            if ra != rb:
                parent[ra] = rb
    roots = {find(i) for i in range(len(k_keys))}
    return len(roots) == 1


def lambda_decomposition_check(nsel: MultiplicitySelector,
                               msel: MultiplicitySelector,
                               arr: Arrangement) -> bool:
    """Union-of-singletons identity for finite exact selectors."""
    if not (nsel.is_finite and msel.is_finite):
        raise ArrangementError("decomposition check needs finite exact selectors")
    whole = lambda_op(nsel, msel, arr)
    pieces = set()
    for n in nsel.members():
        for m in msel.members():
            pieces.update(lambda_op(sel_exact(n), sel_exact(m), arr).lines)
    return set(whole.lines) == pieces


def property_suite(arr: Arrangement, real: Optional[bool] = None) -> list:
    """The cross-cutting invariants, evaluated on one arrangement.

    Returns (name, ok, detail) triples: profile consistency, duality
    conjugation, the union-of-singletons decomposition, the m >= nk bound
    for new lines, De Bruijn-Erdos, Melchior / Hirzebruch non-negativity
    where they apply, and the classification of 2-2 fixed points.
    """
    results = []
    if real is None:
        real = arr.field.kind == RATIONALS
    prof = None
    try:
        prof = profile(arr)
        results.append(("profile-consistency", True, prof.text()))
    except ArrangementError as e:
        results.append(("profile-consistency", False, str(e)))

    for nsel, msel in ((sel_exact(2), sel_exact(3)),
                       (sel_at_least(2), sel_at_least(3))):
        lhs = dualize_arrangement(lambda_op(nsel, msel, arr))
        rhs = psi_op(nsel, msel, dualize_arrangement(arr))
        ok = lhs == rhs
        results.append((f"duality-conjugation[{nsel.text};{msel.text}]", ok, ""))

    # the union-of-singletons identity is a theorem only for singleton
    # point selectors (see the grid counterexample in the project notes)
    msel = MultiplicitySelector(exact=frozenset({2, 3}))
    for m in (2, 3):
        ok = lambda_decomposition_check(sel_exact(m), msel, arr)
        results.append((f"decomposition[{m};2,3]", ok, ""))

    before = set(arr.lines)
    for nsel, msel in ((sel_at_least(2), sel_at_least(2)),
                       (sel_at_least(3), sel_at_least(2)),
                       (sel_at_least(2), sel_at_least(3))):
        img = lambda_op(nsel, msel, arr)
        has_new = any(l not in before for l in img.lines)
        bound = nsel.min_member * msel.min_member
        ok = (not has_new) or len(arr) >= bound
        results.append((f"new-line-bound[{nsel.text};{msel.text}]", ok,
                        f"|L|={len(arr)}, bound={bound}"))

    kind = classify_degenerate(arr)
    if len(arr) >= 3 and kind not in ("trivial", "empty") and prof is not None:
        results.append(("de-bruijn-erdos", prof.total_points >= len(arr),
                        f"t={prof.total_points}, d={len(arr)}"))
    rep = inequality_report(arr, real=real)
    if rep.melchior.applicable:
        results.append(("melchior", rep.melchior.slack >= 0,
                        f"slack={rep.melchior.slack}"))
    if rep.hirzebruch.applicable:
        results.append(("hirzebruch", rep.hirzebruch.slack >= 0,
                        f"slack={rep.hirzebruch.slack}"))

    sel2 = sel_at_least(2)
    if not arr.is_empty() and lambda_op(sel2, sel2, arr) == arr:
        results.append(("2-2-fixed-classification",
                        kind in ("quasi-trivial", "finite-plane"), kind))
    return results


def arrangements_equivalent(a: Arrangement, b: Arrangement):
    """Projective-equivalence witness between two arrangements, or None."""
    if a.field.spec != b.field.spec:
        raise FieldError("arrangements live in different fields")
    if len(a) != len(b):
        return None
    if len(a) == 0:
        from .projective import Matrix3, Projectivity
        return Projectivity(Matrix3.identity(a.field))
    return projectively_equivalent(list(a.lines), list(b.lines))


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
