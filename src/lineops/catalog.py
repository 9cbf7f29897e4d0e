"""Named arrangement constructors, each self-validating against the
singularity profile it is supposed to have.

A build with a parameter from an entry's forbidden set raises
DegenerateParameterError unless degenerate_ok=True is passed, in which
case the arrangement is built as-is (with a warning) and profile
validation is skipped; that mode exists because several degenerate
parameters are interesting in their own right.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Optional

from .fields import (Field, QQ, Scalar, _parse_poly, cyclotomic_field,
                     field_make, number_field, GF, parse_field_spec,
                     parse_scalar, poly_eval, poly_sub)
from .projective import (GeometryError, ProjLine, ProjPoint, join, line,
                         meet, point)
from .arrangements import (Arrangement, ArrangementError, PointConfig,
                           all_projective_lines, lambda_op, profile,
                           sel_at_least, sel_exact)


class CatalogError(ArrangementError):
    pass


class DegenerateParameterError(CatalogError):
    pass


class ProfileMismatchError(CatalogError):
    pass


class GenericityError(CatalogError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    params: tuple  # ((name, kind, default), ...); kind in int|fraction|scalar|sign|field|seed
    builder: Callable  # params dict -> (Field, [ProjLine] in construction order)
    expected: Optional[Callable] = None  # params -> {k: t_k} or None
    forbidden: Optional[Callable] = None  # params -> None or message naming the set
    heavy: bool = False

    def default_params(self) -> dict:
        return {n: d for n, _, d in self.params}


_REGISTRY: dict = {}


def register(entry: CatalogEntry):
    _REGISTRY[entry.name] = entry


def entries() -> list:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_entry(name: str) -> CatalogEntry:
    key = name.replace("_", "-")
    if key not in _REGISTRY:
        raise CatalogError(f"unknown catalog entry {name!r}")
    return _REGISTRY[key]


def _normalize_params(entry: CatalogEntry, given: dict) -> dict:
    out = entry.default_params()
    for k, v in given.items():
        if k not in out:
            raise CatalogError(f"{entry.name} takes no parameter {k!r}")
        out[k] = v
    kinds = {n: kind for n, kind, _ in entry.params}
    for k, kind in kinds.items():
        v = out[k]
        if kind == "int" or kind == "seed":
            try:
                out[k] = int(v)
            except (TypeError, ValueError):
                raise CatalogError(f"{entry.name} parameter {k!r} must be an "
                                   f"integer, got {v!r}")
        elif kind == "fraction" and not isinstance(v, Scalar):
            try:
                out[k] = Fraction(v)
            except (TypeError, ValueError, ZeroDivisionError):
                # scalar text is resolved against the field parameter
                if not (isinstance(v, str) and "field" in kinds):
                    raise CatalogError(f"{entry.name} parameter {k!r} must be "
                                       f"a fraction, got {v!r}")
        elif kind == "sign":
            if v in (1, -1):
                out[k] = int(v)
            elif v in ("+", "plus"):
                out[k] = 1
            elif v in ("-", "minus"):
                out[k] = -1
            else:
                raise CatalogError(f"sign parameter must be + or -, got {v!r}")
        elif kind == "field" and v is not None and not isinstance(v, Field):
            out[k] = field_make(parse_field_spec(str(v)))
    return out


def _build(name: str, degenerate_ok: bool, params: dict):
    """(field, lines in construction order, their Arrangement), validated."""
    entry = get_entry(name)
    p = _normalize_params(entry, params)
    msg = entry.forbidden(p) if entry.forbidden is not None else None
    if msg:
        if not degenerate_ok:
            raise DegenerateParameterError(f"{entry.name}: {msg}")
        warnings.warn(f"{entry.name}: degenerate-mode build ({msg})")
    field, lines = entry.builder(p)
    arr = Arrangement(field, lines)
    if not msg:
        if len(arr) != len(lines):
            raise ProfileMismatchError(
                f"{entry.name}: construction produced duplicate lines")
        want = entry.expected(p) if entry.expected is not None else None
        if want is not None:
            got = profile(arr).as_dict()
            want = {int(k): int(v) for k, v in want.items() if v}
            if got != want:
                raise ProfileMismatchError(
                    f"{entry.name}: profile {got} differs from expected {want}")
    return field, lines, arr


def build_lines(name: str, degenerate_ok: bool = False, **params):
    """(field, lines in construction order); validation as in build()."""
    return _build(name, degenerate_ok, params)[:2]


def build(name: str, degenerate_ok: bool = False, **params) -> Arrangement:
    """Build a catalog arrangement and validate its expected profile."""
    return _build(name, degenerate_ok, params)[2]


# ---------------------------------------------------------------------------
# scalar parameter helper

def _scalar_param(p: dict, key: str = "t"):
    v = p[key]
    if isinstance(v, Scalar):
        return v.field, v
    fld = p.get("field") or QQ()
    if not isinstance(v, str):
        return fld, fld.scalar(v)
    try:
        return fld, parse_scalar(fld, v)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"parameter {key!r}: {v!r} is not a scalar of "
                           f"{fld.spec.text}")


# ---------------------------------------------------------------------------
# deterministic small-integer source for "generic" builders

class _Lcg:
    def __init__(self, seed: int):
        self.state = (seed * 2654435761 + 1013904223) % (1 << 32)

    def next(self) -> int:
        self.state = (1103515245 * self.state + 12345) % (1 << 32)
        return self.state >> 8

    def small(self, lo: int, hi: int) -> int:
        return lo + self.next() % (hi - lo + 1)


# ---------------------------------------------------------------------------
# the simple entries

def _build_trivial(p):
    F = QQ()
    n = p["n"]
    if n < 1:
        raise CatalogError("trivial needs n >= 1")
    return F, [line(F, 1, k, 0) for k in range(n)]


def _build_quasi_trivial(p):
    F = QQ()
    n = p["n"]
    if n < 3:
        raise CatalogError("quasi-trivial needs n >= 3")
    lines = [line(F, 1, k, 0) for k in range(n - 1)]
    lines.append(line(F, 0, 0, 1))
    return F, lines


def _build_generic(p):
    F = QQ()
    n = p["n"]
    if n < 1:
        raise CatalogError("generic needs n >= 1")
    seed = p["seed"]
    for round_ in range(32):
        rng = _Lcg(seed + round_)
        lines = []
        seen = set()
        while len(lines) < n:
            try:
                cand = line(F, rng.small(-9, 9), rng.small(-9, 9), rng.small(-9, 9))
            except GeometryError:
                continue
            if cand.key() in seen:
                continue
            seen.add(cand.key())
            lines.append(cand)
        arr = Arrangement(F, lines)
        if len(arr) == n and (n < 2 or profile(arr).as_dict() == {2: comb(n, 2)}):
            return F, lines
    raise GenericityError(f"generic({n}): no nodal draw within 32 rounds from seed {seed}")


def _four_general_points(field):
    return [point(field, 1, 0, 0), point(field, 0, 1, 0),
            point(field, 0, 0, 1), point(field, 1, 1, 1)]


def _build_complete_quadrilateral(p):
    F = p.get("field") or QQ()
    pts = _four_general_points(F)
    return F, [join(a, b) for a, b in combinations(pts, 2)]


def _build_grid6(p):
    F = QQ()
    cols = [(1, 0, 0), (1, 0, 1), (1, 0, -1), (0, 1, 0), (0, 1, 1), (0, 1, -1)]
    return F, [line(F, *c) for c in cols]


def _build_parallel_pairs6(p):
    # {x, y, x+y} pairs at offsets (2, -7): the rotation-symmetric member
    # of the family in which each derived parallel meets two crossings
    F = QQ()
    cols = [(1, 0, -2), (1, 0, 7), (0, 1, -2), (0, 1, 7),
            (1, 1, 2), (1, 1, -7)]
    return F, [line(F, *c) for c in cols]


def _build_finite_plane(p):
    field = GF(p["q"])
    return field, list(all_projective_lines(field).lines)


# ---------------------------------------------------------------------------
# Ceva and the Hesse family

def _roots_of_unity(field, n):
    if n == 1:
        return [field.one]
    if n == 2:
        return [field.one, -field.one]
    z = field.generator
    return [z ** k for k in range(n)]


def _ceva_field(n):
    if n <= 2:
        return QQ()
    return cyclotomic_field(n)


def _build_ceva(p):
    n = p["n"]
    if n < 2:
        raise CatalogError("ceva needs n >= 2")
    F = _ceva_field(n)
    zs = _roots_of_unity(F, n)
    lines = []
    for a, b in ((0, 1), (0, 2), (1, 2)):  # x-y, x-z, y-z blocks
        for z in zs:
            coeffs = [F.zero, F.zero, F.zero]
            coeffs[a] = F.one
            coeffs[b] = -z
            lines.append(ProjLine(tuple(coeffs)))
    return F, lines


def _ceva_profile(p):
    n = p["n"]
    t = {}
    t[3] = n * n
    t[n] = t.get(n, 0) + 3
    return t


def _build_ceva_ext(p):
    F, lines = _build_ceva(p)
    axes = [line(F, 1, 0, 0), line(F, 0, 1, 0), line(F, 0, 0, 1)]
    return F, lines + axes


def _ceva_ext_profile(p):
    n = p["n"]
    t = {2: 3 * n}
    t[3] = t.get(3, 0) + n * n
    t[n + 2] = t.get(n + 2, 0) + 3
    return t


_DUAL_HESSE_COLS = (
    # (name-free) the nine lines -x+z, -x+y, -y+z, -wx+z, -wx+y,
    # -w^2x+z, -w^2x+y, -w^2y+z, -wy+z with w a primitive cube root of 1
    ("-1", "0", "1"), ("-1", "1", "0"), ("0", "-1", "1"),
    ("-x", "0", "1"), ("-x", "1", "0"),
    ("-x^2", "0", "1"), ("-x^2", "1", "0"),
    ("0", "-x^2", "1"), ("0", "-x", "1"),
)


def _build_dual_hesse(p):
    F = cyclotomic_field(3)
    lines = []
    for col in _DUAL_HESSE_COLS:
        lines.append(ProjLine(tuple(parse_scalar(F, c) for c in col)))
    return F, lines


def dual_hesse_triple_points():
    """The 12 triple points of the dual Hesse arrangement."""
    F = cyclotomic_field(3)
    w = F.generator
    one, zero = F.one, F.zero
    w2 = w * w
    coords = [
        (one, zero, zero), (zero, one, zero), (zero, zero, one),
        (one, one, one), (one, one, w), (one, one, w2),
        (one, w, one), (one, w2, one), (w, one, one),
        (w2, one, one), (w, w2, one), (w2, w, one),
    ]
    return PointConfig(F, [ProjPoint(c) for c in coords])


def _build_maclane(p):
    F, lines = _build_dual_hesse(p)
    arr = Arrangement(F, lines)
    return F, list(arr.lines[1:])  # drop the canonically first line


def _build_hesse(p):
    F, ml = _build_maclane(p)
    img = lambda_op(sel_at_least(3), sel_at_least(2), Arrangement(F, ml))
    return F, list(img.lines)


# ---------------------------------------------------------------------------
# polygonal arrangements (regular m-gon edges + mirror lines)

def chebyshev_t(k):
    """Coefficients of T_k, low -> high (integers)."""
    return _chebyshev(k, (Fraction(0), Fraction(1)))


def chebyshev_u(k):
    """Coefficients of U_k, low -> high; U_{-1} = 0."""
    if k < 0:
        return (Fraction(0),)
    return _chebyshev(k, (Fraction(0), Fraction(2)))


def _chebyshev(k, first):
    """P_k of the recurrence P_{n+1} = 2x P_n - P_{n-1}, P_0 = 1, P_1 = first."""
    a, b = (Fraction(1),), first
    if k == 0:
        return a
    for _ in range(k - 1):
        a, b = b, poly_sub((Fraction(0),) + tuple(2 * c for c in b), a)
    return b


def minpoly_2cos(m: int):
    """Minimal polynomial of 2cos(2*pi/m) over Q, monic, low -> high."""
    from .fields import cyclotomic_minpoly
    if m == 1:
        return (Fraction(-2), Fraction(1))
    if m == 2:
        return (Fraction(2), Fraction(1))
    phi = cyclotomic_minpoly(m)
    n = len(phi) - 1
    half = n // 2
    # solve Phi_m(x) = x^half * q(x + 1/x) for q by triangular elimination
    rows = []
    for k in range(half + 1):
        # (x + 1/x)^k * x^half = sum C(k,i) x^{half + k - 2i}
        row = [Fraction(0)] * (n + 1)
        for i in range(k + 1):
            row[half + k - 2 * i] += comb(k, i)
        rows.append(row)
    q = [Fraction(0)] * (half + 1)
    target = [Fraction(c) for c in phi]
    for k in range(half, -1, -1):
        c = target[half + k] / rows[k][half + k]
        q[k] = c
        for j in range(n + 1):
            target[j] -= c * rows[k][j]
    if any(target):
        raise AssertionError("cyclotomic half-polynomial extraction failed")
    lead = q[-1]
    return tuple(c / lead for c in q)


def cos_field(m: int):
    """(field, scalar 2cos(2*pi/m)); the real cyclotomic field of the m-gon."""
    mp = minpoly_2cos(m)
    if len(mp) == 2:  # rational cosine
        F = QQ()
        return F, F.scalar(-mp[0])
    F = number_field(mp)
    return F, F.generator


def _polygon_vertices(field, two_c, m):
    """Regular m-gon vertices as raw affine triples (z = 1), y-rescaled."""
    c = two_c / 2
    pts = []
    for k in range(m):
        tx = poly_eval(chebyshev_t(k), c)
        uy = poly_eval(chebyshev_u(k - 1), c)
        pts.append((tx, uy, field.one))
    return pts


def _polygonal_lines(m: int):
    field, two_c = cos_field(m)
    raw = _polygon_vertices(field, two_c, m)
    verts = [ProjPoint(v) for v in raw]
    center = point(field, 0, 0, 1)
    lines = []
    for k in range(m):
        lines.append(join(verts[k], verts[(k + 1) % m]))  # edges
    axis_set = []
    for k in range(m):
        axis_set.append(join(center, verts[k]))
    for k in range(m):
        a, b = raw[k], raw[(k + 1) % m]
        mid = ProjPoint((a[0] + b[0], a[1] + b[1], field.scalar(2)))
        axis_set.append(join(center, mid))
    seen = set()
    for ax in axis_set:
        if ax.key() not in seen:
            seen.add(ax.key())
            lines.append(ax)
    return field, lines


def _build_polygonal(p):
    n = p["n"]
    if n < 6 or n % 2:
        raise CatalogError("polygonal takes an even line count 2m >= 6")
    m = n // 2
    return _polygonal_lines(m)


def _polygonal_profile(p):
    m = p["n"] // 2
    if m == 3:
        return {2: 3, 3: 4}
    return {2: m, 3: m * (m - 1) // 2, m: 1}


def _build_polygonal_ext(p):
    n = p["n"]
    if n < 9 or (n - 1) % 4:
        raise CatalogError("polygonal-ext takes a line count 4k+1 >= 9")
    field, lines = _polygonal_lines((n - 1) // 2)
    lines.append(line(field, 0, 0, 1))
    return field, lines


def _polygonal_ext_profile(p):
    k = (p["n"] - 1) // 4
    t = {2: 3 * k}
    if k >= 2:
        t[3] = t.get(3, 0) + 2 * k * (k - 1)
    t[4] = t.get(4, 0) + k
    t[2 * k] = t.get(2 * k, 0) + 1
    return t


# ---------------------------------------------------------------------------
# flashing and unassuming families

def _flashing3_matrix(F, t):
    one, zero = F.one, F.zero
    return [
        (zero, one, zero),
        (one, one, one),
        (one, t, one),
        (one, zero, zero),
        (zero, zero, one),
        (one, t * t - t + one, t),
    ]


def _build_flashing3(p):
    F, t = _scalar_param(p)
    return F, [ProjLine(c) for c in _flashing3_matrix(F, t)]


def _flashing3_forbidden(p):
    F, t = _scalar_param(p)
    bad = [F.zero, F.one, -F.one, F.scalar(Fraction(1, 2)), F.scalar(2)]
    if any(t == b for b in bad):
        return "t in the degenerate set {0, 1, -1, 1/2, 2, tau, tau^2} (tau^2-tau+1=0)"
    if (t * t - t + F.one).is_zero():
        return "t in the degenerate set {0, 1, -1, 1/2, 2, tau, tau^2} (tau^2-tau+1=0)"
    return None


def flashing3_partner_normals(field, t: Scalar):
    """The three lines replacing l4, l5, l6 after one flashing step."""
    one, zero = field.one, field.zero
    return [ProjLine((one, one, zero)), ProjLine((one, t, t)),
            ProjLine((zero, t, one))]


_FLASHING4_COLS = (
    ("1", "0", "0"),
    ("0", "0", "1"),
    ("t^2-1/2*t", "t^2-t+1/2", "t^2-1/2*t"),
    ("2*t^2", "2*t^2-2*t+1", "t^2"),
    ("1", "1", "1"),
    ("0", "1", "t"),
    ("t", "t-1", "0"),
    # the first entry must be 2t (not 2): only then does this line pass
    # through the common point of the middle quadruple, as the family needs
    ("2*t", "2*t-1", "t"),
    ("0", "1", "0"),
    ("2*t^2-t", "2*t^2-3*t+1", "t^2-t"),
    ("t", "t-1/2", "t-1/2"),
    ("1", "1", "t"),
)


def _flashing4_cols(t):
    """The columns of _FLASHING4_COLS, each entry a polynomial in t."""
    return [tuple(poly_eval(_parse_poly(e.replace("t", "x"), rational=True), t)
                  for e in col) for col in _FLASHING4_COLS]


def _build_flashing4(p):
    F, t = _scalar_param(p)
    cols = _flashing4_cols(t)
    part = p["part"]
    if part == "c0":
        cols = cols[:8]
    elif part == "c1":
        cols = cols[4:]
    elif part != "all":
        raise CatalogError("flashing4 part must be c0, c1 or all")
    return F, [ProjLine(c) for c in cols]


def _flashing4_forbidden(p):
    F, t = _scalar_param(p)
    bad = [F.zero, F.one, -F.one, F.scalar(Fraction(1, 2)), F.scalar(2)]
    if any(t == b for b in bad):
        return "t in the degenerate set {0, 1, -1, 1/2, 2, (1+i)/2, (1-i)/2}"
    if (F.scalar(2) * t * t - F.scalar(2) * t + F.one).is_zero():
        return "t in the degenerate set {0, 1, -1, 1/2, 2, (1+i)/2, (1-i)/2}"
    return None


def _flashing4_profile(p):
    if p["part"] == "all":
        return {2: 12, 3: 16, 4: 1}
    return {2: 22, 4: 1}


def _build_unassuming(p):
    F, t = _scalar_param(p)
    half = F.scalar(Fraction(1, 2))
    one, zero = F.one, F.zero
    a = half * (one + t)
    b = half * (one - t)
    cols = [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
        (one, one, one),
        (a, b, one),
        (b, a, one),
    ]
    return F, [ProjLine(c) for c in cols]


def _unassuming_forbidden(p):
    F, t = _scalar_param(p)
    if any(t == b for b in (F.zero, F.one, -F.one)):
        return "t in {0, 1, -1, infinity, 2+sqrt5, 2-sqrt5, -2+sqrt5, -2-sqrt5}"
    v1 = t * t - F.scalar(4) * t - F.one
    v2 = t * t + F.scalar(4) * t - F.one
    if v1.is_zero() or v2.is_zero():
        return "t in {0, 1, -1, infinity, 2+sqrt5, 2-sqrt5, -2+sqrt5, -2-sqrt5}"
    return None


def _build_gv13(p):
    F = QQ()
    a = F.scalar(p["a"])
    if a.is_zero():
        raise DegenerateParameterError("gv13: a must be nonzero")
    b = F.scalar(p["sign"]) / a
    one, zero = F.one, F.zero
    a2 = a * a
    b2 = b * b
    cols = [
        (one, zero, zero), (zero, one, zero), (zero, zero, one),
        (one, one, one), (one, one, a2), (one, a2, a2), (one, b2, one),
        (one, a2, a), (one, a, a), (one, a, one), (one, b2, b),
        (one, b, one), (one, b, b),
    ]
    return F, [ProjLine(c) for c in cols]


# ---------------------------------------------------------------------------
# classical incidence theorems: constructions

def _build_pappus(p):
    F = QQ()
    a = [F.scalar(p[k]) for k in ("a1", "a2", "a3")]
    b = [F.scalar(p[k]) for k in ("b1", "b2", "b3")]
    ps = [point(F, ai, 0, 1) for ai in a]
    qs = [point(F, bi, 1, 1) for bi in b]
    hexagon = [join(ps[0], qs[0]), join(qs[0], ps[1]), join(ps[1], qs[1]),
               join(qs[1], ps[2]), join(ps[2], qs[2]), join(qs[2], ps[0])]
    from .projective import incident
    x1 = meet(hexagon[0], hexagon[3])
    x2 = meet(hexagon[1], hexagon[4])
    x3 = meet(hexagon[2], hexagon[5])
    axis = join(x1, x2)
    if not incident(x3, axis):
        raise AssertionError("Pappus axis must contain the third meet")
    carriers = [line(F, 0, 1, 0), line(F, 0, 1, -1)]
    return F, carriers + hexagon + [axis]


def pappus_base_points(a=(0, 1, 3), b=(2, 3, 7)):
    """The 3+3 points on two lines feeding the Pappus construction."""
    F = QQ()
    pts = [point(F, ai, 0, 1) for ai in a] + [point(F, bi, 1, 1) for bi in b]
    return PointConfig(F, pts)


def _build_desargues9(p):
    F = QQ()
    v = [F.scalar(p[k]) for k in ("v1", "v2", "v3")]
    w = [F.scalar(p[k]) for k in ("w1", "w2", "w3")]
    spokes = [line(F, 1, 0, 0), line(F, 0, 1, 0), line(F, 1, -1, 0)]
    vs = [point(F, 0, v[0], 1), point(F, v[1], 0, 1), point(F, v[2], v[2], 1)]
    ws = [point(F, 0, w[0], 1), point(F, w[1], 0, 1), point(F, w[2], w[2], 1)]
    tri_v = [join(vs[0], vs[1]), join(vs[1], vs[2]), join(vs[2], vs[0])]
    tri_w = [join(ws[0], ws[1]), join(ws[1], ws[2]), join(ws[2], ws[0])]
    return F, spokes + tri_v + tri_w


def _build_hexagon_on_conic(p):
    F = QQ()
    ss = [F.scalar(p[k]) for k in ("s1", "s2", "s3", "s4", "s5", "s6")]
    if len({s.rep for s in ss}) != 6:
        raise CatalogError("hexagon-on-conic needs 6 distinct parameters")
    pts = [point(F, 1, s, s * s) for s in ss]
    return F, [join(pts[i], pts[(i + 1) % 6]) for i in range(6)]


def conic_point(field, s: Scalar) -> ProjPoint:
    """(1 : s : s^2) on the conic y^2 = xz."""
    return ProjPoint((field.one, s, s * s))


def generic_points_on_conic(n: int, seed: int = 1) -> PointConfig:
    """n rational points on one conic, genericity-checked and reseedable.

    The only genericity a conic cannot give for free is the simplicity of
    the crossings of the connecting lines; for n = 6 the builder insists
    on the generic crossing profile of the 15 connecting lines.
    """
    if n < 1:
        raise CatalogError("need n >= 1")
    F = QQ()
    for round_ in range(32):
        rng = _Lcg(seed + round_)
        vals = []
        seen = set()
        while len(vals) < n:
            s = Fraction(rng.small(-12, 12), rng.small(1, 4))
            if s not in seen:
                seen.add(s)
                vals.append(s)
        pts = [conic_point(F, F.scalar(s)) for s in vals]
        cfg = PointConfig(F, pts)
        if len(cfg) != n:
            continue
        if n == 6:
            from .arrangements import lines_operator
            joins = lines_operator(sel_exact(2), cfg)
            prof = profile(joins).as_dict()
            if prof != {2: 45, 5: 6}:
                continue
        return cfg
    raise GenericityError(f"no generic conic points within 32 rounds from seed {seed}")


def regular_hexagon_points() -> PointConfig:
    """Vertices of the regular hexagon over Q(sqrt3)."""
    F = number_field([-3, 0, 1])
    r = F.generator  # sqrt3
    half = F.scalar(Fraction(1, 2))
    one = F.one
    pts = [
        point(F, 1, 0, 1),
        ProjPoint((half, half * r, one)),
        ProjPoint((-half, half * r, one)),
        point(F, -1, 0, 1),
        ProjPoint((-half, -half * r, one)),
        ProjPoint((half, -half * r, one)),
    ]
    return PointConfig(F, pts)


def circumscribed_hexagon_vertices(svals=(-3, -1, 0, 1, 2, 5)) -> PointConfig:
    """Vertices of a hexagon whose sides are tangent to y^2 = xz."""
    F = QQ()
    tangents = []
    for s in svals:
        sc = F.scalar(Fraction(s))
        tangents.append(ProjLine((sc * sc, F.scalar(-2) * sc, F.one)))
    pts = [meet(tangents[i], tangents[(i + 1) % 6]) for i in range(6)]
    return PointConfig(F, pts)


# ---------------------------------------------------------------------------
# derived reflection-group arrangements (coordinates in catalog_data)

def _build_klein(p):
    from .catalog_data import klein_lines
    return klein_lines()


def _build_grunbaum_rigby(p):
    from .catalog_data import grunbaum_rigby_lines
    return grunbaum_rigby_lines()


def _build_wiman(p):
    from .catalog_data import wiman_lines
    return wiman_lines()


# ---------------------------------------------------------------------------
# registry

register(CatalogEntry(
    "trivial", "pencil of n concurrent lines",
    (("n", "int", 5),), _build_trivial,
    expected=lambda p: {p["n"]: 1} if p["n"] >= 2 else {}))

register(CatalogEntry(
    "quasi-trivial", "pencil of n-1 lines plus one transversal",
    (("n", "int", 4),), _build_quasi_trivial,
    expected=lambda p: {2: p["n"] - 1, p["n"] - 1: 1} if p["n"] >= 4
    else {2: 3}))

register(CatalogEntry(
    "generic", "n lines in general position (seeded, certified nodal)",
    (("n", "int", 5), ("seed", "seed", 1)), _build_generic,
    expected=lambda p: {2: comb(p["n"], 2)} if p["n"] >= 2 else {}))

register(CatalogEntry(
    "complete-quadrilateral", "the six lines through four general points",
    (("field", "field", None),), _build_complete_quadrilateral,
    expected=lambda p: None if (p.get("field") is not None
                                and p["field"].characteristic == 2)
    else {2: 3, 3: 4}))

register(CatalogEntry(
    "grid6", "x, x+z, x-z, y, y+z, y-z",
    (), _build_grid6, expected=lambda p: {2: 9, 3: 2}))

register(CatalogEntry(
    "parallel-pairs6", "three pairs of parallel lines, only nodes",
    (), _build_parallel_pairs6, expected=lambda p: {2: 15}))

register(CatalogEntry(
    "finite-plane", "all q^2+q+1 lines of the projective plane over GF(q)",
    (("q", "int", 3),), _build_finite_plane,
    expected=lambda p: {p["q"] + 1: p["q"] ** 2 + p["q"] + 1}))

register(CatalogEntry(
    "ceva", "the 3n lines (x^n-y^n)(x^n-z^n)(y^n-z^n) = 0 over Q(zeta_n)",
    (("n", "int", 3),), _build_ceva, expected=_ceva_profile))

register(CatalogEntry(
    "ceva-ext", "ceva(n) together with the three axes xyz = 0",
    (("n", "int", 3),), _build_ceva_ext, expected=_ceva_ext_profile))

register(CatalogEntry(
    "dual-hesse", "the nine lines with twelve triple points over Q(w)",
    (), _build_dual_hesse, expected=lambda p: {3: 12}))

register(CatalogEntry(
    "maclane", "dual Hesse minus one line (the 8_3 configuration)",
    (), _build_maclane, expected=lambda p: {2: 4, 3: 8}))

register(CatalogEntry(
    "hesse", "twelve lines, t2 = 12 and t4 = 9, from the MacLane image",
    (), _build_hesse, expected=lambda p: {2: 12, 4: 9}))

register(CatalogEntry(
    "polygonal", "regular m-gon edges and mirrors (n = 2m lines)",
    (("n", "int", 10),), _build_polygonal, expected=_polygonal_profile))

register(CatalogEntry(
    "polygonal-ext", "polygonal(4k) plus the line at infinity (n = 4k+1)",
    (("n", "int", 9),), _build_polygonal_ext, expected=_polygonal_ext_profile))

register(CatalogEntry(
    "flashing3", "six lines flashing with period 2 under exact (2,3)",
    (("t", "fraction", Fraction(3)), ("field", "field", None)),
    _build_flashing3, expected=lambda p: {2: 12, 3: 1},
    forbidden=_flashing3_forbidden))

register(CatalogEntry(
    "flashing4", "the 12-column family whose 8-line halves flash under exact (2,4)",
    (("t", "fraction", Fraction(3)), ("part", "str", "c0"),
     ("field", "field", None)),
    _build_flashing4, expected=_flashing4_profile,
    forbidden=_flashing4_forbidden))

register(CatalogEntry(
    "unassuming", "six nodal lines whose dual 2-rich web is t2=27, t3=t5=6",
    (("t", "fraction", Fraction(3)), ("field", "field", None)),
    _build_unassuming, expected=lambda p: {2: 15},
    forbidden=_unassuming_forbidden))

register(CatalogEntry(
    "gv13", "the 13-line family with two moduli components (b = sign/a)",
    (("a", "fraction", Fraction(2)), ("sign", "sign", 1)),
    _build_gv13, expected=lambda p: {2: 25, 3: 11, 5: 2}))

register(CatalogEntry(
    "pappus", "the 9_3 configuration from 3+3 points on two lines",
    (("a1", "fraction", Fraction(0)), ("a2", "fraction", Fraction(1)),
     ("a3", "fraction", Fraction(3)), ("b1", "fraction", Fraction(2)),
     ("b2", "fraction", Fraction(3)), ("b3", "fraction", Fraction(7))),
    _build_pappus, expected=lambda p: {2: 9, 3: 9}))

register(CatalogEntry(
    "desargues9", "two triangles perspective from a point: nine lines",
    (("v1", "fraction", Fraction(1)), ("v2", "fraction", Fraction(2)),
     ("v3", "fraction", Fraction(3)), ("w1", "fraction", Fraction(4)),
     ("w2", "fraction", Fraction(6)), ("w3", "fraction", Fraction(9))),
    _build_desargues9, expected=lambda p: {2: 15, 3: 7}))

register(CatalogEntry(
    "hexagon-on-conic", "six hexagon sides with vertices on y^2 = xz",
    (("s1", "fraction", Fraction(-5)), ("s2", "fraction", Fraction(-2)),
     ("s3", "fraction", Fraction(-1)), ("s4", "fraction", Fraction(1)),
     ("s5", "fraction", Fraction(2)), ("s6", "fraction", Fraction(4))),
    _build_hexagon_on_conic, expected=lambda p: {2: 15}))

register(CatalogEntry(
    "klein", "the 21 reflection lines with t3 = 28, t4 = 21 over Q(sqrt-7)",
    (), _build_klein, expected=lambda p: {3: 28, 4: 21}))

register(CatalogEntry(
    "grunbaum-rigby", "the real 21-line configuration with t2=63, t3=7, t4=21",
    (), _build_grunbaum_rigby, expected=lambda p: {2: 63, 3: 7, 4: 21}))

register(CatalogEntry(
    "wiman", "the 45 reflection lines with t3=120, t4=45, t5=36 (heavy)",
    (), _build_wiman, expected=lambda p: {3: 120, 4: 45, 5: 36}, heavy=True))
