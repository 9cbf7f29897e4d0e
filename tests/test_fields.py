import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from lineops import arrangements
from lineops import fields as fl
from lineops.arrangements import Arrangement
from lineops.catalog import build
from lineops.fields import (FieldError, GF, QQ, cyclotomic_field,
                            cyclotomic_minpoly, field_make, number_field,
                            parse_field_spec, parse_scalar, format_scalar,
                            real_embedding)
from lineops.projective import Matrix3, ProjLine, Projectivity, apply_projectivity

from conftest import nf_fractions, nf_rep, reference_nf_ops


def sample_fields():
    return [
        QQ(),
        number_field([1, 1, 1]),       # w^2 + w + 1 = 0
        number_field([-5, 0, 1]),      # sqrt5
        number_field([Fraction(-1, 2), 0, 1]),  # sqrt(1/2)
        number_field([Fraction(1, 5), Fraction(1, 3), 1]),  # x^2 + x/3 + 1/5
        cyclotomic_field(7),
        GF(7),
        GF(4),
        GF(9),
    ]


def random_scalar(field, rng):
    if field.kind == fl.RATIONALS:
        return field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if field.kind == fl.PRIME_FIELD:
        return field.scalar(rng.randint(0, field.characteristic - 1))
    x = field.generator
    acc = field.zero
    for e in range(field.degree):
        acc = acc + field.scalar(rng.randint(-4, 4)) * x ** e
    return acc


def test_rational_arithmetic():
    F = QQ()
    assert F.scalar(Fraction(1, 2)) + F.scalar(Fraction(1, 3)) == Fraction(5, 6)
    assert (F.scalar(3) / F.scalar(4)).rep == Fraction(3, 4)


def test_cube_root_of_unity():
    K = number_field([1, 1, 1])
    w = K.generator
    assert w * w ** 2 == K.one
    assert (w * w + w + K.one).is_zero()


def test_golden_ratio_inverse():
    K = number_field([-5, 0, 1])
    sqrt5 = K.generator
    phi = (K.one + sqrt5) / 2
    expected = (sqrt5 - K.one) / 2
    assert phi.inverse() == expected
    assert phi * expected == K.one


def test_field_axioms_randomized():
    rng = random.Random(7)
    for field in sample_fields():
        for _ in range(25):
            a, b, c = (random_scalar(field, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inverse() == field.one
            # the reflected operators and negative powers, with an int on the left
            n = rng.randrange(2, 9)
            assert (n - a) + a == n
            if not a.is_zero():
                assert (n / a) * a == n
                assert a ** -1 == a.inverse() and a ** -2 * (a * a) == field.one


def test_canonicity_randomized():
    rng = random.Random(11)
    for field in sample_fields():
        for _ in range(25):
            a, b = random_scalar(field, rng), random_scalar(field, rng)
            assert ((a - b).is_zero()) == (a.rep == b.rep)


def test_characteristic_sums():
    for p in (2, 3, 5, 7):
        field = GF(p)
        acc = field.zero
        for _ in range(p):
            acc = acc + field.one
        assert acc.is_zero()
    G4 = GF(4)
    assert (G4.one + G4.one).is_zero()


def test_cyclotomic_values():
    assert cyclotomic_minpoly(3) == (1, 1, 1)
    assert cyclotomic_minpoly(4) == (1, 0, 1)
    # derived by dividing x^15 - 1 by Phi_1 Phi_3 Phi_5
    assert cyclotomic_minpoly(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
    # 31 is prime, so Phi_31 = 1 + x + ... + x^30; no order is capped
    assert cyclotomic_minpoly(31) == (1,) * 31
    with pytest.raises(FieldError):
        cyclotomic_minpoly(1)
    # every cyclotomic modulus passes the irreducibility tests
    for n in range(3, 31):
        assert cyclotomic_field(n).degree == len(cyclotomic_minpoly(n)) - 1


def test_cyclotomic_root_reduction():
    for n in (3, 4, 5, 6, 7, 12, 15):
        K = cyclotomic_field(n)
        z = K.generator
        acc = K.zero
        for c in reversed(cyclotomic_minpoly(n)):
            acc = acc * z + K.scalar(c)
        assert acc.is_zero()
        assert z ** n == K.one


def test_mixing_fields_is_an_error():
    a = QQ().scalar(1)
    b = GF(7).scalar(1)
    with pytest.raises(FieldError):
        a + b
    with pytest.raises(FieldError):
        number_field([1, 1, 1]).scalar(QQ().scalar(2))


def test_division_by_zero():
    F = QQ()
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero
    with pytest.raises(ZeroDivisionError):
        GF(5).zero.inverse()


def test_bad_specs_rejected():
    with pytest.raises(FieldError):
        field_make(fl.FieldSpec(fl.PRIME_FIELD, 6, None))
    with pytest.raises(FieldError):
        number_field([2, 0, 2])          # not monic
    with pytest.raises(FieldError):
        number_field([0, 0, 1])          # x^2, not squarefree
    with pytest.raises(FieldError):
        number_field([-1, 0, 1])         # rational roots
    with pytest.raises(FieldError):
        number_field([0, -1, 0, 0, 0, 1])     # x^5-x, root 0
    with pytest.raises(FieldError):
        number_field([-1, 0, 0, 0, 0, 0, 1])  # x^6-1, root 1
    with pytest.raises(FieldError):
        number_field([2, 0, 3, 0, 1])         # (x^2+1)(x^2+2)
    with pytest.raises(FieldError):
        number_field([1, 1, 1, 2, 0, 1])      # (x^2+1)(x^3+x+1)
    with pytest.raises(FieldError):
        # (x^2+3x+1)(x^2-3x+1): each factor is negative at 1 or at -1
        number_field([1, 0, -7, 0, 1])
    with pytest.raises(FieldError):
        # 4x^4+1 = (2x^2+2x+1)(2x^2-2x+1): the factors are integral only
        # after scaling (Gauss's lemma)
        number_field([Fraction(1, 4), 0, 0, 0, 1])
    # irreducible with no rational root; x^4-10x^2+1 factors mod every prime
    for mp in ([-2, 0, 0, 0, 1], [1, 0, -10, 0, 1], [-1, -1, 0, 0, 0, 1]):
        assert number_field(mp).degree == len(mp) - 1
    with pytest.raises(FieldError):
        GF(12)
    with pytest.raises(FieldError):
        GF(128)                          # above the stored-order cap
    with pytest.raises(FieldError):
        GF(32, (1, 0, 0, 0, 1, 1))       # (x^2+x+1)(x^3+x+1), no root
    with pytest.raises(FieldError):
        GF(64, (1, 1, 1, 1, 1, 1, 1))    # (x^3+x+1)(x^3+x^2+1)


def _monic_polys(p, d):
    """Every monic polynomial of degree d over GF(p), low -> high."""
    return [c + (1,) for c in itertools.product(range(p), repeat=d)]


def _poly_mul_mod_p(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _shift_add_mul(a, b, modulus, p):
    """a*b in GF(p)[x]/(modulus) by Horner on b: acc = acc*x + b_i."""
    k = len(modulus) - 1
    acc = [0] * k
    for bi in reversed(b):
        top = acc[-1]
        acc = [0] + acc[:-1]                      # times x, dropping x^k
        acc = [(c - top * m) % p for c, m in zip(acc, modulus)]
        acc = [(c + bi * ai) % p for c, ai in zip(acc, a)]
    return tuple(acc)


def test_stock_prime_power_polys_are_irreducible():
    # brute force: no monic factor of degree 1..deg/2 over GF(p)
    for q, coeffs in fl._STOCK_IRREDUCIBLES.items():
        p = fl._char_of_order(q)
        deg = len(coeffs) - 1
        for d in range(1, deg // 2 + 1):
            for g in _monic_polys(p, d):
                for h in _monic_polys(p, deg - d):
                    assert _poly_mul_mod_p(g, h, p) != coeffs, \
                        f"GF({q}) modulus has a degree-{d} factor"


def test_prime_power_tables_match_shift_and_add():
    for q, coeffs in fl._STOCK_IRREDUCIBLES.items():
        F = GF(q)
        p, k = F.characteristic, F.degree
        one = F.one.rep
        elems = list(itertools.product(range(p), repeat=k))
        for a in elems:
            for b in elems:
                assert F.r_mul(a, b) == _shift_add_mul(a, b, coeffs, p), \
                    f"GF({q}): {a} * {b}"
            if any(a):
                assert _shift_add_mul(a, F.r_inv(a), coeffs, p) == one, \
                    f"GF({q}): 1/{a}"
        with pytest.raises(ZeroDivisionError):
            F.zero.inverse()


def test_fraction_scalar_in_prime_power_field():
    F = GF(9)
    with pytest.raises(FieldError):
        F.scalar(Fraction(1, 3))
    # the same rule for a coefficient read from text
    with pytest.raises(FieldError, match="divisible by characteristic"):
        parse_scalar(GF(4), "1/2*x")
    with pytest.raises(FieldError, match="divisible by characteristic"):
        parse_field_spec("GF(4;x^2+x+1/2)")
    half = F.scalar(Fraction(1, 2))
    assert half * 2 == F.one
    assert half.rep == (2, 0)


def test_negative_exponent_rejected():
    """A term in x^-k is an error, not a term dropped from the sum."""
    K = number_field([1, 1, 1])
    for text in ("2*x^-1+3", "x^-1", "-x^-2"):
        with pytest.raises(FieldError, match="negative exponent"):
            parse_scalar(K, text)
    assert parse_scalar(K, "2*x^0+3") == K.scalar(5)
    for text in ("Q[x]/(x^2-x^-1+1)", "GF(4;x^2+x^-1+1)"):
        with pytest.raises(FieldError, match="negative exponent"):
            parse_field_spec(text)


def test_field_spec_text_roundtrip():
    for text in ("Q", "Q[x]/(x^2+x+1)", "GF(7)", "GF(4;x^2+x+1)",
                 "Q[x]/(x^3-1/2*x-1/8)"):
        spec = parse_field_spec(text)
        assert parse_field_spec(spec.text) == spec


def test_field_spec_hash_is_the_dataclass_hash():
    """Specs built apart are equal and hash equal, to the value the
    dataclass hash of (kind, characteristic, min_poly) gives, so set and
    dict orders do not depend on the cached hash; a pickled spec rehashes."""
    for make, arg in ((fl.rationals_spec, None), (fl.number_field_spec, [1, 1, 1]),
                      (parse_field_spec, "Q[x]/(x^2-1/2)"),
                      (fl.prime_field_spec, 7), (fl.gf_spec, 49)):
        a, b = (make() if arg is None else make(arg) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.kind, a.characteristic, a.min_poly))
        c = pickle.loads(pickle.dumps(a))
        assert c == a and hash(c) == hash(a)
        x, y = field_make(a).one, field_make(b).one
        assert x == y and hash(x) == hash(y)
    assert QQ().spec != GF(7).spec


def test_scalar_text_roundtrip():
    rng = random.Random(3)
    for field in sample_fields():
        for _ in range(10):
            s = random_scalar(field, rng)
            assert parse_scalar(field, format_scalar(s)) == s


def test_real_embedding():
    assert real_embedding(QQ().scalar(Fraction(5, 6))) == pytest.approx(5 / 6, abs=1e-12)
    K = number_field([-5, 0, 1])
    assert real_embedding(K.generator, 1) == pytest.approx(5 ** 0.5, abs=1e-9)
    assert real_embedding(K.generator, 0) == pytest.approx(-(5 ** 0.5), abs=1e-9)
    Kw = number_field([1, 1, 1])
    with pytest.raises(FieldError):
        real_embedding(Kw.generator)
    with pytest.raises(FieldError):
        real_embedding(K.generator, 2)


def test_generator_only_for_extensions():
    with pytest.raises(FieldError):
        QQ().generator
    with pytest.raises(FieldError):
        GF(5).generator


# -- the generated adjugate against Bareiss elimination --------------------------
#
# ``fields._adjugate(g)`` is straight-line code from Cayley-Hamilton.  The
# reference takes the other road: the first column of the adjugate of e's
# multiplication matrix by Bareiss's fraction-free elimination (Cohen, A Course
# in Computational Algebraic Number Theory, 2.2).  Both give e*w = d, so their
# primitive (d, w) with d > 0 must agree.

def _bareiss_adjugate(e, g):
    """(d, w) with e*w = d in Z[theta]/(g), by fraction-free elimination."""
    n = len(e)
    cols = [list(e)]  # column j of the multiplication matrix is e*theta^j
    for _ in range(n - 1):
        v = cols[-1]
        t = v[-1]
        cols.append([-t * g[0]] + [v[i - 1] - t * g[i] for i in range(1, n)])
    rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            raise FieldError("non-invertible element (reducible modulus)")
        rows[k], rows[piv] = rows[piv], rows[k]
        rk = rows[k]
        for ri in rows[k + 1:]:
            for j in range(k + 1, n + 1):
                ri[j] = (ri[j] * rk[k] - ri[k] * rk[j]) // prev
        prev = rk[k]
    d = prev
    w = [0] * n
    for i in range(n - 1, -1, -1):
        ri = rows[i]
        w[i] = (d * ri[n] - sum(ri[j] * w[j] for j in range(i + 1, n))) // ri[i]
    return d, w


def _zmul(a, b, g):
    """a*b in Z[theta]/(g): the full product, then theta^n = -(g0 + ... )
    substituted from the top degree down."""
    n = len(g) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        t, prod[k] = prod[k], 0
        for i in range(n):
            prod[k - n + i] -= t * g[i]
    return prod[:n]


def _primitive(d, w):
    h = math.gcd(d, *w)
    h = -h if d < 0 else h
    return (d // h, *(v // h for v in w))


ADJUGATE_FIELDS = {
    "Q(omega)": lambda: number_field([1, 1, 1]),
    "x^2-1/2": lambda: number_field([Fraction(-1, 2), 0, 1]),
    "cubic": lambda: number_field([1, -2, -1, 1]),
    "x^3+x/2+1/3": lambda: number_field([Fraction(1, 3), Fraction(1, 2), 0, 1]),
    "Q(zeta_5)": lambda: cyclotomic_field(5),
    "Q(zeta_7)": lambda: cyclotomic_field(7),
    "Q(zeta_15)": lambda: cyclotomic_field(15),
    "Q(zeta_13)": lambda: cyclotomic_field(13),
    "Q(zeta_29)": lambda: cyclotomic_field(29),
}


@pytest.mark.parametrize("name", sorted(ADJUGATE_FIELDS))
def test_generated_adjugate_matches_bareiss(name):
    g = fl._nf_codec(ADJUGATE_FIELDS[name]().spec)[1]
    n = len(g) - 1
    fl._adjugate.cache_clear()
    t0 = time.perf_counter()
    adj = fl._adjugate(g)
    assert time.perf_counter() - t0 < 1.0  # the degree-28 code builds in ~0.1 s
    rng = random.Random(n)
    for trial in range(60 if n < 12 else 8):
        e = [rng.randint(-9, 9) for _ in range(n)] if trial else [0] * (n - 1) + [1]
        if not any(e):
            continue
        d, *w = adj(*e)
        assert _zmul(e, w, g) == [d] + [0] * (n - 1)
        assert _primitive(d, w) == _primitive(*_bareiss_adjugate(e, g))


def test_adjugate_degrees():
    degrees = {make().degree for make in ADJUGATE_FIELDS.values()}
    assert degrees == {2, 3, 4, 6, 8, 12, 28}
    # the codec cases: theta = c*x with c > 1
    assert {fl._nf_codec(ADJUGATE_FIELDS[k]().spec)[0]
            for k in ("x^2-1/2", "x^3+x/2+1/3")} == {2, 6}


@pytest.mark.parametrize("mp", [
    [1, 1, 1],                                  # Q(omega)
    [1, -2, -1, 1],                             # the Grunbaum-Rigby cubic
    cyclotomic_minpoly(5), cyclotomic_minpoly(7),
    [Fraction(1, 3), Fraction(1, 2), 0, 1],     # x^3 + x/2 + 1/3
])
def test_inverse_matches_sympy(mp):
    """An oracle that shares no code with lineops: sympy's inverse modulo
    the minimal polynomial over QQ."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    field = number_field(mp)
    n = field.degree
    modulus = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                          for c in reversed(field.spec.min_poly)], x, domain="QQ")
    rng = random.Random(n)
    for _ in range(20):
        rep = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
        if not any(rep):
            continue
        inv = sympy.invert(sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                       for c in reversed(rep)], x, domain="QQ"),
                           modulus)
        want = [Fraction(int(c.p), int(c.q)) for c in reversed(inv.all_coeffs())]
        want += [Fraction(0)] * (n - len(want))
        assert nf_fractions(field, field.from_rep(nf_rep(field, rep)).inverse().rep) \
            == tuple(want)


# -- the generated number-field product against schoolbook Fractions -------------
#
# ``Field.r_mul`` over Q[x]/(f) is straight-line integer code from
# ``fields._nf_ops``.  The reference is the schoolbook product on Fraction
# coefficients, reduced by the monic f from the top degree down.

def _mulmod(a, b, min_poly):
    """a*b, reduced by the monic min_poly from the top degree down."""
    n = len(min_poly) - 1
    prod = [min_poly[0] * 0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    for e in range(2 * n - 2, n - 1, -1):
        t = prod[e]
        if t:
            for i in range(n):
                if min_poly[i]:
                    prod[e - n + i] -= t * min_poly[i]
    return tuple(prod[:n])


PRODUCT_FIELDS = {
    **{f"x^{n}-2": (lambda n=n: number_field([-2] + [0] * (n - 1) + [1]))
       for n in range(2, 13)},  # Eisenstein at 2
    **{f"Q(zeta_{m})": (lambda m=m: cyclotomic_field(m)) for m in (3, 5, 7, 9, 13)},
    "cubic": lambda: number_field([1, -2, -1, 1]),
    "x^2-1/2": lambda: number_field([Fraction(-1, 2), 0, 1]),
    "x^3+x/2+1/3": lambda: number_field([Fraction(1, 3), Fraction(1, 2), 0, 1]),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
def test_generated_product_matches_mulmod(name):
    field = PRODUCT_FIELDS[name]()
    n, mp = field.degree, field.spec.min_poly
    rng = random.Random(n)

    def rep(kind):
        if kind == "zero":
            return (Fraction(0),) * n
        if kind == "int":  # integer coefficients, as Fractions and as ints
            return tuple(rng.choice((Fraction, int))(rng.randint(-9, 9)) for _ in range(n))
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n))
    kinds = ("zero", "int", "frac")
    for ka, kb in list(itertools.product(kinds, kinds)) + [("frac", "frac")] * 30:
        a, b = rep(ka), rep(kb)
        got = field.r_mul(nf_rep(field, a), nf_rep(field, b))
        assert nf_fractions(field, got) == _mulmod(a, b, mp)
        # the canonical rep: n + 1 coprime ints, a positive denominator last
        assert len(got) == n + 1 and all(type(v) is int for v in got)
        assert got[-1] > 0 and math.gcd(*got) == 1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_gf_product_table_matches_mulmod(q):
    """GF(p^k) products come from generated Z[x]/(f) code, reduced mod p."""
    spec = GF(q).spec
    p = spec.characteristic
    fl._gf_tables.cache_clear()
    elems, code, mul, _, _ = fl._gf_tables(spec)
    assert mul == [code[tuple(v % p for v in _mulmod(a, b, spec.min_poly))]
                   for a in elems for b in elems]


def test_product_degrees():
    fields = [make() for make in PRODUCT_FIELDS.values()]
    assert {f.degree for f in fields} == set(range(2, 13))
    assert {fl._nf_codec(f.spec)[0] for f in fields} == {1, 2, 6}


# -- integer reps against the Fraction reference ---------------------------------
#
# A number-field rep is (a0, ..., a(n-1), d), sum a_i theta^i / d; the
# reference is the arithmetic on Fraction coefficients the program had
# before (``conftest.reference_nf_ops``), reached through ``nf_rep`` and
# ``nf_fractions``.

INTEGER_REP_FIELDS = {
    "Q(omega)": lambda: number_field([1, 1, 1]),
    "Q(sqrt-7)": lambda: build("klein").field,
    "cubic": lambda: number_field([1, -2, -1, 1]),  # the Grunbaum-Rigby field
    "quartic": lambda: number_field([31, -8, -7, 2, 1]),  # Q(omega, sqrt5), Wiman's
    "x^2+x/3+1/5": lambda: number_field([Fraction(1, 5), Fraction(1, 3), 1]),
}


def _random_coefficients(rng, n):
    kind = rng.choice(("zero", "int", "small", "large"))
    if kind == "zero":
        return (Fraction(0),) * n
    if kind == "int":
        return tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
    top = 10 if kind == "small" else 10 ** 12
    return tuple(Fraction(rng.randint(-top, top), rng.randint(1, top)) for _ in range(n))


@pytest.mark.parametrize("name", sorted(INTEGER_REP_FIELDS))
def test_integer_reps_match_fraction_reference(name):
    """add, sub, neg, mul and inv on reps agree with the Fraction
    reference; every result is canonical (coprime ints, denominator > 0),
    so equal values have equal reps, ``==`` and hashes; and the text of a
    scalar is the reference's coefficients printed, which parses back."""
    field = INTEGER_REP_FIELDS[name]()
    n = field.degree
    add, sub, neg, mul, inv = reference_nf_ops(field.spec)
    rng = random.Random(33)
    values = [_random_coefficients(rng, n) for _ in range(60)]
    values.append((Fraction(0),) * n)
    for a, b in zip(values, values[1:] + values[:1]):
        ra, rb = nf_rep(field, a), nf_rep(field, b)
        assert nf_fractions(field, ra) == a
        got = {"add": field.r_add(ra, rb), "sub": field.r_sub(ra, rb),
               "neg": field.r_neg(ra), "mul": field.r_mul(ra, rb)}
        want = {"add": add(a, b), "sub": sub(a, b), "neg": neg(a), "mul": mul(a, b)}
        if any(a):
            got["inv"], want["inv"] = field.r_inv(ra), inv(a)
        else:
            with pytest.raises(ZeroDivisionError):
                field.r_inv(ra)
        for op, rep in got.items():
            assert nf_fractions(field, rep) == want[op], op
            assert rep == nf_rep(field, want[op]), op  # the canonical rep
            assert rep[-1] > 0 and math.gcd(*rep) == 1
        s, t = field.from_rep(ra), field.from_rep(rb)
        back = (s + t) * t / t - t if any(b) else s * 1
        assert back == s and back.rep == s.rep and hash(back) == hash(s)
        assert (s == t) == (a == b) and (s == field.scalar(a[0])) == (not any(a[1:]))
        text = format_scalar(s)
        assert text == fl._format_poly(a)
        assert parse_scalar(field, text) == s


INTEGER_REP_ARRANGEMENTS = {
    "dual-hesse": lambda: build("dual-hesse"),
    "klein": lambda: build("klein"),
    "grunbaum-rigby": lambda: build("grunbaum-rigby"),
    "quartic": lambda: _lines_over(INTEGER_REP_FIELDS["quartic"]()),
    "x^2+x/3+1/5": lambda: _lines_over(INTEGER_REP_FIELDS["x^2+x/3+1/5"]()),
}


def _lines_over(field):
    """Fourteen seeded lines whose coordinates are not integral."""
    x, rng = field.generator, random.Random(7)
    return Arrangement(field, [ProjLine([
        field.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) + x * rng.randint(-3, 3)
        for _ in range(3)]) for _ in range(14)])


def _moved_lines(arr, seed):
    """The lines moved by a seeded projectivity with entries off Z."""
    field, rng = arr.field, random.Random(seed)
    x = field.generator
    while True:
        m = Matrix3([[field.scalar(rng.randint(-2, 2)) + x * Fraction(rng.randint(-2, 2), 3)
                      for _ in range(3)] for _ in range(3)])
        if not m.det().is_zero():
            return [apply_projectivity(Projectivity(m), l) for l in arr.lines]


@pytest.mark.parametrize("name", sorted(INTEGER_REP_ARRANGEMENTS))
def test_integer_reps_round_trip_through_codes(name):
    """Projectively moved lines encode as the reference encoding of their
    Fraction coordinates (the primitive integer vector on the basis
    theta^i), and ``_from_key`` decodes each code to the same line, whose
    coordinates are the reference decoding v c^i / k."""
    arr = INTEGER_REP_ARRANGEMENTS[name]()
    field = arr.field
    c, n = fl._nf_codec(field.spec)[0], field.degree
    for lines in (list(arr.lines), _moved_lines(arr, 1), _moved_lines(arr, 2)):
        codes = arrangements._encode(lines, field)
        for l, code in zip(lines, codes):
            coeffs = [f for s in l.coeffs for f in nf_fractions(field, s.rep)]
            den = math.lcm(*(f.denominator * c ** (i % n) for i, f in enumerate(coeffs)))
            ints = [f.numerator * den // (f.denominator * c ** (i % n))
                    for i, f in enumerate(coeffs)]
            assert code == tuple(v // math.gcd(*ints) for v in ints)
            back = arrangements._from_key(ProjLine, code, field)
            assert back == l and back.key() == l.key()
            k = next(filter(None, code))
            assert tuple(f for s in back.coeffs for f in nf_fractions(field, s.rep)) == tuple(
                Fraction(v * c ** (i % n), k) for i, v in enumerate(code))


def test_integer_reps_encode_and_decode_without_fractions(monkeypatch):
    """Encoding number-field objects, decoding their codes, moving them by
    a projectivity and number-field arithmetic construct no Fraction,
    counted through a patched constructor."""
    arrs = [INTEGER_REP_ARRANGEMENTS[name]() for name in sorted(INTEGER_REP_ARRANGEMENTS)]
    matrices = [Matrix3.from_values(arr.field, [[1, 2, 0], [0, 1, -1], [2, 0, 1]])
                for arr in arrs]
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    if hasattr(Fraction, "_from_coprime_ints"):  # Fraction arithmetic, Python >= 3.12
        coprime = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, *args: made.append(args) or coprime(cls, *args)))
    assert Fraction(1, 2) + Fraction(1, 3) and made  # the counter counts
    made.clear()
    for arr, m in zip(arrs, matrices):
        field, lines = arr.field, list(arr.lines)
        codes = arrangements._encode(lines, field)
        assert [arrangements._from_key(ProjLine, k, field) for k in codes] == lines
        g = Projectivity(m)
        moved = Arrangement(field, [apply_projectivity(g, l) for l in lines])
        assert len(moved) == len(lines)
        a, b = lines[1].coeffs[1], lines[2].coeffs[2]
        assert (a * b + a - b) / (b + 1) * (b + 1) == a * b + a - b
        assert not m.det().is_zero()
    assert made == []
