import itertools
import random
from fractions import Fraction

import pytest

from lineops import fields as fl
from lineops.fields import (FieldError, GF, QQ, cyclotomic_field,
                            cyclotomic_minpoly, field_make, number_field,
                            parse_field_spec, parse_scalar, format_scalar,
                            real_embedding)


def sample_fields():
    return [
        QQ(),
        number_field([1, 1, 1]),       # w^2 + w + 1 = 0
        number_field([-5, 0, 1]),      # sqrt5
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
    with pytest.raises(FieldError):
        cyclotomic_minpoly(31)
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
    half = F.scalar(Fraction(1, 2))
    assert half * 2 == F.one
    assert half.rep == (2, 0)


def test_field_spec_text_roundtrip():
    for text in ("Q", "Q[x]/(x^2+x+1)", "GF(7)", "GF(4;x^2+x+1)",
                 "Q[x]/(x^3-1/2*x-1/8)"):
        spec = parse_field_spec(text)
        assert parse_field_spec(spec.text) == spec


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
