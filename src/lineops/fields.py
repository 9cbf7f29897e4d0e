"""Exact arithmetic over Q, number fields Q[x]/(f) and finite fields.

Every scalar carries a canonical representative, so equality is literal
comparison of representatives and scalars can be used as dict/set keys.
A number-field representative is one integer vector of Z[theta] over a
common denominator, and its arithmetic is generated integer code.
No floating point enters the exact path; floats appear only in
``real_embedding`` (rendering support).
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union


class FieldError(Exception):
    """Invalid field description or operation outside a field's rules."""


RATIONALS = "rationals"
NUMBER_FIELD = "number_field"
PRIME_FIELD = "prime_field"
PRIME_POWER_FIELD = "prime_power_field"

# Irreducible polynomials (coefficients low -> high, monic) for the small
# prime-power fields we ship, order <= 64.
_STOCK_IRREDUCIBLES = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 1, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
}


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _residue(value: Fraction, p: int) -> int:
    """The residue of a rational mod the prime p."""
    if value.denominator % p == 0:
        raise FieldError("denominator divisible by characteristic")
    return value.numerator * pow(value.denominator, p - 2, p) % p


# ---------------------------------------------------------------------------
# polynomial helpers (dense coefficient lists, low degree first)

def poly_trim(p: Sequence) -> tuple:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_divmod(p, q):
    """Division with remainder over a field (coefficients support /)."""
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(poly_trim(p))
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q):
        c = p[-1] / lead
        d = len(p) - len(q)
        quot[d] = c
        for i, b in enumerate(q):
            p[d + i] -= c * b
        while p and not p[-1]:
            p.pop()
    return poly_trim(quot), poly_trim(p)


def poly_deriv(p):
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_gcd(p, q):
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return p


def poly_eval(p, x):
    """p(x) by Horner's rule; x may be an int, Fraction, float or Scalar."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _compiled(src: list, name: str, **names):
    """The function ``name`` that the generated source lines ``src`` define:
    its ``def`` line, then its body, which is indented here by one space.
    ``names`` are its globals.  Every generated function compiles here."""
    exec("\n ".join(src), names)
    return names[name]


class _GFTables(NamedTuple):
    elems: list  # code -> representative (tuple of least residues)
    code: dict   # representative -> code
    mul: list    # mul[a * q + b] is the code of a*b
    sub: list    # sub[a * q + b] is the code of a-b
    inv: list    # inv[a] is the code of 1/a for a != 0; inv[0] == 0


@lru_cache(maxsize=None)
def _gf_tables(spec: "FieldSpec") -> _GFTables:
    """Integer-coded arithmetic of GF(p)[x]/(f), built once per spec; a
    prime spec reads as GF(p)[x]/(x), whose code of a residue is itself.

    Element ``i`` is the residue tuple of the base-p digits of ``i``, low
    digit first, so code 0 is zero and code 1 is one.  Only a unit has an
    inverse, so ``mul`` holds q - 1 ones exactly when f is irreducible: the
    tables double as the irreducibility test.
    """
    p, mp = spec.characteristic, spec.min_poly or (0, 1)
    n = len(mp) - 1
    elems = [t[::-1] for t in itertools.product(range(p), repeat=n)]
    code = {e: i for i, e in enumerate(elems)}
    # the product in Z[x]/(mp) from ``_mul_src``, then its residues mod p
    va, vb = (", ".join(f"{v}{i}" for i in range(n)) for v in "ab")
    src = [f"def mul({va}, {vb}):", *_mul_src(mp, "c", (1, "a", "b")),
           "return code[" + "".join(f"c{i} % {p}, " for i in range(n)) + "]"]
    product = _compiled(src, "mul", code=code)
    mul = [product(*x, *y) for x in elems for y in elems]
    sub = [code[tuple((x - y) % p for x, y in zip(a, b))]
           for a in elems for b in elems]
    q = len(elems)
    inv = [0] * q
    for i, c in enumerate(mul):
        if c == 1:
            inv[i // q] = i % q
    return _GFTables(elems, code, mul, sub, inv)


@lru_cache(maxsize=None)
def _nf_codec(spec: "FieldSpec") -> tuple:
    """(c, g) for Q[x]/(f): theta = c*x is a root of the monic integer g.

    c is the least common denominator of f's coefficients, and
    g(y) = c^n f(y/c).  Z[theta] holds the kernel's integer coordinates.
    """
    mp = spec.min_poly
    n = len(mp) - 1
    c = math.lcm(*(a.denominator for a in mp))
    return c, tuple(int(a * c ** (n - i)) for i, a in enumerate(mp))


def _theta_powers(g: tuple) -> list:
    """theta^k on the basis 1, theta, ..., theta^(n-1), for 0 <= k <= 2n - 2."""
    n = len(g) - 1
    pw = [[int(i == k) for i in range(n)] for k in range(n)]
    for _ in range(n - 1):  # theta^k = theta * theta^(k-1), reduced by g
        pw.append([a - pw[-1][-1] * c for a, c in zip([0] + pw[-1][:-1], g)])
    return pw


def _lin(terms) -> str:
    """Source of the sum of k * e over the terms (k != 0, e)."""
    return " ".join(("- " if k < 0 else "+ ") + (e if abs(k) == 1 else f"{abs(k)} * {e}")
                    for k, e in terms).removeprefix("+ ")


def _mul_src(g: tuple, out: str, *products) -> list:
    """Source lines setting out0, out1, ... to the sum of sign * a * b over
    the (sign, a, b) products of vectors named a0, a1, ... in Z[theta]/(g):
    h<k> = the terms of theta^k for n <= k < 2n - 1, then each out<i> with
    theta^k replaced by its constant vector.  A square doubles cross terms."""
    n = len(g) - 1
    pw, high = _theta_powers(g), range(n, 2 * n - 1)
    conv = [[(s * (2 if a == b and i < k - i else 1), f"{a}{i} * {b}{k - i}")
             for s, a, b in products for i in range(max(0, k - n + 1), min(k, n - 1) + 1)
             if a != b or i <= k - i] for k in range(2 * n - 1)]
    return ([f"h{k} = {_lin(conv[k])}" for k in high]
            + [f"{out}{i} = " + _lin(conv[i] + [(pw[k][i], f"h{k}") for k in high if pw[k][i]])
               for i in range(n)])


@lru_cache(maxsize=None)
def _adjugate(g: tuple):
    """``adj(e0, ..., e(n-1))`` -> (d, w0, ..., w(n-1)) with e*w = d != 0 in
    Z[theta]/(g), as straight-line integer code built once per modulus g.

    Cayley-Hamilton: the power sums p_k = Tr(e^k) come from the powers of e
    and the constants Tr(theta^i), Newton's identities give the monic
    characteristic polynomial with coefficients a_1, ..., a_n (dividing
    exactly: e is an algebraic integer), and w = e^(n-1) + a_1 e^(n-2) + ...
    + a_(n-1) has e*w = -a_n = +-N(e), zero only over a reducible modulus.
    """
    n, pw = len(g) - 1, _theta_powers(g)
    tr = [sum(pw[i + j][j] for j in range(n)) for i in range(n)]  # Tr(theta^i)
    src = [f"def adj({', '.join(f'e1_{i}' for i in range(n))}):"]
    for k in range(2, n):  # e^k = e^(k-1) * e, or (e^(k/2))^2 for even k
        src += _mul_src(g, f"e{k}_", (1, f"e{k - 1}_", "e1_") if k % 2
                        else (1, f"e{k // 2}_", f"e{k // 2}_"))
    for k in range(1, n):
        newton = " + ".join([f"p{k}"] + [f"a{i} * p{k - i}" for i in range(1, k)])
        src += [f"p{k} = " + _lin([(t, f"e{k}_{i}") for i, t in enumerate(tr) if t]),
                f"a{k} = -({newton})" + f" // {k}" * (k > 1)]
    src += [f"w{i} = e{n - 1}_{i}" + f" + a{n - 1}" * (i == 0) + "".join(
        f" + a{j} * e{n - 1 - j}_{i}" for j in range(1, n - 1)) for i in range(n)]
    src += _mul_src(g, "ew", (1, "e1_", "w"))[:n]  # the h<k> and ew0 = d
    src += ["if not ew0:", " raise FieldError('non-invertible element (reducible modulus)')",
            "return ew0, " + ", ".join(f"w{i}" for i in range(n))]
    return _compiled(src, "adj", FieldError=FieldError)


@lru_cache(maxsize=None)
def _nf_ops(spec: "FieldSpec") -> tuple:
    """(add, sub, mul, inv) on the reps (a0, ..., a(n-1), d) of Q[x]/(f),
    the element sum a_i theta^i / d for the (c, g) of ``_nf_codec``, as
    straight-line integer code built once per spec: ``_mul_src(g)``
    multiplies, ``_adjugate(g)`` inverts (1/a = d w / (a w), a w an
    integer), and one gcd puts each result in canonical form."""
    g = _nf_codec(spec)[1]
    n = len(g) - 1
    a, b, p, w = (", ".join(f"{v}{i}" for i in range(n)) for v in "abpw")
    two = [f"{a}, da = a", f"{b}, db = b", "d = da * db"]
    src = {"add": two + [f"p{i} = a{i} * db + b{i} * da" for i in range(n)],
           "sub": two + [f"p{i} = a{i} * db - b{i} * da" for i in range(n)],
           "mul": two + _mul_src(g, "p", (1, "a", "b")),
           "inv": [f"{a}, da = a", f"if not ({a.replace(', ', ' or ')}):",
                   " raise ZeroDivisionError('division by zero')",
                   f"d, {w} = adj({a})"] + [f"p{i} = w{i} * da" for i in range(n)]}
    tail = [f"h = gcd({p}, d)", "if d < 0:", " h = -h",
            "return " + "".join(f"p{i} // h, " for i in range(n)) + "d // h"]
    return tuple(_compiled([f"def {f}({'a' if f == 'inv' else 'a, b'}):", *body, *tail], f,
                           gcd=math.gcd, adj=_adjugate(g)) for f, body in src.items())


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Description of a supported exact field.

    ``min_poly`` stores monic coefficients low -> high (Fractions in
    characteristic 0, least residues in characteristic p); it is present
    exactly for NUMBER_FIELD / PRIME_POWER_FIELD.
    """
    kind: str
    characteristic: int = 0
    min_poly: Optional[tuple] = None

    def __post_init__(self):
        # the value the dataclass hash gives, computed once: every
        # Scalar hash and per-spec cache lookup hashes the spec
        object.__setattr__(self, "_hash", hash(
            (self.kind, self.characteristic, self.min_poly)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuild, so the hash is this process's
        return FieldSpec, (self.kind, self.characteristic, self.min_poly)

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1 if self.min_poly else 1

    @property
    def text(self) -> str:
        return format_field_spec(self)


def rationals_spec() -> FieldSpec:
    return FieldSpec(RATIONALS, 0, None)


def number_field_spec(min_poly: Sequence) -> FieldSpec:
    coeffs = tuple(Fraction(c) for c in min_poly)
    return FieldSpec(NUMBER_FIELD, 0, coeffs)


def prime_field_spec(p: int) -> FieldSpec:
    return FieldSpec(PRIME_FIELD, p, None)


def prime_power_spec(p: int, min_poly: Sequence) -> FieldSpec:
    return FieldSpec(PRIME_POWER_FIELD, p, tuple(int(c) % p for c in min_poly))


def gf_spec(q: int, min_poly: Optional[Sequence] = None) -> FieldSpec:
    """GF(q) for prime q, or a stored/user irreducible for q = p^k <= 64."""
    if _is_prime(q):
        if min_poly is not None:
            raise FieldError("GF(p) takes no modulus polynomial")
        return prime_field_spec(q)
    p = _char_of_order(q)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise FieldError(f"{q} is not a prime power")
    if min_poly is None:
        if q > 64 or q not in _STOCK_IRREDUCIBLES:
            raise FieldError(
                f"no stored irreducible polynomial for GF({q}); supply one")
        min_poly = _STOCK_IRREDUCIBLES[q]
    if len(min_poly) - 1 != k:
        raise FieldError(f"GF({q}) needs a degree-{k} modulus")
    return prime_power_spec(p, min_poly)


class _Frozen:
    """The base of every immutable class: a write to an instance raises, so
    a constructor sets its slots with ``object.__setattr__``.  It adds no
    slot of its own, so each subclass keeps its layout."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Scalar(_Frozen):
    """Immutable element of a Field, stored by canonical representative."""

    __slots__ = ("field", "rep")

    def __init__(self, field: "Field", rep):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field.spec != self.field.spec:
                raise FieldError("scalars from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.r_add(self.rep, o.rep))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.r_sub(self.rep, o.rep))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.r_sub(o.rep, self.rep))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.r_mul(self.rep, o.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.r_mul(self.rep, self.field.r_inv(o.rep)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.r_mul(o.rep, self.field.r_inv(self.rep)))

    def __neg__(self):
        return Scalar(self.field, self.field.r_neg(self.rep))

    def __pow__(self, n: int):
        if n < 0:
            return (self ** (-n)).inverse()
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.r_inv(self.rep))

    def is_zero(self) -> bool:
        return self.field.r_is_zero(self.rep)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field.spec == other.field.spec and self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self.rep == self.field.scalar(other).rep
        return NotImplemented

    def __hash__(self):
        return hash((self.field.spec, self.rep))

    def __repr__(self):
        return f"Scalar({format_scalar(self)})"

    def __str__(self):
        return format_scalar(self)


class Field:
    """Handle for one FieldSpec, hosting the raw representative arithmetic.

    The r_* functions work on bare representatives, so that callers can
    skip the Scalar wrapper: a Fraction over Q, a least residue over GF(p),
    a tuple of residues over GF(p^k), and over a number field the integers
    (a0, ..., a(n-1), d), d > 0, all coprime, of sum a_i theta^i / d on the
    basis theta = c x of ``_nf_codec``.  ``__init__`` binds the set that
    belongs to the field's kind.
    """

    def __init__(self, spec: FieldSpec):
        _validate_spec(spec)
        self.spec = spec
        self.kind = spec.kind
        self.characteristic = spec.characteristic
        self.degree = spec.degree
        (self.r_add, self.r_sub, self.r_neg, self.r_mul, self.r_is_zero,
         self.r_inv) = _ARITH[spec.kind](spec)
        self.zero = self.scalar(0)
        self.one = self.scalar(1)

    # -- construction -------------------------------------------------

    def scalar(self, value: Union[int, Fraction, "Scalar"]) -> Scalar:
        if isinstance(value, Scalar):
            if value.field.spec != self.spec:
                raise FieldError("scalar from a different field")
            return value
        k = self.kind
        if k == RATIONALS:
            return Scalar(self, Fraction(value))
        if k == NUMBER_FIELD:
            exact = value if isinstance(value, (int, Fraction)) else Fraction(value)
            num, den = exact.as_integer_ratio()
            return Scalar(self, (num,) + (0,) * (self.degree - 1) + (den,))
        p = self.characteristic
        base = _residue(value, p) if isinstance(value, Fraction) else int(value) % p
        if k == PRIME_FIELD:
            return Scalar(self, base)
        return Scalar(self, (base,) + (0,) * (self.degree - 1))

    @property
    def generator(self) -> Scalar:
        """The class of x in a quotient-ring field."""
        if self.kind == NUMBER_FIELD:  # x = theta / c
            rep = (0, 1) + (0,) * (self.degree - 2) + (_nf_codec(self.spec)[0],)
            return Scalar(self, rep)
        if self.kind == PRIME_POWER_FIELD:
            rep = (0, 1) + (0,) * (self.degree - 2)
            return Scalar(self, rep)
        raise FieldError(f"{self.spec.text} has no generator")

    def from_rep(self, rep) -> Scalar:
        return Scalar(self, rep)

    def has_real_embedding(self) -> bool:
        if self.kind == RATIONALS:
            return True
        if self.kind == NUMBER_FIELD:
            return bool(_real_roots_of(self.spec))
        return False

    def __eq__(self, other):
        return isinstance(other, Field) and other.spec == self.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Field({self.spec.text})"


# -- raw representative arithmetic, one set per field kind ------------------
# Each function below returns (r_add, r_sub, r_neg, r_mul, r_is_zero, r_inv).

def _rational_arith(spec):
    def r_inv(a):
        if not a:
            raise ZeroDivisionError("division by zero")
        return 1 / a
    return (operator.add, operator.sub, operator.neg, operator.mul,
            operator.not_, r_inv)


def _prime_arith(spec):
    p = spec.characteristic

    def r_inv(a):
        if not a:
            raise ZeroDivisionError("division by zero")
        return pow(a, p - 2, p)
    return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
            lambda a: -a % p, lambda a, b: a * b % p, operator.not_, r_inv)


def _prime_power_arith(spec):
    p = spec.characteristic
    elems, code, mul, _, inv = _gf_tables(spec)
    q = len(elems)

    def r_inv(a):
        i = inv[code[a]]
        if not i:
            raise ZeroDivisionError("division by zero")
        return elems[i]
    return (lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
            lambda a, b: tuple((x - y) % p for x, y in zip(a, b)),
            lambda a: tuple(-x % p for x in a),
            lambda a, b: elems[mul[code[a] * q + code[b]]],
            lambda a: not any(a), r_inv)


def _number_field_arith(spec):
    add, sub, mul, inv = _nf_ops(spec)
    zero = (0,) * spec.degree + (1,)
    return add, sub, lambda a: (*[-x for x in a[:-1]], a[-1]), mul, zero.__eq__, inv


_ARITH = {RATIONALS: _rational_arith, PRIME_FIELD: _prime_arith,
          PRIME_POWER_FIELD: _prime_power_arith,
          NUMBER_FIELD: _number_field_arith}


def _validate_spec(spec: FieldSpec):
    if spec.kind == RATIONALS:
        if spec.characteristic != 0 or spec.min_poly is not None:
            raise FieldError("bad rationals spec")
        return
    if spec.kind == PRIME_FIELD:
        if not _is_prime(spec.characteristic):
            raise FieldError(f"characteristic {spec.characteristic} is not prime")
        if spec.min_poly is not None:
            raise FieldError("prime field takes no modulus")
        return
    if spec.kind == NUMBER_FIELD:
        mp = spec.min_poly
        if spec.characteristic != 0 or mp is None:
            raise FieldError("bad number field spec")
        if len(mp) < 3:
            raise FieldError("number field modulus must have degree >= 2")
        if mp[-1] != 1:
            raise FieldError("modulus must be monic")
        if len(poly_gcd(mp, poly_deriv(mp))) != 1:
            raise FieldError("modulus must be squarefree")
        if _has_rational_root(mp):
            raise FieldError("modulus has a rational root; not irreducible")
        # a reducible modulus of degree 4 or 5 with no linear factor has a
        # quadratic one, so these degrees are tested completely
        if len(mp) - 1 in (4, 5) and _has_quadratic_factor(mp):
            raise FieldError("modulus has a quadratic factor; not irreducible")
        return
    if spec.kind == PRIME_POWER_FIELD:
        p = spec.characteristic
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        mp = spec.min_poly
        if mp is None or len(mp) < 3:
            raise FieldError("prime power field modulus must have degree >= 2")
        if mp[-1] % p != 1:
            raise FieldError("modulus must be monic")
        if p ** (len(mp) - 1) > 64:
            raise FieldError("prime power fields supported up to order 64")
        if _gf_tables(spec).mul.count(1) != p ** (len(mp) - 1) - 1:
            raise FieldError("modulus is reducible over the prime field")
        return
    raise FieldError(f"unknown field kind {spec.kind!r}")


def _primitive_int(mp) -> tuple:
    """The primitive integer multiple of Fractions mp_i, a rational
    polynomial's coefficients or a point's or line's coordinates.  Only
    numerators, denominators and integer gcd/lcm enter it."""
    den = math.lcm(*(c.denominator for c in mp))
    ip = [c.numerator * (den // c.denominator) for c in mp]
    g = math.gcd(*ip)
    return tuple([c // g for c in ip] if g else ip)


def _has_rational_root(mp) -> bool:
    ip = _primitive_int(mp)
    lead, const = ip[-1], ip[0]
    if const == 0:
        return True
    for num in _divisors(abs(const)):
        for den2 in _divisors(abs(lead)):
            for cand in (Fraction(num, den2), Fraction(-num, den2)):
                if poly_eval(mp, cand) == 0:
                    return True
    return False


def _has_quadratic_factor(mp) -> bool:
    """Whether mp, which has no rational root, has a quadratic factor over Q.

    Kronecker's method.  By Gauss's lemma a quadratic factor over Q scales
    to an integer factor g of the primitive integer multiple f of mp, so
    g(a) divides f(a) at a = -1, 0, 1, where f does not vanish.  Each choice
    of divisors interpolates one candidate g, tested by exact division; g
    and -g divide together, so only g(0) > 0 is tried.
    """
    f = _primitive_int(mp)
    fm, f0, f1 = (poly_eval(f, a) for a in (-1, 0, 1))

    def signed(n):
        return [s * d for d in _divisors(abs(n)) for s in (1, -1)]

    for gm, g0, g1 in itertools.product(signed(fm), _divisors(abs(f0)), signed(f1)):
        if (gm + g1) % 2:
            continue  # g(1) - g(-1) = 2 * c1 is even
        c1, c2 = (g1 - gm) // 2, (g1 + gm) // 2 - g0
        if c2 and not poly_divmod(mp, (Fraction(g0), Fraction(c1), Fraction(c2)))[1]:
            return True
    return False


def _divisors(n: int):
    return sorted({d for f in range(1, math.isqrt(n) + 1) if n % f == 0 for d in (f, n // f)})


def field_make(spec: FieldSpec) -> Field:
    """Validate a FieldSpec and return the arithmetic handle for it."""
    return Field(spec)


@lru_cache(maxsize=None)
def QQ() -> Field:
    return Field(rationals_spec())


def number_field(min_poly: Sequence) -> Field:
    return Field(number_field_spec(min_poly))


def GF(q: int, min_poly: Optional[Sequence] = None) -> Field:
    return Field(gf_spec(q, min_poly))


def cyclotomic_minpoly(n: int) -> tuple:
    """n-th cyclotomic polynomial over Q, low -> high, for n >= 2."""
    if n < 2:
        raise FieldError("cyclotomic_minpoly needs n >= 2")
    return _cyclotomic(n)


def _cyclotomic(n: int) -> tuple:
    num = tuple(Fraction(c) for c in [-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            phi_d = _cyclotomic(d) if d > 1 else (Fraction(-1), Fraction(1))
            num, rem = poly_divmod(num, phi_d)
            if rem:
                raise AssertionError("cyclotomic division must be exact")
    return num


def cyclotomic_field(n: int) -> Field:
    return number_field(cyclotomic_minpoly(n))


# ---------------------------------------------------------------------------
# real embeddings (rendering support only; never feeds back into exact math)

def real_roots(poly: Sequence) -> list:
    """Real roots of a squarefree polynomial, increasing, as floats."""
    cs = [float(c) for c in poly_trim(poly)]
    if len(cs) <= 1:
        return []
    lead = cs[-1]
    cs = [c / lead for c in cs]
    bound = 1.0 + max(abs(c) for c in cs[:-1])

    n = 8192
    xs = [-bound + 2 * bound * i / n for i in range(n + 1)]
    roots = []
    prev_x, prev_v = xs[0], poly_eval(cs, xs[0])
    for x in xs[1:]:
        v = poly_eval(cs, x)
        if prev_v == 0.0:
            roots.append(prev_x)
        elif prev_v * v < 0:
            lo, hi, flo = prev_x, x, prev_v
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = poly_eval(cs, mid)
                if fm == 0.0 or hi - lo < 1e-14:
                    lo = hi = mid
                    break
                if flo * fm < 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
        prev_x, prev_v = x, v
    if prev_v == 0.0:
        roots.append(prev_x)
    return roots


@lru_cache(maxsize=None)
def _real_roots_of(spec: FieldSpec) -> tuple:
    """``real_roots`` of a number field's modulus, searched once per field."""
    return tuple(real_roots(spec.min_poly))


def real_embedding(s: Scalar, root_index: int = 0) -> float:
    """Float value of a scalar under the chosen real root of the modulus."""
    field = s.field
    if field.kind == RATIONALS:
        return float(s.rep)
    if field.kind != NUMBER_FIELD:
        raise FieldError("finite fields have no real embedding")
    roots = _real_roots_of(field.spec)
    if not roots:
        raise FieldError("modulus has no real root")
    if not 0 <= root_index < len(roots):
        raise FieldError(f"root_index out of range (have {len(roots)} real roots)")
    return poly_eval(_x_coefficients(s), roots[root_index])


# ---------------------------------------------------------------------------
# text syntax:  Q | Q[x]/(x^2+x+1) | GF(7) | GF(4;x^2+x+1)
# scalars:      polynomial expressions in x with fraction coefficients

def format_field_spec(spec: FieldSpec) -> str:
    if spec.kind == RATIONALS:
        return "Q"
    if spec.kind == PRIME_FIELD:
        return f"GF({spec.characteristic})"
    poly = _format_poly(spec.min_poly)
    if spec.kind == NUMBER_FIELD:
        return f"Q[x]/({poly})"
    order = spec.characteristic ** spec.degree
    return f"GF({order};{poly})"


def parse_field_spec(text: str) -> FieldSpec:
    t = text.strip().replace(" ", "")
    try:
        if t == "Q":
            return rationals_spec()
        if t.startswith("Q[x]/(") and t.endswith(")"):
            return number_field_spec(_parse_poly(t[6:-1]))
        if t.startswith("GF(") and t.endswith(")"):
            inner = t[3:-1]
            if ";" in inner:
                q_text, poly_text = inner.split(";", 1)
                q = int(q_text)
                p = _char_of_order(q)
                return gf_spec(q, [_residue(c, p) for c in _parse_poly(poly_text)])
            return gf_spec(int(inner))
    except (ValueError, ZeroDivisionError):  # a malformed number inside the spec
        pass
    raise FieldError(f"cannot parse field spec {text!r}")


def _char_of_order(q: int) -> int:
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            return p
    raise FieldError(f"{q} is not a prime power")


def _format_poly(coeffs) -> str:
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            body = str(c)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            if c == 1:
                body = xs
            elif c == -1:
                body = f"-{xs}"
            else:
                body = f"{c!s}*{xs}"
        if terms and not body.startswith("-"):
            terms.append("+" + body)
        else:
            terms.append(body)
    return "".join(terms) if terms else "0"


def _parse_poly(text: str) -> tuple:
    """The Fraction coefficients, low -> high, of a polynomial in x written
    as a +/- chain of c*x^k terms."""
    t = text.replace(" ", "")
    if not t:
        raise FieldError("empty polynomial")
    # split into signed terms
    terms = []
    cur = ""
    for i, ch in enumerate(t):
        if ch in "+-" and i > 0 and t[i - 1] not in "+-*^/":
            terms.append(cur)
            cur = ch if ch == "-" else ""
        elif ch in "+-" and i == 0:
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    terms.append(cur)
    coeffs = {}
    for term in terms:
        if not term or term == "-":
            raise FieldError(f"cannot parse term in {text!r}")
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        if "x" in term:
            coef_part, _, pow_part = term.partition("x")
            coef_part = coef_part.rstrip("*")
            if pow_part.startswith("^"):
                e = int(pow_part[1:])
                if e < 0:
                    raise FieldError(f"negative exponent in term {term!r}")
            elif pow_part == "":
                e = 1
            else:
                raise FieldError(f"cannot parse term {term!r}")
            c = Fraction(coef_part) if coef_part else Fraction(1)
        else:
            e = 0
            c = Fraction(term)
        coeffs[e] = coeffs.get(e, Fraction(0)) + sign * c
    return tuple(coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1))


def _x_coefficients(s: Scalar) -> list:
    """A number-field scalar's coefficients on 1, x, ..., x^(n-1): a_i c^i / d
    for its rep (a0, ..., a(n-1), d), as Fractions."""
    c, d = _nf_codec(s.field.spec)[0], s.rep[-1]
    return [Fraction(a * c ** i, d) for i, a in enumerate(s.rep[:-1])]


def format_scalar(s: Scalar) -> str:
    field = s.field
    if field.kind in (RATIONALS, PRIME_FIELD):
        return str(s.rep)
    return _format_poly(_x_coefficients(s) if field.kind == NUMBER_FIELD else s.rep)


def parse_scalar(field: Field, text: str) -> Scalar:
    t = text.strip()
    if field.kind in (RATIONALS, PRIME_FIELD):
        return field.scalar(Fraction(t))
    return poly_eval(_parse_poly(t), field.generator)
