"""Exact arithmetic over Q, number fields Q[x]/(f) and finite fields.

Every scalar carries a canonical representative, so equality is literal
comparison of representatives and scalars can be used as dict/set keys.
No floating point enters the exact path; floats appear only in
``real_embedding`` (rendering support).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union


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
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers (dense coefficient lists, low degree first)

def poly_trim(p: Sequence) -> tuple:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_sub(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


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
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _mulmod(a, b, min_poly):
    """a*b reduced by the monic min_poly from the top degree down.

    Coefficients are low -> high; the result has len(min_poly) - 1 of
    them.  Serves Q[x]/(f) directly and GF(p)[x]/(f) before reduction
    mod p.
    """
    d = len(min_poly) - 1
    prod = [min_poly[0] * 0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    for e in range(2 * d - 2, d - 1, -1):
        c = prod[e]
        if c:
            for i in range(d):
                if min_poly[i]:
                    prod[e - d + i] -= c * min_poly[i]
    return tuple(prod[:d])


_GF_TABLES = {}


def _gf_tables(spec: "FieldSpec"):
    """(product, inverse) tables of GF(p)[x]/(f), built once per spec.

    Keys and values are representatives (tuples of least residues).  The
    inverse table lacks an element exactly when f is reducible, so it
    doubles as the irreducibility test.
    """
    tables = _GF_TABLES.get(spec)
    if tables is None:
        p, mp = spec.characteristic, spec.min_poly
        elems = list(itertools.product(range(p), repeat=len(mp) - 1))
        mul = {(a, b): tuple(c % p for c in _mulmod(a, b, mp))
               for a in elems for b in elems}
        one = (1,) + (0,) * (len(mp) - 2)
        inv = {a: b for (a, b), c in mul.items() if c == one}
        tables = _GF_TABLES[spec] = (mul, inv)
    return tables


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
    for p in range(2, q):
        if _is_prime(p) and q % p == 0:
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
    raise FieldError(f"{q} is not a prime power")


class Scalar:
    """Immutable element of a Field, stored by canonical representative."""

    __slots__ = ("field", "rep")

    def __init__(self, field: "Field", rep):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

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

    The r_* methods work on bare representatives (Fraction, int, or tuple)
    so that inner loops can skip the Scalar wrapper.
    """

    def __init__(self, spec: FieldSpec):
        _validate_spec(spec)
        self.spec = spec
        self.kind = spec.kind
        self.characteristic = spec.characteristic
        self.degree = spec.degree
        if spec.kind == PRIME_POWER_FIELD:
            self._mul, self._inv = _gf_tables(spec)
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
            c = Fraction(value)
            rep = (c,) + (Fraction(0),) * (self.degree - 1)
            return Scalar(self, rep)
        p = self.characteristic
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise FieldError("denominator divisible by characteristic")
            base = value.numerator * pow(value.denominator, p - 2, p) % p
        else:
            base = int(value) % p
        if k == PRIME_FIELD:
            return Scalar(self, base)
        return Scalar(self, (base,) + (0,) * (self.degree - 1))

    @property
    def generator(self) -> Scalar:
        """The class of x in a quotient-ring field."""
        if self.kind == NUMBER_FIELD:
            rep = (Fraction(0), Fraction(1)) + (Fraction(0),) * (self.degree - 2)
            return Scalar(self, rep)
        if self.kind == PRIME_POWER_FIELD:
            rep = (0, 1) + (0,) * (self.degree - 2)
            return Scalar(self, rep)
        raise FieldError(f"{self.spec.text} has no generator")

    def from_rep(self, rep) -> Scalar:
        return Scalar(self, rep)

    # -- raw representative arithmetic ---------------------------------

    def r_add(self, a, b):
        k = self.kind
        if k == RATIONALS:
            return a + b
        if k == PRIME_FIELD:
            return (a + b) % self.characteristic
        if k == NUMBER_FIELD:
            return tuple(x + y for x, y in zip(a, b))
        p = self.characteristic
        return tuple((x + y) % p for x, y in zip(a, b))

    def r_sub(self, a, b):
        k = self.kind
        if k == RATIONALS:
            return a - b
        if k == PRIME_FIELD:
            return (a - b) % self.characteristic
        if k == NUMBER_FIELD:
            return tuple(x - y for x, y in zip(a, b))
        p = self.characteristic
        return tuple((x - y) % p for x, y in zip(a, b))

    def r_neg(self, a):
        k = self.kind
        if k == RATIONALS:
            return -a
        if k == PRIME_FIELD:
            return (-a) % self.characteristic
        if k == NUMBER_FIELD:
            return tuple(-x for x in a)
        p = self.characteristic
        return tuple((-x) % p for x in a)

    def r_mul(self, a, b):
        k = self.kind
        if k == RATIONALS:
            return a * b
        if k == PRIME_FIELD:
            return (a * b) % self.characteristic
        if k == NUMBER_FIELD:
            return _mulmod(a, b, self.spec.min_poly)
        return self._mul[a, b]

    def r_is_zero(self, a) -> bool:
        k = self.kind
        if k == RATIONALS or k == PRIME_FIELD:
            return a == 0
        return all(x == 0 for x in a)

    def r_inv(self, a):
        k = self.kind
        if k == RATIONALS:
            if a == 0:
                raise ZeroDivisionError("division by zero")
            return 1 / a
        if k == PRIME_FIELD:
            if a == 0:
                raise ZeroDivisionError("division by zero")
            return pow(a, self.characteristic - 2, self.characteristic)
        if k == PRIME_POWER_FIELD:
            inv = self._inv.get(a)
            if inv is None:
                raise ZeroDivisionError("division by zero")
            return inv
        if self.r_is_zero(a):
            raise ZeroDivisionError("division by zero")
        if self.degree == 2:
            # (a0 + a1 g)^-1 with g^2 + c1 g + c0 = 0
            c0, c1 = self.spec.min_poly[:2]
            a0, a1 = a
            norm = a0 * a0 - a0 * a1 * c1 + a1 * a1 * c0
            if norm == 0:
                raise FieldError("non-invertible element (reducible modulus)")
            return ((a0 - a1 * c1) / norm, -a1 / norm)
        s = _frac_poly_xgcd(poly_trim(a), self.spec.min_poly)
        if s is None:
            raise FieldError("non-invertible element (reducible modulus)")
        s = list(s) + [Fraction(0)] * (self.degree - len(s))
        return tuple(s[: self.degree])

    def has_real_embedding(self) -> bool:
        if self.kind == RATIONALS:
            return True
        if self.kind == NUMBER_FIELD:
            return bool(real_roots(self.spec.min_poly))
        return False

    def __eq__(self, other):
        return isinstance(other, Field) and other.spec == self.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Field({self.spec.text})"


def _frac_poly_xgcd(a, m):
    """s with s*a = 1 mod m over Q, or None when gcd(a, m) is non-constant."""
    r0, r1 = poly_trim(m), poly_trim(a)
    s0, s1 = (), (Fraction(1),)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    if len(r0) != 1:
        return None
    c = r0[0]
    return poly_trim([x / c for x in s0])


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
        if len(_gf_tables(spec)[1]) != p ** (len(mp) - 1) - 1:
            raise FieldError("modulus is reducible over the prime field")
        return
    raise FieldError(f"unknown field kind {spec.kind!r}")


def _primitive_int(mp) -> list:
    """The primitive integer multiple of a sequence of Fractions: a rational
    polynomial's coefficients, or a point's or line's coordinates."""
    den = 1
    for c in mp:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ip = [int(c * den) for c in mp]
    g = 0
    for c in ip:
        g = math.gcd(g, c)
    if g:
        ip = [c // g for c in ip]
    return ip


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
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            if f != n // f:
                out.append(n // f)
        f += 1
    return sorted(out)


def field_make(spec: FieldSpec) -> Field:
    """Validate a FieldSpec and return the arithmetic handle for it."""
    return Field(spec)


_QQ = None


def QQ() -> Field:
    global _QQ
    if _QQ is None:
        _QQ = Field(rationals_spec())
    return _QQ


def number_field(min_poly: Sequence) -> Field:
    return Field(number_field_spec(min_poly))


def GF(q: int, min_poly: Optional[Sequence] = None) -> Field:
    return Field(gf_spec(q, min_poly))


def cyclotomic_minpoly(n: int) -> tuple:
    """n-th cyclotomic polynomial over Q, low -> high, for 2 <= n <= 30."""
    if not 2 <= n <= 30:
        raise FieldError("cyclotomic_minpoly supports 2 <= n <= 30")
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

def real_roots(poly: Sequence, tol: float = 1e-14) -> list:
    """Real roots of a squarefree polynomial, increasing, as floats."""
    cs = [float(c) for c in poly_trim(poly)]
    if len(cs) <= 1:
        return []
    lead = cs[-1]
    cs = [c / lead for c in cs]
    bound = 1.0 + max(abs(c) for c in cs[:-1])

    def f(x):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    n = 8192
    xs = [-bound + 2 * bound * i / n for i in range(n + 1)]
    roots = []
    prev_x, prev_v = xs[0], f(xs[0])
    for x in xs[1:]:
        v = f(x)
        if prev_v == 0.0:
            roots.append(prev_x)
        elif prev_v * v < 0:
            lo, hi, flo = prev_x, x, prev_v
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0 or hi - lo < tol:
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


def real_embedding(s: Scalar, root_index: int = 0) -> float:
    """Float value of a scalar under the chosen real root of the modulus."""
    field = s.field
    if field.kind == RATIONALS:
        return float(s.rep)
    if field.kind != NUMBER_FIELD:
        raise FieldError("finite fields have no real embedding")
    roots = real_roots(field.spec.min_poly)
    if not roots:
        raise FieldError("modulus has no real root")
    if not 0 <= root_index < len(roots):
        raise FieldError(f"root_index out of range (have {len(roots)} real roots)")
    x = roots[root_index]
    acc = 0.0
    for c in reversed(s.rep):
        acc = acc * x + float(c)
    return acc


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
    if t == "Q":
        return rationals_spec()
    if t.startswith("Q[x]/(") and t.endswith(")"):
        return number_field_spec(_parse_poly(t[6:-1], rational=True))
    if t.startswith("GF(") and t.endswith(")"):
        inner = t[3:-1]
        if ";" in inner:
            q_text, poly_text = inner.split(";", 1)
            q = int(q_text)
            p = _char_of_order(q)
            return gf_spec(q, _parse_poly(poly_text, rational=False, mod=p))
        return gf_spec(int(inner))
    raise FieldError(f"cannot parse field spec {text!r}")


def _char_of_order(q: int) -> int:
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            return p
    raise FieldError(f"{q} is not a prime power")


def _format_coeff(c) -> str:
    return str(c)


def _format_poly(coeffs) -> str:
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            body = _format_coeff(c)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            if c == 1:
                body = xs
            elif c == -1:
                body = f"-{xs}"
            else:
                body = f"{_format_coeff(c)}*{xs}"
        if terms and not body.startswith("-"):
            terms.append("+" + body)
        else:
            terms.append(body)
    return "".join(terms) if terms else "0"


def _parse_poly(text: str, rational: bool, mod: Optional[int] = None):
    """Parse a polynomial in x written as a +/- chain of c*x^k terms."""
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
            elif pow_part == "":
                e = 1
            else:
                raise FieldError(f"cannot parse term {term!r}")
            c = Fraction(coef_part) if coef_part else Fraction(1)
        else:
            e = 0
            c = Fraction(term)
        coeffs[e] = coeffs.get(e, Fraction(0)) + sign * c
    deg = max(coeffs)
    out = [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]
    if rational:
        return tuple(out)
    res = []
    for c in out:
        if c.denominator != 1:
            inv = pow(c.denominator % mod, mod - 2, mod)
            res.append((c.numerator * inv) % mod)
        else:
            res.append(c.numerator % mod)
    return tuple(res)


def format_scalar(s: Scalar) -> str:
    field = s.field
    if field.kind == RATIONALS:
        return str(s.rep)
    if field.kind == PRIME_FIELD:
        return str(s.rep)
    return _format_poly(s.rep)


def parse_scalar(field: Field, text: str) -> Scalar:
    t = text.strip()
    if field.kind == RATIONALS:
        return field.scalar(Fraction(t))
    if field.kind == PRIME_FIELD:
        return field.scalar(Fraction(t))
    if field.kind == NUMBER_FIELD:
        coeffs = _parse_poly(t, rational=True)
        d = field.degree
        rep = list(coeffs[:d]) + [Fraction(0)] * max(0, d - len(coeffs))
        extra = coeffs[d:]
        if any(extra):
            # reduce high powers through the generator
            x = field.generator
            val = field.zero
            for e, c in enumerate(coeffs):
                val = val + field.scalar(c) * x ** e
            return val
        return Scalar(field, tuple(rep))
    coeffs = _parse_poly(t, rational=False, mod=field.characteristic)
    x = field.generator
    val = field.zero
    for e, c in enumerate(coeffs):
        val = val + field.scalar(c) * x ** e
    return val
