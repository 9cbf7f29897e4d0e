"""Shared fixtures: the reference pair kernels over GF(q), and a counter of
pair passes.

Over every finite field of order at most ``arrangements._PLANE_ORDER`` the
program codes an object by its ordinal in PG(2,q) and counts incidences in
a table of PG(2,q) instead of pairing.  The pair kernels below are the ones
those fields used before; the tests keep them as the reference those counts
are checked against.
"""
import pytest

from lineops import arrangements
from lineops.fields import PRIME_FIELD, PRIME_POWER_FIELD, _gf_tables


def _prime_power_meets(tris, field, rows):
    """Over GF(p^k): the triple of element codes with first nonzero 1."""
    _, code, mul, sub, inv = _gf_tables(field.spec)
    q = len(code)
    for i in rows:
        a0, a1, a2 = tris[i]
        a0, a1, a2 = a0 * q, a1 * q, a2 * q  # row offsets into the tables
        for b0, b1, b2 in tris[i + 1:]:
            x = sub[mul[a1 + b2] * q + mul[a2 + b1]]
            y = sub[mul[a2 + b0] * q + mul[a0 + b2]]
            z = sub[mul[a0 + b1] * q + mul[a1 + b0]]
            if x:
                w = inv[x]
                yield (1, mul[y * q + w], mul[z * q + w])
            elif y:
                yield (0, 1, mul[z * q + inv[y]])
            else:
                yield (0, 0, 1)


def _on_ordinals(kernel):
    """``kernel`` over PG(2,q) ordinal codes: it pairs their triples and
    gives the ordinals of the meets, as an iterator, so that ``_row_keys``
    can slice it row by row.  Over a larger field it is ``kernel``."""
    def meets(codes, field, rows):
        q = arrangements._plane_order(field)
        if not q:
            return kernel(codes, field, rows)
        tris = [arrangements._plane_key(o, q) for o in codes]
        return iter(arrangements._ordinals(kernel(tris, field, rows), q))
    return meets


@pytest.fixture
def reference_kernels(monkeypatch):
    """``_code_meets`` and ``_row_keys`` run a pair kernel over every field
    kind: over GF(q), q <= ``_PLANE_ORDER``, the reference ones above, on
    ordinals (GF(p) pairs residues with ``arrangements._prime_meets``)."""
    monkeypatch.setitem(arrangements._KERNELS, PRIME_POWER_FIELD,
                        _on_ordinals(_prime_power_meets))
    monkeypatch.setitem(arrangements._KERNELS, PRIME_FIELD,
                        _on_ordinals(arrangements._prime_meets))


@pytest.fixture
def count_passes(monkeypatch):
    """``count_passes(*extra)`` -> a list that grows by (name, number of
    codes) for each pair pass, a call of the pair kernel (``_code_meets``)
    or of the incidence count over a finite plane (``_incidences``), and
    for each call of the ``arrangements`` functions named in ``extra``,
    which take (codes, field, ...) as those do."""
    def install(*extra):
        calls = []
        for name in ("_code_meets", "_incidences") + extra:
            def counting(codes, field, *rest, name=name,
                         pass_=getattr(arrangements, name)):
                calls.append((name, len(codes)))
                return pass_(codes, field, *rest)
            monkeypatch.setattr(arrangements, name, counting)
        return calls
    return install
