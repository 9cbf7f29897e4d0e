"""Shared fixtures: the reference pair kernel over GF(p^k).

Over every finite field of order at most ``arrangements._PLANE_ORDER`` the
program counts incidences in a table of PG(2,q) instead of pairing.  The
pair kernel below is the one GF(p^k) used before; the tests keep it as the
reference those counts are checked against.
"""
import pytest

from lineops import arrangements
from lineops.fields import PRIME_POWER_FIELD, _gf_tables


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


@pytest.fixture
def reference_kernels(monkeypatch):
    """``_meet_keys``, ``_code_meets`` and ``_row_keys`` run a pair kernel
    over every field kind: over GF(p^k), the reference one above."""
    monkeypatch.setitem(arrangements._KERNELS, PRIME_POWER_FIELD,
                        _prime_power_meets)
