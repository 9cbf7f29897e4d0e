"""Regenerate data/gf3_orbits.json, the reference table of the ff-orbits checks.

For every subset of the 13 lines of PG(2,3), taken in the canonical order of
catalog entry ``finite-plane`` with q=3 (bit i of the mask selects line i),
the table holds the (preperiod, period) of its orbit under L{>=2;>=2}.

    python3 bench/gen_gf3_table.py

Run it only to record the results of a trusted revision: the benchmark
compares every orbit it computes against this file.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from lineops import arrangements, catalog, dynamics  # noqa: E402

TABLE = os.path.join(HERE, "data", "gf3_orbits.json")


def main():
    plane = catalog.build("finite-plane", q=3)
    lines = plane.lines
    op = dynamics.lambda_spec(arrangements.sel_at_least(2),
                              arrangements.sel_at_least(2))
    orbits = []
    for mask in range(1 << len(lines)):
        start = arrangements.Arrangement(
            plane.field, [l for i, l in enumerate(lines) if mask >> i & 1])
        orbits.append(list(dynamics.orbit_over_finite_field(op, start)))
    doc = {
        "field": plane.field.spec.text,
        "operator": op.text,
        "lines": [[str(c) for c in l.coeffs] for l in lines],
        "orbits": orbits,
    }
    with open(TABLE, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
