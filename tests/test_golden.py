"""Golden outputs, compared byte for byte.

Each file under tests/golden/ is ``dump_json`` of what ``golden_doc`` gives
for its name.  The files were written once from this module's own builder
and are never regenerated: a refactor of the engine must reproduce them
exactly.  There is one file per non-heavy catalog entry (default
parameters), one per entry with the parameters in ``VARIANTS`` (the
prime-power fields, which no default covers) and one per acceptance
sequence in ``TRACES``.
"""
import os

import pytest

from lineops.arrangements import (arrangement_to_json, dump_json, lambda_op,
                                  point_config_to_json, points_operator,
                                  profile, sel_at_least, sel_exact)
from lineops.catalog import build, entries
from lineops.dynamics import lambda_spec, run_sequence, trace_to_json
from lineops.matroids import extract_matroid, matroid_to_json

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

L22 = lambda_spec(sel_at_least(2), sel_at_least(2))

# file stem -> (catalog entry, parameters)
VARIANTS = {
    "finite-plane-q4": ("finite-plane", {"q": 4}),
    "finite-plane-q8": ("finite-plane", {"q": 8}),
    "finite-plane-q9": ("finite-plane", {"q": 9}),
    "complete-quadrilateral-gf49": ("complete-quadrilateral",
                                    {"field": "GF(49)"}),
}

# file stem -> (catalog entry, parameters, operator, max_steps)
TRACES = {
    "trace-flashing3-L2_3": ("flashing3", {}, lambda_spec(sel_exact(2),
                                                          sel_exact(3)), 16),
    "trace-complete-quadrilateral-L22": ("complete-quadrilateral", {}, L22,
                                         2),
    # counts 6, 9, 25, 57, 57: fixed at step 3
    "trace-complete-quadrilateral-gf49-L22": ("complete-quadrilateral",
                                              {"field": "GF(49)"}, L22, 8),
}


def golden_names() -> list:
    return ([e.name for e in entries() if not e.heavy] + sorted(VARIANTS)
            + sorted(TRACES))


def golden_doc(name: str) -> dict:
    """The document stored as tests/golden/<name>.json."""
    if name in TRACES:
        entry, params, op, max_steps = TRACES[name]
        return trace_to_json(run_sequence(op, build(entry, **params),
                                          max_steps=max_steps))
    entry, params = VARIANTS.get(name, (name, {}))
    arr = build(entry, **params)
    two = sel_at_least(2)
    return {
        "export": arrangement_to_json(arr),
        "profile": profile(arr).text(),
        "points_ge2": point_config_to_json(points_operator(two, arr)),
        "lambda_ge2_ge2": arrangement_to_json(lambda_op(two, two, arr)),
        "matroid": matroid_to_json(extract_matroid(arr)),
    }


def test_golden_files_match_names():
    on_disk = sorted(f[:-len(".json")] for f in os.listdir(GOLDEN_DIR)
                     if f.endswith(".json"))
    assert on_disk == sorted(golden_names())


@pytest.mark.parametrize("name", golden_names())
def test_golden(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
        want = fh.read()
    assert dump_json(golden_doc(name)) == want
