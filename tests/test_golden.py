"""Golden outputs, compared byte for byte.

Each file under tests/golden/ is ``dump_json`` of what ``golden_doc`` gives
for its name.  The files were written once from this module's own builder
and are never regenerated: a refactor of the engine must reproduce them
exactly.  There is one file per non-heavy catalog entry (default
parameters) and one per acceptance sequence in ``TRACES``.
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

# file stem -> (catalog entry, operator, max_steps)
TRACES = {
    "trace-flashing3-L2_3": ("flashing3", lambda_spec(sel_exact(2),
                                                      sel_exact(3)), 16),
    "trace-complete-quadrilateral-L22": (
        "complete-quadrilateral",
        lambda_spec(sel_at_least(2), sel_at_least(2)), 2),
}


def golden_names() -> list:
    return [e.name for e in entries() if not e.heavy] + sorted(TRACES)


def golden_doc(name: str) -> dict:
    """The document stored as tests/golden/<name>.json."""
    if name in TRACES:
        entry, op, max_steps = TRACES[name]
        return trace_to_json(run_sequence(op, build(entry),
                                          max_steps=max_steps))
    arr = build(name)
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
