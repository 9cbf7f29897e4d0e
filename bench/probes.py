"""Probes that run beside the traced passes: field arithmetic and the CLI.

``field_rates`` times ``Field.r_mul`` and ``Field.r_inv`` on coordinates
taken from a workload's own inputs.  A field kind the workload does not use
is probed on a fixed reference arrangement, so that every workload reports
the same rows.  ``cli_seq_json`` runs ``lineops seq --json`` as a subprocess.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from lineops import arrangements, catalog, fields
from workloads import CQ_COUNTS

BATCH_S = 0.05     # minimum length of one timed batch
BATCHES = 3        # batches per rate; the median is reported
MAX_REPS = 32      # distinct nonzero coordinates probed per field

# field kind -> reference arrangement over that field
REFERENCE = {
    "q": lambda: catalog.build("gv13"),
    "nf2": lambda: catalog.build("dual-hesse"),          # Q(w), w^2+w+1 = 0
    "nf3": lambda: catalog.build("grunbaum-rigby"),      # degree-3 field
    "gf3": lambda: catalog.build("finite-plane", q=3),
    "gf16": lambda: arrangements.all_projective_lines(fields.GF(16)),
    "gf49": lambda: arrangements.all_projective_lines(fields.GF(49)),
}
FIELD_KINDS = tuple(REFERENCE)

CLI_ARGS = ("seq", "--catalog", "complete-quadrilateral", "--op", "L{>=2;>=2}",
            "--steps", "3", "--profile-budget", "100", "--json")


def _rate(call, arg_list) -> float:
    """Calls per second of ``call`` over ``arg_list``, median of batches."""
    rates = []
    clock = time.perf_counter
    for _ in range(BATCHES):
        n = 0
        t0 = clock()
        while True:
            for a in arg_list:
                call(*a)
            n += len(arg_list)
            dt = clock() - t0
            if dt >= BATCH_S:
                break
        rates.append(n / dt)
    return statistics.median(rates)


def field_rates(inputs: dict) -> dict:
    """fields.<kind>.mul_per_s and .inv_per_s for every kind."""
    out = {}
    for kind in FIELD_KINDS:
        arr = inputs.get(kind) or REFERENCE[kind]()
        F = arr.field
        reps = list(dict.fromkeys(c.rep for l in arr.lines for c in l.coeffs
                                  if not c.is_zero()))[:MAX_REPS]
        out[f"fields.{kind}.mul_per_s"] = _rate(
            F.r_mul, [(a, b) for a in reps for b in reps])
        out[f"fields.{kind}.inv_per_s"] = _rate(F.r_inv, [(a,) for a in reps])
    return out


def cli_seq_json(src: str):
    """(seconds, fault) of ``lineops seq ... --json`` run as a subprocess.

    The package is not installed, so the entry point ``lineops.cli.main`` is
    called through ``python -c`` with ``src`` on the path.
    """
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "from lineops.cli import main; main()")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *CLI_ARGS],
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        return seconds, f"exit {proc.returncode}: {proc.stderr.strip()}"
    counts = [s["lines"] for s in json.loads(proc.stdout)["steps"]]
    if counts != CQ_COUNTS:
        return seconds, f"counts {counts} != {CQ_COUNTS}"
    return seconds, None
