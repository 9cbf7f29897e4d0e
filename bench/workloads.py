"""The four benchmark workloads: seeded inputs, task lists and output checks.

``setup(name, seed)`` builds a workload's inputs and returns a ``Plan``: the
tasks one pass runs, in order, and for each task a check of its output.  The
seed picks samples and projectivities; lineops receives only the generated
inputs.  Every call into lineops goes through a module attribute
(``arrangements.profile``, not a bare ``profile``), so that the tracer's
patches see it.

Before a plan is returned, every pair pass its tasks can start is bounded
from the input sizes and refused above ``PAIR_CAP`` pairs.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional

from lineops import arrangements, catalog, dynamics, fields, projective

HERE = os.path.dirname(os.path.abspath(__file__))
GF3_TABLE = os.path.join(HERE, "data", "gf3_orbits.json")

# the largest pair pass a workload may start: C(2000, 2) pairs.  A pair pass
# over n objects holds up to C(n, 2) keys in memory; lines_operator on about
# 16k points (about 130M pairs) does not fit on a small machine.
PAIR_CAP = comb(2000, 2)

Q_SAMPLE = 150        # lines sampled from the 1741-line step (q-growth)
FF_ORBITS = 1500      # GF(3) subsets per pass (ff-orbits)
PP_PLANE_Q = 8        # plane whose L{>=2;>=2} fixed point is checked
PP_SUB16 = 100        # lines sampled from PG(2,16)
PP_SUB49 = 160        # lines sampled from PG(2,49)
NF_DRAWS = 6          # projectivity draws that nf-suite passes take in turn

CQ_COUNTS = [6, 9, 25, 1741]
PP6_COUNTS = [6, 10, 13, 28, 946]
GR_PROFILE = {2: 63, 3: 7, 4: 21}
GR_IMAGE_LINES = 50
NF_SUITE = (("dual-hesse", {}), ("maclane", {}), ("hesse", {}),
            ("ceva", {"n": 3}), ("ceva-ext", {"n": 3}),
            ("polygonal", {"n": 10}), ("klein", {}))


class WorkloadError(Exception):
    """A workload that cannot be set up as asked."""


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None if right, else the fault
    orbit: bool = False  # a dynamics run: timed for orbit latency


@dataclass
class Plan:
    # task lists that passes take in turn; tasks in the same place of each
    # list have the same name and role
    variants: list
    # field kind of the probe -> an arrangement from the inputs over that field
    field_inputs: dict

    def pass_tasks(self, i: int) -> list:
        return self.variants[i % len(self.variants)]


def _sel(k: int):
    return arrangements.sel_at_least(k)


def _op(n: int, m: int):
    return dynamics.lambda_spec(_sel(n), _sel(m))


def _guard(label: str, n: int):
    """Refuse a pair pass over n objects above the cap."""
    if comb(n, 2) > PAIR_CAP:
        raise WorkloadError(f"{label}: a pair pass over {n} objects is "
                            f"{comb(n, 2)} pairs, over the cap of {PAIR_CAP}")


def _guard_lambda(label: str, n: int, plane_points: Optional[int] = None):
    """Both pair passes of one L step on n lines.

    The meets of n lines give at most C(n, 2) points, and never more than
    the plane has over a finite field.
    """
    _guard(label, n)
    points = comb(n, 2)
    if plane_points is not None:
        points = min(points, plane_points)
    _guard(label + " (image points)", points)


def _guard_sequence(label: str, counts: list):
    """A run whose step sizes are pinned: L steps on all but the last."""
    for n in counts[:-1]:
        _guard_lambda(label, n)
    _guard(label + " (profile)", counts[-1])


def _plane_points(q: int) -> int:
    return q * q + q + 1


def _all_true(results) -> Optional[str]:
    bad = [name for name, ok, _ in results if not ok]
    return f"property_suite flags false: {bad}" if bad else None


def _lazy(make):
    """A reference value computed at its first use, outside the timed region."""
    box = []

    def get():
        if not box:
            box.append(make())
        return box[0]
    return get


def _suite_task(name: str, arr, expected_profile=None) -> Task:
    def check(results):
        fault = _all_true(results)
        if fault is None and expected_profile is not None:
            detail = dict((n, d) for n, _, d in results)["profile-consistency"]
            if detail != expected_profile().text():
                fault = f"profile {detail} != {expected_profile().text()}"
        return fault
    return Task(f"suite:{name}", lambda: arrangements.property_suite(arr),
                check)


# ---------------------------------------------------------------------------
# q-growth: over Q, few large sets; object building and canonical sort

def _q_growth(seed: int) -> Plan:
    rng = random.Random(seed)
    L22, L23 = _op(2, 2), _op(2, 3)
    cq = catalog.build("complete-quadrilateral")
    pp6 = catalog.build("parallel-pairs6")
    _guard_sequence("cq L{>=2;>=2}", CQ_COUNTS)
    _guard_sequence("parallel-pairs6 L{>=2;>=3}", PP6_COUNTS)
    steps = [cq]
    for _ in range(3):
        steps.append(dynamics.apply_operator(L22, steps[-1]))
    if [len(a) for a in steps] != CQ_COUNTS:
        raise WorkloadError(f"complete-quadrilateral steps "
                            f"{[len(a) for a in steps]} != {CQ_COUNTS}")
    sample = arrangements.Arrangement(
        cq.field, rng.sample(steps[3].lines, Q_SAMPLE))
    _guard("sample P{>=2}", len(sample))
    # property_suite runs L steps on the arrangement and on its dual
    _guard_lambda("suite on step 1", len(steps[1]))

    def counts_check(want, trace):
        if trace.counts() != want:
            return f"counts {trace.counts()} != {want}"
        if any(s.profile is None for s in trace.steps):
            return "a step was not profiled"
        return None

    sample_profile = _lazy(lambda: arrangements.profile(sample))

    def sample_check(cfg):
        if len(cfg) != sample_profile().total_points:
            return (f"|P{{>=2}}| = {len(cfg)} != profile total "
                    f"{sample_profile().total_points}")
        return None

    tasks = [
        Task("cq-L22x3", lambda: dynamics.run_sequence(L22, cq, max_steps=3),
             lambda t: counts_check(CQ_COUNTS, t), orbit=True),
        Task("pp6-L23x4",
             lambda: dynamics.run_sequence(L23, pp6, max_steps=4),
             lambda t: counts_check(PP6_COUNTS, t), orbit=True),
        Task("sample-P2", lambda: arrangements.points_operator(_sel(2), sample),
             sample_check),
        _suite_task("cq-step1", steps[1]),
    ]
    return Plan([tasks], {"q": sample})


# ---------------------------------------------------------------------------
# nf-suite: number fields, small sets paired many times

def _random_projectivity(field, rng):
    """An invertible projectivity with integer entries in -2..2."""
    while True:
        values = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        matrix = projective.Matrix3.from_values(field, values)
        if not matrix.det().is_zero():
            return projective.Projectivity(matrix)


def _moved(arr, g):
    return arrangements.Arrangement(
        arr.field, [projective.apply_projectivity(g, l) for l in arr.lines])


def _nf_suite(seed: int) -> Plan:
    rng = random.Random(seed)
    L33 = _op(3, 3)
    bases = [(name, catalog.build(name, **params)) for name, params in NF_SUITE]
    gr = catalog.build("grunbaum-rigby")
    for name, base in bases:
        _guard_lambda(f"suite on {name}", len(base))
    _guard_sequence("grunbaum-rigby L{>=3;>=3}", [len(gr), GR_IMAGE_LINES])
    profiles = {name: _lazy(lambda base=base: arrangements.profile(base))
                for name, base in bases}
    gr_image = _lazy(lambda: dynamics.apply_operator(L33, gr))

    def gr_task(g):
        moved = _moved(gr, g)
        image = _lazy(lambda: _moved(gr_image(), g))

        def check(trace):
            if trace.counts() != [len(gr), GR_IMAGE_LINES]:
                return f"counts {trace.counts()} != [{len(gr)}, {GR_IMAGE_LINES}]"
            got = trace.steps[0].profile.as_dict()
            if got != GR_PROFILE:
                return f"profile {got} != {GR_PROFILE}"
            if trace.arrangement(1) != image():
                return "image is not the moved image of the unmoved arrangement"
            return None
        # the step-0 profile of the run is the profile of the moved input
        return Task("gr-L33", lambda: dynamics.run_sequence(
            L33, moved, max_steps=1, profile_budget=len(moved)), check,
            orbit=True), moved

    # The cost of a moved set depends on the projectivity, so each pass
    # takes the next of NF_DRAWS draws; the per-task medians of a run then
    # average over draws instead of resting on one.
    variants = []
    for _ in range(NF_DRAWS):
        tasks = []
        for name, base in bases:
            moved = _moved(base, _random_projectivity(base.field, rng))
            tasks.append(_suite_task(name, moved, profiles[name]))
            if name == "dual-hesse":
                nf2 = moved
        task, nf3 = gr_task(_random_projectivity(gr.field, rng))
        tasks.append(task)
        variants.append(tasks)
    # the probe takes the coordinates of the last draw
    return Plan(variants, {"nf2": nf2, "nf3": nf3})


# ---------------------------------------------------------------------------
# ff-orbits: GF(3), thousands of tiny calls

def _ff_orbits(seed: int) -> Plan:
    rng = random.Random(seed)
    L22 = _op(2, 2)
    plane = catalog.build("finite-plane", q=3)
    with open(GF3_TABLE) as f:
        table = json.load(f)
    lines = plane.lines
    if table["lines"] != [[str(c) for c in l.coeffs] for l in lines]:
        raise WorkloadError("gf3_orbits.json lists other lines than PG(2,3)")
    _guard_lambda("GF(3) orbit step", len(lines), _plane_points(3))
    G3 = plane.field

    def orbit_task(mask):
        subset = [l for i, l in enumerate(lines) if mask >> i & 1]
        want = tuple(table["orbits"][mask])

        def run():
            start = arrangements.Arrangement(G3, subset)
            return dynamics.orbit_over_finite_field(L22, start)

        def check(got):
            return None if got == want else f"orbit {got} != {want}"
        return Task(f"orbit:{mask}", run, check, orbit=True)

    tasks = [orbit_task(m) for m in rng.sample(range(1 << len(lines)),
                                               FF_ORBITS)]
    tasks.append(_suite_task("PG(2,3)", plane))
    return Plan([tasks], {"gf3": plane})


# ---------------------------------------------------------------------------
# pp-planes: prime-power field arithmetic

def _brute_lambda_image(sub, plane_lines, m: int) -> set:
    """L{>=2;>=m} of sub by meets and incidence tests on single objects."""
    points = {projective.meet(a, b) for a, b in combinations(sub.lines, 2)}
    image = set()
    for l in plane_lines:
        on = 0
        for p in points:
            if projective.incident(p, l):
                on += 1
                if on >= m:
                    image.add(l)
                    break
    return image


def _pp_planes(seed: int) -> Plan:
    rng = random.Random(seed)
    L22 = _op(2, 2)
    plane = catalog.build("finite-plane", q=PP_PLANE_Q)
    plane4 = catalog.build("finite-plane", q=4)
    pg16 = arrangements.all_projective_lines(fields.GF(16))
    pg49 = arrangements.all_projective_lines(fields.GF(49))
    sub16 = arrangements.Arrangement(pg16.field,
                                     rng.sample(pg16.lines, PP_SUB16))
    sub49 = arrangements.Arrangement(pg49.field,
                                     rng.sample(pg49.lines, PP_SUB49))
    _guard_lambda(f"PG(2,{PP_PLANE_Q}) L{{>=2;>=2}}", len(plane),
                  _plane_points(PP_PLANE_Q))
    _guard_lambda("GF(16) subset L{>=2;>=3}", len(sub16), _plane_points(16))
    _guard("GF(49) subset profile", len(sub49))
    _guard_lambda("suite on PG(2,4)", len(plane4), _plane_points(4))

    def plane_check(trace):
        v = trace.verdict
        if (v.kind, v.at_step) != ("fixed", 0) or trace.arrangement(1) != plane:
            return f"PG(2,{PP_PLANE_Q}) is not fixed: {v.text}"
        return None

    brute16 = _lazy(lambda: _brute_lambda_image(sub16, pg16.lines, 3))

    def sub16_check(img):
        if set(img.lines) != brute16():
            return (f"L{{>=2;>=3}} image has {len(img)} lines, brute force "
                    f"{len(brute16())}")
        return None

    points49 = _lazy(lambda: len(arrangements.points_operator(_sel(2), sub49)))

    def sub49_check(prof):
        if prof.d != len(sub49) or prof.total_points != points49():
            return f"profile {prof.text()} vs {points49()} points"
        return None

    tasks = [
        Task(f"plane{PP_PLANE_Q}-L22", lambda: dynamics.run_sequence(
            L22, plane, max_steps=1, profile_budget=0), plane_check,
            orbit=True),
        Task("sub16-L23", lambda: arrangements.lambda_op(_sel(2), _sel(3),
                                                         sub16), sub16_check),
        Task("sub49-profile", lambda: arrangements.profile(sub49), sub49_check),
        _suite_task("PG(2,4)", plane4),
    ]
    return Plan([tasks], {"gf16": sub16, "gf49": sub49})


WORKLOADS = {
    "q-growth": _q_growth,
    "nf-suite": _nf_suite,
    "ff-orbits": _ff_orbits,
    "pp-planes": _pp_planes,
}


def setup(name: str, seed: int) -> Plan:
    return WORKLOADS[name](seed)
