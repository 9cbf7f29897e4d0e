import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from lineops import arrangements, dynamics, projective
from lineops.arrangements import (Arrangement, ArrangementError, PointConfig,
                                  dual_lines_op, dualize_arrangement,
                                  h_constant, lambda_op, lines_operator,
                                  make_arrangement, points_operator, profile,
                                  psi_op, sel_at_least, sel_exact)
from lineops.catalog import build
from lineops.dynamics import (apply_operator, dual_spec, lambda_spec,
                              orbit_over_finite_field, run_sequence,
                              trace_table, trace_to_json, union_of_steps)
from lineops.fields import GF, QQ, number_field
from lineops.projective import ProjLine, ProjPoint, join, point

from conftest import reference_sequence

F = QQ()
L2 = lambda_spec(sel_at_least(2), sel_at_least(2))


def test_quadrilateral_run():
    cq = build("complete-quadrilateral")
    tr = run_sequence(L2, cq, max_steps=3, profile_budget=100)
    # 1741 is exact (see criterion 1's integer oracle); the reference
    # table's 1471 is a digit transposition of it
    assert tr.counts() == [6, 9, 25, 1741]
    assert tr.verdict.kind == "budget_steps"
    assert tr.steps[1].profile.as_dict() == {2: 6, 3: 4, 4: 3}
    assert tr.steps[2].profile.as_dict() == {2: 60, 3: 24, 4: 3, 6: 10}
    assert tr.steps[3].profile is None  # beyond the profile budget
    assert tr.steps[2].h == Fraction(-239, 97)
    # strict growth on the first steps (divergent real case)
    for i in range(3):
        assert set(tr.arrangement(i).lines) < set(tr.arrangement(i + 1).lines)


def test_pencil_extinguishes():
    pencil, _ = make_arrangement([(1, k, 0) for k in range(4)], F)
    tr = run_sequence(L2, pencil)
    assert tr.verdict.kind == "extinguished" and tr.verdict.length == 1
    empty_start = run_sequence(L2, Arrangement(F))
    assert empty_start.verdict.kind == "extinguished"
    assert empty_start.verdict.length == 0


def test_fixed_point_verdict():
    dh = build("dual-hesse")
    tr = run_sequence(lambda_spec(sel_at_least(3), sel_at_least(3)), dh)
    assert tr.verdict.kind == "fixed" and tr.verdict.at_step == 0
    assert tr.counts() == [9, 9]


def test_flashing_cycle_verdict():
    f0 = build("flashing3")
    tr = run_sequence(lambda_spec(sel_exact(2), sel_exact(3)), f0)
    assert tr.verdict.kind == "cycle"
    assert (tr.verdict.preperiod, tr.verdict.period) == (0, 2)
    u = union_of_steps(tr, 0, 1)
    assert len(u) == 9 and profile(u).as_dict() == {2: 6, 3: 10}
    assert union_of_steps(tr, 1, 1) == tr.arrangement(1)
    with pytest.raises(ArrangementError):
        union_of_steps(tr, 0, 99)


def test_budget_lines():
    cq = build("complete-quadrilateral")
    tr = run_sequence(L2, cq, max_steps=10, max_lines=100, profile_budget=50)
    assert tr.verdict.kind == "budget_lines"
    assert tr.counts()[-1] == 1741


def test_budget_validation():
    with pytest.raises(ArrangementError):
        run_sequence(L2, Arrangement(F), max_steps=0)


def test_sequence_refuses_negative_profile_budget():
    """A negative profile budget is refused; 0 profiles no step."""
    fp = build("finite-plane", q=4)
    with pytest.raises(ArrangementError):
        run_sequence(L2, fp, profile_budget=-1)
    tr = run_sequence(L2, fp, profile_budget=0)
    assert tr.verdict.kind == "fixed"
    assert [s.profile for s in tr.steps] == [None, None]


def test_operator_chain_apply():
    arr = build("flashing3")
    chain = (lambda_spec(sel_exact(3), sel_exact(2)), dual_spec(sel_exact(2)))
    # composition applies right-to-left
    step = apply_operator(dual_spec(sel_exact(2)), arr)
    assert apply_operator(chain, arr) == apply_operator(
        lambda_spec(sel_exact(3), sel_exact(2)), step)


def test_orbit_finite_plane_fixed():
    fp = build("finite-plane", q=3)
    assert orbit_over_finite_field(L2, fp) == (0, 1)


def test_orbit_quadrilateral_char2():
    G2 = GF(2)
    pts = [point(G2, 1, 0, 0), point(G2, 0, 1, 0), point(G2, 0, 0, 1),
           point(G2, 1, 1, 1)]
    cq2 = Arrangement(G2, [join(a, b) for a, b in combinations(pts, 2)])
    # the diagonal points are collinear in characteristic 2, so the
    # (>=2, >=3) operator produces the Fano plane, then stays there
    op = lambda_spec(sel_at_least(2), sel_at_least(3))
    assert orbit_over_finite_field(op, cq2) == (1, 1)
    assert apply_operator(op, cq2) == build("finite-plane", q=2)


def test_orbit_extinction_is_period_one():
    G2 = GF(2)
    two, _ = make_arrangement([(1, 0, 0), (0, 1, 0)], G2)
    assert orbit_over_finite_field(L2, two) == (1, 1)


def test_orbit_requires_finite_field():
    with pytest.raises(ArrangementError):
        orbit_over_finite_field(L2, build("complete-quadrilateral"))


def test_trace_export():
    tr = run_sequence(L2, build("complete-quadrilateral"), max_steps=2)
    doc = trace_to_json(tr)
    assert doc["steps"][0]["lines"] == 6
    assert doc["steps"][1]["t"] == {"2": 6, "3": 4, "4": 3}
    assert doc["steps"][1]["H"] == "-27/13"
    assert doc["verdict"]["kind"] == "budget_steps"
    json.dumps(doc)
    table = trace_table(tr)
    assert "t4" in table.splitlines()[0]
    assert table.strip().endswith("verdict: budget_steps")


def test_lemma28_gate_runs_on_every_step():
    # growth from 6 lines under (>=2, >=3) respects 6 >= 2*3
    tr = run_sequence(lambda_spec(sel_at_least(2), sel_at_least(3)),
                      build("parallel-pairs6"), max_steps=2)
    assert tr.counts()[:3] == [6, 10, 13]


def test_one_pair_pass_per_operated_step(count_passes):
    """A step that the next Lambda pairs takes its profile from that
    Lambda's pair table: P_{>=3} and L_{>=3} pair 21 lines and 28 points,
    and the 21 lines are not paired again for the profile."""
    gr = build("grunbaum-rigby")
    want = profile(gr)
    calls = count_passes()
    tr = run_sequence(lambda_spec(sel_at_least(3), sel_at_least(3)), gr,
                      max_steps=1, profile_budget=len(gr))
    assert [n for _, n in calls] == [21, 28]
    assert tr.steps[0].profile == want and tr.steps[1].profile is None


def test_dual_step_takes_its_profile_from_its_pass(monkeypatch,
                                                   count_passes):
    """A step whose first operator is a dual step takes its profile from
    that pass, since the join table of the dual points is the lines' meet
    table: the 9 lines of pappus are paired once, and only the last step
    gets a row pass of its own (over Q a row pass does not go through the
    pair kernel, so it is counted apart)."""
    pappus = build("pappus")
    calls = count_passes("_row_sizes")
    tr = run_sequence(dual_spec(sel_at_least(2)), pappus, max_steps=1,
                      profile_budget=100)
    assert calls == [("_code_meets", 9), ("_row_sizes", 18)]
    monkeypatch.undo()
    assert [s.profile for s in tr.steps] == [profile(a) for a in tr.arrangements]


def test_operators_build_no_intermediate_set(monkeypatch):
    """Lambda and the dual step build no point, point set or dual line;
    Psi builds no line or arrangement: the objects of the result are the
    only ones made."""
    sel = sel_at_least(2)

    def forbidden(*args, **kwargs):
        raise AssertionError("an intermediate object was built")
    for arr in (build("pappus"), build("dual-hesse"),
                build("finite-plane", q=3)):
        cfg = dualize_arrangement(arr)
        want = (lines_operator(sel, points_operator(sel, arr)),
                lines_operator(sel, dualize_arrangement(arr)),
                points_operator(sel, lines_operator(sel, cfg)))
        with monkeypatch.context() as m:
            for obj, name in ((ProjPoint, "__init__"), (PointConfig, "__init__"),
                              (projective, "dualize"), (arrangements, "dualize")):
                m.setattr(obj, name, forbidden)
            got = (lambda_op(sel, sel, arr), dual_lines_op(sel, arr))
        with monkeypatch.context() as m:
            for cls in (ProjLine, Arrangement):
                m.setattr(cls, "__init__", forbidden)
            got += (psi_op(sel, sel, cfg),)
        assert got == want


NK = lambda_spec(sel_at_least(2), sel_at_least(3))  # m >= nk: at least 6 lines


@pytest.mark.parametrize("d, new, fires", [(5, True, True), (6, True, False),
                                           (5, False, False)])
def test_lemma_gate_fires_on_a_new_line_below_the_bound(monkeypatch, d, new,
                                                        fires):
    """A step that adds a line to fewer than nk lines is an engine bug; at
    nk lines or more, or with no new line, the step passes."""
    start, _ = make_arrangement([(1, k, k * k) for k in range(d)], F)
    extra = (0, 0, 1) if new else (1, 0, 0)
    step, _ = make_arrangement(start.digest() + (extra,), F)

    def patched(op, arr, profiled):
        return step, None
    monkeypatch.setattr(dynamics, "_apply", patched)
    if fires:
        with pytest.raises(AssertionError, match="violates the m >= nk bound"):
            run_sequence(NK, start, max_steps=1)
    else:
        run_sequence(NK, start, max_steps=1)


@pytest.mark.parametrize("op, start, steps, budget", [
    (L2, "complete-quadrilateral", 3, 100),
    (lambda_spec(sel_at_least(2), sel_at_least(3)), "parallel-pairs6", 4, 30),
    (lambda_spec(sel_exact(2), sel_exact(3)), "flashing3", 3, 100),
    ((L2, dual_spec(sel_at_least(3))), "complete-quadrilateral", 3, 100),
    ((lambda_spec(sel_exact(3), sel_exact(2)), dual_spec(sel_exact(2))),
     "grid6", 4, 100),
    ((dual_spec(sel_exact(2)), lambda_spec(sel_exact(3), sel_exact(2))),
     "pappus", 2, 100),
])
def test_step_profiles_match_row_pass(op, start, steps, budget):
    """Whether a step's profile comes from its operator's pair table or
    from a row pass of its own, it is the row-pass profile, within the
    budget, and H follows it."""
    tr = run_sequence(op, build(start), max_steps=steps, profile_budget=budget)
    for step, arr in zip(tr.steps, tr.arrangements):
        want = profile(arr) if len(arr) <= budget else None
        assert step.profile == want
        assert step.h == (h_constant(want) if want and want.total_points
                          else None)


def _agrees_with_reference(op, start, **budgets):
    """run_sequence and the digest-based reference loop give the same
    verdict, and per step the same count, profile, H and digest; the
    digests are read last, so the run is compared before any of its steps
    is decoded.  Returns the verdict."""
    tr = run_sequence(op, start, **budgets)
    verdict, steps = reference_sequence(op, start, **budgets)
    assert tr.verdict == verdict
    assert [(s.count, s.profile, s.h) for s in tr.steps] == \
        [step[:3] for step in steps]
    assert [s.digest for s in tr.steps] == [step[3] for step in steps]
    return verdict


Lx23 = lambda_spec(sel_exact(2), sel_exact(3))
Lx32 = lambda_spec(sel_exact(3), sel_exact(2))
L23 = lambda_spec(sel_at_least(2), sel_at_least(3))
L32 = lambda_spec(sel_at_least(3), sel_at_least(2))


@pytest.mark.parametrize("op, make, budgets", [
    (L2, lambda: build("complete-quadrilateral"),
     {"max_steps": 3, "profile_budget": 100}),
    (L23, lambda: build("parallel-pairs6"),
     {"max_steps": 4, "profile_budget": 200}),
    (L32, lambda: build("dual-hesse"), {"max_steps": 3, "profile_budget": 100}),
    (Lx23, lambda: build("flashing3", t=Fraction(3)), {}),
    (Lx23, lambda: build("flashing3", t=Fraction(5)), {}),
    (Lx23, lambda: build("flashing3", t=Fraction(7, 3)), {}),
    (Lx32, lambda: dual_lines_op(sel_exact(2), build("flashing3")), {}),
    (lambda_spec(sel_exact(2), sel_exact(4)),
     lambda: build("flashing4", part="c0"), {}),
    (lambda_spec(sel_exact(2), sel_exact(2)),
     lambda: build("generic", n=4, seed=1), {"max_steps": 6}),
    (Lx23, lambda: build("unassuming"), {"max_steps": 3}),
    ((L2, dual_spec(sel_at_least(3))), lambda: build("complete-quadrilateral"),
     {"max_steps": 3, "profile_budget": 100}),
], ids=["cq", "pp6", "dual-hesse", "flashing3-3", "flashing3-5",
        "flashing3-7/3", "flashing3-dual", "flashing4", "generic4",
        "unassuming", "cq-chain"])
def test_sequence_matches_digest_reference(op, make, budgets):
    """The acceptance sequences: the same trace with cycles found on code
    sets as with cycles found on digests."""
    _agrees_with_reference(op, make(), **budgets)


SEQUENCE_FIELDS = {"Q": QQ(), "GF(101)": GF(101), "GF(8)": GF(8),
                   "Q(omega)": number_field([1, 1, 1])}


@pytest.mark.parametrize("name", sorted(SEQUENCE_FIELDS))
def test_sequence_matches_digest_reference_on_random_arrangements(name):
    """Seeded arrangements, the joins of five points whose coordinates come
    from a few small elements, so that they have rich points, under five
    operators: the same trace as the reference, and among the verdicts
    both one at a recurring step and one that is not."""
    field = SEQUENCE_FIELDS[name]
    if field.characteristic:
        elems = [field.zero] + ([field.generator ** i for i in range(7)]
                                if field.degree > 1 else
                                [field.scalar(v) for v in range(1, 7)])
    else:
        x = field.generator if field.degree > 1 else field.zero
        elems = [field.scalar(a) + field.scalar(b) * x
                 for a in range(-1, 2) for b in range(-1, 2)]
    rng, kinds = random.Random(7), set()
    for _ in range(4):
        pts = set()
        while len(pts) < 5:
            t = [rng.choice(elems) for _ in range(3)]
            if any(not c.is_zero() for c in t):
                pts.add(ProjPoint(t))
        start = Arrangement(field, [join(a, b) for a, b in combinations(pts, 2)])
        for op in (L2, L23, Lx23, L32, Lx32):
            kinds.add(_agrees_with_reference(op, start, max_steps=6,
                                             max_lines=40, profile_budget=40).kind)
    assert kinds & {"fixed", "cycle"} and kinds - {"fixed", "cycle"}


def test_counted_sequence_builds_no_object(monkeypatch):
    """A sequence whose trace is only counted and profiled decodes no step:
    no line, point or set is built, and a digest is made only when read."""
    cq = build("complete-quadrilateral")
    built = []
    for cls in (ProjPoint, ProjLine, Arrangement, PointConfig):
        def counting(self, *args, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    tr = run_sequence(L2, cq, max_steps=3)
    assert tr.counts() == [6, 9, 25, 1741]
    assert [s.profile.d for s in tr.steps] == tr.counts()
    assert tr.steps[2].h == Fraction(-239, 97)
    assert trace_to_json(tr)["verdict"]["kind"] == "budget_steps"
    assert built == []
    # a digest decodes the step's lines and builds no set
    assert len(tr.steps[2].digest) == 25 and set(built) == {"ProjLine"}
