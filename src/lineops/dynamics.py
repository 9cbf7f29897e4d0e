"""Iteration of line operators: fixed points, cycles, extinction, budgets.

A run keeps the full history of arrangements and detects cycles on their
sets of integer codes (``_ObjectSet._code_set``): equal codes mean equal
lines, so this is exact set equality, never a fingerprint, and a step is
decoded only when its lines or its digest are read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .arrangements import (Arrangement, ArrangementError, MultiplicitySelector,
                           SingularityProfile, _operate, h_constant, profile)

DEFAULT_MAX_STEPS = 16
DEFAULT_MAX_LINES = 20000
DEFAULT_PROFILE_BUDGET = 8000


@dataclass(frozen=True)
class OperatorSpec:
    """One operator: Lambda(nsel, msel) or DualLines(sel)."""

    kind: str  # "lambda" | "dual_lines"
    nsel: Optional[MultiplicitySelector] = None
    msel: Optional[MultiplicitySelector] = None
    sel: Optional[MultiplicitySelector] = None

    def __post_init__(self):
        if self.kind == "lambda":
            if self.nsel is None or self.msel is None:
                raise ArrangementError("lambda operator needs both selectors")
        elif self.kind == "dual_lines":
            if self.sel is None:
                raise ArrangementError("dual-lines operator needs a selector")
        else:
            raise ArrangementError(f"unknown operator kind {self.kind!r}")

    @property
    def text(self) -> str:
        if self.kind == "lambda":
            return f"L{{{self.nsel.text};{self.msel.text}}}"
        return f"D{{{self.sel.text}}}"

    def __repr__(self):
        return self.text


def lambda_spec(nsel: MultiplicitySelector,
                msel: MultiplicitySelector) -> OperatorSpec:
    return OperatorSpec("lambda", nsel=nsel, msel=msel)


def dual_spec(sel: MultiplicitySelector) -> OperatorSpec:
    return OperatorSpec("dual_lines", sel=sel)


OperatorChain = Union[OperatorSpec, Sequence[OperatorSpec]]


def apply_operator(op: OperatorChain, arr: Arrangement) -> Arrangement:
    """Apply one operator or a chain (right-to-left, like composition)."""
    return _apply(op, arr, False)[0]


def _apply(op: OperatorChain, arr: Arrangement, profiled: bool) -> tuple:
    """(apply_operator(op, arr), the profile of arr or None): the chain's
    selections, right to left (Lambda: nsel then msel; a dual step: sel), in
    one ``_operate`` call, which reads the profile, when ``profiled``, off
    the first pair table, so the pairs of arr are met once."""
    chain = (op,) if isinstance(op, OperatorSpec) else tuple(op)
    sels = [s for spec in reversed(chain) for s in
            ((spec.nsel, spec.msel) if spec.kind == "lambda" else (spec.sel,))]
    return _operate(sels, arr, Arrangement, profiled)


def _lemma_gate(op: OperatorChain, before: Arrangement, after: Arrangement):
    """New lines force |before| >= min(n) * min(k) for a single Lambda step.
    The gate can fire only below that bound, so only there is a new line
    looked for."""
    if not isinstance(op, OperatorSpec) or op.kind != "lambda":
        return
    bound = op.nsel.min_member * op.msel.min_member
    if len(before) < bound and not after._code_set() <= before._code_set():
        raise AssertionError(
            f"new line out of {len(before)} lines violates the m >= nk bound "
            f"({bound}); engine bug")


@dataclass(frozen=True)
class TraceStep:
    index: int
    count: int
    profile: Optional[SingularityProfile]
    h: Optional[Fraction]
    arrangement: Arrangement

    @property
    def digest(self) -> tuple:
        """The step's canonical digest, made only when read."""
        return self.arrangement.digest()


@dataclass(frozen=True)
class Verdict:
    kind: str  # fixed | cycle | extinguished | budget_lines | budget_steps
    at_step: Optional[int] = None
    preperiod: Optional[int] = None
    period: Optional[int] = None
    length: Optional[int] = None

    @property
    def text(self) -> str:
        if self.kind == "fixed":
            return f"fixed (at step {self.at_step})"
        if self.kind == "cycle":
            return f"cycle (preperiod {self.preperiod}, period {self.period})"
        if self.kind == "extinguished":
            return f"extinguished (length {self.length})"
        return self.kind


@dataclass(frozen=True)
class SequenceTrace:
    operator: str
    steps: tuple  # TraceStep, ...
    verdict: Verdict
    max_steps: int
    max_lines: int
    profile_budget: int
    arrangements: tuple  # Arrangement per step, same indexing as steps

    def counts(self):
        return [s.count for s in self.steps]

    def arrangement(self, i: int) -> Arrangement:
        if not 0 <= i < len(self.arrangements):
            raise ArrangementError(f"step {i} out of range")
        return self.arrangements[i]


def run_sequence(op: OperatorChain, start: Arrangement,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 max_lines: int = DEFAULT_MAX_LINES,
                 profile_budget: int = DEFAULT_PROFILE_BUDGET) -> SequenceTrace:
    """Iterate an operator, recording counts/profiles until a verdict.

    Verdicts: fixed (next equals current), cycle (an earlier step recurs,
    period >= 2), extinguished (empty reached; its index is the length),
    budget_lines / budget_steps.  A step's profile is the one its operator
    pass gave, or else one of its own within the budget.
    """
    if max_steps < 1 or max_lines < 1 or profile_budget < 0:
        raise ArrangementError("budgets must be >= 1, profile_budget >= 0")
    op_text = op.text if isinstance(op, OperatorSpec) else \
        "".join(s.text for s in op)
    arrs, profs = [start], []  # profs: what each pass gave of the step it paired
    seen = {start._code_set(): 0}
    verdict = Verdict("extinguished", length=0) if start.is_empty() else None
    while verdict is None:
        step, current = len(profs), arrs[-1]
        if step >= max_steps:
            verdict = Verdict("budget_steps", at_step=step)
            break
        nxt, prof = _apply(op, current, len(current) <= profile_budget)
        _lemma_gate(op, current, nxt)
        profs.append(prof)
        arrs.append(nxt)
        first = seen.setdefault(nxt._code_set(), step + 1)
        if nxt.is_empty():
            verdict = Verdict("extinguished", length=step + 1)
        elif first == step:
            verdict = Verdict("fixed", at_step=first)
        elif first < step:
            verdict = Verdict("cycle", preperiod=first, period=step + 1 - first)
        elif len(nxt) > max_lines:
            verdict = Verdict("budget_lines", at_step=step + 1)
    steps = []
    for i, (arr, prof) in enumerate(zip(arrs, profs + [None])):
        if prof is None and len(arr) <= profile_budget:
            prof = profile(arr)
        h = h_constant(prof) if prof is not None and prof.total_points else None
        steps.append(TraceStep(i, len(arr), prof, h, arr))
    return SequenceTrace(op_text, tuple(steps), verdict, max_steps, max_lines,
                         profile_budget, tuple(arrs))


def orbit_over_finite_field(op: OperatorChain, start: Arrangement):
    """(preperiod, period) of the orbit; total over a finite field.

    Extinction shows up as the orbit reaching the empty arrangement, which
    is a fixed point, so the result is (steps to empty, 1).
    """
    if start.field.characteristic == 0:
        raise ArrangementError("orbit_over_finite_field needs a finite field")
    seen = {start.digest(): 0}
    current = start
    step = 0
    while True:
        current = apply_operator(op, current)
        step += 1
        first = seen.setdefault(current.digest(), step)
        if first < step:
            return first, step - first


def union_of_steps(trace: SequenceTrace, i: int, j: int) -> Arrangement:
    return trace.arrangement(i).union(trace.arrangement(j))


# ---------------------------------------------------------------------------
# export

def trace_to_json(trace: SequenceTrace) -> dict:
    steps = []
    for s in trace.steps:
        rec = {"step": s.index, "lines": s.count}
        if s.profile is not None:
            rec["t"] = {str(k): v for k, v in s.profile.counts}
        if s.h is not None:
            rec["H"] = f"{s.h.numerator}/{s.h.denominator}"
        steps.append(rec)
    v = trace.verdict
    verdict = {"kind": v.kind}
    for name in ("at_step", "preperiod", "period", "length"):
        val = getattr(v, name)
        if val is not None:
            verdict[name] = val
    return {
        "operator": trace.operator,
        "budgets": {"max_steps": trace.max_steps, "max_lines": trace.max_lines,
                    "profile_budget": trace.profile_budget},
        "steps": steps,
        "verdict": verdict,
    }


def trace_table(trace: SequenceTrace) -> str:
    """Aligned text table: step, line count, H, then the t-columns."""
    ks = sorted({k for s in trace.steps if s.profile
                 for k, _ in s.profile.counts})
    header = ["step", "lines", "H"] + [f"t{k}" for k in ks]
    rows = [header]
    for s in trace.steps:
        row = [str(s.index), str(s.count)]
        if s.h is not None:
            row.append(f"{s.h} ({float(s.h):.4f})")
        elif s.profile is not None:
            row.append("-")
        else:
            row.append("(skipped)")
        t = s.profile.as_dict() if s.profile is not None else {}
        row += [str(t.get(k, "")) for k in ks]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    lines.append(f"verdict: {trace.verdict.text}")
    return "\n".join(lines) + "\n"
