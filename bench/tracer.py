"""Spans around the calls into lineops, recorded from the benchmark's side.

``Tracer.install()`` wraps the public entry points of each measured layer:
module functions are replaced in every namespace of the checkout that holds
them (``dynamics.profile`` as well as ``arrangements.profile``), and methods
are replaced on their classes, so that ``isinstance`` checks still see the
real classes.  ``uninstall()`` restores the originals.

Each call becomes a span ``[name, start, end, parent, task, note]``.  Spans
stay in memory until ``layer_metrics`` reduces them; a span's self time is
its duration minus the durations of its child spans.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
from math import comb

from lineops import arrangements, catalog, dynamics, projective

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the entry points that pair all lines (meet) or all points (join) of a set
PAIR_PASSES = ("profile", "points_operator", "incidence_index",
               "is_km_configuration", "configuration_connected",
               "lines_operator", "richness_index")
FUNCTIONS = (
    (arrangements, PAIR_PASSES + (
        "lambda_op", "psi_op", "dual_lines_op", "property_suite",
        "classify_degenerate", "inequality_report")),
    (dynamics, ("run_sequence", "orbit_over_finite_field", "apply_operator")),
    (catalog, ("build",)),
)
METHODS = (
    (projective.ProjPoint, "__init__"),
    (projective.ProjLine, "__init__"),
    (arrangements.Arrangement, "__init__"),
    (arrangements.PointConfig, "__init__"),
    (arrangements.Arrangement, "digest"),
)
OBJECTS = ("projective.ProjPoint.__init__", "projective.ProjLine.__init__")
CANON = ("arrangements.Arrangement.__init__",
         "arrangements.PointConfig.__init__")
ORBITS = ("dynamics.run_sequence", "dynamics.orbit_over_finite_field")


def _pass_note(args):
    """(pairs, identity) of a pair pass, None for a set too small to pair."""
    for a in args:
        if isinstance(a, (arrangements.Arrangement, arrangements.PointConfig)):
            if len(a) < 2:
                return None
            direction = "meet" if isinstance(a, arrangements.Arrangement) \
                else "join"
            return comb(len(a), 2), (direction, a.field.spec,
                                     tuple(o.key() for o in a))
    return None


def _set_size(args):
    return len(args[0])


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self._patches = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task,
                   before(args) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[5] = after(args)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for mod, names in FUNCTIONS:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for n in names:
                fn = getattr(mod, n)
                before = _pass_note if n in PAIR_PASSES else None
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn, before))
        for mod in list(sys.modules.values()):
            path = getattr(mod, "__file__", None) or ""
            if not os.path.abspath(path).startswith(ROOT + os.sep):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))
        for cls, meth in METHODS:
            fn = cls.__dict__[meth]
            layer = cls.__module__.rsplit(".", 1)[-1]
            after = _set_size if f"{layer}.{cls.__name__}.{meth}" in CANON \
                else None
            setattr(cls, meth, self._wrap(f"{layer}.{cls.__name__}.{meth}",
                                          fn, after=after))
            self._patches.append((cls, meth, fn))

    def uninstall(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def take(self) -> list:
        """The spans recorded so far; the tracer starts an empty list."""
        out = self.spans[:]
        del self.spans[:]
        return out


def self_times(spans) -> list:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans) -> dict:
    """Counts and seconds per layer from the spans of one pass."""
    m = dict.fromkeys((
        "arrangements.pair_passes", "arrangements.pairs",
        "arrangements.distinct_pairs", "projective.objects_built",
        "arrangements.canon_objs", "dynamics.steps", "dynamics.orbits",
        "catalog.builds"), 0)
    m.update(dict.fromkeys((
        "arrangements.kernel_s", "projective.build_s", "arrangements.canon_s",
        "arrangements.digest_s", "dynamics.step_s", "arrangements.suite_s",
        "catalog.build_s"), 0.0))
    distinct = {}
    for s, own in zip(spans, self_times(spans)):
        name, dur, note = s[0], s[2] - s[1], s[5]
        short = name.split(".", 1)[1]
        if short in PAIR_PASSES:
            m["arrangements.kernel_s"] += own
            if note is not None:
                m["arrangements.pair_passes"] += 1
                m["arrangements.pairs"] += note[0]
                distinct[note[1]] = note[0]
        elif name in OBJECTS:
            m["projective.objects_built"] += 1
            m["projective.build_s"] += dur
        elif name in CANON:
            m["arrangements.canon_objs"] += note or 0
            m["arrangements.canon_s"] += own
        elif name == "arrangements.Arrangement.digest":
            m["arrangements.digest_s"] += dur
        elif name == "dynamics.apply_operator":
            m["dynamics.steps"] += 1
            m["dynamics.step_s"] += dur
        elif name in ORBITS:
            m["dynamics.orbits"] += 1
        elif name == "arrangements.property_suite":
            m["arrangements.suite_s"] += own
        elif name == "catalog.build":
            m["catalog.builds"] += 1
            m["catalog.build_s"] += dur
    m["arrangements.distinct_pairs"] = sum(distinct.values())
    return m


COUNTS = ("arrangements.pair_passes", "arrangements.pairs",
          "arrangements.distinct_pairs", "projective.objects_built",
          "arrangements.canon_objs", "dynamics.steps", "dynamics.orbits")
SECONDS = ("arrangements.kernel_s", "projective.build_s",
           "arrangements.canon_s", "arrangements.digest_s", "dynamics.step_s",
           "arrangements.suite_s")


def pass_summary(per_pass: list, setup: dict) -> dict:
    """Counts of the first traced pass, median seconds, and derived rates.

    Catalog builds happen during set-up, so they come from ``setup``.
    """
    first = per_pass[0]
    out = {k: first[k] for k in COUNTS}
    for k in SECONDS:
        out[k] = statistics.median(p[k] for p in per_pass)
    out["catalog.builds"] = setup["catalog.builds"]
    out["catalog.build_s"] = setup["catalog.build_s"]
    out["arrangements.useful_pair_ratio"] = _ratio(
        out["arrangements.distinct_pairs"], out["arrangements.pairs"])
    out["arrangements.kernel_pairs_per_s"] = _ratio(
        out["arrangements.pairs"], out["arrangements.kernel_s"])
    out["projective.objects_per_s"] = _ratio(
        out["projective.objects_built"], out["projective.build_s"])
    out["arrangements.canon_objs_per_s"] = _ratio(
        out["arrangements.canon_objs"], out["arrangements.canon_s"])
    return out


def _ratio(a, b):
    return a / b if b else 0.0
