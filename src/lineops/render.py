"""Static SVG figures of real-embeddable arrangements.

Floats appear only at emission time; clipping uses a 1e-9 tolerance.
Lines through the chart's line at infinity are skipped and counted.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .arrangements import ArrangementError, _from_key, _pair_counts
from .fields import RATIONALS, FieldError, real_embedding
from .projective import ProjPoint

_CLIP_EPS = 1e-9

_STYLE = """\
  <style>
    line { stroke-width: 1.4; fill: none; }
    .step0 { stroke: #000000; }
    .step1 { stroke: #1f6feb; }
    .step2 { stroke: #d02020; }
    .step3 { stroke: #1a9850; }
    .step4 { stroke: #b26bd8; }
    .step5 { stroke: #c08020; }
    circle.mark { fill: #404040; fill-opacity: 0.55; stroke: none; }
  </style>
"""


@dataclass(frozen=True)
class RenderSpec:
    """Affine window and chart for an arrangement drawing."""

    window: tuple = (Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))
    chart: str = "z"              # which coordinate is set to 1
    root_index: int = 0           # real embedding choice for number fields
    mark_points: bool = True      # draw singular points sized by multiplicity
    size: int = 640               # pixel width of the square image

    def __post_init__(self):
        x0, x1, y0, y1 = self.window
        if not (x0 < x1 and y0 < y1):
            raise ArrangementError("degenerate render window")
        if self.chart not in ("x", "y", "z"):
            raise ArrangementError("chart must be one of x, y, z")


@dataclass(frozen=True)
class RenderResult:
    svg: str
    omitted: tuple  # per layer: number of lines invisible on this chart


def _clip_line(a: float, b: float, c: float, window) -> Optional[tuple]:
    """Segment of aX + bY + c = 0 inside the window, or None."""
    x0, x1, y0, y1 = window
    pts = []

    def push(x, y):
        if x0 - _CLIP_EPS <= x <= x1 + _CLIP_EPS and y0 - _CLIP_EPS <= y <= y1 + _CLIP_EPS:
            for px, py in pts:
                if abs(px - x) < _CLIP_EPS and abs(py - y) < _CLIP_EPS:
                    return
            pts.append((min(max(x, x0), x1), min(max(y, y0), y1)))

    if abs(b) > _CLIP_EPS:
        for x in (x0, x1):
            push(x, (-c - a * x) / b)
    if abs(a) > _CLIP_EPS:
        for y in (y0, y1):
            push((-c - b * y) / a, y)
    if len(pts) < 2:
        return None
    best = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
            if best is None or d > best[0]:
                best = (d, pts[i], pts[j])
    if best[0] < _CLIP_EPS ** 2:
        return None
    return best[1], best[2]


def render_svg(layers: Sequence, spec: RenderSpec = RenderSpec()) -> RenderResult:
    """Render Arrangement layers to one SVG document, layer i in the style
    class step<i mod 6>.  Every field involved must admit a real embedding,
    and with point marks on all lines must be over one field.
    """
    x0, x1, y0, y1 = [float(v) for v in spec.window]
    size = spec.size
    scale = size / (x1 - x0)
    height = (y1 - y0) * scale
    chart = {"z": (0, 1, 2), "y": (0, 2, 1), "x": (1, 2, 0)}[spec.chart]

    def embedded(triple):  # reordered so the chart coordinate is last, as floats
        return [real_embedding(triple[i], spec.root_index) for i in chart]

    def px(x):
        return (x - x0) * scale

    def py(y):
        return height - (y - y0) * scale  # svg y grows downward

    parts = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'width="{size}" height="{height:.2f}" '
                 f'viewBox="0 0 {size} {height:.2f}">\n')
    parts.append(_STYLE)
    parts.append(f'  <rect x="0" y="0" width="{size}" height="{height:.2f}" '
                 'fill="#ffffff"/>\n')

    omitted = []
    window = (x0, x1, y0, y1)
    arrs = []
    for layer_index, arr in enumerate(layers):
        if not arr.field.has_real_embedding():
            raise ArrangementError(
                f"field {arr.field.spec.text} has no real embedding")
        style = f"step{layer_index % 6}"
        skipped = 0
        if len(arr):  # the lines' fields must agree when marked
            arrs.append(arr)
        for l in arr.lines:
            a, b, c = embedded(l.coeffs)
            if abs(a) <= _CLIP_EPS and abs(b) <= _CLIP_EPS:
                skipped += 1   # the chart's line at infinity
                continue
            seg = _clip_line(a, b, c, window)
            if seg is None:
                skipped += 1
                continue
            (ax, ay), (bx, by) = seg
            parts.append(f'  <line class="{style}" x1="{px(ax):.4f}" '
                         f'y1="{py(ay):.4f}" x2="{px(bx):.4f}" y2="{py(by):.4f}"/>\n')
        omitted.append(skipped)

    if spec.mark_points and sum(map(len, arrs)) >= 2:
        field = arrs[0].field
        if any(a.field.spec != field.spec for a in arrs):
            raise FieldError("layers live in different fields")
        codes = list(dict.fromkeys(chain.from_iterable(a._codes for a in arrs)))
        counts, k = _pair_counts(codes, field)  # not a finite plane: k is a dict
        marks = []
        for key, c in counts.items():
            if field.kind == RATIONALS:  # as float(Fraction(v, lead)) rounds
                lead = next(filter(None, key))
                u, v, w = [key[i] / lead for i in chart]
            else:
                u, v, w = embedded(_from_key(ProjPoint, key, field).coords)
            if abs(w) <= _CLIP_EPS:
                continue
            x, y = u / w, v / w
            if x0 <= x <= x1 and y0 <= y <= y1:
                marks.append((px(x), py(y), k[c]))
        marks.sort()
        for mx, my, mult in marks:
            r = 1.8 + 1.1 * (mult - 2)
            parts.append(f'  <circle class="mark" cx="{mx:.4f}" cy="{my:.4f}" '
                         f'r="{r:.2f}"/>\n')

    parts.append("</svg>\n")
    return RenderResult("".join(parts), tuple(omitted))
