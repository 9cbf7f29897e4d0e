import re
from fractions import Fraction

import pytest

from lineops import fields
from lineops.arrangements import Arrangement, ArrangementError, make_arrangement
from lineops.catalog import build
from lineops.fields import QQ, FieldError, real_roots
from lineops.render import RenderSpec, render_svg

F = QQ()


def seg_coords(svg):
    out = []
    for m in re.finditer(r'<line class="[^"]*" x1="([-\d.]+)" y1="([-\d.]+)" '
                         r'x2="([-\d.]+)" y2="([-\d.]+)"', svg):
        out.append(tuple(float(v) for v in m.groups()))
    return out


def test_triangle_two_visible_segments():
    tri, _ = make_arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1)], F)
    result = render_svg([tri], RenderSpec(mark_points=False))
    assert len(seg_coords(result.svg)) == 2  # z = 0 invisible on this chart
    assert result.omitted == (1,)


@pytest.mark.parametrize("chart, segments, mark", [
    # y = 0 and x + 2y + 4z = 0 on the default window, 160 px a unit, the
    # line y = 0 first (canonical order).  Chart z: Y = 0, and X + 2Y + 4 = 0
    # from (-2, -1) to (0, -2); the meet (-4 : 0 : 1) is at X = -4, off the
    # window
    ("z", [(0, 320, 640, 320), (0, 480, 320, 640)], None),
    # chart y (X = x, Y = z): y = 0 is the line at infinity, X + 4Y + 2 = 0
    # runs from (-2, 0) to (2, -1), and the meet is at infinity
    ("y", [(0, 320, 640, 480)], None),
    # chart x (X = y, Y = z): X = 0, and 2X + 4Y + 1 = 0 from (-2, 3/4) to
    # (2, -5/4); the meet (1 : 0 : -1/4) is at (0, -1/4)
    ("x", [(320, 640, 320, 0), (0, 200, 640, 520)], (320, 360)),
])
def test_chart_matches_hand_derived_segments(chart, segments, mark):
    arr, _ = make_arrangement([(1, 2, 4), (0, 1, 0)], F)
    svg = render_svg([arr], RenderSpec(chart=chart)).svg
    assert seg_coords(svg) == segments  # exact: every end is a multiple of 40 px
    marks = re.findall(r'cx="([-\d.]+)" cy="([-\d.]+)"', svg)
    assert marks == ([] if mark is None else [tuple(f"{v:.4f}" for v in mark)])


def test_grid6_segments_and_marks():
    grid = build("grid6")
    result = render_svg([grid], RenderSpec())
    assert len(seg_coords(result.svg)) == 6
    assert result.svg.count('circle class="mark"') == 9  # the affine doubles
    assert result.omitted == (0,)


def test_empty_arrangement_is_valid_svg():
    result = render_svg([Arrangement(F)], RenderSpec())
    assert result.svg.startswith("<?xml")
    assert "</svg>" in result.svg
    assert not seg_coords(result.svg)


def test_determinism():
    layers = [build("grid6"), build("complete-quadrilateral")]
    a = render_svg(layers, RenderSpec())
    b = render_svg(layers, RenderSpec())
    assert a.svg == b.svg


def test_clipping_soundness():
    spec = RenderSpec(size=500)
    arr = build("parallel-pairs6")
    result = render_svg([arr], spec)
    x0, x1, y0, y1 = [float(v) for v in spec.window]
    scale = spec.size / (x1 - x0)
    height = (y1 - y0) * scale
    for ax, ay, bx, by in seg_coords(result.svg):
        for x, y in ((ax, ay), (bx, by)):
            assert -1e-6 <= x <= spec.size + 1e-6
            assert -1e-6 <= y <= height + 1e-6


def test_number_field_chart():
    arr = build("polygonal", n=10)  # over Q(2cos(2pi/5))
    result = render_svg([arr], RenderSpec(root_index=1, mark_points=False))
    assert len(seg_coords(result.svg)) >= 8


def test_marks_of_layers_from_different_fields_rejected():
    """Point marks meet lines of every layer, so the layers must share one
    field; without marks, layers over Q and Q(sqrt 5) draw side by side."""
    layers = [build("polygonal", n=10), build("pappus")]
    with pytest.raises(FieldError, match="live in different fields"):
        render_svg(layers, RenderSpec())
    result = render_svg(layers, RenderSpec(mark_points=False))
    assert len(seg_coords(result.svg)) == sum(len(a) for a in layers) - sum(
        result.omitted)


def test_real_roots_searched_once_per_field(monkeypatch):
    arr = build("grunbaum-rigby")
    calls = []

    def counting(poly, *args):
        calls.append(poly)
        return real_roots(poly, *args)

    fields._real_roots_of.cache_clear()
    monkeypatch.setattr(fields, "real_roots", counting)
    render_svg([arr], RenderSpec())
    assert calls == [arr.field.spec.min_poly]


def test_non_real_field_rejected():
    dh = build("dual-hesse")
    with pytest.raises(ArrangementError):
        render_svg([dh], RenderSpec())


def test_bad_window():
    with pytest.raises(ArrangementError):
        RenderSpec(window=(Fraction(1), Fraction(1), Fraction(0), Fraction(2)))
    with pytest.raises(ArrangementError):
        RenderSpec(chart="w")
