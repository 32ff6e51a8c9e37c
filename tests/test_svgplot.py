import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import totalcorr
from totalcorr.errors import ParameterError
from totalcorr.harness import TrainingTrace, persist_trace, smooth
from totalcorr.svgplot import _nice_ticks, _step_points, render_traces

GOLDEN_SVG = Path(__file__).parent / "data" / "golden_plot.svg"


def trace_from(raw, targets):
    raw = np.asarray(raw, dtype=np.float64)
    return TrainingTrace(
        steps=np.arange(1, len(raw) + 1),
        target=np.asarray(targets, dtype=np.float64),
        raw=raw,
        smoothed=smooth(raw, 2),
        terms=raw[:, None].copy(),
    )


def run_python(*args: str) -> subprocess.CompletedProcess:
    """python with ``args`` in a child process that is killed after 20 s, so
    a loop that never ends fails the test instead of hanging the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(totalcorr.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=20
    )


def golden_traces():
    """Two fixed traces: one jump in the target, a negative estimate, a
    shorter second trace and a label with every character SVG escapes."""
    a_raw = np.array([0.25, 1.125, 1.5, 3.75, 4.5, 3.875])
    a = TrainingTrace(
        steps=np.arange(1, 7),
        target=np.array([2.0, 2.0, 2.0, 4.0, 4.0, 4.0]),
        raw=a_raw,
        smoothed=np.array([0.25, 0.6875, 1.3125, 2.625, 4.125, 4.1875]),
        terms=a_raw[:, None].copy(),
    )
    b_raw = np.array([-0.5, 0.75, 1.0 / 3.0, 2.0])
    b = TrainingTrace(
        steps=np.arange(1, 5),
        target=np.full(4, 2.0),
        raw=b_raw,
        smoothed=np.array([-0.5, 0.125, 0.5416666666666666, 1.1666666666666667]),
        terms=b_raw[:, None].copy(),
    )
    return [("MINE/TREE", a), ('a & <b> "c"', b)]


class TestStepPoints:
    def test_constant_target_is_a_straight_segment(self):
        pts = list(zip(*_step_points(np.array([1, 2, 3]), np.array([2.0, 2.0, 2.0]))))
        assert pts == [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)]

    def test_jump_inserts_vertical_transition(self):
        pts = list(zip(*_step_points(np.array([1, 2, 3, 4]), np.array([2.0, 2.0, 4.0, 4.0]))))
        assert (3.0, 2.0) in pts and (3.0, 4.0) in pts
        assert pts.index((3.0, 2.0)) + 1 == pts.index((3.0, 4.0))


class TestNiceTicks:
    def test_unit_interval(self):
        ticks = _nice_ticks(0.0, 1.0)
        assert ticks[0] == 0.0
        assert ticks[-1] == pytest.approx(1.0)
        assert 3 <= len(ticks) <= 8

    def test_wide_range(self):
        ticks = _nice_ticks(0.0, 20000.0)
        assert all(t % 2500 == 0 for t in ticks)

    def test_degenerate_range(self):
        assert _nice_ticks(3.0, 3.0) == [3.0]

    def test_range_below_float_spacing_ends(self):
        # the step is below half the float spacing at 1.0, so t += step stays
        # put, and the first tick rounds to 0.9999999999999999, below the range;
        # with no tick left inside it, lo itself is the one tick
        code = "import totalcorr.svgplot as s; print(s._nice_ticks(1.0, 1.0000000000000002))"
        done = run_python("-c", code)
        assert done.returncode == 0 and done.stdout == "[1.0]\n"

    def test_plot_of_nearly_flat_trace_ends(self, tmp_path):
        raw = np.ones(10)
        raw[4] = 1.0000000000000002
        csv, svg = tmp_path / "flat.csv", tmp_path / "flat.svg"
        persist_trace(trace_from(raw, np.ones(10)), csv)
        done = run_python("-m", "totalcorr.cli", "plot", str(csv), "--out", str(svg))
        assert done.returncode == 0, done.stderr
        text = svg.read_text()
        assert text.startswith("<svg")
        grid = re.findall(r'<line x1="[^"]*" y1="([^"]*)"[^>]*stroke="#e0e0e0"', text)
        assert grid == ["485.00"]  # the bottom edge of the plot, at y = 1.0


class TestRenderTraces:
    def test_empty_list_still_valid_svg(self):
        svg = render_traces([])
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "<polyline" not in svg.split("true TC")[0].rsplit("<line", 1)[0]

    def test_single_trace_grammar(self):
        trace = trace_from([0.1, 0.4, 0.8, 1.2], [2.0, 2.0, 2.0, 2.0])
        svg = render_traces([("demo", trace)])
        # raw (light), smoothed (dark), truth (black) polylines
        assert svg.count("<polyline") == 3
        assert 'stroke="#000000" stroke-width="2"' in svg
        assert "demo" in svg and "true TC" in svg

    def test_shared_step_function_drawn_once(self):
        a = trace_from([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])
        b = trace_from([0.3, 0.2, 0.1], [1.0, 1.0, 1.0])
        svg = render_traces([("a", a), ("b", b)])
        assert svg.count("<polyline") == 5  # 2 x (raw + smoothed) + 1 truth

    def test_label_escaping(self):
        trace = trace_from([0.0, 1.0], [1.0, 1.0])
        svg = render_traces([("a<b&c", trace)])
        assert "a&lt;b&amp;c" in svg
        assert "a<b" not in svg

    def test_deterministic_output(self):
        trace = trace_from(np.sin(np.arange(50) / 3.0), np.full(50, 1.5))
        assert render_traces([("t", trace)]) == render_traces([("t", trace)])

    def test_golden_bytes(self):
        # the figure bytes are pinned; rewrite the file only when they change on purpose
        assert render_traces(golden_traces()).encode("utf-8") == GOLDEN_SVG.read_bytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("column", ["raw", "smoothed", "target"])
    def test_non_finite_value_rejected_naming_label(self, bad, column):
        trace = trace_from([0.1, 0.4, 0.8], [2.0, 2.0, 2.0])
        getattr(trace, column)[1] = bad
        with pytest.raises(ParameterError, match=f"trace 'odd one': {column} holds a non-finite"):
            render_traces([("ok", trace_from([0.5, 0.5], [1.0, 1.0])), ("odd one", trace)])

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7e308, 0.0)])
    def test_range_wider_than_a_float_rejected(self, lo, hi, recwarn):
        # the second range is finite, but its 5% padding is not
        trace = trace_from([lo, hi], [0.0, 0.0])
        with pytest.raises(ParameterError, match=re.escape(f"from {lo!r} to {hi!r} span more")):
            render_traces([("wide", trace)])
        assert not recwarn.list
