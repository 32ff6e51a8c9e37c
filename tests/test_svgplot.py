import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import totalcorr
from totalcorr import svgplot
from totalcorr.errors import ParameterError
from totalcorr.harness import TrainingTrace, persist_trace, smooth
from totalcorr.svgplot import _nice_ticks, _points, _step_points, render_traces, write_svg

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


def points_per_point(xs, ys):
    """The points attribute as one f-string per point, joined: the oracle
    whose bytes _points must reproduce."""
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))


def default_length_traces():
    """8 traces of the default protocol's 20,000 steps: targets 2 to 10 in
    steps of 4000, three noisy terms each."""
    rng = np.random.default_rng(11)
    target = np.repeat([2.0, 4.0, 6.0, 8.0, 10.0], 4000)
    traces = []
    for i in range(8):
        terms = target[:, None] / 3 + rng.normal(0.0, 0.5, (len(target), 3))
        raw = terms.sum(axis=1)
        trace = TrainingTrace(
            steps=np.arange(1, len(target) + 1),
            target=target,
            raw=raw,
            smoothed=smooth(raw, 200),
            terms=terms,
        )
        traces.append((f"trace {i}", trace))
    return traces


# pixels at a two-decimal tie that is exact in binary, and so rounds to even,
# or (0.005) just above one; negative ones and signed zeros included
HALVES = [0.125, 0.375, 0.625, 2.5, -0.125, -0.375, -3.625, 0.005, -0.0, 0.0]


class TestPoints:
    def test_default_length_figure_matches_the_per_point_writer(self, monkeypatch):
        traces = default_length_traces()
        svg = render_traces(traces)
        monkeypatch.setattr(svgplot, "_points", points_per_point)
        assert svg == render_traces(traces)
        assert svg.count("<polyline") == 17  # 8 x (raw + smoothed) + 1 shared truth

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(HALVES), st.floats(allow_nan=False, allow_infinity=False)),
                st.one_of(st.sampled_from(HALVES), st.floats(-1e4, 1e4)),
            ),
            max_size=40,
        )
    )
    def test_bytes_match_the_per_point_fstrings(self, pixels):
        xs = np.array([x for x, _ in pixels], dtype=np.float64)
        ys = np.array([y for _, y in pixels], dtype=np.float64)
        assert _points(xs, ys) == points_per_point(xs, ys)

    def test_label_with_percent_signs_is_drawn_verbatim(self):
        trace = trace_from([0.1, 0.4, 0.8], [2.0, 2.0, 2.0])
        label = "100% of %s and %%, %(x)s %d"
        svg = render_traces([(label, trace)])
        assert f">{label}</text>" in svg


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

    def test_label_with_a_lone_surrogate_is_written_as_its_escape(self, tmp_path):
        # a file name's byte 0xff, as Path.stem gives it back under surrogateescape
        trace = trace_from([0.1, 0.4, 0.8], [2.0, 2.0, 2.0])
        labelled = [("bad\udcff", trace), ("odd\ud800", trace)]
        svg = render_traces(labelled)
        assert ">bad\\xff</text>" in svg and ">odd\\ud800</text>" in svg
        path = tmp_path / "figure.svg"
        write_svg(labelled, path)
        assert path.read_bytes() == svg.encode("utf-8")


class TestWriteSvg:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.svg"
        write_svg(golden_traces(), path)
        assert path.read_bytes() == GOLDEN_SVG.read_bytes()

    def test_default_length_figure_matches_render_traces(self, tmp_path):
        traces = default_length_traces()
        path = tmp_path / "figure.svg"
        write_svg(traces, path)
        assert path.read_bytes() == render_traces(traces).encode("utf-8")

    def test_peak_memory_stays_below_the_document(self, tmp_path):
        # 8 traces of 5000 steps; rendering whole and encoding peaks at about
        # 3x the document, writing element by element at about 0.6x
        rng = np.random.default_rng(4)
        traces = []
        for i in range(8):
            raw = rng.normal(2.0, 0.5, 5000)
            traces.append((f"trace {i}", trace_from(raw, np.full(5000, 2.0))))
        path = tmp_path / "figure.svg"
        tracemalloc.start()
        try:
            write_svg(traces, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000
        assert peak < size, f"peak {peak} bytes for a {size}-byte document"

    @pytest.mark.parametrize("raw", [[0.1, math.nan], [0.1, math.inf], [-1e308, 1e308]])
    def test_rejected_trace_creates_no_file(self, tmp_path, raw):
        path = tmp_path / "figure.svg"
        traces = [("ok", trace_from([0.5, 0.5], [1.0, 1.0])), ("bad", trace_from(raw, [0.0, 0.0]))]
        with pytest.raises(ParameterError, match="trace"):
            write_svg(traces, path)
        assert not path.exists()
