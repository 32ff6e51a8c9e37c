"""Static SVG rendering of tracking traces, with no plotting dependency.

The visual grammar mirrors the tracking figures: the true TC step function in
black, raw per-step estimates as a light line, their smoothed version as a
dark line, one color pair per trace, with axes in (training step, nats).
Output is a pure function of the input traces, so files are byte-identical
across runs.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .harness import TrainingTrace

WIDTH = 960
HEIGHT = 540
MARGIN_LEFT = 70
MARGIN_RIGHT = 180
MARGIN_TOP = 30
MARGIN_BOTTOM = 55
MAX_TICKS = 7

# (raw, smoothed) stroke pairs, one per trace
PALETTE = [
    ("#9ecae1", "#08519c"),
    ("#fdae6b", "#a63603"),
    ("#a1d99b", "#006d2c"),
    ("#bcbddc", "#54278f"),
    ("#fa9fb5", "#7a0177"),
    ("#bdbdbd", "#252525"),
]


def _surrogate_escape(match: re.Match) -> str:
    code = ord(match[0])
    return f"\\x{code - 0xDC00:02x}" if 0xDC80 <= code <= 0xDCFF else f"\\u{code:04x}"


def _escape(text: str) -> str:
    """``text`` as SVG character data: the XML specials as entities, and each
    lone surrogate as a backslash escape, so a file name's undecodable byte
    0xff reads ``\\xff``."""
    # UTF-8 encodes no lone surrogate; surrogateescape reads a byte 0x80-0xff
    # that is not UTF-8, as in a file name, as U+DC80-U+DCFF
    return re.sub(
        "[\ud800-\udfff]",
        _surrogate_escape,
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;"),
    )


def _tag(name: str, text: str | None = None, **attrs) -> str:
    """One element: attributes in the order given, ``_`` written as ``-``, None
    left out; values are written as given, so coordinates come formatted."""
    body = "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items() if v is not None)
    return f"<{name}{body}/>" if text is None else f"<{name}{body}>{text}</{name}>"


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    return _tag("line", x1=x1, y1=y1, x2=x2, y2=y2, stroke=stroke, stroke_width=width)


def _text(x, y, text: str, size=12, anchor=None, transform=None) -> str:
    return _tag("text", text, x=x, y=y, text_anchor=anchor, font_size=size,
                font_family="sans-serif", transform=transform)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw_step = (hi - lo) / MAX_TICKS
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if (hi - lo) / step <= MAX_TICKS:
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        if t >= lo - 1e-9 * step:  # t rounds below lo if step is under its spacing
            ticks.append(0.0 if abs(t) < 1e-12 else t)
        if t + step == t:  # a step below half the float spacing at t
            break
        t += step
    return ticks or [lo]


def _step_points(steps: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex columns (xs, ys) of the true-TC step function: where the target
    changes, a vertex at the old value comes before the one at the new."""
    jumps = np.flatnonzero(target[1:] != target[:-1]) + 1
    return np.insert(steps, jumps, steps[jumps]), np.insert(target, jumps, target[jumps - 1])


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The ``points`` attribute of pixel columns: "x,y" pairs with two decimals,
    one space apart, laid out by one ``%`` over the interleaved columns."""
    xy = np.empty(2 * len(xs))
    xy[0::2] = xs
    xy[1::2] = ys
    return ((" %.2f,%.2f" * len(xs)) % tuple(xy.tolist()))[1:]


class _Frame:
    """Affine data-to-pixel mapping for one panel, of a scalar or a column."""

    def __init__(self, x_range: tuple[float, float], y_range: tuple[float, float]):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        self.plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x(self, v):
        span = self.x1 - self.x0 or 1.0
        return MARGIN_LEFT + (v - self.x0) / span * self.plot_w

    def y(self, v):
        span = self.y1 - self.y0 or 1.0
        return MARGIN_TOP + self.plot_h - (v - self.y0) / span * self.plot_h

    def polyline(self, xs: np.ndarray, ys: np.ndarray, stroke: str, width, opacity=None) -> str:
        return _tag(
            "polyline", fill="none", stroke=stroke, stroke_width=width, stroke_opacity=opacity,
            points=_points(self.x(xs), self.y(ys)),
        )


def _frame(traces: list[tuple[str, TrainingTrace]]) -> _Frame:
    """The panel's mapping, spanning every value of every trace. A trace with a
    non-finite value, or values wider apart than a float holds, is rejected
    here, before any of the document is made."""
    nonempty = [(label, t) for label, t in traces if len(t.steps)]
    if not nonempty:
        return _Frame((0.0, 1.0), (0.0, 1.0))
    for label, t in nonempty:
        for name in ("raw", "smoothed", "target"):
            if not np.isfinite(getattr(t, name)).all():
                raise ParameterError(f"trace {label!r}: {name} holds a non-finite value")
    x_hi = max(float(t.steps[-1]) for _, t in nonempty)
    # Python floats: an overflow gives inf here, with no numpy warning
    lo = min(float(min(t.raw.min(), t.smoothed.min(), t.target.min())) for _, t in nonempty)
    hi = max(float(max(t.raw.max(), t.smoothed.max(), t.target.max())) for _, t in nonempty)
    pad = 0.05 * (hi - lo or 1.0)
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise ParameterError(f"trace values from {lo!r} to {hi!r} span more than a float holds")
    return _Frame((0.0, x_hi), (lo - pad, hi + pad))


def _elements(traces: list[tuple[str, TrainingTrace]], frame: _Frame) -> Iterator[str]:
    """The document's elements in order, each made only when it is asked for."""
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    yield _tag("rect", width="100%", height="100%", fill="#ffffff")
    plot_right = WIDTH - MARGIN_RIGHT
    plot_bottom = HEIGHT - MARGIN_BOTTOM
    for tick in _nice_ticks(frame.y0, frame.y1):
        y = frame.y(tick)
        yield _line(MARGIN_LEFT, f"{y:.2f}", plot_right, f"{y:.2f}", "#e0e0e0", 1)
        yield _text(MARGIN_LEFT - 8, f"{y + 4:.2f}", f"{tick:g}", anchor="end")
    for tick in _nice_ticks(frame.x0, frame.x1):
        x = f"{frame.x(tick):.2f}"
        yield _line(x, plot_bottom, x, plot_bottom + 5, "#000000", 1)
        yield _text(x, plot_bottom + 20, f"{tick:g}", anchor="middle")
    yield _line(MARGIN_LEFT, plot_bottom, plot_right, plot_bottom, "#000000", 1.5)
    yield _line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, plot_bottom, "#000000", 1.5)
    x_mid = f"{(MARGIN_LEFT + plot_right) / 2:.2f}"
    yield _text(x_mid, HEIGHT - 15, "training step", size=14, anchor="middle")
    y_mid = f"{(MARGIN_TOP + plot_bottom) / 2:.2f}"
    rotate = f"rotate(-90 20 {y_mid})"
    yield _text(20, y_mid, "total correlation (nats)", 14, "middle", rotate)

    drawn_steps: list[tuple[np.ndarray, np.ndarray]] = []
    legend_y = MARGIN_TOP + 12
    for idx, (label, trace) in enumerate(traces):
        raw_color, dark_color = PALETTE[idx % len(PALETTE)]
        if len(trace.steps):
            yield frame.polyline(trace.steps, trace.raw, raw_color, 1, opacity=0.55)
            yield frame.polyline(trace.steps, trace.smoothed, dark_color, 2)
            if not any(
                np.array_equal(trace.steps, s) and np.array_equal(trace.target, t)
                for s, t in drawn_steps
            ):
                yield frame.polyline(*_step_points(trace.steps, trace.target), "#000000", 2)
                drawn_steps.append((trace.steps, trace.target))
        yield _line(plot_right + 14, legend_y, plot_right + 40, legend_y, dark_color, 2)
        yield _text(plot_right + 46, legend_y + 4, _escape(label))
        legend_y += 18
    yield _line(plot_right + 14, legend_y, plot_right + 40, legend_y, "#000000", 2)
    yield _text(plot_right + 46, legend_y + 4, "true TC")
    yield "</svg>"


def _lines(traces: list[tuple[str, TrainingTrace]], frame: _Frame) -> Iterator[str]:
    """The document, one element per line."""
    return (f"{element}\n" for element in _elements(traces, frame))


def render_traces(traces: list[tuple[str, TrainingTrace]]) -> str:
    """Render labelled traces into one overlaid SVG panel, returned whole. A
    trace with a non-finite value, or values wider apart than a float holds,
    is rejected."""
    return "".join(_lines(traces, _frame(traces)))


def write_svg(traces: list[tuple[str, TrainingTrace]], path: str | Path) -> None:
    """Write the document of :func:`render_traces`, byte for byte, one element
    at a time, so that neither the document nor its encoding is held whole.
    The traces are checked before the file is opened, so a rejected trace
    leaves no file."""
    frame = _frame(traces)
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_lines(traces, frame))
