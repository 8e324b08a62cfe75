"""Small dependency-free SVG renderers for the experiment outputs.

Three chart flavors cover everything this project plots: multi-series line
charts (training curves), bar charts (cross-year summaries), and step charts
(daily price/dispatch traces). Each data series becomes exactly one
``<polyline>`` element and nothing else does, which keeps the files
trivially greppable and lets tests assert on structure instead of pixels.
"""

from __future__ import annotations

import math
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Sequence

from .atomic import atomic_write

WIDTH = 720
HEIGHT = 420
MARGIN_LEFT = 70
MARGIN_RIGHT = 110
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


@dataclass(frozen=True)
class Series:
    """One plotted line: a label and matching x/y value sequences."""

    label: str
    xs: Sequence[float]
    ys: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(f"series {self.label!r}: {len(self.xs)} xs vs {len(self.ys)} ys")
        if len(self.xs) == 0:
            raise ValueError(f"series {self.label!r} is empty")


def _axis_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        # degenerate span: pad so the scale stays invertible; unit padding for
        # zero and a subnormal whose tenth rounds to zero; none past the float range
        pad = abs(lo) * 0.1 or 1.0
        return max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    return lo, hi


def _document(title: str) -> tuple[ET.Element, ET.Element]:
    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(WIDTH),
        height=str(HEIGHT),
        viewBox=f"0 0 {WIDTH} {HEIGHT}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=str(WIDTH), height=str(HEIGHT), fill="white")
    _text(svg, WIDTH / 2, 24, title, size=16)
    plot = ET.SubElement(svg, "g")
    return svg, plot


def _text(
    parent: ET.Element,
    x: float,
    y: float,
    s: str,
    anchor: str = "middle",
    size: int = 12,
    transform: str | None = None,
) -> None:
    el = ET.SubElement(parent, "text", x=f"{x:.1f}", y=f"{y:.1f}", fill="black")
    el.set("text-anchor", anchor)
    el.set("font-size", str(size))
    el.set("font-family", "sans-serif")
    if transform:
        el.set("transform", transform)
    el.text = s


def _line(parent: ET.Element, x1: float, y1: float, x2: float, y2: float, color: str = "black"):
    ET.SubElement(
        parent,
        "line",
        x1=f"{x1:.1f}",
        y1=f"{y1:.1f}",
        x2=f"{x2:.1f}",
        y2=f"{y2:.1f}",
        stroke=color,
    )


def _frame(plot: ET.Element, x_label: str, y_label: str, x_range, y_range) -> None:
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    _line(plot, x0, y1, x0, y0)
    _line(plot, x0, y0, x1, y0)
    _text(plot, (x0 + x1) / 2, HEIGHT - 12, x_label)
    mid_y = (y0 + y1) / 2
    _text(plot, 18, mid_y, y_label, transform=f"rotate(-90 18 {mid_y:.1f})")
    _text(plot, x0, y0 + 16, f"{x_range[0]:g}", anchor="start", size=11)
    _text(plot, x1, y0 + 16, f"{x_range[1]:g}", anchor="end", size=11)
    _text(plot, x0 - 6, y0, f"{y_range[0]:g}", anchor="end", size=11)
    _text(plot, x0 - 6, y1 + 4, f"{y_range[1]:g}", anchor="end", size=11)


def _axis(lo: float, hi: float, size: int):
    """``v -> (v - lo) * size / (hi - lo)``, in [0, size] for ``v`` in [lo, hi].

    A span or ``size / span`` past the float range first scales every value by
    a power of two, exactly; otherwise by 1.0, which keeps the bits.
    """
    k = 0.5 if hi - lo == math.inf else 2.0**600 if size / (hi - lo) == math.inf else 1.0
    lo *= k
    scale = size / (hi * k - lo)
    return lambda v: (v * k - lo) * scale


def _scaler(x_range, y_range):
    to_x = _axis(*x_range, WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
    to_y = _axis(*y_range, HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return MARGIN_LEFT + to_x(x), HEIGHT - MARGIN_BOTTOM - to_y(y)

    return to_px


def _write(svg: ET.Element, path) -> None:
    with atomic_write(path) as fh:
        fh.write(ET.tostring(svg, xml_declaration=True, encoding="utf-8"))


def line_chart(
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
    path,
    step: bool = False,
) -> None:
    """Render series as one polyline each; ``step`` holds values between points."""
    if not series:
        raise ValueError("nothing to plot")
    all_x = [x for s in series for x in s.xs]
    all_y = [y for s in series for y in s.ys]
    x_range = _axis_range(all_x)
    y_range = _axis_range(all_y)
    svg, plot = _document(title)
    _frame(plot, x_label, y_label, x_range, y_range)
    to_px = _scaler(x_range, y_range)

    for i, s in enumerate(series):
        pts = list(zip(s.xs, s.ys))
        if step:
            held = [pts[0]]
            for (_, y_prev), (x_cur, y_cur) in zip(pts, pts[1:]):
                held.append((x_cur, y_prev))
                held.append((x_cur, y_cur))
            pts = held
        coords = " ".join(f"{px:.1f},{py:.1f}" for px, py in (to_px(x, y) for x, y in pts))
        color = PALETTE[i % len(PALETTE)]
        poly = ET.SubElement(plot, "polyline", points=coords, fill="none", stroke=color)
        poly.set("stroke-width", "1.5")
        legend_y = MARGIN_TOP + 16 * (i + 1)
        _line(plot, WIDTH - MARGIN_RIGHT + 8, legend_y - 4, WIDTH - MARGIN_RIGHT + 24, legend_y - 4, color)
        _text(plot, WIDTH - MARGIN_RIGHT + 28, legend_y, s.label, anchor="start", size=11)
    _write(svg, path)


def bar_chart(
    labels: Sequence[str], values: Sequence[float], title: str, y_label: str, path
) -> None:
    """Render one labelled bar per finite value, baseline at zero.

    Non-finite values keep their label but get "n/a" instead of a bar.
    """
    if len(labels) != len(values) or not labels:
        raise ValueError(f"{len(labels)} labels vs {len(values)} values")
    finite = [v for v in values if math.isfinite(v)]
    y_range = _axis_range([min([0.0, *finite]), max([0.0, *finite])])
    x_range = (0.0, float(len(labels)))
    svg, plot = _document(title)
    _frame(plot, "", y_label, x_range, y_range)
    to_px = _scaler(x_range, y_range)

    for i, (label, v) in enumerate(zip(labels, values)):
        cx_label, _ = to_px(i + 0.5, 0.0)
        _text(plot, cx_label, HEIGHT - MARGIN_BOTTOM + 16, label, size=11)
        if not math.isfinite(v):
            _text(plot, cx_label, HEIGHT - MARGIN_BOTTOM - 8, "n/a", size=10)
            continue
        left, top = to_px(i + 0.2, max(v, 0.0))
        right, base = to_px(i + 0.8, min(v, 0.0))
        ET.SubElement(
            plot,
            "rect",
            x=f"{left:.1f}",
            y=f"{top:.1f}",
            width=f"{right - left:.1f}",
            height=f"{max(base - top, 0.5):.1f}",
            fill=PALETTE[i % len(PALETTE)],
        )
        cx, cy = to_px(i + 0.5, v)
        _text(plot, cx, cy - 5, f"{v:.3g}", size=10)
    _write(svg, path)
