"""Standalone SVG line plots, written without any plotting dependency.

Output is a fixed 800x500 SVG 1.1 document with one polyline per column,
linear axes with tick labels, and a legend.  Rendering is a pure function
of the input values, so identical data produce byte-identical files.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 70
MARGIN_RIGHT = 170
MARGIN_TOP = 46
MARGIN_BOTTOM = 52

# color-blind-safe cycle, reused in column order
PALETTE = (
    "#0072b2",
    "#d55e00",
    "#009e73",
    "#cc79a7",
    "#e69f00",
    "#56b4e9",
    "#000000",
)


def atomic_write_text(path: str, text: str) -> None:
    """Write UTF-8 text with LF endings via a same-directory temp file.

    The rename is atomic, so a crash mid-write never leaves a partial file
    at the destination.  The file gets the mode a plain open() would give
    it (0o666 less the umask), not mkstemp's private 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi], about target of them."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (mult * magnitude) <= target:
            step = mult * magnitude
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    k = 0
    while first + k * step <= hi + 1e-9 * span:
        ticks.append(round(first + k * step, 12))
        k += 1
    return ticks


def _fmt(v: float) -> str:
    """Pixel coordinate formatting, fixed precision for determinism."""
    return f"{v:.2f}"


def render_plot(x, columns, x_label: str, path: str, title: str) -> None:
    """Write the named columns against x as a standalone SVG line plot.

    The y-range snaps to [0, 1] when every value fits there, and pads the
    data range by 5 percent otherwise.  Empty, misaligned or non-finite
    input raises ValueError before anything is written.
    """
    x = np.asarray(x)
    cols = {name: np.asarray(col) for name, col in columns.items()}
    if len(x) == 0 or not cols:
        raise ValueError("nothing to plot: empty series")
    if any(len(col) != len(x) for col in cols.values()):
        raise ValueError("every column needs one value per x value")
    values = np.concatenate(list(cols.values()))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(values))):
        raise ValueError("cannot plot non-finite values")

    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_min, y_max = float(values.min()), float(values.max())
    if -1e-9 <= y_min and y_max <= 1.0 + 1e-9:
        y_lo, y_hi = 0.0, 1.0
    else:
        pad = 0.05 * (y_max - y_min) if y_max > y_min else 0.5
        y_lo, y_hi = y_min - pad, y_max + pad

    px_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    px_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * px_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n',
        f'<text x="{WIDTH // 2}" y="26" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>\n',
    ]
    axis_style = 'stroke="#000000" stroke-width="1"'
    text_style = 'font-family="sans-serif" font-size="11"'
    x0, x1 = MARGIN_LEFT, MARGIN_LEFT + px_w
    y0, y1 = MARGIN_TOP + px_h, MARGIN_TOP
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" {axis_style}/>\n')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" {axis_style}/>\n')
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" '
            f"{axis_style}/>\n"
            f'<text x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle" '
            f"{text_style}>{tick:g}</text>\n"
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
            f"{axis_style}/>\n"
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f"{text_style}>{tick:g}</text>\n"
        )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f"{text_style}>{x_label}</text>\n"
    )

    for idx, (name, col) in enumerate(cols.items()):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(
            f"{_fmt(sx(float(xv)))},{_fmt(sy(float(yv)))}"
            for xv, yv in zip(x, col)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>\n'
        )
        ly = MARGIN_TOP + 14 + 18 * idx
        lx = x1 + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>\n'
            f'<text x="{lx + 28}" y="{ly}" {text_style}>{name}</text>\n'
        )
    parts.append("</svg>\n")
    atomic_write_text(path, "".join(parts))
