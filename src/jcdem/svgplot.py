"""Standalone SVG line plots, written without any plotting dependency.

Output is a fixed 800x500 SVG 1.1 document with one polyline per column,
linear axes with tick labels, and a legend.  Rendering is a pure function
of the input values, so identical data produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import math
import os
from html import escape
from typing import Iterator, TextIO

import numpy as np

from .model import time_chunks

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 70
MARGIN_RIGHT = 170
MARGIN_TOP = 46
MARGIN_BOTTOM = 52

# color-blind-safe cycle, reused in column order
PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#000000")


@contextlib.contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """Yield a UTF-8, LF-only text handle on a new same-directory temp file,
    renamed onto path only when the block exits cleanly; any exception
    unlinks it, so no partial file ever reaches path.  open(tmp, "x") gets
    the mode open(path, "w") would (umask, default ACL); a name collision
    raises and removes nothing.  An OSError names path, not the temp file."""
    tmp = os.path.join(os.path.dirname(path), f"tmp{os.urandom(6).hex()}.tmp")
    try:
        handle = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with handle:
                yield handle
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # name the requested path, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from exc


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi], about target of them."""
    span = hi - lo
    raw = span / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    mults = [m for m in (1.0, 2.0, 2.5, 5.0) if span / (m * magnitude) <= target]
    step = (mults[0] if mults else 10.0) * magnitude
    first = math.ceil(lo / step - 1e-9) * step
    ticks, k = [], 0
    while first + k * step <= hi + 1e-9 * span:
        ticks.append(round(first + k * step, 12))
        k += 1
    return ticks


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """Polyline points "x,y x,y ...", at two decimals like every pixel
    coordinate: a fixed precision keeps the output deterministic."""
    xy = np.column_stack((xs, ys)).ravel().tolist()
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy)


def _padded(lo: float, hi: float, share: float, axis: str) -> tuple[float, float]:
    """[lo, hi] widened by share of its width each way; one value v by 0.5,
    or by 5 percent of |v| where rounding would absorb the 0.5 (|v| ~1e16).
    ValueError naming axis unless a fifth of the span, _ticks' step, is normal."""
    pad = share * (hi - lo) if hi > lo else 0.5
    if lo - pad == hi + pad:
        pad = 0.05 * abs(lo)
    if not np.finfo(float).tiny <= ((hi + pad) - (lo - pad)) / 5 < math.inf:
        raise ValueError(f"cannot scale the {axis} axis to values in [{lo:g}, {hi:g}]")
    return lo - pad, hi + pad


def render_plot(x, columns, x_label: str, path: str, title: str) -> None:
    """Write the named columns against x as a standalone SVG line plot.

    The y-range snaps to [0, 1] when every value fits there, and pads the
    data range by 5 percent otherwise.  Empty, misaligned or non-finite
    input raises ValueError before anything is written.  The document is
    streamed into atomic_writer's file, each polyline in time_chunks.
    """
    x = np.asarray(x)
    title, x_label = escape(title, quote=False), escape(x_label, quote=False)
    cols = {escape(name, quote=False): np.asarray(col) for name, col in columns.items()}
    if len(x) == 0 or not cols:
        raise ValueError("nothing to plot: empty series")
    if any(len(col) != len(x) for col in cols.values()):
        raise ValueError("every column needs one value per x value")

    bounds = [(float(col.min()), float(col.max())) for col in (x, *cols.values())]
    (x_lo, *lows), (x_hi, *highs) = zip(*bounds)
    x_lo, x_hi = _padded(x_lo, x_hi, 0.0, "x")
    # np.min and np.max, unlike min and max, pass a NaN on for _padded to reject
    y_min, y_max = float(np.min(lows)), float(np.max(highs))
    if -1e-9 <= y_min and y_max <= 1.0 + 1e-9:
        y_lo, y_hi = 0.0, 1.0
    else:
        y_lo, y_hi = _padded(y_min, y_max, 0.05, "y")

    px_w, px_h = WIDTH - MARGIN_LEFT - MARGIN_RIGHT, HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    # elementwise on arrays, in the same float64 operations as on scalars
    def sx(v):
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v):
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * px_h

    axis_style = 'stroke="#000000" stroke-width="1"'
    text_style = 'font-family="sans-serif" font-size="11"'
    x0, x1 = MARGIN_LEFT, MARGIN_LEFT + px_w
    y0, y1 = MARGIN_TOP + px_h, MARGIN_TOP
    with atomic_writer(path) as out:
        out.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
            f'<text x="{WIDTH // 2}" y="26" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>\n'
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" {axis_style}/>\n'
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" {axis_style}/>\n'
        )
        for tick in _ticks(x_lo, x_hi):
            px = sx(tick)
            out.write(
                f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" '
                f"{axis_style}/>\n"
                f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" '
                f"{text_style}>{tick:g}</text>\n"
            )
        for tick in _ticks(y_lo, y_hi):
            py = sy(tick)
            out.write(
                f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" '
                f"{axis_style}/>\n"
                f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
                f"{text_style}>{tick:g}</text>\n"
            )
        out.write(
            f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
            f"{text_style}>{x_label}</text>\n"
        )
        for idx, (name, col) in enumerate(cols.items()):
            color = PALETTE[idx % len(PALETTE)]
            out.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                      'points="')
            # ~16 entries a row: float temporaries, list and tuple slots, text
            for sl in time_chunks(len(x), 16):
                out.write((" " if sl.start else "") + _points(sx(x[sl]), sy(col[sl])))
            lx, ly = x1 + 12, MARGIN_TOP + 14 + 18 * idx
            out.write(
                '"/>\n'
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>\n'
                f'<text x="{lx + 28}" y="{ly}" {text_style}>{name}</text>\n'
            )
        out.write("</svg>\n")
