"""Self-contained SVG heatmap for domain matrices (no plotting dependency).

The figure is an n x n grid of rects colored on a linear scale between two
fixed hex colors, with row/column labels, a neutral diagonal, and a
horizontal color bar annotated with the value range.
"""

from __future__ import annotations

import os
from pathlib import Path

from ontomesh.results import DomainMatrix

CELL = 40
LEFT = 130
TOP = 70
PAD = 20
# Cells blend from LOW to HIGH by value; the diagonal is NEUTRAL.
LOW = "#f7fbff"
HIGH = "#08306b"
NEUTRAL = "#d9d9d9"


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``, which would load ``urllib.request``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """``xml.sax.saxutils.quoteattr``: the escaped text, line breaks and tabs
    as character references, in the quotes it does not hold (double quotes,
    written ``&quot;``, when it holds both)."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"%s"' % text.replace('"', "&quot;")


def _rgb(color: str) -> tuple[int, ...]:
    return tuple(int(color[i : i + 2], 16) for i in (1, 3, 5))


def cell_color(value: float, vmin: float, vmax: float) -> str:
    t = (value - vmin) / (vmax - vmin) if vmax > vmin else 0.0
    rgb = tuple(round(a + t * (b - a)) for a, b in zip(_rgb(LOW), _rgb(HIGH)))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_heatmap_svg(matrix: DomainMatrix, out: str | os.PathLike) -> int:
    """Write the heatmap SVG to ``out``; returns the byte count written."""
    n = len(matrix.labels)
    vmin, vmax = matrix.value_range()
    width = LEFT + n * CELL + PAD
    height = TOP + n * CELL + PAD

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        "<defs>",
        '<linearGradient id="scale" x1="0" y1="0" x2="1" y2="0">',
        f'<stop offset="0" stop-color="{LOW}"/>',
        f'<stop offset="1" stop-color="{HIGH}"/>',
        "</linearGradient>",
        "</defs>",
        f'<rect class="colorbar" x="{LEFT}" y="10" width="{n * CELL}" height="12" fill="url(#scale)" stroke="#444"/>',
        f'<text class="range" x="{LEFT}" y="36" font-family="sans-serif" font-size="12">{_escape(f"{vmin:g}–{vmax:g}")}</text>',
    ]
    for j, label in enumerate(matrix.labels):
        x = LEFT + j * CELL + CELL // 2
        lines.append(
            f'<text class="col-label" x="{x}" y="{TOP - 6}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_escape(label)}</text>'
        )
    for i, label in enumerate(matrix.labels):
        y = TOP + i * CELL + CELL // 2 + 4
        lines.append(
            f'<text class="row-label" x="{LEFT - 6}" y="{y}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_escape(label)}</text>'
        )
    for i in range(n):
        for j in range(n):
            value = matrix.cells[i][j]
            fill = NEUTRAL if i == j else cell_color(value, vmin, vmax)
            x = LEFT + j * CELL
            y = TOP + i * CELL
            title = _quoteattr(f"{matrix.labels[i]},{matrix.labels[j]}={value:g}")
            lines.append(
                f'<rect class="cell" x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}" stroke="#ffffff" data-value="{value:g}" data-title={title}/>'
            )
    lines.append("</svg>")
    data = "\n".join(lines).encode("utf-8") + b"\n"
    Path(out).write_bytes(data)
    return len(data)
