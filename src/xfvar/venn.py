"""Venn-diagram rendering of an explanation measure.

Two or three variables only. The SVG uses a fixed canonical layout
(hard-coded circle centers and label anchors, no text shaping), so the
output is byte-stable and suitable for golden-file comparison. When the
measure still contains the outcome variable it is folded out first: its
atom mass merges into the matching region of the remaining variables.
"""

from __future__ import annotations

from .algebra import ExplanationMeasure, measure_marginalize, subset_key
from .errors import VennError

_WEDGE = "∧"


def _display_measure(m: ExplanationMeasure, outcome=None) -> ExplanationMeasure:
    fold = outcome in m.names
    shown = m.var_count - fold
    if shown not in (2, 3):
        raise VennError(f"venn supports 2 or 3 variables besides the outcome, report has {shown}")
    return measure_marginalize(m, outcome) if fold else m


def _fmt(v: float) -> str:
    s = f"{float(v):.3f}"
    return "0.000" if s == "-0.000" else s


def venn_ascii(m: ExplanationMeasure, outcome=None) -> str:
    """Labeled region table; the {} row is the unexplained mass."""
    m = _display_measure(m, outcome)
    labels = ["{" + subset_key(m.names, s, _WEDGE) + "}" for s in range(1 << m.var_count)]
    width = max(len(x) for x in labels)
    lines = ["venn regions (atom masses)"]
    for s, label in enumerate(labels):
        lines.append(f"{label:<{width}} = {_fmt(m.atom_mass[s])}")
    return "\n".join(lines) + "\n"


_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">\n'
    '<rect width="{w}" height="{h}" fill="white"/>\n'
)
_CIRCLE = (
    '<circle cx="{cx}" cy="{cy}" r="{r}" fill="{fill}" fill-opacity="0.30" '
    'stroke="#333333" stroke-width="1.5"/>\n'
)
_TEXT = (
    '<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}" '
    'text-anchor="{anchor}" fill="#111111">{body}</text>\n'
)

_FILLS = ("#e41a1c", "#377eb8", "#4daf4a")

# (canvas, circle centers, circle name anchors, region mask -> label point)
_LAYOUT2 = {
    "size": (420, 320),
    "radius": 105,
    "centers": ((160, 150), (260, 150)),
    "names": ((110, 32, "middle"), (310, 32, "middle")),
    "regions": {0b01: (105, 155), 0b10: (315, 155), 0b11: (210, 155)},
    "rest": (12, 302, "start"),
}
_LAYOUT3 = {
    "size": (420, 400),
    "radius": 105,
    "centers": ((210, 150), (145, 255), (275, 255)),
    "names": ((210, 30, "middle"), (52, 334, "middle"), (368, 334, "middle")),
    "regions": {
        0b001: (210, 105),
        0b010: (102, 292),
        0b100: (318, 292),
        0b011: (150, 200),
        0b101: (270, 200),
        0b110: (210, 305),
        0b111: (210, 225),
    },
    "rest": (12, 388, "start"),
}


def venn_svg(m: ExplanationMeasure, outcome=None) -> str:
    m = _display_measure(m, outcome)
    layout = _LAYOUT2 if m.var_count == 2 else _LAYOUT3
    w, h = layout["size"]
    parts = [_SVG_HEAD.format(w=w, h=h)]
    for (cx, cy), fill in zip(layout["centers"], _FILLS):
        parts.append(_CIRCLE.format(cx=cx, cy=cy, r=layout["radius"], fill=fill))
    for (x, y, anchor), name in zip(layout["names"], m.names):
        parts.append(_TEXT.format(x=x, y=y, size=16, anchor=anchor, body=_esc(name)))
    for mask, (x, y) in layout["regions"].items():
        parts.append(
            _TEXT.format(x=x, y=y, size=14, anchor="middle", body=_fmt(m.atom_mass[mask]))
        )
    rx, ry, ranchor = layout["rest"]
    parts.append(
        _TEXT.format(
            x=rx, y=ry, size=12, anchor=ranchor,
            body="unexplained: " + _fmt(m.atom_mass[0]),
        )
    )
    parts.append("</svg>\n")
    return "".join(parts)


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
