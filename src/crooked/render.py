"""Deterministic SVG rendering of metric graphs.

Layout is force-free: stored position hints when the graph carries them
(surgery outputs do), otherwise vertices sit on a square perimeter in sorted
order.  All emitted coordinates are exact integers obtained by scaling the
rational layout by a common denominator, so renders are bit-identical across
runs.  Rendering is cosmetic only; nothing downstream consumes it.
"""

from __future__ import annotations

from fractions import Fraction as Frac
from math import lcm

from .errors import InputError
from .metric_graph import ClosedSet, MetricGraph, frac

PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085",
           "#7f8c8d", "#2c3e50")


def _square_layout(vertices: list[str]) -> dict[str, tuple[Frac, Frac]]:
    n = max(len(vertices), 1)
    side = Frac(max(n, 4))
    pos = {}
    for k, v in enumerate(vertices):
        t = 4 * side * k / n
        if t <= side:
            pos[v] = (t, Frac(0))
        elif t <= 2 * side:
            pos[v] = (side, t - side)
        elif t <= 3 * side:
            pos[v] = (3 * side - t, side)
        else:
            pos[v] = (Frac(0), 4 * side - t)
    return pos


def _layout(graph: MetricGraph) -> dict[str, tuple[Frac, Frac]]:
    hints = graph.meta.get("pos", {})
    if not isinstance(hints, dict) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in hints.values()
    ):
        raise InputError(f"position hints must map vertices to [x, y], not {hints!r}")
    if hints and all(v in hints for v in graph.vertices):
        return {v: (frac(hints[v][0]), frac(hints[v][1])) for v in graph.vertices}
    return _square_layout(list(graph.vertices))


def _interp(p, q, t: Frac):
    return (p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t)


def render_svg(graph: MetricGraph, closed_sets: dict[str, ClosedSet] | None = None) -> str:
    closed_sets = closed_sets or {}
    pos = _layout(graph)
    fibers = graph.meta.get("fibers", [])
    if not isinstance(fibers, list) or not all(
        isinstance(fib, dict) and isinstance(fib.get("edges"), list)
        and all(isinstance(eid, str) for eid in fib["edges"]) for fib in fibers
    ):
        raise InputError(f"fibre hints must be objects with an edge list, not {fibers!r}")
    # a later surgery renames the edges of an earlier fibre, so a hint is
    # drawn only while the graph has all of its edges
    fibers = [fib for fib in fibers if fib["edges"] and set(fib["edges"]) <= graph.edges.keys()]
    fiber_edges = {eid for fib in fibers for eid in fib["edges"]}

    shapes: list[tuple] = []  # (kind, payload) with rational coordinates
    for eid in sorted(graph.edges):
        if eid in fiber_edges:
            continue
        e = graph.edges[eid]
        shapes.append(("edge", pos[e.u], pos[e.v]))
    for fib in fibers:
        verts = sorted({graph.edges[eid].u for eid in fib["edges"]}
                       | {graph.edges[eid].v for eid in fib["edges"]})
        cx = sum((pos[v][0] for v in verts), Frac(0)) / len(verts)
        cy = sum((pos[v][1] for v in verts), Frac(0)) / len(verts)
        shapes.append(("fiber", (cx, cy)))
    for idx, name in enumerate(sorted(closed_sets)):
        color = PALETTE[idx % len(PALETTE)]
        s = closed_sets[name]
        for eid in sorted(s.intervals):
            if eid in fiber_edges:
                continue
            e = graph.edges[eid]
            for lo, hi in s.intervals[eid]:
                p = _interp(pos[e.u], pos[e.v], lo / e.length)
                q = _interp(pos[e.u], pos[e.v], hi / e.length)
                if lo == hi:
                    shapes.append(("point", p, color))
                else:
                    shapes.append(("overlay", p, q, color))
        for v in sorted(s.vertices):
            shapes.append(("point", pos[v], color))
    for v in sorted(graph.vertices):
        shapes.append(("vertex", pos[v]))

    # scale every coordinate to an exact integer
    points = [part for shape in shapes for part in shape[1:] if isinstance(part, tuple)]
    coords = [c for p in points for c in p]
    unit = max(1, 240 // max(int(max(map(abs, coords), default=0) or 1), 1))
    scale = lcm(*(c.denominator for c in coords)) * unit

    def pt(p):
        return (int(p[0] * scale), int(p[1] * scale))

    xs = [pt(p)[0] for p in points]
    ys = [pt(p)[1] for p in points]
    pad = max(scale // 10, 1)
    min_x, max_x = min(xs, default=0) - pad, max(xs, default=0) + pad
    min_y, max_y = min(ys, default=0) - pad, max(ys, default=0) + pad
    stroke = max(scale // 120, 1)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{min_x} {min_y} '
        f'{max_x - min_x} {max_y - min_y}">'
    ]
    for shape in shapes:
        kind = shape[0]
        if kind == "edge":
            (x1, y1), (x2, y2) = pt(shape[1]), pt(shape[2])
            lines.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="#555555" stroke-width="{stroke}"/>'
            )
        elif kind == "fiber":
            cx, cy = pt(shape[1])
            lines.append(
                f'<circle cx="{cx}" cy="{cy}" r="{4 * stroke}" fill="none" '
                f'stroke="#555555" stroke-width="{stroke}"/>'
            )
        elif kind == "overlay":
            (x1, y1), (x2, y2) = pt(shape[1]), pt(shape[2])
            lines.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="{shape[3]}" stroke-width="{3 * stroke}"/>'
            )
        elif kind == "point":
            cx, cy = pt(shape[1])
            lines.append(
                f'<circle cx="{cx}" cy="{cy}" r="{2 * stroke}" fill="{shape[2]}"/>'
            )
        else:  # vertex
            cx, cy = pt(shape[1])
            lines.append(
                f'<circle cx="{cx}" cy="{cy}" r="{stroke}" fill="#000000"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
