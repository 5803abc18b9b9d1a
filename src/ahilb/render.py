"""SVG rendering of the decorated simplex and the quiver fundamental domain.

Pure presentation: every coordinate is derived from already-computed
artifacts, floats appear only here, and formatting is fixed-precision so
repeated runs emit identical bytes.
"""

from __future__ import annotations

from math import cos, pi, sin, sqrt

from .fan import simplex_corners
from .recipe import CASE_DP6, HEX_STEPS, hexagon_position

_SIZE = 640.0
_MARGIN = 48.0


def _fmt(x):
    return f"{x:.2f}"


def _simplex_layout(order):
    side = _SIZE - 2 * _MARGIN
    h = side * sqrt(3.0) / 2.0
    height = 2 * _MARGIN + h
    corners = [
        (_MARGIN, _MARGIN + h),           # e1 bottom left
        (_MARGIN + side, _MARGIN + h),    # e2 bottom right
        (_MARGIN + side / 2.0, _MARGIN),  # e3 top
    ]

    (x0, y0), (x1, y1), (x2, y2) = corners
    cached = {}  # a vertex is the end of several edges and lines

    def pos(p):
        xy = cached.get(p)
        if xy is None:
            a, b, c = p
            xy = cached[p] = ((a * x0 + b * x1 + c * x2) / order,
                              (a * y0 + b * y1 + c * y2) / order)
        return xy

    return pos, height


def triangulation_svg(art) -> str:
    T = art.triangulation
    g = art.group
    pos, height = _simplex_layout(g.order)
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_SIZE)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(_SIZE)} {_fmt(height)}">'
    )
    out.append('<rect width="100%" height="100%" fill="white"/>')
    out.append('<g stroke="#444" stroke-width="1.2" stroke-linecap="round">')
    for e in T.edges:
        (x1, y1), (x2, y2) = pos(e.a), pos(e.b)
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    out.append("</g>")
    # one character label per interior line, at the midpoint of its span
    if art.decoration is not None:
        out.append('<g font-family="sans-serif" font-size="13" fill="#1a55a0">')
        for li, ln in enumerate(T.lines):
            if li not in art.decoration.line_marks:
                continue
            (x1, y1), (x2, y2) = pos(ln.endpoints[0]), pos(ln.endpoints[1])
            mx, my = (x1 + x2) / 2.0 + 4.0, (y1 + y2) / 2.0 - 4.0
            out.append(
                f'<text x="{_fmt(mx)}" y="{_fmt(my)}">{g.char_label(ln.character)}</text>'
            )
        out.append("</g>")
        out.append('<g font-family="sans-serif" font-size="14" fill="#b03030">')
        for v, vm in sorted(art.decoration.vertex_marks.items()):
            x, y = pos(v)
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0" fill="#b03030"/>'
            )
            label = ",".join(g.char_label(m) for m in vm.marks)
            out.append(f'<text x="{_fmt(x + 5.0)}" y="{_fmt(y + 14.0)}">{label}</text>')
            if vm.case == CASE_DP6:
                out.append(
                    f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="6.0" fill="none" '
                    'stroke="#b03030" stroke-width="1.0"/>'
                )
        out.append("</g>")
    out.append('<g font-family="sans-serif" font-size="15" fill="#000">')
    offsets = [(-22.0, 16.0), (6.0, 16.0), (-8.0, -10.0)]
    for i, (cp, off) in enumerate(zip(simplex_corners(g.order), offsets)):
        x, y = pos(cp)
        out.append(f'<text x="{_fmt(x + off[0])}" y="{_fmt(y + off[1])}">e{i + 1}</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


_HEX_R = 30.0


def _hex_center(cell):
    # axial position from the monomial class: x and y steps at 120 degrees
    ux = (_HEX_R * sqrt(3.0), 0.0)
    uy = (-_HEX_R * sqrt(3.0) / 2.0, _HEX_R * 1.5)
    return (
        cell[0] * ux[0] + cell[1] * uy[0],
        cell[0] * ux[1] + cell[1] * uy[1],
    )


# corner k of a hexagon lies at 60k + 30 degrees from its centre
_HEX_ANGLES = [(60.0 * k + 30.0) * pi / 180.0 for k in range(6)]
_HEX_OFFSETS = [(_HEX_R * cos(ang), _HEX_R * sin(ang)) for ang in _HEX_ANGLES]


def _hex_corners(cx, cy):
    return [(cx + dx, cy + dy) for dx, dy in _HEX_OFFSETS]


def quiver_svg(art) -> str:
    g = art.group
    placements = art.quiver.placements
    cells = {}
    for chi, m in sorted(placements.items()):
        cells[hexagon_position(m)] = chi
    centers = {cell: _hex_center(cell) for cell in cells}
    xs = [c[0] for c in centers.values()]
    ys = [c[1] for c in centers.values()]
    minx, maxx = min(xs) - 2 * _HEX_R, max(xs) + 2 * _HEX_R
    miny, maxy = min(ys) - 2 * _HEX_R, max(ys) + 2 * _HEX_R
    w, h = maxx - minx, maxy - miny
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="{_fmt(minx)} {_fmt(miny)} {_fmt(w)} {_fmt(h)}">'
    )
    out.append('<rect x="{}" y="{}" width="100%" height="100%" fill="white"/>'.format(_fmt(minx), _fmt(miny)))
    boundary = []
    out.append('<g stroke="#888" stroke-width="1.0" fill="#eef3fa">')
    for cell in sorted(cells):
        cx, cy = centers[cell]
        pts = _hex_corners(cx, cy)
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        out.append(f'<polygon class="hex" points="{path}"/>')
        for k, (dx, dy) in enumerate(HEX_STEPS):
            if (cell[0] + dx, cell[1] + dy) not in cells:
                a, b = pts[k], pts[(k + 1) % 6]
                boundary.append((a, b))
    out.append("</g>")
    out.append('<g stroke="#202020" stroke-width="2.4" stroke-linecap="round">')
    for a, b in boundary:
        out.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
        )
    out.append("</g>")
    out.append('<g font-family="sans-serif" font-size="12" text-anchor="middle" fill="#000">')
    for cell in sorted(cells):
        cx, cy = centers[cell]
        out.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy + 4.0)}">{g.char_label(cells[cell])}</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
