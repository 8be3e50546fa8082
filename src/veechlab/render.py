"""SVG rendering of surfaces, covers and cylinder decompositions.

Rendering is the one place exactness is dropped: every number is a
20-significant-digit decimal, written by the field's decimal writer
from the exact value (a float for labels and the view box) and with
trailing zeros stripped.
"""

from __future__ import annotations

from .cylinders import decompose, unit_vector
from .field import QQ, _nstr
from .surface import EdgeRef, TranslationSurface
from .covering import CoveringSurface, build_cover

PALETTES = {
    "default": ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
                "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac"],
    "mono": ["#666666"],
}

_DIGITS = 20


def _strip(text: str) -> str:
    # mpmath.nstr's default form: the mantissa's trailing zeros go, but
    # one digit stays after the point
    mantissa, e, exponent = text.partition("e")
    mantissa = mantissa.rstrip("0")
    if mantissa.endswith("."):
        mantissa += "0"
    return mantissa + e + exponent


def _num(value: float) -> str:
    return _strip(_nstr(*value.as_integer_ratio(), _DIGITS))


def _pt(v, dx) -> str:
    # exact coordinates, shifted by the copy offset dx; SVG y axis points down
    x, y = v.x + QQ(dx), -v.y
    return "%s,%s" % (_strip(x.approx(_DIGITS)), _strip(y.approx(_DIGITS)))


class _Svg:
    def __init__(self):
        self.parts = []
        self.min_x = self.min_y = float("inf")
        self.max_x = self.max_y = float("-inf")

    def track(self, x: float, y: float):
        self.min_x = min(self.min_x, x)
        self.max_x = max(self.max_x, x)
        self.min_y = min(self.min_y, -y)
        self.max_y = max(self.max_y, -y)

    def polygon(self, pts, fill, stroke="#222222", opacity=1.0, width=0.01):
        # pts: (exact vertex, copy offset) pairs
        for v, dx in pts:
            self.track(float(v.x) + dx, float(v.y))
        body = " ".join(_pt(v, dx) for v, dx in pts)
        self.parts.append(
            '<polygon points="%s" fill="%s" fill-opacity="%s" stroke="%s" stroke-width="%s"/>'
            % (body, fill, opacity, stroke, width)
        )

    def text(self, x: float, y: float, s: str, size=0.12, color="#111111"):
        self.track(x, y)
        self.parts.append(
            '<text x="%s" y="%s" font-size="%s" fill="%s" text-anchor="middle">%s</text>'
            % (_num(x), _num(-y), size, color, s)
        )

    def render(self) -> str:
        pad = 0.3
        x0, y0 = self.min_x - pad, self.min_y - pad
        w = (self.max_x - self.min_x) + 2 * pad
        h = (self.max_y - self.min_y) + 2 * pad
        header = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'viewBox="%s %s %s %s" width="800" height="%d">'
            % (_num(x0), _num(y0), _num(w), _num(h), max(200, int(800 * h / w)))
        )
        return header + "\n" + "\n".join(self.parts) + "\n</svg>\n"


def _surface_extent(surface: TranslationSurface) -> float:
    xs = [
        float(v.x)
        for poly in surface.polygons
        for v in poly.vertices
    ]
    return max(xs) - min(xs)


def _edge_label_text(surface: TranslationSurface, ref: EdgeRef) -> str:
    label = surface.generator_labels.get(ref)
    if label is None:
        return ""
    g, sgn = label
    return "x%d" % g if sgn > 0 else "x%d'" % g


def render_surface(
    surface: TranslationSurface,
    overlay_direction: int | None = None,
    palette: str = "default",
    copy_offsets=None,
    copy_of=None,
) -> str:
    colors = PALETTES[palette]
    svg = _Svg()
    n_polys = len(surface.polygons)
    if copy_offsets is None:
        copy_offsets = [0.0] * n_polys
    if copy_of is None:
        copy_of = [0] * n_polys

    for p, poly in enumerate(surface.polygons):
        color = colors[copy_of[p] % len(colors)]
        svg.polygon([(v, copy_offsets[p]) for v in poly.vertices], fill=color, opacity=0.25)

    if overlay_direction is not None:
        meta_n = surface.metadata.get("n") or len(surface.polygons[0])
        w = unit_vector(meta_n, overlay_direction)
        for ci, cyl in enumerate(decompose(surface, w)):
            color = colors[ci % len(colors)]
            for band in cyl.bands:
                corners = _band_corners(surface, w, *band)
                svg.polygon(
                    [(v, copy_offsets[band[0]]) for v in corners],
                    fill=color,
                    opacity=0.55,
                    stroke="none",
                    width=0,
                )

    for p, poly in enumerate(surface.polygons):
        for e in range(len(poly)):
            text = _edge_label_text(surface, EdgeRef(p, e))
            if not text:
                continue
            a, b = poly.vertex(e), poly.vertex(e + 1)
            mx = (float(a.x) + float(b.x)) / 2 + copy_offsets[p]
            my = (float(a.y) + float(b.y)) / 2
            svg.text(mx, my, text)
    return svg.render()


def _band_corners(surface, w, p, lo, hi, left, right):
    """The four corners of a band (trapezoid) between the levels lo and hi
    across the flow w, bounded by polygon p's edges left and right."""
    poly = surface.polygons[p]
    corners = []
    # only the two edges' endpoints need their levels
    for i, levels in ((right, (lo, hi)), (left, (hi, lo))):
        a = poly.vertex(i)
        ha, hb = w.cross(a), w.cross(poly.vertex(i + 1))
        corners += [a + ((level - ha) / (hb - ha)) * poly.side_vector(i) for level in levels]
    return corners


def render_cover(
    cover: CoveringSurface, overlay_direction: int | None = None, palette: str = "default"
) -> str:
    base_width = _surface_extent(cover.base) + 0.6
    nb = len(cover.base.polygons)
    offsets = []
    copy_of = []
    for idx in range(len(cover.surface.polygons)):
        copy = idx // nb
        offsets.append(copy * base_width)
        copy_of.append(copy)
    return render_surface(
        cover.surface,
        overlay_direction=overlay_direction,
        palette=palette,
        copy_offsets=offsets,
        copy_of=copy_of,
    )


def render_infinite_window(n: int, window: int, palette: str = "default") -> str:
    """A finite window (copies -window..window) of Y_{n,infinity}."""
    if window < 1:
        raise ValueError("window must be at least 1")
    d = 2 * window + 1
    # sheet i of the window is copy i - window of the infinite surface;
    # the parity-affine gluings are truncated at the window boundary
    from .covering import Monodromy, monodromy_indices, num_generators
    from .zcover import std_infinite_monodromy

    zm = std_infinite_monodromy(n)
    k1, k2 = monodromy_indices(n)
    images = {}
    for g in (k1, k2):
        zp = zm.image(g)
        table = list(range(d))
        for i in range(d):
            target = zp(i - window) + window
            table[i] = target if 0 <= target < d else i  # truncate at boundary
        images[g] = tuple(table)
    mono = Monodromy(num_generators(n), d, images)
    return render_cover(build_cover(n, d, mono), palette=palette)
