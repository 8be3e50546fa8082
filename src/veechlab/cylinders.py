"""Cylinder decompositions in vertex-level directions.

A direction w is vertex-level on a surface when every separatrix germ
(a corner ray in +/- w) that enters a polygon at a corner leaves it at
the other corner of that level: every separatrix is then one chord, and
the bands between consecutive vertex levels of each polygon glue left-
to-right into cylinders.  Every v_l direction is vertex-level on X_n and
on its realized covers (decompose gives the reason).  Heights,
circumferences and core words come out exactly; the closed forms of the
base-surface decomposition are kept as an independent oracle.

Each polygon's distinct vertex levels are sorted once, by exact
comparison, and each vertex keeps its rank among them.  Every later
test reads ranks: which corners the flow leaves into the polygon, where
each chord ends, and which edges bound a band.

Coordinates: for direction w, u(x) = <w, x> grows along the flow and
h(x) = w x x (cross product) is the transversal level.  Neither is
normalized by |w|, so heights and circumferences are exact lengths when
|w| = 1 (true for all v_l directions) and uniformly scaled otherwise;
inverse moduli are exact either way.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidSurface, NotVertexLevel
from .field import RealAlg, quarter_trig, sin_pi_over, cos_pi_over
from .planar import Vec2
from .surface import EdgeRef, TranslationSurface, no_base_surface
from .words import Word


def unit_vector(n: int, l: int) -> Vec2:
    """v_l = R_n^l (1, 0)^T = (cos(l*pi/n), sin(l*pi/n))."""
    return Vec2(*quarter_trig(n, 2 * l))


class Cylinder(namedtuple("Cylinder", "height circumference inverse_modulus core_word bands",
                          defaults=((),))):
    # height, circumference and inverse_modulus are RealAlgs, core_word a
    # Word; bands is ((polygon, level_lo, level_hi, left edge, right edge),
    # ...) when traced, else ()
    __slots__ = ()

    def to_json(self):
        return {
            "height": self.height.to_json(),
            "circumference": self.circumference.to_json(),
            "inverse_modulus": self.inverse_modulus.to_json(),
            "core_word": self.core_word.to_json(),
        }


# ---------------------------------------------------------------------------
# separatrix chords


class _Tracer:
    def __init__(self, surface: TranslationSurface, w: Vec2):
        self.surface = surface
        # per polygon: transversal levels of the vertices, the distinct
        # levels in increasing order and each vertex's rank among them;
        # every later side test reads the ranks
        self.h = []
        self.levels = []
        self.rank = []
        for poly in surface.polygons:
            hs = [w.cross(v) for v in poly.vertices]
            # in vertex order the levels of a convex polygon rise and
            # fall once, so the sort merges a few runs
            levels = sorted({h.key(): h for h in hs}.values())
            position = {h.key(): k for k, h in enumerate(levels)}
            self.h.append(hs)
            self.levels.append(levels)
            self.rank.append([position[h.key()] for h in hs])

    def enters(self, p: int, v: int, forward: bool) -> bool:
        """Whether the flow along +w (forward) or -w leaves corner v of
        polygon p into the polygon.

        It does iff h[v-1] > h[v] > h[v+1] (reversed for -w).  The
        polygons of a TranslationSurface are strictly convex
        (Polygon.validate), so this is the strict cone test at the corner.
        """
        r = self.rank[p]
        before, at, after = r[v - 1], r[v], r[(v + 1) % len(r)]
        return before > at > after if forward else before < at < after

    def exit_from(self, p: int, v: int) -> int:
        """The other vertex of polygon p at the level of vertex v.

        A germ that enters p at v runs along the line of v's level, which
        meets the boundary of the strictly convex polygon in one more
        point.  That point is a vertex, the only other one of that rank,
        or else lies inside an edge: NotVertexLevel.
        """
        r = self.rank[p]
        k = r[v]
        for i, rank in enumerate(r):
            if rank == k and i != v:
                return i
        raise NotVertexLevel(
            "the separatrix from corner %d of polygon %d leaves through an edge: "
            "the direction is not vertex-level" % (v, p), (p, v))

    def trace_germ(self, p: int, v: int, forward: bool):
        """The corner where the germ entering polygon p at corner v, along
        +w (forward) or -w, ends: the other end of its chord."""
        return p, self.exit_from(p, v)


def _trace_all(tracer: _Tracer):
    """Check that every separatrix is one chord (NotVertexLevel if not)."""
    done_germs = set()
    for p, poly in enumerate(tracer.surface.polygons):
        for v in range(len(poly)):
            for forward in (True, False):
                if (p, v, forward) in done_germs or not tracer.enters(p, v, forward):
                    continue
                end_p, end_v = tracer.trace_germ(p, v, forward)
                # the reverse germ retraces the same chord
                done_germs.add((end_p, end_v, not forward))


# ---------------------------------------------------------------------------
# band assembly


def _band_edges(rank, count: int):
    """The left and right edges of bands 0..count-1 of one polygon.

    Band k lies between the sorted vertex levels k and k + 1, and
    rank[i] is vertex i's position among those levels.  Edge i is the
    right edge of band k iff rank[i] <= k < rank[i+1], and its left edge
    iff rank[i+1] <= k < rank[i].  Around the polygon the ranks rise from
    0 to count and fall back, so every band has both.
    """
    m = len(rank)
    left = [None] * count
    right = [None] * count
    for i in range(m):
        a, b = rank[i], rank[(i + 1) % m]
        for k in range(a, b):
            right[k] = i
        for k in range(b, a):
            left[k] = i
    return left, right


def decompose(surface: TranslationSurface, w: Vec2):
    """Cylinder decomposition of the surface in the vertex-level direction w.

    Raises NotVertexLevel, naming the corner, when a separatrix germ
    leaves its polygon through an edge: a sheared or non-periodic
    direction does.  Every v_l direction is vertex-level.  The polygons
    of X_n, and of its realized covers (translated copies of them), are
    regular n-gons with sides parallel to v_l directions, so the n lines
    through a polygon's centre perpendicular to v_0, ..., v_(n-1) are its
    symmetry axes.  The reflection in the one perpendicular to w keeps
    every level and maps a corner to a corner of the same level.  It
    also reverses the segment in which the line of that level meets the
    polygon, so a germ that enters the polygon at a corner ends at the
    corner's mirror image (a corner on the axis is the polygon's only
    point at its level, and no germ enters there).  No CLI command can
    therefore raise NotVertexLevel: `cylinders`, `render` and `verify`
    (through covering.base_decomposition) decompose in v_l only.

    Every polygon is cut into bands at its vertex levels, and bands glue
    into cylinders with exact heights, circumferences and core words.
    Cylinders are listed by their first band in (polygon, level) order,
    and each core word is read rightward from that band.
    """
    if w.is_zero():
        raise ValueError("flow direction must be nonzero")
    tracer = _Tracer(surface, w)
    _trace_all(tracer)

    # bands: per polygon, the strip between consecutive vertex levels,
    # with the edges it leaves through on the left and on the right
    bands = {}  # (p, k) -> (lo, hi, left, right)
    band_at_left_edge = {}  # (EdgeRef, level key of band bottom) -> (p, k)
    for p, lv in enumerate(tracer.levels):
        left, right = _band_edges(tracer.rank[p], len(lv) - 1)
        for k in range(len(lv) - 1):
            lo = lv[k]
            bands[(p, k)] = (lo, lv[k + 1], left[k], right[k])
            band_at_left_edge[(EdgeRef(p, left[k]), lo.key())] = (p, k)

    # flood bands rightward into cylinders; the core curve closes, so its
    # steps inside the polygons and the translations of its crossings sum
    # to zero, and its length along w is minus w . (sum of translations)
    unused = set(bands)
    cylinders = []
    # Veech's equal moduli: the cylinders of a v_l direction of X_n
    # share at most two inverse moduli, so a known one is tested by a
    # product before dividing
    moduli = []
    while unused:
        start = cur = min(unused)
        chain = []
        circumference = RealAlg.zero(w.x.N)
        while True:
            chain.append(cur)
            unused.discard(cur)
            lo, _, _, right = bands[cur]
            ref = EdgeRef(cur[0], right)
            tau = surface.crossing_translation(ref)
            circumference = circumference - w.dot(tau)
            delta = w.cross(tau)
            nxt = band_at_left_edge.get((surface.gluing[ref], (lo + delta).key()))
            if nxt is None:
                raise InvalidSurface("band flood lost its right neighbour")
            if nxt == start:
                break
            if nxt not in unused:
                raise InvalidSurface("band flood revisited a band")
            cur = nxt
        lo, hi, _, _ = bands[start]
        height = hi - lo
        letters = []
        for (p, k) in chain:
            lo, hi, left, right = bands[(p, k)]
            if not (hi - lo == height):
                raise InvalidSurface("inconsistent band heights inside a cylinder")
            label = surface.crossing_label(EdgeRef(p, right))
            if label is not None:
                letters.append(label)
        mu = next((mu for mu in moduli if mu * height == circumference), None)
        if mu is None:
            mu = circumference / height
            moduli.append(mu)
        cylinders.append(
            Cylinder(
                height=height,
                circumference=circumference,
                inverse_modulus=mu,
                core_word=Word(letters),
                bands=tuple((p,) + bands[(p, k)] for (p, k) in chain),
            )
        )
    return cylinders


# ---------------------------------------------------------------------------
# closed forms for the base decomposition (independent oracle)


def cylinder_count_base(n: int) -> int:
    if n % 2:
        return (n - 1) // 2
    return n // 4 if n % 4 == 0 else (n - 2) // 4


def closed_form_base(n: int, i: int):
    """Exact (height, length) of horizontal cylinder i of X_n.

    Odd n, cylinder i in 1..(n-1)/2 with j = (n+1)/2 - i:
        h_i = 2 sin(pi(2j-1)/n) sin(pi/n),  l_i = 4 sin(pi(2j-1)/n) cos(pi/n).
    Even n, cylinder i in 1..n/4 (or (n-2)/4):
        h_i = 2 cos((2i-1)pi/n) sin(pi/n),  l_i = 4 cos((2i-1)pi/n) cos(pi/n).
    """
    if no_base_surface(n):
        raise ValueError("n >= 5, n != 6")
    count = cylinder_count_base(n)
    if not 1 <= i <= count:
        raise IndexError("cylinder index out of range")
    s1 = sin_pi_over(n)
    c1 = cos_pi_over(n)
    if n % 2:
        j = (n + 1) // 2 - i
        _, sj = quarter_trig(n, 2 * (2 * j - 1))
        return 2 * sj * s1, 4 * sj * c1
    ci, _ = quarter_trig(n, 2 * (2 * i - 1))
    return 2 * ci * s1, 4 * ci * c1
