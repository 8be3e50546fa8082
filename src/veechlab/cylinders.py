"""Cylinder decompositions in periodic directions, by separatrix tracing.

The tracer follows every separatrix germ (a corner ray in +/- the given
direction) through the polygon complex with exact predicates until it
hits a cone point.  The traced segments, all lying at finitely many
transversal levels, cut each polygon into bands; bands glue left-to-
right into cylinders.  Heights, circumferences and core words come out
exactly; the closed forms of the base-surface decomposition are kept as
an independent oracle.

The tracer sorts each polygon's distinct vertex levels once, by exact
comparison, and keeps each vertex's rank among them.  Every later side
test reads ranks: which corners the flow leaves into the polygon, on
which side of a traced level each vertex lies (a level that is not a
vertex level is placed by bisection), and which edges bound a band.

Coordinates: for direction w, u(x) = <w, x> grows along the flow and
h(x) = w x x (cross product) is the transversal level.  Neither is
normalized by |w|, so heights and circumferences are exact lengths when
|w| = 1 (true for all v_l directions) and uniformly scaled otherwise;
inverse moduli are exact either way.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple

from .errors import BoundExceeded, InvalidSurface
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


def default_bound(surface: TranslationSurface) -> RealAlg:
    """Length cap 8*n*sin(pi/n) on one separatrix.

    In a v_l direction every separatrix is a single chord of length at
    most 2 (on X_n and, lifted, on its covers), far below the cap.
    """
    n = max(len(p) for p in surface.polygons)
    return 8 * n * sin_pi_over(n)


# ---------------------------------------------------------------------------
# separatrix tracing


class _Tracer:
    def __init__(self, surface: TranslationSurface, w: Vec2):
        self.surface = surface
        self.w = w
        self.bound = bound = default_bound(surface)
        # a path parallel to w is longer than bound iff its u-extent
        # exceeds bound * |w|^2
        self.cap = bound * w.norm2()
        # per polygon: transversal levels and flow coordinates of the
        # vertices, the distinct levels in increasing order, each
        # level's position in that order (by exact key) and each
        # vertex's rank; every later side test reads the ranks
        self.h = []
        self.u = []
        self.levels = []
        self.position = []
        self.rank = []
        for poly in surface.polygons:
            hs = [w.cross(v) for v in poly.vertices]
            # in vertex order the levels of a convex polygon rise and
            # fall once, so the sort merges a few runs
            levels = sorted({h.key(): h for h in hs}.values())
            position = {h.key(): k for k, h in enumerate(levels)}
            self.h.append(hs)
            self.u.append([w.dot(v) for v in poly.vertices])
            self.levels.append(levels)
            self.position.append(position)
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

    def sides(self, p: int, level: RealAlg):
        """The sign of h_i - level for every vertex i of polygon p.

        A level equal to a vertex level is found by its exact key; any
        other is placed among the sorted vertex levels by bisection.
        """
        k = self.position[p].get(level.key())
        if k is not None:
            return [(r > k) - (r < k) for r in self.rank[p]]
        k = bisect_left(self.levels[p], level)
        return [1 if r >= k else -1 for r in self.rank[p]]

    def exit_from(self, p: int, pt: Vec2, level: RealAlg, forward: bool):
        """First boundary hit of the ray from pt at the given level.

        forward=True moves in +u.  Returns (vertex_index, None) on a
        vertex hit or (None, (side, exit_point, du)) on an edge crossing,
        where du is the change of u from pt to the exit point.
        """
        poly = self.surface.polygons[p]
        hs = self.h[p]
        us = self.u[p]
        m = len(poly)
        signs = self.sides(p, level)
        u0 = self.w.dot(pt)
        # vertex hits: boundary points at this level strictly ahead
        best_v = None
        best_u = None
        for i in range(m):
            if signs[i] == 0:
                du = us[i] - u0
                if (du.sign() > 0) == forward and not du.is_zero():
                    if best_u is None or (abs(du) < abs(best_u)):
                        best_u = du
                        best_v = i
        # edge crossings: for +u the exit edge rises through the level
        for i in range(m):
            sa = signs[i]
            sb = signs[(i + 1) % m]
            crosses = (sa < 0 and sb > 0) if forward else (sa > 0 and sb < 0)
            if crosses:
                ha, hb = hs[i], hs[(i + 1) % m]
                s = (level - ha) / (hb - ha)
                exit_pt = poly.vertex(i) + s * poly.side_vector(i)
                du = self.w.dot(exit_pt) - u0
                if (du.sign() > 0) == forward and not du.is_zero():
                    if best_u is not None and abs(du) >= abs(best_u):
                        continue
                    return None, (i, exit_pt, du)
        if best_v is not None:
            return best_v, None
        raise InvalidSurface("separatrix failed to exit a polygon")

    def trace_germ(self, p: int, v: int, forward: bool):
        """Trace the separatrix from corner (p, v) until it hits a cone point.

        Returns (end corner, cuts): the corner it ends at and one
        (polygon, level) per segment.
        """
        surface = self.surface
        pt = surface.polygons[p].vertex(v)
        level = self.h[p][v]
        travelled = RealAlg.zero(level.N)
        cuts = []
        while True:
            cuts.append((p, level))
            hit_v, crossing = self.exit_from(p, pt, level, forward)
            if hit_v is not None:
                return (p, hit_v), cuts
            side, exit_pt, du = crossing
            travelled = travelled + abs(du)
            if travelled > self.cap:
                raise BoundExceeded("separatrix exceeded the length cap", self.bound)
            if len(cuts) > 10 ** 6:
                raise BoundExceeded("separatrix crossing count exceeded hard cap", self.bound)
            ref = EdgeRef(p, side)
            tau = surface.crossing_translation(ref)
            p = surface.gluing[ref].polygon
            pt = exit_pt + tau
            level = level + self.w.cross(tau)


def _trace_all(tracer: _Tracer):
    """The (polygon, level) cuts of every separatrix (all must close up)."""
    done_germs = set()
    for p, poly in enumerate(tracer.surface.polygons):
        for v in range(len(poly)):
            for forward in (True, False):
                if (p, v, forward) in done_germs or not tracer.enters(p, v, forward):
                    continue
                (end_p, end_v), cuts = tracer.trace_germ(p, v, forward)
                # the reverse germ retraces the same separatrix
                done_germs.add((end_p, end_v, not forward))
                yield from cuts


# ---------------------------------------------------------------------------
# band assembly


def _band_edges(rank, count: int):
    """The left and right edges of bands 0..count-1 of one polygon.

    Band k lies between the sorted cut levels k and k + 1, and rank[i]
    is vertex i's position among those levels.  Edge i is the right
    edge of band k iff rank[i] <= k < rank[i+1], and its left edge iff
    rank[i+1] <= k < rank[i]; None where no edge qualifies.
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
    """Cylinder decomposition of the surface in the flow direction w.

    Traces all separatrices (raising BoundExceeded past default_bound),
    cuts every polygon into bands at the traced levels and glues bands
    into cylinders with exact heights, circumferences and core words.
    Cylinders are listed by their first band in (polygon, level) order,
    and each core word is read rightward from that band.
    """
    if w.is_zero():
        raise ValueError("flow direction must be nonzero")
    tracer = _Tracer(surface, w)

    # transversal cut levels per polygon: vertex levels + traced levels
    # that are not vertex levels (none on X_n in a v_l direction)
    extra = [{} for _ in tracer.levels]
    for p, lv in _trace_all(tracer):
        if lv.key() not in tracer.position[p]:
            extra[p].setdefault(lv.key(), lv)

    # bands: per polygon, the strip between consecutive levels, with the
    # edges it leaves through on the left and on the right
    bands = {}  # (p, k) -> (lo, hi, left, right)
    band_at_left_edge = {}  # (EdgeRef, level key of band bottom) -> (p, k)
    for p, hs in enumerate(tracer.h):
        lv = tracer.levels[p]
        r = tracer.rank[p]
        if extra[p]:
            lv = sorted(lv + list(extra[p].values()))
            position = {h.key(): k for k, h in enumerate(lv)}
            r = [position[h.key()] for h in hs]
        left, right = _band_edges(r, len(lv) - 1)
        for k in range(len(lv) - 1):
            if left[k] is None or right[k] is None:
                continue  # level gap outside the polygon (should not happen)
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
