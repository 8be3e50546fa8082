"""Cylinder decompositions in periodic directions, by separatrix tracing.

The tracer follows every separatrix germ (a corner ray in +/- the given
direction) through the polygon complex with exact predicates until it
hits a cone point.  The traced segments, all lying at finitely many
transversal levels, cut each polygon into bands; bands glue left-to-
right into cylinders.  Heights, circumferences and core words come out
exactly; the closed forms of the base-surface decomposition are kept as
an independent oracle.

Coordinates: for direction w, u(x) = <w, x> grows along the flow and
h(x) = w x x (cross product) is the transversal level.  Neither is
normalized by |w|, so heights and circumferences are exact lengths when
|w| = 1 (true for all v_l directions) and uniformly scaled otherwise;
inverse moduli are exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundExceeded, InvalidSurface
from .field import RealAlg, quarter_trig, sin_pi_over, cos_pi_over
from .planar import Vec2, strictly_inside_cone
from .surface import EdgeRef, TranslationSurface
from .words import Word


class Direction:
    """A nonzero direction; equality and hashing are projective."""

    __slots__ = ("vector", "_canon")

    def __init__(self, vector: Vec2):
        if vector.is_zero():
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "vector", vector)
        sy = vector.y.sign()
        flip = sy < 0 or (sy == 0 and vector.x.sign() < 0)
        object.__setattr__(self, "_canon", (-vector if flip else vector).key())

    def __setattr__(self, *a):
        raise AttributeError("Direction is immutable")

    @staticmethod
    def from_index(n: int, l: int) -> Direction:
        """v_l = R_n^l (1, 0)^T = (cos(l*pi/n), sin(l*pi/n))."""
        c, s = quarter_trig(n, 2 * l)
        return Direction(Vec2(c, s))

    def key(self):
        return self._canon

    def __eq__(self, other):
        if not isinstance(other, Direction):
            return NotImplemented
        return self._canon == other._canon

    def __hash__(self):
        return hash(self._canon)

    def is_unit(self) -> bool:
        return self.vector.norm2() == 1

    def __repr__(self):
        return "Direction(%s, %s)" % tuple(s.strip() for s in self.vector.approx(8))


@dataclass(frozen=True)
class SaddleConnection:
    start: tuple  # (polygon, vertex)
    end: tuple
    holonomy: Vec2
    word: Word
    segments: tuple  # ((polygon, entry Vec2, exit Vec2), ...)

    def length2(self) -> RealAlg:
        return self.holonomy.norm2()

    def canonical_key(self):
        k1 = (self.start, self.holonomy.key())
        k2 = (self.end, (-self.holonomy).key())
        return min(k1, k2)

    def to_json(self):
        return {
            "start": list(self.start),
            "end": list(self.end),
            "holonomy": self.holonomy.to_json(),
            "word": self.word.to_json(),
        }


@dataclass(frozen=True)
class Cylinder:
    direction: Direction
    height: RealAlg
    circumference: RealAlg
    inverse_modulus: RealAlg
    core_word: Word
    bands: tuple = ()  # ((polygon, level_lo, level_hi), ...) when traced

    def to_json(self):
        return {
            "height": self.height.to_json(),
            "circumference": self.circumference.to_json(),
            "inverse_modulus": self.inverse_modulus.to_json(),
            "core_word": self.core_word.to_json(),
        }


def default_bound(surface: TranslationSurface) -> RealAlg:
    """Length cap 8*n*sin(pi/n), ample for the v_l directions; callers retry x4."""
    n = max(len(p) for p in surface.polygons)
    return 8 * n * sin_pi_over(n)


# ---------------------------------------------------------------------------
# separatrix tracing


class _Tracer:
    def __init__(self, surface: TranslationSurface, w: Vec2, bound: RealAlg):
        self.surface = surface
        self.w = w
        self.bound = bound
        self.bound2 = bound * bound * w.norm2()
        # per-polygon transversal levels and flow coordinates of vertices
        self.h = []
        self.u = []
        for poly in surface.polygons:
            self.h.append([w.cross(v) for v in poly.vertices])
            self.u.append([w.dot(v) for v in poly.vertices])

    def corner_cone(self, p: int, v: int):
        poly = self.surface.polygons[p]
        a = poly.side_vector(v)
        b = -poly.side_vector((v - 1) % len(poly))
        return a, b

    def exit_from(self, p: int, pt: Vec2, level: RealAlg, forward: bool):
        """First boundary hit of the ray from pt at the given level.

        forward=True moves in +u.  Returns (vertex_index, None) on a
        vertex hit or (None, (side, exit_point)) on an edge crossing.
        """
        poly = self.surface.polygons[p]
        hs = self.h[p]
        us = self.u[p]
        m = len(poly)
        u0 = self.w.dot(pt)
        # vertex hits: boundary points at this level strictly ahead
        best_v = None
        best_u = None
        for i in range(m):
            if (hs[i] - level).is_zero():
                du = us[i] - u0
                if (du.sign() > 0) == forward and not du.is_zero():
                    if best_u is None or (abs(du) < abs(best_u)):
                        best_u = du
                        best_v = i
        # edge crossings: for +u the exit edge rises through the level
        for i in range(m):
            ha = hs[i]
            hb = hs[(i + 1) % m]
            sa = (ha - level).sign()
            sb = (hb - level).sign()
            crosses = (sa < 0 and sb > 0) if forward else (sa > 0 and sb < 0)
            if crosses:
                s = (level - ha) / (hb - ha)
                exit_pt = poly.vertex(i) + s * poly.side_vector(i)
                du = self.w.dot(exit_pt) - u0
                if (du.sign() > 0) == forward and not du.is_zero():
                    if best_u is not None and abs(du) >= abs(best_u):
                        continue
                    return None, (i, exit_pt)
        if best_v is not None:
            return best_v, None
        raise InvalidSurface("separatrix failed to exit a polygon")

    def trace_germ(self, p: int, v: int, forward: bool):
        """Trace until a cone point; returns a SaddleConnection."""
        surface = self.surface
        poly = surface.polygons[p]
        pt = poly.vertex(v)
        level = self.h[p][v]
        dev = Vec2(RealAlg.zero(pt.x.N), RealAlg.zero(pt.x.N))
        segments = []
        letters = []
        cur_p, cur_pt = p, pt
        steps = 0
        while True:
            hit_v, crossing = self.exit_from(cur_p, cur_pt, level, forward)
            if hit_v is not None:
                exit_pt = surface.polygons[cur_p].vertex(hit_v)
                segments.append((cur_p, cur_pt, exit_pt))
                dev = dev + (exit_pt - cur_pt)
                hol = dev if forward else -dev
                word = Word(letters)
                start, end = (p, v), (cur_p, hit_v)
                if not forward:
                    start, end = end, start
                    word = word.inverse()
                return SaddleConnection(
                    start=start,
                    end=end,
                    holonomy=hol,
                    word=word,
                    segments=tuple(segments),
                )
            side, exit_pt = crossing
            segments.append((cur_p, cur_pt, exit_pt))
            dev = dev + (exit_pt - cur_pt)
            if dev.norm2() > self.bound2:
                raise BoundExceeded("separatrix exceeded the length cap", self.bound)
            ref = EdgeRef(cur_p, side)
            label = surface.crossing_label(ref)
            if label is not None:
                letters.append(label)
            tau = surface.crossing_translation(ref)
            dst = surface.gluing[ref]
            cur_p = dst.polygon
            cur_pt = exit_pt + tau
            level = level + self.w.cross(tau)
            steps += 1
            if steps > 10 ** 6:
                raise BoundExceeded("separatrix crossing count exceeded hard cap", self.bound)


def _trace_all(surface: TranslationSurface, w: Vec2, bound: RealAlg):
    """All saddle connections in direction w (separatrices must close up)."""
    tracer = _Tracer(surface, w, bound)
    sconns = {}
    # edge-parallel saddle connections: the glued edges themselves
    for src, dst in surface.gluing.items():
        if (src.polygon, src.side) > (dst.polygon, dst.side):
            continue
        vec = surface.side(src)
        if w.cross(vec).is_zero():
            p, e = src.polygon, src.side
            poly = surface.polygons[p]
            q, f = dst.polygon, dst.side
            qoly = surface.polygons[q]
            sc = SaddleConnection(
                start=(p, e),
                end=(p, (e + 1) % len(poly)),
                holonomy=vec,
                word=Word(),
                segments=(
                    (p, poly.vertex(e), poly.vertex(e + 1)),
                    (q, qoly.vertex(f), qoly.vertex(f + 1)),
                ),
            )
            sconns[sc.canonical_key()] = sc
    # interior separatrices from every corner germ
    done_germs = set()
    for p, poly in enumerate(surface.polygons):
        for v in range(len(poly)):
            a, b = tracer.corner_cone(p, v)
            for forward in (True, False):
                germ = (p, v, forward)
                if germ in done_germs:
                    continue
                ray = w if forward else -w
                if not strictly_inside_cone(a, b, ray):
                    continue
                sc = tracer.trace_germ(p, v, forward)
                sconns[sc.canonical_key()] = sc
                # the reverse germ retraces the same connection
                if forward:
                    done_germs.add((sc.end[0], sc.end[1], False))
                else:
                    done_germs.add((sc.start[0], sc.start[1], True))
    return tracer, list(sconns.values())


# ---------------------------------------------------------------------------
# band assembly


def decompose(surface: TranslationSurface, direction: Direction, bound=None):
    """Cylinder decomposition of the surface in the given direction.

    Traces all separatrices (raising BoundExceeded past the cap), cuts
    every polygon into bands at the traced levels and glues bands into
    cylinders with exact heights, circumferences and core words.
    """
    if bound is None:
        bound = default_bound(surface)
    w = direction.vector
    tracer, sconns = _trace_all(surface, w, bound)

    # transversal cut levels per polygon: vertex levels + traced segments
    levels = []  # per polygon: list of distinct RealAlg levels, sorted
    for p in range(len(surface.polygons)):
        table = {}
        for h in tracer.h[p]:
            table.setdefault(h.key(), h)
        levels.append(table)
    for sc in sconns:
        for (p, a, _) in sc.segments:
            lv = w.cross(a)
            levels[p].setdefault(lv.key(), lv)

    sorted_levels = []
    for p in range(len(surface.polygons)):
        vals = list(levels[p].values())
        vals.sort()
        sorted_levels.append(vals)

    # bands: per polygon, the strip between consecutive levels
    band_info = {}  # (p, k) -> dict with boundary edges and widths
    band_at_left_edge = {}  # (EdgeRef, level key of band bottom) -> (p, k)
    for p, poly in enumerate(surface.polygons):
        hs = tracer.h[p]
        m = len(poly)
        lv = sorted_levels[p]
        for k in range(len(lv) - 1):
            lo, hi = lv[k], lv[k + 1]
            mid2 = lo + hi  # work at doubled midlevel to avoid /2
            left = right = None
            for i in range(m):
                sa = (2 * hs[i] - mid2).sign()
                sb = (2 * hs[(i + 1) % m] - mid2).sign()
                if sa < 0 and sb > 0:
                    right = i
                elif sa > 0 and sb < 0:
                    left = i
            if left is None or right is None:
                continue  # level gap outside the polygon (should not happen)
            band_info[(p, k)] = {"lo": lo, "hi": hi, "left": left, "right": right}
            band_at_left_edge[(EdgeRef(p, left), lo.key())] = (p, k)

    def width_at(p, edge_i, level2):
        # u-coordinate of the boundary edge at doubled level `level2`
        hs, us = tracer.h[p], tracer.u[p]
        poly = surface.polygons[p]
        m = len(poly)
        ha, hb = 2 * hs[edge_i], 2 * hs[(edge_i + 1) % m]
        ua, ub = 2 * us[edge_i], 2 * us[(edge_i + 1) % m]
        return ua + (level2 - ha) * (ub - ua) / (hb - ha)

    # flood bands rightward into cylinders
    unused = set(band_info)
    cylinders = []
    while unused:
        start = min(unused)
        chain = []
        cur = start
        while True:
            chain.append(cur)
            unused.discard(cur)
            p, k = cur
            info = band_info[cur]
            ref = EdgeRef(p, info["right"])
            dst = surface.gluing[ref]
            tau = surface.crossing_translation(ref)
            delta = w.cross(tau)
            nxt_key = (EdgeRef(dst.polygon, dst.side), (info["lo"] + delta).key())
            nxt = band_at_left_edge.get(nxt_key)
            if nxt is None:
                raise InvalidSurface("band flood lost its right neighbour")
            if nxt == start:
                break
            if nxt not in unused:
                raise InvalidSurface("band flood revisited a band")
            cur = nxt
        first = band_info[start]
        height = first["hi"] - first["lo"]
        circumference = RealAlg.zero(height.N)
        letters = []
        for (p, k) in chain:
            info = band_info[(p, k)]
            if not (info["hi"] - info["lo"] == height):
                raise InvalidSurface("inconsistent band heights inside a cylinder")
            mid2 = info["lo"] + info["hi"]
            width = (width_at(p, info["right"], mid2) - width_at(p, info["left"], mid2)) / 2
            circumference = circumference + width
            label = surface.crossing_label(EdgeRef(p, info["right"]))
            if label is not None:
                letters.append(label)
        cylinders.append(
            Cylinder(
                direction=direction,
                height=height,
                circumference=circumference,
                inverse_modulus=circumference / height,
                core_word=Word(letters),
                bands=tuple(
                    (p, band_info[(p, k)]["lo"], band_info[(p, k)]["hi"])
                    for (p, k) in chain
                ),
            )
        )
    return cylinders


def decompose_retry(surface: TranslationSurface, direction: Direction, bound=None):
    """decompose() with the documented x4 retry on BoundExceeded."""
    if bound is None:
        bound = default_bound(surface)
    try:
        return decompose(surface, direction, bound)
    except BoundExceeded:
        return decompose(surface, direction, 4 * bound)


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
    if n < 5 or n == 6:
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


# ---------------------------------------------------------------------------
# saddle connection enumeration (wedge unfolding)


def saddle_connections(surface: TranslationSurface, length_bound: RealAlg):
    """All saddle connections with |holonomy| <= length_bound, once up to sign."""
    bound2 = length_bound * length_bound
    found = {}
    N = surface.field_conductor
    zero = RealAlg.zero(N)

    # the glued edges themselves
    for src, dst in surface.gluing.items():
        if (src.polygon, src.side) > (dst.polygon, dst.side):
            continue
        vec = surface.side(src)
        if vec.norm2() <= bound2:
            p, e = src.polygon, src.side
            poly = surface.polygons[p]
            sc = SaddleConnection(
                start=(p, e),
                end=(p, (e + 1) % len(poly)),
                holonomy=vec,
                word=Word(),
                segments=(),
            )
            found[sc.canonical_key()] = sc

    def min_dist2_on_segment(A: Vec2, B: Vec2) -> RealAlg:
        d = B - A
        dd = d.norm2()
        t_num = -A.dot(d)
        if t_num.sign() <= 0:
            return A.norm2()
        if t_num >= dd:
            return B.norm2()
        # |A + (t_num/dd) d|^2
        return A.norm2() - t_num * t_num / dd

    def explore(p, offset, wu, wv, entry_side, start_corner, letters):
        poly = surface.polygons[p]
        m = len(poly)
        dev = [poly.vertex(i) + offset for i in range(m)]
        for i in range(m):
            W = dev[i]
            if W.is_zero():
                continue
            if strictly_inside_cone(wu, wv, W) and W.norm2() <= bound2:
                sc = SaddleConnection(
                    start=start_corner,
                    end=(p, i),
                    holonomy=W,
                    word=Word(letters),
                    segments=(),
                )
                found.setdefault(sc.canonical_key(), sc)
        for i in range(m):
            if i == entry_side:
                continue
            A, B = dev[i], dev[(i + 1) % m]
            if A.is_zero() or B.is_zero():
                continue  # edges at the apex bound the initial wedge
            if A.cross(B).sign() <= 0:
                continue  # edge seen from behind or collinear with apex
            # sub-wedge of directions through the open segment (A, B)
            lo = A if strictly_inside_cone(wu, wv, A) else wu
            hi = B if strictly_inside_cone(wu, wv, B) else wv
            if lo.cross(hi).sign() <= 0:
                continue
            # also require the sub-wedge to actually meet the segment cone
            if not (lo.cross(B).sign() > 0 and A.cross(hi).sign() > 0):
                continue
            if min_dist2_on_segment(A, B) > bound2:
                continue
            ref = EdgeRef(p, i)
            dst = surface.gluing[ref]
            tau = surface.crossing_translation(ref)
            label = surface.crossing_label(ref)
            new_letters = letters + [label] if label is not None else list(letters)
            explore(dst.polygon, offset + tau, lo, hi, dst.side, start_corner, new_letters)

    for p, poly in enumerate(surface.polygons):
        for v in range(len(poly)):
            a = poly.side_vector(v)
            b = -poly.side_vector((v - 1) % len(poly))
            origin = poly.vertex(v)
            offset = Vec2(zero, zero) - origin
            explore(p, offset, a, b, None, (p, v), [])

    return list(found.values())
