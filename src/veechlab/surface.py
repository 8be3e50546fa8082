"""Translation surfaces from polygons with translation edge-gluings.

The two base families live here: the odd double-n-gon (two regular
n-gons, one above and one below a shared horizontal side direction) and
the even regular n-gon with opposite sides glued.  Vertex classes, cone
angles and the genus are computed combinatorially from the gluing.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import InvalidSurface
from .field import quarter_trig
from .planar import Vec2, ccw_arc_contains


class EdgeRef(namedtuple("EdgeRef", "polygon side")):
    __slots__ = ()

    def to_json(self):
        return [self.polygon, self.side]


class Polygon:
    """A strictly convex, positively oriented polygon with exact vertices."""

    __slots__ = ("vertices", "sides")

    def __init__(self, vertices):
        vs = tuple(vertices)
        if len(vs) < 3:
            raise InvalidSurface("polygon needs at least 3 vertices")
        object.__setattr__(self, "vertices", vs)
        # side i runs from vertex i to vertex i + 1
        object.__setattr__(self, "sides", tuple(b - a for a, b in zip(vs, vs[1:] + vs[:1])))

    def __setattr__(self, *a):
        raise AttributeError("Polygon is immutable")

    def __len__(self):
        return len(self.vertices)

    def vertex(self, i: int) -> Vec2:
        return self.vertices[i % len(self.vertices)]

    def side_vector(self, i: int) -> Vec2:
        return self.sides[i % len(self.sides)]

    def validate(self):
        """Strictly convex and positively oriented, as the chord check of
        cylinders.decompose (_Tracer.enters) assumes: every corner turns left and, unlike a
        star polygon's, the sides turn once around, so +x is in exactly one
        corner's CCW arc (side i, side i + 1] (ccw_arc_contains against +x)."""
        sides = self.sides
        if any(side.is_zero() for side in sides):
            raise InvalidSurface("consecutive vertices coincide")
        ys = [side.y.sign() for side in sides]
        turns = 0
        for i in range(-1, len(sides) - 1):  # the corner from side i to side i + 1
            if sides[i].cross(sides[i + 1]).sign() <= 0:
                raise InvalidSurface("polygon is not strictly convex")
            # +x is in the arc if side i + 1 points along +x, or side i
            # points below the x-axis and side i + 1 above it
            if ys[i] < 0 < ys[i + 1] or ys[i + 1] == 0 and sides[i + 1].x.sign() > 0:
                turns += 1
        if turns != 1:
            raise InvalidSurface("polygon sides turn %d times around, not once" % turns)

    def to_json(self):
        return [v.to_json() for v in self.vertices]


class ConePoint(namedtuple("ConePoint", "corners angle_multiple")):
    """A vertex class with total angle 2*pi*angle_multiple."""

    # corners: tuple of (polygon, vertex) in cyclic walking order
    __slots__ = ()


class TranslationSurface:
    """Polygons plus a translation gluing and generator labels.

    ``gluing`` is an involutive map of EdgeRefs matching every edge
    exactly once; matched edges carry opposite edge vectors.

    ``generator_labels`` maps the EdgeRef of a directed outward crossing
    to ``(generator index, sign)`` in the chosen fundamental-group
    basis, or None when the crossing contributes the identity.
    """

    def __init__(self, polygons, gluing, generator_labels=None, metadata=None):
        self.polygons = tuple(polygons)
        self.gluing = dict(gluing)
        self.generator_labels = dict(generator_labels or {})
        self.metadata = dict(metadata or {})
        self._cone_points = None
        self.validate()

    # -- validation -----------------------------------------------------

    def validate(self):
        for poly in self.polygons:
            poly.validate()
        seen = set()
        for src, dst in self.gluing.items():
            if self.gluing.get(dst) != src:
                raise InvalidSurface("gluing is not involutive at %s" % (src,))
            if src == dst:
                raise InvalidSurface("edge glued to itself")
            v1 = self.side(src)
            v2 = self.side(dst)
            if not (v1 + v2).is_zero():
                raise InvalidSurface(
                    "glued edges %s, %s are not opposite translates" % (src, dst)
                )
            seen.add(src)
        for p, poly in enumerate(self.polygons):
            for e in range(len(poly)):
                if EdgeRef(p, e) not in seen:
                    raise InvalidSurface("unmatched edge (%d, %d)" % (p, e))

    # -- basic accessors --------------------------------------------------

    @property
    def field_conductor(self) -> int:
        return self.polygons[0].vertices[0].x.N

    def side(self, ref: EdgeRef) -> Vec2:
        return self.polygons[ref.polygon].side_vector(ref.side)

    def num_edges(self) -> int:
        return sum(len(p) for p in self.polygons) // 2

    def crossing_translation(self, ref: EdgeRef) -> Vec2:
        """Translation applied to a point crossing outward through ref."""
        dst = self.gluing[ref]
        a = self.polygons[ref.polygon].vertex(ref.side)
        b2 = self.polygons[dst.polygon].vertex(dst.side + 1)
        return b2 - a

    def crossing_label(self, ref: EdgeRef):
        """(generator, sign) recorded when crossing outward through ref."""
        return self.generator_labels.get(ref)

    # -- vertex classes ----------------------------------------------------

    def cone_points(self):
        """Vertex classes with exact cone-angle multiples.

        Corners are walked counterclockwise around each vertex class:
        from corner (p, v) the walk crosses the incoming side (p, v-1)
        into the glued polygon.  The angle multiple is the winding
        number of the resulting closed fan of edge directions.
        """
        if self._cone_points is not None:
            return self._cone_points
        remaining = {
            (p, v) for p, poly in enumerate(self.polygons) for v in range(len(poly))
        }
        points = []
        while remaining:
            start = min(remaining)
            cycle = []
            rays = []
            corner = start
            while True:
                cycle.append(corner)
                remaining.discard(corner)
                p, v = corner
                poly = self.polygons[p]
                rays.append(poly.side_vector(v))
                dst = self.gluing[EdgeRef(p, (v - 1) % len(poly))]
                corner = (dst.polygon, dst.side)
                if corner == start:
                    break
                if corner not in remaining:
                    raise InvalidSurface("corner walk revisited %s" % (corner,))
            # winding count of the direction fan; consecutive corners share
            # their seam direction exactly, so total angle = sum of corner
            # angles = 2*pi * (number of sweeps past the reference ray)
            ref = rays[0]
            multiple = 0
            for i, (p, v) in enumerate(cycle):
                poly = self.polygons[p]
                a = rays[i]
                b = -poly.side_vector((v - 1) % len(poly))
                if ccw_arc_contains(a, b, ref):
                    multiple += 1
            if multiple < 1:
                raise InvalidSurface("vertex class with non-positive cone angle")
            points.append(ConePoint(corners=tuple(cycle), angle_multiple=multiple))
        # Gauss-Bonnet: sum (k_i - 1) = 2g - 2 = -chi, chi = V - E + F
        chi = len(points) - self.num_edges() + len(self.polygons)
        if chi % 2:
            raise InvalidSurface("odd Euler characteristic")
        if sum(cp.angle_multiple - 1 for cp in points) != -chi:
            raise InvalidSurface("cone angles violate Gauss-Bonnet")
        self._cone_points = points
        return points

    def genus(self) -> int:
        """The genus, from chi = V - E + F over the vertex classes of cone_points()."""
        chi = len(self.cone_points()) - self.num_edges() + len(self.polygons)
        return (2 - chi) // 2

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "conductor": self.field_conductor,
            "polygons": [p.to_json() for p in self.polygons],
            "gluing": sorted(
                [src.to_json() + dst.to_json() for src, dst in self.gluing.items()]
            ),
            "generator_labels": {
                "%d,%d" % (ref.polygon, ref.side): list(label)
                for ref, label in sorted(self.generator_labels.items())
                if label is not None
            },
            "metadata": {k: v for k, v in sorted(self.metadata.items())},
        }


# ---------------------------------------------------------------------------
# the base families


def _polygon_from_quarter_angles(n: int, units: list[int]) -> Polygon:
    verts = []
    for t in units:
        c, s = quarter_trig(n, t)
        verts.append(Vec2(c, s))
    return Polygon(verts)


def no_base_surface(n: int) -> bool:
    """Whether X_n is undefined: n < 5, or n = 6 (n = 4, 6 are degenerate)."""
    return n < 5 or n == 6


@lru_cache(maxsize=None)
def build_base(n: int) -> TranslationSurface:
    """The base surface X_n.

    Odd n: two regular n-gons of circumradius 1, the first above its
    horizontal starting side and the second its point reflection below,
    with parallel sides glued; sides are labelled counterclockwise from
    the horizontal one.  Even n: one regular n-gon with vertex j at
    (cos(2*pi*j/n), sin(2*pi*j/n)) and opposite sides glued.
    """
    if no_base_surface(n):
        raise ValueError("base surface requires n >= 5, n != 6 (n=4,6 are degenerate)")
    if n % 2:
        return _build_odd(n)
    return _build_even(n)


def _build_odd(n: int) -> TranslationSurface:
    # P: vertex j at angle -pi/2 - pi/n + 2*pi*j/n, in units of pi/(2n)
    p_units = [4 * j - n - 2 for j in range(n)]
    P = _polygon_from_quarter_angles(n, p_units)
    # Q = -P + tau, sharing side n-1 with P so the pair renders adjacently
    tau = P.vertex(0) + P.vertex(n - 1)
    Q = Polygon([tau - P.vertex(j) for j in range(n)])
    gluing = {}
    labels = {}
    for j in range(n):
        gluing[EdgeRef(0, j)] = EdgeRef(1, j)
        gluing[EdgeRef(1, j)] = EdgeRef(0, j)
        if j < n - 1:
            labels[EdgeRef(0, j)] = (j, 1)
            labels[EdgeRef(1, j)] = (j, -1)
        else:
            labels[EdgeRef(0, j)] = None
            labels[EdgeRef(1, j)] = None
    meta = {"family": "double-n-gon", "n": n, "num_generators": n - 1}
    return TranslationSurface([P, Q], gluing, labels, meta)


def _build_even(n: int) -> TranslationSurface:
    P = _polygon_from_quarter_angles(n, [4 * j for j in range(n)])
    half = n // 2
    gluing = {}
    labels = {}
    for j in range(half):
        gluing[EdgeRef(0, j)] = EdgeRef(0, j + half)
        gluing[EdgeRef(0, j + half)] = EdgeRef(0, j)
        labels[EdgeRef(0, j)] = (j, 1)
        labels[EdgeRef(0, j + half)] = (j, -1)
    meta = {"family": "regular-n-gon", "n": n, "num_generators": half}
    return TranslationSurface([P], gluing, labels, meta)
