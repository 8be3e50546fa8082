"""Exact planar vectors over the real cyclotomic subfield."""

from __future__ import annotations

from .field import RealAlg, product_sum


class Vec2:
    __slots__ = ("x", "y")

    def __init__(self, x: RealAlg, y: RealAlg):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, *a):
        raise AttributeError("Vec2 is immutable")

    def __add__(self, other: Vec2) -> Vec2:
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Vec2) -> Vec2:
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> Vec2:
        return Vec2(-self.x, -self.y)

    def __mul__(self, scalar) -> Vec2:
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def cross(self, other: Vec2) -> RealAlg:
        return product_sum(self.x, other.y, self.y, other.x, -1)

    def dot(self, other: Vec2) -> RealAlg:
        return product_sum(self.x, other.x, self.y, other.y)

    def norm2(self) -> RealAlg:
        return self.dot(self)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def key(self):
        return (self.x.key(), self.y.key())

    def __eq__(self, other):
        if not isinstance(other, Vec2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def to_json(self):
        return {"x": self.x.to_json(), "y": self.y.to_json()}

    def approx(self, digits: int = 20):
        return (self.x.approx(digits), self.y.approx(digits))

    def __repr__(self):
        return "Vec2(%s, %s)" % (self.x.approx(8).strip(), self.y.approx(8).strip())


def ccw_arc_contains(a: Vec2, b: Vec2, r: Vec2) -> bool:
    """Whether r lies in the half-open CCW arc (a, b] of directions.

    The arc is the set of directions swept rotating counterclockwise
    from a to b, excluding a, including b.  All vectors nonzero; the arc
    must be smaller than pi (a x b > 0), as the corner of a strictly
    convex polygon (Polygon.validate) is.
    """
    car = a.cross(r).sign()
    if car == 0 and a.dot(r).sign() > 0:  # r parallel to a: excluded
        return False
    cbr = b.cross(r).sign()
    if cbr == 0 and b.dot(r).sign() > 0:  # r parallel to b: included
        return True
    return car > 0 and cbr < 0
