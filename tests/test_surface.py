import pytest

from veechlab.errors import InvalidSurface
from veechlab.field import RealAlg, sin_pi_over
from veechlab.planar import Vec2
from veechlab.surface import EdgeRef, Polygon, TranslationSurface, build_base


@pytest.mark.parametrize(
    "n,polys,pairs",
    [(9, 2, 9), (8, 1, 4), (5, 2, 5), (12, 1, 6)],
)
def test_build_base_combinatorics(n, polys, pairs):
    s = build_base(n)
    assert len(s.polygons) == polys
    assert s.num_edges() == pairs


def test_edge_lengths_are_2_sin_pi_over_n():
    for n in (5, 8, 11):
        s = build_base(n)
        target = (2 * sin_pi_over(n)) ** 2
        for poly in s.polygons:
            for j in range(len(poly)):
                assert poly.side_vector(j).norm2() == target


def test_odd_base_horizontal_start_side():
    s = build_base(7)
    v = s.polygons[0].side_vector(0)
    assert v.y.is_zero() and v.x.sign() > 0
    # Q's labelled sides are the reversed translates of P's
    for j in range(7):
        assert (s.polygons[0].side_vector(j) + s.polygons[1].side_vector(j)).is_zero()


def test_even_base_vertex_positions():
    from veechlab.field import quarter_trig

    s = build_base(8)
    for j in range(8):
        c, sn = quarter_trig(8, 4 * j)
        assert s.polygons[0].vertex(j) == Vec2(c, sn)


@pytest.mark.parametrize(
    "n,genus,cones",
    [
        (5, 2, [(3, 10)]),
        (7, 3, [(5, 14)]),
        (9, 4, [(7, 18)]),
        (11, 5, [(9, 22)]),
        (13, 6, [(11, 26)]),
        (8, 2, [(3, 8)]),
        (10, 2, [(2, 5), (2, 5)]),
        (12, 3, [(5, 12)]),
    ],
)
def test_genus_and_cone_points(n, genus, cones):
    s = build_base(n)
    assert s.genus() == genus
    got = sorted((cp.angle_multiple, len(cp.corners)) for cp in s.cone_points())
    assert got == sorted(cones)


@pytest.mark.parametrize("n", [5, 7, 8, 9, 10, 11, 12, 13])
def test_gauss_bonnet(n):
    s = build_base(n)
    assert sum(cp.angle_multiple - 1 for cp in s.cone_points()) == 2 * s.genus() - 2


def test_rejects_degenerate_n():
    for bad in (3, 4, 6):
        with pytest.raises(ValueError):
            build_base(bad)


def test_gluing_validation_rejects_non_translation():
    # a unit square glued to itself left<->top is not a translation match
    N = 20
    one, zero = RealAlg.one(N), RealAlg.zero(N)
    square = Polygon(
        [Vec2(zero, zero), Vec2(one, zero), Vec2(one, one), Vec2(zero, one)]
    )
    gluing = {
        EdgeRef(0, 0): EdgeRef(0, 2),
        EdgeRef(0, 2): EdgeRef(0, 0),
        EdgeRef(0, 1): EdgeRef(0, 3),
        EdgeRef(0, 3): EdgeRef(0, 1),
    }
    torus = TranslationSurface([square], gluing)  # the square torus is fine
    assert torus.genus() == 1

    bad = {
        EdgeRef(0, 0): EdgeRef(0, 1),
        EdgeRef(0, 1): EdgeRef(0, 0),
        EdgeRef(0, 2): EdgeRef(0, 3),
        EdgeRef(0, 3): EdgeRef(0, 2),
    }
    with pytest.raises(InvalidSurface):
        TranslationSurface([square], bad)


def _integer_polygon(N, points):
    one = RealAlg.one(N)
    return Polygon([Vec2(x * one, y * one) for x, y in points])


def test_star_polygon_rejected():
    # the pentagram turns left at every corner (and has positive signed
    # area) but its sides turn twice around: it is not convex
    from veechlab.field import quarter_trig

    pentagram = Polygon([Vec2(*quarter_trig(5, 4 * (2 * k % 5))) for k in range(5)])
    assert all(pentagram.side_vector(i).cross(pentagram.side_vector(i + 1)).sign() > 0
               for i in range(5))
    with pytest.raises(InvalidSurface, match="2 times around"):
        pentagram.validate()
    # its vertices in convex order are the regular pentagon
    Polygon([Vec2(*quarter_trig(5, 4 * k)) for k in range(5)]).validate()


@pytest.mark.parametrize("points", [
    [(0, 0), (0, 1), (1, 1), (1, 0)],  # the unit square, clockwise
    [(0, 0), (2, 0), (1, 1), (1, 3)],  # reflex at (1, 1)
    [(0, 0), (1, 0), (1, 0), (0, 1)],  # a repeated vertex
], ids=["clockwise-square", "reflex-quadrilateral", "repeated-vertex"])
def test_non_convex_polygons_rejected(points):
    with pytest.raises(InvalidSurface):
        _integer_polygon(20, points).validate()
    _integer_polygon(20, [(0, 0), (1, 0), (1, 1), (0, 1)]).validate()


@pytest.mark.parametrize("n", [n for n in range(5, 26) if n != 6])
def test_base_polygons_are_accepted(n):
    for poly in build_base(n).polygons:
        poly.validate()


def test_unmatched_edge_rejected():
    s = build_base(5)
    gluing = dict(s.gluing)
    a = EdgeRef(0, 0)
    del gluing[gluing[a]]
    del gluing[a]
    with pytest.raises(InvalidSurface):
        TranslationSurface(s.polygons, gluing, s.generator_labels)


def test_surface_json_dump():
    s = build_base(5)
    data = s.to_json()
    assert data["conductor"] == 20
    assert len(data["polygons"]) == 2
    assert len(data["gluing"]) == 10
    # labels for x_0..x_3 on both polygons; x_4 unlabeled
    assert len(data["generator_labels"]) == 8
