import pytest

from veechlab.cylinders import (
    Direction,
    closed_form_base,
    cylinder_count_base,
    decompose,
    decompose_retry,
    saddle_connections,
)
from veechlab.errors import BoundExceeded
from veechlab.field import QQ, RealAlg, lambda_n, quarter_trig, sin_pi_over
from veechlab.planar import Vec2
from veechlab.surface import EdgeRef, build_base

ALL_N = [5, 7, 9, 11, 8, 10, 12]


def _pairs(cylinders):
    return sorted((c.height.key(), c.circumference.key()) for c in cylinders)


@pytest.mark.parametrize("n", ALL_N)
def test_horizontal_matches_closed_forms_exactly(n):
    s = build_base(n)
    cyls = decompose(s, Direction.from_index(n, 0))
    assert len(cyls) == cylinder_count_base(n)
    expected = [closed_form_base(n, i) for i in range(1, cylinder_count_base(n) + 1)]
    assert _pairs(cyls) == sorted((h.key(), l.key()) for h, l in expected)


@pytest.mark.parametrize("n", ALL_N)
def test_inverse_modulus_is_lambda_horizontally(n):
    s = build_base(n)
    lam = lambda_n(n)
    for c in decompose(s, Direction.from_index(n, 0)):
        assert c.inverse_modulus == lam
        assert c.inverse_modulus * c.height == c.circumference


@pytest.mark.parametrize("n", ALL_N)
def test_closed_form_ratio(n):
    lam = lambda_n(n)
    for i in range(1, cylinder_count_base(n) + 1):
        h, l = closed_form_base(n, i)
        assert l / h == lam
    with pytest.raises(IndexError):
        closed_form_base(n, cylinder_count_base(n) + 1)


def test_decompose_x9_gives_4_cylinders():
    assert len(decompose(build_base(9), Direction.from_index(9, 0))) == 4


def test_core_word_of_cylinder_k1():
    # the innermost horizontal cylinder describes an element of <x_k1 x_k2^-1>
    s = build_base(5)
    cyls = decompose(s, Direction.from_index(5, 0))
    words = {c.core_word.cyclic_normal_form() for c in cyls}
    from veechlab.words import Word

    target = Word([(2, 1), (3, -1)]).cyclic_normal_form()
    assert target in words


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_direction_covariance_odd(n):
    # the double-n-gon is R_n-symmetric: every v_l looks horizontal
    s = build_base(n)
    ref = _pairs(decompose(s, Direction.from_index(n, 0)))
    for l in range(1, n):
        assert _pairs(decompose_retry(s, Direction.from_index(n, l))) == ref


@pytest.mark.parametrize("n", [8, 10, 12])
def test_direction_covariance_even(n):
    # the even base is only R_n^2-symmetric: covariance within each parity
    s = build_base(n)
    ref_even = _pairs(decompose(s, Direction.from_index(n, 0)))
    ref_odd = _pairs(decompose_retry(s, Direction.from_index(n, 1)))
    for l in range(2, n):
        got = _pairs(decompose_retry(s, Direction.from_index(n, l)))
        assert got == (ref_even if l % 2 == 0 else ref_odd)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_even_odd_directions_have_half_lambda_innermost(n):
    s = build_base(n)
    lam = lambda_n(n)
    for l in range(1, n, 2):
        cyls = decompose_retry(s, Direction.from_index(n, l))
        halves = [c for c in cyls if c.inverse_modulus == lam / 2]
        fulls = [c for c in cyls if c.inverse_modulus == lam]
        assert len(halves) == 1
        assert len(fulls) == len(cyls) - 1
    # and even directions are all lambda
    for l in range(2, n, 2):
        for c in decompose_retry(s, Direction.from_index(n, l)):
            assert c.inverse_modulus == lam


@pytest.mark.parametrize("n", [5, 7, 9])
def test_edge_membership_rule(n):
    # in the direction of edge x_i, cylinder c crosses x_{i-c} and x_{i+c}
    s = build_base(n)
    for i in range(n):
        # v_l parallel to edge x_i: l = 2i mod 2n projectively
        direction = Direction(s.polygons[0].side_vector(i))
        cyls = decompose_retry(s, direction)
        seen = {}
        for cyl in cyls:
            crossed = {g for g, _ in cyl.core_word}
            seen[frozenset(crossed)] = cyl
        for c in range(1, (n - 1) // 2 + 1):
            expected = {(i - c) % n, (i + c) % n}
            expected.discard(n - 1)  # the unlabeled edge never appears in words
            assert frozenset(expected) in seen, (i, c)


def test_bound_exceeded_on_non_periodic_direction():
    s = build_base(5)
    d = Direction(Vec2(RealAlg.one(20), RealAlg.one(20)))
    with pytest.raises(BoundExceeded) as exc:
        decompose(s, d, RealAlg.rational(20, 40))
    assert exc.value.bound == RealAlg.rational(20, 40)


def test_direction_canonicalization():
    a = Direction.from_index(5, 1)
    b = Direction.from_index(5, 6)  # v_6 = -v_1
    assert a == b
    assert a.vector == -b.vector
    assert Direction.from_index(5, 0).is_unit()


# ---------------------------------------------------------------------------
# saddle connections


def test_x8_shortest_saddle_connections_are_the_edges():
    n = 8
    s = build_base(n)
    bound = 2 * sin_pi_over(n)
    scs = saddle_connections(s, bound)
    assert len(scs) == 4  # one per glued edge pair
    s1 = sin_pi_over(n)
    expected = set()
    for l in range(n):
        c, sn = quarter_trig(n, 2 * (2 * l + 1))
        v = Vec2(-2 * sn * s1, 2 * c * s1)
        if v.y.sign() < 0 or (v.y.sign() == 0 and v.x.sign() < 0):
            v = -v
        expected.add(v.key())
    got = set()
    for sc in scs:
        v = sc.holonomy
        if v.y.sign() < 0 or (v.y.sign() == 0 and v.x.sign() < 0):
            v = -v
        got.add(v.key())
    assert got == expected


def test_tiny_bound_gives_empty_list():
    s = build_base(5)
    assert saddle_connections(s, RealAlg.rational(20, QQ("1/1000"))) == []


def _brute_force_saddle_connections(surface, bound):
    """Independent oracle: enumerate developed vertices by breadth-first
    unfolding without wedge pruning, then validate each candidate by
    re-tracing the straight segment step by step."""
    bound2 = bound * bound
    N = surface.field_conductor
    zero = RealAlg.zero(N)

    def min_dist2(A, B, O):
        d = B - A
        rel = A - O
        dd = d.norm2()
        t = -rel.dot(d)
        if t.sign() <= 0:
            return rel.norm2()
        if t >= dd:
            return (B - O).norm2()
        return rel.norm2() - t * t / dd

    def normalized_key(p0, v0, W, end):
        # a segment along a glued edge is one saddle connection seen from
        # two polygons; normalize to the library's src-side convention
        poly = surface.polygons[p0]
        if end == (p0, (v0 + 1) % len(poly)) and W == poly.side_vector(v0):
            ref = EdgeRef(p0, v0)
            src = min(ref, surface.gluing[ref])
            svec = surface.side(src)
            start = (src.polygon, src.side)
            stop = (src.polygon, (src.side + 1) % len(surface.polygons[src.polygon]))
            return min((start, svec.key()), (stop, (-svec).key()))
        return min(((p0, v0), W.key()), (end, (-W).key()))

    found = set()
    for p0, poly0 in enumerate(surface.polygons):
        for v0 in range(len(poly0)):
            origin = poly0.vertex(v0)
            frontier = [(p0, Vec2(zero, zero))]
            seen = {(p0, Vec2(zero, zero).key())}
            while frontier:
                nxt = []
                for (p, off) in frontier:
                    poly = surface.polygons[p]
                    for i in range(len(poly)):
                        W = poly.vertex(i) + off - origin
                        if not W.is_zero() and W.norm2() <= bound2:
                            end = _segment_endpoint(surface, p0, v0, W)
                            if end is not None:
                                found.add(normalized_key(p0, v0, W, end))
                    for i in range(len(poly)):
                        A = poly.vertex(i) + off
                        B = poly.vertex(i + 1) + off
                        if min_dist2(A, B, origin) > bound2:
                            continue
                        ref = EdgeRef(p, i)
                        dst = surface.gluing[ref]
                        tau = surface.crossing_translation(ref)
                        state = (dst.polygon, (off + tau).key())
                        if state not in seen:
                            seen.add(state)
                            nxt.append((dst.polygon, off + tau))
                frontier = nxt
    return found


def _walk_segment(surface, p0, v0, W):
    """Trace the segment from vertex (p0, v0) with displacement W; return
    the end corner if it is a saddle connection, else None."""
    from veechlab.planar import strictly_inside_cone

    poly = surface.polygons[p0]
    a = poly.side_vector(v0)
    b = -poly.side_vector((v0 - 1) % len(poly))
    along_edge = a.is_parallel(W) and a.dot(W).sign() > 0
    if not along_edge and not strictly_inside_cone(a, b, W):
        return None
    p, pt = p0, poly.vertex(v0)
    remaining = W
    for _ in range(100000):
        poly = surface.polygons[p]
        m = len(poly)
        best = None  # (t_num, t_den, edge, s_num, s_den)
        for i in range(m):
            A, B = poly.vertex(i), poly.vertex(i + 1)
            d = B - A
            den = remaining.cross(d)
            if den.is_zero():
                continue
            t_num = (A - pt).cross(d)
            s_num = (A - pt).cross(remaining)
            if den.sign() < 0:
                den, t_num, s_num = -den, -t_num, -s_num
            if t_num.sign() <= 0 or s_num.sign() < 0 or s_num > den:
                continue
            if best is None or t_num * best[1] < best[0] * den:
                best = (t_num, den, i, s_num)
        if best is None:
            return None
        t_num, den, i, s_num = best
        if t_num > den:  # endpoint is inside this polygon before any exit
            return None
        if t_num == den:
            end = pt + remaining
            for v in range(m):
                if poly.vertex(v) == end:
                    return (p, v)
            return None
        A = poly.vertex(i)
        d = poly.side_vector(i)
        s = s_num / den
        exit_pt = A + s * d
        if s.is_zero() or s == 1:
            return None  # hits an intermediate cone point
        travelled = exit_pt - pt
        remaining = remaining - travelled
        ref = EdgeRef(p, i)
        tau = surface.crossing_translation(ref)
        pt = exit_pt + tau
        p = surface.gluing[ref].polygon
    return None


def _segment_endpoint(surface, p0, v0, W):
    return _walk_segment(surface, p0, v0, W)


@pytest.mark.parametrize("n,bound_num", [(5, 2), (8, 1)])
def test_saddle_connections_match_brute_force(n, bound_num):
    s = build_base(n)
    bound = RealAlg.rational(4 * n, bound_num)
    fast = saddle_connections(s, bound)
    brute = _brute_force_saddle_connections(s, bound)
    fast_keys = {sc.canonical_key() for sc in fast}
    assert len(fast) == len(fast_keys)
    assert fast_keys == brute
    assert len(fast) == len(brute)


def test_saddle_connection_holonomy_length():
    s = build_base(5)
    bound = 2 * sin_pi_over(5)
    for sc in saddle_connections(s, bound):
        assert sc.length2() <= bound * bound
        assert not sc.holonomy.is_zero()
