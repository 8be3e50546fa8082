import sys

import pytest

from veechlab.covering import build_cover
from veechlab.cylinders import (
    _band_edges,
    _Tracer,
    closed_form_base,
    cylinder_count_base,
    decompose,
    unit_vector,
)
from veechlab.errors import NotVertexLevel
from veechlab.field import RealAlg, lambda_n
from veechlab.planar import Vec2
from veechlab.surface import build_base

ALL_N = [5, 7, 9, 11, 8, 10, 12]


def _pairs(cylinders):
    return sorted((c.height.key(), c.circumference.key()) for c in cylinders)


@pytest.mark.parametrize("n", ALL_N)
def test_horizontal_matches_closed_forms_exactly(n):
    s = build_base(n)
    cyls = decompose(s, unit_vector(n, 0))
    assert len(cyls) == cylinder_count_base(n)
    expected = [closed_form_base(n, i) for i in range(1, cylinder_count_base(n) + 1)]
    assert _pairs(cyls) == sorted((h.key(), l.key()) for h, l in expected)


@pytest.mark.parametrize("n", ALL_N)
def test_inverse_modulus_is_lambda_horizontally(n):
    s = build_base(n)
    lam = lambda_n(n)
    for c in decompose(s, unit_vector(n, 0)):
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
    assert len(decompose(build_base(9), unit_vector(9, 0))) == 4


def test_core_word_of_cylinder_k1():
    # the innermost horizontal cylinder describes an element of <x_k1 x_k2^-1>
    s = build_base(5)
    cyls = decompose(s, unit_vector(5, 0))
    words = {c.core_word.cyclic_normal_form() for c in cyls}
    from veechlab.words import Word

    target = Word([(2, 1), (3, -1)]).cyclic_normal_form()
    assert target in words


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_direction_covariance_odd(n):
    # the double-n-gon is R_n-symmetric: every v_l looks horizontal
    s = build_base(n)
    ref = _pairs(decompose(s, unit_vector(n, 0)))
    for l in range(1, n):
        assert _pairs(decompose(s, unit_vector(n, l))) == ref


@pytest.mark.parametrize("n", [8, 10, 12])
def test_direction_covariance_even(n):
    # the even base is only R_n^2-symmetric: covariance within each parity
    s = build_base(n)
    ref_even = _pairs(decompose(s, unit_vector(n, 0)))
    ref_odd = _pairs(decompose(s, unit_vector(n, 1)))
    for l in range(2, n):
        got = _pairs(decompose(s, unit_vector(n, l)))
        assert got == (ref_even if l % 2 == 0 else ref_odd)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_even_odd_directions_have_half_lambda_innermost(n):
    s = build_base(n)
    lam = lambda_n(n)
    for l in range(1, n, 2):
        cyls = decompose(s, unit_vector(n, l))
        halves = [c for c in cyls if c.inverse_modulus == lam / 2]
        fulls = [c for c in cyls if c.inverse_modulus == lam]
        assert len(halves) == 1
        assert len(fulls) == len(cyls) - 1
    # and even directions are all lambda
    for l in range(2, n, 2):
        for c in decompose(s, unit_vector(n, l)):
            assert c.inverse_modulus == lam


@pytest.mark.parametrize("n", [5, 7, 9])
def test_edge_membership_rule(n):
    # in the direction of edge x_i, cylinder c crosses x_{i-c} and x_{i+c}
    s = build_base(n)
    for i in range(n):
        # v_l parallel to edge x_i: l = 2i mod 2n projectively
        direction = s.polygons[0].side_vector(i)
        cyls = decompose(s, direction)
        seen = {}
        for cyl in cyls:
            crossed = {g for g, _ in cyl.core_word}
            seen[frozenset(crossed)] = cyl
        for c in range(1, (n - 1) // 2 + 1):
            expected = {(i - c) % n, (i + c) % n}
            expected.discard(n - 1)  # the unlabeled edge never appears in words
            assert frozenset(expected) in seen, (i, c)


def test_bound_exceeded_on_non_periodic_direction():
    # (1, 1) is no v_l direction of X_5: a separatrix leaves its polygon
    # through an edge, which decompose refuses, naming the corner
    s = build_base(5)
    d = Vec2(RealAlg.one(20), RealAlg.one(20))
    with pytest.raises(NotVertexLevel) as exc:
        decompose(s, d)
    p, v = exc.value.corner
    assert 0 <= p < len(s.polygons) and 0 <= v < 5
    assert "corner %d of polygon %d" % (v, p) in str(exc.value)
    assert isinstance(exc.value, ValueError)


def test_unit_vectors_turn_by_pi_over_n():
    assert unit_vector(5, 6) == -unit_vector(5, 1)  # v_(l+n) = -v_l
    assert all(unit_vector(5, l).norm2() == 1 for l in range(10))


def test_decompose_rejects_the_zero_vector():
    zero = RealAlg.zero(20)
    with pytest.raises(ValueError):
        decompose(build_base(5), Vec2(zero, zero))


# ---------------------------------------------------------------------------
# the rank-based tracer predicates against the exact ones they replaced


def _in_closed_small_arc(u: Vec2, v: Vec2, w: Vec2) -> bool:
    # closed CCW arc from u to v of angle < pi
    cu = u.cross(w).sign()
    if cu == 0:
        return u.dot(w).sign() > 0
    cv = w.cross(v).sign()
    if cv == 0:
        return v.dot(w).sign() > 0
    return cu > 0 and cv > 0


def _strictly_inside_cone(a, b, w):
    """Whether direction w points strictly inside the CCW cone from a to b."""
    caw = a.cross(w).sign()
    if caw == 0 and a.dot(w).sign() > 0:
        return False  # along boundary ray a
    cwb = w.cross(b).sign()
    if cwb == 0 and w.dot(b).sign() > 0:
        return False  # along boundary ray b
    cab = a.cross(b).sign()
    if cab == 0:
        if a.dot(b).sign() > 0:
            raise ValueError("degenerate cone")
        return caw > 0  # cone of angle exactly pi
    if cab > 0:
        return caw > 0 and cwb > 0
    # cone larger than pi: complement is the closed CCW arc from b to a
    return not _in_closed_small_arc(b, a, w)


def _midline_band_edges(hs, lo, hi):
    """(left, right) edges crossed by the doubled midline lo + hi."""
    m = len(hs)
    mid2 = lo + hi
    left = right = None
    for i in range(m):
        sa = (2 * hs[i] - mid2).sign()
        sb = (2 * hs[(i + 1) % m] - mid2).sign()
        if sa < 0 and sb > 0:
            right = i
        elif sa > 0 and sb < 0:
            left = i
    return left, right


def _check_rank_predicates(surface, w):
    """Compare corner entry and both band edges with their exact oracles,
    and check that every entering germ's chord ends at a vertex of
    exactly its start's level (NotVertexLevel where none does)."""
    tracer = _Tracer(surface, w)
    for p, poly in enumerate(surface.polygons):
        for v in range(len(poly)):
            a, b = poly.side_vector(v), -poly.side_vector(v - 1)
            for forward in (True, False):
                expected = _strictly_inside_cone(a, b, w if forward else -w)
                assert tracer.enters(p, v, forward) == expected, (p, v, forward)
    for p, hs in enumerate(tracer.h):
        levels = sorted({h.key(): h for h in hs}.values())
        left, right = _band_edges(tracer.rank[p], len(levels) - 1)
        for k in range(len(levels) - 1):
            assert (left[k], right[k]) == _midline_band_edges(hs, levels[k], levels[k + 1])
    for p, poly in enumerate(surface.polygons):
        for v in range(len(poly)):
            if tracer.enters(p, v, True) or tracer.enters(p, v, False):
                end = tracer.exit_from(p, v)
                assert end != v and w.cross(poly.vertex(end)) == w.cross(poly.vertex(v)), (p, v)


@pytest.mark.parametrize("n", [5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16])
def test_rank_predicates_match_exact_ones_on_x_n(n):
    s = build_base(n)
    for l in range(2 * n):
        _check_rank_predicates(s, unit_vector(n, l))
    # a sheared v_1: some separatrix leaves its polygon through an edge
    v = unit_vector(n, 1)
    with pytest.raises(NotVertexLevel):
        _check_rank_predicates(s, Vec2(v.x + lambda_n(n) * v.y, v.y))


def test_every_separatrix_in_a_v_l_direction_is_one_chord():
    # on X_n every germ that enters a polygon in a direction v_l ends
    # after one segment, at a vertex of the polygon it entered, as the
    # reflection argument of decompose's docstring shows: no CLI command
    # raises NotVertexLevel (only sheared and non-periodic directions do)
    for n in range(5, 32):
        if n == 6:
            continue
        s = build_base(n)
        for l in range(2 * n):
            tracer = _Tracer(s, unit_vector(n, l))
            for p, poly in enumerate(s.polygons):
                for v in range(len(poly)):
                    for forward in (True, False):
                        if tracer.enters(p, v, forward):
                            end_p, end_v = tracer.trace_germ(p, v, forward)
                            assert end_p == p and end_v != v, (n, l, p, v, forward)


@pytest.mark.parametrize("n", [5, 7, 8, 9, 10, 12])
def test_sheared_directions_assemble_bands_at_traced_levels(n):
    # T_n = [[1, lambda_n], [0, 1]] lies in the Veech group of X_n, so
    # X_n is periodic in direction T_n v_l, but some separatrix there
    # crosses an edge: decompose refuses it, naming a corner
    s = build_base(n)
    lam = lambda_n(n)
    for l in (1, 2, 3):
        v = unit_vector(n, l)
        w = Vec2(v.x + lam * v.y, v.y)
        with pytest.raises(NotVertexLevel) as exc:
            decompose(s, w)
        # the named corner's germ enters its polygon, and no other vertex
        # lies exactly at its level
        p, corner = exc.value.corner
        poly = s.polygons[p]
        tracer = _Tracer(s, w)
        assert tracer.enters(p, corner, True) or tracer.enters(p, corner, False), l
        level = w.cross(poly.vertex(corner))
        assert all(w.cross(poly.vertex(i)) != level for i in range(len(poly)) if i != corner), l


def test_rank_predicates_match_exact_ones_on_a_realized_cover():
    cover = build_cover(9, 3)
    for l in range(18):
        _check_rank_predicates(cover.surface, unit_vector(9, l))


def test_base_trace_makes_few_sign_calls(monkeypatch):
    # one sign per vertex and band, or per vertex and traced level, made
    # 2604 sign calls here, and the ranks with an exact walk along each
    # chord 68; reading each chord's end off the ranks leaves the 24
    # comparisons that sort the vertex levels
    s = build_base(25)
    direction = unit_vector(25, 0)
    calls = []
    sign = RealAlg.sign

    def counting(self):
        calls.append(self)
        return sign(self)

    monkeypatch.setattr(RealAlg, "sign", counting)
    decompose(s, direction)
    assert len(calls) <= 30


@pytest.mark.parametrize("n", [8, 9, 16, 25])
def test_equal_moduli_take_at_most_two_inverses_per_trace(monkeypatch, n):
    # the cylinders of a v_l direction of X_n share at most two inverse
    # moduli; decompose divides for a new one only (one per cylinder
    # made 12 inverses at n = 25)
    from veechlab import cylinders, field

    callers = []
    inverse = field._inverse

    def counting(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_filename != cylinders.__file__:
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return inverse(*args)

    monkeypatch.setattr(field, "_inverse", counting)
    s = build_base(n)
    for l in range(n):
        callers.clear()
        cyls = decompose(s, unit_vector(n, l))
        assert callers.count("decompose") <= 2, (n, l)
        for c in cyls:
            assert c.inverse_modulus * c.height == c.circumference
