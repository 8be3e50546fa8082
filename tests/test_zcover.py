import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from veechlab.certificates import sigma_T_claim
from veechlab.covering import build_cover, monodromy_indices, standard_monodromy
from veechlab.errors import NonChainError
from veechlab.words import Word
from veechlab.zcover import (
    ZMonodromy,
    ZPermutation,
    holonomy,
    infinite_singularities,
    sigma_T_infinite,
    singularity_loops,
    std_infinite_monodromy,
    y2_basis,
    z_cover_structure,
)

from oracles import traced_singularity_loops

shifts = st.integers(-6, 6)


def valid_zperm(te, to):
    return (te - to) % 2 == 0


zperms = st.tuples(shifts, shifts).filter(lambda p: valid_zperm(*p)).map(
    lambda p: ZPermutation(*p)
)


@settings(max_examples=100, deadline=None)
@given(zperms, zperms, st.integers(-100, 100))
def test_compose_matches_pointwise(a, b, l):
    assert a.compose(b)(l) == a(b(l))


@settings(max_examples=100, deadline=None)
@given(zperms, zperms, zperms)
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=100, deadline=None)
@given(zperms, st.integers(-50, 50))
def test_inverse(a, l):
    assert a.inverse()(a(l)) == l
    assert a.compose(a.inverse()).is_identity()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_word_equals_the_letter_by_letter_product(data):
    # two monodromies in turn on the same words: each answers from its
    # own memo, which skips the letters of fixed generators
    num = 4
    letters = st.tuples(st.integers(0, num - 1), st.sampled_from([1, -1]))
    words = [Word(w) for w in data.draw(st.lists(st.lists(letters, max_size=8), max_size=6))]
    monodromies = [ZMonodromy(num, data.draw(st.dictionaries(st.integers(0, num - 1), zperms)))
                   for _ in range(2)]
    for w in words + words:
        for zm in monodromies:
            want = ZPermutation.identity()
            for g, sgn in w:
                p = zm.image(g)
                want = (p if sgn > 0 else p.inverse()).compose(want)
            assert zm.eval_word(w) == want


def test_parity_consistency_enforced():
    with pytest.raises(ValueError):
        ZPermutation(1, 2)
    with pytest.raises(ValueError, match="parity"):
        ZPermutation(t_even=0, t_odd=-1)


@pytest.mark.parametrize("image", [None, (1, 0), {"t_even": 1, "t_odd": -1}])
def test_a_z_monodromy_image_must_be_a_z_permutation(image):
    # as Monodromy refuses a list that is no permutation, naming the generator
    with pytest.raises(ValueError, match="image of x_4 is not a ZPermutation"):
        ZMonodromy(8, {4: image})


def _window_orbits(zp, span=300):
    """Union-find oracle: the orbits of a parity-affine map seen in a
    window, as {length: count} with length 0 for an infinite orbit.

    In-window orbit traces are connected (steps are short).  A component
    that the map keeps inside the window is a finite orbit; one that
    leaves it is an infinite orbit if it has more than 20 points, else a
    finite orbit cut by the window's edge, and not counted.
    """
    parent = {l: l for l in range(-span, span + 1)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for l in range(-span, span + 1):
        t = zp(l)
        if -span <= t <= span:
            a, b = find(l), find(t)
            if a != b:
                parent[max(a, b)] = min(a, b)
    components = {}
    for l in parent:
        components.setdefault(find(l), []).append(l)
    seen = {}
    for points in components.values():
        if all(-span <= zp(l) <= span for l in points):
            length = len(points)
        elif len(points) > 20:
            length = 0
        else:
            continue
        seen[length] = seen.get(length, 0) + 1
    return seen


def test_orbits_against_window_enumeration():
    cases = [ZPermutation(0, 0), ZPermutation(2, -2), ZPermutation(4, -4), ZPermutation(-2, 2),
             ZPermutation(6, -2), ZPermutation(2, 4), ZPermutation(1, 1), ZPermutation(1, 3),
             ZPermutation(1, -1), ZPermutation(-3, 3), ZPermutation(3, 5),
             # one parity class fixed, the other shifted
             ZPermutation(0, 2), ZPermutation(4, 0), ZPermutation(0, -6)]
    for zp in cases:
        expected = {}
        for length, count in zp.orbits():
            before = expected.get(length, 0)
            expected[length] = None if None in (before, count) else before + count
        seen = _window_orbits(zp)
        assert seen.keys() == expected.keys(), zp
        for length, count in expected.items():
            if count is None:
                assert seen[length] > 50, zp  # the window sees unboundedly many
            else:
                assert seen[length] == count, zp
    assert ZPermutation(0, 2).orbits() == ((1, None), (0, 1))
    assert ZPermutation(-3, 3).orbits() == ((2, None),)


def test_std_monodromy_shifts():
    for n in (5, 8, 10):
        zm = std_infinite_monodromy(n)
        k1, k2 = monodromy_indices(n)
        assert zm.image(k1) == ZPermutation(1, -1)
        assert zm.image(k2) == ZPermutation(-1, 1)
        assert zm.image(k1).inverse() == zm.image(k1)
        w = Word.generator(k1) * Word.generator(k2).inverse()
        assert zm.eval_word(w) == ZPermutation(2, -2)


def _reduced(z: ZPermutation, d: int) -> tuple:
    # where z sends each sheet l < d of Y_{n,inf}, read on Y_{n,d}: modulo
    # d for even d; for odd d modulo 2d, folding m >= d to 2d - 1 - m
    def fold(m):
        if d % 2 == 0:
            return m % d
        m %= 2 * d
        return m if m < d else 2 * d - 1 - m
    return tuple(fold(z(l)) for l in range(d))


@pytest.mark.parametrize("n", [9, 14])
def test_the_finite_family_reduces_the_infinite_one(n):
    # Y_{n,d} is a quotient of Y_{n,inf}: sigma_{d,1}, sigma_{d,2} and,
    # for even d, sigma_T are the parity-affine images reduced to d sheets
    zm = std_infinite_monodromy(n)
    k1, k2 = monodromy_indices(n)
    for d in range(2, 14):
        m = standard_monodromy(n, d)
        assert m.image(k1) == _reduced(zm.image(k1), d), d
        assert m.image(k2) == _reduced(zm.image(k2), d), d
        if d % 2 == 0:
            assert sigma_T_claim(d) == _reduced(sigma_T_infinite(), d), d
    # the claim of degree inf is sigma_T itself
    assert sigma_T_claim("inf") == sigma_T_infinite()


def test_cylinder_k_has_two_infinite_preimages():
    for n in (5, 8, 10):
        zm = std_infinite_monodromy(n)
        k1, k2 = monodromy_indices(n)
        w = Word.generator(k1) * Word.generator(k2).inverse()
        assert zm.cycle_type(w) == ((0, 1), (0, 1))


def test_singularity_loop_monodromy():
    # odd n and n = 0 mod 4: one loop, shift +-4; n = 2 mod 4: two loops +-2
    for n in (5, 8):
        loops = singularity_loops(n)
        assert len(loops) == 1
        zm = std_infinite_monodromy(n)
        img = zm.eval_word(loops[0])
        assert img in (ZPermutation(4, -4), ZPermutation(-4, 4))
    loops10 = singularity_loops(10)
    assert len(loops10) == 2
    zm = std_infinite_monodromy(10)
    for loop in loops10:
        assert zm.eval_word(loop) in (ZPermutation(2, -2), ZPermutation(-2, 2))


@pytest.mark.parametrize("n", [n for n in range(5, 62) if n != 6] + [101, 401])
def test_singularity_loops_are_the_corner_walks(n):
    assert singularity_loops(n) == traced_singularity_loops(n)


@pytest.mark.parametrize("n", [-1, 0, 4, 6])
def test_singularity_loops_need_a_base_surface(n):
    with pytest.raises(ValueError):
        singularity_loops(n)


def test_a_cold_infinite_report_builds_no_surface_and_no_field():
    # the report is integer arithmetic on words: no X_n, no FieldContext
    probe = ("import contextlib, io\n"
             "from veechlab import cli, field, surface\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert cli.main(['infinite', '--n', '101']) == 0\n"
             "print(surface.build_base.cache_info().currsize, "
             "field.get_context.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["0", "0"]


@pytest.mark.parametrize("n", [5, 7, 8, 10, 12])
def test_infinite_singularities_count(n):
    assert infinite_singularities(n) == 4


@pytest.mark.parametrize("n", [5, 7, 8, 10])
def test_z_cover_structure(n):
    report = z_cover_structure(n)
    assert report["deck_group"] == "Z"
    names = [e["word"] for e in report["basis_images"]]
    assert "x_k1^2" in names
    num = n - 1 if n % 2 else n // 2
    assert len(names) == 3 + 2 * (num - 2)


def test_z_cover_shift_composition_is_identity():
    for n in (5, 8):
        zm = std_infinite_monodromy(n)
        words = dict(y2_basis(n))
        composite = words["x_k1 x_k2"] * words["x_k2 x_k1^-1"]
        assert zm.eval_word(composite).is_identity()


def test_sigma_T_infinite_conditions():
    for n in (5, 8, 10):
        zm = std_infinite_monodromy(n)
        k1, k2 = monodromy_indices(n)
        suc = zm.eval_word(Word.generator(k1) * Word.generator(k2).inverse())
        st_ = sigma_T_infinite()
        assert st_.compose(suc) == suc.compose(st_)
        assert zm.image(k1).compose(st_) == st_.compose(zm.image(k2))


def test_holonomy_zero_class():
    cover = build_cover(8, 2)
    k1, k2 = monodromy_indices(8)
    w = [(0, 0, k2, 1), (1, 0, k2, -1)]
    assert holonomy(cover, w).is_zero()


def test_holonomy_single_edge_nonzero():
    cover = build_cover(8, 2)
    k1, k2 = monodromy_indices(8)
    vec = holonomy(cover, [(0, 0, k2, 1)])
    assert not vec.is_zero()
    assert vec == cover.base.polygons[0].side_vector(k2)


def test_holonomy_forward_backward_cancels():
    cover = build_cover(5, 2)
    assert holonomy(cover, [(0, 0, 0, 1), (0, 0, 0, -1)]).is_zero()


def test_holonomy_rejects_bad_chains():
    cover = build_cover(5, 2)
    with pytest.raises(NonChainError):
        holonomy(cover, [(0, 0, 0, 2)])
    with pytest.raises(NonChainError):
        holonomy(cover, [(7, 0, 0, 1)])
    with pytest.raises(NonChainError):
        holonomy(cover, [])
    with pytest.raises(NonChainError):
        holonomy(cover, [(0, 0)])
