import sys

import pytest
from hypothesis import given, settings, strategies as st

from veechlab import cli, covering, perms
from veechlab.certificates import mutated_monodromy, verify_theorem
from veechlab.covering import (
    base_decomposition,
    build_cover,
    cover_cylinders,
    monodromy_indices,
    num_generators,
    rotation_class,
    rotation_images,
    sigma_d1,
    sigma_d2,
    standard_monodromy,
    Monodromy,
)
from veechlab.cylinders import decompose, unit_vector
from veechlab.errors import IntransitiveMonodromy
from veechlab.field import lambda_n
from veechlab.surface import TranslationSurface, build_base
from veechlab.words import Word
from veechlab.zcover import ZMonodromy, ZPermutation


def core_cycle_form(d: int) -> tuple:
    """Closed-form cycle structure of m(x_k1 x_k2^-1)."""
    if d % 2 == 0:
        evens = tuple(range(0, d, 2))
        odds = (1,) + tuple(range(d - 1, 2, -2))
        return perms.from_cycles(d, [evens, odds])
    cyc = tuple(range(0, d, 2)) + tuple(range(d - 2, 0, -2))
    return perms.from_cycles(d, [cyc])


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("d", range(2, 9))
def test_monodromy_of_core_word_matches_closed_cycle_form(n, d):
    m = standard_monodromy(n, d)
    k1, k2 = monodromy_indices(n)
    w = Word.generator(k1) * Word.generator(k2).inverse()
    assert m.eval_word(w) == core_cycle_form(d)


def test_standard_monodromy_examples():
    m = standard_monodromy(5, 4)
    assert monodromy_indices(5) == (2, 3)
    assert m.image(2) == perms.from_cycles(4, [(0, 1), (2, 3)])
    assert m.image(3) == perms.from_cycles(4, [(1, 2), (3, 0)])
    m5 = standard_monodromy(5, 5)
    assert m5.image(2) == perms.from_cycles(5, [(0, 1), (2, 3)])
    assert m5.image(3) == perms.from_cycles(5, [(1, 2), (3, 4)])
    assert monodromy_indices(8) == (1, 2)


@pytest.mark.parametrize(
    "n,k1,k2", [(5, 2, 3), (7, 3, 4), (9, 4, 5), (8, 1, 2), (12, 2, 3), (10, 1, 3), (14, 2, 4)]
)
def test_monodromy_indices(n, k1, k2):
    assert monodromy_indices(n) == (k1, k2)


def test_eval_word_empty_is_identity():
    m = standard_monodromy(5, 5)
    assert m.eval_word(Word()) == perms.identity(5)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eval_word_is_anti_homomorphism(data):
    n = data.draw(st.sampled_from([5, 8]))
    d = data.draw(st.integers(2, 7))
    m = standard_monodromy(n, d)
    num = n - 1 if n % 2 else n // 2
    letters = st.tuples(st.integers(0, num - 1), st.sampled_from([1, -1]))
    w1 = Word(data.draw(st.lists(letters, max_size=6)))
    w2 = Word(data.draw(st.lists(letters, max_size=6)))
    lhs = m.eval_word(w1 * w2)
    rhs = perms.compose(m.eval_word(w1), m.eval_word(w2))
    assert lhs == rhs


def _letter_by_letter(m: Monodromy, w: Word) -> tuple:
    """m(w) as the product of every letter's image, in path order."""
    cur = perms.identity(m.degree)
    for g, sgn in w:
        p = m.image(g)
        cur = perms.compose(cur, p if sgn > 0 else perms.inverse(p))
    return cur


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_eval_word_equals_the_letter_by_letter_product(data):
    n = data.draw(st.sampled_from([5, 7, 8, 12]), label="n")
    d = data.draw(st.integers(1, 6), label="d")
    num = num_generators(n)
    images = {}
    for i in range(num):
        # no image given, the identity given, or a random permutation
        kind = data.draw(st.sampled_from(["none", "identity", "random"]), label="x_%d" % i)
        if kind == "identity":
            images[i] = perms.identity(d)
        elif kind == "random":
            images[i] = tuple(data.draw(st.permutations(range(d))))
    m = Monodromy(num, d, images)
    letters = st.tuples(st.integers(0, num - 1), st.sampled_from([1, -1]))
    w = Word(data.draw(st.lists(letters, max_size=20), label="word"))
    assert m.eval_word(w) == _letter_by_letter(m, w)
    # only letters whose generator moves a sheet are composed
    composed = []
    compose = perms.compose
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perms, "compose", lambda a, b: composed.append(1) or compose(a, b))
        m.eval_word(w)
    assert len(composed) == sum(m.image(g) != perms.identity(d) for g, _ in w)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cycle_type_equals_the_cycles_of_the_image(data):
    n = data.draw(st.sampled_from([5, 7, 8, 12]), label="n")
    d = data.draw(st.integers(1, 6), label="d")
    num = num_generators(n)
    images = {i: tuple(data.draw(st.permutations(range(d)))) for i in range(num)
              if data.draw(st.booleans())}
    m = Monodromy(num, d, images)
    letters = st.tuples(st.integers(0, num - 1), st.sampled_from([1, -1]))
    words = [Word(ls) for ls in data.draw(st.lists(st.lists(letters, max_size=12), max_size=8))]
    # repeated words, and words made of another's moving letters, read
    # the memo
    words += words + [Word(l for l in w if m.image(l[0]) != perms.identity(d)) for w in words]
    for w in data.draw(st.permutations(words)):
        lengths = [a for a, count in m.cycle_type(w) for _ in range(count)]
        assert lengths == [len(c) for c in perms.cycles(m.eval_word(w))], w.letters


def test_build_cover_counts():
    assert len(build_cover(5, 2).surface.polygons) == 4
    assert len(build_cover(8, 3).surface.polygons) == 3


def test_cover_genus_y52_two_routes():
    cover = build_cover(5, 2)
    # route 1: Euler characteristic of the realized complex
    assert cover.surface.genus() == 3
    # route 2: Riemann-Hurwitz with trivial singularity-loop monodromy
    from veechlab.zcover import singularity_loops

    loop = singularity_loops(5)[0]
    image = cover.monodromy.eval_word(loop)
    assert image == perms.identity(2)
    chi_base = 2 - 2 * build_cover(5, 2).base.genus()
    chi_cover = 2 * chi_base - sum(len(c) - 1 for c in perms.cycles(image))
    assert (2 - chi_cover) // 2 == 3


def test_copies_connected_only_through_marked_edges():
    cover = build_cover(7, 4)
    k1, k2 = monodromy_indices(7)
    nb = len(cover.base.polygons)
    for src, dst in cover.surface.gluing.items():
        label = cover.surface.generator_labels.get(src)
        if label is None or label[0] not in (k1, k2):
            assert src.polygon // nb == dst.polygon // nb
    # and the marked edges do change copies for a nontrivial permutation
    moved = 0
    for src, dst in cover.surface.gluing.items():
        label = cover.surface.generator_labels.get(src)
        if label is not None and label[0] in (k1, k2):
            moved += src.polygon // nb != dst.polygon // nb
    assert moved > 0


def test_degree_of_projection():
    for (n, d) in [(5, 3), (8, 4)]:
        cover = build_cover(n, d)
        assert len(cover.surface.polygons) == d * len(cover.base.polygons)
        well_formed = verify_theorem(n, d).payload["subcertificates"][0]
        assert well_formed["kind"] == "WellFormedCover"
        assert well_formed["payload"] == {}  # its evidence is the images section
        cover.surface.validate()


@pytest.mark.parametrize("n,d", [(7, 4), (8, 6)])
def test_certified_paths_never_realize_the_cover(n, d, monkeypatch, capsys):
    # the base is validated once when built; a cover is its monodromy
    build_base(n)
    validated = []
    original = TranslationSurface.validate

    def counting_validate(surface):
        validated.append(len(surface.polygons))
        return original(surface)

    monkeypatch.setattr(TranslationSurface, "validate", counting_validate)
    assert verify_theorem(n, d).verdict == "pass"
    assert verify_theorem(n, d, monodromy=mutated_monodromy(n, d)).verdict == "fail"
    assert cli.main(["cover", "--n", str(n), "--d", str(d)]) == 0
    assert cli.main(["cylinders", "--n", str(n), "--d", str(d), "--direction", "1"]) == 0
    capsys.readouterr()
    assert validated == []


def test_intransitive_monodromy_rejected():
    m = Monodromy(4, 3, {})  # all generators trivial
    with pytest.raises(IntransitiveMonodromy):
        build_cover(5, 3, m)


def test_monodromy_rejects_an_image_for_a_missing_generator():
    with pytest.raises(ValueError, match="x_4"):
        Monodromy(4, 2, {4: (1, 0)})
    with pytest.raises(ValueError, match="x_2"):
        ZMonodromy(2, {2: ZPermutation(1, -1)})


def test_too_few_generators_are_rejected_before_verifying():
    # X_5 has generators x_0..x_3; x_2 and x_3 do not fit two generators
    with pytest.raises(ValueError, match="x_2"):
        verify_theorem(5, 4, monodromy=Monodromy(2, 4, {2: sigma_d1(4), 3: sigma_d2(4)}))


def test_build_cover_rejects_a_generator_count_mismatch():
    # X_5 has no generator x_5, X_8 has four generators
    extra = Monodromy(6, 4, {2: sigma_d1(4), 3: sigma_d2(4), 5: sigma_d1(4)})
    for bad in (lambda: build_cover(5, 4, extra), lambda: verify_theorem(5, 4, monodromy=extra)):
        with pytest.raises(ValueError, match="6 generators, X_5 has 4"):
            bad()
    short = Monodromy(3, 4, {1: sigma_d1(4), 2: sigma_d2(4)})
    with pytest.raises(ValueError, match="3 generators, X_8 has 4"):
        build_cover(8, 4, short)


def test_build_cover_does_not_build_the_base():
    # the generator count and the existence of X_n follow from n alone
    build_base.cache_clear()
    assert build_cover(7, 3, standard_monodromy(7, 3)).d == 3
    assert build_base.cache_info().currsize == 0
    for n in (4, 6):
        with pytest.raises(ValueError, match="n >= 5, n != 6"):
            build_cover(n, 3)


def test_cover_moduli_examples():
    lam = lambda_n(5)
    mods54 = sorted(
        (c.inverse_modulus / lam).as_rational() for c in cover_cylinders(build_cover(5, 4), 0)
    )
    assert mods54 == [1, 1, 1, 1, 2, 2]
    mods55 = sorted(
        (c.inverse_modulus / lam).as_rational() for c in cover_cylinders(build_cover(5, 5), 0)
    )
    assert mods55 == [1, 1, 1, 1, 1, 5]
    for c in cover_cylinders(build_cover(5, 3), 1):
        assert (c.inverse_modulus / lam).as_rational() in (1, 2)


def _pairs(cyls):
    return sorted((c.height.key(), c.circumference.key()) for c in cyls)


@pytest.mark.parametrize("n", [5, 7, 8, 10])
@pytest.mark.parametrize("d", range(2, 7))
def test_cycle_prediction_equals_direct_decomposition(n, d):
    cover = build_cover(n, d)
    for l in range(n):
        predicted = _pairs(cover_cylinders(cover, l))
        direct = _pairs(decompose(cover.surface, unit_vector(n, l)))
        assert predicted == direct, (n, d, l)


def test_cover_json_descriptor():
    data = build_cover(5, 4).to_json()
    assert data["n"] == 5 and data["d"] == 4
    assert data["k1"] == 2 and data["k2"] == 3
    assert data["sigma1"] == [(0, 1), (2, 3)]
    assert data["sigma2"] == [(0, 3), (1, 2)]


def test_sigma_factories():
    assert sigma_d1(6) == perms.from_cycles(6, [(0, 1), (2, 3), (4, 5)])
    assert sigma_d1(7) == perms.from_cycles(7, [(0, 1), (2, 3), (4, 5)])
    assert sigma_d2(6) == perms.from_cycles(6, [(1, 2), (3, 4), (5, 0)])
    assert sigma_d2(7) == perms.from_cycles(7, [(1, 2), (3, 4), (5, 6)])
    for d in range(2, 9):
        assert perms.inverse(sigma_d1(d)) == sigma_d1(d)
        assert perms.inverse(sigma_d2(d)) == sigma_d2(d)


@pytest.mark.parametrize("n", [5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 25])
def test_rotation_images_carry_core_words_to_traced_ones(n):
    # base_decomposition traces only v_r and reads every other v_l as the
    # rho^j image of its words; the tracer run in v_l itself must give the
    # same cylinders and core words, in the same order
    surface = build_base(n)
    for l in range(-n, 2 * n + 1):
        r, j = rotation_class(n, l)
        assert l == r + (j if n % 2 else 2 * j)
        derived = base_decomposition(n, l)
        traced = decompose(surface, unit_vector(n, l))
        assert [c.to_json() for c in derived] == [c.to_json() for c in traced], (n, l)
        assert [(c.height, c.inverse_modulus) for c in derived] == [
            (c.height, c.inverse_modulus) for c in traced
        ]


@pytest.mark.parametrize("n", range(5, 62, 2))
def test_traced_v0_meets_the_minus_identity_hypotheses(n):
    # base_decomposition reads the odd-j words of odd n off the traced v_0
    # through R^n = -I; that needs distinct heights, one band in P (listed
    # first) and one in Q per cylinder, and core words of at most two letters
    cyls = base_decomposition(n, 0)
    assert len({c.height.key() for c in cyls}) == len(cyls)
    for c in cyls:
        assert [band[0] for band in c.bands] == [0, 1], (n, c.bands)
        assert len(c.core_word) <= 2


@pytest.mark.parametrize("n", [n for n in range(5, 32) if n != 6] + [40, 41])
def test_base_table_has_distinct_heights_ratios_2_or_4_and_short_words(n):
    # the facts that a closed-form base table and integer lift types rest
    # on, in every v_l: no two cylinders share a height; 2 lambda_n over
    # the inverse modulus is 2, but 4 for one cylinder when n is even and
    # l odd; a core word has one or two letters, of opposite signs for odd
    # n and in v_0 and v_1
    factor = 2 * lambda_n(n)
    for l in range(2 * n):
        cyls = base_decomposition(n, l)
        assert len({c.height.key() for c in cyls}) == len(cyls), (n, l)
        ratios = sorted(factor / c.inverse_modulus for c in cyls)
        fours = 1 if n % 2 == 0 and l % 2 else 0
        assert ratios == [2] * (len(cyls) - fours) + [4] * fours, (n, l)
        for c in cyls:
            letters = c.core_word.letters
            assert len(letters) in (1, 2), (n, l, c.core_word)
            if len(letters) == 2 and (n % 2 or l < 2):
                assert letters[0][1] == -letters[1][1], (n, l, c.core_word)


@pytest.mark.parametrize("n", range(5, 62, 2))
def test_odd_n_lifts_follow_their_closed_form(n):
    # under standard_monodromy, with c = (n - 3)/2 and j = floor(l/2), v_l
    # moves cylinder c - j through x_k1 and cylinder c - j + 1 through
    # x_k2, wherever those indices exist (l >= 1); in v_0 both generators
    # lie in cylinder c
    k1, k2 = monodromy_indices(n)
    assert {*standard_monodromy(n, 3)._moving} == {k1, k2}
    c = (n - 3) // 2
    for l in range(n):
        cyls = base_decomposition(n, l)
        holding = [{i for i, cyl in enumerate(cyls) if any(g == k for g, _ in cyl.core_word)}
                   for k in (k1, k2)]
        want = [{c}, {c}] if l == 0 else [{i} & {*range(len(cyls))}
                                          for i in (c - l // 2, c - l // 2 + 1)]
        assert holding == want, (n, l)


@pytest.mark.parametrize("n", range(8, 61, 2))
def test_even_n_lifts_follow_their_closed_form(n):
    # under standard_monodromy, the cylinder of v_l whose core word holds
    # x_k1, and the one that holds x_k2, by n mod 4; none where the index
    # is negative
    k1, k2 = monodromy_indices(n)
    assert {*standard_monodromy(n, 3)._moving} == {k1, k2}
    for l in range(n):
        if n % 4 == 0:
            want = (min(l // 2, (n - 2 - l) // 2),
                    0 if l == 0 else min((l - 2) // 2, (n - l) // 2))
        else:
            want = (0 if l == n - 1 else min((l + 1) // 2, (n - 3 - l) // 2),
                    0 if l < 2 else min((l - 3) // 2, (n + 1 - l) // 2))
        cyls = base_decomposition(n, l)
        holding = [{i for i, cyl in enumerate(cyls) if any(g == k for g, _ in cyl.core_word)}
                   for k in (k1, k2)]
        assert holding == [{i} if i >= 0 else set() for i in want], (n, l)


def test_odd_n_reads_the_v0_words_from_q_once(monkeypatch):
    # every odd-j direction of odd n derives from v_1, the one direction
    # that reads v_0's core words from Q, each rotated by a letter: the
    # only step that changes a cylinder's word and keeps its traced bands
    n = 25
    covering._base_decomposition.cache_clear()
    v0 = base_decomposition(n, 0)
    cylinder = type(v0[0])
    replace, rotated = cylinder._replace, []

    def counting(self, **changes):
        if "bands" not in changes:
            rotated.append(self)
        return replace(self, **changes)

    monkeypatch.setattr(cylinder, "_replace", counting)
    for l in range(1, n):
        base_decomposition(n, l)
    assert len(v0) == 12
    assert sorted(map(id, rotated)) == sorted(map(id, v0))


@pytest.mark.parametrize("n", [9, 16, 25])
def test_a_derived_direction_inverts_each_rotation_image_at_most_once(monkeypatch, n):
    # each generator occurs in at most one core word of a direction, so
    # substitute inverts each of rho^j's images at most once per direction
    # with no memo of inverses
    for r in range(1 if n % 2 else 2):
        base_decomposition(n, r)  # the traced sources
    inverted = []
    inverse = Word.inverse
    monkeypatch.setattr(Word, "inverse", lambda w: inverted.append(w.letters) or inverse(w))
    for l in range(1 if n % 2 else 2, n):
        inverted.clear()
        covering._base_decomposition.__wrapped__(n, l)
        assert 0 < len(inverted) == len({*inverted}) <= num_generators(n), l


def test_substitute_freely_reduces():
    x = Word.generator
    images = [x(1) * x(2).inverse(), x(2), x(0).inverse()]
    assert (x(0) * x(1)).substitute(images) == x(1)
    assert (x(1) * x(0).inverse()).substitute(images) == x(2) * x(2) * x(1).inverse()
    conjugate = x(0) * x(1) * x(2) * x(1).inverse() * x(0).inverse()
    assert conjugate.substitute(images) == x(1) * x(0).inverse() * x(1).inverse()
    assert (x(0) * x(0).inverse()).substitute(images) == Word()
    assert Word().substitute(images) == Word()


@pytest.mark.parametrize("n", [5, 7, 8, 9, 16])
def test_rotation_images_are_reduced_words_of_the_generators(n):
    num = num_generators(n)
    assert rotation_images(n, 0) == [Word.generator(i) for i in range(num)]
    for j in range(2 * n):
        images = rotation_images(n, j)
        assert len(images) == num
        for w in images:
            assert 1 <= len(w) <= (2 if n % 2 else 1)
            assert w.substitute([Word.generator(i) for i in range(num)]) == w
    if n % 2 == 0:
        # the base point is the centre, fixed by rho: rho^j is the j-th
        # power of the one-step substitution, and rho^n is the identity
        step = rotation_images(n, 1)
        current = rotation_images(n, 0)
        for j in range(1, n + 1):
            current = [w.substitute(step) for w in current]
            assert current == rotation_images(n, j % n)


@pytest.mark.parametrize("n", [9, 16, 25])
def test_rotation_images_make_their_letters_unchecked(monkeypatch, n):
    # rotation_images makes every letter itself, so it builds its words
    # with Word._of and not through Word.__init__'s check; the letters are
    # (generator, +-1) tuples all the same
    made = []
    init = Word.__init__
    monkeypatch.setattr(Word, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    for j in range(2 * n):
        for w in rotation_images(n, j):
            assert all(type(x) is tuple and x[1] in (1, -1) for x in w.letters), (j, w)
    assert made == []


@pytest.mark.parametrize("n", [9, 25])
def test_odd_rotations_make_their_core_words_unchecked(monkeypatch, n):
    # an odd-j direction of odd n reads the traced v_0 words from Q, each
    # rotated by one letter: letters that a Word already checked, so the
    # derived table builds no word through Word.__init__
    covering._base_decomposition.cache_clear()
    base_decomposition(n, 0)
    made = []
    init = Word.__init__
    monkeypatch.setattr(Word, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    for l in range(1, n, 2):
        assert base_decomposition(n, l)
    assert made == []


@pytest.mark.parametrize("n,traced", [(9, 1), (12, 2)])
def test_every_reader_of_v_l_traces_only_the_rotation_classes(monkeypatch, capsys, n, traced):
    covering._base_decomposition.cache_clear()
    directions = []

    def counting(surface, direction):
        directions.append(direction)
        return decompose(surface, direction)

    for name, module in list(sys.modules.items()):
        if name.startswith("veechlab") and getattr(module, "decompose", None) is decompose:
            monkeypatch.setattr(module, "decompose", counting)
    cover = build_cover(n, 3)
    for l in range(n):
        base_decomposition(n, l)
        cover_cylinders(cover, l)
        assert cli.main(["cylinders", "--n", str(n), "--direction", str(l)]) == 0
        assert cli.main(["cylinders", "--n", str(n), "--d", "3", "--direction", str(l)]) == 0
    capsys.readouterr()
    assert len(directions) == traced


def test_cover_cylinders_read_the_traced_direction():
    # cover_cylinders prints core words: they must be those traced in v_l
    cover = build_cover(7, 3)
    for l in range(7):
        traced = decompose(build_base(7), unit_vector(7, l))
        by_height = {c.height.key(): c for c in traced}
        for cyl in cover_cylinders(cover, l):
            base = by_height[cyl.height.key()]
            assert cyl.core_word == base.core_word ** (len(cyl.core_word) // len(base.core_word))
