import pytest
from hypothesis import given, settings, strategies as st

from veechlab.field import RealAlg, cos_pi_over, lambda_n, quarter_trig, sin_pi_over
from veechlab.planar import Vec2
from veechlab.veech import gamma_generator_words, presentation_for, subgroup_words
from veechlab.words import Word

from oracles import Mat2, eval_group_word, gen_R, gen_T, minus_identity

R_, T_ = Word.generator("R"), Word.generator("T")


def shear_matrix(n: int, l: int) -> Mat2:
    """R^l T^2 R^-l: the shear with factor 2*lambda_n in direction v_l."""
    R, T = gen_R(n), gen_T(n)
    return (R ** l) * (T * T) * (R ** (-l))


def shear_matrix_closed_form(n: int, l: int) -> Mat2:
    """The displayed entries of the same shear, as an independent oracle."""
    c, s = quarter_trig(n, 2 * l)
    lam = lambda_n(n)
    one = RealAlg.one(4 * n)
    return Mat2(
        one - 2 * lam * c * s,
        2 * lam * c * c,
        -2 * lam * s * s,
        one + 2 * lam * c * s,
    )


def presentation_images(n: int) -> dict:
    """The exact matrices of presentation_for(n)'s generators: R and T,
    or r = R^2, t = T and z = -I."""
    if n % 2:
        return {"R": gen_R(n), "T": gen_T(n)}
    return {"r": gen_R(n) ** 2, "t": gen_T(n), "z": minus_identity(n)}


def gamma_generators(n: int) -> list:
    """The covers' Veech-group generators with exact matrix values."""
    return [(w, eval_group_word(n, w)) for w in gamma_generator_words(n)]


@pytest.mark.parametrize("n", range(5, 14))
def test_matrix_identities(n):
    R, T = gen_R(n), gen_T(n)
    I = Mat2.identity(4 * n)
    assert R ** n == -I
    assert R ** (2 * n) == I
    assert (T.inverse() * R) ** 2 == -I
    assert R * T * R.inverse() == (R ** (n + 2)) * T.inverse()
    assert T * R.inverse() * T == -R
    assert R.det() == 1 and T.det() == 1


def test_group_word_evaluation():
    n = 7
    assert eval_group_word(n, R_ ** 7) == -Mat2.identity(28)
    assert eval_group_word(n, R_ ** 14).is_identity()
    assert eval_group_word(n, T_ * R_.inverse() * T_) == -gen_R(n)
    assert eval_group_word(n, Word()) == Mat2.identity(28)


def test_group_word_algebra():
    w = R_ ** 2 * T_.inverse()
    assert w.letters == (("R", 1), ("R", 1), ("T", -1))
    assert (w ** 2).letters == w.letters * 2
    assert w.inverse().letters == (("T", 1), ("R", -1), ("R", -1))
    assert repr(w ** -1) == "Word(T*R^-1*R^-1)"
    # words are not reduced, but adjacent inverse letters evaluate to the identity
    assert len(w * w.inverse()) == 6
    assert eval_group_word(7, w * w.inverse()).is_identity()
    assert eval_group_word(7, R_ ** 2 * R_ ** -1) == gen_R(7)


def test_group_word_powers_share_their_letters():
    # a letter that is already a tuple is kept: R^1000 holds one tuple
    # object a thousand times, and its product with R^-1000 holds two
    w = Word.generator("R") ** 1000
    assert len(w) == 1000 and len({id(letter) for letter in w.letters}) == 1
    assert len({id(letter) for letter in (w * Word.generator("R") ** -1000).letters}) == 2
    # any other pair is copied into a tuple
    assert Word([["R", 1], ("T", -1)]).letters == (("R", 1), ("T", -1))


def test_group_word_inverses_share_their_letters():
    # the inverse negates each distinct letter once: (R^1000)^-1 holds one
    # tuple object a thousand times, as R^-1000 does
    inverse = (Word.generator("R") ** 1000).inverse()
    assert inverse.letters == (("R", -1),) * 1000
    assert len({id(letter) for letter in inverse.letters}) == 1
    assert len({id(letter) for letter in (Word.generator("R") ** -1000).letters}) == 1
    mixed = Word([("R", 1), ("T", -1), ("R", 1), ("T", -1)]).inverse()
    assert mixed.letters == (("T", 1), ("R", -1)) * 2
    assert len({id(letter) for letter in mixed.letters}) == 2
    # what a caller passes is still checked
    with pytest.raises(ValueError):
        Word([("R", 2)])


@pytest.mark.parametrize("n", [5, 7, 8, 10])
def test_shear_matrix_closed_form(n):
    for l in range(n):
        assert shear_matrix(n, l) == shear_matrix_closed_form(n, l)


@pytest.mark.parametrize("n", [5, 8])
def test_shear_fixes_its_direction(n):
    for l in range(n):
        c, s = quarter_trig(n, 2 * l)
        v = Vec2(c, s)
        assert shear_matrix(n, l).apply(v) == v


def test_shear_l0_is_T_squared():
    for n in (5, 8):
        T = gen_T(n)
        assert shear_matrix(n, 0) == T * T


@pytest.mark.parametrize("n", [8, 10])
def test_even_case_relation(n):
    R, T = gen_R(n), gen_T(n)
    assert (T.inverse() * R * R) ** 2 == R.inverse() * T * T * R
    assert R * T.inverse() * R == -T


def test_gamma_generators_odd():
    gens = gamma_generators(5)
    assert len(gens) == 4  # -I, T and 2 parabolic conjugates
    w0, m0 = gens[0]
    assert m0 == minus_identity(5)
    assert (m0 * m0).is_identity()
    assert gens[1][1] == gen_T(5)
    for j, (w, m) in enumerate(gens[2:], start=1):
        assert m == shear_matrix(5, j)


def test_gamma_generators_even_structure():
    n = 8
    gens = gamma_generators(n)
    assert len(gens) == 9
    R, T = gen_R(n), gen_T(n)
    u = (T.inverse() * R * R) ** 2
    mats = [m for _w, m in gens]
    assert mats[0] == minus_identity(n)
    assert mats[1] == T
    # conjugating powers R^2, R^4, R^6 for both parabolic families
    for j in (1, 2, 3):
        assert mats[1 + j] == (R ** (2 * j)) * (T * T) * (R ** (-2 * j))
    assert mats[5] == u
    for j in (1, 2, 3):
        assert mats[5 + j] == (R ** (2 * j)) * u * (R ** (-2 * j))


def _letter_by_letter(n, word, images):
    """The oracle: a word multiplied out one letter at a time."""
    out = Mat2.identity(4 * n)
    for sym, step in word.letters:
        m = images[sym]
        out = out * (m if step > 0 else m.inverse())
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_syllables_by_squaring_equal_letter_by_letter(data):
    n = data.draw(st.sampled_from([5, 8, 9, 12, 25]), label="n")
    R, T = gen_R(n), gen_T(n)
    images = data.draw(st.sampled_from([
        {"R": R, "T": T},
        {"r": R * R, "t": T, "z": minus_identity(n)},
    ]))
    # runs of one symbol, unreduced: a run may follow its own inverse
    runs = data.draw(st.lists(
        st.tuples(st.sampled_from(sorted(images)), st.integers(-3 * n, 3 * n)), max_size=5))
    word = Word([(sym, 1 if exp > 0 else -1) for sym, exp in runs for _ in range(abs(exp))])
    assert eval_group_word(n, word, images) == _letter_by_letter(n, word, images), word


@pytest.mark.parametrize("n", [n for n in range(5, 62) if n != 6])
def test_presentation_relators_hold(n):
    # Veech's relators, checked as exact matrices
    images = presentation_images(n)
    for rel in presentation_for(n).relators:
        assert eval_group_word(n, rel, images).is_identity(), rel


@pytest.mark.parametrize("n", [8, 10])
def test_even_subgroup_words_match_theorem_matrices(n):
    images = presentation_images(n)
    theorem = gamma_generators(n)
    translated = subgroup_words(n)
    assert len(theorem) == len(translated)
    for (w_rt, m), w_rtz in zip(theorem, translated):
        assert eval_group_word(n, w_rtz, images) == m


def test_even_parabolic_class_is_parabolic():
    for n in (8, 10):
        for _name, word in presentation_for(n).parabolic_classes:
            m = eval_group_word(n, word, presentation_images(n))
            assert m.trace() == 2 or m.trace() == -2
            assert not m.is_identity() and not (-m).is_identity()


def test_rotation_and_shear_entries():
    n = 5
    R = gen_R(n)
    assert R.a == cos_pi_over(n)
    assert R.c == sin_pi_over(n)
    T = gen_T(n)
    assert T.b == 2 * cos_pi_over(n) / sin_pi_over(n)
