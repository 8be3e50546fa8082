"""Veech's presentations of Gamma(X_n), the covers' generator words and
coset tables, all over group words: no matrix and no field element.

R_n rotates by pi/n and T_n shears by lambda_n = 2 cot(pi/n).  For odd
n the group they generate is presented by {(T^-1 R)^2 = R^n, R^2n = I,
R^n T = T R^n}; for even n the Veech group of the base is <R^2, T>, a
(n/2, inf, inf) triangle group, presented here on generators r = R^2,
t = T, z = R^n = -I with relators r^(n/2) z^-1, z^2 and z central
(Veech, Invent. Math. 97, 1989).  The tests check these words as exact
2x2 matrices (tests/oracles.py).  A CosetTable is the action of a
presented group on the cosets of a subgroup, one permutation per
generator, checked in integers by CosetTable.validate().
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby

from . import perms
from .surface import no_base_surface
from .words import Word


# ---------------------------------------------------------------------------
# the Veech group generators of the covering family (Theorem statement lists)


def _generator_words(n: int, minus_identity: Word, shear: Word, rotation: Word) -> list[Word]:
    """The covers' Veech-group generators over one alphabet, from its -I
    word, its shear T and its rotation (R for odd n, R^2 for even n).

    With S_j = rotation^j for j = 1..floor((n-1)/2): -I, T and the
    S_j T^2 S_j^-1; for even n also u = (T^-1 rotation)^2 and the
    S_j u S_j^-1, written freely reduced.
    """
    powers = range((n - 1) // 2 + 1)  # j = 0..floor((n-1)/2)
    gens = [minus_identity, shear] + [rotation ** j * shear * shear * rotation ** -j
                                      for j in powers[1:]]
    if n % 2 == 0:
        t_inv = shear.inverse()
        gens += [rotation ** j * t_inv * rotation * t_inv * rotation ** (1 - j) for j in powers]
    return gens


def gamma_generator_words(n: int) -> list[Word]:
    """Generating words of the covers' common Veech group, over {R, T}."""
    R = Word.generator("R")
    return _generator_words(n, R ** n, Word.generator("T"), R if n % 2 else R ** 2)


# ---------------------------------------------------------------------------
# presentations


class Presentation(namedtuple("Presentation", "n generators relators parabolic_classes "
                                              "elliptic_classes chi_orb_str")):
    """Finite presentation of Gamma(X_n) over group words."""

    # parabolic_classes: (name, Word) generating each cusp stabilizer;
    # elliptic_classes: (order, name, Word); chi_orb_str: the orbifold
    # Euler characteristic of the presented group, "p/q"
    __slots__ = ()


def presentation_for(n: int) -> Presentation:
    if no_base_surface(n):
        raise ValueError("n >= 5, n != 6")
    if n % 2:
        R, T = Word.generator("R"), Word.generator("T")
        relators = (
            R ** (n - 1) * T * R.inverse() * T,  # R^n ((T^-1 R)^2)^-1
            R ** (2 * n),
            R ** n * T * R ** -n * T.inverse(),
        )
        return Presentation(
            n=n,
            generators=("R", "T"),
            relators=relators,
            parabolic_classes=(("T", T),),
            elliptic_classes=((2, "T^-1*R", T.inverse() * R), (n, "R", R)),
            chi_orb_str="%d/%d" % (2 + n - 2 * n, 2 * n),  # 1/2 + 1/n - 1
        )
    r, t, z = Word.generator("r"), Word.generator("t"), Word.generator("z")
    relators = (
        r ** (n // 2) * z.inverse(),
        z * z,
        z * r * z.inverse() * r.inverse(),
        z * t * z.inverse() * t.inverse(),
    )
    # primitive parabolic at the second cusp: R^-1 T R = R^n T^-1 R^2 = z t^-1 r
    p2 = z * t.inverse() * r
    return Presentation(
        n=n,
        generators=("r", "t", "z"),
        relators=relators,
        parabolic_classes=(("t", t), ("z*t^-1*r", p2)),
        elliptic_classes=((n // 2, "r", r),),
        chi_orb_str="%d/%d" % (2 - n, n),  # 2/n - 1
    )


def subgroup_words(n: int) -> list[Word]:
    """The covers' Veech-group generators over the presentation's alphabet."""
    if n % 2:
        return gamma_generator_words(n)
    return _generator_words(n, Word.generator("z"), Word.generator("t"), Word.generator("r"))


# ---------------------------------------------------------------------------
# coset tables


class CosetTable:
    """The action of a finitely presented group on the cosets of a
    subgroup: the presentation, the subgroup's generator words, the index
    and, per generator symbol, a tuple permutation of {0..index-1}, with
    coset 0 the subgroup itself.  No coset stores a word that reaches it."""

    def __init__(self, presentation: Presentation, subgroup, index: int, action):
        self.presentation = presentation
        self.subgroup = subgroup  # the subgroup generator words
        self.index = index
        self.action = action  # generator symbol -> tuple permutation of {0..index-1}
        self._inverse = {sym: perms.inverse(p) for sym, p in action.items()}

    def act_word(self, coset: int, word: Word) -> int:
        for sym, step in word.letters:
            coset = (self.action if step > 0 else self._inverse)[sym][coset]
        return coset

    def word_permutation(self, word: Word) -> tuple:
        """The word's action on every coset: each run of one letter, as
        one power of its permutation, applied to the images of all cosets
        at once (R^2n is one step)."""
        image = range(self.index)
        for (sym, step), run in groupby(word.letters):
            p = perms.power((self.action if step > 0 else self._inverse)[sym], len(list(run)))
            image = [p[c] for c in image]
        return tuple(image)

    def validate(self) -> bool:
        """Whether every relator fixes every coset, the subgroup's words
        fix coset 0, and the generators act transitively."""
        ident = tuple(range(self.index))
        return (all(self.word_permutation(rel) == ident for rel in self.presentation.relators)
                and all(self.act_word(0, w) == 0 for w in self.subgroup)
                and perms.is_transitive([self.action[g] for g in self.presentation.generators],
                                        self.index))
