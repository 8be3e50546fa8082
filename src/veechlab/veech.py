"""Exact 2x2 matrix layer: R_n, T_n, group words and presentations.

R_n rotates by pi/n and T_n shears by lambda_n = 2 cot(pi/n).  For odd
n the group they generate is presented by {(T^-1 R)^2 = R^n, R^2n = I,
R^n T = T R^n}; for even n the Veech group of the base is <R^2, T>, a
(n/2, inf, inf) triangle group, presented here on generators r = R^2,
t = T, z = R^n = -I with relators r^(n/2) z^-1, z^2 and z central
(Veech, Invent. Math. 97, 1989).  The matrices are the tests' oracle.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .field import RealAlg, cos_pi_over, lambda_n, product_sum, sin_pi_over
from .surface import no_base_surface
from .words import Word


class Mat2:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: RealAlg, b: RealAlg, c: RealAlg, d: RealAlg):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *x):
        raise AttributeError("Mat2 is immutable")

    @staticmethod
    def identity(N: int) -> Mat2:
        one, zero = RealAlg.one(N), RealAlg.zero(N)
        return Mat2(one, zero, zero, one)

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(
            product_sum(self.a, other.a, self.b, other.c),
            product_sum(self.a, other.b, self.b, other.d),
            product_sum(self.c, other.a, self.d, other.c),
            product_sum(self.c, other.b, self.d, other.d),
        )

    def __neg__(self) -> Mat2:
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self) -> RealAlg:
        return product_sum(self.a, self.d, self.b, self.c, -1)

    def trace(self) -> RealAlg:
        return self.a + self.d

    def inverse(self) -> Mat2:
        det = self.det()
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __pow__(self, k: int) -> Mat2:
        if k < 0:
            return self.inverse() ** (-k)
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return Mat2.identity(self.a.N) if out is None else out

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.a == other.a and self.b == other.b and self.c == other.c and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def is_identity(self) -> bool:
        return self == Mat2.identity(self.a.N)

    def key(self):
        return (self.a.key(), self.b.key(), self.c.key(), self.d.key())

    def apply(self, v):
        from .planar import Vec2

        return Vec2(product_sum(self.a, v.x, self.b, v.y), product_sum(self.c, v.x, self.d, v.y))

    def __repr__(self):
        return "Mat2[[%s, %s], [%s, %s]]" % tuple(
            x.approx(8).strip() for x in (self.a, self.b, self.c, self.d)
        )


def gen_R(n: int) -> Mat2:
    """Rotation by pi/n."""
    c, s = cos_pi_over(n), sin_pi_over(n)
    return Mat2(c, -s, s, c)


def gen_T(n: int) -> Mat2:
    """Horizontal shear by lambda_n = 2 cot(pi/n)."""
    N = 4 * n
    one, zero = RealAlg.one(N), RealAlg.zero(N)
    return Mat2(one, lambda_n(n), zero, one)


def minus_identity(n: int) -> Mat2:
    return -Mat2.identity(4 * n)


# ---------------------------------------------------------------------------
# group words: a words.Word whose letters are (generator symbol, +-1)


def eval_group_word(n: int, word: Word, images: dict | None = None) -> Mat2:
    """Evaluate a word over generator symbols left-to-right under the exact
    representation, each run of equal letters by repeated squaring."""
    if images is None:
        images = {"R": gen_R(n), "T": gen_T(n)}
    out = Mat2.identity(4 * n)
    for (sym, step), run in groupby(word.letters):
        out = out * images[sym] ** (step * sum(1 for _ in run))
    return out


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


class Presentation(NamedTuple):
    """Finite presentation of Gamma(X_n) over group words."""

    n: int
    generators: tuple
    relators: tuple
    parabolic_classes: tuple  # (name, Word) generating each cusp stabilizer
    elliptic_classes: tuple  # (order, name, Word)
    chi_orb_str: str  # orbifold Euler characteristic of the presented group, "p/q"


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
