"""Exact models that the tests check the library against; no command
imports them.

Mat2, gen_R, gen_T, minus_identity and eval_group_word represent
Gamma(X_n) by exact 2x2 matrices over Q(zeta_4n): R_n rotates by pi/n
and T_n shears by lambda_n = 2 cot(pi/n).  veech.py states Veech's
presentations and the covers' generators as group words only; these
matrices are the oracle for them.

traced_singularity_loops reads X_n's singularity loops off the corner
walk of the exact polygons, the oracle for zcover's closed form, and
cyclic_normal_form names a word's conjugacy class up to rotation.
"""

from __future__ import annotations

from itertools import groupby

from veechlab.field import RealAlg, cos_pi_over, lambda_n, product_sum, sin_pi_over
from veechlab.planar import Vec2
from veechlab.surface import EdgeRef, build_base
from veechlab.words import Word


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


def cyclic_normal_form(word: Word) -> tuple:
    """Smallest rotation of the letter tuple; invariant of the free
    homotopy class of a cyclically reduced word up to rotation."""
    ls = word.letters
    return min((ls[i:] + ls[:i] for i in range(len(ls))), default=())


# ---------------------------------------------------------------------------
# singularity loops


def traced_singularity_loops(n: int) -> list[Word]:
    """One loop per cone point of build_base(n), in the order of
    cone_points: the crossing labels of the incoming sides of its corners,
    in walking order (a side that reads no generator is skipped)."""
    base = build_base(n)
    loops = []
    for cone in base.cone_points():
        labels = (base.crossing_label(EdgeRef(p, (v - 1) % len(base.polygons[p])))
                  for p, v in cone.corners)
        loops.append(Word([label for label in labels if label is not None]))
    return loops
