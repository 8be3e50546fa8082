"""Exact 2x2 matrix layer: R_n, T_n, group words and presentations.

R_n rotates by pi/n and T_n shears by lambda_n = 2 cot(pi/n).  For odd
n the group they generate is presented by {(T^-1 R)^2 = R^n, R^2n = I,
R^n T = T R^n}; for even n the Veech group of the base is <R^2, T>, a
(n/2, inf, inf) triangle group, presented here on generators r = R^2,
t = T, z = R^n = -I with relators r^(n/2) z^-1, z^2 and z central.  All
relators are verified against the exact matrices at construction.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import VerificationFailure
from .field import RealAlg, cos_pi_over, lambda_n, sin_pi_over
from .surface import no_base_surface


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
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> Mat2:
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self) -> RealAlg:
        return self.a * self.d - self.b * self.c

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

        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

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
# group words


class GroupWord:
    """A word over named generators with integer exponents, kept reduced."""

    __slots__ = ("syllables",)

    def __init__(self, syllables=()):
        merged = []
        for sym, exp in syllables:
            exp = int(exp)
            if exp == 0:
                continue
            if merged and merged[-1][0] == sym:
                total = merged[-1][1] + exp
                merged.pop()
                if total:
                    merged.append((sym, total))
            else:
                merged.append((sym, exp))
        object.__setattr__(self, "syllables", tuple(merged))

    def __setattr__(self, *a):
        raise AttributeError("GroupWord is immutable")

    @staticmethod
    def gen(sym: str, exp: int = 1) -> GroupWord:
        return GroupWord(((sym, exp),))

    def __mul__(self, other: GroupWord) -> GroupWord:
        return GroupWord(self.syllables + other.syllables)

    def inverse(self) -> GroupWord:
        return GroupWord(tuple((s, -e) for s, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> GroupWord:
        if k < 0:
            return self.inverse() ** (-k)
        out = GroupWord()
        for _ in range(k):
            out = out * self
        return out

    def conjugate_by(self, g: GroupWord) -> GroupWord:
        """g * self * g^-1."""
        return g * self * g.inverse()

    def letters(self):
        """Flat sequence of (symbol, +-1)."""
        for sym, exp in self.syllables:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield (sym, step)

    def __len__(self):
        return sum(abs(e) for _, e in self.syllables)

    def __eq__(self, other):
        if not isinstance(other, GroupWord):
            return NotImplemented
        return self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __str__(self):
        if not self.syllables:
            return "1"
        parts = []
        for sym, exp in self.syllables:
            parts.append(sym if exp == 1 else "%s^%d" % (sym, exp))
        return "*".join(parts)

    def __repr__(self):
        return "GroupWord(%s)" % self

    @staticmethod
    def parse(text: str) -> GroupWord:
        text = text.strip()
        if text in ("", "1"):
            return GroupWord()
        sylls = []
        for part in text.split("*"):
            if "^" in part:
                sym, exp = part.split("^")
                sylls.append((sym.strip(), int(exp)))
            else:
                sylls.append((part.strip(), 1))
        return GroupWord(sylls)


def eval_group_word(n: int, word: GroupWord, images: dict | None = None) -> Mat2:
    """Evaluate a word left-to-right under the exact representation,
    each syllable by repeated squaring."""
    if images is None:
        images = {"R": gen_R(n), "T": gen_T(n)}
    out = Mat2.identity(4 * n)
    for sym, exp in word.syllables:
        out = out * images[sym] ** exp
    return out


# ---------------------------------------------------------------------------
# the Veech group generators of the covering family (Theorem statement lists)


def _generator_words(n: int, minus_identity: GroupWord, shear: GroupWord,
                     rotation: GroupWord) -> list[GroupWord]:
    """The covers' Veech-group generators over one alphabet, from its -I
    word, its shear T and its rotation (R for odd n, R^2 for even n).

    With S_j = rotation^j for j = 1..floor((n-1)/2): -I, T and the
    S_j T^2 S_j^-1; for even n also u = (T^-1 rotation)^2 and the
    S_j u S_j^-1.
    """
    powers = list(accumulate([rotation] * ((n - 1) // 2), GroupWord.__mul__))
    gens = [minus_identity, shear] + [(shear * shear).conjugate_by(p) for p in powers]
    if n % 2 == 0:
        u = (shear.inverse() * rotation) ** 2
        gens += [u] + [u.conjugate_by(p) for p in powers]
    return gens


def gamma_generator_words(n: int) -> list[GroupWord]:
    """Generating words of the covers' common Veech group, over {R, T}."""
    R = GroupWord.gen("R")
    return _generator_words(n, R ** n, GroupWord.gen("T"), R if n % 2 else R ** 2)


# ---------------------------------------------------------------------------
# presentations


class Presentation:
    """Finite presentation with a faithful exact matrix assignment.

    Every relator is verified to evaluate to the identity matrix at
    construction time.
    """

    __slots__ = ("n", "generators", "relators", "images",
                 "parabolic_classes",  # (name, GroupWord) generating each cusp stabilizer
                 "elliptic_classes",  # (order, name, GroupWord)
                 "chi_orb_str")  # orbifold Euler characteristic of the presented group, "p/q"

    def __init__(self, n: int, generators: tuple, relators: tuple, images: dict,
                 parabolic_classes: tuple, elliptic_classes: tuple, chi_orb_str: str):
        for rel in relators:
            if not eval_group_word(n, rel, images).is_identity():
                raise VerificationFailure("relator %s does not hold" % rel, witness=str(rel))
        for name, value in zip(self.__slots__, (n, generators, relators, images,
                                                parabolic_classes, elliptic_classes, chi_orb_str)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("Presentation is immutable")


def presentation_for(n: int) -> Presentation:
    if no_base_surface(n):
        raise ValueError("n >= 5, n != 6")
    if n % 2:
        R, T = GroupWord.gen("R"), GroupWord.gen("T")
        relators = (
            GroupWord.gen("R", n) * ((T.inverse() * R) ** 2).inverse(),
            GroupWord.gen("R", 2 * n),
            GroupWord.gen("R", n) * T * GroupWord.gen("R", -n) * T.inverse(),
        )
        return Presentation(
            n=n,
            generators=("R", "T"),
            relators=relators,
            images={"R": gen_R(n), "T": gen_T(n)},
            parabolic_classes=(("T", T),),
            elliptic_classes=((2, "T^-1*R", T.inverse() * R), (n, "R", R)),
            chi_orb_str="%d/%d" % (2 + n - 2 * n, 2 * n),  # 1/2 + 1/n - 1
        )
    r, t, z = GroupWord.gen("r"), GroupWord.gen("t"), GroupWord.gen("z")
    relators = (
        GroupWord.gen("r", n // 2) * z.inverse(),
        z * z,
        z * r * z.inverse() * r.inverse(),
        z * t * z.inverse() * t.inverse(),
    )
    R = gen_R(n)
    images = {"r": R * R, "t": gen_T(n), "z": minus_identity(n)}
    # primitive parabolic at the second cusp: R^-1 T R = R^n T^-1 R^2 = z t^-1 r
    p2 = z * t.inverse() * r
    return Presentation(
        n=n,
        generators=("r", "t", "z"),
        relators=relators,
        images=images,
        parabolic_classes=(("t", t), ("z*t^-1*r", p2)),
        elliptic_classes=((n // 2, "r", r),),
        chi_orb_str="%d/%d" % (2 - n, n),  # 2/n - 1
    )


def subgroup_words(n: int) -> list[GroupWord]:
    """The covers' Veech-group generators over the presentation's alphabet."""
    if n % 2:
        return gamma_generator_words(n)
    return _generator_words(n, GroupWord.gen("z"), GroupWord.gen("t"), GroupWord.gen("r"))
