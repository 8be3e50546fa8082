"""The infinite covers Y_{n,infinity} via parity-affine Z-permutations.

The infinite surface is never materialized: its monodromy lands in the
group of maps l -> l + t_{l mod 2}, and every claim about it (number of
infinite-angle singularities, the Z-cover structure over Y_{n,2}, the
shift/orbit bookkeeping behind the theorem steps) reduces to integer
arithmetic on the pair (t_even, t_odd).
"""

from __future__ import annotations

from .covering import CoveringSurface, check_generators, monodromy_indices, num_generators
from .errors import NonChainError, VerificationFailure
from .planar import Vec2
from .surface import EdgeRef, build_base
from .words import Word


class ZPermutation:
    """The bijection of Z given by l -> l + t_{l mod 2}.

    Bijectivity forces t_even and t_odd to share parity: both even
    preserves the parity classes, both odd swaps them.
    """

    __slots__ = ("t_even", "t_odd")

    def __init__(self, t_even: int, t_odd: int):
        if (t_even - t_odd) % 2:
            raise ValueError("t_even and t_odd must have equal parity")
        object.__setattr__(self, "t_even", t_even)
        object.__setattr__(self, "t_odd", t_odd)

    def __setattr__(self, *a):
        raise AttributeError("ZPermutation is immutable")

    def __eq__(self, other):
        if not isinstance(other, ZPermutation):
            return NotImplemented
        return self.t_even == other.t_even and self.t_odd == other.t_odd

    def __hash__(self):
        return hash((self.t_even, self.t_odd))

    def __repr__(self):
        return "ZPermutation(t_even=%r, t_odd=%r)" % (self.t_even, self.t_odd)

    def __call__(self, l: int) -> int:
        return l + (self.t_even if l % 2 == 0 else self.t_odd)

    @staticmethod
    def identity() -> ZPermutation:
        return ZPermutation(0, 0)

    def is_identity(self) -> bool:
        return self.t_even == 0 and self.t_odd == 0

    def swaps_parity(self) -> bool:
        return self.t_even % 2 == 1

    def compose(self, other: ZPermutation) -> ZPermutation:
        """self applied after other."""
        te = other.t_even + (self.t_even if other.t_even % 2 == 0 else self.t_odd)
        to = other.t_odd + (self.t_odd if other.t_odd % 2 == 0 else self.t_even)
        return ZPermutation(te, to)

    def inverse(self) -> ZPermutation:
        if self.swaps_parity():
            return ZPermutation(-self.t_odd, -self.t_even)
        return ZPermutation(-self.t_even, -self.t_odd)

    def is_involution(self) -> bool:
        return self.compose(self).is_identity()

    def orbits(self) -> tuple:
        """The orbits on Z as runs (length, count), the contract of
        Monodromy.cycle_type: length 0 is an infinite orbit, count None
        means infinitely many.

        Parity preserved: one run per class, whose shift t acts on it as
        translation by t/2, so (1, None) for t = 0, else (0, |t|/2).
        Parity swapped: the orbits biject with those of the square on the
        evens, a shift by t_even + t_odd; infinitely many 2-cycles when
        that is 0.
        """
        if self.swaps_parity():
            s = self.t_even + self.t_odd
            return ((2, None),) if s == 0 else ((0, abs(s) // 2),)
        return tuple((1, None) if t == 0 else (0, abs(t) // 2) for t in (self.t_even, self.t_odd))

    def to_json(self):
        return {"t_even": self.t_even, "t_odd": self.t_odd}


class ZMonodromy:
    """Generator-indexed parity-affine permutations of Z, as ZPermutations,
    with covering.Monodromy's contract: then, inverse and image_json."""

    degree = "inf"  # the sheets are indexed by Z; certificates print d as "inf"

    @staticmethod
    def then(a: ZPermutation, b: ZPermutation) -> ZPermutation:
        return b.compose(a)

    inverse = staticmethod(ZPermutation.inverse)
    image_json = staticmethod(ZPermutation.to_json)

    def __init__(self, num_generators: int, images: dict):
        check_generators(num_generators, images)
        for i, p in images.items():
            if type(p) is not ZPermutation:
                raise ValueError("image of x_%d is not a ZPermutation" % i)
        self.num_generators = num_generators
        self.images = {i: images.get(i, ZPermutation.identity()) for i in range(num_generators)}
        # the generators that move a sheet, with their inverse images
        self._moving = {i: (p, p.inverse()) for i, p in self.images.items() if not p.is_identity()}

    def image(self, i: int) -> ZPermutation:
        return self.images[i]

    def eval_word(self, w: Word) -> ZPermutation:
        """Letters act in path order; those whose generator maps to the
        identity are skipped."""
        cur = ZPermutation.identity()
        moving = self._moving
        for g, sgn in w:
            pair = moving.get(g)
            if pair is not None:
                cur = pair[sgn < 0].compose(cur)
        return cur

    def cycle_type(self, w: Word) -> tuple:
        """The orbits of eval_word(w) as runs (length, count), as
        Monodromy.cycle_type gives them: length 0 is an infinite orbit,
        count None infinitely many."""
        return self.eval_word(w).orbits()


def std_infinite_monodromy(n: int) -> ZMonodromy:
    """m_{n,infinity}: x_{k1} swaps within even/odd pairs upward,
    x_{k2} downward; all other generators act trivially."""
    k1, k2 = monodromy_indices(n)
    return ZMonodromy(num_generators(n), {k1: ZPermutation(1, -1), k2: ZPermutation(-1, 1)})


def singularity_loops(n: int) -> list[Word]:
    """Simple loops around the cone points of X_n, one per cone point,
    read off the corner walk of the vertex class."""
    base = build_base(n)
    loops = []
    for cp in base.cone_points():
        letters = []
        for (p, v) in cp.corners:
            poly = base.polygons[p]
            label = base.crossing_label(EdgeRef(p, (v - 1) % len(poly)))
            if label is not None:
                letters.append(label)
        loops.append(Word(letters))
    return loops


def infinite_singularities(n: int) -> int:
    """Number of infinite-angle singularities of Y_{n,infinity}: the
    orbits of the singularity-loop monodromies on Z, all infinite."""
    m = std_infinite_monodromy(n)
    total = 0
    for loop in singularity_loops(n):
        runs = m.cycle_type(loop)
        if any(count is None for _, count in runs):
            raise VerificationFailure(
                "singularity loop has infinitely many preimages", witness=loop.to_json()
            )
        total += sum(count for _, count in runs)
    return total


def y2_basis(n: int) -> list[tuple[str, Word]]:
    """The basis B of pi_1(Y_{n,2}*) used for the Z-cover structure."""
    k1, k2 = monodromy_indices(n)
    x = Word.generator
    basis = [
        ("x_k2 x_k1^-1", x(k2) * x(k1).inverse()),
        ("x_k1^2", x(k1) * x(k1)),
        ("x_k1 x_k2", x(k1) * x(k2)),
    ]
    for i in range(num_generators(n)):
        if i in (k1, k2):
            continue
        basis.append(("x_%d" % i, x(i)))
        basis.append(("x_k1 x_%d x_k1^-1" % i, x(k1) * x(i) * x(k1).inverse()))
    return basis


def z_cover_structure(n: int) -> dict:
    """Verify that m_{n,infinity} restricted to pi_1(Y_{n,2}*) is the
    Z-cover monodromy: x_k1 x_k2 shifts even copies by +2, x_k2 x_k1^-1
    by -2, all other basis words act trivially.  Reports the deck group.
    """
    m = std_infinite_monodromy(n)
    expected = {
        "x_k1 x_k2": ZPermutation(2, -2),
        "x_k2 x_k1^-1": ZPermutation(-2, 2),
    }
    images = []
    for name, word in y2_basis(n):
        got = m.eval_word(word)
        want = expected.get(name, ZPermutation.identity())
        if got != want:
            raise VerificationFailure(
                "basis word %s maps to %s, expected %s" % (name, got, want),
                witness={"word": word.to_json(), "image": got.to_json()},
            )
        images.append({"word": name, "image": got.to_json()})
    k1, k2 = monodromy_indices(n)
    return {
        "n": n,
        "k1": k1,
        "k2": k2,
        "basis_images": images,
        "shift_on_even_copies": {"x_k1 x_k2": 2, "x_k2 x_k1^-1": -2},
        "deck_group": "Z",
        "note": "basis property of B is assumed, not re-derived; images verified",
    }


def holonomy(cover: CoveringSurface, segments) -> Vec2:
    """Exact holonomy of a chain of directed edges of the realized cover.

    Each segment is (copy, base polygon, side, sign); endpoints of full
    edges are cone points, so any formal sum is a valid relative chain.
    """
    surface = cover.surface
    total = None
    for seg in segments:
        try:
            copy, base_poly, side, sgn = seg
        except (TypeError, ValueError) as exc:
            raise NonChainError("segment %r is not (copy, polygon, side, sign)" % (seg,)) from exc
        if sgn not in (1, -1):
            raise NonChainError("segment sign must be +1 or -1")
        if not (0 <= copy < cover.d):
            raise NonChainError("copy index out of range")
        idx = cover.realized_index(copy, base_poly)
        if not (0 <= idx < len(surface.polygons)):
            raise NonChainError("polygon index out of range")
        poly = surface.polygons[idx]
        if not (0 <= side < len(poly)):
            raise NonChainError("side index out of range")
        vec = poly.side_vector(side)
        total = vec * sgn if total is None else total + vec * sgn
    if total is None:
        raise NonChainError("empty chain")
    return total


# the explicit copy permutation behind the single-twist map on the
# infinite cover
def sigma_T_infinite() -> ZPermutation:
    """Fixes even copies, shifts odd copies by +2."""
    return ZPermutation(0, 2)
