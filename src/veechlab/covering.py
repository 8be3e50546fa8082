"""Finite covers Y_{n,d} of the base surfaces, defined by monodromy.

The monodromy is an anti-homomorphism from the fundamental group to
S_d: m(w1 * w2) = m(w2) o m(w1).  Evaluating a word therefore applies
the generator permutations in path order.  A cover is its monodromy:
its cylinders come from the base decomposition and the cycle structure
of the core words' images, and build_cover checks only the degree and
transitivity.  The explicit polygon complex (d copies of the base) is
realized on first access to CoveringSurface.surface, for rendering,
holonomy and cross-validation by cylinders.decompose, which reads the
cylinders off the realized polygons.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import groupby

from . import perms
from .errors import NOT_TRANSITIVE, IntransitiveMonodromy
from .cylinders import decompose, unit_vector
from .surface import EdgeRef, TranslationSurface, build_base, no_base_surface
from .words import Word


def monodromy_indices(n: int) -> tuple[int, int]:
    """The two marked generators (k1, k2) of the covering family."""
    if no_base_surface(n):
        raise ValueError("n >= 5, n != 6")
    if n % 2:
        return (n - 1) // 2, (n + 1) // 2
    if n % 4 == 0:
        return n // 4 - 1, n // 4
    return (n - 2) // 4 - 1, (n - 2) // 4 + 1


def reduced(d: int, t_even: int, t_odd: int) -> tuple:
    """The sheet map l -> l + t_{l mod 2} of Y_{n,inf} (a parity-affine
    Z-permutation) read on the d sheets of its quotient Y_{n,d}: modulo
    d for even d; for odd d modulo 2d, where m >= d folds to 2d - 1 - m.

    The odd-d fold is the quotient by the reflections l -> -1 - l and
    l -> 2d - 1 - l, so it is well defined for maps with t_even = -t_odd,
    which commute with both.
    """
    period = 2 * d if d % 2 else d
    images = [(l + (t_odd if l % 2 else t_even)) % period for l in range(d)]
    return tuple(m if m < d else 2 * d - 1 - m for m in images)


def sigma_d1(d: int) -> tuple:
    """(0 1)(2 3)... up to d-2,d-1 (d even) or d-3,d-2 (d odd): x_k1's
    image (1, -1) on Y_{n,inf}, reduced to d sheets."""
    return reduced(d, 1, -1)


def sigma_d2(d: int) -> tuple:
    """(1 2)(3 4)... with the extra pair (d-1 0) when d is even: x_k2's
    image (-1, 1) on Y_{n,inf}, reduced to d sheets."""
    return reduced(d, -1, 1)


def num_generators(n: int) -> int:
    """The number of generators x_i of pi_1(X_n)."""
    return n - 1 if n % 2 else n // 2


def check_generators(num_generators: int, images: dict):
    """Reject an image key that names no generator x_0..x_{num_generators-1}."""
    for g in images:
        if g not in range(num_generators):
            raise ValueError(
                "image given for x_%s, but the generators are x_0..x_%d" % (g, num_generators - 1)
            )


class Monodromy:
    """Generator-indexed permutations of {0..d-1}, as tuples (module perms).

    then(a, b) (a followed by b), inverse and image_json (the JSON form)
    are the permutation contract that zcover.ZMonodromy shares.

    Transitivity of the image (connectedness of the cover) is checked
    by build_cover, not here, so that degenerate candidates can still be
    inspected.
    """

    @staticmethod
    def then(a: tuple, b: tuple) -> tuple:
        # through the module, where a tracer of perms.compose sees the call
        return perms.compose(a, b)

    inverse = staticmethod(perms.inverse)
    image_json = staticmethod(list)

    def __init__(self, num_generators: int, degree: int, images: dict):
        if type(degree) is not int or degree < 1:
            raise ValueError("degree must be a positive int")
        check_generators(num_generators, images)
        self.num_generators = num_generators
        self.degree = degree
        # the generators that move a sheet, in order, with their inverse
        # images: eval_word composes only these, and every rule that asks
        # which generators move reads them.  Only the given images are
        # read, so no list of the d sheets is made unless one is given.
        self._moving = {}
        ident = perms.identity(degree) if images else ()
        for i in sorted(images):
            p = tuple(images[i])
            if sorted(p) != list(ident):
                raise ValueError("image of x_%d is not a permutation" % i)
            if p != ident:
                self._moving[i] = (p, perms.inverse(p))
        self._cycle_types = {}  # moving letters of a word -> cycle_type of the word

    @cached_property
    def images(self) -> dict:
        """Every generator's image, the identity where it moves no sheet."""
        ident = perms.identity(self.degree)
        return {i: self._moving.get(i, (ident,))[0] for i in range(self.num_generators)}

    def is_transitive(self) -> bool:
        return perms.is_transitive([p for p, _ in self._moving.values()], self.degree)

    def image(self, i: int) -> tuple:
        return self.images[i]

    def eval_word(self, w: Word) -> tuple:
        """Anti-homomorphic evaluation: letters act in path order.

        Letters whose generator maps to the identity are skipped.
        """
        cur = perms.identity(self.degree)
        moving = self._moving
        for g, sgn in w:
            pair = moving.get(g)
            if pair is not None:
                cur = perms.compose(cur, pair[sgn < 0])
        return cur

    def cycle_type(self, w: Word) -> tuple:
        """The cycle lengths of eval_word(w), in the order perms.cycles
        lists the cycles, as runs: (length, number of consecutive cycles
        of that length), ...

        Memoised on the word's moving letters (those whose generator
        moves a sheet, in order, with their signs): eval_word composes
        exactly these, so words that share them share the image.  The
        cylinder words of X_n have few distinct moving letters.  The key
        is built by a list comprehension, not a generator, whose set-up
        costs more than filtering the one or two letters of a core word.
        """
        moving = self._moving
        key = tuple([letter for letter in w.letters if letter[0] in moving])
        runs = self._cycle_types.get(key)
        if runs is None:
            lengths = groupby(map(len, perms.cycles(self.eval_word(w))))
            runs = self._cycle_types[key] = tuple((a, len(list(g))) for a, g in lengths)
        return runs

    def pullback(self, words) -> Monodromy:
        """The monodromy x_i -> m(words[i]) (words: one per generator)."""
        return Monodromy(self.num_generators, self.degree,
                         {i: self.eval_word(w) for i, w in enumerate(words)})

    def to_json(self):
        return {
            "degree": self.degree,
            "images": {str(i): list(p) for i, (p, _) in sorted(self._moving.items())},
        }


def standard_monodromy(n: int, d: int) -> Monodromy:
    """The covering family's monodromy m_{n,d}."""
    if type(d) is not int or d < 2:
        raise ValueError("degree must be an int of at least 2")
    k1, k2 = monodromy_indices(n)
    return Monodromy(num_generators(n), d, {k1: sigma_d1(d), k2: sigma_d2(d)})


class CoveringSurface:
    """The cover of X_n with the given monodromy; everything else follows from n."""

    def __init__(self, n: int, monodromy: Monodromy):
        self.n = n
        self.monodromy = monodromy

    @property
    def base(self) -> TranslationSurface:
        return build_base(self.n)

    @property
    def d(self) -> int:
        return self.monodromy.degree

    @cached_property
    def surface(self) -> TranslationSurface:
        """The realized complex with d * |base polygons| faces.

        Edge x_i of copy j glues to x_i' of copy sigma_i(j).  Built and
        validated on first access; the certificates never need it.
        """
        base = self.base
        nb = len(base.polygons)
        gluing = {}
        labels = {}
        # an edge crossed backwards reads the inverse that the monodromy keeps
        moving = self.monodromy._moving
        for src, dst in base.gluing.items():
            label = base.generator_labels.get(src)
            pair = None if label is None else moving.get(label[0])
            for c in range(self.d):
                src_ref = EdgeRef(c * nb + src.polygon, src.side)
                labels[src_ref] = label
                target_copy = c if pair is None else pair[label[1] < 0][c]
                gluing[src_ref] = EdgeRef(target_copy * nb + dst.polygon, dst.side)
        meta = dict(base.metadata)
        meta.update({"cover_degree": self.d})
        return TranslationSurface(base.polygons * self.d, gluing, labels, meta)

    def realized_index(self, copy: int, base_polygon: int) -> int:
        return copy * len(self.base.polygons) + base_polygon

    def to_json(self):
        m = self.monodromy
        k1, k2 = monodromy_indices(self.n)
        marked = {"k1": k1, "k2": k2}
        return {"n": self.n, "d": self.d, "monodromy": {**m.to_json(), **marked}, **marked,
                "sigma1": perms.cycles(m.image(k1), include_fixed=False),
                "sigma2": perms.cycles(m.image(k2), include_fixed=False)}


def _checked(n: int, d, monodromy: Monodromy | None = None):
    """The monodromy of a degree-d cover of X_n (standard by default), if
    X_n exists and the monodromy has its generators and permutes d
    sheets; else ValueError.  Transitivity is left to the caller."""
    if no_base_surface(n):
        raise ValueError("base surface requires n >= 5, n != 6 (n=4,6 are degenerate)")
    if monodromy is None:
        monodromy = standard_monodromy(n, d)
    if monodromy.degree != d or type(d) is not type(monodromy.degree):  # 3.0 == 3
        raise ValueError("monodromy degree disagrees with d")
    if monodromy.num_generators != num_generators(n):
        raise ValueError("monodromy has %d generators, X_%d has %d"
                         % (monodromy.num_generators, n, num_generators(n)))
    return monodromy


def build_cover(n: int, d: int, monodromy: Monodromy | None = None) -> CoveringSurface:
    """The connected degree-d cover of X_n (standard monodromy by default)."""
    monodromy = _checked(n, d, monodromy)
    if not monodromy.is_transitive():
        raise IntransitiveMonodromy(NOT_TRANSITIVE % d)
    return CoveringSurface(n, monodromy)


def rotation_class(n: int, l: int) -> tuple[int, int]:
    """(r, j) with v_l = rho^j v_r: r = 0 for odd n, r = l mod 2 for even n.

    rho is the affine rotation of X_n, R for odd n and R^2 for even n
    (Veech 1989); it maps the cylinders of v_r onto those of v_l with
    equal heights and inverse moduli.
    """
    step = 1 if n % 2 else 2
    return l % step, l // step


def rotation_images(n: int, j: int) -> list[Word]:
    """rho^j on the generators x_i of pi_1(X_n), as freely reduced words.

    Even n: rho^j rotates the n-gon about its centre (the base point)
    and sends side i to side i + j, so x_i -> x_s for s = i + j mod n,
    read as x_{s-n/2}^-1 when s >= n/2.

    Odd n: x_i leaves P through side i and comes back through side n-1,
    the unlabelled spanning-tree edge to Q.  rho turns vertex i of P, at
    angle (4i - n - 2) pi/(2n), to angle (4i - n) pi/(2n), that of vertex
    i + (n+1)/2 of Q = -P; so rho^j shifts side indices by
    t = j (n+1)/2 mod n and, for odd j, swaps P and Q.  For even j the
    base point stays in P and x_i -> x_{i+t} x_{t-1}^-1.  For odd j it
    lands in Q and is joined back along the image of the tree edge,
    which crosses side t-1: x_i -> x_{t-1} x_{i+t}^-1.  A letter of side
    n-1 is the trivial word.
    """
    if n % 2 == 0:
        half = n // 2
        return [
            Word._of(((s, 1),) if s < half else ((s - half, -1),))
            for s in ((i + j) % n for i in range(half))
        ]
    t = j * (n + 1) // 2 % n
    back = (t - 1) % n
    images = []
    for i in range(n - 1):
        side = (i + t) % n
        letters = ((back, 1), (side, -1)) if j % 2 else ((side, 1), (back, -1))
        images.append(Word._of(tuple((g, s) for g, s in letters if g != n - 1)))
    return images


@lru_cache(maxsize=None)
def _base_decomposition(n: int, l: int):
    r, j = rotation_class(n, l)
    if not j:
        return tuple(decompose(build_base(n), unit_vector(n, l)))
    if n % 2 and j % 2 and j > 1:
        source, j = _base_decomposition(n, 1), j - 1  # v_1 reads v_0 from Q already
    elif n % 2 and j % 2:
        source = [c._replace(core_word=Word._of(c.core_word.letters[1:] + c.core_word.letters[:1]))
                  for c in reversed(_base_decomposition(n, 0))]
    else:
        source = _base_decomposition(n, r)
    images = rotation_images(n, j)
    return tuple(cyl._replace(core_word=cyl.core_word.substitute(images), bands=())
                 for cyl in source)


def base_decomposition(n: int, l: int):
    """Cached decomposition of X_n in direction v_l = rho^j v_r.

    Only v_r is traced (it alone carries bands).  rho^j keeps heights and
    circumferences and carries the listed v_r core words onto those that
    decompose reads in v_l, in its order: their images under
    rotation_images(n, j), freely reduced.  For odd n and odd j, rho^j
    carries Q onto P, so the listed words are those of v_0 read from Q,
    which R^n = -I gives without a trace.  -I maps P onto Q and reverses
    the v_0 levels.  The v_0 heights 2 sin(pi/n) sin(k pi/n), k even, are
    distinct (a tie needs k' = n - k, odd), so -I fixes each cylinder and
    maps its band in P onto its band in Q.  Every side glues P to Q, and
    a core word x_i x_{n-i}^-1 (x_{n-1} trivial) crosses two sides, so a
    cylinder has one band in P, which decompose lists first, and one in
    Q.  Read from Q, the cylinders come in reverse order and each word
    starts at its second letter.  Only v_1 reads them so: every other odd
    j derives v_l from v_1 by rho^(j-1), so odd n reads Q once.
    """
    return list(_base_decomposition(n, l))


def cover_cylinders(cover: CoveringSurface, direction_index: int):
    """Cover cylinders predicted from monodromy cycle structure.

    A cycle of length a of a base cylinder's core word glues a copies of
    that cylinder into one cover cylinder: height unchanged,
    circumference multiplied by a.  Must agree with decompose() run on
    the realized surface; the test suite checks exactly that.
    """
    out = []
    for cyl in base_decomposition(cover.n, direction_index):
        for a, repeat in cover.monodromy.cycle_type(cyl.core_word):
            out += [cyl._replace(circumference=a * cyl.circumference,
                                 inverse_modulus=a * cyl.inverse_modulus,
                                 core_word=cyl.core_word ** a, bands=())] * repeat
    return out
