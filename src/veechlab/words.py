"""Free-group words: sequences of letters (generator, sign).

Words in the fundamental-group basis x_0, x_1, ... of X_n name each
generator by its index and record edge crossings: crossing the unprimed
side x_i outward contributes (i, +1), crossing back through x_i'
contributes (i, -1).  Veech-group words name each generator by its
presentation symbol ("R", "T" or "r", "t", "z"); coset tables
(veech.CosetTable) act by them, and the tests evaluate them as exact
matrices (tests/oracles.py).
"""

from __future__ import annotations


class Word:
    __slots__ = ("letters",)

    def __init__(self, letters=()):
        # checks what a caller passes; a letter that is already a tuple is
        # kept, not copied.  Products, powers, inverses and substitutions
        # are built from their operands' checked letters (_of), so a power
        # w ** j refers j times to each of w's letter tuples
        ls = []
        for letter in letters:
            gen, sgn = letter
            if sgn not in (1, -1):
                raise ValueError("letter sign must be +1 or -1")
            ls.append(letter if type(letter) is tuple else (gen, sgn))
        object.__setattr__(self, "letters", tuple(ls))

    @classmethod
    def _of(cls, letters: tuple) -> Word:
        # a word of letters that a Word already checked, kept as they are
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    @staticmethod
    def generator(gen, sgn: int = 1) -> Word:
        return Word(((gen, sgn),))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other: Word) -> Word:
        return Word._of(self.letters + other.letters)

    def inverse(self) -> Word:
        """The reversed word with negated signs; equal letters share one
        negated tuple."""
        negated = {x: (x[0], -x[1]) for x in dict.fromkeys(self.letters)}
        return Word._of(tuple(map(negated.__getitem__, reversed(self.letters))))

    def __pow__(self, k: int) -> Word:
        if k < 0:
            return self.inverse() ** (-k)
        return Word._of(self.letters * k)

    def substitute(self, images) -> Word:
        """The freely reduced image under x_i -> images[i]."""
        out = []
        for g, s in self.letters:
            for letter in (images[g] if s > 0 else images[g].inverse()):
                if out and out[-1] == (letter[0], -letter[1]):
                    out.pop()
                else:
                    out.append(letter)
        return Word._of(tuple(out))

    def cyclic_normal_form(self) -> tuple:
        """Smallest rotation of the letter tuple; invariant of the free
        homotopy class of a cyclically reduced word up to rotation."""
        ls = self.letters
        if not ls:
            return ()
        return min(tuple(ls[i:] + ls[:i]) for i in range(len(ls)))

    def to_json(self):
        return [[g, s] for g, s in self.letters]

    def __repr__(self):
        if not self.letters:
            return "Word()"
        parts = []
        for g, s in self.letters:
            parts.append("%s" % g if s > 0 else "%s^-1" % g)
        return "Word(%s)" % "*".join(parts)
