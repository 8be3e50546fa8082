"""Invariants of the Teichmueller-curve quotient H/Gamma_n.

Everything is read off the coset action: cusps are orbits of the
primitive parabolic of each cusp class of the ambient triangle group
(relative width = orbit length), elliptic points are short orbits of
the torsion generators, and the genus is solved from the exact
orbifold Riemann-Hurwitz identity

    index * chi_orb(ambient) = 2 - 2g - #cusps - sum (1 - 1/q).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import perms
from .errors import QuotientBookkeepingError
from .veech import CosetTable


class QuotientInvariants(namedtuple("QuotientInvariants", "genus cusps elliptic chi_orb")):
    # cusps: sorted relative widths; elliptic: sorted (order, count) pairs;
    # chi_orb: a Fraction
    __slots__ = ()

    def to_json(self):
        return {
            "genus": self.genus,
            "cusps": list(self.cusps),
            "elliptic": [list(e) for e in self.elliptic],
            "chi_orb": "%d/%d" % (self.chi_orb.numerator, self.chi_orb.denominator),
            "elliptic_note": "derived from the coset action, not a stated result",
        }


def quotient_invariants(table: CosetTable) -> QuotientInvariants:
    pres = table.presentation
    chi_ambient = Fraction(pres.chi_orb_str)

    widths = []
    for _name, word in pres.parabolic_classes:
        perm = table.word_permutation(word)
        widths.extend(len(c) for c in perms.cycles(perm))
    widths.sort()

    elliptic_counts = {}
    elliptic_excess = Fraction(0)
    for order, _name, word in pres.elliptic_classes:
        perm = table.word_permutation(word)
        for cyc in perms.cycles(perm):
            if order % len(cyc):
                raise QuotientBookkeepingError(
                    "orbit length %d does not divide torsion order %d" % (len(cyc), order)
                )
            q = order // len(cyc)
            if q > 1:
                elliptic_counts[q] = elliptic_counts.get(q, 0) + 1
                elliptic_excess += 1 - Fraction(1, q)

    chi_sub = table.index * chi_ambient
    genus_twice = 2 - len(widths) - elliptic_excess - chi_sub
    if genus_twice.denominator != 1 or genus_twice.numerator % 2:
        raise QuotientBookkeepingError(
            "Riemann-Hurwitz identity does not close: 2g = %s" % genus_twice
        )
    genus = int(genus_twice) // 2
    if genus < 0:
        raise QuotientBookkeepingError("negative genus %d" % genus)
    return QuotientInvariants(
        genus=genus,
        cusps=tuple(widths),
        elliptic=tuple(sorted(elliptic_counts.items())),
        chi_orb=chi_sub,
    )
