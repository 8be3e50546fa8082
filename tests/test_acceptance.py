"""Acceptance suite: one test per criterion, one printed line each.

All checks are exact (zero tolerance) unless stated otherwise; the two
numeric comparisons (the sign regression and the lambda_5 spot value)
use 100-digit interval evaluation as their stated reference.
"""

import random

import mpmath

from veechlab import perms
from veechlab.certificates import (
    mutated_monodromy,
    sigma_T_claim,
    verify_quotient,
    verify_theorem,
)
from veechlab.coset import coset_enumerate
from veechlab.covering import build_cover, monodromy_indices, standard_monodromy
from veechlab.cylinders import (
    closed_form_base,
    cylinder_count_base,
    decompose,
    unit_vector,
)
from veechlab.field import CycloNumber, QQ, RealAlg, cyclotomic_coeffs, lambda_n
from veechlab.surface import build_base
from veechlab.veech import presentation_for, subgroup_words
from veechlab.words import Word
from veechlab.zcover import holonomy, infinite_singularities, z_cover_structure

from oracles import Mat2, gen_R, gen_T


def _report(number, text):
    print("ACCEPTANCE %02d PASS  %s" % (number, text))


def test_criterion_01_base_surface_invariants():
    for n in (5, 7, 9, 11, 13):
        s = build_base(n)
        assert s.genus() == (n - 1) // 2
        cps = s.cone_points()
        assert len(cps) == 1 and cps[0].angle_multiple == n - 2
    for n in (8, 12):
        s = build_base(n)
        cps = s.cone_points()
        assert len(cps) == 1
        assert s.genus() == n // 4
    s10 = build_base(10)
    assert len(s10.cone_points()) == 2
    assert s10.genus() == 2
    _report(1, "base genus and cone angles exact for n in {5,7,9,11,13,8,10,12}")


def test_criterion_02_cylinder_oracle_equivalence():
    for n in (5, 7, 9, 11, 13, 8, 10, 12):
        s = build_base(n)
        cyls = decompose(s, unit_vector(n, 0))
        count = cylinder_count_base(n)
        assert len(cyls) == count
        got = sorted((c.height.key(), c.circumference.key()) for c in cyls)
        want = sorted(
            (h.key(), l.key())
            for h, l in (closed_form_base(n, i) for i in range(1, count + 1))
        )
        assert got == want
        lam = lambda_n(n)
        assert all(c.inverse_modulus == lam for c in cyls)
    _report(2, "tracer equals closed forms exactly; all horizontal moduli are lambda_n")


def test_criterion_03_even_diagonal_moduli():
    for n in (8, 10, 12):
        s = build_base(n)
        lam = lambda_n(n)
        for l in range(1, n, 2):
            cyls = decompose(s, unit_vector(n, l))
            halves = [c for c in cyls if c.inverse_modulus == lam / 2]
            assert len(halves) == 1
            assert all(c.inverse_modulus == lam for c in cyls if c not in halves)
    _report(3, "odd-index directions: one cylinder at lambda/2, the rest at lambda")


def test_criterion_04_monodromy_formulas():
    def displayed(d):
        if d % 2 == 0:
            return perms.from_cycles(
                d, [tuple(range(0, d, 2)), (1,) + tuple(range(d - 1, 2, -2))]
            )
        return perms.from_cycles(
            d, [tuple(range(0, d, 2)) + tuple(range(d - 2, 0, -2))]
        )

    for n in (5, 8):
        for d in range(2, 9):
            m = standard_monodromy(n, d)
            k1, k2 = monodromy_indices(n)
            w = Word.generator(k1) * Word.generator(k2).inverse()
            assert m.eval_word(w) == displayed(d)
    _report(4, "m(x_k1 x_k2^-1) equals the displayed cycle forms for d in 2..8")


def test_criterion_05_theorem_verification_and_mutations():
    grid = [(n, d) for n in (5, 7, 9) for d in range(2, 9)]
    grid += [(n, d) for n in (8, 10) for d in range(2, 7)]
    for n, d in grid:
        assert verify_theorem(n, d).verdict == "pass", (n, d)
        mutated = verify_theorem(n, d, monodromy=mutated_monodromy(n, d))
        assert mutated.verdict == "fail", (n, d)
    _report(5, "verify_theorem passes on the grid; every mutation fails a sub-certificate")


def test_criterion_06_coset_index():
    for n in (5, 7, 9, 11):
        assert coset_enumerate(presentation_for(n), subgroup_words(n)).index == n
    for n in (8, 10, 12):
        assert coset_enumerate(presentation_for(n), subgroup_words(n)).index == n // 2
    _report(6, "coset enumeration gives index n (odd) and n/2 (even)")


def test_criterion_07_quotient_invariants():
    for n in (5, 7, 9, 11, 13):
        q = verify_quotient(n)
        assert q.genus == 0 and len(q.cusps) == (n + 1) // 2
    for n in (8, 10, 12):
        q = verify_quotient(n)
        assert q.genus == 0 and len(q.cusps) == (n + 2) // 2
    assert verify_quotient(5).cusps == (1, 2, 2)
    _report(7, "quotients have genus 0 with the stated cusp counts; n=5 widths {1,2,2}")


def test_criterion_08_infinite_covers():
    for n in (5, 7, 8, 10):
        assert infinite_singularities(n) == 4
        assert z_cover_structure(n)["deck_group"] == "Z"
    cover = build_cover(8, 2)
    k1, k2 = monodromy_indices(8)
    w = [(0, 0, k2, 1), (1, 0, k2, -1)]
    assert holonomy(cover, w).is_zero()
    for n in (5, 8):
        assert verify_theorem(n, infinite=True).verdict == "pass"
    _report(8, "4 infinite-angle singularities; Z-cover verified; hol(w)=0; theorem at d=inf")


def test_criterion_09_derived_cross_checks():
    cover = build_cover(5, 2)
    genus_euler = cover.surface.genus()
    from veechlab.zcover import singularity_loops

    image = cover.monodromy.eval_word(singularity_loops(5)[0])
    assert image == perms.identity(2)  # m(p) = id for d = 2
    chi = 2 * (2 - 2 * cover.base.genus()) - sum(
        len(c) - 1 for c in perms.cycles(image)
    )
    genus_rh = (2 - chi) // 2
    assert genus_euler == genus_rh == 3
    core5 = perms.from_cycles(5, [(0, 2, 4, 3, 1)])
    assert sigma_T_claim(5) == perms.compose(core5, core5)
    _report(9, "genus(Y_5,2) = 3 by both routes; sigma_T(d=5) is the core cycle squared")


def test_criterion_10_exactness_regression():
    rng = random.Random(315)
    checked = 0
    while checked < 1000:
        n = rng.choice([5, 7, 8, 9, 10, 11, 12, 13])
        N = 4 * n
        phi = len(cyclotomic_coeffs(N)) - 1
        z = CycloNumber(N, [QQ(rng.randint(-60, 60)) / rng.randint(1, 12) for _ in range(phi)])
        x = RealAlg(z + z.conjugate())
        if x.is_zero():
            continue
        with mpmath.workdps(100):
            val = mpmath.mpf(0)
            for j, c in enumerate(x.coeffs):
                if c:
                    val += mpmath.mpf(int(c.numerator)) / int(c.denominator) * mpmath.cos(
                        2 * mpmath.pi * j / N
                    )
            assert x.sign() == (1 if val > 0 else -1)
        checked += 1
    for n in range(5, 14):
        R, T = gen_R(n), gen_T(n)
        I = Mat2.identity(4 * n)
        assert R ** n == -I
        assert R ** (2 * n) == I
        assert (T.inverse() * R) ** 2 == -I
        assert R * T * R.inverse() == (R ** (n + 2)) * T.inverse()
        assert T * R.inverse() * T == -R
    _report(10, "1000 sign queries match 100-digit intervals; matrix identities for n in 5..13")
