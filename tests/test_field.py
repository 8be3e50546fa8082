import inspect
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from veechlab import covering, field
from veechlab.covering import base_decomposition
from veechlab.errors import MalformedCertificate, SignUndetermined, VeechLabError
from veechlab.planar import Vec2
from veechlab.field import (
    QQ,
    CycloNumber,
    RealAlg,
    cos_pi_over,
    cyclo_root,
    cyclotomic_coeffs,
    lambda_n,
    product_sum,
    quarter_trig,
    sin_pi_over,
)

from oracles import Mat2


def test_cyclo_root_basics():
    i = cyclo_root(4, 1)
    assert i * i == -1
    assert cyclo_root(20, 1) ** 20 == 1
    assert cyclo_root(20, 10) == -1
    assert cyclo_root(12, 0) == 1


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8, 12, 20, 28, 36, 40, 44, 52,
                               1024, 2187, 2310, 4004])
def test_cyclotomic_polynomial_against_sympy(N):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(N, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_coeffs(N)) == [int(c) for c in expected]


@pytest.mark.parametrize("N", [1, 2, 7, 20, 28, 60, 100])
def test_power_table_rows_are_remainders_of_x_to_the_k(N):
    x = sympy.symbols("x")
    cyclo = sympy.Poly(sympy.cyclotomic_poly(N, x), x)
    ctx = field.FieldContext(N)
    phi = cyclo.degree()
    assert ctx.phi == phi and len(ctx.powers) == max(N, 2 * phi - 1)
    for k, row in enumerate(ctx.powers):
        remainder = sympy.Poly(x ** k, x).rem(cyclo).all_coeffs()[::-1]
        assert row == [(j, int(c)) for j, c in enumerate(remainder) if c], k


def test_the_context_of_conductor_4004_fits_in_80_mib():
    # a fresh interpreter, started by a small one: a process's ru_maxrss
    # keeps the high-water mark of the process that spawned it, here the
    # test runner's
    src = str(Path(field.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import resource\n"
             "from veechlab.field import get_context\n"
             "get_context(4004)\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    spawn = "import subprocess, sys; subprocess.run([sys.executable, '-c', %r], check=True)" % probe
    run = subprocess.run([sys.executable, "-c", spawn], env=env, capture_output=True, text=True,
                         check=True)
    assert int(run.stdout) < 80 * 1024  # ru_maxrss is in KiB on Linux


def test_cos_pi_over_5_minimal_polynomial():
    c = cos_pi_over(5)
    assert (4 * c * c - 2 * c - 1).is_zero()
    assert c.sign() > 0


def test_sin_pi_over_4_squared():
    assert sin_pi_over(4) ** 2 == RealAlg.from_rational(16, QQ("1/2"))


def test_lambda_5_matches_200_digit_evaluation():
    with mpmath.workdps(200):
        expected = 2 / mpmath.tan(mpmath.pi / 5)
        got = mpmath.mpf(lambda_n(5).approx(60))
        assert abs(expected - got) < mpmath.mpf(10) ** -50
    assert lambda_n(5).approx(11).strip().startswith("2.7527638409")


def test_sign_examples():
    assert lambda_n(7).sign() == 1
    assert RealAlg.zero(20).sign() == 0
    assert (cos_pi_over(5) - sin_pi_over(5)).sign() == 1
    assert (-lambda_n(9)).sign() == -1


def _random_element(rng, n):
    N = 4 * n
    phi = len(cyclotomic_coeffs(N)) - 1
    coeffs = [QQ(rng.randint(-99, 99)) / rng.randint(1, 20) for _ in range(phi)]
    return CycloNumber(N, coeffs)


def _random_real(rng, n):
    z = _random_element(rng, n)
    return RealAlg(z + z.conjugate())


def test_sign_agrees_with_100_digit_intervals():
    rng = random.Random(20260809)
    checked = 0
    while checked < 1000:
        n = rng.choice([5, 7, 8, 9, 10, 11, 12, 13])
        x = _random_real(rng, n)
        if x.is_zero():
            continue
        with mpmath.workdps(100):
            val = mpmath.mpf(0)
            for j, c in enumerate(x.coeffs):
                if c:
                    val += mpmath.mpf(int(c.numerator)) / int(c.denominator) * mpmath.cos(
                        2 * mpmath.pi * j / x.N
                    )
            numeric = 1 if val > 0 else -1
        assert x.sign() == numeric
        checked += 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_axioms(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = data.draw(st.sampled_from([5, 7, 8, 9]))
    a = _random_element(rng, n)
    b = _random_element(rng, n)
    c = _random_element(rng, n)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == 1
        assert (a.inverse()).inverse() == a


@pytest.mark.parametrize("n", [5, 7, 8, 9])
def test_sin_multiples_match_angle_addition(n):
    # sin(k*pi/n) via zeta_{2n}^k equals the angle-addition recurrence
    c1, s1 = cos_pi_over(n), sin_pi_over(n)
    cos_k, sin_k = RealAlg.one(4 * n), RealAlg.zero(4 * n)
    for k in range(1, 2 * n):
        cos_k, sin_k = cos_k * c1 - sin_k * s1, sin_k * c1 + cos_k * s1
        ck, sk = quarter_trig(n, 2 * k)
        assert sin_k == sk
        assert cos_k == ck


@pytest.mark.parametrize("n", [5, 8, 9])
def test_prosthaphaeresis_identities(n):
    # cos x - cos y = -2 sin((x+y)/2) sin((x-y)/2), and the sine analogue,
    # exactly for x, y multiples of pi/n
    for a in range(0, 2 * n, 3):
        for b in range(1, 2 * n, 4):
            ca, sa = quarter_trig(n, 2 * a)
            cb, sb = quarter_trig(n, 2 * b)
            cp, sp = quarter_trig(n, a + b)
            cm, sm = quarter_trig(n, a - b)
            assert ca - cb == -2 * sp * sm
            assert sa + sb == 2 * sp * cm


def test_zero_test_is_symbolic():
    # an element that vanishes despite messy coefficients
    c = cos_pi_over(5)
    x = (4 * c * c - 2 * c - 1) * lambda_n(5)
    assert x.is_zero()
    assert x.sign() == 0


def test_serialization_round_trip():
    x = lambda_n(7) - 3 * cos_pi_over(7) / 2
    # the dense form, which the surface and cylinders commands print, has
    # one coefficient per power below phi(28) = 12 and a decimal
    # approximation, and the sparse form its nonzero coefficients alone;
    # the sparse form reads back
    dense, data = x.to_json(), x.to_json(sparse=True)
    assert dense["conductor"] == 28 and len(dense["coeffs"]) == 12
    assert isinstance(dense["coeffs"][0], str)
    assert data == {"coeffs": [[j, c] for j, c in enumerate(dense["coeffs"]) if c != "0"]}
    assert dense["approx"] == x.approx(20)
    assert len(dense["approx"].replace("-", "").replace(".", "").lstrip("0")) >= 20
    assert RealAlg.from_json(data, 28) == x


def test_real_constructor_rejects_non_real():
    with pytest.raises(ValueError):
        RealAlg(cyclo_root(20, 1))


def test_mixed_conductor_rejected():
    with pytest.raises(ValueError):
        cos_pi_over(5) + cos_pi_over(7)


def test_comparisons():
    assert cos_pi_over(5) > sin_pi_over(5)
    assert lambda_n(5) < 3
    assert lambda_n(5) > QQ("11/4")
    assert abs(-lambda_n(5)) == lambda_n(5)


# ---------------------------------------------------------------------------
# the integer-numerator core against a per-coefficient Fraction reference


def _ref_reduce(raw, N):
    # long division by the monic Phi_N, coefficient by coefficient
    cyclo = cyclotomic_coeffs(N)
    phi = len(cyclo) - 1
    raw = [Fraction(c) for c in raw]
    for k in range(len(raw) - 1, phi - 1, -1):
        c = raw[k]
        if c:
            for j, pj in enumerate(cyclo):
                raw[k - phi + j] -= c * pj
    return (raw + [Fraction(0)] * phi)[:phi]


def _ref_mul(a, b, N):
    raw = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            raw[i + j] += ai * bj
    return _ref_reduce(raw, N)


def _ref_conjugate(a, N):
    raw = [Fraction(0)] * N
    for j, c in enumerate(a):
        raw[(N - j) % N] += c
    return _ref_reduce(raw, N)


def _ref_sign(a, N):
    with mpmath.workdps(200):
        val = sum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(2 * mpmath.pi * j / N)
            for j, c in enumerate(a)
        )
        return (val > 0) - (val < 0)


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _ref_inverse(a, N):
    # extended Euclid over Fraction in Q[x] against Phi_N
    r0 = [Fraction(c) for c in cyclotomic_coeffs(N)]
    r1 = _trim([Fraction(c) for c in a])
    t0, t1 = [], [Fraction(1)]
    while len(r1) > 1:
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        for k in range(len(rem) - len(r1), -1, -1):
            c = rem[k + len(r1) - 1] / r1[-1]
            if c:
                q[k] = c
                for j, dj in enumerate(r1):
                    rem[k + j] -= c * dj
        tn = t0 + [Fraction(0)] * (len(q) + len(t1) - 1 - len(t0))
        for i, qi in enumerate(q):
            for j, tj in enumerate(t1):
                tn[i + j] -= qi * tj
        r0, r1 = r1, _trim(rem)
        t0, t1 = t1, _trim(tn)
    inv = [c / r1[0] for c in t1]
    return inv + [Fraction(0)] * (len(a) - len(inv))


def _random_sparse(rng, N, density=0.6):
    phi = len(cyclotomic_coeffs(N)) - 1
    coeffs = [
        Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 6, 7, 12, 35]))
        if rng.random() < density else Fraction(0)
        for _ in range(phi)
    ]
    return CycloNumber(N, coeffs)


def _assert_canonical(x):
    assert x.den > 0
    assert len(x.num) == len(cyclotomic_coeffs(x.N)) - 1
    assert gcd(*x.num, x.den) == 1
    if x.is_zero():
        assert x.den == 1


@pytest.mark.parametrize("N", [20, 36, 60, 100])
def test_integer_core_matches_fraction_reference(N):
    rng = random.Random(7000 + N)
    for _ in range(12):
        a, b = _random_sparse(rng, N), _random_sparse(rng, N)
        ca, cb = list(a.coeffs), list(b.coeffs)
        for got, want in (
            (a + b, [x + y for x, y in zip(ca, cb)]),
            (a - b, [x - y for x, y in zip(ca, cb)]),
            (a * b, _ref_mul(ca, cb, N)),
            (a * Fraction(-5, 6), [x * Fraction(-5, 6) for x in ca]),
            (a.conjugate(), _ref_conjugate(ca, N)),
        ):
            _assert_canonical(got)
            assert list(got.coeffs) == want
        # divide in every trial, by a dense divisor
        c = _random_sparse(rng, N)
        q = a / c
        _assert_canonical(q)
        assert _ref_mul(list(q.coeffs), list(c.coeffs), N) == ca
        r = a + a.conjugate()
        assert RealAlg(r).sign() == _ref_sign(list(r.coeffs), N)


def test_equal_values_share_key_and_hash():
    rng = random.Random(31)
    for N in (20, 36, 60, 100):
        a, b = _random_sparse(rng, N), _random_sparse(rng, N, density=0.15)
        if b.is_zero():
            continue
        routes = [a, (a * b) / b, (a + b) - b, -(-a), a * 3 / 3]
        scaled = CycloNumber(N, [Fraction(c.numerator * 4, c.denominator * 4) for c in a.coeffs])
        routes.append(scaled)
        for x in routes:
            _assert_canonical(x)
            assert x == a
            assert hash(x) == hash(a)
            r = RealAlg(x + x.conjugate())
            assert r.key() == RealAlg(a + a.conjugate()).key()
            assert hash(r) == hash(RealAlg(a + a.conjugate()))
        zero = a - a
        assert zero.num == (0,) * len(a.num) and zero.den == 1
        assert zero == CycloNumber.zero(N)


def test_rational_elements_hash_as_the_numbers_they_equal():
    for N in (1, 20, 404):
        for q in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
            for x in (RealAlg.from_rational(N, q), CycloNumber.from_rational(N, q)):
                assert x == q and hash(x) == hash(q)
                assert len({x, q}) == 1
    assert len({RealAlg.one(20), 1}) == 1
    assert len({RealAlg.from_rational(20, Fraction(1, 2)), Fraction(1, 2)}) == 1


# the product kernel and the fused a*b +- c*d on zero, sparse and dense
# residues; 1 and 2 have phi = 1, 404 = 4 * 101 has long rows of powers
_KERNEL_CONDUCTORS = [1, 2, 7, 20, 28, 36, 60, 100, 404]


def _residue(data, rng, phi):
    kind = data.draw(st.sampled_from(["zero", "sparse", "dense"]))
    if kind == "zero":
        return [0] * phi
    density = 1.0 if kind == "dense" else 2.0 / phi
    return [rng.randint(-30, 30) if rng.random() < density else 0 for _ in range(phi)]


def _element(data, rng, N, real):
    phi = len(cyclotomic_coeffs(N)) - 1
    den = data.draw(st.sampled_from([1, 1, 2, 3, 35]))
    x = CycloNumber(N, [Fraction(a, den) for a in _residue(data, rng, phi)])
    return RealAlg(x + x.conjugate()) if real else x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_kernel_is_the_remainder_of_the_dense_product(data):
    N = data.draw(st.sampled_from(_KERNEL_CONDUCTORS))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    ctx = field.get_context(N)
    a, b, c, d = (_residue(data, rng, ctx.phi) for _ in range(4))
    s, t = data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9))
    x = sympy.symbols("x")
    cyclo = sympy.Poly(sympy.cyclotomic_poly(N, x), x)

    def poly(r):
        return sympy.Poly(r[::-1], x)

    def coeffs(p):
        out = [int(v) for v in p.rem(cyclo).all_coeffs()[::-1]]
        return out + [0] * (ctx.phi - len(out))

    assert ctx.product(a, b) == coeffs(poly(a) * poly(b))
    assert ctx.product(a, b, s, c, d, t) == coeffs(s * poly(a) * poly(b) + t * poly(c) * poly(d))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fused_vector_and_matrix_products_equal_their_operator_expressions(data):
    N = data.draw(st.sampled_from(_KERNEL_CONDUCTORS))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    # each entry real or not: the result is a RealAlg exactly when every
    # operand is one, as it is for the operators
    a, b, c, d, e, f, g, h = (_element(data, rng, N, data.draw(st.booleans())) for _ in range(8))

    def same(got, want):
        assert type(got) is type(want) and got.key() == want.key()
        _assert_canonical(got)

    same(product_sum(a, b, c, d), a * b + c * d)
    same(product_sum(a, b, c, d, -1), a * b - c * d)
    v, w = Vec2(a, b), Vec2(c, d)
    same(v.cross(w), a * d - b * c)
    same(v.dot(w), a * c + b * d)
    m, k = Mat2(a, b, c, d), Mat2(e, f, g, h)
    same(m.det(), a * d - b * c)
    mk = m * k
    for got, want in zip((mk.a, mk.b, mk.c, mk.d),
                         (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)):
        same(got, want)
    mv = m.apply(Vec2(e, f))
    same(mv.x, a * e + b * f)
    same(mv.y, c * e + d * f)


@pytest.mark.parametrize("slot", range(4))
def test_fused_products_reject_mixed_conductors(slot):
    operands = [cos_pi_over(5)] * 4
    operands[slot] = cos_pi_over(7)
    with pytest.raises(ValueError, match="mixed conductors"):
        product_sum(*operands)
    with pytest.raises(ValueError, match="mixed conductors"):
        Vec2(*operands[:2]).cross(Vec2(*operands[2:]))
    with pytest.raises(ValueError, match="mixed conductors"):
        Mat2(*operands) * Mat2(*operands)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="mixed conductors"):
            op(cos_pi_over(5), cyclo_root(28, slot))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_arithmetic_is_real_exactly_when_both_operands_are(data):
    N = data.draw(st.sampled_from([20, 36, 60]))
    phi = len(cyclotomic_coeffs(N)) - 1
    coeff = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 6, 7, 12, 35]))

    def element():
        return CycloNumber(N, data.draw(st.lists(coeff, min_size=phi, max_size=phi)))

    x, y, z = element(), element(), element()
    a, b = RealAlg(x + x.conjugate()), RealAlg(y + y.conjugate())
    assume(not a.is_zero() and not b.is_zero() and not z.is_real())
    # the same values, held as plain CycloNumbers
    A, B = CycloNumber(N, a.coeffs), CycloNumber(N, b.coeffs)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        got = op(a, b)
        assert type(got) is RealAlg and got == op(A, B)
        for got, want in ((op(a, z), op(A, z)), (op(z, a), op(z, A))):
            assert type(got) is CycloNumber and got == want
    # a rational operand takes the other operand's class, and so do the
    # unary operations
    for got in (a + 3, 3 - a, a * Fraction(-2, 7), Fraction(5, 3) / a, -a, a ** 2, a ** -1,
                a.inverse(), a.conjugate()):
        assert type(got) is RealAlg
    for got in (z + 3, 3 - z, z * Fraction(-2, 7), Fraction(5, 3) / z, -z, z ** -1, z.inverse()):
        assert type(got) is CycloNumber
    assert type(A) is CycloNumber and a == A and A == a and hash(a) == hash(A)
    assert a.key() == A.key()
    with pytest.raises(TypeError):
        a < z
    with pytest.raises(ValueError):
        RealAlg(z)
    parsed = RealAlg.from_json(a.to_json(sparse=True), a.N)
    assert type(parsed) is RealAlg and parsed == a


def test_unreduced_constructor_input_is_reduced():
    # zeta^phi given as a raw coefficient list reduces to the stored root
    N = 20
    phi = len(cyclotomic_coeffs(N)) - 1
    raw = [0] * phi + [Fraction(1, 2)]
    assert CycloNumber(N, raw) == cyclo_root(N, phi) * Fraction(1, 2)


def test_integer_predicate_uses_the_common_denominator():
    assert RealAlg.from_rational(20, 4).is_integer()
    assert not RealAlg.from_rational(20, Fraction(7, 2)).is_integer()
    # an algebraic integer with denominator 1 is still not a rational integer
    c, _ = quarter_trig(5, 2)
    assert not (c + c).is_integer()


def test_inverse_cache_keeps_conductors_apart():
    # 1 + zeta has the same numerators in conductors 15, 16, 20 and 24
    # (all of degree 8) but a different inverse in each
    inverses = {}
    for N in (20, 24, 16, 15, 20, 24):
        x = cyclo_root(N, 0) + cyclo_root(N, 1)
        assert x.num == (1, 1, 0, 0, 0, 0, 0, 0) and x.den == 1
        inv = x.inverse()
        assert inv.N == N
        assert x * inv == 1
        inverses.setdefault(N, inv)
        assert inverses[N] == inv
    assert len({inv.num + (inv.den,) for inv in inverses.values()}) == 4


def test_inverse_of_zero_raises_every_time():
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            CycloNumber.zero(20).inverse()
        with pytest.raises(ZeroDivisionError):
            RealAlg.one(20) / RealAlg.zero(20)


@pytest.mark.parametrize("n", [5] + list(range(7, 26)))
def test_inverse_matches_fraction_euclid_on_traced_divisors(monkeypatch, n):
    # every divisor the tracer and decompose meet in X_n, against the
    # Fraction reference
    divisors = set()
    inverse = field._inverse

    def collecting(N, num, den):
        divisors.add((N, num, den))
        return inverse(N, num, den)

    monkeypatch.setattr(field, "_inverse", collecting)
    covering._base_decomposition.cache_clear()
    for l in range(n):
        base_decomposition(n, l)
    assert divisors
    for N, num, den in divisors:
        got = inverse(N, num, den)
        _assert_canonical(got)
        assert list(got.coeffs) == _ref_inverse([Fraction(a, den) for a in num], N)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inverse_of_dense_elements(data):
    N = data.draw(st.sampled_from([20, 36, 60, 100, 164]))
    phi = len(cyclotomic_coeffs(N)) - 1
    coeff = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 6, 7, 12, 35]))
    x = CycloNumber(N, data.draw(st.lists(coeff, min_size=phi, max_size=phi)))
    assume(not x.is_zero())
    inv = x.inverse()
    _assert_canonical(inv)
    assert x * inv == 1
    assert inv.inverse() == x


def test_inverse_builds_no_fraction(monkeypatch):
    rng = random.Random(11)
    elements = [_random_sparse(rng, N) for N in (20, 60, 100)]
    field._inverse.cache_clear()

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(field, "_QQ", no_fraction)
    inverses = [x.inverse() for x in elements]
    monkeypatch.undo()
    for x, inv in zip(elements, inverses):
        _assert_canonical(inv)
        assert x * inv == 1


# ---------------------------------------------------------------------------
# the integer cosine table and the decimal approximations, against mpmath


@pytest.mark.parametrize("prec", [64, 80, 256, 1024])
@pytest.mark.parametrize("N", [20, 28, 100, 244, 404, 804])
def test_cos_fixed_is_within_one_of_mpmath(N, prec):
    table = field._cos_fixed(N, prec)
    assert len(table) == sympy.totient(N) and table[0] == 1 << prec
    with mpmath.workprec(3 * prec):
        for j, c in enumerate(table):
            assert abs(c - mpmath.ldexp(mpmath.cos(2 * mpmath.pi * j / N), prec)) <= 1
    if prec == 80:
        with mpmath.workprec(3 * prec):
            for j, f in enumerate(field._float_cos_table(N)):
                assert abs(f - mpmath.cos(2 * mpmath.pi * j / N)) <= 2.0 ** -53


def _mpmath_approx(x, digits):
    # approx as it was computed with mpmath, at digits + 15 decimal places
    with mpmath.workdps(digits + 15):
        val = mpmath.mpf(0)
        for j, c in enumerate(x.coeffs):
            if c:
                val += mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(
                    2 * mpmath.pi * j / x.N)
        return mpmath.nstr(val, digits, strip_zeros=False)


_APPROX_DIGITS = (8, 12, 20, 25)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_approx_matches_mpmath_nstr(data):
    n = data.draw(st.sampled_from([5, 8, 9, 12, 25]))
    N = 4 * n
    phi = int(sympy.totient(N))
    coeffs = [Fraction(0)] * phi
    for j, p, q in data.draw(st.lists(st.tuples(
            st.integers(0, phi - 1), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)),
            min_size=1, max_size=4)):
        coeffs[j] += Fraction(p, q)
    z = CycloNumber(N, coeffs)
    # scaled by 10^-30 .. 10^30, so that both notations occur
    x = RealAlg(z + z.conjugate()) * Fraction(10) ** data.draw(st.integers(-30, 30))
    for k in _APPROX_DIGITS:
        assert x.approx(k) == _mpmath_approx(x, k)


@pytest.mark.parametrize("value", [
    lambda_n(9), -lambda_n(9), lambda_n(25) * Fraction(1, 10 ** 7), -cos_pi_over(7) * 10 ** 21,
    cos_pi_over(5) - sin_pi_over(5), lambda_n(7) - 4,
    RealAlg.zero(20), RealAlg.from_rational(20, Fraction(3, 20)), RealAlg.from_rational(20, Fraction(-1, 4)),
    RealAlg.from_rational(36, Fraction(123456785, 10 ** 9)), RealAlg.from_rational(36, Fraction(1, 3 * 10 ** 8)),
    RealAlg.from_rational(36, Fraction(999999999995, 10 ** 12)), RealAlg.from_rational(36, 10 ** 25 + 5),
    RealAlg.from_rational(36, Fraction(3, 20) + Fraction(1, 2 ** 50)),
    RealAlg.from_rational(36, Fraction(123456789012345678905, 10 ** 21) + Fraction(1, 2 ** 100)),
])
def test_approx_matches_mpmath_nstr_examples(value):
    # negative values, values below 1e-6 and above 1e20, rationals on a
    # decimal rounding boundary, and two just above one, which mpmath
    # rounds down because it truncates to a fixed number of bits first
    for k in _APPROX_DIGITS + (1, 2, 3):
        assert value.approx(k) == _mpmath_approx(value, k)
    assert float(value) == float(mpmath.mpf(value.approx(25)))


def test_interval_value_is_an_exact_bracket():
    # integer numerators over the positive den << prec
    x = cos_pi_over(7) - Fraction(9, 10)
    for prec in (64, 128):
        lo, hi = field._interval_value((x.num, x.den), x.N, prec)
        assert type(lo) is int and type(hi) is int
        q = x.den << prec
        with mpmath.workdps(60):
            assert mpmath.mpf(lo) / q < mpmath.cos(mpmath.pi / 7) - mpmath.mpf(9) / 10 < mpmath.mpf(hi) / q


def test_interval_value_narrows_with_precision():
    assert list(inspect.signature(field._interval_value).parameters)[2] == "prec"
    x = lambda_n(25) - 15
    widths = []
    for prec in (64, 128, 256, 512):
        lo, hi = field._interval_value((x.num, x.den), x.N, prec)
        q = x.den << prec
        assert 0 < lo <= hi
        widths.append(Fraction(hi - lo, q))
        assert abs(float(Fraction(lo, q)) - float(x)) < 1e-12
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))


def test_interval_refinement_decides_what_the_float_filter_leaves_open():
    # cos(pi/5) minus its floor and ceiling at 20 decimals: too close to
    # zero for the float filter, so the interval loop decides the sign
    c = cos_pi_over(5)
    with mpmath.workdps(60):
        scaled = mpmath.cos(mpmath.pi / 5) * 10 ** 20
        for p in (int(mpmath.floor(scaled)), int(mpmath.ceil(scaled))):
            x = c - RealAlg.from_rational(20, Fraction(p, 10 ** 20))
            expected = int(mpmath.sign(scaled - p))
            for y, s in ((x, expected), (-x, -expected)):
                assert y.N == 20
                assert field._float_sign_filter(y.num, y.den, field._float_cos_table(20)) is None
                assert y.sign() == s != 0


def test_interval_refinement_alone_orders_as_with_the_float_filter(monkeypatch):
    rng = random.Random(20261019)
    cases = []
    for n in (5, 15, 25):  # conductors 20, 60 and 100
        for _ in range(40):
            x, y = _random_real(rng, n), _random_real(rng, n)
            cases.append((x, y, x.sign(), x < y))
    monkeypatch.setattr(field, "_float_sign_filter", lambda *a: None)
    for x, y, s, less in cases:
        assert x.sign() == s
        assert (x < y) == less


def test_unseparated_sign_raises_typed_error(monkeypatch):
    monkeypatch.setattr(field, "_float_sign_filter", lambda *a: None)
    monkeypatch.setattr(field, "_interval_value", lambda x, N, prec: (-1, 1))
    with pytest.raises(SignUndetermined) as info:
        RealAlg.from_rational(28, Fraction(3, 7)).sign()
    assert isinstance(info.value, VeechLabError)
    assert info.value.conductor == 28
    assert info.value.prec == 1 << 22


# ---------------------------------------------------------------------------
# parsing serialised values against the Fraction reference


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_from_json_matches_fraction_parse(data):
    # a real element written with coefficients out of lowest terms
    # ("2/4"), zeros ("0/3", "-0") and, past phi(N), a multiple of Phi_N;
    # a zero coefficient's pair may be left out
    N = data.draw(st.sampled_from([20, 36, 60, 100]))
    cyclo = cyclotomic_coeffs(N)
    phi = len(cyclo) - 1
    fractions = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4)
    x = CycloNumber(N, data.draw(st.lists(fractions, min_size=phi, max_size=phi)))
    raw = list((x + x.conjugate()).coeffs)
    extra = data.draw(st.integers(0, phi - 1))
    if extra:
        c = data.draw(fractions)
        raw += [Fraction(0)] * extra
        for j, a in enumerate(cyclo):
            raw[extra - 1 + j] += c * a
    # scale k > 1 writes q as kp/kq; k = 0 writes a zero as "-0"
    scales = data.draw(st.lists(st.integers(0, 4), min_size=len(raw), max_size=len(raw)))
    strings = [
        "%d/%d" % (q.numerator * k, q.denominator * k) if k > 1 else
        "-0" if k == 0 and not q else str(q)
        for q, k in zip(raw, scales)
    ]
    want = CycloNumber(N, [Fraction(s) for s in strings])
    kept = data.draw(st.lists(st.booleans(), min_size=len(raw), max_size=len(raw)))
    pairs = [[j, c] for j, (c, keep) in enumerate(zip(strings, kept)) if keep or Fraction(c)]
    got = RealAlg.from_json({"coeffs": pairs}, N)
    assert (got.N, got.num, got.den) == (want.N, want.num, want.den)
    assert got.key() == RealAlg(want).key()


@pytest.mark.parametrize("bad", ["0.5", "1e3", " 1", "1 ", "1/0", "", "+1", "1/-2", "1_000",
                                 "\u0663", "1/2/3", "--1", 1, None, ["1"]])
def test_from_json_rejects_coefficients_outside_the_grammar(bad):
    with pytest.raises(MalformedCertificate):
        RealAlg.from_json({"coeffs": [[0, "1"], [1, bad]]}, 20)


@pytest.mark.parametrize("data", [
    {},
    {"coeffs": "1"},
    {"coeffs": ["1"]},  # a coefficient without its power
    {"coeffs": [[0, "1", "2"]]},
    {"coeffs": [["0", "1"]]},
    {"coeffs": [[True, "1"]]},
    {"coeffs": [[1, "1"], [0, "1"]]},  # powers not increasing
    {"coeffs": [[0, "1"], [0, "1"]]},  # a power twice
    {"coeffs": [[-1, "1"]]},
    {"coeffs": [[1, "1"]]},  # zeta_20 is not real
    {"coeffs": [[15, "1"]]},  # a power past 2*phi(20) - 2
    {"coeffs": [[0, "1" * 5000]]},  # more digits than int() converts
    ["1"],
])
def test_from_json_rejects_malformed_values(data):
    with pytest.raises(MalformedCertificate) as info:
        RealAlg.from_json(data, 20)
    # handlers written for the untyped errors still catch it
    assert isinstance(info.value, ValueError) and isinstance(info.value, VeechLabError)
