"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are residues modulo the N-th cyclotomic polynomial, stored as
integer numerators over one common positive denominator (the layout of
FLINT's fmpq_poly), with memoised integer inverses: an extended Euclid
on the numerators that never leaves Z.  For a regular n-gon context the
conductor is N = 4n: the field then contains i, zeta_2n, and hence
cos(k*pi/n), sin(k*pi/n) and 2*cot(pi/n) -- everything the downstream
geometry needs, closed under arithmetic.

There is one number type.  CycloNumber holds any element; its subclass
RealAlg holds an element of the real subfield (fixed under conjugation)
in the same (N, num, den) and adds the ordering.  All arithmetic is
CycloNumber's, and it returns a RealAlg exactly when every operand is
real, so no operation re-checks realness.  Products multiply only the
nonzero numerators, and product_sum fuses a*b +- c*d into one reduction.

No predicate depends on floating point.  Equality and zero tests compare
canonical residues coefficient-wise.  The sign of a nonzero real element
sum_j (a_j / den) cos(2*pi*j/N) is decided in two steps, both from one
integer table C_j within 1 of 2^prec cos(2*pi*j/N) (_cos_fixed: Machin's
pi, Taylor series and the recurrence zeta^j = zeta^(j-1) zeta, all in
integers):
  * a float filter over C_j / 2^80, which answers only when the float
    sum clears its rounding-error bound;
  * otherwise the exact bracket (sum a_j C_j -+ sum |a_j|) / (den 2^prec)
    at prec = 64, 128, ... until its two integer numerators have one
    sign (termination is guaranteed because nonzero was decided
    symbolically first).
Decimal approximations (approx, and float() through it) come from the same
bounds, widened until both ends print alike, in the digits mpmath.nstr
would write.  Nothing here imports mpmath.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import compress, count
from math import gcd, lcm, log
from numbers import Rational
from operator import add, sub

from .errors import MalformedCertificate, SignUndetermined, short_repr


# fractions, and the decimal module that it loads, is imported where a
# Fraction is built: a cold verify computes in integers and loads neither


def QQ(value):
    """Coerce an int / string 'p/q' / rational to a Fraction."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def __getattr__(name):
    # _QQ names the rational type (bench/run.py records its module) and
    # resolves to Fraction when first read
    if name == "_QQ":
        from fractions import Fraction

        return Fraction
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-conductor context


def prime_divisors(n: int) -> list:
    """The primes that divide n >= 1, in increasing order, by trial division."""
    primes, rest, p = [], n, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # rest is prime
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    return primes


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low to high.

    Phi_n is the product of (x^(n/m) - 1)^mu(m) over the squarefree
    divisors m of n: the factors with mu = +1 are multiplied out, then
    those with mu = -1 divided off exactly.
    """
    divisors = [(1, 1)]  # (m, mu(m)) for the squarefree m dividing n
    for p in prime_divisors(n):
        divisors += [(m * p, -mu) for m, mu in divisors]
    poly = [1]
    for m, mu in sorted(divisors, key=lambda factor: -factor[1]):
        d = n // m
        if mu > 0:  # poly * (x^d - 1)
            low, poly = poly, [0] * d + poly
            for j, c in enumerate(low):
                poly[j] -= c
        else:  # poly / (x^d - 1), high to low
            rem, poly = poly, [0] * (len(poly) - d)
            for k in range(len(poly) - 1, -1, -1):
                poly[k] = c = rem[k + d]
                rem[k] += c
            if any(rem[:d]):
                raise ArithmeticError("non-exact polynomial division")
    return tuple(poly)


def _nonzero_terms(row) -> list:
    return [(j, row[j]) for j in compress(count(), row)]


class FieldContext:
    """Shared integer tables for one conductor N."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("conductor must be positive")
        self.N = N
        self.cyclo = cyclotomic_coeffs(N)
        self.phi = phi = len(self.cyclo) - 1
        # x^k mod Phi_N for k < max(N, 2*phi - 1), as sparse rows of
        # (power, coefficient) pairs: the residues of zeta^k for k < N,
        # and the rows that reduce a product, k = phi .. 2*phi - 2
        top = _nonzero_terms([-c for c in self.cyclo[:phi]])  # x^phi
        row, rows = [1] + [0] * (phi - 1), []
        for _ in range(max(N, 2 * phi - 1)):
            rows.append(_nonzero_terms(row))
            carry = row[-1]
            row = [0] + row[:-1]
            if carry:
                for j, tj in top:
                    row[j] += carry * tj
        self.powers = tuple(rows)

    def reduce(self, raw) -> list[int]:
        """Reduce an integer coefficient list of length < 2*phi modulo Phi_N."""
        if len(raw) > 2 * self.phi - 1:
            raise ValueError("residue of length %d is too long to reduce" % len(raw))
        return self.product(raw, (1,))

    def product(self, a, b, s=1, c=(), d=(), t=0) -> list[int]:
        """s*a*b + t*c*d for integer coefficient lists a, b, c, d (each
        product of degree < 2*phi - 1) and int scales s, t, reduced
        modulo Phi_N; product(a, b) is a*b.

        Only nonzero coefficients are multiplied (compress finds them).
        The terms of each power k >= phi are summed first and folded
        through row k once, so a dense product costs no more than a
        reduction of its 2*phi - 1 coefficients.
        """
        phi = self.phi
        out = [0] * (2 * phi - 1)
        for x, y, scale in ((a, b, s), (c, d, t)):
            if scale:
                y_terms = [(j, scale * y[j]) for j in compress(count(), y)]
                for i in compress(count(), x):
                    xi = x[i]
                    for j, yj in y_terms:
                        out[i + j] += xi * yj
        high = out[phi:]
        del out[phi:]
        for k in compress(count(phi), high):
            ck = high[k - phi]
            for j, rj in self.powers[k]:
                out[j] += ck * rj
        return out

    def conjugate(self, a) -> list[int]:
        """Image of an integer residue under zeta -> zeta^(-1)."""
        N = self.N
        out = [0] * self.phi
        for j, aj in enumerate(a):
            if aj:
                for k, zk in self.powers[(N - j) % N]:
                    out[k] += aj * zk
        return out


@lru_cache(maxsize=None)
def get_context(N: int) -> FieldContext:
    return FieldContext(N)


# ---------------------------------------------------------------------------
# residue arithmetic


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _int_inverse(a, cyclo) -> tuple[list[int], int]:
    # extended Euclid in Z[x] against the irreducible cyclotomic polynomial
    # (the primitive PRS of Collins and Brown): r_i = t_i * a (mod cyclo)
    # throughout, so the last remainder, a constant c, gives a^-1 = t1 / c
    r0, r1 = list(cyclo), _trim(list(a))
    if not r1:
        raise ZeroDivisionError("inverse of zero in cyclotomic field")
    t0, t1 = [], [1]
    while len(r1) > 1:
        # pseudo-divide s * r0 = q * r1 + rem, scaling by lc(r1) / gcd
        d1, lc, low = len(r1) - 1, r1[-1], r1[:-1]
        s, q, rem = 1, [0] * (len(r0) - d1), r0
        for k in range(len(r0) - len(r1), -1, -1):
            c = rem[k + d1]
            rem = rem[: k + d1]
            if c:
                g = gcd(c, lc)
                m, f = lc // g, c // g
                if m != 1:
                    s *= m
                    q = [m * x for x in q]
                    rem = [m * x for x in rem]
                q[k] = f
                for j, rj in enumerate(low):
                    rem[k + j] -= f * rj
        # t_next = s * t0 - q * t1, then drop the joint content with rem
        tn = [s * x for x in t0] + [0] * (len(q) + len(t1) - 1 - len(t0))
        for i, qi in enumerate(q):
            if qi:
                for j, tj in enumerate(t1):
                    tn[i + j] -= qi * tj
        g = gcd(*rem, *tn)
        if g != 1:
            rem, tn = [x // g for x in rem], [x // g for x in tn]
        r0, r1 = r1, _trim(rem)
        t0, t1 = t1, _trim(tn)
    return t1, r1[0]


def _new(cls: type, N: int, num, den: int) -> CycloNumber:
    # an element of class cls whose (num, den) is already canonical, its
    # slots set through their descriptors
    x = object.__new__(cls)
    _set_N(x, N)
    _set_num(x, tuple(num))
    _set_den(x, den)
    return x


def _normal(cls: type, N: int, num, den: int) -> CycloNumber:
    # an element of class cls from integer numerators over den > 0, put
    # in lowest terms
    if den != 1:
        g = gcd(*num, den)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return _new(cls, N, num, den)


class CycloNumber:
    """A residue modulo the N-th cyclotomic polynomial.

    Canonical form: integer numerators ``num`` (one per power of zeta
    below phi(N)) over ``den > 0`` with ``gcd(*num, den) == 1``; zero is
    all-zero numerators over 1.  Equal values have equal (N, num, den),
    whatever their class.

    A binary operation returns a RealAlg when both operands are RealAlg
    (a rational operand takes the class of the other) and a CycloNumber
    otherwise; negation, conjugation, inversion and powers keep the
    class.
    """

    __slots__ = ("N", "num", "den")

    def __init__(self, N: int, coeffs):
        ctx = get_context(N)
        vals = [QQ(c) for c in coeffs]
        den = 1
        for v in vals:
            den = den * v.denominator // gcd(den, v.denominator)
        num = [v.numerator * (den // v.denominator) for v in vals]
        if len(num) > ctx.phi:
            num = ctx.reduce(num)
        else:
            num += [0] * (ctx.phi - len(num))
        g = gcd(*num, den)
        _set_N(self, N)
        _set_num(self, tuple(a // g for a in num))
        _set_den(self, den // g)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients, low to high power of zeta."""
        from fractions import Fraction

        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def key(self):
        """Hashable canonical form, usable as a multiset key."""
        return (self.N, self.num, self.den)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, N: int, q) -> CycloNumber:
        if not isinstance(q, (int, Rational)):
            q = QQ(q)
        phi = get_context(N).phi
        return _new(cls, N, (q.numerator,) + (0,) * (phi - 1), q.denominator)

    @classmethod
    def zero(cls, N: int) -> CycloNumber:
        return cls.from_rational(N, 0)

    @classmethod
    def one(cls, N: int) -> CycloNumber:
        return cls.from_rational(N, 1)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational element")
        from fractions import Fraction

        return Fraction(self.num[0], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNumber):
            return self.N == other.N and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Rational)):
            return (
                self.is_rational()
                and self.num[0] * other.denominator == other.numerator * self.den
            )
        return NotImplemented

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals
        if self.is_rational():
            from fractions import Fraction

            return hash(Fraction(self.num[0], self.den))
        return hash(self.key())

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.N != self.N:
                raise ValueError("mixed conductors %d and %d" % (self.N, other.N))
            return other
        if isinstance(other, (int, Rational)):
            return type(self).from_rational(self.N, other)
        return None

    def _operand(self, other):
        # (other in self's field, the class of the result): the same type
        # first, then _coerce, which gives None for a type that is no number
        if type(other) is type(self) and other.N == self.N:
            return other, type(self)
        o = self._coerce(other)
        return o, type(self) if type(o) is type(self) else CycloNumber

    def _sum(self, other, op):
        # self op other for op = operator.add or operator.sub, one op per
        # pair of numerators; over unequal denominators the sign goes
        # into other's scale
        o, cls = self._operand(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _normal(cls, self.N, [*map(op, self.num, o.num)], da)
        s = op(0, da)
        return _normal(cls, self.N, [a * db + b * s for a, b in zip(self.num, o.num)], da * db)

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _new(type(self), self.N, [-a for a in self.num], self.den)

    def __mul__(self, other):
        o, cls = self._operand(other)
        if o is None:
            return NotImplemented
        prod = get_context(self.N).product(self.num, o.num)
        return _normal(cls, self.N, prod, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> CycloNumber:
        x = _inverse(self.N, self.num, self.den)
        return _new(type(self), x.N, x.num, x.den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = type(self).one(self.N)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure -----------------------------------------------------

    def conjugate(self) -> CycloNumber:
        """Image under zeta -> zeta^(-1)."""
        # an integer involution of the numerators keeps their content, so
        # the image is already in lowest terms
        return _new(type(self), self.N, get_context(self.N).conjugate(self.num), self.den)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                if j == 0:
                    terms.append(str(c))
                elif j == 1:
                    terms.append("%s*z" % c)
                else:
                    terms.append("%s*z^%d" % (c, j))
        body = " + ".join(terms) if terms else "0"
        return "Cyclo(%d; %s)" % (self.N, body)


_set_N, _set_num, _set_den = (vars(CycloNumber)[slot].__set__ for slot in CycloNumber.__slots__)


def product_sum(a: CycloNumber, b: CycloNumber, c: CycloNumber, d: CycloNumber,
                sign: int = 1) -> CycloNumber:
    """a*b + c*d, or a*b - c*d for sign = -1, as one element.

    The two products are accumulated into one residue, which is reduced
    and put in lowest terms once.  As for the operators, the four
    elements share one conductor (else ValueError), and the result is a
    RealAlg exactly when all four are.
    """
    N = a.N
    if not b.N == c.N == d.N == N:
        raise ValueError("mixed conductors %s" % sorted({a.N, b.N, c.N, d.N}))
    cls = RealAlg if type(a) is type(b) is type(c) is type(d) is RealAlg else CycloNumber
    dab, dcd = a.den * b.den, c.den * d.den
    if dab == dcd:
        num = get_context(N).product(a.num, b.num, 1, c.num, d.num, sign)
        return _normal(cls, N, num, dab)
    num = get_context(N).product(a.num, b.num, dcd, c.num, d.num, sign * dab)
    return _normal(cls, N, num, dab * dcd)


@lru_cache(maxsize=4096)
def _inverse(N: int, num: tuple, den: int) -> CycloNumber:
    # The hits are render's: _band_corners divides by an edge's rise
    # across the flow, once for every band that the edge bounds (render
    # --n 25 --d 6 --direction 3: 554 hits, 22 misses).  The
    # certificate path divides once per base modulus of n, and hits only
    # where lambda_n inverts a height that decompose inverted (n = 12, one
    # hit).  (num/den)^-1 is den * num^-1; a zero argument raises and is
    # not cached.
    ctx = get_context(N)
    t, c = _int_inverse(num, ctx.cyclo)
    if c < 0:
        den, c = -den, -c
    return _normal(CycloNumber, N, [den * x for x in t] + [0] * (ctx.phi - len(t)), c)


def cyclo_root(N: int, k: int) -> CycloNumber:
    """The residue of zeta_N^k; cyclo_root(N, 0) is 1."""
    if N < 1:
        raise ValueError("conductor must be positive")
    ctx = get_context(N)
    num = [0] * ctx.phi
    for j, c in ctx.powers[k % N]:
        num[j] = c
    return _new(CycloNumber, N, num, 1)


# ---------------------------------------------------------------------------
# cosines in integer fixed point


def _arctan_inv(x: int, W: int) -> int:
    # sum over i of (-1)^i floor(2^W / ((2i+1) x^(2i+1))), while x^(2i+1) <= 2^W
    power, total, i = (1 << W) // x, 0, 0
    while power:
        term = power // (2 * i + 1)
        total += -term if i & 1 else term
        power //= x * x
        i += 1
    return total


@lru_cache(maxsize=None)
def _cos_fixed(N: int, prec: int) -> tuple[int, ...]:
    """For each j < phi(N), an integer within 1 of 2^prec * cos(2*pi*j/N).

    Entry 0 is exactly 2^prec.  Everything is computed in integers at W =
    prec + g bits, as X ~ 2^W * x; the error of X is |X - 2^W * x|.

    * pi: Machin's 16*atan(1/5) - 4*atan(1/239).  In _arctan_inv each
      term is an exact floor (floor(floor(a/b)/c) = floor(a/(bc))), so off
      by < 1, and the alternating tail is below its first term, < 1.  With
      K_5 <= W/4.6 + 1 and K_239 <= W/15.8 + 1 terms, pi is off by
      < 16(K_5 + 1) + 4(K_239 + 1) < 4W + 40.
    * theta = 2*pi/N, N >= 3: t = floor(2 pi_W / N) is off by
      < 2(4W + 40)/3 + 1 < 3W + 28.  Let tau = t / 2^W <= 2.1.
    * cos tau and sin tau by Taylor: u_0 = 2^W, u_k = floor(u_(k-1) t /
      (k 2^W)) approximates 2^W tau^k / k! with error e_k <= e_(k-1)
      tau/k + 1; e_1 = 0, e_2 <= 1, and tau/k <= 0.7 for k >= 3 keeps
      every e_k < 4.  The same ratio bounds u_k <= 2.3 * 2^W * 0.7^(k-2),
      so the loop stops (u_K = 0) at some K <= 2W + 5, where the exact
      term is < 1 + 4 * 0.7 and the exact tail is < 3.8 / 0.3 < 13.  So
      cos and sin are each off by < 4(K/2 + 1) + 13 <= 4W + 27, and z_1 =
      c + i s is off from 2^W e^(i theta) by e_1 < sqrt2 (4W + 27) + 3W
      + 28 < 9W + 67.
    * z_j = z_(j-1) z_1 / 2^W, each part floored: e_j <= e_(j-1) (1 +
      e_1/2^W) + e_1 + 2.  As 2^W >= 128 N (prec + 64) > N e_1, for j <
      N this gives e_j < j (e_1 + 2)(1 + 1/N)^N < 3N(9W + 69) < 27N(W +
      8).
    * C_j = round(Re z_j / 2^g) is off from 2^prec cos(j theta) by at most
      1/2 + e_j / 2^g, which is <= 1 while 27N(W + 8) <= 2^(g - 1).  With
      2^(g - 1) >= 64 N (prec + 64) that holds whenever g <= 143, that is
      for N (prec + 64) < 2^136.
    """
    phi = len(cyclotomic_coeffs(N)) - 1
    if phi == 1:  # N = 1, 2: only cos 0
        return (1 << prec,)
    g = (N * (prec + 64)).bit_length() + 7
    W = prec + g
    pi = 16 * _arctan_inv(5, W) - 4 * _arctan_inv(239, W)
    t = 2 * pi // N
    c = s = 0
    u, k = 1 << W, 0
    while u:
        if k & 1:
            s += -u if k & 2 else u
        else:
            c += -u if k & 2 else u
        k += 1
        u = u * t // (k << W)
    half = 1 << (g - 1)
    out = [1 << prec]
    x, y = 1 << W, 0
    for _ in range(phi - 1):
        x, y = (x * c - y * s) >> W, (x * s + y * c) >> W
        out.append((x + half) >> g)
    return tuple(out)


def _fixed_sum(num, N: int, prec: int) -> tuple[int, int]:
    """(S, E): sum_j num_j cos(2*pi*j/N) lies within E / 2^prec of S / 2^prec."""
    total = weight = 0
    for a, c in zip(num, _cos_fixed(N, prec)):
        if a:
            total += a * c
            weight += abs(a)
    return total, weight


# ---------------------------------------------------------------------------
# sign determination for real elements

_EPS_SLACK = 2.0 ** -50
_MAX_PREC = 1 << 22


def _float_sign_filter(num, den: int, cos_table) -> int | None:
    total = 0.0
    abssum = 0.0
    nterms = 0
    try:
        for a, cv in zip(num, cos_table):
            if a:
                fc = a / den  # correctly rounded, as float(Fraction(a, den))
                total += fc * cv
                abssum += abs(fc)
                nterms += 1
    except (OverflowError, ValueError):
        return None
    if total != total or abssum != abssum:  # nan
        return None
    bound = (nterms + 4) * _EPS_SLACK * abssum
    if total > bound:
        return 1
    if total < -bound:
        return -1
    return None


@lru_cache(maxsize=None)
def _float_cos_table(N: int) -> tuple[float, ...]:
    # int / int is correctly rounded, so each entry is within 2^-80 of
    # the double nearest cos(2*pi*j/N)
    return tuple(c / (1 << 80) for c in _cos_fixed(N, 80))


def _interval_value(x, N: int, prec: int) -> tuple[int, int]:
    """Numerators (lo, hi) over the positive den << prec that bracket
    sum_j (num_j / den) cos(2*pi*j/N), x = (num, den); RealAlg.approx
    prints the same bracket."""
    num, den = x
    total, weight = _fixed_sum(num, N, prec)
    return total - weight, total + weight


def _real_sign(num, den: int, N: int) -> int:
    """Sign of a conjugation-fixed residue num/den, known to be nonzero."""
    s = _float_sign_filter(num, den, _float_cos_table(N))
    if s is not None:
        return s
    prec = 64
    while True:
        lo, hi = _interval_value((num, den), N, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if prec >= _MAX_PREC:
            raise SignUndetermined(
                "interval refinement failed to separate a nonzero element "
                "(conductor %d, %d bits)" % (N, prec),
                conductor=N,
                prec=prec,
            )
        prec *= 2


# ---------------------------------------------------------------------------
# decimal approximations

# the float mpmath's decimal conversion uses, so that the bit counts
# below come out as its do
_LOG2_10 = log(10, 2)


def _nstr(p: int, q: int, dps: int) -> str:
    """p / q (q > 0) to dps significant digits, as mpmath.nstr(x, dps,
    strip_zeros=False) writes a number x held exactly.

    Like mpmath, x is first truncated to bitprec significant bits, then
    floored to fixdps decimal places (its to_digits_exp for dps + 3
    digits); digit dps + 1 rounds half up.  The leading digit's position
    decides between fixed and d.ddd...e+-X notation.
    """
    if not p:
        return "0.0"
    sign = "-" if p < 0 else ""
    p = abs(p)
    E = p.bit_length() - q.bit_length()  # 2^(E-1) < p/q < 2^(E+1)
    if p << max(-E, 0) >= q << max(E, 0):
        E += 1
    # now 2^(E-1) <= p/q < 2^E
    bitprec = int((dps + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - E, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    digits = str(((p << fixprec) // q * 10 ** fixdps) >> fixprec)
    exponent = len(digits) - fixdps - 1
    digits = str(int(digits[:dps]) + (digits[dps:dps + 1] >= "5"))
    if len(digits) > dps:  # 9...9 rounded up
        digits = digits[:dps]
        exponent += 1
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    body = sign + digits[:split] + "." + digits[split:]
    if exponent == 0:
        return body
    return body + ("e+%d" if exponent > 0 else "e%d") % exponent


# ---------------------------------------------------------------------------
# the real subfield

# a serialised coefficient: what str(Fraction) writes, lowest terms or not
_COEFF = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class RealAlg(CycloNumber):
    """A conjugation-fixed cyclotomic element; exact real arithmetic.

    The arithmetic is CycloNumber's, which keeps the class of real
    operands, so only RealAlg(value) has to check realness.  Ordering
    comes from exact sign determination.
    """

    __slots__ = ()

    def __init__(self, value: CycloNumber):
        if not value.is_real():
            raise ValueError("element is not fixed under conjugation")
        _set_N(self, value.N)
        _set_num(self, value.num)
        _set_den(self, value.den)

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    def __bool__(self):
        return not self.is_zero()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- ordering ----------------------------------------------------------

    def sign(self) -> int:
        return 0 if self.is_zero() else _real_sign(self.num, self.den, self.N)

    def _minus(self, other):
        # self - other for a real or rational other, else None
        if isinstance(other, (RealAlg, int, Rational)):
            return self - other
        return None

    def __lt__(self, other):
        d = self._minus(other)
        return NotImplemented if d is None else d.sign() < 0

    def __le__(self, other):
        d = self._minus(other)
        return NotImplemented if d is None else d.sign() <= 0

    def __gt__(self, other):
        d = self._minus(other)
        return NotImplemented if d is None else d.sign() > 0

    def __ge__(self, other):
        d = self._minus(other)
        return NotImplemented if d is None else d.sign() >= 0

    # -- numeric views -------------------------------------------------------

    def approx(self, digits: int = 20) -> str:
        """Decimal approximation with the given number of significant digits.

        Written as mpmath.nstr(value, digits, strip_zeros=False) writes
        it (see _nstr).  A rational value is converted exactly; any other
        is bracketed by _fixed_sum at doubling precision until both ends
        of the bracket give the same string, which ends because every
        point where the string changes is rational.
        """
        if digits < 1:
            raise ValueError("digits must be positive")
        if self.is_rational():
            return _nstr(self.num[0], self.den, digits)
        # start 16 bits or more above the bits _nstr keeps
        prec = 128
        while prec < (digits + 3) * _LOG2_10 + 26:
            prec *= 2
        while True:
            total, weight = _fixed_sum(self.num, self.N, prec)
            q = self.den << prec
            text = _nstr(total - weight, q, digits)
            if text == _nstr(total + weight, q, digits):
                return text
            prec *= 2

    def __float__(self):
        return float(self.approx(25))

    def __repr__(self):
        return "RealAlg(%s ~ %s)" % (CycloNumber.__repr__(self), self.approx(12).strip())

    # -- serialization --------------------------------------------------------

    def to_json(self, sparse: bool = False) -> dict:
        """The exact value.

        Dense (the default): {"conductor": N, "coeffs": ["p/q", ...],
        "approx": ...}, one coefficient per power of zeta below phi(N) and
        a 20-digit decimal approximation, as the surface and cylinders
        commands print it; nothing reads it.  Sparse, as a certificate's
        value table holds it (the certificate carries the conductor):
        {"coeffs": [[power, "p/q"], ...]}, nonzero coefficients only, by
        increasing power, and no approximation, which nothing would read.
        """
        if sparse:
            return {"coeffs": [[j, x] for j, x in _nonzero(self.num, self.den)]}
        coeffs = ["0"] * len(self.num)
        for j, x in _nonzero(self.num, self.den):
            coeffs[j] = x
        return {"conductor": self.N, "coeffs": coeffs, "approx": self.approx(20)}

    @staticmethod
    def from_json(data: dict, conductor: int) -> RealAlg:
        """Parse to_json's sparse form, whose conductor N the caller gives:
        [power, "p/q"] pairs with strictly increasing int powers below
        2*phi(N) - 1.  Each coefficient is a string "p" or "p/q" of
        decimal integers with q > 0, as str(Fraction) writes them (lowest
        terms are not required).  Anything else, and an element that is
        not real, raises MalformedCertificate.  The approximation is not
        read.
        """
        coeffs = data.get("coeffs") if type(data) is dict else None
        if type(coeffs) is not list or not all(
                type(t) is list and len(t) == 2 and type(t[0]) is int for t in coeffs):
            raise MalformedCertificate("coefficients %s are not [power, p/q] pairs"
                                       % short_repr(coeffs))
        powers, strings = [t[0] for t in coeffs], [t[1] for t in coeffs]
        if any(a >= b for a, b in zip([-1] + powers, powers)):
            raise MalformedCertificate("powers %s are not increasing from 0" % short_repr(powers))
        nums, dens = [], []
        for c in strings:
            m = _COEFF.fullmatch(c) if type(c) is str else None
            if m is None:
                raise MalformedCertificate("coefficient %s is not of the form p or p/q"
                                           % short_repr(c, 40))
            p, q = m.groups()
            try:
                nums.append(int(p))
                dens.append(1 if q is None else int(q))
            except ValueError as exc:  # more digits than int() converts
                raise MalformedCertificate("coefficient %s: %s" % (short_repr(c, 40), exc)) from exc
        if 0 in dens:
            raise MalformedCertificate("zero denominator in coefficients %s" % short_repr(coeffs))
        ctx = get_context(conductor)
        top = powers[-1] + 1 if len(powers) else 0
        if top > 2 * ctx.phi - 1:
            raise MalformedCertificate(
                "%d coefficients are too many for conductor %d" % (top, conductor)
            )
        den = lcm(*dens)
        raw = [0] * top
        for j, p, q in zip(powers, nums, dens):
            raw[j] = p * (den // q)
        value = _normal(RealAlg, conductor, ctx.reduce(raw), den)
        if not value.is_real():
            raise MalformedCertificate("element of conductor %d is not real" % conductor)
        return value


def _rational_str(a: int, den: int) -> str:
    # a / den as str(Fraction(a, den)) writes it
    g = gcd(a, den)
    a, den = a // g, den // g
    return str(a) if den == 1 else "%d/%d" % (a, den)


@lru_cache(maxsize=4096)
def _nonzero(num: tuple, den: int) -> tuple:
    # the nonzero coefficients as (power, "p/q") pairs, immutable, which
    # to_json copies into fresh containers; the same few values are
    # written again and again: the 141 theorems of n = 9, 14, 16 and
    # d = 2..48 write 129 distinct values 1,404 times, and `cylinders
    # --n 25 --d 3` in its 25 directions prints 40 values 2,556 times
    return tuple((j, _rational_str(a, den)) for j, a in enumerate(num) if a)


# ---------------------------------------------------------------------------
# trigonometric constructors (conductor 4n)


@lru_cache(maxsize=None)
def quarter_trig(n: int, k: int) -> tuple[RealAlg, RealAlg]:
    """Exact (cos(k*pi/(2n)), sin(k*pi/(2n))) in conductor 4n."""
    if n < 3:
        raise ValueError("n must be at least 3")
    N = 4 * n
    ctx = get_context(N)

    def half_sum(j, i, sign):
        # (zeta^j + sign * zeta^i) / 2, read off the rows of powers
        num = [0] * ctx.phi
        for m, c in ctx.powers[j % N]:
            num[m] += c
        for m, c in ctx.powers[i % N]:
            num[m] += sign * c
        return _normal(RealAlg, N, num, 2)

    # sin = (zeta^k - zeta^-k) / 2i, and 1/i = zeta^(3n)
    return half_sum(k, -k, 1), half_sum(k + 3 * n, 3 * n - k, -1)


def cos_pi_over(n: int) -> RealAlg:
    """Exact cos(pi/n)."""
    return quarter_trig(n, 2)[0]


def sin_pi_over(n: int) -> RealAlg:
    """Exact sin(pi/n)."""
    return quarter_trig(n, 2)[1]


def lambda_n(n: int) -> RealAlg:
    """The shear constant 2*cot(pi/n)."""
    c, s = quarter_trig(n, 2)
    return (c + c) / s
