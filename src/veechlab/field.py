"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are residues modulo the N-th cyclotomic polynomial with
arbitrary-precision rational coefficients.  For a regular n-gon context
the conductor is N = 4n: the field then contains i, zeta_2n, and hence
cos(k*pi/n), sin(k*pi/n) and 2*cot(pi/n) -- everything the downstream
geometry needs, closed under arithmetic.

No predicate touches floating point.  Equality and zero tests compare
canonical residues coefficient-wise; the sign of a nonzero real element
is decided by interval evaluation at doubling precision (termination is
guaranteed because nonzero was decided symbolically first).
"""

from __future__ import annotations

from fractions import Fraction as _QQ
from functools import lru_cache

import mpmath

_Q0 = _QQ(0)
_Q1 = _QQ(1)


def QQ(value) -> _QQ:
    """Coerce an int / string 'p/q' / rational to a Fraction."""
    if isinstance(value, _QQ):
        return value
    return _QQ(value)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-conductor context


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low to high."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_coeffs(d)))
    return tuple(poly)


class FieldContext:
    """Shared tables for one conductor N."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("conductor must be positive")
        self.N = N
        self.cyclo = cyclotomic_coeffs(N)
        self.phi = len(self.cyclo) - 1
        # x^k mod Phi_N for k = phi .. 2*phi-2, as integer coefficient rows
        rows = []
        top = [-c for c in self.cyclo[: self.phi]]  # x^phi
        row = list(top)
        rows.append(tuple(row))
        for _ in range(self.phi - 2):
            carry = row[-1]
            row = [0] + row[:-1]
            if carry:
                for j, tj in enumerate(top):
                    row[j] += carry * tj
            rows.append(tuple(row))
        self.red_rows = tuple(rows)
        # residues of zeta^k for k = 0..N-1
        pows = []
        coeffs = [_Q0] * self.phi
        coeffs[0] = _Q1
        pows.append(tuple(coeffs))
        for _ in range(N - 1):
            coeffs = self._shift(pows[-1])
            pows.append(coeffs)
        self.zeta_pows = tuple(pows)

    def _shift(self, coeffs):
        # multiply a residue by x
        carry = coeffs[-1]
        out = [_Q0] + list(coeffs[:-1])
        if carry:
            for j, tj in enumerate(self.red_rows[0]):
                if tj:
                    out[j] += carry * tj
        return tuple(out)

    def reduce(self, raw):
        """Reduce a coefficient list of length < 2*phi modulo Phi_N."""
        out = list(raw[: self.phi]) + [_Q0] * (self.phi - min(self.phi, len(raw)))
        for k in range(self.phi, len(raw)):
            ck = raw[k]
            if ck:
                for j, rj in enumerate(self.red_rows[k - self.phi]):
                    if rj:
                        out[j] += ck * rj
        return tuple(out)


@lru_cache(maxsize=None)
def get_context(N: int) -> FieldContext:
    return FieldContext(N)


# ---------------------------------------------------------------------------
# residue arithmetic


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_inverse(a, cyclo):
    # extended Euclid in Q[x] against the (squarefree) cyclotomic polynomial
    r0 = [QQ(c) for c in cyclo]
    r1 = _trim(list(a))
    if not r1:
        raise ZeroDivisionError("inverse of zero in cyclotomic field")
    t0, t1 = [], [_Q1]
    while True:
        if not r1:
            raise ZeroDivisionError("inverse of zero divisor")
        if len(r1) == 1:
            inv = _Q1 / r1[0]
            return [c * inv for c in t1]
        # divide r0 by r1
        q = [_Q0] * (len(r0) - len(r1) + 1) if len(r0) >= len(r1) else []
        rem = list(r0)
        for k in range(len(rem) - len(r1), -1, -1):
            c = rem[k + len(r1) - 1] / r1[-1]
            if c:
                q[k] = c
                for j, dj in enumerate(r1):
                    rem[k + j] -= c * dj
        rem = _trim(rem)
        # t_next = t0 - q * t1
        qt = [_Q0] * (len(q) + len(t1) - 1) if q and t1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, tj in enumerate(t1):
                    if tj:
                        qt[i + j] += qi * tj
        tn = [_Q0] * max(len(t0), len(qt))
        for i, c in enumerate(t0):
            tn[i] += c
        for i, c in enumerate(qt):
            tn[i] -= c
        r0, r1 = r1, rem
        t0, t1 = t1, _trim(tn)


class CycloNumber:
    """A residue modulo the N-th cyclotomic polynomial."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs):
        ctx = get_context(N)
        vals = [QQ(c) for c in coeffs]
        if len(vals) > ctx.phi:
            vals = list(ctx.reduce(vals))
        else:
            vals += [_Q0] * (ctx.phi - len(vals))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", tuple(vals))

    def __setattr__(self, *a):
        raise AttributeError("CycloNumber is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(N: int, q) -> CycloNumber:
        return CycloNumber(N, (QQ(q),))

    @staticmethod
    def zero(N: int) -> CycloNumber:
        return CycloNumber(N, ())

    @staticmethod
    def one(N: int) -> CycloNumber:
        return CycloNumber(N, (_Q1,))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNumber):
            return self.N == other.N and self.coeffs == other.coeffs
        if isinstance(other, (int, _QQ)):
            return self.is_rational() and self.coeffs[0] == QQ(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.N, self.coeffs))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.N != self.N:
                raise ValueError("mixed conductors %d and %d" % (self.N, other.N))
            return other
        if isinstance(other, (int, _QQ)):
            return CycloNumber.from_rational(self.N, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(self.N, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(self.N, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNumber(self.N, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, _QQ)):
            q = QQ(other)
            return CycloNumber(self.N, tuple(a * q for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = get_context(self.N)
        phi = ctx.phi
        raw = [_Q0] * (2 * phi - 1)
        a, b = self.coeffs, o.coeffs
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        raw[i + j] += ai * bj
        return CycloNumber(self.N, ctx.reduce(raw))

    __rmul__ = __mul__

    def inverse(self) -> CycloNumber:
        ctx = get_context(self.N)
        inv = _poly_inverse(self.coeffs, ctx.cyclo)
        return CycloNumber(self.N, inv)

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
        result = CycloNumber.one(self.N)
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
        ctx = get_context(self.N)
        out = [_Q0] * ctx.phi
        for j, cj in enumerate(self.coeffs):
            if cj:
                for k, zk in enumerate(ctx.zeta_pows[(self.N - j) % self.N]):
                    if zk:
                        out[k] += cj * zk
        return CycloNumber(self.N, out)

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


def cyclo_root(N: int, k: int) -> CycloNumber:
    """The residue of zeta_N^k; cyclo_root(N, 0) is 1."""
    if N < 1:
        raise ValueError("conductor must be positive")
    ctx = get_context(N)
    return CycloNumber(N, ctx.zeta_pows[k % N])


# ---------------------------------------------------------------------------
# sign determination for real elements

_EPS_SLACK = 2.0 ** -50


def _float_sign_filter(coeffs, cos_table) -> int | None:
    total = 0.0
    abssum = 0.0
    nterms = 0
    try:
        for c, cv in zip(coeffs, cos_table):
            if c:
                fc = float(c)
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
    with mpmath.workdps(30):
        return tuple(float(mpmath.cos(2 * mpmath.pi * j / N)) for j in range(euler_phi(N)))


@lru_cache(maxsize=None)
def _iv_cos_table(N: int, prec: int):
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec
        return tuple(iv.cos(2 * iv.pi * j / N) for j in range(euler_phi(N)))
    finally:
        iv.prec = old


def _interval_value(coeffs, N: int, prec: int):
    """Rigorous interval for sum_j c_j cos(2*pi*j/N)."""
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec
        table = _iv_cos_table(N, prec)
        total = iv.mpf(0)
        for c, cv in zip(coeffs, table):
            if c:
                total += (iv.mpf(c.numerator) / c.denominator) * cv
        return total
    finally:
        iv.prec = old


def _real_sign(coeffs, N: int) -> int:
    """Sign of a conjugation-fixed residue, known to be nonzero."""
    s = _float_sign_filter(coeffs, _float_cos_table(N))
    if s is not None:
        return s
    prec = 64
    while prec <= (1 << 22):
        val = _interval_value(coeffs, N, prec)
        if val.a > 0:
            return 1
        if val.b < 0:
            return -1
        prec *= 2
    raise RuntimeError("interval refinement failed to separate a nonzero element")


# ---------------------------------------------------------------------------
# the real subfield


class RealAlg:
    """A conjugation-fixed cyclotomic element; exact real arithmetic.

    Supports ordering via exact sign determination.  All construction
    paths either verify or preserve realness.
    """

    __slots__ = ("value", "_sign")

    def __init__(self, value: CycloNumber, _trusted: bool = False):
        if not _trusted and not value.is_real():
            raise ValueError("element is not fixed under conjugation")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_sign", None)

    def __setattr__(self, *a):
        raise AttributeError("RealAlg is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(N: int, q) -> RealAlg:
        return RealAlg(CycloNumber.from_rational(N, q), _trusted=True)

    @staticmethod
    def zero(N: int) -> RealAlg:
        return RealAlg(CycloNumber.zero(N), _trusted=True)

    @staticmethod
    def one(N: int) -> RealAlg:
        return RealAlg(CycloNumber.one(N), _trusted=True)

    # -- basic structure -------------------------------------------------

    @property
    def N(self) -> int:
        return self.value.N

    def key(self):
        """Hashable canonical form, usable as a multiset key."""
        return (self.value.N, self.value.coeffs)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def is_rational(self) -> bool:
        return self.value.is_rational()

    def as_rational(self):
        return self.value.as_rational()

    def is_integer(self) -> bool:
        return self.value.is_rational() and self.value.coeffs[0].denominator == 1

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash(self.value)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RealAlg):
            return other
        if isinstance(other, (int, _QQ)):
            return RealAlg.rational(self.N, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealAlg(self.value + o.value, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealAlg(self.value - o.value, _trusted=True)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealAlg(o.value - self.value, _trusted=True)

    def __neg__(self):
        return RealAlg(-self.value, _trusted=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealAlg(self.value * o.value, _trusted=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealAlg(self.value / o.value, _trusted=True)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealAlg(o.value / self.value, _trusted=True)

    def __pow__(self, k: int):
        return RealAlg(self.value ** k, _trusted=True)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- ordering ----------------------------------------------------------

    def sign(self) -> int:
        if self._sign is None:
            s = 0 if self.is_zero() else _real_sign(self.value.coeffs, self.N)
            object.__setattr__(self, "_sign", s)
        return self._sign

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    # -- numeric views -------------------------------------------------------

    def approx(self, digits: int = 20) -> str:
        """Decimal approximation with the given number of significant digits."""
        with mpmath.workdps(digits + 15):
            val = mpmath.mpf(0)
            for j, c in enumerate(self.value.coeffs):
                if c:
                    val += mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(
                        2 * mpmath.pi * j / self.N
                    )
            return mpmath.nstr(val, digits, strip_zeros=False)

    def __float__(self):
        return float(mpmath.mpf(self.approx(25)))

    def __repr__(self):
        return "RealAlg(%s ~ %s)" % (self.value, self.approx(12).strip())

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "conductor": self.N,
            "coeffs": [str(c) for c in self.value.coeffs],
            "approx": self.approx(20),
        }

    @staticmethod
    def from_json(data: dict) -> RealAlg:
        return RealAlg(CycloNumber(data["conductor"], [QQ(c) for c in data["coeffs"]]))


def sign(x: RealAlg) -> int:
    """Exact sign: 0 iff x is the zero element."""
    return x.sign()


# ---------------------------------------------------------------------------
# trigonometric constructors (conductor 4n)


def _real(value: CycloNumber) -> RealAlg:
    return RealAlg(value, _trusted=True)


@lru_cache(maxsize=None)
def quarter_trig(n: int, k: int) -> tuple[RealAlg, RealAlg]:
    """Exact (cos(k*pi/(2n)), sin(k*pi/(2n))) in conductor 4n."""
    if n < 3:
        raise ValueError("n must be at least 3")
    N = 4 * n
    zk = cyclo_root(N, k)
    zmk = cyclo_root(N, -k)
    half = QQ("1/2")
    cos_v = (zk + zmk) * half
    # 1/i = zeta_4^(-1) = zeta_N^(3n)
    sin_v = (zk - zmk) * cyclo_root(N, 3 * n) * half
    return _real(cos_v), _real(sin_v)


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
