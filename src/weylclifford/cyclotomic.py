"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements live in the power basis 1, zeta, ..., zeta^{d-1} with
d = deg Phi_m, reduced modulo the m-th cyclotomic polynomial Phi_m.
Reducing modulo Phi_m rather than x^m - 1 keeps the representation
canonical: equality is coefficient comparison.  Nothing divides in the
field: the paper's identities at roots of unity need only sums,
products and non-negative powers, so there is no inverse, no ``/`` and
no negative power.

Every result is brought to that basis by one reduction, ``_reduce``:
exponents are folded by zeta^m = 1, then the degrees >= d are cleared
by synthetic division by the monic Phi_m, touching only its nonzero
coefficients.  Nothing beyond Phi_m itself is kept per order, and
``_reduce`` is the module's only division with remainder.  Every
monomial map -- multiplying by zeta^k (``times_root``, and so
``root_of_unity``) and lifting zeta_m -> zeta_{km}^k -- is one scatter
of the coordinates to their new exponents followed by one ``_reduce``;
none of them multiplies.

Coefficients are exact rationals, stored as an integer numerator
vector over a single positive denominator with gcd(numerators,
denominator) = 1.  There is no floating-point fallback anywhere in
this module; ``to_complex`` is the one explicit bridge to floats.

Values of different orders never mix implicitly: combining them
raises :class:`OrderMismatchError`, and callers embed into a common
order with :meth:`CyclotomicNumber.lift` (zeta_m = zeta_{km}^k).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "CyclotomicNumber",
    "IntPolynomial",
    "OrderMismatchError",
    "cyclotomic_polynomial",
    "root_of_unity",
    "totient",
]


class OrderMismatchError(ValueError):
    """Two cyclotomic orders were combined without an explicit lift."""


class IntPolynomial:
    """Dense integer polynomial, coefficients in ascending degree.

    The value type of ``cyclotomic_polynomial`` and of the formal q-functions,
    which build it from integer lists: only the tests use its +, -, *, as
    their product oracle.  Trailing zeros are stripped, so equal polynomials
    have equal coefficient tuples, and the zero polynomial has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(_poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> IntPolynomial:
    """m-th cyclotomic polynomial, by integer steps alone.

    Phi_1 = x - 1.  For m > 1, Moebius inversion of x^m - 1 =
    prod_{d | m} Phi_d gives Phi_m = prod_{d | m} (1 - x^d)^{mu(m/d)}
    (the signs cancel, since mu sums to 0 over the divisors of m).  As
    power series truncated at degree phi(m), multiplying by 1 - x^d is
    a shifted subtraction and dividing by it a running sum with stride
    d; only the divisors with m/d squarefree take part.
    """
    if m < 1:
        raise ValueError("cyclotomic order must be a positive integer")
    if m == 1:
        return IntPolynomial([-1, 1])
    primes, rest, p = [], m, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    deg = m
    for p in primes:
        deg = deg // p * (p - 1)
    factors = [(m, 1)]  # (d, mu(m/d))
    for p in primes:
        factors += [(d // p, -mu) for d, mu in factors]
    out = [1] + [0] * deg
    for d, mu in factors:
        if mu > 0:
            for i in range(deg, d - 1, -1):
                out[i] -= out[i - d]
        else:
            for i in range(d, deg + 1):
                out[i] += out[i - d]
    return IntPolynomial(out)


def totient(m: int) -> int:
    """Degree of Phi_m (Euler's totient)."""
    return cyclotomic_polynomial(m).degree


@lru_cache(maxsize=None)
def _phi_tail(m: int) -> tuple:
    """d = deg Phi_m and the nonzero (j, -c_j), j < d, of Phi_m.

    Phi_m is monic, so zeta^d = sum_j -c_j zeta^j over these terms.
    """
    phi = cyclotomic_polynomial(m).coeffs
    d = len(phi) - 1
    return d, tuple((j, -c) for j, c in enumerate(phi[:d]) if c)


def _reduce(m: int, coeffs) -> list:
    """Coordinates mod Phi_m of sum_e coeffs[e] * zeta_m^e (integers).

    Exponents are first folded by zeta^m = 1 into 0..m-1; the degrees
    >= d = deg Phi_m are then cleared from the top down by synthetic
    division by the monic Phi_m, one nonzero coefficient at a time.
    """
    d, tail = _phi_tail(m)
    vec = list(coeffs[:m])
    for e in range(m, len(coeffs)):
        vec[e % m] += coeffs[e]
    for i in range(len(vec) - 1, d - 1, -1):
        c = vec[i]
        if c:
            for j, p in tail:
                vec[i - d + j] += c * p
    del vec[d:]
    vec += [0] * (d - len(vec))
    return vec


def _unit_exp(e: int, m: int) -> complex:
    """exp(2*pi*i*e/m), exact on the four Gaussian axes."""
    e %= m
    q, r = divmod(4 * e, m)
    if r == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[q]
    return cmath.exp(2j * math.pi * e / m)


def _normalize(num, den):
    if den < 0:
        num = [-x for x in num]
        den = -den
    g = den
    for x in num:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        num = [x // g for x in num]
        den //= g
    if not any(num):
        den = 1
    return tuple(num), den


def _scatter(order: int, coeffs, scale: int, shift: int = 0, den: int = 1):
    """sum_e coeffs[e] zeta_order^{scale*e + shift} / den: one scatter, one reduction."""
    out = [0] * order
    for e, c in enumerate(coeffs):
        if c:
            out[(scale * e + shift) % order] += c
    return CyclotomicNumber._raw(order, *_normalize(_reduce(order, out), den))


class CyclotomicNumber:
    """Exact element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("cyclotomic order must be a positive integer")
        fr = [Fraction(c) for c in coeffs]
        den = 1
        for f in fr:
            den = den * f.denominator // gcd(den, f.denominator)
        vec = _reduce(order, [int(f * den) for f in fr])
        self.order = order
        self._num, self._den = _normalize(vec, den)

    @classmethod
    def _raw(cls, order, num, den):
        self = object.__new__(cls)
        self.order = order
        self._num = num
        self._den = den
        return self

    @classmethod
    def rational(cls, order: int, value) -> "CyclotomicNumber":
        f = Fraction(value)
        d = totient(order)
        num = (f.numerator,) + (0,) * (d - 1)
        return cls._raw(order, num, f.denominator)

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls.rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls.rational(order, 1)

    @property
    def coeffs(self) -> tuple:
        """Coordinates over 1, zeta, ..., zeta^{d-1} as Fractions."""
        return tuple(Fraction(n, self._den) for n in self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"orders {self.order} and {other.order} differ; lift explicitly"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        den = d1 * d2 // gcd(d1, d2)
        m1, m2 = den // d1, den // d2
        num = [a * m1 + b * m2 for a, b in zip(self._num, o._num)]
        num, den = _normalize(num, den)
        return CyclotomicNumber._raw(self.order, num, den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._raw(
            self.order, tuple(-x for x in self._num), self._den
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vec = _reduce(self.order, _poly_mul(self._num, o._num))
        num, den = _normalize(vec, self._den * o._den)
        return CyclotomicNumber._raw(self.order, num, den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("powers are non-negative integers")
        base = self
        out = CyclotomicNumber.one(self.order)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _map_exponents(self, order: int, scale: int, shift: int = 0):
        """sum_e c_e zeta_order^{scale*e + shift}."""
        return _scatter(order, self._num, scale, shift, self._den)

    def times_root(self, k: int) -> "CyclotomicNumber":
        """self * zeta_m^k, by shifting every exponent by k."""
        return self._map_exponents(self.order, 1, k)

    def lift(self, new_order: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_{new_order}) via zeta_m = zeta_{new_order}^{new_order/m}."""
        if new_order % self.order:
            raise OrderMismatchError(
                f"cannot lift order {self.order} into order {new_order}"
            )
        return self._map_exponents(new_order, new_order // self.order)

    def to_complex(self) -> complex:
        """Numerical value at zeta_m = exp(2*pi*i/m)."""
        z = 0j
        m = self.order
        for e, c in enumerate(self._num):
            if c:
                z += c * _unit_exp(e, m)
        return z / self._den

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.rational(self.order, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return (
            self.order == other.order
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((self.order, self._num, self._den))

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [str(Fraction(n, self._den)) for n in self._num],
        }

    def __repr__(self):
        return f"CyclotomicNumber({self.order}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                z = f"z{e}" if e > 1 else "z"
                parts.append(z if c == 1 else f"({c})*{z}")
        return " + ".join(parts) + f" [order {self.order}]"


def root_of_unity(order: int, k: int = 1) -> CyclotomicNumber:
    """zeta_order^k as an exact cyclotomic number."""
    return CyclotomicNumber.one(order).times_root(k)


def _poly_mul(a, b):
    """Product of two dense coefficient lists (ascending degree)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out

