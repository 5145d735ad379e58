"""Deformed (Gaussian) binomial coefficients and factorization identities.

The root-product coefficients

    r_k(l, lam) = coefficient of x^k in prod_{j=0}^{l-1} (x - lam^j)

drive everything: at a primitive l-th root of unity the product
collapses to x^l - 1, so every middle coefficient vanishes while
r_0 = -1 and r_l = +1.  The Gaussian binomial

    [l k]_lam = [l]! / ([k]! [l-k]!),     [k] = 1 + lam + ... + lam^{k-1}

relates to them by

    (-1)^{l-k} r_k(l, lam) = lam^{(l-k)(l-k-1)/2} [l k]_lam,

which is checked exactly in the tests (the lam power collapses to 1 in
the vanishing middle range and whenever lam^{l(l-1)/2} = 1).

Everything is computed once over integer polynomials in a formal lam
(quotients are exact polynomial divisions, cached per (l, k)).  An
exact lam in Q(zeta_m) is handled by evaluating that formal polynomial
at lam, so no field division happens and a vanishing q-factorial needs
no special case.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import algebra
from .cyclotomic import CyclotomicNumber, IntPolynomial, root_of_unity

__all__ = [
    "r_poly",
    "q_int",
    "q_factorial",
    "q_binomial",
    "deformed_binomial_theorem_check",
    "commuting_factorization_check",
]


@lru_cache(maxsize=None)
def _r_coeffs_formal(l: int):
    """Coefficients of prod_{j<l}(x - lam^j) as polynomials in lam."""
    coeffs = [IntPolynomial([1])]
    for j in range(l):
        lam_j = IntPolynomial([0] * j + [1])
        nxt = [IntPolynomial()] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - lam_j * c
        coeffs = nxt
    return tuple(coeffs)


def _at(poly: IntPolynomial, lam):
    """poly unchanged for a formal lam=None, else poly(lam) in lam's field."""
    if lam is None:
        return poly
    if not isinstance(lam, CyclotomicNumber):
        raise TypeError("lam must be a CyclotomicNumber (or None for formal)")
    # the zero polynomial evaluates to the int 0; adding the field's zero
    # keeps every result in Q(zeta_m) of lam's order
    return CyclotomicNumber.zero(lam.order) + poly(lam)


def r_poly(k: int, l: int, lam=None):
    """Coefficient of x^k in prod_{j=0}^{l-1} (x - lam^j).

    lam=None keeps lam formal and returns an IntPolynomial in lam;
    otherwise lam is an exact CyclotomicNumber and the result is one.
    """
    if l < 0 or not 0 <= k <= l:
        raise ValueError("need 0 <= k <= l")
    return _at(_r_coeffs_formal(l)[k], lam)


def q_int(k: int, lam=None):
    """[k]_lam = 1 + lam + ... + lam^{k-1}."""
    if k < 0:
        raise ValueError("q-integers need k >= 0")
    return _at(IntPolynomial([1] * k), lam)


def q_factorial(k: int, lam=None):
    """[k]_lam! = prod_{j=1}^{k} [j]_lam."""
    if k < 0:
        raise ValueError("q-factorials need k >= 0")
    out = IntPolynomial([1])
    for j in range(1, k + 1):
        out = out * q_int(j)
    return _at(out, lam)


@lru_cache(maxsize=None)
def _q_binomial_formal(l: int, k: int) -> IntPolynomial:
    num = q_factorial(l)
    den = q_factorial(k) * q_factorial(l - k)
    return num.exact_div(den)


def q_binomial(l: int, k: int, lam=None):
    """Gaussian binomial [l k]_lam.

    The formal quotient [l]! / ([k]! [l-k]!) is an exact polynomial
    division; an exact lam is substituted into it afterwards, which
    stays valid where lam makes some [j]_lam vanish.
    """
    if l < 0 or not 0 <= k <= l:
        raise ValueError("need 0 <= k <= l")
    return _at(_q_binomial_formal(l, k), lam)


def _random_nonzero(rng: random.Random, order: int) -> CyclotomicNumber:
    from .sampling import sample_cyclotomic

    while True:
        c = sample_cyclotomic(rng, order)
        if not c.is_zero():
            return c


def deformed_binomial_theorem_check(
    l: int, lam_order: int | None = None, trials: int = 4, seed: int = 7
) -> bool:
    """Expand (a L + b R)^l with L R = lam R L and match it exactly.

    With L-first normal ordering the closed form is

        (a L + b R)^l
          = sum_k lam^{-k(l-k)} [l k]_lam a^k b^{l-k} L^k R^{l-k},

    the classical deformed binomial theorem transported through the
    reordering R^{l-k} L^k = lam^{-k(l-k)} L^k R^{l-k}.  At a primitive
    l-th root of unity only k = 0 and k = l survive, recovering
    a^l L^l + b^l R^l.  All comparisons are exact.
    """
    if l < 0:
        raise ValueError("power must be non-negative")
    if lam_order is None:
        lam_order = max(l, 1)
    rng = random.Random(seed)
    if lam_order > 1:
        sig = algebra.AlgebraSignature(2, lam_order, mode="weak")
    else:
        # lam = 1: the commuting algebra over Q
        sig = algebra.AlgebraSignature(2, 2, "weak", cyclotomic_order=2, zeta_power=0)
    order = sig.cyclotomic_order
    step = order // lam_order
    # lam and its powers come from lam_order, not from the signature's
    # phase, so the algebra's product is checked, not just restated
    lam = root_of_unity(order, step)
    big_l = algebra.generator(sig, 1)
    big_r = algebra.generator(sig, 2)
    for _ in range(trials):
        a = _random_nonzero(rng, order)
        b = _random_nonzero(rng, order)
        lhs = (big_l * a + big_r * b) ** l
        rhs = algebra.zero(sig)
        for k in range(l + 1):
            coeff = (
                root_of_unity(order, -step * k * (l - k))
                * q_binomial(l, k, lam)
                * a**k
                * b ** (l - k)
            )
            rhs = rhs + algebra.monomial(sig, (k, l - k), coeff)
        if lhs != rhs:
            return False
    return True


def commuting_factorization_check(l: int, order: int | None = None) -> bool:
    """Verify prod_{k=0}^{l-1} (a + zeta^k b) = a^l + (-1)^{l-1} b^l.

    a, b are formal commuting variables; the product is expanded as an
    exact bivariate polynomial with cyclotomic coefficients, zeta a
    primitive l-th root of unity.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    if order is None:
        order = algebra.default_cyclotomic_order(l)
    if order % l:
        raise ValueError("cyclotomic order must be a multiple of l")
    step = order // l
    one = CyclotomicNumber.one(order)
    poly = {(0, 0): one}
    for k in range(l):
        z = root_of_unity(order, step * k)
        nxt: dict = {}
        for (i, j), c in poly.items():
            key_a = (i + 1, j)
            nxt[key_a] = nxt.get(key_a, CyclotomicNumber.zero(order)) + c
            key_b = (i, j + 1)
            nxt[key_b] = nxt.get(key_b, CyclotomicNumber.zero(order)) + z * c
        poly = {e: c for e, c in nxt.items() if not c.is_zero()}
    sign = 1 if l % 2 else -1
    expected = {(l, 0): one, (0, l): CyclotomicNumber.rational(order, sign)}
    return poly == expected
