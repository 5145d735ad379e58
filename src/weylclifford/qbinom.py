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

Each quantity has one recurrence, run in the ring lam lives in: Z[lam]
(IntPolynomial) for a formal lam=None, Q(zeta_m) (CyclotomicNumber) for
an exact lam.  q-integers and q-factorials are sums and products of
powers of lam, the r-row is built factor by factor, and [l k]_lam comes
from the q-Pascal rule.  None of these divides, so a lam that makes
some [j]_lam vanish needs no special case, and nothing is cached.
"""

from __future__ import annotations

import random

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


def _ring(lam):
    """The variable and the one of lam's ring: Z[lam] for None, else Q(zeta_m)."""
    if lam is None:
        return IntPolynomial([0, 1]), IntPolynomial([1])
    if not isinstance(lam, CyclotomicNumber):
        raise TypeError("lam must be a CyclotomicNumber (or None for formal)")
    return lam, CyclotomicNumber.one(lam.order)


def _r_row(l: int, lam):
    """Coefficients of x^0..x^l in prod_{j<l} (x - lam^j), factor by factor."""
    x, one = _ring(lam)
    row, power = [one], one
    for _ in range(l):
        row = [-power * row[0]] + [
            row[i - 1] - power * row[i] for i in range(1, len(row))
        ] + [one]
        power = power * x
    return row


def r_poly(k: int, l: int, lam=None):
    """Coefficient of x^k in prod_{j=0}^{l-1} (x - lam^j).

    lam=None keeps lam formal and returns an IntPolynomial in lam;
    otherwise lam is an exact CyclotomicNumber and the result is one.
    """
    if l < 0 or not 0 <= k <= l:
        raise ValueError("need 0 <= k <= l")
    return _r_row(l, lam)[k]


def q_int(k: int, lam=None):
    """[k]_lam = 1 + lam + ... + lam^{k-1}."""
    if k < 0:
        raise ValueError("q-integers need k >= 0")
    x, one = _ring(lam)
    out, power = one - one, one
    for _ in range(k):
        out, power = out + power, power * x
    return out


def q_factorial(k: int, lam=None):
    """[k]_lam! = prod_{j=1}^{k} [j]_lam."""
    if k < 0:
        raise ValueError("q-factorials need k >= 0")
    x, one = _ring(lam)
    out, qj, power = one, one - one, one
    for _ in range(k):
        qj, power = qj + power, power * x
        out = out * qj
    return out


def q_binomial(l: int, k: int, lam=None):
    """Gaussian binomial [l k]_lam, by the q-Pascal rule in lam's ring.

    [n j] = [n-1 j-1] + lam^j [n-1 j] only adds and multiplies, so it
    holds as written in Z[lam] and at every exact lam, including those
    where some [j]_lam vanishes and a quotient of q-factorials is 0/0.
    With j = min(k, l-k), the entries [i+b b] for i <= l-j, b <= j are
    filled one i at a time.
    """
    if l < 0 or not 0 <= k <= l:
        raise ValueError("need 0 <= k <= l")
    x, one = _ring(lam)
    j = min(k, l - k)
    if j == 0:
        return one
    powers = [one]
    for _ in range(j):
        powers.append(powers[-1] * x)
    col = [one] * (j + 1)
    for _ in range(l - j):
        for b in range(1, j + 1):
            col[b] = col[b - 1] + powers[b] * col[b]
    return col[j]


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
                q_binomial(l, k, lam).times_root(-step * k * (l - k))
                * a**k
                * b ** (l - k)
            )
            rhs = rhs + algebra.monomial(sig, (k, l - k), coeff)
        if lhs != rhs:
            return False
    return True


def commuting_factorization_check(l: int) -> bool:
    """Verify prod_{k=0}^{l-1} (a + zeta^k b) = a^l + (-1)^{l-1} b^l.

    Homogenizing at x = -a/b turns this into prod_{k<l} (x - zeta^k) =
    x^l - 1, so the check is that the r-row of r_poly at zeta, a
    primitive l-th root of unity, is exactly [-1, 0, ..., 0, 1].
    """
    if l < 1:
        raise ValueError("need l >= 1")
    return _r_row(l, root_of_unity(l)) == [-1] + [0] * (l - 1) + [1]
