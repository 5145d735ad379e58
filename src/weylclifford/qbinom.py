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

The q-integers, q-factorials, r-row (built factor by factor) and
[l k]_lam (the q-Pascal rule) all run on lists c of integers, standing
for sum_i c[i] lam^i in Z[x]/(x^size - 1): multiplying by lam^b rotates
the list by b, and multiplying by [j]_lam is a cyclic window sum.  lam
enters once, at the end.  At a root of unity lam = +-zeta_m^s, of order
M, size = M and each list goes to Q(zeta_m) by one scatter to the
exponents s*i mod m, signed (-1)^i for -zeta_m^s at odd m, and one
reduction; there q-Lucas first cuts [l k] to

    [l k]_lam = C(l // M, k // M) [l mod M, k mod M]_lam,

0 when k mod M > l mod M, so lam = 1 gives C(l, k) at once.  For
lam=None the size is one above the formal degree, so the list is the
polynomial in lam (an IntPolynomial), and any other lam (1 + zeta, a
rational) evaluates these polynomials against one table of powers of
lam.  None of these divides, so a lam that makes some [j]_lam vanish
needs no special case, and nothing is cached.
"""

from __future__ import annotations

import random
from itertools import accumulate
from math import comb, gcd, lcm
from operator import add, index, mul, sub

from . import algebra
from .cyclotomic import (
    CyclotomicNumber,
    IntPolynomial,
    _normalize,
    _scatter,
    root_of_unity,
)

__all__ = [
    "r_poly",
    "q_int",
    "q_factorial",
    "q_binomial",
    "deformed_binomial_theorem_check",
    "commuting_factorization_check",
]


def _root_exponent(lam):
    """(s, sign) with lam = sign * zeta_m^s (m = lam.order), else None.

    zeta^s is the basis vector of exponent s - r for the multiple r of
    d = phi(m) with r <= s < r + d, so at most ceil(m/d) shifts by
    zeta^-r look for a single coordinate +-1.  -zeta^t is zeta^(t + m/2)
    at even m, so sign = -1 only at odd m.  Exact, no floats; None for
    lam = None, and a TypeError for a lam that is not cyclotomic.
    """
    if lam is not None and not isinstance(lam, CyclotomicNumber):
        raise TypeError("lam must be a CyclotomicNumber (or None for formal)")
    if lam is None or lam._den != 1:
        return None
    m = lam.order
    for r in range(0, m, len(lam._num)):
        num = lam.times_root(-r)._num
        hits = [t for t, c in enumerate(num) if c]
        if len(hits) == 1:  # lam = c zeta^(r + t)
            t = hits[0]
            if num[t] == 1:
                return r + t, 1
            if num[t] == -1:
                return (r + t, -1) if m % 2 else ((r + t + m // 2) % m, 1)
            return None
    return None


def _root_order(m, s, sign):
    """The order of sign * zeta_m^s: M, or 2M for sign = -1 at odd m."""
    order = m // gcd(s, m)
    return order if sign == 1 else 2 * order


def _values(lists, lam, root):
    """[sum_i c[i] lam^i for c in lists]: the one exit of the integer lists.

    IntPolynomials for lam=None.  At lam = sign * zeta_m^s, a scatter of
    each list to the exponents s*i mod m, signed (-1)^i for sign = -1, and
    one reduction.  At any other lam, integer combinations of the
    coordinates of one table of powers of lam over a common denominator.
    """
    if lam is None:
        return [IntPolynomial(c) for c in lists]
    m = lam.order
    if root is None:
        powers = [CyclotomicNumber.one(m)]
        for _ in range(1, max(map(len, lists))):
            powers.append(powers[-1] * lam)
        den = lcm(*(p._den for p in powers))
        cols = list(zip(*([x * (den // p._den) for x in p._num] for p in powers)))
        return [
            CyclotomicNumber._raw(
                m, *_normalize([sum(map(mul, c, col)) for col in cols], den)
            )
            for c in lists
        ]
    s, sign = root
    if sign == -1:  # lam^i = (-1)^i zeta^(s i)
        lists = [[-x if i % 2 else x for i, x in enumerate(c)] for c in lists]
    return [_scatter(m, c, s) for c in lists]


def _r_row(l: int, lam):
    """Coefficients of x^0..x^l in prod_{j<l} (x - lam^j), factor by factor.

    Each coefficient is an integer list of length lam's order at a root
    of unity, else 1 + l(l-1)/2, one above its degree in lam.
    """
    root = _root_exponent(lam)
    size = l * (l - 1) // 2 + 1 if root is None else _root_order(lam.order, *root)
    unit = [1] + [0] * (size - 1)
    row = [unit]
    for p in range(l):
        r = p % size
        turned = [c[-r:] + c[:-r] for c in row]  # lam^p * row[i]
        row = (
            [[-x for x in turned[0]]]
            + [list(map(sub, a, b)) for a, b in zip(row, turned[1:])]
            + [unit]
        )
    return _values(row, lam, root)


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
    if index(k) < 0:  # index: a TypeError for a k that is not an integer
        raise ValueError("q-integers need k >= 0")
    root = _root_exponent(lam)
    size = max(k, 1) if root is None else _root_order(lam.order, *root)
    q, r = divmod(k, size)  # entry i counts the e < k with e = i mod size
    return _values([[q + (i < r) for i in range(size)]], lam, root)[0]


def q_factorial(k: int, lam=None):
    """[k]_lam! = prod_{j=1}^{k} [j]_lam.

    Multiplying a list c by [j] sums the j entries c[i-j+1..i] at each
    i, cyclically: (j // size) sum(c) plus a window of j % size entries,
    a difference of two prefix sums.  size is 1 + k(k-1)/2 if lam is
    formal, else lam's order N, and [k]_lam! = 0 for k >= N > 1.
    """
    if index(k) < 0:  # index: a TypeError for a k that is not an integer
        raise ValueError("q-factorials need k >= 0")
    root = _root_exponent(lam)
    size = k * (k - 1) // 2 + 1 if root is None else _root_order(lam.order, *root)
    if root is not None and 1 < size <= k:  # the factor [size]_lam is 0
        return _values([[]], lam, root)[0]
    c = [1] + [0] * (size - 1)
    for j in range(2, k + 1):
        q, r = divmod(j, size)
        pre = list(accumulate(c + c, initial=0))
        total = q * pre[size]
        c = [total + b - a for a, b in zip(pre[size + 1 - r :], pre[size + 1 :])]
    return _values([c], lam, root)[0]


def q_binomial(l: int, k: int, lam=None):
    """Gaussian binomial [l k]_lam, by the q-Pascal rule on integer lists.

    [n b] = [n-1 b-1] + lam^b [n-1 b] only adds and multiplies by powers
    of lam, so it holds as written in Z[x]/(x^size - 1), including at a
    lam where some [j]_lam vanishes and a quotient of q-factorials is
    0/0.  At lam = +-zeta_m^s of order M, q-Lucas leaves l, k < M and
    size = M; otherwise size = j(l-j) + 1, one above the degree of the
    formal [l j], with j = min(k, l-k).  The entries [i+b b] for
    i <= l-j, b <= j are filled one i at a time.
    """
    if l < 0 or not 0 <= k <= l:
        raise ValueError("need 0 <= k <= l")
    root = _root_exponent(lam)
    scale = 1
    if root is not None:
        order = _root_order(lam.order, *root)
        scale = comb(l // order, k // order)
        l, k = l % order, k % order
        if k > l:
            return _values([[]], lam, root)[0]
    j = min(k, l - k)
    if j == 0:
        return _values([[scale]], lam, root)[0]
    size = j * (l - j) + 1 if root is None else order
    col = [[scale] + [0] * (size - 1)] * (j + 1)
    for _ in range(l - j):
        for b in range(1, j + 1):
            c = col[b]
            col[b] = list(map(add, col[b - 1], c[-b:] + c[:-b]))
    return _values([col[j]], lam, root)[0]


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
    elif lam_order < 1:
        raise ValueError("lam_order must be at least 1")
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
    one = CyclotomicNumber.one(order)
    big_l = algebra.generator(sig, 1)
    big_r = algebra.generator(sig, 2)
    for _ in range(trials):
        a = _random_nonzero(rng, order)
        b = _random_nonzero(rng, order)
        lhs = (big_l * a + big_r * b) ** l
        a_pow, b_pow = [one], [one]
        for _ in range(l):
            a_pow.append(a_pow[-1] * a)
            b_pow.append(b_pow[-1] * b)
        rhs = algebra.zero(sig)
        for k in range(l + 1):
            coeff = (
                q_binomial(l, k, lam).times_root(-step * k * (l - k))
                * a_pow[k]
                * b_pow[l - k]
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
