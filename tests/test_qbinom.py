import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import weylclifford
from weylclifford.cyclotomic import CyclotomicNumber, IntPolynomial, root_of_unity
from weylclifford.qbinom import (
    _root_exponent,
    commuting_factorization_check,
    deformed_binomial_theorem_check,
    q_binomial,
    q_factorial,
    q_int,
    r_poly,
)


def horner(p, x):
    """Independent oracle: the IntPolynomial p evaluated at x by Horner."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def gaussian_by_word_count(l, k):
    """Independent oracle: sum of q^inv over all words with k ones.

    inv counts pairs (zero before one); the generating function over
    binary words of length l with k ones is the Gaussian binomial.
    """
    total = IntPolynomial([0])
    for mask in range(1 << l):
        if bin(mask).count("1") != k:
            continue
        inv = 0
        zeros_seen = 0
        for pos in range(l):
            if (mask >> pos) & 1:
                inv += zeros_seen
            else:
                zeros_seen += 1
        total = total + IntPolynomial([0] * inv + [1])
    return total


def root_product_in_field(l, lam):
    """Independent oracle: expand prod_{j<l} (x - lam^j) with field ops.

    Returns the coefficients of x^0..x^l as CyclotomicNumbers, built
    factor by factor in Q(zeta_m) without any formal polynomial in lam.
    """
    one = CyclotomicNumber.one(lam.order)
    coeffs = [one]
    power = one
    for _ in range(l):
        nxt = [CyclotomicNumber.zero(lam.order)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - power * c
        coeffs = nxt
        power = power * lam
    return coeffs


def bivariate_root_product(l, order):
    """Independent oracle: expand prod_{k<l} (a + zeta^k b) as a dict.

    Keys are exponent pairs (i, j) of a^i b^j, zeta is a primitive l-th
    root of unity in Q(zeta_order), and zero coefficients are dropped.
    """
    step = order // l
    poly = {(0, 0): CyclotomicNumber.one(order)}
    for k in range(l):
        z = root_of_unity(order, step * k)
        nxt = {}
        for (i, j), c in poly.items():
            key_a = (i + 1, j)
            nxt[key_a] = nxt.get(key_a, CyclotomicNumber.zero(order)) + c
            key_b = (i, j + 1)
            nxt[key_b] = nxt.get(key_b, CyclotomicNumber.zero(order)) + z * c
        poly = {e: c for e, c in nxt.items() if not c.is_zero()}
    return poly


def q_pascal_in_field(l, k, lam):
    """Independent oracle: [l k]_lam by the q-Pascal rule in Q(zeta_m).

    [n b] = [n-1 b-1] + lam^b [n-1 b] with CyclotomicNumber products, the
    field recurrence the integer-list q_binomial replaced.
    """
    one = CyclotomicNumber.one(lam.order)
    j = min(k, l - k)
    powers = [one]
    for _ in range(j):
        powers.append(powers[-1] * lam)
    col = [one] * (j + 1)
    for _ in range(l - j):
        for b in range(1, j + 1):
            col[b] = col[b - 1] + powers[b] * col[b]
    return col[j]


def q_int_in_field(k, lam):
    """Independent oracle: [k]_lam = 1 + lam + ... + lam^(k-1) summed in
    Q(zeta_m) with CyclotomicNumber operations."""
    one = CyclotomicNumber.one(lam.order)
    out, power = one - one, one
    for _ in range(k):
        out, power = out + power, power * lam
    return out


def q_factorial_in_field(k, lam):
    """Independent oracle: [k]_lam! = prod_{j<=k} [j]_lam with CyclotomicNumber
    sums and products, the field recurrence the integer-list q_factorial
    replaced."""
    one = CyclotomicNumber.one(lam.order)
    out, qj, power = one, one - one, one
    for _ in range(k):
        qj, power = qj + power, power * lam
        out = out * qj
    return out


@st.composite
def root_and_entry(draw):
    """(lam, l, k): lam = zeta_m^s or -zeta_m^s, the latter zeta_m^(s + m/2)
    at even m and a root of order 2M at odd m (M that of zeta_m^s).

    With N the order of lam, l = q N + r <= 3N + 2 and k = a N + c <= l,
    so the q-Lucas factor C(q, a) takes every value and the factor
    [r c] is 0 whenever c > r; q <= 1 above order 40.
    """
    m = draw(st.integers(min_value=1, max_value=40))
    s = draw(st.integers(min_value=0, max_value=m - 1))
    sign = draw(st.sampled_from([1, -1]))
    lam = root_of_unity(m, s) * sign
    if sign == 1 or m % 2 == 0:
        order = m // math.gcd(s if sign == 1 else s + m // 2, m)
    else:
        order = 2 * (m // math.gcd(s, m))
    q = draw(st.integers(min_value=0, max_value=3 if order <= 40 else 1))
    r = draw(st.integers(min_value=0, max_value=order - 1 if q < 3 else min(2, order - 1)))
    a = draw(st.integers(min_value=0, max_value=q))
    c = draw(st.integers(min_value=0, max_value=r if a == q else order - 1))
    return lam, q * order + r, a * order + c


@st.composite
def other_lam_and_entry(draw):
    """(lam, l, k), l <= 24, for lam a power of no root of unity: 1 + zeta
    (m != 3), 2, 1/2 or 0 (lam takes the formal path)."""
    kind = draw(st.sampled_from(["1+zeta", "2", "1/2", "0"]))
    m = draw(st.integers(min_value=1, max_value=40).filter(lambda m: m != 3))
    value = {"1+zeta": root_of_unity(m) + 1, "2": 2, "1/2": Fraction(1, 2), "0": 0}
    lam = CyclotomicNumber.rational(m, 0) + value[kind]
    l = draw(st.integers(min_value=0, max_value=24))
    return lam, l, draw(st.integers(min_value=0, max_value=l))


# ---------------------------------------------------------------------------
# r polynomials
# ---------------------------------------------------------------------------

def test_r_poly_formal_quadratic():
    # (x - 1)(x - lam) = x^2 - (1 + lam) x + lam
    assert r_poly(0, 2) == IntPolynomial([0, 1])
    assert r_poly(1, 2) == IntPolynomial([-1, -1])
    assert r_poly(2, 2) == IntPolynomial([1])


def test_r_poly_monic_and_range():
    for l in range(1, 9):
        assert r_poly(l, l) == IntPolynomial([1])
    with pytest.raises(ValueError):
        r_poly(3, 2)
    with pytest.raises(ValueError):
        r_poly(-1, 2)


def test_r_poly_at_primitive_root_collapses():
    # the product becomes x^l - 1: r_0 = -1, r_l = +1, middle zero
    for l in range(2, 13):
        z = root_of_unity(l)
        assert r_poly(0, l, z) == -1
        assert r_poly(l, l, z) == 1
        for k in range(1, l):
            assert r_poly(k, l, z).is_zero()


def test_r_poly_cyclotomic_matches_formal_evaluation():
    # the formal polynomial at lam against the product expanded in the field
    for l in range(0, 7):
        for order in (1, 3, 4, 5, 8):
            lam = root_of_unity(order, 3 if order > 3 else 1)
            expected = root_product_in_field(l, lam)
            for k in range(l + 1):
                assert r_poly(k, l, lam) == expected[k]


# ---------------------------------------------------------------------------
# q integers, factorials, binomials
# ---------------------------------------------------------------------------

def test_q_int_and_factorial():
    assert q_int(4) == IntPolynomial([1, 1, 1, 1])
    assert q_int(0) == IntPolynomial([0])
    lam = root_of_unity(4)
    assert q_int(2, lam) == CyclotomicNumber(4, [1, 1])
    # the empty sum is the field's zero, not the integer 0
    assert q_int(0, lam) == CyclotomicNumber.zero(4)
    assert isinstance(q_int(0, lam), CyclotomicNumber)
    assert isinstance(q_factorial(0, lam), CyclotomicNumber)
    assert q_factorial(3) == IntPolynomial([1, 1, 1]) * IntPolynomial([1, 1])
    assert q_factorial(0) == IntPolynomial([1])


def test_q_binomial_at_unit_is_binomial():
    one = CyclotomicNumber.one(1)
    for l in range(9):
        for k in range(l + 1):
            assert q_binomial(l, k, one) == math.comb(l, k)


def test_q_binomial_formal_small():
    assert q_binomial(2, 1) == IntPolynomial([1, 1])
    assert q_binomial(4, 2) == IntPolynomial([1, 1, 2, 1, 1])


def test_q_binomial_symmetry():
    for l in range(9):
        for k in range(l + 1):
            assert q_binomial(l, k) == q_binomial(l, l - k)
            lam = root_of_unity(7)
            assert q_binomial(l, k, lam) == q_binomial(l, l - k, lam)


def test_q_binomial_word_enumeration_oracle():
    for l in range(8):
        for k in range(l + 1):
            assert q_binomial(l, k) == gaussian_by_word_count(l, k)


def test_q_pascal_recurrence():
    # [l k] = [l-1 k-1] + q^k [l-1 k]
    for l in range(1, 10):
        for k in range(1, l):
            shift = IntPolynomial([0] * k + [1])
            assert q_binomial(l, k) == q_binomial(l - 1, k - 1) + shift * q_binomial(l - 1, k)


def test_q_pascal_recurrence_in_the_field():
    # rows of [l k]_lam built by [l k] = [l-1 k-1] + lam^k [l-1 k] with
    # CyclotomicNumber operations only, at orders l + 1 and 2l
    for top in range(1, 9):
        for order in (top + 1, 2 * top):
            lam = root_of_unity(order)
            one = CyclotomicNumber.one(order)
            row = [one]
            for l in range(1, top + 1):
                row = [one] + [row[k - 1] + lam**k * row[k] for k in range(1, l)] + [one]
            for k in range(top + 1):
                assert q_binomial(top, k, lam) == row[k], (top, k, order)


def test_q_binomial_field_quotient_where_invertible():
    # at orders l + 1 and 2l no [j]_lam with j <= l vanishes, so the value
    # is also the quotient of q-factorials in Q(zeta_m): a field, where a
    # nonzero denominator fixes the quotient by the product identity
    for l in range(1, 9):
        for order in (l + 1, 2 * l):
            lam = root_of_unity(order)
            for k in range(l + 1):
                den = q_factorial(k, lam) * q_factorial(l - k, lam)
                assert not den.is_zero()
                assert q_binomial(l, k, lam) * den == q_factorial(l, lam)


def test_non_cyclotomic_lam_is_rejected():
    for f in (lambda: q_int(2, 1), lambda: q_factorial(2, 0.5), lambda: q_binomial(3, 1, 2)):
        with pytest.raises(TypeError):
            f()
    with pytest.raises(TypeError):
        r_poly(1, 2, 1)
    # so is a float k, on each of the formal, root and other-lam paths
    for lam in (None, root_of_unity(3), root_of_unity(5) + 1):
        for f in (q_int, q_factorial):
            with pytest.raises(TypeError):
                f(2.0, lam)


def test_q_binomial_matches_formal_quotient_evaluated():
    # the q-Pascal value against the exact quotient of formal q-factorials
    # evaluated at lam; orders up to 2l + 1 include every 0/0 order.  Z[lam]
    # is a domain, so the product identity makes formal that quotient
    for l in range(13):
        for k in range(l + 1):
            formal = q_binomial(l, k)
            assert formal * q_factorial(k) * q_factorial(l - k) == q_factorial(l)
            for order in range(1, 2 * l + 2):
                lam = root_of_unity(order)
                assert q_binomial(l, k, lam) == horner(formal, lam), (l, k, order)


def test_signed_roots_match_formal_evaluation():
    # lam = -zeta_m^s at odd m is no power of zeta_m, so q_binomial, r_poly,
    # q_int and q_factorial evaluate through the signed root branch,
    # lam^i = (-1)^i zeta^(s i)
    for m in range(1, 10, 2):
        for s in range(m):
            lam = -root_of_unity(m, s)
            assert _root_exponent(lam) == (s, -1)
            for l in range(9):
                for k in range(l + 1):
                    case = (m, s, l, k)
                    assert q_binomial(l, k, lam) == horner(q_binomial(l, k), lam), case
                    assert r_poly(k, l, lam) == horner(r_poly(k, l), lam), case
                assert q_int(l, lam) == horner(q_int(l), lam), (m, s, l)
                assert q_factorial(l, lam) == horner(q_factorial(l), lam), (m, s, l)


def test_q_factorial_vanishes_from_the_order_of_lam():
    # at lam = +-zeta_m^s of order N > 1, [N]_lam = 0 is a factor of [k]_lam!
    # for k >= N, while the [j]_lam with j < N are nonzero in a field; at
    # lam = 1 (N = 1) the q-factorial is k!
    for m in range(1, 16):
        for s in range(m):
            for sign in (1, -1):
                lam = root_of_unity(m, s) * sign
                one, power, order = CyclotomicNumber.one(m), lam, 1
                while power != one:
                    power, order = power * lam, order + 1
                for k in range(order + 2):
                    value = q_factorial(k, lam)
                    if order == 1:
                        assert value == math.factorial(k), (m, s, sign, k)
                    else:
                        assert value.is_zero() == (k >= order), (m, s, sign, k)
                if order > 1:
                    assert q_int(order, lam).is_zero(), (m, s, sign)


def test_q_binomial_edge_columns_need_no_row():
    # [l 0] = [l l] = 1 for any l, with no pass over the rows
    lam = root_of_unity(3)
    assert q_binomial(10**6, 0, lam) == 1
    assert q_binomial(10**6, 10**6, lam) == 1
    assert q_binomial(10**6, 0) == IntPolynomial([1])


def test_q_binomial_vanishing_at_primitive_roots():
    for l in range(2, 13):
        z = root_of_unity(l)
        for k in range(1, l):
            assert q_binomial(l, k, z).is_zero()
        assert q_binomial(l, 0, z) == 1
        assert q_binomial(l, l, z) == 1


def test_q_binomial_zero_denominator_fallback():
    # lam of order 3 kills [3]_lam, so a quotient of q-factorials in the
    # field would divide 0 by 0; the formal polynomial at lam is defined
    z3 = root_of_unity(3)
    assert q_binomial(6, 3, z3) == horner(q_binomial(6, 3), z3)
    assert q_binomial(6, 3, z3) == 2
    z2 = root_of_unity(2)
    assert q_binomial(4, 2, z2) == 2
    assert q_binomial(6, 2, z2) == 3


def test_q_binomial_example_values():
    lam = root_of_unity(4)
    assert q_binomial(2, 1, lam) == CyclotomicNumber(4, [1, 1])
    assert q_binomial(5, 2, root_of_unity(5)).is_zero()


def test_r_to_q_consistency_with_power_factor():
    # (-1)^{l-k} r_k(l, lam) = lam^{(l-k)(l-k-1)/2} [l k]_lam, exactly
    for l in range(9):
        for order in range(1, 13):
            lam = root_of_unity(order)
            for k in range(l + 1):
                lhs = r_poly(k, l, lam) * ((-1) ** (l - k))
                rhs = lam ** ((l - k) * (l - k - 1) // 2) * q_binomial(l, k, lam)
                assert lhs == rhs, (l, k, order)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=12))
@settings(max_examples=50, deadline=None)
def test_r_to_q_consistency_formal_hypothesis(l, order):
    lam = root_of_unity(order)
    for k in range(l + 1):
        lhs = horner(r_poly(k, l), lam) * ((-1) ** (l - k))
        rhs = lam ** ((l - k) * (l - k - 1) // 2) * q_binomial(l, k, lam)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the two expansion theorems
# ---------------------------------------------------------------------------

def test_deformed_binomial_theorem_primitive():
    for l in range(7):
        assert deformed_binomial_theorem_check(l)


def test_deformed_binomial_theorem_other_orders():
    assert deformed_binomial_theorem_check(4, lam_order=2)
    assert deformed_binomial_theorem_check(3, lam_order=6)
    assert deformed_binomial_theorem_check(4, lam_order=1)
    assert deformed_binomial_theorem_check(5, lam_order=5, trials=2, seed=123)


def test_theorem_check_rejects_invalid_lambda_order():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            deformed_binomial_theorem_check(3, bad)


@pytest.mark.parametrize("seed", range(3))
def test_deformed_binomial_theorem_at_unit_lambda(seed):
    # lam = 1 runs through the commuting algebra (zeta_power 0), whose
    # expansion must be the ordinary binomial theorem
    for l in range(9):
        assert deformed_binomial_theorem_check(l, lam_order=1, trials=3, seed=seed)


def test_commuting_factorization():
    for l in range(1, 11):
        assert commuting_factorization_check(l)


def test_commuting_factorization_matches_bivariate_expansion():
    # prod_k (a + zeta^k b) = sum_i (-1)^{l-i} r_i(l, zeta) a^i b^{l-i}
    for l in range(1, 13):
        order = 2 * l
        poly = bivariate_root_product(l, order)
        sign = 1 if l % 2 else -1
        expected = {(l, 0): 1, (0, l): CyclotomicNumber.rational(order, sign)}
        assert poly == expected and commuting_factorization_check(l)
        zeta = root_of_unity(order, 2)
        for i in range(l + 1):
            coeff = poly.get((i, l - i), CyclotomicNumber.zero(order))
            assert coeff == r_poly(i, l, zeta) * (-1) ** (l - i), (l, i)


# ---------------------------------------------------------------------------
# the integer-list recurrences against the field ones
# ---------------------------------------------------------------------------

@given(st.one_of(root_and_entry(), other_lam_and_entry()))
@settings(max_examples=100, deadline=None)
def test_integer_lists_match_field_recurrences(entry):
    lam, l, k = entry
    assert q_binomial(l, k, lam) == q_pascal_in_field(l, k, lam), (lam, l, k)
    assert r_poly(k, l, lam) == root_product_in_field(l, lam)[k], (lam, l, k)
    assert q_int(k, lam) == q_int_in_field(k, lam), (lam, k)
    assert q_factorial(l, lam) == q_factorial_in_field(l, lam), (lam, l)


def test_root_exponent_recovers_every_root():
    for m in range(1, 61):
        z = root_of_unity(m)
        for s in range(m):
            lam = root_of_unity(m, s)
            assert _root_exponent(lam) == (s, 1), (m, s)
            # -zeta^s = zeta^(s + m/2) at even m, no power of zeta_m at odd m
            expected = ((s + m // 2) % m, 1) if m % 2 == 0 else (s, -1)
            assert _root_exponent(-lam) == expected, (m, s)
        # |1 + zeta| = 2 cos(pi/m) is 1 only at m = 3, where 1 + zeta and
        # zeta + zeta^2 are -zeta^2 and -1
        for other in (z + 1, z + z * z, z * 2, 2, Fraction(1, 2), 0):
            lam = CyclotomicNumber.rational(m, 0) + other
            expected = None
            if m == 3 and other in (z + 1, z + z * z):
                expected = (2, -1) if other == z + 1 else (0, -1)
            assert _root_exponent(lam) == expected, (m, other)
    assert _root_exponent(None) is None
    with pytest.raises(TypeError):
        _root_exponent(2)


LARGE_QBINOM = """
from weylclifford import cli
from weylclifford.cyclotomic import root_of_unity
from weylclifford.qbinom import q_binomial
assert cli.main(["qbinom", "512", "256"]) == 0
# at a primitive p-th root, [p-1 k] = (-1)^k zeta^(-k(k+1)/2)
assert q_binomial(256, 128, root_of_unity(257)) == root_of_unity(257, -128 * 129 // 2)
"""


def test_large_entries_near_the_cap_are_quick():
    # qbinom 512 256 is 0 by q-Lucas; [256 128] at zeta_257, where q-Lucas
    # does not help, runs on integer lists of 257 entries
    src = str(Path(weylclifford.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", LARGE_QBINOM],
        capture_output=True, text=True, env=env, check=True, timeout=6,
    ).stdout
    value = json.loads(out)["value"]
    assert value == {"order": 512, "coeffs": ["0"] * 256}


LARGE_QFACTORIAL = """
import math
from weylclifford.cyclotomic import root_of_unity
from weylclifford.qbinom import q_binomial, q_factorial
formal = q_factorial(150)
assert formal.degree == 150 * 149 // 2 and sum(formal.coeffs) == math.factorial(150)
zeta = root_of_unity(257)
half = q_factorial(128, zeta)
assert q_binomial(256, 128, zeta) * half * half == q_factorial(256, zeta)
"""


def test_large_q_factorials_are_quick():
    # a formal [150]! has 11,176 coefficients and [256]! at zeta_257 is a
    # product of 255 nonzero factors; each multiplication by [j] is a
    # window sum on an integer list
    src = str(Path(weylclifford.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", LARGE_QFACTORIAL],
        capture_output=True, text=True, env=env, check=True, timeout=6,
    )
