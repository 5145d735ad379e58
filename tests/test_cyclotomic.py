import cmath
import math
import os
import subprocess
import sys
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import weylclifford
from weylclifford.cyclotomic import (
    CyclotomicNumber,
    IntPolynomial,
    OrderMismatchError,
    _reduce,
    cyclotomic_polynomial,
    root_of_unity,
    totient,
)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def test_phi_small_cases():
    assert cyclotomic_polynomial(1) == IntPolynomial([-1, 1])
    assert cyclotomic_polynomial(2) == IntPolynomial([1, 1])
    assert cyclotomic_polynomial(3) == IntPolynomial([1, 1, 1])
    assert cyclotomic_polynomial(4) == IntPolynomial([1, 0, 1])
    assert cyclotomic_polynomial(6) == IntPolynomial([1, -1, 1])


def test_phi_12_against_independent_division():
    # x^12 - 1 over the product of the proper-divisor cyclotomics is
    # 1 - x^2 + x^4, checked as a product in Z[x], a domain: exact
    # division by a nonzero polynomial has at most one quotient
    num = IntPolynomial([-1] + [0] * 11 + [1])
    den = IntPolynomial([1])
    for d in (1, 2, 3, 4, 6):
        den = den * cyclotomic_polynomial(d)
    assert IntPolynomial([1, 0, -1, 0, 1]) * den == num
    assert cyclotomic_polynomial(12) == IntPolynomial([1, 0, -1, 0, 1])


def test_divisor_product_recovers_x_m_minus_1():
    for m in range(1, 31):
        prod = IntPolynomial([1])
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == IntPolynomial([-1] + [0] * (m - 1) + [1])


LARGE_PHI = """
from weylclifford.cyclotomic import cyclotomic_polynomial, root_of_unity
for m in (2310, 30030):
    assert root_of_unity(m).coeffs[1] == 1
    at_two = 1
    for d in range(1, m + 1):
        if m % d == 0:
            value = 0
            for c in reversed(cyclotomic_polynomial(d).coeffs):
                value = 2 * value + c
            at_two *= value
    print(m, cyclotomic_polynomial(m).degree, at_two == 2**m - 1)
"""


def test_large_squarefree_orders_build_quickly():
    # 2310 = 2*3*5*7*11 and 30030 = 2310*13 have many divisors; a fresh
    # interpreter with a timeout makes a slow build fail instead of hang
    src = str(Path(weylclifford.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", LARGE_PHI],
        capture_output=True, text=True, env=env, check=True, timeout=30,
    ).stdout.split()
    for m, primes, line in zip(
        (2310, 30030), ((2, 3, 5, 7, 11), (2, 3, 5, 7, 11, 13)), zip(*[iter(out)] * 3)
    ):
        deg = Fraction(m)
        for p in primes:
            deg *= 1 - Fraction(1, p)
        # deg Phi_m = phi(m), and prod_{d | m} Phi_d(2) = 2^m - 1
        assert line == (str(m), str(deg), "True")


def test_phi_degree_is_totient():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 9: 6, 10: 4, 12: 4, 30: 8}
    for m, t in known.items():
        assert totient(m) == t
        assert cyclotomic_polynomial(m).degree == t


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------

def test_root_examples():
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(4, 1).coeffs == (Fraction(0), Fraction(1))
    assert root_of_unity(3, 3) == 1


def test_root_of_unity_rejects_nonpositive_order():
    for order in (0, -3):
        with pytest.raises(ValueError, match="positive integer"):
            root_of_unity(order)


def test_root_power_and_product_laws():
    for m in (3, 4, 5, 6, 8, 12):
        z = root_of_unity(m)
        assert z**m == CyclotomicNumber.one(m)
        for k in range(1, m):
            assert z**k != CyclotomicNumber.one(m)
        for k in range(m):
            for j in range(m):
                assert root_of_unity(m, k) * root_of_unity(m, j) == root_of_unity(m, k + j)


def test_primitive_root_sum_vanishes():
    for m in (3, 5, 7, 11):
        total = CyclotomicNumber.zero(m)
        for k in range(m):
            total = total + root_of_unity(m, k)
        assert total.is_zero()


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

def _sample(order, seed):
    import random

    rng = random.Random(seed)
    deg = totient(order)
    coeffs = [Fraction(rng.randint(-10, 10), rng.randint(1, 7)) for _ in range(deg)]
    return CyclotomicNumber(order, coeffs)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_field_axioms(order, seed):
    x = _sample(order, seed)
    y = _sample(order, seed + 1)
    z = _sample(order, seed + 2)
    assert (x + y) + z == x + (y + z)
    assert x * (y * z) == (x * y) * z
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_inverse_round_trip(order, k, seed):
    # nothing divides in the field: a power of a dense element is its
    # k-fold product, and /, 1/x and negative powers are refused
    x = _sample(order, seed)
    y = _sample(order, seed + 1)
    product = CyclotomicNumber.one(order)
    for _ in range(k):
        product = product * x
    assert x ** k == product
    with pytest.raises(TypeError):
        x / y
    with pytest.raises(TypeError):
        1 / x
    with pytest.raises(ValueError, match="non-negative"):
        x ** -1


def test_root_inverse_is_complementary_power():
    for l in (3, 4, 7, 9):
        for k in range(1, l):
            assert root_of_unity(l, k) * root_of_unity(l, l - k) == 1


def test_large_order_roots_have_no_recursion_limit():
    # the reduction mod Phi_m is an iterative synthetic division
    m = 2000
    assert root_of_unity(m, m - 1) * root_of_unity(m, 1) == 1
    for k in (1, 7, 999):
        assert root_of_unity(m, k) * root_of_unity(m, m - k) == 1


RETAINED_AT_2000 = """
import gc, tracemalloc
from weylclifford.cyclotomic import root_of_unity
tracemalloc.start()
assert root_of_unity(2000, 1999) * root_of_unity(2000, 1) == 1
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_large_order_reduction_keeps_no_table():
    # a table of every zeta^e mod Phi_2000 would hold 2000 * 800 integers
    # (about 12 MiB); only Phi_m's few nonzero coefficients may stay.  A
    # fresh interpreter keeps earlier tests' caches out of the count.
    src = str(Path(weylclifford.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", RETAINED_AT_2000],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert int(out) < 1 << 20


def _poly_divmod(a, b):
    """Quotient and remainder of dense rational coefficient lists."""
    rem = [Fraction(c) for c in a]
    dq = len(rem) - len(b)
    if dq < 0:
        return [], rem
    quo = [Fraction(0)] * (dq + 1)
    lead = Fraction(b[-1])
    for i in range(dq, -1, -1):
        c = rem[i + len(b) - 1] / lead
        quo[i] = c
        if c:
            for j, bj in enumerate(b):
                rem[i + j] -= c * bj
    return quo, rem


@given(
    st.integers(min_value=1, max_value=130).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(-10**6, 10**6), max_size=3 * m),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_reduce_matches_long_division_by_phi(case):
    # the long division by Phi_m is the reference for the fold-then-divide
    m, coeffs = case
    d = totient(m)
    _, rem = _poly_divmod(coeffs, cyclotomic_polynomial(m).coeffs)
    rem = (rem + [0] * d)[:d]
    assert _reduce(m, coeffs) == rem


def test_root_of_unity_is_reduced_monomial():
    for m in (1, 2, 6, 7, 12, 15, 30, 105):
        for k in range(2 * m + 1):
            assert root_of_unity(m, k) == CyclotomicNumber(m, [0] * k + [1])


def _element(m, pairs):
    return CyclotomicNumber(m, [Fraction(a, b) for a, b in pairs])


@given(
    st.integers(min_value=1, max_value=130).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(-3 * m, 3 * m),
            st.lists(
                st.tuples(st.integers(-10, 10), st.integers(1, 7)), max_size=3 * m
            ),
        )
    )
)
@example((12, 5, []))
@example((7, -20, [(1, 3), (0, 1), (-2, 5), (4, 9)]))
@settings(max_examples=150, deadline=None)
def test_times_root_matches_full_product(case):
    # the full product by the root is the reference for the exponent
    # shift; the root is also built by the constructor, whose reduction
    # shares no code with times_root
    m, k, pairs = case
    x = _element(m, pairs)
    root = CyclotomicNumber(m, [0] * (k % m) + [1])
    assert x.times_root(k) == x * root_of_unity(m, k) == x * root


def _monomial_sum(order, terms):
    """sum of c * zeta_order^e over (e, c), with ordinary + and *."""
    total = CyclotomicNumber.zero(order)
    for e, c in terms:
        total = total + c * root_of_unity(order, e)
    return total


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.lists(st.tuples(st.integers(-10, 10), st.integers(1, 7)), max_size=40),
)
@example(9, 2, [(0, 1), (1, 2), (3, 5)])
@settings(max_examples=80, deadline=None)
def test_conjugate_and_lift_match_monomial_sums(m, j, pairs):
    x = _element(m, pairs)
    coords = list(enumerate(x.coeffs))
    assert x.lift(j * m) == _monomial_sum(j * m, [(j * e, c) for e, c in coords])


def test_simplification_examples():
    # 1 + zeta + zeta^2 = 0 in Q(zeta_3)
    assert root_of_unity(3) + root_of_unity(3, 2) == -1
    assert root_of_unity(4) * root_of_unity(4) == -1


def test_mixed_order_requires_explicit_lift():
    a = root_of_unity(3)
    b = root_of_unity(4)
    with pytest.raises(OrderMismatchError):
        a + b
    with pytest.raises(OrderMismatchError):
        b.lift(6)
    lifted = a.lift(12)
    assert lifted.order == 12
    assert lifted == root_of_unity(12, 4)
    assert (lifted * b.lift(12)) == root_of_unity(12, 7)


def test_rational_embedding_and_hash():
    half = CyclotomicNumber.rational(8, Fraction(1, 2))
    assert half.is_rational()
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert CyclotomicNumber.rational(5, 3) == 3


# ---------------------------------------------------------------------------
# numeric bridge
# ---------------------------------------------------------------------------

def test_to_complex_known_values():
    assert cmath.isclose(root_of_unity(4).to_complex(), 1j, abs_tol=1e-14)
    z3 = root_of_unity(3).to_complex()
    assert math.isclose(z3.real, -0.5, abs_tol=1e-14)
    assert math.isclose(z3.imag, math.sin(2 * math.pi / 3), abs_tol=1e-14)
    assert CyclotomicNumber.one(7).to_complex() == pytest.approx(1.0)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_to_complex_is_multiplicative(order, seed):
    x = _sample(order, seed)
    y = _sample(order, seed + 17)
    lhs = (x * y).to_complex()
    rhs = x.to_complex() * y.to_complex()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_json_round_trip():
    x = _sample(12, 99)
    obj = x.to_json()
    assert obj["order"] == 12
    assert all(isinstance(s, str) for s in obj["coeffs"])
    assert CyclotomicNumber(obj["order"], [Fraction(s) for s in obj["coeffs"]]) == x
