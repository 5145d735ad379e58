import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, gcd, prod
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import weylclifford
from weylclifford.algebra import (
    AlgebraElement,
    AlgebraSignature,
    SignatureMismatchError,
    default_cyclotomic_order,
    generator,
    identity,
    is_central,
    lame_check,
    linear_combination,
    monomial,
    to_matrix,
    weak_from_group_phases,
    zero,
)
from weylclifford.cyclotomic import (
    CyclotomicNumber,
    OrderMismatchError,
    root_of_unity,
    totient,
)
from weylclifford.qbinom import q_binomial
from weylclifford.matrep import t_generators, weyl_pair
from weylclifford.sampling import sample_coefficients


def sig_for(n, l, mode="strict", zeta_power=1):
    return AlgebraSignature(n, l, mode=mode, zeta_power=zeta_power)


def random_element(sig, rng, terms=2):
    out = zero(sig)
    for _ in range(terms):
        exps = tuple(rng.randrange(sig.l) for _ in range(sig.n))
        c = CyclotomicNumber(
            sig.cyclotomic_order,
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(len(sig.zeta.coeffs))
            ],
        )
        out = out + monomial(sig, exps, c)
    return out


# ---------------------------------------------------------------------------
# construction and basic ring structure
# ---------------------------------------------------------------------------

def test_default_order_convention():
    assert default_cyclotomic_order(3) == 3
    assert default_cyclotomic_order(5) == 5
    assert default_cyclotomic_order(2) == 4
    assert default_cyclotomic_order(6) == 12


def test_negative_cyclotomic_order_rejected():
    # -3 is a multiple of 3, but no field has a negative order; 0 means
    # the default order
    with pytest.raises(ValueError):
        AlgebraSignature(2, 3, cyclotomic_order=-3)
    assert AlgebraSignature(2, 3, cyclotomic_order=0).cyclotomic_order == 3


def test_generator_monomials():
    sig = sig_for(2, 3)
    t1, t2 = generator(sig, 1), generator(sig, 2)
    assert t1.terms == {(1, 0): CyclotomicNumber.one(3)}
    assert t2.terms == {(0, 1): CyclotomicNumber.one(3)}
    with pytest.raises(ValueError):
        generator(sig, 3)


def test_add_scale_prune():
    sig = sig_for(2, 3)
    t1 = generator(sig, 1)
    assert (t1 + t1).terms == {(1, 0): CyclotomicNumber.rational(3, 2)}
    assert (0 * t1).is_zero()
    assert (t1 - t1).is_zero()


def test_signature_mismatch_rejected():
    with pytest.raises(SignatureMismatchError):
        generator(sig_for(2, 3), 1) + generator(sig_for(2, 4), 1)


# ---------------------------------------------------------------------------
# the reordering phase, pinned by explicit values and by the matrix oracle
# ---------------------------------------------------------------------------

def test_multiply_normal_ordered_examples():
    sig = sig_for(2, 3)
    t1, t2 = generator(sig, 1), generator(sig, 2)
    z = sig.zeta
    assert (t1 * t2).terms == {(1, 1): CyclotomicNumber.one(3)}
    # t_2 t_1 = zeta^{l-1} t_1 t_2
    assert (t2 * t1).terms == {(1, 1): z * z}
    # t_2^2 t_1 -> monomial (1,2) with coefficient zeta^{-2} = zeta
    assert (t2 * t2 * t1).terms == {(1, 2): z}


def test_phase_formula_two_generators():
    # t^(a1,a2) * t^(b1,b2) = zeta^{-b1*a2} t^(a1+b1, a2+b2)
    for l in (2, 3, 5):
        sig = sig_for(2, l)
        for a1 in range(l):
            for a2 in range(l):
                for b1 in range(l):
                    for b2 in range(l):
                        prod = monomial(sig, (a1, a2)) * monomial(sig, (b1, b2))
                        exps = ((a1 + b1) % l, (a2 + b2) % l)
                        assert prod.terms == {exps: sig.zeta_root(-b1 * a2)}


def test_phase_matches_matrix_oracle():
    rng = random.Random(5)
    for n, l in ((2, 2), (2, 5), (3, 3), (4, 2), (3, 4)):
        sig = sig_for(n, l)
        mats = t_generators(n, l, "taw").matrices
        for _ in range(25):
            a = tuple(rng.randrange(l) for _ in range(n))
            b = tuple(rng.randrange(l) for _ in range(n))
            sym = to_matrix(monomial(sig, a) * monomial(sig, b), mats)
            num = to_matrix(monomial(sig, a), mats) @ to_matrix(monomial(sig, b), mats)
            assert np.linalg.norm(sym - num) <= 1e-10 * max(1.0, np.linalg.norm(num))


def test_associativity_exact():
    rng = random.Random(11)
    for n in range(1, 5):
        for l in range(2, 7):
            sig = sig_for(n, l)
            for _ in range(200):
                x = random_element(sig, rng)
                y = random_element(sig, rng)
                z = random_element(sig, rng)
                assert (x * y) * z == x * (y * z)


def test_relation_set_and_generator_powers():
    for n, l in ((2, 3), (3, 4), (4, 5)):
        sig = sig_for(n, l)
        z = sig.zeta
        for j in range(1, n + 1):
            assert generator(sig, j) ** l == identity(sig)
            for k in range(j + 1, n + 1):
                tj, tk = generator(sig, j), generator(sig, k)
                assert tj * tk == z * (tk * tj)


def test_small_powers():
    sig2 = sig_for(2, 2)
    x = generator(sig2, 1) + generator(sig2, 2)
    assert x ** 2 == identity(sig2) * CyclotomicNumber.rational(4, 2)
    sig3 = sig_for(2, 3)
    y = generator(sig3, 1) + generator(sig3, 2)
    assert y ** 3 == identity(sig3) * CyclotomicNumber.rational(3, 2)


def test_strict_exponent_wraparound():
    sig = sig_for(1, 4)
    t = generator(sig, 1)
    assert (t ** 7).terms == {(3,): CyclotomicNumber.one(sig.cyclotomic_order)}


def test_weak_mode_keeps_high_powers():
    sig = sig_for(2, 3, mode="weak")
    t1 = generator(sig, 1)
    cube = t1 ** 3
    assert cube.terms == {(3, 0): CyclotomicNumber.one(3)}
    with pytest.raises(ValueError):
        monomial(sig, (-1, 0))


# ---------------------------------------------------------------------------
# power-sum identity
# ---------------------------------------------------------------------------

def test_lame_identity_small_grid():
    rng = random.Random(2)
    for n in (1, 2, 3):
        for l in (2, 3, 4):
            sig = sig_for(n, l)
            for _ in range(3):
                coeffs = sample_coefficients(rng, sig.cyclotomic_order, n)
                ok, residual = lame_check(sig, coeffs)
                assert ok and residual.is_zero()


def test_lame_clifford_sum_of_squares():
    sig = sig_for(3, 2)
    ok, _ = lame_check(sig, [1, 1, 1])
    assert ok
    x = linear_combination(sig, [sig.coerce(1)] * 3)
    assert x ** 2 == identity(sig) * CyclotomicNumber.rational(4, 3)


def test_lame_weak_mode_keeps_central_powers():
    sig = sig_for(2, 3, mode="weak")
    rng = random.Random(8)
    coeffs = sample_coefficients(rng, sig.cyclotomic_order, 2)
    ok, _ = lame_check(sig, coeffs)
    assert ok
    x = linear_combination(sig, [sig.coerce(c) for c in coeffs])
    cube = x ** 3
    assert set(cube.terms) == {(3, 0), (0, 3)}


def test_lame_for_coprime_zeta_powers():
    rng = random.Random(13)
    for l, j in ((5, 2), (5, 3), (4, 3), (6, 5), (7, 3)):
        sig = sig_for(2, l, zeta_power=j)
        for _ in range(3):
            coeffs = sample_coefficients(rng, sig.cyclotomic_order, 2)
            ok, _ = lame_check(sig, coeffs)
            assert ok, (l, j)


def test_lame_fails_for_non_coprime_zeta_power():
    # zeta' = zeta^2 at l=4 is only a square root of unity: random
    # search finds a counterexample quickly
    rng = random.Random(3)
    sig = sig_for(2, 4, zeta_power=2)
    found = False
    for _ in range(10):
        coeffs = sample_coefficients(rng, sig.cyclotomic_order, 2)
        if any(c.is_zero() for c in coeffs):
            continue
        ok, _ = lame_check(sig, coeffs)
        if not ok:
            found = True
            break
    assert found


def test_lame_check_input_guards():
    sig = sig_for(3, 5)
    for coeffs in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="exactly n"):
            lame_check(sig, coeffs)
    with pytest.raises(OrderMismatchError):
        lame_check(sig, [1, root_of_unity(7), 2])


def _power_sum_reference(sig, coeffs):
    """(sum_k a_k t_k)^l - rhs through the normal-form product."""
    coeffs = [sig.coerce(c) for c in coeffs]
    lhs = linear_combination(sig, coeffs) ** sig.l
    if sig.mode == "strict":
        total = CyclotomicNumber.zero(sig.cyclotomic_order)
        for c in coeffs:
            total = total + c ** sig.l
        return lhs - identity(sig) * total
    pure = {
        tuple(sig.l if i == k else 0 for i in range(sig.n)): c ** sig.l
        for k, c in enumerate(coeffs)
    }
    return lhs - AlgebraElement(sig, pure)


@st.composite
def power_sum_cases(draw, max_l=9):
    n = draw(st.integers(1, 5))
    l = draw(st.integers(2, max_l))
    sig = sig_for(
        n, l, draw(st.sampled_from(["strict", "weak"])), draw(st.integers(0, l - 1))
    )
    order = sig.cyclotomic_order
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    coeff = st.one_of(
        st.just(0),
        rational,
        st.lists(rational, min_size=totient(order), max_size=totient(order)).map(
            lambda xs: CyclotomicNumber(order, xs)
        ),
    )
    return sig, draw(st.lists(coeff, min_size=n, max_size=n))


@given(power_sum_cases())
@settings(max_examples=100, deadline=None)
@example((sig_for(3, 6, zeta_power=2), [1, root_of_unity(12), Fraction(1, 2)]))
@example((sig_for(4, 6, "weak", 3), [2, root_of_unity(12, 5), 0, -1]))
@example((sig_for(3, 4, zeta_power=0), [1, 1, root_of_unity(8, 3)]))
def test_lame_check_matches_normal_form_power(case):
    sig, coeffs = case
    passed, residual = lame_check(sig, coeffs)
    reference = _power_sum_reference(sig, coeffs)
    assert residual == reference
    assert passed == reference.is_zero()


def _power_table(n: int, l: int, zeta_power: int, p: int) -> dict:
    """{e: c_e} with (sum_k a_k t_k)^p = sum_e c_e a^e t^e, weak exponents.

    Each c_e is a list c of l integers, standing for sum_j c[j] zeta^j
    in Z[C_l].  Right-multiplying t^e by t_k costs zeta^{-zeta_power * s}
    with s = sum_{i>k} e_i, a rotation of c.
    """
    table = {(0,) * n: [1] + [0] * (l - 1)}
    for _ in range(p):
        nxt: dict = {}
        for e, c in table.items():
            w, s = c, 0
            for k in range(n - 1, -1, -1):
                f = e[:k] + (e[k] + 1,) + e[k + 1:]
                acc = nxt.get(f)
                nxt[f] = w if acc is None else list(map(add, acc, w))
                if k and e[k]:  # s moves, and with it the rotation
                    s += e[k]
                    r = -zeta_power * s % l
                    w = c[-r:] + c[:-r]
        table = nxt
    return table


def _table_value(sig, v):
    """sum_j v[j] zeta^j in the signature's coefficient field."""
    step = sig.cyclotomic_order // sig.l
    scattered = [0] * sig.cyclotomic_order
    scattered[::step] = v
    return CyclotomicNumber(sig.cyclotomic_order, scattered)


@pytest.mark.parametrize("n,l", [(1, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 3)])
def test_power_table_is_q_multinomial(n, l):
    for zeta_power in range(l):
        sig = sig_for(n, l, "weak", zeta_power)
        q = sig.zeta_root(-1)
        for p in range(l + 2):
            table = _power_table(n, l, zeta_power, p)
            assert len(table) == comb(p + n - 1, n - 1)
            for e, v in table.items():
                assert sum(e) == p
                expected = CyclotomicNumber.one(sig.cyclotomic_order)
                for k in range(n):
                    expected = expected * q_binomial(sum(e[: k + 1]), e[k], q)
                assert _table_value(sig, v) == expected, (zeta_power, e)


@pytest.mark.parametrize("n,l", [(2, 5), (3, 4), (3, 6), (4, 5), (2, 9)])
def test_power_table_keeps_only_pure_powers(n, l):
    # at p = l and a primitive phase every mixed q-multinomial vanishes:
    # the reason (sum_k a_k t_k)^l = sum_k a_k^l t_k^l
    for zeta_power in range(1, l):
        if gcd(zeta_power, l) != 1:
            continue
        sig = sig_for(n, l, "weak", zeta_power)
        values = {
            e: _table_value(sig, v)
            for e, v in _power_table(n, l, zeta_power, l).items()
        }
        pure = {tuple(l if i == k else 0 for i in range(n)) for k in range(n)}
        assert {e for e, c in values.items() if not c.is_zero()} == pure
        assert all(values[e] == 1 for e in pure)


def _table_residual(sig, coeffs):
    """lame_check's residual from the q-multinomial table: every nonzero
    c_e times prod_k a_k^{e_k}, exponents folded mod l in strict mode,
    minus the a_k^l of the right-hand side."""
    coeffs = [sig.coerce(c) for c in coeffs]
    n, l = sig.n, sig.l
    strict = sig.mode == "strict"
    terms = {}
    for k, a in enumerate(coeffs):
        e = (0,) * n if strict else tuple(l if i == k else 0 for i in range(n))
        terms[e] = terms.get(e, 0) - a ** l
    powers = {}
    for e, v in _power_table(n, l, sig.zeta_power, l).items():
        c = _table_value(sig, v)
        if c.is_zero():
            continue
        for k, x in enumerate(e):
            if (k, x) not in powers:
                powers[k, x] = coeffs[k] ** x
            c = c * powers[k, x]
        if strict:
            e = tuple(x % l for x in e)
        terms[e] = terms.get(e, 0) + c
    return AlgebraElement(sig, terms)


@given(power_sum_cases(max_l=16))
@settings(max_examples=60, deadline=None)
@example((sig_for(3, 6, zeta_power=2), [1, root_of_unity(12), Fraction(1, 2)]))
@example((sig_for(4, 6, "weak", 3), [2, root_of_unity(12, 5), 1, -1]))
@example((sig_for(2, 16, zeta_power=4), [root_of_unity(32, 3), Fraction(-2, 3)]))
@example((sig_for(3, 12, "weak", 0), [1, root_of_unity(24, 7), 2]))
def test_lame_check_matches_power_table(case):
    # at p = l the q-multinomial c_e at q of order M = l / gcd(zeta_power, l)
    # is 0 unless every e_k is a multiple of M, and then it is C(L; e/M)
    # with L = l / M: the q-Lucas closed form lame_check runs on
    sig, coeffs = case
    n, l = sig.n, sig.l
    order = l // gcd(sig.zeta_power, l)
    for e, v in _power_table(n, l, sig.zeta_power, l).items():
        c = _table_value(sig, v)
        if not c.is_zero():
            assert all(x % order == 0 for x in e), (sig, e)
            f = [x // order for x in e]
            assert c == factorial(l // order) // prod(map(factorial, f)), (sig, e)
    assert lame_check(sig, coeffs)[1] == _table_residual(sig, coeffs)


LARGE_LAME = """
import random
from weylclifford.algebra import AlgebraSignature, lame_check
from weylclifford.sampling import sample_coefficients
for n, l, zeta_power in ((4, 31, 1), (3, 64, 8), (6, 12, 0)):
    sig = AlgebraSignature(n, l, zeta_power=zeta_power)
    coeffs = sample_coefficients(random.Random(l), sig.cyclotomic_order, n)
    assert not any(c.is_zero() for c in coeffs)
    ok, residual = lame_check(sig, coeffs)
    print(ok, len(residual.terms))
"""


def test_lame_check_large_order_runs_quickly():
    # the normal-form power takes ~46 s of CPU at (4, 31) (~10 s at
    # l = 23) on a 2-vCPU VM, and the q-multinomial table 0.7-0.8 s at
    # each case; a fresh interpreter with a timeout makes a slow path fail
    # instead of hang.  With every a_k nonzero, each composition of
    # L = l / M into n parts but the n pure powers leaves one term:
    # none at a coprime phase, C(10, 2) - 3 at M = 8, C(17, 5) - 6 at M = 1
    src = str(Path(weylclifford.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", LARGE_LAME],
        capture_output=True, text=True, env=env, check=True, timeout=15,
    ).stdout.split()
    assert out == ["True", "0", "False", str(comb(10, 2) - 3), "False", str(comb(17, 5) - 6)]


# ---------------------------------------------------------------------------
# centrality and the matrix bridge
# ---------------------------------------------------------------------------

def test_is_central():
    sig = sig_for(2, 3)
    assert is_central(identity(sig))
    assert not is_central(generator(sig, 1))
    wsig = sig_for(2, 3, mode="weak")
    assert is_central(generator(wsig, 1) ** 3)
    assert not is_central(generator(wsig, 1))


def test_to_matrix_basics():
    sig = sig_for(2, 4)
    u, v = weyl_pair(4)
    assert np.allclose(to_matrix(identity(sig), [u, v]), np.eye(4))
    assert np.allclose(to_matrix(generator(sig, 1), [u, v]), u)
    assert np.allclose(to_matrix(generator(sig, 2), [u, v]), v)


def test_to_matrix_homomorphism_random():
    rng = random.Random(21)
    for n, l in ((2, 3), (3, 2), (4, 3)):
        sig = sig_for(n, l)
        mats = t_generators(n, l, "tau").matrices
        for _ in range(20):
            x = random_element(sig, rng, terms=3)
            y = random_element(sig, rng, terms=3)
            lhs = to_matrix(x * y, mats)
            rhs = to_matrix(x, mats) @ to_matrix(y, mats)
            scale = max(np.linalg.norm(to_matrix(x, mats)) * np.linalg.norm(to_matrix(y, mats)), 1e-30)
            assert np.linalg.norm(lhs - rhs) / scale <= 1e-10


def test_to_matrix_rejects_weak_and_mismatched():
    wsig = sig_for(2, 3, mode="weak")
    u, v = weyl_pair(3)
    with pytest.raises(ValueError):
        to_matrix(generator(wsig, 1), [u, v])
    sig = sig_for(2, 3)
    with pytest.raises(ValueError):
        to_matrix(generator(sig, 1), [u])
    with pytest.raises(ValueError):
        to_matrix(generator(sig, 1), [u, np.eye(2)])


# ---------------------------------------------------------------------------
# group-phase construction of the weak algebra
# ---------------------------------------------------------------------------

def test_weak_from_group_phases_relations():
    for n, l in ((2, 5), (4, 5), (4, 6)):
        gens = weak_from_group_phases(n, l)
        sig = gens[0].signature
        assert sig.mode == "weak" and sig.l == l
        z = sig.zeta
        for j in range(n):
            for k in range(j + 1, n):
                assert gens[j] * gens[k] == z * (gens[k] * gens[j])


def test_weak_from_group_phases_lame():
    rng = random.Random(4)
    gens = weak_from_group_phases(4, 3)
    sig = gens[0].signature
    coeffs = sample_coefficients(rng, sig.cyclotomic_order, 4)
    ok, _ = lame_check(sig, coeffs)
    assert ok


def test_weak_from_group_phases_nonprimitive_reduces_order():
    gens = weak_from_group_phases(2, 6, lam_power=2)
    sig = gens[0].signature
    assert sig.l == 3 and sig.zeta_power == 1
    gens = weak_from_group_phases(2, 6, lam_power=4)
    assert gens[0].signature.l == 3


def test_weak_from_group_phases_validation():
    with pytest.raises(ValueError):
        weak_from_group_phases(3, 5)
    with pytest.raises(ValueError):
        weak_from_group_phases(2, 5, lam_power=5)
