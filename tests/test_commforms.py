import json
import random
from fractions import Fraction

import numpy as np
import pytest

from weylclifford.commforms import (
    canonical_form,
    clifford_form,
    conjugate_to_N,
    diagonal_symplectic,
    exact_inverse,
    form_from_json,
    form_to_json,
    identity_matrix,
    is_antisymmetric,
    is_symplectic,
    matrix_L,
    matrix_Lprime,
    random_symplectic,
    symplectic_shear,
    symplectic_transvection,
    transform_form,
)

L6 = [
    [1, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0],
    [0, 1, 1, 1, 0, 0],
    [0, 1, 0, 1, 1, 0],
    [0, 1, 0, 1, 1, 1],
]

LP6 = [
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [-1, 1, 1, 0, 0, 0],
    [-1, 1, 0, 1, 0, 0],
    [-1, 1, -1, 1, 1, 0],
    [-1, 1, -1, 1, 0, 1],
]


def exact_equal(a, b):
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and all(
        Fraction(x) == Fraction(y) for x, y in zip(a.ravel(), b.ravel())
    )


def test_canonical_form_small():
    h = canonical_form(2)
    assert exact_equal(h, [[0, 1], [-1, 0]])
    h4 = canonical_form(4)
    assert exact_equal(
        h4,
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    )
    assert is_antisymmetric(h4)
    with pytest.raises(ValueError):
        canonical_form(3)
    with pytest.raises(ValueError):
        canonical_form(0)


def test_clifford_form_small():
    assert exact_equal(clifford_form(2), canonical_form(2))
    h3 = clifford_form(3)
    assert exact_equal(h3, [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
    assert is_antisymmetric(h3)
    h5 = clifford_form(5)
    for j in range(5):
        for k in range(5):
            want = 0 if j == k else (1 if j < k else -1)
            assert h5[j, k] == Fraction(want)


def test_transform_form_basics():
    h = clifford_form(4)
    assert exact_equal(transform_form(identity_matrix(4), h), h)
    two = 2 * identity_matrix(4)
    assert exact_equal(transform_form(two, h), 4 * np.asarray(h, dtype=object))
    with pytest.raises(ValueError):
        transform_form(identity_matrix(3), h)


def test_frozen_L_matrices():
    assert exact_equal(matrix_L(6), L6)
    assert exact_equal(matrix_Lprime(6), LP6)


def test_L_matrices_unit_lower_triangular():
    for n in (2, 4, 6, 8, 10):
        for mat in (matrix_L(n), matrix_Lprime(n)):
            for j in range(n):
                assert mat[j, j] == 1
                for k in range(j + 1, n):
                    assert mat[j, k] == 0
            inv = exact_inverse(mat)
            assert all(x.denominator == 1 for x in inv.ravel())
            assert exact_equal(mat @ inv, identity_matrix(n))


def test_transport_identities():
    for n in range(2, 13, 2):
        hc = canonical_form(n)
        hpm = clifford_form(n)
        for mat in (matrix_L(n), matrix_Lprime(n)):
            assert exact_equal(transform_form(mat, hc), hpm), n


def test_every_sign_matters_in_Lprime():
    n = 6
    hc = canonical_form(n)
    hpm = clifford_form(n)
    base = matrix_Lprime(n)
    for j in range(n):
        for k in range(n):
            if base[j, k] == Fraction(-1):
                bad = base.copy()
                bad[j, k] = Fraction(1)
                assert not exact_equal(transform_form(bad, hc), hpm), (j, k)


def test_is_symplectic():
    assert is_symplectic(identity_matrix(4))
    assert not is_symplectic(2 * identity_matrix(4))
    assert not is_symplectic(identity_matrix(3))
    assert is_symplectic(diagonal_symplectic(Fraction(2), Fraction(5, 3)))


def test_diagonal_symplectic():
    assert exact_equal(diagonal_symplectic(1, 1), identity_matrix(4))
    d = diagonal_symplectic(Fraction(2))
    assert exact_equal(d, [[2, 0], [0, Fraction(1, 2)]])
    d2 = diagonal_symplectic(3, Fraction(1, 5))
    assert is_symplectic(d2)
    with pytest.raises(ValueError):
        diagonal_symplectic()
    with pytest.raises(ValueError):
        diagonal_symplectic(0)


def test_shears_and_transvections():
    for n in (2, 4, 6):
        for pair in range(n // 2):
            for upper in (True, False):
                s = symplectic_shear(n, pair=pair, c=Fraction(3, 2), upper=upper)
                assert is_symplectic(s)
    v = np.array([Fraction(1), Fraction(0), Fraction(2), Fraction(-1)], dtype=object)
    t = symplectic_transvection(v, c=Fraction(1, 3))
    assert is_symplectic(t)
    t1 = symplectic_transvection(v, c=1)
    tm1 = symplectic_transvection(v, c=-1)
    assert exact_equal(t1 @ tm1, identity_matrix(4))
    # T = 1 - c v (v^T h_c), entry for entry
    for v, c in (([1, 0, 2, -1], Fraction(1, 3)), ([3, -2], 2),
                 ([Fraction(1, 2), 0, -1, 5, Fraction(-7, 3), 1], -1)):
        v = np.array([Fraction(x) for x in v], dtype=object)
        ref = identity_matrix(len(v)) - c * np.outer(v, v @ canonical_form(len(v)))
        assert exact_equal(symplectic_transvection(v, c=c), ref)


def test_random_symplectic():
    rng = random.Random(5)
    for n in (2, 4, 6):
        for _ in range(5):
            s = random_symplectic(n, rng)
            assert is_symplectic(s)
            assert s.shape == (n, n)


def test_random_symplectic_mixes_pairs():
    rng = random.Random(11)
    saw_mixing = False
    for _ in range(20):
        s = random_symplectic(4, rng)
        if any(s[j, k] != 0 for j in range(2) for k in range(2, 4)):
            saw_mixing = True
            break
    assert saw_mixing


def test_exact_inverse():
    m = np.array(
        [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]], dtype=object
    )
    inv = exact_inverse(m)
    assert exact_equal(m @ inv, identity_matrix(2))
    assert exact_equal(inv @ m, identity_matrix(2))
    with pytest.raises(ValueError):
        exact_inverse(np.array([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], dtype=object))


def test_conjugate_to_N():
    n = 6
    hpm = clifford_form(n)
    assert exact_equal(conjugate_to_N(identity_matrix(n)), identity_matrix(n))
    rng = random.Random(31)
    for _ in range(10):
        s = random_symplectic(n, rng)
        g = conjugate_to_N(s)
        assert exact_equal(transform_form(g, hpm), hpm)
    s1 = random_symplectic(n, rng)
    s2 = random_symplectic(n, rng)
    assert exact_equal(conjugate_to_N(s1 @ s2), conjugate_to_N(s1) @ conjugate_to_N(s2))
    with pytest.raises(ValueError):
        conjugate_to_N(2 * identity_matrix(n))


def test_conjugate_to_N_other_transport():
    n = 4
    hpm = clifford_form(n)
    rng = random.Random(41)
    s = random_symplectic(n, rng)
    lp = matrix_Lprime(n)
    g = lp @ s @ exact_inverse(lp)
    assert exact_equal(transform_form(g, hpm), hpm)


def test_form_json_round_trip():
    for mat in (canonical_form(4), clifford_form(5), matrix_L(6)):
        blob = form_to_json(mat)
        text = json.dumps(blob, sort_keys=True)
        back = form_from_json(json.loads(text))
        assert exact_equal(back, mat)
    with pytest.raises(ValueError):
        form_from_json({"n": 2, "entries": [["1/1", "0"], ["0"]]})
