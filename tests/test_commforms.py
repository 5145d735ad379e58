import json
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylclifford.commforms import (
    canonical_form,
    clifford_form,
    conjugate_to_N,
    diagonal_symplectic,
    form_from_json,
    form_to_json,
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


# not a 2-D array of int or Fraction entries: the exact functions refuse these
NOT_RATIONAL_MATRICES = [
    np.array([Fraction(1), Fraction(0)], dtype=object),
    np.zeros((2, 2, 2), dtype=object),
    Fraction(1),
    [[1.0, 0], [0, 1]],
    [[float("nan"), 0], [0, 1]],
    [[1, 0], [0, "1"]],
    np.eye(2),
]


def exact_equal(a, b):
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and all(
        Fraction(x) == Fraction(y) for x, y in zip(a.ravel(), b.ravel())
    )


def frac_array(a):
    rows = np.asarray(a, dtype=object)
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


def identity_matrix(n):
    return frac_array(np.identity(n, dtype=object))


def exact_inverse(a):
    """Oracle: inverse of a square rational matrix by Gauss-Jordan elimination over Fraction."""
    work = frac_array(a)
    n = work.shape[0]
    if work.shape[1] != n:
        raise ValueError("matrix must be square")
    inv = identity_matrix(n)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r, col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        p = work[col, col]
        work[col] = work[col] / p
        inv[col] = inv[col] / p
        for r in range(n):
            if r != col and work[r, col] != 0:
                f = work[r, col]
                work[r] = work[r] - f * work[col]
                inv[r] = inv[r] - f * inv[col]
    return inv


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
    assert not is_antisymmetric([[0, 1], [1, 0]])
    assert not is_antisymmetric([[0, 1, 2], [-1, 0, 3]])
    for bad in NOT_RATIONAL_MATRICES + [[[0, 0.5], [-0.5, 0]]]:
        with pytest.raises(ValueError):
            is_antisymmetric(bad)
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
    for bad in NOT_RATIONAL_MATRICES:
        with pytest.raises(ValueError):
            transform_form(bad, identity_matrix(2))
        with pytest.raises(ValueError):
            transform_form(identity_matrix(2), bad)


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
    assert not is_symplectic([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert is_symplectic(diagonal_symplectic(Fraction(2), Fraction(5, 3)))
    for bad in NOT_RATIONAL_MATRICES:
        with pytest.raises(ValueError):
            is_symplectic(bad)


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
                ref = identity_matrix(n)
                i = 2 * pair
                ref[(i, i + 1) if upper else (i + 1, i)] = Fraction(3, 2)
                assert exact_equal(s, ref)
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
    # numpy integer parameters are taken as Python ints, so products cannot wrap
    big = np.array([2**40, 1, 3, 2**40], dtype=np.int64)
    v = frac_array([big])[0]
    ref = identity_matrix(4) - 2**20 * np.outer(v, v @ canonical_form(4))
    assert exact_equal(symplectic_transvection(big, c=np.int64(2**20)), ref)
    assert exact_equal(diagonal_symplectic(np.int64(2**40)), [[2**40, 0], [0, Fraction(1, 2**40)]])
    assert exact_equal(symplectic_shear(2, c=np.int64(2**40)), [[1, 2**40], [0, 1]])


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
    # int entries divide exactly, not as floats
    inv = exact_inverse([[2, 1], [7, 5]])
    assert exact_equal(inv, [[Fraction(5, 3), Fraction(-1, 3)], [Fraction(-7, 3), Fraction(2, 3)]])
    assert all(type(x) is Fraction for x in inv.ravel())


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
    for bad in NOT_RATIONAL_MATRICES:
        with pytest.raises(ValueError):
            conjugate_to_N(bad)


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
    for n in (0, -1):  # an empty grid
        with pytest.raises(ValueError):
            form_from_json({"n": n, "entries": []})
    # only strings and exact rationals are entries, and n is an integer:
    # a JSON float, an unparsable string, a zero denominator, null or a
    # bool is refused before any arithmetic
    for text in (
        '{"n": 1, "entries": [[0.1]]}',
        '{"n": 1, "entries": [[Infinity]]}',
        '{"n": 1, "entries": [[NaN]]}',
        '{"n": 1, "entries": [[1.0]]}',
        '{"n": 1, "entries": [["1/0"]]}',
        '{"n": 1, "entries": [["one"]]}',
        '{"n": 1, "entries": [[null]]}',
        '{"n": 1, "entries": [[true]]}',
        '{"n": 1e400, "entries": [["0"]]}',
        '{"n": 1.5, "entries": [["0"]]}',
        '{"n": 1.0, "entries": [["0"]]}',
        '{"n": true, "entries": [["0"]]}',
        '{"n": "1", "entries": [["0"]]}',
    ):
        with pytest.raises(ValueError):
            form_from_json(json.loads(text))


def test_every_public_matrix_has_python_int_fractions():
    s = random_symplectic(6, random.Random(3))
    made = [
        canonical_form(6),
        clifford_form(6),
        clifford_form(5),
        matrix_L(6),
        matrix_Lprime(6),
        diagonal_symplectic(2, Fraction(1, 3), -1),
        symplectic_shear(6, 1, Fraction(-2, 3)),
        symplectic_transvection([1, 0, Fraction(1, 2), 0, -1, 2], 3),
        s,
        conjugate_to_N(s),
        transform_form(s, clifford_form(6)),
        form_from_json(form_to_json(s)),
        form_from_json({"n": 2, "entries": [[np.int64(1), "1/2"], [Fraction(1, 4), np.int64(-3)]]}),
    ]
    # numpy-int parts would overflow in products
    for m in made:
        assert m.dtype == object
        for x in m.ravel():
            assert type(x) is Fraction
            assert type(x.numerator) is int and type(x.denominator) is int


# ---------------------------------------------------------------------------
# the integer kernels against Fraction products written out here
# ---------------------------------------------------------------------------

def replay_random_symplectic(n, rng):
    """random_symplectic's draws, in its order, as Fraction products of the public factors."""
    s = identity_matrix(n)
    for _ in range(6):
        kind = rng.randrange(3)
        if kind == 0:
            params = [
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                for _ in range(n // 2)
            ]
            g = diagonal_symplectic(*params)
        elif kind == 1:
            g = symplectic_shear(
                n,
                pair=rng.randrange(n // 2),
                c=Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                upper=bool(rng.randrange(2)),
            )
        else:
            v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            g = symplectic_transvection(v, Fraction(rng.randint(-2, 2)))
        s = s @ g
    return s


even_sizes = st.integers(min_value=1, max_value=8).map(lambda k: 2 * k)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(even_sizes, seeds)
@settings(max_examples=40, deadline=None)
def test_random_symplectic_matches_factor_products(n, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    s = random_symplectic(n, rng)
    assert exact_equal(s, replay_random_symplectic(n, ref_rng))
    assert all(type(x) is Fraction for x in s.ravel())
    # same number of draws: the two generators are left in the same state
    assert rng.random() == ref_rng.random()


@given(even_sizes, seeds)
@settings(max_examples=40, deadline=None)
def test_conjugate_to_N_matches_fraction_products(n, seed):
    s = random_symplectic(n, random.Random(seed))
    lmat = matrix_L(n)
    g = conjugate_to_N(s)
    assert exact_equal(g, lmat @ s @ exact_inverse(lmat))
    assert all(type(x) is Fraction for x in g.ravel())


@st.composite
def rational_matrix(draw, rows, cols):
    """Entries in -9..9 over denominators 1..6; kind picks Fractions, ints or int64."""
    kind = draw(st.sampled_from(["fraction", "int", "int64"]))
    nums = st.integers(min_value=-9, max_value=9)
    if kind == "fraction":
        entry = st.builds(Fraction, nums, st.integers(min_value=1, max_value=6))
        grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return np.array(grid, dtype=object).reshape(rows, cols)
    grid = draw(st.lists(st.lists(nums, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return np.array(grid, dtype=object if kind == "int" else np.int64).reshape(rows, cols)


@st.composite
def form_and_change(draw):
    m = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=0, max_value=6))
    return draw(rational_matrix(m, n)), draw(rational_matrix(n, n))


@given(form_and_change())
@settings(max_examples=150, deadline=None)
def test_transform_form_matches_fraction_products(gh):
    g, h = gh
    out = transform_form(g, h)
    gf, hf = frac_array(g).reshape(g.shape), frac_array(h).reshape(h.shape)
    assert exact_equal(out, gf @ hf @ gf.T)
    assert all(type(x) is Fraction for x in out.ravel())


LARGE_FORMS = """
import contextlib, io, json, random
from weylclifford import cli
from weylclifford.commforms import clifford_form, conjugate_to_N, random_symplectic, transform_form
hpm = clifford_form(128)
nmat = conjugate_to_N(random_symplectic(128, random.Random(0)))
print(bool((transform_form(nmat, hpm) == hpm).all()))
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = cli.main(["forms", "--n", "128"])
blob = json.loads(buf.getvalue())
print(rc, blob["L_transport_ok"], blob["Lprime_transport_ok"], len(blob["L"]["entries"]))
"""


def test_size_128_transport_runs_quickly():
    # with Fraction products the transport took over 60 s and `forms --n 128`
    # 32 s on a 2-vCPU VM; a fresh interpreter with a timeout makes a slow
    # path fail instead of hang
    out = subprocess.run(
        [sys.executable, "-c", LARGE_FORMS],
        capture_output=True, text=True, check=True, timeout=30,
    ).stdout.split()
    assert out == ["True", "0", "True", "True", "128"]
