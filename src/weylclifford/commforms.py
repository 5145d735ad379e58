"""Integer and rational commutator forms and their transport.

A commutator form is an antisymmetric matrix h with t_j t_k =
zeta^{h_jk} t_k t_j.  Two distinguished forms appear: the canonical
symplectic form h_c (2x2 blocks [[0,1],[-1,0]] down the diagonal) and
the all-ones form h+- with +1 above the diagonal.  A change of
generators c'_k = sum_j G_kj c_j transports the form as h' = G h G^T.

The unit-lower-triangular matrices L and L' both carry h_c onto h+-:

    L  h_c L^T  = h+-,      L' h_c L'^T = h+-,

with pair-block row patterns (0 1 0 1 ... | 1 0) / (0 1 0 1 ... | 1 1)
for L and (-1 1 -1 1 ... | 1 0) / (-1 1 -1 1 ... | 0 1) for L'.  Read
in pairs, row k lists the site exponents (a, b) of U^a V^b, slot by
slot, of the k-th generator of the string construction: the dense
tensor sets of `matrep` read these rows (`_L`, `_LPRIME`) and state the
slot layout nowhere else, so L h_c L^T = h+- is their exchange relation.

Transformations preserving h_c are symplectic; conjugation S -> L S L^-1
carries the symplectic group isomorphically onto the group preserving
h+-.

Arithmetic is exact and never uses floats.  The public functions take
2-D arrays of int or Fraction entries (anything else is a ValueError)
and return numpy object arrays of Fraction entries.  Inside, a rational
matrix S is held as an integer object array A and one positive
denominator d with S = A/d, so products run over Python ints with no gcd
per operation.  Every public matrix, the constant forms h_c, h+-, L and
L' included, is built as such an integer array and converted to Fraction
once, in O(n^2), by one function.  Structure replaces dense products
where it can: h_c is a signed permutation, so A h_c is a column swap
with a sign, h_c itself is that swap of the identity, and S is
symplectic iff A h_c A^T = d^2 h_c; L is unit-lower-triangular over Z,
so L^-1 is integral and comes from forward substitution; and the
diagonal, shear and transvection factors of `random_symplectic` act from
the right as column scalings, one column addition and a rank-1 update.
"""

from __future__ import annotations

from fractions import Fraction
import math
import numbers
import random

import numpy as np

__all__ = [
    "canonical_form",
    "clifford_form",
    "transform_form",
    "is_antisymmetric",
    "matrix_L",
    "matrix_Lprime",
    "is_symplectic",
    "diagonal_symplectic",
    "symplectic_shear",
    "symplectic_transvection",
    "random_symplectic",
    "conjugate_to_N",
    "form_to_json",
    "form_from_json",
]


def _scaled(m) -> tuple[np.ndarray, int]:
    """(A, d) with m = A/d: A an int object array, d the lcm of the denominators."""
    a = np.asarray(m, dtype=object)
    if a.ndim != 2 or not all(isinstance(x, numbers.Rational) for x in a.flat):
        raise ValueError("expected a 2-D array of int or Fraction entries")
    d = math.lcm(*(int(x.denominator) for x in a.flat))
    num = np.frompyfunc(lambda x: int(x.numerator) * (d // int(x.denominator)), 1, 1)
    return num(a), d


def _rational(x) -> Fraction:
    """Fraction(x) with Python-int parts: a numpy integer's would overflow in products."""
    x = Fraction(x)
    return Fraction(int(x.numerator), int(x.denominator))


def _fractions(a: np.ndarray, d: int = 1) -> np.ndarray:
    """The public Fraction array a/d of an integer array a: every public matrix ends here."""
    return np.frompyfunc(lambda x: Fraction(x, d), 1, 1)(a)


def _times_hc(a: np.ndarray) -> np.ndarray:
    """A h_c: h_c is a signed permutation, so each column pair swaps and one side flips sign."""
    out = np.empty_like(a)
    out[:, 0::2] = -a[:, 1::2]
    out[:, 1::2] = a[:, 0::2]
    return out


def canonical_form(n: int) -> np.ndarray:
    """h_c: block-diagonal 2x2 blocks [[0,1],[-1,0]]; n must be even."""
    if n < 2 or n % 2:
        raise ValueError("canonical form needs even n >= 2")
    return _fractions(_times_hc(np.identity(n, dtype=object)))


def clifford_form(n: int) -> np.ndarray:
    """h+-: +1 above the diagonal, -1 below, 0 on the diagonal."""
    if n < 2:
        raise ValueError("need n >= 2")
    j = np.arange(n)
    return _fractions(np.sign(j - j[:, None]))


def is_antisymmetric(h: np.ndarray) -> bool:
    a, _ = _scaled(h)
    return a.shape[0] == a.shape[1] and np.array_equal(a, -a.T)


def transform_form(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h' = G h G^T, exactly: one integer product over the denominator d_G^2 d_h."""
    a, d = _scaled(g)
    b, e = _scaled(h)
    if a.shape[1] != b.shape[0] or b.shape[0] != b.shape[1]:
        raise ValueError("dimension mismatch")
    return _fractions(a @ b @ a.T, d * d * e)


def _pair_blocks(n: int, head, closing) -> np.ndarray:
    """Unit-lower-triangular integer matrix of the L family.

    Rows 2k and 2k+1 read (head head ... head | closing[r] | zeros), with
    head repeated k times.
    """
    out = np.zeros((n, n), dtype=object)
    for k in range(0, n, 2):
        out[k:k + 2, :k] = head * (k // 2)
        out[k:k + 2, k:k + 2] = closing
    return out


_L = ((0, 1), ((1, 0), (1, 1)))
_LPRIME = ((-1, 1), ((1, 0), (0, 1)))


def matrix_L(n: int) -> np.ndarray:
    """Unit-lower-triangular L with L h_c L^T = h+-.

    Pair block k has rows (0 1 0 1 ... | 1 0 | zeros) and
    (0 1 0 1 ... | 1 1 | zeros).
    """
    if n < 2 or n % 2:
        raise ValueError("matrix_L needs even n >= 2")
    return _fractions(_pair_blocks(n, *_L))


def matrix_Lprime(n: int) -> np.ndarray:
    """Unit-lower-triangular L' with L' h_c L'^T = h+-.

    Pair block k has rows (-1 1 -1 1 ... | 1 0 | zeros) and
    (-1 1 -1 1 ... | 0 1 | zeros).
    """
    if n < 2 or n % 2:
        raise ValueError("matrix_Lprime needs even n >= 2")
    return _fractions(_pair_blocks(n, *_LPRIME))


def _is_symplectic(a: np.ndarray, d: int) -> bool:
    """A h_c A^T == d^2 h_c for S = A/d square of even size n >= 2."""
    n = a.shape[0]
    if n < 2 or n % 2 or a.shape[1] != n:
        return False
    d2_hc = _times_hc(np.identity(n, dtype=object) * (d * d))
    return np.array_equal(_times_hc(a) @ a.T, d2_hc)


def is_symplectic(s: np.ndarray) -> bool:
    """True iff S h_c S^T = h_c exactly (even dimension)."""
    return _is_symplectic(*_scaled(s))


def _scale_pairs(a: np.ndarray, d: int, xs) -> tuple[np.ndarray, int]:
    """S diag(x_1, 1/x_1, ..., x_m, 1/x_m) for S = a/d: column scalings."""
    den = math.lcm(*(x.denominator for x in xs), *(abs(x.numerator) for x in xs))
    up = [x.numerator * (den // x.denominator) for x in xs]
    down = [x.denominator * (den // x.numerator) for x in xs]
    out = np.empty_like(a)
    out[:, 0::2] = a[:, 0::2] * np.array(up, dtype=object)
    out[:, 1::2] = a[:, 1::2] * np.array(down, dtype=object)
    return out, d * den


def _shear(a: np.ndarray, d: int, i: int, c: Fraction, upper: bool) -> tuple[np.ndarray, int]:
    """S (1 + c E_{i,i+1}) if upper, else S (1 + c E_{i+1,i}), for S = a/d.

    One column gains c times its partner.
    """
    src, dst = (i, i + 1) if upper else (i + 1, i)
    out = a * c.denominator
    out[:, dst] += c.numerator * a[:, src]
    return out, d * c.denominator


def _transvect(a: np.ndarray, d: int, v, c: Fraction) -> tuple[np.ndarray, int]:
    """S (1 - c v v^T h_c) for S = a/d: a rank-1 update of the columns."""
    e = math.lcm(*(x.denominator for x in v))
    u = np.array([x.numerator * (e // x.denominator) for x in v], dtype=object)
    # with v = u/e and c = p/q: S T = (q e^2 A - p (A u)(u^T h_c)) / (d q e^2)
    scale = c.denominator * e * e
    return scale * a - c.numerator * np.outer(a @ u, _times_hc(u[None, :])[0]), d * scale


def diagonal_symplectic(*a) -> np.ndarray:
    """diag(a_1, 1/a_1, ..., a_m, 1/a_m) for nonzero rationals a_k."""
    if not a:
        raise ValueError("need at least one parameter")
    vals = [_rational(x) for x in a]
    if any(x == 0 for x in vals):
        raise ValueError("parameters must be nonzero")
    return _fractions(*_scale_pairs(np.identity(2 * len(vals), dtype=object), 1, vals))


def symplectic_shear(n: int, pair: int = 0, c=1, upper: bool = True) -> np.ndarray:
    """Elementary shear acting inside one canonical pair block.

    upper: [[1,c],[0,1]] in block `pair`; otherwise [[1,0],[c,1]].
    Both preserve h_c (unit determinant inside an isotropic pair).
    """
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    if not 0 <= pair < n // 2:
        raise ValueError("pair index out of range")
    return _fractions(*_shear(np.identity(n, dtype=object), 1, 2 * pair, _rational(c), upper))


def symplectic_transvection(v, c=1) -> np.ndarray:
    """T = 1 - c v v^T h_c; exactly symplectic since h_c^2 = -1."""
    vec = [_rational(x) for x in v]
    n = len(vec)
    if n % 2 or n < 2:
        raise ValueError("transvection needs even dimension")
    return _fractions(*_transvect(np.identity(n, dtype=object), 1, vec, _rational(c)))


def random_symplectic(n: int, rng: random.Random) -> np.ndarray:
    """Product of six diagonal, shear and transvection generators.

    Cross-pair transvections are included so the sample is not confined
    to block-diagonal products.  Each factor acts on the running product
    from the right in O(n^2).
    """
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    a, d = np.identity(n, dtype=object), 1
    for _ in range(6):
        kind = rng.randrange(3)
        if kind == 0:
            params = [
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                for _ in range(n // 2)
            ]
            a, d = _scale_pairs(a, d, params)
        elif kind == 1:
            pair = rng.randrange(n // 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            a, d = _shear(a, d, 2 * pair, c, upper=bool(rng.randrange(2)))
        else:
            v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            a, d = _transvect(a, d, v, Fraction(rng.randint(-2, 2)))
    return _fractions(a, d)


def _unit_lower_inverse(lmat: np.ndarray) -> np.ndarray:
    """L^-1 of a unit-lower-triangular integer L, integral, by forward substitution."""
    inv = np.identity(lmat.shape[0], dtype=object)
    for i in range(1, lmat.shape[0]):
        inv[i] -= lmat[i, :i] @ inv[:i]
    return inv


def conjugate_to_N(s: np.ndarray) -> np.ndarray:
    """N_S = L S L^-1: transports an h_c-preserver to an h+--preserver.

    Multiplicative in S; raises on non-symplectic input.
    """
    a, d = _scaled(s)
    if not _is_symplectic(a, d):
        raise ValueError("input must be symplectic")
    lmat = _pair_blocks(a.shape[0], *_L)
    return _fractions(lmat @ a @ _unit_lower_inverse(lmat), d)


def form_to_json(h: np.ndarray) -> dict:
    h = np.asarray(h, dtype=object)
    return {
        "n": int(h.shape[0]),
        "entries": [[str(Fraction(x)) for x in row] for row in h],
    }


def _json_entry(x) -> Fraction:
    """A form entry read from JSON: a Fraction string, or a rational that is not a bool."""
    if isinstance(x, bool) or not isinstance(x, (str, numbers.Rational)):
        raise ValueError(f"entry {x!r} is neither a string nor an exact rational")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"entry {x!r} has a zero denominator") from None


def form_from_json(obj: dict) -> np.ndarray:
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"a form needs an integer n >= 1, got {n!r}")
    rows = obj["entries"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("entry grid does not match dimension")
    parsed = np.frompyfunc(_json_entry, 1, 1)(np.array(rows, dtype=object))
    return _fractions(*_scaled(parsed))
