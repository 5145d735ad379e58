"""Integer and rational commutator forms and their transport.

A commutator form is an antisymmetric matrix h with t_j t_k =
zeta^{h_jk} t_k t_j.  Two distinguished forms appear: the canonical
symplectic form h_c (2x2 blocks [[0,1],[-1,0]] down the diagonal) and
the all-ones form h+- with +1 above the diagonal.  A change of
generators c'_k = sum_j G_kj c_j transports the form as h' = G h G^T.

The unit-lower-triangular matrices L and L' both carry h_c onto h+-:

    L  h_c L^T  = h+-,      L' h_c L'^T = h+-,

with pair-block row patterns (0 1 0 1 ... | 1 0) / (0 1 0 1 ... | 1 1)
for L and (-1 1 -1 1 ... | 1 0) / (-1 1 -1 1 ... | 0 1) for L'.  The
identities are checked exactly; all arithmetic in this module is over
Fraction entries, never floats.

Transformations preserving h_c are symplectic; conjugation S -> L S L^-1
carries the symplectic group isomorphically onto the group preserving
h+-.
"""

from __future__ import annotations

from fractions import Fraction
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
    "exact_inverse",
    "form_to_json",
    "form_from_json",
]


def _frac_matrix(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = Fraction(x)
    return out


def _zeros(n: int, m: int) -> np.ndarray:
    return np.full((n, m), Fraction(0), dtype=object)


def identity_matrix(n: int) -> np.ndarray:
    out = _zeros(n, n)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def canonical_form(n: int) -> np.ndarray:
    """h_c: block-diagonal 2x2 blocks [[0,1],[-1,0]]; n must be even."""
    if n < 2 or n % 2:
        raise ValueError("canonical form needs even n >= 2")
    h = _zeros(n, n)
    for k in range(0, n, 2):
        h[k, k + 1] = Fraction(1)
        h[k + 1, k] = Fraction(-1)
    return h


def clifford_form(n: int) -> np.ndarray:
    """h+-: +1 above the diagonal, -1 below, 0 on the diagonal."""
    if n < 2:
        raise ValueError("need n >= 2")
    h = _zeros(n, n)
    for j in range(n):
        for k in range(n):
            if j < k:
                h[j, k] = Fraction(1)
            elif j > k:
                h[j, k] = Fraction(-1)
    return h


def is_antisymmetric(h: np.ndarray) -> bool:
    n, m = h.shape
    if n != m:
        return False
    return all(h[j, k] == -h[k, j] for j in range(n) for k in range(n))


def transform_form(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h' = G h G^T, exactly."""
    g = np.asarray(g, dtype=object)
    h = np.asarray(h, dtype=object)
    if g.shape[1] != h.shape[0] or h.shape[0] != h.shape[1]:
        raise ValueError("dimension mismatch")
    return g @ h @ g.T


def matrix_L(n: int) -> np.ndarray:
    """Unit-lower-triangular L with L h_c L^T = h+-.

    Pair block k has rows (0 1 0 1 ... | 1 0 | zeros) and
    (0 1 0 1 ... | 1 1 | zeros).
    """
    if n < 2 or n % 2:
        raise ValueError("matrix_L needs even n >= 2")
    rows = []
    for k in range(1, n // 2 + 1):
        head = [0, 1] * (k - 1)
        tail = [0] * (n - 2 * k)
        rows.append(head + [1, 0] + tail)
        rows.append(head + [1, 1] + tail)
    return _frac_matrix(rows)


def matrix_Lprime(n: int) -> np.ndarray:
    """Unit-lower-triangular L' with L' h_c L'^T = h+-.

    Pair block k has rows (-1 1 -1 1 ... | 1 0 | zeros) and
    (-1 1 -1 1 ... | 0 1 | zeros).
    """
    if n < 2 or n % 2:
        raise ValueError("matrix_Lprime needs even n >= 2")
    rows = []
    for k in range(1, n // 2 + 1):
        head = [-1, 1] * (k - 1)
        tail = [0] * (n - 2 * k)
        rows.append(head + [1, 0] + tail)
        rows.append(head + [0, 1] + tail)
    return _frac_matrix(rows)


def is_symplectic(s: np.ndarray) -> bool:
    """True iff S h_c S^T = h_c exactly (even dimension)."""
    s = np.asarray(s, dtype=object)
    n = s.shape[0]
    if s.shape[1] != n or n % 2:
        return False
    h = canonical_form(n)
    return bool(np.all(transform_form(s, h) == h))


def diagonal_symplectic(*a) -> np.ndarray:
    """diag(a_1, 1/a_1, ..., a_m, 1/a_m) for nonzero rationals a_k."""
    if not a:
        raise ValueError("need at least one parameter")
    vals = [Fraction(x) for x in a]
    if any(x == 0 for x in vals):
        raise ValueError("parameters must be nonzero")
    n = 2 * len(vals)
    d = _zeros(n, n)
    for k, x in enumerate(vals):
        d[2 * k, 2 * k] = x
        d[2 * k + 1, 2 * k + 1] = 1 / x
    return d


def symplectic_shear(n: int, pair: int = 0, c=1, upper: bool = True) -> np.ndarray:
    """Elementary shear acting inside one canonical pair block.

    upper: [[1,c],[0,1]] in block `pair`; otherwise [[1,0],[c,1]].
    Both preserve h_c (unit determinant inside an isotropic pair).
    """
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    if not 0 <= pair < n // 2:
        raise ValueError("pair index out of range")
    s = identity_matrix(n)
    i = 2 * pair
    if upper:
        s[i, i + 1] = Fraction(c)
    else:
        s[i + 1, i] = Fraction(c)
    return s


def symplectic_transvection(v, c=1) -> np.ndarray:
    """T = 1 - c v v^T h_c; exactly symplectic since h_c^2 = -1."""
    vec = [Fraction(x) for x in v]
    n = len(vec)
    if n % 2 or n < 2:
        raise ValueError("transvection needs even dimension")
    h = canonical_form(n)
    vh = [sum((vec[k] * h[k, j] for k in range(n)), Fraction(0)) for j in range(n)]
    t = identity_matrix(n)
    cf = Fraction(c)
    for i in range(n):
        for j in range(n):
            t[i, j] -= cf * vec[i] * vh[j]
    return t


def random_symplectic(n: int, rng: random.Random) -> np.ndarray:
    """Product of six diagonal, shear and transvection generators.

    Cross-pair transvections are included so the sample is not confined
    to block-diagonal products.
    """
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
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


def exact_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination."""
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    work = a.copy()
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


def conjugate_to_N(s: np.ndarray) -> np.ndarray:
    """N_S = L S L^-1: transports an h_c-preserver to an h+--preserver.

    Multiplicative in S; raises on non-symplectic input.
    """
    s = np.asarray(s, dtype=object)
    if not is_symplectic(s):
        raise ValueError("input must be symplectic")
    lmat = matrix_L(s.shape[0])
    return lmat @ s @ exact_inverse(lmat)


def form_to_json(h: np.ndarray) -> dict:
    h = np.asarray(h, dtype=object)
    return {
        "n": int(h.shape[0]),
        "entries": [[str(Fraction(x)) for x in row] for row in h],
    }


def form_from_json(obj: dict) -> np.ndarray:
    n = int(obj["n"])
    rows = obj["entries"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("entry grid does not match dimension")
    return _frac_matrix(rows)
