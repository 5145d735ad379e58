"""Checks of weylclifford outputs against computations made apart from it.

Nothing in this module imports weylclifford.  Matrices are built here
from the conventions in the package README (U e_k = e_{k-1},
V = diag(1, zeta, ..., zeta^{l-1}), U V = zeta V U), Gaussian binomials
come from the q-Pascal recurrence over the integers, and commutator
forms and their products are recomputed over Fractions.  A check
raises Mismatch when an output is wrong; ``selftest`` feeds every
check one deliberately wrong result and requires it to be rejected.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce

import numpy as np

REL_TOL = 1e-10  # numerical identities, relative to the scale of the terms
POWER_TOL = 1e-12  # power sums, relative to (sum |a_k|)^l sqrt(dim)
FAIL_TOL = 1e-6  # a numerically broken identity sits far above this


class Mismatch(AssertionError):
    """An output of the program disagrees with an independent oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def unit(e, m: int) -> complex:
    return cmath.exp(2j * math.pi * e / m)


def cyclotomic_value(coords, order: int) -> complex:
    """Value of sum_e coords[e] * zeta_order^e for exact coordinates."""
    return sum(float(Fraction(c)) * unit(e, order) for e, c in enumerate(coords))


def totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


# --- clock-shift matrices -------------------------------------------------


def clock_shift(l: int, p: int = 1):
    """(U, V) with U e_k = e_{k-1}, V = diag(w^k), w = exp(2 pi i p / l)."""
    u = np.roll(np.eye(l, dtype=complex), 1, axis=1)
    v = np.diag([unit(p * k, l) for k in range(l)])
    return u, v


def tensor_generators(n: int, l: int, p: int = 1):
    """n matrices with T_j T_k = w T_k T_j (j < k) and T_k^l = 1.

    Site s carries a clock-shift pair; generator 2s-1 is U and 2s is V
    on site s, each preceded by W = U^-1 V on every earlier site (X W =
    w W X for X in {U, V}).  Each is then scaled so that T^l = 1.
    """
    u, v = clock_shift(l, p)
    w = np.linalg.inv(u) @ v
    eye = np.eye(l, dtype=complex)
    sites = (n + 1) // 2
    mats = []
    for k in range(n):
        s = k // 2
        factors = [w] * s + [u if k % 2 == 0 else v] + [eye] * (sites - s - 1)
        t = reduce(np.kron, factors)
        scalar = np.linalg.matrix_power(t, l)[0, 0]
        mats.append(t * scalar ** (-1.0 / l))
    return mats


def power_sum_residual(mats, values, l: int) -> float:
    """||(sum a_k T_k)^l - sum a_k^l|| relative to (sum |a_k|)^l sqrt(dim)."""
    dim = mats[0].shape[0]
    x = sum(a * t for a, t in zip(values, mats))
    lhs = np.linalg.matrix_power(x, l)
    rhs = sum(a**l for a in values) * np.eye(dim)
    scale = sum(abs(a) for a in values) ** l * math.sqrt(dim)
    return float(np.linalg.norm(lhs - rhs)) / scale


def check_power_sum_verdict(coprime: bool, passed: bool, residual_terms: int) -> None:
    if coprime:
        expect(passed and residual_terms == 0,
               f"coprime phase: got passed={passed} with {residual_terms} residual terms")
    else:
        expect(not passed and residual_terms > 0,
               f"non-coprime phase: got passed={passed} with {residual_terms} residual terms")


def confirm_power_sum(n: int, l: int, p: int, values, passed: bool) -> None:
    """The symbolic verdict agrees with clock-shift matrices built here."""
    rel = power_sum_residual(tensor_generators(n, l, p), values, l)
    if passed:
        expect(rel <= POWER_TOL, f"verdict True but matrix residual {rel:.3e}")
    else:
        expect(rel >= FAIL_TOL, f"verdict False but matrix residual {rel:.3e}")


# --- Gaussian binomials ---------------------------------------------------


def gaussian_row(l: int):
    """Integer coefficient lists (ascending in q) of [l k]_q, k = 0..l."""
    row = [[1]]
    for n in range(1, l + 1):
        nxt = []
        for k in range(n + 1):
            a = row[k - 1] if k >= 1 else []
            b = [0] * k + row[k] if k < n else []
            size = max(len(a), len(b))
            nxt.append([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                        for i in range(size)])
        row = nxt
    return row


def check_binomial(l: int, k: int, m: int, j: int, coords, order: int, row) -> None:
    """[l k] at q = exp(2 pi i j / m); exactly zero at a primitive l-th root."""
    got = cyclotomic_value(coords, order)
    want = sum(c * unit(j * e, m) for e, c in enumerate(row[k]))
    expect(abs(got - want) <= REL_TOL * max(1.0, sum(row[k])),
           f"[{l} {k}] at zeta_{m}^{j}: got {got}, want {want}")
    if m == l and 0 < k < l:
        expect(not any(Fraction(c) for c in coords),
               f"[{l} {k}] at a primitive {l}-th root is not exactly zero")


def check_binomial_row(l: int, m: int, j: int, values, row) -> None:
    """values[k] = (coordinates, order) of [l k] for k = 0..l."""
    expect(len(values) == l + 1, f"row has {len(values)} entries, want {l + 1}")
    for k, (coords, order) in enumerate(values):
        check_binomial(l, k, m, j, coords, order, row)


# --- commutator forms -----------------------------------------------------


def frac_matrix(a):
    return [[Fraction(x) for x in row] for row in a]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def sandwich(g, h):
    return matmul(matmul(g, h), transpose(g))


def canonical_form(n: int):
    return [[Fraction(1 if k == j + 1 and j % 2 == 0 else -1 if j == k + 1 and k % 2 == 0 else 0)
             for k in range(n)] for j in range(n)]


def clifford_form(n: int):
    return [[Fraction((j < k) - (j > k)) for k in range(n)] for j in range(n)]


def check_forms(n: int, s, nmat, transformed) -> None:
    """S preserves h_c, N_S preserves h+-, and transform_form(N_S, h+-) is exact."""
    s, nmat, transformed = frac_matrix(s), frac_matrix(nmat), frac_matrix(transformed)
    hc, hpm = canonical_form(n), clifford_form(n)
    expect(sandwich(s, hc) == hc, "random_symplectic: S h_c S^T != h_c")
    expect(sandwich(nmat, hpm) == hpm, "conjugate_to_N: N h+- N^T != h+-")
    expect(transformed == sandwich(nmat, hpm), "transform_form: G h G^T differs")


def check_form_transport(n: int, hc, hpm, lmat, lprime) -> None:
    hc, hpm = frac_matrix(hc), frac_matrix(hpm)
    expect(hc == canonical_form(n), "h_c differs from the canonical form")
    expect(hpm == clifford_form(n), "h+- differs from the all-ones form")
    for name, g in (("L", lmat), ("L'", lprime)):
        expect(sandwich(frac_matrix(g), hc) == hpm, f"{name} h_c {name}^T != h+-")


# --- numerical representations -------------------------------------------


def check_relations(mats, l: int, n: int) -> None:
    """t_j t_k = zeta t_k t_j (j < k) and t_k^l = 1, relative to scale."""
    expect(len(mats) == n, f"{len(mats)} generators, want {n}")
    dim = mats[0].shape[0]
    expect(dim == l ** ((n + 1) // 2), f"dimension {dim}, want {l ** ((n + 1) // 2)}")
    zeta = unit(1, l)
    scale = math.sqrt(dim)
    for j in range(n):
        for k in range(j + 1, n):
            dev = np.linalg.norm(mats[j] @ mats[k] - zeta * (mats[k] @ mats[j])) / scale
            expect(dev <= REL_TOL, f"t_{j + 1} t_{k + 1} exchange off by {dev:.3e}")
        dev = np.linalg.norm(np.linalg.matrix_power(mats[j], l) - np.eye(dim)) / scale
        expect(dev <= REL_TOL, f"t_{j + 1}^{l} != 1, off by {dev:.3e}")


def check_residual(residual: float, values, l: int, dim: int) -> None:
    scale = sum(abs(a) for a in values) ** l * math.sqrt(dim)
    expect(residual / scale <= POWER_TOL,
           f"power-sum residual {residual:.3e} is {residual / scale:.3e} of scale")


def check_standardized(u1, v1, l: int, m, mu) -> None:
    """M^-1 U' M = U and M^-1 V' M = mu V against U, V built here."""
    u, v = clock_shift(l)
    minv = np.linalg.inv(m)
    scale = math.sqrt(l)
    du = np.linalg.norm(minv @ u1 @ m - u) / scale
    dv = np.linalg.norm(minv @ v1 @ m - mu * v) / scale
    expect(abs(abs(mu) - 1) <= REL_TOL, f"|mu| = {abs(mu)}, want 1")
    expect(du <= REL_TOL and dv <= REL_TOL,
           f"standardization residuals U {du:.3e}, V {dv:.3e}")


def evaluate_element(terms, order: int, mats) -> np.ndarray:
    """sum_terms coeff * prod_k mats[k]^e_k, coefficients evaluated here."""
    dim = mats[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for exps, coords in terms:
        acc = np.eye(dim, dtype=complex)
        for mat, e in zip(mats, exps):
            for _ in range(e):
                acc = acc @ mat
        out += cyclotomic_value(coords, order) * acc
    return out


def check_to_matrix(got, terms, order: int, mats) -> None:
    want = evaluate_element(terms, order, mats)
    scale = max(1.0, float(np.linalg.norm(want)))
    dev = float(np.linalg.norm(got - want)) / scale
    expect(dev <= REL_TOL, f"to_matrix differs by {dev:.3e} of scale")


def check_fourier(f, l: int) -> None:
    u, v = clock_shift(l)
    scale = math.sqrt(l)
    du = np.linalg.norm(f.conj().T @ f - np.eye(l)) / scale
    di = np.linalg.norm(f.conj().T @ u @ f - np.linalg.inv(v)) / scale
    expect(du <= REL_TOL and di <= REL_TOL,
           f"Fourier matrix: unitarity {du:.3e}, F^-1 U F = V^-1 off by {di:.3e}")


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- the CLI's seeded coefficient stream ----------------------------------


def cli_coefficients(rng, order: int, n: int):
    """Values of the CLI's seeded coefficients, from the documented stream.

    A rational draws its numerator from [-9, 9] and its denominator from
    [1, 9]; a coefficient draws one rational per power-basis coordinate.
    """
    d = totient(order)
    out = []
    for _ in range(n):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
        out.append(cyclotomic_value(coords, order))
    return out


# --- self-test ------------------------------------------------------------


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except Mismatch:
        return True
    return False


def selftest() -> list:
    """Names of checks that accepted a deliberately wrong result."""
    bad = []
    rng = np.random.default_rng(0)

    if not rejects(check_power_sum_verdict, False, True, 0):
        bad.append("power-sum verdict: True on a non-coprime phase")
    if not rejects(check_power_sum_verdict, True, False, 3):
        bad.append("power-sum verdict: False on a coprime phase")
    values = [0.5 + 0.25j, -1.0 + 0.5j, 0.75]
    if not rejects(confirm_power_sum, 3, 6, 2, values, True):
        bad.append("matrix confirmation: True where the identity fails")
    if not rejects(confirm_power_sum, 3, 5, 1, values, False):
        bad.append("matrix confirmation: False where the identity holds")

    row = gaussian_row(5)
    good = [([sum(row[k])], 1) for k in range(6)]  # q = 1: plain binomials
    wrong = list(good)
    wrong[2] = ([sum(row[2]) + 1], 1)
    if not rejects(check_binomial_row, 5, 1, 0, wrong, row):
        bad.append("binomial row: one entry off by one")
    if not rejects(check_binomial_row, 5, 5, 1, [([1], 5)] * 6, row):
        bad.append("binomial row: nonzero middle entries at a primitive root")

    n = 4
    hc = canonical_form(n)
    s_bad = [[Fraction(int(j == k) * (2 if j == 0 else 1)) for k in range(n)] for j in range(n)]
    if not rejects(check_forms, n, s_bad, s_bad, sandwich(s_bad, clifford_form(n))):
        bad.append("forms: non-symplectic S")
    if not rejects(check_form_transport, n, hc, clifford_form(n), s_bad, s_bad):
        bad.append("forms: L that does not carry h_c to h+-")

    l = 3
    mats = tensor_generators(3, l)
    mats_bad = [mats[0], mats[1], 1.01 * mats[2]]
    if not rejects(check_relations, mats_bad, l, 3):
        bad.append("relations: one generator scaled")
    if not rejects(check_residual, 1e-3, [1.0, 1.0, 1.0], l, 9):
        bad.append("residual: 1e-3 at unit coefficients")

    l = 5
    w = random_unitary(l, rng)
    u, v = clock_shift(l)
    u1, v1 = w @ u @ w.conj().T, w @ v @ w.conj().T
    m_bad = w @ np.diag(np.exp(1j * rng.normal(size=l)))
    if not rejects(check_standardized, u1, v1, l, m_bad, 1.0):
        bad.append("standardize: basis with scrambled phases")

    terms = [((1, 0), [1, 2]), ((0, 2), [Fraction(-1, 3), 0])]
    mats2 = tensor_generators(2, 3)
    got = evaluate_element(terms, 3, mats2)
    if not rejects(check_to_matrix, got + 1e-3, terms, 3, mats2):
        bad.append("to_matrix: perturbed entries")

    f = np.fft.fft(np.eye(4)) / 2.0
    if not rejects(check_fourier, f.conj(), 4):
        bad.append("fourier: conjugated matrix")
    return bad
