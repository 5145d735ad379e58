"""Matrix representations: Pauli and clock-shift generator sets.

Conventions.  The clock-shift (Weyl) pair at order l is

    U = cyclic shift, U e_k = e_{k-1 mod l}  (ones on the superdiagonal
        plus the bottom-left corner),
    V = diag(1, zeta, ..., zeta^{l-1}),      zeta = exp(2*pi*i/l),

so that U V = zeta V U.  Ordered site triples

    tau  = (U, conj(nu) U V, V),        taw = (U, V, nu U^dag V),

with nu = zeta^{(l+1)/2} (a 2l-th root of unity when l is even) satisfy
x y = zeta y x for every pair in listed order and x^l = 1; at l = 2 the
tau triple is exactly (sigma_1, sigma_2, sigma_3).

Tensor constructions chain diagonal strings through earlier slots
(tau_3 strings for the tau variant, U^dag V strings with compensating
scalar alpha_k = zeta^{-(k-1)(l-1)/2} for the taw variant) so that any
two generators of different slots pick up exactly one zeta.  Which
U^a V^b goes in which slot is read from the rows of L (tau, and the
Pauli set) and L' (taw) in `commforms`, the one statement of it.

Phases that involve half-angles (nu, alpha_k) are computed exactly in
Q(zeta_2l) and converted to complex once, not assembled from floating
half-angle exponentials.

Every generator built here is a Kronecker word of monomial site
factors (one nonzero per row and per column, a permutation times a
diagonal of phases), and a `GeneratorSet` keeps it in that form.  Its
monomial form (perm, phase) is read once, at construction, from the
small factors; its dense matrices are made on first read and then
kept.  `verify_relations` and `lame_residual` read the monomial form.
They multiply by index gathers and sum the deviations by numpy
reductions, so the printed deviations do not depend on the BLAS or its
thread count.  The left side of the power-sum residual, a dense BLAS
power, starts from the phases scattered into one zero matrix.  Any
other input (a conjugated set, a pair with a zero row) takes dense
products, which stay the reference the gather path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .commforms import _L, _LPRIME, _pair_blocks
from .cyclotomic import root_of_unity

__all__ = [
    "GeneratorSet",
    "RelationReport",
    "WeylRelationError",
    "ReducibleRepresentationError",
    "pauli",
    "weyl_pair",
    "degenerate_pair",
    "tau_triple",
    "conjugated_triple",
    "clifford_generators",
    "t_generators",
    "extract_tau_site",
    "span_dimension",
    "fourier",
    "standardize_weyl_pair",
    "reducible_pair",
    "reducible_pair_permutation",
    "conjugate_generators",
    "verify_relations",
    "lame_residual",
    "matrix_to_json",
    "matrix_from_json",
]

DEFAULT_TOL = 1e-10


class WeylRelationError(ValueError):
    """Input matrices do not satisfy the required exchange relation."""


class ReducibleRepresentationError(ValueError):
    """The pair cannot be standardized: it splits into smaller blocks."""


class GeneratorSet:
    """An ordered tuple of generators with their relation data.

    Each generator is held as a Kronecker word (scale, factors): the
    product reduce(np.kron, factors), times scale unless scale is None.
    A matrix passed in is a one-factor word with no scale.  The monomial
    form (perm, phase) of every word is read once, at construction, from
    its small factors (None for a word that is not monomial); the dense
    `matrices` tuple is made on first read and then kept.  So a matrix
    passed in must not be changed in place afterwards: the checks would
    read its form from before the change.
    """

    def __init__(self, matrices, l: int, zeta: complex, labeling: str = "custom"):
        self.l, self.zeta, self.labeling = l, zeta, labeling
        self._set_words((None, (np.asarray(m, dtype=complex),)) for m in matrices)

    @classmethod
    def _from_words(cls, words, l: int, zeta: complex, labeling: str) -> "GeneratorSet":
        gens = cls((), l, zeta, labeling)
        gens._set_words(words)
        return gens

    def _set_words(self, words) -> None:
        self._words = tuple(words)
        self._monomials = tuple(_word_monomial(w) for w in self._words)
        self._matrices = None

    @property
    def matrices(self) -> tuple:
        if self._matrices is None:
            self._matrices = tuple(_word_matrix(w) for w in self._words)
        return self._matrices

    @property
    def dim(self) -> int:
        return math.prod(f.shape[0] for f in self._words[0][1])

    def __len__(self):
        return len(self._words)

    def __iter__(self):
        return iter(self.matrices)


@dataclass
class RelationReport:
    """Outcome of checking exchange relations and unit l-th powers."""

    passed: bool
    tolerance: float
    max_pair_deviation: float
    max_power_deviation: float
    pair_failures: tuple
    power_failures: tuple

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "max_pair_deviation": self.max_pair_deviation,
            "max_power_deviation": self.max_power_deviation,
            "pair_failures": [list(p) for p in self.pair_failures],
            "power_failures": list(self.power_failures),
        }


def _zeta(l: int) -> complex:
    return complex(root_of_unity(l).to_complex())


def _nu(l: int) -> complex:
    # nu = zeta_l^{(l+1)/2} = zeta_{2l}^{l+1}, exact before conversion
    return complex(root_of_unity(2 * l, l + 1).to_complex())


def pauli(i: int) -> np.ndarray:
    """Pauli matrix sigma_i, i in {1, 2, 3}."""
    if i == 1:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if i == 2:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if i == 3:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    raise ValueError("Pauli index must be 1, 2 or 3")


def weyl_pair(l: int):
    """The clock-shift pair (U, V) at order l, U V = zeta V U."""
    return degenerate_pair(l, 1.0, _zeta(l))


def degenerate_pair(l: int, a: complex = 0.0, lam: complex = 1.0):
    """Shift-with-corner S^(a) and clock V^lam at an arbitrary scalar lam.

    S^(0) V^lam = lam V^lam S^(0) holds for every lam, at the price of
    det S^(0) = 0; with a != 0 the relation needs lam^l = 1, and
    a = 1, lam = zeta recovers the invertible pair.
    """
    if l < 2:
        raise ValueError("order l must be at least 2")
    s = np.zeros((l, l), dtype=complex)
    for j in range(l - 1):
        s[j, j + 1] = 1.0
    s[l - 1, 0] = complex(a)
    v = np.diag([complex(lam) ** k for k in range(l)]).astype(complex)
    return s, v


def tau_triple(l: int, variant: str = "tau"):
    """Ordered triple (tau_1, tau_2, tau_3) with x y = zeta y x, x^l = 1.

    variant "tau": (U, conj(nu) U V, V); variant "taw": (U, V, nu U^dag V).
    At l = 2 the tau variant is (sigma_1, sigma_2, sigma_3).
    """
    u, v = weyl_pair(l)
    nu = _nu(l)
    if variant == "tau":
        return u, np.conj(nu) * (u @ v), v
    if variant == "taw":
        return u, v, nu * (u.conj().T @ v)
    raise ValueError("variant must be 'tau' or 'taw'")


def conjugated_triple(l: int, m: np.ndarray):
    """The taw triple transported by an invertible matrix M.

    Returns (M^-1 U M, M^-1 V M, nu M^-1 U^dag V M); the third member
    is nu times the product of the inverse of the first with the second.
    """
    taw = GeneratorSet(tau_triple(l, "taw"), l, _zeta(l))
    return conjugate_generators(taw, m).matrices


def _string_generators(n_gens: int, rows, factors: dict, diag, scales=None):
    """Generator words read from the site-exponent rows of L or L' (`commforms`).

    Row r holds the exponents (a, b) of U^a V^b in each tensor slot, and
    generator r is the Kronecker word over the slots of factors[(a, b)],
    (0, 0) being the identity; with `scales`, pair k's two generators
    carry scales[k].  An odd count appends `diag` in every slot.
    """
    pairs, slots = n_gens // 2, (n_gens + 1) // 2
    factors = {(0, 0): np.eye(len(diag), dtype=complex), **factors}
    words = []
    for r, row in enumerate(_pair_blocks(2 * slots, *rows)[:2 * pairs]):
        scale = None if scales is None else scales[r // 2]
        words.append((scale, tuple(factors[a, b] for a, b in zip(row[0::2], row[1::2]))))
    if n_gens % 2:
        words.append((None, (diag,) * slots))
    return words


def clifford_generators(n: int, include_odd: bool = False) -> GeneratorSet:
    """Anticommuting generators e_1..e_{2n} (optionally e_{2n+1}).

    e_{2k-1} = sigma_3^(k-1 factors) x sigma_1 x 1...,
    e_{2k}   = sigma_3^(k-1 factors) x sigma_2 x 1...,
    and the odd extension appends e_{2n+1} = sigma_3^(n+1 factors) with
    every generator embedded at dimension 2^(n+1): the rows of L, as
    for the tau variant of `t_generators`.
    """
    if n < 0 or (n == 0 and not include_odd):
        raise ValueError("need at least one generator")
    s1, s2, s3 = pauli(1), pauli(2), pauli(3)
    factors = {(1, 0): s1, (1, 1): s2, (0, 1): s3}
    words = _string_generators(2 * n + include_odd, _L, factors, s3)
    return GeneratorSet._from_words(words, 2, -1.0 + 0j, "pauli-clifford")


def t_generators(n_gens: int, l: int, variant: str = "tau") -> GeneratorSet:
    """n_gens generators of T(n_gens, l) at dimension l^ceil(n_gens/2).

    Even counts pair up into ceil(n/2) tensor slots along the rows of L
    (tau) or L' (taw); an odd count adds the all-diagonal generator
    (tau_3 or nu U^dag V in every slot).
    """
    if n_gens < 1:
        raise ValueError("need at least one generator")
    if l < 2:
        raise ValueError("order l must be at least 2")
    if variant not in ("tau", "taw"):
        raise ValueError("variant must be 'tau' or 'taw'")
    pairs = n_gens // 2
    if variant == "tau":
        site1, site2, string = tau_triple(l, "tau")
        factors = {(1, 0): site1, (1, 1): site2, (0, 1): string}
        # the unit scale sets the sign of zeros that the pinned gen bytes carry
        words = _string_generators(n_gens, _L, factors, string, [1.0 + 0j] * pairs)
    else:
        u, v = weyl_pair(l)
        string = u.conj().T @ v
        # alpha_k = zeta^{-(k-1)(l-1)/2} = zeta_{2l}^{-(k-1)(l-1)}, exact
        alphas = [
            complex(root_of_unity(2 * l, -(k - 1) * (l - 1)).to_complex())
            for k in range(1, pairs + 1)
        ]
        factors = {(1, 0): u, (0, 1): v, (-1, 1): string}
        words = _string_generators(n_gens, _LPRIME, factors, _nu(l) * string, alphas)
    return GeneratorSet._from_words(words, l, _zeta(l), variant)


def extract_tau_site(gens: GeneratorSet, i: int, k: int) -> np.ndarray:
    """Recover the one-site factor tau_{i;k} from tau-variant generators.

    tau_{3;k} = nu t_{2k-1}^{l-1} t_{2k} (the string slots cancel), and
    multiplying t_{2k-1} or t_{2k} by the accumulated tau_3^{l-1}
    strings of the earlier sites strips them down to tau_{1;k} and
    tau_{2;k}.
    """
    if i not in (1, 2, 3):
        raise ValueError("site index i must be 1, 2 or 3")
    pairs = len(gens) // 2
    if not 1 <= k <= pairs:
        raise ValueError(f"pair index {k} outside 1..{pairs}")
    if gens.labeling != "tau":
        raise ValueError("site extraction is defined for the tau labeling")
    l = gens.l
    nu = _nu(l)
    t = gens.matrices

    def tau3(site: int) -> np.ndarray:
        return nu * np.linalg.matrix_power(t[2 * site - 2], l - 1) @ t[2 * site - 1]

    if i == 3:
        return tau3(k)
    out = t[2 * k - 2] if i == 1 else t[2 * k - 1]
    for j in range(1, k):
        out = out @ np.linalg.matrix_power(tau3(j), l - 1)
    return out


def span_dimension(matrices, rel_tol: float = 1e-9) -> int:
    """Dimension of the linear span of a family of matrices.

    Rank of the stacked vectorizations; singular values below
    rel_tol times the largest are treated as zero.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    stacked = np.vstack([m.ravel() for m in mats])
    svals = np.linalg.svd(stacked, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rel_tol * svals[0]))


def fourier(l: int) -> np.ndarray:
    """Discrete Fourier matrix F with F^-1 U F = V^-1 and F^-1 V F = U."""
    if l < 1:
        raise ValueError("order l must be at least 1")
    j, k = np.meshgrid(np.arange(l), np.arange(l), indexing="ij")
    return np.exp(-2j * np.pi * j * k / l) / np.sqrt(l)


def standardize_weyl_pair(u: np.ndarray, v: np.ndarray, l: int, tol: float = 1e-8):
    """Transform an abstract exchange pair onto the standard (U, V).

    Given invertible U', V' with U' V' = zeta V' U' and V' carrying l
    distinct eigenvalues, returns (M, mu) with

        M^-1 U' M = U,       M^-1 V' M = mu V.

    The basis is the eigenvector orbit m_k = U'^{-k} e of a chosen
    eigenvector e of V' (V' m_k = mu zeta^k m_k).  Determinism: the
    eigenvalue with argument closest to zero is chosen, and the phase
    of e is fixed by making its first significant entry real positive.

    Raises WeylRelationError if the exchange relation fails beyond tol,
    and ReducibleRepresentationError when the pair splits (dimension
    above l, or a degenerate V' spectrum).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("U' and V' must be square matrices of equal size")
    dim = u.shape[0]
    if l < 2:
        raise ValueError("order l must be at least 2")
    zeta = _zeta(l)
    # non-finite entries give a NaN deviation, which fails the check
    with np.errstate(invalid="ignore", over="ignore"):
        scale = max(np.linalg.norm(u @ v), 1.0)
        deviation = np.linalg.norm(u @ v - zeta * (v @ u)) / scale
    if not deviation <= tol:
        raise WeylRelationError(
            f"exchange relation fails: relative deviation {deviation:.3e}"
        )
    if dim != l:
        raise ReducibleRepresentationError(
            f"dimension {dim} exceeds order {l}: the pair is reducible"
        )
    eigvals, eigvecs = np.linalg.eig(v)
    # a degenerate spectrum cannot host the full zeta-orbit of eigenvalues:
    # |lam_a - lam_b| < 100 tol max(1, |lam_a|) for some a < b (NaN is False)
    size = np.fmax(1.0, np.abs(eigvals))[:, None]
    near = np.abs(eigvals[:, None] - eigvals) < 100 * tol * size
    if np.triu(near, 1).any():
        raise ReducibleRepresentationError(
            "V' has a (near-)degenerate spectrum: reducible pair"
        )
    idx = int(np.argmin(np.abs(np.angle(eigvals))))
    mu = eigvals[idx]
    e = eigvecs[:, idx]
    e = e / np.linalg.norm(e)
    nz = int(np.argmax(np.abs(e) > 1e-8 * np.max(np.abs(e))))
    e = e * (abs(e[nz]) / e[nz])
    try:
        uinv = np.linalg.inv(u)
    except np.linalg.LinAlgError as exc:
        raise ValueError("U' must be invertible") from exc
    cols = [e]
    for _ in range(l - 1):
        cols.append(uinv @ cols[-1])
    m = np.column_stack(cols)
    if np.linalg.cond(m) > 1.0 / np.finfo(float).eps ** 0.5:
        raise ReducibleRepresentationError(
            "eigenvector orbit does not span: reducible pair"
        )
    return m, mu


def reducible_pair(l: int, m: int):
    """The reducible exchange pair (U^m, V) for a divisor m, 1 < m < l."""
    if l < 2 or m <= 1 or m >= l or l % m:
        raise ValueError("m must be a divisor of l with 1 < m < l")
    u, v = weyl_pair(l)
    return np.linalg.matrix_power(u, m), v


def reducible_pair_permutation(l: int, m: int) -> np.ndarray:
    """Permutation P splitting (U^m, V) into m blocks of size l/m.

    P^T (U^m) P = 1_m x U_{l/m} and P^T V P = diag(zeta^j) x V_{l/m},
    with x the Kronecker product and j = 0..m-1.
    """
    if l < 2 or m <= 1 or m >= l or l % m:
        raise ValueError("m must be a divisor of l with 1 < m < l")
    k = l // m
    p = np.zeros((l, l), dtype=complex)
    for j in range(m):
        for r in range(k):
            p[j + r * m, j * k + r] = 1.0
    return p


def conjugate_generators(gens: GeneratorSet, m: np.ndarray) -> GeneratorSet:
    """Transport every generator through an invertible M."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("M must be square")
    try:
        minv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("M must be invertible") from exc
    mats = tuple(minv @ t @ m for t in gens.matrices)
    return GeneratorSet(mats, gens.l, gens.zeta, "custom")


def _monomial(m: np.ndarray):
    """(perm, phase) with m[i, perm[i]] = phase[i], or None.

    None unless every row and every column holds exactly one nonzero;
    NaN and inf count as nonzero.
    """
    nz = m != 0
    if not ((nz.sum(axis=1) == 1).all() and (nz.sum(axis=0) == 1).all()):
        return None
    perm = nz.argmax(axis=1)
    return perm, m[np.arange(len(perm)), perm]


def _kron_monomials(a, b):
    # row i db + j of A (x) B holds A's phase in row i times B's in row j,
    # at column perm_a[i] db + perm_b[j], as np.kron multiplies them
    (pa, fa), (pb, fb) = a, b
    db = len(pb)
    return (pa[:, None] * db + pb).ravel(), (fa[:, None] * fb).ravel()


def _word_monomial(word):
    """(perm, phase) of a word's product, combined from its factors, or None."""
    scale, factors = word
    monos = [_monomial(f) for f in factors]
    if any(m is None for m in monos):
        return None
    perm, phase = reduce(_kron_monomials, monos)
    return perm, phase if scale is None else scale * phase


def _word_matrix(word) -> np.ndarray:
    scale, factors = word
    mat = reduce(np.kron, factors)
    return mat if scale is None else scale * mat


def _monomial_product(a, b):
    # row i of A B is A's phase in row i times row perm_a[i] of B
    (pa, fa), (pb, fb) = a, b
    return pb[pa], fa * fb[pa]


def _monomial_power(a, l: int):
    out = a
    for _ in range(l - 1):
        out = _monomial_product(out, a)
    return out


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real**2 + x.imag**2


def _monomial_distance(a, b, z: complex = 1.0) -> float:
    """Frobenius norm of A - z B, summed by numpy rather than the BLAS."""
    (pa, fa), (pb, fb) = a, b
    zb = z * fb
    sq = np.where(pa == pb, _abs2(fa - zb), _abs2(fa) + _abs2(zb))
    return math.sqrt(np.sum(sq))


def _gather_deviations(monos, zeta: complex, l: int):
    """Pair and power deviations of monomial generators, by index gathers."""
    dim = len(monos[0][0])
    eye = (np.arange(dim), np.ones(dim, dtype=complex))
    pairs = {
        (j, k): _monomial_distance(
            _monomial_product(monos[j], monos[k]),
            _monomial_product(monos[k], monos[j]),
            zeta,
        )
        for j in range(len(monos))
        for k in range(j + 1, len(monos))
    }
    powers = [_monomial_distance(_monomial_power(t, l), eye) for t in monos]
    return pairs, powers


def _dense_deviations(mats, zeta: complex, l: int):
    """Pair and power deviations by dense products: the reference path."""
    eye = np.eye(mats[0].shape[0], dtype=complex)
    pairs = {
        (j, k): float(np.linalg.norm(mats[j] @ mats[k] - zeta * (mats[k] @ mats[j])))
        for j in range(len(mats))
        for k in range(j + 1, len(mats))
    }
    powers = [float(np.linalg.norm(np.linalg.matrix_power(t, l) - eye)) for t in mats]
    return pairs, powers


def verify_relations(gens: GeneratorSet, tol: float = DEFAULT_TOL) -> RelationReport:
    """Check t_j t_k = zeta t_k t_j (j < k) and t_k^l = 1 numerically.

    A set whose generators are all monomial (one nonzero per row and per
    column, as every set `t_generators` and `clifford_generators` build)
    is checked by index gathers on the (perm, phase) form read at
    construction, in O(n^2 dim + n l dim), and its deviations are summed
    without the BLAS, so they do not depend on its thread count.  Any
    other set takes the dense products, which are the reference.  A
    non-finite deviation fails and shows in the maximum.
    """
    monos = gens._monomials
    with np.errstate(invalid="ignore", over="ignore"):
        if all(m is not None for m in monos):
            pairs, powers = _gather_deviations(monos, gens.zeta, gens.l)
        else:
            pairs, powers = _dense_deviations(gens.matrices, gens.zeta, gens.l)
    pair_failures = tuple(
        (j + 1, k + 1, dev) for (j, k), dev in pairs.items() if not dev <= tol
    )
    power_failures = tuple(k + 1 for k, dev in enumerate(powers) if not dev <= tol)
    return RelationReport(
        passed=not pair_failures and not power_failures,
        tolerance=tol,
        # np.max keeps a NaN, where max(0.0, nan) would drop it
        max_pair_deviation=float(np.max(list(pairs.values()), initial=0.0)),
        max_power_deviation=float(np.max(powers, initial=0.0)),
        pair_failures=pair_failures,
        power_failures=power_failures,
    )


def lame_residual(gens: GeneratorSet, coeffs) -> float:
    """Frobenius norm of (sum_k x_k t_k)^l - sum_k x_k^l t_k^l.

    A monomial t_k adds x_k times its phases into the sum, and x_k^l
    times the phases of t_k^l into the right side, at their positions,
    found by index gathers; any other t_k adds x_k t_k and x_k^l times
    its dense power, the reference path.  The left side is a dense
    matrix power of the sum.
    """
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) != len(gens):
        raise ValueError("need one coefficient per generator")
    lhs = np.zeros((gens.dim, gens.dim), dtype=complex)
    rhs = np.zeros_like(lhs)
    rows = np.arange(gens.dim)
    for k, (c, mono) in enumerate(zip(coeffs, gens._monomials)):
        if mono is None:
            t = gens.matrices[k]
            lhs = lhs + c * t
            rhs = rhs + c**gens.l * np.linalg.matrix_power(t, gens.l)
        else:
            lhs[rows, mono[0]] += c * mono[1]
            perm, phase = _monomial_power(mono, gens.l)
            rhs[rows, perm] += c**gens.l * phase
    lhs = np.linalg.matrix_power(lhs, gens.l)
    return float(np.linalg.norm(lhs - rhs))


def matrix_to_json(m: np.ndarray) -> dict:
    """{"dim": d, "entries": [[re, im], ...]} in row-major order."""
    m = np.ascontiguousarray(m, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "entries": m.view(np.float64).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of `matrix_to_json`; dim must be a whole number >= 1, else ValueError."""
    dim = obj["dim"]
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dim must be a whole number >= 1, got {dim!r}")
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise ValueError("matrix entry count does not match dimension")
    flat = [complex(re, im) for re, im in entries]
    return np.array(flat, dtype=complex).reshape(dim, dim)
