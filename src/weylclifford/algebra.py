"""Normal-form arithmetic for the generator algebras T(n, l).

Generators t_1, ..., t_n obey

    t_j t_k = zeta t_k t_j   (j < k),      zeta = primitive l-th root of 1,

and in strict mode additionally t_k^l = 1.  Every element is a finite
sum of normally ordered monomials t_1^{a_1} ... t_n^{a_n} with exact
cyclotomic coefficients.

Reordering phase.  Moving the factors of t^b leftward through the tail
of t^a swaps each b_j (index j) past each a_k with k > j, and every
swap t_k t_j -> t_j t_k costs zeta^{-1}, so

    t^a * t^b = zeta^{-sum_{j<k} b_j a_k} * t^{a+b}.

The sign is pinned by the matrix homomorphism: with t_1 = U (shift) and
t_2 = V (clock), t_2 t_1 maps to V U = zeta^{-1} U V, i.e. coefficient
zeta^{l-1} on the normally ordered monomial.

In weak mode exponents are not reduced, so t_k^l survives as a central
monomial; exponents are restricted to non-negative integers.

Power sums.  ``lame_check`` expands (sum_k a_k t_k)^l without the
normal-form product.  The coefficient of t^e is c_e * prod_k a_k^{e_k},
where c_e = prod_k [e_1+...+e_k; e_k]_q is the q-multinomial at
q = zeta^{-zeta_power}: the q-binomial theorem for the q-commuting pair
sum_{i<k} a_i t_i and a_k t_k, applied once per k.  q has order
M = l / gcd(zeta_power, l), so by q-Lucas (Desarmenien 1982)

    [p; j]_q = C(p // M, j // M) [p mod M; j mod M]_q,

which is 0 when j mod M > p mod M.  At p = l the factor k = n,
[l; e_n]_q, is 0 unless M | e_n; then the next prefix sum l - e_n is
again a multiple of M, and so on down the product: c_e = 0 unless every
e_k is a multiple of M, and then c_e is the ordinary multinomial
C(L; e/M) with L = l / M.  So only the compositions f of L into n
parts are visited, each giving C(L; f) prod_k (a_k^M)^{f_k} at t^{M f}.
A pure power f = L u_k has coefficient 1 and cancels the right-hand
side's a_k^l exactly (t_k^l in weak mode, the identity in strict
mode), so the residual is the sum over the other f alone.  Their
exponents M f_k stay below l, so strict and weak mode give the same
monomials with no fold mod l.  For a coprime zeta_power, L = 1 leaves
no f that is not a pure power, and the residual is 0 with no field
arithmetic at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod

from .cyclotomic import CyclotomicNumber, OrderMismatchError, root_of_unity

__all__ = [
    "AlgebraSignature",
    "AlgebraElement",
    "SignatureMismatchError",
    "default_cyclotomic_order",
    "zero",
    "identity",
    "generator",
    "monomial",
    "linear_combination",
    "lame_check",
    "is_central",
    "to_matrix",
    "weak_from_group_phases",
]


class SignatureMismatchError(ValueError):
    """Elements of different algebra signatures were combined."""


def default_cyclotomic_order(l: int) -> int:
    """Coefficient field order for T(n, l) work.

    Odd l: order l suffices.  Even l: order 2l, so that the half-angle
    phases zeta^{(l+1)/2} used by matrix constructions stay exact.
    """
    return l if l % 2 else 2 * l


@dataclass(frozen=True)
class AlgebraSignature:
    """Shape of a T(n, l) computation.

    zeta_power replaces the structure phase zeta by zeta^zeta_power;
    coprime powers give an isomorphic algebra, non-coprime ones break
    the power-l identities (useful for counterexample tests).
    """

    n: int
    l: int
    mode: str = "strict"
    cyclotomic_order: int = 0
    zeta_power: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one generator")
        if self.l < 2:
            raise ValueError("order l must be at least 2")
        if self.mode not in ("strict", "weak"):
            raise ValueError("mode must be 'strict' or 'weak'")
        if self.cyclotomic_order < 0:
            raise ValueError("cyclotomic order must be positive (0 for the default)")
        if self.cyclotomic_order == 0:
            object.__setattr__(
                self, "cyclotomic_order", default_cyclotomic_order(self.l)
            )
        if self.cyclotomic_order % self.l:
            raise ValueError("cyclotomic order must be a multiple of l")
        object.__setattr__(self, "zeta_power", self.zeta_power % self.l)

    @property
    def zeta(self) -> CyclotomicNumber:
        """The structure phase zeta^zeta_power as an exact number."""
        return self.zeta_root(1)

    def zeta_root(self, e: int) -> CyclotomicNumber:
        """(zeta^zeta_power)^e in the signature's coefficient field."""
        step = self.cyclotomic_order // self.l
        return root_of_unity(self.cyclotomic_order, step * self.zeta_power * e)

    def coerce(self, value) -> CyclotomicNumber:
        if isinstance(value, CyclotomicNumber):
            if value.order != self.cyclotomic_order:
                raise OrderMismatchError(
                    f"coefficient order {value.order} does not match "
                    f"signature order {self.cyclotomic_order}"
                )
            return value
        return CyclotomicNumber.rational(self.cyclotomic_order, value)


class AlgebraElement:
    """Finite sum of normally ordered monomials with exact coefficients."""

    __slots__ = ("signature", "terms")

    def __init__(self, signature: AlgebraSignature, terms):
        checked = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != signature.n:
                raise ValueError("exponent vector length must equal n")
            if signature.mode == "strict":
                if any(e < 0 or e >= signature.l for e in exps):
                    raise ValueError("strict-mode exponents live in 0..l-1")
            elif any(e < 0 for e in exps):
                raise ValueError("weak-mode exponents are non-negative")
            coeff = signature.coerce(coeff)
            if not coeff.is_zero():
                checked[exps] = checked.get(exps, signature.coerce(0)) + coeff
        self.signature = signature
        self.terms = {e: c for e, c in checked.items() if not c.is_zero()}

    @classmethod
    def _raw(cls, signature, terms):
        self = object.__new__(cls)
        self.signature = signature
        self.terms = terms
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_sig(self, other: "AlgebraElement"):
        if other.signature != self.signature:
            raise SignatureMismatchError("algebra signatures differ")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_sig(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _add_term(out, e, c)
        return AlgebraElement._raw(self.signature, out)

    def __neg__(self):
        return AlgebraElement._raw(
            self.signature, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_sig(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_sig(other)
            return _mul_elements(self, other)
        if isinstance(other, (CyclotomicNumber, int, Fraction)):
            c = self.signature.coerce(other)
            if c.is_zero():
                return AlgebraElement._raw(self.signature, {})
            return AlgebraElement._raw(
                self.signature, {e: v * c for e, v in self.terms.items()}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (CyclotomicNumber, int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, p: int):
        if not isinstance(p, int) or p < 0:
            raise ValueError("powers are non-negative integers")
        out = identity(self.signature)
        for _ in range(p):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.signature == other.signature and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement<0>"
        bits = []
        for e in sorted(self.terms):
            bits.append(f"{self.terms[e]!s}*t^{list(e)}")
        return "AlgebraElement<" + " + ".join(bits) + ">"


def _mul_elements(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    sig = x.signature
    n, l = sig.n, sig.l
    strict = sig.mode == "strict"
    zp = sig.zeta_power
    step = sig.cyclotomic_order // l
    out: dict = {}
    for a, ca in x.terms.items():
        suffix = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            suffix[j] = suffix[j + 1] + a[j]
        for b, cb in y.terms.items():
            phi = 0
            for j in range(n - 1):
                if b[j]:
                    phi -= b[j] * suffix[j + 1]
            coeff = ca * cb
            e = (zp * phi) % l
            if e:
                coeff = coeff.times_root(step * e)
            if strict:
                exps = tuple((ai + bi) % l for ai, bi in zip(a, b))
            else:
                exps = tuple(ai + bi for ai, bi in zip(a, b))
            _add_term(out, exps, coeff)
    return AlgebraElement._raw(sig, out)


def _add_term(terms: dict, e, c) -> None:
    """terms[e] += c, dropping the entry when the sum is zero."""
    acc = terms.get(e)
    acc = c if acc is None else acc + c
    if acc.is_zero():
        terms.pop(e, None)
    else:
        terms[e] = acc


def zero(sig: AlgebraSignature) -> AlgebraElement:
    return AlgebraElement._raw(sig, {})


def identity(sig: AlgebraSignature) -> AlgebraElement:
    return AlgebraElement._raw(
        sig, {(0,) * sig.n: CyclotomicNumber.one(sig.cyclotomic_order)}
    )


def generator(sig: AlgebraSignature, k: int) -> AlgebraElement:
    """t_k, 1-based index."""
    if not 1 <= k <= sig.n:
        raise ValueError(f"generator index {k} outside 1..{sig.n}")
    exps = tuple(1 if i == k - 1 else 0 for i in range(sig.n))
    return AlgebraElement._raw(
        sig, {exps: CyclotomicNumber.one(sig.cyclotomic_order)}
    )


def monomial(sig: AlgebraSignature, exponents, coeff=1) -> AlgebraElement:
    return AlgebraElement(sig, {tuple(exponents): coeff})


def linear_combination(sig: AlgebraSignature, coeffs) -> AlgebraElement:
    """sum_k coeffs[k] * t_{k+1}."""
    coeffs = list(coeffs)
    if len(coeffs) != sig.n:
        raise ValueError("need exactly n coefficients")
    terms = {}
    for k, c in enumerate(coeffs):
        exps = tuple(1 if i == k else 0 for i in range(sig.n))
        terms[exps] = c
    return AlgebraElement(sig, terms)


def lame_check(sig: AlgebraSignature, coeffs):
    """Check (sum_k a_k t_k)^l against its power-sum form.

    Strict mode compares with (sum_k a_k^l) * 1; weak mode keeps the
    central monomials t_k^l on the right-hand side.  Returns
    (passed, residual); the residual is exact, not a numeric estimate.
    """
    coeffs = [sig.coerce(c) for c in coeffs]
    if len(coeffs) != sig.n:
        raise ValueError("need exactly n coefficients")
    n, l, m = sig.n, sig.l, sig.cyclotomic_order
    order = l // gcd(sig.zeta_power, l)  # M, the order of q
    big = l // order  # L
    ladders = [[None] for _ in coeffs]  # [k][x] = a_k^(M x) for x >= 1
    terms: dict = {}
    for cuts in combinations(range(big + n - 1), n - 1):  # stars and bars
        f = [b - a - 1 for a, b in zip((-1,) + cuts, cuts + (big + n - 1,))]
        if big in f:  # a pure power: it cancels a_k^l
            continue
        c = CyclotomicNumber.rational(m, factorial(big) // prod(map(factorial, f)))
        for k, x in enumerate(f):
            if x:
                row = ladders[k]
                while len(row) <= x:
                    row.append(row[-1] * row[1] if len(row) > 1 else coeffs[k] ** order)
                c = c * row[x]
        if not c.is_zero():
            terms[tuple(order * x for x in f)] = c
    return not terms, AlgebraElement._raw(sig, terms)


def is_central(x: AlgebraElement) -> bool:
    """True when x commutes with every generator (exact check)."""
    sig = x.signature
    for k in range(1, sig.n + 1):
        t = generator(sig, k)
        if (x * t).terms != (t * x).terms:
            return False
    return True


def to_matrix(x: AlgebraElement, matrices):
    """Evaluate a strict-mode element in a matrix representation.

    matrices[k] is the image of t_{k+1}; monomials map to ordered
    products of matrix powers and coefficients to their complex values.
    Returns a complex numpy array.
    """
    import numpy as np

    sig = x.signature
    if sig.mode != "strict":
        raise ValueError("matrix evaluation requires strict mode")
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if len(mats) != sig.n:
        raise ValueError("need one matrix per generator")
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise ValueError("matrices must be square and of equal dimension")
    out = np.zeros((dim, dim), dtype=complex)
    cache: dict = {}
    for exps, coeff in x.terms.items():
        acc = None
        for k, e in enumerate(exps):
            if not e:
                continue
            key = (k, e)
            if key not in cache:
                cache[key] = np.linalg.matrix_power(mats[k], e)
            acc = cache[key] if acc is None else acc @ cache[key]
        if acc is None:
            acc = np.eye(dim, dtype=complex)
        out += coeff.to_complex() * acc
    return out


def weak_from_group_phases(n: int, l: int, lam_power: int = 1):
    """Weak-mode generators built from commuting group phases.

    From n/2 commuting pairs with u_k v_k = e^{i lam} v_k u_k, the string
    construction t_{2k-1} = u_k s_k, t_{2k} = v_k s_k, with s_k =
    prod_{j<k} u_j^{-1} v_j, has the exponent rows of L', so t_j t_k =
    e^{i lam} t_k t_j for every j < k by L' h_c L'^T = h+- (`commforms`,
    acceptance criterion 07).  The phase angle is lam =
    2*pi*lam_power/l, so e^{i lam} is a root of unity of order
    l / gcd(lam_power, l); the returned generators live in the weak
    algebra of that order with the matching structure phase.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be a positive even count of generators")
    g = gcd(lam_power % l, l)
    order = l // g
    if order < 2:
        raise ValueError("phase 2*pi*lam_power/l is trivial; no relation left")
    sig = AlgebraSignature(
        n, order, mode="weak", zeta_power=((lam_power % l) // g) % order
    )
    return [generator(sig, k) for k in range(1, n + 1)]
