import hashlib
import json
import math
import random
import subprocess
import sys
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unitary
from weylclifford import matrep
from weylclifford.algebra import AlgebraSignature
from weylclifford.commforms import clifford_form, matrix_L, matrix_Lprime
from weylclifford.matrep import (
    GeneratorSet,
    ReducibleRepresentationError,
    WeylRelationError,
    clifford_generators,
    conjugate_generators,
    conjugated_triple,
    degenerate_pair,
    extract_tau_site,
    fourier,
    lame_residual,
    matrix_from_json,
    matrix_to_json,
    pauli,
    reducible_pair,
    reducible_pair_permutation,
    span_dimension,
    standardize_weyl_pair,
    t_generators,
    tau_triple,
    verify_relations,
    weyl_pair,
)
from weylclifford.matrep import _monomial
from weylclifford.sampling import sample_coefficients


def zeta(l):
    return np.exp(2j * np.pi / l)


def as_set(mats, l, variant="custom"):
    return GeneratorSet(tuple(mats), l, zeta(l), variant)


def monomials(gens):
    powers = [
        [np.linalg.matrix_power(t, e) for e in range(gens.l)] for t in gens.matrices
    ]
    out = []
    for exps in product(range(gens.l), repeat=len(gens)):
        m = powers[0][exps[0]]
        for j in range(1, len(exps)):
            m = m @ powers[j][exps[j]]
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# small building blocks
# ---------------------------------------------------------------------------

def test_pauli_entries_and_products():
    assert np.array_equal(pauli(1), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli(3), np.array([[1, 0], [0, -1]]))
    assert np.linalg.norm(pauli(1) @ pauli(2) - 1j * pauli(3)) < 1e-15
    for i in (1, 2, 3):
        assert np.allclose(pauli(i) @ pauli(i), np.eye(2))
    with pytest.raises(ValueError):
        pauli(4)


def test_weyl_pair_basics():
    u, v = weyl_pair(2)
    assert np.allclose(u, pauli(1)) and np.allclose(v, pauli(3))
    _, v3 = weyl_pair(3)
    assert np.allclose(np.diag(v3), [1, zeta(3), zeta(3) ** 2])
    with pytest.raises(ValueError):
        weyl_pair(1)


def test_weyl_pair_relations_and_unitarity():
    for l in range(2, 9):
        u, v = weyl_pair(l)
        assert np.linalg.norm(u @ v - zeta(l) * v @ u) <= 1e-12
        for m in (u, v):
            assert np.linalg.norm(m.conj().T @ m - np.eye(l)) <= 1e-12
            assert np.linalg.norm(np.linalg.matrix_power(m, l) - np.eye(l)) <= 1e-12
        assert abs(np.linalg.det(u @ v)) > 0.5


def test_degenerate_pair():
    for lam in (2.5, 0.3 - 1.1j):
        s, v = degenerate_pair(5, 0.0, lam)
        assert np.allclose(s @ v, lam * v @ s, atol=1e-12)
        assert abs(np.linalg.det(s)) < 1e-14
        assert np.allclose(s[-1], 0)
    s, v = degenerate_pair(4, 1.0, zeta(4))
    u0, v0 = weyl_pair(4)
    assert np.allclose(s, u0) and np.allclose(v, v0)


# ---------------------------------------------------------------------------
# ordered triples
# ---------------------------------------------------------------------------

def test_tau_triple_is_pauli_at_l2():
    t1, t2, t3 = tau_triple(2)
    for got, want in zip((t1, t2, t3), (pauli(1), pauli(2), pauli(3))):
        assert np.allclose(got, want, atol=1e-15)


def test_triple_relations_both_variants():
    for l in range(2, 8):
        for variant in ("tau", "taw"):
            trip = tau_triple(l, variant)
            z = zeta(l)
            for a in range(3):
                for b in range(a + 1, 3):
                    dev = np.linalg.norm(trip[a] @ trip[b] - z * trip[b] @ trip[a])
                    assert dev <= 1e-12, (l, variant, a, b)
                assert (
                    np.linalg.norm(np.linalg.matrix_power(trip[a], l) - np.eye(l))
                    <= 1e-11
                )
    with pytest.raises(ValueError):
        tau_triple(3, "bogus")


def test_taw_third_member_value():
    u, v = weyl_pair(3)
    nu = np.exp(4j * np.pi / 3)
    _, _, t3 = tau_triple(3, "taw")
    assert np.linalg.norm(t3 - nu * u.conj().T @ v) < 1e-14
    for l in (2, 3, 4, 6):
        t3 = tau_triple(l, "taw")[2]
        assert np.linalg.norm(np.linalg.matrix_power(t3, l) - np.eye(l)) <= 1e-12


def test_conjugated_triple():
    for got, want in zip(conjugated_triple(3, np.eye(3)), tau_triple(3, "taw")):
        assert np.allclose(got, want)
    rng = np.random.default_rng(0)
    for m in (fourier(4), random_unitary(4, rng), rng.normal(size=(4, 4)) + np.eye(4) * 3):
        trip = conjugated_triple(4, m)
        rep = verify_relations(as_set(trip, 4), tol=1e-8)
        assert rep.passed
    with pytest.raises(ValueError):
        conjugated_triple(3, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        conjugated_triple(3, np.ones((2, 3)))


def test_representative_diagram_triples():
    # three conjugation-orbit representatives, checked relation-wise
    l = 5
    u, v = weyl_pair(l)
    nu = tau_triple(l, "taw")[2] @ np.linalg.inv(u.conj().T @ v)
    reps = (
        tau_triple(l, "tau"),
        tau_triple(l, "taw"),
        conjugated_triple(l, fourier(l)),
    )
    for trip in reps:
        assert verify_relations(as_set(trip, l), tol=1e-10).passed
    assert np.allclose(nu, nu[0, 0] * np.eye(l))


# ---------------------------------------------------------------------------
# generator sets
# ---------------------------------------------------------------------------

def test_clifford_generators_basics():
    g = clifford_generators(1)
    assert len(g) == 2 and g.dim == 2
    assert np.allclose(g.matrices[0], pauli(1))
    assert np.allclose(g.matrices[1], pauli(2))
    with pytest.raises(ValueError):
        clifford_generators(0)


def test_clifford_anticommutation():
    for n in (1, 2, 3):
        for odd in (False, True):
            g = clifford_generators(n, include_odd=odd)
            mats = g.matrices
            eye = np.eye(g.dim)
            for j in range(len(mats)):
                for k in range(len(mats)):
                    anti = mats[j] @ mats[k] + mats[k] @ mats[j]
                    want = 2 * eye if j == k else 0 * eye
                    assert np.linalg.norm(anti - want) <= 1e-12


def test_clifford_euclidean_square():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        for odd in (False, True):
            g = clifford_generators(n, include_odd=odd)
            x = rng.normal(size=len(g))
            s = sum(c * m for c, m in zip(x, g.matrices))
            assert np.linalg.norm(s @ s - np.sum(x**2) * np.eye(g.dim)) <= 1e-12


def test_t_generators_dimensions_and_relations():
    for l in (2, 3, 4):
        for n_gens in range(1, 7):
            for variant in ("tau", "taw"):
                g = t_generators(n_gens, l, variant)
                assert g.dim == l ** ((n_gens + 1) // 2)
                assert len(g) == n_gens
                assert verify_relations(g, tol=1e-10).passed, (n_gens, l, variant)
    with pytest.raises(ValueError):
        t_generators(0, 3)
    with pytest.raises(ValueError):
        t_generators(2, 1)
    with pytest.raises(ValueError):
        t_generators(2, 3, "pauli")


def test_t_generators_pair_is_weyl_pair_in_taw():
    for l in (2, 3, 5):
        g = t_generators(2, l, "taw")
        u, v = weyl_pair(l)
        assert np.allclose(g.matrices[0], u, atol=1e-14)
        assert np.allclose(g.matrices[1], v, atol=1e-14)


def test_l2_degeneration_matches_clifford():
    for n_gens in range(1, 8):
        g = t_generators(n_gens, 2, "tau")
        c = clifford_generators(n_gens // 2, include_odd=bool(n_gens % 2))
        assert g.dim == c.dim
        for a, b in zip(g.matrices, c.matrices):
            assert np.allclose(a, b, atol=1e-14)


def test_dense_sets_follow_the_integer_rows():
    # generator k is a unit scalar times the tensor product over the
    # slots of U^a V^b, (a, b) read from row k of L (tau, Pauli) or L'
    # (taw); the rows' symplectic products are the exchange exponents,
    # which the relations fix at 1 for every j < k
    cases = [
        (t_generators(n, l, variant), l, rows(n))
        for l in (2, 3, 4, 5)
        for n in (2, 4, 6)
        for variant, rows in (("tau", matrix_L), ("taw", matrix_Lprime))
    ] + [(clifford_generators(n // 2), 2, matrix_L(n)) for n in (2, 4, 6)]
    for gens, l, lmat in cases:
        rows = np.array(lmat, dtype=int)
        a, b = rows[:, 0::2], rows[:, 1::2]
        h_pm = np.array(clifford_form(len(rows)), dtype=int)
        assert np.array_equal(a @ b.T - b @ a.T, h_pm)
        u, v = weyl_pair(l)
        for t, row_a, row_b in zip(gens.matrices, a, b):
            want = reduce(np.kron, [
                np.linalg.matrix_power(u, x % l) @ np.linalg.matrix_power(v, y % l)
                for x, y in zip(row_a, row_b)
            ])
            k = int(np.argmax(np.abs(want)))
            c = t.flat[k] / want.flat[k]
            assert abs(abs(c) - 1) <= 1e-12
            assert np.linalg.norm(t - c * want) <= 1e-12, (l, len(rows))


def test_multi_slot_json_bytes_hashed():
    # sha256 over matrix_to_json of the 3- to 5-slot sets, whose strings
    # run through several earlier slots; signed zeros count
    sets = [
        t_generators(n, l, variant)
        for variant in ("tau", "taw")
        for l, ns in ((2, range(5, 9)), (3, range(5, 9)), (4, (5, 6)))
        for n in ns
    ] + [clifford_generators(n // 2, bool(n % 2)) for n in range(7, 10)]
    digest = hashlib.sha256()
    for gens in sets:
        digest.update(json.dumps([matrix_to_json(m) for m in gens.matrices]).encode())
    assert digest.hexdigest() == (
        "85c7e0c4b16a28572733229c44856b885e8c6f78134ccf11c2d2ab6df40ab681"
    )


def test_odd_generator_is_diagonal():
    for l in (2, 3, 4):
        for n_gens in (1, 3, 5):
            g = t_generators(n_gens, l, "tau")
            last = g.matrices[-1]
            assert np.linalg.norm(last - np.diag(np.diag(last))) <= 1e-14


def test_numeric_power_sum_identity():
    rng = np.random.default_rng(7)
    for l in (2, 3, 4):
        for n_gens in (2, 3, 5):
            g = t_generators(n_gens, l, "tau")
            for _ in range(3):
                x = rng.normal(size=n_gens) + 1j * rng.normal(size=n_gens)
                assert lame_residual(g, x) <= 1e-9
    with pytest.raises(ValueError):
        lame_residual(t_generators(2, 3), [1.0])


# ---------------------------------------------------------------------------
# site extraction
# ---------------------------------------------------------------------------

def test_extract_tau_site_matches_embedding():
    for l in (2, 3, 4):
        for pairs in (1, 2, 3):
            g = t_generators(2 * pairs, l, "tau")
            trip = tau_triple(l, "tau")
            eye = np.eye(l, dtype=complex)
            for k in range(1, pairs + 1):
                for i in (1, 2, 3):
                    want = np.eye(1, dtype=complex)
                    for s in range(1, pairs + 1):
                        want = np.kron(want, trip[i - 1] if s == k else eye)
                    got = extract_tau_site(g, i, k)
                    assert np.linalg.norm(got - want) <= 1e-10, (l, pairs, i, k)


def test_extract_tau_site_is_jordan_wigner_at_l2():
    g = t_generators(4, 2, "tau")
    s3 = extract_tau_site(g, 3, 2)
    assert np.allclose(s3, np.kron(np.eye(2), pauli(3)), atol=1e-13)


def test_extract_tau_site_validation():
    g = t_generators(4, 3, "tau")
    with pytest.raises(ValueError):
        extract_tau_site(g, 4, 1)
    with pytest.raises(ValueError):
        extract_tau_site(g, 1, 3)
    gw = t_generators(4, 3, "taw")
    with pytest.raises(ValueError):
        extract_tau_site(gw, 1, 1)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_span_weyl_words():
    for l in (2, 3, 4):
        u, v = weyl_pair(l)
        words = [
            np.linalg.matrix_power(u, a) @ np.linalg.matrix_power(v, b)
            for a in range(l)
            for b in range(l)
        ]
        assert span_dimension(words) == l * l
    assert span_dimension([np.eye(5)]) == 1
    with pytest.raises(ValueError):
        span_dimension([])


def test_span_even_monomial_grids():
    for n_gens, l in ((2, 2), (2, 3), (2, 4), (4, 2), (4, 3), (4, 4), (6, 2), (6, 3)):
        for variant in ("tau", "taw"):
            g = t_generators(n_gens, l, variant)
            assert span_dimension(monomials(g)) == l**n_gens, (n_gens, l, variant)


def test_span_even_grid_6_4_by_trace_orthogonality():
    # 4^6 = 4096 monomials in 64x64 matrices: pairwise orthogonality
    # under the trace inner product already gives full rank, and for
    # these unitary monomials (t^a)^dag t^b is again a monomial, so it
    # is enough that every nonzero monomial is traceless
    g = t_generators(6, 4, "tau")
    for i, m in enumerate(monomials(g)):
        tr = np.trace(m)
        if i == 0:
            assert abs(tr - g.dim) < 1e-9
        else:
            assert abs(tr) < 1e-9, i


def test_span_odd_grids():
    for n_gens, l in ((1, 3), (3, 2), (3, 3), (5, 2)):
        g = t_generators(n_gens, l, "tau")
        assert span_dimension(monomials(g)) == l**n_gens


# ---------------------------------------------------------------------------
# Fourier matrix
# ---------------------------------------------------------------------------

def test_fourier_hadamard_at_l2():
    assert np.allclose(fourier(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_fourier_contract():
    for l in range(2, 13):
        f = fourier(l)
        u, v = weyl_pair(l)
        assert np.linalg.norm(f.conj().T @ f - np.eye(l)) <= 1e-12
        finv = f.conj().T
        assert np.linalg.norm(finv @ u @ f - np.linalg.inv(v)) <= 1e-11
        assert np.linalg.norm(finv @ v @ f - u) <= 1e-11
        assert np.linalg.norm(finv @ u @ f @ v - np.eye(l)) <= 1e-11


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardize_identity_input():
    for l in (2, 3, 6):
        u, v = weyl_pair(l)
        m, mu = standardize_weyl_pair(u, v, l)
        assert np.linalg.norm(m - np.eye(l)) <= 1e-9
        assert abs(mu - 1) <= 1e-9


def test_standardize_recovers_conjugations():
    rng = np.random.default_rng(17)
    for l in range(2, 7):
        u, v = weyl_pair(l)
        for _ in range(10):
            w = random_unitary(l, rng)
            mu0 = np.exp(2j * np.pi * rng.random())
            up = w.conj().T @ u @ w
            vp = w.conj().T @ (mu0 * v) @ w
            m, mu = standardize_weyl_pair(up, vp, l)
            minv = np.linalg.inv(m)
            assert np.linalg.norm(minv @ up @ m - u) <= 1e-7
            assert np.linalg.norm(minv @ vp @ m - mu * v) <= 1e-7


def test_standardize_fourier_case():
    for l in (2, 3, 5, 8):
        u, v = weyl_pair(l)
        f = fourier(l)
        m, mu = standardize_weyl_pair(np.linalg.inv(v), u, l)
        # the transform connecting the pairs is F itself: M^-1 = F
        assert np.linalg.norm(np.linalg.inv(m) - f) <= 1e-9
        d = m @ f
        assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-9
        assert np.allclose(np.abs(np.diag(d)), 1.0, atol=1e-9)


def test_standardize_error_modes():
    u, v = weyl_pair(3)
    with pytest.raises(WeylRelationError):
        standardize_weyl_pair(u, u, 3)
    up = u.copy()
    # note: bumping an entry on u's cyclic superdiagonal keeps the
    # commutation relation exact, so poke one off the pattern
    up[0, 0] += 1e-3
    with pytest.raises(WeylRelationError):
        standardize_weyl_pair(up, v, 3)
    # a non-finite entry makes the deviation NaN, which must fail too
    for bad in (np.nan, np.inf):
        up = u.copy()
        up[0, 0] = bad
        with pytest.raises(WeylRelationError):
            standardize_weyl_pair(up, v, 3)
    um, vm = reducible_pair(4, 2)
    with pytest.raises(ReducibleRepresentationError):
        standardize_weyl_pair(um, vm, 2)
    with pytest.raises(ValueError):
        standardize_weyl_pair(u, np.eye(2), 3)


@pytest.mark.parametrize("l", [2, 3, 5])
def test_standardize_degenerate_spectrum(l):
    # V' = 0 and a V' scaled below the tolerance pass the exchange check
    # with an invertible U', but their spectra cannot carry the zeta-orbit
    u, v = weyl_pair(l)
    for vp in (np.zeros((l, l)), 1e-9 * v):
        with pytest.raises(ReducibleRepresentationError, match="degenerate"):
            standardize_weyl_pair(u, vp, l)
    # scaled above the tolerance, the pair is standard with mu the scale
    m, mu = standardize_weyl_pair(u, 1e-3 * v, l)
    assert abs(mu - 1e-3) < 1e-12
    minv = np.linalg.inv(m)
    assert np.allclose(minv @ u @ m, u) and np.allclose(minv @ (1e-3 * v) @ m, mu * v)


def test_standardize_nilpotent_v():
    # U' V' = -V' U' with V' nilpotent: the exchange check passes at l = 2
    u = np.diag([1.0, -1.0])
    v = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ReducibleRepresentationError, match="degenerate"):
        standardize_weyl_pair(u, v, 2)


# ---------------------------------------------------------------------------
# reducible pairs
# ---------------------------------------------------------------------------

def test_reducible_pair_relation():
    um, v = reducible_pair(4, 2)
    assert np.linalg.norm(um @ v - (-1) * v @ um) <= 1e-12
    for l, m in ((6, 2), (6, 3), (9, 3)):
        um, v = reducible_pair(l, m)
        zp = zeta(l) ** m
        assert np.linalg.norm(um @ v - zp * v @ um) <= 1e-12


def test_reducible_pair_block_structure():
    for l, m in ((4, 2), (6, 2), (6, 3), (9, 3)):
        k = l // m
        um, v = reducible_pair(l, m)
        p = reducible_pair_permutation(l, m)
        uk, vk = weyl_pair(k)
        assert np.allclose(p.T @ um @ p, np.kron(np.eye(m), uk), atol=1e-12)
        scales = np.diag([zeta(l) ** j for j in range(m)])
        assert np.allclose(p.T @ v @ p, np.kron(scales, vk), atol=1e-12)


def test_reducible_pair_validation():
    for bad in ((4, 1), (4, 4), (4, 3), (1, 1)):
        with pytest.raises(ValueError):
            reducible_pair(*bad)
        with pytest.raises(ValueError):
            reducible_pair_permutation(*bad)


# ---------------------------------------------------------------------------
# conjugation and verification plumbing
# ---------------------------------------------------------------------------

def test_conjugate_generators():
    g = t_generators(2, 3, "taw")
    same = conjugate_generators(g, np.eye(3))
    assert all(np.allclose(a, b) for a, b in zip(same.matrices, g.matrices))
    rng = np.random.default_rng(23)
    for m in (random_unitary(3, rng), rng.normal(size=(3, 3)) + 2 * np.eye(3)):
        moved = conjugate_generators(g, m)
        assert verify_relations(moved, tol=1e-8).passed
    for bad in (np.zeros((3, 3)), np.ones((2, 3)), np.stack([np.eye(3)] * 2)):
        with pytest.raises(ValueError):
            conjugate_generators(g, bad)


def test_verify_relations_report():
    rep = verify_relations(as_set(weyl_pair(5), 5))
    assert rep.passed and rep.pair_failures == () and rep.power_failures == ()
    u, v = weyl_pair(5)
    rep = verify_relations(as_set((u + 1e-3, v), 5))
    assert not rep.passed
    assert rep.pair_failures and rep.pair_failures[0][:2] == (1, 2)
    assert rep.max_pair_deviation > 1e-3
    obj = rep.to_json()
    assert obj["passed"] is False and obj["pair_failures"][0][:2] == [1, 2]


def test_verify_relations_separates_power_failures():
    # the pair relation holds, only t_k^l = 1 fails
    lam = 1.5
    s, vl = degenerate_pair(3, 0.0, lam)
    g = GeneratorSet((s, vl), 3, lam, "custom")
    report = verify_relations(g)
    assert not report.passed
    assert report.pair_failures == ()
    assert report.power_failures


def test_verify_relations_nan_entry_fails():
    # a NaN phase keeps U monomial (gather path); a NaN beside U's one
    # makes row 0 dense (dense path).  Either way the deviations are NaN,
    # which must fail and show in the maxima, not fall out of max(0.0, nan)
    for entry, gathered in (((0, 1), True), ((0, 0), False)):
        u, v = weyl_pair(3)
        u[entry] = np.nan
        assert (_monomial(u) is not None) is gathered
        rep = verify_relations(as_set((u, v), 3))
        assert not rep.passed
        assert [f[:2] for f in rep.pair_failures] == [(1, 2)]
        assert math.isnan(rep.pair_failures[0][2])
        assert rep.power_failures == (1,)
        assert math.isnan(rep.max_pair_deviation)
        assert math.isnan(rep.max_power_deviation)


def test_monomial_detection():
    u, v = weyl_pair(4)
    perm, phase = _monomial(u @ v)
    rebuilt = np.zeros((4, 4), dtype=complex)
    rebuilt[np.arange(4), perm] = phase
    assert np.array_equal(rebuilt, u @ v)
    assert all(_monomial(t) is not None for t in t_generators(5, 3, "taw"))
    assert all(_monomial(t) is not None for t in clifford_generators(3, True))
    # a zero row, two nonzeros in a row, and a conjugated (dense) set
    assert _monomial(degenerate_pair(4)[0]) is None
    assert _monomial(u + np.eye(4)) is None
    moved = conjugated_triple(4, random_unitary(4, np.random.default_rng(2)))
    assert all(_monomial(t) is None for t in moved)


def word_sets():
    """Every tau and taw set with n <= 7, l <= 7, dim <= 1024, and the
    Pauli sets of 1-13 generators (dim <= 128)."""
    for variant in ("tau", "taw"):
        for n, l in product(range(1, 8), range(2, 8)):
            if l ** ((n + 1) // 2) <= 1024:
                yield t_generators(n, l, variant)
    for n in range(1, 14):
        yield clifford_generators(n // 2, include_odd=bool(n % 2))


def test_word_monomials_are_those_of_the_dense_matrices():
    # the (perm, phase) form combined from the site factors in Kronecker
    # order has the bits of _monomial of the dense product, scale included
    for gens in word_sets():
        for (perm, phase), t in zip(gens._monomials, gens.matrices):
            ref_perm, ref_phase = _monomial(t)
            assert np.array_equal(perm, ref_perm)
            assert np.array_equal(phase.view(np.int64), ref_phase.view(np.int64))


def test_dense_generators_are_built_once_on_first_read():
    gens = t_generators(5, 3, "taw")
    assert gens._matrices is None
    verify_relations(gens)
    lame_residual(gens, [1, 2, 3, 4, 5])
    assert gens._matrices is None and gens.dim == 27 and len(gens) == 5
    assert gens.matrices is gens.matrices


@st.composite
def monomial_sets(draw):
    """Monomial sets that pass (a generator set moved by a random monomial
    similarity, which keeps both relations) or fail (a perturbed phase, or
    random permutations with random phases), with unit and non-unit phases."""
    l = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = [n for n in range(1, 5) if l ** ((n + 1) // 2) <= 64]
    if draw(st.booleans()):
        gens = t_generators(draw(st.sampled_from(sizes)), l, draw(st.sampled_from(["tau", "taw"])))
        dim = gens.dim
        perm = np.eye(dim)[rng.permutation(dim)]
        d = rng.uniform(0.5, 2.0, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
        # M = diag(d) P and M^-1 = P^T diag(1/d)
        mats = [(perm.T / d) @ t @ (d[:, None] * perm) for t in gens.matrices]
        if draw(st.booleans()):
            k = draw(st.integers(0, len(mats) - 1))
            rows, cols = np.nonzero(mats[k])
            i = draw(st.integers(0, dim - 1))
            mats[k][rows[i], cols[i]] *= draw(st.sampled_from([1.001, 0.5, -1.0]))
    else:
        dim = draw(st.integers(1, 64))
        mats = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                phase = zeta(l) ** rng.integers(0, l, dim)
            else:
                phase = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            m = np.zeros((dim, dim), dtype=complex)
            m[np.arange(dim), rng.permutation(dim)] = phase
            mats.append(m)
    coeffs = rng.normal(size=len(mats)) + 1j * rng.normal(size=len(mats))
    return as_set(mats, l), coeffs


def deviations_close(gathered, dense):
    # deviations of sets that pass sit at the rounding level on both paths
    return math.isclose(gathered, dense, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=80, deadline=None)
@given(monomial_sets())
def test_gather_path_matches_dense_path(case):
    gens, coeffs = case
    assert all(_monomial(t) is not None for t in gens.matrices)
    report, residual = verify_relations(gens), lame_residual(gens, coeffs)
    with pytest.MonkeyPatch.context() as mp:
        # the (perm, phase) form is read at construction, so the reference
        # set must be built while every matrix reads as not monomial
        mp.setattr(matrep, "_monomial", lambda m: None)
        dense = as_set(gens.matrices, gens.l)
        assert all(m is None for m in dense._monomials)
        ref, ref_residual = verify_relations(dense), lame_residual(dense, coeffs)
    assert report.passed == ref.passed
    assert [f[:2] for f in report.pair_failures] == [f[:2] for f in ref.pair_failures]
    assert all(deviations_close(a[2], b[2]) for a, b in zip(report.pair_failures, ref.pair_failures))
    assert report.power_failures == ref.power_failures
    assert deviations_close(report.max_pair_deviation, ref.max_pair_deviation)
    assert deviations_close(report.max_power_deviation, ref.max_power_deviation)
    # the right side differs from the reference by rounding in its entries,
    # each at most sum_k |x_k|^l max|phase_k|^l
    scale = sum(abs(c) ** gens.l * np.abs(t).max() ** gens.l for c, t in zip(coeffs, gens))
    assert math.isclose(residual, ref_residual, rel_tol=1e-12,
                        abs_tol=1e-12 * scale * math.sqrt(gens.dim))


@pytest.mark.parametrize("n, l", [(4, 8), (2, 32)])
def test_flipped_phase_reads_far_above_the_power_sum_scale(n, l):
    # verify-lame judges a trial's residual against tol (sum_k |a_k|)^l
    # sqrt(dim), tol = 1e-9: a bound on rounding that must not hide a fault.
    # With one phase of t_1 flipped, the residual stays >= 1e-7 of it (at
    # least 7.9e-7 here), while the holding identity reads ~1e-17 or less
    gens = t_generators(n, l, "tau")
    mats = [t.copy() for t in gens.matrices]
    rows, cols = np.nonzero(mats[0])
    mats[0][rows[0], cols[0]] *= -1
    faulty = as_set(mats, l)
    rng = random.Random(0)
    for _ in range(3):
        draw = sample_coefficients(rng, AlgebraSignature(n, l).cyclotomic_order, n)
        coeffs = [complex(c.to_complex()) for c in draw]
        assert coeffs[0] != 0
        scale = sum(map(abs, coeffs)) ** l * math.sqrt(gens.dim)
        assert lame_residual(gens, coeffs) <= 1e-15 * scale
        assert lame_residual(faulty, coeffs) >= 1e-7 * scale


CAP_COEFFS = [0.5, -0.5j, 0.25, 0.5 + 0.25j, -0.25, 0.75j]
CAP_CHECKS = f"""
from weylclifford.matrep import clifford_generators, lame_residual, t_generators, verify_relations
print(verify_relations(clifford_generators(9)).passed)
print(lame_residual(t_generators(6, 10, "tau"), {CAP_COEFFS}))
"""


def test_monomial_checks_at_the_cap_run_quickly():
    # 18 Pauli strings at dim 512, and the power-sum residual at dim 1000:
    # with dense products this took 5.1 s of wall time (8.9 s of CPU) at
    # 2 BLAS threads and 8.2 s at 1 on a 2-vCPU VM, with index gathers
    # 1.0 s and 0.8 s; a fresh interpreter with a timeout makes a slow
    # path fail instead of hang
    out = subprocess.run(
        [sys.executable, "-c", CAP_CHECKS],
        capture_output=True, text=True, check=True, timeout=4,
    ).stdout.split()
    assert out[0] == "True"
    # the identity holds: the residual is rounding of (sum_k |x_k|)^l sqrt(dim)
    assert float(out[1]) <= 1e-12 * sum(map(abs, CAP_COEFFS)) ** 10 * math.sqrt(1000)


def test_matrix_json_round_trip():
    u, v = weyl_pair(5)
    m = u @ v + 0.25j * u
    assert np.allclose(matrix_from_json(matrix_to_json(m)), m)
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]]})


def test_matrix_json_entries_match_per_entry_floats():
    # the array view gives the bytes of the per-entry float loop, signed
    # zeros, non-finite values and non-contiguous input included
    def by_entry(m):
        m = np.asarray(m, dtype=complex)
        return {
            "dim": int(m.shape[0]),
            "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
        }

    odd = np.array(
        [[-0.0 + 0.0j, complex(0.0, -0.0), complex(np.nan, 1.0)],
         [complex(np.inf, -np.inf), 5e-324 - 5e-324j, 1 / 3 + 2j],
         [1, -2, 3.5]],
        dtype=complex,
    )
    u, _ = weyl_pair(4)
    for m in (t_generators(6, 7).matrices[2], fourier(6), odd, odd.T, u.real.astype(int)):
        assert json.dumps(matrix_to_json(m)) == json.dumps(by_entry(m))
