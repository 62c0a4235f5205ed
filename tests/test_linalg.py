import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_hermitian, random_psd
from oracles import hermitian_from_dict, jacobi_eigh
from sos_approx.gram import gram_map, square_basis
from sos_approx.linalg import (
    NonConvergenceError,
    NotPsdError,
    clipped_spectrum,
    eig_hermitian,
    hermitian_to_dict,
    low_rank_factor,
    numerical_rank,
    psd_part,
    require_hermitian,
    schatten_norm,
    truncate_rank,
    truncation_count,
)
from sos_approx.poly import COMMUTATIVE


def test_eig_diagonal_descending():
    dec = eig_hermitian(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])


def test_eig_rank_one_projector(rng):
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    c /= np.linalg.norm(c)
    dec = eig_hermitian(np.outer(c, c.conj()))
    assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(dec.eigenvalues[1:]).max() <= 1e-12


def test_eig_contract_on_randoms(rng):
    for _ in range(10):
        M = random_hermitian(rng, 12)
        dec = eig_hermitian(M)
        assert np.trace(M).real == pytest.approx(dec.eigenvalues.sum(), abs=1e-9)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        V = dec.eigenvectors
        assert np.abs(V.conj().T @ V - np.eye(12)).max() <= 1e-10
        scale = max(1.0, np.linalg.norm(M, 2))
        assert np.linalg.norm(dec.reconstruct() - M, 2) <= 1e-9 * scale
        # the same eigenvalues, in the same order, without the vectors; real
        # input is decomposed in real arithmetic
        values = eig_hermitian(M, vectors=False)
        assert values.eigenvectors is None
        assert np.abs(values.eigenvalues - dec.eigenvalues).max() <= 1e-12 * scale
        w = eig_hermitian(M.real, vectors=False).eigenvalues
        assert w.dtype == np.float64
        assert np.abs(w - eig_hermitian(M.real).eigenvalues).max() <= 1e-12 * scale


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        require_hermitian(np.ones((2, 3)))


def test_jacobi_matches_lapack(rng):
    for dim in (1, 2, 5, 12):
        M = random_hermitian(rng, dim)
        w_j, V_j = jacobi_eigh(M)
        w_l = np.linalg.eigvalsh(M)
        assert np.allclose(np.sort(w_j), w_l, atol=1e-10 * max(1, np.abs(w_l).max()))
        assert np.abs(V_j.conj().T @ V_j - np.eye(dim)).max() <= 1e-10
        assert np.abs((V_j * w_j) @ V_j.conj().T - M).max() <= 1e-9


def test_schatten_examples():
    M = np.diag([3.0, 4.0])
    assert schatten_norm(M, 2) == pytest.approx(5.0, abs=1e-12)
    assert schatten_norm(M, math.inf) == pytest.approx(4.0, abs=1e-12)
    assert schatten_norm(np.eye(4), 4) == pytest.approx(4 ** 0.25, abs=1e-12)
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            schatten_norm(M, bad)


def test_schatten_monotone_in_p(rng):
    for _ in range(5):
        M = random_hermitian(rng, 8)
        values = [schatten_norm(M, p) for p in (1.5, 2, 3, 6, 20, math.inf)]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))


def test_truncation_count_proof_choice():
    # exact integer k with k < (tr/eps)^(p/(p-1)) <= k+1
    assert truncation_count(10.0, 1.0, 2.0) == 99     # (10)^2 = 100 -> k = 99
    assert truncation_count(10.0, 5.0, 2.0) == 3      # 4 -> 3
    assert truncation_count(10.0, 10.0, 2.0) == 0
    assert truncation_count(10.0, 20.0, 2.0) == 0
    assert truncation_count(0.0, 1.0, 2.0) == 0
    # huge exponents stay finite
    assert truncation_count(2.0, 1.0, 1.0 + 1e-9) > 10 ** 18


def test_truncate_rank_spec_example():
    M = np.diag([4.0, 1.0, 0.5])
    Mp = truncate_rank(M, 1.0, math.inf)
    assert np.allclose(Mp, np.diag([4.0, 0.0, 0.0]))
    assert schatten_norm(M - Mp, math.inf) == pytest.approx(1.0, abs=1e-12)
    assert numerical_rank(Mp) == 1 and 1 < np.trace(M) / 1.0


def test_truncate_rank_single_eigenvalue():
    M = np.diag([2.0, 0.0])
    for p in (2.0, 4.0, math.inf):
        Mp = truncate_rank(M, 0.5, p)
        assert schatten_norm(M - Mp, p) <= 0.5 + 1e-12
    # eps above the trace allows full truncation
    assert not truncate_rank(M, 3.0, math.inf).any()


def test_truncate_rank_random_bounds(rng):
    for _ in range(10):
        M = random_psd(rng, 20)
        tr = float(np.trace(M).real)
        Mp = truncate_rank(M, 0.1 * tr, 2.0)
        assert numerical_rank(Mp, 1e-13) < 100  # (tr/eps)^2
        assert schatten_norm(M - Mp, 2.0) <= 0.1 * tr * (1 + 1e-12)


def test_truncate_rank_rejects():
    with pytest.raises(ValueError):
        truncate_rank(np.eye(2), 0.0, 2.0)
    with pytest.raises(ValueError):
        truncate_rank(np.eye(2), 1.0, 1.0)
    with pytest.raises(NotPsdError):
        truncate_rank(np.diag([1.0, -1.0]), 0.5, 2.0)


def test_clipped_spectrum_noise_tolerance():
    M = np.diag([1.0, -1e-9])
    dec = clipped_spectrum(M)
    assert dec.eigenvalues.min() == 0.0
    with pytest.raises(NotPsdError):
        clipped_spectrum(np.diag([1.0, -1e-3]))


def test_eckart_young_consistency(rng):
    # truncation error equals the dropped tail exactly, p = 2 and inf
    for _ in range(5):
        M = random_psd(rng, 15)
        w = eig_hermitian(M).eigenvalues
        tr = float(w.sum())
        for p, eps in ((2.0, 0.2 * tr), (math.inf, 0.05 * tr)):
            Mp = truncate_rank(M, eps, p)
            k = numerical_rank(Mp, 1e-13)
            tail = w[k:]
            expected = tail.max(initial=0.0) if math.isinf(p) else math.sqrt((tail ** 2).sum())
            assert schatten_norm(M - Mp, p) == pytest.approx(expected, abs=1e-10 * max(1, tr))


def test_weyl_trace_bound(rng):
    for _ in range(10):
        w = eig_hermitian(random_psd(rng, 12)).eigenvalues
        tr = w.sum()
        for k in range(len(w)):
            assert w[k] <= tr / (k + 1) + 1e-12


def test_low_rank_factor_examples(rng):
    vecs = low_rank_factor(np.eye(3))
    assert len(vecs) == 3
    assert np.allclose(sum(np.outer(c, c.conj()) for c in vecs), np.eye(3))
    vecs = low_rank_factor(np.diag([4.0, 0.0]))
    assert len(vecs) == 1
    assert np.allclose(vecs[0], [2.0, 0.0])
    A = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    M = A @ A.conj().T
    vecs = low_rank_factor(M)
    assert len(vecs) == 2
    scale = max(1.0, np.linalg.norm(M, 2))
    assert np.linalg.norm(sum(np.outer(c, c.conj()) for c in vecs) - M, 2) <= 1e-8 * scale


def test_low_rank_factor_reassembles_gram_map(rng):
    basis = square_basis(COMMUTATIVE, 3, 2)
    M = random_psd(rng, basis.size, rank=3)
    total = sum(np.outer(c, c.conj()) for c in low_rank_factor(M))
    assert (gram_map(total, basis) - gram_map(M, basis)).coeff_two_norm() <= 1e-8


def with_positives(rng, s, positives):
    """A real symmetric s x s matrix with this many eigenvalues in [1, 2], the rest in [-2, -1]."""
    Q = np.linalg.qr(rng.standard_normal((s, s)))[0]
    w = np.concatenate([-rng.uniform(1, 2, s - positives), rng.uniform(1, 2, positives)])
    M = (Q * w) @ Q.T
    return (M + M.T) / 2


def eigh_projection(M):
    w, V = np.linalg.eigh(M)
    return (V * np.maximum(w, 0.0)) @ V.conj().T


def projected(M, hint):
    """psd_part's output, written over a NaN-filled array, and the rank."""
    out = np.full(M.shape, np.nan)
    rank = psd_part(M, hint, out)
    return out, rank


def test_psd_part(rng, monkeypatch):
    # every route gives the projection and its rank at every rank: the hint
    # changes the cost only (0 and s try a Cholesky factorization first, 1
    # computes only the positive eigenpairs, s - 1 all of them)
    for s in (8, 13):
        hints = (0, 1, s - 1, s)
        for positives in sorted({0, 1, s // 4, s // 2, s}):
            M = with_positives(rng, s, positives)
            for hint in hints:
                P, rank = projected(M, hint)
                assert P.dtype == np.float64 and rank == positives
                assert np.abs(P - eigh_projection(M)).max() <= 1e-12 * np.abs(M).max()
                assert np.abs(P - P.T).max() <= 1e-12
        # off symmetry in the upper triangle, the eigendecompositions project
        # the symmetric completion of the lower one
        M = with_positives(rng, s, 2)
        noisy = M + np.triu(1e-3 * rng.standard_normal((s, s)), 1)
        lower = np.tril(noisy) + np.tril(noisy, -1).T
        for hint in hints:
            P, _ = projected(noisy, hint)
            assert np.abs(P - eigh_projection(lower)).max() <= 1e-12 * np.abs(M).max()
    # the Cholesky routes: a definite block in one factorization, written
    # exactly (zeros, or the block itself); an indefinite one falls through
    # to the eigendecomposition
    calls = []

    def recorded(name):
        original = getattr(scipy.linalg.lapack, name)

        def driver(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return driver

    for name in ("dsyevr", "dsyevd"):
        monkeypatch.setattr(scipy.linalg.lapack, name, recorded(name))
    s = 9
    for positives, hint, route in ((0, 0, []), (1, 0, ["dsyevr"]),
                                   (s, s, []), (s - 1, s, ["dsyevd"])):
        M = with_positives(rng, s, positives)
        calls.clear()
        P, rank = projected(M, hint)
        assert calls == route and rank == positives
        if not route:
            assert np.array_equal(P, np.zeros((s, s)) if hint == 0 else M)
        assert np.abs(P - eigh_projection(M)).max() <= 1e-12 * np.abs(M).max()
    # a LAPACK failure is an error, not a projection
    M = with_positives(rng, 6, 2)
    monkeypatch.setattr(scipy.linalg.lapack, "dsyevd",
                        lambda a, **kw: (np.zeros(6), np.eye(6), 3))
    monkeypatch.setattr(scipy.linalg.lapack, "dsyevr",
                        lambda a, **kw: (np.zeros(6), np.eye(6), 0, None, 7))
    for hint in (0, 1, 5, 6):
        with pytest.raises(NonConvergenceError, match="info="):
            projected(M, hint)


def test_matrix_json_roundtrip(rng):
    M = random_hermitian(rng, 5)
    M2 = hermitian_from_dict(hermitian_to_dict(M))
    assert np.allclose(M, M2, atol=0)
