import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_hermitian, random_psd
from oracles import hermitian_from_dict, jacobi_eigh
from sos_approx import linalg
from sos_approx.gram import square_basis
from sos_approx.linalg import (
    NonConvergenceError,
    NotPsdError,
    clipped_spectrum,
    eig_hermitian,
    hermitian_to_dict,
    numerical_rank,
    psd_part,
    require_hermitian,
    schatten_norm,
    schatten_tails,
    truncate_rank,
)
from sos_approx.poly import COMMUTATIVE, sum_of_monomial_squares
from sos_approx.sdp import sos_norm


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


def _scaled_norm(v, p):
    # the p-norm of v taken of v / max(v), whose largest power is 1
    m = float(np.max(v, initial=0.0))
    return m * float(np.linalg.norm(v / m, p)) if m else 0.0


def test_schatten_tails_where_powers_underflow(rng):
    assert schatten_norm(np.eye(4), 1100) == pytest.approx(4 ** (1 / 1100), rel=1e-14)
    for spread in (1, 30, 300):
        w = np.sort(10.0 ** rng.uniform(-spread, spread, 40))[::-1]
        w[-5:] = 0.0
        for p in (1.5, 2.0, 4.0, 20.0, 1100.0):
            tails = schatten_tails(w, p)
            ref = [_scaled_norm(w[k:], p) for k in range(len(w))]
            assert np.allclose(tails, ref, rtol=1e-12, atol=0.0), (spread, p)
    # each kept count is the least whose dropped tail fits, where the scaled
    # powers of the dropped eigenvalues underflow
    for w, eps, p in [(np.ones(2), 0.5, 1100.0), (np.array([1.0, 1e-17]), 1e-18, 20.0),
                      (np.array([1.0] + [1e-17] * 100), 1.1e-17, 20.0),
                      (np.array([1.0] + [1e-170] * 100), 2e-170, 2.0)]:
        kept = np.abs(np.diag(truncate_rank(np.diag(w), eps, p)))
        k = int(np.count_nonzero(kept))
        assert np.array_equal(kept[:k], w[:k]), (p, eps)
        assert _scaled_norm(w[k:], p) <= eps, (p, eps, k)
        assert k == 0 or _scaled_norm(w[k - 1:], p) > eps, (p, eps, k)


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


def test_truncate_rank_least_rank(rng):
    # the fewest leading eigenpairs whose dropped Schatten-p tail fits in eps,
    # never more than the proof's count, the largest k < (tr/eps)^(p/(p-1))
    # (at p = inf, the eigenvalues above eps)
    for _ in range(20):
        dim = int(rng.integers(2, 31))
        M = random_psd(rng, dim, int(rng.integers(1, dim + 1)))
        w = np.maximum(eig_hermitian(M).eigenvalues, 0.0)
        tr = float(w.sum())
        for p in (2.0, 4.0, math.inf):
            def tail(k):
                return float(np.linalg.norm(w[k:], p)) if k < dim else 0.0
            for frac in (0.01, 0.1, 1.0):
                eps = frac * tr
                k = numerical_rank(truncate_rank(M, eps, p), 1e-12)
                assert tail(k) <= eps * (1 + 1e-10), (dim, p, frac, k)
                assert k == 0 or tail(k - 1) > eps, (dim, p, frac, k)
                if math.isinf(p):
                    proof = int((w > eps).sum())
                else:
                    proof = math.ceil((tr / eps) ** (p / (p - 1)) - 1e-9) - 1
                assert k <= proof, (dim, p, frac, k, proof)


def test_truncate_rank_past_the_float_range():
    # a square-count bound past the float range caps nothing: at p = inf
    # tr/eps overflows, near p = 1 the exponent p/(p-1) is about 1e9
    M = np.diag([1e300, 1e299])
    for p in (math.inf, 2.0):
        assert np.allclose(truncate_rank(M, 1e-300, p), M, rtol=1e-12, atol=0.0)
    M = np.diag([2.0, 1.0])
    Mp = truncate_rank(M, 1.5, 1.0 + 1e-9)
    assert np.allclose(Mp, np.diag([2.0, 0.0]), atol=1e-12)
    assert schatten_norm(M - Mp, 1.0 + 1e-9) <= 1.5


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
    lapack = linalg._lapack()

    def recorded(name):
        original = getattr(lapack, name)

        def driver(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return driver

    for name in ("dsyevr", "dsyevd"):
        monkeypatch.setattr(lapack, name, recorded(name))
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
    monkeypatch.setattr(lapack, "dsyevd",
                        lambda a, **kw: (np.zeros(6), np.eye(6), 3))
    monkeypatch.setattr(lapack, "dsyevr",
                        lambda a, **kw: (np.zeros(6), np.eye(6), 0, None, 7))
    for hint in (0, 1, 5, 6):
        with pytest.raises(NonConvergenceError, match="info="):
            projected(M, hint)


# the five LAPACK routines the library calls, all through `linalg._lapack`
ROUTINES = ("dpotrf", "dsyevr", "dsyevd", "zheevd", "dsygvd")

# in a fresh interpreter, the gateway and the scipy.linalg package in the order of
# argv[1]; its functions must be scipy.linalg.lapack's, whichever loads first
_IDENTITY = """
import json, sys
from sos_approx import linalg
if sys.argv[1] == "package first":
    import scipy.linalg
lapack = linalg._lapack()
alone = "scipy.linalg" not in sys.modules
import scipy.linalg
print(json.dumps({"module": lapack.__name__, "alone": alone,
                  "same": [getattr(lapack, name) is getattr(scipy.linalg.lapack, name)
                           for name in json.loads(sys.argv[2])]}))
"""

# in a fresh interpreter where the compiled module cannot be located: the gateway
# falls back to scipy.linalg.lapack, and the figure rows d=1..6 are solved through it
_FALLBACK = """
import json
from sos_approx import linalg
from sos_approx.gram import square_basis
from sos_approx.poly import COMMUTATIVE, sum_of_monomial_squares
from sos_approx.sdp import sos_norm


def nowhere():
    raise FileNotFoundError("no compiled LAPACK module")


linalg._flapack_path = nowhere
lapack = linalg._lapack()
import scipy.linalg
rows = [sos_norm(sum_of_monomial_squares(3, d), square_basis(COMMUTATIVE, 3, d))
        for d in range(1, 7)]
print(json.dumps({"fallback": lapack is scipy.linalg.lapack,
                  "rows": [[value.hex(), sol.iterations] for value, sol in rows]}))
"""


def run_fresh(script, *args):
    """The JSON that `script` prints, run in a fresh interpreter on the library's sources."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linalg.__file__)))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=300, env=env, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("order", ["gateway first", "package first"])
def test_lapack_gateway_shares_scipy_functions(order):
    result = run_fresh(_IDENTITY, order, json.dumps(ROUTINES))
    assert result["module"] == "scipy.linalg._flapack"
    assert result["same"] == [True] * len(ROUTINES)
    # loaded first, the gateway imports no package
    assert result["alone"] is (order == "gateway first")


def test_lapack_gateway_falls_back_to_scipy_linalg():
    result = run_fresh(_FALLBACK)
    assert result["fallback"]
    assert linalg._lapack().__name__ == "scipy.linalg._flapack"
    rows = [sos_norm(sum_of_monomial_squares(3, d), square_basis(COMMUTATIVE, 3, d))
            for d in range(1, 7)]
    assert result["rows"] == [[value.hex(), sol.iterations] for value, sol in rows]


def test_matrix_json_roundtrip(rng):
    M = random_hermitian(rng, 5)
    M2 = hermitian_from_dict(hermitian_to_dict(M))
    assert np.allclose(M, M2, atol=0)
