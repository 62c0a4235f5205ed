"""Hermitian eigendecomposition, Schatten norms, PSD checks, spectral truncation.

Eigendecompositions go through LAPACK, via numpy or, for the solver, directly
through scipy: here, in `psd_part`, `eig_hermitian(vectors=False)` and
`pencil_top`, only.  The tests check eigh against a cyclic Jacobi solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy.linalg is loaded by sdp and reached as scipy.linalg.lapack at call
# time: importing it here, ahead of the rest of the package, made importing
# the package about 35 ms (7%) slower on a 2-vCPU VM
import scipy

# negative eigenvalues above this (relative) magnitude mean genuine indefiniteness;
# below it they are solver noise and get clipped to zero
PSD_NOISE_REL = 1e-6
RANK_CUTOFF_REL = 1e-10
HERMITIAN_TOL = 1e-10       # ||M - M*||_max relative to max(1, ||M||_max)


class NotPsdError(ValueError):
    """Matrix is materially not positive semidefinite."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NonConvergenceError(RuntimeError):
    """Eigensolver failed to converge within its iteration cap."""


def require_hermitian(M: np.ndarray) -> np.ndarray:
    """Validate that M is Hermitian within tolerance and return (M + M*)/2."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    if float(np.abs(M - M.conj().T).max(initial=0.0)) > HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (M + M.conj().T) / 2.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with orthonormal eigenvector columns
    (None when only the eigenvalues were computed)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T

    def matrix_from(self, keep: np.ndarray) -> np.ndarray:
        """Reassemble keeping only the flagged eigenvalues."""
        lam = np.where(keep, self.eigenvalues, 0.0)
        V = self.eigenvectors
        return (V * lam) @ V.conj().T


def eig_hermitian(M: np.ndarray, vectors: bool = True) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Ties keep LAPACK's eigenvector order (stable sort), so truncation is
    deterministic.  With vectors=False (the solver's checks) only eigenvalues
    are computed and, as in `psd_part`, M must be Hermitian already: it is
    not validated, real M stays real, and LAPACK reads its lower triangle.
    """
    if not vectors:
        evd = scipy.linalg.lapack.zheevd if M.dtype.kind == "c" else scipy.linalg.lapack.dsyevd
        w, _, info = evd(M, compute_v=0, lower=1)
        if info != 0:
            raise NonConvergenceError(f"LAPACK eigensolver failed with info={info}")
        return SpectralDecomposition(w[::-1], None)
    H = require_hermitian(M)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigh did not converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return SpectralDecomposition(w[order].astype(float), np.ascontiguousarray(V[:, order]))


def schatten_norm(M: np.ndarray, p: float) -> float:
    """(sum |lambda_i|^p)^(1/p) for Hermitian M; max |lambda_i| at p = inf."""
    if not (p > 1):
        raise ValueError(f"Schatten p-norm requires p > 1, got {p}")
    w = eig_hermitian(M).eigenvalues
    a = np.abs(w)
    if math.isinf(p):
        return float(a.max(initial=0.0))
    if not a.any():
        return 0.0
    # normalize by the top eigenvalue to dodge overflow for large p
    amax = a.max()
    return float(amax * ((a / amax) ** p).sum() ** (1.0 / p))


def clipped_spectrum(M: np.ndarray) -> SpectralDecomposition:
    """Spectrum of a numerically-PSD matrix with noise-level negatives clipped.

    Raises NotPsdError when an eigenvalue is below -PSD_NOISE_REL * ||M||_inf.
    """
    dec = eig_hermitian(M)
    w = dec.eigenvalues
    scale = float(np.abs(w).max(initial=0.0))
    lo = float(w.min(initial=0.0))
    if lo < -PSD_NOISE_REL * max(scale, 1e-300):
        raise NotPsdError(
            f"matrix has eigenvalue {lo:.3e}, materially indefinite", lo)
    return SpectralDecomposition(np.maximum(w, 0.0), dec.eigenvectors)


def require_eps(eps: float) -> None:
    """Refuse an eps that is not a finite number > 0, naming it."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a finite number > 0, got {eps!r}")


def strict_cap(bound: float) -> int:
    """Largest integer strictly below `bound` (values snapped to nearby integers).

    "fewer than bound" bounds become this integer cap; -1 means even zero
    squares are not covered by the bound (only possible for bound <= 0).
    """
    snapped = round(bound)
    if abs(bound - snapped) <= 1e-9 * max(1.0, abs(snapped)):
        bound = float(snapped)
    return math.ceil(bound) - 1


def truncation_count(trace: float, eps: float, p: float) -> int:
    """Number of leading eigenvalues the rank-reduction proof keeps (p < inf).

    The exact integer k with k < (trace/eps)^(p/(p-1)) <= k + 1, computed in
    the log domain; values within 1e-9 of an integer are snapped before the
    strict comparison so float fuzz never violates the strict rank bound.
    """
    require_eps(eps)
    if not (p > 1) or math.isinf(p):
        raise ValueError("truncation_count applies to 1 < p < inf")
    if trace <= 0:
        return 0
    log_x = (p / (p - 1.0)) * (math.log(trace) - math.log(eps))
    if log_x > 100:          # far beyond any representable dimension
        return 2 ** 63 - 1
    return max(0, strict_cap(math.exp(log_x)))


def count_above(values: np.ndarray, eps: float, cap: int) -> int:
    """Leading entries of the descending `values` to keep at threshold eps.

    Entries strictly above eps, with a 1e-12 relative guard: eigenvalues
    sitting exactly on the threshold (e.g. lambda_1 = tr for a rank-one
    matrix at eps = tr) must not survive on account of rounding, since
    keeping them breaks the strict rank bound k < tr/eps.  But an entry the
    guard drops that is still above eps would be an error above eps, so
    such entries are kept after all while the count stays within `cap`, the
    largest count the rank bound allows.
    """
    k = int((values > eps * (1.0 + 1e-12)).sum())
    while k < min(cap, len(values)) and values[k] > eps:
        k += 1
    return k


def truncate_rank(M: np.ndarray, eps: float, p: float) -> np.ndarray:
    """Best-rank spectral truncation M' with ||M - M'||_p <= eps.

    Keeps the proof's exact eigenvalue count: for p < inf the largest k with
    k + 1 >= (tr(M)/eps)^(p/(p-1)); for p = inf all eigenvalues above eps.
    The result is PSD and its rank is strictly below (tr(M)/eps)^(p/(p-1))
    (resp. tr(M)/eps).
    """
    require_eps(eps)
    if not (p > 1):
        raise ValueError(f"requires p > 1, got {p}")
    dec = clipped_spectrum(M)
    w = dec.eigenvalues
    if math.isinf(p):
        k = count_above(w, eps, strict_cap(float(w.sum()) / eps))
    else:
        k = truncation_count(float(w.sum()), eps, p)
    keep = np.zeros(len(w), dtype=bool)
    keep[:min(k, len(w))] = True
    return dec.matrix_from(keep)


def low_rank_factor(M: np.ndarray) -> list[np.ndarray]:
    """Vectors c_i = sqrt(lambda_i) v_i with sum c_i c_i* = M (numerical rank many)."""
    dec = clipped_spectrum(M)
    w, V = dec.eigenvalues, dec.eigenvectors
    if len(w) == 0 or w[0] <= 0.0:
        return []
    cut = RANK_CUTOFF_REL * w[0]
    return [np.sqrt(w[i]) * V[:, i] for i in range(len(w)) if w[i] > cut]


def numerical_rank(M: np.ndarray, cutoff_rel: float = 1e-9) -> int:
    """Eigenvalue count above cutoff_rel * lambda_max."""
    w = eig_hermitian(M).eigenvalues
    if len(w) == 0 or w[0] <= 0:
        return 0
    return int((w > cutoff_rel * w[0]).sum())


def psd_part(M: np.ndarray, low_rank: bool = False) -> tuple[np.ndarray, int]:
    """Projection of a real symmetric M onto the PSD cone, and its rank.

    The solver's hot path: M must be symmetric already (the solver's
    iterates are by construction), so unlike `eig_hermitian` it is neither
    validated nor symmetrized.  LAPACK is called directly and both drivers
    read the lower triangle.  With low_rank it computes only the positive
    eigenpairs (`dsyevr` on (0, inf], which for a partial spectrum runs
    bisection and inverse iteration after the tridiagonal reduction);
    otherwise all of them (`dsyevd`).  Both give the same projection up to
    rounding.  Measured per call, `dsyevr` wins while at most about a
    quarter of the eigenvalues are positive and loses above that.
    """
    lapack = scipy.linalg.lapack
    if low_rank:
        w, V, last, _, info = lapack.dsyevr(M, range="V", lower=1, vl=0.0, vu=math.inf)
        first = 0
    else:
        w, V, info = lapack.dsyevd(M, lower=1)
        first, last = int(np.searchsorted(w, 0.0, side="right")), len(w)   # w ascends
    if info != 0:
        raise NonConvergenceError(f"LAPACK eigensolver failed with info={info}")
    w, V = w[first:last], V[:, first:last]
    return (V * w) @ V.T, last - first


def pencil_top(A: np.ndarray, B: np.ndarray) -> float:
    """The top eigenvalue of the symmetric pencil (A, B), B positive definite;
    LinAlgError when LAPACK cannot factor B."""
    w, _, info = scipy.linalg.lapack.dsygvd(A, B, jobz="N", uplo="L")
    if info:
        raise np.linalg.LinAlgError(f"dsygvd failed with info {info}")
    return w[-1]


# -- shared JSON coordinate schema for Hermitian matrices ----------------------

def hermitian_to_dict(M: np.ndarray, drop_tol: float = 0.0) -> dict:
    M = np.asarray(M, dtype=complex)
    entries = []
    for i in range(M.shape[0]):
        for j in range(i, M.shape[1]):
            v = M[i, j]
            if abs(v) > drop_tol or (i == j and v != 0):
                entries.append([i, j, v.real, v.imag])
    return {"dim": int(M.shape[0]), "hermitian": True, "entries": entries}
