"""Hermitian eigendecomposition, Schatten norms, PSD checks, spectral truncation.

One truncation rule, here and in `approx`: `count_above(schatten_tails(w, p),
eps, strict_cap(square_count_bound(tr, eps, p)))` leading eigenpairs are kept.

Eigendecompositions go through LAPACK, via numpy or, for the solver, directly
through scipy: here, in `psd_part` (`dpotrf`, `dsyevr`, `dsyevd`),
`eig_hermitian(vectors=False)` (`dsyevd`, `zheevd`) and `pencil_top`
(`dsygvd`), only.  Each reads its routine from `_lapack`, which at the first
call loads scipy's compiled LAPACK module by itself, without the
scipy.linalg package, so a process that never solves a commutative SDP loads
neither, and one that does adds 2.2 MB of memory where the package adds 26.
Nothing forms an SVD, rank reduction included.  The tests check eigh against
a cyclic Jacobi solver.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

# negative eigenvalues above this (relative) magnitude mean genuine indefiniteness;
# below it they are solver noise and get clipped to zero
PSD_NOISE_REL = 1e-6
RANK_CUTOFF_REL = 1e-9      # the one rank cut (numerical_rank, rank_reduce, witness squares)
HERMITIAN_ENTRY_TOL = 1e-10     # ||M - M*||_max relative to max(1, ||M||_max)
# below this 2-norm, or where it overflows, `two_norm` scales by the largest entry first
_UNDERFLOW = 1e-150
_LAPACK = None        # scipy's compiled LAPACK module once `_lapack` has loaded it


def _flapack_path() -> str:
    """`<scipy>/linalg/_flapack<suffix>` for the first extension suffix that
    exists, found without executing scipy; FileNotFoundError if none does."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise FileNotFoundError("scipy is not installed as a package")
    stem = os.path.join(os.path.dirname(spec.origin), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            return stem + suffix
    raise FileNotFoundError(f"no compiled LAPACK module at {stem}")


def _lapack():
    """scipy's compiled LAPACK module, `scipy.linalg._flapack`, loaded by
    itself at the first call and kept.  Its functions are the objects that
    `scipy.linalg.lapack` exposes, whichever is loaded first, but loading the
    one extension took 6 ms and 2.2 MB where importing scipy.linalg took
    0.23 s and 26 MB (medians of 6 processes, 2-vCPU x86-64 VM, scipy
    1.17.1).  Where the file is missing or fails to load, scipy.linalg is
    imported and its `lapack` returned.  Callers read its functions as
    attributes at call time, so a monkeypatch of them is seen."""
    global _LAPACK
    if _LAPACK is None:
        try:
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack",
                                                          _flapack_path())
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (ImportError, OSError):
            import scipy.linalg
            module = scipy.linalg.lapack
        _LAPACK = module
    return _LAPACK


class NotPsdError(ValueError):
    """Matrix is materially not positive semidefinite."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NonConvergenceError(RuntimeError):
    """Eigensolver failed to converge within its iteration cap."""


def require_hermitian(M: np.ndarray) -> np.ndarray:
    """Validate that M is Hermitian within tolerance and return (M + M*)/2.  The
    floor of 1 stays (inputs are `gram.hermitian_read`'s): a difference such as
    `schatten_norm(M - Mp)`'s is asymmetric relative to M, not to M - Mp."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    if float(np.abs(M - M.conj().T).max(initial=0.0)) > HERMITIAN_ENTRY_TOL * scale:
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
        lapack = _lapack()
        evd = lapack.zheevd if M.dtype.kind == "c" else lapack.dsyevd
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


def two_norm(b: np.ndarray) -> float:
    """||b||_2; where its squares overflow or underflow, taken of b scaled by
    max |b|.  ValueError if b is not finite: arithmetic on the input overflowed."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(b))
    if math.isfinite(norm) and norm >= _UNDERFLOW:
        return norm
    top = float(np.abs(b).max(initial=0.0))
    if not math.isfinite(top):
        raise ValueError(f"the coefficients are too large: one is {top}")
    return top * float(np.linalg.norm(b / top)) if top > 0 else 0.0


def schatten_norm(M: np.ndarray, p: float) -> float:
    """(sum |lambda_i|^p)^(1/p), max at p = inf, for Hermitian M: the first tail."""
    if not (p > 1):
        raise ValueError(f"Schatten p-norm requires p > 1, got {p}")
    a = np.sort(np.abs(eig_hermitian(M).eigenvalues))[::-1]
    return float(schatten_tails(a, p)[0]) if len(a) else 0.0


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


def strict_cap(bound: float) -> int | float:
    """Largest integer strictly below `bound` (values snapped to nearby integers).

    "fewer than bound" bounds become this integer cap; -1 means even zero
    squares are not covered by the bound (only possible for bound <= 0).
    A bound past the float range caps nothing (callers that certify refuse it).
    """
    if math.isinf(bound):
        return bound
    snapped = round(bound)
    if abs(bound - snapped) <= 1e-9 * max(1.0, abs(snapped)):
        bound = float(snapped)
    return math.ceil(bound) - 1


def square_count_bound(trace: float, eps: float, p: float) -> float:
    """(trace/eps)^(p/(p-1)), trace/eps at p = inf, inf past the float range:
    the truncation rule keeps fewer eigenpairs than this.  At p = 2 it is the
    one product ratio * ratio, which `ratio ** 2.0` can miss in the last bit."""
    ratio = trace / eps
    if math.isinf(p):
        return ratio
    if p == 2:
        return ratio * ratio
    try:
        return ratio ** (p / (p - 1.0))
    except OverflowError:
        return math.inf


def schatten_tails(w: np.ndarray, p: float) -> np.ndarray:
    """||w[k:]||_p for every k, of descending w >= 0; w itself at p = inf.
    At p = 2 the squares are of w scaled exactly by a power of two near w[0],
    the bits `approximate`'s certificates rest on, unless a nonzero w[k] below
    2^-500 w[0] may underflow.  Else tail k is m ||(w[k], tail k+1) / m||_p,
    m the larger: no power overflows, one is 1, and tail k >= w[k]."""
    if math.isinf(p) or not len(w) or not w[0] > 0:
        return w
    if p == 2 and w[np.count_nonzero(w) - 1] >= 2.0 ** -500 * w[0]:
        e = math.frexp(w[0])[1]
        return np.ldexp(np.sqrt(np.cumsum((np.ldexp(w, -e) ** 2)[::-1])[::-1]), e)
    tails, t = np.empty(len(w)), 0.0
    for k in range(len(w) - 1, -1, -1):
        m = max(float(w[k]), t)
        t = m * ((w[k] / m) ** p + (t / m) ** p) ** (1.0 / p) if m else 0.0
        tails[k] = t
    return tails


def count_above(values: np.ndarray, eps: float, cap: int) -> int:
    """Leading entries of the descending `values` to keep at threshold eps.

    On Schatten tails, the fewest eigenpairs whose dropped tail fits.
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
    """Least-rank spectral truncation M' with ||M - M'||_p <= eps.

    Keeps the fewest leading eigenpairs whose dropped Schatten-p tail fits
    in eps, a PSD result of rank strictly below (tr(M)/eps)^(p/(p-1)) (resp.
    tr(M)/eps); a bound past the float range caps nothing.
    """
    require_eps(eps)
    if not (p > 1):
        raise ValueError(f"requires p > 1, got {p}")
    dec = clipped_spectrum(M)
    w = dec.eigenvalues
    cap = strict_cap(square_count_bound(float(w.sum()), eps, p))
    k = count_above(schatten_tails(w, p), eps, cap)
    return dec.matrix_from(np.arange(len(w)) < k)


def numerical_rank(M: np.ndarray, cutoff_rel: float = RANK_CUTOFF_REL) -> int:
    """Eigenvalue count above cutoff_rel * lambda_max."""
    w = eig_hermitian(M).eigenvalues
    if len(w) == 0 or w[0] <= 0:
        return 0
    return int((w > cutoff_rel * w[0]).sum())


def psd_part(M: np.ndarray, hint: int, out: np.ndarray) -> int:
    """Write the projection of a real symmetric M onto the PSD cone into
    `out` (an s x s array that M does not overlap) and return its rank.

    The solver's hot path: M must be symmetric already (the solver's
    iterates are by construction), so unlike `eig_hermitian` it is neither
    validated nor symmetrized.  LAPACK is called directly and every driver
    reads the lower triangle.  `hint` is the rank the caller expects, and
    picks the route:
    - hint 0: a Cholesky factorization (`dpotrf`) of -M; if it succeeds, M
      is negative definite and the projection is 0;
    - hint s: a Cholesky factorization of M; if it succeeds, M is positive
      definite and is its own projection, written as it is;
    - otherwise, or if that factorization fails: with hint <= s / 4 only the
      positive eigenpairs (`dsyevr` on (0, inf], which for a partial
      spectrum runs bisection and inverse iteration after the tridiagonal
      reduction), else all of them (`dsyevd`).
    Every route gives the projection up to rounding; the hint changes the
    cost only.  Measured per call, `dsyevr` wins while at most about a
    quarter of the eigenvalues are positive and loses above that, and a
    Cholesky factorization takes 4-17% of the time of `dsyevd` at sizes
    6..45.
    """
    lapack = _lapack()
    s = len(M)
    if hint in (0, s):
        if lapack.dpotrf(-M if hint == 0 else M, lower=1)[1] == 0:
            out[...] = 0.0 if hint == 0 else M
            return hint
    if 4 * hint <= s:
        w, V, last, _, info = lapack.dsyevr(M, range="V", lower=1, vl=0.0, vu=math.inf)
        first = 0
    else:
        w, V, info = lapack.dsyevd(M, lower=1)
        first, last = int(np.searchsorted(w, 0.0, side="right")), len(w)   # w ascends
    if info != 0:
        raise NonConvergenceError(f"LAPACK eigensolver failed with info={info}")
    w, V = w[first:last], V[:, first:last]
    np.matmul(V * w, V.T, out=out)
    return last - first


def pencil_top(A: np.ndarray, B: np.ndarray) -> float:
    """The top eigenvalue of the symmetric pencil (A, B), B positive definite;
    LinAlgError when LAPACK cannot factor B."""
    w, _, info = _lapack().dsygvd(A, B, jobz="N", uplo="L")
    if info:
        raise np.linalg.LinAlgError(f"dsygvd failed with info {info}")
    return w[-1]


# -- shared JSON coordinate schema for Hermitian matrices ----------------------

def hermitian_to_dict(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    entries = [[i, j, v.real, v.imag] for i in range(M.shape[0])
               for j in range(i, M.shape[1]) if (v := M[i, j]) != 0]
    return {"dim": int(M.shape[0]), "hermitian": True, "entries": entries}
