"""Trace-minimization SDP for the sos-norm, duality, and rank reduction.

The solver is ADMM, a first-order operator splitting: each step projects
onto the affine subspace {tr(A_l M) = lambda_l} (exactly, through the cached
constraint Gram system) and onto the PSD cone (one Cholesky factorization
or LAPACK eigendecomposition per block).  It runs on
`GramConstraints.block_system` of a commutative input: every A_l is real,
so the iterates are real symmetric, and they are block-diagonal over the
sign-symmetry classes of the basis (Gatermann & Parrilo 2004).  When swaps
of variables that fix the input permute the blocks, the cone projection
keeps the iterates invariant under them and decomposes one block per orbit.
Results are embedded back: the full D x D matrix, and duals over all k
equations.  Free inputs, whose fiber is one matrix, go to `_unique_gram`.

The same loop detects infeasibility: when the fiber misses the cone, the
change in the scaled dual between two checks, at one rho, converges to a
Farkas ray whatever the objective (Banjac, Goulart, Stellato, Boyd 2019).
Every check, and every probe of the opening window, tests it on all blocks
(eigenvalues only), shifted onto the PSD cone along Gaussian moments first
if only its least eigenvalue misses, and returns it once it verifies.
`sos_feasible` runs the loop on the zero objective and `sos_norm` on the
trace, after an opening window on the zero objective (`_trace_min`).

rho starts at ||I|| / ||A+ b||, the trace objective's norm over that of the
fiber's least-norm point (after OSQP, Stellato et al. 2020); the zero
objective's steps never read it.  It is balanced on scale-free residuals
(Wohlberg 2017): the splitting residual relative to the larger iterate norm
against the dual residual relative to the dual norm.  Safeguarded Anderson
acceleration (`_Anderson`) extrapolates the state (Z, U) of the map of
`ANDERSON_STRIDE` steps.  Each convergence check, every `CHECK_EVERY`
steps, is kept in `SdpSolution.trace`.  The LAPACK calls of the cone
projection, the checks and the certificate repair go through `linalg`.
`SolverOptions` holds the stopping rule only and rejects values the loop
cannot run with (non-finite or non-positive tolerances, an iteration cap
below 1) with a ValueError that names the option.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .gram import (BlockSystem, GramConstraints, SquareBasis, build_constraints,
                   hermitian_read, upper_reads)
from .poly import FREE, Polynomial, _json_number

# Residual balancing on scale-free residuals (Wohlberg 2017, arXiv:1704.06209):
# rho doubles or halves when one relative residual exceeds the other by this
# factor.  The raw residuals carry the scales of the iterates and of the dual,
# which differ by orders of magnitude, so only their relative sizes compare.
_RHO_BALANCE = 5.0
_OVER_RELAX = 1.6           # over-relaxed ADMM converges only for 0 < alpha < 2
_TINY = 1e-300
CHECK_EVERY = 25            # steps between convergence checks
# Anderson acceleration (Walker & Ni 2011) of the map T = ANDERSON_STRIDE steps
# on the state (Z, U), from at most ANDERSON_MEMORY differences; see `_Anderson`
ANDERSON_STRIDE = CHECK_EVERY // 5
ANDERSON_MEMORY = 5
_ANDERSON_REG = 1e-10       # Tikhonov weight, relative to the mean squared difference
# margins, relative to the spectral scale of sum y_l A_l, that a Farkas
# certificate must clear on its least eigenvalue and on its value
_CERTIFICATE_PSD_TOL = 1e-8
_CERTIFICATE_VALUE_TOL = 1e-6


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max-iter"


class SolverError(RuntimeError):
    """Solver could not reach a conclusive answer."""

    def __init__(self, message: str, solution: "SdpSolution | None" = None):
        super().__init__(message)
        self.solution = solution


class RankReductionError(RuntimeError):
    """Rank reduction stalled; carries the best feasible matrix found."""

    def __init__(self, message: str, matrix: np.ndarray, achieved_rank: int):
        super().__init__(message)
        self.matrix = matrix
        self.achieved_rank = achieved_rank


@dataclass
class SolverOptions:
    """The solver's stopping rule; all overridable from config/CLI."""

    tol_primal: float = 1e-7        # constraint residual, relative to |targets|
    tol_gap: float = 1e-6           # duality gap, relative to |objective|
    max_iter: int = 50_000

    def __post_init__(self) -> None:
        # booleans, strings, and fractions where an integer is due, are refused
        for name in ("max_iter", "tol_primal", "tol_gap"):
            integer = name == "max_iter"
            value = _json_number(getattr(self, name), f"solver option {name!r}", integer)
            if not (math.isfinite(value) and value > 0):
                what = "an integer >= 1" if integer else "finite and > 0"
                raise ValueError(f"solver option {name!r} must be {what}, got {value!r}")
            setattr(self, name, value)

    def residual_tol(self, bnorm: float) -> float:
        """The constraint residual a solution may keep, for targets of norm bnorm."""
        return self.tol_primal * bnorm

    def converged(self, bnorm: float, pres: float, pval: float, gap: float) -> bool:
        """The stopping rule of every solve; a NaN gap (no objective) is not tested."""
        return pres <= self.residual_tol(bnorm) and (
            math.isnan(gap) or abs(gap) <= self.tol_gap * abs(pval))

    @classmethod
    def from_mapping(cls, data: dict) -> "SolverOptions":
        defaults = {f.name: f.default for f in fields(cls)}
        values = {}
        for key, raw in data.items():
            name = key.replace("-", "_")
            if name not in defaults:
                raise ValueError(f"unknown solver option {key!r}")
            kind = int if isinstance(defaults[name], int) else float
            if isinstance(raw, str):        # the CLI's and the config file's values
                try:
                    raw = kind(raw)
                except ValueError:
                    what = "an integer" if kind is int else "a number"
                    raise ValueError(f"solver option {key!r} must be {what}, got {raw!r}") from None
            values[name] = raw
        return cls(**values)


def parse_config_file(path: str) -> dict[str, str]:
    """Plain key = value lines; # starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


@dataclass
class DualFunctional:
    """A *-linear functional on the product space, given by its values y on a
    Hermitian basis: on the product terms of a monomial basis; on a word
    basis laid out by `gram.upper_reads`, with sum_l y_l A_l its moment matrix."""

    values: np.ndarray
    objective: float            # phi(a) = targets . values
    psd_margin: float           # lambda_min(sum_l values_l A_l); >= 0 for a Farkas certificate


class CheckRecord(NamedTuple):
    """The solver state at one convergence check (every CHECK_EVERY steps)."""

    iteration: int
    primal_residual: float      # ||gram_map(Z) - a||, in input units
    r_split: float              # ||X - Z||, the splitting residual
    s_dual: float               # rho ||Z - Z_prev||, the dual residual
    rho: float                  # penalty used for the steps up to this check
    gap: float                  # primal - dual objective; NaN without an objective
    accelerated: int            # accelerated points kept since the previous check


@dataclass
class SdpSolution:
    matrix: np.ndarray
    objective: float
    dual: np.ndarray
    dual_objective: float
    primal_residual: float
    gap: float
    status: SolveStatus
    iterations: int
    message: str = ""           # why not optimal; "" when optimal ("zero polynomial" for 0)
    certificate: Optional[DualFunctional] = None
    trace: list[CheckRecord] = field(default_factory=list)
    constraints: Optional[GramConstraints] = None   # the commutative system, for rank reduction

    @property
    def feasible(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


def _dual_shifted(system: BlockSystem, targets: np.ndarray,
                  y: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale y so that sum_l y_l A_l <= I holds, then evaluate the bound at targets."""
    if not np.any(y):
        return y, 0.0
    top = max(float(w[0]) for w in system.block_eigenvalues(y))
    if top > 1.0:
        y = y / top
    return y, float(targets @ y)


def _certificate_from_gap(system: BlockSystem, v: np.ndarray) -> Optional[DualFunctional]:
    """Try to turn the affine-to-cone displacement v (<= 0) into a Farkas certificate.

    At the gap the displacement lies in range(A*), giving y with
    sum y_l A_l >= 0 and targets . y < 0; both margins are re-verified
    numerically before the certificate is accepted.  sum y_l A_l is
    block-diagonal, so it is PSD iff each block is; the values are returned
    over all k equations, zero on the dropped ones.

    A candidate that misses only the PSD margin moves first to y + t* y0
    along the Gaussian moments y0 (`BlockSystem.moment_shift`), where t*, the
    top eigenvalue of the pencil (-A*(y), S0) over the blocks, is the least t
    with A*(y) + t S0 PSD; it is dropped unshifted when targets . y0 >= 0 and
    the Weyl bound t* >= -lambda_min(A*(y)) / lambda_max(S0) gives targets . y' >= 0.
    """
    vnorm = float(np.linalg.norm(v))
    if vnorm <= 0:
        return None
    c = system.solve_normal(system.apply(v))
    if float(np.linalg.norm(system.adjoint(c) - v)) > 0.25 * vnorm:
        return None
    y = -c / vnorm
    for repair in (True, False):
        w = np.concatenate(system.block_eigenvalues(y))
        scale = max(float(np.abs(w).max(initial=0.0)), 1e-30)
        value = float(system.targets @ y)
        if not (repair and w.min() < -_CERTIFICATE_PSD_TOL * scale):
            break
        y0, S0, top0 = system.moment_shift
        slope = float(system.targets @ y0)
        if slope >= 0 and value - w.min() / top0 * slope >= 0:
            return None
        try:
            t = max(linalg.pencil_top(B, B0)
                    for B, B0 in zip(system.split(-system.adjoint(y)), S0))
        except np.linalg.LinAlgError:       # an S0 block too ill-conditioned to factor
            return None
        y = y + t * y0
    return _certified(system.lift(y), w, value, system.targets)


def _certified(y: np.ndarray, w: np.ndarray, value: float,
               targets: np.ndarray) -> Optional[DualFunctional]:
    """y if eigenvalues w of sum y_l A_l and targets . y clear the margins, else None."""
    scale = max(float(np.abs(w).max(initial=0.0)), 1e-30)
    if (w.min() < -_CERTIFICATE_PSD_TOL * scale
            or value > -_CERTIFICATE_VALUE_TOL * scale * linalg.two_norm(targets)):
        return None
    return DualFunctional(values=y, objective=value, psd_margin=float(w.min()))


def _infeasible(cert: DualFunctional, dim: int, pres: float, iterations: int,
                trace: list[CheckRecord]) -> SdpSolution:
    return SdpSolution(np.zeros((dim, dim), dtype=complex), math.nan, cert.values, math.inf,
                       pres, math.inf, SolveStatus.INFEASIBLE, iterations,
                       "not a sum of squares from this basis; separating functional attached "
                       "(its negation is an improving ray for the dual)", cert, trace)


def _finish(converged: bool, why_not: str, matrix: np.ndarray, pval: float, y: np.ndarray,
            dval: float, pres: float, gap: float, iterations: int,
            trace: list[CheckRecord]) -> SdpSolution:
    """`optimal` if the stopping rule passed, else `max-iter` with message why_not."""
    status = SolveStatus.OPTIMAL if converged else SolveStatus.MAX_ITER
    return SdpSolution(matrix, pval, y, dval, pres, gap, status, iterations,
                       "" if converged else why_not, trace=trace)


class _Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point map F.

    The caller applies F (here ANDERSON_STRIDE ADMM steps) to the point `x`
    and hands the image w = F(x) to `sample`, which keeps the pair (x,
    f = w - x).  From the differences of the last ANDERSON_MEMORY + 1 pairs
    it fits gamma = argmin ||f - dF gamma||^2 + reg ||gamma||^2 (reg =
    _ANDERSON_REG * tr(dF* dF) / m) and extrapolates to w - (dX + dF) gamma
    (Walker & Ni 2011; Zhang, O'Donoghue & Boyd 2020).  The safeguard: when
    the next sample's residual ||f|| exceeds the one the point was fitted
    at, the accelerated point is dropped, the iteration resumes from the
    plain image it replaced, and the memory is cleared.  `kept` counts the
    accelerated points that passed the safeguard since the last `restart`.
    """

    def __init__(self) -> None:
        self.restart(None)

    def restart(self, x: Optional[np.ndarray]) -> None:
        """At a check: F is applied to x next, from the memory kept so far;
        None clears the memory, as a changed F requires."""
        self.kept = 0
        if x is None:
            self.reset(None)
        else:
            self.x = x

    def reset(self, x: Optional[np.ndarray]) -> None:
        """Clear the memory; F is applied to x next."""
        self.xs: list[np.ndarray] = []
        self.fs: list[np.ndarray] = []
        self.x = x
        self.plain: Optional[np.ndarray] = None     # the image an accelerated x replaced
        self.fitted_at = math.inf

    def sample(self, w: np.ndarray, accelerate: bool) -> Optional[np.ndarray]:
        """Take w = F(x); return the point to continue from, or None for w."""
        f = w - self.x
        fnorm = float(np.linalg.norm(f))
        if self.plain is not None:
            if fnorm > self.fitted_at:
                plain = self.plain
                self.reset(plain)
                return plain
            self.kept += 1
            self.plain = None
        self.xs = (self.xs + [self.x])[-ANDERSON_MEMORY - 1:]
        self.fs = (self.fs + [f])[-ANDERSON_MEMORY - 1:]
        self.x = w
        if not accelerate or len(self.xs) < 2:
            return None
        dX = np.diff(np.array(self.xs), axis=0)
        dF = np.diff(np.array(self.fs), axis=0)
        G = dF @ dF.T
        reg = _ANDERSON_REG * float(np.trace(G)) / len(G)
        if not reg > 0:
            return None
        gamma = np.linalg.solve(G + reg * np.eye(len(G)), dF @ f)
        self.plain, self.fitted_at = w, fnorm
        self.x = w - gamma @ (dX + dF)
        return self.x


def _trace_min(constraints: GramConstraints, options: SolverOptions,
               minimize_trace: bool = True) -> SdpSolution:
    """ADMM for min <C, M> s.t. tr(A_l M) = lambda_l, M >= 0 (normalized targets).

    Setup, one step map T on (Z, U), one check every CHECK_EVERY steps and
    at the cap, one finish.  The objective C is data: C is zero throughout
    for minimize_trace=False and for the opening window (steps
    1..CHECK_EVERY) otherwise, so those steps are exactly a Douglas-Rachford
    feasibility solve's and test the same Farkas candidates.  If the
    window's check does not end the solve, it hands over to C = I: Z stays
    as the warm start, U restarts at zero (the zero objective's dual is no
    dual of the trace problem), and rho is not balanced; from then on T
    subtracts C / rho.  T's new U is W - Z_new for the point W = Xr + U it
    projects, which is U + Xr - Z_new to the bit.

    A check records a `CheckRecord`, tests the stopping rule (the gap only
    with minimize_trace, which alone has a dual bound), then the Farkas
    candidate U - U_prev, then balances rho.  A probe, at each
    ANDERSON_STRIDE-th step inside the opening window, tests that candidate
    alone behind the same gate: T and rho are fixed there and U_prev is
    zero, so it is U, the candidate the window's check tests, taken earlier.
    A probe changes no state; one that certifies ends the solve and leaves
    its record (gap NaN, no accelerated point).  The hand-over and a rho
    change change T, which clears Anderson's memory.  A window whose opening
    check left T unchanged samples (Z, U) at offsets 5, 10, 15 and 20 and
    may jump at 5, 10 and 15, so the safeguard judges every jump before the
    check and the steps into every check are plain: Z is PSD there.
    """
    system = constraints.block_system
    b = system.targets
    s = bnorm = linalg.two_norm(b)
    bh = b / s
    inv_normal = system.solve_normal(np.ones(len(b)))
    bh_normal = system.solve_normal(bh)
    ranks = system.rank_hint()
    eye = system.identity()
    rho = float(np.linalg.norm(eye) / np.linalg.norm(system.adjoint(bh_normal)))
    objective = shift = None    # C and C / rho, once the trace objective is on
    n = system.size

    def T(Z, U):
        """One over-relaxed step; also returns the affine point X and its multipliers."""
        V = Z - U
        if shift is not None:
            V -= shift
        mu = system.apply(V) * inv_normal - bh_normal
        X = V - system.adjoint(mu)
        Xr = _OVER_RELAX * X + (1.0 - _OVER_RELAX) * Z
        W = Xr + U
        Z_new = system.psd_part(W, ranks)
        return Z_new, W - Z_new, X, mu

    Z = U = U_prev = np.zeros(n)
    y_out, dval, gap = np.zeros(len(b)), 0.0, math.nan
    trace: list[CheckRecord] = []
    anderson = _Anderson()
    steady = False              # the opening check of this window left T unchanged
    for it in range(1, options.max_iter + 1):
        Z_prev = Z
        Z, U, X, mu = T(Z, U)
        if it % CHECK_EVERY and it < options.max_iter:
            if it < CHECK_EVERY and it % ANDERSON_STRIDE == 0:
                # a probe: the window's Farkas candidate, tested alone
                pres = s * float(np.linalg.norm(system.apply(Z) - bh))
                if pres > 50 * options.residual_tol(bnorm):
                    cert = _certificate_from_gap(system, U - U_prev)
                    if cert is not None:
                        record = CheckRecord(it, pres, float(np.linalg.norm(X - Z)),
                                             rho * float(np.linalg.norm(Z - Z_prev)), rho,
                                             math.nan, 0)
                        return _infeasible(cert, system.dim, pres, it, trace + [record])
            elif steady and it % ANDERSON_STRIDE == 0:
                # accelerate only where the safeguard's sample and at least
                # one stride of plain steps still come before the next check
                check = min(it + CHECK_EVERY - it % CHECK_EVERY, options.max_iter)
                w = anderson.sample(np.concatenate([Z, U]), it + 2 * ANDERSON_STRIDE <= check)
                if w is not None:
                    Z, U = w[:n], w[n:]
            continue
        r_split = float(np.linalg.norm(X - Z))
        s_dual = rho * float(np.linalg.norm(Z - Z_prev))
        pres = s * float(np.linalg.norm(system.apply(Z) - bh))
        pval = s * system.trace(Z)
        if minimize_trace:
            y_out, dval_h = _dual_shifted(system, bh, -rho * mu)
            dval = s * dval_h
            gap = pval - dval
        trace.append(CheckRecord(it, pres, r_split, s_dual, rho, gap, anderson.kept))
        converged = options.converged(bnorm, pres, pval, gap)
        if converged:
            break
        if pres > 50 * options.residual_tol(bnorm):
            cert = _certificate_from_gap(system, U - U_prev)
            if cert is not None:
                return _infeasible(cert, system.dim, pres, it, trace)
        r_rel = r_split / max(float(np.linalg.norm(X)), float(np.linalg.norm(Z)), _TINY)
        s_rel = s_dual / max(rho * float(np.linalg.norm(U)), _TINY)
        rho_was = rho
        handover = minimize_trace and it == CHECK_EVERY
        if handover:
            objective, U = eye, np.zeros(n)
        elif r_rel > _RHO_BALANCE * s_rel and rho < 1e6:
            rho, U = rho * 2.0, U / 2.0
        elif s_rel > _RHO_BALANCE * r_rel and rho > 1e-6:
            rho, U = rho / 2.0, U * 2.0
        if objective is not None:
            shift = objective / rho
        # taken after a rho change or the hand-over has reset U, so the next
        # difference spans CHECK_EVERY steps of one T
        U_prev = U
        steady = rho == rho_was and not handover
        anderson.restart(np.concatenate([Z, U]) if steady else None)
    gap_note = f", gap {gap:.3e}" if minimize_trace else ""
    why_not = f"iteration cap {options.max_iter} reached (residual {pres:.3e}{gap_note})"
    return _finish(converged, why_not, system.embed(s * Z), pval, system.lift(y_out), dval,
                   pres, gap, it, trace)


def _zero(dim: int, k: int) -> SdpSolution:
    return SdpSolution(np.zeros((dim, dim), dtype=complex), 0.0, np.zeros(k), 0.0, 0.0, 0.0,
                       SolveStatus.OPTIMAL, 0, message="zero polynomial")


def _unique_gram(a: Polynomial, basis: SquareBasis, options: SolverOptions,
                 minimize_trace: bool = True) -> SdpSolution:
    """The solve on a word basis, in 0 steps: `hermitian_read` reads the one
    Gram matrix M off a and tests it, taken from its upper triangle.
    `optimal` if its PSD part passes the loop's checks (dual A*(y) = I);
    `infeasible` if the y with A*(y) = v v*, v the eigenvector of
    lambda_min(M), clears the certificate margins; else `max-iter`."""
    M = hermitian_read(a, basis)
    M = np.triu(M) + np.triu(M, 1).conj().T + 0.0      # + 0.0: no -0.0 parts
    np.fill_diagonal(M.imag, 0.0)
    b = upper_reads(M)
    if not np.any(b):
        return _zero(basis.size, len(b))
    dec = linalg.eig_hermitian(M)
    w, v = dec.eigenvalues, dec.eigenvectors[:, -1]
    Z = dec.matrix_from(w > 0)
    pres, pval = linalg.two_norm(upper_reads(Z) - b), float(np.trace(Z).real)
    y = upper_reads(np.eye(basis.size), 2.0)
    gap = pval - float(b @ y) if minimize_trace else math.nan
    converged = options.converged(linalg.two_norm(b), pres, pval, gap)
    if not converged:
        V = np.outer(v, v.conj())
        yv = upper_reads(V, 2.0)
        cert = _certified(yv, linalg.eig_hermitian(V).eigenvalues, float(b @ yv), b)
        if cert is not None:
            return _infeasible(cert, basis.size, pres, 0, [])
    why_not = f"unique Gram matrix: least eigenvalue {w[-1]:.3e}, neither PSD nor certified"
    return _finish(converged, why_not, Z, pval, y, float(b @ y), pres, gap, 0, [])


def _solve(a: Polynomial, basis: SquareBasis, options: SolverOptions | None,
           minimize_trace: bool) -> SdpSolution:
    """The solve of a, with its constraint system on a monomial basis: the zero polynomial
    in 0 steps, words by `_unique_gram`, else `_trace_min`; an overflowing trace is refused."""
    options = options or SolverOptions()
    if basis.flavor == FREE:
        sol = _unique_gram(a, basis, options, minimize_trace)
    else:
        constraints = build_constraints(a, basis)
        sol = (_trace_min(constraints, options, minimize_trace) if np.any(constraints.targets)
               else _zero(basis.size, constraints.k))
        sol.constraints = constraints
    if sol.status is not SolveStatus.INFEASIBLE and not math.isfinite(sol.objective):
        raise ValueError("the coefficients are too large: their sos-norm overflows")
    return sol


def sos_norm(a: Polynomial, basis: SquareBasis,
             options: SolverOptions | None = None) -> tuple[float, SdpSolution]:
    """Minimal Gram-matrix trace of a over the PSD cone, with solver witness.

    Returns (value, solution).  status OPTIMAL means the trace is within the
    gap tolerance of the true minimum and gram_map(solution.matrix) matches a
    to the primal tolerance; status INFEASIBLE means a is not a sum of
    squares from this basis (value is NaN, certificate attached); MAX_ITER is
    reported with residuals, never silently coerced.
    """
    sol = _solve(a, basis, options, True)
    return sol.objective, sol


def sos_feasible(a: Polynomial, basis: SquareBasis,
                 options: SolverOptions | None = None) -> SdpSolution:
    """Membership test for the cone of Hermitian squares over the basis.

    `feasible` comes with a PSD Gram witness in `matrix`, else with a separating
    functional; an unresolved solve raises SolverError instead of guessing.
    """
    sol = _solve(a, basis, options, False)
    if sol.status is SolveStatus.MAX_ITER:
        raise SolverError(f"feasibility test inconclusive: {sol.message}", sol)
    return sol


# -- rank reduction -------------------------------------------------------------

def rank_reduce(M: np.ndarray, constraints: GramConstraints, target_r: int) -> np.ndarray:
    """Reduce a feasible PSD solution to rank <= target_r, preserving tr(A_l M).

    Requires k <= target_r^2 + 2*target_r, where k counts the real-valued
    constraints, one per product term of the monomial basis.  M is decomposed
    once, to V diag(lam) V*; each step walks from the r x r core diag(lam)
    along a direction orthogonal to every V* A_l V (one exists whenever
    r^2 > k) to the nearest PSD-boundary crossing, which removes at least one
    eigenvalue, and turns V and the V* A_l V by the new core's eigenvectors.
    """
    k = constraints.k
    if target_r < 0:
        raise ValueError("target_r must be >= 0")
    if k > target_r * target_r + 2 * target_r:
        raise ValueError(
            f"rank-reduction hypothesis violated: k={k} > r^2+2r={target_r * target_r + 2 * target_r}")
    bscale = linalg.two_norm(constraints.targets)
    if constraints.residual(M) > 1e-7 * bscale:
        raise ValueError("matrix does not satisfy the constraints to 1e-7")
    dec = linalg.clipped_spectrum(M)
    V, lam = dec.eigenvectors, dec.eigenvalues
    A = np.array([constraints.adjoint(e) for e in np.eye(k)], dtype=complex)   # every A_l
    B = V.conj().T @ A @ V
    for _ in range(len(lam) + 1):
        live = lam > linalg.RANK_CUTOFF_REL * lam.max(initial=0.0)
        V, lam, B, r = V[:, live], lam[live], B[:, live][:, :, live], int(live.sum())
        if r <= target_r:
            out = (V * lam) @ V.conj().T
            if constraints.residual(out) > 1e-6 * bscale:
                raise RankReductionError("constraints drifted during reduction", out, r)
            return out
        # the compressed constraints as rows of the isometry Her_r -> R^{r^2}
        # (Frobenius inner product to the dot product)
        iu = np.triu_indices(r, k=1)
        upper = math.sqrt(2.0) * B[:, iu[0], iu[1]]
        x = _constraint_orthogonal(np.concatenate(
            [np.diagonal(B, axis1=1, axis2=2).real, upper.real, upper.imag], axis=1))
        if x is None:
            raise RankReductionError(
                f"no constraint-orthogonal direction at rank {r}", (V * lam) @ V.conj().T, r)
        delta = np.diag(x[:r]).astype(complex)
        delta[iu] = (x[r:r + len(iu[0])] + 1j * x[r + len(iu[0]):]) / math.sqrt(2.0)
        delta += np.triu(delta, 1).conj().T
        delta /= np.linalg.norm(delta)
        # diag(lam) + t*delta meets the boundary at t = -1/omega for each
        # omega: first at the largest |omega| (of a tie, at t > 0)
        omega = _crossing_rates(lam, delta)
        top = omega[np.argmax(np.abs(omega))]
        if abs(top) * lam[0] <= 1e-14:      # omega scales as 1 / lam: scale-free
            raise RankReductionError(
                f"direction produces no boundary crossing at rank {r}", (V * lam) @ V.conj().T, r)
        core = linalg.clipped_spectrum(np.diag(lam) + (-1.0 / top) * delta)
        Q, lam = core.eigenvectors, core.eigenvalues
        V, B = V @ Q, Q.conj().T @ B @ Q
    raise RankReductionError("rank reduction did not terminate", (V * lam) @ V.conj().T, len(lam))


def _constraint_orthogonal(K: np.ndarray) -> np.ndarray | None:
    """A nonzero x with K x = 0 to rounding, or None if the rows of K span R^m:
    a Gaussian vector seeded by m = K.shape[1] (so by the rank), less its
    projection on the row space of K read from one eigendecomposition of K K^T."""
    s, U = np.linalg.eigh(K @ K.T)
    norm, keep = math.sqrt(max(s[-1], 0.0)), s > 1e-12 * s[-1]
    if keep.sum() >= K.shape[1]:
        return None
    U, s = U[:, keep], s[keep]
    x = np.random.default_rng(K.shape[1]).standard_normal(K.shape[1])
    for _ in range(2):      # again while ||K x|| > 1e-12 ||K||_2 ||x||
        Kx = K @ x
        if np.linalg.norm(Kx) <= 1e-12 * norm * np.linalg.norm(x):
            break
        x -= K.T @ (U @ ((U.T @ Kx) / s))
    return x


def _crossing_rates(lam: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of the pencil (delta, diag(lam)), lam > 0."""
    root = 1.0 / np.sqrt(lam)
    return np.linalg.eigvalsh(root[:, None] * delta * root)
