"""End-to-end approximate decomposition pipelines and bound calculators.

Every certificate comes from `approximate`: explicit squares from the basis
subspace, the achieved error in a declared norm, and the theoretical square
count the truncation argument guarantees.  `sdp.sos_norm` gives the Gram
matrix: read in closed form on a free basis (0 steps; coefficient 2-norm
error), trace-minimal on a commutative one (spectral truncation, whose error
transfers to the sphere sup-norm with constant 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .linalg import strict_cap
from .gram import (
    SquareBasis,
    basis_size,
    gram_map,
    homogeneous_basis,
    operator_norm_bound,
    square_basis,
)
from .poly import COMMUTATIVE, FREE, FlavorMismatchError, Polynomial, from_dict as poly_from_dict, to_dict as poly_to_dict
from .sdp import (
    RankReductionError,
    SolverError,
    SolverOptions,
    SolveStatus,
    rank_reduce,
    sos_feasible,
    sos_norm,
)

COEFF_2_NORM = "coeff-2-norm"
SUP_SPHERE = "sup-sphere"
SQUARE_CUTOFF_REL = 1e-14     # kept eigenvalues at most this times the top give no square


class NotSosError(ValueError):
    """Input is not a sum of Hermitian squares from the requested subspace."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class _Squares:
    """Squares q_i stored as coefficient vectors over `basis`, and their sum."""

    def square_polynomials(self) -> list[Polynomial]:
        out = []
        for c in self.squares:
            coeffs = {t: v for t, v in zip(self.basis.terms, c) if v != 0}
            out.append(Polynomial(self.basis.flavor, self.basis.n_vars, coeffs))
        return out

    def reassembled(self) -> Polynomial:
        """sum_i q_i* q_i."""
        total = Polynomial.zero(self.basis.flavor, self.basis.n_vars)
        for q in self.square_polynomials():
            total = total + q.involution() * q
        return total


@dataclass
class SosCertificate(_Squares):
    """An approximate decomposition a' = sum q_i* q_i near a, with guarantees."""

    input: Polynomial
    approximation: Polynomial
    squares: list[np.ndarray]
    basis: SquareBasis
    error: float
    norm: str                      # COEFF_2_NORM or SUP_SPHERE
    eps: float
    theoretical_bound: float
    allowed_rank: int
    sos_norm_value: float
    schatten_p: float              # truncation route
    solver_iterations: int = 0

    @property
    def rank(self) -> int:
        return len(self.squares)

    def verify(self, sample_points: int = 0) -> list[str]:
        """Re-check every certificate invariant; returns a list of violations."""
        problems = []
        anorm = self.input.coeff_two_norm()
        resid = (self.reassembled() - self.approximation).coeff_two_norm()
        if resid > 1e-8 * (1.0 + anorm):
            problems.append(f"squares do not reassemble the approximation: {resid:.3e}")
        if self.rank > 0 and not self.rank < self.theoretical_bound:
            problems.append(
                f"square count {self.rank} not below bound {self.theoretical_bound}")
        if self.error > self.eps * (1.0 + 1e-12) + 1e-15:
            problems.append(f"declared error {self.error} exceeds eps {self.eps}")
        if self.norm == COEFF_2_NORM:
            measured = (self.input - self.approximation).coeff_two_norm()
            if measured > self.error * (1.0 + 1e-9) + 1e-12:
                problems.append(
                    f"coefficient error {measured:.3e} exceeds declared {self.error:.3e}")
        elif self.norm == SUP_SPHERE and sample_points:
            from .poly import sphere_lattice
            pts = sphere_lattice(self.basis.n_vars, sample_points)
            diff = self.input - self.approximation
            emp = float(np.abs(diff.evaluate_batch(pts)).max(initial=0.0))
            if emp > self.error * (1.0 + 1e-9) + 1e-9:
                problems.append(
                    f"sampled sphere error {emp:.3e} exceeds certified {self.error:.3e}")
        return problems

    def to_dict(self) -> dict:
        return {
            "input": poly_to_dict(self.input),
            "approximation": poly_to_dict(self.approximation),
            "squares": [[[v.real, v.imag] for v in c] for c in self.squares],
            "basis": {"flavor": self.basis.flavor, "n_vars": self.basis.n_vars,
                      "degree": self.basis.degree},
            "error": self.error,
            "norm": self.norm,
            "eps": self.eps,
            "theoretical_bound": self.theoretical_bound,
            "allowed_rank": self.allowed_rank,
            "sos_norm_value": self.sos_norm_value,
            "schatten_p": "inf" if math.isinf(self.schatten_p) else self.schatten_p,
            "solver_iterations": self.solver_iterations,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "SosCertificate":
        b = data["basis"]
        basis = square_basis(b["flavor"], int(b["n_vars"]), int(b["degree"]))
        squares = [np.array([complex(re, im) for re, im in c], dtype=complex)
                   for c in data["squares"]]
        p_raw = data["schatten_p"]
        return cls(
            input=poly_from_dict(data["input"]),
            approximation=poly_from_dict(data["approximation"]),
            squares=squares, basis=basis,
            error=float(data["error"]), norm=data["norm"], eps=float(data["eps"]),
            theoretical_bound=float(data["theoretical_bound"]),
            allowed_rank=int(data["allowed_rank"]),
            sos_norm_value=float(data["sos_norm_value"]),
            schatten_p=math.inf if p_raw == "inf" else float(p_raw),
            solver_iterations=int(data.get("solver_iterations", 0)))


def _squares_from_spectrum(dec: linalg.SpectralDecomposition, keep: int) -> list[np.ndarray]:
    # gram_map(c c*) = q* q for q with coefficients conj(c), so certificates
    # store the conjugated factors: they are the squares' coefficient vectors
    w, V = dec.eigenvalues, dec.eigenvectors
    top = w[0] if len(w) else 0.0
    return [np.sqrt(w[i]) * V[:, i].conj() for i in range(min(keep, len(w)))
            if w[i] > SQUARE_CUTOFF_REL * max(top, 1e-300)]


def _assemble(a: Polynomial, basis: SquareBasis, dec, keep: int, error: float,
              norm: str, eps: float, bound: float, sos_value: float,
              p_route: float, iterations: int) -> SosCertificate:
    squares = _squares_from_spectrum(dec, keep)
    kept = np.zeros(len(dec.eigenvalues), dtype=bool)
    kept[:keep] = True
    approx_poly = gram_map(dec.matrix_from(kept), basis)
    return SosCertificate(
        input=a, approximation=approx_poly, squares=squares, basis=basis,
        error=error, norm=norm, eps=eps, theoretical_bound=bound,
        allowed_rank=strict_cap(bound), sos_norm_value=sos_value,
        schatten_p=p_route, solver_iterations=iterations)


def _free_routes(a: Polynomial, basis: SquareBasis, dec, eps: float,
                 sos_value: float, iterations: int, residual: float) -> SosCertificate:
    """Both certified truncation routes; fewest squares meeting eps wins.

    Schatten-2 with the proof's exact count always meets eps in the
    coefficient 2-norm (the Gram map is an isometry there); the deeper
    Schatten-inf truncation is used only when its measured coefficient
    error still fits.  `residual` is the coefficient 2-norm of
    a - gram_map(M); the truncation gets what is left of eps after it.
    """
    w = dec.eigenvalues
    trace = float(w.sum())
    npos = int((w > 0).sum())
    budget = eps - residual
    bound = (sos_value / budget) ** 2
    k2 = min(linalg.truncation_count(trace, budget, 2.0), npos)
    kinf = linalg.count_above(w, budget, strict_cap(bound))
    tail = np.sqrt(np.cumsum((w ** 2)[::-1])[::-1])  # tail[i] = ||w[i:]||_2

    def tail_err(k: int) -> float:
        return (float(tail[k]) if k < len(w) else 0.0) + residual

    err2, errinf = tail_err(k2), tail_err(kinf)
    if errinf <= eps and kinf < k2:
        return _assemble(a, basis, dec, kinf, errinf, COEFF_2_NORM, eps,
                         bound, sos_value, math.inf, iterations)
    return _assemble(a, basis, dec, k2, err2, COEFF_2_NORM, eps,
                     bound, sos_value, 2.0, iterations)


def approximate(a: Polynomial, basis: SquareBasis, eps: float,
                options: SolverOptions | None = None) -> SosCertificate:
    """Approximate a by a short sum of squares within eps.

    Pipeline: trace-minimal Gram matrix, spectral truncation at the certified
    operator-norm level, rank-one factors.  Commutative inputs are measured
    in the sphere sup-norm (certified through the spectral norm); free inputs
    in the coefficient 2-norm.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    opnorm = operator_norm_bound(basis)
    # membership and the trace minimum come from one solve: the splitting
    # solver detects infeasibility itself and carries the separating certificate
    value, sol = sos_norm(a, basis, options)
    if sol.status is SolveStatus.INFEASIBLE:
        raise NotSosError("input is not a sum of squares from this basis",
                          certificate=sol.certificate)
    if sol.status is not SolveStatus.OPTIMAL:
        raise SolverError("sos-norm solve failed: " + sol.message, sol)
    dec = linalg.clipped_spectrum(sol.matrix)
    # the declared error must cover the residual a - gram_map(M) the solver
    # leaves: in the coefficient 2-norm for free inputs; on the unit sphere
    # every monomial is at most 1 in modulus, so the coefficient 1-norm
    # bounds its sup for commutative ones
    residual = a - gram_map(dec.reconstruct(), basis)
    free = basis.flavor == FREE
    r = residual.coeff_two_norm() if free else sum(abs(c) for _, c in residual.items())
    if r >= eps:
        raise SolverError(f"solver residual {r:.3e} leaves no room for eps {eps:.3e}", sol)
    if free:
        return _free_routes(a, basis, dec, eps, value, sol.iterations, r)
    w = dec.eigenvalues
    bound = opnorm * value / (eps - r)
    keep = linalg.count_above(w, (eps - r) / opnorm, strict_cap(bound))
    error = (float(w[keep]) * opnorm if keep < len(w) else 0.0) + r
    return _assemble(a, basis, dec, keep, error, SUP_SPHERE, eps, bound,
                     value, math.inf, sol.iterations)


def approximate_free(p: Polynomial, eps: float) -> SosCertificate:
    """`approximate` on the word basis of a free p, in the coefficient 2-norm.

    The solve reads the unique Gram matrix off in closed form, in 0 steps;
    its trace is the sos-norm.  A materially indefinite matrix raises
    NotSosError with a checked certificate, and one too close to PSD to
    certify raises SolverError.
    """
    if p.flavor != FREE:
        raise FlavorMismatchError("approximate_free takes a free polynomial")
    return approximate(p, homogeneous_basis(p), eps)


def approximate_sphere(p: Polynomial, eps: float,
                       options: SolverOptions | None = None) -> SosCertificate:
    """Sup-norm-on-the-sphere approximation pipeline for commutative inputs."""
    if p.flavor != COMMUTATIVE:
        raise FlavorMismatchError("approximate_sphere takes a commutative polynomial")
    return approximate(p, homogeneous_basis(p), eps, options)


def _ceil_sqrt(k: int) -> int:
    return math.isqrt(k - 1) + 1 if k > 0 else 0


@dataclass
class PythagorasWitness(_Squares):
    """An exact decomposition with at most ceil(sqrt(dim V*V)) squares."""

    count: int
    squares: list[np.ndarray]
    basis: SquareBasis
    bound: int
    residual: float
    message: str = ""


def pythagoras_upper_bound(a: Polynomial, basis: SquareBasis,
                           options: SolverOptions | None = None) -> PythagorasWitness:
    """Exact decomposition of a with at most ceil(sqrt(dim V*V)) squares.

    The feasibility witness, then, for commutative bases, rank reduction
    over the constraint system.  On a free basis the Gram matrix is unique,
    so the answer is its rank and no reduction is possible.
    """
    options = options or SolverOptions()
    bound = _ceil_sqrt(len(basis.product_terms))
    # the witness residual flows straight into the reassembly residual,
    # so ask the feasibility solve for extra digits
    options = replace(options, tol_primal=min(options.tol_primal, 1e-8))
    feas = sos_feasible(a, basis, options)
    if not feas:
        raise NotSosError("input is not a sum of squares from this basis",
                          certificate=feas.certificate)
    M0, message = feas.witness, "free Gram matrix is unique; rank cannot be reduced"
    if basis.flavor != FREE:
        try:
            M0, message = rank_reduce(feas.witness, feas.constraints, bound), ""
        except RankReductionError as exc:
            M0 = exc.matrix
            message = f"rank reduction stalled at rank {exc.achieved_rank}: {exc}"
    squares = [c.conj() for c in linalg.low_rank_factor(M0)]
    witness = PythagorasWitness(len(squares), squares, basis, bound, 0.0, message)
    witness.residual = (witness.reassembled() - a).coeff_two_norm()
    return witness


@dataclass
class BoundReport:
    """Dimension counts and square-count bounds; pure arithmetic, no solving."""

    flavor: str
    n_vars: int
    degree: int
    eps: float
    sos_norm_value: float
    dim_v: int = field(init=False)
    dim_vv: int = field(init=False)
    general_bound: int = field(init=False)
    sqrt_dim_bound: int = field(init=False)
    theorem_bound: float = field(init=False)
    theorem_allowed_rank: int = field(init=False)
    min_certified_bound: float = field(init=False)

    def __post_init__(self):
        self.dim_v = basis_size(self.flavor, self.n_vars, self.degree)
        self.dim_vv = basis_size(self.flavor, self.n_vars, 2 * self.degree)
        self.general_bound = self.dim_v
        self.sqrt_dim_bound = _ceil_sqrt(self.dim_vv)
        ratio = self.sos_norm_value / self.eps
        if self.flavor == COMMUTATIVE:
            # sup-norm route: operator norm 1 at p = inf
            self.theorem_bound = ratio
            self.min_certified_bound = ratio
        else:
            self.theorem_bound = ratio ** 2
            # every Schatten route is certified in the free flavor; the
            # exponent p/(p-1) is minimized at p = inf once ratio > 1
            self.min_certified_bound = ratio if ratio > 1.0 else ratio ** 2
        self.theorem_allowed_rank = strict_cap(self.theorem_bound)

    def to_dict(self) -> dict:
        return {
            "flavor": self.flavor, "n_vars": self.n_vars, "degree": self.degree,
            "eps": self.eps, "sos_norm_value": self.sos_norm_value,
            "dim_v": self.dim_v, "dim_vv": self.dim_vv,
            "general_bound": self.general_bound,
            "sqrt_dim_bound": self.sqrt_dim_bound,
            "theorem_bound": self.theorem_bound,
            "theorem_allowed_rank": self.theorem_allowed_rank,
            "min_certified_bound": self.min_certified_bound,
        }


def bound_report(flavor: str, n_vars: int, degree: int, eps: float,
                 sos_norm_value: float) -> BoundReport:
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n_vars < 1 or degree < 0:
        raise ValueError("invalid dimensions")
    return BoundReport(flavor, n_vars, degree, eps, sos_norm_value)
