"""End-to-end approximate decomposition pipelines and bound calculators.

Every certificate comes from `approximate`: explicit squares, the achieved
error in a declared norm, and the theoretical square count the truncation
argument guarantees.  `sdp.sos_norm` gives the Gram matrix (read in closed
form on a word basis, trace-minimal on a monomial one), and one rule
truncates it on every basis: keep the fewest leading eigenpairs whose
dropped part, carried to the polynomial with constant 1, fits in eps.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import linalg
from .linalg import strict_cap
from .gram import (
    SquareBasis,
    basis_size,
    gram_map,
    homogeneous_basis,
    square_basis,
)
from .poly import COMMUTATIVE, FREE, FlavorMismatchError, Polynomial, _json_number, from_dict as poly_from_dict, to_dict as poly_to_dict
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
SCHATTEN_P = {COEFF_2_NORM: 2.0, SUP_SPHERE: math.inf}     # the norm each is truncated in
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
    schatten_p: float              # norm truncated in: 2.0 (coefficient 2-norm), inf (sphere)
    solver_iterations: int = 0

    @property
    def rank(self) -> int:
        return len(self.squares)

    def verify(self, sample_points: int = 0) -> list[str]:
        """Re-check every certificate invariant; returns a list of violations."""
        problems = []
        anorm = self.input.coeff_two_norm()
        resid = (self.reassembled() - self.approximation).coeff_two_norm()
        # every test is "not within": a NaN fails it
        if not resid <= 1e-8 * (1.0 + anorm):
            problems.append(f"squares do not reassemble the approximation: {resid:.3e}")
        if self.rank > 0 and not self.rank < self.theoretical_bound:
            problems.append(
                f"square count {self.rank} not below bound {self.theoretical_bound}")
        if not self.error <= self.eps * (1.0 + 1e-12) + 1e-15:
            problems.append(f"declared error {self.error} exceeds eps {self.eps}")
        if self.norm == COEFF_2_NORM:
            measured = (self.input - self.approximation).coeff_two_norm()
            if not measured <= self.error * (1.0 + 1e-9) + 1e-12:
                problems.append(
                    f"coefficient error {measured:.3e} exceeds declared {self.error:.3e}")
        elif self.norm != SUP_SPHERE:
            problems.append(f"unknown norm {self.norm!r}")
        elif sample_points:
            from .poly import sphere_lattice
            pts = sphere_lattice(self.basis.n_vars, sample_points)
            diff = self.input - self.approximation
            emp = float(np.abs(diff.evaluate_batch(pts)).max(initial=0.0))
            if not emp <= self.error * (1.0 + 1e-9) + 1e-9:
                problems.append(
                    f"sampled sphere error {emp:.3e} exceeds certified {self.error:.3e}")
        return problems

    def to_dict(self) -> dict:
        """Every field; the polynomials, squares, basis and schatten_p encoded."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(input=poly_to_dict(self.input), approximation=poly_to_dict(self.approximation),
                   squares=[[[v.real, v.imag] for v in c] for c in self.squares],
                   basis={"flavor": self.basis.flavor, "n_vars": self.basis.n_vars,
                          "degree": self.basis.degree},
                   schatten_p="inf" if math.isinf(self.schatten_p) else self.schatten_p)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "SosCertificate":
        """Read a certificate back; ValueError, naming the field, for one whose
        fields are missing, not numbers of their kind, mis-shaped, not finite
        or disagree with each other."""
        def read(name: str):
            """The value at a dotted field name."""
            value = data
            for key in name.split("."):
                if not isinstance(value, dict) or key not in value:
                    raise ValueError(f"certificate field {name!r} is missing")
                value = value[key]
            return value

        def number(name: str, integer: bool = False):
            return _json_number(read(name), f"certificate field {name!r}", integer)

        def part(value) -> float:
            return _json_number(value, "certificate field 'squares'")

        basis = square_basis(read("basis.flavor"), number("basis.n_vars", True),
                             number("basis.degree", True))
        raw = read("squares")
        if not (isinstance(raw, list) and all(
                isinstance(c, list) and all(isinstance(e, list) and len(e) == 2 for e in c)
                for c in raw)):
            raise ValueError("certificate field 'squares' must be a list of vectors "
                             "of [re, im] pairs")
        squares = [np.array([complex(part(re), part(im)) for re, im in c], dtype=complex)
                   for c in raw]
        p_raw = read("schatten_p")
        cert = cls(
            input=poly_from_dict(read("input")),
            approximation=poly_from_dict(read("approximation")),
            squares=squares, basis=basis, error=number("error"), norm=read("norm"),
            eps=number("eps"), theoretical_bound=number("theoretical_bound"),
            allowed_rank=number("allowed_rank", True), sos_norm_value=number("sos_norm_value"),
            schatten_p=math.inf if p_raw == "inf" else number("schatten_p"),
            solver_iterations=number("solver_iterations", True)
            if "solver_iterations" in data else 0)
        for name in ("error", "eps", "theoretical_bound", "sos_norm_value"):
            if not math.isfinite(getattr(cert, name)):
                raise ValueError(f"certificate field {name!r} must be finite, got {data[name]!r}")

        def in_basis_algebra(p: Polynomial) -> bool:
            return (p.flavor, p.n_vars) == (basis.flavor, basis.n_vars)

        for name, ok, want in (
                ("norm", cert.norm in SCHATTEN_P, f"one of {', '.join(SCHATTEN_P)}"),
                ("schatten_p", cert.schatten_p == SCHATTEN_P.get(cert.norm), "that of the norm"),
                ("allowed_rank", cert.allowed_rank == strict_cap(cert.theoretical_bound),
                 "the cap of theoretical_bound"),
                ("input", in_basis_algebra(cert.input), "in the basis's algebra"),
                ("approximation", in_basis_algebra(cert.approximation), "in the basis's algebra"),
                ("squares", all(len(c) == basis.size for c in squares),
                 f"vectors of the basis size {basis.size}")):
            if not ok:
                raise ValueError(f"certificate field {name!r} must be {want}")
        return cert


def _assemble(a: Polynomial, basis: SquareBasis, canonical: SquareBasis, dec, keep: int,
              error: float, norm: str, eps: float, bound: float, sos_value: float,
              iterations: int) -> SosCertificate:
    # gram_map(c c*) = q* q for q with coefficients conj(c), so certificates
    # store the conjugated factors, over the canonical basis: each entry at
    # the canonical position of the caller's term, zero elsewhere
    w = dec.eigenvalues
    V = np.zeros((canonical.size, len(w)), dtype=complex)
    V[[canonical.index[t] for t in basis.terms]] = dec.eigenvectors.conj()
    top = w[0] if len(w) else 0.0
    squares = [np.sqrt(w[i]) * V[:, i] for i in range(min(keep, len(w)))
               if w[i] > SQUARE_CUTOFF_REL * max(top, 1e-300)]
    kept = np.zeros(len(w), dtype=bool)
    kept[:keep] = True
    return SosCertificate(
        input=a, approximation=gram_map(dec.matrix_from(kept), basis), squares=squares,
        basis=canonical, error=error, norm=norm, eps=eps, theoretical_bound=bound,
        allowed_rank=strict_cap(bound), sos_norm_value=sos_value,
        schatten_p=SCHATTEN_P[norm], solver_iterations=iterations)


def _square_count_bound(flavor: str, value: float, room: float) -> float:
    """The bound `approximate` certifies on the number of squares, for sos-norm
    `value` and an error budget `room`: value/room in the sphere sup-norm
    (operator norm 1) on commutative inputs, its square in the coefficient
    2-norm on free ones.  ValueError, naming eps, where it overflows."""
    ratio = value / room
    bound = ratio if flavor == COMMUTATIVE else ratio * ratio
    if not math.isfinite(bound):
        raise ValueError(f"eps is too small for sos-norm {value!r}: the bound on the "
                         "number of squares overflows")
    return bound


def approximate(a: Polynomial, basis: SquareBasis, eps: float,
                options: SolverOptions | None = None) -> SosCertificate:
    """Approximate a by a short sum of squares within eps.

    The Gram matrix of `sdp.sos_norm` keeps its fewest leading eigenpairs k
    whose certified error dropped[k] + r fits in eps, r the solve's residual:
    on words dropped[k] = ||w[k:]||_2, the exact coefficient 2-norm error; on
    monomials dropped[k] = w[k], a bound on the sphere sup-norm error.  Any
    basis of distinct degree-d terms certifies (`gram.SquareBasis`).
    """
    linalg.require_eps(eps)
    # the certificate is written over the canonical basis, so its size cap
    # (gram.BasisSizeError) refuses the input before the solve, not after
    canonical = square_basis(basis.flavor, basis.n_vars, basis.degree)
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
    w = dec.eigenvalues
    bound = _square_count_bound(basis.flavor, value, eps - r)
    if free:
        # ||w[k:]||_2, taken of w scaled by a power of two near w[0] so that
        # no square overflows or underflows; the scaling is exact
        e = math.frexp(w[0])[1]
        tails = np.sqrt(np.cumsum((np.ldexp(w, -e) ** 2)[::-1])[::-1])
        norm, dropped = COEFF_2_NORM, np.ldexp(tails, e)
    else:
        norm, dropped = SUP_SPHERE, w
    keep = linalg.count_above(dropped, eps - r, strict_cap(bound))
    error = (float(dropped[keep]) if keep < len(w) else 0.0) + r
    return _assemble(a, basis, canonical, dec, keep, error, norm, eps, bound, value,
                     sol.iterations)


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
    over the constraint system.  On a free basis each cell is its own word
    (dim V*V = D^2) and the Gram matrix is unique, so the answer is its rank.
    """
    options = options or SolverOptions()
    bound = _ceil_sqrt(basis.size ** 2 if basis.flavor == FREE else len(basis.product_terms))
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
        self.theorem_bound = _square_count_bound(self.flavor, self.sos_norm_value, self.eps)
        self.min_certified_bound = self.theorem_bound
        self.theorem_allowed_rank = strict_cap(self.theorem_bound)

    to_dict = asdict


def bound_report(flavor: str, n_vars: int, degree: int, eps: float,
                 sos_norm_value: float) -> BoundReport:
    linalg.require_eps(eps)
    if not (math.isfinite(sos_norm_value) and sos_norm_value >= 0):
        raise ValueError(f"sos_norm_value must be a finite number >= 0, got {sos_norm_value!r}")
    if n_vars < 1 or degree < 0:
        raise ValueError("invalid dimensions")
    return BoundReport(flavor, n_vars, degree, eps, sos_norm_value)
