"""Approximate sums of Hermitian squares with provably small Pythagoras number.

Pipeline: Gram matrices of commutative or free polynomials, trace-minimization
semidefinite programming for the sos-norm, Schatten-p spectral truncation, and
certified approximate decompositions with explicit square counts.
"""

from .poly import (
    COMMUTATIVE,
    FREE,
    Polynomial,
    sum_of_monomial_squares,
    sup_norm_sphere,
    variables,
)
from .gram import (
    GramConstraints,
    SquareBasis,
    build_constraints,
    gram_map,
    square_basis,
)
from .linalg import (
    SpectralDecomposition,
    eig_hermitian,
    schatten_norm,
    truncate_rank,
)
from .sdp import (
    SdpSolution,
    SolverOptions,
    SolveStatus,
    rank_reduce,
    sos_feasible,
    sos_norm,
)
from .approx import (
    BoundReport,
    SosCertificate,
    approximate,
    approximate_free,
    approximate_sphere,
    bound_report,
    pythagoras_upper_bound,
)

__version__ = "0.1.0"
