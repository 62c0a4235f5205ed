"""Cross-module property suite behind the `verify` CLI command.

Each property runs on seeded random instances and reports a pass flag plus a
one-line detail (typically the worst residual observed).  The suite is the
runtime counterpart of the unit tests: quick, deterministic, and safe to run
in CI or after an install.
"""

from __future__ import annotations

import math

import numpy as np

from . import approx, linalg, sdp
from .gram import build_constraints, free_gram, gram_map, square_basis
from .poly import COMMUTATIVE, FREE, Polynomial, sphere_lattice, sum_of_monomial_squares, sup_norm_sphere

# nonnegative ternary sextics that are not sums of squares
MOTZKIN = {(4, 2, 0): 1, (2, 4, 0): 1, (0, 0, 6): 1, (2, 2, 2): -3}
ROBINSON = {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1, (4, 2, 0): -1, (2, 4, 0): -1,
            (4, 0, 2): -1, (2, 0, 4): -1, (0, 4, 2): -1, (0, 2, 4): -1, (2, 2, 2): 3}


def _random_poly(rng, flavor, n, d, density=0.7):
    basis = square_basis(flavor, n, d)
    coeffs = {}
    for t in basis.terms:
        if rng.random() < density:
            coeffs[t] = complex(rng.standard_normal(), rng.standard_normal())
    return Polynomial(flavor, n, coeffs)


def random_sos(rng, flavor, n, d, r):
    """Sum of r random squares from the degree-d basis, plus that basis."""
    basis = square_basis(flavor, n, d)
    total = Polynomial.zero(flavor, n)
    for _ in range(r):
        c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        q = Polynomial(flavor, n, {t: v for t, v in zip(basis.terms, c)})
        total = total + q.involution() * q
    return total, basis


def random_hermitian(rng, dim):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (A + A.conj().T) / 2.0


def random_psd(rng, dim, rank=None):
    rank = rank or dim
    A = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return A @ A.conj().T


def run_property_suite(seed: int, options: sdp.SolverOptions | None = None,
                       resolution: int = 1000):
    options = options or sdp.SolverOptions()
    rng = np.random.default_rng(seed)
    results = []

    def record(name, worst, tol, fmt="{:.3e}"):
        results.append((name, worst <= tol, f"worst {fmt.format(worst)} (tol {tol:g})"))

    # involution is an involutive anti-homomorphism
    worst = 0.0
    for flavor in (COMMUTATIVE, FREE):
        for _ in range(20):
            p = _random_poly(rng, flavor, 2, 2)
            q = _random_poly(rng, flavor, 2, 1)
            worst = max(worst, ((p * q).involution()
                                - q.involution() * p.involution()).coeff_two_norm())
            worst = max(worst, (p.involution().involution() - p).coeff_two_norm())
    record("involution_anti_homomorphism", worst, 1e-12)

    # norm axioms on random triples
    worst = 0.0
    for _ in range(30):
        p = _random_poly(rng, COMMUTATIVE, 3, 2)
        q = _random_poly(rng, COMMUTATIVE, 3, 2)
        c = complex(rng.standard_normal(), rng.standard_normal())
        worst = max(worst, (p + q).coeff_two_norm() - p.coeff_two_norm() - q.coeff_two_norm())
        worst = max(worst, abs((c * p).coeff_two_norm() - abs(c) * p.coeff_two_norm()))
    record("coeff_norm_axioms", worst, 1e-10)

    # collapse is a *-homomorphism
    worst = 0.0
    for _ in range(20):
        p = _random_poly(rng, FREE, 2, 2)
        q = _random_poly(rng, FREE, 2, 2)
        worst = max(worst, ((p * q).collapse() - p.collapse() * q.collapse()).coeff_two_norm())
        worst = max(worst, (p.involution().collapse() - p.collapse().involution()).coeff_two_norm())
    record("collapse_homomorphism", worst, 1e-10)

    # sums of squares are nonnegative on the sphere
    worst = 0.0
    pts = sphere_lattice(3, resolution)
    for _ in range(5):
        a, _basis = random_sos(rng, COMMUTATIVE, 3, 2, 3)
        vals = a.evaluate_batch(pts)
        worst = max(worst, float((-vals.real).max()), float(np.abs(vals.imag).max()))
    record("sos_nonnegative_on_sphere", worst, 1e-9)

    # adjoint identity: a = G(M) gives tr(A_l M) = lambda_l, and free_gram(a) = M on words
    worst = 0.0
    for flavor, n, d in ((COMMUTATIVE, 3, 2), (FREE, 2, 2)):
        basis = square_basis(flavor, n, d)
        for _ in range(10):
            M = random_hermitian(rng, basis.size)
            a = gram_map(M, basis)
            cons = build_constraints(a, basis) if flavor == COMMUTATIVE else None
            error = free_gram(a, basis) - M if cons is None else cons.apply(M) - cons.targets
            worst = max(worst, float(np.abs(error).max()))
    record("gram_adjoint_identity", worst, 1e-9)

    # the free Gram map puts the cell (u, v) at the word rev(u) v, alone
    worst = 0.0
    basis = square_basis(FREE, 2, 2)
    for _ in range(100):
        M = random_hermitian(rng, basis.size)
        a = gram_map(M, basis)
        worst = max(worst, max(abs(a.coefficient(u[::-1] + v) - M[i, j])
                               for i, u in enumerate(basis.terms)
                               for j, v in enumerate(basis.terms)))
    record("free_gram_roundtrip", worst, 1e-12)

    # the degree-d monomial tuple has norm at most 1 on the sphere
    worst = 0.0
    for d in range(1, 9):
        basis = square_basis(COMMUTATIVE, 3, d)
        sample = rng.standard_normal((1000, 3))
        sample /= np.linalg.norm(sample, axis=1, keepdims=True)
        norms = np.zeros(len(sample))
        for t in basis.terms:
            norms += (sample ** np.array(t)).prod(axis=1) ** 2
        worst = max(worst, float(np.sqrt(norms.max()) - 1.0))
    record("monomial_tuple_sphere_bound", worst, 1e-12)

    # |G(M)(s)| <= ||M||_inf on the sphere
    worst = 0.0
    basis = square_basis(COMMUTATIVE, 3, 3)
    for _ in range(10):
        M = random_hermitian(rng, basis.size)
        a = gram_map(M, basis)
        vals = np.abs(a.evaluate_batch(pts))
        worst = max(worst, float(vals.max()) - linalg.schatten_norm(M, math.inf))
    record("gram_evaluation_bound", worst, 1e-9)

    # weak duality and scaling of the sos-norm
    worst_gap = 0.0
    worst_scale = 0.0
    for _ in range(5):
        a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 2)
        value, sol = sdp.sos_norm(a, basis, options)
        worst_gap = max(worst_gap, sol.dual_objective - value - 1e-6 * (1 + value))
        c = float(rng.uniform(0.5, 4.0))
        scaled_value, _ = sdp.sos_norm(c * a, basis, options)
        worst_scale = max(worst_scale,
                          abs(scaled_value - c * value) / (1.0 + c * value))
    record("weak_duality", worst_gap, 0.0, fmt="{:+.3e}")
    record("sos_norm_scaling", worst_scale, 1e-5)

    # the solver's read of the unique Gram matrix has the closed-form trace
    worst = 0.0
    for _ in range(10):
        a, basis = random_sos(rng, FREE, 2, 2, 2)
        closed = float(sum(a.coefficient(u[::-1] + u) for u in basis.terms).real)
        value, _sol = sdp.sos_norm(a, basis, options)
        worst = max(worst, abs(value - closed) / max(1.0, closed))
    record("free_closed_form", worst, 1e-12)

    # truncation error matches the dropped spectrum exactly (p = 2 and inf)
    worst = 0.0
    for _ in range(10):
        M = random_psd(rng, 12)
        w = linalg.eig_hermitian(M).eigenvalues
        tr = float(w.sum())
        for p in (2.0, math.inf):
            eps = 0.1 * tr
            Mp = linalg.truncate_rank(M, eps, p)
            err = linalg.schatten_norm(M - Mp, p)
            kept = linalg.numerical_rank(Mp, 1e-13)
            dropped = w[kept:]
            expect = float(dropped.max(initial=0.0)) if math.isinf(p) \
                else float(np.sqrt((dropped ** 2).sum()))
            worst = max(worst, abs(err - expect))
            bound = tr / eps if math.isinf(p) else (tr / eps) ** 2
            if not kept < bound:
                worst = max(worst, 1.0)
    record("truncation_spectral_error", worst, 1e-8)

    # Schatten norms decrease in p; eigenvalues obey lambda_k <= tr/k
    worst = 0.0
    for _ in range(10):
        M = random_psd(rng, 10)
        norms = [linalg.schatten_norm(M, p) for p in (1.5, 2, 4, 8, math.inf)]
        worst = max(worst, max(b - a for a, b in zip(norms, norms[1:])))
        w = linalg.eig_hermitian(M).eigenvalues
        tr = w.sum()
        worst = max(worst, max(w[k] - tr / (k + 1) for k in range(len(w))))
    record("schatten_monotone_weyl", worst, 1e-9)

    # end-to-end certificates stay sound
    worst = 0.0
    for _ in range(3):
        a, basis = random_sos(rng, FREE, 2, 2, 2)
        trace = float(sum(a.coefficient(u[::-1] + u) for u in basis.terms).real)
        cert = approx.approximate_free(a, 0.25 * trace)
        worst = max(worst, float(len(cert.verify())))
        b, basis_c = random_sos(rng, COMMUTATIVE, 3, 2, 2)
        value, _sol = sdp.sos_norm(b, basis_c, options)
        cert = approx.approximate_sphere(b, 0.3 * value, options)
        worst = max(worst, float(len(cert.verify(sample_points=resolution))))
    record("certificate_soundness", worst, 0.0, fmt="{:g}")

    # sup-norm on the sphere never exceeds the sos-norm
    worst = 0.0
    for _ in range(3):
        a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 2)
        value, _sol = sdp.sos_norm(a, basis, options)
        worst = max(worst, sup_norm_sphere(a, 512) - value - 1e-5)
    p32 = sum_of_monomial_squares(3, 2)
    v32, _ = sdp.sos_norm(p32, square_basis(COMMUTATIVE, 3, 2), options)
    gap = v32 - sup_norm_sphere(p32, 512)
    results.append(("sup_norm_below_sos_norm", worst <= 0.0,
                    f"worst excess {worst:+.3e}"))
    results.append(("sup_norm_strict_gap_p32", gap > 0.5,
                    f"sos - sup = {gap:.6f}"))

    # rank reduction keeps the constraints satisfied
    worst = 0.0
    for _ in range(3):
        a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 4)
        witness = approx.pythagoras_upper_bound(a, basis, options)
        worst = max(worst, witness.residual)
        if witness.count > witness.bound:
            worst = max(worst, 1.0)
    record("rank_reduction_feasibility", worst, 1e-6)

    # Farkas certificates hold: Motzkin, Robinson, and a - c |x|^4 with a < c somewhere
    a, _basis = random_sos(rng, COMMUTATIVE, 3, 2, 3)
    vals = a.evaluate_batch(pts).real
    norm_sq = sum_of_monomial_squares(3, 1)
    shifted = a - (vals.min() + 0.01 * (np.median(vals) - vals.min())) * norm_sq * norm_sq
    worst = 0.0
    for form in (Polynomial(COMMUTATIVE, 3, MOTZKIN), Polynomial(COMMUTATIVE, 3, ROBINSON), shifted):
        cons = build_constraints(form, square_basis(COMMUTATIVE, 3, form.degree() // 2))
        _value, sol = sdp.sos_norm(form, cons.basis, options)
        w = np.linalg.eigvalsh(cons.adjoint(sol.dual))     # the certificate when infeasible
        rejected = sol.status is sdp.SolveStatus.INFEASIBLE and cons.targets @ sol.dual < 0
        worst = max(worst, float(-w.min() / np.abs(w).max()) if rejected else math.inf)
    record("farkas_certificate_soundness", worst, 1e-8)

    return results
