import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import free_farkas_holds, free_input, free_trace_oracle, random_sos, random_square
from oracles import (free_pythagoras_number, gram_preimage_free, gram_residual,
                     min_rank_two_vars_degree_one)
from sos_approx import approx as approx_module, linalg, sdp
from sos_approx.approx import (
    NotSosError,
    SosCertificate,
    approximate,
    approximate_free,
    approximate_sphere,
    bound_report,
    pythagoras_upper_bound,
    strict_cap,
)
from sos_approx.gram import (
    BasisSizeError,
    SquareBasis,
    coefficients,
    gram_map,
    homogeneous_basis,
    products,
    square_basis,
)
from sos_approx.poly import COMMUTATIVE, FREE, Polynomial, sum_of_monomial_squares, variables
from sos_approx.sdp import SdpSolution, SolverError, SolveStatus, sos_norm


def test_strict_cap_semantics():
    assert strict_cap(16.0) == 15      # exact integers drop by one
    assert strict_cap(3.33) == 3
    assert strict_cap(1.0) == 0
    assert strict_cap(0.4) == 0
    assert strict_cap(0.0) == -1
    assert strict_cap(100.0 + 1e-12) == 99  # float fuzz snapped


def test_approximate_free_two_word_example():
    z1, z2 = variables(FREE, 2)
    p = z2 * z1 * z1 * z2 + z1 * z2 * z2 * z1
    cert = approximate_free(p, 0.5)
    assert cert.theoretical_bound == pytest.approx(16.0)  # (2 / 0.5)^2
    assert cert.rank <= 2
    assert cert.error == pytest.approx(0.0, abs=1e-12)
    assert not cert.verify()


def test_approximate_free_single_word_square():
    z1, z2 = variables(FREE, 2)
    q = z1 * z2
    p = q.involution() * q
    for eps in (0.1, 1.0, 10.0):
        cert = approximate_free(p, eps)
        assert cert.rank == (1 if eps < 1.0 else 0)
        assert cert.error <= eps
        assert not cert.verify()


def test_approximate_free_fewest_squares_within_eps():
    # Gram spectrum (4, 1, 0.5): the fewest leading eigenpairs whose dropped
    # tail ||w[k:]||_2, the exact coefficient error, fits under eps
    basis = square_basis(FREE, 3, 1)
    p = gram_map(np.diag([4.0, 1.0, 0.5]), basis)
    cert = approximate_free(p, 1.0)
    assert cert.rank == 2 and cert.error == pytest.approx(0.5, abs=1e-12)
    assert cert.schatten_p == 2.0
    assert not cert.verify()
    cert = approximate_free(p, 1.2)
    assert cert.rank == 1
    assert cert.error == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert cert.schatten_p == 2.0
    assert not cert.verify()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_free_tails_at_extreme_scales():
    # the dropped tails ||w[k:]||_2 keep the unit-scale square counts and
    # errors where the squares of w leave the float range: they overflow
    # past about 1e154 and underflow below about 1e-162
    a, basis = random_sos(np.random.default_rng(3), FREE, 2, 1, 2)
    trace = free_trace_oracle(a, basis)
    for fraction in (0.9, 0.3, 0.05):       # 0, 1 and 2 squares
        unit = approximate(a, basis, fraction * trace)
        for scale in (1e200, 1e-170):
            p = scale * a       # a scalar product keeps every nonzero term
            cert = approximate(p, basis, fraction * scale * trace)
            assert cert.rank == unit.rank, (fraction, scale)
            assert cert.error / scale == pytest.approx(unit.error, rel=1e-12)
            # nothing is dropped under the scale: the squares show
            assert bool(cert.approximation) == (cert.rank > 0)
            assert not cert.verify()
            # verify's slacks are relative to the input: emptied, the
            # certificate claims zero error for a nonzero input and fails
            emptied = replace(cert, approximation=Polynomial.zero(FREE, 2), squares=[], error=0.0)
            assert any("coefficient error" in problem for problem in emptied.verify())


def test_approximate_free_rejects_non_sos():
    # the certificate's layout follows the caller's word order
    z1, z2 = variables(FREE, 2)
    p = z1 * z1 - z2 * z2
    with pytest.raises(NotSosError) as err:
        approximate_free(p, 0.5)
    assert free_farkas_holds(p, square_basis(FREE, 2, 1), err.value.certificate.values)
    for p, basis in ((p, square_basis(FREE, 2, 1)), free_input(-1e-1)):
        reversed_words = SquareBasis(FREE, 2, basis.degree, basis.terms[::-1])
        with pytest.raises(NotSosError) as err:
            approximate(p, reversed_words, 0.5)
        assert free_farkas_holds(p, reversed_words, err.value.certificate.values)


@pytest.mark.parametrize("lam", [-1e-1, -1e-5, -3e-6, -1e-6, -1e-7, -1e-8, 0.0])
def test_approximate_free_near_psd_gram(lam):
    # materially indefinite: a checked certificate; too close to PSD to
    # certify and too far to pass: inconclusive; within the tolerance: the
    # certificate declares the clipped part, and verifies
    a, basis = free_input(lam)
    if lam <= -1e-5:
        with pytest.raises(NotSosError) as err:
            approximate_free(a, 0.5)
        assert free_farkas_holds(a, basis, err.value.certificate.values)
    elif lam <= -1e-6:
        with pytest.raises(SolverError):
            approximate_free(a, 0.5)
    else:
        cert = approximate_free(a, 0.5)
        assert cert.rank == 3
        if lam:
            assert cert.error == pytest.approx(-lam, rel=1e-6, abs=1e-15)
        else:
            # a PSD matrix leaves the solve's residual alone, undropped: 6e-15
            P = linalg.clipped_spectrum(sos_norm(a, basis)[1].matrix).reconstruct()
            assert cert.error == pytest.approx(gram_residual(a, basis, P, cert.norm), rel=1e-12)
        assert cert.verify() == []


def test_approximate_free_input_validation():
    z1, z2 = variables(FREE, 2)
    with pytest.raises(ValueError):
        approximate_free(z1 * z1, 0.0)
    with pytest.raises(ValueError):
        approximate_free(z1, 1.0)  # odd degree
    with pytest.raises(ValueError):
        approximate_free(Polynomial.variable(COMMUTATIVE, 2, 0), 1.0)


def test_bound_monotone_in_eps(rng):
    a, _ = random_sos(rng, FREE, 2, 2, 3)
    ranks = []
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
        ranks.append(approximate_free(a, eps).rank)
    assert all(x >= y for x, y in zip(ranks, ranks[1:]))


def test_exactness_as_eps_vanishes(rng):
    a, _ = random_sos(rng, FREE, 2, 2, 2)
    w = linalg.eig_hermitian(gram_preimage_free(a, 2)).eigenvalues
    lam_min_pos = w[w > 1e-10 * w[0]].min()
    cert = approximate_free(a, 1e-6 * lam_min_pos)
    assert cert.rank == int((w > 1e-10 * w[0]).sum())
    assert cert.error == pytest.approx(0.0, abs=1e-10)


def test_flat_spectrum_truncation_keeps_fewest_fitting():
    # identity Gram spectrum: the tails are 2, sqrt(3), sqrt(2), 1, so eps = 1
    # drops one square (the proof's count, (4/1)^2 = 16, would keep all four)
    basis = square_basis(FREE, 2, 2)
    p = gram_map(np.eye(4), basis)
    cert = approximate_free(p, 1.0)
    assert cert.rank == 3 and cert.error == pytest.approx(1.0, abs=1e-12)
    assert not cert.verify()
    cert = approximate_free(p, 2.0)
    assert cert.rank == 0
    assert cert.error == pytest.approx(2.0, abs=1e-12)


def test_approximate_generic_free_agrees_with_direct_route(rng):
    # the Gram matrix read on reversed words is the canonical one permuted,
    # so `approximate` on them keeps as many squares with the same error;
    # its certificate is written over the canonical words
    a, basis = random_sos(rng, FREE, 2, 2, 2)
    reversed_words = SquareBasis(FREE, 2, 2, basis.terms[::-1])
    trace = float(np.trace(gram_preimage_free(a, 2)).real)
    assert sos_norm(a, reversed_words)[0] == pytest.approx(trace, rel=1e-12)
    for frac in (0.4, 0.05):
        cert = approximate_free(a, frac * trace)
        assert cert.norm == "coeff-2-norm"
        assert cert.sos_norm_value == pytest.approx(trace, rel=1e-12)
        other = approximate(a, reversed_words, frac * trace)
        assert other.rank == cert.rank and other.basis == basis
        assert other.error == pytest.approx(cert.error, rel=1e-9, abs=1e-12)
        assert not SosCertificate.from_dict(json.loads(other.to_json())).verify()


def test_approximate_commutative_full_truncation(rng):
    a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 3)
    value, _ = sos_norm(a, basis)
    cert = approximate(a, basis, eps=value * 1.01)
    assert cert.rank == 0
    assert cert.error <= value * 1.01
    assert cert.norm == "sup-sphere"
    assert not cert.approximation
    # keeping every square leaves only the solver's residual, which the
    # declared error must still cover
    cert = approximate(a, basis, eps=0.5)
    assert not cert.verify(sample_points=2000)
    with pytest.raises(SolverError):
        approximate(a, basis, eps=1e-12)   # below that residual


def test_threshold_eigenvalues_kept_within_rank_allowance(monkeypatch):
    # a Gram spectrum (2, t, t) with t one ulp above eps: the rounding guard
    # of count_above would drop both t and declare error t > eps, although
    # the allowance (value / eps = 6, so 5 squares) has room to keep them.
    # The solver is replaced by that fixed Gram matrix.
    basis = square_basis(COMMUTATIVE, 3, 1)
    t = 0.5 * (1.0 + 2.0 ** -52)
    G = np.diag([2.0, t, t]).astype(complex)
    a = gram_map(G, basis)
    value = float(np.trace(G).real)
    sol = SdpSolution(matrix=G, objective=value, dual=np.zeros(6), dual_objective=value,
                      primal_residual=0.0, gap=0.0, status=SolveStatus.OPTIMAL, iterations=0)
    monkeypatch.setattr(approx_module, "sos_norm", lambda a, basis, options=None: (value, sol))
    cert = approximate(a, basis, eps=0.5)
    assert cert.allowed_rank == 5
    assert cert.error <= 0.5
    assert cert.rank == 3
    assert not cert.verify(sample_points=500)
    # the count stops at the cap, and the Schatten-inf truncation keeps them too
    assert linalg.count_above(np.array([2.0, t, t]), 0.5, 5) == 3
    assert linalg.count_above(np.array([2.0, t, t]), 0.5, 1) == 1
    Mp = linalg.truncate_rank(G.real, 0.5, math.inf)
    assert linalg.schatten_norm(G.real - Mp, math.inf) <= 0.5


def test_approximate_sphere_monomial_square_sums():
    for d in (1, 2, 3):
        p = sum_of_monomial_squares(3, d)
        cert = approximate_sphere(p, 1.0)
        value = cert.sos_norm_value
        assert cert.rank < value / 1.0 + 1e-9
        assert cert.rank <= math.comb(d + 2, 2)
        assert cert.error <= 1.0
        assert not cert.verify(sample_points=2000)


def test_approximate_sphere_power_square():
    p = Polynomial.monomial(3, (6, 0, 0))  # (x1^3)^2
    cert = approximate_sphere(p, 0.5)
    assert cert.rank == 1
    assert cert.error == pytest.approx(0.0, abs=1e-7)


def test_approximate_sphere_p31_small_eps():
    p = sum_of_monomial_squares(3, 1)
    cert = approximate_sphere(p, 0.5)
    assert cert.theoretical_bound == pytest.approx(6.0, rel=1e-5)
    assert cert.rank <= 3  # dim V caps the square count
    assert not cert.verify(sample_points=1000)


def test_approximate_rejects_infeasible():
    x1, x2, _ = variables(COMMUTATIVE, 3)
    with pytest.raises(NotSosError) as err:
        approximate_sphere(x1 * x1 - x2 * x2, 0.5)
    assert err.value.certificate is not None


def test_approximate_any_basis_certifies():
    # reversed, every-other-term and permuted bases of both flavors certify:
    # the constant 1 holds on any distinct degree-d terms.  The certificate
    # is written over the canonical basis and verifies after a JSON round
    # trip; a permuted basis keeps as many squares as the canonical one
    rng = np.random.default_rng(5)
    for flavor, n, d in ((COMMUTATIVE, 3, 2), (COMMUTATIVE, 2, 3), (FREE, 2, 2), (FREE, 3, 1)):
        canonical = square_basis(flavor, n, d)
        permuted = tuple(canonical.terms[i] for i in rng.permutation(canonical.size))
        for terms in (canonical.terms, canonical.terms[::-1], canonical.terms[::2], permuted):
            basis = SquareBasis(flavor, n, d, terms)
            a = Polynomial.zero(flavor, n)
            for _ in range(2):
                q = random_square(rng, basis)
                a = a + q.involution() * q
            value, _ = sos_norm(a, basis)
            cert = approximate(a, basis, 0.3 * value)
            clone = SosCertificate.from_dict(json.loads(cert.to_json()))
            assert clone.basis == canonical and clone.rank == cert.rank
            assert not clone.verify(sample_points=500), (flavor, n, d, terms)
            assert 0 < clone.rank < clone.theoretical_bound
            if terms == permuted:
                assert cert.rank == approximate(a, canonical, 0.3 * value).rank


def test_approximate_scaled_basis_rejected(rng):
    # a basis whose exponents are doubled is no degree-d basis: SquareBasis
    # refuses it as declared, and at its true degree 2d its squares have
    # degree 4d, so approximate asks for a degree-4d input and refuses the
    # degree-2d one
    a, basis = random_sos(rng, COMMUTATIVE, 2, 1, 2)
    scaled = tuple(tuple(2 * e for e in t) for t in basis.terms)
    with pytest.raises(ValueError, match="is not of degree 1 in 2 variables"):
        SquareBasis(COMMUTATIVE, 2, 1, scaled)
    with pytest.raises(ValueError, match="homogeneous of degree 4"):
        approximate(a, SquareBasis(COMMUTATIVE, 2, 2, scaled), 1.0)


def test_certificate_json_roundtrip(rng):
    a, _ = random_sos(rng, FREE, 2, 2, 2)
    cert = approximate_free(a, 1.0)
    clone = SosCertificate.from_dict(json.loads(cert.to_json()))
    assert clone.rank == cert.rank
    assert clone.error == cert.error
    assert clone.schatten_p == cert.schatten_p
    assert clone.input == cert.input
    assert not clone.verify()


def _sphere_certificate_dict():
    a, basis = random_sos(np.random.default_rng(3), COMMUTATIVE, 3, 1, 2)
    return json.loads(approximate(a, basis, 0.3 * sos_norm(a, basis)[0]).to_json())


# one corruption of a valid certificate per check of the re-read, and the field it names
CERTIFICATE_DEFECTS = {
    "error-nan": (lambda d: d.update(error=math.nan), "error"),
    "eps-and-error-nan": (lambda d: d.update(eps=math.nan, error=math.nan), "error"),
    "norm-unknown": (lambda d: d.update(norm="bogus"), "norm"),
    "bound-infinite": (lambda d: d.update(theoretical_bound=math.inf), "theoretical_bound"),
    "sos-norm-nan": (lambda d: d.update(sos_norm_value=math.nan), "sos_norm_value"),
    "schatten-p-of-other-norm": (lambda d: d.update(schatten_p=2.0), "schatten_p"),
    "allowed-rank-off-cap": (lambda d: d.update(allowed_rank=d["allowed_rank"] + 1),
                             "allowed_rank"),
    "square-too-long": (lambda d: d["squares"][0].append([1.0, 0.0]), "squares"),
    "basis-n-vars": (lambda d: d["basis"].update(n_vars=2), "input"),
    "basis-flavor": (lambda d: d["basis"].update(flavor=FREE), "input"),
    # a term outside the product space the certificate is checked in
    "input-other-degree": (lambda d: d["input"]["terms"][0].update(term=[4, 0, 0]), "input"),
    # numbers of the wrong kind are refused, not truncated or coerced
    "basis-degree-fraction": (lambda d: d["basis"].update(degree=d["basis"]["degree"] + 0.9),
                              "basis.degree"),
    "basis-n-vars-boolean": (lambda d: d["basis"].update(n_vars=True), "basis.n_vars"),
    "allowed-rank-fraction": (lambda d: d.update(allowed_rank=d["allowed_rank"] + 0.5),
                              "allowed_rank"),
    "iterations-string": (lambda d: d.update(solver_iterations=str(d["solver_iterations"])),
                          "solver_iterations"),
    "error-string": (lambda d: d.update(error=str(d["error"])), "error"),
    "eps-boolean": (lambda d: d.update(eps=True), "eps"),
    "eps-huge-integer": (lambda d: d.update(eps=10 ** 400), "eps"),
    "square-entry-string": (lambda d: d["squares"][0][0].__setitem__(0, "1"), "squares"),
    # missing or mis-shaped fields are named too
    "eps-missing": (lambda d: d.pop("eps"), "eps"),
    "basis-degree-missing": (lambda d: d["basis"].pop("degree"), "basis.degree"),
    "square-entry-short": (lambda d: d["squares"][0].__setitem__(0, [1.0]), "squares"),
    "squares-null": (lambda d: d.update(squares=None), "squares"),
}


@pytest.mark.parametrize("defect", sorted(CERTIFICATE_DEFECTS))
def test_certificate_reread_refuses_malformed_fields(defect):
    data = _sphere_certificate_dict()
    assert not SosCertificate.from_dict(data).verify(sample_points=500)
    corrupt, name = CERTIFICATE_DEFECTS[defect]
    corrupt(data)
    with pytest.raises(ValueError, match=f"certificate field '{name}'"):
        SosCertificate.from_dict(data)


@pytest.mark.parametrize("flavor, n", [(COMMUTATIVE, 3), (FREE, 2)])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_certificate_reread_refuses_non_finite_squares(flavor, n, value):
    # json reads NaN and Infinity: the re-read names the field, where
    # verify() would otherwise fail inside the Gram map
    a, basis = random_sos(np.random.default_rng(3), flavor, n, 1, 2)
    data = approximate(a, basis, 0.3 * sos_norm(a, basis)[0]).to_dict()
    data["squares"][0][0][1] = value
    text = json.dumps(data)
    assert json.dumps(value) in text
    with pytest.raises(ValueError, match="certificate field 'squares' must be finite"):
        SosCertificate.from_dict(json.loads(text))


def test_certificate_approximation_is_the_sum_of_its_squares():
    # the declared approximation is the Gram map of the squares' S* S, bit for bit
    for seed in range(10):
        for flavor, n in ((COMMUTATIVE, 3), (FREE, 2)):
            a, basis = random_sos(np.random.default_rng(seed), flavor, n, 2, 3)
            cert = approximate(a, basis, 0.3 * sos_norm(a, basis)[0])
            assert cert.rank > 0 and cert.approximation == cert.reassembled(), (seed, flavor)


def test_certified_numbers_pass_no_polynomial_arithmetic(monkeypatch):
    # approximate, pythagoras_upper_bound and verify read what they certify
    # in the Gram space: with Polynomial +, - and unary - refused they still
    # run, on inputs built before the refusal
    cases = [random_sos(np.random.default_rng(seed), flavor, n, 2, 3)
             for seed, (flavor, n) in enumerate(((COMMUTATIVE, 3), (COMMUTATIVE, 2), (FREE, 2)))]
    values = [sos_norm(a, basis)[0] for a, basis in cases]

    def refused(*args):
        raise AssertionError("polynomial arithmetic under a certified number")

    for name in ("__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(Polynomial, name, refused)
    for (a, basis), value in zip(cases, values):
        cert = approximate(a, basis, 0.3 * value)
        assert cert.verify(sample_points=200) == [], basis
        w = pythagoras_upper_bound(a, basis)
        assert w.count <= w.bound and w.residual <= 1e-8 * a.coeff_two_norm(), basis


def test_certificate_verify_fails_on_nan_and_unknown_fields():
    cert = SosCertificate.from_dict(_sphere_certificate_dict())
    for changes in ({"error": math.nan}, {"eps": math.nan, "error": math.nan},
                    {"theoretical_bound": math.nan}, {"norm": "bogus"}):
        assert replace(cert, **changes).verify(sample_points=500), changes


def test_certificate_soundness_randomized(rng):
    # reassembly and declared error re-checked across flavors and degrees
    for flavor, n, dmax in ((FREE, 2, 3), (COMMUTATIVE, 3, 3)):
        for d in range(1, dmax + 1):
            a, basis = random_sos(rng, flavor, n, d, 2)
            if flavor == FREE:
                trace = free_trace_oracle(a, basis)
                cert = approximate_free(a, 0.35 * trace)
            else:
                value, _ = sos_norm(a, basis)
                cert = approximate(a, basis, 0.35 * value)
            assert not cert.verify(sample_points=500), (flavor, d)
            assert cert.rank <= max(cert.allowed_rank, 0)


def _seeded_certificate_inputs(monkeypatch, tmp_path):
    """(input, eps) of the CI's 90 seeded certificates (seeds 0..4, r = 1..3,
    commutative n=3 d=2 and free n=2 d=2, eps 0.05, 0.3 and 0.9 x sos-norm)
    whose solve converges, then of the approx ops of the certify benchmark
    at seeds 1, 2 and 3, as `perfbench/workloads.certify_ops` draws them."""
    inputs = []
    for seed in range(5):
        for flavor, n in ((COMMUTATIVE, 3), (FREE, 2)):
            for r in (1, 2, 3):
                a, basis = random_sos(np.random.default_rng(seed), flavor, n, 2, r)
                value, sol = sos_norm(a, basis)
                if sol.status is SolveStatus.OPTIMAL:
                    inputs += [(a, frac * value) for frac in (0.05, 0.3, 0.9)]
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    def op(kind, flavor, n, coeffs, eps, *rest):
        inputs.append((Polynomial(flavor, n, coeffs), eps))
        return SimpleNamespace()

    monkeypatch.setattr(workloads, "_cli_op", op)
    for seed in (1, 2, 3):
        workloads.certify_ops(seed, 100, str(tmp_path))
    return inputs


def test_declared_error_covers_the_undropped_residual(monkeypatch, tmp_path):
    # the declared error is at least the residual a - gram_map(P) that the
    # solve leaves, P the PSD part of its matrix, read by the dense oracle
    # with nothing dropped, plus the dropped tail ||w[k:]||_p, k the square
    # count; 1e-12 relative is the rounding of the norms' sums
    inputs = _seeded_certificate_inputs(monkeypatch, tmp_path)
    assert len(inputs) == 87 + 3 * 200
    for a, eps in inputs:
        basis = homogeneous_basis(a)
        cert = approximate(a, basis, eps)
        dec = linalg.clipped_spectrum(sos_norm(a, basis)[1].matrix)
        residual = gram_residual(a, basis, dec.reconstruct(), cert.norm)
        tails = linalg.schatten_tails(dec.eigenvalues, cert.schatten_p)
        dropped = tails[cert.rank] if cert.rank < len(tails) else 0.0
        assert cert.error >= (residual + dropped) * (1.0 - 1e-12), (a, eps)
        assert cert.verify() == [], (a, eps)


def test_pythagoras_commutative_bound(rng):
    for _ in range(5):
        a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 4)
        w = pythagoras_upper_bound(a, basis)
        assert w.bound == 4  # ceil(sqrt(15))
        assert 1 <= w.count <= 4
        assert w.residual <= 1e-6


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pythagoras_witness_sweep(d):
    # every seeded witness reaches its bound and reproduces its input
    for seed in range(3):
        for r in (3, 5):
            a, basis = random_sos(np.random.default_rng(100 * d + 10 * seed + r), COMMUTATIVE, 3, d, r)
            w = pythagoras_upper_bound(a, basis)
            assert (w.count, w.message) == (w.bound, ""), (seed, r)
            assert w.residual <= 1e-8 * max(1.0, linalg.two_norm(coefficients(a, basis))), (seed, r)


def test_pythagoras_reduction_at_large_scale():
    # the boundary-crossing test of rank reduction is relative to the
    # eigenvalues it walks on: at 2^50 it reaches the bound as at unit scale
    for seed in (1, 2, 3):
        a, basis = random_sos(np.random.default_rng(seed), COMMUTATIVE, 3, 2, 5)
        for k in (0, 50, 60, 200):
            w = pythagoras_upper_bound(2.0 ** k * a, basis)
            assert (w.count, w.bound, w.message) == (4, 4, ""), (seed, k)
            assert w.residual <= 1e-9 * 2.0 ** k


def test_pythagoras_free_is_unique_gram_rank(rng):
    a, basis = random_sos(rng, FREE, 2, 2, 2)
    w = pythagoras_upper_bound(a, basis)
    assert w.count == free_pythagoras_number(a, 2)
    assert w.residual <= 1e-9
    assert "unique" in w.message
    z1, z2 = variables(FREE, 2)
    q = z1 * z2 + 0.5 * z2 * z2
    w = pythagoras_upper_bound(q.involution() * q, square_basis(FREE, 2, 2))
    assert w.count == 1  # single square recovered exactly


def test_pythagoras_free_on_reversed_words():
    # the squares are labelled with the caller's words: reversing them keeps
    # the count and the exact reassembly, in both flavors
    for flavor, n in ((FREE, 2), (COMMUTATIVE, 3)):
        a, basis = random_sos(np.random.default_rng(3), flavor, n, 2, 2)
        canonical = pythagoras_upper_bound(a, basis)
        reversed_words = pythagoras_upper_bound(
            a, SquareBasis(flavor, n, 2, basis.terms[::-1]))
        assert canonical.residual <= 1e-9 and reversed_words.residual <= 1e-9, flavor
        assert reversed_words.count == canonical.count
    # a free non-SOS input is refused with a checked certificate
    z1, z2 = variables(FREE, 2)
    a = z1 * z2 * z2 * z1 - z2 * z1 * z1 * z2
    with pytest.raises(NotSosError) as err:
        pythagoras_upper_bound(a, square_basis(FREE, 2, 2))
    assert err.value.certificate.objective < 0 and err.value.certificate.psd_margin >= -1e-12


def test_pythagoras_rank_reduction_fallback(monkeypatch):
    # with no constraint-orthogonal direction the reduction stalls at once:
    # the witness keeps the feasible matrix it had, above the bound, and says so
    monkeypatch.setattr(sdp, "_constraint_orthogonal", lambda K: None)
    a, basis = random_sos(np.random.default_rng(20240901), COMMUTATIVE, 3, 2, 4)
    w = pythagoras_upper_bound(a, basis)
    assert (w.count, w.bound) == (6, 4)
    assert w.message == ("rank reduction stalled at rank 6: "
                         "no constraint-orthogonal direction at rank 6")
    assert w.residual <= 1e-8
    assert linalg.two_norm(coefficients(a, basis) - products(w.gram(), basis)) == w.residual


def test_pythagoras_count_never_beats_brute_force(rng):
    # desk-scale oracle: scan the one-parameter spectrahedron in 2 variables
    basis = square_basis(COMMUTATIVE, 2, 1)
    p21 = sum_of_monomial_squares(2, 1)
    exact = min_rank_two_vars_degree_one(p21)
    assert exact == 1  # x1^2 + x2^2 = (x1 + i x2)*(x1 + i x2) in the Hermitian sense
    w = pythagoras_upper_bound(p21, basis)
    assert exact <= w.count <= w.bound == 2
    assert w.residual <= 1e-7
    for _ in range(3):
        q = random_square(rng, basis)
        a = q.involution() * q
        exact = min_rank_two_vars_degree_one(a)
        w = pythagoras_upper_bound(a, basis)
        assert exact <= w.count <= w.bound


def test_bound_report_examples():
    r = bound_report(COMMUTATIVE, 3, 2, eps=1.0, sos_norm_value=3.0)
    assert (r.dim_v, r.dim_vv, r.sqrt_dim_bound) == (6, 15, 4)
    r = bound_report(FREE, 2, 3, eps=1.0, sos_norm_value=8.0)
    assert (r.dim_v, r.dim_vv, r.sqrt_dim_bound) == (8, 64, 8)
    # boundary: eps equal to the sos-norm makes the strict cap vanish
    r = bound_report(COMMUTATIVE, 3, 2, eps=3.0, sos_norm_value=3.0)
    assert r.theorem_bound == pytest.approx(1.0)
    assert r.theorem_allowed_rank == 0
    with pytest.raises(ValueError):
        bound_report(COMMUTATIVE, 3, 2, eps=0.0, sos_norm_value=1.0)


def test_eps_must_be_finite_and_positive(monkeypatch):
    # one check at the library boundary, before any solve: a NaN eps used
    # to fail converting NaN to an integer after the solve, an infinite one
    # to return allowed rank -1
    solves = []
    monkeypatch.setattr(approx_module, "sos_norm", lambda *args, **kw: solves.append(args))
    p = sum_of_monomial_squares(3, 1)
    for eps in (math.nan, math.inf, 0, -1):
        message = re.escape(f"eps must be a finite number > 0, got {eps!r}")
        with pytest.raises(ValueError, match=message):
            approximate(p, square_basis(COMMUTATIVE, 3, 1), eps)
        with pytest.raises(ValueError, match=message):
            bound_report(COMMUTATIVE, 3, 2, eps, 1.0)
        with pytest.raises(ValueError, match=message):
            linalg.truncate_rank(np.eye(2), eps, 2.0)
    assert solves == []
    for value in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="sos_norm_value must be a finite number >= 0"):
            bound_report(COMMUTATIVE, 3, 2, 1.0, value)


def test_over_cap_basis_refused_before_the_solve(monkeypatch):
    # two words of a basis whose canonical enumeration (20^4 words) exceeds
    # the cap: the certificate would be written over the whole of it
    solves = []
    monkeypatch.setattr(approx_module, "sos_norm", lambda *args, **kw: solves.append(args))
    basis = SquareBasis(FREE, 20, 4, ((0, 1, 2, 3), (3, 2, 1, 0)))
    a = gram_map(np.diag([2.0, 1.0]), basis)
    with pytest.raises(BasisSizeError, match="basis would have 160000 entries"):
        approximate(a, basis, 0.5)
    assert solves == []


def test_bound_report_free_min_certified():
    r = bound_report(FREE, 2, 2, eps=1.0, sos_norm_value=4.0)
    assert r.theorem_bound == pytest.approx(16.0)
    # free certificates are measured in the coefficient 2-norm: nine unit
    # eigenvalues within eps = 2 keep 5 squares, under (9/2)^2 but not 9/2
    cert = approximate_free(gram_map(np.eye(9), square_basis(FREE, 3, 2)), 2.0)
    r = bound_report(FREE, 3, 2, 2.0, 9.0)
    assert cert.rank == 5 and cert.theoretical_bound == pytest.approx(20.25)
    assert r.theorem_bound == pytest.approx(cert.theoretical_bound)
