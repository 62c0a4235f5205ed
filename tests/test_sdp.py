import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    CHOI_LAM_S,
    MOTZKIN,
    ROBINSON,
    free_farkas_holds,
    free_input,
    free_trace_oracle,
    random_sos,
    random_square,
)
from oracles import constraint_matrices, is_hermitian
from sos_approx import linalg, sdp
from sos_approx.approx import approximate, pythagoras_upper_bound
from sos_approx.gram import (HERMITIAN_TOL, GramConstraints, NotHermitianError, SquareBasis,
                             build_constraints, gram_map, square_basis)
from sos_approx.poly import (COMMUTATIVE, FREE, Polynomial, sum_of_monomial_squares,
                             variables)
from sos_approx.sdp import (
    CHECK_EVERY,
    SolveStatus,
    SolverError,
    SolverOptions,
    _trace_min,
    parse_config_file,
    rank_reduce,
    sos_feasible,
    sos_norm,
)


def test_free_two_word_example():
    z1, z2 = variables(FREE, 2)
    p = z2 * z1 * z1 * z2 + z1 * z2 * z2 * z1
    basis = square_basis(FREE, 2, 2)
    value, sol = sos_norm(p, basis)
    assert sol.status is SolveStatus.OPTIMAL
    # closed form: the Gram map is injective here, trace is forced
    assert value == pytest.approx(2.0, abs=1e-6)


def test_forced_diagonal_anchor():
    basis = square_basis(COMMUTATIVE, 3, 1)
    value, sol = sos_norm(sum_of_monomial_squares(3, 1), basis)
    assert sol.status is SolveStatus.OPTIMAL
    assert value == pytest.approx(3.0, abs=1e-5)
    assert sol.primal_residual <= 1e-7 * (1 + np.linalg.norm(build_constraints(
        sum_of_monomial_squares(3, 1), basis).targets))


def test_square_gives_rank_one_value(rng):
    basis = square_basis(COMMUTATIVE, 3, 1)
    for _ in range(3):
        q = random_square(rng, basis)
        a = q.involution() * q
        value, sol = sos_norm(a, basis)
        assert sol.status is SolveStatus.OPTIMAL
        assert value <= q.coeff_two_norm() ** 2 + 1e-6 * (1 + value)


def test_solution_matrix_reproduces_input(rng):
    # low ranks give thin intersections (no Slater point): the infeasibility
    # test inside the solver must not fire on them
    for d in (1, 2, 3):
        for r in (1, 2, 3):
            a, basis = random_sos(rng, COMMUTATIVE, 3, d, r)
            value, sol = sos_norm(a, basis)
            assert sol.status is SolveStatus.OPTIMAL, (d, r, sol.message)
            residual = (gram_map(sol.matrix, basis) - a).coeff_two_norm()
            assert residual <= 1e-7 * (1 + a.coeff_two_norm())
            w = linalg.eig_hermitian(sol.matrix).eigenvalues
            assert w.min() >= -1e-8 * (1 + abs(w).max())


def test_zero_polynomial():
    basis = square_basis(COMMUTATIVE, 2, 1)
    value, sol = sos_norm(Polynomial.zero(COMMUTATIVE, 2), basis)
    assert value == 0.0 and sol.status is SolveStatus.OPTIMAL
    feas = sos_feasible(Polynomial.zero(COMMUTATIVE, 2), basis)
    assert feas.feasible and not feas.matrix.any()


def test_free_oracle_match(rng):
    for _ in range(10):
        a, basis = random_sos(rng, FREE, 2, 2, 2)
        expected = free_trace_oracle(a, basis)
        value, sol = sos_norm(a, basis)
        assert sol.status is SolveStatus.OPTIMAL
        assert value == pytest.approx(expected, rel=1e-6)


def test_feasible_monomial_square_sums():
    for d in (1, 2, 3):
        p = sum_of_monomial_squares(3, d)
        basis = square_basis(COMMUTATIVE, 3, d)
        result = sos_feasible(p, basis)
        assert result.feasible
        cons = build_constraints(p, basis)
        assert cons.residual(result.matrix) <= 1e-6
        assert linalg.eig_hermitian(result.matrix).eigenvalues.min() >= -1e-10


def test_indefinite_rejected_with_certificate():
    x1, x2, _ = variables(COMMUTATIVE, 3)
    a = x1 * x1 - x2 * x2
    basis = square_basis(COMMUTATIVE, 3, 1)
    result = sos_feasible(a, basis)
    assert not result.feasible
    cert = result.certificate
    cons = build_constraints(a, basis)
    E = cons.adjoint(cert.values)
    # separating functional: PSD on squares, negative at a
    assert linalg.eig_hermitian(E).eigenvalues.min() >= -1e-8
    assert cert.objective < -1e-8
    value, sol = sos_norm(a, basis)
    assert sol.status is SolveStatus.INFEASIBLE and math.isnan(value)
    # the improving ray makes the dual unbounded
    assert sol.dual_objective == math.inf


# nonnegative forms that are not sums of squares
SWAPPED_CHOI_LAM = {(e[1], e[0], e[2]): c for e, c in CHOI_LAM_S.items()}   # x <-> y
NON_SOS_FORMS = (MOTZKIN, CHOI_LAM_S, SWAPPED_CHOI_LAM, ROBINSON)


def test_non_sos_forms_certified_within_step_bounds():
    # the splitting solver finds the separating functional itself, both
    # with the trace objective and with the zero objective of sos_feasible,
    # at a probe of the opening window, which the trace solve runs on the
    # zero objective: the same step for both
    basis = square_basis(COMMUTATIVE, 3, 3)
    for coeffs, steps in zip(NON_SOS_FORMS, (15, 10, 10, 5)):
        form = Polynomial(COMMUTATIVE, 3, coeffs)
        cons = build_constraints(form, basis)
        value, sol = sos_norm(form, basis)
        assert sol.status is SolveStatus.INFEASIBLE and math.isnan(value)
        assert sol.iterations == steps, (coeffs, sol.iterations)
        assert sol.trace[-1].iteration == sol.iterations
        result = sos_feasible(form, basis)
        assert not result.feasible and not result.matrix.any()
        assert result.iterations == steps, (coeffs, result.iterations)
        for y in (sol.certificate.values, result.certificate.values):
            w = np.linalg.eigvalsh(cons.adjoint(y))
            assert w.min() >= -1e-8 * np.abs(w).max()
            assert cons.targets @ y < 0


def test_feasibility_returns_the_solves_solution():
    # sos_feasible hands back the solve's own result, status, message and
    # trace included; a commutative solve carries the system it solved
    z1, z2 = variables(FREE, 2)
    cases = (
        (sum_of_monomial_squares(3, 2), square_basis(COMMUTATIVE, 3, 2), SolveStatus.OPTIMAL),
        (Polynomial(COMMUTATIVE, 3, MOTZKIN), square_basis(COMMUTATIVE, 3, 3),
         SolveStatus.INFEASIBLE),
        (*random_sos(np.random.default_rng(2), FREE, 2, 2, 2), SolveStatus.OPTIMAL),
        (z1 * z1 - z2 * z2, square_basis(FREE, 2, 1), SolveStatus.INFEASIBLE),
        (Polynomial.zero(FREE, 2), square_basis(FREE, 2, 1), SolveStatus.OPTIMAL),
    )
    for a, basis, status in cases:
        sol = sos_feasible(a, basis)
        assert isinstance(sol, sdp.SdpSolution) and sol.status is status, (a, basis)
        assert sol.feasible == (sol.status is SolveStatus.OPTIMAL)
        if sol.feasible:
            assert sol.message == ("" if a else "zero polynomial")
            assert sol.certificate is None
        else:
            assert sol.message.startswith("not a sum of squares from this basis;")
            assert sol.certificate is not None and not sol.matrix.any()
        assert (sol.constraints is None) == (basis.flavor == FREE)
        if basis.flavor == FREE:
            assert sol.trace == [] and sol.iterations == 0
        else:
            assert sol.iterations > 0 and sol.trace[-1].iteration == sol.iterations
            assert sol.constraints.k == build_constraints(a, basis).k


def test_certifying_probe_is_traced():
    # Motzkin's form is certified at the probe of step 15, which leaves its
    # record: no gap (the window has no objective), no accelerated point
    cons = build_constraints(Polynomial(COMMUTATIVE, 3, MOTZKIN), square_basis(COMMUTATIVE, 3, 3))
    for minimize_trace in (True, False):
        sol = _trace_min(cons, SolverOptions(), minimize_trace)
        assert sol.status is SolveStatus.INFEASIBLE and sol.iterations == 15
        (record,) = sol.trace
        assert record.iteration == sol.iterations and record.accelerated == 0
        assert math.isnan(record.gap) and record.primal_residual == sol.primal_residual
        assert record.rho > 0 and record.r_split > 0 and record.s_dual > 0


def _witness_holds(a, basis, M):
    """Independent check of an `optimal` Gram matrix: it reproduces a and is PSD."""
    residual = (gram_map(M, basis) - a).coeff_two_norm()
    w = np.linalg.eigvalsh(M)
    return residual <= 1e-6 * (1 + a.coeff_two_norm()) and w.min() >= -1e-8 * np.abs(w).max()


def test_low_rank_feasible_inputs_never_rejected():
    # low-rank inputs meet the cone only at its boundary; every check that
    # misses the primal tolerance tries a certificate, and none may pass.
    # Without acceleration the trace solve stalled to the iteration cap on
    # four of them, testing a candidate at each of its 2,000 checks: the
    # likeliest to pass wrongly.  Each may now end optimal or still stall
    # (ROADMAP item 8); an optimal one must carry a valid witness
    stalled = {(3, 3, 2, 1), (5, 3, 2, 1), (5, 3, 3, 1), (7, 3, 3, 1)}     # seed, n, d, r
    cases = [(seed, COMMUTATIVE, 3, d, r) for seed in range(10) for d in (2, 3) for r in (1, 2)]
    cases += [(seed, FREE, 2, 2, 1) for seed in range(10)]
    for seed, flavor, n, d, r in cases:
        a, basis = random_sos(np.random.default_rng(seed), flavor, n, d, r)
        _, sol = sos_norm(a, basis)
        case = (seed, flavor, d, r, sol.message)
        assert sol.status is not SolveStatus.INFEASIBLE, case
        if (seed, n, d, r) not in stalled:
            assert sol.status is SolveStatus.OPTIMAL, case
        if sol.status is SolveStatus.OPTIMAL:
            assert _witness_holds(a, basis, sol.matrix), case
        assert sos_feasible(a, basis).feasible, (seed, flavor, d, r)


def test_seeded_sweep_solves_without_rejections():
    # seeds 0..4 of the 480-solve sweep: no input is rejected, every optimal
    # Gram matrix is PSD and reproduces its input, and the optimal solves
    # take at most 55% of the 30,900 steps they took without acceleration
    # (11,650 with it)
    total = 0
    for seed in range(5):
        for flavor, n, degrees in ((COMMUTATIVE, 3, (1, 2, 3)), (COMMUTATIVE, 2, (1, 2, 3)),
                                   (FREE, 2, (1, 2))):
            for d in degrees:
                for r in (1, 2, 3):
                    a, basis = random_sos(np.random.default_rng(seed), flavor, n, d, r)
                    _, sol = sos_norm(a, basis)
                    case = (seed, flavor, n, d, r, sol.message)
                    assert sol.status is not SolveStatus.INFEASIBLE, case
                    if sol.status is SolveStatus.OPTIMAL:
                        assert _witness_holds(a, basis, sol.matrix), case
                        total += sol.iterations
    assert total <= 0.55 * 30_900, total


def _farkas_holds(form, y):
    """Independent check of sum_l y_l A_l >= 0 and targets . y < 0: the A_l of
    a commutative monomial basis put 1 on each cell (i, j) with v_i v_j = tau_l."""
    basis = square_basis(COMMUTATIVE, form.n_vars, form.degree() // 2)
    assert y.shape == (len(basis.product_terms),)
    slot = {t: l for l, t in enumerate(basis.product_terms)}
    terms = basis.terms
    E = np.array([[y[slot[tuple(p + q for p, q in zip(ti, tj))]] for tj in terms] for ti in terms])
    w = np.linalg.eigvalsh(E)
    value = sum(y[slot[t]] * c.real for t, c in form.items())
    return w.min() >= -1e-8 * np.abs(w).max() and value < 0


def test_rejections_certified_on_full_system():
    # the block solve drops the equations between blocks; its certificates
    # still cover all k of them (zero there) and hold on the full system
    for coeffs in (MOTZKIN, CHOI_LAM_S, ROBINSON):
        form = Polynomial(COMMUTATIVE, 3, coeffs)
        value, sol = sos_norm(form, square_basis(COMMUTATIVE, 3, 3))
        assert sol.status is SolveStatus.INFEASIBLE and math.isnan(value)
        assert _farkas_holds(form, sol.certificate.values)


def _shifted_forms(seed):
    """The six shifted forms of the benchmark's `reject` request for this seed,
    drawn in the same order: at each d = 1, 2, 3 two sums of 2-4 random
    squares a, minus c |x|^{2d} with c = min + 0.01 (median - min) of a over
    4,000 sampled sphere points, so each is negative somewhere on the sphere."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((4000, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    norm_sq = sum_of_monomial_squares(3, 1)
    forms = []
    for d in (1, 2, 3):
        power = norm_sq
        for _ in range(d - 1):
            power = power * norm_sq
        for _ in range(2):
            a, _basis = random_sos(rng, COMMUTATIVE, 3, d, 2 + int(rng.integers(0, 3)))
            values = a.evaluate_batch(points).real
            forms.append(a - (values.min() + 0.01 * (np.median(values) - values.min())) * power)
    return forms


def test_shifted_forms_certified_on_the_psd_boundary():
    # their candidates clear the value margin long before the PSD margin; the
    # shift along Gaussian moments certifies the d = 2, 3 forms of the
    # benchmark's seeds 1-3 in the opening window, and those of every seed
    # here with certificates that sit on the PSD boundary
    window_steps = {1: [10, 15, 20, 20], 2: [15, 15, 15, 15], 3: [20, 10, 20, 15]}
    for seed in range(1, 11):
        for i, form in enumerate(_shifted_forms(seed)[2:]):
            basis = square_basis(COMMUTATIVE, 3, form.degree() // 2)
            cons = build_constraints(form, basis)
            _, sol = sos_norm(form, basis)
            result = sos_feasible(form, basis)
            assert sol.status is SolveStatus.INFEASIBLE and not result.feasible
            if seed in window_steps:
                steps = window_steps[seed][i]
                assert (sol.iterations, result.iterations) == (steps, steps), (seed, i)
            for cert in (sol.certificate, result.certificate):
                assert _farkas_holds(form, cert.values)
                scale = np.abs(np.linalg.eigvalsh(cons.adjoint(cert.values))).max()
                assert cert.psd_margin >= -1e-12 * scale


def test_unfactorable_shift_leaves_plain_candidates(monkeypatch):
    # when an S0 block cannot be factored (its Gaussian moments are too
    # ill-conditioned at high degree) the shift is skipped, and the solve
    # goes on, past the opening window, to a plain candidate that verifies.
    # The first d = 2 form of seed 1 is certified in the window (at step 10,
    # a probe) only with the shift
    form = _shifted_forms(1)[2]
    basis = square_basis(COMMUTATIVE, 3, 2)
    assert sos_norm(form, basis)[1].iterations == 10

    def fail(a, b, **kwargs):
        # LAPACK's info n + i: the leading minor of order i of b is not positive definite
        return np.zeros(len(a)), a, len(a) + 1

    monkeypatch.setattr(linalg._lapack(), "dsygvd", fail)
    _, sol = sos_norm(form, basis)
    assert sol.status is SolveStatus.INFEASIBLE and sol.iterations > CHECK_EVERY
    assert _farkas_holds(form, sol.certificate.values)


def test_opening_window_steps_are_feasibility_steps(rng):
    # the window runs the zero objective whatever the starting rho, so the
    # trace solve's step 25 is the feasibility solve's, bit for bit
    a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 3)
    for p, b in ((a, basis), (sum_of_monomial_squares(3, 3), square_basis(COMMUTATIVE, 3, 3))):
        cons = build_constraints(p, b)
        trace_sol = _trace_min(cons, SolverOptions(max_iter=CHECK_EVERY), True)
        feasible_sol = _trace_min(cons, SolverOptions(max_iter=CHECK_EVERY), False)
        assert trace_sol.iterations == feasible_sol.iterations == CHECK_EVERY
        assert np.array_equal(trace_sol.matrix, feasible_sol.matrix)
        assert trace_sol.primal_residual == feasible_sol.primal_residual


def test_certificate_tested_right_after_rho_change():
    # the last d = 3 form of seed 7 outlasts the opening window, and rho
    # changes at the check before its certificate; the dual change over the
    # steps after the change, all at the new rho, is the certificate
    form = _shifted_forms(7)[5]
    _, sol = sos_norm(form, square_basis(COMMUTATIVE, 3, 3))
    assert sol.status is SolveStatus.INFEASIBLE and sol.iterations > CHECK_EVERY
    assert sol.trace[-1].rho != sol.trace[-2].rho
    assert _farkas_holds(form, sol.certificate.values)


def test_free_inputs_decided_in_zero_steps():
    # the unique Gram matrix decides a free input without a step: certified
    # when its least eigenvalue clears the value margin, optimal when its PSD
    # part meets the tolerances, and inconclusive between
    for least in (-1e-1, -1e-5):
        a, basis = free_input(least)
        value, sol = sos_norm(a, basis)
        assert sol.status is SolveStatus.INFEASIBLE and sol.iterations == 0 and math.isnan(value)
        result = sos_feasible(a, basis)
        assert not result.feasible and result.iterations == 0
        for y in (sol.certificate.values, result.certificate.values):
            assert free_farkas_holds(a, basis, y), least
        assert sol.certificate.objective == pytest.approx(least, rel=1e-6)
        assert sol.dual_objective == math.inf
    a, basis = free_input(-1e-6)
    _, sol = sos_norm(a, basis)
    assert sol.status is SolveStatus.MAX_ITER and sol.iterations == 0
    assert "-1.000e-06" in sol.message
    with pytest.raises(SolverError, match="inconclusive"):
        sos_feasible(a, basis)
    for least in (-3e-7, -1e-8, 0.0):
        a, basis = free_input(least)
        value, sol = sos_norm(a, basis)
        assert sol.status is SolveStatus.OPTIMAL and sol.iterations == 0, least
        assert _witness_holds(a, basis, sol.matrix)
        # the trace of the PSD part, and the dual value tr(M) below it
        assert value == pytest.approx(9.0, rel=1e-12)
        assert sol.dual_objective == pytest.approx(9.0 + least, rel=1e-12)
        result = sos_feasible(a, basis)
        assert result.feasible and result.iterations == 0
        assert _witness_holds(a, basis, result.matrix)


def test_free_inputs_never_reach_the_loop(monkeypatch, rng):
    loop = sdp._trace_min

    def commutative_only(constraints, *args):
        if constraints.basis.flavor == FREE:
            raise AssertionError("a free input reached the ADMM loop")
        return loop(constraints, *args)

    monkeypatch.setattr(sdp, "_trace_min", commutative_only)
    for least in (-1e-1, -1e-6, 0.0):
        a, basis = free_input(least)
        assert sos_norm(a, basis)[1].iterations == 0
        if least == -1e-6:
            with pytest.raises(SolverError, match="inconclusive"):
                sos_feasible(a, basis)
        else:
            assert sos_feasible(a, basis).iterations == 0
    a, basis = random_sos(rng, FREE, 2, 2, 2)
    total = free_trace_oracle(a, basis)
    _, sol = sos_norm(a, basis)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.dual_objective == pytest.approx(total, rel=1e-12)
    assert pythagoras_upper_bound(a, basis).residual <= 1e-9
    assert approximate(a, basis, 0.5 * total).error <= 0.5 * total
    # commutative inputs still take the loop
    assert sos_norm(sum_of_monomial_squares(3, 1), square_basis(COMMUTATIVE, 3, 1))[1].iterations > 0


def test_free_solve_on_reversed_words(rng):
    # any order of the words: the one Gram matrix, permuted, and its trace
    for d in (1, 2, 3):
        a, basis = random_sos(rng, FREE, 2, d, 2)
        reversed_basis = SquareBasis(FREE, 2, d, basis.terms[::-1])
        value, sol = sos_norm(a, basis)
        value_r, sol_r = sos_norm(a, reversed_basis)
        assert sol.status is sol_r.status is SolveStatus.OPTIMAL
        assert value_r == pytest.approx(value, rel=1e-12)
        scale = np.abs(sol.matrix).max()
        assert np.abs(sol_r.matrix[::-1, ::-1] - sol.matrix).max() <= 1e-12 * scale
        witness = sos_feasible(a, basis).matrix
        witness_r = sos_feasible(a, reversed_basis).matrix
        assert np.abs(witness_r[::-1, ::-1] - witness).max() <= 1e-12 * scale


def test_free_solve_builds_no_product_table(rng):
    # a word basis's Gram matrix is read off the coefficients, cell by cell:
    # no solve on it builds the product table or a constraint system
    a, canonical = random_sos(rng, FREE, 2, 2, 2)
    basis = SquareBasis(FREE, 2, 2, canonical.terms)     # a fresh object, not the memoized one
    assert sos_norm(a, basis)[1].status is SolveStatus.OPTIMAL
    feas = sos_feasible(a, basis)
    assert feas.feasible and feas.constraints is None
    approximate(a, basis, 0.5 * free_trace_oracle(a, basis))
    pythagoras_upper_bound(a, basis)
    assert "_products" not in vars(basis)


def test_free_hermitian_test_is_the_polynomial_test(rng):
    # a - a* just inside and just outside HERMITIAN_TOL ||a||, on a diagonal
    # word's imaginary part and on one word of a conjugate pair: accepted or
    # refused as the reference oracles.is_hermitian decides
    a, basis = random_sos(rng, FREE, 2, 2, 2)
    tol = HERMITIAN_TOL * a.coeff_two_norm()
    palindrome, word = (0, 1, 1, 0), (0, 0, 1, 1)
    for factor, accepted in ((0.9, True), (1.1, False)):
        # ||a - a*|| is 2 delta on the palindrome and sqrt(2) delta on the pair
        for bump in (Polynomial(FREE, 2, {palindrome: 0.5j * factor * tol}),
                     Polynomial(FREE, 2, {word: factor * tol / math.sqrt(2.0)})):
            b = a + bump
            assert is_hermitian(b) is accepted
            if accepted:
                value, sol = sos_norm(b, basis)
                assert sol.status is SolveStatus.OPTIMAL
                assert value == pytest.approx(free_trace_oracle(a, basis), rel=1e-9)
            else:
                with pytest.raises(NotHermitianError):
                    sos_norm(b, basis)
                with pytest.raises(NotHermitianError):
                    sos_feasible(b, basis)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_inputs_solved_without_overflow(rng):
    # targets whose 2-norm overflows (1e200 squared) were refused; they are
    # solved in the steps of the unit-scale input, to its value times the scale
    a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 2)
    cases = [(a, basis), random_sos(rng, FREE, 2, 2, 2),
             (Polynomial(COMMUTATIVE, 3, MOTZKIN), square_basis(COMMUTATIVE, 3, 3))]
    for a, basis in cases:
        value, sol = sos_norm(a, basis)
        big_value, big = sos_norm(1e200 * a, basis)
        assert (big.status, big.iterations) == (sol.status, sol.iterations), a.flavor
        if sol.status is SolveStatus.INFEASIBLE:
            assert math.isnan(big_value) and _farkas_holds(1e200 * a, big.certificate.values)
        else:
            assert sol.status is SolveStatus.OPTIMAL
            assert abs(big_value / 1e200 - value) <= SolverOptions().tol_gap * (1.0 + value)
        feasible = sos_feasible(1e200 * a, basis)
        assert feasible.feasible is (sol.status is SolveStatus.OPTIMAL)
    # coefficients that overflowed to infinity are refused, not solved
    with pytest.raises(ValueError, match="too large"):
        sos_norm(1e300 * (1e300 * cases[1][0]), cases[1][1])


def _dense_reference(cons):
    """The same equations as one real block: the dense symmetric solve."""
    return GramConstraints(cons.basis, cons.targets)


def test_block_solve_matches_dense_reference():
    rng = np.random.default_rng(11)
    cases = [(sum_of_monomial_squares(3, d), square_basis(COMMUTATIVE, 3, d)) for d in range(1, 9)]
    cases += [random_sos(rng, COMMUTATIVE, 3, d, r) for d in (1, 2, 3) for r in (1, 2, 3)]
    # the rank-one d=2 input meets the cone only at its boundary, and both
    # solves stall at the cap on it; a lower cap keeps that comparison short
    options = SolverOptions(max_iter=5000)
    for a, basis in cases:
        cons = build_constraints(a, basis)
        dense_cons = _dense_reference(cons)
        assert len(dense_cons.block_system.index) == 1
        blocks = _trace_min(cons, options)
        dense = _trace_min(dense_cons, options)
        assert (blocks.status, blocks.iterations) == (dense.status, dense.iterations)
        assert blocks.objective == pytest.approx(dense.objective, rel=1e-9)
        assert blocks.matrix.shape == dense.matrix.shape == (basis.size, basis.size)
        assert blocks.dual.shape == (cons.k,)


def _unreduced(cons):
    """The same blocks without the variable swaps: one projection per block."""
    return GramConstraints(cons.basis, cons.targets, cons.blocks)


def test_orbit_solve_matches_unreduced_reference():
    # projecting one block per orbit takes the same steps as projecting
    # every block, and ends at the same value or the same rejection
    x, y, z = variables(COMMUTATIVE, 3)
    swapped = [x * x * y - 2 * y * z * z + y * y * y, x * y * y - 2 * x * z * z + x * x * x,
               z * z * z - x * x * z, z * z * z - y * y * z]
    symmetric = sum((q * q for q in swapped), sum_of_monomial_squares(3, 3))
    cases = [(sum_of_monomial_squares(3, d), d, True) for d in range(1, 13)]
    cases += [(Polynomial(COMMUTATIVE, 3, f), 3, True) for f in (MOTZKIN, ROBINSON)]
    cases.append((symmetric, 3, False))
    options = SolverOptions()
    for a, d, minimize_trace in cases:
        cons = build_constraints(a, square_basis(COMMUTATIVE, 3, d))
        system = cons.block_system
        assert (system.orbit != np.arange(len(system.index))).any()
        reduced = _trace_min(cons, options, minimize_trace)
        full = _trace_min(_unreduced(cons), options, minimize_trace)
        assert (reduced.status, reduced.iterations) == (full.status, full.iterations), d
        if reduced.status is SolveStatus.INFEASIBLE:
            assert np.abs(reduced.dual - full.dual).max() <= 1e-12 * np.abs(full.dual).max()
            assert _farkas_holds(a, reduced.certificate.values)
        else:
            assert reduced.status is SolveStatus.OPTIMAL
            assert reduced.objective == pytest.approx(full.objective, rel=1e-12, abs=0)
            assert np.abs(reduced.matrix - full.matrix).max() <= 1e-12 * np.abs(full.matrix).max()


# rank-one inputs whose fiber meets the PSD cone only at its boundary
THIN_INPUTS = ((3, 3, 2), (5, 3, 2), (5, 3, 3), (7, 3, 3))


def test_feasible_thin_intersections():
    for seed, n, d in THIN_INPUTS:
        a, basis = random_sos(np.random.default_rng(seed), COMMUTATIVE, n, d, 1)
        result = sos_feasible(a, basis)
        assert result.feasible, (seed, n, d)
        residual = (gram_map(result.matrix, basis) - a).coeff_two_norm()
        assert residual <= 1e-6 * (1 + a.coeff_two_norm())
        w = np.linalg.eigvalsh(result.matrix)
        assert w.min() >= -1e-8 * np.abs(w).max()
    # a starved solve is inconclusive, never a guess
    a, basis = random_sos(np.random.default_rng(3), COMMUTATIVE, 3, 2, 1)
    with pytest.raises(SolverError, match="inconclusive"):
        sos_feasible(a, basis, SolverOptions(max_iter=25))


def test_scaling_homogeneity(rng):
    a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 2)
    value, _ = sos_norm(a, basis)
    for c in (0.5, 3.0):
        scaled, _ = sos_norm(c * a, basis)
        assert scaled == pytest.approx(c * value, rel=1e-5)


def test_weak_duality_and_pd_strong_duality(rng):
    for d in (1, 2):
        a, basis = random_sos(rng, COMMUTATIVE, 3, d, 4)
        value, sol = sos_norm(a, basis)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.dual_objective <= value + 1e-6 * (1 + value)
        lam_min = linalg.eig_hermitian(sol.matrix).eigenvalues.min()
        if lam_min > 1e-4:
            assert abs(value - sol.dual_objective) <= 1e-4 * (1 + value)


def test_dual_bound_examples(rng):
    basis = square_basis(COMMUTATIVE, 3, 1)
    p31 = sum_of_monomial_squares(3, 1)
    _, sol = sos_norm(p31, basis)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.dual_objective == pytest.approx(3.0, rel=1e-5)
    _, sol = sos_norm(Polynomial.zero(COMMUTATIVE, 3), basis)
    assert sol.status is SolveStatus.OPTIMAL and sol.dual_objective == 0.0
    # evaluation at sphere points is dual-feasible: |p(s)| <= sos-norm
    a, basis2 = random_sos(rng, COMMUTATIVE, 3, 2, 2)
    value, _ = sos_norm(a, basis2)
    s = rng.standard_normal(3)
    s /= np.linalg.norm(s)
    assert abs(a.evaluate(s)) <= value + 1e-6 * (1 + value)


def test_dual_functional_margins(rng):
    # the recovered dual is feasible, lambda_min(I - sum_l y_l A_l) >= 0, on
    # the full system also when the solve ran on several blocks: it is scaled
    # by the largest eigenvalue over all blocks, so the margin is rounding-sized
    cases = [random_sos(rng, COMMUTATIVE, 3, 1, 3)]
    cases += [(sum_of_monomial_squares(3, d), square_basis(COMMUTATIVE, 3, d)) for d in (2, 3, 4, 5)]
    for a, basis in cases:
        _, sol = sos_norm(a, basis)
        assert sol.status is SolveStatus.OPTIMAL
        cons = build_constraints(a, basis)
        assert sol.dual.shape == (cons.k,)
        phi = cons.adjoint(sol.dual)
        assert np.linalg.eigvalsh(np.eye(basis.size) - phi).min() >= -1e-12


def test_rank_reduce_p32_constraints(rng):
    # k = 15 real constraints at dimension 6; target ceil(sqrt(15)) = 4
    a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 5)
    cons = build_constraints(a, basis)
    assert cons.k == 15
    result = sos_feasible(a, basis)
    M0 = rank_reduce(result.matrix, cons, 4)
    assert linalg.numerical_rank(M0) <= 4
    assert cons.residual(M0) <= 1e-6 * (1 + np.linalg.norm(cons.targets))
    assert linalg.eig_hermitian(M0).eigenvalues.min() >= -1e-9 * (1 + np.trace(M0).real)


def test_rank_reduce_fixed_point(rng):
    a, basis = random_sos(rng, COMMUTATIVE, 3, 1, 1)
    cons = build_constraints(a, basis)
    result = sos_feasible(a, basis)
    M1 = rank_reduce(result.matrix, cons, 3)
    M2 = rank_reduce(M1, cons, 3)
    assert np.allclose(M1, M2, atol=1e-9)


def test_rank_reduce_complex_witness(rng):
    # a complex PSD Gram matrix of a real input, reduced to the rank the
    # hypothesis allows; the residual is read on the dense A_l
    for n in (2, 3):
        basis = square_basis(COMMUTATIVE, n, 1)
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = B @ B.conj().T
        cons = build_constraints(gram_map(M, basis), basis)
        target = n - 1      # k = n(n + 1)/2 <= target^2 + 2 target
        reduced = rank_reduce(M, cons, target)
        assert np.abs(reduced.imag).max() > 1e-3
        assert linalg.numerical_rank(reduced) <= target
        assert linalg.eig_hermitian(reduced).eigenvalues.min() >= -1e-9 * np.trace(M).real
        residual = np.einsum("lji,ij->l", constraint_matrices(basis), reduced).real - cons.targets
        assert np.abs(residual).max() <= 1e-9 * (1 + np.abs(cons.targets).max())


class _TraceConstraint:
    """The one equation tr(M) = target on D x D matrices, which no product
    term gives: what `rank_reduce` reads of a constraint system."""

    k = 1

    def __init__(self, dim, target):
        self.dim, self.targets = dim, np.array([float(target)])

    def adjoint(self, y):
        return y[0] * np.eye(self.dim)

    def residual(self, M):
        return abs(np.trace(M).real - self.targets[0])


def test_rank_reduce_single_trace_constraint():
    # hand-built system: the one constraint tr(M) = 1, target rank 1
    cons = _TraceConstraint(2, 1.0)
    reduced = rank_reduce(np.eye(2) / 2.0, cons, 1)
    assert linalg.numerical_rank(reduced) == 1
    assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-9)
    assert linalg.eig_hermitian(reduced).eigenvalues.min() >= -1e-12


def _two_branch_step(lam, delta):
    """One step to the nearest crossing, found by two branches: the crossing
    at t > 0, unless the one at t < 0 is strictly nearer."""
    omega = scipy.linalg.eigh(delta, np.diag(lam), eigvals_only=True)
    t_pos, sign = math.inf, 1.0
    if omega[0] < -1e-14:
        t_pos = -1.0 / omega[0]
    if omega[-1] > 1e-14 and 1.0 / omega[-1] < t_pos:
        t_pos, sign = 1.0 / omega[-1], -1.0
    return np.diag(lam) + (sign * t_pos) * delta


@pytest.mark.parametrize("lam, direction, kept", [
    pytest.param((2.0, 1.0), (-1.0, 1.0), 0, id="nearest-at-negative-t"),
    pytest.param((1.0, 1.0), (1.0, -1.0), 0, id="tie-taken-at-positive-t"),
    pytest.param((2.0, 1.0), (1.0, -1.0), 0, id="nearest-at-positive-t"),
])
def test_rank_reduce_nearest_crossing(monkeypatch, lam, direction, kept):
    # one step of rank 2 -> 1 under tr(M) = const along a forced traceless
    # diagonal direction, against the two-branch rule as oracle
    cons = _TraceConstraint(2, sum(lam))
    monkeypatch.setattr(sdp, "_constraint_orthogonal", lambda K: np.array([*direction, 0.0, 0.0]))
    delta = np.diag(direction) / np.linalg.norm(direction)
    expected = _two_branch_step(np.array(lam), delta)
    reduced = rank_reduce(np.diag(lam), cons, 1)
    assert np.abs(reduced - expected).max() <= 1e-12
    assert np.flatnonzero(np.abs(np.diag(reduced)) > 1e-12).tolist() == [kept]


@pytest.mark.parametrize("k, r", [(1, 2), (5, 3), (15, 5), (40, 7), (153, 13)])
def test_constraint_orthogonal_direction(k, r):
    # a nonzero direction in the null space of seeded K with r^2 > k, to
    # 1e-12 of ||K||_2, whether or not K has full row rank
    rng = np.random.default_rng(10 * k + r)
    for K in (rng.standard_normal((k, r * r)),
              rng.standard_normal((k, 2)) @ rng.standard_normal((2, r * r))):
        x = sdp._constraint_orthogonal(K)
        assert np.linalg.norm(x) > 0
        assert np.linalg.norm(K @ x) <= 1e-12 * np.linalg.norm(K, 2) * np.linalg.norm(x)
    # rows that span every direction leave none
    assert sdp._constraint_orthogonal(rng.standard_normal((r * r + 1, r * r))) is None


def test_rank_reduce_stalls_on_a_full_row_space(monkeypatch, rng):
    # rows that span every direction reach the stall branch, which keeps the
    # feasible matrix it had
    a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 4)
    feas = sos_feasible(a, basis)
    direction = sdp._constraint_orthogonal
    monkeypatch.setattr(sdp, "_constraint_orthogonal",
                        lambda K: direction(np.vstack([K, np.eye(K.shape[1])])))
    with pytest.raises(sdp.RankReductionError, match="^no constraint-orthogonal direction at rank 6$") as err:
        rank_reduce(feas.matrix, feas.constraints, 4)
    assert err.value.achieved_rank == 6
    assert feas.constraints.residual(err.value.matrix) <= 1e-7 * (1 + np.linalg.norm(feas.constraints.targets))


def test_crossing_rates_match_the_pencil(rng):
    # the scaled core's eigenvalues against the generalized eigensolver
    for r in (1, 2, 5, 12):
        lam = np.sort(10.0 ** rng.uniform(-4, 2, r))[::-1]
        G = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        delta = (G + G.conj().T) / 2.0
        expected = scipy.linalg.eigh(delta, np.diag(lam), eigvals_only=True)
        got = sdp._crossing_rates(lam, delta)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_rank_reduce_hypothesis_violation(rng):
    a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 3)
    cons = build_constraints(a, basis)
    feas = sos_feasible(a, basis)
    # the result carries the system it solved, for rank reduction to reuse
    assert feas.constraints.k == cons.k and np.array_equal(feas.constraints.targets, cons.targets)
    with pytest.raises(ValueError):
        rank_reduce(feas.matrix, feas.constraints, 2)  # 15 > 2^2 + 2*2


def test_rank_reduce_requires_feasible_start(rng):
    a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 3)
    cons = build_constraints(a, basis)
    with pytest.raises(ValueError):
        rank_reduce(np.eye(6) * 100.0, cons, 4)


def test_solver_options_config(tmp_path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("tol_primal = 1e-9  # tighter\nmax-iter = 200\n")
    data = parse_config_file(str(cfg))
    opts = SolverOptions.from_mapping(data)
    assert opts.tol_primal == 1e-9
    assert opts.max_iter == 200
    with pytest.raises(ValueError):
        SolverOptions.from_mapping({"no_such_option": "1"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))


@pytest.mark.parametrize("name, value", [
    ("max_iter", 0),
    ("tol_gap", 0.0),
    ("tol_primal", math.nan),    # was 50,000 steps to max-iter
])
def test_solver_options_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        SolverOptions(**{name: value})
    with pytest.raises(ValueError, match=name):
        SolverOptions.from_mapping({name.replace("_", "-"): str(value)})


@pytest.mark.parametrize("name, value", [
    ("max_iter", 2.9),          # was read as 2
    ("max_iter", True),         # was read as 1
    ("tol_gap", True),          # was read as 1.0
    ("tol_primal", False),
    pytest.param("tol_gap", 10 ** 400, id="tol_gap-huge-integer"),     # was an OverflowError
])
def test_solver_options_mapping_refuses_coercion(name, value):
    with pytest.raises(ValueError, match=f"solver option '{name}'"):
        SolverOptions.from_mapping({name: value})


@pytest.mark.parametrize("name, value", [
    ("tol_gap", True),          # was kept as True
    ("tol_primal", "1e-3"),     # was a TypeError
])
def test_solver_options_refuse_wrong_kind(name, value):
    # the constructor refuses what from_mapping refuses, strings included
    with pytest.raises(ValueError, match=f"solver option '{name}'"):
        SolverOptions(**{name: value})


def test_solver_options_mapping_reads_strings_and_numbers():
    # strings, as the CLI and the config file pass them, parse as before;
    # numbers of the option's kind are taken as they are
    for data in ({"max-iter": "200", "tol_gap": "1e-5", "tol_primal": "1"},
                 {"max_iter": 200, "tol_gap": 1e-5, "tol_primal": 1}):
        opts = SolverOptions.from_mapping(data)
        assert opts == SolverOptions(tol_primal=1.0, tol_gap=1e-5, max_iter=200), data
        assert type(opts.tol_primal) is float and type(opts.max_iter) is int


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e-200, 1e-300])
def test_tiny_inputs_solved_without_underflow(c):
    # the targets' 2-norm underflowed to 0 below coefficients of about 1e-154:
    # a division by zero, then a solve of 75 steps on an infinite rho.  The
    # reference is at 1e-100, where the tolerances, relative to 1 + |targets|,
    # are as loose as here
    def form(c):
        return Polynomial(COMMUTATIVE, 2, {(2, 0): c, (0, 2): c, (1, 1): 0.5 * c})

    basis = square_basis(COMMUTATIVE, 2, 1)
    reference = sos_norm(form(1e-100), basis)[0] / 1e-100
    value, sol = sos_norm(form(c), basis)
    assert sol.status is SolveStatus.OPTIMAL and sol.iterations == CHECK_EVERY
    assert abs(value / c - reference) <= 1e-12 * reference


def test_max_iter_reported_not_coerced(rng):
    a, basis = random_sos(rng, COMMUTATIVE, 3, 2, 3)
    # the cap falls between two checks, and the last step is checked too
    opts = SolverOptions(max_iter=CHECK_EVERY + 5)
    value, sol = sos_norm(a, basis, opts)
    assert sol.status is SolveStatus.MAX_ITER
    assert "residual" in sol.message
    assert [rec.iteration for rec in sol.trace] == [25, 30]
    assert sol.trace[-1].primal_residual == sol.primal_residual
    with pytest.raises(SolverError, match="inconclusive"):
        sos_feasible(a, basis, opts)
    # caps inside, at and just past the opening window on the zero objective
    a, basis = random_sos(np.random.default_rng(3), COMMUTATIVE, 3, 2, 3)
    for cap, checks in ((1, [1]), (10, [10]), (CHECK_EVERY, [25]), (CHECK_EVERY + 1, [25, 26])):
        _, sol = sos_norm(a, basis, SolverOptions(max_iter=cap))
        assert sol.status is SolveStatus.MAX_ITER, cap
        assert [rec.iteration for rec in sol.trace] == checks
        assert sol.iterations == cap
        assert "residual" in sol.message and "gap" in sol.message, sol.message
    # a probe of the window still certifies a non-SOS form inside the cap
    _, sol = sos_norm(Polynomial(COMMUTATIVE, 3, MOTZKIN), square_basis(COMMUTATIVE, 3, 3),
                      SolverOptions(max_iter=CHECK_EVERY))
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.iterations == 15


# steps of sos_norm on the figure inputs sum_of_monomial_squares(3, d), d=1..12;
# they are deterministic, so a change to the step map, its start or its stopping
# rule that moves them on purpose updates them here and says so
FIGURE_STEPS = (50, 75, 150, 75, 150, 275, 225, 300, 375, 325, 550, 600)


def test_figure_step_counts_pinned():
    steps = tuple(sos_norm(sum_of_monomial_squares(3, d), square_basis(COMMUTATIVE, 3, d))[1]
                  .iterations for d in range(1, 13))
    assert steps == FIGURE_STEPS


def test_figure_rows_have_no_iteration_cliff():
    # with rho balanced on raw residuals the d=9 row took 13,900 steps
    # against 575 at d=8 and 1,950 at d=10; Anderson acceleration took it
    # from 2,025 to 475
    seed = json.loads((Path(__file__).parents[1] / "perfbench" / "seed_commit.json")
                      .read_text())["figure"]
    # d=11, 12: values of the dense complex solve (seed_commit.json stops at d=10)
    reference = {d: seed[str(d)]["value"] for d in (8, 9, 10)}
    reference.update({11: 6.528312242044638, 12: 6.653871658158014})
    steps = {}
    for d in (8, 9, 10, 11, 12):
        p = sum_of_monomial_squares(3, d)
        value, sol = sos_norm(p, square_basis(COMMUTATIVE, 3, d))
        assert sol.status is SolveStatus.OPTIMAL, (d, sol.message)
        assert value == pytest.approx(reference[d], rel=1e-6)
        # one trace record per convergence check
        assert len(sol.trace) == sol.iterations // CHECK_EVERY
        assert sol.trace[-1].iteration == sol.iterations
        steps[d] = sol.iterations
        if d == 9:
            assert len({rec.rho for rec in sol.trace}) > 1
            assert sum(rec.accelerated for rec in sol.trace) > 0
    assert steps[9] <= 600, steps
    for lo, hi in ((8, 9), (9, 10), (10, 11), (11, 12)):
        assert max(steps[lo], steps[hi]) <= 3 * min(steps[lo], steps[hi]), steps
