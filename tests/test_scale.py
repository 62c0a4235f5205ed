"""Power-of-two scale equivariance at the input boundary.

Multiplying by 2^k is exact in binary floating point away from overflow and
subnormals, so a rule with no absolute floor decides 2^k a exactly as it
decides a.  One seeded draw of even k in [-300, 300], with both ends, checks
the zero rule (scalar products keep their terms, `feasible` writes every
nonzero witness entry) and the Hermitian rule (the same verdict at every k,
the same constraint targets up to the factor 2^k).  The solves' stopping
rule and certificate margins are relative too, so `sos_norm` and
`sos_feasible` answer 2^k a with 2^k times their answer for a, in the same
steps.
"""

import json
import math

import numpy as np
import pytest

from conftest import CHOI_LAM_S, MOTZKIN, ROBINSON, free_trace_oracle, random_sos
from oracles import is_hermitian
from sos_approx import cli
from sos_approx.approx import approximate
from sos_approx.gram import (HERMITIAN_TOL, NotHermitianError, build_constraints, hermitian_read,
                             homogeneous_basis)
from sos_approx.poly import (COMMUTATIVE, FREE, Polynomial, sum_of_monomial_squares,
                             to_json)
from sos_approx.sdp import sos_feasible, sos_norm

_draw = np.random.default_rng(37).choice(np.arange(1, 150), size=18, replace=False)
KS = sorted([-300, 300] + [2 * int(k) * sign for k, sign in zip(_draw, (1, -1) * 9)])


def _commutative_inputs():
    sums = [random_sos(np.random.default_rng(seed), COMMUTATIVE, 3, 2, r)[0]
            for seed in (0, 1) for r in (1, 3)]
    forms = [Polynomial(COMMUTATIVE, 3, f) for f in (MOTZKIN, CHOI_LAM_S, ROBINSON)]
    return sums + forms + [sum_of_monomial_squares(3, d) for d in range(1, 7)]


def _free_inputs():
    return [random_sos(np.random.default_rng(seed), FREE, 2, 2, r)[0]
            for seed in (0, 1) for r in (1, 3)]


def _hermitian(p) -> bool:
    """The boundary's verdict, which the reference `oracles.is_hermitian` must share."""
    try:
        hermitian_read(p, homogeneous_basis(p))
        verdict = True
    except NotHermitianError:
        verdict = False
    assert is_hermitian(p) is verdict
    return verdict


def _verdict_families():
    """Inputs with their expected verdict: three below any absolute floor that
    are not Hermitian relative to themselves, and bumps of a - a* at 0.9 and
    1.1 times the threshold HERMITIAN_TOL ||a||."""
    families = [
        (Polynomial(COMMUTATIVE, 2, {(2, 0): 1e-15j}), False),
        (Polynomial(COMMUTATIVE, 2, {(2, 0): 1e-3, (0, 2): 1e-3, (1, 1): 5e-13j}), False),
        (Polynomial(FREE, 2, {(0, 1): 1e-14}), False),
    ]
    a, _ = random_sos(np.random.default_rng(2), COMMUTATIVE, 3, 2, 2)
    c, _ = random_sos(np.random.default_rng(2), FREE, 2, 2, 2)
    for factor in (0.9, 1.1):
        # ||b - b*|| is 2 delta on an imaginary part, sqrt(2) delta on one
        # word of a conjugate pair
        tol = HERMITIAN_TOL * a.coeff_two_norm()
        families.append((a + Polynomial(COMMUTATIVE, 3, {(2, 1, 1): 0.5j * factor * tol}),
                         factor < 1))
        tol = HERMITIAN_TOL * c.coeff_two_norm()
        for bump in ({(0, 1, 1, 0): 0.5j * factor * tol},
                     {(0, 0, 1, 1): factor * tol / math.sqrt(2.0)}):
            families.append((c + Polynomial(FREE, 2, bump), factor < 1))
    return families


def test_hermitian_verdicts_are_scale_free():
    for p, expected in _verdict_families():
        assert _hermitian(p) is expected, p
        for k in KS:
            assert _hermitian(2.0 ** k * p) is expected, (k, p)


def test_constraint_targets_scale_exactly():
    for a in _commutative_inputs():
        unit = build_constraints(a, homogeneous_basis(a))
        for k in KS:
            s = 2.0 ** k
            cons = build_constraints(s * a, homogeneous_basis(a))
            assert np.array_equal(cons.targets, s * unit.targets), k
            assert len(cons.blocks) == len(unit.blocks) and len(cons.swaps) == len(unit.swaps)


def test_scalar_products_keep_their_terms():
    for a in _commutative_inputs() + _free_inputs():
        square = a * a
        for k in KS:
            s = 2.0 ** k
            assert (s * a)._coeffs == {t: s * c for t, c in a._coeffs.items()}, k
            assert ((s * a) * a)._coeffs == {t: s * c for t, c in square._coeffs.items()}, k


def _feasible_entries(tmp_path, p):
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(to_json(p) + "\n")
    assert cli.main(["feasible", "--input", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    return report["iterations"], report["witness"]["entries"]


def test_feasible_witness_scales(tmp_path, capsys):
    commutative = random_sos(np.random.default_rng(1), COMMUTATIVE, 3, 2, 3)[0]
    for a in [commutative] + _free_inputs():
        steps, entries = _feasible_entries(tmp_path, a)
        for k in KS:
            s = 2.0 ** k
            scaled_steps, scaled = _feasible_entries(tmp_path, s * a)
            # every nonzero entry is written, whatever its size
            assert [e[:2] for e in scaled] == [e[:2] for e in entries], k
            assert scaled_steps == steps
            assert scaled == [[i, j, s * re, s * im] for i, j, re, im in entries], k
    capsys.readouterr()


def test_free_approximate_is_equivariant():
    failures = cases = 0
    for a in _free_inputs()[:2]:
        basis = homogeneous_basis(a)
        trace = free_trace_oracle(a, basis)
        for fraction in (0.05, 0.3, 0.9):
            unit = approximate(a, basis, fraction * trace)
            for k in KS:
                s, root = 2.0 ** k, 2.0 ** (k // 2)
                cert = approximate(s * a, basis, fraction * trace * s)
                cases += 1
                failures += not (
                    cert.rank == unit.rank and cert.error == s * unit.error
                    and all(np.array_equal(q, root * u) for q, u in zip(cert.squares, unit.squares))
                    and cert.approximation._coeffs
                    == {t: s * c for t, c in unit.approximation._coeffs.items()})
    assert cases == 120 and failures == 0


# k for the solver property: both ends, and pairs about unit scale
SOLVE_KS = (-300, -100, -40, -10, 10, 40, 100, 300)


def _solver_inputs():
    """The named non-SOS forms, `figure` d=1..6, and seeded sums of squares:
    a sweep input that the absolute floors stopped one check early at unit
    scale, one whose value they let come out 33% high below 1e-8, a third
    commutative one and a free one."""
    swapped = {(e[1], e[0], e[2]): c for e, c in CHOI_LAM_S.items()}     # x <-> y
    forms = [Polynomial(COMMUTATIVE, 3, f) for f in (MOTZKIN, CHOI_LAM_S, swapped, ROBINSON)]
    sums = [random_sos(np.random.default_rng(seed), flavor, n, d, r)[0]
            for seed, flavor, n, d, r in ((1, COMMUTATIVE, 2, 3, 3), (7, COMMUTATIVE, 3, 3, 3),
                                          (12, COMMUTATIVE, 3, 3, 2), (2, FREE, 2, 2, 2))]
    return forms + [sum_of_monomial_squares(3, d) for d in range(1, 7)] + sums


def _same(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("solve", [lambda a, b: sos_norm(a, b)[1], sos_feasible],
                         ids=["sos_norm", "sos_feasible"])
def test_solves_are_equivariant(solve):
    """The solve of 2^k a is that of a times 2^k: the same status and steps,
    value and Gram matrix exactly 2^k times, and the same Farkas functional."""
    failures, cases = [], 0
    for i, a in enumerate(_solver_inputs()):
        basis = homogeneous_basis(a)
        unit = solve(a, basis)
        for k in SOLVE_KS:
            s = 2.0 ** k
            sol = solve(s * a, basis)
            cases += 1
            if not (sol.status is unit.status and sol.iterations == unit.iterations
                    and _same(sol.objective, s * unit.objective)
                    and np.array_equal(sol.matrix, s * unit.matrix)
                    and (sol.certificate is None) == (unit.certificate is None)
                    and (sol.certificate is None
                         or np.array_equal(sol.certificate.values, unit.certificate.values))):
                failures.append((i, k, sol.status.value, sol.iterations, unit.iterations))
    assert cases == 112 and not failures, failures
