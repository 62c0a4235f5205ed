import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_sos
from oracles import cross_polytope_lattice_all_signs
from sos_approx.poly import (
    COMMUTATIVE,
    FREE,
    DimensionMismatchError,
    FlavorMismatchError,
    Polynomial,
    as_sphere_point,
    from_json,
    sphere_lattice,
    sum_of_monomial_squares,
    sup_norm_sphere,
    to_json,
    variables,
)


def test_monomial_product():
    x1, x2, _ = variables(COMMUTATIVE, 3)
    assert (x1 * x2).coefficient((1, 1, 0)) == 1.0


def test_words_do_not_commute():
    z1, z2 = variables(FREE, 2)
    assert (z1 * z2).coefficient((0, 1)) == 1.0
    assert (z2 * z1).coefficient((1, 0)) == 1.0
    assert z1 * z2 != z2 * z1


def test_binomial_square_expansion():
    # (x1 + x2)^2 expanded by hand
    x1, x2 = variables(COMMUTATIVE, 2)
    p = (x1 + x2) * (x1 + x2)
    assert p == Polynomial(COMMUTATIVE, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_flavor_mismatch_rejected():
    x1 = Polynomial.variable(COMMUTATIVE, 2, 0)
    z1 = Polynomial.variable(FREE, 2, 0)
    with pytest.raises(FlavorMismatchError):
        x1 * z1
    with pytest.raises(DimensionMismatchError):
        x1 * Polynomial.variable(COMMUTATIVE, 3, 0)


def test_involution_examples():
    x1 = Polynomial.variable(COMMUTATIVE, 1, 0)
    assert (1j * x1).involution() == -1j * x1
    z1, z2 = variables(FREE, 2)
    assert (z1 * z2).involution() == z2 * z1
    p = Polynomial(COMMUTATIVE, 2, {(2, 0): 3.0, (1, 1): -2.5})
    assert p.involution() == p


def test_coeff_two_norm_examples():
    assert Polynomial.zero(COMMUTATIVE, 2).coeff_two_norm() == 0.0
    p = Polynomial(COMMUTATIVE, 2, {(2, 0): 3.0, (0, 2): 4.0})
    assert p.coeff_two_norm() == pytest.approx(5.0, abs=1e-15)
    q = Polynomial(FREE, 2, {(0, 1): 1.0, (1, 0): 1.0})
    assert q.coeff_two_norm() == pytest.approx(math.sqrt(2), abs=1e-15)
    # no square overflows: the norm is scaled by the largest part
    big = Polynomial(FREE, 2, {(0, 1): complex(5e307, 5e307), (1, 0): complex(5e307, -5e307)})
    assert big.coeff_two_norm() == pytest.approx(1e308, rel=1e-15)
    assert big.is_hermitian()


def test_evaluate_examples():
    for n in range(1, 5):
        for d in range(1, 7):
            p = sum_of_monomial_squares(n, d)
            e1 = [1.0] + [0.0] * (n - 1)
            assert p.evaluate(e1) == 1.0  # exactly
    x1x2 = Polynomial(COMMUTATIVE, 2, {(1, 1): 1.0})
    s = [1 / math.sqrt(2), 1 / math.sqrt(2)]
    assert x1x2.evaluate(s) == pytest.approx(0.5, abs=1e-12)
    assert Polynomial.zero(COMMUTATIVE, 2).evaluate([0.6, 0.8]) == 0.0


def test_evaluate_batch_matches_broadcast_powers():
    # the power table gives the bits of the broadcast formula, kept here as
    # the oracle, on polynomials of 2-28 terms of every degree up to d.  A
    # one-term univariate polynomial is left out: numpy takes its size-one
    # exponent array as a scalar and squares by multiplying, which can
    # differ from pow in the last bit
    for seed in range(32):
        rng = np.random.default_rng(seed)
        n, d = 1 + seed % 4, 1 + seed // 8
        support = [t for t in np.ndindex(*(d + 1,) * n) if sum(t) <= d]
        size = int(rng.integers(2, min(len(support), 28) + 1))
        picked = rng.choice(len(support), size, replace=False)
        p = Polynomial(COMMUTATIVE, n, {support[i]: complex(*rng.standard_normal(2)) for i in picked})
        points = rng.standard_normal((2000, n))
        terms = np.array(list(p._coeffs), dtype=np.int64)
        coeffs = np.array(list(p._coeffs.values()))
        expected = (points[:, None, :] ** terms[None, :, :]).prod(axis=2) @ coeffs
        assert np.array_equal(p.evaluate_batch(points), expected), (seed, n, d)


def test_evaluate_rejects_free_and_bad_points():
    z1 = Polynomial.variable(FREE, 1, 0)
    with pytest.raises(FlavorMismatchError):
        z1.evaluate([1.0])
    x1 = Polynomial.variable(COMMUTATIVE, 2, 0)
    with pytest.raises(ValueError):
        x1.evaluate([1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        x1.evaluate([1.0])


def test_collapse_examples():
    z1, z2 = variables(FREE, 2)
    assert (z1 * z2 + z2 * z1).collapse() == Polynomial(COMMUTATIVE, 2, {(1, 1): 2.0})
    assert (z1 * z1).collapse() == Polynomial(COMMUTATIVE, 2, {(2, 0): 1.0})
    # exponent count: both words collapse onto x1^2 x2^2
    p = z2 * z1 * z1 * z2 + z1 * z2 * z2 * z1
    assert p.collapse() == Polynomial(COMMUTATIVE, 2, {(2, 2): 2.0})
    with pytest.raises(FlavorMismatchError):
        Polynomial.variable(COMMUTATIVE, 2, 0).collapse()


def test_sup_norm_examples():
    assert sup_norm_sphere(sum_of_monomial_squares(3, 2), 2048) == pytest.approx(1.0, abs=1e-7)
    assert sup_norm_sphere(sum_of_monomial_squares(3, 1), 512) == pytest.approx(1.0, abs=1e-12)
    two_x1_sq = Polynomial.monomial(1, (2,), 2.0)
    assert sup_norm_sphere(two_x1_sq, 16) == 2.0
    with pytest.raises(ValueError):
        sup_norm_sphere(sum_of_monomial_squares(2, 1), 0)


def test_sup_norm_is_a_lower_bound(rng):
    # every reported value is an actual |p(s)| at a unit point
    for _ in range(5):
        coeffs = {}
        for _ in range(6):
            e = tuple(rng.integers(0, 3, size=3))
            coeffs[e] = complex(rng.standard_normal(), rng.standard_normal())
        p = Polynomial(COMMUTATIVE, 3, coeffs)
        est = sup_norm_sphere(p, 512)
        dense = float(np.abs(p.evaluate_batch(sphere_lattice(3, 20000))).max())
        assert est <= max(dense, est)  # sanity
        assert est >= dense - 1e-3 * (1 + dense)


def test_sphere_lattice_shapes():
    assert sphere_lattice(1, 10).shape == (2, 1)
    for n in (2, 3, 4, 5):
        pts = sphere_lattice(n, 500)
        assert pts.shape[0] >= 500 or n == 1
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        sphere_lattice(3, 0)


def test_sphere_lattice_matches_all_sign_vectors():
    # signs on the nonzero parts alone give the same points in the same order
    for n in range(4, 11):
        assert np.array_equal(sphere_lattice(n, 500), cross_polytope_lattice_all_signs(n, 500))


def test_sphere_point_validation():
    as_sphere_point([0.6, 0.8])
    with pytest.raises(ValueError):
        as_sphere_point([0.6, 0.9])


def test_json_round_trip_exact():
    p = Polynomial(COMMUTATIVE, 2, {(2, 0): 1 / 3, (0, 2): -7.25e-23 + 0.125j})
    assert from_json(to_json(p)) == p
    q = Polynomial(FREE, 3, {(0, 2, 1): 1.5 - 2.5j, (): 4.0})
    assert from_json(to_json(q)) == q


def test_json_format_shape():
    q = Polynomial(FREE, 3, {(0, 1, 0): 1.0})
    data = json.loads(to_json(q))
    assert data["flavor"] == "free"
    assert data["terms"][0]["term"] == "z1 z2 z1"
    p = Polynomial(COMMUTATIVE, 2, {(1, 1): 2.0})
    data = json.loads(to_json(p))
    assert data["terms"][0]["term"] == [1, 1]


def test_json_malformed_rejected():
    with pytest.raises(ValueError):
        from_json('{"flavor": "free", "n_vars": 2, "terms": [{"term": [1, 0], "re": 1}]}')
    with pytest.raises(ValueError):
        from_json('{"flavor": "free", "n_vars": 2, "terms": [{"term": "z9", "re": 1}]}')
    with pytest.raises(ValueError):
        from_json('{"flavor": "weird", "n_vars": 2, "terms": []}')


@pytest.mark.parametrize("fields, message", [
    pytest.param('"n_vars": 2, "terms": [{"term": [2.9, 0], "re": 1}]',
                 r"terms\[0\]: exponent must be an integer, got 2.9", id="exponent-fraction"),
    pytest.param('"n_vars": 2, "terms": [{"term": [true, 0], "re": 1}]',
                 r"terms\[0\]: exponent must be an integer, got true", id="exponent-boolean"),
    pytest.param('"n_vars": 2.7, "terms": [{"term": [2, 0], "re": 1}]',
                 "n_vars must be an integer, got 2.7", id="n-vars-fraction"),
    pytest.param('"n_vars": true, "terms": [{"term": [2], "re": 1}]',
                 "n_vars must be an integer, got true", id="n-vars-boolean"),
    pytest.param('"n_vars": 2, "terms": [{"term": [2, 0], "re": true}]',
                 r"terms\[0\]: re must be a number, got true", id="coefficient-boolean"),
    pytest.param('"n_vars": 2, "terms": [{"term": [2, 0], "re": 1, "im": null}]',
                 r"terms\[0\]: im must be a number, got null", id="im-null"),
    pytest.param('"n_vars": 2, "terms": {"t": {"term": [2, 0], "re": 1}}',
                 "terms must be a list", id="terms-object"),
    pytest.param('"n_vars": 2, "terms": [[2, 0]]', r"terms\[0\] must be an object",
                 id="term-not-object"),
])
def test_json_refuses_what_it_would_truncate_or_coerce(fields, message):
    with pytest.raises(ValueError, match=message):
        from_json('{"flavor": "commutative", %s}' % fields)


def test_constructor_refuses_non_integral_exponents_and_symbols():
    for flavor, term in ((COMMUTATIVE, (2.9, 0)), (COMMUTATIVE, (2.0, 0)),
                         (COMMUTATIVE, (True, 1)), (FREE, (0.0, 1)), (FREE, (False,))):
        with pytest.raises(ValueError, match=r"term \(.*\): (exponents|symbols) must be integers"):
            Polynomial(flavor, 2, {term: 1.0})
    p = Polynomial(COMMUTATIVE, 2, {tuple(np.array([2, 0])): 1.0})
    assert p.coefficient((2, 0)) == 1.0 and all(type(e) is int for e in p.items()[0][0])
    assert Polynomial(FREE, 2, {tuple(np.array([1, 0], dtype=np.int32)): 1.0}).degree() == 2


def test_non_finite_coefficients_rejected():
    for c in (math.inf, -math.inf, math.nan, complex(1.0, math.nan)):
        with pytest.raises(ValueError, match=r"\(2, 0\) is not finite"):
            Polynomial(COMMUTATIVE, 2, {(2, 0): c, (0, 2): 1.0})
    # json.loads accepts these literals, so the file format reaches the check too
    for literal in ("Infinity", "-Infinity", "NaN"):
        with pytest.raises(ValueError, match="not finite"):
            from_json('{"flavor": "free", "n_vars": 2, '
                      '"terms": [{"term": "z1 z2", "re": %s}]}' % literal)


def test_zero_coefficients_dropped_after_arithmetic():
    x1, x2 = variables(COMMUTATIVE, 2)
    p = x1 + x2
    q = p - p
    assert not q
    assert len((x1 + 1e-15 * x2) - x1) == 0  # below the arithmetic drop threshold


def test_overflowed_arithmetic_refused():
    # a coefficient that overflows is refused by every operation, not dropped
    # as a NaN (leaving a smaller or zero polynomial) or kept as inf
    a = random_sos(np.random.default_rng(1), FREE, 2, 1, 2)[0]
    big = Polynomial(FREE, 2, {(0, 1): 1e308, (1, 0): 1e308})
    for overflow in (lambda: math.inf * a, lambda: 1e300 * (math.inf * a),
                     lambda: (1e200 * a) * (1e200 * a), lambda: big + big,
                     lambda: big.collapse(),
                     lambda: Polynomial(COMMUTATIVE, 2, {(2, 0): 1e308}).differentiate(0)):
        with pytest.raises(ValueError, match="too large"):
            overflow()
    # finite results keep the drop rule and their bits
    assert (a + a)._coeffs == {t: c + c for t, c in a.items()}
    product = {}
    for t1, c1 in a._coeffs.items():
        for t2, c2 in a._coeffs.items():
            product[t1 + t2] = product.get(t1 + t2, 0.0) + c1 * c2
    assert (a * a)._coeffs == {t: c for t, c in product.items() if abs(c) >= 1e-14}


small_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                   max_magnitude=1e4)


def poly_strategy(flavor):
    if flavor == COMMUTATIVE:
        term = st.tuples(st.integers(0, 2), st.integers(0, 2))
    else:
        term = st.lists(st.integers(0, 1), max_size=3).map(tuple)
    return st.dictionaries(term, small_complex, max_size=5).map(
        lambda c: Polynomial(flavor, 2, c))


@settings(max_examples=60, deadline=None)
@given(p=poly_strategy(FREE), q=poly_strategy(FREE))
def test_involution_is_anti_homomorphism_free(p, q):
    lhs = (p * q).involution()
    rhs = q.involution() * p.involution()
    assert (lhs - rhs).coeff_two_norm() <= 1e-9 * (1 + lhs.coeff_two_norm())
    assert p.involution().involution() == p


@settings(max_examples=60, deadline=None)
@given(p=poly_strategy(COMMUTATIVE), q=poly_strategy(COMMUTATIVE))
def test_norm_triangle_inequality(p, q):
    assert (p + q).coeff_two_norm() <= p.coeff_two_norm() + q.coeff_two_norm() + 1e-9


@settings(max_examples=40, deadline=None)
@given(p=poly_strategy(FREE), q=poly_strategy(FREE))
def test_collapse_is_star_homomorphism(p, q):
    lhs = (p * q).collapse()
    rhs = p.collapse() * q.collapse()
    assert (lhs - rhs).coeff_two_norm() <= 1e-9 * (1 + lhs.coeff_two_norm())
    assert (p.involution().collapse() - p.collapse().involution()).coeff_two_norm() <= 1e-12


def test_sos_nonnegative_on_sphere(rng):
    from conftest import random_sos
    pts = sphere_lattice(3, 700)
    for _ in range(5):
        a, _ = random_sos(rng, COMMUTATIVE, 3, 2, 3)
        vals = a.evaluate_batch(pts)
        assert vals.real.min() >= -1e-9
        assert np.abs(vals.imag).max() <= 1e-9
