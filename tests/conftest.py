import numpy as np
import pytest

from sos_approx.gram import build_constraints, gram_map, square_basis
from sos_approx.poly import FREE, Polynomial
from sos_approx.verify import MOTZKIN, ROBINSON, random_hermitian, random_psd, random_sos  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def free_input(least):
    """A free n=2 d=2 input whose unique Gram matrix has eigenvalues 4, 3, 2 and `least`."""
    rng = np.random.default_rng(0)
    Q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    M = (Q * np.array([4.0, 3.0, 2.0, least])) @ Q.conj().T
    basis = square_basis(FREE, 2, 2)
    return gram_map((M + M.conj().T) / 2, basis), basis


def free_farkas_holds(a, basis, y):
    """Independent check of a free Farkas certificate y.  Its *-linear
    functional l takes y_l on a self-conjugate word and (y_re -/+ i y_im) / 2 on
    tau and tau* of a pair; it must be PSD on the moment matrix l(v_i* v_j) of
    the words and negative at a."""
    ell: dict = {}
    for om, value in zip(build_constraints(a, basis).omegas, y):
        weight = {"self": (value, 0.0), "re": (value / 2, value / 2),
                  "im": (-0.5j * value, 0.5j * value)}[om.kind]
        for term, part in zip((om.term, om.term[::-1]), weight):
            ell[term] = ell.get(term, 0.0) + part
    E = np.array([[ell[u[::-1] + v] for v in basis.terms] for u in basis.terms])
    w = np.linalg.eigvalsh(E)
    return w.min() >= -1e-8 * np.abs(w).max() and sum((c * ell[t]).real for t, c in a.items()) < 0


def random_square(rng, basis):
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return Polynomial(basis.flavor, basis.n_vars,
                      {t: v for t, v in zip(basis.terms, c)})


def free_trace_oracle(p, basis):
    """Closed-form sos-norm of a free polynomial: sum of its nu*nu coefficients."""
    return float(sum(p.coefficient(w[::-1] + w) for w in basis.terms).real)


# a nonnegative ternary sextic that is not a sum of squares, beside MOTZKIN
# and ROBINSON
CHOI_LAM_S = {(4, 2, 0): 1, (0, 4, 2): 1, (2, 0, 4): 1, (2, 2, 2): -3}
