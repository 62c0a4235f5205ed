import numpy as np
import pytest

from sos_approx.poly import Polynomial
from sos_approx.verify import MOTZKIN, ROBINSON, random_hermitian, random_psd, random_sos  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


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
