"""Independent desk-scale oracles used only by the test suite.

These recompute expected values through routes the library does not take:
exhaustive grid scans of tiny Gram spectrahedra, direct coefficient sums, the
free Gram matrix read by splitting words, the product table multiplied out
cell by cell, the dense constraint matrices built by multiplying
polynomials, a cyclic Jacobi eigensolver checked against LAPACK and the
cross-polytope lattice over every sign vector.
"""

import math
from itertools import product

import numpy as np

from sos_approx.gram import NotHermitianError, square_basis
from sos_approx.linalg import NonConvergenceError
from sos_approx.poly import (FREE, FlavorMismatchError, Polynomial, compositions, involute_term,
                             multiply_terms)


def min_rank_two_vars_degree_one(a, grid=2001, span=3.0, psd_tol=1e-12,
                                 rank_tol=1e-8):
    """Brute-force minimal Gram rank for a Hermitian quadratic in x1, x2.

    The fiber over a = alpha x1^2 + gamma x1 x2 + beta x2^2 is the
    one-parameter family [[alpha, gamma/2 + i t], [gamma/2 - i t, beta]];
    scan t and report the smallest rank among the PSD members.
    """
    alpha = a.coefficient((2, 0)).real
    beta = a.coefficient((0, 2)).real
    gamma = a.coefficient((1, 1)).real
    points = list(np.linspace(-span, span, grid))
    # rank drops exactly where det vanishes; include those boundary points
    disc = alpha * beta - gamma * gamma / 4.0
    if disc >= 0:
        points.extend([np.sqrt(disc), -np.sqrt(disc)])
    best = None
    for t in points:
        M = np.array([[alpha, gamma / 2 + 1j * t],
                      [gamma / 2 - 1j * t, beta]])
        w = np.linalg.eigvalsh(M)
        if w.min() < -psd_tol:
            continue
        rank = int((w > rank_tol * max(w.max(), 1e-30)).sum())
        best = rank if best is None else min(best, rank)
    return best


def gram_preimage_free(p, d: int) -> np.ndarray:
    """The unique Gram matrix of a free homogeneous degree-2d polynomial.

    Every word of length 2d splits uniquely into two halves, so the Gram map
    on the word basis is a bijection; the preimage is read off coefficient by
    coefficient and is Hermitian exactly when p is.
    """
    if p.flavor != FREE:
        raise FlavorMismatchError("gram_preimage_free takes a free polynomial")
    if not p.is_hermitian():
        raise NotHermitianError("polynomial is not Hermitian")
    basis = square_basis(FREE, p.n_vars, d)
    D = basis.size
    M = np.zeros((D, D), dtype=complex)
    index = basis.index
    for word, c in p.items():
        if len(word) != 2 * d:
            raise ValueError(
                f"term of degree {len(word)} in a polynomial expected homogeneous of degree {2 * d}")
        left, right = word[:d], word[d:]
        M[index[left[::-1]], index[right]] = c
    return M


def free_pythagoras_number(p, d):
    """Exact Pythagoras number of a free sum of squares: the unique Gram rank."""
    M = gram_preimage_free(p, d)
    w = np.linalg.eigvalsh(M)
    if w.min() < -1e-9 * max(abs(w).max(), 1e-30):
        return None
    return int((w > 1e-9 * max(w.max(), 1e-30)).sum())


def product_table(basis) -> tuple:
    """The product terms, their index and the flat cell map of
    `SquareBasis._products`, cell by cell: each product v_i* v_j by
    `poly.multiply_terms`, numbered in the order the cells (i, j) first
    reach it row by row."""
    D = basis.size
    prod_index: dict = {}
    prod_terms: list = []
    cell_to_prod = np.empty(D * D, dtype=np.int64)
    invol = [involute_term(basis.flavor, t) for t in basis.terms]
    for i in range(D):
        for j in range(D):
            t = multiply_terms(basis.flavor, invol[i], basis.terms[j])
            idx = prod_index.get(t)
            if idx is None:
                idx = prod_index[t] = len(prod_terms)
                prod_terms.append(t)
            cell_to_prod[i * D + j] = idx
    return tuple(prod_terms), prod_index, cell_to_prod


def hermitian_equations(basis) -> list:
    """Each equation's product term and kind ("self", "re" or "im"), from the
    definition: the product terms are those of v_i* v_j, multiplied out as
    polynomials, in the order the cells (i, j) first reach them row by row.
    A self-conjugate term gives one equation, and a pair tau, tau* an "re"
    and then an "im" equation at whichever of the two comes first."""
    words = [Polynomial(basis.flavor, basis.n_vars, {t: 1.0}) for t in basis.terms]
    first: dict = {}
    for u in words:
        for v in words:
            first.setdefault((u.involution() * v).items()[0][0], len(first))
    equations = []
    for t, pos in first.items():
        conj = Polynomial(basis.flavor, basis.n_vars, {t: 1.0}).involution().items()[0][0]
        if conj == t:
            equations.append((t, "self"))
        elif first[conj] > pos:
            equations += [(t, "re"), (t, "im")]
    return equations


def constraint_matrices(basis) -> np.ndarray:
    """The stack of the dense D x D matrices A_l of the equations over a basis,
    from the definition of each Hermitian basis element, in the order of
    `hermitian_equations`.

    E_tau puts 1 at (j, i) for each cell (i, j) whose product v_i* v_j,
    multiplied out as polynomials, is tau, so tr(E_tau M) is the coefficient
    of tau in G(M).  A Hermitian a is the sum of a_tau tau over the
    self-conjugate tau ("self") and of Re a_tau (tau + tau*) + Im a_tau
    i(tau - tau*) over the pairs ("re", "im"), so equation l reads Re tr(B M)
    for B = E_tau, or B = -i E_tau for "im".  On Hermitian M that functional
    is tr(A_l M) for the Hermitian A_l = (B + B*) / 2.
    """
    words = [Polynomial(basis.flavor, basis.n_vars, {t: 1.0}) for t in basis.terms]
    cell_terms = [[(u.involution() * v).items()[0][0] for v in words] for u in words]
    D = basis.size
    equations = hermitian_equations(basis)
    A = np.zeros((len(equations), D, D), dtype=complex)
    for l, (term, kind) in enumerate(equations):
        E = np.array([[float(cell_terms[j][i] == term) for j in range(D)] for i in range(D)])
        B = -1j * E if kind == "im" else E.astype(complex)
        A[l] = (B + B.conj().T) / 2
    return A


def jacobi_eigh(H: np.ndarray, tol: float = 1e-14,
                max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic complex Jacobi eigensolver (reference implementation).

    Rotates away off-diagonal entries in row-major cyclic order until the
    off-diagonal Frobenius mass falls below tol * ||H||_F.  Deterministic;
    quadratically convergent once nearly diagonal.
    """
    A = np.array(H, dtype=complex)
    n = A.shape[0]
    V = np.eye(n, dtype=complex)
    norm = np.linalg.norm(A)
    if n == 1 or norm == 0.0:
        return np.diag(A).real.copy(), V
    for _ in range(max_sweeps):
        # direct off-diagonal mass; the norm(A)^2 - norm(diag)^2 form cancels
        # catastrophically once nearly diagonal
        off = float(np.linalg.norm(A - np.diag(np.diag(A))))
        if off <= tol * norm:
            return np.diag(A).real.copy(), V
        # skipped entries leave off(A) well under tol*norm
        threshold = 0.1 * tol * norm / n
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= threshold:
                    continue
                app = A[p, p].real
                aqq = A[q, q].real
                # unitary 2x2 rotation diagonalizing [[app, apq], [apq*, aqq]]
                phase = apq / abs(apq)
                tau = (aqq - app) / (2.0 * abs(apq))
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c * phase
                rot_p = c * A[:, p] - np.conj(s) * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = np.conj(s) * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                rot_p = c * V[:, p] - np.conj(s) * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q
    raise NonConvergenceError(
        f"Jacobi sweeps did not converge after {max_sweeps} sweeps")


def hermitian_from_dict(data: dict) -> np.ndarray:
    """Inverse of `linalg.hermitian_to_dict`: the upper-triangle entries, mirrored."""
    d = int(data["dim"])
    M = np.zeros((d, d), dtype=complex)
    for i, j, re, im in data["entries"]:
        M[i, j] = complex(re, im)
        if i != j:
            M[j, i] = complex(re, -im)
    return M


def cross_polytope_lattice_all_signs(n_vars: int, resolution: int) -> np.ndarray:
    """The sphere lattice of `poly.sphere_lattice` for n_vars >= 4, by applying
    all 2^n sign vectors to every composition and dropping repeats."""
    def count(level: int) -> int:
        return sum((2 ** k) * math.comb(n_vars, k) * math.comb(level - 1, k - 1)
                   for k in range(1, min(n_vars, level) + 1))

    level = 1
    while count(level) < resolution and level < 256:
        level += 1
    seen = set()
    for signs in product((1, -1), repeat=n_vars):
        for comp in compositions(level, n_vars):
            seen.add(tuple(s * w if w else 0 for s, w in zip(signs, comp)))
    pts = np.array(sorted(seen), dtype=float)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)
