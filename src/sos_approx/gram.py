"""Square-space bases, the Gram map, and its constraint-matrix form.

A basis v = (v_1, ..., v_D) of the homogeneous degree-d component induces the
Gram map M |-> sum_ij m_ij v_i* v_j.  `build_constraints` rewrites the fiber
{G(M) = a} as real-valued trace equations tr(A_l M) = lambda_l over a
Hermitian basis w of the product space.  Equation l is a product term tau
and whether its target is Re a_tau or Im a_tau; w_l is tau, tau + tau* or
i(tau - tau*).  The equations and each A_l are read off the basis's product
table (`SquareBasis._products`, built once per basis; `square_basis` keeps
recent bases); the targets and symmetries are read once per input.  For
commutative inputs each A_l is the 0/1 indicator of one product term's
cells; their `block_system`, restricted to the block-diagonal matrices that
keep the least trace, is what the SDP layer iterates on.  In the free flavor
the Gram map is a bijection, and `GramConstraints.solve_normal` inverts it
(`sdp._unique_gram`).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as _iproduct
from typing import Iterable

import numpy as np

from . import linalg
from .poly import (
    COMMUTATIVE,
    COEFF_DROP_TOL,
    DimensionMismatchError,
    FlavorMismatchError,
    Polynomial,
    Term,
    _check_flavor,
    compositions,
    involute_term,
    multiply_terms,
    term_sort_key,
)

DEFAULT_BASIS_CAP = 100_000


class BasisSizeError(ValueError):
    """Requested basis exceeds the configured entry cap."""


class NotHermitianError(ValueError):
    """Input polynomial or matrix is not Hermitian within tolerance."""


def basis_size(flavor: str, n_vars: int, degree: int) -> int:
    _check_flavor(flavor)
    if flavor == COMMUTATIVE:
        return math.comb(degree + n_vars - 1, n_vars - 1)
    return n_vars ** degree


def _enumerate_terms(flavor: str, n_vars: int, degree: int) -> tuple[Term, ...]:
    if flavor == COMMUTATIVE:
        terms: Iterable[Term] = compositions(degree, n_vars)
    else:
        terms = _iproduct(range(n_vars), repeat=degree)
    return tuple(sorted(terms, key=lambda t: term_sort_key(flavor, t)))


@dataclass(frozen=True)
class SquareBasis:
    """Ordered distinct degree-d terms (monomials or words) whose squares are taken.

    On any such basis, in any order and complete or not, the Gram map takes
    an error matrix E to a polynomial no larger than E, which is what
    certifies a spectral truncation:
    - words: v_i* v_j is v_i reversed followed by v_j, so distinct cells give
      distinct words and gram_map(E) has the entries of E as coefficients:
      its coefficient 2-norm is ||E||_F;
    - monomials: at a point x of the unit sphere gram_map(E)(x) = v(x)* E v(x)
      for the vector v(x) of basis monomials, so |gram_map(E)(x)| <=
      ||E||_2 ||v(x)||^2, and ||v(x)||^2, a sum of distinct x^(2 alpha) with
      |alpha| = d, is at most (x_1^2 + ... + x_n^2)^d = 1 (every multinomial
      coefficient is >= 1).
    Hence the terms must be pairwise distinct and of degree `degree` in
    `n_vars` variables; `__post_init__` refuses any other.
    """

    flavor: str
    n_vars: int
    degree: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        _check_flavor(self.flavor)
        for t in self.terms:
            if self.flavor == COMMUTATIVE:
                ok = len(t) == self.n_vars and min(t, default=0) >= 0 and sum(t) == self.degree
            else:
                ok = len(t) == self.degree and all(0 <= s < self.n_vars for s in t)
            if not ok:
                raise ValueError(
                    f"term {t} is not of degree {self.degree} in {self.n_vars} variables")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("basis terms must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.terms)

    @cached_property
    def index(self) -> dict[Term, int]:
        return {t: i for i, t in enumerate(self.terms)}

    @cached_property
    def _products(self):
        """All products v_i* v_j: the distinct product terms, their index, the
        flat cell map, each term's conjugate, and the equations (tau, imag).

        (v_i* v_j)* = v_j* v_i, so a term's conjugate is the term of the
        transposed cell.  A self-conjugate term gives one equation, a pair
        t < t* an "re" and then an "im" equation at t.  The arrays are shared
        by every constraint system on the basis, and read-only."""
        D = self.size
        prod_index: dict[Term, int] = {}
        prod_terms: list[Term] = []
        cell_to_prod = np.empty(D * D, dtype=np.int64)
        invol = [involute_term(self.flavor, t) for t in self.terms]
        for i in range(D):
            vi = invol[i]
            for j in range(D):
                t = multiply_terms(self.flavor, vi, self.terms[j])
                idx = prod_index.get(t)
                if idx is None:
                    idx = len(prod_terms)
                    prod_index[t] = idx
                    prod_terms.append(t)
                cell_to_prod[i * D + j] = idx
        conj = np.empty(len(prod_terms), dtype=np.int64)
        conj[cell_to_prod] = cell_to_prod.reshape(D, D).T.ravel()
        lower = np.flatnonzero(np.arange(len(conj)) <= conj)
        tau = np.repeat(lower, np.where(conj[lower] == lower, 1, 2))
        imag = np.zeros(len(tau), dtype=bool)
        imag[1:] = tau[1:] == tau[:-1]
        for array in (cell_to_prod, conj, tau, imag):
            array.flags.writeable = False
        return tuple(prod_terms), prod_index, cell_to_prod, conj, tau, imag

    @property
    def product_terms(self) -> tuple[Term, ...]:
        return self._products[0]


# square_basis keeps the bases it built, least recently used dropped first, up
# to this many cells (D^2) in all: a kept basis holds its product table, about
# 230 bytes a cell for words and 15 for monomials (tracemalloc, free n=2 d=6
# and commutative n=3 d=10), so at most about 15 MB
_MEMO_CELLS = 1 << 16
_memo: OrderedDict[tuple[str, int, int], SquareBasis] = OrderedDict()


def square_basis(flavor: str, n_vars: int, degree: int,
                 max_size: int = DEFAULT_BASIS_CAP) -> SquareBasis:
    """Complete canonical basis of the homogeneous degree-d component.

    Recent bases are kept (`_MEMO_CELLS`), so that one object per (flavor,
    n_vars, degree) builds its product table, and with it the equations, once;
    a basis larger than that bound is built anew by every call."""
    _check_flavor(flavor)
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    size = basis_size(flavor, n_vars, degree)
    if size > max_size:
        raise BasisSizeError(
            f"basis would have {size} entries, exceeding the cap of {max_size}")
    key = (flavor, n_vars, degree)
    basis = _memo.pop(key, None)
    if basis is None:
        basis = SquareBasis(flavor, n_vars, degree, _enumerate_terms(flavor, n_vars, degree))
    if size * size <= _MEMO_CELLS:
        _memo[key] = basis
        while len(_memo) > 32 or sum(b.size ** 2 for b in _memo.values()) > _MEMO_CELLS:
            _memo.popitem(last=False)
    return basis


def homogeneous_basis(p: Polynomial) -> SquareBasis:
    """Canonical basis of degree deg(p) / 2 for p homogeneous of even degree (0 -> 0)."""
    if p.degree() % 2 != 0 or not p.is_homogeneous():
        raise ValueError("input must be homogeneous of even degree")
    return square_basis(p.flavor, p.n_vars, p.degree() // 2)


def gram_map(M: np.ndarray, basis: SquareBasis) -> Polynomial:
    """The polynomial sum_ij m_ij v_i* v_j; *-linear in M."""
    M = np.asarray(M, dtype=complex)
    D = basis.size
    if M.shape != (D, D):
        raise DimensionMismatchError(
            f"matrix shape {M.shape} does not match basis size {D}")
    prod_terms, _, cell_to_prod = basis._products[:3]
    flat = M.reshape(-1)
    re = np.bincount(cell_to_prod, weights=flat.real, minlength=len(prod_terms))
    im = np.bincount(cell_to_prod, weights=flat.imag, minlength=len(prod_terms))
    coeffs = {}
    for idx, term in enumerate(prod_terms):
        c = complex(re[idx], im[idx])
        if abs(c) >= COEFF_DROP_TOL:
            coeffs[term] = c
    return Polynomial._raw(basis.flavor, basis.n_vars, coeffs)


# -- constraint form ----------------------------------------------------------

class GramConstraints:
    """Trace equations tr(A_l M) = lambda_l encoding G_v(M) = a.

    Equation l is the pair (product term tau[l], imag[l]): its Hermitian
    basis element w_l is tau if tau is self-conjugate, else tau + tau*
    (imag false) or i(tau - tau*) (imag true), and its target is Re a_tau or
    Im a_tau; A_l is never stored.  With c_t the coefficient of t in G(M),
    the sum of m_ij over the cells (i, j) of t, and h_t = (c_t + conj(c_t*))
    / 2 the Hermitian part, tr(A_l M) is Re h_tau or Im h_tau.  The A_l are
    Hermitian with pairwise disjoint supports, or share one support pair
    with purely imaginary overlap ("re" and "im" of one term), so the real
    normal system Re<A_l, A_m> is diagonal for every basis.  On commutative
    bases every term is self-conjugate and every A_l real; then the real
    part of a feasible M is feasible with the same trace.  `blocks`
    partitions the basis indices (one block by default) so that some matrix
    of least trace in the fiber is block-diagonal over it; `swaps` are
    permutations of the basis indices that map the equations and their
    targets onto themselves (none by default).  `block_system` (commutative
    bases) is what the solver runs on.
    """

    def __init__(self, basis: SquareBasis, targets: np.ndarray, tau: np.ndarray,
                 imag: np.ndarray, blocks: tuple[np.ndarray, ...] | None = None,
                 swaps: tuple[np.ndarray, ...] = ()):
        self.basis = basis
        self.targets = np.asarray(targets, dtype=float)
        self.tau = tau
        self.imag = imag
        self.dim = basis.size
        self.blocks = (np.arange(self.dim),) if blocks is None else blocks
        self.swaps = swaps
        self._cell_to_prod, self._conj = basis._products[2:4]
        self._real = basis.flavor == COMMUTATIVE     # every term its own conjugate

    @property
    def k(self) -> int:
        """Number of real-valued constraints (= dim_C of the product space)."""
        return len(self.tau)

    @cached_property
    def _reads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """tr(A_l M) = (c[slot] + sign * c[mirror]) / 2 over c stacked as (Re c,
        Im c): slot and mirror at the target's part of c_tau and of c_tau*."""
        part = len(self._conj) * self.imag
        return self.tau + part, self._conj[self.tau] + part, np.where(self.imag, -1.0, 1.0)

    def apply(self, M: np.ndarray) -> np.ndarray:
        """The vector (tr(A_l M))_l; real for Hermitian M.  On commutative
        bases h = Re c, one real `bincount`."""
        flat, n = M.reshape(-1), len(self._conj)
        re = np.bincount(self._cell_to_prod, flat.real, n)
        if self._real:
            return re[self.tau]
        c = np.concatenate([re, np.bincount(self._cell_to_prod, flat.imag, n)])
        slot, mirror, sign = self._reads
        return (c[slot] + sign * c[mirror]) / 2

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """sum_l y_l A_l for real y; Hermitian by construction, complex for free bases.
        Cell (i, j) holds h_t of its term t, h the transposed reads of `apply`."""
        n, D = len(self._conj), self.dim
        cells = self._cell_to_prod.reshape(D, D)
        if self._real:
            return np.bincount(self.tau, y, n)[cells]
        slot, mirror, sign = self._reads
        h = (np.bincount(slot, y, 2 * n) + np.bincount(mirror, sign * y, 2 * n)) / 2
        A = np.empty((D, D), dtype=complex)
        A.real, A.imag = h[:n][cells], h[n:][cells]
        return A

    def residual(self, M: np.ndarray) -> float:
        return float(np.linalg.norm(self.apply(M) - self.targets))

    @cached_property
    def _normal_diag(self) -> np.ndarray:
        """||A_l||_F^2: the cell count of tau, or for a conjugate pair a
        quarter of the counts of tau and tau*."""
        count = np.bincount(self._cell_to_prod, minlength=len(self._conj)).astype(float)
        conj = self._conj[self.tau]
        return np.where(conj == self.tau, count[self.tau], (count[self.tau] + count[conj]) / 4)

    def solve_normal(self, rhs: np.ndarray) -> np.ndarray:
        """Solve <A, A*> mu = rhs (the constraint Gram system, diagonal)."""
        return rhs / self._normal_diag

    @cached_property
    def block_system(self) -> "BlockSystem":
        return BlockSystem(self)


class BlockSystem:
    """The trace equations restricted to real matrices block-diagonal over `blocks`.

    A block-diagonal matrix is one flat real vector: block b (basis indices
    `index[b]`, size s) row-major at x[offsets[b]:offsets[b] + s*s], blocks
    sorted by size, largest first; position p holds the full-matrix cell
    `cells[p]` = i*D + j of the kept equation `seg[p]`, the one of the cell's
    product term.  On a commutative basis A_l is the 0/1 indicator of one
    product term's cells, closed under the transpose, so tr(A_l M) is one
    `bincount` over `seg` and A*(y) one gather; non-commutative bases are
    refused.  The equations that touch only cells between blocks have target
    0 and are dropped; `keep` lists the others, in the order of their rows of
    the full system.

    The constraints' `swaps` generate a group G that permutes the blocks;
    `orbit[b]` is the first block of the orbit of block b, its
    representative.  Some matrix of least trace is invariant under G
    (Gatermann & Parrilo 2004), and an invariant matrix is fixed by its
    representatives: every other block is a permuted copy of one.  When G
    merges blocks, `psd_part` projects onto the invariant PSD matrices with
    one eigendecomposition per orbit instead of one per block.  The blocks
    it decomposes, all of them or the representatives, are `projected`:
    (offset, size) in the vector it decomposes.
    """

    def __init__(self, cons: GramConstraints):
        if cons.basis.flavor != COMMUTATIVE:
            raise ValueError("the block system is real: non-commutative bases are refused")
        D = cons.dim
        index = sorted(cons.blocks, key=len, reverse=True)
        sizes = np.array([len(ix) for ix in index], dtype=np.int64)
        offsets = _offsets(sizes)
        self.cells = np.concatenate([(ix[:, None] * D + ix).reshape(-1) for ix in index])
        eq_of_term = np.full(len(cons._conj), -1, dtype=np.int64)
        eq_of_term[cons.tau] = np.arange(cons.k)
        eq = eq_of_term[cons._cell_to_prod[self.cells]]
        inside = np.bincount(eq, minlength=cons.k)    # a kept A_l has all its cells inside
        keep = np.flatnonzero(inside)
        if (inside[keep] != cons._normal_diag[keep]).any() or cons.targets[inside == 0].any():
            raise ValueError("the constraints do not split over the blocks")
        self.seg = np.searchsorted(keep, eq)
        self.targets = cons.targets[keep]
        self.keep = keep
        self.k_full = cons.k
        self._terms, self._tau = cons.basis.product_terms, cons.tau
        self.dim = D
        self.index = tuple(index)
        self.offsets = offsets
        self.size = int(offsets[-1])
        self._normal = cons._normal_diag[keep]
        self.diagonal = np.flatnonzero(self.cells // D == self.cells % D)
        self.projected = list(zip(offsets[:-1].tolist(), sizes.tolist()))

        self.orbit = np.arange(len(index))
        self._labels = None
        if cons.swaps:
            where = np.full(D * D, -1, dtype=np.int64)
            where[self.cells] = np.arange(self.size)
            self._merge_orbits(cons.swaps, where)

    def _merge_orbits(self, swaps, where) -> None:
        """Label each cell with its orbit under the group the swaps generate
        together with the transpose.

        A swap maps cell (i, j) to (perm[i], perm[j]).  The transpose joins
        (i, j) and (j, i): a swap can carry a cell below one diagonal to a
        cell above another, and `eigh` reads only the lower triangle, so
        without it an asymmetric rounding error would feed back into the
        iterates and grow.  A swap permutes the blocks iff `where`, a cell's
        position or -1 outside the blocks, places every image.  `first` ends
        as the lowest flat position in each cell's orbit, which lies in the
        orbit's first block, its representative.
        """
        ci, cj = np.divmod(self.cells, self.dim)
        images = [where[cj * self.dim + ci]]
        for perm in swaps:
            image = where[perm[ci] * self.dim + perm[cj]]
            if (image < 0).any():
                raise ValueError("the swaps do not permute the blocks")
            images.append(image)
        first = np.arange(self.size)
        while True:
            last = first
            for image in images:
                first = np.minimum(first, first[image])
            if np.array_equal(first, last):
                break
        self.orbit = np.searchsorted(self.offsets, first[self.offsets[:-1]], side="right") - 1
        reps = np.flatnonzero(self.orbit == np.arange(len(self.index)))
        if len(reps) == len(self.index):
            return
        # the representatives stacked into one compact vector
        stacked = np.concatenate([np.arange(self.offsets[r], self.offsets[r + 1]) for r in reps])
        compact = np.empty(self.size, dtype=np.int64)
        compact[stacked] = np.arange(len(stacked))
        _, self._labels = np.unique(first, return_inverse=True)
        self._count = np.bincount(self._labels)
        self._gather = self._labels[stacked]
        self._src = compact[first]
        sizes = np.array([len(self.index[r]) for r in reps])
        self.projected = list(zip(_offsets(sizes)[:-1].tolist(), sizes.tolist()))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.seg, x, len(self.keep))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return y[self.seg]

    def solve_normal(self, rhs: np.ndarray) -> np.ndarray:
        return rhs / self._normal

    def identity(self) -> np.ndarray:
        eye = np.zeros(self.size)
        eye[self.diagonal] = 1.0
        return eye

    def trace(self, x: np.ndarray) -> float:
        return float(x[self.diagonal].sum())

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """The blocks of x as square views."""
        return [x[o:o + len(ix) ** 2].reshape(len(ix), len(ix))
                for o, ix in zip(self.offsets, self.index)]

    def block_eigenvalues(self, y: np.ndarray) -> list[np.ndarray]:
        """The eigenvalues of each block of sum_l y_l A_l, descending."""
        return [linalg.eig_hermitian(B, vectors=False).eigenvalues
                for B in self.split(self.adjoint(y))]

    def rank_hint(self) -> list[int]:
        """A fresh rank hint for `psd_part`: every projected block at full rank."""
        return [s for _, s in self.projected]

    def psd_part(self, x: np.ndarray, ranks: list[int]) -> np.ndarray:
        """Projection onto the PSD cone, one LAPACK call per projected block.

        `ranks` (from `rank_hint`, kept by the caller across calls) holds
        for each projected block the number of eigenvalues its previous
        projection kept, and is updated in place.  A block that kept at most
        a quarter of them is decomposed for its positive eigenpairs only,
        the others fully (`linalg.psd_part`).  The hint changes the cost,
        not the result: both give the projection up to rounding.

        With merged orbits it is the projection onto the invariant PSD
        matrices: each cell is averaged over its orbit (the orthogonal
        projection onto the invariant matrices), only the representative
        blocks are projected, and every cell copies its orbit's value back
        from them.  G acts by conjugation with permutation matrices, which
        commutes with the PSD projection, so the projected average is
        invariant and is the nearest invariant PSD matrix.
        """
        if self._labels is not None:
            x = (np.bincount(self._labels, x, len(self._count)) / self._count)[self._gather]
        out = np.empty_like(x)
        for b, (o, s) in enumerate(self.projected):
            P, ranks[b] = linalg.psd_part(x[o:o + s * s].reshape(s, s), 4 * ranks[b] <= s)
            out[o:o + s * s] = P.reshape(-1)
        return out if self._labels is None else out[self._src]

    @cached_property
    def moment_shift(self) -> tuple[np.ndarray, list[np.ndarray], float]:
        """Gaussian moments y0_l = E[x^tau_l] = prod (tau_i - 1)!! (0 if a tau_i is
        odd) on the kept equations, scaled to a largest value of 1; the blocks of
        S0 = sum y0_l A_l, moment matrices of independent monomials under a measure
        of full support, so positive definite; lambda_max(S0)."""
        m = [0 if any(e % 2 for e in t) else math.prod(math.prod(range(e - 1, 0, -2)) for e in t)
             for t in (self._terms[self._tau[l]] for l in self.keep)]
        y0 = (np.array(m, dtype=object) / max(m)).astype(float)    # exact integers until scaled
        return y0, self.split(self.adjoint(y0)), max(w[0] for w in self.block_eigenvalues(y0))

    def embed(self, x: np.ndarray) -> np.ndarray:
        """The full D x D complex matrix with the blocks of x on their indices."""
        M = np.zeros(self.dim * self.dim, dtype=complex)
        M[self.cells] = x
        return M.reshape(self.dim, self.dim)

    def lift(self, y: np.ndarray) -> np.ndarray:
        """A vector over the kept equations as one over all k, zero on the dropped."""
        out = np.zeros(self.k_full)
        out[self.keep] = y
        return out


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Flat offsets of square blocks of these sizes laid end to end, and the end."""
    return np.concatenate([[0], np.cumsum(sizes ** 2)])


def _parity_blocks(a: Polynomial, basis: SquareBasis) -> tuple[np.ndarray, ...]:
    """Basis indices of a commutative monomial basis grouped by sign symmetry.

    The flips x_j -> -x_j that fix every monomial of a act on the basis by
    signs, so averaging a Gram matrix of a over them keeps it feasible, PSD
    and of the same trace, and zeroes each cell whose product term has its
    parity vector outside the GF(2) span S of the parity vectors of supp(a)
    (Gatermann & Parrilo 2004).  Two monomials share a block iff their
    parity vectors lie in one coset of S.  A swap of variables that fixes a
    maps S onto itself, so it permutes these blocks; `BlockSystem` groups
    them into orbits.
    """
    def parity(t: Term) -> int:
        return sum((e & 1) << j for j, e in enumerate(t))

    span: list[int] = []        # basis of S with distinct leading bits, descending

    def reduce(v: int) -> int:  # canonical representative of the coset v + S
        for s in span:
            v = min(v, v ^ s)
        return v

    for t in a._coeffs:
        v = reduce(parity(t))
        if v:
            span.append(v)
            span.sort(reverse=True)
    classes: dict[int, list[int]] = {}
    for i, t in enumerate(basis.terms):
        classes.setdefault(reduce(parity(t)), []).append(i)
    return tuple(np.array(ix, dtype=np.int64) for ix in classes.values())


def _variable_swaps(a: Polynomial, basis: SquareBasis) -> tuple[np.ndarray, ...]:
    """The swaps x_i <-> x_j that fix a, as permutations of the basis indices.

    Coefficients must be equal after the swap, with no tolerance: a Gram
    matrix of least trace invariant under the swaps exists only for exact
    symmetries (Gatermann & Parrilo 2004).
    """
    swaps = []
    for i, j in combinations(range(basis.n_vars), 2):
        def swap(t: Term) -> Term:
            t = list(t)
            t[i], t[j] = t[j], t[i]
            return tuple(t)

        if all(a._coeffs.get(swap(t)) == c for t, c in a._coeffs.items()):
            perm = [basis.index.get(swap(t)) for t in basis.terms]
            if None not in perm:
                swaps.append(np.array(perm, dtype=np.int64))
    return tuple(swaps)


def build_constraints(a: Polynomial, basis: SquareBasis) -> GramConstraints:
    """Constraint form of the fiber over a: M is a Gram matrix of a iff
    tr(A_l M) = lambda_l for all l.

    The product basis pairs each non-self-conjugate term tau with tau* into
    the Hermitian combinations tau + tau* and i(tau - tau*), so every target
    is real and the constraint count equals dim_C(V*V).
    """
    if a.flavor != basis.flavor or a.n_vars != basis.n_vars:
        raise FlavorMismatchError("polynomial and basis live in different algebras")
    if not a.is_hermitian():
        raise NotHermitianError("polynomial is not Hermitian")
    if a and (not a.is_homogeneous() or a.degree() != 2 * basis.degree):
        raise ValueError(
            f"polynomial must be homogeneous of degree {2 * basis.degree}")
    _, prod_index, _, _, tau, imag = basis._products
    coeffs = np.zeros(len(prod_index), dtype=complex)
    for t, c in a._coeffs.items():
        if t not in prod_index:
            raise ValueError(f"term {t} lies outside the product space V*V")
        coeffs[prod_index[t]] = c
    lam = coeffs[tau]
    commutative = basis.flavor == COMMUTATIVE
    return GramConstraints(
        basis, np.where(imag, lam.imag, lam.real), tau, imag,
        _parity_blocks(a, basis) if commutative else None,
        _variable_swaps(a, basis) if commutative else ())

