"""Square-space bases, the Gram map, its inverse on words, and its constraint form.

A basis v = (v_1, ..., v_D) of the homogeneous degree-d component induces the
Gram map M |-> sum_ij m_ij v_i* v_j.  On words (the free flavor) each cell's
product v_i* v_j is its own word, so the map is a bijection: `free_gram`
reads the one matrix off the coefficients and `upper_reads` lays out its
duals.  On monomials `build_constraints` rewrites the fiber {G(M) = a} as
real trace equations tr(A_l M) = lambda_l, one per product term l of the
basis's product table (`SquareBasis._products`, built once per basis;
`square_basis` keeps recent bases); the targets and symmetries are read once
per input.  Their `block_system`, restricted to the block-diagonal matrices
that keep the least trace, is what the SDP layer iterates on.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
        """All products v_i* v_j of a monomial basis: the distinct product
        terms, their index, and the flat cell map.

        With the terms as the integer rows of E, every cell's product is one
        integer row E[i] + E[j], built for all cells at once.  Each row
        becomes one int64 key, folded in column by column as mixed-radix
        digits; when the next digit would overflow, the keys are first
        replaced by their ranks among the distinct keys so far.  The terms
        are numbered in the order their first cell comes, row by row.  The
        cell map is shared by every constraint system on the basis, and
        read-only."""
        if self.flavor != COMMUTATIVE:
            raise ValueError("a word basis has no product table: each product word is one cell")
        D, width = self.size, self.n_vars
        E = np.array(self.terms, dtype=np.int64).reshape(D, width)
        rows = (E[:, None, :] + E[None, :, :]).reshape(D * D, width)
        key, bound = np.zeros(D * D, dtype=np.int64), 1
        for column in rows.T:
            radix = int(column.max(initial=0)) + 1
            if bound * radix > np.iinfo(np.int64).max:
                distinct, key = np.unique(key, return_inverse=True)
                key, bound = key.reshape(-1), len(distinct)
            key, bound = key * radix + column, bound * radix
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        cell_to_prod = rank[inverse.reshape(-1)]
        prod_terms = tuple(map(tuple, rows[first[order]].tolist()))
        prod_index = {t: i for i, t in enumerate(prod_terms)}
        cell_to_prod.flags.writeable = False
        return prod_terms, prod_index, cell_to_prod

    @property
    def product_terms(self) -> tuple[Term, ...]:
        return self._products[0]


# square_basis keeps the bases it built, least recently used dropped first, up
# to this many cells (D^2) in all: a kept monomial basis holds its product
# table, about 17 bytes a cell, and a word basis only its words and their
# index, about 125 bytes a word (tracemalloc, commutative n=3 d=10 and free
# n=2 d=6), so at most about 1.1 MB
_MEMO_CELLS = 1 << 16
_memo: OrderedDict[tuple[str, int, int], SquareBasis] = OrderedDict()


def square_basis(flavor: str, n_vars: int, degree: int,
                 max_size: int = DEFAULT_BASIS_CAP) -> SquareBasis:
    """Complete canonical basis of the homogeneous degree-d component.

    Recent bases are kept (`_MEMO_CELLS`), so that one object per (flavor,
    n_vars, degree) builds its product table (monomials) or its word index
    once; a basis larger than that bound is built anew by every call."""
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
    """The polynomial sum_ij m_ij v_i* v_j; *-linear in M; on words the inverse
    of `free_gram`.  M must be finite: a NaN entry would be dropped as zero."""
    M = np.asarray(M, dtype=complex)
    D = basis.size
    if M.shape != (D, D):
        raise DimensionMismatchError(
            f"matrix shape {M.shape} does not match basis size {D}")
    if not np.isfinite(M).all():
        raise ValueError("gram_map takes a finite matrix")
    flat = M.reshape(-1)
    if basis.flavor == COMMUTATIVE:
        terms, _, cell_to_prod = basis._products
        values = (np.bincount(cell_to_prod, flat.real, len(terms))
                  + 1j * np.bincount(cell_to_prod, flat.imag, len(terms)))
        term = terms.__getitem__
    else:
        values, left = flat + 0.0, [t[::-1] for t in basis.terms]     # -0.0 parts read 0.0
        term = lambda k: left[k // D] + basis.terms[k % D]
    kept = np.flatnonzero(np.abs(values) >= COEFF_DROP_TOL)
    return Polynomial._raw(basis.flavor, basis.n_vars,
                           {term(k): c for k, c in zip(kept.tolist(), values[kept].tolist())})


def _word_cells(basis: SquareBasis, words: list[Term]) -> np.ndarray:
    """The flat cell i*D + j of each product word v_i* v_j of a word basis: v_i
    is the word's first half reversed, v_j its second (none at another degree)."""
    index, d, D = basis.index, basis.degree, basis.size
    try:
        return np.array([index[w[:d][::-1]] * D + index[w[d:]] for w in words], dtype=np.int64)
    except KeyError:
        outside = next(w for w in words if w[:d][::-1] not in index or w[d:] not in index)
        raise ValueError(f"term {outside} lies outside the product space V*V") from None


def free_gram(a: Polynomial, basis: SquareBasis) -> np.ndarray:
    """The one M with gram_map(M, basis) = a on a word basis; the caller tests it is Hermitian."""
    if a.flavor != basis.flavor or a.n_vars != basis.n_vars:
        raise FlavorMismatchError("polynomial and basis live in different algebras")
    M = np.zeros((basis.size, basis.size), dtype=complex)
    M.reshape(-1)[_word_cells(basis, list(a._coeffs))] = list(a._coeffs.values())
    return M


@lru_cache(maxsize=16)
def _upper_layout(D: int) -> np.ndarray:
    """Where `upper_reads` reads in the flat (Re, Im) view of a D x D complex matrix."""
    i, j = np.triu_indices(D)
    where = np.sort(np.concatenate([2 * (i * D + j), 2 * (i * D + j)[i != j] + 1]))
    where.flags.writeable = False       # shared by every caller
    return where


def upper_reads(M: np.ndarray, off: float = 1.0) -> np.ndarray:
    """Re tr(A_l M) over the words' Hermitian basis (w_ii; w_ij + w_ji and
    i(w_ij - w_ji) for i < j): the Hermitian part H of M on and above the
    diagonal, row by row, as Re H_ii or Re H_ij then Im H_ij; zero parts read
    0.0.  With off = 2 the latter two are doubled: the y with A*(y) = H."""
    M = np.asarray(M, dtype=complex)
    H = (M + M.conj().T) * (off / 2)
    np.fill_diagonal(H, H.diagonal() / off)
    return H.reshape(-1).view(float)[_upper_layout(len(H))] + 0.0


# -- constraint form ----------------------------------------------------------

class GramConstraints:
    """Trace equations tr(A_l M) = lambda_l encoding G_v(M) = a on a monomial basis.

    Equation l is product term l: A_l, never stored, is the 0/1 indicator of
    its cells, closed under the transpose, and lambda_l = Re a_l.  The
    supports are disjoint, so the normal system <A_l, A_m> is diagonal (the
    cell counts), and every A_l is real, so the real part of a feasible M is
    feasible with the same trace.  `blocks` partitions the basis indices (one
    block by default) so that some matrix of least trace in the fiber is
    block-diagonal over it; `swaps` are permutations of the basis indices
    that map the equations and their targets onto themselves (none by
    default).  `block_system` is what the solver runs on.
    """

    def __init__(self, basis: SquareBasis, targets: np.ndarray,
                 blocks: tuple[np.ndarray, ...] | None = None,
                 swaps: tuple[np.ndarray, ...] = ()):
        self.basis = basis
        self.targets = np.asarray(targets, dtype=float)
        self.dim = basis.size
        self.blocks = (np.arange(self.dim),) if blocks is None else blocks
        self.swaps = swaps
        self._cell_to_prod = basis._products[2]

    @property
    def k(self) -> int:
        """Number of real-valued constraints (= the number of product terms)."""
        return len(self.targets)

    def apply(self, M: np.ndarray) -> np.ndarray:
        """The vector (tr(A_l M))_l, the real part of M summed over each term's cells."""
        return np.bincount(self._cell_to_prod, M.reshape(-1).real, self.k)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """sum_l y_l A_l for real y: cell (i, j) holds y at its term."""
        return y[self._cell_to_prod.reshape(self.dim, self.dim)]

    def residual(self, M: np.ndarray) -> float:
        return float(np.linalg.norm(self.apply(M) - self.targets))

    @cached_property
    def _normal_diag(self) -> np.ndarray:
        """||A_l||_F^2: the cell count of term l."""
        return np.bincount(self._cell_to_prod, minlength=self.k).astype(float)

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
    product term.  A_l is the 0/1 indicator of one product term's cells,
    closed under the transpose, so tr(A_l M) is one `bincount` over `seg`
    and A*(y) one gather.  The equations that touch only cells between
    blocks have target 0 and are dropped; `keep` lists the others, in the
    order of their rows of the full system.

    The constraints' `swaps` generate a group G that permutes the blocks;
    `orbit[b]` is the first block of the orbit of block b, its
    representative.  Some matrix of least trace is invariant under G
    (Gatermann & Parrilo 2004), and an invariant matrix is fixed by its
    representatives: every other block is a permuted copy of one.  When G
    merges blocks, `psd_part` projects an invariant matrix with one
    eigendecomposition per orbit instead of one per block.  The blocks it
    decomposes, all of them or the representatives, are `projected`:
    (offset, size) in the block vector itself.
    """

    def __init__(self, cons: GramConstraints):
        D = cons.dim
        index = sorted(cons.blocks, key=len, reverse=True)
        sizes = np.array([len(ix) for ix in index], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes ** 2)])
        self.cells = np.concatenate([(ix[:, None] * D + ix).reshape(-1) for ix in index])
        eq = cons._cell_to_prod[self.cells]
        inside = np.bincount(eq, minlength=cons.k)    # a kept A_l has all its cells inside
        keep = np.flatnonzero(inside)
        if (inside[keep] != cons._normal_diag[keep]).any() or cons.targets[inside == 0].any():
            raise ValueError("the constraints do not split over the blocks")
        self.seg = np.searchsorted(keep, eq)
        self.targets = cons.targets[keep]
        self.keep = keep
        self.k_full = cons.k
        self._terms = cons.basis.product_terms
        self.dim = D
        self.index = tuple(index)
        self.offsets = offsets
        self.size = int(offsets[-1])
        self._normal = cons._normal_diag[keep]
        self.diagonal = np.flatnonzero(self.cells // D == self.cells % D)
        self.projected = list(zip(offsets[:-1].tolist(), sizes.tolist()))

        self.orbit = np.arange(len(index))
        self._first = None
        if cons.swaps:
            where = np.full(D * D, -1, dtype=np.int64)
            where[self.cells] = np.arange(self.size)
            self._merge_orbits(cons.swaps, where)

    def _merge_orbits(self, swaps, where) -> None:
        """Find each cell's orbit under the group the swaps generate together
        with the transpose, as `_first`: the lowest flat position in it.

        A swap maps cell (i, j) to (perm[i], perm[j]).  The transpose joins
        (i, j) and (j, i): a swap can carry a cell below one diagonal to a
        cell above another, and LAPACK reads only the lower triangle, so
        without it an asymmetric rounding error would feed back into the
        iterates and grow.  A swap permutes the blocks iff `where`, a cell's
        position or -1 outside the blocks, places every image.  A cell's
        orbit meets every block of its block's orbit, so its lowest position
        lies in the first of them, the representative; only the
        representatives are then `projected`.
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
        if len(reps) < len(self.index):
            self._first = first
            self.projected = [self.projected[r] for r in reps]

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
        projection kept, and is updated in place.  It is each block's hint
        to `linalg.psd_part`, which writes the block's projection straight
        into the output: a block that kept none or all of them is first
        tried with one Cholesky factorization, a block that kept at most a
        quarter of them is decomposed for its positive eigenpairs only, the
        others fully.  The hint changes the cost, not the result: every
        route gives the projection up to rounding.

        With merged orbits x must be invariant under G, up to rounding:
        only the representative blocks are projected, and every cell copies
        its value back from the first cell of its orbit.  G acts by
        conjugation with permutation matrices, which commutes with the PSD
        projection, so on an invariant x every other block's projection is
        the permuted copy of its representative's; the copy-back also makes
        the output exactly invariant and symmetric.  The solver's iterates
        are such inputs: they start at zero, every affine map of the loop
        commutes with G, and every projection it makes is exactly invariant.
        """
        out = np.empty_like(x)
        for b, (o, s) in enumerate(self.projected):
            ranks[b] = linalg.psd_part(x[o:o + s * s].reshape(s, s), ranks[b],
                                       out[o:o + s * s].reshape(s, s))
        return out if self._first is None else out[self._first]

    @cached_property
    def moment_shift(self) -> tuple[np.ndarray, list[np.ndarray], float]:
        """Gaussian moments y0_l = E[x^tau_l] = prod (tau_i - 1)!! (0 if a tau_i is
        odd) on the kept equations, scaled to a largest value of 1; the blocks of
        S0 = sum y0_l A_l, moment matrices of independent monomials under a measure
        of full support, so positive definite; lambda_max(S0)."""
        m = [0 if any(e % 2 for e in t) else math.prod(math.prod(range(e - 1, 0, -2)) for e in t)
             for t in (self._terms[l] for l in self.keep)]
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
    """Constraint form of the fiber over a on a monomial basis: M is a Gram
    matrix of a iff tr(A_l M) = lambda_l, one equation per product term,
    lambda_l its coefficient's real part.  A word basis is refused: it has
    one Gram matrix per input (`free_gram`)."""
    if a.flavor != basis.flavor or a.n_vars != basis.n_vars:
        raise FlavorMismatchError("polynomial and basis live in different algebras")
    if basis.flavor != COMMUTATIVE:
        raise ValueError("build_constraints takes a monomial basis (words: free_gram)")
    if not a.is_hermitian():
        raise NotHermitianError("polynomial is not Hermitian")
    if a and (not a.is_homogeneous() or a.degree() != 2 * basis.degree):
        raise ValueError(
            f"polynomial must be homogeneous of degree {2 * basis.degree}")
    prod_index = basis._products[1]
    targets = np.zeros(len(prod_index))
    for t, c in a._coeffs.items():
        if t not in prod_index:
            raise ValueError(f"term {t} lies outside the product space V*V")
        targets[prod_index[t]] = c.real
    return GramConstraints(basis, targets, _parity_blocks(a, basis), _variable_swaps(a, basis))
