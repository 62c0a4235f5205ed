"""Square-space bases, the Gram map, and its constraint-matrix form.

A basis v = (v_1, ..., v_D) of the homogeneous degree-d component induces the
Gram map M |-> sum_ij m_ij v_i* v_j.  `build_constraints` rewrites the fiber
{G(M) = a} as real-valued trace equations tr(A_l M) = lambda_l over a
Hermitian basis of the product space.  For commutative inputs every A_l is
real, and their real `block_system`, restricted to the block-diagonal
matrices that keep the least trace, is what the SDP layer iterates on.  In
the free flavor the Gram map is a bijection: `gram_preimage_free` inverts
it by splitting each word in the middle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as _iproduct
from typing import Iterable

import numpy as np

from . import linalg
from .poly import (
    COMMUTATIVE,
    FREE,
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


class NoCertifiedBoundError(ValueError):
    """No certified operator-norm constant exists for this basis/norm pair."""


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
    """Ordered basis of the homogeneous degree-d component whose squares are taken.

    Only the canonical enumeration (`square_basis`) carries certified
    operator-norm constants.
    """

    flavor: str
    n_vars: int
    degree: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        _check_flavor(self.flavor)
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
        """All products v_i* v_j: distinct product terms plus a flat cell map."""
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
        return tuple(prod_terms), prod_index, cell_to_prod

    @property
    def product_terms(self) -> tuple[Term, ...]:
        return self._products[0]

    def is_canonical(self) -> bool:
        return self.terms == _enumerate_terms(self.flavor, self.n_vars, self.degree)


def square_basis(flavor: str, n_vars: int, degree: int,
                 max_size: int = DEFAULT_BASIS_CAP) -> SquareBasis:
    """Complete canonical basis of the homogeneous degree-d component."""
    _check_flavor(flavor)
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    size = basis_size(flavor, n_vars, degree)
    if size > max_size:
        raise BasisSizeError(
            f"basis would have {size} entries, exceeding the cap of {max_size}")
    return SquareBasis(flavor, n_vars, degree,
                       _enumerate_terms(flavor, n_vars, degree))


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
    prod_terms, _, cell_to_prod = basis._products
    flat = M.reshape(-1)
    re = np.bincount(cell_to_prod, weights=flat.real, minlength=len(prod_terms))
    im = np.bincount(cell_to_prod, weights=flat.imag, minlength=len(prod_terms))
    coeffs = {}
    for idx, term in enumerate(prod_terms):
        c = complex(re[idx], im[idx])
        if abs(c) >= COEFF_DROP_TOL:
            coeffs[term] = c
    return Polynomial._raw(basis.flavor, basis.n_vars, coeffs)


def gram_preimage_free(p: Polynomial, d: int) -> np.ndarray:
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
    for word, c in p._coeffs.items():
        if len(word) != 2 * d:
            raise ValueError(
                f"term of degree {len(word)} in a polynomial expected homogeneous of degree {2 * d}")
        left, right = word[:d], word[d:]
        M[index[left[::-1]], index[right]] = c
    return M


# -- constraint form ----------------------------------------------------------

@dataclass(frozen=True)
class HermitianBasisElement:
    """One element of the Hermitian product basis w.

    kind "self": omega = tau (self-conjugate term).
    kind "re":   omega = tau + tau*.
    kind "im":   omega = i(tau - tau*).
    """

    kind: str
    term: Term

    def polynomial(self, flavor: str, n_vars: int) -> Polynomial:
        tau = self.term
        if self.kind == "self":
            return Polynomial(flavor, n_vars, {tau: 1.0})
        conj = involute_term(flavor, tau)
        if self.kind == "re":
            return Polynomial(flavor, n_vars, {tau: 1.0, conj: 1.0})
        return Polynomial(flavor, n_vars, {tau: 1j, conj: -1j})


class GramConstraints:
    """Trace equations tr(A_l M) = lambda_l encoding G_v(M) = a.

    The A_l are Hermitian with pairwise disjoint supports, or share one
    support pair with purely imaginary overlap ("re" and "im" of one term),
    so the real normal system Re<A_l, A_m> is diagonal for every basis.
    `vals` is real when every A_l is (commutative bases); then the real part
    of a feasible M is feasible with the same trace.  `blocks` partitions the
    basis indices (one block by default) so that some matrix of least trace
    in the fiber is block-diagonal over it; `swaps` are permutations of the
    basis indices that map the equations and their targets onto themselves
    (none by default).  `block_system` (commutative bases) is what the solver runs on.
    """

    def __init__(self, basis: SquareBasis, omegas: tuple[HermitianBasisElement, ...],
                 targets: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray, seg: np.ndarray,
                 blocks: tuple[np.ndarray, ...] | None = None,
                 swaps: tuple[np.ndarray, ...] = ()):
        self.basis = basis
        self.omegas = omegas
        self.targets = np.asarray(targets, dtype=float)
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.seg = seg
        self.dim = basis.size
        self.blocks = (np.arange(self.dim),) if blocks is None else blocks
        self.swaps = swaps

    @property
    def k(self) -> int:
        """Number of real-valued constraints (= dim_C of the product space)."""
        return len(self.omegas)

    def apply(self, M: np.ndarray) -> np.ndarray:
        """The vector (tr(A_l M))_l; real for Hermitian M."""
        contrib = self.vals * M[self.cols, self.rows]
        return np.bincount(self.seg, weights=contrib.real, minlength=self.k)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """sum_l y_l A_l for real y; Hermitian by construction, complex for free bases."""
        D = self.dim
        cells = self.rows * D + self.cols
        weights = self.vals * np.asarray(y)[self.seg]
        M = np.bincount(cells, weights.real, D * D)
        if np.iscomplexobj(weights):
            M = M + 1j * np.bincount(cells, weights.imag, D * D)
        return M.reshape(D, D)

    def residual(self, M: np.ndarray) -> float:
        return float(np.linalg.norm(self.apply(M) - self.targets))

    @cached_property
    def _normal_diag(self) -> np.ndarray:
        return np.bincount(self.seg, weights=np.abs(self.vals) ** 2, minlength=self.k)

    def solve_normal(self, rhs: np.ndarray) -> np.ndarray:
        """Solve <A, A*> mu = rhs (the constraint Gram system, diagonal)."""
        return rhs / self._normal_diag

    @cached_property
    def block_system(self) -> "BlockSystem":
        return BlockSystem(self)


class BlockSystem:
    """The trace equations restricted to real matrices block-diagonal over `blocks`.

    A block-diagonal matrix is one flat real vector: block b (basis indices
    `index[b]`, size s) row-major at x[offsets[b]:offsets[b] + s*s]; complex
    A_l are refused.  Blocks are sorted by size, largest first.  The equations
    that touch only cells between blocks have target 0 and are dropped;
    `keep` lists the others, in the order of their rows of the full system.

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
        if np.iscomplexobj(cons.vals):
            raise ValueError("the block system is real: complex constraints are refused")
        D = cons.dim
        index = sorted(cons.blocks, key=len, reverse=True)
        sizes = np.array([len(ix) for ix in index], dtype=np.int64)
        offsets = _offsets(sizes)
        block_of = np.empty(D, dtype=np.int64)
        pos = np.empty(D, dtype=np.int64)
        for b, ix in enumerate(index):
            block_of[ix] = b
            pos[ix] = np.arange(len(ix))
        inside = block_of[cons.rows] == block_of[cons.cols]
        keep = np.unique(cons.seg[inside])
        if np.isin(cons.seg[~inside], keep).any() or np.delete(cons.targets, keep).any():
            raise ValueError("the constraints do not split over the blocks")
        b = block_of[cons.rows[inside]]
        r, c = pos[cons.rows[inside]], pos[cons.cols[inside]]
        self._adj = offsets[b] + r * sizes[b] + c      # the cell A_l[r, c]
        self._app = offsets[b] + c * sizes[b] + r      # the cell M[c, r] it meets in tr(A_l M)
        self.vals = cons.vals[inside]
        self.seg = np.searchsorted(keep, cons.seg[inside])
        self.targets = cons.targets[keep]
        self.keep = keep
        self.k_full = cons.k
        self._omegas = cons.omegas
        self.dim = D
        self.index = tuple(index)
        self.offsets = offsets
        self.size = int(offsets[-1])
        self._normal = np.bincount(self.seg, np.abs(self.vals) ** 2, len(keep))
        self.diagonal = np.concatenate(
            [offsets[b] + np.arange(s) * (s + 1) for b, s in enumerate(sizes)])
        self.projected = list(zip(offsets[:-1].tolist(), sizes.tolist()))

        self.orbit = np.arange(len(index))
        self._labels = None
        if cons.swaps:
            self._merge_orbits(cons.swaps, block_of, pos, sizes)

    def _merge_orbits(self, swaps, block_of, pos, sizes) -> None:
        """Label each cell with its orbit under the group the swaps generate
        together with the transpose.

        A swap maps cell (i, j) to (perm[i], perm[j]).  The transpose joins
        (i, j) and (j, i): a swap can carry a cell below one diagonal to a
        cell above another, and `eigh` reads only the lower triangle, so
        without it an asymmetric rounding error would feed back into the
        iterates and grow.  `first` ends as the lowest flat position in each
        cell's orbit, which lies in the orbit's first block, its
        representative.
        """
        ci = np.concatenate([np.repeat(ix, len(ix)) for ix in self.index])
        cj = np.concatenate([np.tile(ix, len(ix)) for ix in self.index])
        images = [self.offsets[block_of[cj]] + pos[cj] * sizes[block_of[cj]] + pos[ci]]
        for perm in swaps:
            pi, pj = perm[ci], perm[cj]
            b = block_of[pi]
            image = self.offsets[b] + pos[pi] * sizes[b] + pos[pj]
            if (block_of[pj] != b).any() or not np.array_equal(
                    np.sort(image), np.arange(self.size)):
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
        cells = np.concatenate([np.arange(self.offsets[r], self.offsets[r + 1]) for r in reps])
        compact = np.empty(self.size, dtype=np.int64)
        compact[cells] = np.arange(len(cells))
        _, self._labels = np.unique(first, return_inverse=True)
        self._count = np.bincount(self._labels)
        self._gather = self._labels[cells]
        self._src = compact[first]
        self.projected = list(zip(_offsets(sizes[reps])[:-1].tolist(), sizes[reps].tolist()))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.seg, self.vals * x[self._app], len(self.keep))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self._adj, self.vals * y[self.seg], self.size)

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
             for t in (self._omegas[l].term for l in self.keep)]
        y0 = (np.array(m, dtype=object) / max(m)).astype(float)    # exact integers until scaled
        S0 = self.split(self.adjoint(y0))
        return y0, S0, max(linalg.eig_hermitian(B, vectors=False).eigenvalues[0] for B in S0)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """The full D x D complex matrix with the blocks of x on their indices."""
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for ix, B in zip(self.index, self.split(x)):
            M[np.ix_(ix, ix)] = B
        return M

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
    prod_terms, prod_index, cell_to_prod = basis._products
    for t in a._coeffs:
        if t not in prod_index:
            raise ValueError(f"term {t} lies outside the product space V*V")

    D = basis.size
    # cells grouped by product term
    order = np.argsort(cell_to_prod, kind="stable")
    bounds = np.searchsorted(cell_to_prod[order], np.arange(len(prod_terms) + 1))
    cell_i, cell_j = np.divmod(order, D)

    conj_of = np.array([prod_index[involute_term(basis.flavor, t)]
                        for t in prod_terms])

    # every A_l is real in the commutative flavor: all its terms are self-conjugate
    dtype = float if basis.flavor == COMMUTATIVE else complex
    omegas: list[HermitianBasisElement] = []
    targets: list[float] = []
    rows_parts, cols_parts, vals_parts, seg_parts = [], [], [], []

    def emit(kind: str, tau_idx: int, target: float,
             idx_list: list[np.ndarray], val_list: list[np.ndarray]):
        l = len(omegas)
        omegas.append(HermitianBasisElement(kind, prod_terms[tau_idx]))
        targets.append(target)
        for idx, vals in zip(idx_list, val_list):
            # A[j, i] entries for cells (i, j): tr(A M) = sum val * m_ij
            rows_parts.append(cell_j[idx])
            cols_parts.append(cell_i[idx])
            vals_parts.append(vals)
            seg_parts.append(np.full(idx.shape, l, dtype=np.int64))

    for t_idx in range(len(prod_terms)):
        c_idx = int(conj_of[t_idx])
        sel = np.arange(bounds[t_idx], bounds[t_idx + 1])
        a_tau = a._coeffs.get(prod_terms[t_idx], 0.0)
        if c_idx == t_idx:
            emit("self", t_idx, float(np.real(a_tau)),
                 [sel], [np.ones(sel.shape, dtype=dtype)])
        elif t_idx < c_idx:
            sel_c = np.arange(bounds[c_idx], bounds[c_idx + 1])
            emit("re", t_idx, float(np.real(a_tau)),
                 [sel, sel_c],
                 [np.full(sel.shape, 0.5, dtype=complex),
                  np.full(sel_c.shape, 0.5, dtype=complex)])
            emit("im", t_idx, float(np.imag(a_tau)),
                 [sel, sel_c],
                 [np.full(sel.shape, -0.5j, dtype=complex),
                  np.full(sel_c.shape, 0.5j, dtype=complex)])

    commutative = basis.flavor == COMMUTATIVE
    return GramConstraints(
        basis, tuple(omegas), np.array(targets, dtype=float),
        np.concatenate(rows_parts), np.concatenate(cols_parts),
        np.concatenate(vals_parts), np.concatenate(seg_parts),
        _parity_blocks(a, basis) if commutative else None,
        _variable_swaps(a, basis) if commutative else ())


def operator_norm_bound(basis: SquareBasis) -> float:
    """Certified operator-norm constant of the Gram map for this basis.

    Equals 1 in exactly two cases: the canonical monomial basis mapping into
    continuous functions on the unit sphere with the sup-norm, and the
    canonical word basis with the Schatten-p-inherited coefficient norms.
    Anything else (e.g. a reordered or partial basis) has no certified
    constant here.
    """
    if not basis.is_canonical():
        raise NoCertifiedBoundError(
            "no certified operator-norm bound for a non-canonical basis")
    return 1.0
