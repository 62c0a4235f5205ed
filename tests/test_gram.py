import math

import numpy as np
import pytest

from conftest import CHOI_LAM_S, MOTZKIN, ROBINSON, random_hermitian, random_sos
from oracles import constraint_matrices, gram_preimage_free, hermitian_equations, product_table
from sos_approx import gram
from sos_approx.gram import (
    BasisSizeError,
    GramConstraints,
    NotHermitianError,
    SquareBasis,
    build_constraints,
    free_gram,
    gram_map,
    square_basis,
    upper_reads,
)
from sos_approx.linalg import schatten_norm
from sos_approx.poly import (
    COMMUTATIVE,
    FREE,
    Polynomial,
    sphere_lattice,
    sum_of_monomial_squares,
    variables,
)


def test_square_basis_sizes():
    assert square_basis(COMMUTATIVE, 3, 2).size == 6  # C(4, 2)
    assert square_basis(FREE, 2, 3).size == 8         # 2^3
    assert square_basis(COMMUTATIVE, 3, 0).size == 1
    assert square_basis(FREE, 2, 0).size == 1


def test_square_basis_degree_one_ordering():
    basis = square_basis(COMMUTATIVE, 3, 1)
    assert basis.terms == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_square_basis_cap():
    with pytest.raises(BasisSizeError):
        square_basis(FREE, 10, 6)  # 10^6 entries
    square_basis(FREE, 10, 6, max_size=10 ** 6)


def test_square_basis_one_object_per_arguments():
    # memoized, so a basis's product table, and with it the equations, is
    # built once; an over-cap call is not cached and raises every time
    basis = square_basis(COMMUTATIVE, 3, 2)
    assert square_basis(COMMUTATIVE, 3, 2) is basis
    assert square_basis(COMMUTATIVE, n_vars=3, degree=2, max_size=6) is basis
    assert square_basis(FREE, 2, 2) is square_basis(FREE, 2, 2) is not square_basis(FREE, 2, 3)
    for _ in range(3):
        with pytest.raises(BasisSizeError):
            square_basis(FREE, 10, 6)
        with pytest.raises(BasisSizeError):
            square_basis(COMMUTATIVE, 3, 2, max_size=5)


def test_square_basis_memo_bounded_by_cells():
    # the memo keeps no basis above its cell bound, and drops the least
    # recently used ones to stay within it
    big = square_basis(FREE, 2, 9)
    assert big.size ** 2 > gram._MEMO_CELLS
    assert square_basis(FREE, 2, 9) is not big
    assert all(b is not big for b in gram._memo.values())
    kept = square_basis(COMMUTATIVE, 3, 2)
    square_basis(FREE, 2, 7)                        # 16,384 cells
    assert square_basis(COMMUTATIVE, 3, 2) is kept  # now the most recent
    square_basis(FREE, 3, 5)                        # 59,049 cells
    assert list(gram._memo) == [(COMMUTATIVE, 3, 2), (FREE, 3, 5)]
    assert square_basis(COMMUTATIVE, 3, 2) is kept


def test_product_table_shared_read_only():
    # two inputs over one basis share the product table's cell map, which no caller may write
    basis = square_basis(COMMUTATIVE, 3, 2)
    table = basis._products
    assert square_basis(COMMUTATIVE, 3, 2)._products is table
    first = build_constraints(sum_of_monomial_squares(3, 2), basis)
    second = build_constraints(Polynomial(COMMUTATIVE, 3, {(4, 0, 0): 1.0}), basis)
    array = table[2]
    assert first._cell_to_prod is second._cell_to_prod is array
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 0


def _bases(rng, flavor, degrees):
    """Canonical, reversed, subset and permuted bases of n = 1, 2, 3 variables."""
    bases = []
    for n in (1, 2, 3):
        for d in degrees:
            canonical = square_basis(flavor, n, d)
            permuted = tuple(canonical.terms[i] for i in rng.permutation(canonical.size))
            for terms in (canonical.terms, canonical.terms[::-1], canonical.terms[::2], permuted):
                bases.append(SquareBasis(flavor, n, d, terms))
    return bases


def test_product_table_matches_cell_loop(rng):
    # the table built with array operations equals the one multiplied out
    # cell by cell, on canonical, reversed, subset and permuted monomial
    # bases, and where a plain mixed-radix key of the product rows would
    # overflow int64 (3^40 and 5^30 > 2^63); a word basis has none
    bases = _bases(rng, COMMUTATIVE, (0, 1, 2, 3, 4))
    bases += [square_basis(COMMUTATIVE, 40, 1), square_basis(COMMUTATIVE, 30, 2)]
    for basis in bases:
        terms, index, cell_to_prod = product_table(basis)
        table = basis._products
        assert table[:2] == (terms, index), basis
        assert table[2].dtype == np.int64 and np.array_equal(table[2], cell_to_prod), basis
    with pytest.raises(ValueError, match="no product table"):
        square_basis(FREE, 2, 2)._products


def _read_layout(basis):
    """Each entry of `upper_reads` on the basis as (product word, kind): the
    word of its cell and "self" on the diagonal, else "re" or "im"."""
    D = basis.size
    cells = np.arange(1, D * D + 1).reshape(D, D)
    layout = []
    upper = np.triu(cells) - 1j * np.triu(cells, 1)
    for r in upper_reads(upper + np.triu(upper, 1).conj().T):
        i, j = divmod(abs(int(r)) - 1, D)
        layout.append((basis.terms[i][::-1] + basis.terms[j],
                       "self" if i == j else "re" if r > 0 else "im"))
    return layout


def test_equations_match_definition(rng):
    # each equation's product term and kind against the products multiplied
    # out as polynomials, on canonical, reversed, subset and permuted bases:
    # on monomials one equation per product term, in the table's order; on
    # words the layout of the free duals and certificates, the upper cells
    # row by row
    for basis in _bases(rng, COMMUTATIVE, (0, 1, 2, 3)):
        read = [(t, "self") for t in basis.product_terms]
        assert read == hermitian_equations(basis), basis
    for basis in _bases(rng, FREE, (0, 1, 2, 3)):
        assert _read_layout(basis) == hermitian_equations(basis), basis


def test_gram_map_identity_gives_monomial_square_sum():
    for n, d in ((3, 1), (3, 2), (2, 3)):
        basis = square_basis(COMMUTATIVE, n, d)
        p = gram_map(np.eye(basis.size), basis)
        assert p == sum_of_monomial_squares(n, d)


def test_gram_map_zero():
    basis = square_basis(FREE, 2, 2)
    assert not gram_map(np.zeros((4, 4)), basis)


def test_gram_map_rank_one_is_square(rng):
    # oracle: expand q* q with plain polynomial arithmetic
    for flavor in (COMMUTATIVE, FREE):
        basis = square_basis(flavor, 2, 2)
        c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        q = Polynomial(flavor, 2, {t: v for t, v in zip(basis.terms, c)})
        M = np.outer(c.conj(), c)  # Gram matrix of q* q
        assert (gram_map(M, basis) - q.involution() * q).coeff_two_norm() <= 1e-12


def test_gram_map_is_star_linear(rng):
    for flavor in (COMMUTATIVE, FREE):
        basis = square_basis(flavor, 2, 2)
        D = basis.size
        A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        lhs = gram_map(A, basis).involution()
        rhs = gram_map(A.conj().T, basis)
        assert (lhs - rhs).coeff_two_norm() <= 1e-12
        B = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        both = gram_map(A + 2j * B, basis)
        split = gram_map(A, basis) + 2j * gram_map(B, basis)
        assert (both - split).coeff_two_norm() <= 1e-10


def test_gram_map_dimension_mismatch():
    basis = square_basis(COMMUTATIVE, 3, 1)
    with pytest.raises(ValueError):
        gram_map(np.eye(4), basis)


def test_gram_map_refuses_non_finite_matrices():
    # a NaN cell would be dropped as zero, and the map would return a
    # smaller polynomial than the matrix says
    for basis in (square_basis(FREE, 2, 1), square_basis(COMMUTATIVE, 2, 1)):
        for value in (math.nan, math.inf):
            M = np.eye(2)
            M[1, 0] = value
            with pytest.raises(ValueError, match="finite"):
                gram_map(M, basis)
            with pytest.raises(ValueError, match="finite"):
                gram_map(np.full((2, 2), value), basis)


def test_build_constraints_p31():
    basis = square_basis(COMMUTATIVE, 3, 1)
    cons = build_constraints(sum_of_monomial_squares(3, 1), basis)
    assert cons.k == 6
    diag = dict(zip(basis.product_terms, cons.targets))
    assert diag[(2, 0, 0)] == 1.0 and diag[(0, 2, 0)] == 1.0 and diag[(0, 0, 2)] == 1.0
    assert diag[(1, 1, 0)] == 0.0 and diag[(1, 0, 1)] == 0.0 and diag[(0, 1, 1)] == 0.0
    for e in np.eye(cons.k):
        A = cons.adjoint(e)
        assert np.abs(A - A.conj().T).max() < 1e-12


def _block_terms(cons):
    return [{cons.basis.terms[i] for i in ix} for ix in cons.block_system.index]


def test_parity_blocks():
    # only even exponents: every sign flip is a symmetry, so the blocks are
    # the four parity classes of the degree-12 monomials in three variables
    basis = square_basis(COMMUTATIVE, 3, 12)
    cons = build_constraints(sum_of_monomial_squares(3, 12), basis)
    system = cons.block_system
    assert [len(ix) for ix in system.index] == [28, 21, 21, 21]
    assert system.size == 28 ** 2 + 3 * 21 ** 2
    # kept: the product terms with all exponents even, C(14, 2) of C(26, 2)
    assert (cons.k, len(system.keep)) == (325, 91)
    # an x*y cross term breaks the separate x and y flips; only their joint
    # flip (and the z flip) stay, which merges classes into two blocks
    x, y, _ = variables(COMMUTATIVE, 3)
    p32 = sum_of_monomial_squares(3, 2)
    basis2 = square_basis(COMMUTATIVE, 3, 2)
    assert sorted(map(sorted, _block_terms(build_constraints(p32, basis2)))) == [
        [(0, 0, 2), (0, 2, 0), (2, 0, 0)], [(0, 1, 1)], [(1, 0, 1)], [(1, 1, 0)]]
    crossed = build_constraints(p32 + x * x * x * y + x * y * y * y, basis2)
    assert sorted(map(sorted, _block_terms(crossed))) == [
        [(0, 0, 2), (0, 2, 0), (1, 1, 0), (2, 0, 0)], [(0, 1, 1), (1, 0, 1)]]
    # a generic sum of squares has no sign symmetry: one real block
    a, basis3 = random_sos(np.random.default_rng(5), COMMUTATIVE, 3, 3, 3)
    system = build_constraints(a, basis3).block_system
    assert len(system.index) == 1
    assert len(system.keep) == len(basis3.product_terms)
    # free inputs have no constraint system: their Gram matrix is unique
    a, basis4 = random_sos(np.random.default_rng(5), FREE, 2, 2, 2)
    with pytest.raises(ValueError, match="takes a monomial basis"):
        build_constraints(a, basis4)


def test_block_system_matches_full_constraints(rng):
    # on block-diagonal matrices the block maps are the full maps, with the
    # dropped equations reading 0
    for a, basis in ((sum_of_monomial_squares(3, 3), square_basis(COMMUTATIVE, 3, 3)),
                     random_sos(rng, COMMUTATIVE, 3, 2, 2)):
        cons = build_constraints(a, basis)
        system = cons.block_system
        x = np.concatenate([random_hermitian(rng, len(ix)).real.reshape(-1)
                            for ix in system.index])
        M = system.embed(x)
        assert np.abs(cons.apply(M) - system.lift(system.apply(x))).max() <= 1e-12
        y = rng.standard_normal(len(system.keep))
        assert np.abs(cons.adjoint(system.lift(y))
                      - system.embed(system.adjoint(y))).max() <= 1e-12
        assert system.trace(x) == pytest.approx(np.trace(M).real, rel=1e-12)
    # blocks that an equation couples are refused, not solved over
    cons = build_constraints(sum_of_monomial_squares(3, 2), square_basis(COMMUTATIVE, 3, 2))
    coupled = GramConstraints(cons.basis, cons.targets, (np.arange(3), np.arange(3, 6)))
    with pytest.raises(ValueError, match="split"):
        coupled.block_system
    # a swap of x^2 and x*y carries the cell (x^2, y^2) of the even block to
    # (x*y, y^2), between blocks
    swap = np.arange(cons.dim)
    i, j = cons.basis.index[(2, 0, 0)], cons.basis.index[(1, 1, 0)]
    swap[[i, j]] = j, i
    crossing = GramConstraints(cons.basis, cons.targets, cons.blocks, (swap,))
    with pytest.raises(ValueError, match="the swaps do not permute the blocks"):
        crossing.block_system


def _orbits(cons):
    """The orbits of the blocks, each as the parity vectors of its blocks."""
    system = cons.block_system
    orbits = {}
    for b, ix in enumerate(system.index):
        parity = tuple(e % 2 for e in cons.basis.terms[ix[0]])
        orbits.setdefault(int(system.orbit[b]), []).append(parity)
    return sorted(map(sorted, orbits.values()))


def test_variable_swap_orbits():
    # every swap fixes the figure inputs: the three blocks with one odd
    # exponent (or two, at even d) are one orbit, the fourth is its own
    for d, reps in ((9, [15, 10]), (12, [28, 21])):
        basis = square_basis(COMMUTATIVE, 3, d)
        cons = build_constraints(sum_of_monomial_squares(3, d), basis)
        system = cons.block_system
        assert len(cons.swaps) == 3
        assert [len(ix) for b, ix in enumerate(system.index) if system.orbit[b] == b] == reps
    # Motzkin is fixed by x <-> y only, which swaps its x-odd and y-odd blocks
    basis3 = square_basis(COMMUTATIVE, 3, 3)
    motzkin = build_constraints(Polynomial(COMMUTATIVE, 3, MOTZKIN), basis3)
    assert len(motzkin.swaps) == 1
    assert _orbits(motzkin) == [[(0, 0, 1)], [(0, 1, 0), (1, 0, 0)], [(1, 1, 1)]]
    # Choi-Lam S is fixed by the cyclic shift of the variables but by no swap
    choi_lam = build_constraints(Polynomial(COMMUTATIVE, 3, CHOI_LAM_S), basis3)
    assert choi_lam.swaps == () and len(_orbits(choi_lam)) == 4
    # a generic input has no symmetry
    a, basis = random_sos(np.random.default_rng(5), COMMUTATIVE, 3, 3, 3)
    assert build_constraints(a, basis).swaps == ()
    # symmetry is exact: one coefficient moved by one ulp breaks every swap
    # that moves its term, and x^2 y^4 z^12 is moved by all three
    coeffs = dict(sum_of_monomial_squares(3, 9).items())
    assert coeffs[(2, 4, 12)] == 1
    coeffs[(2, 4, 12)] = np.nextafter(1.0, 2.0)
    bumped = Polynomial(COMMUTATIVE, 3, coeffs)
    cons = build_constraints(bumped, square_basis(COMMUTATIVE, 3, 9))
    assert cons.swaps == () and len(_orbits(cons)) == 4


def _group(perms):
    """Every product of the permutations: the group they generate."""
    group = {tuple(range(len(perms[0])))}
    frontier = list(group)
    while frontier:
        g = np.array(frontier.pop())
        for perm in perms:
            h = tuple(perm[g])
            if h not in group:
                group.add(h)
                frontier.append(h)
    return [np.array(g) for g in group]


def _flat(system, M):
    """The blocks of a block-diagonal matrix as the system's flat vector."""
    return np.concatenate([M[np.ix_(ix, ix)].reshape(-1) for ix in system.index])


def _respectrum(system, x, positives):
    """x with each block's eigenvalues mapped, in their order, into [-2, -1]
    and, for the top `positives(size)` of them, into [1, 2]; and those counts.

    The new eigenvalues are a monotone function of the old ones, so an
    invariant x stays invariant: blocks of one orbit are permutation-similar
    and have one spectrum.  A block
    fixed by a non-abelian group has multiple eigenvalues; the count is
    rounded up past them, since splitting an eigenspace would break the
    invariance.
    """
    out, counts = [], []
    for B in system.split(x):
        s = len(B)
        w, V = np.linalg.eigh(B)
        k = positives(s)
        while 0 < k < s and w[s - k] - w[s - k - 1] <= 1e-9 * np.abs(w).max():
            k += 1
        ramp = (w - w[0]) / max(w[-1] - w[0], 1e-300)     # keeps multiple eigenvalues
        w = np.where(np.arange(s) >= s - k, 1.0 + ramp, ramp - 2.0)
        out.append(((V * w) @ V.conj().T).reshape(-1))
        counts.append(k)
    return np.concatenate(out), counts


def _eigh_projection(system, x):
    """(V * max(w, 0)) @ V^H on each block, from np.linalg.eigh."""
    out = []
    for B in system.split(x):
        w, V = np.linalg.eigh(B)
        out.append(((V * np.maximum(w, 0.0)) @ V.conj().T).reshape(-1))
    return np.concatenate(out)


def test_orbit_projection_is_invariant_psd_projection(rng):
    # on an invariant input, the average `mean` of a random x over the
    # symmetry group, the merged projection is the unmerged one, and it is
    # exactly invariant, symmetric and PSD
    invariant = []
    for a, basis in ((sum_of_monomial_squares(3, 4), square_basis(COMMUTATIVE, 3, 4)),
                     (Polynomial(COMMUTATIVE, 3, MOTZKIN), square_basis(COMMUTATIVE, 3, 3))):
        cons = build_constraints(a, basis)
        system = cons.block_system
        full = GramConstraints(cons.basis, cons.targets, cons.blocks).block_system
        assert all(map(np.array_equal, full.index, system.index))
        assert (full.orbit == np.arange(len(full.index))).all()
        group = _group(cons.swaps)
        assert len(group) == (6 if len(cons.swaps) == 3 else 2)
        x = np.concatenate([random_hermitian(rng, len(ix)).real.reshape(-1)
                            for ix in system.index])
        M = system.embed(x).real
        mean = sum(M[np.ix_(g, g)] for g in group) / len(group)
        out = system.embed(system.psd_part(_flat(system, mean), system.rank_hint())).real
        reference = full.embed(full.psd_part(_flat(full, mean), full.rank_hint())).real
        assert np.abs(out - reference).max() <= 1e-12
        for g in group:
            assert np.array_equal(out[np.ix_(g, g)], out)
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        invariant += [(system, _flat(system, mean)), (full, _flat(full, mean))]
    # with 0, 1, s/4, s/2 and s positive eigenvalues per block, the rank
    # hint changes the cost only: a right hint and stale ones (0 on full
    # rank, s on rank 0) give the projection, and the hint ends right
    for system, x0 in invariant:
        sizes = [s for _, s in system.projected]
        assert system.rank_hint() == sizes
        reps = np.flatnonzero(system.orbit == np.arange(len(system.index)))
        for positives in (lambda s: 0, lambda s: 1, lambda s: s // 4, lambda s: s // 2,
                          lambda s: s):
            x, counts = _respectrum(system, x0, positives)
            expected = _eigh_projection(system, x)
            scale = np.abs(x).max()
            right = [counts[b] for b in reps]
            for hint in (right, [0] * len(sizes), sizes):
                ranks = list(hint)
                out = system.psd_part(x, ranks)
                assert out.dtype == np.float64
                assert np.abs(out - expected).max() <= 1e-12 * scale
                assert ranks == right


def test_build_constraints_zero_polynomial():
    basis = square_basis(COMMUTATIVE, 2, 2)
    cons = build_constraints(Polynomial.zero(COMMUTATIVE, 2), basis)
    assert not cons.targets.any()


def test_free_gram_one_cell_per_word(rng):
    # each of the n^{2d} words of degree 2d is read into its own cell, in
    # the caller's word order, and the layout of duals and certificates has
    # n^{2d} real entries
    for terms in (square_basis(FREE, 2, 2).terms, square_basis(FREE, 2, 2).terms[::-1]):
        basis = SquareBasis(FREE, 2, 2, terms)
        hit = np.zeros((4, 4), dtype=int)
        for u in terms:
            for v in terms:
                M = free_gram(Polynomial(FREE, 2, {u[::-1] + v: 1.0}), basis)
                assert np.count_nonzero(M) == 1 and M[basis.index[u], basis.index[v]] == 1.0
                hit += M.real.astype(int)
        assert (hit == 1).all()
        assert len(upper_reads(hit)) == 2 ** 4


def test_free_gram_refuses_bad_inputs():
    # a word of another degree, or one outside the span of a subset basis,
    # lies outside the product space
    z1, z2 = variables(FREE, 2)
    basis = square_basis(FREE, 2, 1)
    with pytest.raises(ValueError, match=r"term \(1,\) lies outside the product space"):
        free_gram(z1 * z1 + z2, basis)
    with pytest.raises(ValueError, match="outside the product space"):
        free_gram(z1 * z2, SquareBasis(FREE, 2, 1, ((0,),)))
    with pytest.raises(ValueError, match="different algebras"):
        free_gram(Polynomial.variable(COMMUTATIVE, 2, 0), basis)


def test_build_constraints_rejects_bad_inputs():
    basis = square_basis(COMMUTATIVE, 2, 1)
    x1, x2 = (Polynomial.variable(COMMUTATIVE, 2, i) for i in range(2))
    with pytest.raises(NotHermitianError):
        build_constraints(1j * x1 * x1, basis)
    with pytest.raises(ValueError):
        build_constraints(x1, basis)  # degree 1, expected 2
    with pytest.raises(ValueError):
        build_constraints(x1 * x1 + x2, basis)  # inhomogeneous


def _omega_polynomial(basis, tau, kind):
    """The Hermitian basis element of an equation of `hermitian_equations`:
    tau, tau + tau* or i(tau - tau*)."""
    star = Polynomial(basis.flavor, basis.n_vars, {tau: 1.0}).involution().items()[0][0]
    if kind == "self":
        return Polynomial(basis.flavor, basis.n_vars, {tau: 1.0})
    if kind == "re":
        return Polynomial(basis.flavor, basis.n_vars, {tau: 1.0, star: 1.0})
    return Polynomial(basis.flavor, basis.n_vars, {tau: 1j, star: -1j})


def test_constraints_reconstruct_gram_map(rng):
    # G(M) = sum_l tr(A_l M) omega_l for random Hermitian M: tr(A_l M) is
    # `apply` on monomials and the free layout `upper_reads` on words
    for flavor, n, d in ((COMMUTATIVE, 3, 2), (FREE, 2, 2)):
        basis = square_basis(flavor, n, d)
        a, _ = random_sos(rng, flavor, n, d, 2)
        M = random_hermitian(rng, basis.size)
        y = build_constraints(a, basis).apply(M) if flavor == COMMUTATIVE else upper_reads(M)
        recon = Polynomial.zero(flavor, n)
        for value, (tau, kind) in zip(y, hermitian_equations(basis), strict=True):
            recon = recon + float(value) * _omega_polynomial(basis, tau, kind)
        assert (recon - gram_map(M, basis)).coeff_two_norm() <= 1e-9


def test_adjoint_identity(rng):
    # a = G(M) makes M a solution of its own constraint system on monomial
    # bases (the equations, built once per basis, and the targets, read per
    # input, agree), and is the Gram matrix read off a on word bases, bit
    # for bit: on canonical, reversed, subset and permuted bases
    for flavor in (COMMUTATIVE, FREE):
        for basis in _bases(rng, flavor, (0, 1, 2, 3)):
            M = random_hermitian(rng, basis.size)
            a = gram_map(M, basis)
            if flavor == FREE:
                assert np.array_equal(free_gram(a, basis), M), basis
            else:
                cons = build_constraints(a, basis)
                assert np.abs(cons.apply(M) - cons.targets).max() <= 1e-9, basis


def test_constraint_maps_match_dense_oracle(rng):
    # apply, adjoint and the normal diagonal against the A_l built from the
    # definition of each basis element, exactly: integer matrices and
    # multipliers keep every sum exact.  M is Hermitian (complex on the
    # monomial bases too), real symmetric, non-Hermitian and the identity.
    # On words, the layout of the free duals and certificates: upper_reads
    # gives Re tr(A_l M), and with off = 2 the y with sum_l y_l A_l the
    # Hermitian part of M, here also for the solver's M = v v*
    for flavor, n, d in ((COMMUTATIVE, 3, 1), (COMMUTATIVE, 3, 2), (COMMUTATIVE, 2, 3),
                         (FREE, 2, 1), (FREE, 2, 2), (FREE, 3, 2)):
        canonical = square_basis(flavor, n, d)
        permuted = tuple(canonical.terms[i] for i in rng.permutation(canonical.size))
        for terms in (canonical.terms, canonical.terms[::-1], canonical.terms[::2], permuted):
            basis = SquareBasis(flavor, n, d, terms)
            D = basis.size
            A = constraint_matrices(basis)
            R, S = (rng.integers(-4, 5, (D, D)).astype(float) for _ in range(2))
            if flavor == FREE:
                v = rng.integers(-4, 5, D) + 1j * rng.integers(-4, 5, D)
                for M in (R + R.T + 1j * (S - S.T), R + R.T, R + 1j * S, np.eye(D),
                          np.outer(v, v.conj())):
                    assert np.array_equal(upper_reads(M), np.einsum("lji,ij->l", A, M).real)
                    H = (M + M.conj().T) / 2
                    assert np.array_equal(np.tensordot(upper_reads(M, 2.0), A, 1), H), basis
                continue
            cons = build_constraints(Polynomial.zero(flavor, n), basis)
            for M in (R + R.T + 1j * (S - S.T), R + R.T, R + 1j * S, np.eye(D)):
                assert np.array_equal(cons.apply(M), np.einsum("lji,ij->l", A, M).real)
            y = rng.integers(-4, 5, cons.k).astype(float)
            adjoint = cons.adjoint(y)
            assert np.array_equal(adjoint, np.tensordot(y, A, 1)), (flavor, n, d, terms)
            assert adjoint.dtype == np.float64
            assert np.array_equal(cons._normal_diag, (np.abs(A) ** 2).sum(axis=(1, 2)))


def test_apply_adjoint_are_adjoint(rng):
    basis = square_basis(COMMUTATIVE, 3, 2)
    a, _ = random_sos(rng, COMMUTATIVE, 3, 2, 2)
    cons = build_constraints(a, basis)
    M = random_hermitian(rng, basis.size)
    y = rng.standard_normal(cons.k)
    lhs = float(cons.apply(M) @ y)
    rhs = float(np.trace(cons.adjoint(y) @ M).real)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_gram_preimage_free_middle_split():
    z1, z2 = (Polynomial.variable(FREE, 2, i) for i in range(2))
    p = z2 * z1 * z1 * z2 + z1 * z2 * z2 * z1
    M = gram_preimage_free(p, 2)
    basis = square_basis(FREE, 2, 2)
    i12 = basis.index[(0, 1)]
    i21 = basis.index[(1, 0)]
    expected = np.zeros((4, 4))
    expected[i12, i12] = 1.0
    expected[i21, i21] = 1.0
    assert np.array_equal(M, expected)


def test_gram_preimage_free_zero_and_roundtrip(rng):
    assert not gram_preimage_free(Polynomial.zero(FREE, 2), 2).any()
    basis = square_basis(FREE, 2, 3)
    for _ in range(20):
        M = random_hermitian(rng, basis.size)
        assert np.abs(gram_preimage_free(gram_map(M, basis), 3) - M).max() <= 1e-12


def test_gram_preimage_free_rejects():
    z1 = Polynomial.variable(FREE, 1, 0)
    with pytest.raises(NotHermitianError):
        gram_preimage_free(1j * z1 * z1, 1)
    with pytest.raises(ValueError):
        gram_preimage_free(z1, 1)  # odd degree vs 2d
    with pytest.raises(ValueError):
        gram_preimage_free(Polynomial.variable(COMMUTATIVE, 1, 0), 1)


def test_square_basis_refuses_malformed_terms():
    # the constant-1 argument needs distinct terms of degree d in n variables
    for flavor, n, d, term in ((COMMUTATIVE, 3, 2, (1, 1)),         # wrong arity
                               (COMMUTATIVE, 2, 2, (3, -1)),        # negative exponent
                               (COMMUTATIVE, 2, 2, (1, 0)),         # wrong degree
                               (FREE, 2, 2, (0,)),                  # wrong degree
                               (FREE, 2, 2, (0, 2)),                # symbol out of range
                               (FREE, 2, 2, (-1, 0))):              # symbol out of range
        with pytest.raises(ValueError, match=f"is not of degree {d} in {n} variables"):
            SquareBasis(flavor, n, d, (term,))
    with pytest.raises(ValueError, match="distinct"):
        SquareBasis(FREE, 2, 1, ((0,), (0,)))
    assert SquareBasis(COMMUTATIVE, 2, 2, ((0, 2), (2, 0))).size == 2


def test_operator_norm_bound_certified_cases():
    # the Gram map's operator-norm constant is exactly 1 on canonical
    # monomial and word bases, and on a reordered one too: gram_map(I)(x) =
    # ||v(x)||^2 peaks at 1 on the sphere (at a coordinate vector), and on
    # words the coefficient 2-norm of gram_map(E) is ||E||_F
    canonical = square_basis(COMMUTATIVE, 3, 2)
    pts = np.vstack([np.eye(3), sphere_lattice(3, 500)])
    for basis in (canonical, SquareBasis(COMMUTATIVE, 3, 2, canonical.terms[::-1])):
        peak = gram_map(np.eye(basis.size), basis).evaluate_batch(pts).real.max()
        assert peak == pytest.approx(1.0, abs=1e-12)
    words = square_basis(FREE, 2, 3)
    for basis in (words, SquareBasis(FREE, 2, 3, words.terms[::-1])):
        E = np.diag(np.arange(1.0, basis.size + 1))
        assert gram_map(E, basis).coeff_two_norm() == pytest.approx(np.linalg.norm(E), rel=1e-12)


def test_monomial_tuple_sphere_bound(rng):
    # |m_d(s)|_2 <= 1 on 1000 random unit points for every d <= 8
    pts = rng.standard_normal((1000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for d in range(1, 9):
        basis = square_basis(COMMUTATIVE, 3, d)
        sq = np.zeros(len(pts))
        for t in basis.terms:
            sq += (pts ** np.array(t)).prod(axis=1) ** 2
        assert np.sqrt(sq.max()) <= 1.0 + 1e-12


def test_gram_evaluation_bounded_by_spectral_norm(rng):
    # on any basis of distinct monomials: canonical, reversed, every other term
    canonical = square_basis(COMMUTATIVE, 3, 2)
    pts = sphere_lattice(3, 500)
    for terms in (canonical.terms, canonical.terms[::-1], canonical.terms[::2]):
        basis = SquareBasis(COMMUTATIVE, 3, 2, terms)
        for _ in range(5):
            M = random_hermitian(rng, basis.size)
            vals = np.abs(gram_map(M, basis).evaluate_batch(pts))
            assert vals.max() <= schatten_norm(M, math.inf) + 1e-9


def test_gram_map_isometry_on_any_word_basis(rng):
    # distinct words give distinct products v_i* v_j: ||M||_F is the
    # coefficient 2-norm of gram_map(M) on reversed and subset bases too
    canonical = square_basis(FREE, 2, 3)
    for terms in (canonical.terms, canonical.terms[::-1], canonical.terms[::2]):
        basis = SquareBasis(FREE, 2, 3, terms)
        for _ in range(5):
            M = random_hermitian(rng, basis.size)
            assert gram_map(M, basis).coeff_two_norm() == pytest.approx(
                np.linalg.norm(M), rel=1e-12)


def test_solve_normal_exact_for_noncanonical_bases(rng):
    # the normal system is diagonal for every basis, so apply o adjoint is
    # inverted exactly also off the canonical one
    for flavor, n, d in ((COMMUTATIVE, 3, 2), (COMMUTATIVE, 2, 3)):
        canonical = square_basis(flavor, n, d)
        subset = canonical.terms[::2]
        for basis in (SquareBasis(flavor, n, d, canonical.terms[::-1]),
                      SquareBasis(flavor, n, d, subset)):
            M = random_hermitian(rng, basis.size)
            cons = build_constraints(gram_map(M, basis), basis)
            r = rng.standard_normal(cons.k)
            back = cons.apply(cons.adjoint(cons.solve_normal(r)))
            assert np.abs(back - r).max() <= 1e-12 * np.abs(r).max()


def _gaussian_moment(term):
    """E[x^term] for a standard Gaussian vector, by its one-dimensional moments."""
    moments = [1.0]
    for k in range(1, max(term) + 1):     # E[x^k] = (k - 1) E[x^(k-2)], E[x] = 0
        moments.append((k - 1) * moments[k - 2] if k > 1 else 0.0)
    return math.prod(moments[e] for e in term)


def test_moment_shift_positive_definite_on_every_block(rng):
    # S0 = sum y0_l A_l is the Gaussian moment matrix of the basis monomials,
    # block by block: one block for a generic input, the parity blocks for
    # the monomial-square sums and for Motzkin's and Robinson's forms
    inputs = []
    for n in range(1, 5):
        for d in range(1, 7):
            inputs.append(random_sos(rng, COMMUTATIVE, n, d, 2)[0])
            inputs.append(sum_of_monomial_squares(n, d))
    inputs += [Polynomial(COMMUTATIVE, 3, MOTZKIN), Polynomial(COMMUTATIVE, 3, ROBINSON)]
    for a in inputs:
        cons = build_constraints(a, square_basis(COMMUTATIVE, a.n_vars, a.degree() // 2))
        system = cons.block_system
        y0, S0, top = system.moment_shift
        moments = np.array([_gaussian_moment(cons.basis.product_terms[l]) for l in system.keep])
        assert np.array_equal(y0, moments / moments.max())
        assert len(S0) == len(system.index)
        lows, highs = zip(*[(w[0], w[-1]) for w in map(np.linalg.eigvalsh, S0)])
        assert min(lows) > 0, (a.n_vars, a.degree())
        assert top == pytest.approx(max(highs), rel=1e-12)
    # moments beyond the int64 and float ranges are scaled exactly
    system = build_constraints(sum_of_monomial_squares(2, 160),
                               square_basis(COMMUTATIVE, 2, 160)).block_system
    y0 = system.moment_shift[0]
    assert y0.dtype == float and np.isfinite(y0).all() and y0.max() == 1.0
