import random
from fractions import Fraction
from math import comb, factorial

import pytest

from hfsigma.blades import block_masks
from hfsigma.errors import DomainError
from hfsigma.exterior import (Multivector, all_blades, blade_grade,
                              blades_of_grade, eta, omega, random_multivector)
from hfsigma.lefschetz import (coprimitive_dim, lowering_matrix, op_H, op_L,
                               op_lambda, primitive_basis,
                               primitive_decomposition, primitive_dim,
                               raising_matrix, self_dual_lattice,
                               self_dual_rank)
from hfsigma.linalg import (GroupPresentation, SparseExactMatrix, rank,
                            smith_normal_form)
from hfsigma.rings import QQ
from oracles import (blade_matrix, solved_primitive_decomposition, type_r_block,
                     weight)


def test_operator_examples():
    g = 3
    top = Multivector.from_blade(g, (1 << (2 * g)) - 1)  # grade 2g
    assert op_H(Multivector.from_blade(g, 0b111)).is_zero()       # grade g
    assert op_L(omega(g)) == Multivector(g, {0: g})
    assert op_lambda(eta(g, g)).is_zero()
    assert op_lambda(top).is_zero()


def test_sl2_relations_exhaustive():
    for g in range(1, 5):
        for m in all_blades(g):
            a = Multivector.from_blade(g, m)
            assert op_lambda(op_H(a)) - op_H(op_lambda(a)) == op_lambda(a).scale(-2)
            assert op_L(op_H(a)) - op_H(op_L(a)) == op_L(a).scale(2)
            assert op_lambda(op_L(a)) - op_L(op_lambda(a)) == op_H(a)


def test_primitive_dims():
    assert len(primitive_basis(1, 0)) == 1
    assert len(primitive_basis(2, 2)) == 5
    assert len(primitive_basis(3, 4)) == 0
    for g in range(1, 5):
        for j in range(0, 2 * g + 1):
            basis = primitive_basis(g, j)
            assert len(basis) == primitive_dim(g, j)
            for b in basis:
                assert op_L(b).is_zero()


def test_primitive_basis_pinned():
    # Locks the kernel basis: the basis, its order and the term order within
    # each vector are those of the first release's field eliminator, which
    # the integer echelon reproduces here.
    expected = [
        [(21, 1)], [(22, 1)], [(25, 1)], [(26, 1)], [(28, 1), (19, -1)],
        [(37, 1)], [(38, 1)], [(41, 1)], [(42, 1)], [(44, 1), (35, -1)],
        [(49, 1), (13, -1)], [(50, 1), (14, -1)], [(52, 1), (7, -1)],
        [(56, 1), (11, -1)],
    ]
    assert [list(b.coeffs.items()) for b in primitive_basis(3, 3)] == expected


def _same_matrix(got, want):
    # equal entries, inserted in the same order
    return ((got.rows, got.cols, list(got.entries.items()))
            == (want.rows, want.cols, list(want.entries.items())))


def test_pair_matrices_match_the_multivector_route():
    # every grade at g <= 6, and the weight-zero block at g <= 7
    for g in range(1, 8):
        for j in range(-2, 2 * g + 1):
            src = blades_of_grade(g, j)
            if g <= 6:
                assert _same_matrix(raising_matrix(g, j), blade_matrix(
                    g, op_lambda, src, blades_of_grade(g, j + 2))), (g, j)
                assert _same_matrix(lowering_matrix(g, j), blade_matrix(
                    g, op_L, src, blades_of_grade(g, j - 2))), (g, j)
            want = blade_matrix(g, op_lambda, block_masks(g, j), block_masks(g, j + 2))
            assert _same_matrix(raising_matrix(g, j, block=True), want), (g, j)


def test_primitive_basis_wedges_with_integer_eta():
    # a vector with Fraction coefficients (as primitive_decomposition
    # makes) and eta's ints mix directly, and a Fraction equal to an int
    # compares and hashes as that int
    g = 3
    b = Multivector(g, {m: Fraction(c) for m, c in primitive_basis(g, 1)[0].coeffs.items()})
    assert b.coeffs and all(type(c) is Fraction for c in b.coeffs.values())
    v = b.wedge(eta(1, g))
    assert v == op_lambda(b) and not v.is_zero()
    as_ints = Multivector(g, {m: int(c) for m, c in b.coeffs.items()})
    assert as_ints == b and hash(as_ints) == hash(b)


def test_primitive_plus_image_dimension():
    for g in range(1, 5):
        for j in range(0, g + 1):
            rk = rank(raising_matrix(g, j - 2), QQ) if j >= 2 else 0
            assert primitive_dim(g, j) + rk == comb(2 * g, j)


def test_decomposition_resums_and_is_primitive():
    rng = random.Random(7)
    for g in (2, 3):
        for _ in range(8):
            p = rng.randint(0, 2 * g)
            a = random_multivector(g, p, rng)
            comps = primitive_decomposition(a)
            total = Multivector.zero(g)
            for k, comp in comps:
                total = total + comp
                x = comp
                for _ in range(k + 1):
                    x = op_L(x)
                assert x.is_zero()
            assert total == a


def test_closed_form_decomposition_matches_the_solver_route():
    rng = random.Random(17)
    inputs = 0
    for g in range(1, 6):
        for p in range(0, 2 * g + 1):
            for _ in range(4):
                a = random_multivector(g, p, rng)
                if a.is_zero():
                    continue
                assert primitive_decomposition(a) == \
                    solved_primitive_decomposition(a), (g, p)
                inputs += 1
    assert inputs >= 100


def test_decomposition_special_cases():
    g = 3
    w = omega(g)
    assert primitive_decomposition(w) == [(1, w)]
    b = primitive_basis(3, 2)[0]
    assert primitive_decomposition(b) == [(0, b)]
    with pytest.raises(DomainError):
        primitive_decomposition(w + Multivector.unit(g))


def lefschetz_power_rank(g, l):
    # rank over Q of omega^l wedging from grade g-l to grade g+l
    src = blades_of_grade(g, g - l)
    tgt = blades_of_grade(g, g + l)
    tgt_index = {m: i for i, m in enumerate(tgt)}
    wl = eta(l, g).scale(factorial(l))
    mat = SparseExactMatrix(len(tgt), len(src))
    for c, mask in enumerate(src):
        img = wl.wedge(Multivector.from_blade(g, mask))
        for m2, v in img.coeffs.items():
            mat[tgt_index[m2], c] = v
    return rank(mat, QQ)


def coprimitive_basis(g, j):
    # spanning set of ker(omega ^ .) in grade j over Q: the image of the
    # primitive basis of grade 2g-j under omega^(j-g) wedging
    if j < g or j > 2 * g:
        return ()
    wl = eta(j - g, g).scale(factorial(j - g))
    return tuple(wl.wedge(b) for b in primitive_basis(g, 2 * g - j))


def test_lefschetz_powers_bijective():
    for g in range(1, 5):
        for l in range(0, g + 1):
            assert lefschetz_power_rank(g, l) == comb(2 * g, g - l)


def test_coprimitive():
    for g in range(1, 5):
        for j in range(0, 2 * g + 1):
            basis = coprimitive_basis(g, j)
            assert len(basis) == coprimitive_dim(g, j)
            for v in basis:
                assert omega(g).wedge(v).is_zero()
        assert coprimitive_dim(g, g - 1) == 0


def test_self_dual_lattice():
    assert self_dual_rank(1) == 2
    assert self_dual_rank(3) == 14
    for g in range(1, 6):
        gens = self_dual_lattice(g)
        assert len(gens) == self_dual_rank(g) == 2 ** (g - 1) + comb(2 * g, g) // 2
        for v in gens:
            assert v.star() == v
            assert v.grades() == [g]


def test_star_eigenvalue_on_summands():
    for g in range(1, 5):
        for k in range(0, g // 2 + 1):
            for b in primitive_basis(g, g - 2 * k):
                v = b.wedge(eta(k, g))
                assert v.star() == v.scale((-1) ** k)


def wilson_factors(n, a):
    """Wilson's diagonal form (European J. Combin. 11, 1990) of the inclusion
    matrix of the a-subsets into the (a+1)-subsets of an n-set: with
    t = min(a, n - a - 1), the entry t + 1 - i appears C(n, i) - C(n, i - 1)
    times, for i = 0..t."""
    t = min(a, n - a - 1)
    return [t + 1 - i for i in range(t + 1)
            for _ in range(comb(n, i) - (comb(n, i - 1) if i else 0))]


def test_wedge_blocks_are_restrictions_of_the_whole_matrix():
    # wedging with omega keeps the weight vector: a block column of the
    # whole matrix has all its entries in the block rows, and the type-r
    # block from grade j is the weight-zero block at genus g - r from
    # grade j - r (grade - genus kept)
    for g in range(1, 7):
        for j in range(-2, 2 * g + 1):
            whole = raising_matrix(g, j)
            src, tgt = blades_of_grade(g, j), blades_of_grade(g, j + 2)
            assert all(weight(g, tgt[r]) == weight(g, src[c]) for r, c in whole.entries)
            for r in range(g + 1):
                block = raising_matrix(g - r, j - r, block=True)
                want = type_r_block(g, r, whole, tgt, src)
                assert (block.rows, block.cols) == (want.rows, want.cols)
                assert _same_matrix(block, want), (g, j, r)


def test_wedge_blocks_have_wilsons_diagonal_form():
    # on the weight-zero block at genus n the wedge map from grade 2a is
    # the inclusion matrix of the a-subsets into the (a+1)-subsets of the n
    # pairs; equal diagonal forms mean the same rank and the same nonunit
    # invariant factors
    blocks = 0
    for n in range(8):
        for a in range(n + 1):
            m = raising_matrix(n, 2 * a, block=True)
            assert (m.rows, m.cols) == (comb(n, a + 1), comb(n, a))
            diag, snf = wilson_factors(n, a), smith_normal_form(m)
            assert len(snf) == len(diag), (n, a)
            assert GroupPresentation(0, snf) == GroupPresentation(0, diag), (n, a)
            blocks += 1
    assert blocks == 36
