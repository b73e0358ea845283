"""The sl_2 triple (Lambda, L, H) on the exterior algebra, primitive and
coprimitive subspaces over Q, and the star-fixed integral lattice in middle
degree.

Primitive bases are exact Q-null spaces of the lowering operator in the
blade basis; no representation theory is run at runtime (there is no
primitive splitting over Z, only over fields of characteristic 0).
"""

from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .cfk import block_masks
from .errors import DomainError
from .exterior import Multivector, blades_of_grade, eta, omega
from .linalg import SparseExactMatrix, kernel_basis, solve_columns
from .rings import QQ


def op_lambda(a):
    """Raising operator: wedge with the symplectic form."""
    return omega(a.genus, a.ring).wedge(a)


def op_L(a):
    """Lowering operator: minus contraction by the symplectic form."""
    return omega(a.genus, a.ring).contract(a).scale(-1)


def op_H(a):
    """Weight operator: (p - g) on the grade-p part."""
    out = Multivector.zero(a.genus, a.ring)
    for p in a.grades():
        out = out + a.grade_part(p).scale(p - a.genus)
    return out


def blade_matrix(g, op, src, tgt):
    """Integer matrix of a linear map op on multivectors, from the blades in
    src to those in tgt (lists of masks; images lie in the span of tgt)."""
    index = {m: i for i, m in enumerate(tgt)}
    mat = SparseExactMatrix(len(tgt), len(src))
    for c, mask in enumerate(src):
        for m2, v in op(Multivector.from_blade(g, mask)).coeffs.items():
            mat[index[m2], c] = v
    return mat


def lowering_matrix(g, j):
    """Matrix of L restricted to grade j, in the ascending blade bases."""
    return blade_matrix(g, op_L, blades_of_grade(g, j), blades_of_grade(g, j - 2))


def raising_matrix(g, j, r=None):
    """Matrix of wedging with omega: grade j -> grade j+2, in the ascending
    blade bases, or on the representative type-r weight block when r is
    given (cfk.block_masks; omega adds complete pairs, so it keeps the
    weight vector)."""
    if r is None:
        src, tgt = blades_of_grade(g, j), blades_of_grade(g, j + 2)
    else:
        src, tgt = block_masks(g, r, j), block_masks(g, r, j + 2)
    return blade_matrix(g, op_lambda, src, tgt)


@lru_cache(maxsize=None)
def primitive_basis(g, j):
    """Basis of the primitive subspace ker(L) in grade j, over Q.

    Dimension is C(2g, j) - C(2g, j-2) for j <= g and 0 beyond.
    """
    if j < 0 or j > 2 * g:
        return ()
    src = blades_of_grade(g, j)
    mat = lowering_matrix(g, j)
    null = kernel_basis(mat, QQ)
    out = []
    for col in null:
        mv = Multivector(g, {src[c]: v for c, v in col.items()}, QQ)
        out.append(mv)
    return tuple(out)


def primitive_dim(g, j):
    if j < 0 or j > g:
        return 0
    return comb(2 * g, j) - (comb(2 * g, j - 2) if j >= 2 else 0)


def coprimitive_dim(g, j):
    """dim of ker(omega ^ .) in grade j; mirrors the primitive dimension."""
    if j < g or j > 2 * g:
        return 0
    return primitive_dim(g, 2 * g - j)


def primitive_decomposition(a):
    """Split a homogeneous a into its omega^k ^ P^(p-2k) components.

    Peels from the largest k down: L^k kills every lower component, so the
    top one solves L^k(omega^k ^ b) = L^k(residual) exactly over Q.
    Returns a list of (k, component) with the components summing to a.
    """
    if not a.is_homogeneous():
        raise DomainError("primitive decomposition wants a homogeneous input")
    if a.is_zero():
        return []
    g = a.genus
    a = a.convert(QQ)
    p = a.grades()[0]
    # omega^k is injective on P^(p-2k) only for k <= g-(p-2k), i.e. k >= p-g
    k_min = max(0, p - g)
    out = []
    residual = a
    for k in range(p // 2, k_min - 1, -1):
        q = p - 2 * k
        basis = primitive_basis(g, q)
        if not basis:
            continue
        wk = eta(k, g, QQ).scale(factorial(k))
        # target vectors: L^k(omega^k ^ basis_i) and L^k(residual)
        imgs = []
        for b in basis:
            v = wk.wedge(b)
            for _ in range(k):
                v = op_L(v)
            imgs.append(v)
        rhs = residual
        for _ in range(k):
            rhs = op_L(rhs)
        blades = blades_of_grade(g, q)
        index = {m: i for i, m in enumerate(blades)}
        cols = [{index[m]: v for m, v in im.coeffs.items()} for im in imgs]
        target = {index[m]: v for m, v in rhs.coeffs.items()}
        sol, = solve_columns(cols, [target], len(blades))
        comp = Multivector.zero(g, QQ)
        for i, coeff in sol.items():
            comp = comp + wk.wedge(basis[i]).scale(coeff)
        if not comp.is_zero():
            out.append((k, comp))
        residual = residual - comp
    if not residual.is_zero():
        raise AssertionError("decomposition residue should vanish")
    return list(reversed(out))


def self_dual_lattice(g):
    """Integer basis of the star-fixed subgroup of the middle exterior power.

    Generators: monomials using one covector from every symplectic pair
    (2^g of them, star-fixed on the nose), plus pairs x_I z_J + (-1)^n x_I z_K
    where J, K split the pairs not met by I.  Rank 2^(g-1) + C(2g, g)/2.
    """
    gens = []
    for r in range(g, -1, -2):
        n = (g - r) // 2
        for I in combinations(range(1, g + 1), r):
            rest = [i for i in range(1, g + 1) if i not in I]
            for xbits in range(1 << r):
                mono = Multivector.unit(g)
                for t, i in enumerate(I):
                    idx = 2 * i - 1 + ((xbits >> t) & 1)
                    mono = mono.wedge(Multivector.basis_vector(g, idx))
                if n == 0:
                    gens.append(mono)
                    continue
                # split rest into J (containing its least element) and K
                least = rest[0]
                for J in combinations(rest, n):
                    if least not in J:
                        continue
                    K = [i for i in rest if i not in J]
                    mv_j = mono
                    for j in J:
                        mv_j = mv_j.wedge(Multivector.z(g, j))
                    mv_k = mono
                    for kk in K:
                        mv_k = mv_k.wedge(Multivector.z(g, kk))
                    gens.append(mv_j + mv_k.scale((-1) ** n))
    expected = 2 ** (g - 1) + comb(2 * g, g) // 2
    if len(gens) != expected:
        raise AssertionError(f"self-dual lattice rank {len(gens)} != {expected}")
    return gens


def self_dual_rank(g):
    return 2 ** (g - 1) + comb(2 * g, g) // 2
