"""The sl_2 triple (Lambda, L, H) on the exterior algebra, primitive and
coprimitive subspaces over Q, and the star-fixed integral lattice in middle
degree.

Lambda wedges with omega, and L = -(omega |_ .): in the blade basis both are
0/1 pair-inclusion matrices (the pair rules of the blades module).
A primitive basis is the saturated integer kernel lattice of the lowering
matrix, a Q basis with int entries; there is no primitive splitting over
Z, only over fields of characteristic 0.  The primitive decomposition is
read off the sl_2 relation [Lambda, L] = H in closed form, with no basis
and no solve.

The operators on Multivectors import the exterior layer when first called,
so the plus table, which reads only primitive_dim and coprimitive_dim,
does not load it.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod

from .blades import block_masks, blades_of_grade, pair_mask
from .errors import DomainError
from .linalg import SparseExactMatrix, kernel_basis
from .rings import QQ


def op_lambda(a):
    """Raising operator: wedge with the symplectic form."""
    from .exterior import omega
    return omega(a.genus).wedge(a)


def op_L(a):
    """Lowering operator: minus contraction by the symplectic form."""
    from .exterior import omega
    return omega(a.genus).contract(a).scale(-1)


def op_H(a):
    """Weight operator: (p - g) on the grade-p part."""
    from .exterior import Multivector
    out = Multivector.zero(a.genus)
    for p in a.grades():
        out = out + a.grade_part(p).scale(p - a.genus)
    return out


def _pair_matrix(g, src, tgt, complete):
    """0/1 matrix from the blades in src to those in tgt (lists of masks)
    sending m to the sum of m ^ z_j over the pairs j, ascending, that m
    holds completely (complete=True: L) or not at all (False: Lambda)."""
    index = {m: i for i, m in enumerate(tgt)}
    entries = {}
    for c, mask in enumerate(src):
        for j in range(g):
            z = pair_mask(j)
            if (mask & z == z) if complete else not mask & z:
                entries[index[mask ^ z], c] = 1
    return SparseExactMatrix.from_int_entries(len(tgt), len(src), entries)


def lowering_matrix(g, j):
    """Matrix of L restricted to grade j, in the ascending blade bases."""
    return _pair_matrix(g, blades_of_grade(g, j), blades_of_grade(g, j - 2), True)


def raising_matrix(g, j, block=False):
    """Matrix of wedging with omega: grade j -> grade j+2, in the ascending
    blade bases, or on the weight-zero block when block is true
    (blades.block_masks; omega adds complete pairs, so it keeps the weight
    vector)."""
    masks = block_masks if block else blades_of_grade
    return _pair_matrix(g, masks(g, j), masks(g, j + 2), False)


@lru_cache(maxsize=None)
def primitive_basis(g, j):
    """Basis of the primitive subspace ker(L) in grade j, over Q.

    Dimension is C(2g, j) - C(2g, j-2) for j <= g and 0 beyond.
    """
    from .exterior import Multivector
    if j < 0 or j > 2 * g:
        return ()
    src = blades_of_grade(g, j)
    return tuple(Multivector(g, {src[c]: v for c, v in col.items()})
                 for col in kernel_basis(lowering_matrix(g, j), QQ))


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

    Peels from the largest k down.  L^k kills every lower component, and on
    a primitive b of grade q the relation [Lambda, L] = H gives
    L^k(omega^k ^ b) = c b with c = prod_{m=1..k} -m(q - g + m - 1), which
    is nonzero for every k >= p - g; so the top component is
    omega^k ^ L^k(residual) / c.
    Returns a list of (k, component) with the components summing to a.
    """
    from .exterior import eta
    if not a.is_homogeneous():
        raise DomainError("primitive decomposition wants a homogeneous input")
    if a.is_zero():
        return []
    g = a.genus
    p = a.grades()[0]
    # omega^k is injective on P^(p-2k) only for k <= g-(p-2k), i.e. k >= p-g
    k_min = max(0, p - g)
    out = []
    residual = a
    for k in range(p // 2, k_min - 1, -1):
        q = p - 2 * k
        top = residual  # becomes L^k(residual) = c b
        for _ in range(k):
            top = op_L(top)
        if top.is_zero():
            continue
        c = prod(-m * (q - g + m - 1) for m in range(1, k + 1))
        # omega^k = k! eta_k
        comp = eta(k, g).wedge(top).scale(Fraction(factorial(k), c))
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
    from .exterior import Multivector
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
