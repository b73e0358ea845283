"""The circle bundle over the Jacobian torus whose Euler class is the
intersection form, and the triple cup product of the surface times a
circle: the cross-checks the paper relates to the torsion tables.
"""

from .blades import block_masks, blades_of_grade, complete_pairs
from .blocks import _block_data, _block_sum, _cone_group, smith_form
from .linalg import GroupPresentation, SparseExactMatrix, cokernel_over, rank
from .rings import QQ, ZZ


# ---------------------------------------------------------------------------
# circle-bundle cohomology cross-checks
# ---------------------------------------------------------------------------

def eg_cohomology(g, ring=ZZ):
    """Cohomology of the circle bundle over the Jacobian torus with Euler
    class the intersection form, via its Gysin sequence: degree j gives
    Ker(wedge: j-1 -> j+1) (+) Coker(wedge: j-2 -> j).  Wedging with omega
    adds complete pairs, so it keeps the weight vector and commutes with
    the signed pair permutations (cfk module docstring): the groups are
    summed over the weight blocks, each wedge block keyed by its source
    grade - genus and read through one Smith form shared by degrees j and
    j-1, every ring and contraction_cokernel_comparison."""
    return {j: _cone_group(g, ("omega", j - 1 - g), ("omega", j - 2 - g), ring)
            for j in range(0, 2 * g + 2)}


def eg_rank_prediction(g, j):
    """Rational rank of the bundle cohomology: primitive dimension up to the
    middle, coprimitive above."""
    from .lefschetz import coprimitive_dim, primitive_dim
    if j <= g:
        return primitive_dim(g, j)
    return coprimitive_dim(g, j - 1)


def _one_minus_exp_contraction_matrix(g, parity):
    """Matrix of contraction by (1 - exp(-omega)) = sum_{n>=1} (-1)^(n+1) eta_n
    on the weight-zero block's grades p with p - g of the given parity (it
    removes complete pairs, so it keeps the weight vector).  Since
    z_J |_ a = (-1)^|J| (a ^ z_J) for a set J of complete pairs of a (blades
    module docstring), every entry is -1, at (a ^ z_J, a) for each nonempty
    such J."""
    src = [m for p in range((g + parity) % 2, 2 * g + 1, 2) for m in block_masks(g, p)]
    index = {m: i for i, m in enumerate(src)}
    ent = {}
    for c, mask in enumerate(src):
        pairs = sub = complete_pairs(mask)
        while sub:
            ent[index[mask ^ sub ^ sub << 1], c] = -1
            sub = (sub - 1) & pairs
    return SparseExactMatrix.from_int_entries(len(src), len(src), ent)


def contraction_cokernel_comparison(g):
    """Per parity: presentation of the cokernel of contraction by
    1 - exp(-omega) next to the direct sum of the per-degree cokernels of
    wedging with omega (the two agree for every genus computed here), each
    summed over the weight blocks, where grade - genus is kept.  The wedge
    side reads the Smith forms that eg_cohomology takes (_block_data); the
    contraction blocks go through the same store (blocks.smith_form)."""
    out = {}
    for parity in (0, 1):
        def contraction(n):
            m = _one_minus_exp_contraction_matrix(n, (parity - g) % 2)
            return cokernel_over(m.rows, smith_form(m), ZZ)

        def wedge_sum(n):
            grp = GroupPresentation()
            for j in range(parity, 2 * g + 1, 2):
                rows, _, factors = _block_data(n, "omega", j - 2 - g)
                grp = grp.direct_sum(cokernel_over(rows, factors, ZZ))
            return grp

        out[parity] = (_block_sum(g, contraction), _block_sum(g, wedge_sum))
    return out


# ---------------------------------------------------------------------------
# triple cup products
# ---------------------------------------------------------------------------

def triple_cup_beta(g, s):
    """The triple-cup homomorphism on the s-th exterior power of the rank
    2g+1 first cohomology of the product (basis e_1..e_2g, t): contract out
    ordered triples against <a . b . t> = omega(a, b), with the alternating
    position sign.  A basis lists the blades without t, then those with t;
    t is the highest bit, so it ascends.  Only the blades with t have an
    image."""
    t = 1 << (2 * g)
    without_t = blades_of_grade(g, s)
    src = without_t + [m | t for m in blades_of_grade(g, s - 1)]
    tgt = blades_of_grade(g, s - 3) + [m | t for m in blades_of_grade(g, s - 4)]
    idx = {m: i for i, m in enumerate(tgt)}
    mat = SparseExactMatrix(len(tgt), len(src))
    for c, mask in enumerate(src[len(without_t):], len(without_t)):
        bits = []
        b = mask
        while b:
            low = b & -b
            bits.append(low.bit_length() - 1)
            b ^= low
        t_pos = len(bits) - 1  # t is the last position
        for a_pos in range(t_pos):
            for b_pos in range(a_pos + 1, t_pos):
                ba, bb = bits[a_pos], bits[b_pos]
                if (ba ^ bb) != 1:
                    continue  # omega vanishes off symplectic partners
                val = 1 if ba % 2 == 0 else -1  # omega(e_a, e_b), a < b
                sign = (-1) ** ((a_pos + 1) + (b_pos + 1) + (t_pos + 1))
                r = idx[mask & ~((1 << ba) | (1 << bb) | t)]
                mat[r, c] = mat[r, c] + sign * val
    return mat


def beta_quotient_dims(g):
    """dim over Q of Ker(beta_s)/Im(beta_(s+3)) for each s, with the
    composition check beta_s . beta_(s+3) = 0."""
    n = 2 * g + 1
    mats = {s: triple_cup_beta(g, s) for s in range(0, n + 4)}
    out = {}
    for s in range(0, n + 1):
        m = mats[s]
        m3 = mats[s + 3]
        if any(m.mul_columns(m3.col_dicts())):
            raise AssertionError(f"beta_{s} . beta_{s+3} != 0")
        ker = m.cols - rank(m, QQ) if m.rows else m.cols
        out[s] = ker - rank(m3, QQ)
    return out
