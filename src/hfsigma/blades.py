"""Bit-level rules for the basis blades of the exterior algebra of a
symplectic lattice: what the slice matrices, the weight blocks and the
Lefschetz matrices are built from, and the mask enumerations they list
their bases with (grade_masks and its list blades_of_grade, block_masks).

Basis covectors e_1, ..., e_{2g} pair off symplectically:
omega(e_{2i-1}, e_{2i}) = 1 = -omega(e_{2i}, e_{2i-1}), all other pairs 0.
A basis blade is a bitmask over 2g bits, bit b standing for e_{b+1}; masks
are canonical by construction, and the grade is the popcount.

Write swap(m) for m with bits 2j and 2j+1 exchanged, and call pair j
complete in m when m holds both of its bits.  The contraction rule of the
exterior module splits over the pairs, which gives:

* star: star(m) = m |_ vol = (-1)^#(complete pairs of m) (vol ^ swap(m));
* pair products: for a set J of complete pairs of a, z_J |_ a =
  (-1)^|J| (a ^ z_J), which is all the flip map of the knot complex needs;
  so omega ^ m is the sum of m | z_j over the pairs j that m misses, and
  -(omega |_ m) the sum of m ^ z_j over the complete pairs of m, every
  coefficient +1 (the Lefschetz matrices are built from these two rules).
"""

from itertools import combinations

_popcount = int.bit_count
_EVEN = 0x5555_5555_5555_5555  # first vector of each pair, genus <= 32


def blade_grade(mask):
    return _popcount(mask)


def swap_pairs(mask):
    """Exchange bits 2j and 2j+1 of every pair."""
    return ((mask & _EVEN) << 1) | ((mask >> 1) & _EVEN)


def complete_pairs(mask):
    """Pairs of which the blade holds both vectors, as even-bit flags."""
    return mask & (mask >> 1) & _EVEN


def star_blade(mask, g):
    """Hodge-Lefschetz star of a blade, mask |_ vol: (sign, mask')."""
    return ((-1 if _popcount(complete_pairs(mask)) & 1 else 1),
            ((1 << (2 * g)) - 1) ^ swap_pairs(mask))


def pair_mask(j):
    """Mask of z_{j+1} = e_{2j+1} ^ e_{2j+2} (j zero-based)."""
    return 0b11 << (2 * j)


def grade_masks(g, p):
    """Masks of grade p in ascending order, one at a time: Gosper's step
    (HAKMEM item 175) goes from m to the next larger mask of its popcount."""
    if not 0 <= p <= 2 * g:
        return
    m, end = (1 << p) - 1, 1 << (2 * g)
    while m < end:
        yield m
        if not m:  # grade 0 has the one mask 0
            return
        low = m & -m
        r = m + low
        m = r | (((r ^ m) >> 2) // low)


def blades_of_grade(g, p):
    """Masks of grade p in ascending order, as a list (grade_masks)."""
    return list(grade_masks(g, p))


def block_masks(g, p):
    """Masks of grade p in the weight-zero block, in ascending order: the
    unions of p/2 of the g pairs."""
    k, odd = divmod(p, 2)
    if odd or not 0 <= k <= g:
        return []
    return sorted(sum(pair_mask(j) for j in pairs)
                  for pairs in combinations(range(g), k))
