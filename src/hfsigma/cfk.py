"""Bigraded model of the knot complex for the Borromean-type knot.

A generator sits at a lattice point (i, j) and carries a blade of grade
p = g + j - i; the group at (i, j) is Lambda^p tensor U^(-i), and the total
degree is i + j = 2i + p - g.  Elements are stored sparsely as
{(i, mask): coefficient}; i is the U-coordinate (the term is blade * U^-i).

The flip automorphism acts on a grade-p term at U-coordinate i by

    J(xi * U^-i) = eps * (-1)^p * sum_n 2^n (eta_n |_ star(xi)) * U^-(i+p-g+n)

with eps = (-1)^(g-1); the sign is pinned by freeness of the middle-degree
cokernel (see the sign suite).  The star lands at the mirrored lattice point
and the eta_n terms smear it down the antidiagonal.

Torus-weight blocks.  Give symplectic pair i of a blade the weight
bit(2i) - bit(2i+1) in {-1, 0, 1}: its weight under the diagonal torus of
Sp(2g) that scales the pair's two vectors by t and 1/t.  The star keeps a
pair that holds one vector and exchanges an empty pair with a complete
one, and contraction by eta_n only removes complete pairs, so J, U and
every slice op (v, h, F, F_hat, one_plus_J) preserve the weight vector:
each slice matrix is block diagonal, with one block per weight vector in
{-1, 0, 1}^g.

The signed permutations of the pairs (pair swaps, and a_i -> b_i,
b_i -> -a_i) lie in Sp(2g, Z).  They preserve omega and the volume form,
hence commute with the star, with contraction by eta_n, with J and with U,
and they map blades to signed blades of the same grade at the same lattice
point.  So a block whose weight vector has r nonzero entries is conjugate
by a signed permutation matrix to the representative block of type r, with
weight vector (1^r, 0^(g-r)), and has its Smith form and its rank over
every ring.  There are C(g, r) * 2^r blocks of type r; the representative
holds the masks with bit 2i alone for i < r and 00 or 11 for each later
pair, 2^(g-r) masks in all against 4^g.
"""

import hashlib
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import DomainError, GenusMismatch, tick
from .exterior import (blade_grade, blades_of_grade, complete_pairs,
                       pair_mask, star_blade, swap_pairs)
from .linalg import SparseExactMatrix
from .rings import ZZ


def epsilon(g):
    """Global sign of the flip map: (-1)^(g-1)."""
    return -1 if g % 2 == 0 else 1


# ---------------------------------------------------------------------------
# regions of the (i, j) plane
# ---------------------------------------------------------------------------

class Region:
    """Membership predicate for a sub/quotient region of the plane."""

    __slots__ = ("kind", "s")

    KINDS = ("b", "j_geq", "corner", "row_i0", "min_zero")

    def __init__(self, kind, s=0):
        if kind not in self.KINDS:
            raise DomainError(f"unknown region kind {kind!r}")
        self.kind = kind
        self.s = s

    def contains(self, i, j):
        k, s = self.kind, self.s
        if k == "b":
            return i >= 0
        if k == "j_geq":
            return j >= s
        if k == "corner":
            return i >= 0 and j >= s
        if k == "row_i0":
            return i == 0
        # min_zero: min(i, j - s) == 0
        return i >= 0 and j >= s and (i == 0 or j == s)

    def __repr__(self):
        return f"Region({self.kind}, s={self.s})" if self.s else f"Region({self.kind})"

    def __eq__(self, other):
        return isinstance(other, Region) and (self.kind, self.s) == (other.kind, other.s)

    def __hash__(self):
        return hash((self.kind, self.s))


B_PLUS = Region("b")
J_GEQ0 = Region("j_geq", 0)


def corner(s=0):
    return Region("corner", s)


def row_i0():
    return Region("row_i0")


def min_zero(s=0):
    return Region("min_zero", s)


# ---------------------------------------------------------------------------
# slice bases
# ---------------------------------------------------------------------------

def block_masks(g, r, p):
    """Masks of grade p in the representative type-r weight block, in
    ascending order: bit 2i alone for i < r, then 00 or 11 for each later
    pair."""
    k, odd = divmod(p - r, 2)
    if odd or not 0 <= k <= g - r:
        return []
    base = sum(1 << (2 * i) for i in range(r))
    return sorted(base | sum(pair_mask(j) for j in pairs)
                  for pairs in combinations(range(r, g), k))


def block_multiplicity(g, r):
    """Number of weight blocks of type r: C(g, r) * 2^r."""
    return comb(g, r) << r


class SliceBasis:
    """Ordered basis of the degree-d slice of a region, or of its
    representative type-r weight block when r is given.

    Cells are (i, p) with p = g + d - 2i, listed with i ascending; within a
    cell the blades of grade p run in ascending mask order.  The enumeration
    is deterministic, so matrices are reproducible bit for bit.
    """

    __slots__ = ("genus", "region", "degree", "cells", "index", "elements")

    def __init__(self, genus, region, degree, r=None):
        g = genus
        self.genus = g
        self.region = region
        self.degree = degree
        self.cells = []
        self.index = {}
        self.elements = []
        d = degree
        # p = g + d - 2i must lie in [0, 2g]
        i_lo = -((g - d) // 2)  # ceil((d-g)/2)
        i_hi = (d + g) // 2
        for i in range(i_lo, i_hi + 1):
            p = g + d - 2 * i
            if p < 0 or p > 2 * g:
                continue
            if not region.contains(i, d - i):
                continue
            self.cells.append((i, p))
            for mask in blades_of_grade(g, p) if r is None else block_masks(g, r, p):
                self.index[(i, mask)] = len(self.elements)
                self.elements.append((i, mask))

    @property
    def size(self):
        return len(self.elements)

    def __repr__(self):
        return (f"<slice g={self.genus} {self.region!r} d={self.degree} "
                f"cells={self.cells} dim={self.size}>")


@lru_cache(maxsize=None)
def slice_basis(g, region, d, r=None):
    return SliceBasis(g, region, d, r)


# ---------------------------------------------------------------------------
# plane elements
# ---------------------------------------------------------------------------

class GradedElement:
    """Finite formal sum of blade * U^-i terms, stored as {(i, mask): coeff}."""

    __slots__ = ("genus", "terms")

    def __init__(self, genus, terms=None):
        self.genus = genus
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self.terms[key] = c

    @classmethod
    def from_multivector(cls, mv, i=0):
        return cls(mv.genus, {(i, m): c for m, c in mv.coeffs.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, GradedElement) and self.genus == other.genus
                and self.terms == other.terms)

    def __add__(self, other):
        if self.genus != other.genus:
            raise GenusMismatch(f"genus {self.genus} vs {other.genus}")
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return GradedElement(self.genus, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if c == 0:
            return GradedElement(self.genus)
        return GradedElement(self.genus, {k: v * c for k, v in self.terms.items()})

    def u_power(self, n):
        """Multiply by U^n (n may be negative): i -> i - n."""
        return GradedElement(self.genus, {(i - n, m): c for (i, m), c in self.terms.items()})

    def project(self, region):
        g = self.genus
        out = {}
        for (i, m), c in self.terms.items():
            j = i + blade_grade(m) - g
            if region.contains(i, j):
                out[(i, m)] = c
        return GradedElement(g, out)

    def degrees(self):
        g = self.genus
        return sorted({2 * i + blade_grade(m) - g for (i, m) in self.terms})

    def positions(self):
        """Set of occupied lattice points (i, j)."""
        g = self.genus
        return {(i, i + blade_grade(m) - g) for (i, m) in self.terms}

    def __repr__(self):
        items = sorted(self.terms.items())
        return f"GradedElement({self.genus}, {items!r})"


# ---------------------------------------------------------------------------
# the flip map and the H_1-action on the plane
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _flip_blade(g, mask):
    """J of a grade-p blade at U-coordinate 0: tuple of (di, mask', coeff).

    di is the shift of the U-coordinate; the actual term for input at i
    lands at i + di.  z_J |_ star(xi) = (-1)^|J| (star(xi) ^ z_J) for every
    set J of complete pairs of star(xi), so the eta_n term is a signed sum
    over the n-subsets of those pairs, listed in combinations order.
    """
    p = blade_grade(mask)
    s_coeff, s_mask = star_blade(mask, g)
    base = epsilon(g) * (1 if p % 2 == 0 else -1) * s_coeff
    full = complete_pairs(s_mask)
    pairs = [pair_mask(j) for j in range(g) if full >> (2 * j) & 1]
    out = []
    for n in range(len(pairs) + 1):
        weight = base * (-2) ** n
        for sub in combinations(pairs, n):
            out.append((p - g + n, s_mask ^ sum(sub), weight))
    return tuple(out)


def j_infinity(x):
    """The flip automorphism of the full plane; degree preserving."""
    g = x.genus
    out = {}
    for (i, mask), c in x.terms.items():
        for di, m2, w in _flip_blade(g, mask):
            key = (i + di, m2)
            v = out.get(key, 0) + c * w
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return GradedElement(g, out)


def gamma_action(gamma_star_index, x, truncate=True):
    """H_1 action of the class dual to e_{gamma_star_index} on a plane element:

        gamma . (m * U^-i) = (e |_ m) * U^-i + (e ^ m) * U^-(i-1)

    With truncate=True terms pushed to i < 0 die (the U^0-row truncation of
    the i >= 0 quotient).
    """
    out = {}
    for key, c in x.terms.items():
        for key2, s in _gamma_terms(gamma_star_index, *key, truncate):
            v = out.get(key2, 0) + s * c
            if v:
                out[key2] = v
            else:
                out.pop(key2, None)
    return GradedElement(x.genus, out)


def _gamma_terms(gamma_star_index, i, mask, truncate=True):
    """gamma_action on the single term mask * U^-i: tuple of
    ((i', mask'), sign), at most one contraction and one wedge term.  Each
    sign is (-1)^(bits of mask below the bit it removes or adds), times
    omega(partner, e) for the contraction (exterior.contract_blades and
    wedge_blades for a single vector)."""
    vbit = 1 << (gamma_star_index - 1)
    pbit = 1 << ((gamma_star_index - 1) ^ 1)  # e |_ m only removes the partner
    out = []
    if mask & pbit:
        s = 1 if pbit < vbit else -1  # omega(partner, e)
        if (mask & (pbit - 1)).bit_count() & 1:
            s = -s
        out.append(((i, mask ^ pbit), s))
    if not mask & vbit and (i >= 1 or not truncate):
        s = -1 if (mask & (vbit - 1)).bit_count() & 1 else 1
        out.append(((i - 1, mask | vbit), s))
    return tuple(out)


# ---------------------------------------------------------------------------
# slice maps
# ---------------------------------------------------------------------------

class SliceMap:
    """A slice matrix together with its source and target bases."""

    __slots__ = ("matrix", "source", "target", "op", "s")

    def __init__(self, matrix, source, target, op, s=0):
        self.matrix = matrix
        self.source = source
        self.target = target
        self.op = op
        self.s = s

    def __repr__(self):
        return f"<SliceMap {self.op} d={self.source.degree} {self.matrix!r}>"


class UnionBasis:
    """Concatenation of slice bases of distinct degrees: the target of h/F
    when s != 0, where the two summands land on different antidiagonals,
    and both sides of the nontorsion chain matrices."""

    __slots__ = ("genus", "slices", "index", "elements")

    def __init__(self, slices):
        self.genus = slices[0].genus
        self.slices = slices
        self.index = {}
        self.elements = []
        for sl in slices:
            for key in sl.elements:
                self.index[key] = len(self.elements)
                self.elements.append(key)

    @property
    def size(self):
        return len(self.elements)

    @property
    def degree(self):
        return self.slices[0].degree


OPS = ("v", "h", "F", "F_hat", "one_plus_J")


def _op_terms(g, op, s, mask):
    """Image terms of a source blade at U-coordinate 0 under the chosen map,
    before the target-region projection: (di, mask', coeff), the term for
    input at i landing at i + di.

    h is pr . U^{-s} . (flip with its j >= 0 projection); for s <= 0 a term
    with j < 0 before the shift sits below j = s afterwards, so the final
    corner projection subsumes the intermediate one and the flip can be
    applied raw here.
    """
    if op == "v":
        return ((0, mask, 1),)
    flips = _flip_blade(g, mask)
    if op == "one_plus_J":
        return flips + ((0, mask, 1),)
    if s:
        flips = tuple([(di + s, m2, w) for di, m2, w in flips])
    return flips if op == "h" else ((0, mask, 1),) + flips


def _regions(op, s=0):
    """Source and target regions of a slice op."""
    if op == "one_plus_J":
        return B_PLUS, B_PLUS
    if op == "F_hat":
        return row_i0(), min_zero(s)
    return B_PLUS, corner(s)


def _bases(g, op, d, s=0, r=None, basis=slice_basis):
    """Source and target bases of a slice op, each built by basis(g,
    region, degree, r)."""
    if op not in OPS:
        raise DomainError(f"unknown slice op {op!r}")
    if s > 0:
        raise DomainError("slice maps are built for s <= 0; use conjugation")
    if r is not None and not 0 <= r <= g:
        raise DomainError(f"weight type {r} out of range for genus {g}")
    src_region, tgt_region = _regions(op, s)
    src = basis(g, src_region, d, r)
    if tgt_region == src_region:  # one_plus_J: one basis, built once
        return src, src
    if s == 0:
        return src, basis(g, tgt_region, d, r)
    degs = {"v": [d], "h": [d + 2 * s]}.get(op, [d, d + 2 * s])
    return src, UnionBasis([basis(g, tgt_region, dd, r) for dd in degs])


def _accumulate(g, op, s, src, tgt, ring=ZZ):
    """Matrix of the op from the source basis to the target basis over the
    ring, its entries summed in one pass over plain ints (mod p over F_p).
    An entry whose sum reaches zero is dropped and, should it become
    nonzero again, reinserted at the end: the field eliminators pivot on a
    column's first row, so the order is part of the result.  Ticks once
    per source column."""
    p = ring.p
    get = tgt.index.get
    ent = {}
    for c, (i, mask) in enumerate(src.elements):
        tick()
        for di, m2, w in _op_terms(g, op, s, mask):
            r = get((i + di, m2))
            if r is None:
                continue
            key = r, c
            v = ent.get(key, 0) + w
            if p is not None:
                v %= p
            if v:
                ent[key] = v
            else:
                ent.pop(key, None)
    return SparseExactMatrix.from_int_entries(tgt.size, src.size, ent, ring)


def slice_map(g, op, d, ring=ZZ, s=0, r=None):
    """Matrix of one structure map on the degree-d slice, or on its
    representative type-r weight block when r is given.

    Ops and their regions:
      v, h, F      : quotient {i >= 0}  ->  corner {i >= 0, j >= s}
      F_hat        : row {i = 0}        ->  L-shape {min(i, j - s) = 0}
      one_plus_J   : quotient {i >= 0}  ->  itself (1 + J, with the i >= 0
                     truncation; for d >= g-1 nothing is truncated)

    For s != 0 the h summand shifts the antidiagonal by 2s, so the target
    basis is the union of the degree-d and degree-(d+2s) slices of the
    corner; the relative grading is only preserved mod 2|s| there.

    With r, source and target hold only the masks of weight
    (1^r, 0^(g-r)), and the matrix is the op restricted to them.  Each of
    the block_multiplicity(g, r) type-r blocks of the whole matrix has its
    Smith form and ranks (module docstring).  Ticks once per source column.
    """
    src, tgt = _bases(g, op, d, s, r)
    return SliceMap(_accumulate(g, op, s, src, tgt, ring), src, tgt, op, s)


def _flip_sources(g, m2):
    """Transpose of _flip_blade: the (di, mask, coeff) for which
    _flip_blade(g, mask) holds (di, m2, coeff), so J of mask * U^-i has
    coefficient coeff at m2 * U^-(i + di).

    The sources are mask = swap_pairs(full ^ (m2 | P)) for P a union of
    pairs that are empty in m2 (they are the pairs the eta_n term removed).
    With q = |m2|, e = #empty pairs of m2 and n = #pairs of P, the weight
    eps * (-1)^(p + #complete pairs of mask) * (-2)^n, where p = 2g - q - 2n
    and mask has e - n complete pairs, is eps * (-1)^(q + e) * 2^n, and the
    shift is p - g + n = g - q - n.
    """
    full = (1 << (2 * g)) - 1
    empty = complete_pairs(full ^ m2)
    base = swap_pairs(full ^ m2)
    q = blade_grade(m2)
    sign = epsilon(g) * (-1 if (q + blade_grade(empty)) & 1 else 1)
    out = []
    sub = empty
    while True:
        n = blade_grade(sub)
        out.append((g - q - n, base ^ sub ^ sub << 1, sign << n))
        if not sub:
            return tuple(out)
        sub = (sub - 1) & empty


_DIGEST_CHUNK = 4096  # entries serialized per sha256 update


def slice_digest(g, op, d, s=0):
    """Fingerprint of the whole integer matrix slice_map(g, op, d, ZZ, s):
    the first 16 hex digits of the sha256 of its canonical JSON,
    {"cols":C,"entries":[[r,c,"v"],...],"ring":"Z","rows":R} with the
    entries in (r, c) order.

    Row-major: the target basis is walked in order, and each row's entries
    are collected from the sources of its blade (_flip_sources, plus the
    identity term for every op but h), summed, sorted by column and
    streamed to sha256 in chunks.  Memory is O(basis): the bases are built
    outside the slice_basis cache and no flip is cached, so nothing that
    grows with the number of nonzeros is kept.  Ticks once per target row.
    """
    src, tgt = _bases(g, op, d, s, basis=SliceBasis)
    get = src.index.get
    shift = 0 if op == "one_plus_J" else s
    h = hashlib.sha256(b'{"cols":%d,"entries":[' % src.size)
    chunk, sep = [], ""
    for r, (i, m2) in enumerate(tgt.elements):
        tick()
        row = {}
        if op != "h":
            c = get((i, m2))
            if c is not None:
                row[c] = 1
        if op != "v":
            for di, mask, w in _flip_sources(g, m2):
                c = get((i - di - shift, mask))
                if c is not None:
                    row[c] = row.get(c, 0) + w
        chunk.extend('[%d,%d,"%d"]' % (r, c, row[c]) for c in sorted(row) if row[c])
        if len(chunk) >= _DIGEST_CHUNK:
            h.update((sep + ",".join(chunk)).encode())
            chunk, sep = [], ","
    if chunk:
        h.update((sep + ",".join(chunk)).encode())
    h.update(b'],"ring":"Z","rows":%d}' % tgt.size)
    return h.hexdigest()[:16]


def u_chain_map(g, region, d_hi, steps, ring=ZZ, r=None):
    """Matrix of U^steps from the degree-d_hi slice down to d_hi - 2*steps,
    or from its representative type-r weight block when r is given.  Ticks
    once per source column."""
    src = slice_basis(g, region, d_hi, r)
    tgt = slice_basis(g, region, d_hi - 2 * steps, r)
    get = tgt.index.get
    ent = {}
    for c, (i, mask) in enumerate(src.elements):
        tick()
        row = get((i - steps, mask))
        if row is not None:
            ent[(row, c)] = 1
    mat = SparseExactMatrix.from_int_entries(tgt.size, src.size, ent, ring)
    return SliceMap(mat, src, tgt, "U" if steps == 1 else f"U^{steps}")


def u_slice_map(g, region, d, ring=ZZ, r=None):
    """Matrix of U: degree-d slice -> degree-(d-2) slice of the same region."""
    return u_chain_map(g, region, d, 1, ring, r)
