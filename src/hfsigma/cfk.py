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
point.  So each of the C(g, r) * 2^r blocks of type r (r nonzero weights)
is conjugate by a signed permutation matrix to the block of weight
(1^r, 0^(g-r)), which is, entry for entry, the weight-zero block at genus
g - r and the same slice degree d = i + j: dropping the r pairs that hold
one vector takes a grade-p blade at (i, j) to a grade-(p - r) one, the star
keeps those pairs, eta_n never touches them, and the flip's sign
eps * (-1)^p depends on p - g alone.  So only weight-zero blocks, with
every pair empty or complete, are built (block=True): 2^g masks, not 4^g.
"""

from functools import lru_cache, partial
from itertools import combinations
from math import comb

from . import sha256
from .blades import (blade_grade, block_masks, complete_pairs, grade_masks,
                     pair_mask, star_blade, swap_pairs)
from .errors import DomainError, GenusMismatch, tick
from .linalg import SparseExactMatrix


def epsilon(g):
    """Global sign of the flip map: (-1)^(g-1)."""
    return -1 if g % 2 == 0 else 1


# ---------------------------------------------------------------------------
# regions of the (i, j) plane
# ---------------------------------------------------------------------------

class Region:
    """Membership predicate for a sub/quotient region of the plane."""

    __slots__ = ("kind", "s")

    KINDS = ("b", "corner", "row_i0", "min_zero")

    def __init__(self, kind, s=0):
        if kind not in self.KINDS:
            raise DomainError(f"unknown region kind {kind!r}")
        self.kind = kind
        self.s = s

    def contains(self, i, j):
        k, s = self.kind, self.s
        if k == "b":
            return i >= 0
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


def corner(s=0):
    return Region("corner", s)


def row_i0():
    return Region("row_i0")


def min_zero(s=0):
    return Region("min_zero", s)


# ---------------------------------------------------------------------------
# slice bases
# ---------------------------------------------------------------------------

def _slice_cells(g, region, d):
    """Cells (i, p) of the degree-d slice of a region, i ascending, with
    p = g + d - 2i in [0, 2g]."""
    i_lo = -((g - d) // 2)  # ceil((d-g)/2)
    return [(i, g + d - 2 * i) for i in range(i_lo, (d + g) // 2 + 1)
            if region.contains(i, d - i)]


class SliceBasis:
    """Ordered basis of the degree-d slice of a region, or with block of its
    weight-zero block.

    Cells are (i, p) with p = g + d - 2i, listed with i ascending; within a
    cell the blades of grade p run in ascending mask order.  The enumeration
    is deterministic, so matrices are reproducible bit for bit.
    """

    __slots__ = ("genus", "region", "degree", "cells", "index", "elements")

    def __init__(self, genus, region, degree, block=False):
        g = genus
        self.genus = g
        self.region = region
        self.degree = degree
        self.cells = _slice_cells(g, region, degree)
        self.index = {}
        self.elements = []
        for i, p in self.cells:
            for mask in (block_masks if block else grade_masks)(g, p):
                self.index[(i, mask)] = len(self.elements)
                self.elements.append((i, mask))

    @property
    def size(self):
        return len(self.elements)

    def __repr__(self):
        return (f"<slice g={self.genus} {self.region!r} d={self.degree} "
                f"cells={self.cells} dim={self.size}>")


@lru_cache(maxsize=None)
def slice_basis(g, region, d, block=False):
    return SliceBasis(g, region, d, block)


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

class _Images(dict):
    """A linear plane map as {(i, mask): image of that single term}, an image
    being a tuple of ((i', mask'), coeff), each built by build(i, mask) on
    first use; _apply sums the images over plain {(i, mask): coeff} dicts.
    J, the action of a class and the nontorsion maps are applied this way."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        img = self[key] = self.build(*key)
        return img


def _apply(image, terms):
    """The linear map given by its term images on {(i, mask): coeff}, as a
    new dict without zero coefficients."""
    out = {}
    get = out.get
    for key, c in terms.items():
        for key2, w in image[key]:
            v = get(key2, 0) + c * w
            if v:
                out[key2] = v
            else:
                del out[key2]
    return out


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
    """The flip automorphism of the full plane; degree preserving.  The
    image of a term is its _flip_blade, shifted to the term's U-coordinate."""
    g = x.genus
    image = _Images(lambda i, mask: tuple(((i + di, m2), w)
                                          for di, m2, w in _flip_blade(g, mask)))
    return GradedElement(g, _apply(image, x.terms))


def gamma_action(gamma_star_index, x, truncate=True):
    """H_1 action of the class dual to e_{gamma_star_index} on a plane element:

        gamma . (m * U^-i) = (e |_ m) * U^-i + (e ^ m) * U^-(i-1)

    With truncate=True terms pushed to i < 0 die (the U^0-row truncation of
    the i >= 0 quotient).
    """
    return GradedElement(x.genus, _apply(_gamma_images(gamma_star_index, truncate),
                                         x.terms))


def _gamma_images(gamma_star_index, truncate):
    """Term images of the action of one class (_gamma_terms), a fresh table
    per call: the images of one walk are built once and dropped with it."""
    return _Images(partial(_gamma_terms, gamma_star_index, truncate))


def _gamma_terms(gamma_star_index, truncate, i, mask):
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


def _layout(g, op, d, s=0):
    """Source region and target (region, degree) slices of a slice op: one
    slice, or for h/F at s != 0 the degree-d and degree-(d + 2s) slices of
    the corner, the first of them dropped for h."""
    if op not in OPS:
        raise DomainError(f"unknown slice op {op!r}")
    if s > 0:
        raise DomainError("slice maps are built for s <= 0; use conjugation")
    src_region, tgt_region = _regions(op, s)
    if op == "one_plus_J" or s == 0:
        return src_region, [(tgt_region, d)]
    degs = {"v": [d], "h": [d + 2 * s]}.get(op, [d, d + 2 * s])
    return src_region, [(tgt_region, dd) for dd in degs]


def _bases(g, op, d, s=0, block=False):
    """Source and target bases of a slice op, from the slice_basis cache."""
    src_region, targets = _layout(g, op, d, s)
    src = slice_basis(g, src_region, d, block)
    if targets == [(src_region, d)]:  # one_plus_J: one basis, built once
        return src, src
    tgts = [slice_basis(g, region, dd, block) for region, dd in targets]
    return src, tgts[0] if s == 0 else UnionBasis(tgts)


def _accumulate(terms, src, tgt):
    """Integer matrix from the source basis to the target basis of the map
    whose image of a source blade at U-coordinate 0 is terms(mask), as
    (di, mask', coeff) with the term for input at i landing at i + di; terms
    off the target basis are dropped.  The entries are summed in one pass
    over plain ints; an entry whose sum reaches zero is dropped.  Ticks once
    per source column."""
    get = tgt.index.get
    ent = {}
    for c, (i, mask) in enumerate(src.elements):
        tick()
        for di, m2, w in terms(mask):
            r = get((i + di, m2))
            if r is None:
                continue
            key = r, c
            v = ent.get(key, 0) + w
            if v:
                ent[key] = v
            else:
                ent.pop(key, None)
    return SparseExactMatrix.from_int_entries(tgt.size, src.size, ent)


def slice_map(g, op, d, s=0, block=False):
    """Integer matrix of one structure map on the degree-d slice, or on its
    weight-zero block when block is true.

    Ops and their regions:
      v, h, F      : quotient {i >= 0}  ->  corner {i >= 0, j >= s}
      F_hat        : row {i = 0}        ->  L-shape {min(i, j - s) = 0}
      one_plus_J   : quotient {i >= 0}  ->  itself (1 + J, with the i >= 0
                     truncation; for d >= g-1 nothing is truncated)

    For s != 0 the h summand shifts the antidiagonal by 2s, so the target
    basis is the union of the degree-d and degree-(d+2s) slices of the
    corner; the relative grading is only preserved mod 2|s| there.

    With block, source and target hold only the unions of pairs: at genus
    g - r this is every type-r block of the whole genus-g matrix at the
    same d, up to a signed permutation (module docstring).  Ticks once per
    source column.
    """
    src, tgt = _bases(g, op, d, s, block)
    mat = _accumulate(partial(_op_terms, g, op, s), src, tgt)
    return SliceMap(mat, src, tgt, op, s)


def _flip_template(g, m2):
    """The sources of m2 under J, as (pair union x, coeff): J of the blade
    swap_pairs(full ^ m2) - x has coefficient coeff at m2.  J's matrix is
    its own transpose up to the sign of the shift: _flip_blade(g, mask)
    holds (di, m2, w) exactly when _flip_blade(g, m2) holds
    (-di, mask, w * (-1)^di).  So the template is the uncached
    _flip_blade(g, m2), sorted (n, then mask ascending: source columns
    ascending); it depends on m2 only through its empty pairs, of which x
    is a union, and the parity of its grade."""
    base = swap_pairs(((1 << (2 * g)) - 1) ^ m2)
    return tuple((base ^ mask, -w if di & 1 else w)
                 for di, mask, w in sorted(_flip_blade.__wrapped__(g, m2)))


_DIGEST_CHUNK = 4096  # entries serialized per sha256 update


def slice_digest(g, op, d, s=0):
    """Fingerprint of the whole integer matrix slice_map(g, op, d, s):
    the first 16 hex digits of the sha256 of its canonical JSON,
    {"cols":C,"entries":[[r,c,"v"],...],"ring":"Z","rows":R} with the
    entries in (r, c) order.

    Row-major and without a basis: the target cells are walked in order,
    each by grade_masks, and each row's entries come from the sources of
    its blade, the identity term for every op but h and the flip's, which
    by the transpose rule of _flip_template are _flip_blade of the row's
    own blade; they come already in column order and are streamed in
    chunks to the package's builtin sha256 (hfsigma.sha256, no OpenSSL).
    Within a slice each grade fills one cell, so one array of 4^g ints
    (typecode "i", 4 MB at g = 10), built per call, maps a source mask to
    its column: its cell's offset plus its rank among the masks of its
    grade, -1 outside the source.  Besides it the walk keeps one flip
    template per empty-pair pattern and grade parity and nothing that grows
    with the number of nonzeros or with a grade; no cache is touched.
    Ticks once per target row.
    """
    src_region, targets = _layout(g, op, d, s)
    # 4^g C ints (typecode "i"), every byte 0xff: all -1.  A bytearray cast
    # needs no extension module, where the array module is a shared library
    col = memoryview(bytearray(b"\xff") * (4 << (2 * g))).cast("i")
    cols = 0
    for _, p in _slice_cells(g, src_region, d):
        for k, mask in enumerate(grade_masks(g, p), cols):
            col[mask] = k
        cols += comb(2 * g, p)
    full = (1 << (2 * g)) - 1
    shift = 0 if op == "one_plus_J" else s
    templates = {}
    h = sha256(b'{"cols":%d,"entries":[' % cols)
    chunk, sep, r = [], "", 0
    append = chunk.append
    for region, dd in targets:
        ident = op != "h" and dd == d
        flips = op != "v" and dd == d + 2 * shift
        for _, q in _slice_cells(g, region, dd):
            for m2 in grade_masks(g, q):
                tick()
                c_id = col[m2] if ident else -1
                if flips:
                    rest = full ^ m2
                    key = complete_pairs(rest), q & 1
                    tpl = templates.get(key)
                    if tpl is None:
                        tpl = templates[key] = _flip_template(g, m2)
                    base = swap_pairs(rest)
                    for x, w in tpl:
                        c = col[base - x]
                        if c < 0:
                            continue
                        if 0 <= c_id <= c:  # the identity term, merged in place
                            if c_id < c:
                                append('[%d,%d,"1"]' % (r, c_id))
                            else:
                                w += 1
                            c_id = -1
                            if not w:
                                continue
                        append('[%d,%d,"%d"]' % (r, c, w))
                if c_id >= 0:
                    append('[%d,%d,"1"]' % (r, c_id))
                r += 1
                if len(chunk) >= _DIGEST_CHUNK:
                    h.update((sep + ",".join(chunk)).encode())
                    chunk.clear()
                    sep = ","
    if chunk:
        h.update((sep + ",".join(chunk)).encode())
    h.update(b'],"ring":"Z","rows":%d}' % r)
    return h.hexdigest()[:16]


def u_chain_map(g, region, d_hi, steps, block=False):
    """Matrix of U^steps from the degree-d_hi slice down to d_hi - 2*steps,
    or from its weight-zero block when block is true.  Ticks once per
    source column."""
    src = slice_basis(g, region, d_hi, block)
    tgt = slice_basis(g, region, d_hi - 2 * steps, block)
    mat = _accumulate(lambda mask: ((-steps, mask, 1),), src, tgt)
    return SliceMap(mat, src, tgt, "U" if steps == 1 else f"U^{steps}")


def u_slice_map(g, region, d, block=False):
    """Matrix of U: degree-d slice -> degree-(d-2) slice of the same region."""
    return u_chain_map(g, region, d, 1, block)
