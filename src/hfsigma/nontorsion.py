"""The nontorsion sector: the plus flavor for the spin-c structures k != 0,
whose first Chern class is nonzero, and the action of H_1 on it.

The groups are reported in the integer grading of the triangle model
X(g, d), d = g - 1 - |k|, which lifts their relative Z/2|k| grading.  They
are computed twice and cross-checked: from the kernels of windowed chain
matrices of F = v + h, and as the image of the kernel embedding phi, an
alternating series in pr_{i>=0} U^|k| J.

The H_1 action walks the orbits of (gamma, key) pairs, a class gamma and a
basis key (i, mask) of the model, under the signed permutations of the
symplectic pairs.  Such a permutation fixes i and maps the pair of
e_gamma, with what the mask holds of it, onto any other pair and
exchanges the other g - 1 pairs among themselves, so the orbit of
(gamma, key) is named by i, whether the mask holds e_gamma, whether it
holds gamma's partner, and how many of the other pairs are complete and
how many hold one vector (_orbit).  The permutations commute with J, U
and the regions, and carry the action of gamma to that of its image up to
sign (cfk module docstring).  So the corrections of the two members of an
orbit differ by the relabelling and a sign, and sit at the same cells:
action_corrections runs _act once per orbit and hands every other member
the representative's cells.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import comb

from .blades import blade_grade, block_masks, blades_of_grade, complete_pairs
from .blocks import FloerTable, _block_sum
from .cfk import (B_PLUS, GradedElement, SliceMap, UnionBasis, corner,
                  slice_basis, _accumulate, _apply, _gamma_images, _Images,
                  _op_terms)
from .errors import DomainError, UnsupportedOperation, tick
from .linalg import GroupPresentation, SparseExactMatrix, rank
from .rings import QQ, ZZ


# ---------------------------------------------------------------------------
# the triangle model
# ---------------------------------------------------------------------------

def x_model_dims(g, d):
    """Per-degree ranks of X(g, d): Lambda^m tensor U^-c for 0 <= c <= d-m,
    graded by m - g + 2c."""
    dims = {}
    if d is None or d < 0:
        return dims
    for m in range(0, d + 1):
        for c in range(0, d - m + 1):
            deg = m - g + 2 * c
            dims[deg] = dims.get(deg, 0) + comb(2 * g, m)
    return dims


class XModel:
    """The triangle model: Lambda^m H^1 tensor Z[U^-1]/U^(m-d-1), graded so
    U has degree -2 and Lambda^m sits in degree m - g."""

    __slots__ = ("genus", "d")

    def __init__(self, genus, d):
        self.genus = genus
        self.d = d

    def dims(self):
        return x_model_dims(self.genus, self.d)

    def total_rank(self):
        if self.d is None or self.d < 0:
            return 0
        return sum(comb(2 * self.genus, m) * (self.d - m + 1)
                   for m in range(0, self.d + 1))

    def basis(self, block=False):
        """Plane keys (i=c, mask) of the embedded copy inside the i >= 0
        quotient; position (c, m - g + c).  With block, only the masks of
        the weight-zero block (blades.block_masks)."""
        if self.d is None or self.d < 0:
            return []
        masks = block_masks if block else blades_of_grade
        grades = [masks(self.genus, m) for m in range(self.d + 1)]
        return [(c, mask) for m, grade in enumerate(grades)
                for c in range(self.d - m + 1) for mask in grade]

    def degree_of(self, key):
        c, mask = key
        return blade_grade(mask) - self.genus + 2 * c

    def min_degree(self):
        return -self.genus if (self.d is not None and self.d >= 0) else None

    def max_degree(self):
        if self.d is None or self.d < 0:
            return None
        return 2 * self.d - self.genus  # m=0, c=d

    def to_json(self):
        return {"genus": self.genus, "d": self.d,
                "dims": {str(k): v for k, v in sorted(self.dims().items())},
                "total_rank": self.total_rank()}


# ---------------------------------------------------------------------------
# nontorsion spin-c structures
# ---------------------------------------------------------------------------

class _TriangleRegion:
    """{i >= 0, j <= -|k|-1}: the embedded triangle carrying X(g, d)."""

    __slots__ = ("kk",)

    def __init__(self, kk):
        self.kk = kk

    def contains(self, i, j):
        return i >= 0 and j <= -self.kk - 1


def chain_matrix(g, kk, degrees, block=False):
    """SliceMap of F = v + h over the listed source degrees of one residue
    class mod 2|k|, or of its weight-zero block when block is true; h drops
    the antidiagonal by 2|k|, so rows span the corner slices of the source
    degrees and one step below.  Both sides are unions of
    slices in ascending degree.  Ticks once per column."""
    degrees = sorted(degrees)
    src = UnionBasis([slice_basis(g, B_PLUS, d, block) for d in degrees])
    tgt = UnionBasis([slice_basis(g, corner(-kk), d, block)
                      for d in sorted(set(degrees) | {d - 2 * kk for d in degrees})])
    mat = _accumulate(partial(_op_terms, g, "F", -kk), src, tgt)
    return SliceMap(mat, src, tgt, "F", -kk)


@lru_cache(maxsize=None)
def _nontorsion_images(g, kk):
    """(phi step, F) term-image tables (cfk._Images) for genus g and
    |k| = kk: the cfk._op_terms of h and of F at s = -|k|, kept in the
    corner {i >= 0, j >= -|k|}.  For the phi step that is
    pr_{i>=0} U^|k| pr_{j>=0} J, since U^|k| carries j >= 0 onto j >= -|k|.
    The action of a class is cfk._gamma_images, a table built per call."""
    def images(op):
        def build(i, mask):
            return tuple(((i2, m2), w) for di, m2, w in _op_terms(g, op, -kk, mask)
                         if (i2 := i + di) >= 0 and i2 + blade_grade(m2) - g >= -kk)
        return _Images(build)
    return images("h"), images("F")


def phi_series(xi, kk, max_iter=200):
    """The kernel embedding: alternating sum of (pr_{i>=0} U^|k| J+)^n.
    Ticks once per term."""
    step = _nontorsion_images(xi.genus, kk)[0]
    out = {}
    term = xi.terms
    sign = 1
    for _ in range(max_iter):
        tick()
        if not term:
            return GradedElement(xi.genus, out)
        for key, c in term.items():
            v = out.get(key, 0) + sign * c
            if v:
                out[key] = v
            else:
                del out[key]
        term = _apply(step, term)
        sign = -sign
    raise AssertionError("phi series did not terminate")


def apply_F(y, g, kk):
    """F = v + h on the i >= 0 quotient, into the corner at j >= -|k|."""
    return GradedElement(g, _apply(_nontorsion_images(g, kk)[1], y.terms))


def hf_plus_nontorsion(g, k):
    """Plus flavor for spin-c structures with nonzero first Chern class.

    Zero once |k| >= g; otherwise free with the per-degree ranks of
    X(g, g-1-|k|), computed two ways and cross-checked: windowed
    chain-matrix kernels and the phi-series image.

    v, h and the corner regions preserve the weight vector and commute with
    the signed pair permutations (cfk module docstring), so each prefix
    kernel rank is summed over the weight blocks (blocks._block_sum) from
    the weight-zero blocks of the chain matrix at each genus n <= g.
    """
    if k == 0:
        raise DomainError("k = 0 is the torsion sector; use hf_plus_torsion")
    kk = abs(k)
    table = FloerTable(g, k, ZZ, "nontorsion")
    if kk >= g:
        table.metadata["vanishes"] = True
        return table, XModel(g, -1)
    model = XModel(g, g - 1 - kk)
    dims = model.dims()
    per_degree = {}
    for res in range(2 * kk):
        degs = [n for n in range(-g, model.max_degree() + 1)
                if (n - res) % (2 * kk) == 0]
        prev = 0
        for top_idx, top in enumerate(degs):
            prefix = tuple(degs[:top_idx + 1])

            def block_kernel(n):
                m = _chain_cached(n, kk, prefix, True).matrix
                return GroupPresentation(m.cols - rank(m, QQ))
            kr = _block_sum(g, block_kernel).free_rank
            per_degree[top] = kr - prev
            prev = kr
    for n, v in sorted(per_degree.items()):
        table.entries[n] = GroupPresentation(v)
    phi_rank = phi_image_rank(g, kk)
    direct = sum(per_degree.values())
    if phi_rank != direct or direct != model.total_rank():
        raise AssertionError(
            f"kernel rank mismatch: chain {direct}, phi {phi_rank}, "
            f"model {model.total_rank()}")
    for n, v in dims.items():
        if per_degree.get(n, 0) != v:
            raise AssertionError(f"degree {n}: rank {per_degree.get(n, 0)} "
                                 f"!= model {v}")
    table.metadata["phi_rank_checked"] = True
    return table, model


@lru_cache(maxsize=None)
def _chain_cached(g, kk, degrees, block=False):
    return chain_matrix(g, kk, list(degrees), block)


def phi_image_rank(g, kk):
    """Rank over Q of the phi image of every basis element of the model.

    phi is built from J, U and region projections, so it preserves the
    weight vector and commutes with the signed pair permutations: the rank
    is summed over the weight blocks (blocks._block_sum), the type-r block
    of X(g, g - 1 - |k|) being the weight-zero block of X(n, n - 1 - |k|)
    at n = g - r (a blade loses r from its grade and keeps its degree)."""
    def block_image(n):
        fmap = _nontorsion_images(n, kk)[1]
        keys, cols = {}, []
        for key in XModel(n, n - 1 - kk).basis(block=True):
            ph = phi_series(GradedElement(n, {key: 1}), kk).terms
            if _apply(fmap, ph):
                raise AssertionError("phi image escaped the kernel")
            cols.append({keys.setdefault(t, len(keys)): v for t, v in ph.items()})
        return GroupPresentation(
            rank(SparseExactMatrix.from_columns(len(keys), cols), QQ))
    return _block_sum(g, block_image).free_rank


def f_restriction_surjective(g, kk, d_lo=None, d_hi=None):
    """Check that F restricted to the corner part of the source hits every
    row of the corner target inside the window (extra source degrees above
    the window feed the top rows)."""
    if d_lo is None:
        d_lo = -g
    if d_hi is None:
        d_hi = g
    if d_hi < d_lo:
        return True  # an empty window has no target rows
    src = UnionBasis([slice_basis(g, corner(-kk), d)
                      for d in range(d_lo, d_hi + 2 * kk + 1)])
    tgt = UnionBasis(src.slices[:d_hi - d_lo + 1])
    return rank(_accumulate(partial(_op_terms, g, "F", -kk), src, tgt), QQ) == tgt.size


# ---------------------------------------------------------------------------
# H_1 action on the nontorsion sector
# ---------------------------------------------------------------------------

class CorrectionTerm:
    """One correction of the action: homogeneous of the given degree, on
    the cell (exterior power, U exponent)."""

    __slots__ = ("ell", "value", "exterior_power", "u_exponent", "degree")

    def __init__(self, ell, value, exterior_power, u_exponent, degree):
        self.ell = ell
        self.value = value
        self.exterior_power = exterior_power
        self.u_exponent = u_exponent
        self.degree = degree

    def _key(self):
        return (self.ell, self.value, self.exterior_power, self.u_exponent,
                self.degree)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return "CorrectionTerm(%r, %r, %r, %r, %r)" % self._key()

    def to_json(self):
        return {"ell": self.ell, "exterior_power": self.exterior_power,
                "u_exponent": self.u_exponent, "degree": self.degree,
                "terms": {f"{i},{m}": str(c)
                          for (i, m), c in sorted(self.value.terms.items())}}


def h1_corrections(g, k, xi):
    """Yield (gamma, corrections) of the action of the homology class dual
    to e_gamma on a homogeneous model element xi (a plane GradedElement
    supported in the embedded triangle, or a single (c, mask) pair), for
    gamma = 1..2g, from one phi series of xi.  Each correction is
    homogeneous of degree n - 1 - 2*ell*|k|, pinned to a single lattice
    cell."""
    kk, xi, n = _model_element(g, k, xi)
    ph = phi_series(xi, kk).terms
    for gamma in range(1, 2 * g + 1):
        yield gamma, _act(g, kk, gamma, xi, n, ph)[1]


CorrectionLocation = namedtuple(
    "CorrectionLocation", "ell exterior_power u_exponent degree")
CorrectionLocation.__doc__ = """Where a correction sits: a CorrectionTerm
without its value."""


def action_corrections(g, k):
    """Yield (key, degree, gamma, location) for every correction of the
    action on the basis of X(g, g - 1 - |k|), in the order of model.basis(),
    gamma = 1..2g and descending correction degree; location is a
    CorrectionLocation, the cell of the correction without its value.

    Runs _act once per orbit of (gamma, key) under the signed permutations
    of the pairs (module docstring): the orbit is named by i, the bits of
    the mask at e_gamma and at its partner, and the numbers of complete and
    of half-filled pairs among the other g - 1 pairs (_orbit).  A
    permutation of the orbit carries phi(xi), the action of gamma and the
    triangle onto those of the other member up to sign, so the members'
    corrections have the same ell, exterior power, U exponent and degree,
    in the same order.  The table of cells lives for one walk.  Ticks once
    per basis key."""
    kk = abs(k)
    model = XModel(g, g - 1 - kk)
    cells = {}
    for key in model.basis():
        tick()
        n = model.degree_of(key)
        xi = ph = None
        for gamma in range(1, 2 * g + 1):
            orbit = _orbit(key, gamma)
            locs = cells.get(orbit)
            if locs is None:
                if ph is None:
                    _, xi, _ = _model_element(g, k, key)
                    ph = phi_series(xi, kk).terms
                locs = cells[orbit] = [
                    CorrectionLocation(ct.ell, ct.exterior_power, ct.u_exponent,
                                       ct.degree)
                    for ct in _act(g, kk, gamma, xi, n, ph)[1]]
            for loc in locs:
                yield key, n, gamma, loc


def _orbit(key, gamma):
    """The orbit of (gamma, key) under the signed pair permutations:
    (i, bit of e_gamma, bit of its partner, complete pairs and half-filled
    pairs among the other pairs of the mask)."""
    i, mask = key
    b = gamma - 1
    rest = mask & ~(0b11 << (b & ~1))
    full = complete_pairs(rest).bit_count()
    return i, mask >> b & 1, mask >> (b ^ 1) & 1, full, blade_grade(rest) - 2 * full


def _model_element(g, k, xi):
    """(|k|, xi as a GradedElement, its degree), after checking that xi is
    a homogeneous element of the model triangle and k is nonzero."""
    if k == 0:
        raise UnsupportedOperation(
            "the torsion sector has an unresolved module-structure extension; "
            "only the nonzero-Chern-class action is provided")
    kk = abs(k)
    if isinstance(xi, tuple):
        xi = GradedElement(g, {xi: 1})
    if xi.project(_TriangleRegion(kk)) != xi:
        raise DomainError("xi must be supported in the model triangle")
    degs = xi.degrees()
    if len(degs) != 1:
        raise DomainError("xi must be homogeneous")
    return kk, xi, degs[0]


def _act(g, kk, gamma_star_index, xi, n, ph):
    """The action of one class on xi, given the degree n and phi series
    terms ph of xi: (standard part as a term dict, corrections).  The
    standard part is the interior product plus Poincare-dual wedge with the
    U-shift; the corrections are what the kernel embedding adds on the
    triangle."""
    gamma = _gamma_images(gamma_star_index, True)
    y = _apply(gamma, ph)
    if _apply(_nontorsion_images(g, kk)[1], y):
        raise AssertionError("the action left the kernel")
    std = _apply(gamma, xi.terms)
    inside = _TriangleRegion(kk).contains
    corr = {(i, m): v for (i, m), v in y.items() if inside(i, i + blade_grade(m) - g)}
    for key, v in std.items():  # corr = (y on the triangle) - std
        w = corr.get(key, 0) - v
        if w:
            corr[key] = w
        else:
            del corr[key]
    buckets = {}
    for (i, m), v in corr.items():
        deg = 2 * i + blade_grade(m) - g
        buckets.setdefault(deg, {})[(i, m)] = v
    corrections = []
    for deg in sorted(buckets, reverse=True):
        ell = Fraction(n - 1 - deg, 2 * kk)
        if ell.denominator != 1 or ell <= 0:
            raise AssertionError(f"correction at unexplained degree {deg}")
        ell = int(ell)
        value = GradedElement(g, buckets[deg])
        powers = {blade_grade(m) for (_i, m) in value.terms}
        us = {-i for (i, _m) in value.terms}
        if len(powers) != 1 or len(us) != 1:
            raise AssertionError("correction not pinned to one cell")
        corrections.append(CorrectionTerm(ell, value, powers.pop(), us.pop(), deg))
    return std, corrections


def correction_location(g, k, n, ell):
    """Predicted cell of the ell-th correction for a degree-n input:
    (exterior power, U exponent) and its degree."""
    kk = abs(k)
    a = g - 2 - 2 * kk - n
    b = -kk - 1 - n
    return (a + 2 * ell * kk + 1, b + 2 * ell * kk + 1, n - 1 - 2 * ell * kk)
