"""Assembly of the Floer homology tables of (genus-g surface) x (circle).

Everything is mapping-cone homology of the structure map F = v + h between
the i >= 0 quotient and a corner region of the bigraded model: the group in
half-integer degree d + 1/2 is Ker(F_d) (+) Coker(F_{d+1}).  The complexes
carry no differential, so U acts blockwise and reduced parts are honest
lattice quotients by high U-powers.

Degree conventions: torsion tables live in half-integer degrees; the
nontorsion sector is reported in the integer grading of the triangle model
X(g, d), which lifts its relative Z/2|k| grading.
"""

from fractions import Fraction
from functools import lru_cache, partial
from math import comb

from .cfk import (B_PLUS, GradedElement, SliceMap, UnionBasis, block_masks,
                  block_multiplicity, corner, slice_basis, slice_digest,
                  slice_map, u_chain_map, u_slice_map, _accumulate,
                  _gamma_terms, _op_terms)
from .errors import DomainError, UnsupportedOperation, tick
from .exterior import blade_grade, blades_of_grade, complete_pairs
from .linalg import (GroupPresentation, SparseExactMatrix, cokernel,
                     cokernel_over, factor_rank, integer_kernel_lattice,
                     kernel_basis, lattice_quotient, rank, smith_normal_form)
from .rings import QQ, ZZ


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

BASIS_ORDER = "cells by U-coordinate ascending, blades by mask ascending"


class FloerTable:
    """One flavor's groups by degree, with its towers and metadata."""

    __slots__ = ("genus", "spinc", "ring", "flavor", "entries", "towers", "metadata")

    def __init__(self, genus, spinc, ring, flavor, entries=None, towers=None,
                 metadata=None):
        self.genus = genus
        self.spinc = spinc
        self.ring = ring
        self.flavor = flavor  # hat | plus | plus_red | infinity | nontorsion
        self.entries = {} if entries is None else entries  # degree -> GroupPresentation
        self.towers = [] if towers is None else towers
        self.metadata = {} if metadata is None else metadata
        self.metadata.setdefault("basis_order", BASIS_ORDER)

    def _key(self):
        return (self.genus, self.spinc, self.ring, self.flavor, self.entries,
                self.towers, self.metadata)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return "FloerTable(%r, %r, %r, %r, %r, %r, %r)" % self._key()

    def rank_at(self, degree):
        grp = self.entries.get(degree)
        return grp.free_rank if grp else 0

    def support(self):
        return sorted(d for d, grp in self.entries.items() if not grp.is_trivial())

    def all_invariant_factors(self):
        out = []
        for d in sorted(self.entries):
            out.extend(self.entries[d].invariant_factors)
        return out

    def to_json(self):
        ents = [{"deg": _deg_str(d), "group": self.entries[d].to_json()}
                for d in sorted(self.entries)]
        return {"genus": self.genus, "spinc": self.spinc, "ring": self.ring.tag,
                "flavor": self.flavor, "entries": ents, "towers": self.towers,
                "metadata": self.metadata}


def _deg_str(d):
    return str(Fraction(d))


def half(n):
    """Degree n + 1/2 as a Fraction."""
    return Fraction(2 * n + 1, 2)


# ---------------------------------------------------------------------------
# torus-weight blocks
# ---------------------------------------------------------------------------

_KERNELS = {}  # (g, d, r) -> kernel lattice of the type-r block of F_d


def _kernel_cols(g, d, r):
    """Integer kernel lattice of the representative type-r block of F_d,
    computed once; fresh column dicts on every call."""
    key = (g, d, r)
    if key not in _KERNELS:
        m = slice_map(g, "F", d, r=r).matrix
        lattice = integer_kernel_lattice(m)
        _KERNELS[key] = tuple(tuple(sorted(c.items())) for c in lattice)
    return [dict(items) for items in _KERNELS[key]]


_BLOCKS = {}  # (g, op, d, r) -> (rows, cols, invariant factors)


def _block_data(g, op, d, r):
    """(rows, cols, invariant factors) of the representative type-r block
    of slice map op at degree d (op "omega": lefschetz.raising_matrix from
    grade d), from one Smith form computed once.  By universal coefficients
    it serves every ring: the rank over Q is the number of invariant
    factors, the rank over F_p the number prime to p, and the factors are
    the torsion of the cokernel over Z (linalg.factor_rank, cokernel_over)."""
    key = (g, op, d, r)
    if key not in _BLOCKS:
        if op == "omega":
            from .lefschetz import raising_matrix
            m = raising_matrix(g, d, r=r)
        else:
            m = slice_map(g, op, d, r=r).matrix
        _BLOCKS[key] = (m.rows, m.cols, tuple(smith_normal_form(m)))
    return _BLOCKS[key]


def _block_sum(g, block_group):
    """Direct sum over r = 0..g of block_multiplicity(g, r) copies of
    block_group(r), the group of the representative type-r weight block
    (cfk module docstring).  Ticks once per block, cached or not."""
    free, torsion = 0, []
    for r in range(g + 1):
        tick()
        grp = block_group(r)
        mult = block_multiplicity(g, r)
        free += mult * grp.free_rank
        torsion.extend(grp.invariant_factors * mult)
    return GroupPresentation(free, torsion)


def _cone_group(g, ker, cok, ring):
    """Ker(ker) (+) Coker(cok) over the ring, as a presentation, summed over
    the weight blocks; ker and cok are (op, d) keys of _block_data.  Each
    block enters through its integer Smith form alone (universal
    coefficients): its kernel over the ring has rank cols - factor_rank,
    and its cokernel is cokernel_over the ring."""
    def block_group(r):
        _, cols, lo = _block_data(g, *ker, r)
        rows, _, hi = _block_data(g, *cok, r)
        cok_r = cokernel_over(rows, hi, ring)
        return GroupPresentation(cols - factor_rank(lo, ring) + cok_r.free_rank,
                                 cok_r.invariant_factors)
    return _block_sum(g, block_group)


# ---------------------------------------------------------------------------
# hat flavor
# ---------------------------------------------------------------------------

def hf_hat(g, ring=ZZ, window=None):
    """The finitely generated flavor in the torsion spin-c structure.

    Nonzero only in degrees |d| <= g - 1/2; free of rank C(2g, g-|d|-1/2)
    away from the middle, with the star-fixed lattice adding
    2^(g-1) + C(2g,g)/2 at d = +-1/2.
    """
    if window is None:
        window = (-g - 1, g + 1)
    table = FloerTable(g, 0, ring, "hat")
    for d in range(window[0], window[1] + 1):
        table.entries[half(d)] = _cone_group(g, ("F_hat", d), ("F_hat", d + 1), ring)
    table.metadata["matrix_hash_d0"] = slice_digest(g, "F_hat", 0)
    return table


def hf_hat_closed_form_rank(g, degree):
    """Rank predicted by the closed form, degree a half-integer Fraction."""
    from .lefschetz import self_dual_rank
    ai = abs(Fraction(degree))
    if ai * 2 % 2 == 0:
        return 0
    if Fraction(3, 2) <= ai <= Fraction(2 * g - 1, 2):
        return comb(2 * g, g - int(ai + Fraction(1, 2)))
    if ai == Fraction(1, 2):
        return comb(2 * g, g - 1) + self_dual_rank(g)
    return 0


def sign_choice_cokernels(g):
    """Cokernels of 1 + (-1)^g * eps * star on the middle exterior power for
    eps = +-1; only the bundled sign (-1)^(g-1) gives a torsion-free one."""
    from .exterior import star_blade
    blades = blades_of_grade(g, g)
    idx = {m: i for i, m in enumerate(blades)}
    out = {}
    for eps in (1, -1):
        m = SparseExactMatrix(len(blades), len(blades))
        for c, mask in enumerate(blades):
            m[idx[mask], c] = m[idx[mask], c] + 1
            sc, smk = star_blade(mask, g)
            m[idx[smk], c] = m[idx[smk], c] + ((-1) ** g) * eps * sc
        out[eps] = cokernel(m)
    return out


# ---------------------------------------------------------------------------
# infinity flavor
# ---------------------------------------------------------------------------

def hf_infinity(g, ring=ZZ):
    """The fully U-inverted flavor, computed at the stable degrees g, g+1
    (one per parity); entries repeat with period 2 in the degree.
    """
    table = FloerTable(g, 0, ring, "infinity")
    for d in (g, g + 1):
        table.entries[half(d)] = _cone_group(
            g, ("one_plus_J", d), ("one_plus_J", d + 1), ring)
        hashes = table.metadata.setdefault("matrix_hashes", {})
        hashes[_deg_str(d)] = slice_digest(g, "one_plus_J", d)
    table.metadata["periodic"] = True
    table.metadata["parity_degrees"] = [_deg_str(half(g)), _deg_str(half(g + 1))]
    return table


# ---------------------------------------------------------------------------
# plus flavor at the torsion structure
# ---------------------------------------------------------------------------

def default_plus_window(g):
    return (-g - 2, g + 2)


def hf_plus_torsion(g, ring=ZZ, window=None):
    """The plus flavor at the torsion spin-c structure, per half-integer
    degree over the window; degrees past g - 1/2 repeat the infinity table."""
    if window is None:
        window = default_plus_window(g)
    table = FloerTable(g, 0, ring, "plus")
    for d in range(window[0], window[1] + 1):
        table.entries[half(d)] = _cone_group(g, ("F", d), ("F", d + 1), ring)
    table.towers = theorem_towers(g)
    table.metadata["stable_from"] = _deg_str(half(g - 1))
    return table


def theorem_towers(g):
    """U-tower summands of the plus flavor over the rationals: one for each
    primitive degree j (starting at j - g + 1/2) and each coprimitive degree
    (starting at j - g - 1/2), with computed dimensions."""
    from .lefschetz import coprimitive_dim, primitive_dim
    towers = []
    for j in range(0, g + 1):
        r = primitive_dim(g, j)
        if r:
            towers.append({"start_degree": _deg_str(Fraction(2 * (j - g) + 1, 2)),
                           "rank": r, "kind": "primitive", "j": j})
    for j in range(g, 2 * g + 1):
        r = coprimitive_dim(g, j)
        if r:
            towers.append({"start_degree": _deg_str(Fraction(2 * (j - g) - 1, 2)),
                           "rank": r, "kind": "coprimitive", "j": j})
    return towers


def _stable_hi(g, d):
    """A degree of the same parity as d from which U^N has stabilized."""
    hi = max(g + 1, d + 2)
    if (hi - d) % 2:
        hi += 1
    return hi


def _reduced_group(g, d, ring):
    """Reduced part of the degree d+1/2 group: the quotient of Ker F_d by
    the image S of U^N on Ker F_hi, plus the quotient of Coker F_{d+1} by
    the image of a high U-power.

    F, U^N and the regions preserve the weight vector and commute with the
    signed pair permutations (cfk module docstring), so the group is the sum
    over the weight blocks, read off the representative type-r blocks.  Per
    block, the cokernel side is one Smith form of [F_{d+1} | U^N] read over
    the ring, and the rank of Ker F_d over the ring comes from the block's
    Smith form.  Over Z and Q, S is spanned by the image of the kernel
    lattice at hi and the quotient is read off one Smith form of its
    generators (linalg.lattice_quotient).  Over F_p, S is the image of the
    F_p kernel at hi, which can be larger than the kernel lattice mod p.
    """
    hi = _stable_hi(g, d)
    steps = (hi - d) // 2

    def block_group(r):
        un = u_chain_map(g, B_PLUS, hi, steps, r=r).matrix
        f1 = slice_map(g, "F", d + 1, r=r).matrix
        un1 = u_chain_map(g, corner(0), hi + 1, steps, r=r).matrix
        stack = SparseExactMatrix.hstack(f1, un1)
        red_c = cokernel_over(stack.rows, smith_normal_form(stack), ring)
        _, cols, factors = _block_data(g, "F", d, r)
        k_rank = cols - factor_rank(factors, ring)
        if ring.p is not None:
            f_hi = slice_map(g, "F", hi, r=r).matrix
            img = [c for c in un.mul_columns(kernel_basis(f_hi, ring)) if c]
            red_k = GroupPresentation(k_rank - _span_rank(img, un.rows, ring))
        else:
            img = [v for v in un.mul_columns(_kernel_cols(g, hi, r)) if v]
            if any(slice_map(g, "F", d, r=r).matrix.mul_columns(img)):
                raise AssertionError("U^N carried the kernel at hi outside Ker F_d")
            red_k = lattice_quotient(k_rank, img, un.rows)
            if ring == QQ:
                red_k = GroupPresentation(red_k.free_rank)
        return red_k.direct_sum(red_c)

    return _block_sum(g, block_group)


def _span_rank(cols, nrows, ring):
    """Rank over the ring of the span of integer columns."""
    if not cols:
        return 0
    return rank(SparseExactMatrix.from_columns(nrows, cols), ring)


def hf_plus_reduced(g, ring=ZZ, window=None):
    """Reduced part of the plus flavor: the quotient by the image of every
    sufficiently high U-power, degree by degree."""
    if window is None:
        window = default_plus_window(g)
    table = FloerTable(g, 0, ring, "plus_red")
    for d in range(window[0], window[1] + 1):
        table.entries[half(d)] = _reduced_group(g, d, ring)
    return table


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

    def basis(self, r=None):
        """Plane keys (i=c, mask) of the embedded copy inside the i >= 0
        quotient; position (c, m - g + c).  With r, only the masks of the
        representative type-r weight block (cfk.block_masks)."""
        out = []
        if self.d is None or self.d < 0:
            return out
        g = self.genus
        for m in range(0, self.d + 1):
            masks = blades_of_grade(g, m) if r is None else block_masks(g, r, m)
            for c in range(0, self.d - m + 1):
                for mask in masks:
                    out.append((c, mask))
        return out

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


def chain_matrix(g, kk, degrees, r=None):
    """SliceMap of F = v + h over the listed source degrees of one residue
    class mod 2|k|, or of its representative type-r weight block when r is
    given; h drops the antidiagonal by 2|k|, so rows span the corner slices
    of the source degrees and one step below.  Both sides are unions of
    slices in ascending degree.  Ticks once per column."""
    degrees = sorted(degrees)
    src = UnionBasis([slice_basis(g, B_PLUS, d, r) for d in degrees])
    tgt = UnionBasis([slice_basis(g, corner(-kk), d, r)
                      for d in sorted(set(degrees) | {d - 2 * kk for d in degrees})])
    return SliceMap(_accumulate(g, "F", -kk, src, tgt), src, tgt, "F", -kk)


# Every map the nontorsion sector iterates is linear and acts term by term on
# (i, mask), so each is stored as its images of single terms, built once per
# term: the phi step pr_{i>=0} U^|k| pr_{j>=0} J, F = v + h into the corner
# j >= -|k|, and the truncated action of one class.  _apply sums them over
# plain {(i, mask): coeff} dicts.

class _Images(dict):
    """{(i, mask): image of that single term}, an image being a tuple of
    ((i', mask'), coeff); each built by build(i, mask) on first use."""

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
def _nontorsion_images(g, kk):
    """(phi step, F) term images for genus g and |k| = kk: the cfk._op_terms
    of h and of F at s = -|k|, kept in the corner {i >= 0, j >= -|k|}.  For
    the phi step that is pr_{i>=0} U^|k| pr_{j>=0} J, since U^|k| carries
    j >= 0 onto j >= -|k|."""
    def images(op):
        def build(i, mask):
            return tuple(((i2, m2), w) for di, m2, w in _op_terms(g, op, -kk, mask)
                         if (i2 := i + di) >= 0 and i2 + blade_grade(m2) - g >= -kk)
        return _Images(build)
    return images("h"), images("F")


@lru_cache(maxsize=None)
def _gamma_images(gamma_star_index):
    """Term images of the truncated action of one class; its bit rules
    (cfk._gamma_terms) do not depend on the genus."""
    return _Images(partial(_gamma_terms, gamma_star_index))


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
    kernel rank is the sum over r of block_multiplicity(g, r) times the
    kernel rank of the representative type-r block of the chain matrix.
    """
    if k == 0:
        raise DomainError("k = 0 is the torsion sector; use hf_plus_torsion")
    kk = abs(k)
    if kk >= g:
        model = XModel(g, -1)
        table = FloerTable(g, k, ZZ, "nontorsion")
        table.metadata["vanishes"] = True
        return table, model
    d = g - 1 - kk
    model = XModel(g, d)
    dims = model.dims()
    table = FloerTable(g, k, ZZ, "nontorsion")
    per_degree = {}
    for res in range(2 * kk):
        degs = [n for n in range(-g, model.max_degree() + 1)
                if (n - res) % (2 * kk) == 0]
        prev = 0
        for top_idx, top in enumerate(degs):
            prefix = tuple(degs[:top_idx + 1])

            def block_kernel(r):
                m = _chain_cached(g, kk, prefix, r).matrix
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
def _chain_cached(g, kk, degrees, r=None):
    return chain_matrix(g, kk, list(degrees), r)


def phi_image_rank(g, kk):
    """Rank over Q of the phi image of every basis element of the model.

    phi is built from J, U and region projections, so it preserves the
    weight vector and commutes with the signed pair permutations: the rank
    is the sum over r of block_multiplicity(g, r) times the rank of the
    images of the model elements in the representative type-r block."""
    model = XModel(g, g - 1 - kk)
    fmap = _nontorsion_images(g, kk)[1]

    def block_image(r):
        keys = {}
        cols = []
        for key in model.basis(r):
            ph = phi_series(GradedElement(g, {key: 1}), kk).terms
            if _apply(fmap, ph):
                raise AssertionError("phi image escaped the kernel")
            cols.append({keys.setdefault(t, len(keys)): v for t, v in ph.items()})
        return GroupPresentation(_span_rank(cols, len(keys), QQ))
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
    return rank(_accumulate(g, "F", -kk, src, tgt), QQ) == tgt.size


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


def h1_action(g, k, gamma_star_index, xi):
    """Action of the homology class dual to e_{gamma_star_index} on a
    homogeneous model element xi (a plane GradedElement supported in the
    embedded triangle, or a single (c, mask) pair).

    Returns (standard part, corrections): the standard part is the interior
    product plus Poincare-dual wedge with the U-shift, and each correction is
    homogeneous of degree n - 1 - 2*ell*|k| pinned to a single lattice cell.
    """
    kk, xi, n = _model_element(g, k, xi)
    std, corrections = _act(g, kk, gamma_star_index, xi, n, phi_series(xi, kk).terms)
    return GradedElement(g, std), corrections


def h1_corrections(g, k, xi):
    """Yield (gamma, corrections of h1_action(g, k, gamma, xi)) for
    gamma = 1..2g, from one phi series of xi."""
    kk, xi, n = _model_element(g, k, xi)
    ph = phi_series(xi, kk).terms
    for gamma in range(1, 2 * g + 1):
        yield gamma, _act(g, kk, gamma, xi, n, ph)[1]


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
    """The body of h1_action, given the degree n and phi series terms ph of
    xi: (standard part as a term dict, corrections)."""
    gamma = _gamma_images(gamma_star_index)
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


# ---------------------------------------------------------------------------
# U-action on the reduced part
# ---------------------------------------------------------------------------

def unexpected_u_kernel_dim(g):
    """Count of non-primitive star-self-dual middle-degree classes:
    2^(g-1) - C(2g,g)/2 + C(2g,g-2); the U-kernel of the reduced part one
    step above its middle degree."""
    return 2 ** (g - 1) - comb(2 * g, g) // 2 + comb(2 * g, g - 2)


def _quotient_map_dims(T, v1_cols, w1_cols, w2_cols):
    """For T: V1 -> V2 with subspaces W1, W2 (T W1 <= W2), all spanned by
    integer columns: dimensions over Q of V1/W1, of the kernel and of the
    image of the induced quotient map."""
    rw1 = _span_rank(w1_cols, T.cols, QQ)
    rw2 = _span_rank(w2_cols, T.rows, QQ)
    dim_v1 = _span_rank(v1_cols, T.cols, QQ)
    r_all = _span_rank(T.mul_columns(v1_cols) + w2_cols, T.rows, QQ)
    dim_red = dim_v1 - rw1
    ker = dim_v1 + rw2 - r_all - rw1
    img = r_all - rw2
    return dim_red, ker, img


def u_action_red(g, window=None):
    """The U endomorphism of the reduced plus flavor, degree by degree,
    summed over the weight blocks like the reduced part itself.

    Reports, for each half-integer degree delta in the window: the reduced
    dimension, the kernel dimension of U: red_delta -> red_(delta-2), and
    whether the map is onto/injective.  Checks bundled in the report:
      (1) U is onto red_(delta-2) for every in-support delta <= -1/2;
      (2) U is injective for delta > 3/2;
      (3) the kernel in degree 1/2 has dimension
          2^(g-1) - C(2g,g)/2 + C(2g,g-2), matching the count of
          non-primitive star-self-dual middle classes.
    """
    if g < 3:
        return {"genus": g, "per_degree": {}, "checks": {}, "empty": True}
    if window is None:
        window = (-g, g - 1)

    @lru_cache(maxsize=None)
    def kdata(d, r):
        hi = _stable_hi(g, d)
        steps = (hi - d) // 2
        un = u_chain_map(g, B_PLUS, hi, steps, r=r).matrix
        return _kernel_cols(g, d, r), un.mul_columns(_kernel_cols(g, hi, r))

    @lru_cache(maxsize=None)
    def cdata(d1, r):
        hi1 = _stable_hi(g, d1)
        steps = (hi1 - d1) // 2
        f1 = slice_map(g, "F", d1, r=r).matrix
        un1 = u_chain_map(g, corner(0), hi1, steps, r=r).matrix
        v = [{i: 1} for i in range(f1.rows)]
        return v, f1.col_dicts() + un1.col_dicts()

    per_degree = {}
    for d in range(window[0], window[1] + 1):
        row = {"dim": 0, "ker": 0, "img": 0}
        for r in range(g + 1):
            klo, w1k = kdata(d, r)
            _, w2k = kdata(d - 2, r)
            u_b = u_slice_map(g, B_PLUS, d, r=r).matrix
            vc, w1c = cdata(d + 1, r)
            _, w2c = cdata(d - 1, r)
            u_c = u_slice_map(g, corner(0), d + 1, r=r).matrix
            for key, k, c in zip(row, _quotient_map_dims(u_b, klo, w1k, w2k),
                                 _quotient_map_dims(u_c, vc, w1c, w2c)):
                row[key] += block_multiplicity(g, r) * (k + c)
        per_degree[half(d)] = row
    checks = {}
    for delta, row in per_degree.items():
        target = per_degree.get(delta - 2)
        row["surjective"] = target is None or row["img"] == target["dim"]
        row["injective"] = row["ker"] == 0
    support = [delta for delta, row in per_degree.items() if row["dim"]]
    checks["surjective_at_and_below_middle"] = all(
        per_degree[delta]["surjective"]
        for delta in support if delta <= Fraction(-1, 2))
    checks["injective_above"] = all(
        per_degree[delta]["injective"]
        for delta in per_degree if delta > Fraction(3, 2))
    formula = unexpected_u_kernel_dim(g)
    got = per_degree.get(Fraction(1, 2), {"ker": 0})["ker"]
    checks["unexpected_kernel_formula"] = formula
    checks["unexpected_kernel_computed"] = got
    checks["unexpected_kernel_matches"] = (got == formula)
    return {"genus": g,
            "per_degree": {_deg_str(k): v for k, v in sorted(per_degree.items())},
            "checks": checks}


# ---------------------------------------------------------------------------
# circle-bundle cohomology cross-checks
# ---------------------------------------------------------------------------

def eg_cohomology(g, ring=ZZ):
    """Cohomology of the circle bundle over the Jacobian torus with Euler
    class the intersection form, via its Gysin sequence: degree j gives
    Ker(wedge: j-1 -> j+1) (+) Coker(wedge: j-2 -> j).  Wedging with omega
    adds complete pairs, so it keeps the weight vector and commutes with
    the signed pair permutations (cfk module docstring): the groups are
    summed over the weight blocks, each wedge block entering through one
    Smith form shared by degrees j and j-1, every ring and
    contraction_cokernel_comparison."""
    return {j: _cone_group(g, ("omega", j - 1), ("omega", j - 2), ring)
            for j in range(0, 2 * g + 2)}


def eg_rank_prediction(g, j):
    """Rational rank of the bundle cohomology: primitive dimension up to the
    middle, coprimitive above."""
    from .lefschetz import coprimitive_dim, primitive_dim
    if j <= g:
        return primitive_dim(g, j)
    return coprimitive_dim(g, j - 1)


def _one_minus_exp_contraction_matrix(g, parity, r):
    """Matrix of contraction by (1 - exp(-omega)) = sum_{n>=1} (-1)^(n+1) eta_n
    on the even or odd half of the representative type-r weight block.
    Since z_J |_ a = (-1)^|J| (a ^ z_J) for a set J of complete pairs of a
    (exterior module docstring), every entry is -1, at (a ^ z_J, a) for each
    nonempty such J.  Contraction removes complete pairs, so it keeps the
    weight vector."""
    src = [m for p in range(parity, 2 * g + 1, 2) for m in block_masks(g, r, p)]
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
    summed over the weight blocks.  The wedge side reads the Smith forms
    that eg_cohomology takes (_block_data)."""
    out = {}
    for parity in (0, 1):
        def contraction(r):
            return cokernel(_one_minus_exp_contraction_matrix(g, parity, r))

        def wedge_sum(r):
            grp = GroupPresentation()
            for j in range(parity, 2 * g + 1, 2):
                rows, _, factors = _block_data(g, "omega", j - 2, r)
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
    position sign."""
    n = 2 * g + 1
    src = [sum(1 << b for b in bits) for bits in _combinations_sorted(n, s)]
    tgt = [sum(1 << b for b in bits) for bits in _combinations_sorted(n, s - 3)] if s >= 3 else []
    src.sort()
    tgt.sort()
    idx = {m: i for i, m in enumerate(tgt)}
    mat = SparseExactMatrix(len(tgt), len(src))
    tbit = 2 * g
    for c, mask in enumerate(src):
        bits = []
        b = mask
        while b:
            low = b & -b
            bits.append(low.bit_length() - 1)
            b ^= low
        if tbit not in bits:
            continue
        t_pos = bits.index(tbit)  # always the last position
        for a_pos in range(len(bits)):
            for b_pos in range(a_pos + 1, len(bits)):
                if b_pos == t_pos or a_pos == t_pos:
                    continue
                ba, bb = bits[a_pos], bits[b_pos]
                if (ba ^ bb) != 1:
                    continue  # omega vanishes off symplectic partners
                val = 1 if ba % 2 == 0 else -1  # omega(e_a, e_b), a < b
                sign = (-1) ** ((a_pos + 1) + (b_pos + 1) + (t_pos + 1))
                rest = mask & ~((1 << ba) | (1 << bb) | (1 << tbit))
                r = idx[rest]
                mat[r, c] = mat[r, c] + sign * val
    return mat


def _combinations_sorted(n, k):
    from itertools import combinations
    if k < 0:
        return []
    return combinations(range(n), k)


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
