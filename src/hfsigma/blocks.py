"""The block core shared by the paper's three subjects: the torsion tables
(engine), the nonzero-Chern-class sector (nontorsion) and the circle bundle
(bundle) all sum groups over the torus-weight blocks of their maps (cfk
module docstring) and read each block through its integer Smith form.

The store is content-addressed.  A block, named by (g, op, d, r), is built
once and remembered by the SHA-256 of its canonical bytes: its shape and
its entries in (row, col) order.  Invariant factors and integer kernel
lattices are kept under that digest, so equal matrices are reduced once per
process, whatever degree, op or genus they come from: every type-r block at
genus g equals, entry for entry, the type-0 block of the same op and degree
at genus g - r.  The matrices themselves are not kept.
"""

from fractions import Fraction

from . import sha256
from .cfk import block_multiplicity, slice_map
from .errors import tick
from .linalg import (GroupPresentation, SparseExactMatrix, cokernel_over,
                     factor_rank, integer_kernel_lattice, rank,
                     smith_normal_form)

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


# ---------------------------------------------------------------------------
# the content-addressed store
# ---------------------------------------------------------------------------

_BLOCKS = {}   # (g, op, d, r) -> (rows, cols, digest)
_FACTORS = {}  # digest -> invariant factors
_KERNELS = {}  # digest -> integer kernel lattice, as sorted column items


def _digest(m):
    """SHA-256 of the matrix's canonical bytes: its shape, then its entries
    in (row, col) order, as the list of their positions row * cols + col
    and the list of their values."""
    cols = m.cols
    flat = {r * cols + c: v for (r, c), v in m.entries.items()}
    keys = sorted(flat)
    blob = "%d %d %r %r" % (m.rows, cols, keys, [flat[k] for k in keys])
    return sha256(blob.encode()).digest()


def smith_form(m, digest=None):
    """Invariant factors of the integer matrix m, from the store: one Smith
    form per distinct matrix."""
    if digest is None:
        digest = _digest(m)
    factors = _FACTORS.get(digest)
    if factors is None:
        factors = _FACTORS[digest] = tuple(smith_normal_form(m))
    return factors


def _build(g, op, d, r):
    """The representative type-r block of slice map op at degree d (op
    "omega": lefschetz.raising_matrix from grade d)."""
    if op == "omega":
        from .lefschetz import raising_matrix
        return raising_matrix(g, d, r=r)
    return slice_map(g, op, d, r=r).matrix


def _block(g, op, d, r):
    """((rows, cols, digest), the matrix or None) of a block: the matrix
    only when this call built it."""
    key = (g, op, d, r)
    entry = _BLOCKS.get(key)
    if entry is not None:
        return entry, None
    m = _build(g, op, d, r)
    entry = _BLOCKS[key] = (m.rows, m.cols, _digest(m))
    return entry, m


def _block_data(g, op, d, r):
    """(rows, cols, invariant factors) of the representative type-r block
    of slice map op at degree d, from the store.  By universal coefficients
    one Smith form serves every ring: the rank over Q is the number of
    invariant factors, the rank over F_p the number prime to p, and the
    factors are the torsion of the cokernel over Z (linalg.factor_rank,
    cokernel_over)."""
    (rows, cols, digest), m = _block(g, op, d, r)
    factors = _FACTORS.get(digest)
    if factors is None:
        factors = smith_form(m or _build(g, op, d, r), digest)
    return rows, cols, factors


def _kernel_cols(g, d, r):
    """Integer kernel lattice of the representative type-r block of F_d,
    from the store; fresh column dicts on every call."""
    (_, _, digest), m = _block(g, "F", d, r)
    lattice = _KERNELS.get(digest)
    if lattice is None:
        cols = integer_kernel_lattice(m or _build(g, "F", d, r))
        lattice = _KERNELS[digest] = tuple(tuple(sorted(c.items())) for c in cols)
    return [dict(items) for items in lattice]


def release_store(kernels_only=False):
    """Empty the kernel lattices, and unless kernels_only also the block
    digests and invariant factors."""
    _KERNELS.clear()
    if not kernels_only:
        _BLOCKS.clear()
        _FACTORS.clear()


# ---------------------------------------------------------------------------
# sums over the weight blocks
# ---------------------------------------------------------------------------

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


def _span_rank(cols, nrows, ring):
    """Rank over the ring of the span of integer columns."""
    if not cols:
        return 0
    return rank(SparseExactMatrix.from_columns(nrows, cols), ring)
