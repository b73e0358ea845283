"""The block core shared by the paper's three subjects: the torsion tables
(engine), the nonzero-Chern-class sector (nontorsion) and the circle bundle
(bundle) sum groups over the torus-weight blocks of their maps, each read
through its integer Smith form.  Only this module knows weight types: a
type-r block at genus g is the weight-zero block at genus g - r (cfk
module docstring), so _block_sum adds C(g, r) * 2^r copies of the latter,
and only weight-zero blocks are built, each at the degree the identity
keeps: the slice degree d for v, h, F, F_hat, one_plus_J and U, grade -
genus for wedging with omega, and its parity for the contraction.

The store is content-addressed.  A block, named by (genus, op, degree), is
built once and remembered by the SHA-256 of its canonical bytes: its shape
and its entries in (row, col) order.  Invariant factors and integer kernel
lattices are kept under that digest, so equal matrices are reduced once per
process, whatever degree, op or genus they come from; the matrices are
not kept.
"""

from fractions import Fraction
from math import comb

from . import sha256
from .cfk import slice_map
from .errors import tick
from .linalg import (GroupPresentation, SparseExactMatrix, cokernel_over,
                     factor_rank, integer_kernel_lattice, rank,
                     smith_normal_form)
from .rings import QQ

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

_BLOCKS = {}   # (genus, op, degree) -> (rows, cols, digest)
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


def smith_form(m):
    """Invariant factors of the integer matrix m, from the store: one Smith
    form per distinct matrix."""
    digest = _digest(m)
    factors = _FACTORS.get(digest)
    if factors is None:
        factors = _FACTORS[digest] = tuple(smith_normal_form(m))
    return factors


def _build(n, op, d):
    """The weight-zero block at genus n of slice map op at degree d, or for
    op "omega" of lefschetz.raising_matrix from grade d + n."""
    if op == "omega":
        from .lefschetz import raising_matrix
        return raising_matrix(n, d + n, block=True)
    return slice_map(n, op, d, block=True).matrix


def _key(n, op, d):
    """(n, op, d) with d moved into -n - 2..n onto an equal block, so that a
    new genus builds only its own blocks: below -n every slice is empty, as
    is F_hat's above n, and from n - 1 on the slices of B_PLUS and of the
    corner hold every cell, so the block at d + 2 is the one at d."""
    if op == "omega":  # 0 x 0 outside -n - 2..n, as at -n - 1 (odd grades)
        return n, op, (d if -n - 2 <= d <= n else -n - 1)
    if d < -n or (op == "F_hat" and d > n):
        return n, op, -n - 1
    return n, op, (n - (d - n) % 2 if d > n else d)


def _stored(table, n, op, d, reduce):
    """(rows, cols, table[digest]) of op's weight-zero block at genus n and
    degree d; a miss fills the table with reduce(the block)."""
    key = _key(n, op, d)
    m = None if key in _BLOCKS else _build(*key)
    if m is not None:
        _BLOCKS[key] = (m.rows, m.cols, _digest(m))
    rows, cols, digest = _BLOCKS[key]
    value = table.get(digest)
    if value is None:
        value = table[digest] = reduce(m or _build(*key))
    return rows, cols, value


def _block_data(n, op, d):
    """(rows, cols, invariant factors) of op's weight-zero block at genus n
    and degree d.  By universal coefficients one Smith form serves every
    ring: the rank over Q is the number of invariant factors, the rank over
    F_p the number prime to p, and the factors are the torsion of the
    cokernel over Z (linalg.factor_rank, cokernel_over)."""
    return _stored(_FACTORS, n, op, d, lambda m: tuple(smith_normal_form(m)))


def _kernel_cols(n, d):
    """Integer kernel lattice of the weight-zero block at genus n of F_d;
    fresh column dicts on every call."""
    _, _, lattice = _stored(_KERNELS, n, "F", d, lambda m: tuple(
        tuple(sorted(c.items())) for c in integer_kernel_lattice(m)))
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

def block_multiplicity(g, r):
    """Number of weight blocks of type r at genus g: C(g, r) * 2^r."""
    return comb(g, r) << r


def _block_sum(g, block_group):
    """Sum over r = 0..g of block_multiplicity(g, r) copies of the group
    block_group(g - r) of every type-r block.  Ticks once per type."""
    free, torsion = 0, []
    for r in range(g + 1):
        tick()
        grp = block_group(g - r)
        mult = block_multiplicity(g, r)
        free += mult * grp.free_rank
        torsion.extend(grp.invariant_factors * mult)
    return GroupPresentation(free, torsion)


def _cone_group(g, ker, cok, ring):
    """Ker(ker) (+) Coker(cok) over the ring, as a presentation, summed over
    the weight blocks; ker and cok are (op, degree) keys of _block_data.
    Each block enters through its integer Smith form alone (universal
    coefficients): its kernel over the ring has rank cols - factor_rank,
    and its cokernel is cokernel_over the ring."""
    def block_group(n):
        _, cols, lo = _block_data(n, *ker)
        rows, _, hi = _block_data(n, *cok)
        cok_n = cokernel_over(rows, hi, ring)
        return GroupPresentation(cols - factor_rank(lo, ring) + cok_n.free_rank,
                                 cok_n.invariant_factors)
    return _block_sum(g, block_group)


def _span_rank(cols, nrows):
    """Rank over Q of the span of integer columns."""
    if not cols:
        return 0
    return rank(SparseExactMatrix.from_columns(nrows, cols), QQ)
