"""Sparse exact linear algebra on integer matrices, read over Z, Q and F_p.

Every matrix holds Python ints; a ring is named only where it is read.
Two eliminators serve every ring, and neither rescans the matrix for a
pivot:

* the Smith normal form gives invariant factors.  A sparse phase pivots on
  +-1 entries, taken from a lazy min-heap of (row length, row) that pushes
  again only the rows a pivot touched (an entry whose length no longer
  matches its row is stale and skipped); general gcd pivoting finishes the
  residual block, and the factors are normalized into a divisibility chain
  over a coprime base of the distinct moduli;
* one sparse column echelon gives every rank and kernel: over Z by Euclid
  (ranks over Z and Q, the integer kernel lattice, Q kernels with int
  entries) or over F_p with each entry reduced on load.  A row -> columns
  index lists the columns a pivot row is cleared from.  No Fraction
  arises.

The Smith form of an integer matrix serves every coefficient ring by
universal coefficients: its rank over Q is the number of invariant factors,
its rank over F_p the number prime to p, and its cokernel over a field is
free of rows minus that rank (factor_rank, cokernel_over).
"""

import heapq
from collections import Counter
from fractions import Fraction
from math import gcd

from .errors import DomainError, UnsupportedOperation, tick
from .rings import ZZ, group_notation, parse_ring


class GroupPresentation:
    """Finitely generated abelian group: free rank plus invariant factors.

    Factors form a divisibility chain d_1 | d_2 | ..., each >= 2; factors
    equal to 1 are never stored.
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank=0, invariant_factors=()):
        factors = [int(d) for d in invariant_factors if int(d) not in (0, 1)]
        factors = normalize_divisibility_chain(factors)
        self.free_rank = int(free_rank)
        self.invariant_factors = tuple(f for f in factors if f != 1)

    def __eq__(self, other):
        return (isinstance(other, GroupPresentation)
                and self.free_rank == other.free_rank
                and self.invariant_factors == other.invariant_factors)

    def __hash__(self):
        return hash((self.free_rank, self.invariant_factors))

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def is_free(self):
        return not self.invariant_factors

    def direct_sum(self, other):
        return GroupPresentation(self.free_rank + other.free_rank,
                                 list(self.invariant_factors) + list(other.invariant_factors))

    def torsion_order(self):
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __str__(self):
        return group_notation(self.free_rank, self.invariant_factors)

    def __repr__(self):
        return f"GroupPresentation({self.free_rank}, {list(self.invariant_factors)})"

    def to_json(self):
        return {"free_rank": self.free_rank,
                "invariant_factors": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, data):
        return cls(data["free_rank"], data["invariant_factors"])


def _coprime_base(values):
    """Pairwise coprime integers > 1 such that every value is a product of
    their powers (factor refinement: split any two that share a gcd)."""
    base = []
    todo = [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for k, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[k]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def normalize_divisibility_chain(factors):
    """Rewrite a multiset of nonzero moduli as a divisibility chain.

    Over a coprime base of the moduli, Z/m splits into its parts Z/b^e
    (Chinese remainder theorem), so the k-th largest invariant factor is the
    product over the base of b to its k-th largest exponent.  The cost is
    linear in the number of moduli for a fixed set of distinct values.
    Factors equal to 1 are kept: the chain length equals the input length.
    """
    fs = [abs(f) for f in factors]
    if 0 in fs:
        raise DomainError("divisibility chain wants nonzero factors")
    counts = Counter(f for f in fs if f != 1)
    exponents = []
    for b in _coprime_base(counts):
        es = []
        for v, n in counts.items():
            e = 0
            while v % b == 0:
                v //= b
                e += 1
            if e:
                es += [e] * n
        es.sort(reverse=True)
        exponents.append((b, es))
    chain = [1] * max((len(es) for _, es in exponents), default=0)
    for b, es in exponents:
        for k, e in enumerate(es):
            chain[k] *= b ** e
    return [1] * (len(fs) - len(chain)) + chain[::-1]


def _is_count(n):
    """An int >= 0, and not a bool (nor a float that equals an int)."""
    return type(n) is int and n >= 0


class SparseExactMatrix:
    """Sparse integer matrix; rank, kernels and to_json take the ring."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = v

    def __setitem__(self, key, v):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise DomainError(f"entry ({r},{c}) out of range")
        v = ZZ.coerce(v)
        if v == 0:
            self.entries.pop((r, c), None)
        else:
            self.entries[(r, c)] = v

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def nnz(self):
        return len(self.entries)

    def col_dicts(self):
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def mul_columns(self, vectors):
        """Matrix times each sparse column {index: value}, as a list."""
        cols = self.col_dicts()
        out = []
        for vec in vectors:
            acc = {}
            for c, x in vec.items():
                if x == 0:
                    continue
                for r, v in cols[c].items():
                    acc[r] = acc.get(r, 0) + v * x
            out.append({r: v for r, v in acc.items() if v != 0})
        return out

    @classmethod
    def from_columns(cls, rows, columns):
        coerce = ZZ.coerce
        return cls.from_int_entries(rows, len(columns), {
            (r, c): x for c, col in enumerate(columns)
            for r, v in col.items() if (x := coerce(v))})

    @classmethod
    def from_int_entries(cls, rows, cols, entries):
        """Adopt a dict of nonzero int entries without a copy."""
        m = cls(rows, cols)
        m.entries = entries
        return m

    @classmethod
    def hstack(cls, a, b):
        if a.rows != b.rows:
            raise DomainError("hstack wants equal row counts")
        entries = dict(a.entries)
        entries.update(((r, a.cols + c), v) for (r, c), v in b.entries.items())
        return cls.from_int_entries(a.rows, a.cols + b.cols, entries)

    @classmethod
    def vstack(cls, a, b):
        if a.cols != b.cols:
            raise DomainError("vstack wants equal column counts")
        entries = dict(a.entries)
        entries.update(((a.rows + r, c), v) for (r, c), v in b.entries.items())
        return cls.from_int_entries(a.rows + b.rows, a.cols, entries)

    def to_json(self, ring=ZZ):
        """The matrix read over the ring: the ring's tag, and the entries
        coerced into it, zeros dropped, in (row, col) order."""
        coerce = ring.coerce
        ents = sorted((r, c, x) for (r, c), v in self.entries.items() if (x := coerce(v)))
        return {"rows": self.rows, "cols": self.cols, "ring": ring.tag,
                "entries": [[r, c, str(x)] for r, c, x in ents]}

    @classmethod
    def from_json(cls, data):
        """Inverse of to_json(); another ring or a bad shape is a DomainError."""
        if parse_ring(data["ring"]) != ZZ:
            raise DomainError(f"wanted an integer matrix, got one over {data['ring']}")
        rows, cols = data["rows"], data["cols"]
        if not (_is_count(rows) and _is_count(cols)):
            raise DomainError(f"matrix shape {rows!r} x {cols!r}: not two counts")
        m = cls(rows, cols)
        for r, c, s in data["entries"]:
            if not (_is_count(r) and _is_count(c)):
                raise DomainError(f"entry position {r!r}, {c!r}: not two counts")
            val = Fraction(s) if "/" in s else int(s)
            m[r, c] = m[r, c] + val
        return m

    def __eq__(self, other):
        return (isinstance(other, SparseExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"<{self.rows}x{self.cols} integer matrix, {self.nnz()} nnz>"


# ---------------------------------------------------------------------------
# the column echelon: ranks and kernels over Z, Q and F_p
# ---------------------------------------------------------------------------

def _echelon(m, p=None, want_kernel=False):
    """Column echelon of an integer matrix over Z (p None) or over F_p.

    Returns (rank, kernel columns).  Rows are taken by increasing fill, ties
    by index; the live columns holding a row, its carriers, are reduced
    against one of them until one is left, the pivot: over Z by Euclid
    (quotient b // a) against the least |entry| there, over F_p, whose
    entries are reduced on load and all units, in one pass (quotient
    b * a^-1 mod p) against the column of least fill.  A row -> live
    columns index lists the carriers.  With want_kernel the columns carry
    the identity block below m; the column operations are unimodular, so
    the blocks of the non-pivot columns are a basis of the kernel, saturated
    over Z.  Ticks once per pivot row and per pass of its carrier loop.
    """
    ncols = m.cols
    top = [dict() for _ in range(ncols)]    # column -> {row: val} in m
    for (r, c), v in m.entries.items():
        if p is not None:
            v %= p
            if not v:
                continue
        top[c][r] = v
    bot = [{c: 1} for c in range(ncols)] if want_kernel else None
    index = {}  # row -> live columns whose top block holds it
    for c in range(ncols):
        for r in top[c]:
            index.setdefault(r, set()).add(c)
    pivot = [False] * ncols
    for prow in sorted(index, key=lambda r: (len(index[r]), r)):
        carriers = sorted(index[prow])
        if not carriers:
            continue
        tick()
        while len(carriers) > 1:
            tick()
            carriers.sort(key=(lambda c: abs(top[c][prow])) if p is None
                          else (lambda c: len(top[c])))
            c0 = carriers[0]
            a = top[c0][prow]
            ia = None if p is None else pow(a, -1, p)
            nxt = []
            for c in carriers[1:]:
                b = top[c][prow]
                q = b // a if p is None else b * ia % p
                if q:
                    tc = top[c]
                    for r, v in top[c0].items():
                        nv = tc.get(r, 0) - q * v
                        if p is not None:
                            nv %= p
                        if nv:
                            if r not in tc:
                                index[r].add(c)
                            tc[r] = nv
                        elif r in tc:
                            del tc[r]
                            index[r].discard(c)
                    if want_kernel:
                        bc = bot[c]
                        for r, v in bot[c0].items():
                            nv = bc.get(r, 0) - q * v
                            if p is not None:
                                nv %= p
                            if nv:
                                bc[r] = nv
                            else:
                                bc.pop(r, None)
                if prow in top[c]:
                    nxt.append(c)
            carriers = [c0] + nxt
        c0 = carriers[0]
        pivot[c0] = True
        for r in top[c0]:
            index[r].discard(c0)
    if any(top[c] for c in range(ncols) if not pivot[c]):
        raise AssertionError("non-pivot column not fully eliminated")
    kernel = [bot[c] for c in range(ncols) if not pivot[c]] if want_kernel else []
    return sum(pivot), kernel


def rank(m, ring):
    """Exact rank of the integer matrix m over the ring: the rank of its
    integer echelon over Z and Q, of its echelon mod p over F_p."""
    return _echelon(m, ring.p)[0]


def kernel_rank(m, ring):
    return m.cols - rank(m, ring)


def kernel_basis(m, ring):
    """Kernel basis over a field, as a list of sparse int columns: over Q
    the saturated integer lattice (integer_kernel_lattice), over F_p the
    kernel of the echelon mod p.

    Over Z this is deliberately not provided here; the engine works with
    integer kernel lattices via integer_kernel_lattice.
    """
    if not ring.is_field:
        raise UnsupportedOperation("kernel_basis is only provided over fields; "
                                   "Z matrices expose kernel_rank only")
    return _echelon(m, ring.p, want_kernel=True)[1]


def integer_kernel_lattice(m):
    """Z-basis of the kernel lattice {x : m x = 0}, as sparse columns: the
    non-pivot columns of the integer echelon of m stacked over the
    identity."""
    return _echelon(m, want_kernel=True)[1]


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

def smith_normal_form(m):
    """Invariant factors of an integer matrix (nonzero diagonal of the SNF).

    Sparse phase: eliminate on +-1 pivots, which keeps everything integral
    and unimodular.  A lazy heap of rows keyed by length yields the shortest
    row holding a unit; its unit in the shortest column is the pivot.  Only
    rows a pivot touched are pushed again.  Residual phase: general gcd
    pivoting until diagonal, then chain normalization.  Ticks once per unit
    pivot, per pass of a gcd pivot's shrinking loop and per line it clears.
    """
    rows = {}
    cols = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, {})[r] = v
    factors = []

    def remove(r, c):
        rows[r].pop(c, None)
        cols[c].pop(r, None)
        if not rows[r]:
            del rows[r]
        if not cols[c]:
            del cols[c]

    def put(r, c, v):
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
        else:
            if r in rows and c in rows[r]:
                remove(r, c)

    def add_row(dst, src, factor):
        # row_dst += factor * row_src
        for c, v in list(rows.get(src, {}).items()):
            put(dst, c, rows.get(dst, {}).get(c, 0) + factor * v)

    def add_col(dst, src, factor):
        for r, v in list(cols.get(src, {}).items()):
            put(r, dst, rows.get(r, {}).get(dst, 0) + factor * v)

    # --- phase 1: unit pivots from the shortest rows first
    heap = [(len(rd), r) for r, rd in rows.items()]
    heapq.heapify(heap)
    while heap:
        length, pr = heapq.heappop(heap)
        rd = rows.get(pr)
        if rd is None or len(rd) != length:
            continue  # stale entry
        units = [c for c, v in rd.items() if v == 1 or v == -1]
        if not units:
            continue  # pushed again once a pivot changes the row
        tick()
        pc = min(units, key=lambda c: len(cols[c]))
        pv = rd[pc]
        touched = [r for r in cols[pc] if r != pr]
        for r in touched:
            add_row(r, pr, -cols[pc][r] * pv)  # pv is +-1, its own inverse
        for c in list(rows[pr].keys()):
            if c == pc:
                continue
            add_col(c, pc, -rows[pr][c] * pv)
        remove(pr, pc)
        factors.append(1)
        for r in touched:
            if r in rows:
                heapq.heappush(heap, (len(rows[r]), r))

    # --- phase 2: gcd pivoting on the residual
    while rows:
        # least |v|, then least row + column length, first in iteration order
        a = min(min(map(abs, rd.values())) for rd in rows.values())
        pr, pc = min(((r, c) for r, rd in rows.items() for c, v in rd.items()
                      if v == a or v == -a),
                     key=lambda t: len(rows[t[0]]) + len(cols[t[1]]))
        # shrink the pivot until it divides its whole row and column
        while True:
            tick()
            pv = rows[pr][pc]
            off = None
            for r, v in cols[pc].items():
                if r != pr and v % pv:
                    off = ("row", r, v)
                    break
            if off is None:
                for c, v in rows[pr].items():
                    if c != pc and v % pv:
                        off = ("col", c, v)
                        break
            if off is None:
                break
            kind, idx, v = off
            q = v // pv
            if kind == "row":
                add_row(idx, pr, -q)
                if abs(rows.get(idx, {}).get(pc, 0)) < abs(pv) and rows.get(idx, {}).get(pc, 0):
                    pr = idx
            else:
                add_col(idx, pc, -q)
                if abs(rows.get(pr, {}).get(idx, 0)) < abs(pv) and rows.get(pr, {}).get(idx, 0):
                    pc = idx
        pv = rows[pr][pc]
        for r in list(cols[pc].keys()):
            if r != pr:
                tick()
                add_row(r, pr, -cols[pc][r] // pv)
        for c in list(rows[pr].keys()):
            if c != pc:
                tick()
                add_col(c, pc, -rows[pr][c] // pv)
        remove(pr, pc)
        factors.append(abs(pv))

    return normalize_divisibility_chain(factors)


def factor_rank(factors, ring):
    """Rank over the ring of an integer matrix with these invariant factors:
    all of them over Z and Q, those prime to p over F_p."""
    p = ring.p
    return len(factors) if p is None else sum(1 for f in factors if f % p)


def cokernel_over(rows, factors, ring):
    """Cokernel over the ring of an integer matrix with this many rows and
    these invariant factors: R^rows / image, with the factors as torsion
    over Z and free over a field."""
    return GroupPresentation(rows - factor_rank(factors, ring),
                             factors if ring == ZZ else ())


def cokernel(m):
    """Presentation of Z^rows / column span of m."""
    return cokernel_over(m.rows, smith_normal_form(m), ZZ)


def lattice_quotient(lattice_rank, generators, rows, snf=smith_normal_form):
    """Presentation of L / S, for a saturated lattice L in Z^rows of the given
    rank and the subgroup S spanned by the generators (sparse columns).

    Precondition: every generator lies in L; for a kernel lattice, the
    caller checks that the map kills them.  Since L is saturated, Z^rows / L
    is free, so 0 -> L/S -> Z^rows/S -> Z^rows/L -> 0 splits: L/S has the
    torsion of Z^rows / S and free rank lattice_rank - rank S, both read
    off one Smith form of the generators, taken by snf (a memoizing one may
    stand in for smith_normal_form).  No basis of L is needed.
    """
    factors = snf(SparseExactMatrix.from_columns(rows, generators))
    if len(factors) > lattice_rank:
        raise DomainError("the generators span more than the lattice")
    return GroupPresentation(lattice_rank - len(factors), factors)
