"""Reference routes kept as test oracles.

solve_columns is the exact Q solver the primitive decomposition once ran;
blade_matrix and solved_primitive_decomposition are the Multivector route
to the Lefschetz matrices and the decomposition by solving over a
primitive basis, which lefschetz replaced by pair-inclusion matrices and
the sl_2 closed form.  pairwise_product is the Multivector product through
the per-pair blade rule (wedge_blades, contract_blades), which the products
replaced by one parity mask per outer blade.  h1_action is the action of a
single class, one phi series per class, which nontorsion.h1_corrections
serves for every class from one phi series.  type_r_block is the type-r
weight block cut out of a whole matrix, which the builders replaced by the
weight-zero block at genus g - r.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from hfsigma import nontorsion
from hfsigma.cfk import GradedElement
from hfsigma.errors import DomainError
from hfsigma.exterior import Multivector, blades_of_grade, eta
from hfsigma.lefschetz import op_L, primitive_basis
from hfsigma.linalg import SparseExactMatrix


def solve_columns(basis_columns, rhs_columns, nrows):
    """Solve B y = x over Q for several right-hand sides at once.

    basis_columns is a list of sparse columns with full column rank; returns
    one coordinate dict per rhs, raising if a rhs is outside the span.
    Gauss-Jordan on rows of the augmented system [B | X]; a column -> rows
    index finds the rows holding each basis column, and the pivot is the
    shortest of them.
    """
    k = len(basis_columns)
    rows = {}
    for j, col in enumerate(basis_columns):
        for r, v in col.items():
            rows.setdefault(r, {})[j] = Fraction(v)
    for j, col in enumerate(rhs_columns):
        for r, v in col.items():
            rows.setdefault(r, {})[k + j] = Fraction(v)
    holders = [set() for _ in range(k)]  # basis column -> rows holding it
    for r, rd in rows.items():
        for c in rd:
            if c < k:
                holders[c].add(r)
    pivot_row_of = {}
    used = set()
    for c in range(k):
        free = holders[c] - used
        if not free:
            raise DomainError("basis columns are dependent")
        prow = min(free, key=lambda r: (len(rows[r]), r))
        pivot_row_of[c] = prow
        used.add(prow)
        pd = rows[prow]
        pval = pd[c]
        for r in list(holders[c]):
            if r == prow:
                continue
            rd = rows[r]
            f = rd[c] / pval
            for cc, w in pd.items():
                nv = rd.get(cc, 0) - f * w
                if nv:
                    if cc < k and cc not in rd:
                        holders[cc].add(r)
                    rd[cc] = nv
                elif cc in rd:
                    del rd[cc]
                    if cc < k:
                        holders[cc].discard(r)
    # consistency: rows without pivots must carry no rhs entries
    pivot_rows = set(pivot_row_of.values())
    for r, rd in rows.items():
        if r not in pivot_rows and any(cc >= k and v for cc, v in rd.items()):
            raise DomainError("right-hand side outside the span")
    sols = []
    for j in range(len(rhs_columns)):
        sol = {}
        for c in range(k):
            rd = rows[pivot_row_of[c]]
            v = rd.get(k + j)
            if v:
                sol[c] = v / rd[c]
        sols.append(sol)
    return sols


def blade_matrix(g, op, src, tgt):
    """Integer matrix of a linear map op on multivectors, from the blades in
    src to those in tgt (lists of masks; images lie in the span of tgt)."""
    index = {m: i for i, m in enumerate(tgt)}
    mat = SparseExactMatrix(len(tgt), len(src))
    for c, mask in enumerate(src):
        for m2, v in op(Multivector.from_blade(g, mask)).coeffs.items():
            mat[index[m2], c] = v
    return mat


def solved_primitive_decomposition(a):
    """The omega^k ^ P^(p-2k) components of a nonzero homogeneous a, peeled
    from the largest k down by solving L^k(omega^k ^ b) = L^k(residual) for
    b in the span of primitive_basis over Q."""
    g = a.genus
    p = a.grades()[0]
    k_min = max(0, p - g)
    out = []
    residual = a
    for k in range(p // 2, k_min - 1, -1):
        q = p - 2 * k
        basis = primitive_basis(g, q)
        if not basis:
            continue
        wk = eta(k, g).scale(factorial(k))
        imgs = []
        for b in basis:
            v = wk.wedge(b)
            for _ in range(k):
                v = op_L(v)
            imgs.append(v)
        rhs = residual
        for _ in range(k):
            rhs = op_L(rhs)
        index = {m: i for i, m in enumerate(blades_of_grade(g, q))}
        cols = [{index[m]: v for m, v in im.coeffs.items()} for im in imgs]
        target = {index[m]: v for m, v in rhs.coeffs.items()}
        sol, = solve_columns(cols, [target], len(index))
        comp = Multivector.zero(g)
        for i, coeff in sol.items():
            comp = comp + wk.wedge(basis[i]).scale(coeff)
        if not comp.is_zero():
            out.append((k, comp))
        residual = residual - comp
    assert residual.is_zero()
    return list(reversed(out))


def pairwise_product(rule, a, b):
    """Sum over every pair of blades of rule(blade of a, blade of b), a
    (sign, mask) or None, times the two coefficients."""
    out = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            hit = rule(ma, mb)
            if hit is not None:
                s, m = hit
                out[m] = out.get(m, 0) + s * ca * cb
    return Multivector(a.genus, out)


def h1_action(g, k, gamma_star_index, xi):
    """Action of the homology class dual to e_{gamma_star_index} on a
    homogeneous model element xi (a plane GradedElement supported in the
    embedded triangle, or a single (c, mask) pair): (standard part,
    corrections), from a phi series of xi of its own."""
    kk, xi, n = nontorsion._model_element(g, k, xi)
    std, corrections = nontorsion._act(g, kk, gamma_star_index, xi, n,
                                       nontorsion.phi_series(xi, kk).terms)
    return GradedElement(g, std), corrections


@lru_cache(maxsize=None)
def weight(g, mask):
    """Weight vector of a blade: bit(2i) - bit(2i+1) for each pair i."""
    return tuple((mask >> (2 * i) & 1) - (mask >> (2 * i + 1) & 1) for i in range(g))


def type_r_positions(g, r, masks):
    """Positions, in order, of the masks of weight (1^r, 0^(g-r))."""
    want = (1,) * r + (0,) * (g - r)
    return [k for k, mask in enumerate(masks) if weight(g, mask) == want]


def type_r_block(g, r, m, row_masks, col_masks):
    """The type-r block of the whole genus-g matrix m: its rows and columns
    whose blades (row_masks, col_masks) have weight (1^r, 0^(g-r)), with the
    entries in m's order."""
    rows = {k: n for n, k in enumerate(type_r_positions(g, r, row_masks))}
    cols = {k: n for n, k in enumerate(type_r_positions(g, r, col_masks))}
    return SparseExactMatrix.from_int_entries(len(rows), len(cols), {
        (rows[a], cols[b]): v for (a, b), v in m.entries.items()
        if a in rows and b in cols})


def type_r_keys(g, r, keys):
    """The (i, mask) keys of weight (1^r, 0^(g-r)), in order, with the r
    pairs that hold one vector dropped: keys of genus g - r."""
    masks = [mask for _, mask in keys]
    return [(keys[k][0], keys[k][1] >> 2 * r) for k in type_r_positions(g, r, masks)]
