import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hfsigma.errors import BudgetExceeded, Deadline, DomainError, UnsupportedOperation
from hfsigma.linalg import (GroupPresentation, SparseExactMatrix, cokernel,
                            integer_kernel_lattice, kernel_basis, kernel_rank,
                            lattice_quotient, normalize_divisibility_chain,
                            rank, smith_normal_form)
from hfsigma.rings import GF, QQ, ZZ
from oracles import solve_columns


def random_mat(rng, r, c, lo=-4, hi=4, density=0.6):
    m = SparseExactMatrix(r, c)
    for i in range(r):
        for j in range(c):
            if rng.random() < density:
                m[i, j] = rng.randint(lo, hi)
    return m


def unimod_shuffle(rng, m, steps=25):
    m = SparseExactMatrix(m.rows, m.cols, m.entries)
    for _ in range(steps):
        if rng.random() < 0.5 and m.rows > 1:
            i, j = rng.randrange(m.rows), rng.randrange(m.rows)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            for c in range(m.cols):
                m[i, c] = m[i, c] + q * m[j, c]
        elif m.cols > 1:
            i, j = rng.randrange(m.cols), rng.randrange(m.cols)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            for r in range(m.rows):
                m[r, i] = m[r, i] + q * m[r, j]
    return m


# Property tests run a fixed, derandomized set of examples so tier-1 stays
# reproducible; the dense oracles below share no code with linalg.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def int_matrices(draw, max_rows=6, max_cols=6, min_rows=1):
    r = draw(st.integers(min_rows, max_rows))
    c = draw(st.integers(1, max_cols))
    vals = draw(st.lists(st.one_of(st.just(0), st.integers(-4, 4)),
                         min_size=r * c, max_size=r * c))
    return SparseExactMatrix(r, c, {(i, j): vals[i * c + j]
                                    for i in range(r) for j in range(c)})


def integral(col):
    """The column times the lcm of its denominators: an integer column on
    the same line over Q."""
    den = lcm(*(Fraction(v).denominator for v in col.values()))
    return {r: int(v * den) for r, v in col.items()}


def dense_rows(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def dense_rank(m, p=None):
    """Row reduction over Q (Fractions) or F_p, on a dense copy."""
    if p is None:
        rows = [[Fraction(x) for x in row] for row in dense_rows(m)]
    else:
        rows = [[int(x) % p for x in row] for row in dense_rows(m)]
    rk = 0
    for col in range(m.cols):
        piv = next((r for r in range(rk, m.rows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for r in range(m.rows):
            if r != rk and rows[r][col]:
                f = (rows[r][col] / rows[rk][col] if p is None
                     else rows[r][col] * pow(rows[rk][col], -1, p) % p)
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rk])]
                if p is not None:
                    rows[r] = [a % p for a in rows[r]]
        rk += 1
    return rk


def det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def determinantal_divisor(m, k):
    """gcd of all k x k minors of m."""
    rows = dense_rows(m)
    d = 0
    for ri in combinations(range(m.rows), k):
        for ci in combinations(range(m.cols), k):
            d = gcd(d, det([[rows[i][j] for j in ci] for i in ri]))
    return d


def brute_snf_2x2(a, b, c, d):
    # independent oracle for 2x2: d1 = gcd of entries, d1*d2 = |det|
    from math import gcd
    d1 = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
    det = abs(a * d - b * c)
    if d1 == 0:
        return []
    if det == 0:
        return [d1]
    return [d1, det // d1]


def test_snf_examples():
    m = SparseExactMatrix(3, 3, {(i, i): 1 for i in range(3)})
    assert smith_normal_form(m) == [1, 1, 1]
    assert smith_normal_form(SparseExactMatrix(2, 3)) == []
    assert cokernel(SparseExactMatrix(2, 3)) == GroupPresentation(2)
    m = SparseExactMatrix(2, 2, {(0, 0): 2, (1, 1): 3})
    assert smith_normal_form(m) == brute_snf_2x2(2, 0, 0, 3) == [1, 6]
    m = SparseExactMatrix(1, 1, {(0, 0): 2})
    assert cokernel(m) == GroupPresentation(0, [2])


def test_snf_2x2_against_oracle():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        m = SparseExactMatrix(2, 2, {(0, 0): a, (0, 1): b, (1, 0): c, (1, 1): d})
        assert smith_normal_form(m) == brute_snf_2x2(a, b, c, d)


def test_snf_unimodular_invariance_and_rank():
    rng = random.Random(5)
    for _ in range(12):
        m = random_mat(rng, rng.randint(1, 6), rng.randint(1, 6))
        f1 = smith_normal_form(m)
        assert smith_normal_form(unimod_shuffle(rng, m)) == f1
        rk = rank(m, QQ)
        assert len(f1) == rk
        assert cokernel(m).free_rank + rk == m.rows
        assert kernel_rank(m, QQ) == m.cols - rk
        for p in (2, 3, 5, 7, 11, 13):
            if all(f % p for f in f1):
                assert rank(m, GF(p)) == rk


def test_coker_presentation_invariance():
    rng = random.Random(6)
    for _ in range(10):
        m = random_mat(rng, 5, 5)
        assert cokernel(unimod_shuffle(rng, m)) == cokernel(m)


def test_f2_rank_against_dense_oracle():
    rng = random.Random(7)
    for _ in range(20):
        m = random_mat(rng, 6, 6, 0, 1, 0.5)
        assert rank(m, GF(2)) == dense_rank(m, 2)


@PROPERTY
@given(int_matrices())
def test_rank_against_dense_oracle(m):
    assert rank(m, QQ) == rank(m, ZZ) == dense_rank(m)
    for p in (2, 3, 5):
        assert rank(m, GF(p)) == dense_rank(m, p)


@PROPERTY
@given(int_matrices())
def test_snf_against_determinantal_divisors(m):
    factors = smith_normal_form(m)
    assert len(factors) == rank(m, QQ)
    prod = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        if k <= len(factors):
            prod *= factors[k - 1]
            assert determinantal_divisor(m, k) == prod
        else:
            assert determinantal_divisor(m, k) == 0
    for p in (2, 3, 5):
        assert rank(m, GF(p)) == sum(1 for f in factors if f % p)


def test_budget_ticks_in_rank_and_snf():
    m = SparseExactMatrix(2, 2, {(0, 0): 2, (1, 1): 3})
    for ring in (QQ, GF(2), GF(3), ZZ):
        with pytest.raises(BudgetExceeded), Deadline(-1):
            rank(m, ring)
    with pytest.raises(BudgetExceeded), Deadline(-1):
        smith_normal_form(m)


class _CountingDeadline(Deadline):
    def __init__(self):
        super().__init__(3600)
        self.ticks = 0

    def tick(self):
        self.ticks += 1


def test_snf_ticks_in_the_gcd_pivot_loops():
    # [2 3] has no unit: the gcd pivot 2 shrinks to 1 in one pass, a second
    # pass finds that 1 divides its row, and clearing the row takes one
    # column operation
    m = SparseExactMatrix(1, 2, {(0, 0): 2, (0, 1): 3})
    with _CountingDeadline() as counter:
        assert smith_normal_form(m) == [1]
    assert counter.ticks == 3


def test_echelon_ticks_per_pivot_row_and_carrier_pass():
    # [2 4] over Z: one pivot row, whose two carriers one Euclid pass
    # (4 - 2 * 2) leaves to one; over F3 ([2 1]) and F5 one pass as well
    m = SparseExactMatrix(1, 2, {(0, 0): 2, (0, 1): 4})
    calls = [partial(integer_kernel_lattice, m)]
    calls += [partial(rank, m, ring) for ring in (ZZ, QQ, GF(3), GF(5))]
    calls += [partial(kernel_basis, m, ring) for ring in (QQ, GF(3), GF(5))]
    for call in calls:
        with _CountingDeadline() as counter:
            call()
        assert counter.ticks == 2, call


@PROPERTY
@given(int_matrices(max_cols=7), st.integers(0, 2 ** 32))
def test_results_do_not_depend_on_the_entry_order(m, seed):
    items = list(m.entries.items())
    random.Random(seed).shuffle(items)
    shuffled = SparseExactMatrix.from_int_entries(m.rows, m.cols, dict(items))

    def results(a):
        kernels = [kernel_basis(a, ring) for ring in (QQ, GF(2), GF(3))]
        return ([rank(a, ring) for ring in (ZZ, QQ, GF(2), GF(3))],
                [[list(c.items()) for c in k] for k in kernels],
                [list(c.items()) for c in integer_kernel_lattice(a)],
                smith_normal_form(a))
    assert results(shuffled) == results(m)


@PROPERTY
@given(int_matrices(max_cols=7))
def test_q_kernel_bases_hold_ints(m):
    # the saturated integer lattice is the Q basis: no Fraction arises
    basis = kernel_basis(m, QQ)
    assert all(type(v) is int for col in basis for v in col.values())
    assert basis == integer_kernel_lattice(m)


@PROPERTY
@given(int_matrices(max_cols=7))
def test_field_kernel_and_z_restriction(m):
    for ring in (QQ, GF(2), GF(3), GF(5)):
        basis = kernel_basis(m, ring)
        assert len(basis) == m.cols - rank(m, ring)
        p = ring.p or 0
        assert all(v % p == 0 if p else v == 0
                   for col in m.mul_columns(basis) for v in col.values())
        if basis:
            span = SparseExactMatrix.from_columns(m.cols, [integral(c) for c in basis])
            assert rank(span, ring) == len(basis)
    with pytest.raises(UnsupportedOperation):
        kernel_basis(m, ZZ)


@PROPERTY
@given(int_matrices(max_cols=7))
def test_field_ranks_read_z_matrices_directly(m):
    # over F_p the entries are reduced on load: the matrix of residues gives
    # the same rank and the same kernel basis, entry order included
    for p in (2, 3, 5):
        residues = SparseExactMatrix.from_int_entries(
            m.rows, m.cols, {k: v % p for k, v in m.entries.items() if v % p})
        assert rank(m, GF(p)) == rank(residues, GF(p)) == dense_rank(m, p)
        assert ([list(c.items()) for c in kernel_basis(m, GF(p))]
                == [list(c.items()) for c in kernel_basis(residues, GF(p))])


@PROPERTY
@given(int_matrices(max_cols=7))
def test_integer_kernel_lattice_saturated(m):
    kb = integer_kernel_lattice(m)
    assert len(kb) == m.cols - rank(m, QQ)
    assert not any(m.mul_columns(kb))
    if kb:
        basis_matrix = SparseExactMatrix.from_columns(m.cols, kb)
        assert all(f == 1 for f in smith_normal_form(basis_matrix))


@PROPERTY
@given(int_matrices(max_cols=5, min_rows=6), st.data())
def test_solve_columns_roundtrip(b, data):
    k = b.cols
    assume(rank(b, QQ) == k)
    ys = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                            min_size=1, max_size=3))
    ys = [{i: v for i, v in enumerate(y) if v} for y in ys]
    sols = solve_columns(b.col_dicts(), b.mul_columns(ys), b.rows)
    assert [{i: v for i, v in sol.items() if v} for sol in sols] == ys
    # k < rows, so some unit vector lies outside the span
    outside = next({r: 1} for r in range(b.rows)
                   if rank(SparseExactMatrix.hstack(
                       b, SparseExactMatrix(b.rows, 1, {(r, 0): 1})), QQ) > k)
    with pytest.raises(DomainError):
        solve_columns(b.col_dicts(), [outside], b.rows)


def test_fp_coerce_takes_integral_fractions_only():
    for p in (2, 3, 5):
        assert GF(p).coerce(Fraction(4, 2)) == 2 % p
        with pytest.raises(DomainError):
            GF(p).coerce(Fraction(1, 2))
    assert ZZ.coerce(Fraction(-6, 3)) == -2


def test_lattice_quotient():
    q = lattice_quotient(2, [{0: 2}, {1: 3}], 2)
    assert q == GroupPresentation(0, [6])
    q = lattice_quotient(2, [{0: 2}], 2)
    assert q == GroupPresentation(1, [2])


def test_lattice_quotient_of_a_saturated_non_coordinate_lattice():
    # L = Ker(1, -1, 1) in Z^3 with basis (1, 1, 0), (0, 1, 1): saturated,
    # and no coordinate plane
    f = SparseExactMatrix(1, 3, {(0, 0): 1, (0, 1): -1, (0, 2): 1})
    basis = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    assert not any(f.mul_columns(basis))
    assert len(integer_kernel_lattice(f)) == 2
    for coords, want in (([(2, 0), (0, 3)], GroupPresentation(0, [6])),
                         ([(1, 1)], GroupPresentation(1)),
                         ([(2, 2)], GroupPresentation(1, [2])),
                         ([(2, 4), (4, 2)], GroupPresentation(0, [2, 6])),
                         ([], GroupPresentation(2))):
        gens = [{r: v for r, v in {0: a, 1: a + b, 2: b}.items() if v}
                for a, b in coords]
        assert not any(f.mul_columns(gens))
        assert lattice_quotient(2, gens, 3) == want
        # the coordinate route: solve for the coordinates, then a cokernel
        sols = solve_columns(basis, gens, 3)
        pres = SparseExactMatrix(2, len(gens),
                                 {(i, j): v for j, sol in enumerate(sols)
                                  for i, v in sol.items()})
        assert cokernel(pres) == want
    with pytest.raises(DomainError):
        lattice_quotient(1, [{0: 1}, {1: 1}], 2)


def test_presentation_normalization():
    g = GroupPresentation(1, [3, 2, 1, 4])
    assert g.invariant_factors == (2, 12)
    fs = g.invariant_factors
    assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
    assert g.torsion_order() == 24
    assert str(GroupPresentation(2, [2, 2, 6])) == "Z^2 + (Z/2)^2 + Z/6"
    assert str(GroupPresentation(0, [])) == "0"


def pairwise_chain(factors):
    """Divisibility chain by pairwise gcd/lcm passes: diag(a, b) is
    equivalent to diag(gcd(a, b), lcm(a, b))."""
    fs = sorted(abs(f) for f in factors)
    changed = True
    while changed:
        changed = False
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                a, b = fs[i], fs[j]
                if b % a:
                    fs[i], fs[j] = gcd(a, b), a * b // gcd(a, b)
                    changed = True
        fs.sort()
    return fs


@PROPERTY
@given(st.lists(st.builds(lambda f, sign: f * sign,
                          st.one_of(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 25, 30, 49]),
                                    st.integers(1, 10 ** 9)),
                          st.sampled_from((1, -1))),
                max_size=14))
def test_divisibility_chain_against_pairwise_passes(factors):
    chain = normalize_divisibility_chain(factors)
    assert chain == pairwise_chain(factors)
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
    with pytest.raises(DomainError):
        normalize_divisibility_chain(factors + [0])


@pytest.mark.parametrize("rows, cols", ((-3, 0), (2.5, 1), (1, -1), (True, 1),
                                        (1, False), ("2", 1), (None, 0)))
def test_matrix_json_rejects_a_shape_that_is_not_two_counts(rows, cols):
    data = {"rows": rows, "cols": cols, "ring": "Z", "entries": []}
    with pytest.raises(DomainError):
        SparseExactMatrix.from_json(data)


@pytest.mark.parametrize("ring", (5, None, ["Z"], {"Z": 1}))
def test_matrix_json_rejects_a_ring_that_is_not_text(ring):
    data = {"rows": 1, "cols": 1, "ring": ring, "entries": []}
    with pytest.raises(DomainError):
        SparseExactMatrix.from_json(data)


@pytest.mark.parametrize("entry", ([0.5, 0, "2"], [True, 1, "3"], [0.0, 0, "3"],
                                   [0, "1", "2"], [1, None, "2"], [-1, 0, "2"]))
def test_matrix_json_rejects_a_position_that_is_not_two_counts(entry):
    # a float, a bool or a string is not read as the int it equals
    data = {"rows": 2, "cols": 2, "ring": "Z", "entries": [[1, 1, "3"], entry]}
    with pytest.raises(DomainError):
        SparseExactMatrix.from_json(data)


def test_matrix_json_roundtrip():
    rng = random.Random(12)
    m = random_mat(rng, 4, 5)
    assert SparseExactMatrix.from_json(m.to_json()) == m
    # read over a field: its tag, the entries reduced, zeros dropped; only
    # Z matrices with integer entries are read back
    for ring in (QQ, GF(2), GF(3)):
        data = m.to_json(ring)
        p = ring.p
        want = sorted((r, c, v % p if p else v) for (r, c), v in m.entries.items())
        assert data["ring"] == ring.tag
        assert data["entries"] == [[r, c, str(v)] for r, c, v in want if v]
        with pytest.raises(DomainError):
            SparseExactMatrix.from_json(data)
    assert m.to_json(ZZ) == m.to_json()
    data = {"rows": 1, "cols": 2, "ring": "Z", "entries": [[0, 0, "4/2"], [0, 1, "1/2"]]}
    with pytest.raises(DomainError):
        SparseExactMatrix.from_json(data)
    data["entries"].pop()
    assert SparseExactMatrix.from_json(data) == SparseExactMatrix(1, 2, {(0, 0): 2})
    with pytest.raises(DomainError):
        SparseExactMatrix(1, 1, {(0, 0): Fraction(1, 2)})
    with pytest.raises(DomainError):
        m[4, 0] = 1
