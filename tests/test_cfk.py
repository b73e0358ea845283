import hashlib
import json
import random
import tracemalloc
from itertools import combinations, product
from math import comb

import pytest

from hfsigma.cfk import (B_PLUS, OPS, GradedElement, Region, _flip_blade,
                         _flip_template, corner, gamma_action, j_infinity,
                         min_zero, row_i0, slice_basis, slice_digest,
                         slice_map, u_chain_map, u_slice_map)
from hfsigma.errors import BudgetExceeded, Deadline, DomainError
from hfsigma.exterior import (Multivector, blade_grade, eta,
                              random_multivector, star_blade, contract_blades,
                              swap_pairs, wedge_blades)
from hfsigma.linalg import SparseExactMatrix, rank
from hfsigma.rings import GF, QQ, ZZ


def slice_dims_oracle(g, region, d):
    # independent recount of the cells
    total = 0
    for i in range(-3 * g - 9, 3 * g + 10):
        p = g + d - 2 * i
        if 0 <= p <= 2 * g and region.contains(i, d - i):
            total += comb(2 * g, p)
    return total


def test_slice_basis_examples():
    sb = slice_basis(3, B_PLUS, -3)
    assert sb.cells == [(0, 0)] and sb.size == 1
    sb = slice_basis(2, corner(0), 1)
    assert sb.size == comb(4, 3) + comb(4, 1) == 8
    sb = slice_basis(3, B_PLUS, 0)
    assert sb.cells == [(0, 3), (1, 1)] and sb.size == 26


def test_slice_basis_against_oracle():
    for g in (1, 2, 3):
        for d in range(-g - 3, g + 4):
            for region in (B_PLUS, corner(0), corner(-2), row_i0(),
                           min_zero(0), min_zero(-1)):
                assert slice_basis(g, region, d).size == slice_dims_oracle(g, region, d)


def test_slice_basis_deterministic_order():
    sb = slice_basis(2, B_PLUS, 1)
    assert sb.cells == sorted(sb.cells)
    for (i, p) in sb.cells:
        masks = [m for (ii, m) in sb.elements if ii == i]
        assert masks == sorted(masks)


def test_flip_top_blade():
    # the full volume blade lands on the scalar three steps down
    x = GradedElement.from_multivector(eta(3, 3), i=0)
    assert j_infinity(x) == GradedElement(3, {(3, 0): -1})


def test_flip_smear_support():
    x = GradedElement(3, {(5, 1): 1})  # e_1 * U^-5
    cells = {(i, blade_grade(m)) for (i, m) in j_infinity(x).terms}
    assert cells == {(3, 5), (4, 3), (5, 1)}


def _exp_omega_op(x, contractp):
    # multiply/contract by sum (-1)^n eta_n U^(+-n)
    g = x.genus
    out = GradedElement(g)
    for n in range(0, g + 1):
        en = eta(n, g)
        term = {}
        for (i, m), c in x.terms.items():
            for m2, c2 in en.coeffs.items():
                hit = contract_blades(m2, m) if contractp else wedge_blades(m2, m)
                if hit:
                    s, mm = hit
                    key = (i + n, mm) if contractp else (i - n, mm)
                    term[key] = term.get(key, 0) + s * c * c2
        out = out + GradedElement(g, term).scale((-1) ** n)
    return out


def test_alternate_flip_formula():
    rng = random.Random(4)
    for g in (1, 2, 3):
        for _ in range(8):
            p = rng.randint(0, 2 * g)
            x = GradedElement.from_multivector(random_multivector(g, p, rng),
                                               i=rng.randint(-2, 2))
            lhs = j_infinity(_exp_omega_op(x, False))
            rhs = _exp_omega_op(_exp_omega_op(x, True), False).scale(-1)
            assert lhs == rhs


def test_flip_preserves_degree_and_support():
    rng = random.Random(5)
    for g in (2, 3):
        for _ in range(10):
            p = rng.randint(0, 2 * g)
            x = GradedElement.from_multivector(random_multivector(g, p, rng),
                                               i=rng.randint(-5, -1))
            jx = j_infinity(x)
            assert jx.degrees() in ([], x.degrees())
            assert all(j < 0 for (_i, j) in jx.positions())


def test_flip_equivariance():
    rng = random.Random(6)
    for g in (2, 3):
        for _ in range(6):
            p = rng.randint(0, 2 * g)
            x = GradedElement.from_multivector(random_multivector(g, p, rng),
                                               i=rng.randint(-2, 3))
            for gi in range(1, 2 * g + 1):
                assert (j_infinity(gamma_action(gi, x, truncate=False))
                        == gamma_action(gi, j_infinity(x), truncate=False))


def test_gamma_action_is_contraction_plus_wedge():
    # gamma . (m U^-i) = (e |_ m) U^-i + (e ^ m) U^-(i-1), from the exterior
    # algebra's closed forms for the two products
    for g in (1, 2, 3):
        for mask in range(4 ** g):
            for gi in range(1, 2 * g + 1):
                e = 1 << (gi - 1)
                for i, truncate in product((0, 1, 2), (True, False)):
                    want = {}
                    hit = contract_blades(e, mask)
                    if hit is not None:
                        want[(i, hit[1])] = hit[0]
                    hit = wedge_blades(e, mask)
                    if hit is not None and (i >= 1 or not truncate):
                        want[(i - 1, hit[1])] = hit[0]
                    x = GradedElement(g, {(i, mask): 1})
                    assert gamma_action(gi, x, truncate).terms == want, (g, mask, gi, i)


def test_v_is_inclusion_projection():
    for g in (2, 3):
        for d in (-1, 0, 1, g):
            sm = slice_map(g, "v", d, s=0)
            for (r, c), v in sm.matrix.entries.items():
                assert v == 1
                assert sm.target.elements[r] == sm.source.elements[c]


def test_F_equals_one_plus_J_stably():
    for g in (2, 3):
        for d in (g - 1, g, g + 1):
            f = slice_map(g, "F", d, s=0)
            oj = slice_map(g, "one_plus_J", d)
            assert f.matrix.entries == oj.matrix.entries


def test_F_hat_formula():
    # on the i = 0 row: xi -> (xi, (-1)^(d+1) star xi) for d >= 1,
    # xi - star xi for d = 0, zero for d < 0
    for g in (2, 3):
        for d in range(-2, g + 1):
            sm = slice_map(g, "F_hat", d)
            cols = sm.matrix.col_dicts()
            for c, (i, mask) in enumerate(sm.source.elements):
                sc, smk = star_blade(mask, g)
                expect = {}
                if d >= 0:
                    ridx = sm.target.index.get((0, mask))
                    expect[ridx] = expect.get(ridx, 0) + 1
                    r2 = sm.target.index.get((d, smk))
                    if r2 is not None:
                        expect[r2] = expect.get(r2, 0) + ((-1) ** (d + 1)) * sc
                expect = {k: v for k, v in expect.items() if v}
                assert cols[c] == expect, (g, d, c)


def test_slice_map_degree_preservation_s0():
    for g in (2, 3):
        for op in ("v", "F", "F_hat", "one_plus_J"):
            for d in (0, 1, g):
                sm = slice_map(g, op, d, s=0)
                assert sm.source.degree == d
                for (r, c) in sm.matrix.entries:
                    i, m = sm.target.elements[r]
                    assert 2 * i + blade_grade(m) - g == d


def test_unknown_op_rejected():
    with pytest.raises(DomainError):
        slice_map(2, "bogus", 0)
    with pytest.raises(DomainError):
        Region("bogus")


def test_u_slice_map():
    g = 2
    sm = u_slice_map(g, B_PLUS, 2)
    for (r, c), v in sm.matrix.entries.items():
        i, m = sm.source.elements[c]
        assert sm.target.elements[r] == (i - 1, m) and v == 1
    # the i = 0 cell dies
    killed = [c for c, (i, m) in enumerate(sm.source.elements) if i == 0]
    live_cols = {c for (_r, c) in sm.matrix.entries}
    assert all(c not in live_cols for c in killed)


def test_mod2_flip_is_star_shift():
    for g in (2, 3):
        d = g
        sm = slice_map(g, "one_plus_J", d)
        cols = sm.matrix.col_dicts()
        for c, (i, mask) in enumerate(sm.source.elements):
            p = blade_grade(mask)
            sc, smk = star_blade(mask, g)
            expect = {}
            for key in ((i, mask), (i + p - g, smk)):
                r = sm.target.index.get(key)
                if r is not None:
                    expect[r] = (expect.get(r, 0) + 1) % 2
            expect = {k: v for k, v in expect.items() if v}
            got = {r: int(v) % 2 for r, v in cols[c].items() if int(v) % 2}
            assert got == expect


def _ref_flip_blade(g, mask):
    # the eta_n terms as contractions by every n-subset of complete pairs
    p = blade_grade(mask)
    s_coeff, s_mask = star_blade(mask, g)
    base = (-1) ** (g - 1) * (-1) ** p * s_coeff
    pairs = [j for j in range(g) if s_mask >> (2 * j) & 3 == 3]
    out = []
    for n in range(len(pairs) + 1):
        for sub in combinations(pairs, n):
            cc, m2 = contract_blades(sum(0b11 << (2 * j) for j in sub), s_mask)
            out.append((p - g + n, m2, base * 2 ** n * cc))
    return tuple(out)


def test_flip_blade_against_subset_contractions():
    for g in range(1, 6):
        for mask in range(1 << (2 * g)):
            assert _flip_blade(g, mask) == _ref_flip_blade(g, mask), (g, mask)


def _ref_slice_entries(sm, g, ring):
    # per-entry assembly through __getitem__/__setitem__, term by term, each
    # partial sum coerced into the ring
    op, s = sm.op, sm.s
    shift = 0 if op == "one_plus_J" else s
    mat = SparseExactMatrix(sm.target.size, sm.source.size)
    for c, (i, mask) in enumerate(sm.source.elements):
        flips = [] if op == "v" else [(i + di + shift, m2, w)
                                      for di, m2, w in _ref_flip_blade(g, mask)]
        ident = [] if op == "h" else [(i, mask, 1)]
        for i2, m2, w in (flips + ident if op == "one_plus_J" else ident + flips):
            r = sm.target.index.get((i2, m2))
            if r is not None:
                mat[r, c] = ring.coerce(mat[r, c] + w)
    return list(mat.entries.items())


def _ref_u_entries(um, steps):
    mat = SparseExactMatrix(um.target.size, um.source.size)
    for c, (i, mask) in enumerate(um.source.elements):
        r = um.target.index.get((i - steps, mask))
        if r is not None:
            mat[r, c] = 1
    return list(mat.entries.items())


def test_one_pass_assembly_matches_per_entry_order():
    # the integer matrix in the reference's entry order; read over F3, the
    # reference summed mod 3
    for g in range(1, 5):
        for s in (0, -1, -2):
            for d in range(-g - 3, g + 5):
                for op in ("v", "h", "F", "F_hat", "one_plus_J"):
                    if op == "one_plus_J" and s:
                        continue
                    sm = slice_map(g, op, d, s)
                    assert list(sm.matrix.entries.items()) == \
                        _ref_slice_entries(sm, g, ZZ), (g, s, d, op)
                    assert sm.matrix.to_json(GF(3))["entries"] == \
                        [[r, c, str(v)] for (r, c), v in
                         sorted(_ref_slice_entries(sm, g, GF(3)))], (g, s, d, op)
                for region in (B_PLUS, corner(s)):
                    um = u_slice_map(g, region, d)
                    assert list(um.matrix.entries.items()) == _ref_u_entries(um, 1)
                    for steps in (1, 2, 3):
                        um = u_chain_map(g, region, d, steps)
                        assert list(um.matrix.entries.items()) == \
                            _ref_u_entries(um, steps)


class _CountingDeadline(Deadline):
    def __init__(self):
        super().__init__(3600)
        self.ticks = 0

    def tick(self):
        self.ticks += 1


def test_slice_construction_checks_the_deadline():
    with pytest.raises(BudgetExceeded), Deadline(-1):
        slice_map(3, "F", 1)
    with pytest.raises(BudgetExceeded), Deadline(-1):
        slice_map(2, "one_plus_J", 4, block=True)  # the type-1 block at genus 3
    with pytest.raises(BudgetExceeded), Deadline(-1):
        slice_digest(3, "F", 1)
    with Deadline(60):
        budgeted = slice_map(3, "F", 1).matrix
    assert budgeted == slice_map(3, "F", 1).matrix
    with _CountingDeadline() as counter:  # one tick per source column
        slice_map(3, "F", 1)
    assert counter.ticks == slice_basis(3, B_PLUS, 1).size
    with _CountingDeadline() as counter:  # one tick per target row
        slice_digest(3, "F", 1)
    assert counter.ticks == slice_basis(3, corner(0), 1).size


def test_leaving_a_deadline_restores_the_outer_one():
    with pytest.raises(BudgetExceeded), Deadline(-1):
        slice_map(3, "F", 1)
    assert slice_map(3, "F", 1).matrix.cols == slice_basis(3, B_PLUS, 1).size
    with _CountingDeadline() as outer:
        with pytest.raises(BudgetExceeded), Deadline(-1):
            slice_map(3, "F", 1)
        assert outer.ticks == 0
        slice_map(3, "F", 1)
        assert outer.ticks == slice_basis(3, B_PLUS, 1).size


def _to_json_digest(g, op, d, s=0):
    # the payload fingerprint as it was first taken: the whole matrix, its
    # to_json lists, one canonical JSON string, one sha256
    m = slice_map(g, op, d, s).matrix
    payload = json.dumps(m.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_slice_digest_matches_the_to_json_route():
    for g in range(1, 6):
        for op in OPS:
            for s in (0, -1, -2):
                for d in range(-g - 3, g + 4):
                    assert slice_digest(g, op, d, s) == _to_json_digest(g, op, d, s), \
                        (g, op, d, s)
    # at g = 6, the degrees the tables fingerprint
    for op, d in (("F_hat", 0), ("one_plus_J", 6), ("one_plus_J", 7)):
        assert slice_digest(6, op, d) == _to_json_digest(6, op, d), (op, d)


def test_slice_digest_pins_the_g7_infinity_hashes():
    assert slice_digest(7, "one_plus_J", 7) == "e24003df07d3de2e"
    assert slice_digest(7, "one_plus_J", 8) == "2f0d7fce7a269960"


def test_slice_digest_pins_the_g8_infinity_hashes():
    assert slice_digest(8, "one_plus_J", 8) == "e5670e19317b9b3a"
    assert slice_digest(8, "one_plus_J", 9) == "0cabe0c4bfce0870"


def test_flip_template_is_the_transpose_of_flip_blade():
    for g in range(1, 7):
        forward, backward = set(), set()
        full = (1 << (2 * g)) - 1
        for mask in range(1 << (2 * g)):
            forward.update((mask, m2, w) for _, m2, w in _flip_blade(g, mask))
            base = swap_pairs(full ^ mask)
            sources = [(base - x, mask, w) for x, w in _flip_template(g, mask)]
            backward.update(sources)
            assert len(set(sources)) == len(sources)
            # source columns ascending: grade descending, then mask ascending
            order = [(-blade_grade(src), src) for src, _, _ in sources]
            assert order == sorted(order), (g, mask)
        assert forward == backward, g


def test_slice_digest_memory_stays_under_a_megabyte():
    # no basis: a 64 KB column array, one grade's masks and the flip templates
    slice_digest(2, "one_plus_J", 2)  # imports and first-call state
    tracemalloc.start()
    try:
        slice_digest(7, "one_plus_J", 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_slice_digest_leaves_the_caches_alone():
    before = slice_basis.cache_info(), _flip_blade.cache_info()
    slice_digest(5, "one_plus_J", 5)
    slice_digest(5, "F_hat", 0)
    assert (slice_basis.cache_info(), _flip_blade.cache_info()) == before
