"""Torus-weight blocks against the whole slice matrices they come from.

The full-matrix route below is the reference: it eliminates each slice
matrix whole, as the engine did before it summed over representative
blocks.
"""

from itertools import product

import pytest

from hfsigma import engine
from hfsigma.cfk import block_masks, block_multiplicity, slice_map
from hfsigma.errors import DomainError
from hfsigma.exterior import blades_of_grade
from hfsigma.linalg import (GroupPresentation, SparseExactMatrix, cokernel,
                            rank, smith_normal_form)
from hfsigma.rings import GF, QQ, ZZ

BLOCK_OPS = ("F", "F_hat", "one_plus_J")
RINGS = (ZZ, QQ, GF(2), GF(3))


def weight(g, mask):
    return tuple((mask >> (2 * i) & 1) - (mask >> (2 * i + 1) & 1) for i in range(g))


def degrees(g):
    return range(-g - 3, g + 4)


def weight_blocks(sm):
    """{weight vector: (row keys, column keys)} of a slice map, every row
    and column filed under the weight of its blade."""
    g = sm.source.genus
    blocks = {}
    for c, (_i, mask) in enumerate(sm.source.elements):
        blocks.setdefault(weight(g, mask), ([], []))[1].append(c)
    for r, (_i, mask) in enumerate(sm.target.elements):
        blocks.setdefault(weight(g, mask), ([], []))[0].append(r)
    return blocks


def restrict(m, rows, cols):
    ri = {r: k for k, r in enumerate(rows)}
    ci = {c: k for k, c in enumerate(cols)}
    ent = {(ri[r], ci[c]): v for (r, c), v in m.entries.items()
           if r in ri and c in ci}
    return SparseExactMatrix.from_int_entries(len(rows), len(cols), ent)


def full_cone_group(g, op, d, ring):
    lo = slice_map(g, op, d).matrix
    hi = slice_map(g, op, d + 1).matrix
    if ring == ZZ:
        cok = cokernel(hi)
        return GroupPresentation(lo.cols - rank(lo, QQ) + cok.free_rank,
                                 cok.invariant_factors)
    return GroupPresentation(lo.cols - rank(lo, ring) + hi.rows - rank(hi, ring))


def full_table(g, op, degs, ring):
    return {engine.half(d): full_cone_group(g, op, d, ring) for d in degs}


def test_block_masks_are_the_representative_weight():
    for g in range(1, 6):
        for r in range(g + 1):
            want = (1,) * r + (0,) * (g - r)
            for p in range(2 * g + 1):
                assert block_masks(g, r, p) == [m for m in blades_of_grade(g, p)
                                                if weight(g, m) == want]
            assert sum(len(block_masks(g, r, p)) for p in range(2 * g + 1)) == 2 ** (g - r)
        assert sum(block_multiplicity(g, r) for r in range(g + 1)) == 3 ** g


def test_slice_entries_join_equal_weights():
    for g in range(1, 6):
        for op in BLOCK_OPS:
            for d in degrees(g):
                sm = slice_map(g, op, d)
                src, tgt = sm.source.elements, sm.target.elements
                for (r, c) in sm.matrix.entries:
                    assert weight(g, tgt[r][1]) == weight(g, src[c][1]), (g, op, d, r, c)


def test_block_map_is_the_restricted_slice_map():
    for g in range(1, 6):
        for op in BLOCK_OPS:
            for d in degrees(g):
                sm = slice_map(g, op, d)
                blocks = weight_blocks(sm)
                for r in range(g + 1):
                    bm = slice_map(g, op, d, r=r)
                    rows, cols = blocks.get((1,) * r + (0,) * (g - r), ([], []))
                    assert bm.source.elements == [sm.source.elements[c] for c in cols]
                    assert bm.target.elements == [sm.target.elements[k] for k in rows]
                    assert bm.matrix.entries == restrict(sm.matrix, rows, cols).entries


def test_every_weight_block_has_its_representatives_smith_form():
    for g in range(1, 5):
        for op in BLOCK_OPS:
            for d in degrees(g):
                sm = slice_map(g, op, d)
                blocks = weight_blocks(sm)
                seen = dict.fromkeys(range(g + 1), 0)
                for w in product((-1, 0, 1), repeat=g):
                    r = sum(1 for x in w if x)
                    rep = slice_map(g, op, d, r=r).matrix
                    rows, cols = blocks.get(w, ([], []))
                    block = restrict(sm.matrix, rows, cols)
                    assert (block.rows, block.cols) == (rep.rows, rep.cols)
                    assert smith_normal_form(block) == smith_normal_form(rep), (g, op, d, w)
                    seen[r] += 1
                assert seen == {r: block_multiplicity(g, r) for r in range(g + 1)}


@pytest.mark.parametrize("ring", RINGS, ids=lambda ring: ring.tag)
def test_tables_match_the_full_matrix_reference(ring):
    for g in range(1, 6):
        hat = engine.hf_hat(g, ring)
        assert hat.entries == full_table(g, "F_hat", range(-g - 1, g + 2), ring)
        plus = engine.hf_plus_torsion(g, ring)
        lo, hi = engine.default_plus_window(g)
        assert plus.entries == full_table(g, "F", range(lo, hi + 1), ring)
        inf = engine.hf_infinity(g, ring)
        assert inf.entries == full_table(g, "one_plus_J", (g, g + 1), ring)


def test_block_map_rejects_bad_input():
    with pytest.raises(DomainError):
        slice_map(2, "nope", 0, r=0)
    for r in (-1, 3):
        with pytest.raises(DomainError):
            slice_map(2, "F", 0, r=r)
