"""Torus-weight blocks against the whole slice matrices they come from.

The full-matrix route below is the reference: it eliminates each slice
matrix whole, as the engine did before it summed over weight blocks.  Each
builder's weight-zero block at genus g - r is checked against the type-r
block cut out of its whole genus-g matrix (oracles.type_r_block).  The same holds for the nontorsion sector: whole prefix chain
matrices, the phi image of the whole model basis, and the action one
class at a time.  The phi series, F and the action are also checked
against their composition from j_infinity, gamma_action and region
projections on GradedElements, which the engine used before it cached
the images of single terms.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from hfsigma import engine, nontorsion
from hfsigma.blades import block_masks
from hfsigma.blocks import block_multiplicity
from hfsigma.cfk import (B_PLUS, OPS, GradedElement, _flip_blade, corner,
                         gamma_action, j_infinity, slice_map, u_chain_map)
from hfsigma.errors import DomainError
from hfsigma.exterior import blade_grade, blades_of_grade
from hfsigma.linalg import (GroupPresentation, SparseExactMatrix, cokernel,
                            rank, smith_normal_form)
from hfsigma.rings import GF, QQ, ZZ
from oracles import h1_action, type_r_block, type_r_keys, weight

BLOCK_OPS = ("F", "F_hat", "one_plus_J")
RINGS = (ZZ, QQ, GF(2), GF(3))


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
    # the weight-zero masks, and with r pairs dropped the type-r masks
    for g in range(1, 6):
        for p in range(-1, 2 * g + 2):
            assert block_masks(g, p) == [m for m in blades_of_grade(g, p)
                                         if weight(g, m) == (0,) * g]
            for r in range(g + 1):
                keys = [(0, m) for m in blades_of_grade(g, p)]
                assert type_r_keys(g, r, keys) == [(0, m) for m in block_masks(g - r, p - r)]
        assert sum(len(block_masks(g, p)) for p in range(2 * g + 1)) == 2 ** g
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
        for op in OPS:
            for s in (0, -1, -2):
                for d in degrees(g):
                    sm = slice_map(g, op, d, s)
                    bm = slice_map(g, op, d, s, block=True)
                    rows, cols = weight_blocks(sm).get((0,) * g, ([], []))
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
                    rep = slice_map(g - r, op, d, block=True).matrix
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
        slice_map(2, "nope", 0, block=True)
    with pytest.raises(DomainError):
        slice_map(2, "F", 0, 1, block=True)


def test_u_maps_are_the_type_r_blocks():
    # U^N on B_PLUS and on the corner, as the reduced part and the U-action
    # take them, with N = 1..3
    for g in range(1, 7):
        for region in (B_PLUS, corner(0)):
            for steps in (1, 2, 3):
                for d in range(-g - 1, g + 2 * steps + 2):
                    um = u_chain_map(g, region, d, steps)
                    for r in range(g + 1):
                        bm = u_chain_map(g - r, region, d, steps, block=True)
                        assert bm.source.elements == type_r_keys(g, r, um.source.elements)
                        assert bm.target.elements == type_r_keys(g, r, um.target.elements)
                        want = type_r_block(g, r, um.matrix,
                                            [m for _, m in um.target.elements],
                                            [m for _, m in um.source.elements])
                        assert list(bm.matrix.entries.items()) == \
                            list(want.entries.items()), (g, region, d, steps, r)


def test_chain_matrix_prefixes_are_the_type_r_blocks():
    # every prefix that hf_plus_nontorsion takes
    for g, kk in nontorsion_cases(6):
        top_degree = engine.XModel(g, g - 1 - kk).max_degree()
        for res in range(2 * kk):
            degs = [n for n in range(-g, top_degree + 1) if (n - res) % (2 * kk) == 0]
            for top in range(1, len(degs) + 1):
                cm = engine.chain_matrix(g, kk, degs[:top])
                for r in range(g + 1):
                    bm = engine.chain_matrix(g - r, kk, degs[:top], block=True)
                    assert bm.source.elements == type_r_keys(g, r, cm.source.elements)
                    assert bm.target.elements == type_r_keys(g, r, cm.target.elements)
                    want = type_r_block(g, r, cm.matrix,
                                        [m for _, m in cm.target.elements],
                                        [m for _, m in cm.source.elements])
                    assert list(bm.matrix.entries.items()) == \
                        list(want.entries.items()), (g, kk, degs[:top], r)


def full_nontorsion_ranks(g, kk):
    """Per-degree kernel ranks of the whole prefix chain matrices, one
    residue class mod 2|k| at a time."""
    top_degree = engine.XModel(g, g - 1 - kk).max_degree()
    per_degree = {}
    for res in range(2 * kk):
        degs = [n for n in range(-g, top_degree + 1) if (n - res) % (2 * kk) == 0]
        prev = 0
        for top_idx, top in enumerate(degs):
            m = engine.chain_matrix(g, kk, degs[:top_idx + 1]).matrix
            kr = m.cols - rank(m, QQ)
            per_degree[top] = kr - prev
            prev = kr
    return per_degree


def full_phi_image_rank(g, kk):
    """Rank over Q of the phi images of the whole model basis."""
    keys = {}
    cols = []
    for key in engine.XModel(g, g - 1 - kk).basis():
        ph = engine.phi_series(GradedElement(g, {key: 1}), kk)
        cols.append({keys.setdefault(t, len(keys)): v for t, v in ph.terms.items()})
    return rank(SparseExactMatrix.from_columns(len(keys), cols), QQ)


def nontorsion_cases(max_genus=5):
    return [(g, k) for g in range(2, max_genus + 1) for k in range(1, g)]


def test_model_basis_blocks_partition_the_basis():
    # the type-r keys of X(g, g - 1 - k) are the weight-zero keys of
    # X(g - r, g - r - 1 - k)
    for g, k in nontorsion_cases(6):
        whole = engine.XModel(g, g - 1 - k).basis()
        for r in range(g + 1):
            n = g - r
            assert engine.XModel(n, n - 1 - k).basis(block=True) == \
                type_r_keys(g, r, whole), (g, k, r)


def test_nontorsion_tables_match_the_whole_chain_matrices():
    for g, k in nontorsion_cases():
        want = {n: GroupPresentation(v) for n, v in full_nontorsion_ranks(g, k).items()}
        for sign in (1, -1):
            table, _ = engine.hf_plus_nontorsion(g, sign * k)
            assert table.entries == want, (g, sign * k)


def test_phi_image_rank_matches_the_whole_basis():
    for g, k in nontorsion_cases():
        assert engine.phi_image_rank(g, k) == full_phi_image_rank(g, k), (g, k)


def test_h1_corrections_match_the_action_per_class():
    for g, k in nontorsion_cases():
        for key in engine.XModel(g, g - 1 - k).basis():
            want = [(gi, h1_action(g, k, gi, key)[1]) for gi in range(1, 2 * g + 1)]
            assert list(engine.h1_corrections(g, k, key)) == want, (g, k, key)


def test_nontorsion_ranks_build_no_whole_chain_matrix(monkeypatch):
    types = []
    chain_matrix = nontorsion.chain_matrix

    def spy(*args, **kwargs):
        types.append(args[3] if len(args) > 3 else kwargs.get("block", False))
        return chain_matrix(*args, **kwargs)

    monkeypatch.setattr(nontorsion, "chain_matrix", spy)
    nontorsion._chain_cached.cache_clear()
    nontorsion.hf_plus_nontorsion(5, 1)
    assert types and all(types)


class J_GEQ0:
    """The half plane j >= 0, as a region for GradedElement.project."""

    @staticmethod
    def contains(i, j):
        return j >= 0


def composed_phi_series(xi, kk):
    """Alternating sum of (pr_{i>=0} U^|k| pr_{j>=0} J)^n, composed on
    GradedElements."""
    out = GradedElement(xi.genus)
    term, sign = xi, 1
    while not term.is_zero():
        out = out + term.scale(sign)
        term = j_infinity(term).project(J_GEQ0).u_power(kk).project(B_PLUS)
        sign = -sign
    return out


def composed_F(y, g, kk):
    """F = v + h into the corner j >= -|k|, composed on GradedElements."""
    return (y.project(corner(-kk))
            + j_infinity(y).u_power(kk).project(corner(-kk)))


def composed_act(g, kk, gamma, xi):
    """(standard part, corrections) of the action of one class on a model
    element, composed on GradedElements."""
    n = xi.degrees()[0]
    y = gamma_action(gamma, composed_phi_series(xi, kk), truncate=True)
    assert composed_F(y, g, kk).is_zero()
    std = gamma_action(gamma, xi, truncate=True)
    corr = y.project(nontorsion._TriangleRegion(kk)) - std
    buckets = {}
    for (i, m), v in corr.terms.items():
        buckets.setdefault(2 * i + blade_grade(m) - g, {})[(i, m)] = v
    corrections = []
    for deg in sorted(buckets, reverse=True):
        ell = Fraction(n - 1 - deg, 2 * kk)
        assert ell.denominator == 1 and ell > 0
        value = GradedElement(g, buckets[deg])
        (power,) = {blade_grade(m) for (_i, m) in value.terms}
        (uexp,) = {-i for (i, _m) in value.terms}
        corrections.append(engine.CorrectionTerm(int(ell), value, power, uexp, deg))
    return std, corrections


def test_phi_series_and_F_match_the_composed_maps():
    for g, k in nontorsion_cases():
        for key in engine.XModel(g, g - 1 - k).basis():
            xi = GradedElement(g, {key: 1})
            ph = engine.phi_series(xi, k)
            assert ph == composed_phi_series(xi, k), (g, k, key)
            assert engine.apply_F(xi, g, k) == composed_F(xi, g, k), (g, k, key)
            assert engine.apply_F(ph, g, k).is_zero(), (g, k, key)


def hand_written_images(g, kk):
    """The phi step and F as single-term maps written out on _flip_blade,
    the form the engine had before both came from cfk._op_terms."""
    def step(i, mask):
        out = []
        for di, m2, w in _flip_blade(g, mask):
            i2 = i + di  # J, then keep j >= 0, shift by U^|k|, keep i >= 0
            if i2 + blade_grade(m2) - g >= 0 and i2 >= kk:
                out.append(((i2 - kk, m2), w))
        return tuple(out)

    def fmap(i, mask):
        out = []
        if i >= 0 and i + blade_grade(mask) - g >= -kk:
            out.append(((i, mask), 1))
        for di, m2, w in _flip_blade(g, mask):
            i2 = i + di - kk
            if i2 >= 0 and i2 + blade_grade(m2) - g >= -kk:
                out.append(((i2, m2), w))
        return tuple(out)

    return step, fmap


def test_term_images_match_the_hand_written_maps():
    # every model key and every term of its phi series and, at g <= 4,
    # every term with -1 <= i <= g + 1; images compared in order
    for g, k in nontorsion_cases():
        images = nontorsion._nontorsion_images(g, k)
        refs = hand_written_images(g, k)
        terms = set()
        for key in engine.XModel(g, g - 1 - k).basis():
            terms |= {key, *engine.phi_series(GradedElement(g, {key: 1}), k).terms}
        if g <= 4:
            terms |= set(product(range(-1, g + 2), range(4 ** g)))
        for t in terms:
            for image, ref in zip(images, refs):
                assert image[t] == ref(*t), (g, k, t)


def test_F_matches_the_composed_map_on_random_elements():
    rng = random.Random(10)
    for g, k in nontorsion_cases():
        for _ in range(20):
            y = GradedElement(g, {(rng.randrange(g + 2), rng.randrange(4 ** g)):
                                  rng.randint(-3, 3) for _ in range(rng.randint(1, 8))})
            assert engine.apply_F(y, g, k) == composed_F(y, g, k), (g, k, y)


def test_action_matches_the_composed_maps():
    found = 0
    for g, k in nontorsion_cases():
        for key in engine.XModel(g, g - 1 - k).basis():
            xi = GradedElement(g, {key: 1})
            want = [composed_act(g, k, gi, xi) for gi in range(1, 2 * g + 1)]
            assert [h1_action(g, k, gi, key)
                    for gi in range(1, 2 * g + 1)] == want, (g, k, key)
            assert list(engine.h1_corrections(g, k, key)) == [
                (gi, corrs) for gi, (_std, corrs) in enumerate(want, 1)], (g, k, key)
            found += sum(len(corrs) for _std, corrs in want)
    assert found  # g = 5, k = 1 has corrections (3|k| <= g - 2)
