from fractions import Fraction
from math import comb

import pytest

from hfsigma import blocks, engine, nontorsion
from hfsigma.errors import BudgetExceeded, Deadline, DomainError, UnsupportedOperation
from hfsigma.linalg import GroupPresentation
from hfsigma.rings import GF, QQ, ZZ
from oracles import h1_action


def test_hat_against_closed_form():
    for g in (1, 2, 3):
        table = engine.hf_hat(g)
        for d, grp in table.entries.items():
            assert grp.free_rank == engine.hf_hat_closed_form_rank(g, d)
            assert grp.is_free()
    assert engine.hf_hat(1).rank_at(Fraction(1, 2)) == 3
    assert engine.hf_hat(3).rank_at(Fraction(5, 2)) == 1
    assert engine.hf_hat(3).rank_at(Fraction(-1, 2)) == 29


def test_hat_duality():
    for g in (1, 2, 3):
        t = engine.hf_hat(g)
        for d in t.entries:
            assert t.rank_at(d) == t.rank_at(-d)


def test_sign_determination():
    for g in (2, 3, 4):
        cks = engine.sign_choice_cokernels(g)
        assert cks[(-1) ** (g - 1)].is_free()
        assert not cks[(-1) ** g].is_free()


def test_infinity_ranks():
    for g in (1, 2, 3):
        for d, grp in engine.hf_infinity(g, QQ).entries.items():
            assert grp.free_rank == comb(2 * g + 1, g)
        for d, grp in engine.hf_infinity(g, GF(2)).entries.items():
            assert grp.free_rank == 2 ** (2 * g - 1) + 2 ** (g - 1)


def test_infinity_budget_covers_field_ranks():
    for ring in (ZZ, QQ, GF(3)):
        with pytest.raises(BudgetExceeded), Deadline(-1):
            engine.hf_infinity(3, ring)


def test_budget_covers_hat_and_plus():
    for ring in (ZZ, GF(3)):
        for flavor in (engine.hf_hat, engine.hf_plus_torsion, engine.hf_plus_reduced):
            with pytest.raises(BudgetExceeded), Deadline(-1):
                flavor(3, ring)


def test_budget_holds_against_cached_blocks():
    for ring in (ZZ, GF(3)):
        for flavor in (engine.hf_hat, engine.hf_plus_torsion, engine.hf_infinity):
            flavor(3, ring)
            with pytest.raises(BudgetExceeded), Deadline(-1):
                flavor(3, ring)


def test_budget_covers_nontorsion():
    with pytest.raises(BudgetExceeded), Deadline(-1):
        engine.hf_plus_nontorsion(3, 1)
    with pytest.raises(BudgetExceeded), Deadline(-1):
        engine.phi_image_rank(3, 1)


class CountingDeadline(Deadline):
    def __init__(self):
        super().__init__(3600)
        self.ticks = 0

    def tick(self):
        self.ticks += 1


def test_phi_series_ticks():
    from hfsigma.cfk import GradedElement
    xi = GradedElement(3, {(0, 0): 1})
    with pytest.raises(BudgetExceeded), Deadline(-1):
        engine.phi_series(xi, 1)
    with pytest.raises(BudgetExceeded), Deadline(-1):
        list(engine.h1_corrections(3, 1, (0, 0)))
    with pytest.raises(BudgetExceeded), Deadline(-1):
        h1_action(3, 1, 1, (0, 0))
    # once per term, the zero term that ends the series included
    for g, key, terms in ((3, (0, 0), 1), (5, (3, 0), 2)):
        with CountingDeadline() as counter:
            ph = engine.phi_series(GradedElement(g, {key: 1}), 1)
        assert len(ph.degrees()) == terms and counter.ticks == terms + 1


def test_budget_covers_u_action():
    from hfsigma.cfk import B_PLUS, u_chain_map, u_slice_map
    with pytest.raises(BudgetExceeded), Deadline(-1):
        engine.u_action_red(4)
    for block in (False, True):
        with pytest.raises(BudgetExceeded), Deadline(-1):
            u_chain_map(4, B_PLUS, 2, 2, block=block)
        with pytest.raises(BudgetExceeded), Deadline(-1):
            u_slice_map(4, B_PLUS, 2, block=block)
    with CountingDeadline() as counter:
        sm = u_chain_map(4, B_PLUS, 2, 2)
    assert counter.ticks == sm.matrix.cols


def test_chain_matrix_matches_per_entry_assembly():
    from hfsigma.cfk import B_PLUS, _flip_blade, corner, slice_basis
    from hfsigma.linalg import SparseExactMatrix
    for g in (2, 3, 4):
        for kk in (1, 2):
            degs = list(range(-g, g, 2 * kk))
            sm = engine.chain_matrix(g, kk, degs)
            m = sm.matrix
            colkeys = [(sl.degree, i, mask) for sl in sm.source.slices
                       for (i, mask) in sl.elements]
            rowoff, off = {}, 0
            for sl in sm.target.slices:
                rowoff[sl.degree], off = off, off + sl.size
            ref = SparseExactMatrix(m.rows, m.cols)
            for c, (d, i, mask) in enumerate(colkeys):
                terms = [(d, (i, mask), 1)] + [(d - 2 * kk, (i + di - kk, m2), w)
                                               for di, m2, w in _flip_blade(g, mask)]
                for dd, key, w in terms:
                    r = slice_basis(g, corner(-kk), dd).index.get(key)
                    if r is not None:
                        ref[rowoff[dd] + r, c] = ref[rowoff[dd] + r, c] + w
            assert [(d, i, mask) for d in degs
                    for (i, mask) in slice_basis(g, B_PLUS, d).elements] == colkeys
            assert list(m.entries.items()) == list(ref.entries.items())


def test_chain_matrix_ticks_once_per_column():
    with pytest.raises(BudgetExceeded), Deadline(-1):
        engine.chain_matrix(3, 1, [-3, -1, 1])
    with CountingDeadline() as counter:
        m = engine.chain_matrix(3, 1, [-3, -1, 1]).matrix
    assert m.cols and counter.ticks == m.cols


def test_infinity_torsion_g3():
    tz = engine.hf_infinity(3, ZZ)
    factors = tz.all_invariant_factors()
    assert any(f % 2 == 0 for f in factors)
    # below the threshold everything is free
    assert engine.hf_infinity(2, ZZ).all_invariant_factors() == []


def test_plus_reduced_small_genus():
    assert engine.hf_plus_reduced(1).support() == []
    assert engine.hf_plus_reduced(2).support() == []
    red3 = engine.hf_plus_reduced(3)
    assert red3.support() == [Fraction(-1, 2)]
    assert red3.entries[Fraction(-1, 2)] == GroupPresentation(1)


def test_plus_reduced_matches_model_g4():
    red = engine.hf_plus_reduced(4)
    dims = engine.x_model_dims(4, 1)
    for d, grp in red.entries.items():
        assert grp.free_rank == dims.get(d - Fraction(5, 2), 0)
        assert grp.is_free()
    assert red.support() == [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2)]


def test_plus_stabilizes_to_infinity():
    for g in (2, 3):
        plus = engine.hf_plus_torsion(g)
        inf = engine.hf_infinity(g, ZZ)
        for d in plus.entries:
            if d < Fraction(2 * g - 1, 2):
                continue
            ref = next(grp for dd, grp in inf.entries.items() if (dd - d) % 2 == 0)
            assert plus.entries[d] == ref


def test_x_model():
    m = engine.XModel(3, 0)
    assert m.dims() == {-3: 1}
    assert m.total_rank() == 1
    m = engine.XModel(4, 2)
    assert m.total_rank() == sum(comb(8, i) * (2 - i + 1) for i in range(3))
    assert m.max_degree() == 0 and m.min_degree() == -4
    assert engine.XModel(3, -1).total_rank() == 0


def test_nontorsion_tables():
    tbl, model = engine.hf_plus_nontorsion(2, 1)
    assert dict(tbl.entries) == {-2: GroupPresentation(1)}
    tbl, model = engine.hf_plus_nontorsion(3, 2)
    assert dict(tbl.entries) == {-3: GroupPresentation(1)}
    tbl, _ = engine.hf_plus_nontorsion(3, 3)
    assert not tbl.entries and tbl.metadata.get("vanishes")
    for k in (1, 2):
        tbl, model = engine.hf_plus_nontorsion(3, k)
        dims = model.dims()
        assert {n: grp.free_rank for n, grp in tbl.entries.items()} \
            == {n: v for n, v in dims.items() if v}
        assert tbl.metadata["phi_rank_checked"]


def test_nontorsion_conjugation():
    a, _ = engine.hf_plus_nontorsion(3, 1)
    b, _ = engine.hf_plus_nontorsion(3, -1)
    assert a.entries == b.entries


def test_k_zero_rejected():
    with pytest.raises(DomainError):
        engine.hf_plus_nontorsion(3, 0)
    with pytest.raises(UnsupportedOperation):
        h1_action(3, 0, 1, (0, 0))


def test_action_standard_small():
    # 3|k| > g-2 forces the bare action
    for (g, k) in ((3, 1), (3, 2), (4, 2)):
        model = engine.XModel(g, g - 1 - abs(k))
        for key in model.basis():
            for gi in range(1, 2 * g + 1):
                _, corrs = h1_action(g, k, gi, key)
                assert corrs == []


def test_action_nonhomogeneous_rejected():
    from hfsigma.cfk import GradedElement
    xi = GradedElement(3, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(DomainError):
        h1_action(3, 1, 1, xi)


def test_u_action_red_g3():
    rep = engine.u_action_red(3)
    cks = rep["checks"]
    assert cks["unexpected_kernel_matches"]
    assert cks["unexpected_kernel_formula"] == 0
    assert cks["surjective_at_and_below_middle"]
    assert cks["injective_above"]
    assert engine.u_action_red(2).get("empty")


def test_unexpected_kernel_formula_values():
    # rank of the star-fixed lattice minus the middle primitive dimension
    from hfsigma.lefschetz import primitive_dim, self_dual_rank
    for g in (3, 4, 5, 6):
        assert engine.unexpected_u_kernel_dim(g) == self_dual_rank(g) - primitive_dim(g, g)


def test_eg_cohomology():
    for g in (1, 2, 3):
        egq = engine.eg_cohomology(g, QQ)
        assert set(egq) == set(range(0, 2 * g + 2))
        for j, grp in egq.items():
            assert grp.free_rank == engine.eg_rank_prediction(g, j)
    # g=2, j=1 has rank C(4,1); total rank over a period is C(2g+1, g)
    assert engine.eg_cohomology(2, QQ)[1].free_rank == comb(4, 1)
    tot = sum(grp.free_rank for grp in engine.eg_cohomology(3, QQ).values())
    assert tot == 2 * comb(7, 3)
    egz = engine.eg_cohomology(3, ZZ)
    assert any(f % 2 == 0 for grp in egz.values() for f in grp.invariant_factors)


def test_contraction_cokernels_agree():
    for g in (1, 2, 3):
        for parity, (lhs, rhs) in engine.contraction_cokernel_comparison(g).items():
            assert lhs == rhs


def test_beta():
    # single-triple evaluation
    import itertools
    m = engine.triple_cup_beta(2, 3)
    src = sorted(sum(1 << b for b in bits) for bits in itertools.combinations(range(5), 3))
    col = m.col_dicts()[src.index((1 << 0) | (1 << 1) | (1 << 4))]
    assert col == {0: 1}
    for s in range(0, 3):
        assert engine.triple_cup_beta(2, s).nnz() == 0
    for g in (1, 2):
        dims = engine.beta_quotient_dims(g)
        assert sum(dims.values()) == 2 * comb(2 * g + 1, g)


def test_f_restriction_surjective():
    assert engine.f_restriction_surjective(2, 1)
    assert engine.f_restriction_surjective(3, 2)
    assert engine.f_restriction_surjective(3, 1, 2, 1)  # empty window


def reference_f_restriction(g, kk, d_lo, d_hi):
    """Row count and nonzero columns of F from the corner slices over d_lo
    .. d_hi + 2|k| to those over d_lo .. d_hi, each column assembled on its
    own from _flip_blade."""
    from hfsigma.cfk import _flip_blade, corner, slice_basis
    rowbases = {d: slice_basis(g, corner(-kk), d) for d in range(d_lo, d_hi + 1)}
    rowoff = {}
    nrows = 0
    for d, tb in rowbases.items():
        rowoff[d] = nrows
        nrows += tb.size
    cols = []
    for d in range(d_lo, d_hi + 2 * kk + 1):
        for (i, mask) in slice_basis(g, corner(-kk), d).elements:
            col = {}
            tb = rowbases.get(d)
            if tb is not None:
                idx = tb.index.get((i, mask))
                if idx is not None:
                    col[rowoff[d] + idx] = 1
            tb2 = rowbases.get(d - 2 * kk)
            if tb2 is not None:
                for di, m2, w in _flip_blade(g, mask):
                    idx2 = tb2.index.get((i + di - kk, m2))
                    if idx2 is not None:
                        r = rowoff[d - 2 * kk] + idx2
                        col[r] = col.get(r, 0) + w
            if col:
                cols.append(col)
    return nrows, cols


def test_f_restriction_matches_the_column_reference(monkeypatch):
    from hfsigma.linalg import SparseExactMatrix, rank
    seen = []
    monkeypatch.setattr(nontorsion, "rank", lambda m, ring: seen.append(m) or rank(m, ring))
    for g in range(2, 5):
        for kk in range(1, g):
            for lo, hi in ((-g, g), (0, g - 1)):
                nrows, cols = reference_f_restriction(g, kk, lo, hi)
                ref = SparseExactMatrix.from_columns(nrows, cols)
                got = engine.f_restriction_surjective(g, kk, lo, hi)
                assert got == (rank(ref, QQ) == nrows), (g, kk, lo, hi)
                m = seen.pop()
                assert m.rows == nrows and [c for c in m.col_dicts() if c] == cols


def test_correction_location_g8_picture():
    # a degree-4 element of X(8,6) in the zeroth power: first correction in
    # the third power at U^-3, second in the fifth power at U^-1
    assert engine.correction_location(8, 1, 4, 1) == (3, -3, 1)
    assert engine.correction_location(8, 1, 4, 2) == (5, -1, -1)
    # at most two corrections are allowed there: floor((n+|k|)/2|k|) = 2
    assert (4 + 1) // 2 == 2


def test_table_json():
    t = engine.hf_hat(2)
    data = t.to_json()
    assert data["flavor"] == "hat" and data["ring"] == "Z"
    degs = [e["deg"] for e in data["entries"]]
    assert degs == sorted(degs, key=Fraction)


def test_table_defaults_and_equality():
    t = engine.FloerTable(2, 0, ZZ, "hat")
    assert (t.entries, t.towers) == ({}, [])
    assert t.metadata == {"basis_order": blocks.BASIS_ORDER}
    assert t == engine.FloerTable(2, 0, ZZ, "hat", {}, [], {})
    assert t != engine.FloerTable(2, 0, QQ, "hat")
    assert engine.hf_hat(2) == engine.hf_hat(2)
