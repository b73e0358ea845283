"""Tables over Q and F_p read off integer Smith forms, and the reduced part
and U-action read off weight blocks, against the routes they replace.

The reference routes below eliminate whole slice matrices over each ring
separately, as the engine did before one Smith form per integer matrix
served every ring and before the reduced part moved to weight blocks: the
reduced part takes full integer kernel lattices at d and at hi, solves for
the coordinates of the subgroup and takes a cokernel (F_p kernel bases and
ranks over F_p), the U-action ranks quotients of whole kernel lattices and
whole [F | U^N] stacks, and the circle-bundle cohomology takes a rank over
the ring next to a cokernel of whole wedge-omega matrices.  The contraction
comparison is checked against the whole matrix of contraction by
1 - exp(-omega) on each half of the exterior algebra, and its subset-built
blocks against the summed eta_n contracted through Multivector.
"""

from fractions import Fraction

import pytest

from hfsigma import blocks, bundle, engine, lefschetz, linalg
from hfsigma.cfk import B_PLUS, corner, slice_map, u_chain_map, u_slice_map
from hfsigma.exterior import Multivector, blades_of_grade, eta
from hfsigma.lefschetz import raising_matrix
from hfsigma.linalg import (GroupPresentation, SparseExactMatrix, cokernel,
                            integer_kernel_lattice, kernel_basis,
                            lattice_quotient, rank)
from hfsigma.rings import GF, QQ, ZZ
from oracles import solve_columns, type_r_block

RINGS = (ZZ, QQ, GF(2), GF(3))


def reference_reduced(g, d, ring):
    hi = engine._stable_hi(g, d)
    steps = (hi - d) // 2
    un = u_chain_map(g, B_PLUS, hi, steps).matrix
    f_lo = slice_map(g, "F", d).matrix
    f_hi = slice_map(g, "F", hi).matrix
    f1 = slice_map(g, "F", d + 1).matrix
    un1 = u_chain_map(g, corner(0), hi + 1, steps).matrix
    stack = SparseExactMatrix.hstack(f1, un1)
    if ring.p is not None:
        k_lo = kernel_basis(f_lo, ring)
        img = [c for c in un.mul_columns(kernel_basis(f_hi, ring)) if c]
        span = rank(SparseExactMatrix.from_columns(f_lo.cols, img), ring) if img else 0
        return GroupPresentation(len(k_lo) - span + f1.rows - rank(stack, ring))
    k_lo = integer_kernel_lattice(f_lo)
    img = [v for v in un.mul_columns(integer_kernel_lattice(f_hi)) if v]
    red_k = GroupPresentation()
    if k_lo:
        coords = solve_columns(k_lo, img, f_lo.cols)
        # integer entries reject a non-integral coordinate
        pres = SparseExactMatrix(len(k_lo), len(img),
                                 {(i, j): v for j, sol in enumerate(coords)
                                  for i, v in sol.items()})
        red_k = cokernel(pres)
    red = red_k.direct_sum(cokernel(stack))
    return GroupPresentation(red.free_rank) if ring == QQ else red


def reference_u_action_red(g):
    window = (-g, g - 1)

    def kdata(d):
        hi = engine._stable_hi(g, d)
        un = u_chain_map(g, B_PLUS, hi, (hi - d) // 2).matrix
        k_hi = integer_kernel_lattice(slice_map(g, "F", hi).matrix)
        return integer_kernel_lattice(slice_map(g, "F", d).matrix), un.mul_columns(k_hi)

    def cdata(d1):
        hi1 = engine._stable_hi(g, d1)
        f1 = slice_map(g, "F", d1).matrix
        un1 = u_chain_map(g, corner(0), hi1, (hi1 - d1) // 2).matrix
        return [{i: 1} for i in range(f1.rows)], f1.col_dicts() + un1.col_dicts()

    per_degree = {}
    for d in range(window[0], window[1] + 1):
        klo, w1k = kdata(d)
        _, w2k = kdata(d - 2)
        u_b = u_slice_map(g, B_PLUS, d).matrix
        vc, w1c = cdata(d + 1)
        _, w2c = cdata(d - 1)
        u_c = u_slice_map(g, corner(0), d + 1).matrix
        dims = [k + c for k, c in
                zip(engine._quotient_map_dims(u_b, klo, w1k, w2k),
                    engine._quotient_map_dims(u_c, vc, w1c, w2c))]
        per_degree[engine.half(d)] = dict(zip(("dim", "ker", "img"), dims))
    for delta, row in per_degree.items():
        target = per_degree.get(delta - 2)
        row["surjective"] = target is None or row["img"] == target["dim"]
        row["injective"] = row["ker"] == 0
    support = [delta for delta, row in per_degree.items() if row["dim"]]
    formula = engine.unexpected_u_kernel_dim(g)
    got = per_degree.get(Fraction(1, 2), {"ker": 0})["ker"]
    checks = {
        "surjective_at_and_below_middle": all(
            per_degree[delta]["surjective"]
            for delta in support if delta <= Fraction(-1, 2)),
        "injective_above": all(row["injective"] for delta, row in per_degree.items()
                               if delta > Fraction(3, 2)),
        "unexpected_kernel_formula": formula,
        "unexpected_kernel_computed": got,
        "unexpected_kernel_matches": got == formula,
    }
    return {"genus": g,
            "per_degree": {str(k): v for k, v in sorted(per_degree.items())},
            "checks": checks}


def reference_eg(g, ring):
    out = {}
    for j in range(0, 2 * g + 2):
        cok_m = raising_matrix(g, j - 2)
        ker_m = raising_matrix(g, j - 1)
        if ring == ZZ:
            cok = cokernel(cok_m)
            krank = ker_m.cols - rank(ker_m, QQ)
        else:
            cok = GroupPresentation(cok_m.rows - rank(cok_m, ring))
            krank = ker_m.cols - rank(ker_m, ring)
        out[j] = GroupPresentation(cok.free_rank + krank, cok.invariant_factors)
    return out


def reference_contraction_matrix(g, parity):
    """Contraction by (1 - exp(-omega)) = sum_{n>=1} (-1)^(n+1) eta_n on the
    even or odd half of the whole exterior algebra, through
    Multivector.contract, and the masks of its rows and columns."""
    src = [m for p in range(parity, 2 * g + 1, 2) for m in blades_of_grade(g, p)]
    idx = {m: i for i, m in enumerate(src)}
    mat = SparseExactMatrix(len(src), len(src))
    op = Multivector.zero(g)
    for n in range(1, g + 1):
        op = op + eta(n, g).scale((-1) ** (n + 1))
    for c, mask in enumerate(src):
        img = op.contract(Multivector.from_blade(g, mask))
        for m2, v in img.coeffs.items():
            mat[idx[m2], c] = mat[idx[m2], c] + v
    return mat, src


@pytest.mark.parametrize("ring", RINGS, ids=lambda ring: ring.tag)
def test_reduced_part_matches_the_per_ring_reference(ring):
    for g in range(1, 6 if ring in (ZZ, GF(2)) else 5):
        lo, hi = engine.default_plus_window(g)
        want = {engine.half(d): reference_reduced(g, d, ring) for d in range(lo, hi + 1)}
        assert engine.hf_plus_reduced(g, ring).entries == want, g


@pytest.mark.parametrize("g", (3, 4, 5))
def test_u_action_matches_the_whole_matrix_reference(g):
    assert engine.u_action_red(g) == reference_u_action_red(g)


def test_reduced_part_and_u_action_build_only_weight_blocks(monkeypatch):
    for obj in vars(engine).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    for table in ("_BLOCKS", "_FACTORS", "_KERNELS"):
        monkeypatch.setattr(blocks, table, {})
    whole = []

    def blocks_only(fn):
        def wrapper(*args, **kwargs):
            if not kwargs.get("block"):
                whole.append((fn.__name__,) + args)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("slice_map", "u_chain_map", "u_slice_map"):
        monkeypatch.setattr(engine, name, blocks_only(getattr(engine, name)))
    monkeypatch.setattr(blocks, "slice_map", blocks_only(blocks.slice_map))
    for ring in (ZZ, QQ, GF(3)):
        engine.hf_plus_reduced(4, ring)
    engine.u_action_red(4)
    assert whole == []


def test_field_reduced_parts_take_no_kernel(monkeypatch):
    # over a field the reduced part is read off ranks alone: no kernel basis,
    # no kernel lattice and no lattice quotient; over Z both are taken
    for table in ("_BLOCKS", "_FACTORS", "_KERNELS"):
        monkeypatch.setattr(blocks, table, {})
    echelon, kernels, quotients = linalg._echelon, [], []

    def spied_echelon(m, p=None, want_kernel=False):
        if want_kernel:
            kernels.append((m.rows, m.cols, p))
        return echelon(m, p, want_kernel)

    def spied_quotient(*args):
        quotients.append(args[:1])
        return lattice_quotient(*args)

    monkeypatch.setattr(linalg, "_echelon", spied_echelon)
    monkeypatch.setattr(engine, "lattice_quotient", spied_quotient)
    for g in (3, 4):
        for ring in (GF(3), QQ):
            engine.hf_plus_reduced(g, ring)
    assert kernels == [] and quotients == []
    engine.hf_plus_reduced(3, ZZ)
    assert kernels and quotients


@pytest.mark.parametrize("ring", RINGS, ids=lambda ring: ring.tag)
def test_eg_cohomology_matches_the_per_ring_reference(ring):
    for g in range(1, 7 if ring == ZZ else 5):
        assert engine.eg_cohomology(g, ring) == reference_eg(g, ring), g


def test_contraction_comparison_matches_the_whole_matrices():
    for g in range(1, 6):
        for parity, (lhs, rhs) in engine.contraction_cokernel_comparison(g).items():
            assert lhs == cokernel(reference_contraction_matrix(g, parity)[0]), (g, parity)
            want = GroupPresentation()
            for j in range(parity, 2 * g + 1, 2):
                want = want.direct_sum(cokernel(raising_matrix(g, j - 2)))
            assert rhs == want, (g, parity)


def test_contraction_blocks_match_the_eta_route():
    # every entry -1, at (a ^ z_J, a) for each nonempty set J of complete
    # pairs of a, against the summed eta_n contracted blade by blade: the
    # type-r block of the grade-parity half is the weight-zero block at
    # genus g - r of the half whose grade - genus has parity - g
    for g in range(1, 7):
        for parity in (0, 1):
            whole, masks = reference_contraction_matrix(g, parity)
            for r in range(g + 1):
                want = type_r_block(g, r, whole, masks, masks)
                assert bundle._one_minus_exp_contraction_matrix(
                    g - r, (parity - g) % 2) == want, (g, parity, r)


def test_eg_builds_only_weight_blocks(monkeypatch):
    for table in ("_BLOCKS", "_FACTORS", "_KERNELS"):
        monkeypatch.setattr(blocks, table, {})
    calls = []

    def recorded(g, j, block=False):
        calls.append(block)
        return raising_matrix(g, j, block)

    monkeypatch.setattr(lefschetz, "raising_matrix", recorded)
    multivectors = []
    init = Multivector.__init__

    def counted(self, *args, **kwargs):
        multivectors.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Multivector, "__init__", counted)
    for ring in (ZZ, QQ, GF(3)):
        engine.eg_cohomology(4, ring)
    engine.contraction_cokernel_comparison(4)
    # one call per wedge block: grade - genus in -n - 2..n at each genus
    # n = 0..g, each a pair-inclusion matrix built without a Multivector
    assert len(calls) == sum(2 * n + 3 for n in range(5)) and all(calls)
    assert multivectors == []


def test_field_tables_reuse_the_integer_smith_forms(monkeypatch):
    tables = (engine.hf_hat, engine.hf_plus_torsion, engine.hf_infinity,
              engine.eg_cohomology)
    for table in tables:
        table(4, ZZ)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(blocks, "smith_normal_form", counted(blocks.smith_normal_form))
    monkeypatch.setattr(blocks, "rank", counted(blocks.rank))
    for ring in (QQ, GF(2), GF(3)):
        for table in tables:
            table(4, ring)
    assert calls == []
