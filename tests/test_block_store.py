"""The content-addressed block store (hfsigma.blocks): one Smith form per
distinct matrix in a process, across degrees, ops and genera."""

import pytest

from hfsigma import blocks, bundle, engine
from hfsigma.cfk import OPS, slice_map
from hfsigma.linalg import SparseExactMatrix
from hfsigma.rings import ZZ
from oracles import type_r_block, type_r_keys


def matrix_key(m):
    return m.rows, m.cols, frozenset(m.entries.items())


@pytest.fixture
def snf_calls(monkeypatch):
    """A fresh store; the matrices handed to smith_normal_form, in order."""
    for table in ("_BLOCKS", "_FACTORS", "_KERNELS"):
        monkeypatch.setattr(blocks, table, {})
    calls = []
    snf = blocks.smith_normal_form

    def counted(m):
        calls.append(matrix_key(m))
        return snf(m)

    monkeypatch.setattr(blocks, "smith_normal_form", counted)
    return calls


def torsion_tables(g):
    return engine.hf_hat(g), engine.hf_infinity(g, ZZ), engine.hf_plus_torsion(g)


def test_one_smith_form_per_distinct_matrix(snf_calls):
    torsion_tables(5)
    read = {matrix_key(blocks._build(*key)) for key in blocks._BLOCKS}
    assert len(blocks._BLOCKS) > len(read)  # equal blocks under several keys
    assert sorted(snf_calls, key=repr) == sorted(read, key=repr)


def test_a_new_genus_reduces_only_new_type_0_blocks(snf_calls, monkeypatch):
    # the genus-5 tables reuse every weight-zero block of genus <= 4 and
    # build only genus-5 ones
    torsion_tables(4)
    seen = {digest for _, _, digest in blocks._BLOCKS.values()}
    before = len(snf_calls)
    built = []
    build = blocks._build

    def recorded(*key):
        built.append(key)
        return build(*key)

    monkeypatch.setattr(blocks, "_build", recorded)
    torsion_tables(5)
    assert built and {key[0] for key in built} == {5}
    assert all(len(key) == 3 for key in blocks._BLOCKS)
    new = {blocks._BLOCKS[key][2] for key in built} - seen
    assert len(snf_calls) - before == len(new) > 0


def test_eg_at_a_new_genus_builds_only_its_own_blocks(snf_calls, monkeypatch):
    bundle.eg_cohomology(3)
    bundle.contraction_cokernel_comparison(3)
    built = []
    build = blocks._build
    monkeypatch.setattr(blocks, "_build", lambda *key: built.append(key) or build(*key))
    bundle.eg_cohomology(4)
    bundle.contraction_cokernel_comparison(4)
    assert built and {key[0] for key in built} == {4}


@pytest.mark.parametrize("op", ("F", "F_hat", "one_plus_J", "omega"))
def test_a_block_is_stored_under_a_degree_with_the_same_matrix(op):
    for n in range(7):
        for d in range(-n - 8, n + 9):
            key = blocks._key(n, op, d)
            assert key[:2] == (n, op)
            want = blocks._build(n, op, d)
            assert list(blocks._build(*key).entries.items()) == list(want.entries.items())
            assert blocks._digest(blocks._build(*key)) == blocks._digest(want), (n, d)
        # past the genus, one key per parity
        assert len({blocks._key(n, op, d) for d in range(n + 1, n + 9)}) <= 2


def test_the_store_gives_the_tables_of_a_fresh_process(snf_calls):
    torsion_tables(3)
    warm = torsion_tables(4)
    blocks.release_store()
    assert torsion_tables(4) == warm


@pytest.mark.parametrize("g", range(2, 7))
def test_type_r_blocks_equal_type_0_blocks_of_genus_g_minus_r(g):
    # every slice op at s = 0, -1, -2 keeps its slice degree: the type-r
    # block of the whole genus-g matrix is the weight-zero block at g - r,
    # bases, entries and entry order alike
    for op in OPS:
        for s in (0, -1, -2):
            for d in range(-g - 3, g + 4):
                sm = slice_map(g, op, d, s)
                rows = [m for _, m in sm.target.elements]
                cols = [m for _, m in sm.source.elements]
                for r in range(g + 1):
                    base = slice_map(g - r, op, d, s, block=True)
                    want = type_r_block(g, r, sm.matrix, rows, cols)
                    assert base.source.elements == type_r_keys(g, r, sm.source.elements)
                    assert base.target.elements == type_r_keys(g, r, sm.target.elements)
                    assert list(base.matrix.entries.items()) == \
                        list(want.entries.items()), (op, s, d, r)
                    assert blocks._digest(base.matrix) == blocks._digest(want)


def test_the_digest_tells_matrices_apart():
    a = slice_map(4, "F", 0, block=True).matrix  # 6 x 11
    b = slice_map(4, "F", 2, block=True).matrix
    assert blocks._digest(a) != blocks._digest(b)
    transposed = SparseExactMatrix.from_int_entries(
        a.cols, a.rows, {(c, r): v for (r, c), v in a.entries.items()})
    assert a.rows != a.cols and blocks._digest(transposed) != blocks._digest(a)
    assert len(blocks._digest(a)) == 32
