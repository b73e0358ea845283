"""The content-addressed block store (hfsigma.blocks): one Smith form per
distinct matrix in a process, across degrees, ops and genera."""

import pytest

from hfsigma import blocks, engine
from hfsigma.cfk import slice_map
from hfsigma.linalg import SparseExactMatrix
from hfsigma.rings import ZZ


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


def test_a_new_genus_reduces_only_new_type_0_blocks(snf_calls):
    torsion_tables(4)
    seen = {digest for _, _, digest in blocks._BLOCKS.values()}
    before = len(snf_calls)
    torsion_tables(5)
    at5 = {key: digest for key, (_, _, digest) in blocks._BLOCKS.items() if key[0] == 5}
    assert all(at5[key] in seen for key in at5 if key[3] > 0)
    new = {at5[key] for key in at5 if key[3] == 0} - seen
    assert len(snf_calls) - before == len(new) > 0


def test_the_store_gives_the_tables_of_a_fresh_process(snf_calls):
    torsion_tables(3)
    warm = torsion_tables(4)
    blocks.release_store()
    assert torsion_tables(4) == warm


@pytest.mark.parametrize("g", range(2, 7))
def test_type_r_blocks_equal_type_0_blocks_of_genus_g_minus_r(g):
    # The same degree serves every op: for F_hat the block keeps its degree,
    # and for F and one_plus_J the even shift the degrees allow is zero.
    cases = [(op, d) for op in ("F_hat", "F") for d in range(-g - 2, g + 3)]
    cases += [("one_plus_J", d) for d in range(g, g + 3)]
    for op, d in cases:
        for r in range(1, g):
            block = slice_map(g, op, d, r=r).matrix
            base = slice_map(g - r, op, d, r=0).matrix
            assert block == base, (op, d, r)
            assert blocks._digest(block) == blocks._digest(base)


def test_the_digest_tells_matrices_apart():
    a = slice_map(4, "F", 0, r=0).matrix  # 6 x 11
    b = slice_map(4, "F", 2, r=0).matrix
    assert blocks._digest(a) != blocks._digest(b)
    transposed = SparseExactMatrix.from_int_entries(
        a.cols, a.rows, {(c, r): v for (r, c), v in a.entries.items()})
    assert a.rows != a.cols and blocks._digest(transposed) != blocks._digest(a)
    assert len(blocks._digest(a)) == 32
