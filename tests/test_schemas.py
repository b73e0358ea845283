import pytest

from hfsigma import engine, nontorsion
from hfsigma.exterior import omega
from hfsigma.linalg import GroupPresentation
from hfsigma.rings import GF, QQ, ZZ
from hfsigma.schemas import SchemaError, validate
from hfsigma.verify import run_suite


def test_group_schema():
    assert validate(GroupPresentation(2, [2, 6]).to_json(), "group")
    with pytest.raises(SchemaError):
        validate({"free_rank": -1, "invariant_factors": []}, "group")
    with pytest.raises(SchemaError):
        validate({"free_rank": 1}, "group")


def test_table_schemas():
    for table in (engine.hf_hat(2),
                  engine.hf_plus_torsion(2, QQ),
                  engine.hf_plus_reduced(3),
                  engine.hf_infinity(2, GF(2)),
                  nontorsion.hf_plus_nontorsion(3, 1)[0]):
        assert validate(table.to_json(), "table")


def test_matrix_and_multivector_schemas():
    from hfsigma.cfk import slice_map
    m = slice_map(2, "F", 1, 0).matrix
    for ring in (ZZ, QQ, GF(3)):
        assert validate(m.to_json(ring), "matrix")
    assert validate(omega(3).to_json(), "multivector")


def test_report_schema():
    rep = run_suite("sl2", 1)
    assert validate(rep.to_json(), "report")


def test_unknown_schema_rejected():
    with pytest.raises(SchemaError):
        validate({}, "nonexistent")
