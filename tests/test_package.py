import ast
import importlib
import os
import subprocess
import sys

import pytest

import hfsigma

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Every name the package re-exported when it imported each layer eagerly.
REEXPORTS = {
    "errors": ["BudgetExceeded", "DomainError", "ExtendedScaleRequired",
               "GenusMismatch", "UnsupportedOperation"],
    "exterior": ["Multivector", "contract", "eta", "hodge_lefschetz_star",
                 "interior", "omega", "wedge"],
    "lefschetz": ["op_H", "op_L", "op_lambda", "primitive_basis",
                  "primitive_decomposition", "self_dual_lattice"],
    "linalg": ["GroupPresentation", "SparseExactMatrix", "cokernel",
               "kernel_basis", "kernel_rank", "rank", "smith_normal_form"],
    "cfk": ["GradedElement", "SliceBasis", "j_infinity", "slice_basis",
            "slice_map"],
    "engine": ["FloerTable", "hf_hat", "hf_infinity", "hf_plus_reduced",
               "hf_plus_torsion", "u_action_red"],
    "nontorsion": ["XModel", "hf_plus_nontorsion"],
    "bundle": ["eg_cohomology", "triple_cup_beta"],
    "rings": ["GF", "QQ", "ZZ", "Ring", "parse_ring"],
}

# Names that left a module, by (old module, new module): the old module
# still resolves each to the same object (bench/launch.py binds names as
# (module, attr) pairs).
MOVED = {
    ("engine", "nontorsion"): [
        "CorrectionTerm", "XModel", "apply_F", "chain_matrix",
        "correction_location", "f_restriction_surjective", "h1_corrections",
        "hf_plus_nontorsion", "phi_image_rank", "phi_series", "x_model_dims"],
    ("engine", "bundle"): [
        "beta_quotient_dims", "contraction_cokernel_comparison",
        "eg_cohomology", "eg_rank_prediction", "triple_cup_beta"],
    ("exterior", "blades"): [
        "blade_grade", "blades_of_grade", "complete_pairs", "pair_mask",
        "star_blade", "swap_pairs"],
}


@pytest.mark.parametrize("old,new", sorted(MOVED))
def test_moved_names_resolve_from_their_old_module(old, new):
    old_mod = importlib.import_module(f"hfsigma.{old}")
    new_mod = importlib.import_module(f"hfsigma.{new}")
    for name in MOVED[old, new]:
        assert getattr(old_mod, name) is getattr(new_mod, name), name
    with pytest.raises(AttributeError):
        old_mod.no_such_name  # noqa: B018


@pytest.mark.parametrize("module", sorted(REEXPORTS))
def test_reexports_resolve_to_their_submodule(module):
    sub = importlib.import_module(f"hfsigma.{module}")
    for name in REEXPORTS[module]:
        namespace = {}
        exec(f"from hfsigma import {name}", namespace)
        assert namespace[name] is getattr(sub, name), name


def test_star_import_and_dir_list_every_reexport():
    namespace = {}
    exec("from hfsigma import *", namespace)
    for module, names in REEXPORTS.items():
        sub = importlib.import_module(f"hfsigma.{module}")
        for name in names:
            assert namespace[name] is getattr(sub, name)
            assert name in dir(hfsigma)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        hfsigma.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hfsigma import no_such_name", {})


def test_engine_import_leaves_lefschetz_unloaded():
    # nontorsion and action never use it; its users import it themselves,
    # and lefschetz in turn loads the Multivector layer only when called
    code = ("import sys, hfsigma.engine, hfsigma.nontorsion; "
            "print('hfsigma.lefschetz' in sys.modules); import hfsigma.lefschetz; "
            "print('hfsigma.exterior' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.split() == ["False", "False"]


def test_import_loads_no_layer():
    code = ("import sys, hfsigma; "
            "print(sorted(m for m in sys.modules if m.startswith('hfsigma'))); "
            "print(hfsigma.engine.hf_hat is hfsigma.hf_hat)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.split("\n")[:2] == ["['hfsigma']", "True"]


def test_every_module_level_import_is_used():
    # a name bound by a top-level import and never read is a stale import
    dead = {}
    for name in sorted(os.listdir(os.path.join(SRC, "hfsigma"))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, "hfsigma", name)) as fh:
            tree = ast.parse(fh.read(), name)
        bound = {(alias.asname or alias.name).partition(".")[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if bound - read:
            dead[name] = sorted(bound - read)
    assert dead == {}


SHA256_INPUTS = (b"", b"abc", bytes(range(256)) * 257)  # the last: many blocks


def _digests(new):
    whole = [new(data).hexdigest() for data in SHA256_INPUTS]
    h = new()
    for data in SHA256_INPUTS:  # the same bytes, fed in uneven chunks
        for i in range(0, len(data), 4099):
            h.update(data[i:i + 4099])
    return whole, h.hexdigest()


def test_sha256_is_hashlibs_without_openssl():
    import hashlib
    assert _digests(hfsigma.sha256) == _digests(hashlib.sha256)
    assert type(hfsigma.sha256()).__module__ in ("_sha2", "_sha256")


def test_sha256_falls_back_to_hashlib(monkeypatch):
    import hashlib
    want = _digests(hashlib.sha256)
    monkeypatch.setitem(sys.modules, "_sha2", None)  # None blocks the import
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setattr(hfsigma, "_sha256_new", None)  # look the modules up again
    assert _digests(hfsigma.sha256) == want
    assert type(hfsigma.sha256()) is type(hashlib.sha256())
