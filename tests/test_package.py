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
    "engine": ["FloerTable", "XModel", "eg_cohomology", "h1_action", "hf_hat",
               "hf_infinity", "hf_plus_nontorsion", "hf_plus_reduced",
               "hf_plus_torsion", "triple_cup_beta", "u_action_red"],
    "rings": ["GF", "QQ", "ZZ", "Ring", "parse_ring"],
}


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
    # nontorsion and action never use it; its users import it themselves
    code = "import sys, hfsigma.engine; print('hfsigma.lefschetz' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"


def test_import_loads_no_layer():
    code = ("import sys, hfsigma; "
            "print(sorted(m for m in sys.modules if m.startswith('hfsigma'))); "
            "print(hfsigma.engine.hf_hat is hfsigma.hf_hat)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.split("\n")[:2] == ["['hfsigma']", "True"]
