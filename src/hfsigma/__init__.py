"""Exact computation of the Heegaard Floer homology of a surface times a
circle, over Z, Q and prime fields, through integer linear algebra on the
symplectic exterior algebra of the surface.

The public names below are imported from their submodules on first access
(PEP 562), so `import hfsigma` alone loads no layer of the engine.  The
package's one hash, sha256, lives here: the result cache, the matrix
fingerprints and the block store all use it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("BudgetExceeded", "DomainError", "ExtendedScaleRequired",
               "GenusMismatch", "UnsupportedOperation"),
    "exterior": ("Multivector", "contract", "eta", "hodge_lefschetz_star",
                 "interior", "omega", "wedge"),
    "lefschetz": ("op_H", "op_L", "op_lambda", "primitive_basis",
                  "primitive_decomposition", "self_dual_lattice"),
    "linalg": ("GroupPresentation", "SparseExactMatrix", "cokernel",
               "kernel_basis", "kernel_rank", "rank", "smith_normal_form"),
    "cfk": ("GradedElement", "SliceBasis", "j_infinity", "slice_basis",
            "slice_map"),
    "blocks": ("FloerTable",),
    "engine": ("hf_hat", "hf_infinity", "hf_plus_reduced", "hf_plus_torsion",
               "u_action_red"),
    "nontorsion": ("XModel", "hf_plus_nontorsion"),
    "bundle": ("eg_cohomology", "triple_cup_beta"),
    "rings": ("GF", "QQ", "ZZ", "Ring", "parse_ring"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


_sha256_new = None  # the constructor sha256 settles on at its first call


def sha256(data=b""):
    """A SHA-256 hash object from the interpreter's own module (_sha2 from
    Python 3.12, _sha256 before it), so that hashing loads no OpenSSL
    library (about 3.5 MB resident); hashlib's only where neither exists.
    The digests are hashlib's, byte for byte."""
    global _sha256_new
    if _sha256_new is None:  # a failed import is not cached: look up once
        try:
            from _sha2 import sha256 as new
        except ImportError:
            try:
                from _sha256 import sha256 as new
            except ImportError:
                from hashlib import sha256 as new
        _sha256_new = new
    return _sha256_new(data)


def __getattr__(name):
    if name in _EXPORTS:  # a layer: `hfsigma.engine` needs no import first
        return import_module(f".{name}", __name__)
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{mod}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})
