"""Traced launcher for one ``hf`` command.

    python3 bench/launch.py SPANS.json <hf arguments...>

Imports ``hfsigma.cli``, replaces the public entry points of each layer by
timing wrappers, runs ``hfsigma.cli.main`` on the arguments and writes the
recorded spans and counters to SPANS.json before exiting with main's code.

The program is not edited: the wrappers are bound in place of every module
global that names a traced function, in every ``hfsigma`` module.  The modules
import by name (``engine`` holds its own ``rank``, ``smith_normal_form``,
``slice_map``...; ``linalg.cokernel`` calls ``smith_normal_form`` through
``linalg``'s globals), so patching the defining module alone would miss most
calls.  Calls made through an ``lru_cache`` (``engine._fmap``,
``engine._chain_cached``) reach the wrapper only on a cache miss.

``rings`` is not traced: ``Ring.coerce`` runs once per matrix entry inside the
eliminators and its cost shows in the ``linalg.rank_*`` self times.
"""

import functools
import json
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, fn, name, note=None):
        """Return fn timed as a span; name is a string or a function of the
        call's arguments; note(args, kwargs, result) records counters."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _rank_label(args, kwargs):
    m = args[0] if args else kwargs["m"]
    ring = _arg(args, kwargs, 1, "ring") or m.ring
    if ring.kind == "Fp":
        return "linalg.rank_f2" if ring.p == 2 else "linalg.rank_fp"
    return "linalg.rank_q"


def _targets(t):
    """(module, function name, span name, counter hook) of every traced call."""

    def snf_note(args, kwargs, factors):
        m = args[0] if args else kwargs["m"]
        t.add("linalg.snf_calls", 1)
        t.add("linalg.snf_nnz", m.nnz())
        t.peak("linalg.snf_max_dim", max(m.rows, m.cols))
        t.add("linalg.snf_nonunit_factors", sum(1 for f in factors if f != 1))

    def rank_note(args, kwargs, _result):
        m = args[0] if args else kwargs["m"]
        t.add("linalg.rank_calls", 1)
        t.add("linalg.rank_nnz", m.nnz())

    def slice_map_note(_args, _kwargs, sm):
        m = sm.matrix
        t.add("cfk.slice_map_calls", 1)
        t.add("cfk.slice_map_nnz", m.nnz())
        t.peak("cfk.slice_map_max_dim", max(m.rows, m.cols))

    def count(key):
        return lambda _a, _k, _r: t.add(key, 1)

    return [
        ("linalg", "smith_normal_form", "linalg.snf", snf_note),
        ("linalg", "rank", _rank_label, rank_note),
        ("linalg", "kernel_basis", "linalg.kernel_basis", None),
        ("linalg", "integer_kernel_lattice", "linalg.integer_kernel_lattice", None),
        ("linalg", "solve_columns", "linalg.solve_columns", None),
        ("linalg", "lattice_quotient", "linalg.lattice_quotient", None),
        ("linalg", "cokernel", "linalg.cokernel", None),
        ("cfk", "slice_map", "cfk.slice_map", slice_map_note),
        ("cfk", "u_chain_map", "cfk.u_chain_map", None),
        ("cfk", "u_slice_map", "cfk.u_slice_map", None),
        ("cfk", "j_infinity", "cfk.j_infinity", count("cfk.j_infinity_calls")),
        ("cfk", "gamma_action", "cfk.gamma_action", count("cfk.gamma_action_calls")),
        ("engine", "hf_hat", "engine.hf_hat", None),
        ("engine", "hf_infinity", "engine.hf_infinity", None),
        ("engine", "hf_plus_torsion", "engine.hf_plus_torsion", None),
        ("engine", "hf_plus_reduced", "engine.hf_plus_reduced", None),
        ("engine", "hf_plus_nontorsion", "engine.hf_plus_nontorsion", None),
        ("engine", "phi_image_rank", "engine.phi_image_rank", None),
        ("engine", "h1_action", "engine.h1_action", None),
        ("engine", "chain_matrix", "engine.chain_matrix", None),
        ("engine", "phi_series", "engine.phi_series", count("engine.phi_series_calls")),
        ("exterior", "blades_of_grade", "exterior.blades_of_grade", None),
        ("lefschetz", "primitive_basis", "lefschetz.primitive_basis", None),
        ("schemas", "validate", "schemas.validate", None),
        ("verify", "run_suite", "verify.run_suite", None),
        ("cli", "main", "cli.main", None),
    ]


def install(t):
    """Bind a wrapper in place of each traced function, wherever it is bound.
    A function a later version of the program no longer has is skipped."""
    import importlib
    modules = {}
    for mod in ("linalg", "cfk", "engine", "exterior", "lefschetz", "schemas",
                "verify", "cli"):
        modules[mod] = importlib.import_module(f"hfsigma.{mod}")
    wrapped = {}
    for mod, attr, label, note in _targets(t):
        fn = getattr(modules[mod], attr, None)
        if fn is not None:
            wrapped[id(fn)] = (fn, t.wrap(fn, label, note))
    for module in [m for name, m in sys.modules.items()
                   if name == "hfsigma" or name.startswith("hfsigma.")]:
        for key, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
    return modules


def _cache_counts(t, modules):
    """Hit and miss counts of the program's own lru caches, read at exit."""
    for mod, attr, key in (("cfk", "slice_basis", "cfk.slice_basis"),
                           ("cfk", "_flip_blade", "cfk.flip_blade"),
                           ("engine", "_fmap", "engine.fmap")):
        info = getattr(getattr(modules[mod], attr, None), "cache_info", None)
        if info is not None:
            ci = info()
            t.add(key + "_hits", ci.hits)
            t.add(key + "_misses", ci.misses)


def main(argv):
    spans_path, hf_args = argv[0], argv[1:]
    t = Tracer()
    start = perf_counter()
    import hfsigma.cli  # noqa: F401  (imports every layer)
    modules = install(t)
    t.add("proc.import_s", perf_counter() - start)
    code = 1
    try:
        code = modules["cli"].main(hf_args)
    finally:
        _cache_counts(t, modules)
        t.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
