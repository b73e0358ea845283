"""Command-line front end.

Commands: hat | plus | infinity | nontorsion | action | eg | beta | slice |
snf | verify, with shared flags --ring, --out {table,json,tsv},
--extended and --time-budget; a command takes --genus (all but snf and
verify), --spinc, --degrees, --jobs or --cache-dir (the HF_CACHE_DIR
result cache) only if it reads it, and every command takes --ring, but
nontorsion, action, beta, snf and verify compute over Z only and reject
any other ring.  Text tables write a group
over a field as a vector space (F2^9, Q^9).  Exit codes: 0 success, 1
verification failure, an exhausted time budget or an output pipe closed
by its reader (nothing more is written, and no traceback), 2 usage error.

--time-budget SECONDS is one Deadline, entered once at the start of the
command; the loops of every layer check it (errors.tick), so it holds in
hat, plus, infinity, nontorsion, action, eg, beta, slice, snf and verify,
and each `verify --jobs N` worker re-enters it.  --extended only lifts the
genus cap on the heavy integer runs.

Output is deterministic for a fixed configuration: JSON is emitted with
sorted keys, and the one timestamp field sits outside the hashed payload.

The engine layers are imported inside the code that computes, so `--help`
and a result-cache hit load only this module, errors, rings and schemas.
A result that cannot be stored in the cache (a full disk, a cache
directory that is a file) is still emitted, with exit 0 and a warning.
"""

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import ceil, floor

from . import __version__, sha256
from .errors import (HARD_GENUS_CAP, BudgetExceeded, Deadline, DomainError,
                     ExtendedScaleRequired, GenusMismatch,
                     UnsupportedOperation, active)
from .rings import ZZ, group_notation, parse_ring

DESK_GENUS_CAP = 6  # beyond this the integer runs need --extended


def _parse_degree(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:  # "1/0": argparse reports ValueErrors only
        raise ValueError(text) from None


def _parse_window(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise DomainError(f"cannot parse degree window {text!r}; want MIN..MAX")
    return _parse_degree(lo), _parse_degree(hi)


def _window_to_d_range(window):
    if window is None:
        return None
    lo, hi = window
    d_lo = ceil(lo - Fraction(1, 2))   # the degrees are d + 1/2
    d_hi = floor(hi - Fraction(1, 2))
    if d_hi < d_lo:
        raise DomainError("empty degree window")
    return (d_lo, d_hi)


def _integers_only(args):
    if parse_ring(args.ring) != ZZ:
        raise DomainError(f"{args.command} is computed over Z only; "
                          f"--ring {args.ring} is not supported")


def _check_scale(args, heavy_integer_run):
    g = args.genus
    if g < 1 or g > HARD_GENUS_CAP:
        raise DomainError(f"genus must lie in 1..{HARD_GENUS_CAP}")
    if heavy_integer_run and g > DESK_GENUS_CAP and not args.extended:
        raise ExtendedScaleRequired(
            f"genus {g} over the integers is an extended-scale run; "
            f"pass --extended (and optionally --time-budget SECONDS)")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit(args, payload, title):
    """Print the result payload per --out."""
    out = args.out
    envelope = {
        "command": args.command,
        "version": __version__,
        "config": _config_dict(args),
        "result": payload,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if out == "json":
        text = json.dumps(envelope, sort_keys=True, indent=2)
    elif out == "tsv":
        text = _to_tsv(payload, title)
    elif out == "table" or out is None:
        text = _to_text(payload, title, parse_ring(args.ring).tag)
    else:  # a path: write the JSON envelope there, print a note
        with open(out, "w") as fh:
            fh.write(json.dumps(envelope, sort_keys=True, indent=2))
        text = f"wrote {out}"
    print(text)


def _is_matrix(payload):
    """A slice payload: a sparse matrix whose entries are [row, col, value]."""
    return isinstance(payload, dict) and "rows" in payload and "cols" in payload


def _matrix_lines(payload, sep):
    head = (f"{payload['rows']} x {payload['cols']} matrix over {payload['ring']}, "
            f"{len(payload['entries'])} nonzero entries")
    return [head, sep.join(("row", "col", "value"))] + [
        sep.join(str(x) for x in entry) for entry in payload["entries"]]


def _to_tsv(payload, title):
    rows = [f"# {title}"]
    if _is_matrix(payload):
        head, *body = _matrix_lines(payload, "\t")
        rows += [f"# {head}"] + body
    elif isinstance(payload, dict) and "entries" in payload:
        rows.append("degree\tfree_rank\tinvariant_factors")
        for e in payload["entries"]:
            grp = e["group"]
            facs = ",".join(str(d) for d in grp["invariant_factors"])
            rows.append(f"{e['deg']}\t{grp['free_rank']}\t{facs}")
    else:
        rows.append(json.dumps(payload, sort_keys=True))
    return "\n".join(rows)


def _to_text(payload, title, tag):
    lines = [title]
    if _is_matrix(payload):
        lines += ["  " + line for line in _matrix_lines(payload, " ")]
    elif isinstance(payload, dict) and "entries" in payload:
        width = max((len(e["deg"]) for e in payload["entries"]), default=3)
        for e in payload["entries"]:
            grp = e["group"]
            desc = group_notation(grp["free_rank"], grp["invariant_factors"], tag)
            lines.append(f"  {e['deg']:>{width}}  rank {grp['free_rank']:<6} {desc}")
        if payload.get("towers"):
            lines.append("  towers:")
            for t in payload["towers"]:
                lines.append(f"    start {t['start_degree']:>5}  rank {t['rank']}"
                             f"  ({t.get('kind', '')} j={t.get('j', '')})")
    else:
        lines.append(json.dumps(payload, sort_keys=True, indent=2))
    return "\n".join(lines)


def _config_dict(args):
    keys = ("genus", "spinc", "ring", "degrees", "suite", "max_genus", "op",
            "degree", "input", "extended", "reduced")
    out = {}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    if "degrees" in out:  # a pair of Fractions, recorded as text
        out["degrees"] = [str(x) for x in out["degrees"]]
    return out


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------

def _cache_dir(args):
    return args.cache_dir or os.environ.get("HF_CACHE_DIR")


def _cache_key(args):
    """sha256 of the command, its configuration and the bytes of the
    package's modules and data files (in sorted path order), so that a
    stored result names the code that computed it."""
    pkg = os.path.dirname(__file__)
    paths = sorted([name for name in os.listdir(pkg) if name.endswith(".py")]
                   + [f"data/{name}" for name in os.listdir(os.path.join(pkg, "data"))
                      if name.endswith(".json")])
    source = sha256()
    for rel in paths:
        source.update(rel.encode() + b"\0")
        with open(os.path.join(pkg, rel), "rb") as fh:
            source.update(fh.read())
    blob = json.dumps({"command": args.command, "config": _config_dict(args),
                       "source": source.hexdigest()}, sort_keys=True)
    return sha256(blob.encode()).hexdigest()


def _check(payload, schema):
    """Validate the payload against the named schema."""
    from .schemas import validate
    validate(payload, schema)


def _cache_load(path, schema):
    """The stored payload, or None for a miss: no readable JSON object, or
    one that fails the schema (SchemaError is a ValueError)."""
    try:
        with open(path) as fh:
            hit = json.load(fh)
        if isinstance(hit, dict):
            _check(hit, schema)
            return hit
    except (OSError, ValueError):
        pass
    return None


def _cache_store(path, payload):
    import tempfile
    cdir = os.path.dirname(path)
    os.makedirs(cdir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cached(args, compute, schema):
    """compute(), or the result stored for this command, configuration and
    source in the cache directory, when one is set; a miss is recomputed,
    validated against the payload schema and stored over the file.  A store
    that fails (OSError) costs only the cache entry: a warning on stderr."""
    cdir = _cache_dir(args)
    path = os.path.join(cdir, _cache_key(args) + ".json") if cdir else None
    hit = _cache_load(path, schema) if path else None
    if hit is not None:
        return hit
    payload = compute()
    _check(payload, schema)
    if path:
        try:
            _cache_store(path, payload)
        except OSError as exc:
            print(f"warning: result not cached: {exc}", file=sys.stderr)
    return payload


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_hat(args):
    _check_scale(args, heavy_integer_run=True)
    ring = parse_ring(args.ring)
    window = _window_to_d_range(args.degrees)

    def compute():
        from . import engine
        return engine.hf_hat(args.genus, ring, window).to_json()

    payload = _cached(args, compute, "table")
    _emit(args, payload, f"hat table, genus {args.genus}, ring {ring.tag}")
    return 0


def cmd_plus(args):
    ring = parse_ring(args.ring)
    _check_scale(args, heavy_integer_run=(ring == ZZ))
    window = _window_to_d_range(args.degrees)

    def compute():
        from . import engine
        full = engine.hf_plus_torsion(args.genus, ring, window).to_json()
        if args.reduced:
            full["reduced"] = engine.hf_plus_reduced(args.genus, ring, window).to_json()
        return full

    payload = _cached(args, compute, "table")
    _emit(args, payload,
          f"plus table (torsion spin-c), genus {args.genus}, ring {ring.tag}")
    if args.reduced and args.out in (None, "table"):
        print(_to_text(payload["reduced"], "reduced part", ring.tag))
    return 0


def cmd_infinity(args):
    ring = parse_ring(args.ring)
    _check_scale(args, heavy_integer_run=(ring == ZZ))

    def compute():
        from . import engine
        return engine.hf_infinity(args.genus, ring).to_json()

    payload = _cached(args, compute, "table")
    _emit(args, payload,
          f"infinity table, genus {args.genus}, ring {ring.tag} "
          f"(periodic: one entry per parity)")
    return 0


def cmd_nontorsion(args):
    _check_scale(args, heavy_integer_run=True)
    _integers_only(args)
    if not args.spinc:
        raise DomainError("nontorsion wants --spinc k with k != 0; "
                          "use `hf plus` for the torsion structure")

    def compute():
        from . import nontorsion
        table, model = nontorsion.hf_plus_nontorsion(args.genus, args.spinc)
        data = table.to_json()
        data["model"] = model.to_json()
        return data

    payload = _cached(args, compute, "table")
    _emit(args, payload, f"plus table, genus {args.genus}, spin-c {args.spinc}")
    return 0


def cmd_action(args):
    from . import nontorsion
    _check_scale(args, heavy_integer_run=False)
    _integers_only(args)
    if not args.spinc:
        raise DomainError("the action is provided for --spinc k != 0 only")
    g, k = args.genus, args.spinc
    found = [{"gamma": gi, "xi_u_coord": key[0], "xi_blade_mask": key[1],
              "xi_degree": n, "ell": ct.ell, "exterior_power": ct.exterior_power,
              "u_exponent": ct.u_exponent, "degree": ct.degree}
             for key, n, gi, ct in nontorsion.action_corrections(g, k)]
    payload = {"genus": g, "spinc": k, "standard": not found,
               "corrections_found": len(found), "corrections": found}
    _emit(args, payload,
          f"homology action, genus {g}, spin-c {k}: "
          f"{'standard' if not found else f'{len(found)} corrections'}")
    return 0


def cmd_eg(args):
    _check_scale(args, heavy_integer_run=False)
    ring = parse_ring(args.ring)

    def compute():
        from . import bundle
        eg = bundle.eg_cohomology(args.genus, ring)
        entries = [{"deg": str(j), "group": grp.to_json()}
                   for j, grp in sorted(eg.items())]
        cmpres = bundle.contraction_cokernel_comparison(args.genus)
        comparison = {str(par): {"one_minus_exp": lhs.to_json(),
                                 "wedge_sum": rhs.to_json(),
                                 "equal": lhs == rhs}
                      for par, (lhs, rhs) in cmpres.items()}
        return {"entries": entries, "contraction_comparison": comparison}

    payload = _cached(args, compute, "eg")
    _emit(args, payload,
          f"circle-bundle cohomology, genus {args.genus}, ring {ring.tag}")
    return 0


def cmd_beta(args):
    from . import bundle
    _check_scale(args, heavy_integer_run=False)
    _integers_only(args)
    g = args.genus
    dims = bundle.beta_quotient_dims(g)
    payload = {"genus": g,
               "quotient_dims": {str(s): v for s, v in sorted(dims.items())},
               "total": sum(dims.values())}
    if args.spinc is not None and args.spinc >= 0:
        payload["matrix"] = bundle.triple_cup_beta(g, args.spinc).to_json()
    _emit(args, payload, f"triple-cup quotients, genus {g}")
    return 0


def cmd_slice(args):
    from .cfk import slice_map
    _check_scale(args, heavy_integer_run=False)
    ring = parse_ring(args.ring)
    s = -abs(args.spinc or 0)  # built for the negative side; conjugation-symmetric
    try:
        d = int(args.degree)
    except ValueError:
        raise DomainError(f"--degree wants an integer d, got {args.degree!r}") from None
    sm = slice_map(args.genus, args.op, d, s)
    payload = sm.matrix.to_json(ring)
    payload["op"] = args.op
    payload["degree"] = d
    payload["s"] = s
    _emit(args, payload, f"slice map {args.op}, genus {args.genus}, degree {d}")
    return 0


def cmd_snf(args):
    from .linalg import SparseExactMatrix, cokernel_over, smith_normal_form
    _integers_only(args)
    try:
        with open(args.input) as fh:
            m = SparseExactMatrix.from_json(json.load(fh))
    except DomainError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"{args.input} holds no matrix JSON "
                          f"(rows, cols, ring, entries): {exc!r}") from None
    factors = smith_normal_form(m)
    payload = {"invariant_factors": factors,
               "cokernel": cokernel_over(m.rows, factors, ZZ).to_json(),
               "rank": len(factors)}
    _emit(args, payload, f"Smith normal form of {args.input}")
    return 0


def cmd_verify(args):
    from . import verify
    _integers_only(args)
    max_genus = 4 if args.max_genus is None else args.max_genus
    if max_genus > 5 and not args.extended:
        raise ExtendedScaleRequired("verification beyond genus 5 needs --extended")
    if args.jobs < 1:
        raise DomainError("--jobs must be at least 1")
    suites = [args.suite] if args.suite != "all" else list(verify._SUITE_FUNCS)
    jobs = min(args.jobs, len(suites))  # a pool forks all its workers at once
    if jobs > 1:
        import concurrent.futures as cf
        try:
            with cf.ProcessPoolExecutor(max_workers=jobs) as ex:
                reports = list(ex.map(_suite_worker,
                                      [(s, max_genus, active()) for s in suites]))
        except BudgetExceeded:
            raise
        except (OSError, RuntimeError):
            reports = verify.run_suites(suites, max_genus)
    else:
        reports = verify.run_suites(suites, max_genus)
    ok = True
    payload = {"suites": []}
    for rep in reports:
        payload["suites"].append(rep.to_json())
        ok = ok and rep.ok
        if args.out in (None, "table"):
            for line in rep.lines():
                print(line)
    if args.out not in (None, "table"):
        _emit(args, payload, "verification report")
    return 0 if ok else 1


def _suite_worker(job):
    """One suite in a worker process, inside the parent's deadline (the
    monotonic clock is shared by the processes of one machine)."""
    from . import verify
    name, max_genus, deadline = job
    with deadline:
        return verify.run_suite(name, max_genus)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="hf",
        description="Exact Floer homology tables for a surface times a circle.")
    sub = p.add_subparsers(dest="command", required=True)

    # each flag is declared once, on a small parent parser, and inherited
    # through parents= by the commands that read it
    def parent():
        return argparse.ArgumentParser(add_help=False)

    def base(with_genus):
        sp = parent()
        if with_genus:
            sp.add_argument("--genus", "-g", type=int, required=True)
        sp.add_argument("--ring", default="Z", help="Z, Q, F2 or Fp:<p>")
        sp.add_argument("--out", default=None,
                        help="table, json, tsv, or a path for JSON output")
        sp.add_argument("--extended", action="store_true",
                        help="lift the genus cap on heavy integer runs")
        sp.add_argument("--time-budget", type=float, default=3600.0)
        return sp

    shared, no_genus = base(True), base(False)
    spinc, degrees, cache, jobs = parent(), parent(), parent(), parent()
    spinc.add_argument("--spinc", type=int, default=None,
                       help="spin-c label k (first Chern class dual to 2k circles)")
    degrees.add_argument("--degrees", type=_parse_window, default=None,
                         metavar="MIN..MAX")
    cache.add_argument("--cache-dir", default=None,
                       help="result cache directory (default $HF_CACHE_DIR)")
    jobs.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("hat", parents=[shared, degrees, cache],
                        help="finitely generated flavor, torsion spin-c")
    sp.set_defaults(func=cmd_hat)

    sp = sub.add_parser("plus", parents=[shared, degrees, cache],
                        help="plus flavor, torsion spin-c")
    sp.add_argument("--reduced", action="store_true",
                    help="also emit the reduced part")
    sp.set_defaults(func=cmd_plus)

    sp = sub.add_parser("infinity", parents=[shared, cache],
                        help="fully U-inverted flavor")
    sp.set_defaults(func=cmd_infinity)

    sp = sub.add_parser("nontorsion", parents=[shared, spinc, cache],
                        help="plus flavor, nonzero spin-c")
    sp.set_defaults(func=cmd_nontorsion)

    sp = sub.add_parser("action", parents=[shared, spinc],
                        help="homology action with corrections")
    sp.set_defaults(func=cmd_action)

    sp = sub.add_parser("eg", parents=[shared, cache],
                        help="circle-bundle cohomology cross-check")
    sp.set_defaults(func=cmd_eg)

    sp = sub.add_parser("beta", parents=[shared, spinc],
                        help="triple-cup quotient dimensions")
    sp.set_defaults(func=cmd_beta)

    sp = sub.add_parser("slice", parents=[shared, spinc],
                        help="export one slice matrix")
    sp.add_argument("--op", required=True,
                    choices=["v", "h", "F", "F_hat", "one_plus_J"])
    sp.add_argument("--degree", required=True)
    sp.set_defaults(func=cmd_slice)

    sp = sub.add_parser("snf", parents=[no_genus],
                        help="Smith normal form of a matrix JSON file")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=cmd_snf)

    sp = sub.add_parser("verify", parents=[no_genus, jobs],
                        help="run a verification suite")
    sp.add_argument("--suite", default="all",
                    help="a suite name or all; an unknown name lists the suites")
    sp.add_argument("--max-genus", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()  # a reader that closed the pipe shows up here
    except BrokenPipeError:
        # the recipe in the `signal` docs: send what is still buffered to
        # devnull, so that the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _run(argv):
    args = build_parser().parse_args(argv)
    try:
        with Deadline(args.time_budget, f"(budget {args.time_budget}s)"):
            return args.func(args)
    except BrokenPipeError:
        raise  # main() exits 1 without a traceback
    # OSError: a missing file, or a directory given as a file
    except (DomainError, GenusMismatch, UnsupportedOperation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExtendedScaleRequired as exc:
        print(f"error: extended-scale required: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
