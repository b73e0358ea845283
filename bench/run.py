"""Benchmark of the ``hf`` command line.

    python3 bench/run.py --workload torsion-z --seed 1 --seconds 20 --trace 0

Runs the real CLI as ``python -m hfsigma.cli`` with ``PYTHONPATH=<checkout>/src``.
Load comes from one client in a closed loop: each command runs in a fresh
process, one at a time, and the next starts when the previous one has exited.
Rounds of the workload's commands, each in an order drawn from the seed,
repeat; after the first round a command starts only if it is expected to end
within the time given.  Every output is checked against a stored digest and, where it exists, against independent
data.  With ``--trace 1`` every command also runs through ``bench/launch.py``,
which times each layer from outside the program.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  bench/README.md describes the workloads and
the metrics.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"

COMMAND_TIMEOUT_S = 120
SETUP_LAUNCHES = 11
CALIBRATION_LOOP = 300_000

# Commands by id.  "small" holds genus <= 4 versions of every workload, for
# the benchmark's own tests.
COMMANDS = {
    "full": {
        "hat_z": "hat -g 6",
        "infinity_z": "infinity -g 5 --ring Z",
        "plus_z": "plus -g 5",
        "nontorsion_k1": "nontorsion -g 6 --spinc 1",
        "nontorsion_k2": "nontorsion -g 6 --spinc 2",
        "action_k1": "action -g 5 --spinc 1",
        "action_k2": "action -g 6 --spinc 2",
        "plus_red_z": "plus -g 5 --reduced",
        "plus_red_f3": "plus -g 4 --reduced --ring F3",
        "infinity_f3": "infinity -g 5 --ring F3",
        "infinity_f2": "infinity -g 7 --ring F2",
        "verify_all": "verify --suite all --max-genus 4",
    },
    "small": {
        "hat_z": "hat -g 3",
        "infinity_z": "infinity -g 4 --ring Z",
        "plus_z": "plus -g 4",
        "nontorsion_k1": "nontorsion -g 4 --spinc 1",
        "nontorsion_k2": "nontorsion -g 4 --spinc 2",
        "action_k1": "action -g 4 --spinc 1",
        "action_k2": "action -g 3 --spinc 1",
        "plus_red_z": "plus -g 3 --reduced",
        "plus_red_f3": "plus -g 3 --reduced --ring F3",
        "infinity_f3": "infinity -g 4 --ring F3",
        "infinity_f2": "infinity -g 4 --ring F2",
        "verify_all": "verify --suite all --max-genus 2",
    },
}

# `action` and `verify` bypass the result cache, so replay-warm leaves them out.
UNCACHED = {"action", "verify"}
COLD = {
    "torsion-z": ["hat_z", "infinity_z", "plus_z"],
    "nontorsion": ["nontorsion_k1", "nontorsion_k2", "action_k1", "action_k2"],
    "fields-lattices": ["plus_red_z", "plus_red_f3", "infinity_f3",
                        "infinity_f2", "verify_all"],
}
WORKLOADS = {**COLD, "replay-warm": [
    cid for ids in COLD.values() for cid in ids
    if COMMANDS["full"][cid].split()[0] not in UNCACHED]}

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SPAN_TIMES = [
    "linalg.snf", "linalg.rank_q", "linalg.rank_fp", "linalg.rank_f2",
    "linalg.kernel_basis", "linalg.integer_kernel_lattice",
    "linalg.solve_columns", "linalg.lattice_quotient", "linalg.cokernel",
    "cfk.slice_map", "cfk.u_chain_map", "cfk.u_slice_map", "cfk.j_infinity",
    "cfk.gamma_action", "engine.hf_hat", "engine.hf_infinity",
    "engine.hf_plus_torsion", "engine.hf_plus_reduced",
    "engine.hf_plus_nontorsion", "engine.phi_image_rank", "engine.h1_action",
    "engine.chain_matrix", "engine.phi_series", "exterior.blades_of_grade",
    "lefschetz.primitive_basis", "schemas.validate", "verify.run_suite",
]
COUNTS = [
    "linalg.snf_calls", "linalg.snf_nnz", "linalg.snf_max_dim",
    "linalg.snf_nonunit_factors", "linalg.rank_calls", "linalg.rank_nnz",
    "cfk.slice_map_calls", "cfk.slice_map_nnz", "cfk.slice_map_max_dim",
    "cfk.slice_basis_misses", "cfk.j_infinity_calls", "cfk.gamma_action_calls",
    "engine.phi_series_calls",
]
PEAK_COUNTS = {"linalg.snf_max_dim", "cfk.slice_map_max_dim"}
HIT_RATIOS = {"cfk.flip_blade_hit_ratio": "cfk.flip_blade",
              "engine.fmap_hit_ratio": "engine.fmap"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}_s": "s" for name in SPAN_TIMES}
    units["cli.main_self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in HIT_RATIOS})
    units["cli.cache_hit_ratio"] = "ratio"
    units.update({f"cli.cmd.{cid}_s": "s" for cid in COMMANDS["full"]})
    units.update({"proc.import_s": "s", "proc.cpu_s": "s", "host.calib_s": "s",
                  "trace.overhead_ratio": "ratio", "failed_ratio": "ratio"})
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def canonical_digest(envelope):
    """sha256 of the --out json envelope without its timestamp."""
    body = {k: v for k, v in envelope.items() if k != "timestamp"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def _genus(argv):
    return int(argv[argv.index("-g") + 1])


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def hat_closed_form(g, deg):
    """Rank of HF-hat in half-integer degree deg, from the closed form
    C(2g, g - |deg| - 1/2), plus 2^(g-1) + C(2g, g)/2 at |deg| = 1/2."""
    a = abs(deg)
    if a.denominator != 2 or a > Fraction(2 * g - 1, 2):
        return 0
    if a == Fraction(1, 2):
        return comb(2 * g, g - 1) + 2 ** (g - 1) + comb(2 * g, g) // 2
    return comb(2 * g, g - int(a + Fraction(1, 2)))


def x_model_dims(g, d):
    """Per-degree ranks of the triangle model X(g, d):
    Lambda^m (x) U^-c for 0 <= c <= d - m, in degree m - g + 2c."""
    dims = {}
    for m in range(0, d + 1):
        for c in range(0, d - m + 1):
            dims[m - g + 2 * c] = dims.get(m - g + 2 * c, 0) + comb(2 * g, m)
    return dims


def _known_table(name):
    path = SRC / "hfsigma" / "data" / name
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def _ranks(entries):
    """{degree: (free rank, invariant factors)} of a table's entries."""
    return {Fraction(e["deg"]): (e["group"]["free_rank"],
                                 e["group"]["invariant_factors"])
            for e in entries}


def independent_check(argv, result):
    """Compare an output with data not taken from the engine; return the
    reason it disagrees, or None."""
    cmd, g = argv[0], _genus(argv)
    ring = _flag(argv, "--ring", "Z")
    if cmd == "hat":
        ranks = _ranks(result["entries"])
        bad = [str(d) for d, (r, facs) in ranks.items()
               if r != hat_closed_form(g, d) or facs]
        known = _known_table("hat_known.json").get(str(g), {})
        bad += [d for d, r in known.items()
                if ranks.get(Fraction(d), (0, []))[0] != r]
        return f"hat ranks differ from the closed form at {bad}" if bad else None
    if cmd == "plus" and ring == "Z":
        ranks = _ranks(result["entries"])
        known = _known_table("plus_known.json").get(str(g), {})
        bad = [d for d, r in known.items()
               if Fraction(d) in ranks and ranks[Fraction(d)][0] != r]
        if "--reduced" in argv:
            dims = x_model_dims(g, g - 3)
            bad += [str(d) for d, (r, facs) in _ranks(result["reduced"]["entries"]).items()
                    if r != dims.get(d - Fraction(5, 2), 0) or facs]
        return f"plus ranks differ from known data at {bad}" if bad else None
    if cmd == "nontorsion":
        dims = x_model_dims(g, g - 1 - abs(int(_flag(argv, "--spinc"))))
        ranks = {int(d): r for d, (r, _f) in _ranks(result["entries"]).items()}
        bad = [n for n in set(dims) | set(ranks)
               if ranks.get(n, 0) != dims.get(n, 0)]
        return f"nontorsion ranks differ from X(g, d) at {bad}" if bad else None
    if cmd == "action":
        k = abs(int(_flag(argv, "--spinc")))
        if result["standard"] != (3 * k > g - 2):
            return "corrections to the action where the theorem says otherwise"
    return None


def check_output(argv, code, stdout, references):
    """Return None when the command's output is right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        envelope = json.loads(stdout)
        if argv[0] == "verify":
            checks = [c for s in envelope["result"]["suites"] for c in s["checks"]]
            bad = sorted({c["id"] for c in checks if c["pass"] is not True})
            if bad or not checks:
                return f"verification checks failed: {bad or 'none ran'}"
            return None
        want = references.get(" ".join(argv))
        if want is None:
            return "no reference digest"
        if canonical_digest(envelope) != want:
            return "output differs from the reference digest"
        return independent_check(argv, envelope["result"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env(cache_dir):
    """The caller's environment without inherited hf settings, with the
    checkout's sources first and temporary files kept in the checkout."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("HF_CACHE_DIR", "HF_EXTENDED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    if cache_dir is not None:
        env["HF_CACHE_DIR"] = str(cache_dir)
    return env


def launch(argv, env, stdout_path, stderr_path):
    """Run argv to its end; return (exit code, wall seconds, rusage).
    A process still running after COMMAND_TIMEOUT_S seconds is killed."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def calibrate():
    """Seconds taken by a fixed pure-Python loop: a probe of host speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i
    return time.perf_counter() - t0


def cache_snapshot(cache_dir):
    return {p.name: p.stat().st_mtime_ns for p in cache_dir.glob("*.json")}


def source_digest():
    """Digest of every file under src/, naming a warm cache for this code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def summarize_spans(data):
    """Self time per span name: span time minus the time of its children."""
    spans = data["spans"]
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
    return self_s


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run of one workload; see run()."""

    def __init__(self, workload, seed, seconds, trace, size="full",
                 references=None):
        if not (SRC / "hfsigma" / "cli.py").is_file():
            raise BenchError(f"no hfsigma sources under {SRC}")
        if workload not in WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}")
        self.workload, self.size = workload, size
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.references = load_references() if references is None else references
        self.commands = [(cid, COMMANDS[size][cid].split())
                         for cid in WORKLOADS[workload]]
        self.records = []
        self.setup_walls = []
        self.calib = []
        self.rounds = 0  # completed rounds
        self.dir = None
        self.warm = None

    def execute(self):
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
        try:
            self.set_up()
            self.measure()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        return self

    def _path(self, stem):
        return self.dir / f"{len(self.records)}-{stem}"

    def set_up(self):
        """Time fresh `--help` launches (the first, which may compile the
        sources, untimed) and fill the replay cache."""
        for i in range(SETUP_LAUNCHES + 1):
            code, wall, _ = launch([sys.executable, "-m", "hfsigma.cli", "--help"],
                                   child_env(None), self._path("help.out"),
                                   self._path("help.err"))
            if code != 0:
                raise BenchError(f"`hf --help` exited with {code}")
            if i:
                self.setup_walls.append(wall)
        if self.workload == "replay-warm":
            self.warm = self.fill_warm_cache()

    def fill_warm_cache(self):
        """The replay cache for this source tree, filled once per checkout.
        Filling is set-up: it is neither timed nor counted."""
        warm = WORK / f"warm-{self.size}-{source_digest()}"
        if not (warm / "complete").is_file():
            for stale in WORK.glob(f"warm-{self.size}-*"):
                shutil.rmtree(stale, ignore_errors=True)
            warm.mkdir(parents=True)
            for _cid, argv in self.commands:
                launch([sys.executable, "-m", "hfsigma.cli", *argv, "--out", "json"],
                       child_env(warm), self._path("fill.out"),
                       self._path("fill.err"))
            (warm / "complete").write_text("")
        return warm

    def measure(self):
        """Run rounds of the commands in seeded order.  The first round always
        completes; after it, a command starts only if its previous run's
        time would still end within the time given."""
        rng = random.Random(self.seed)
        start = time.perf_counter()
        last = {}
        while True:
            order = list(self.commands)
            rng.shuffle(order)
            for cid, argv in order:
                if self.rounds and time.perf_counter() - start + last[cid] > self.seconds:
                    return
                self.calib.append(calibrate())
                t0 = time.perf_counter()
                self.invoke(cid, argv, traced=False)
                if self.trace:
                    self.invoke(cid, argv, traced=True)
                last[cid] = time.perf_counter() - t0
            self.rounds += 1

    def invoke(self, cid, argv, traced):
        """Run one command in a fresh process, check its output and record it."""
        cache = self.warm
        if cache is None:
            cache = self._path("cache")
            cache.mkdir()
        before = cache_snapshot(cache)
        spans = self._path("spans.json")
        if traced:
            cmd = [sys.executable, str(BENCH / "launch.py"), str(spans)]
        else:
            cmd = [sys.executable, "-m", "hfsigma.cli"]
        out = self._path("out")
        code, wall, usage = launch([*cmd, *argv, "--out", "json"], child_env(cache),
                                   out, self._path("err"))
        stdout = out.read_bytes()
        after = cache_snapshot(cache)
        rec = {"cid": cid, "traced": traced,
               "wall": wall, "rss_kb": usage.ru_maxrss,
               "cpu": usage.ru_utime + usage.ru_stime,
               "problem": check_output(argv, code, stdout, self.references),
               "stored": any(before.get(n) != t for n, t in after.items()),
               "cached": argv[0] not in UNCACHED}
        try:
            rec["digest"] = canonical_digest(json.loads(stdout))
        except (ValueError, AttributeError):
            rec["digest"] = None
        if traced and spans.is_file():
            with open(spans) as fh:
                data = json.load(fh)
            rec["self_s"] = summarize_spans(data)
            rec["counters"] = data["counters"]
        self.records.append(rec)
        if rec["problem"]:
            print(f"FAILED {' '.join(argv)}: {rec['problem']}", file=sys.stderr)

    # -- metrics ------------------------------------------------------------
    # A command's figure is its median over the run's passing runs of it; a
    # workload's figure sums those over its commands, so it stands for one
    # round even when the last round was cut short.

    def medians(self, value_of, traced=False):
        values = {}
        for r in self.records:
            if r["traced"] == traced and not r["problem"]:
                values.setdefault(r["cid"], []).append(value_of(r))
        return {cid: statistics.median(v) for cid, v in values.items()}

    def round_sum(self, value_of, traced=True):
        return sum(self.medians(value_of, traced).values())

    def end_to_end(self):
        return {
            "solve_s": self.round_sum(lambda r: r["wall"], traced=False),
            "setup_s": statistics.median(self.setup_walls),
            "peak_rss_mb": max(r["rss_kb"] for r in self.records
                               if not r["traced"]) / 1024,
        }

    def per_layer(self):
        m = {name: 0.0 for name in per_layer_units()}
        m["failed_ratio"] = (sum(1 for r in self.records if r["problem"])
                             / len(self.records))
        m["host.calib_s"] = statistics.median(self.calib)
        for cid, wall in self.medians(lambda r: r["wall"]).items():
            m[f"cli.cmd.{cid}_s"] = wall
        m["proc.cpu_s"] = self.round_sum(lambda r: r["cpu"], traced=False)
        cached = [r for r in self.records
                  if r["cached"] and not r["traced"] and not r["problem"]]
        if cached:
            m["cli.cache_hit_ratio"] = (sum(1 for r in cached if not r["stored"])
                                        / len(cached))
        untraced = self.round_sum(lambda r: r["wall"], traced=False)
        if untraced:
            m["trace.overhead_ratio"] = self.round_sum(lambda r: r["wall"]) / untraced
        for name in SPAN_TIMES:
            m[f"{name}_s"] = self.round_sum(
                lambda r, n=name: r.get("self_s", {}).get(n, 0.0))
        m["cli.main_self_s"] = self.round_sum(
            lambda r: r.get("self_s", {}).get("cli.main", 0.0))

        def counter(key):
            return lambda r: r.get("counters", {}).get(key, 0)

        m["proc.import_s"] = self.round_sum(counter("proc.import_s"))
        for name in COUNTS:
            per_cmd = self.medians(counter(name), traced=True).values()
            m[name] = max(per_cmd, default=0) if name in PEAK_COUNTS else sum(per_cmd)
        for name, key in HIT_RATIOS.items():
            hits = self.round_sum(counter(key + "_hits"))
            misses = self.round_sum(counter(key + "_misses"))
            m[name] = hits / (hits + misses) if hits + misses else 0.0
        return m

    def result(self):
        failed = sum(1 for r in self.records if r["problem"])
        if failed == len(self.records):
            raise BenchError("every command failed")
        if self.trace:
            values, units = self.per_layer(), per_layer_units()
        else:
            values, units = self.end_to_end(), END_TO_END_UNITS
        return {"correct": failed == 0, "attempted": len(self.records),
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in units.items()}}


def run(workload, seed, seconds, trace, size="full", references=None):
    """Run one workload; return (result object, the Run with its records)."""
    r = Run(workload, seed, seconds, trace, size, references).execute()
    return r.result(), r


def _terminate(signum, _frame):
    # Unwind, so that the running command is killed and waited for and the
    # run's files are removed.
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, r = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for cid, wall in sorted(r.medians(lambda rec: rec["wall"]).items()):
        print(f"{cid:15s} {COMMANDS['full'][cid]:40s} {wall:8.3f} s")
    print(f"rounds {r.rounds}, failed_ratio "
          f"{result['failed'] / result['attempted']:.3f} ratio "
          f"({result['failed']} of {result['attempted']} commands), "
          f"host.calib_s {statistics.median(r.calib):.5f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
