"""Tests of the benchmark itself, on the genus <= 4 ("small") workloads.

    python3 -m pytest -q bench
"""

import copy
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("hf_bench_run", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs():
    """One round of every small workload, untraced and traced."""
    return {(w, trace): bench.run(w, seed=7, seconds=0, trace=trace, size="small")
            for w in bench.WORKLOADS for trace in (0, 1)}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(runs, trace):
    key = "end_to_end" if trace == 0 else "per_layer"
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    for w in bench.WORKLOADS:
        result, _ = runs[(w, trace)]
        assert result["correct"] and result["failed"] == 0, w
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, w
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_end_to_end_metrics_are_never_zero(runs):
    for w in bench.WORKLOADS:
        result, _ = runs[(w, 0)]
        assert all(m["value"] > 0 for m in result["metrics"].values()), w


def test_tracing_does_not_change_outputs(runs):
    for w in bench.WORKLOADS:
        _, r = runs[(w, 1)]
        digests = {}
        for rec in r.records:
            digests.setdefault(rec["cid"], set()).add(rec["digest"])
        assert all(len(d) == 1 and None not in d for cid, d in digests.items()
                   if not cid.startswith("verify")), w


def test_self_times_fit_in_the_traced_wall_time(runs):
    for w in bench.WORKLOADS:
        _, r = runs[(w, 1)]
        traced = [rec for rec in r.records if rec["traced"]]
        assert traced
        for rec in traced:
            assert all(v >= -1e-9 for v in rec["self_s"].values()), rec["cid"]
            assert sum(rec["self_s"].values()) <= rec["wall"], rec["cid"]


def test_snf_is_not_called_on_nontorsion(runs):
    result, _ = runs[("nontorsion", 1)]
    assert result["metrics"]["linalg.snf_calls"]["value"] == 0
    result, _ = runs[("torsion-z", 1)]
    assert result["metrics"]["linalg.snf_calls"]["value"] > 0


def test_replay_hits_the_warm_cache(runs):
    result, _ = runs[("replay-warm", 1)]
    assert result["metrics"]["cli.cache_hit_ratio"]["value"] == 1.0
    result, _ = runs[("torsion-z", 1)]
    assert result["metrics"]["cli.cache_hit_ratio"]["value"] == 0.0


def test_spans_are_rooted_at_cli_main(tmp_path):
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(BENCH / "launch.py"), str(spans),
                    "plus", "-g", "3", "--reduced", "--out", "json"],
                   env=bench.child_env(tmp_path / "cache"), check=True,
                   stdout=subprocess.DEVNULL)
    data = json.loads(spans.read_text())["spans"]
    roots = [s for s in data if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    assert {s[0] for s in data} >= {"engine.hf_plus_reduced", "linalg.snf",
                                    "linalg.lattice_quotient", "cfk.slice_map"}
    assert all(data[s[3]][1] <= s[1] <= s[2] <= data[s[3]][2]
               for s in data if s[3] >= 0)


def test_a_corrupted_reference_counts_as_failed():
    refs = copy.deepcopy(bench.load_references())
    refs[bench.COMMANDS["small"]["hat_z"]] = "0" * 64
    result, _ = bench.run("torsion-z", seed=7, seconds=0, trace=1, size="small",
                          references=refs)
    assert not result["correct"]
    assert result["failed"] == 2  # the untraced and the traced run of hat
    assert result["metrics"]["failed_ratio"]["value"] == 2 / 6
    assert result["metrics"]["cli.cmd.hat_z_s"]["value"] == 0.0


def test_independent_checks_reject_wrong_tables():
    good = {"entries": [{"deg": "1/2", "group": {"free_rank": 1286,
                                                 "invariant_factors": []}}]}
    assert bench.independent_check(["hat", "-g", "6"], good) is None
    bad = copy.deepcopy(good)
    bad["entries"][0]["group"]["invariant_factors"] = [2]
    assert bench.independent_check(["hat", "-g", "6"], bad)
    assert bench.independent_check(["action", "-g", "5", "--spinc", "1"],
                                   {"standard": True})
    assert bench.independent_check(["nontorsion", "-g", "4", "--spinc", "4"],
                                   {"entries": []}) is None
    assert bench.independent_check(["nontorsion", "-g", "4", "--spinc", "1"],
                                   {"entries": []})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "torsion-z", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
