import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("HF_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "hfsigma.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc


def test_hat_tsv_rank_29():
    proc = run_cli("hat", "--genus", "3", "--out", "tsv")
    assert proc.returncode == 0
    rows = {line.split("\t")[0]: line.split("\t")[1]
            for line in proc.stdout.splitlines() if "\t" in line and "/" in line}
    assert rows["1/2"] == "29" and rows["-1/2"] == "29"


def test_infinity_f2_rank_36():
    proc = run_cli("infinity", "--genus", "3", "--ring", "F2", "--out", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    ranks = {e["group"]["free_rank"] for e in data["result"]["entries"]}
    assert ranks == {36}


def test_verify_suite_passes():
    proc = run_cli("verify", "--suite", "sl2", "--max-genus", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[PASS]" in proc.stdout and "[FAIL]" not in proc.stdout


def test_bad_flags_exit_2():
    proc = run_cli("hat", "--genus", "3", "--ring", "F9")
    assert proc.returncode == 2
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    proc = run_cli("hat")  # missing genus
    assert proc.returncode == 2
    proc = run_cli("nontorsion", "--genus", "3", "--spinc", "0")
    assert proc.returncode == 2


def test_extended_scale_guard():
    proc = run_cli("infinity", "--genus", "8", "--ring", "Z")
    assert proc.returncode == 2
    assert "extended-scale required" in proc.stderr


def test_genus_cap():
    proc = run_cli("hat", "--genus", "11", "--extended")
    assert proc.returncode == 2


def test_slice_and_snf_pipeline(tmp_path):
    out = tmp_path / "m.json"
    proc = run_cli("slice", "--genus", "2", "--op", "F", "--degree", "0",
                   "--ring", "Z", "--out", str(out))
    assert proc.returncode == 0 and out.exists()
    data = json.loads(out.read_text())
    inner = tmp_path / "matrix.json"
    inner.write_text(json.dumps(data["result"]))
    proc = run_cli("snf", "--input", str(inner), "--out", "json")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert res["rank"] == len(res["invariant_factors"])


def test_reproducibility_and_cache(tmp_path):
    cache = tmp_path / "cache"
    env = {"HF_CACHE_DIR": str(cache)}
    a = run_cli("plus", "--genus", "2", "--out", "json", env_extra=env)
    b = run_cli("plus", "--genus", "2", "--out", "json", env_extra=env)
    assert a.returncode == 0 and b.returncode == 0
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da.pop("timestamp"), db.pop("timestamp")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    assert list(cache.glob("*.json")), "cache was not populated"


def test_action_command_reports_standard():
    proc = run_cli("action", "--genus", "3", "--spinc", "2", "--out", "json")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert res["standard"] is True and res["corrections_found"] == 0


def test_eg_command():
    proc = run_cli("eg", "--genus", "2", "--ring", "Q", "--out", "json")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    cmp0 = res["contraction_comparison"]["0"]
    assert cmp0["equal"] is True


def test_beta_command():
    proc = run_cli("beta", "--genus", "2", "--out", "json")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert res["total"] == 20  # 2 * C(5, 2)


def test_plus_time_budget_exits_1():
    proc = run_cli("plus", "--genus", "3", "--extended", "--time-budget", "0")
    assert proc.returncode == 1
    assert "time budget exhausted" in proc.stderr


def test_truncated_cache_file_is_a_miss(tmp_path):
    def payload(proc):
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        data.pop("timestamp")
        return json.dumps(data, sort_keys=True)

    cold = payload(run_cli("hat", "--genus", "3", "--out", "json"))
    cache = tmp_path / "cache"
    env = {"HF_CACHE_DIR": str(cache)}
    run_cli("hat", "--genus", "3", "--out", "json", env_extra=env)
    (path,) = cache.glob("*.json")
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    assert payload(run_cli("hat", "--genus", "3", "--out", "json", env_extra=env)) == cold
    assert path.read_text() == text  # recomputed and rewritten
