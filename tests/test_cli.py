import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def cli_env(env_extra=None, src=SRC):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("HF_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*argv, env_extra=None, src=SRC, python_args=("-m", "hfsigma.cli")):
    proc = subprocess.run([sys.executable, *python_args, *argv],
                          capture_output=True, text=True,
                          env=cli_env(env_extra, src))
    return proc


def _payload(proc):
    """The JSON envelope of a run without its timestamp, as sorted text."""
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    data.pop("timestamp")
    return json.dumps(data, sort_keys=True)


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
    proc = run_cli("snf", "--input", str(inner), "--time-budget", "0")
    assert proc.returncode == 1
    assert "time budget exhausted" in proc.stderr and "Traceback" not in proc.stderr


def test_snf_malformed_input_exits_2(tmp_path):
    envelope = tmp_path / "m.json"
    proc = run_cli("slice", "-g", "3", "--op", "F", "--degree", "0",
                   "--out", str(envelope))
    assert proc.returncode == 0
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    for path in (envelope, garbage):
        proc = run_cli("snf", "--input", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_slice_time_budget_exits_1():
    proc = run_cli("slice", "-g", "6", "--op", "F", "--degree", "0",
                   "--time-budget", "0")
    assert proc.returncode == 1
    assert "time budget exhausted" in proc.stderr and "Traceback" not in proc.stderr


def test_closed_output_pipe_exits_1_without_traceback():
    # about 190 kB of JSON: more than a pipe holds, so the writer sees the
    # reader close
    with subprocess.Popen(
            [sys.executable, "-m", "hfsigma.cli", "slice", "-g", "6", "--op", "F",
             "--degree", "0", "--out", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()) as proc:
        assert proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_slice_table_and_tsv_list_entries():
    args = ("slice", "--genus", "3", "--op", "F", "--degree", "1", "--ring", "Z")
    entries = json.loads(run_cli(*args, "--out", "json").stdout)["result"]["entries"]
    for out, header, sep in (("table", "  row col value", None),
                             ("tsv", "row\tcol\tvalue", "\t")):
        proc = run_cli(*args, "--out", out)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        lines = proc.stdout.splitlines()
        start = lines.index(header) + 1
        assert [line.split(sep) for line in lines[start:]] == \
            [[str(x) for x in e] for e in entries]


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


@pytest.mark.parametrize("command", ("plus", "hat", "beta"))
def test_time_budget_holds_without_extended(command):
    proc = run_cli(command, "--genus", "3", "--time-budget", "0")
    assert proc.returncode == 1
    assert "time budget exhausted" in proc.stderr


def test_truncated_cache_file_is_a_miss(tmp_path):
    cold = _payload(run_cli("hat", "--genus", "3", "--out", "json"))
    cache = tmp_path / "cache"
    env = {"HF_CACHE_DIR": str(cache)}
    run_cli("hat", "--genus", "3", "--out", "json", env_extra=env)
    (path,) = cache.glob("*.json")
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    assert _payload(run_cli("hat", "--genus", "3", "--out", "json", env_extra=env)) == cold
    assert path.read_text() == text  # recomputed and rewritten


@pytest.mark.parametrize("stored", ("[]", "42", '{"flavor": 1}', "{}"))
def test_wrong_shaped_cache_file_is_a_miss(tmp_path, stored):
    cold = _payload(run_cli("hat", "--genus", "2", "--out", "json"))
    cache = tmp_path / "cache"
    env = {"HF_CACHE_DIR": str(cache)}
    run_cli("hat", "--genus", "2", "--out", "json", env_extra=env)
    (path,) = cache.glob("*.json")
    text = path.read_text()
    path.write_text(stored)
    assert _payload(run_cli("hat", "--genus", "2", "--out", "json", env_extra=env)) == cold
    assert path.read_text() == text  # recomputed and rewritten


def test_verify_jobs_2_matches_jobs_1():
    # the workers re-enter the parent's deadline, pickled with their jobs
    def suites(jobs):
        proc = run_cli("verify", "--suite", "all", "--max-genus", "2",
                       "--jobs", jobs, "--out", "json")
        data = json.loads(_payload(proc))
        for rep in data["result"]["suites"]:
            rep.pop("wall_time")
        return data
    assert suites("2") == suites("1")


def test_eg_time_budget_exits_1():
    proc = run_cli("eg", "--genus", "3", "--extended", "--time-budget", "0")
    assert proc.returncode == 1
    assert "time budget exhausted" in proc.stderr


def test_nontorsion_time_budget_exits_1():
    proc = run_cli("nontorsion", "--genus", "3", "--spinc", "1", "--extended",
                   "--time-budget", "0")
    assert proc.returncode == 1
    assert "time budget exhausted" in proc.stderr


@pytest.mark.parametrize("jobs", ("1", "2"))
def test_verify_time_budget_exits_1(jobs):
    proc = run_cli("verify", "--suite", "all", "--max-genus", "4", "--jobs", jobs,
                   "--time-budget", "0")
    assert proc.returncode == 1
    assert "time budget exhausted" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ("nontorsion", "action"))
def test_missing_spinc_exits_2(command):
    proc = run_cli(command, "--genus", "3")
    assert proc.returncode == 2
    assert "--spinc" in proc.stderr and "Traceback" not in proc.stderr


def test_degree_window_in_json_output():
    proc = run_cli("hat", "-g", "2", "--degrees=-1/2..3/2", "--out", "json")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["config"]["degrees"] == ["-1/2", "3/2"]
    assert [e["deg"] for e in data["result"]["entries"]] == ["-1/2", "1/2", "3/2"]


def test_degree_window_cache_miss_then_hit(tmp_path):
    cache = tmp_path / "cache"
    env = {"HF_CACHE_DIR": str(cache)}
    miss = run_cli("hat", "-g", "2", "--degrees", "0..1", env_extra=env)
    assert miss.returncode == 0, miss.stderr
    (path,) = cache.glob("*.json")
    stored = path.read_text()
    hit = run_cli("hat", "-g", "2", "--degrees", "0..1", env_extra=env)
    assert hit.returncode == 0, hit.stderr
    assert hit.stdout == miss.stdout and path.read_text() == stored


@pytest.mark.parametrize("argv", (
    ("hat", "-g", "3", "--spinc", "2"),
    ("infinity", "-g", "2", "--degrees", "0..1"),
    ("nontorsion", "-g", "3", "--spinc", "1", "--degrees", "0..1"),
    ("verify", "--suite", "sl2", "--spinc", "1"),
    ("plus", "-g", "2", "--jobs", "2"),
    ("action", "-g", "3", "--spinc", "1", "--cache-dir", "cache"),
    ("slice", "-g", "2", "--op", "F", "--degree", "0", "--cache-dir", "cache"),
))
def test_flags_a_command_does_not_read_exit_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


@pytest.mark.parametrize("command", ("nontorsion", "action"))
def test_nontorsion_over_other_rings_exits_2(command):
    proc = run_cli(command, "-g", "3", "--spinc", "1", "--ring", "F2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_action_builds_the_model_without_the_table(monkeypatch, capsys):
    from hfsigma import cli, engine

    def no_table(*args, **kwargs):
        raise AssertionError("action computed the nontorsion table")

    monkeypatch.setattr(engine, "hf_plus_nontorsion", no_table)
    assert cli.main(["action", "-g", "4", "--spinc", "1", "--out", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {
        "genus": 4, "spinc": 1, "standard": True, "corrections_found": 0,
        "corrections": []}


def test_verify_unknown_suite_exits_2():
    proc = run_cli("verify", "--suite", "bogus")
    assert proc.returncode == 2
    assert "bogus" in proc.stderr
    for name in ("sl2", "star", "plus", "beta"):
        assert f"'{name}'" in proc.stderr


# Runs hf in-process, then reports on stderr which modules it loaded.
LOADED_PROBE = """
import sys
from hfsigma.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
sys.stderr.write(" ".join(sorted(sys.modules)))
"""
ENGINE_MODULES = {"hfsigma.engine", "hfsigma.cfk", "hfsigma.linalg",
                  "hfsigma.exterior", "hfsigma.lefschetz", "hfsigma.verify"}


def test_help_and_cache_hits_load_only_the_cli(tmp_path):
    def loaded(*argv, env_extra=None):
        proc = run_cli(*argv, env_extra=env_extra, python_args=("-c", LOADED_PROBE))
        return set(proc.stderr.split()), proc.stdout

    mods, out = loaded("--help")
    assert "usage: hf" in out and "hfsigma.cli" in mods
    assert not mods & ENGINE_MODULES
    env = {"HF_CACHE_DIR": str(tmp_path / "cache")}
    cold, _ = loaded("hat", "-g", "2", "--out", "json", env_extra=env)
    assert "hfsigma.engine" in cold  # the probe sees a computation
    for out_form in ("json", "table"):
        mods, out = loaded("hat", "-g", "2", "--out", out_form, env_extra=env)
        assert "rank 9" in out or '"free_rank": 9' in out
        assert not mods & ENGINE_MODULES, out_form


def test_commands_load_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at every start
    for argv in (("nontorsion", "-g", "3", "--spinc", "1"),
                 ("verify", "--suite", "star", "--max-genus", "2")):
        proc = run_cli(*argv, python_args=("-c", LOADED_PROBE))
        mods = set(proc.stderr.split())
        assert "hfsigma.engine" in mods, argv
        assert not mods & {"dataclasses", "inspect"}, argv


def test_cache_key_covers_source(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(os.path.join(SRC, "hfsigma"), src / "hfsigma",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "cache"
    env = {"HF_CACHE_DIR": str(cache)}
    first = _payload(run_cli("hat", "-g", "2", "--out", "json", env_extra=env, src=src))
    assert len(list(cache.glob("*.json"))) == 1
    with open(src / "hfsigma" / "engine.py", "a") as fh:
        fh.write("# an edit that must invalidate cached results\n")
    second = run_cli("hat", "-g", "2", "--out", "json", env_extra=env, src=src)
    assert _payload(second) == first
    assert len(list(cache.glob("*.json"))) == 2  # a miss, stored anew
