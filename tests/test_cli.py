import hashlib
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


def test_plus_reduced_tsv_has_a_reduced_section(capsys):
    # the reduced part follows the table as a section of its own, as in
    # the text table: at g = 3 it is Z in degree -1/2 alone
    from hfsigma.cli import main
    assert main(["plus", "-g", "3", "--reduced", "--out", "tsv"]) == 0
    out = capsys.readouterr().out
    table, sep, reduced = out.partition("# reduced part\n")
    assert sep and "\t" in table
    rows = [line.split("\t") for line in reduced.splitlines()]
    assert rows[0] == ["degree", "free_rank", "invariant_factors"]
    assert [row for row in rows[1:] if row[1] != "0"] == [["-1/2", "1", ""]]


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
    proc = run_cli("slice", "-g", "3", "--op", "F", "--degree", "1/2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_extended_scale_guard():
    proc = run_cli("infinity", "--genus", "8", "--ring", "Z")
    assert proc.returncode == 2
    assert "extended-scale required" in proc.stderr


def test_eg_needs_no_extended():
    proc = run_cli("eg", "--genus", "8", "--out", "json")
    assert proc.returncode == 0, proc.stderr
    comparison = json.loads(proc.stdout)["result"]["contraction_comparison"]
    assert [comparison[p]["equal"] for p in ("0", "1")] == [True, True]


def test_genus_cap():
    proc = run_cli("hat", "--genus", "11", "--extended")
    assert proc.returncode == 2


def test_slice_and_snf_pipeline(tmp_path):
    out = tmp_path / "m.json"
    proc = run_cli("slice", "--genus", "2", "--op", "F", "--degree", "0",
                   "--ring", "Z", "--out", str(out))
    assert proc.returncode == 0 and out.exists()
    data = json.loads(out.read_text())
    assert data["config"]["degree"] == "0" and data["result"]["degree"] == 0
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
    over_f2 = tmp_path / "f2.json"  # a matrix, but not over Z
    proc = run_cli("slice", "-g", "2", "--op", "F", "--degree", "0", "--ring", "F2",
                   "--out", "json")
    over_f2.write_text(json.dumps(json.loads(proc.stdout)["result"]))
    for path in (envelope, garbage, over_f2, tmp_path):  # tmp_path: a directory
        proc = run_cli("snf", "--input", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_a_directory_given_as_the_output_exits_2(tmp_path):
    proc = run_cli("hat", "-g", "2", "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_verify_max_genus_defaults_to_4_and_exits_2_below_1():
    proc = run_cli("verify", "--suite", "sl2", "--out", "json")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert "max_genus" not in data["config"]
    assert max(c["params"]["g"] for c in data["result"]["suites"][0]["checks"]) == 4
    for flag in ("--max-genus=0", "--max-genus=-3"):
        proc = run_cli("verify", "--suite", "sl2", flag)
        assert proc.returncode == 2, (flag, proc.stdout)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


# sha256 (first 16 hex digits) of the sorted-key JSON result of
# `slice -g 4 --op one_plus_J --degree=-2` per ring, as first printed from
# matrices tagged with the ring; its entries -15, -8, -3, 4 and 8 vanish
# mod 2, 3 or 5
SLICE_DIGESTS = {"Z": "f7949912cd54c03e", "Q": "3186e7bb953c5141",
                 "F2": "4ab27ec56366d4b6", "F3": "f25d8a51562b3e5b",
                 "Fp:5": "8a5953965c0fdc30"}


@pytest.mark.parametrize("ring", sorted(SLICE_DIGESTS))
def test_slice_over_a_ring_is_the_integer_matrix_read_over_it(ring):
    args = ("slice", "-g", "4", "--op", "one_plus_J", "--degree=-2", "--out", "json")
    z = json.loads(run_cli(*args).stdout)["result"]
    proc = run_cli(*args, "--ring", ring)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)["result"]
    p = {"Z": 0, "Q": 0, "F2": 2, "F3": 3, "Fp:5": 5}[ring]
    entries = [[r, c, str(int(v) % p if p else int(v))] for r, c, v in z["entries"]]
    tag = {"Fp:5": "F5"}.get(ring, ring)
    assert got == dict(z, ring=tag, entries=[e for e in entries if e[2] != "0"])
    digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == SLICE_DIGESTS[ring]


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


@pytest.mark.parametrize("error", (OSError(28, "No space left on device"),
                                   KeyboardInterrupt()))
def test_a_failed_cache_write_leaves_no_file(error, tmp_path, monkeypatch):
    from hfsigma import cli

    def dump_partly(obj, fh, **kwargs):
        fh.write('{"partial": ')
        raise error

    monkeypatch.setattr(cli.json, "dump", dump_partly)
    with pytest.raises(type(error)):
        cli._cache_store(str(tmp_path / "key.json"), {"result": 1})
    assert list(tmp_path.iterdir()) == []


def test_a_failed_cache_write_still_emits_the_result(tmp_path):
    # a cache directory that is a regular file: the store fails after compute
    cold = _payload(run_cli("hat", "--genus", "2", "--out", "json"))
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    proc = run_cli("hat", "--genus", "2", "--out", "json", "--cache-dir", str(not_a_dir))
    assert _payload(proc) == cold
    assert proc.stderr.startswith("warning: result not cached:"), proc.stderr
    assert not_a_dir.read_text() == ""


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


def test_wrong_shaped_eg_cache_file_is_a_miss(tmp_path):
    cold = _payload(run_cli("eg", "--genus", "2", "--out", "json"))
    cache = tmp_path / "cache"
    env = {"HF_CACHE_DIR": str(cache)}
    run_cli("eg", "--genus", "2", "--out", "json", env_extra=env)
    (path,) = cache.glob("*.json")
    text = path.read_text()
    path.write_text('{"entries": "garbage"}')
    proc = run_cli("eg", "--genus", "2", env_extra=env)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    path.write_text('{"entries": "garbage"}')
    assert _payload(run_cli("eg", "--genus", "2", "--out", "json", env_extra=env)) == cold
    assert path.read_text() == text  # recomputed and rewritten


def test_snf_rejects_an_impossible_shape(tmp_path):
    for rows in ("-3", "2.5", "true"):
        path = tmp_path / f"shape{rows}.json"
        path.write_text('{"rows": %s, "cols": 0, "ring": "Z", "entries": []}' % rows)
        proc = run_cli("snf", "--input", str(path), "--out", "json")
        assert proc.returncode == 2 and proc.stdout == "", (rows, proc.stdout)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_snf_rejects_a_malformed_ring_or_position(tmp_path):
    # a ring that is not text used to die in parse_ring with a traceback; a
    # float or bool position was read as the int it equals, exit 0
    cases = [('5', '[[0, 0, "2"]]'), ('null', '[[0, 0, "2"]]'),
             ('"Z"', '[[0.5, 0, "2"], [1, 1, "3"]]'),
             ('"Z"', '[[true, 1, "3"]]'), ('"Z"', '[[0, 0, "2"], [0.0, 0, "3"]]')]
    for k, (ring, entries) in enumerate(cases):
        path = tmp_path / f"m{k}.json"
        path.write_text('{"rows": 2, "cols": 2, "ring": %s, "entries": %s}'
                        % (ring, entries))
        proc = run_cli("snf", "--input", str(path), "--out", "json")
        assert proc.returncode == 2 and proc.stdout == "", (ring, entries, proc.stdout)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("suite, jobs", (("sl2", "1"), ("all", "2")))
def test_verify_above_the_genus_cap_exits_2(suite, jobs):
    proc = run_cli("verify", "--suite", suite, "--max-genus", "11", "--extended",
                   "--jobs", jobs, "--time-budget", "5")
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("error:") and "1..10" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_action_time_budget_exits_1():
    # most of the walk's pairs are looked up, not computed; the walk's own
    # tick per basis key still stops it
    proc = run_cli("action", "--genus", "8", "--spinc", "1", "--extended",
                   "--time-budget", "0.1")
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


@pytest.mark.parametrize("argv, degs", (
    (("hat", "-g", "3", "--degrees", "0..2"), ["1/2", "3/2"]),
    (("plus", "-g", "3", "--degrees=-3..-2"), ["-5/2"]),
    (("hat", "-g", "3", "--degrees=-7/3..-4/3"), ["-3/2"]),
    (("plus", "-g", "3", "--degrees=-7/3..-4/3"), ["-3/2"]),
))
def test_degree_window_keeps_only_the_degrees_inside(argv, degs):
    proc = run_cli(*argv, "--out", "json")
    assert proc.returncode == 0, proc.stderr
    assert [e["deg"] for e in json.loads(proc.stdout)["result"]["entries"]] == degs


def test_degree_window_without_a_half_integer_exits_2():
    proc = run_cli("hat", "-g", "3", "--degrees", "1..1")
    assert proc.returncode == 2
    assert "empty degree window" in proc.stderr and "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("argv", (("beta", "-g", "2"),
                                  ("verify", "--suite", "beta", "--max-genus", "1"),
                                  ("snf", "--input")))
@pytest.mark.parametrize("ring", ("F2", "Q"))
def test_integer_only_commands_reject_other_rings(argv, ring, tmp_path, capsys):
    # beta, snf and verify read no ring; "Z", the default, is recorded
    from hfsigma.cli import main
    if argv[0] == "snf":
        argv += (str(_matrix_file(tmp_path)),)
    assert main([*argv, "--ring", ring]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main([*argv, "--ring", "Z", "--out", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["ring"] == "Z"


def _matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 1, "cols": 2, "ring": "Z",
                                "entries": [[0, 0, "2"], [0, 1, "4"]]}))
    return path


@pytest.mark.parametrize("argv, tag", (
    (("hat", "-g", "2", "--ring", "F2"), "F2"),
    (("hat", "-g", "2", "--ring", "Q"), "Q"),
    (("hat", "-g", "2"), "Z"),
    (("infinity", "-g", "2", "--ring", "Fp:3"), "F3"),
    (("plus", "-g", "3", "--ring", "F2", "--reduced"), "F2"),
    (("eg", "-g", "2", "--ring", "Q"), "Q"),
))
def test_text_tables_write_groups_over_the_ring(argv, tag, capsys):
    # a field run's vector spaces read F2^9 or Q^9, not Z^9
    from hfsigma.cli import main
    assert main(list(argv)) == 0
    groups = {" ".join(line.split()[3:]) for line in capsys.readouterr().out.splitlines()
              if " rank " in line and "start" not in line} - {"0"}
    assert groups and all(g == tag or g.startswith(tag + "^") for g in groups), groups


def test_verify_jobs_caps_the_pool_at_the_suite_count(monkeypatch, capsys):
    # a process pool forks every worker up front, so --jobs 5000 must not
    # ask for 5000 workers to run 11 suites; the pool here maps in process
    import concurrent.futures as cf
    from hfsigma import cli, verify
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cf, "ProcessPoolExecutor", InProcessPool)
    for suite, jobs in (("all", "5000"), ("all", "3"), ("beta", "8")):
        assert cli.main(["verify", "--suite", suite, "--max-genus", "1",
                         "--jobs", jobs, "--out", "json"]) == 0
    assert asked == [len(verify._SUITE_FUNCS), 3]
    capsys.readouterr()


@pytest.mark.parametrize("modulus, code", (
    ("2305843009213693951", 0),        # 2^61 - 1, a prime
    ("318665857834031151167461", 2),   # a strong pseudoprime to 2, 3, ..., 37
    ("3317044064679887385961981", 2),  # the least one to 2, 3, ..., 41
))
def test_primality_of_a_large_modulus_is_decided_at_once(modulus, code):
    # trial division to the square root runs for minutes on each of these
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hfsigma.cli", "hat", "-g", "2", "--ring",
             f"Fp:{modulus}", "--time-budget", "1"],
            capture_output=True, text=True, env=cli_env(), timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail(f"Fp:{modulus} was still undecided after 20 s")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_miller_rabin_matches_trial_division():
    from hfsigma.rings import _is_prime

    def by_trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 20000) if _is_prime(n) != by_trial(n)] == []


def test_a_nan_time_budget_exits_2():
    # nothing compares greater than NaN, so it was a budget that never ran out;
    # the serial runs are in the malformed-flag sweep below
    proc = run_cli("verify", "--suite", "hat", "--max-genus", "2", "--jobs", "2",
                   "--time-budget", "nan")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "nan" in proc.stderr
    from hfsigma.errors import Deadline, DomainError
    with pytest.raises(DomainError):
        Deadline(float("nan"))


SPINC = {"nontorsion": ("--spinc", "1"), "action": ("--spinc", "1")}
MALFORMED_FLAGS = [
    *[("hat", "--ring", ring) for ring in ("Fp:x", "Fp:", "F²", "Fp:-7", "F1", "W",
                                           "Fp: 7", "F٣")],
    *[(cmd, "--ring", "Fp:x") for cmd in ("plus", "infinity", "nontorsion",
                                          "action", "eg", "slice", "beta", "snf",
                                          "verify")],
    *[(cmd, "--time-budget", t) for cmd in ("hat", "verify", "slice")
      for t in ("nan", "abc", "")],
    *[(cmd, "--degrees=" + w) for cmd in ("hat", "plus")
      for w in ("1/0..1", "x..1", "1..0", "..", "1", "1..2..3", "")],
    ("plus", "--degrees", "-1..1"),
    *[("verify", "--jobs", j) for j in ("0", "-3")],
    *[(cmd, "-g", "2") for cmd in ("verify", "snf")],  # they read no genus
    *[(cmd, "--spinc", k) for cmd in ("nontorsion", "action", "beta", "slice")
      for k in ("x", "1.5", "")],
]


@pytest.mark.parametrize("flags", MALFORMED_FLAGS, ids=" ".join)
def test_a_malformed_flag_exits_2_without_traceback(flags, tmp_path):
    # ring moduli that int() or isdigit() misread, a NaN budget, a zero
    # denominator in a degree window and values argparse rejects itself
    command, rest = flags[0], flags[1:]
    argv = {"verify": ("--suite", "beta", "--max-genus", "1"),
            "slice": ("-g", "2", "--op", "F", "--degree", "0"),
            "snf": ("--input", str(_matrix_file(tmp_path)))}.get(command, ("-g", "2"))
    if "--spinc" not in rest:
        argv += SPINC.get(command, ())
    proc = run_cli(command, *argv, *rest)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr and "Traceback" not in proc.stderr


def test_action_builds_the_model_without_the_table(monkeypatch, capsys):
    from hfsigma import cli, nontorsion

    def no_table(*args, **kwargs):
        raise AssertionError("action computed the nontorsion table")

    monkeypatch.setattr(nontorsion, "hf_plus_nontorsion", no_table)
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
ENGINE_MODULES = {"hfsigma.engine", "hfsigma.blocks", "hfsigma.nontorsion",
                  "hfsigma.bundle", "hfsigma.cfk", "hfsigma.linalg",
                  "hfsigma.blades", "hfsigma.exterior", "hfsigma.lefschetz",
                  "hfsigma.verify"}
# OpenSSL's libcrypto, which hashlib links; the package hashes without it
OPENSSL = {"hashlib", "_hashlib"}


def test_help_and_cache_hits_load_only_the_cli(tmp_path):
    def loaded(*argv, env_extra=None):
        proc = run_cli(*argv, env_extra=env_extra, python_args=("-c", LOADED_PROBE))
        return set(proc.stderr.split()), proc.stdout

    mods, out = loaded("--help")
    assert "usage: hf" in out and "hfsigma.cli" in mods
    assert not mods & (ENGINE_MODULES | OPENSSL)
    env = {"HF_CACHE_DIR": str(tmp_path / "cache")}
    cold, _ = loaded("hat", "-g", "2", "--out", "json", env_extra=env)
    assert "hfsigma.blocks" in cold  # the probe sees a computation
    assert not cold & OPENSSL
    for out_form in ("json", "table"):
        mods, out = loaded("hat", "-g", "2", "--out", out_form, env_extra=env)
        assert "rank 9" in out or '"free_rank": 9' in out
        assert not mods & (ENGINE_MODULES | OPENSSL), out_form


def test_commands_load_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at every start
    for argv in (("nontorsion", "-g", "3", "--spinc", "1"),
                 ("verify", "--suite", "star", "--max-genus", "2")):
        proc = run_cli(*argv, python_args=("-c", LOADED_PROBE))
        mods = set(proc.stderr.split())
        assert "hfsigma.blocks" in mods, argv
        assert not mods & {"dataclasses", "inspect"}, argv


# Which layers a cold command may not load: each compiles only its subject,
# and none loads OpenSSL, whether it hashes or not.
COLD_UNLOADED = [
    (("hat", "-g", "2"), {"hfsigma.nontorsion", "hfsigma.bundle",
                          "hfsigma.exterior", "hfsigma.verify", *OPENSSL}),
    (("infinity", "-g", "2", "--ring", "Z"),
     {"hfsigma.nontorsion", "hfsigma.bundle", "hfsigma.exterior", "hfsigma.verify",
      *OPENSSL}),
    (("plus", "-g", "3", "--reduced"),
     {"hfsigma.nontorsion", "hfsigma.bundle", "hfsigma.exterior", "hfsigma.verify",
      *OPENSSL}),
    (("nontorsion", "-g", "3", "--spinc", "1"),
     {"hfsigma.engine", "hfsigma.bundle", "hfsigma.verify", *OPENSSL}),
    (("action", "-g", "3", "--spinc", "1"),
     {"hfsigma.engine", "hfsigma.bundle", "hfsigma.verify", *OPENSSL}),
    (("eg", "-g", "2"), {"hfsigma.engine", "hfsigma.nontorsion", *OPENSSL}),
    (("beta", "-g", "2"), {"hfsigma.engine", "hfsigma.nontorsion", *OPENSSL}),
    (("verify", "--suite", "infinity", "--max-genus", "3"), OPENSSL),
]
UNCACHED = {"action", "beta", "verify"}  # commands without a result cache


@pytest.mark.parametrize("argv,unloaded", COLD_UNLOADED,
                         ids=[argv[0] for argv, _ in COLD_UNLOADED])
def test_cold_commands_load_only_their_subject(argv, unloaded, tmp_path):
    cache = () if argv[0] in UNCACHED else ("--cache-dir", str(tmp_path))
    proc = run_cli(*argv, *cache, "--out", "json", python_args=("-c", LOADED_PROBE))
    assert json.loads(proc.stdout)["command"] == argv[0]
    mods = set(proc.stderr.split())
    assert "hfsigma.blocks" in mods  # the probe sees a computation
    assert not mods & unloaded, sorted(mods & unloaded)


PACKAGE_MODULES = sorted(name for name in os.listdir(os.path.join(SRC, "hfsigma"))
                         if name.endswith(".py"))


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_cache_key_covers_source(module, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(os.path.join(SRC, "hfsigma"), src / "hfsigma",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "cache"
    env = {"HF_CACHE_DIR": str(cache)}
    first = _payload(run_cli("hat", "-g", "2", "--out", "json", env_extra=env, src=src))
    assert len(list(cache.glob("*.json"))) == 1
    with open(src / "hfsigma" / module, "a") as fh:
        fh.write("# an edit that must invalidate cached results\n")
    second = run_cli("hat", "-g", "2", "--out", "json", env_extra=env, src=src)
    assert _payload(second) == first
    assert len(list(cache.glob("*.json"))) == 2  # a miss, stored anew
