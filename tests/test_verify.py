import importlib
import pkgutil

import pytest

import hfsigma
from hfsigma import blocks, verify
from hfsigma.errors import Deadline, DomainError


def memo_table_sizes():
    """Size of every memo table of the package, found by walking all of its
    modules: each functools cache wrapper, and the block store's _BLOCKS,
    _FACTORS and _KERNELS."""
    sizes = {}
    for info in pkgutil.iter_modules(hfsigma.__path__):
        mod = importlib.import_module(f"hfsigma.{info.name}")
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)):
                sizes[f"{info.name}.{attr}"] = value.cache_info().currsize
            elif attr in ("_BLOCKS", "_FACTORS", "_KERNELS"):
                sizes[f"{info.name}.{attr}"] = len(value)
    return sizes


@pytest.mark.parametrize("suite", [s for s in verify.SUITES if s != "all"])
def test_each_suite_passes_small_genus(suite):
    rep = verify.run_suite(suite, max_genus=3)
    bad = [c for c in rep.checks if not c.ok]
    assert not bad, "; ".join(
        f"{c.check_id}{c.params}: expected {c.expected} got {c.computed}"
        for c in bad)
    assert rep.checks, "suite produced no checks"
    assert rep.ok


def test_eg_suite_checks_infinity_torsion_against_eg():
    rep = verify.run_suite("eg", max_genus=3)
    cross = [c for c in rep.checks if c.check_id == "infinity-torsion-matches-eg"]
    assert [c.params for c in cross] == [{"g": g, "d": d} for g in (1, 2, 3)
                                         for d in (g, g + 1)]
    assert all(c.ok and c.source == "cross-computation" for c in cross)
    assert str(cross[-1].computed) == "Z/2"  # g = 3, d = 4


@pytest.mark.parametrize("suite", verify.SUITES)
def test_each_suite_releases_the_memo_tables(suite):
    verify.run_suite(suite, 3)
    sizes = memo_table_sizes()
    assert {"blocks._BLOCKS", "blocks._FACTORS", "blocks._KERNELS", "cfk.slice_basis",
            "cfk._flip_blade", "exterior.omega", "exterior.eta",
            "lefschetz.primitive_basis", "nontorsion._nontorsion_images",
            "nontorsion._chain_cached"} <= set(sizes)
    assert not {name: n for name, n in sizes.items() if n}


def test_later_suites_reuse_the_smith_forms_of_earlier_ones(monkeypatch):
    calls = []
    snf = blocks.smith_normal_form

    def counted(m):
        calls.append((m.rows, m.cols, frozenset(m.entries.items())))
        return snf(m)

    monkeypatch.setattr(blocks, "smith_normal_form", counted)
    reports = verify.run_suites(["infinity", "mod2", "eg"], 3)
    assert all(rep.ok for rep in reports)
    assert calls and len(calls) == len(set(calls))
    assert memo_table_sizes()["blocks._FACTORS"] == 0


def test_a_suite_alone_matches_its_part_of_all():
    combined = verify.run_suite("all", 3).checks
    alone = verify.run_suite("eg", 3).checks
    ids = {c.check_id for c in alone}
    assert [c for c in combined if c.check_id in ids] == alone


def test_run_all_collects_everything():
    rep = verify.run_suite("all", max_genus=2)
    names = {c.check_id for c in rep.checks}
    assert "hat-closed-form" in names
    assert "swap-random" in names
    assert rep.ok
    lines = rep.lines()
    assert any(line.startswith("[PASS] suite=all") for line in lines)
    data = rep.to_json()
    assert data["pass"] is True


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        verify.run_suite("bogus")


def test_report_shows_failures():
    rep = verify.VerificationReport("demo")
    rep.add("always-wrong", {"g": 1}, 1, 2)
    assert not rep.ok
    assert any(line.startswith("[FAIL] always-wrong") for line in rep.lines())


def test_report_equality_ignores_the_deadline():
    a = verify.VerificationReport("demo")
    with Deadline(3600):
        b = verify.VerificationReport("demo")
    assert a == b and a.checks == [] and a.wall_time == 0.0
    a.add("one", {"g": 1}, 1, 1)
    assert a != b
    with Deadline(3600):
        b.add("one", {"g": 1}, 1, 1)
    assert a == b and a.checks[0] == verify.VerificationCheck("one", {"g": 1}, 1, 1)
