"""Acceptance gate: one test per shipped criterion, exact equality throughout.

Default scale is genus <= 5, plus the genus-7 order-4 torsion hunt.  Each
test prints a PASS line so `pytest -v -s tests/test_acceptance.py` doubles
as the acceptance report.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb

from hfsigma import bundle, engine, nontorsion, verify
from hfsigma.lefschetz import primitive_dim, self_dual_rank
from hfsigma.linalg import GroupPresentation
from hfsigma.rings import GF, QQ, ZZ
from oracles import h1_action

MAX_G = 5


def _report(name, detail=""):
    print(f"[PASS] {name} {detail}".rstrip())


def _suite_ok(name, max_genus=MAX_G):
    rep = verify.run_suite(name, max_genus)
    bad = [c for c in rep.checks if not c.ok]
    assert not bad, f"suite {name}: " + "; ".join(
        f"{c.check_id}{c.params}: expected {c.expected} got {c.computed}"
        for c in bad)
    return rep


def test_criterion_01_exterior_identities():
    """sl2 relations, commutator, swap, star involution, exchange lemma:
    exhaustive over blades or >= 10^3 seeded random elements, g = 1..5."""
    per_family = {}
    for name in ("sl2", "star", "swap"):
        rep = _suite_ok(name)
        for c in rep.checks:
            if "trials" in c.params:
                per_family[c.check_id] = per_family.get(c.check_id, 0) \
                    + c.params["trials"]
    for family in ("leibniz-random", "swap-random", "star-wedge-contract"):
        assert per_family[family] >= 1000, (family, per_family)
    _report("criterion-01 exterior identities",
            f"(g<=5, random trials per family: {per_family}; "
            "sl2/commutator/involution exhaustive over all blades)")


def test_criterion_02_hat_tables():
    """Matrix-computed hat ranks equal the closed form, with the star-fixed
    lattice rank 2^(g-1) + C(2g,g)/2 and no torsion anywhere."""
    _suite_ok("hat")
    for g in range(1, MAX_G + 1):
        table = engine.hf_hat(g)
        assert all(grp.is_free() for grp in table.entries.values())
        assert table.rank_at(Fraction(1, 2)) \
            == comb(2 * g, g - 1) + 2 ** (g - 1) + comb(2 * g, g) // 2
    _report("criterion-02 hat closed form", f"(g<={MAX_G}, torsion-free)")


def test_criterion_03_sign_determination():
    """The middle-degree cokernel is torsion-free exactly for the bundled
    sign choice, g = 2..5."""
    for g in range(2, MAX_G + 1):
        cks = engine.sign_choice_cokernels(g)
        assert cks[(-1) ** (g - 1)].is_free()
        assert not cks[(-1) ** g].is_free()
    _report("criterion-03 sign determination", "(g=2..5)")


def test_criterion_04_infinity_ranks():
    """Per-degree inverted-flavor rank: C(2g+1, g) over Q and
    2^(2g-1) + 2^(g-1) over F_2, g = 1..5."""
    for g in range(1, MAX_G + 1):
        for grp in engine.hf_infinity(g, QQ).entries.values():
            assert grp.free_rank == comb(2 * g + 1, g)
        for grp in engine.hf_infinity(g, GF(2)).entries.values():
            assert grp.free_rank == 2 ** (2 * g - 1) + 2 ** (g - 1)
    _report("criterion-04 infinity ranks", "(Q and F2, g<=5)")


def test_criterion_05_integral_torsion():
    """Invariant factors of the inverted flavor over Z: an even factor for
    g = 3, 4, 5 and a factor divisible by 3 at g = 5."""
    found = {}
    for g in range(1, MAX_G + 1):
        factors = engine.hf_infinity(g, ZZ).all_invariant_factors()
        found[g] = factors
        if g >= 3:
            assert any(f % 2 == 0 for f in factors), (g, factors)
        else:
            assert factors == []
    assert any(f % 3 == 0 for f in found[5]), found[5]
    _report("criterion-05 integral torsion",
            "(2-torsion g=3,4,5; 3-torsion g=5)")


def test_criterion_05x_order_four_torsion_g7():
    """A factor divisible by 4 in the genus-7 integral table."""
    factors = engine.hf_infinity(7, ZZ).all_invariant_factors()
    assert any(f % 4 == 0 for f in factors)
    _report("criterion-05x order-4 torsion", "(g=7)")


def test_criterion_06_reduced_part():
    """Reduced plus ranks equal the shifted triangle model, vanish for
    g <= 2, occupy exactly [-g+5/2, g-7/2], and are torsion-free over Z."""
    for g in (1, 2):
        assert engine.hf_plus_reduced(g).support() == []
    for g in (3, 4, 5):
        red = engine.hf_plus_reduced(g)
        dims = nontorsion.x_model_dims(g, g - 3)
        for d, grp in red.entries.items():
            assert grp.free_rank == dims.get(d - Fraction(5, 2), 0), (g, d)
            assert grp.is_free(), (g, d, grp)
        support = red.support()
        assert min(support) == Fraction(5 - 2 * g, 2)
        assert max(support) == Fraction(2 * g - 7, 2)
    _report("criterion-06 reduced part", "(g<=5: model ranks, support, free)")


def test_criterion_07_nontorsion_tables():
    """Nonzero-Chern-class ranks equal X(g, g-1-|k|) for every
    1 <= |k| <= g-1, g <= 5; zero beyond; conjugation-symmetric; the direct
    kernel rank agrees with the phi-series image rank."""
    for g in range(2, MAX_G + 1):
        for k in range(1, g):
            table, model = nontorsion.hf_plus_nontorsion(g, k)
            dims = model.dims()
            assert {n: grp.free_rank for n, grp in table.entries.items()
                    if grp.free_rank} == {n: v for n, v in dims.items() if v}
            assert table.metadata["phi_rank_checked"]
            tneg, _ = nontorsion.hf_plus_nontorsion(g, -k)
            assert tneg.entries == table.entries
        tz, _ = nontorsion.hf_plus_nontorsion(g, g)
        assert not tz.entries
    _report("criterion-07 nontorsion tables",
            "(all 1<=|k|<=g-1, g<=5, phi cross-checked)")


def test_criterion_08_action_corrections():
    """Corrections vanish identically when 3|k| > g-2 (full basis sweep,
    g <= 5); at g=5, k=1 a nonzero first correction exists; every nonzero
    correction satisfies the degree and cell constraints."""
    nonzero_seen = 0
    for g in range(2, MAX_G + 1):
        for k in range(1, g):
            model = nontorsion.XModel(g, g - 1 - k)
            standard_expected = 3 * k > g - 2
            for key in model.basis():
                n = model.degree_of(key)
                for gi in range(1, 2 * g + 1):
                    _, corrs = h1_action(g, k, gi, key)
                    if standard_expected:
                        assert corrs == [], (g, k, gi, key)
                    for ct in corrs:
                        power, uexp, deg = nontorsion.correction_location(g, k, n, ct.ell)
                        assert ct.exterior_power == power
                        assert ct.u_exponent == uexp
                        assert ct.degree == deg
                        assert n >= (2 * ct.ell - 1) * k
                        assert 0 < ct.ell <= (n + k) // (2 * k)
                        if g == 5 and k == 1 and ct.ell == 1:
                            nonzero_seen += 1
    assert nonzero_seen > 0
    _report("criterion-08 action corrections",
            f"(standard where forced; {nonzero_seen} nonzero rho_1 at g=5,k=1)")


def test_criterion_09_u_action_on_reduced():
    """U on the reduced part for g = 3, 4, 5: onto at and below the middle
    degree, injective above degree 3/2, and the unexpected kernel has
    dimension 2^(g-1) - C(2g,g)/2 + C(2g,g-2).

    The unexpected kernel sits in degree 1/2 (one step above the middle),
    where the non-primitive star-self-dual middle classes live; the
    formula value is checked against the matrix computation there."""
    for g in (3, 4, 5):
        rep = engine.u_action_red(g)
        cks = rep["checks"]
        assert cks["surjective_at_and_below_middle"], (g, rep)
        assert cks["injective_above"], (g, rep)
        assert cks["unexpected_kernel_computed"] == cks["unexpected_kernel_formula"] \
            == engine.unexpected_u_kernel_dim(g), (g, cks)
        assert engine.unexpected_u_kernel_dim(g) \
            == self_dual_rank(g) - primitive_dim(g, g)
    _report("criterion-09 U on reduced",
            "(items 1-3; kernel formula at degree 1/2, g=3,4,5)")


def test_criterion_10_mod2_theorem():
    """Plus flavor mod 2 equals the integral hat table tensored up the
    U-tower, per degree, g = 1..5."""
    for g in range(1, MAX_G + 1):
        t2 = engine.hf_plus_torsion(g, GF(2))
        hatz = engine.hf_hat(g)
        low = Fraction(-2 * g - 1, 2)
        for d, grp in t2.entries.items():
            want = 0
            dd = d
            while dd >= low:
                want += hatz.rank_at(dd)
                dd -= 2
            assert grp.free_rank == want, (g, d)
    _report("criterion-10 mod-2 theorem", "(g<=5)")


def test_criterion_11_circle_bundle_and_triple_cup():
    """Bundle cohomology: rational dims match (co)primitive dims; both
    contraction cokernels agree over Z for g <= 5; the triple-cup quotients
    compose to zero and total twice the per-degree inverted rank, g <= 4."""
    for g in range(1, MAX_G + 1):
        egq = bundle.eg_cohomology(g, QQ)
        for j, grp in egq.items():
            assert grp.free_rank == bundle.eg_rank_prediction(g, j), (g, j)
        for parity, (lhs, rhs) in bundle.contraction_cokernel_comparison(g).items():
            assert lhs == rhs, (g, parity, str(lhs), str(rhs))
    for g in range(1, 5):
        dims = bundle.beta_quotient_dims(g)  # raises unless compositions vanish
        assert sum(dims.values()) == 2 * comb(2 * g + 1, g)
        inf = engine.hf_infinity(g, QQ)
        for grp in inf.entries.values():
            assert sum(dims.values()) == 2 * grp.free_rank
    _report("criterion-11 circle bundle + triple cup",
            "(dims, cokernels g<=5, beta g<=4)")


def test_criterion_12_reproducibility(tmp_path):
    """Identical configuration produces byte-identical JSON, timestamp aside."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["HF_CACHE_DIR"] = str(tmp_path / "cache")

    def run():
        return subprocess.run(
            [sys.executable, "-m", "hfsigma.cli", "plus", "--genus", "3",
             "--reduced", "--out", "json"],
            capture_output=True, text=True, env=env, check=True).stdout

    a, b = json.loads(run()), json.loads(run())
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    _report("criterion-12 reproducibility", "(byte-identical modulo timestamp)")


def test_cold_runs_are_deterministic(tmp_path):
    """Two cold runs, each with a fresh cache directory, recompute the same
    canonical payload byte for byte."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")

    def run(argv, cache):
        env["HF_CACHE_DIR"] = str(cache)
        out = json.loads(subprocess.run(
            [sys.executable, "-m", "hfsigma.cli", *argv, "--out", "json"],
            capture_output=True, text=True, env=env, check=True).stdout)
        out.pop("timestamp")
        return json.dumps(out, sort_keys=True)

    for n, argv in enumerate((["hat", "--genus", "4"],
                              ["infinity", "--genus", "4", "--ring", "Z"],
                              ["plus", "--genus", "3", "--reduced"])):
        assert run(argv, tmp_path / f"a{n}") == run(argv, tmp_path / f"b{n}"), argv
    _report("cold-versus-cold reproducibility", "(hat, infinity Z, plus --reduced)")
