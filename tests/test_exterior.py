import random
from itertools import combinations

import pytest

from hfsigma.errors import GenusMismatch
from hfsigma.exterior import (Multivector, all_blades, blade_grade,
                              blades_of_grade, contract_blades, eta, interior,
                              omega, random_multivector, star_blade,
                              wedge_blades)
from math import comb
from oracles import pairwise_product


def e(g, i):
    return Multivector.basis_vector(g, i)


def test_wedge_basics():
    g = 2
    assert e(g, 1).wedge(e(g, 2)) == Multivector.z(g, 1)
    assert e(g, 1).wedge(e(g, 1)).is_zero()
    # one transposition flips the sign
    lhs = e(g, 1).wedge(e(g, 3)).wedge(e(g, 2))
    rhs = e(g, 1).wedge(e(g, 2)).wedge(e(g, 3))
    assert lhs == rhs.scale(-1)


def test_wedge_graded_commutative():
    rng = random.Random(0)
    for g in (2, 3):
        for _ in range(10):
            pa, pb = rng.randint(0, 2 * g), rng.randint(0, 2 * g)
            a = random_multivector(g, pa, rng)
            b = random_multivector(g, pb, rng)
            assert a.wedge(b) == b.wedge(a).scale((-1) ** (pa * pb))


def test_products_match_the_per_pair_rule():
    # mixed grades, so that several blade pairs land on one mask; a ^ a of
    # an odd element and the contraction of a 2-form into itself cancel
    rng = random.Random(18)
    for g in range(1, 6):
        for _ in range(12):
            a, b = (sum((random_multivector(g, p, rng, density=0.3, span=3)
                         for p in rng.sample(range(2 * g + 1), 3)),
                        Multivector.zero(g)) for _ in range(2))
            assert a.wedge(b) == pairwise_product(wedge_blades, a, b)
            assert a.contract(b) == pairwise_product(contract_blades, a, b)
        odd = random_multivector(g, 1, rng)
        assert odd.wedge(odd).is_zero()
        assert pairwise_product(wedge_blades, odd, odd).is_zero()
        two = random_multivector(g, 2, rng)
        assert two.contract(two) == pairwise_product(contract_blades, two, two)


def test_contract_omega_examples():
    for g in range(1, 5):
        w = omega(g)
        for k in range(1, 2 * g + 1):
            assert e(g, k).contract(w) == e(g, k)
        assert w.contract(w) == Multivector(g, {0: -g})


def test_contract_pair_identity():
    # z_i into the divided power: -eta_{k-1} + z_i ^ eta_{k-2}
    for g in range(1, 5):
        for i in range(1, g + 1):
            zi = Multivector.z(g, i)
            for k in range(0, g + 1):
                want = eta(k - 1, g).scale(-1) + zi.wedge(eta(k - 2, g))
                assert zi.contract(eta(k, g)) == want


def test_eta_structure():
    for g in range(1, 6):
        assert eta(0, g) == Multivector.unit(g)
        assert eta(1, g) == omega(g)
        assert eta(g + 1, g).is_zero()
        for k in range(0, g + 1):
            mv = eta(k, g)
            assert len(mv.coeffs) == comb(g, k)
            assert set(mv.coeffs.values()) <= {1}
            assert mv.grades() in ([], [2 * k])
    assert eta(2, 2) == Multivector.z(2, 1).wedge(Multivector.z(2, 2))


def test_star_unit_and_involution():
    for g in range(1, 5):
        assert Multivector.unit(g).star() == eta(g, g)
        for m in all_blades(g):
            b = Multivector.from_blade(g, m)
            p = blade_grade(m)
            assert b.star().star() == b.scale((-1) ** (g - p))


def test_star_monomial_closed_form():
    # star(x_I z_J) = (-1)^|J| x_I z_K with K the complementary pair set
    rng = random.Random(1)
    for g in range(1, 6):
        for _ in range(25):
            items = list(range(1, g + 1))
            rng.shuffle(items)
            r = rng.randint(0, g)
            I, rest = sorted(items[:r]), sorted(items[r:])
            s = rng.randint(0, len(rest))
            J, K = sorted(rest[:s]), sorted(rest[s:])
            mono = Multivector.unit(g)
            for i in I:
                mono = mono.wedge(e(g, rng.choice([2 * i - 1, 2 * i])))
            for j in J:
                mono = mono.wedge(Multivector.z(g, j))
            kmono = Multivector.unit(g)
            (mask, coeff), = mono.to_terms()
            xmask = mask
            for j in J:
                xmask &= ~(0b11 << (2 * (j - 1)))
            kmono = Multivector.from_blade(g, xmask, coeff)
            for kk in K:
                kmono = kmono.wedge(Multivector.z(g, kk))
            assert mono.star() == kmono.scale((-1) ** s)


def test_eta_contract_volume():
    for g in range(1, 6):
        for n in range(0, g + 1):
            assert eta(n, g).contract(eta(g, g)) == eta(g - n, g).scale((-1) ** n)


def test_interior():
    g = 3
    w = omega(g)
    # dual of e_2 contracts the form back to e_2
    assert interior(e(g, 2), w) == e(g, 2)
    assert interior(e(g, 1), Multivector.unit(g)).is_zero()
    rng = random.Random(2)
    for p in range(0, 2 * g + 1):
        a = random_multivector(g, p, rng)
        for i in range(1, 2 * g + 1):
            v = e(g, i)
            assert interior(v, interior(v, a)).is_zero()


def test_genus_mismatch_raises():
    with pytest.raises(GenusMismatch):
        omega(2).wedge(omega(3))
    with pytest.raises(GenusMismatch):
        omega(2).contract(omega(3))


def test_blades_of_grade_enumeration():
    # against the sorted combinations, past both ends of the grades
    for g in range(8):
        for p in range(-1, 2 * g + 2):
            want = sorted(sum(1 << b for b in bits)
                          for bits in combinations(range(2 * g), p)) if p >= 0 else []
            assert blades_of_grade(g, p) == want, (g, p)


def test_multivector_json_roundtrip():
    rng = random.Random(3)
    mv = random_multivector(3, 3, rng) + random_multivector(3, 1, rng)
    back = Multivector.from_json(3, mv.to_json())
    assert back == mv


def _ref_contract_vector(vbit, mask):
    # e_{vbit+1} |_ blade, one vector at a time: only the partner is removed
    pbit = 1 << (vbit ^ 1)
    if not mask & pbit:
        return None
    sign = -1 if bin(mask & (pbit - 1)).count("1") % 2 else 1
    return (-sign if vbit % 2 == 0 else sign), mask ^ pbit


def _ref_contract(xmask, amask):
    # vectors of x apply right to left, the highest index first
    coeff = 1
    for vbit in reversed([b for b in range(xmask.bit_length()) if xmask >> b & 1]):
        hit = _ref_contract_vector(vbit, amask)
        if hit is None:
            return None
        s, amask = hit
        coeff *= s
    return coeff, amask


def test_star_closed_form_against_reference():
    for g in range(1, 7):
        full = (1 << (2 * g)) - 1
        for m in range(1 << (2 * g)):
            assert star_blade(m, g) == _ref_contract(m, full), (g, m)


def test_contraction_closed_form_against_reference():
    for g in range(1, 5):
        n = 1 << (2 * g)
        for x in range(n):
            for a in range(n):
                assert contract_blades(x, a) == _ref_contract(x, a), (g, x, a)
