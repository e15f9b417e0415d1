import importlib.util
import json
import os

import numpy as np
import pytest

from sgmod import (
    FiniteModule,
    FiniteRing,
    Ideal,
    PrimeDecomposition,
    SupportWindow,
    ZeroModuleError,
    annihilator_ideal_of_element,
    annihilator_in_module,
    associated_primes,
    build_truncated_poly_ring,
    build_zmod,
    check_property_a,
    decompose_zero_divisors,
    direct_sum,
    enumerate_ideals,
    free_monoid,
    has_very_few_zero_divisors,
    ideal_generated,
    is_primal,
    is_prime_ideal,
    module_from_tables,
    prime_ideals,
    quotient_module,
    quotient_ring,
    ring_as_module,
    submodule_generated,
    verify_domain_prime_extension,
    zero_divisor_set,
)
from sgmod import bitset

GEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "perfbench", "gen.py")


# ---------------------------------------------------------------------------
# oracles: the generic ideal searches and the predicate checks that the Ass(M)
# derivations replaced


def oracle_maximal_ideals_within(ring, zmask):
    """Greedy saturation: grow each principal ideal inside the set until no
    element of the set can be added without escaping, then keep maximal results.
    """
    found = {}
    zbits = list(bitset.iter_bits(zmask))
    for z in zbits:
        ideal = ideal_generated(ring, (z,))
        if not bitset.is_subset(ideal.members, zmask):
            continue
        changed = True
        while changed:
            changed = False
            for w in zbits:
                if ideal.contains(w):
                    continue
                bigger = ideal_generated(ring, ideal.members_tuple() + (w,))
                if bitset.is_subset(bigger.members, zmask):
                    ideal = bigger
                    changed = True
        found[ideal.members] = ideal
    maximal = [i for i in found.values()
               if not any(o != i.members and bitset.is_subset(i.members, o) for o in found)]
    return sorted(maximal, key=lambda i: i.members_tuple())


def oracle_associated_primes(module):
    """The primality filter that associated_primes replaced: each distinct
    per-element annihilator with its least nonzero witness, kept iff
    is_prime_ideal holds, sorted by members."""
    least = {}
    for x in module.elements():
        if x != module.zero:
            least.setdefault(annihilator_ideal_of_element(module, x).members, x)
    anns = [(Ideal(module.ring, m), x) for m, x in least.items()]
    return sorted(((p, x) for p, x in anns if is_prime_ideal(p)[0]),
                  key=lambda pw: pw[0].members_tuple())


def oracle_decomposition(module):
    """Maximal prime candidates among the oracle's Ass(M) and the saturated
    ideals inside Z, checked to cover Z, each with the least m whose
    annihilator it is."""
    zmask = zero_divisor_set(module)
    candidates = {p.members: p for p, _ in oracle_associated_primes(module)}
    for ideal in oracle_maximal_ideals_within(module.ring, zmask):
        if is_prime_ideal(ideal)[0]:
            candidates[ideal.members] = ideal
    primes = sorted((i for i in candidates.values()
                     if not any(o != i.members and bitset.is_subset(i.members, o)
                                for o in candidates)),
                    key=lambda i: i.members_tuple())
    union = 0
    for p in primes:
        union |= p.members
    assert union == zmask
    witnesses = [next(m for m in module.elements() if m != module.zero
                      and annihilator_ideal_of_element(module, m).members == p.members)
                 for p in primes]
    return [p.members_tuple() for p in primes], witnesses


def oracle_property_a(module):
    """Each saturated ideal inside Z with the least nonzero element it kills."""
    zero_mask = 1 << module.zero
    out = []
    for ideal in oracle_maximal_ideals_within(module.ring, zero_divisor_set(module)):
        ann = annihilator_in_module(ideal, module)
        out.append((ideal.members_tuple(), bitset.lowest_bit(ann.members & ~zero_mask)))
    return out


def oracle_very_few(module):
    """Whether the union of Ass(M) is Z(M), and the least element it misses."""
    zmask = zero_divisor_set(module)
    union = 0
    for p, _ in oracle_associated_primes(module):
        union |= p.members
    return union == zmask, bitset.lowest_bit(zmask & ~union)


def oracle_incomparable(primes):
    """No prime of the list inside another one."""
    return all(not bitset.is_subset(primes[i].members, primes[j].members)
               for i in range(len(primes)) for j in range(len(primes)) if i != j)


def oracle_primal(module):
    """Closure of Z(M) under addition, then under the action, pair by pair.

    Returns whether Z(M) is an ideal, its members when it is, and the first
    violation ("add" | "action", a, b) otherwise; a Z(M) that is an ideal is
    checked to be prime and the only associated prime.
    """
    zmask = zero_divisor_set(module)
    ring = module.ring
    zbits = list(bitset.iter_bits(zmask))
    for a in zbits:
        for b in zbits:
            if not bitset.has_bit(zmask, ring.add(a, b)):
                return False, None, ("add", a, b)
    for r in ring.elements():
        for z in zbits:
            if not bitset.has_bit(zmask, ring.mul(r, z)):
                return False, None, ("action", r, z)
    assert is_prime_ideal(Ideal(ring, zmask))[0]
    assert [p.members for p, _ in oracle_associated_primes(module)] == [zmask]
    return True, bitset.members(zmask), None


def oracle_prime_ideals(ring):
    return [i for i in enumerate_ideals(ring) if is_prime_ideal(i)[0]]


def _klein_over_z4():
    """Z/2 (+) Z/2 as a Z/4-module through Z/4 -> Z/2; not cyclic."""
    z4 = build_zmod(4)
    add = [[a ^ b for b in range(4)] for a in range(4)]
    act = [[x if r % 2 else 0 for x in range(4)] for r in range(4)]
    return module_from_tables(z4, add, act, 0, label="V4")


def _oracle_modules():
    z12 = ring_as_module(build_zmod(12))
    s12 = direct_sum(z12, z12)
    z4 = ring_as_module(build_zmod(4))
    z2_over_z4 = quotient_module(z4, submodule_generated(z4, [2]))
    z36 = build_zmod(36)
    t = build_truncated_poly_ring(3, 2, 2)
    return [
        ring_as_module(build_truncated_poly_ring(2, 2, 3)),
        ring_as_module(build_truncated_poly_ring(2, 3, 2)),
        ring_as_module(t),
        ring_as_module(quotient_ring(t, ideal_generated(t, [3]))),
        s12,
        quotient_module(s12, submodule_generated(s12, [27])),
        quotient_module(s12, submodule_generated(s12, [6 * 12 + 4])),
        direct_sum(z4, z2_over_z4),
        ring_as_module(quotient_ring(z36, ideal_generated(z36, [12]))),
        _klein_over_z4(),
    ]


def _relabelled_product_ring():
    """Z/16 x Z/16 as the `tables` ring X of the seed-11 table_build benchmark
    session: its elements are shuffled, so its zero is not index 0."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    x = json.loads(gen.generate("table_build", 11))["rings"]["X"]
    ring = FiniteRing(x["add"], x["mul"], x["zero"], x["one"], label="X")
    assert ring.zero != 0
    return ring


def _sum12():
    z12 = ring_as_module(build_zmod(12))
    return direct_sum(z12, z12)


def _quotient_of_sum12(gens):
    s12 = _sum12()
    return quotient_module(s12, submodule_generated(s12, gens))


def _over(n, d):
    """Z/d as a Z/n-module, the quotient of Z/n by (d)."""
    zn = ring_as_module(build_zmod(n))
    return quotient_module(zn, submodule_generated(zn, [d]))


# the quotients Q of Z/12 (+) Z/12 that the module_structure benchmark session
# draws from; (x, y) has index 12 x + y
Q_GENS = ([6 * 12], [6], [6 * 12 + 6], [4 * 12], [3 * 12 + 3], [4 * 12 + 6])

# name -> builder of a nonzero module: the corpus on which associated_primes
# and the non-domain witness are compared with their oracles
CORPUS = {
    **{f"Z/{n}": (lambda n=n: ring_as_module(build_zmod(n))) for n in [*range(2, 129), 210, 360]},
    "F2[a,b]/m^3": lambda: ring_as_module(build_truncated_poly_ring(2, 2, 3)),
    "F2[a..e]/m^2": lambda: ring_as_module(build_truncated_poly_ring(2, 5, 2)),
    "F3[a,b]/m^2": lambda: ring_as_module(build_truncated_poly_ring(3, 2, 2)),
    "Z/12+Z/12": _sum12,
    **{f"Q{gens}": (lambda gens=gens: _quotient_of_sum12(gens)) for gens in Q_GENS},
    "Z/2 over Z/4": lambda: _over(4, 2),
    "Z/3 over Z/6": lambda: _over(6, 3),
    "Z/16xZ/16 relabelled": _relabelled_product_ring,
}


def _assert_matches_oracles(module):
    primes, witnesses = oracle_decomposition(module)
    d = decompose_zero_divisors(module)
    assert [p.members_tuple() for p in d.primes] == primes
    assert list(d.witnesses) == witnesses
    assert d.degree == len(primes) and d.incomparable
    report = check_property_a(module)
    assert report.holds and report.failure is None
    assert [(i.members_tuple(), m) for i, m in report.witnesses] == oracle_property_a(module)
    assert report.checked_ideals == len(primes)
    assert d.incomparable == oracle_incomparable(d.primes)
    very_few = has_very_few_zero_divisors(module)
    assert (very_few.holds, very_few.uncovered) == oracle_very_few(module)
    assert [p.members_tuple() for p in very_few.primes] == primes
    assert list(very_few.witnesses) == witnesses
    primal = is_primal(module)
    ideal = primal.zero_divisor_ideal
    assert (primal.is_primal, None if ideal is None else ideal.members_tuple(),
            primal.violation) == oracle_primal(module)


class TestAgainstOracles:
    @pytest.mark.parametrize("n", range(2, 61))
    def test_zmod(self, n):
        ring = build_zmod(n)
        _assert_matches_oracles(ring_as_module(ring))
        assert [p.members_tuple() for p in prime_ideals(ring)] == \
               [p.members_tuple() for p in oracle_prime_ideals(ring)]

    @pytest.mark.parametrize("index", range(10))
    def test_other_modules(self, index):
        module = _oracle_modules()[index]
        _assert_matches_oracles(module)
        ring = module.ring
        assert [p.members_tuple() for p in prime_ideals(ring)] == \
               [p.members_tuple() for p in oracle_prime_ideals(ring)]

    def test_zero_ring(self):
        zero = build_zmod(1)
        assert prime_ideals(zero) == oracle_prime_ideals(zero) == []
        with pytest.raises(ZeroModuleError):
            decompose_zero_divisors(ring_as_module(zero))
        for report in (check_property_a, has_very_few_zero_divisors, is_primal):
            with pytest.raises(ZeroModuleError):
                report(ring_as_module(zero))


class TestAssociatedPrimesOracle:
    """associated_primes keeps the annihilators that no other one strictly
    contains; the primality filter it replaced finds the same primes, with the
    same witnesses, in the same order."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_maximal_annihilators_are_the_prime_ones(self, name):
        module = CORPUS[name]()
        assert [(p.members_tuple(), x) for p, x in associated_primes(module)] == \
               [(p.members_tuple(), x) for p, x in oracle_associated_primes(module)]

    @pytest.mark.parametrize("name", [*CORPUS, "zero ring"])
    def test_non_domain_witness_is_the_least_zero_product(self, name):
        # the least pair outside the zero ideal with a product inside it, the
        # pair that domain_prime_extension reports for a non-domain
        ring = build_zmod(1) if name == "zero ring" else CORPUS[name]().ring
        report = verify_domain_prime_extension(ring, None, free_monoid(1), SupportWindow(((0,),)))
        prime, pair = is_prime_ideal(ideal_generated(ring, ()))
        assert report.outcome == "pass"
        assert report.details["ring_is_domain"] == prime
        if prime:
            assert "non_domain_witness" not in report.details
        else:
            assert report.details["non_domain_witness"] == (None if pair is None else list(pair))


class TestDecomposition:
    def test_z6(self, m6):
        d = decompose_zero_divisors(m6)
        assert isinstance(d, PrimeDecomposition)
        assert [p.members_tuple() for p in d.primes] == [(0, 2, 4), (0, 3)]
        assert d.degree == 2 and d.incomparable
        assert d.witnesses == (3, 2)

    def test_z4(self, m4):
        d = decompose_zero_divisors(m4)
        assert [p.members_tuple() for p in d.primes] == [(0, 2)]
        assert d.degree == 1

    def test_field(self, m5):
        d = decompose_zero_divisors(m5)
        assert [p.members_tuple() for p in d.primes] == [(0,)]
        assert d.degree == 1

    def test_z12(self, m12):
        d = decompose_zero_divisors(m12)
        assert [p.members_tuple() for p in d.primes] == [
            (0, 2, 4, 6, 8, 10), (0, 3, 6, 9)]
        assert d.degree == 2

    def test_truncated(self, mt):
        d = decompose_zero_divisors(mt)
        assert d.degree == 1
        assert d.primes[0].members == zero_divisor_set(mt)

    def test_primes_are_prime_and_inside_z(self, m6, m12, m4, mt):
        for module in (m6, m12, m4, mt):
            z = zero_divisor_set(module)
            d = decompose_zero_divisors(module)
            union = 0
            for p in d.primes:
                assert is_prime_ideal(p)[0]
                assert p.members & ~z == 0
                union |= p.members
            assert union == z

    def test_incomparability_witnesses(self, m6, m12):
        for module in (m6, m12):
            d = decompose_zero_divisors(module)
            for i, p in enumerate(d.primes):
                for j, q in enumerate(d.primes):
                    if i != j:
                        assert p.members & ~q.members != 0

    def test_reports_are_memoised_per_module(self, m6, m12):
        for module in (m6, m12):
            assert decompose_zero_divisors(module) is decompose_zero_divisors(module)
            assert is_primal(module) is is_primal(module)

    def test_deterministic_and_label_invariant(self, z6, m6):
        first = decompose_zero_divisors(m6)
        again = decompose_zero_divisors(ring_as_module(build_zmod(6)))
        assert [p.members_tuple() for p in first.primes] == \
               [p.members_tuple() for p in again.primes]
        # relabel the module elements by a permutation; since the primes live
        # in the (unpermuted) ring, the decomposition must be identical
        perm = np.array([0, 2, 1, 4, 3, 5])
        inv = np.argsort(perm)
        add = perm[z6.add_table[np.ix_(inv, inv)]]
        act = perm[z6.mul_table[:, inv]]
        shuffled = FiniteModule(z6, add, act, int(perm[0]), label="Z/6 relabeled")
        d = decompose_zero_divisors(shuffled)
        assert [p.members_tuple() for p in d.primes] == \
               [p.members_tuple() for p in first.primes]


class TestVeryFew:
    def test_z6(self, m6):
        report = has_very_few_zero_divisors(m6)
        assert report.holds
        assert [p.members_tuple() for p in report.primes] == [(0, 2, 4), (0, 3)]

    def test_z12(self, m12):
        report = has_very_few_zero_divisors(m12)
        assert report.holds
        assert report.witnesses == (6, 4)

    def test_z4(self, m4):
        report = has_very_few_zero_divisors(m4)
        assert report.holds
        assert [p.members_tuple() for p in report.primes] == [(0, 2)]

    def test_implies_property_a(self, m4, m5, m6, m12, mt):
        for module in (m4, m5, m6, m12, mt):
            if has_very_few_zero_divisors(module).holds:
                assert check_property_a(module).holds


class TestPropertyA:
    def test_z6_witnesses(self, m6):
        report = check_property_a(m6)
        assert report.holds and report.failure is None
        got = {i.members_tuple(): m for i, m in report.witnesses}
        assert got == {(0, 2, 4): 3, (0, 3): 2}

    def test_z4(self, m4):
        report = check_property_a(m4)
        assert report.holds
        assert {i.members_tuple(): m for i, m in report.witnesses} == {(0, 2): 2}

    def test_field(self, m5):
        report = check_property_a(m5)
        assert report.holds
        assert {i.members_tuple(): m for i, m in report.witnesses} == {(0,): 1}
        assert report.checked_ideals == 1

    def test_witnesses_replay(self, m6, m12, mt):
        for module in (m6, m12, mt):
            report = check_property_a(module)
            for ideal, m in report.witnesses:
                assert m != module.zero
                assert all(module.act(r, m) == module.zero
                           for r in ideal.members_tuple())


class TestPrimal:
    def test_z4(self, m4):
        report = is_primal(m4)
        assert report.is_primal
        assert report.zero_divisor_ideal.members_tuple() == (0, 2)

    def test_z6_violation(self, m6):
        report = is_primal(m6)
        assert not report.is_primal
        assert report.violation == ("add", 2, 3)

    def test_field(self, m5):
        report = is_primal(m5)
        assert report.is_primal
        assert report.zero_divisor_ideal.members_tuple() == (0,)

    def test_truncated(self, mt):
        assert is_primal(mt).is_primal

    def test_matches_degree_one(self, m4, m5, m6, m12, mt):
        for module in (m4, m5, m6, m12, mt):
            degree = decompose_zero_divisors(module).degree
            assert is_primal(module).is_primal == (degree == 1)
