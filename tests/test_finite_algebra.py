import gc
import weakref
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmod import (
    AxiomError,
    Ideal,
    PreconditionError,
    SizeCapError,
    Submodule,
    SubmoduleClassification,
    ZeroModuleError,
    annihilator_in_module,
    associated_primes,
    build_truncated_poly_ring,
    build_zmod,
    classify_submodule,
    direct_sum,
    enumerate_ideals,
    ideal_action_submodule,
    ideal_generated,
    ideal_product,
    is_prime_ideal,
    module_from_tables,
    quotient_module,
    quotient_ring,
    ring_as_module,
    submodule_from_members,
    submodule_generated,
    validate_module,
    validate_ring,
    zero_divisor_set,
)
from sgmod.bitset import bools_from_mask, has_bit, mask_from_bools, mask_of, members


def ideal_of(ring, *gens):
    return ideal_generated(ring, gens)


class TestRingConstructors:
    def test_zmod_zero_ring(self):
        r = build_zmod(1)
        assert r.size == 1
        assert r.zero == r.one == 0

    def test_zmod_arithmetic(self, z6, z4):
        assert z6.mul(2, 3) == 0
        assert z6.add(5, 4) == 3
        assert z4.mul(2, 2) == 0

    def test_zmod_cap(self):
        # Z/n has the cap of every other ring, no smaller one of its own
        with pytest.raises(SizeCapError, match="zmod size 4097 exceeds cap 4096"):
            build_zmod(4097)
        assert build_zmod(300).size == 300

    @pytest.mark.parametrize("build", [lambda: build_zmod(12),
                                       lambda: build_truncated_poly_ring(2, 3, 2)],
                             ids=["zmod", "truncated_poly"])
    def test_a_dropped_ring_is_freed_without_the_cycle_collector(self, build):
        # a ring is its own ring and module, with no reference to itself, so
        # reference counting frees it (a ring used for closures holds cycles
        # through its _cache, so this says nothing of one)
        ring = build()
        assert ring.ring is ring
        ref = weakref.ref(ring)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del ring
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_zmod_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            build_zmod(0)

    def test_truncated_one_variable(self):
        # basis {1, x}: four elements with x^2 = 0
        r = build_truncated_poly_ring(2, 1, 2)
        assert r.size == 4
        (x,) = r.meta["generators"]
        assert r.mul(x, x) == r.zero
        one_plus_x = r.add(r.one, x)
        assert r.mul(one_plus_x, one_plus_x) == r.one  # (1+x)^2 = 1 in char 2

    def test_truncated_two_variables(self, trunc):
        assert trunc.size == 64
        assert len(trunc.meta["monomials"]) == 6
        a, b = trunc.meta["generators"]
        ab = trunc.mul(a, b)
        assert ab != trunc.zero
        assert trunc.mul(ab, a) == trunc.zero  # degree 3 truncates

    def test_truncated_cap_one_is_prime_field(self):
        r = build_truncated_poly_ring(3, 1, 1)
        z3 = build_zmod(3)
        assert np.array_equal(r.add_table, z3.add_table)
        assert np.array_equal(r.mul_table, z3.mul_table)

    def test_truncated_rejects_composite_p(self):
        with pytest.raises(PreconditionError):
            build_truncated_poly_ring(4, 1, 2)

    def test_truncated_size_cap(self):
        with pytest.raises(SizeCapError):
            build_truncated_poly_ring(2, 2, 5)  # 2^15 elements

    def test_bad_table_rejected(self):
        add = [[0, 1], [1, 1]]  # row 1 is not a permutation
        mul = [[0, 0], [0, 1]]
        with pytest.raises(AxiomError, match="permutation"):
            from sgmod import FiniteRing
            FiniteRing(add, mul, 0, 1)

    def test_broken_distributivity_names_triple(self):
        z4 = build_zmod(4)
        mul = z4.mul_table.copy()
        mul[2][3] = 1
        mul[3][2] = 1
        from sgmod import FiniteRing
        with pytest.raises(AxiomError):
            FiniteRing(z4.add_table, mul, 0, 1)


def oracle_truncated_mul(p, monos):
    """The per-element loop that built truncated_poly's mul table: every
    product x*y expanded over the monomial basis, digit by digit."""
    B = len(monos)
    n = p ** B
    pos = {m: i for i, m in enumerate(monos)}
    powers = p ** np.arange(B, dtype=np.int64)
    coeffs = (np.arange(n)[:, None] // powers[None, :]) % p
    prod_pos = [[pos.get(tuple(a + b for a, b in zip(mi, mj)), -1) for mj in monos]
                for mi in monos]
    mul = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        a = coeffs[x]
        out = np.zeros((n, B), dtype=np.int64)
        for i in range(B):
            if a[i] == 0:
                continue
            for j in range(B):
                k = prod_pos[i][j]
                if k >= 0:
                    out[:, k] += int(a[i]) * coeffs[:, j]
        mul[x] = ((out % p) * powers).sum(axis=1)
    return mul


# every truncated_poly(p, nvars, cap) with at most 1024 elements; cap 1 is the
# prime field for any nvars, so nvars stops at 10 (cap 2 allows at most 9)
TRUNCATED_UP_TO_1024 = [
    (p, nvars, cap) for p in (2, 3, 5) for nvars in range(1, 11) for cap in range(1, 11)
    if p ** comb(nvars + cap - 1, nvars) <= 1024]


class TestTruncatedMulOracle:
    @pytest.mark.parametrize("p,nvars,cap", TRUNCATED_UP_TO_1024)
    def test_mul_table_matches_the_per_element_loop(self, p, nvars, cap):
        ring = build_truncated_poly_ring(p, nvars, cap)
        expected = oracle_truncated_mul(p, ring.meta["monomials"])
        assert np.array_equal(ring.mul_table, expected)


class TestQuotientRing:
    def test_z6_mod_3(self, z6):
        q = quotient_ring(z6, ideal_of(z6, 3))
        z3 = build_zmod(3)
        assert q.size == 3
        assert np.array_equal(q.add_table, z3.add_table)
        assert np.array_equal(q.mul_table, z3.mul_table)

    def test_identity_quotient(self, z6):
        q = quotient_ring(z6, ideal_of(z6))
        assert np.array_equal(q.add_table, z6.add_table)
        assert np.array_equal(q.mul_table, z6.mul_table)

    def test_full_quotient_is_zero_ring(self, z6):
        q = quotient_ring(z6, ideal_of(z6, 1))
        assert q.size == 1
        assert q.zero == q.one

    def test_rejects_non_ideal(self, z6):
        with pytest.raises(PreconditionError):
            quotient_ring(z6, Ideal(z6, mask_of([0, 2])))  # not mul-closed by 3? 2*2=4 missing


class TestIdeals:
    def test_generated_reaches_unit(self, z6):
        assert ideal_of(z6, 2, 3).members == z6.full_mask

    def test_generated_principal(self, z6):
        assert members(ideal_of(z6, 2).members) == (0, 2, 4)

    def test_generated_empty(self, z6):
        assert members(ideal_of(z6).members) == (0,)

    def test_product_annihilating(self, z6):
        assert ideal_product(ideal_of(z6, 2), ideal_of(z6, 3)).members == mask_of([0])

    def test_product_maximal_square(self, trunc):
        a, b = trunc.meta["generators"]
        m = ideal_of(trunc, a, b)
        sq = ideal_product(m, m)
        assert len(members(sq.members)) == 8
        ab = trunc.mul(a, b)
        expected = ideal_of(trunc, trunc.mul(a, a), ab, trunc.mul(b, b))
        assert sq.members == expected.members

    def test_unit_ideal_neutral(self, z6):
        i = ideal_of(z6, 2)
        assert ideal_product(i, ideal_of(z6, 1)).members == i.members

    def test_prime_principal_two(self, z6):
        ok, witness = is_prime_ideal(ideal_of(z6, 2))
        assert ok and witness is None

    def test_zero_ideal_not_prime_in_z6(self, z6):
        ok, witness = is_prime_ideal(ideal_of(z6))
        assert not ok
        assert witness == (2, 3)

    def test_improper_not_prime(self, z6):
        ok, witness = is_prime_ideal(Ideal(z6, z6.full_mask))
        assert not ok and witness is None

    def test_prime_ideals_of_z12(self, z12):
        primes = []
        for ideal in enumerate_ideals(z12):
            ok, witness = is_prime_ideal(ideal)
            if ok:
                primes.append(ideal.members_tuple())
            elif witness is not None:
                a, b = witness
                assert not ideal.contains(a) and not ideal.contains(b)
                assert ideal.contains(z12.mul(a, b))
        assert sorted(primes) == [(0, 2, 4, 6, 8, 10), (0, 3, 6, 9)]

    def test_generated_idempotent(self, z6, z12, trunc):
        for ring in (z6, z12, trunc):
            for ideal in enumerate_ideals(ring):
                again = ideal_generated(ring, ideal.members_tuple())
                assert again.members == ideal.members

    @given(n=st.integers(2, 24), data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_product_inside_intersection(self, n, data):
        ring = build_zmod(n)
        gens_a = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        gens_b = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        a = ideal_generated(ring, gens_a)
        b = ideal_generated(ring, gens_b)
        assert ideal_product(a, b).members & ~(a.members & b.members) == 0


class TestModules:
    def test_ring_as_module_zero_divisors(self, m6):
        assert members(zero_divisor_set(m6)) == (0, 2, 3, 4)

    def test_quotient_module_cosets(self, z6, m6):
        q = quotient_module(m6, submodule_generated(m6, [3]))
        # {0,3} has three cosets; the class of 1 is killed by 3
        assert q.size == 3
        assert q.act(3, 1) == q.zero

    def test_quotient_module_by_even_part(self, m6):
        q = quotient_module(m6, submodule_generated(m6, [2]))
        assert q.size == 2
        assert q.act(2, 1) == q.zero

    def test_direct_sum(self):
        z2 = build_zmod(2)
        m = ring_as_module(z2)
        d = direct_sum(m, m)
        assert d.size == 4
        assert d.add(1, 2) == 3  # (0,1) + (1,0) = (1,1)

    def test_direct_sum_needs_shared_ring(self, m4, m6):
        with pytest.raises(PreconditionError):
            direct_sum(m4, m6)

    def test_table_module_reports_failing_triple(self, z4):
        act = z4.mul_table.copy()
        act[2][3] = 1
        with pytest.raises(AxiomError):
            module_from_tables(z4, z4.add_table, act, 0)

    def test_submodule_generated(self, m6):
        assert members(submodule_generated(m6, [2]).members) == (0, 2, 4)
        assert members(submodule_generated(m6, []).members) == (0,)
        assert submodule_generated(m6, [2, 3]).members == m6.full_mask

    def test_submodule_from_members_validates(self, m6):
        submodule_from_members(m6, [0, 3])
        with pytest.raises(PreconditionError):
            submodule_from_members(m6, [0, 1])  # 1 generates everything

    def test_ideal_action(self, z6, m6):
        full = submodule_from_members(m6, range(6))
        assert members(ideal_action_submodule(ideal_of(z6, 2), full).members) == (0, 2, 4)
        assert members(ideal_action_submodule(ideal_of(z6), full).members) == (0,)
        assert ideal_action_submodule(ideal_of(z6, 1), full).members == full.members


class TestAnnihilators:
    def test_annihilator_in_module(self, z6, m6):
        assert members(annihilator_in_module(ideal_of(z6, 2), m6).members) == (0, 3)
        assert annihilator_in_module(ideal_of(z6), m6).members == m6.full_mask
        assert members(annihilator_in_module(ideal_of(z6, 1), m6).members) == (0,)

    def test_annihilator_of_element_indices(self, z12, m6, m12):
        assert members(annihilator_in_module([2], m6).members) == (0, 3)
        assert annihilator_in_module([], m6).members == m6.full_mask
        killed = annihilator_in_module([6], m12)
        assert members(killed.members) == (0, 2, 4, 6, 8, 10)
        assert killed.members == annihilator_in_module(ideal_of(z12, 6), m12).members

    def test_zero_divisor_sets(self, m5, m4):
        assert members(zero_divisor_set(m5)) == (0,)
        assert members(zero_divisor_set(m4)) == (0, 2)

    def test_zero_module_rejected(self):
        z1 = build_zmod(1)
        with pytest.raises(ZeroModuleError):
            zero_divisor_set(ring_as_module(z1))

    def test_zero_divisors_union_of_annihilators(self, m6, m12, m4):
        for module in (m6, m12, m4):
            union = 0
            for x in module.elements():
                if x != module.zero:
                    union |= mask_from_bools(module.action_table[:, x] == module.zero)
            assert union == zero_divisor_set(module)


class TestAssociatedPrimes:
    def test_z6(self, m6, z6):
        ass = associated_primes(m6)
        assert [(p.members_tuple(), w) for p, w in ass] == [((0, 2, 4), 3), ((0, 3), 2)]

    def test_field(self, m5):
        ass = associated_primes(m5)
        assert [(p.members_tuple(), w) for p, w in ass] == [((0,), 1)]

    def test_z12(self, m12):
        ass = associated_primes(m12)
        assert [(p.members_tuple(), w) for p, w in ass] == [
            ((0, 2, 4, 6, 8, 10), 6), ((0, 3, 6, 9), 4)]

    def test_contained_in_zero_divisors(self, m6, m12, m4, mt):
        for module in (m6, m12, m4, mt):
            z = zero_divisor_set(module)
            for p, _ in associated_primes(module):
                assert p.members & ~z == 0


def all_submodule_masks(module):
    out = []
    for mask in range(1 << module.size):
        if not mask >> module.zero & 1:
            continue
        mem = list(members(mask))
        ok = all(mask >> module.add(x, y) & 1 for x in mem for y in mem)
        ok = ok and all(mask >> module.act(r, x) & 1
                        for r in module.ring.elements() for x in mem)
        if ok:
            out.append(mask)
    return out


class TestClassifySubmodule:
    def test_z6_prime(self, m6):
        cls = classify_submodule(m6, submodule_generated(m6, [3]))
        assert cls.is_proper and cls.is_prime and cls.is_primary

    def test_z12_primary_not_prime(self, m12):
        cls = classify_submodule(m12, submodule_generated(m12, [4]))
        assert cls.is_proper and not cls.is_prime and cls.is_primary
        assert cls.prime_violation == (2, 2)

    def test_z4_zero_submodule(self, m4):
        cls = classify_submodule(m4, submodule_generated(m4, []))
        assert cls.is_proper and not cls.is_prime and cls.is_primary
        assert cls.prime_violation == (2, 2)

    def test_improper(self, m6):
        cls = classify_submodule(m6, submodule_from_members(m6, range(6)))
        assert not cls.is_proper and not cls.is_prime and not cls.is_primary

    def test_prime_implies_primary_everywhere(self, m6, m4, m12):
        for module in (m6, m4, m12):
            for mask in all_submodule_masks(module):
                cls = classify_submodule(module, submodule_from_members(module, members(mask)))
                assert not cls.is_prime or cls.is_primary


def oracle_classify(module, sub):
    """The per-(r, x) scan that classify_submodule replaced: per-r facts with
    the power search stopping at the first r^n M inside P, then one lex scan
    for the least witness of each kind."""
    ring = module.ring
    act = module.action_table.tolist()
    in_p = [sub.contains(x) for x in module.elements()]
    proper = sub.members != module.full_mask
    all_in = []
    power_in = []
    for r in ring.elements():
        row_in = all(in_p[v] for v in act[r])
        all_in.append(row_in)
        found = row_in
        if not found:
            rp = r
            for _ in range(ring.size - 1):
                rp = ring.mul(rp, r)
                if all(in_p[v] for v in act[rp]):
                    found = True
                    break
        power_in.append(found)
    prime_viol = None
    primary_viol = None
    for r in ring.elements():
        if all_in[r] and power_in[r]:
            continue
        for x in module.elements():
            if in_p[act[r][x]] and not in_p[x]:
                if prime_viol is None and not all_in[r]:
                    prime_viol = (r, x)
                if primary_viol is None and not power_in[r]:
                    primary_viol = (r, x, ring.size)
                break
        if prime_viol is not None and primary_viol is not None:
            break
    return SubmoduleClassification(
        is_proper=proper,
        is_prime=proper and prime_viol is None,
        is_primary=proper and primary_viol is None,
        prime_violation=prime_viol,
        primary_violation=primary_viol,
    )


def submodules_on_two_generators(module):
    """Every submodule generated by one or two elements: Rx + Ry depends only
    on Rx and Ry, so one generator per cyclic submodule suffices."""
    cyclic = {}
    for x in module.elements():
        cyclic.setdefault(submodule_generated(module, [x]).members, x)
    gens = sorted(cyclic.values())
    subs = {submodule_generated(module, [x, y]).members: None
            for i, x in enumerate(gens) for y in gens[i:]}
    return [Submodule(module, mask) for mask in sorted(subs)]


class TestClassifySubmoduleOracle:
    """classify_submodule against the per-(r, x) scan, witnesses included."""

    @pytest.mark.parametrize("n", range(1, 37))
    def test_every_submodule_of_zmod(self, n):
        module = ring_as_module(build_zmod(n))
        for d in range(1, n + 1):
            if n % d == 0:
                sub = submodule_generated(module, [d % n])
                assert classify_submodule(module, sub) == oracle_classify(module, sub)

    def test_two_generator_submodules(self, m12):
        t = build_truncated_poly_ring(2, 2, 3)
        a_squared, b_squared = 8, 32
        non_gaussian = quotient_ring(t, ideal_generated(t, [a_squared, b_squared]))
        for module in (direct_sum(m12, m12), ring_as_module(non_gaussian)):
            for sub in submodules_on_two_generators(module):
                assert classify_submodule(module, sub) == oracle_classify(module, sub)

    def test_quotient_modules(self, m6, mt):
        m66 = direct_sum(m6, m6)
        for module in (quotient_module(m66, submodule_generated(m66, [2 * 6])),
                       quotient_module(mt, submodule_generated(mt, [2]))):
            for sub in submodules_on_two_generators(module):
                assert classify_submodule(module, sub) == oracle_classify(module, sub)


class TestAxiomAudits:
    def test_fleet_validates(self, z4, z5, z6, z12, trunc, m6, mt):
        for ring in (z4, z5, z6, z12, trunc):
            validate_ring(ring)
        for module in (m6, mt):
            validate_module(module)

    def test_quotient_and_sum_validate(self, z6, m6):
        q = quotient_ring(z6, ideal_of(z6, 3))
        validate_ring(q)
        d = direct_sum(m6, m6)
        validate_module(d)


@pytest.mark.parametrize("size", [1, 7, 8, 9, 256, 4096])
def test_bools_from_mask_round_trips_against_the_loop(size):
    rng = np.random.default_rng(size)
    masks = [0, (1 << size) - 1, 1 << (size - 1)]
    masks += [int.from_bytes(rng.bytes((size + 7) // 8), "little") & ((1 << size) - 1)
              for _ in range(20)]
    for mask in masks:
        flags = bools_from_mask(mask, size)
        # the per-index loop it replaced
        assert flags.dtype == bool
        assert flags.tolist() == [has_bit(mask, i) for i in range(size)]
        assert mask_from_bools(flags) == mask
