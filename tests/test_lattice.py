"""The submodule lattice against the closure code it replaced.

closure_oracles keeps the numpy fixpoint loop of submodule_generated, the
enumeration that closed every frontier ideal with every element, and the
member-wise ideal action. The library now folds generators through the step
table of one persistent lattice per module, enumerates ideals and submodules
as the join closure of the cyclic ones, and multiplies only the greedy
lattice generators of two factors.
"""

import dataclasses
import itertools
import os

import numpy as np
import pytest

from closure_oracles import oracle_closure, oracle_enumerate_submodules, oracle_ideal_action
from sgmod import (
    FiniteRing,
    Ideal,
    PreconditionError,
    Submodule,
    build_truncated_poly_ring,
    build_zmod,
    content,
    direct_sum,
    enumerate_ideals,
    enumerate_submodules,
    free_monoid,
    ideal_action_submodule,
    ideal_generated,
    ideal_power,
    ideal_product,
    load_session,
    make_series,
    ring_as_module,
    submodule_generated,
)
from sgmod.bitset import lowest_bit, members
from sgmod.cli import payload_hash
from sgmod.finite_algebra import SubmoduleLattice, submodule_lattice
from sgmod.session import execute
from test_table_audits import product_ring_tables, valid_modules, valid_rings
from test_window_kernel import CASES

DATA = os.path.join(os.path.dirname(__file__), "data")


def _corpus():
    """Every ring (as a module over itself) and module of the test corpus."""
    modules = [ring_as_module(ring) for ring in valid_rings()]
    for m in (2, 3, 4, 5):
        t = product_ring_tables(m, 0)
        modules.append(ring_as_module(FiniteRing(t.add_table, t.mul_table, t.zero, t.one,
                                                 label=t.label)))
    modules += valid_modules()
    modules += [module for _, _, module in CASES]
    return modules


CORPUS = _corpus()
RINGS = [module.ring for module in CORPUS if module is module.ring.as_module()]


def _generator_sets(module, rng):
    """Every single generator, then seeded random sets of up to five."""
    sets = [[a] for a in range(module.size)]
    sets += [rng.integers(0, module.size, rng.integers(0, 6)).tolist() for _ in range(60)]
    return sets


@pytest.mark.parametrize("module", CORPUS, ids=lambda m: f"{m.label}|{m.size}")
def test_closure_matches_fixpoint_oracle(module):
    rng = np.random.default_rng(module.size)
    ring_side = module is module.ring.as_module()
    for gens in _generator_sets(module, rng):
        expected = oracle_closure(module, gens)
        assert submodule_generated(module, gens).members == expected
        if ring_side:
            assert ideal_generated(module.ring, gens).members == expected


@pytest.mark.parametrize("module", CORPUS[:60], ids=lambda m: f"{m.label}|{m.size}")
def test_fresh_lattice_rows_match_fixpoint_oracle(module):
    # the vectorised fold of a fresh lattice, over random coefficient rows
    lattice = SubmoduleLattice(module)
    coeffs = np.random.default_rng(7).integers(0, module.size, (200, 3))
    ids = lattice.ids(coeffs).tolist()
    assert [lattice.objects[i].members for i in ids] == [oracle_closure(module, row)
                                                         for row in coeffs.tolist()]
    # the scalar fold meets the same ids
    assert [lattice.fold(row) for row in coeffs.tolist()] == ids


def test_one_instance_per_submodule():
    ring = build_zmod(12)
    module = ring.as_module()
    assert submodule_generated(module, [8]) is submodule_generated(module, [4, 8])
    assert ideal_generated(ring, [10, 4]) is ideal_generated(ring, [2])
    lattice = submodule_lattice(module)
    assert lattice is submodule_lattice(module)
    assert lattice.step[0, 8] == lattice.by_members[submodule_generated(module, [4]).members]


def test_generator_range_checks_keep_their_wording():
    ring = build_zmod(6)
    with pytest.raises(PreconditionError, match="generator 6 outside Z/6"):
        ideal_generated(ring, [2, 6, 9])
    with pytest.raises(PreconditionError, match="generator -1 outside Z/6"):
        submodule_generated(ring.as_module(), [7, -1])


def test_content_folds_through_the_lattice():
    ring = build_zmod(30)
    f = make_series(ring, free_monoid(1), [((0,), 6), ((1,), 10)])
    assert content(f) is ideal_generated(ring, [2])


# an ideal is a submodule of R acting on itself: one class, one lattice and
# one product kernel serve both


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"{r.label}|{r.size}")
def test_ideals_are_the_submodules_of_the_ring_on_itself(ring):
    module = ring.as_module()
    for gens in _generator_sets(module, np.random.default_rng(ring.size)):
        ideal = ideal_generated(ring, gens)
        assert ideal is submodule_generated(module, gens)
        assert isinstance(ideal, Ideal) and ideal.module is module and ideal.ring is ring
    ideals = enumerate_ideals(ring)
    submodules = enumerate_submodules(module)
    assert len(ideals) == len(submodules)
    assert all(a is b for a, b in zip(ideals, submodules))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"{r.label}|{r.size}")
def test_ideal_product_is_the_action_on_the_ring(ring):
    ideals = enumerate_ideals(ring)
    for a in ideals:
        for b in ideals:
            product = ideal_product(a, b)
            assert product is ideal_action_submodule(a, b)
            assert product.members == oracle_ideal_action(a, b)
        power = ring.full_mask
        for k in range(4):
            assert ideal_power(a, k).members == power
            power = oracle_ideal_action(a, Ideal(ring, power))


# the products against the member-wise oracle, on every ideal × submodule pair
_z12 = build_zmod(12)
PRODUCT_MODULES = [
    ring_as_module(_z12),
    ring_as_module(build_truncated_poly_ring(2, 2, 3)),
    ring_as_module(build_truncated_poly_ring(3, 2, 2)),
    direct_sum(ring_as_module(_z12), ring_as_module(_z12)),
]
PRODUCT_IDS = ["Z/12", "F2[a,b]/m^3", "F3[a,b]/m^2", "Z/12 (+) Z/12"]


def _open_mask(subs):
    """The union of the first two submodules whose union is not a submodule."""
    closed = {sub.members for sub in subs}
    return next(a.members | b.members for a, b in itertools.combinations(subs, 2)
                if a.members | b.members not in closed)


@pytest.mark.parametrize("module", PRODUCT_MODULES, ids=PRODUCT_IDS)
def test_ideal_action_matches_member_wise_oracle(module):
    ring = module.ring
    ideals = enumerate_ideals(ring)
    subs = enumerate_submodules(module)
    zero, unit = Ideal(ring, 1 << ring.zero), Ideal(ring, ring.full_mask)
    assert zero in ideals and unit in ideals
    # masks that are not closed act as the submodules they generate
    open_ideal = Ideal(ring, _open_mask(ideals))
    open_sub = Submodule(module, _open_mask(subs))
    lattice = submodule_lattice(module)
    for ideal in ideals + [open_ideal]:
        for sub in subs + [open_sub]:
            product = ideal_action_submodule(ideal, sub)
            assert product.members == oracle_ideal_action(ideal, sub)
            assert product is lattice.objects[lattice.by_members[product.members]]
    for ideal in ideals:
        power = ring.full_mask
        for k in range(5):
            assert ideal_power(ideal, k).members == power
            power = oracle_ideal_action(ideal, Ideal(ring, power))


@pytest.mark.parametrize("module", PRODUCT_MODULES, ids=PRODUCT_IDS)
def test_generators_are_greedy_members_joining_to_the_submodule(module):
    subs = enumerate_submodules(module)
    fresh = SubmoduleLattice(module)
    # a second lattice whose ids are made in reverse order
    reverse = SubmoduleLattice(module)
    for sub in reversed(subs):
        reverse.fold(reversed(sub.members_tuple()))
    open_mask = _open_mask(subs)
    for mask in [sub.members for sub in subs] + [open_mask]:
        gens = fresh.generators(mask)
        join = oracle_closure(module, ())
        for a in gens:
            # the least member outside the join so far, which strictly grows it
            assert a == lowest_bit(mask & ~join)
            join = oracle_closure(module, members(join) + (a,))
        assert join == oracle_closure(module, members(mask))
        assert 2 ** len(gens) <= join.bit_count()
        assert reverse.generators(mask) == gens
        assert fresh.generators(mask) is gens
    assert open_mask != oracle_closure(module, members(open_mask))


def test_ideal_reads_and_compares_as_before():
    ring = build_zmod(6)
    module = ring.as_module()
    ideal = Ideal(ring, 0b10101)
    assert isinstance(ideal, Submodule) and ideal.module is module and ideal.ring is ring
    assert repr(ideal) == "Ideal('Z/6', [0, 2, 4])"
    assert repr(Submodule(module, 0b10101)) == "Submodule('Z/6', [0, 2, 4])"
    assert ideal == Ideal(ring, 0b10101) and hash(ideal) == hash(Ideal(ring, 0b10101))
    assert ideal != Submodule(module, 0b10101)
    assert ideal != Ideal(ring, 0b1001)
    assert ideal == ideal_generated(ring, [2])


def test_members_tuple_is_decoded_once():
    ring = build_zmod(6)
    module = direct_sum(ring.as_module(), ring.as_module())
    sub = submodule_generated(module, [3])
    assert sub.members_tuple() == (0, 3)
    assert sub.members_tuple() is sub.members_tuple()
    # the decoded tuple sits beside the fields: a decoded instance compares,
    # hashes and prints as a fresh one, and the fields are unchanged
    fresh = Submodule(module, sub.members)
    assert fresh == sub and hash(fresh) == hash(sub) and repr(fresh) == repr(sub)
    assert repr(sub) == "Submodule('Z/6(+)Z/6', [0, 3])"
    assert [f.name for f in dataclasses.fields(sub)] == ["module", "members"]
    ideal = Ideal(ring, 0b1001)
    before = hash(ideal)
    assert ideal.members_tuple() is ideal.members_tuple() == (0, 3)
    assert hash(ideal) == before and ideal == Ideal(ring, 0b1001)
    assert repr(ideal) == "Ideal('Z/6', [0, 3])"


@pytest.mark.parametrize("label,module,count", [
    ("F2[a,b]/m^3", ring_as_module(build_truncated_poly_ring(2, 2, 3)), 27),
    ("F2[a..e]/m^2", ring_as_module(build_truncated_poly_ring(2, 5, 2)), 375),
    ("Z/12 (+) Z/12", direct_sum(ring_as_module(build_zmod(12)),
                                 ring_as_module(build_zmod(12))), 90),
], ids=["F2[a,b]/m^3", "F2[a..e]/m^2", "Z/12 (+) Z/12"])
def test_enumeration_matches_oracle_in_order(label, module, count):
    expected = oracle_enumerate_submodules(module)
    assert len(expected) == count
    assert [sub.members for sub in enumerate_submodules(module)] == expected
    if module is module.ring.as_module():
        assert [ideal.members for ideal in enumerate_ideals(module.ring)] == expected


@pytest.mark.parametrize("module", [m for m in CORPUS if m.size <= 36],
                         ids=lambda m: f"{m.label}|{m.size}")
def test_small_corpus_enumeration_matches_oracle(module):
    assert ([sub.members for sub in enumerate_submodules(module)]
            == oracle_enumerate_submodules(module))


def test_six_variable_ideals():
    # 2,826 ideals, each a subspace of m or R itself: too many for the oracle
    ring = build_truncated_poly_ring(2, 6, 2)
    ideals = enumerate_ideals(ring)
    assert len(ideals) == 2826
    assert ideals == sorted(ideals, key=lambda ideal: ideal.members_tuple())


def _hashes(path, commands):
    session = load_session(path)
    return [payload_hash(cmd, execute(session, cmd)["payload"]) for cmd in commands]


@pytest.mark.parametrize("name", ["demo_session.json", "verify_window_seed11.json",
                                  "module_structure_seed11.json"])
def test_payload_hash_does_not_depend_on_earlier_commands(name):
    # the lattices outlive a command, so their ids differ with the history:
    # each command hashes alike when it runs first, after all the commands
    # before it, and after all those after it
    path = os.path.join(DATA, name)
    commands = load_session(path).commands
    in_order = _hashes(path, commands)
    assert [_hashes(path, [command])[0] for command in commands] == in_order
    assert _hashes(path, commands[::-1]) == in_order[::-1]
