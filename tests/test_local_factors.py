"""The local factors of a finite ring, and mccoy_equivalence one factor at a time.

A finite ring is Artinian, so it is the product of the local rings eR over
its primitive idempotents e, and a module M over it is the sum of the eM.
local_factors finds the e on the diagonal of the multiplication table and
audits the split before it builds a factor. mccoy_equivalence checks a wide
full window over a non-local ring one factor at a time; here that path is
compared payload for payload with the walk of the whole ring, which the
tests force by taking the factor path away.
"""

import math

import numpy as np
import pytest

import sgmod.finite_algebra as finite_algebra
import sgmod.verify as verify_mod
from sgmod import (
    FiniteRing,
    InvariantViolation,
    SupportWindow,
    associated_primes,
    build_truncated_poly_ring,
    build_zmod,
    cyclic_group_monoid,
    direct_sum,
    free_monoid,
    quotient_module,
    saturating_monoid,
    submodule_generated,
    verify_mccoy_equivalence,
)
from sgmod.finite_algebra import idempotents, local_factors
from sgmod.series import DMResult

from test_window_kernel import CASES, _spy, _walk_the_whole_ring

NAT = free_monoid(1)


def window(k, max_support=None):
    return SupportWindow(tuple((i,) for i in range(k)), max_support=max_support)


def z4y_times_z3():
    """Z/4[y]/(y²) × Z/3 from tables; (a + by, c) has index (4b + a)·3 + c.
    Z/4[y]/(y²) is not Gaussian: its Dedekind-Mertens exponent on {0, 1} is 2."""
    elems = [(a, b, c) for b in range(4) for a in range(4) for c in range(3)]
    index = {x: i for i, x in enumerate(elems)}
    add = [[index[((a + s) % 4, (b + t) % 4, (c + u) % 3)] for s, t, u in elems]
           for a, b, c in elems]
    mul = [[index[(a * s % 4, (a * t + b * s) % 4, c * u % 3)] for s, t, u in elems]
           for a, b, c in elems]
    return FiniteRing(add, mul, index[(0, 0, 0)], index[(1, 0, 1)], label="Z/4[y]/(y^2) x Z/3")


def is_local(ring):
    """A finite ring is local iff its non-units are closed under addition."""
    unit = (ring.mul_table == ring.one).any(axis=1)
    non_units = np.flatnonzero(~unit)
    return not unit[ring.add_table[np.ix_(non_units, non_units)]].any()


def crt_idempotents(n):
    """The idempotent of Z/n that is 1 mod q and 0 mod n/q, per prime power
    q exactly dividing n, with q: the primitive idempotents and factor sizes."""
    out = []
    rest, p = n, 2
    while rest > 1:
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        if q > 1:
            out.append((next(e for e in range(0, n, n // q) if e % q == 1), q))
        p += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# local_factors


@pytest.mark.parametrize("n,count", [(132, 3), (210, 4)])
def test_primitive_idempotents_of_zmod(n, count):
    ring = build_zmod(n)
    factors = local_factors(ring)
    assert len(factors) == count
    assert [(f.idempotent, f.ring.size) for f in factors] == crt_idempotents(n)
    for f in factors:
        assert f.module is f.ring
        assert is_local(f.ring) and len(idempotents(f.ring)) == 2
        # eR is {e·r}, with identity e and the tables of R
        assert f.members.tolist() == sorted({f.idempotent * r % n for r in range(n)})
        assert f.members[f.ring.one] == f.idempotent and f.members[f.ring.zero] == 0
        a, b = np.meshgrid(np.arange(f.ring.size), np.arange(f.ring.size), indexing="ij")
        assert (f.members[f.ring.mul_table] == f.members[a] * f.members[b] % n).all()
        assert (f.members[f.ring.add_table] == (f.members[a] + f.members[b]) % n).all()
    assert local_factors(ring) is factors


FACTOR_SPACES = [(label, space) for label, ring, module in CASES for space in (ring, module)]
FACTOR_SPACES += [("Z/132", build_zmod(132)), ("Z/210", build_zmod(210)),
                  ("Z/4[y]/(y^2) x Z/3", z4y_times_z3())]


@pytest.mark.parametrize("label,space", FACTOR_SPACES, ids=[s[0] for s in FACTOR_SPACES])
def test_factor_sizes_multiply_to_the_whole(label, space):
    factors = local_factors(space)
    ring = space.ring
    assert math.prod(f.ring.size for f in factors) == ring.size
    assert math.prod(f.module.size for f in factors) == space.size
    # every r is the sum of its components e·r, one in each factor
    parts = [ring.mul_table[f.idempotent] for f in factors]
    total = parts[0]
    for part in parts[1:]:
        total = ring.add_table[total, part]
    assert (total == np.arange(ring.size)).all()
    for f in factors:
        assert f.module.ring is f.ring
        assert f.module.size == len(set(space.action_table[f.idempotent].tolist()))


LOCALITY_RINGS = ([(label, ring) for label, ring, _ in CASES]
                  + [("F2[a..c]/m^2", build_truncated_poly_ring(2, 3, 2)),
                     ("Z/4[y]/(y^2) x Z/3", z4y_times_z3())])


@pytest.mark.parametrize("label,ring", LOCALITY_RINGS, ids=[r[0] for r in LOCALITY_RINGS])
def test_one_factor_exactly_on_local_rings(label, ring):
    factors = local_factors(ring)
    assert (len(factors) == 1) == is_local(ring)
    if len(factors) == 1:
        (f,) = factors
        assert f.idempotent == ring.one and f.members.tolist() == list(range(ring.size))
        assert len(idempotents(ring)) == 2


@pytest.mark.parametrize("split,message", [
    ([1, 4], "not orthogonal idempotents"),    # 1·4 = 4
    ([2, 11], "not orthogonal idempotents"),   # 2·2 = 4: not idempotent
    ([4], "do not sum to one"),
    ([0, 4], "do not sum to one"),
])
def test_wrong_split_raises_before_any_factor_run(split, message, monkeypatch):
    # Z/12 over {0, 1, 2} takes the factor path; its idempotents are 0, 1, 4, 9
    ring = build_zmod(12)
    assert idempotents(ring).tolist() == [0, 1, 4, 9]
    monkeypatch.setattr(finite_algebra, "_primitive_idempotents", lambda r: split)
    walks = _spy(monkeypatch, "_mccoy_equivalence_good")
    with pytest.raises(InvariantViolation, match=message):
        verify_mccoy_equivalence(ring, ring, NAT, window(3))
    assert walks == []


def test_split_audit_checks_the_factor_sizes(monkeypatch):
    # orthogonal idempotents summing to one always give a product, so the
    # size check is reached only by factors that lose an element: here 4R
    # loses 8
    ring = build_zmod(12)
    real = finite_algebra.hit_mask
    monkeypatch.setattr(finite_algebra, "hit_mask",
                        lambda values, size: real(values, size) & (np.arange(size) != 8))
    with pytest.raises(InvariantViolation, match=r"factor sizes \[2, 4\] do not multiply to 12"):
        local_factors(ring)


# ---------------------------------------------------------------------------
# Ass(M) is the union of the Ass(eM), each lifted to p × ∏ of the other factors


def _quotients_of_module_structure():
    # the quotients Q = (Z/12 ⊕ Z/12)/N of the module_structure benchmark sessions
    z12 = build_zmod(12)
    s = direct_sum(z12, z12)
    gens = ([6 * 12], [6], [6 * 12 + 6], [4 * 12], [3 * 12 + 3], [4 * 12 + 6])
    return [(f"Q{g}", quotient_module(s, submodule_generated(s, g))) for g in gens]


ASS_MODULES = ([("Z/12 (+) Z/12", direct_sum(build_zmod(12), build_zmod(12)))]
               + _quotients_of_module_structure()
               + [(f"Z/{n}", build_zmod(n)) for n in (120, 126, 132, 138)])


@pytest.mark.parametrize("label,module", ASS_MODULES, ids=[m[0] for m in ASS_MODULES])
def test_associated_primes_are_the_lifted_factor_primes(label, module):
    ring = module.ring
    factors = local_factors(module)
    assert len(factors) > 1
    lifted = []
    for f in factors:
        if f.module.is_zero_module:
            continue
        component = ring.mul_table[f.idempotent]  # r -> e·r, as elements of R
        for p, _ in associated_primes(f.module):
            in_p = np.zeros(ring.size, dtype=bool)
            in_p[f.members[list(p.members_tuple())]] = True
            lifted.append(tuple(np.flatnonzero(in_p[component]).tolist()))
    # the union is disjoint: a lifted prime holds every other factor whole
    assert sorted(lifted) == [p.members_tuple() for p, _ in associated_primes(module)]


# ---------------------------------------------------------------------------
# mccoy_equivalence: the factor path against the walk of the whole ring

z12 = build_zmod(12)
FACTOR_PATH_CASES = [
    ("Z/6 {0,1,2}", build_zmod(6), None, window(3)),
    ("Z/6 {0,1,2,3}", build_zmod(6), None, window(4)),
    ("Z/12 {0,1,2}", z12, None, window(3)),
    ("Z/60 {0,1}", build_zmod(60), None, window(2)),
    ("Z/132 {0,1}", build_zmod(132), None, window(2)),
    ("Z/12 (+) Z/12 {0,1}", z12, direct_sum(z12, z12), window(2)),
    ("Z/12/(4) {0,1,2}", z12, quotient_module(z12, submodule_generated(z12, [4])), window(3)),
    ("Z/4[y]/(y^2) x Z/3 {0,1}", z4y_times_z3(), None, window(2)),
]


@pytest.mark.parametrize("label,ring,module,win", FACTOR_PATH_CASES,
                         ids=[c[0] for c in FACTOR_PATH_CASES])
def test_factor_path_matches_the_whole_walk(label, ring, module, win, monkeypatch):
    module = ring if module is None else module
    split = _spy(monkeypatch, "local_factors")
    walks = _spy(monkeypatch, "_mccoy_equivalence_good")
    by_factors = verify_mccoy_equivalence(ring, module, NAT, win, budget=10**9)
    assert split == [(module,)]
    # one walk per factor with eM ≠ 0, none of the whole ring
    factors = local_factors(module)
    assert [args[1] for args in walks] == [f.module for f in factors
                                           if not f.module.is_zero_module]
    _walk_the_whole_ring(monkeypatch)
    walks.clear()
    whole = verify_mccoy_equivalence(ring, module, NAT, win, budget=10**9)
    assert [args[:2] for args in walks] == [(ring, module)]
    assert by_factors.outcome == "pass"
    assert by_factors.to_payload() == whole.to_payload()
    if label.startswith("Z/12/(4)"):
        assert any(f.module.is_zero_module for f in factors)
    if label.startswith("Z/4[y]"):
        assert whole.details["max_dm_exponent"] == 2


@pytest.mark.parametrize("label,ring,monoid,win", [
    ("support cap", build_zmod(6), NAT, window(4, max_support=3)),
    ("Z/8", build_zmod(8), NAT, window(3)),
    ("Z/9", build_zmod(9), NAT, window(3)),
    ("F2[a,b]/m^3", build_truncated_poly_ring(2, 2, 3), NAT, window(2)),
    ("non-cancellative", build_zmod(6), saturating_monoid(2), SupportWindow((0, 1, 2))),
    ("torsion", build_zmod(6), cyclic_group_monoid(3), SupportWindow((0, 1, 2))),
])
def test_factor_path_is_not_taken(label, ring, monoid, win, monkeypatch):
    # each window is wider than one block of orbit pairs, so only the support
    # cap, the local ring or the monoid keeps it on the whole walk
    assert (win.count(ring.size) ** 2
            > verify_mod._BLOCK_PAIRS * len(finite_algebra.units(ring)) ** 2)
    split = _spy(monkeypatch, "local_factors")
    report = verify_mccoy_equivalence(ring, ring, monoid, win, budget=10**8)
    assert report.outcome == "pass"
    assert split == []


def test_z6_three_exponents_takes_the_factor_path_at_the_default_block():
    # 216² = 46,656 pairs against 4,096 · |Z/6^×|² = 16,384
    ring = build_zmod(6)
    assert window(3).count(6) ** 2 > verify_mod._BLOCK_PAIRS * 4
    verify_mccoy_equivalence(ring, ring, NAT, window(3))
    assert "local_factors" in ring._cache


def test_narrow_window_stays_on_the_whole_walk(monkeypatch):
    # Z/12 over two exponents: 20,736 pairs, at most 4,096 · |Z/12^×|²
    split = _spy(monkeypatch, "local_factors")
    assert verify_mccoy_equivalence(z12, z12, NAT, window(2)).outcome == "pass"
    assert split == []


def _every_vanishing_pair_fails(cf, cg, cfg, cap):
    zero = 1 << cg.module.zero
    return DMResult(None if cfg.members == zero != cg.members else 1, (), cap)


def test_planted_failure_in_every_walk_is_reported_by_the_whole_walk(monkeypatch):
    # a vanishing pair with g ≠ 0 fails in the factors and in Z/6 alike: the
    # factor walk of Z/2 fails first, and the whole walk names its least pair
    ring = build_zmod(6)
    monkeypatch.setattr(verify_mod, "_dm_search", _every_vanishing_pair_fails)
    walks = _spy(monkeypatch, "_mccoy_equivalence_good")
    report = verify_mccoy_equivalence(ring, ring, NAT, window(3))
    assert [args[0] for args in walks] == [local_factors(ring)[0].ring, ring]
    _walk_the_whole_ring(monkeypatch)
    whole = verify_mccoy_equivalence(ring, ring, NAT, window(3))
    assert report.outcome == "counterexample"
    assert report.counterexample["clause"] == "dedekind_mertens"
    assert report.to_payload() == whole.to_payload()


def test_planted_failure_in_a_factor_only_falls_back_to_the_whole_walk(monkeypatch):
    # the factor walks fail and the whole walk passes: the report is the
    # whole walk's pass, the payload of the factor path without the plant
    expected = verify_mccoy_equivalence(z12, z12, NAT, window(3)).to_payload()
    ring = build_zmod(12)
    real = verify_mod._dm_search
    monkeypatch.setattr(verify_mod, "_dm_search", lambda cf, cg, cfg, cap: (
        real if cg.module is ring else _every_vanishing_pair_fails)(cf, cg, cfg, cap))
    walks = _spy(monkeypatch, "_mccoy_equivalence_good")
    report = verify_mccoy_equivalence(ring, ring, NAT, window(3))
    assert [args[0] for args in walks] == [local_factors(ring)[0].ring, ring]
    assert report.to_payload() == expected


def test_wrong_factor_witness_fails_its_replay(monkeypatch):
    # the factor Z/4 of Z/12 has vanishing pairs with f ≠ 0 (2·2 = 0); a
    # witness of 1 there, which 2 does not kill, must fail the factor replay
    ring = build_zmod(12)
    real = verify_mod.content_mccoy_witness

    def planted(cf, cg):
        module = cg.module
        return module.ring.one if module is not ring else real(cf, cg)

    monkeypatch.setattr(verify_mod, "content_mccoy_witness", planted)
    walks = _spy(monkeypatch, "_mccoy_equivalence_good")
    with pytest.raises(InvariantViolation, match="McCoy witness failed replay"):
        verify_mccoy_equivalence(ring, ring, NAT, window(3))
    assert all(args[0] is not ring for args in walks)
