import itertools

import pytest

from sgmod import (
    AxiomError,
    cyclic_group_monoid,
    free_monoid,
    is_cancellative,
    is_torsion_free,
    monoid_from_table,
    monoid_scale,
    saturating_monoid,
)


def _oracle_orbit_size(monoid, e):
    seen = set()
    x = e
    while x not in seen:
        seen.add(x)
        x = monoid.add(x, e)
    return len(seen)


def oracle_torsion_scan(monoid):
    """The torsion scan that walks every pair to the order^2 pigeonhole bound."""
    k = monoid.order
    bound = k * k
    for a in range(k):
        for b in range(a + 1, k):
            xa, xb = a, b
            for n in range(1, bound + 1):
                if n > 1:
                    xa = monoid.add(xa, a)
                    xb = monoid.add(xb, b)
                if xa == xb:
                    s, t = a, b
                    if _oracle_orbit_size(monoid, b) > _oracle_orbit_size(monoid, a):
                        s, t = b, a
                    return (False, (s, t, n))
    return (True, None)


def product_monoid(left, right):
    """S x T as a Cayley table, (s, t) at index s * |T| + t."""
    k = right.order
    table = [[left.add(s1, s2) * k + right.add(t1, t2)
              for s2, t2 in itertools.product(range(left.order), range(k))]
             for s1, t1 in itertools.product(range(left.order), range(k))]
    return monoid_from_table(table, left.identity * k + right.identity,
                             label=f"{left.label} x {right.label}")


SMALL = ([cyclic_group_monoid(k) for k in range(1, 13)]
         + [saturating_monoid(c) for c in range(1, 41)])
FACTORS = (cyclic_group_monoid(2), cyclic_group_monoid(3), saturating_monoid(1),
           saturating_monoid(2))
PRODUCTS = [product_monoid(a, b) for a, b in itertools.product(
    FACTORS, (cyclic_group_monoid(2), cyclic_group_monoid(4), saturating_monoid(1),
              saturating_monoid(3)))]


class TestConstruction:
    def test_free(self):
        n = free_monoid(1)
        assert not n.is_finite
        assert n.identity_key() == (0,)

    def test_cyclic(self):
        c2 = cyclic_group_monoid(2)
        assert c2.add(1, 1) == 0

    def test_saturating_table(self):
        s = saturating_monoid(2)
        assert s.add(1, 2) == 2
        assert s.add(2, 2) == 2
        assert s.add(0, 1) == 1

    def test_table_variant_validates(self):
        monoid_from_table([[0, 1], [1, 0]], 0)
        with pytest.raises(AxiomError):
            monoid_from_table([[0, 1], [0, 0]], 0)  # not commutative
        with pytest.raises(AxiomError):
            monoid_from_table([[1, 0], [0, 1]], 0)  # 0 is not an identity

    def test_table_reports_associativity_triple(self):
        # commutative with identity 0, but (1+1)+2 = 0 while 1+(1+2) = 2
        table = [[0, 1, 2], [1, 2, 2], [2, 2, 0]]
        with pytest.raises(AxiomError, match="associative"):
            monoid_from_table(table, 0)


class TestAddition:
    def test_vector_sum(self):
        n2 = free_monoid(2)
        assert n2.add((1, 0), (0, 1)) == (1, 1)

    def test_table_lookup(self, sat2, c2):
        assert sat2.add(1, 2) == 2
        assert c2.add(1, 1) == 0
        assert sat2.translates(1, [0, 1, 2]) == [sat2.add(1, t) for t in (0, 1, 2)]

    def test_contains_rejects_other_variant(self, sat2, nat):
        assert not sat2.contains((1,))
        assert not sat2.contains(True)
        assert not nat.contains(1)
        assert not nat.contains((1, 0))

    def test_free_monoid_is_n_to_the_d(self):
        n2 = free_monoid(2)
        assert n2.contains((0, 3))
        assert not n2.contains((0, -1))

    def test_scale(self, c3, nat):
        assert monoid_scale(c3, 5, 1) == 2
        assert monoid_scale(nat, 3, (2,)) == (6,)
        assert monoid_scale(nat, 0, (2,)) == (0,)


class TestCancellative:
    def test_affine(self, nat):
        assert is_cancellative(nat) == (True, None)

    def test_groups(self):
        for k in range(1, 13):
            assert is_cancellative(cyclic_group_monoid(k))[0]

    def test_saturating_witness(self, sat2):
        ok, witness = is_cancellative(sat2)
        assert not ok
        assert witness == (2, 0, 1)
        s, t, u = witness
        assert sat2.add(s, t) == sat2.add(s, u)
        assert t != u

    def test_witness_replays(self):
        for c in (1, 2, 3):
            monoid = saturating_monoid(c)
            ok, (s, t, u) = is_cancellative(monoid)
            assert not ok
            assert monoid.add(s, t) == monoid.add(s, u) and t != u


class TestTorsionFree:
    def test_affine(self, nat):
        assert is_torsion_free(nat) == (True, None)

    def test_cyclic_witness(self, c2):
        ok, witness = is_torsion_free(c2)
        assert not ok
        assert witness == (1, 0, 2)

    def test_saturating_witness(self, sat2):
        ok, witness = is_torsion_free(sat2)
        assert not ok
        assert witness == (1, 2, 2)

    def test_witness_replays(self):
        for build, arg in ((cyclic_group_monoid, 2), (cyclic_group_monoid, 5),
                           (saturating_monoid, 2), (saturating_monoid, 3)):
            monoid = build(arg)
            ok, (s, t, n) = is_torsion_free(monoid)
            assert not ok and s != t
            assert monoid_scale(monoid, n, s) == monoid_scale(monoid, n, t)

    def test_saturating_one_has_no_torsion_pair(self):
        # n*0 = 0 and n*1 = 1 for every n, so {0,1} under capped addition is
        # torsion-free even though it is not cancellative
        s1 = saturating_monoid(1)
        assert is_torsion_free(s1) == (True, None)
        assert not is_cancellative(s1)[0]

    def test_trivial_monoid_is_torsion_free(self):
        assert is_torsion_free(cyclic_group_monoid(1)) == (True, None)

    @pytest.mark.parametrize("monoid", SMALL + PRODUCTS, ids=lambda m: m.label)
    def test_matches_the_pigeonhole_scan(self, monoid):
        assert is_torsion_free(monoid) == oracle_torsion_scan(monoid)

    def test_products_cover_both_verdicts(self):
        verdicts = {is_torsion_free(monoid)[0] for monoid in PRODUCTS}
        assert verdicts == {True, False}

    def test_saturating_pairs_stop_at_their_orbits(self):
        # no pair (0, b) of sat(c) ever merges; each stops after about c/b
        # steps instead of (c + 1)^2, and (1, 2) merges at n = c
        assert is_torsion_free(saturating_monoid(400)) == (False, (1, 2, 400))
