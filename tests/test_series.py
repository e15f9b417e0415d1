import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmod import (
    ExtendedIdeal,
    FiniteRing,
    HypothesisError,
    Ideal,
    InvariantViolation,
    PreconditionError,
    StructureMismatchError,
    Submodule,
    SupportWindow,
    build_noncancellative_counterexample,
    build_torsion_counterexample,
    build_truncated_poly_ring,
    build_zmod,
    constant_series,
    content,
    cyclic_group_monoid,
    dedekind_mertens_exponent,
    direct_sum,
    extended_ideal_membership,
    free_monoid,
    ideal_action_submodule,
    ideal_generated,
    ideal_power,
    is_zero_divisor_series,
    make_series,
    mccoy_witness,
    monomial_series,
    ring_as_module,
    saturating_monoid,
    series_multiply,
    submodule_generated,
    verify_mccoy_equivalence,
    verify_regularity_transfer,
)
import sgmod.series as series_mod
from sgmod.series import DMResult, DMStep, Series, ZeroDivisorVerdict, content_mccoy_witness
from test_lattice import RINGS


def ring_series(ring, monoid, *coeffs):
    return make_series(ring, monoid, [((i,), c) for i, c in enumerate(coeffs)])


class TestSeriesBasics:
    def test_normalization_drops_zeros(self, z6, nat):
        s = make_series(z6, nat, [((0,), 0), ((1,), 2)])
        assert s.terms == (((1,), 2),)

    def test_normalization_combines_exponents(self, z6, nat):
        s = make_series(z6, nat, [((0,), 2), ((0,), 4)])
        assert s.is_zero

    def test_negated_terms_cancel(self, z6, nat):
        g = ring_series(z6, nat, 1, 2, 5)
        assert make_series(z6, nat, list(g.terms) + [(e, z6.neg(c)) for e, c in g.terms]).is_zero

    def test_rejects_bad_exponent(self, z6, nat, sat2):
        with pytest.raises(StructureMismatchError):
            make_series(z6, nat, [(5, 1)])
        with pytest.raises(StructureMismatchError):
            make_series(z6, sat2, [(7, 1)])

    def test_rejects_bad_coefficient(self, z6, nat):
        with pytest.raises(PreconditionError):
            make_series(z6, nat, [((0,), 9)])

    def test_display_terms_sorted(self, z6, nat):
        s = make_series(z6, nat, [((2,), 1), ((0,), 3)])
        assert s.support == ((0,), (2,))


class TestMultiply:
    def test_vanishing_product(self, z6, m6, nat):
        f = ring_series(z6, nat, 2, 4)
        g = constant_series(m6, nat, 3)
        assert series_multiply(f, g).is_zero

    def test_binomial(self, z6, nat):
        f = ring_series(z6, nat, 1, 1)
        sq = series_multiply(f, f)
        assert sq.terms == (((0,), 1), ((1,), 2), ((2,), 1))

    def test_saturating_collision(self, z6, sat2):
        # X^2 * (1 - X) collapses because min-capped exponents collide
        f = monomial_series(z6, sat2, 1, 2)
        g = make_series(z6, sat2, [(0, 1), (1, 5)])  # 1 - X
        assert series_multiply(f, g).is_zero

    def test_left_factor_must_be_ring(self, m6, nat):
        # R acting on itself is the ring, so a series over it is a ring series;
        # a genuine module series cannot stand on the left
        g = constant_series(direct_sum(m6, m6), nat, 3)
        with pytest.raises(StructureMismatchError, match="left factor must have ring"):
            series_multiply(g, g)
        # 3 * (0, 3) = (0, 3), the element coded 3
        assert series_multiply(constant_series(m6, nat, 3), g).terms == (((0,), 3),)

    def test_monoid_mismatch(self, z6, nat, sat2):
        f = ring_series(z6, nat, 1)
        h = make_series(z6, sat2, [(0, 1)])
        with pytest.raises(StructureMismatchError):
            series_multiply(f, h)

    def test_commutative_on_ring_pairs(self, z6, nat):
        coeff_tuples = list(itertools.product(range(6), repeat=2))[:20]
        for fc in coeff_tuples:
            for gc in coeff_tuples[:10]:
                f = ring_series(z6, nat, *fc)
                g = ring_series(z6, nat, *gc)
                assert series_multiply(f, g).terms == series_multiply(g, f).terms

    @given(coeffs=st.lists(st.integers(0, 5), min_size=1, max_size=4),
           other=st.lists(st.integers(0, 5), min_size=1, max_size=4))
    @settings(deadline=None, max_examples=80)
    def test_product_never_stores_zero(self, coeffs, other):
        z6 = build_zmod(6)
        from sgmod import free_monoid
        nat = free_monoid(1)
        f = ring_series(z6, nat, *coeffs)
        g = ring_series(z6, nat, *other)
        prod = series_multiply(f, g)
        assert all(c != 0 for _, c in prod.terms)


class TestContent:
    def test_unit_content(self, z6, nat):
        f = ring_series(z6, nat, 2, 3)
        assert content(f).members == z6.full_mask

    def test_zero_series(self, z6, nat):
        assert content(make_series(z6, nat, [])).members_tuple() == (0,)

    def test_module_side(self, m6, nat):
        g = make_series(m6, nat, [((1,), 2), ((3,), 4)])
        assert content(g).members_tuple() == (0, 2, 4)

    def test_subadditive_exhaustive(self, nat, sat2, c3):
        # c(fg) is generated by sums of coefficient products, so it always
        # sits inside c(f) c(g); exhaust support {0,1,2} over every small
        # ring/monoid pairing, including the non-cancellative shapes
        for size, monoid, exps in ((6, nat, ((0,), (1,), (2,))),
                                   (4, sat2, (0, 1, 2)),
                                   (4, c3, (0, 1, 2)),
                                   (6, sat2, (0, 1, 2))):
            ring = build_zmod(size)
            module = ring_as_module(ring)
            g_pool = [make_series(module, monoid, list(zip(exps, gc)))
                      for gc in itertools.product(range(size), repeat=3)]
            for fc in itertools.product(range(size), repeat=3):
                f = make_series(ring, monoid, list(zip(exps, fc)))
                cf = content(f)
                for g in g_pool:
                    prod = series_multiply(f, g)
                    lhs = content(prod)
                    rhs = ideal_action_submodule(cf, content(g))
                    assert lhs.members & ~rhs.members == 0


class TestDedekindMertens:
    def test_both_sides_vanish(self, z6, m6, nat):
        f = ring_series(z6, nat, 2, 2)
        g = constant_series(m6, nat, 3)
        result = dedekind_mertens_exponent(f, g)
        assert result.k_min == 1
        assert result.chain[0].equal

    def test_truncated_square_needs_two(self, trunc, nat):
        a, b = trunc.meta["generators"]
        f = ring_series(trunc, nat, a, b)
        result = dedekind_mertens_exponent(f, f)
        assert result.k_min == 2
        assert [step.equal for step in result.chain] == [False, True]

    def test_unit_factor(self, z6, m6, nat):
        f = constant_series(z6, nat, 1)
        g = make_series(m6, nat, [((0,), 2), ((2,), 5)])
        assert dedekind_mertens_exponent(f, g).k_min == 1

    def test_cap_exceeded_is_inconclusive(self, trunc, nat):
        a, b = trunc.meta["generators"]
        f = ring_series(trunc, nat, a, b)
        result = dedekind_mertens_exponent(f, f, cap=1)
        assert result.k_min is None
        assert result.cap_used == 1
        assert len(result.chain) == 1 and not result.chain[0].equal

    def test_chain_flags_mark_minimality(self, z6, m6, nat):
        for fc in itertools.product(range(6), repeat=2):
            f = ring_series(z6, nat, *fc)
            for gc in ((3,), (2, 3), (1, 4)):
                g = make_series(m6, nat, [((i,), c) for i, c in enumerate(gc)])
                result = dedekind_mertens_exponent(f, g)
                assert result.k_min is not None
                assert result.chain[result.k_min - 1].equal
                assert all(not step.equal for step in result.chain[:result.k_min - 1])

    def test_hypothesis_violation(self, z6, m6, sat2):
        f = make_series(z6, sat2, [(0, 2)])
        g = make_series(m6, sat2, [(0, 3)])
        with pytest.raises(HypothesisError):
            dedekind_mertens_exponent(f, g)


class TestMcCoy:
    def test_witness_examples(self, z6, m6, nat):
        f = ring_series(z6, nat, 2, 2)
        assert mccoy_witness(f, constant_series(m6, nat, 3)) == 3
        f = ring_series(z6, nat, 3, 3)
        assert mccoy_witness(f, constant_series(m6, nat, 2)) == 2

    def test_truncated_witness(self, trunc, nat):
        a, b = trunc.meta["generators"]
        ab = trunc.mul(a, b)
        f = ring_series(trunc, nat, a, b)
        g = constant_series(trunc, nat, ab)
        assert series_multiply(f, g).is_zero
        assert mccoy_witness(f, g) == ab

    def test_requires_vanishing_product(self, z6, m6, nat):
        f = ring_series(z6, nat, 2)
        g = constant_series(m6, nat, 2)
        with pytest.raises(PreconditionError):
            mccoy_witness(f, g)

    def test_requires_nonzero_g(self, z6, m6, nat):
        with pytest.raises(PreconditionError):
            mccoy_witness(ring_series(z6, nat, 2), make_series(m6, nat, []))

    def test_zero_f_returns_any_coefficient_generator(self, z6, m6, nat):
        m = mccoy_witness(make_series(z6, nat, []), constant_series(m6, nat, 4))
        assert m != 0
        assert z6.mul(0, m) == 0

    def test_witness_kills_every_coefficient(self, z6, m6, nat):
        hits = 0
        for fc in itertools.product(range(6), repeat=2):
            f = ring_series(z6, nat, *fc)
            for gc in itertools.product(range(6), repeat=2):
                g = make_series(m6, nat, [((i,), c) for i, c in enumerate(gc)])
                if g.is_zero or not series_multiply(f, g).is_zero:
                    continue
                m = mccoy_witness(f, g)
                hits += 1
                assert m != 0
                assert all(z6.mul(c, m) == 0 for c in f.coefficients)
        assert hits > 0


class TestContentMcCoyWitness:
    """The witness of a content pair against the ideal powers c(f)^k c(g)."""

    @staticmethod
    def power_oracle(cf, cg):
        """Least nonzero element of c(f)^(t-1) c(g) for the least t with
        c(f)^t c(g) = 0, or None when no t <= |R| exists."""
        module = cg.module
        for t in range(1, cf.ring.size + 1):
            if ideal_action_submodule(ideal_power(cf, t), cg).is_zero:
                level = ideal_action_submodule(ideal_power(cf, t - 1), cg)
                return min(x for x in level.members_tuple() if x != module.zero)
        return None

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_matches_ideal_powers_on_zmod(self, n):
        ring = build_zmod(n)
        module = ring_as_module(ring)
        chains = 0
        for a in range(n):
            cf = ideal_generated(ring, [a])
            for b in range(1, n):
                cg = submodule_generated(module, [b])
                expected = self.power_oracle(cf, cg)
                if expected is None:
                    with pytest.raises(InvariantViolation):
                        content_mccoy_witness(cf, cg)
                    continue
                assert content_mccoy_witness(cf, cg) == expected
                chains += not ideal_action_submodule(cf, cg).is_zero
        assert chains > 0

    def test_long_chain_on_truncated_ring(self, trunc):
        # m, m^2, then zero: the witness is the least nonzero element of m^2
        a, b = trunc.meta["generators"]
        module = ring_as_module(trunc)
        m = ideal_generated(trunc, [a, b])
        whole = submodule_generated(module, [trunc.one])
        square = ideal_power(m, 2)
        assert content_mccoy_witness(m, whole) == min(square.members_tuple()[1:])
        assert content_mccoy_witness(m, whole) == self.power_oracle(m, whole)


class TestZeroDivisorSeries:
    def test_zero_divisor_with_witness(self, z6, m6, nat):
        verdict = is_zero_divisor_series(ring_series(z6, nat, 2, 4), m6)
        assert verdict.is_zero_divisor and verdict.witness == 3

    def test_regular(self, z6, m6, nat):
        verdict = is_zero_divisor_series(ring_series(z6, nat, 1, 2), m6)
        assert not verdict.is_zero_divisor
        assert verdict.annihilator.members_tuple() == (0,)

    def test_z4_constant(self, z4, m4, nat):
        verdict = is_zero_divisor_series(ring_series(z4, nat, 2), m4)
        assert verdict.is_zero_divisor and verdict.witness == 2

    def test_matches_bounded_search(self, z6, m6, nat):
        # independent oracle: brute-force partner search over a fixed window
        exps = ((0,), (1,))
        for fc in itertools.product(range(6), repeat=2):
            f = make_series(z6, nat, list(zip(exps, fc)))
            found = False
            for gc in itertools.product(range(6), repeat=2):
                if all(c == 0 for c in gc):
                    continue
                g = make_series(m6, nat, list(zip(exps, gc)))
                if series_multiply(f, g).is_zero:
                    found = True
                    break
            assert is_zero_divisor_series(f, m6).is_zero_divisor == found


class TestExtendedIdeal:
    def test_membership(self, z6, nat):
        p2 = ExtendedIdeal(ideal_generated(z6, [2]), nat)
        assert extended_ideal_membership(ring_series(z6, nat, 2, 4), p2)
        assert not extended_ideal_membership(ring_series(z6, nat, 2, 3), p2)
        assert extended_ideal_membership(make_series(z6, nat, []), p2)


class TestNoncancellativeConstruction:
    def test_saturating_example(self, z6, m6, sat2):
        f, g = build_noncancellative_counterexample(sat2, (2, 0, 1), m6, 1)
        assert f.terms == ((2, 1),)
        assert g.terms == ((0, 1), (1, 5))
        assert series_multiply(f, g).is_zero

    def test_scaled_coefficient(self, m6, sat2):
        f, g = build_noncancellative_counterexample(sat2, (2, 0, 1), m6, 3)
        assert g.terms == ((0, 3), (1, 3))
        assert series_multiply(f, g).is_zero

    def test_invalid_witness(self, m6, sat2):
        with pytest.raises(PreconditionError):
            build_noncancellative_counterexample(sat2, (0, 0, 1), m6, 1)
        with pytest.raises(PreconditionError):
            build_noncancellative_counterexample(sat2, (2, 1, 1), m6, 1)

    def test_zero_q_rejected(self, m6, sat2):
        with pytest.raises(PreconditionError):
            build_noncancellative_counterexample(sat2, (2, 0, 1), m6, 0)

    def test_no_single_annihilator(self, m6, sat2):
        f, _ = build_noncancellative_counterexample(sat2, (2, 0, 1), m6, 1)
        from sgmod import constant_series
        for m in range(1, 6):
            assert not series_multiply(f, constant_series(m6, sat2, m)).is_zero

    @pytest.mark.parametrize("planted", [2, 3, 4])
    def test_planted_killing_coefficient_is_named(self, m6, sat2, monkeypatch, planted):
        # f = a X^2 still gives fg = 0, but a is a zero-divisor of Z/6: the
        # replay names the least nonzero m with f m = 0, as the loop over
        # every m by series_multiply did
        def monomial(space, monoid, coeff, exponent):
            return make_series(space, monoid, [(exponent, planted)])

        f = monomial(m6.ring, sat2, 1, 2)
        least = next(m for m in range(1, 6)
                     if series_multiply(f, constant_series(m6, sat2, m)).is_zero)
        monkeypatch.setattr(series_mod, "monomial_series", monomial)
        with pytest.raises(InvariantViolation,
                           match=f"^f unexpectedly kills module element {least}$"):
            build_noncancellative_counterexample(sat2, (2, 0, 1), m6, 1)


class TestTorsionConstruction:
    def test_order_two(self, z6, m6, c2):
        k, h, g = build_torsion_counterexample(c2, 1, 0, m6, 1)
        assert k == 2
        assert h.terms == ((0, 1), (1, 1))
        assert g.terms == ((0, 5), (1, 1))  # qX - q
        assert series_multiply(h, g).is_zero

    def test_order_three(self, m6, c3):
        k, h, g = build_torsion_counterexample(c3, 1, 0, m6, 1)
        assert k == 3
        assert h.terms == ((0, 1), (1, 1), (2, 1))
        assert series_multiply(h, g).is_zero

    def test_equal_elements_rejected(self, m6, c2):
        with pytest.raises(PreconditionError):
            build_torsion_counterexample(c2, 1, 1, m6, 1)

    def test_noncancellative_monoid_rejected(self, m6, sat2):
        with pytest.raises(HypothesisError):
            build_torsion_counterexample(sat2, 1, 2, m6, 1)

    def test_exponent_count_matches_order(self, m6):
        for n in (2, 3, 4, 6):
            monoid = cyclic_group_monoid(n)
            k, h, g = build_torsion_counterexample(monoid, 1, 0, m6, 1)
            assert k == n
            assert len(h.terms) == n


def oracle_series_multiply(f, h):
    """The terms of f * h by the per-term loop series_multiply replaced: one
    exponent sum and one coefficient product per term pair, read off the
    tables one cell at a time, and one addition per collision."""
    monoid, space = f.monoid, h.space
    table = space.mul_table if isinstance(space, FiniteRing) else space.action_table
    acc = {}
    for s, a in f.terms:
        for t, b in h.terms:
            e = (int(monoid.cayley[s, t]) if monoid.is_finite
                 else tuple(x + y for x, y in zip(s, t)))
            c = int(table[a, b])
            acc[e] = c if e not in acc else int(space.add_table[acc[e], c])
    return tuple(sorted((e, c) for e, c in acc.items() if c != space.zero))


def oracle_dedekind_mertens(f, g, cap=None):
    """The memoized Dedekind-Mertens transcript with c(fg) read off the
    product f * g for every f, the path dedekind_mertens_exponent takes only
    when no coefficient of f generates c(f)."""
    used = len(g.terms) + 1 if cap is None else cap
    return series_mod._dm_search(content(f), content(g), content(series_multiply(f, g)), used)


def _random_series(rng, space, monoid, exponents):
    """A series of up to four terms with random coefficients; exponents may
    repeat, so make_series combines some of them."""
    terms = [(rng.choice(exponents), rng.randrange(space.size))
             for _ in range(rng.randint(0, 4))]
    return make_series(space, monoid, terms)


class TestProductOracle:
    MONOIDS = [(free_monoid(1), [(e,) for e in range(4)]),
               (free_monoid(2), [(a, b) for a in range(3) for b in range(3)]),
               (cyclic_group_monoid(3), list(range(3))),
               (cyclic_group_monoid(4), list(range(4))),
               (saturating_monoid(2), list(range(3))),
               (saturating_monoid(3), list(range(4)))]

    @pytest.mark.parametrize("ring", [build_zmod(6), build_zmod(8), build_zmod(12),
                                      build_truncated_poly_ring(2, 2, 3),
                                      build_truncated_poly_ring(3, 1, 2)],
                             ids=lambda r: r.label)
    def test_matches_per_term_loop(self, ring):
        rng = random.Random(ring.size)
        m = ring_as_module(ring)
        spaces = [ring, m, direct_sum(m, m)] if ring.size <= 12 else [ring, m]
        for monoid, exponents in self.MONOIDS:
            for space in spaces:
                for _ in range(60):
                    f = _random_series(rng, ring, monoid, exponents)
                    h = _random_series(rng, space, monoid, exponents)
                    prod = series_multiply(f, h)
                    assert prod.terms == oracle_series_multiply(f, h), (f, h)
                    assert prod.space is space and prod.monoid is monoid

    @pytest.mark.parametrize("monoid,x0,x1", [(free_monoid(1), (0,), (1,)),
                                             (cyclic_group_monoid(2), 0, 1),
                                             (saturating_monoid(2), 0, 1)])
    def test_cancelling_coefficients_are_dropped(self, z6, m6, monoid, x0, x1):
        # (1 + X)(3 + 3X) = 3 + (3 + 3)X + 3X^2, and 3 + 3 = 0 in Z/6; on Z/2
        # the X^2 term folds onto 1 and cancels too, on sat(2) it stays apart
        f = make_series(z6, monoid, [(x0, 1), (x1, 1)])
        for space in (z6, m6):
            h = make_series(space, monoid, [(x0, 3), (x1, 3)])
            prod = series_multiply(f, h)
            assert prod.terms == oracle_series_multiply(f, h)
            assert x1 not in prod.support
            assert all(c != 0 for c in prod.coefficients)


class TestContentMemo:
    def test_ring_content_is_the_lattice_instance(self, z12, nat):
        f = ring_series(z12, nat, 4, 6)
        cf = content(f)
        assert cf is submodule_generated(z12, f.coefficients)
        assert cf is submodule_generated(z12, [6, 4, 0])
        assert isinstance(cf, Ideal) and cf.members_tuple() == (0, 2, 4, 6, 8, 10)
        assert content(f) is cf

    def test_module_content_is_the_lattice_instance(self, m12, nat):
        g = make_series(m12, nat, [((0,), 9), ((2,), 3)])
        cg = content(g)
        assert cg is submodule_generated(m12, g.coefficients)
        # another series with the same coefficients shares the entry
        assert content(make_series(m12, nat, [((1,), 9), ((5,), 3)])) is cg

    def test_failed_closure_is_not_stored(self, z6, nat):
        bad = Series(z6, nat, (((0,), 9),))  # past make_series's range check
        for _ in range(2):
            with pytest.raises(PreconditionError, match="generator 9 outside"):
                content(bad)


def oracle_dm_search(cf, cg, cfg, cap):
    """The Dedekind-Mertens transcript without the memo: the chain of
    c(f)^k c(g) against c(f)^(k-1) c(fg) up to the first equal pair."""
    chain = []
    for k in range(1, cap + 1):
        lhs = ideal_action_submodule(ideal_power(cf, k), cg)
        rhs = ideal_action_submodule(ideal_power(cf, k - 1), cfg)
        chain.append(DMStep(k, lhs, rhs, lhs.members == rhs.members))
        if chain[-1].equal:
            return DMResult(k, tuple(chain), cap)
    return DMResult(None, tuple(chain), cap)


class TestDedekindMertensMemo:
    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"{r.label}|{r.size}")
    def test_memoized_transcripts_match_uncached_search(self, ring):
        rng = random.Random(ring.size)
        nat = free_monoid(1)
        module = ring
        exps = [(e,) for e in range(3)]
        for _ in range(12):
            f = _random_series(rng, ring, nat, exps)
            g = _random_series(rng, module, nat, exps)
            for cap in (None, 1, 3):
                first = dedekind_mertens_exponent(f, g, cap=cap)
                used = len(g.terms) + 1 if cap is None else cap
                expected = oracle_dm_search(content(f), content(g),
                                            content(series_multiply(f, g)), used)
                assert first == expected
                assert dedekind_mertens_exponent(f, g, cap=cap) is first

    def test_product_content_is_part_of_the_key(self, trunc, mt, nat):
        # F2[a,b]/m^3 is not Gaussian: (a + bX)^2 = a^2 + b^2 X^2 but
        # (a + bX)(b + aX) = ab + (a^2 + b^2) X + ab X^2, so the contents of f
        # and g agree while those of fg differ
        a, b = trunc.meta["generators"]
        f = make_series(trunc, nat, [((0,), a), ((1,), b)])
        g1 = make_series(mt, nat, [((0,), a), ((1,), b)])
        g2 = make_series(mt, nat, [((0,), b), ((1,), a)])
        assert content(g1) is content(g2)
        assert content(series_multiply(f, g1)) is not content(series_multiply(f, g2))
        for g in (g1, g2, g1):
            assert dedekind_mertens_exponent(f, g) == oracle_dm_search(
                content(f), content(g), content(series_multiply(f, g)), len(g.terms) + 1)


def _has_generating_coefficient(f):
    cf = content(f)
    return any(ideal_generated(f.space, [a]).members == cf.members for a in f.coefficients)


def _unit_shift_representatives(ring, nat):
    """The 1-3-term series over {0, 1, 2} with a nonzero constant term whose
    coefficient tuple is the least of its multiples by the units of the ring.

    A shift X^s f or a unit multiple u f keeps c(f), c(fg) and whether a
    coefficient generates c(f), so these stand for every 1-3-term series over
    {0, 1, 2}, on either side of a pair.
    """
    units = [u for u in range(ring.size) if (ring.mul_table[u] == ring.one).any()]
    reps = []
    for coeffs in itertools.product(range(ring.size), repeat=3):
        scaled = min(tuple(int(ring.mul_table[u, c]) for c in coeffs) for u in units)
        if coeffs[0] != ring.zero and coeffs == scaled:
            reps.append(ring_series(ring, nat, *coeffs))
    return reps


class TestDedekindMertensProductOracle:
    """dedekind_mertens_exponent against the oracle that always multiplies:
    the same memoized transcript, and a payload equal to the uncached one."""

    @staticmethod
    def check_pairs(pairs, cap=None):
        """Check every pair; return how many took each branch, as
        (generating coefficient, product)."""
        payloads = {}
        generating = {}
        branches = [0, 0]
        for f, g in pairs:
            result = dedekind_mertens_exponent(f, g, cap=cap)
            assert result is oracle_dedekind_mertens(f, g, cap), (f, g)
            if id(result) not in payloads:
                used = len(g.terms) + 1 if cap is None else cap
                expected = oracle_dm_search(content(f), content(g),
                                            content(series_multiply(f, g)), used)
                assert result.payload == expected.payload, (f, g)
                payloads[id(result)] = result
            if id(f) not in generating:
                generating[id(f)] = _has_generating_coefficient(f)
            branches[not generating[id(f)]] += 1
        return branches

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_pair_over_zmod(self, n, nat):
        ring = build_zmod(n)
        reps = _unit_shift_representatives(ring, nat)
        principal, product = self.check_pairs(itertools.product(reps, repeat=2))
        # over the local Z/p^k the ideals form a chain, so some coefficient
        # of every f generates c(f)
        assert principal and bool(product) == (n in (6, 10, 12))

    def test_sampled_pairs_over_truncated_ring(self, trunc, mt, nat):
        rng = random.Random(64)
        exps = [(e,) for e in range(3)]
        a, b = trunc.meta["generators"]
        pairs = [(make_series(trunc, nat, [((0,), a), ((1,), b)]),
                  make_series(mt, nat, [((0,), b), ((1,), a)]))]
        while len(pairs) < 1500:
            f = _random_series(rng, trunc, nat, exps)
            g = _random_series(rng, mt, nat, exps)
            if not (f.is_zero or g.is_zero):
                pairs.append((f, g))
        principal, product = self.check_pairs(pairs)
        assert principal > 100 and product > 100
        # a cap below k_min is reported as exceeded on both paths
        self.check_pairs(pairs[:300], cap=1)

    @pytest.mark.parametrize("monoid,exps", [
        (free_monoid(1), [(e,) for e in range(3)]),
        (free_monoid(2), [(0, 0), (1, 0), (0, 1), (1, 1)])], ids=["N", "N^2"])
    def test_sampled_pairs_over_a_module(self, z12, m12, monoid, exps):
        module = direct_sum(m12, m12)
        rng = random.Random(144)
        pairs = []
        while len(pairs) < 1500:
            f = _random_series(rng, z12, monoid, exps)
            g = _random_series(rng, module, monoid, exps)
            if not (f.is_zero or g.is_zero):
                pairs.append((f, g))
        principal, product = self.check_pairs(pairs)
        assert principal and product

    def test_no_generating_coefficient_needs_the_product(self, trunc, mt, nat):
        # f = a + bX and g = b + aX: neither a nor b generates c(f) = m, and
        # c(fg) = (ab, a^2 + b^2) is half of c(f)c(g) = m^2
        a, b = trunc.meta["generators"]
        assert (a, b) == (2, 4)
        f = make_series(trunc, nat, [((0,), a), ((1,), b)])
        g = make_series(mt, nat, [((0,), b), ((1,), a)])
        assert not _has_generating_coefficient(f)
        assert len(content(series_multiply(f, g)).members_tuple()) == 4
        assert len(ideal_action_submodule(content(f), content(g)).members_tuple()) == 8
        result = dedekind_mertens_exponent(f, g)
        assert result is oracle_dedekind_mertens(f, g)
        assert result.payload == {
            "k_min": 2, "cap_used": 3,
            "chain": [{"k": 1, "lhs": [0, 8, 16, 24, 32, 40, 48, 56], "rhs": [0, 16, 40, 56],
                       "equal": False},
                      {"k": 2, "lhs": [0], "rhs": [0], "equal": True}]}

    def test_generating_coefficient_builds_no_product(self, trunc, mt, nat, monkeypatch):
        a, b = trunc.meta["generators"]
        f = make_series(trunc, nat, [((0,), a), ((1,), trunc.mul(a, b))])
        g = make_series(mt, nat, [((0,), b), ((1,), a)])
        expected = oracle_dedekind_mertens(f, g)
        monkeypatch.setattr(series_mod, "series_multiply", None)
        assert dedekind_mertens_exponent(f, g) is expected


class TestPayloadMemo:
    """The dm and zdtest payloads are built once per memoized result."""

    def test_one_transcript_one_payload(self, nat):
        z6 = build_zmod(6)
        m6 = z6
        # contents (2), (3) and c(fg) = 0 for both pairs, and cap 2
        first = dedekind_mertens_exponent(ring_series(z6, nat, 2, 2),
                                          make_series(m6, nat, [((0,), 3)]))
        assert "payload" not in vars(first)
        second = dedekind_mertens_exponent(ring_series(z6, nat, 4, 0, 2),
                                           make_series(m6, nat, [((1,), 3)]))
        assert second is first
        assert first.payload is second.payload
        assert first.payload == {"k_min": 1, "cap_used": 2,
                                 "chain": [{"k": 1, "lhs": [0], "rhs": [0], "equal": True}]}

    def test_window_verifier_builds_no_payload(self, nat):
        z6 = build_zmod(6)
        m6 = z6
        window = SupportWindow(((0,), (1,)))
        for verify in (verify_mccoy_equivalence, verify_regularity_transfer):
            assert verify(z6, m6, nat, window).outcome == "pass"
        transcripts = [v for v in m6._cache.values() if isinstance(v, DMResult)]
        verdicts = [v for v in m6._cache.values() if isinstance(v, ZeroDivisorVerdict)]
        assert transcripts and verdicts
        assert not any("payload" in vars(v) for v in transcripts + verdicts)

    def test_one_annihilator_one_verdict(self, nat):
        z6 = build_zmod(6)
        m6 = z6
        for coeffs, other, payload in (
                ((2, 4), (4, 0, 2), {"is_zero_divisor": True, "witness": 3,
                                     "annihilator": [0, 3]}),
                ((1, 2), (5,), {"is_zero_divisor": False, "witness": None,
                                "annihilator": [0]})):
            first = is_zero_divisor_series(ring_series(z6, nat, *coeffs), m6)
            assert is_zero_divisor_series(ring_series(z6, nat, *other), m6) is first
            assert first.payload is first.payload
            assert first.payload == payload


class TestCoefficientReplay:
    def test_planted_mccoy_witness_fails_replay(self, z6, m6, nat, monkeypatch):
        f = ring_series(z6, nat, 2, 4)
        g = constant_series(m6, nat, 3)
        assert mccoy_witness(f, g) == 3
        # 2 does not kill 2 in Z/6, so f * 2 != 0
        monkeypatch.setattr(series_mod, "content_mccoy_witness", lambda cf, cg: 2)
        with pytest.raises(InvariantViolation, match="^McCoy witness failed replay$"):
            mccoy_witness(f, g)

    def test_planted_annihilator_fails_replay(self, z6, m6, nat, monkeypatch):
        f = ring_series(z6, nat, 3, 3)
        assert is_zero_divisor_series(f, m6).witness == 2
        # 3 * 1 != 0: an annihilator that claims 1 names a false witness
        monkeypatch.setattr(series_mod, "annihilator_in_module",
                            lambda subset, module: Submodule(module, 0b11))
        with pytest.raises(InvariantViolation, match="^zero-divisor witness failed replay$"):
            is_zero_divisor_series(f, m6)

    def test_memo_hit_still_replays_the_witness(self, nat, monkeypatch):
        z6 = build_zmod(6)
        m6 = z6
        first = is_zero_divisor_series(ring_series(z6, nat, 2, 4), m6)
        assert first.witness == 3
        # c(f) = (2) again, so Ann(c(f)) = (0, 3) reaches the memoized verdict,
        # and its witness is replayed against this f with a kernel that kills nothing
        f = ring_series(z6, nat, 4, 0, 2)
        monkeypatch.setattr(series_mod, "_killed_by", lambda f, module: [False] * module.size)
        with pytest.raises(InvariantViolation, match="^zero-divisor witness failed replay$"):
            is_zero_divisor_series(f, m6)
        monkeypatch.undo()
        assert is_zero_divisor_series(f, m6) is first

    def test_replay_agrees_with_the_product(self, z6, m6, sat2, nat, c2):
        # f kills m exactly when f * m = 0, on good and bad monoids alike
        for monoid, exps in ((nat, [(0,), (1,), (2,)]), (sat2, [0, 1, 2]), (c2, [0, 1])):
            for coeffs in itertools.product(range(6), repeat=len(exps)):
                f = make_series(z6, monoid, list(zip(exps, coeffs)))
                kills = series_mod._killed_by(f, m6)
                for m in range(6):
                    const = constant_series(m6, monoid, m)
                    assert bool(kills[m]) == series_multiply(f, const).is_zero
