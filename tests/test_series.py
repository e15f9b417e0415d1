import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmod import (
    ExtendedIdeal,
    HypothesisError,
    InvariantViolation,
    PreconditionError,
    StructureMismatchError,
    build_noncancellative_counterexample,
    build_torsion_counterexample,
    build_zmod,
    constant_series,
    content,
    cyclic_group_monoid,
    dedekind_mertens_exponent,
    extended_ideal_membership,
    ideal_action_submodule,
    ideal_generated,
    ideal_power,
    is_zero_divisor_series,
    make_series,
    mccoy_witness,
    monomial_series,
    ring_as_module,
    series_add,
    series_multiply,
    series_neg,
    submodule_generated,
    zero_series,
)
import sgmod.series as series_mod
from sgmod.series import content_mccoy_witness


def ring_series(ring, monoid, *coeffs):
    return make_series(ring, monoid, [((i,), c) for i, c in enumerate(coeffs)])


class TestSeriesBasics:
    def test_normalization_drops_zeros(self, z6, nat):
        s = make_series(z6, nat, [((0,), 0), ((1,), 2)])
        assert s.terms == (((1,), 2),)

    def test_normalization_combines_exponents(self, z6, nat):
        s = make_series(z6, nat, [((0,), 2), ((0,), 4)])
        assert s.is_zero

    def test_rejects_bad_exponent(self, z6, nat, sat2):
        with pytest.raises(StructureMismatchError):
            make_series(z6, nat, [(5, 1)])
        with pytest.raises(StructureMismatchError):
            make_series(z6, sat2, [(7, 1)])

    def test_rejects_bad_coefficient(self, z6, nat):
        with pytest.raises(PreconditionError):
            make_series(z6, nat, [((0,), 9)])

    def test_add_and_neg_cancel(self, z6, nat):
        g = ring_series(z6, nat, 1, 2, 5)
        assert series_add(g, series_neg(g)).is_zero

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
        g = constant_series(m6, nat, 3)
        with pytest.raises(StructureMismatchError):
            series_multiply(g, g)

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
        assert content(zero_series(z6, nat)).members_tuple() == (0,)

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
            mccoy_witness(ring_series(z6, nat, 2), zero_series(m6, nat))

    def test_zero_f_returns_any_coefficient_generator(self, z6, m6, nat):
        m = mccoy_witness(zero_series(z6, nat), constant_series(m6, nat, 4))
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
        assert extended_ideal_membership(zero_series(z6, nat), p2)


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
