import io
import itertools
import json
from dataclasses import replace

import pytest

import sgmod.verify as verify_mod

from sgmod import (
    HypothesisError,
    PreconditionError,
    SubmoduleClassification,
    SupportWindow,
    ZeroModuleError,
    build_zmod,
    constant_series,
    content,
    cyclic_group_monoid,
    dedekind_mertens_exponent,
    free_monoid,
    ideal_action_submodule,
    is_zero_divisor_series,
    make_series,
    mccoy_witness,
    prime_ideals,
    quotient_module,
    ring_as_module,
    saturating_monoid,
    series_multiply,
    submodule_from_members,
    submodule_generated,
    verify_domain_prime_extension,
    verify_finite_ring_chain,
    verify_mccoy_equivalence,
    verify_regularity_transfer,
    verify_submodule_transfer,
    verify_zero_divisor_transfer,
)
from sgmod.cli import main, payload_hash

W3 = SupportWindow(((0,), (1,), (2,)))
W2 = SupportWindow(((0,), (1,)))


class TestSupportWindow:
    def test_count(self):
        assert W3.count(6) == 216
        assert W2.count(4) == 16

    def test_count_with_support_cap(self):
        w = SupportWindow(((0,), (1,), (2,)), max_support=1)
        # empty series plus 3 positions * 5 nonzero coefficients
        assert w.count(6) == 16
        assert len(w.coeff_array(6, 0).tolist()) == 16

    def test_distinct_exponents_required(self):
        with pytest.raises(PreconditionError):
            SupportWindow(((0,), (0,)))

    def test_validate_for(self, nat, sat2):
        W3.validate_for(nat)
        with pytest.raises(PreconditionError):
            W3.validate_for(sat2)

    def test_enumeration_order_is_lexicographic(self):
        got = W2.coeff_array(2, 0).tolist()
        assert got == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_max_support_at_least_one(self):
        # a window of the zero tuple alone would check nothing
        with pytest.raises(PreconditionError, match="max_support must be at least 1, got 0"):
            SupportWindow(W2.exponents, max_support=0)
        assert SupportWindow(W2.exponents, max_support=1).count(6) == 11


class TestMcCoyEquivalence:
    def test_good_monoid_pass(self, z6, m6, nat):
        report = verify_mccoy_equivalence(z6, m6, nat, W3)
        assert report.outcome == "pass"
        assert report.instances_checked == 216 * 216
        assert report.details["zero_product_pairs"] == report.details["mccoy_witnesses_verified"]
        assert report.details["zero_product_pairs"] > 0

    def test_instances_formula(self, z4, m4, nat):
        report = verify_mccoy_equivalence(z4, m4, nat, W2)
        assert report.instances_checked == W2.count(4) * W2.count(4)

    def test_noncancellative_branch(self, z6, m6, sat2):
        report = verify_mccoy_equivalence(z6, m6, sat2, SupportWindow((0, 1, 2)))
        assert report.outcome == "pass"
        assert report.details["branch"] == "not_cancellative"
        assert report.details["monoid_witness"] == [2, 0, 1]
        assert len(report.details["constructions"]) == 5  # one per nonzero q
        assert report.instances_checked == 25

    def test_torsion_branch(self, z6, m6, c2, c3):
        for monoid, expected_k in ((c2, 2), (c3, 3)):
            report = verify_mccoy_equivalence(z6, m6, monoid,
                                              SupportWindow(tuple(range(monoid.order))))
            assert report.outcome == "pass"
            assert report.details["branch"] == "not_torsion_free"
            assert all(c["k"] == expected_k for c in report.details["constructions"])

    def test_torsion_replay_names_the_least_killed_element(self, z6, m6, c2, monkeypatch):
        # a planted left factor 2 + 2X kills 3 in Z/6: the replay reports the
        # least nonzero m with h m = 0 instead of passing
        def planted(monoid, s, t, module, q):
            h = make_series(z6, monoid, [(0, 2), (1, 2)])
            return 2, h, make_series(module, monoid, [(s, q), (t, module.neg(q))])

        monkeypatch.setattr(verify_mod, "build_torsion_counterexample", planted)
        report = verify_mccoy_equivalence(z6, m6, c2, SupportWindow((0, 1)))
        assert report.outcome == "counterexample"
        assert report.counterexample["clause"] == "construction_replay"
        assert report.counterexample["m"] == 3

    def test_budget_skip(self, z6, m6, nat):
        report = verify_mccoy_equivalence(z6, m6, nat, W3, budget=100)
        assert report.outcome == "skipped"
        assert report.instances_checked == 0
        assert "budget" in report.skip_reason

    def test_failure_branches_charge_the_budget(self, z6, m6, sat2, c2):
        # (|M|-1)^2 = 25 construction replays, charged before any is built
        for monoid, window in ((sat2, SupportWindow((0, 1, 2))), (c2, SupportWindow((0, 1)))):
            report = verify_mccoy_equivalence(z6, m6, monoid, window, budget=24)
            assert report.outcome == "skipped"
            assert report.instances_checked == 0
            assert report.skip_reason == "predicted 25 instances exceeds budget 24"
            report = verify_mccoy_equivalence(z6, m6, monoid, window, budget=25)
            assert report.outcome == "pass"
            assert report.instances_checked == 25

    def test_noncancellative_branch_skips_the_torsion_scan(self, z6, m6, monkeypatch):
        # the non-cancellative branch never reads the torsion witness, so the
        # scan is not run there; fresh monoids keep the memoized result out
        window = SupportWindow((0, 1, 2))
        command = {"op": "verify", "statement": "mccoy_equivalence"}
        expected = verify_mccoy_equivalence(z6, m6, saturating_monoid(2), window)

        def no_scan(monoid):
            raise AssertionError("is_torsion_free called on a non-cancellative monoid")

        monkeypatch.setattr(verify_mod, "is_torsion_free", no_scan)
        report = verify_mccoy_equivalence(z6, m6, saturating_monoid(2), window)
        assert report.outcome == "pass"
        assert (payload_hash(command, report.to_payload())
                == payload_hash(command, expected.to_payload()))

    def test_zero_module_rejected(self, nat):
        z1 = build_zmod(1)
        with pytest.raises(ZeroModuleError):
            verify_mccoy_equivalence(z1, ring_as_module(z1), nat, W2)


class TestDomainPrimeExtension:
    def test_field_is_domain(self, z5, nat):
        report = verify_domain_prime_extension(z5, None, nat, W3)
        assert report.outcome == "pass"
        assert report.details["ring_is_domain"]
        assert report.details["domain_pairs"] == (125 - 1) ** 2

    def test_z6_primes_and_ass(self, z6, m6, nat):
        report = verify_domain_prime_extension(z6, m6, nat, W2)
        assert report.outcome == "pass"
        assert not report.details["ring_is_domain"]
        assert report.details["non_domain_witness"] == [2, 3]
        assert report.details["primes_checked"] == len(prime_ideals(z6)) == 2
        assert report.details["associated_primes_checked"] == 2

    def test_instances_formula(self, z6, m6, nat):
        report = verify_domain_prime_extension(z6, m6, nat, W2)
        nf = W2.count(6)
        assert report.instances_checked == 1 + 2 * nf * nf + 2 * nf

    def test_hypothesis_error(self, z6, m6, sat2):
        with pytest.raises(HypothesisError):
            verify_domain_prime_extension(z6, m6, sat2, SupportWindow((0, 1)))

    def test_budget_skip(self, z6, m6, nat):
        report = verify_domain_prime_extension(z6, m6, nat, W3, budget=10)
        assert report.outcome == "skipped"


class TestSubmoduleTransfer:
    def test_prime_submodule_transfers(self, m6, nat):
        sub = submodule_generated(m6, [3])
        report = verify_submodule_transfer(m6, sub, nat, W2)
        assert report.outcome == "pass"
        assert report.details["base_is_prime"]
        assert report.details["prime_transfer_holds"]
        assert report.details["primary_transfer_holds"]

    def test_zero_submodule_primary_not_prime(self, m4, nat):
        sub = submodule_generated(m4, [])
        report = verify_submodule_transfer(m4, sub, nat, W2)
        assert report.outcome == "pass"
        assert not report.details["base_is_prime"]
        assert report.details["base_is_primary"]
        assert report.details["primary_transfer_holds"]
        # prime transfer is not promised and indeed fails on the window
        assert not report.details["prime_transfer_holds"]
        assert report.details["expected_prime_violation"] is not None

    def test_z12_expected_prime_violation_replays(self, z12, m12, nat):
        sub = submodule_generated(m12, [4])
        report = verify_submodule_transfer(m12, sub, nat, W2)
        assert report.outcome == "pass"
        assert report.details["primary_transfer_holds"]
        violation = report.details["expected_prime_violation"]
        assert violation is not None
        r = make_series(z12, nat, [(tuple(e), c) for e, c in violation["r"]])
        x = make_series(m12, nat, [(tuple(e), c) for e, c in violation["x"]])
        rx = series_multiply(r, x)
        assert all(sub.contains(c) for c in rx.coefficients)
        assert not all(sub.contains(c) for c in x.coefficients)
        full = submodule_from_members(m12, range(12))
        moved = ideal_action_submodule(content(r), full)
        assert moved.members & ~sub.members != 0

    def test_instances_formula(self, m6, nat):
        sub = submodule_generated(m6, [3])
        report = verify_submodule_transfer(m6, sub, nat, W2)
        assert report.instances_checked == W2.count(6) * W2.count(6)

    def test_budget_skip(self, m6, nat):
        sub = submodule_generated(m6, [3])
        report = verify_submodule_transfer(m6, sub, nat, W3, budget=1000)
        assert report.outcome == "skipped"

    @pytest.mark.parametrize("prime,clause", [(True, "prime_transfer"),
                                              (False, "primary_transfer")])
    def test_planted_classification_is_a_counterexample(self, monkeypatch, tmp_path, m6, nat,
                                                        prime, clause):
        # (0) in Z/6 is neither prime nor primary; planted as one, r = 2 and
        # x = 3 break either clause: 2 * 3 = 0, 3 is outside (0), and
        # c(2)^n = (2) never kills Z/6
        planted = SubmoduleClassification(True, prime, True, None, None)
        monkeypatch.setattr(verify_mod, "classify_submodule", lambda module, sub: planted)
        report = verify_submodule_transfer(m6, submodule_generated(m6, []), nat,
                                           SupportWindow(((0,),)))
        assert report.outcome == "counterexample"
        expected = {"clause": clause, "r": [[[0], 2]], "x": [[[0], 3]]}
        if not prime:
            expected["exponent_bound"] = 6
        assert report.counterexample == expected
        doc = {"rings": {"R6": {"kind": "zmod", "n": 6}},
               "monoids": {"N": {"kind": "free", "dim": 1}},
               "modules": {"M6": {"kind": "ring_as_module", "ring": "R6"}},
               "submodules": {"P0": {"module": "M6", "members": [0]}},
               "commands": [{"op": "verify", "statement": "submodule_transfer",
                             "submodule": "P0", "monoid": "N", "window": [0]}]}
        path = tmp_path / "session.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)], stream=io.StringIO()) == 1


class TestRegularityTransfer:
    def test_z6_window3(self, z6, m6, nat):
        report = verify_regularity_transfer(z6, m6, nat, W3)
        assert report.outcome == "pass"
        assert report.instances_checked == 216
        assert report.details["regular"] + report.details["zero_divisors"] == 216

    def test_z4(self, z4, m4, nat):
        report = verify_regularity_transfer(z4, m4, nat, W2)
        assert report.outcome == "pass"
        assert report.instances_checked == 16

    def test_zero_series_counts_as_zero_divisor(self, z4, m4, nat):
        # the empty coefficient assignment is enumerated and lands on the
        # zero-divisor side (its content annihilator is all of M)
        report = verify_regularity_transfer(z4, m4, nat, W2)
        assert report.details["zero_divisors"] >= 1


class TestZeroDivisorTransfer:
    def test_fleet_degrees(self, z6, m6, z12, m12, z4, m4, trunc, mt, nat):
        cases = [(z6, m6, 2), (z12, m12, 2), (z4, m4, 1), (trunc, mt, 1)]
        for ring, module, degree in cases:
            report = verify_zero_divisor_transfer(ring, module, nat, W2)
            assert report.outcome == "pass"
            assert report.details["degree"] == degree
            assert report.details["very_few"]
            assert report.details["primal"] == (degree == 1)

    def test_window3(self, z6, m6, nat):
        report = verify_zero_divisor_transfer(z6, m6, nat, W3)
        assert report.outcome == "pass"
        nf = 216
        assert report.instances_checked == nf + 2 * 1 + 2 * nf
        assert report.details["witness_checks"] == 2 * nf

    def test_incomparability_witnesses(self, z6, m6, nat):
        report = verify_zero_divisor_transfer(z6, m6, nat, W2)
        pairs = {(w["i"], w["j"]): w["constant_witness"]
                 for w in report.details["incomparability_witnesses"]}
        assert set(pairs) == {(0, 1), (1, 0)}
        assert pairs[(0, 1)] == 2  # 2 lies in (2) but not in (3)
        assert pairs[(1, 0)] == 3

    def test_window_monotone_classification(self, z6, m6, nat):
        # a window series extends by zero coefficients without changing its
        # classification, so the zero-divisor slice is consistent under
        # window inclusion
        from sgmod import is_zero_divisor_series
        small, large = W2, W3
        for fc in itertools.product(range(6), repeat=2):
            f_small = small.series(z6, nat, fc)
            f_large = large.series(z6, nat, fc + (0,))
            assert (is_zero_divisor_series(f_small, m6).is_zero_divisor
                    == is_zero_divisor_series(f_large, m6).is_zero_divisor)


class TestFiniteRingChain:
    def test_fleet(self, z6, z4, trunc):
        for ring, degree in ((z6, 2), (z4, 1), (trunc, 1)):
            report = verify_finite_ring_chain(ring)
            assert report.outcome == "pass"
            assert report.details["very_few"]
            assert report.details["degree"] == degree
            assert report.instances_checked == 2

    def test_zero_ring_rejected(self):
        with pytest.raises(ZeroModuleError):
            verify_finite_ring_chain(build_zmod(1))

    def _planted(self, monkeypatch, ring, plant):
        real = verify_mod.decompose_zero_divisors(ring_as_module(ring))
        planted = replace(real, primes=plant(real.primes))
        monkeypatch.setattr(verify_mod, "decompose_zero_divisors", lambda module: planted)
        return verify_finite_ring_chain(ring)

    def test_missing_prime_reports_the_least_uncovered_zero_divisor(self, z6, monkeypatch):
        # Z(Z/6) = {0, 2, 3, 4}; without (3) the element 3 is left uncovered
        report = self._planted(monkeypatch, z6, lambda primes: primes[:1])
        assert report.outcome == "counterexample"
        assert report.counterexample == {"clause": "very_few", "element": 3,
                                         "in_union": False, "primes": [[0, 2, 4]]}

    def test_repeated_prime_reports_the_nested_pair(self, z6, monkeypatch):
        # the union still is Z(Z/6), but the first prime sits inside the third
        report = self._planted(monkeypatch, z6, lambda primes: primes + primes[:1])
        assert report.outcome == "counterexample"
        assert report.counterexample == {"clause": "incomparable", "pair": [0, 2],
                                         "primes": [[0, 2, 4], [0, 3], [0, 2, 4]]}


class TestCounterexamplePayloadReplay:
    def test_membership_payload_replays(self, z6, m6, nat):
        # force the counterexample path by feeding the verifier a report from
        # a healthy run and replaying its payload shape on a fabricated clash:
        # every pass report must be backed by per-series agreement, so rebuild
        # the check here independently for the whole window
        from sgmod import ExtendedIdeal, extended_ideal_membership, is_zero_divisor_series
        from sgmod import decompose_zero_divisors
        decomp = decompose_zero_divisors(m6)
        extended = [ExtendedIdeal(p, nat) for p in decomp.primes]
        for fc in itertools.product(range(6), repeat=2):
            f = W2.series(z6, nat, fc)
            lhs = is_zero_divisor_series(f, m6).is_zero_divisor
            rhs = any(extended_ideal_membership(f, e) for e in extended)
            assert lhs == rhs


def _hypothesis_checks():
    """Each operation and verifier that checks the monoid hypotheses, with the
    start of its HypothesisError message, on Z/6 and a monoid over which
    a constant series lives."""
    z6 = build_zmod(6)
    p2 = submodule_generated(z6, [2])
    window = SupportWindow((0,))
    return [
        ("Dedekind-Mertens search requires",
         lambda f, monoid: dedekind_mertens_exponent(f, f)),
        ("McCoy witness requires", lambda f, monoid: mccoy_witness(f, f)),
        ("zero-divisor test requires", lambda f, monoid: is_zero_divisor_series(f, z6)),
        ("domain_prime_extension assumes",
         lambda f, monoid: verify_domain_prime_extension(z6, None, monoid, window)),
        ("submodule_transfer assumes",
         lambda f, monoid: verify_submodule_transfer(z6, p2, monoid, window)),
        ("regularity_transfer assumes",
         lambda f, monoid: verify_regularity_transfer(z6, z6, monoid, window)),
        ("zero_divisor_transfer assumes",
         lambda f, monoid: verify_zero_divisor_transfer(z6, z6, monoid, window)),
    ]


@pytest.mark.parametrize("monoid,tail", [
    (saturating_monoid(2), "a cancellative monoid; witness (2, 0, 1)"),
    (cyclic_group_monoid(2), "a torsion-free monoid; witness (1, 0, 2)"),
], ids=["not_cancellative", "not_torsion_free"])
@pytest.mark.parametrize("prefix,call", _hypothesis_checks(),
                         ids=[prefix for prefix, _ in _hypothesis_checks()])
def test_hypothesis_messages(monoid, tail, prefix, call):
    f = constant_series(build_zmod(6), monoid, 2)
    with pytest.raises(HypothesisError) as exc:
        call(f, monoid)
    assert str(exc.value) == f"{prefix} {tail}"


def _window_verifiers():
    """Each window verifier as a call on (ring, module, monoid, window), with
    the faults it checks for, in the order it checks them."""
    return [
        ("mccoy_equivalence", verify_mccoy_equivalence,
         ["zero_module", "foreign_module", "window_outside"]),
        ("domain_prime_extension", verify_domain_prime_extension,
         ["foreign_module", "not_cancellative", "window_outside"]),
        ("submodule_transfer",
         lambda ring, module, monoid, window: verify_submodule_transfer(
             module, submodule_generated(module, []), monoid, window),
         ["not_cancellative", "window_outside"]),
        ("regularity_transfer", verify_regularity_transfer,
         ["zero_module", "foreign_module", "not_cancellative", "window_outside"]),
        ("zero_divisor_transfer", verify_zero_divisor_transfer,
         ["zero_module", "foreign_module", "not_cancellative", "window_outside"]),
    ]


def _faulty_arguments(fault):
    """(ring, module, monoid, window) over Z/6 with the one given fault, and
    the error class and message it raises, the statement left to fill in."""
    z6 = build_zmod(6)
    zero = quotient_module(z6, submodule_generated(z6, [1]))
    nat, w2 = free_monoid(1), SupportWindow(((0,), (1,)))
    return {
        "zero_module": ((z6, zero, nat, w2),
                        ZeroModuleError, "{} needs a nonzero module"),
        "foreign_module": ((z6, build_zmod(4), nat, w2),
                           PreconditionError, "module is not over the given ring"),
        "not_cancellative": ((z6, z6, saturating_monoid(2), SupportWindow((0, 1))),
                             HypothesisError,
                             "{} assumes a cancellative monoid; witness (2, 0, 1)"),
        "window_outside": ((z6, z6, nat, SupportWindow(((0,), (-1,)))),
                           PreconditionError, "window exponent (-1,) outside N^1"),
    }[fault]


@pytest.mark.parametrize("statement,call,fault", [
    pytest.param(statement, call, fault, id=f"{statement}-{fault}")
    for statement, call, faults in _window_verifiers() for fault in faults
])
def test_window_verifier_argument_errors(statement, call, fault):
    args, error, message = _faulty_arguments(fault)
    with pytest.raises(error) as exc:
        call(*args)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(statement)


@pytest.mark.parametrize("statement,call", [
    pytest.param(statement, call, id=statement)
    for statement, call, faults in _window_verifiers() if "zero_module" not in faults
])
def test_zero_module_is_no_fault_where_not_needed(statement, call):
    (ring, zero, monoid, window), *_ = _faulty_arguments("zero_module")
    assert call(ring, zero, monoid, window).outcome == "pass"


def test_domain_prime_extension_checks_the_module_before_the_monoid():
    # both faults at once: the module error comes first, as in every other
    # window verifier
    with pytest.raises(PreconditionError, match="^module is not over the given ring$"):
        verify_domain_prime_extension(build_zmod(6), build_zmod(4), saturating_monoid(2),
                                      SupportWindow((0, 1)))
