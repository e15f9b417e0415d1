"""Window-exhaustive verification of the transfer statements.

Each verifier enumerates every coefficient assignment over a fixed exponent
window, checks the statement instance by instance through the public
operations, and reports pass / counterexample / skipped. A counterexample on
hypothesis-satisfying inputs signals an implementation bug (the statements are
proven); its payload always replays through the public operations.

Windows only slice the infinite algebras: the content-annihilator criterion is
the authoritative zero-divisor membership test, and the window search for an
annihilating partner acts as a one-sided oracle (a hit confirms, absence within
the window never refutes).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import bitset
from .errors import (
    HypothesisError,
    InvariantViolation,
    PreconditionError,
    ZeroModuleError,
)
from .finite_algebra import (
    FiniteModule,
    FiniteRing,
    Submodule,
    annihilator_in_module,
    associated_primes,
    classify_submodule,
    ideal_action_submodule,
    ideal_generated,
    ideal_product,
    is_prime_ideal,
    prime_ideals,
    ring_as_module,
    same_ring,
    submodule_generated,
    zero_divisor_set,
)
from .monoids import Monoid, is_cancellative, is_torsion_free
from .series import (
    ExtendedIdeal,
    Series,
    _dm_search,
    build_noncancellative_counterexample,
    build_torsion_counterexample,
    constant_series,
    extended_ideal_membership,
    is_zero_divisor_series,
    make_series,
    mccoy_witness,
    series_multiply,
)
from .zd import (
    check_property_a,
    decompose_zero_divisors,
    has_very_few_zero_divisors,
    is_primal,
)

DEFAULT_BUDGET = 10_000_000

OUTCOME_PASS = "pass"
OUTCOME_COUNTEREXAMPLE = "counterexample"
OUTCOME_SKIPPED = "skipped"


@dataclass(frozen=True)
class SupportWindow:
    """A finite exponent list; series enumeration assigns every coefficient.

    max_support optionally caps the number of nonzero terms. The enumeration
    order is the lexicographic coefficient-tuple order, so first-found
    counterexamples are the lexicographically least.
    """

    exponents: tuple
    max_support: int | None = None

    def __post_init__(self):
        exps = tuple(tuple(e) if isinstance(e, list) else e for e in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(set(exps)) != len(exps):
            raise PreconditionError("window exponents must be pairwise distinct")
        if not exps:
            raise PreconditionError("window needs at least one exponent")
        if self.max_support is not None and self.max_support < 0:
            raise PreconditionError(f"max_support must be non-negative, got {self.max_support}")

    def validate_for(self, monoid: Monoid) -> None:
        for e in self.exponents:
            if not monoid.contains(e):
                raise PreconditionError(f"window exponent {e!r} outside {monoid.label}")

    def count(self, space_size: int) -> int:
        """Number of coefficient assignments (the enumeration cardinality)."""
        e = len(self.exponents)
        if self.max_support is None or self.max_support >= e:
            return space_size ** e
        total = 0
        for j in range(self.max_support + 1):
            total += _binom(e, j) * (space_size - 1) ** j
        return total

    def iter_coeffs(self, space_size: int, zero_index: int):
        """All coefficient tuples in lexicographic order, honoring max_support."""
        cap = self.max_support
        for tup in itertools.product(range(space_size), repeat=len(self.exponents)):
            if cap is not None and sum(1 for c in tup if c != zero_index) > cap:
                continue
            yield tup

    def series(self, space, monoid: Monoid, coeffs) -> Series:
        terms = [(e, c) for e, c in zip(self.exponents, coeffs) if c != space.zero]
        return make_series(space, monoid, terms)


def _binom(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@dataclass
class VerificationReport:
    statement: str
    outcome: str
    instances_checked: int
    config: dict
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None
    skip_reason: str | None = None
    elapsed_ms: float = 0.0

    def to_payload(self) -> dict:
        """Deterministic report body; elapsed time stays out of the hash section."""
        return {
            "statement": self.statement,
            "outcome": self.outcome,
            "instances_checked": self.instances_checked,
            "config": self.config,
            "details": self.details,
            "counterexample": self.counterexample,
            "skip_reason": self.skip_reason,
        }


def _config_echo(window: SupportWindow | None = None, budget: int | None = None,
                 **objects) -> dict:
    cfg = {k: v.label for k, v in objects.items() if v is not None}
    if window is not None:
        cfg["window"] = [list(e) if isinstance(e, tuple) else e for e in window.exponents]
        if window.max_support is not None:
            cfg["max_support"] = window.max_support
    if budget is not None:
        cfg["budget"] = budget
    return cfg


def _skipped(statement: str, config: dict, predicted: int, budget: int,
             t0: float) -> VerificationReport:
    return VerificationReport(
        statement=statement,
        outcome=OUTCOME_SKIPPED,
        instances_checked=0,
        config=config,
        skip_reason=f"predicted {predicted} instances exceeds budget {budget}",
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _terms_payload(series: Series) -> list:
    return [[list(e) if isinstance(e, tuple) else e, c] for e, c in series.terms]


def _product_layout(monoid: Monoid, exponents: tuple):
    """Positions of pairwise exponent sums in a deduplicated product support."""
    prod_exps: list = []
    index: dict = {}
    e_count = len(exponents)
    pos = [[0] * e_count for _ in range(e_count)]
    for i, a in enumerate(exponents):
        for j, b in enumerate(exponents):
            e = monoid.add(a, b)
            if e not in index:
                index[e] = len(prod_exps)
                prod_exps.append(e)
            pos[i][j] = index[e]
    return prod_exps, pos


def _require_hypotheses(monoid: Monoid, statement: str) -> None:
    ok, wit = is_cancellative(monoid)
    if not ok:
        raise HypothesisError(f"{statement} assumes a cancellative monoid; witness {wit}")
    ok, wit = is_torsion_free(monoid)
    if not ok:
        raise HypothesisError(f"{statement} assumes a torsion-free monoid; witness {wit}")


# ---------------------------------------------------------------------------
# the big equivalence: monoid hypotheses <-> Dedekind-Mertens <-> McCoy <->
# content-annihilator criterion


def verify_mccoy_equivalence(ring: FiniteRing, module: FiniteModule, monoid: Monoid,
                             window: SupportWindow,
                             budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """On good monoids, exhaustively replays the equivalence over all window pairs:
    a finite Dedekind-Mertens exponent exists, every vanishing product admits a
    verified single-element annihilator, and the content criterion agrees with
    the window search. On bad monoids, confirms the defeating construction.

    Instances: |R|^E * |M|^E window pairs on the good branch, (|M|-1)^2
    construction replays on the failure branch.
    """
    t0 = time.perf_counter()
    statement = "mccoy_equivalence"
    if module.is_zero_module:
        raise ZeroModuleError(f"{statement} needs a nonzero module")
    if not same_ring(ring, module.ring):
        raise PreconditionError("module is not over the given ring")
    window.validate_for(monoid)
    config = _config_echo(window=window, budget=budget, ring=ring, module=module,
                          monoid=monoid)
    canc, canc_wit = is_cancellative(monoid)
    tf, tf_wit = is_torsion_free(monoid)

    if canc and tf:
        nf = window.count(ring.size)
        ng = window.count(module.size)
        predicted = nf * ng
        if predicted > budget:
            return _skipped(statement, config, predicted, budget, t0)
        report = _mccoy_equivalence_good(ring, module, monoid, window, config,
                                         predicted, statement)
    else:
        report = _mccoy_equivalence_bad(module, monoid, config, statement,
                                        canc, canc_wit, tf_wit)
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


def _mccoy_equivalence_good(ring, module, monoid, window, config, predicted,
                            statement) -> VerificationReport:
    prod_exps, pos = _product_layout(monoid, window.exponents)
    n_prod = len(prod_exps)
    act = module._act_rows
    madd = module._add_rows
    rzero, mzero = ring.zero, module.zero

    f_list = list(window.iter_coeffs(ring.size, rzero))
    g_list = list(window.iter_coeffs(module.size, mzero))
    g_zero_flags = [all(c == mzero for c in g) for g in g_list]
    g_support = [sum(1 for c in g if c != mzero) for g in g_list]
    g_content = [submodule_generated(module, g) for g in g_list]

    dm_memo: dict = {}
    zero_mask = 1 << mzero
    zero_product_pairs = 0
    witnesses_verified = 0
    max_k = 0

    for f_coeffs in f_list:
        cf = ideal_generated(ring, f_coeffs)
        ann_nonzero = annihilator_in_module(cf, module).members != zero_mask
        killed = False
        rows = [None if a == rzero else act[a] for a in f_coeffs]
        for gi, g_coeffs in enumerate(g_list):
            acc = [mzero] * n_prod
            for i, arow in enumerate(rows):
                if arow is None:
                    continue
                prow = pos[i]
                for j, b in enumerate(g_coeffs):
                    if b == mzero:
                        continue
                    k = prow[j]
                    acc[k] = madd[acc[k]][arow[b]]
            fg_zero = all(c == mzero for c in acc)

            # Dedekind-Mertens with the default cap |support(g)| + 1
            cg = g_content[gi]
            cfg = submodule_generated(module, acc)
            cap = g_support[gi] + 1
            dm_key = (cf.members, cg.members, cfg.members, cap)
            k_min = dm_memo.get(dm_key, -1)
            if k_min == -1:
                k_min = _dm_search(cf, cg, cfg, cap).k_min
                dm_memo[dm_key] = k_min
            if k_min is None:
                f_series = window.series(ring, monoid, f_coeffs)
                g_series = window.series(module, monoid, g_coeffs)
                return VerificationReport(
                    statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                    counterexample={
                        "clause": "dedekind_mertens",
                        "f": _terms_payload(f_series),
                        "g": _terms_payload(g_series),
                        "reason": f"no exponent within cap {cap}",
                    })
            if k_min > max_k:
                max_k = k_min

            if fg_zero and not g_zero_flags[gi]:
                killed = True
                zero_product_pairs += 1
                f_series = window.series(ring, monoid, f_coeffs)
                g_series = window.series(module, monoid, g_coeffs)
                mccoy_witness(f_series, g_series)  # raises on failure
                witnesses_verified += 1

        if killed != ann_nonzero:
            f_series = window.series(ring, monoid, f_coeffs)
            return VerificationReport(
                statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                counterexample={
                    "clause": "content_annihilator",
                    "f": _terms_payload(f_series),
                    "annihilator_nonzero": ann_nonzero,
                    "window_partner_found": killed,
                })

    details = {
        "branch": "hypotheses_hold",
        "pairs": predicted,
        "max_dm_exponent": max_k,
        "zero_product_pairs": zero_product_pairs,
        "mccoy_witnesses_verified": witnesses_verified,
        "content_criterion_series": len(f_list),
    }
    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details)


def _mccoy_equivalence_bad(module, monoid, config, statement, canc, canc_wit,
                           tf_wit) -> VerificationReport:
    nz = [m for m in module.elements() if m != module.zero]
    instances = len(nz) ** 2
    constructions = []
    if not canc:
        for q in nz:
            f, g = build_noncancellative_counterexample(monoid, canc_wit, module, q)
            for m in nz:
                if series_multiply(f, constant_series(module, monoid, m)).is_zero:
                    return VerificationReport(
                        statement, OUTCOME_COUNTEREXAMPLE, instances, config,
                        counterexample={"clause": "construction_replay",
                                        "f": _terms_payload(f), "m": m})
            constructions.append({"q": q, "f": _terms_payload(f), "g": _terms_payload(g)})
        branch = "not_cancellative"
        witness = list(canc_wit)
    else:
        s, t, _ = tf_wit
        k = None
        for q in nz:
            k, h, g = build_torsion_counterexample(monoid, s, t, module, q)
            for m in nz:
                if series_multiply(h, constant_series(module, monoid, m)).is_zero:
                    return VerificationReport(
                        statement, OUTCOME_COUNTEREXAMPLE, instances, config,
                        counterexample={"clause": "construction_replay",
                                        "h": _terms_payload(h), "m": m})
            constructions.append({"q": q, "k": k, "h": _terms_payload(h),
                                  "g": _terms_payload(g)})
        branch = "not_torsion_free"
        witness = list(tf_wit)
    details = {
        "branch": branch,
        "monoid_witness": witness,
        "constructions": constructions,
        "note": "single-annihilator property fails: each product vanishes, no module element kills the left factor",
    }
    return VerificationReport(statement, OUTCOME_PASS, instances, config, details)


# ---------------------------------------------------------------------------
# domain transfer, extended primes, extended associated primes


def verify_domain_prime_extension(ring: FiniteRing, module: FiniteModule | None,
                                  monoid: Monoid, window: SupportWindow,
                                  budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Three window-exhaustive checks over a good monoid: (1) domains stay
    domains under the monoid extension (and non-domains stay non-domains via
    the constant embedding); (2) each extended prime p[S] is prime on the
    window; (3) each associated prime annihilates exactly its witness slice.

    Instances: domain pairs + |primes| * |R[S] window|^2 + |Ass| * |R[S] window|.
    """
    t0 = time.perf_counter()
    statement = "domain_prime_extension"
    _require_hypotheses(monoid, statement)
    window.validate_for(monoid)
    if module is not None and not same_ring(ring, module.ring):
        raise PreconditionError("module is not over the given ring")
    config = _config_echo(window=window, budget=budget, ring=ring, module=module,
                          monoid=monoid)
    nf = window.count(ring.size)
    primes = prime_ideals(ring)
    is_domain = (not ring.is_zero_ring
                 and zero_divisor_set(ring_as_module(ring)) == (1 << ring.zero))
    ass = associated_primes(module) if module is not None and not module.is_zero_module else []
    clause1 = (nf - 1) ** 2 if is_domain else 1
    predicted = clause1 + len(primes) * nf * nf + len(ass) * nf
    if predicted > budget:
        return _skipped(statement, config, predicted, budget, t0)

    prod_exps, pos = _product_layout(monoid, window.exponents)
    n_prod = len(prod_exps)
    mul = ring._mul_rows
    radd = ring._add_rows
    rzero = ring.zero
    f_list = list(window.iter_coeffs(ring.size, rzero))

    products: dict[tuple, list] = {}

    def ring_product(f_coeffs, g_coeffs):
        key = (f_coeffs, g_coeffs)
        hit = products.get(key)
        if hit is not None:
            return hit
        acc = [rzero] * n_prod
        for i, a in enumerate(f_coeffs):
            if a == rzero:
                continue
            arow = mul[a]
            prow = pos[i]
            for j, b in enumerate(g_coeffs):
                if b == rzero:
                    continue
                k = prow[j]
                acc[k] = radd[acc[k]][arow[b]]
        products[key] = acc
        return acc

    details: dict = {"ring_is_domain": is_domain, "primes_checked": len(primes),
                     "associated_primes_checked": len(ass)}

    if is_domain:
        for f_coeffs in f_list:
            if all(c == rzero for c in f_coeffs):
                continue
            for g_coeffs in f_list:
                if all(c == rzero for c in g_coeffs):
                    continue
                if all(c == rzero for c in ring_product(f_coeffs, g_coeffs)):
                    return VerificationReport(
                        statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                        counterexample={
                            "clause": "domain_transfer",
                            "f": _terms_payload(window.series(ring, monoid, f_coeffs)),
                            "g": _terms_payload(window.series(ring, monoid, g_coeffs)),
                        })
        details["domain_pairs"] = clause1
    else:
        a, b = is_prime_ideal(ideal_generated(ring, ()))[1] or (None, None)
        if a is None:
            # zero ring: 1 = 0 embeds, nothing further to exhibit
            details["non_domain_witness"] = None
        else:
            fa = constant_series(ring, monoid, a)
            fb = constant_series(ring, monoid, b)
            if not series_multiply(fa, fb).is_zero:
                raise PreconditionError("non-domain witness failed to embed")
            details["non_domain_witness"] = [a, b]

    for p in primes:
        ext = ExtendedIdeal(p, monoid)
        in_p = [bitset.has_bit(p.members, x) for x in ring.elements()]
        for f_coeffs in f_list:
            f_out = any(not in_p[c] for c in f_coeffs)
            if not f_out:
                continue
            for g_coeffs in f_list:
                if not any(not in_p[c] for c in g_coeffs):
                    continue
                prod = ring_product(f_coeffs, g_coeffs)
                if not any(not in_p[c] for c in prod):
                    f_series = window.series(ring, monoid, f_coeffs)
                    g_series = window.series(ring, monoid, g_coeffs)
                    if not extended_ideal_membership(series_multiply(f_series, g_series), ext):
                        raise InvariantViolation("extended prime violation failed replay")
                    return VerificationReport(
                        statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                        counterexample={
                            "clause": "extended_prime",
                            "prime": list(p.members_tuple()),
                            "f": _terms_payload(f_series),
                            "g": _terms_payload(g_series),
                        })

    for p, witness in ass:
        in_p = [bitset.has_bit(p.members, x) for x in ring.elements()]
        kills = [module.act(r, witness) == module.zero for r in ring.elements()]
        for f_coeffs in f_list:
            annihilates = all(kills[c] for c in f_coeffs)
            member = all(in_p[c] for c in f_coeffs)
            if annihilates != member:
                return VerificationReport(
                    statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                    counterexample={
                        "clause": "extended_associated_prime",
                        "prime": list(p.members_tuple()),
                        "witness": witness,
                        "f": _terms_payload(window.series(ring, monoid, f_coeffs)),
                    })

    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details,
                              elapsed_ms=(time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# prime / primary submodule transfer


def verify_submodule_transfer(module: FiniteModule, sub: Submodule, monoid: Monoid,
                              window: SupportWindow,
                              budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Classify the submodule first, then check over all window pairs (r, x)
    that r x in P[S] forces x in P[S], or c(r) M inside P (prime case), or
    c(r)^n M inside P for some n <= |R| (primary case; ideal powers descend, so
    the bound is exhaustive). A violation is a counterexample only when the
    base classification promised the property; otherwise it is recorded as the
    expected violation.

    Instances: |R[S] window| * |M[S] window| pairs.
    """
    t0 = time.perf_counter()
    statement = "submodule_transfer"
    _require_hypotheses(monoid, statement)
    window.validate_for(monoid)
    ring = module.ring
    config = _config_echo(window=window, budget=budget, module=module, monoid=monoid)
    config["submodule"] = list(sub.members_tuple())
    classification = classify_submodule(module, sub)
    nr = window.count(ring.size)
    nx = window.count(module.size)
    predicted = nr * nx
    if predicted > budget:
        return _skipped(statement, config, predicted, budget, t0)

    prod_exps, pos = _product_layout(monoid, window.exponents)
    n_prod = len(prod_exps)
    act = module._act_rows
    madd = module._add_rows
    rzero, mzero = ring.zero, module.zero
    in_p = [sub.contains(x) for x in module.elements()]
    full = Submodule(module, module.full_mask)

    content_facts: dict = {}

    def facts_for(r_coeffs):
        key = tuple(sorted(set(r_coeffs)))
        hit = content_facts.get(key)
        if hit is not None:
            return hit
        cr = ideal_generated(ring, key)
        prime_ok = bitset.is_subset(ideal_action_submodule(cr, full).members, sub.members)
        primary_ok = prime_ok
        if not primary_ok:
            power = cr
            while True:
                nxt = ideal_product(power, cr)
                if bitset.is_subset(ideal_action_submodule(nxt, full).members, sub.members):
                    primary_ok = True
                    break
                if nxt.members == power.members:  # stabilized above P: no power works
                    break
                power = nxt
        content_facts[key] = (prime_ok, primary_ok)
        return prime_ok, primary_ok

    prime_violation = None
    primary_violation = None
    r_list = list(window.iter_coeffs(ring.size, rzero))
    x_list = list(window.iter_coeffs(module.size, mzero))
    for r_coeffs in r_list:
        rows = [None if a == rzero else act[a] for a in r_coeffs]
        for x_coeffs in x_list:
            acc = [mzero] * n_prod
            for i, arow in enumerate(rows):
                if arow is None:
                    continue
                prow = pos[i]
                for j, b in enumerate(x_coeffs):
                    if b == mzero:
                        continue
                    k = prow[j]
                    acc[k] = madd[acc[k]][arow[b]]
            if not all(in_p[c] for c in acc):
                continue
            if all(in_p[c] for c in x_coeffs):
                continue
            prime_ok, primary_ok = facts_for(r_coeffs)
            if not prime_ok and prime_violation is None:
                prime_violation = {
                    "r": _terms_payload(window.series(ring, monoid, r_coeffs)),
                    "x": _terms_payload(window.series(module, monoid, x_coeffs)),
                }
            if not primary_ok and primary_violation is None:
                primary_violation = {
                    "r": _terms_payload(window.series(ring, monoid, r_coeffs)),
                    "x": _terms_payload(window.series(module, monoid, x_coeffs)),
                    "exponent_bound": ring.size,
                }
        if prime_violation is not None and primary_violation is not None:
            break

    details = {
        "base_is_proper": classification.is_proper,
        "base_is_prime": classification.is_prime,
        "base_is_primary": classification.is_primary,
        "prime_transfer_holds": prime_violation is None,
        "primary_transfer_holds": primary_violation is None,
        "expected_prime_violation": None if classification.is_prime else prime_violation,
        "expected_primary_violation": None if classification.is_primary else primary_violation,
    }
    if classification.is_prime and prime_violation is not None:
        return VerificationReport(statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                                  details, counterexample={"clause": "prime_transfer",
                                                           **prime_violation})
    if classification.is_primary and primary_violation is not None:
        return VerificationReport(statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                                  details, counterexample={"clause": "primary_transfer",
                                                           **primary_violation})
    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details,
                              elapsed_ms=(time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# regularity transfer


def verify_regularity_transfer(ring: FiniteRing, module: FiniteModule, monoid: Monoid,
                               window: SupportWindow,
                               budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Three-way agreement for every window f: the content annihilator verdict,
    the window search for an annihilating partner (complete here because a
    constant witness always fits any window), and the public zero-divisor test.

    Instances: |R[S] window| adjudicated series; the budget accounts for the
    inner search, |R[S] window| * |M[S] window| evaluated pairs.
    """
    t0 = time.perf_counter()
    statement = "regularity_transfer"
    if module.is_zero_module:
        raise ZeroModuleError(f"{statement} needs a nonzero module")
    if not same_ring(ring, module.ring):
        raise PreconditionError("module is not over the given ring")
    _require_hypotheses(monoid, statement)
    window.validate_for(monoid)
    config = _config_echo(window=window, budget=budget, ring=ring, module=module,
                          monoid=monoid)
    prop_a = check_property_a(module)

    nf = window.count(ring.size)
    ng = window.count(module.size)
    if nf * ng > budget:
        return _skipped(statement, config, nf * ng, budget, t0)

    prod_exps, pos = _product_layout(monoid, window.exponents)
    n_prod = len(prod_exps)
    n_exp = len(window.exponents)
    act_np = module.action_table
    madd_np = module.add_table
    rzero, mzero = ring.zero, module.zero
    zero_mask = 1 << mzero
    # all window partners at once; each f multiplies against the whole block
    partners = np.array(list(window.iter_coeffs(module.size, mzero)), dtype=np.int64)
    partner_nonzero = (partners != mzero).any(axis=1)

    regular_count = 0
    zig_count = 0
    for f_coeffs in window.iter_coeffs(ring.size, rzero):
        cf = ideal_generated(ring, f_coeffs)
        by_content = annihilator_in_module(cf, module).members != zero_mask
        acc = np.full((n_prod, partners.shape[0]), mzero, dtype=np.int64)
        for i, a in enumerate(f_coeffs):
            if a == rzero:
                continue
            arow = act_np[a]
            for j in range(n_exp):
                k = pos[i][j]
                acc[k] = madd_np[acc[k], arow[partners[:, j]]]
        by_search = bool(((acc == mzero).all(axis=0) & partner_nonzero).any())
        f_series = window.series(ring, monoid, f_coeffs)
        by_operation = is_zero_divisor_series(f_series, module).is_zero_divisor
        if not (by_content == by_search == by_operation):
            return VerificationReport(
                statement, OUTCOME_COUNTEREXAMPLE, nf, config,
                counterexample={
                    "f": _terms_payload(f_series),
                    "content_annihilator": by_content,
                    "window_search": by_search,
                    "zero_divisor_operation": by_operation,
                })
        if by_content:
            zig_count += 1
        else:
            regular_count += 1

    details = {"series_checked": nf, "regular": regular_count,
               "zero_divisors": zig_count, "property_a_ideals": prop_a.checked_ideals}
    return VerificationReport(statement, OUTCOME_PASS, nf, config, details,
                              elapsed_ms=(time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# zero-divisor transfer: very-few, degree-n, primal


def verify_zero_divisor_transfer(ring: FiniteRing, module: FiniteModule, monoid: Monoid,
                                 window: SupportWindow,
                                 budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Window-exhaustive agreement between the zero-divisor test on R[S] series
    and membership in the union of the extended decomposition primes p_i[S];
    extended incomparability is exhibited by constant witnesses; when the module
    has very few zero-divisors each p_i[S] is matched against the annihilator of
    its witness element over the whole window; degree one cross-checks primality.

    Instances: |R[S] window| + n(n-1) incomparability pairs
    + n * |R[S] window| witness checks when the very-few property holds.
    """
    t0 = time.perf_counter()
    statement = "zero_divisor_transfer"
    if module.is_zero_module:
        raise ZeroModuleError(f"{statement} needs a nonzero module")
    if not same_ring(ring, module.ring):
        raise PreconditionError("module is not over the given ring")
    _require_hypotheses(monoid, statement)
    window.validate_for(monoid)
    config = _config_echo(window=window, budget=budget, ring=ring, module=module,
                          monoid=monoid)

    decomp = decompose_zero_divisors(module)
    very_few = has_very_few_zero_divisors(module)
    n = decomp.degree
    nf = window.count(ring.size)
    predicted = nf + n * (n - 1) + (n * nf if very_few.holds else 0)
    if predicted > budget:
        return _skipped(statement, config, predicted, budget, t0)

    zero_mask = 1 << module.zero
    prime_masks = [p.members for p in decomp.primes]
    in_prime = [[bitset.has_bit(mask, x) for x in ring.elements()] for mask in prime_masks]

    for f_coeffs in window.iter_coeffs(ring.size, ring.zero):
        cf = ideal_generated(ring, f_coeffs)
        zd = annihilator_in_module(cf, module).members != zero_mask
        member = any(all(flags[c] for c in f_coeffs) for flags in in_prime)
        if zd != member:
            f_series = window.series(ring, monoid, f_coeffs)
            verdict = is_zero_divisor_series(f_series, module)
            return VerificationReport(
                statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                counterexample={
                    "clause": "membership",
                    "f": _terms_payload(f_series),
                    "is_zero_divisor": verdict.is_zero_divisor,
                    "in_extended_union": member,
                })

    incomparability = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = prime_masks[i] & ~prime_masks[j]
            a = bitset.lowest_bit(diff)
            if a is None:
                return VerificationReport(
                    statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                    counterexample={"clause": "incomparability", "i": i, "j": j})
            const = constant_series(ring, monoid, a)
            if (not extended_ideal_membership(const, ExtendedIdeal(decomp.primes[i], monoid))
                    or extended_ideal_membership(const, ExtendedIdeal(decomp.primes[j], monoid))):
                raise InvariantViolation("incomparability witness failed replay")
            incomparability.append({"i": i, "j": j, "constant_witness": a})

    witness_checks = 0
    if very_few.holds:
        for p, witness, flags in zip(decomp.primes, decomp.witnesses, in_prime):
            kills = [module.act(r, witness) == module.zero for r in ring.elements()]
            for f_coeffs in window.iter_coeffs(ring.size, ring.zero):
                witness_checks += 1
                if all(kills[c] for c in f_coeffs) != all(flags[c] for c in f_coeffs):
                    return VerificationReport(
                        statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                        counterexample={
                            "clause": "extended_annihilator",
                            "prime": list(p.members_tuple()),
                            "witness": witness,
                            "f": _terms_payload(window.series(ring, monoid, f_coeffs)),
                        })

    primal = is_primal(module)
    if primal.is_primal != (n == 1):
        return VerificationReport(
            statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
            counterexample={"clause": "primal_cross_check", "degree": n,
                            "is_primal": primal.is_primal})

    details = {
        "degree": n,
        "primes": [list(p.members_tuple()) for p in decomp.primes],
        "very_few": very_few.holds,
        "primal": primal.is_primal,
        "incomparability_witnesses": incomparability,
        "window_series": nf,
        "witness_checks": witness_checks,
    }
    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details,
                              elapsed_ms=(time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# implication chain on finite rings


def verify_finite_ring_chain(ring: FiniteRing) -> VerificationReport:
    """On a finite ring (always Noetherian) confirm the implications: the ring
    as a module over itself has very few zero-divisors and admits the
    incomparable prime decomposition. The non-reversibility half needs infinite
    rings and is reported as out of scope, not tested.
    """
    t0 = time.perf_counter()
    statement = "finite_ring_chain"
    config = _config_echo(ring=ring)
    module = ring_as_module(ring)
    if module.is_zero_module:
        raise ZeroModuleError(f"{statement} needs a nonzero ring")
    very_few = has_very_few_zero_divisors(module)
    decomp = decompose_zero_divisors(module)
    if not very_few.holds:
        return VerificationReport(
            statement, OUTCOME_COUNTEREXAMPLE, 2, config,
            counterexample={"clause": "very_few", "uncovered": very_few.uncovered})
    details = {
        "very_few": True,
        "degree": decomp.degree,
        "primes": [list(p.members_tuple()) for p in decomp.primes],
        "non_reversibility": "out of scope (needs infinite rings)",
    }
    return VerificationReport(statement, OUTCOME_PASS, 2, config, details,
                              elapsed_ms=(time.perf_counter() - t0) * 1000.0)
