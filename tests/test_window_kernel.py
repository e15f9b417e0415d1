"""The window kernel of the verifiers against the code it replaced.

The oracles below are the superseded paths, kept as independent references:
the filtered itertools.product enumeration of window tuples, the per-pair
pure-Python convolution, the content-annihilator verdict taken by closing
the content ideal c(f) and annihilating it, and the per-pair loop of
mccoy_equivalence, which closed c(fg) and probed the Dedekind-Mertens memo
once per pair and replayed mccoy_witness on every vanishing pair, the block
walk of mccoy_equivalence over every window pair, the search
of regularity_transfer for an annihilating partner among all window tuples,
the closure of each row's content, and the per-row scans of
domain_prime_extension and submodule_transfer, which multiplied one left
tuple at a time and walked the window once for the domain clause and once
more for each prime. The library now enumerates only supported tuples,
multiplies a block of left tuples against every right-hand tuple at once,
reads Ann_M(c(f)) as the intersection of the Ann_M(a) over the coefficients
a of f, reads c(f) off a step table of content ids, looks up each distinct
Dedekind-Mertens instance of a block once, computes one McCoy witness per
content pair (c(f), c(g)), calls is_zero_divisor_series once per content in
regularity_transfer, searches partners only among the window tuples over the
socles (0 :_M p) of the associated primes p, once per residue class of f
modulo p[S] (the full-window search checks the verdict of every row).
mccoy_equivalence,
domain_prime_extension and submodule_transfer multiply one pair per orbit of
the unit group R^× × R^× and read every clause off it, and the orbits are
checked against the images u·x of every tuple x.
"""

import functools
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sgmod.finite_algebra as finite_algebra
import sgmod.verify as verify_mod
from sgmod import (
    FiniteRing,
    InvariantViolation,
    SupportWindow,
    annihilator_in_module,
    bitset,
    build_truncated_poly_ring,
    build_zmod,
    direct_sum,
    free_monoid,
    ideal_action_submodule,
    ideal_generated,
    is_zero_divisor_series,
    mccoy_witness,
    module_from_tables,
    quotient_module,
    quotient_ring,
    ring_as_module,
    submodule_generated,
    verify_domain_prime_extension,
    verify_mccoy_equivalence,
    verify_regularity_transfer,
    verify_submodule_transfer,
    verify_zero_divisor_transfer,
)
from sgmod.finite_algebra import SubmoduleLattice
from sgmod.series import DMResult, _dm_search
from sgmod.verify import (
    _block_product,
    _content_annihilates,
    _product_layout,
    _residue_classes,
    _socle_partner_search,
)
from sgmod.window import _window_orbits

from closure_oracles import oracle_closure

NAT = free_monoid(1)
NAT2 = free_monoid(2)

WINDOWS_N = [
    SupportWindow(((0,), (1,))),
    SupportWindow(((0,), (1,), (2,)), max_support=1),
    SupportWindow(((0,), (2,), (5,)), max_support=2),
]
WINDOWS_N2 = [
    SupportWindow(((0, 0), (1, 0), (0, 1))),
    SupportWindow(((0, 0), (1, 0), (0, 1), (1, 1)), max_support=1),
]


# ---------------------------------------------------------------------------
# oracles: the superseded code paths


def enumeration_oracle(window, size, zero):
    """Every tuple of the full product, filtered by max_support."""
    cap = window.max_support
    return [t for t in itertools.product(range(size), repeat=len(window.exponents))
            if cap is None or sum(1 for c in t if c != zero) <= cap]


def convolution_oracle(f, g, layout, rows, add_rows, left_zero, zero):
    """Product coefficients of one pair, one term at a time."""
    n_prod, pos = layout
    acc = [zero] * n_prod
    for i, a in enumerate(f):
        if a == left_zero:
            continue
        for j, b in enumerate(g):
            if b == zero:
                continue
            k = pos[i][j]
            acc[k] = add_rows[acc[k]][rows[a][b]]
    return acc


def content_oracle(ring, module, f):
    """Ann_M(c(f)) != 0, with c(f) closed as an ideal first."""
    ann = annihilator_in_module(ideal_generated(ring, f), module)
    return ann.members != 1 << module.zero


def mccoy_oracle(ring, module, monoid, window, dm_search=_dm_search, content=None):
    """The per-pair loop of mccoy_equivalence on the good branch.

    Returns the counterexample (or None) and the details it would report,
    the (f, m) replay of every vanishing pair before the report, with m the
    McCoy witness of the pair, and the Dedekind-Mertens instances
    (c(f), c(g), c(fg), cap) it looked up, as member masks.
    """
    if content is None:
        content = lambda f: content_oracle(ring, module, f)  # noqa: E731
    layout = _product_layout(monoid, window.exponents)
    act_rows, add_rows = module.action_table.tolist(), module.add_table.tolist()
    # the enumeration has its own oracle above; the full product is too large here
    g_list = window.coeff_array(module.size, module.zero).tolist()
    dm_memo: dict = {}
    replays = []
    max_k = 0

    def terms(space, coeffs):
        return verify_mod._terms_payload(window.series(space, monoid, coeffs))

    def done(counterexample, details=None):
        return counterexample, details, replays, set(dm_memo)

    f_list = window.coeff_array(ring.size, ring.zero).tolist()
    for f in f_list:
        cf = ideal_generated(ring, f)
        killed = False
        for g in g_list:
            fg = convolution_oracle(f, g, layout, act_rows, add_rows, ring.zero, module.zero)
            cap = sum(1 for c in g if c != module.zero) + 1
            key = (cf.members, submodule_generated(module, g).members,
                   submodule_generated(module, fg).members, cap)
            if key not in dm_memo:
                dm_memo[key] = dm_search(cf, submodule_generated(module, g),
                                         submodule_generated(module, fg), cap).k_min
            if dm_memo[key] is None:
                return done({"clause": "dedekind_mertens", "f": terms(ring, f),
                             "g": terms(module, g), "reason": f"no exponent within cap {cap}"})
            max_k = max(max_k, dm_memo[key])
            if any(c != module.zero for c in g) and all(c == module.zero for c in fg):
                killed = True
                m = mccoy_witness(window.series(ring, monoid, f),
                                  window.series(module, monoid, g))
                replays.append((tuple(f), m))
        if killed != content(f):
            return done({"clause": "content_annihilator", "f": terms(ring, f),
                         "annihilator_nonzero": content(f), "window_partner_found": killed})
    return done(None, {"branch": "hypotheses_hold", "pairs": len(f_list) * len(g_list),
                       "max_dm_exponent": max_k, "zero_product_pairs": len(replays),
                       "mccoy_witnesses_verified": len(replays),
                       "content_criterion_series": len(f_list)})


def _report(statement, predicted, config, details, counterexample):
    outcome = "pass" if counterexample is None else "counterexample"
    return verify_mod.VerificationReport(statement, outcome, predicted, config, details,
                                         counterexample).to_payload()


def mccoy_block_oracle(ring, module, monoid, window, budget):
    """The block walk of mccoy_equivalence on the good branch over every
    window pair: left rows in blocks against all right-hand tuples, one
    Dedekind-Mertens search per distinct instance code of a block, and one
    McCoy witness per content pair of a block, replayed on each vanishing
    pair before the report. Returns the report payload."""
    v = verify_mod
    statement = "mccoy_equivalence"
    config = v._config_echo(window=window, budget=budget, ring=ring, module=module,
                            monoid=monoid)
    predicted = window.count(ring.size) * window.count(module.size)
    layout = _product_layout(monoid, window.exponents)
    mzero = module.zero
    f_arr = window.coeff_array(ring.size, ring.zero)
    g_arr = window.coeff_array(module.size, mzero)
    g_nonzero = (g_arr != mzero).any(axis=1)
    ann_nonzero = _content_annihilates(module, f_arr)
    ideals = finite_algebra.submodule_lattice(ring)
    subs = finite_algebra.submodule_lattice(module)
    g_cap = (g_arr != mzero).sum(axis=1) + 1
    g_cg = subs.ids(g_arr)
    n_g = len(g_arr)

    @functools.cache
    def k_min(cf_id, cg_id, cfg_id, cap):
        return _dm_search(ideals.objects[cf_id], subs.objects[cg_id], subs.objects[cfg_id],
                          cap).k_min or 0

    def terms(space, coeffs):
        return v._terms_payload(window.series(space, monoid, coeffs))

    zero_product_pairs = 0
    max_k = 0
    for rows in v._left_blocks(f_arr, g_arr):
        f_block = f_arr[rows]
        cf = ideals.ids(f_block)
        block = _block_product(f_block, module.action_table, module.add_table, g_arr, layout)
        cfg = subs.ids(block.reshape(layout[0], -1).T).reshape(len(f_block), n_g)
        dims = (len(ideals.objects), len(subs.objects), len(subs.objects),
                len(window.exponents) + 2)
        codes = np.ravel_multi_index((cf[:, None], g_cg, cfg, g_cap), dims).ravel()
        distinct, inverse = np.unique(codes, return_inverse=True)
        instances = zip(*(a.tolist() for a in np.unravel_index(distinct, dims)))
        k_of = np.array([k_min(*key) for key in instances], dtype=np.int64)
        k_block = k_of[inverse].reshape(len(f_block), n_g)
        dm_fails = k_block == 0
        end = np.where(dm_fails.any(axis=1), dm_fails.argmax(axis=1), n_g)
        replay = ((block == mzero).all(axis=0) & g_nonzero
                  & (np.arange(n_g) < end[:, None]))
        killed = replay.any(axis=1)
        bad = np.flatnonzero((end < n_g) | (killed != ann_nonzero[rows]))
        last = int(bad[0]) if bad.size else len(f_block) - 1
        pair_rows, pair_cols = np.nonzero(replay[:last + 1])
        if pair_rows.size:
            pair_codes = np.ravel_multi_index((cf[pair_rows], g_cg[pair_cols]), dims[:2])
            witness_codes, witness_of = np.unique(pair_codes, return_inverse=True)
            cf_ids, cg_ids = np.unravel_index(witness_codes, dims[:2])
            witnesses = np.array([v.content_mccoy_witness(ideals.objects[i], subs.objects[j])
                                  for i, j in zip(cf_ids.tolist(), cg_ids.tolist())],
                                 dtype=np.intp)
            v._replay_mccoy_witnesses(module, f_block[pair_rows], witnesses[witness_of])
            zero_product_pairs += len(pair_rows)
        if bad.size:
            f_coeffs = f_block[last].tolist()
            if end[last] < n_g:
                gi = int(end[last])
                return _report(statement, predicted, config, {}, {
                    "clause": "dedekind_mertens", "f": terms(ring, f_coeffs),
                    "g": terms(module, g_arr[gi].tolist()),
                    "reason": f"no exponent within cap {int(g_cap[gi])}"})
            return _report(statement, predicted, config, {}, {
                "clause": "content_annihilator", "f": terms(ring, f_coeffs),
                "annihilator_nonzero": bool(ann_nonzero[rows][last]),
                "window_partner_found": bool(killed[last])})
        max_k = max(max_k, int(k_block.max()))
    return _report(statement, predicted, config, {
        "branch": "hypotheses_hold", "pairs": predicted, "max_dm_exponent": max_k,
        "zero_product_pairs": zero_product_pairs,
        "mccoy_witnesses_verified": zero_product_pairs,
        "content_criterion_series": len(f_arr)}, None)


def domain_prime_oracle(ring, module, monoid, window):
    """The per-row domain_prime_extension: one product per left tuple, the
    domain clause walked over the whole window first, then each prime on a
    walk of its own. Returns the report payload (within the budget)."""
    v = verify_mod
    statement = "domain_prime_extension"
    config = v._config_echo(window=window, budget=v.DEFAULT_BUDGET, ring=ring, module=module,
                            monoid=monoid)
    nf = window.count(ring.size)
    primes = v.prime_ideals(ring)
    is_domain = (not ring.is_zero_ring
                 and v.zero_divisor_set(ring_as_module(ring)) == (1 << ring.zero))
    ass = v.associated_primes(module) if module is not None and not module.is_zero_module else []
    clause1 = (nf - 1) ** 2 if is_domain else 1
    predicted = clause1 + len(primes) * nf * nf + len(ass) * nf
    layout = _product_layout(monoid, window.exponents)
    rzero = ring.zero
    f_arr = window.coeff_array(ring.size, rzero)
    f_list = f_arr.tolist()

    def times_window(fi):
        return _block_product(f_arr[fi:fi + 1], ring.mul_table, ring.add_table, f_arr,
                              layout)[:, 0]

    def counterexample(found):
        return _report(statement, predicted, config, {}, found)

    details = {"ring_is_domain": is_domain, "primes_checked": len(primes),
               "associated_primes_checked": len(ass)}
    if is_domain:
        nonzero = (f_arr != rzero).any(axis=1)
        for fi in np.flatnonzero(nonzero):
            hits = np.flatnonzero((times_window(fi) == rzero).all(axis=0) & nonzero)
            if hits.size:
                return counterexample({
                    "clause": "domain_transfer",
                    "f": _terms_in(window, ring, monoid, f_list[fi]),
                    "g": _terms_in(window, ring, monoid, f_list[hits[0]])})
        details["domain_pairs"] = clause1
    else:
        a, b = finite_algebra.is_prime_ideal(ideal_generated(ring, ()))[1] or (None, None)
        details["non_domain_witness"] = None if a is None else [a, b]
    for p in primes:
        in_p = v.bitset.bools_from_mask(p.members, ring.size)
        outside = ~in_p[f_arr].all(axis=1)
        for fi in np.flatnonzero(outside):
            hits = np.flatnonzero(in_p[times_window(fi)].all(axis=0) & outside)
            if hits.size:
                return counterexample({
                    "clause": "extended_prime", "prime": list(p.members_tuple()),
                    "f": _terms_in(window, ring, monoid, f_list[fi]),
                    "g": _terms_in(window, ring, monoid, f_list[hits[0]])})
    found = v._extended_annihilator_violation(ring, module, monoid, window, f_arr, ass,
                                              "extended_associated_prime")
    if found is not None:
        return counterexample(found)
    return _report(statement, predicted, config, details, None)


def submodule_transfer_oracle(module, sub, monoid, window):
    """The per-row submodule_transfer: one product per left tuple r, and the
    prime and primary facts of c(r) read by closing c(r) and its powers.
    Returns the report payload (within the budget)."""
    v = verify_mod
    ring = module.ring
    config = v._config_echo(window=window, budget=v.DEFAULT_BUDGET, module=module,
                            monoid=monoid)
    config["submodule"] = list(sub.members_tuple())
    classification = v.classify_submodule(module, sub)
    layout = _product_layout(monoid, window.exponents)
    in_p = v.bitset.bools_from_mask(sub.members, module.size)
    full = finite_algebra.Submodule(module, module.full_mask)

    def inside(ideal):
        return v.bitset.is_subset(ideal_action_submodule(ideal, full).members, sub.members)

    def facts_for(r):
        cr = ideal_generated(ring, r)
        powers = [cr]
        while len(powers) == 1 or powers[-1].members != powers[-2].members:
            powers.append(finite_algebra.ideal_product(powers[-1], cr))
        return inside(cr), any(inside(q) for q in powers)

    prime_violation = primary_violation = None
    x_arr = window.coeff_array(module.size, module.zero)
    x_outside = ~in_p[x_arr].all(axis=1)
    r_arr = window.coeff_array(ring.size, ring.zero)
    for ri, r in enumerate(r_arr.tolist()):
        block = _block_product(r_arr[ri:ri + 1], module.action_table, module.add_table, x_arr,
                               layout)[:, 0]
        hits = np.flatnonzero(in_p[block].all(axis=0) & x_outside)
        if not hits.size:
            continue
        pair = {"r": _terms_in(window, ring, monoid, r),
                "x": _terms_in(window, module, monoid, x_arr[hits[0]].tolist())}
        prime_ok, primary_ok = facts_for(r)
        if not prime_ok and prime_violation is None:
            prime_violation = pair
        if not primary_ok and primary_violation is None:
            primary_violation = {**pair, "exponent_bound": ring.size}
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
    counterexample = None
    if classification.is_prime and prime_violation is not None:
        counterexample = {"clause": "prime_transfer", **prime_violation}
    elif classification.is_primary and primary_violation is not None:
        counterexample = {"clause": "primary_transfer", **primary_violation}
    return _report("submodule_transfer", window.count(ring.size) * len(x_arr), config,
                   details, counterexample)


def _terms_in(window, space, monoid, coeffs):
    return verify_mod._terms_payload(window.series(space, monoid, coeffs))


def relabeled_zmod(n, shift):
    """Z/n with index i standing for the residue (i + shift) mod n, so the
    zero is not index 0."""
    idx = range(n)

    def index(v):
        return (v - shift) % n

    add = [[index(a + b + 2 * shift) for b in idx] for a in idx]
    mul = [[index((a + shift) * (b + shift)) for b in idx] for a in idx]
    return FiniteRing(add, mul, index(0), index(1), label=f"Z/{n} shifted")


def shifted_z3_over_z6(z6):
    """Z/3 as a Z/6-module from explicit tables, index i standing for the
    residue (i + 1) mod 3, so the zero is index 2."""
    idx = range(3)
    add = [[(a + b + 1) % 3 for b in idx] for a in idx]
    act = [[(r * (x + 1) - 1) % 3 for x in idx] for r in range(6)]
    return module_from_tables(z6, add, act, 2, label="Z/3 tables")


def non_gaussian_ring():
    """F2[a,b]/(a^2, b^2), 16 elements; a is index 2 and b index 4 of both
    F2[a,b]/m^3 and the quotient. f = g = a + bX has fg = 0, but
    c(f) c(g) = (ab) is not zero, so the McCoy chain of the pair has two
    nonzero levels."""
    t = build_truncated_poly_ring(2, 2, 3)
    a_squared, b_squared = 8, 32
    return quotient_ring(t, ideal_generated(t, [a_squared, b_squared]))


def _cases():
    cases = [(f"Z/{n}", build_zmod(n), None) for n in range(2, 13)]
    cases.append(("Z/6 shifted", relabeled_zmod(6, 2), None))
    cases.append(("F2[a,b]/m^3", build_truncated_poly_ring(2, 2, 3), None))
    z12 = build_zmod(12)
    cases.append(("Z/12 (+) Z/12", z12, direct_sum(ring_as_module(z12), ring_as_module(z12))))
    z4 = build_zmod(4)
    m4 = ring_as_module(z4)
    z2_over_z4 = quotient_module(m4, submodule_generated(m4, [2]))
    cases.append(("Z/4 (+) Z/2", z4, direct_sum(m4, z2_over_z4)))
    z6 = build_zmod(6)
    m66 = direct_sum(ring_as_module(z6), ring_as_module(z6))
    # (Z/6 (+) Z/6) / <(2, 0)> is Z/2 (+) Z/6: associated primes (2) and (3)
    cases.append(("(Z/6 (+) Z/6)/<(2,0)>", z6,
                  quotient_module(m66, submodule_generated(m66, [2 * 6]))))
    cases.append(("Z/3 tables over Z/6", z6, shifted_z3_over_z6(z6)))
    cases.append(("F2[a,b]/(a^2,b^2)", non_gaussian_ring(), None))
    return [(label, ring, module if module is not None else ring_as_module(ring))
            for label, ring, module in cases]


CASES = _cases()
CASE_IDS = [label for label, _, _ in CASES]


def _windows_up_to(size, limit):
    """The windows of the parametrization with at most limit tuples over size."""
    windows = [(NAT, w) for w in WINDOWS_N] + [(NAT2, w) for w in WINDOWS_N2]
    return [(m, w) for m, w in windows if w.count(size) <= limit]


# ---------------------------------------------------------------------------
# enumeration

# the oracle walks the full product, so only sizes where that stays small
ENUMERATION_CASES = [(size, window) for size in [*range(1, 13), 64, 144]
                     for window in WINDOWS_N + WINDOWS_N2
                     if size ** len(window.exponents) <= 50_000]


@pytest.mark.parametrize("size,window", ENUMERATION_CASES)
def test_enumeration_matches_filtered_product(size, window):
    for zero in sorted({0, size // 2, size - 1}):
        got = window.coeff_array(size, zero)
        assert [tuple(r) for r in got.tolist()] == enumeration_oracle(window, size, zero)
        assert len(got) == window.count(size)


def test_wide_sparse_window_enumerates_only_supported_tuples():
    # the full product has 2^40 tuples; the supported ones number 41
    window = SupportWindow(tuple((i,) for i in range(40)), max_support=1)
    got = window.coeff_array(2, 0).tolist()
    assert window.count(2) == len(got) == 41
    expected = [[0] * 40] + [[0] * i + [1] + [0] * (39 - i) for i in range(39, -1, -1)]
    assert got == expected


# ---------------------------------------------------------------------------
# block product


@pytest.mark.parametrize("label,ring,module", CASES, ids=CASE_IDS)
def test_block_product_matches_pairwise_loop(label, ring, module):
    act_rows, add_rows = module.action_table.tolist(), module.add_table.tolist()
    for monoid, window in _windows_up_to(module.size, 25_000):
        layout = _product_layout(monoid, window.exponents)
        f_arr = window.coeff_array(ring.size, ring.zero)
        g_arr = window.coeff_array(module.size, module.zero)
        g_list = g_arr.tolist()
        # about 50k oracle pairs: evenly spaced left tuples against every g,
        # multiplied in blocks of one to three rows
        step = max(1, len(f_arr) * len(g_arr) // 50_000)
        sample = f_arr[::step]
        start, height = 0, 1
        while start < len(sample):
            rows = sample[start:start + height]
            block = _block_product(rows, module.action_table, module.add_table, g_arr, layout)
            assert block.shape == (layout[0], len(rows), len(g_arr))
            for a, f in enumerate(rows.tolist()):
                expected = [convolution_oracle(f, g, layout, act_rows, add_rows, ring.zero,
                                               module.zero) for g in g_list]
                assert block[:, a].T.tolist() == expected
            start, height = start + height, height % 3 + 1


@pytest.mark.parametrize("label,ring,module", CASES, ids=CASE_IDS)
def test_block_product_narrow_right_matches_pairwise_loop(label, ring, module):
    # fewer than |M| / E right-hand tuples: the terms are gathered cell by
    # cell from the table, not from whole rows
    act_rows, add_rows = module.action_table.tolist(), module.add_table.tolist()
    checked = 0
    for monoid, window in _windows_up_to(module.size, 25_000):
        e_count = len(window.exponents)
        n_right = (module.size - 1) // e_count
        if not n_right:
            continue
        layout = _product_layout(monoid, window.exponents)
        f_arr = window.coeff_array(ring.size, ring.zero)
        g_arr = window.coeff_array(module.size, module.zero)
        right = g_arr[np.linspace(0, len(g_arr) - 1, n_right).astype(int)]
        rows = f_arr[::max(1, len(f_arr) // 200)]
        block = _block_product(rows, module.action_table, module.add_table, right, layout)
        assert block.shape == (layout[0], len(rows), len(right)) and block.dtype == np.intp
        for a, f in enumerate(rows.tolist()):
            expected = [convolution_oracle(f, g, layout, act_rows, add_rows, ring.zero,
                                           module.zero) for g in right.tolist()]
            assert block[:, a].T.tolist() == expected
        checked += 1
    assert checked or module.size <= 2


def test_block_product_on_ring_tables():
    ring = relabeled_zmod(6, 2)
    window = WINDOWS_N[2]
    layout = _product_layout(NAT, window.exponents)
    f_arr = window.coeff_array(ring.size, ring.zero)
    mul_rows, add_rows = ring.mul_table.tolist(), ring.add_table.tolist()
    # the whole window as one left block
    block = _block_product(f_arr, ring.mul_table, ring.add_table, f_arr, layout)
    for a, f in enumerate(f_arr.tolist()):
        expected = [convolution_oracle(f, g, layout, mul_rows, add_rows, ring.zero, ring.zero)
                    for g in f_arr.tolist()]
        assert block[:, a].T.tolist() == expected


# ---------------------------------------------------------------------------
# content annihilator


@pytest.mark.parametrize("label,ring,module", CASES, ids=CASE_IDS)
def test_content_annihilator_matches_ideal_closure(label, ring, module):
    for _, window in _windows_up_to(ring.size, 5000):
        f_arr = window.coeff_array(ring.size, ring.zero)
        got = _content_annihilates(module, f_arr).tolist()
        assert got == [content_oracle(ring, module, f) for f in f_arr.tolist()]


@pytest.mark.parametrize("label,ring,module", CASES, ids=CASE_IDS)
def test_zero_divisor_series_annihilator_matches_ideal_closure(label, ring, module):
    window = WINDOWS_N[0]
    for f in window.coeff_array(ring.size, ring.zero)[::7].tolist():
        verdict = is_zero_divisor_series(window.series(ring, NAT, f), module)
        closed = annihilator_in_module(ideal_generated(ring, f), module)
        assert verdict.annihilator.members == closed.members
        assert verdict.is_zero_divisor == content_oracle(ring, module, f)


# ---------------------------------------------------------------------------
# content lattice: step-table ids against the fixpoint closure


@functools.cache
def _closed(module, gens):
    return oracle_closure(module, gens)


def _lattice_rows(lattice, coeffs, seen):
    """Check the ids of coeffs against closing each row's generator set with
    the fixpoint oracle, and collect every (id, members) pair in seen."""
    ids = lattice.ids(coeffs).tolist()
    members = [_closed(lattice.module, frozenset(row)) for row in coeffs.tolist()]
    assert [lattice.objects[i].members for i in ids] == members
    seen.update(zip(ids, members))


def z2_power(k):
    """(Z/2)^k over Z/2: every nonzero element spans its own line, so the
    contents of two-position tuples outnumber the principal ones."""
    z2 = build_zmod(2)
    return z2, functools.reduce(direct_sum, [ring_as_module(z2)] * k)


# (Z/2)^5 has 32 cyclic contents, zero and 31 lines, and the one join of its
# first two-position window meets 187 contents
LATTICE_CASES = CASES + [("(Z/2)^5", *z2_power(5))]


@pytest.mark.parametrize("label,ring,module", LATTICE_CASES,
                         ids=[label for label, _, _ in LATTICE_CASES])
def test_content_lattice_matches_per_row_closure(label, ring, module):
    # window tuples over ring and module, then the product columns of one
    # block: fresh lattices keep their ids across all of these calls
    ideals = SubmoduleLattice(ring_as_module(ring))
    subs = SubmoduleLattice(module)
    ideal_ids, sub_ids = set(), set()
    for _, window in _windows_up_to(ring.size, 5000):
        _lattice_rows(ideals, window.coeff_array(ring.size, ring.zero), ideal_ids)
    for _, window in _windows_up_to(module.size, 5000):
        _lattice_rows(subs, window.coeff_array(module.size, module.zero), sub_ids)
    window = WINDOWS_N[0]
    layout = _product_layout(NAT, window.exponents)
    f_arr = window.coeff_array(ring.size, ring.zero)
    g_arr = window.coeff_array(module.size, module.zero)
    # left rows from the middle of the window on, about 10k pairs
    rows = np.linspace(len(f_arr) // 2, len(f_arr) - 1, max(1, 10_000 // len(g_arr)))
    block = _block_product(f_arr[rows.astype(int)], module.action_table, module.add_table,
                           g_arr, layout)
    _lattice_rows(subs, block.reshape(layout[0], -1).T, sub_ids)
    # equal ids exactly when the members are equal
    for seen in (ideal_ids, sub_ids):
        assert len(seen) == len({i for i, _ in seen}) == len({m for _, m in seen})


def test_content_lattice_grows_its_step_table_inside_one_join():
    _, module = z2_power(5)
    subs = SubmoduleLattice(module)
    g_arr = WINDOWS_N[0].coeff_array(module.size, module.zero)
    # the zero submodule and the 31 lines outgrow the 16 rows of a new table once
    subs.ids(g_arr[:, :1])
    assert len(subs.objects) == 32
    assert len(subs.step) == 32
    # one join meets the 155 planes, past the 32 rows the table had when it
    # began; test_content_lattice_matches_per_row_closure checks the ids of
    # this call
    subs.ids(g_arr)
    assert len(subs.objects) == 187
    assert len(subs.step) == 256


def test_content_lattice_ids_depend_only_on_the_input():
    # the same calls on two fresh lattices give the same ids and contents
    ring = build_truncated_poly_ring(2, 2, 3)
    module = ring_as_module(ring)
    window = WINDOWS_N[0]
    layout = _product_layout(NAT, window.exponents)
    f_arr = window.coeff_array(ring.size, ring.zero)
    g_arr = window.coeff_array(module.size, module.zero)
    block = _block_product(f_arr[1000:1003], module.action_table, module.add_table,
                           g_arr, layout)
    runs = []
    for _ in range(2):
        subs = SubmoduleLattice(module)
        ids = [subs.ids(g_arr).tolist(), subs.ids(block.reshape(layout[0], -1).T).tolist()]
        runs.append((ids, [content.members for content in subs.objects]))
    assert runs[0] == runs[1]


def test_content_lattice_memo_holds_only_the_pairs_met(monkeypatch):
    # (Z/2)^8 over Z/2 with the window {0, 1}: 262,144 pairs, and the
    # submodule contents are the 11,051 spans of at most two vectors. A table
    # over all id pairs would hold 11,051^2 cells; the step table holds one
    # row of |M| cells per id, at most twice the ids, and fills only the
    # (id, element) cells its callers asked for, plus the cell (0, a) of
    # R·a that a join with a needs.
    z2, module = z2_power(8)
    lattices = []

    class Recording(SubmoduleLattice):
        # records the pairs the lattice is asked for from outside; the calls
        # the lattice makes itself run at depth > 0
        def __init__(self, space):
            self.met = set()
            self.depth = 0
            super().__init__(space)
            lattices.append(self)

        def join(self, cid, a):
            if not self.depth:
                self.met.add((cid, a))
            self.depth += 1
            try:
                return super().join(cid, a)
            finally:
                self.depth -= 1

        def join_all(self, acc, elements):
            if not self.depth:
                self.met.update(zip(acc.tolist(), elements.tolist()))
            self.depth += 1
            try:
                return super().join_all(acc, elements)
            finally:
                self.depth -= 1

    monkeypatch.setattr(finite_algebra, "SubmoduleLattice", Recording)
    report = verify_mccoy_equivalence(z2, module, NAT, SupportWindow(((0,), (1,))))
    assert report.outcome == "pass"
    subs = next(lattice for lattice in lattices if lattice.module is module)
    filled = set(zip(*(a.tolist() for a in np.nonzero(subs.step >= 0))))
    assert filled == subs.met | {(0, a) for _, a in subs.met}
    assert len(subs.objects) == 11_051
    assert subs.step.shape[1] == module.size
    assert len(subs.step) <= 2 * len(subs.objects)


# ---------------------------------------------------------------------------
# least witnesses: the first failing pair in the old pair order


def _least_pair(ring, module, window, layout, fails):
    """The first (f, g) in lexicographic pair order whose oracle product fails."""
    act_rows, add_rows = module.action_table.tolist(), module.add_table.tolist()
    g_list = enumeration_oracle(window, module.size, module.zero)
    for f in enumeration_oracle(window, ring.size, ring.zero):
        for g in g_list:
            fg = convolution_oracle(f, g, layout, act_rows, add_rows, ring.zero, module.zero)
            if fails(f, g, fg):
                return f, g
    return None


def _terms(window, space, coeffs):
    return verify_mod._terms_payload(window.series(space, NAT, coeffs))


def test_planted_dm_failure_reports_the_least_pair(monkeypatch):
    # every pair with a vanishing product and a nonzero g is declared a
    # Dedekind-Mertens failure; the report must name the least such pair
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    zero_sub = 1 << m6.zero

    def planted(cf, cg, cfg, cap):
        if cfg.members == zero_sub and cg.members != zero_sub:
            return DMResult(None, (), cap)
        return DMResult(1, (), cap)

    monkeypatch.setattr(verify_mod, "_dm_search", planted)
    report = verify_mccoy_equivalence(z6, m6, NAT, window)
    layout = _product_layout(NAT, window.exponents)
    f, g = _least_pair(z6, m6, window, layout,
                       lambda f, g, fg: all(c == 0 for c in fg) and any(g))
    assert report.outcome == "counterexample"
    assert report.counterexample["clause"] == "dedekind_mertens"
    assert report.counterexample["f"] == _terms(window, z6, f)
    assert report.counterexample["g"] == _terms(window, m6, g)


def test_planted_domain_claim_reports_the_least_pair(monkeypatch):
    # Z/6 declared a domain: the least pair of nonzero series with product 0
    z6 = build_zmod(6)
    window = SupportWindow(((0,), (1,)))
    monkeypatch.setattr(verify_mod, "zero_divisor_set", lambda module: 1 << module.zero)
    report = verify_domain_prime_extension(z6, None, NAT, window)
    layout = _product_layout(NAT, window.exponents)
    f, g = _least_pair(z6, z6, window, layout,
                       lambda f, g, fg: any(f) and any(g) and not any(fg))
    assert report.counterexample == {"clause": "domain_transfer",
                                     "f": _terms(window, z6, f), "g": _terms(window, z6, g)}


def test_submodule_violation_is_the_least_pair():
    z12 = build_zmod(12)
    m12 = ring_as_module(z12)
    sub = submodule_generated(m12, [4])
    window = SupportWindow(((0,), (1,)))
    report = verify_submodule_transfer(m12, sub, NAT, window)
    layout = _product_layout(NAT, window.exponents)

    def moves_m_out_of_p(f):
        cf = ideal_generated(z12, f)
        moved = {m12.act(a, x) for a in cf.members_tuple() for x in range(12)}
        return any(not sub.contains(x) for x in moved)

    f, g = _least_pair(z12, m12, window, layout,
                       lambda f, g, fg: (all(sub.contains(c) for c in fg)
                                         and not all(sub.contains(c) for c in g)
                                         and moves_m_out_of_p(f)))
    violation = report.details["expected_prime_violation"]
    assert violation["r"] == _terms(window, z12, f)
    assert violation["x"] == _terms(window, m12, g)


def test_planted_decomposition_reports_the_least_series(monkeypatch):
    # drop the prime (3) from the decomposition of Z/6: the least window series
    # that is a zero-divisor but not inside (2)[S] must be reported
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    real = verify_mod.decompose_zero_divisors(m6)
    planted = replace(real, primes=real.primes[:1], witnesses=real.witnesses[:1], degree=1)
    monkeypatch.setattr(verify_mod, "decompose_zero_divisors", lambda module: planted)
    report = verify_zero_divisor_transfer(z6, m6, NAT, window)
    in_p = planted.primes[0].contains
    least = next(f for f in enumeration_oracle(window, 6, 0)
                 if content_oracle(z6, m6, f) != all(in_p(c) for c in f))
    assert report.counterexample["clause"] == "membership"
    assert report.counterexample["f"] == _terms(window, z6, least)


@pytest.mark.parametrize("index", [0, 1])
def test_planted_witness_reports_each_extended_annihilator_clause(index, monkeypatch):
    # the associated prime index of Z/6 is given the witness 1, which only 0
    # kills: both verifiers run the same check, each under its own clause
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    real = verify_mod.decompose_zero_divisors(m6)
    witnesses = tuple(1 if i == index else w for i, w in enumerate(real.witnesses))
    planted = replace(real, witnesses=witnesses)
    monkeypatch.setattr(verify_mod, "decompose_zero_divisors", lambda module: planted)
    monkeypatch.setattr(verify_mod, "associated_primes",
                        lambda module: list(zip(planted.primes, planted.witnesses)))
    prime = planted.primes[index]
    least = next(f for f in enumeration_oracle(window, 6, 0)
                 if all(m6.act(c, 1) == 0 for c in f) != all(prime.contains(c) for c in f))
    expected = {"prime": list(prime.members_tuple()), "witness": 1,
                "f": _terms(window, z6, least)}
    for verifier, clause in [(verify_zero_divisor_transfer, "extended_annihilator"),
                             (verify_domain_prime_extension, "extended_associated_prime")]:
        report = verifier(z6, m6, NAT, window)
        assert report.outcome == "counterexample"
        assert report.counterexample == {"clause": clause, **expected}


# ---------------------------------------------------------------------------
# mccoy_equivalence: block-batched lookups against the per-pair loop

# the spanning windows, plus small ones that fit the larger spaces
MCCOY_WINDOWS = ([(NAT, w) for w in WINDOWS_N] + [(NAT2, w) for w in WINDOWS_N2]
                 + [(NAT, SupportWindow(((2,),))),
                    (NAT, SupportWindow(((0,), (3,)), max_support=1)),
                    (NAT2, SupportWindow(((1, 0), (0, 1)), max_support=1))])


def _mccoy_windows(ring, module, limit):
    return [(m, w) for m, w in MCCOY_WINDOWS
            if w.count(ring.size) * w.count(module.size) <= limit]


def _spy(monkeypatch, name):
    """Wrap verify_mod.<name>; the returned list collects the arguments of
    every call."""
    real = getattr(verify_mod, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify_mod, name, spy)
    return calls


def _dm_instances(calls):
    return [(cf.members, cg.members, cfg.members, cap) for cf, cg, cfg, cap in calls]


def _replayed(calls):
    """The (f, m) pairs replayed through _replay_mccoy_witnesses, in order."""
    return [(tuple(f), m) for _, f_rows, ms in calls
            for f, m in zip(f_rows.tolist(), ms.tolist())]


@pytest.mark.parametrize("label,ring,module", CASES, ids=CASE_IDS)
def test_mccoy_matches_per_pair_loop(label, ring, module, monkeypatch):
    windows = _mccoy_windows(ring, module, 25_000)
    assert any(w.max_support is None for _, w in windows)
    assert any(w.max_support is not None for _, w in windows)
    replays = _spy(monkeypatch, "_replay_mccoy_witnesses")
    searches = _spy(monkeypatch, "_dm_search")
    for monoid, window in windows:
        replays.clear()
        searches.clear()
        report = verify_mccoy_equivalence(ring, module, monoid, window)
        counterexample, details, vanishing, instances = mccoy_oracle(ring, module, monoid,
                                                                     window)
        assert counterexample is None
        assert report.outcome == "pass"
        assert report.details == details
        # every vanishing pair replays the witness mccoy_witness gives it;
        # each instance is searched once
        assert _replayed(replays) == vanishing
        searched = _dm_instances(searches)
        assert len(searched) == len(set(searched))
        assert set(searched) == instances


def test_non_gaussian_mccoy_chain_matches_per_pair_loop(monkeypatch):
    # the window {0, 1} holds f = g = a + bX; c(f) kills no nonzero element
    # of c(g), so its witness sits on the second level of the chain
    ring = non_gaussian_ring()
    module = ring_as_module(ring)
    a, b = 2, 4
    assert ring.size == 16 and ring.mul(a, a) == ring.mul(b, b) == ring.zero
    cf = ideal_generated(ring, [a, b])
    assert ideal_action_submodule(cf, submodule_generated(module, [a, b])).members \
        == submodule_generated(module, [ring.mul(a, b)]).members != 1 << module.zero
    window = SupportWindow(((0,), (1,)))
    replays = _spy(monkeypatch, "_replay_mccoy_witnesses")
    report = verify_mccoy_equivalence(ring, module, NAT, window)
    counterexample, details, vanishing, _ = mccoy_oracle(ring, module, NAT, window)
    assert counterexample is None
    assert report.outcome == "pass"
    assert report.details == details
    assert details["max_dm_exponent"] == 2 and details["mccoy_witnesses_verified"] == 1152
    assert _replayed(replays) == vanishing
    assert ((a, b), ring.mul(a, b)) in vanishing


# Z/6 over the window {0, 1, 2} has 216 tuples in 112 unit orbits: one, three
# and five left representatives per block, and the default 36
BLOCK_PAIRS = [1, 2 * 216, 3 * 216 + 1, verify_mod._BLOCK_PAIRS]


def _walk_the_whole_ring(monkeypatch):
    """Keep mccoy_equivalence on the walk of the whole ring. Z/6 and Z/12
    over {0, 1, 2} are wider than one block of orbit pairs and would be
    checked one local factor at a time; the plants and spies below are keyed
    on the ideals and rows of the whole ring, which the factor walks never
    see."""
    monkeypatch.setattr(verify_mod, "_mccoy_equivalence_by_factors", lambda *args: None)


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
def test_planted_dm_failure_in_a_later_block(block_pairs, monkeypatch):
    # pairs with c(f) = (3), a nonzero g and a vanishing product are declared
    # Dedekind-Mertens failures; the least one has f = 3x^2, the fourth row
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    zero_sub = 1 << m6.zero
    three = ideal_generated(z6, [3]).members

    def planted(cf, cg, cfg, cap):
        if cf.members == three and cfg.members == zero_sub and cg.members != zero_sub:
            return DMResult(None, (), cap)
        return DMResult(1, (), cap)

    _walk_the_whole_ring(monkeypatch)
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    counterexample, _, vanishing, _ = mccoy_oracle(z6, m6, NAT, window, dm_search=planted)
    monkeypatch.setattr(verify_mod, "_dm_search", planted)
    replays = _spy(monkeypatch, "_replay_mccoy_witnesses")
    report = verify_mccoy_equivalence(z6, m6, NAT, window)
    layout = _product_layout(NAT, window.exponents)
    f, g = _least_pair(z6, m6, window, layout,
                       lambda f, g, fg: (set(f) - {0} == {3} and not any(fg) and any(g)))
    assert f == (0, 0, 3)
    assert report.outcome == "counterexample"
    assert report.counterexample == counterexample
    assert report.counterexample["f"] == _terms(window, z6, f)
    assert report.counterexample["g"] == _terms(window, m6, g)
    # the vanishing pairs before the failing one all replayed their witnesses,
    # and no pair after it
    assert len(vanishing) > 0
    assert _replayed(replays) == vanishing


@pytest.mark.parametrize("block_rows", [1, 7, verify_mod._BLOCK_ROWS])
def test_replays_in_chunks_match_per_pair_loop(block_rows, monkeypatch):
    # replays go in chunks of f rows; each chunk keeps the pair order, and the
    # chunks together replay every vanishing pair once
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    _, details, vanishing, _ = mccoy_oracle(z6, m6, NAT, window)
    _walk_the_whole_ring(monkeypatch)
    monkeypatch.setattr(verify_mod, "_BLOCK_ROWS", block_rows)
    replays = _spy(monkeypatch, "_replay_mccoy_witnesses")
    report = verify_mccoy_equivalence(z6, m6, NAT, window)
    assert report.details == details
    assert _replayed(replays) == vanishing
    assert len(replays) > 1 or block_rows == verify_mod._BLOCK_ROWS


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
def test_planted_content_failure_in_a_later_block(block_pairs, monkeypatch):
    # series with content (2) are declared to have a zero annihilator; the
    # least one is f = 2x^2, the third row
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    two = ideal_generated(z6, [2]).members

    def planted_content(f):
        return ideal_generated(z6, f).members != two and content_oracle(z6, m6, f)

    def planted(module, coeffs):
        return np.array([planted_content(f) for f in coeffs.tolist()])

    _walk_the_whole_ring(monkeypatch)
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(verify_mod, "_content_annihilates", planted)
    replays = _spy(monkeypatch, "_replay_mccoy_witnesses")
    report = verify_mccoy_equivalence(z6, m6, NAT, window)
    counterexample, _, vanishing, _ = mccoy_oracle(z6, m6, NAT, window,
                                                   content=planted_content)
    least = next(f for f in enumeration_oracle(window, 6, 0)
                 if planted_content(f) != content_oracle(z6, m6, f))
    assert least == (0, 0, 2)
    assert report.counterexample == counterexample
    assert report.counterexample == {"clause": "content_annihilator",
                                     "f": _terms(window, z6, least),
                                     "annihilator_nonzero": False,
                                     "window_partner_found": True}
    assert len(vanishing) > 0
    assert _replayed(replays) == vanishing


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
def test_planted_regularity_failure_in_a_later_block(block_pairs, monkeypatch):
    # the same planted content verdict: the window search of every block must
    # still find the partner of the least disagreeing series, f = 2x^2
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    two = ideal_generated(z6, [2]).members

    def planted(module, coeffs):
        return np.array([ideal_generated(z6, f).members != two and content_oracle(z6, m6, f)
                         for f in coeffs.tolist()])

    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(verify_mod, "_content_annihilates", planted)
    report = verify_regularity_transfer(z6, m6, NAT, window)
    assert report.counterexample == {"f": _terms(window, z6, (0, 0, 2)),
                                     "content_annihilator": False,
                                     "window_search": True,
                                     "zero_divisor_operation": True}


def _window_row(window, series):
    coeffs = dict(series.terms)
    return tuple(coeffs.get(e, series.space.zero) for e in window.exponents)


def _plant_zero_divisor_test(monkeypatch, content_members, change):
    """Pass the verdicts of is_zero_divisor_series on series with the given
    content through change."""
    real = verify_mod.is_zero_divisor_series

    def planted(f, module):
        verdict = real(f, module)
        if ideal_generated(f.space, f.coefficients).members == content_members:
            return change(verdict)
        return verdict

    monkeypatch.setattr(verify_mod, "is_zero_divisor_series", planted)


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
def test_regularity_calls_the_zero_divisor_test_once_per_content(block_pairs, monkeypatch):
    # Z/6 has four ideals, each the content of some window f; each is tested
    # on its least f
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    calls = _spy(monkeypatch, "is_zero_divisor_series")
    report = verify_regularity_transfer(z6, m6, NAT, window)
    least = {}
    for f in enumeration_oracle(window, 6, 0):
        least.setdefault(ideal_generated(z6, f).members, f)
    assert report.outcome == "pass"
    assert len(least) == 4
    assert sorted(_window_row(window, f) for f, _ in calls) == sorted(least.values())


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
def test_regularity_wrong_zero_divisor_witness_fails_replay(block_pairs, monkeypatch):
    # series with content (2) are given the witness 1, which 2 does not kill
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    _plant_zero_divisor_test(monkeypatch, ideal_generated(z6, [2]).members,
                             lambda verdict: replace(verdict, witness=1))
    with pytest.raises(InvariantViolation):
        verify_regularity_transfer(z6, m6, NAT, window)


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
def test_regularity_planted_operation_verdict_reports_the_least_series(block_pairs,
                                                                       monkeypatch):
    # series with content (3) are declared regular by the public test; the
    # least one is f = 3x^2, the fourth row
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    three = ideal_generated(z6, [3]).members
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    _plant_zero_divisor_test(monkeypatch, three,
                             lambda verdict: replace(verdict, is_zero_divisor=False,
                                                     witness=None))
    report = verify_regularity_transfer(z6, m6, NAT, window)
    least = next(f for f in enumeration_oracle(window, 6, 0)
                 if ideal_generated(z6, f).members == three)
    assert least == (0, 0, 3)
    assert report.counterexample == {"f": _terms(window, z6, least),
                                     "content_annihilator": True,
                                     "window_search": True,
                                     "zero_divisor_operation": False}


def test_regularity_skips_contents_past_the_reported_series(monkeypatch):
    # Z/12: series with content (3) are declared regular, so f = 3x^2, the
    # fourth row, is reported; the contents (4) and (6) are first met past
    # it, so the public test is never run on them
    z12 = build_zmod(12)
    m12 = ring_as_module(z12)
    window = SupportWindow(((0,), (1,), (2,)))
    real = verify_mod.is_zero_divisor_series
    three, later = ideal_generated(z12, [3]).members, {ideal_generated(z12, [a]).members
                                                        for a in (4, 6)}

    def planted(f, module):
        content = ideal_generated(f.space, f.coefficients).members
        assert content not in later, "zero-divisor test run past the reported series"
        verdict = real(f, module)
        if content == three:
            return replace(verdict, is_zero_divisor=False, witness=None)
        return verdict

    monkeypatch.setattr(verify_mod, "is_zero_divisor_series", planted)
    report = verify_regularity_transfer(z12, m12, NAT, window)
    assert report.counterexample == {"f": _terms(window, z12, (0, 0, 3)),
                                     "content_annihilator": True,
                                     "window_search": True,
                                     "zero_divisor_operation": False}


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
def test_planted_wrong_witness_fails_replay(block_pairs, monkeypatch):
    # pairs with c(f) = (2) are given the witness 1, which 2 does not kill;
    # f = 2x^2 vanishes against g = 3, so the replay must raise
    z6 = build_zmod(6)
    m6 = ring_as_module(z6)
    window = SupportWindow(((0,), (1,), (2,)))
    two = ideal_generated(z6, [2]).members
    real = verify_mod.content_mccoy_witness

    def planted(cf, cg):
        return 1 if cf.members == two else real(cf, cg)

    _walk_the_whole_ring(monkeypatch)
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(verify_mod, "content_mccoy_witness", planted)
    with pytest.raises(InvariantViolation, match="McCoy witness failed replay"):
        verify_mccoy_equivalence(z6, m6, NAT, window)


# ---------------------------------------------------------------------------
# mccoy_equivalence: the walk on unit-orbit representatives against the
# block walk over every pair, and the orbits against the images u·x

# every space of CASES once, rings and modules; a ring is its own module
ORBIT_SPACES = list({id(space): (f"{label} {side}", space)
                     for label, ring, module in CASES
                     for side, space in (("ring", ring), ("module", module))}.values())
# the most window tuples whose unit images the test takes one at a time
ORBIT_TUPLES = 25_000


def _assert_orbits_are_unit_images(space, window, unit_list):
    """The orbits of the window tuples against the least row of the images
    u·x over every unit u, taken one tuple and one unit at a time."""
    orbits = _window_orbits(space, window)
    tuples = [tuple(t) for t in orbits.coeffs.tolist()]
    assert tuples == [tuple(t) for t in window.coeff_array(space.size, space.zero).tolist()]
    act_rows = space.action_table.tolist()
    row_of = {t: i for i, t in enumerate(tuples)}
    least = [min(row_of[tuple(act_rows[u][c] for c in t)] for u in unit_list) for t in tuples]
    reps = sorted(set(least))
    assert orbits.reps.tolist() == reps
    assert orbits.reps[orbits.orbit].tolist() == least
    assert int(orbits.sizes.sum()) == window.count(space.size)
    rows_of: dict = {}
    for i, rep in enumerate(least):
        rows_of.setdefault(rep, []).append(i)
    for k, rep in enumerate(reps):
        start, size = int(orbits.starts[k]), int(orbits.sizes[k])
        assert orbits.members[start:start + size].tolist() == rows_of[rep]


def _units_oracle(ring):
    return [u for u in ring.elements() if any(ring.mul(u, v) == ring.one for v in ring.elements())]


@pytest.mark.parametrize("label,space", ORBIT_SPACES, ids=[label for label, _ in ORBIT_SPACES])
def test_window_orbits_match_unit_images(label, space):
    unit_list = _units_oracle(space.ring)
    assert finite_algebra.units(space.ring).tolist() == unit_list
    windows = [w for _, w in MCCOY_WINDOWS if w.count(space.size) <= ORBIT_TUPLES]
    assert any(w.max_support is not None for w in windows)
    for window in windows:
        _assert_orbits_are_unit_images(space, window, unit_list)


def test_window_orbits_are_kept_per_exponent_count_and_cap():
    # the exponent values do not enter, and a cap of at least E is no cap
    z6 = build_zmod(6)
    orbits = _window_orbits(z6, SupportWindow(((0,), (1,))))
    assert _window_orbits(ring_as_module(z6), SupportWindow(((3,), (7,)), max_support=2)) \
        is orbits
    assert _window_orbits(z6, SupportWindow(((0,), (1,)), max_support=1)) is not orbits


@pytest.mark.parametrize("ring,window,whole", [
    (build_zmod(12), SupportWindow(((0,), (1,), (2,))), True),
    (build_zmod(12), SupportWindow(((0,), (1,), (2,))), False),
    (build_truncated_poly_ring(2, 2, 3), SupportWindow(((0,), (1,))), True),
], ids=["Z/12 {0,1,2}", "Z/12 {0,1,2} by local factors", "F2[a,b]/m^3 {0,1}"])
def test_mccoy_orbit_walk_matches_block_walk(ring, window, whole, monkeypatch):
    if whole:
        _walk_the_whole_ring(monkeypatch)
    walks = _spy(monkeypatch, "_mccoy_equivalence_good")
    module = ring_as_module(ring)
    report = verify_mccoy_equivalence(ring, module, NAT, window, budget=10 ** 9)
    assert report.outcome == "pass"
    assert [args[0] is ring for args in walks] == ([True] if whole else [False, False])
    assert report.to_payload() == mccoy_block_oracle(ring, module, NAT, window, 10 ** 9)


def test_window_orbit_ranks_stay_exact_past_int64_codes():
    # mixed-radix codes of 16 coefficients in Z/16 reach 16^16 = 2^64, yet
    # the window has 241 tuples and 58,081 pairs
    z16 = build_zmod(16)
    window = SupportWindow(tuple((i,) for i in range(16)), max_support=1)
    assert 16 ** 16 > np.iinfo(np.int64).max
    _assert_orbits_are_unit_images(z16, window, _units_oracle(z16))
    report = verify_mccoy_equivalence(z16, z16, NAT, window)
    assert report.instances_checked == 58_081
    assert report.to_payload() == mccoy_block_oracle(z16, z16, NAT, window,
                                                     verify_mod.DEFAULT_BUDGET)


# ---------------------------------------------------------------------------
# regularity_transfer: socle partners, once per residue class, against the
# full window search

REGULARITY_WINDOWS = MCCOY_WINDOWS + [(NAT2, SupportWindow(((1, 0), (0, 1))))]


def partner_search_oracle(module, window, f_arr, layout):
    """Per row f, whether f * g = 0 for some nonzero g of the whole window."""
    partners = window.coeff_array(module.size, module.zero)
    nonzero = (partners != module.zero).any(axis=1)
    verdicts = []
    for start in range(0, len(f_arr), 8):
        block = _block_product(f_arr[start:start + 8], module.action_table, module.add_table,
                               partners, layout)
        verdicts += ((block == module.zero).all(axis=0) & nonzero).any(axis=1).tolist()
    return verdicts


def _assert_class_search_matches_full_window(ring, module, monoid, window):
    layout = _product_layout(monoid, window.exponents)
    f_arr = window.coeff_array(ring.size, ring.zero)
    expected = partner_search_oracle(module, window, f_arr, layout)
    assert _socle_partner_search(module, window, f_arr, layout).tolist() == expected
    report = verify_regularity_transfer(ring, module, monoid, window, budget=10**9)
    assert report.outcome == "pass"
    assert report.details["zero_divisors"] == sum(expected)
    assert report.instances_checked == len(f_arr)


# Z/25 adds the residue field F5 to the F2 and F3 of CASES
Z25 = build_zmod(25)
REGULARITY_CASES = CASES + [("Z/25", Z25, Z25)]


@pytest.mark.parametrize("block_pairs", [1, verify_mod._BLOCK_PAIRS])
@pytest.mark.parametrize("label,ring,module", REGULARITY_CASES,
                         ids=[label for label, _, _ in REGULARITY_CASES])
def test_socle_partner_search_matches_full_window(label, ring, module, block_pairs,
                                                  monkeypatch):
    # the verdict of every row, searched once per residue class of f modulo
    # each p[S], against the search over every nonzero window tuple; blocks
    # of one pair send every window through the classes, and the default
    # sends the windows that fit one block through their rows
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    cosets = _spy(monkeypatch, "_cosets")
    windows = [(m, w) for m, w in REGULARITY_WINDOWS
               if w.count(ring.size) * w.count(module.size) <= 20_000_000]
    assert {(m is NAT2, w.max_support is None) for m, w in windows} == {
        (False, False), (False, True), (True, False), (True, True)}
    for monoid, window in windows:
        _assert_class_search_matches_full_window(ring, module, monoid, window)
    if block_pairs == 1:  # once per prime in the search and again in the verifier
        assert len(cosets) == 2 * len(windows) * len(finite_algebra.associated_primes(module))


def test_residue_class_ranks_stay_exact_past_int64_codes():
    # mixed-radix codes of 8 coefficients in Z/251 reach 251^8 > 2^63, yet the
    # window has 2,001 tuples; modulo (0) each is its own class, ranked as
    # its row
    z251 = build_zmod(251)
    window = SupportWindow(tuple((i,) for i in range(8)), max_support=1)
    assert 251 ** 8 > np.iinfo(np.int64).max
    [(zero_ideal, _)] = finite_algebra.associated_primes(z251)
    f_arr = window.coeff_array(z251.size, z251.zero)
    class_of, count = _residue_classes(z251, window, zero_ideal, f_arr)
    assert count == 2001
    assert class_of.tolist() == list(range(2001))


@pytest.mark.parametrize("ring,pairs", [
    (build_zmod(12), 8 * 7 + 27 * 26),
    (build_truncated_poly_ring(2, 4, 2), 8 * 4095),
], ids=["Z/12", "F2[a..d]/m^2"])
def test_regularity_searches_one_row_per_residue_class(ring, pairs, monkeypatch):
    # {0, 1, 2}: Z/12 has 8 classes modulo (2)[S] against the 7 partners over
    # {0, 6} and 27 modulo (3)[S] against the 26 over {0, 4, 8}, not 1,728
    # rows against 33 partners; F2[a..d]/m^2 has 8 classes modulo m[S]
    # against the 4,095 partners over m, not 32,768 rows
    calls = _spy(monkeypatch, "_partner_search")
    report = verify_regularity_transfer(ring, ring, NAT, W012, budget=2 * 10**9)
    assert report.outcome == "pass"
    assert sum(len(f_arr) * len(partners) for _, f_arr, partners, _ in calls) == pairs


def test_merged_residue_classes_fail_the_oracle_and_the_verifier(monkeypatch):
    # modulo (3), the classes of 0 and 1 merge, so f = X^2 takes the verdict of
    # the zero series: it finds a partner, though its content (1) has a zero
    # annihilator. The oracle walks {0, 1}, whose M-window has 20,736 tuples
    z12 = build_zmod(12)
    module = direct_sum(ring_as_module(z12), ring_as_module(z12))
    window = SupportWindow(((0,), (1,)))
    layout = _product_layout(NAT, window.exponents)
    f_arr = window.coeff_array(z12.size, z12.zero)
    three = ideal_generated(z12, [3]).members
    real = verify_mod._cosets

    def merged(add_table, members):
        cosets, coset_of = real(add_table, members)
        return cosets, np.where(coset_of == 1, 0, coset_of) if members == three else coset_of

    monkeypatch.setattr(verify_mod, "_cosets", merged)
    assert (_socle_partner_search(module, window, f_arr, layout).tolist()
            != partner_search_oracle(module, window, f_arr, layout))
    report = verify_regularity_transfer(z12, module, NAT, W012, budget=10**10)
    assert report.outcome == "counterexample"
    assert report.counterexample == {"f": _terms(W012, z12, (0, 0, 1)),
                                     "content_annihilator": False,
                                     "window_search": True,
                                     "zero_divisor_operation": False}


# ---------------------------------------------------------------------------
# domain_prime_extension and submodule_transfer: orbit walks against the
# per-row scans


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
@pytest.mark.parametrize("label,ring,module", CASES, ids=CASE_IDS)
def test_domain_prime_extension_matches_per_row_scan(label, ring, module, block_pairs,
                                                     monkeypatch):
    # the real primes pass; with every ideal planted as a prime, in order and
    # reversed, and the ring declared a domain or not, the clauses fail in
    # many orders, and the first clause's least pair must be reported
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    ideals = finite_algebra.enumerate_ideals(ring)
    real_zero_divisors = verify_mod.zero_divisor_set
    for domain_claim, planted in itertools.product((False, True), (None, ideals, ideals[::-1])):
        if planted is not None:
            monkeypatch.setattr(verify_mod, "prime_ideals", lambda r, planted=planted: planted)
        monkeypatch.setattr(verify_mod, "zero_divisor_set",
                            (lambda m: 1 << m.zero) if domain_claim else real_zero_divisors)
        for monoid, window in _windows_up_to(ring.size, 200):
            report = verify_domain_prime_extension(ring, module, monoid, window)
            assert report.to_payload() == domain_prime_oracle(ring, module, monoid, window)


# Z/6 with index i standing for the residue i + 1: its first window row is
# the regular 1 + X + X^2, and the least pair with a vanishing product is
# f = 2 + 2X + 2X^2 (indices (1, 1, 1), row 43), g = 3 + 3X + 3X^2. The
# planted non-prime {2, 4} (indices 1 and 3) fails at row 0 already, against
# g = 2 + 2X^2: rows 0 and 43 lie in different blocks at every block size.
SHIFTED_Z6 = relabeled_zmod(6, 1)
W012 = SupportWindow(((0,), (1,), (2,)))
NON_PRIME = finite_algebra.Ideal(SHIFTED_Z6, 0b1010)


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
def test_domain_clause_outranks_an_earlier_prime_failure(block_pairs, monkeypatch):
    ring = SHIFTED_Z6
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(verify_mod, "prime_ideals", lambda r: [NON_PRIME])
    alone = verify_domain_prime_extension(ring, None, NAT, W012).counterexample
    assert alone["clause"] == "extended_prime"
    assert alone["f"] == _terms_in(W012, ring, NAT, (0, 0, 0))
    # declared a domain: the walk goes on past the prime's failure to row 43
    monkeypatch.setattr(verify_mod, "zero_divisor_set", lambda module: 1 << module.zero)
    report = verify_domain_prime_extension(ring, None, NAT, W012)
    assert report.to_payload() == domain_prime_oracle(ring, None, NAT, W012)
    assert report.counterexample == {"clause": "domain_transfer",
                                     "f": _terms_in(W012, ring, NAT, (1, 1, 1)),
                                     "g": _terms_in(W012, ring, NAT, (2, 2, 2))}


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
def test_first_prime_outranks_a_later_prime_failing_earlier(block_pairs, monkeypatch):
    # not a domain; the planted primes are (0), failing first at row 43, and
    # the non-prime failing at row 0: the least pair of (0) is reported
    ring = SHIFTED_Z6
    zero = finite_algebra.Ideal(ring, 1 << ring.zero)
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(verify_mod, "prime_ideals", lambda r: [zero, NON_PRIME])
    report = verify_domain_prime_extension(ring, None, NAT, W012)
    assert report.to_payload() == domain_prime_oracle(ring, None, NAT, W012)
    assert report.counterexample == {"clause": "extended_prime", "prime": [ring.zero],
                                     "f": _terms_in(W012, ring, NAT, (1, 1, 1)),
                                     "g": _terms_in(W012, ring, NAT, (2, 2, 2))}


def _violation_rows(report, window, ring):
    rows = window.coeff_array(ring.size, ring.zero).tolist()

    def row(violation):
        coeffs = {e[0]: c for e, c in violation["r"]}
        return rows.index([coeffs.get(e[0], ring.zero) for e in window.exponents])

    details = report.details
    return [row(details[key]) if details[key] else None
            for key in ("expected_prime_violation", "expected_primary_violation")]


# the oracle's payload per (module, P, monoid, window), shared by every block size
_submodule_oracle = functools.cache(submodule_transfer_oracle)


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
@pytest.mark.parametrize("module,gens,rows", [
    # (4) is primary: only its prime slot fills, at r = 2X^2
    (ring_as_module(build_zmod(12)), [4], [2, None]),
    # (6) fills both slots at r = 2X^2
    (ring_as_module(build_zmod(12)), [6], [2, 2]),
    # Z/12 with index i standing for i + 6: r = 6 + 6X + 6X^2 (row 0) breaks
    # primality only, and r = 6 + 6X + 8X^2 (row 2) primariness, in
    # different blocks at every block size
    (ring_as_module(relabeled_zmod(12, 6)), [], [0, 2]),
    # every submodule P of each module of CASES, on the windows of at most
    # 600 tuples over M: orbits act through the action table of a direct
    # sum, a quotient module and a module whose zero is not index 0
    *((module, None, None) for _, _, module in CASES),
], ids=["(4) of Z/12", "(6) of Z/12", "(0) of Z/12 shifted",
        *(f"every P of {label}" for label in CASE_IDS)])
def test_submodule_transfer_matches_per_row_scan(module, gens, rows, block_pairs, monkeypatch):
    if gens is None:
        subs = finite_algebra.enumerate_submodules(module)
        windows = _windows_up_to(module.size, 600)
    else:
        subs = [submodule_generated(module, gens)]
        windows = [(NAT, SupportWindow(((0,), (1,)))), (NAT, W012)]
    assert windows
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    for sub, (monoid, window) in itertools.product(subs, windows):
        report = verify_submodule_transfer(module, sub, monoid, window)
        assert report.outcome == "pass"
        assert report.to_payload() == _submodule_oracle(module, sub, monoid, window)
    if rows is not None:
        assert _violation_rows(report, W012, module.ring) == rows


def test_one_block_product_per_left_block(monkeypatch):
    calls = _spy(monkeypatch, "_block_product")
    z132 = build_zmod(132)
    window = SupportWindow(((2,),))
    report = verify_domain_prime_extension(z132, None, NAT, window)
    assert report.outcome == "pass" and report.details["primes_checked"] == 3
    # the budget still charges the non-domain witness and every pair per prime
    assert report.instances_checked == 1 + 3 * 132 * 132
    # the 132 one-term tuples fall into 12 unit orbits, one per divisor of
    # 132: one product of the 12 representatives against themselves, which
    # every clause reads
    orbits = _window_orbits(z132, window)
    reps = orbits.coeffs[orbits.reps]
    assert len(calls) == 1
    left, _, _, right, _ = calls[0]
    assert np.array_equal(left, reps) and np.array_equal(right, reps)
    calls.clear()
    z12 = build_zmod(12)
    m12 = ring_as_module(z12)
    report = verify_submodule_transfer(m12, submodule_generated(m12, [4]), NAT, W012)
    assert report.details["primary_transfer_holds"]
    assert report.instances_checked == 1728 * 1728
    # the 1,728 tuples fall into 504 orbits: 504 left representatives against
    # the 504 right ones, eight rows a block
    orbits = _window_orbits(z12, W012)
    reps = orbits.coeffs[orbits.reps]
    assert len(reps) == 504
    assert [len(left) for left, *_ in calls] == [8] * 63
    assert np.array_equal(np.concatenate([left for left, *_ in calls]), reps)
    assert all(np.array_equal(right, reps) for *_, right, _ in calls)


@pytest.mark.parametrize("verifier,block_pairs", [
    (verify_mccoy_equivalence, verify_mod._BLOCK_PAIRS),
    (verify_domain_prime_extension, verify_mod._BLOCK_PAIRS),
    (verify_regularity_transfer, verify_mod._BLOCK_PAIRS),
    (verify_regularity_transfer, 1),
], ids=["mccoy_equivalence", "domain_prime_extension", "regularity_transfer",
        "regularity_transfer_classes"])
def test_window_kernel_copies_no_whole_table(verifier, block_pairs, monkeypatch):
    # Z/1024 and {0, 1} with max_support 1: 2,047 window tuples. One intp
    # copy of a 1024 x 1024 table is 8 MB; the traced peak of a run with warm
    # memos stays below that. regularity_transfer searches two socle
    # partners, so its terms are gathered without the (2,047, 1,024) rows;
    # in blocks of one pair it searches the 3 classes modulo (2)[S], and
    # their coset map gathers no (1,024, 512) block either
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", block_pairs)
    z1024 = build_zmod(1024)
    window = SupportWindow(((0,), (1,)), max_support=1)
    expected = verifier(z1024, z1024, NAT, window).to_payload()
    tracemalloc.start()
    try:
        report = verifier(z1024, z1024, NAT, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.outcome == "pass" and report.to_payload() == expected
    assert peak < 8 * 2**20


def test_cosets_gather_no_element_by_member_block():
    # (2) in Z/1024 has 512 members: an int32 block of add_table over them
    # is 2 MB, and the least coset members come from blocks of 64 KB cells
    z1024 = build_zmod(1024)
    members = ideal_generated(z1024, [2]).members
    expected = z1024.add_table[:, list(bitset.iter_bits(members))].min(axis=1)
    tracemalloc.start()
    try:
        cosets, coset_of = finite_algebra._cosets(z1024.add_table, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cosets == [0, 1]
    assert np.array_equal(np.array(cosets)[coset_of], expected)
    assert peak < 2**19
