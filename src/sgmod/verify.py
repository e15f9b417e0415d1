"""Window-exhaustive verification of the transfer statements.

Each verifier enumerates every coefficient assignment over a fixed exponent
window, checks the statement on every instance, and reports pass /
counterexample / skipped. Window products come from one block kernel,
_block_product, contents c(f) from the persistent submodule lattice of the
ring or module (submodule_lattice), and content annihilators from the
per-element annihilators of the coefficients (_content_annihilates). A
counterexample on hypothesis-satisfying inputs signals an implementation bug
(the statements are proven); its payload always replays through the public
operations.

Windows only slice the infinite algebras: the content-annihilator criterion is
the authoritative zero-divisor membership test, and the window search for an
annihilating partner acts as a one-sided oracle (a hit confirms, absence within
the window never refutes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import permutations
from operator import or_

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
    submodule_lattice,
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
    content_mccoy_witness,
    extended_ideal_membership,
    is_zero_divisor_series,
    make_series,
    series_multiply,
)
from .zd import decompose_zero_divisors

DEFAULT_BUDGET = 10_000_000
_BLOCK_ROWS = 1 << 16
_BLOCK_PAIRS = 1 << 12

OUTCOME_PASS = "pass"
OUTCOME_COUNTEREXAMPLE = "counterexample"
OUTCOME_SKIPPED = "skipped"


@dataclass(frozen=True)
class SupportWindow:
    """A finite exponent list; series enumeration assigns every coefficient.

    max_support optionally caps the number of nonzero terms, and is at least
    one: a window of the zero tuple alone checks nothing. The enumeration
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
        if self.max_support is not None and self.max_support < 1:
            raise PreconditionError(f"max_support must be at least 1, got {self.max_support}")

    def validate_for(self, monoid: Monoid) -> None:
        for e in self.exponents:
            if not monoid.contains(e):
                raise PreconditionError(f"window exponent {e!r} outside {monoid.label}")

    def count(self, space_size: int) -> int:
        """Number of coefficient assignments (the enumeration cardinality):
        j nonzero terms can sit at C(E, j) position sets, with |space| - 1
        values each; summed over every j this is |space|^E."""
        e = len(self.exponents)
        cap = e if self.max_support is None else min(self.max_support, e)
        return sum(math.comb(e, j) * (space_size - 1) ** j for j in range(cap + 1))

    def coeff_array(self, space_size: int, zero_index: int) -> np.ndarray:
        """Every supported coefficient tuple as one row, in lexicographic order.

        Tuples grow one position at a time: a prefix below max_support takes
        every value, a prefix at it takes only zero. No unsupported tuple is
        ever built, so the work is linear in the count() the budget charges.
        The array is column-major, so each column is a contiguous index
        vector for the gathers of the kernels.
        """
        e = len(self.exponents)
        cap = e if self.max_support is None else min(self.max_support, e)
        rows = np.zeros((1, 0), dtype=np.intp)
        support = np.zeros(1, dtype=np.intp)
        for _ in self.exponents:
            full = support >= cap
            width = np.where(full, 1, space_size)
            parent = np.repeat(np.arange(len(rows)), width)
            value = np.arange(len(parent)) - (np.cumsum(width) - width)[parent]
            value[full[parent]] = zero_index
            rows = np.column_stack((rows[parent], value))
            support = support[parent] + (value != zero_index)
        return np.asfortranarray(rows)

    def series(self, space, monoid: Monoid, coeffs) -> Series:
        terms = [(e, c) for e, c in zip(self.exponents, coeffs) if c != space.zero]
        return make_series(space, monoid, terms)


@dataclass
class VerificationReport:
    statement: str
    outcome: str
    instances_checked: int
    config: dict
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None
    skip_reason: str | None = None

    def to_payload(self) -> dict:
        """Deterministic report body."""
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


def _skipped(statement: str, config: dict, predicted: int, budget: int) -> VerificationReport:
    return VerificationReport(
        statement=statement,
        outcome=OUTCOME_SKIPPED,
        instances_checked=0,
        config=config,
        skip_reason=f"predicted {predicted} instances exceeds budget {budget}",
    )


def _terms_payload(series: Series) -> list:
    return [[list(e) if isinstance(e, tuple) else e, c] for e, c in series.terms]


def _product_layout(monoid: Monoid, exponents: tuple) -> tuple[int, list]:
    """Size of the deduplicated product support, and the position of each
    pairwise exponent sum in it."""
    index: dict = {}
    e_count = len(exponents)
    pos = [[0] * e_count for _ in range(e_count)]
    for i, a in enumerate(exponents):
        for j, b in enumerate(exponents):
            pos[i][j] = index.setdefault(monoid.add(a, b), len(index))
    return len(index), pos


def _block_product(left: np.ndarray, table, add_table, right: np.ndarray,
                   layout) -> np.ndarray:
    """Coefficients of f * g for every left tuple f and right-hand tuple g.

    left is an (F, E) block of left tuples, table[a] the multiplication (or
    action) row of the coefficient a, add_table the target's addition, right
    the (N, E) window array and layout the _product_layout of the window.
    Returns an (n_prod, F, N) array; [:, a, b] holds left[a] * right[b].
    The tables are the caller's _index_copies: every term and partial sum is
    then an intp index array, and no gather casts one.
    """
    n_prod, pos = layout
    acc = np.empty((n_prod, len(left), len(right)), dtype=add_table.dtype)
    # every product position receives a term: the first is stored, later ones added
    stored = [False] * n_prod
    for i in range(left.shape[1]):
        rows = table.take(left[:, i], axis=0)
        for j, k in enumerate(pos[i]):
            # one take and no index arithmetic: every extra (F, N) temporary
            # page-faults afresh on wide windows
            term = rows.take(right[:, j], axis=1)
            if stored[k]:
                acc[k] = add_table[acc[k], term]
            else:
                acc[k] = term
                stored[k] = True
    return acc


def _index_copies(*tables: np.ndarray) -> list:
    """intp copies of the int32 tables a window kernel gathers through, taken
    once per verifier after its budget check. Their entries index the next
    gather, and numpy casts a non-intp index array on every gather."""
    return [table.astype(np.intp) for table in tables]


def _left_blocks(left: np.ndarray, right: np.ndarray) -> list:
    """Slices of left rows holding at most _BLOCK_PAIRS pairs against the
    nonempty right, and at least one row each, in order."""
    step = max(1, _BLOCK_PAIRS // len(right))
    return [slice(start, start + step) for start in range(0, len(left), step)]


def _content_annihilates(module: FiniteModule, coeffs: np.ndarray) -> np.ndarray:
    """Per row f of coeffs, whether Ann_M(c(f)) is nonzero.

    The ring elements killing a module element form an ideal, so
    Ann_M(c(f)) is the intersection of the Ann_M(a) over the coefficients a
    of f: the rows of action_table == zero are intersected as packed bit
    rows, and no content ideal is closed. Rows are taken in blocks so the
    packed rows in flight stay bounded.
    """
    nonzero = np.arange(module.size) != module.zero
    kills = np.packbits(module.action_table[:, nonzero] == module.zero, axis=1)
    out = np.empty(len(coeffs), dtype=bool)
    for start in range(0, len(coeffs), _BLOCK_ROWS):
        block = coeffs[start:start + _BLOCK_ROWS]
        acc = kills[block[:, 0]]
        for j in range(1, block.shape[1]):
            acc &= kills[block[:, j]]
        out[start:start + _BLOCK_ROWS] = acc.any(axis=1)
    return out


def _replay_mccoy_witnesses(module: FiniteModule, f_rows: np.ndarray,
                            witnesses: np.ndarray) -> None:
    """Raise unless every coefficient of f_rows[i] kills witnesses[i].

    That is f * m = 0 for the constant series m: the replay mccoy_witness and
    is_zero_divisor_series make, for all rows at once.
    """
    if not (module.action_table[f_rows, witnesses[:, None]] == module.zero).all():
        raise InvariantViolation("McCoy witness failed replay")


def _extended_annihilator_violation(ring: FiniteRing, module: FiniteModule | None,
                                    monoid: Monoid, window: SupportWindow,
                                    f_arr: np.ndarray, ass, clause: str) -> dict | None:
    """The counterexample of the first (p, witness) in ass, at the least
    window f, where f kills the witness but c(f) is not inside p or the other
    way round; None when every p[S] is exactly the annihilator of its witness.
    """
    for p, witness in ass:
        kills = module.action_table[:, witness] == module.zero
        member = bitset.bools_from_mask(p.members, ring.size)
        bad = np.flatnonzero(kills[f_arr].all(axis=1) != member[f_arr].all(axis=1))
        if bad.size:
            return {"clause": clause, "prime": list(p.members_tuple()), "witness": witness,
                    "f": _terms_payload(window.series(ring, monoid, f_arr[bad[0]].tolist()))}
    return None


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
        predicted = window.count(ring.size) * window.count(module.size)
    else:
        predicted = (module.size - 1) ** 2
    if predicted > budget:
        return _skipped(statement, config, predicted, budget)
    if canc and tf:
        return _mccoy_equivalence_good(ring, module, monoid, window, config,
                                       predicted, statement)
    return _mccoy_equivalence_bad(module, monoid, config, predicted, statement,
                                  canc, canc_wit, tf_wit)


def _mccoy_equivalence_good(ring, module, monoid, window, config, predicted,
                            statement) -> VerificationReport:
    """Left rows go in blocks of at most _BLOCK_PAIRS pairs. Each pair's
    Dedekind-Mertens instance (c(f), c(g), c(fg), cap) is packed over the
    content ids into one code, and the search runs once per distinct
    instance. The least row with a failure is reported at its least g, and
    every vanishing product before that pair replays its McCoy witness: the
    witness depends only on (c(f), c(g)), so it is computed once per content
    pair and the replays of a block run at once."""
    layout = _product_layout(monoid, window.exponents)
    mzero = module.zero
    f_arr = window.coeff_array(ring.size, ring.zero)
    g_arr = window.coeff_array(module.size, mzero)
    g_nonzero = (g_arr != mzero).any(axis=1)
    ann_nonzero = _content_annihilates(module, f_arr)
    ideals = submodule_lattice(ring.as_module())
    subs = submodule_lattice(module)
    # Dedekind-Mertens with the default cap |support(g)| + 1
    g_cap = (g_arr != mzero).sum(axis=1) + 1
    g_cg = subs.ids(g_arr)
    n_g = len(g_arr)

    @cache
    def k_min(cf_id, cg_id, cfg_id, cap):
        # 0 stands for "no exponent within the cap"
        return _dm_search(ideals.objects[cf_id], subs.objects[cg_id], subs.objects[cfg_id],
                          cap).k_min or 0

    zero_product_pairs = 0
    max_k = 0
    act, add = _index_copies(module.action_table, module.add_table)

    for rows in _left_blocks(f_arr, g_arr):
        f_block = f_arr[rows]
        cf = ideals.ids(f_block)
        block = _block_product(f_block, act, add, g_arr, layout)
        cfg = subs.ids(block.reshape(layout[0], -1).T).reshape(len(f_block), n_g)
        dims = (len(ideals.objects), len(subs.objects), len(subs.objects),
                len(window.exponents) + 2)
        codes = np.ravel_multi_index((cf[:, None], g_cg, cfg, g_cap), dims).ravel()
        distinct, inverse = np.unique(codes, return_inverse=True)
        instances = zip(*(a.tolist() for a in np.unravel_index(distinct, dims)))
        k_of = np.array([k_min(*key) for key in instances], dtype=np.int64)
        k_block = k_of[inverse].reshape(len(f_block), n_g)
        # every vanishing pair before its row's first Dedekind-Mertens failure
        # replays; the first row with a failure or a content mismatch is reported
        dm_fails = k_block == 0
        end = np.where(dm_fails.any(axis=1), dm_fails.argmax(axis=1), n_g)
        replay = ((block == mzero).all(axis=0) & g_nonzero
                  & (np.arange(n_g) < end[:, None]))
        killed = replay.any(axis=1)
        bad = np.flatnonzero((end < n_g) | (killed != ann_nonzero[rows]))
        last = int(bad[0]) if bad.size else len(f_block) - 1
        pair_rows, pair_cols = np.nonzero(replay[:last + 1])
        if pair_rows.size:
            # one witness per (c(f), c(g)) pair, replayed on every vanishing pair
            pair_codes = np.ravel_multi_index((cf[pair_rows], g_cg[pair_cols]), dims[:2])
            witness_codes, witness_of = np.unique(pair_codes, return_inverse=True)
            cf_ids, cg_ids = np.unravel_index(witness_codes, dims[:2])
            witnesses = np.array([content_mccoy_witness(ideals.objects[i], subs.objects[j])
                                  for i, j in zip(cf_ids.tolist(), cg_ids.tolist())],
                                 dtype=np.intp)
            _replay_mccoy_witnesses(module, f_block[pair_rows], witnesses[witness_of])
            zero_product_pairs += len(pair_rows)
        if bad.size:
            f_coeffs = f_block[last].tolist()
            if end[last] < n_g:
                gi = int(end[last])
                return VerificationReport(
                    statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                    counterexample={
                        "clause": "dedekind_mertens",
                        "f": _terms_payload(window.series(ring, monoid, f_coeffs)),
                        "g": _terms_payload(window.series(module, monoid, g_arr[gi].tolist())),
                        "reason": f"no exponent within cap {int(g_cap[gi])}",
                    })
            return VerificationReport(
                statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                counterexample={
                    "clause": "content_annihilator",
                    "f": _terms_payload(window.series(ring, monoid, f_coeffs)),
                    "annihilator_nonzero": bool(ann_nonzero[rows][last]),
                    "window_partner_found": bool(killed[last]),
                })
        max_k = max(max_k, int(k_block.max()))

    details = {
        "branch": "hypotheses_hold",
        "pairs": predicted,
        "max_dm_exponent": max_k,
        "zero_product_pairs": zero_product_pairs,
        "mccoy_witnesses_verified": zero_product_pairs,
        "content_criterion_series": len(f_arr),
    }
    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details)


def _mccoy_equivalence_bad(module, monoid, config, predicted, statement, canc, canc_wit,
                           tf_wit) -> VerificationReport:
    nz = [m for m in module.elements() if m != module.zero]
    constructions = []
    if not canc:
        for q in nz:
            f, g = build_noncancellative_counterexample(monoid, canc_wit, module, q)
            for m in nz:
                if series_multiply(f, constant_series(module, monoid, m)).is_zero:
                    return VerificationReport(
                        statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
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
                        statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
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
    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details)


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
        return _skipped(statement, config, predicted, budget)

    layout = _product_layout(monoid, window.exponents)
    rzero = ring.zero
    f_arr = window.coeff_array(ring.size, rzero)
    f_list = f_arr.tolist()
    mul, add = _index_copies(ring.mul_table, ring.add_table)

    def times_window(fi):
        return _block_product(f_arr[fi:fi + 1], mul, add, f_arr, layout)[:, 0]

    details: dict = {"ring_is_domain": is_domain, "primes_checked": len(primes),
                     "associated_primes_checked": len(ass)}

    if is_domain:
        nonzero = (f_arr != rzero).any(axis=1)
        for fi in np.flatnonzero(nonzero):
            hits = np.flatnonzero((times_window(fi) == rzero).all(axis=0) & nonzero)
            if hits.size:
                return VerificationReport(
                    statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                    counterexample={
                        "clause": "domain_transfer",
                        "f": _terms_payload(window.series(ring, monoid, f_list[fi])),
                        "g": _terms_payload(window.series(ring, monoid, f_list[hits[0]])),
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
        in_p = bitset.bools_from_mask(p.members, ring.size)
        outside = ~in_p[f_arr].all(axis=1)
        for fi in np.flatnonzero(outside):
            hits = np.flatnonzero(in_p[times_window(fi)].all(axis=0) & outside)
            if hits.size:
                f_series = window.series(ring, monoid, f_list[fi])
                g_series = window.series(ring, monoid, f_list[hits[0]])
                if not extended_ideal_membership(series_multiply(f_series, g_series),
                                                 ExtendedIdeal(p, monoid)):
                    raise InvariantViolation("extended prime violation failed replay")
                return VerificationReport(
                    statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                    counterexample={
                        "clause": "extended_prime",
                        "prime": list(p.members_tuple()),
                        "f": _terms_payload(f_series),
                        "g": _terms_payload(g_series),
                    })

    counterexample = _extended_annihilator_violation(ring, module, monoid, window, f_arr, ass,
                                                     "extended_associated_prime")
    if counterexample is not None:
        return VerificationReport(statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                                  counterexample=counterexample)

    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details)


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
        return _skipped(statement, config, predicted, budget)

    layout = _product_layout(monoid, window.exponents)
    in_p = bitset.bools_from_mask(sub.members, module.size)
    full = Submodule(module, module.full_mask)

    contents = submodule_lattice(ring.as_module())

    @cache
    def facts_for(cid):
        cr = contents.objects[cid]
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
        return prime_ok, primary_ok

    prime_violation = None
    primary_violation = None
    x_arr = window.coeff_array(module.size, module.zero)
    x_outside = ~in_p[x_arr].all(axis=1)
    r_arr = window.coeff_array(ring.size, ring.zero)
    r_content = contents.ids(r_arr).tolist()
    act, add = _index_copies(module.action_table, module.add_table)
    for ri, r_coeffs in enumerate(r_arr.tolist()):
        block = _block_product(r_arr[ri:ri + 1], act, add, x_arr, layout)[:, 0]
        # only the least x with r x in P[S] and x outside P[S] can be reported
        hits = np.flatnonzero(in_p[block].all(axis=0) & x_outside)
        if not hits.size:
            continue
        x_coeffs = x_arr[hits[0]].tolist()
        prime_ok, primary_ok = facts_for(r_content[ri])
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
    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details)


# ---------------------------------------------------------------------------
# regularity transfer


def _socle_partners(module: FiniteModule, window: SupportWindow) -> np.ndarray:
    """The nonzero window tuples over (0 :_M p), for each p in Ass(M) in turn.

    The socles of distinct maximal ideals meet only in zero, so no tuple
    repeats.
    """
    mzero = module.zero
    parts = []
    for p, _ in associated_primes(module):
        socle = np.array(annihilator_in_module(p, module).members_tuple(), dtype=np.intp)
        tuples = socle[window.coeff_array(len(socle), int(np.searchsorted(socle, mzero)))]
        parts.append(tuples[(tuples != mzero).any(axis=1)])
    return np.asfortranarray(np.concatenate(parts))


def _partner_search(module: FiniteModule, f_arr: np.ndarray, partners: np.ndarray,
                    layout) -> list:
    """Per row f of f_arr, whether f * g = 0 for some row g of partners."""
    verdicts = []
    act, add = _index_copies(module.action_table, module.add_table)
    for rows in _left_blocks(f_arr, partners):
        acc = _block_product(f_arr[rows], act, add, partners, layout)
        verdicts += (acc == module.zero).all(axis=0).any(axis=1).tolist()
    return verdicts


def verify_regularity_transfer(ring: FiniteRing, module: FiniteModule, monoid: Monoid,
                               window: SupportWindow,
                               budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Three-way agreement for every window f: the content annihilator verdict,
    the window search for an annihilating partner, and the public
    zero-divisor test.

    The search runs over socle partners only: the nonzero window tuples whose
    coefficients all lie in (0 :_M p) for one p in Ass(M). That loses no
    partner. The g in the window with fg = 0 form an R-submodule, since r g
    keeps the support of g. If it is nonzero it holds a simple submodule
    R h = R/m, so m kills every coefficient of h, and m = Ann(c) for a nonzero
    coefficient c, so m is in Ass(M).

    The public test sees f only through c(f), so it runs on the least f of
    each content only: its regular verdicts are checked there, and its
    witness replays on every zero-divisor f of the content. It is not run on
    a content whose least f lies past the reported f.

    Instances: |R[S] window| adjudicated series; the budget charges the full
    search, |R[S] window| * |M[S] window| pairs, of which the socle partners
    are a subset.
    """
    statement = "regularity_transfer"
    if module.is_zero_module:
        raise ZeroModuleError(f"{statement} needs a nonzero module")
    if not same_ring(ring, module.ring):
        raise PreconditionError("module is not over the given ring")
    _require_hypotheses(monoid, statement)
    window.validate_for(monoid)
    config = _config_echo(window=window, budget=budget, ring=ring, module=module,
                          monoid=monoid)

    nf = window.count(ring.size)
    ng = window.count(module.size)
    if nf * ng > budget:
        return _skipped(statement, config, nf * ng, budget)

    layout = _product_layout(monoid, window.exponents)
    f_arr = window.coeff_array(ring.size, ring.zero)
    by_content = _content_annihilates(module, f_arr)
    by_search = np.array(_partner_search(module, f_arr, _socle_partners(module, window),
                                         layout), dtype=bool)
    mismatch = np.flatnonzero(by_content != by_search)
    last = int(mismatch[0]) if mismatch.size else nf
    # contents in the order of their least f, until one lies past the least
    # disagreeing f found so far
    contents = submodule_lattice(ring.as_module())
    content_of = contents.ids(f_arr)
    n_ids = len(contents.objects)
    # first_f[c, v]: the least f of content id c whose content verdict is v
    first_f = np.full((n_ids, 2), nf)
    np.minimum.at(first_f, (content_of, by_content.astype(np.intp)), np.arange(nf))
    least = first_f.min(axis=1)
    # the ids met, in the order of their least f: no sort, as the ids are dense
    firsts = np.zeros(nf, dtype=bool)
    firsts[least[least < nf]] = True
    is_zd = np.zeros(n_ids, dtype=bool)
    witness = np.full(n_ids, module.zero, dtype=np.intp)
    for c in content_of[firsts].tolist():
        if least[c] > last:
            break
        verdict = is_zero_divisor_series(
            window.series(ring, monoid, f_arr[least[c]].tolist()), module)
        if verdict.is_zero_divisor:
            is_zd[c], witness[c] = True, verdict.witness
        last = min(last, int(first_f[c, int(not verdict.is_zero_divisor)]))
    # every zero-divisor f up to the reported one replays its content's witness
    replay = np.flatnonzero(is_zd[content_of[:last + 1]])
    _replay_mccoy_witnesses(module, f_arr[replay], witness[content_of[replay]])
    if last < nf:
        return VerificationReport(
            statement, OUTCOME_COUNTEREXAMPLE, nf, config,
            counterexample={
                "f": _terms_payload(window.series(ring, monoid, f_arr[last].tolist())),
                "content_annihilator": bool(by_content[last]),
                "window_search": bool(by_search[last]),
                "zero_divisor_operation": bool(is_zd[content_of[last]]),
            })

    zig_count = int(by_content.sum())
    details = {"series_checked": nf, "regular": nf - zig_count,
               "zero_divisors": zig_count,
               # Property (A) holds on every associated prime (zd.check_property_a)
               "property_a_ideals": len(associated_primes(module))}
    return VerificationReport(statement, OUTCOME_PASS, nf, config, details)


# ---------------------------------------------------------------------------
# zero-divisor transfer: degree-n decomposition and extended annihilators


def verify_zero_divisor_transfer(ring: FiniteRing, module: FiniteModule, monoid: Monoid,
                                 window: SupportWindow,
                                 budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Window-exhaustive agreement between the zero-divisor test on R[S] series
    and membership in the union of the extended decomposition primes p_i[S];
    extended incomparability is exhibited by constant witnesses, and each
    p_i[S] is matched against the annihilator of its witness element over the
    whole window. A finite module always has very few zero-divisors, and it is
    primal exactly when the degree is one.

    Instances: |R[S] window| + n(n-1) incomparability pairs
    + n * |R[S] window| witness checks.
    """
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
    n = decomp.degree
    nf = window.count(ring.size)
    predicted = nf + n * (n - 1) + n * nf
    if predicted > budget:
        return _skipped(statement, config, predicted, budget)

    prime_masks = [p.members for p in decomp.primes]
    f_arr = window.coeff_array(ring.size, ring.zero)
    member = np.any([bitset.bools_from_mask(mask, ring.size)[f_arr].all(axis=1)
                     for mask in prime_masks], axis=0)
    bad = np.flatnonzero(_content_annihilates(module, f_arr) != member)
    if bad.size:
        f_series = window.series(ring, monoid, f_arr[bad[0]].tolist())
        verdict = is_zero_divisor_series(f_series, module)
        return VerificationReport(
            statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
            counterexample={
                "clause": "membership",
                "f": _terms_payload(f_series),
                "is_zero_divisor": verdict.is_zero_divisor,
                "in_extended_union": bool(member[bad[0]]),
            })

    # the primes are maximal, so each holds an element outside each other one
    incomparability = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a = bitset.lowest_bit(prime_masks[i] & ~prime_masks[j])
            const = constant_series(ring, monoid, a)
            if (not extended_ideal_membership(const, ExtendedIdeal(decomp.primes[i], monoid))
                    or extended_ideal_membership(const, ExtendedIdeal(decomp.primes[j], monoid))):
                raise InvariantViolation("incomparability witness failed replay")
            incomparability.append({"i": i, "j": j, "constant_witness": a})

    counterexample = _extended_annihilator_violation(
        ring, module, monoid, window, f_arr, zip(decomp.primes, decomp.witnesses),
        "extended_annihilator")
    if counterexample is not None:
        return VerificationReport(statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                                  counterexample=counterexample)

    details = {
        "degree": n,
        "primes": [list(p.members_tuple()) for p in decomp.primes],
        "very_few": True,
        "primal": n == 1,
        "incomparability_witnesses": incomparability,
        "window_series": nf,
        "witness_checks": n * nf,
    }
    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details)


# ---------------------------------------------------------------------------
# implication chain on finite rings


def verify_finite_ring_chain(ring: FiniteRing) -> VerificationReport:
    """On a finite ring (always Noetherian) check the implications: the ring
    as a module over itself has very few zero-divisors (the reported primes
    cover exactly Z(R)) and admits the incomparable prime decomposition (no
    reported prime contains another). Both hold for every finite ring, since
    Z(R) is the union of Ass(R) and every prime is maximal, so a failure is a
    bug in the decomposition. The non-reversibility half needs infinite rings
    and is reported as out of scope, not tested.
    """
    statement = "finite_ring_chain"
    config = _config_echo(ring=ring)
    module = ring_as_module(ring)
    if module.is_zero_module:
        raise ZeroModuleError(f"{statement} needs a nonzero ring")
    decomp = decompose_zero_divisors(module)
    primes = [list(p.members_tuple()) for p in decomp.primes]
    union = reduce(or_, (p.members for p in decomp.primes), 0)
    uncovered = union ^ zero_divisor_set(module)
    nested = [[i, j] for (i, p), (j, q) in permutations(enumerate(decomp.primes), 2)
              if bitset.is_subset(p.members, q.members)]
    if uncovered:
        a = bitset.lowest_bit(uncovered)
        failure = {"clause": "very_few", "element": a, "in_union": bitset.has_bit(union, a)}
    elif nested:
        failure = {"clause": "incomparable", "pair": nested[0]}
    if uncovered or nested:
        return VerificationReport(statement, OUTCOME_COUNTEREXAMPLE, 2, config,
                                  counterexample={**failure, "primes": primes})
    details = {
        "very_few": True,
        "degree": decomp.degree,
        "primes": primes,
        "non_reversibility": "out of scope (needs infinite rings)",
    }
    return VerificationReport(statement, OUTCOME_PASS, 2, config, details)
