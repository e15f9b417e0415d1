"""Window-exhaustive verification of the transfer statements.

Each verifier enumerates every coefficient assignment over a fixed exponent
window, checks the statement on every instance, and reports pass /
counterexample / skipped. Window products come from one block kernel,
_block_product, on one pair per unit-orbit pair where every clause is
constant on orbits (_window_orbits, _least_pair), and on one f per residue
class modulo each associated prime in the partner search of
regularity_transfer (_socle_partner_search). Contents c(f) come from
the persistent submodule lattice (submodule_lattice), and content
annihilators from the per-element annihilators of the coefficients
(_content_annihilates). mccoy_equivalence walks a wide full window over a
non-local ring one local factor at a time (_mccoy_equivalence_by_factors),
and replays its McCoy witnesses once per distinct (f row, witness).
Every window verifier reads the exponents only through the window's sum
pattern (SupportWindow.sum_pattern), apart from the membership check and the
series it reports or replays. So windows of one pattern give one payload up
to the config echo and the exponents of its series, and a session reuses a
payload that holds no series across them (session._cmd_verify).
A counterexample on hypothesis-satisfying inputs signals an implementation
bug (the statements are proven); its payload always replays through the
public operations.

Windows only slice the infinite algebras: the content-annihilator criterion is
the authoritative zero-divisor membership test, and the window search for an
annihilating partner acts as a one-sided oracle (a hit confirms, absence within
the window never refutes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import permutations
from operator import or_

import numpy as np

from . import bitset
from .errors import (
    InvariantViolation,
    PreconditionError,
    ZeroModuleError,
)
from .finite_algebra import (
    FiniteModule,
    FiniteRing,
    Ideal,
    Submodule,
    _cosets,
    annihilator_in_module,
    associated_primes,
    classify_submodule,
    ideal_action_submodule,
    ideal_generated,  # noqa: F401  unused; the benchmark's tracer tests assert this binding
    ideal_product,
    idempotents,
    local_factors,
    prime_ideals,
    same_ring,
    submodule_lattice,
    units,
    zero_divisor_set,
)
from .monoids import Monoid, is_cancellative, is_torsion_free
from .series import (
    ExtendedIdeal,
    Series,
    _dm_search,
    _least_killed,
    _require_good_monoid,
    build_noncancellative_counterexample,
    build_torsion_counterexample,
    constant_series,
    content_mccoy_witness,
    extended_ideal_membership,
    is_zero_divisor_series,
    series_multiply,
)
from .window import SupportWindow, _WindowOrbits, _window_orbits
from .zd import decompose_zero_divisors

DEFAULT_BUDGET = 10_000_000
_BLOCK_ROWS = 1 << 16
_BLOCK_PAIRS = 1 << 12

OUTCOME_PASS = "pass"
OUTCOME_COUNTEREXAMPLE = "counterexample"
OUTCOME_SKIPPED = "skipped"


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


def _window_echo(window: SupportWindow) -> list:
    """The window's exponents as its config echo lists them."""
    return [list(e) if isinstance(e, tuple) else e for e in window.exponents]


def _config_echo(window: SupportWindow | None = None, budget: int | None = None,
                 **objects) -> dict:
    cfg = {k: v.label for k, v in objects.items() if v is not None}
    if window is not None:
        cfg["window"] = _window_echo(window)
        if window.max_support is not None:
            cfg["max_support"] = window.max_support
    if budget is not None:
        cfg["budget"] = budget
    return cfg


def _window_config(statement: str, ring: FiniteRing | None, module: FiniteModule | None,
                   monoid: Monoid, window: SupportWindow, budget: int, *,
                   nonzero_module: bool, good_monoid: bool) -> dict:
    """The argument checks of a window verifier, then its config echo.

    In this order: a nonzero module where the statement needs one, a module
    over the given ring (no check without a ring or a module), a cancellative
    and torsion-free monoid where the statement assumes one, and window
    exponents in the monoid. A ring or module of None is not echoed.
    """
    if nonzero_module and module.is_zero_module:
        raise ZeroModuleError(f"{statement} needs a nonzero module")
    if ring is not None and module is not None and not same_ring(ring, module.ring):
        raise PreconditionError("module is not over the given ring")
    if good_monoid:
        _require_good_monoid(monoid, f"{statement} assumes")
    window.validate_for(monoid)
    return _config_echo(window=window, budget=budget, ring=ring, module=module, monoid=monoid)


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


def _block_product(left: np.ndarray, table, add_table, right: np.ndarray,
                   layout) -> np.ndarray:
    """Coefficients of f * g for every left tuple f and right-hand tuple g.

    left is an (F, E) block of left tuples, table[a] the multiplication (or
    action) row of the coefficient a, add_table the target's addition, right
    the (N, E) window array and layout the window's sum_pattern.
    Returns an (n_prod, F, N) intp array; [:, a, b] holds left[a] * right[b].
    The tables are the stored int32 ones, and no whole table is copied. On a
    wide right, each gathered (F, |target|) row block is cast to intp once,
    so every term and partial sum is an intp index array and no later gather
    casts one. When the N * E cells read per left column are fewer than
    |target|, each (F, N) term is gathered from the table directly instead.
    """
    n_prod, pos = layout
    acc = np.empty((n_prod, len(left), len(right)), dtype=np.intp)
    # every product position receives a term: the first is stored, later ones added
    stored = [False] * n_prod
    narrow = len(right) * left.shape[1] < table.shape[1]
    for i in range(left.shape[1]):
        if narrow:
            column = left[:, i, None]
        else:
            rows = table.take(left[:, i], axis=0).astype(np.intp, copy=False)
        for j, k in enumerate(pos[i]):
            # one take and no index arithmetic: every extra (F, N) temporary
            # page-faults afresh on wide windows
            term = table[column, right[:, j]] if narrow else rows.take(right[:, j], axis=1)
            if stored[k]:
                acc[k] = add_table[acc[k], term]
            else:
                acc[k] = term
                stored[k] = True
    return acc


def _left_blocks(left: np.ndarray, right: np.ndarray) -> list:
    """Slices of left rows holding at most _BLOCK_PAIRS pairs against the
    nonempty right, and at least one row each, in order."""
    step = max(1, _BLOCK_PAIRS // len(right))
    return [slice(start, start + step) for start in range(0, len(left), step)]


def _first_hits(hit: np.ndarray) -> np.ndarray:
    """Per row of hit, its first True column, or the width when it has none."""
    return np.where(hit.any(axis=1), hit.argmax(axis=1), hit.shape[1])


def _least_pair(fo: _WindowOrbits, go: _WindowOrbits, failing: np.ndarray,
                end: np.ndarray) -> tuple | None:
    """The least row pair (f, g) of a failure on whole orbit pairs, or None.

    failing[i] flags the left orbit i (none past failing), and end[i] is its
    first failing right orbit, or len(go.reps) when f fails alone, reported
    with g = len(go.coeffs). Orbits are numbered by their least members, which
    form the least pair.
    """
    bad = np.flatnonzero(failing)
    if not bad.size:
        return None
    gi = int(end[bad[0]])
    return int(fo.reps[bad[0]]), int(go.reps[gi]) if gi < len(go.reps) else len(go.coeffs)


def _content_annihilates(module: FiniteModule, coeffs: np.ndarray) -> np.ndarray:
    """Per row f of coeffs, whether Ann_M(c(f)) is nonzero.

    The ring elements killing a module element form an ideal, so
    Ann_M(c(f)) is the intersection of the Ann_M(a) over the coefficients a
    of f: the rows of action_table == zero, without the column of zero, are
    intersected as packed bit rows, and no content ideal is closed. Rows are
    taken in blocks so the packed rows in flight stay bounded.
    """
    kills = module.action_table == module.zero
    kills[:, module.zero] = False
    kills = np.packbits(kills, axis=1)
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

    A window too wide for one block of orbit pairs over a non-local ring is
    checked one local factor at a time (_mccoy_equivalence_by_factors), and
    walked as a whole only when a factor does not pass.

    Instances: window.count(|R|) * window.count(|M|) window pairs on the good
    branch, (|M|-1)^2 construction replays on the failure branch.
    """
    statement = "mccoy_equivalence"
    config = _window_config(statement, ring, module, monoid, window, budget,
                            nonzero_module=True, good_monoid=False)
    canc, canc_wit = is_cancellative(monoid)
    # the torsion witness is read only on cancellative monoids
    tf, tf_wit = is_torsion_free(monoid) if canc else (False, None)

    if canc and tf:
        predicted = window.count(ring.size) * window.count(module.size)
    else:
        predicted = (module.size - 1) ** 2
    if predicted > budget:
        return _skipped(statement, config, predicted, budget)
    if not (canc and tf):
        return _mccoy_equivalence_bad(module, monoid, config, predicted, statement,
                                      canc, canc_wit, tf_wit)
    # a full window over R is the product of the factor windows, and a walk
    # that fits one block of orbit pairs gains nothing from the split
    if (window.max_support is None and len(idempotents(ring)) > 2
            and predicted > _BLOCK_PAIRS * len(units(ring)) ** 2):
        report = _mccoy_equivalence_by_factors(module, monoid, window, config, predicted,
                                               statement)
        if report is not None:
            return report
    return _mccoy_equivalence_good(ring, module, monoid, window, config, predicted, statement)


def _mccoy_pass(statement, config, predicted, max_k, zero_product_pairs,
                series) -> VerificationReport:
    # a pass has checked the witness of every vanishing pair
    details = {
        "branch": "hypotheses_hold",
        "pairs": predicted,
        "max_dm_exponent": max_k,
        "zero_product_pairs": zero_product_pairs,
        "mccoy_witnesses_verified": zero_product_pairs,
        "content_criterion_series": series,
    }
    return VerificationReport(statement, OUTCOME_PASS, predicted, config, details)


def _mccoy_equivalence_by_factors(module, monoid, window, config, predicted,
                                  statement) -> VerificationReport | None:
    """The passing report of the product window from one walk per local
    factor eR with eM ≠ 0, or None when a factor walk does not pass.

    R[S] ≅ ∏ (eR)[S] and M[S] ≅ ⊕ (eM)[S], and a full window over R is the
    product of the factor windows F_e, so fg = 0 iff ef·eg = 0 for every e.
    Contents, their annihilators and the Dedekind-Mertens identity split the
    same way, so every pair passes iff every factor pair does, and the least
    exponent of a pair is the largest over its factors (k = 1 where eM = 0).
    With Z_e the vanishing factor pairs with eg ≠ 0, the vanishing pairs
    with g ≠ 0 number ∏ (Z_e + |F_e|) − ∏ |F_e|; each has the witness of a
    factor pair lifted through e, and that witness was replayed in its factor.
    """
    series = vanishing = max_k = 1
    for factor in local_factors(module):
        count = window.count(factor.ring.size)
        series *= count
        if factor.module.is_zero_module:
            vanishing *= count
            continue
        report = _mccoy_equivalence_good(factor.ring, factor.module, monoid, window, config,
                                         count * window.count(factor.module.size), statement)
        if report.outcome != OUTCOME_PASS:
            return None
        vanishing *= report.details["zero_product_pairs"] + count
        max_k = max(max_k, report.details["max_dm_exponent"])
    return _mccoy_pass(statement, config, predicted, max_k, vanishing - series, series)


def _mccoy_equivalence_good(ring, module, monoid, window, config, predicted,
                            statement) -> VerificationReport:
    """Walks the window up to units. For units u and v, c(uf) = c(f),
    c(vg) = c(g) and (uf)(vg) = uv·fg, so each pair's Dedekind-Mertens
    instance (c(f), c(g), c(fg), cap), whether fg vanishes and its McCoy
    witness are those of its orbit pair. Left orbits go in blocks of at most
    _BLOCK_PAIRS pairs against the right orbits, each orbit represented by its
    least member. Each instance is packed over the content ids into one code,
    and the search runs once per distinct instance. Ann_M(c(f)) is constant on
    an orbit too, so each left orbit checks the content criterion against its
    window partner. The least failing pair is reported (_least_pair).

    The McCoy witness of a vanishing pair reads only the two contents, and
    its replay only f and the witness. So a block keeps only the distinct
    (left orbit, c(g)) keys of its vanishing pairs before the orbit's first
    Dedekind-Mertens failure, and after the walk every f row up to the
    reported one is checked once against each witness its orbit needs: the
    checks of every vanishing pair before the reported pair, each once."""
    layout = window.sum_pattern(monoid)
    mzero = module.zero
    fo = _window_orbits(ring, window)
    go = _window_orbits(module, window)
    f_reps, g_reps = fo.coeffs[fo.reps], go.coeffs[go.reps]
    ann_nonzero = _content_annihilates(module, f_reps)
    ideals = submodule_lattice(ring)
    subs = submodule_lattice(module)
    g_nonzero = (g_reps != mzero).any(axis=1)
    # Dedekind-Mertens with the default cap |support(g)| + 1
    g_cap = (g_reps != mzero).sum(axis=1) + 1
    g_cg = subs.ids(g_reps)
    n_g = len(g_reps)

    @cache
    def k_min(cf_id, cg_id, cfg_id, cap):
        # 0 stands for "no exponent within the cap"
        return _dm_search(ideals.objects[cf_id], subs.objects[cg_id], subs.objects[cfg_id],
                          cap).k_min or 0

    # per left orbit: its content id, its first failing right orbit (n_g for
    # none), and whether a vanishing product with a nonzero g comes before it
    cf = np.zeros(len(f_reps), dtype=np.intp)
    end = np.full(len(f_reps), n_g)
    killed = np.zeros(len(f_reps), dtype=bool)
    # per block, the distinct codes left orbit * n_cg + c(g) id of its
    # vanishing pairs before the cut; the walk adds no c(g) id
    n_cg = len(subs.objects)
    keys = []
    zero_product_pairs = 0
    max_k = 0

    for rows in _left_blocks(f_reps, g_reps):
        f_block = f_reps[rows]
        cf[rows] = ideals.ids(f_block)
        block = _block_product(f_block, module.action_table, module.add_table, g_reps, layout)
        cfg = subs.ids(block.reshape(layout[0], -1).T).reshape(len(f_block), n_g)
        dims = (len(ideals.objects), len(subs.objects), len(subs.objects),
                len(window.exponents) + 2)
        codes = np.ravel_multi_index((cf[rows, None], g_cg, cfg, g_cap), dims).ravel()
        distinct, inverse = np.unique(codes, return_inverse=True)
        instances = zip(*(a.tolist() for a in np.unravel_index(distinct, dims)))
        k_of = np.array([k_min(*key) for key in instances], dtype=np.int64)
        k_block = k_of[inverse].reshape(len(f_block), n_g)
        end[rows] = _first_hits(k_block == 0)
        vanish = ((block == mzero).all(axis=0) & g_nonzero
                  & (np.arange(n_g) < end[rows, None]))
        killed[rows] = vanish.any(axis=1)
        f_orbits, g_orbits = np.nonzero(vanish)
        f_orbits += rows.start
        zero_product_pairs += int((fo.sizes[f_orbits] * go.sizes[g_orbits]).sum())
        # return_inverse keeps np.unique off numpy.ma
        keys.append(np.unique(f_orbits * n_cg + g_cg[g_orbits], return_inverse=True)[0])
        if (end[rows] < n_g).any():
            # every f in a later orbit comes after this failing least member
            break
        max_k = max(max_k, int(k_block.max()))

    # the least pair failing a check, among the orbits walked; the replay
    # ends at its f row and its left orbit
    least = _least_pair(fo, go, ((end < n_g) | (killed != ann_nonzero))[:rows.stop], end)
    last = int(fo.orbit[least[0]]) if least else len(f_reps) - 1
    f_rows = fo.coeffs[:least[0] + 1] if least else fo.coeffs

    # one witness per content pair (c(f), c(g)) of those orbits' vanishing
    # pairs, and each f row checked once against every witness its orbit needs
    keys = np.concatenate(keys)
    f_orbits, cg_ids = np.divmod(keys[keys < (last + 1) * n_cg], n_cg)
    pairs, witness_of = np.unique(cf[f_orbits] * n_cg + cg_ids, return_inverse=True)
    witnesses = np.array([content_mccoy_witness(ideals.objects[i], subs.objects[j])
                          for i, j in zip(*(a.tolist() for a in np.divmod(pairs, n_cg)))],
                         dtype=np.intp)[witness_of]
    row_orbits = fo.orbit[:len(f_rows)]
    for m in sorted(set(witnesses.tolist())):
        needs = np.zeros(len(f_reps), dtype=bool)
        needs[f_orbits[witnesses == m]] = True
        replay = f_rows[needs[row_orbits]]
        _replay_mccoy_witnesses(module, replay, np.full(len(replay), m))
    if least is not None:
        f_coeffs = f_reps[last].tolist()
        gi = int(end[last])
        if gi < n_g:
            return VerificationReport(
                statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                counterexample={
                    "clause": "dedekind_mertens",
                    "f": _terms_payload(window.series(ring, monoid, f_coeffs)),
                    "g": _terms_payload(window.series(module, monoid, g_reps[gi].tolist())),
                    "reason": f"no exponent within cap {int(g_cap[gi])}",
                })
        return VerificationReport(
            statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
            counterexample={
                "clause": "content_annihilator",
                "f": _terms_payload(window.series(ring, monoid, f_coeffs)),
                "annihilator_nonzero": bool(ann_nonzero[last]),
                "window_partner_found": bool(killed[last]),
            })

    return _mccoy_pass(statement, config, predicted, max_k, zero_product_pairs, len(fo.coeffs))


def _mccoy_equivalence_bad(module, monoid, config, predicted, statement, canc, canc_wit,
                           tf_wit) -> VerificationReport:
    nz = [m for m in module.elements() if m != module.zero]
    constructions = []
    if not canc:
        for q in nz:
            # the construction itself replays that f kills no nonzero m
            f, g = build_noncancellative_counterexample(monoid, canc_wit, module, q)
            constructions.append({"q": q, "f": _terms_payload(f), "g": _terms_payload(g)})
        branch = "not_cancellative"
        witness = list(canc_wit)
    else:
        s, t, _ = tf_wit
        k = None
        for q in nz:
            k, h, g = build_torsion_counterexample(monoid, s, t, module, q)
            m = _least_killed(h, module)
            if m is not None:
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
    Units keep (0) and every p, so (1) and (2) are read off one product per
    orbit pair, and the first failing clause is reported at its least pair.

    Instances: domain pairs + |primes| * |R[S] window|^2 + |Ass| * |R[S] window|.
    """
    statement = "domain_prime_extension"
    config = _window_config(statement, ring, module, monoid, window, budget,
                            nonzero_module=False, good_monoid=True)
    nf = window.count(ring.size)
    primes = prime_ideals(ring)
    is_domain = not ring.is_zero_ring and zero_divisor_set(ring) == (1 << ring.zero)
    ass = associated_primes(module) if module is not None and not module.is_zero_module else []
    clause1 = (nf - 1) ** 2 if is_domain else 1
    predicted = clause1 + len(primes) * nf * nf + len(ass) * nf
    if predicted > budget:
        return _skipped(statement, config, predicted, budget)

    details: dict = {"ring_is_domain": is_domain, "primes_checked": len(primes),
                     "associated_primes_checked": len(ass)}
    if is_domain:
        details["domain_pairs"] = clause1
    elif ring.is_zero_ring:
        # zero ring: 1 = 0 embeds, nothing further to exhibit
        details["non_domain_witness"] = None
    else:
        # the least nonzero pair with ab = 0, in index order: a is the least
        # nonzero zero-divisor, b the least nonzero element it kills
        nonzero = ~(1 << ring.zero)
        a = bitset.lowest_bit(zero_divisor_set(ring) & nonzero)
        b = bitset.lowest_bit(bitset.mask_from_bools(ring.mul_table[a] == ring.zero) & nonzero)
        fa = constant_series(ring, monoid, a)
        fb = constant_series(ring, monoid, b)
        if not series_multiply(fa, fb).is_zero:
            raise PreconditionError("non-domain witness failed to embed")
        details["non_domain_witness"] = [a, b]

    # clause k fails at (f, g) outside masks[k][S] with fg inside it: the
    # domain clause is the zero ideal (0) and outranks the primes, in order.
    # end[k, i] is the first right orbit failing clause k against left orbit i
    layout = window.sum_pattern(monoid)
    fo = _window_orbits(ring, window)
    reps = fo.coeffs[fo.reps]
    first_prime = int(is_domain)  # index of primes[0] among the clauses
    masks = ([1 << ring.zero] if is_domain else []) + [p.members for p in primes]
    inside = [bitset.bools_from_mask(mask, ring.size) for mask in masks]
    outside = [~member[reps].all(axis=1) for member in inside]
    end = np.empty((len(masks), len(reps)), dtype=np.intp)
    for rows in _left_blocks(reps, reps):
        prod = _block_product(reps[rows], ring.mul_table, ring.add_table, reps, layout)
        for k, member in enumerate(inside):
            end[k, rows] = _first_hits(member[prod].all(axis=0) & outside[k][rows, None]
                                       & outside[k])
    for k, clause_end in enumerate(end):
        least = _least_pair(fo, fo, clause_end < len(reps), clause_end)
        if least is not None:
            f_series, g_series = (window.series(ring, monoid, fo.coeffs[i].tolist())
                                  for i in least)
            clause = {"clause": "domain_transfer"}
            if k >= first_prime:
                p = primes[k - first_prime]
                if not extended_ideal_membership(series_multiply(f_series, g_series),
                                                 ExtendedIdeal(p, monoid)):
                    raise InvariantViolation("extended prime violation failed replay")
                clause = {"clause": "extended_prime", "prime": list(p.members_tuple())}
            return VerificationReport(statement, OUTCOME_COUNTEREXAMPLE, predicted, config,
                                      counterexample={**clause, "f": _terms_payload(f_series),
                                                      "g": _terms_payload(g_series)})

    # both sides of clause (3) are unit-invariant, and the least members
    # ascend, so the least failing representative is the least failing row
    counterexample = _extended_annihilator_violation(ring, module, monoid, window, reps, ass,
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
    expected violation. Units keep P and c(r), so the hits are read off one
    product per orbit pair, and the facts of c(r) once per content id.

    Instances: |R[S] window| * |M[S] window| pairs.
    """
    statement = "submodule_transfer"
    config = _window_config(statement, None, module, monoid, window, budget,
                            nonzero_module=False, good_monoid=True)
    ring = module.ring
    config["submodule"] = list(sub.members_tuple())
    classification = classify_submodule(module, sub)
    predicted = window.count(ring.size) * window.count(module.size)
    if predicted > budget:
        return _skipped(statement, config, predicted, budget)

    layout = window.sum_pattern(monoid)
    in_p = bitset.bools_from_mask(sub.members, module.size)
    full = Submodule(module, module.full_mask)
    contents = submodule_lattice(ring)

    @cache
    def facts_for(cid):
        # (c(r) M inside P, c(r)^n M inside P for some n)
        cr = power = contents.objects[cid]
        while not bitset.is_subset(ideal_action_submodule(power, full).members, sub.members):
            nxt = ideal_product(power, cr)
            if nxt.members == power.members:  # stabilized above P: no power works
                return False, False
            power = nxt
        return power is cr, True

    # the least hit (r, x) of each left orbit: rx in P[S], x outside P[S]
    ro, xo = _window_orbits(ring, window), _window_orbits(module, window)
    r_reps, x_reps = ro.coeffs[ro.reps], xo.coeffs[xo.reps]
    x_outside = ~in_p[x_reps].all(axis=1)
    end = np.empty(len(r_reps), dtype=np.intp)
    for rows in _left_blocks(r_reps, x_reps):
        block = _block_product(r_reps[rows], module.action_table, module.add_table, x_reps,
                               layout)
        end[rows] = _first_hits(in_p[block].all(axis=0) & x_outside)
    # the facts of every left orbit with a hit, read once per content id
    hit = np.flatnonzero(end < len(x_reps))
    ok = np.ones((len(r_reps), 2), dtype=bool)
    for i, cid in zip(hit.tolist(), contents.ids(r_reps[hit]).tolist()):
        ok[i] = facts_for(cid)
    violations = []
    for clause_ok in ok.T:  # prime, then primary
        least = _least_pair(ro, xo, ~clause_ok, end)
        violations.append(least and {
            "r": _terms_payload(window.series(ring, monoid, ro.coeffs[least[0]].tolist())),
            "x": _terms_payload(window.series(module, monoid, xo.coeffs[least[1]].tolist()))})
    prime_violation, primary_violation = violations
    if primary_violation is not None:
        primary_violation["exponent_bound"] = ring.size

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


def _partner_search(module: FiniteModule, f_arr: np.ndarray, partners: np.ndarray,
                    layout) -> np.ndarray:
    """Per row f of f_arr, whether f * g = 0 for some row g of partners."""
    verdicts = np.empty(len(f_arr), dtype=bool)
    for rows in _left_blocks(f_arr, partners):
        acc = _block_product(f_arr[rows], module.action_table, module.add_table, partners,
                             layout)
        verdicts[rows] = (acc == module.zero).all(axis=0).any(axis=1)
    return verdicts


def _residue_classes(ring: FiniteRing, window: SupportWindow, p: Ideal,
                     f_arr: np.ndarray) -> tuple[np.ndarray, int]:
    """The residue class modulo p[S] of each row f of f_arr, and the number
    of classes in the window.

    A class is the rank of the coset tuple of f in the window over R/p, whose
    zero is the coset of zero; a residue has at most the support of f, so the
    ranks stay below the window count over R/p, at most the rows of the
    window, exact where mixed-radix codes |R/p|^E would overflow.
    """
    cosets, coset_of = _cosets(ring.add_table, p.members)
    residues = coset_of[f_arr]
    weights, base = window.rank_weights(len(cosets), int(coset_of[ring.zero]), residues)
    return weights.take(base + residues).sum(axis=1), window.count(len(cosets))


def _socle_partner_search(module: FiniteModule, window: SupportWindow, f_arr: np.ndarray,
                          layout) -> np.ndarray:
    """Per row f of f_arr, whether f * g = 0 for some nonzero window tuple g
    over (0 :_M p), for some p in Ass(M).

    p kills (0 :_M p), so f * g depends on f only through its residue class
    modulo p[S] (_residue_classes): the search runs once per class, on its
    least f, and the class verdict goes to every row of the class. Where
    every row fits in one block against the partners, the classes would save
    no block, so the rows are searched as they are.
    """
    found = np.zeros(len(f_arr), dtype=bool)
    for p, _ in associated_primes(module):
        socle = np.array(annihilator_in_module(p, module).members_tuple(), dtype=np.intp)
        partners = socle[window.coeff_array(len(socle), int(np.searchsorted(socle, module.zero)))]
        partners = np.asfortranarray(partners[(partners != module.zero).any(axis=1)])
        if len(f_arr) * len(partners) <= _BLOCK_PAIRS:
            found |= _partner_search(module, f_arr, partners, layout)
            continue
        class_of, count = _residue_classes(module.ring, window, p, f_arr)
        least = np.full(count, len(f_arr))
        np.minimum.at(least, class_of, np.arange(len(f_arr)))
        met = np.flatnonzero(least < len(f_arr))
        verdict = np.zeros(count, dtype=bool)
        verdict[met] = _partner_search(module, f_arr[least[met]], partners, layout)
        found |= verdict[class_of]
    return found


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
    coefficient c, so m is in Ass(M). Since p kills the partners over
    (0 :_M p), f g = f' g there whenever f - f' lies in p[S], so the search
    runs once per residue class of f modulo p[S] (_socle_partner_search).

    The public test sees f only through c(f), so it runs on the least f of
    each content only: its regular verdicts are checked there, and its
    witness replays on every zero-divisor f of the content. It is not run on
    a content whose least f lies past the reported f.

    Instances: |R[S] window| adjudicated series; the budget charges the full
    search, |R[S] window| * |M[S] window| pairs, of which the class
    representatives against the socle partners are a subset.
    """
    statement = "regularity_transfer"
    config = _window_config(statement, ring, module, monoid, window, budget,
                            nonzero_module=True, good_monoid=True)

    nf = window.count(ring.size)
    ng = window.count(module.size)
    if nf * ng > budget:
        return _skipped(statement, config, nf * ng, budget)

    layout = window.sum_pattern(monoid)
    f_arr = window.coeff_array(ring.size, ring.zero)
    by_content = _content_annihilates(module, f_arr)
    by_search = _socle_partner_search(module, window, f_arr, layout)
    mismatch = np.flatnonzero(by_content != by_search)
    last = int(mismatch[0]) if mismatch.size else nf
    # contents in the order of their least f, until one lies past the least
    # disagreeing f found so far
    contents = submodule_lattice(ring)
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
    config = _window_config(statement, ring, module, monoid, window, budget,
                            nonzero_module=True, good_monoid=True)

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
    if ring.is_zero_ring:
        raise ZeroModuleError(f"{statement} needs a nonzero ring")
    decomp = decompose_zero_divisors(ring)
    primes = [list(p.members_tuple()) for p in decomp.primes]
    union = reduce(or_, (p.members for p in decomp.primes), 0)
    uncovered = union ^ zero_divisor_set(ring)
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
