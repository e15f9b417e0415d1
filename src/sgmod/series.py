"""Elements of R[S] and M[S] as normalized finite-support series, and the
content machinery built on them: convolution products, content ideals and
submodules, minimal Dedekind-Mertens exponents, McCoy witnesses, the
content-annihilator zero-divisor test, extended-ideal membership, and the two
explicit constructions that defeat the McCoy property on bad monoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bitset
from .errors import (
    HypothesisError,
    InvariantViolation,
    PreconditionError,
    StructureMismatchError,
    ZeroModuleError,
)
from .finite_algebra import (
    FiniteModule,
    FiniteRing,
    Ideal,
    Submodule,
    annihilator_in_module,
    ideal_action_submodule,
    ideal_power,
    same_module,
    same_ring,
    submodule_generated,
)
from .monoids import Monoid, is_cancellative, is_torsion_free, monoid_scale, same_monoid


@dataclass(frozen=True)
class Series:
    """Finite formal sum of terms coeff * X^exponent with nonzero coefficients.

    Terms are stored sorted by exponent (index order for finite monoids,
    lexicographic for lattice exponent vectors), so equal series compare and
    print identically.
    """

    space: FiniteModule  # a FiniteRing for a series of R[S]
    monoid: Monoid
    terms: tuple[tuple, ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # read once per series: content is memoized on the coefficients, and
    # every product reads the support and coefficients of its right factor
    @cached_property
    def support(self) -> tuple:
        return tuple(e for e, _ in self.terms)

    @cached_property
    def coefficients(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.terms)

    def __repr__(self) -> str:
        if self.is_zero:
            body = "0"
        else:
            body = " + ".join(f"{c}*X^{e}" for e, c in self.terms)
        return f"<{body} over {self.space.label}[{self.monoid.label}]>"


def make_series(space: FiniteModule, monoid: Monoid, terms) -> Series:
    """Normalize a term list: combine equal exponents, drop zero coefficients."""
    acc: dict = {}
    zero = space.zero
    for exponent, coeff in terms:
        if isinstance(exponent, list):
            exponent = tuple(exponent)
        if not monoid.contains(exponent):
            raise StructureMismatchError(
                f"exponent {exponent!r} outside monoid {monoid.label}")
        c = int(coeff)
        if not 0 <= c < space.size:
            raise PreconditionError(f"coefficient {c} outside {space.label}")
        if exponent in acc:
            acc[exponent] = space.add(acc[exponent], c)
        else:
            acc[exponent] = c
    cleaned = tuple(sorted((e, c) for e, c in acc.items() if c != zero))
    return Series(space, monoid, cleaned)


def zero_series(space: FiniteModule, monoid: Monoid) -> Series:
    return Series(space, monoid, ())


def constant_series(space: FiniteModule, monoid: Monoid, coeff: int) -> Series:
    return make_series(space, monoid, [(monoid.identity_key(), coeff)])


def monomial_series(space: FiniteModule, monoid: Monoid, coeff: int, exponent) -> Series:
    return make_series(space, monoid, [(exponent, coeff)])


def _check_same_context(f: Series, g: Series) -> None:
    if f.monoid is not g.monoid and not same_monoid(f.monoid, g.monoid):
        raise StructureMismatchError("series live over different monoids")


def series_add(f: Series, g: Series) -> Series:
    _check_same_context(f, g)
    if f.space is not g.space and not same_module(f.space, g.space):
        raise StructureMismatchError("series live over different coefficient spaces")
    return make_series(f.space, f.monoid, f.terms + g.terms)


def series_neg(f: Series) -> Series:
    return Series(f.space, f.monoid, tuple((e, f.space.neg(c)) for e, c in f.terms))


def series_multiply(f: Series, h: Series) -> Series:
    """Convolution product; the left factor must have ring coefficients.

    Exponents are added in the monoid, coefficients acted on (multiplied, when
    h is a ring series), colliding exponents combined, and zeros dropped. Each
    left term reads its row of the action table and its exponent sums against
    h once.
    """
    if not isinstance(f.space, FiniteRing):
        raise StructureMismatchError("left factor must have ring coefficients")
    _check_same_context(f, h)
    space = h.space
    if not same_ring(f.space, space.ring):
        raise StructureMismatchError("series over different base rings")
    table = space.action_table
    add_table = space.add_table
    monoid = f.monoid
    h_support, h_coeffs = h.support, h.coefficients
    acc: dict = {}
    for s, a in f.terms:
        row = table[a]
        for e, b in zip(monoid.translates(s, h_support), h_coeffs):
            c = row.item(b)
            prev = acc.get(e)
            acc[e] = c if prev is None else add_table.item(prev, c)
    zero = space.zero
    cleaned = tuple(sorted((e, c) for e, c in acc.items() if c != zero))
    return Series(space, monoid, cleaned)


def content(h: Series) -> Ideal | Submodule:
    """Ideal (submodule) generated by the coefficients; empty series gives zero.

    The lattice instance submodule_generated returns, memoized per
    coefficient module on the coefficients; a failed closure stores nothing.
    """
    module = h.space
    coeffs = h.coefficients
    key = ("content", coeffs)
    out = module._cache.get(key)
    if out is None:
        out = submodule_generated(module, coeffs)
        module._cache[key] = out
    return out


def _require_good_monoid(monoid: Monoid, prefix: str) -> None:
    """Raise HypothesisError unless the monoid is cancellative and torsion-free;
    the message starts with prefix, as in "McCoy witness requires"."""
    ok, wit = is_cancellative(monoid)
    if not ok:
        raise HypothesisError(f"{prefix} a cancellative monoid; witness {wit}")
    ok, wit = is_torsion_free(monoid)
    if not ok:
        raise HypothesisError(f"{prefix} a torsion-free monoid; witness {wit}")


@dataclass(frozen=True)
class DMStep:
    k: int
    lhs: Submodule  # c(f)^k c(g)
    rhs: Submodule  # c(f)^(k-1) c(fg)
    equal: bool


@dataclass(frozen=True)
class DMResult:
    """Search transcript for the minimal k with c(f)^k c(g) = c(f)^(k-1) c(fg)."""
    k_min: int | None  # None means the cap was exceeded (inconclusive)
    chain: tuple[DMStep, ...]
    cap_used: int

    # the `dm` payload, built once per memoized transcript by the first command
    # that reaches it; the window verifiers read k_min only and never build it
    @cached_property
    def payload(self) -> dict:
        return {
            "k_min": self.k_min,
            "cap_used": self.cap_used,
            "chain": [{"k": step.k,
                       "lhs": list(step.lhs.members_tuple()),
                       "rhs": list(step.rhs.members_tuple()),
                       "equal": step.equal} for step in self.chain],
        }


def _dm_search(cf: Ideal, cg: Submodule, cfg: Submodule, cap: int) -> DMResult:
    """The Dedekind-Mertens transcript of the contents c(f), c(g) and c(fg).

    It depends on f and g only through these three contents, so it is
    memoized per module on them and the cap.
    """
    module = cg.module
    key = ("dm", cf.members, cg.members, cfg.members, cap)
    hit = module._cache.get(key)
    if hit is not None:
        return hit
    chain = []
    k_min = None
    for k in range(1, cap + 1):
        lhs = ideal_action_submodule(ideal_power(cf, k), cg)
        rhs = ideal_action_submodule(ideal_power(cf, k - 1), cfg)
        equal = lhs.members == rhs.members
        chain.append(DMStep(k, lhs, rhs, equal))
        if equal:
            k_min = k
            break
    out = DMResult(k_min, tuple(chain), cap)
    module._cache[key] = out
    return out


def dedekind_mertens_exponent(f: Series, g: Series, cap: int | None = None) -> DMResult:
    """Minimal k >= 1 with c(f)^k c(g) = c(f)^(k-1) c(fg), searched up to a cap.

    The default cap is |support(g)| + 1, the classical single-variable bound;
    exceeding the cap reports "cap exceeded" rather than fabricating a k.
    When one coefficient of f generates c(f), c(fg) = c(f)c(g) is taken
    without forming fg; otherwise c(fg) is read off the product.
    """
    if not isinstance(f.space, FiniteRing):
        raise StructureMismatchError("f must have ring coefficients")
    _check_same_context(f, g)
    _require_good_monoid(f.monoid, "Dedekind-Mertens search requires")
    if not same_ring(f.space, g.space.ring):
        raise StructureMismatchError("f and g live over different base rings")
    if cap is None:
        cap = len(g.terms) + 1
    if cap < 0:
        raise PreconditionError("cap must be nonnegative")
    cf = content(f)
    cg = content(g)
    if any(submodule_generated(f.space, (a,)) is cf for a in f.coefficients):
        # every coefficient is a*u_i, u_i = 1 at a itself: f = a f' with
        # c(f') = R, so Dedekind-Mertens gives c(f'g) = c(g), and c(fg) = a c(g)
        cfg = ideal_action_submodule(cf, cg)
    else:
        cfg = content(series_multiply(f, g))
    return _dm_search(cf, cg, cfg, cap)


def _killed_by(f: Series, module: FiniteModule) -> np.ndarray:
    """Flags of the module elements m with f * m = 0, read off one gather.

    f * m is the sum of the (a m) X^s over the terms a X^s of f, and s + 0 = s
    keeps the exponents distinct: f kills m iff every coefficient of f does.
    """
    coeffs = np.array(f.coefficients, dtype=np.intp)
    return (module.action_table.take(coeffs, axis=0) == module.zero).all(axis=0)


def _least_killed(f: Series, module: FiniteModule) -> int | None:
    """The least nonzero module element f kills, or None."""
    kills = _killed_by(f, module)
    kills[module.zero] = False
    return int(kills.argmax()) if kills.any() else None


def mccoy_witness(f: Series, g: Series) -> int:
    """A single nonzero module element killed by every coefficient of f.

    Requires fg = 0 with g nonzero over a cancellative torsion-free monoid.
    Follows the constructive recipe: take the least t with c(f)^t c(g) = 0 and
    return the least nonzero element of c(f)^(t-1) c(g). The chain of levels is
    descending, so a repeat before reaching zero would mean no t exists; that
    is impossible under the hypotheses and raises an invariant violation.
    """
    if not isinstance(f.space, FiniteRing):
        raise StructureMismatchError("f must have ring coefficients")
    _check_same_context(f, g)
    _require_good_monoid(f.monoid, "McCoy witness requires")
    if not same_ring(f.space, g.space.ring):
        raise StructureMismatchError("f and g live over different base rings")
    if g.is_zero:
        raise PreconditionError("g must be nonzero")
    if not series_multiply(f, g).is_zero:
        raise PreconditionError("McCoy witness requires f*g = 0")
    m = content_mccoy_witness(content(f), content(g))
    if not _killed_by(f, g.space)[m]:
        raise InvariantViolation("McCoy witness failed replay")
    return m


def content_mccoy_witness(cf: Ideal, cg: Submodule) -> int:
    """The McCoy witness of every vanishing pair with contents cf and cg.

    The least nonzero element of the last nonzero level c(f)^(t-1) c(g) of
    the descending chain c(f)^k c(g); it depends on f and g only through
    their contents, so it is memoized per module on the pair. A chain that
    repeats before reaching zero, impossible when fg = 0 under the monoid
    hypotheses, raises an invariant violation. The caller replays the
    witness against f.
    """
    module = cg.module
    key = ("mccoy", cf.members, cg.members)
    hit = module._cache.get(key)
    if hit is not None:
        return hit
    level = cg  # c(f)^0 c(g)
    zero_mask = 1 << module.zero
    while True:
        nxt = ideal_action_submodule(cf, level)
        if nxt.members == zero_mask:
            break
        if nxt.members == level.members:
            raise InvariantViolation("content chain stabilized above zero")
        level = nxt
    m = bitset.lowest_bit(level.members & ~zero_mask)
    if m is None:
        raise InvariantViolation("no nonzero element at the last nonzero level")
    module._cache[key] = m
    return m


@dataclass(frozen=True)
class ZeroDivisorVerdict:
    is_zero_divisor: bool
    witness: int | None          # nonzero m with f*m = 0, replay-verified
    annihilator: Submodule       # Ann_M(c(f)), the evidence either way

    # the `zdtest` payload, built once per memoized verdict
    @cached_property
    def payload(self) -> dict:
        return {"is_zero_divisor": self.is_zero_divisor,
                "witness": self.witness,
                "annihilator": list(self.annihilator.members_tuple())}


def is_zero_divisor_series(f: Series, module: FiniteModule) -> ZeroDivisorVerdict:
    """Decide membership of f in the zero-divisors of M[S] via content annihilators.

    A nonzero annihilator of c(f) yields a verified constant witness; a zero
    annihilator certifies regularity. This makes the test decidable although
    M[S] itself is infinite. The verdict depends on f only through
    Ann_M(c(f)), so it is memoized per module on the annihilator's members;
    the witness is replayed against this f on every call, hit or miss.
    """
    if not isinstance(f.space, FiniteRing):
        raise StructureMismatchError("f must have ring coefficients")
    if not same_ring(f.space, module.ring):
        raise StructureMismatchError("module over a different base ring")
    if module.is_zero_module:
        raise ZeroModuleError("zero-divisor test needs a nonzero module")
    _require_good_monoid(f.monoid, "zero-divisor test requires")
    # Ann_M(c(f)) is the intersection of the Ann_M(a) over the coefficients a
    ann = annihilator_in_module(f.coefficients, module)
    key = ("zdv", ann.members)
    verdict = module._cache.get(key)
    if verdict is None:
        # the least nonzero element of the annihilator, if any, is the witness
        nonzero = ann.members & ~(1 << module.zero)
        verdict = module._cache[key] = ZeroDivisorVerdict(
            nonzero != 0, bitset.lowest_bit(nonzero), ann)
    if verdict.is_zero_divisor and not _killed_by(f, module)[verdict.witness]:
        raise InvariantViolation("zero-divisor witness failed replay")
    return verdict


@dataclass(frozen=True)
class ExtendedIdeal:
    """An ideal of R viewed inside R[S]; membership is coefficient-wise."""
    base: Ideal
    monoid: Monoid


def extended_ideal_membership(f: Series, extended: ExtendedIdeal) -> bool:
    if not isinstance(f.space, FiniteRing):
        raise StructureMismatchError("membership applies to ring series")
    if not same_ring(f.space, extended.base.ring):
        raise StructureMismatchError("extended ideal over a different ring")
    if f.monoid is not extended.monoid and not same_monoid(f.monoid, extended.monoid):
        raise StructureMismatchError("extended ideal over a different monoid")
    return all(extended.base.contains(c) for c in f.coefficients)


def build_noncancellative_counterexample(monoid: Monoid, witness, module: FiniteModule,
                                         q: int) -> tuple[Series, Series]:
    """The pair f = X^s, g = q X^t - q X^u defeating the McCoy property.

    Needs a cancellation failure s+t = s+u with t != u and a nonzero q. The
    returned identities (fg = 0, and f*m != 0 for every nonzero m) are replayed
    before returning; a replay failure is an implementation bug.
    """
    s, t, u = witness
    for e in (s, t, u):
        if not monoid.contains(e):
            raise PreconditionError(f"witness element {e!r} outside {monoid.label}")
    if t == u:
        raise PreconditionError("witness needs t != u")
    if monoid.add(s, t) != monoid.add(s, u):
        raise PreconditionError("witness fails s+t = s+u")
    if not 0 <= q < module.size or q == module.zero:
        raise PreconditionError("q must be a nonzero module element")
    ring = module.ring
    f = monomial_series(ring, monoid, ring.one, s)
    g = make_series(module, monoid, [(t, q), (u, module.neg(q))])
    if g.is_zero or len(g.terms) != 2:
        raise InvariantViolation("counterexample series g degenerated")
    if not series_multiply(f, g).is_zero:
        raise InvariantViolation("f*g did not vanish on replay")
    m = _least_killed(f, module)
    if m is not None:
        raise InvariantViolation(f"f unexpectedly kills module element {m}")
    return f, g


def build_torsion_counterexample(monoid: Monoid, s, t, module: FiniteModule,
                                 q: int) -> tuple[int, Series, Series]:
    """The factorization 0 = (sum_i X^((k-i-1)s + it)) (q X^s - q X^t).

    Requires a cancellative monoid with torsion: s != t but ks = kt for the
    minimal k found within the order^2 pigeonhole bound. Cancellativity plus
    minimality of k make the k exponents of the left factor distinct; that and
    the vanishing product are replayed before returning.
    """
    ok, wit = is_cancellative(monoid)
    if not ok:
        raise HypothesisError(f"torsion construction assumes cancellativity; witness {wit}")
    for e in (s, t):
        if not monoid.contains(e):
            raise PreconditionError(f"element {e!r} outside {monoid.label}")
    if s == t:
        raise PreconditionError("torsion construction needs s != t")
    if not 0 <= q < module.size or q == module.zero:
        raise PreconditionError("q must be a nonzero module element")
    if not monoid.is_finite:
        raise PreconditionError("no torsion: distinct lattice vectors never merge")
    bound = monoid.order ** 2
    k = None
    xs, xt = s, t
    for n in range(1, bound + 1):
        if n > 1:
            xs = monoid.add(xs, s)
            xt = monoid.add(xt, t)
        if xs == xt:
            k = n
            break
    if k is None:
        raise PreconditionError(f"no torsion for this pair within the bound {bound}")
    ring = module.ring
    terms = []
    for i in range(k):
        e = monoid.add(monoid_scale(monoid, k - i - 1, s), monoid_scale(monoid, i, t))
        terms.append((e, ring.one))
    h = make_series(ring, monoid, terms)
    if len(h.terms) != k:
        raise InvariantViolation("left factor exponents collided")
    g = make_series(module, monoid, [(s, q), (t, module.neg(q))])
    if g.is_zero:
        raise InvariantViolation("right factor degenerated")
    if not series_multiply(h, g).is_zero:
        raise InvariantViolation("h*g did not vanish on replay")
    return k, h, g
