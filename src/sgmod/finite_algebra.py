"""Finite commutative rings, ideals, modules and submodules as explicit tables.

Element identity is the table index, subsets are bit masks, and every predicate
is a finite scan, so all outputs are deterministic and replayable. Constructors
validate the full axiom tables on the way in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from . import bitset
from ._tables import (
    INDEX_DTYPE,
    as_index_table,
    additive_generators,
    additive_on,
    associates_on,
    audit_abelian_group,
    audit_associative,
    audit_commutative,
    audit_distributive,
    audit_group_rows,
    audit_identity,
    hit_mask,
    submatrix,
)
from .errors import (
    AxiomError,
    InvariantViolation,
    PreconditionError,
    SizeCapError,
    StructureMismatchError,
    ZeroModuleError,
)

# the most elements of any ring or module, checked before a table is read or built
SIZE_CAP = 4096


def _check_size(size: int, what: str) -> None:
    if size > SIZE_CAP:
        raise SizeCapError(f"{what} {size} exceeds cap {SIZE_CAP}")


class FiniteModule:
    """A finite unital module over a FiniteRing, given by add and action tables."""

    def __init__(self, ring: FiniteRing, add_table, action_table, zero: int,
                 label: str = "M"):
        m = len(add_table)
        _check_size(m, "module size")
        self.ring = ring
        self.add_table = as_index_table(add_table, m, m, f"module '{label}' add table")
        self.action_table = as_index_table(action_table, ring.size, m,
                                           f"module '{label}' action table")
        self.zero = int(zero)
        self.label = label
        validate_module(self)
        self.neg_table = np.argmax(self.add_table == self.zero, axis=1).astype(INDEX_DTYPE)
        self._cache: dict = {}

    @property
    def size(self) -> int:
        return self.add_table.shape[0]

    @property
    def is_zero_module(self) -> bool:
        return self.size == 1

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def elements(self) -> range:
        return range(self.size)

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[x, y])

    def act(self, r: int, x: int) -> int:
        return int(self.action_table[r, x])

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def __repr__(self) -> str:
        return f"FiniteModule({self.label!r}, size={self.size}, over={self.ring.label!r})"


class FiniteRing(FiniteModule):
    """A finite commutative ring with identity, given by add/mul index tables.

    A ring is also the module R_R over itself: its ring is itself and its
    action table is its multiplication table. The ring axioms imply the
    module axioms, so the module audit never runs on it.
    """

    def __init__(self, add_table, mul_table, zero: int, one: int, label: str = "R",
                 meta: dict | None = None):
        n = len(add_table)
        _check_size(n, "ring size")
        self.add_table = as_index_table(add_table, n, n, f"ring '{label}' add table")
        self.mul_table = self.action_table = as_index_table(mul_table, n, n,
                                                            f"ring '{label}' mul table")
        self.zero = int(zero)
        self.one = int(one)
        self.label = label
        self.meta = dict(meta or {})
        validate_ring(self)
        self.neg_table = np.argmax(self.add_table == self.zero, axis=1).astype(INDEX_DTYPE)
        self._cache: dict = {}

    @property
    def ring(self) -> FiniteRing:
        # a property, not an attribute: self.ring = self would be a reference
        # cycle, and a dropped ring would wait for the cyclic collector
        return self

    @property
    def is_zero_ring(self) -> bool:
        return self.size == 1

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def as_module(self) -> FiniteRing:
        """The ring acting on itself by multiplication: the ring itself."""
        return self

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, size={self.size})"


def validate_ring(ring: FiniteRing) -> None:
    """Decide the ring axioms on additive generators in O(n^2 log n).

    Only when a check fails does the full O(n^3) scan run, so the AxiomError
    names the same least failing triple as the scan alone would.
    """
    if not _ring_axioms_hold(ring):
        _scan_ring(ring)
        raise InvariantViolation(f"ring '{ring.label}': generator audit failed, full scan passed")


def _ring_axioms_hold(ring: FiniteRing) -> bool:
    what = f"ring '{ring.label}'"
    add, mul = ring.add_table, ring.mul_table
    n = add.shape[0]
    if n < 1 or (n == 1 and ring.zero != ring.one):
        return False
    try:
        audit_commutative(add, f"{what} addition")
        audit_identity(add, ring.zero, f"{what} addition")
        audit_group_rows(add, f"{what} addition")
        audit_commutative(mul, f"{what} multiplication")
        audit_identity(mul, ring.one, f"{what} multiplication")
    except AxiomError:
        return False
    gens = additive_generators(add, ring.zero)
    # each step relies on the ones before it: distributivity on generators
    # needs + associative, and the multiplicative associators are closed
    # under + only once both distributive laws hold (commutativity gives one)
    return (associates_on(add, add, gens)
            and additive_on(mul, add, add, gens)
            and associates_on(mul, mul, gens))


def _scan_ring(ring: FiniteRing) -> None:
    """Full axiom table scan; raises AxiomError naming the first failing triple."""
    what = f"ring '{ring.label}'"
    add, mul = ring.add_table, ring.mul_table
    n = add.shape[0]
    if n < 1:
        raise AxiomError(f"{what}: empty element set")
    audit_abelian_group(add, ring.zero, what)
    audit_commutative(mul, f"{what} multiplication")
    audit_associative(mul, f"{what} multiplication")
    audit_identity(mul, ring.one, f"{what} multiplication")
    audit_distributive(mul, add, what)
    if n == 1 and ring.zero != ring.one:
        raise AxiomError(f"{what}: size 1 requires zero = one")


def validate_module(module: FiniteModule) -> None:
    """Decide the module axioms on additive generators of M and of R.

    The base ring is already validated. A failure is named by the full scan.
    """
    if not _module_axioms_hold(module):
        _scan_module(module)
        raise InvariantViolation(
            f"module '{module.label}': generator audit failed, full scan passed")


def _module_axioms_hold(module: FiniteModule) -> bool:
    what = f"module '{module.label}'"
    add, act = module.add_table, module.action_table
    ring = module.ring
    m = add.shape[0]
    try:
        audit_commutative(add, f"{what} addition")
        audit_identity(add, module.zero, f"{what} addition")
        audit_group_rows(add, f"{what} addition")
    except AxiomError:
        return False
    if not np.array_equal(act[ring.one], np.arange(m)):
        return False
    gens = additive_generators(add, module.zero)
    rgens = additive_generators(ring.add_table, ring.zero)
    # the r with (r+s)x = rx + sx, and then those with (rs)x = r(sx), for all
    # s and x are closed under +, so the ring's additive generators suffice
    by_column = np.ascontiguousarray(act.T)  # by_column[x, r] = rx
    return (associates_on(add, add, gens)
            and additive_on(act, add, add, gens)                     # r(x+y) = rx + ry
            and additive_on(by_column, ring.add_table, add, rgens)   # (r+s)x = rx + sx
            and associates_on(act, ring.mul_table, rgens))           # (rs)x = r(sx)


def _scan_module(module: FiniteModule) -> None:
    """Full axiom scan of the module tables against its base ring."""
    what = f"module '{module.label}'"
    add, act = module.add_table, module.action_table
    radd, rmul = module.ring.add_table, module.ring.mul_table
    n = module.ring.size
    m = add.shape[0]
    audit_abelian_group(add, module.zero, what)
    unit_row = act[module.ring.one]
    if not np.array_equal(unit_row, np.arange(m)):
        x = int(np.flatnonzero(unit_row != np.arange(m))[0])
        raise AxiomError(f"{what}: 1*{x} = {int(unit_row[x])}, unit action fails")
    for r in range(n):
        lhs = act[r][add]                      # r(x+y)
        rhs = add[np.ix_(act[r], act[r])]      # rx + ry
        diff = lhs != rhs
        if diff.any():
            x, y = np.argwhere(diff)[0]
            raise AxiomError(f"{what}: r(x+y) fails at (r,x,y)=({r},{int(x)},{int(y)})")
        lhs = act[radd[r]]                     # (r+s)x, shape (n, m)
        rhs = add[act[r][None, :], act]        # rx + sx
        diff = lhs != rhs
        if diff.any():
            s, x = np.argwhere(diff)[0]
            raise AxiomError(f"{what}: (r+s)x fails at (r,s,x)=({r},{int(s)},{int(x)})")
        lhs = act[rmul[r]]                     # (rs)x
        rhs = act[r][act]                      # r(sx)
        diff = lhs != rhs
        if diff.any():
            s, x = np.argwhere(diff)[0]
            raise AxiomError(f"{what}: (rs)x fails at (r,s,x)=({r},{int(s)},{int(x)})")


def same_ring(a: FiniteRing, b: FiniteRing) -> bool:
    if a is b:
        return True
    return (a.size == b.size and a.zero == b.zero and a.one == b.one
            and np.array_equal(a.add_table, b.add_table)
            and np.array_equal(a.mul_table, b.mul_table))


def same_module(a: FiniteModule, b: FiniteModule) -> bool:
    if a is b:
        return True
    return (same_ring(a.ring, b.ring) and a.size == b.size and a.zero == b.zero
            and np.array_equal(a.add_table, b.add_table)
            and np.array_equal(a.action_table, b.action_table))


@dataclass(frozen=True)
class Submodule:
    module: FiniteModule
    members: int  # bit mask

    def contains(self, x: int) -> bool:
        return bitset.has_bit(self.members, x)

    def members_tuple(self) -> tuple[int, ...]:
        """The members in increasing order, decoded once per instance."""
        out = self.__dict__.get("_members_tuple")
        if out is None:
            # kept beside the fields, so equality, hash and repr ignore it
            out = self.__dict__["_members_tuple"] = bitset.members(self.members)
        return out

    @property
    def ring(self) -> FiniteRing:
        return self.module.ring

    @property
    def is_proper(self) -> bool:
        return self.members != self.module.full_mask

    @property
    def is_zero(self) -> bool:
        return self.members == (1 << self.module.zero)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.module.label!r}, {list(self.members_tuple())})"


class Ideal(Submodule):
    """An ideal of R: a submodule of R acting on itself, so its module is R."""


@dataclass(frozen=True)
class SubmoduleClassification:
    """Outcome of the prime/primary scan; false flags carry replayable witnesses."""
    is_proper: bool
    is_prime: bool
    is_primary: bool
    prime_violation: tuple[int, int] | None         # (r, x)
    primary_violation: tuple[int, int, int] | None  # (r, x, exhausted exponent bound)


# ---------------------------------------------------------------------------
# ring constructors


def build_zmod(n: int) -> FiniteRing:
    """The ring of integers modulo n as explicit tables."""
    if n < 1:
        raise PreconditionError(f"zmod size must be positive, got {n}")
    _check_size(n, "zmod size")
    idx = np.arange(n, dtype=INDEX_DTYPE)
    add = (idx[:, None] + idx[None, :]) % n
    # a product of two residues passes 2^31 once n > 46340: reduce it in int64
    mul = (np.multiply.outer(idx, idx, dtype=np.int64) % n).astype(INDEX_DTYPE)
    return FiniteRing(add, mul, 0, 1 % n, label=f"Z/{n}", meta={"modulus": n})


def _pair_table(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The componentwise table of two square tables on pairs, with the pair
    (x, y) coded x * |right| + y; one broadcast, no temporary beyond the result."""
    m1, m2 = len(left), len(right)
    return (left[:, None, :, None] * m2 + right[None, :, None, :]).reshape(m1 * m2, m1 * m2)


def _is_prime_int(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _truncated_monomials(nvars: int, cap: int) -> list[tuple[int, ...]]:
    monos = [e for e in itertools.product(range(cap), repeat=nvars) if sum(e) < cap]
    monos.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    return monos


def build_truncated_poly_ring(p: int, nvars: int, cap: int) -> FiniteRing:
    """(Z/p)[x_1..x_nvars] with every monomial of total degree >= cap set to zero.

    Elements are coefficient vectors over the monomial basis of degree < cap,
    encoded base p in graded order, so index 0 is zero and index 1 is one.
    The ring has p^B elements, B = C(nvars + cap - 1, nvars) the monomials,
    and both are bounded before the primality test and the enumeration: for
    cap >= 2, B >= nvars + cap - 1, so p^B <= SIZE_CAP needs
    nvars + cap - 1 <= 12. For cap = 1 the ring is F_p, and the same bound
    keeps the variables it names to 12.
    """
    if nvars < 1 or cap < 1:
        raise PreconditionError("nvars and cap must be positive")
    if p < 2:
        raise PreconditionError(f"coefficient modulus {p} is not prime")
    if nvars + cap - 1 > SIZE_CAP.bit_length() - 1:
        raise SizeCapError(f"truncated_poly with {nvars} variables and degree cap {cap} "
                           f"exceeds cap {SIZE_CAP}")
    B = math.comb(nvars + cap - 1, nvars)
    if p > SIZE_CAP or p ** B > SIZE_CAP:
        raise SizeCapError(f"truncated_poly size {p}^{B} exceeds cap {SIZE_CAP}")
    if not _is_prime_int(p):
        raise PreconditionError(f"coefficient modulus {p} is not prime")
    monos = _truncated_monomials(nvars, cap)
    n = p ** B
    pos = {m: i for i, m in enumerate(monos)}
    # every power, digit sum and product below is less than n, so int32 holds it
    powers = p ** np.arange(B, dtype=INDEX_DTYPE)
    coeffs = (np.arange(n, dtype=INDEX_DTYPE)[:, None] // powers[None, :]) % p  # (n, B)

    # the additive group is (Z/p)^B, and an element's code is its top digit
    # times p^(B-1) plus the code of its lower digits: add is the pair table
    # of Z/p with the table of the lower digits, one broadcast per digit
    digit = np.arange(p, dtype=INDEX_DTYPE)
    digit_add = (digit[:, None] + digit[None, :]) % p
    add = digit_add
    for _ in range(B - 1):
        add = _pair_table(digit_add, add)

    # mul by additivity in the left factor. The row of a basis monomial p^i is
    # sum_j coeffs[:, j] * p^(index of mono_i * mono_j); the products of mono_i
    # with distinct monomials are distinct, so no digit carries. Every other x
    # is d p^t + r with 0 < d < p and r < p^t: row p^t plus row (d-1) p^t + r,
    # one gather per block of p^t rows.
    mul = np.zeros((n, n), dtype=INDEX_DTYPE)
    for i, mi in enumerate(monos):
        for j, mj in enumerate(monos):
            k = pos.get(tuple(a + b for a, b in zip(mi, mj)))
            if k is not None:
                mul[powers[i]] += coeffs[:, j] * powers[k]
    for t in range(B):
        top = p ** t
        for d in range(1, p):
            mul[d * top:(d + 1) * top] = add[mul[(d - 1) * top:d * top], mul[top]]

    names = [chr(ord("a") + i) if nvars <= 8 else f"x{i}" for i in range(nvars)]
    label = f"F{p}[{','.join(names)}]/m^{cap}"
    gens = []
    for i in range(nvars):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        if e in pos:
            gens.append(int(p ** pos[e]))
    meta = {"p": p, "monomials": tuple(monos), "generators": tuple(gens),
            "variable_names": tuple(names)}
    return FiniteRing(add, mul, 0, 1, label=label, meta=meta)


def _distinct(values: np.ndarray, size: int) -> list[int]:
    """The distinct entries of an array of element indices below size, sorted.

    A mask over the elements, not np.unique: a plain np.unique call imports
    numpy.ma on its first use in a process.
    """
    return np.flatnonzero(hit_mask(values, size)).tolist()


def _cosets(add_table: np.ndarray, members: int) -> tuple[list[int], np.ndarray]:
    """The least element of each additive coset of the subgroup with these
    members, sorted, and the index in that list of every element's coset."""
    rep = add_table[:, list(bitset.iter_bits(members))].min(axis=1)
    reps = _distinct(rep, len(rep))
    position = np.zeros(len(rep), dtype=INDEX_DTYPE)
    position[reps] = np.arange(len(reps))
    return reps, position[rep]


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> FiniteRing:
    """Ring of additive cosets of the ideal; tables induced and re-validated."""
    if ideal.ring is not ring and not same_ring(ideal.ring, ring):
        raise PreconditionError("ideal belongs to a different ring")
    _require_submodule(ideal)
    reps, to_q = _cosets(ring.add_table, ideal.members)
    qadd = to_q.take(submatrix(ring.add_table, reps, reps))
    qmul = to_q.take(submatrix(ring.mul_table, reps, reps))
    mem = ideal.members_tuple()
    shown = ",".join(map(str, mem[:4])) + (",..." if len(mem) > 4 else "")
    return FiniteRing(qadd, qmul, int(to_q[ring.zero]), int(to_q[ring.one]),
                      label=f"{ring.label}/({shown})")


# ---------------------------------------------------------------------------
# ideals


def ideal_generated(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest ideal containing gens: their join in the lattice of R acting
    on itself."""
    return submodule_generated(ring, gens)


def ideal_power(a: Ideal, k: int) -> Ideal:
    """k-fold ideal product; the zeroth power is the unit ideal."""
    if k < 0:
        raise PreconditionError("ideal power needs k >= 0")
    ring = a.ring
    key = ("ipow", a.members, k)
    hit = ring._cache.get(key)
    if hit is not None:
        return hit
    if k == 0:
        out = Ideal(ring, ring.full_mask)
    elif k == 1:
        out = a
    else:
        out = ideal_action_submodule(ideal_power(a, k - 1), a)
    ring._cache[key] = out
    return out


def is_prime_ideal(ideal: Ideal) -> tuple[bool, tuple[int, int] | None]:
    """True iff the ideal is proper and ab in I forces a in I or b in I.

    A failure returns the lexicographically least violating pair (a, b).
    """
    ring = ideal.ring
    if not ideal.is_proper:
        return False, None
    key = ("isprime", ideal.members)
    hit = ring._cache.get(key)
    if hit is not None:
        return hit
    in_i = np.zeros(ring.size, dtype=bool)
    in_i[list(bitset.iter_bits(ideal.members))] = True
    outs = np.flatnonzero(~in_i)
    bad = in_i.take(submatrix(ring.mul_table, outs, outs))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        result = (False, (int(outs[i]), int(outs[j])))
    else:
        result = (True, None)
    ring._cache[key] = result
    return result


def prime_avoidance_locate(ideal: Ideal, primes: list[Ideal]) -> tuple[int | None, int | None]:
    """Least index of a prime containing the ideal, or (None, witness) if uncovered.

    When the ideal sits inside the union of the primes, containment in a single
    one is guaranteed; failing to find it would be an implementation bug.
    """
    ring = ideal.ring
    union = 0
    for p in primes:
        if p.ring is not ring and not same_ring(p.ring, ring):
            raise StructureMismatchError("prime list over a different ring")
        ok, _ = is_prime_ideal(p)
        if not ok:
            raise PreconditionError("prime_avoidance_locate requires prime ideals")
        union |= p.members
    if bitset.is_subset(ideal.members, union):
        for i, p in enumerate(primes):
            if bitset.is_subset(ideal.members, p.members):
                return i, None
        raise InvariantViolation("ideal covered by primes but contained in none")
    return None, bitset.lowest_bit(ideal.members & ~union)


# ---------------------------------------------------------------------------
# module constructors


def ring_as_module(ring: FiniteRing) -> FiniteModule:
    """R acting on itself: the ring itself."""
    return ring


def module_from_tables(ring: FiniteRing, add_table, action_table, zero: int,
                       label: str = "M") -> FiniteModule:
    return FiniteModule(ring, add_table, action_table, zero, label=label)


def direct_sum(left: FiniteModule, right: FiniteModule) -> FiniteModule:
    """Componentwise sum; element (x, y) is encoded as x * |right| + y.

    The size cap is checked before the tables are built.
    """
    if left.ring is not right.ring and not same_ring(left.ring, right.ring):
        raise PreconditionError("direct sum requires a shared base ring")
    m1, m2 = left.size, right.size
    _check_size(m1 * m2, f"module size {m1} * {m2} =")
    add = _pair_table(left.add_table, right.add_table)
    act = (left.action_table[:, :, None] * m2
           + right.action_table[:, None, :]).reshape(left.ring.size, m1 * m2)
    zero = left.zero * m2 + right.zero
    return FiniteModule(left.ring, add, act, zero,
                        label=f"{left.label}(+){right.label}")


def _require_submodule(sub: Submodule) -> None:
    module = sub.module
    mem = sub.members
    if not bitset.has_bit(mem, module.zero):
        raise PreconditionError(f"not a submodule of {module.label}: missing zero")
    idx = list(bitset.iter_bits(mem))
    for v in _distinct(submatrix(module.add_table, idx, idx), module.size):
        if not bitset.has_bit(mem, v):
            raise PreconditionError(f"not a submodule of {module.label}: not add-closed")
    for v in _distinct(module.action_table[:, idx], module.size):
        if not bitset.has_bit(mem, v):
            raise PreconditionError(f"not a submodule of {module.label}: not action-closed")


def quotient_module(module: FiniteModule, sub: Submodule) -> FiniteModule:
    """Module of additive cosets of a submodule, with the induced action."""
    if sub.module is not module and not same_module(sub.module, module):
        raise PreconditionError("submodule belongs to a different module")
    _require_submodule(sub)
    reps, to_q = _cosets(module.add_table, sub.members)
    qadd = to_q.take(submatrix(module.add_table, reps, reps))
    qact = to_q.take(module.action_table.take(reps, axis=1))
    return FiniteModule(module.ring, qadd, qact, int(to_q[module.zero]),
                        label=f"{module.label}/N{sub.members.bit_count()}")


def _generators(module: FiniteModule, gens: Iterable[int]) -> list[int]:
    """The distinct nonzero generators, sorted, after the range check."""
    gset = sorted({int(g) for g in gens} - {module.zero})
    for g in gset:
        if not 0 <= g < module.size:
            raise PreconditionError(f"generator {g} outside {module.label}")
    return gset


def submodule_generated(module: FiniteModule, gens: Iterable[int]) -> Submodule:
    """Closure of the generators under addition and the ring action: their
    join in the lattice of the module."""
    lattice = submodule_lattice(module)
    return lattice.objects[lattice.fold(_generators(module, gens))]


def submodule_from_members(module: FiniteModule, members: Iterable[int]) -> Submodule:
    """Wrap an explicit member set after the range and closure checks."""
    members = [int(x) for x in members]
    for x in members:
        if not 0 <= x < module.size:
            raise PreconditionError(f"member {x} outside {module.label}")
    sub = Submodule(module, bitset.mask_of(members))
    _require_submodule(sub)
    return sub


def ideal_action_submodule(ideal: Ideal, sub: Submodule) -> Submodule:
    """I·N: the submodule the products a*x, a in the ideal, x in the submodule,
    generate. As I = Σ R·aᵢ and N = Σ R·xⱼ give IN = Σ R·aᵢxⱼ, only the
    lattice generators of both factors are multiplied; a mask that is not
    closed acts as the submodule it generates."""
    module = sub.module
    if ideal.ring is not module.ring and not same_ring(ideal.ring, module.ring):
        raise StructureMismatchError("ideal over a different base ring")
    key = ("iact", ideal.members, sub.members)
    hit = module._cache.get(key)
    if hit is not None:
        return hit
    ideal_gens = submodule_lattice(ideal.ring).generators(ideal.members)
    sub_gens = submodule_lattice(module).generators(sub.members)
    act = module.action_table
    out = submodule_generated(module, [act.item(a, x) for a in ideal_gens for x in sub_gens])
    module._cache[key] = out
    return out


# on R acting on itself, the action of one ideal on another is their product
ideal_product = ideal_action_submodule


# ---------------------------------------------------------------------------
# annihilators and zero-divisors


def _subset_mask(subset) -> int:
    if isinstance(subset, Ideal):
        return subset.members
    if isinstance(subset, int):
        return subset
    return bitset.mask_of(subset)


def annihilator_in_module(subset, module: FiniteModule) -> Submodule:
    """Elements of the module killed by every ring element of the given subset.

    Accepts an Ideal, a bit mask or an iterable of element indices; the result
    is always a submodule.
    """
    mask = _subset_mask(subset)
    key = ("annm", mask)
    hit = module._cache.get(key)
    if hit is not None:
        return hit
    idx = list(bitset.iter_bits(mask))
    if not idx:
        out = Submodule(module, module.full_mask)
    else:
        killed = (module.action_table[idx, :] == module.zero).all(axis=0)
        out = Submodule(module, bitset.mask_from_bools(killed))
    module._cache[key] = out
    return out


def annihilator_ideal_of_element(module: FiniteModule, x: int) -> Ideal:
    """Ring elements killing the given module element; always an ideal."""
    if not 0 <= x < module.size:
        raise PreconditionError(f"element {x} outside {module.label}")
    col = module.action_table[:, x] == module.zero
    return Ideal(module.ring, bitset.mask_from_bools(col))


def units(ring: FiniteRing) -> np.ndarray:
    """The units of the ring, ascending: the rows of mul_table holding the one."""
    hit = ring._cache.get("units")
    if hit is None:
        hit = ring._cache["units"] = np.flatnonzero((ring.mul_table == ring.one).any(axis=1))
    return hit


def zero_divisor_set(module: FiniteModule) -> int:
    """Bit mask of ring elements killing some nonzero module element."""
    if module.is_zero_module:
        raise ZeroModuleError("zero-divisor set is undefined on the zero module")
    key = ("zdset",)
    hit = module._cache.get(key)
    if hit is not None:
        return hit
    nz = [x for x in module.elements() if x != module.zero]
    hits = (module.action_table[:, nz] == module.zero).any(axis=1)
    mask = bitset.mask_from_bools(hits)
    module._cache[key] = mask
    return mask


def associated_primes(module: FiniteModule) -> list[tuple[Ideal, int]]:
    """Prime annihilators of nonzero elements, deduplicated and canonically sorted.

    Each prime is tagged with the least nonzero element whose annihilator it is.
    They are the annihilators that no other one strictly contains, so no
    primality search runs.
    """
    if module.is_zero_module:
        raise ZeroModuleError("associated primes are undefined on the zero module")
    key = ("ass",)
    hit = module._cache.get(key)
    if hit is not None:
        return hit
    # killed[x] packs the annihilator of x; each distinct one is kept once,
    # with the least nonzero element that has it
    killed = np.packbits(module.action_table.T == module.zero, axis=1, bitorder="little")
    least: dict[int, int] = {}
    for x in module.elements():
        if x != module.zero:
            least.setdefault(int.from_bytes(killed[x].tobytes(), "little"), x)
    # Ann(x) is prime iff no Ann(y), y != 0, strictly contains it. (=>) A prime
    # of a finite ring is maximal, and each Ann(y) is proper, as 1 y != 0.
    # (<=) If ab kills x and b does not, then bx != 0 and Ann(bx) contains
    # Ann(x), so the two are equal by maximality, and a kills bx. Walked by
    # falling size, a mask is maximal iff it lies in no maximal one kept so far.
    maximal: list[int] = []
    for m in sorted(least, key=int.bit_count, reverse=True):
        if not any(m & ~big == 0 for big in maximal):
            maximal.append(m)
    out = sorted(((Ideal(module.ring, m), least[m]) for m in maximal),
                 key=lambda pw: pw[0].members_tuple())
    module._cache[key] = out
    return out


def classify_submodule(module: FiniteModule, sub: Submodule) -> SubmoduleClassification:
    """Prime/primary classification over all (r, x) pairs at once.

    The primary test searches exponents n = 1..|R|; powers of a ring element
    cycle within |R| steps, so the bound is exhaustive, not heuristic.
    """
    if sub.module is not module and not same_module(sub.module, module):
        raise PreconditionError("submodule belongs to a different module")
    ring = module.ring
    in_p = bitset.bools_from_mask(sub.members, module.size)
    proper = sub.members != module.full_mask

    # per-r facts: does r M sit inside P, and does some power r^n M
    lands = in_p.take(module.action_table)  # lands[r, x]: r x in P
    all_in = lands.all(axis=1)
    power_in = all_in.copy()
    r = np.arange(ring.size)
    rp = r
    for _ in range(ring.size - 1):
        rp = ring.mul_table[rp, r]
        power_in |= all_in[rp]

    # the per-r facts settle both conditions at the least x with r x in P and
    # x outside P, so the least such r of each kind gives the least witness
    escapes = lands & ~in_p
    least_x = escapes.argmax(axis=1)
    escaping = escapes.any(axis=1)
    prime_r = np.flatnonzero(escaping & ~all_in)
    primary_r = np.flatnonzero(escaping & ~power_in)
    prime_viol = (int(prime_r[0]), int(least_x[prime_r[0]])) if prime_r.size else None
    primary_viol = ((int(primary_r[0]), int(least_x[primary_r[0]]), ring.size)
                    if primary_r.size else None)
    return SubmoduleClassification(
        is_proper=proper,
        is_prime=proper and prime_viol is None,
        is_primary=proper and primary_viol is None,
        prime_violation=prime_viol,
        primary_violation=primary_viol,
    )


# ---------------------------------------------------------------------------
# the submodule lattice: the one closure kernel


# rows of a new step table; it doubles its rows when the ids outgrow them
_LATTICE_ROWS = 16


class SubmoduleLattice:
    """The submodules of one module met so far, one id and one instance each.

    Every submodule of a finite module is a finite sum of cyclic ones R·a,
    so each is reached from the zero submodule, id 0, by joins with cyclic
    submodules. A join A + R·a is already a submodule: it is the set of sums,
    one gather of add_table over A × R·a, with no fixpoint loop.

    step[id, a] is the id of objects[id] + R·a, or -1 where that cell has not
    been met. Row 0 holds the ids of the cyclic submodules, as 0 + R·a = R·a.
    Each cell is filled once. The lattice lives as long as its module, so ids
    outlive the call that made them: no result may depend on an id's value
    or on the order in which ids were made. On a ring, R acting on itself,
    the submodules are the ideals, and objects holds Ideals.
    """

    def __init__(self, module: FiniteModule):
        self.module = module
        self._wrap = partial(Ideal if module is module.ring else Submodule, module)
        self.objects: list[Submodule] = []
        self.by_members: dict[int, int] = {}
        self._members: list[np.ndarray] = []  # members of objects[id] as an index array
        self.step = np.full((_LATTICE_ROWS, module.size), -1, dtype=INDEX_DTYPE)
        self._generators: dict[int, tuple[int, ...]] = {}
        self._intern(np.arange(module.size) == module.zero)

    def fold(self, gens: Iterable[int]) -> int:
        """The id of the submodule the (range-checked) generators generate."""
        cid = 0
        for a in gens:
            cid = self.join(cid, a)
        return cid

    def generators(self, members: int) -> tuple[int, ...]:
        """Greedy generators, memoized per mask, of the submodule N the members
        generate: each is the least member outside the join of those before
        it, so there are at most log2 |N|, and no id decides them."""
        out = self._generators.get(members)
        if out is None:
            gens = []
            cid = 0
            rest = members & ~self.objects[0].members
            while rest:
                a = bitset.lowest_bit(rest)
                gens.append(a)
                cid = self.join(cid, a)
                rest &= ~self.objects[cid].members
            out = self._generators[members] = tuple(gens)
        return out

    def join(self, cid: int, a: int) -> int:
        """The id of objects[cid] + R·a."""
        out = self.step.item(cid, a)
        if out >= 0:
            return out
        members = self.objects[cid].members
        module = self.module
        if members >> a & 1:
            out = cid
        elif cid == 0:
            out = self._intern(hit_mask(module.action_table[:, a], module.size))
        else:
            cyclic = self.join(0, a)
            if members & ~self.objects[cyclic].members == 0:
                out = cyclic
            else:
                sums = submatrix(module.add_table, self._members[cid], self._members[cyclic])
                out = self._intern(hit_mask(sums, module.size))
        self.step[cid, a] = out
        return out

    def join_all(self, acc: np.ndarray, elements: np.ndarray) -> np.ndarray:
        """The id of objects[acc[k]] + R·elements[k], for every k."""
        # one take at the flat cell id * |M| + a, formed in intp: a 2-D gather
        # would cast the int32 ids. Growing the table adds rows only, so the
        # cells stay valid.
        at = np.multiply(acc, self.module.size, dtype=np.intp)
        at += elements
        out = self.step.ravel().take(at)
        missing = out < 0
        if not missing.any():
            return out
        # fill each unmet cell once, in (id, element) order
        cells = np.sort(at[missing])
        first = np.ones(len(cells), dtype=bool)
        first[1:] = cells[1:] != cells[:-1]
        for cid, a in zip(*(c.tolist() for c in np.divmod(cells[first], self.module.size))):
            self.join(cid, a)
        return self.step.ravel().take(at)

    def ids(self, coeffs: np.ndarray) -> np.ndarray:
        """The id of the content of every row of coeffs: the join of the
        cyclic submodules of its entries, one column at a time."""
        # the first column joins the zero submodule: its ids are read off
        # row 0 whenever those cells are met
        acc = self.step[0].take(coeffs[:, 0])
        if (acc < 0).any():
            acc = self.join_all(np.zeros(len(coeffs), dtype=INDEX_DTYPE), coeffs[:, 0])
        for j in range(1, coeffs.shape[1]):
            acc = self.join_all(acc, coeffs[:, j])
        return acc

    def _intern(self, in_sub: np.ndarray) -> int:
        """The id of the submodule with these member flags, made if new."""
        mask = bitset.mask_from_bools(in_sub)
        cid = self.by_members.get(mask)
        if cid is not None:
            return cid
        cid = len(self.objects)
        self.by_members[mask] = cid
        self.objects.append(self._wrap(mask))
        self._members.append(np.flatnonzero(in_sub))
        if cid == len(self.step):
            grown = np.full((2 * cid, self.module.size), -1, dtype=INDEX_DTYPE)
            grown[:cid] = self.step
            self.step = grown
        return cid

    def closure(self) -> list[int]:
        """The ids of all submodules, in the order of their member tuples: the
        breadth-first join closure of the cyclic submodules from zero."""
        cyclic = self.ids(np.arange(self.module.size)[:, None]).tolist()
        # the least element of each nonzero cyclic submodule
        least: dict[int, int] = {}
        for a, cid in enumerate(cyclic):
            if cid:
                least.setdefault(cid, a)
        reps = np.array(list(least.values()), dtype=np.intp)
        found = {0}
        frontier = [0]
        while frontier:
            joined = self.join_all(np.repeat(np.array(frontier, dtype=np.intp), len(reps)),
                                   np.tile(reps, len(frontier)))
            frontier = [cid for cid in dict.fromkeys(joined.tolist()) if cid not in found]
            found.update(frontier)
        return sorted(found, key=lambda cid: self._members[cid].tolist())


def submodule_lattice(module: FiniteModule) -> SubmoduleLattice:
    """The lattice of the module, built on first use and kept with it."""
    lattice = module._cache.get("lattice")
    if lattice is None:
        lattice = module._cache["lattice"] = SubmoduleLattice(module)
    return lattice


# ---------------------------------------------------------------------------
# ideal and submodule enumeration


def enumerate_ideals(ring: FiniteRing) -> list[Ideal]:
    """All ideals, sorted by member tuple: the submodules of R acting on itself."""
    return enumerate_submodules(ring)


def enumerate_submodules(module: FiniteModule) -> list[Submodule]:
    """All submodules, sorted by member tuple: the join closure of the cyclic
    submodules in the lattice of the module."""
    key = ("submodules",)
    hit = module._cache.get(key)
    if hit is not None:
        return hit
    lattice = submodule_lattice(module)
    out = [lattice.objects[cid] for cid in lattice.closure()]
    module._cache[key] = out
    return out


def prime_ideals(ring: FiniteRing) -> list[Ideal]:
    """Spec R, canonically sorted: a finite ring is Artinian, so every prime is
    an associated prime of R as a module over itself. The zero ring has none.
    """
    if ring.is_zero_ring:
        return []
    return [p for p, _ in associated_primes(ring)]
