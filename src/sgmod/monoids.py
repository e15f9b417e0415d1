"""Commutative monoids in two forms: finite Cayley tables and affine lattice monoids.

Affine elements are vectors of non-negative integers: the affine monoid is
N^d. As a submonoid of Z^d it is cancellative and torsion-free, which is the
only fact the algebra layer needs.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Union

import numpy as np

from ._tables import (
    INDEX_DTYPE,
    as_index_table,
    audit_associative,
    audit_commutative,
    audit_identity,
)
from .errors import PreconditionError

MonoidElement = Union[int, tuple]


class Monoid:
    """Additive commutative monoid; exponent arithmetic for series."""

    def __init__(self, *, kind: str, label: str, cayley=None, identity: int | None = None,
                 dim: int | None = None):
        self.kind = kind
        self.label = label
        if kind == "finite":
            order = len(cayley)
            table = as_index_table(cayley, order, order, f"monoid '{label}' table")
            audit_commutative(table, f"monoid '{label}'")
            audit_associative(table, f"monoid '{label}'")
            audit_identity(table, identity, f"monoid '{label}'")
            self.cayley = table
            self.identity = int(identity)
            self.dim = None
            self._rows = table.tolist()
        elif kind == "affine":
            if dim is None or dim < 1:
                raise PreconditionError("affine monoid needs a positive dimension")
            self.cayley = None
            self.identity = None
            self.dim = int(dim)
        else:
            raise PreconditionError(f"unknown monoid kind {kind!r}")
        self._cancellative: tuple | None = None
        self._torsion_free: tuple | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise PreconditionError("affine monoids are infinite")
        return self.cayley.shape[0]

    def identity_key(self) -> MonoidElement:
        return self.identity if self.is_finite else (0,) * self.dim

    def contains(self, e) -> bool:
        if self.is_finite:
            return isinstance(e, int) and not isinstance(e, bool) and 0 <= e < self.order
        return (isinstance(e, tuple) and len(e) == self.dim
                and all(isinstance(x, int) and x >= 0 for x in e))

    def add(self, s: MonoidElement, t: MonoidElement) -> MonoidElement:
        if self.is_finite:
            return self._rows[s][t]
        return tuple(map(operator.add, s, t))

    def translates(self, s: MonoidElement, ts) -> list:
        """s + t for every t of ts: one Cayley row read, or vector sums."""
        if self.is_finite:
            row = self._rows[s]
            return [row[t] for t in ts]
        return [tuple(map(operator.add, s, t)) for t in ts]

    def __repr__(self) -> str:
        return f"Monoid({self.label!r}, {self.kind})"


def free_monoid(dim: int, label: str | None = None) -> Monoid:
    """N^d: vectors of non-negative integers of the given dimension."""
    if dim < 1:
        raise PreconditionError("free monoid needs dim >= 1")
    return Monoid(kind="affine", dim=dim, label=label or f"N^{dim}")


def cyclic_group_monoid(k: int, label: str | None = None) -> Monoid:
    if k < 1:
        raise PreconditionError("cyclic group needs k >= 1")
    idx = np.arange(k, dtype=INDEX_DTYPE)
    table = (idx[:, None] + idx[None, :]) % k
    return Monoid(kind="finite", cayley=table, identity=0, label=label or f"Z/{k} (additive)")


def saturating_monoid(c: int, label: str | None = None) -> Monoid:
    """{0..c} under capped addition s + t = min(s + t, c)."""
    if c < 1:
        raise PreconditionError("saturating monoid needs c >= 1")
    idx = np.arange(c + 1, dtype=INDEX_DTYPE)
    table = np.minimum(idx[:, None] + idx[None, :], c)
    return Monoid(kind="finite", cayley=table, identity=0, label=label or f"sat({c})")


def monoid_from_table(cayley, identity: int, label: str = "S") -> Monoid:
    return Monoid(kind="finite", cayley=cayley, identity=identity, label=label)


def monoid_scale(monoid: Monoid, n: int, e: MonoidElement) -> MonoidElement:
    """n-fold sum of an element; n = 0 gives the identity."""
    if n < 0:
        raise PreconditionError("scale factor must be nonnegative")
    acc = monoid.identity_key()
    for _ in range(n):
        acc = monoid.add(acc, e)
    return acc


def is_cancellative(monoid: Monoid) -> tuple[bool, tuple | None]:
    """Cancellation law check; a failure returns (s, t, u) with s+t = s+u, t != u.

    The witness minimizes the confused pair (t, u) first and then the
    translating element s, so golden outputs are stable.
    """
    if monoid._cancellative is not None:
        return monoid._cancellative
    if not monoid.is_finite:
        result = (True, None)  # submonoid of a torsion-free group
    else:
        rows_injective = np.array_equal(
            np.sort(monoid.cayley, axis=1),
            np.tile(np.arange(monoid.order), (monoid.order, 1)))
        if rows_injective:
            result = (True, None)
        else:
            result = None
            k = monoid.order
            rows = monoid._rows
            for t in range(k):
                for u in range(t + 1, k):
                    for s in range(k):
                        if rows[s][t] == rows[s][u]:
                            result = (False, (s, t, u))
                            break
                    if result:
                        break
                if result:
                    break
    monoid._cancellative = result
    return result


def _orbit(rows: list, e: int) -> tuple[int, int]:
    """The index i and period p of the sequence n*e, n >= 1, from one walk.

    n*e = (n + p)*e exactly when n >= i, and the orbit {n*e} has i + p - 1
    elements, so the walk takes at most order steps.
    """
    first = {}
    x, n = e, 1
    while x not in first:
        first[x] = n
        x, n = rows[x][e], n + 1
    return first[x], n - first[x]


def is_torsion_free(monoid: Monoid) -> tuple[bool, tuple | None]:
    """Search for s != t with n*s = n*t; a failure returns (s, t, n).

    The witness picks the first pair in (min, max) order, presents the element
    with the larger cyclic orbit first, and reports the minimal exponent for
    that pair.
    """
    if monoid._torsion_free is None:
        witness = _torsion_witness(monoid) if monoid.is_finite else None
        monoid._torsion_free = (witness is None, witness)
    return monoid._torsion_free


def _torsion_witness(monoid: Monoid) -> tuple | None:
    """Each pair's walk stops where its orbits show it never merges.

    From n = max(i_s, i_t) on, the pair sequence (n*s, n*t) is periodic with
    period lcm(p_s, p_t) (see _orbit). So the least n with n*s = n*t, if there
    is one, is below max(i_s, i_t) + lcm(p_s, p_t): a later merge would repeat
    one period earlier. The order^2 pigeonhole bound caps the walk as well.
    """
    k = monoid.order
    rows = monoid._rows
    orbit = functools.cache(lambda e: _orbit(rows, e))  # walked when first needed
    for a in range(k):
        i_a, p_a = orbit(a)
        for b in range(a + 1, k):
            i_b, p_b = orbit(b)
            xa, xb = a, b
            for n in range(1, min(max(i_a, i_b) + math.lcm(p_a, p_b) - 1, k * k) + 1):
                if xa == xb:
                    # the orbit of x has i_x + p_x - 1 elements
                    return (b, a, n) if i_b + p_b > i_a + p_a else (a, b, n)
                xa, xb = rows[xa][a], rows[xb][b]
    return None


def same_monoid(a: Monoid, b: Monoid) -> bool:
    if a is b:
        return True
    if a.kind != b.kind:
        return False
    if a.kind == "affine":
        return a.dim == b.dim
    return a.identity == b.identity and np.array_equal(a.cayley, b.cayley)
