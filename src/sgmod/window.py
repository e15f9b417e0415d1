"""Exponent windows: the finite slices of R[S] and M[S] that the verifiers walk.

A window fixes the exponents of a series, and its tuples are every
assignment of coefficients to them, in lexicographic order. Its sum pattern
records which pairwise sums of its exponents coincide: it is all a verifier
reads of the exponents. The units of the
ring act on the tuples over a space coefficientwise, and _window_orbits groups
the tuples into the orbits of that action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .finite_algebra import FiniteModule, units
from .monoids import Monoid
from .series import Series, make_series


def _tuple_count(length: int, space_size: int, nonzero: int) -> int:
    """Tuples of this length over the space with at most this many nonzero
    entries, none when nonzero < 0: j nonzero entries sit at C(length, j)
    position sets, with |space| - 1 values each."""
    return sum(math.comb(length, j) * (space_size - 1) ** j
               for j in range(min(length, nonzero) + 1))


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
    # (monoid, sum pattern) of the last sum_pattern call
    _pattern: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def sum_pattern(self, monoid: Monoid) -> tuple[int, tuple]:
        """The window's sum pattern: (n_prod, pos), where pos[i][j] numbers the
        sum of exponents i and j in the monoid and n_prod counts the sums.

        Sums are numbered by first appearance in row-major (i, j) order, so
        two windows have one pattern exactly when their pairwise sums
        coincide alike, position by position. The verifiers read the
        exponents through it alone. The pattern of the last monoid is kept,
        so a caller and the verifier it runs compute it once.
        """
        if self._pattern is not None and self._pattern[0] is monoid:
            return self._pattern[1]
        index: dict = {}
        pos = tuple(tuple(index.setdefault(s, len(index))
                          for s in monoid.translates(a, self.exponents))
                    for a in self.exponents)
        pattern = len(index), pos
        object.__setattr__(self, "_pattern", (monoid, pattern))
        return pattern

    @property
    def _support_cap(self) -> int:
        """The most nonzero coefficients of a window tuple."""
        e = len(self.exponents)
        return e if self.max_support is None else min(self.max_support, e)

    def count(self, space_size: int) -> int:
        """Number of coefficient assignments (the enumeration cardinality);
        summed over every number of nonzero terms this is |space|^E."""
        return _tuple_count(len(self.exponents), space_size, self._support_cap)

    def coeff_array(self, space_size: int, zero_index: int) -> np.ndarray:
        """Every supported coefficient tuple as one row, in lexicographic order.

        Tuples grow one position at a time: a prefix below max_support takes
        every value, a prefix at it takes only zero. No unsupported tuple is
        ever built, so the work is linear in the count() the budget charges.
        The array is column-major, so each column is a contiguous index
        vector for the gathers of the kernels.
        """
        cap = self._support_cap
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

    def rank_weights(self, space_size: int, zero_index: int,
                     coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lexicographic rank of window tuples as a sum of table entries.

        Returns (weights, base) with weights.take(base + x).sum(axis=-1) the
        row of x in coeff_array(space_size, zero_index), for every window
        tuple x with the support of the matching row of coeffs. The rank is
        a sum over the positions i: the weight at (i, s, v) counts the window
        tuples that agree with x before i, where it has s nonzero
        coefficients, and are below v at i. The ranks stay below count,
        exact where mixed-radix codes space_size^E would overflow.
        """
        e, cap = len(self.exponents), self._support_cap
        q, zero = space_size, zero_index
        # the values below v at position i: the zero, if it is below v, leaves
        # cap - s nonzero entries to the tail, each nonzero value cap - s - 1
        tails = np.array([(_tuple_count(e - 1 - i, q, cap - s),
                           _tuple_count(e - 1 - i, q, cap - s - 1))
                          for i in range(e) for s in range(cap + 1)], dtype=np.int64)
        v = np.arange(q)
        weights = ((v > zero) * tails[:, :1] + (v - (v > zero)) * tails[:, 1:]).ravel()
        nonzero = coeffs != zero
        base = (np.cumsum(nonzero, axis=1) - nonzero + np.arange(0, e * (cap + 1), cap + 1)) * q
        return weights, base

    def series(self, space, monoid: Monoid, coeffs) -> Series:
        terms = [(e, c) for e, c in zip(self.exponents, coeffs) if c != space.zero]
        return make_series(space, monoid, terms)


@dataclass(frozen=True)
class _WindowOrbits:
    """The window tuples over one space, grouped into orbits under the units
    of the ring. Orbits are numbered in the order of their least members."""

    coeffs: np.ndarray   # every supported tuple, as coeff_array gives them
    reps: np.ndarray     # the row of each orbit's least member, ascending
    orbit: np.ndarray    # the orbit of every row
    sizes: np.ndarray    # the number of rows of every orbit


def _window_orbits(space: FiniteModule, window: SupportWindow) -> _WindowOrbits:
    """The orbits of the window tuples x over space under x -> u·x, for the
    units u of the ring, memoized per space on (number of exponents, support
    cap): neither the tuples nor the orbits depend on the exponent values.

    A unit keeps each coefficient zero or nonzero, so u·x is a window tuple
    with the support of x, and its row is its rank_weights rank. Each
    orbit's least member is the least rank over the units, taken a group of
    units at a time, with at most 2^16 ranks of a group in flight beyond one
    unit's, so the memory stays linear in the rows.
    """
    key = ("window_orbits", len(window.exponents), window._support_cap)
    hit = space._cache.get(key)
    if hit is not None:
        return hit
    coeffs = window.coeff_array(space.size, space.zero)
    n = len(coeffs)
    weights, base = window.rank_weights(space.size, space.zero, coeffs)
    rows = np.arange(n)
    least = rows
    others = units(space.ring)
    others = others[others != space.ring.one, None, None]
    group = max(1, (1 << 16) // n)
    for start in range(0, len(others), group):
        images = space.action_table[others[start:start + group], coeffs]
        least = np.minimum(least, weights.take(base + images).sum(axis=2).min(axis=0))
    is_rep = least == rows
    orbit = np.cumsum(is_rep)[least] - 1
    hit = space._cache[key] = _WindowOrbits(coeffs, np.flatnonzero(is_rep), orbit,
                                            np.bincount(orbit))
    return hit

