"""Numpy audits for operation tables; every failure names a replayable witness."""

from __future__ import annotations

import numpy as np

from .errors import AxiomError


INDEX_DTYPE = np.int32


def as_index_table(table, rows: int, cols: int, what: str) -> np.ndarray:
    """The table as an int32 array of shape (rows, cols) with entries in 0..cols-1.

    int32 is the one dtype of every operation table: an index never reaches
    2^31, as the addition table over that many elements would have 2^62
    cells. An int32 array is returned as it is; anything else is read as
    int64 and range-checked before the cast, so no entry wraps. An entry
    beyond int64 is out of range like any other.
    """
    if isinstance(table, np.ndarray) and table.dtype == INDEX_DTYPE:
        t = table
    else:
        try:
            t = np.asarray(table, dtype=np.int64)
        except OverflowError:
            t = _huge_entries(table, what)
        except (TypeError, ValueError) as exc:
            raise AxiomError(f"{what}: malformed table ({exc})")
    if t.shape != (rows, cols):
        raise AxiomError(f"{what}: expected shape {(rows, cols)}, got {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= cols):
        bad = np.argwhere((t < 0) | (t >= cols))[0]
        raise AxiomError(f"{what}: entry at {tuple(int(x) for x in bad)} out of range 0..{cols - 1}")
    return t.astype(INDEX_DTYPE, copy=False)


def _huge_entries(table, what: str) -> np.ndarray:
    """The table as an object array, for a table with an entry beyond int64:
    the shape and range checks then name the first offending entry."""
    t = np.asarray(table, dtype=object)
    if t.ndim == 2 and not all(isinstance(x, (int, np.integer)) for x in t.flat):
        raise AxiomError(f"{what}: malformed table (entries must be integers)")
    return t


# side of the square tiles audit_commutative compares: a tile and its
# transpose stay in cache, where table.T read whole takes one cache line per
# element of a large table
_TILE = 256


def audit_commutative(table: np.ndarray, what: str) -> None:
    """table == table.T, compared tile by tile over the upper triangle; a
    failure is located by the full comparison, so it names the least (i, j)."""
    n = table.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            if not np.array_equal(table[i:i + _TILE, j:j + _TILE],
                                  table[j:j + _TILE, i:i + _TILE].T):
                r, c = np.argwhere(table != table.T)[0]
                raise AxiomError(f"{what} not commutative at ({int(r)}, {int(c)})")


def audit_identity(table: np.ndarray, ident: int, what: str) -> None:
    n = table.shape[0]
    if not (0 <= ident < n):
        raise AxiomError(f"{what}: identity index {ident} out of range")
    row = table[ident]
    if not np.array_equal(row, np.arange(n)):
        j = int(np.flatnonzero(row != np.arange(n))[0])
        raise AxiomError(f"{what}: {ident} * {j} = {int(row[j])}, identity fails")


def audit_associative(table: np.ndarray, what: str) -> None:
    # per-row check keeps memory at n^2 per step
    n = table.shape[0]
    for i in range(n):
        lhs = table[table[i]]        # lhs[j, k] = (i*j)*k
        rhs = table[i][table]        # rhs[j, k] = i*(j*k)
        diff = lhs != rhs
        if diff.any():
            j, k = np.argwhere(diff)[0]
            raise AxiomError(f"{what} not associative at ({i}, {int(j)}, {int(k)})")


def audit_group_rows(table: np.ndarray, what: str) -> None:
    # each translation row a permutation <=> injective <=> inverses exist
    n = table.shape[0]
    sorted_rows = np.sort(table, axis=1)
    diff = sorted_rows != np.arange(n)[None, :]
    if diff.any():
        i = int(np.argwhere(diff.any(axis=1))[0][0])
        raise AxiomError(f"{what}: row {i} is not a permutation (no inverses)")


def audit_distributive(mul: np.ndarray, add: np.ndarray, what: str) -> None:
    n = mul.shape[0]
    for i in range(n):
        lhs = mul[i][add]                      # lhs[j, k] = i*(j+k)
        rhs = add[np.ix_(mul[i], mul[i])]      # rhs[j, k] = i*j + i*k
        diff = lhs != rhs
        if diff.any():
            j, k = np.argwhere(diff)[0]
            raise AxiomError(f"{what}: distributivity fails at ({i}, {int(j)}, {int(k)})")


def audit_abelian_group(add: np.ndarray, zero: int, what: str) -> None:
    audit_commutative(add, f"{what} addition")
    audit_identity(add, zero, f"{what} addition")
    audit_associative(add, f"{what} addition")
    audit_group_rows(add, f"{what} addition")


def hit_mask(values: np.ndarray, size: int) -> np.ndarray:
    """The mask over 0..size-1 of the entries of an array of element indices.

    A count, not a scatter: a scatter casts int32 table entries to intp
    first, which costs more than counting them.
    """
    return np.bincount(values.ravel(), minlength=size) > 0


def submatrix(table: np.ndarray, rows, cols) -> np.ndarray:
    """table[np.ix_(rows, cols)], as two takes: numpy gathers an int32 table
    about twice as fast this way."""
    return table.take(rows, axis=0).take(cols, axis=1)


# ---------------------------------------------------------------------------
# generator checks: exact, one (rows, cols) gather per generator


def additive_generators(add: np.ndarray, zero: int) -> list[int]:
    """Greedy generators of a commutative table: each is the least element
    outside the closure of the ones before it. The closure grows by whole
    frontiers, so a cyclic group takes about log2 n steps, not n. The
    trivial group yields [zero], so checks over the result still see it.
    """
    n = add.shape[0]
    inspan = np.zeros(n, dtype=bool)
    inspan[zero] = True
    span = np.array([zero], dtype=np.int64)
    gens: list[int] = []
    while len(span) < n:
        frontier = np.array([int(np.argmin(inspan))], dtype=np.int64)
        gens.append(int(frontier[0]))
        while frontier.size:
            inspan[frontier] = True
            span = np.concatenate([span, frontier])
            # the table is commutative, so frontier x span covers every new pair
            reached = hit_mask(submatrix(add, frontier, span), n)
            frontier = np.flatnonzero(reached & ~inspan)
    return gens or [zero]


# rows per block of the generator checks: temporaries stay near 2^20 cells,
# so a 4096-element table is checked without (n, n) intp temporaries
_BLOCK_CELLS = 1 << 20


def _row_blocks(table: np.ndarray) -> list:
    rows, cols = table.shape
    step = max(1, _BLOCK_CELLS // max(cols, 1))
    return [slice(start, start + step) for start in range(0, rows, step)]


def associates_on(act: np.ndarray, mul: np.ndarray, gens) -> bool:
    """(r*g).x == r.(g.x) for all r, x and every g in gens.

    With act == mul this is Light's test: the elements g passing it form a
    submagma, so passing on a generating set means the table is associative.
    """
    return all(np.array_equal(act[mul[rows, g]], act[rows].take(act[g], axis=1))
               for g in gens for rows in _row_blocks(act))


def additive_on(act: np.ndarray, src_add: np.ndarray, dst_add: np.ndarray, gens) -> bool:
    """Every row x -> act[r, x] satisfies f(x + g) == f(x) + f(g) for g in gens.

    Once both additions are associative, the g passing this for all x form an
    additive submagma, so passing on additive generators makes every row additive.
    dst_add is commutative, so f(x) + f(g) is row f(g) of dst_add read at f(x):
    one flat take at f(g) * m + f(x), summed in intp so no code overflows.
    """
    m = dst_add.shape[1]
    flat = dst_add.ravel()
    return all(np.array_equal(act[rows].take(src_add[:, g], axis=1),
                              flat.take(act[rows, g, None].astype(np.intp) * m + act[rows]))
               for g in gens for rows in _row_blocks(act))
