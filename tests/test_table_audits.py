"""The generator audits against the full O(n^3) scan.

validate_ring and validate_module decide the axioms on additive generators and
fall back to the full scan only to name a failure. For every table here, the
generator decision must agree with the scan, and the AxiomError text must be
the scan's.
"""

import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import sgmod.finite_algebra as fa
from sgmod import (
    AxiomError,
    FiniteRing,
    InvariantViolation,
    SizeCapError,
    build_truncated_poly_ring,
    build_zmod,
    cyclic_group_monoid,
    direct_sum,
    ideal_generated,
    module_from_tables,
    monoid_from_table,
    quotient_module,
    quotient_ring,
    ring_as_module,
    saturating_monoid,
    submodule_generated,
)
from sgmod._tables import (
    additive_generators,
    additive_on,
    associates_on,
    audit_commutative,
    audit_group_rows,
    audit_identity,
)

# a commutative neofield of order 6: the nonzero elements 1..5 form the cyclic
# group x*y = (x + y - 2) mod 5 + 1, both distributive laws hold, every row of
# the addition is a permutation, yet (1+1)+2 = 2 while 1+(1+2) = 5. Only the
# associativity check on + rejects it.
LOOP6 = [[0, 1, 2, 3, 4, 5],
         [1, 0, 4, 2, 5, 3],
         [2, 4, 0, 5, 3, 1],
         [3, 2, 5, 0, 1, 4],
         [4, 5, 3, 1, 0, 2],
         [5, 3, 1, 4, 2, 0]]
CYCLIC6 = [[0] * 6] + [[0] + [(x + y - 2) % 5 + 1 for y in range(1, 6)] for x in range(1, 6)]


def steiner_loop9():
    """The Steiner loop of the affine plane over F3: 0 is the identity, the
    points (i, j) are 1 + 3i + j, x + x = 0, and two distinct points add to
    the third point on their line. Commutative, exponent 2, not associative."""
    n = 10
    add = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            if x == 0 or y == 0:
                add[x, y] = x + y
            elif x != y:
                (a, b), (c, d) = divmod(x - 1, 3), divmod(y - 1, 3)
                add[x, y] = 1 + 3 * ((-a - c) % 3) + (-b - d) % 3
    return add


def f2_algebra(products):
    """Tables of the commutative F2-algebra with basis 1, e1, .., ek; element
    index = bit mask over the basis, addition is xor, and products[i][j] is
    the bit mask of e_i * e_j for i, j >= 1."""
    k = len(products)
    n = 2 ** (k + 1)
    basis = [[1 << j for j in range(k + 1)]]
    basis += [[1 << (i + 1)] + list(products[i]) for i in range(k)]
    idx = np.arange(n)
    mul = np.zeros((n, n), dtype=np.int64)
    for i in range(k + 1):
        for j in range(k + 1):
            both = ((idx[:, None] >> i) & (idx[None, :] >> j) & 1).astype(bool)
            mul ^= np.where(both, basis[i][j], 0)
    return idx[:, None] ^ idx[None, :], mul


def ring_tables(add, mul, zero=0, one=1, label="R"):
    """The attributes validate_ring reads, without constructing a FiniteRing."""
    add = np.asarray(add, dtype=np.int64)
    return SimpleNamespace(add_table=add, mul_table=np.asarray(mul, dtype=np.int64),
                           zero=zero, one=one, label=label, size=len(add))


def module_tables(ring, add, act, zero=0, label="M"):
    return SimpleNamespace(ring=ring, add_table=np.asarray(add, dtype=np.int64),
                           action_table=np.asarray(act, dtype=np.int64),
                           zero=zero, label=label)


def failure(check, obj):
    """The AxiomError text, or None when the check accepts."""
    try:
        check(obj)
    except AxiomError as exc:
        return str(exc)
    return None


def assert_ring_agrees(ring):
    scanned = failure(fa._scan_ring, ring)
    assert fa._ring_axioms_hold(ring) == (scanned is None)
    assert failure(fa.validate_ring, ring) == scanned
    return scanned


def assert_module_agrees(module):
    scanned = failure(fa._scan_module, module)
    assert fa._module_axioms_hold(module) == (scanned is None)
    assert failure(fa.validate_module, module) == scanned
    return scanned


def product_ring_tables(m, seed):
    """Z/m x Z/m as explicit tables under a seeded relabelling of its elements."""
    n = m * m
    perm = np.random.default_rng(seed).permutation(n)
    inv = np.argsort(perm)
    a, b = np.divmod(inv, m)  # element x is the pair (a[x], b[x])
    add = perm[(a[:, None] + a[None, :]) % m * m + (b[:, None] + b[None, :]) % m]
    mul = perm[(a[:, None] * a[None, :]) % m * m + (b[:, None] * b[None, :]) % m]
    return ring_tables(add, mul, int(perm[0]), int(perm[m + 1]), label=f"X{m}")


def valid_rings():
    rings = [build_zmod(n) for n in range(1, 41)]
    rings += [build_truncated_poly_ring(p, k, c)
              for p, k, c in ((2, 1, 1), (2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2),
                              (2, 3, 2), (5, 1, 2), (3, 1, 3))]
    z36, trunc = build_zmod(36), build_truncated_poly_ring(2, 2, 3)
    rings += [quotient_ring(z36, ideal_generated(z36, [g])) for g in (4, 6, 9)]
    rings += [quotient_ring(trunc, ideal_generated(trunc, [g])) for g in (2, 4, 6)]
    return rings


def valid_modules():
    z12, trunc = build_zmod(12), build_truncated_poly_ring(2, 2, 2)
    m12, mt = ring_as_module(z12), ring_as_module(trunc)
    mods = [m12, mt, direct_sum(m12, m12), direct_sum(mt, mt)]
    mods += [quotient_module(m12, submodule_generated(m12, [g])) for g in (2, 3, 4, 6)]
    mods += [quotient_module(mt, submodule_generated(mt, [g])) for g in (1, 2, 4)]
    mods.append(direct_sum(mods[-1], mods[-2]))
    return mods


class TestValidCorpus:
    @pytest.mark.parametrize("ring", valid_rings(), ids=lambda r: r.label)
    def test_ring_accepted(self, ring):
        assert assert_ring_agrees(ring) is None

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_relabelled_product_accepted(self, m):
        for seed in range(3):
            assert assert_ring_agrees(product_ring_tables(m, seed)) is None

    @pytest.mark.parametrize("module", valid_modules(), ids=lambda m: m.label)
    def test_module_accepted(self, module):
        assert assert_module_agrees(module) is None


def corruptions(table, symmetric):
    """Every table that differs from `table` in one cell, or in one cell and
    its mirror, which keeps a commutative table commutative."""
    rows, cols = table.shape
    for i in range(rows):
        for j in range(i if symmetric else 0, cols):
            for v in range(cols):
                if v == table[i, j]:
                    continue
                bad = table.copy()
                bad[i, j] = v
                if symmetric:
                    bad[j, i] = v
                yield bad


SMALL_RINGS = [build_zmod(4), build_zmod(6), build_truncated_poly_ring(2, 1, 2),
               build_truncated_poly_ring(2, 2, 2)]


class TestCorruptedRings:
    @pytest.mark.parametrize("base", SMALL_RINGS, ids=lambda r: r.label)
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_every_cell(self, base, symmetric):
        rejected = 0
        for bad in corruptions(base.add_table, symmetric):
            rejected += assert_ring_agrees(
                ring_tables(bad, base.mul_table, base.zero, base.one)) is not None
        for bad in corruptions(base.mul_table, symmetric):
            rejected += assert_ring_agrees(
                ring_tables(base.add_table, bad, base.zero, base.one)) is not None
        assert rejected > 0

    @pytest.mark.parametrize("base", SMALL_RINGS, ids=lambda r: r.label)
    def test_wrong_zero_or_one(self, base):
        for zero in range(base.size):
            for one in range(base.size):
                assert_ring_agrees(ring_tables(base.add_table, base.mul_table, zero, one))

    def test_non_associative_multiplication(self):
        # basis 1, a, b with a*a = b, a*b = a, b*b = 0: commutative, unital and
        # distributive, but (a*a)*b = 0 while a*(a*b) = b
        add, mul = f2_algebra([[0b100, 0b010], [0b010, 0]])
        ring = ring_tables(add, mul, 0, 1)
        gens = additive_generators(ring.add_table, 0)
        assert associates_on(ring.add_table, ring.add_table, gens)
        assert additive_on(ring.mul_table, ring.add_table, ring.add_table, gens)
        assert assert_ring_agrees(ring) == "ring 'R' multiplication not associative at (2, 2, 4)"

    def test_empty_and_trivial(self):
        assert assert_ring_agrees(ring_tables(np.zeros((0, 0)), np.zeros((0, 0)), 0, 0)) \
            == "ring 'R': empty element set"
        assert assert_ring_agrees(ring_tables([[0]], [[0]], 0, 0)) is None

    def test_loop_rejected_only_by_associativity(self):
        loop = np.asarray(LOOP6)
        audit_commutative(loop, "loop")
        audit_identity(loop, 0, "loop")
        audit_group_rows(loop, "loop")
        ring = ring_tables(loop, CYCLIC6)
        gens = additive_generators(loop, 0)
        assert additive_on(ring.mul_table, loop, loop, gens)
        assert associates_on(ring.mul_table, ring.mul_table, gens)
        message = assert_ring_agrees(ring)
        assert message == "ring 'R' addition not associative at (1, 1, 2)"


SMALL_MODULES = [ring_as_module(build_zmod(4)),
                 quotient_module(ring_as_module(build_zmod(4)),
                                 submodule_generated(ring_as_module(build_zmod(4)), [2])),
                 direct_sum(ring_as_module(build_zmod(2)), ring_as_module(build_zmod(2))),
                 ring_as_module(build_truncated_poly_ring(2, 1, 2))]


class TestCorruptedModules:
    @pytest.mark.parametrize("base", SMALL_MODULES, ids=lambda m: m.label)
    def test_every_add_cell(self, base):
        for symmetric in (False, True):
            for bad in corruptions(base.add_table, symmetric):
                assert_module_agrees(module_tables(base.ring, bad, base.action_table,
                                                   base.zero))

    @pytest.mark.parametrize("base", SMALL_MODULES, ids=lambda m: m.label)
    def test_every_action_cell(self, base):
        rejected = 0
        for bad in corruptions(base.action_table, symmetric=False):
            rejected += assert_module_agrees(
                module_tables(base.ring, base.add_table, bad, base.zero)) is not None
        assert rejected == base.action_table.size * (base.size - 1)

    def test_loop_module_over_zero_ring(self):
        zero_ring = build_zmod(1)
        message = assert_module_agrees(module_tables(zero_ring, LOOP6, [list(range(6))]))
        assert message == "module 'M' addition not associative at (1, 1, 2)"

    def test_non_associative_addition_over_f2(self):
        # 0 acts as 0 and 1 as the identity: every law but + associativity holds
        f2 = build_zmod(2)
        loop = steiner_loop9()
        module = module_tables(f2, loop, [[0] * 10, list(range(10))])
        assert assert_module_agrees(module) == \
            "module 'M' addition not associative at (1, 2, 4)"

    def test_non_additive_row(self):
        # over F2 x F2 = {0, 1, e, 1-e} acting on F2^2 = {0, u, v, u+v}: e acts by
        # the idempotent u -> u, v -> 0, u+v -> 0, which is not additive, and
        # 1-e by x -> x + e.x; the sum and product laws hold pointwise
        one, e, f = 1, 2, 3
        idx = np.arange(4)
        radd = idx[:, None] ^ idx[None, :]
        rmul = np.zeros((4, 4), dtype=np.int64)
        rmul[one] = rmul[:, one] = idx
        rmul[e, e], rmul[f, f] = e, f
        ring = ring_tables(radd, rmul, 0, one)
        assert assert_ring_agrees(ring) is None
        act = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 1, 0, 0], [0, 0, 2, 3]]
        message = assert_module_agrees(module_tables(ring, radd, act))
        assert message == "module 'M': r(x+y) fails at (r,x,y)=(2,1,2)"

    def test_action_not_multiplicative(self):
        # F2[a]/a^2 on F2^2 with a acting by the swap: additive in r and in x,
        # but a*a acts as 0 while the swap squared is the identity
        ring = build_truncated_poly_ring(2, 1, 2)
        idx = np.arange(4)
        swap = [0, 2, 1, 3]
        act = [[0] * 4, list(idx), swap, [int(x) ^ swap[x] for x in idx]]
        message = assert_module_agrees(module_tables(ring, idx[:, None] ^ idx[None, :], act))
        assert message == "module 'M': (rs)x fails at (r,s,x)=(2,2,1)"

    def test_nonzero_module_over_zero_ring(self):
        # 0 acts as the identity, so (0+0)x = 0x + 0x fails for x != 0
        message = assert_module_agrees(
            module_tables(build_zmod(1), build_zmod(2).add_table, [[0, 1]]))
        assert message == "module 'M': (r+s)x fails at (r,s,x)=(0,0,1)"


class TestFallbackGuard:
    def test_disagreeing_fast_path_is_an_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(fa, "associates_on", lambda *args: False)
        with pytest.raises(InvariantViolation, match="full scan passed"):
            fa.validate_ring(ring_tables(build_zmod(6).add_table, build_zmod(6).mul_table))
        with pytest.raises(InvariantViolation, match="full scan passed"):
            fa.validate_module(module_tables(build_zmod(6), build_zmod(6).add_table,
                                             build_zmod(6).mul_table))


class TestRingAsModule:
    """R acting on itself is the ring, and is never audited as a module."""

    @pytest.mark.parametrize("ring", valid_rings(), ids=lambda r: r.label)
    def test_explicit_audit_passes(self, ring):
        assert ring.action_table is ring.mul_table
        fa.validate_module(ring)
        assert assert_module_agrees(ring) is None

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_explicit_audit_passes_relabelled(self, m):
        tables = product_ring_tables(m, seed=m)
        ring = fa.FiniteRing(tables.add_table, tables.mul_table, tables.zero, tables.one)
        fa.validate_module(ring)

    def test_ring_is_its_own_module_and_is_not_audited_as_one(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fa, "validate_module", calls.append)
        ring = build_zmod(12)
        assert ring_as_module(ring) is ring.ring is ring
        assert ring.action_table is ring.mul_table
        assert calls == []
        # a module built on the ring's own tables is a second object, audited
        # like any other table set, and so are copies of the tables
        own = fa.FiniteModule(ring, ring.add_table, ring.mul_table, ring.zero)
        copied = fa.FiniteModule(ring, ring.add_table.copy(), ring.mul_table.copy(), ring.zero)
        listed = fa.FiniteModule(ring, ring.add_table.tolist(), ring.mul_table, ring.zero)
        assert own is not ring
        assert calls == [own, copied, listed]

    def test_own_tables_share_the_ring_mirrors(self):
        # R_R is the ring, so it has the ring's negation table; copied tables
        # build a negation table of their own, with the same entries
        ring = build_zmod(12)
        copied = fa.FiniteModule(ring, ring.add_table.copy(), ring.mul_table.copy(), ring.zero)
        assert copied.neg_table is not ring.neg_table
        assert np.array_equal(copied.neg_table, ring.neg_table)

    @pytest.mark.parametrize("which", ["add", "action"])
    def test_corrupted_copy_raises_the_audit_error(self, which):
        ring = build_zmod(6)
        add, act = ring.add_table, ring.mul_table
        bad = (add if which == "add" else act).copy()
        bad[2, 3] = (bad[2, 3] + 1) % 6
        if which == "add":
            add = bad
        else:
            act = bad
        expected = failure(fa._scan_module, module_tables(ring, add, act))
        assert expected is not None
        with pytest.raises(AxiomError) as exc:
            fa.FiniteModule(ring, add, act, ring.zero, label="M")
        assert str(exc.value) == expected

    def test_own_tables_with_another_zero_are_audited(self):
        ring = build_zmod(6)
        expected = failure(fa._scan_module, module_tables(ring, ring.add_table,
                                                          ring.mul_table, zero=1))
        with pytest.raises(AxiomError) as exc:
            fa.FiniteModule(ring, ring.add_table, ring.mul_table, 1, label="M")
        assert str(exc.value) == expected


def _entries(op, rows, cols=None):
    """op over every index (pair) as an array; every value must be a Python int."""
    if cols is None:
        out = [op(a) for a in range(rows)]
        assert all(type(v) is int for v in out)
    else:
        out = [[op(a, b) for b in range(cols)] for a in range(rows)]
        assert all(type(v) is int for row in out for v in row)
    return np.array(out)


class TestTablesOnly:
    """A ring or module is its numpy index tables; no Python lists mirror them."""

    def test_scalar_accessors_read_the_tables(self):
        ring = build_truncated_poly_ring(2, 2, 3)
        quotient = quotient_module(ring, submodule_generated(ring, [2]))
        n = ring.size
        assert np.array_equal(_entries(ring.add, n, n), ring.add_table)
        assert np.array_equal(_entries(ring.mul, n, n), ring.mul_table)
        assert np.array_equal(_entries(ring.neg, n), ring.neg_table)
        for module in (ring, quotient):
            m = module.size
            assert np.array_equal(_entries(module.add, m, m), module.add_table)
            assert np.array_equal(_entries(module.act, n, m), module.action_table)
            assert np.array_equal(_entries(module.neg, m), module.neg_table)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_ring_and_its_module_build_in_bounded_memory(self):
        # 1,024 elements: the add and mul tables take 8 MB each and the module
        # shares them; Python row lists of the tables once took 77 MB here
        script = ("import resource\n"
                  "from sgmod import build_truncated_poly_ring\n"
                  "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                  "build_truncated_poly_ring(2, 3, 3)\n"
                  "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                  "print(after - before)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(fa.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert int(out.stdout) <= 60 * 1024


class TestGenerators:
    @pytest.mark.parametrize("ring", valid_rings(), ids=lambda r: r.label)
    def test_greedy_generators_span(self, ring):
        gens = additive_generators(ring.add_table, ring.zero)
        n = ring.size
        if n == 1:
            assert gens == [ring.zero]
            return
        assert len(gens) <= math.log2(n)
        span = {ring.zero}
        while True:
            grown = span | {int(ring.add_table[x, g]) for x in span for g in gens}
            if grown == span:
                break
            span = grown
        assert span == set(range(n))

    def test_cyclic_group_has_one_generator(self):
        assert additive_generators(build_zmod(40).add_table, 0) == [1]


def _add_table_by_digit_cube(p, nvars, cap):
    """The (n, n, B) broadcast that build_truncated_poly_ring once used."""
    B = len(fa._truncated_monomials(nvars, cap))
    n = p ** B
    powers = p ** np.arange(B, dtype=np.int64)
    coeffs = (np.arange(n)[:, None] // powers[None, :]) % p
    return (((coeffs[:, None, :] + coeffs[None, :, :]) % p) * powers).sum(axis=2)


class TestTruncatedPolyTables:
    @pytest.mark.parametrize("p,nvars,cap",
                             [(2, 1, 1), (2, 2, 3), (3, 2, 2), (3, 4, 2), (5, 2, 2), (7, 1, 2)])
    def test_add_table_matches_broadcast_oracle(self, p, nvars, cap):
        ring = build_truncated_poly_ring(p, nvars, cap)
        expected = _add_table_by_digit_cube(p, nvars, cap)
        assert ring.add_table.dtype == np.int32
        assert ring.add_table.tobytes() == expected.astype(np.int32).tobytes()

    def test_1024_element_ring_and_module_build(self):
        # the cubic audits took about 25 s here; the generator audits well under 2 s
        ring = build_truncated_poly_ring(2, 3, 3)
        module = ring_as_module(ring)
        assert ring.size == module.size == 1024
        assert len(additive_generators(ring.add_table, ring.zero)) == 10


def _z6_sum():
    m6 = ring_as_module(build_zmod(6))
    return direct_sum(m6, m6)


class TestInt32Tables:
    """int32 is the one dtype of every operation table, whatever builds it."""

    @pytest.mark.parametrize("build", [
        lambda: build_zmod(6),
        lambda: build_truncated_poly_ring(3, 2, 2),
        lambda: FiniteRing([[(a + b) % 4 for b in range(4)] for a in range(4)],
                           [[(a * b) % 4 for b in range(4)] for a in range(4)], 0, 1),
        lambda: quotient_ring(build_zmod(12), ideal_generated(build_zmod(12), [4])),
    ])
    def test_ring_tables(self, build):
        ring = build()
        for table in (ring.add_table, ring.mul_table, ring.neg_table):
            assert table.dtype == np.int32

    @pytest.mark.parametrize("build", [
        lambda: ring_as_module(build_truncated_poly_ring(2, 2, 2)),
        lambda: module_from_tables(build_zmod(4),
                                   [[(x + y) % 4 for y in range(4)] for x in range(4)],
                                   [[(r * x) % 4 for x in range(4)] for r in range(4)], 0),
        _z6_sum,
        lambda: quotient_module(_z6_sum(), submodule_generated(_z6_sum(), [3])),
    ])
    def test_module_tables(self, build):
        module = build()
        for table in (module.add_table, module.action_table, module.neg_table):
            assert table.dtype == np.int32

    @pytest.mark.parametrize("build", [
        lambda: cyclic_group_monoid(3),
        lambda: saturating_monoid(2),
        lambda: monoid_from_table([[0, 1], [1, 0]], 0),
    ])
    def test_monoid_cayley_table(self, build):
        assert build().cayley.dtype == np.int32

    def test_int64_entries_past_int32_are_out_of_range_not_wrapped(self):
        # 2^32 + 1 would wrap to 1 in a bare int32 cast
        add = (np.arange(2)[:, None] + np.arange(2)) % 2
        add[1, 1] = 2**32
        with pytest.raises(AxiomError, match=r"entry at \(1, 1\) out of range 0..1"):
            FiniteRing(add, [[0, 0], [0, 1]], 0, 1)


class TestDirectSumCap:
    def test_cap_is_checked_before_the_tables_are_built(self):
        m65 = ring_as_module(build_zmod(65))
        with pytest.raises(SizeCapError, match="65 \\* 65 = 4225 exceeds cap 4096"):
            direct_sum(m65, m65)


class TestTiledCommutativity:
    # tiles are 256 x 256, so 600 elements give three tile rows and a ragged edge
    @pytest.mark.parametrize("cells", [[(5, 300)], [(300, 5)], [(599, 260)],
                                       [(400, 520), (10, 590)], [(3, 7), (100, 580)]])
    def test_names_the_least_cell_of_the_full_comparison(self, cells):
        table = build_zmod(600).add_table.copy()
        for i, j in cells:
            table[i, j] = (table[i, j] + 1) % 600
        i, j = np.argwhere(table != table.T)[0]
        with pytest.raises(AxiomError, match=rf"^t not commutative at \({i}, {j}\)$"):
            audit_commutative(table, "t")

    def test_commutative_tables_pass(self):
        for n in (1, 255, 256, 257, 600):
            audit_commutative(build_zmod(n).mul_table, "t")
