"""One size cap, SIZE_CAP = 4,096 elements, on each of the five paths that
build a ring or module from its size: checked before any table is converted,
audited or allocated, at library and at session level."""

import io
import json
import tracemalloc

import pytest

import sgmod.finite_algebra as fa
from sgmod import (FiniteRing, SizeCapError, build_truncated_poly_ring, build_zmod, direct_sum,
                   module_from_tables, ring_as_module)
from sgmod.cli import main

SIZE_CAP = fa.SIZE_CAP


class Reached(Exception):
    """Raised in place of converting a table of SIZE_CAP rows: the cap let the
    construction through to its tables."""


def _rows(size):
    # rows that are never read: only their number is checked
    return [[0]] * size


# path -> (library construction, session definitions) for a given size; the
# smallest over-cap case of each path has 4,097 elements, except truncated_poly
# (2^13) and direct_sum (65 * 65), whose sizes are powers and products
PATHS = {
    "zmod": (
        lambda over: build_zmod(4097 if over else 4096),
        lambda over: {"rings": {"X": {"kind": "zmod", "n": 4097 if over else 4096}}},
    ),
    "truncated_poly": (
        lambda over: build_truncated_poly_ring(2, 12 if over else 11, 2),
        lambda over: {"rings": {"X": {"kind": "truncated_poly", "p": 2,
                                      "nvars": 12 if over else 11, "cap": 2}}},
    ),
    "tables_ring": (
        lambda over: FiniteRing(_rows(4097 if over else 4096), _rows(4097 if over else 4096),
                                0, 0, label="X"),
        lambda over: {"rings": {"X": {"kind": "tables", "add": _rows(4097 if over else 4096),
                                      "mul": _rows(4097 if over else 4096),
                                      "zero": 0, "one": 0}}},
    ),
    "tables_module": (
        lambda over: module_from_tables(build_zmod(2), _rows(4097 if over else 4096),
                                        [[0]] * 2, 0, label="X"),
        lambda over: {"rings": {"R2": {"kind": "zmod", "n": 2}},
                      "modules": {"X": {"kind": "tables", "ring": "R2",
                                        "add": _rows(4097 if over else 4096),
                                        "action": [[0]] * 2, "zero": 0}}},
    ),
    "direct_sum": (
        lambda over: direct_sum(*[ring_as_module(build_zmod(65 if over else 64))] * 2),
        lambda over: {"rings": {"R": {"kind": "zmod", "n": 65 if over else 64}},
                      "modules": {"M": {"kind": "ring_as_module", "ring": "R"},
                                  "X": {"kind": "direct_sum", "left": "M", "right": "M"}}},
    ),
}


@pytest.fixture
def watched(monkeypatch):
    """The calls that convert, audit or enumerate, as (name, size) pairs; a
    table of SIZE_CAP rows raises Reached instead of being converted."""
    calls = []
    convert = fa.as_index_table

    def watched_convert(table, rows, cols, what):
        calls.append(("as_index_table", max(rows, cols)))
        if rows >= SIZE_CAP:
            raise Reached(what)
        return convert(table, rows, cols, what)

    monkeypatch.setattr(fa, "as_index_table", watched_convert)
    for name in ("validate_ring", "validate_module"):
        def audit(obj, _original=getattr(fa, name), _name=name):
            calls.append((_name, obj.size))
            return _original(obj)
        monkeypatch.setattr(fa, name, audit)
    for name in ("_is_prime_int", "_truncated_monomials"):
        def step(*args, _original=getattr(fa, name), _name=name):
            calls.append((_name, None))
            return _original(*args)
        monkeypatch.setattr(fa, name, step)
    return calls


def _session(tmp_path, over, path):
    doc = {**PATHS[path][1](over), "commands": []}
    file = tmp_path / "session.json"
    file.write_text(json.dumps(doc))
    return str(file)


def _peak_bytes(call):
    """The peak of the memory traced while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _large_steps(calls):
    """The calls on an object of SIZE_CAP or more elements, and the truncated
    ring's primality test and enumeration."""
    return [(name, size) for name, size in calls if size is None or size >= SIZE_CAP]


@pytest.mark.parametrize("path", list(PATHS))
class TestSizeCap:
    def test_library_over_cap_raises_before_any_table(self, path, watched):
        def build():
            with pytest.raises(SizeCapError, match=f"exceeds cap {SIZE_CAP}$"):
                PATHS[path][0](True)

        # a table of 4,097 rows would take 64 MB as int32
        assert _peak_bytes(build) < 2 ** 23
        assert _large_steps(watched) == []

    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_session_over_cap_exits_two_before_any_table(self, path, watched, tmp_path,
                                                          subcommand):
        out = io.StringIO()
        session = _session(tmp_path, True, path)
        assert _peak_bytes(lambda: main([subcommand, session], stream=out)) < 2 ** 23
        (line,) = out.getvalue().splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "SessionError"
        assert f"exceeds cap {SIZE_CAP} [" in error["message"]
        assert _large_steps(watched) == []

    def test_library_at_cap_reaches_the_tables(self, path, watched):
        with pytest.raises(Reached):
            PATHS[path][0](False)
        assert watched[-1] == ("as_index_table", SIZE_CAP)
        # the steps the over-cap cases must not reach are reached here
        steps = [name for name, size in watched if size is None]
        assert steps == (["_is_prime_int", "_truncated_monomials"]
                         if path == "truncated_poly" else [])

    def test_session_at_cap_reaches_the_tables(self, path, watched, tmp_path):
        with pytest.raises(Reached):
            main(["validate", _session(tmp_path, False, path)], stream=io.StringIO())
        assert watched[-1] == ("as_index_table", SIZE_CAP)


@pytest.mark.parametrize("p,nvars,cap", [
    (10**18 + 3, 1, 1),  # a prime whose trial division would take minutes
    (2, 3, 3000),        # 4.5 * 10^9 monomials
    (2, 5000, 2),        # an enumeration 5,000 levels deep
    (2, 5000, 1),        # F_2, with 5,000 variable names
], ids=["huge_prime", "high_degree", "many_variables", "many_dead_variables"])
def test_truncated_poly_is_bounded_before_its_primality_test(watched, p, nvars, cap):
    with pytest.raises(SizeCapError):
        build_truncated_poly_ring(p, nvars, cap)
    assert watched == []
