"""Window sum patterns, and the session memo of verify payloads they key.

A window verifier reads its exponents only through the window's sum pattern:
which pairwise sums coincide. Windows of one pattern in any good monoid are
Freiman 2-isomorphic, so they give one payload up to the config echo and the
exponents of the series it reports. The tests realise patterns in N, N² and
N³ and compare the payloads of all five window verifiers position by
position. A session reuses a payload that holds no series across the windows
of one pattern; here its reports are compared with and without the memo, on
the pinned and generated sessions and on windows built to tempt a wrong hit.
"""

import hashlib
import importlib.util
import io
import itertools
import json
import os
import re

import pytest

import sgmod.session as session_mod
import sgmod.verify as verify_mod
from sgmod import (
    SupportWindow,
    associated_primes,
    cyclic_group_monoid,
    execute,
    free_monoid,
    ideal_action_submodule,
    load_session,
    submodule_from_members,
    submodule_generated,
    verify_domain_prime_extension,
    verify_mccoy_equivalence,
    verify_regularity_transfer,
    verify_submodule_transfer,
    verify_zero_divisor_transfer,
)
from sgmod.cli import main

from test_golden import DATA, GEN
from test_local_factors import _every_vanishing_pair_fails
from test_window_kernel import CASES, CASE_IDS

NAT, NAT2, NAT3 = free_monoid(1), free_monoid(2), free_monoid(3)

# one pattern per row, realised in N, N² and N³, with its support cap
PATTERNS = [
    # two exponents: every pair of a good monoid has this pattern
    ([(0,), (1,)], [(0, 0), (2, 1)], [(1, 0, 0), (0, 0, 3)], None),
    # an arithmetic progression: 0 + 2 = 1 + 1
    ([(0,), (1,), (2,)], [(0, 0), (1, 1), (2, 2)], [(1, 0, 0), (2, 1, 1), (3, 2, 2)], 1),
    # no sum coincides with another
    ([(0,), (1,), (3,)], [(0, 0), (1, 0), (0, 1)], [(0, 0, 0), (1, 0, 0), (0, 0, 1)], 2),
]
# the largest window pair count run per verifier call
PAIR_LIMIT = 40_000

SERIES_KEYS = {"f", "g", "h", "r", "x"}


def _as_positions(payload, window):
    """The payload without its config echo, each series exponent replaced by
    its position in the window, and the terms in position order (a series
    lists its terms in the monoid's order of exponents)."""
    where = {e: i for i, e in enumerate(window.exponents)}

    def walk(value, key=None):
        if isinstance(value, dict):
            return {k: walk(v, k) for k, v in value.items() if k != "config"}
        if key in SERIES_KEYS and isinstance(value, list):
            return sorted([where[tuple(e) if isinstance(e, list) else e], c] for e, c in value)
        if isinstance(value, list):
            return [walk(v) for v in value]
        return value

    return walk(payload)


def _run_all(ring, module, monoid, window, sub=None):
    """The reports of the five window verifiers; submodule_transfer runs on
    sub, by default the zero submodule, which is prime, primary or neither by
    the case."""
    sub = submodule_generated(module, []) if sub is None else sub
    budget = 10**9
    return {
        "mccoy_equivalence": verify_mccoy_equivalence(ring, module, monoid, window, budget),
        "domain_prime_extension": verify_domain_prime_extension(ring, module, monoid, window,
                                                                budget),
        "submodule_transfer": verify_submodule_transfer(module, sub, monoid, window, budget),
        "regularity_transfer": verify_regularity_transfer(ring, module, monoid, window, budget),
        "zero_divisor_transfer": verify_zero_divisor_transfer(ring, module, monoid, window,
                                                              budget),
    }


def _coincidences(pattern):
    """The sum pattern as a partition of the unordered position pairs."""
    _, pos = pattern
    classes = {}
    for i, row in enumerate(pos):
        for j, k in enumerate(row):
            classes.setdefault(k, set()).add(frozenset((i, j)))
    return {frozenset(c) for c in classes.values()}


# ---------------------------------------------------------------------------
# the pattern


@pytest.mark.parametrize("monoid,exponents", [
    (NAT, [(0,), (1,), (2,), (4,)]),
    (NAT, [(5,), (0,), (3,)]),
    (NAT2, [(0, 0), (1, 0), (0, 1), (1, 1)]),
    (NAT3, [(2, 0, 1), (0, 0, 0), (1, 0, 0)]),
    (cyclic_group_monoid(5), [0, 1, 2, 3, 4]),
    (cyclic_group_monoid(4), [3, 1]),
])
def test_sum_pattern_numbers_the_pairwise_sums_by_first_appearance(monoid, exponents):
    n_prod, pos = SupportWindow(tuple(exponents)).sum_pattern(monoid)
    sums = [[monoid.add(a, b) for b in exponents] for a in exponents]
    firsts = list(dict.fromkeys(s for row in sums for s in row))
    assert n_prod == len(firsts)
    assert pos == tuple(tuple(firsts.index(s) for s in row) for row in sums)


@pytest.mark.parametrize("row", PATTERNS, ids=["2", "progression", "sidon"])
def test_one_pattern_in_n_n2_and_n3(row):
    *realisations, max_support = row
    patterns = {SupportWindow(tuple(e), max_support).sum_pattern(m)
                for m, e in zip((NAT, NAT2, NAT3), realisations)}
    assert len(patterns) == 1


def test_every_two_exponent_window_of_a_good_monoid_has_one_pattern():
    # a + a, a + b and b + b are distinct when a ≠ b in a cancellative,
    # torsion-free monoid: 2a = a + b gives a = b, and 2a = 2b does too
    expected = (3, ((0, 1), (1, 2)))
    for monoid in (NAT, NAT2, NAT3):
        points = list(itertools.islice(
            itertools.product(range(3), repeat=monoid.dim), 12))
        for a, b in itertools.permutations(points, 2):
            assert SupportWindow((a, b)).sum_pattern(monoid) == expected


def test_sum_pattern_is_computed_once_per_window_and_monoid(monkeypatch):
    window = SupportWindow(((0,), (1,), (3,)))
    calls = []
    real = NAT.translates
    monkeypatch.setattr(NAT, "translates", lambda s, ts: calls.append(s) or real(s, ts))
    first = window.sum_pattern(NAT)
    assert window.sum_pattern(NAT) is first
    assert len(calls) == 3
    # another monoid is another pattern
    assert SupportWindow(((0, 0), (1, 0))).sum_pattern(NAT2) == (3, ((0, 1), (1, 2)))


# ---------------------------------------------------------------------------
# the identity behind the memo: one pattern, one payload


@pytest.mark.parametrize("label,ring,module", CASES, ids=CASE_IDS)
def test_windows_of_one_pattern_give_one_payload(label, ring, module):
    for *realisations, max_support in PATTERNS:
        windows = [SupportWindow(tuple(e), max_support) for e in realisations]
        if windows[0].count(ring.size) * windows[0].count(module.size) > PAIR_LIMIT:
            continue
        runs = [{s: _as_positions(r.to_payload(), w)
                 for s, r in _run_all(ring, module, m, w).items()}
                for m, w in zip((NAT, NAT2, NAT3), windows)]
        assert runs[0] == runs[1] == runs[2]
        assert all(p["outcome"] == "pass" for p in runs[0].values())


REORDER_CASES = [c for c in CASES if c[0] in ("Z/4", "Z/6", "Z/12", "Z/4 (+) Z/2",
                                              "F2[a,b]/(a^2,b^2)")]


@pytest.mark.parametrize("label,ring,module", REORDER_CASES,
                         ids=[c[0] for c in REORDER_CASES])
def test_reordered_window_keeps_its_pattern_and_pass_details(label, ring, module):
    # a prime submodule, so submodule_transfer expects no violation: the
    # least violation is the one thing a reordering may change
    prime = associated_primes(module)[0][0]
    sub = ideal_action_submodule(prime, submodule_from_members(module, module.elements()))
    for monoid, exponents, max_support in [(NAT, [(0,), (1,), (3,)], 2),
                                           (NAT, [(0,), (1,), (2,)], 1),
                                           (NAT2, [(0, 0), (1, 0), (0, 1), (1, 1)], 1)]:
        base = SupportWindow(tuple(exponents), max_support)
        if base.count(ring.size) * base.count(module.size) > PAIR_LIMIT:
            continue
        details = None
        for order in itertools.permutations(range(len(exponents))):
            window = SupportWindow(tuple(exponents[i] for i in order), max_support)
            # position k of the reordered window is position order[k] of the base
            relabeled = {frozenset(frozenset(order[i] for i in pair) for pair in c)
                         for c in _coincidences(window.sum_pattern(monoid))}
            assert relabeled == _coincidences(base.sum_pattern(monoid))
            reports = _run_all(ring, module, monoid, window, sub)
            assert all(r.outcome == "pass" for r in reports.values())
            got = {s: r.details for s, r in reports.items()}
            if details is None:
                details = got
            assert got == details


# ---------------------------------------------------------------------------
# the session memo


def _memo_off(monkeypatch):
    """Store no payload: every verify command runs its verifier."""
    monkeypatch.setattr(session_mod, "_holds_no_series", lambda payload: False)


def _report(path):
    """The exit code, payload hashes and json-lines text of `sgmod run`, with
    every elapsed_ms value replaced by 0."""
    out = io.StringIO()
    code = main(["run", str(path)], stream=out)
    text = re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', out.getvalue())
    hashes = [json.loads(line).get("payload_hash") for line in text.splitlines()]
    return code, hashes, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _generated_sessions(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    paths = []
    for seed in (11, 12, 13):
        paths += gen.write_sessions(tmp_path / f"seed{seed}", seed).values()
    return paths


def _count_calls(monkeypatch, name):
    """Count the calls of session_mod.<name>, which still runs."""
    real = getattr(session_mod, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(session_mod, name, counted)
    return calls


def test_memo_keeps_every_report_of_the_pinned_and_generated_sessions(tmp_path, monkeypatch):
    data = [os.path.join(DATA, name) for name in sorted(os.listdir(DATA))
            if name.endswith(".json") and name != "golden_hashes.json"]
    paths = data + _generated_sessions(tmp_path)
    assert len(paths) == 16
    mccoy = _count_calls(monkeypatch, "verify_mccoy_equivalence")
    with_memo = [_report(p) for p in paths]
    distinct = sum(c.get("statement") == "mccoy_equivalence"
                   for p in paths for c in _distinct_commands(p))
    # each command_stream session verifies one pattern at three windows: two are hits
    assert len(mccoy) == distinct - 3 * 2
    _memo_off(monkeypatch)
    assert [_report(p) for p in paths] == with_memo


def _distinct_commands(path):
    with open(path, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    return list({json.dumps(c, sort_keys=True): c for c in commands}.values())


def _doc(*commands):
    return {
        "rings": {"Z6": {"kind": "zmod", "n": 6}, "Z6b": {"kind": "zmod", "n": 6},
                  "Z4": {"kind": "zmod", "n": 4}},
        "modules": {"M6": {"kind": "ring_as_module", "ring": "Z6"},
                    "M6b": {"kind": "ring_as_module", "ring": "Z6b"},
                    "M4": {"kind": "ring_as_module", "ring": "Z4"}},
        "submodules": {"Z": {"module": "M4", "members": [0]}},
        "monoids": {"N": {"kind": "free", "dim": 1}, "N2": {"kind": "free", "dim": 2}},
        "commands": [{"op": "verify", **c} for c in commands],
    }


def _mccoy(window, **extra):
    return {"op": "verify", "statement": "mccoy_equivalence", "ring": "Z6", "module": "M6",
            "monoid": "N", "window": window, **extra}


def _unpaced(records):
    return [dict(r, elapsed_ms=0) for r in records]


def _records(tmp_path, doc):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    code = main(["run", str(path)], stream=out)
    return code, [json.loads(line) for line in out.getvalue().splitlines()][:-1]


def test_a_hit_is_the_payload_of_its_own_window(tmp_path, monkeypatch):
    doc = _doc(_mccoy([0, 1]), _mccoy([0, 3]), _mccoy([5, 2]))
    runs = _count_calls(monkeypatch, "verify_mccoy_equivalence")
    code, records = _records(tmp_path, doc)
    assert code == 0 and len(runs) == 1
    assert [r["payload"]["config"]["window"] for r in records] == [[[0], [1]], [[0], [3]],
                                                                   [[5], [2]]]
    _memo_off(monkeypatch)
    assert _unpaced(_records(tmp_path, doc)[1]) == _unpaced(records)
    assert len(runs) == 4


def test_a_planted_counterexample_is_not_reused(tmp_path, monkeypatch):
    # every vanishing pair with g ≠ 0 fails Dedekind-Mertens: each window
    # reports its own least pair, at its own exponents
    monkeypatch.setattr(verify_mod, "_dm_search", _every_vanishing_pair_fails)
    runs = _count_calls(monkeypatch, "verify_mccoy_equivalence")
    code, records = _records(tmp_path, _doc(_mccoy([0, 1]), _mccoy([0, 2]), _mccoy([0, 3])))
    assert code == 1 and len(runs) == 3
    for record, e in zip(records, (1, 2, 3)):
        counterexample = record["payload"]["counterexample"]
        assert counterexample["clause"] == "dedekind_mertens"
        assert [e] in [t[0] for key in ("f", "g") for t in counterexample[key]]
    # the least pair is the same, position by position
    least = [_as_positions(r["payload"], SupportWindow(((0,), (e,))))
             for r, e in zip(records, (1, 2, 3))]
    assert least[0] == least[1] == least[2]


def test_a_pass_with_an_expected_violation_is_not_reused(tmp_path, monkeypatch):
    # (0) in Z/4 is primary but not prime: the pass carries the least
    # violation of the prime transfer, at the window's own exponents
    command = {"statement": "submodule_transfer", "submodule": "Z", "monoid": "N"}
    runs = _count_calls(monkeypatch, "verify_submodule_transfer")
    code, records = _records(tmp_path, _doc(dict(command, window=[0, 1]),
                                            dict(command, window=[0, 2])))
    assert code == 0 and len(runs) == 2
    for record, e in zip(records, (1, 2)):
        violation = record["payload"]["details"]["expected_prime_violation"]
        assert [e] in [t[0] for key in ("r", "x") for t in violation[key]]


def test_a_hit_still_checks_the_exponents_against_the_monoid(tmp_path, monkeypatch):
    # [0, 1] and [0, -1] would have one pattern in Z; -1 is outside N
    doc = _doc(_mccoy([0, 1]), _mccoy([0, -1]),
               _mccoy([[0, 0], [1, 0]], monoid="N2"), _mccoy([[0, 0], [1]], monoid="N2"))
    code, records = _records(tmp_path, doc)
    assert code == 2
    assert [r["status"] for r in records] == ["ok", "error", "ok", "error"]
    assert all("outside" in r["payload"]["error"]["message"] for r in records[1::2])
    _memo_off(monkeypatch)
    assert [r["payload"] for r in _records(tmp_path, doc)[1]] == [r["payload"] for r in records]


def test_a_window_outside_the_monoid_keeps_the_verifiers_first_error(tmp_path):
    # the zero module is reported before the exponent, with or without a hit
    doc = _doc(_mccoy([0, 1]), _mccoy([0, -1], module="O"))
    doc["modules"]["O"] = {"kind": "quotient", "module": "M6", "submodule": "All"}
    doc["submodules"]["All"] = {"module": "M6", "gens": [1]}
    code, records = _records(tmp_path, doc)
    assert code == 2
    assert records[1]["payload"]["error"]["type"] == "ZeroModuleError"


@pytest.mark.parametrize("second", [
    _mccoy([0, 2], max_support=1),
    _mccoy([0, 2], max_support=2),
    _mccoy([[0, 0], [0, 1]], monoid="N2"),
    _mccoy([0, 2], ring="Z6b", module="M6b"),
    _mccoy([0, 2], module="M6b"),
    {"statement": "regularity_transfer", "ring": "Z6", "module": "M6", "monoid": "N",
     "window": [0, 2]},
], ids=["max_support-1", "max_support-2", "monoid", "ring-and-module", "module", "statement"])
def test_no_hit_crosses_a_key(tmp_path, monkeypatch, second):
    # max_support 2 on two exponents counts the windows of no cap, but its
    # config echoes the cap; Z6b is another Z/6 with the same label
    doc = _doc(_mccoy([0, 1]), second)
    runs = [_count_calls(monkeypatch, name)
            for name in ("verify_mccoy_equivalence", "verify_regularity_transfer")]
    with_memo = _records(tmp_path, doc)
    assert sum(map(len, runs)) == 2
    _memo_off(monkeypatch)
    without = _records(tmp_path, doc)
    assert with_memo[0] == without[0]
    assert [r["payload"] for r in with_memo[1]] == [r["payload"] for r in without[1]]


def test_no_hit_crosses_a_budget(tmp_path, monkeypatch):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(_doc()))
    session = load_session(str(path))
    runs = _count_calls(monkeypatch, "verify_mccoy_equivalence")
    first = execute(session, _mccoy([0, 1]), budget=10**7)["payload"]
    second = execute(session, _mccoy([0, 2]), budget=10**8)["payload"]
    small = execute(session, _mccoy([0, 3]), budget=10)["payload"]
    again = execute(session, _mccoy([0, 4]), budget=10)["payload"]
    assert len(runs) == 3
    assert (first["config"]["budget"], second["config"]["budget"]) == (10**7, 10**8)
    assert small["outcome"] == "skipped"
    assert again == dict(small, config=dict(small["config"], window=[[0], [4]]))
