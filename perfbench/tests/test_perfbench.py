"""Tests of the benchmark's own machinery: tracer arithmetic, generator
determinism, correctness checks, and that an uninstalled tracer leaves no trace.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import sgmod.cli
import sgmod.session
import tracer as tracer_mod
from tracer import MISS, Tracer, sgmod_modules, span_totals

PERFBENCH = Path(__file__).resolve().parent.parent

SMALL_SESSION = {
    "settings": {"budget": 10_000_000},
    "rings": {"R6": {"kind": "zmod", "n": 6}},
    "monoids": {"N": {"kind": "free", "dim": 1}, "Sat": {"kind": "saturating", "c": 2}},
    "modules": {"M6": {"kind": "ring_as_module", "ring": "R6"}},
    "submodules": {},
    "series": {
        "f": {"ring": "R6", "monoid": "N", "terms": [{"exponent": 0, "coefficient": 2},
                                                     {"exponent": 1, "coefficient": 4}]},
        "g": {"module": "M6", "monoid": "N", "terms": [{"exponent": 0, "coefficient": 3}]},
    },
    "commands": [
        {"op": "analyze", "module": "M6"},
        {"op": "dm", "f": "f", "g": "g"},
        {"op": "mccoy", "f": "f", "g": "g"},
        {"op": "zdtest", "f": "f", "module": "M6"},
        {"op": "counterexample", "kind": "noncancellative", "monoid": "Sat", "module": "M6",
         "q": 1},
        {"op": "verify", "statement": "mccoy_equivalence", "ring": "R6", "module": "M6",
         "monoid": "N", "window": [0, 1]},
    ],
}


def run_small_session(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_SESSION), encoding="utf-8")
    session = sgmod.session.load_session(str(path))
    records = sgmod.cli.run_session(session, None)
    return session, records


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds a [1, 6], which holds b [2, 5]; c [7, 9] is outer's too
    names = ["outer", "a", "b", "c"]
    totals = span_totals(names, [0, 1, 2, 3], [-1, 0, 1, 0],
                         [0.0, 1.0, 2.0, 7.0], [10.0, 6.0, 5.0, 9.0])
    assert totals["outer"]["self_s"] == pytest.approx(10 - 5 - 2)
    assert totals["a"]["self_s"] == pytest.approx(5 - 3)
    assert totals["b"]["self_s"] == pytest.approx(3)
    assert totals["c"]["self_s"] == pytest.approx(2)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10)


def test_nested_calls_of_one_group_count_once():
    # dm_search wraps dedekind_mertens_exponent and the _dm_search it calls
    totals = span_totals(["series.dm_search"], [0, 0, 0], [-1, 0, -1],
                         [0.0, 1.0, 5.0], [4.0, 3.0, 6.0])
    assert totals["series.dm_search"]["calls"] == 2
    assert totals["series.dm_search"]["total_s"] == pytest.approx(4 + 1)
    assert totals["series.dm_search"]["self_s"] == pytest.approx(4 + 1)


def test_memo_hits_and_misses_share_a_group():
    # a hit nested in a miss of the same function is not a second outer call
    names = ["finite_algebra.ideal_generated", "finite_algebra.ideal_generated" + MISS]
    totals = span_totals(names, [1, 0], [-1, 0], [0.0, 1.0], [3.0, 2.0])
    assert totals[names[1]]["calls"] == 1
    assert totals[names[0]]["calls"] == 0
    assert totals[names[1]]["self_s"] == pytest.approx(2)


def test_wrapped_nested_call_self_times(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
    monkeypatch.setattr(tracer_mod.time, "perf_counter", lambda: next(ticks))
    t = Tracer()
    inner = t._spanned(lambda: "done", t.name_id("inner"))
    middle = t._spanned(lambda: inner(), t.name_id("middle"))
    outer = t._spanned(lambda: middle(), t.name_id("outer"))
    assert outer() == "done"
    totals = span_totals(t.names, t.span_name, t.span_parent, t.span_start, t.span_end)
    assert totals["outer"]["self_s"] == pytest.approx(10 - 5)
    assert totals["middle"]["self_s"] == pytest.approx(5 - 3)
    assert totals["inner"]["self_s"] == pytest.approx(3)
    assert list(t.span_parent) == [-1, 0, 1]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_deterministic(workload):
    assert gen.generate(workload, 11) == gen.generate(workload, 11)
    assert gen.generate(workload, 11) != gen.generate(workload, 12)


def test_generator_cli_is_deterministic_across_processes(tmp_path):
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, str(PERFBENCH / "gen.py"), "--seed", "5",
                        "--out", str(out)], check=True, env=env, capture_output=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == sorted(f"{w}.json" for w in gen.WORKLOADS)


def _bound_functions():
    return {(m.__name__, attr): value for m in sgmod_modules()
            for attr, value in vars(m).items() if callable(value)}


def test_uninstalled_tracer_is_never_hit(tmp_path):
    before = _bound_functions()
    _, plain = run_small_session(tmp_path)
    t = Tracer()
    t.install()
    try:
        _, traced = run_small_session(tmp_path)
        spans_while_installed = len(t.span_name)
    finally:
        t.uninstall()
    assert spans_while_installed > 0
    assert [r["payload_hash"] for r in traced] == [r["payload_hash"] for r in plain]
    counts = dict(t.counts)

    after = _bound_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    finite_algebra = sys.modules["sgmod.finite_algebra"]
    assert not hasattr(finite_algebra.FiniteRing.__init__, "__wrapped__")
    assert not hasattr(finite_algebra.FiniteModule.__init__, "__wrapped__")

    run_small_session(tmp_path)
    assert len(t.span_name) == spans_while_installed
    assert t.counts == counts


def test_wrappers_cover_every_binding(tmp_path):
    t = Tracer()
    t.install()
    try:
        wrapped = {(owner.__name__, attr) for owner, attr, _ in t._patches}
    finally:
        t.uninstall()
    # modules import with `from .x import y`: the caller's namespace must be patched
    for binding in [("sgmod.verify", "ideal_generated"), ("sgmod.zd", "ideal_generated"),
                    ("sgmod.series", "submodule_generated"), ("sgmod.verify", "_dm_search"),
                    ("sgmod.cli", "execute"), ("sgmod.finite_algebra", "audit_associative"),
                    ("sgmod.monoids", "audit_associative"), ("sgmod", "load_session")]:
        assert binding in wrapped


def test_checks_accept_right_records_and_catch_wrong_facts(tmp_path):
    session, records = run_small_session(tmp_path)
    facts = checks.SessionFacts(SMALL_SESSION, session)
    assert [checks.check_record(facts, r) for r in records] == [None] * len(records)
    zdtest = next(r for r in records if r["command"]["op"] == "zdtest")
    wrong = {**zdtest, "payload": {**zdtest["payload"], "annihilator": [0]}}
    assert checks.check_record(facts, wrong) is not None
    mccoy = next(r for r in records if r["command"]["op"] == "mccoy")
    wrong = {**mccoy, "payload": {"witness": 1}}
    assert checks.check_record(facts, wrong) is not None


def test_window_counts_follow_the_docstring_formulas(tmp_path):
    session, records = run_small_session(tmp_path)
    facts = checks.SessionFacts(SMALL_SESSION, session)
    verify = records[-1]
    assert facts.window_pairs(verify["command"]) == 36 * 36
    assert facts.instances(verify["command"], verify["payload"]) == 36 * 36
    assert verify["payload"]["instances_checked"] == 36 * 36
    assert checks.window_count(6, 6, 1) == 1 + 6 * 5


def test_reported_metrics_match_benchmark_json(tmp_path):
    import child
    import run

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    session, records = run_small_session(tmp_path)
    t = Tracer()
    t.install()
    try:
        root = t.open_span(t.name_id(tracer_mod.ROOT))
        session, records = run_small_session(tmp_path)
        t.close_span(root)
    finally:
        t.uninstall()
    layers, shares = child.layer_metrics(t, checks.SessionFacts(SMALL_SESSION, session), records)
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(expected) == [*layers, "trace.overhead_ratio"]
    assert all(run.layer_unit(name) == unit for name, unit in expected.items())
    assert sum(shares.values()) == pytest.approx(1.0)
