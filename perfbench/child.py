"""One fresh ``sgmod run`` session, timed, in this process; prints one JSON line.

    PYTHONPATH=src python3 perfbench/child.py --session FILE [--trace] [--spans OUT]

It makes the three public calls that ``sgmod run`` makes, writing the report to
an in-memory stream, and only then checks the records, so checking is never
timed. With ``--trace`` the tracer wraps the package's boundary functions for
the session and the per-layer metrics are added to the output.
"""

from __future__ import annotations

import argparse
import io
import json
import mmap
import resource
import time

import numpy as np

import sgmod.cli
import sgmod.session

from checks import SessionFacts, check_record

# group -> the per-layer statistics reported for it
SPAN_STATS = {
    "tables.audit": ("self_s", "calls"),
    "finite_algebra.validate_module": ("self_s", "calls"),
    "finite_algebra.construct": ("self_s",),
    "finite_algebra.ideal_action_submodule": ("calls", "self_s"),
    "finite_algebra.annihilator_in_module": ("calls", "self_s"),
    "finite_algebra.ideal_power": ("calls", "self_s"),
    "finite_algebra.enumerate_ideals": ("self_s",),
    "finite_algebra.prime_ideals": ("self_s",),
    "finite_algebra.associated_primes": ("self_s",),
    "zd.maximal_ideals_within": ("self_s", "calls"),
    "zd.decompose_zero_divisors": ("self_s",),
    "zd.check_property_a": ("self_s",),
    "zd.is_primal": ("self_s",),
    "zd.has_very_few_zero_divisors": ("self_s",),
    "series.series_multiply": ("calls", "self_s"),
    "series.dm_search": ("calls", "self_s"),
    "series.mccoy_witness": ("calls", "self_s"),
    "series.is_zero_divisor_series": ("calls", "self_s"),
    "series.counterexample": ("self_s",),
    "monoids.hypotheses": ("self_s",),
    "session.load_session": ("self_s",),
    "session.execute": ("calls", "self_s"),
    "cli.finish_record": ("self_s",),
    "cli.emit_report": ("self_s",),
}
STATEMENTS = ("mccoy_equivalence", "domain_prime_extension", "submodule_transfer",
              "regularity_transfer", "zero_divisor_transfer", "finite_ring_chain")

# the layers each workload is meant to load, as sums of span self times
LAYERS = {
    "verify+closure_hits": ("verify.", "finite_algebra.ideal_generated",
                            "finite_algebra.submodule_generated"),
    "closure_misses+zd+enumeration": ("finite_algebra.ideal_generated#miss",
                                      "finite_algebra.submodule_generated#miss",
                                      "finite_algebra.enumerate_ideals",
                                      "finite_algebra.prime_ideals",
                                      "finite_algebra.associated_primes", "zd."),
    "tables+validate_module": ("tables.audit", "finite_algebra.validate_module"),
    "session+cli+series": ("session.load_session", "session.execute", "cli.", "series.",
                           "monoids."),
}


_CAL_TABLE = (np.arange(256)[:, None] * np.arange(256)[None, :] + 7) % 256
_CAL_ROWS = _CAL_TABLE.tolist()
_CAL_LHS = np.empty_like(_CAL_TABLE)
_CAL_RHS = np.empty_like(_CAL_TABLE)
_CAL_DIFF = np.empty(_CAL_TABLE.shape, dtype=bool)


def calibrate() -> float:
    """Seconds for a fixed mix of list-indexing loops and numpy table gathers.

    The mix resembles sgmod's hot loops and uses no sgmod code, so its time
    tracks how fast the machine runs at the moment, not the program. sgmod's
    large numpy temporaries are fresh mappings whose page faults cost a lot on
    a virtual machine, so the loop also faults in a fresh mapping. It makes no
    other allocation: numpy temporaries would make its time depend on what the
    allocator already holds, which differs between workloads and phases.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(500):
        row = _CAL_ROWS[i % 256]
        for j in range(256):
            acc = _CAL_ROWS[row[j]][acc]
    table = _CAL_TABLE
    for i in range(90):
        np.take(table, table[i % 256], axis=0, out=_CAL_LHS)
        np.take(table[i % 256], table, out=_CAL_RHS)
        np.not_equal(_CAL_LHS, _CAL_RHS, out=_CAL_DIFF)
        _CAL_DIFF.any()
    # 16 small mappings rather than one large one keep the peak RSS near the
    # session's own, since ru_maxrss covers the calibrations too
    for _ in range(16):
        with mmap.mmap(-1, 1 << 20) as fresh:
            pages = np.frombuffer(fresh, dtype=np.uint8)
            pages[::4096] = 1
            del pages
    return time.perf_counter() - t0


def _layer_of(name: str) -> str:
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if name == prefix or (prefix.endswith(".") and name.startswith(prefix)):
                return layer
    return "other"


def layer_metrics(tracer, facts: SessionFacts, records: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and each layer's share of self time."""
    from tracer import MISS, ROOT, span_totals

    totals = span_totals(tracer.names, tracer.span_name, tracer.span_parent,
                         tracer.span_start, tracer.span_end)
    empty = {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    out: dict[str, float] = {}
    for group, stats in SPAN_STATS.items():
        entry = totals.get(group, empty)
        for stat in stats:
            out[f"{group}.{stat}"] = entry[stat]
    out["tables.audit.cells"] = tracer.audit_cells
    out["finite_algebra.construct.peak_mb"] = tracer.construct_peak_bytes / 2 ** 20
    for group in ("finite_algebra.ideal_generated", "finite_algebra.submodule_generated"):
        hit, miss = totals.get(group, empty), totals.get(group + MISS, empty)
        calls = hit["calls"] + miss["calls"]
        out[f"{group}.calls"] = calls
        out[f"{group}.distinct"] = miss["calls"]
        out[f"{group}.hit_ratio"] = 1 - miss["calls"] / calls if calls else 0.0
        out[f"{group}.self_s"] = hit["self_s"] + miss["self_s"]
    out["finite_algebra.enumerate_ideals.ideals"] = sum(tracer.ideals_per_ring.values())
    for group, count in tracer.counts.items():
        out[f"{group}.calls"] = count
    instances = {s: 0 for s in STATEMENTS}
    for record in records:
        cmd = record["command"]
        if cmd["op"] == "verify":
            instances[cmd["statement"]] += facts.instances(cmd, record["payload"])
    for statement in STATEMENTS:
        entry = totals.get(f"verify.{statement}", empty)
        out[f"verify.{statement}.self_s"] = entry["self_s"]
        out[f"verify.{statement}.instances"] = instances[statement]
        out[f"verify.{statement}.instances_per_s"] = (
            instances[statement] / entry["total_s"] if entry["total_s"] else 0.0)
    root_s = totals[ROOT]["total_s"]
    shares: dict[str, float] = {}
    for name, entry in totals.items():
        layer = _layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + entry["self_s"] / root_s
    return out, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--session", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the trace's spans here")
    args = parser.parse_args(argv)

    # calibrations before, between and after the two phases; none is timed
    cal = [calibrate()]
    tracer = None
    if args.trace:
        from tracer import ROOT, Tracer
        tracer = Tracer()
        tracer.install()
        root = tracer.open_span(tracer.name_id(ROOT))
    t0 = time.perf_counter()
    session = sgmod.session.load_session(args.session)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.close_span(root)
    cal.append(calibrate())
    if tracer is not None:
        root = tracer.open_span(tracer.name_id(ROOT))
    # the generator sets settings.budget, so the budget argument is None, as in `sgmod run`
    t2 = time.perf_counter()
    records = sgmod.cli.run_session(session, None)
    t3 = time.perf_counter()
    exit_code = sgmod.cli.emit_report(records, "json-lines", io.StringIO())
    t4 = time.perf_counter()
    if tracer is not None:
        tracer.close_span(root)
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal.append(calibrate())

    with open(args.session, encoding="utf-8") as fh:
        facts = SessionFacts(json.load(fh), session)
    pairs = pair_s = 0
    for record in records:
        if facts.window_pairs(record["command"]):
            pairs += facts.window_pairs(record["command"])
            pair_s += record["elapsed_ms"] / 1000.0
    out = {
        "setup_s": t1 - t0,
        "commands_s": t3 - t2,
        "emit_s": t4 - t3,
        "peak_rss_mb": peak_rss_mb,
        "cal_s": cal,
        "pairs": pairs,
        "pair_s": pair_s,
        "exit_code": exit_code,
        "hashes": [r["payload_hash"] for r in records],
        "problems": [check_record(facts, r) for r in records],
    }
    if tracer is not None:
        out["layers"], out["shares"] = layer_metrics(tracer, facts, records)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
