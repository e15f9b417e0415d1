"""Span tracer that wraps sgmod's boundary functions from outside the package.

The package binds its functions with ``from .x import y``, so a call site looks
the name up in its own module. The tracer therefore replaces a function in
every ``sgmod`` module namespace that binds it, and ``uninstall`` puts every
original back. Only the functions in ``SPANNED`` and ``COUNTED`` are wrapped: every
wrapper adds Python calls, and wrapping hot helpers would drown the signal.

A span is (name, parent span, start, end); spans stay in compact arrays in
memory and are written out once, at the end. A layer's self time is its span
time minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
import tracemalloc
from array import array

import sgmod

# metric group -> (defining module, function names); a group may wrap several
# functions, and "construct" also wraps the two table-class constructors
SPANNED = {
    "tables.audit": ("_tables", ("audit_commutative", "audit_identity", "audit_associative",
                                 "audit_group_rows", "audit_distributive")),
    "finite_algebra.validate_module": ("finite_algebra", ("validate_module",)),
    "finite_algebra.construct": ("finite_algebra", (
        "build_zmod", "build_truncated_poly_ring", "quotient_ring", "ring_as_module",
        "module_from_tables", "direct_sum", "quotient_module")),
    "finite_algebra.ideal_generated": ("finite_algebra", ("ideal_generated",)),
    "finite_algebra.submodule_generated": ("finite_algebra", ("submodule_generated",)),
    "finite_algebra.ideal_action_submodule": ("finite_algebra", ("ideal_action_submodule",)),
    "finite_algebra.annihilator_in_module": ("finite_algebra", ("annihilator_in_module",)),
    "finite_algebra.ideal_power": ("finite_algebra", ("ideal_power",)),
    "finite_algebra.enumerate_ideals": ("finite_algebra", ("enumerate_ideals",)),
    "finite_algebra.prime_ideals": ("finite_algebra", ("prime_ideals",)),
    "finite_algebra.associated_primes": ("finite_algebra", ("associated_primes",)),
    "zd.maximal_ideals_within": ("zd", ("maximal_ideals_within",)),
    "zd.decompose_zero_divisors": ("zd", ("decompose_zero_divisors",)),
    "zd.check_property_a": ("zd", ("check_property_a",)),
    "zd.is_primal": ("zd", ("is_primal",)),
    "zd.has_very_few_zero_divisors": ("zd", ("has_very_few_zero_divisors",)),
    "series.series_multiply": ("series", ("series_multiply",)),
    "series.dm_search": ("series", ("dedekind_mertens_exponent", "_dm_search")),
    "series.mccoy_witness": ("series", ("mccoy_witness",)),
    "series.is_zero_divisor_series": ("series", ("is_zero_divisor_series",)),
    "series.counterexample": ("series", ("build_noncancellative_counterexample",
                                         "build_torsion_counterexample")),
    "monoids.hypotheses": ("monoids", ("is_cancellative", "is_torsion_free")),
    "verify.mccoy_equivalence": ("verify", ("verify_mccoy_equivalence",)),
    "verify.domain_prime_extension": ("verify", ("verify_domain_prime_extension",)),
    "verify.submodule_transfer": ("verify", ("verify_submodule_transfer",)),
    "verify.regularity_transfer": ("verify", ("verify_regularity_transfer",)),
    "verify.zero_divisor_transfer": ("verify", ("verify_zero_divisor_transfer",)),
    "verify.finite_ring_chain": ("verify", ("verify_finite_ring_chain",)),
    "session.load_session": ("session", ("load_session",)),
    "session.execute": ("session", ("execute",)),
    "cli.finish_record": ("cli", ("finish_record",)),
    "cli.emit_report": ("cli", ("emit_report",)),
}

# counted, not timed: their time stays in the caller's self time
COUNTED = {
    "series.make_series": ("series", ("make_series",)),
    "finite_algebra.is_prime_ideal": ("finite_algebra", ("is_prime_ideal",)),
}

MEMOIZED = ("finite_algebra.ideal_generated", "finite_algebra.submodule_generated")
CONSTRUCT = "finite_algebra.construct"
AUDIT_CELLS_EXPONENT = {"audit_commutative": 2, "audit_identity": 1, "audit_associative": 3,
                        "audit_group_rows": 2, "audit_distributive": 3}
MISS = "#miss"
ROOT = "session.total"


def sgmod_modules() -> list:
    """The package and every submodule, imported so that all bindings exist."""
    for info in pkgutil.iter_modules(sgmod.__path__):
        importlib.import_module(f"sgmod.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "sgmod" or name.startswith("sgmod.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.audit_cells = 0
        self.construct_peak_bytes = 0
        self.ideals_per_ring: dict[int, int] = {}
        self._memo_keys: set = set()
        self._alive: dict[int, object] = {}  # keeps id()-keyed spaces from being reused
        self._patches: list[tuple[object, str, object]] = []
        self._construct_depth = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ------------------------------------------------------------

    def open_span(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(sid)
        return sid

    def close_span(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, nid: int):
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _memoized(self, fn, group: str):
        """Span named by whether the program's memo key was seen before."""
        hit_id, miss_id = self.name_id(group), self.name_id(group + MISS)
        keys, alive = self._memo_keys, self._alive
        hit, miss = self._spanned(fn, hit_id), self._spanned(fn, miss_id)

        def wrapper(space, gens):
            gens = tuple(gens)
            key = (id(space), tuple(sorted({int(g) for g in gens} - {space.zero})))
            if key in keys:
                return hit(space, gens)
            keys.add(key)
            alive[id(space)] = space
            return miss(space, gens)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, group: str):
        counts = self.counts
        counts.setdefault(group, 0)

        def wrapper(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _audit(self, fn, exponent: int):
        inner = self._spanned(fn, self.name_id("tables.audit"))

        def wrapper(table, *args, **kwargs):
            self.audit_cells += len(table) ** exponent
            return inner(table, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _construct(self, fn):
        """Constructor span; the outermost one also records the tracemalloc peak."""
        inner = self._spanned(fn, self.name_id(CONSTRUCT))

        def wrapper(*args, **kwargs):
            if self._construct_depth:
                return inner(*args, **kwargs)
            self._construct_depth = 1
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self._construct_depth = 0
                self.construct_peak_bytes = max(self.construct_peak_bytes, peak)

        wrapper.__wrapped__ = fn
        return wrapper

    def _enumerate(self, fn):
        inner = self._spanned(fn, self.name_id("finite_algebra.enumerate_ideals"))

        def wrapper(ring):
            out = inner(ring)
            self.ideals_per_ring[id(ring)] = len(out)
            self._alive[id(ring)] = ring
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _wrapper_for(self, group: str, fname: str, fn):
        if group in COUNTED:
            return self._counted(fn, group)
        if group in MEMOIZED:
            return self._memoized(fn, group)
        if group == "tables.audit":
            return self._audit(fn, AUDIT_CELLS_EXPONENT[fname])
        if group == CONSTRUCT:
            return self._construct(fn)
        if group == "finite_algebra.enumerate_ideals":
            return self._enumerate(fn)
        return self._spanned(fn, self.name_id(group))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = sgmod_modules()
        for group, (home, fnames) in {**SPANNED, **COUNTED}.items():
            home_module = sys.modules[f"sgmod.{home}"]
            for fname in fnames:
                original = getattr(home_module, fname)
                wrapper = self._wrapper_for(group, fname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        fa = sys.modules["sgmod.finite_algebra"]
        for cls in (fa.FiniteRing, fa.FiniteModule):
            original = cls.__dict__["__init__"]
            self._patches.append((cls, "__init__", original))
            cls.__init__ = self._construct(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": self.span_start.tolist(), "end": self.span_end.tolist()}, fh)


def span_totals(names, span_name, span_parent, span_start, span_end) -> dict[str, dict]:
    """Per span name: self time, inclusive time and calls.

    Self time is a span's duration minus the durations of its direct children;
    spans nest strictly, so the children never overlap. A call is counted only
    for a span whose parent has a different name, so a group whose functions
    call each other counts the outer call once.
    """
    n = len(span_name)
    child = [0.0] * n
    for i in range(n):
        p = span_parent[i]
        if p >= 0:
            child[p] += span_end[i] - span_start[i]
    out: dict[str, dict] = {}
    for i in range(n):
        name = names[span_name[i]]
        entry = out.get(name)
        if entry is None:
            entry = out[name] = {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        dur = span_end[i] - span_start[i]
        entry["self_s"] += dur - child[i]
        p = span_parent[i]
        base = name.removesuffix(MISS)
        if p < 0 or names[span_name[p]].removesuffix(MISS) != base:
            entry["total_s"] += dur
            entry["calls"] += 1
    return out
