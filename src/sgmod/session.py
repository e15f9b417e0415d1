"""Session files: a single JSON document naming rings, monoids, modules,
submodules and series, plus a command list. Tables are arrays of arrays of
indices and series are arrays of {exponent, coefficient} pairs, so fixtures
stay diff-friendly and trivially parseable.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from . import bitset
from .errors import AlgebraError, SessionError
from .finite_algebra import (
    FiniteModule,
    FiniteRing,
    Submodule,
    build_truncated_poly_ring,
    build_zmod,
    direct_sum,
    ideal_generated,
    module_from_tables,
    quotient_module,
    quotient_ring,
    ring_as_module,
    submodule_from_members,
    submodule_generated,
    zero_divisor_set,
)
from .monoids import (
    Monoid,
    cyclic_group_monoid,
    free_monoid,
    is_cancellative,
    is_torsion_free,
    monoid_from_table,
    saturating_monoid,
)
from .series import (
    Series,
    build_noncancellative_counterexample,
    build_torsion_counterexample,
    dedekind_mertens_exponent,
    is_zero_divisor_series,
    make_series,
    mccoy_witness,
)
from .verify import (
    DEFAULT_BUDGET,
    SupportWindow,
    _terms_payload,
    verify_domain_prime_extension,
    verify_finite_ring_chain,
    verify_mccoy_equivalence,
    verify_regularity_transfer,
    verify_submodule_transfer,
    verify_zero_divisor_transfer,
)
from .zd import (
    check_property_a,
    decompose_zero_divisors,
    has_very_few_zero_divisors,
    is_primal,
)

SESSION_KEYS = {"rings", "monoids", "modules", "submodules", "series", "commands",
                "settings"}

# the largest order of a finite monoid a session builds
MONOID_CAP = 1024


@dataclass
class Session:
    rings: dict[str, FiniteRing] = field(default_factory=dict)
    monoids: dict[str, Monoid] = field(default_factory=dict)
    modules: dict[str, FiniteModule] = field(default_factory=dict)
    submodules: dict[str, Submodule] = field(default_factory=dict)
    series: dict[str, Series] = field(default_factory=dict)
    commands: list[dict] = field(default_factory=list)
    settings: dict = field(default_factory=dict)

    @property
    def budget(self) -> int:
        return self.settings.get("budget", DEFAULT_BUDGET)


class _Builder:
    def __init__(self, doc: dict):
        self.doc = doc
        settings = doc.get("settings", {})
        if not isinstance(settings, dict):
            raise SessionError("'settings' must be an object", obj="settings")
        unknown = set(settings) - {"budget"}
        if unknown:
            raise SessionError(f"unknown settings keys: {sorted(unknown)}", obj="settings")
        if "budget" in settings:
            check_budget(_integer(settings["budget"], "budget", "settings"), "'budget'",
                         obj="settings")
        self.session = Session(
            commands=list(doc.get("commands", [])),
            settings=dict(settings),
        )
        self._stack: list[tuple[str, str]] = []

    def build(self) -> Session:
        for kind in ("rings", "monoids", "modules", "submodules", "series"):
            section = self.doc.get(kind, {})
            if not isinstance(section, dict):
                raise SessionError(f"'{kind}' must be an object", obj=kind)
            for name in section:
                self._resolve(kind, name)
        session = self.session
        references = [(key, kind, getattr(session, kind))
                      for key, kind in (("ring", "rings"), ("module", "modules"),
                                        ("monoid", "monoids"), ("submodule", "submodules"),
                                        ("f", "series"), ("g", "series"))]
        for i, cmd in enumerate(session.commands):
            if not isinstance(cmd, dict) or "op" not in cmd:
                raise SessionError("command must be an object with an 'op' key",
                                   obj=f"commands[{i}]")
            for key, kind, store in references:
                name = cmd.get(key)
                if name is not None and (not isinstance(name, str) or name not in store):
                    _named(session, kind, name, obj=f"commands[{i}]")  # raises
        return session

    def _resolve(self, kind: str, name: str):
        store = getattr(self.session, kind)
        if name in store:
            return store[name]
        if (kind, name) in self._stack:
            cycle = " -> ".join(f"{k}:{n}" for k, n in self._stack) + f" -> {kind}:{name}"
            raise SessionError(f"cyclic definition: {cycle}", obj=f"{kind} '{name}'")
        section = self.doc.get(kind, {})
        if name not in section:
            raise SessionError(f"unresolved reference to {kind[:-1]} '{name}'",
                               obj=f"{kind} '{name}'")
        self._stack.append((kind, name))
        try:
            value = getattr(self, f"_build_{kind[:-1]}")(name, section[name])
        except SessionError:
            raise
        except AlgebraError as exc:
            raise SessionError(str(exc), obj=f"{kind[:-1]} '{name}'") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise SessionError(f"malformed definition: {exc!r}",
                               obj=f"{kind[:-1]} '{name}'") from exc
        finally:
            self._stack.pop()
        store[name] = value
        return value

    def _build_ring(self, name: str, defn: dict) -> FiniteRing:
        kind = defn.get("kind")
        obj = f"ring '{name}'"

        def integer(key):
            return _integer(defn[key], key, obj)

        if kind == "zmod":
            return build_zmod(integer("n"))
        if kind == "truncated_poly":
            return build_truncated_poly_ring(integer("p"), integer("nvars"), integer("cap"))
        if kind == "quotient":
            base = self._resolve("rings", defn["ring"])
            gens = [_integer(g, "gens", obj) for g in defn.get("gens", [])]
            ideal = ideal_generated(base, gens)
            return quotient_ring(base, ideal)
        if kind == "tables":
            return FiniteRing(defn["add"], defn["mul"], integer("zero"), integer("one"),
                              label=_label(defn, name, obj))
        raise SessionError(f"unknown ring kind {kind!r}", obj=obj)

    def _build_monoid(self, name: str, defn: dict) -> Monoid:
        kind = defn.get("kind")
        obj = f"monoid '{name}'"

        def check_order(order):
            # the order is checked before any table is built
            if order > MONOID_CAP:
                raise SessionError(f"monoid order {order} exceeds cap {MONOID_CAP}", obj=obj)

        if kind == "free":
            return free_monoid(_integer(defn.get("dim", 1), "dim", obj))
        if kind == "cyclic_group":
            k = _integer(defn["k"], "k", obj)
            check_order(k)
            return cyclic_group_monoid(k)
        if kind == "saturating":
            c = _integer(defn["c"], "c", obj)
            check_order(c + 1)
            return saturating_monoid(c)
        if kind == "table":
            check_order(len(defn["cayley"]))
            identity = _integer(defn["identity"], "identity", obj)
            return monoid_from_table(defn["cayley"], identity, label=_label(defn, name, obj))
        raise SessionError(f"unknown monoid kind {kind!r}", obj=obj)

    def _build_module(self, name: str, defn: dict) -> FiniteModule:
        kind = defn.get("kind")
        obj = f"module '{name}'"
        if kind == "ring_as_module":
            return ring_as_module(self._resolve("rings", defn["ring"]))
        if kind == "quotient":
            base = self._resolve("modules", defn["module"])
            sub = self._resolve("submodules", defn["submodule"])
            return quotient_module(base, sub)
        if kind == "direct_sum":
            return direct_sum(self._resolve("modules", defn["left"]),
                              self._resolve("modules", defn["right"]))
        if kind == "tables":
            ring = self._resolve("rings", defn["ring"])
            return module_from_tables(ring, defn["add"], defn["action"],
                                      _integer(defn["zero"], "zero", obj),
                                      label=_label(defn, name, obj))
        raise SessionError(f"unknown module kind {kind!r}", obj=obj)

    def _build_submodule(self, name: str, defn: dict) -> Submodule:
        module = self._resolve("modules", defn["module"])
        obj = f"submodule '{name}'"
        if "members" in defn:
            return submodule_from_members(
                module, [_integer(x, "members", obj) for x in defn["members"]])
        return submodule_generated(module,
                                   [_integer(g, "gens", obj) for g in defn.get("gens", [])])

    def _build_serie(self, name: str, defn: dict) -> Series:
        if "ring" in defn:
            space = self._resolve("rings", defn["ring"])
        elif "module" in defn:
            space = self._resolve("modules", defn["module"])
        else:
            raise SessionError("series needs a 'ring' or 'module' key",
                               obj=f"series '{name}'")
        monoid = self._resolve("monoids", defn["monoid"])
        obj = f"series '{name}'"
        terms = []
        for item in defn.get("terms", []):
            terms.append((_exponent_for(monoid, item["exponent"], obj),
                          _integer(item["coefficient"], "coefficient", obj)))
        return make_series(space, monoid, terms)


def _reject_duplicate_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        # name the first key that repeats, in document order
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SessionError(f"duplicate name {key!r}")
            seen.add(key)
    return obj


def _finite_number(text: str) -> float:
    """A JSON number; NaN, Infinity, -Infinity and literals past the float
    range (1e400) are not finite, and JSON has no token for them."""
    value = float(text)
    if not math.isfinite(value):
        raise SessionError(f"parse error: {text} is not a finite number")
    return value


def _integer(value, key: str, obj: str | None = None) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SessionError(f"'{key}' must be an integer, got {value!r}", obj=obj)
    return value


def _label(defn: dict, name: str, obj: str) -> str:
    """The optional "label" of a tables definition; the session name by default."""
    label = defn.get("label", name)
    if not isinstance(label, str):
        raise SessionError(f"'label' must be a string, got {label!r}", obj=obj)
    return label


def check_budget(budget: int, what: str, obj: str | None = None) -> int:
    """The budget, unless it is negative: a budget bounds work, and 0 runs nothing."""
    if budget < 0:
        raise SessionError(f"{what} must be nonnegative, got {budget}", obj=obj)
    return budget


def _exponent_for(monoid: Monoid, raw, obj: str | None = None):
    if isinstance(raw, list):
        key = tuple(_integer(x, "exponent", obj) for x in raw)
    else:
        key = _integer(raw, "exponent", obj)
    if not monoid.is_finite and isinstance(key, int) and monoid.dim == 1:
        return (key,)
    return key


def load_session(path: str) -> Session:
    """Parse and validate a session file; all objects are constructed eagerly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SessionError(f"cannot read session file: {exc}")
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys,
                         parse_constant=_finite_number, parse_float=_finite_number)
    except json.JSONDecodeError as exc:
        raise SessionError(f"parse error: {exc.msg}", line=exc.lineno, column=exc.colno)
    except (RecursionError, ValueError) as exc:
        # nesting past the recursion limit, or an integer of more digits than int() reads
        raise SessionError(f"parse error: {exc}")
    if not isinstance(doc, dict):
        raise SessionError("session document must be a JSON object")
    unknown = set(doc) - SESSION_KEYS
    if unknown:
        raise SessionError(f"unknown top-level keys: {sorted(unknown)}")
    return _Builder(doc).build()


def dump_session(session: Session) -> dict:
    """Serialize every object back to the structured format (tables variant);
    a module that is its own ring stays one object, as a ring_as_module."""
    doc: dict = {"rings": {}, "monoids": {}, "modules": {}, "submodules": {},
                 "series": {}, "commands": session.commands,
                 "settings": session.settings}
    for name, ring in session.rings.items():
        doc["rings"][name] = _ring_tables(ring)
    for name, monoid in session.monoids.items():
        if monoid.is_finite:
            doc["monoids"][name] = {"kind": "table", "cayley": monoid.cayley.tolist(),
                                    "identity": monoid.identity, "label": monoid.label}
        else:
            doc["monoids"][name] = {"kind": "free", "dim": monoid.dim}
    for name, module in session.modules.items():
        ring_name = _name_of(session.rings, module.ring)
        if ring_name is None:
            ring_name = f"__ring_of_{name}"
            doc["rings"][ring_name] = _ring_tables(module.ring)
        if module is module.ring:
            doc["modules"][name] = {"kind": "ring_as_module", "ring": ring_name}
            continue
        doc["modules"][name] = {
            "kind": "tables",
            "ring": ring_name,
            "add": module.add_table.tolist(),
            "action": module.action_table.tolist(),
            "zero": module.zero,
            "label": module.label,
        }
    for name, sub in session.submodules.items():
        doc["submodules"][name] = {
            "module": _name_of(session.modules, sub.module),
            "members": list(sub.members_tuple()),
        }
    for name, series in session.series.items():
        ref = {}
        if isinstance(series.space, FiniteRing):
            ref["ring"] = _name_of(session.rings, series.space)
        else:
            ref["module"] = _name_of(session.modules, series.space)
        ref["monoid"] = _name_of(session.monoids, series.monoid)
        ref["terms"] = [{"exponent": list(e) if isinstance(e, tuple) else e,
                         "coefficient": c} for e, c in series.terms]
        doc["series"][name] = ref
    return doc


def _ring_tables(ring: FiniteRing) -> dict:
    return {"kind": "tables", "add": ring.add_table.tolist(), "mul": ring.mul_table.tolist(),
            "zero": ring.zero, "one": ring.one, "label": ring.label}


def _name_of(store: dict, obj) -> str | None:
    for name, value in store.items():
        if value is obj:
            return name
    return None


# ---------------------------------------------------------------------------
# command dispatch


def execute(session: Session, command: dict, budget: int | None = None) -> dict:
    """Run one command and return its record; errors become error records.

    The payload goes into the record as built: every command handler returns
    plain Python values (dicts, lists, strs, ints, floats, bools, None), so
    the record encodes as is. The payloads of analyze, dm and zdtest are built
    once per memoized result (module, transcript, verdict) and shared by every
    call that reaches it, so they are read-only.
    """
    t0 = time.perf_counter()
    effective_budget = budget if budget is not None else session.budget
    try:
        payload = _dispatch(session, command, effective_budget)
        status = "ok"
    except AlgebraError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        status = "error"
    except (KeyError, TypeError, ValueError) as exc:
        payload = {"error": {"type": type(exc).__name__,
                             "message": f"malformed command arguments: {exc!r}"}}
        status = "error"
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return {"command": command, "status": status, "payload": payload,
            "elapsed_ms": elapsed_ms}


def check_command(command: dict, obj: str | None = None) -> None:
    """Raise SessionError unless the command names a known op and, for verify,
    a known statement: the check both `run` and `validate` make."""
    op = command.get("op")
    if not (isinstance(op, str) and op in OPS):
        raise SessionError(f"unknown command op {op!r}", obj=obj)
    statement = command.get("statement")
    if op == "verify" and not (isinstance(statement, str) and statement in STATEMENTS):
        raise SessionError(
            f"unknown statement {statement!r}; expected one of {tuple(STATEMENTS)}", obj=obj)


def _dispatch(session: Session, command: dict, budget: int) -> dict:
    check_command(command)
    return OPS[command["op"]](session, command, budget)


def _get(session: Session, kind: str, command: dict, key: str):
    name = command.get(key)
    if name is None:
        raise SessionError(f"command '{command.get('op')}' needs a '{key}' argument")
    return _named(session, kind, name)


def _named(session: Session, kind: str, name, obj: str | None = None):
    """The object a reference names; a reference that is not a string is an error."""
    if not isinstance(name, str):
        raise SessionError(f"{kind} are referenced by name, got {name!r}", obj=obj)
    store = getattr(session, kind)
    if name not in store:
        raise SessionError(f"unresolved reference to {kind[:-1]} '{name}'", obj=obj)
    return store[name]


def _cmd_analyze(session: Session, command: dict, budget: int) -> dict:
    module = _get(session, "modules", command, "module")
    # every report read here is memoized per module, and so is the payload
    payload = module._cache.get("analyze")
    if payload is None:
        payload = module._cache["analyze"] = _analyze_payload(module)
    return payload


def _analyze_payload(module: FiniteModule) -> dict:
    zmask = zero_divisor_set(module)
    decomp = decompose_zero_divisors(module)
    very_few = has_very_few_zero_divisors(module)
    prop_a = check_property_a(module)
    primal = is_primal(module)
    return {
        "module": module.label,
        "zero_divisors": list(bitset.members(zmask)),
        "decomposition": {
            "primes": [list(p.members_tuple()) for p in decomp.primes],
            "witnesses": list(decomp.witnesses),
            "degree": decomp.degree,
            # the maximal associated primes of a finite module always cover Z(M)
            "covers": True,
            "incomparable": decomp.incomparable,
        },
        "degree": decomp.degree,
        "very_few": {"holds": very_few.holds,
                     "primes": [list(p.members_tuple()) for p in very_few.primes],
                     "witnesses": list(very_few.witnesses),
                     "uncovered": very_few.uncovered},
        "property_a": {"holds": prop_a.holds,
                       "checked_ideals": prop_a.checked_ideals,
                       "witnesses": [{"ideal": list(i.members_tuple()), "annihilated_by": m}
                                     for i, m in prop_a.witnesses],
                       "failure": None if prop_a.failure is None
                       else list(prop_a.failure.members_tuple())},
        "primal": {"is_primal": primal.is_primal,
                   "ideal": None if primal.zero_divisor_ideal is None
                   else list(primal.zero_divisor_ideal.members_tuple()),
                   "violation": None if primal.violation is None
                   else list(primal.violation)},
    }


def _cmd_dm(session: Session, command: dict, budget: int) -> dict:
    f = _get(session, "series", command, "f")
    g = _get(session, "series", command, "g")
    cap = command.get("cap")
    result = dedekind_mertens_exponent(f, g, cap=None if cap is None else _integer(cap, "cap"))
    return result.payload


def _cmd_mccoy(session: Session, command: dict, budget: int) -> dict:
    f = _get(session, "series", command, "f")
    g = _get(session, "series", command, "g")
    witness = mccoy_witness(f, g)
    return {"witness": witness}


def _cmd_zdtest(session: Session, command: dict, budget: int) -> dict:
    f = _get(session, "series", command, "f")
    module = _get(session, "modules", command, "module")
    return is_zero_divisor_series(f, module).payload


def _cmd_counterexample(session: Session, command: dict, budget: int) -> dict:
    kind = command.get("kind")
    monoid = _get(session, "monoids", command, "monoid")
    module = _get(session, "modules", command, "module")
    q = _integer(command.get("q", 1), "q")
    if kind == "noncancellative":
        witness = command.get("witness")
        if witness is None:
            ok, witness = is_cancellative(monoid)
            if ok:
                raise SessionError("monoid is cancellative; no witness available")
        s, t, u = (_exponent_for(monoid, x) for x in witness)
        f, g = build_noncancellative_counterexample(monoid, (s, t, u), module, q)
        return {"kind": kind, "witness": [s, t, u], "q": q,
                "f": _terms_payload(f), "g": _terms_payload(g),
                "product_zero": True, "no_single_annihilator": True}
    if kind == "torsion":
        if "s" in command and "t" in command:
            s, t = _exponent_for(monoid, command["s"]), _exponent_for(monoid, command["t"])
        else:
            ok, witness = is_torsion_free(monoid)
            if ok:
                raise SessionError("monoid is torsion-free; no witness available")
            s, t, _ = witness
        k, h, g = build_torsion_counterexample(monoid, s, t, module, q)
        return {"kind": kind, "s": s, "t": t, "q": q, "k": k,
                "h": _terms_payload(h), "g": _terms_payload(g),
                "product_zero": True, "exponents_distinct": True}
    raise SessionError(f"unknown counterexample kind {kind!r}")


def _cmd_verify(session: Session, command: dict, budget: int) -> dict:
    return STATEMENTS[command["statement"]](session, command, budget).to_payload()


def _monoid_window(session: Session, command: dict) -> tuple[Monoid, SupportWindow]:
    monoid = _get(session, "monoids", command, "monoid")
    return monoid, _window_from(command, monoid)


def _ring_module_window(session: Session, command: dict) -> tuple:
    """The arguments of a verifier on (ring, module, monoid, window); the
    monoid and window are read first."""
    monoid, window = _monoid_window(session, command)
    return (_get(session, "rings", command, "ring"), _get(session, "modules", command, "module"),
            monoid, window)


def _verify_domain_prime_extension(session: Session, command: dict, budget: int):
    monoid, window = _monoid_window(session, command)
    module = None
    if command.get("module") is not None:
        module = _get(session, "modules", command, "module")
    return verify_domain_prime_extension(_get(session, "rings", command, "ring"), module,
                                         monoid, window, budget=budget)


def _verify_submodule_transfer(session: Session, command: dict, budget: int):
    monoid, window = _monoid_window(session, command)
    sub = _get(session, "submodules", command, "submodule")
    return verify_submodule_transfer(sub.module, sub, monoid, window, budget=budget)


# op -> handler(session, command, budget), and verify statement -> handler
# returning a VerificationReport. The handlers look the verifiers up by name
# when called, so a rebound module attribute is the one that runs.
OPS = {
    "analyze": _cmd_analyze,
    "dm": _cmd_dm,
    "mccoy": _cmd_mccoy,
    "zdtest": _cmd_zdtest,
    "counterexample": _cmd_counterexample,
    "verify": _cmd_verify,
}
STATEMENTS = {
    "mccoy_equivalence": lambda session, command, budget: verify_mccoy_equivalence(
        *_ring_module_window(session, command), budget=budget),
    "domain_prime_extension": _verify_domain_prime_extension,
    "submodule_transfer": _verify_submodule_transfer,
    "regularity_transfer": lambda session, command, budget: verify_regularity_transfer(
        *_ring_module_window(session, command), budget=budget),
    "zero_divisor_transfer": lambda session, command, budget: verify_zero_divisor_transfer(
        *_ring_module_window(session, command), budget=budget),
    "finite_ring_chain": lambda session, command, budget: verify_finite_ring_chain(
        _get(session, "rings", command, "ring")),
}


def _window_from(command: dict, monoid: Monoid) -> SupportWindow:
    raw = command.get("window")
    if raw is None:
        raise SessionError(f"command 'verify {command.get('statement')}' needs a 'window'")
    exponents = tuple(_exponent_for(monoid, e) for e in raw)
    max_support = command.get("max_support")
    if max_support is not None:
        max_support = _integer(max_support, "max_support")
    return SupportWindow(exponents, max_support)
