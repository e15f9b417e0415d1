"""Command line front end: load a session file, run its commands, emit reports.

Exit codes:
  0  every command succeeded and every verification passed
  1  a verification on hypothesis-satisfying inputs found a counterexample
     (an implementation-bug signal, since the statements are proven)
  2  input or validation error (parse, axioms, unresolved references,
     command preconditions, unwritable output)
  3  at least one verification was skipped for exceeding the budget
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _json_string

from . import __version__
from .errors import SessionError
from .session import Session, check_budget, check_command, execute, load_session
from .verify import DEFAULT_BUDGET

BUDGET_ENV_VAR = "SGMOD_BUDGET"


class _Encoder:
    """json.JSONEncoder(sort_keys=True, separators=..., check_circular=False).encode
    with its C encoder built once.

    JSONEncoder.encode builds a new C encoder on every call, so each output form
    holds one, built here. Commands and payloads are trees of plain JSON values,
    so there is no cycle to check for (a payload shared by several records is not
    one), and anything else raises JSONEncoder's TypeError.
    """

    __slots__ = ("_encoder",)

    def __init__(self, key_separator: str, item_separator: str):
        self._encoder = c_make_encoder(None, json.JSONEncoder().default, _json_string, None,
                                       key_separator, item_separator, True, False, True)

    def encode(self, value) -> str:
        return "".join(self._encoder(value, 0))


# The canonical form is what payload_hash hashes.
_CANONICAL = _Encoder(":", ",")
_JSON_LINE = _Encoder(": ", ", ")


def canonical_json(value) -> str:
    return _CANONICAL.encode(value)


def payload_hash(command: dict, payload: dict) -> str:
    return _hash_blob(canonical_json(command), canonical_json(payload))


def _hash_blob(command_json: str, payload_json: str) -> str:
    # canonical_json({"command": ..., "payload": ...}) from the two parts already
    # encoded: sort_keys puts "command" before "payload"
    blob = '{"command":' + command_json + ',"payload":' + payload_json + "}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def finish_record(record: dict, key: str | None = None,
                  payload_json: str | None = None) -> dict:
    """Attach the deterministic hash and version stamp; elapsed stays outside.

    key and payload_json, when given, are canonical_json of record["command"]
    and of record["payload"], so neither is encoded again.
    """
    record = dict(record)
    if key is None:
        key = canonical_json(record["command"])
    if payload_json is None:
        payload_json = canonical_json(record["payload"])
    record["payload_hash"] = _hash_blob(key, payload_json)
    record["version"] = __version__
    return record


def _tally(records: list[dict]) -> tuple[int, int, int]:
    """The numbers of error records, counterexample outcomes and skipped outcomes."""
    errors = counterexamples = skipped = 0
    for record in records:
        if record["status"] == "error":
            errors += 1
        payload = record.get("payload")
        if isinstance(payload, dict):
            outcome = payload.get("outcome")
            if outcome == "counterexample":
                counterexamples += 1
            elif outcome == "skipped":
                skipped += 1
    return errors, counterexamples, skipped


def _code_from_tally(errors: int, counterexamples: int, skipped: int) -> int:
    if counterexamples:
        return 1
    if errors:
        return 2
    if skipped:
        return 3
    return 0


def exit_code_for(records: list[dict]) -> int:
    return _code_from_tally(*_tally(records))


def _json_lines(records: list[dict]):
    """_JSON_LINE.encode(record) and a newline for each record, built with each
    distinct command and payload object encoded once.

    The parts are joined in the sorted key order of a finished record: command,
    elapsed_ms, payload, payload_hash, status, version. A repeat of a command
    shares its first record's command and payload objects (run_session), and the
    commands that reach one memoized result share a payload object, so texts are
    keyed by id; every record is alive until the last line is built, so no id is
    reused. elapsed_ms is a finite float, which JSON writes as float.__repr__ does.
    """
    encode = _JSON_LINE.encode
    texts: dict[int, str] = {}
    for record in records:
        command, payload = record["command"], record["payload"]
        command_text = texts.get(id(command))
        if command_text is None:
            command_text = texts[id(command)] = encode(command)
        payload_text = texts.get(id(payload))
        if payload_text is None:
            payload_text = texts[id(payload)] = encode(payload)
        yield "".join(('{"command": ', command_text,
                       ', "elapsed_ms": ', float.__repr__(record["elapsed_ms"]),
                       ', "payload": ', payload_text,
                       ', "payload_hash": ', _json_string(record["payload_hash"]),
                       ', "status": ', _json_string(record["status"]),
                       ', "version": ', _json_string(record["version"]), '}\n'))


def emit_report(records: list[dict], fmt: str, stream) -> int:
    """Write all records plus a summary; returns the exit code."""
    errors, counterexamples, skipped = _tally(records)
    code = _code_from_tally(errors, counterexamples, skipped)
    try:
        if fmt == "human":
            _emit_human(records, code, stream)
        else:
            for line in _json_lines(records):
                stream.write(line)
            summary = {
                "summary": {
                    "commands": len(records),
                    "errors": errors,
                    "counterexamples": counterexamples,
                    "skipped": skipped,
                    "exit_code": code,
                    "version": __version__,
                }
            }
            stream.write(_JSON_LINE.encode(summary) + "\n")
        stream.flush()
    except OSError:
        return 2
    return code


def _emit_human(records: list[dict], code: int, stream) -> None:
    # the indented block of each distinct payload object, keyed by id as in
    # _json_lines; a default {} may be freed and its id reused, but only by
    # another default {}, whose block is the same
    blocks: dict[int, str] = {}
    for i, record in enumerate(records, 1):
        cmd = record["command"]
        op = cmd.get("op", "?")
        stream.write(f"== command {i}: {op} ==\n")
        stream.write(f"   args: {canonical_json(cmd)}\n")
        stream.write(f"   status: {record['status']}\n")
        payload = record.get("payload", {})
        if isinstance(payload, dict) and "outcome" in payload:
            stream.write(f"   outcome: {payload['outcome']}"
                         f" ({payload.get('instances_checked', 0)} instances)\n")
        block = blocks.get(id(payload))
        if block is None:
            text = json.dumps(payload, sort_keys=True, indent=2)
            block = blocks[id(payload)] = "".join(f"   {line}\n" for line in text.splitlines())
        stream.write(block)
        stream.write(f"   hash: {record['payload_hash']}\n")
        stream.write(f"   elapsed: {record['elapsed_ms']:.1f} ms\n")
    stream.write(f"exit code: {code}\n")


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise SessionError(f"${BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    return check_budget(budget, f"${BUDGET_ENV_VAR}")


def run_session(session: Session, budget: int | None) -> list[dict]:
    """One finished record per command, in order; each distinct command runs once.

    A payload depends only on the command and the budget. So commands are keyed
    by their canonical JSON, the bytes payload_hash hashes: key order does not
    matter, and 1, 1.0 and true stay distinct. A repeat gets a new record with
    the first one's command, status, payload, payload_hash and version, and the
    time of its lookup as elapsed_ms. The command and payload objects are the
    first record's, shared, not copied: the repeat's command as given is parsed
    JSON with the same canonical JSON, so it is == to that object and has the
    same sorted JSON line.

    Distinct commands can share a payload object too: those of analyze, dm and
    zdtest are built once per memoized result (execute). So the canonical text
    of a payload is keyed by its id, as in _json_lines; the records hold every
    payload until the run ends, so no id is reused.
    """
    records = []
    answered: dict[str, dict] = {}
    payload_texts: dict[int, str] = {}
    for command in session.commands:
        t0 = time.perf_counter()
        key = canonical_json(command)
        first = answered.get(key)
        if first is None:
            record = execute(session, command, budget=budget)
            payload = record["payload"]
            text = payload_texts.get(id(payload))
            if text is None:
                text = payload_texts[id(payload)] = canonical_json(payload)
            first = answered[key] = finish_record(record, key, text)
            records.append(first)
        else:
            records.append(dict(first, elapsed_ms=(time.perf_counter() - t0) * 1000.0))
    return records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgmod",
        description="Analyze zero-divisors of finite modules and their monoid algebras.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="execute the commands of a session file")
    run.add_argument("session_file")
    run.add_argument("--format", choices=["json-lines", "human"], default="json-lines")
    run.add_argument("--budget", type=int, default=None,
                     help=f"instance budget for verifiers (default from ${BUDGET_ENV_VAR} "
                          f"or {DEFAULT_BUDGET})")
    val = sub.add_parser("validate", help="parse and validate a session file")
    val.add_argument("session_file")
    return parser


def _input_error(exc: SessionError, stream) -> int:
    stream.write(_JSON_LINE.encode({"error": {"type": type(exc).__name__,
                                              "message": str(exc)}}) + "\n")
    return 2


def main(argv=None, stream=None) -> int:
    args = build_parser().parse_args(argv)
    out = stream if stream is not None else sys.stdout
    try:
        if getattr(args, "budget", None) is not None:
            check_budget(args.budget, "--budget")
        session = load_session(args.session_file)
        if args.subcommand == "validate":
            for i, command in enumerate(session.commands):
                check_command(command, obj=f"commands[{i}]")
    except SessionError as exc:
        return _input_error(exc, out)

    if args.subcommand == "validate":
        out.write(_JSON_LINE.encode({
            "ok": True,
            "objects": {
                "rings": len(session.rings),
                "monoids": len(session.monoids),
                "modules": len(session.modules),
                "submodules": len(session.submodules),
                "series": len(session.series),
                "commands": len(session.commands),
            },
            "version": __version__,
        }) + "\n")
        return 0

    budget = args.budget
    if budget is None and "budget" not in session.settings:
        try:
            budget = _default_budget()
        except SessionError as exc:
            return _input_error(exc, out)
    records = run_session(session, budget)
    return emit_report(records, args.format, out)


if __name__ == "__main__":
    raise SystemExit(main())
