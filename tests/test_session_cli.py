import copy
import hashlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgmod
import sgmod.cli as cli
import sgmod.session as session_mod
from sgmod import SessionError, dedekind_mertens_exponent, dump_session, execute, load_session
from sgmod.cli import (canonical_json, exit_code_for, finish_record, main, payload_hash,
                       run_session)
from test_golden import GOLDEN
from test_golden import _session_path as golden_session_path

DEMO = os.path.join(os.path.dirname(__file__), "data", "demo_session.json")
EXPECTED_STATEMENTS = ("; expected one of ('mccoy_equivalence', 'domain_prime_extension', "
                       "'submodule_transfer', 'regularity_transfer', "
                       "'zero_divisor_transfer', 'finite_ring_chain')")


def write_session(tmp_path, doc, name="session.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def minimal_doc(**extra):
    doc = {
        "rings": {"R6": {"kind": "zmod", "n": 6}},
        "monoids": {"N": {"kind": "free", "dim": 1}},
        "modules": {"M6": {"kind": "ring_as_module", "ring": "R6"}},
        "commands": [{"op": "analyze", "module": "M6"}],
    }
    doc.update(extra)
    return doc


class TestLoadSession:
    def test_demo_loads(self):
        session = load_session(DEMO)
        assert set(session.rings) == {"R6", "T", "Q3"}
        assert session.rings["Q3"].size == 3
        assert len(session.commands) == 13

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rings": {,}}')
        with pytest.raises(SessionError) as err:
            load_session(str(path))
        assert err.value.line == 1
        assert err.value.column is not None

    def test_unresolved_reference(self, tmp_path):
        doc = minimal_doc()
        doc["modules"]["M9"] = {"kind": "ring_as_module", "ring": "R9"}
        with pytest.raises(SessionError, match="unresolved reference"):
            load_session(write_session(tmp_path, doc))

    def test_validation_error_names_object(self, tmp_path):
        doc = minimal_doc()
        doc["rings"]["BAD"] = {"kind": "tables", "add": [[0, 1], [1, 1]],
                               "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}
        with pytest.raises(SessionError, match="BAD"):
            load_session(write_session(tmp_path, doc))

    def test_cyclic_definition(self, tmp_path):
        doc = minimal_doc()
        doc["rings"]["Q"] = {"kind": "quotient", "ring": "Q", "gens": [0]}
        with pytest.raises(SessionError, match="cyclic"):
            load_session(write_session(tmp_path, doc))

    def test_unknown_top_level_key(self, tmp_path):
        doc = minimal_doc(widgets={})
        with pytest.raises(SessionError, match="unknown top-level"):
            load_session(write_session(tmp_path, doc))

    def test_missing_file(self):
        with pytest.raises(SessionError, match="cannot read"):
            load_session("/nonexistent/nowhere.json")

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"rings": {"R": {"kind": "zmod", "n": 2}, '
                        '"R": {"kind": "zmod", "n": 3}}, "commands": []}')
        with pytest.raises(SessionError, match="duplicate"):
            load_session(str(path))

    # each document repeats two keys at one level, in the order x, y, y, x: the
    # error names y, the first key seen again in document order
    @pytest.mark.parametrize("text,key", [
        ('{"rings": {}, "commands": [], "commands": [], "rings": {}}', "commands"),
        ('{"rings": {"R": {"kind": "zmod", "n": 2}, "T": {"kind": "zmod", "n": 3}, '
         '"T": {"kind": "zmod", "n": 5}, "R": {"kind": "zmod", "n": 7}}, "commands": []}', "T"),
        ('{"rings": {"R": {"kind": "zmod", "n": 2, "n": 3, "kind": "zmod"}}, "commands": []}',
         "n"),
        ('{"rings": {"R": {"kind": "zmod", "n": 2}}, '
         '"commands": [{"op": "dm", "f": "f", "g": "g", "g": "h", "f": "h"}]}', "g"),
        ('{"rings": {"R": {"kind": "zmod", "n": 2}}, "monoids": {"N": {"kind": "free", "dim": 1}}, '
         '"series": {"f": {"ring": "R", "monoid": "N", "terms": [{"exponent": 0, '
         '"coefficient": 1, "coefficient": 0, "exponent": 1}]}}, "commands": []}', "coefficient"),
    ], ids=["top_level", "section", "definition", "command", "series_term"])
    def test_duplicate_error_names_the_first_repeated_key(self, tmp_path, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(SessionError) as err:
            load_session(str(path))
        assert str(err.value) == f"duplicate name {key!r}"

    @pytest.mark.parametrize("name", ["demo_session.json", "golden_session.json",
                                      "module_structure_seed11.json"])
    def test_documents_without_duplicates_parse_as_plain_json(self, name):
        with open(os.path.join(os.path.dirname(DEMO), name), encoding="utf-8") as fh:
            text = fh.read()
        hooked = json.loads(text, object_pairs_hook=session_mod._reject_duplicate_keys)
        plain = json.loads(text)
        assert hooked == plain
        # key order too, all the way down
        assert json.dumps(hooked) == json.dumps(plain)


GOLDEN_SESSION = os.path.join(os.path.dirname(DEMO), "golden_session.json")


class TestRoundTrip:
    # the golden session adds direct_sum, quotient and tables modules to the
    # demo's kinds, and the series y lives over the direct sum S, not a ring
    @pytest.mark.parametrize("path,series", [
        (DEMO, {}),
        (GOLDEN_SESSION, {"y": {"module": "S", "monoid": "N", "terms": [
            {"exponent": 0, "coefficient": 27}, {"exponent": 2, "coefficient": 5}]}}),
    ], ids=["demo", "golden"])
    def test_dump_and_reload_structurally_identical(self, tmp_path, path, series):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.setdefault("series", {}).update(series)
        session = load_session(write_session(tmp_path, doc))
        dumped = dump_session(session)
        reloaded = load_session(write_session(tmp_path, dumped, "dumped.json"))
        for name, ring in session.rings.items():
            other = reloaded.rings[name]
            assert np.array_equal(ring.add_table, other.add_table)
            assert np.array_equal(ring.mul_table, other.mul_table)
            assert (ring.zero, ring.one) == (other.zero, other.one)
        for name, module in session.modules.items():
            other = reloaded.modules[name]
            assert np.array_equal(module.add_table, other.add_table)
            assert np.array_equal(module.action_table, other.action_table)
            assert module.zero == other.zero
            assert (module is module.ring) == (other is other.ring)
        for name, sub in session.submodules.items():
            assert sub.members == reloaded.submodules[name].members
        for name, f in session.series.items():
            assert f.terms == reloaded.series[name].terms
        for name, monoid in session.monoids.items():
            other = reloaded.monoids[name]
            assert monoid.kind == other.kind
        if path == DEMO:
            # R6 acting on itself is R6, and it is reloaded as one object
            assert dumped["modules"]["M6"] == {"kind": "ring_as_module", "ring": "R6"}
            assert reloaded.modules["M6"] is reloaded.rings["R6"]
        else:
            # direct sums and quotients are written as tables, and a series
            # over a module that is not a ring names its module
            assert {dumped["modules"][m]["kind"] for m in ("S", "Q", "V")} == {"tables"}
            assert dumped["series"]["y"]["module"] == "S"
            assert reloaded.series["y"].space is reloaded.modules["S"]

    @pytest.mark.parametrize("path", [DEMO, GOLDEN_SESSION], ids=["demo", "golden"])
    def test_dump_and_reload_replays_every_payload_hash(self, tmp_path, path):
        # labels are payload fields ("module": "Z/6", "Z/6/(0,3)"), so a dump
        # that dropped them would reload under the session keys
        session = load_session(path)
        reloaded = load_session(write_session(tmp_path, dump_session(session), "dumped.json"))
        before = [r["payload_hash"] for r in run_session(session, None)]
        after = [r["payload_hash"] for r in run_session(reloaded, None)]
        assert len(before) == len(session.commands) > 0
        assert after == before

    @pytest.mark.parametrize("section,defn", [
        ("rings", {"kind": "tables", "add": [[0]], "mul": [[0]], "zero": 0, "one": 0}),
        ("monoids", {"kind": "table", "cayley": [[0]], "identity": 0}),
    ])
    @pytest.mark.parametrize("label", [5, None, ["Z/1"], {"name": "Z/1"}, True])
    def test_label_must_be_a_string(self, tmp_path, section, defn, label):
        doc = {section: {"X": {**defn, "label": label}}, "commands": []}
        with pytest.raises(SessionError, match="'label' must be a string"):
            load_session(write_session(tmp_path, doc))

    def test_tables_labels_default_to_the_session_key(self, tmp_path):
        doc = {"rings": {"R": {"kind": "tables", "add": [[0, 1], [1, 0]],
                               "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1,
                               "label": "F2"}},
               "modules": {"M": {"kind": "tables", "ring": "R", "add": [[0, 1], [1, 0]],
                                 "action": [[0, 0], [0, 1]], "zero": 0},
                           "L": {"kind": "tables", "ring": "R", "add": [[0, 1], [1, 0]],
                                 "action": [[0, 0], [0, 1]], "zero": 0, "label": "F2^1"}},
               "monoids": {"C": {"kind": "table", "cayley": [[0]], "identity": 0}},
               "commands": []}
        session = load_session(write_session(tmp_path, doc))
        assert session.rings["R"].label == "F2"
        assert (session.modules["M"].label, session.modules["L"].label) == ("M", "F2^1")
        assert session.monoids["C"].label == "C"


class TestExecute:
    def test_analyze_payload(self):
        session = load_session(DEMO)
        record = execute(session, {"op": "analyze", "module": "M6"})
        assert record["status"] == "ok"
        payload = record["payload"]
        assert payload["zero_divisors"] == [0, 2, 3, 4]
        assert payload["decomposition"]["primes"] == [[0, 2, 4], [0, 3]]
        assert payload["degree"] == 2
        assert payload["very_few"]["holds"] is True
        assert payload["property_a"]["holds"] is True
        assert payload["primal"]["is_primal"] is False
        assert payload["primal"]["violation"] == ["add", 2, 3]

    def test_dm_commands(self):
        session = load_session(DEMO)
        record = execute(session, {"op": "dm", "f": "f", "g": "g"})
        assert record["payload"]["k_min"] == 1
        record = execute(session, {"op": "dm", "f": "h", "g": "h"})
        assert record["payload"]["k_min"] == 2

    def test_error_record_keeps_running(self):
        session = load_session(DEMO)
        record = execute(session, {"op": "mccoy", "f": "f", "g": "f"})
        assert record["status"] == "error"
        assert record["payload"]["error"]["type"] == "PreconditionError"

    def test_unknown_command(self):
        session = load_session(DEMO)
        record = execute(session, {"op": "frobnicate"})
        assert record["status"] == "error"

    @pytest.mark.parametrize("command,expected", [
        ({"kind": "noncancellative", "monoid": "Sat2", "q": 2}, {"witness": [2, 0, 1]}),
        # no s and t: the witness comes from is_torsion_free(C2), 2·1 = 2·0
        ({"kind": "torsion", "monoid": "C2", "q": 1},
         {"s": 1, "t": 0, "k": 2, "h": [[0, 1], [1, 1]], "g": [[0, 5], [1, 1]]}),
    ], ids=["noncancellative", "torsion"])
    def test_counterexample_auto_witness(self, command, expected):
        record = execute(load_session(DEMO), {"op": "counterexample", "module": "M6",
                                              **command})
        assert record["status"] == "ok"
        assert {key: record["payload"][key] for key in expected} == expected

    def test_verify_budget_skip(self):
        session = load_session(DEMO)
        record = execute(session, {"op": "verify", "statement": "mccoy_equivalence",
                                   "ring": "R6", "module": "M6", "monoid": "N",
                                   "window": [0, 1, 2]}, budget=50)
        assert record["payload"]["outcome"] == "skipped"


def _shared_payload_session(tmp_path):
    """Two (f, g) pairs on Z/6 over N with the contents (2), (3) and c(fg) = 0,
    so one Dedekind-Mertens transcript (cap 2) and one annihilator (0, 3)."""
    def series(space, name, terms):
        return {space: name, "monoid": "N",
                "terms": [{"exponent": e, "coefficient": c} for e, c in terms]}

    doc = minimal_doc(series={"f1": series("ring", "R6", [(0, 2), (1, 2)]),
                              "f2": series("ring", "R6", [(0, 4), (2, 2)]),
                              "g1": series("module", "M6", [(0, 3)]),
                              "g2": series("module", "M6", [(1, 3)])})
    return write_session(tmp_path, doc)


class TestSharedPayloads:
    @pytest.mark.parametrize("commands", [
        [{"op": "dm", "f": "f1", "g": "g1"}, {"op": "dm", "f": "f2", "g": "g2"}],
        [{"op": "zdtest", "f": "f1", "module": "M6"}, {"op": "zdtest", "f": "f2", "module": "M6"}],
        [{"op": "analyze", "module": "M6"}, {"op": "analyze", "module": "M6"}],
    ], ids=["dm", "zdtest", "analyze"])
    def test_one_memoized_result_gives_one_payload(self, tmp_path, commands):
        path = _shared_payload_session(tmp_path)
        session = load_session(path)
        first, second = (execute(session, command) for command in commands)
        assert first["status"] == second["status"] == "ok"
        assert first["payload"] is second["payload"]
        for record in (first, second):
            fresh = execute(load_session(path), record["command"])
            assert fresh["payload"] is not record["payload"]
            assert fresh["payload"] == record["payload"]

    def test_distinct_commands_encode_a_shared_payload_once(self, tmp_path, monkeypatch):
        session = load_session(_shared_payload_session(tmp_path))
        session.commands = [{"op": "dm", "f": "f1", "g": "g1"},
                            {"op": "dm", "f": "f2", "g": "g2"},
                            {"op": "dm", "f": "f1", "g": "g1"}]
        encoded = []
        real_encoder = cli._CANONICAL

        class CountingEncoder:
            def encode(self, value):
                encoded.append(value)
                return real_encoder.encode(value)

        monkeypatch.setattr(cli, "_CANONICAL", CountingEncoder())
        records = run_session(session, None)
        monkeypatch.undo()
        payload = records[0]["payload"]
        assert all(record["payload"] is payload for record in records)
        # a key per record, and the payload once, after the first key
        assert [value is payload for value in encoded] == [False, True, False, False]
        assert [record["payload_hash"] for record in records] == [
            payload_hash(record["command"], payload) for record in records]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_pinned_sessions_in_reverse_give_the_same_hashes(self, name, tmp_path):
        # the memos are keyed by contents, annihilators and modules: the order
        # in which commands reach them does not change a payload
        session = load_session(golden_session_path(name, tmp_path))
        session.commands.reverse()
        records = run_session(session, None)
        assert [record["payload_hash"] for record in records] == GOLDEN[name][::-1]


class TestCliEndToEnd:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), stream=out)
        return code, out.getvalue()

    def test_validate_ok(self):
        code, output = self.run_cli("validate", DEMO)
        assert code == 0
        assert json.loads(output)["ok"] is True

    def test_validate_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, output = self.run_cli("validate", str(path))
        assert code == 2
        assert "error" in json.loads(output)

    def test_run_demo_exit_zero(self):
        code, output = self.run_cli("run", DEMO)
        assert code == 0
        lines = [json.loads(line) for line in output.strip().splitlines()]
        summary = lines[-1]["summary"]
        assert summary["exit_code"] == 0
        assert summary["errors"] == 0
        assert summary["commands"] == 13

    def test_run_is_deterministic(self):
        _, first = self.run_cli("run", DEMO)
        _, second = self.run_cli("run", DEMO)

        def hash_sections(text):
            out = []
            for line in text.strip().splitlines():
                rec = json.loads(line)
                if "summary" in rec:
                    out.append(("summary", json.dumps(rec, sort_keys=True)))
                else:
                    out.append((rec["payload_hash"],
                                json.dumps({"command": rec["command"],
                                            "payload": rec["payload"]}, sort_keys=True)))
            return out

        assert hash_sections(first) == hash_sections(second)

    def test_budget_flag_gives_exit_three(self):
        code, output = self.run_cli("run", DEMO, "--budget", "10")
        assert code == 3
        summary = json.loads(output.strip().splitlines()[-1])["summary"]
        assert summary["skipped"] > 0

    def test_malformed_session_exit_two(self, tmp_path):
        doc = minimal_doc()
        doc["rings"]["BAD"] = {"kind": "tables", "add": [[0, 1], [1, 1]],
                               "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}
        code, _ = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2

    def test_command_error_exit_two(self, tmp_path):
        doc = minimal_doc()
        doc["commands"] = [{"op": "analyze", "module": "MISSING"}]
        code, _ = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2

    def test_human_format(self):
        code, output = self.run_cli("run", DEMO, "--format", "human")
        assert code == 0
        assert "== command 1: analyze ==" in output
        assert "exit code: 0" in output

    def test_env_var_budget(self, tmp_path, monkeypatch):
        doc = minimal_doc()
        doc["commands"] = [{"op": "verify", "statement": "mccoy_equivalence",
                            "ring": "R6", "module": "M6", "monoid": "N",
                            "window": [0, 1]}]
        path = write_session(tmp_path, doc)
        monkeypatch.setenv("SGMOD_BUDGET", "5")
        code, _ = self.run_cli("run", path)
        assert code == 3
        monkeypatch.delenv("SGMOD_BUDGET")
        code, _ = self.run_cli("run", path)
        assert code == 0

    def test_session_budget_setting(self, tmp_path):
        doc = minimal_doc(settings={"budget": 5})
        doc["commands"] = [{"op": "verify", "statement": "mccoy_equivalence",
                            "ring": "R6", "module": "M6", "monoid": "N",
                            "window": [0, 1]}]
        code, _ = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 3


class TestExitCodeContract:
    def test_counterexample_wins(self):
        records = [
            {"status": "ok", "payload": {"outcome": "pass"}},
            {"status": "error", "payload": {"error": {}}},
            {"status": "ok", "payload": {"outcome": "counterexample"}},
            {"status": "ok", "payload": {"outcome": "skipped"}},
        ]
        assert exit_code_for(records) == 1

    def test_error_beats_skip(self):
        records = [
            {"status": "error", "payload": {"error": {}}},
            {"status": "ok", "payload": {"outcome": "skipped"}},
        ]
        assert exit_code_for(records) == 2

    def test_skip_alone(self):
        records = [{"status": "ok", "payload": {"outcome": "skipped"}}]
        assert exit_code_for(records) == 3

    def test_all_green(self):
        records = [{"status": "ok", "payload": {"outcome": "pass"}},
                   {"status": "ok", "payload": {"k_min": 1}}]
        assert exit_code_for(records) == 0

    def test_counterexample_reaches_exit_one_through_real_pipeline(self, tmp_path,
                                                                   monkeypatch):
        # patch one verifier to emit a counterexample and drive the full CLI
        import sgmod.session as session_mod
        from sgmod.verify import VerificationReport

        def fake_verify(ring, module, monoid, window, budget=0):
            return VerificationReport("mccoy_equivalence", "counterexample", 1,
                                      {}, counterexample={"clause": "planted"})

        monkeypatch.setattr(session_mod, "verify_mccoy_equivalence", fake_verify)
        doc = minimal_doc()
        doc["commands"] = [{"op": "verify", "statement": "mccoy_equivalence",
                            "ring": "R6", "module": "M6", "monoid": "N",
                            "window": [0, 1]}]
        out = io.StringIO()
        code = main(["run", write_session(tmp_path, doc)], stream=out)
        assert code == 1
        summary = json.loads(out.getvalue().strip().splitlines()[-1])["summary"]
        assert summary["counterexamples"] == 1


class TestPayloadHash:
    def test_hash_ignores_elapsed(self):
        h1 = payload_hash({"op": "analyze"}, {"degree": 2})
        h2 = payload_hash({"op": "analyze"}, {"degree": 2})
        assert h1 == h2
        assert h1 != payload_hash({"op": "analyze"}, {"degree": 1})

    @pytest.mark.parametrize("command,payload", [
        ({"op": "analyze", "module": "Mödul ℤ/6"}, {"label": "é ∅ 😀", "degree": 2}),
        ({"op": "dm", "f": "f", "g": "g", "cap": [1, [2.5, None], []]},
         {"chain": [{"k": 1, "lhs": [0, 3], "equal": True}], "k_min": None, "x": -0.0}),
        ({"op": "verify", "window": [[0, 1], [1e300, 1.5]]}, {}),
        ({}, {}),
        ({"op": "mccoy"}, []),
    ])
    def test_hash_is_the_canonical_json_of_command_and_payload(self, command, payload):
        # the command is encoded apart from the payload and the blob is joined
        # by hand; this pins the join to the one-piece canonical encoding
        blob = canonical_json({"command": command, "payload": payload})
        assert payload_hash(command, payload) == hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert finish_record({"command": command, "payload": payload})["payload_hash"] \
            == payload_hash(command, payload)


def _repeat_session(tmp_path):
    verify = {"op": "verify", "statement": "mccoy_equivalence", "ring": "R6",
              "module": "M6", "monoid": "N", "window": [0, 1, 2]}
    dm = {"op": "dm", "f": "f", "g": "g"}
    analyze = {"op": "analyze", "module": "M6"}
    counterexample = {"op": "counterexample", "kind": "noncancellative",
                      "monoid": "Sat2", "module": "M6", "q": 1}
    malformed = {"op": "dm", "f": "h", "g": "h", "cap": "x"}
    commands = [dm, analyze, counterexample, malformed, verify,
                {"g": "g", "f": "f", "op": "dm"},  # dm with its keys in another order
                {"op": "dm", "f": "h", "g": "h", "cap": 1},
                {"op": "dm", "f": "h", "g": "h", "cap": 1.0},
                {"op": "dm", "f": "h", "g": "h", "cap": True},
                counterexample, analyze, malformed, verify, dm,
                {"op": "dm", "f": "h", "g": "h", "cap": True},
                {"op": "dm", "f": "h", "g": "h", "cap": 1}]
    with open(DEMO, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["settings"] = {"budget": 50}  # the session budget skips the verify
    doc["commands"] = commands
    return write_session(tmp_path, doc)


class TestRunSessionRepeats:
    def test_repeats_match_fresh_execution(self, tmp_path, monkeypatch):
        path = _repeat_session(tmp_path)
        calls = []
        real_execute = cli.execute

        def counting_execute(session, command, budget=None):
            calls.append(canonical_json(command))
            return real_execute(session, command, budget=budget)

        monkeypatch.setattr(cli, "execute", counting_execute)
        session = load_session(path)
        records = run_session(session, None)
        monkeypatch.undo()

        fresh = [finish_record(execute(load_session(path), record["command"]))
                 for record in records]
        commands = load_session(path).commands
        assert [record["command"] for record in records] == commands
        # a repeat holds its first occurrence's command object, == its own
        first = {}
        for record, command in zip(records, session.commands):
            assert record["command"] is first.setdefault(canonical_json(command), command)
        assert len(first) == 8
        for record, expected in zip(records, fresh):
            for key in ("status", "payload", "payload_hash", "version"):
                assert record[key] == expected[key]
            assert isinstance(record["elapsed_ms"], float)
        assert exit_code_for(records) == exit_code_for(fresh) == 2

        distinct = {canonical_json(command) for command in commands}
        assert len(calls) == len(set(calls)) == len(distinct) == 8
        assert set(calls) == distinct

        outcomes = {record["payload"].get("outcome") for record in records}
        assert {"skipped", None} == outcomes
        by_cap = {}
        for record in records:
            if "cap" in record["command"]:
                by_cap.setdefault(repr(record["command"]["cap"]), set()).add(
                    record["payload_hash"])
        # 1, 1.0 and True compare equal in Python but are distinct commands:
        # one hash per cap, and no two caps share one
        assert {k: len(v) for k, v in by_cap.items()} == {"1": 1, "1.0": 1, "True": 1,
                                                         "'x'": 1}
        assert len(set().union(*by_cap.values())) == 4
        assert records[6]["status"] == "ok"
        assert [records[i]["status"] for i in (3, 7, 8)] == ["error"] * 3

    def test_repeats_keep_their_place_in_the_report(self, tmp_path):
        path = _repeat_session(tmp_path)
        out = io.StringIO()
        code = main(["run", path], stream=out)
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert code == 2
        assert lines[-1]["summary"]["commands"] == 16
        assert lines[-1]["summary"]["errors"] == 5
        assert lines[-1]["summary"]["skipped"] == 2
        # the reordered dm is echoed as given and shares its first occurrence's hash
        assert list(lines[5]["command"]) == ["f", "g", "op"]
        assert lines[5]["payload_hash"] == lines[0]["payload_hash"]

    def test_execute_stays_uncached(self, monkeypatch):
        session = load_session(DEMO)
        calls = []
        real_dispatch = session_mod._dispatch

        def counting_dispatch(*args):
            calls.append(args[1])
            return real_dispatch(*args)

        monkeypatch.setattr(session_mod, "_dispatch", counting_dispatch)
        command = {"op": "dm", "f": "f", "g": "g"}
        first = execute(session, command)
        second = execute(session, command)
        assert len(calls) == 2
        assert first["payload"] == second["payload"]
        # every call dispatches; the dm payload is that of the memoized transcript
        transcript = dedekind_mertens_exponent(session.series["f"], session.series["g"])
        assert first["payload"] is second["payload"] is transcript.payload
        # a counterexample has no memoized result, so each call builds its payload
        command = {"op": "counterexample", "kind": "noncancellative",
                   "monoid": "Sat2", "module": "M6", "q": 2}
        first = execute(session, command)
        second = execute(session, command)
        assert len(calls) == 4
        assert first["payload"] == second["payload"]
        assert first["payload"] is not second["payload"]


def _emit_session(tmp_path):
    """The repeat session plus non-ASCII labels: a module named with one, which
    runs, and a dm cap that is one, whose error message carries it."""
    with open(_repeat_session(tmp_path), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["modules"]["Mödul ℤ/6"] = {"kind": "ring_as_module", "ring": "R6"}
    doc["commands"] += [{"op": "analyze", "module": "Mödul ℤ/6"},
                        {"op": "dm", "f": "h", "g": "h", "cap": "ℤ/7 é"},
                        {"module": "Mödul ℤ/6", "op": "analyze"}]
    return write_session(tmp_path, doc, name="emit.json")


class TestEmitReport:
    def test_lines_are_the_sorted_json_of_each_record(self, tmp_path):
        records = run_session(load_session(_emit_session(tmp_path)), None)
        out = io.StringIO()
        code = cli.emit_report(records, "json-lines", out)
        lines = out.getvalue().splitlines()
        assert code == 2
        assert lines[:-1] == [json.dumps(record, sort_keys=True) for record in records]
        assert json.loads(lines[-1])["summary"] == {
            "commands": 19, "errors": 6, "counterexamples": 0, "skipped": 2,
            "exit_code": 2, "version": sgmod.__version__}
        statuses = [record["status"] for record in records[-3:]]
        assert statuses == ["ok", "error", "ok"]
        # the labels reach the lines escaped, in the command and in the error payload
        assert "M\\u00f6dul \\u2124/6" in lines[-4]
        assert "é" in str(json.loads(lines[-3])["payload"])

    def test_records_sharing_a_payload_keep_their_own_command_and_hash(self):
        shared = {"degree": 2, "primes": [[0, 2, 4], [0, 3]]}
        records = [finish_record({"command": {"op": "analyze", "module": name},
                                  "status": "ok", "payload": shared, "elapsed_ms": ms})
                   for name, ms in (("A", 1.25), ("B", 0.5))]
        out = io.StringIO()
        assert cli.emit_report(records, "json-lines", out) == 0
        lines = out.getvalue().splitlines()
        assert lines[:2] == [json.dumps(record, sort_keys=True) for record in records]
        parsed = [json.loads(line) for line in lines[:2]]
        assert [p["command"]["module"] for p in parsed] == ["A", "B"]
        assert [p["payload_hash"] for p in parsed] == [
            payload_hash({"op": "analyze", "module": name}, shared) for name in "AB"]
        assert parsed[0]["payload_hash"] != parsed[1]["payload_hash"]

    def test_equal_but_distinct_command_objects_keep_their_own_lines(self):
        # 1, 1.0 and True are == in Python but not in JSON: the line texts are
        # keyed by the command object, not by its value
        payload = {"error": {"message": "shared"}}
        commands = [{"op": "dm", "f": "h", "g": "h", "cap": cap} for cap in (1, 1.0, True, 1)]
        assert all(command == commands[0] for command in commands)
        records = [finish_record({"command": command, "status": "ok", "payload": payload,
                                  "elapsed_ms": 0.5}) for command in commands]
        out = io.StringIO()
        assert cli.emit_report(records, "json-lines", out) == 0
        lines = out.getvalue().splitlines()[:-1]
        assert lines == [json.dumps(record, sort_keys=True) for record in records]
        assert len(set(lines)) == 3

    def test_each_distinct_payload_is_encoded_once(self, tmp_path, monkeypatch):
        records = run_session(load_session(_emit_session(tmp_path)), None)
        payload_ids = {id(record["payload"]) for record in records}
        # the two analyze modules are one object, the ring R6 itself, and share a payload
        assert len(payload_ids) == 9 < len(records)
        encoded = []
        real_encoder = cli._JSON_LINE

        class CountingEncoder:
            def encode(self, value):
                encoded.append(value)
                return real_encoder.encode(value)

        monkeypatch.setattr(cli, "_JSON_LINE", CountingEncoder())
        cli.emit_report(records, "json-lines", io.StringIO())
        encoded_payloads = [id(value) for value in encoded if id(value) in payload_ids]
        assert sorted(encoded_payloads) == sorted(payload_ids)


ENCODER_SESSIONS = ["demo_session.json", "golden_session.json",
                    "verify_window_seed11.json", "module_structure_seed11.json",
                    "table_build_seed11.json", "command_stream_seed11.json"]
EDGE_VALUES = ["M\u00f6dul \u2124/6", "\u00e9 \"q\" \\ \t \u0000 \U0001d53d", 1, 1.0, True, False,
               -0.0, 1e-07, 1e+16, -3, 2 ** 70, 0.1, [], {}, [[], {}, [[{}]], {"a": []}],
               {"b": {"d": [1, 1.0, True, None], "c": {}}, "a": [[]]}, None]


def _oracle(encoder):
    """The json.JSONEncoder that the module's encoder stands for."""
    separators = (",", ":") if encoder is cli._CANONICAL else (", ", ": ")
    return json.JSONEncoder(sort_keys=True, separators=separators, check_circular=False)


class TestEncoders:
    @pytest.mark.parametrize("encoder", [cli._CANONICAL, cli._JSON_LINE],
                             ids=["canonical", "json_line"])
    @pytest.mark.parametrize("name", ENCODER_SESSIONS)
    def test_session_values_encode_as_the_oracle(self, name, encoder, tmp_path):
        records = run_session(load_session(golden_session_path(name, tmp_path)), None)
        values = [record[key] for record in records for key in ("command", "payload")]
        oracle = _oracle(encoder)
        assert [encoder.encode(value) for value in values] == [
            oracle.encode(value) for value in values]

    @pytest.mark.parametrize("encoder", [cli._CANONICAL, cli._JSON_LINE],
                             ids=["canonical", "json_line"])
    def test_edge_values_encode_as_the_oracle(self, encoder):
        oracle = _oracle(encoder)
        for value in EDGE_VALUES + [EDGE_VALUES, dict(zip("zyxw", EDGE_VALUES))]:
            assert encoder.encode(value) == oracle.encode(value), value
        with pytest.raises(TypeError, match="int64"):
            encoder.encode({"a": [np.int64(1)]})

    def test_command_stream_encodes_each_distinct_command_once_per_form(
            self, tmp_path, monkeypatch):
        session = load_session(golden_session_path("command_stream_seed11.json", tmp_path))
        counts = {"_CANONICAL": 0, "_JSON_LINE": 0}

        class CountingEncoder:
            def __init__(self, name):
                self.name, self.real = name, getattr(cli, name)

            def encode(self, value):
                counts[self.name] += 1
                return self.real.encode(value)

        for name in counts:
            monkeypatch.setattr(cli, name, CountingEncoder(name))
        records = run_session(session, None)
        assert cli.emit_report(records, "json-lines", io.StringIO()) == 0
        monkeypatch.undo()
        commands = {id(record["command"]) for record in records}
        payloads = {id(record["payload"]) for record in records}
        assert (len(records), len(commands), len(payloads)) == (4010, 1518, 658)
        # canonical: a memo key per command and a text per payload object;
        # line form: a text per command object and per payload object, and
        # the summary
        assert counts == {"_CANONICAL": 4010 + 658, "_JSON_LINE": 1518 + 658 + 1}


def _human_oracle(records, code):
    """The human report with every payload block dumped per record."""
    out = io.StringIO()
    for i, record in enumerate(records, 1):
        cmd = record["command"]
        out.write(f"== command {i}: {cmd.get('op', '?')} ==\n")
        out.write(f"   args: {canonical_json(cmd)}\n")
        out.write(f"   status: {record['status']}\n")
        payload = record.get("payload", {})
        if isinstance(payload, dict) and "outcome" in payload:
            out.write(f"   outcome: {payload['outcome']}"
                      f" ({payload.get('instances_checked', 0)} instances)\n")
        for line in json.dumps(payload, sort_keys=True, indent=2).splitlines():
            out.write(f"   {line}\n")
        out.write(f"   hash: {record['payload_hash']}\n")
        out.write(f"   elapsed: {record['elapsed_ms']:.1f} ms\n")
    out.write(f"exit code: {code}\n")
    return out.getvalue()


@pytest.mark.parametrize("name", ["demo_session.json", "golden_session.json",
                                  "verify_window_seed11.json", "module_structure_seed11.json",
                                  "command_stream_seed11.json"])
def test_human_report_matches_per_record_dumps(name, tmp_path):
    # payload blocks are built once per payload object; repeats share one
    records = run_session(load_session(golden_session_path(name, tmp_path)), None)
    out = io.StringIO()
    code = cli.emit_report(records, "human", out)
    assert out.getvalue() == _human_oracle(records, code)


def _z5_tables():
    idx = range(5)
    return {"kind": "tables", "add": [[(a + b) % 5 for b in idx] for a in idx],
            "mul": [[(a * b) % 5 for b in idx] for a in idx], "zero": 0, "one": 1}


class TestStrictInputs:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), stream=out)
        return code, [json.loads(line) for line in out.getvalue().strip().splitlines()]

    @pytest.fixture
    def audited(self, monkeypatch):
        """Labels of the rings passed to validate_ring, in call order."""
        import sgmod.finite_algebra as fa
        calls = []
        original = fa.validate_ring

        def counting(ring):
            calls.append(ring.label)
            original(ring)

        monkeypatch.setattr(fa, "validate_ring", counting)
        return calls

    def test_tables_ring_cap_checked_before_audit(self, tmp_path, audited):
        # the rows are never read: the row count alone is over the cap
        doc = minimal_doc()
        doc["rings"] = {"R": {"kind": "tables", "add": [[0]] * 4097, "mul": [[0]] * 4097,
                              "zero": 0, "one": 0}}
        doc["modules"] = {}
        doc["commands"] = []
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        assert lines[0]["error"]["message"] == "ring size 4097 exceeds cap 4096 [ring 'R']"
        assert audited == []

    def test_tables_ring_within_cap_is_audited(self, tmp_path, audited):
        doc = minimal_doc()
        doc["rings"]["R5"] = _z5_tables()
        code, _ = self.run_cli("validate", write_session(tmp_path, doc))
        assert code == 0
        assert "R5" in audited

    @pytest.mark.parametrize("ring", [
        {"kind": "zmod", "n": 6.7},
        {"kind": "zmod", "n": 6.0},
        {"kind": "zmod", "n": True},
        {"kind": "zmod", "n": "6"},
        {"kind": "truncated_poly", "p": 2.5, "nvars": 2, "cap": 3},
        {"kind": "truncated_poly", "p": 2, "nvars": True, "cap": 3},
        {"kind": "truncated_poly", "p": 2, "nvars": 2, "cap": 3.2},
        {**_z5_tables(), "zero": 0.0},
        {**_z5_tables(), "one": True},
    ])
    def test_non_integral_ring_fields_exit_two(self, tmp_path, ring):
        doc = minimal_doc()
        doc["rings"]["BAD"] = ring
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert "must be an integer" in error["message"]
        assert "ring 'BAD'" in error["message"]

    @pytest.mark.parametrize("section,defn", [
        ("monoids", {"kind": "free", "dim": 1.0}),
        ("monoids", {"kind": "cyclic_group", "k": 2.5}),
        ("monoids", {"kind": "saturating", "c": "2"}),
        ("monoids", {"kind": "table", "cayley": [[0]], "identity": False}),
        ("modules", {"kind": "tables", "ring": "R6", "add": [[0]], "action": [[0]] * 6,
                     "zero": 0.9}),
    ])
    def test_non_integral_object_fields_exit_two(self, tmp_path, section, defn):
        doc = minimal_doc()
        doc[section]["BAD"] = defn
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert "must be an integer" in error["message"]
        assert f"{section[:-1]} 'BAD'" in error["message"]

    @pytest.mark.parametrize("value", [2**31, 2**63, -2**63 - 1])
    @pytest.mark.parametrize("section,name,defn,table", [
        ("rings", "BAD", _z5_tables(), "add"),
        ("modules", "BAD", {"kind": "tables", "ring": "R6",
                            "add": [[(x + y) % 6 for y in range(6)] for x in range(6)],
                            "action": [[(r * x) % 6 for x in range(6)] for r in range(6)],
                            "zero": 0}, "action"),
        ("monoids", "BAD", {"kind": "table", "cayley": [[0, 1], [1, 0]], "identity": 0},
         "cayley"),
    ])
    def test_table_entry_beyond_int32_or_int64_exit_two(self, tmp_path, section, name, defn,
                                                       table, value):
        # an entry too wide for the table dtype is out of range like any other,
        # not an OverflowError traceback
        doc = minimal_doc()
        bad = copy.deepcopy(defn)
        bad[table][1][1] = value
        doc[section][name] = bad
        code, lines = self.run_cli("validate", write_session(tmp_path, doc))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert "entry at (1, 1) out of range" in error["message"]
        assert f"{section[:-1]} '{name}'" in error["message"]

    def test_direct_sum_checks_the_module_cap(self, tmp_path):
        doc = minimal_doc()
        doc["rings"]["R65"] = {"kind": "zmod", "n": 65}
        doc["modules"]["M65"] = {"kind": "ring_as_module", "ring": "R65"}
        doc["modules"]["S"] = {"kind": "direct_sum", "left": "M65", "right": "M65"}
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert "module size 65 * 65 = 4225 exceeds cap 4096" in error["message"]
        assert "module 'S'" in error["message"]

    @pytest.mark.parametrize("defn,order", [
        # tables of these orders cannot even be allocated: the cap comes first
        ({"kind": "saturating", "c": 10**18}, 10**18 + 1),
        ({"kind": "cyclic_group", "k": 10**18}, 10**18),
        # rows are never read: the table would fail its own shape check
        ({"kind": "table", "cayley": [[0]] * 1025, "identity": 0}, 1025),
    ])
    def test_oversized_monoid_exits_two(self, tmp_path, defn, order):
        doc = minimal_doc()
        doc["monoids"]["S"] = defn
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert f"monoid order {order} exceeds cap 1024 [monoid 'S']" in error["message"]

    @pytest.mark.parametrize("settings", [
        {"budget": "lots"},
        {"budget": 1e7},
        {"budget": True},
        {"budget": None},
        {"budget": [7]},
    ])
    def test_non_integral_settings_exit_two(self, tmp_path, settings):
        code, lines = self.run_cli("run", write_session(tmp_path, minimal_doc(settings=settings)))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert f"'{next(iter(settings))}' must be an integer" in error["message"]

    # the size caps were settings once; a session written for them fails loudly
    @pytest.mark.parametrize("key", ["zmod_cap", "ring_cap", "module_cap", "budgett"])
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_settings_other_than_budget_exit_two(self, tmp_path, subcommand, key):
        doc = minimal_doc(settings={"budget": 100, key: 4096})
        code, lines = self.run_cli(subcommand, write_session(tmp_path, doc))
        assert code == 2
        assert lines == [{"error": {"type": "SessionError",
                                    "message": f"unknown settings keys: [{key!r}] [settings]"}}]

    @pytest.mark.parametrize("text,message", [
        (b'{"commands": [], "rings": {"\xff": {}}}',
         "'utf-8' codec can't decode byte 0xff in position 28"),
        (b'{"commands": ' + b"[" * 200000 + b"]" * 200000 + b"}",
         "maximum recursion depth exceeded"),
        (b'{"commands": [], "settings": {"budget": ' + b"1" * 5000 + b"}}",
         "Exceeds the limit (4300 digits)"),
    ], ids=["not_utf8", "nested_200000_deep", "integer_of_5000_digits"])
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_unreadable_document_exits_two(self, tmp_path, subcommand, text, message):
        path = tmp_path / "session.json"
        path.write_bytes(text)
        code, lines = self.run_cli(subcommand, str(path))
        assert code == 2
        assert len(lines) == 1
        assert lines[0]["error"]["type"] == "SessionError"
        assert message in lines[0]["error"]["message"]

    # JSON (RFC 8259) has no token for these, so a record echoing one would not be JSON
    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_non_finite_number_exits_two(self, tmp_path, subcommand, number):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(minimal_doc())[:-2]
                        + f', {{"op": "analyze", "module": "M6", "note": {number}}}]}}')
        code, lines = self.run_cli(subcommand, str(path))
        assert code == 2
        assert lines == [{"error": {"type": "SessionError",
                                    "message": f"parse error: {number} is not a finite number"}}]

    def test_settings_must_be_an_object(self, tmp_path):
        code, lines = self.run_cli("run", write_session(tmp_path, minimal_doc(settings="x")))
        assert code == 2
        assert lines[0]["error"]["type"] == "SessionError"

    @pytest.mark.parametrize("raw", ["abc", "1.5", ""])
    def test_bad_budget_env_var_exit_two(self, tmp_path, monkeypatch, raw):
        monkeypatch.setenv("SGMOD_BUDGET", raw)
        code, lines = self.run_cli("run", write_session(tmp_path, minimal_doc()))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert "SGMOD_BUDGET must be an integer" in error["message"]

    @pytest.mark.parametrize("command,message", [
        ({"op": "frobnicate"}, "unknown command op 'frobnicate'"),
        ({"op": ["verify"]}, "unknown command op ['verify']"),
        ({"op": "verify", "statement": "nope", "ring": "R6"},
         f"unknown statement 'nope'{EXPECTED_STATEMENTS}"),
        ({"op": "verify", "statement": ["nope"]},
         f"unknown statement ['nope']{EXPECTED_STATEMENTS}"),
    ])
    def test_unknown_op_or_statement_fails_validate_as_run(self, tmp_path, command, message):
        doc = minimal_doc()
        doc["commands"].append(command)
        path = write_session(tmp_path, doc)
        code, lines = self.run_cli("validate", path)
        assert code == 2
        assert lines == [{"error": {"type": "SessionError",
                                    "message": f"{message} [commands[1]]"}}]
        # run answers the good command and reports the bad one as its error record
        code, lines = self.run_cli("run", path)
        assert code == 2
        assert [line["status"] for line in lines[:2]] == ["ok", "error"]
        assert lines[1]["payload"]["error"] == {"type": "SessionError", "message": message}

    def run_with_budget(self, tmp_path, monkeypatch, source, budget):
        """Run a one-verify session with the budget given by the flag, the
        session settings or the environment variable."""
        doc = minimal_doc()
        doc["commands"] = [{"op": "verify", "statement": "mccoy_equivalence",
                            "ring": "R6", "module": "M6", "monoid": "N", "window": [0]}]
        flags = []
        if source == "flag":
            flags = [f"--budget={budget}"]
        elif source == "settings":
            doc["settings"] = {"budget": budget}
        else:
            monkeypatch.setenv("SGMOD_BUDGET", str(budget))
        return self.run_cli("run", write_session(tmp_path, doc), *flags)

    @pytest.mark.parametrize("source,message", [
        ("flag", "--budget must be nonnegative, got -1"),
        ("settings", "'budget' must be nonnegative, got -1 [settings]"),
        ("env", "$SGMOD_BUDGET must be nonnegative, got -1"),
    ])
    def test_negative_budget_exits_two_before_any_command(self, tmp_path, monkeypatch,
                                                          source, message):
        code, lines = self.run_with_budget(tmp_path, monkeypatch, source, -1)
        assert code == 2
        assert lines == [{"error": {"type": "SessionError", "message": message}}]

    @pytest.mark.parametrize("source", ["flag", "settings", "env"])
    def test_zero_budget_is_legal(self, tmp_path, monkeypatch, source):
        code, lines = self.run_with_budget(tmp_path, monkeypatch, source, 0)
        assert code == 3
        assert lines[0]["payload"]["skip_reason"] == "predicted 36 instances exceeds budget 0"

    @pytest.mark.parametrize("max_support,message", [
        (-1, "max_support must be at least 1"),
        (0, "max_support must be at least 1"),
        (1.5, "'max_support' must be an integer"),
        (True, "'max_support' must be an integer"),
    ])
    def test_bad_max_support_exit_two(self, tmp_path, max_support, message):
        doc = minimal_doc()
        doc["commands"] = [{"op": "verify", "statement": "mccoy_equivalence",
                            "ring": "R6", "module": "M6", "monoid": "N",
                            "window": [0, 1], "max_support": max_support}]
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        assert lines[0]["status"] == "error"
        assert message in lines[0]["payload"]["error"]["message"]

    def test_negative_max_support_rejected_by_window(self):
        from sgmod.errors import PreconditionError
        from sgmod.verify import SupportWindow
        with pytest.raises(PreconditionError, match="at least 1"):
            SupportWindow((0, 1), -1)

    @pytest.mark.parametrize("command", [
        {"op": "analyze", "module": ["M6"]},
        {"op": "zdtest", "f": {"a": 1}, "module": "M6"},
        {"op": "verify", "statement": "finite_ring_chain", "ring": ["R6"]},
        {"op": "dm", "f": 1, "g": "f"},
    ])
    def test_non_string_reference_exit_two(self, tmp_path, command):
        doc = minimal_doc()
        doc["commands"] = [command]
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert "referenced by name" in error["message"]

    @pytest.mark.parametrize("value", [["M6"], {"a": 1}, 7])
    def test_non_string_reference_in_execute_is_an_error_record(self, value):
        record = execute(load_session(DEMO), {"op": "analyze", "module": value})
        assert record["status"] == "error"
        assert record["payload"]["error"]["type"] == "SessionError"
        assert "referenced by name" in record["payload"]["error"]["message"]

    @pytest.mark.parametrize("section,defn,key", [
        ("rings", {"kind": "quotient", "ring": "R6", "gens": [3.7]}, "gens"),
        ("submodules", {"module": "M6", "gens": [2.5]}, "gens"),
        ("submodules", {"module": "M6", "members": [0, 3.0]}, "members"),
        ("series", {"ring": "R6", "monoid": "N",
                    "terms": [{"exponent": 1, "coefficient": 1.5}]}, "coefficient"),
        ("series", {"ring": "R6", "monoid": "N",
                    "terms": [{"exponent": 1.5, "coefficient": 1}]}, "exponent"),
        ("series", {"module": "M6", "monoid": "N2",
                    "terms": [{"exponent": [0, 1.0], "coefficient": 1}]}, "exponent"),
    ])
    def test_non_integral_element_fields_exit_two(self, tmp_path, section, defn, key):
        doc = minimal_doc()
        doc["monoids"]["N2"] = {"kind": "free", "dim": 2}
        doc.setdefault(section, {})["BAD"] = defn
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert f"'{key}' must be an integer" in error["message"]
        assert "'BAD'" in error["message"]

    @pytest.mark.parametrize("command,key", [
        ({"op": "dm", "f": "f", "g": "f", "cap": 1.9}, "cap"),
        ({"op": "counterexample", "kind": "noncancellative", "monoid": "Sat2",
          "module": "M6", "q": 2.5}, "q"),
        ({"op": "counterexample", "kind": "torsion", "monoid": "C2", "module": "M6",
          "s": 1.0, "t": 0}, "exponent"),
        ({"op": "verify", "statement": "mccoy_equivalence", "ring": "R6", "module": "M6",
          "monoid": "N", "window": [[0], [1.5]]}, "exponent"),
        ({"op": "verify", "statement": "regularity_transfer", "ring": "R6", "module": "M6",
          "monoid": "N", "window": [0, 1.5]}, "exponent"),
    ])
    def test_non_integral_command_fields_exit_two(self, tmp_path, command, key):
        doc = minimal_doc()
        doc["monoids"].update({"Sat2": {"kind": "saturating", "c": 2},
                               "C2": {"kind": "cyclic_group", "k": 2}})
        doc["series"] = {"f": {"ring": "R6", "monoid": "N",
                               "terms": [{"exponent": 0, "coefficient": 2}]}}
        doc["commands"] = [command]
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        assert lines[0]["status"] == "error"
        assert f"'{key}' must be an integer" in lines[0]["payload"]["error"]["message"]

    @pytest.mark.parametrize("member", [99, -1, 2**63])
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_submodule_member_outside_module_exit_two(self, tmp_path, subcommand, member):
        # each member is range-checked before its bit is set, as a generator is
        doc = minimal_doc(submodules={"BAD": {"module": "M6", "members": [0, member]}})
        code, lines = self.run_cli(subcommand, write_session(tmp_path, doc))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert f"member {member} outside Z/6" in error["message"]
        assert "'BAD'" in error["message"]

    def test_malformed_command_arguments_exit_two(self, tmp_path):
        # a window that is not a list reaches the verifier as an int; the
        # TypeError becomes an error record, not a traceback
        doc = minimal_doc()
        doc["commands"] = [{"op": "verify", "statement": "mccoy_equivalence", "ring": "R6",
                            "module": "M6", "monoid": "N", "window": 5}]
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        assert lines[0]["status"] == "error"
        error = lines[0]["payload"]["error"]
        assert error["type"] == "TypeError"
        assert error["message"].startswith("malformed command arguments")

    def test_negative_window_exponent_outside_free_monoid_exit_two(self, tmp_path):
        doc = minimal_doc()
        doc["commands"] = [{"op": "verify", "statement": "mccoy_equivalence", "ring": "R6",
                            "module": "M6", "monoid": "N", "window": [-1, 0]}]
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        assert lines[0]["status"] == "error"
        assert "outside N^1" in lines[0]["payload"]["error"]["message"]

    def test_negative_series_exponent_outside_free_monoid_exit_two(self, tmp_path):
        doc = minimal_doc()
        doc["series"] = {"BAD": {"ring": "R6", "monoid": "N",
                                 "terms": [{"exponent": -1, "coefficient": 1}]}}
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        assert lines[0]["error"]["type"] == "SessionError"
        assert "outside monoid N^1" in lines[0]["error"]["message"]


# small session documents for the exit-code fuzz test: every command op over
# Z/6 and Z/4, with a budget that keeps any verifier small, and Z/2 as explicit
# tables so the fuzz reaches table entries
FUZZ_BASE = {
    "settings": {"budget": 20000},
    "rings": {"R6": {"kind": "zmod", "n": 6}, "R4": {"kind": "zmod", "n": 4},
              "T2": {"kind": "tables", "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]],
                     "zero": 0, "one": 1}},
    "monoids": {"N": {"kind": "free", "dim": 1}, "C2": {"kind": "cyclic_group", "k": 2},
                "Sat2": {"kind": "saturating", "c": 2},
                "C2T": {"kind": "table", "cayley": [[0, 1], [1, 0]], "identity": 0}},
    "modules": {"M6": {"kind": "ring_as_module", "ring": "R6"},
                "M4": {"kind": "ring_as_module", "ring": "R4"},
                "MT2": {"kind": "tables", "ring": "T2", "add": [[0, 1], [1, 0]],
                        "action": [[0, 0], [0, 1]], "zero": 0}},
    "submodules": {"P3": {"module": "M6", "gens": [3]},
                   "P2": {"module": "M6", "members": [0, 2, 4]}},
    # f*g = 0, so the mccoy command has a witness to find
    "series": {"f": {"ring": "R6", "monoid": "N",
                     "terms": [{"exponent": 0, "coefficient": 2},
                               {"exponent": 1, "coefficient": 2}]},
               "g": {"module": "M6", "monoid": "N",
                     "terms": [{"exponent": 0, "coefficient": 3}]}},
}
FUZZ_COMMANDS = [
    {"op": "analyze", "module": "M6"},
    {"op": "dm", "f": "f", "g": "g", "cap": 4},
    {"op": "mccoy", "f": "f", "g": "g"},
    {"op": "zdtest", "f": "f", "module": "M6"},
    {"op": "counterexample", "kind": "noncancellative", "monoid": "Sat2", "module": "M6",
     "q": 1},
    {"op": "counterexample", "kind": "torsion", "monoid": "C2", "module": "M6", "q": 1,
     "s": 1, "t": 0},
    {"op": "counterexample", "kind": "torsion", "monoid": "C2", "module": "M6", "q": 1},
    {"op": "verify", "statement": "mccoy_equivalence", "ring": "R6", "module": "M6",
     "monoid": "N", "window": [0, 1], "max_support": 2},
    {"op": "verify", "statement": "domain_prime_extension", "ring": "R6", "module": "M6",
     "monoid": "N", "window": [0, 1]},
    {"op": "verify", "statement": "submodule_transfer", "submodule": "P3", "monoid": "N",
     "window": [0, 1]},
    {"op": "verify", "statement": "submodule_transfer", "submodule": "P2", "monoid": "N",
     "window": [0, 1]},
    {"op": "verify", "statement": "regularity_transfer", "ring": "R6", "module": "M6",
     "monoid": "N", "window": [0, 1]},
    {"op": "verify", "statement": "zero_divisor_transfer", "ring": "R6", "module": "M6",
     "monoid": "N", "window": [0, 1]},
    {"op": "verify", "statement": "finite_ring_chain", "ring": "R6"},
]
FUZZ_COMMAND_KEYS = ["op", "statement", "kind", "ring", "module", "monoid", "submodule",
                     "f", "g", "window", "max_support", "cap", "q", "s", "t", "witness"]
# integer fields of the definitions, as paths into the document; content is
# memoized on the coefficients, so every coefficient and exponent is one
FUZZ_DOC_FIELDS = [("settings", "budget"), ("submodules", "P3", "gens", 0),
                   ("submodules", "P2", "members", 0), ("submodules", "P2", "members", 1),
                   ("submodules", "P2", "members", 2),
                   ("series", "f", "terms", 0, "coefficient"),
                   ("series", "f", "terms", 0, "exponent"),
                   ("series", "f", "terms", 1, "coefficient"),
                   ("series", "f", "terms", 1, "exponent"),
                   ("series", "g", "terms", 0, "coefficient"),
                   ("series", "g", "terms", 0, "exponent"),
                   ("rings", "T2", "add", 1, 1), ("rings", "T2", "mul", 1, 1),
                   ("modules", "MT2", "action", 1, 1), ("monoids", "C2T", "cayley", 1, 1)]
FUZZ_WORDS = ["R6", "R4", "M6", "M4", "N", "C2", "Sat2", "P3", "P2", "f", "g", "verify",
              "analyze", "dm", "mccoy", "zdtest", "counterexample", "torsion",
              "noncancellative", "mccoy_equivalence", "finite_ring_chain", ""]
# small integers name real elements; the wide ones overflow int32 and int64
_fuzz_integer = (st.integers(-3, 12) | st.sampled_from([2**31, 2**63, -2**63 - 1])
                 | st.integers())
_fuzz_number = _fuzz_integer | st.floats(-4, 4, allow_nan=False)
FUZZ_VALUES = (_fuzz_number | st.booleans() | st.none() | st.sampled_from(FUZZ_WORDS)
               | st.lists(_fuzz_number | st.booleans(), max_size=3))


def _set_field(doc, path, value):
    *path, leaf = path
    for key in path:
        doc = doc[key]
    doc[leaf] = value


def _fuzz_document(draw):
    """The base document with one to four of the fuzz commands."""
    doc = copy.deepcopy(FUZZ_BASE)
    doc["commands"] = copy.deepcopy(
        draw(st.lists(st.sampled_from(FUZZ_COMMANDS), min_size=1, max_size=4)))
    return doc


@st.composite
def fuzzed_sessions(draw):
    """A fuzz document with one or two command keys mutated."""
    doc = _fuzz_document(draw)
    for _ in range(draw(st.integers(1, 2))):
        command = draw(st.sampled_from(doc["commands"]))
        command[draw(st.sampled_from(FUZZ_COMMAND_KEYS))] = draw(FUZZ_VALUES)
    return doc


@st.composite
def fuzzed_definitions(draw, field):
    """A fuzz document with the given definition field mutated and, half the
    time, one more."""
    doc = _fuzz_document(draw)
    _set_field(doc, field, draw(FUZZ_VALUES))
    if draw(st.booleans()):
        _set_field(doc, draw(st.sampled_from(FUZZ_DOC_FIELDS)), draw(FUZZ_VALUES))
    return doc


def _check_exit_code_contract(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "session.json"
    path.write_text(json.dumps(doc))
    runs = []
    for _ in range(2):
        out = io.StringIO()
        code = main(["run", str(path)], stream=out)
        assert code in (0, 2, 3)
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        runs.append((code, [line["payload_hash"] for line in lines
                            if "payload_hash" in line]))
    assert runs[0] == runs[1]


class TestExitCodeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(doc=fuzzed_sessions())
    def test_mutated_sessions_keep_the_exit_code_contract(self, doc, tmp_path_factory):
        _check_exit_code_contract(doc, tmp_path_factory)

    # a bad definition stops the load before any command runs, so each
    # definition field gets its own examples rather than a share of the above
    @pytest.mark.parametrize("field", FUZZ_DOC_FIELDS, ids=lambda f: "-".join(map(str, f)))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_mutated_definitions_keep_the_exit_code_contract(self, field, data,
                                                             tmp_path_factory):
        _check_exit_code_contract(data.draw(fuzzed_definitions(field)), tmp_path_factory)
