import copy
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmod import SessionError, dump_session, execute, load_session
from sgmod.cli import exit_code_for, main, payload_hash

DEMO = os.path.join(os.path.dirname(__file__), "data", "demo_session.json")


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


class TestRoundTrip:
    def test_dump_and_reload_structurally_identical(self):
        session = load_session(DEMO)
        dumped = dump_session(session)
        import json as _json
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            _json.dump(dumped, fh)
            path = fh.name
        reloaded = load_session(path)
        os.unlink(path)
        for name, ring in session.rings.items():
            other = reloaded.rings[name]
            assert np.array_equal(ring.add_table, other.add_table)
            assert np.array_equal(ring.mul_table, other.mul_table)
            assert (ring.zero, ring.one) == (other.zero, other.one)
        for name, module in session.modules.items():
            other = reloaded.modules[name]
            assert np.array_equal(module.add_table, other.add_table)
            assert np.array_equal(module.action_table, other.action_table)
        for name, sub in session.submodules.items():
            assert sub.members == reloaded.submodules[name].members
        for name, series in session.series.items():
            assert series.terms == reloaded.series[name].terms
        for name, monoid in session.monoids.items():
            other = reloaded.monoids[name]
            assert monoid.kind == other.kind


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

    def test_counterexample_auto_witness(self):
        session = load_session(DEMO)
        record = execute(session, {"op": "counterexample", "kind": "noncancellative",
                                   "monoid": "Sat2", "module": "M6", "q": 2})
        assert record["status"] == "ok"
        assert record["payload"]["witness"] == [2, 0, 1]

    def test_verify_budget_skip(self):
        session = load_session(DEMO)
        record = execute(session, {"op": "verify", "statement": "mccoy_equivalence",
                                   "ring": "R6", "module": "M6", "monoid": "N",
                                   "window": [0, 1, 2]}, budget=50)
        assert record["payload"]["outcome"] == "skipped"


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
        doc = minimal_doc(settings={"ring_cap": 4})
        doc["rings"] = {"R5": _z5_tables()}
        doc["modules"] = {}
        doc["commands"] = []
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        assert "ring size 5 exceeds cap" in lines[0]["error"]["message"]
        assert audited == []

    def test_tables_ring_within_cap_is_audited(self, tmp_path, audited):
        doc = minimal_doc(settings={"ring_cap": 5})
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
        doc = minimal_doc(settings={"module_cap": 10})
        doc["rings"]["R4"] = {"kind": "zmod", "n": 4}
        doc["modules"]["M4"] = {"kind": "ring_as_module", "ring": "R4"}
        doc["modules"]["S"] = {"kind": "direct_sum", "left": "M4", "right": "M4"}
        code, lines = self.run_cli("run", write_session(tmp_path, doc))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert "module size 4 * 4 = 16 exceeds cap 10" in error["message"]
        assert "module 'S'" in error["message"]

    @pytest.mark.parametrize("settings", [
        {"budget": "lots"},
        {"budget": 1e7},
        {"zmod_cap": 6.5},
        {"ring_cap": True},
        {"module_cap": 6.9},
    ])
    def test_non_integral_settings_exit_two(self, tmp_path, settings):
        code, lines = self.run_cli("run", write_session(tmp_path, minimal_doc(settings=settings)))
        assert code == 2
        error = lines[0]["error"]
        assert error["type"] == "SessionError"
        assert f"'{next(iter(settings))}' must be an integer" in error["message"]

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
# integer fields of the definitions, as paths into the document
FUZZ_DOC_FIELDS = [("settings", "budget"), ("submodules", "P3", "gens", 0),
                   ("submodules", "P2", "members", 0), ("submodules", "P2", "members", 1),
                   ("submodules", "P2", "members", 2),
                   ("series", "f", "terms", 0, "coefficient"),
                   ("series", "f", "terms", 1, "exponent"),
                   ("series", "g", "terms", 0, "coefficient"),
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


@st.composite
def fuzzed_sessions(draw):
    doc = copy.deepcopy(FUZZ_BASE)
    doc["commands"] = copy.deepcopy(
        draw(st.lists(st.sampled_from(FUZZ_COMMANDS), min_size=1, max_size=4)))
    for _ in range(draw(st.integers(1, 2))):
        # a bad definition stops the load, so most mutations go to commands
        if draw(st.integers(0, 3)):
            command = draw(st.sampled_from(doc["commands"]))
            command[draw(st.sampled_from(FUZZ_COMMAND_KEYS))] = draw(FUZZ_VALUES)
        else:
            *path, leaf = draw(st.sampled_from(FUZZ_DOC_FIELDS))
            target = doc
            for key in path:
                target = target[key]
            target[leaf] = draw(FUZZ_VALUES)
    return doc


class TestExitCodeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(doc=fuzzed_sessions())
    def test_mutated_sessions_keep_the_exit_code_contract(self, doc, tmp_path_factory):
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
