"""Pinned payload hashes: `sgmod run` on the sessions in tests/data must give
exactly the per-record `payload_hash` lists in golden_hashes.json.

The `*_seed11.json` sessions are `perfbench/gen.py --seed 11` output, so every
benchmark workload is pinned on its own inputs. The verify_window and
module_structure sessions are committed; the table_build and command_stream
sessions (about 700 KB) are generated into a temporary directory, and so are
the command_stream sessions of seeds 12 and 13, whose json-lines reports are
pinned as well.

A refactor that keeps behaviour keeps these lists. A deliberate change of a
payload regenerates them and says why in CHANGES.md.
"""

import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys

import pytest

import sgmod
from sgmod.cli import main
from sgmod.session import execute, load_session

DATA = os.path.join(os.path.dirname(__file__), "data")
GEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "perfbench", "gen.py")
# generated session name -> (workload, seed)
GENERATED = {"table_build_seed11.json": ("table_build", 11),
             "command_stream_seed11.json": ("command_stream", 11),
             "command_stream_seed12.json": ("command_stream", 12),
             "command_stream_seed13.json": ("command_stream", 13)}

with open(os.path.join(DATA, "golden_hashes.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


# sha256 of the json-lines report of `sgmod run` with every elapsed_ms value
# replaced by 0; these pin the bytes of the records and the summary line
JSON_LINES = {
    "demo_session.json":
        "a91edb2ef661c2beced2fe09f0834a03315f9ecc4ecc36f29c537ec212b8f7e2",
    "command_stream_seed11.json":
        "ffacc14ada7b31c5ce366e21b481610d55af28942a0bc8e4a3424e7b4e86a583",
    "command_stream_seed12.json":
        "48221eebc8c373320b3c9b430422299004f9ec9229e497abf652fe47038143db",
    "command_stream_seed13.json":
        "ec0c43f66515fedda29bdf2f947f9c1e607a1cfa9b13935ccb30363e7a340b04",
}


def _session_path(session, tmp_path):
    """The committed session file, or the generated one for GENERATED names."""
    if session not in GENERATED:
        return os.path.join(DATA, session)
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / session
    path.write_text(gen.generate(*GENERATED[session]), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("session", sorted(GOLDEN))
def test_payload_hashes_match_pinned(session, tmp_path):
    path = _session_path(session, tmp_path)
    out = io.StringIO()
    code = main(["run", str(path)], stream=out)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert code == 0
    assert records[-1]["summary"]["errors"] == 0
    assert [r["payload_hash"] for r in records[:-1]] == GOLDEN[session]


@pytest.mark.parametrize("session", sorted(JSON_LINES))
def test_json_lines_report_matches_pinned(session, tmp_path):
    out = io.StringIO()
    assert main(["run", _session_path(session, tmp_path)], stream=out) == 0
    text = re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', out.getvalue())
    # one record per command, then the summary line
    assert text.count('"elapsed_ms": 0') == len(text.splitlines()) - 1
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == JSON_LINES[session]


JSON_TYPES = (dict, list, str, int, bool, float, type(None))


def _non_json_values(value, path="payload"):
    """(path, type name) of each value or key that is not exactly a JSON type."""
    kind = type(value)
    if kind not in JSON_TYPES:
        return [(path, kind.__name__)]
    bad = []
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                bad.append((f"{path} key {key!r}", type(key).__name__))
            bad += _non_json_values(item, f"{path}.{key}")
    elif kind is list:
        for i, item in enumerate(value):
            bad += _non_json_values(item, f"{path}[{i}]")
    return bad


@pytest.mark.parametrize("session", sorted(GOLDEN))
def test_payloads_are_json_native(session, tmp_path):
    # records are encoded as execute returns them, so a tuple would only
    # happen to encode as a list, and a numpy scalar would make the encoder
    # raise TypeError outside every error handler
    loaded = load_session(_session_path(session, tmp_path))
    for i, command in enumerate(loaded.commands):
        payload = execute(loaded, command)["payload"]
        assert _non_json_values(payload) == [], (i, command)


def test_window_session_does_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma on its first call, about 17 ms per
    # process; the library keeps off that path
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgmod.__file__)))
    script = ("import io, sys\n"
              "from sgmod.cli import main\n"
              "code = main(['run', sys.argv[1]], stream=io.StringIO())\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", script,
                          os.path.join(DATA, "verify_window_seed11.json")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]
