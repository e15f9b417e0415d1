"""Pinned payload hashes: `sgmod run` on the sessions in tests/data must give
exactly the per-record `payload_hash` lists in golden_hashes.json.

The `*_seed11.json` sessions are `perfbench/gen.py --seed 11` output, so every
benchmark workload is pinned on its own inputs. The verify_window and
module_structure sessions are committed; the table_build and command_stream
sessions (about 700 KB) are generated into a temporary directory.

A refactor that keeps behaviour keeps these lists. A deliberate change of a
payload regenerates them and says why in CHANGES.md.
"""

import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest

import sgmod
from sgmod.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
GEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "perfbench", "gen.py")
GENERATED = {"table_build_seed11.json": "table_build",
             "command_stream_seed11.json": "command_stream"}

with open(os.path.join(DATA, "golden_hashes.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("session", sorted(GOLDEN))
def test_payload_hashes_match_pinned(session, tmp_path):
    path = os.path.join(DATA, session)
    if session in GENERATED:
        spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        path = tmp_path / session
        path.write_text(gen.generate(GENERATED[session], 11), encoding="utf-8")
    out = io.StringIO()
    code = main(["run", str(path)], stream=out)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert code == 0
    assert records[-1]["summary"]["errors"] == 0
    assert [r["payload_hash"] for r in records[:-1]] == GOLDEN[session]


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
