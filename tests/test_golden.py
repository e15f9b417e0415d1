"""Pinned payload hashes: `sgmod run` on the sessions in tests/data must give
exactly the per-record `payload_hash` lists in golden_hashes.json.

The two `*_seed11.json` sessions are `perfbench/gen.py --seed 11` output for
the verify_window and module_structure workloads, so the window verifiers are
pinned on the benchmark's own inputs.

A refactor that keeps behaviour keeps these lists. A deliberate change of a
payload regenerates them and says why in CHANGES.md.
"""

import io
import json
import os
import subprocess
import sys

import pytest

import sgmod
from sgmod.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")

with open(os.path.join(DATA, "golden_hashes.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("session", sorted(GOLDEN))
def test_payload_hashes_match_pinned(session):
    out = io.StringIO()
    code = main(["run", os.path.join(DATA, session)], stream=out)
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
