"""Pinned payload hashes: `sgmod run` on the sessions in tests/data must give
exactly the per-record `payload_hash` lists in golden_hashes.json.

A refactor that keeps behaviour keeps these lists. A deliberate change of a
payload regenerates them and says why in CHANGES.md.
"""

import io
import json
import os

import pytest

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
