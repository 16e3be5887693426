"""Pinned simulator outputs: the bytes ``riskybiz simulate`` must keep writing.

The digests below were computed by the simulator this code replaced,
which re-checked every name its zone mirror passed on, looked registries
up by scanning them and let the cyclic collector run throughout. Making
the simulator cheaper must not change one byte it hands downstream: the
dataset's rows, the WHOIS archive and the ``--world-json`` dump.

The dataset is pinned by its rows, not by the file's SHA-256: SQLite's
page layout can differ between library versions, the rows cannot.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3

import pytest

from repro.cli import main

SEED = 2021
SCALE = 0.05

#: Each dataset table's rows, in a fixed order (deltas in ``seq`` order).
QUERIES = {
    "pairs": "SELECT id, domain, ns, start, end FROM pairs ORDER BY id",
    "presence": "SELECT id, kind, key, start, end FROM presence ORDER BY id",
    "deltas": "SELECT seq, batch_day, kind, day, name, ns FROM deltas ORDER BY seq",
    "meta": "SELECT key, value FROM meta ORDER BY key",
}

#: SHA-256 of each table's rows (one JSON array per line) and of each file.
PINS = {
    "pairs": "34fbbaf418704fc9bc39f344722b589d0a596c98468cc641ff96a0934523befa",
    "presence": "a03d21e5580f02672f96c574cc12186e938a80cee8b6b994e4109ca22764da2b",
    "deltas": "070edf454bd5b21f09b2bb618a3b0b5ead72296766aae9a2408b3f2e531f7976",
    "meta": "32ac55c863428a5b997e8fe9eaef77f45a682e4acd08c00b4e5ba8388c3e35ab",
    "whois.jsonl": "aa0bbb517d200bf21f0c93282d9c3ab5dc529b6b9fe50c6bf13af96dfe7bcca3",
    "world.json": "4e4c66370a17fb4b27bb9b6be88f313c324dcc257b406753ac20e8453ba382c7",
}


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The directory ``riskybiz simulate`` wrote for the pinned world."""
    out = tmp_path_factory.mktemp("pinned-world")
    assert main([
        "simulate", "--seed", str(SEED), "--scale", str(SCALE),
        "--out", str(out), "--world-json", str(out / "world.json"),
    ]) == 0
    return out


@pytest.mark.parametrize("table", sorted(QUERIES))
def test_dataset_rows_are_pinned(simulated, table):
    path = simulated / "dataset.sqlite"
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        digest = hashlib.sha256()
        for row in conn.execute(QUERIES[table]):
            digest.update(json.dumps(row).encode() + b"\n")
    finally:
        conn.close()
    assert digest.hexdigest() == PINS[table]


@pytest.mark.parametrize("name", ["whois.jsonl", "world.json"])
def test_file_bytes_are_pinned(simulated, name):
    assert hashlib.sha256((simulated / name).read_bytes()).hexdigest() == PINS[name]
