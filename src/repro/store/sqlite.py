"""The SQLite-backed delegation store: on-disk, restartable datasets.

Schema (one file per dataset)::

    meta(key TEXT PRIMARY KEY, value TEXT)
    pairs(domain TEXT, ns TEXT, start INTEGER, end INTEGER)   -- end NULL = open
    presence(kind TEXT, key TEXT, start INTEGER, end INTEGER)

Open intervals and current NS sets are cached in memory (rebuilt from
the file on open) so the write path does not pay a SELECT per change;
writes run in batched transactions committed by :meth:`flush`/:meth:`close`.

Query iteration orders are sorted (SQLite has no useful insertion
order), which is safe because every pipeline output that order could
reach is explicitly sorted before being returned.

File-backed stores open in WAL mode with ``synchronous=NORMAL``: a
killed writer can lose its open transaction but can never corrupt the
database file, and readers are never blocked mid-checkpoint. Closing
truncates the WAL back into the main file so a closed dataset is one
self-contained, checksummable file. In-memory stores keep
``synchronous=OFF`` (there is nothing to make durable).
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Iterator

from repro.obs import clock
from repro.obs import runtime as obs
from repro.simtime import Interval
from repro.store.base import DelegationRecord, dispatch_delta
from repro.store.changelog import DeltaEvent

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS pairs (
    id INTEGER PRIMARY KEY,
    domain TEXT NOT NULL,
    ns TEXT NOT NULL,
    start INTEGER NOT NULL,
    end INTEGER
);
CREATE INDEX IF NOT EXISTS pairs_domain ON pairs (domain);
CREATE INDEX IF NOT EXISTS pairs_ns ON pairs (ns);
CREATE TABLE IF NOT EXISTS presence (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    start INTEGER NOT NULL,
    end INTEGER
);
CREATE INDEX IF NOT EXISTS presence_key ON presence (kind, key);
CREATE TABLE IF NOT EXISTS deltas (
    seq INTEGER PRIMARY KEY,
    batch_day INTEGER NOT NULL,
    kind TEXT NOT NULL,
    day INTEGER NOT NULL,
    name TEXT NOT NULL,
    ns TEXT
);
CREATE INDEX IF NOT EXISTS deltas_batch ON deltas (batch_day);
"""

#: Commit at most this many buffered writes per transaction.
_TXN_BATCH = 50_000


class SqliteDelegationStore:
    """On-disk backend implementing the :class:`DelegationStore` protocol."""

    backend_name = "sqlite"

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self.on_disk = self.path != ":memory:"
        self._conn = sqlite3.connect(self.path)
        self._conn.isolation_level = None  # explicit transaction control
        if self.on_disk:
            # Crash safety: WAL never corrupts the main file on a kill,
            # and NORMAL syncs at checkpoint boundaries (durable enough
            # under WAL; OFF would trade integrity for speed).
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        else:
            self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.executescript(_SCHEMA)
        self._in_txn = False
        self._txn_writes = 0
        #: (domain, ns) -> rowid of the open pair row.
        self._open_rows: dict[tuple[str, str], tuple[int, int]] = {}
        self._current: dict[str, set[str]] = {}
        #: (kind, key) -> (rowid, start) of the open presence row.
        self._open_presence: dict[tuple[str, str], tuple[int, int]] = {}
        # Instruments are cached as attributes: the write path runs per
        # delegation change and must not pay a registry lookup each time.
        self._write_timer = obs.histogram("sqlite.write.duration_s")
        self._commit_timer = obs.histogram("sqlite.txn_commit.duration_s")
        self._query_timer = obs.histogram("sqlite.ns_records.duration_s")
        self._write_count = obs.counter("sqlite.writes")
        self._commit_count = obs.counter("sqlite.commits")
        self._query_count = obs.counter("sqlite.ns_records_queries")
        self._rebuild_open_caches()

    def _rebuild_open_caches(self) -> None:
        for rowid, domain, ns, start in self._conn.execute(
            "SELECT id, domain, ns, start FROM pairs WHERE end IS NULL"
        ):
            self._open_rows[(domain, ns)] = (rowid, start)
            self._current.setdefault(domain, set()).add(ns)
        for rowid, kind, key, start in self._conn.execute(
            "SELECT id, kind, key, start FROM presence WHERE end IS NULL"
        ):
            self._open_presence[(kind, key)] = (rowid, start)

    # -- transaction batching ----------------------------------------------

    def _write(self, sql: str, params: tuple) -> sqlite3.Cursor:
        started = clock.perf_counter()
        if not self._in_txn:
            self._conn.execute("BEGIN")
            self._in_txn = True
        cursor = self._conn.execute(sql, params)
        self._txn_writes += 1
        self._write_count.inc()
        self._write_timer.observe(clock.perf_counter() - started)
        if self._txn_writes >= _TXN_BATCH:
            self._commit()
        return cursor

    def _commit(self) -> None:
        if self._in_txn:
            started = clock.perf_counter()
            self._conn.execute("COMMIT")
            self._in_txn = False
            self._txn_writes = 0
            self._commit_count.inc()
            self._commit_timer.observe(clock.perf_counter() - started)

    # -- pair intervals ----------------------------------------------------

    def open_pair(self, domain: str, ns: str, day: int) -> None:
        cursor = self._write(
            "INSERT INTO pairs (domain, ns, start, end) VALUES (?, ?, ?, NULL)",
            (domain, ns, day),
        )
        self._open_rows[(domain, ns)] = (cursor.lastrowid or 0, day)
        self._current.setdefault(domain, set()).add(ns)

    def close_pair(self, domain: str, ns: str, day: int) -> None:
        entry = self._open_rows.pop((domain, ns), None)
        if entry is None:
            return
        rowid, start = entry
        current = self._current.get(domain)
        if current is not None:
            current.discard(ns)
            if not current:
                del self._current[domain]
        if day <= start:
            # Same-day add/remove: invisible at daily granularity.
            self._write("DELETE FROM pairs WHERE id = ?", (rowid,))
            return
        self._write("UPDATE pairs SET end = ? WHERE id = ?", (day, rowid))

    def add_record(self, domain: str, ns: str, start: int, end: int | None) -> None:
        cursor = self._write(
            "INSERT INTO pairs (domain, ns, start, end) VALUES (?, ?, ?, ?)",
            (domain, ns, start, end),
        )
        if end is None:
            self._open_rows[(domain, ns)] = (cursor.lastrowid or 0, start)
            self._current.setdefault(domain, set()).add(ns)

    def current_nameservers(self, domain: str) -> frozenset[str]:
        return frozenset(self._current.get(domain, ()))

    def current_domains(self, suffix: str | None = None) -> list[str]:
        if suffix is None:
            return list(self._current)
        return [domain for domain in self._current if domain.endswith(suffix)]

    # -- pair queries ------------------------------------------------------

    def all_nameservers(self) -> Iterator[str]:
        for (ns,) in self._conn.execute(
            "SELECT DISTINCT ns FROM pairs ORDER BY ns"
        ):
            yield ns

    def all_domains(self) -> Iterator[str]:
        for (domain,) in self._conn.execute(
            "SELECT DISTINCT domain FROM pairs ORDER BY domain"
        ):
            yield domain

    def nameserver_count(self) -> int:
        row = self._conn.execute("SELECT COUNT(DISTINCT ns) FROM pairs").fetchone()
        return int(row[0])

    def domain_count(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(DISTINCT domain) FROM pairs"
        ).fetchone()
        return int(row[0])

    def ns_records(self, ns: str) -> list[DelegationRecord]:
        started = clock.perf_counter()
        records = [
            DelegationRecord(domain, ns, start, end)
            for domain, start, end in self._conn.execute(
                "SELECT domain, start, end FROM pairs WHERE ns = ? "
                "ORDER BY start, domain, id",
                (ns,),
            )
        ]
        self._query_count.inc()
        self._query_timer.observe(clock.perf_counter() - started)
        return records

    def domain_records(self, domain: str) -> list[DelegationRecord]:
        return [
            DelegationRecord(domain, ns, start, end)
            for ns, start, end in self._conn.execute(
                "SELECT ns, start, end FROM pairs WHERE domain = ? "
                "ORDER BY start, ns, id",
                (domain,),
            )
        ]

    def domains_in_tld(self, tld: str) -> list[str]:
        suffix = "." + tld
        return [
            domain
            for (domain,) in self._conn.execute(
                "SELECT DISTINCT domain FROM pairs WHERE domain LIKE ? "
                "ORDER BY domain",
                ("%" + suffix,),
            )
            if domain.endswith(suffix)
        ]

    def partitions(self) -> list[str]:
        return sorted(
            {domain.rsplit(".", 1)[-1] for domain in self.all_domains()}
        )

    # -- presence histories ------------------------------------------------

    def open_presence(self, kind: str, key: str, day: int) -> None:
        if (kind, key) in self._open_presence:
            return
        cursor = self._write(
            "INSERT INTO presence (kind, key, start, end) VALUES (?, ?, ?, NULL)",
            (kind, key, day),
        )
        self._open_presence[(kind, key)] = (cursor.lastrowid or 0, day)

    def close_presence(self, kind: str, key: str, day: int) -> None:
        entry = self._open_presence.pop((kind, key), None)
        if entry is None:
            return
        rowid, start = entry
        if day <= start:
            self._write("DELETE FROM presence WHERE id = ?", (rowid,))
            return
        self._write("UPDATE presence SET end = ? WHERE id = ?", (day, rowid))

    def add_presence(self, kind: str, key: str, start: int, end: int | None) -> None:
        cursor = self._write(
            "INSERT INTO presence (kind, key, start, end) VALUES (?, ?, ?, ?)",
            (kind, key, start, end),
        )
        if end is None:
            self._open_presence[(kind, key)] = (cursor.lastrowid or 0, start)

    def presence_contains(self, kind: str, key: str, day: int) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM presence WHERE kind = ? AND key = ? AND start <= ? "
            "AND (end IS NULL OR end > ?) LIMIT 1",
            (kind, key, day, day),
        ).fetchone()
        return row is not None

    def presence_intervals(self, kind: str, key: str) -> list[Interval]:
        return [
            Interval(start, end)
            for start, end in self._conn.execute(
                "SELECT start, end FROM presence WHERE kind = ? AND key = ? "
                "ORDER BY start, id",
                (kind, key),
            )
        ]

    def presence_keys(self, kind: str) -> Iterator[str]:
        for (key,) in self._conn.execute(
            "SELECT DISTINCT key FROM presence WHERE kind = ? ORDER BY key",
            (kind,),
        ):
            yield key

    def presence_open(self, kind: str, key: str) -> bool:
        return (kind, key) in self._open_presence

    # -- delta tracking ----------------------------------------------------

    def apply_delta(self, event: DeltaEvent, batch_day: int) -> None:
        self.record_delta(event, batch_day)
        dispatch_delta(self, event)

    def record_delta(self, event: DeltaEvent, batch_day: int) -> None:
        self._write(
            "INSERT INTO deltas (batch_day, kind, day, name, ns) "
            "VALUES (?, ?, ?, ?, ?)",
            (batch_day, event.kind, event.day, event.name, event.ns),
        )

    def deltas_since(
        self, day: int | None, until: int | None = None
    ) -> list[tuple[int, DeltaEvent]]:
        clauses: list[str] = []
        params: list[int] = []
        if day is not None:
            clauses.append("batch_day > ?")
            params.append(day)
        if until is not None:
            clauses.append("batch_day <= ?")
            params.append(until)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT batch_day, kind, day, name, ns FROM deltas{where} "
            "ORDER BY seq",
            params,
        )
        return [
            (int(batch_day), DeltaEvent(kind=kind, day=d, name=name, ns=ns))
            for batch_day, kind, d, name, ns in rows
        ]

    # -- metadata / lifecycle ----------------------------------------------

    def get_meta(self, key: str) -> str | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else str(row[0])

    def set_meta(self, key: str, value: str) -> None:
        self._write(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def flush(self) -> None:
        self._commit()

    def integrity_check(self) -> list[str]:
        """Problems reported by SQLite's own integrity scan (empty = ok)."""
        self._commit()
        rows = self._conn.execute("PRAGMA integrity_check").fetchall()
        problems = [str(row[0]) for row in rows if str(row[0]) != "ok"]
        return problems

    def close(self) -> None:
        self._commit()
        if self.on_disk:
            # Fold the WAL back into the main file and drop the -wal/-shm
            # sidecars, so the dataset is a single checksummable file.
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._conn.close()
