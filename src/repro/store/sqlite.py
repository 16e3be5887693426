"""The SQLite-backed delegation store: on-disk, restartable datasets.

Schema (one file per dataset)::

    meta(key TEXT PRIMARY KEY, value TEXT)
    pairs(domain TEXT, ns TEXT, start INTEGER, end INTEGER)   -- end NULL = open
    presence(kind TEXT, key TEXT, start INTEGER, end INTEGER)

Open intervals and current NS sets are cached in memory, scanned from
the file on the first call that needs them (a read-only open pays
nothing), so the write path does not pay a SELECT per change; writes
run in batched transactions committed by :meth:`flush`/:meth:`close`.
Whole tables move in one statement each: the record passes read one
ordered scan of ``pairs``, and :func:`write_tables` loads a new dataset.

Query iteration orders are sorted (SQLite has no useful insertion
order), which is safe because every pipeline output that order could
reach is explicitly sorted before being returned.

File-backed stores open in WAL mode with ``synchronous=NORMAL``: a
killed writer can lose its open transaction but can never corrupt the
database file, and readers are never blocked mid-checkpoint. Closing
truncates the WAL back into the main file so a closed dataset is one
self-contained, checksummable file. In-memory stores keep
``synchronous=OFF`` (there is nothing to make durable).

A store opened with ``read_only=True`` connects with SQLite's
``mode=ro``: every write fails with ``attempt to write a readonly
database`` and the file's bytes cannot change. SQLite may leave its
(empty) ``-wal``/``-shm`` sidecars beside a file read that way.
"""

from __future__ import annotations

import sqlite3
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.obs import clock
from repro.obs import runtime as obs
from repro.simtime import Interval
from repro.store.base import DelegationRecord, dispatch_delta
from repro.store.changelog import DeltaEvent

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS pairs (
    id INTEGER PRIMARY KEY,
    domain TEXT NOT NULL,
    ns TEXT NOT NULL,
    start INTEGER NOT NULL,
    end INTEGER
);
CREATE TABLE IF NOT EXISTS presence (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    start INTEGER NOT NULL,
    end INTEGER
);
CREATE TABLE IF NOT EXISTS deltas (
    seq INTEGER PRIMARY KEY,
    batch_day INTEGER NOT NULL,
    kind TEXT NOT NULL,
    day INTEGER NOT NULL,
    name TEXT NOT NULL,
    ns TEXT
);
"""

_INDEXES = (
    "CREATE INDEX IF NOT EXISTS pairs_domain ON pairs (domain)",
    "CREATE INDEX IF NOT EXISTS pairs_ns ON pairs (ns)",
    "CREATE INDEX IF NOT EXISTS presence_key ON presence (kind, key)",
    "CREATE INDEX IF NOT EXISTS deltas_batch ON deltas (batch_day)",
)

_SCHEMA = _TABLES + "".join(f"{index};\n" for index in _INDEXES)

#: One INSERT per table, in the column order :func:`write_tables` takes.
_INSERTS = {
    "pairs": "INSERT INTO pairs (domain, ns, start, end) VALUES (?, ?, ?, ?)",
    "presence": "INSERT INTO presence (kind, key, start, end) VALUES (?, ?, ?, ?)",
    "deltas": "INSERT INTO deltas (batch_day, kind, day, name, ns) "
    "VALUES (?, ?, ?, ?, ?)",
    "meta": "INSERT INTO meta (key, value) VALUES (?, ?)",
}

#: Commit at most this many buffered writes per transaction.
_TXN_BATCH = 50_000


class SqliteDelegationStore:
    """On-disk backend implementing the :class:`DelegationStore` protocol."""

    backend_name = "sqlite"

    def __init__(
        self, path: str | Path = ":memory:", *, read_only: bool = False
    ) -> None:
        self.path = str(path)
        self.on_disk = self.path != ":memory:"
        if read_only:
            self._conn = sqlite3.connect(
                Path(path).resolve().as_uri() + "?mode=ro", uri=True
            )
        else:
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
        # Instruments are cached as attributes: the write path runs per
        # delegation change and must not pay a registry lookup each time.
        self._write_timer = obs.histogram("sqlite.write.duration_s")
        self._commit_timer = obs.histogram("sqlite.txn_commit.duration_s")
        self._query_timer = obs.histogram("sqlite.ns_records.duration_s")
        self._pass_timer = obs.histogram("sqlite.record_pass.duration_s")
        self._write_count = obs.counter("sqlite.writes")
        self._commit_count = obs.counter("sqlite.commits")
        self._query_count = obs.counter("sqlite.ns_records_queries")
        self._pass_count = obs.counter("sqlite.record_passes")

    # -- write caches, scanned on first use --------------------------------

    @cached_property
    def _open_pairs(
        self,
    ) -> tuple[dict[tuple[str, str], tuple[int, int]], dict[str, set[str]]]:
        """(domain, ns) -> (rowid, start) of each open pair row, and each
        domain's current NS set, both in row order.

        Built together on the first call that needs either, before that
        call changes anything, so the current-domain order matches a
        store that never closed.
        """
        open_rows: dict[tuple[str, str], tuple[int, int]] = {}
        current: dict[str, set[str]] = {}
        for rowid, domain, ns, start in self._conn.execute(
            "SELECT id, domain, ns, start FROM pairs WHERE end IS NULL"
        ):
            open_rows[(domain, ns)] = (rowid, start)
            current.setdefault(domain, set()).add(ns)
        return open_rows, current

    @cached_property
    def _open_presence(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(kind, key) -> (rowid, start) of each open presence row."""
        return {
            (kind, key): (rowid, start)
            for rowid, kind, key, start in self._conn.execute(
                "SELECT id, kind, key, start FROM presence WHERE end IS NULL"
            )
        }

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
        open_rows, current = self._open_pairs
        cursor = self._write(
            "INSERT INTO pairs (domain, ns, start, end) VALUES (?, ?, ?, NULL)",
            (domain, ns, day),
        )
        open_rows[(domain, ns)] = (cursor.lastrowid or 0, day)
        current.setdefault(domain, set()).add(ns)

    def close_pair(self, domain: str, ns: str, day: int) -> None:
        open_rows, current = self._open_pairs
        entry = open_rows.pop((domain, ns), None)
        if entry is None:
            return
        rowid, start = entry
        remaining = current.get(domain)
        if remaining is not None:
            remaining.discard(ns)
            if not remaining:
                del current[domain]
        if day <= start:
            # Same-day add/remove: invisible at daily granularity.
            self._write("DELETE FROM pairs WHERE id = ?", (rowid,))
            return
        self._write("UPDATE pairs SET end = ? WHERE id = ?", (day, rowid))

    def current_nameservers(self, domain: str) -> frozenset[str]:
        return frozenset(self._open_pairs[1].get(domain, ()))

    def current_domains(self, suffix: str | None = None) -> list[str]:
        current = self._open_pairs[1]
        if suffix is None:
            return list(current)
        return [domain for domain in current if domain.endswith(suffix)]

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

    def iter_ns_records(self) -> Iterator[tuple[str, list[DelegationRecord]]]:
        return self._record_pass(
            "SELECT domain, ns, start, end FROM pairs "
            "ORDER BY ns, start, domain, id",
            itemgetter(1),
        )

    def iter_domain_records(self) -> Iterator[tuple[str, list[DelegationRecord]]]:
        return self._record_pass(
            "SELECT domain, ns, start, end FROM pairs "
            "ORDER BY domain, start, ns, id",
            itemgetter(0),
        )

    def _record_pass(
        self, sql: str, key: Callable[[tuple], str]
    ) -> Iterator[tuple[str, list[DelegationRecord]]]:
        """Group one ordered scan of ``pairs`` into per-name record lists.

        The rows stream from the cursor; only the current group is held.
        The duration histogram times the pass itself, not its consumer.
        """
        self._pass_count.inc()
        busy = 0.0
        try:
            mark = clock.perf_counter()
            for name, rows in groupby(self._conn.execute(sql), key=key):
                records = [DelegationRecord(*row) for row in rows]
                busy += clock.perf_counter() - mark
                yield name, records
                mark = clock.perf_counter()
            busy += clock.perf_counter() - mark
        finally:
            self._pass_timer.observe(busy)

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
            _INSERTS["deltas"],
            (batch_day, event.kind, event.day, event.name, event.ns),
        )

    def delta_count(self) -> int:
        """Number of recorded deltas (counted, not materialised)."""
        return self.delta_stats(None)[0]

    def delta_stats(
        self, day: int | None, until: int | None = None
    ) -> tuple[int, int]:
        where, params = _batch_window(day, until)
        count, days = self._conn.execute(
            f"SELECT COUNT(*), COUNT(DISTINCT batch_day) FROM deltas{where}",
            params,
        ).fetchone()
        return int(count), int(days)

    def last_batch_day(
        self, day: int | None = None, until: int | None = None
    ) -> int | None:
        # One seek on the batch-day index, unlike the counts above.
        where, params = _batch_window(day, until)
        row = self._conn.execute(
            f"SELECT MAX(batch_day) FROM deltas{where}", params
        ).fetchone()
        return row[0]

    def deltas_since(
        self, day: int | None, until: int | None = None
    ) -> list[tuple[int, DeltaEvent]]:
        where, params = _batch_window(day, until)
        rows = self._conn.execute(
            f"SELECT batch_day, kind, day, name, ns FROM deltas{where} "
            "ORDER BY seq",
            params,
        )
        # Rows are not checked here: replay refuses a malformed one.
        return [
            (int(batch_day), DeltaEvent(kind, d, name, ns))
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


def _batch_window(day: int | None, until: int | None) -> tuple[str, list[int]]:
    """The ``WHERE`` clause and parameters for ``day < batch_day <= until``."""
    clauses: list[str] = []
    params: list[int] = []
    if day is not None:
        clauses.append("batch_day > ?")
        params.append(day)
    if until is not None:
        clauses.append("batch_day <= ?")
        params.append(until)
    return (f" WHERE {' AND '.join(clauses)}" if clauses else ""), params


def write_tables(
    path: str | Path,
    *,
    pairs: Iterable[tuple[str, str, int, int | None]],
    presence: Iterable[tuple[str, str, int, int | None]],
    deltas: Iterable[tuple[int, str, int, str, str | None]],
    meta: Iterable[tuple[str, str]],
) -> dict[str, int]:
    """Load a new dataset file a table at a time; returns rows per table.

    Each table streams in through one ``executemany`` inside one
    transaction, and the indexes are built once the rows are in. The
    load keeps no rollback journal and does not sync: the file is a
    private temporary that a killed writer never publishes, and the
    caller fsyncs it once it is closed. It ends in WAL mode, the mode
    :class:`SqliteDelegationStore` opens it in, so a later open leaves
    its bytes alone.
    """
    write_timer = obs.histogram("sqlite.write.duration_s")
    write_count = obs.counter("sqlite.writes")
    conn = sqlite3.connect(str(path), isolation_level=None)
    try:
        conn.execute("PRAGMA journal_mode=OFF")
        conn.execute("PRAGMA synchronous=OFF")
        conn.executescript(_TABLES)
        conn.execute("BEGIN")
        counts: dict[str, int] = {}
        for table, rows in (
            ("pairs", pairs),
            ("presence", presence),
            ("deltas", deltas),
            ("meta", meta),
        ):
            started = clock.perf_counter()
            counts[table] = conn.executemany(_INSERTS[table], rows).rowcount
            write_count.inc(counts[table])
            write_timer.observe(clock.perf_counter() - started)
        for sql in _INDEXES:
            conn.execute(sql)
        started = clock.perf_counter()
        conn.execute("COMMIT")
        obs.counter("sqlite.commits").inc()
        obs.histogram("sqlite.txn_commit.duration_s").observe(
            clock.perf_counter() - started
        )
        conn.execute("PRAGMA journal_mode=WAL")
    finally:
        conn.close()
    return counts
