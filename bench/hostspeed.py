"""Times on a shared host, scaled to a fixed reference host speed.

The benchmark runs on shared virtual machines whose speed changes under
it. On the 2-vCPU VM it was written on, the median time of a fixed
pure-Python loop differed by up to 1.6 times between five-second windows
of one 40-second run, and grew 1.65 times over a few hours. The
program's operations followed: eight runs of ``batch-detect`` (seeds
7-14, one after another) spread 31.7% in wall time. Process CPU time
tracks wall time there, so the slowdown is not steal time that CPU time
would leave out.

So while a timed region runs, an interval timer interrupts it every
``INTERVAL_S`` and times one of two fixed reference probes, in turn:
``interpreter_probe`` (dictionary work in the interpreter) and
``sqlite_probe`` (indexed lookups in an in-memory SQLite table). The
samples take about 2% of the region. The region's reported time is its
wall time minus the samples' own time, multiplied by the geometric mean
of each probe's reference time over its median sample: the time the
region would take on a host that runs the probes in their reference
times. Both probes are also sampled just before the region and just
after, so a region shorter than the interval has samples too.

Sampling during the region is what tracks the host: 14 simulations of
one scale-0.25 world varied by a coefficient of 15% in wall time, 16%
when scaled by samples taken only before and after each, and 6% when
scaled by samples taken during it. Two probes track it better than one:
over 355 ``batch-detect`` operations on one world, the logarithm of the
operation's time varied by a standard deviation of 0.178 in wall time,
0.096 scaled by the interpreter probe alone, 0.079 by the SQLite probe
alone, and 0.059 by both (with a 50,000-row table; ``SQLITE_ROWS`` is
smaller to keep the probe's memory small). The interpreter probe slows
down less than the program when the host slows down, and the SQLite
probe more.

The timer's handler restarts interrupted system calls (SA_RESTART), and
runs only in the main thread. The program uses no signals and no
threads, so it cannot tell the samples apart from any other pause.
"""

from __future__ import annotations

import math
import signal
import sqlite3
import statistics
from typing import Any

from repro.obs import clock

#: How often a sample interrupts a timed region.
INTERVAL_S = 0.02

#: Iterations of the interpreter probe's loop.
INTERPRETER_LOOPS = 3000

#: Rows in the SQLite probe's table, and lookups per sample.
SQLITE_ROWS = 20_000
SQLITE_LOOKUPS = 150

#: Each probe's time on the reference host: the interpreter probe's
#: median sample on the host above in a quiet hour, and the SQLite
#: probe's in the same ratio to it as their medians over 1,300 paired
#: samples.
REFERENCE_S = {"interpreter": 0.35e-3, "sqlite": 0.42e-3}


def interpreter_probe() -> None:
    """A fixed, allocation-free piece of interpreter work."""
    counts: dict[int, int] = {}
    for i in range(INTERPRETER_LOOPS):
        counts[i % 97] = counts.get(i % 97, 0) + i


_connection: sqlite3.Connection | None = None
#: Keys looked up by one SQLite probe, spread over the table.
_LOOKUPS = [
    (f"ns{i * 7919 % SQLITE_ROWS:06d}.example.com",) for i in range(SQLITE_LOOKUPS)
]


def _table() -> sqlite3.Connection:
    """The probe's in-memory table, built on first use."""
    global _connection
    if _connection is None:
        _connection = sqlite3.connect(":memory:")
        _connection.execute(
            "CREATE TABLE probe (key TEXT PRIMARY KEY, value INTEGER) WITHOUT ROWID"
        )
        _connection.execute(
            "INSERT INTO probe WITH RECURSIVE n(i) AS "
            f"(SELECT 0 UNION ALL SELECT i + 1 FROM n WHERE i < {SQLITE_ROWS - 1}) "
            "SELECT printf('ns%06d.example.com', i), i FROM n"
        )
    return _connection


def sqlite_probe() -> None:
    """A fixed set of indexed lookups in SQLite's C code."""
    connection = _table()
    for key in _LOOKUPS:
        connection.execute("SELECT value FROM probe WHERE key = ?", key).fetchone()


PROBES = {"interpreter": interpreter_probe, "sqlite": sqlite_probe}


def sample(probe: str) -> float:
    """One timing of ``probe``, in seconds."""
    started = clock.perf_counter()
    PROBES[probe]()
    return clock.perf_counter() - started


class HostSpeed:
    """Times one region in wall seconds and in reference seconds.

    ::

        with HostSpeed() as timing:
            operation()
        timing.wall, timing.scaled
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in PROBES}
        #: Time the samples taken inside the region spent.
        self.inside = 0.0
        #: Time spent sampling before and after the region.
        self.outside = 0.0
        #: Wall time of the region, samples excluded.
        self.wall = 0.0
        #: ``wall`` at the reference host speed.
        self.scaled = 0.0
        self._active = False
        self._ticks = 0
        self._previous: Any = None

    def _sample_all(self) -> None:
        started = clock.perf_counter()
        _table()  # built here, so that no sample includes building it
        for name in PROBES:
            self.samples[name].append(sample(name))
        self.outside += clock.perf_counter() - started

    def _on_alarm(self, _signum: int, _frame: Any) -> None:
        if self._active:
            probe = "sqlite" if self._ticks % 2 else "interpreter"
            self._ticks += 1
            taken = sample(probe)
            self.samples[probe].append(taken)
            self.inside += taken

    def __enter__(self) -> "HostSpeed":
        self._sample_all()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._started = clock.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        elapsed = clock.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self._sample_all()
        self.wall = elapsed - self.inside
        self.scaled = self.wall * self.factor

    @property
    def factor(self) -> float:
        """Reference speed over the host's speed during the region."""
        return math.exp(
            statistics.fmean(
                math.log(REFERENCE_S[name] / statistics.median(taken))
                for name, taken in self.samples.items()
            )
        )
