"""The delta vocabulary: typed mutations grouped into batch days.

Incremental detection needs to know *what changed* each day, not just
the resulting interval state. Every mutation the zone-database façade
performs is expressed as a typed :class:`DeltaEvent` — delegation pairs
opening and closing, glue appearing and vanishing, domains entering and
leaving their zone, TLDs joining the covered set — grouped into *batch
days*: the ingest day under which the mutation was performed. A batch
day can exceed an event's effective ``day`` (gap-bridge rewrites close
intervals retroactively), which is exactly why consumers key their
progress on batch days: once a batch is processed, no later batch can
change what it said.

The durable log is the store itself: every backend records each event
under its batch day (the SQLite dataset's ``deltas`` table), and
:class:`~repro.store.dataset.DeltaView` reads it back in batches.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple

# -- delta vocabulary --------------------------------------------------------

#: A (domain, ns) interval opened on ``day``.
DELEGATION_ADD = "delegation-add"
#: The open (domain, ns) interval closed on ``day`` (same-day closes
#: annihilate the record, exactly as the store primitives do).
DELEGATION_REMOVE = "delegation-remove"
#: Glue presence opened for host ``name`` on ``day``.
GLUE_ADD = "glue-add"
#: Glue presence closed for host ``name`` on ``day``.
GLUE_REMOVE = "glue-remove"
#: Domain presence opened for ``name`` on ``day``.
DOMAIN_APPEAR = "domain-appear"
#: Domain presence closed for ``name`` on ``day``.
DOMAIN_EXPIRE = "domain-expire"
#: TLD ``name`` joined the covered set on ``day`` (no store mutation —
#: it changes what the resolvability analysis may assess).
TLD_COVER = "tld-cover"

#: Every delta kind, in a stable documentation order.
DELTA_KINDS = (
    DELEGATION_ADD,
    DELEGATION_REMOVE,
    GLUE_ADD,
    GLUE_REMOVE,
    DOMAIN_APPEAR,
    DOMAIN_EXPIRE,
    TLD_COVER,
)

#: Kinds that reference a nameserver (``ns`` must be set).
_PAIR_KINDS = frozenset({DELEGATION_ADD, DELEGATION_REMOVE})


class DeltaEvent(NamedTuple):
    """One typed mutation of the delegation history.

    ``day`` is the *effective* day of the mutation (the interval
    boundary it creates); the batch day it was performed under is
    carried alongside the event, not inside it, because one event can
    be replayed from logs that batched it differently.

    A plain row: building one checks nothing. :func:`check_delta`
    validates events where they are made (``ZoneDatabase._emit``) and
    where they arrive from outside (:meth:`from_payload`); replay
    (:func:`~repro.store.base.dispatch_delta`) refuses an unknown kind
    or a pair kind without a nameserver.
    """

    kind: str
    day: int
    #: The domain (pair/presence kinds), glue host, or TLD.
    name: str
    #: The nameserver, for delegation-add / delegation-remove.
    ns: str | None = None

    def to_payload(self) -> dict[str, Any]:
        """JSON-serializable value view."""
        payload: dict[str, Any] = {
            "kind": self.kind,
            "day": self.day,
            "name": self.name,
        }
        if self.ns is not None:
            payload["ns"] = self.ns
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "DeltaEvent":
        """Inverse of :meth:`to_payload`; ``ValueError`` on a bad event."""
        return check_delta(
            cls(
                kind=str(payload["kind"]),
                day=int(payload["day"]),
                name=str(payload["name"]),
                ns=str(payload["ns"]) if payload.get("ns") is not None else None,
            )
        )

    def as_tuple(self) -> tuple[str, int, str, str | None]:
        """Value tuple, for backend-independent comparisons."""
        return (self.kind, self.day, self.name, self.ns)


def check_delta(event: DeltaEvent) -> DeltaEvent:
    """``event`` itself, or ``ValueError`` if its kind or fields are wrong."""
    if event.kind not in DELTA_KINDS:
        raise ValueError(f"unknown delta kind {event.kind!r}")
    if event.kind in _PAIR_KINDS and event.ns is None:
        raise ValueError(f"{event.kind} requires a nameserver")
    return event


def pair_nameserver(event: DeltaEvent) -> str:
    """The nameserver of a pair delta; ``ValueError`` when it has none.

    Replay's check: a stored row is not validated when it is read back,
    so a pair delta with a NULL ``ns`` fails here, loudly, even under
    ``python -O``.
    """
    if event.ns is None:
        raise ValueError(
            f"{event.kind} delta for {event.name!r} has no nameserver"
        )
    return event.ns


def group_batches(
    deltas: "Iterator[tuple[int, DeltaEvent]] | list[tuple[int, DeltaEvent]]",
) -> list[tuple[int, list[DeltaEvent]]]:
    """Group an ordered (batch_day, event) stream into per-day batches.

    Batch days are non-decreasing in any well-formed stream (sequence
    order follows the horizon); a decrease means the stream was
    reassembled out of order and raises ``ValueError``.
    """
    batches: list[tuple[int, list[DeltaEvent]]] = []
    for batch_day, event in deltas:
        if batches and batch_day < batches[-1][0]:
            raise ValueError(
                f"batch day {batch_day} after day {batches[-1][0]}: "
                "delta stream is out of order"
            )
        if batches and batches[-1][0] == batch_day:
            batches[-1][1].append(event)
        else:
            batches.append((batch_day, [event]))
    return batches
