"""Frequent-substring mining over nameserver names (§3.2.2).

The paper built "a tool that, given a list of domain names as input,
looks for common substrings across them", applied it to the ~300K
candidates, and read the renaming idioms off the top of the output
(PLEASEDROPTHISHOST, DROPTHISHOST, the sink domains, the EMT- test
pattern, ...). This module is that tool.

A substring's support is the number of input names containing it (each
name counts a substring once). The miner keeps substrings within a
length window whose support reaches a threshold, and suppresses
non-maximal ones: a substring contained in a longer surviving pattern
with (nearly) the same support adds no information and is dropped.

Support can only shrink as a substring grows, so the miner counts level
by level (:func:`frequent_substrings`): every shortest window first,
then a window one character longer only where both of its shorter
windows (its prefix and its suffix) reached the threshold. Only
substrings that can still be frequent are ever counted, and each
counted support is exact.

The detection engine keeps a standing :class:`SubstringCounter` — the
candidate name multiset, adjusted in place by day-over-day churn — and
:func:`mine_substrings` builds the same counter in one pass. Selection
counts that multiset, so both produce identical patterns for identical
name multisets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Default mining parameters (the values the pipeline uses).
DEFAULT_MIN_LENGTH = 5
DEFAULT_MAX_LENGTH = 24


@dataclass(frozen=True, slots=True)
class SubstringPattern:
    """One mined pattern with its support."""

    substring: str
    support: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.substring!r} x{self.support}"


def frequent_substrings(
    names: dict[str, int],
    *,
    min_length: int,
    max_length: int,
    min_support: int,
) -> dict[str, int]:
    """Support of every substring of ``names`` that reaches ``min_support``.

    ``names`` maps each name to its number of occurrences. Counting is
    level-wise: each level counts windows one character longer than the
    last, and a name's window enters a level only if both of its
    windows on the previous level were frequent, so the count holds
    only substrings that can still reach ``min_support``.
    """
    supports: dict[str, int] = {}
    # Per name, the start offsets of its windows still counted.
    live = {name: range(len(name) - min_length + 1) for name in names}
    length = min_length
    while live and length <= max_length:
        level: dict[str, int] = {}
        for name, starts in live.items():
            occurrences = names[name]
            for window in dict.fromkeys(name[i:i + length] for i in starts):
                level[window] = level.get(window, 0) + occurrences
        frequent = {w: c for w, c in level.items() if c >= min_support}
        supports.update(frequent)
        grown: dict[str, list[int]] = {}
        for name, starts in live.items():
            kept = [i for i in starts if name[i:i + length] in frequent]
            # A longer window at i needs the windows at i and i + 1.
            extend = [i for i, j in zip(kept, kept[1:]) if j == i + 1]
            if extend:
                grown[name] = extend
        live = grown
        length += 1
    return supports


def _select_patterns(
    counts: dict[str, int],
    *,
    min_support: int,
    top: int,
    containment_slack: float,
) -> list[SubstringPattern]:
    """Pure pattern selection over substring supports.

    Keeps substrings above ``min_support``, ordered by (support,
    length), with non-maximal substrings removed: a pattern is dropped
    when some longer surviving pattern contains it and retains at least
    ``containment_slack`` of its support.
    """
    frequent = [
        (substring, support)
        for substring, support in counts.items()
        if support >= min_support
    ]
    # Sort so longer, better-supported strings are considered first.
    frequent.sort(key=lambda item: (-item[1], -len(item[0]), item[0]))
    kept: list[tuple[str, int]] = []
    for substring, support in frequent:
        redundant = False
        for kept_sub, kept_support in kept:
            if (
                substring in kept_sub
                and len(substring) < len(kept_sub)
                and kept_support >= containment_slack * support
            ):
                redundant = True
                break
        if not redundant:
            kept.append((substring, support))
        if len(kept) >= top * 4:
            break
    kept.sort(key=lambda item: (-item[1], -len(item[0]), item[0]))
    return [SubstringPattern(s, c) for s, c in kept[:top]]


class SubstringCounter:
    """The standing name multiset substring mining selects from.

    The incremental miner's operator state: :meth:`add` and
    :meth:`discard` adjust one name's occurrence count, so a day's
    candidate churn costs O(changed names). :meth:`select` counts the
    current multiset level by level (:func:`frequent_substrings`), so
    any add/discard sequence reaching the same multiset selects the
    patterns the batch miner does.
    """

    __slots__ = ("min_length", "max_length", "names", "revision")

    def __init__(
        self,
        *,
        min_length: int = DEFAULT_MIN_LENGTH,
        max_length: int = DEFAULT_MAX_LENGTH,
    ) -> None:
        self.min_length = min_length
        self.max_length = max_length
        #: The name multiset folded in so far (lower-cased).
        self.names: Counter[str] = Counter()
        #: Bumped on every mutation; lets consumers memoize selections.
        self.revision = 0

    def add(self, name: str) -> None:
        """Fold one name occurrence into the multiset."""
        self.revision += 1
        self.names[name.lower()] += 1

    def discard(self, name: str) -> None:
        """Remove one name occurrence; unknown names raise ``KeyError``."""
        lowered = name.lower()
        if self.names[lowered] <= 0:
            raise KeyError(f"name not in counter: {name!r}")
        self.revision += 1
        self.names[lowered] -= 1
        if self.names[lowered] == 0:
            del self.names[lowered]

    def select(
        self,
        *,
        min_support: int = 5,
        top: int = 50,
        containment_slack: float = 0.9,
    ) -> list[SubstringPattern]:
        """The mined patterns for the current multiset."""
        supports = frequent_substrings(
            self.names,
            min_length=self.min_length,
            max_length=self.max_length,
            min_support=min_support,
        )
        return _select_patterns(
            supports,
            min_support=min_support,
            top=top,
            containment_slack=containment_slack,
        )


def mine_substrings(
    names: Iterable[str],
    *,
    min_length: int = DEFAULT_MIN_LENGTH,
    max_length: int = DEFAULT_MAX_LENGTH,
    min_support: int = 5,
    top: int = 50,
    containment_slack: float = 0.9,
) -> list[SubstringPattern]:
    """Mine the most common substrings across ``names``.

    Returns up to ``top`` patterns ordered by (support, length) with
    non-maximal substrings removed (see :func:`_select_patterns`).
    """
    counter = SubstringCounter(min_length=min_length, max_length=max_length)
    for raw in names:
        counter.add(raw)
    return counter.select(
        min_support=min_support, top=top, containment_slack=containment_slack
    )


def patterns_matching(
    patterns: Sequence[SubstringPattern], needle: str
) -> list[SubstringPattern]:
    """The mined patterns that contain ``needle`` (for inspection/tests)."""
    needle = needle.lower()
    return [p for p in patterns if needle in p.substring or p.substring in needle]
