"""The naive substring count the level-wise miner must agree with.

Counts every substring of every name within the length window, each
name contributing each distinct substring once. It is the definition of
support that :func:`repro.detection.substrings.frequent_substrings`
computes without enumerating infrequent substrings.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable


def naive_substring_counts(
    names: Iterable[str], min_length: int, max_length: int
) -> Counter[str]:
    """Support of every substring of ``names`` within the length window."""
    counts: Counter[str] = Counter()
    for raw in names:
        name = raw.lower()
        counts.update(
            dict.fromkeys(
                (
                    name[start:start + length]
                    for length in range(min_length, min(max_length, len(name)) + 1)
                    for start in range(len(name) - length + 1)
                ),
                1,
            )
        )
    return counts
