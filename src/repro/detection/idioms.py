"""Idiom classifiers: confirmed renaming patterns (§3.2.2–§3.2.3, §4).

Pattern mining surfaces candidate idioms; the paper then *manually
confirmed* each with the registrar involved. The confirmed knowledge is
encoded here as classifiers of two kinds:

* **pattern** classifiers recognize a sacrificial name by its shape
  alone (PLEASEDROPTHISHOST, DROPTHISHOST, DELETED-DROP, the sink
  domains, the reserved-namespace scheme);
* **match** classifiers recognize a rename only in combination with the
  original-nameserver history match (the ``…123.biz`` and
  ``{sld}{random}.biz`` families), with registrar attribution coming
  from WHOIS rather than the pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from repro.detection.matching import MatchResult


class IdiomClass(str, Enum):
    """How the produced names relate to registerable namespace."""

    SINK = "sink"          # fixed registered domain (non-hijackable)
    RANDOM = "random"      # fresh likely-unregistered names (hijackable)
    RESERVED = "reserved"  # reserved namespace (non-hijackable)


@dataclass(frozen=True)
class IdiomClassifier:
    """One confirmed renaming idiom."""

    idiom_id: str
    klass: IdiomClass
    registrar_hint: str | None
    pattern: str | None = None
    sink_domain: str | None = None
    post_remediation: bool = False

    @property
    def hijackable(self) -> bool:
        """True for random-name idioms."""
        return self.klass is IdiomClass.RANDOM

    def matches_name(self, name: str) -> bool:
        """Pattern-kind check against a bare nameserver name."""
        compiled = self._compiled
        return compiled is not None and compiled.search(name) is not None

    @cached_property
    def _compiled(self) -> re.Pattern[str] | None:
        """``pattern``, compiled on first use."""
        if self.pattern is None:
            return None
        return re.compile(self.pattern, re.IGNORECASE)


def known_classifiers() -> list[IdiomClassifier]:
    """Every confirmed pattern-kind idiom (Tables 1, 2, and 6)."""
    return [
        # Table 2 — hijackable random-name idioms with distinctive shapes.
        IdiomClassifier(
            "PLEASEDROPTHISHOST", IdiomClass.RANDOM, "godaddy",
            pattern=r"^pleasedropthishost[a-z0-9]*\.",
        ),
        IdiomClassifier(
            "DROPTHISHOST", IdiomClass.RANDOM, "godaddy",
            pattern=r"^dropthishost-[0-9a-f-]+\.biz$",
        ),
        IdiomClassifier(
            "DELETED-DROP", IdiomClass.RANDOM, "internetbs",
            pattern=r"^deleted-[a-z0-9]+\.drop-[a-z0-9]+\.biz$",
        ),
        # Table 1 — non-hijackable sink domains.
        IdiomClassifier(
            "DUMMYNS.COM", IdiomClass.SINK, "internetbs",
            pattern=r"\.dummyns\.com$", sink_domain="dummyns.com",
        ),
        IdiomClassifier(
            "LAMEDELEGATION.ORG", IdiomClass.SINK, "netsol",
            pattern=r"\.lamedelegation\.org$", sink_domain="lamedelegation.org",
        ),
        IdiomClassifier(
            "NSHOLDFIX.COM", IdiomClass.SINK, "tldrs",
            pattern=r"\.nsholdfix\.com$", sink_domain="nsholdfix.com",
        ),
        IdiomClassifier(
            "DELETE-HOST.COM", IdiomClass.SINK, "gmo",
            pattern=r"\.delete-host\.com$", sink_domain="delete-host.com",
        ),
        IdiomClassifier(
            "DELETEDNS.COM", IdiomClass.SINK, "xinnet",
            pattern=r"\.deletedns\.com$", sink_domain="deletedns.com",
        ),
        IdiomClassifier(
            "LAMEDELEGATIONSERVERS.{COM, NET}", IdiomClass.SINK, "srsplus",
            pattern=r"\.lamedelegationservers\.(com|net)$",
            sink_domain="lamedelegationservers.com",
        ),
        # Table 6 — post-remediation idioms.
        IdiomClassifier(
            "EMPTY.AS112.ARPA", IdiomClass.RESERVED, "godaddy",
            pattern=r"\.empty\.as112\.arpa$", post_remediation=True,
        ),
        IdiomClassifier(
            "NOTAPLACETO.BE", IdiomClass.SINK, "internetbs",
            pattern=r"\.notaplaceto\.be$", sink_domain="notaplaceto.be",
            post_remediation=True,
        ),
        IdiomClassifier(
            "DELETE-REGISTRATION.COM", IdiomClass.SINK, "enom",
            pattern=r"\.delete-registration\.com$",
            sink_domain="delete-registration.com", post_remediation=True,
        ),
    ]


#: Match-kind idiom ids (attributed via WHOIS, not via the pattern).
IDIOM_123 = "123.BIZ"
IDIOM_RANDOM_SUFFIX = "XXXXX.{BIZ, COM}"

#: The characters a random-suffix idiom appends.
_RANDOM_SUFFIX = re.compile(r"[a-z0-9]+")


def classify_match(match: MatchResult) -> str | None:
    """Classify a history-matched rename into a match-kind idiom.

    The appended-suffix shape separates Enom's early deterministic
    ``…123.biz`` idiom from the random-suffix family; an empty suffix
    means the "rename" did not mangle the name and is not a recognized
    idiom.
    """
    suffix = match.sld_suffix
    if suffix == "123":
        return IDIOM_123
    if len(suffix) >= 3 and _RANDOM_SUFFIX.fullmatch(suffix):
        return IDIOM_RANDOM_SUFFIX
    return None
