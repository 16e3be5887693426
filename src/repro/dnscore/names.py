"""Validated, normalized DNS domain names.

The whole library passes domain names around as plain strings for
convenience, but every name that enters a registry, zone, or the detection
pipeline is normalized through :class:`Name`. Normalization follows RFC
1034/1035 presentation rules: case-insensitive matching (we canonicalize to
lowercase), dot-separated labels, no empty labels, and the usual length
limits (63 octets per label, 253 octets for the full name without the
trailing root dot).

Hostnames used as nameservers historically contain underscores and other
letter-digit-hyphen (LDH) violations in the wild; zone files tolerate them.
We therefore validate *structure* strictly (label/name lengths, hyphen
placement) but allow underscores when ``strict`` is off, mirroring how zone
file pipelines such as DZDB ingest real data.

Most names reaching :class:`Name` are already canonical text produced by
an earlier :class:`Name`, so such text is accepted after one whole-name
pattern match and a length check; anything else takes the per-label path,
which canonicalizes it and names the first rule it breaks.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.dnscore.errors import NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 253

_LDH_LABEL = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")
_LAX_LABEL = re.compile(r"^[a-z0-9_]([a-z0-9_-]*[a-z0-9_])?$")

# Canonical text: labels matching the patterns above, at most 63 octets
# each (the bounded middle run), joined by single dots.
_LDH_CANONICAL = r"[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?"
_LAX_CANONICAL = r"[a-z0-9_](?:[a-z0-9_-]{0,61}[a-z0-9_])?"
_LDH_NAME = re.compile(rf"{_LDH_CANONICAL}(?:\.{_LDH_CANONICAL})*")
_LAX_NAME = re.compile(rf"{_LAX_CANONICAL}(?:\.{_LAX_CANONICAL})*")


class Name:
    """An immutable, normalized absolute domain name.

    Instances compare and hash by their canonical lowercase text form, so
    they can be freely mixed as dict keys alongside plain strings produced
    by :meth:`text`.

    >>> Name("NS1.Example.COM").text
    'ns1.example.com'
    >>> Name("ns1.example.com").parent().text
    'example.com'
    """

    __slots__ = ("_labels", "_text")

    def __init__(self, name: str | "Name", *, strict: bool = False) -> None:
        if (
            type(name) is str
            and len(name) <= MAX_NAME_LENGTH
            and (_LDH_NAME if strict else _LAX_NAME).fullmatch(name)
        ):
            self._labels = tuple(name.split("."))
            self._text = name
            return
        if isinstance(name, Name):
            self._labels = name._labels
            self._text = name._text
            return
        text = name.strip().rstrip(".").lower()
        if not text:
            raise NameError_("empty domain name")
        if len(text) > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets: {text[:64]}...")
        labels = tuple(text.split("."))
        pattern = _LDH_LABEL if strict else _LAX_LABEL
        for label in labels:
            if not label:
                raise NameError_(f"empty label in name: {text!r}")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(f"label exceeds {MAX_LABEL_LENGTH} octets: {label!r}")
            if not pattern.match(label):
                raise NameError_(f"invalid label {label!r} in name {text!r}")
        self._labels = labels
        self._text = text

    @property
    def text(self) -> str:
        """Canonical lowercase presentation form, without trailing dot."""
        return self._text

    @property
    def labels(self) -> tuple[str, ...]:
        """Labels from leftmost (most specific) to rightmost (TLD)."""
        return self._labels

    @property
    def tld(self) -> str:
        """The rightmost label."""
        return self._labels[-1]

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        Raises :class:`NameError_` if this name is a single label (a TLD),
        which has no in-namespace parent.
        """
        if len(self._labels) == 1:
            raise NameError_(f"TLD {self._text!r} has no parent")
        return Name(".".join(self._labels[1:]))

    def is_subdomain_of(self, other: str | "Name") -> bool:
        """True if this name is equal to or strictly below ``other``."""
        other_labels = Name(other)._labels
        n = len(other_labels)
        return len(self._labels) >= n and self._labels[-n:] == other_labels

    def is_strict_subdomain_of(self, other: str | "Name") -> bool:
        """True if this name is strictly below ``other`` (not equal)."""
        return self != Name(other) and self.is_subdomain_of(other)

    def relativize(self, origin: str | "Name") -> str:
        """Presentation form relative to ``origin``, or ``@`` if equal.

        >>> Name("www.example.com").relativize("example.com")
        'www'
        """
        origin_name = Name(origin)
        if self == origin_name:
            return "@"
        if not self.is_subdomain_of(origin_name):
            raise NameError_(f"{self._text!r} is not under {origin_name.text!r}")
        keep = len(self._labels) - len(origin_name._labels)
        return ".".join(self._labels[:keep])

    def with_tld(self, tld: str) -> "Name":
        """A copy of this name with the rightmost label replaced."""
        return Name(".".join(self._labels[:-1] + (tld.lower().strip("."),)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Name):
            return self._text == other._text
        if isinstance(other, str):
            return self._text == other.strip().rstrip(".").lower()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._text)

    def __lt__(self, other: "Name | str") -> bool:
        return self.sort_key() < Name(other).sort_key()

    def sort_key(self) -> tuple[str, ...]:
        """DNSSEC-style canonical ordering key (labels reversed)."""
        return tuple(reversed(self._labels))

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Name({self._text!r})"

    def __len__(self) -> int:
        return len(self._labels)


def is_valid(name: str, *, strict: bool = False) -> bool:
    """True if ``name`` parses as a domain name."""
    try:
        Name(name, strict=strict)
    except NameError_:
        return False
    return True


def common_suffix_depth(a: str | Name, b: str | Name) -> int:
    """Number of trailing labels shared by two names.

    >>> common_suffix_depth("ns1.foo.com", "ns2.foo.com")
    2
    """
    la, lb = Name(a).labels, Name(b).labels
    depth = 0
    for x, y in zip(reversed(la), reversed(lb)):
        if x != y:
            break
        depth += 1
    return depth


def sorted_names(names: Iterable[str | Name]) -> list[Name]:
    """Sort names in canonical (reversed-label) order."""
    return sorted((Name(n) for n in names), key=Name.sort_key)
