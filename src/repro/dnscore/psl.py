"""Public-suffix modeling and registered-domain extraction.

The detection methodology repeatedly needs the *registered domain* (the
label directly below a public suffix, a.k.a. "SLD+TLD") of a nameserver
name: the original-nameserver matching step of the paper compares the
registered domain of a candidate sacrificial nameserver against the
registered domain of the nameserver it replaced.

A full Mozilla PSL is tens of thousands of rules; offline we embed the
subset relevant to the simulated ecosystem (all gTLD/ngTLD/ccTLD zones the
world model can produce) plus a handful of well-known multi-label suffixes
so the extraction logic is exercised on rules deeper than one label, and
wildcard/exception rules so the matcher implements the real PSL algorithm.
"""

from __future__ import annotations

from typing import Iterable

from repro.dnscore.errors import NameError_
from repro.dnscore.names import Name, canonical_text

#: Single-label suffixes known to the default list. Covers every TLD the
#: simulated registries operate plus common real-world TLDs that appear in
#: renaming idioms (e.g. ``.arpa`` for ``empty.as112.arpa``, ``.be`` for
#: ``notaplaceto.be``).
DEFAULT_SUFFIXES: tuple[str, ...] = (
    "com", "net", "org", "info", "biz", "edu", "gov", "us", "nu", "se",
    "io", "co", "me", "tv", "cc", "ws", "mobi", "name", "pro", "asia",
    "xyz", "top", "site", "online", "club", "shop", "app", "dev", "arpa",
    "be", "nl", "ca", "eu", "ch", "de", "uk", "au", "jp", "cn", "ru",
    "fr", "it", "es", "br", "in", "mx", "kr", "tw", "pl",
)

#: Multi-label suffix rules (PSL format, without leading dot). ``*`` rules
#: make every child a public suffix; ``!`` rules are exceptions.
DEFAULT_MULTI_RULES: tuple[str, ...] = (
    "co.uk", "org.uk", "ac.uk", "gov.uk",
    "com.au", "net.au", "org.au",
    "co.jp", "ne.jp", "or.jp",
    "com.cn", "net.cn", "org.cn",
    "com.br", "net.br",
    "in.us", "k12.ca.us",
    "*.ck", "!www.ck",
)


class PublicSuffixList:
    """A public-suffix rule set with the standard matching algorithm.

    Rules follow the PSL semantics: the longest matching rule wins;
    exception rules (``!``) beat wildcard rules; an unlisted TLD is treated
    as a public suffix of one label (the PSL's implicit ``*`` default).

    >>> psl = default_psl()
    >>> psl.registered_domain("ns1.foo.example.com")
    'example.com'
    >>> psl.registered_domain("a.b.co.uk")
    'b.co.uk'
    """

    def __init__(self, rules: Iterable[str] | None = None) -> None:
        self._exact: set[tuple[str, ...]] = set()
        self._wildcard: set[tuple[str, ...]] = set()
        self._exception: set[tuple[str, ...]] = set()
        if rules is None:
            rules = list(DEFAULT_SUFFIXES) + list(DEFAULT_MULTI_RULES)
        for rule in rules:
            self.add_rule(rule)

    def add_rule(self, rule: str) -> None:
        """Add one PSL rule (``foo.bar``, ``*.bar``, or ``!baz.bar``)."""
        rule = rule.strip().lower().rstrip(".")
        if not rule:
            raise NameError_("empty PSL rule")
        if rule.startswith("!"):
            labels = tuple(reversed(rule[1:].split(".")))
            self._exception.add(labels)
        elif rule.startswith("*."):
            labels = tuple(reversed(rule[2:].split(".")))
            self._wildcard.add(labels)
        else:
            labels = tuple(reversed(rule.split(".")))
            self._exact.add(labels)

    def suffix_length(self, name: str | Name) -> int:
        """Number of trailing labels of ``name`` forming its public suffix."""
        return self._suffix_length(canonical_text(name).split("."))

    def _suffix_length(self, labels: list[str]) -> int:
        """:meth:`suffix_length` over a canonical name's labels."""
        tld_first = tuple(reversed(labels))
        best = 1  # implicit "*" default rule
        for i in range(1, len(tld_first) + 1):
            prefix = tld_first[:i]
            if prefix in self._exception:
                # Exception rule: the suffix is the rule minus its leftmost
                # label, i.e. one label shorter than the exception.
                return i - 1
            if prefix in self._exact and i > best:
                best = i
            if i >= 2 and prefix[:-1] in self._wildcard and i > best:
                best = i
        return best

    def public_suffix(self, name: str | Name) -> str:
        """The public suffix of ``name`` as text."""
        n = Name(name)
        k = self.suffix_length(n)
        return ".".join(n.labels[-k:])

    def is_public_suffix(self, name: str | Name) -> bool:
        """True if the whole of ``name`` is a public suffix."""
        n = Name(name)
        return self.suffix_length(n) == len(n.labels)

    def registered_domain(self, name: str | Name) -> str | None:
        """The registrable domain of ``name`` (suffix plus one label).

        Returns ``None`` when ``name`` *is* a public suffix and therefore
        has no registrable part (e.g. ``com`` itself).
        """
        labels = canonical_text(name).split(".")
        k = self._suffix_length(labels)
        if len(labels) <= k:
            return None
        return ".".join(labels[-(k + 1):])

    def sld(self, name: str | Name) -> str | None:
        """The single label directly below the public suffix.

        This is the unit the paper's renaming idioms mangle: for
        ``ns1.foo.com`` the SLD is ``foo``; GoDaddy's PLEASEDROPTHISHOST
        idiom keeps it, Enom's idioms append random characters to it.
        """
        reg = self.registered_domain(name)
        if reg is None:
            return None
        return reg.split(".", 1)[0]

    def subdomain_part(self, name: str | Name) -> str | None:
        """Everything left of the registered domain, or None.

        >>> default_psl().subdomain_part("ns1.foo.com")
        'ns1'
        """
        n = Name(name)
        reg = self.registered_domain(n)
        if reg is None:
            return None
        reg_labels = reg.count(".") + 1
        extra = len(n.labels) - reg_labels
        if extra == 0:
            return None
        return ".".join(n.labels[:extra])


_DEFAULT: PublicSuffixList | None = None


def default_psl() -> PublicSuffixList:
    """The process-wide default public-suffix list (lazily built)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList()
    return _DEFAULT
