"""Registry test-nameserver identification (§3.2.2).

Pattern mining over the candidate set surfaces naming patterns used for
registry testing — nameservers like
``EMT-NS1.EMT-T-407979799-1575645880157-2-U.COM``. The paper confirmed
their nature with the registry and removed 28,614 of them from the
candidate set. The confirmed test patterns are encoded here; the filter
only recognizes them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Patterns confirmed (per the paper, via registry outreach) to be
#: registry testing infrastructure rather than renaming idioms.
DEFAULT_TEST_PATTERNS: tuple[str, ...] = (
    r"^emt-",          # the EMT- prefix family
    r"\.emt-t-[0-9]+-[0-9]+-[0-9]+-u\.",  # the EMT target-domain shape
)


@dataclass
class TestNameserverFilter:
    """Removes confirmed registry-test nameservers from the candidates."""

    # Not a pytest test class, despite the Test- prefix.
    __test__ = False

    patterns: tuple[str, ...] = DEFAULT_TEST_PATTERNS
    _compiled: list[re.Pattern[str]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._compiled = [re.compile(p, re.IGNORECASE) for p in self.patterns]

    def is_test_nameserver(self, name: str) -> bool:
        """True if ``name`` matches a confirmed test pattern."""
        return any(pattern.search(name) for pattern in self._compiled)
