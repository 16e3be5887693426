"""Static resolvability of nameserver names over time.

A simplified version of the static-resolution methodology of Akiwate et
al. (2020), as used by the paper: a nameserver name has a valid static
resolution path on a given day if the zone data shows either

* glue addresses for the exact host name, or
* a delegation for the host's registered domain (so a resolver can walk
  TLD → registered domain → host).

Names under TLDs outside the data set cannot be assessed and are treated
as *unknown* — the paper is conservative in the same way.
"""

from __future__ import annotations

from repro.dnscore.names import canonical_text
from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.zonedb.database import ZoneDatabase


class ResolvabilityAnalyzer:
    """Answers whether a nameserver name resolved on a day, from zone history."""

    def __init__(
        self, zonedb: ZoneDatabase, *, psl: PublicSuffixList | None = None
    ) -> None:
        self.zonedb = zonedb
        self.psl = psl or default_psl()

    def is_covered(self, ns: str) -> bool:
        """True if the data set can assess this name at all."""
        return self.zonedb.covers(ns)

    def is_resolvable(self, ns: str, day: int) -> bool | None:
        """Static resolvability of ``ns`` on ``day``.

        Returns ``None`` (unknown) when the name's TLD is outside the
        data set.
        """
        if not self.is_covered(ns):
            return None
        ns_text = canonical_text(ns)
        if self.zonedb.glue_present(ns_text, day):
            return True
        registered = self.psl.registered_domain(ns_text)
        if registered is None:
            return False
        return self.zonedb.domain_present(registered, day)
