"""A command/response façade over :class:`EppRepository`.

Registrar provisioning systems speak EPP as request/response frames and
branch on result *codes* rather than exceptions. :class:`EppSession`
provides that style: each command returns a :class:`Result` whose
``code`` is an RFC 5730 result code, and the caller (the deletion
machinery, the tests) branches on it. The session keeps no record of
past commands: a registrar's session lives for the whole simulated run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.dnscore.errors import NameError_
from repro.epp.errors import EppError, MESSAGES, ResultCode
from repro.epp.repository import EppRepository


@dataclass(frozen=True, slots=True)
class Result:
    """One EPP command response."""

    code: ResultCode
    command: str
    detail: str = ""
    data: Any = None

    @property
    def ok(self) -> bool:
        """True for 1xxx result codes."""
        return self.code.is_success

    @property
    def message(self) -> str:
        """The canonical RFC 5730 response text for this code."""
        return MESSAGES.get(self.code, "EPP error")


@dataclass
class EppSession:
    """A registrar's authenticated session against one repository.

    The session binds the registrar identity once (EPP <login>), so
    commands cannot accidentally act as a different sponsor — mirroring
    how EPP authorization actually works.
    """

    repository: EppRepository
    registrar: str

    def _run(self, command: str, fn: Callable[[], Any]) -> Result:
        try:
            data = fn()
        except EppError as exc:
            return Result(exc.code, command, detail=exc.detail)
        except NameError_ as exc:
            # Syntactically invalid names are a command-syntax failure in
            # real EPP; surface them as a result, never as a crash.
            return Result(
                ResultCode.PARAMETER_VALUE_POLICY_ERROR, command, detail=str(exc)
            )
        return Result(ResultCode.OK, command, data=data)

    # -- domain commands ---------------------------------------------------

    def domain_check(self, name: str) -> Result:
        """<domain:check> — availability query; ``data`` is True if free."""
        return self._run(
            "domain:check", lambda: not self.repository.domain_exists(name)
        )

    def domain_create(
        self,
        name: str,
        *,
        day: int,
        period_years: int = 1,
        nameservers: Iterable[str] = (),
        registrant: str = "",
    ) -> Result:
        """<domain:create>."""
        return self._run(
            "domain:create",
            lambda: self.repository.create_domain(
                self.registrar, name, day=day, period_years=period_years,
                nameservers=nameservers, registrant=registrant,
            ),
        )

    def domain_delete(self, name: str, *, day: int) -> Result:
        """<domain:delete>."""
        return self._run(
            "domain:delete",
            lambda: self.repository.delete_domain(self.registrar, name, day=day),
        )

    def domain_renew(self, name: str, *, day: int, period_years: int = 1) -> Result:
        """<domain:renew>."""
        return self._run(
            "domain:renew",
            lambda: self.repository.renew_domain(
                self.registrar, name, day=day, period_years=period_years,
            ),
        )

    def domain_update_ns(
        self, name: str, *, day: int,
        add: Iterable[str] = (), remove: Iterable[str] = (),
    ) -> Result:
        """<domain:update> for NS changes."""
        return self._run(
            "domain:update",
            lambda: self.repository.update_domain_ns(
                self.registrar, name, day=day, add=add, remove=remove,
            ),
        )

    def domain_transfer(self, name: str, auth_info: str, *, day: int) -> Result:
        """<transfer op="request"> — this session is the gaining registrar."""
        return self._run(
            "domain:transfer",
            lambda: self.repository.transfer_domain(
                self.registrar, name, auth_info, day=day
            ),
        )

    def domain_info(self, name: str) -> Result:
        """<domain:info>."""
        return self._run("domain:info", lambda: self.repository.domain(name))

    # -- host commands -----------------------------------------------------

    def host_create(
        self, name: str, *, day: int, addresses: Iterable[str] = ()
    ) -> Result:
        """<host:create>."""
        return self._run(
            "host:create",
            lambda: self.repository.create_host(
                self.registrar, name, day=day, addresses=addresses,
            ),
        )

    def host_delete(self, name: str, *, day: int) -> Result:
        """<host:delete>."""
        return self._run(
            "host:delete",
            lambda: self.repository.delete_host(self.registrar, name, day=day),
        )

    def host_rename(self, old: str, new: str, *, day: int) -> Result:
        """<host:update> with a name change — the sacrificial rename."""
        return self._run(
            "host:rename",
            lambda: self.repository.rename_host(self.registrar, old, new, day=day),
        )

    def host_set_addresses(
        self, name: str, addresses: Iterable[str], *, day: int
    ) -> Result:
        """<host:update> replacing the host's glue address set."""
        return self._run(
            "host:addr",
            lambda: self.repository.set_host_addresses(
                self.registrar, name, addresses, day=day,
            ),
        )

    def host_info(self, name: str) -> Result:
        """<host:info>."""
        return self._run("host:info", lambda: self.repository.host(name))
