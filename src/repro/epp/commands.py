"""A command/response façade over :class:`EppRepository`.

Registrar provisioning systems speak EPP as request/response frames and
branch on result *codes* rather than exceptions. :class:`EppSession`
provides that style: each command returns a :class:`Result` whose
``code`` is an RFC 5730 result code, and the session keeps a transcript
of every command and response. Only the tests read it, to assert on
exact protocol behaviour; the deletion machinery branches on each
command's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
class TranscriptEntry:
    """One command/response pair retained in the session transcript."""

    day: int
    command: str
    args: dict
    result: Result


@dataclass
class EppSession:
    """A registrar's authenticated session against one repository.

    The session binds the registrar identity once (EPP <login>), so
    commands cannot accidentally act as a different sponsor — mirroring
    how EPP authorization actually works.
    """

    repository: EppRepository
    registrar: str
    transcript: list[TranscriptEntry] = field(default_factory=list)

    def _run(
        self, day: int, command: str, fn: Callable[[], Any], /, **args: object
    ) -> Result:
        try:
            data = fn()
        except EppError as exc:
            result = Result(exc.code, command, detail=exc.detail)
        except NameError_ as exc:
            # Syntactically invalid names are a command-syntax failure in
            # real EPP; surface them as a result, never as a crash.
            result = Result(
                ResultCode.PARAMETER_VALUE_POLICY_ERROR, command, detail=str(exc)
            )
        else:
            result = Result(ResultCode.OK, command, data=data)
        self.transcript.append(TranscriptEntry(day, command, args, result))
        return result

    # -- domain commands ---------------------------------------------------

    def domain_check(self, name: str, *, day: int = 0) -> Result:
        """<domain:check> — availability query; ``data`` is True if free."""
        return self._run(
            day, "domain:check",
            lambda: not self.repository.domain_exists(name), name=name,
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
            day, "domain:create",
            lambda: self.repository.create_domain(
                self.registrar, name, day=day, period_years=period_years,
                nameservers=nameservers, registrant=registrant,
            ),
            name=name,
        )

    def domain_delete(self, name: str, *, day: int) -> Result:
        """<domain:delete>."""
        return self._run(
            day, "domain:delete",
            lambda: self.repository.delete_domain(self.registrar, name, day=day),
            name=name,
        )

    def domain_renew(self, name: str, *, day: int, period_years: int = 1) -> Result:
        """<domain:renew>."""
        return self._run(
            day, "domain:renew",
            lambda: self.repository.renew_domain(
                self.registrar, name, day=day, period_years=period_years,
            ),
            name=name,
        )

    def domain_update_ns(
        self, name: str, *, day: int,
        add: Iterable[str] = (), remove: Iterable[str] = (),
    ) -> Result:
        """<domain:update> for NS changes."""
        return self._run(
            day, "domain:update",
            lambda: self.repository.update_domain_ns(
                self.registrar, name, day=day, add=add, remove=remove,
            ),
            name=name, add=list(add), remove=list(remove),
        )

    def domain_transfer(self, name: str, auth_info: str, *, day: int) -> Result:
        """<transfer op="request"> — this session is the gaining registrar."""
        return self._run(
            day, "domain:transfer",
            lambda: self.repository.transfer_domain(
                self.registrar, name, auth_info, day=day
            ),
            name=name,
        )

    def domain_info(self, name: str, *, day: int = 0) -> Result:
        """<domain:info>."""
        return self._run(
            day, "domain:info", lambda: self.repository.domain(name), name=name,
        )

    # -- host commands -----------------------------------------------------

    def host_create(
        self, name: str, *, day: int, addresses: Iterable[str] = ()
    ) -> Result:
        """<host:create>."""
        return self._run(
            day, "host:create",
            lambda: self.repository.create_host(
                self.registrar, name, day=day, addresses=addresses,
            ),
            name=name,
        )

    def host_delete(self, name: str, *, day: int) -> Result:
        """<host:delete>."""
        return self._run(
            day, "host:delete",
            lambda: self.repository.delete_host(self.registrar, name, day=day),
            name=name,
        )

    def host_rename(self, old: str, new: str, *, day: int) -> Result:
        """<host:update> with a name change — the sacrificial rename."""
        return self._run(
            day, "host:rename",
            lambda: self.repository.rename_host(self.registrar, old, new, day=day),
            old=old, new=new,
        )

    def host_set_addresses(
        self, name: str, addresses: Iterable[str], *, day: int
    ) -> Result:
        """<host:update> replacing the host's glue address set."""
        return self._run(
            day, "host:addr",
            lambda: self.repository.set_host_addresses(
                self.registrar, name, addresses, day=day,
            ),
            name=name, addresses=list(addresses),
        )

    def host_info(self, name: str, *, day: int = 0) -> Result:
        """<host:info>."""
        return self._run(
            day, "host:info", lambda: self.repository.host(name), name=name,
        )

    def failures(self) -> list[TranscriptEntry]:
        """Transcript entries whose result was an error."""
        return [entry for entry in self.transcript if not entry.result.ok]
