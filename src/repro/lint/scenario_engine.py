"""Engine 2: EPP referential integrity of scenario/world JSON, statically.

Validates the two document kinds ``repro.ecosystem.scenario_io`` reads
and writes — scenario configs (``riskybiz scenario``) and world dumps
(``riskybiz simulate --world-json``) — against the RFC 5731/5732 state
rules the paper centers on, without running the simulator:

========  ============================  ===================================
SCN100    malformed-document            document shape is invalid
SCN101    dangling-host-reference       delegation to a host that does not
                                        exist over the delegation interval
SCN102    delete-with-linked-hosts      domain deleted while a subordinate
                                        host still serves other domains
                                        (the RFC 5731/5732 block)
SCN103    sacrificial-rename-in-repo    "sacrificial" rename target inside
                                        the owning repository's namespace
SCN104    overlapping-delegations       same (domain, ns) intervals overlap
SCN105    unbridged-gap                 interval gap within the configured
                                        IngestPolicy bridge window
SCN106    fault-config-mismatch         faults section does not round-trip
                                        through FaultConfig
SCN107    purge-orphaned-hosts          registry purge left externally
                                        referenced hosts behind (warning;
                                        this is the paper's dummyns state)
SCN108    invalid-scenario              scenario config fails to load
SCN109    missing-scenario-digest       dataset manifest does not carry
                                        the digest of the scenario it was
                                        produced from
========  ============================  ===================================

Documents are recognized structurally: a ``"format"`` of
``riskybiz-world/1`` marks a world dump; ``riskybiz-dataset/1`` marks
a dataset manifest; a top-level
object carrying ``seed`` and ``registrars`` is a scenario config;
anything else is not lintable and is skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import make, rule, scenario_checker
from repro.simtime import Interval, merge_intervals

#: Format tag written by ``scenario_io.save_world``.
WORLD_FORMAT = "riskybiz-world/1"

#: Format tags written by ``repro.store`` (dataset manifests). Kept
#: literal so the linter never imports the store layer.
MANIFEST_FORMATS = frozenset({"riskybiz-dataset/1"})

rule("SCN100", "malformed-document", "scenario", "document shape is invalid")
rule(
    "SCN101", "dangling-host-reference", "scenario",
    "delegation references a host absent over the delegation interval",
)
rule(
    "SCN102", "delete-with-linked-hosts", "scenario",
    "domain deleted while subordinate hosts carry external references",
)
rule(
    "SCN103", "sacrificial-rename-in-repository", "scenario",
    "sacrificial rename targets a TLD inside the owning repository",
)
rule(
    "SCN104", "overlapping-delegations", "scenario",
    "delegation intervals for one (domain, ns) pair overlap",
)
rule(
    "SCN105", "unbridged-gap", "scenario",
    "delegation gap within the IngestPolicy bridge window was not bridged",
)
rule(
    "SCN106", "fault-config-mismatch", "scenario",
    "faults section does not round-trip through FaultConfig",
)
rule(
    "SCN107", "purge-orphaned-hosts", "scenario",
    "purge left externally referenced subordinate hosts orphaned",
    Severity.WARNING,
)
rule("SCN108", "invalid-scenario", "scenario", "scenario config fails to load")
rule(
    "SCN109", "missing-scenario-digest", "scenario",
    "dataset manifest lacks the producing scenario's digest",
)


@dataclass(frozen=True)
class ScenarioContext:
    """Which file is being linted, under which config."""

    path: str
    config: LintConfig
    kind: str  # "world" | "scenario" | "manifest"


def classify_document(data: object) -> str | None:
    """``"world"``, ``"scenario"``, ``"manifest"``, or ``None``."""
    if not isinstance(data, dict):
        return None
    if data.get("format") == WORLD_FORMAT:
        return "world"
    if data.get("format") in MANIFEST_FORMATS:
        return "manifest"
    if "seed" in data and "registrars" in data:
        return "scenario"
    return None


# -- shared parsing helpers --------------------------------------------------


def _tld_of(name: str) -> str:
    return name.rsplit(".", 1)[-1].lower()


def _parse_intervals(
    raw: object, where: str, problems: list[str]
) -> list[Interval]:
    intervals: list[Interval] = []
    if not isinstance(raw, list):
        problems.append(f"{where}: intervals must be a list")
        return intervals
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], int)
            or not (item[1] is None or isinstance(item[1], int))
        ):
            problems.append(f"{where}: interval must be [start, end|null]")
            continue
        try:
            intervals.append(Interval(item[0], item[1]))
        except ValueError as error:
            problems.append(f"{where}: {error}")
    return intervals


def _covers(existence: list[Interval], span: Interval) -> bool:
    """True if ``span`` lies entirely inside the union of ``existence``."""
    for merged in merge_intervals(existence):
        if merged.start <= span.start and (
            merged.end is None
            or (span.end is not None and span.end <= merged.end)
        ):
            return True
    return False


def _exists_at(existence: list[Interval], day: int) -> bool:
    return any(iv.contains(day) for iv in existence)


# -- world documents ---------------------------------------------------------


@dataclass
class _WorldDoc:
    """Parsed, index-friendly view of a world dump."""

    repositories: dict[str, frozenset[str]]  # operator -> TLD set
    #: (repository, host name) -> existence intervals. The same name can
    #: exist independently in several repositories (internal in one,
    #: external elsewhere), so the key must carry the repository.
    hosts: dict[tuple[str, str], list[Interval]]
    #: domain -> (registration intervals, purge days)
    domains: dict[str, tuple[list[Interval], frozenset[int]]]
    #: domain -> sponsoring repository operator
    domain_repos: dict[str, str]
    #: domain -> ns -> delegation intervals
    delegations: dict[str, dict[str, list[Interval]]]
    renames: list[dict[str, Any]]
    faults: object
    gap_bridge_days: int
    problems: list[str]


def _parse_world(data: dict[str, Any]) -> _WorldDoc:
    problems: list[str] = []
    repositories: dict[str, frozenset[str]] = {}
    for entry in data.get("repositories", []):
        if not isinstance(entry, dict) or "operator" not in entry:
            problems.append("repositories: entry must carry an operator")
            continue
        tlds = entry.get("tlds", [])
        if not isinstance(tlds, list):
            problems.append(f"repository {entry['operator']}: tlds must be a list")
            tlds = []
        repositories[str(entry["operator"])] = frozenset(
            str(t).lower() for t in tlds
        )
    hosts: dict[tuple[str, str], list[Interval]] = {}
    for entry in data.get("hosts", []):
        if not isinstance(entry, dict) or "name" not in entry:
            problems.append("hosts: entry must carry a name")
            continue
        name = str(entry["name"]).lower()
        repo = str(entry.get("repository", ""))
        if not repo:
            problems.append(f"host {name}: missing repository")
            continue
        hosts.setdefault((repo, name), []).extend(
            _parse_intervals(entry.get("intervals", []), f"host {name}", problems)
        )
    domains: dict[str, tuple[list[Interval], frozenset[int]]] = {}
    domain_repos: dict[str, str] = {}
    delegations: dict[str, dict[str, list[Interval]]] = {}
    for entry in data.get("domains", []):
        if not isinstance(entry, dict) or "name" not in entry:
            problems.append("domains: entry must carry a name")
            continue
        name = str(entry["name"]).lower()
        repo = str(entry.get("repository", ""))
        if repo:
            domain_repos[name] = repo
        else:
            problems.append(f"domain {name}: missing repository")
        intervals = _parse_intervals(
            entry.get("intervals", []), f"domain {name}", problems
        )
        purges = entry.get("purge_days", [])
        if not isinstance(purges, list) or not all(
            isinstance(d, int) for d in purges
        ):
            problems.append(f"domain {name}: purge_days must be a list of days")
            purges = []
        domains[name] = (intervals, frozenset(purges))
        per_ns: dict[str, list[Interval]] = {}
        for delegation in entry.get("delegations", []):
            if not isinstance(delegation, dict) or "ns" not in delegation:
                problems.append(f"domain {name}: delegation must carry an ns")
                continue
            ns = str(delegation["ns"]).lower()
            per_ns.setdefault(ns, []).extend(
                _parse_intervals(
                    delegation.get("intervals", []),
                    f"domain {name} -> {ns}", problems,
                )
            )
        delegations[name] = per_ns
    renames: list[dict[str, Any]] = []
    for entry in data.get("renames", []):
        if not isinstance(entry, dict) or not {"old", "new"} <= set(entry):
            problems.append("renames: entry must carry old and new names")
            continue
        renames.append(entry)
    policy = data.get("ingest_policy", {})
    gap_bridge = 0
    if isinstance(policy, dict):
        raw_gap = policy.get("gap_bridge_days", 0)
        if isinstance(raw_gap, int) and raw_gap >= 0:
            gap_bridge = raw_gap
        else:
            problems.append("ingest_policy: gap_bridge_days must be a non-negative int")
    else:
        problems.append("ingest_policy must be an object")
    return _WorldDoc(
        repositories=repositories,
        hosts=hosts,
        domains=domains,
        domain_repos=domain_repos,
        delegations=delegations,
        renames=renames,
        faults=data.get("faults"),
        gap_bridge_days=gap_bridge,
        problems=problems,
    )


def _check_fault_config(
    faults: object, path: str, symbol: str = "faults"
) -> list[Diagnostic]:
    """SCN106: the ``faults`` section must round-trip through FaultConfig."""
    from repro.faults.config import fault_config_from_dict, fault_config_to_dict

    if faults is None:
        return []
    if not isinstance(faults, dict):
        return [make("SCN106", path, 0, 0, "faults must be an object", symbol)]
    diagnostics: list[Diagnostic] = []
    try:
        config = fault_config_from_dict(faults)
    except (TypeError, ValueError) as error:
        return [
            make(
                "SCN106", path, 0, 0,
                f"faults do not load as FaultConfig: {error}", symbol,
            )
        ]
    for name in config._RATE_FIELDS:
        value = getattr(config, name)
        if not 0.0 <= value <= 1.0:
            diagnostics.append(
                make(
                    "SCN106", path, 0, 0,
                    f"fault rate {name}={value!r} outside [0, 1]", symbol,
                )
            )
    if config.gap_bridge_days < 0:
        diagnostics.append(
            make(
                "SCN106", path, 0, 0,
                f"gap_bridge_days={config.gap_bridge_days} must be >= 0", symbol,
            )
        )
    round_tripped = fault_config_to_dict(config)
    for key, value in faults.items():
        if key == "retry":
            continue
        if key in round_tripped and round_tripped[key] != value:
            diagnostics.append(
                make(
                    "SCN106", path, 0, 0,
                    f"faults field {key!r} does not round-trip: "
                    f"{value!r} -> {round_tripped[key]!r}", symbol,
                )
            )
    return diagnostics


@scenario_checker
def check_world_document(
    doc: dict[str, Any], ctx: ScenarioContext
) -> list[Diagnostic]:
    """The world-dump rule pack (SCN100–SCN107)."""
    if ctx.kind != "world":
        return []
    path = ctx.path
    world = _parse_world(doc)
    diagnostics: list[Diagnostic] = []
    for problem in world.problems:
        diagnostics.append(make("SCN100", path, 0, 0, problem, "<document>"))

    # SCN101: every delegation must reference a host object existing over
    # the whole delegation interval (RFC 5731: NS entries are references
    # to host objects — internal or external — in the domain's own
    # repository, not free-form names).
    for domain, per_ns in sorted(world.delegations.items()):
        repo = world.domain_repos.get(domain)
        if repo is None:
            continue  # already an SCN100 problem above
        for ns, spans in sorted(per_ns.items()):
            existence = world.hosts.get((repo, ns))
            for span in spans:
                if existence is None or not _covers(existence, span):
                    diagnostics.append(
                        make(
                            "SCN101", path, 0, 0,
                            f"{domain} delegates to {ns} over "
                            f"[{span.start}, {span.end}) but no host object "
                            "exists for that whole interval", domain,
                        )
                    )

    # SCN102 / SCN107: RFC 5731 forbids deleting a domain while
    # subordinate host objects exist; the operational workaround is the
    # sacrificial rename. A deletion that leaves a subordinate host
    # serving *other* domains is exactly the state the rename exists to
    # avoid (SCN102); a registry purge doing the same is the documented
    # SHOULD-NOT exception and is reported as a warning (SCN107).
    for domain, (intervals, purge_days) in sorted(world.domains.items()):
        suffix = "." + domain
        repo = world.domain_repos.get(domain)
        for interval in intervals:
            if interval.end is None:
                continue
            deleted = interval.end
            offenders: list[str] = []
            for (host_repo, host), existence in sorted(world.hosts.items()):
                # Subordinate means: under the domain's name, in the
                # domain's own repository. Same-named external objects
                # elsewhere are separate (unblocked) EPP objects.
                if host_repo != repo or not host.endswith(suffix):
                    continue
                if not _exists_at(existence, deleted):
                    continue
                for other, per_ns in world.delegations.items():
                    if other == domain:
                        continue
                    spans = per_ns.get(host)
                    if spans and any(s.contains(deleted) for s in spans):
                        offenders.append(host)
                        break
            if not offenders:
                continue
            rule_id = "SCN107" if deleted in purge_days else "SCN102"
            verb = "purged" if rule_id == "SCN107" else "deleted"
            diagnostics.append(
                make(
                    rule_id, path, 0, 0,
                    f"{domain} {verb} on day {deleted} while subordinate "
                    f"host(s) {', '.join(sorted(offenders))} still serve "
                    "other domains (RFC 5731/5732 referential integrity)",
                    domain,
                )
            )

    # SCN103: a rename flagged sacrificial must leave the owning
    # repository's namespace — an in-repository "sacrificial" name keeps
    # the host under the registry's authority and re-registerable inside
    # the same repository, defeating the workaround.
    for entry in world.renames:
        if not entry.get("sacrificial", False):
            continue
        new_name = str(entry["new"]).lower()
        operator = str(entry.get("repository", ""))
        tlds = world.repositories.get(operator)
        if tlds is None:
            diagnostics.append(
                make(
                    "SCN100", path, 0, 0,
                    f"rename {entry['old']} -> {new_name} names unknown "
                    f"repository {operator!r}", new_name,
                )
            )
            continue
        if _tld_of(new_name) in tlds:
            diagnostics.append(
                make(
                    "SCN103", path, 0, 0,
                    f"sacrificial rename {entry['old']} -> {new_name} stays "
                    f"inside repository {operator} (TLD .{_tld_of(new_name)}); "
                    "sacrificial targets must be out-of-repository", new_name,
                )
            )

    # SCN104 / SCN105: interval hygiene per (domain, ns) pair.
    for domain, per_ns in sorted(world.delegations.items()):
        for ns, spans in sorted(per_ns.items()):
            ordered = sorted(spans, key=lambda iv: (iv.start, iv.end is None))
            for first, second in zip(ordered, ordered[1:]):
                if first.overlaps(second):
                    diagnostics.append(
                        make(
                            "SCN104", path, 0, 0,
                            f"{domain} -> {ns} has overlapping delegation "
                            f"intervals [{first.start}, {first.end}) and "
                            f"[{second.start}, {second.end})", domain,
                        )
                    )
                elif first.end is not None:
                    gap = second.start - first.end
                    if 0 < gap <= world.gap_bridge_days:
                        diagnostics.append(
                            make(
                                "SCN105", path, 0, 0,
                                f"{domain} -> {ns} closes on day {first.end} "
                                f"and reopens on day {second.start}: a "
                                f"{gap}-day gap within the "
                                f"{world.gap_bridge_days}-day bridge window "
                                "should have been bridged by IngestPolicy",
                                domain,
                            )
                        )

    diagnostics.extend(_check_fault_config(world.faults, path))
    return diagnostics


@scenario_checker
def check_scenario_document(
    doc: dict[str, Any], ctx: ScenarioContext
) -> list[Diagnostic]:
    """The scenario-config rule pack (SCN106, SCN108)."""
    if ctx.kind != "scenario":
        return []
    from repro.ecosystem.scenario_io import scenario_from_dict

    diagnostics = _check_fault_config(doc.get("faults"), ctx.path)
    try:
        scenario_from_dict(doc)
    except (KeyError, TypeError, ValueError) as error:
        diagnostics.append(
            make(
                "SCN108", ctx.path, 0, 0,
                f"scenario does not load: {error}", "<document>",
            )
        )
    return diagnostics


_HEX_DIGEST_LEN = 64  # sha256 hexdigest, as produced by content_digest()


@scenario_checker
def check_manifest_document(
    doc: dict[str, Any], ctx: ScenarioContext
) -> list[Diagnostic]:
    """The dataset-manifest rule pack (SCN109).

    A dataset is only meaningful relative to the scenario that
    produced it; a manifest without the producing
    scenario's digest lets a ``detect`` run silently consume the output
    of the wrong ``simulate`` run.
    """
    if ctx.kind != "manifest":
        return []
    digest = doc.get("scenario_digest")
    if isinstance(digest, str) and len(digest) == _HEX_DIGEST_LEN and all(
        c in "0123456789abcdef" for c in digest
    ):
        return []
    if digest is None:
        message = "manifest lacks a scenario_digest"
    else:
        message = f"manifest scenario_digest is not a sha256 hex digest: {digest!r}"
    return [make("SCN109", ctx.path, 0, 0, message, "<document>")]


def lint_scenario_data(
    data: object, path: str, config: LintConfig | None = None
) -> list[Diagnostic]:
    """Lint one parsed JSON document (skips unrecognized shapes)."""
    from repro.lint.registry import SCENARIO_CHECKERS

    kind = classify_document(data)
    if kind is None or not isinstance(data, dict):
        return []
    ctx = ScenarioContext(path=path, config=config or LintConfig(), kind=kind)
    diagnostics: list[Diagnostic] = []
    for checker in SCENARIO_CHECKERS:
        diagnostics.extend(checker(data, ctx))
    return diagnostics


def lint_scenario_file(
    file_path: Path, rel_path: str, config: LintConfig
) -> list[Diagnostic]:
    """Lint one ``.json`` file on disk."""
    try:
        data = json.loads(file_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        return [
            make(
                "SCN100", rel_path, 0, 0,
                f"could not read JSON: {error}", "<document>",
            )
        ]
    return lint_scenario_data(data, rel_path, config)
