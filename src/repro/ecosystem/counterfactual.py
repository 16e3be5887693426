"""Counterfactual scenarios: what if the fixes had always been in place?

Variants of the canonical scenario used by the ablation benchmarks:

* :func:`invalid_fix_scenario` — every registrar renames under the
  reserved ``.invalid`` TLD from day one (the paper's §7.3 proposal).
  Expected outcome: zero hijackable sacrificial names, ever.
* :func:`all_sinks_scenario` — every registrar uses a registered sink
  domain from day one (the "ubiquitous sink" short-term fix). Expected:
  zero hijackable names *while the sinks stay registered* — the residual
  risk the paper warns about is sink abandonment.
* :func:`greedy_hijackers_scenario` — hijackers with no selectivity
  (threshold 1, near-certain interest, deep pockets). Expected: the
  hijacked-NS fraction balloons while the domain/NS disparity collapses,
  demonstrating that Table 3's 5%-vs-32% split is a *behavioural*
  signature, not an artifact.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import replace

from repro.ecosystem.config import (
    HijackerSpec,
    RegistrarSpec,
    ScenarioConfig,
    default_scenario,
)
from repro.epp.extensions import invalid_tld_idiom
from repro.registrar.idioms import SinkDomainIdiom


def _with_uniform_idiom(
    config: ScenarioConfig, idiom_for: "callable[[RegistrarSpec], object]"
) -> ScenarioConfig:
    registrars = tuple(
        replace(
            spec,
            idiom_schedule=((_dt.date(2005, 1, 1), idiom_for(spec)),),
            sink_abandonments=(),
        )
        for spec in config.registrars
    )
    return replace(config, registrars=registrars, sink_abandon_enabled=False)


def invalid_fix_scenario(seed: int = 2021, scale: float = 1.0) -> ScenarioConfig:
    """The reserved-TLD world: all renames land under ``.invalid``."""
    config = default_scenario(seed)
    if scale != 1.0:
        config = config.scaled(scale)
    return _with_uniform_idiom(config, lambda _spec: invalid_tld_idiom())


def all_sinks_scenario(seed: int = 2021, scale: float = 1.0) -> ScenarioConfig:
    """The ubiquitous-sink world: every registrar holds its own sink."""
    config = default_scenario(seed)
    if scale != 1.0:
        config = config.scaled(scale)
    return _with_uniform_idiom(
        config, lambda spec: SinkDomainIdiom(f"hold-{spec.ident}.com")
    )


def greedy_hijackers_scenario(seed: int = 2021, scale: float = 1.0) -> ScenarioConfig:
    """Selectivity ablation: hijackers take everything they see."""
    config = default_scenario(seed)
    if scale != 1.0:
        config = config.scaled(scale)
    hijackers = tuple(
        replace(
            spec,
            min_value=1,
            interest=3.0,          # saturates the interest formula
            monthly_capacity=10_000,
        )
        for spec in config.hijackers
    )
    return replace(config, hijackers=hijackers)


def no_remediation_scenario(seed: int = 2021, scale: float = 1.0) -> ScenarioConfig:
    """Notification ablation: nobody changes idioms or re-renames.

    Every registrar keeps its pre-notification idiom schedule and no
    remediation campaign runs, isolating the organic baseline that
    Table 5 compares against.
    """
    config = default_scenario(seed)
    if scale != 1.0:
        config = config.scaled(scale)
    notification = _dt.date(2020, 9, 15)
    registrars = tuple(
        replace(
            spec,
            idiom_schedule=tuple(
                (day, idiom) for day, idiom in spec.idiom_schedule
                if day < notification
            ),
            remediate_on_notification=False,
        )
        for spec in config.registrars
    )
    return replace(config, registrars=registrars)
