"""Command-line interface: simulate, detect, report, experiment.

The CLI exposes the library as a tool chain a measurement team could
actually run:

``riskybiz simulate --out DIR``
    Run the ecosystem and write its observable outputs to disk — a
    DZDB-style zone-file archive (sampled snapshot days) plus a WHOIS
    JSON-lines archive.

``riskybiz detect --archive DIR --whois FILE``
    Run the §3 detection methodology against an on-disk archive (yours
    or a simulated one) and print the funnel and idiom tables. With
    ``--dataset FILE`` it instead opens the SQLite dataset a previous
    ``simulate`` run wrote — no in-process world object is shared
    between the two commands. ``--run-dir DIR`` journals the run and
    checkpoints its engine so a killed run resumes with
    ``--resume RUN_ID``.

``riskybiz advance --dataset FILE --run-dir DIR``
    Fold the days a dataset recorded past a standing run's watermark
    into its engine checkpoint (the daily update).

``riskybiz report``
    Regenerate every table and figure of the paper in one run.

``riskybiz experiment``
    Run the §6.1 controlled hijack experiment and print the protocol
    observations.

``riskybiz lint``
    Run the three static-analysis engines: per-file determinism rules
    over the Python tree, RFC 5731/5732 referential-integrity rules over
    scenario/world JSON, and the typestate protocol checks. Exits
    non-zero on any non-baselined error.

``riskybiz verify-data``
    Recompute every recorded SHA-256 over a dataset and/or run
    directory, check the engine checkpoint against its schema, and exit
    non-zero on any mismatch.

``riskybiz chaos-smoke``
    Run one seeded kill-and-resume chaos trial (see
    :mod:`repro.runner.chaos_harness`) and fail unless the interrupted
    run reproduces the uninterrupted result bit-for-bit. With
    ``--trace`` both runs are traced and their canonical trace content
    must converge too.

``riskybiz trace``
    Inspect the telemetry a journaled ``detect --trace`` run wrote:
    the span timeline, a per-stage summary table, and the metrics
    snapshot, as text or JSON. ``--validate`` schema-checks the
    ``trace.jsonl``/``metrics.json`` pair instead (CI's telemetry
    smoke gate).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.report import (
    render_full_report,
    render_funnel,
    render_table1,
    render_table2,
    render_table3,
)
from repro.analysis.study import StudyAnalysis, StudyConfig
from repro.detection.pipeline import DetectionPipeline
from repro.dnscore.errors import NameError_
from repro.whois.archive import WhoisArchive
from repro.zonedb.archive import read_archive, write_archive


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2021, help="scenario seed")
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="world scale relative to the canonical 1:100 scenario",
    )
    parser.add_argument(
        "--config", help="scenario JSON file (overrides --seed/--scale)"
    )


def _resolve_config(args: argparse.Namespace):
    """The scenario the command should run (file > seed/scale flags)."""
    from repro.ecosystem.config import default_scenario

    if getattr(args, "config", None):
        from repro.ecosystem.scenario_io import load_scenario

        return load_scenario(args.config)
    config = default_scenario(args.seed)
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    return config


def _run_bundle(args: argparse.Namespace):
    """Build a full bundle from the resolved scenario.

    A scenario with non-zero fault rates is replayed through the
    degraded-data plane: the world runs pristine, its observables are
    fault-injected, and detection/study consume the degraded view.
    """
    from repro.analysis.study import StudyAnalysis
    from repro.api import ReproBundle
    from repro.detection.pipeline import DetectionPipeline
    from repro.ecosystem.world import World

    config = _resolve_config(args)
    world = World(config).run()
    zonedb, whois = world.zonedb, world.whois
    if config.faults.enabled:
        from repro.faults.apply import degrade_world

        print(
            f"Degrading observables (fault seed={config.faults.seed})...",
            file=sys.stderr,
        )
        degraded = degrade_world(world, config.faults)
        zonedb, whois = degraded.zonedb, degraded.whois
    pipeline = DetectionPipeline(zonedb, whois).run()
    study = StudyAnalysis(pipeline, zonedb, whois)
    return ReproBundle(world=world, pipeline=pipeline, study=study)


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the full paper report."""
    bundle = _run_bundle(args)
    print(render_full_report(bundle.pipeline, bundle.study))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run the world and write its observable data sets to disk."""
    from repro.ecosystem.world import World
    from repro.store.artifacts import scenario_digest
    from repro.store.dataset import write_dataset

    config = _resolve_config(args)
    print(f"Simulating (seed={config.seed})...", file=sys.stderr)
    result = World(config).run()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sample_days = list(range(0, config.end_day, args.every)) + [config.end_day - 1]
    snapshots = []
    for day in sample_days:
        for tld in sorted(result.zonedb.covered_tlds):
            snapshot = result.zonedb.snapshot_at(day, tld)
            if snapshot.delegations:
                snapshots.append(snapshot)
    paths = write_archive(out / "zones", snapshots)
    epochs = result.whois.dump(out / "whois.jsonl")
    digest = scenario_digest(config)
    dataset_path = write_dataset(
        result.zonedb, out / "dataset.sqlite", scenario_digest=digest
    )
    print(
        f"Wrote {len(paths)} zone files ({len(sample_days)} sampled days, "
        f"{len(result.zonedb.covered_tlds)} TLDs) and {epochs} WHOIS epochs "
        f"to {out}",
        file=sys.stderr,
    )
    print(
        f"Wrote SQLite dataset {dataset_path} "
        f"(scenario digest {digest[:12]}…)",
        file=sys.stderr,
    )
    if args.world_json:
        from repro.ecosystem.scenario_io import save_world

        world_path = save_world(result, args.world_json)
        print(f"Wrote world dump to {world_path}", file=sys.stderr)
    return 0


def _detect_zonedb(args: argparse.Namespace):
    """The zone database ``riskybiz detect`` should analyze, or None.

    Either opens the on-disk SQLite dataset (``--dataset``) or ingests a
    zone-file archive (``--archive``) into the in-memory store.
    """
    from repro.zonedb.database import IngestError, IngestPolicy

    policy = IngestPolicy(gap_bridge_days=args.gap_bridge, strict=args.strict)
    if args.dataset:
        from repro.store.dataset import open_dataset

        try:
            zonedb = open_dataset(args.dataset, ingest_policy=policy)
        except FileNotFoundError as error:
            print(f"error: {error}", file=sys.stderr)
            return None
        digest = zonedb.store.get_meta("scenario_digest")
        suffix = f" (scenario digest {digest[:12]}…)" if digest else ""
        print(f"Opened dataset {args.dataset}{suffix}", file=sys.stderr)
        return zonedb
    print(f"Ingesting zone archive {args.archive}...", file=sys.stderr)
    try:
        return read_archive(args.archive, ingest_policy=policy)
    except IngestError as error:
        print(f"error: strict ingest failed: {error}", file=sys.stderr)
        return None


def _load_whois(path: str | None) -> WhoisArchive | None:
    """The archive ``--whois`` names (an empty one without it), or None
    after reporting why the file could not be read."""
    if not path:
        return WhoisArchive()
    try:
        return WhoisArchive.load(path)
    except OSError as error:
        print(f"error: {path}: {error.strerror}", file=sys.stderr)
    except (KeyError, ValueError, NameError_) as error:
        # ``load`` gives each the message "line N: reason".
        print(f"error: {path}: {error.args[0]}", file=sys.stderr)
    return None


def _detect_run(args: argparse.Namespace, zonedb, whois):
    """Run detection journaled in ``--run-dir``.

    A fresh run folds the whole data set once and checkpoints the
    engine; ``--resume <run-id>`` restarts exactly the work that did
    not durably complete. Returns the pipeline result, or None on a
    runner error (already reported).
    """
    from repro.runner import RunFailed, run_incremental_detection

    try:
        outcome = run_incremental_detection(
            zonedb,
            whois,
            run_dir=args.run_dir,
            mine_patterns=args.mine_patterns,
            options={"gap_bridge": args.gap_bridge, "strict": args.strict},
            resume=args.resume,
            trace=args.trace,
            profile=args.profile,
        )
    except RunFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    verb = "Resumed" if outcome.resumed else "Completed"
    print(
        f"{verb} run {outcome.run_id} at watermark {outcome.watermark}; "
        f"journal at {outcome.journal_path}",
        file=sys.stderr,
    )
    if args.trace:
        from repro.runner.execution import METRICS_NAME, TRACE_NAME

        run_dir = Path(args.run_dir)
        print(
            f"Trace at {run_dir / TRACE_NAME}, metrics at "
            f"{run_dir / METRICS_NAME} (inspect with `riskybiz trace "
            f"--run-dir {run_dir}`)",
            file=sys.stderr,
        )
    return outcome.result


def cmd_detect(args: argparse.Namespace) -> int:
    """Run the detection methodology against an on-disk dataset/archive."""
    if not args.dataset and not args.archive:
        print("error: one of --dataset or --archive is required", file=sys.stderr)
        return 2
    if args.resume and not args.run_dir:
        print("error: --resume requires --run-dir", file=sys.stderr)
        return 2
    if (args.trace or args.profile) and not args.run_dir:
        print(
            "error: --trace/--profile require --run-dir (telemetry lives "
            "next to the run journal)",
            file=sys.stderr,
        )
        return 2
    whois = _load_whois(args.whois)
    if whois is None:
        return 1
    zonedb = _detect_zonedb(args)
    if zonedb is None:
        return 1
    if zonedb.nameserver_count() == 0:
        print("error: data set contains no delegations", file=sys.stderr)
        return 1
    if args.run_dir:
        result = _detect_run(args, zonedb, whois)
        if result is None:
            return 1
        return _render_detect(args, result, zonedb, whois)
    result = DetectionPipeline(
        zonedb, whois, mine_patterns=args.mine_patterns
    ).run()
    return _render_detect(args, result, zonedb, whois)


def _render_detect(args: argparse.Namespace, result, zonedb, whois) -> int:
    """Print the detect command's funnel, patterns, and study tables."""
    print(render_funnel(result))
    if result.coverage.degraded:
        from repro.analysis.report import render_coverage

        print()
        print(render_coverage(result))
    if args.mine_patterns and result.mined_patterns:
        print("\nTop mined substrings:")
        for pattern in result.mined_patterns[:15]:
            print(f"  {pattern.substring!r}  x{pattern.support}")
    study = StudyAnalysis(
        result, zonedb, whois, StudyConfig(study_end=zonedb.horizon)
    )
    print()
    print(render_table1(study))
    print()
    print(render_table2(study))
    print()
    print(render_table3(study))
    return 0


def cmd_advance(args: argparse.Namespace) -> int:
    """Fold new dataset days into a standing incremental detection run.

    The daily-update entry point: point it at the same dataset and run
    directory every day and exactly the day batches recorded past the
    run's durable watermark are folded in, at once, against the dataset
    read as of the newest of them — the result is bit-identical to
    re-running ``riskybiz detect`` from scratch, without re-reading
    history (a dataset whose delta stream rewrites earlier days is read
    through a replica of it). The run ID is read from the journal's first
    record, so no ``--resume`` bookkeeping is needed, and the runner
    checks the journal with one SHA-256 of the bytes before its newest
    record. Each invocation writes one engine checkpoint for everything
    it folded; the dataset is opened read-only.
    """
    from repro.runner import JournalCorruption, RunFailed, run_incremental_detection
    from repro.runner.execution import JOURNAL_NAME
    from repro.runner.journal import journal_run_id
    from repro.store.dataset import open_dataset

    whois = _load_whois(args.whois)
    if whois is None:
        return 1
    try:
        zonedb = open_dataset(args.dataset)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    run_dir = Path(args.run_dir)
    journal_path = run_dir / JOURNAL_NAME
    try:
        resume = (
            journal_run_id(journal_path) if journal_path.exists() else None
        )
        outcome = run_incremental_detection(
            zonedb,
            whois,
            run_dir=run_dir,
            until=args.until,
            mine_patterns=args.mine_patterns,
            resume=resume,
        )
    except (RunFailed, JournalCorruption) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if outcome.days_advanced:
        print(
            f"Run {outcome.run_id}: advanced {outcome.days_advanced} day(s), "
            f"{outcome.deltas_applied} delta(s); watermark now "
            f"{outcome.watermark}",
            file=sys.stderr,
        )
    else:
        print(
            f"Run {outcome.run_id}: already current at watermark "
            f"{outcome.watermark}; nothing to fold",
            file=sys.stderr,
        )
    print(render_funnel(outcome.result))
    print(f"\nResult digest: {outcome.result_digest}")
    return 0


def cmd_verify_data(args: argparse.Namespace) -> int:
    """Recompute and check every recorded digest over on-disk state."""
    from repro.store.verify import (
        issues_as_json,
        render_issues,
        verify_dataset,
        verify_run_dir,
    )

    if not (args.dataset or args.run_dir):
        print(
            "error: nothing to verify; pass --dataset and/or --run-dir",
            file=sys.stderr,
        )
        return 2
    issues = []
    if args.dataset:
        issues.extend(verify_dataset(args.dataset))
    if args.run_dir:
        issues.extend(verify_run_dir(args.run_dir))
    print(
        issues_as_json(issues) if args.format == "json" else render_issues(issues)
    )
    return 1 if issues else 0


def cmd_chaos_smoke(args: argparse.Namespace) -> int:
    """One seeded kill-and-resume trial; non-zero unless bit-identical."""
    from repro.runner import run_kill_resume_trial

    print(
        f"Chaos trial: backend={args.backend} scale={args.scale} "
        f"seed={args.seed} chaos-seed={args.chaos_seed} kills<={args.kills}",
        file=sys.stderr,
    )
    report = run_kill_resume_trial(
        workdir=args.out,
        scale=args.scale,
        seed=args.seed,
        backend=args.backend,
        chaos_seed=args.chaos_seed,
        max_kills=args.kills,
        trace=args.trace,
    )
    print(f"kills injected : {report.kills}")
    for site, label in report.kill_sites:
        print(f"  killed at    : {site}:{label}")
    print(f"resumes        : {report.resumes}")
    print(f"baseline digest: {report.baseline_digest[:16]}…")
    print(f"chaos digest   : {report.chaos_digest[:16]}…")
    print(f"bit-identical  : {report.bit_identical}")
    if report.baseline_trace_digest is not None:
        print(f"baseline trace : {report.baseline_trace_digest[:16]}…")
        print(f"chaos trace    : {report.chaos_trace_digest[:16]}…")
        print(f"traces match   : {report.traces_identical}")
    if report.verify_issues:
        print("verify-data issues:")
        for issue in report.verify_issues:
            print(f"  {issue}")
    return 0 if report.passed else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect or validate the telemetry of a journaled run directory."""
    import json

    from repro.obs.reporters import render_trace_json, render_trace_text
    from repro.obs.schema import validate_metrics_file, validate_trace_file
    from repro.obs.tracer import TraceCorruption, read_trace
    from repro.runner.execution import METRICS_NAME, TRACE_NAME

    run_dir = Path(args.run_dir)
    trace_path = run_dir / TRACE_NAME
    metrics_path = run_dir / METRICS_NAME
    if args.validate:
        issues = list(validate_trace_file(trace_path))
        if metrics_path.exists():
            issues.extend(validate_metrics_file(metrics_path))
        for issue in issues:
            print(issue)
        print(f"{len(issues)} issue(s)")
        return 1 if issues else 0
    if not trace_path.exists():
        print(
            f"error: no trace at {trace_path} "
            "(run `riskybiz detect --run-dir ... --trace` first)",
            file=sys.stderr,
        )
        return 1
    try:
        records = read_trace(trace_path)
    except TraceCorruption as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    metrics_document = None
    if metrics_path.exists():
        metrics_document = json.loads(metrics_path.read_text(encoding="utf-8"))
    print(
        render_trace_json(records, metrics_document)
        if args.format == "json"
        else render_trace_text(records, metrics_document)
    )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Run the reproduction and export every figure's data as CSV."""
    from repro.analysis.export import export_all

    bundle = _run_bundle(args)
    paths = export_all(bundle.study, args.out)
    for path in paths:
        print(path)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run the §6.1 controlled experiment."""
    from repro.experiment.controlled import run_controlled_experiment

    bundle = _run_bundle(args)
    report = run_controlled_experiment(bundle.world, bundle.study)
    print(f"sacrificial domain      : {report.sacrificial_domain}")
    print(f"victim domains          : {len(report.delegated_domains)}")
    print(f"restricted-TLD victims  : {len(report.restricted_tld_domains)}")
    print(f"queries observed        : {report.queries_observed}")
    print(f"restricted-TLD queries  : {report.restricted_queries_observed}")
    print(f"scoped answer           : {report.scoped_answer}")
    print(f"outside-scope status    : {report.outside_answer_status}")
    print(f"hijack demonstrated     : {report.hijack_demonstrated}")
    print(f"log records purged      : {report.logs_purged}")
    return 0


def cmd_faults_sweep(args: argparse.Namespace) -> int:
    """Sweep detection accuracy across uniform degradation rates."""
    from repro.experiment.degradation import render_sweep, run_degradation_sweep

    try:
        rates = [float(token) for token in args.rates.split(",") if token.strip()]
    except ValueError:
        print(f"error: --rates must be comma-separated numbers, got "
              f"{args.rates!r}", file=sys.stderr)
        return 2
    if not rates:
        print("error: --rates is empty", file=sys.stderr)
        return 2
    print(
        f"Sweeping fault rates {rates} (seed={args.seed}, scale={args.scale})...",
        file=sys.stderr,
    )
    report = run_degradation_sweep(
        rates,
        seed=args.seed,
        scale=args.scale,
        every=args.every,
        checkpoint_dir=args.checkpoint_dir,
    )
    print(render_sweep(report))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis gate (code, scenario, typestate engines)."""
    from repro.lint.baseline import Baseline
    from repro.lint.reporters import render_json, render_text
    from repro.lint.runner import run_lint

    if args.fix or args.fix_diff:
        from repro.lint.fixes import apply_fixes, plan_fixes

        try:
            fixes = plan_fixes(
                args.paths,
                root=args.root,
                use_baseline=not args.no_baseline,
            )
        except (FileNotFoundError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        changed = [fix for fix in fixes if fix.changed]
        if args.fix_diff:
            for fix in changed:
                print(fix.unified_diff(), end="")
            print(
                f"{len(changed)} file(s) would change "
                f"({sum(len(f.applied) for f in changed)} fix(es))",
                file=sys.stderr,
            )
            return 0
        apply_fixes(changed)
        for fix in changed:
            print(f"fixed {fix.path}: {len(fix.applied)} finding(s)")
        for fix in fixes:
            for diagnostic, reason in fix.skipped:
                print(
                    f"skipped {diagnostic.rule_id} at {fix.path}:"
                    f"{diagnostic.line}: {reason}",
                    file=sys.stderr,
                )
        print(f"fixed {len(changed)} file(s)", file=sys.stderr)
        # Fall through to a fresh lint run so the exit code reflects
        # what remains after the rewrite.

    try:
        result = run_lint(
            args.paths,
            root=args.root,
            use_baseline=not args.no_baseline,
            select=args.select.split(",") if args.select else (),
            ignore=args.ignore.split(",") if args.ignore else (),
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.prune_baseline:
        from repro.lint.config import load_config

        config = load_config(args.root)
        stale = {entry.fingerprint for entry in result.stale_baseline_entries}
        if stale:
            current = Baseline.load(config.baseline_path())
            kept = Baseline(
                entries=tuple(
                    entry for entry in current.entries
                    if entry.fingerprint not in stale
                )
            )
            kept.save(config.baseline_path())
        print(
            f"Pruned {len(stale)} stale entr(y/ies) from "
            f"{config.baseline_path()}",
            file=sys.stderr,
        )
        remaining = [d for d in result.errors if d.rule_id != "DET012"]
        return 1 if remaining else 0
    if args.write_baseline:
        from repro.lint.config import load_config

        config = load_config(args.root)
        merged = Baseline.load(config.baseline_path()).merged_with(
            Baseline.from_diagnostics(result.errors)
        )
        merged.save(config.baseline_path())
        print(
            f"Recorded {len(result.errors)} finding(s) in "
            f"{config.baseline_path()}; replace the placeholder reasons "
            "with real justifications",
            file=sys.stderr,
        )
        return 0
    print(render_json(result) if args.format == "json" else render_text(result))
    return result.exit_code


def cmd_scenario(args: argparse.Namespace) -> int:
    """Dump the resolved scenario as a reusable JSON file."""
    from repro.ecosystem.scenario_io import save_scenario

    path = save_scenario(_resolve_config(args), args.out)
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="riskybiz",
        description="Risky BIZness (IMC 2021) reproduction tool chain",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser(
        "report", help="regenerate every table and figure"
    )
    _add_world_args(report)
    report.set_defaults(func=cmd_report)

    simulate = subparsers.add_parser(
        "simulate", help="run the world and write zone/WHOIS archives"
    )
    _add_world_args(simulate)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument(
        "--every", type=int, default=30,
        help="snapshot sampling interval in days (default: 30)",
    )
    simulate.add_argument(
        "--world-json", metavar="FILE",
        help="also write a static world dump (object lifecycles, "
             "delegation intervals, renames) for `riskybiz lint`",
    )
    simulate.set_defaults(func=cmd_simulate)

    detect = subparsers.add_parser(
        "detect", help="run the detection methodology on a dataset/archive"
    )
    detect.add_argument(
        "--archive", help="zone archive directory (zone-file ingestion)"
    )
    detect.add_argument(
        "--dataset", metavar="FILE",
        help="SQLite dataset written by `riskybiz simulate` "
             "(alternative to --archive)",
    )
    detect.add_argument("--whois", help="WHOIS JSON-lines file")
    detect.add_argument(
        "--mine-patterns", action="store_true",
        help="also run the substring pattern miner",
    )
    detect.add_argument(
        "--gap-bridge", type=int, default=0, metavar="DAYS",
        help="keep delegations open across snapshot gaps of up to DAYS "
             "(default: 0, strict day-level diffing)",
    )
    detect.add_argument(
        "--strict", action="store_true",
        help="fail on degraded input instead of skipping and counting it",
    )
    detect.add_argument(
        "--run-dir", metavar="DIR",
        help="execute as a journaled run: the journal, one engine "
             "checkpoint and the result digest are written under DIR",
    )
    detect.add_argument(
        "--resume", metavar="RUN_ID",
        help="resume the journaled run RUN_ID in --run-dir, re-executing "
             "only work that did not durably complete",
    )
    detect.add_argument(
        "--trace", action="store_true",
        help="write a span trace (trace.jsonl) and metrics snapshot "
             "(metrics.json) into --run-dir; content stays bit-identical "
             "across resumes, timings live in telemetry-only fields",
    )
    detect.add_argument(
        "--profile", action="store_true",
        help="also record per-stage wall time and tracemalloc peaks "
             "into the metrics snapshot (needs --run-dir; adds overhead)",
    )
    detect.set_defaults(func=cmd_detect)

    advance = subparsers.add_parser(
        "advance",
        help="fold new dataset days into a standing incremental "
             "detection run (daily update; batch-identical result)",
    )
    advance.add_argument(
        "--dataset", required=True, metavar="FILE",
        help="SQLite dataset written by `riskybiz simulate` (its "
             "recorded delta stream drives the fold)",
    )
    advance.add_argument("--whois", help="WHOIS JSON-lines file")
    advance.add_argument(
        "--run-dir", required=True, metavar="DIR",
        help="the standing run's directory (journal + engine checkpoint); "
             "created on first use, resumed automatically after",
    )
    advance.add_argument(
        "--until", type=int, metavar="DAY",
        help="fold only batches recorded up to DAY (default: drain the "
             "whole stream)",
    )
    advance.add_argument(
        "--mine-patterns", action="store_true",
        help="also maintain the substring pattern miner's standing name multiset",
    )
    advance.set_defaults(func=cmd_advance)

    experiment = subparsers.add_parser(
        "experiment", help="run the controlled hijack experiment (§6.1)"
    )
    _add_world_args(experiment)
    experiment.set_defaults(func=cmd_experiment)

    export = subparsers.add_parser(
        "export", help="export every figure's data series as CSV"
    )
    _add_world_args(export)
    export.add_argument("--out", required=True, help="output directory")
    export.set_defaults(func=cmd_export)

    sweep = subparsers.add_parser(
        "faults-sweep",
        help="measure detection precision/recall under increasing data faults",
    )
    sweep.add_argument("--seed", type=int, default=2021, help="scenario seed")
    sweep.add_argument(
        "--scale", type=float, default=0.1,
        help="world scale for the sweep (default: 0.1)",
    )
    sweep.add_argument(
        "--rates", default="0,0.05,0.1,0.2",
        help="comma-separated uniform fault rates (default: 0,0.05,0.1,0.2)",
    )
    sweep.add_argument(
        "--every", type=int, default=7,
        help="snapshot sampling interval in days (default: 7)",
    )
    sweep.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="checkpoint per-rate results to DIR and resume from them",
    )
    sweep.set_defaults(func=cmd_faults_sweep)

    scenario = subparsers.add_parser(
        "scenario", help="write the scenario a run would use as JSON"
    )
    _add_world_args(scenario)
    scenario.add_argument("--out", required=True, help="output JSON file")
    scenario.set_defaults(func=cmd_scenario)

    lint = subparsers.add_parser(
        "lint", help="run determinism and scenario static analysis"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--root", default=".",
        help="project root holding pyproject.toml and the baseline "
             "(default: current directory)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run exclusively",
    )
    lint.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report baselined findings too",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="record current errors into the baseline file instead of "
             "failing on them",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="apply the mechanical fixes (DET004/DET006/DET007), then "
             "re-lint; baselined findings are never rewritten",
    )
    lint.add_argument(
        "--fix-diff", action="store_true",
        help="print the unified diff --fix would apply, without writing",
    )
    lint.add_argument(
        "--prune-baseline", action="store_true",
        help="drop baseline entries flagged stale by DET012",
    )
    lint.set_defaults(func=cmd_lint)

    verify = subparsers.add_parser(
        "verify-data",
        help="recompute recorded digests over datasets and runs",
    )
    verify.add_argument(
        "--dataset", metavar="FILE",
        help="SQLite dataset to verify against its manifest",
    )
    verify.add_argument(
        "--run-dir", metavar="DIR",
        help="run directory to verify (journal, checkpoint, "
             "result)",
    )
    verify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    verify.set_defaults(func=cmd_verify_data)

    chaos = subparsers.add_parser(
        "chaos-smoke",
        help="seeded kill-and-resume trial: crash, resume, compare bits",
    )
    chaos.add_argument("--seed", type=int, default=2021, help="scenario seed")
    chaos.add_argument(
        "--scale", type=float, default=0.1,
        help="world scale for the trial (default: 0.1)",
    )
    chaos.add_argument(
        "--backend", choices=("memory", "sqlite"), default="sqlite",
        help="store backend the trial runs against (default: sqlite)",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the kill-schedule RNG streams (default: 0)",
    )
    chaos.add_argument(
        "--kills", type=int, default=5,
        help="kill budget for the trial (default: 5)",
    )
    chaos.add_argument(
        "--out", required=True, metavar="DIR",
        help="working directory for the trial's runs and datasets",
    )
    chaos.add_argument(
        "--trace", action="store_true",
        help="trace both runs and require their canonical trace content "
             "to converge as well",
    )
    chaos.set_defaults(func=cmd_chaos_smoke)

    trace = subparsers.add_parser(
        "trace",
        help="inspect the trace/metrics a journaled --trace run wrote",
    )
    trace.add_argument(
        "--run-dir", required=True, metavar="DIR",
        help="run directory holding trace.jsonl/metrics.json",
    )
    trace.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    trace.add_argument(
        "--validate", action="store_true",
        help="schema-validate trace.jsonl and metrics.json instead of "
             "rendering them; non-zero exit on any issue",
    )
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
