"""Tests for the command-line interface and WHOIS serialization."""

import json

import pytest

from repro.cli import build_parser, main
from repro.whois.archive import WhoisArchive


class TestWhoisSerialization:
    @pytest.fixture()
    def archive(self):
        whois = WhoisArchive()
        whois.record_registration(
            "foo.com", "godaddy", day=0, period_years=2, registrant="Alice"
        )
        whois.record_deletion("foo.com", day=100)
        whois.record_registration("foo.com", "enom", day=150)
        whois.record_registration("bar.biz", "bulkreg", day=7)
        return whois

    def test_json_lines_are_valid(self, archive):
        lines = list(archive.to_json_lines())
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_round_trip(self, archive, tmp_path):
        path = tmp_path / "whois.jsonl"
        assert archive.dump(path) == 3
        restored = WhoisArchive.load(path)
        assert restored.registrar_at("foo.com", 50) == "godaddy"
        assert restored.registrar_at("foo.com", 200) == "enom"
        assert restored.registrar_at("bar.biz", 10) == "bulkreg"
        assert restored.current("foo.com", 120) is None

    def test_last_registrar_before(self, archive):
        assert archive.last_registrar_before("foo.com", 120) == "godaddy"
        assert archive.last_registrar_before("foo.com", 500) == "enom"
        assert archive.last_registrar_before("ghost.com", 10) is None


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["report"],
            ["simulate", "--out", "x"],
            ["detect", "--archive", "x"],
            ["experiment"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--dataset", "x", "--run-dir", "run"],
            ["detect", "--dataset", "x", "--trace"],
            ["trace", "--run-dir", "run", "--validate"],
        ],
        ids=["detect-run-dir", "detect-trace", "trace-validate"],
    )
    def test_removed_options_are_unknown(self, argv, capsys):
        """``advance`` is the one journaled run and ``verify-data`` the
        one checker of a run directory."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.seed == 2021
        assert args.scale == 0.25


class TestSimulateDetectRoundTrip:
    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("simout")
        code = main([
            "simulate", "--out", str(out),
            "--scale", "0.1", "--every", "60",
        ])
        assert code == 0
        return out

    def test_archive_written(self, simulated):
        assert (simulated / "whois.jsonl").exists()
        zones = list((simulated / "zones").rglob("*.zone"))
        assert len(zones) > 100

    def test_detect_from_disk(self, simulated, capsys):
        code = main([
            "detect",
            "--archive", str(simulated / "zones"),
            "--whois", str(simulated / "whois.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Detection pipeline funnel" in out
        assert "Table 3" in out
        assert "PLEASEDROPTHISHOST" in out

    def test_detect_attributes_registrars_from_whois(self, simulated, capsys):
        main([
            "detect",
            "--archive", str(simulated / "zones"),
            "--whois", str(simulated / "whois.jsonl"),
        ])
        out = capsys.readouterr().out
        table2 = out.split("Table 2")[1].split("Table 3")[0]
        assert "(unattributed)" not in table2

    def test_detect_empty_archive_fails(self, tmp_path, capsys):
        code = main(["detect", "--archive", str(tmp_path)])
        assert code == 1

    def test_detect_requires_a_source(self, capsys):
        assert main(["detect"]) == 2
        assert "--dataset or --archive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--gap-bridge", "30"], "--gap-bridge"),
            (["--strict"], "--strict"),
            (["--archive", "zones"], "--archive"),
        ],
        ids=["gap-bridge", "strict", "archive"],
    )
    def test_detect_dataset_refuses_ingest_flags(
        self, simulated, capsys, extra, flag
    ):
        """A dataset is read as written, never ingested: a flag that
        only shapes archive ingestion is refused, naming the flag."""
        code = main(
            ["detect", "--dataset", str(simulated / "dataset.sqlite")] + extra
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert flag in captured.err
        assert captured.out == ""

    def test_dataset_written_with_manifest(self, simulated):
        from repro.lint.scenario_engine import lint_scenario_data

        dataset = simulated / "dataset.sqlite"
        manifest = simulated / "dataset.sqlite.manifest.json"
        assert dataset.exists() and manifest.exists()
        doc = json.loads(manifest.read_text())
        assert doc["format"] == "riskybiz-dataset/1"
        assert len(doc["scenario_digest"]) == 64
        assert lint_scenario_data(doc, str(manifest)) == []

    def test_detect_from_dataset_is_repeatable(
        self, simulated, tmp_path, capsys
    ):
        """detect over the simulate-written SQLite dataset, no shared
        in-process world: a second invocation recomputes the identical
        report."""
        argv = [
            "detect",
            "--dataset", str(simulated / "dataset.sqlite"),
            "--whois", str(simulated / "whois.jsonl"),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Detection pipeline funnel" in captured.out
        assert "scenario digest" in captured.err

        assert main(argv) == 0
        assert capsys.readouterr().out == captured.out


class TestSimulateSampling:
    def test_reports_the_files_and_days_it_wrote(self, tmp_path, capsys):
        """The final day is sampled once even when the interval lands on
        it (3819 = 3 x 1273), and the summary counts what is on disk."""
        out = tmp_path / "sim"
        argv = ["simulate", "--out", str(out), "--scale", "0.02"]
        assert main(argv + ["--every", "1273"]) == 0
        zones = sorted((out / "zones").rglob("*.zone"))
        days = {int(path.stem) for path in zones}
        assert max(days) == 3819
        summary = capsys.readouterr().err
        assert f"Wrote {len(zones)} zone files ({len(days)} days, " in summary


class TestAdvanceRunDir:
    @pytest.fixture()
    def datasets(self, tiny_bundle, tmp_path):
        from repro.store.dataset import write_dataset

        first, second = tmp_path / "first.sqlite", tmp_path / "second.sqlite"
        write_dataset(tiny_bundle.world.zonedb, first, scenario_digest="aa" * 32)
        write_dataset(tiny_bundle.world.zonedb, second, scenario_digest="bb" * 32)
        return first, second

    def test_resume_over_another_dataset_is_refused(
        self, datasets, tmp_path, capsys
    ):
        """A run directory fingerprints its inputs: advancing it over a
        different dataset fails loudly instead of reusing its result."""
        from repro.runner.execution import JOURNAL_NAME

        first, second = datasets
        run_dir = tmp_path / "run"
        argv = ["advance", "--run-dir", str(run_dir), "--dataset"]
        assert main(argv + [str(first)]) == 0
        before = (run_dir / JOURNAL_NAME).read_bytes()
        capsys.readouterr()
        assert main(argv + [str(second)]) == 1
        assert "run inputs changed" in capsys.readouterr().err
        assert (run_dir / JOURNAL_NAME).read_bytes() == before

    def test_a_run_journaled_with_detect_options_is_refused(
        self, datasets, tmp_path, capsys
    ):
        """Runs once journaled with ``detect``'s ingest options
        fingerprint them: ``advance`` refuses such a directory, naming
        both run IDs, and changes no byte of it."""
        from repro.runner.execution import JOURNAL_NAME, compute_run_id
        from repro.runner.journal import RunJournal

        first, _second = datasets
        inputs = {
            "mode": "incremental",
            "backend": "memory",
            "mine_patterns": False,
        }
        detect_id = compute_run_id({
            "scenario_digest": "aa" * 32,
            **inputs,
            "options": {"gap_bridge": 0, "strict": False},
        })
        advance_id = compute_run_id(
            {"scenario_digest": "aa" * 32, **inputs, "options": {}}
        )
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        RunJournal.create(run_dir / JOURNAL_NAME, detect_id)
        before = (run_dir / JOURNAL_NAME).read_bytes()
        assert main([
            "advance", "--dataset", str(first), "--run-dir", str(run_dir),
        ]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: run inputs changed")
        assert detect_id in error and advance_id in error
        assert (run_dir / JOURNAL_NAME).read_bytes() == before
        assert [path.name for path in run_dir.iterdir()] == [JOURNAL_NAME]


class TestBadWhoisFile:
    """``detect`` and ``advance`` refuse a malformed WHOIS file with one
    line naming the file and the line, before they read the dataset."""

    @pytest.fixture()
    def whois(self, tiny_bundle, tmp_path):
        path = tmp_path / "whois.jsonl"
        tiny_bundle.world.whois.dump(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:-7]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", ["detect", "advance"])
    def test_truncated_line_is_reported(self, whois, tmp_path, capsys, command):
        run_dir = tmp_path / "run"
        argv = [
            command, "--dataset", str(tmp_path / "missing.sqlite"),
            "--whois", str(whois),
        ]
        if command == "advance":
            argv += ["--run-dir", str(run_dir)]
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {whois}: line 2: not JSON: "
        )
        assert not run_dir.exists()


def _space_after_comma(line: bytes) -> bytes:
    return line.replace(b", ", b",  ", 1)


def _same_seq_record(line: bytes) -> bytes:
    """Another valid record with the ``seq`` and ``prev`` of ``line``."""
    from repro.store.atomic import encode_checked_line

    document = json.loads(line)
    del document["checksum"]
    document["payload"]["day"] += 1
    return encode_checked_line(document)[:-1]


_EDITS = pytest.mark.parametrize(
    "edit", [_space_after_comma, _same_seq_record], ids=lambda edit: edit.__name__
)


class TestEditedJournal:
    """An edit to a run journal that keeps every record's checksum valid
    is refused by ``advance`` and reported by ``verify-data``, naming the
    changed record, and no byte of the journal changes."""

    @pytest.fixture(scope="class")
    def standing(self, tiny_bundle, tmp_path_factory):
        from repro.store.dataset import write_dataset

        root = tmp_path_factory.mktemp("standing")
        dataset, whois = root / "dataset.sqlite", root / "whois.jsonl"
        write_dataset(tiny_bundle.world.zonedb, dataset, scenario_digest="cc" * 32)
        tiny_bundle.world.whois.dump(whois)
        argv = ["advance", "--dataset", str(dataset), "--whois", str(whois)]
        run_dir = root / "run"
        assert main(argv + ["--run-dir", str(run_dir), "--until", "1500"]) == 0
        assert main(argv + ["--run-dir", str(run_dir)]) == 0
        return argv, run_dir

    def _edited(self, standing, tmp_path, edit):
        """A copy of the standing run with its third record edited."""
        import shutil

        from repro.runner.execution import JOURNAL_NAME

        run_dir = tmp_path / "edited"
        shutil.copytree(standing[1], run_dir)
        journal = run_dir / JOURNAL_NAME
        lines = journal.read_bytes().split(b"\n")
        assert json.loads(lines[2])["type"] == "day-advanced"
        lines[2] = edit(lines[2])
        journal.write_bytes(b"\n".join(lines))
        return run_dir, journal

    @_EDITS
    def test_advance_refuses_it(self, standing, tmp_path, capsys, edit):
        run_dir, journal = self._edited(standing, tmp_path, edit)
        before = journal.read_bytes()
        capsys.readouterr()
        assert main(standing[0] + ["--run-dir", str(run_dir)]) == 1
        error = capsys.readouterr().err
        assert error.startswith(f"error: {journal}: record 2 was changed")
        assert journal.read_bytes() == before

    @_EDITS
    def test_verify_data_reports_it(self, standing, tmp_path, capsys, edit):
        run_dir, journal = self._edited(standing, tmp_path, edit)
        before = journal.read_bytes()
        capsys.readouterr()
        argv = ["verify-data", "--run-dir", str(run_dir), "--format", "json"]
        assert main(argv) == 1
        (finding,) = json.loads(capsys.readouterr().out)
        assert (finding["kind"], finding["path"]) == ("corrupt", str(journal))
        assert finding["detail"].startswith("record 2 was changed")
        assert journal.read_bytes() == before


    def _forged(self, standing, tmp_path):
        """A copy of the standing run whose newest ``day-advanced``
        record fails its checksum, the record after it re-chained over
        the edit, a torn append after that and a pickle an older version
        left: only decoding that record tells."""
        import hashlib
        import shutil

        from repro.runner.execution import JOURNAL_NAME
        from repro.store.atomic import encode_checked_line

        run_dir = tmp_path / "forged"
        shutil.copytree(standing[1], run_dir)
        journal = run_dir / JOURNAL_NAME
        lines = journal.read_bytes().split(b"\n")
        assert [json.loads(line)["type"] for line in lines[4:6]] == [
            "day-advanced", "run-complete"
        ]
        lines[4] = lines[4].replace(b'"day": ', b'"day": 1', 1)
        final = json.loads(lines[5])
        del final["checksum"]
        final["prev"] = hashlib.sha256(b"\n".join(lines[:5]) + b"\n").hexdigest()
        lines[5] = encode_checked_line(final)[:-1]
        journal.write_bytes(b"\n".join(lines) + b'{"torn')
        (run_dir / "result.pkl").write_bytes(b"stale")
        return run_dir, journal

    def test_advance_refuses_a_forged_chain_before_a_byte_changes(
        self, standing, tmp_path, capsys
    ):
        run_dir, journal = self._forged(standing, tmp_path)
        before = journal.read_bytes()
        capsys.readouterr()
        assert main(standing[0] + ["--run-dir", str(run_dir)]) == 1
        error = capsys.readouterr().err
        assert error.startswith(f"error: {journal}: record 4 failed verification")
        assert journal.read_bytes() == before
        assert (run_dir / "result.pkl").read_bytes() == b"stale"

    def test_verify_data_reports_a_forged_chain(self, standing, tmp_path, capsys):
        run_dir, journal = self._forged(standing, tmp_path)
        capsys.readouterr()
        argv = ["verify-data", "--run-dir", str(run_dir), "--format", "json"]
        assert main(argv) == 1
        findings = json.loads(capsys.readouterr().out)
        assert (findings[0]["kind"], findings[0]["path"]) == ("corrupt", str(journal))
        assert findings[0]["detail"].startswith("record 4 failed verification")

class TestAdvanceTelemetry:
    """``advance --trace --profile`` keeps one trace across invocations;
    ``trace`` renders it and ``verify-data`` checks it."""

    @pytest.fixture(scope="class")
    def traced(self, tiny_bundle, tmp_path_factory):
        from repro.store.dataset import write_dataset

        root = tmp_path_factory.mktemp("traced")
        dataset, whois = root / "dataset.sqlite", root / "whois.jsonl"
        write_dataset(tiny_bundle.world.zonedb, dataset, scenario_digest="dd" * 32)
        tiny_bundle.world.whois.dump(whois)
        run_dir = root / "run"
        argv = [
            "advance", "--dataset", str(dataset), "--whois", str(whois),
            "--run-dir", str(run_dir), "--trace", "--profile",
        ]
        assert main(argv + ["--until", "1500"]) == 0
        assert main(argv) == 0
        return run_dir

    def test_one_trace_spans_both_invocations(self, traced):
        from repro.obs.tracer import read_trace
        from repro.runner.execution import METRICS_NAME, TRACE_NAME

        records = read_trace(traced / TRACE_NAME)
        assert [r.type for r in records].count("trace-start") == 1
        runs = [
            r for r in records if r.type == "span-end" and r.payload["path"] == "run"
        ]
        assert len(runs) == 2
        assert (traced / METRICS_NAME).exists()

    def test_trace_renders_it(self, traced, capsys):
        capsys.readouterr()
        assert main(["trace", "--run-dir", str(traced)]) == 0
        assert "engine.advance" in capsys.readouterr().out

    def test_verify_data_passes_it(self, traced, capsys):
        capsys.readouterr()
        assert main(["verify-data", "--run-dir", str(traced)]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_verify_data_reports_mid_file_damage(self, traced, tmp_path, capsys):
        import shutil

        from repro.runner.execution import TRACE_NAME

        run_dir = tmp_path / "damaged"
        shutil.copytree(traced, run_dir)
        trace = run_dir / TRACE_NAME
        lines = trace.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b'"span-', b'"spam-', 1)
        trace.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        argv = ["verify-data", "--run-dir", str(run_dir), "--format", "json"]
        assert main(argv) == 1
        (finding,) = json.loads(capsys.readouterr().out)
        assert (finding["kind"], finding["path"]) == ("corrupt", str(trace))
        assert finding["detail"].startswith("record 3 failed verification")


class TestExperimentCommand:
    def test_experiment_runs(self, capsys):
        code = main(["experiment", "--scale", "0.1", "--seed", "31"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hijack demonstrated" in out


class TestExportCommand:
    def test_export_writes_csvs(self, tmp_path, capsys):
        code = main(["export", "--out", str(tmp_path), "--scale", "0.1"])
        assert code == 0
        written = {p.name for p in tmp_path.glob("*.csv")}
        assert "figure5_value_scatter.csv" in written
        assert len(written) == 6


class TestScenarioConfig:
    def test_scenario_dump_and_reuse(self, tmp_path, capsys):
        config_path = tmp_path / "scenario.json"
        assert main([
            "scenario", "--out", str(config_path), "--scale", "0.1", "--seed", "5",
        ]) == 0
        assert config_path.exists()
        out_dir = tmp_path / "sim"
        assert main([
            "simulate", "--out", str(out_dir), "--config", str(config_path),
            "--every", "90",
        ]) == 0
        assert (out_dir / "whois.jsonl").exists()

    def test_round_trip_reproduces_world(self, tmp_path):
        from repro.ecosystem.config import default_scenario
        from repro.ecosystem.scenario_io import load_scenario, save_scenario
        from repro.ecosystem.world import World
        config = default_scenario(seed=12).scaled(0.1)
        path = save_scenario(config, tmp_path / "s.json")
        restored = load_scenario(path)
        a = World(config).run()
        b = World(restored).run()
        assert [r.new_name for r in a.log.renames] == [
            r.new_name for r in b.log.renames
        ]

    def test_unknown_idiom_type_rejected(self, tmp_path):
        import json
        from repro.ecosystem.config import default_scenario
        from repro.ecosystem.scenario_io import load_scenario, scenario_to_dict
        data = scenario_to_dict(default_scenario())
        data["registrars"][0]["idiom_schedule"][0][1]["type"] = "EvilIdiom"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_scenario(path)
