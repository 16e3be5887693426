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


class TestDetectRunDir:
    def test_resume_over_another_dataset_is_refused(
        self, tiny_bundle, tmp_path, capsys
    ):
        """A run directory fingerprints its inputs: resuming it over a
        different dataset fails loudly instead of reusing its result."""
        from repro.runner.execution import JOURNAL_NAME
        from repro.runner.journal import RunJournal
        from repro.store.dataset import write_dataset

        first, second = tmp_path / "first.sqlite", tmp_path / "second.sqlite"
        write_dataset(tiny_bundle.world.zonedb, first, scenario_digest="aa" * 32)
        write_dataset(tiny_bundle.world.zonedb, second, scenario_digest="bb" * 32)
        run_dir = tmp_path / "run"
        assert main([
            "detect", "--dataset", str(first), "--run-dir", str(run_dir),
        ]) == 0
        run_id = RunJournal.open(run_dir / JOURNAL_NAME).run_id
        capsys.readouterr()
        assert main([
            "detect", "--dataset", str(second), "--run-dir", str(run_dir),
            "--resume", run_id,
        ]) == 1
        assert "run inputs changed" in capsys.readouterr().err


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
        code = main([
            command, "--dataset", str(tmp_path / "missing.sqlite"),
            "--whois", str(whois), "--run-dir", str(run_dir),
        ])
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
        assert finding["detail"].startswith(f"{journal}: record 2 was changed")
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
        assert findings[0]["detail"].startswith(
            f"{journal}: record 4 failed verification"
        )

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
