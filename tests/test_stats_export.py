"""Tests for data-set statistics and CSV exports."""

import csv
from collections import Counter

import pytest

from repro.analysis.export import export_all
from repro.dnscore.names import Name
from repro.store.dataset import open_dataset, write_dataset
from repro.zonedb.database import ZoneDatabase
from repro.zonedb.stats import DatasetStats, dataset_stats


def per_key_stats(zonedb):
    """The oracle: ``dataset_stats`` as one query per domain and nameserver."""
    per_tld: Counter[str] = Counter()
    delegation_records = 0
    multi_ns = 0
    total_domains = 0
    for domain in zonedb.all_domains():
        total_domains += 1
        per_tld[Name(domain).tld] += 1
        records = zonedb.domain_records(domain)
        delegation_records += len(records)
        if len({record.ns for record in records}) > 1:
            multi_ns += 1
    ns_loads = sorted(
        len({record.domain for record in zonedb.ns_records(ns)})
        for ns in zonedb.all_nameservers()
    )
    median = float(ns_loads[len(ns_loads) // 2]) if ns_loads else 0.0
    return DatasetStats(
        covered_tlds=tuple(sorted(zonedb.covered_tlds)),
        total_domains=total_domains,
        total_nameservers=zonedb.nameserver_count(),
        observation_days=zonedb.horizon,
        domains_per_tld=dict(per_tld),
        delegation_records=delegation_records,
        median_domains_per_ns=median,
        max_domains_per_ns=ns_loads[-1] if ns_loads else 0,
        multi_ns_domain_fraction=(multi_ns / total_domains) if total_domains else 0.0,
    )


class TestDatasetStats:
    @pytest.fixture()
    def db(self):
        database = ZoneDatabase(["com", "org"])
        database.set_delegation(0, "a.com", ["ns1.x.net", "ns2.x.net"])
        database.set_delegation(5, "b.com", ["ns1.x.net"])
        database.set_delegation(5, "c.org", ["ns1.y.net"])
        database.advance(100)
        return database

    def test_counts(self, db):
        stats = dataset_stats(db)
        assert stats.total_domains == 3
        assert stats.total_nameservers == 3
        assert stats.domains_per_tld == {"com": 2, "org": 1}
        assert stats.observation_days == 100
        assert stats.delegation_records == 4

    def test_ns_load_distribution(self, db):
        stats = dataset_stats(db)
        assert stats.max_domains_per_ns == 2  # ns1.x.net serves a+b
        assert stats.median_domains_per_ns >= 1

    def test_multi_ns_fraction(self, db):
        stats = dataset_stats(db)
        assert stats.multi_ns_domain_fraction == pytest.approx(1 / 3)

    def test_rows_render(self, db):
        rows = dataset_stats(db).rows()
        labels = [label for label, _v in rows]
        assert "distinct domains" in labels
        assert "  .com domains" in labels

    def test_empty_database(self):
        stats = dataset_stats(ZoneDatabase())
        assert stats.total_domains == 0
        assert stats.median_domains_per_ns == 0.0

    def test_world_scale_sanity(self, tiny_bundle):
        stats = dataset_stats(tiny_bundle.world.zonedb)
        assert stats.total_domains > 500
        assert stats.domains_per_tld.get("com", 0) > stats.domains_per_tld.get("us", 0)


class TestDatasetStatsOracle:
    @pytest.fixture(params=["memory", "sqlite"])
    def world_db(self, request, tiny_bundle, tmp_path):
        if request.param == "memory":
            yield tiny_bundle.world.zonedb
            return
        dataset = write_dataset(tiny_bundle.world.zonedb, tmp_path / "ds.sqlite")
        database = open_dataset(dataset)
        yield database
        database.close()

    def test_passes_equal_the_per_key_loop(self, world_db):
        stats, oracle = dataset_stats(world_db), per_key_stats(world_db)
        assert stats == oracle
        # Row order breaks count ties by first-seen TLD order.
        assert list(stats.domains_per_tld) == list(oracle.domains_per_tld)
        assert stats.rows() == oracle.rows()


class TestExports:
    @pytest.fixture(scope="class")
    def exported(self, tiny_bundle, tmp_path_factory):
        out = tmp_path_factory.mktemp("csv")
        paths = export_all(tiny_bundle.study, out)
        return {path.name: path for path in paths}

    def test_all_files_written(self, exported):
        assert set(exported) == {
            "figure3_new_hijackable_per_month.csv",
            "figure4_new_hijacked_per_month.csv",
            "figure5_value_scatter.csv",
            "figure6_time_to_exploit.csv",
            "figure7_durations.csv",
            "tables_idioms.csv",
        }

    def _read(self, path):
        with path.open() as handle:
            return list(csv.DictReader(handle))

    def test_figure3_matches_series(self, exported, tiny_bundle):
        from repro.analysis.exposure import new_hijackable_per_month
        rows = self._read(exported["figure3_new_hijackable_per_month.csv"])
        series = new_hijackable_per_month(tiny_bundle.study)
        assert len(rows) == len(series)
        total_csv = sum(int(r["new_hijackable_domains"]) for r in rows)
        assert total_csv == sum(series.values())

    def test_figure5_flags_are_binary(self, exported):
        rows = self._read(exported["figure5_value_scatter.csv"])
        assert rows
        assert {r["hijacked"] for r in rows} <= {"0", "1"}

    def test_figure6_has_both_populations(self, exported):
        rows = self._read(exported["figure6_time_to_exploit.csv"])
        populations = {r["population"] for r in rows}
        assert populations == {"nameserver", "domain"}

    def test_figure7_has_three_curves(self, exported):
        rows = self._read(exported["figure7_durations.csv"])
        assert {r["curve"] for r in rows} == {
            "hijackable_never_hijacked", "hijackable_hijacked", "hijacked"
        }

    def test_tables_split_by_hijackable(self, exported):
        rows = self._read(exported["tables_idioms.csv"])
        assert {r["hijackable"] for r in rows} == {"0", "1"}
