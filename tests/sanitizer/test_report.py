"""Unit tests for ASan-style crash reporting and deduplication."""

from repro.sanitizer import (
    CrashDatabase, CrashReport, SimSegv, report_from_fault,
)


class TestCrashReport:
    def test_summary_line_matches_asan_shape(self):
        """The paper's Listing 2 shows the ASan SUMMARY line format."""
        report = CrashReport("SEGV", "cs101_asdu.c:CS101_ASDU_getCOT",
                             "bad address", b"\x68\x05", "m")
        line = report.summary_line()
        assert line.startswith("SUMMARY: AddressSanitizer: SEGV")
        assert "CS101_ASDU_getCOT" in line

    def test_render_includes_hexdump_and_model(self):
        report = CrashReport("SEGV", "s", "d", bytes(range(20)), "iccp.read")
        text = report.render()
        assert "iccp.read" in text
        assert "00000000" in text  # hexdump offset column
        assert "20 bytes" in text

    def test_dedup_key_is_kind_and_site(self):
        a = CrashReport("SEGV", "site", "x", b"\x01")
        b = CrashReport("SEGV", "site", "y", b"\x02")
        assert a.dedup_key == b.dedup_key

    def test_report_from_fault(self):
        fault = SimSegv("modbus.c:fc23", "wild read")
        report = report_from_fault(fault, b"pkt", "m", 42)
        assert report.kind == "SEGV"
        assert report.site == "modbus.c:fc23"
        assert report.execution_index == 42


class TestCrashDatabase:
    def test_first_occurrence_is_new(self):
        db = CrashDatabase()
        assert db.add(CrashReport("SEGV", "a", "", b""))
        assert len(db) == 1

    def test_duplicates_not_counted_unique(self):
        db = CrashDatabase()
        db.add(CrashReport("SEGV", "a", "", b"\x01"))
        assert not db.add(CrashReport("SEGV", "a", "other", b"\x02"))
        assert db.unique_count() == 1

    def test_distinct_sites_counted_separately(self):
        db = CrashDatabase()
        db.add(CrashReport("SEGV", "a", "", b""))
        db.add(CrashReport("SEGV", "b", "", b""))
        db.add(CrashReport("heap-use-after-free", "a", "", b""))
        assert db.unique_count() == 3

    def test_count_by_kind_histogram(self):
        """The shape used to regenerate Table I's Number column."""
        db = CrashDatabase()
        db.add(CrashReport("SEGV", "a", "", b""))
        db.add(CrashReport("SEGV", "b", "", b""))
        db.add(CrashReport("heap-buffer-overflow", "c", "", b""))
        assert db.count_by_kind() == {"SEGV": 2, "heap-buffer-overflow": 1}

    def test_contains_by_key(self):
        db = CrashDatabase()
        db.add(CrashReport("SEGV", "a", "", b""))
        assert ("SEGV", "a") in db
        assert ("SEGV", "z") not in db

    def test_first_report_kept_on_duplicate(self):
        db = CrashDatabase()
        db.add(CrashReport("SEGV", "a", "first", b"\x01"))
        db.add(CrashReport("SEGV", "a", "second", b"\x02"))
        assert db.unique_reports()[0].detail == "first"


class TestCrashTimes:
    """Earliest-observation semantics of the first_seen ledger."""

    def test_first_seen_recorded_on_new_bug(self):
        db = CrashDatabase()
        assert db.add(CrashReport("SEGV", "a", "", b"\x01"), 5.0)
        assert db.first_seen[("SEGV", "a")] == 5.0

    def test_earlier_reobservation_rewinds_time(self):
        """Parallel shards merge in arbitrary order: a crash re-observed
        with an earlier simulated timestamp must keep the earliest."""
        db = CrashDatabase()
        db.add(CrashReport("SEGV", "a", "late", b"\x01",
                           execution_index=900), 5.0)
        assert not db.add(CrashReport("SEGV", "a", "early", b"\x02",
                                      execution_index=40), 2.0)
        assert db.first_seen[("SEGV", "a")] == 2.0
        # the representative report follows the earliest observation
        assert db.unique_reports()[0].detail == "early"

    def test_later_reobservation_keeps_original(self):
        db = CrashDatabase()
        db.add(CrashReport("SEGV", "a", "early", b"\x01"), 1.5)
        db.add(CrashReport("SEGV", "a", "late", b"\x02"), 9.0)
        assert db.first_seen[("SEGV", "a")] == 1.5
        assert db.unique_reports()[0].detail == "early"

    def test_merge_is_order_independent(self):
        def shard(hours, detail, extra_dupes=0):
            db = CrashDatabase()
            db.add(CrashReport("SEGV", "a", detail, b"\x01"), hours)
            for _ in range(extra_dupes):
                db.add(CrashReport("SEGV", "a", detail, b"\x01"),
                       hours + 1.0)
            return db

        ab = shard(4.0, "slow", extra_dupes=2)
        ab.merge(shard(1.0, "fast"))
        ba = shard(1.0, "fast")
        ba.merge(shard(4.0, "slow", extra_dupes=2))
        assert ab.first_seen == ba.first_seen == {("SEGV", "a"): 1.0}
        assert ab.unique_reports()[0].detail == "fast"
        assert ba.unique_reports()[0].detail == "fast"

    def test_merge_counts_new_bugs(self):
        left = CrashDatabase()
        left.add(CrashReport("SEGV", "a", "", b""), 1.0)
        right = CrashDatabase()
        right.add(CrashReport("SEGV", "a", "", b""), 2.0)
        right.add(CrashReport("SEGV", "b", "", b""), 3.0)
        assert left.merge(right) == 1
        assert left.unique_count() == 2

    def test_timed_duplicate_cannot_displace_earlier_untimed_report(self):
        db = CrashDatabase()
        db.add(CrashReport("SEGV", "a", "first", b"\x01",
                           execution_index=40))
        assert not db.add(CrashReport("SEGV", "a", "later", b"\x02",
                                      execution_index=900), 5.0)
        assert db.first_seen[("SEGV", "a")] == 5.0
        assert db.unique_reports()[0].detail == "first"
