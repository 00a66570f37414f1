"""Unit tests for the campaign driver and the headline statistics."""

import pytest

from repro.core import (
    CampaignConfig, average_paths_at, average_series, bugs_found,
    merge_crash_reports, path_increase_pct, run_campaign, run_repetitions,
    speedup_to_reference, time_to_bugs,
)
from repro.core.campaign import CampaignResult
from repro.core.stats import compare
from repro.protocols import get_target
from repro.sanitizer.report import CrashReport


def _quick_config(**kwargs):
    defaults = dict(budget_hours=0.5, max_executions=120, record_every=10)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


class TestRunCampaign:
    def test_budget_respected(self):
        spec = get_target("iec104")
        result = run_campaign("peach", spec, seed=1, config=_quick_config())
        assert result.executions <= 120
        assert result.series[0] == (0.0, 0)
        assert result.series[-1][1] == result.final_paths

    def test_series_monotone_nondecreasing(self):
        spec = get_target("iec104")
        result = run_campaign("peach-star", spec, seed=1,
                              config=_quick_config())
        hours = [h for h, _p in result.series]
        paths = [p for _h, p in result.series]
        assert hours == sorted(hours)
        assert paths == sorted(paths)

    def test_paths_at_interpolates_steps(self):
        result = CampaignResult(
            engine_name="peach", target_name="t", seed=0,
            series=[(0.0, 0), (1.0, 5), (2.0, 9)], final_paths=9,
            final_edges=0, executions=0, unique_crashes=[], crash_times={},
            stats={})
        assert result.paths_at(0.5) == 0
        assert result.paths_at(1.0) == 5
        assert result.paths_at(1.5) == 5
        assert result.paths_at(10.0) == 9

    def test_time_to_paths(self):
        result = CampaignResult(
            engine_name="peach", target_name="t", seed=0,
            series=[(0.0, 0), (1.0, 5), (2.0, 9)], final_paths=9,
            final_edges=0, executions=0, unique_crashes=[], crash_times={},
            stats={})
        assert result.time_to_paths(5) == 1.0
        assert result.time_to_paths(6) == 2.0
        assert result.time_to_paths(100) is None

    def test_repetitions_use_distinct_seeds(self):
        spec = get_target("iec104")
        results = run_repetitions("peach", spec, repetitions=2,
                                  config=_quick_config(max_executions=40))
        assert results[0].seed != results[1].seed


class TestAggregates:
    def _fake(self, series, crash_times=None):
        return CampaignResult(
            engine_name="e", target_name="t", seed=0, series=series,
            final_paths=series[-1][1], final_edges=0, executions=0,
            unique_crashes=[], crash_times=crash_times or {}, stats={})

    def test_average_paths_at(self):
        results = [self._fake([(0.0, 0), (1.0, 10)]),
                   self._fake([(0.0, 0), (1.0, 20)])]
        assert average_paths_at(results, 1.0) == 15.0

    def test_average_series(self):
        results = [self._fake([(0.0, 0), (1.0, 10), (2.0, 20)])]
        assert average_series(results, [1.0, 2.0]) == [(1.0, 10.0),
                                                       (2.0, 20.0)]

    def test_path_increase_pct(self):
        peach = [self._fake([(0.0, 0), (1.0, 100)])]
        star = [self._fake([(0.0, 0), (1.0, 127)])]
        assert path_increase_pct(peach, star, 1.0) == pytest.approx(27.0)

    def test_speedup_to_reference(self):
        star = [self._fake([(0.0, 0), (2.0, 50), (24.0, 80)])]
        # peach needed 24h for 50 paths; star had them at 2h -> 12X
        assert speedup_to_reference(star, 50, 24.0) == pytest.approx(12.0)

    def test_speedup_none_when_unreached(self):
        star = [self._fake([(0.0, 0), (24.0, 10)])]
        assert speedup_to_reference(star, 50, 24.0) is None

    def test_compare_summary(self):
        peach = [self._fake([(0.0, 0), (24.0, 40)])]
        star = [self._fake([(0.0, 0), (6.0, 40), (24.0, 50)])]
        summary = compare(peach, star, 24.0)
        assert summary.path_increase_pct == pytest.approx(25.0)
        assert summary.speedup == pytest.approx(4.0)
        assert "speedup" in summary.row()

    def test_time_to_bugs_takes_earliest(self):
        a = self._fake([(0.0, 0)], {("SEGV", "x"): 5.0})
        b = self._fake([(0.0, 0)], {("SEGV", "x"): 2.0,
                                    ("SEGV", "y"): 9.0})
        earliest = time_to_bugs([a, b])
        assert earliest[("SEGV", "x")] == 2.0
        assert earliest[("SEGV", "y")] == 9.0

    def test_bugs_found_counts_repetitions(self):
        a = self._fake([(0.0, 0)], {("SEGV", "x"): 5.0})
        b = self._fake([(0.0, 0)], {("SEGV", "x"): 2.0})
        assert bugs_found([a, b]) == {("SEGV", "x"): 2}

    def _shard_with_report(self, hours):
        """A shard result whose crash carries both a report and a time
        (the shape real campaigns and fleet shards produce)."""
        report = CrashReport(kind="SEGV", site="x", detail="",
                            packet=b"\x01", execution_index=int(hours * 10))
        return CampaignResult(
            engine_name="e", target_name="t", seed=0,
            series=[(0.0, 0)], final_paths=0, final_edges=0, executions=0,
            unique_crashes=[report],
            crash_times={report.dedup_key: hours},
            stats={"crashes_total": 1})

    def test_time_to_bugs_out_of_order_shards(self):
        """Regression: time_to_bugs now folds through
        CrashDatabase.merge, so the earliest first-seen must win no
        matter what order parallel shard results come back in."""
        shards = [self._shard_with_report(hours)
                  for hours in (7.0, 2.0, 11.0, 4.5)]
        expected = {("SEGV", "x"): 2.0}
        assert time_to_bugs(shards) == expected
        assert time_to_bugs(list(reversed(shards))) == expected
        assert time_to_bugs(shards[2:] + shards[:2]) == expected

    def test_merge_crash_reports_keeps_earliest_representative(self):
        late, early = self._shard_with_report(9.0), \
            self._shard_with_report(1.5)
        merged = merge_crash_reports([late, early])
        assert merged.unique_count() == 1
        assert merged.first_seen[("SEGV", "x")] == 1.5
        # the representative report follows the earliest observation
        assert merged.unique_reports()[0].execution_index == 15
