"""Batched execution: bit-identity and fallback contracts.

``GenerationFuzzer.iterate_batch`` is a loop over the one iteration
body ``iterate`` runs, plus a coverage-map pool that keeps valuable
outcomes' coverage alive until the campaign driver reads it.  Grouping
iterations must be invisible: the outcome stream, RNG trajectory,
simulated clock, series, stats, crash ledger and kill/resume behaviour
are bit-for-bit identical whatever ``repro.core.campaign.BATCH_SIZE``
is, with channel faults, the differential oracle and divergence
steering too.  Session engines and targets that cannot record into a
caller's map get one outcome per call.

The stat/triage satellites ride along: ``EngineStats.as_dict`` is
derived from the dataclass fields, the ``channel_faults`` counter is
synced even with the differential oracle forced off, and the cracker's
parse cache counts its hits.
"""

import dataclasses

import pytest

from repro.core import campaign
from repro.core.campaign import (
    CampaignConfig, make_engine, resume_campaign, run_campaign,
)
from repro.core.engine import EngineStats
from repro.protocols import get_target

BATCH_SIZES = (1, 2, 5, 16, 64)

#: single-packet modes whose channel/oracle work runs inside the
#: iteration body; steering rides on faults so it actually steers
ORACLE_MODES = {
    "faults": dict(channel_faults=0.25),
    "differential": dict(differential=True),
    "steer": dict(channel_faults=0.25, steer_divergence=True),
}


def _config(**overrides):
    base = dict(budget_hours=24.0, max_executions=400, record_every=10)
    base.update(overrides)
    return CampaignConfig(**base)


def _signature(result):
    return (
        result.series,
        result.final_paths,
        result.final_edges,
        result.executions,
        sorted(report.dedup_key for report in result.unique_crashes),
        sorted(report.dedup_key for report in result.unique_divergences),
        result.crash_times,
        result.stats,
        tuple(sorted(result.path_hashes)),
    )


def _run(monkeypatch, batch_size, engine_name, spec, seed, config):
    """One campaign with the driver's batch size set to *batch_size*."""
    monkeypatch.setattr(campaign, "BATCH_SIZE", batch_size)
    return run_campaign(engine_name, spec, seed=seed, config=config)


class TestBatchSizeInvariance:
    """Any batch size produces the exact same campaign."""

    @pytest.mark.parametrize("target_name", ("libmodbus", "iec104"))
    def test_campaigns_identical_across_batch_sizes(self, monkeypatch,
                                                    target_name):
        spec = get_target(target_name)
        reference = None
        for batch_size in BATCH_SIZES:
            result = _run(monkeypatch, batch_size, "peach-star", spec, 7,
                          _config())
            signature = _signature(result)
            if reference is None:
                reference = signature
            else:
                assert signature == reference, batch_size

    def test_baseline_engine_identical_across_batch_sizes(self,
                                                          monkeypatch):
        spec = get_target("lib60870")
        one = _run(monkeypatch, 1, "peach", spec, 3, _config())
        sixteen = _run(monkeypatch, 16, "peach", spec, 3, _config())
        assert _signature(sixteen) == _signature(one)

    def test_time_budget_stops_batches_exactly(self, monkeypatch):
        """No max_executions cap: the simulated clock alone ends the
        campaign, and a batch must stop at the same execution the
        unbatched loop does."""
        spec = get_target("libmodbus")
        config = _config(max_executions=10**9, budget_hours=6.0)
        one = _run(monkeypatch, 1, "peach-star", spec, 9, config)
        sixteen = _run(monkeypatch, 16, "peach-star", spec, 9, config)
        assert _signature(sixteen) == _signature(one)


class TestIterateBatchContract:
    """Engine-level semantics of the batched entry point."""

    def test_exec_bound_caps_the_batch(self):
        spec = get_target("libmodbus")
        engine = make_engine("peach-star", spec, 1, _config())
        outcomes = engine.iterate_batch(16, exec_bound=5)
        assert len(outcomes) == 5
        assert engine.stats.executions == 5
        assert [o.executions for o in outcomes] == [1, 2, 3, 4, 5]

    def test_outcome_stamps_are_per_iteration(self):
        """Stamped readings reflect each iteration, not the batch end."""
        spec = get_target("libmodbus")
        engine = make_engine("peach-star", spec, 1, _config())
        outcomes = engine.iterate_batch(32)
        assert [o.executions for o in outcomes] == \
            list(range(1, len(outcomes) + 1))
        hours = [o.hours for o in outcomes]
        assert hours == sorted(hours)
        assert hours[0] < hours[-1]
        paths = [o.paths for o in outcomes]
        assert paths == sorted(paths)  # paths only ever grow

    def test_batched_equals_sequential_iterates(self):
        spec = get_target("libmodbus")
        for overrides in ({},) + tuple(ORACLE_MODES.values()):
            config = _config(**overrides)
            batched = make_engine("peach-star", spec, 4, config)
            unbatched = make_engine("peach-star", spec, 4, config)
            outcomes = batched.iterate_batch(40)
            assert len(outcomes) == 40
            singles = [unbatched.iterate() for _ in range(len(outcomes))]
            for field in ("executions", "hours", "paths", "valuable",
                          "packet", "new_divergences"):
                assert [getattr(o, field) for o in outcomes] == \
                    [getattr(o, field) for o in singles], (overrides, field)
            assert [o.result.delivered for o in outcomes] == \
                [o.result.delivered for o in singles]
            assert batched.clock.now_ms == unbatched.clock.now_ms
            assert batched.stats.as_dict() == unbatched.stats.as_dict()

    def test_fallback_returns_one_outcome_per_call(self):
        """Session engines produce and run whole traces and opt out of
        batching: ``iterate_batch`` hands out one outcome per call,
        faulted sessions included.  Single-packet channel and oracle
        modes run inside the iteration body and fill whole batches."""
        spec = get_target("iec104")
        for overrides in (dict(sessions=True),
                          dict(sessions=True, channel_faults=0.25)):
            sessions = make_engine("peach-star", spec, 2,
                                   _config(**overrides))
            assert not sessions._can_batch()
            assert len(sessions.iterate_batch(16)) == 1
        for overrides in ORACLE_MODES.values():
            single = make_engine("peach-star", spec, 2, _config(**overrides))
            assert single._can_batch()
            assert len(single.iterate_batch(16)) == 16

    def test_valuable_outcomes_get_retired_maps(self):
        """The driver serializes valuable outcomes' coverage after the
        batch: each must keep a private map, distinct from the shared
        non-valuable map and from every other valuable outcome's."""
        spec = get_target("libmodbus")
        engine = make_engine("peach-star", spec, 1,
                             _config(**ORACLE_MODES["steer"]))
        for _ in range(6):
            outcomes = engine.iterate_batch(64)
            valuable = [o for o in outcomes if o.valuable]
            maps = [o.result.coverage for o in valuable]
            assert len(set(map(id, maps))) == len(maps)
            for outcome in valuable:
                # after the batch, the retired map (steered seeds'
                # included) still holds exactly the seed's path
                assert outcome.result.coverage.path_hash() == \
                    outcome.seed.path_hash
        assert engine.stats.valuable_seeds >= 2
        assert engine.stats.steered_seeds > 0
        batch_maps = engine._batch_maps
        assert len(set(map(id, batch_maps))) == len(batch_maps)


class TestOracleModeBatching:
    """Faulted, differential and steered single-packet campaigns run
    through ``iterate_batch`` like plain ones, without changing a single
    observable; sessions are untouched by the batch size."""

    @pytest.mark.parametrize("mode", tuple(ORACLE_MODES))
    def test_campaign_identical_at_batch_1_and_16(self, monkeypatch, mode):
        spec = get_target("libmodbus")
        config = _config(**ORACLE_MODES[mode])
        one = _run(monkeypatch, 1, "peach-star", spec, 5, config)
        sixteen = _run(monkeypatch, 16, "peach-star", spec, 5, config)
        assert _signature(sixteen) == _signature(one)
        if mode != "differential":
            assert one.stats["channel_faults"] > 0
            assert one.stats["divergences_total"] > 0
        if mode == "steer":
            assert one.stats["steered_seeds"] > 0

    def test_session_campaign_identical(self, monkeypatch):
        spec = get_target("iec104")
        config = _config(sessions=True)
        one = _run(monkeypatch, 1, "peach-star", spec, 5, config)
        sixteen = _run(monkeypatch, 16, "peach-star", spec, 5, config)
        assert _signature(sixteen) == _signature(one)

    def test_killed_faulted_campaign_resumes_bit_identical(self, tmp_path):
        """Steered seeds are valuable outcomes too: their retired maps
        feed the coverage journal that resume replays."""
        spec = get_target("libmodbus")
        config = dict(checkpoint_every=50, **ORACLE_MODES["steer"])
        full = run_campaign(
            "peach-star", spec, seed=7,
            config=_config(workspace=str(tmp_path / "full"), **config))
        assert full.stats["steered_seeds"] > 0
        # NOT a checkpoint or batch multiple: resume must rewind to the
        # last checkpoint and re-execute the window through the batch
        killed = run_campaign(
            "peach-star", spec, seed=7,
            config=_config(workspace=str(tmp_path / "killed"), **config),
            stop_after_executions=77)
        assert killed is None
        resumed = resume_campaign(str(tmp_path / "killed"))
        assert _signature(resumed) == _signature(full)


class TestBatchedKillResume:
    """The persistence guarantee survives batching: a batched campaign
    killed mid-budget resumes bit-identical to the uninterrupted run,
    and batched/unbatched workspaces converge."""

    def test_killed_batched_campaign_resumes_bit_identical(self,
                                                           tmp_path):
        spec = get_target("libmodbus")
        config = dict(checkpoint_every=50)
        full = run_campaign(
            "peach-star", spec, seed=7,
            config=_config(workspace=str(tmp_path / "full"), **config))
        killed = run_campaign(
            "peach-star", spec, seed=7,
            config=_config(workspace=str(tmp_path / "killed"), **config),
            stop_after_executions=77)
        assert killed is None
        resumed = resume_campaign(str(tmp_path / "killed"))
        assert _signature(resumed) == _signature(full)

    def test_batched_workspace_matches_unbatched(self, monkeypatch,
                                                 tmp_path):
        spec = get_target("lib60870")
        one = _run(monkeypatch, 1, "peach-star", spec, 7,
                   _config(workspace=str(tmp_path / "one"),
                           checkpoint_every=50))
        sixteen = _run(monkeypatch, 16, "peach-star", spec, 7,
                       _config(workspace=str(tmp_path / "sixteen"),
                               checkpoint_every=50))
        assert _signature(sixteen) == _signature(one)
        journals = [(tmp_path / name / "coverage.jsonl").read_text()
                    for name in ("one", "sixteen")]
        assert journals[0] == journals[1]


class TestStatSatellites:
    """The PR's stat/triage-counter bugfix sweep."""

    def test_as_dict_covers_every_field(self):
        stats = EngineStats()
        expected = {field.name for field in dataclasses.fields(stats)}
        assert set(stats.as_dict()) == expected

    def test_as_dict_round_trips(self):
        stats = EngineStats()
        stats.executions = 123
        stats.channel_faults = 9
        stats.net_timeouts = 2
        clone = EngineStats(**stats.as_dict())
        assert clone == stats
        assert clone.as_dict() == stats.as_dict()

    def test_channel_faults_counted_with_differential_off(self):
        """Regression: the counter sync used to live on the oracle
        path, so ``differential=False`` silently zeroed the stat."""
        spec = get_target("libmodbus")
        result = run_campaign(
            "peach-star", spec, seed=11,
            config=_config(channel_faults=0.4, differential=False))
        assert result.stats["channel_faults"] > 0
        assert result.stats["divergences_total"] == 0

    def test_cracker_parse_cache_hits(self):
        spec = get_target("libmodbus")
        engine = make_engine("peach-star", spec, 1, _config())
        run_campaign("peach-star", spec, seed=1, config=_config(),
                     engine=engine)
        seeds = engine.seed_pool.seeds
        assert len(seeds) >= 2
        # every valuable seed was cracked once during the campaign, and
        # the LRU (256 entries) still holds all of them: re-cracking
        # any seed is a hit, and each re-crack counts exactly one
        before = engine.cracker.cache_hits
        for count, seed in enumerate(seeds[:2], start=1):
            engine.cracker.crack(seed.packet)
            assert engine.cracker.cache_hits == before + count
        # a packet never seen is a miss, then a hit
        fresh = seeds[0].packet + b"\x00"
        engine.cracker.crack(fresh)
        assert engine.cracker.cache_hits == before + 2
        engine.cracker.crack(fresh)
        assert engine.cracker.cache_hits == before + 3
