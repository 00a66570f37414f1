"""Integration tests: whole-system behaviour across module boundaries."""

import pytest

from repro.core import (
    CampaignConfig, FileCracker, PeachStar, PuzzleCorpus, run_campaign,
)
from repro.protocols import all_targets, get_target


def _config(**kwargs):
    defaults = dict(budget_hours=24.0, max_executions=600, record_every=20)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


class TestCampaignsAcrossTargets:
    @pytest.mark.parametrize("target_name", [
        spec.name for spec in all_targets()])
    def test_both_engines_cover_paths(self, target_name):
        spec = get_target(target_name)
        for engine in ("peach", "peach-star"):
            result = run_campaign(engine, spec, seed=3,
                                  config=_config(max_executions=250))
            assert result.final_paths > 0, (target_name, engine)
            assert result.final_edges > 0

    def test_no_crashes_on_bug_free_targets(self):
        for name in ("iec104", "opendnp3", "libiec61850"):
            result = run_campaign("peach-star", get_target(name), seed=5,
                                  config=_config(max_executions=400))
            assert result.unique_crashes == [], name

    def test_crashes_only_at_seeded_sites(self):
        for name in ("libmodbus", "lib60870", "libiccp"):
            spec = get_target(name)
            result = run_campaign("peach-star", spec, seed=5,
                                  config=_config(max_executions=500))
            for report in result.unique_crashes:
                assert report.dedup_key in spec.seeded_bug_sites, name


class TestPeachStarFindsSeededBugs:
    def test_libiccp_bugs_found_quickly(self):
        """libiccp carries 4 bugs; a modest budget should surface most."""
        spec = get_target("libiccp")
        result = run_campaign("peach-star", spec, seed=11,
                              config=_config(max_executions=1200))
        assert len(result.unique_crashes) >= 2

    def test_crash_time_recorded_in_budget(self):
        spec = get_target("libiccp")
        result = run_campaign("peach-star", spec, seed=11,
                              config=_config(max_executions=1200))
        for _key, hours in result.crash_times.items():
            assert 0.0 <= hours <= 24.0


class TestCrackGenerateLoop:
    def test_corpus_feeds_back_into_generation(self):
        """The full Fig. 3 loop: valuable seed -> crack -> splice -> run."""
        import random
        from repro.runtime import Target, TracingCollector

        spec = get_target("libmodbus")
        target = Target(spec.make_server,
                        TracingCollector(("repro/protocols",)))
        engine = PeachStar(spec.make_pit(), target, random.Random(2))
        semantic_seen = 0
        for _ in range(300):
            outcome = engine.iterate()
            if outcome.semantic:
                semantic_seen += 1
        assert engine.stats.valuable_seeds > 0
        assert not engine.corpus.is_empty
        assert semantic_seen > 0
        # spliced packets must parse under their own model (fixup worked)
        pit = engine.pit
        pending = list(engine._pending)[:10]
        assert pending
        for recipe, model_name in pending:
            model = pit.model(model_name)
            _tree, wire = engine.generator.build(model, recipe)
            assert model.matches(wire)

    def test_cracker_harvests_cross_model_puzzles(self):
        """A valid read request cracks under both its own model and the
        coarse raw model (paper Alg. 2 tries every model)."""
        from repro.protocols.modbus import build_read_request

        pit = get_target("libmodbus").make_pit()
        corpus = PuzzleCorpus()
        cracker = FileCracker(pit, corpus)
        cracker.crack(build_read_request(0x03, 0x10, 2))
        assert cracker.models_matched >= 2
        assert corpus.rule_count() > 5


class TestDeterminism:
    def test_campaigns_reproducible(self):
        spec = get_target("iec104")
        first = run_campaign("peach-star", spec, seed=7,
                             config=_config(max_executions=200))
        second = run_campaign("peach-star", spec, seed=7,
                              config=_config(max_executions=200))
        assert first.final_paths == second.final_paths
        assert first.series == second.series
        assert [c.dedup_key for c in first.unique_crashes] == \
            [c.dedup_key for c in second.unique_crashes]

    def test_different_seeds_differ(self):
        spec = get_target("libmodbus")
        a = run_campaign("peach", spec, seed=1,
                         config=_config(max_executions=150))
        b = run_campaign("peach", spec, seed=2,
                         config=_config(max_executions=150))
        assert a.series != b.series
