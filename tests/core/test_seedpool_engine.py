"""Unit tests for the seed pool and the two fuzzing engines."""

import random

from repro.core import (
    CampaignConfig, GenerationFuzzer, PeachStar, SeedPool, make_engine,
)
from repro.protocols import get_target
from repro.runtime import Target, TracingCollector
from repro.runtime.coverage import CoverageMap


class TestSeedPool:
    def _map(self, *blocks):
        cov = CoverageMap()
        for block in blocks:
            cov.visit(block)
        return cov

    def test_first_seed_valuable(self):
        pool = SeedPool()
        seed = pool.consider(b"pkt", "m", self._map(1, 2), 1, 0.0)
        assert seed is not None
        assert pool.path_count == 1

    def test_duplicate_coverage_not_valuable(self):
        pool = SeedPool()
        pool.consider(b"a", "m", self._map(1, 2), 1, 0.0)
        assert pool.consider(b"b", "m", self._map(1, 2), 2, 1.0) is None
        assert pool.path_count == 1

    def test_new_edges_grow_pool_and_edge_count(self):
        pool = SeedPool()
        pool.consider(b"a", "m", self._map(1), 1, 0.0)
        pool.consider(b"b", "m", self._map(9), 2, 1.0)
        assert pool.path_count == 2
        assert pool.edge_count == 2

    def test_seeds_iterable_with_metadata(self):
        pool = SeedPool()
        pool.consider(b"a", "model-x", self._map(1), 5, 123.0)
        seed = list(pool)[0]
        assert seed.model_name == "model-x"
        assert seed.execution_index == 5
        assert seed.sim_time_ms == 123.0


def _engine(engine_cls, seed=1, **kwargs):
    spec = get_target("libmodbus")
    target = Target(spec.make_server,
                    TracingCollector(("repro/protocols",)))
    return engine_cls(spec.make_pit(), target, random.Random(seed), **kwargs)


class TestGenerationFuzzer:
    def test_iterations_execute_and_count(self):
        engine = _engine(GenerationFuzzer)
        for _ in range(20):
            engine.iterate()
        assert engine.stats.executions == 20
        assert engine.path_count > 0  # measurement framework active

    def test_baseline_never_marks_semantic(self):
        engine = _engine(GenerationFuzzer)
        outcomes = [engine.iterate() for _ in range(20)]
        assert not any(outcome.semantic for outcome in outcomes)

    def test_clock_advances_per_execution(self):
        engine = _engine(GenerationFuzzer)
        engine.iterate()
        assert engine.clock.now_ms > 0


class TestPeachStar:
    def test_degrades_to_baseline_with_empty_corpus(self):
        """Paper §IV-A: before any valuable seed, the inherent strategy
        is used — the first packet can never be semantic."""
        engine = _engine(PeachStar)
        outcome = engine.iterate()
        assert not outcome.semantic

    def test_corpus_grows_after_valuable_seeds(self):
        engine = _engine(PeachStar)
        for _ in range(60):
            engine.iterate()
        assert not engine.corpus.is_empty
        assert engine.cracker.seeds_cracked == engine.stats.valuable_seeds

    def test_semantic_generation_kicks_in(self):
        engine = _engine(PeachStar)
        outcomes = [engine.iterate() for _ in range(150)]
        assert any(outcome.semantic for outcome in outcomes)
        assert engine.stats.semantic_executions > 0

    def test_semantic_disabled_ablation(self):
        engine = _engine(PeachStar, semantic_enabled=False)
        for _ in range(80):
            engine.iterate()
        # corpus still builds (crack on), but no spliced executions
        assert engine.stats.semantic_executions == 0

    def test_crashing_seeds_not_queued(self):
        engine = _engine(PeachStar)
        for _ in range(300):
            outcome = engine.iterate()
            if outcome.result.crash is not None:
                assert not outcome.valuable

    def test_deterministic_under_seed(self):
        def run():
            engine = _engine(PeachStar, seed=99)
            return [engine.iterate().packet for _ in range(40)]

        assert run() == run()


class TestMakeEngine:
    def test_builds_both_engines(self):
        spec = get_target("iec104")
        peach = make_engine("peach", spec, 0, CampaignConfig())
        star = make_engine("peach-star", spec, 0, CampaignConfig())
        assert isinstance(peach, GenerationFuzzer)
        assert isinstance(star, PeachStar)
        assert peach.engine_name == "peach"
        assert star.engine_name == "peach-star"

    def test_unknown_engine_rejected(self):
        import pytest
        spec = get_target("iec104")
        with pytest.raises(ValueError):
            make_engine("afl", spec, 0, CampaignConfig())
