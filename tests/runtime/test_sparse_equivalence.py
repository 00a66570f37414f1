"""Sparse-vs-dense coverage equivalence: the rewrite must be invisible.

The sparse journaled pipeline (`repro.runtime.coverage`) replaces the
seed's dense O(MAP_SIZE) scans.  These tests pin the contract: for the
same executions, every observable — merge decisions, edge counts, path
hashes, whole `CampaignResult`s — is bit-for-bit identical to the dense
reference implementation kept beside this file in `_dense_ref.py`,
across all six protocol targets, on journals both short and past the
slice-assign reset limit, and at every batch size of the campaign
driver.  The parallel campaign executor gets the same treatment against
its serial counterpart.
"""

import random

import pytest

from repro.core import campaign
from repro.core.campaign import (
    CampaignConfig, make_engine, run_campaign, run_repetitions,
    run_repetitions_parallel,
)
from repro.protocols import TARGET_NAMES, get_target
from repro.runtime.coverage import (
    _SPARSE_RESET_LIMIT, MAP_SIZE, CoverageMap, GlobalCoverage,
)

from _dense_ref import DenseCoverageMap, DenseGlobalCoverage


#: visit counts from an empty journal to journals past the slice-assign
#: reset limit (random blocks rarely repeat an edge, so a journal holds
#: nearly one entry per visit)
VISIT_LENGTHS = (0, 1, 3, 60, 400, 1500, _SPARSE_RESET_LIMIT + 1000, 20000)


def _pair():
    return CoverageMap(), DenseCoverageMap()


def _random_blocks(rng, length):
    return [rng.randrange(1 << 20) for _ in range(length)]


class TestMapEquivalence:
    """Replay identical visit sequences into both implementations."""

    @pytest.mark.parametrize("length", VISIT_LENGTHS)
    def test_observables_match_at_length(self, length):
        rng = random.Random(length)
        sparse, dense = _pair()
        for block in _random_blocks(rng, length):
            sparse.visit(block)
            dense.visit(block)
        assert bytes(sparse.counts) == bytes(dense.counts)
        assert sparse.edge_count() == dense.edge_count()
        assert list(sparse.iter_hits()) == list(dense.iter_hits())
        assert sparse.path_hash() == dense.path_hash()
        assert sorted(sparse.journal) == \
            [index for index, _count in dense.iter_hits()]
        sparse_glob, dense_glob = GlobalCoverage(), DenseGlobalCoverage()
        assert sparse_glob.merge(sparse) == dense_glob.merge(dense) == \
            (length > 0)
        assert bytes(sparse_glob.virgin) == bytes(dense_glob.virgin)
        assert sparse_glob.edge_coverage() == dense_glob.edge_coverage()
        sparse.fast_reset()
        dense.fast_reset()
        assert bytes(sparse.counts) == bytes(dense.counts) == bytes(MAP_SIZE)
        assert sparse.edge_count() == dense.edge_count() == 0

    def test_random_visit_sequences_match(self):
        rng = random.Random(1234)
        for trial in range(30):
            sparse, dense = _pair()
            for block in _random_blocks(rng, rng.randrange(0, 400)):
                sparse.visit(block)
                dense.visit(block)
            assert sparse.edge_count() == dense.edge_count(), trial
            assert list(sparse.iter_hits()) == list(dense.iter_hits()), trial
            assert sparse.path_hash() == dense.path_hash(), trial

    def test_hot_loop_saturation_matches(self):
        sparse, dense = _pair()
        for _ in range(300):
            for block in (7, 9, 7):
                sparse.visit(block)
                dense.visit(block)
        assert list(sparse.iter_hits()) == list(dense.iter_hits())
        assert sparse.path_hash() == dense.path_hash()

    def test_reset_variants_match_dense(self):
        rng = random.Random(99)
        for reset_name in ("reset", "fast_reset"):
            sparse, dense = _pair()
            for block in _random_blocks(rng, 200):
                sparse.visit(block)
                dense.visit(block)
            getattr(sparse, reset_name)()
            getattr(dense, reset_name)()
            assert sparse.edge_count() == 0
            assert bytes(sparse.counts) == bytes(MAP_SIZE)
            # and the map is fully reusable afterwards
            for block in (1, 2, 3):
                sparse.visit(block)
                dense.visit(block)
            assert list(sparse.iter_hits()) == list(dense.iter_hits())

    def test_fast_reset_dense_fallback_path(self):
        """Force the journal above the sparse-reset limit."""
        sparse = CoverageMap()
        for index in range(MAP_SIZE // 8):
            sparse._prev = 0
            sparse.visit(index)
        assert sparse.edge_count() == len(set(
            index & (MAP_SIZE - 1) for index in range(MAP_SIZE // 8)))
        sparse.fast_reset()
        assert sparse.edge_count() == 0
        assert bytes(sparse.counts) == bytes(MAP_SIZE)

    def test_merge_decision_stream_matches(self):
        rng = random.Random(4321)
        sparse_glob, dense_glob = GlobalCoverage(), DenseGlobalCoverage()
        for trial in range(60):
            sparse, dense = _pair()
            for block in _random_blocks(rng, rng.randrange(0, 120)):
                sparse.visit(block)
                dense.visit(block)
            assert sparse_glob.would_be_new(sparse) == \
                dense_glob.would_be_new(dense), trial
            assert sparse_glob.merge(sparse) == dense_glob.merge(dense), trial
            assert sparse_glob.edge_coverage() == \
                dense_glob.edge_coverage(), trial
        assert bytes(sparse_glob.virgin) == bytes(dense_glob.virgin)


def _short_config():
    return CampaignConfig(budget_hours=24.0, max_executions=140,
                          record_every=10)


def _dense_engine(engine_name, spec, seed, config):
    engine = make_engine(engine_name, spec, seed, config)
    engine.target.collector.map = DenseCoverageMap()
    engine.seed_pool.coverage = DenseGlobalCoverage()
    return engine


def _result_signature(result):
    return (
        result.series,
        result.final_paths,
        result.final_edges,
        result.executions,
        sorted(report.dedup_key for report in result.unique_crashes),
        result.crash_times,
        result.stats,
    )


class TestCampaignEquivalence:
    """Whole campaigns agree between sparse and dense pipelines."""

    @pytest.mark.parametrize("target_name", TARGET_NAMES)
    def test_peach_star_campaign_identical(self, target_name):
        spec = get_target(target_name)
        config = _short_config()
        sparse = run_campaign("peach-star", spec, seed=11, config=config)
        dense = run_campaign(
            "peach-star", spec, seed=11, config=config,
            engine=_dense_engine("peach-star", spec, 11, config))
        assert _result_signature(sparse) == _result_signature(dense)

    @pytest.mark.parametrize("target_name", TARGET_NAMES)
    def test_baseline_engine_campaign_identical(self, target_name):
        spec = get_target(target_name)
        config = _short_config()
        sparse = run_campaign("peach", spec, seed=5, config=config)
        dense = run_campaign(
            "peach", spec, seed=5, config=config,
            engine=_dense_engine("peach", spec, 5, config))
        assert _result_signature(sparse) == _result_signature(dense)


class TestBatchedEquivalence:
    """The batch loop's map pool takes the collector map's type, so an
    engine carrying the dense maps records every batched execution into
    dense maps, and still runs the sparse campaign at any batch size."""

    @pytest.mark.parametrize("target_name", ("libmodbus", "iec104"))
    def test_dense_campaigns_identical_across_batch_sizes(
            self, monkeypatch, target_name):
        spec = get_target(target_name)
        config = _short_config()
        sparse = _result_signature(
            run_campaign("peach-star", spec, seed=7, config=config))
        for batch_size in (1, 2, 5, 16, 64):
            monkeypatch.setattr(campaign, "BATCH_SIZE", batch_size)
            engine = _dense_engine("peach-star", spec, 7, config)
            dense = run_campaign("peach-star", spec, seed=7, config=config,
                                 engine=engine)
            assert _result_signature(dense) == sparse, batch_size
            # a batch of one runs iterate() and never builds the pool
            pool_types = {type(pooled) for pooled in engine._batch_maps}
            assert pool_types == (
                {DenseCoverageMap} if batch_size > 1 else set()), batch_size


class TestParallelEquivalence:
    """The process-pool executor returns exactly the serial results."""

    def test_parallel_matches_serial(self):
        spec = get_target("libmodbus")
        config = CampaignConfig(budget_hours=24.0, max_executions=90,
                                record_every=10)
        serial = run_repetitions("peach-star", spec, repetitions=3,
                                 base_seed=42, config=config)
        parallel = run_repetitions_parallel(
            "peach-star", spec, repetitions=3, base_seed=42, config=config,
            max_workers=2)
        assert [_result_signature(r) for r in serial] == \
            [_result_signature(r) for r in parallel]
        assert [r.seed for r in parallel] == [42, 1042, 2042]

    def test_single_worker_stays_in_process(self):
        spec = get_target("iec104")
        config = CampaignConfig(budget_hours=24.0, max_executions=60)
        serial = run_repetitions("peach", spec, repetitions=2,
                                 base_seed=3, config=config)
        inline = run_repetitions_parallel(
            "peach", spec, repetitions=2, base_seed=3, config=config,
            max_workers=1)
        assert [_result_signature(r) for r in serial] == \
            [_result_signature(r) for r in inline]
