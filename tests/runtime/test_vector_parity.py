"""Sparse-vs-vector coverage parity: the numpy kernels must be invisible.

``VectorCoverageMap``/``VectorGlobalCoverage`` re-implement the hot
coverage operations with numpy fancy-indexing, switching to the
inherited pure-Python walks below ``_VECTOR_MIN_JOURNAL`` where the
array-build overhead dominates.  Campaigns use them whenever numpy
imports.  These tests pin the contract: for the same visit sequences,
every observable — merge decisions, virgin bytes, path hashes, hit
streams, whole ``CampaignResult``s — is bit-for-bit identical between
the two implementations, on journals both below and above the hybrid
threshold so the numpy branches are actually exercised.

Property-style invariants ride along: ``path_hash``/``iter_hits`` are
pure in the map contents (touch order changes counts deterministically,
and replaying the same order always agrees), ``fast_reset`` is
indistinguishable from ``reset``, and the memoized sorted-journal cache
never leaks state across generations.
"""

import random

import pytest

from repro.core.campaign import CampaignConfig, make_engine, run_campaign
from repro.protocols import TARGET_NAMES, get_target
from repro.runtime.coverage import (
    MAP_SIZE, _VECTOR_MIN_JOURNAL, CoverageMap, GlobalCoverage,
    VectorCoverageMap, VectorGlobalCoverage, make_coverage_map,
    make_global_coverage, resolve_coverage_impl,
)

pytestmark = pytest.mark.skipif(
    resolve_coverage_impl() != "vector", reason="vector impl needs numpy")

#: journal lengths straddling the hybrid threshold: the short ones run
#: the inherited pure-Python fallbacks, the long ones the numpy kernels
JOURNAL_LENGTHS = (0, 3, 60, _VECTOR_MIN_JOURNAL - 1,
                   _VECTOR_MIN_JOURNAL, _VECTOR_MIN_JOURNAL + 1,
                   400, 1500)


def _pair():
    return CoverageMap(), VectorCoverageMap()


def _visit_both(sparse, vector, blocks):
    for block in blocks:
        sparse.visit(block)
        vector.visit(block)


def _random_blocks(rng, length):
    return [rng.randrange(1 << 20) for _ in range(length)]


class TestMapParity:
    """Replay identical visit sequences into both implementations."""

    @pytest.mark.parametrize("length", JOURNAL_LENGTHS)
    def test_observables_match_at_length(self, length):
        rng = random.Random(length)
        sparse, vector = _pair()
        _visit_both(sparse, vector, _random_blocks(rng, length))
        assert vector.edge_count() == sparse.edge_count()
        assert list(vector.iter_hits()) == list(sparse.iter_hits())
        assert vector.path_hash() == sparse.path_hash()
        assert bytes(vector.counts) == bytes(sparse.counts)
        assert sorted(vector.journal) == sorted(sparse.journal)

    def test_random_visit_sequences_match(self):
        rng = random.Random(1234)
        for trial in range(30):
            sparse, vector = _pair()
            _visit_both(sparse, vector,
                        _random_blocks(rng, rng.randrange(0, 400)))
            assert vector.path_hash() == sparse.path_hash(), trial
            assert list(vector.iter_hits()) == list(sparse.iter_hits()), trial

    @pytest.mark.parametrize("length", JOURNAL_LENGTHS)
    def test_fast_reset_indistinguishable_from_reset(self, length):
        rng = random.Random(97 + length)
        blocks = _random_blocks(rng, length)
        for impl in (CoverageMap, VectorCoverageMap):
            fast, full = impl(), impl()
            for block in blocks:
                fast.visit(block)
                full.visit(block)
            fast.fast_reset()
            full.reset()
            assert bytes(fast.counts) == bytes(MAP_SIZE)
            assert bytes(full.counts) == bytes(MAP_SIZE)
            assert fast.edge_count() == full.edge_count() == 0
            # both maps stay fully reusable and agree afterwards
            for block in (1, 2, 3, 1):
                fast.visit(block)
                full.visit(block)
            assert list(fast.iter_hits()) == list(full.iter_hits())
            assert fast.path_hash() == full.path_hash()

    def test_path_hash_memo_survives_reset_generations(self):
        vector = VectorCoverageMap()
        hashes = []
        for generation in range(3):
            for block in range(200 + generation):
                vector.visit(block)
            first = vector.path_hash()
            assert vector.path_hash() == first  # memo hit
            hashes.append(first)
            vector.fast_reset()
        sparse = CoverageMap()
        for generation in range(3):
            for block in range(200 + generation):
                sparse.visit(block)
            assert sparse.path_hash() == hashes[generation]
            sparse.fast_reset()


class TestTouchOrderInvariance:
    """The ORDER edges were first touched in (the journal order) is an
    execution-schedule artifact; every coverage observable — path_hash,
    sorted hit stream, merge decisions, virgin bytes — must not depend
    on it.  Maps are built by touching the same edge set in permuted
    orders (counts identical, journal permuted), exactly the state two
    interleavings of one execution would produce."""

    @staticmethod
    def _touch(target_map, edge, count):
        target_map.counts[edge] = count
        target_map.journal.append(edge)

    @pytest.mark.parametrize("length", (6, 60, 300))
    def test_journal_permutations_agree(self, length):
        rng = random.Random(length * 7)
        edges = list({rng.randrange(MAP_SIZE) for _ in range(length)})
        hit_counts = {edge: rng.choice((1, 2, 3, 5, 9)) for edge in edges}
        for impl_map, impl_glob in ((CoverageMap, GlobalCoverage),
                                    (VectorCoverageMap,
                                     VectorGlobalCoverage)):
            baseline_map = impl_map()
            for edge in edges:
                self._touch(baseline_map, edge, hit_counts[edge])
            baseline_hash = baseline_map.path_hash()
            baseline_hits = sorted(baseline_map.iter_hits())
            for trial in range(5):
                shuffled = edges[:]
                rng.shuffle(shuffled)
                permuted = impl_map()
                for edge in shuffled:
                    self._touch(permuted, edge, hit_counts[edge])
                # path_hash sorts its journal: first-touch order must
                # not leak into the path identity or the hit stream
                assert sorted(permuted.iter_hits()) == baseline_hits
                assert permuted.path_hash() == baseline_hash
                fresh = impl_glob()
                assert fresh.would_be_new(permuted)
                assert fresh.merge(permuted)
                reference = impl_glob()
                reference.merge(baseline_map)
                assert bytes(fresh.virgin) == bytes(reference.virgin)
                assert not fresh.would_be_new(permuted)


class TestGlobalParity:
    """Merge/would_be_new streams agree between implementations."""

    def test_merge_decision_stream_matches(self):
        rng = random.Random(4321)
        sparse_glob = GlobalCoverage()
        vector_glob = VectorGlobalCoverage()
        for trial in range(40):
            sparse, vector = _pair()
            length = rng.choice(JOURNAL_LENGTHS)
            _visit_both(sparse, vector, _random_blocks(rng, length))
            assert vector_glob.would_be_new(vector) == \
                sparse_glob.would_be_new(sparse), trial
            assert vector_glob.merge(vector) == \
                sparse_glob.merge(sparse), trial
            assert vector_glob.edge_coverage() == \
                sparse_glob.edge_coverage(), trial
        assert bytes(vector_glob.virgin) == bytes(sparse_glob.virgin)

    def test_would_be_new_is_side_effect_free(self):
        rng = random.Random(8)
        for glob_cls, map_cls in ((GlobalCoverage, CoverageMap),
                                  (VectorGlobalCoverage,
                                   VectorCoverageMap)):
            glob = glob_cls()
            execution = map_cls()
            for block in _random_blocks(rng, 300):
                execution.visit(block)
            before = bytes(glob.virgin)
            assert glob.would_be_new(execution)
            assert bytes(glob.virgin) == before
            glob.merge(execution)
            after = bytes(glob.virgin)
            assert not glob.would_be_new(execution)
            assert bytes(glob.virgin) == after

    def test_vector_global_accepts_sparse_maps(self):
        """Mixed-impl merge (resume replay feeds plain maps)."""
        rng = random.Random(13)
        vector_glob = VectorGlobalCoverage()
        sparse_glob = GlobalCoverage()
        for length in JOURNAL_LENGTHS:
            sparse, vector = _pair()
            _visit_both(sparse, vector, _random_blocks(rng, length))
            assert vector_glob.merge(sparse) == sparse_glob.merge(vector)
        assert bytes(vector_glob.virgin) == bytes(sparse_glob.virgin)


class TestFactories:
    def test_resolution(self, monkeypatch):
        assert resolve_coverage_impl() == "vector"  # numpy present
        # no environment variable overrides the choice
        monkeypatch.setenv("REPRO_COVERAGE_IMPL", "sparse")
        assert resolve_coverage_impl() == "vector"

    def test_factories_return_resolved_types(self):
        assert type(make_coverage_map()) is VectorCoverageMap
        assert type(make_global_coverage()) is VectorGlobalCoverage

    def test_resolves_sparse_without_numpy(self, monkeypatch):
        from repro.runtime import coverage
        monkeypatch.setattr(coverage, "_np", None)
        assert resolve_coverage_impl() == "sparse"
        assert type(make_coverage_map()) is CoverageMap
        assert type(make_global_coverage()) is GlobalCoverage


def _short_config(**overrides):
    return CampaignConfig(budget_hours=24.0, max_executions=140,
                          record_every=10, **overrides)


def _result_signature(result):
    return (
        result.series,
        result.final_paths,
        result.final_edges,
        result.executions,
        sorted(report.dedup_key for report in result.unique_crashes),
        result.crash_times,
        result.stats,
        tuple(sorted(result.path_hashes)),
    )


class TestCampaignParity:
    """Whole campaigns agree between the sparse and vector pipelines
    on every protocol target (the six-protocol parity pin).  Campaigns
    pick the vector maps; the sparse side injects the pure-Python maps
    into an otherwise identical engine."""

    @pytest.mark.parametrize("target_name", TARGET_NAMES)
    def test_peach_star_campaign_identical(self, target_name):
        spec = get_target(target_name)
        config = _short_config()
        sparse_engine = make_engine("peach-star", spec, 11, config)
        sparse_engine.target.collector.map = CoverageMap()
        sparse_engine.seed_pool.coverage = GlobalCoverage()
        sparse = run_campaign("peach-star", spec, seed=11, config=config,
                              engine=sparse_engine)
        vector = run_campaign("peach-star", spec, seed=11, config=config)
        assert _result_signature(vector) == _result_signature(sparse)

    def test_engine_wiring_uses_vector_maps(self):
        spec = get_target("libmodbus")
        engine = make_engine("peach-star", spec, 1, _short_config())
        assert type(engine.target.collector.map) is VectorCoverageMap
        assert type(engine.seed_pool.coverage) is VectorGlobalCoverage
