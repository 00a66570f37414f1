"""Unit tests for the AFL-style coverage map and global virgin map.

Property-style invariants ride along: ``path_hash``/``iter_hits`` and
merge decisions do not depend on the order edges were first touched,
``fast_reset`` is indistinguishable from ``reset`` on both sides of the
slice-assign threshold, the memoized sorted journal never leaks
state across reset generations, and folding a map's journal form in
through ``merge_bucketed`` matches merging the map itself.
"""

import random

import pytest

from repro.core.campaign import CampaignConfig, make_engine
from repro.protocols import get_target
from repro.runtime.coverage import (
    _SPARSE_RESET_LIMIT, MAP_SIZE, CoverageMap, GlobalCoverage,
    bucket_count,
)
from repro.store.workspace import bucketed_hits

#: journal lengths on both sides of the slice-assign reset branch
RESET_LENGTHS = (0, 3, 60, 400, _SPARSE_RESET_LIMIT - 1,
                 _SPARSE_RESET_LIMIT, _SPARSE_RESET_LIMIT + 1,
                 2 * _SPARSE_RESET_LIMIT)


#: execution lengths for the bucketed merge: with half the blocks from a
#: hot set, the longer executions climb into the high hit-count buckets
MERGE_LENGTHS = (0, 1, 3, 60, 400, 1500, 6000, 20000)


def _random_blocks(rng, length):
    return [rng.randrange(1 << 20) for _ in range(length)]


def _touch_distinct(coverage_map, edges, rng):
    """Visit each of *edges* one to five times from ``prev = 0``, so the
    journal holds exactly one entry per edge."""
    for edge in edges:
        for _ in range(rng.choice((1, 2, 3, 5))):
            coverage_map._prev = 0
            coverage_map.visit(edge)


class TestBucketing:
    def test_zero_maps_to_zero(self):
        assert bucket_count(0) == 0

    def test_afl_bucket_boundaries(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 8, 5: 8, 7: 8, 8: 16, 15: 16,
                    16: 32, 31: 32, 32: 64, 127: 64, 128: 128, 255: 128}
        for count, bit in expected.items():
            assert bucket_count(count) == bit, count

    def test_buckets_are_single_bits(self):
        for count in range(1, 256):
            bit = bucket_count(count)
            assert bit and (bit & (bit - 1)) == 0  # power of two


class TestCoverageMap:
    def test_visit_implements_paper_snippet(self):
        cov = CoverageMap()
        cov.visit(0x1234)
        # first transition: prev=0, so index = cur ^ 0
        assert cov.counts[0x1234 & (MAP_SIZE - 1)] == 1
        cov.visit(0x1234)
        # second: prev = cur >> 1
        index = (0x1234 ^ (0x1234 >> 1)) & (MAP_SIZE - 1)
        assert cov.counts[index] == 1

    def test_edge_direction_matters(self):
        a, b = 0x100, 0x200
        forward = CoverageMap()
        forward.visit(a)
        forward.visit(b)
        backward = CoverageMap()
        backward.visit(b)
        backward.visit(a)
        assert sorted(i for i, _c in forward.iter_hits()) != \
            sorted(i for i, _c in backward.iter_hits())

    def test_counts_saturate_at_255(self):
        cov = CoverageMap()
        for _ in range(300):
            cov._prev = 0
            cov.visit(7)
        assert cov.counts[7] == 255

    def test_reset_clears_everything(self):
        cov = CoverageMap()
        cov.visit(1)
        cov.visit(2)
        cov.fast_reset()
        assert cov.edge_count() == 0
        assert cov._prev == 0

    def test_path_hash_distinguishes_paths(self):
        one = CoverageMap()
        one.visit(1)
        one.visit(2)
        two = CoverageMap()
        two.visit(1)
        two.visit(3)
        assert one.path_hash() != two.path_hash()

    def test_path_hash_stable_for_same_path(self):
        def run():
            cov = CoverageMap()
            for block in (5, 9, 5, 11):
                cov.visit(block)
            return cov.path_hash()

        assert run() == run()

    def test_path_hash_memo_survives_reset_generations(self):
        """Each generation touches as many edges as the last, so a memo
        keyed on the journal length alone would hand back the previous
        generation's sort."""
        rng = random.Random(5)
        reused = CoverageMap()
        for generation in range(4):
            edges = rng.sample(range(MAP_SIZE), 200)
            fresh = CoverageMap()
            _touch_distinct(reused, edges, random.Random(generation))
            _touch_distinct(fresh, edges, random.Random(generation))
            first = reused.path_hash()
            assert reused.path_hash() == first  # memo hit
            assert first == fresh.path_hash(), generation
            assert list(reused.iter_hits()) == list(fresh.iter_hits())
            if generation % 2:
                reused.fast_reset()
            else:
                reused.reset()


class TestResetEquivalence:
    @pytest.mark.parametrize("length", RESET_LENGTHS)
    def test_fast_reset_indistinguishable_from_reset(self, length):
        rng = random.Random(97 + length)
        edges = rng.sample(range(MAP_SIZE), length)
        fast, full = CoverageMap(), CoverageMap()
        _touch_distinct(fast, edges, random.Random(length))
        _touch_distinct(full, edges, random.Random(length))
        assert fast.edge_count() == length
        fast._prev = full._prev = 0x1234
        fast.fast_reset()
        full.reset()
        assert bytes(fast.counts) == bytes(full.counts) == bytes(MAP_SIZE)
        assert fast.journal == full.journal == []
        assert fast._prev == full._prev == 0
        # both maps stay fully reusable and agree afterwards
        for block in (1, 2, 3, 1):
            fast.visit(block)
            full.visit(block)
        assert list(fast.iter_hits()) == list(full.iter_hits())
        assert fast.path_hash() == full.path_hash()


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
        baseline_map = CoverageMap()
        for edge in edges:
            self._touch(baseline_map, edge, hit_counts[edge])
        baseline_hash = baseline_map.path_hash()
        baseline_hits = sorted(baseline_map.iter_hits())
        for _trial in range(5):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            permuted = CoverageMap()
            for edge in shuffled:
                self._touch(permuted, edge, hit_counts[edge])
            # path_hash sorts its journal: first-touch order must not
            # leak into the path identity or the hit stream
            assert sorted(permuted.iter_hits()) == baseline_hits
            assert permuted.path_hash() == baseline_hash
            fresh = GlobalCoverage()
            assert fresh.would_be_new(permuted)
            assert fresh.merge(permuted)
            reference = GlobalCoverage()
            reference.merge(baseline_map)
            assert bytes(fresh.virgin) == bytes(reference.virgin)
            assert not fresh.would_be_new(permuted)


class TestGlobalCoverage:
    def _map_with(self, *blocks):
        cov = CoverageMap()
        for block in blocks:
            cov.visit(block)
        return cov

    def test_first_map_is_always_new(self):
        glob = GlobalCoverage()
        assert glob.merge(self._map_with(1, 2, 3))

    def test_identical_map_not_new(self):
        glob = GlobalCoverage()
        glob.merge(self._map_with(1, 2, 3))
        assert not glob.merge(self._map_with(1, 2, 3))

    def test_new_edge_detected(self):
        glob = GlobalCoverage()
        glob.merge(self._map_with(1, 2))
        assert glob.merge(self._map_with(1, 9))

    def test_new_hit_bucket_on_known_edge_detected(self):
        glob = GlobalCoverage()
        once = CoverageMap()
        once.visit(5)
        glob.merge(once)
        thrice = CoverageMap()
        for _ in range(3):
            thrice._prev = 0
            thrice.visit(5)
        assert glob.merge(thrice)  # count bucket 4 is new

    def test_would_be_new_does_not_mutate(self):
        probe = self._map_with(*_random_blocks(random.Random(8), 300))
        counts, journal = bytes(probe.counts), list(probe.journal)
        glob = GlobalCoverage()
        assert glob.would_be_new(probe)
        assert glob.would_be_new(probe)  # still new: nothing merged
        assert bytes(glob.virgin) == bytes(MAP_SIZE)
        glob.merge(probe)
        merged = bytes(glob.virgin)
        assert not glob.would_be_new(probe)
        assert bytes(glob.virgin) == merged
        assert (bytes(probe.counts), probe.journal) == (counts, journal)

    def test_edge_count_accumulates_distinct_edges(self):
        glob = GlobalCoverage()
        glob.merge(self._map_with(1, 2))
        first = glob.edge_coverage()
        glob.merge(self._map_with(50, 60))
        assert glob.edge_coverage() > first


class TestBucketedMerge:
    """Workspace restores and fleet imports fold a map in as the
    coverage journal stores it (``bucketed_hits``) through
    ``merge_bucketed``; that must reach the decisions and virgin bytes
    that merging the map itself does."""

    @pytest.mark.parametrize("length", MERGE_LENGTHS)
    def test_merge_bucketed_matches_merge(self, length):
        rng = random.Random(31 + length)
        hot = _random_blocks(rng, 8)
        by_map, by_pairs = GlobalCoverage(), GlobalCoverage()
        for trial in range(3):
            blocks = [rng.choice(hot) if rng.random() < 0.5
                      else rng.randrange(1 << 20) for _ in range(length)]
            # a fresh execution, the same one again (nothing new), and
            # the blocks replayed twice (higher hit-count buckets)
            for step, repeats in enumerate((1, 1, 2)):
                execution = CoverageMap()
                for _ in range(repeats):
                    for block in blocks:
                        execution.visit(block)
                decision = by_map.merge(execution)
                assert by_pairs.merge_bucketed(
                    bucketed_hits(execution)) == decision, (trial, step)
                assert bytes(by_pairs.virgin) == bytes(by_map.virgin)
                if step == 1 or length == 0:
                    assert not decision, trial
        assert by_pairs.edge_coverage() == by_map.edge_coverage()


def test_engines_record_into_the_one_map_implementation():
    spec = get_target("libiec61850")
    for engine_name in ("peach", "peach-star"):
        engine = make_engine(engine_name, spec, 1, CampaignConfig())
        assert type(engine.target.collector.map) is CoverageMap
        assert type(engine.seed_pool.coverage) is GlobalCoverage
