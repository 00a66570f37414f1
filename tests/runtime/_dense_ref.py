"""Reference dense coverage implementation (the pre-sparse seed code).

This is the original O(MAP_SIZE) coverage pipeline, kept verbatim as a
test-only behavioural oracle: every operation scans (or reallocates)
the full 65,536-entry map instead of walking the touched-edge journal.
``test_sparse_equivalence.py`` runs maps and whole campaigns against
both implementations and requires bit-for-bit identical valuable-seed
decisions, path counts and hashes.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.runtime.coverage import MAP_SIZE, _MAP_MASK, bucket_count


class DenseCoverageMap:
    """Per-execution edge hit map, dense-scan variant (seed behaviour).

    ``journal`` exists only because the line collectors write a map's
    ``counts``, ``journal`` and ``_prev`` directly; the resets clear it
    and every scan here ignores it.
    """

    __slots__ = ("counts", "journal", "_prev")

    def __init__(self):
        self.counts = bytearray(MAP_SIZE)
        self.journal = []
        self._prev = 0

    def reset(self) -> None:
        for index in range(MAP_SIZE):
            self.counts[index] = 0
        self.journal.clear()
        self._prev = 0

    def fast_reset(self) -> None:
        self.counts = bytearray(MAP_SIZE)
        self.journal.clear()
        self._prev = 0

    def visit(self, cur_location: int) -> None:
        index = (cur_location ^ self._prev) & _MAP_MASK
        count = self.counts[index]
        if count < 255:
            self.counts[index] = count + 1
        self._prev = (cur_location >> 1) & _MAP_MASK

    def iter_hits(self) -> Iterable[Tuple[int, int]]:
        counts = self.counts
        for index in range(MAP_SIZE):
            if counts[index]:
                yield index, counts[index]

    def edge_count(self) -> int:
        return sum(1 for byte in self.counts if byte)

    def path_hash(self) -> int:
        acc = 0xCBF29CE484222325
        counts = self.counts
        for index in range(MAP_SIZE):
            count = counts[index]
            if count:
                acc ^= (index << 8) | bucket_count(count)
                acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return acc


class DenseGlobalCoverage:
    """Accumulated coverage, dense-scan variant (seed behaviour)."""

    __slots__ = ("virgin", "edges_seen")

    def __init__(self):
        self.virgin = bytearray(MAP_SIZE)
        self.edges_seen = 0

    def merge(self, execution_map) -> bool:
        new_bits = False
        virgin = self.virgin
        for index, count in execution_map.iter_hits():
            bit = bucket_count(count)
            seen = virgin[index]
            if seen & bit == 0:
                if seen == 0:
                    self.edges_seen += 1
                virgin[index] = seen | bit
                new_bits = True
        return new_bits

    def would_be_new(self, execution_map) -> bool:
        virgin = self.virgin
        for index, count in execution_map.iter_hits():
            if virgin[index] & bucket_count(count) == 0:
                return True
        return False

    def edge_coverage(self) -> int:
        return self.edges_seen
