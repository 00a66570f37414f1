"""AFL-style edge-coverage bitmap (the paper's instrumentation model).

Paper §IV-B inserts, at every branch point::

    cur_location = <COMPILE_TIME_RANDOM>;
    shared_mem[cur_location ^ prev_location]++;
    prev_location = cur_location >> 1;

:class:`CoverageMap` is the per-execution ``shared_mem`` array;
:class:`GlobalCoverage` is the accumulated "virgin map" that decides
whether a seed reached "a new program execution state that has not
appeared before" — i.e. whether it is *valuable*.  Hit counts are bucketed
into power-of-two classes like AFL so loop-count changes register as new
states without exploding the path count.

Performance model: a typical execution touches a few hundred of the
65,536 edges, so every per-execution operation (``merge``,
``edge_count``, ``path_hash``, reset) runs off a *journal* of touched
indices — O(touched) instead of O(MAP_SIZE).  This is AFL's
sparse-virgin-map trick adapted to CPython: the dense array stays (so
index arithmetic is one bytearray access), but nothing ever scans it.
Every mutation applies the update of :meth:`CoverageMap.visit`, which
the line collectors of :mod:`repro.runtime.instrument` inline in their
trace callbacks; writing ``counts`` any other way desynchronizes the
journal.

This is the one map implementation: campaigns, restores and fleet
imports all use these two classes.  Both memoize the sorted journal
(keyed by a generation counter plus the journal length — within one
generation the journal only grows) so ``path_hash`` and ``iter_hits``
never re-sort what they already sorted.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

MAP_SIZE_POW2 = 16
MAP_SIZE = 1 << MAP_SIZE_POW2
_MAP_MASK = MAP_SIZE - 1

#: journals longer than this zero faster via the template slice-assign
_SPARSE_RESET_LIMIT = MAP_SIZE // 16


def bucket_count(count: int) -> int:
    """Map a raw edge hit count onto its AFL bucket bit.

    AFL's count_class_lookup: 1→1, 2→2, 3→4, 4-7→8, 8-15→16, 16-31→32,
    32-127→64, 128+→128.
    """
    if count <= 0:
        return 0
    if count == 1:
        return 1
    if count == 2:
        return 2
    if count == 3:
        return 4
    if count <= 7:
        return 8
    if count <= 15:
        return 16
    if count <= 31:
        return 32
    if count <= 127:
        return 64
    return 128


#: AFL's count_class_lookup as a flat table: one C-level index replaces
#: the eight-way Python branch chain on every merged edge.
BUCKET_LUT = bytes(bucket_count(count) for count in range(256))

_ZERO_TEMPLATE = bytes(MAP_SIZE)


class CoverageMap:
    """Per-execution edge hit map (``shared_mem`` analog)."""

    __slots__ = ("counts", "journal", "_prev", "_gen", "_sorted",
                 "_sorted_key")

    def __init__(self):
        self.counts = bytearray(MAP_SIZE)
        #: indices touched this execution, in first-touch order (no dups)
        self.journal: List[int] = []
        self._prev = 0
        #: bumped on every reset; within one generation the journal only
        #: grows, so (generation, len(journal)) keys the sorted-journal
        #: memo — count bumps on known edges never invalidate it
        self._gen = 0
        self._sorted: List[int] = []
        self._sorted_key = (0, 0)

    def reset(self) -> None:
        """Clear the map for the next execution (full-map slice assign)."""
        self.counts[:] = _ZERO_TEMPLATE
        self.journal.clear()
        self._prev = 0
        self._gen += 1

    def fast_reset(self) -> None:
        """Clear only what the journal says was touched.

        Falls back to the template slice-assign when the journal is large
        enough that per-index stores would cost more than the memcpy.
        """
        journal = self.journal
        if len(journal) > _SPARSE_RESET_LIMIT:
            self.counts[:] = _ZERO_TEMPLATE
        else:
            counts = self.counts
            for index in journal:
                counts[index] = 0
        journal.clear()
        self._prev = 0
        self._gen += 1

    def _sorted_journal(self) -> List[int]:
        """The journal in ascending index order, sorted at most once.

        Valid until the journal grows (a new first-touch) or resets;
        ``path_hash`` + ``iter_hits`` on the same execution share one
        sort.
        """
        key = (self._gen, len(self.journal))
        if self._sorted_key != key:
            self._sorted = sorted(self.journal)
            self._sorted_key = key
        return self._sorted

    def visit(self, cur_location: int) -> None:
        """Record the transition into basic block *cur_location*.

        Implements the paper's snippet: bump ``shared_mem[cur ^ prev]``
        then shift ``prev``.
        """
        index = (cur_location ^ self._prev) & _MAP_MASK
        counts = self.counts
        count = counts[index]
        if count == 0:
            counts[index] = 1
            self.journal.append(index)
        elif count < 255:
            counts[index] = count + 1
        self._prev = (cur_location >> 1) & _MAP_MASK

    def iter_hits(self) -> Iterable[Tuple[int, int]]:
        """Yield ``(edge_index, raw_count)`` for every touched edge.

        Ascending index order, matching a dense left-to-right map scan.
        """
        counts = self.counts
        for index in self._sorted_journal():
            yield index, counts[index]

    def edge_count(self) -> int:
        """Number of distinct edges touched this execution."""
        return len(self.journal)

    def path_hash(self) -> int:
        """Order-insensitive hash of the bucketed map (path identity)."""
        acc = 0xCBF29CE484222325
        counts = self.counts
        lut = BUCKET_LUT
        for index in self._sorted_journal():
            acc ^= (index << 8) | lut[counts[index]]
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return acc


class GlobalCoverage:
    """Accumulated bucketed coverage across the whole campaign."""

    __slots__ = ("virgin",)

    def __init__(self):
        self.virgin = bytearray(MAP_SIZE)

    @property
    def edges_seen(self) -> int:
        """Distinct edges observed so far: the virgin map's nonzero bytes."""
        return MAP_SIZE - self.virgin.count(0)

    def merge(self, execution_map: CoverageMap) -> bool:
        """Fold *execution_map* in; return True when new state was reached.

        New state = a never-seen edge, or a never-seen hit-count bucket on
        a known edge — AFL's ``has_new_bits``.  Walks the journal (each
        index is independent, so touch order does not affect the result).
        """
        new_bits = False
        virgin = self.virgin
        counts = execution_map.counts
        lut = BUCKET_LUT
        for index in execution_map.journal:
            seen = virgin[index]
            bit = lut[counts[index]]
            if seen & bit == 0:
                virgin[index] = seen | bit
                new_bits = True
        return new_bits

    def merge_bucketed(self, pairs: Iterable[Tuple[int, int]]) -> bool:
        """Fold already-bucketed ``(edge_index, bucket_bits)`` pairs in.

        The coverage journal's path: fleet imports travel as the
        bucketed sparse maps persisted in a sibling shard's journal, and
        a workspace restore replays its own journal, so both merge
        bucket bits directly instead of re-bucketing raw counts.
        Returns True when the pairs reached new state (same contract as
        :meth:`merge`).
        """
        new_bits = False
        virgin = self.virgin
        for index, bucket in pairs:
            seen = virgin[index]
            if seen & bucket != bucket:
                virgin[index] = seen | bucket
                new_bits = True
        return new_bits

    def would_be_new(self, execution_map: CoverageMap) -> bool:
        """Non-mutating variant of :meth:`merge`."""
        virgin = self.virgin
        counts = execution_map.counts
        lut = BUCKET_LUT
        for index in execution_map.journal:
            if virgin[index] & lut[counts[index]] == 0:
                return True
        return False

    def edge_coverage(self) -> int:
        """Total distinct edges observed so far."""
        return self.edges_seen


# -- names the benchmark harness still reads (ROADMAP item 1) --------------

class VectorGlobalCoverage(GlobalCoverage):
    """Retired vector virgin map, kept as a bare subclass only because
    ``benchmarks/perf/tracer.py`` patches its ``merge``/``would_be_new``
    through the class ``__dict__``; nothing in ``src/`` constructs it.
    Binding the base functions here keeps those patches from wrapping
    ``GlobalCoverage``'s twice.  Goes with ROADMAP item 1's benchmark
    side."""

    merge = GlobalCoverage.merge
    would_be_new = GlobalCoverage.would_be_new


def resolve_coverage_impl() -> str:
    """Always ``"sparse"``: the one map implementation.  Kept only for
    ``benchmarks/perf/child.py``'s environment record (ROADMAP item
    1)."""
    return "sparse"
