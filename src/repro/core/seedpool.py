"""Valuable-seed pool: AFL-queue-style path accounting (paper §IV-B).

A seed is *valuable* when its execution "reaches a new program execution
state that has not appeared before" — i.e. its bucketed coverage map
contains bits the global virgin map has not seen.  The pool retains those
seeds and its size is the "paths covered" metric of the paper's
Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.runtime.coverage import CoverageMap, GlobalCoverage


@dataclass(slots=True)
class ValuableSeed:
    """One retained seed: the packet, its origin model, and when it landed."""

    packet: bytes
    model_name: str
    execution_index: int
    sim_time_ms: float
    edges_touched: int
    #: bucketed path identity of the discovering execution; persisted by
    #: the campaign workspace and pinned by the resume-determinism tests
    path_hash: int = 0


class SeedPool:
    """Coverage feedback + retained valuable seeds.

    ``consider`` runs once per execution, so it leans on the sparse
    coverage pipeline: ``merge`` walks the execution map's touched-edge
    journal, never scanning the full map.  ``edge_count`` does scan the
    virgin map; campaigns read it once per checkpoint and result.
    """

    __slots__ = ("coverage", "seeds")

    def __init__(self, coverage: Optional[GlobalCoverage] = None):
        self.coverage = coverage if coverage is not None else GlobalCoverage()
        self.seeds: List[ValuableSeed] = []

    def consider(self, packet: bytes, model_name: str,
                 coverage_map: CoverageMap, execution_index: int,
                 sim_time_ms: float) -> Optional[ValuableSeed]:
        """Fold an execution's coverage in; return the seed if valuable."""
        if not self.coverage.merge(coverage_map):
            return None
        return self.force_add(packet, model_name, coverage_map,
                              execution_index, sim_time_ms)

    def force_add(self, packet: bytes, model_name: str,
                  coverage_map: CoverageMap, execution_index: int,
                  sim_time_ms: float) -> ValuableSeed:
        """Retain a seed regardless of the virgin map's verdict.

        Divergence steering (``--steer-divergence``) uses this for a
        seed whose coverage is stale but whose *behavior* is new (a
        first-seen parse-divergence site).  The map's bits were already
        folded into the virgin map by the earlier ``consider`` call, so
        no merge happens here — which also keeps journal-replay resume
        bit-identical (re-ORing already-set bits is idempotent).
        """
        seed = ValuableSeed(
            packet=packet,
            model_name=model_name,
            execution_index=execution_index,
            sim_time_ms=sim_time_ms,
            edges_touched=coverage_map.edge_count(),
            path_hash=coverage_map.path_hash(),
        )
        self.seeds.append(seed)
        return seed

    @property
    def path_count(self) -> int:
        """Paths covered = number of valuable seeds retained (AFL queue)."""
        return len(self.seeds)

    @property
    def edge_count(self) -> int:
        return self.coverage.edge_coverage()

    def __len__(self) -> int:
        return len(self.seeds)

    def __iter__(self):
        return iter(self.seeds)
