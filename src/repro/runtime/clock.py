"""Simulated campaign clock.

The paper's Figure 4 plots paths covered against a 24-hour wall clock.
Re-running real 24-hour campaigns is neither possible nor necessary here:
what determines the curves is *how many executions* each fuzzer performs
and how good its seeds are.  :class:`SimulatedClock` charges every
execution a configurable cost (with separate surcharges for Peach*'s
instrumentation feedback, cracking and fixup work, so the comparison does
not hide Peach*'s overhead) and exposes a virtual "hours" axis.

This is the reproduction's one substitution for real time:
deterministic execution budgets stand in for wall-clock budgets.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    """Per-operation costs in virtual milliseconds.

    ``exec_cost_ms`` models the target's processing time per packet (large
    targets like libiec61850 are slower than IEC104).  The overhead knobs
    model the paper's honest accounting: Peach* pays for coverage
    collection on every run and for crack/fixup work on valuable seeds.

    The scale is deliberately compressed: one virtual execution stands
    for a *batch* of real executions, so the paper's 24-hour budget
    corresponds to roughly 1.5k-2.5k virtual executions per target —
    enough to drive every campaign in CI while preserving the
    relative cost structure (Peach*'s instrumentation surcharge included).
    """

    exec_cost_ms: float = 40_000.0
    coverage_overhead_ms: float = 2_000.0
    crack_cost_ms: float = 8_000.0
    semantic_gen_cost_ms: float = 400.0
    fixup_cost_ms: float = 150.0


class SimulatedClock:
    """Virtual clock advanced by charged operation costs.

    Every charge is a plain ``+=`` in program order, so float
    accumulation is bit-identical however the campaign driver groups
    iterations into batches.
    """

    def __init__(self, cost_model: CostModel | None = None):
        self.costs = cost_model if cost_model is not None else CostModel()
        self.now_ms = 0.0

    # -- charges -------------------------------------------------------

    def charge_execution(self, instrumented: bool) -> None:
        """Charge one target execution (plus feedback overhead if any)."""
        self.now_ms += self.costs.exec_cost_ms
        if instrumented:
            self.now_ms += self.costs.coverage_overhead_ms

    def charge_crack(self) -> None:
        self.now_ms += self.costs.crack_cost_ms

    def charge_semantic_generation(self, seeds: int = 1) -> None:
        self.now_ms += self.costs.semantic_gen_cost_ms * seeds

    def charge_fixup(self) -> None:
        self.now_ms += self.costs.fixup_cost_ms

    @property
    def hours(self) -> float:
        """Virtual hours elapsed."""
        return self.now_ms / 3_600_000.0

    def reset(self) -> None:
        self.now_ms = 0.0
