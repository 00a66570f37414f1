"""Speed headline reproduction (§V-B): same coverage at 1.2X-25X.

For each project, measure how much faster Peach* reaches the path
coverage that baseline Peach achieves by the end of the budget, and the
final path increase — the two headline numbers of the paper's abstract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core.campaign import (
    CampaignConfig, CampaignTask, run_campaign_batch,
)
from repro.core.stats import ComparisonSummary, compare
from repro.protocols import TargetSpec, all_targets


@dataclass
class HeadlineReport:
    """Per-target comparison rows plus aggregate headline numbers."""

    summaries: List[ComparisonSummary]

    @property
    def average_increase_pct(self) -> float:
        if not self.summaries:
            return 0.0
        return sum(s.path_increase_pct for s in self.summaries) / \
            len(self.summaries)

    @property
    def speedup_range(self) -> tuple:
        speeds = [s.speedup for s in self.summaries if s.speedup]
        if not speeds:
            return (None, None)
        return (min(speeds), max(speeds))

    def render(self) -> str:
        lines = [
            "Peach vs Peach*: paths covered and speed to equal coverage",
            "-" * 66,
        ]
        lines.extend(summary.row() for summary in self.summaries)
        lines.append("-" * 66)
        low, high = self.speedup_range
        if low is not None:
            lines.append(
                f"speedup range {low:.1f}X-{high:.1f}X "
                "(paper: 1.2X-25X)")
        lines.append(
            f"average path increase {self.average_increase_pct:+.2f}% "
            "(paper: +27.35%, range 8.35%-36.84%)")
        return "\n".join(lines)


def run_headline(targets: Optional[List[TargetSpec]] = None, *,
                 repetitions: int = 3, budget_hours: float = 24.0,
                 base_seed: int = 50,
                 config: Optional[CampaignConfig] = None,
                 jobs: Optional[int] = 1) -> HeadlineReport:
    """Run the full §V-B comparison across the selected targets.

    The whole sweep (targets × engines × repetitions) is scheduled as one
    batch, so ``jobs`` > 1 fans every campaign out across processes;
    ``jobs=None`` uses :func:`~repro.core.campaign.default_worker_count`.
    Results are identical to the serial sweep — only wall-clock changes.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions {repetitions} < 1")
    if targets is None:
        targets = list(all_targets())
    cfg = replace(config if config is not None else CampaignConfig(),
                  budget_hours=budget_hours)
    tasks = []
    for spec in targets:
        for engine in ("peach", "peach-star"):
            tasks.extend(
                CampaignTask(engine, spec.name, base_seed + 1000 * rep, cfg)
                for rep in range(repetitions))
    results = run_campaign_batch(tasks, max_workers=jobs)
    summaries = []
    for index, _spec in enumerate(targets):
        start = index * 2 * repetitions
        peach = results[start:start + repetitions]
        star = results[start + repetitions:start + 2 * repetitions]
        summaries.append(compare(peach, star, budget_hours))
    return HeadlineReport(summaries=summaries)
