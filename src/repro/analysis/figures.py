"""Figure 4 reproduction: paths-covered-over-time curves with ASCII plots.

The paper's Fig. 4 plots the average number of paths covered by Peach and
Peach* over 24 hours, one panel per protocol project.  This module runs
the comparison and renders each panel as an ASCII chart so the benchmark
harness can print the same series the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.campaign import (
    CampaignConfig, CampaignResult, CampaignTask, average_series,
    run_campaign_batch,
)

DEFAULT_CHECKPOINTS = (1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0)


@dataclass
class Fig4Panel:
    """One panel of Figure 4: both engines' averaged curves on a target."""

    target_name: str
    checkpoints: Tuple[float, ...]
    peach_curve: List[Tuple[float, float]]
    star_curve: List[Tuple[float, float]]
    peach_results: List[CampaignResult]
    star_results: List[CampaignResult]

    @property
    def final_increase_pct(self) -> float:
        peach_final = self.peach_curve[-1][1]
        star_final = self.star_curve[-1][1]
        if peach_final <= 0:
            return 0.0
        return (star_final - peach_final) / peach_final * 100.0

    def series_rows(self) -> List[str]:
        """Tabular rows: hour, peach paths, peach* paths."""
        rows = [f"{'hour':>6} {'peach':>8} {'peach*':>8}"]
        for (hour, peach), (_h, star) in zip(self.peach_curve,
                                             self.star_curve):
            rows.append(f"{hour:6.1f} {peach:8.1f} {star:8.1f}")
        return rows


def run_fig4_panel(target_spec, *, repetitions: int = 3,
                   budget_hours: float = 24.0, base_seed: int = 100,
                   config: Optional[CampaignConfig] = None,
                   checkpoints: Sequence[float] = DEFAULT_CHECKPOINTS,
                   jobs: Optional[int] = 1) -> Fig4Panel:
    """Run one Fig. 4 panel: N reps of each engine on one target.

    Both engines' repetitions are scheduled as one batch; ``jobs`` > 1
    runs them on that many worker processes with identical results.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions {repetitions} < 1")
    if config is None:
        config = CampaignConfig(budget_hours=budget_hours)
    else:
        config = replace(config, budget_hours=budget_hours)
    checkpoints = tuple(h for h in checkpoints if h <= budget_hours)
    if not checkpoints or checkpoints[-1] < budget_hours:
        checkpoints = checkpoints + (budget_hours,)
    tasks = [CampaignTask(engine, target_spec.name,
                          base_seed + 1000 * rep, config)
             for engine in ("peach", "peach-star")
             for rep in range(repetitions)]
    results = run_campaign_batch(tasks, max_workers=jobs)
    peach = results[:repetitions]
    star = results[repetitions:]
    return Fig4Panel(
        target_name=target_spec.name,
        checkpoints=checkpoints,
        peach_curve=average_series(peach, checkpoints),
        star_curve=average_series(star, checkpoints),
        peach_results=peach,
        star_results=star,
    )


def ascii_chart(panel: Fig4Panel, *, width: int = 60,
                height: int = 12) -> str:
    """Render a Fig. 4 panel as an ASCII chart (``*`` = Peach*, ``o`` =
    Peach), mirroring the paper's two-line-per-panel layout."""
    top = max(max(v for _h, v in panel.star_curve),
              max(v for _h, v in panel.peach_curve), 1.0)
    last_hour = panel.checkpoints[-1]
    grid = [[" "] * width for _ in range(height)]

    def plot(curve, marker):
        for hour, value in curve:
            col = min(int(hour / last_hour * (width - 1)), width - 1)
            row = min(int(value / top * (height - 1)), height - 1)
            grid[height - 1 - row][col] = marker

    plot(panel.peach_curve, "o")
    plot(panel.star_curve, "*")  # star drawn second: wins ties visually
    lines = [f"paths covered on {panel.target_name} "
             f"(o=Peach, *=Peach*)  ymax={top:.0f}"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" 0h{'':{width - 8}}{last_hour:.0f}h")
    return "\n".join(lines)


def render_panel_report(panel: Fig4Panel) -> str:
    """Chart + table + headline line for one panel."""
    parts = [ascii_chart(panel), ""]
    parts.extend(panel.series_rows())
    parts.append("")
    parts.append(f"final paths: peach={panel.peach_curve[-1][1]:.1f} "
                 f"peach*={panel.star_curve[-1][1]:.1f} "
                 f"({panel.final_increase_pct:+.2f}%)")
    return "\n".join(parts)
