"""Campaign statistics: the paper's headline metrics.

Three derived measurements back the paper's §V-B claims:

* **path increase** — percentage of additional paths Peach* covers over
  Peach at the end of the budget (the paper reports 8.35%-36.84%, average
  27.35%);
* **speedup** — how much faster Peach* reaches the coverage level Peach
  ends at (the paper reports 1.2X-25X, average 5.7X);
* **time-to-bug** — simulated time until each unique vulnerability is
  first triggered (backs Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.campaign import CampaignResult, average_paths_at
from repro.sanitizer.report import CrashDatabase, CrashReport


@dataclass
class ComparisonSummary:
    """Peach vs Peach* on one target."""

    target_name: str
    budget_hours: float
    peach_final_paths: float
    star_final_paths: float
    path_increase_pct: float
    speedup: Optional[float]

    def row(self) -> str:
        speedup = f"{self.speedup:.1f}X" if self.speedup else ">budget"
        return (f"{self.target_name:<14} paths {self.peach_final_paths:7.1f}"
                f" -> {self.star_final_paths:7.1f}   "
                f"+{self.path_increase_pct:6.2f}%   speedup {speedup}")


def path_increase_pct(peach_results: Sequence[CampaignResult],
                      star_results: Sequence[CampaignResult],
                      hours: float) -> float:
    """Percent more paths Peach* covered at *hours* (averaged over reps)."""
    peach = average_paths_at(peach_results, hours)
    star = average_paths_at(star_results, hours)
    if peach <= 0:
        return 0.0 if star <= 0 else 100.0
    return (star - peach) / peach * 100.0


def speedup_to_reference(star_results: Sequence[CampaignResult],
                         reference_paths: float,
                         reference_hours: float) -> Optional[float]:
    """How much faster Peach* reached the baseline's final coverage.

    The paper's speed claim: "achieves the same code coverage at the
    speed of 1.2X-25X".  For each Peach* repetition, find the simulated
    time at which it first covered ``reference_paths`` (what Peach had at
    the end of the budget); the speedup is ``reference_hours / that
    time``, averaged over the repetitions that reached it.
    """
    target = int(round(reference_paths))
    if target <= 0:
        return None
    ratios: List[float] = []
    for result in star_results:
        reached_at = result.time_to_paths(target)
        if reached_at is not None and reached_at > 0:
            ratios.append(reference_hours / reached_at)
    if not ratios:
        return None
    return sum(ratios) / len(ratios)


def compare(peach_results: Sequence[CampaignResult],
            star_results: Sequence[CampaignResult],
            budget_hours: float) -> ComparisonSummary:
    """Full Peach-vs-Peach* summary for one target."""
    peach_final = average_paths_at(peach_results, budget_hours)
    star_final = average_paths_at(star_results, budget_hours)
    return ComparisonSummary(
        target_name=peach_results[0].target_name if peach_results else "?",
        budget_hours=budget_hours,
        peach_final_paths=peach_final,
        star_final_paths=star_final,
        path_increase_pct=path_increase_pct(peach_results, star_results,
                                            budget_hours),
        speedup=speedup_to_reference(star_results, peach_final,
                                     budget_hours),
    )


def merge_crash_reports(results: Sequence[CampaignResult]
                        ) -> CrashDatabase:
    """Fold parallel results into one :class:`CrashDatabase`.

    Each repetition/shard becomes its own database (reports + first-seen
    times) and the databases fold through :meth:`CrashDatabase.merge`,
    so the earliest observation of every unique bug wins no matter what
    order the parallel results came back in.
    """
    merged = CrashDatabase()
    for result in results:
        shard = CrashDatabase()
        for report in result.unique_crashes:
            shard.add(report, result.crash_times.get(report.dedup_key))
        for key, when in result.crash_times.items():
            if key not in shard:  # timed bug without a kept report
                shard.add(CrashReport(kind=key[0], site=key[1],
                                      detail="", packet=b""), when)
        merged.merge(shard)
    return merged


def merge_divergence_reports(results: Sequence[CampaignResult]
                             ) -> CrashDatabase:
    """Fold parallel results' divergence findings into one database.

    Divergence reports carry no per-key first-seen table (they ride in
    ``unique_divergences`` only), so the fold is a plain earliest-
    execution-index merge.  Raw totals stay in each result's stats
    (``divergences_total``).
    """
    merged = CrashDatabase()
    for result in results:
        shard = CrashDatabase()
        for report in result.unique_divergences:
            shard.add(report, None)
        merged.merge(shard)
    return merged


def time_to_bugs(results: Sequence[CampaignResult]
                 ) -> Dict[Tuple[str, str], float]:
    """Earliest simulated hours each unique bug appeared across reps."""
    return dict(merge_crash_reports(results).first_seen)


def bugs_found(results: Sequence[CampaignResult]) -> Dict[Tuple[str, str], int]:
    """How many repetitions found each unique bug."""
    counts: Dict[Tuple[str, str], int] = {}
    for result in results:
        for key in result.crash_times:
            counts[key] = counts.get(key, 0) + 1
    return counts
