"""Export campaign results for downstream analysis.

Campaigns and Fig. 4 panels can be serialized to JSON (full fidelity),
CSV (the paths-over-time series, one row per sample) and Markdown (the
Peach-vs-Peach* comparison tables), so results survive outside a
pytest session and can be re-plotted with external tooling.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, List

from repro.core.campaign import CampaignResult
from repro.analysis.figures import Fig4Panel


def campaign_to_dict(result: CampaignResult) -> dict:
    """Lossless dict form of a campaign result (JSON-serializable)."""
    return {
        "engine": result.engine_name,
        "target": result.target_name,
        "seed": result.seed,
        "executions": result.executions,
        "final_paths": result.final_paths,
        "final_edges": result.final_edges,
        "series": [[hours, paths] for hours, paths in result.series],
        "unique_crashes": [
            {
                "kind": report.kind,
                "site": report.site,
                "detail": report.detail,
                "packet_hex": report.packet.hex(),
                "model": report.model_name,
                "first_seen_hours": result.crash_times.get(
                    report.dedup_key),
            }
            for report in result.unique_crashes
        ],
        "stats": dict(result.stats),
    }


def campaign_to_json(result: CampaignResult, *, indent: int = 2) -> str:
    """JSON text for one campaign."""
    return json.dumps(campaign_to_dict(result), indent=indent)


def campaigns_to_csv(results: Iterable[CampaignResult]) -> str:
    """CSV of all series samples: engine,target,seed,hours,paths."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["engine", "target", "seed", "sim_hours",
                     "paths_covered"])
    for result in results:
        for hours, paths in result.series:
            writer.writerow([result.engine_name, result.target_name,
                             result.seed, f"{hours:.4f}", paths])
    return buffer.getvalue()


def panel_to_markdown(panel: Fig4Panel) -> str:
    """Markdown table of one Fig. 4 panel's averaged curves."""
    lines = [
        f"### {panel.target_name}",
        "",
        "| sim hours | Peach | Peach\\* |",
        "|---|---|---|",
    ]
    for (hours, peach), (_h, star) in zip(panel.peach_curve,
                                          panel.star_curve):
        lines.append(f"| {hours:.1f} | {peach:.1f} | {star:.1f} |")
    lines.append("")
    lines.append(f"Final increase: **{panel.final_increase_pct:+.2f}%**")
    return "\n".join(lines)


def panels_to_markdown(panels: List[Fig4Panel]) -> str:
    """Markdown summary table across panels, one row per project."""
    lines = [
        "| project | Peach (final) | Peach\\* (final) | increase |",
        "|---|---|---|---|",
    ]
    for panel in panels:
        lines.append(
            f"| {panel.target_name} | {panel.peach_curve[-1][1]:.1f} "
            f"| {panel.star_curve[-1][1]:.1f} "
            f"| {panel.final_increase_pct:+.2f}% |")
    if panels:
        mean = sum(p.final_increase_pct for p in panels) / len(panels)
        lines.append(f"| **mean** | | | **{mean:+.2f}%** |")
    return "\n".join(lines)


def write_campaign_json(result: CampaignResult, path: str) -> None:
    """Write one campaign's JSON to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(campaign_to_json(result))


def write_series_csv(results: Iterable[CampaignResult], path: str) -> None:
    """Write the combined series CSV to *path*."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(campaigns_to_csv(results))
