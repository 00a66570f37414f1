"""Table I reproduction: vulnerabilities exposed by Peach*.

Runs Peach* campaigns on the three bug-carrying projects and renders the
(project, vulnerability type, number, status) table of the paper, plus
the ASan-style report of the lib60870 ``CS101_ASDU_getCOT`` SEGV that the
paper shows in Listings 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.campaign import CampaignConfig, run_repetitions_parallel
from repro.core.stats import time_to_bugs
from repro.protocols import TargetSpec, get_target
from repro.sanitizer.report import CrashReport

#: the paper's Table I, as (project, {vuln type: count}) rows
PAPER_TABLE1: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("lib60870", {"SEGV": 3}),
    ("libmodbus", {"heap-use-after-free": 1, "SEGV": 1}),
    ("libiccp", {"SEGV": 3, "heap-buffer-overflow": 1}),
)

BUGGY_TARGETS = tuple(name for name, _counts in PAPER_TABLE1)


@dataclass
class Table1Row:
    project: str
    found_by_type: Dict[str, int]
    expected_by_type: Dict[str, int]
    first_seen_hours: Dict[Tuple[str, str], float]
    reports: List[CrashReport]

    @property
    def complete(self) -> bool:
        return self.found_by_type == self.expected_by_type

    def render(self) -> List[str]:
        lines = []
        for vuln_type in sorted(set(self.expected_by_type)
                                | set(self.found_by_type)):
            found = self.found_by_type.get(vuln_type, 0)
            expected = self.expected_by_type.get(vuln_type, 0)
            status = "Confirmed" if found >= expected else \
                f"found {found}/{expected}"
            lines.append(f"{self.project:<12} {vuln_type:<22} "
                         f"{found:>3}   {status}")
        return lines


def expected_counts(spec: TargetSpec) -> Dict[str, int]:
    """Vulnerability-type histogram expected from the seeded sites."""
    counts: Dict[str, int] = {}
    for kind, _site in spec.seeded_bug_sites:
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def run_table1_row(target_name: str, *, repetitions: int = 2,
                   budget_hours: float = 24.0, base_seed: int = 7,
                   config: Optional[CampaignConfig] = None,
                   jobs: Optional[int] = 1) -> Table1Row:
    """Fuzz one bug-carrying project with Peach* and tally unique bugs.

    ``jobs`` > 1 runs the repetitions on worker processes (identical
    results, lower wall-clock).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions {repetitions} < 1")
    spec = get_target(target_name)
    if config is None:
        config = CampaignConfig(budget_hours=budget_hours)
    else:
        config = replace(config, budget_hours=budget_hours)
    results = run_repetitions_parallel(
        "peach-star", spec, repetitions=repetitions,
        base_seed=base_seed, config=config, max_workers=jobs)
    by_key: Dict[Tuple[str, str], CrashReport] = {}
    for result in results:
        for report in result.unique_crashes:
            by_key.setdefault(report.dedup_key, report)
    found: Dict[str, int] = {}
    for kind, _site in by_key:
        found[kind] = found.get(kind, 0) + 1
    return Table1Row(
        project=target_name,
        found_by_type=found,
        expected_by_type=expected_counts(spec),
        first_seen_hours=time_to_bugs(results),
        reports=list(by_key.values()),
    )


def render_table1(rows: List[Table1Row]) -> str:
    """The paper's Table I layout: project, type, number, status."""
    lines = [
        "TABLE I: Vulnerabilities Exposed by Peach*",
        f"{'Project':<12} {'Vulnerability Type':<22} {'Num':>3}   Status",
        "-" * 56,
    ]
    total = 0
    for row in rows:
        lines.extend(row.render())
        total += sum(row.found_by_type.values())
    lines.append("-" * 56)
    lines.append(f"total unique vulnerabilities: {total} (paper: 9)")
    return "\n".join(lines)


def getcot_report(rows: List[Table1Row]) -> Optional[str]:
    """The paper's Listing 2: the lib60870 getCOT SEGV, ASan-style."""
    for row in rows:
        if row.project != "lib60870":
            continue
        for report in row.reports:
            if "CS101_ASDU_getCOT" in report.site:
                return report.render()
    return None
