"""The triage pipeline: bucket → minimize → export, per unique finding.

Feeds from either a finished :class:`~repro.core.campaign.CampaignResult`
or a persisted :class:`~repro.store.workspace.CampaignWorkspace`
(``peachstar triage --workspace``), and produces a
:class:`TriageReport` the analysis layer renders as a summary table.

Every finding — packet crash, session crash (the report carries an
encoded trace) or divergence — minimizes through the one
:func:`~repro.triage.minimize.minimize_crash`; session reproducers
replay the full minimized trace.

Minimization of *different* findings is embarrassingly parallel: each
builds its own checker, so its result does not depend on which findings
ran before it.  With ``jobs`` > 1 the per-finding work fans out over a
process pool through :func:`~repro.core.campaign.fan_out`, the helper
:func:`~repro.core.campaign.run_campaign_batch` uses; results are
identical to the serial pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Optional

from repro.core.campaign import fan_out
from repro.sanitizer.report import CrashReport
from repro.triage.bucket import CrashBucket, bucket_crashes
from repro.triage.minimize import MinimizationResult, minimize_crash
from repro.triage.reproducer import export_reproducer


@dataclass
class TriagedCrash:
    """One unique crash after the full triage pass."""

    bucket: CrashBucket
    minimization: Optional[MinimizationResult]
    packet_path: Optional[str] = None
    script_path: Optional[str] = None

    @property
    def report(self) -> CrashReport:
        return self.bucket.representative

    @property
    def final_packet(self) -> bytes:
        """What lands in ``<bucket>.bin``: the minimized packet, or —
        for session crashes — the (minimized) encoded trace the
        reproducer script replays."""
        if self.minimization is not None and self.minimization.confirmed:
            return self.minimization.minimized
        if self.report.is_session:
            return self.report.trace
        return self.report.packet

    @property
    def final_report(self) -> CrashReport:
        """The report rendered to the analyst (minimized when possible)."""
        if self.minimization is not None and \
                self.minimization.report is not None:
            return self.minimization.report
        return self.report


@dataclass
class TriageReport:
    """Everything ``peachstar triage`` produced for one target."""

    target_name: str
    crashes: List[TriagedCrash]
    executions_spent: int
    out_dir: Optional[str] = None

    @property
    def minimized_count(self) -> int:
        return sum(1 for crash in self.crashes
                   if crash.minimization is not None
                   and crash.minimization.reduced)


def _run_minimizations(target_spec, buckets: List[CrashBucket],
                       max_executions: int, jobs: Optional[int]
                       ) -> List[MinimizationResult]:
    """One minimization per bucket, serial or fanned over a pool."""
    return fan_out(
        partial(minimize_crash, target_spec, max_executions=max_executions),
        [bucket.representative for bucket in buckets], max_workers=jobs)


def triage_reports(target_spec, reports: Iterable[CrashReport], *,
                   minimize: bool = True,
                   max_executions_per_crash: int = 3000,
                   out_dir: Optional[str] = None,
                   jobs: Optional[int] = None,
                   net_url: Optional[str] = None) -> TriageReport:
    """Run the full triage pass over a set of crash reports.

    Buckets by the refined ``(kind, site, context)`` key, minimizes each
    bucket's representative input under the sanitizer, or through the
    oracle for divergences (``jobs`` worker processes; ``None`` =
    ``REPRO_JOBS``/cores-1, ``1`` = in-process), and (when *out_dir* is
    given) exports a standalone reproducer script plus raw packet — or
    encoded trace, for session crashes — per bucket.  *net_url* is the default endpoint server-crash reproducers
    replay against (``None`` = in-process; each script's argv can
    override it).
    """
    buckets = bucket_crashes(reports)
    minimizations: List[Optional[MinimizationResult]] = [None] * len(buckets)
    executions_spent = 0
    if minimize and buckets:
        minimizations = _run_minimizations(
            target_spec, buckets, max_executions_per_crash, jobs)
        executions_spent = sum(result.executions
                               for result in minimizations)
    triaged: List[TriagedCrash] = []
    for bucket, minimization in zip(buckets, minimizations):
        crash = TriagedCrash(bucket=bucket, minimization=minimization)
        if out_dir is not None:
            crash.packet_path, crash.script_path = export_reproducer(
                out_dir, bucket.slug(), target_spec.name,
                crash.final_report, crash.final_packet,
                net_url=net_url)
        triaged.append(crash)
    return TriageReport(
        target_name=target_spec.name,
        crashes=triaged,
        executions_spent=executions_spent,
        out_dir=out_dir,
    )
