"""The triage pipeline: bucket → minimize → export, per unique crash.

Feeds from either a finished :class:`~repro.core.campaign.CampaignResult`
or a persisted :class:`~repro.store.workspace.CampaignWorkspace`
(``peachstar triage --workspace``), and produces a
:class:`TriageReport` the analysis layer renders as a summary table.

Crashes found in session mode (the report carries an encoded trace)
route through the session minimizer — whole steps are dropped first,
then the crashing step shrinks through the ordinary field-aware/ddmin
pair — and their reproducers replay the full minimized trace.

Minimization of *different* crashes is embarrassingly parallel (each
bucket representative owns its own sanitizer re-executions), so with
``jobs`` > 1 the per-crash work fans out over a process pool with the
same fallback contract as
:func:`~repro.core.campaign.run_campaign_batch`; results are identical
to the serial pass.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.sanitizer.report import CrashReport
from repro.triage.bucket import CrashBucket, bucket_crashes
from repro.triage.minimize import (
    CrashChecker, MinimizationResult, minimize_crash,
)
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


@dataclass(frozen=True)
class _MinimizeTask:
    """One schedulable minimization (picklable: target by name)."""

    target_name: str
    report: CrashReport
    max_executions: int


class _CheckerPair:
    """Lazily-built sanitizer checkers, one per crash kind.

    Single-packet and session crashes need different re-executors
    (packet vs whole-trace); sharing one of each across a serial triage
    pass keeps the warm-server behavior and builds the pit/collector
    once instead of per crash.
    """

    def __init__(self, target_spec):
        self._spec = target_spec
        self._crash: Optional[CrashChecker] = None
        self._trace = None
        self._divergence = None

    def crash_checker(self) -> CrashChecker:
        if self._crash is None:
            self._crash = CrashChecker(self._spec)
        return self._crash

    def trace_checker(self):
        if self._trace is None:
            from repro.state.triage import TraceChecker
            self._trace = TraceChecker(self._spec)
        return self._trace

    def divergence_checker(self):
        if self._divergence is None:
            from repro.channel.oracle import DivergenceChecker
            self._divergence = DivergenceChecker(self._spec)
        return self._divergence


def _minimize_one(spec, report: CrashReport, max_executions: int,
                  checkers: _CheckerPair) -> MinimizationResult:
    """Minimize one finding, routing by its class.

    Divergence reports (duck-typed by their ``oracle`` attribute)
    re-evaluate through the differential oracle instead of the
    sanitizer; session crashes go through the trace pass.
    """
    if getattr(report, "oracle", None) is not None:
        from repro.channel.oracle import minimize_divergence
        return minimize_divergence(spec, report,
                                   max_executions=max_executions,
                                   checker=checkers.divergence_checker())
    if report.is_session:
        from repro.state.triage import minimize_trace
        return minimize_trace(spec, report, max_executions=max_executions,
                              checker=checkers.trace_checker())
    return minimize_crash(spec, report, max_executions=max_executions,
                          checker=checkers.crash_checker())


def _minimize_worker(task: _MinimizeTask) -> MinimizationResult:
    """Process-pool entry point: resolve the target, minimize one crash."""
    from repro.protocols import get_target
    spec = get_target(task.target_name)
    return _minimize_one(spec, task.report, task.max_executions,
                         _CheckerPair(spec))


def _run_minimizations(target_spec, buckets: List[CrashBucket],
                       max_executions: int, jobs: Optional[int]
                       ) -> List[MinimizationResult]:
    """One minimization per bucket, serial or fanned over a pool.

    Each crash's reduction is an independent greedy search over its own
    sanitizer re-executions, so fanning crashes out changes wall-clock
    only — the per-crash results are identical to the serial pass
    (workers build their own checkers; the serial path shares one per
    kind to keep its warm-server behavior).
    """
    from repro.core.campaign import default_worker_count

    tasks = [_MinimizeTask(target_spec.name, bucket.representative,
                           max_executions) for bucket in buckets]

    def serial() -> List[MinimizationResult]:
        checkers = _CheckerPair(target_spec)
        return [_minimize_one(target_spec, task.report,
                              task.max_executions, checkers)
                for task in tasks]

    max_workers = jobs if jobs is not None else default_worker_count()
    if len(tasks) <= 1 or max_workers <= 1:
        return serial()
    try:
        pool = ProcessPoolExecutor(max_workers=min(max_workers, len(tasks)))
    except OSError:
        # same degradation contract as run_campaign_batch: platforms
        # without process pools run serially, identical results
        return serial()
    with pool:
        return list(pool.map(_minimize_worker, tasks))


def triage_reports(target_spec, reports: Iterable[CrashReport], *,
                   minimize: bool = True,
                   max_executions_per_crash: int = 3000,
                   out_dir: Optional[str] = None,
                   jobs: Optional[int] = None,
                   net_url: Optional[str] = None) -> TriageReport:
    """Run the full triage pass over a set of crash reports.

    Buckets by the refined ``(kind, site, context)`` key, minimizes each
    bucket's representative input under the sanitizer (``jobs`` worker
    processes; ``None`` = ``REPRO_JOBS``/cores-1, ``1`` = in-process),
    and (when *out_dir* is given) exports a standalone reproducer script
    plus raw packet — or encoded trace, for session crashes — per
    bucket.  *net_url* is the default endpoint server-crash reproducers
    replay against (``None`` = in-process; each script's argv can
    override it).
    """
    buckets = bucket_crashes(reports)
    minimizations: List[Optional[MinimizationResult]] = [None] * len(buckets)
    executions_spent = 0
    if minimize and buckets:
        results = _run_minimizations(
            target_spec, buckets, max_executions_per_crash, jobs)
        minimizations = list(results)
        executions_spent = sum(result.executions for result in results)
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
