"""ASan/gdb-style crash reports and campaign-level deduplication.

The paper's Listing 2 shows the AddressSanitizer SUMMARY line used to
triage the lib60870 SEGV; :func:`format_report` renders our simulated
faults in the same shape, and :class:`CrashDatabase` deduplicates by
``(kind, site)`` the way the paper counts "unique bugs".

Beyond the paper, each report can carry the *call-site sequence* that
led into the fault (the tail of the instrumentation journal, captured by
the target harness); ``bucket_key`` folds it into a finer-grained bucket
identity used by the triage subsystem, while ``dedup_key`` keeps the
paper's coarse ``(kind, site)`` accounting intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sanitizer.errors import MemoryFault
from repro.util import fnv1a32_fold, hexdump


def context_hash(call_sites: Tuple[int, ...]) -> int:
    """Order-sensitive 32-bit FNV-1a fold of a call-site sequence."""
    return fnv1a32_fold(call_sites)


@dataclass
class CrashReport:
    """One observed crash: what happened, where, and the packet that did it."""

    kind: str
    site: str
    detail: str
    packet: bytes
    model_name: Optional[str] = None
    execution_index: int = 0
    #: tail of the touched-edge journal at fault time (triage bucketing);
    #: empty when the execution was uninstrumented
    call_sites: Tuple[int, ...] = field(default=())
    #: session-mode context: the encoded trace whose replay crashes
    #: (see repro.state.trace) — None for single-packet crashes
    trace: Optional[bytes] = None
    #: index of the crashing step within ``trace`` (None outside sessions)
    crash_step: Optional[int] = None

    @property
    def is_session(self) -> bool:
        """True when this crash needs a multi-packet trace to reproduce."""
        return self.trace is not None

    @property
    def dedup_key(self) -> tuple:
        return (self.kind, self.site)

    @property
    def context_hash(self) -> int:
        """32-bit hash of the call-site sequence (0 when uninstrumented)."""
        if not self.call_sites:
            return 0
        return context_hash(self.call_sites)

    @property
    def bucket_key(self) -> tuple:
        """Triage bucket identity: dedup key refined by crash context."""
        return (self.kind, self.site, self.context_hash)

    def summary_line(self) -> str:
        """The ASan SUMMARY-style one-liner."""
        return f"SUMMARY: AddressSanitizer: {self.kind} {self.site}"

    def render(self) -> str:
        """Full report: fault, site, provoking packet hexdump."""
        lines = [
            "==ERROR: AddressSanitizer: "
            f"{self.kind} at site {self.site}",
            f"    {self.detail}" if self.detail else "",
            self.summary_line(),
            "",
            f"provoking packet ({len(self.packet)} bytes, "
            f"model={self.model_name or 'unknown'}):",
            hexdump(self.packet),
        ]
        if self.is_session:
            lines.insert(-2, "session crash: the packet below is step "
                             f"{(self.crash_step or 0) + 1} of a "
                             "multi-packet trace (replay the full trace "
                             "to reproduce)")
        return "\n".join(line for line in lines if line != "")


def report_from_fault(fault: MemoryFault, packet: bytes,
                      model_name: Optional[str] = None,
                      execution_index: int = 0,
                      call_sites: Tuple[int, ...] = ()) -> CrashReport:
    """Build a :class:`CrashReport` from a raised memory fault."""
    return CrashReport(
        kind=fault.kind,
        site=fault.site,
        detail=fault.detail,
        packet=packet,
        model_name=model_name,
        execution_index=execution_index,
        call_sites=tuple(call_sites),
    )


class CrashDatabase:
    """Deduplicated store of crashes found during a campaign (the C7 set).

    Beyond membership, the database tracks *when* each unique bug was
    first seen (simulated hours).  Re-observations never displace the
    stored report, except when they carry an **earlier** timestamp or
    execution index — which happens when results from parallel shards are
    merged in arbitrary order — in which case the earliest observation
    wins, keeping time-to-bug statistics order-independent.
    """

    def __init__(self):
        self._unique: Dict[tuple, CrashReport] = {}
        #: dedup key -> earliest simulated hours the bug was observed
        self.first_seen: Dict[tuple, float] = {}

    def add(self, report: CrashReport,
            sim_hours: Optional[float] = None) -> bool:
        """Record a crash; return True when it is a *new* unique bug.

        *sim_hours* (when known) feeds the earliest-observation ledger; a
        duplicate with an earlier time than the stored one rewinds
        ``first_seen`` and takes over as the representative report.
        """
        key = report.dedup_key
        if key not in self._unique:
            self._unique[key] = report
            if sim_hours is not None:
                self.first_seen[key] = sim_hours
            return True
        if sim_hours is not None:
            known = self.first_seen.get(key)
            if known is None:
                # the stored report predates the ledger: record the time
                # but keep whichever observation came first
                self.first_seen[key] = sim_hours
                if report.execution_index < \
                        self._unique[key].execution_index:
                    self._unique[key] = report
            elif sim_hours < known:
                self.first_seen[key] = sim_hours
                self._unique[key] = report
        elif report.execution_index < self._unique[key].execution_index:
            self._unique[key] = report
        return False

    def merge(self, other: "CrashDatabase") -> int:
        """Fold another shard's database in; returns newly-unique count.

        Earliest observation wins on collisions regardless of merge
        order, fixing the parallel-merge timestamp hazard.
        """
        new_bugs = 0
        for key, report in other._unique.items():
            if self.add(report, other.first_seen.get(key)):
                new_bugs += 1
        return new_bugs

    def unique_reports(self) -> List[CrashReport]:
        return list(self._unique.values())

    def unique_count(self) -> int:
        return len(self._unique)

    def count_by_kind(self) -> Dict[str, int]:
        """Vulnerability-type histogram (the shape of the paper's Table I)."""
        histogram: Dict[str, int] = {}
        for report in self._unique.values():
            histogram[report.kind] = histogram.get(report.kind, 0) + 1
        return histogram

    def __len__(self) -> int:
        return len(self._unique)

    def __contains__(self, key: tuple) -> bool:
        return key in self._unique
