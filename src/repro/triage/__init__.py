"""Crash triage: minimization, bucketing, severity, reproducer export.

The paper's workflow ends at ASan-style deduplication of the provoking
packet (Listing 2); this subsystem turns each unique finding into an
actionable artifact:

* :mod:`repro.triage.minimize` — one checker and one reduction loop for
  every finding: a packet crash or a divergence is a one-step trace, a
  session crash is its decoded trace.  Whole steps are dropped, then
  the reproducing step shrinks by field-aware shrinking over the
  cracked InsTree plus byte-level ddmin, each candidate re-run (under
  the sanitizer, or through the differential oracle for divergences)
  until the smallest input with the same ``(kind, site)`` remains;
* :mod:`repro.triage.bucket` — bucketing beyond ``(kind, site)`` via the
  call-site-sequence hash captured by the instrumentation layer, plus
  severity classification from the fault kind;
* :mod:`repro.triage.reproducer` — standalone reproducer scripts and raw
  packet files per unique finding;
* :mod:`repro.triage.pipeline` — ties the three together for campaign
  results and persisted workspaces (``peachstar triage``).
"""

from repro.triage.bucket import (
    SEVERITY_ORDER, CrashBucket, bucket_crashes, classify_severity,
)
from repro.triage.minimize import (
    CrashChecker, MinimizationResult, ddmin_bytes, minimize_crash,
    shrink_fields,
)
from repro.triage.pipeline import TriagedCrash, TriageReport, triage_reports
from repro.triage.reproducer import export_reproducer, reproducer_script

__all__ = [
    "CrashBucket", "CrashChecker", "MinimizationResult", "SEVERITY_ORDER",
    "TriageReport", "TriagedCrash", "bucket_crashes", "classify_severity",
    "ddmin_bytes", "export_reproducer", "minimize_crash",
    "reproducer_script", "shrink_fields", "triage_reports",
]
