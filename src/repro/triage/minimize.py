"""Test-case minimization: smallest input, same finding.

The campaign stores whatever oversized mutant happened to trigger each
finding; the analyst wants the minimal reproducer.  Every finding class
reduces through one checker and one loop, because every finding is a
trace: a packet crash or a divergence is a one-step trace, a session
crash is its decoded trace.  :func:`minimize_crash` works outside-in,
round after round, until a round makes no progress or the execution
budget is spent:

1. **step drop** — greedily remove whole steps while the trace still
   reproduces (a session crash often needs only part of its prefix; a
   one-step trace has nothing to drop);
2. **step shrink** — reduce the reproducing step's packet with two
   reducers in turn:

   * :func:`shrink_fields` — *field-aware* shrinking.  When the packet
     parses under one of the pit's data models (strictly, or leniently
     — illegal field values are often exactly why a mutant crashes),
     whole sub-trees are candidates: optional Repeat elements are
     dropped and variable-length leaves truncated *on the InsTree*, and
     the candidate packet is re-built through ``DataModel.build`` so
     the existing Relation/Fixup machinery recomputes sizes, counts and
     checksums.  This is what byte-level reduction cannot do: remove a
     chunk and keep the framing honest in the same step.
   * :func:`ddmin_bytes` — classic Zeller/Hildebrandt delta debugging
     on the raw bytes, for packets (the common case) that are *not*
     legal under any model precisely because malformedness is what
     crashes the target.

Every candidate trace runs through :class:`CrashChecker` and is accepted
only when it still raises the finding's ``(kind, site)`` dedup key: a
server crash re-executes under the sanitizer, a divergence re-parses
through the differential oracle (no server runs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.fixup_engine import TreeEchoProvider
from repro.model.fields import ModelError, ParseError, Repeat
from repro.protocols import PROTOCOLS_PATH_PREFIX
from repro.runtime.instrument import make_line_collector
from repro.runtime.target import Target
from repro.sanitizer.report import CrashReport
from repro.state.binder import TraceBinder
from repro.state.trace import TraceStep, decode_trace, encode_trace


class CrashChecker:
    """Re-runs candidate traces of one finding; accepts its dedup key.

    A server crash re-executes under the sanitizer: each candidate trace
    replays as one live session against a freshly reset server (the
    :class:`~repro.state.binder.TraceBinder` re-derives its bindings, so
    dropping a prefix step never leaves stale framing behind), with a
    hang-budget collector attached, so a candidate that loops forever is
    classified as "does not reproduce" instead of wedging the triage
    run.  The collector has the campaign's hang budget, and the backends
    are parity-pinned, so a campaign's crash keys reproduce whichever
    backend triage runs under.  A divergence re-parses its one frame
    through the differential oracle — no server, no sanitizer.

    ``executions`` counts server steps, or oracle evaluations.  Outcomes
    are cached per encoded trace, so a candidate checked before costs
    nothing.
    """

    def __init__(self, target_spec, finding: CrashReport):
        self.pit = target_spec.make_pit()
        self.key = finding.dedup_key
        self.executions = 0
        self._execution_index = finding.execution_index
        self._crash_steps: Dict[bytes, Optional[int]] = {}
        self._oracle = None
        self._target = None
        if getattr(finding, "oracle", None) is not None:
            # late: `import repro` does not load the channel package
            from repro.channel.oracle import make_oracle
            self._oracle = make_oracle(target_spec, self.pit)
        else:
            self._target = Target(
                target_spec.make_server,
                make_line_collector((PROTOCOLS_PATH_PREFIX,)))

    def crash_step(self, steps: List[TraceStep]) -> Optional[int]:
        """The step at which *steps* raise the finding, or None."""
        encoded = encode_trace(steps)
        if encoded not in self._crash_steps:
            self._crash_steps[encoded] = self._run(steps)[1]
        return self._crash_steps[encoded]

    def report(self, steps: List[TraceStep]) -> Optional[CrashReport]:
        """The finding re-captured on *steps*.

        A server crash re-executes (the cache keeps only crash steps).
        The oracle is a pure function of the frame, so re-deriving its
        report is not counted as another evaluation.
        """
        if self._oracle is not None:
            return self._divergence(steps[0])
        return self._run(steps)[0]

    def _run(self, steps: List[TraceStep]
             ) -> Tuple[Optional[CrashReport], Optional[int]]:
        """One uncached run: ``(report, crash_step)``, or ``(None, None)``
        when the finding does not reproduce."""
        if self._oracle is not None:
            self.executions += 1
            report = self._divergence(steps[0])
            return report, None if report is None else 0
        result = self._target.run_trace(
            [(step.packet, step.model_name) for step in steps],
            TraceBinder(self.pit, steps))
        self.executions += result.steps_executed
        if result.crash is None or result.crash.dedup_key != self.key:
            return None, None
        return result.crash, result.crash_step

    def _divergence(self, step: TraceStep) -> Optional[CrashReport]:
        return next((found for found in self._oracle.examine(
            step.packet, step.model_name, self._execution_index)
            if found.dedup_key == self.key), None)


def ddmin_bytes(packet: bytes, reproduces: Callable[[bytes], bool],
                budget: Optional[List[int]] = None) -> bytes:
    """Byte-granularity ddmin: a 1-minimal subsequence that reproduces.

    *budget* is a one-element mutable execution allowance shared with the
    caller; the reduction stops (keeping its best result) when it runs
    dry.
    """
    if len(packet) <= 1:
        return packet
    granularity = 2
    while len(packet) >= 2:
        chunk = len(packet) / granularity
        reduced = False
        for index in range(granularity):
            if budget is not None and budget[0] <= 0:
                return packet
            start = int(index * chunk)
            end = int((index + 1) * chunk)
            candidate = packet[:start] + packet[end:]
            if not candidate:
                continue
            if budget is not None:
                budget[0] -= 1
            if reproduces(candidate):
                packet = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(packet):
                break
            granularity = min(granularity * 2, len(packet))
    return packet


def _parse_for_shrink(model, packet: bytes):
    """Parse strictly, then leniently; None when structure won't match."""
    for strict in (True, False):
        try:
            return model.parse(packet, strict=strict)
        except ParseError:
            continue
    return None


def _rebuild(model, tree) -> Optional[bytes]:
    """Re-serialize a (mutated) tree through the Relation/Fixup pipeline."""
    try:
        rebuilt = model.build(TreeEchoProvider(tree))
    except (ModelError, ParseError, ValueError):
        return None
    return model.to_wire(rebuilt)


def _structural_candidates(model, tree) -> List[bytes]:
    """Smaller packets obtained by pruning the parsed InsTree.

    Each candidate mutates the tree in place (drop one optional Repeat
    element, truncate a variable-length leaf), re-builds the packet —
    which recomputes every size/count relation and checksum fixup via
    the existing machinery — and reverts the mutation.
    """
    candidates: List[bytes] = []

    def emit():
        wire = _rebuild(model, tree)
        if wire is not None:
            candidates.append(wire)

    for node in tree.root.iter_nodes():
        field = node.field
        if isinstance(field, Repeat) and \
                len(node.children) > max(field.min_count, 1):
            for index in (len(node.children) - 1, 0):
                victim = node.children.pop(index)
                emit()
                node.children.insert(index, victim)
        elif node.is_leaf and field.fixed_width() is None and \
                isinstance(node.value, (bytes, str)) and node.value:
            saved = node.value
            for size in sorted({0, len(saved) // 2, len(saved) - 1}):
                node.value = saved[:size]
                emit()
            node.value = saved
    return candidates


def shrink_fields(pit, packet: bytes, reproduces: Callable[[bytes], bool],
                  budget: Optional[List[int]] = None) -> bytes:
    """Field-aware greedy shrink, iterated to a fixpoint."""
    improved = True
    while improved:
        improved = False
        for model in pit:
            tree = _parse_for_shrink(model, packet)
            if tree is None:
                continue
            for candidate in _structural_candidates(model, tree):
                if budget is not None:
                    if budget[0] <= 0:
                        return packet
                    budget[0] -= 1
                if len(candidate) < len(packet) and reproduces(candidate):
                    packet = candidate
                    improved = True
                    break
            if improved:
                break
    return packet


@dataclass
class MinimizationResult:
    """Outcome of minimizing one finding's input."""

    original: bytes
    minimized: bytes
    dedup_key: tuple
    confirmed: bool          # the original reproduced at all
    executions: int          # server steps or oracle evaluations spent
    report: Optional[CrashReport] = None  # re-captured on the minimized input

    @property
    def reduced(self) -> bool:
        return self.confirmed and len(self.minimized) < len(self.original)

    @property
    def reduction_pct(self) -> float:
        if not self.original:
            return 0.0
        return 100.0 * (1.0 - len(self.minimized) / len(self.original))


def _drop_steps(checker: CrashChecker, steps: List[TraceStep],
                budget: List[int]) -> Tuple[List[TraceStep], bool]:
    """Greedy whole-step removal to a fixpoint; returns (steps, improved)."""
    improved = False
    dropped = True
    while dropped and len(steps) > 1:
        dropped = False
        for index in range(len(steps) - 1, -1, -1):
            if budget[0] <= 0:
                return steps, improved
            candidate = steps[:index] + steps[index + 1:]
            budget[0] -= 1
            if checker.crash_step(candidate) is not None:
                steps = candidate
                improved = dropped = True
                break
    return steps, improved


def minimize_crash(target_spec, report: CrashReport, *,
                   max_executions: int = 3000) -> MinimizationResult:
    """Minimize one finding while preserving its dedup key.

    ``original``/``minimized`` of the result hold the finding's payload:
    the packet, or for a session crash the trace in its canonical
    encoded form (what the workspace persists and the reproducer script
    replays).  *max_executions* bounds the number of candidate checks.
    Each call builds its own :class:`CrashChecker`, so a finding's
    result does not depend on which findings were minimized before it.
    """
    checker = CrashChecker(target_spec, report)
    if report.is_session:
        original, steps = report.trace, decode_trace(report.trace)
    else:
        original = report.packet
        steps = [TraceStep(model_name=report.model_name, packet=original)]
    if checker.crash_step(steps) is None:
        return MinimizationResult(
            original=original, minimized=original, dedup_key=checker.key,
            confirmed=False, executions=checker.executions)

    budget = [max_executions]
    improved = True
    while improved and budget[0] > 0:
        steps, improved = _drop_steps(checker, steps, budget)
        crash_at = checker.crash_step(steps)
        packet = steps[crash_at].packet

        def with_packet(candidate: bytes) -> List[TraceStep]:
            return steps[:crash_at] + \
                [replace(steps[crash_at], packet=candidate)] + \
                steps[crash_at + 1:]

        def reproduces(candidate: bytes) -> bool:
            return checker.crash_step(with_packet(candidate)) is not None

        shrunk = shrink_fields(checker.pit, packet, reproduces, budget)
        shrunk = ddmin_bytes(shrunk, reproduces, budget)
        if len(shrunk) < len(packet):
            steps = with_packet(shrunk)
            improved = True

    final = checker.report(steps)
    if not report.is_session:
        minimized = steps[0].packet
    else:
        minimized = encode_trace(steps)
        if final is not None:
            final.trace = minimized
            final.crash_step = checker.crash_step(steps)
    return MinimizationResult(
        original=original, minimized=minimized, dedup_key=checker.key,
        confirmed=True, executions=checker.executions, report=final)
