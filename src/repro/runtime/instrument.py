"""Instrumentation collectors: how basic-block ids reach the coverage map.

The paper compiles targets with ``Peach*-clang`` (an LLVM pass inserting
the edge-count snippet at branch points).  Our targets are Python, so
three collectors are provided:

* :class:`TracingCollector` — zero-modification instrumentation via
  ``sys.settrace``: every executed line of the target's modules becomes a
  basic block whose id is a stable hash of ``(filename, lineno)``.  This
  matches the LLVM pass's granularity closely (one block per branch arm).
* :class:`MonitoringCollector` — the same line granularity via
  ``sys.monitoring`` (PEP 669, CPython 3.12+), which dispatches from the
  interpreter loop without per-frame trace-function plumbing and lets us
  permanently DISABLE out-of-scope code locations instead of re-filtering
  them on every event.
* :class:`ExplicitCollector` — targets call :meth:`ExplicitCollector.hit`
  with a label at interesting points; useful for speed-critical loops and
  for unit-testing the coverage plumbing.

:func:`make_line_collector` picks the fastest available line backend
(``sys.monitoring`` when the interpreter has it, else ``sys.settrace``);
``REPRO_COVERAGE_BACKEND=settrace|monitoring`` forces a choice.

The module also provides :func:`capture_crash_context`: the in-scope
call-site sequence at fault time, used by the triage subsystem to
bucket crashes (a cheap stand-in for an ASan stack hash).  For line
collectors it is derived from the fault's traceback — the actual stack
at the raise, so a crash inside already-visited code gets *its own*
context, not the stale first-touch journal tail — at zero cost on the
hot path; collectors without a scope filter fall back to the journal
tail.

The line collectors pay for one Python callback per traced line, so the
callback does the paper's snippet itself, the way Peach*-clang inlines
it at each branch point.  Block ids live in one table per collector,
``filename -> {lineno -> block id}`` (``None`` for an out-of-scope
file).  It is keyed by filename because a ``str`` caches its hash, while
CPython 3.11 rehashes a code object on every dict probe, which costs
hundreds of nanoseconds on a large function.  The settrace backend
does one dict probe on the filename per *call* event and hands the
frame a local tracer closed over that file's ids.  A traced line then
costs one dict probe, the ``counts``/``journal`` update of
:meth:`CoverageMap.visit <repro.runtime.coverage.CoverageMap.visit>`
applied inline and the hang check, with no Python-level call: the map's
``counts``, its ``journal.append``, ``prev`` and the block count are
bound when the collector arms and written back when it disarms.  All
collectors feed the same :class:`~repro.runtime.coverage.CoverageMap`
and count executed blocks so the harness can flag hangs (runaway
loops).
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.runtime.coverage import _MAP_MASK, CoverageMap
from repro.util import fnv1a32

_MONITORING = getattr(sys, "monitoring", None)


def monitoring_available() -> bool:
    """True when the interpreter offers ``sys.monitoring`` (PEP 669)."""
    return _MONITORING is not None


def _monitoring_usable() -> bool:
    """True when the coverage tool id is free (or already ours).

    ``coverage.py`` under ``COVERAGE_CORE=sysmon``, debuggers and
    profilers can hold the id; ``auto`` then quietly picks settrace
    instead of blowing up on the first execution.
    """
    if _MONITORING is None:
        return False
    holder = _MONITORING.get_tool(_MONITORING.COVERAGE_ID)
    return holder is None or holder == "repro-coverage"


def resolve_backend(backend: str = "auto") -> str:
    """Resolve a backend request to ``"monitoring"`` or ``"settrace"``.

    ``"auto"`` consults ``REPRO_COVERAGE_BACKEND`` and then prefers
    ``sys.monitoring`` when available, falling back to ``sys.settrace``
    on older interpreters.
    """
    choice = backend or "auto"
    if choice == "auto":
        choice = os.environ.get("REPRO_COVERAGE_BACKEND", "auto") or "auto"
    if choice == "auto":
        return "monitoring" if _monitoring_usable() else "settrace"
    if choice not in ("monitoring", "settrace"):
        raise ValueError(
            f"unknown coverage backend {choice!r}; "
            "choices: auto, monitoring, settrace")
    return choice


class HangBudgetExceeded(Exception):
    """Raised inside a traced execution that exceeded its block budget."""


#: blocks one execution may run before it is flagged as a hang — the
#: budget of every collector, so campaigns and triage re-executions agree
HANG_BUDGET = 120_000


#: how many trailing journal entries identify a crash context
CRASH_CONTEXT_DEPTH = 16


def capture_crash_context(collector: Optional["Collector"],
                          fault: Optional[BaseException] = None,
                          depth: int = CRASH_CONTEXT_DEPTH
                          ) -> Tuple[int, ...]:
    """The call-site sequence that led into the current fault.

    With *fault* and a scoped line collector, walks the exception's
    traceback and returns the block ids (the same stable
    ``filename:lineno`` hashes the collectors record) of the in-scope
    frames, outermost first — the actual call path into the fault.  The
    old journal-tail heuristic returned the edges *first reached* before
    the crash, so a crash inside already-visited code inherited a stale
    context from much earlier in the execution and bucketed wrongly.

    Without a traceback (hangs, explicit collectors, the dense reference
    map) the journal tail remains the fallback; in a trace that is the
    tail of the trace's map.  Valid only between the faulting execution
    and the next ``begin()``; the harness captures it while handling the
    fault.
    """
    if collector is None:
        return ()
    block_id = getattr(collector, "_block_id", None)
    if fault is not None and block_id is not None:
        sites = []
        tb = fault.__traceback__
        while tb is not None:
            site = block_id(tb.tb_frame.f_code.co_filename, tb.tb_lineno)
            if site is not None:
                sites.append(site)
            tb = tb.tb_next
        if sites:
            return tuple(sites[-depth:])
    journal = getattr(collector.map, "journal", None)
    if not journal:
        return ()
    return tuple(journal[-depth:])


class Collector:
    """Common interface: reset per execution, armed around target code.

    ``begin()`` starts a new execution: it resets the map and the block
    counter and arms nothing.  ``begin_step()`` starts the next step of
    a trace that records into one map: it restarts AFL's edge chain and
    the block counter but keeps the map's counts and journal.  The
    context manager arms the
    instrumentation mechanism on entry and disarms it on exit; the
    harness enters it around each ``server.handle_packet`` call only
    (:func:`repro.runtime.target.dispatch_armed`), so an execution that
    delivers several frames arms once per frame while its map and hang
    budget keep counting until the next ``begin()``.
    """

    #: which instrumentation mechanism feeds the map (for stats/reports)
    backend_name = "none"

    def __init__(self, coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = HANG_BUDGET):
        self.map = coverage_map if coverage_map is not None else CoverageMap()
        self.hang_budget = hang_budget
        self.blocks_executed = 0

    def begin(self) -> None:
        self.map.fast_reset()
        self.blocks_executed = 0

    def begin_step(self) -> None:
        self.map._prev = 0
        self.blocks_executed = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class ExplicitCollector(Collector):
    """Targets call :meth:`hit` with a stable label at each branch point."""

    backend_name = "explicit"

    def __init__(self, coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = HANG_BUDGET):
        super().__init__(coverage_map, hang_budget)
        self._label_ids: Dict[str, int] = {}

    def hit(self, label: str) -> None:
        """Record entry into the basic block named *label*."""
        block_id = self._label_ids.get(label)
        if block_id is None:
            block_id = fnv1a32(label)
            self._label_ids[label] = block_id
        self.map.visit(block_id)
        self.blocks_executed += 1
        if self.blocks_executed > self.hang_budget:
            raise HangBudgetExceeded(label)


#: ``filename -> {lineno -> block id}``, ``None`` for an out-of-scope file
_LineIds = Dict[str, Optional[Dict[int, int]]]


def _file_ids(line_ids: _LineIds, module_prefixes: Tuple[str, ...],
              filename: str) -> Optional[Dict[int, int]]:
    """*filename*'s id table in *line_ids*, entered on first sight: an
    empty table when one of the prefixes occurs in it, else ``None``."""
    try:
        return line_ids[filename]
    except KeyError:
        ids = ({} if any(prefix in filename for prefix in module_prefixes)
               else None)
        line_ids[filename] = ids
        return ids


def _line_at(code, offset: int) -> Optional[int]:
    """The line of the instruction at byte *offset* of *code*."""
    for start, end, lineno in code.co_lines():
        if start <= offset < end:
            return lineno
    return None


def _line_hooks(line_ids: _LineIds, module_prefixes: Tuple[str, ...]):
    """The per-line hot path of both line backends, as closures.

    Returns ``(arm, disarm, file_tracer, on_line, on_jump)``.  They
    share one execution's recording state in closure cells: the armed
    map's ``counts`` and ``journal.append``, AFL's ``prev``, the block
    count and the hang budget.  ``arm(map, blocks, budget)`` binds that
    state as a collector arms; ``disarm()`` returns ``(prev, blocks)``
    for it to write back.  ``file_tracer(filename, ids)`` makes the
    settrace local trace function of one in-scope file, and ``on_line``
    and ``on_jump`` are the ``sys.monitoring`` LINE and JUMP callbacks.
    Each applies the snippet of
    :meth:`CoverageMap.visit <repro.runtime.coverage.CoverageMap.visit>`
    inline — a call per traced line is what this layer avoids, so the
    two copies are kept side by side here, and
    ``tests/runtime/test_collector_reference.py`` pins both against a
    collector that calls ``visit`` per line.
    """
    counts = append = None
    prev = blocks = budget = 0

    def arm(coverage_map, blocks_executed, hang_budget):
        nonlocal counts, append, prev, blocks, budget
        counts = coverage_map.counts
        append = coverage_map.journal.append
        prev = coverage_map._prev
        blocks = blocks_executed
        budget = hang_budget

    def disarm():
        return prev, blocks

    def file_tracer(filename, ids):
        def local_trace(frame, event, arg):
            nonlocal prev, blocks
            if event == "line":
                lineno = frame.f_lineno
                try:
                    cur = ids[lineno]
                except KeyError:
                    cur = ids[lineno] = fnv1a32(f"{filename}:{lineno}")
                index = (cur ^ prev) & _MAP_MASK
                count = counts[index]
                if count == 0:
                    counts[index] = 1
                    append(index)
                elif count < 255:
                    counts[index] = count + 1
                prev = (cur >> 1) & _MAP_MASK
                blocks += 1
                if blocks > budget:
                    raise HangBudgetExceeded(f"{filename}:{lineno}")
            # the frame's tracer is this function; naming it here would
            # make each tracer a reference cycle, holding the last armed
            # map until a full collection
            return frame.f_trace
        return local_trace

    def on_line(code, lineno):
        nonlocal prev, blocks
        filename = code.co_filename
        try:
            ids = line_ids[filename]
        except KeyError:
            ids = _file_ids(line_ids, module_prefixes, filename)
        if ids is None:
            return _MONITORING.DISABLE
        try:
            cur = ids[lineno]
        except KeyError:
            cur = ids[lineno] = fnv1a32(f"{filename}:{lineno}")
        index = (cur ^ prev) & _MAP_MASK
        count = counts[index]
        if count == 0:
            counts[index] = 1
            append(index)
        elif count < 255:
            counts[index] = count + 1
        prev = (cur >> 1) & _MAP_MASK
        blocks += 1
        if blocks > budget:
            raise HangBudgetExceeded(f"{filename}:{lineno}")
        return None

    def on_jump(code, source, destination):
        # CPython 3.12 builds sys.settrace from LINE events plus a JUMP
        # handler (sys_trace_jump_func, Python/legacy_tracing.c) that
        # reports a backward jump staying on one line (the loop of a
        # one-line comprehension or generator expression) as another
        # event for that line; a jump between lines is reported by the
        # LINE event at its destination.  This mirrors that handler.
        if destination > source:
            return _MONITORING.DISABLE
        filename = code.co_filename
        try:
            ids = line_ids[filename]
        except KeyError:
            ids = _file_ids(line_ids, module_prefixes, filename)
        if ids is None:
            return _MONITORING.DISABLE
        lineno = _line_at(code, destination)
        if lineno != _line_at(code, source):
            return _MONITORING.DISABLE
        if lineno is None:
            return None
        return on_line(code, lineno)

    return arm, disarm, file_tracer, on_line, on_jump


class _LineCollector(Collector):
    """Shared state of the two line-granularity backends.

    A map handed to a line collector must expose ``counts`` (a
    bytearray), ``journal`` (a list) and ``_prev``: the backends write
    them directly.  Arming binds the current ``map`` and block count
    and disarming writes ``prev`` and the count back, so a map swapped
    between executions (``Target.run_into``) and several arms in one
    execution both record exactly what :meth:`CoverageMap.visit` would.
    """

    def __init__(self, module_prefixes: Iterable[str],
                 coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = HANG_BUDGET):
        super().__init__(coverage_map, hang_budget)
        self.module_prefixes = tuple(module_prefixes)
        self._line_ids: _LineIds = {}
        (self._arm, self._disarm, self._file_tracer, self._on_line,
         self._on_jump) = _line_hooks(self._line_ids, self.module_prefixes)

    def _block_id(self, filename: str, lineno: int) -> Optional[int]:
        """The block id of an in-scope line (what the hooks record)."""
        ids = _file_ids(self._line_ids, self.module_prefixes, filename)
        if ids is None:
            return None
        block_id = ids.get(lineno)
        if block_id is None:
            block_id = ids[lineno] = fnv1a32(f"{filename}:{lineno}")
        return block_id

    def _arm_execution(self) -> None:
        self._arm(self.map, self.blocks_executed, self.hang_budget)

    def _disarm_execution(self) -> None:
        self.map._prev, self.blocks_executed = self._disarm()


class TracingCollector(_LineCollector):
    """``sys.settrace``-based line/edge coverage scoped to target modules.

    Parameters
    ----------
    module_prefixes:
        Only code objects whose ``co_filename`` contains one of these
        substrings are traced; everything else (the fuzzer itself, the
        stdlib) is skipped at call granularity, keeping overhead low.
    """

    backend_name = "settrace"

    def __init__(self, module_prefixes: Iterable[str],
                 coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = HANG_BUDGET):
        super().__init__(module_prefixes, coverage_map, hang_budget)
        self._saved_trace = None
        #: filename -> its local tracer, None for an out-of-scope file
        self._tracers: Dict[str, Optional[Callable]] = {}

    def __enter__(self):
        self._arm_execution()
        self._saved_trace = sys.gettrace()
        sys.settrace(self._global_trace)
        return self

    def __exit__(self, exc_type, exc, tb):
        sys.settrace(self._saved_trace)
        self._saved_trace = None
        self._disarm_execution()
        return False

    # -- trace callbacks -----------------------------------------------------

    def _global_trace(self, frame, event, arg):
        # settrace calls the global function for "call" events only
        filename = frame.f_code.co_filename
        try:
            return self._tracers[filename]
        except KeyError:
            ids = _file_ids(self._line_ids, self.module_prefixes, filename)
            tracer = None if ids is None else self._file_tracer(filename,
                                                                ids)
            self._tracers[filename] = tracer
            return tracer


class MonitoringCollector(_LineCollector):
    """``sys.monitoring`` (PEP 669) line coverage, CPython 3.12+.

    Produces the same block ids as :class:`TracingCollector` (the stable
    ``filename:lineno`` hash), so coverage maps are interchangeable
    between backends.  Out-of-scope code locations are DISABLEd at the
    interpreter level after their first event, so steady-state overhead
    is paid only inside the target modules.

    The tool id and the LINE callback are registered on first use and
    stay registered across executions — arming (entering the context
    manager) is ``set_events(LINE)`` and disarming is ``set_events(0)``
    for the already-registered tool, instead of paying the
    use_tool_id/register_callback/free_tool_id churn on every dispatch.
    (Delivery *is* switched off outside the armed window: in-scope code
    that runs there — wire transformers during generation, codecs
    during cracking — must neither record nor pay callback overhead,
    and it can never be DISABLEd.)  DISABLE state survives the toggle,
    which is the cross-execution perf win.  :meth:`release` fully
    unwinds the registration when another tool needs the id.
    """

    backend_name = "monitoring"

    #: scope whose DISABLEd locations currently persist in the
    #: interpreter.  DISABLE state survives callback swaps, which is the
    #: perf win (out-of-scope code stays silent across executions) — but
    #: it must be flushed with restart_events() the moment a collector
    #: with a *different* scope takes over, or that collector would be
    #: blind to everything its predecessor disabled.
    _disabled_scope: Optional[Tuple[str, ...]] = None

    #: tool ids claimed by this process, with the LINE callback
    #: registered; populated lazily on the first arm per id
    _claimed_tools: set = set()
    #: the collector whose LINE callback is currently registered per
    #: tool id (re-registration only happens when the collector changes)
    _callback_owner: Dict[int, "MonitoringCollector"] = {}

    def __init__(self, module_prefixes: Iterable[str],
                 coverage_map: Optional[CoverageMap] = None,
                 hang_budget: int = HANG_BUDGET):
        if _MONITORING is None:
            raise RuntimeError(
                "sys.monitoring is not available on this interpreter "
                f"({sys.version_info.major}.{sys.version_info.minor}); "
                "use TracingCollector or make_line_collector()")
        super().__init__(module_prefixes, coverage_map, hang_budget)
        self._tool_id = _MONITORING.COVERAGE_ID

    def __enter__(self):
        mon = _MONITORING
        cls = MonitoringCollector
        if self._tool_id not in cls._claimed_tools:
            try:
                mon.use_tool_id(self._tool_id, "repro-coverage")
            except ValueError as exc:
                raise RuntimeError(
                    f"sys.monitoring tool id {self._tool_id} is held by "
                    f"{mon.get_tool(self._tool_id)!r}; force the settrace "
                    "backend (REPRO_COVERAGE_BACKEND=settrace)") from exc
            cls._claimed_tools.add(self._tool_id)
        if cls._disabled_scope != self.module_prefixes:
            if cls._disabled_scope is not None:
                mon.restart_events()
            cls._disabled_scope = self.module_prefixes
        if cls._callback_owner.get(self._tool_id) is not self:
            mon.register_callback(self._tool_id, mon.events.LINE,
                                  self._on_line)
            mon.register_callback(self._tool_id, mon.events.JUMP,
                                  self._on_jump)
            cls._callback_owner[self._tool_id] = self
        self._arm_execution()
        mon.set_events(self._tool_id, mon.events.LINE | mon.events.JUMP)
        return self

    def __exit__(self, exc_type, exc, tb):
        # keep the tool id + callback registered; just stop delivery so
        # nothing fires (or records) outside the armed window
        _MONITORING.set_events(self._tool_id, 0)
        self._disarm_execution()
        return False

    @classmethod
    def release(cls) -> None:
        """Fully unwind: disable events, free every claimed tool id.

        For handing the COVERAGE_ID back to other tooling (coverage.py,
        debuggers) and for test isolation; normal campaigns never need
        it.
        """
        if _MONITORING is None:
            return
        for tool_id in sorted(cls._claimed_tools):
            _MONITORING.set_events(tool_id, 0)
            for event in (_MONITORING.events.LINE,
                          _MONITORING.events.JUMP):
                _MONITORING.register_callback(tool_id, event, None)
            _MONITORING.free_tool_id(tool_id)
        if cls._claimed_tools and cls._disabled_scope is not None:
            _MONITORING.restart_events()
        cls._claimed_tools.clear()
        cls._callback_owner.clear()
        cls._disabled_scope = None


def make_line_collector(module_prefixes: Iterable[str], *,
                        hang_budget: int = HANG_BUDGET,
                        backend: str = "auto") -> _LineCollector:
    """Build the fastest line-granularity collector for this interpreter.

    ``backend="auto"`` (or ``REPRO_COVERAGE_BACKEND``) selects
    ``sys.monitoring`` on CPython 3.12+ and falls back to ``sys.settrace``
    on older interpreters.  A ``"monitoring"`` request this interpreter
    cannot serve (no PEP 669, or another tool holds the coverage tool
    id) raises :class:`ValueError` before anything runs, like an unknown
    backend name, so the CLI reports it as ``error:`` (exit 2).
    """
    choice = resolve_backend(backend)
    if choice == "monitoring":
        if _MONITORING is None:
            raise ValueError(
                "the monitoring coverage backend needs sys.monitoring "
                "(PEP 669, CPython 3.12+); this interpreter is "
                f"{sys.version_info.major}.{sys.version_info.minor} — "
                "use REPRO_COVERAGE_BACKEND=settrace")
        if not _monitoring_usable():
            tool_id = _MONITORING.COVERAGE_ID
            raise ValueError(
                f"sys.monitoring tool id {tool_id} is held by "
                f"{_MONITORING.get_tool(tool_id)!r}; "
                "use REPRO_COVERAGE_BACKEND=settrace")
        return MonitoringCollector(module_prefixes, hang_budget=hang_budget)
    return TracingCollector(module_prefixes, hang_budget=hang_budget)
