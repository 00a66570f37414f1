"""Target harness: run one packet against an instrumented protocol server.

``RUNTARGET`` of paper Alg. 1: feed the generated seed to the program
under test, watch for crashes and hangs, and (for Peach*) collect the
edge-coverage feedback.  Servers are in-process objects with a
``handle_packet(heap, data) -> bytes | None`` method; each execution gets
a fresh :class:`~repro.sanitizer.heap.SimHeap` so crashes are a
deterministic function of the packet.

Coverage is charged only at the target's own code: the collector is
reset once per execution (``begin()``, or ``begin_step()`` for a trace
step) and armed around each ``handle_packet`` call alone
(:func:`dispatch_armed`), so neither the harness nor an event loop runs
instrumented.

One harness serves every transport.  :class:`Target` owns the trace
loop, the channel step and the result shapes;
:class:`repro.net.target.SocketTarget` subclasses it and changes only
how a step's frames reach the server, and the served app behind a
socket dispatches through the same :class:`Session` and
:func:`dispatch_armed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.runtime.coverage import CoverageMap
from repro.runtime.instrument import (
    Collector, HangBudgetExceeded, capture_crash_context,
)
from repro.sanitizer.errors import MemoryFault
from repro.sanitizer.heap import SimHeap
from repro.sanitizer.report import CrashReport, report_from_fault


@dataclass(slots=True)
class ExecResult:
    """Outcome of one target execution (slotted: one per fuzz iteration)."""

    coverage: Optional[CoverageMap]
    crash: Optional[CrashReport]
    hang: bool
    response: Optional[bytes]
    blocks_executed: int = 0
    #: frames actually handed to the server after the channel (None when
    #: no channel is configured — the packet itself was delivered)
    delivered: Optional[List[bytes]] = None

    @property
    def crashed(self) -> bool:
        return self.crash is not None


@dataclass(slots=True)
class TraceResult:
    """Outcome of one whole-trace (session) execution.

    Field-compatible with :class:`ExecResult` where the engine and the
    campaign driver look (``coverage``/``crash``/``hang``/``response``/
    ``blocks_executed``/``crashed``): ``coverage`` is the map
    *accumulated across every executed step* (the trace's path
    identity), ``crash`` the fault of the step that raised, attributed
    by ``crash_step``.
    """

    coverage: Optional[CoverageMap]
    crash: Optional[CrashReport]
    hang: bool
    #: the last step's response (ExecResult compatibility)
    response: Optional[bytes]
    blocks_executed: int = 0
    #: how many steps actually executed (a crash/hang stops the trace)
    steps_executed: int = 0
    #: index of the step that crashed (or hung), None when none did
    crash_step: Optional[int] = None
    #: per-step responses, as observed (None = no reply)
    responses: List[Optional[bytes]] = field(default_factory=list)
    #: per-step wire bytes as actually sent (post-binding)
    sent: List[bytes] = field(default_factory=list)
    #: per-step frames delivered after the channel (populated only when
    #: a channel is configured; ``sent`` keeps the pre-channel wire)
    delivered: List[List[bytes]] = field(default_factory=list)

    @property
    def crashed(self) -> bool:
        return self.crash is not None


class ProtocolServer:
    """Interface the six protocol targets implement."""

    #: short name matching the paper's project table (e.g. "libmodbus")
    name = "server"

    def handle_packet(self, heap: SimHeap, data: bytes) -> Optional[bytes]:
        """Process one request frame; may raise MemoryFault."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-connection state between executions (default: none)."""


class Session:
    """One session's server and heap: what the steps of a trace share.

    The in-process :class:`Target` owns one; the served app
    (:class:`repro.net.serve.ServeApp`) holds one per connection, or a
    single shared one that every connection races.
    """

    __slots__ = ("server", "heap")

    def __init__(self, make_server: Callable[[], ProtocolServer]):
        self.server = make_server()
        self.heap = SimHeap()

    def reset(self) -> None:
        """A fresh session: server state cleared, a new heap."""
        self.server.reset()
        self.heap = SimHeap()


def dispatch_armed(collector: Optional[Collector], session: Session,
                   frame: bytes, model_name: Optional[str] = None,
                   execution_index: int = 0
                   ) -> Tuple[Optional[CrashReport], bool, Optional[bytes]]:
    """One ``handle_packet`` call with *collector* armed around it.

    Returns ``(crash, hang, response)``: the :class:`CrashReport` of a
    :class:`MemoryFault` the server raised (with its call-site context),
    ``hang=True`` when the collector's block budget ran out, or the
    server's reply.  The report is built while the fault is handled, so
    the fault (whose traceback holds the harness frames) dies with this
    call.  The collector is disarmed on every way out; resetting it for
    a new execution (``begin()``) is the caller's job.
    """
    try:
        if collector is None:
            return None, False, session.server.handle_packet(
                session.heap, frame)
        with collector:
            return None, False, session.server.handle_packet(
                session.heap, frame)
    except MemoryFault as fault:
        return report_from_fault(
            fault, frame, model_name, execution_index,
            call_sites=capture_crash_context(collector, fault)), False, None
    except HangBudgetExceeded:
        return None, True, None


class Target:
    """Binds a server factory to an instrumentation collector.

    The one execution harness: :class:`repro.net.target.SocketTarget`
    subclasses it and overrides only how a step's frames reach the
    server (:meth:`_begin_trace` and :meth:`_deliver`), plus its own
    single-packet :meth:`run`.

    Parameters
    ----------
    server_factory:
        Zero-argument callable returning a fresh :class:`ProtocolServer`.
        The server object is reused across executions (its ``reset`` is
        called); the heap is always fresh.
    collector:
        The instrumentation collector, or ``None`` for an uninstrumented
        baseline run (plain Peach collects no feedback during fuzzing —
        the paper adds the path-coverage *measurement* framework to both
        tools, which :class:`repro.core.campaign.Campaign` models
        separately).
    channel:
        Optional :class:`repro.channel.faults.Channel` sitting between
        the harness and the server.  ``None`` keeps today's path (the
        packet itself is the delivered frame, zero overhead); a channel
        is reset at each run/trace boundary and consulted per step for
        the frames to actually deliver.
    """

    #: the in-process target records into a caller's map
    #: (:meth:`run_into`), so the engine may batch iterations;
    #: SocketTarget sets this False and the engine runs one iteration
    #: per batch there
    supports_batch = True

    def __init__(self, server_factory: Callable[[], ProtocolServer],
                 collector: Optional[Collector] = None,
                 channel=None):
        self.session = Session(server_factory)
        self.collector = collector
        self.channel = channel
        self.executions = 0

    def close(self) -> None:
        """Release transport resources (none in-process).

        The campaign driver closes every target when a campaign ends;
        SocketTarget closes its connections, its served loopback server
        and its event loop here.
        """

    def run(self, packet: bytes, model_name: Optional[str] = None) -> ExecResult:
        """Execute *packet* against the server; never lets faults escape.

        Coverage lands in the collector's own map, which the next
        execution resets.
        """
        collector = self.collector
        return self._run(packet, model_name,
                         collector.map if collector is not None else None)

    def run_into(self, packet: bytes, model_name: Optional[str],
                 coverage_map: CoverageMap) -> ExecResult:
        """:meth:`run`, recording coverage into *coverage_map* instead.

        The collector is rebound to the caller's map, so results of
        consecutive executions each keep their own coverage (the
        engine's ``iterate_batch`` rotates a map pool through here).
        Needs a collector.
        """
        return self._run(packet, model_name, coverage_map)

    def _run(self, packet: bytes, model_name: Optional[str],
             coverage_map: Optional[CoverageMap]) -> ExecResult:
        """One execution: a fresh session, then the channel's frames
        delivered in order, each dispatch armed."""
        self.executions += 1
        self.session.reset()
        frames = self._channel_frames(0, packet, True)
        collector = self.collector
        if collector is not None:
            collector.map = coverage_map
            collector.begin()
        return self._exec_result(coverage_map, frames,
                                 self._deliver(0, frames, model_name))

    def run_trace(self, steps: Sequence[Tuple[bytes, Optional[str]]],
                  binder=None) -> TraceResult:
        """Execute a whole multi-packet trace against one live session.

        The session is reset **once**, at the trace boundary; every step
        then runs against the same server instance *and the same
        simulated heap*, so cross-packet state (sequence numbers,
        select-before-operate latches, lingering allocations) carries
        over exactly as it would on a real connection.  Coverage is
        accumulated across steps into one trace-level map, and a crash
        is attributed to the step that raised it (the trace stops
        there — the session is gone).

        The collector records every step straight into the trace's map
        and gets its own map back on every way out.  Each step starts
        like an execution (``begin_step()``: AFL's ``prev`` and the
        block count restart, so the hang budget is per step) but keeps
        the counts.  That is what folding per-step maps together would
        give: the journal is first touch across steps, and counts
        saturate alike, ``min(255, a + min(255, b)) == min(255, a +
        b)``.  A crashing or hanging step's partial coverage stays in
        the map; the map's final ``prev`` is not part of its identity.

        *binder* (optional, duck-typed — see
        :class:`repro.state.binder.TraceBinder`) is consulted around
        each step: ``prepare(index, packet)`` returns the wire bytes to
        actually send (response-derived bindings applied), and
        ``observe(index, response)`` captures session variables from
        the reply.
        """
        self._begin_trace()
        collector = self.collector
        result = TraceResult(coverage=None, crash=None, hang=False,
                             response=None)
        if collector is not None:
            own_map = collector.map
            collector.map = result.coverage = CoverageMap()
        last = len(steps) - 1
        try:
            for index, (packet, model_name) in enumerate(steps):
                self.executions += 1
                wire = packet if binder is None \
                    else binder.prepare(index, packet)
                result.sent.append(wire)
                frames = self._channel_frames(index, wire, index == last)
                if self.channel is not None:
                    result.delivered.append(list(frames))
                if collector is not None:
                    collector.begin_step()
                crash, hang, response = self._deliver(index, frames,
                                                      model_name)
                if collector is not None:
                    result.blocks_executed += collector.blocks_executed
                result.steps_executed = index + 1
                result.responses.append(response)
                result.response = response
                if crash is not None:
                    result.crash = crash
                    result.crash_step = index
                    break
                if hang:
                    result.hang = True
                    result.crash_step = index
                    break
                if binder is not None:
                    binder.observe(index, response)
        finally:
            if collector is not None:
                collector.map = own_map
        return result

    # -- transport hooks (SocketTarget overrides both) -------------------

    def _begin_trace(self) -> None:
        """Start the session a trace's steps share."""
        self.session.reset()

    def _deliver(self, index: int, frames: Sequence[bytes],
                 model_name: Optional[str]):
        """Deliver step *index*'s frames in order; ``(crash, hang,
        response)`` of the last one dispatched.

        A crash or hang stops delivery.  An empty *frames* (the channel
        dropped the packet) is a no-op execution: no dispatch, no
        response.
        """
        crash = None
        hang = False
        response = None
        for frame in frames:
            crash, hang, response = dispatch_armed(
                self.collector, self.session, frame, model_name,
                self.executions)
            if crash is not None or hang:
                break
        return crash, hang, response

    # -- shared helpers ---------------------------------------------------

    def _channel_frames(self, index: int, wire: bytes,
                        last: bool) -> Sequence[bytes]:
        """The frames step *index* hands the server.

        Without a channel that is *wire* itself.  A channel is reset at
        the run/trace boundary (step 0), and on the *last* step a frame
        still held by a reorder fault lands before the session closes.
        """
        channel = self.channel
        if channel is None:
            return (wire,)
        if index == 0:
            channel.reset()
        frames = channel.transmit(index, wire)
        if last:
            frames.extend(channel.flush())
        return frames

    def _exec_result(self, coverage_map: Optional[CoverageMap],
                     frames: Sequence[bytes], outcome) -> ExecResult:
        """Wrap a single-packet ``(crash, hang, response)`` outcome."""
        crash, hang, response = outcome
        collector = self.collector
        return ExecResult(
            coverage=None if collector is None else coverage_map,
            crash=crash, hang=hang, response=response,
            blocks_executed=0 if collector is None
            else collector.blocks_executed,
            delivered=None if self.channel is None else list(frames))
