"""SocketTarget: the :class:`~repro.runtime.target.Target` harness over TCP.

A subclass of the in-process ``Target`` that changes only how a step's
frames reach the server: the trace loop, the channel step and the
result shapes are inherited, and delivery happens over sockets on a
private event loop:

* against a **loopback** served target (:func:`make_loopback_target`)
  the client and the asyncio server share one process, one event loop
  and one instrumentation collector: the client resets it per
  execution and the served app arms it around each dispatch only, so
  coverage, blocks and crash call-sites are identical to the
  in-process path (the pinned parity claim) while the event loop, the
  framing and this module run uninstrumented;
* against an **external** endpoint (``tcp://host:port``) the target is
  a black box: no coverage feedback, per-protocol raw framing if asked,
  wall-clock timeouts and reconnect-on-drop as scenario axes, and a
  dropped connection surfacing as a synthesized ``connection-dropped``
  crash — the way a real server crash looks from outside.

The channel seam composes unchanged: the channel decides *which*
frames to put on the wire, the socket decides *how* they travel.

A single-packet execution is one event-loop pass.  With envelope
framing the session RESET and frame 0's DATA go out in one write; the
ACK and frame 0's reply are then read in order, and any further frames
(a faulting channel duplicates and fragments) take one round trip each.

Concurrency dealing: with ``concurrency=N`` (shared-state serving) a
trace's step *i* is delivered on connection ``i % N`` — N interleaved
sessions racing one server, while the trace itself stays an ordinary
corpus entry so workspaces, fleets and triage compose unchanged.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Sequence, Tuple

from repro.net.config import NetConfig, parse_tcp_url
from repro.net.framing import (
    MSG_ACK, MSG_CRASH, MSG_DATA, MSG_HANG, MSG_NONE, MSG_RESET,
    MSG_RESPONSE, EnvelopeError, encode_envelope, framer_for, read_envelope,
)
from repro.net.serve import bound_address, start_serving
from repro.runtime.target import ExecResult, Target
from repro.sanitizer.report import CrashReport

#: dedup site of the synthesized crash for a dropped connection
DROP_SITE = "net:session"


class NetTargetError(Exception):
    """The endpoint could not be reached (connect/reconnect exhausted)
    or does not speak the peachstar envelope."""


class _Connection:
    """One TCP lane of a SocketTarget (its own stream framer in raw mode)."""

    __slots__ = ("target", "reader", "writer", "framer", "ever_connected")

    def __init__(self, target: "SocketTarget"):
        self.target = target
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.framer = framer_for(target.framer_name) \
            if target.framing == "raw" else None
        self.ever_connected = False

    @property
    def open(self) -> bool:
        return self.writer is not None and not self.writer.is_closing()

    async def ensure(self) -> None:
        if self.open:
            return
        target = self.target
        last_exc: Optional[BaseException] = None
        for _ in range(max(1, target.reconnect + 1)):
            try:
                self.reader, self.writer = await asyncio.wait_for(
                    asyncio.open_connection(*target.address),
                    target.CONNECT_TIMEOUT_MS / 1000.0)
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last_exc = exc
                continue
            if self.framer is not None:
                self.framer.reset()
            if self.ever_connected:
                target.net_reconnects += 1
            self.ever_connected = True
            return
        raise NetTargetError(
            f"cannot connect to {target.address[0]}:{target.address[1]}"
            f" ({last_exc})")

    async def close(self) -> None:
        if self.writer is None:
            return
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.reader = self.writer = None


class SocketTarget(Target):
    """Drive a live TCP endpoint through the :class:`Target` harness.

    Build via :func:`make_loopback_target` / :func:`make_net_target` /
    :func:`make_socket_target` rather than directly — they own the
    event-loop and serve-app lifecycle.
    """

    #: results carry the collector's own map, never a caller's, so the
    #: engine runs one iteration per batch and never calls ``run_into``
    supports_batch = False
    #: wall-clock bound on one connection attempt
    CONNECT_TIMEOUT_MS = 5000.0

    def __init__(self, address: Tuple[str, int], *,
                 loop: asyncio.AbstractEventLoop,
                 collector=None, channel=None,
                 framing: str = "peachstar",
                 framer_name: str = "apci",
                 timeout_ms: Optional[float] = None,
                 reconnect: int = 1,
                 concurrency: int = 1,
                 app=None, server=None):
        # no Target.__init__: the session lives behind the socket
        self.address = address
        self.collector = collector
        self.channel = channel
        self.framing = framing
        self.framer_name = framer_name
        self.timeout_ms = timeout_ms
        self.reconnect = reconnect
        self.concurrency = max(1, concurrency)
        self.executions = 0
        #: wall-clock scenario counters (0 on the deterministic loopback
        #: envelope path; the engine folds deltas into its stats)
        self.net_timeouts = 0
        self.net_reconnects = 0
        #: the served app when this target owns a loopback server
        self.app = app
        self._server = server
        self._loop = loop
        self._lanes = [_Connection(self) for _ in range(self.concurrency)]
        self._closed = False

    # -- stats ------------------------------------------------------------

    def take_net_counters(self) -> Tuple[int, int]:
        """(timeouts, reconnects) since the last take — engine absorb."""
        timeouts, reconnects = self.net_timeouts, self.net_reconnects
        self.net_timeouts = 0
        self.net_reconnects = 0
        return timeouts, reconnects

    # -- Target contract --------------------------------------------------

    def run(self, packet: bytes,
            model_name: Optional[str] = None) -> ExecResult:
        """Execute one packet against a fresh remote session."""
        self.executions += 1
        frames = self._channel_frames(0, packet, True)
        collector = self.collector
        if collector is not None:
            collector.begin()
        return self._exec_result(
            None if collector is None else collector.map, frames,
            self._sync(self._run_session(self._lanes[0], frames,
                                         model_name)))

    def _begin_trace(self) -> None:
        """Open every lane and reset its remote session once."""
        self._sync(self._reset_lanes())

    def _deliver(self, index: int, frames: Sequence[bytes],
                 model_name: Optional[str]):
        """Step *index* travels on lane ``index % concurrency``."""
        lane = self._lanes[index % len(self._lanes)]
        return self._sync(self._deliver_frames(lane, frames, model_name))

    def close(self) -> None:
        """Tear down lanes, the owned loopback server, and the loop."""
        if self._closed:
            return
        self._closed = True

        async def _shutdown() -> None:
            for lane in self._lanes:
                await lane.close()
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            # the lanes are closed, so served connection handlers see
            # EOF and return on their own — wait rather than cancel
            # (cancelling trips asyncio.streams' connection_made
            # callback into logging spurious CancelledErrors)
            for _ in range(5):
                stragglers = [task for task in asyncio.all_tasks()
                              if task is not asyncio.current_task()]
                if not stragglers:
                    break
                await asyncio.wait(stragglers, timeout=0.2)

        if not self._loop.is_closed():
            self._loop.run_until_complete(_shutdown())
            self._loop.close()

    # -- async delivery ---------------------------------------------------

    def _sync(self, coro):
        if self._closed:
            coro.close()
            raise NetTargetError("SocketTarget is closed")
        return self._loop.run_until_complete(coro)

    async def _run_session(self, lane: _Connection,
                           frames: Sequence[bytes],
                           model_name: Optional[str]):
        """Reset *lane*'s session and deliver *frames* in one pass.

        With envelope framing frame 0 rides in the reset's write; an
        execution whose frames the channel all dropped still resets.
        """
        pipelined = self.framing != "raw" and bool(frames)
        head = encode_envelope(MSG_DATA, frames[0]) if pipelined else b""
        await self._begin_session(lane, head)
        return await self._deliver_frames(lane, frames, model_name,
                                          head_sent=pipelined)

    async def _begin_session(self, lane: _Connection,
                             head: bytes = b"") -> None:
        """Start a fresh remote session on one lane.

        *head* (envelope framing only) is written right behind the
        RESET; its reply is left unread behind the ACK.
        """
        if self.framing == "raw":
            # a raw endpoint has no reset verb: cycle the connection,
            # which is a fresh session for any per-connection server
            await lane.close()
            await lane.ensure()
        else:
            await lane.ensure()
            await self._envelope_reset(lane, head)

    async def _reset_lanes(self) -> None:
        for lane in self._lanes:
            await self._begin_session(lane)

    async def _envelope_reset(self, lane: _Connection,
                              head: bytes = b"") -> None:
        try:
            lane.writer.write(encode_envelope(MSG_RESET) + head)
            await lane.writer.drain()
        except (ConnectionError, OSError):
            message = None
        else:
            message = await self._read_reply(lane)
        if message is None or message[0] != MSG_ACK:
            await lane.close()
            raise NetTargetError(
                f"endpoint at {self.address} did not ack a session reset "
                "(not a peachstar-framing endpoint?)")

    async def _read_reply(self, lane: _Connection):
        reading = read_envelope(lane.reader)
        try:
            if self.timeout_ms is None:
                return await reading
            return await asyncio.wait_for(reading, self.timeout_ms / 1000.0)
        except asyncio.TimeoutError:
            return "timeout"
        except EnvelopeError as exc:
            # the stream cannot be resynchronized past a bad header
            await lane.close()
            raise NetTargetError(
                f"endpoint at {self.address} sent a malformed envelope "
                f"({exc})") from exc

    async def _deliver_frames(self, lane: _Connection,
                              frames: Sequence[bytes],
                              model_name: Optional[str],
                              head_sent: bool = False):
        """``Target._deliver`` over the wire, on *lane*.

        *head_sent*: frame 0 already went out with the session reset,
        so only its reply is read.
        """
        crash = None
        hang = False
        response = None
        for index, frame in enumerate(frames):
            if head_sent and index == 0:
                crash, hang, response = await self._envelope_outcome(
                    lane, frame, model_name)
            else:
                crash, hang, response = await self._deliver_one(
                    lane, frame, model_name)
            if crash is not None or hang:
                break
        return crash, hang, response

    async def _deliver_one(self, lane: _Connection, frame: bytes,
                           model_name: Optional[str]):
        if self.framing == "raw":
            return await self._deliver_raw(lane, frame, model_name)
        return await self._deliver_envelope(lane, frame, model_name)

    async def _deliver_envelope(self, lane: _Connection, frame: bytes,
                                model_name: Optional[str]):
        try:
            await lane.ensure()
            lane.writer.write(encode_envelope(MSG_DATA, frame))
            await lane.writer.drain()
        except (ConnectionError, OSError):
            return self._dropped(lane, frame, model_name)
        return await self._envelope_outcome(lane, frame, model_name)

    async def _envelope_outcome(self, lane: _Connection, frame: bytes,
                                model_name: Optional[str]):
        """Read and decode the reply to *frame*'s DATA envelope."""
        message = await self._read_reply(lane)
        if message == "timeout":
            # the reply may still arrive later and desync the stream:
            # poison the lane and report the execution as a hang
            self.net_timeouts += 1
            await lane.close()
            return None, True, None
        if message is None:
            return self._dropped(lane, frame, model_name)
        kind, payload = message
        if kind == MSG_RESPONSE:
            return None, False, payload
        if kind == MSG_NONE:
            return None, False, None
        if kind == MSG_HANG:
            return None, True, None
        if kind == MSG_CRASH:
            blob = json.loads(payload.decode("utf-8"))
            report = CrashReport(
                kind=blob["kind"], site=blob["site"],
                detail=blob.get("detail", ""), packet=frame,
                model_name=model_name,
                execution_index=self.executions,
                call_sites=tuple(blob.get("call_sites", ())))
            return report, False, None
        raise NetTargetError(f"unexpected envelope {kind!r} from endpoint")

    async def _deliver_raw(self, lane: _Connection, frame: bytes,
                           model_name: Optional[str]):
        try:
            await lane.ensure()
            lane.writer.write(frame)
            await lane.writer.drain()
        except (ConnectionError, OSError):
            return self._dropped(lane, frame, model_name)
        timeout = (self.timeout_ms or 1000.0) / 1000.0
        while True:
            try:
                data = await asyncio.wait_for(lane.reader.read(4096),
                                              timeout)
            except asyncio.TimeoutError:
                # silence: either the server had nothing to say or it
                # hung — indistinguishable from outside
                self.net_timeouts += 1
                return None, False, None
            except (ConnectionError, OSError):
                data = b""
            if not data:
                return self._dropped(lane, frame, model_name)
            responses = lane.framer.feed(data)
            if responses:
                return None, False, responses[0]

    def _dropped(self, lane: _Connection, frame: bytes,
                 model_name: Optional[str]):
        """The endpoint closed on us mid-execution: that's a crash."""
        if lane.writer is not None:
            lane.writer.close()
            lane.reader = lane.writer = None
        report = CrashReport(
            kind="connection-dropped", site=DROP_SITE,
            detail=f"endpoint {self.address[0]}:{self.address[1]} closed "
                   "the connection mid-session (server fault or restart)",
            packet=frame, model_name=model_name,
            execution_index=self.executions)
        return report, False, None


# -- constructors -------------------------------------------------------------

def make_loopback_target(spec, *, collector=None, channel=None,
                         net: Optional[NetConfig] = None) -> SocketTarget:
    """Serve *spec* on an ephemeral loopback port and target it.

    Server and client share one private event loop (and, crucially, the
    *collector*), so a campaign through this target observes coverage
    and crash context identical to the in-process path while every byte
    still crosses a real TCP socket.
    """
    net = net if net is not None else NetConfig()
    net.validate()
    loop = asyncio.new_event_loop()
    app, server = loop.run_until_complete(start_serving(
        spec, "127.0.0.1", 0, collector=collector,
        shared_state=net.concurrency > 1, framing=net.framing))
    address = bound_address(server)
    timeout_ms = None if net.framing == "peachstar" else net.timeout_ms
    return SocketTarget(
        address, loop=loop, collector=collector, channel=channel,
        framing=net.framing, framer_name=spec.framing,
        timeout_ms=timeout_ms, reconnect=net.reconnect,
        concurrency=net.concurrency, app=app, server=server)


def make_net_target(spec, collector, channel,
                    net: NetConfig) -> SocketTarget:
    """The campaign-facing constructor (see ``CampaignConfig.net``).

    ``loopback`` serves the in-process target and keeps full coverage
    feedback; a ``tcp://`` endpoint is driven black-box (no collector —
    coverage cannot be observed across the process boundary).
    """
    net.validate()
    if net.is_loopback:
        return make_loopback_target(spec, collector=collector,
                                    channel=channel, net=net)
    address = parse_tcp_url(net.url)
    loop = asyncio.new_event_loop()
    return SocketTarget(
        address, loop=loop, collector=None, channel=channel,
        framing=net.framing, framer_name=spec.framing,
        timeout_ms=net.timeout_ms, reconnect=net.reconnect,
        concurrency=net.concurrency)


def make_socket_target(url: str, *, target_name: Optional[str] = None,
                       framing: str = "peachstar",
                       timeout_ms: float = 1000.0,
                       reconnect: int = 1) -> SocketTarget:
    """Standalone replay helper (triage reproducer scripts).

    ``url`` is ``tcp://host:port`` or ``"loopback"`` (serve
    *target_name* in-process on an ephemeral port and replay through
    it).  *target_name* is required either way: it picks the served app
    for loopback replay and the protocol's stream framer for ``raw``
    framing.
    """
    if target_name is None:
        raise ValueError("socket replay needs a target name")
    from repro.protocols import get_target
    return make_net_target(
        get_target(target_name), None, None,
        NetConfig(url=url, framing=framing, timeout_ms=timeout_ms,
                  reconnect=reconnect))
