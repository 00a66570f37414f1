"""SocketTarget: the :class:`~repro.runtime.target.Target` harness over TCP.

A subclass of the in-process ``Target`` that changes only how a step's
frames reach the server: the trace loop, the channel step and the
result shapes are inherited, and delivery happens over non-blocking
sockets that one :mod:`selectors` wait steps in the caller's thread
(:meth:`SocketTarget._wait`):

* against a **loopback** served target (:func:`make_loopback_target`)
  the target owns the listening socket and the served connections
  (:class:`~repro.net.serve.Listener`) and steps them from that same
  wait, so client and server share one thread and one instrumentation
  collector: the client resets it per execution and the served app
  arms it around each dispatch only, so coverage, blocks and crash
  call-sites are identical to the in-process path (the pinned parity
  claim) while the sockets, the framing and this module run
  uninstrumented;
* against an **external** endpoint (``tcp://host:port``) the target is
  a black box: no coverage feedback, per-protocol raw framing if asked,
  wall-clock timeouts and reconnect-on-drop as scenario axes, and a
  dropped connection surfacing as a synthesized ``connection-dropped``
  crash — the way a real server crash looks from outside.

The channel seam composes unchanged: the channel decides *which*
frames to put on the wire, the socket decides *how* they travel.

With envelope framing the session RESET and frame 0's DATA go out in
one write; the ACK and frame 0's reply are then read in order, and any
further frames (a faulting channel duplicates and fragments) take one
round trip each.

Concurrency dealing: with ``concurrency=N`` (shared-state serving) a
trace's step *i* is delivered on connection ``i % N`` — N interleaved
sessions racing one server, while the trace itself stays an ordinary
corpus entry so workspaces, fleets and triage compose unchanged.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from typing import Callable, Optional, Sequence, Tuple

from repro.net.config import NetConfig, parse_tcp_url
from repro.net.framing import (
    MSG_ACK, MSG_CRASH, MSG_DATA, MSG_HANG, MSG_NONE, MSG_RESET,
    MSG_RESPONSE, EnvelopeError, encode_envelope, framer_for, take_envelope,
)
from repro.net.serve import Listener, ServeApp, Stream
from repro.runtime.target import ExecResult, Target
from repro.sanitizer.report import CrashReport

#: dedup site of the synthesized crash for a dropped connection
DROP_SITE = "net:session"

#: what :meth:`SocketTarget._wait` returns when its timeout ran out
_TIMEOUT = "timeout"


class NetTargetError(Exception):
    """The endpoint could not be reached (connect/reconnect exhausted)
    or does not speak the peachstar envelope."""


def _take_all(received: bytearray) -> Optional[bytes]:
    """Everything received so far (raw framing reads by the chunk)."""
    if not received:
        return None
    data = bytes(received)
    received.clear()
    return data


class _Lane:
    """One TCP connection of a SocketTarget: its :class:`Stream` while
    connected, and its own stream framer in raw mode."""

    __slots__ = ("target", "stream", "framer", "lost")

    def __init__(self, target: "SocketTarget"):
        self.target = target
        self.stream: Optional[Stream] = None
        self.framer = framer_for(target.framer_name) \
            if target.framing == "raw" else None
        #: the last close was not a deliberate session cycle (a drop, a
        #: timeout or a protocol error), so the next open is a reconnect
        self.lost = False

    @property
    def open(self) -> bool:
        return self.stream is not None

    def ensure(self) -> None:
        if self.stream is not None:
            return
        target = self.target
        if target._closed:
            raise NetTargetError("SocketTarget is closed")
        last_exc: Optional[BaseException] = None
        for _ in range(max(1, target.reconnect + 1)):
            try:
                sock = socket.create_connection(
                    target.address, target.CONNECT_TIMEOUT_MS / 1000.0)
            except OSError as exc:
                last_exc = exc
                continue
            self.stream = Stream(target._selector, sock)
            if self.framer is not None:
                self.framer.reset()
            if self.lost:
                target.net_reconnects += 1
                self.lost = False
            return
        raise NetTargetError(
            f"cannot connect to {target.address[0]}:{target.address[1]}"
            f" ({last_exc})")

    def close(self, cycle: bool = False) -> None:
        """Close the connection; *cycle* marks the deliberate close that
        starts a fresh raw session, after which reopening is no
        reconnect."""
        if self.stream is not None:
            self.stream.close()
            self.stream = None
            self.lost = not cycle


class SocketTarget(Target):
    """Drive a live TCP endpoint through the :class:`Target` harness.

    Build via :func:`make_loopback_target` / :func:`make_net_target` /
    :func:`make_socket_target` rather than directly — they own the
    listener and serve-app lifecycle.
    """

    #: results carry the collector's own map, never a caller's, so the
    #: engine runs one iteration per batch and never calls ``run_into``
    supports_batch = False
    #: wall-clock bound on one connection attempt
    CONNECT_TIMEOUT_MS = 5000.0

    def __init__(self, address: Tuple[str, int], *,
                 collector=None, channel=None,
                 framing: str = "peachstar",
                 framer_name: str = "apci",
                 timeout_ms: Optional[float] = None,
                 reconnect: int = 1,
                 concurrency: int = 1,
                 listener: Optional[Listener] = None):
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
        self._selector = selectors.DefaultSelector()
        #: the served app when this target owns a loopback listener,
        #: which then turns in the same wait as the lanes
        self.app: Optional[ServeApp] = None
        self._listener = listener
        if listener is not None:
            self.app = listener.app
            listener.register(self._selector)
        self._lanes = [_Lane(self) for _ in range(self.concurrency)]
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
            self._run_session(self._lanes[0], frames, model_name))

    def _begin_trace(self) -> None:
        """Open every lane and reset its remote session once."""
        for lane in self._lanes:
            self._begin_session(lane)

    def _deliver(self, index: int, frames: Sequence[bytes],
                 model_name: Optional[str]):
        """Step *index* travels on lane ``index % concurrency``."""
        lane = self._lanes[index % len(self._lanes)]
        return self._deliver_frames(lane, frames, model_name)

    def close(self) -> None:
        """Close the lanes, the owned loopback listener and the
        selector."""
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes:
            lane.close()
        if self._listener is not None:
            self._listener.close()
        self._selector.close()

    # -- the wait ---------------------------------------------------------

    def _wait(self, lane: _Lane, take: Callable[[bytearray], object],
              timeout: Optional[float]):
        """Turn the transport until *take* finds a message in what
        *lane* received.

        Returns the message, ``None`` when nothing more can arrive on
        *lane* (its peer closed), or :data:`_TIMEOUT` when *timeout*
        seconds passed first (``None``: no bound).
        """
        stream = lane.stream
        deadline = None
        while True:
            message = take(stream.received)
            if message is not None:
                return message
            if stream.eof:
                return None
            remaining = None
            if timeout is not None:
                now = time.monotonic()
                if deadline is None:
                    deadline = now + timeout
                remaining = deadline - now
                if remaining <= 0:
                    return _TIMEOUT
            self._turn(remaining)

    def _turn(self, timeout: Optional[float]) -> None:
        """One transport turn: wait up to *timeout* seconds for a socket
        to be ready, then step each ready lane and, on loopback, each
        ready served connection or the listener."""
        for key, mask in self._selector.select(timeout):
            key.data(mask)

    # -- delivery ---------------------------------------------------------

    def _run_session(self, lane: _Lane, frames: Sequence[bytes],
                     model_name: Optional[str]):
        """Reset *lane*'s session and deliver *frames*.

        With envelope framing frame 0 rides in the reset's write; an
        execution whose frames the channel all dropped still resets.
        """
        pipelined = self.framing != "raw" and bool(frames)
        head = encode_envelope(MSG_DATA, frames[0]) if pipelined else b""
        self._begin_session(lane, head)
        return self._deliver_frames(lane, frames, model_name,
                                    head_sent=pipelined)

    def _begin_session(self, lane: _Lane, head: bytes = b"") -> None:
        """Start a fresh remote session on one lane.

        *head* (envelope framing only) is written right behind the
        RESET; its reply is left unread behind the ACK.
        """
        if self.framing == "raw":
            # a raw endpoint has no reset verb: cycle the connection,
            # which is a fresh session for any per-connection server
            lane.close(cycle=True)
            lane.ensure()
        else:
            lane.ensure()
            self._envelope_reset(lane, head)

    def _envelope_reset(self, lane: _Lane, head: bytes = b"") -> None:
        try:
            lane.stream.send(encode_envelope(MSG_RESET) + head)
        except OSError:
            message = None
        else:
            message = self._read_reply(lane)
        if message is None or message is _TIMEOUT \
                or message[0] != MSG_ACK:
            lane.close()
            raise NetTargetError(
                f"endpoint at {self.address} did not ack a session reset "
                "(not a peachstar-framing endpoint?)")

    def _read_reply(self, lane: _Lane):
        timeout = None if self.timeout_ms is None \
            else self.timeout_ms / 1000.0
        try:
            return self._wait(lane, take_envelope, timeout)
        except EnvelopeError as exc:
            # the stream cannot be resynchronized past a bad header
            lane.close()
            raise NetTargetError(
                f"endpoint at {self.address} sent a malformed envelope "
                f"({exc})") from exc

    def _deliver_frames(self, lane: _Lane, frames: Sequence[bytes],
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
                crash, hang, response = self._envelope_outcome(
                    lane, frame, model_name)
            elif self.framing == "raw":
                crash, hang, response = self._deliver_raw(
                    lane, frame, model_name)
            else:
                crash, hang, response = self._deliver_envelope(
                    lane, frame, model_name)
            if crash is not None or hang:
                break
        return crash, hang, response

    def _deliver_envelope(self, lane: _Lane, frame: bytes,
                          model_name: Optional[str]):
        try:
            lane.ensure()
            lane.stream.send(encode_envelope(MSG_DATA, frame))
        except OSError:
            return self._dropped(lane, frame, model_name)
        return self._envelope_outcome(lane, frame, model_name)

    def _envelope_outcome(self, lane: _Lane, frame: bytes,
                          model_name: Optional[str]):
        """Read and decode the reply to *frame*'s DATA envelope."""
        message = self._read_reply(lane)
        if message is _TIMEOUT:
            # the reply may still arrive later and desync the stream:
            # poison the lane and report the execution as a hang
            self.net_timeouts += 1
            lane.close()
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

    def _deliver_raw(self, lane: _Lane, frame: bytes,
                     model_name: Optional[str]):
        try:
            lane.ensure()
            lane.stream.send(frame)
        except OSError:
            return self._dropped(lane, frame, model_name)
        timeout = (self.timeout_ms or 1000.0) / 1000.0
        while True:
            # each chunk gets the whole timeout, as a per-read wait does
            data = self._wait(lane, _take_all, timeout)
            if data is _TIMEOUT:
                # silence: either the server had nothing to say or it
                # hung — indistinguishable from outside
                self.net_timeouts += 1
                return None, False, None
            if data is None:
                return self._dropped(lane, frame, model_name)
            responses = lane.framer.feed(data)
            if responses:
                return None, False, responses[0]

    def _dropped(self, lane: _Lane, frame: bytes,
                 model_name: Optional[str]):
        """The endpoint closed on us mid-execution: that's a crash."""
        lane.close()
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

    Server and client share one thread and one wait (and, crucially,
    the *collector*), so a campaign through this target observes
    coverage and crash context identical to the in-process path while
    every byte still crosses a real TCP socket.
    """
    net = net if net is not None else NetConfig()
    net.validate()
    listener = Listener(ServeApp(
        spec, collector=collector, shared_state=net.concurrency > 1,
        framing=net.framing))
    timeout_ms = None if net.framing == "peachstar" else net.timeout_ms
    return SocketTarget(
        listener.address, collector=collector, channel=channel,
        framing=net.framing, framer_name=spec.framing,
        timeout_ms=timeout_ms, reconnect=net.reconnect,
        concurrency=net.concurrency, listener=listener)


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
    return SocketTarget(
        parse_tcp_url(net.url), collector=None, channel=channel,
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
