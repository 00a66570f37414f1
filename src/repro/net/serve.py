"""``peachstar serve``: expose a simulated protocol server on a TCP port.

The labrad device-server idiom — many concurrent sessions multiplexed
over one thread, one server process — applied to the six protocol
targets.  Each accepted connection is one *session*: it gets a private
:class:`~repro.runtime.target.Session` (server instance and simulated
heap, so sessions are isolated, like per-connection state in a real
daemon), or — in **shared-state** mode — every connection races one
session, which is what makes two interleaved sessions a genuinely new
scenario class.

Two dialects per port:

* ``peachstar`` framing — the length-prefixed harness envelope
  (:mod:`repro.net.framing`): DATA dispatches one fuzzed frame and
  answers response/none/crash/hang; RESET re-arms the session (fresh
  server state + heap), which is how the remote side reproduces the
  in-process ``Target.run`` / ``run_trace`` reset semantics exactly.
* ``raw`` framing — the protocol's own stream framing, what an external
  client (or an external fuzzer) would speak.  A sanitizer fault closes
  the connection, the way a crashed real server drops its clients; a
  hang simply never answers.

Serving is plain non-blocking sockets in one :mod:`selectors`
selector:

* a :class:`Stream` is one socket with its received and unsent bytes,
  stepped by its selector callback;
* each accepted connection is a Stream whose state machine, for either
  dialect, turns received bytes into the bytes to send back through
  :meth:`ServeApp._dispatch`;
* a :class:`Listener` is the listening socket and those connections,
  registered in a caller's selector;
* :func:`serve_forever` is the ``peachstar serve`` loop over that
  selector.  A loopback :class:`~repro.net.target.SocketTarget`
  registers its listener in its own selector instead and steps it from
  the same wait as its client connections.

A frame runs through the in-process harness's own
:class:`~repro.runtime.target.Session` and
:func:`~repro.runtime.target.dispatch_armed`: the collector is armed
around ``handle_packet`` alone, so a loopback campaign observes
coverage and crash reports identical to the in-process path while the
sockets and the framing run uninstrumented.
"""

from __future__ import annotations

import json
import selectors
import socket
from typing import Optional, Set, Tuple

from repro.net.framing import (
    MSG_ACK, MSG_CRASH, MSG_DATA, MSG_HANG, MSG_NONE, MSG_RESET,
    MSG_RESPONSE, EnvelopeError, encode_envelope, framer_for, take_envelope,
)
from repro.runtime.target import Session, dispatch_armed

#: bytes asked of the kernel per receive call (a larger request costs
#: an mmap of the buffer on every call)
RECV_SIZE = 1 << 16
#: a served connection is not read while more unsent output than this
#: waits (a client that sends without reading gets no further replies)
OUTPUT_BOUND = 1 << 16


class ServeApp:
    """The connection handler behind ``peachstar serve`` and loopback.

    Parameters
    ----------
    spec:
        The :class:`~repro.protocols.TargetSpec` to serve.
    collector:
        Optional instrumentation collector, armed around each dispatch
        and consulted for crash call-site context.  The loopback harness
        passes the *same* collector its client resets per execution, so
        coverage, block counts and remote crash call sites are exactly
        what the in-process path records; a standalone ``peachstar
        serve`` runs without one.
    shared_state:
        All connections share one server instance and one heap.
    framing:
        ``"peachstar"`` (harness envelope) or ``"raw"`` (the protocol's
        own stream framing, from ``spec.framing``).
    """

    def __init__(self, spec, *, collector=None, shared_state: bool = False,
                 framing: str = "peachstar"):
        self.spec = spec
        self.collector = collector
        self.shared_state = shared_state
        self.framing = framing
        self.connections = 0
        self.executions = 0
        self._shared: Optional[Session] = \
            Session(spec.make_server) if shared_state else None

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, session: Session, frame: bytes
                  ) -> Tuple[bytes, bytes]:
        """Run one frame; (envelope kind, payload) of the outcome."""
        self.executions += 1
        crash, hang, response = dispatch_armed(self.collector, session, frame)
        if crash is not None:
            payload = json.dumps({
                "kind": crash.kind,
                "site": crash.site,
                "detail": crash.detail,
                "call_sites": list(crash.call_sites),
            }).encode("utf-8")
            return MSG_CRASH, payload
        if hang:
            return MSG_HANG, b""
        if response is None:
            return MSG_NONE, b""
        return MSG_RESPONSE, response

    def _session(self) -> Session:
        if self._shared is not None:
            return self._shared
        return Session(self.spec.make_server)


class Stream:
    """A non-blocking TCP socket in a selector: the bytes it received
    and nobody has taken yet, and the bytes it has still to send.

    :meth:`step` is its selector callback: it reads what has arrived,
    lets :meth:`process` turn that into output, and sends what the
    socket takes.  The registration follows the state: the socket is
    read until EOF while :meth:`reading` allows, and written while
    output waits (a peer that stops sending may still read).  Both
    ends of a loopback exchange are Streams: the served connection and
    each client lane.
    """

    __slots__ = ("selector", "sock", "received", "unsent", "eof",
                 "events")

    def __init__(self, selector: selectors.BaseSelector,
                 sock: socket.socket):
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.selector = selector
        self.sock = sock
        self.received = bytearray()
        self.unsent = bytearray()
        #: nothing more will arrive: the peer closed, or this end did
        self.eof = False
        #: the selector events the socket is registered for (0: none)
        self.events = 0
        self._watch()

    def send(self, data: bytes) -> None:
        """Send *data*, or as much as the socket takes now; later steps
        send the rest.  A broken connection raises ``OSError``."""
        self.unsent += data
        self._flush()
        self._watch()

    def step(self, mask: int) -> None:
        if mask & selectors.EVENT_READ:
            try:
                data = self.sock.recv(RECV_SIZE)
            except BlockingIOError:
                data = None
            except OSError:  # reset by the peer
                data = b""
            if data:
                self.received += data
            elif data is not None:
                self.eof = True
            self.process()
        if self.unsent:
            try:
                self._flush()
            except OSError:  # the peer is gone
                self.eof = True
                self.unsent.clear()
        self._watch()

    def process(self) -> None:
        """Turn received bytes into output (the served side does)."""

    def reading(self) -> bool:
        return not self.eof

    def _flush(self) -> None:
        try:
            del self.unsent[:self.sock.send(self.unsent)]
        except BlockingIOError:
            pass

    def _watch(self) -> None:
        events = selectors.EVENT_READ if self.reading() else 0
        if self.unsent:
            events |= selectors.EVENT_WRITE
        if events == self.events:
            return
        if not self.events:
            self.selector.register(self.sock, events, self.step)
        elif not events:
            self.selector.unregister(self.sock)
        else:
            self.selector.modify(self.sock, events, self.step)
        self.events = events

    def close(self) -> None:
        self.eof = True
        if self.events:
            self.selector.unregister(self.sock)
            self.events = 0
        self.sock.close()


class _Connection(Stream):
    """One accepted connection: a :class:`Stream` whose received bytes
    run through the app in either dialect, and whose replies go back.

    :meth:`process` is the connection's state machine.  The session
    *ends* when the peer speaks something that is not the envelope, or
    when a raw-dialect frame crashes the server.  The connection then
    reads nothing more, and closes once its output is sent, as it does
    when the peer hangs up.  It is not read while more than
    :data:`OUTPUT_BOUND` bytes wait unsent.
    """

    __slots__ = ("listener", "session", "framer", "ended")

    def __init__(self, listener: "Listener", sock: socket.socket):
        app = listener.app
        app.connections += 1
        self.listener = listener
        self.session = app._session()
        self.framer = framer_for(app.spec.framing) \
            if app.framing == "raw" else None
        self.ended = False
        super().__init__(listener.selector, sock)

    def process(self) -> None:
        """Dispatch every complete envelope (or raw frame) received and
        queue the replies; an incomplete envelope stays received."""
        dispatch = self.listener.app._dispatch
        if self.framer is not None:
            frames = self.framer.feed(bytes(self.received))
            self.received.clear()
            for frame in frames:
                kind, payload = dispatch(self.session, frame)
                if kind == MSG_CRASH:
                    # a crashed server drops its clients mid-session
                    self.ended = True
                    return
                if kind == MSG_RESPONSE:
                    self.unsent += payload
                # MSG_NONE / MSG_HANG: a real server just stays silent
            return
        while not self.ended:
            try:
                message = take_envelope(self.received)
            except EnvelopeError:  # oversized: drop the session
                self.ended = True
                return
            if message is None:
                return
            kind, payload = message
            if kind == MSG_RESET:
                self.session.reset()
                self.unsent += encode_envelope(MSG_ACK)
            elif kind == MSG_DATA:
                self.unsent += encode_envelope(*dispatch(self.session,
                                                         payload))
            else:
                self.ended = True  # protocol violation: drop the session

    def reading(self) -> bool:
        return not (self.eof or self.ended) \
            and len(self.unsent) <= OUTPUT_BOUND

    def step(self, mask: int) -> None:
        super().step(mask)
        if (self.eof or self.ended) and not self.unsent:
            self.close()

    def close(self) -> None:
        super().close()
        self.listener.served.discard(self)


class Listener:
    """A listening socket and the connections it accepted for one app.

    Everything is non-blocking.  :meth:`register` puts the listening
    socket in a caller's selector, and each accepted connection follows
    it there, with the callback that steps it as the registration's
    data: ``for key, mask in selector.select(): key.data(mask)`` is one
    turn of the server.
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0):
        family, _, _, _, address = socket.getaddrinfo(
            host, port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE)[0]
        self.app = app
        self.sock = socket.create_server(address, family=family)
        self.sock.setblocking(False)
        #: the bound (host, port); port 0 picks an ephemeral one
        self.address: Tuple[str, int] = self.sock.getsockname()[:2]
        self.selector: Optional[selectors.BaseSelector] = None
        self.served: Set[_Connection] = set()

    def register(self, selector: selectors.BaseSelector) -> None:
        self.selector = selector
        selector.register(self.sock, selectors.EVENT_READ, self._accept)

    def _accept(self, mask: int) -> None:
        try:
            sock, _ = self.sock.accept()
        except (BlockingIOError, ConnectionError):
            return  # the peer gave up before we got to it
        self.served.add(_Connection(self, sock))

    def close(self) -> None:
        """Close every served connection, then the listening socket."""
        for connection in list(self.served):
            connection.close()
        if self.selector is not None:
            self.selector.unregister(self.sock)
        self.sock.close()


def serve_forever(spec, host: str = "127.0.0.1", port: int = 2404, *,
                  shared_state: bool = False,
                  framing: str = "peachstar") -> None:
    """Blocking entry point for ``peachstar serve`` (Ctrl-C to stop)."""
    app = ServeApp(spec, shared_state=shared_state, framing=framing)
    with selectors.DefaultSelector() as selector:
        listener = Listener(app, host, port)
        try:
            listener.register(selector)
            bind_host, bind_port = listener.address
            mode = "shared-state" if shared_state else "per-connection"
            print(f"serving {spec.name} on tcp://{bind_host}:{bind_port} "
                  f"(framing={framing}, sessions={mode})", flush=True)
            while True:
                for key, mask in selector.select():
                    key.data(mask)
        except KeyboardInterrupt:
            print("serve stopped")
        finally:
            listener.close()
