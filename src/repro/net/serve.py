"""``peachstar serve``: expose a simulated protocol server on a TCP port.

The labrad device-server idiom — many concurrent sessions multiplexed
over one event loop, one server process — applied to the six protocol
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

The app object is the asyncio plumbing and the envelope encoding only.
A frame runs through the in-process harness's own
:class:`~repro.runtime.target.Session` and
:func:`~repro.runtime.target.dispatch_armed`: the collector is armed
around ``handle_packet`` alone, so a loopback campaign observes
coverage and crash reports identical to the in-process path while the
event loop and the framing run uninstrumented.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from repro.net.framing import (
    MSG_ACK, MSG_CRASH, MSG_DATA, MSG_HANG, MSG_NONE, MSG_RESET,
    MSG_RESPONSE, EnvelopeError, encode_envelope, framer_for, read_envelope,
)
from repro.runtime.target import Session, dispatch_armed


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

    # -- connection handlers ----------------------------------------------

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        try:
            if self.framing == "raw":
                await self._raw_session(reader, writer)
            else:
                await self._envelope_session(reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _session(self) -> Session:
        if self._shared is not None:
            return self._shared
        return Session(self.spec.make_server)

    async def _envelope_session(self, reader, writer) -> None:
        session = self._session()
        while True:
            try:
                message = await read_envelope(reader)
            except EnvelopeError:
                return  # an oversized envelope: drop the session
            if message is None:
                return
            kind, payload = message
            if kind == MSG_RESET:
                session.reset()
                writer.write(encode_envelope(MSG_ACK))
            elif kind == MSG_DATA:
                out_kind, out_payload = self._dispatch(session, payload)
                writer.write(encode_envelope(out_kind, out_payload))
            else:
                return  # protocol violation: drop the session
            await writer.drain()

    async def _raw_session(self, reader, writer) -> None:
        session = self._session()
        framer = framer_for(self.spec.framing)
        while True:
            data = await reader.read(4096)
            if not data:
                return
            for frame in framer.feed(data):
                kind, payload = self._dispatch(session, frame)
                if kind == MSG_CRASH:
                    # a crashed server drops its clients mid-session
                    return
                if kind == MSG_RESPONSE:
                    writer.write(payload)
                    await writer.drain()
                # MSG_NONE / MSG_HANG: a real server just stays silent


async def start_serving(spec, host: str = "127.0.0.1", port: int = 0, *,
                        collector=None, shared_state: bool = False,
                        framing: str = "peachstar"
                        ) -> Tuple[ServeApp, asyncio.AbstractServer]:
    """Bind *spec*'s server on (host, port); port 0 picks an ephemeral one."""
    app = ServeApp(spec, collector=collector, shared_state=shared_state,
                   framing=framing)
    server = await asyncio.start_server(app.handle_connection, host, port)
    return app, server


def bound_address(server: asyncio.AbstractServer) -> Tuple[str, int]:
    host, port = server.sockets[0].getsockname()[:2]
    return host, port


def serve_forever(spec, host: str = "127.0.0.1", port: int = 2404, *,
                  shared_state: bool = False,
                  framing: str = "peachstar") -> None:
    """Blocking entry point for ``peachstar serve`` (Ctrl-C to stop)."""

    async def _main() -> None:
        app, server = await start_serving(
            spec, host, port, shared_state=shared_state, framing=framing)
        bind_host, bind_port = bound_address(server)
        mode = "shared-state" if shared_state else "per-connection"
        print(f"serving {spec.name} on tcp://{bind_host}:{bind_port} "
              f"(framing={framing}, sessions={mode})")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("serve stopped")
