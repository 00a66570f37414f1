"""Live-network target layer: serve the simulated protocol servers over
TCP and drive live endpoints through the ``Target`` contract.

See :mod:`repro.net.serve` (the ``peachstar serve`` server: one
selector over non-blocking sockets), :mod:`repro.net.target`
(:class:`SocketTarget` + loopback harness, which steps its own served
connections from the wait on its client sockets) and
:mod:`repro.net.framing` (the peachstar envelope and the per-protocol
raw stream framers).
"""

from repro.net.config import (
    FRAMING_CHOICES, NetConfig, TCP_SCHEME, parse_tcp_url,
)
from repro.net.framing import (
    EnvelopeError, StreamFramer, encode_envelope, framer_for,
    take_envelope,
)
from repro.net.serve import Listener, ServeApp, serve_forever
from repro.net.target import (
    DROP_SITE, NetTargetError, SocketTarget, make_loopback_target,
    make_net_target, make_socket_target,
)

__all__ = [
    "FRAMING_CHOICES", "NetConfig", "TCP_SCHEME", "parse_tcp_url",
    "EnvelopeError", "StreamFramer", "encode_envelope", "framer_for",
    "take_envelope",
    "Listener", "ServeApp", "serve_forever",
    "DROP_SITE", "NetTargetError", "SocketTarget", "make_loopback_target",
    "make_net_target", "make_socket_target",
]
