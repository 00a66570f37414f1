"""Net-layer configuration: where the target lives and how to talk to it.

:class:`NetConfig` is the scenario axis the live-network layer adds to a
campaign: which endpoint to drive (``loopback`` spins up the served
in-process server on an ephemeral port; ``tcp://host:port`` points at a
live endpoint, ours or an external implementation), which wire framing
to speak, the wall-clock timeout and reconnect budgets, and the
session-interleaving degree.  It rides inside
:class:`~repro.core.campaign.CampaignConfig` and therefore inside the
workspace manifest, so a killed socket campaign resumes with the same
transport it started with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: the framing choices ``NetConfig.framing`` accepts: the length-prefixed
#: harness envelope (exact parity with the in-process path) or the
#: protocol's own raw stream framing (what an external server speaks)
FRAMING_CHOICES = ("peachstar", "raw")

#: the URL scheme understood beside the "loopback" sentinel
TCP_SCHEME = "tcp://"


@dataclass
class NetConfig:
    """One campaign's transport scenario.

    ``url`` is ``"loopback"`` (serve the target in-process on an
    ephemeral port and fuzz it through a real socket) or
    ``"tcp://host:port"`` (drive a live endpoint; coverage feedback is
    unavailable there — black-box fuzzing).  ``concurrency > 1``
    interleaves N sessions round-robin, one connection each, against a
    shared-state server (step *i* of a trace runs on connection
    ``i % N``); loopback serving shares one server exactly then.  It
    requires session mode.
    """

    url: str = "loopback"
    framing: str = "peachstar"
    #: wall-clock wait for one response before treating it as silence
    #: (raw mode) — loopback envelope traffic never hits it
    timeout_ms: float = 1000.0
    #: reconnect attempts when the endpoint drops the connection
    #: mid-session (a crashed real server closes the socket)
    reconnect: int = 1
    #: interleaved sessions per trace scenario (1 = plain sessions)
    concurrency: int = 1

    def validate(self) -> None:
        if self.framing not in FRAMING_CHOICES:
            raise ValueError(f"unknown framing {self.framing!r}; "
                             f"choices: {FRAMING_CHOICES}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency {self.concurrency} < 1")
        if not self.timeout_ms > 0:  # also refuses NaN
            raise ValueError(f"timeout_ms {self.timeout_ms!r} is not > 0")
        if self.reconnect < 0:
            raise ValueError(f"reconnect {self.reconnect} < 0")
        if self.url != "loopback":
            if not self.url.startswith(TCP_SCHEME):
                raise ValueError(
                    f"unsupported net url {self.url!r}; use 'loopback' or "
                    f"'{TCP_SCHEME}host:port'")
            parse_tcp_url(self.url)

    @property
    def is_loopback(self) -> bool:
        return self.url == "loopback"


def parse_tcp_url(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` -> ``(host, port)`` (IPv6 hosts in brackets)."""
    if not url.startswith(TCP_SCHEME):
        raise ValueError(f"not a tcp:// url: {url!r}")
    rest = url[len(TCP_SCHEME):]
    if rest.startswith("["):  # [::1]:2404
        host, _, port = rest.partition("]:")
        host = host[1:]
    else:
        host, _, port = rest.rpartition(":")
    if not host or not port:
        raise ValueError(f"malformed tcp:// url: {url!r}")
    try:
        number = int(port)
    except ValueError:
        raise ValueError(f"malformed port in {url!r}") from None
    if not 0 < number < 65536:
        raise ValueError(f"port {number} out of range in {url!r}")
    return host, number
