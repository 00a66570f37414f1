"""Wire framing for the live-network layer.

Two framing families live here:

* the **peachstar envelope** — the length-prefixed harness protocol the
  served targets and the :class:`~repro.net.target.SocketTarget` speak
  to each other.  Fuzzed frames are arbitrary bytes (malformed length
  fields are frequently the point), so exact parity with the in-process
  delivery path needs a framing that never re-interprets the payload:
  1 type byte + 4-byte big-endian length + payload.
* the **stream framers** — one per protocol family, slicing a raw TCP
  byte stream into protocol frames the way a real client library does
  (MBAP length prefix, APCI start/length octets, DNP3 link header with
  CRC-expanded blocks, TPKT).  These carry the raw mode that talks to
  external implementations, and resynchronize on garbage the way a
  defensive stream reader would: scan forward to the next plausible
  start byte, or drop the unframeable prefix.

Framer choice is keyed by :attr:`repro.protocols.TargetSpec.framing`
(``mbap``/``apci``/``dnp3``/``tpkt``) via :func:`framer_for`.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

# -- peachstar envelope -------------------------------------------------------

#: client -> server
MSG_DATA = b"D"      # one fuzzed frame to dispatch
MSG_RESET = b"R"     # reset the session (fresh server state + heap)
#: server -> client
MSG_RESPONSE = b"r"  # the server's reply bytes
MSG_NONE = b"n"      # the server replied nothing (dropped the frame)
MSG_CRASH = b"c"     # sanitizer fault (JSON payload: kind/site/detail/...)
MSG_HANG = b"h"      # hang budget exhausted inside the dispatch
MSG_ACK = b"k"       # reset acknowledged

_HEADER = struct.Struct(">I")
#: hard bound on one envelope payload (a fuzzed frame is never near it)
MAX_ENVELOPE = 1 << 24


class EnvelopeError(Exception):
    """A peer spoke something that is not the peachstar envelope."""


def encode_envelope(kind: bytes, payload: bytes = b"") -> bytes:
    if len(kind) != 1:
        raise EnvelopeError(f"envelope type must be one byte, got {kind!r}")
    if len(payload) > MAX_ENVELOPE:
        raise EnvelopeError(f"envelope payload too large: {len(payload)}")
    return kind + _HEADER.pack(len(payload)) + payload


def take_envelope(buffer: bytearray) -> Optional[Tuple[bytes, bytes]]:
    """Remove the envelope at the head of one connection's received
    bytes and return it as ``(kind, payload)``.

    ``None`` while the head envelope is incomplete; its bytes stay in
    *buffer*.  A header announcing more than :data:`MAX_ENVELOPE` bytes
    raises :class:`EnvelopeError`: the stream cannot be resynchronized
    past it.
    """
    if len(buffer) < 5:
        return None
    length = _HEADER.unpack_from(buffer, 1)[0]
    if length > MAX_ENVELOPE:
        raise EnvelopeError(f"envelope length {length} exceeds bound")
    end = 5 + length
    if len(buffer) < end:
        return None
    message = bytes(buffer[:1]), bytes(buffer[5:end])
    del buffer[:end]
    return message


# -- raw stream framers -------------------------------------------------------

class StreamFramer:
    """Slice a growing byte stream into protocol frames.

    ``feed`` appends received bytes and returns every frame completed by
    them; partial frames stay buffered.  Unframeable garbage is resynced
    past (``resync``), mirroring a defensive stream reader.  One framer
    instance per connection — the buffer is the connection's read state.
    """

    name = "stream"

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        self._buffer.extend(data)
        frames: List[bytes] = []
        while self._buffer:
            total = self._frame_length(self._buffer)
            if total == 0:          # need more bytes
                break
            if total < 0:           # unframeable prefix: resync
                if not self._resync():
                    break
                continue
            if len(self._buffer) < total:
                break
            frames.append(bytes(self._buffer[:total]))
            del self._buffer[:total]
        return frames

    def reset(self) -> None:
        self._buffer.clear()

    @property
    def pending(self) -> int:
        return len(self._buffer)

    # subclass hooks ------------------------------------------------------

    #: start byte to scan for during resync (None = drop the buffer)
    start_byte: Optional[int] = None

    def _frame_length(self, buf: bytearray) -> int:
        """Total frame size at the head of *buf*.

        Returns 0 when more bytes are needed, -1 when the head cannot
        start a frame (triggers resync).
        """
        raise NotImplementedError

    def _resync(self) -> bool:
        """Skip past an unframeable head; True if the buffer changed."""
        if not self._buffer:
            return False
        if self.start_byte is None:
            self._buffer.clear()
            return False
        cut = self._buffer.find(bytes((self.start_byte,)), 1)
        if cut < 0:
            self._buffer.clear()
            return False
        del self._buffer[:cut]
        return True


class MbapFramer(StreamFramer):
    """Modbus/TCP: 6-byte MBAP header, u16 BE length at offset 4.

    MBAP has no start byte, so there is nothing to resync on — the
    length prefix is trusted, exactly as a real Modbus TCP stack reads.
    """

    name = "mbap"

    def _frame_length(self, buf: bytearray) -> int:
        if len(buf) < 6:
            return 0
        return 6 + int.from_bytes(buf[4:6], "big")


class ApciFramer(StreamFramer):
    """IEC 60870-5-104 APCI: 0x68 start byte + length octet."""

    name = "apci"
    start_byte = 0x68

    def _frame_length(self, buf: bytearray) -> int:
        if buf[0] != self.start_byte:
            return -1
        if len(buf) < 2:
            return 0
        return 2 + buf[1]


class TpktFramer(StreamFramer):
    """TPKT (RFC 1006): 0x03 version + u16 BE total length at offset 2."""

    name = "tpkt"
    start_byte = 0x03

    def _frame_length(self, buf: bytearray) -> int:
        if buf[0] != self.start_byte:
            return -1
        if len(buf) < 4:
            return 0
        total = int.from_bytes(buf[2:4], "big")
        if total < 4:
            return -1
        return total


class Dnp3Framer(StreamFramer):
    """DNP3 link frames: 0x05 0x64 start, CRC-expanded user blocks.

    The length octet counts ctrl+dest+src (5) plus the user data; on
    the wire every 16-byte user block carries a 2-byte CRC, as does the
    8-byte link header.
    """

    name = "dnp3"
    start_byte = 0x05

    def _frame_length(self, buf: bytearray) -> int:
        if buf[0] != 0x05:
            return -1
        if len(buf) < 3:
            return 0
        if buf[1] != 0x64:
            return -1
        length = buf[2]
        if length < 5:
            return -1
        user_len = length - 5
        blocks = (user_len + 15) // 16
        return 8 + 2 + user_len + 2 * blocks


_FRAMERS = {
    "mbap": MbapFramer,
    "apci": ApciFramer,
    "dnp3": Dnp3Framer,
    "tpkt": TpktFramer,
}


def framer_for(framing_name: str) -> StreamFramer:
    """A fresh stream framer for a TargetSpec's ``framing`` key."""
    try:
        return _FRAMERS[framing_name]()
    except KeyError:
        raise ValueError(f"unknown stream framing {framing_name!r}; "
                         f"choices: {sorted(_FRAMERS)}") from None
