"""Wire framing: the peachstar envelope codec and the raw stream framers."""

import pytest

from repro.net.framing import (
    EnvelopeError, MSG_DATA, MSG_RESPONSE, MAX_ENVELOPE,
    encode_envelope, framer_for, take_envelope,
)
from repro.protocols import all_targets, get_target

TARGET_NAMES = [spec.name for spec in all_targets()]


def default_wires(spec, limit=None):
    """One honestly-framed wire packet per data model of the target."""
    pit = spec.make_pit()
    models = pit.models()[:limit] if limit else pit.models()
    return [model.to_wire(model.build_default()) for model in models]


# -- envelope ----------------------------------------------------------------

def take_all(buffer):
    """Every complete envelope at the head of *buffer*, in order."""
    out = []
    while True:
        message = take_envelope(buffer)
        if message is None:
            return out
        out.append(message)


class TestEnvelope:
    def roundtrip(self, *messages):
        """Encode messages into one stream and decode them back from a
        connection buffer that receives it a few bytes at a time."""
        stream = b"".join(encode_envelope(kind, payload)
                          for kind, payload in messages)
        buffer = bytearray()
        out = []
        for start in range(0, len(stream), 7):
            buffer += stream[start:start + 7]
            out.extend(take_all(buffer))
        assert buffer == b""
        return out

    def test_roundtrip(self):
        messages = [(MSG_DATA, b"\x68\x04\x07\x00\x00\x00"),
                    (MSG_RESPONSE, b""),
                    (MSG_DATA, bytes(range(256)))]
        assert self.roundtrip(*messages) == messages

    def test_arbitrary_payload_never_reinterpreted(self):
        # fuzzed frames routinely contain lying length fields — the
        # envelope must carry them verbatim
        evil = b"\x68\xff\xff\xff" * 100
        assert self.roundtrip((MSG_DATA, evil)) == [(MSG_DATA, evil)]

    def test_truncated_stream_is_incomplete(self):
        # a stream cut mid-envelope yields nothing and keeps its bytes
        buffer = bytearray(encode_envelope(MSG_DATA, b"abc")[:3])
        assert take_envelope(buffer) is None
        assert buffer == encode_envelope(MSG_DATA, b"abc")[:3]
        buffer = bytearray(encode_envelope(MSG_DATA, b"abc")[:7])
        assert take_envelope(buffer) is None
        assert len(buffer) == 7

    def test_oversized_length_rejected(self):
        with pytest.raises(EnvelopeError):
            encode_envelope(MSG_DATA, b"\x00" * (MAX_ENVELOPE + 1))
        # the header alone is refused: nothing waits for 16 MiB to arrive
        buffer = bytearray(MSG_DATA + (MAX_ENVELOPE + 1).to_bytes(4, "big"))
        with pytest.raises(EnvelopeError):
            take_envelope(buffer)

    def test_bad_kind_rejected(self):
        with pytest.raises(EnvelopeError):
            encode_envelope(b"DD", b"")


# -- stream framers ----------------------------------------------------------

class TestStreamFramers:
    @pytest.mark.parametrize("name", TARGET_NAMES)
    def test_default_wires_frame_exactly(self, name):
        """Every honestly-built packet of every model frames back whole."""
        spec = get_target(name)
        wires = default_wires(spec)
        framer = framer_for(spec.framing)
        frames = framer.feed(b"".join(wires))
        assert frames == wires
        assert framer.pending == 0

    @pytest.mark.parametrize("name", TARGET_NAMES)
    def test_byte_at_a_time_feed(self, name):
        spec = get_target(name)
        wires = default_wires(spec, limit=3)
        framer = framer_for(spec.framing)
        frames = []
        for byte in b"".join(wires):
            frames.extend(framer.feed(bytes((byte,))))
        assert frames == wires

    @pytest.mark.parametrize("name,start", [
        ("iec104", b"\x68"), ("libiec61850", b"\x03"),
        ("opendnp3", b"\x05"),
    ])
    def test_resync_past_garbage(self, name, start):
        """Garbage before a start byte is skipped, the real frame framed."""
        spec = get_target(name)
        wire = default_wires(spec, limit=1)[0]
        assert wire[:1] == start
        framer = framer_for(spec.framing)
        frames = framer.feed(b"\xde\xad\xbe\xef" + wire)
        assert frames == [wire]

    def test_mbap_has_no_resync(self):
        # MBAP trusts the length prefix: garbage swallows the stream,
        # exactly like a real Modbus/TCP stack that lost framing
        framer = framer_for("mbap")
        garbage = b"\x00\x01\x00\x00\xff\xff"  # claims a 65535-byte frame
        assert framer.feed(garbage) == []
        assert framer.pending == len(garbage)

    def test_unknown_framing_rejected(self):
        with pytest.raises(ValueError):
            framer_for("carrier-pigeon")

    def test_framer_reset_clears_buffer(self):
        framer = framer_for("apci")
        framer.feed(b"\x68\x10\x01")  # partial frame
        assert framer.pending > 0
        framer.reset()
        assert framer.pending == 0


class TestSpecFraming:
    def test_every_target_declares_a_known_framing(self):
        for spec in all_targets():
            framer_for(spec.framing)  # must not raise

    def test_expected_families(self):
        assert get_target("libmodbus").framing == "mbap"
        assert get_target("iec104").framing == "apci"
        assert get_target("lib60870").framing == "apci"
        assert get_target("opendnp3").framing == "dnp3"
        assert get_target("libiec61850").framing == "tpkt"
        assert get_target("libiccp").framing == "tpkt"
