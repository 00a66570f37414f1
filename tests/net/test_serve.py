"""``peachstar serve``: the asyncio session server behind the TCP port."""

import asyncio
import json
import logging
import struct

import pytest

from repro.net.framing import (
    MAX_ENVELOPE, MSG_ACK, MSG_CRASH, MSG_DATA, MSG_HANG, MSG_NONE,
    MSG_RESET, MSG_RESPONSE, encode_envelope, framer_for, read_envelope,
)
from repro.net.serve import ServeApp, bound_address, start_serving
from repro.protocols import get_target
from repro.runtime.instrument import HangBudgetExceeded
from repro.runtime.target import Target
from repro.sanitizer.errors import HeapBufferOverflow


class FakeServer:
    """A scripted protocol server: the payload tail picks the outcome."""

    def __init__(self):
        self.handled = 0
        self.resets = 0

    def handle_packet(self, heap, data):
        self.handled += 1
        if data.endswith(b"CRASH"):
            raise HeapBufferOverflow("fake.c:42", "scripted overflow")
        if data.endswith(b"HANG"):
            raise HangBudgetExceeded()
        if data.endswith(b"NONE"):
            return None
        return b"seen=%d" % self.handled

    def reset(self):
        self.resets += 1
        self.handled = 0


class FakeSpec:
    name = "fake"
    framing = "apci"  # raw mode slices the stream with the APCI framer
    make_server = FakeServer


def apci(payload):
    """Wrap *payload* in a minimal APCI frame (0x68 + length octet)."""
    return b"\x68" + bytes((len(payload),)) + payload


def serve(scenario, spec=FakeSpec, **kwargs):
    """Run *scenario(app, server)* against a freshly-bound ephemeral port."""

    async def main():
        app, server = await start_serving(spec, **kwargs)
        try:
            return await scenario(app, server)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


async def connect(server):
    return await asyncio.open_connection(*bound_address(server))


async def ask(reader, writer, kind, payload=b""):
    writer.write(encode_envelope(kind, payload))
    await writer.drain()
    return await read_envelope(reader)


async def hangup(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class TestEnvelopeSessions:
    def test_port_zero_binds_ephemeral(self):
        async def scenario(app, server):
            return bound_address(server)

        host, port = serve(scenario)
        assert host == "127.0.0.1"
        assert port > 0

    def test_data_reset_data_round_trip(self):
        async def scenario(app, server):
            reader, writer = await connect(server)
            first = await ask(reader, writer, MSG_DATA, b"one")
            second = await ask(reader, writer, MSG_DATA, b"two")
            acked = await ask(reader, writer, MSG_RESET)
            after = await ask(reader, writer, MSG_DATA, b"three")
            await hangup(writer)
            return first, second, acked, after, app.executions

        first, second, acked, after, executions = serve(scenario)
        assert first == (MSG_RESPONSE, b"seen=1")
        assert second == (MSG_RESPONSE, b"seen=2")
        assert acked == (MSG_ACK, b"")
        # the reset re-armed the session: the counter started over
        assert after == (MSG_RESPONSE, b"seen=1")
        assert executions == 3

    def test_outcome_kinds(self):
        async def scenario(app, server):
            reader, writer = await connect(server)
            none = await ask(reader, writer, MSG_DATA, b"NONE")
            hang = await ask(reader, writer, MSG_DATA, b"HANG")
            crash = await ask(reader, writer, MSG_DATA, b"CRASH")
            await hangup(writer)
            return none, hang, crash

        none, hang, crash = serve(scenario)
        assert none == (MSG_NONE, b"")
        assert hang == (MSG_HANG, b"")
        kind, payload = crash
        assert kind == MSG_CRASH
        blob = json.loads(payload.decode("utf-8"))
        assert blob["kind"] == "heap-buffer-overflow"
        assert blob["site"] == "fake.c:42"
        assert blob["call_sites"] == []

    def test_unknown_envelope_kind_drops_the_session(self):
        async def scenario(app, server):
            reader, writer = await connect(server)
            writer.write(encode_envelope(b"X", b""))
            await writer.drain()
            message = await read_envelope(reader)  # server hangs up
            await hangup(writer)
            return message

        assert serve(scenario) is None

    def test_oversized_envelope_drops_the_session_quietly(self, caplog):
        async def scenario(app, server):
            reader, writer = await connect(server)
            writer.write(MSG_DATA + struct.pack(">I", MAX_ENVELOPE + 1))
            await writer.drain()
            dropped = await read_envelope(reader)  # server hangs up
            await hangup(writer)
            reader, writer = await connect(server)
            acked = await ask(reader, writer, MSG_RESET)
            await hangup(writer)
            # let both connection handlers finish: one still pending at
            # loop shutdown is cancelled, which asyncio logs as an error
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                await asyncio.wait(handlers, timeout=5)
            return dropped, acked

        with caplog.at_level(logging.ERROR):
            dropped, acked = serve(scenario)
        assert dropped is None
        assert acked == (MSG_ACK, b"")
        assert [record for record in caplog.records
                if record.levelno >= logging.ERROR] == []

    def test_sessions_are_isolated_by_default(self):
        async def scenario(app, server):
            r1, w1 = await connect(server)
            r2, w2 = await connect(server)
            await ask(r1, w1, MSG_DATA, b"a")
            await ask(r1, w1, MSG_DATA, b"b")
            other = await ask(r2, w2, MSG_DATA, b"c")
            await hangup(w1)
            await hangup(w2)
            return other, app.connections

        other, connections = serve(scenario)
        # the second connection got its own server: counter starts at 1
        assert other == (MSG_RESPONSE, b"seen=1")
        assert connections == 2

    def test_shared_state_races_one_server(self):
        async def scenario(app, server):
            r1, w1 = await connect(server)
            r2, w2 = await connect(server)
            await ask(r1, w1, MSG_DATA, b"a")
            await ask(r1, w1, MSG_DATA, b"b")
            other = await ask(r2, w2, MSG_DATA, b"c")
            await hangup(w1)
            await hangup(w2)
            return other

        other = serve(scenario, shared_state=True)
        # both connections hit the same server instance
        assert other == (MSG_RESPONSE, b"seen=3")

    def test_envelope_dispatch_matches_in_process_target(self):
        spec = get_target("iec104")
        pit = spec.make_pit()
        wires = [model.to_wire(model.build_default())
                 for model in pit.models()]

        async def scenario(app, server):
            out = []
            for wire in wires:
                reader, writer = await connect(server)
                await ask(reader, writer, MSG_RESET)
                out.append(await ask(reader, writer, MSG_DATA, wire))
                await hangup(writer)
            return out

        served = serve(scenario, spec=spec)
        for wire, (kind, payload) in zip(wires, served):
            local = Target(spec.make_server, None).run(wire)
            if local.response is None:
                assert kind == MSG_NONE
            else:
                assert (kind, payload) == (MSG_RESPONSE, local.response)


@pytest.mark.parametrize("framing", ["peachstar", "raw"])
def test_a_loop_shutdown_ends_a_waiting_session_quietly(framing, caplog):
    """A handler still waiting for a frame when the event loop shuts down
    is cancelled; that ends its session without an asyncio error (the
    path a Ctrl-C of ``peachstar serve`` takes with a client connected)."""

    async def main():
        app, server = await start_serving(get_target("iec104"),
                                          "127.0.0.1", 0, framing=framing)
        client = await connect(server)  # held open past the loop's end
        await asyncio.sleep(0.05)
        return app.connections, client

    with caplog.at_level(logging.ERROR):
        connections, _ = asyncio.run(main())
    assert connections == 1
    assert [record for record in caplog.records
            if record.name == "asyncio"
            and record.levelno >= logging.ERROR] == []


class TestRawSessions:
    def test_response_travels_in_protocol_framing(self):
        spec = get_target("iec104")
        pit = spec.make_pit()
        model = pit.model("iec104.startdt")
        wire = model.to_wire(model.build_default())
        expected = Target(spec.make_server, None).run(wire).response
        assert expected is not None

        async def scenario(app, server):
            reader, writer = await connect(server)
            writer.write(wire)
            await writer.drain()
            data = await asyncio.wait_for(reader.read(4096), 5.0)
            await hangup(writer)
            return data

        data = serve(scenario, spec=spec, framing="raw")
        framer = framer_for(spec.framing)
        assert framer.feed(data) == [expected]

    def test_crash_closes_the_connection(self):
        async def scenario(app, server):
            reader, writer = await connect(server)
            writer.write(apci(b"CRASH"))
            await writer.drain()
            data = await asyncio.wait_for(reader.read(4096), 5.0)
            await hangup(writer)
            return data

        # a crashed raw server drops its client: EOF, no bytes
        assert serve(scenario, framing="raw") == b""

    def test_silence_on_none_and_hang(self):
        async def scenario(app, server):
            reader, writer = await connect(server)
            writer.write(apci(b"NONE") + apci(b"HANG") + apci(b"ok"))
            await writer.drain()
            data = await asyncio.wait_for(reader.read(4096), 5.0)
            await hangup(writer)
            return data

        # only the third frame answers; the first two stay silent
        assert serve(scenario, framing="raw") == b"seen=3"


class TestDispatchUnit:
    def test_dispatch_without_event_loop(self):
        app = ServeApp(FakeSpec)
        session = app._session()
        assert app._dispatch(session, b"ping") == (MSG_RESPONSE, b"seen=1")
        assert app._dispatch(session, b"NONE") == (MSG_NONE, b"")
        kind, payload = app._dispatch(session, b"CRASH")
        assert kind == MSG_CRASH
        assert json.loads(payload)["kind"] == "heap-buffer-overflow"
        assert app.executions == 3
