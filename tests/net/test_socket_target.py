"""SocketTarget conformance matrix.

One row per protocol family and transport axis:

* **round-trip** — envelope loopback executions observe the same
  response/coverage/crash surface as the in-process ``Target``, a
  frame larger than the socket buffers included;
* **raw round-trip** — the protocol's own stream framing carries the
  same responses an in-process run produces;
* **timeout** — a black-hole endpoint (accepts, never answers) surfaces
  as silence in raw mode and as a poisoned-lane hang in envelope mode,
  with ``net_timeouts`` counting either way;
* **reconnect** — an endpoint that drops mid-session synthesizes a
  ``connection-dropped`` crash and the reconnect budget re-opens the
  lane, counted in ``net_reconnects``;
* **uninstrumented transport** — no transport turn of a loopback run
  or trace runs with line instrumentation on: only the served dispatch
  is armed;
* **reproducers** — exported single-packet and session crash scripts
  replay over a loopback socket, and in-process, to the same crash.

The scripted endpoints of the failure rows are asyncio servers on their
own event loop in a background thread.  Everything binds port 0: the
matrix never collides with a busy port.
"""

import asyncio
import contextlib
import os
import signal
import socket
import struct
import subprocess
import sys
import threading

import pytest

from repro.net import (
    DROP_SITE, NetConfig, NetTargetError, SocketTarget,
    make_loopback_target, make_socket_target,
)
from repro.net.framing import (
    MAX_ENVELOPE, MSG_ACK, MSG_DATA, MSG_RESET, MSG_RESPONSE,
    encode_envelope, take_envelope,
)
from repro.protocols import all_targets, get_target
from repro.runtime.instrument import (
    MonitoringCollector, TracingCollector, make_line_collector,
    monitoring_available,
)
from repro.runtime.target import Target
from repro.state import TraceBinder, TraceStep, encode_trace
from repro.triage.reproducer import export_reproducer

TARGET_NAMES = [spec.name for spec in all_targets()]
BACKENDS = ["settrace"] + (["monitoring"] if monitoring_available() else [])
#: seconds an endpoint's thread gets to start, finish or stop
WAIT_S = 10.0


def _collector():
    return TracingCollector(("repro/protocols",))


def default_wires(spec, limit=None):
    pit = spec.make_pit()
    models = pit.models()[:limit] if limit else pit.models()
    return [(model.name, model.to_wire(model.build_default()))
            for model in models]


def _surface(result):
    """The observable outcome of one execution, for parity comparison."""
    crash = None if result.crash is None else result.crash.dedup_key
    return (result.response, crash, result.hang, result.blocks_executed)


# -- scripted endpoints for the failure rows ----------------------------------

class _Endpoint:
    """A scripted asyncio endpoint on its own loop in a background
    thread; the SocketTarget under test runs in the test's thread."""

    def __init__(self, handler):
        self.loop = asyncio.new_event_loop()
        self.server = self.loop.run_until_complete(
            asyncio.start_server(handler, "127.0.0.1", 0))
        self.address = self.server.sockets[0].getsockname()[:2]
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()

    def target(self, **kwargs):
        return SocketTarget(self.address, **kwargs)

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            WAIT_S)

    async def _stop_listening(self):
        self.server.close()
        await self.server.wait_closed()

    def stop_listening(self):
        """Close the listening socket: the port refuses connections."""
        self._call(self._stop_listening())

    async def _shutdown(self):
        await self._stop_listening()
        # the targets have closed their lanes, so every handler sees
        # EOF and returns on its own
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=WAIT_S)
        await asyncio.sleep(0)  # closed transports finish closing

    def close(self):
        self._call(self._shutdown())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=WAIT_S)
        assert not self.thread.is_alive(), "the endpoint loop did not stop"
        self.loop.close()


@pytest.fixture
def scripted():
    """Start scripted endpoints; each is stopped after the test."""
    started = []

    def start(handler):
        started.append(_Endpoint(handler))
        return started[-1]

    yield start
    for each in started:
        each.close()


async def read_envelope(reader):
    """One envelope from an asyncio stream; None at EOF."""
    try:
        buffer = bytearray(await reader.readexactly(5))
        buffer += await reader.readexactly(
            int.from_bytes(buffer[1:], "big"))
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return take_envelope(buffer)


async def _black_hole(reader, writer):
    """Accept, swallow everything, never answer."""
    while await reader.read(4096):
        pass
    writer.close()


async def _slam_shut(reader, writer):
    """Accept and immediately hang up."""
    writer.close()


async def _ack_then_drop(reader, writer):
    """Speak the envelope just long enough to pass a session reset."""
    while True:
        message = await read_envelope(reader)
        if message is None:
            break
        kind, _ = message
        if kind == MSG_RESET:
            writer.write(encode_envelope(MSG_ACK))
            await writer.drain()
        elif kind == MSG_DATA:
            break  # drop mid-session, like a crashed server
    writer.close()


async def _oversized_reply(reader, writer):
    """Ack the reset, then announce a reply longer than the envelope
    bound allows."""
    while True:
        message = await read_envelope(reader)
        if message is None:
            break
        if message[0] == MSG_RESET:
            writer.write(encode_envelope(MSG_ACK))
        else:
            writer.write(MSG_RESPONSE + struct.pack(">I", MAX_ENVELOPE + 1))
        await writer.drain()
    writer.close()


@contextlib.contextmanager
def _alarm(seconds):
    """Fail, rather than hang, a block that outlives *seconds*."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- round-trip rows ----------------------------------------------------------

class TestEnvelopeRoundTrip:
    @pytest.mark.parametrize("name", TARGET_NAMES)
    def test_loopback_matches_in_process(self, name):
        spec = get_target(name)
        socket_target = make_loopback_target(spec, collector=_collector(),
                                             net=NetConfig())
        local_target = Target(spec.make_server, _collector())
        try:
            for model_name, wire in default_wires(spec):
                over_socket = socket_target.run(wire, model_name)
                in_process = local_target.run(wire, model_name)
                assert _surface(over_socket) == _surface(in_process), \
                    f"{name}/{model_name} diverged over the socket"
        finally:
            socket_target.close()
        assert socket_target.take_net_counters() == (0, 0)

    def test_a_frame_larger_than_the_socket_buffers_round_trips(self):
        """Client and served connection share one thread: a frame that
        fills the client's send buffer and the server's receive buffer
        goes out in pieces between served reads, not in one blocking
        write that nobody drains."""
        spec = get_target("iec104")
        model_name, wire = default_wires(spec)[0]
        frame = wire + bytes(8 << 20)
        assert len(frame) < MAX_ENVELOPE
        socket_target = make_loopback_target(spec, collector=_collector(),
                                             net=NetConfig())
        try:
            with _alarm(60):
                socket_target._begin_trace()  # connect lane 0
                [served] = socket_target._listener.served
                buffers = (socket_target._lanes[0].stream.sock.getsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF)
                    + served.sock.getsockopt(socket.SOL_SOCKET,
                                             socket.SO_RCVBUF))
                over_socket = socket_target.run(frame, model_name)
        finally:
            socket_target.close()
        assert len(frame) > buffers
        in_process = Target(spec.make_server, _collector()).run(
            frame, model_name)
        assert _surface(over_socket) == _surface(in_process)

    def test_closed_target_refuses_to_run(self):
        spec = get_target("iec104")
        target = make_loopback_target(spec, net=NetConfig())
        target.close()
        with pytest.raises(NetTargetError):
            target.run(b"\x68\x04\x07\x00\x00\x00")
        target.close()  # idempotent


class TestRawRoundTrip:
    @pytest.mark.parametrize("name", TARGET_NAMES)
    def test_loopback_matches_in_process(self, name):
        spec = get_target(name)
        net = NetConfig(framing="raw", timeout_ms=150.0)
        socket_target = make_loopback_target(spec, net=net)
        local_target = Target(spec.make_server, None)
        try:
            for model_name, wire in default_wires(spec, limit=3):
                over_socket = socket_target.run(wire, model_name)
                expected = local_target.run(wire, model_name).response
                # raw framing carries response bytes verbatim; a silent
                # server is indistinguishable from a timeout outside
                assert over_socket.response == expected, \
                    f"{name}/{model_name} diverged over raw framing"
                assert over_socket.crash is None
        finally:
            socket_target.close()


# -- timeout rows -------------------------------------------------------------

class TestTimeoutRow:
    @pytest.mark.parametrize("name", TARGET_NAMES)
    def test_raw_silence_is_none_response(self, name, scripted):
        spec = get_target(name)
        server = scripted(_black_hole)
        target = server.target(framing="raw", framer_name=spec.framing,
                                 timeout_ms=100.0, reconnect=0)
        try:
            result = target.run(b"\x00\x01\x02\x03")
            assert result.response is None
            assert result.crash is None and not result.hang
            assert target.net_timeouts == 1
        finally:
            target.close()

    def test_envelope_timeout_poisons_the_lane_as_a_hang(self, scripted):
        server = scripted(_black_hole)
        target = server.target(framing="peachstar", timeout_ms=100.0,
                                 reconnect=0)
        try:
            # the black hole never ACKs the session reset
            with pytest.raises(NetTargetError):
                target.run(b"data")
        finally:
            target.close()

    def test_envelope_data_timeout_is_a_hang(self, scripted):
        async def ack_then_sleep(reader, writer):
            while True:
                message = await read_envelope(reader)
                if message is None:
                    break
                if message[0] == MSG_RESET:
                    writer.write(encode_envelope(MSG_ACK))
                    await writer.drain()
                # DATA: never answer — a remotely hung server
            writer.close()

        server = scripted(ack_then_sleep)
        target = server.target(framing="peachstar", timeout_ms=100.0,
                                 reconnect=0)
        try:
            result = target.run(b"data")
            assert result.hang and result.crash is None
            assert target.net_timeouts == 1
        finally:
            target.close()


# -- reconnect rows -----------------------------------------------------------

class TestReconnectRow:
    @pytest.mark.parametrize("name", TARGET_NAMES)
    def test_raw_drop_synthesizes_a_crash_and_reconnects(self, name,
                                                         scripted):
        spec = get_target(name)
        server = scripted(_slam_shut)
        target = server.target(framing="raw", framer_name=spec.framing,
                                 timeout_ms=100.0, reconnect=2)
        try:
            first = target.run(b"\x00\x01\x02\x03")
            assert first.crash is not None
            assert first.crash.dedup_key == ("connection-dropped", DROP_SITE)
            second = target.run(b"\x00\x01\x02\x03")
            assert second.crash is not None
            # the second session re-opened a lane that had already been
            # connected once: that is a counted reconnect
            assert target.net_reconnects >= 1
        finally:
            target.close()

    def test_envelope_drop_mid_session_synthesizes_a_crash(self, scripted):
        server = scripted(_ack_then_drop)
        target = server.target(framing="peachstar", timeout_ms=500.0,
                                 reconnect=2)
        try:
            result = target.run(b"data")
            assert result.crash is not None
            assert result.crash.dedup_key == ("connection-dropped", DROP_SITE)
            assert result.crash.packet == b"data"
        finally:
            target.close()

    def test_malformed_envelope_is_a_net_target_error(self, scripted):
        server = scripted(_oversized_reply)
        target = server.target(framing="peachstar", timeout_ms=500.0,
                                 reconnect=0)
        try:
            with pytest.raises(NetTargetError):
                target.run(b"data")
            assert not target._lanes[0].open
        finally:
            target.close()

    def test_unreachable_endpoint_exhausts_the_budget(self, scripted):
        # bind a port, then close it: nothing listens there any more
        server = scripted(_black_hole)
        server.stop_listening()
        target = SocketTarget(server.address, framing="peachstar",
                              reconnect=1)
        try:
            with pytest.raises(NetTargetError):
                target.run(b"data")
        finally:
            target.close()


# -- trace delivery over lanes ------------------------------------------------

class TestTraceOverSocket:
    def test_run_trace_matches_in_process(self):
        spec = get_target("iec104")
        steps = [(wire, model_name)
                 for model_name, wire in default_wires(spec)]
        socket_target = make_loopback_target(spec, collector=_collector(),
                                             net=NetConfig())
        local_target = Target(spec.make_server, _collector())
        try:
            over_socket = socket_target.run_trace(steps)
            in_process = local_target.run_trace(steps)
            assert over_socket.responses == in_process.responses
            assert over_socket.steps_executed == in_process.steps_executed
            assert over_socket.hang == in_process.hang
            assert over_socket.blocks_executed == in_process.blocks_executed
        finally:
            socket_target.close()

    def test_concurrency_deals_steps_round_robin(self):
        spec = get_target("iec104")
        net = NetConfig(concurrency=3)
        target = make_loopback_target(spec, net=net)
        try:
            assert len(target._lanes) == 3
            # shared-state serving is forced: N lanes race one session
            assert target.app.shared_state
            steps = [(wire, model_name)
                     for model_name, wire in default_wires(spec)] * 2
            result = target.run_trace(steps)
            assert result.steps_executed == len(steps)
            assert target.app.connections == 3
        finally:
            target.close()


# -- instrumentation window ---------------------------------------------------

def _armed(collector):
    """Whether *collector*'s line instrumentation is switched on."""
    if isinstance(collector, MonitoringCollector):
        return sys.monitoring.get_events(collector._tool_id) != 0
    return sys.gettrace() == collector._global_trace


@pytest.mark.parametrize("backend", BACKENDS)
class TestTransportUninstrumented:
    def teardown_method(self):
        MonitoringCollector.release()

    def test_no_transport_turn_runs_armed(self, backend):
        spec = get_target("iec104")
        collector = make_line_collector(("repro/protocols",),
                                        backend=backend)
        target = make_loopback_target(spec, collector=collector,
                                      net=NetConfig())
        turn = target._turn
        turns = []

        def watched_turn(timeout):
            turns.append(_armed(collector))
            turn(timeout)
            turns.append(_armed(collector))

        target._turn = watched_turn
        steps = [(wire, model_name)
                 for model_name, wire in default_wires(spec)]
        try:
            blocks = sum(target.run(wire, model_name).blocks_executed
                         for wire, model_name in steps)
            trace = target.run_trace(steps)
        finally:
            target.close()
        assert turns and not any(turns)
        # the served dispatches, stepped from those turns, did run armed
        assert blocks > 0 and trace.blocks_executed > 0


class TestMakeSocketTarget:
    """The triage-reproducer replay constructor."""

    def test_loopback_replay_serves_the_named_target(self):
        # `triage --net-url loopback` exports scripts whose default
        # endpoint is the literal string "loopback" — replay must serve
        # the named target itself rather than demand a tcp:// url
        target = make_socket_target("loopback", target_name="iec104")
        try:
            model_name, wire = default_wires(get_target("iec104"))[0]
            result = target.run(wire, model_name)
            assert result.response is not None
            assert result.crash is None
        finally:
            target.close()

    def test_loopback_replay_needs_a_target_name(self):
        with pytest.raises(ValueError):
            make_socket_target("loopback")


# -- exported reproducers -----------------------------------------------------

SRC_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                        "src"))


def _modbus_crash_trace():
    """[valid read, valid read, seeded-UAF write]: crashes at step 3."""
    pit = get_target("libmodbus").make_pit()
    good = pit.model("modbus.read_holding_registers").build_bytes()
    crash = bytearray(
        pit.model("modbus.write_multiple_registers").build_bytes())
    crash[12] = 0x04  # byte_count inconsistent with quantity: seeded UAF
    return [
        TraceStep("modbus.read_holding_registers", good),
        TraceStep("modbus.read_holding_registers", good),
        TraceStep("modbus.write_multiple_registers", bytes(crash)),
    ]


def _replay(script_path):
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    proc = subprocess.run([sys.executable, script_path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "SUMMARY: AddressSanitizer:" in proc.stdout
    return proc.stdout


def _crashed_at_line(stdout):
    return next(line for line in stdout.splitlines()
                if line.startswith("crashed at step"))


class TestSocketReproducers:
    """Exported server-crash scripts replay over the socket transport."""

    def test_single_packet_crash_replays_over_loopback(self, tmp_path):
        spec = get_target("libmodbus")
        packet = _modbus_crash_trace()[-1].packet
        report = Target(spec.make_server, None).run(packet).crash
        assert report is not None
        _, script = export_reproducer(str(tmp_path), "packet", spec.name,
                                      report, net_url="loopback")
        assert "heap-use-after-free" in _replay(script)

    def test_session_crash_replays_the_same_over_loopback(self, tmp_path):
        spec = get_target("libmodbus")
        steps = _modbus_crash_trace()
        result = Target(spec.make_server, None).run_trace(
            [(step.packet, step.model_name) for step in steps],
            TraceBinder(spec.make_pit(), steps))
        report = result.crash
        report.trace = encode_trace(steps)
        report.crash_step = result.crash_step
        _, over_socket = export_reproducer(
            str(tmp_path / "net"), "trace", spec.name, report,
            report.trace, net_url="loopback")
        _, in_process = export_reproducer(
            str(tmp_path / "local"), "trace", spec.name, report,
            report.trace)
        socket_line = _crashed_at_line(_replay(over_socket))
        assert socket_line == "crashed at step 3/3 " \
                              "(modbus.write_multiple_registers)"
        assert _crashed_at_line(_replay(in_process)) == socket_line

    @pytest.mark.parametrize("endpoint,message", [
        ("closed", "cannot connect to 127.0.0.1:"),
        ("tcp://nohost", "malformed tcp:// url: 'tcp://nohost'"),
    ], ids=["closed-port", "malformed-url"])
    def test_bad_endpoint_gives_no_verdict(self, tmp_path, endpoint,
                                           message):
        """A script that cannot reach its endpoint says so and exits 2,
        which is not the exit 1 of a crash that no longer reproduces."""
        if endpoint == "closed":
            # bind a port, then close it: nothing listens there any more
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            endpoint = f"tcp://127.0.0.1:{probe.getsockname()[1]}"
            probe.close()
        spec = get_target("libmodbus")
        packet = _modbus_crash_trace()[-1].packet
        report = Target(spec.make_server, None).run(packet).crash
        _, script = export_reproducer(str(tmp_path), "packet", spec.name,
                                      report)
        proc = subprocess.run([sys.executable, script, endpoint],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC_ROOT))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr
