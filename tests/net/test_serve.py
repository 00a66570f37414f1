"""``peachstar serve``: the session server behind the TCP port.

The served app runs its selector loop in a background thread, as the
``serve_forever`` loop does in its own process; each test talks to it
over plain blocking sockets.
"""

import json
import logging
import os
import re
import selectors
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.net.framing import (
    MAX_ENVELOPE, MSG_ACK, MSG_CRASH, MSG_DATA, MSG_HANG, MSG_NONE,
    MSG_RESET, MSG_RESPONSE, encode_envelope, framer_for, take_envelope,
)
from repro.net.serve import OUTPUT_BOUND, Listener, ServeApp
from repro.protocols import get_target
from repro.runtime.instrument import HangBudgetExceeded
from repro.runtime.target import Target
from repro.sanitizer.errors import HeapBufferOverflow

SRC_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                        "src"))
#: seconds any single wait of these tests may take before it fails
WAIT_S = 10.0


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


class Served:
    """A ServeApp on an ephemeral port, turned by a selector loop in a
    background thread until :meth:`stop`."""

    def __init__(self, spec=None, **kwargs):
        self.app = ServeApp(spec or FakeSpec, **kwargs)
        self.selector = selectors.DefaultSelector()
        self.listener = Listener(self.app)
        self.listener.register(self.selector)
        self.address = self.listener.address
        self.error = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            while not self._stop.is_set():
                for key, mask in self.selector.select(0.01):
                    key.data(mask)
        except BaseException as exc:  # surfaced by stop()
            self.error = exc

    def stop(self):
        """End the loop, then close every socket it served (once)."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._thread.join(timeout=WAIT_S)
        assert not self._thread.is_alive(), "the serve loop did not stop"
        self.listener.close()
        self.selector.close()
        if self.error is not None:
            raise self.error

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


def connect(served):
    return socket.create_connection(served.address, timeout=WAIT_S)


def read_envelope(sock):
    """One envelope from a blocking socket; None at EOF."""
    buffer = bytearray()
    while True:
        message = take_envelope(buffer)
        if message is not None:
            assert not buffer, "the server answered more than asked"
            return message
        data = sock.recv(65536)
        if not data:
            return None
        buffer += data


def ask(sock, kind, payload=b""):
    sock.sendall(encode_envelope(kind, payload))
    return read_envelope(sock)


def wait_until(predicate):
    deadline = time.monotonic() + WAIT_S
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.005)


class TestEnvelopeSessions:
    def test_port_zero_binds_ephemeral(self):
        with Served() as served:
            host, port = served.address
        assert host == "127.0.0.1"
        assert port > 0

    def test_data_reset_data_round_trip(self):
        with Served() as served, connect(served) as client:
            first = ask(client, MSG_DATA, b"one")
            second = ask(client, MSG_DATA, b"two")
            acked = ask(client, MSG_RESET)
            after = ask(client, MSG_DATA, b"three")
        assert first == (MSG_RESPONSE, b"seen=1")
        assert second == (MSG_RESPONSE, b"seen=2")
        assert acked == (MSG_ACK, b"")
        # the reset re-armed the session: the counter started over
        assert after == (MSG_RESPONSE, b"seen=1")
        assert served.app.executions == 3

    def test_outcome_kinds(self):
        with Served() as served, connect(served) as client:
            none = ask(client, MSG_DATA, b"NONE")
            hang = ask(client, MSG_DATA, b"HANG")
            crash = ask(client, MSG_DATA, b"CRASH")
        assert none == (MSG_NONE, b"")
        assert hang == (MSG_HANG, b"")
        kind, payload = crash
        assert kind == MSG_CRASH
        blob = json.loads(payload.decode("utf-8"))
        assert blob["kind"] == "heap-buffer-overflow"
        assert blob["site"] == "fake.c:42"
        assert blob["call_sites"] == []

    def test_unknown_envelope_kind_drops_the_session(self):
        with Served() as served, connect(served) as client:
            client.sendall(encode_envelope(b"X", b""))
            message = read_envelope(client)  # server hangs up
        assert message is None

    def test_oversized_envelope_drops_the_session_quietly(self, caplog):
        with caplog.at_level(logging.ERROR):
            with Served() as served:
                with connect(served) as client:
                    client.sendall(MSG_DATA
                                   + struct.pack(">I", MAX_ENVELOPE + 1))
                    dropped = read_envelope(client)  # server hangs up
                with connect(served) as client:
                    acked = ask(client, MSG_RESET)
        assert dropped is None
        assert acked == (MSG_ACK, b"")
        assert [record for record in caplog.records
                if record.levelno >= logging.ERROR] == []

    def test_sessions_are_isolated_by_default(self):
        with Served() as served, connect(served) as c1, \
                connect(served) as c2:
            ask(c1, MSG_DATA, b"a")
            ask(c1, MSG_DATA, b"b")
            other = ask(c2, MSG_DATA, b"c")
        # the second connection got its own server: counter starts at 1
        assert other == (MSG_RESPONSE, b"seen=1")
        assert served.app.connections == 2

    def test_shared_state_races_one_server(self):
        with Served(shared_state=True) as served, connect(served) as c1, \
                connect(served) as c2:
            ask(c1, MSG_DATA, b"a")
            ask(c1, MSG_DATA, b"b")
            other = ask(c2, MSG_DATA, b"c")
        # both connections hit the same server instance
        assert other == (MSG_RESPONSE, b"seen=3")

    def test_envelope_dispatch_matches_in_process_target(self):
        spec = get_target("iec104")
        pit = spec.make_pit()
        wires = [model.to_wire(model.build_default())
                 for model in pit.models()]
        served_replies = []
        with Served(spec) as served:
            for wire in wires:
                with connect(served) as client:
                    ask(client, MSG_RESET)
                    served_replies.append(ask(client, MSG_DATA, wire))
        for wire, (kind, payload) in zip(wires, served_replies):
            local = Target(spec.make_server, None).run(wire)
            if local.response is None:
                assert kind == MSG_NONE
            else:
                assert (kind, payload) == (MSG_RESPONSE, local.response)

    def test_a_client_that_does_not_read_is_not_read(self):
        """While more than OUTPUT_BOUND bytes of replies wait unsent,
        the connection is not read (the bound ``drain()`` used to keep);
        once the client reads, every request is answered."""
        # more requests than one receive call takes
        requests = 100000
        pending = bytearray(encode_envelope(MSG_DATA, b"x") * requests)
        app = ServeApp(FakeSpec)
        with selectors.DefaultSelector() as selector, \
                socket.socket() as client:
            listener = Listener(app)
            listener.register(selector)
            try:
                client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                client.connect(listener.address)
                client.setblocking(False)

                def turn():
                    if pending:
                        try:
                            del pending[:client.send(pending)]
                        except BlockingIOError:
                            pass
                    for key, mask in selector.select(0.01):
                        key.data(mask)

                while not listener.served:
                    turn()
                [connection] = listener.served
                connection.sock.setsockopt(socket.SOL_SOCKET,
                                           socket.SO_SNDBUF, 4096)
                deadline = time.monotonic() + WAIT_S
                while connection.events & selectors.EVENT_READ:
                    assert time.monotonic() < deadline, \
                        "the connection was read past the output bound"
                    turn()
                assert len(connection.unsent) > OUTPUT_BOUND
                assert app.executions < requests
                received = bytearray()
                replies = 0
                while replies < requests:
                    assert time.monotonic() < deadline, "replies stalled"
                    turn()
                    try:
                        received += client.recv(65536)
                    except BlockingIOError:
                        continue
                    while take_envelope(received) is not None:
                        replies += 1
            finally:
                listener.close()
        assert app.executions == requests


@pytest.mark.parametrize("framing", ["peachstar", "raw"])
def test_a_server_stop_ends_a_waiting_session_quietly(framing, caplog):
    """Stopping the server while a client waits mid-envelope (or
    mid-frame) ends that session without a traceback or an error log
    (the path a Ctrl-C of ``peachstar serve`` takes with a client
    connected)."""
    partial = (encode_envelope(MSG_DATA, b"\x68\x04\x07\x00\x00\x00")[:4]
               if framing == "peachstar" else b"\x68\x04\x07")
    with caplog.at_level(logging.ERROR):
        with Served(get_target("iec104"), framing=framing) as served, \
                connect(served) as client:
            client.sendall(partial)
            wait_until(lambda: len(served.listener.served) == 1)
            [connection] = served.listener.served
            framer = connection.framer
            wait_until(lambda: (framer.pending if framer is not None
                                else len(connection.received)) > 0)
            served.stop()
            # the session ended with the server: the client sees EOF
            assert client.recv(4096) == b""
    assert served.app.connections == 1
    assert served.app.executions == 0
    assert [record for record in caplog.records
            if record.levelno >= logging.ERROR] == []


class TestRawSessions:
    def test_response_travels_in_protocol_framing(self):
        spec = get_target("iec104")
        pit = spec.make_pit()
        model = pit.model("iec104.startdt")
        wire = model.to_wire(model.build_default())
        expected = Target(spec.make_server, None).run(wire).response
        assert expected is not None
        with Served(spec, framing="raw") as served, \
                connect(served) as client:
            client.sendall(wire)
            data = client.recv(4096)
        framer = framer_for(spec.framing)
        assert framer.feed(data) == [expected]

    def test_crash_closes_the_connection(self):
        with Served(framing="raw") as served, connect(served) as client:
            client.sendall(apci(b"CRASH"))
            data = client.recv(4096)
        # a crashed raw server drops its client: EOF, no bytes
        assert data == b""

    def test_silence_on_none_and_hang(self):
        with Served(framing="raw") as served, connect(served) as client:
            client.sendall(apci(b"NONE") + apci(b"HANG") + apci(b"ok"))
            data = client.recv(4096)
        # only the third frame answers; the first two stay silent
        assert data == b"seen=3"


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


def _default_sigint():
    """Run in the child before exec: a shell that starts background jobs
    ignores SIGINT in them, and an interpreter that starts with SIGINT
    ignored never raises KeyboardInterrupt."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def test_peachstar_serve_answers_and_stops_on_sigint():
    """``peachstar serve`` in its own process: the bound port is on the
    first line, a RESET/DATA exchange matches in-process dispatch, and a
    Ctrl-C with a client still connected prints ``serve stopped`` and
    exits 0."""
    spec = get_target("iec104")
    pit = spec.make_pit()
    wires = [model.to_wire(model.build_default()) for model in pit.models()]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "iec104", "--port",
         "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC_ROOT),
        preexec_fn=_default_sigint)
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            assert selector.select(30.0), "serve printed no first line"
        first = proc.stdout.readline()
        match = re.match(r"serving iec104 on tcp://127\.0\.0\.1:(\d+) "
                         r"\(framing=peachstar, sessions=per-connection\)$",
                         first.rstrip("\n"))
        assert match, first
        app = ServeApp(spec)
        with socket.create_connection(("127.0.0.1", int(match.group(1))),
                                      timeout=WAIT_S) as client:
            for wire in wires:
                assert ask(client, MSG_RESET) == (MSG_ACK, b"")
                assert ask(client, MSG_DATA, wire) == app._dispatch(
                    app._session(), wire)
            # the client is still connected when the server stops
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
            assert client.recv(4096) == b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out + err
    assert out == "serve stopped\n"
    assert "Traceback" not in err and err == ""
