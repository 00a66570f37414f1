"""Coverage-backend selection: sys.monitoring vs sys.settrace.

The monitoring backend needs CPython 3.12+ (PEP 669); on older
interpreters `make_line_collector` must fall back to settrace
automatically, and an *explicit* monitoring request must fail loudly.
The behavioural tests run on both backends where available and require
identical coverage maps.
"""

import gc
import os
import sys

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.protocols import get_target
from repro.protocols.modbus import ModbusServer, build_read_request
from repro.runtime import instrument
from repro.runtime.instrument import (
    MonitoringCollector, TracingCollector, _monitoring_usable,
    make_line_collector, monitoring_available, resolve_backend,
)
from repro.net.serve import ServeApp
from repro.runtime.target import Session, Target, dispatch_armed
from repro.sanitizer import SimHeap
from repro.sanitizer.errors import SimSegv

HAS_MONITORING = monitoring_available()
#: auto also requires the coverage tool id to be free (e.g. not taken by
#: coverage.py running under COVERAGE_CORE=sysmon)
AUTO_MONITORING = _monitoring_usable()
PREFIXES = ("repro/protocols",)
BACKENDS = ["settrace"] + (["monitoring"] if HAS_MONITORING else [])


class TestResolveBackend:
    def test_auto_prefers_monitoring_when_available(self, monkeypatch):
        # CI forces a backend through the environment; auto's own
        # preference shows only without that override
        monkeypatch.delenv("REPRO_COVERAGE_BACKEND", raising=False)
        expected = "monitoring" if AUTO_MONITORING else "settrace"
        assert resolve_backend("auto") == expected

    def test_explicit_choice_passes_through(self):
        assert resolve_backend("settrace") == "settrace"
        assert resolve_backend("monitoring") == "monitoring"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "settrace")
        assert resolve_backend("auto") == "settrace"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "settrace")
        assert resolve_backend("monitoring") == "monitoring"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("ptrace")


class TestFactory:
    def test_auto_builds_best_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_COVERAGE_BACKEND", raising=False)
        collector = make_line_collector(PREFIXES)
        if AUTO_MONITORING:
            assert isinstance(collector, MonitoringCollector)
            assert collector.backend_name == "monitoring"
        else:
            assert isinstance(collector, TracingCollector)
            assert collector.backend_name == "settrace"

    def test_settrace_always_constructible(self):
        collector = make_line_collector(PREFIXES, backend="settrace")
        assert isinstance(collector, TracingCollector)

    @pytest.mark.skipif(HAS_MONITORING,
                        reason="needs an interpreter without PEP 669")
    def test_monitoring_request_fails_loudly_without_pep669(self):
        # a ValueError, like an unknown backend name: the CLI reports
        # both as `error:` (exit 2) before any campaign runs
        with pytest.raises(ValueError, match="sys.monitoring"):
            make_line_collector(PREFIXES, backend="monitoring")

    def test_monitoring_request_fails_when_the_tool_id_is_held(
            self, monkeypatch):
        class HeldMonitoring:
            COVERAGE_ID = 1

            @staticmethod
            def get_tool(tool_id):
                return "coverage.py"

        monkeypatch.setattr(instrument, "_MONITORING", HeldMonitoring)
        with pytest.raises(ValueError, match="held by 'coverage.py'"):
            make_line_collector(PREFIXES, backend="monitoring")

    def test_monitoring_version_gate_matches_interpreter(self):
        assert HAS_MONITORING == (sys.version_info >= (3, 12))


def _run_modbus(collector, packet):
    server = ModbusServer()
    collector.begin()
    with collector:
        server.handle_packet(SimHeap(), packet)


@pytest.mark.skipif(not HAS_MONITORING,
                    reason="sys.monitoring needs CPython 3.12+")
class TestMonitoringPersistentRegistration:
    """The tool id and LINE callback survive across executions.

    ``begin``/``end`` only toggle event delivery for the already-
    registered tool; maps must stay behaviourally identical to per-run
    re-registration (and to the settrace backend).
    """

    def teardown_method(self):
        MonitoringCollector.release()

    def test_tool_id_stays_claimed_between_executions(self):
        mon = sys.monitoring
        collector = make_line_collector(PREFIXES, backend="monitoring")
        _run_modbus(collector, build_read_request(3, 0, 2))
        # the execution is over, yet the tool id is still ours ...
        assert mon.get_tool(mon.COVERAGE_ID) == "repro-coverage"
        # ... and a second execution re-uses it without re-claiming
        _run_modbus(collector, build_read_request(3, 0, 2))
        assert mon.get_tool(mon.COVERAGE_ID) == "repro-coverage"

    def test_repeated_executions_produce_identical_maps(self):
        packet = build_read_request(3, 0, 4)
        collector = make_line_collector(PREFIXES, backend="monitoring")
        _run_modbus(collector, packet)
        first = list(collector.map.iter_hits())
        _run_modbus(collector, packet)
        second = list(collector.map.iter_hits())
        assert first == second
        reference = make_line_collector(PREFIXES, backend="settrace")
        _run_modbus(reference, packet)
        assert second == list(reference.map.iter_hits())

    def test_no_recording_between_executions(self):
        packet = build_read_request(3, 0, 2)
        collector = make_line_collector(PREFIXES, backend="monitoring")
        _run_modbus(collector, packet)
        baseline = list(collector.map.iter_hits())
        # in-scope code running OUTSIDE a collection window (tool still
        # claimed, callback still registered) must not record
        build_read_request(3, 0, 2)
        _run_modbus(collector, packet)
        assert list(collector.map.iter_hits()) == baseline

    def test_release_frees_the_tool_id(self):
        mon = sys.monitoring
        collector = make_line_collector(PREFIXES, backend="monitoring")
        _run_modbus(collector, build_read_request(3, 0, 2))
        assert mon.get_tool(mon.COVERAGE_ID) == "repro-coverage"
        MonitoringCollector.release()
        assert mon.get_tool(mon.COVERAGE_ID) is None
        # and the backend is immediately reusable after a release
        again = make_line_collector(PREFIXES, backend="monitoring")
        _run_modbus(again, build_read_request(3, 0, 2))
        assert again.map.edge_count() > 10


@pytest.mark.skipif(not HAS_MONITORING,
                    reason="sys.monitoring needs CPython 3.12+")
class TestBackendCampaignParity:
    """Whole-campaign parity: the same campaign driven once under
    ``REPRO_COVERAGE_BACKEND=settrace`` and once under ``=monitoring``
    must pin identical path-hash sets (and identical everything else —
    the backends may only differ in wall-clock cost)."""

    def teardown_method(self):
        MonitoringCollector.release()

    def _campaign(self, monkeypatch, backend, target_name):
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
        config = CampaignConfig(budget_hours=24.0, max_executions=150,
                                record_every=10)
        return run_campaign("peach-star", get_target(target_name),
                            seed=17, config=config)

    # libiec61850 loops over a generator expression on one line, which
    # CPython 3.12's settrace reports once per iteration (a backward
    # jump within one line); libmodbus has no such line
    @pytest.mark.parametrize("target_name", ["libmodbus", "libiec61850"])
    def test_identical_path_hash_sets(self, monkeypatch, target_name):
        settrace = self._campaign(monkeypatch, "settrace", target_name)
        MonitoringCollector.release()
        monitoring = self._campaign(monkeypatch, "monitoring", target_name)
        assert set(settrace.path_hashes) == set(monitoring.path_hashes)
        assert settrace.path_hashes == monitoring.path_hashes
        assert settrace.series == monitoring.series
        assert settrace.final_paths == monitoring.final_paths
        assert settrace.final_edges == monitoring.final_edges
        assert settrace.stats == monitoring.stats
        assert sorted(r.dedup_key for r in settrace.unique_crashes) == \
            sorted(r.dedup_key for r in monitoring.unique_crashes)


@pytest.mark.skipif(not HAS_MONITORING,
                    reason="sys.monitoring needs CPython 3.12+")
class TestMonitoringCollector:
    def teardown_method(self):
        MonitoringCollector.release()

    def test_traces_target_module_lines(self):
        collector = make_line_collector(PREFIXES, backend="monitoring")
        _run_modbus(collector, build_read_request(3, 0, 2))
        assert collector.map.edge_count() > 10
        assert collector.blocks_executed > 10

    def test_backends_produce_identical_maps(self):
        packet = build_read_request(3, 0, 5)
        monitoring = make_line_collector(PREFIXES, backend="monitoring")
        _run_modbus(monitoring, packet)
        settrace = make_line_collector(PREFIXES, backend="settrace")
        _run_modbus(settrace, packet)
        assert list(monitoring.map.iter_hits()) == \
            list(settrace.map.iter_hits())
        assert monitoring.map.path_hash() == settrace.map.path_hash()

    def test_out_of_scope_modules_ignored(self):
        collector = make_line_collector(("no/such/prefix",),
                                        backend="monitoring")
        _run_modbus(collector, build_read_request(3, 0, 2))
        assert collector.map.edge_count() == 0


def _armed(collector):
    """Whether *collector*'s line instrumentation is switched on."""
    if isinstance(collector, MonitoringCollector):
        return sys.monitoring.get_events(collector._tool_id) != 0
    return sys.gettrace() == collector._global_trace


def _spin(rounds):
    """In-scope work for collectors scoped to this test module."""
    total = 0
    for step in range(rounds):
        total += step
    return total


class _ScriptedServer:
    """Faults on ``b"segv"``; spins far past any small hang budget on
    ``b"spin"``."""

    def handle_packet(self, heap, data):
        if data == b"segv":
            raise SimSegv("scripted:segv")
        return b"%d" % _spin(1_000_000 if data == b"spin" else 3)

    def reset(self):
        pass


class _ScriptedSpec:
    name = "scripted"
    framing = "apci"
    make_server = _ScriptedServer


@pytest.mark.parametrize("backend", BACKENDS)
class TestArmContract:
    """``begin()`` starts an execution and arms nothing; only the armed
    dispatch switches instrumentation on, and every way out of it
    switches it off again."""

    def teardown_method(self):
        MonitoringCollector.release()

    def _collector(self, backend, **kwargs):
        return make_line_collector((os.path.basename(__file__),),
                                   backend=backend, **kwargs)

    def test_begin_alone_arms_nothing(self, backend):
        collector = self._collector(backend)
        collector.begin()
        with collector:
            _spin(3)
        assert collector.blocks_executed > 0
        collector.begin()
        assert not _armed(collector)
        _spin(3)
        assert collector.blocks_executed == 0
        assert collector.map.edge_count() == 0

    def test_disarmed_after_a_memory_fault(self, backend):
        collector = self._collector(backend)
        before = sys.gettrace()
        collector.begin()
        crash, hang, response = dispatch_armed(
            collector, Session(_ScriptedServer), b"segv")
        assert crash.dedup_key == (SimSegv.kind, "scripted:segv")
        assert response is None and not hang
        assert collector.blocks_executed > 0
        assert not _armed(collector)
        assert sys.gettrace() is before

    def test_disarmed_after_a_hang(self, backend):
        collector = self._collector(backend, hang_budget=50)
        before = sys.gettrace()
        collector.begin()
        crash, hang, response = dispatch_armed(
            collector, Session(_ScriptedServer), b"spin")
        assert hang and response is None and crash is None
        assert not _armed(collector)
        assert sys.gettrace() is before

    def test_a_dropped_collector_leaves_no_reference_cycle(self, backend):
        """Its tracers die with the collector: a tracer that refers to
        itself would keep the last armed map's counts and journal alive
        in a cycle, until a full collection."""
        gc.collect()
        gc.disable()
        try:
            target = Target(_ScriptedServer, self._collector(backend))
            assert target.run(b"go").blocks_executed > 0
            del target
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_fault_leaves_no_reference_cycle(self, backend):
        """The fault handed back by the armed dispatch dies with the
        execution: its traceback must not pin the harness frames (and
        their heaps and maps) in a cycle that waits for the GC."""
        collector = self._collector(backend)
        target = Target(_ScriptedServer, collector)
        app = ServeApp(_ScriptedSpec, collector=collector)
        session = app._session()
        gc.collect()
        gc.disable()
        try:
            assert target.run(b"segv").crashed
            assert app._dispatch(session, b"segv")[0] == b"c"
            assert gc.collect() == 0
        finally:
            gc.enable()
