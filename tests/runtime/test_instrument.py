"""Unit tests for the instrumentation collectors."""

import pytest

from repro.runtime.instrument import (
    ExplicitCollector, HangBudgetExceeded, TracingCollector,
)
from repro.protocols.modbus import ModbusServer, build_read_request
from repro.sanitizer import SimHeap


class TestExplicitCollector:
    def test_hits_recorded(self):
        collector = ExplicitCollector()
        with collector:
            collector.hit("block-a")
            collector.hit("block-b")
        assert collector.map.edge_count() == 2
        assert collector.blocks_executed == 2

    def test_labels_have_stable_ids(self):
        one = ExplicitCollector()
        two = ExplicitCollector()
        with one:
            one.hit("x")
        with two:
            two.hit("x")
        assert list(one.map.iter_hits()) == list(two.map.iter_hits())

    def test_hang_budget_enforced(self):
        collector = ExplicitCollector(hang_budget=10)
        with pytest.raises(HangBudgetExceeded):
            with collector:
                for _ in range(20):
                    collector.hit("loop")

    def test_begin_resets_between_executions(self):
        collector = ExplicitCollector()
        collector.begin()
        with collector:
            collector.hit("a")
        collector.begin()
        with collector:
            collector.hit("b")
        assert collector.map.edge_count() == 1


class TestTracingCollector:
    def _run_modbus(self, collector, packet):
        server = ModbusServer()
        collector.begin()
        with collector:
            server.handle_packet(SimHeap(), packet)

    def test_traces_target_module_lines(self):
        collector = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(collector, build_read_request(3, 0, 2))
        assert collector.map.edge_count() > 10
        assert collector.blocks_executed > 10

    def test_ignores_out_of_scope_modules(self):
        collector = TracingCollector(module_prefixes=("no/such/prefix",))
        self._run_modbus(collector, build_read_request(3, 0, 2))
        assert collector.map.edge_count() == 0

    def test_different_function_codes_differ_in_coverage(self):
        first = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(first, build_read_request(0x01, 0, 2))
        second = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(second, build_read_request(0x03, 0, 2))
        assert first.map.path_hash() != second.map.path_hash()

    def test_same_packet_same_coverage(self):
        packet = build_read_request(3, 0, 5)
        hashes = []
        for _ in range(2):
            collector = TracingCollector(
                module_prefixes=("repro/protocols",))
            self._run_modbus(collector, packet)
            hashes.append(collector.map.path_hash())
        assert hashes[0] == hashes[1]

    def test_loop_iterations_bump_counts(self):
        """A larger read quantity executes the register loop more times —
        the hit-count bucketing must be able to tell the difference."""
        small = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(small, build_read_request(3, 0, 1))
        large = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(large, build_read_request(3, 0, 40))
        assert large.blocks_executed > small.blocks_executed
        assert small.map.path_hash() != large.map.path_hash()

    def test_trace_hook_restored_after_execution(self):
        import sys
        before = sys.gettrace()
        collector = TracingCollector(module_prefixes=("repro/protocols",))
        self._run_modbus(collector, build_read_request(3, 0, 1))
        assert sys.gettrace() is before
