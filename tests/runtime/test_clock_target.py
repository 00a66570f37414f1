"""Unit tests for the simulated clock and the target harness."""

import random

from repro.channel.faults import FaultingChannel
from repro.protocols.iccp import IccpServer, build_read, build_write
from repro.protocols.modbus import ModbusServer, build_read_request
from repro.runtime import Target, TracingCollector
from repro.runtime.clock import CostModel, SimulatedClock
from repro.runtime.coverage import CoverageMap


class TestSimulatedClock:
    def test_execution_charges_base_cost(self):
        clock = SimulatedClock(CostModel(exec_cost_ms=1000,
                                         coverage_overhead_ms=100))
        clock.charge_execution(instrumented=False)
        assert clock.now_ms == 1000

    def test_instrumented_execution_pays_overhead(self):
        clock = SimulatedClock(CostModel(exec_cost_ms=1000,
                                         coverage_overhead_ms=100))
        clock.charge_execution(instrumented=True)
        assert clock.now_ms == 1100

    def test_crack_and_semantic_costs(self):
        clock = SimulatedClock(CostModel(crack_cost_ms=10,
                                         semantic_gen_cost_ms=2,
                                         fixup_cost_ms=1))
        clock.charge_crack()
        clock.charge_semantic_generation(seeds=5)
        clock.charge_fixup()
        assert clock.now_ms == 10 + 10 + 1

    def test_hours_property(self):
        clock = SimulatedClock(CostModel(exec_cost_ms=3_600_000))
        clock.charge_execution(instrumented=False)
        assert clock.hours == 1.0

    def test_reset(self):
        clock = SimulatedClock()
        clock.charge_execution(instrumented=False)
        clock.reset()
        assert clock.now_ms == 0.0


class TestTargetHarness:
    def test_normal_execution_returns_response(self):
        target = Target(ModbusServer,
                        TracingCollector(("repro/protocols",)))
        result = target.run(build_read_request(3, 0, 2))
        assert result.response is not None
        assert not result.crashed
        assert not result.hang
        assert result.coverage is not None

    def test_crash_is_captured_not_raised(self):
        target = Target(IccpServer, TracingCollector(("repro/protocols",)))
        result = target.run(build_read(1, ""))  # ts_name_tail SEGV
        assert result.crashed
        assert result.crash.kind == "SEGV"
        assert result.crash.site == "tase2_ts.c:ts_name_tail"
        assert result.coverage is not None  # coverage kept for triage

    def test_uninstrumented_run_has_no_coverage(self):
        target = Target(ModbusServer, collector=None)
        result = target.run(build_read_request(3, 0, 2))
        assert result.coverage is None
        assert result.response is not None

    def test_fresh_heap_per_execution_makes_crashes_deterministic(self):
        target = Target(IccpServer, TracingCollector(("repro/protocols",)))
        crash_packet = build_write(1, "DV_B", b"A" * 90)
        for _ in range(3):
            result = target.run(crash_packet)
            assert result.crash.site == "iccp_dv.c:dv_write_copy"

    def test_execution_counter(self):
        target = Target(ModbusServer, collector=None)
        for _ in range(5):
            target.run(b"")
        assert target.executions == 5

    def test_model_name_attached_to_crash_report(self):
        target = Target(IccpServer, TracingCollector(("repro/protocols",)))
        result = target.run(build_read(1, ""), model_name="iccp.read")
        assert result.crash.model_name == "iccp.read"


class TestRunInto:
    """``run`` and ``run_into`` are two entry points over one body."""

    PACKETS = (build_read_request(3, 0, 2), build_read_request(1, 7, 9),
               b"\x00\x01", build_read_request(3, 0, 120))

    def _target(self, channel=None):
        return Target(ModbusServer, TracingCollector(("repro/protocols",)),
                      channel=channel)

    def test_run_into_records_into_the_callers_map(self):
        via_run, via_into = self._target(), self._target()
        for packet in self.PACKETS:
            expected = via_run.run(packet)
            expected_journal = list(expected.coverage.journal)
            own = CoverageMap()
            result = via_into.run_into(packet, None, own)
            assert result.coverage is own
            assert list(own.journal) == expected_journal
            assert result.response == expected.response
        assert via_into.executions == via_run.executions == len(self.PACKETS)

    def test_channel_frames_match_between_entry_points(self):
        via_run = self._target(FaultingChannel(0.5, random.Random(5)))
        via_into = self._target(FaultingChannel(0.5, random.Random(5)))
        for packet in self.PACKETS * 3:
            expected = via_run.run(packet)
            result = via_into.run_into(packet, None, CoverageMap())
            assert result.delivered == expected.delivered
            assert result.response == expected.response
            assert list(result.coverage.journal) == list(
                expected.coverage.journal)

    def test_entry_points_do_not_nest(self, monkeypatch):
        """Per-stage timing sums both methods, so neither may call the
        other (the time would be counted twice)."""
        target = self._target()

        def forbidden(*args, **kwargs):
            raise AssertionError("public entry points must not nest")

        monkeypatch.setattr(target, "run_into", forbidden)
        assert target.run(self.PACKETS[0]).response is not None
        monkeypatch.undo()
        monkeypatch.setattr(target, "run", forbidden)
        result = target.run_into(self.PACKETS[0], None, CoverageMap())
        assert result.response is not None
