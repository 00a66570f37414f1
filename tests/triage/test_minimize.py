"""Test-case minimization: ddmin, field-aware shrink, full pipeline."""

import pytest

from repro.protocols import get_target
from repro.state import TraceStep
from repro.triage import CrashChecker, ddmin_bytes, minimize_crash
from repro.triage.minimize import shrink_fields


class TestDdmin:
    def test_reduces_to_minimal_subsequence(self):
        packet = bytes(range(1, 40)) + b"\xde" + bytes(range(40, 60)) + \
            b"\xad" + bytes(range(60, 80))

        def reproduces(candidate):
            start = candidate.find(b"\xde")
            return start != -1 and b"\xad" in candidate[start:]

        reduced = ddmin_bytes(packet, reproduces)
        assert reproduces(reduced)
        assert reduced == b"\xde\xad"

    def test_single_byte_input_untouched(self):
        assert ddmin_bytes(b"\x42", lambda c: True) == b"\x42"

    def test_respects_execution_budget(self):
        calls = []

        def reproduces(candidate):
            calls.append(candidate)
            return False

        budget = [5]
        packet = bytes(64)
        assert ddmin_bytes(packet, reproduces, budget) == packet
        assert len(calls) <= 5

    def test_result_is_one_minimal(self):
        """Removing any single byte from the result breaks reproduction."""
        def reproduces(candidate):
            return candidate.count(0xAA) >= 3

        reduced = ddmin_bytes(b"\x01\xaa\x02\xaa\x03\xaa\x04" * 3,
                              reproduces)
        assert reproduces(reduced)
        for index in range(len(reduced)):
            clipped = reduced[:index] + reduced[index + 1:]
            assert not reproduces(clipped)


class TestShrinkFields:
    def test_truncates_variable_field_and_repairs_framing(self):
        """Shrinking the element blob must recompute the APCI length."""
        spec = get_target("lib60870")
        pit = spec.make_pit()
        model = pit.model("lib60870.clock_sync")
        oversized = model.build_default()
        packet = model.to_wire(oversized)

        # "reproduces" = still starts 0x68 with a consistent length byte
        # and the same ASDU type — structure-preserving predicate
        def reproduces(candidate):
            return (len(candidate) >= 7 and candidate[0] == 0x68
                    and candidate[1] + 2 == len(candidate)
                    and candidate[6] == packet[6])

        shrunk = shrink_fields(pit, packet, reproduces)
        assert len(shrunk) < len(packet)
        assert reproduces(shrunk)


class TestMinimizeCrash:
    def test_minimized_keeps_dedup_key_and_shrinks(self, lib60870_crashes):
        spec, crashes = lib60870_crashes
        reduced_any = False
        for report in crashes:
            outcome = minimize_crash(spec, report)
            assert outcome.confirmed
            assert len(outcome.minimized) <= len(outcome.original)
            checker = CrashChecker(spec, report)
            assert checker.crash_step(
                [TraceStep(report.model_name, outcome.minimized)]) == 0
            assert outcome.report is not None
            assert outcome.report.dedup_key == report.dedup_key
            reduced_any = reduced_any or outcome.reduced
        assert reduced_any, "at least one crash input must shrink strictly"

    def test_non_reproducing_input_reported_unconfirmed(self):
        spec = get_target("lib60870")
        from repro.sanitizer.report import CrashReport
        bogus = CrashReport(kind="SEGV", site="nowhere.c:nothing",
                            detail="", packet=b"\x68\x04\x07\x00\x00\x00")
        outcome = minimize_crash(spec, bogus)
        assert not outcome.confirmed
        assert outcome.minimized == bogus.packet

    def test_minimization_is_deterministic(self, lib60870_crashes):
        spec, crashes = lib60870_crashes
        report = crashes[0]
        first = minimize_crash(spec, report)
        second = minimize_crash(spec, report)
        assert first.minimized == second.minimized
