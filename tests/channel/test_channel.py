"""Channel faults + differential parse oracles (PR 8).

Three layers of guarantees:

* **unit** — each transport fault does exactly what its name says, the
  faulting channel is a pure function of (RNG state, frame sizes), and
  ``snapshot``/``restore`` round-trips mid-stream;
* **oracle** — legal frames never diverge, truncation-repaired frames
  are strict-vs-lenient findings, APCI length disagreement is a
  cross-stack finding, and divergence reports duck-type through the
  crash database and the triage pipeline (bucket → minimize →
  reproducer);
* **acceptance** (the ISSUE gates) — a seeded ``channel_faults``
  IEC 104 session campaign reaches edges a no-fault same-budget
  campaign cannot, and at least one strict-vs-lenient divergence is
  found, persisted, resumed bit-identically, and minimized by triage.
"""

import gc
import json
import os
import random

import pytest

from repro.channel import (
    FAULT_KINDS, FaultingChannel, make_oracle,
)
from repro.channel.oracle import (
    KIND_CROSS_STACK, KIND_PARSE, DifferentialOracle,
)
from repro.core import (
    CampaignConfig, make_engine, resume_campaign, run_campaign,
)
from repro.model import Block, DataModel, Number, ParseError, Pit
from repro.protocols import get_target
from repro.runtime.target import Target
from repro.sanitizer.report import CrashDatabase
from repro.state import TraceStep
from repro.store.workspace import CampaignWorkspace
from repro.triage import CrashChecker, minimize_crash, triage_reports


class ScriptedRng:
    """An RNG whose rolls are scripted, for fault-exact unit tests.

    ``rolls`` feeds ``random()`` (the per-frame fault gate), ``ints``
    feeds ``randrange``/``randint`` (fault selection and parameters).
    """

    def __init__(self, rolls, ints=()):
        self.rolls = list(rolls)
        self.ints = list(ints)

    def random(self):
        return self.rolls.pop(0)

    def randrange(self, n):
        return self.ints.pop(0) % n

    def randint(self, low, high):
        return low + self.ints.pop(0) % (high - low + 1)


def _fault_index(kind):
    return FAULT_KINDS.index(kind)


WIRE = bytes(range(8))


class TestFaultingChannelUnits:
    def test_rate_validation(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                FaultingChannel(bad, random.Random(0))

    def test_zero_rate_is_passthrough(self):
        channel = FaultingChannel(0.0, random.Random(1))
        for index in range(16):
            assert channel.transmit(index, WIRE) == [WIRE]
        assert channel.flush() == []
        assert channel.faults_injected == 0

    def test_drop_delivers_nothing(self):
        rng = ScriptedRng([0.0], [_fault_index("drop")])
        channel = FaultingChannel(1.0, rng)
        assert channel.transmit(0, WIRE) == []
        assert channel.fault_counts["drop"] == 1

    def test_duplicate_delivers_twice(self):
        rng = ScriptedRng([0.0], [_fault_index("duplicate")])
        channel = FaultingChannel(1.0, rng)
        assert channel.transmit(0, WIRE) == [WIRE, WIRE]

    def test_reorder_is_an_adjacent_swap(self):
        first, second = b"first", b"second"
        rng = ScriptedRng([0.0, 1.0], [_fault_index("reorder")])
        channel = FaultingChannel(0.5, rng)
        assert channel.transmit(0, first) == []
        # the held frame lands right after its successor's frames
        assert channel.transmit(1, second) == [second, first]
        assert channel.flush() == []

    def test_reorder_held_at_trace_end_is_flushed(self):
        rng = ScriptedRng([0.0], [_fault_index("reorder")])
        channel = FaultingChannel(1.0, rng)
        assert channel.transmit(0, WIRE) == []
        assert channel.flush() == [WIRE]
        assert channel.flush() == []

    def test_second_reorder_degrades_to_passthrough(self):
        rng = ScriptedRng([0.0, 0.0],
                          [_fault_index("reorder"), _fault_index("reorder")])
        channel = FaultingChannel(1.0, rng)
        assert channel.transmit(0, b"held") == []
        # only one frame fits in flight; the degrade is not counted
        assert channel.transmit(1, WIRE) == [WIRE]
        assert channel.faults_injected == 1
        assert channel.flush() == [b"held"]

    def test_fragment_splits_without_losing_bytes(self):
        cut = 3
        rng = ScriptedRng([0.0], [_fault_index("fragment"), cut - 1])
        channel = FaultingChannel(1.0, rng)
        frames = channel.transmit(0, WIRE)
        assert frames == [WIRE[:cut], WIRE[cut:]]
        assert all(frames)

    def test_fragment_of_a_single_byte_degrades(self):
        rng = ScriptedRng([0.0], [_fault_index("fragment")])
        channel = FaultingChannel(1.0, rng)
        assert channel.transmit(0, b"x") == [b"x"]
        assert channel.faults_injected == 0

    def test_corrupt_flips_exactly_one_bit(self):
        rng = ScriptedRng([0.0], [_fault_index("corrupt"), 2, 5])
        channel = FaultingChannel(1.0, rng)
        [frame] = channel.transmit(0, WIRE)
        assert len(frame) == len(WIRE)
        diff = [a ^ b for a, b in zip(frame, WIRE) if a != b]
        assert len(diff) == 1 and diff[0].bit_count() == 1

    def test_corrupt_of_empty_frame_degrades(self):
        rng = ScriptedRng([0.0], [_fault_index("corrupt")])
        channel = FaultingChannel(1.0, rng)
        assert channel.transmit(0, b"") == [b""]
        assert channel.faults_injected == 0

    def test_reset_clears_held_but_not_the_rng(self):
        channel = FaultingChannel(1.0, random.Random(3))
        channel._held = b"stale"
        state = channel.rng.getstate()
        channel.reset()
        assert channel._held is None
        assert channel.rng.getstate() == state


def _pump(channel, frames):
    """Deliver *frames* through *channel*, flushing at the end."""
    delivered = []
    for index, wire in enumerate(frames):
        delivered.append(tuple(channel.transmit(index, wire)))
    delivered.append(tuple(channel.flush()))
    return delivered


class TestFaultingChannelDeterminism:
    FRAMES = [bytes([seed] * (3 + seed % 9)) for seed in range(64)]

    def test_same_seed_same_stream(self):
        first = FaultingChannel(0.4, random.Random(77))
        second = FaultingChannel(0.4, random.Random(77))
        assert _pump(first, self.FRAMES) == _pump(second, self.FRAMES)
        assert first.faults_injected == second.faults_injected > 0
        assert first.fault_counts == second.fault_counts
        assert sum(first.fault_counts.values()) == first.faults_injected

    def test_different_seed_diverges(self):
        first = FaultingChannel(0.4, random.Random(77))
        second = FaultingChannel(0.4, random.Random(78))
        assert _pump(first, self.FRAMES) != _pump(second, self.FRAMES)

    def test_snapshot_restore_roundtrips_midstream(self):
        reference = FaultingChannel(0.4, random.Random(9))
        _pump(reference, self.FRAMES[:32])
        # the snapshot must survive the workspace's JSON checkpoint
        blob = json.loads(json.dumps(reference.snapshot()))
        tail_expected = _pump(reference, self.FRAMES[32:])

        rewound = FaultingChannel(0.9, random.Random(0))
        rewound.restore(blob)
        assert rewound.rate == 0.4
        assert rewound.faults_injected == blob["faults_injected"]
        assert _pump(rewound, self.FRAMES[32:]) == tail_expected


class TestPassthroughChannel:
    """A rate-0 faulting channel is the pinned passthrough."""

    def test_passthrough_snapshot_counts_no_faults(self):
        channel = FaultingChannel(0.0, random.Random(0))
        assert channel.transmit(0, WIRE) == [WIRE]
        assert channel.flush() == []
        snap = channel.snapshot()
        assert snap["faults_injected"] == 0
        assert not any(snap["fault_counts"].values())

    def test_target_run_matches_channel_less_path(self):
        spec = get_target("iec104")
        packet = spec.make_pit().model("iec104.startdt").to_wire(
            spec.make_pit().model("iec104.startdt").build_default())
        plain = Target(spec.make_server, None).run(packet)
        piped = Target(spec.make_server, None,
                       channel=FaultingChannel(0.0, random.Random(0))
                       ).run(packet)
        assert piped.delivered == [packet]
        assert plain.delivered is None
        assert (plain.response, plain.crashed, plain.hang) == \
            (piped.response, piped.crashed, piped.hang)


# -- differential oracles ----------------------------------------------------

_IEC104 = get_target("iec104")
_PIT = _IEC104.make_pit()


def _default_wire(model_name):
    model = _PIT.model(model_name)
    return model.to_wire(model.build_default())


class TestDifferentialOracle:
    def test_legal_frames_never_diverge(self):
        oracle = make_oracle(_IEC104, _PIT)
        for model in _PIT:
            wire = _default_wire(model.name)
            assert oracle.examine(wire, model.name, 0) == []

    def test_truncation_repair_is_a_parse_divergence(self):
        oracle = make_oracle(_IEC104, _PIT)
        wire = _default_wire("iec104.startdt")
        findings = []
        for cut in range(1, len(wire)):
            findings.extend(oracle.examine(wire[:cut], "iec104.startdt", 0))
        parse = [f for f in findings if f.kind == KIND_PARSE]
        assert parse, "no truncation produced a strict-vs-lenient finding"
        for report in parse:
            assert report.oracle == "strict-lenient"
            assert report.site.startswith("iec104.startdt:")
            # the reason slug is a stable identity: no per-packet
            # specifics (values in parens, raw offsets/lengths)
            reason = report.site.split(":", 1)[1]
            assert "(" not in reason
            assert not any(ch.isdigit() for ch in reason)

    def test_strict_rejections_leave_no_reference_cycle(self):
        """A strictly rejected frame keeps only the ParseError's message.
        The exception's traceback holds the oracle frame that would hold
        the exception, a cycle that pins the parse and engine call stack
        until the cyclic GC runs."""
        frames = []
        for model in _PIT:
            wire = _default_wire(model.name)
            for cut in range(1, len(wire)):
                try:
                    model.parse(wire[:cut])
                except ParseError:
                    frames.append((wire[:cut], model.name))
        frames = frames[:50]
        assert len(frames) == 50
        oracle = make_oracle(_IEC104, _PIT)
        gc.collect()
        gc.disable()
        try:
            for frame, model_name in frames:
                oracle.examine(frame, model_name, 0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_examine_is_deterministic(self):
        oracle = make_oracle(_IEC104, _PIT)
        frame = _default_wire("iec104.testfr")[:4]
        first = [f.dedup_key for f in oracle.examine(frame,
                                                     "iec104.testfr", 0)]
        again = [f.dedup_key for f in oracle.examine(frame,
                                                     "iec104.testfr", 9)]
        fresh = [f.dedup_key for f in
                 make_oracle(_IEC104, _PIT).examine(frame,
                                                    "iec104.testfr", 0)]
        assert first == again == fresh

    def test_bad_length_octet_is_a_cross_stack_divergence(self):
        # ctrl1 says STARTDT-act (a U-frame to the iec104 classifier,
        # which ignores the length octet) but the length field claims 9
        # bytes of APDU where 4 follow — lib60870 calls it invalid
        frame = bytes((0x68, 9, 0x07, 0x00, 0x00, 0x00))
        oracle = make_oracle(_IEC104, _PIT)
        findings = [f for f in oracle.examine(frame, None, 0)
                    if f.kind == KIND_CROSS_STACK]
        assert len(findings) == 1
        report = findings[0]
        assert report.oracle == "cross-stack"
        assert report.site == "apci:iec104=U!=lib60870=invalid"

    def test_cross_stack_agrees_on_legal_frames(self):
        from repro.protocols.iec104 import codec as iec104_codec
        from repro.protocols.lib60870 import codec as lib60870_codec
        for model in _PIT:
            wire = _default_wire(model.name)
            assert iec104_codec.frame_kind(wire) == \
                lib60870_codec.frame_kind(wire)

    def test_non_iec104_targets_get_no_cross_stack_pair(self):
        assert make_oracle(get_target("libmodbus")).cross_stack is None
        assert make_oracle(get_target("lib60870")).cross_stack is not None


_BUDGET_MODEL = DataModel("budget", Block("frame", [
    Number("a", 1, default=1, values=(1, 2)),
    Number("tok", 1, default=0x68, token=True),
]))


class TestParseBudget:
    """``DataModel.parse`` calls per ``examine`` on a fresh oracle: one
    lenient pass settles a legal frame and a frame both paths reject;
    only a tolerated frame pays for the strict pass, and a strictly
    rejected repair for one more parse of the repaired bytes."""

    @pytest.mark.parametrize("model_name,frame,parses", [
        ("budget", "0168", 1),       # legal
        ("budget", "0100", 1),       # token mismatch: both reject
        ("budget", "0968", 2),       # constraint violation: tolerated
        ("budget", "01", 3),         # truncated; repaired to 01 68
        ("iec104.startdt", "680407000000", 1),
        ("iec104.startdt", "000407000000", 1),
        ("iec104.startdt", "6804070000", 3),
        ("iec104.interrogation", "680e0000000064010600010000000014", 1),
    ], ids=["legal", "both-reject", "tolerated", "repaired",
            "iec104-legal", "iec104-both-reject", "iec104-repaired",
            "iec104-i-frame"])
    def test_parses_per_examine(self, model_name, frame, parses,
                                monkeypatch):
        if model_name == "budget":
            oracle = DifferentialOracle(Pit("budget", [_BUDGET_MODEL]))
        else:
            oracle = make_oracle(_IEC104, _PIT)
        calls = []
        parse = DataModel.parse

        def counted(model, data, **options):
            calls.append(options)
            return parse(model, data, **options)

        monkeypatch.setattr(DataModel, "parse", counted)
        oracle.examine(bytes.fromhex(frame), model_name, 0)
        assert len(calls) == parses
        assert calls[0] == {"strict": False}


class TestDivergenceReportSurface:
    def _one_report(self):
        oracle = make_oracle(_IEC104, _PIT)
        wire = _default_wire("iec104.startdt")
        for cut in range(len(wire) - 1, 0, -1):
            findings = oracle.examine(wire[:cut], "iec104.startdt", 7)
            if findings:
                return findings[0]
        pytest.fail("no diverging truncation found")

    def test_duck_types_like_a_crash_report(self):
        report = self._one_report()
        assert report.dedup_key == (report.kind, report.site)
        assert report.summary_line().startswith(
            "SUMMARY: DifferentialOracle:")
        assert "DIVERGENCE" in report.render()
        assert not report.is_session

    def test_crash_database_deduplicates_divergences(self):
        report = self._one_report()
        database = CrashDatabase()
        assert database.add(report) is True
        assert database.add(report) is False
        assert database.unique_count() == 1

    def test_reproducer_script_replays_the_oracle(self, tmp_path):
        from repro.triage.reproducer import reproducer_script
        report = self._one_report()
        script = reproducer_script("iec104", report)
        assert "make_oracle" in script
        path = tmp_path / "replay_divergence.py"
        path.write_text(script)
        import subprocess
        import sys
        env = dict(os.environ)
        proc = subprocess.run([sys.executable, str(path)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestMinimizeDivergence:
    def test_minimization_preserves_the_dedup_key(self):
        oracle = make_oracle(_IEC104, _PIT)
        wire = _default_wire("iec104.interrogation")
        report = None
        for cut in range(len(wire) - 1, 0, -1):
            findings = [f for f in
                        oracle.examine(wire[:cut], "iec104.interrogation", 0)
                        if f.kind == KIND_PARSE]
            if findings:
                report = findings[0]
                break
        assert report is not None
        result = minimize_crash(_IEC104, report)
        assert result.confirmed
        assert len(result.minimized) <= len(result.original)
        checker = CrashChecker(_IEC104, report)
        assert checker.crash_step(
            [TraceStep(report.model_name, result.minimized)]) == 0
        assert result.report is not None
        assert result.report.dedup_key == report.dedup_key

    def test_non_diverging_frame_is_unconfirmed(self):
        from repro.channel import DivergenceReport
        report = DivergenceReport(
            kind=KIND_PARSE, site="iec104.startdt:bogus",
            detail="", packet=_default_wire("iec104.startdt"),
            model_name="iec104.startdt", execution_index=0)
        result = minimize_crash(_IEC104, report)
        assert not result.confirmed
        assert result.minimized == report.packet


# -- acceptance: the ISSUE gates ---------------------------------------------

def _config(**overrides):
    base = dict(budget_hours=24.0, max_executions=400, record_every=10,
                checkpoint_every=50, sessions=True)
    base.update(overrides)
    return CampaignConfig(**base)


def _signature(result):
    return (
        result.series, result.final_paths, result.final_edges,
        result.executions,
        sorted(report.dedup_key for report in result.unique_crashes),
        sorted(report.dedup_key for report in result.unique_divergences),
        result.crash_times, result.stats, result.path_hashes,
    )


def _edges(engine):
    return {index for index, seen in
            enumerate(engine.seed_pool.coverage.virgin) if seen}


class TestFaultedCampaignAcceptance:
    def test_faults_reach_edges_a_clean_campaign_cannot(self):
        clean_engine = make_engine("peach-star", _IEC104, 7, _config())
        clean = run_campaign("peach-star", _IEC104, seed=7,
                             config=_config(), engine=clean_engine)
        faulted_config = _config(channel_faults=0.25)
        faulted_engine = make_engine("peach-star", _IEC104, 7,
                                     faulted_config)
        faulted = run_campaign("peach-star", _IEC104, seed=7,
                               config=faulted_config,
                               engine=faulted_engine)
        assert faulted.stats["channel_faults"] > 0
        assert clean.stats["channel_faults"] == 0
        only_with_faults = _edges(faulted_engine) - _edges(clean_engine)
        assert only_with_faults, (
            "a faulted same-budget campaign reached no edge the clean "
            "one missed")

    def test_divergences_found_persisted_and_resumed_bit_identically(
            self, tmp_path):
        config = _config(channel_faults=0.25,
                         workspace=str(tmp_path / "full"))
        full = run_campaign("peach-star", _IEC104, seed=11, config=config)
        strict_lenient = [report for report in full.unique_divergences
                          if report.oracle == "strict-lenient"]
        assert strict_lenient, "no strict-vs-lenient divergence found"
        assert full.stats["divergences_total"] >= len(full.unique_divergences)

        # persisted: the workspace carries every unique finding,
        # crashes first, then divergences
        stored = CampaignWorkspace(str(tmp_path / "full")) \
            .load_crash_reports()
        crashes = len(full.unique_crashes)
        assert sorted(r.dedup_key for r in stored[:crashes]) == \
            sorted(r.dedup_key for r in full.unique_crashes)
        assert sorted(r.dedup_key for r in stored[crashes:]) == \
            sorted(r.dedup_key for r in full.unique_divergences)
        assert all(getattr(r, "oracle", None) is not None
                   for r in stored[crashes:])

        # kill mid-run (not on a checkpoint multiple), then resume:
        # the finished campaign must be bit-identical
        killed_dir = str(tmp_path / "killed")
        killed = run_campaign(
            "peach-star", _IEC104, seed=11,
            config=_config(channel_faults=0.25, workspace=killed_dir),
            stop_after_executions=173)
        assert killed is None
        resumed = resume_campaign(killed_dir)
        assert _signature(resumed) == _signature(full)
        assert sorted(r.packet for r in resumed.unique_divergences) == \
            sorted(r.packet for r in full.unique_divergences)

        # triaged: bucketed, minimized through the oracle, reproducer
        # exported next to the crashes'
        out_dir = tmp_path / "triage"
        triage = triage_reports(_IEC104, full.unique_divergences,
                                out_dir=str(out_dir), jobs=1)
        assert triage.crashes
        assert all(crash.minimization is not None
                   and crash.minimization.confirmed
                   for crash in triage.crashes)
        exported = list(out_dir.glob("*.py"))
        assert exported, "no divergence reproducer was exported"
