"""Stateful session fuzzing: traces, binder, engine, resume, triage.

The subsystem's acceptance gates live here:

* a seeded ``--sessions`` campaign on IEC 104 reaches coverage that is
  **unreachable in single-packet mode by construction** (the STARTDT
  gate is re-armed by ``reset()`` before every single-packet run);
* a killed session campaign (the kill landing mid-trace) resumes
  bit-identical, and so does a session fleet;
* session triage minimizes by dropping whole steps before shrinking the
  crashing step, and its reproducer replays the full trace.
"""

import os
import subprocess
import sys

import pytest

from dataclasses import replace

from repro.core import (
    CampaignConfig, resume_campaign, resume_fleet, run_campaign, run_fleet,
)
from repro.core.campaign import make_engine
from repro.protocols import (
    PROTOCOLS_PATH_PREFIX, TARGET_NAMES, all_targets, get_target,
)
from repro.runtime.instrument import make_line_collector
from repro.runtime.target import Target
from repro.sanitizer.errors import SimSegv
from repro.state import (
    StateModelError, TraceBinder, TraceStep, decode_trace, encode_trace,
    is_trace_blob, trace_model_name,
)
from repro.state.model import State, StateModel, Transition
from repro.store import CampaignWorkspace
from repro.triage import CrashChecker, minimize_crash, triage_reports

#: since PR 5 every target ships a hand-written state model
SESSION_TARGETS = TARGET_NAMES


def _session_config(**overrides):
    base = dict(budget_hours=24.0, max_executions=700, record_every=10,
                checkpoint_every=50, sessions=True)
    base.update(overrides)
    return CampaignConfig(**base)


def _signature(result):
    return (
        result.series,
        result.final_paths,
        result.final_edges,
        result.executions,
        sorted(report.dedup_key for report in result.unique_crashes),
        result.crash_times,
        result.stats,
        result.path_hashes,
    )


def _modbus_crash_trace():
    """[valid read, valid read, seeded-UAF write]: crashes at step 2."""
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


class TestTraceCodec:
    def test_encode_decode_round_trip(self):
        steps = [
            TraceStep("iec104.stopdt", b"\x68\x04\x13\x00\x00\x00",
                      state="stopped"),
            TraceStep("iec104.interrogation", b"\x68\x0e" + bytes(12),
                      state="stopped",
                      bind={"recv_seq_lo": "peer_send_lo"},
                      capture={"peer_send_lo": "send_seq_lo"},
                      expect="iec104.interrogation"),
        ]
        blob = encode_trace(steps)
        assert is_trace_blob(blob)
        decoded = decode_trace(blob)
        assert encode_trace(decoded) == blob
        assert [s.model_name for s in decoded] == \
            [s.model_name for s in steps]
        assert decoded[1].bind == steps[1].bind
        assert decoded[1].capture == steps[1].capture
        assert decoded[1].expect == steps[1].expect
        assert decoded[0].state == "stopped"

    def test_packets_are_not_traces(self):
        assert not is_trace_blob(b"\x68\x04\x13\x00\x00\x00")
        assert not is_trace_blob(b"")

    def test_malformed_payloads_raise_trace_error_only(self):
        """Engine guards catch TraceError to skip foreign/corrupt corpus
        entries — nothing else may leak out of decode_trace."""
        from repro.state.trace import TraceError
        for blob in (
            b"\xff\xfe garbage",
            b'{"fmt": 99, "steps": []}',
            b'{"fmt": 1}',                             # no steps
            b'{"fmt": 1, "steps": [{}]}',              # step missing keys
            b'{"fmt": 1, "steps": [{"m": "x", "p": "zz"}]}',  # bad hex
            b'{"fmt": 1, "steps": 7}',                 # not a list
            b'{"fmt": 1, "steps": [4]}',               # not a dict
        ):
            with pytest.raises(TraceError):
                decode_trace(blob)

    def test_trace_model_name_prefix(self):
        assert trace_model_name("iec104.session") == "session:iec104.session"


class TestStateModels:
    @pytest.mark.parametrize("target_name", SESSION_TARGETS)
    def test_shipped_state_models_validate_against_pits(self, target_name):
        spec = get_target(target_name)
        state_model = spec.make_state_model()
        state_model.validate_against(spec.make_pit())

    def test_all_targets_support_sessions(self):
        supported = {spec.name for spec in all_targets()
                     if spec.supports_sessions}
        assert supported == set(SESSION_TARGETS) == set(TARGET_NAMES)

    def test_walks_stay_inside_declared_states(self, rng):
        state_model = get_target("iec104").make_state_model()
        names = {state.name for state in state_model.states()}
        state = state_model.initial
        for _ in range(64):
            transition = state_model.pick_transition(state, rng)
            assert transition is not None
            assert transition.to in names
            state = transition.to

    def test_inconsistent_declarations_raise(self):
        with pytest.raises(StateModelError):
            StateModel("bad", "missing",
                       (State("a", (Transition("m", "a"),)),))
        with pytest.raises(StateModelError):
            StateModel("bad", "a",
                       (State("a", (Transition("m", "nowhere"),)),))
        state_model = StateModel(
            "bad", "a", (State("a", (Transition("no.such.model", "a"),)),))
        with pytest.raises(StateModelError):
            state_model.validate_against(get_target("iec104").make_pit())


class TestSessionExecutor:
    def test_crash_attributed_to_its_step(self):
        steps = _modbus_crash_trace()
        target = Target(get_target("libmodbus").make_server, None)
        result = target.run_trace(
            [(s.packet, s.model_name) for s in steps])
        assert result.crashed
        assert result.crash_step == 2
        assert result.steps_executed == 3
        assert result.crash.dedup_key == \
            ("heap-use-after-free", "modbus.c:respond_exception_after_free")
        # the trace stops at the crash: a fourth step would not run
        assert len(result.responses) == 3

    def test_server_state_persists_across_steps(self):
        """STOPDT in step 0 leaves the gate closed for step 1 — the
        whole point of reset-at-trace-boundaries."""
        spec = get_target("iec104")
        pit = spec.make_pit()
        stopdt = pit.model("iec104.stopdt").build_bytes()
        interrogation = pit.model("iec104.interrogation").build_bytes()
        target = Target(spec.make_server, None)
        session = target.run_trace([(stopdt, None), (interrogation, None)])
        # stopped: the interrogation is dropped without a response
        assert session.responses[1] is None
        # single-packet: the same interrogation is answered
        assert target.run(interrogation).response is not None

    def test_trace_coverage_accumulates_across_steps(self):
        from repro.protocols import PROTOCOLS_PATH_PREFIX
        from repro.runtime.instrument import make_line_collector
        spec = get_target("iec104")
        pit = spec.make_pit()
        stopdt = pit.model("iec104.stopdt").build_bytes()
        testfr = pit.model("iec104.testfr").build_bytes()
        collector = make_line_collector((PROTOCOLS_PATH_PREFIX,))
        target = Target(spec.make_server, collector)
        trace = target.run_trace([(stopdt, None), (testfr, None)])
        single_stop = set(target.run(stopdt).coverage.journal)
        single_test = set(target.run(testfr).coverage.journal)
        assert set(trace.coverage.journal) == single_stop | single_test


class TestTraceBinder:
    def test_modbus_transaction_id_echoes_forward(self):
        spec = get_target("libmodbus")
        pit = spec.make_pit()
        packet = bytearray(
            pit.model("modbus.read_holding_registers").build_bytes())
        packet[0:2] = (7).to_bytes(2, "big")  # distinctive transaction id
        follow = pit.model("modbus.read_holding_registers").build_bytes()
        assert follow[0:2] != bytes((0, 7))
        steps = [
            TraceStep("modbus.read_holding_registers", bytes(packet),
                      capture={"txn": "transaction_id"},
                      expect="modbus.read_holding_registers"),
            TraceStep("modbus.read_holding_registers", follow,
                      bind={"transaction_id": "txn"}),
        ]
        binder = TraceBinder(pit, steps)
        target = Target(spec.make_server, None)
        result = target.run_trace(
            [(s.packet, s.model_name) for s in steps], binder)
        # the server echoed txn 7; the binder injected it into step 1
        assert result.sent[0][0:2] == bytes((0, 7))
        assert result.sent[1][0:2] == bytes((0, 7))

    def test_iec104_sequence_numbers_flow_back(self):
        spec = get_target("iec104")
        state_model = spec.make_state_model()
        pit = spec.make_pit()
        interrogation = pit.model("iec104.interrogation").build_bytes()
        transition = next(
            t for t in state_model.transitions_from("started")
            if t.send == "iec104.interrogation")
        steps = [
            TraceStep("iec104.interrogation", interrogation,
                      bind=dict(transition.bind), expect=transition.expect,
                      capture=dict(transition.capture))
            for _ in range(3)
        ]
        binder = TraceBinder(pit, steps)
        target = Target(spec.make_server, None)
        result = target.run_trace(
            [(s.packet, s.model_name) for s in steps], binder)
        assert result.steps_executed == 3
        # after two server I-frames the peer send sequence is nonzero
        # and the third request acknowledges it (stored packet says 0)
        assert steps[2].packet[4] == 0
        assert result.sent[2][4] != 0
        # the echoed value is exactly what the second response carried
        assert result.sent[2][4] == result.responses[1][2]

    def test_unparseable_packets_pass_through_untouched(self):
        spec = get_target("libmodbus")
        pit = spec.make_pit()
        steps = [TraceStep("modbus.read_holding_registers", b"\xff\x01",
                           bind={"transaction_id": "txn"})]
        binder = TraceBinder(pit, steps)
        binder.vars["txn"] = 9
        assert binder.prepare(0, b"\xff\x01") == b"\xff\x01"


class TestSessionCampaign:
    def test_sessions_need_a_state_model(self):
        # every bundled target now ships a model; an unmodelled target
        # (the zero-effort case state learning exists for) still fails
        # fast in hand-modelled session mode
        unmodelled = replace(get_target("libiccp"), make_state_model=None)
        with pytest.raises(ValueError, match="state model"):
            make_engine("peach-star", unmodelled, 0, _session_config())
        with pytest.raises(ValueError, match="peach-star"):
            make_engine("peach", get_target("iec104"), 0,
                        _session_config())
        # --learn-states lifts the requirement (it replaces --sessions;
        # the two flags together are rejected)
        engine = make_engine("peach-star", unmodelled, 0,
                             _session_config(sessions=False,
                                             learn_states=True))
        assert engine.state_model.learned_state_count == 0

    def test_session_campaign_is_deterministic(self):
        spec = get_target("iec104")
        one = run_campaign("peach-star", spec, seed=11,
                           config=_session_config())
        two = run_campaign("peach-star", spec, seed=11,
                           config=_session_config())
        assert _signature(one) == _signature(two)
        assert one.stats["traces"] > 0
        assert one.executions >= one.stats["traces"]

    def test_corpus_entries_are_encoded_traces(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        spec = get_target("iec104")
        run_campaign("peach-star", spec, seed=11,
                     config=_session_config(workspace=ws_dir,
                                            max_executions=400))
        workspace = CampaignWorkspace(ws_dir)
        packets = workspace.corpus_packets()
        assert packets
        for blob in packets:
            assert is_trace_blob(blob)
            steps = decode_trace(blob)
            assert steps
        lines = workspace.read_coverage_journal(0)[1]
        assert all(line["model_name"] == "session:iec104.session"
                   for line in lines)

    def test_session_campaign_reaches_single_packet_unreachable_paths(self):
        """The acceptance gate: a seeded --sessions campaign on IEC 104
        covers edges that single-packet mode cannot reach *by
        construction* (reset() re-arms the STARTDT gate), pinned against
        a directed experiment and a same-budget single-packet campaign.
        """
        spec = get_target("iec104")
        pit = spec.make_pit()
        stopdt = pit.model("iec104.stopdt").build_bytes()
        followers = (pit.model("iec104.interrogation").build_bytes(),
                     pit.model("iec104.single_command").build_bytes())
        from repro.protocols import PROTOCOLS_PATH_PREFIX
        from repro.runtime.instrument import make_line_collector
        collector = make_line_collector((PROTOCOLS_PATH_PREFIX,))
        target = Target(spec.make_server, collector)
        session_only = set()
        single_union = set()
        for packet in (stopdt,) + followers:
            single_union |= set(target.run(packet).coverage.journal)
        for follower in followers:
            trace = target.run_trace([(stopdt, None), (follower, None)])
            session_only |= set(trace.coverage.journal)
        session_only -= single_union
        assert session_only, "stopdt+I-frame must open new edges"

        config = _session_config(max_executions=800)
        engine = make_engine("peach-star", spec, 11, config)
        run_campaign("peach-star", spec, seed=11, config=config,
                     engine=engine)
        virgin = engine.seed_pool.coverage.virgin
        assert any(virgin[index] for index in session_only), \
            "the seeded session campaign must discover a session-only path"

        single_config = CampaignConfig(budget_hours=24.0,
                                       max_executions=800,
                                       record_every=10)
        single_engine = make_engine("peach-star", spec, 11, single_config)
        run_campaign("peach-star", spec, seed=11, config=single_config,
                     engine=single_engine)
        single_virgin = single_engine.seed_pool.coverage.virgin
        assert not any(single_virgin[index] for index in session_only), \
            "single-packet mode must not reach session-only edges"


class TestSessionResume:
    @pytest.mark.parametrize("target_name,stop_after", [
        ("iec104", 237),     # clean target, kill lands mid-trace
        ("libmodbus", 333),  # crashing target, session crash metadata
    ])
    def test_killed_session_campaign_resumes_bit_identical(
            self, tmp_path, target_name, stop_after):
        spec = get_target(target_name)
        full_dir = str(tmp_path / "full")
        killed_dir = str(tmp_path / "killed")
        full = run_campaign("peach-star", spec, seed=7,
                            config=_session_config(workspace=full_dir))
        # stop_after is neither a checkpoint multiple nor trace-aligned:
        # the kill lands mid-trace and resume must rewind to the last
        # checkpoint (itself at an arbitrary step count) and re-execute
        killed = run_campaign("peach-star", spec, seed=7,
                              config=_session_config(workspace=killed_dir),
                              stop_after_executions=stop_after)
        assert killed is None
        resumed = resume_campaign(killed_dir)
        assert _signature(resumed) == _signature(full)
        assert CampaignWorkspace(killed_dir).corpus_path_hashes() == \
            CampaignWorkspace(full_dir).corpus_path_hashes()

    def test_double_kill_still_converges(self, tmp_path):
        spec = get_target("iec104")
        full = run_campaign("peach-star", spec, seed=5,
                            config=_session_config(
                                workspace=str(tmp_path / "full")))
        killed_dir = str(tmp_path / "killed")
        assert run_campaign("peach-star", spec, seed=5,
                            config=_session_config(workspace=killed_dir),
                            stop_after_executions=123) is None
        assert resume_campaign(killed_dir,
                               stop_after_executions=391) is None
        resumed = resume_campaign(killed_dir)
        assert _signature(resumed) == _signature(full)

    def test_session_crashes_survive_the_workspace_round_trip(
            self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        spec = get_target("libmodbus")
        result = run_campaign(
            "peach-star", spec, seed=2,
            config=_session_config(workspace=ws_dir,
                                   max_executions=2500,
                                   checkpoint_every=200))
        assert result.unique_crashes, "seed 2 finds the seeded UAF"
        loaded = CampaignWorkspace(ws_dir).load_crash_reports()
        by_key = {report.dedup_key: report for report in loaded}
        for report in result.unique_crashes:
            clone = by_key[report.dedup_key]
            assert clone.trace == report.trace
            assert clone.crash_step == report.crash_step
            assert decode_trace(clone.trace)


class TestSessionFleet:
    def test_session_fleet_syncs_traces_and_resumes_bit_identical(
            self, tmp_path):
        spec = get_target("iec104")
        config = _session_config(max_executions=500, record_every=25,
                                 checkpoint_every=100)
        full = run_fleet("peach-star", spec, shards=3,
                         workspace_dir=str(tmp_path / "full"), seed=5,
                         sync_every=150, config=config, max_workers=1)
        assert sum(full.imported_seeds) > 0, \
            "shards must exchange traces at the sync barrier"
        killed_dir = str(tmp_path / "killed")
        killed = run_fleet("peach-star", spec, shards=3,
                           workspace_dir=killed_dir, seed=5,
                           sync_every=150, config=config, max_workers=1,
                           kill_shards_at_executions=220)
        assert killed is None
        resumed = resume_fleet(killed_dir, max_workers=1)
        assert resumed.merged_path_hashes == full.merged_path_hashes
        assert [_signature(r) for r in resumed.shard_results] == \
            [_signature(r) for r in full.shard_results]
        # imported entries decode as traces on every shard
        for shard in range(3):
            ws = CampaignWorkspace(
                os.path.join(killed_dir, "shards", str(shard)))
            for blob in ws.corpus_packets():
                assert is_trace_blob(blob)


class _ArmedServer:
    """Faults on a frame holding ``b"fire"``, but only once an
    ``b"arm"`` frame has armed the session: a crash that needs its
    prefix."""

    def __init__(self):
        self.armed = False

    def handle_packet(self, heap, data):
        if data == b"arm":
            self.armed = True
        elif self.armed and b"fire" in data:
            raise SimSegv("scripted:armed-fire")
        return b"ok"

    def reset(self):
        self.armed = False


class _ArmedSpec:
    """A target whose one crash is state-gated.  It has no data models,
    so ddmin alone shrinks the firing step."""

    name = "armed"
    make_server = _ArmedServer
    make_pit = list


class TestSessionTriage:
    def _crash_report(self, steps, spec=None):
        spec = spec or get_target("libmodbus")
        result = Target(
            spec.make_server, make_line_collector((PROTOCOLS_PATH_PREFIX,))
        ).run_trace([(step.packet, step.model_name) for step in steps],
                    TraceBinder(spec.make_pit(), steps))
        assert result.crashed
        report = result.crash
        report.trace = encode_trace(steps)
        report.crash_step = result.crash_step
        return spec, report

    def test_minimize_drops_steps_then_shrinks_the_crasher(self):
        steps = _modbus_crash_trace()
        spec, report = self._crash_report(steps)
        minimization = minimize_crash(spec, report)
        assert minimization.confirmed
        assert minimization.reduced
        minimized = decode_trace(minimization.minimized)
        # the two benign reads are droppable; the UAF needs one packet
        assert len(minimized) == 1
        assert len(minimized[0].packet) < len(steps[2].packet)
        assert minimization.report is not None
        assert minimization.report.dedup_key == report.dedup_key
        assert minimization.report.trace == minimization.minimized

    def test_prefix_dependent_crash_keeps_its_prefix(self):
        """Minimization never returns a trace that no longer reproduces.

        The libmodbus UAF needs no prefix, so this row pins only that;
        the armed row below pins a prefix step the crash needs."""
        steps = _modbus_crash_trace()
        spec, report = self._crash_report(steps)
        minimization = minimize_crash(spec, report)
        checker = CrashChecker(spec, report)
        assert checker.crash_step(
            decode_trace(minimization.minimized)) is not None

    def test_crash_that_needs_its_prefix_keeps_the_arming_step(self):
        """Step dropping removes the noise around the arming step but
        never the arming step itself, and the firing step shrinks."""
        steps = [TraceStep("noise", b"hello"), TraceStep("arm", b"arm"),
                 TraceStep("noise", b"world"),
                 TraceStep("fire", b"..fire..")]
        spec, report = self._crash_report(steps, _ArmedSpec)
        assert report.crash_step == 3
        minimization = minimize_crash(spec, report)
        assert minimization.confirmed
        minimized = decode_trace(minimization.minimized)
        assert [step.packet for step in minimized] == [b"arm", b"fire"]
        assert CrashChecker(spec, report).crash_step(minimized) == 1
        assert minimization.report.dedup_key == report.dedup_key
        assert minimization.report.crash_step == 1

    def test_triage_pipeline_routes_session_crashes(self, tmp_path):
        steps = _modbus_crash_trace()
        spec, report = self._crash_report(steps)
        out_dir = str(tmp_path / "repro")
        triage = triage_reports(spec, [report], out_dir=out_dir, jobs=1)
        assert len(triage.crashes) == 1
        crash = triage.crashes[0]
        assert crash.minimization.reduced
        # the exported .bin is the minimized encoded trace
        with open(crash.packet_path, "rb") as handle:
            blob = handle.read()
        assert is_trace_blob(blob)
        assert blob == crash.minimization.minimized
        with open(crash.script_path, encoding="utf-8") as handle:
            script = handle.read()
        assert "decode_trace" in script and "run_trace" in script

    def test_exported_session_reproducer_replays(self, tmp_path):
        steps = _modbus_crash_trace()
        spec, report = self._crash_report(steps)
        out_dir = str(tmp_path / "repro")
        triage = triage_reports(spec, [report], out_dir=out_dir, jobs=1)
        script_path = triage.crashes[0].script_path
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, script_path],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "heap-use-after-free" in proc.stdout
