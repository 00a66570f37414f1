"""Response-learned state machines: classifier, automaton, campaigns.

The PR 5 acceptance gates live here:

* **differential** — on the three PR 4 targets a seeded
  ``--learn-states`` campaign recovers an automaton whose reachable
  state set covers the hand-written model's states (every hand state's
  entry behaviour class is a learned state), and on IEC 104 it reaches
  the same STARTDT-gated session-only edges the PR 4 acceptance pin
  uses;
* **zero-modelling coverage** — on lib60870, which had no hand-written
  state model before this PR, a seeded learning campaign reaches
  state-gated edges a same-budget single-packet campaign cannot reach
  by construction;
* **determinism** — same seed + same target => bit-identical learned
  automaton and campaign results, including a mid-trace kill/resume
  (one landing inside the bootstrap-probe phase) and a 2-shard
  learning fleet.
"""

import json
import os
import random

import pytest

from repro.core import (
    CampaignConfig, resume_campaign, resume_fleet, run_campaign, run_fleet,
)
from repro.core.campaign import make_engine
from repro.protocols import PROTOCOLS_PATH_PREFIX, get_target
from repro.runtime.instrument import make_line_collector
from repro.runtime.target import Target
from repro.state import (
    LearnedStateModel, ResponseClassifier, TraceBinder, TraceStep,
    apply_pins, binding_hints, decode_trace, is_trace_blob,
)
from repro.state.learner import OVERFLOW_STATE, SILENT_STATE
from repro.store import CampaignWorkspace

#: the targets whose hand-written models the learner is diffed against
DIFFERENTIAL_TARGETS = ("iec104", "libmodbus", "opendnp3")


def _learn_config(**overrides):
    base = dict(budget_hours=24.0, max_executions=700, record_every=10,
                checkpoint_every=50, learn_states=True)
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


def _learned_engine(spec, seed, config):
    """Run a learning campaign and hand back its engine (for the
    automaton and the virgin coverage map)."""
    engine = make_engine("peach-star", spec, seed, config)
    run_campaign("peach-star", spec, seed=seed, config=config,
                 engine=engine)
    return engine


def _hand_entry_labels(spec, seed=0x5E55, walk_steps=48):
    """hand state -> feature labels observed when *entering* it.

    Drives a seeded default-packet walk over the hand-written state
    model (pins applied, bindings live) until every state has been
    entered, classifying each response with the learner's classifier —
    the ground-truth behaviour class of each hand state.
    """
    state_model = spec.make_state_model()
    pit = spec.make_pit()
    classifier = ResponseClassifier(pit)
    rng = random.Random(seed)
    steps, entered = [], []
    state = state_model.initial
    names = {s.name for s in state_model.states()}
    for _ in range(walk_steps):
        transition = state_model.pick_transition(state, rng)
        model = pit.model(transition.send)
        tree = model.build_default()
        if transition.pin:
            tree, packet = apply_pins(model, tree, transition.pin)
        else:
            packet = model.to_wire(tree)
        steps.append(TraceStep(
            transition.send, packet, state=transition.to,
            bind=dict(transition.bind), capture=dict(transition.capture),
            expect=transition.expect))
        entered.append(transition.to)
        state = transition.to
        if set(entered) == names and len(steps) >= 10:
            break
    assert set(entered) == names, \
        f"walk never entered {names - set(entered)} on {spec.name}"
    binder = TraceBinder(pit, steps)
    target = Target(spec.make_server, None)
    result = target.run_trace(
        [(step.packet, step.model_name) for step in steps], binder)
    assert result.steps_executed == len(steps)
    labels = {}
    for index in range(result.steps_executed):
        label = classifier.classify(result.responses[index],
                                    steps[index].model_name)
        labels.setdefault(entered[index], set()).add(label)
    return labels


def _session_only_edges(spec, stopdt_model, follower_models):
    """Edges only a stop-then-send session can reach (directed)."""
    pit = spec.make_pit()
    stopdt = pit.model(stopdt_model).build_bytes()
    followers = tuple(pit.model(name).build_bytes()
                      for name in follower_models)
    collector = make_line_collector((PROTOCOLS_PATH_PREFIX,))
    target = Target(spec.make_server, collector)
    single_union = set()
    for packet in (stopdt,) + followers:
        single_union |= set(target.run(packet).coverage.journal)
    session_edges = set()
    for follower in followers:
        trace = target.run_trace([(stopdt, None), (follower, None)])
        session_edges |= set(trace.coverage.journal)
    return session_edges - single_union


class TestResponseClassifier:
    def test_silent_and_raw_classes(self):
        pit = get_target("iec104").make_pit()
        classifier = ResponseClassifier(pit)
        assert classifier.classify(None, "iec104.interrogation") == \
            SILENT_STATE
        # a reply with no feature leaves under any reading (raw_asdu
        # models the ASDU as an opaque blob) gets a bounded raw-shape
        # label; unknown request kinds (foreign imports) too
        label = classifier.classify(b"\xde\xad\xbe\xef" * 4,
                                    "iec104.raw_asdu")
        assert label.startswith("raw[")
        assert classifier.classify(b"\xde\xad\xbe\xef" * 4,
                                   "no.such.model") == label

    def test_legal_reply_carries_type_and_reason_leaves(self):
        spec = get_target("iec104")
        pit = spec.make_pit()
        classifier = ResponseClassifier(pit)
        target = Target(spec.make_server, None)
        reply = target.run(
            pit.model("iec104.interrogation").build_bytes()).response
        label = classifier.classify(reply, "iec104.interrogation")
        assert "type_id=100" in label and "cot=7" in label

    def test_reply_read_through_request_model_lenient_tokens(self):
        """U-frame confirms are no request shape: the lenient-token
        read through the request's own model surfaces the confirm
        function code as the feature."""
        spec = get_target("iec104")
        pit = spec.make_pit()
        classifier = ResponseClassifier(pit)
        target = Target(spec.make_server, None)
        stop_con = target.run(pit.model("iec104.stopdt").build_bytes())
        start_con = target.run(pit.model("iec104.startdt").build_bytes())
        stopped = classifier.classify(stop_con.response, "iec104.stopdt")
        started = classifier.classify(start_con.response, "iec104.startdt")
        assert stopped == "~u_function=35"   # STOPDT con 0x23
        assert started == "~u_function=11"   # STARTDT con 0x0B
        assert stopped != started

    def test_modbus_exception_feature_is_the_flagged_function(self):
        spec = get_target("libmodbus")
        pit = spec.make_pit()
        classifier = ResponseClassifier(pit)
        target = Target(spec.make_server, None)
        # an unsupported function code draws an exception response
        packet = bytearray(
            pit.model("modbus.read_holding_registers").build_bytes())
        packet[7] = 0x55
        reply = target.run(bytes(packet)).response
        label = classifier.classify(reply, "modbus.read_holding_registers")
        # the coarse raw_pdu model parses the exception frame legally,
        # so the label is the canonical (un-tilded) reading
        assert label == f"function={0x55 | 0x80}"

    def test_dnp3_iin_octets_become_features(self):
        """The IIN reason octets land in the request model's object
        header leaves; a legal-but-featureless catch-all parse must not
        hide them."""
        spec = get_target("opendnp3")
        pit = spec.make_pit()
        classifier = ResponseClassifier(pit)
        target = Target(spec.make_server, None)
        read = pit.model("dnp3.read_class_data").build_bytes()
        first = target.run(read)
        label = classifier.classify(first.response, "dnp3.read_class_data")
        assert "app_function=129" in label
        assert "group=128" in label  # IIN1 device-restart bit


class TestLearnedStateModel:
    def test_observation_grows_states_and_edges(self):
        spec = get_target("iec104")
        pit = spec.make_pit()
        learner = LearnedStateModel(pit)
        steps = [
            TraceStep("iec104.stopdt",
                      pit.model("iec104.stopdt").build_bytes()),
            TraceStep("iec104.interrogation",
                      pit.model("iec104.interrogation").build_bytes()),
        ]
        target = Target(spec.make_server, None)
        result = target.run_trace(
            [(s.packet, s.model_name) for s in steps])
        learner.observe(steps, result)
        labels = learner.state_labels()
        assert "~u_function=35" in labels
        assert SILENT_STATE in labels       # the gated I-frame drop
        # steps were re-annotated with the observed states
        assert steps[0].state == "~u_function=35"
        assert steps[1].state == SILENT_STATE
        assert learner.learned_state_count == len(labels)

    def test_walks_follow_learned_edges_and_explore(self, rng):
        pit = get_target("iec104").make_pit()
        learner = LearnedStateModel(pit)
        model_names = {model.name for model in pit}
        # an empty automaton always explores with pit models
        for _ in range(8):
            transition = learner.pick_transition(learner.initial, rng)
            assert transition.send in model_names
        # unknown states (stale labels from imports) explore too
        assert learner.pick_transition("no-such-state", rng) is not None

    def test_snapshot_restore_round_trip_preserves_order(self):
        spec = get_target("iec104")
        pit = spec.make_pit()
        learner = LearnedStateModel(pit)
        target = Target(spec.make_server, None)
        for model_name in ("iec104.stopdt", "iec104.startdt",
                           "iec104.interrogation"):
            steps = [TraceStep(model_name,
                               pit.model(model_name).build_bytes())]
            learner.observe(steps, target.run_trace(
                [(s.packet, s.model_name) for s in steps]))
        snap = learner.snapshot()
        json.dumps(snap)  # must be pure JSON
        clone = LearnedStateModel(pit)
        clone.restore(snap)
        assert clone.snapshot() == snap
        assert clone.state_labels() == learner.state_labels()

    def test_state_cap_collapses_into_overflow(self, monkeypatch):
        monkeypatch.setattr(LearnedStateModel, "MAX_STATES", 3)
        pit = get_target("iec104").make_pit()
        learner = LearnedStateModel(pit)
        for index in range(8):
            label = learner._intern(f"class-{index}")
            assert label == f"class-{index}" or label == OVERFLOW_STATE
        assert learner.learned_state_count <= 3 + 1  # cap + overflow

    def test_binding_hints_come_from_the_hand_model(self):
        spec = get_target("iec104")
        hints = binding_hints(spec.make_state_model())
        bind, expect, capture = hints["iec104.interrogation"]
        assert bind == {"recv_seq_lo": "peer_send_lo",
                        "recv_seq_hi": "peer_send_hi"}
        assert expect == "iec104.interrogation"
        assert capture == {"peer_send_lo": "send_seq_lo",
                           "peer_send_hi": "send_seq_hi"}
        assert binding_hints(None) == {}

    def test_probe_transitions_play_the_pit_once(self):
        pit = get_target("iec104").make_pit()
        learner = LearnedStateModel(pit)
        played = []
        while True:
            chunk = learner.probe_transitions(6)
            if chunk is None:
                break
            assert 1 <= len(chunk) <= 6
            played.extend(t.send for t in chunk)
        assert played == [model.name for model in pit]
        assert learner.probe_transitions(6) is None


class TestLearnedCampaigns:
    def test_sessions_and_learn_states_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            make_engine("peach-star", get_target("iec104"), 0,
                        _learn_config(sessions=True))

    def test_unappliable_pins_leave_tree_and_packet_consistent(self):
        """apply_pins must not half-apply: when the Relation/Fixup
        rebuild rejects a pin set, the leaf edits are reverted so the
        returned tree still matches the returned wire bytes."""
        pit = get_target("libiccp").make_pit()
        model = pit.model("iccp.associate")
        tree = model.build_default()
        original = model.to_wire(tree)
        node = tree.find("blt_value")
        before = node.value
        # a value build() cannot encode: forces the failure path
        bad_tree, packet = apply_pins(model, tree, {"blt_value": object()})
        assert packet == original
        assert bad_tree.find("blt_value").value == before

    def test_learn_states_campaign_is_deterministic(self):
        spec = get_target("lib60870")
        one = _learned_engine(spec, 11, _learn_config())
        two = _learned_engine(spec, 11, _learn_config())
        assert one.state_model.snapshot() == two.state_model.snapshot()
        assert one.stats.as_dict() == two.stats.as_dict()
        assert [s.path_hash for s in one.seed_pool.seeds] == \
            [s.path_hash for s in two.seed_pool.seeds]
        assert one.stats.learned_states >= 2
        assert one.stats.traces > 0

    def test_corpus_entries_are_learned_traces(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        spec = get_target("libiec61850")
        run_campaign("peach-star", spec, seed=11,
                     config=_learn_config(workspace=ws_dir,
                                          max_executions=400))
        workspace = CampaignWorkspace(ws_dir)
        packets = workspace.corpus_packets()
        assert packets
        for blob in packets:
            assert is_trace_blob(blob)
            assert decode_trace(blob)
        lines = workspace.read_coverage_journal(0)[1]
        assert all(line["model_name"] == "session:iec61850.learned"
                   for line in lines)

    @pytest.mark.parametrize("target_name", DIFFERENTIAL_TARGETS)
    def test_learned_automaton_covers_hand_written_states(self,
                                                          target_name):
        """Differential gate: every hand-written state's entry
        behaviour class is a state of the learned automaton (and the
        automaton is at least as fine-grained)."""
        spec = get_target(target_name)
        entry_labels = _hand_entry_labels(spec)
        hand_states = {s.name for s in spec.make_state_model().states()}
        assert set(entry_labels) == hand_states
        engine = _learned_engine(spec, 11,
                                 _learn_config(max_executions=900))
        learned = set(engine.state_model.state_labels())
        assert len(learned) >= len(hand_states)
        for hand_state, labels in entry_labels.items():
            assert labels & learned, (
                f"{target_name}: no entry behaviour of hand state "
                f"{hand_state!r} ({sorted(labels)}) was learned "
                f"({sorted(learned)})")

    def test_learned_campaign_reaches_the_pr4_startdt_gated_edges(self):
        """The learner reaches the same STARTDT-gated session-only
        edges on IEC 104 that the PR 4 hand-model acceptance pin uses —
        with zero modelling effort."""
        spec = get_target("iec104")
        session_only = _session_only_edges(
            spec, "iec104.stopdt",
            ("iec104.interrogation", "iec104.single_command"))
        assert session_only
        engine = _learned_engine(spec, 11,
                                 _learn_config(max_executions=800))
        virgin = engine.seed_pool.coverage.virgin
        assert any(virgin[index] for index in session_only), \
            "the learning campaign must discover a session-only path"

    def test_acceptance_lib60870_learned_beats_single_packet(self):
        """PR 5 acceptance gate: on lib60870 — no hand-written model
        existed before this PR — a seeded --learn-states campaign
        reaches the STOPDT-gated drop edges that a same-budget
        single-packet campaign cannot reach *by construction*
        (``reset()`` re-arms the data-transfer gate)."""
        spec = get_target("lib60870")
        session_only = _session_only_edges(
            spec, "lib60870.stopdt",
            ("lib60870.interrogation", "lib60870.single_command"))
        assert session_only, "stopdt+I-frame must open new edges"

        engine = _learned_engine(spec, 11,
                                 _learn_config(max_executions=900))
        virgin = engine.seed_pool.coverage.virgin
        assert any(virgin[index] for index in session_only), \
            "the learning campaign must discover a state-gated path"

        single_config = CampaignConfig(budget_hours=24.0,
                                       max_executions=900,
                                       record_every=10)
        single = make_engine("peach-star", spec, 11, single_config)
        run_campaign("peach-star", spec, seed=11, config=single_config,
                     engine=single)
        single_virgin = single.seed_pool.coverage.virgin
        assert not any(single_virgin[index] for index in session_only), \
            "single-packet mode must not reach the state-gated edges"


class TestLearnedResume:
    @pytest.mark.parametrize("target_name,stop_after", [
        ("lib60870", 17),    # kill lands inside the bootstrap probes
        ("lib60870", 237),   # kill lands mid-trace, automaton grown
        ("libiccp", 333),    # crashing target, session crash metadata
    ])
    def test_killed_learning_campaign_resumes_bit_identical(
            self, tmp_path, target_name, stop_after):
        spec = get_target(target_name)
        full_dir = str(tmp_path / "full")
        killed_dir = str(tmp_path / "killed")
        full = run_campaign("peach-star", spec, seed=7,
                            config=_learn_config(workspace=full_dir))
        killed = run_campaign("peach-star", spec, seed=7,
                              config=_learn_config(workspace=killed_dir),
                              stop_after_executions=stop_after)
        assert killed is None
        resumed = resume_campaign(killed_dir)
        assert _signature(resumed) == _signature(full)
        # the learned automaton itself is bit-identical, checkpoint
        # included (kill/resume may not perturb learning)
        with open(os.path.join(full_dir, "state.json")) as handle:
            full_learner = json.load(handle)["learner"]
        with open(os.path.join(killed_dir, "state.json")) as handle:
            killed_learner = json.load(handle)["learner"]
        assert full_learner == killed_learner
        assert CampaignWorkspace(killed_dir).corpus_path_hashes() == \
            CampaignWorkspace(full_dir).corpus_path_hashes()

    def test_learning_fleet_resumes_bit_identical(self, tmp_path):
        spec = get_target("lib60870")
        config = _learn_config(max_executions=400, record_every=25,
                               checkpoint_every=100)
        full = run_fleet("peach-star", spec, shards=2,
                         workspace_dir=str(tmp_path / "full"), seed=5,
                         sync_every=150, config=config, max_workers=1)
        assert sum(full.imported_seeds) > 0, \
            "shards must exchange learned traces at the sync barrier"
        killed_dir = str(tmp_path / "killed")
        killed = run_fleet("peach-star", spec, shards=2,
                           workspace_dir=killed_dir, seed=5,
                           sync_every=150, config=config, max_workers=1,
                           kill_shards_at_executions=220)
        assert killed is None
        resumed = resume_fleet(killed_dir, max_workers=1)
        assert resumed.merged_path_hashes == full.merged_path_hashes
        assert [_signature(r) for r in resumed.shard_results] == \
            [_signature(r) for r in full.shard_results]
        for shard in range(2):
            ws = CampaignWorkspace(
                os.path.join(killed_dir, "shards", str(shard)))
            for blob in ws.corpus_packets():
                assert is_trace_blob(blob)
