"""Cross-protocol conformance matrix: one suite, all six stacks.

Before this matrix only a subset of the protocols had direct codec
tests; these invariants now run uniformly over every data model of
every bundled pit (modbus, dnp3, iec104, iec61850, iccp, lib60870):

* **wire round-trip** — ``parse(to_wire(tree))`` reproduces the wire
  bytes bit-for-bit, and so does rebuilding the parsed tree through the
  Relation/Fixup pipeline (the repair path donor splicing relies on);
* **truncation tolerance** — ``parse(strict=False)`` never raises on a
  truncated packet, for every cut point of every model (the triage
  subsystem cracks crashing mutants through this path);
* **fuzzability** — a short seeded Peach* campaign against the bundled
  server finds at least one path without the harness failing;
* **trace round-trip** — for every target (since PR 5 **all six** ship
  a session state model), a default-packet walk over the whole machine
  encodes/decodes bit-identically, every step parses strictly under
  its model (transition pins included), and the trace replays through
  the session executor with bindings applied.
"""

import random

import pytest

from repro.channel import FaultingChannel
from repro.core import (
    CampaignConfig, make_engine, resume_campaign, run_campaign,
)
from repro.core.fixup_engine import TreeEchoProvider
from repro.protocols import TARGET_NAMES, all_targets, get_target
from repro.runtime.target import Target
from repro.state import (
    TraceBinder, TraceStep, apply_pins, decode_trace, encode_trace,
)

#: one pit per target, built once — model construction is pure
_PITS = {spec.name: spec.make_pit() for spec in all_targets()}


def _models():
    """Every (target, model) pair of the evaluation, as test ids."""
    params = []
    for name in TARGET_NAMES:
        for model in _PITS[name]:
            params.append(pytest.param(name, model.name,
                                       id=f"{name}-{model.name}"))
    return params


@pytest.mark.parametrize("target_name,model_name", _models())
class TestWireRoundTrip:
    def test_parse_reproduces_wire_bit_for_bit(self, target_name,
                                               model_name):
        model = _PITS[target_name].model(model_name)
        wire = model.to_wire(model.build_default())
        parsed = model.parse(wire)
        assert model.to_wire(parsed) == wire

    def test_relation_fixup_rebuild_is_bit_identical(self, target_name,
                                                     model_name):
        """The repair pipeline must be a fixpoint on legal packets:
        parse, then rebuild through build()'s relation/fixup passes."""
        model = _PITS[target_name].model(model_name)
        wire = model.to_wire(model.build_default())
        parsed = model.parse(wire)
        rebuilt = model.build(TreeEchoProvider(parsed))
        assert model.to_wire(rebuilt) == wire

    def test_fixups_verify_on_default_packet(self, target_name,
                                             model_name):
        model = _PITS[target_name].model(model_name)
        wire = model.to_wire(model.build_default())
        model.parse(wire, verify_fixups=True)  # must not raise


@pytest.mark.parametrize("target_name,model_name", _models())
def test_lenient_parse_never_raises_on_truncation(target_name,
                                                  model_name):
    """Every prefix of a legal packet yields a best-effort InsTree."""
    model = _PITS[target_name].model(model_name)
    wire = model.to_wire(model.build_default())
    for cut in range(len(wire)):
        tree = model.parse(wire[:cut], strict=False)
        assert tree.model_name == model.name


SESSION_TARGETS = tuple(spec.name for spec in all_targets()
                        if spec.supports_sessions)


def test_every_target_ships_a_state_model():
    """PR 5 closed the modelling gap: the trace round-trip rows below
    run for the full evaluation set, not a subset."""
    assert SESSION_TARGETS == TARGET_NAMES


def _default_walk(spec, seed: int = 0x5E55):
    """A default-packet trace touching every state of the state model.

    Transition pins are applied exactly as the session engine applies
    them (through the Relation/Fixup rebuild), so the walk actually
    drives the machine — e.g. the ICCP bad-bilateral-table associate.
    """
    state_model = spec.make_state_model()
    pit = _PITS[spec.name]
    rng = random.Random(seed)
    steps = []
    state = state_model.initial
    visited = {state}
    for _ in range(32):
        transition = state_model.pick_transition(state, rng)
        model = pit.model(transition.send)
        tree = model.build_default()
        if transition.pin:
            tree, packet = apply_pins(model, tree, transition.pin)
        else:
            packet = model.to_wire(tree)
        steps.append(TraceStep(
            model_name=transition.send, packet=packet,
            state=transition.to, bind=dict(transition.bind),
            capture=dict(transition.capture), expect=transition.expect))
        state = transition.to
        visited.add(state)
        if len(visited) == len(state_model.states()) and len(steps) >= 6:
            break
    assert len(visited) == len(state_model.states()), \
        f"walk never left {visited} on {spec.name}"
    return steps


@pytest.mark.parametrize("target_name", SESSION_TARGETS)
class TestTraceRoundTrip:
    def test_state_model_references_resolve(self, target_name):
        spec = get_target(target_name)
        spec.make_state_model().validate_against(_PITS[target_name])

    def test_default_walk_encodes_bit_identically(self, target_name):
        steps = _default_walk(get_target(target_name))
        blob = encode_trace(steps)
        assert encode_trace(decode_trace(blob)) == blob

    def test_every_step_parses_strictly_under_its_model(self, target_name):
        pit = _PITS[target_name]
        for step in _default_walk(get_target(target_name)):
            model = pit.model(step.model_name)
            assert model.to_wire(model.parse(step.packet)) == step.packet

    def test_default_walk_replays_through_the_session_executor(
            self, target_name):
        spec = get_target(target_name)
        steps = _default_walk(spec)
        binder = TraceBinder(_PITS[target_name], steps)
        target = Target(spec.make_server, None)
        result = target.run_trace(
            [(step.packet, step.model_name) for step in steps], binder)
        # default packets never fault a bug-free walk... except through
        # seeded sites, which would be a typed crash — not a harness
        # escape; what must hold is that every step executed
        assert result.steps_executed == len(steps) or result.crashed
        # bound packets still parse under their models after binding
        pit = _PITS[target_name]
        for step, wire in zip(steps, result.sent):
            pit.model(step.model_name).parse(wire, strict=False)


def _campaign_signature(result):
    """Everything a campaign result observably is (workspace path aside)."""
    return (result.series, result.final_paths, result.final_edges,
            result.executions,
            sorted(report.dedup_key for report in result.unique_crashes),
            sorted(report.dedup_key for report in result.unique_divergences),
            result.crash_times, result.stats, result.path_hashes)


@pytest.mark.parametrize("target_name", TARGET_NAMES)
def test_passthrough_channel_campaign_is_bit_identical(target_name):
    """The channel seam itself must not perturb anything: a campaign
    through a rate-0 faulting channel is bit-identical to a
    channel-less one, on every stack."""
    spec = get_target(target_name)
    config = CampaignConfig(budget_hours=24.0, max_executions=120,
                            record_every=20)
    plain = run_campaign("peach-star", spec, seed=42, config=config)
    engine = make_engine("peach-star", spec, 42, config)
    engine.target.channel = FaultingChannel(0.0, random.Random(0))
    piped = run_campaign("peach-star", spec, seed=42, config=config,
                         engine=engine)
    assert _campaign_signature(piped) == _campaign_signature(plain)


@pytest.mark.parametrize("target_name", TARGET_NAMES)
def test_faulted_campaign_kill_resume_is_bit_identical(target_name,
                                                       tmp_path):
    """The fault RNG checkpoints with the workspace: a seeded faulting
    campaign killed mid-run and resumed finishes bit-identical to one
    that was never killed — divergence findings included."""
    spec = get_target(target_name)

    def config(workspace):
        return CampaignConfig(budget_hours=24.0, max_executions=120,
                              record_every=20, checkpoint_every=40,
                              channel_faults=0.2, workspace=workspace)

    full = run_campaign("peach-star", spec, seed=42,
                        config=config(str(tmp_path / "full")))
    assert full.stats["channel_faults"] > 0
    killed_dir = str(tmp_path / "killed")
    assert run_campaign("peach-star", spec, seed=42,
                        config=config(killed_dir),
                        stop_after_executions=73) is None
    resumed = resume_campaign(killed_dir)
    assert _campaign_signature(resumed) == _campaign_signature(full)


@pytest.mark.parametrize("target_name", TARGET_NAMES)
def test_short_campaign_finds_paths_without_harness_faults(target_name):
    """The full loop stays healthy on every stack: generation, wire
    codec, server, sanitizer and coverage measurement."""
    spec = get_target(target_name)
    config = CampaignConfig(budget_hours=24.0, max_executions=120,
                            record_every=20)
    result = run_campaign("peach-star", spec, seed=42, config=config)
    assert result.final_paths >= 1
    assert result.executions > 0
    # crashes, if any, are *typed* faults at seeded sites — never an
    # escape of the harness (which would have raised out of iterate())
    seeded = {site for _kind, site in spec.seeded_bug_sites}
    for report in result.unique_crashes:
        assert report.site in seeded
