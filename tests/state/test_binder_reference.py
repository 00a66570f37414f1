"""The memoized trace binder against the unmemoized one it replaced.

A session campaign hands every :class:`TraceBinder` one memo, so a
``prepare`` or ``observe`` whose key was seen before is a lookup instead
of a parse and one or two builds.  The reference below is the binder's
code before the memo, kept as a test-only oracle: every call parses
(and rebuilds) from scratch.

Session campaigns are replayed step by step through both: the wire each
step sends must be the same, and so must every lane's session variables
after each ``observe``.  The campaigns: ``iec104 --learn-states``,
``libmodbus --sessions``, ``lib60870 --sessions`` and iec104 sessions at
concurrency 2 over the loopback socket (one memo shared by the lanes of
a ``LaneBinder``).  Crafted rows cover a packet that does not round-trip,
a model missing from the pit, a key that hits, a bound value of the
wrong type for its leaf, and the memo cap.
"""

import pytest

from repro.core import CampaignConfig, make_engine, run_campaign
from repro.core.fixup_engine import TreeEchoProvider
from repro.model import DataModel
from repro.model.fields import ModelError, ParseError
from repro.net.config import NetConfig
from repro.protocols import get_target
from repro.state import SessionFuzzer, TraceBinder, TraceStep
from repro.state.binder import LaneBinder

EXECUTIONS = 600


class ReferenceBinder:
    """The binder before the memo, verbatim in behaviour."""

    def __init__(self, pit, steps):
        self.pit = pit
        self.steps = list(steps)
        self.vars = {}

    def _model(self, name):
        if not name:
            return None
        try:
            return self.pit.model(name)
        except ModelError:
            return None

    def prepare(self, index, packet):
        step = self.steps[index]
        if not step.bind or not self.vars:
            return packet
        values = {leaf: self.vars[var]
                  for leaf, var in sorted(step.bind.items())
                  if var in self.vars}
        if not values:
            return packet
        model = self._model(step.model_name)
        if model is None:
            return packet
        try:
            tree = model.parse(packet, strict=False)
            baseline = model.to_wire(model.build(TreeEchoProvider(tree)))
        except (ModelError, ParseError, ValueError, OverflowError):
            return packet
        if baseline != packet:
            return packet
        changed = False
        for leaf, value in values.items():
            node = tree.find(leaf)
            if node is not None and node.is_leaf:
                node.value = value
                changed = True
        if not changed:
            return packet
        try:
            rebuilt = model.build(TreeEchoProvider(tree))
            return model.to_wire(rebuilt)
        except (ModelError, ParseError, ValueError, OverflowError):
            return packet

    def observe(self, index, response):
        step = self.steps[index]
        if response is None or not step.capture:
            return
        model = self._model(step.expect)
        if model is None:
            return
        try:
            tree = model.parse(response, strict=False)
        except ParseError:
            return
        for var, leaf in sorted(step.capture.items()):
            node = tree.find(leaf)
            if node is not None and node.is_leaf and node.value is not None:
                self.vars[var] = node.value


class CheckedBinder:
    """The engine's binder, checked call by call against reference
    binders, one per lane."""

    def __init__(self, binder, pit, steps, lanes, counts):
        self.binder = binder
        self.lanes = lanes
        self.counts = counts
        self.references = [ReferenceBinder(pit, steps)
                           for _ in range(lanes)]
        self.lane_binders = binder._binders if lanes > 1 else [binder]

    def prepare(self, index, packet):
        lane = index % self.lanes
        live = self.lane_binders[lane].vars
        step = self.binder_steps[index]
        if any(var in live for var in step.bind.values()):
            self.counts["prepare"] += 1
        wire = self.binder.prepare(index, packet)
        assert wire == self.references[lane].prepare(index, packet), index
        return wire

    def observe(self, index, response):
        lane = index % self.lanes
        if response is not None and self.binder_steps[index].capture:
            self.counts["observe"] += 1
        self.binder.observe(index, response)
        self.references[lane].observe(index, response)
        assert self.lane_binders[lane].vars == self.references[lane].vars
        assert list(self.lane_binders[lane].vars) == \
            list(self.references[lane].vars)

    @property
    def binder_steps(self):
        return self.lane_binders[0].steps


def _memo_entries(memo, kind):
    return sum(1 for key in memo if key[0] == kind)


@pytest.mark.parametrize("target,mode,concurrency", [
    ("iec104", "learn", 1),
    ("libmodbus", "sessions", 1),
    ("lib60870", "sessions", 1),
    ("iec104", "sessions", 2),
], ids=["iec104-learn", "libmodbus-sessions", "lib60870-sessions",
        "iec104-lanes"])
def test_campaign_steps_bind_like_the_reference(target, mode, concurrency,
                                                monkeypatch):
    spec = get_target(target)
    config = CampaignConfig(
        budget_hours=24.0, max_executions=EXECUTIONS, record_every=50,
        sessions=mode == "sessions", learn_states=mode == "learn",
        net=NetConfig(concurrency=concurrency) if concurrency > 1 else None)
    engine = make_engine("peach-star", spec, 5, config)
    counts = {"prepare": 0, "observe": 0}
    make_binder = SessionFuzzer._make_binder

    def checked(self, steps):
        binder = make_binder(self, steps)
        assert isinstance(binder, LaneBinder) == (concurrency > 1)
        return CheckedBinder(binder, self.pit, steps, concurrency, counts)

    monkeypatch.setattr(SessionFuzzer, "_make_binder", checked)
    run_campaign("peach-star", spec, seed=5, config=config, engine=engine)
    memo = engine._binder_memo
    prepared = _memo_entries(memo, "prepare")
    observed = _memo_entries(memo, "observe")
    # each miss stores one entry, so fewer entries than calls means hits
    assert 0 < prepared < counts["prepare"]
    assert 0 < observed < counts["observe"]


# ----------------------------------------------------------------------
# crafted rows
# ----------------------------------------------------------------------

@pytest.fixture
def iec104():
    spec = get_target("iec104")
    pit = spec.make_pit()
    model = pit.model("iec104.interrogation")
    return pit, model, model.to_wire(model.build_default())


def _step(model_name, packet, bind=None, capture=None, expect=None):
    return TraceStep(model_name=model_name, packet=packet,
                     bind=dict(bind or {}), capture=dict(capture or {}),
                     expect=expect)


def _counting_parses(monkeypatch):
    calls = []
    parse = DataModel.parse

    def counted(self, data, **kwargs):
        calls.append(self.name)
        return parse(self, data, **kwargs)

    monkeypatch.setattr(DataModel, "parse", counted)
    return calls


def _prepare_both(pit, steps, vars_, memo, index=0):
    """(memoized binder's wire, reference wire) for step *index*."""
    binder = TraceBinder(pit, steps, memo)
    binder.vars.update(vars_)
    reference = ReferenceBinder(pit, steps)
    reference.vars.update(vars_)
    return binder.prepare(index, steps[index].packet), \
        reference.prepare(index, steps[index].packet)


def test_a_repeated_key_is_a_lookup(iec104, monkeypatch):
    pit, model, packet = iec104
    steps = [_step(model.name, packet, bind={"send_seq_lo": "seq"})]
    memo = {}
    calls = _counting_parses(monkeypatch)
    first, expected = _prepare_both(pit, steps, {"seq": 7}, memo)
    assert first == expected != packet
    parsed = len(calls)
    again = TraceBinder(pit, steps, memo)
    again.vars["seq"] = 7
    assert again.prepare(0, packet) == first
    assert len(calls) == parsed  # the hit parsed nothing
    # another bound value is another key
    other, expected = _prepare_both(pit, steps, {"seq": 8}, memo)
    assert other == expected != first
    assert len(memo) == 2


def test_an_observe_hit_still_captures(iec104, monkeypatch):
    pit, model, packet = iec104
    steps = [_step(model.name, packet, capture={"seq": "send_seq_lo"},
                   expect=model.name)]
    reply = model.to_wire(model.build_default())
    memo = {}
    TraceBinder(pit, steps, memo).observe(0, reply)
    calls = _counting_parses(monkeypatch)
    binder = TraceBinder(pit, steps, memo)
    binder.observe(0, reply)
    assert calls == []
    reference = ReferenceBinder(pit, steps)
    reference.observe(0, reply)
    assert binder.vars == reference.vars == {"seq": 0}


def test_a_packet_that_does_not_round_trip_passes_through(iec104):
    pit, model, packet = iec104
    cut = packet[:-2]  # the length octet no longer matches
    steps = [_step(model.name, cut, bind={"send_seq_lo": "seq"})]
    memo = {}
    for _ in range(2):
        wire, expected = _prepare_both(pit, steps, {"seq": 7}, memo)
        assert wire == expected == cut
    assert list(memo.values()) == [cut]


def test_a_model_missing_from_the_pit_passes_through(iec104):
    pit, _, packet = iec104
    steps = [_step("iec104.no_such_model", packet,
                   bind={"send_seq_lo": "seq"}),
             _step("iec104.no_such_model", packet,
                   capture={"seq": "send_seq_lo"},
                   expect="iec104.no_such_model")]
    memo = {}
    wire, expected = _prepare_both(pit, steps, {"seq": 7}, memo)
    assert wire == expected == packet
    binder = TraceBinder(pit, steps, memo)
    binder.observe(1, packet)
    assert binder.vars == {}
    assert len(memo) == 2


@pytest.mark.parametrize("memoized", [True, False], ids=["memo", "no-memo"])
def test_a_bound_value_of_the_wrong_type_passes_through(iec104, memoized):
    """A foreign or damaged trace binding a Number leaf to a bytes
    variable sends the step unchanged instead of ending the campaign."""
    pit, model, packet = iec104
    steps = [_step(model.name, packet, bind={"send_seq_lo": "v"})]
    binder = TraceBinder(pit, steps, {}) if memoized \
        else TraceBinder(pit, steps)
    binder.vars["v"] = b"\x01\x02"
    assert binder.prepare(0, packet) == packet
    # the same key again: the memo stored the pass-through
    assert binder.prepare(0, packet) == packet
    # the code before the memo let Number.encode's TypeError escape
    reference = ReferenceBinder(pit, steps)
    reference.vars["v"] = b"\x01\x02"
    with pytest.raises(TypeError):
        reference.prepare(0, packet)


def test_values_of_equal_hash_but_another_type_do_not_alias(iec104):
    """``1`` and ``b"\\x01"`` and ``"1"`` are three keys."""
    pit, model, packet = iec104
    steps = [_step(model.name, packet, bind={"send_seq_lo": "v"})]
    memo = {}
    wires = []
    for value in (1, b"\x01", "1", 1):
        binder = TraceBinder(pit, steps, memo)
        binder.vars["v"] = value
        wires.append(binder.prepare(0, packet))
    assert wires[0] == wires[3] != packet
    assert wires[1] == wires[2] == packet
    assert len(memo) == 3


def test_the_memo_stops_growing_at_its_cap(iec104, monkeypatch):
    pit, model, packet = iec104
    monkeypatch.setattr(TraceBinder, "MEMO_LIMIT", 3)
    steps = [_step(model.name, packet, bind={"send_seq_lo": "seq"})]
    memo = {}
    for value in range(6):
        wire, expected = _prepare_both(pit, steps, {"seq": value}, memo)
        assert wire == expected
    assert len(memo) == 3


def test_lanes_share_one_memo(iec104):
    pit, model, packet = iec104
    steps = [_step(model.name, packet, bind={"send_seq_lo": "seq"})
             for _ in range(2)]
    memo = {}
    binder = LaneBinder(pit, steps, 2, memo)
    for lane in binder._binders:
        assert lane.memo is memo
        lane.vars["seq"] = 9
    assert binder.prepare(0, packet) == binder.prepare(1, packet) != packet
    assert len(memo) == 1
