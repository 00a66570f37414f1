"""One coverage map per trace against the per-step maps it replaced.

``Target.run_trace`` points the collector at the trace's map for the
whole trace and starts each step with ``begin_step()``: AFL's ``prev``
and the block count restart, the counts do not.  The reference below is
the loop it replaced, kept as a test-only oracle: each step resets the
collector's own map with ``begin()`` and the step's map is then folded
into the trace's map (the deleted ``CoverageMap.absorb``).

Per trace, both must agree on the journal (in order), the ``counts``
bytes, ``blocks_executed``, the wire sent, the frames delivered, the
responses, and the crash (with its call sites) or hang and its step.
Inputs: the traces of session campaigns on three targets, a faulting
channel (a step may deliver several frames), scripted crashes and hangs
mid-trace, the loopback socket at concurrency 1 and 2, and the
``ExplicitCollector``.  The collector gets its own map back on every
way out, and a later ``Target.run`` leaves a trace's map alone.
Campaigns with all three shortcuts of the session path swapped out (this
reference, memo-less binders and no token prefilter) end identically.
"""

import random

import pytest

from repro.channel import FaultingChannel
from repro.core import CampaignConfig, make_engine, run_campaign
from repro.model import DataModel
from repro.model.generation import choose_model, generate_packet
from repro.net.config import NetConfig
from repro.net.target import NetTargetError, make_loopback_target
from repro.protocols import PROTOCOLS_PATH_PREFIX, get_target
from repro.runtime.coverage import CoverageMap
from repro.runtime.instrument import (
    ExplicitCollector, MonitoringCollector, make_line_collector,
)
from repro.runtime.target import Target, TraceResult
from repro.sanitizer.errors import SimSegv
from repro.state import SessionFuzzer, TraceBinder
from repro.state.binder import LaneBinder

PREFIXES = (PROTOCOLS_PATH_PREFIX,)
TRACES = 60


# ----------------------------------------------------------------------
# the reference: begin() per step, then fold the step's map in
# ----------------------------------------------------------------------

def _absorb(accumulated, step_map):
    """The deleted ``CoverageMap.absorb``: sum counts, saturating at
    255; an edge new to the trace joins its journal in the step map's
    first-touch order."""
    counts = accumulated.counts
    journal = accumulated.journal
    step_counts = step_map.counts
    for index in step_map.journal:
        current = counts[index]
        if current == 0:
            journal.append(index)
        counts[index] = min(255, current + step_counts[index])


def reference_run_trace(self, steps, binder=None):
    """The replaced ``Target.run_trace`` body."""
    self._begin_trace()
    collector = self.collector
    accumulated = CoverageMap() if collector is not None else None
    result = TraceResult(coverage=accumulated, crash=None, hang=False,
                         response=None)
    last = len(steps) - 1
    for index, (packet, model_name) in enumerate(steps):
        self.executions += 1
        wire = packet if binder is None else binder.prepare(index, packet)
        result.sent.append(wire)
        frames = self._channel_frames(index, wire, index == last)
        if self.channel is not None:
            result.delivered.append(list(frames))
        if collector is not None:
            collector.begin()
        crash, hang, response = self._deliver(index, frames, model_name)
        if collector is not None:
            result.blocks_executed += collector.blocks_executed
            _absorb(accumulated, collector.map)
        result.steps_executed = index + 1
        result.responses.append(response)
        result.response = response
        if crash is not None:
            result.crash = crash
            result.crash_step = index
            break
        if hang:
            result.hang = True
            result.crash_step = index
            break
        if binder is not None:
            binder.observe(index, response)
    return result


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _release_monitoring():
    yield
    MonitoringCollector.release()


def _crash(report, call_sites=True):
    if report is None:
        return None
    return report.dedup_key, report.call_sites if call_sites else None


def _trace(result, call_sites=True):
    return (result.steps_executed, result.crash_step, result.hang,
            result.responses, result.sent, result.delivered,
            _crash(result.crash, call_sites), result.blocks_executed,
            list(result.coverage.journal), bytes(result.coverage.counts))


def _random_traces(spec, count, seed):
    rng = random.Random(seed)
    pit = spec.make_pit()
    traces = []
    for _ in range(count):
        steps = []
        for _ in range(rng.randint(1, 6)):
            model = choose_model(pit, rng)
            steps.append((generate_packet(model, rng)[1], model.name))
        traces.append(steps)
    return traces


def _assert_traces_agree(target, reference, traces, call_sites=True):
    """Run *traces* through both; the collector keeps its own map.

    ``call_sites=False`` compares a crash's call sites only when the
    first step crashed."""
    results = []
    own = target.collector.map
    for steps in traces:
        result = target.run_trace(steps)
        expected = reference_run_trace(reference, steps)
        sites = call_sites or result.crash_step == 0
        assert _trace(result, sites) == _trace(expected, sites), \
            [packet.hex() for packet, _ in steps]
        assert target.collector.blocks_executed == \
            reference.collector.blocks_executed
        assert target.collector.map is own
        results.append(result)
    return results


# ----------------------------------------------------------------------
# the rows
# ----------------------------------------------------------------------

@pytest.mark.parametrize("target_name", ["iec104", "libmodbus", "lib60870"])
def test_session_campaign_traces_record_like_the_reference(target_name):
    spec = get_target(target_name)
    config = CampaignConfig(budget_hours=24.0, max_executions=600,
                            record_every=50, sessions=True)
    engine = make_engine("peach-star", spec, 3, config)
    reference = Target(spec.make_server, make_line_collector(PREFIXES))
    run_trace = engine.target.run_trace
    own = engine.target.collector.map
    steps_run = []

    def checked(steps, binder=None):
        result = run_trace(steps, binder)
        models = [model_name for _, model_name in steps]
        expected = reference_run_trace(reference,
                                       list(zip(result.sent, models)))
        assert _trace(result) == _trace(expected)
        assert engine.target.collector.map is own
        steps_run.append(result.steps_executed)
        return result

    engine.target.run_trace = checked
    run_campaign("peach-star", spec, seed=3, config=config, engine=engine)
    assert sum(steps_run) >= 600 and max(steps_run) > 1


@pytest.mark.parametrize("target_name", ["iec104", "libmodbus"])
def test_faulting_channel_traces_record_like_the_reference(target_name):
    """Duplicated and split frames arm the collector several times in a
    step, and reordered frames land in the next step or at the end."""
    spec = get_target(target_name)
    target, reference = (
        Target(spec.make_server, make_line_collector(PREFIXES),
               FaultingChannel(0.25, random.Random(7)))
        for _ in range(2))
    results = _assert_traces_agree(target, reference,
                                   _random_traces(spec, TRACES, 2))
    assert sum(len(frames) > 1 for result in results
               for frames in result.delivered) >= 10


#: scope of the scripted rows: the target is compiled under this name
_SCRIPTED = "<scripted-trace-target>"
_SCRIPTED_SOURCE = """
def spin(rounds):
    total = 0
    for step in range(rounds):
        total += step
    return total


class SpinServer:
    \"\"\"b"segv" faults; any other frame spins int(frame) rounds.\"\"\"

    def handle_packet(self, heap, data):
        if data == b"segv":
            raise SimSegv("scripted:segv")
        return b"%d" % spin(int(data))

    def reset(self):
        pass
"""
_scripted = {"SimSegv": SimSegv}
exec(compile(_SCRIPTED_SOURCE, _SCRIPTED, "exec"), _scripted)
_SpinServer = _scripted["SpinServer"]


@pytest.mark.parametrize("frames,crash_step,hang", [
    ((b"3", b"segv"), 1, False),
    ((b"2", b"segv", b"3"), 1, False),
    ((b"12", b"12", b"12"), None, False),
    ((b"5", b"1000", b"2"), 1, True),
    ((b"1000",), 0, True),
    ((b"7", b"7", b"segv"), 2, False),
], ids=["crash-second", "crash-mid", "budget-per-step", "hang-mid",
        "hang-first", "crash-last"])
def test_scripted_crashes_and_hangs_record_like_the_reference(
        frames, crash_step, hang):
    """A crashing or hanging step's partial coverage stays in the trace's
    map; the hang budget (50 blocks) counts per step."""
    target, reference = (
        Target(_SpinServer, make_line_collector((_SCRIPTED,),
                                                hang_budget=50))
        for _ in range(2))
    steps = [(frame, None) for frame in frames]
    for _ in range(2):
        result, = _assert_traces_agree(target, reference, [steps])
        assert (result.crash_step, result.hang) == (crash_step, hang)
        assert result.crashed == (not hang and crash_step is not None)


@pytest.mark.parametrize("concurrency", [1, 2])
def test_loopback_socket_traces_record_like_the_reference(concurrency):
    """The served app arms the client's collector, which points at the
    trace's map; at concurrency 2 the steps alternate between lanes."""
    spec = get_target("iec104")
    targets = [make_loopback_target(
        spec, collector=make_line_collector(PREFIXES),
        channel=FaultingChannel(0.25, random.Random(3)),
        net=NetConfig(concurrency=concurrency)) for _ in range(2)]
    try:
        _assert_traces_agree(*targets, _random_traces(spec, 40, 3))
    finally:
        for target in targets:
            target.close()


class _LabelServer:
    """Hits one label per frame byte; a frame holding 0xff faults."""

    def __init__(self, collector):
        self.collector = collector

    def handle_packet(self, heap, data):
        for byte in data:
            self.collector.hit(f"byte-{byte}")
        if 0xFF in data:
            raise SimSegv("label:ff")
        return bytes(reversed(data))

    def reset(self):
        pass


def test_explicit_collector_traces_record_like_the_reference():
    """Map, blocks, responses and crash keys agree.  Without a scope
    filter a crash's call sites are the map's journal tail, which is now
    the trace's rather than the crashing step's, so they are compared
    only when the first step crashes."""
    rng = random.Random(11)
    alphabet = b"\x01\x02\x03\x04\x05\x06\x07\xff"  # labels repeat
    traces = [[(bytes(rng.choices(alphabet, k=rng.randint(1, 8))), None)
               for _ in range(rng.randint(1, 5))] for _ in range(TRACES)]
    targets = []
    for _ in range(2):
        collector = ExplicitCollector()
        targets.append(Target(lambda collector=collector:
                              _LabelServer(collector), collector))
    results = _assert_traces_agree(*targets, traces, call_sites=False)
    steps = {result.crash_step for result in results if result.crashed}
    assert 0 in steps and max(steps) > 0


def test_a_later_run_leaves_the_trace_map_alone():
    spec = get_target("libmodbus")
    target = Target(spec.make_server, make_line_collector(PREFIXES))
    own = target.collector.map
    trace, = _random_traces(spec, 1, 5)
    result = target.run_trace(trace)
    before = (list(result.coverage.journal), bytes(result.coverage.counts))
    assert before[0]
    packet, model_name = trace[0]
    single = target.run(packet, model_name)
    assert single.coverage is own is target.collector.map
    assert single.coverage.journal
    assert (list(result.coverage.journal),
            bytes(result.coverage.counts)) == before


class _StepOneBinder:
    """Calls *act* when asked to prepare step 1."""

    def __init__(self, act):
        self.act = act

    def prepare(self, index, packet):
        if index == 1:
            self.act()
        return packet

    def observe(self, index, response):
        pass


def _boom():
    raise KeyError("boom")


def test_the_collector_gets_its_map_back_when_a_trace_raises():
    spec = get_target("iec104")
    target = Target(spec.make_server, make_line_collector(PREFIXES))
    own = target.collector.map
    trace, = _random_traces(spec, 1, 7)
    with pytest.raises(KeyError):
        target.run_trace(trace * 2, _StepOneBinder(_boom))
    assert target.collector.map is own


def test_the_collector_gets_its_map_back_from_a_socket_error():
    """A ``NetTargetError`` mid-trace: the binder closes the loopback
    target before step 1 is delivered."""
    spec = get_target("iec104")
    target = make_loopback_target(spec,
                                  collector=make_line_collector(PREFIXES))
    own = target.collector.map
    trace, = _random_traces(spec, 1, 7)
    try:
        with pytest.raises(NetTargetError):
            target.run_trace(trace * 2, _StepOneBinder(target.close))
    finally:
        target.close()
    assert target.collector.map is own


# ----------------------------------------------------------------------
# campaigns: all three session-path shortcuts against their references
# ----------------------------------------------------------------------

def _campaign(spec, mode, seed):
    config = CampaignConfig(budget_hours=24.0, max_executions=500,
                            record_every=25, sessions=mode == "sessions",
                            learn_states=mode == "learn")
    engine = make_engine("peach-star", spec, seed, config)
    result = run_campaign("peach-star", spec, seed=seed, config=config,
                          engine=engine)
    snapshot = getattr(engine, "state_model", None)
    snapshot = getattr(snapshot, "snapshot", lambda: None)()
    crashes = [(report.dedup_key, report.execution_index, report.packet)
               for report in result.unique_crashes]
    return (result.executions, result.path_hashes, result.series,
            result.stats, engine.corpus._store, snapshot, crashes)


def _memo_less_binder(self, steps):
    if self.concurrency > 1:
        return LaneBinder(self.pit, steps, self.concurrency)
    return TraceBinder(self.pit, steps)


@pytest.mark.parametrize("target_name,mode", [
    ("iec104", "learn"), ("libmodbus", "sessions"), ("lib60870", "learn"),
    ("libmodbus", "single"),
], ids=["iec104-learn", "libmodbus-sessions", "lib60870-learn",
        "libmodbus-single-packet"])
def test_campaigns_end_like_the_references(target_name, mode, monkeypatch):
    spec = get_target(target_name)
    fast = _campaign(spec, mode, 4)
    monkeypatch.setattr(Target, "run_trace", reference_run_trace)
    monkeypatch.setattr(SessionFuzzer, "_make_binder", _memo_less_binder)
    monkeypatch.setattr(DataModel, "tokens_match", lambda self, data: True)
    assert _campaign(spec, mode, 4) == fast
    assert fast[4]  # the cracker deposited puzzles
