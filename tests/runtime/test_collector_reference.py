"""Line collectors against the per-line ``visit`` collector they replaced.

The line collectors apply AFL's edge update inline in their trace
callbacks, from per-file block-id tables, and bind the armed map's
``counts``, ``journal`` and ``_prev`` and the block count only while
they are armed.  The reference below is the settrace collector they
replaced, kept as a test-only oracle: block ids cached per code object,
and one :meth:`CoverageMap.visit` call per traced line.

Per execution, both must agree on the journal (in order), the ``counts``
bytes and ``_prev``, ``blocks_executed`` and the hang flag, and the
crash call sites and the response.  Inputs: generated packets for all
six targets, a faulting channel and the loopback socket (several arms
per execution), session traces (``begin_step()`` per step, into the
trace's map), ``run_into`` with two alternating maps, and a small hang
budget tripped inside in-scope code.  The collector under test comes
from ``make_line_collector``, so the suite checks whichever backend
``REPRO_COVERAGE_BACKEND`` selects.
"""

import random
import sys

import pytest

from repro.channel import FaultingChannel
from repro.core import CampaignConfig, make_engine, run_campaign
from repro.model.generation import choose_model, generate_packet
from repro.net.target import make_loopback_target
from repro.protocols import PROTOCOLS_PATH_PREFIX, all_targets, get_target
from repro.runtime.coverage import CoverageMap
from repro.runtime.instrument import (
    HANG_BUDGET, Collector, HangBudgetExceeded, MonitoringCollector,
    make_line_collector,
)
from repro.runtime.target import Session, Target, dispatch_armed
from repro.sanitizer.errors import SimSegv
from repro.util import fnv1a32

PACKETS = 300
PREFIXES = (PROTOCOLS_PATH_PREFIX,)


# ----------------------------------------------------------------------
# the reference collector (one CoverageMap.visit call per traced line)
# ----------------------------------------------------------------------

class ReferenceCollector(Collector):
    """The replaced settrace collector, verbatim in behaviour."""

    backend_name = "reference"

    def __init__(self, module_prefixes, coverage_map=None,
                 hang_budget=HANG_BUDGET):
        super().__init__(coverage_map, hang_budget)
        self.module_prefixes = tuple(module_prefixes)
        self._code_line_ids = {}
        self._file_match_cache = {}
        self._visit = self.map.visit
        self._saved_trace = None

    def _file_matches(self, filename):
        cached = self._file_match_cache.get(filename)
        if cached is None:
            cached = any(prefix in filename
                         for prefix in self.module_prefixes)
            self._file_match_cache[filename] = cached
        return cached

    def _block_id(self, filename, lineno):
        # the replaced crash context hashed the in-scope traceback lines
        if not self._file_matches(filename):
            return None
        return fnv1a32(f"{filename}:{lineno}")

    def begin(self):
        super().begin()
        self._visit = self.map.visit

    def begin_step(self):
        # a trace step records into the map run_trace pointed us at
        super().begin_step()
        self._visit = self.map.visit

    def __enter__(self):
        self._saved_trace = sys.gettrace()
        sys.settrace(self._global_trace)
        return self

    def __exit__(self, exc_type, exc, tb):
        sys.settrace(self._saved_trace)
        self._saved_trace = None
        return False

    def _global_trace(self, frame, event, arg):
        if event != "call":
            return None
        if not self._file_matches(frame.f_code.co_filename):
            return None
        return self._local_trace

    def _local_trace(self, frame, event, arg):
        if event != "line":
            return self._local_trace
        code = frame.f_code
        line_ids = self._code_line_ids.get(code)
        if line_ids is None:
            self._code_line_ids[code] = line_ids = {}
        lineno = frame.f_lineno
        block_id = line_ids.get(lineno)
        if block_id is None:
            block_id = fnv1a32(f"{code.co_filename}:{lineno}")
            line_ids[lineno] = block_id
        self._visit(block_id)
        self.blocks_executed += 1
        if self.blocks_executed > self.hang_budget:
            raise HangBudgetExceeded(f"{code.co_filename}:{lineno}")
        return self._local_trace


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _release_monitoring():
    yield
    MonitoringCollector.release()


def _packets(spec, count, seed=1):
    rng = random.Random(seed)
    pit = spec.make_pit()
    packets = []
    for _ in range(count):
        model = choose_model(pit, rng)
        packets.append((generate_packet(model, rng)[1], model.name))
    return packets


def _map_state(coverage_map):
    return (list(coverage_map.journal), bytes(coverage_map.counts),
            coverage_map._prev)


def _state(collector):
    return _map_state(collector.map), collector.blocks_executed


def _crash(report):
    if report is None:
        return None
    return report.dedup_key, report.call_sites


def _outcome(result):
    return (result.hang, result.response, _crash(result.crash),
            result.blocks_executed, result.delivered)


def _targets(make_server, prefixes=PREFIXES, make_channel=lambda: None,
             **kwargs):
    """(reference, under test): the same server, channel and budget."""
    return (Target(make_server, ReferenceCollector(prefixes, **kwargs),
                   make_channel()),
            Target(make_server, make_line_collector(prefixes, **kwargs),
                   make_channel()))


def _assert_runs_agree(reference, target, packets):
    """Run *packets* through both targets; returns the outcomes."""
    outcomes = []
    for packet, model_name in packets:
        expected = reference.run(packet, model_name)
        result = target.run(packet, model_name)
        assert _outcome(result) == _outcome(expected), packet.hex()
        assert _state(target.collector) == _state(reference.collector), \
            packet.hex()
        outcomes.append(result)
    return outcomes


# ----------------------------------------------------------------------
# the rows
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_generated_packets_record_like_the_reference(spec):
    reference, target = _targets(spec.make_server)
    outcomes = _assert_runs_agree(reference, target,
                                  _packets(spec, PACKETS))
    assert sum(result.coverage.edge_count() for result in outcomes) > 0


@pytest.mark.parametrize("target_name", ["iec104", "libmodbus", "libiccp"])
def test_faulting_channel_records_like_the_reference(target_name):
    """Split and duplicated frames arm the collector several times in one
    execution; ``prev`` and the block count carry across those arms."""
    spec = get_target(target_name)
    reference, target = _targets(
        spec.make_server,
        make_channel=lambda: FaultingChannel(0.25, random.Random(7)))
    outcomes = _assert_runs_agree(reference, target,
                                  _packets(spec, PACKETS, seed=2))
    assert sum(len(result.delivered) > 1 for result in outcomes) >= 20


def test_loopback_socket_records_like_the_reference():
    """The served app arms the client's collector once per frame."""
    spec = get_target("iec104")
    reference = make_loopback_target(
        spec, collector=ReferenceCollector(PREFIXES),
        channel=FaultingChannel(0.25, random.Random(3)))
    target = make_loopback_target(
        spec, collector=make_line_collector(PREFIXES),
        channel=FaultingChannel(0.25, random.Random(3)))
    try:
        _assert_runs_agree(reference, target, _packets(spec, 150, seed=3))
    finally:
        reference.close()
        target.close()


def test_run_into_alternating_maps_records_like_the_reference():
    """``run_into`` swaps the collector's map between executions; each
    execution records into its own map and leaves the other alone."""
    spec = get_target("libmodbus")
    reference, target = _targets(spec.make_server)
    expected_maps = (CoverageMap(), CoverageMap())
    maps = (CoverageMap(), CoverageMap())
    for index, (packet, model_name) in enumerate(_packets(spec, PACKETS)):
        mine, other = index % 2, (index + 1) % 2
        expected = reference.run_into(packet, model_name,
                                      expected_maps[mine])
        result = target.run_into(packet, model_name, maps[mine])
        assert result.coverage is maps[mine]
        assert _outcome(result) == _outcome(expected)
        assert _map_state(maps[mine]) == _map_state(expected_maps[mine])
        assert _map_state(maps[other]) == _map_state(expected_maps[other])


def _trace_outcome(result):
    return (result.steps_executed, result.crash_step, result.hang,
            result.responses, _crash(result.crash), result.blocks_executed,
            list(result.coverage.journal), bytes(result.coverage.counts))


@pytest.mark.parametrize("target_name", ["iec104", "libmodbus", "lib60870"])
def test_session_traces_record_like_the_reference(target_name):
    """A session campaign's traces (``begin_step()`` per step, into the
    trace's map) replayed step for step on the reference."""
    spec = get_target(target_name)
    config = CampaignConfig(budget_hours=24.0, max_executions=PACKETS,
                            record_every=50, sessions=True)
    engine = make_engine("peach-star", spec, 3, config)
    reference = Target(spec.make_server, ReferenceCollector(PREFIXES))
    run_trace = engine.target.run_trace
    steps_run = []

    def checked(steps, binder=None):
        result = run_trace(steps, binder)
        models = [model_name for _, model_name in steps]
        expected = reference.run_trace(list(zip(result.sent, models)))
        assert _trace_outcome(result) == _trace_outcome(expected)
        assert _state(engine.target.collector) == \
            _state(reference.collector)
        steps_run.append(result.steps_executed)
        return result

    engine.target.run_trace = checked
    run_campaign("peach-star", spec, seed=3, config=config, engine=engine)
    assert sum(steps_run) >= PACKETS and max(steps_run) > 1


# -- scripted in-scope code: hangs and crashes ------------------------------

#: scope of the scripted rows.  Their target is compiled under this
#: filename so that the scope holds it but not the reference collector,
#: whose ``__exit__`` (defined in this file) runs while it is armed.
_SCRIPTED = "<scripted-target>"
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
_spin, _SpinServer = _scripted["spin"], _scripted["SpinServer"]
_SCOPE = (_SCRIPTED,)


def test_hang_budget_trips_like_the_reference():
    """Same block count, same ``file:line`` message, same map."""
    messages = []
    states = []
    for collector in (ReferenceCollector(_SCOPE, hang_budget=50),
                      make_line_collector(_SCOPE, hang_budget=50)):
        collector.begin()
        with pytest.raises(HangBudgetExceeded) as info:
            with collector:
                _spin(1000)
        messages.append(str(info.value))
        states.append(_state(collector))
    assert messages[0] == messages[1]
    assert messages[0].startswith(_SCRIPTED + ":")
    assert states[0] == states[1]
    assert states[0][1] == 51


def test_hang_budget_counts_across_arms_like_the_reference():
    """The budget spans every arm of one execution: two dispatches that
    each fit the budget trip it together."""
    reference = ReferenceCollector(_SCOPE, hang_budget=50)
    collector = make_line_collector(_SCOPE, hang_budget=50)
    outcomes = []
    for each in (reference, collector):
        session = Session(_SpinServer)
        each.begin()
        first = dispatch_armed(each, session, b"12")
        second = dispatch_armed(each, session, b"12")
        outcomes.append((first, second, _state(each)))
    assert outcomes[0] == outcomes[1]
    (_, hang_first, _), (_, hang_second, _), _ = outcomes[1]
    assert not hang_first and hang_second


class _FixedFrames:
    """A channel that delivers the same frames for every packet."""

    def __init__(self, frames):
        self.frames = frames

    def reset(self):
        pass

    def transmit(self, index, wire):
        return list(self.frames)

    def flush(self):
        return []


@pytest.mark.parametrize("frames,hang,crashed", [
    ((b"3", b"segv"), False, True),
    ((b"segv",), False, True),
    ((b"10", b"10"), False, False),
    ((b"10", b"11"), True, False),
    ((b"2", b"5", b"40"), True, False),
    ((b"1000",), True, False),
], ids=["crash-after-a-frame", "crash", "at-the-budget",
        "one-past-the-budget", "hang-in-the-third-frame", "hang"])
def test_scripted_executions_record_like_the_reference(frames, hang,
                                                       crashed):
    """One ``run`` delivers every frame, arming once per frame; the
    budget of 50 blocks spans them all."""
    reference, target = _targets(
        _SpinServer, prefixes=_SCOPE, hang_budget=50,
        make_channel=lambda: _FixedFrames(frames))
    for _ in range(2):
        expected = reference.run(b"", None)
        result = target.run(b"", None)
        assert _outcome(result) == _outcome(expected)
        assert _state(target.collector) == _state(reference.collector)
        assert (result.hang, result.crashed) == (hang, crashed)
