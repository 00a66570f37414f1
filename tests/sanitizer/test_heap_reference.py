"""SimHeap against the helper-call heap it replaced.

:class:`~repro.sanitizer.heap.SimHeap` checks every access inline and
raises faults from one out-of-line path, so that a successful heap
operation enters one Python frame.  The reference below is the heap it
replaced, kept as a test-only oracle: a dataclass ``Pointer``, an
``_Allocation`` with a ``freed`` flag, and accessors that resolve
through ``read``/``write`` and ``_resolve``.

The rows:

* Operation sequences (hypothesis) run on both heaps in lockstep:
  ``malloc`` (sizes 0-40 and negative), ``malloc_from``, ``free``
  (double and unknown included), every accessor in both endians at
  offsets from -300 to size+300 and lengths down to below 0,
  ``Pointer.offset``, ``deref_read`` at 0 and inside, between and past
  allocations, ``size_of`` and ``live_allocations``.  Each step must
  return the same value, or raise the same fault class with the same
  ``site`` and ``detail``, and leave the same allocations holding the
  same bytes.
* A grid of the same steps at every offset on and around each bound of
  small allocations, live and freed, so that an off-by-one in any one
  bound fails on every run, not only when the search draws it.
* Executions: generated packets on all six targets and session traces
  on three, each run once on the heap under test and once with the
  reference swapped in for ``repro.runtime.target.SimHeap``.  Both must
  record the same coverage (journal, ``counts``, ``_prev``, block
  count), hang flag, response and crash (kind, site, detail and call
  sites).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Union

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CampaignConfig, make_engine, run_campaign
from repro.model.generation import choose_model, generate_packet
from repro.protocols import PROTOCOLS_PATH_PREFIX, all_targets, get_target
from repro.runtime import target as target_module
from repro.runtime.instrument import MonitoringCollector, make_line_collector
from repro.runtime.target import Target
from repro.sanitizer.errors import (
    DoubleFree, HeapBufferOverflow, HeapUseAfterFree, MemoryFault, NullDeref,
    SimSegv,
)
from repro.sanitizer.heap import Pointer, SimHeap

PACKETS = 300
PREFIXES = (PROTOCOLS_PATH_PREFIX,)


# ----------------------------------------------------------------------
# the reference heap (the replaced helper-call implementation)
# ----------------------------------------------------------------------

_BASE_ADDRESS = 0x1000_0000
_GUARD = 0x100


@dataclass
class ReferencePointer:
    address: int
    alloc_id: int
    base_offset: int = 0

    def offset(self, delta: int) -> "ReferencePointer":
        return ReferencePointer(self.address + delta, self.alloc_id,
                                self.base_offset + delta)


class _ReferenceAllocation:
    __slots__ = ("alloc_id", "base", "size", "data", "freed", "tag")

    def __init__(self, alloc_id: int, base: int, size: int, tag: str):
        self.alloc_id = alloc_id
        self.base = base
        self.size = size
        self.data = bytearray(size)
        self.freed = False
        self.tag = tag


class ReferenceHeap:
    """The replaced SimHeap, verbatim in behaviour."""

    def __init__(self):
        self._allocations: Dict[int, _ReferenceAllocation] = {}
        self._next_id = 1
        self._next_base = _BASE_ADDRESS
        self.bytes_allocated = 0

    def malloc(self, size: int, tag: str = "anon") -> ReferencePointer:
        if size < 0:
            raise SimSegv(tag, f"malloc with negative size {size}")
        alloc = _ReferenceAllocation(self._next_id, self._next_base, size,
                                     tag)
        self._allocations[alloc.alloc_id] = alloc
        self._next_id += 1
        self._next_base += size + _GUARD
        self.bytes_allocated += size
        return ReferencePointer(alloc.base, alloc.alloc_id)

    def malloc_from(self, data: bytes, tag: str = "anon") -> ReferencePointer:
        ptr = self.malloc(len(data), tag)
        alloc = self._allocations[ptr.alloc_id]
        alloc.data[:] = data
        return ptr

    def free(self, ptr: ReferencePointer, site: str = "free") -> None:
        alloc = self._allocations.get(ptr.alloc_id)
        if alloc is None:
            raise SimSegv(site, "free of unknown pointer")
        if alloc.freed:
            raise DoubleFree(site, f"double free of {alloc.tag}")
        alloc.freed = True

    def size_of(self, ptr: ReferencePointer) -> int:
        alloc = self._allocations.get(ptr.alloc_id)
        return alloc.size if alloc is not None else 0

    def _resolve(self, ptr: Optional[ReferencePointer], offset: int,
                 length: int, site: str, write: bool) -> _ReferenceAllocation:
        if ptr is None:
            raise NullDeref(site, "NULL pointer dereference")
        alloc = self._allocations.get(ptr.alloc_id)
        if alloc is None:
            raise SimSegv(site, f"wild pointer {ptr.address:#x}")
        if alloc.freed:
            raise HeapUseAfterFree(
                site, f"{'write' if write else 'read'} of freed "
                      f"{alloc.tag} ({alloc.size} bytes)")
        start = ptr.base_offset + offset
        end = start + length
        if start < 0 or end > alloc.size:
            if start >= alloc.size + _GUARD or start < -_GUARD:
                raise SimSegv(
                    site, f"access at {alloc.base + start:#x}, "
                          f"{start - alloc.size} bytes past {alloc.tag}")
            raise HeapBufferOverflow(
                site, f"{'write' if write else 'read'} of {length} bytes at "
                      f"offset {start} of {alloc.size}-byte {alloc.tag}")
        return alloc

    def read(self, ptr, offset, length, site="read"):
        alloc = self._resolve(ptr, offset, length, site, write=False)
        start = ptr.base_offset + offset
        return bytes(alloc.data[start:start + length])

    def read_u8(self, ptr, offset, site="read"):
        return self.read(ptr, offset, 1, site)[0]

    def read_u16(self, ptr, offset, site="read", endian="big"):
        return int.from_bytes(self.read(ptr, offset, 2, site), endian)

    def read_u32(self, ptr, offset, site="read", endian="big"):
        return int.from_bytes(self.read(ptr, offset, 4, site), endian)

    def write(self, ptr, offset, data, site="write"):
        alloc = self._resolve(ptr, offset, len(data), site, write=True)
        start = ptr.base_offset + offset
        alloc.data[start:start + len(data)] = data

    def write_u8(self, ptr, offset, value, site="write"):
        self.write(ptr, offset, bytes((value & 0xFF,)), site)

    def write_u16(self, ptr, offset, value, site="write", endian="big"):
        self.write(ptr, offset, (value & 0xFFFF).to_bytes(2, endian), site)

    def deref_read(self, address: int, length: int, site: str) -> bytes:
        if address == 0:
            raise NullDeref(site, "NULL pointer dereference")
        for alloc in self._allocations.values():
            if alloc.base <= address < alloc.base + alloc.size:
                if alloc.freed:
                    raise HeapUseAfterFree(site, f"read of freed {alloc.tag}")
                start = address - alloc.base
                if start + length > alloc.size:
                    raise HeapBufferOverflow(
                        site, f"read of {length} bytes at end of {alloc.tag}")
                return bytes(alloc.data[start:start + length])
        raise SimSegv(site, f"SEGV on unknown address {address:#x}")

    def live_allocations(self) -> int:
        return sum(1 for alloc in self._allocations.values()
                   if not alloc.freed)


# ----------------------------------------------------------------------
# operation sequences
# ----------------------------------------------------------------------

class Slot(NamedTuple):
    """An operation argument naming a pointer: an index into the
    pointers made so far (modulo their count), ``"null"`` or
    ``"unknown"`` (an id no allocation has)."""

    which: Union[int, str]


class Edge(NamedTuple):
    """An offset or address *delta* bytes from the ``"start"`` or the
    ``"end"`` of the allocation a pointer points into, resolved on each
    heap, so that most draws land on or next to a bound."""

    edge: str
    delta: int


class Address(NamedTuple):
    """A ``deref_read`` address: 0, an offset (maybe an :class:`Edge`)
    from the pointer in a slot (inside, just before or past its
    allocation, or between two), or *where* past the next allocation's
    base."""

    anchor: Union[int, str]
    where: Union[int, Edge]


SLOTS = st.one_of(st.integers(0, 1000), st.sampled_from(["null", "unknown"])
                  ).map(Slot)
#: on or next to a bound most of the time, out to the SEGV shapes
#: (-300 to size+300) otherwise
EDGES = st.builds(Edge, st.sampled_from(["start", "end"]),
                  st.integers(-3, 3))
OFFSETS = st.one_of(EDGES, st.integers(-300, 340))
LENGTHS = st.one_of(st.integers(-6, 6), st.integers(-6, 44))
VALUES = st.integers(-70_000, 70_000)
ENDIANS = st.sampled_from(["big", "little"])
SITES = st.sampled_from(["site-a", "site-b"])
TAGS = st.sampled_from(["anon", "frame", "table"])
ADDRESSES = st.one_of(
    st.just(Address("zero", 0)),
    st.builds(Address, st.integers(0, 1000), OFFSETS),
    st.builds(Address, st.just("next"), st.integers(-300, 300)),
)

OPERATIONS = st.one_of(
    st.tuples(st.just("malloc"), st.integers(-3, 40), TAGS),
    st.tuples(st.just("malloc_from"), st.binary(max_size=40), TAGS),
    st.tuples(st.just("free"), SLOTS, SITES),
    st.tuples(st.just("read"), SLOTS, OFFSETS, LENGTHS, SITES),
    st.tuples(st.just("read_u8"), SLOTS, OFFSETS, SITES),
    st.tuples(st.just("read_u16"), SLOTS, OFFSETS, SITES, ENDIANS),
    st.tuples(st.just("read_u32"), SLOTS, OFFSETS, SITES, ENDIANS),
    st.tuples(st.just("write"), SLOTS, OFFSETS, st.binary(max_size=12),
              SITES),
    st.tuples(st.just("write_u8"), SLOTS, OFFSETS, VALUES, SITES),
    st.tuples(st.just("write_u16"), SLOTS, OFFSETS, VALUES, SITES, ENDIANS),
    st.tuples(st.just("offset"), SLOTS, st.integers(-300, 300)),
    st.tuples(st.just("deref_read"), ADDRESSES, LENGTHS, SITES),
    st.tuples(st.just("size_of"), SLOTS),
    st.tuples(st.just("live_allocations")),
)


class _Side:
    """One heap, the pointers it has handed out and the ones
    ``malloc``/``malloc_from`` returned, each in order."""

    def __init__(self, heap, pointer_type):
        self.heap = heap
        self.pointer_type = pointer_type
        self.pointers = []
        self.allocations = []

    def pointer(self, slot):
        if slot.which == "null" or not self.pointers:
            return None
        if slot.which == "unknown":
            return self.pointer_type(0xDEAD_0000, 10_000)
        return self.pointers[slot.which % len(self.pointers)]

    def offset(self, ptr, where):
        """*where* as an offset from *ptr*."""
        if not isinstance(where, Edge):
            return where
        if ptr is None:
            return where.delta
        start = -ptr.base_offset
        if where.edge == "end":
            start += self.heap.size_of(ptr)
        return start + where.delta

    def address(self, address):
        if address.anchor == "zero":
            return 0
        if address.anchor == "next":
            return self.heap._next_base + address.where
        ptr = self.pointer(Slot(address.anchor))
        if ptr is None:
            return _BASE_ADDRESS + self.offset(None, address.where)
        return ptr.address + self.offset(ptr, address.where)

    def apply(self, operation):
        """Run *operation*; its outcome in comparable form."""
        name, *args = operation
        args = [self.pointer(arg) if isinstance(arg, Slot)
                else self.address(arg) if isinstance(arg, Address)
                else arg for arg in args]
        args = [self.offset(args[0], arg) if isinstance(arg, Edge) else arg
                for arg in args]
        try:
            if name == "offset":
                value = args[0].offset(args[1])
            else:
                value = getattr(self.heap, name)(*args)
        except MemoryFault as fault:
            return ("fault", type(fault), fault.site, fault.detail)
        except (AttributeError, TypeError) as exc:  # e.g. free(NULL)
            return ("error", type(exc), str(exc))
        if isinstance(value, self.pointer_type):
            self.pointers.append(value)
            if name != "offset":
                self.allocations.append(value)
            return ("pointer", value.address, value.alloc_id,
                    value.base_offset)
        return ("value", type(value), value)


def _contents(side):
    """Every allocation's bytes, or the fault of reading them, through
    the public API (so the suite runs on any heap layout)."""
    heap = side.heap
    contents = [heap.live_allocations()]
    for ptr in side.allocations:
        try:
            contents.append(heap.read(ptr, 0, heap.size_of(ptr)))
        except MemoryFault as fault:
            contents.append((type(fault), fault.detail))
    return contents


def _assert_lockstep(operations):
    """Run *operations* on both heaps; the fault shapes they reached
    (class and first word of the detail)."""
    reference = _Side(ReferenceHeap(), ReferencePointer)
    heap = _Side(SimHeap(), Pointer)
    shapes = set()
    for operation in operations:
        expected = reference.apply(operation)
        assert heap.apply(operation) == expected, operation
        assert _contents(heap) == _contents(reference), operation
        if expected[0] == "fault":
            shapes.add((expected[1], expected[3].split(" ")[0]))
    return shapes


ALLOCATIONS = st.one_of(
    st.tuples(st.just("malloc"), st.integers(0, 40), TAGS),
    st.tuples(st.just("malloc_from"), st.binary(max_size=40), TAGS),
)


@given(st.lists(ALLOCATIONS, min_size=1, max_size=4),
       st.lists(OPERATIONS, min_size=1, max_size=60))
@settings(max_examples=400, deadline=None)
def test_operation_sequences_match_the_reference(allocations, operations):
    _assert_lockstep(allocations + operations)


#: every offset on, next to and just across a bound, redzone included
_EDGES = ([Edge(edge, delta) for edge in ("start", "end")
           for delta in range(-3, 4)]
          + [Edge("start", -_GUARD - 1), Edge("start", -_GUARD),
             Edge("end", _GUARD - 1), Edge("end", _GUARD)])


def _accesses(slot):
    """Every accessor, at every edge offset, through *slot*."""
    for where in _EDGES:
        for length in range(-2, 7):
            yield ("read", slot, where, length, "grid")
        for length in range(6):
            yield ("write", slot, where, bytes(range(9, 9 + length)), "grid")
        yield ("read_u8", slot, where, "grid")
        yield ("write_u8", slot, where, 0x1FE, "grid")
        for endian in ("big", "little"):
            yield ("read_u16", slot, where, "grid", endian)
            yield ("read_u32", slot, where, "grid", endian)
            yield ("write_u16", slot, where, 0x1BEEF, "grid", endian)
    for where in _EDGES:
        for length in range(-2, 7):
            yield ("deref_read", Address(slot.which, where), length, "grid")


def test_every_bound_matches_the_reference():
    """A grid rather than a search: each accessor at each offset around
    both bounds of allocations of 0-5 bytes, through base and interior
    pointers, live and freed, so an off-by-one in any one bound fails
    here on every run, and every fault shape occurs."""
    sizes = range(6)
    grid = [("malloc_from", bytes(range(1, size + 1)), "buf")
            for size in sizes]
    grid += [("offset", Slot(size), 2) for size in sizes]
    for slot in range(2 * len(sizes)):
        grid += _accesses(Slot(slot))
    grid += [("free", Slot(size), "grid") for size in (3, 4)]
    for slot in (3, 4, 9, 10, "null", "unknown"):
        grid += _accesses(Slot(slot))
    grid += [("free", Slot(3), "twice"), ("free", Slot("unknown"), "grid"),
             ("malloc", -1, "grid")]
    assert _assert_lockstep(grid) == {
        (HeapBufferOverflow, "read"), (HeapBufferOverflow, "write"),
        (SimSegv, "access"), (NullDeref, "NULL"), (SimSegv, "wild"),
        (HeapUseAfterFree, "read"), (HeapUseAfterFree, "write"),
        (DoubleFree, "double"), (SimSegv, "free"), (SimSegv, "SEGV"),
        (SimSegv, "malloc"),
    }


# ----------------------------------------------------------------------
# executions: the protocol targets on either heap
# ----------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _release_monitoring():
    yield
    MonitoringCollector.release()


@pytest.fixture
def on_reference_heap(monkeypatch):
    """Call a function with the reference heap behind every session."""
    def call(function, *args):
        with monkeypatch.context() as patch:
            patch.setattr(target_module, "SimHeap", ReferenceHeap)
            return function(*args)
    return call


def _packets(spec, count, seed=1):
    rng = random.Random(seed)
    pit = spec.make_pit()
    packets = []
    for _ in range(count):
        model = choose_model(pit, rng)
        packets.append((generate_packet(model, rng)[1], model.name))
    return packets


def _crash(report):
    if report is None:
        return None
    return report.kind, report.site, report.detail, report.call_sites


def _state(collector):
    coverage_map = collector.map
    return (list(coverage_map.journal), bytes(coverage_map.counts),
            coverage_map._prev, collector.blocks_executed)


@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_generated_packets_execute_like_the_reference(spec,
                                                      on_reference_heap):
    target = Target(spec.make_server, make_line_collector(PREFIXES))
    reference = Target(spec.make_server, make_line_collector(PREFIXES))
    for packet, model_name in _packets(spec, PACKETS):
        result = target.run(packet, model_name)
        state = _state(target.collector)
        expected = on_reference_heap(reference.run, packet, model_name)
        assert (result.hang, result.response, _crash(result.crash)) == \
            (expected.hang, expected.response, _crash(expected.crash)), \
            packet.hex()
        assert state == _state(reference.collector), packet.hex()


@pytest.mark.parametrize("target_name", ["iec104", "libmodbus", "lib60870"])
def test_session_traces_execute_like_the_reference(target_name,
                                                   on_reference_heap):
    """The steps of a trace share one heap, so allocations made by one
    step are live, or freed, in the next."""
    spec = get_target(target_name)
    config = CampaignConfig(budget_hours=24.0, max_executions=PACKETS,
                            record_every=50, sessions=True)
    engine = make_engine("peach-star", spec, 3, config)
    reference = Target(spec.make_server, make_line_collector(PREFIXES))
    run_trace = engine.target.run_trace
    steps_run = []

    def checked(steps, binder=None):
        result = run_trace(steps, binder)
        state = _state(engine.target.collector)
        models = [model_name for _, model_name in steps]
        expected = on_reference_heap(reference.run_trace,
                                     list(zip(result.sent, models)))
        assert _trace(result) == _trace(expected)
        assert state == _state(reference.collector)
        steps_run.append(result.steps_executed)
        return result

    engine.target.run_trace = checked
    run_campaign("peach-star", spec, seed=3, config=config, engine=engine)
    assert sum(steps_run) >= PACKETS and max(steps_run) > 1


def _trace(result):
    return (result.steps_executed, result.crash_step, result.hang,
            result.responses, _crash(result.crash), result.blocks_executed,
            list(result.coverage.journal), bytes(result.coverage.counts))
