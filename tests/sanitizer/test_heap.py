"""Unit tests for the simulated heap (the ASan analog)."""

import sys
from functools import partial

import pytest

from repro.sanitizer import (
    DoubleFree, HeapBufferOverflow, HeapUseAfterFree, NullDeref, Pointer,
    SimHeap, SimSegv,
)


class TestBasicAllocation:
    def test_malloc_read_write_roundtrip(self):
        heap = SimHeap()
        ptr = heap.malloc(8, "buf")
        heap.write(ptr, 0, b"\x01\x02\x03")
        assert heap.read(ptr, 0, 3) == b"\x01\x02\x03"
        assert heap.read(ptr, 3, 5) == b"\x00" * 5

    def test_malloc_from_initializes(self):
        heap = SimHeap()
        ptr = heap.malloc_from(b"hello")
        assert heap.read(ptr, 0, 5) == b"hello"
        assert heap.size_of(ptr) == 5

    def test_typed_reads(self):
        heap = SimHeap()
        ptr = heap.malloc_from(b"\x01\x02\x03\x04")
        assert heap.read_u8(ptr, 0) == 1
        assert heap.read_u16(ptr, 0) == 0x0102
        assert heap.read_u16(ptr, 0, endian="little") == 0x0201
        assert heap.read_u32(ptr, 0) == 0x01020304

    def test_typed_writes(self):
        heap = SimHeap()
        ptr = heap.malloc(4)
        heap.write_u16(ptr, 0, 0xBEEF)
        heap.write_u8(ptr, 2, 0x7F)
        assert heap.read(ptr, 0, 3) == b"\xbe\xef\x7f"

    def test_pointer_offset_arithmetic(self):
        heap = SimHeap()
        ptr = heap.malloc_from(b"abcdef")
        shifted = ptr.offset(2)
        assert heap.read(shifted, 0, 2) == b"cd"
        assert shifted.address == ptr.address + 2

    def test_allocations_do_not_overlap(self):
        heap = SimHeap()
        a = heap.malloc(16)
        b = heap.malloc(16)
        assert b.address >= a.address + 16

    def test_live_allocation_count(self):
        heap = SimHeap()
        a = heap.malloc(4)
        heap.malloc(4)
        assert heap.live_allocations() == 2
        heap.free(a)
        assert heap.live_allocations() == 1


class TestFaults:
    def test_read_past_end_is_heap_buffer_overflow(self):
        heap = SimHeap()
        ptr = heap.malloc(4, "small")
        with pytest.raises(HeapBufferOverflow) as exc:
            heap.read(ptr, 2, 4, "site-x")
        assert exc.value.site == "site-x"
        assert exc.value.kind == "heap-buffer-overflow"

    def test_write_past_end_is_heap_buffer_overflow(self):
        heap = SimHeap()
        ptr = heap.malloc(4)
        with pytest.raises(HeapBufferOverflow):
            heap.write(ptr, 0, b"\x00" * 8, "site-w")

    def test_far_out_of_bounds_is_segv(self):
        heap = SimHeap()
        ptr = heap.malloc(4)
        with pytest.raises(SimSegv):
            heap.read(ptr, 5000, 1, "site-far")

    def test_use_after_free_read(self):
        heap = SimHeap()
        ptr = heap.malloc(4, "victim")
        heap.free(ptr)
        with pytest.raises(HeapUseAfterFree) as exc:
            heap.read(ptr, 0, 1, "uaf-site")
        assert "victim" in exc.value.detail

    def test_use_after_free_write(self):
        heap = SimHeap()
        ptr = heap.malloc(4)
        heap.free(ptr)
        with pytest.raises(HeapUseAfterFree):
            heap.write(ptr, 0, b"x", "uaf-w")

    def test_double_free(self):
        heap = SimHeap()
        ptr = heap.malloc(4)
        heap.free(ptr)
        with pytest.raises(DoubleFree):
            heap.free(ptr)

    def test_null_deref(self):
        heap = SimHeap()
        with pytest.raises(NullDeref):
            heap.read(None, 0, 1, "null-site")

    def test_negative_malloc_is_segv(self):
        heap = SimHeap()
        with pytest.raises(SimSegv):
            heap.malloc(-1)

    def test_null_deref_is_a_segv_subclass(self):
        assert issubclass(NullDeref, SimSegv)
        assert NullDeref("s").kind == "SEGV"


class TestDerefRead:
    def test_deref_inside_live_allocation(self):
        heap = SimHeap()
        ptr = heap.malloc_from(b"\xAA\xBB\xCC")
        assert heap.deref_read(ptr.address + 1, 1, "s") == b"\xBB"

    def test_deref_wild_address_is_segv(self):
        heap = SimHeap()
        heap.malloc(4)
        with pytest.raises(SimSegv) as exc:
            heap.deref_read(0xDEAD0000, 1, "wild")
        assert "unknown address" in exc.value.detail

    def test_deref_just_past_allocation_is_segv(self):
        """The CS101_ASDU_getCOT shape: asdu[2] on a 2-byte buffer."""
        heap = SimHeap()
        ptr = heap.malloc_from(b"\x01\x02")
        with pytest.raises(SimSegv):
            heap.deref_read(ptr.address + 2, 1, "getCOT")

    def test_deref_one_before_allocation_is_segv(self):
        """The ts_name_tail shape: name[len-1] with len == 0."""
        heap = SimHeap()
        ptr = heap.malloc(0, "empty-name")
        with pytest.raises(SimSegv):
            heap.deref_read(ptr.address - 1, 1, "tail")

    def test_deref_freed_allocation_is_uaf(self):
        heap = SimHeap()
        ptr = heap.malloc_from(b"xy")
        heap.free(ptr)
        with pytest.raises(HeapUseAfterFree):
            heap.deref_read(ptr.address, 1, "s")

    def test_deref_null_is_segv(self):
        heap = SimHeap()
        with pytest.raises(SimSegv):
            heap.deref_read(0, 1, "null")


class TestPointer:
    def test_fields_repr_and_offset(self):
        ptr = Pointer(0x1000_0000, 3)
        assert (ptr.address, ptr.alloc_id, ptr.base_offset) == \
            (0x1000_0000, 3, 0)
        assert repr(ptr) == \
            "Pointer(address=268435456, alloc_id=3, base_offset=0)"
        moved = ptr.offset(5).offset(-1)
        assert type(moved) is Pointer
        assert moved == Pointer(0x1000_0004, 3, 4)


def _call_events(operation):
    """The ``sys.settrace`` call events of one call of *operation*."""
    events = []

    def tracer(frame, event, arg):
        if event == "call":
            events.append(frame.f_code.co_name)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = operation()
    finally:
        sys.settrace(previous)
    return events, result


class TestFrameBudget:
    """A successful heap operation enters exactly one Python frame.

    The line collectors trace only the protocol modules, but under
    ``sys.settrace`` every frame entered anywhere is a call event they
    pay for, and the targets touch the heap on most lines that read a
    packet.  A helper call on the hot path (a shared ``_resolve``, a
    Python ``__init__``, ``read_u8`` going through ``read``) shows up
    here as a second event.
    """

    @pytest.mark.parametrize("name,args,expected", [
        ("malloc", (8, "buf"), Pointer(0x1000_0104, 2)),
        ("malloc_from", (b"xy", "buf"), Pointer(0x1000_0104, 2)),
        ("read", ("ptr", 1, 2), b"\x02\x03"),
        ("read_u8", ("ptr", 3), 4),
        ("read_u16", ("ptr", 0, "s", "little"), 0x0201),
        ("read_u32", ("ptr", 0), 0x01020304),
        ("write", ("ptr", 1, b"\xff"), None),
        ("write_u8", ("ptr", 0, 0x1AB), None),
        ("write_u16", ("ptr", 2, 0xBEEF), None),
        ("free", ("ptr",), None),
        ("deref_read", (0x1000_0002, 2, "s"), b"\x03\x04"),
        ("size_of", ("ptr",), 4),
        ("live_allocations", (), 1),
    ])
    def test_one_frame_per_successful_operation(self, name, args, expected):
        heap = SimHeap()
        ptr = heap.malloc_from(b"\x01\x02\x03\x04", "buf")
        args = tuple(ptr if arg == "ptr" else arg for arg in args)
        events, result = _call_events(partial(getattr(heap, name), *args))
        assert result == expected
        assert events == [name]

    def test_one_frame_per_pointer_offset(self):
        ptr = SimHeap().malloc(4)
        events, moved = _call_events(partial(ptr.offset, 2))
        assert moved == Pointer(ptr.address + 2, ptr.alloc_id, 2)
        assert events == ["offset"]
