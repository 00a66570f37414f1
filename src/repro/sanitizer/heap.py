"""SimHeap: a bounds- and lifetime-checked simulated C heap.

The six protocol targets are written "C style": they ``malloc`` buffers
for incoming frames and decoded structures and access them through the
checked accessors here.  Malformed packets that would corrupt memory in
the original C implementations therefore surface as typed
:class:`~repro.sanitizer.errors.MemoryFault` exceptions, which the target
harness converts into ASan-style crash reports.

Address layout: each allocation receives a virtual base address inside a
sparse 32-bit space with guard gaps between allocations.  Reads slightly
past an allocation hit the redzone (heap-buffer-overflow), while computed
wild addresses (e.g. a table index taken from an unchecked packet field)
fall outside every mapping and raise SEGV — matching how ASan actually
classifies the two failure shapes the paper's Table I reports.

Cost: every heap operation that succeeds enters exactly one Python
frame.  The line collectors trace only ``repro/protocols``, but under
``sys.settrace`` each frame entered anywhere is still a call event the
collector pays for, and the targets call this module on almost every
line that touches a packet.  So each checked accessor does its NULL,
lifetime and bounds checks inline, the way ASan's compiler pass inlines
a shadow-memory check at each load and store, and only a failed check
calls :meth:`SimHeap._fault`, the one out-of-line path that classifies
and raises an access fault (ASan's report call).  ``malloc`` and
``malloc_from`` build their records with ``tuple.__new__``, which runs
no Python ``__init__``, and lifetime is which of two dicts holds a
record, so the fast path is one ``dict.get`` plus the bounds test.
``tests/sanitizer/test_heap_reference.py`` keeps the helper-call heap
this replaced as an oracle and pins parity with it (return values,
bytes, fault class, site and detail); ``tests/sanitizer/test_heap.py``
pins the one-frame budget.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, NamedTuple, NoReturn, Optional

from repro.sanitizer.errors import (
    DoubleFree, HeapBufferOverflow, HeapUseAfterFree, NullDeref, SimSegv,
)

_BASE_ADDRESS = 0x1000_0000
_GUARD = 0x100  # redzone gap between allocations


class Pointer(NamedTuple):
    """A typed pointer into the simulated heap.

    Supports C-style pointer arithmetic via :meth:`offset`; the result
    stays tied to the same allocation, so out-of-bounds accesses are
    caught relative to the original object, like ASan's shadow memory.
    """

    address: int
    alloc_id: int
    base_offset: int = 0

    def offset(self, delta: int) -> "Pointer":
        return _pointer((self.address + delta, self.alloc_id,
                         self.base_offset + delta))


class _Allocation(NamedTuple):
    alloc_id: int
    base: int
    size: int
    data: bytearray
    tag: str


# C-level constructors: ``Pointer(...)`` would run the generated Python
# ``__new__``, one more traced frame per allocation
_pointer = partial(tuple.__new__, Pointer)
_allocation = partial(tuple.__new__, _Allocation)


class SimHeap:
    """The simulated heap; one per target execution."""

    def __init__(self):
        #: alloc id -> record; a freed record moves to ``_freed``
        self._live: Dict[int, _Allocation] = {}
        self._freed: Dict[int, _Allocation] = {}
        self._next_id = 1
        self._next_base = _BASE_ADDRESS

    # -- allocation ----------------------------------------------------------

    def malloc(self, size: int, tag: str = "anon") -> Pointer:
        """Allocate *size* bytes; returns a :class:`Pointer` to offset 0."""
        if size < 0:
            raise SimSegv(tag, f"malloc with negative size {size}")
        alloc_id, base = self._next_id, self._next_base
        self._live[alloc_id] = _allocation(
            (alloc_id, base, size, bytearray(size), tag))
        self._next_id = alloc_id + 1
        self._next_base = base + size + _GUARD
        return _pointer((base, alloc_id, 0))

    def malloc_from(self, data: bytes, tag: str = "anon") -> Pointer:
        """Allocate and initialise from *data* (the C idiom of copying a
        received frame into a fresh buffer)."""
        size = len(data)
        alloc_id, base = self._next_id, self._next_base
        self._live[alloc_id] = _allocation(
            (alloc_id, base, size, bytearray(data), tag))
        self._next_id = alloc_id + 1
        self._next_base = base + size + _GUARD
        return _pointer((base, alloc_id, 0))

    def free(self, ptr: Pointer, site: str = "free") -> None:
        alloc = self._live.pop(ptr.alloc_id, None)
        if alloc is None:
            freed = self._freed.get(ptr.alloc_id)
            if freed is None:
                raise SimSegv(site, "free of unknown pointer")
            raise DoubleFree(site, f"double free of {freed.tag}")
        self._freed[alloc.alloc_id] = alloc

    def size_of(self, ptr: Pointer) -> int:
        alloc = (self._live.get(ptr.alloc_id)
                 or self._freed.get(ptr.alloc_id))
        return alloc.size if alloc is not None else 0

    # -- checked access ------------------------------------------------------
    #
    # Each accessor repeats the same inline check: a live record, then
    # ``0 <= start`` and ``start + length <= size``.  Anything else is
    # handed to ``_fault``.  Keep it that way: a helper call here is a
    # traced frame on every access (``TestFrameBudget`` counts them).

    def _fault(self, ptr: Optional[Pointer], offset: int, length: int,
               site: str, access: str) -> NoReturn:
        """Raise the fault of a checked *access* (``"read"`` or
        ``"write"``) that failed its inline check."""
        if ptr is None:
            raise NullDeref(site, "NULL pointer dereference")
        alloc = self._live.get(ptr.alloc_id)
        if alloc is None:
            freed = self._freed.get(ptr.alloc_id)
            if freed is None:
                raise SimSegv(site, f"wild pointer {ptr.address:#x}")
            raise HeapUseAfterFree(
                site, f"{access} of freed {freed.tag} ({freed.size} bytes)")
        start = ptr.base_offset + offset
        # Small overshoot lands in the redzone; large overshoot flies
        # past every mapping — the SEGV shape of Table I.
        if start >= alloc.size + _GUARD or start < -_GUARD:
            raise SimSegv(
                site, f"access at {alloc.base + start:#x}, "
                      f"{start - alloc.size} bytes past {alloc.tag}")
        raise HeapBufferOverflow(
            site, f"{access} of {length} bytes at offset {start} of "
                  f"{alloc.size}-byte {alloc.tag}")

    def read(self, ptr: Pointer, offset: int, length: int,
             site: str = "read") -> bytes:
        """Bounds/lifetime-checked read of *length* bytes."""
        if ptr is not None:
            alloc = self._live.get(ptr.alloc_id)
            if alloc is not None:
                start = ptr.base_offset + offset
                end = start + length
                if start >= 0 and end <= alloc.size:
                    return bytes(alloc.data[start:end])
        self._fault(ptr, offset, length, site, "read")

    def read_u8(self, ptr: Pointer, offset: int, site: str = "read") -> int:
        if ptr is not None:
            alloc = self._live.get(ptr.alloc_id)
            if alloc is not None:
                start = ptr.base_offset + offset
                if start >= 0 and start + 1 <= alloc.size:
                    return alloc.data[start]
        self._fault(ptr, offset, 1, site, "read")

    def read_u16(self, ptr: Pointer, offset: int, site: str = "read",
                 endian: str = "big") -> int:
        if ptr is not None:
            alloc = self._live.get(ptr.alloc_id)
            if alloc is not None:
                start = ptr.base_offset + offset
                end = start + 2
                if start >= 0 and end <= alloc.size:
                    return int.from_bytes(alloc.data[start:end], endian)
        self._fault(ptr, offset, 2, site, "read")

    def read_u32(self, ptr: Pointer, offset: int, site: str = "read",
                 endian: str = "big") -> int:
        if ptr is not None:
            alloc = self._live.get(ptr.alloc_id)
            if alloc is not None:
                start = ptr.base_offset + offset
                end = start + 4
                if start >= 0 and end <= alloc.size:
                    return int.from_bytes(alloc.data[start:end], endian)
        self._fault(ptr, offset, 4, site, "read")

    def write(self, ptr: Pointer, offset: int, data: bytes,
              site: str = "write") -> None:
        """Bounds/lifetime-checked write."""
        length = len(data)
        if ptr is not None:
            alloc = self._live.get(ptr.alloc_id)
            if alloc is not None:
                start = ptr.base_offset + offset
                end = start + length
                if start >= 0 and end <= alloc.size:
                    alloc.data[start:end] = data
                    return
        self._fault(ptr, offset, length, site, "write")

    def write_u8(self, ptr: Pointer, offset: int, value: int,
                 site: str = "write") -> None:
        value &= 0xFF
        if ptr is not None:
            alloc = self._live.get(ptr.alloc_id)
            if alloc is not None:
                start = ptr.base_offset + offset
                if start >= 0 and start + 1 <= alloc.size:
                    alloc.data[start] = value
                    return
        self._fault(ptr, offset, 1, site, "write")

    def write_u16(self, ptr: Pointer, offset: int, value: int,
                  site: str = "write", endian: str = "big") -> None:
        raw = (value & 0xFFFF).to_bytes(2, endian)
        if ptr is not None:
            alloc = self._live.get(ptr.alloc_id)
            if alloc is not None:
                start = ptr.base_offset + offset
                end = start + 2
                if start >= 0 and end <= alloc.size:
                    alloc.data[start:end] = raw
                    return
        self._fault(ptr, offset, 2, site, "write")

    # -- raw address access (for computed/wild pointers) -----------------------

    def deref_read(self, address: int, length: int, site: str) -> bytes:
        """Read through a *computed* address, e.g. ``base + index * size``
        where ``index`` came straight from a packet field.

        Addresses inside a live allocation succeed; anything else is the
        "bad address operation" of the paper's Listing 2 — SEGV.  Address
        ranges never overlap, so at most one record, live or freed, holds
        *address*.
        """
        if address == 0:
            raise NullDeref(site, "NULL pointer dereference")
        for alloc in self._live.values():
            if alloc.base <= address < alloc.base + alloc.size:
                start = address - alloc.base
                if start + length > alloc.size:
                    raise HeapBufferOverflow(
                        site, f"read of {length} bytes at end of {alloc.tag}")
                return bytes(alloc.data[start:start + length])
        for alloc in self._freed.values():
            if alloc.base <= address < alloc.base + alloc.size:
                raise HeapUseAfterFree(site, f"read of freed {alloc.tag}")
        raise SimSegv(site, f"SEGV on unknown address {address:#x}")

    def live_allocations(self) -> int:
        """Count of not-yet-freed allocations (leak checking in tests)."""
        return len(self._live)
