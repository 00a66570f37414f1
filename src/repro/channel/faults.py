"""The channel seam: what happens to a frame between fuzzer and target.

The paper's evaluation (and every campaign before this subsystem)
assumes a perfect transport: the bytes the engine emits are exactly the
bytes the server parses.  Real ICS deployments run over lossy serial
links and TCP middleboxes, and the interesting server bugs — stale
retransmission handling, sequence-number confusion, length/framing
desynchronization — only trigger when the transport misbehaves.

:class:`FaultingChannel` is the seam
:meth:`repro.runtime.target.Target.run` / ``run_trace`` consult per
step (``channel=None`` is the perfect transport).  It injects one of
five classic transport faults per frame, driven by its own seeded RNG
so campaigns stay deterministic and kill/resume stays bit-identical
(the RNG state checkpoints with the workspace).  At rate 0 it is the
pinned byte-identical passthrough (parity-tested against the
channel-less path).

The fault menu mirrors what a fuzzing proxy can do in flight:

* **drop** — the frame never arrives;
* **duplicate** — the frame arrives twice (TCP retransmission);
* **reorder** — the frame is held and delivered *after* its successor
  (adjacent swap; a held frame still pending at trace end is delivered
  by :meth:`FaultingChannel.flush`);
* **fragment** — the frame arrives as two reads split at a random cut
  (stream framing without message boundaries);
* **corrupt** — one random bit flips in flight (serial-line noise);
* **burst** (opt-in, ``--channel-faults-burst N``) — a run of 2..N
  consecutive frames vanishes outright (link outage / middlebox reset).
  The run length is drawn once at burst start and the continuation
  frames spend no RNG draws, so the draw sequence stays a pure function
  of the checkpointed RNG state.  With ``burst == 0`` the selection
  roll space is unchanged, keeping pre-burst seeded campaigns
  bit-identical.

Corrupt and fragment are the levers generation-based fuzzing cannot
reach by construction: token fields (start bytes) are never mutated and
length relations are always recomputed, so a generated packet is always
honestly framed — only the channel can present the server with a bad
start byte or a length octet that disagrees with the read.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional


#: fault menu, in the order the selection roll indexes it
FAULT_KINDS = ("drop", "duplicate", "reorder", "fragment", "corrupt")


class FaultingChannel:
    """Seeded per-frame fault injection.

    ``transmit(index, wire)`` returns the frames to deliver *now* (in
    order); ``flush()`` returns frames still held at the trace
    boundary; ``reset()`` clears per-trace state (never the RNG).
    Every frame costs exactly one uniform roll against *rate*; a
    faulted frame costs the selection roll plus the fault's own draws.
    The draw sequence is a pure function of the RNG state and the frame
    sizes, so a campaign with a faulting channel is as deterministic as
    one without — checkpointing the RNG state (``snapshot``/``restore``)
    is all kill/resume needs.
    """

    def __init__(self, rate: float, rng: random.Random, burst: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate {rate!r} not in [0, 1]")
        if burst < 0:
            raise ValueError(f"burst length {burst!r} < 0")
        self.rate = rate
        self.rng = rng
        #: maximum burst-loss run length; 0 disables the burst fault and
        #: keeps the selection-roll space identical to pre-burst builds,
        #: so existing seeded campaigns stay bit-identical
        self.burst = burst
        #: frames still to drop in the current burst run (no RNG draws
        #: are spent on them — the run length was drawn at burst start)
        self._burst_remaining = 0
        #: frame held back by a pending reorder (delivered after the
        #: next frame, or by flush() at the trace boundary)
        self._held: Optional[bytes] = None
        self.fault_counts: Dict[str, int] = {kind: 0
                                             for kind in FAULT_KINDS}
        self.fault_counts["burst"] = 0

    @property
    def faults_injected(self) -> int:
        """Faults injected so far, of every kind."""
        return sum(self.fault_counts.values())

    # -- fault application ------------------------------------------------

    def _menu(self) -> tuple:
        return FAULT_KINDS + ("burst",) if self.burst > 0 else FAULT_KINDS

    def transmit(self, index: int, wire: bytes) -> List[bytes]:
        if self._burst_remaining > 0:
            # mid-burst: this frame is lost outright, no rolls spent
            self._burst_remaining -= 1
            self.fault_counts["burst"] += 1
            frames: List[bytes] = []
            if self._held is not None:
                frames.append(self._held)
                self._held = None
            return frames
        fault = None
        if self.rng.random() < self.rate:
            menu = self._menu()
            fault = menu[self.rng.randrange(len(menu))]
        frames = self._apply(fault, wire)
        # a previously held frame lands right after this step's frames:
        # the adjacent swap that makes "reorder" mean what it says
        if self._held is not None and fault != "reorder":
            frames.append(self._held)
            self._held = None
        return frames

    def _apply(self, fault: Optional[str], wire: bytes) -> List[bytes]:
        if fault is None:
            return [wire]
        if fault == "reorder" and self._held is not None:
            # only one frame can be in flight; degrade to passthrough
            # (no count — nothing was injected)
            return [wire]
        if fault == "fragment" and len(wire) < 2:
            return [wire]  # nothing to split
        if fault == "corrupt" and not wire:
            return [wire]
        self.fault_counts[fault] += 1
        if fault == "drop":
            return []
        if fault == "duplicate":
            return [wire, wire]
        if fault == "reorder":
            self._held = wire
            return []
        if fault == "fragment":
            cut = self.rng.randint(1, len(wire) - 1)
            return [wire[:cut], wire[cut:]]
        if fault == "burst":
            # a loss burst: this frame and the next (length - 1) frames
            # all vanish (link outage / middlebox reset).  The run
            # length is drawn now; continuation drops spend no rolls.
            length = self.rng.randint(2, max(2, self.burst))
            self._burst_remaining = length - 1
            return []
        # corrupt: flip one random bit in flight
        position = self.rng.randrange(len(wire))
        bit = 1 << self.rng.randrange(8)
        mutated = bytearray(wire)
        mutated[position] ^= bit
        return [bytes(mutated)]

    def flush(self) -> List[bytes]:
        if self._held is None:
            return []
        held, self._held = self._held, None
        return [held]

    def reset(self) -> None:
        """Clear held frames at a trace boundary (RNG is untouched)."""
        self._held = None
        self._burst_remaining = 0

    # -- checkpointing ----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe state for the workspace checkpoint.

        The held frame is snapshotted for completeness, but campaigns
        always checkpoint *between* iterations — traces execute
        atomically inside ``iterate()`` and both target entry points
        flush at the boundary — so it is ``None`` at every checkpoint.
        """
        version, internal, gauss = self.rng.getstate()
        return {
            "rate": self.rate,
            "rng_state": [version, list(internal), gauss],
            "held": self._held.hex() if self._held is not None else None,
            "faults_injected": self.faults_injected,
            "fault_counts": dict(self.fault_counts),
            "burst": self.burst,
            "burst_remaining": self._burst_remaining,
        }

    def restore(self, blob: dict) -> None:
        version, internal, gauss = blob["rng_state"]
        self.rng.setstate((version, tuple(internal), gauss))
        self.rate = blob["rate"]
        held = blob.get("held")
        self._held = bytes.fromhex(held) if held is not None else None
        counts = blob.get("fault_counts", {})
        for kind in (*FAULT_KINDS, "burst"):
            self.fault_counts[kind] = counts.get(kind, 0)
        self.burst = blob.get("burst", 0)
        self._burst_remaining = blob.get("burst_remaining", 0)
