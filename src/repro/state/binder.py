"""TraceBinder: response-derived bindings applied at execution time.

The honest-prefix problem of sequence fuzzing: when step *k* of a stored
trace is mutated, the server's state at step *k+1* changes — sequence
numbers advance differently, transaction ids differ — and a byte-exact
replay of the stored suffix silently de-synchronizes.  AFLNet tolerates
this; Peach-style models can do better because the format specification
is available: each step carries *bind* declarations (outgoing leaf <-
session variable) and *capture* declarations (session variable <-
response leaf), copied from the state-model transition that emitted it.

Before a step is sent, :meth:`TraceBinder.prepare` parses the stored
packet under its data model, overwrites the bound leaves with the
session variables' current values, and re-builds the packet through
``DataModel.build`` — the existing Relation/Fixup pipeline — so lengths
and checksums stay correct around the injected values.  After the
server replies, :meth:`TraceBinder.observe` parses the response under
the step's *expect* model and captures the declared leaves.  Both
directions are best-effort: a packet (or response) that does not parse
is passed through untouched, because malformedness is frequently the
point of the trace.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.fixup_engine import TreeEchoProvider
from repro.model.datamodel import Pit
from repro.model.fields import ModelError, ParseError
from repro.state.trace import TraceStep


def apply_pins(model, tree, pins: Mapping[str, object]) -> Tuple[object, bytes]:
    """Overwrite pinned leaves of a freshly built *tree* and rebuild.

    The rebuild runs through ``DataModel.build``'s Relation/Fixup
    pipeline, so sizes and checksums stay honest around the pinned
    values (the same repair path :meth:`TraceBinder.prepare` uses for
    session-variable bindings).  Returns the (possibly new) tree and its
    wire bytes; a pin set that cannot be applied leaves the packet
    untouched rather than failing the walk.
    """
    undo = []
    for leaf, value in sorted(pins.items()):
        node = tree.find(leaf)
        if node is not None and node.is_leaf:
            undo.append((node, node.value))
            node.value = value
    if not undo:
        return tree, model.to_wire(tree)
    try:
        rebuilt = model.build(TreeEchoProvider(tree))
        return rebuilt, model.to_wire(rebuilt)
    except (ModelError, ParseError, ValueError, OverflowError,
            TypeError, AttributeError):
        # un-appliable pin set (bad value type included): revert the
        # leaf edits so the returned tree stays consistent with the
        # (original) wire bytes
        for node, value in undo:
            node.value = value
        return tree, model.to_wire(tree)


class TraceBinder:
    """Session-variable flow for one trace execution."""

    def __init__(self, pit: Pit, steps: Sequence[TraceStep]):
        self.pit = pit
        self.steps = list(steps)
        self.vars: Dict[str, object] = {}

    def _model(self, name: Optional[str]):
        if not name:
            return None
        try:
            return self.pit.model(name)
        except ModelError:
            return None

    # -- outgoing --------------------------------------------------------

    def prepare(self, index: int, packet: bytes) -> bytes:
        """The wire bytes to actually send for step *index*."""
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
            # the packet does not round-trip the Relation/Fixup pipeline
            # (truncated/mutated framing): rebuilding would "repair" it
            # into something else entirely — its malformedness is the
            # payload, so it goes out verbatim
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

    # -- incoming --------------------------------------------------------

    def observe(self, index: int, response: Optional[bytes]) -> None:
        """Capture session variables from step *index*'s response."""
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


class LaneBinder:
    """Per-lane session variables for a concurrency-N trace.

    With ``--concurrency N`` step *i* of a trace travels on connection
    ``i % N`` (see :meth:`repro.net.target.SocketTarget._deliver`), so
    the steps of one wire session are the index residue class — and
    their session variables must not leak across lanes: connection A's
    captured sequence number is meaningless to connection B.  LaneBinder
    holds one :class:`TraceBinder` per lane over the *full* step list
    (indices stay global) and routes ``prepare``/``observe`` by the same
    ``index % lanes`` rule the transport deals by.
    """

    def __init__(self, pit: Pit, steps: Sequence[TraceStep],
                 lanes: int):
        if lanes < 1:
            raise ValueError(f"lanes {lanes} < 1")
        self.lanes = lanes
        self._binders = [TraceBinder(pit, steps) for _ in range(lanes)]

    @property
    def vars(self) -> Dict[str, object]:
        """Lane 0's variables (the single-lane-compatible view)."""
        return self._binders[0].vars

    def prepare(self, index: int, packet: bytes) -> bytes:
        return self._binders[index % self.lanes].prepare(index, packet)

    def observe(self, index: int, response: Optional[bytes]) -> None:
        self._binders[index % self.lanes].observe(index, response)
