"""DataModel: build packets from construction rules and parse packets back.

A :class:`DataModel` wraps one rule tree (paper Fig. 1) and provides the
two halves the fuzzer needs:

* :meth:`DataModel.build` — instantiate the tree into an
  :class:`~repro.model.instree.InsTree` (GENERATE + JOINT of paper
  Alg. 1), resolving size/count relations and checksum fixups so the
  produced packet is integrity-correct.  Values come from a pluggable
  :class:`ValueProvider`, which is how both the Peach mutators and the
  semantic-aware donor splicing hook in.
* :meth:`DataModel.parse` — the ``PARSE`` of paper Alg. 2: match wire
  bytes against the tree, producing the Instantiation Tree used by the
  File Cracker, or raise :class:`~repro.model.fields.ParseError` when the
  seed is not legal under this model.

Parse keeps the bytes it consumed: each node's ``raw`` is the slice of
the input it matched and its ``offset`` where that slice starts.  Every
exact-width leaf round-trips (``encode(decode(raw)) == raw``: a Number
at its width, a fixed Str whose pad decode strips and encode restores,
a Blob), and a parse that tolerates nothing consumes the input
contiguously, so the slices are exactly the bytes re-encoding the tree
would produce.  A tree a non-strict parse tolerated something in is
re-assembled from re-encoded leaves: a truncated leaf, or a clamped or
unconsumed extent, leaves the slices off the canonical encoding, and
the re-encode normalizes truncated leaves to full width.

A non-strict parse records on its tree whether it *tolerated* anything
(:attr:`~repro.model.instree.InsTree.tolerated`).  Strict and lenient
parsing differ only where the strict path raises; a lenient pass that
took none of those branches followed the path a strict pass would
follow, so its tree is also the strict verdict.  The differential
oracle (:mod:`repro.channel.oracle`) relies on this to settle most
frames with one parse.

Most models fix some token bytes at a fixed offset (a start byte, a
function code).  :meth:`DataModel.tokens_match` checks only those, so
the loops that parse a packet under every model of a pit and keep the
legal trees skip a model whose tokens cannot match without the
recursive parse.  It is never stricter than a strict parse: see its
docstring.

A :class:`Pit` is a named set of data models — "one format specification
usually contains several data models" (paper §II) — typically one per
function code / packet type of a protocol.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.fields import (
    Blob, Block, Choice, Field, ModelError, Number, ParseError, Repeat,
)
from repro.model.instree import InsNode, InsTree


class ValueProvider:
    """Supplies concrete values during :meth:`DataModel.build`.

    The default implementation instantiates every rule with its default
    value — models are written so that this yields a *valid* packet.
    Subclasses (mutation-based generation, donor splicing) override the
    three hooks.
    """

    def leaf_value(self, field: Field, path: str):
        """Return the value for a leaf, or ``None`` to use the default."""
        return None

    def choose_option(self, choice: Choice, path: str) -> int:
        """Return the index of the Choice option to instantiate."""
        return 0

    def repeat_count(self, repeat: Repeat, path: str) -> int:
        """Return how many elements a Repeat should instantiate."""
        return max(repeat.min_count, 1)


DEFAULT_PROVIDER = ValueProvider()


class Transformer:
    """Wire-level transform applied outside the rule tree.

    Mirrors Peach ``<Transformer>``: some protocols post-process the whole
    assembled frame (DNP3 interleaves a CRC every 16 data octets).  The
    logical InsTree stays transform-free; :meth:`DataModel.to_wire` and
    :meth:`DataModel.from_wire` apply/strip it.
    """

    def encode(self, data: bytes) -> bytes:
        return data

    def decode(self, data: bytes) -> bytes:
        return data

    def decode_lenient(self, data: bytes) -> bytes:
        """Best-effort decode for the non-strict parse path.

        Transformers whose strict ``decode`` can reject damaged or
        truncated wire data (e.g. CRC interleaving) override this to
        salvage what they can instead of raising.  Wherever ``decode``
        succeeds this must return the same bytes: the non-strict parse
        tries ``decode`` first and falls back to this only on a
        :class:`ParseError`, which it records as tolerated.
        """
        return self.decode(data)


class _BuildRecord:
    """What one build's instantiation pass saw, in DFS pre-order."""

    __slots__ = ("first", "relations", "fixups")

    def __init__(self):
        # field name -> its first node, the one InsNode.find returns
        self.first: Dict[str, InsNode] = {}
        self.relations: List[InsNode] = []  # relation carriers
        self.fixups: List[InsNode] = []     # fixup carriers


class _ParseState:
    """Mutable cursor shared across the recursive parse."""

    __slots__ = ("data", "extents", "counts", "strict", "enforce_tokens",
                 "tolerated")

    def __init__(self, data: bytes, strict: bool = True,
                 enforce_tokens: bool = True):
        self.data = data
        # target field name -> byte extent announced by a SizeOf carrier
        self.extents: Dict[str, int] = {}
        # target field name -> element count announced by a CountOf carrier
        self.counts: Dict[str, int] = {}
        # False = tolerate leaf constraint violations (triage shrinking
        # needs trees for crashing mutants whose *values* are illegal)
        self.strict = strict
        # False = decode mismatching token bytes instead of rejecting
        # them (the response classifier reads a server reply through a
        # *request* model, whose opcode tokens legitimately differ)
        self.enforce_tokens = enforce_tokens
        # True once the parse took a branch a strict, token-enforcing
        # parse would not: every ``if state.strict`` tolerance and every
        # tolerated token mismatch sets it, and nothing resets it
        self.tolerated = False


class DataModel:
    """One packet type's format: a named rule tree plus wire transformer.

    Parameters
    ----------
    name:
        Model name (e.g. ``"modbus.read_holding_registers"``).
    root:
        Root field, normally a :class:`Block`.
    transformer:
        Optional wire transformer (see :class:`Transformer`).
    weight:
        Relative probability of being CHOOSEn by the fuzzing loop.
    """

    def __init__(self, name: str, root: Field, *,
                 transformer: Optional[Transformer] = None,
                 weight: float = 1.0):
        if not name:
            raise ModelError("data model needs a name")
        self.name = name
        self.root = root
        self.transformer = transformer
        self.weight = weight
        self._linear_cache: Optional[Tuple[Field, ...]] = None
        # (offset, bytes) of the fixed-offset tokens, derived on first use
        self._tokens: Optional[Tuple[Tuple[int, bytes], ...]] = None

    # ------------------------------------------------------------------
    # linear model (paper's M_L)
    # ------------------------------------------------------------------

    def linear(self) -> Tuple[Field, ...]:
        """Leaf construction rules in declaration order (the linear model).

        For :class:`Choice`/:class:`Repeat` sub-trees the default shape is
        used (first option, one element) — matching the paper's Fig. 2(a)
        linearisation of a packet type.
        """
        if self._linear_cache is None:
            leaves: List[Field] = []
            self._linearize(self.root, leaves)
            self._linear_cache = tuple(leaves)
        return self._linear_cache

    def _linearize(self, field: Field, out: List[Field]) -> None:
        if field.is_leaf:
            out.append(field)
        elif isinstance(field, Choice):
            self._linearize(field.children()[0], out)
        elif isinstance(field, Repeat):
            self._linearize(field.element, out)
        else:
            for child in field.children():
                self._linearize(child, out)

    # ------------------------------------------------------------------
    # build (GENERATE + JOINT + relations + fixups)
    # ------------------------------------------------------------------

    def build(self, provider: ValueProvider = DEFAULT_PROVIDER) -> InsTree:
        """Instantiate the tree into an InsTree with correct integrity.

        One recursive pass instantiates every rule and assembles raw
        bytes and offsets (GENERATE + JOINT), recording what relations
        and fixups need.  Size/count relations, then fixups, resolve
        from that record — the same repair pipeline the File Fixup
        module reuses for spliced packets — and a re-join refreshes
        the ancestors of every patched carrier.  Carriers never change
        width, so offsets stay put.
        """
        record = _BuildRecord()
        root = self._build_node(self.root, provider, "", 0, record)
        for node in record.relations:
            relation = node.field.relation
            target = record.first.get(relation.of)
            if target is None:
                raise ModelError(
                    f"{self.name}: relation target {relation.of!r} not found")
            count = len(target.children) if isinstance(target.field, Repeat) \
                else None
            node.value = relation.compute(target.raw, count)
            node.raw = node.field.encode(node.value)
        if record.relations:
            self._assemble(root, 0, encode_leaves=False)
        if record.fixups:
            self._resolve_fixups(root, record)
        return InsTree(self.name, root)

    def build_default(self) -> InsTree:
        """Instantiate every rule with its default value (a valid packet)."""
        return self.build(DEFAULT_PROVIDER)

    def _build_node(self, field: Field, provider: ValueProvider,
                    prefix: str, offset: int,
                    record: _BuildRecord) -> InsNode:
        path = f"{prefix}.{field.name}" if prefix else field.name
        node = InsNode(field, offset=offset)
        # Registered before its children: InsNode.find returns the
        # first match in DFS pre-order, so an ancestor wins a name clash.
        record.first.setdefault(field.name, node)
        if field.is_leaf:
            value = provider.leaf_value(field, path)
            if value is None:
                value = field.default_value()
            node.value = value
            node.raw = field.encode(value)
            if field.relation is not None:
                record.relations.append(node)
            if field.fixup is not None:
                record.fixups.append(node)
            return node
        prefixes = repeat(path)
        if isinstance(field, Choice):
            index = provider.choose_option(field, path)
            options = field.children()
            index = max(0, min(index, len(options) - 1))
            fields = (options[index],)
        elif isinstance(field, Repeat):
            count = provider.repeat_count(field, path)
            count = max(field.min_count, min(count, field.max_count))
            fields = (field.element,) * count
            prefixes = [f"{path}[{i}]" for i in range(count)]
        else:
            fields = field.children()
        children = node.children
        for child_field, child_prefix in zip(fields, prefixes):
            child = self._build_node(child_field, provider, child_prefix,
                                     offset, record)
            children.append(child)
            offset += len(child.raw)
        node.raw = b"".join([child.raw for child in children])
        return node

    def _assemble(self, node: InsNode, offset: int,
                  encode_leaves: bool = True) -> int:
        """Recompute raw/offset bottom-up; return bytes consumed.

        ``encode_leaves=False`` trusts each leaf's existing ``raw``
        instead of re-encoding its value — valid inside :meth:`build`,
        where every mutation site (instantiation, relations, fixups)
        maintains ``raw == field.encode(value)``.  :meth:`parse` calls
        it with the re-encode, and only for a tree it tolerated
        something in: that is what normalizes leniently-decoded
        (truncated) leaves back to canonical width.
        """
        node.offset = offset
        children = node.children
        if not children:
            if encode_leaves:
                if isinstance(node.field, (Block, Choice, Repeat)):
                    node.raw = b""  # empty internal node (Repeat count 0)
                    return 0
                node.raw = node.field.encode(node.value)
            return len(node.raw)
        pos = offset
        parts = []
        for child in children:
            pos += self._assemble(child, pos, encode_leaves)
            parts.append(child.raw)
        node.raw = b"".join(parts)
        return len(node.raw)

    def _resolve_fixups(self, root: InsNode, record: _BuildRecord) -> None:
        # Carriers are leaves, so pre-order is document order; the
        # re-join after each one lets a later fixup covering an earlier
        # carrier see the patched bytes.
        for node in record.fixups:
            fixup = node.field.fixup
            covered = []
            for name in fixup.over:
                target = record.first.get(name)
                if target is None:
                    raise ModelError(
                        f"{self.name}: fixup target {name!r} not found")
                covered.append(target.raw)
            checksum = fixup.compute(b"".join(covered))
            if isinstance(node.field, Number):
                node.value = checksum
                node.raw = node.field.encode(checksum)
            else:
                width = node.field.fixed_width() or 4
                node.value = checksum.to_bytes(width, "big")
                node.raw = node.value
            self._assemble(root, 0, encode_leaves=False)

    # ------------------------------------------------------------------
    # wire codec
    # ------------------------------------------------------------------

    def to_wire(self, tree: InsTree) -> bytes:
        """Serialize an InsTree to wire bytes (applying the transformer)."""
        data = tree.raw
        if self.transformer is not None:
            data = self.transformer.encode(data)
        return data

    def build_bytes(self, provider: ValueProvider = DEFAULT_PROVIDER) -> bytes:
        """Convenience: build and serialize in one step."""
        return self.to_wire(self.build(provider))

    # ------------------------------------------------------------------
    # parse (the PARSE of paper Alg. 2)
    # ------------------------------------------------------------------

    def parse(self, data: bytes, *, verify_fixups: bool = False,
              strict: bool = True, lenient_tokens: bool = False,
              allow_trailing: bool = False) -> InsTree:
        """Match *data* against this model, returning its InsTree.

        Raises :class:`ParseError` when the bytes are not legal under this
        model (wrong token, constraint violation, length mismatch or
        trailing garbage) — the ``LEGAL`` check of paper Alg. 2.

        ``strict=False`` relaxes the leaf *constraint* checks (value
        sets, ranges) while keeping structure and token checks: the
        triage subsystem uses it to crack crashing mutants whose illegal
        field values are exactly why they crash.  Non-strict parsing
        also tolerates *truncation* — leaves decode whatever bytes
        remain (:meth:`~repro.model.fields.Field.decode_lenient`),
        announced extents are clamped to the available data, and greedy
        repeats stop at the cut — so any truncation of a parseable
        packet still yields a (normalized) InsTree.

        ``lenient_tokens=True`` additionally decodes mismatching token
        bytes instead of rejecting them, and ``allow_trailing=True``
        tolerates unconsumed trailing bytes; the state learner's
        response classifier uses both to read server *replies* through
        the request-direction models (a reply legitimately carries a
        different opcode token and may be longer than any request
        shape).  Neither affects the default (enforcing) behaviour the
        cracker, binder and triage paths rely on.

        The returned tree's ``tolerated`` is True when the parse took
        any branch a strict, token-enforcing parse rejects; when it is
        False, ``parse(data)`` returns an identical tree.
        """
        state = _ParseState(data, strict=strict,
                            enforce_tokens=not lenient_tokens)
        transformer = self.transformer
        if transformer is not None:
            if strict:
                data = transformer.decode(data)
            else:
                try:
                    data = transformer.decode(data)
                except ParseError:
                    data = transformer.decode_lenient(data)
                    state.tolerated = True
            state.data = data
        node, pos = self._parse_node(self.root, state, 0, len(data))
        if pos != len(data) and not allow_trailing:
            raise ParseError(
                f"{self.name}: {len(data) - pos} trailing bytes")
        if state.tolerated:
            # a truncated leaf or a clamped or unconsumed extent leaves
            # the consumed slices off the canonical encoding
            self._assemble(node, 0)
        if verify_fixups:
            self._verify_fixups(node)
        return InsTree(self.name, node, tolerated=state.tolerated)

    def tokens_match(self, data: bytes) -> bool:
        """False only when a strict parse of *data* must raise.

        Checks the encoded default of every token :class:`Number` that a
        strict parse reaches at a fixed offset: the tokens before the
        first :class:`Choice`, :class:`Repeat` or variable-width leaf, in
        declaration order.  A strict, token-enforcing parse reaches such
        a token only through fields that consume exactly their width or
        raise, so bytes that differ there are rejected anyway, by the
        token check or by an earlier failure.  A Number's encode and
        decode are a bijection at its width, so equal bytes mean an
        equal value; a default outside the width's range never equals a
        decoded value, so parse rejects every input there.  A model with
        a transformer checks nothing: its tokens sit in decoded bytes.
        """
        tokens = self._tokens
        if tokens is None:
            found: List[Tuple[int, bytes]] = []
            if self.transformer is None:
                self._fixed_tokens(self.root, 0, found)
            tokens = self._tokens = tuple(found)
        for offset, raw in tokens:
            if data[offset:offset + len(raw)] != raw:
                return False
        return True

    def _fixed_tokens(self, field: Field, offset: int,
                      found: List[Tuple[int, bytes]]) -> Optional[int]:
        """Collect *field*'s fixed-offset tokens into *found*; the offset
        after it, or None where the walk stops."""
        if isinstance(field, (Choice, Repeat)):
            return None
        if not field.is_leaf:
            for child in field.children():
                offset = self._fixed_tokens(child, offset, found)
                if offset is None:
                    return None
            return offset
        width = field.fixed_width()
        if width is None:
            return None
        if field.token and isinstance(field, Number):
            found.append((offset, field.encode(field.default)))
        return offset + width

    def matches(self, data: bytes) -> bool:
        """True when *data* parses cleanly under this model."""
        try:
            self.parse(data)
        except ParseError:
            return False
        return True

    def _parse_node(self, field: Field, state: _ParseState, pos: int,
                    end: int) -> Tuple[InsNode, int]:
        # A SizeOf carrier earlier in the packet may bound this field.
        extent = state.extents.pop(field.name, None)
        if extent is not None:
            if extent < 0 or pos + extent > end:
                if state.strict:
                    raise ParseError(
                        f"{field.name}: announced size {extent} exceeds data")
                state.tolerated = True
                extent = max(0, min(extent, end - pos))  # truncated tail
            end = pos + extent

        if field.is_leaf:
            node, pos = self._parse_leaf(field, state, pos, end)
        elif isinstance(field, Choice):
            node, pos = self._parse_choice(field, state, pos, end)
        elif isinstance(field, Repeat):
            node, pos = self._parse_repeat(field, state, pos, end)
        else:
            node, pos = self._parse_block(field, state, pos, end)

        if extent is not None and pos != end:
            if state.strict:
                raise ParseError(
                    f"{field.name}: announced size {extent} but consumed "
                    f"{pos - (end - extent)}")
            state.tolerated = True
            pos = end  # the announced extent owns the unconsumed bytes
        return node, pos

    def _parse_leaf(self, field: Field, state: _ParseState, pos: int,
                    end: int) -> Tuple[InsNode, int]:
        width = field.fixed_width()
        if width is None:
            width = end - pos  # variable-length: greedy within extent
            if isinstance(field, Blob) and width > field.max_length:
                raise ParseError(
                    f"{field.name}: {width} bytes exceeds max_length")
        if pos + width > end:
            if state.strict:
                raise ParseError(f"{field.name}: truncated")
            # truncated leaf: decode what remains (tokens unverifiable
            # on a partial raw are accepted best-effort)
            state.tolerated = True
            raw = state.data[pos:end]
            value = field.decode_lenient(raw)
            self._register_relation(field, value, state)
            return InsNode(field, value, None, raw, pos), end
        raw = state.data[pos:pos + width]
        value = field.decode(raw)
        if field.token and value != field.default_value():
            if state.enforce_tokens:
                raise ParseError(
                    f"{field.name}: token mismatch ({value!r} != "
                    f"{field.default_value()!r})")
            state.tolerated = True
        if not field.validate(value):
            if state.strict:
                raise ParseError(
                    f"{field.name}: constraint violation ({value!r})")
            state.tolerated = True
        if field.relation is not None:
            self._register_relation(field, value, state)
        return InsNode(field, value, None, raw, pos), pos + width

    def _register_relation(self, field: Field, value, state: _ParseState) -> None:
        relation = field.relation
        if relation is None or not isinstance(value, int):
            return
        if relation.type_name == "size":
            state.extents[relation.of] = relation.target_extent(value)
        elif relation.type_name == "count":
            state.counts[relation.of] = relation.target_extent(value)

    def _parse_block(self, field: Block, state: _ParseState, pos: int,
                     end: int) -> Tuple[InsNode, int]:
        start = pos
        children = []
        for child in field.children():
            node, pos = self._parse_node(child, state, pos, end)
            children.append(node)
        return InsNode(field, None, children, state.data[start:pos],
                       start), pos

    def _parse_choice(self, field: Choice, state: _ParseState, pos: int,
                      end: int) -> Tuple[InsNode, int]:
        errors = []
        for option in field.children():
            saved_extents = dict(state.extents)
            saved_counts = dict(state.counts)
            try:
                node, newpos = self._parse_node(option, state, pos, end)
                return InsNode(field, None, [node], node.raw, pos), newpos
            except ParseError as exc:
                # ``tolerated`` stays set: a tolerance taken in an option
                # given up may have steered the parse off the strict path
                state.extents = saved_extents
                state.counts = saved_counts
                errors.append(str(exc))
        raise ParseError(f"{field.name}: no option matched ({'; '.join(errors)})")

    def _parse_repeat(self, field: Repeat, state: _ParseState, pos: int,
                      end: int) -> Tuple[InsNode, int]:
        count = state.counts.pop(field.name, None)
        start = pos
        children = []
        if count is not None:
            if count < field.min_count or count > field.max_count:
                if state.strict:
                    raise ParseError(
                        f"{field.name}: announced count {count} "
                        "out of range")
                state.tolerated = True
                count = max(field.min_count,
                            min(count, field.max_count))
            for _ in range(count):
                node, pos = self._parse_node(field.element, state, pos, end)
                children.append(node)
        else:
            while pos < end and len(children) < field.max_count:
                try:
                    node, newpos = self._parse_node(field.element, state,
                                                    pos, end)
                except ParseError:
                    if state.strict:
                        raise
                    state.tolerated = True
                    break  # a truncated tail that matches no element
                if newpos == pos and not state.strict:
                    state.tolerated = True
                    break  # zero-width element: no progress possible
                children.append(node)
                pos = newpos
            if len(children) < field.min_count:
                if state.strict:
                    raise ParseError(f"{field.name}: fewer than "
                                     f"{field.min_count} elements")
                state.tolerated = True
        return InsNode(field, None, children, state.data[start:pos],
                       start), pos

    def _verify_fixups(self, root: InsNode) -> None:
        for node in root.iter_nodes():
            fixup = node.field.fixup
            if fixup is None:
                continue
            covered = b"".join(
                (root.find(name).raw if root.find(name) is not None else b"")
                for name in fixup.over)
            expected = fixup.compute(covered)
            actual = node.value if isinstance(node.value, int) else \
                int.from_bytes(node.raw, "big")
            if actual != expected:
                raise ParseError(
                    f"{node.name}: bad {fixup.algorithm} "
                    f"(got {actual:#x}, want {expected:#x})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DataModel {self.name!r}>"


class Pit:
    """A format specification: a named collection of data models.

    This is the analog of a Peach Pit file; ``EXTRACTDATAMODEL`` of paper
    Alg. 1/2 is :meth:`models`.
    """

    def __init__(self, name: str, models: Sequence[DataModel]):
        if not models:
            raise ModelError(f"pit {name!r} has no data models")
        names = [m.name for m in models]
        if len(set(names)) != len(names):
            raise ModelError(f"pit {name!r} has duplicate model names")
        self.name = name
        self._models = tuple(models)

    def models(self) -> Tuple[DataModel, ...]:
        return self._models

    def model(self, name: str) -> DataModel:
        for candidate in self._models:
            if candidate.name == name:
                return candidate
        raise ModelError(f"pit {self.name!r} has no model {name!r}")

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self):
        return iter(self._models)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pit {self.name!r} ({len(self._models)} models)>"
