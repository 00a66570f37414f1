"""``DataModel.parse`` against the re-encoding reference parser.

``DataModel.parse`` keeps the bytes it consumed: each node's ``raw`` is
the input slice it matched and its ``offset`` where that slice starts,
and the re-encoding ``_assemble`` runs only on a tree a non-strict parse
tolerated something in.  It also records that on the tree
(``InsTree.tolerated``), which is what lets the differential oracle use
one lenient pass as the strict verdict.  The reference below is the
parser it replaced, kept as a test-only oracle: the same recursive
descent, then an unconditional bottom-up ``_assemble`` that re-encodes
every leaf.

Both parsers must agree on every node (field, value, raw, offset, child
count) and on the text of every ``ParseError``, in the four parse
modes: strict, ``strict=False``, ``lenient_tokens`` with
``allow_trailing`` (the learner's reading of replies) and
``verify_fixups``.  Every untolerated non-strict tree must equal the
reference's strict tree, and a strict tree is never tolerated.  Inputs:
generated packets of all six pits parsed under every model of their pit,
every truncation and single bit flip of some of them, and hand-written
models for the ``Choice`` trap, nested ``size_of``/``count_of``,
zero-width ``Repeat`` elements, padded ``Str`` fields and DNP3 frames
with damaged CRCs.
"""

import itertools
import random
from typing import Dict

import pytest

from repro.model import (
    Blob, Block, Choice, Crc32Fixup, DataModel, MutatorProvider, Number,
    ParseError, Repeat, Str, Sum8Fixup, attach_fixup, count_of, size_of,
)
from repro.model.instree import InsNode
from repro.protocols import all_targets, get_target

#: generated packets per model, and how many of them are also cut and
#: bit-flipped byte by byte
PIT_SEEDS = 6
VARIANT_SEEDS = 2
HAND_SEEDS = 60

MODES = {
    "strict": {},
    "lenient": {"strict": False},
    "reply": {"strict": False, "lenient_tokens": True,
              "allow_trailing": True},
    "fixups": {"verify_fixups": True},
}


# ----------------------------------------------------------------------
# the reference parser: recursive descent, then a re-encoding assemble
# ----------------------------------------------------------------------

class _RefState:
    def __init__(self, data, strict, enforce_tokens):
        self.data = data
        self.extents: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.strict = strict
        self.enforce_tokens = enforce_tokens


def reference_parse(model, data, *, verify_fixups=False, strict=True,
                    lenient_tokens=False, allow_trailing=False):
    """The root node the replaced ``DataModel.parse`` returned."""
    if model.transformer is not None:
        data = model.transformer.decode(data) if strict else \
            model.transformer.decode_lenient(data)
    state = _RefState(data, strict, not lenient_tokens)
    node, pos = _ref_node(model.root, state, 0, len(data))
    if pos != len(data) and not allow_trailing:
        raise ParseError(f"{model.name}: {len(data) - pos} trailing bytes")
    _ref_assemble(node, 0)
    if verify_fixups:
        _ref_verify_fixups(node)
    return node


def _ref_node(field, state, pos, end):
    extent = state.extents.pop(field.name, None)
    if extent is not None:
        if extent < 0 or pos + extent > end:
            if state.strict:
                raise ParseError(
                    f"{field.name}: announced size {extent} exceeds data")
            extent = max(0, min(extent, end - pos))
        end = pos + extent
    if field.is_leaf:
        node, pos = _ref_leaf(field, state, pos, end)
    elif isinstance(field, Choice):
        node, pos = _ref_choice(field, state, pos, end)
    elif isinstance(field, Repeat):
        node, pos = _ref_repeat(field, state, pos, end)
    else:
        node, pos = _ref_block(field, state, pos, end)
    if extent is not None and pos != end:
        if state.strict:
            raise ParseError(
                f"{field.name}: announced size {extent} but consumed "
                f"{pos - (end - extent)}")
        pos = end
    return node, pos


def _ref_leaf(field, state, pos, end):
    width = field.fixed_width()
    if width is None:
        width = end - pos
        if isinstance(field, Blob) and width > field.max_length:
            raise ParseError(
                f"{field.name}: {width} bytes exceeds max_length")
    if pos + width > end:
        if state.strict:
            raise ParseError(f"{field.name}: truncated")
        raw = state.data[pos:end]
        value = field.decode_lenient(raw)
        _ref_register_relation(field, value, state)
        return InsNode(field, value=value, raw=raw), end
    raw = state.data[pos:pos + width]
    value = field.decode(raw)
    if field.token and state.enforce_tokens and \
            value != field.default_value():
        raise ParseError(
            f"{field.name}: token mismatch ({value!r} != "
            f"{field.default_value()!r})")
    if state.strict and not field.validate(value):
        raise ParseError(f"{field.name}: constraint violation ({value!r})")
    _ref_register_relation(field, value, state)
    return InsNode(field, value=value, raw=raw), pos + width


def _ref_register_relation(field, value, state):
    relation = field.relation
    if relation is None or not isinstance(value, int):
        return
    if relation.type_name == "size":
        state.extents[relation.of] = relation.target_extent(value)
    elif relation.type_name == "count":
        state.counts[relation.of] = relation.target_extent(value)


def _ref_block(field, state, pos, end):
    children = []
    for child in field.children():
        node, pos = _ref_node(child, state, pos, end)
        children.append(node)
    return InsNode(field, children=children), pos


def _ref_choice(field, state, pos, end):
    errors = []
    for option in field.children():
        saved_extents = dict(state.extents)
        saved_counts = dict(state.counts)
        try:
            node, newpos = _ref_node(option, state, pos, end)
            return InsNode(field, children=[node]), newpos
        except ParseError as exc:
            state.extents = saved_extents
            state.counts = saved_counts
            errors.append(str(exc))
    raise ParseError(f"{field.name}: no option matched ({'; '.join(errors)})")


def _ref_repeat(field, state, pos, end):
    count = state.counts.pop(field.name, None)
    children = []
    if count is not None:
        if count < field.min_count or count > field.max_count:
            if state.strict:
                raise ParseError(
                    f"{field.name}: announced count {count} out of range")
            count = max(field.min_count, min(count, field.max_count))
        for _ in range(count):
            node, pos = _ref_node(field.element, state, pos, end)
            children.append(node)
    else:
        while pos < end and len(children) < field.max_count:
            try:
                node, newpos = _ref_node(field.element, state, pos, end)
            except ParseError:
                if state.strict:
                    raise
                break
            if newpos == pos and not state.strict:
                break
            children.append(node)
            pos = newpos
        if len(children) < field.min_count:
            if state.strict:
                raise ParseError(f"{field.name}: fewer than "
                                 f"{field.min_count} elements")
    return InsNode(field, children=children), pos


def _ref_assemble(node, offset):
    node.offset = offset
    if not node.children:
        if isinstance(node.field, (Block, Choice, Repeat)):
            node.raw = b""
            return 0
        node.raw = node.field.encode(node.value)
        return len(node.raw)
    pos = offset
    parts = []
    for child in node.children:
        pos += _ref_assemble(child, pos)
        parts.append(child.raw)
    node.raw = b"".join(parts)
    return len(node.raw)


def _ref_verify_fixups(root):
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


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------

def _shape(root):
    return [(node.field, node.value, node.raw, node.offset,
             len(node.children)) for node in root.iter_nodes()]


def _reference_outcome(model, data, mode):
    try:
        return _shape(reference_parse(model, data, **MODES[mode]))
    except ParseError as exc:
        return ("ParseError", str(exc))


class _Tally:
    """What the comparisons saw, so a suite can pin its own reach."""

    def __init__(self):
        self.parsed = 0
        self.rejected = 0
        self.tolerated = 0
        self.untolerated = 0


def _assert_agrees(model, data, tally=None):
    """Both parsers agree on *data* in every mode; the flag is sound."""
    tally = tally if tally is not None else _Tally()
    for mode, options in MODES.items():
        expected = _reference_outcome(model, data, mode)
        try:
            tree = model.parse(data, **options)
        except ParseError as exc:
            assert ("ParseError", str(exc)) == expected, (model.name, mode,
                                                          data.hex())
            tally.rejected += 1
            continue
        assert _shape(tree.root) == expected, (model.name, mode, data.hex())
        tally.parsed += 1
        if options.get("strict", True) and not options.get("lenient_tokens"):
            assert not tree.tolerated, (model.name, mode, data.hex())
        elif mode == "lenient":
            if tree.tolerated:
                tally.tolerated += 1
            else:
                # the oracle's premise: an untolerated lenient tree is
                # the strict verdict
                tally.untolerated += 1
                assert _shape(tree.root) == \
                    _reference_outcome(model, data, "strict"), \
                    (model.name, data.hex())
    return tally


def _variants(packet):
    """Every truncation and every single bit flip of *packet*."""
    for cut in range(len(packet)):
        yield packet[:cut]
    for index in range(len(packet)):
        for bit in range(8):
            flipped = bytearray(packet)
            flipped[index] ^= 1 << bit
            yield bytes(flipped)


def _generated(model, seeds):
    for seed in seeds:
        yield model.to_wire(model.build(MutatorProvider(random.Random(seed))))


# ----------------------------------------------------------------------
# hand-written models
# ----------------------------------------------------------------------

def _choice_model():
    """``Block[Choice[a (values 1, 2), b (2 bytes)], tok (token 0x68)]``."""
    return DataModel("choice", Block("frame", [
        Choice("pick", [Number("a", 1, default=1, values=(1, 2)),
                        Number("b", 2)]),
        Number("tok", 1, default=0x68, token=True),
    ]))


def _nested_model():
    """Nested SizeOf/CountOf relations, a Choice over sized options, a
    Repeat of sized entries and a Sum8 fixup over the whole body."""
    entry = Block("entry", [
        size_of(Number("entry_len", 1), "value"),
        Blob("value", default=b"\x01\x02", max_length=12),
    ])
    body = Block("body", [
        count_of(Number("entry_count", 1), "entries"),
        Repeat("entries", entry, min_count=1, max_count=4),
        Choice("variant", [
            Block("short", [
                Number("short_tag", 1, default=0xA0, token=True),
                size_of(Number("short_len", 1), "short_data"),
                Blob("short_data", default=b"\x05", max_length=12)]),
            Block("long", [
                Number("long_tag", 1, default=0xB0, token=True),
                size_of(Number("long_len", 2), "long_data"),
                Blob("long_data", default=b"\x06\x07", max_length=12)]),
        ]),
        Number("level", 1, default=3, minimum=1, maximum=9),
    ])
    return DataModel("nested", Block("frame", [
        Number("magic", 2, default=0xCAFE, token=True),
        size_of(Number("length", 2), "body"),
        body,
        attach_fixup(Number("sum", 1), Sum8Fixup(["magic", "body"])),
    ]))


def _zero_width_model():
    """Greedy and counted Repeats whose elements can consume nothing."""
    return DataModel("zero", Block("frame", [
        Number("head", 1, default=7, values=(7, 8)),
        size_of(Number("gaps_len", 1), "gaps"),
        Repeat("gaps", Blob("gap", length=0), min_count=0, max_count=3),
        count_of(Number("n", 1), "spans"),
        Repeat("spans", Block("span", [
            size_of(Number("span_len", 1), "span_data"),
            Blob("span_data", max_length=8),
        ]), min_count=0, max_count=3),
        Repeat("tail", Number("t", 1, maximum=0x7F), min_count=1,
               max_count=4),
    ]))


def _padded_str_model():
    """Fixed Strs with a space and a NUL pad, then a variable Str."""
    return DataModel("padded", Block("frame", [
        Str("name", default="ab", length=5, pad=b" "),
        Str("code", default="x", length=3),
        attach_fixup(Blob("crc", length=4), Crc32Fixup(["name", "code"])),
        Str("rest", default="tail"),
    ]))


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_pit_packets_parse_like_the_reference(spec):
    pit = spec.make_pit()
    tally = _Tally()
    for model in pit:
        for packet in _generated(model, range(PIT_SEEDS)):
            for candidate in pit:
                _assert_agrees(candidate, packet, tally)
    assert tally.parsed and tally.rejected and tally.untolerated


@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_cut_and_flipped_packets_parse_like_the_reference(spec):
    tally = _Tally()
    for model in spec.make_pit():
        for packet in _generated(model, range(VARIANT_SEEDS)):
            for variant in _variants(packet):
                _assert_agrees(model, variant, tally)
    # (every cut or flip of a DNP3 frame breaks a CRC: all tolerated)
    assert tally.tolerated and tally.rejected


def test_the_choice_trap():
    """Strict and lenient take different options: a lenient success is
    not the strict verdict, only an untolerated one is."""
    model = _choice_model()
    # strict accepts through ``b``; lenient tolerates ``a``, then
    # rejects the token
    strict = model.parse(bytes.fromhex("090568"))
    assert strict.root.children[0].children[0].name == "b"
    with pytest.raises(ParseError, match="tok: token mismatch"):
        model.parse(bytes.fromhex("090568"), strict=False)
    # strict rejects; lenient accepts through a tolerated ``a``
    with pytest.raises(ParseError, match="tok: truncated"):
        model.parse(bytes.fromhex("0968"))
    assert model.parse(bytes.fromhex("0968"), strict=False).tolerated
    # a legal ``a`` is untolerated either way
    assert not model.parse(bytes.fromhex("0168"), strict=False).tolerated
    tally = _Tally()
    for size in range(5):
        for data in itertools.product(b"\x00\x01\x02\x05\x09\x68",
                                      repeat=size):
            _assert_agrees(model, bytes(data), tally)
    assert tally.tolerated and tally.untolerated


@pytest.mark.parametrize("make_model", [
    _nested_model, _zero_width_model, _padded_str_model,
], ids=["nested", "zero-width", "padded-str"])
def test_hand_written_models_parse_like_the_reference(make_model):
    model = make_model()
    tally = _Tally()
    for packet in _generated(model, range(HAND_SEEDS)):
        _assert_agrees(model, packet, tally)
    for packet in _generated(model, range(4)):
        for variant in _variants(packet):
            _assert_agrees(model, variant, tally)
    assert tally.tolerated and tally.untolerated and tally.rejected


def test_zero_width_elements_are_tolerated():
    """Strict keeps appending zero-width elements up to ``max_count``;
    lenient stops at the first, so its tree is not the strict one."""
    model = DataModel("gaps", Block("frame", [
        Repeat("gaps", Blob("gap", length=0), max_count=3),
        Number("t", 1),
    ]))
    strict = model.parse(b"\x01")
    lenient = model.parse(b"\x01", strict=False)
    assert len(strict.find("gaps").children) == 3
    assert len(lenient.find("gaps").children) == 0
    assert lenient.tolerated
    for size in range(3):
        for data in itertools.product(b"\x00\x01", repeat=size):
            _assert_agrees(model, bytes(data))


def test_padded_strs_keep_their_bytes():
    model = _padded_str_model()
    for data in (b"ab   x\x00\x00", b"a b  \x00\x00\x00", b"     xyz",
                 b"ab\x00  x \x00"):
        packet = data + bytes(4) + b"rest"
        _assert_agrees(model, packet)
        tree = model.parse(packet, strict=False)
        assert not tree.tolerated
        assert tree.find("name").raw == data[:5]
        assert tree.raw == packet


def test_damaged_dnp3_crcs_parse_like_the_reference():
    """Every byte of a frame's CRCs damaged in turn: strict rejects in
    the transformer, lenient strips unverified and marks the tree."""
    pit = get_target("opendnp3").make_pit()
    tally = _Tally()
    for model in pit:
        for packet in _generated(model, range(3)):
            # header CRC at 8..9, then a CRC after every 16-octet block
            crc_at = [8, 9]
            pos = 10
            while pos < len(packet):
                block_end = min(pos + 16, len(packet) - 2)
                crc_at += [block_end, block_end + 1]
                pos = block_end + 2
            for index in crc_at:
                damaged = bytearray(packet)
                damaged[index] ^= 0x5A
                _assert_agrees(model, bytes(damaged), tally)
                try:
                    tree = model.parse(bytes(damaged), strict=False)
                except ParseError:
                    continue  # the generated packet's own values
                assert tree.tolerated
    assert tally.tolerated and tally.rejected
