"""The token prefilter against the strict parse it lets the loops skip.

``DataModel.tokens_match(data)`` compares the bytes of *data* at the
fixed offsets of the model's token ``Number`` fields, the tokens a
strict parse reaches before the first ``Choice``, ``Repeat`` or
variable-width leaf.  Its contract is one-sided: ``False`` only where a
strict parse of *data* raises.  The cracker (paper Alg. 2) and the
learner's strict reading of replies try every model of the pit and keep
the legal trees, so they skip a model whose tokens cannot match.

Rows: for every pit, generated packets of every model, every truncation
of a fifth of them and two bit flips per byte of their first 12 bytes,
against every model of the pit (a ``False`` is always a strict
rejection); the cracker's legal trees and the classifier's labels
against the same loops without the prefilter; and hand-written models
where a token sits behind a ``Choice``, a ``Repeat``, a variable-width
``Blob`` or a transformer, or has a default outside its width.
"""

import random

import pytest

from repro.core.corpus import PuzzleCorpus
from repro.core.cracker import FileCracker
from repro.model import (
    Blob, Block, Choice, DataModel, MutatorProvider, Number, ParseError,
    Repeat, Str, Transformer, count_of, size_of,
)
from repro.protocols import all_targets
from repro.runtime.target import Target
from repro.state import ResponseClassifier

#: generated packets per model; every VARIANT_EVERY-th one is also cut
SEEDS = 10
VARIANT_EVERY = 5
#: leading bytes of each packet that get two bit flips each
FLIPPED_BYTES = 12


def _generated(model, seeds=range(SEEDS)):
    for seed in seeds:
        yield model.to_wire(model.build(MutatorProvider(random.Random(seed))))


def _inputs(pit):
    """Generated packets of every model, cuts of a fifth of them, and two
    bit flips per leading byte."""
    for model in pit:
        for number, packet in enumerate(_generated(model)):
            yield packet
            if number % VARIANT_EVERY == 0:
                for cut in range(len(packet)):
                    yield packet[:cut]
            for index in range(min(len(packet), FLIPPED_BYTES)):
                for bit in (index % 8, (index + 3) % 8):
                    flipped = bytearray(packet)
                    flipped[index] ^= 1 << bit
                    yield bytes(flipped)


def _strict_rejects(model, data):
    try:
        model.parse(data)
    except (ParseError, ValueError, OverflowError):
        return True
    return False


def _shape(tree):
    return [(node.field, node.value, node.raw, node.offset,
             len(node.children)) for node in tree.root.iter_nodes()]


def reference_parsed_models(pit, seed):
    """Alg. 2's loop without the prefilter: every model, every parse."""
    parses = []
    for model in pit:
        try:
            parses.append((model.name, model.parse(seed)))
        except ParseError:
            continue
    return parses


@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_a_rejection_is_a_strict_parse_rejection(spec):
    pit = spec.make_pit()
    pairs = skipped = 0
    for data in _inputs(pit):
        for model in pit:
            pairs += 1
            if not model.tokens_match(data):
                skipped += 1
                assert _strict_rejects(model, data), (model.name, data.hex())
    if spec.name != "opendnp3":  # every DNP3 model has a transformer
        assert skipped > pairs // 2


@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_a_model_passes_its_own_packets(spec):
    """Generation never mutates a token."""
    for model in spec.make_pit():
        for packet in _generated(model):
            assert model.tokens_match(packet), (model.name, packet.hex())


def test_which_pit_models_check_tokens():
    """An empty input fails any token check, so it tells which models
    have one: all but the 15 DNP3 models, whose CRC transformer hides
    the tokens from the wire."""
    checking, unchecked = [], []
    for spec in all_targets():
        for model in spec.make_pit():
            (unchecked if model.tokens_match(b"") else checking).append(
                model)
    assert len(checking) == 69
    assert len(unchecked) == 15
    assert all(model.transformer is not None for model in unchecked)


@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_the_cracker_keeps_the_trees_of_the_reference_loop(spec):
    pit = spec.make_pit()
    cracker = FileCracker(pit, PuzzleCorpus())
    legal = 0
    for data in _inputs(pit):
        parses = cracker._parsed_models(data)
        expected = reference_parsed_models(pit, data)
        assert [(name, _shape(tree)) for name, tree in parses] == \
            [(name, _shape(tree)) for name, tree in expected], data.hex()
        legal += len(parses)
    assert legal > 0


def _replies(spec, pit):
    """Server replies to generated packets, and cuts and flips of some."""
    target = Target(spec.make_server, None)
    replies = []
    for model in pit:
        for packet in _generated(model, range(4)):
            reply = target.run(packet, model.name).response
            if reply is not None:
                replies.append((reply, model.name))
    variants = []
    for reply, name in replies[::VARIANT_EVERY]:
        variants.extend((reply[:cut], name) for cut in range(len(reply)))
        for index in range(min(len(reply), FLIPPED_BYTES)):
            flipped = bytearray(reply)
            flipped[index] ^= 1 << (index % 8)
            variants.append((bytes(flipped), name))
    # a request read as a reply is a legal packet of the pit
    requests = [(packet, model.name) for model in pit
                for packet in _generated(model, range(2))]
    return replies + variants + requests


@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_classifier_labels_match_the_reference_loop(spec, monkeypatch):
    pit = spec.make_pit()
    replies = _replies(spec, pit)
    labels = [ResponseClassifier(pit)._classify(reply, name)
              for reply, name in replies]
    monkeypatch.setattr(DataModel, "tokens_match", lambda self, data: True)
    expected = [ResponseClassifier(pit)._classify(reply, name)
                for reply, name in replies]
    assert labels == expected
    assert any(not label.startswith(("~", "raw[")) for label in labels)


# ----------------------------------------------------------------------
# hand-written models
# ----------------------------------------------------------------------

def _lead(*fields):
    """A model whose 0x10 token leads the given fields."""
    return DataModel("hand", Block("frame", [
        Number("lead", 1, default=0x10, token=True), *fields]))


def _tok():
    return Number("tok", 1, default=0x68, token=True)


class _Prepend(Transformer):
    """Wire = one 0xAA byte, then the rule tree's bytes."""

    def encode(self, data):
        return b"\xaa" + data

    def decode(self, data):
        if data[:1] != b"\xaa":
            raise ParseError("missing 0xaa")
        return data[1:]


HAND_MODELS = {
    # the options differ in width: ``tok`` has no fixed offset
    "choice": (_lead(Choice("pick", [
        Number("a", 1, default=1, values=(1, 2)), Number("b", 2)]),
        _tok()), ["10090568", "100168", "1001", "10"]),
    "repeat": (_lead(count_of(Number("n", 1), "items"),
                     Repeat("items", Number("item", 1), max_count=4),
                     _tok()),
               ["1002050668", "10016668", "100068", "1003"]),
    "blob": (_lead(size_of(Number("size", 1), "data"), Blob("data"),
                   _tok()),
             ["1002050668", "10010568", "100068", "10000068"]),
    "transformer": (DataModel("wrapped", Block("frame", [
        _tok(), Number("value", 1)]), transformer=_Prepend()),
        ["aa6801", "aa68ff", "6801", "aa6901"]),
}


@pytest.mark.parametrize("name", sorted(HAND_MODELS))
def test_no_token_past_a_shape_without_a_fixed_width(name):
    """Only ``lead`` is checked; inputs that parse strictly pass."""
    model, frames = HAND_MODELS[name]
    legal = 0
    for frame in frames:
        data = bytes.fromhex(frame)
        if not _strict_rejects(model, data):
            legal += 1
            assert model.tokens_match(data), data.hex()
        variants = [data[:cut] for cut in range(len(data))]
        for index in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[index] ^= 1 << bit
                variants.append(bytes(flipped))
        for variant in variants:
            if not model.tokens_match(variant):
                assert _strict_rejects(model, variant), variant.hex()
    assert legal >= 2
    if name != "transformer":
        assert not model.tokens_match(b"\x11" + bytes.fromhex(frames[0])[1:])


def test_tokens_past_fixed_width_leaves_are_checked():
    """A fixed ``Str`` token is not compared, but the walk goes on past
    it and past a size-bounded block to the ``Number`` tokens."""
    model = DataModel("fixed", Block("frame", [
        Str("magic", length=2, default="PK", token=True),
        size_of(Number("size", 1), "body"),
        Block("body", [Number("kind", 2, default=0x0304, token=True,
                              endian="little"),
                       Blob("rest")]),
    ]))
    packet = model.to_wire(model.build_default())
    assert packet.hex() == "504b020403"
    assert model.tokens_match(packet)
    assert model.tokens_match(b"XX" + packet[2:])  # the Str is not compared
    assert not model.tokens_match(packet[:3] + b"\x03\x04")
    assert not model.tokens_match(packet[:4])


@pytest.mark.parametrize("number", [
    Number("tok", 1, default=0x1FF, token=True),
    Number("tok", 1, default=200, signed=True, token=True),
    Number("tok", 2, default=-1, token=True),
], ids=["over", "signed-over", "negative"])
def test_a_token_default_outside_its_width(number):
    """No decoded value equals the default, so parse rejects every input;
    whatever the prefilter says, it is never stricter than parse."""
    model = DataModel("odd", Block("frame", [number, Number("x", 1)]))
    width = number.width
    for first in range(256):
        data = bytes([first]) * width + b"\x00"
        assert _strict_rejects(model, data)
        model.tokens_match(data)
