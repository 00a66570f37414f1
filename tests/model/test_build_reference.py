"""One-pass ``DataModel.build`` against the multi-pass reference builder.

``DataModel.build`` instantiates the rule tree in one recursive pass that
records the first node of each field name and every relation and fixup
carrier, then resolves relations and fixups from that record.  The
reference below is the builder it replaced, kept as a test-only oracle:
instantiate, assemble, then resolve relations and fixups through
``InsNode.iter_nodes``/``InsNode.find`` tree walks, patching each fixup
carrier's ancestors.  (The replaced builder skipped the relation/fixup
passes for models without carriers; on such trees those passes change
nothing, so the oracle always runs them.)

Both builders must agree on every node (field, value, raw, offset, child
count), on the provider RNG's state after the build, and on the text of
any error — over every model of the six pits, spliced builds, and
hand-written models that stress name resolution and fixup ordering.
"""

import random

import pytest

from repro.core import PuzzleCorpus, SemanticGenerator
from repro.core.campaign import default_campaign_policy
from repro.core.semantic import _SpliceProvider
from repro.model import (
    DEFAULT_PROVIDER, Blob, Block, Choice, Crc32Fixup, DataModel, ModelError,
    MutatorProvider, Number, Repeat, Str, Sum8Fixup, Xor8Fixup, attach_fixup,
    count_of, size_of,
)
from repro.model.instree import InsNode, InsTree
from repro.protocols import all_targets

PIT_SEEDS = 150
NESTED_SEEDS = 500


# ----------------------------------------------------------------------
# the reference (multi-pass) builder
# ----------------------------------------------------------------------

def reference_build(model, provider=DEFAULT_PROVIDER):
    root = _ref_build_node(model.root, provider, "")
    _ref_assemble(root, 0)
    _ref_resolve_relations(model, root)
    _ref_assemble(root, 0)
    _ref_resolve_fixups(model, root)
    _ref_assemble(root, 0)
    return InsTree(model.name, root)


def _ref_build_node(field, provider, prefix):
    path = f"{prefix}.{field.name}" if prefix else field.name
    if field.is_leaf:
        value = provider.leaf_value(field, path)
        if value is None:
            value = field.default_value()
        return InsNode(field, value=value, raw=field.encode(value))
    if isinstance(field, Choice):
        index = provider.choose_option(field, path)
        options = field.children()
        index = max(0, min(index, len(options) - 1))
        child = _ref_build_node(options[index], provider, path)
        return InsNode(field, children=[child])
    if isinstance(field, Repeat):
        count = provider.repeat_count(field, path)
        count = max(field.min_count, min(count, field.max_count))
        children = [_ref_build_node(field.element, provider, f"{path}[{i}]")
                    for i in range(count)]
        return InsNode(field, children=children)
    children = [_ref_build_node(child, provider, path)
                for child in field.children()]
    return InsNode(field, children=children)


def _ref_assemble(node, offset):
    node.offset = offset
    if not node.children:
        return len(node.raw)
    pos = offset
    parts = []
    for child in node.children:
        pos += _ref_assemble(child, pos)
        parts.append(child.raw)
    node.raw = b"".join(parts)
    return len(node.raw)


def _ref_resolve_relations(model, root):
    for node in root.iter_nodes():
        relation = node.field.relation
        if relation is None:
            continue
        target = root.find(relation.of)
        if target is None:
            raise ModelError(
                f"{model.name}: relation target {relation.of!r} not found")
        count = len(target.children) if isinstance(target.field, Repeat) \
            else None
        node.value = relation.compute(target.raw, count)
        node.raw = node.field.encode(node.value)


def _ref_resolve_fixups(model, root):
    carriers = [n for n in root.iter_nodes() if n.field.fixup is not None]
    carriers.sort(key=lambda n: n.offset)
    for node in carriers:
        fixup = node.field.fixup
        covered = []
        for name in fixup.over:
            target = root.find(name)
            if target is None:
                raise ModelError(
                    f"{model.name}: fixup target {name!r} not found")
            covered.append(target.raw)
        checksum = fixup.compute(b"".join(covered))
        if isinstance(node.field, Number):
            node.value = checksum
            node.raw = node.field.encode(checksum)
        else:
            width = node.field.fixed_width() or 4
            node.value = checksum.to_bytes(width, "big")
            node.raw = node.value
        _ref_patch_ancestors(root, node)


def _ref_patch_ancestors(node, changed):
    """Splice *changed*'s new raw into every ancestor's raw."""
    if node is changed:
        return True
    found = False
    for child in node.children:
        if _ref_patch_ancestors(child, changed):
            found = True
    if found:
        node.raw = b"".join(child.raw for child in node.children)
    return found


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------

def _shape(tree):
    return [(node.field, node.value, node.raw, node.offset,
             len(node.children)) for node in tree.root.iter_nodes()]


def _outcome(build, model, provider):
    """A build's tree, or the text of the ModelError it raised."""
    try:
        return _shape(build(model, provider))
    except ModelError as exc:
        return ("ModelError", str(exc))


def _seeded(build, model, seed):
    rng = random.Random(seed)
    return _outcome(build, model, MutatorProvider(rng)), rng.getstate()


def _assert_seeds_agree(model, seeds):
    """Compare both builders per seed; return how many built a tree."""
    built = 0
    for seed in seeds:
        outcome = _seeded(DataModel.build, model, seed)
        assert outcome == _seeded(reference_build, model, seed), \
            (model.name, seed)
        built += isinstance(outcome[0], list)
    return built


# ----------------------------------------------------------------------
# hand-written models
# ----------------------------------------------------------------------

def _nested_model():
    """Nested SizeOf/CountOf relations, a Choice, a Repeat whose elements
    repeat a relation target's name, a Block named like its descendant,
    and Number and Blob fixup carriers: ``crc`` covers ``check``, which
    holds the earlier carrier ``sum``."""
    entry = Block("entry", [
        size_of(Number("entry_len", 1), "value"),  # the first entry's value
        Blob("value", default=b"\x01\x02", max_length=96),
    ])
    body = Block("body", [
        size_of(Number("entries_len", 1), "entries"),
        count_of(Number("entry_count", 1), "entries"),
        Repeat("entries", entry, min_count=0, max_count=4),
        Choice("variant", [
            Block("short", [
                Number("short_tag", 1, default=0xA0, token=True),
                size_of(Number("short_len", 1), "short_data"),
                Blob("short_data", default=b"\x05", max_length=96)]),
            Block("long", [
                Number("long_tag", 1, default=0xB0, token=True),
                size_of(Number("long_len", 2), "long_data"),
                Blob("long_data", default=b"\x06\x07", max_length=96)]),
        ]),
        Block("body", [  # "body" names the outer block, found first
            size_of(Number("inner_len", 1), "body"),
            Str("label", default="ok"),
        ]),
    ])
    return DataModel("nested", Block("frame", [
        Block("head", [
            Number("magic", 2, default=0xCAFE, token=True),
            size_of(Number("length", 2), "body"),
        ]),
        body,
        Block("check", [
            attach_fixup(Number("sum", 1), Sum8Fixup(["head", "body"])),
            Number("flags", 1),
        ]),
        attach_fixup(Blob("crc", length=4), Crc32Fixup(["check", "body"])),
    ]))


def _records_model():
    """Relation and fixup carriers inside Repeat elements: every element's
    ``rlen``/``rsum`` resolves ``rdata`` to the first element's, and a
    trailing CRC covers the whole repeat, carriers included."""
    record = Block("record", [
        size_of(Number("rlen", 1), "rdata"),
        Blob("rdata", default=b"\x10\x20\x30", max_length=96),
        attach_fixup(Number("rsum", 1), Xor8Fixup(["rdata"])),
    ])
    return DataModel("records", Block("frame", [
        count_of(Number("count", 1), "records"),
        Repeat("records", record, min_count=1, max_count=5),
        attach_fixup(Number("crc", 4), Crc32Fixup(["count", "records"])),
    ]))


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_pit_models_build_like_the_reference(spec):
    for model in spec.make_pit():
        assert _outcome(DataModel.build, model, DEFAULT_PROVIDER) == \
            _outcome(reference_build, model, DEFAULT_PROVIDER), model.name
        assert _assert_seeds_agree(model, range(PIT_SEEDS)) == PIT_SEEDS


@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_spliced_builds_match_the_reference(spec):
    pit = spec.make_pit()
    corpus = PuzzleCorpus(rng=random.Random(0))
    for seed in range(20):
        provider = MutatorProvider(random.Random(seed))
        for model in pit:
            corpus.add_all(model.build(provider).iter_puzzles())
    generator = SemanticGenerator(corpus, random.Random(1),
                                  policy=default_campaign_policy())
    built = 0
    for model in pit:
        for recipe in generator.construct(model) + generator.construct(model):
            tree, wire = generator.build(model, recipe)
            fallback = MutatorProvider(random.Random(recipe.seed),
                                       generator.policy)
            reference = reference_build(
                model, _SpliceProvider(recipe.assignments, fallback))
            assert _shape(tree) == _shape(reference), model.name
            assert wire == model.to_wire(reference)
            built += 1
    assert built > 0


@pytest.mark.parametrize("make_model", [_nested_model, _records_model],
                         ids=["nested", "records"])
def test_hand_written_models_build_like_the_reference(make_model):
    model = make_model()
    assert _assert_seeds_agree(model, range(NESTED_SEEDS)) == NESTED_SEEDS


def test_names_resolve_to_their_first_node():
    """What the comparison above leans on: some seed builds entries of
    different sizes, every ``entry_len`` carries the first entry's, and
    ``body`` means the outer block, not its namesake descendant."""
    model = _nested_model()
    for seed in range(NESTED_SEEDS):
        tree = model.build(MutatorProvider(random.Random(seed)))
        entries = tree.find("entries").children
        if len({len(entry.children[1].raw) for entry in entries}) > 1:
            break
    assert len({len(entry.children[1].raw) for entry in entries}) > 1
    assert {entry.children[0].value for entry in entries} == \
        {len(entries[0].children[1].raw)}
    outer_body = tree.root.children[1]
    assert tree.find("body") is outer_body
    assert tree.find("inner_len").value == len(outer_body.raw)
    assert tree.find("length").value == len(outer_body.raw)


@pytest.mark.parametrize("root,message", [
    (Block("r", [size_of(Number("len", 1), "nowhere"), Blob("data")]),
     "absent: relation target 'nowhere' not found"),
    (Block("r", [Blob("data", default=b"\x01"),
                 attach_fixup(Number("sum", 1),
                              Sum8Fixup(["data", "nowhere"]))]),
     "absent: fixup target 'nowhere' not found"),
    (Block("r", [count_of(Number("n", 1), "data"), Blob("data")]),
     "CountOf target 'data' is not a Repeat"),
], ids=["relation", "fixup", "count-of-blob"])
def test_absent_targets_fail_like_the_reference(root, message):
    model = DataModel("absent", root)
    assert _assert_seeds_agree(model, range(20)) == 0
    assert _seeded(DataModel.build, model, 0)[0] == ("ModelError", message)
    assert _outcome(DataModel.build, model, DEFAULT_PROVIDER) == \
        ("ModelError", message)


def test_target_absent_from_this_instance_fails_like_the_reference():
    """The target exists in the model but not in every built tree: the
    unchosen Choice option, or an empty Repeat."""
    model = DataModel("partial", Block("r", [
        size_of(Number("len", 1), "a_data"),
        Choice("pick", [Block("a", [Blob("a_data", default=b"\x01")]),
                        Block("b", [Blob("b_data", default=b"\x02")])]),
        size_of(Number("items_len", 1), "item"),
        Repeat("items", Number("item", 1), min_count=0, max_count=2),
    ]))
    errors = set()
    for seed in range(200):
        outcome, _ = _seeded(DataModel.build, model, seed)
        if outcome[0] == "ModelError":
            errors.add(outcome[1])
    assert errors == {"partial: relation target 'a_data' not found",
                      "partial: relation target 'item' not found"}
    assert 0 < _assert_seeds_agree(model, range(200)) < 200
