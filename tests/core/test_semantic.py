"""Unit tests for semantic-aware generation (paper Alg. 3)."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import CampaignConfig, PuzzleCorpus, SemanticGenerator, \
    run_campaign
from repro.core.campaign import make_engine
from repro.core.semantic import splice_paths
from repro.model import Blob, Block, DataModel, Number, size_of
from repro.protocols import get_target


def _model():
    return DataModel("m", Block("m.root", [
        Number("opcode", 1, default=7, token=True, semantic="opcode"),
        Number("address", 2, default=0, semantic="address"),
        Number("quantity", 2, default=1, semantic="quantity"),
        size_of(Number("size", 1), "payload"),
        Blob("payload", default=b"\x00", semantic="payload"),
    ]))


def _corpus_with(rng=None, **donors):
    corpus = PuzzleCorpus(rng=rng or random.Random(0))
    model = _model()
    for name, values in donors.items():
        field = model.root.child(name)
        for value in values:
            corpus.add(field.signature(), value)
    return corpus


def _built(generator, model):
    """Decide a batch, then build every recipe (in batch order)."""
    return [generator.build(model, recipe)
            for recipe in generator.construct(model)]


class TestConstruct:
    def test_empty_corpus_returns_empty_batch(self):
        generator = SemanticGenerator(PuzzleCorpus(), random.Random(1))
        assert generator.construct(_model()) == []

    def test_donor_values_spliced_into_packets(self):
        corpus = _corpus_with(address=[b"\x01\x10"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0)
        batch = _built(generator, _model())
        assert batch
        for tree, _wire in batch:
            assert tree.find("address").value == 0x0110

    def test_cartesian_product_of_donors(self):
        """Paper Alg. 3: p donors for a and q for b yield p*q seeds."""
        corpus = _corpus_with(address=[b"\x00\x01", b"\x00\x02"],
                              quantity=[b"\x00\x03", b"\x00\x04",
                                        b"\x00\x05"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0, batch_limit=100)
        batch = _built(generator, _model())
        combos = {(t.find("address").value, t.find("quantity").value)
                  for t, _w in batch}
        assert len(batch) == 6
        assert len(combos) == 6

    def test_batch_limit_caps_product(self):
        donors = SemanticGenerator.MAX_DONORS_PER_POSITION
        corpus = _corpus_with(
            address=[i.to_bytes(2, "big") for i in range(donors)],
            quantity=[i.to_bytes(2, "big") for i in range(donors)])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0, batch_limit=10)
        batch = generator.construct(_model())
        assert len(batch) == 10 < donors * donors

    def test_relations_repaired_after_splice(self):
        """File Fixup: the size field is recomputed, never donor-filled."""
        corpus = _corpus_with(payload=[b"donor-payload!"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0)
        model = _model()
        batch = _built(generator, model)
        assert batch
        for tree, wire in batch:
            parsed = model.parse(wire)
            assert parsed.find("size").value == \
                len(parsed.find("payload").raw)

    def test_tokens_never_pinned(self):
        corpus = _corpus_with(address=[b"\x00\x01"])
        # poison the corpus with an opcode donor; it must be ignored
        model = _model()
        opcode = model.root.child("opcode")
        corpus.add(opcode.signature(), b"\x63")
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0)
        recipes = generator.construct(model)
        assert recipes
        for recipe in recipes:
            assert "m.root.opcode" not in recipe.assignments
            tree, _wire = generator.build(model, recipe)
            assert tree.find("opcode").value == 7

    def test_generated_packets_parse_under_model(self):
        corpus = _corpus_with(address=[b"\x12\x34"],
                              quantity=[b"\x00\x09"],
                              payload=[b"\x01\x02\x03"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0, batch_limit=32)
        model = _model()
        batch = _built(generator, model)
        assert batch
        for _tree, wire in batch:
            assert model.matches(wire)

    def test_pin_prob_zero_disables_splicing(self):
        corpus = _corpus_with(address=[b"\x00\x01"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=0.0)
        assert generator.construct(_model()) == []

    def test_deterministic_under_seed(self):
        def run():
            corpus = _corpus_with(rng=random.Random(9),
                                  address=[b"\x00\x01", b"\x00\x02"])
            generator = SemanticGenerator(corpus, random.Random(4),
                                          pin_prob=1.0)
            return [wire for _t, wire in _built(generator, _model())]

        assert run() == run()

    def test_recipe_paths_are_spliceable_leaves(self):
        corpus = _corpus_with(address=[b"\x00\x01"],
                              payload=[b"\x05"])
        generator = SemanticGenerator(corpus, random.Random(3),
                                      pin_prob=1.0)
        model = _model()
        recipes = generator.construct(model)
        assert recipes
        paths = splice_paths(model)
        assert {"m.root.address", "m.root.payload"} <= paths
        assert "m.root.opcode" not in paths  # token
        assert "m.root.size" not in paths    # relation carrier
        for recipe in recipes:
            assert set(recipe.assignments) <= paths
            assert 0 <= recipe.seed < 1 << 32


@settings(max_examples=25, deadline=None)
@given(rng_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_recipe_build_is_pure(rng_seed, data):
    """Building recipes in any order, or twice, gives identical bytes,
    and building draws nothing from the generator's RNG."""
    corpus = _corpus_with(address=[b"\x00\x01", b"\x00\x02"],
                          quantity=[b"\x00\x03", b"\x00\x04"],
                          payload=[b"\x01", b"\x02\x03"])
    rng = random.Random(rng_seed)
    generator = SemanticGenerator(corpus, rng, pin_prob=0.75)
    model = _model()
    recipes = generator.construct(model)
    state = rng.getstate()
    in_order = [generator.build(model, recipe)[1] for recipe in recipes]
    order = data.draw(st.permutations(range(len(recipes))))
    shuffled = {index: generator.build(model, recipes[index])[1]
                for index in order}
    assert [shuffled[index] for index in range(len(recipes))] == in_order
    assert [generator.build(model, recipe)[1] for recipe in recipes] \
        == in_order
    assert rng.getstate() == state


class _BuildCounter:
    """Counts every ``DataModel.build`` call while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = DataModel.build

        def counting(model, *args, **kwargs):
            self.calls += 1
            return original(model, *args, **kwargs)

        monkeypatch.setattr(DataModel, "build", counting)


class TestBuildOnConsume:
    """Exact work pins: a spliced packet is built only when it runs."""

    def test_one_build_per_execution(self, monkeypatch):
        builds = _BuildCounter(monkeypatch)
        construct_sizes = []
        original = SemanticGenerator.construct

        def recording(generator, model):
            recipes = original(generator, model)
            construct_sizes.append(len(recipes))
            return recipes

        monkeypatch.setattr(SemanticGenerator, "construct", recording)
        result = run_campaign(
            "peach-star", get_target("libmodbus"), seed=7,
            config=CampaignConfig(budget_hours=24.0, max_executions=600))
        executions = result.stats["executions"]
        assert executions == 600
        # the campaign decided far more spliced seeds than it ran ...
        assert sum(construct_sizes) > result.stats["semantic_executions"]
        # ... yet built exactly one packet per execution
        assert builds.calls == executions

    def test_session_step_builds_at_most_once(self, monkeypatch):
        engine = make_engine(
            "peach-star", get_target("libmodbus"), 3,
            CampaignConfig(budget_hours=24.0, sessions=True))
        while engine.corpus.is_empty:
            engine.iterate()
        builds = _BuildCounter(monkeypatch)
        batch_sizes = []
        original = engine.generator.construct

        def recording(model):
            recipes = original(model)
            batch_sizes.append(len(recipes))
            return recipes

        engine.generator.construct = recording
        models = engine.pit.models()
        semantic_steps = 0
        for index in range(200):
            before = builds.calls
            _tree, _packet, semantic = engine._produce_step(
                models[index % len(models)])
            assert builds.calls - before <= 1
            semantic_steps += semantic
        assert semantic_steps > 0
        assert max(batch_sizes) > 1
