"""One copy of each engine step against the per-engine copies it replaced.

``GenerationFuzzer._record`` is the one record body (charge the clock,
count, tally crashes and hangs, ``consider``, crack, oracle, steering,
net counters, stamps), ``PeachStar._crack`` the one crack step and
``PeachStar._spliced`` the one splice step; the session engine calls
all three.  The references below are the bodies they replaced, kept as
test-only oracles: the single-packet ``_iteration`` with its
``_finish_outcome``, ``PeachStar._produce`` and ``_on_valuable_seed``,
the session engine's own ``iterate``, ``_crack_steps``,
``_on_valuable_seed`` and ``_produce_step``, and ``SeedPool.consider``
with its own seed construction.  ``crack_enabled`` is gone, so the
references crack unconditionally, as every campaign did.

Each row runs one campaign with the current engine and again, in the
same process (block ids hash filenames), with every reference swapped
in and the new steps made to fail if called.  Executions, path hashes,
series, stats, crash and divergence reports (trace bytes included), the
clock, the engine and corpus RNG states, the puzzle corpus, the
cracker's counters, the pending queue, the learner snapshot and every
workspace file must match.  The
rows cover both engines, single-packet, hand-modelled and learned
sessions, channel faults, differential oracles, divergence steering,
workspaces, the loopback socket at concurrency 1 and 2, and a 2-shard
``--learn-states`` fleet whose imports are cracked through
``_on_valuable_seed``.  Two crafted lib60870 rows pin what no campaign
row tells apart: a valuable trace and a steered packet, each strictly
rejected by its own model, are cracked with the trees they were built
from.
"""

import dataclasses
import os
import random

import pytest

from repro.channel import FaultingChannel
from repro.core import CampaignConfig, make_engine, run_campaign, run_fleet
from repro.core.campaign import default_campaign_policy
from repro.core.corpus import PuzzleCorpus
from repro.core.cracker import FileCracker
from repro.core.engine import GenerationFuzzer, IterationOutcome, PeachStar
from repro.core.seedpool import SeedPool, ValuableSeed
from repro.model.fields import ParseError
from repro.model.generation import choose_model, generate_packet
from repro.net.config import NetConfig
from repro.protocols import get_target
from repro.state import SessionFuzzer, TraceStep
from repro.state.trace import (
    TraceError, decode_trace, encode_trace, is_trace_blob,
)

EXECUTIONS = 600


# ----------------------------------------------------------------------
# the references: each engine's own copy of the steps
# ----------------------------------------------------------------------

def reference_finish_outcome(self, outcome):
    """The replaced ``GenerationFuzzer._finish_outcome``."""
    outcome.executions = self.stats.executions
    outcome.hours = self.clock.hours
    outcome.paths = self.seed_pool.path_count
    return outcome


def reference_iteration(self, coverage_map):
    """The replaced ``GenerationFuzzer._iteration``."""
    tree, packet, model, semantic = self._produce()
    if coverage_map is None:
        result = self.target.run(packet, model.name)
    else:
        result = self.target.run_into(packet, model.name, coverage_map)
    self.clock.charge_execution(instrumented=self.uses_feedback)
    self.stats.executions += 1
    if semantic:
        self.stats.semantic_executions += 1
    outcome = IterationOutcome(packet=packet, model_name=model.name,
                               result=result, semantic=semantic)
    if result.crash is not None:
        self.stats.crashes_total += 1
        outcome.new_unique_crash = self.crashes.add(
            result.crash, self.clock.hours)
    if result.hang:
        self.stats.hangs += 1
    if result.coverage is not None and result.crash is None \
            and not result.hang:
        seed = self.seed_pool.consider(
            packet, model.name, result.coverage,
            self.stats.executions, self.clock.now_ms)
        if seed is not None:
            outcome.seed = seed
            self.stats.valuable_seeds += 1
            self._on_valuable_seed(seed, tree)
    if self.oracle is not None:
        delivered = result.delivered \
            if result.delivered is not None else [packet]
        self._run_oracle(outcome, [(model.name, delivered)])
        self._maybe_steer_divergence(outcome, tree)
    self._absorb_net_stats()
    return reference_finish_outcome(self, outcome)


def reference_base_on_valuable_seed(self, seed, tree=None):
    """The replaced ``GenerationFuzzer._on_valuable_seed``: a no-op."""


def reference_produce(self):
    """The replaced ``PeachStar._produce``, splice step inline."""
    if self._pending and self.rng.random() < self.SEMANTIC_RATIO:
        recipe, model_name = self._pending.popleft()
        model = self.pit.model(model_name)
        tree, packet = self.generator.build(model, recipe)
        return tree, packet, model, True
    model = choose_model(self.pit, self.rng)
    if self.semantic_enabled and not self.corpus.is_empty and \
            self.rng.random() < self.SEMANTIC_RATIO:
        recipes = self.generator.construct(model)
        if recipes:
            self.clock.charge_semantic_generation(len(recipes))
            self.clock.charge_fixup()
            for recipe in recipes[1:]:
                self._pending.append((recipe, model.name))
            tree, packet = self.generator.build(model, recipes[0])
            return tree, packet, model, True
    tree, packet = generate_packet(model, self.rng, self.policy)
    return tree, packet, model, False


def reference_star_on_valuable_seed(self, seed, tree=None):
    """The replaced ``PeachStar._on_valuable_seed``."""
    self.clock.charge_crack()
    new_puzzles = self.cracker.crack(seed.packet, tree)
    self.stats.puzzles = self.corpus.puzzle_count()
    if new_puzzles and self._pending and \
            len(self._pending) > 4 * self.generator.batch_limit:
        while len(self._pending) > 2 * self.generator.batch_limit:
            self._pending.popleft()


def reference_crack_steps(self, steps):
    """The replaced ``SessionFuzzer._crack_steps``."""
    for step in steps:
        self.clock.charge_crack()
        self.cracker.crack(step.packet, step.tree)
    self.stats.puzzles = self.corpus.puzzle_count()


def reference_session_on_valuable_seed(self, seed, tree=None):
    """The replaced ``SessionFuzzer._on_valuable_seed``."""
    if is_trace_blob(seed.packet):
        try:
            steps = decode_trace(seed.packet)
        except TraceError:
            return
        reference_crack_steps(self, steps)
    else:
        reference_star_on_valuable_seed(self, seed, tree)


def reference_produce_step(self, model):
    """The replaced ``SessionFuzzer._produce_step``, splice step inline."""
    if self.semantic_enabled and not self.corpus.is_empty and \
            self.rng.random() < self.SEMANTIC_RATIO:
        recipes = self.generator.construct(model)
        if recipes:
            self.clock.charge_semantic_generation(len(recipes))
            self.clock.charge_fixup()
            tree, packet = self.generator.build(model, recipes[0])
            return tree, packet, True
    tree, packet = generate_packet(model, self.rng, self.policy)
    return tree, packet, False


def reference_session_iterate(self):
    """The replaced ``SessionFuzzer.iterate``, record body inline."""
    steps = self._produce_trace()
    binder = self._make_binder(steps)
    result = self.target.run_trace(
        [(step.packet, step.model_name) for step in steps], binder)
    for _ in range(result.steps_executed):
        self.clock.charge_execution(instrumented=self.uses_feedback)
    self.stats.executions += result.steps_executed
    self.stats.traces += 1
    observe = getattr(self.state_model, "observe", None)
    if observe is not None:
        observe(steps, result)
    learned = getattr(self.state_model, "learned_state_count", None)
    if learned is not None:
        self.stats.learned_states = learned
    semantic_steps = sum(
        1 for step in steps[:result.steps_executed] if step.semantic)
    self.stats.semantic_executions += semantic_steps
    encoded = encode_trace(steps)
    outcome = IterationOutcome(
        packet=encoded, model_name=self.session_model_name,
        result=result, semantic=semantic_steps > 0)
    if result.crash is not None:
        result.crash.trace = encoded
        result.crash.crash_step = result.crash_step
        self.stats.crashes_total += 1
        outcome.new_unique_crash = self.crashes.add(
            result.crash, self.clock.hours)
    if result.hang:
        self.stats.hangs += 1
    if result.coverage is not None and result.crash is None \
            and not result.hang:
        seed = self.seed_pool.consider(
            encoded, self.session_model_name, result.coverage,
            self.stats.executions, self.clock.now_ms)
        if seed is not None:
            outcome.seed = seed
            self.stats.valuable_seeds += 1
            reference_crack_steps(self, steps)
    if self.oracle is not None:
        per_step = result.delivered if result.delivered \
            else [[wire] for wire in result.sent]
        self._run_oracle(outcome, [
            (steps[index].model_name, frames)
            for index, frames in enumerate(per_step)])
        self._maybe_steer_divergence(outcome, None)
    self._absorb_net_stats()
    return reference_finish_outcome(self, outcome)


def reference_consider(self, packet, model_name, coverage_map,
                       execution_index, sim_time_ms):
    """The replaced ``SeedPool.consider``, seed built inline."""
    if not self.coverage.merge(coverage_map):
        return None
    seed = ValuableSeed(
        packet=packet,
        model_name=model_name,
        execution_index=execution_index,
        sim_time_ms=sim_time_ms,
        edges_touched=coverage_map.edge_count(),
        path_hash=coverage_map.path_hash(),
    )
    self.seeds.append(seed)
    return seed


REFERENCES = [
    (GenerationFuzzer, "_iteration", reference_iteration),
    (GenerationFuzzer, "_on_valuable_seed", reference_base_on_valuable_seed),
    (PeachStar, "_produce", reference_produce),
    (PeachStar, "_on_valuable_seed", reference_star_on_valuable_seed),
    (SessionFuzzer, "iterate", reference_session_iterate),
    (SessionFuzzer, "_on_valuable_seed", reference_session_on_valuable_seed),
    (SessionFuzzer, "_produce_step", reference_produce_step),
    (SeedPool, "consider", reference_consider),
]

#: the shared steps; the reference runs must never reach them
SHARED_STEPS = [(GenerationFuzzer, "_record"), (GenerationFuzzer, "_crack"),
                (PeachStar, "_crack"), (PeachStar, "_spliced")]


def _unreachable(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"the reference run called {name}")
    return fail


def _swap_in_references(monkeypatch):
    for owner, name, reference in REFERENCES:
        monkeypatch.setattr(owner, name, reference)
    for owner, name in SHARED_STEPS:
        monkeypatch.setattr(owner, name, _unreachable(name))


# ----------------------------------------------------------------------
# signatures
# ----------------------------------------------------------------------

def _files(root):
    """Every file under *root*, the root's own path masked."""
    files = {}
    marker = os.fsencode(root)
    for folder, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = \
                    handle.read().replace(marker, b"<root>")
    return files


def _reports(reports):
    return [dataclasses.asdict(report) for report in reports]


def _campaign_signature(engine, result, root):
    state_model = getattr(engine, "state_model", None)
    corpus = getattr(engine, "corpus", None)
    cracker = getattr(engine, "cracker", None)
    return {
        "executions": result.executions,
        "final": (result.final_paths, result.final_edges),
        "path_hashes": result.path_hashes,
        "series": result.series,
        "stats": result.stats,
        "crashes": _reports(result.unique_crashes),
        "crash_times": result.crash_times,
        "divergences": _reports(result.unique_divergences),
        "clock": engine.clock.now_ms,
        "rng": engine.rng.getstate(),
        "corpus": None if corpus is None else
        (corpus._store, corpus.rng.getstate()),
        "cracker": None if cracker is None else
        (cracker.seeds_cracked, cracker.models_matched,
         cracker.puzzles_deposited),
        "pending": list(getattr(engine, "_pending", ())),
        "learner": getattr(state_model, "snapshot", lambda: None)(),
        "workspace": _files(root) if root is not None else None,
    }


# ----------------------------------------------------------------------
# the rows
# ----------------------------------------------------------------------

#: id -> (engine, target, seed, CampaignConfig overrides)
CAMPAIGNS = {
    "peach-libiec61850": ("peach", "libiec61850", 1, {}),
    "peach-opendnp3-differential": ("peach", "opendnp3", 1,
                                    dict(differential=True)),
    "star-libmodbus": ("peach-star", "libmodbus", 1, {}),
    "star-libmodbus-workspace": ("peach-star", "libmodbus", 3,
                                 dict(workspace=True)),
    "star-libiccp": ("peach-star", "libiccp", 1, {}),
    "star-iec104-faults": ("peach-star", "iec104", 5,
                           dict(channel_faults=0.25)),
    "star-lib60870-faults-steered": ("peach-star", "lib60870", 5,
                                     dict(channel_faults=0.25,
                                          steer_divergence=True)),
    "learn-iec104-workspace": ("peach-star", "iec104", 1,
                               dict(learn_states=True, workspace=True)),
    "learn-lib60870": ("peach-star", "lib60870", 2,
                       dict(learn_states=True)),
    "learn-opendnp3-faults-steered": ("peach-star", "opendnp3", 2,
                                      dict(learn_states=True,
                                           channel_faults=0.25,
                                           steer_divergence=True)),
    "sessions-libmodbus": ("peach-star", "libmodbus", 2,
                           dict(sessions=True)),
    "sessions-lib60870-faults": ("peach-star", "lib60870", 5,
                                 dict(sessions=True, channel_faults=0.25)),
    "loopback-iec104-faults": ("peach-star", "iec104", 4,
                               dict(net=NetConfig(), channel_faults=0.25)),
    "loopback-iec104-sessions-concurrency-2": (
        "peach-star", "iec104", 4,
        dict(sessions=True, net=NetConfig(concurrency=2))),
}


def _campaign(engine_name, target_name, seed, overrides, root):
    overrides = dict(overrides)
    if overrides.pop("workspace", False):
        overrides["workspace"] = root
    else:
        root = None
    config = CampaignConfig(budget_hours=24.0, max_executions=EXECUTIONS,
                            record_every=25, checkpoint_every=100,
                            **overrides)
    spec = get_target(target_name)
    engine = make_engine(engine_name, spec, seed, config)
    result = run_campaign(engine_name, spec, seed=seed, config=config,
                          engine=engine)
    return _campaign_signature(engine, result, root)


@pytest.mark.parametrize("row", list(CAMPAIGNS))
def test_campaigns_end_like_the_references(row, tmp_path, monkeypatch):
    engine_name, target_name, seed, overrides = CAMPAIGNS[row]
    shared = _campaign(engine_name, target_name, seed, overrides,
                       str(tmp_path / "ws"))
    _swap_in_references(monkeypatch)
    reference = _campaign(engine_name, target_name, seed, overrides,
                          str(tmp_path / "ws-reference"))
    assert shared == reference
    stats = shared["stats"]
    assert stats["valuable_seeds"] > 0
    if engine_name == "peach-star":
        assert stats["puzzles"] > 0 and stats["semantic_executions"] > 0
    if overrides.get("steer_divergence"):
        assert stats["steered_seeds"] > 0


def test_star_rows_queue_and_sessions_do_not():
    """What the splice-step rows rest on: a single-packet campaign ends
    with recipes queued, a session campaign never queues one."""
    single = _campaign("peach-star", "libmodbus", 1, {}, None)
    session = _campaign("peach-star", "libmodbus", 2, dict(sessions=True),
                        None)
    assert single["pending"]
    assert session["pending"] == []


def _unparsable_step(pit):
    """A generated step whose packet its own model strictly rejects."""
    rng = random.Random(1)
    policy = default_campaign_policy()
    while True:
        model = choose_model(pit, rng)
        tree, packet = generate_packet(model, rng, policy)
        try:
            model.parse(packet)
        except ParseError:
            return TraceStep(model_name=model.name, packet=packet,
                             tree=tree)


def _crack_one_trace():
    engine = make_engine("peach-star", get_target("lib60870"), 1,
                         CampaignConfig(sessions=True))
    step = _unparsable_step(engine.pit)
    engine._produce_trace = lambda: [step]
    assert engine.iterate().valuable
    cracker = engine.cracker
    return (engine.corpus._store, cracker.models_matched,
            cracker.puzzles_deposited, engine.clock.now_ms)


def test_a_valuable_trace_cracks_its_live_trees(monkeypatch):
    """A step is cracked with the tree it was built from, so a packet
    that does not parse under its own model still deposits that tree."""
    shared = _crack_one_trace()
    _swap_in_references(monkeypatch)
    assert _crack_one_trace() == shared
    assert shared[2] > 0


def _steer_one_packet():
    """A coverage-stale packet steered in by the divergence it shows."""
    engine = make_engine("peach-star", get_target("lib60870"), 1,
                         CampaignConfig(steer_divergence=True))
    step = _unparsable_step(engine.pit)
    model = engine.pit.model(step.model_name)
    engine._produce = lambda: (step.tree, step.packet, model, False)
    # every frame faulted: this one arrives as a diverging frame
    engine.target.channel = FaultingChannel(1.0, random.Random(0))
    virgin = engine.seed_pool.coverage.virgin
    virgin[:] = b"\xff" * len(virgin)  # no bucket is new any more
    outcome = engine.iterate()
    assert outcome.valuable and engine.stats.steered_seeds == 1
    cracker = engine.cracker
    return (engine.corpus._store, cracker.models_matched,
            cracker.puzzles_deposited, engine.clock.now_ms)


def test_a_steered_packet_cracks_its_live_tree(monkeypatch):
    """A steered packet is cracked with the tree it was built from, so
    a packet its own model rejects still deposits that tree."""
    shared = _steer_one_packet()
    _swap_in_references(monkeypatch)
    assert _steer_one_packet() == shared
    pit = get_target("lib60870").make_pit()
    step = _unparsable_step(pit)

    def fresh_crack(tree):
        return FileCracker(pit, PuzzleCorpus()).crack(step.packet, tree)

    assert shared[2] == fresh_crack(step.tree) != fresh_crack(None)


def _fleet(root):
    fleet = run_fleet("peach-star", get_target("iec104"), shards=2,
                      workspace_dir=root, seed=3, sync_every=300,
                      config=CampaignConfig(budget_hours=6.0,
                                            learn_states=True),
                      max_workers=1)
    shards = [(result.executions, result.path_hashes, result.series,
               result.stats, _reports(result.unique_crashes))
              for result in fleet.shard_results]
    return (shards, fleet.rounds, fleet.merged_path_hashes,
            fleet.imported_seeds, _files(root))


def test_learning_fleet_ends_like_the_reference(tmp_path, monkeypatch):
    shared = _fleet(str(tmp_path / "fleet"))
    _swap_in_references(monkeypatch)
    assert _fleet(str(tmp_path / "fleet-reference")) == shared
    assert sum(shared[3]) > 0  # imports were cracked
