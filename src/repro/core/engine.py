"""The two fuzzing engines: baseline Peach and Peach*.

:class:`GenerationFuzzer` is paper Alg. 1 — the plain generation-based
loop: CHOOSE a data model, GENERATE every chunk with the type-aware
mutators, JOINT, RUNTARGET, record crashes/hangs.  It collects *no*
feedback during fuzzing (the paper's Peach discards packets that achieve
new coverage).

:class:`PeachStar` is the paper's Fig. 3 system: the same loop augmented
with (1) coverage-based valuable-seed identification, (2) the File
Cracker building the puzzle corpus, and (3) semantic-aware generation
with File Fixup once the corpus is non-empty.  When the corpus is empty
it degrades exactly to the baseline strategy, as the paper specifies.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, fields
from typing import Deque, List, Optional, Tuple

from repro.core.corpus import PuzzleCorpus
from repro.core.cracker import FileCracker
from repro.core.seedpool import SeedPool
from repro.core.semantic import SemanticGenerator, SpliceRecipe
from repro.model.datamodel import DataModel, Pit
from repro.model.generation import choose_model, generate_packet
from repro.model.instree import InsTree
from repro.model.mutators import GenerationPolicy
from repro.runtime.clock import SimulatedClock
from repro.runtime.target import ExecResult, Target
from repro.sanitizer.report import CrashDatabase


@dataclass(slots=True)
class IterationOutcome:
    """What one fuzzing iteration produced (consumed by the campaign).

    In session mode ``packet`` is the canonical encoded trace and
    ``result`` a :class:`~repro.runtime.target.TraceResult` (field-
    compatible where this layer looks).
    """

    packet: bytes
    model_name: str
    result: "ExecResult"
    new_unique_crash: bool = False
    semantic: bool = False  # packet came from donor splicing
    #: divergence reports newly deduplicated this iteration (empty
    #: unless a differential oracle is attached)
    new_divergences: Tuple = ()
    #: the ValuableSeed retained this iteration (None unless valuable);
    #: the campaign driver persists it from here instead of reaching
    #: into the pool, which is already ahead when a batch completes
    seed: Optional[object] = None
    #: post-iteration engine readings, captured so the campaign driver's
    #: cadence bookkeeping sees each iteration's values even though it
    #: reads the outcomes only after the whole batch has run
    executions: int = 0
    hours: float = 0.0
    paths: int = 0

    @property
    def valuable(self) -> bool:
        """Whether this iteration retained a seed."""
        return self.seed is not None


@dataclass(slots=True)
class EngineStats:
    executions: int = 0
    valuable_seeds: int = 0
    semantic_executions: int = 0
    crashes_total: int = 0
    hangs: int = 0
    puzzles: int = 0
    #: seeds absorbed from sibling shards during fleet corpus sync (never
    #: counted as locally-discovered valuable seeds)
    imported_seeds: int = 0
    #: session mode: whole traces executed (``executions`` counts steps)
    traces: int = 0
    #: response-feature classes observed by a state-learning campaign
    #: (0 for single-packet and hand-modelled session campaigns)
    learned_states: int = 0
    #: divergence findings recorded by the differential oracle (total,
    #: pre-deduplication — the analog of ``crashes_total``)
    divergences_total: int = 0
    #: transport faults actually injected by a faulting channel
    channel_faults: int = 0
    #: seeds retained by divergence steering (``--steer-divergence``):
    #: coverage-stale but first at a new parse-divergence site
    steered_seeds: int = 0
    #: live-network scenario events (0 on the deterministic loopback path)
    net_timeouts: int = 0
    net_reconnects: int = 0

    def as_dict(self) -> dict:
        """Every stat field, derived from the dataclass definition.

        A hand-maintained mirror here once let newly added stats vanish
        silently from workspace checkpoints and fleet tables; deriving
        from ``dataclasses.fields`` makes that impossible (pinned by the
        round-trip test in tests/core).
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}


class GenerationFuzzer:
    """Baseline Peach: Alg. 1's continuous generation loop.

    Parameters
    ----------
    pit:
        The format specification.
    target:
        Target harness (with or without an instrumentation collector —
        the baseline ignores coverage either way; campaigns attach one so
        the *measurement* framework sees both engines identically, as the
        paper does).
    rng:
        Seeded RNG driving every random decision.
    clock:
        Simulated campaign clock (may be shared with the campaign).
    policy:
        Mutator strategy weights.
    oracle:
        Optional :class:`repro.channel.oracle.DifferentialOracle`; when
        attached, every delivered frame is examined for parse-path
        divergence and new findings are deduplicated into
        ``self.divergences`` (the :class:`CrashDatabase` twin of
        ``self.crashes``).
    steer_divergence:
        ``--steer-divergence``: an execution whose coverage is stale but
        whose frames hit a first-seen divergence site still enters the
        seed pool (behavioral novelty as a feedback signal).
    """

    engine_name = "peach"
    uses_feedback = False
    #: whether iterate_batch may run several iterations per call
    #: (session engines produce whole traces and opt out)
    supports_batching = True

    def __init__(self, pit: Pit, target: Target, rng: random.Random,
                 clock: Optional[SimulatedClock] = None,
                 policy: Optional[GenerationPolicy] = None,
                 oracle=None, steer_divergence: bool = False):
        self.pit = pit
        self.target = target
        self.rng = rng
        self.clock = clock if clock is not None else SimulatedClock()
        self.policy = policy
        self.oracle = oracle
        self.steer_divergence = steer_divergence
        self.crashes = CrashDatabase()
        self.divergences = CrashDatabase()
        self.stats = EngineStats()
        self.seed_pool = SeedPool()  # used for *measurement* only
        #: coverage map pool for iterate_batch — maps whose coverage must
        #: outlive the batch (valuable outcomes) are retired from
        #: rotation until the driver has read them; see
        #: :meth:`_batch_map_pool`
        self._batch_maps: List = []

    # -- packet production ---------------------------------------------------

    def _produce(self) -> Tuple[InsTree, bytes, DataModel, bool]:
        model = choose_model(self.pit, self.rng)
        tree, packet = generate_packet(model, self.rng, self.policy)
        return tree, packet, model, False

    # -- one iteration ---------------------------------------------------------

    def iterate(self) -> IterationOutcome:
        """Run one generate→execute→record iteration."""
        return self._iteration(None)

    def _iteration(self, coverage_map) -> IterationOutcome:
        """The iteration body; *coverage_map* receives the coverage.

        ``None`` records into the target's own collector map through
        :meth:`Target.run`; a map records into that map through
        :meth:`Target.run_into`, so the result's coverage outlives the
        next iteration (:meth:`iterate_batch` relies on this).
        """
        tree, packet, model, semantic = self._produce()
        if coverage_map is None:
            result = self.target.run(packet, model.name)
        else:
            result = self.target.run_into(packet, model.name, coverage_map)
        outcome = IterationOutcome(packet=packet, model_name=model.name,
                                   result=result, semantic=semantic)
        frames_per_step = None
        if self.oracle is not None:
            delivered = result.delivered \
                if result.delivered is not None else [packet]
            frames_per_step = [(model.name, delivered)]
        return self._record(outcome, 1, int(semantic), tree,
                            [(packet, tree)], frames_per_step)

    def _record(self, outcome: IterationOutcome, executed: int,
                spliced: int, tree: Optional[InsTree], parts,
                frames_per_step) -> IterationOutcome:
        """Account and record one execution; every engine ends here.

        *executed* steps ran (one for a packet), *spliced* of them came
        from donor splicing.  *tree* is the packet's own tree, which a
        steered seed is cracked with (``None`` for a trace), *parts*
        the ``(packet, tree)`` pairs a valuable input is cracked into,
        and *frames_per_step* what the oracle examines (see
        :meth:`_run_oracle`; ``None`` without an oracle).
        The outcome leaves stamped with the post-iteration readings the
        campaign driver uses.
        """
        result = outcome.result
        for _ in range(executed):
            self.clock.charge_execution(instrumented=self.uses_feedback)
        self.stats.executions += executed
        self.stats.semantic_executions += spliced
        if result.crash is not None:
            self.stats.crashes_total += 1
            outcome.new_unique_crash = self.crashes.add(
                result.crash, self.clock.hours)
        if result.hang:
            self.stats.hangs += 1
        # Crashing/hanging inputs go to the crash set (C7), not the seed
        # queue: their coverage is dominated by the fault path and their
        # chunks make poisonous donors — same policy as AFL's queue.
        if result.coverage is not None and result.crash is None \
                and not result.hang:
            seed = self.seed_pool.consider(
                outcome.packet, outcome.model_name, result.coverage,
                self.stats.executions, self.clock.now_ms)
            if seed is not None:
                outcome.seed = seed
                self.stats.valuable_seeds += 1
                self._crack(parts)
        if self.oracle is not None:
            self._run_oracle(outcome, frames_per_step)
            self._maybe_steer_divergence(outcome, tree)
        self._absorb_net_stats()
        outcome.executions = self.stats.executions
        outcome.hours = self.clock.hours
        outcome.paths = self.seed_pool.path_count
        return outcome

    # -- batched execution -----------------------------------------------------

    def _can_batch(self) -> bool:
        """Whether :meth:`iterate_batch` may run more than one iteration.

        It needs an engine that produces single packets (session engines
        produce whole traces), a target that records into a caller's
        map (``supports_batch``: the in-process :class:`Target` does,
        the live-network ``SocketTarget`` does not) and a collector
        producing coverage.
        Channels and oracles run inside the shared iteration body, so
        they batch like plain campaigns.
        """
        target = self.target
        return (self.supports_batching
                and target.supports_batch
                and target.collector is not None)

    def _batch_map_pool(self):
        """The retained-coverage map pool (type-matched, never shrunk).

        The batch loop runs every execution into ``pool[i]`` and only
        advances ``i`` past maps whose coverage must outlive the batch
        (valuable outcomes — the campaign driver serializes exactly
        those).  Everything else reuses the same map, which stays
        cache-hot like the collector's own map; the pool converges to
        (max valuable outcomes per batch + 1) entries.
        """
        maps = self._batch_maps
        template = type(self.target.collector.map)
        if maps and type(maps[0]) is not template:
            maps.clear()  # the collector's map impl was swapped
        if not maps:
            maps.append(template())
        return maps, template

    def iterate_batch(self, max_iterations: int,
                      exec_bound: Optional[int] = None,
                      time_bound_ms: Optional[float] = None
                      ) -> List[IterationOutcome]:
        """Run up to *max_iterations* iterations of the iteration body.

        Every iteration is the body :meth:`iterate` runs, so the outcome
        stream, RNG draws and clock arithmetic equal those of as many
        :meth:`iterate` calls.  What the batch adds is the map pool: an
        outcome's coverage must survive until the campaign driver reads
        it after the batch, so a valuable outcome retires its map from
        rotation and the next iteration records into a fresh one.

        *exec_bound* caps total executions (the campaign driver aligns
        batches to its checkpoint/stop/pause cadences with it) and
        *time_bound_ms* stops the batch exactly where a one-at-a-time
        driver loop would have stopped.  Where :meth:`_can_batch` says
        no, the call runs a single :meth:`iterate`.
        """
        n = max_iterations
        if exec_bound is not None:
            n = min(n, exec_bound - self.stats.executions)
        if n <= 1 or not self._can_batch():
            # One outcome per call: the result's coverage is the
            # collector's (or trace's) live map, which the next
            # iteration would overwrite before the caller's bookkeeping
            # could read it.
            return [self.iterate()]
        maps, template = self._batch_map_pool()
        index = 0
        outcomes: List[IterationOutcome] = []
        for _ in range(n):
            outcome = self._iteration(maps[index])
            outcomes.append(outcome)
            if outcome.valuable:
                index += 1
                if index == len(maps):
                    maps.append(template())
            if time_bound_ms is not None and \
                    self.clock.now_ms >= time_bound_ms:
                break
        return outcomes

    def _crack(self, parts) -> None:
        """Hook for feedback-driven engines; the baseline cracks nothing."""

    def _on_valuable_seed(self, seed, tree: Optional[InsTree] = None
                          ) -> None:
        """Crack a seed retained outside :meth:`_record`: a steered seed
        with the *tree* it was built from, or a fleet import."""
        self._crack([(seed.packet, tree)])

    def _maybe_steer_divergence(self, outcome: IterationOutcome,
                                tree: Optional[InsTree]) -> None:
        """Divergence-aware seed scoring (``--steer-divergence``).

        The ``consider`` call already folded this execution's coverage
        into the virgin map, so a steered seed is ``force_add``-ed
        without a second merge — journal-replay resume stays
        bit-identical.
        """
        if not self.steer_divergence or not outcome.new_divergences:
            return
        result = outcome.result
        if outcome.valuable or result.coverage is None \
                or result.crash is not None or result.hang:
            return
        seed = self.seed_pool.force_add(
            outcome.packet, outcome.model_name, result.coverage,
            self.stats.executions, self.clock.now_ms)
        outcome.seed = seed
        self.stats.valuable_seeds += 1
        self.stats.steered_seeds += 1
        self._on_valuable_seed(seed, tree)

    def _absorb_net_stats(self) -> None:
        """Sync transport-layer counters into stats (every iteration).

        The channel-fault counter used to sync only inside
        ``_run_oracle``, so a ``--channel-faults`` campaign with the
        differential oracle explicitly disabled reported 0 injected
        faults forever; syncing here runs on every iteration whenever a
        faulting channel is attached, oracle or not.
        """
        channel = self.target.channel
        if channel is not None:
            self.stats.channel_faults = channel.faults_injected
        take = getattr(self.target, "take_net_counters", None)
        if take is None:
            return
        timeouts, reconnects = take()
        self.stats.net_timeouts += timeouts
        self.stats.net_reconnects += reconnects

    def _run_oracle(self, outcome: IterationOutcome, frames_per_step) -> None:
        """Examine delivered frames for divergence; dedup new findings.

        *frames_per_step* is ``[(model_name, [frame, ...]), ...]`` — the
        post-channel frames actually handed to the server, labelled with
        the step's model so the strict/lenient differential knows which
        grammar to consult.  (The channel-fault counter sync lives in
        ``_absorb_net_stats`` so it also runs with the oracle disabled.)
        """
        new = []
        for model_name, frames in frames_per_step:
            for frame in frames:
                for report in self.oracle.examine(
                        frame, model_name, self.stats.executions):
                    self.stats.divergences_total += 1
                    if self.divergences.add(report, self.clock.hours):
                        new.append(report)
        outcome.new_divergences = tuple(new)

    # -- reporting -------------------------------------------------------------

    @property
    def path_count(self) -> int:
        return self.seed_pool.path_count


class PeachStar(GenerationFuzzer):
    """Peach*: coverage-guided packet crack and generation (Fig. 3).

    Every valuable seed is cracked into the puzzle corpus, as in the
    paper.

    Additional parameters
    ---------------------
    semantic_enabled:
        Ablation switch: without semantic generation Peach* still
        cracks, which measures pure corpus-building cost.
    """

    engine_name = "peach-star"
    uses_feedback = True

    #: cap on seeds produced per semantic-generation invocation (the
    #: bound on Alg. 3's cartesian product)
    SEMANTIC_BATCH = 16
    #: fraction of iterations drawn from the pending semantic queue
    #: (the remainder keeps exploring with the inherent strategy)
    SEMANTIC_RATIO = 0.5

    def __init__(self, pit: Pit, target: Target, rng: random.Random,
                 clock: Optional[SimulatedClock] = None,
                 policy: Optional[GenerationPolicy] = None,
                 semantic_enabled: bool = True,
                 pin_prob: float = 0.5,
                 oracle=None, steer_divergence: bool = False):
        super().__init__(pit, target, rng, clock, policy, oracle=oracle,
                         steer_divergence=steer_divergence)
        self.corpus = PuzzleCorpus(rng=random.Random(rng.getrandbits(32)))
        self.cracker = FileCracker(pit, self.corpus)
        self.generator = SemanticGenerator(
            self.corpus, rng, policy, batch_limit=self.SEMANTIC_BATCH,
            pin_prob=pin_prob)
        self.semantic_enabled = semantic_enabled
        #: decided-but-unbuilt spliced seeds: (recipe, model name), built
        #: only when popped
        self._pending: Deque[Tuple[SpliceRecipe, str]] = deque()

    # -- packet production ---------------------------------------------------

    def _produce(self) -> Tuple[InsTree, bytes, DataModel, bool]:
        if self._pending and self.rng.random() < self.SEMANTIC_RATIO:
            recipe, model_name = self._pending.popleft()
            model = self.pit.model(model_name)
            tree, packet = self.generator.build(model, recipe)
            return tree, packet, model, True
        model = choose_model(self.pit, self.rng)
        spliced = self._spliced(model, self._pending)
        if spliced is not None:
            return (*spliced, model, True)
        tree, packet = generate_packet(model, self.rng, self.policy)
        return tree, packet, model, False

    def _spliced(self, model: DataModel,
                 queue: Optional[Deque[Tuple[SpliceRecipe, str]]] = None
                 ) -> Optional[Tuple[InsTree, bytes]]:
        """Semantic-aware generation (Alg. 3) of one *model* packet.

        Once the corpus holds puzzles, a roll of ``SEMANTIC_RATIO``
        decides a spliced batch and builds its first recipe; the rest
        of the batch joins *queue* when one is given.  ``None`` leaves
        the caller to the inherent strategy.
        """
        if not self.semantic_enabled or self.corpus.is_empty or \
                self.rng.random() >= self.SEMANTIC_RATIO:
            return None
        recipes = self.generator.construct(model)
        if not recipes:
            return None
        # the paper's cost model charges the whole batch here, at
        # construct time, however few slots are ever built
        self.clock.charge_semantic_generation(len(recipes))
        self.clock.charge_fixup()
        if queue is not None:
            queue.extend((recipe, model.name) for recipe in recipes[1:])
        return self.generator.build(model, recipes[0])

    # -- feedback --------------------------------------------------------------

    def _crack(self, parts) -> None:
        """Crack a valuable input into the puzzle corpus (Alg. 2).

        *parts* are its ``(packet, tree)`` pairs, one per packet; each
        costs one crack on the clock.
        """
        new_puzzles = 0
        for packet, tree in parts:
            self.clock.charge_crack()
            new_puzzles += self.cracker.crack(packet, tree)
        self.stats.puzzles = self.corpus.puzzle_count()
        if new_puzzles and self._pending and \
                len(self._pending) > 4 * self.generator.batch_limit:
            # keep the queue bounded: drop the stalest spliced recipes
            while len(self._pending) > 2 * self.generator.batch_limit:
                self._pending.popleft()
