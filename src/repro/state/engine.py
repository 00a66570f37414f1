"""SessionFuzzer: the sequence-aware engine (session mode of Peach*).

The single-packet loop of :class:`~repro.core.engine.PeachStar` is kept
intact for everything *within* a step — coverage-guided valuable-seed
identification, packet cracking into the puzzle corpus, semantic-aware
generation with File Fixup — but the unit of fuzzing becomes a
multi-packet :class:`~repro.state.trace.TraceStep` sequence:

* fresh traces come from random walks over the protocol's
  :class:`~repro.state.model.StateModel`;
* mutation picks one step of a valuable trace and re-generates it
  through the crack-and-generate machinery (the honest prefix is
  replayed unchanged, with response-derived bindings re-derived live by
  the :class:`~repro.state.binder.TraceBinder`), or splices two traces,
  extends a trace by walking on from its final state, or truncates it;
* a trace is *valuable* when its step-accumulated coverage map reaches
  new bucketed state, and every step of a valuable trace is cracked
  into the puzzle corpus;
* a crash is attributed to the step that raised it, and the crash
  report carries the full encoded trace for session-level triage.

Every random decision draws from the engine RNG and all mutable state
lives in structures the campaign workspace already checkpoints (the
valuable-trace pool *is* the persisted seed corpus), so session
campaigns inherit kill-and-resume bit-identity and fleet corpus
exchange without new persistence machinery — traces travel as ordinary
corpus entries in their canonical encoded form.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.engine import IterationOutcome, PeachStar
from repro.model.datamodel import DataModel, Pit
from repro.model.fields import ModelError
from repro.model.generation import choose_model, generate_packet
from repro.model.instree import InsTree
from repro.model.mutators import GenerationPolicy
from repro.runtime.clock import SimulatedClock
from repro.runtime.target import Target
from repro.state.binder import LaneBinder, TraceBinder, apply_pins
from repro.state.model import StateModel, Transition
from repro.state.trace import (
    TraceError, TraceStep, decode_trace, encode_trace, is_trace_blob,
    trace_model_name,
)


class SessionFuzzer(PeachStar):
    """Peach* in session mode: traces are the unit of fuzzing.

    Additional parameters
    ---------------------
    state_model:
        The protocol's session state machine.
    concurrency:
        ``--concurrency N``: a trace is N interleaved wire sessions —
        the transport deals step *i* to connection ``i % N`` against a
        shared-state server, session variables are scoped per lane
        (:class:`~repro.state.binder.LaneBinder`), and fresh walks are
        N independent state-machine walks merged round-robin so each
        lane is itself a plausible session.  Requires a shared-state
        :class:`~repro.net.target.SocketTarget` to mean anything; with
        the default in-process target it degrades to plain sessions.
    """

    engine_name = "peach-star"
    uses_feedback = True
    #: traces are produced and executed whole (run_trace resets the
    #: server once per trace and shares a heap across steps) into the
    #: trace's own map, so iterate_batch runs one trace per call
    supports_batching = False

    #: cumulative mutation-op thresholds on one uniform roll:
    #: crack-and-mutate one step / splice / extend / truncate
    _OP_MUTATE = 0.50
    _OP_SPLICE = 0.65
    _OP_EXTEND = 0.85

    #: length bound for fresh random walks (mutated traces may grow to
    #: twice this before splice/extend results are clipped)
    MAX_TRACE_STEPS = 6
    #: probability of proposing a fresh walk instead of mutating a
    #: valuable trace (always 1.0 while the trace pool is empty)
    FRESH_TRACE_PROB = 0.35

    def __init__(self, pit: Pit, target: Target, rng: random.Random,
                 clock: Optional[SimulatedClock] = None,
                 policy: Optional[GenerationPolicy] = None,
                 state_model: Optional[StateModel] = None,
                 concurrency: int = 1,
                 **peachstar_kwargs):
        super().__init__(pit, target, rng, clock, policy,
                         **peachstar_kwargs)
        if state_model is None:
            raise ValueError("SessionFuzzer needs a state model")
        state_model.validate_against(pit)
        self.state_model = state_model
        self.concurrency = max(1, concurrency)
        self.session_model_name = trace_model_name(state_model.name)
        #: the binders' shared result memo (derived state: never
        #: checkpointed, so a resumed campaign starts it empty)
        self._binder_memo: dict = {}

    # -- one iteration ---------------------------------------------------

    def _make_binder(self, steps: List[TraceStep]):
        if self.concurrency > 1:
            return LaneBinder(self.pit, steps, self.concurrency,
                              self._binder_memo)
        return TraceBinder(self.pit, steps, self._binder_memo)

    def iterate(self) -> IterationOutcome:
        """Produce one trace, run it as a session, record the outcome."""
        steps = self._produce_trace()
        binder = self._make_binder(steps)
        result = self.target.run_trace(
            [(step.packet, step.model_name) for step in steps], binder)
        for _ in range(result.steps_executed):
            self.clock.charge_execution(instrumented=self.uses_feedback)
        self.stats.executions += result.steps_executed
        self.stats.traces += 1
        # state learning: a LearnedStateModel grows its automaton from
        # the observed responses and re-annotates the executed steps
        # with the observed states (hand-written models are a no-op) —
        # before the trace is encoded, so the corpus stores real states
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
        # Crashing/hanging traces stay out of the pool, same policy as
        # the single-packet queue: their coverage is fault-dominated.
        if result.coverage is not None and result.crash is None \
                and not result.hang:
            seed = self.seed_pool.consider(
                encoded, self.session_model_name, None, result.coverage,
                self.stats.executions, self.clock.now_ms)
            if seed is not None:
                outcome.seed = seed
                outcome.valuable = True
                self.stats.valuable_seeds += 1
                self._crack_steps(steps)
        if self.oracle is not None:
            # post-channel frames when a channel ran, the sent wire
            # otherwise; either way labelled with each step's model
            per_step = result.delivered if result.delivered \
                else [[wire] for wire in result.sent]
            self._run_oracle(outcome, [
                (steps[index].model_name, frames)
                for index, frames in enumerate(per_step)])
            self._maybe_steer_divergence(outcome, None)
        self._absorb_net_stats()
        return self._finish_outcome(outcome)

    # -- cracking --------------------------------------------------------

    def _crack_steps(self, steps: List[TraceStep]) -> None:
        """Crack every step of a valuable trace into the puzzle corpus."""
        if not self.crack_enabled:
            return
        for step in steps:
            self.clock.charge_crack()
            self.cracker.crack(step.packet, step.tree)
        self.stats.puzzles = self.corpus.puzzle_count()

    def _on_valuable_seed(self, seed) -> None:
        """Fleet-import hook: imported entries may be encoded traces."""
        if not self.crack_enabled:
            return
        if is_trace_blob(seed.packet):
            try:
                steps = decode_trace(seed.packet)
            except TraceError:
                return
            self._crack_steps(steps)
        else:
            super()._on_valuable_seed(seed)

    # -- trace production ------------------------------------------------

    def _produce_trace(self) -> List[TraceStep]:
        probe = self._next_probe()
        if probe is not None:
            return probe
        pool = self.seed_pool.seeds
        if not pool or self.rng.random() < self.FRESH_TRACE_PROB:
            return self._fresh_walk()
        base = self._steps_of(self.rng.choice(pool))
        if not base:
            return self._fresh_walk()
        roll = self.rng.random()
        if roll < self._OP_MUTATE:
            return self._mutate_one_step(base)
        if roll < self._OP_SPLICE:
            return self._splice(base)
        if roll < self._OP_EXTEND:
            return self._extend(base)
        return self._truncate(base)

    def _next_probe(self) -> Optional[List[TraceStep]]:
        """Bootstrap seed sessions of a learning state model.

        A :class:`~repro.state.learner.LearnedStateModel` hands out
        default-packet walks over the pit until every request kind has
        been observed once (its spec-derived analog of AFLNet's
        recorded seed sessions); hand-written models have no probes.
        Probe production draws nothing from the RNG, so it composes
        with resume determinism trivially.
        """
        probe = getattr(self.state_model, "probe_transitions", None)
        if probe is None:
            return None
        transitions = probe(self.MAX_TRACE_STEPS)
        if not transitions:
            return None
        steps = []
        for transition in transitions:
            model = self.pit.model(transition.send)
            tree = model.build_default()
            steps.append(self._step_from(transition, model, tree,
                                         model.to_wire(tree)))
        return steps

    def _steps_of(self, seed) -> List[TraceStep]:
        try:
            return decode_trace(seed.packet)
        except TraceError:
            return []  # single-packet import from a mixed fleet: skip

    def _produce_step(self, model: DataModel
                      ) -> Tuple[InsTree, bytes, bool]:
        """One step packet via crack-and-generate for a fixed model.

        Mirrors :meth:`PeachStar._produce` minus the model choice and
        the pending-batch queue (sessions need *this* model now; the
        unused remainder of a semantic batch would only queue packets
        for states the trace has already left, so only the first recipe
        is ever built).
        """
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

    def _step_from(self, transition: Transition, model: DataModel,
                   tree: InsTree, packet: bytes,
                   semantic: bool = False) -> TraceStep:
        """A TraceStep carrying the transition's session declarations."""
        if transition.pin:
            tree, packet = apply_pins(model, tree, transition.pin)
        return TraceStep(
            model_name=model.name, packet=packet, state=transition.to,
            bind=dict(transition.bind), capture=dict(transition.capture),
            expect=transition.expect, tree=tree, semantic=semantic)

    def _make_step(self, transition: Transition) -> TraceStep:
        model = self.pit.model(transition.send)
        tree, packet, semantic = self._produce_step(model)
        return self._step_from(transition, model, tree, packet, semantic)

    def _walk(self, state: str, count: int) -> List[TraceStep]:
        steps: List[TraceStep] = []
        for _ in range(count):
            transition = self.state_model.pick_transition(state, self.rng)
            if transition is None:
                break
            steps.append(self._make_step(transition))
            state = transition.to
        return steps

    def _single_walk(self) -> List[TraceStep]:
        steps = self._walk(self.state_model.initial,
                           self.rng.randint(1, self.MAX_TRACE_STEPS))
        if not steps:
            # dead-end initial state: degrade to a one-packet trace
            model = choose_model(self.pit, self.rng)
            tree, packet, semantic = self._produce_step(model)
            steps = [TraceStep(model_name=model.name, packet=packet,
                               state=self.state_model.initial, tree=tree,
                               semantic=semantic)]
        return steps

    def _fresh_walk(self) -> List[TraceStep]:
        if self.concurrency <= 1:
            return self._single_walk()
        # concurrency: N independent walks merged round-robin, so the
        # residue class ``i % N`` (= what each connection sees) is a
        # plausible session on its own.  Lane identity stays positional;
        # mutated traces re-deal however their steps land, which is
        # exactly the kind of cross-session interleaving being fuzzed.
        walks = [self._single_walk() for _ in range(self.concurrency)]
        merged: List[TraceStep] = []
        for rank in range(max(len(walk) for walk in walks)):
            for walk in walks:
                merged.append(walk[rank] if rank < len(walk)
                              else self._filler_step(walk))
        return self._clip(merged)

    def _filler_step(self, walk: List[TraceStep]) -> TraceStep:
        """Keep a short walk's lane aligned: repeat its final step.

        Re-sending the last packet of the exhausted walk keeps every
        rank a full deal of N steps (so ``i % N`` routing never skews)
        and is itself a realistic retransmission.
        """
        return walk[-1]

    # -- mutation ops ----------------------------------------------------

    def _clip(self, steps: List[TraceStep]) -> List[TraceStep]:
        return steps[:2 * self.MAX_TRACE_STEPS]

    def _mutate_one_step(self, base: List[TraceStep]) -> List[TraceStep]:
        """Crack-and-mutate one step; the prefix is replayed honestly."""
        index = self.rng.randrange(len(base))
        victim = base[index]
        try:
            model = self.pit.model(victim.model_name)
        except ModelError:
            return self._fresh_walk()  # foreign import: start over
        tree, packet, semantic = self._produce_step(model)
        base[index] = TraceStep(
            model_name=victim.model_name, packet=packet,
            state=victim.state, bind=dict(victim.bind),
            capture=dict(victim.capture), expect=victim.expect,
            tree=tree, semantic=semantic)
        return base

    def _splice(self, base: List[TraceStep]) -> List[TraceStep]:
        pool = self.seed_pool.seeds
        other = self._steps_of(self.rng.choice(pool))
        if not other:
            return self._mutate_one_step(base)
        cut_base = self.rng.randint(1, len(base))
        cut_other = self.rng.randrange(len(other))
        return self._clip(base[:cut_base] + other[cut_other:])

    def _extend(self, base: List[TraceStep]) -> List[TraceStep]:
        state = base[-1].state or self.state_model.initial
        extra = self._walk(state,
                           self.rng.randint(1, self.MAX_TRACE_STEPS))
        return self._clip(base + extra)

    def _truncate(self, base: List[TraceStep]) -> List[TraceStep]:
        if len(base) == 1:
            return self._mutate_one_step(base)
        return base[:self.rng.randint(1, len(base) - 1)]
