"""AFLNet-style state-machine learning from response features.

Session mode (PR 4) walks hand-written :class:`~repro.state.model.
StateModel`\\ s — which makes stateful fuzzing a property of the three
targets someone modelled.  This module makes it a property of the
*framework*: :class:`LearnedStateModel` infers a protocol state machine
online, from the responses the live server actually sends, and exposes
the exact duck-type the :class:`~repro.state.engine.SessionFuzzer`
already consumes (``initial`` / ``pick_transition`` /
``validate_against`` / ``observe``), so walk, extend and splice operate
on the learned graph as it grows.

The AFLNet analogy, piece by piece:

* **states** are *response-feature classes*.  Each observed reply is
  classified by :class:`ResponseClassifier` into a deterministic label
  built from its type/reason-code leaves — first by strict-parsing it
  under the pit's data models, then (replies rarely *are* legal
  requests) by reading it through the request's own model with the
  lenient parse path (``parse(strict=False, lenient_tokens=True,
  allow_trailing=True)``), and finally by a bounded raw-shape label.
  A dropped packet is the ``silent`` state — which is precisely how the
  STARTDT/STOPDT gates of the IEC 104 family become visible.
* **transitions** record which *request kind* (data-model name) moved
  the session from one feature class to another, with observation
  counts as walk weights.
* **exploration**: a walk standing in a state with no (or few) learned
  edges sends a randomly chosen data model — the learner's analog of
  AFLNet's region-level mutation — and the observed outcome becomes a
  new edge.  The automaton therefore grows from nothing: the first
  traces are plain random walks, and every executed trace refines the
  graph.
* **bindings**: capture/bind/expect declarations are reused from the
  target's hand-written state model when one exists (``binding_hints``)
  so learned traces keep echoing live sequence numbers through the
  :class:`~repro.state.binder.TraceBinder`; targets with no hand model
  simply fuzz without captures, exactly like AFLNet.

The strict reading parses a reply under every model of the pit, and
most of those parses are rejections, so a model whose fixed-offset
token bytes cannot match the reply
(:meth:`~repro.model.datamodel.DataModel.tokens_match`) is skipped
without a parse.  That is exact: ``tokens_match`` is False only for
bytes a strict parse must reject, and a rejected parse adds no reading.

Everything is deterministic given the engine RNG: classification is a
pure function of the response bytes, the automaton preserves first-
observation order, and :meth:`LearnedStateModel.snapshot` /
:meth:`~LearnedStateModel.restore` round-trip the whole learner state
through the workspace's ``state.json`` checkpoint — kill/resume and
fleet sync of a learning campaign stay bit-identical.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Tuple

from repro.model.datamodel import Pit
from repro.model.fields import ModelError, ParseError
from repro.model.generation import choose_model
from repro.state.model import StateModel, Transition

#: leaf semantics treated as response type/reason codes.  The set spans
#: the six bundled pits (IEC 104 family ASDU type/COT and U-frame
#: function, Modbus function code, DNP3 application function + the IIN
#: octets that land in the object-header leaves, MMS/ICCP PDU and
#: service tags) but is purely advisory: an unlisted protocol degrades
#: to silent/raw-shape classes instead of failing.
FEATURE_SEMANTICS = (
    "type_id", "cot", "u_function", "s_marker", "function",
    "diag_sub_function", "app_function", "group", "variation",
    "pdu_tag", "service_tag",
)

#: label of the no-response feature class
SILENT_STATE = "silent"
#: label absorbing feature classes past the state cap
OVERFLOW_STATE = "overflow"
#: features kept per label (leaf order); more would over-split states
MAX_FEATURES_PER_LABEL = 4


def _feature_pairs(tree) -> List[str]:
    """``sem=value`` pairs of the tree's feature leaves, in leaf order.

    Only integer-valued leaves whose bytes were actually present on the
    wire count — lenient parsing substitutes defaults for truncated
    leaves, and a default is not an observation.
    """
    pairs: List[str] = []
    seen = set()
    for node in tree.root.iter_leaves():
        semantic = node.field.semantic
        if semantic in seen or semantic not in FEATURE_SEMANTICS:
            continue
        if not node.raw or not isinstance(node.value, int):
            continue
        seen.add(semantic)
        pairs.append(f"{semantic}={node.value}")
        if len(pairs) >= MAX_FEATURES_PER_LABEL:
            break
    return pairs


class ResponseClassifier:
    """Deterministic response-bytes -> feature-class labelling."""

    #: classification cache bound (responses repeat heavily; the cache
    #: simply stops growing at the cap — results stay identical)
    CACHE_LIMIT = 8192

    def __init__(self, pit: Pit):
        self.pit = pit
        self._cache: Dict[Tuple[str, bytes], str] = {}

    def classify(self, response: Optional[bytes],
                 request_model_name: str) -> str:
        """The learned-state label a response lands the session in."""
        if response is None:
            return SILENT_STATE
        key = (request_model_name, response)
        label = self._cache.get(key)
        if label is None:
            label = self._classify(response, request_model_name)
            if len(self._cache) < self.CACHE_LIMIT:
                self._cache[key] = label
        return label

    def _classify(self, response: bytes, request_model_name: str) -> str:
        # Two readings compete and the more informative one (more
        # feature pairs; legal-packet reading preferred on ties) wins:
        #
        # 1. a reply that is a *legal packet* of the pit carries its
        #    feature leaves directly (peer-direction models, echoes);
        strict_pairs: List[str] = []
        for model in self.pit:
            if not model.tokens_match(response):
                continue  # a strict parse must reject it
            try:
                tree = model.parse(response)
            except (ParseError, ValueError, OverflowError):
                continue
            pairs = _feature_pairs(tree)
            if len(pairs) > len(strict_pairs):
                strict_pairs = pairs
        # 2. reading the reply through the request's own model with the
        #    lenient parse path: shared framing means the type/reason
        #    leaves still line up (a Modbus exception decodes fc|0x80
        #    into the request's function leaf, a DNP3 response its IIN
        #    octets into the object-header leaves — which a low-detail
        #    catch-all model's legal parse would hide).
        lenient_pairs: List[str] = []
        try:
            model = self.pit.model(request_model_name)
        except ModelError:
            model = None
        if model is not None:
            try:
                tree = model.parse(response, strict=False,
                                   lenient_tokens=True, allow_trailing=True)
            except (ParseError, ValueError, OverflowError):
                tree = None
            if tree is not None:
                lenient_pairs = _feature_pairs(tree)
        if strict_pairs and len(strict_pairs) >= len(lenient_pairs):
            return ",".join(strict_pairs)
        if lenient_pairs:
            return "~" + ",".join(lenient_pairs)
        # 3. bounded raw-shape fallback: length bucket + leading byte
        return f"raw[{min(len(response), 512) // 16}]:{response[:1].hex()}"


def binding_hints(state_model: Optional[StateModel]
                  ) -> Dict[str, Tuple[dict, Optional[str], dict]]:
    """Per-request-kind (bind, expect, capture) from a hand-written model.

    The first transition declaring each ``send`` model wins (hand models
    keep these consistent per kind).  Learned transitions reuse the
    hints so the :class:`~repro.state.binder.TraceBinder` keeps echoing
    live sequence numbers / transaction ids; with no hand model the
    learner fuzzes capture-free, AFLNet-style.
    """
    hints: Dict[str, Tuple[dict, Optional[str], dict]] = {}
    if state_model is None:
        return hints
    for state in state_model.states():
        for transition in state.transitions:
            if transition.send not in hints:
                hints[transition.send] = (dict(transition.bind),
                                          transition.expect,
                                          dict(transition.capture))
    return hints


class _LearnedState:
    """One automaton node: outgoing edges in first-observation order."""

    __slots__ = ("name", "edges")

    def __init__(self, name: str):
        self.name = name
        # send model -> {destination label -> observation count},
        # both dicts in first-observation order (order is part of the
        # deterministic walk behaviour and of the snapshot)
        self.edges: Dict[str, Dict[str, int]] = {}


class LearnedStateModel:
    """A StateModel-compatible automaton grown from observed responses.

    Parameters
    ----------
    pit:
        The target's format specification (exploration draws from it).
    hints:
        Output of :func:`binding_hints` (may be empty).
    """

    #: the pre-first-response state of every session
    INITIAL = "genesis"
    #: probability of an exploration step even when learned edges
    #: exist; a state with no learned edges always explores
    EXPLORE_PROB = 0.3
    #: cap on learned feature classes; labels past it collapse into
    #: :data:`OVERFLOW_STATE` so a noisy protocol cannot blow the
    #: automaton (and the checkpoint) up
    MAX_STATES = 64

    def __init__(self, pit: Pit, hints: Optional[Mapping[str, tuple]] = None):
        self.pit = pit
        self.name = f"{pit.name}.learned"
        self.initial = self.INITIAL
        self.hints = dict(hints) if hints else {}
        self.classifier = ResponseClassifier(pit)
        self._states: Dict[str, _LearnedState] = {}
        self._intern(self.initial)
        #: next pit model to emit as a bootstrap probe (see
        #: :meth:`probe_transitions`); persisted in the snapshot
        self._probe_cursor = 0

    # -- StateModel duck-type -------------------------------------------

    def validate_against(self, pit) -> None:
        """Learned transitions only ever reference *pit*'s own models."""
        available = {model.name for model in pit}
        for send in self.hints:
            if send not in available:
                raise ModelError(
                    f"learned model {self.name!r}: binding hint for "
                    f"unknown data model {send!r}")

    def states(self) -> Tuple[_LearnedState, ...]:
        return tuple(self._states.values())

    @property
    def learned_state_count(self) -> int:
        """Feature classes observed so far (the initial node excluded)."""
        return len(self._states) - 1

    def state_labels(self) -> Tuple[str, ...]:
        """Observed feature-class labels, first-observation order."""
        return tuple(name for name in self._states if name != self.initial)

    def pick_transition(self, state_name: str,
                        rng: random.Random) -> Optional[Transition]:
        """One walk step: follow a learned edge or explore.

        Unknown states (stale labels from spliced/imported traces) and
        edge-less states always explore; otherwise an ``EXPLORE_PROB``
        roll decides.  Every random decision draws from the engine RNG,
        so walks stay reproducible and resumable.
        """
        state = self._states.get(state_name)
        if state is None or not state.edges or \
                rng.random() < self.EXPLORE_PROB:
            return self._explore(state_name, rng)
        sends = list(state.edges)
        weights = [sum(state.edges[send].values()) for send in sends]
        total = float(sum(weights))
        roll = rng.random() * total
        acc = 0.0
        chosen = sends[-1]
        for send, weight in zip(sends, weights):
            acc += weight
            if roll < acc:
                chosen = send
                break
        destinations = state.edges[chosen]
        # predicted destination: the most-observed, first on ties
        best = max(destinations.values())
        to = next(label for label, count in destinations.items()
                  if count == best)
        return self._transition(chosen, to)

    def probe_transitions(self, chunk_size: int
                          ) -> Optional[List[Transition]]:
        """Bootstrap seed sessions: default-packet walks over the pit.

        AFLNet seeds its state learning from recorded real sessions;
        the spec-based analog is that *default packets are valid by
        construction* (a repo-wide modelling invariant), so the first
        traces of a learning campaign simply play the pit's data models
        in declaration order, ``chunk_size`` per trace.  That hands the
        learner one clean observation of every request kind — including
        multi-step behaviours that random generation rarely lines up,
        like clear-restart-then-select on DNP3 — before exploration
        takes over.  Returns ``None`` once the pit has been played.
        """
        models = self.pit.models()
        if self._probe_cursor >= len(models):
            return None
        chunk = models[self._probe_cursor:self._probe_cursor + chunk_size]
        self._probe_cursor += len(chunk)
        return [self._transition(model.name, self.initial)
                for model in chunk]

    def _explore(self, state_name: str, rng: random.Random) -> Transition:
        model = choose_model(self.pit, rng)
        # prediction unknown: annotate with the current state; the
        # post-execution observe() replaces it with the observed class
        return self._transition(model.name, state_name)

    def _transition(self, send: str, to: str) -> Transition:
        bind, expect, capture = self.hints.get(send, ({}, None, {}))
        return Transition(send, to, bind=dict(bind), expect=expect,
                          capture=dict(capture))

    # -- learning -------------------------------------------------------

    def observe(self, steps, result) -> None:
        """Grow the automaton from one executed trace.

        Each executed step contributes the edge ``state --request
        kind--> feature class`` and is re-annotated with the *observed*
        destination, so stored traces (and therefore extend-from-final-
        state walks, the corpus, fleet sync and resume) always carry
        real states, not predictions.
        """
        state = self.initial
        for index in range(result.steps_executed):
            response = result.responses[index] \
                if index < len(result.responses) else None
            step = steps[index]
            label = self._intern(
                self.classifier.classify(response, step.model_name))
            node = self._states[state]
            destinations = node.edges.setdefault(step.model_name, {})
            destinations[label] = destinations.get(label, 0) + 1
            step.state = label
            state = label

    def _intern(self, label: str) -> str:
        if label in self._states:
            return label
        if len(self._states) > self.MAX_STATES:
            label = OVERFLOW_STATE
            if label in self._states:
                return label
        self._states[label] = _LearnedState(label)
        return label

    # -- checkpointing --------------------------------------------------

    def snapshot(self) -> dict:
        """Pure-JSON image of the automaton, order-preserving."""
        return {
            "initial": self.initial,
            "probe_cursor": self._probe_cursor,
            "states": [
                [state.name,
                 [[send, [[to, count] for to, count in dests.items()]]
                  for send, dests in state.edges.items()]]
                for state in self._states.values()
            ],
        }

    def restore(self, blob: dict) -> None:
        """Inverse of :meth:`snapshot` (insertion order included)."""
        self.initial = blob["initial"]
        self._probe_cursor = blob.get("probe_cursor", 0)
        self._states = {}
        for name, edges in blob["states"]:
            state = _LearnedState(name)
            for send, destinations in edges:
                state.edges[send] = {to: count
                                     for to, count in destinations}
            self._states[name] = state
        if self.initial not in self._states:
            self._intern(self.initial)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LearnedStateModel {self.name!r} "
                f"({self.learned_state_count} learned states)>")
