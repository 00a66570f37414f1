"""Stateful session fuzzing: state models, traces and the session engine.

The paper's loop (and :class:`~repro.core.engine.PeachStar`) is strictly
single-packet: ``Target.run`` resets the server before every execution,
so every stateful branch — IEC 104 STARTDT/STOPDT gating, DNP3
select-before-operate, Modbus listen-only mode — is unreachable by
construction.  This subsystem makes multi-packet *traces* the unit of
fuzzing, AFLNet-style:

* :class:`StateModel` — Pit-style protocol state machines (states with
  send/expect transitions), declared per protocol next to the data
  models;
* :class:`TraceStep` / :func:`encode_trace` / :func:`decode_trace` — the
  trace representation: ordered packets with per-step model names and
  response-derived bindings, serialized deterministically so traces are
  ordinary (multi-part) corpus entries;
* :class:`TraceBinder` — applies bindings at execution time (echo the
  server's live sequence numbers into the next packet through the
  existing Relation/Fixup pipeline) so replayed prefixes stay honest;
* :class:`SessionFuzzer` — the sequence-aware engine: the corpus stores
  traces, mutation cracks one step (or splices/extends/truncates the
  sequence) while replaying the honest prefix;
* session crashes minimize through triage's one loop
  (:func:`repro.triage.minimize.minimize_crash`): drop whole steps
  first, then shrink the crashing step with the field-aware/ddmin
  machinery.
"""

from repro.state.binder import TraceBinder, apply_pins
from repro.state.engine import SessionFuzzer
from repro.state.learner import (
    LearnedStateModel, ResponseClassifier, binding_hints,
)
from repro.state.model import State, StateModel, StateModelError, Transition
from repro.state.trace import (
    TRACE_MODEL_PREFIX, TraceStep, decode_trace, encode_trace,
    is_trace_blob, trace_model_name,
)

__all__ = [
    "LearnedStateModel", "ResponseClassifier", "SessionFuzzer", "State",
    "StateModel", "StateModelError", "TRACE_MODEL_PREFIX", "TraceBinder",
    "TraceStep", "Transition", "apply_pins", "binding_hints",
    "decode_trace", "encode_trace", "is_trace_blob", "trace_model_name",
]
