"""Differential parse oracles: divergence is a finding, not just crashes.

The paper counts only memory faults as findings.  Protocol
implementations disagree long before they crash: a strict parser
rejects a frame a lenient one silently repairs, or two stacks that both
claim the wire format classify the same bytes differently — the raw
material of request-smuggling and state-desynchronization bugs.  This
module turns such disagreement into a first-class finding:

* **strict vs lenient** — every delivered frame is judged by both
  paths of its step's :class:`~repro.model.datamodel.DataModel`.  A
  divergence is recorded when the lenient path *repairs* a frame the
  strict path rejects into a strictly-legal packet (a lenient stack
  would act on a reading of bytes a strict stack drops), or when both
  accept but the lenient reading re-serializes to different bytes.

  Most frames need one parse.  The lenient pass runs first, and the
  tree it returns records whether it *tolerated* anything a strict
  parse rejects.  The two paths differ only at those tolerance
  branches, so a lenient pass that took none of them followed the
  strict path exactly: its tree is the strict verdict too.  Only a
  tolerated tree pays for a strict pass.  Success of the lenient pass
  alone is not enough: a ``Choice`` may settle on an option the
  strict pass rejects, and the strict pass then accepts through a
  later option or rejects the frame outright.  A lenient rejection
  ends the check without a strict pass: either both paths reject, or
  the lenient one fails further on, and neither is a repair.
* **cross-stack APCI** — the IEC 104 project's ``frame_kind`` ignores
  the APCI length octet while the lib60870 stack validates it; on
  fragmented or corrupted frames the two classifiers genuinely disagree
  about what kind of frame (or whether a frame at all) is on the wire.

:class:`DivergenceReport` mirrors the duck-typed surface of
:class:`~repro.sanitizer.report.CrashReport` (``kind``/``site``/
``dedup_key``/``bucket_key``/...), so deduplication
(:class:`~repro.sanitizer.report.CrashDatabase`), workspace
persistence, triage bucketing and the severity table all compose
unchanged.  Triage minimizes a divergence as a one-step trace through
the same loop as every crash
(:func:`repro.triage.minimize.minimize_crash`); its checker re-*parses*
candidates through this oracle instead of re-executing them.

Oracles are pure functions of the delivered bytes: no server, no heap,
no RNG — which is what lets divergence findings resume bit-identically
(the re-driven window re-derives the identical reports).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.model.fields import ParseError
from repro.sanitizer.report import CrashReport

#: divergence kinds (severity table entries live in repro.triage.bucket)
KIND_PARSE = "parse-divergence"
KIND_CROSS_STACK = "cross-stack-divergence"

#: bound on the examine cache (packets are mostly unique; duplicates —
#: the duplicate fault, minimization probes — are what the cache serves)
_CACHE_LIMIT = 4096


@dataclass
class DivergenceReport(CrashReport):
    """A parse-path disagreement, shaped like a crash report.

    ``packet`` holds the delivered (post-channel) frame, ``site`` the
    stabilized disagreement identity, and ``oracle`` which differential
    found it (``"strict-lenient"`` or ``"cross-stack"``).
    """

    oracle: str = "strict-lenient"

    def summary_line(self) -> str:
        return f"SUMMARY: DifferentialOracle: {self.kind} {self.site}"

    def render(self) -> str:
        from repro.util import hexdump
        lines = [
            f"==DIVERGENCE: {self.oracle} oracle: "
            f"{self.kind} at site {self.site}",
            f"    {self.detail}" if self.detail else "",
            self.summary_line(),
            "",
            f"diverging frame ({len(self.packet)} bytes, "
            f"model={self.model_name or 'unknown'}):",
            hexdump(self.packet),
        ]
        return "\n".join(line for line in lines if line != "")


_PARENS = re.compile(r"\s*\([^)]*\)")
_DIGITS = re.compile(r"\d+")


def _reason_slug(message: str) -> str:
    """A stable site label from a ParseError message.

    Parenthesized specifics (offending values) and digit runs vary per
    packet; stripping them makes the site a function of *where* the
    strict path gave up, so deduplication converges.
    """
    text = _PARENS.sub("", message)
    text = _DIGITS.sub("#", text)
    return " ".join(text.split()) or "rejected"


class DifferentialOracle:
    """Runs the differential checks over delivered frames.

    Parameters
    ----------
    pit:
        The target's format specification (strict/lenient differential
        runs against the step's model).
    cross_stack:
        Optional pair of ``(stack_name, classify)`` entries whose
        classifiers both claim the wire format; a frame they disagree
        on is a cross-stack divergence.  ``classify(frame) -> str``.
    """

    def __init__(self, pit, cross_stack: Optional[Tuple[tuple, tuple]] = None):
        self.pit = pit
        self._models = {model.name: model for model in pit}
        self.cross_stack = cross_stack
        #: (model_name, frame) -> tuple of (oracle, kind, site, detail)
        self._cache: Dict[Tuple[Optional[str], bytes], tuple] = {}

    # -- public entry ------------------------------------------------------

    def examine(self, frame: bytes, model_name: Optional[str],
                execution_index: int) -> List[DivergenceReport]:
        """Every divergence the delivered *frame* exhibits."""
        key = (model_name, frame)
        findings = self._cache.get(key)
        if findings is None:
            findings = tuple(self._findings(frame, model_name))
            if len(self._cache) >= _CACHE_LIMIT:
                self._cache.clear()
            self._cache[key] = findings
        return [DivergenceReport(kind=kind, site=site, detail=detail,
                                 packet=frame, model_name=model_name,
                                 execution_index=execution_index,
                                 oracle=oracle)
                for oracle, kind, site, detail in findings]

    # -- the differentials -------------------------------------------------

    def _findings(self, frame: bytes,
                  model_name: Optional[str]) -> List[tuple]:
        findings = self._strict_vs_lenient(frame, model_name)
        findings.extend(self._cross_stack(frame, model_name))
        return findings

    def _strict_vs_lenient(self, frame: bytes,
                           model_name: Optional[str]) -> List[tuple]:
        model = self._models.get(model_name) if model_name else None
        if model is None:
            return []
        try:
            lenient_tree = model.parse(frame, strict=False)
        except ParseError:
            # both paths reject (e.g. a corrupted token), or the lenient
            # one gives up further on: no repair to report either way
            return []
        strict_reason = None
        if lenient_tree.tolerated:
            try:
                model.parse(frame)
            except ParseError as exc:
                # only the message: the exception's traceback holds this
                # very frame, so keeping it would pin the parse and
                # engine call stack in a cycle until the cyclic GC runs
                strict_reason = str(exc)
        try:
            rebuilt = model.to_wire(lenient_tree)
        except Exception:
            return []
        if strict_reason is None:
            if rebuilt != frame:
                return [(
                    "strict-lenient", KIND_PARSE,
                    f"{model.name}:lenient-misread",
                    "both parse paths accept the frame but the lenient "
                    f"reading re-serializes to {len(rebuilt)} bytes that "
                    "differ from the wire",
                )]
            return []
        # strict rejected; a lenient stack that repairs the frame into
        # strictly-legal bytes would act where a strict stack drops
        if rebuilt != frame and self._parses_strictly(model, rebuilt):
            return [(
                "strict-lenient", KIND_PARSE,
                f"{model.name}:{_reason_slug(strict_reason)}",
                f"strict parse rejects ({strict_reason}) but the lenient "
                f"path repairs the frame into a strictly-legal "
                f"{len(rebuilt)}-byte packet",
            )]
        return []

    @staticmethod
    def _parses_strictly(model, packet: bytes) -> bool:
        try:
            model.parse(packet)
            return True
        except ParseError:
            return False

    def _cross_stack(self, frame: bytes,
                     model_name: Optional[str]) -> List[tuple]:
        if self.cross_stack is None:
            return []
        (name_a, classify_a), (name_b, classify_b) = self.cross_stack
        kind_a = classify_a(frame)
        kind_b = classify_b(frame)
        if kind_a == kind_b:
            return []
        return [(
            "cross-stack", KIND_CROSS_STACK,
            f"apci:{name_a}={kind_a}!={name_b}={kind_b}",
            f"{name_a} classifies the frame as {kind_a!r} while "
            f"{name_b} sees {kind_b!r}: the stacks disagree about what "
            "is on the wire",
        )]


#: targets whose wire format two bundled stacks both claim
_CROSS_STACK_TARGETS = ("iec104", "lib60870")


def make_oracle(target_spec, pit=None) -> DifferentialOracle:
    """The differential oracle for one target.

    The strict/lenient pair applies everywhere; the APCI cross-stack
    differential is attached for the two IEC 60870-5-104 stacks, whose
    codecs independently classify the same frame format.
    """
    pit = pit if pit is not None else target_spec.make_pit()
    cross = None
    if target_spec.name in _CROSS_STACK_TARGETS:
        from repro.protocols.iec104 import codec as iec104_codec
        from repro.protocols.lib60870 import codec as lib60870_codec
        cross = (("iec104", iec104_codec.frame_kind),
                 ("lib60870", lib60870_codec.frame_kind))
    return DifferentialOracle(pit, cross_stack=cross)
