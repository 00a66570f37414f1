"""The one-pass strict/lenient oracle against the two-pass reference.

``DifferentialOracle._strict_vs_lenient`` parses a frame leniently
first; only a tree that tolerated something pays for a strict parse,
because an untolerated lenient tree is the strict verdict.  The
reference below is the check it replaced, kept as a test-only oracle:
a strict parse, then a lenient parse, of every frame.

Both must report the same findings ``(oracle, kind, site, detail)`` for
every frame: generated frames of all six targets delivered through a
faulting channel, every truncation and single bit flip of some of them,
and the ``Choice`` frames a lenient success would misjudge.  Faulted
campaigns run with either check end with identical divergence
databases and identical puzzle corpora.
"""

import random

import pytest

from repro.channel import FaultingChannel, make_oracle
from repro.channel.oracle import (
    KIND_PARSE, DifferentialOracle, _reason_slug,
)
from repro.core import CampaignConfig, make_engine, run_campaign
from repro.model import (
    Block, Choice, DataModel, MutatorProvider, Number, ParseError, Pit,
)
from repro.protocols import all_targets, get_target

#: seeds of generated frames per model, and how many frames of the first
#: are also cut and bit-flipped byte by byte
SEEDS = 12
VARIANT_FRAMES = 2


def reference_strict_vs_lenient(oracle, frame, model_name):
    """The replaced two-pass check: strict parse, then lenient parse."""
    model = oracle._models.get(model_name) if model_name else None
    if model is None:
        return []
    try:
        strict_tree = model.parse(frame)
        strict_reason = None
    except ParseError as exc:
        strict_tree = None
        strict_reason = str(exc)
    try:
        lenient_tree = model.parse(frame, strict=False)
    except ParseError:
        return []
    try:
        rebuilt = model.to_wire(lenient_tree)
    except Exception:
        return []
    if strict_tree is not None:
        if rebuilt != frame:
            return [(
                "strict-lenient", KIND_PARSE,
                f"{model.name}:lenient-misread",
                "both parse paths accept the frame but the lenient "
                f"reading re-serializes to {len(rebuilt)} bytes that "
                "differ from the wire",
            )]
        return []
    if rebuilt != frame and DifferentialOracle._parses_strictly(model,
                                                                rebuilt):
        return [(
            "strict-lenient", KIND_PARSE,
            f"{model.name}:{_reason_slug(strict_reason)}",
            f"strict parse rejects ({strict_reason}) but the lenient "
            f"path repairs the frame into a strictly-legal "
            f"{len(rebuilt)}-byte packet",
        )]
    return []


def _reference_findings(oracle, frame, model_name):
    return (reference_strict_vs_lenient(oracle, frame, model_name)
            + oracle._cross_stack(frame, model_name))


def _findings(oracle, frame, model_name):
    return [(report.oracle, report.kind, report.site, report.detail)
            for report in oracle.examine(frame, model_name, 0)]


def _assert_agrees(oracle, frame, model_name, seen):
    found = _findings(oracle, frame, model_name)
    assert found == _reference_findings(oracle, frame, model_name), \
        (model_name, frame.hex())
    seen.update(site for _oracle, _kind, site, _detail in found)


def _delivered(model, seed):
    """Generated frames of *model* as a 50% faulting channel delivers
    them (dropped, duplicated, fragmented, corrupted, reordered)."""
    rng = random.Random(seed)
    channel = FaultingChannel(0.5, random.Random(seed + 1))
    frames = []
    for index in range(4):
        wire = model.to_wire(model.build(MutatorProvider(rng)))
        frames.append(wire)
        frames.extend(channel.transmit(index, wire))
    frames.extend(channel.flush())
    return frames


def _variants(packet):
    for cut in range(len(packet)):
        yield packet[:cut]
    for index in range(len(packet)):
        for bit in range(8):
            flipped = bytearray(packet)
            flipped[index] ^= 1 << bit
            yield bytes(flipped)


@pytest.mark.parametrize("spec", all_targets(), ids=lambda spec: spec.name)
def test_faulted_frames_find_what_the_reference_finds(spec):
    pit = spec.make_pit()
    oracle = make_oracle(spec, pit)
    seen = set()
    for model in pit:
        for seed in range(SEEDS):
            for frame in _delivered(model, seed):
                _assert_agrees(oracle, frame, model.name, seen)
        for packet in _delivered(model, 0)[:VARIANT_FRAMES]:
            for variant in _variants(packet):
                _assert_agrees(oracle, variant, model.name, seen)
    assert any(":lenient-misread" not in site for site in seen), seen


def test_the_choice_trap_is_judged_by_a_strict_pass():
    """``09 68`` is lenient-legal through a tolerated ``a`` but strictly
    illegal; ``09 05 68`` is strictly legal through ``b`` but lenient
    rejects it.  Reading a lenient success as the strict verdict would
    report the first as a misread; either way the finding matches the
    two-pass reference."""
    model = DataModel("choice", Block("frame", [
        Choice("pick", [Number("a", 1, default=1, values=(1, 2)),
                        Number("b", 2)]),
        Number("tok", 1, default=0x68, token=True),
    ]))
    oracle = DifferentialOracle(Pit("choice", [model]))
    seen = set()
    for frame in ("0968", "090568", "0168", "01", "09", "0105", "010568"):
        _assert_agrees(oracle, bytes.fromhex(frame), "choice", seen)
    assert _findings(oracle, bytes.fromhex("0968"), "choice") == []
    assert _findings(oracle, bytes.fromhex("090568"), "choice") == []
    # ``09`` is repaired into ``09 68``, which strict rejects as well
    assert _findings(oracle, bytes.fromhex("09"), "choice") == []
    assert seen == {"choice:tok: truncated"}


def _campaign(spec, seed, sessions):
    config = CampaignConfig(budget_hours=24.0, max_executions=300,
                            record_every=20, sessions=sessions,
                            channel_faults=0.25)
    engine = make_engine("peach-star", spec, seed, config)
    result = run_campaign("peach-star", spec, seed=seed, config=config,
                          engine=engine)
    divergences = [(report.dedup_key, report.execution_index,
                    report.detail, report.packet)
                   for report in result.unique_divergences]
    return (divergences, result.stats["divergences_total"],
            result.executions, result.path_hashes,
            engine.corpus._store)


@pytest.mark.parametrize("target,sessions", [
    ("iec104", False), ("opendnp3", False), ("libmodbus", True),
], ids=["iec104", "opendnp3", "libmodbus-sessions"])
def test_faulted_campaigns_end_like_the_reference(target, sessions,
                                                  monkeypatch):
    spec = get_target(target)
    one_pass = _campaign(spec, 3, sessions)
    monkeypatch.setattr(DifferentialOracle, "_strict_vs_lenient",
                        reference_strict_vs_lenient)
    assert _campaign(spec, 3, sessions) == one_pass
    assert one_pass[1] > 0
