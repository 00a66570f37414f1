"""Ablations of Peach*'s design choices.

Not a paper artifact — these benches isolate which Peach* component
buys what:

* ``crack-only``     — coverage feedback + cracking, but no semantic
  generation (measures the cost of corpus building alone);
* ``literal-alg3``   — pin_prob=1.0, the paper's literal Algorithm 3
  (every donor-bearing position pinned) versus the default subset pinning;
* ``no-fixup-check`` — sanity: spliced packets must carry valid integrity
  fields, demonstrating the File Fixup module is load-bearing.
"""

from __future__ import annotations

import random

from benchmarks.conftest import BENCH_HOURS, bench_config, print_block
from repro.core import CampaignConfig, PeachStar, run_campaign
from repro.protocols import get_target


def _run(target_name, seed=9, **overrides):
    config = bench_config()
    for key, value in overrides.items():
        setattr(config, key, value)
    return run_campaign("peach-star", get_target(target_name), seed=seed,
                        config=config)


def test_ablation_crack_only(benchmark):
    """Semantic generation disabled: corpus builds but is never used."""
    def run():
        full = _run("libmodbus")
        crack_only = _run("libmodbus", semantic_enabled=False)
        return full, crack_only

    full, crack_only = benchmark.pedantic(run, rounds=1, iterations=1)
    print_block(
        "Ablation: crack-only vs full Peach* (libmodbus)",
        f"  full peach*      : {full.final_paths} paths, "
        f"{full.stats['semantic_executions']} semantic execs\n"
        f"  crack-only       : {crack_only.final_paths} paths, "
        f"{crack_only.stats['semantic_executions']} semantic execs")
    assert crack_only.stats["semantic_executions"] == 0
    assert full.stats["semantic_executions"] > 0


def test_ablation_literal_algorithm3(benchmark):
    """pin_prob=1.0 (the paper's literal Alg. 3) vs subset pinning."""
    def run():
        subset = _run("opendnp3")
        literal = _run("opendnp3", pin_prob=1.0)
        return subset, literal

    subset, literal = benchmark.pedantic(run, rounds=1, iterations=1)
    print_block(
        "Ablation: donor pinning policy (opendnp3)",
        f"  subset pinning (default) : {subset.final_paths} paths\n"
        f"  literal Alg. 3 (pin all) : {literal.final_paths} paths")
    assert subset.final_paths > 0 and literal.final_paths > 0


def test_fixup_module_is_load_bearing(benchmark):
    """Every spliced packet must still satisfy its model's integrity
    constraints — without File Fixup, CRC/size-guarded targets would
    reject splices at the framing layer."""
    def run():
        from repro.runtime import Target, TracingCollector
        spec = get_target("opendnp3")
        target = Target(spec.make_server,
                        TracingCollector(("repro/protocols",)))
        engine = PeachStar(spec.make_pit(), target, random.Random(3))
        checked = 0
        for _ in range(400):
            outcome = engine.iterate()
            if outcome.semantic:
                model = engine.pit.model(outcome.model_name)
                assert model.matches(outcome.packet), \
                    "spliced packet failed integrity re-parse"
                checked += 1
        return checked

    checked = benchmark.pedantic(run, rounds=1, iterations=1)
    print_block(
        "Ablation: File Fixup integrity check (opendnp3)",
        f"  {checked} spliced packets re-parsed with valid CRCs/lengths")
    assert checked > 0
