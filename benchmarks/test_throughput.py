"""Real wall-clock throughput: execs/sec per engine/target, plus the
fleet, socket, session and state-learning comparisons.

Unlike the other benchmarks (which report the paper's *simulated-clock*
artifacts), this one measures the harness itself: how many target
executions per wall-clock second each engine sustains.  Results land in
``.benchmarks/BENCH_throughput.json`` (``make bench`` refreshes the
committed copy at the repo root).  Rates here are single short campaigns and
are informational; wall-time regressions are gated by the campaign
benchmark (``python -m benchmarks.perf run`` / ``compare``), which
takes interleaved medians corrected for host speed.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from dataclasses import replace

import pytest

from benchmarks.conftest import (
    BENCH_HOURS, CLAIMS_ENABLED, bench_config, print_block, write_artifact,
)
from repro.core.campaign import make_engine, run_campaign
from repro.core.fleet import run_fleet
from repro.protocols import TARGET_NAMES, get_target
from repro.runtime.instrument import resolve_backend

#: targets timed for the per-target execs/sec table (all six)
THROUGHPUT_TARGETS = TARGET_NAMES
#: the headline campaign (Peach* on libmodbus), timed best-of-3
HEADLINE_TARGET = "libmodbus"
HEADLINE_SEED = 500
#: fleet-vs-serial comparison: shards of the headline campaign.  Sync
#: is deliberately sparse (AFL syncs far less often than it fuzzes):
#: each round pays a barrier, a shard restore and the file-level
#: exchange (the fleet keeps one pool across rounds), so the cadence
#: dominates fleet wall-clock at benchmark scale.
FLEET_SHARDS = 3
FLEET_SYNC_EVERY = 400
#: floor gate on fleet_vs_serial.paths_per_sec_ratio: fleet overhead
#: (one pool spin-up, sync phases, shard checkpointing) may not drag the
#: fleet below this fraction of the serial path rate.  The committed
#: artifact records ~0.6; the floor leaves headroom for the ratio's
#: machine-to-machine variance.
FLEET_RATIO_FLOOR = 0.35
#: floor gate on socket_vs_inprocess.execs_per_sec_ratio: driving the
#: headline campaign through the loopback socket harness (peachstar
#: envelope framing; per execution the session reset and the first
#: frame go out in one write and the served connection is stepped from
#: the client's own selector wait, in one thread; coverage armed around
#: the served dispatch only) may not drag throughput below this fraction
#: of the in-process rate.  Over 10 seeds this configuration measured
#: about 0.8 (0.6 with the asyncio transport it replaced); the floor
#: leaves headroom for machine-to-machine scheduler variance.
SOCKET_RATIO_FLOOR = 0.4

_CACHE = {}


def _artifact_name() -> str:
    # the committed artifact holds full-budget numbers only; compressed
    # smoke runs (REPRO_BENCH_HOURS=2) write alongside it so they never
    # clobber the 24h payload
    return "throughput" if CLAIMS_ENABLED else "throughput_smoke"


def _timed_campaign(engine_name, target_name, seed, rounds=1):
    """Run one campaign for real; return (execs_per_sec, result, secs).

    *rounds* > 1 re-runs the (deterministic, identical-result) campaign
    and keeps the fastest wall time — scheduler noise on shared runners
    swings single-shot rates by 20%+, and best-of-N is the stable
    estimate of what the machine can do.
    """
    spec = get_target(target_name)
    config = bench_config()
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run_campaign(engine_name, spec, seed=seed, config=config)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[2]:
            best = (result.executions / max(elapsed, 1e-9), result,
                    elapsed)
    return best


def _fleet_vs_serial() -> dict:
    """Paths per wall-clock second: synced fleet vs serial repetitions.

    The same N seeds run twice — once as a corpus-exchanging fleet on N
    worker processes, once as N plain serial campaigns — and both sides
    report their merged unique-path yield per second of real time.
    Both sides persist to a (throwaway) workspace, so the ratio compares
    sync-and-parallelism against serial execution alone instead of
    quietly charging persistence to the fleet only.
    """
    spec = get_target(HEADLINE_TARGET)
    config = bench_config()
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        fleet = run_fleet("peach-star", spec, shards=FLEET_SHARDS,
                          workspace_dir=os.path.join(tmp, "fleet"),
                          seed=HEADLINE_SEED, sync_every=FLEET_SYNC_EVERY,
                          config=config, max_workers=FLEET_SHARDS)
        fleet_secs = time.perf_counter() - start
        start = time.perf_counter()
        serial = [run_campaign(
                      "peach-star", spec, seed=HEADLINE_SEED + 1000 * shard,
                      config=replace(config, workspace=os.path.join(
                          tmp, f"serial-{shard}")))
                  for shard in range(FLEET_SHARDS)]
        serial_secs = time.perf_counter() - start
    serial_union = set()
    for result in serial:
        serial_union.update(result.path_hashes)
    fleet_rate = fleet.merged_paths / max(fleet_secs, 1e-9)
    serial_rate = len(serial_union) / max(serial_secs, 1e-9)
    return {
        "target": HEADLINE_TARGET,
        "engine": "peach-star",
        "shards": FLEET_SHARDS,
        "serial_workspace": True,  # both sides pay persistence
        "sync_every": FLEET_SYNC_EVERY,
        "sync_rounds": fleet.rounds,
        "imported_seeds": fleet.imported_seeds,
        "fleet_merged_paths": fleet.merged_paths,
        "serial_union_paths": len(serial_union),
        "fleet_wall_seconds": round(fleet_secs, 3),
        "serial_wall_seconds": round(serial_secs, 3),
        "fleet_paths_per_sec": round(fleet_rate, 2),
        "serial_paths_per_sec": round(serial_rate, 2),
        "paths_per_sec_ratio": round(fleet_rate / max(serial_rate, 1e-9),
                                     2),
    }


def _socket_vs_inprocess() -> dict:
    """Execs per wall-clock second: loopback socket vs in-process.

    The same seeded headline campaign runs twice — once against the
    plain in-process ``Target``, once against a ``SocketTarget``
    loopback harness (real TCP, shared collector) — so the entry prices
    the transport alone.  The two runs are signature-identical by the
    parity pin in ``tests/net``; ``paths_identical`` re-checks the
    corpus-level half of that claim here.
    """
    from repro.net import NetConfig

    spec = get_target(HEADLINE_TARGET)
    config = bench_config()
    start = time.perf_counter()
    in_process = run_campaign("peach-star", spec, seed=HEADLINE_SEED,
                              config=config)
    inprocess_secs = time.perf_counter() - start
    start = time.perf_counter()
    over_socket = run_campaign("peach-star", spec, seed=HEADLINE_SEED,
                               config=replace(config, net=NetConfig()))
    socket_secs = time.perf_counter() - start
    inprocess_rate = in_process.executions / max(inprocess_secs, 1e-9)
    socket_rate = over_socket.executions / max(socket_secs, 1e-9)
    return {
        "target": HEADLINE_TARGET,
        "engine": "peach-star",
        "executions": in_process.executions,
        "paths_identical": (
            over_socket.path_hashes == in_process.path_hashes),
        "inprocess_execs_per_sec": round(inprocess_rate, 1),
        "socket_execs_per_sec": round(socket_rate, 1),
        "inprocess_wall_seconds": round(inprocess_secs, 3),
        "socket_wall_seconds": round(socket_secs, 3),
        "execs_per_sec_ratio": round(
            socket_rate / max(inprocess_rate, 1e-9), 2),
    }


#: session-vs-single-packet comparison target: IEC 104 is the paper's
#: most state-gated server (STARTDT/STOPDT) and ships a state model
SESSIONS_TARGET = "iec104"
SESSIONS_SEED = 700


def _session_only_edges(spec, stopdt_model: str,
                        follower_models: tuple) -> set:
    """Directed measurement: edges only a live session can reach.

    A STOPDT act followed by an I-frame in one session covers the
    ``not started`` drop paths; the same packets executed one-at-a-time
    (reset between — single-packet mode by definition) never can.
    Works on both IEC 104-family stacks (their gates are isomorphic).
    """
    from repro.protocols import PROTOCOLS_PATH_PREFIX
    from repro.runtime.instrument import make_line_collector
    from repro.runtime.target import Target

    pit = spec.make_pit()
    stopdt = pit.model(stopdt_model).build_bytes()
    followers = tuple(pit.model(name).build_bytes()
                      for name in follower_models)
    collector = make_line_collector((PROTOCOLS_PATH_PREFIX,))
    target = Target(spec.make_server, collector)
    single_union = set()
    for packet in (stopdt,) + followers:
        single_union |= set(target.run(packet).coverage.journal)
    session_edges = set()
    for follower in followers:
        trace = target.run_trace([(stopdt, None), (follower, None)])
        session_edges |= set(trace.coverage.journal)
    return session_edges - single_union


def _sessions_vs_single_packet() -> dict:
    """Path discovery: session-mode vs single-packet Peach* on IEC 104.

    Same simulated budget, same seed; session mode counts trace *steps*
    as executions so the budgets are comparable.  ``session_only_edges``
    is the directed measurement above — nonzero means the session
    subsystem opens coverage the single-packet loop cannot reach at any
    budget.
    """
    spec = get_target(SESSIONS_TARGET)
    single_config = bench_config()
    session_config = replace(single_config, sessions=True)
    start = time.perf_counter()
    session = run_campaign("peach-star", spec, seed=SESSIONS_SEED,
                           config=session_config)
    session_secs = time.perf_counter() - start
    start = time.perf_counter()
    single = run_campaign("peach-star", spec, seed=SESSIONS_SEED,
                          config=single_config)
    single_secs = time.perf_counter() - start
    return {
        "target": SESSIONS_TARGET,
        "engine": "peach-star",
        "session_paths": session.final_paths,
        "single_packet_paths": single.final_paths,
        "session_edges": session.final_edges,
        "single_packet_edges": single.final_edges,
        "session_executions": session.executions,
        "session_traces": session.stats.get("traces", 0),
        "single_packet_executions": single.executions,
        "session_wall_seconds": round(session_secs, 3),
        "single_packet_wall_seconds": round(single_secs, 3),
        "session_execs_per_sec": round(
            session.executions / max(session_secs, 1e-9), 1),
        "single_packet_execs_per_sec": round(
            single.executions / max(single_secs, 1e-9), 1),
        "paths_ratio": round(
            session.final_paths / max(single.final_paths, 1), 2),
        "session_only_edges": len(_session_only_edges(
            spec, "iec104.stopdt",
            ("iec104.interrogation", "iec104.single_command"))),
    }


#: learned-vs-scripted comparison targets: IEC 104 diffs the learner
#: against the richest hand-written machine; lib60870 had *no* hand
#: model before PR 5, so its learned-session-vs-single-packet ratio is
#: the zero-modelling-effort payoff
LEARNED_TARGET = "iec104"
LEARNED_UNMODELLED_TARGET = "lib60870"
LEARNED_SEED = 800


def _learned_vs_scripted() -> dict:
    """Path discovery: response-learned vs hand-written state machines.

    Same simulated budget, same seed, three campaigns on IEC 104 —
    learned sessions, scripted (hand-model) sessions, single-packet —
    plus the learned-vs-single-packet pair on lib60870 with the
    directed count of its STOPDT-gated session-only edges and whether
    the learning campaign actually reached them.
    """
    spec = get_target(LEARNED_TARGET)
    single_config = bench_config()
    learned_config = replace(single_config, learn_states=True)
    scripted_config = replace(single_config, sessions=True)
    learned = run_campaign("peach-star", spec, seed=LEARNED_SEED,
                           config=learned_config)
    scripted = run_campaign("peach-star", spec, seed=LEARNED_SEED,
                            config=scripted_config)

    unmodelled = get_target(LEARNED_UNMODELLED_TARGET)
    session_only = _session_only_edges(
        unmodelled, "lib60870.stopdt",
        ("lib60870.interrogation", "lib60870.single_command"))

    engine = make_engine("peach-star", unmodelled, LEARNED_SEED,
                         replace(single_config, learn_states=True))
    run_campaign("peach-star", unmodelled, seed=LEARNED_SEED,
                 config=replace(single_config, learn_states=True),
                 engine=engine)
    virgin = engine.seed_pool.coverage.virgin
    gated_reached = sum(1 for index in session_only if virgin[index])
    single = run_campaign("peach-star", unmodelled, seed=LEARNED_SEED,
                          config=single_config)
    return {
        "target": LEARNED_TARGET,
        "engine": "peach-star",
        "learned_paths": learned.final_paths,
        "scripted_paths": scripted.final_paths,
        "learned_edges": learned.final_edges,
        "scripted_edges": scripted.final_edges,
        "learned_states": learned.stats.get("learned_states", 0),
        "learned_traces": learned.stats.get("traces", 0),
        "scripted_traces": scripted.stats.get("traces", 0),
        "paths_ratio": round(
            learned.final_paths / max(scripted.final_paths, 1), 2),
        "unmodelled": {
            "target": LEARNED_UNMODELLED_TARGET,
            "learned_paths": engine.path_count,
            "single_packet_paths": single.final_paths,
            "learned_edges": engine.seed_pool.edge_count,
            "single_packet_edges": single.final_edges,
            "learned_states": engine.stats.learned_states,
            "session_only_edges": len(session_only),
            "session_only_edges_reached": gated_reached,
        },
    }


def _throughput():
    if "payload" in _CACHE:
        return _CACHE["payload"]
    targets = {}
    for target_name in THROUGHPUT_TARGETS:
        rows = {}
        for engine_name in ("peach", "peach-star"):
            is_headline = (target_name, engine_name) == \
                (HEADLINE_TARGET, "peach-star")
            rate, result, elapsed = _timed_campaign(
                engine_name, target_name, HEADLINE_SEED,
                rounds=3 if is_headline else 1)
            rows[engine_name] = {
                "execs_per_sec": round(rate, 1),
                "executions": result.executions,
                "wall_seconds": round(elapsed, 3),
                "final_paths": result.final_paths,
            }
        targets[target_name] = rows

    payload = {
        "backend": resolve_backend("auto"),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "bench_hours": BENCH_HOURS,
        "targets": targets,
        "fleet_vs_serial": _fleet_vs_serial(),
        "socket_vs_inprocess": _socket_vs_inprocess(),
        "sessions_vs_single_packet": _sessions_vs_single_packet(),
        "learned_vs_scripted": _learned_vs_scripted(),
    }
    _CACHE["payload"] = payload
    return payload


def test_throughput_artifact(benchmark):
    payload = benchmark.pedantic(_throughput, rounds=1, iterations=1)
    path = write_artifact(_artifact_name(), payload)
    rows = [f"{'target':<13} {'engine':<11} {'execs/sec':>10} "
            f"{'execs':>6} {'wall s':>8}"]
    for target_name, engines in payload["targets"].items():
        for engine_name, row in engines.items():
            rows.append(f"{target_name:<13} {engine_name:<11} "
                        f"{row['execs_per_sec']:>10.1f} "
                        f"{row['executions']:>6} "
                        f"{row['wall_seconds']:>8.3f}")
    rows.append(f"(backend: {payload['backend']})")
    fleet = payload["fleet_vs_serial"]
    rows.append(f"\nfleet vs serial ({fleet['shards']} shards on "
                f"{fleet['target']}): "
                f"{fleet['fleet_paths_per_sec']:.1f} vs "
                f"{fleet['serial_paths_per_sec']:.1f} paths/sec "
                f"({fleet['fleet_merged_paths']} vs "
                f"{fleet['serial_union_paths']} merged paths, "
                f"{sum(fleet['imported_seeds'])} seeds exchanged)")
    socket = payload["socket_vs_inprocess"]
    rows.append(f"socket vs in-process (on {socket['target']}): "
                f"{socket['socket_execs_per_sec']:.1f} vs "
                f"{socket['inprocess_execs_per_sec']:.1f} execs/sec "
                f"= {socket['execs_per_sec_ratio']:.2f}x "
                f"(paths identical: {socket['paths_identical']})")
    sessions = payload["sessions_vs_single_packet"]
    rows.append(f"sessions vs single-packet (on {sessions['target']}): "
                f"{sessions['session_paths']} vs "
                f"{sessions['single_packet_paths']} paths, "
                f"{sessions['session_edges']} vs "
                f"{sessions['single_packet_edges']} edges, "
                f"{sessions['session_only_edges']} session-only edges")
    learned = payload["learned_vs_scripted"]
    rows.append(f"learned vs scripted sessions (on {learned['target']}): "
                f"{learned['learned_paths']} vs "
                f"{learned['scripted_paths']} paths "
                f"({learned['learned_states']} states learned); "
                f"{learned['unmodelled']['target']} learned vs "
                f"single-packet: {learned['unmodelled']['learned_paths']} "
                f"vs {learned['unmodelled']['single_packet_paths']} paths, "
                f"{learned['unmodelled']['session_only_edges_reached']}/"
                f"{learned['unmodelled']['session_only_edges']} "
                f"gated edges reached")
    rows.append(f"artifact: {path}")
    print_block("Wall-clock throughput (execs/sec)", "\n".join(rows))
    for engines in payload["targets"].values():
        for row in engines.values():
            assert row["execs_per_sec"] > 0


def test_fleet_vs_serial_entry(benchmark):
    """The fleet comparison is recorded and structurally sane: shards
    fuzz, sync rounds happen, and the merged view loses nothing."""
    payload = benchmark.pedantic(_throughput, rounds=1, iterations=1)
    fleet = payload["fleet_vs_serial"]
    assert fleet["fleet_merged_paths"] > 0
    assert fleet["serial_union_paths"] > 0
    assert fleet["fleet_paths_per_sec"] > 0
    assert fleet["serial_paths_per_sec"] > 0
    assert len(fleet["imported_seeds"]) == fleet["shards"]


def test_fleet_ratio_floor(benchmark):
    """Fleet-overhead regression gate: the fleet's paths/sec may not
    fall below ``FLEET_RATIO_FLOOR`` of the serial rate.  Smoke runs
    skip it: compressed budgets inflate the fixed per-round costs."""
    if not CLAIMS_ENABLED:
        pytest.skip("fleet ratio gate needs the near-full benchmark budget")
    payload = benchmark.pedantic(_throughput, rounds=1, iterations=1)
    ratio = payload["fleet_vs_serial"]["paths_per_sec_ratio"]
    assert ratio >= FLEET_RATIO_FLOOR, (
        f"fleet paths/sec is only {ratio:.2f}x the serial rate; the "
        f"fleet-overhead gate requires >= {FLEET_RATIO_FLOOR}")


def test_socket_vs_inprocess_entry(benchmark):
    """The socket comparison is recorded and structurally sane: both
    transports execute the full budget and the loopback run discovers
    the exact same corpus (the parity claim's path-level half)."""
    payload = benchmark.pedantic(_throughput, rounds=1, iterations=1)
    socket = payload["socket_vs_inprocess"]
    assert socket["executions"] > 0
    assert socket["socket_execs_per_sec"] > 0
    assert socket["inprocess_execs_per_sec"] > 0
    assert socket["paths_identical"]


def test_socket_ratio_floor(benchmark):
    """Transport-overhead regression gate: the loopback socket harness
    may not fall below ``SOCKET_RATIO_FLOOR`` of the in-process rate.
    Smoke runs skip it — compressed budgets inflate the fixed
    serve/connect costs the same way they inflate fleet spin-up."""
    if not CLAIMS_ENABLED:
        pytest.skip("socket ratio gate needs the near-full benchmark budget")
    payload = benchmark.pedantic(_throughput, rounds=1, iterations=1)
    ratio = payload["socket_vs_inprocess"]["execs_per_sec_ratio"]
    assert ratio >= SOCKET_RATIO_FLOOR, (
        f"socket throughput is only {ratio:.2f}x the in-process rate; "
        f"the transport-overhead gate requires >= {SOCKET_RATIO_FLOOR}")


def test_sessions_vs_single_packet_entry(benchmark):
    """The session comparison is recorded and structurally sane: both
    modes discover paths under the same budget, and the directed
    measurement confirms session-only coverage exists on IEC 104."""
    payload = benchmark.pedantic(_throughput, rounds=1, iterations=1)
    sessions = payload["sessions_vs_single_packet"]
    assert sessions["session_paths"] > 0
    assert sessions["single_packet_paths"] > 0
    assert sessions["session_traces"] > 0
    assert sessions["session_executions"] >= sessions["session_traces"]
    assert sessions["session_only_edges"] > 0


def test_learned_vs_scripted_entry(benchmark):
    """The state-learning comparison is recorded and structurally sane:
    both modes discover paths, the learner infers a non-trivial
    automaton, and lib60870's state-gated session-only edges exist.
    The reached-the-gated-edges claim needs the near-full budget (a
    2-hour smoke campaign is a handful of traces)."""
    payload = benchmark.pedantic(_throughput, rounds=1, iterations=1)
    learned = payload["learned_vs_scripted"]
    assert learned["learned_paths"] > 0
    assert learned["scripted_paths"] > 0
    assert learned["learned_traces"] > 0
    assert learned["learned_states"] >= 2
    unmodelled = learned["unmodelled"]
    assert unmodelled["learned_paths"] > 0
    assert unmodelled["single_packet_paths"] > 0
    assert unmodelled["session_only_edges"] > 0
    if CLAIMS_ENABLED:
        assert unmodelled["session_only_edges_reached"] > 0, (
            "a full-budget learning campaign on lib60870 must reach "
            "the STOPDT-gated drop edges")
