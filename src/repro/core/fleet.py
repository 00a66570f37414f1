"""Fleet orchestration: N shards of one campaign with corpus exchange.

The paper's campaigns are single-process, single-protocol runs; this
module scales one campaign out the way distributed AFL deployments do —
N independently-seeded *shards* of the same (engine, target, config)
fan out over a process pool, and every ``sync_every`` executions each
shard imports the sibling corpus entries whose sparse coverage metadata
reaches bucketed edges its own map has not seen (AFL's sync-dir
protocol, as pure file-level exchange).

Execution is round-based so the exchange is deterministic:

* **round r** drives every unfinished shard from execution
  ``(r-1)*sync_every`` to the boundary ``r*sync_every`` (or to the end
  of its budget), each shard checkpointing into its own
  :class:`~repro.store.workspace.CampaignWorkspace`;
* **sync phase r** (parent process, after the barrier) rebuilds each
  shard's virgin map from its coverage journal and stages every sibling
  seed that would add new bucketed edges into the shard's ``inbox/``;
* **round r+1** starts by absorbing the staged inbox — merge the
  bucketed map, adopt the seed (and crack it into the puzzle corpus
  when the engine uses feedback) — then fuzzes on.

Every shard is deterministic given the sync snapshots it observed, and
the sync snapshots are pure functions of the shard files at the
barrier, so a killed fleet resumed with :func:`resume_fleet` finishes
bit-identical to one that was never interrupted — the same guarantee
:func:`~repro.core.campaign.resume_campaign` gives a single campaign.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.campaign import (
    CampaignConfig, CampaignResult, _drive_campaign, config_to_dict,
    open_pool, rebuild_workspace_engine, validate_campaign_config,
)
from repro.core.seedpool import ValuableSeed
from repro.core.stats import merge_crash_reports, merge_divergence_reports
from repro.runtime.coverage import GlobalCoverage
from repro.sanitizer.report import CrashDatabase
from repro.store.fleet import FleetWorkspace
from repro.store.workspace import CampaignWorkspace, WorkspaceError


@dataclass
class FleetResult:
    """Outcome of one fleet run: per-shard results plus merged views."""

    engine_name: str
    target_name: str
    workspace: str
    shards: int
    sync_every: int
    #: sync phases completed (rounds run is one more when any shard
    #: fuzzed past the last boundary)
    rounds: int
    shard_results: List[CampaignResult]
    #: per-shard CrashDatabases folded through CrashDatabase.merge —
    #: earliest first-seen wins regardless of shard collection order
    merged_crashes: CrashDatabase
    #: per-shard divergence findings, folded the same way (empty unless
    #: the fleet ran with channel faults / differential oracles)
    merged_divergences: CrashDatabase = field(default_factory=CrashDatabase)

    @property
    def merged_path_hashes(self) -> frozenset:
        """Union of every shard's bucketed path identities."""
        merged = set()
        for result in self.shard_results:
            merged.update(result.path_hashes)
        return frozenset(merged)

    @property
    def merged_paths(self) -> int:
        return len(self.merged_path_hashes)

    @property
    def imported_seeds(self) -> List[int]:
        """Per-shard count of seeds absorbed from siblings."""
        return [result.stats.get("imported_seeds", 0)
                for result in self.shard_results]

    @property
    def time_to_bugs(self) -> Dict[tuple, float]:
        """Earliest simulated hours each unique bug appeared, fleet-wide."""
        return dict(self.merged_crashes.first_seen)


# ---------------------------------------------------------------------------
# shard worker (process-pool entry point)
# ---------------------------------------------------------------------------

#: one schedulable shard round, kept picklable:
#: (shard_dir, pause_at, stop_after_executions, apply_inbox_through)
_ShardTask = Tuple[str, int, Optional[int], int]


def _absorb_imports(engine, workspace: CampaignWorkspace,
                    sync_round: int, entries: List[dict]) -> None:
    """Adopt staged sibling seeds: coverage, seed pool, puzzle corpus."""
    pool = engine.seed_pool
    for meta in entries:
        packet = workspace.read_blob(meta)
        bucketed = meta["map"]
        pool.coverage.merge_bucketed(bucketed)
        seed = ValuableSeed(
            packet=packet,
            model_name=meta["model_name"],
            execution_index=engine.stats.executions,
            sim_time_ms=engine.clock.now_ms,
            edges_touched=meta["edges_touched"],
            path_hash=meta["path_hash"],
        )
        pool.seeds.append(seed)
        engine.stats.imported_seeds += 1
        workspace.record_seed(
            seed, bucketed, (sync_round, meta["src_shard"], meta["src_exec"]))
        # feedback engines crack the import into the puzzle corpus the
        # same way a local valuable seed is cracked (baseline: no-op)
        engine._on_valuable_seed(seed)


def _fleet_shard_worker(task: _ShardTask) -> Optional[CampaignResult]:
    """Drive one shard for one round: restore, absorb inbox, fuzz.

    Returns the shard's :class:`CampaignResult` when its budget ended
    inside this round, ``None`` when it paused at the boundary (or was
    stopped by the simulated kill).  Workers are stateless — everything
    travels through the shard workspace — so one process pool serves
    every round of the fleet.
    """
    shard_dir, pause_at, stop_after, apply_through = task
    workspace = CampaignWorkspace(shard_dir)
    manifest, config, target_spec, engine, series = \
        rebuild_workspace_engine(workspace)
    for sync_round, entries in workspace.load_inbox_rounds(
            workspace.synced_rounds, apply_through):
        _absorb_imports(engine, workspace, sync_round, entries)
        workspace.synced_rounds = sync_round
        workspace.checkpoint(engine)
    return _drive_campaign(manifest["engine"], target_spec,
                           manifest["seed"], engine, config, workspace,
                           series, stop_after,
                           pause_after_executions=pause_at)


# ---------------------------------------------------------------------------
# sync phase (parent side)
# ---------------------------------------------------------------------------

class _ShardSyncState:
    """Parent-side incremental view of one shard's coverage journal.

    Rebuilding every shard's virgin map and export list from scratch at
    every barrier would make sync cost grow with campaign length; the
    journal is append-only between barriers, so the parent keeps a byte
    offset and folds only the new lines in.  A cold cache (fleet
    resume) replays the whole journal and lands on the same state —
    bucket-bit merging is idempotent, so re-reading a line (including
    an import the selection already folded in) never diverges.
    """

    __slots__ = ("offset", "coverage", "exports")

    def __init__(self):
        self.offset = 0
        #: accumulated bucketed map — the shard's virgin map as importer
        self.coverage = GlobalCoverage()
        #: locally-discovered seed lines — the shard as exporter
        self.exports: List[dict] = []

    def refresh(self, workspace: CampaignWorkspace) -> None:
        self.offset, lines = workspace.read_coverage_journal(self.offset)
        for line in lines:
            self.coverage.merge_bucketed(line["map"])
            # imports are not relayed: every shard scans every sibling
            # directly, so forwarding only duplicates
            if "sync_round" not in line:
                self.exports.append(line)


def _sync_phase(fleet: FleetWorkspace, sync_round: int,
                states: Dict[int, _ShardSyncState]) -> None:
    """Stage cross-shard seeds for *sync_round* into every inbox.

    Selection is a pure function of the shard files at the boundary:
    for each unfinished shard, sibling seeds (source shard then
    discovery order) whose bucketed map adds new state to the shard's
    virgin map are staged; each accepted map is folded in before the
    next candidate is judged, so the staged set carries no redundant
    entries.  Redoing an interrupted phase rewrites the same files,
    which is what lets a killed fleet resume exactly.
    """
    workspaces = fleet.shard_workspaces()
    for shard, workspace in enumerate(workspaces):
        states[shard].refresh(workspace)
    for shard, workspace in enumerate(workspaces):
        if workspace.load_result() is not None:
            continue  # finished shards never fuzz again: no inbox
        coverage = states[shard].coverage
        for src in range(len(workspaces)):
            if src == shard:
                continue
            for line in states[src].exports:
                if not coverage.merge_bucketed(line["map"]):
                    continue
                workspace.write_inbox_entry(
                    sync_round, src, line["exec"],
                    bytes.fromhex(line["packet"]), {
                        "src_shard": src,
                        "src_exec": line["exec"],
                        "model_name": line["model_name"],
                        "path_hash": line["path_hash"],
                        "edges_touched": line["edges_touched"],
                        "map": line["map"],
                    })
        # the staged round must be durable before sync_state.json names it
        workspace.sync_inbox_round(sync_round)


# ---------------------------------------------------------------------------
# the round loop (shared by run_fleet and resume_fleet)
# ---------------------------------------------------------------------------

def _round_loop(fleet: FleetWorkspace, *,
                max_workers: Optional[int],
                stop_after_rounds: Optional[int],
                kill_shards_at_executions: Optional[int]
                ) -> Optional[FleetResult]:
    manifest = fleet.load_manifest()
    shards = manifest["shards"]
    sync_every = manifest["sync_every"]
    results: Dict[int, CampaignResult] = {}
    states = {shard: _ShardSyncState() for shard in range(shards)}
    # one pool serves every round: workers are stateless
    pool = open_pool(shards, max_workers)
    run = map if pool is None else pool.map
    try:
        while True:
            current_round = fleet.synced_rounds + 1
            pause_at = current_round * sync_every
            killing = kill_shards_at_executions is not None and \
                kill_shards_at_executions <= pause_at
            pending = [shard for shard in range(shards)
                       if shard not in results]
            tasks: List[_ShardTask] = [
                (fleet.shard_dir(shard), pause_at,
                 kill_shards_at_executions if killing else None,
                 fleet.synced_rounds)
                for shard in pending]
            outcomes = list(run(_fleet_shard_worker, tasks))
            if killing:
                return None  # simulated fleet-wide SIGKILL mid-round
            for shard, outcome in zip(pending, outcomes):
                if outcome is not None:
                    results[shard] = outcome
            if len(results) == shards:
                break
            if stop_after_rounds is not None and \
                    current_round >= stop_after_rounds:
                return None  # simulated kill at the round barrier
            _sync_phase(fleet, current_round, states)
            fleet.record_sync_round(current_round)
    finally:
        if pool is not None:
            pool.shutdown()
    ordered = [results[shard] for shard in range(shards)]
    return FleetResult(
        engine_name=manifest["engine"],
        target_name=manifest["target"],
        workspace=fleet.root,
        shards=shards,
        sync_every=sync_every,
        rounds=fleet.synced_rounds,
        shard_results=ordered,
        merged_crashes=merge_crash_reports(ordered),
        merged_divergences=merge_divergence_reports(ordered),
    )


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def run_fleet(engine_name: str, target_spec, *, shards: int,
              workspace_dir: str, seed: int = 0, sync_every: int = 200,
              config: Optional[CampaignConfig] = None,
              max_workers: Optional[int] = None,
              stop_after_rounds: Optional[int] = None,
              kill_shards_at_executions: Optional[int] = None
              ) -> Optional[FleetResult]:
    """Run *shards* synced shards of one campaign config as a fleet.

    Each shard is seeded ``seed + 1000*shard`` (the repetition scheme of
    :func:`~repro.core.campaign.run_repetitions`) and persists into
    ``<workspace_dir>/shards/<n>/``.  *stop_after_executions*-style kill
    switches (*stop_after_rounds* at a barrier,
    *kill_shards_at_executions* mid-round) abandon the fleet with
    ``None``; :func:`resume_fleet` carries it to the same final state an
    uninterrupted run reaches.
    """
    config = config if config is not None else CampaignConfig()
    validate_campaign_config(engine_name, target_spec, config)
    fleet = FleetWorkspace(workspace_dir)
    fleet.initialize(engine_name, target_spec.name, seed, shards,
                     sync_every,
                     config_to_dict(replace(config, workspace=None)))
    for shard in range(shards):
        shard_config = replace(config, workspace=fleet.shard_dir(shard))
        fleet.shard_workspace(shard).initialize(
            engine_name, target_spec.name, seed + 1000 * shard,
            config_to_dict(shard_config))
    return _round_loop(fleet, max_workers=max_workers,
                       stop_after_rounds=stop_after_rounds,
                       kill_shards_at_executions=kill_shards_at_executions)


def resume_fleet(workspace_dir: str, *,
                 max_workers: Optional[int] = None,
                 stop_after_rounds: Optional[int] = None,
                 kill_shards_at_executions: Optional[int] = None
                 ) -> Optional[FleetResult]:
    """Continue a killed (or finished) fleet shard-by-shard.

    Every shard is rewound to its last checkpoint and re-driven through
    the remaining rounds; completed sync phases are never redone (their
    inboxes are already on disk), an interrupted one is redone
    idempotently.  The finished fleet is bit-identical to one that was
    never killed.
    """
    fleet = FleetWorkspace(workspace_dir)
    if not fleet.exists:
        raise WorkspaceError(f"{os.path.abspath(workspace_dir)} is not a "
                             "fleet workspace (no fleet.json)")
    return _round_loop(fleet, max_workers=max_workers,
                       stop_after_rounds=stop_after_rounds,
                       kill_shards_at_executions=kill_shards_at_executions)
