"""Fleet workspaces: shared corpus exchange + kill-and-resume determinism.

The acceptance gates of the fleet subsystem:

(a) a fleet's merged path-hash set is a superset of every single
    shard's set;
(b) a killed fleet resumed with ``resume_fleet`` finishes bit-identical
    to the uninterrupted fleet — at the round barrier, mid-round, and
    under repeated kills;
(c) corpus sync actually moves seeds: in a scenario where shard 0
    misses coverage shard 1 reaches, shard 0 imports at least one
    cross-shard seed and its map absorbs the missing state.
"""

import os
import re
import shutil

import pytest

from repro.cli import main
from repro.core import (
    CampaignConfig, resume_fleet, run_campaign, run_fleet,
)
from repro.protocols import get_target
from repro.store import FleetWorkspace, WorkspaceError, is_fleet_workspace
from repro.store.workspace import CampaignWorkspace


def _config(**overrides):
    base = dict(budget_hours=24.0, max_executions=300, record_every=10,
                checkpoint_every=50)
    base.update(overrides)
    return CampaignConfig(**base)


def _shard_signature(result):
    return (
        result.series,
        result.final_paths,
        result.final_edges,
        result.executions,
        sorted(report.dedup_key for report in result.unique_crashes),
        result.crash_times,
        result.stats,
        result.path_hashes,
    )


def _fleet_signature(fleet):
    return ([_shard_signature(result) for result in fleet.shard_results],
            fleet.rounds, fleet.merged_path_hashes,
            sorted(fleet.merged_crashes.first_seen.items()))


def _run(ws_dir, **kwargs):
    defaults = dict(shards=3, seed=5, sync_every=80, config=_config(),
                    max_workers=1)
    defaults.update(kwargs)
    return run_fleet("peach-star", get_target("libmodbus"),
                     workspace_dir=ws_dir, **defaults)


class TestFleetLayout:
    def test_initialize_creates_manifest_and_shards(self, tmp_path):
        ws_dir = str(tmp_path / "fleet")
        fleet = _run(ws_dir, config=_config(max_executions=90))
        assert is_fleet_workspace(ws_dir)
        assert not is_fleet_workspace(str(tmp_path))
        manifest = FleetWorkspace(ws_dir).load_manifest()
        assert manifest["shards"] == 3
        assert manifest["sync_every"] == 80
        assert manifest["target"] == "libmodbus"
        for shard in range(3):
            shard_dir = os.path.join(ws_dir, "shards", f"{shard:03d}")
            assert os.path.exists(os.path.join(shard_dir, "config.json"))
            assert os.path.exists(os.path.join(shard_dir, "result.json"))
        assert len(fleet.shard_results) == 3

    def test_initialize_refuses_existing_fleet(self, tmp_path):
        ws_dir = str(tmp_path / "fleet")
        _run(ws_dir, config=_config(max_executions=60))
        with pytest.raises(WorkspaceError):
            _run(ws_dir)

    def test_resume_needs_a_fleet(self, tmp_path):
        with pytest.raises(WorkspaceError):
            resume_fleet(str(tmp_path / "nope"))

    def test_shards_are_independently_seeded(self, tmp_path):
        fleet = _run(str(tmp_path / "fleet"))
        seeds = [result.seed for result in fleet.shard_results]
        assert seeds == [5, 1005, 2005]


class TestMergedViews:
    def test_merged_paths_superset_of_every_shard(self, tmp_path):
        fleet = _run(str(tmp_path / "fleet"), shards=4)
        merged = fleet.merged_path_hashes
        for result in fleet.shard_results:
            assert set(result.path_hashes) <= merged
        assert fleet.merged_paths >= max(result.final_paths
                                         for result in fleet.shard_results)

    def test_merged_crashes_keep_earliest_first_seen(self, tmp_path):
        fleet = _run(str(tmp_path / "fleet"), shards=4)
        for key, hours in fleet.merged_crashes.first_seen.items():
            observed = [result.crash_times[key]
                        for result in fleet.shard_results
                        if key in result.crash_times]
            assert hours == min(observed)


class TestKillAndResumeDeterminism:
    """The subsystem's headline guarantee, at every kill point."""

    def test_barrier_kill_resumes_bit_identical(self, tmp_path):
        full = _run(str(tmp_path / "full"))
        killed_dir = str(tmp_path / "killed")
        assert _run(killed_dir, stop_after_rounds=2) is None
        resumed = resume_fleet(killed_dir, max_workers=1)
        assert _fleet_signature(resumed) == _fleet_signature(full)

    def test_mid_round_kill_resumes_bit_identical(self, tmp_path):
        full = _run(str(tmp_path / "full"))
        killed_dir = str(tmp_path / "killed")
        # 137 is deliberately not a checkpoint or boundary multiple:
        # every shard rewinds to its last checkpoint and re-executes
        assert _run(killed_dir, kill_shards_at_executions=137) is None
        resumed = resume_fleet(killed_dir, max_workers=1)
        assert _fleet_signature(resumed) == _fleet_signature(full)
        # the workspaces converge too
        for shard in range(3):
            assert CampaignWorkspace(
                os.path.join(killed_dir, "shards", f"{shard:03d}")
            ).corpus_path_hashes() == CampaignWorkspace(
                os.path.join(str(tmp_path / "full"), "shards",
                             f"{shard:03d}")).corpus_path_hashes()

    def test_double_kill_still_converges(self, tmp_path):
        full = _run(str(tmp_path / "full"))
        killed_dir = str(tmp_path / "killed")
        assert _run(killed_dir, kill_shards_at_executions=137) is None
        assert resume_fleet(killed_dir, max_workers=1,
                            stop_after_rounds=3) is None
        resumed = resume_fleet(killed_dir, max_workers=1)
        assert _fleet_signature(resumed) == _fleet_signature(full)

    def test_resume_finished_fleet_reproduces_result(self, tmp_path):
        ws_dir = str(tmp_path / "fleet")
        first = _run(ws_dir, config=_config(max_executions=160))
        again = resume_fleet(ws_dir, max_workers=1)
        assert _fleet_signature(again) == _fleet_signature(first)

    def test_pooled_fleet_matches_serial(self, tmp_path):
        serial = _run(str(tmp_path / "serial"))
        pooled = _run(str(tmp_path / "pooled"), max_workers=3)
        assert _fleet_signature(pooled) == _fleet_signature(serial)


class TestDamagedFleet:
    """A damaged fleet fails resume with WorkspaceError (the CLI:
    ``error: ...``, exit 2), never a raw OSError or a smaller fleet."""

    def test_deleted_shard_fails_loudly(self, tmp_path, capsys):
        ws_dir = str(tmp_path / "killed")
        assert _run(ws_dir, shards=2, stop_after_rounds=1) is None
        shard_dir = os.path.join(ws_dir, "shards", "001")
        shutil.rmtree(shard_dir)
        with pytest.raises(WorkspaceError,
                           match=re.escape(f"{shard_dir} is not a campaign "
                                           "workspace")):
            resume_fleet(ws_dir, max_workers=1)
        capsys.readouterr()
        assert main(["resume", ws_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and shard_dir in err


class TestCorpusSync:
    """(c): a shard constructed to miss coverage imports it from the
    sibling that found it."""

    def test_shard0_imports_coverage_it_missed(self, tmp_path):
        # Establish the gap first: by the first sync boundary (80
        # execs), shard 0 running alone has strictly fewer paths than
        # shard 1 running alone — shard 1 reaches branches shard 0
        # missed, which is exactly what sync must transport.
        spec = get_target("libmodbus")
        solo = {}
        for shard, seed in ((0, 5), (1, 1005)):
            solo[shard] = run_campaign(
                "peach-star", spec, seed=seed,
                config=_config(max_executions=80))
        missing = set(solo[1].path_hashes) - set(solo[0].path_hashes)
        assert missing, "scenario must make shard 1 find what 0 misses"

        fleet = _run(str(tmp_path / "fleet"), shards=2)
        shard0 = fleet.shard_results[0]
        assert shard0.stats["imported_seeds"] >= 1
        assert fleet.imported_seeds[0] >= 1
        # at least one of the paths shard 0 missed solo arrived via sync
        assert missing & set(shard0.path_hashes)

    def test_imports_are_persisted_with_provenance(self, tmp_path):
        ws_dir = str(tmp_path / "fleet")
        fleet = _run(ws_dir, shards=2)
        assert sum(fleet.imported_seeds) >= 1
        imported = []
        for shard in range(2):
            workspace = CampaignWorkspace(
                os.path.join(ws_dir, "shards", f"{shard:03d}"))
            for line in workspace.read_coverage_journal(0)[1]:
                if "sync_round" not in line:
                    continue
                assert line["src_shard"] != shard
                assert line["sync_round"] >= 1
                assert bytes.fromhex(line["packet"])
                imported.append(line)
        assert len(imported) == sum(fleet.imported_seeds)

    def test_torn_journal_tail_is_pruned_on_resume(self, tmp_path):
        """A real SIGKILL can cut the last journal append mid-line;
        resume must prune the torn record (it is past the checkpoint by
        construction), not crash on it."""
        full = _run(str(tmp_path / "full"))
        killed_dir = str(tmp_path / "killed")
        assert _run(killed_dir, kill_shards_at_executions=137) is None
        for shard in range(3):
            journal = os.path.join(killed_dir, "shards", f"{shard:03d}",
                                   "coverage.jsonl")
            with open(journal, "a") as handle:
                handle.write('{"exec": 999, "path_hash": 1, "ma')
        resumed = resume_fleet(killed_dir, max_workers=1)
        assert _fleet_signature(resumed) == _fleet_signature(full)

    def test_import_counts_survive_resume(self, tmp_path):
        full = _run(str(tmp_path / "full"), shards=2)
        killed_dir = str(tmp_path / "killed")
        assert _run(killed_dir, shards=2,
                    kill_shards_at_executions=97) is None
        resumed = resume_fleet(killed_dir, max_workers=1)
        assert resumed.imported_seeds == full.imported_seeds
        assert sum(resumed.imported_seeds) >= 1
