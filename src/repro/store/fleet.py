"""FleetWorkspace: the on-disk layout of a multi-shard campaign fleet.

Layout of a fleet directory::

    <root>/
      fleet.json         fleet manifest: engine, target, shard count,
                         base seed, sync cadence, shared campaign config
      sync_state.json    atomic high-water mark of completed sync phases
      shards/
        000/ … NNN/      one CampaignWorkspace per shard

Each shard is an ordinary :class:`~repro.store.workspace.CampaignWorkspace`
— the same journals, crash records and checkpoint, the same restore
semantics — plus an ``inbox/`` of cross-shard seeds staged by the fleet
driver's sync phases (AFL-style sync dirs, pure file-level exchange)::

    <shard>/inbox/round_NNN/
        s<src>_<exec>.bin + .json   one staged seed from shard <src>

The fleet reads and writes shard files only through that shard's
workspace, and its own files through the same record seam.

``sync_state.json`` is the fleet-level recovery point, under the same
one durability rule as a shard's ``state.json``: nothing names what is
not yet durable.  The fleet directory, its ``shards/`` and each shard
directory (with any missing ancestor) are made durable in their parents
as they are created.  A sync phase stages every shard's inbox without
fsync, then fsyncs each staged record with its ``round_NNN/`` directory
and the directories above it, and only then does the driver bump
``sync_state.json`` atomically.  A kill or power loss anywhere inside
the phase makes the resumed driver redo the whole phase — inbox writes
are deterministic and idempotent, which is what keeps a
killed-and-resumed fleet bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from typing import List

from repro.store.workspace import (
    STATE_FORMAT, CampaignWorkspace, WorkspaceError, _atomic_write,
    _load_json, _make_dirs, _write_json,
)


def is_fleet_workspace(root: str) -> bool:
    """True when *root* holds a fleet manifest (vs a single campaign)."""
    return os.path.exists(os.path.join(root, "fleet.json"))


class FleetWorkspace:
    """On-disk store for one fleet: a manifest plus N shard workspaces."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.shards_dir = os.path.join(self.root, "shards")
        self._manifest_path = os.path.join(self.root, "fleet.json")
        self._sync_state_path = os.path.join(self.root, "sync_state.json")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def exists(self) -> bool:
        return os.path.exists(self._manifest_path)

    def initialize(self, engine_name: str, target_name: str, seed: int,
                   shards: int, sync_every: int,
                   config_dict: dict) -> None:
        """Create a fresh fleet; refuses to clobber an existing one."""
        if self.exists:
            raise WorkspaceError(
                f"fleet workspace {self.root} already exists; "
                "use `peachstar resume` (or a fresh directory) instead")
        if shards < 1:
            raise WorkspaceError("a fleet needs at least one shard")
        if sync_every < 1:
            raise WorkspaceError("sync_every must be >= 1 execution")
        _make_dirs(self.shards_dir)
        manifest = {
            "format": STATE_FORMAT,
            "engine": engine_name,
            "target": target_name,
            "seed": seed,
            "shards": shards,
            "sync_every": sync_every,
            "config": config_dict,
        }
        _write_json(self._manifest_path, manifest)

    def load_manifest(self) -> dict:
        if not self.exists:
            raise WorkspaceError(f"{self.root} is not a fleet workspace "
                                 "(no fleet.json)")
        return _load_json(self._manifest_path, "fleet")

    # ------------------------------------------------------------------
    # shards
    # ------------------------------------------------------------------

    def shard_dir(self, shard: int) -> str:
        return os.path.join(self.shards_dir, f"{shard:03d}")

    def shard_workspace(self, shard: int) -> CampaignWorkspace:
        return CampaignWorkspace(self.shard_dir(shard))

    def shard_workspaces(self) -> List[CampaignWorkspace]:
        shards = self.load_manifest()["shards"]
        return [self.shard_workspace(index) for index in range(shards)]

    # ------------------------------------------------------------------
    # sync bookkeeping
    # ------------------------------------------------------------------

    @property
    def synced_rounds(self) -> int:
        """Sync phases completed (inboxes fully staged for that round)."""
        if not os.path.exists(self._sync_state_path):
            return 0
        return _load_json(self._sync_state_path)["synced_rounds"]

    def record_sync_round(self, sync_round: int) -> None:
        _atomic_write(self._sync_state_path,
                      json.dumps({"synced_rounds": sync_round}) + "\n")
