"""Persistent campaign state: on-disk workspaces for resumable fuzzing.

The paper's campaigns are one-shot, in-memory affairs; the production
north star (long-running services, many scenarios) needs campaigns that
survive their process.  :class:`CampaignWorkspace` persists a running
campaign — a seed journal (each seed's packet beside its sparse
coverage), crash inputs, the stats series, config and RNG snapshots,
made durable together at each checkpoint — so ``peachstar resume <dir>``
continues a killed campaign bit-identically.  :class:`FleetWorkspace`
stacks N shard workspaces under one manifest with AFL-style sync-dir
corpus exchange between them (see :mod:`repro.core.fleet`).
"""

from repro.store.fleet import FleetWorkspace, is_fleet_workspace
from repro.store.workspace import (
    STATE_FORMAT, CampaignWorkspace, WorkspaceError,
)

__all__ = ["STATE_FORMAT", "CampaignWorkspace", "FleetWorkspace",
           "WorkspaceError", "is_fleet_workspace"]
