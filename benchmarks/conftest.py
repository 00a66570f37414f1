"""Shared benchmark configuration.

Every benchmark regenerates one artifact of the paper's evaluation and
prints the same rows/series the paper reports.  Scale knobs (all via
environment variables so CI and full runs share code):

* ``REPRO_BENCH_HOURS``  — simulated budget per campaign (default 24,
  the paper's budget; the virtual clock compresses this to ~1.5k-2.4k
  executions per campaign).
* ``REPRO_BENCH_REPS``   — repetitions per engine/target (default 2;
  the paper uses 10).
* ``REPRO_BENCH_JOBS``   — worker processes for campaign fan-out
  (default ``1`` = serial; ``0`` defers to
  :func:`repro.core.campaign.default_worker_count`, i.e. ``REPRO_JOBS``
  or cores-1).

Smoke run for quick iteration / CI presubmit::

    REPRO_BENCH_HOURS=2 REPRO_BENCH_REPS=1 \
        PYTHONPATH=src python -m pytest benchmarks -q

Benchmarks that produce machine-readable artifacts write them as
``BENCH_<name>.json`` into the gitignored ``.benchmarks/`` directory at
the repo root via :func:`write_artifact`, so test runs leave the tracked
tree alone; ``REPRO_BENCH_ARTIFACT_DIR`` redirects them (``make bench``
points it at the repo root to refresh the committed
``BENCH_throughput.json``).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.speedup import run_headline
from repro.core import CampaignConfig
from repro.protocols import all_targets

BENCH_HOURS = float(os.environ.get("REPRO_BENCH_HOURS", "24"))
BENCH_REPS = int(os.environ.get("REPRO_BENCH_REPS", "2"))
_jobs_env = os.environ.get("REPRO_BENCH_JOBS", "1")
#: None = let run_campaign_batch pick a worker per core
BENCH_JOBS = None if _jobs_env == "0" else int(_jobs_env)


#: the paper-claim assertions (Peach* ahead of Peach, 7/9 bugs found)
#: only hold once campaigns run a near-full 24h budget; smoke runs
#: (REPRO_BENCH_HOURS=2) still exercise the whole pipeline and the
#: shape checks, but skip the claim gates.
CLAIMS_ENABLED = BENCH_HOURS >= 12


def bench_config() -> CampaignConfig:
    return CampaignConfig(budget_hours=BENCH_HOURS, record_every=20)


def artifact_path(name: str) -> str:
    """Absolute path for a ``BENCH_<name>.json`` artifact."""
    root = os.environ.get(
        "REPRO_BENCH_ARTIFACT_DIR",
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), ".benchmarks"))
    return os.path.join(root, f"BENCH_{name}.json")


def write_artifact(name: str, payload: dict) -> str:
    """Write a JSON benchmark artifact; returns the path written."""
    path = artifact_path(name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


_HEADLINE = {}


def headline():
    """The Peach-vs-Peach* headline sweep (base seed 500), run once per
    session and shared by the speedup and final-path benchmarks.

    It lives here because pytest imports each test file under its own
    name: a test file importing another gets a second module copy, with
    a second cache, and the sweep would run twice.
    """
    if "report" not in _HEADLINE:
        _HEADLINE["report"] = run_headline(
            list(all_targets()), repetitions=BENCH_REPS,
            budget_hours=BENCH_HOURS, base_seed=500, config=bench_config(),
            jobs=BENCH_JOBS)
    return _HEADLINE["report"]


@pytest.fixture
def config():
    return bench_config()


def print_block(title: str, body: str) -> None:
    """Print a labelled report block (visible with -s / benchmark runs)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
