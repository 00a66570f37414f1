"""Shared fixtures: real campaigns' findings, harvested once."""

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.protocols import get_target


@pytest.fixture(scope="session")
def lib60870_crashes():
    """Unique crash reports from a budget lib60870 Peach* campaign."""
    spec = get_target("lib60870")
    result = run_campaign("peach-star", spec, seed=7,
                          config=CampaignConfig(budget_hours=24.0))
    assert result.unique_crashes, "campaign should crash lib60870"
    return spec, result.unique_crashes


@pytest.fixture(scope="session")
def iec104_fault_findings():
    """Crashes and divergences of an iec104 campaign under channel
    faults (at seed 1 its findings are divergences: many of them, so a
    checker shared across findings would show in the counts)."""
    spec = get_target("iec104")
    result = run_campaign("peach-star", spec, seed=1,
                          config=CampaignConfig(budget_hours=24.0,
                                                channel_faults=0.25))
    assert len(result.unique_divergences) > 1
    return spec, result.unique_crashes + result.unique_divergences
