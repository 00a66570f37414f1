"""Campaign-level acceptance gates of the live-network layer.

The ISSUE pins three behaviors:

* **loopback parity** — a seeded campaign through a ``SocketTarget``
  loopback harness is signature-identical to the in-process campaign
  for all six protocols (coverage, paths, crashes, stats — everything);
* **kill/resume over sockets** — a socket session campaign killed
  mid-run and resumed is bit-identical to an uninterrupted one;
* **shared-state concurrency** — two sessions interleaved against one
  shared-state server reach edges no single session can.

A fresh interpreter that runs an in-process and a loopback campaign
imports neither ``asyncio`` nor ``ssl``: the transport is plain sockets.
"""

import os
import subprocess
import sys

import pytest

from repro.core import (
    CampaignConfig, resume_campaign, run_campaign, run_fleet,
)
from repro.net import NetConfig, make_loopback_target
from repro.protocols import all_targets, get_target
from repro.runtime.coverage import GlobalCoverage
from repro.runtime.instrument import TracingCollector

TARGET_NAMES = [spec.name for spec in all_targets()]
#: every protocol clean, and at 0.25 channel faults (the benchmark's
#: socket workload: duplicated and fragmented frames go through the
#: pipelined reset-plus-first-frame exchange)
PARITY_ROWS = (
    [pytest.param(name, 0.0, id=name) for name in TARGET_NAMES]
    + [pytest.param(name, 0.25, id=f"{name}-faults")
       for name in TARGET_NAMES])


def _config(**overrides):
    base = dict(budget_hours=24.0, max_executions=150, record_every=10)
    base.update(overrides)
    return CampaignConfig(**base)


def _signature(result):
    return (
        result.series, result.final_paths, result.final_edges,
        result.executions,
        sorted(report.dedup_key for report in result.unique_crashes),
        sorted(report.dedup_key for report in result.unique_divergences),
        result.crash_times, result.stats, result.path_hashes,
    )


class TestLoopbackParity:
    @pytest.mark.parametrize("name,faults", PARITY_ROWS)
    def test_socket_campaign_matches_in_process(self, name, faults):
        spec = get_target(name)
        in_process = run_campaign("peach-star", spec, seed=7,
                                  config=_config(channel_faults=faults))
        over_socket = run_campaign(
            "peach-star", spec, seed=7,
            config=_config(net=NetConfig(), channel_faults=faults))
        assert _signature(over_socket) == _signature(in_process), \
            f"{name}: socket loopback campaign diverged from in-process"
        if faults:
            assert over_socket.stats["channel_faults"] > 0

    @pytest.mark.parametrize("name,faults", PARITY_ROWS)
    def test_parity_holds_for_sessions_with_channel_faults(self, name,
                                                           faults):
        spec = get_target(name)
        base = dict(max_executions=200, checkpoint_every=50,
                    sessions=True, channel_faults=faults)
        in_process = run_campaign("peach-star", spec, seed=11,
                                  config=_config(**base))
        over_socket = run_campaign("peach-star", spec, seed=11,
                                   config=_config(net=NetConfig(), **base))
        assert _signature(over_socket) == _signature(in_process)
        if faults:
            assert over_socket.stats["channel_faults"] > 0


class TestSocketKillResume:
    def test_killed_socket_campaign_resumes_bit_identically(self, tmp_path):
        spec = get_target("iec104")
        base = dict(max_executions=300, checkpoint_every=50, sessions=True)
        full = run_campaign(
            "peach-star", spec, seed=11,
            config=_config(net=NetConfig(),
                           workspace=str(tmp_path / "full"), **base))

        killed_dir = str(tmp_path / "killed")
        killed = run_campaign(
            "peach-star", spec, seed=11,
            config=_config(net=NetConfig(), workspace=killed_dir, **base),
            stop_after_executions=173)
        assert killed is None
        resumed = resume_campaign(killed_dir)
        assert _signature(resumed) == _signature(full)

    def test_net_config_rides_in_the_manifest(self, tmp_path):
        # the resumed campaign must rebuild the same transport: the
        # manifest round-trips NetConfig through config_from_dict
        from repro.core import config_from_dict, config_to_dict
        config = _config(net=NetConfig(framing="raw", timeout_ms=250.0,
                                       reconnect=3, concurrency=2),
                         sessions=True)
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.net == config.net
        assert isinstance(rebuilt.net, NetConfig)


class TestFleetOverSockets:
    def test_fleet_shards_compose_with_loopback_targets(self, tmp_path):
        spec = get_target("libmodbus")
        fleet = run_fleet(
            "peach-star", spec, shards=2,
            workspace_dir=str(tmp_path / "fleet"), seed=3, sync_every=60,
            config=_config(max_executions=120, net=NetConfig()),
            max_workers=1)
        assert fleet is not None
        assert len(fleet.shard_results) == 2
        assert all(result.executions == 120
                   for result in fleet.shard_results)


class TestSharedStateConcurrency:
    """The pinned scenario: interleaving beats any single session.

    The iec104 server boots with transfer *started*; lane 0 sends
    STOPDT (stopping it) while lane 1's interrogation then lands on a
    stopped server and is dropped — a code path no single fresh-session
    trace can reach, because a lone session either never stops transfer
    or stops it and ends.
    """

    def _edges(self, steps, concurrency):
        spec = get_target("iec104")
        target = make_loopback_target(
            spec, collector=TracingCollector(("repro/protocols",)),
            net=NetConfig(concurrency=concurrency))
        try:
            result = target.run_trace(steps)
        finally:
            target.close()
        coverage = GlobalCoverage()
        coverage.merge(result.coverage)
        return {index for index, seen in enumerate(coverage.virgin)
                if seen}

    def test_interleaved_sessions_reach_edges_single_sessions_cannot(self):
        pit = get_target("iec104").make_pit()

        def step(name):
            model = pit.model(name)
            return model.to_wire(model.build_default()), name

        stopdt = step("iec104.stopdt")
        interrogation = step("iec104.interrogation")
        single = self._edges([stopdt], 1) | self._edges([interrogation], 1)
        concurrent = self._edges([stopdt, interrogation], 2)
        only_concurrent = concurrent - single
        assert only_concurrent, (
            "two interleaved shared-state sessions reached no edge the "
            "single-session runs missed")

    def test_concurrent_campaign_is_deterministic(self):
        spec = get_target("iec104")

        def once():
            return run_campaign(
                "peach-star", spec, seed=5,
                config=_config(max_executions=200, checkpoint_every=50,
                               sessions=True,
                               net=NetConfig(concurrency=2)))

        assert _signature(once()) == _signature(once())

    def test_concurrency_requires_session_mode(self):
        spec = get_target("iec104")
        with pytest.raises(ValueError):
            run_campaign("peach-star", spec, seed=0,
                         config=_config(net=NetConfig(concurrency=2)))


SRC_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                        "src"))

_IMPORT_PROBE = """
import sys
import repro
from repro.core import CampaignConfig, run_campaign
from repro.net import NetConfig
from repro.protocols import get_target
for net in (None, NetConfig()):
    result = run_campaign("peach-star", get_target("iec104"), seed=1,
                          config=CampaignConfig(max_executions=60, net=net))
    assert result.executions == 60
print(sorted(name for name in ("asyncio", "ssl") if name in sys.modules))
"""


def test_campaigns_import_neither_asyncio_nor_ssl():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC_ROOT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
