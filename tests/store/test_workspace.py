"""Campaign workspace persistence + kill-and-resume determinism.

The acceptance gate of the persistence subsystem: a campaign stopped
mid-budget and resumed from its workspace must finish **bit-identical**
to the same campaign run uninterrupted — same series, final paths,
coverage path-hash set, unique crashes, stats and RNG trajectory.
"""

import dataclasses
import glob
import json
import os
import re

import pytest

import repro.core.fleet as fleet_driver
from repro.core import (
    CampaignConfig, config_from_dict, config_to_dict, resume_campaign,
    resume_fleet, run_campaign, run_fleet,
)
from repro.cli import main
from repro.core.campaign import make_engine
from repro.net.config import NetConfig
from repro.protocols import get_target
from repro.store import CampaignWorkspace, WorkspaceError


#: the CampaignConfig fields a manifest holds
KEPT_KNOBS = (
    "budget_hours", "max_executions", "record_every", "pin_prob",
    "semantic_enabled", "sessions", "learn_states", "channel_faults",
    "channel_burst", "differential", "steer_divergence", "net",
    "workspace", "checkpoint_every",
)

#: the retired keys as older manifests wrote them, at the defaults every
#: campaign ran with
RETIRED_KNOB_DEFAULTS = {
    "policy": {"default_prob": 0.15, "legal_value_prob": 0.10,
               "edge_case_prob": 0.15, "history_prob": 0.0,
               "token_fuzz_prob": 0.0, "max_string_len": 32,
               "max_blob_len": 96, "history_limit": 64},
    "semantic_batch": 16,
    "semantic_ratio": 0.5,
    "hang_budget": 120000,
    "max_trace_steps": 6,
    "crack_enabled": True,
    "coverage_backend": "auto",
}


class _SimulatedKill(Exception):
    """Stands in for a SIGKILL at a chosen point of a run."""


def _set_config(**values):
    """A manifest edit that overwrites config keys."""
    return lambda manifest: manifest["config"].update(values)


def _config(**overrides):
    base = dict(budget_hours=24.0, max_executions=400, record_every=10,
                checkpoint_every=50)
    base.update(overrides)
    return CampaignConfig(**base)


def _signature(result):
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


class TestWorkspaceLifecycle:
    def test_initialize_creates_layout(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        config = _config(workspace=ws_dir, max_executions=60)
        run_campaign("peach-star", get_target("libmodbus"), seed=3,
                     config=config)
        for name in ("config.json", "state.json", "coverage.jsonl",
                     "series.jsonl", "result.json", "crashes"):
            assert os.path.exists(os.path.join(ws_dir, name)), name
        # seeds live in the coverage journal: no per-seed files
        assert not os.path.exists(os.path.join(ws_dir, "corpus"))
        manifest = CampaignWorkspace(ws_dir).load_manifest()
        assert manifest["engine"] == "peach-star"
        assert manifest["target"] == "libmodbus"
        assert manifest["seed"] == 3

    def test_initialize_refuses_existing_state(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        config = _config(workspace=ws_dir, max_executions=30)
        run_campaign("peach", get_target("iec104"), seed=1, config=config)
        with pytest.raises(WorkspaceError):
            run_campaign("peach", get_target("iec104"), seed=1,
                         config=config)

    def test_resume_needs_a_workspace(self, tmp_path):
        with pytest.raises(WorkspaceError):
            resume_campaign(str(tmp_path / "nope"))

    def test_config_dict_roundtrip(self):
        config = _config(workspace="/some/dir", pin_prob=0.25)
        clone = config_from_dict(config_to_dict(config))
        assert clone == config

    def test_manifest_holds_exactly_the_kept_knobs(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        run_campaign("peach", get_target("iec104"), seed=1,
                     config=_config(workspace=ws_dir, max_executions=20))
        manifest = CampaignWorkspace(ws_dir).load_manifest()
        assert sorted(manifest["config"]) == sorted(KEPT_KNOBS)
        assert sorted(field.name for field in
                      dataclasses.fields(CampaignConfig)) == \
            sorted(KEPT_KNOBS)

    def test_seed_lines_carry_coverage_metadata(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        result = run_campaign("peach-star", get_target("libmodbus"), seed=3,
                              config=_config(workspace=ws_dir,
                                             max_executions=120))
        workspace = CampaignWorkspace(ws_dir)
        hashes = workspace.corpus_path_hashes()
        assert hashes and all(isinstance(h, int) and h > 0 for h in hashes)
        # one coverage-journal line per valuable seed, the packet and
        # the seed metadata beside its map
        with open(os.path.join(ws_dir, "coverage.jsonl")) as handle:
            lines = [json.loads(raw) for raw in handle if raw.strip()]
        assert [line["path_hash"] for line in lines] == hashes == \
            list(result.path_hashes)
        assert all(line["edges_touched"] > 0 and line["map"]
                   for line in lines)
        assert [bytes.fromhex(line["packet"]) for line in lines] == \
            workspace.corpus_packets()


class TestKillAndResumeDeterminism:
    """The subsystem's headline guarantee, on a crashing and a clean
    target and for both engines."""

    @pytest.mark.parametrize("engine_name,target_name,stop_after", [
        ("peach-star", "lib60870", 137),   # crashes + puzzle corpus state
        ("peach-star", "libmodbus", 77),   # crashes, different protocol
        ("peach", "iec104", 133),          # baseline engine, no corpus
    ])
    def test_killed_campaign_resumes_bit_identical(
            self, tmp_path, engine_name, target_name, stop_after):
        spec = get_target(target_name)
        full_dir = str(tmp_path / "full")
        killed_dir = str(tmp_path / "killed")

        full = run_campaign(engine_name, spec, seed=7,
                            config=_config(workspace=full_dir))
        # stop_after is deliberately NOT a checkpoint multiple: resume
        # must rewind to the last checkpoint and re-execute the window
        killed = run_campaign(engine_name, spec, seed=7,
                              config=_config(workspace=killed_dir),
                              stop_after_executions=stop_after)
        assert killed is None  # simulated SIGKILL: no result, no finalize
        assert CampaignWorkspace(killed_dir).load_result() is None

        resumed = resume_campaign(killed_dir)
        assert _signature(resumed) == _signature(full)
        # the workspaces converge too: same persisted path-hash set and
        # crash ledger
        assert CampaignWorkspace(killed_dir).corpus_path_hashes() == \
            CampaignWorkspace(full_dir).corpus_path_hashes()
        assert CampaignWorkspace(killed_dir).crash_times() == \
            CampaignWorkspace(full_dir).crash_times()
        # the result's crash times are the persisted crash ledger's
        assert list(full.crash_times.items()) == \
            list(CampaignWorkspace(full_dir).crash_times().items())

    def test_resume_matches_workspace_free_run(self, tmp_path):
        spec = get_target("lib60870")
        plain = run_campaign("peach-star", spec, seed=7, config=_config())
        ws_dir = str(tmp_path / "ws")
        run_campaign("peach-star", spec, seed=7,
                     config=_config(workspace=ws_dir),
                     stop_after_executions=190)
        resumed = resume_campaign(ws_dir)
        assert _signature(resumed) == _signature(plain)

    def test_resume_finished_campaign_reproduces_result(self, tmp_path):
        spec = get_target("libmodbus")
        ws_dir = str(tmp_path / "ws")
        first = run_campaign("peach-star", spec, seed=11,
                             config=_config(workspace=ws_dir,
                                            max_executions=150))
        again = resume_campaign(ws_dir)
        assert _signature(again) == _signature(first)

    def test_double_kill_still_converges(self, tmp_path):
        """Kill, resume, kill again, resume again."""
        spec = get_target("lib60870")
        full = run_campaign("peach-star", spec, seed=9, config=_config())
        ws_dir = str(tmp_path / "ws")
        assert run_campaign("peach-star", spec, seed=9,
                            config=_config(workspace=ws_dir),
                            stop_after_executions=90) is None
        assert resume_campaign(ws_dir, stop_after_executions=260) is None
        resumed = resume_campaign(ws_dir)
        assert _signature(resumed) == _signature(full)

    @pytest.mark.parametrize("retired", [
        dict(batch_size=1, coverage_impl="sparse"),
        dict(RETIRED_KNOB_DEFAULTS, batch_size=16, coverage_impl="auto"),
        dict(coverage_backend="monitoring"),
    ], ids=["batch-and-impl", "all-retired-keys", "any-backend"])
    def test_manifest_with_retired_knobs_resumes_bit_identical(
            self, tmp_path, retired):
        """Older manifests carry knobs this version no longer has; at
        the values every campaign ran with (any value, for the
        campaign-neutral batch size, map impl and coverage backend)
        resume accepts them and finishes the same campaign."""
        spec = get_target("libmodbus")
        full = run_campaign("peach-star", spec, seed=7, config=_config())
        ws_dir = str(tmp_path / "ws")
        assert run_campaign("peach-star", spec, seed=7,
                            config=_config(workspace=ws_dir),
                            stop_after_executions=77) is None
        _rewrite_manifest(ws_dir, lambda manifest:
                          manifest["config"].update(retired))
        resumed = resume_campaign(ws_dir)
        assert _signature(resumed) == _signature(full)

    @pytest.mark.parametrize("retired", [
        dict(shared_state=False), dict(connect_timeout_ms=5000.0),
    ], ids=["shared_state", "connect_timeout_ms"])
    def test_net_manifest_with_retired_keys_resumes_bit_identical(
            self, tmp_path, retired):
        """The retired net keys: loopback serving shares one server
        exactly when concurrency > 1, so older manifests resume at
        ``shared_state: false``, and every campaign connected with
        ``SocketTarget.CONNECT_TIMEOUT_MS``."""
        spec = get_target("iec104")
        full = run_campaign("peach-star", spec, seed=7,
                            config=_config(sessions=True, net=NetConfig()))
        ws_dir = str(tmp_path / "ws")
        assert run_campaign("peach-star", spec, seed=7,
                            config=_config(sessions=True, net=NetConfig(),
                                           workspace=ws_dir),
                            stop_after_executions=77) is None
        _rewrite_manifest(ws_dir, lambda manifest:
                          manifest["config"]["net"].update(retired))
        resumed = resume_campaign(ws_dir)
        assert _signature(resumed) == _signature(full)


class TestHostileManifest:
    """A manifest this version cannot resume into the campaign it
    describes fails loudly, naming the offending key."""

    @pytest.mark.parametrize("edit,message", [
        (_set_config(policy=dict(RETIRED_KNOB_DEFAULTS["policy"],
                                 default_prob=0.35)), r"'policy' is \{"),
        (_set_config(semantic_batch=8), r"'semantic_batch' is 8,"),
        (_set_config(semantic_ratio=0.25), r"'semantic_ratio' is 0\.25,"),
        (_set_config(hang_budget=200000), r"'hang_budget' is 200000,"),
        (_set_config(max_trace_steps=4), r"'max_trace_steps' is 4,"),
        (_set_config(crack_enabled=False), r"'crack_enabled' is False,"),
        (_set_config(crack_enabled=1), r"'crack_enabled' is 1,"),
        (_set_config(semantic_batch=16.0), r"'semantic_batch' is 16\.0,"),
        (_set_config(future_knob=7), r"unknown key 'future_knob' \(value 7"),
        (_set_config(budget_hours="abc"),
         r"'budget_hours' is 'abc', not of type float"),
        (_set_config(record_every=10.0),
         r"'record_every' is 10\.0, not of type int"),
        (_set_config(pin_prob=True), r"'pin_prob' is True, not of type float"),
        (_set_config(sessions=1), r"'sessions' is 1, not of type bool"),
        (_set_config(differential="yes"),
         r"'differential' is 'yes', not of type bool"),
        (_set_config(net={"url": "loopback", "bogus": 1}),
         r"key 'net' has unknown key 'bogus'"),
        (_set_config(net={"concurrency": "2"}),
         r"'concurrency' is '2', not of type int"),
        (_set_config(net=5), r"key 'net' is 5, not a JSON object"),
        (_set_config(net={"timeout_ms": -5.0}),
         r"timeout_ms -5\.0 is not > 0"),
        (_set_config(net={"url": "tcp://nohost"}),
         r"malformed tcp:// url: 'tcp://nohost'"),
        (_set_config(net={"shared_state": True}),
         r"key 'net' key 'shared_state' is True, but this version only "
         r"reproduces campaigns run with False"),
        (_set_config(net={"connect_timeout_ms": 200.0}),
         r"key 'net' key 'connect_timeout_ms' is 200\.0, but this version "
         r"only reproduces campaigns run with 5000\.0"),
        (_set_config(record_every=0), r"record_every 0 < 1"),
        (_set_config(checkpoint_every=0), r"checkpoint_every 0 < 1"),
        (_set_config(budget_hours=0), r"budget_hours 0 is not > 0"),
        (_set_config(max_executions=-1), r"max_executions -1 < 0"),
        (_set_config(channel_burst=-1), r"channel burst -1 < 0"),
        (_set_config(channel_faults=1.5), r"channel_faults 1\.5 is outside"),
        (_set_config(pin_prob=-0.1), r"pin_prob -0\.1 is outside"),
        (lambda manifest: manifest.update(target="nosuch"),
         r"unknown target 'nosuch'"),
        (lambda manifest: manifest.update(engine="afl"),
         r"unknown engine 'afl'"),
        (lambda manifest: manifest.pop("engine"), r"missing key 'engine'"),
        (lambda manifest: manifest.pop("target"), r"missing key 'target'"),
        (lambda manifest: manifest.pop("seed"), r"missing key 'seed'"),
        (lambda manifest: manifest.pop("config"), r"missing key 'config'"),
    ], ids=["policy", "semantic_batch", "semantic_ratio", "hang_budget",
            "max_trace_steps", "crack_enabled", "crack_enabled-int",
            "semantic_batch-float", "unknown-key", "budget_hours-str",
            "record_every-float", "pin_prob-bool", "sessions-int",
            "differential-str", "net-unknown-key", "net-str-int",
            "net-not-object", "net-timeout-negative", "net-url-no-port",
            "net-shared_state", "net-connect_timeout_ms",
            "record_every-0",
            "checkpoint_every-0", "budget_hours-0", "max_executions-negative",
            "channel_burst-negative", "channel_faults-above-1",
            "pin_prob-negative", "unknown-target", "unknown-engine",
            "no-engine", "no-target", "no-seed", "no-config"])
    def test_hostile_manifest_fails_loudly(self, tmp_path, edit, message):
        ws_dir = str(tmp_path / "ws")
        assert run_campaign("peach-star", get_target("libmodbus"), seed=7,
                            config=_config(workspace=ws_dir),
                            stop_after_executions=30) is None
        _rewrite_manifest(ws_dir, edit)
        with pytest.raises(WorkspaceError, match=message):
            resume_campaign(ws_dir)


class TestPendingRecipes:
    """The pending semantic queue checkpoints as splice recipes."""

    def _killed_with_pending(self, ws_dir):
        """A libmodbus Peach* workspace killed with recipes queued, both
        in the live engine and in the checkpoint resume rewinds to."""
        spec = get_target("libmodbus")
        config = _config(workspace=ws_dir)
        engine = make_engine("peach-star", spec, 7, config)
        assert run_campaign("peach-star", spec, seed=7, config=config,
                            engine=engine,
                            stop_after_executions=137) is None
        assert len(engine._pending) > 0
        state = _read_state(ws_dir)
        assert state["stats"]["executions"] < 137
        assert state["pending"]
        return state

    def test_kill_with_recipes_pending_resumes_bit_identical(
            self, tmp_path):
        full = run_campaign("peach-star", get_target("libmodbus"), seed=7,
                            config=_config(workspace=str(tmp_path / "full")))
        killed_dir = str(tmp_path / "killed")
        self._killed_with_pending(killed_dir)
        resumed = resume_campaign(killed_dir)
        assert _signature(resumed) == _signature(full)
        assert CampaignWorkspace(killed_dir).corpus_path_hashes() == \
            CampaignWorkspace(str(tmp_path / "full")).corpus_path_hashes()

    def test_recipes_checkpoint_as_model_assignments_seed(self, tmp_path):
        state = self._killed_with_pending(str(tmp_path / "ws"))
        for entry in state["pending"]:
            assert set(entry) == {"model", "assignments", "seed"}
            assert 0 <= entry["seed"] < 1 << 32

    @pytest.mark.parametrize("corrupt,message", [
        (lambda state: state.update(format=1),
         r"state format 1 is not supported \(expected 4\)"),
        (lambda state: state.update(format=5),
         r"state format 5 is not supported \(expected 4\)"),
        (lambda state: state["pending"][0].update(model="modbus.bogus"),
         r"unknown model 'modbus\.bogus'"),
        (lambda state: state["pending"][0].update(seed=1 << 32),
         r"seed 4294967296, not a 32-bit"),
        (lambda state: state["pending"][0].update(seed="12"),
         r"seed '12', not a 32-bit"),
        (lambda state: state["pending"][0].update(seed=1.5),
         r"seed 1\.5, not a 32-bit"),
        (lambda state: state["pending"][0]["assignments"].update(
            {"modbus.nowhere": 1}),
         r"assigns 'modbus\.nowhere', which is not a spliceable leaf"),
        (lambda state: state["pending"][0].pop("seed"),
         r"pending recipe 0 is malformed"),
        (lambda state: state.pop("pending"),
         r"pending queue is not a list"),
    ], ids=["format-1", "format-5", "unknown-model", "seed-too-wide",
            "seed-str", "seed-float", "stray-path", "missing-seed",
            "no-queue"])
    def test_hostile_state_fails_loudly(self, tmp_path, corrupt, message):
        ws_dir = str(tmp_path / "ws")
        state = self._killed_with_pending(ws_dir)
        corrupt(state)
        _write_state(ws_dir, state)
        with pytest.raises(WorkspaceError, match=message):
            resume_campaign(ws_dir)

    def test_undecodable_assignment_value_fails_loudly(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        state = self._killed_with_pending(ws_dir)
        entry = next(entry for entry in state["pending"]
                     if entry["assignments"])
        path = next(iter(entry["assignments"]))
        entry["assignments"][path] = {"b": "not hex"}
        _write_state(ws_dir, state)
        with pytest.raises(WorkspaceError, match="undecodable value"):
            resume_campaign(ws_dir)

    def test_format_1_manifest_fails_loudly(self, tmp_path):
        ws_dir = str(tmp_path / "ws")
        self._killed_with_pending(ws_dir)
        path = os.path.join(ws_dir, "config.json")
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["format"] = 1
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(WorkspaceError,
                           match=r"format 1 is not supported \(expected 4\)"):
            resume_campaign(ws_dir)


class TestDamagedRecords:
    """Resume finishes bit-identical or fails with WorkspaceError (the
    CLI: ``error: ...``, exit 2) — never a raw OSError, never a
    silently different campaign."""

    @staticmethod
    def _killed(ws_dir, stop_after):
        """libmodbus seed 7, killed: at 77 the checkpoint is at 50; at
        177 it is at 150 and keeps the crash found at execution 109."""
        assert run_campaign("peach-star", get_target("libmodbus"), seed=7,
                            config=_config(workspace=ws_dir),
                            stop_after_executions=stop_after) is None

    @staticmethod
    def _resume_exits_2(ws_dir, capsys, needle):
        capsys.readouterr()
        assert main(["resume", ws_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err

    @staticmethod
    def _drop_first_packet(ws_dir):
        """A seed line without its packet (the journal's missing blob)."""
        journal = os.path.join(ws_dir, "coverage.jsonl")
        _edit_first_line(journal, lambda line: line.pop("packet"))
        return f"{journal} line 1 is not a seed line (no 'packet')"

    @staticmethod
    def _delete_crash_blob(ws_dir):
        blob = sorted(glob.glob(os.path.join(ws_dir, "crashes", "*.bin")))[0]
        os.unlink(blob)
        return blob

    @pytest.mark.parametrize("damage,stop_after", [
        (_drop_first_packet, 77), (_delete_crash_blob, 177),
    ], ids=["seed-line-77", "crashes-177"])
    def test_missing_record_blob_fails_loudly(self, tmp_path, capsys,
                                              damage, stop_after):
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, stop_after)
        needle = damage.__func__(ws_dir)
        with pytest.raises(WorkspaceError, match=re.escape(needle)):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, needle)

    def test_seed_line_packet_not_hex_fails_loudly(self, tmp_path, capsys):
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, 77)
        journal = os.path.join(ws_dir, "coverage.jsonl")
        # same length: only the hex check can catch it
        _edit_first_line(journal, lambda line: line.update(
            packet="zz" + line["packet"][2:]))
        needle = f"{journal} line 1 holds a packet that is not hex"
        with pytest.raises(WorkspaceError, match=re.escape(needle)):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, needle)

    @pytest.mark.parametrize("name", ["coverage.jsonl", "series.jsonl"])
    def test_journal_shorter_than_committed_fails_loudly(self, tmp_path,
                                                         capsys, name):
        """A journal that lost committed lines names both lengths."""
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, 77)
        journal = os.path.join(ws_dir, name)
        committed = _read_state(ws_dir)["journals"][name]
        assert os.path.getsize(journal) == committed
        with open(journal, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(journal, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
        needle = (f"{journal} is {committed - len(lines[-1])} bytes, "
                  f"shorter than the {committed} bytes the checkpoint "
                  "committed")
        with pytest.raises(WorkspaceError, match=re.escape(needle)):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, needle)

    def test_checkpoint_naming_missing_crash_record_fails_loudly(
            self, tmp_path, capsys):
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, 177)
        [stem] = _read_state(ws_dir)["records"]["crashes"]
        record = os.path.join(ws_dir, "crashes", stem)
        os.unlink(record + ".json")
        os.unlink(record + ".bin")
        needle = f"the checkpoint names {record}.json, which is missing"
        with pytest.raises(WorkspaceError, match=re.escape(needle)):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, needle)

    @pytest.mark.parametrize("old_format", [2, 3], ids=["format-2",
                                                       "format-3"])
    def test_older_format_workspace_fails_loudly(self, tmp_path, capsys,
                                                 old_format):
        """Workspaces of the per-seed ``corpus/`` layout (format 2) and
        those whose records do not hold their blob lengths (format 3)
        are refused, never migrated."""
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, 77)
        _rewrite_manifest(ws_dir,
                          lambda manifest: manifest.update(format=old_format))
        state = _read_state(ws_dir)
        state["format"] = old_format
        _write_state(ws_dir, state)
        needle = (f"{os.path.join(ws_dir, 'config.json')}: workspace format "
                  f"{old_format} is not supported (expected 4)")
        with pytest.raises(WorkspaceError, match=re.escape(needle)):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, needle)

    @staticmethod
    def _truncate_blob(blob, length):
        """Cut a record blob to *length* bytes; the expected message."""
        size = os.path.getsize(blob)
        assert length < size
        with open(blob, "r+b") as handle:
            handle.truncate(length)
        return (f"record blob {blob} is {length} bytes but its record says "
                f"{size}")

    def test_emptied_crash_blob_fails_loudly(self, tmp_path, capsys):
        """An emptied ``crashes/<slug>.bin`` would resume with the
        unique crash's packet as ``b""``."""
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, 177)
        [stem] = _read_state(ws_dir)["records"]["crashes"]
        needle = self._truncate_blob(
            os.path.join(ws_dir, "crashes", stem + ".bin"), 0)
        with pytest.raises(WorkspaceError, match=re.escape(needle)):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, needle)

    def test_shortened_divergence_blob_fails_loudly(self, tmp_path, capsys):
        """A faulted iec104 campaign killed at 77: its checkpoint at 50
        names one divergence, whose frame is cut in half."""
        ws_dir = str(tmp_path / "ws")
        assert run_campaign("peach-star", get_target("iec104"), seed=7,
                            config=_config(workspace=ws_dir,
                                           channel_faults=0.25),
                            stop_after_executions=77) is None
        [stem] = _read_state(ws_dir)["records"]["divergences"]
        blob = os.path.join(ws_dir, "divergences", stem + ".bin")
        needle = self._truncate_blob(blob, os.path.getsize(blob) // 2)
        with pytest.raises(WorkspaceError, match=re.escape(needle)):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, needle)

    def test_emptied_inbox_blob_fails_loudly(self, tmp_path, capsys,
                                             monkeypatch):
        """A 2-shard fleet killed after its first sync phase staged the
        inboxes and before either shard absorbed them."""
        ws_dir = str(tmp_path / "fleet")

        def killed(*args):
            raise _SimulatedKill()

        with monkeypatch.context() as patch:
            patch.setattr(fleet_driver, "_absorb_imports", killed)
            with pytest.raises(_SimulatedKill):
                run_fleet("peach-star", get_target("libmodbus"),
                          workspace_dir=ws_dir, shards=2, seed=5,
                          sync_every=80, config=_config(), max_workers=1)
        blob = sorted(glob.glob(os.path.join(
            ws_dir, "shards", "000", "inbox", "round_001", "*.bin")))[0]
        needle = self._truncate_blob(blob, 0)
        with pytest.raises(WorkspaceError, match=re.escape(needle)):
            resume_fleet(ws_dir, max_workers=1)
        self._resume_exits_2(ws_dir, capsys, needle)

    def test_missing_inbox_blob_fails_loudly(self, tmp_path):
        workspace = CampaignWorkspace(str(tmp_path / "shard"))
        workspace.write_inbox_entry(1, 2, 30, b"\x01", {"src_shard": 2})
        blob = os.path.join(workspace.inbox_round_dir(1), "s002_0000030.bin")
        os.unlink(blob)
        [(_, [meta])] = workspace.load_inbox_rounds(0, 1)
        with pytest.raises(WorkspaceError, match=re.escape(blob)):
            workspace.read_blob(meta)

    def test_undecodable_line_before_the_last_fails_loudly(self, tmp_path,
                                                           capsys):
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, 77)
        journal = os.path.join(ws_dir, "coverage.jsonl")
        with open(journal, encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) > 2
        # cut in half, padded back to its length: the committed length
        # holds, so only the line check can catch it
        half = len(lines[0]) // 2
        lines[0] = lines[0][:half] + " " * (len(lines[0]) - half - 1) + "\n"
        with open(journal, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(WorkspaceError,
                           match="coverage.jsonl is corrupt: the line at "
                                 "byte 0 does not decode"):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, "coverage.jsonl is corrupt")

    def test_coverage_journal_missing_a_line_fails_loudly(self, tmp_path,
                                                          capsys):
        """A journal that lost a line before the checkpoint but kept its
        committed length (the next line padded with JSON whitespace)
        rebuilds fewer edges than the checkpoint recorded."""
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, 77)
        journal = os.path.join(ws_dir, "coverage.jsonl")
        with open(journal, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write(" " * len(lines[0]))
            handle.writelines(lines[1:])
        with pytest.raises(WorkspaceError,
                           match=r"coverage\.jsonl rebuilds \d+ edges but "
                                 r"the checkpoint recorded \d+"):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, "coverage.jsonl rebuilds")

    def test_edited_checkpoint_edge_count_fails_loudly(self, tmp_path,
                                                       capsys):
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, 77)
        state = _read_state(ws_dir)
        state["edges_seen"] += 1
        _write_state(ws_dir, state)
        recorded = f"the checkpoint recorded {state['edges_seen']}"
        with pytest.raises(WorkspaceError, match=recorded):
            resume_campaign(ws_dir)
        self._resume_exits_2(ws_dir, capsys, recorded)

    def test_readers_skip_lines_past_the_committed_length(self, tmp_path):
        """Whole lines an interrupted checkpoint appended are not part
        of the workspace until a checkpoint names them."""
        ws_dir = str(tmp_path / "ws")
        self._killed(ws_dir, 77)
        workspace = CampaignWorkspace(ws_dir)
        hashes = workspace.corpus_path_hashes()
        assert hashes
        journal = os.path.join(ws_dir, "coverage.jsonl")
        with open(journal, encoding="utf-8") as handle:
            first = handle.readline()
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(first)
        assert workspace.corpus_path_hashes() == hashes
        assert len(workspace.corpus_packets()) == len(hashes)

    @pytest.mark.parametrize("journal,tail", [
        ("coverage.jsonl", '{"exec": 999, "path_hash": 1, "ma'),
        ("coverage.jsonl", '{"exec": 999, "path_hash": 1, "ma\n'),
        ("series.jsonl", '{"exec": 99'),
    ], ids=["coverage-unterminated", "coverage-undecodable",
            "series-unterminated"])
    def test_torn_final_line_resumes_bit_identical(self, tmp_path, journal,
                                                   tail):
        """A SIGKILL landing mid-append tears the final journal line;
        it is past the checkpoint, so resume drops it and regenerates."""
        full_dir = str(tmp_path / "full")
        full = run_campaign("peach-star", get_target("libmodbus"), seed=7,
                            config=_config(workspace=full_dir))
        killed_dir = str(tmp_path / "killed")
        self._killed(killed_dir, 77)
        with open(os.path.join(killed_dir, journal), "a",
                  encoding="utf-8") as handle:
            handle.write(tail)
        assert _signature(resume_campaign(killed_dir)) == _signature(full)
        for name in ("coverage.jsonl", "series.jsonl"):
            with open(os.path.join(killed_dir, name), "rb") as resumed, \
                    open(os.path.join(full_dir, name), "rb") as clean:
                assert resumed.read() == clean.read()


def _edit_first_line(journal, edit):
    """Apply *edit* to the first line of a JSON-lines journal, padding
    a shorter line with JSON whitespace: the journal keeps its committed
    length, so the check under test, not the length check, catches it."""
    with open(journal, encoding="utf-8") as handle:
        lines = handle.readlines()
    line = json.loads(lines[0])
    edit(line)
    lines[0] = json.dumps(line).ljust(len(lines[0]) - 1) + "\n"
    with open(journal, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _rewrite_manifest(ws_dir, edit):
    path = os.path.join(ws_dir, "config.json")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    edit(manifest)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _read_state(ws_dir):
    with open(os.path.join(ws_dir, "state.json")) as handle:
        return json.load(handle)


def _write_state(ws_dir, state):
    with open(os.path.join(ws_dir, "state.json"), "w") as handle:
        json.dump(state, handle)


class TestAtomicWriteDurability:
    """The fsync contract of _atomic_write (crash-durability bugfix)."""

    def test_crash_before_replace_preserves_old_contents(
            self, tmp_path, monkeypatch):
        """Fault injection: die between the tmp write and os.replace.

        The file under the final name must still hold its previous
        contents — the half-written update only ever exists under the
        .tmp name.
        """
        import repro.store.workspace as ws_mod

        path = str(tmp_path / "state.json")
        ws_mod._atomic_write(path, "old\n")

        def crash_replace(src, dst):
            raise RuntimeError("simulated crash before rename")

        monkeypatch.setattr(ws_mod.os, "replace", crash_replace)
        with pytest.raises(RuntimeError):
            ws_mod._atomic_write(path, "new\n")
        monkeypatch.undo()
        with open(path) as handle:
            assert handle.read() == "old\n"
        # the interrupted attempt left only the tmp file; retrying
        # clobbers it and completes normally
        assert os.path.exists(path + ".tmp")
        ws_mod._atomic_write(path, "new\n")
        with open(path) as handle:
            assert handle.read() == "new\n"

    def test_fsync_file_then_replace_then_fsync_dir(
            self, tmp_path, monkeypatch):
        """The durability ordering: flush+fsync the tmp file BEFORE the
        rename, fsync the directory after — otherwise a power loss can
        leave an empty file despite the atomic replace."""
        import repro.store.workspace as ws_mod

        events = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def spy_replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(ws_mod.os, "fsync", spy_fsync)
        monkeypatch.setattr(ws_mod.os, "replace", spy_replace)
        ws_mod._atomic_write(str(tmp_path / "state.json"), "payload\n")
        assert events == ["fsync", "replace", "fsync"]
