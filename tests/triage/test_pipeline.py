"""End-to-end triage: pipeline, reproducer export, summary table, CLI."""

import glob
import os
import subprocess
import sys

import pytest

from repro.analysis import render_triage_table
from repro.triage import reproducer_script, triage_reports


class TestTriagePipeline:
    def test_full_pass_minimizes_and_exports(self, tmp_path,
                                             lib60870_crashes):
        spec, crashes = lib60870_crashes
        out_dir = str(tmp_path / "repro")
        report = triage_reports(spec, crashes, out_dir=out_dir)
        assert report.target_name == "lib60870"
        assert len(report.crashes) == len(crashes)
        assert report.minimized_count >= 1
        for crash in report.crashes:
            assert os.path.exists(crash.packet_path)
            assert os.path.exists(crash.script_path)
            with open(crash.packet_path, "rb") as handle:
                assert handle.read() == crash.final_packet

    @pytest.mark.parametrize("findings", ["lib60870_crashes",
                                          "iec104_fault_findings"])
    def test_pooled_minimization_matches_serial(self, request, findings):
        """The process-pool fan-out (jobs>1) is a wall-clock knob only:
        every finding gets its own checker in both passes, so pooled
        results and execution counts are bit-identical to the serial
        pass."""
        spec, crashes = request.getfixturevalue(findings)
        serial = triage_reports(spec, crashes, jobs=1)
        pooled = triage_reports(spec, crashes, jobs=2)

        def signature(report):
            return [(crash.bucket.slug(),
                     crash.minimization.confirmed,
                     crash.minimization.minimized,
                     crash.minimization.dedup_key)
                    for crash in report.crashes]

        assert signature(serial) == signature(pooled)
        assert pooled.executions_spent == serial.executions_spent

    def test_table_renders_severity_and_sizes(self, lib60870_crashes):
        spec, crashes = lib60870_crashes
        report = triage_reports(spec, crashes, minimize=False)
        table = render_triage_table(report)
        assert "CRASH TRIAGE: lib60870" in table
        for crash in report.crashes:
            assert crash.bucket.site in table
            assert crash.bucket.severity in table

    def test_reproducer_script_replays_the_crash(self, tmp_path,
                                                 lib60870_crashes):
        spec, crashes = lib60870_crashes
        out_dir = str(tmp_path / "repro")
        triage_reports(spec, crashes[:1], out_dir=out_dir)
        script = glob.glob(os.path.join(out_dir, "*.py"))[0]
        src_root = os.path.join(os.path.dirname(__file__), "..", "..",
                                "src")
        env = dict(os.environ,
                   PYTHONPATH=os.path.abspath(src_root))
        proc = subprocess.run([sys.executable, script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "SUMMARY: AddressSanitizer:" in proc.stdout

    def test_script_embeds_signature_and_packet(self, lib60870_crashes):
        spec, crashes = lib60870_crashes
        report = crashes[0]
        script = reproducer_script(spec.name, report)
        assert report.kind in script
        assert report.site in script
        assert report.packet.hex()[:32] in script.replace('"\n    "', "")


class TestTriageCli:
    def test_triage_workspace_flow(self, tmp_path, capsys):
        from repro.cli import main

        ws_dir = str(tmp_path / "ws")
        assert main(["fuzz", "lib60870", "--hours", "24", "--seed", "7",
                     "--workspace", ws_dir]) == 0
        assert main(["triage", "--workspace", ws_dir]) == 0
        out = capsys.readouterr().out
        assert "CRASH TRIAGE: lib60870" in out
        assert "reproducers exported to" in out
        assert glob.glob(os.path.join(ws_dir, "repro", "*.py"))

    def test_triage_requires_target_or_workspace(self, capsys):
        from repro.cli import main
        assert main(["triage"]) == 2

    def test_resume_cli_continues_workspace(self, tmp_path, capsys):
        from repro.cli import main

        ws_dir = str(tmp_path / "ws")
        assert main(["fuzz", "iec104", "--hours", "2", "--max-execs",
                     "120", "--workspace", ws_dir]) == 0
        assert main(["resume", ws_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("engine=peach-star target=iec104") == 2

    def test_resume_cli_rejects_non_workspace(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["resume", str(tmp_path)]) == 2
