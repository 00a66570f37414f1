"""CLI tests for the heavier sub-commands (tiny budgets)."""

import json
import os
import socket

import pytest

from repro.analysis import run_fig4_panel, run_headline, run_table1_row
from repro.cli import build_parser, main
from repro.protocols import get_target


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["targets"])
        assert args.command == "targets"
        for command in (["fuzz", "iec104"], ["compare", "iec104"],
                        ["crack", "iec104", "00"],
                        ["table1"]):
            assert build_parser().parse_args(command).command == command[0]

    def test_engine_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "iec104", "--engine", "afl"])

    def test_retired_knobs_are_unrecognised(self, capsys):
        for knob in (["--batch", "4"], ["--coverage-impl", "sparse"],
                     ["--backend", "settrace"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fuzz", "iec104", *knob])
            assert "unrecognized arguments" in capsys.readouterr().err


class TestResumeCommand:
    @pytest.mark.parametrize("edit,key", [
        (lambda m: m["config"].update(record_every=0), "record_every"),
        (lambda m: m["config"].update(budget_hours="abc"), "budget_hours"),
        (lambda m: m["config"].update(channel_burst=-1), "channel burst"),
        (lambda m: m["config"].update(future_knob=7), "future_knob"),
        (lambda m: m.update(target="nosuch"), "nosuch"),
    ], ids=["record_every-0", "budget_hours-str", "channel_burst-negative",
            "unknown-key", "unknown-target"])
    def test_corrupt_manifest_exits_2(self, tmp_path, capsys, edit, key):
        ws_dir = str(tmp_path / "ws")
        assert main(["fuzz", "iec104", "--engine", "peach",
                     "--max-execs", "20", "--workspace", ws_dir]) == 0
        path = os.path.join(ws_dir, "config.json")
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        edit(manifest)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        capsys.readouterr()
        assert main(["resume", ws_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err


class TestNetEndpointErrors:
    def test_unreachable_endpoint_exits_2(self, capsys):
        # bind a port, then close it: nothing listens there any more
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["fuzz", "iec104",
                     "--target-url", f"tcp://127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot connect" in err

    @pytest.mark.parametrize("url", ["garbage", "tcp://nohost"])
    def test_triage_malformed_net_url_exits_2(self, tmp_path, capsys, url):
        """The endpoint the exported scripts replay against is checked
        before any campaign runs, so no script is written."""
        out_dir = tmp_path / "repro"
        assert main(["triage", "libmodbus", "--seed", "7", "--net-url", url,
                     "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and url in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_out_of_range_timeout_exits_2(self, capsys):
        assert main(["fuzz", "iec104", "--target-url", "loopback",
                     "--net-framing", "raw", "--timeout-ms", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "timeout_ms" in err


class TestCoverageBackendErrors:
    """A coverage backend this interpreter cannot serve is reported as
    ``error:`` (exit 2) before any campaign runs."""

    @pytest.fixture
    def no_pep669(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.instrument._MONITORING", None)

    @pytest.mark.parametrize("backend,message", [
        ("monitoring", "sys.monitoring"),
        ("bogus", "unknown coverage backend 'bogus'"),
    ], ids=["monitoring-without-pep669", "unknown-name"])
    def test_fuzz_exits_2(self, monkeypatch, capsys, no_pep669, backend,
                          message):
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
        assert main(["fuzz", "libmodbus", "--hours", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    def test_resume_exits_2(self, tmp_path, monkeypatch, capsys, no_pep669):
        ws_dir = str(tmp_path / "ws")
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "settrace")
        assert main(["fuzz", "libmodbus", "--max-execs", "20",
                     "--workspace", ws_dir]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "monitoring")
        assert main(["resume", ws_dir]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "sys.monitoring" in captured.err and captured.out == ""

    def test_triage_exits_2(self, tmp_path, monkeypatch, capsys, no_pep669):
        """Minimizing a persisted crash builds a collector of its own."""
        ws_dir = str(tmp_path / "ws")
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "settrace")
        assert main(["fuzz", "libiccp", "--max-execs", "300", "--seed",
                     "11", "--workspace", ws_dir]) == 0
        assert os.listdir(os.path.join(ws_dir, "crashes"))
        capsys.readouterr()
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "monitoring")
        out_dir = tmp_path / "repro"
        assert main(["triage", "--workspace", ws_dir,
                     "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "sys.monitoring" in captured.err and captured.out == ""
        assert not out_dir.exists()


class TestSweepArgumentErrors:
    @pytest.mark.parametrize("argv,message", [
        (["compare", "libmodbus", "--hours", "0"], "budget_hours"),
        (["table1", "--hours", "-1"], "budget_hours"),
        (["compare", "libmodbus", "--repetitions", "0"], "repetitions 0"),
        (["table1", "--repetitions", "0"], "repetitions 0"),
    ], ids=["compare-hours-0", "table1-hours-negative",
            "compare-repetitions-0", "table1-repetitions-0"])
    def test_bad_sweep_argument_exits_2(self, capsys, argv, message):
        assert main([*argv, "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("run", [
        lambda: run_fig4_panel(get_target("iec104"), repetitions=0),
        lambda: run_table1_row("libmodbus", repetitions=0),
        lambda: run_headline(repetitions=0),
    ], ids=["fig4", "table1", "headline"])
    def test_sweeps_refuse_zero_repetitions(self, run):
        with pytest.raises(ValueError, match="repetitions 0 < 1"):
            run()


class TestCompareCommand:
    def test_compare_prints_panel(self, capsys):
        assert main(["compare", "iec104", "--repetitions", "1",
                     "--hours", "1", "--max-execs", "80"]) == 0
        out = capsys.readouterr().out
        assert "paths covered on iec104" in out
        assert "final paths" in out


class TestFuzzVerbose:
    def test_verbose_prints_reports_when_crashing(self, capsys):
        assert main(["fuzz", "libiccp", "--engine", "peach-star",
                     "--hours", "24", "--max-execs", "500",
                     "--verbose", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "unique crashes:" in out
