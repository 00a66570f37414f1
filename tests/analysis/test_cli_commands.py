"""CLI tests for the heavier sub-commands (tiny budgets)."""

from repro.cli import build_parser, main


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
        import pytest
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "iec104", "--engine", "afl"])

    def test_retired_knobs_are_unrecognised(self, capsys):
        import pytest
        for knob in (["--batch", "4"], ["--coverage-impl", "sparse"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fuzz", "iec104", *knob])
            assert "unrecognized arguments" in capsys.readouterr().err


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
