"""Command-line interface: ``peachstar`` (or ``python -m repro.cli``).

Sub-commands:

* ``targets`` — list the six protocol targets and their seeded bugs
* ``serve``   — expose a simulated protocol server on a TCP port
  (``--port``, ``--shared-state``, ``--framing peachstar|raw``)
* ``fuzz``    — run one campaign (``--engine peach|peach-star``);
  ``--workspace DIR`` persists it so it can be resumed; ``--target-url
  loopback|tcp://host:port`` fuzzes over a real socket
* ``fleet``   — run N synced shards of one campaign with periodic
  cross-shard corpus exchange (``--shards``, ``--sync-every``)
* ``resume``  — continue a killed (or finished) persisted campaign or
  fleet (detected from the workspace layout)
* ``triage``  — minimize, bucket and export reproducers for crashes
  (from a fresh campaign or a persisted workspace)
* ``compare`` — Peach vs Peach* on one target, with the ASCII Fig. 4 panel
* ``crack``   — crack a packet (hex) against a target's pit and print the
  InsTree + puzzles, demonstrating paper Alg. 2
* ``table1``  — reproduce the paper's Table I on the bug-carrying targets
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import (
    render_fleet_table, render_panel_report, render_table1,
    render_triage_table, run_fig4_panel, run_table1_row,
)
from repro.analysis.tables import BUGGY_TARGETS
from repro.core import (
    CampaignConfig, PuzzleCorpus, resume_campaign, resume_fleet,
    run_campaign, run_fleet,
)
from repro.core.cracker import FileCracker
from repro.model.fields import ParseError
from repro.net.config import NetConfig
from repro.net.target import NetTargetError
from repro.protocols import all_targets, get_target
from repro.store import CampaignWorkspace, WorkspaceError, is_fleet_workspace
from repro.triage import triage_reports


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hours", type=float, default=24.0,
                        help="simulated budget in hours (default 24)")
    parser.add_argument("--max-execs", type=int, default=200_000,
                        help="hard execution bound")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign RNG seed")


def _add_sessions_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sessions", action="store_true",
                        help="session mode: fuzz multi-packet traces over "
                             "the target's hand-written state model (all "
                             "six targets ship one)")
    parser.add_argument("--learn-states", action="store_true",
                        help="session mode over an AFLNet-style state "
                             "machine learned online from response "
                             "features — needs no hand-written state "
                             "model, works on every target")


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for campaign fan-out "
                             "(default: REPRO_JOBS or cores-1; 1 = serial)")


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channel-faults", type=float, default=0.0,
                        metavar="RATE", dest="channel_faults",
                        help="per-frame transport fault probability "
                             "(drop/duplicate/reorder/fragment/corrupt "
                             "in flight; 0 = perfect channel). Also "
                             "enables the differential parse oracles")
    parser.add_argument("--channel-faults-burst", type=int, default=0,
                        metavar="N", dest="channel_burst",
                        help="add a burst-loss fault kind to the menu: a "
                             "run of 2..N consecutive frames vanishes "
                             "(needs --channel-faults > 0; 0 = off)")
    parser.add_argument("--differential", action="store_true",
                        default=None,
                        help="force the differential parse oracles on, "
                             "even without channel faults (default: "
                             "enabled exactly when --channel-faults > 0)")
    parser.add_argument("--steer-divergence", action="store_true",
                        dest="steer_divergence",
                        help="divergence-aware seed scoring: a coverage-"
                             "stale input hitting a first-seen parse-"
                             "divergence site still enters the corpus "
                             "(implies the differential oracles)")


def _add_net_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--target-url", default=None, metavar="URL",
                        dest="target_url",
                        help="fuzz over a real TCP socket: 'loopback' "
                             "serves the target in-process on an "
                             "ephemeral port (full coverage feedback), "
                             "'tcp://host:port' drives a live endpoint "
                             "black-box")
    parser.add_argument("--net-framing", default="peachstar",
                        choices=("peachstar", "raw"), dest="net_framing",
                        help="wire dialect for --target-url: the "
                             "harness envelope (exact in-process parity) "
                             "or the protocol's own raw stream framing")
    parser.add_argument("--timeout-ms", type=float, default=1000.0,
                        dest="timeout_ms",
                        help="wall-clock wait for one response over a "
                             "socket before treating it as silence")
    parser.add_argument("--reconnect", type=int, default=1,
                        help="reconnect attempts when a socket endpoint "
                             "drops the connection mid-session")
    parser.add_argument("--concurrency", type=int, default=1, metavar="N",
                        help="interleave N sessions round-robin over one "
                             "event loop against a shared-state server "
                             "(session mode only; implies --target-url "
                             "loopback when none is given)")


def _net_config(args):
    """The NetConfig implied by the net args, or None (in-process path)."""
    url = getattr(args, "target_url", None)
    concurrency = getattr(args, "concurrency", 1)
    if url is None and concurrency <= 1:
        return None
    return NetConfig(url=url if url is not None else "loopback",
                     framing=getattr(args, "net_framing", "peachstar"),
                     timeout_ms=getattr(args, "timeout_ms", 1000.0),
                     reconnect=getattr(args, "reconnect", 1),
                     concurrency=concurrency)


def _config(args) -> CampaignConfig:
    return CampaignConfig(budget_hours=args.hours,
                          max_executions=args.max_execs,
                          sessions=getattr(args, "sessions", False),
                          learn_states=getattr(args, "learn_states", False),
                          channel_faults=getattr(args, "channel_faults", 0.0),
                          channel_burst=getattr(args, "channel_burst", 0),
                          differential=getattr(args, "differential", None),
                          steer_divergence=getattr(args, "steer_divergence",
                                                   False),
                          net=_net_config(args),
                          workspace=getattr(args, "workspace", None))


def _print_campaign_summary(result, verbose: bool = False) -> None:
    print(f"engine={result.engine_name} target={result.target_name}")
    print(f"executions={result.executions} "
          f"paths={result.final_paths} edges={result.final_edges}")
    learned = result.stats.get("learned_states", 0)
    if learned:
        print(f"learned states: {learned} "
              f"(traces: {result.stats.get('traces', 0)})")
    print(f"unique crashes: {len(result.unique_crashes)}")
    for report in result.unique_crashes:
        hours = result.crash_times.get(report.dedup_key, 0.0)
        print(f"  [{hours:5.1f}h] {report.summary_line()}")
    if result.unique_divergences:
        faults = result.stats.get("channel_faults", 0)
        suffix = f" (channel faults injected: {faults})" if faults else ""
        print(f"unique divergences: "
              f"{len(result.unique_divergences)}{suffix}")
        for report in result.unique_divergences:
            print(f"  {report.summary_line()}")
    if verbose and result.unique_crashes:
        print()
        for report in result.unique_crashes:
            print(report.render())
            print()
    if verbose and result.unique_divergences:
        print()
        for report in result.unique_divergences:
            print(report.render())
            print()


def cmd_targets(_args) -> int:
    print(f"{'name':<13} {'paper project':<16} {'bugs':>4} "
          f"{'sessions':>8}  description")
    for spec in all_targets():
        sessions = "yes" if spec.supports_sessions else "-"
        print(f"{spec.name:<13} {spec.paper_project:<16} "
              f"{spec.seeded_bug_count:>4} {sessions:>8}  "
              f"{spec.description}")
    return 0


def cmd_serve(args) -> int:
    spec = get_target(args.target)
    from repro.net.serve import serve_forever
    try:
        serve_forever(spec, args.host, args.port,
                      shared_state=args.shared_state, framing=args.framing)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 2
    return 0


def cmd_fuzz(args) -> int:
    spec = get_target(args.target)
    try:
        result = run_campaign(args.engine, spec, seed=args.seed,
                              config=_config(args))
    except (WorkspaceError, NetTargetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_campaign_summary(result, args.verbose)
    if args.workspace:
        print(f"workspace persisted to {args.workspace} "
              "(continue with `peachstar resume`, analyse with "
              "`peachstar triage --workspace`)")
    return 0


def cmd_fleet(args) -> int:
    spec = get_target(args.target)
    try:
        fleet = run_fleet(args.engine, spec, shards=args.shards,
                          workspace_dir=args.workspace, seed=args.seed,
                          sync_every=args.sync_every, config=_config(args),
                          max_workers=args.jobs)
    except (WorkspaceError, NetTargetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_fleet_table(fleet))
    if args.verbose:
        for report in (fleet.merged_crashes.unique_reports()
                       + fleet.merged_divergences.unique_reports()):
            print()
            print(report.render())
    print(f"fleet persisted to {args.workspace} "
          "(continue with `peachstar resume`)")
    return 0


def cmd_resume(args) -> int:
    try:
        if is_fleet_workspace(args.workspace):
            fleet = resume_fleet(args.workspace, max_workers=args.jobs)
            print(render_fleet_table(fleet))
            if args.verbose:
                for report in (fleet.merged_crashes.unique_reports()
                               + fleet.merged_divergences.unique_reports()):
                    print()
                    print(report.render())
            return 0
        result = resume_campaign(args.workspace)
    except (WorkspaceError, NetTargetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_campaign_summary(result, args.verbose)
    return 0


def cmd_triage(args) -> int:
    try:
        if args.net_url is not None:
            # before any campaign runs: the exported scripts replay there
            NetConfig(url=args.net_url).validate()
        if args.workspace:
            workspace = CampaignWorkspace(args.workspace)
            manifest = workspace.load_manifest()
            spec = get_target(manifest["target"])
            if args.target and args.target != spec.name:
                print(f"error: workspace belongs to {spec.name!r}, "
                      f"not {args.target!r}", file=sys.stderr)
                return 2
            crashes = workspace.load_crash_reports()
            out_dir = args.out or workspace.repro_dir
        else:
            if not args.target:
                print("error: give a target name or --workspace DIR",
                      file=sys.stderr)
                return 2
            spec = get_target(args.target)
            result = run_campaign("peach-star", spec, seed=args.seed,
                                  config=_config(args))
            crashes = result.unique_crashes + result.unique_divergences
            out_dir = args.out or f"peachstar-triage-{spec.name}"
    except (WorkspaceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not crashes:
        print(f"no findings to triage on {spec.name}")
        return 0
    try:
        report = triage_reports(
            spec, crashes, minimize=not args.no_minimize,
            max_executions_per_crash=args.max_triage_execs,
            out_dir=out_dir, jobs=args.jobs, net_url=args.net_url)
    except ValueError as exc:  # e.g. a coverage backend it cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_triage_table(report))
    if args.verbose:
        for crash in report.crashes:
            print()
            print(crash.final_report.render())
    return 0


def cmd_compare(args) -> int:
    spec = get_target(args.target)
    try:
        panel = run_fig4_panel(spec, repetitions=args.repetitions,
                               budget_hours=args.hours, base_seed=args.seed,
                               config=_config(args), jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_panel_report(panel))
    return 0


def cmd_crack(args) -> int:
    spec = get_target(args.target)
    try:
        packet = bytes.fromhex(args.hex)
    except ValueError:
        print(f"error: {args.hex!r} is not valid hex", file=sys.stderr)
        return 2
    pit = spec.make_pit()
    corpus = PuzzleCorpus()
    cracker = FileCracker(pit, corpus)
    matched = False
    for model in pit:
        try:
            tree = model.parse(packet)
        except ParseError:
            continue
        matched = True
        print(tree.pretty())
        print()
    if not matched:
        print("packet is not legal under any data model of "
              f"{spec.name}'s pit")
        return 1
    new_puzzles = cracker.crack(packet)
    print(f"cracked into {new_puzzles} puzzles across "
          f"{corpus.rule_count()} construction rules")
    return 0


def cmd_table1(args) -> int:
    try:
        rows = [run_table1_row(name, repetitions=args.repetitions,
                               budget_hours=args.hours, base_seed=args.seed,
                               config=_config(args), jobs=args.jobs)
                for name in BUGGY_TARGETS]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_table1(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peachstar",
        description="Peach*: coverage-guided ICS protocol fuzzing "
                    "(DAC 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("targets", help="list protocol targets")

    serve = sub.add_parser(
        "serve", help="expose a simulated protocol server on a TCP port")
    serve.add_argument("target", help="target name (see `targets`)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=2404,
                       help="bind port (0 = ephemeral; default 2404)")
    serve.add_argument("--shared-state", action="store_true",
                       dest="shared_state",
                       help="all connections race one server instance "
                            "and one heap instead of getting a private "
                            "session each")
    serve.add_argument("--framing", default="peachstar",
                       choices=("peachstar", "raw"),
                       help="wire dialect: the harness envelope (what a "
                            "SocketTarget speaks) or the protocol's own "
                            "raw stream framing")

    fuzz = sub.add_parser("fuzz", help="run one fuzzing campaign")
    fuzz.add_argument("target", help="target name (see `targets`)")
    fuzz.add_argument("--engine", default="peach-star",
                      choices=("peach", "peach-star"))
    fuzz.add_argument("--verbose", action="store_true",
                      help="print full crash reports")
    fuzz.add_argument("--workspace", default=None, metavar="DIR",
                      help="persist the campaign to DIR (resumable)")
    _add_sessions_arg(fuzz)
    _add_channel_args(fuzz)
    _add_net_args(fuzz)
    _add_budget_args(fuzz)

    fleet = sub.add_parser(
        "fleet", help="run N synced shards with corpus exchange")
    fleet.add_argument("target", help="target name (see `targets`)")
    fleet.add_argument("--engine", default="peach-star",
                       choices=("peach", "peach-star"))
    fleet.add_argument("--shards", type=int, default=4,
                       help="number of independently-seeded shards")
    fleet.add_argument("--sync-every", type=int, default=200,
                       help="executions between corpus-sync rounds")
    fleet.add_argument("--workspace", required=True, metavar="DIR",
                       help="fleet workspace directory (resumable)")
    fleet.add_argument("--verbose", action="store_true",
                       help="print full crash reports")
    _add_sessions_arg(fleet)
    _add_channel_args(fleet)
    _add_net_args(fleet)
    _add_budget_args(fleet)
    _add_jobs_arg(fleet)

    resume = sub.add_parser(
        "resume", help="continue a persisted campaign or fleet from "
                       "its checkpoints")
    resume.add_argument("workspace", help="campaign or fleet workspace "
                                          "directory")
    resume.add_argument("--verbose", action="store_true",
                        help="print full crash reports")
    _add_jobs_arg(resume)

    triage = sub.add_parser(
        "triage", help="minimize, bucket and export crash reproducers")
    triage.add_argument("target", nargs="?", default=None,
                        help="target to fuzz + triage (omit with "
                             "--workspace)")
    triage.add_argument("--workspace", default=None, metavar="DIR",
                        help="triage the crashes persisted in DIR instead "
                             "of running a fresh campaign")
    triage.add_argument("--out", default=None, metavar="DIR",
                        help="reproducer output directory (default: "
                             "<workspace>/repro or ./peachstar-triage-"
                             "<target>)")
    triage.add_argument("--no-minimize", action="store_true",
                        help="skip test-case minimization")
    triage.add_argument("--max-triage-execs", type=int, default=3000,
                        help="sanitizer-execution budget per crash")
    triage.add_argument("--verbose", action="store_true",
                        help="print the (minimized) crash reports")
    triage.add_argument("--net-url", default=None, metavar="URL",
                        dest="net_url",
                        help="emit reproducer scripts that replay over a "
                             "socket against URL (tcp://host:port; the "
                             "script's argv can override the endpoint)")
    _add_sessions_arg(triage)
    _add_channel_args(triage)
    _add_budget_args(triage)
    _add_jobs_arg(triage)

    comp = sub.add_parser("compare", help="Peach vs Peach* on one target")
    comp.add_argument("target")
    comp.add_argument("--repetitions", type=int, default=2)
    _add_budget_args(comp)
    _add_jobs_arg(comp)

    crack = sub.add_parser("crack", help="crack a hex packet into puzzles")
    crack.add_argument("target")
    crack.add_argument("hex", help="packet bytes as hex")

    table1 = sub.add_parser("table1", help="reproduce the paper's Table I")
    table1.add_argument("--repetitions", type=int, default=2)
    _add_budget_args(table1)
    _add_jobs_arg(table1)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "targets": cmd_targets,
        "serve": cmd_serve,
        "fuzz": cmd_fuzz,
        "fleet": cmd_fleet,
        "resume": cmd_resume,
        "triage": cmd_triage,
        "compare": cmd_compare,
        "crack": cmd_crack,
        "table1": cmd_table1,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
