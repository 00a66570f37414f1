"""Campaign driver: run an engine against a target under a time budget.

Reproduces the paper's experimental procedure (§V-B): each fuzzer runs
against each project for a 24-hour budget, repeated N times, recording
the number of paths covered over time.  Time is the simulated clock of
:mod:`repro.runtime.clock`; both engines are measured with the same
path-coverage framework (a tracing collector on the target), exactly as
the paper instruments both Peach and Peach* for measurement.
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import (
    Callable, Dict, List, Optional, Sequence, Tuple, Union, get_args,
    get_origin, get_type_hints,
)

from repro.core.engine import GenerationFuzzer, PeachStar
from repro.model.mutators import GenerationPolicy
from repro.net.config import NetConfig
from repro.runtime.clock import SimulatedClock
from repro.runtime.instrument import HANG_BUDGET, make_line_collector
from repro.runtime.target import Target
from repro.sanitizer.report import CrashReport
from repro.store.workspace import (
    CampaignWorkspace, WorkspaceError, bucketed_hits,
)

#: iterations per ``GenerationFuzzer.iterate_batch`` call in the driver
#: loop; any value gives the same campaign (pinned in tests/core)
BATCH_SIZE = 16


@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    engine_name: str
    target_name: str
    seed: int
    series: List[Tuple[float, int]]          # (sim hours, paths covered)
    final_paths: int
    final_edges: int
    executions: int
    unique_crashes: List[CrashReport]
    crash_times: Dict[Tuple[str, str], float]  # dedup key -> sim hours
    stats: dict
    #: per-valuable-seed bucketed path identities, discovery order (used
    #: by the resume-determinism gate and the triage/analysis layers)
    path_hashes: Tuple[int, ...] = ()
    #: deduplicated differential-oracle findings (empty unless the
    #: campaign ran with an oracle attached)
    unique_divergences: List[CrashReport] = field(default_factory=list)

    def paths_at(self, hours: float) -> int:
        """Paths covered at simulated time *hours* (step interpolation)."""
        best = 0
        for when, paths in self.series:
            if when > hours:
                break
            best = paths
        return best

    def time_to_paths(self, paths: int) -> Optional[float]:
        """Simulated hours until *paths* paths were covered, or None."""
        for when, count in self.series:
            if count >= paths:
                return when
        return None


def default_campaign_policy() -> GenerationPolicy:
    """The generation policy used throughout the evaluation.

    Weaker priors than the unit-test default: valid values mostly have to
    be *discovered*, which is exactly the regime the paper targets ("the
    random and pointless generation strategy makes it less likely to
    produce high-quality inputs", §I).
    """
    return GenerationPolicy(default_prob=0.15, legal_value_prob=0.10,
                            edge_case_prob=0.15)


@dataclass
class CampaignConfig:
    """Knobs of one campaign run.

    Generation tuning (the campaign policy, the semantic batch and
    ratio, the session walk bound) and the hang budget are fixed by the
    engines and collectors, as in the paper's one evaluation setup.
    """

    budget_hours: float = 24.0
    max_executions: int = 200_000           # hard safety bound
    record_every: int = 25                  # sample the series every N execs
    pin_prob: float = 0.5
    semantic_enabled: bool = True
    #: session mode: fuzz multi-packet traces over the target's state
    #: model (requires a target with one; see `peachstar fuzz --sessions`).
    #: ``executions`` then counts trace *steps*, so budgets stay
    #: comparable with single-packet campaigns.
    sessions: bool = False
    #: state learning: session mode over an AFLNet-style automaton
    #: inferred online from response features instead of a hand-written
    #: state model — works on *every* target, modelled or not (see
    #: `peachstar fuzz --learn-states`).  Implies session semantics.
    learn_states: bool = False
    #: per-frame transport fault probability (0 = no channel at all —
    #: today's bit-exact path).  The fault RNG is derived from the
    #: campaign seed and checkpointed, so faulted campaigns keep
    #: kill-and-resume bit-identity.
    channel_faults: float = 0.0
    #: burst-loss fault mode (``--channel-faults-burst N``): the fault
    #: menu gains a "burst" entry that drops a run of 2..N consecutive
    #: frames.  0 disables it and keeps the selection-roll space (and
    #: therefore existing seeded campaigns) bit-identical.  Needs
    #: channel_faults > 0 — the burst is one of the channel's faults.
    channel_burst: int = 0
    #: differential parse oracles (strict-vs-lenient + cross-stack):
    #: None = auto, enabled exactly when channel_faults > 0 or
    #: steer_divergence is set; True/False force it on clean or faulted
    #: campaigns respectively
    differential: Optional[bool] = None
    #: divergence-aware seed scoring (``--steer-divergence``): a
    #: coverage-stale execution that hits a first-seen parse-divergence
    #: site still enters the seed corpus (implies the oracle)
    steer_divergence: bool = False
    #: live-network transport (``--target tcp://host:port`` /
    #: ``--concurrency``): None keeps the in-process path bit-identical;
    #: a NetConfig rides into the workspace manifest so a killed socket
    #: campaign resumes with the transport it started with
    net: Optional[NetConfig] = None
    #: directory to persist the campaign into (None = in-memory only).
    #: One workspace per campaign: batch tasks must not share one.
    workspace: Optional[str] = None
    #: checkpoint the full engine state every N executions
    checkpoint_every: int = 200


def config_to_dict(config: CampaignConfig) -> dict:
    """JSON-safe snapshot of a campaign config (workspace manifests)."""
    return asdict(config)


#: a retired key whose every value gives the same campaign
_ANY_VALUE = object()


def _retired_keys() -> Dict[type, Dict[str, object]]:
    """Keys older manifests carry that a config dataclass no longer has.

    Per dataclass, each maps to the one value every campaign this
    version reproduces ran with, read from the constants the engines
    and collectors use.
    """
    from repro.net.target import SocketTarget  # late: layering
    from repro.state.engine import SessionFuzzer
    return {
        CampaignConfig: {
            "policy": asdict(default_campaign_policy()),
            "semantic_batch": PeachStar.SEMANTIC_BATCH,
            "semantic_ratio": PeachStar.SEMANTIC_RATIO,
            "hang_budget": HANG_BUDGET,
            "max_trace_steps": SessionFuzzer.MAX_TRACE_STEPS,
            "crack_enabled": True,
            # campaign-neutral: parity-pinned backends, any batch size
            # and the retired vector coverage maps give the same
            # campaign
            "coverage_backend": _ANY_VALUE,
            "batch_size": _ANY_VALUE,
            "coverage_impl": _ANY_VALUE,
        },
        NetConfig: {
            # loopback serving shares one server exactly when
            # concurrency > 1
            "shared_state": False,
            "connect_timeout_ms": SocketTarget.CONNECT_TIMEOUT_MS,
        },
    }


def _fits_json_type(value, hint) -> bool:
    """Whether a decoded JSON *value* has the type a field declares.

    Numbers fit float fields, only integers fit int fields, and a
    boolean is never a number.
    """
    if type(value) is bool:
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _decode_fields(cls, blob, where: str,
                   retired: Dict[type, Dict[str, object]]):
    """Build dataclass *cls* from a manifest object, refusing anything
    this version would not resume into the same campaign."""
    if not isinstance(blob, dict):
        raise WorkspaceError(f"{where} is {blob!r}, not a JSON object; "
                             "workspace is corrupt")
    hints = get_type_hints(cls)
    retired_here = retired.get(cls, {})
    kwargs = {}
    for key, value in blob.items():
        if key in retired_here:
            pinned = retired_here[key]
            if pinned is not _ANY_VALUE and \
                    json.dumps(value, sort_keys=True) != \
                    json.dumps(pinned, sort_keys=True):
                raise WorkspaceError(
                    f"{where} key {key!r} is {value!r}, but this version "
                    f"only reproduces campaigns run with {pinned!r} (the "
                    "knob was retired)")
            continue
        hint = hints.get(key)
        if hint is None:
            raise WorkspaceError(
                f"{where} has unknown key {key!r} (value {value!r}); "
                "workspace is corrupt or from a newer version")
        if get_origin(hint) is Union:  # Optional[X]
            if value is None:
                kwargs[key] = None
                continue
            hint = get_args(hint)[0]
        if is_dataclass(hint):
            kwargs[key] = _decode_fields(hint, value, f"{where} key {key!r}",
                                         retired)
        elif _fits_json_type(value, hint):
            kwargs[key] = value
        else:
            raise WorkspaceError(
                f"{where} key {key!r} is {value!r}, not of type "
                f"{hint.__name__}; workspace is corrupt")
    return cls(**kwargs)


def config_from_dict(blob: dict) -> CampaignConfig:
    """Inverse of :func:`config_to_dict`, strict about what it accepts.

    Every key must be a ``CampaignConfig`` field holding its field's
    JSON type, or a retired key at the value this version still
    reproduces; anything else raises :class:`WorkspaceError` naming the
    key, so a foreign manifest never resumes into a different campaign.
    Missing keys take their defaults.
    """
    return _decode_fields(CampaignConfig, blob, "manifest config",
                          _retired_keys())


def validate_campaign_config(engine_name: str, target_spec,
                             config: CampaignConfig) -> None:
    """Every rejection of a campaign setup, raised before any state exists.

    Called by :func:`make_engine`, by the fleet before it initializes
    shard workspaces (failing later would leave a half-built fleet
    behind) and by resume, which reports a failure as a corrupt
    manifest.
    """
    if engine_name not in ("peach", "peach-star"):
        raise ValueError(f"unknown engine {engine_name!r}; "
                         "choices: peach, peach-star")
    if not config.budget_hours > 0:
        raise ValueError(f"budget_hours {config.budget_hours!r} is not > 0")
    if config.max_executions < 0:
        raise ValueError(f"max_executions {config.max_executions} < 0")
    for name in ("record_every", "checkpoint_every"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} {getattr(config, name)} < 1")
    for name in ("channel_faults", "pin_prob"):
        if not 0.0 <= getattr(config, name) <= 1.0:
            raise ValueError(
                f"{name} {getattr(config, name)!r} is outside [0, 1]")
    if config.channel_burst < 0:
        raise ValueError(f"channel burst {config.channel_burst} < 0")
    if config.channel_burst > 0 and config.channel_faults <= 0.0:
        raise ValueError(
            "--channel-faults-burst needs --channel-faults > 0 "
            "(the burst is one of the faulting channel's fault kinds)")
    if config.sessions or config.learn_states:
        if engine_name != "peach-star":
            raise ValueError("session mode needs the peach-star engine "
                             f"(got {engine_name!r})")
        if config.sessions and config.learn_states:
            raise ValueError(
                "--sessions (hand-written state model) and --learn-states "
                "(learned automaton) are mutually exclusive; pick one")
        # the learner needs no hand-written state model
        if config.sessions and target_spec.make_state_model is None:
            raise ValueError(
                f"target {target_spec.name!r} ships no state model; "
                "session mode is unavailable for it (state learning via "
                "--learn-states works on every target)")
    if config.net is not None:
        config.net.validate()
        if config.net.concurrency > 1 and not (config.sessions or
                                               config.learn_states):
            raise ValueError(
                "--concurrency interleaves sessions, so it needs session "
                "mode (--sessions or --learn-states)")


def make_engine(engine_name: str, target_spec, seed: int,
                config: Optional[CampaignConfig] = None) -> GenerationFuzzer:
    """Build a ready-to-run engine ("peach" or "peach-star") for a target.

    Both engines get a tracing collector so path coverage is *measured*
    identically; only Peach* pays the coverage-feedback overhead on the
    simulated clock and actually uses the feedback.
    """
    config = config if config is not None else CampaignConfig()
    validate_campaign_config(engine_name, target_spec, config)
    from repro.protocols import PROTOCOLS_PATH_PREFIX  # late: layering
    rng = random.Random(seed)
    collector = make_line_collector((PROTOCOLS_PATH_PREFIX,))
    channel = None
    if config.channel_faults > 0.0:
        # the extra seed draw happens only on faulted campaigns, so
        # zero-fault runs stay bit-identical to the channel-less past
        from repro.channel.faults import FaultingChannel
        channel = FaultingChannel(config.channel_faults,
                                  random.Random(rng.getrandbits(32)),
                                  burst=config.channel_burst)
    if config.net is not None:
        # the live-network transport: a served loopback (full coverage
        # feedback, pinned parity with the in-process path) or an
        # external tcp:// endpoint (black-box — no collector can see
        # across a process boundary)
        from repro.net.target import make_net_target
        target = make_net_target(target_spec, collector, channel,
                                 config.net)
    else:
        target = Target(target_spec.make_server, collector,
                        channel=channel)
    clock = SimulatedClock(target_spec.cost_model)
    pit = target_spec.make_pit()
    policy = default_campaign_policy()
    differential = config.differential
    if differential is None:
        differential = config.channel_faults > 0.0 or \
            config.steer_divergence
    oracle = None
    if differential:
        from repro.channel.oracle import make_oracle
        oracle = make_oracle(target_spec, pit)
    if config.sessions or config.learn_states:
        from repro.state.engine import SessionFuzzer  # late: layering
        if config.learn_states:
            from repro.state.learner import (
                LearnedStateModel, binding_hints,
            )
            hand_model = target_spec.make_state_model() \
                if target_spec.make_state_model is not None else None
            state_model = LearnedStateModel(
                pit, hints=binding_hints(hand_model))
        else:
            state_model = target_spec.make_state_model()
        concurrency = config.net.concurrency \
            if config.net is not None else 1
        engine = SessionFuzzer(pit, target, rng, clock, policy=policy,
                               state_model=state_model,
                               concurrency=concurrency,
                               pin_prob=config.pin_prob,
                               semantic_enabled=config.semantic_enabled,
                               oracle=oracle,
                               steer_divergence=config.steer_divergence)
    elif engine_name == "peach":
        engine = GenerationFuzzer(pit, target, rng, clock, policy=policy,
                                  oracle=oracle,
                                  steer_divergence=config.steer_divergence)
    else:
        engine = PeachStar(pit, target, rng, clock, policy=policy,
                           pin_prob=config.pin_prob,
                           semantic_enabled=config.semantic_enabled,
                           oracle=oracle,
                           steer_divergence=config.steer_divergence)
    return engine


def _drive_campaign(engine_name: str, target_spec, seed: int,
                    engine: GenerationFuzzer, config: CampaignConfig,
                    workspace: Optional[CampaignWorkspace],
                    series: List[Tuple[float, int]],
                    stop_after_executions: Optional[int],
                    pause_after_executions: Optional[int] = None,
                    ) -> Optional[CampaignResult]:
    """The budgeted fuzzing loop, shared by fresh runs and resumes.

    Returns ``None`` when *stop_after_executions* fires: that path
    simulates a SIGKILL — the loop abandons the campaign without a final
    checkpoint, exactly the state a killed process leaves behind, and
    :func:`resume_campaign` must carry on from the last checkpoint.

    *pause_after_executions* is the fleet round boundary: a clean stop —
    the engine checkpoints and returns ``None``, and the fleet driver
    resumes the shard after the corpus-sync phase.  Unlike the kill
    path the check runs *before* each iteration, so re-driving a shard
    already parked at the boundary is a no-op.
    """
    try:
        return _drive_campaign_loop(
            engine_name, target_spec, seed, engine, config, workspace,
            series, stop_after_executions, pause_after_executions)
    finally:
        # a SocketTarget closes its connections, served loopback and
        # selector; the in-process Target no-ops.  Runs on completion,
        # kill and pause alike — every re-entry path rebuilds the engine
        # from the workspace.
        engine.target.close()


def _drive_campaign_loop(engine_name: str, target_spec, seed: int,
                         engine: GenerationFuzzer, config: CampaignConfig,
                         workspace: Optional[CampaignWorkspace],
                         series: List[Tuple[float, int]],
                         stop_after_executions: Optional[int],
                         pause_after_executions: Optional[int] = None,
                         ) -> Optional[CampaignResult]:
    budget_ms = config.budget_hours * 3_600_000.0
    # Cadences are tracked as crossed buckets, not `exec % N == 0`: a
    # session iteration advances the step counter by a whole trace, so
    # exact multiples cannot be relied on.  For single-packet engines
    # (unit increments) this is behavior-identical, and initializing
    # from the restored counter keeps resumes aligned with fresh runs.
    record_bucket = engine.stats.executions // config.record_every
    checkpoint_bucket = engine.stats.executions // config.checkpoint_every
    while engine.clock.now_ms < budget_ms and \
            engine.stats.executions < config.max_executions:
        if pause_after_executions is not None and \
                engine.stats.executions >= pause_after_executions:
            if workspace is not None:
                workspace.checkpoint(engine)
            return None
        # A batch may not run past a boundary that needs *live* engine
        # state: checkpoints snapshot the engine, and the stop/pause
        # kill/round semantics require it to halt exactly there.  Series
        # recording is not such a boundary — it reads each outcome's
        # stamped readings, so a batch may cross record buckets freely.
        exec_bound = config.max_executions
        if workspace is not None:
            exec_bound = min(exec_bound, (checkpoint_bucket + 1)
                             * config.checkpoint_every)
        if stop_after_executions is not None:
            exec_bound = min(exec_bound, stop_after_executions)
        if pause_after_executions is not None:
            exec_bound = min(exec_bound, pause_after_executions)
        outcomes = engine.iterate_batch(BATCH_SIZE, exec_bound=exec_bound,
                                        time_bound_ms=budget_ms)
        for outcome in outcomes:
            # bookkeeping reads the outcome's stamped readings, not the
            # live engine: after a batch the engine is already at the
            # batch's end, but each outcome must be recorded as of the
            # iteration that produced it
            executions = outcome.executions
            if workspace is not None:
                if outcome.new_unique_crash:
                    workspace.record_crash(outcome.result.crash,
                                           outcome.hours)
                for report in outcome.new_divergences:
                    workspace.record_crash(report, outcome.hours)
                if outcome.valuable:
                    # outcome.result.coverage is the map that made the
                    # seed valuable — the collector map itself for
                    # single-packet runs, the step-accumulated trace map
                    # in session mode
                    workspace.record_seed(
                        outcome.seed, bucketed_hits(outcome.result.coverage))
            if executions // config.record_every > record_bucket:
                record_bucket = executions // config.record_every
                series.append((outcome.hours, outcome.paths))
                if workspace is not None:
                    workspace.record_sample(executions, outcome.hours,
                                            outcome.paths)
            if workspace is not None and \
                    executions // config.checkpoint_every \
                    > checkpoint_bucket:
                checkpoint_bucket = executions // config.checkpoint_every
                workspace.checkpoint(engine)
            if stop_after_executions is not None and \
                    executions >= stop_after_executions:
                return None
    series.append((engine.clock.hours, engine.path_count))
    result = CampaignResult(
        engine_name=engine_name,
        target_name=target_spec.name,
        seed=seed,
        series=series,
        final_paths=engine.path_count,
        final_edges=engine.seed_pool.edge_count,
        executions=engine.stats.executions,
        unique_crashes=engine.crashes.unique_reports(),
        crash_times=dict(engine.crashes.first_seen),
        stats=engine.stats.as_dict(),
        path_hashes=tuple(s.path_hash for s in engine.seed_pool.seeds),
        unique_divergences=engine.divergences.unique_reports(),
    )
    if workspace is not None:
        workspace.checkpoint(engine)
        workspace.finalize({
            "engine": result.engine_name,
            "target": result.target_name,
            "seed": result.seed,
            "executions": result.executions,
            "final_paths": result.final_paths,
            "final_edges": result.final_edges,
            "unique_crashes": len(result.unique_crashes),
            "unique_divergences": len(result.unique_divergences),
            "stats": result.stats,
        })
    return result


def run_campaign(engine_name: str, target_spec, seed: int = 0,
                 config: Optional[CampaignConfig] = None,
                 engine: Optional[GenerationFuzzer] = None,
                 stop_after_executions: Optional[int] = None
                 ) -> Optional[CampaignResult]:
    """Run one budgeted campaign and collect its result.

    *engine* injects a pre-built (possibly re-instrumented) engine; the
    equivalence tests use this to drive the dense reference coverage
    implementation through an otherwise identical campaign.

    With ``config.workspace`` set, the campaign persists itself to that
    directory at every checkpoint (seed and series journals, crashes,
    the engine state) and a killed run can be
    continued with :func:`resume_campaign`.  *stop_after_executions*
    simulates the kill (stop without finalizing; returns ``None``).
    """
    config = config if config is not None else CampaignConfig()
    if engine is None:
        engine = make_engine(engine_name, target_spec, seed, config)
    workspace = None
    series: List[Tuple[float, int]] = [(0.0, 0)]
    if config.workspace:
        workspace = CampaignWorkspace(config.workspace)
        workspace.initialize(engine_name, target_spec.name, seed,
                             config_to_dict(config))
        series = _begin_workspace_records(workspace, engine)
    return _drive_campaign(engine_name, target_spec, seed, engine, config,
                           workspace, series, stop_after_executions)


def _begin_workspace_records(workspace: CampaignWorkspace, engine
                             ) -> List[Tuple[float, int]]:
    """The initial records of a fresh persisted campaign.

    One definition for both entry points (run_campaign and the fleet
    shard driver): the t=0 series sample plus the initial checkpoint,
    returning the matching in-memory series.
    """
    workspace.record_sample(0, 0.0, 0)
    workspace.checkpoint(engine)
    return [(0.0, 0)]


def rebuild_workspace_engine(workspace: CampaignWorkspace):
    """Rebuild a persisted campaign's engine from its manifest.

    With checkpointed state the engine is rewound to it; a workspace
    that was initialized but never checkpointed is emptied of whatever
    an interrupted first checkpoint wrote and gets the fresh-start
    records instead.  Shared by :func:`resume_campaign` and the fleet shard
    driver (which interposes corpus-sync imports before re-driving the
    loop).  Returns ``(manifest, config, target_spec, engine, series)``.
    """
    from repro.protocols import get_target

    manifest = workspace.load_manifest()
    cannot = f"manifest of {workspace.root} cannot be resumed"
    for key in ("engine", "target", "seed", "config"):
        if key not in manifest:
            raise WorkspaceError(f"{cannot}: missing key {key!r}")
    config = config_from_dict(manifest["config"])
    config.workspace = workspace.root
    try:
        target_spec = get_target(manifest["target"])
        validate_campaign_config(manifest["engine"], target_spec, config)
    except (KeyError, ValueError) as exc:
        # args[0]: str() of a KeyError would quote its message
        raise WorkspaceError(f"{cannot}: {exc.args[0]}") from None
    engine = make_engine(manifest["engine"], target_spec,
                         manifest["seed"], config)
    if workspace.has_state:
        series = workspace.restore(engine)
    else:
        workspace.discard_uncommitted()
        series = _begin_workspace_records(workspace, engine)
    return manifest, config, target_spec, engine, series


def resume_campaign(workspace_dir: str, *,
                    stop_after_executions: Optional[int] = None
                    ) -> Optional[CampaignResult]:
    """Continue a persisted campaign from its last checkpoint.

    The engine is rebuilt from the workspace manifest, rewound to the
    checkpointed RNG/clock/corpus state, and driven to the end of the
    original budget.  Thanks to the deterministic clock and seeded RNG
    the finished campaign is bit-identical — same paths, path-hash set,
    unique crashes, series and stats — to one that was never killed.
    Resuming an already-finished campaign recomputes (and returns) the
    same final result.
    """
    workspace = CampaignWorkspace(workspace_dir)
    manifest, config, target_spec, engine, series = \
        rebuild_workspace_engine(workspace)
    return _drive_campaign(manifest["engine"], target_spec,
                           manifest["seed"], engine, config, workspace,
                           series, stop_after_executions)


def run_repetitions(engine_name: str, target_spec, *, repetitions: int,
                    base_seed: int = 0,
                    config: Optional[CampaignConfig] = None
                    ) -> List[CampaignResult]:
    """Run N independent repetitions (the paper repeats each 10 times)."""
    return [run_campaign(engine_name, target_spec,
                         seed=base_seed + 1000 * rep, config=config)
            for rep in range(repetitions)]


# -- parallel campaign execution ---------------------------------------------

@dataclass(frozen=True)
class CampaignTask:
    """One schedulable campaign: (engine, target, seed, config).

    Targets travel by registry name so tasks stay cheap to pickle; the
    worker re-resolves the :class:`~repro.protocols.TargetSpec` in its own
    process.
    """

    engine_name: str
    target_name: str
    seed: int
    config: Optional[CampaignConfig] = None


def default_worker_count() -> int:
    """Worker processes to use when the caller does not say.

    ``REPRO_JOBS`` overrides; ``0``/``1`` force serial execution.  The
    fallback leaves one core for the parent so result collection never
    starves.
    """
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return max(1, (os.cpu_count() or 2) - 1)


def open_pool(tasks: int, max_workers: Optional[int]
              ) -> Optional[ProcessPoolExecutor]:
    """A process pool for *tasks* independent tasks, or ``None`` to run
    them in-process.

    ``None`` when only one worker is requested (*max_workers* ``None`` =
    :func:`default_worker_count`), there is at most one task, or the
    platform refuses to give us a process pool.
    """
    if max_workers is None:
        max_workers = default_worker_count()
    if tasks <= 1 or max_workers <= 1:
        return None
    try:
        return ProcessPoolExecutor(max_workers=min(max_workers, tasks))
    except OSError:
        # sandboxed/exotic platforms that refuse a pool: degrade to
        # serial, same results.  Failures *inside* a running pool are
        # deliberately not swallowed — re-running the whole batch would
        # silently double the work.
        return None


def fan_out(worker: Callable, tasks: Sequence, *,
            max_workers: Optional[int] = None) -> list:
    """``[worker(task) for task in tasks]``, fanned out across processes.

    Results come back in task order, so the output is identical to the
    serial loop whenever the tasks are independent — parallelism only
    changes wall-clock time.  *worker* and the tasks must pickle; see
    :func:`open_pool` for when the tasks run in-process.
    """
    tasks = list(tasks)
    pool = open_pool(len(tasks), max_workers)
    if pool is None:
        return [worker(task) for task in tasks]
    with pool:
        return list(pool.map(worker, tasks))


def _campaign_worker(task: CampaignTask) -> CampaignResult:
    """Process-pool entry point: resolve the target and run one campaign."""
    from repro.protocols import get_target
    return run_campaign(task.engine_name, get_target(task.target_name),
                        seed=task.seed, config=task.config)


def run_campaign_batch(tasks: Sequence[CampaignTask], *,
                       max_workers: Optional[int] = None
                       ) -> List[CampaignResult]:
    """Run many campaigns, fanning out across processes.

    Each campaign is seeded independently, so the results are identical
    to running the tasks serially (see :func:`fan_out`).
    """
    return fan_out(_campaign_worker, tasks, max_workers=max_workers)


def run_repetitions_parallel(engine_name: str, target_spec, *,
                             repetitions: int, base_seed: int = 0,
                             config: Optional[CampaignConfig] = None,
                             max_workers: Optional[int] = None
                             ) -> List[CampaignResult]:
    """Parallel :func:`run_repetitions`: same results, one rep per core."""
    tasks = [CampaignTask(engine_name, target_spec.name,
                          base_seed + 1000 * rep, config)
             for rep in range(repetitions)]
    return run_campaign_batch(tasks, max_workers=max_workers)


def average_paths_at(results: Sequence[CampaignResult],
                     hours: float) -> float:
    """Mean paths covered at simulated time *hours* across repetitions."""
    if not results:
        return 0.0
    return sum(result.paths_at(hours) for result in results) / len(results)


def average_series(results: Sequence[CampaignResult],
                   checkpoints: Sequence[float]
                   ) -> List[Tuple[float, float]]:
    """Average paths-over-time curve sampled at *checkpoints* (hours)."""
    return [(hours, average_paths_at(results, hours))
            for hours in checkpoints]
