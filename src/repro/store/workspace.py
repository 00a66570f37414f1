"""CampaignWorkspace: everything a campaign needs to survive its process.

Layout of a workspace directory::

    <root>/
      config.json     campaign manifest: engine, target, seed, config
                      (including the live-network NetConfig, when set —
                      a killed socket campaign resumes with the exact
                      transport scenario it started with: url, framing,
                      timeout/reconnect axes, concurrency degree)
      state.json      atomic checkpoint (RNG/clock/corpus/stats snapshot)
      corpus/         one <exec>.bin + <exec>.json per valuable seed
      crashes/        one <slug>.bin + <slug>.json per unique crash
      divergences/    one <slug>.bin + <slug>.json per unique
                      differential-oracle finding (faulted campaigns)
      coverage.jsonl  sparse coverage journal, one line per valuable seed
      series.jsonl    paths-over-time samples (the Fig. 4 series)
      result.json     final summary, written when the campaign completes
      repro/          triage output (minimized reproducers), if any

``state.json`` is the recovery point: it is rewritten atomically (tmp +
rename) every ``checkpoint_every`` executions and captures *all* mutable
engine state — main and corpus RNG states, the simulated clock, engine
stats, the puzzle-corpus store (order-preserving: donor sampling and
eviction tie-breaks are order-sensitive), cracker counters and the
pending semantic queue.  The append-only files (corpus, crashes,
coverage/series journals) may run ahead of the last checkpoint when the
process is killed; :meth:`CampaignWorkspace.restore` prunes them back to
the checkpoint and the resumed campaign deterministically regenerates
the pruned tail, which is why a killed-and-resumed campaign finishes
bit-identical to an uninterrupted one.

Every file a campaign or fleet workspace writes or reads goes through
the module-level record helpers below (the record seam): a *record* is
a ``<stem>.bin`` blob plus its ``<stem>.json`` metadata, a *journal* an
append-only JSON-lines file, and the manifests and checkpoint are
format-checked JSON.  Resume fails with :class:`WorkspaceError`, never
a raw ``OSError``, when a record's blob is missing or a journal line
other than a torn final one does not decode.

This module deliberately imports nothing from :mod:`repro.core` at
module level (the campaign driver imports it); engine classes are only
touched through attributes and late imports.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.model.fields import ModelError
from repro.runtime.coverage import BUCKET_LUT
from repro.sanitizer.report import CrashReport
from repro.util import fs_slug

#: bump when the on-disk layout changes incompatibly
STATE_FORMAT = 2


class WorkspaceError(RuntimeError):
    """Raised for missing, corrupt or conflicting workspace state."""


# -- the record seam ----------------------------------------------------------

def _atomic_write(path: str, payload: str) -> None:
    """Durably replace *path* with *payload*.

    The rename alone is not enough: without flushing and fsyncing the
    tmp file first, a power loss after ``os.replace`` can leave an empty
    or torn file under the final name — the data may still be in page
    cache when the rename hits the journal.  The directory fsync then
    persists the rename itself.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _write_json(path: str, blob) -> None:
    """Atomically write *blob* as indented, key-sorted JSON."""
    _atomic_write(path, json.dumps(blob, indent=2, sort_keys=True) + "\n")


def _write_record(stem: str, blob: bytes, meta: dict) -> None:
    """Write one record: the ``.bin`` blob, then its ``.json`` metadata,
    so a ``.json`` on disk names a blob that was written before it."""
    with open(stem + ".bin", "wb") as handle:
        handle.write(blob)
    _write_json(stem + ".json", meta)


def _load_json(path: str, label: Optional[str] = None):
    """Decode one JSON file; with *label* it is a manifest or checkpoint
    and must carry this version's ``format``."""
    with open(path, encoding="utf-8") as handle:
        try:
            blob = json.load(handle)
        except ValueError:
            raise WorkspaceError(f"{path} does not decode as JSON; "
                                 "workspace is corrupt") from None
    if label is not None:
        found = blob.get("format") if isinstance(blob, dict) else None
        if found != STATE_FORMAT:
            raise WorkspaceError(
                f"{label} format {found!r} is not supported (expected "
                f"{STATE_FORMAT}); it was written by an incompatible "
                "version")
    return blob


def _load_record(stem: str) -> dict:
    """One record's metadata, carrying its ``_stem`` for the blob."""
    meta = _load_json(stem + ".json")
    meta["_stem"] = stem
    return meta


def _list_records(directory: str) -> List[dict]:
    """Every record in *directory*, in name order."""
    if not os.path.isdir(directory):
        return []
    return [_load_record(os.path.join(directory, name[:-len(".json")]))
            for name in sorted(os.listdir(directory))
            if name.endswith(".json")]


def _read_blob(meta: dict) -> bytes:
    """The ``.bin`` blob of a listed record."""
    path = meta["_stem"] + ".bin"
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise WorkspaceError(f"cannot read record blob {path} "
                             f"({exc.strerror}); workspace is "
                             "corrupt") from None


def _past(execution: int, record: dict, exec_limit: Optional[int],
          sync_limit: Optional[int]) -> bool:
    """True for a record written after the checkpoint: past
    *exec_limit*, or from a sync round past *sync_limit*."""
    return (exec_limit is not None and execution > exec_limit) or \
        (sync_limit is not None and record.get("sync_round", 0) > sync_limit)


def _load_entries(directory: str, exec_limit: Optional[int] = None,
                  sync_limit: Optional[int] = None) -> List[dict]:
    """The records of *directory* in discovery order.

    Sorted by execution index: name order breaks ties, so a boundary
    seed precedes the imports applied at the same index, and a
    divergence's ``seq`` orders the findings of one execution.  Given
    limits (restore), records past them are deleted instead — the
    resumed loop regenerates them.
    """
    entries = []
    for meta in _list_records(directory):
        if _past(meta["execution_index"], meta, exec_limit, sync_limit):
            os.unlink(meta["_stem"] + ".json")
            if os.path.exists(meta["_stem"] + ".bin"):
                os.unlink(meta["_stem"] + ".bin")
            continue
        entries.append(meta)
    entries.sort(key=lambda meta: (meta["execution_index"],
                                   meta.get("seq", 0)))
    return entries


def _append_line(path: str, record: dict) -> None:
    """Append one record to a journal."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def _read_journal(path: str, offset: int = 0) -> Tuple[int, List[dict]]:
    """Journal records from byte *offset* on, and the offset after them.

    Each append writes one whole line, so a SIGKILL landing mid-append
    can tear only the final line: it has no newline yet, or it does not
    decode.  That line is past the last checkpoint by construction, so
    it is left unread (the resumed loop regenerates it).  An earlier
    line that does not decode is corruption: :class:`WorkspaceError`.
    """
    if not os.path.exists(path):
        return offset, []
    with open(path, "rb") as handle:
        handle.seek(offset)
        *lines, tail = handle.read().split(b"\n")
    records = []
    for number, raw in enumerate(lines):
        try:
            records.append(json.loads(raw))
        except ValueError:
            if number == len(lines) - 1 and not tail:
                break  # the torn final line
            raise WorkspaceError(
                f"{path} is corrupt: the line at byte {offset} does not "
                "decode and is not the last one") from None
        offset += len(raw) + 1
    return offset, records


def _prune_journal(path: str, exec_limit: int,
                   sync_limit: Optional[int] = None) -> List[dict]:
    """Load a journal, drop records past the checkpoint (and a torn
    final line), and rewrite it when anything was dropped."""
    if not os.path.exists(path):
        return []
    end, records = _read_journal(path)
    kept = [record for record in records
            if not _past(record["exec"], record, exec_limit, sync_limit)]
    if len(kept) < len(records) or end < os.path.getsize(path):
        _atomic_write(path,
                      "".join(json.dumps(record) + "\n" for record in kept))
    return kept


def bucketed_hits(coverage_map) -> List[List[int]]:
    """A map's hits as the coverage journal stores them: ``[index,
    bucket]`` pairs in ascending index order."""
    return [[index, BUCKET_LUT[count]]
            for index, count in coverage_map.iter_hits()]


def _rng_state_to_json(state) -> list:
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _rng_state_from_json(blob) -> tuple:
    version, internal, gauss = blob
    return (version, tuple(internal), gauss)


# -- pending semantic queue ---------------------------------------------------
#
# Pending entries are splice recipes (``repro.core.semantic.SpliceRecipe``):
# a model name, the donor assignments and the fallback seed determine the
# packet exactly, so the checkpoint stores just those.  state.json stays
# pure JSON — no pickle, so resuming a workspace from an untrusted source
# cannot execute code — and every field is validated on restore.

def _value_to_json(value):
    if isinstance(value, bytes):
        return {"b": value.hex()}
    return value


def _value_from_json(blob):
    if isinstance(blob, dict):
        return bytes.fromhex(blob["b"])
    if type(blob) not in (int, str):
        raise ValueError(f"{blob!r} is not a leaf value")
    return blob


def _pending_to_json(pending) -> list:
    return [{"model": model_name,
             "assignments": {path: _value_to_json(value)
                             for path, value in recipe.assignments.items()},
             "seed": recipe.seed}
            for recipe, model_name in pending]


def _pending_from_json(entries, pit) -> list:
    """Validated ``(recipe, model_name)`` pairs from checkpoint *entries*."""
    from repro.core.semantic import SpliceRecipe, splice_paths  # late

    if not isinstance(entries, list):
        raise WorkspaceError("pending queue is not a list; workspace is "
                             "corrupt")
    pending = []
    for index, blob in enumerate(entries):
        where = f"pending recipe {index}"
        if not isinstance(blob, dict) or \
                set(blob) != {"model", "assignments", "seed"}:
            raise WorkspaceError(
                f"{where} is malformed (expected the keys model, "
                "assignments, seed); workspace is corrupt")
        name, assignments, seed = \
            blob["model"], blob["assignments"], blob["seed"]
        try:
            model = pit.model(name)
        except ModelError:
            raise WorkspaceError(
                f"{where} names unknown model {name!r}; workspace is "
                "corrupt or from another target") from None
        if type(seed) is not int or not 0 <= seed < 1 << 32:
            raise WorkspaceError(
                f"{where} (model {name!r}) has seed {seed!r}, not a "
                "32-bit unsigned int; workspace is corrupt")
        if not isinstance(assignments, dict):
            raise WorkspaceError(
                f"{where} (model {name!r}) has no assignment map; "
                "workspace is corrupt")
        stray = sorted(set(assignments) - splice_paths(model))
        if stray:
            raise WorkspaceError(
                f"{where} assigns {stray[0]!r}, which is not a spliceable "
                f"leaf of model {name!r}; workspace is corrupt or from an "
                "incompatible version")
        try:
            values = {path: _value_from_json(value)
                      for path, value in assignments.items()}
        except (KeyError, TypeError, ValueError):
            raise WorkspaceError(
                f"{where} (model {name!r}) holds an undecodable value; "
                "workspace is corrupt") from None
        pending.append((SpliceRecipe(values, seed), name))
    return pending


def _report_from_meta(meta: dict, packet: bytes) -> CrashReport:
    """Rebuild a persisted finding (crash or divergence, session
    context included)."""
    trace = meta.get("trace")
    oracle = meta.get("oracle")
    if oracle is not None:
        from repro.channel.oracle import DivergenceReport  # late: layering
        return DivergenceReport(
            kind=meta["kind"], site=meta["site"], detail=meta["detail"],
            packet=packet, model_name=meta["model_name"],
            execution_index=meta["execution_index"],
            oracle=oracle,
        )
    return CrashReport(
        kind=meta["kind"], site=meta["site"], detail=meta["detail"],
        packet=packet, model_name=meta["model_name"],
        execution_index=meta["execution_index"],
        call_sites=tuple(meta["call_sites"]),
        trace=bytes.fromhex(trace) if trace is not None else None,
        crash_step=meta.get("crash_step"),
    )


class CampaignWorkspace:
    """On-disk store for one campaign (create fresh, or attach to resume)."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.corpus_dir = os.path.join(self.root, "corpus")
        self.crashes_dir = os.path.join(self.root, "crashes")
        self.divergences_dir = os.path.join(self.root, "divergences")
        self.repro_dir = os.path.join(self.root, "repro")
        self.inbox_dir = os.path.join(self.root, "inbox")
        self._config_path = os.path.join(self.root, "config.json")
        self._state_path = os.path.join(self.root, "state.json")
        self._coverage_path = os.path.join(self.root, "coverage.jsonl")
        self._series_path = os.path.join(self.root, "series.jsonl")
        self._result_path = os.path.join(self.root, "result.json")
        #: fleet corpus-sync high-water mark: how many sync rounds this
        #: campaign has *applied*.  Persisted with every checkpoint so a
        #: kill between import application and the post-import checkpoint
        #: replays the round instead of double-importing (restore prunes
        #: the orphaned import records).  Always 0 outside a fleet.
        self.synced_rounds = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def has_state(self) -> bool:
        return os.path.exists(self._state_path)

    def initialize(self, engine_name: str, target_name: str, seed: int,
                   config_dict: dict) -> None:
        """Create a fresh workspace; refuses to clobber an existing one."""
        if self.has_state:
            raise WorkspaceError(
                f"workspace {self.root} already holds campaign state; "
                "use `peachstar resume` (or a fresh directory) instead")
        os.makedirs(self.corpus_dir, exist_ok=True)
        os.makedirs(self.crashes_dir, exist_ok=True)
        manifest = {
            "format": STATE_FORMAT,
            "engine": engine_name,
            "target": target_name,
            "seed": seed,
            "config": config_dict,
        }
        _write_json(self._config_path, manifest)

    def load_manifest(self) -> dict:
        if not os.path.exists(self._config_path):
            raise WorkspaceError(f"{self.root} is not a campaign workspace "
                                 "(no config.json)")
        return _load_json(self._config_path, "workspace")

    # ------------------------------------------------------------------
    # incremental records (append-only; may run ahead of the checkpoint)
    # ------------------------------------------------------------------

    def record_sample(self, execution: int, hours: float,
                      paths: int) -> None:
        _append_line(self._series_path,
                     {"exec": execution, "hours": hours, "paths": paths})

    def record_seed(self, seed, bucketed: List[List[int]],
                    sync: Optional[Tuple[int, int, int]] = None) -> None:
        """Persist one valuable seed plus its coverage-journal line.

        *bucketed* is the seed's map as the journal stores it (see
        :func:`bucketed_hits`).  A fleet-sync import passes *sync*, its
        ``(sync_round, src_shard, src_exec)`` provenance: the keys ride
        in the metadata (the round also in the journal line), and the
        stem suffix sorts the import *after* a local seed of the same
        execution index (``.`` < ``_``), matching the in-memory order: a
        seed discovered at the round boundary precedes the imports
        applied there.
        """
        stem = f"{seed.execution_index:07d}"
        meta = {
            "execution_index": seed.execution_index,
            "model_name": seed.model_name,
            "sim_time_ms": seed.sim_time_ms,
            "edges_touched": seed.edges_touched,
            "path_hash": seed.path_hash,
        }
        line = {"exec": seed.execution_index, "path_hash": seed.path_hash,
                "map": bucketed}
        if sync is not None:
            sync_round, src_shard, src_exec = sync
            stem += f"_sync_r{sync_round:03d}_s{src_shard:03d}_{src_exec:07d}"
            meta.update(sync_round=sync_round, src_shard=src_shard,
                        src_exec=src_exec)
            line["sync_round"] = sync_round
        _write_record(os.path.join(self.corpus_dir, stem), seed.packet, meta)
        _append_line(self._coverage_path, line)

    def record_crash(self, report: CrashReport, hours: float) -> None:
        """Persist one *new unique* finding: a crash in ``crashes/``, a
        differential-oracle divergence in ``divergences/``.

        The ``oracle`` meta key is what routes a divergence back to
        :class:`~repro.channel.oracle.DivergenceReport` on load.
        """
        meta = {
            "kind": report.kind,
            "site": report.site,
            "detail": report.detail,
            "model_name": report.model_name,
            "execution_index": report.execution_index,
            "hours": hours,
        }
        oracle = getattr(report, "oracle", None)
        if oracle is None:
            directory = self.crashes_dir
            meta["call_sites"] = list(report.call_sites)
            if report.trace is not None:
                # session crash: the provoking step is in .bin; the full
                # trace needed to reproduce it rides along in the metadata
                meta["trace"] = report.trace.hex()
                meta["crash_step"] = report.crash_step
        else:
            directory = self.divergences_dir
            os.makedirs(directory, exist_ok=True)
            meta["oracle"] = oracle
            # one trace can surface several findings at the same
            # execution index, so the index alone cannot reconstruct
            # discovery order on restore; an explicit sequence number does
            meta["seq"] = sum(1 for name in os.listdir(directory)
                              if name.endswith(".json"))
        stem = os.path.join(directory, fs_slug(f"{report.kind}_{report.site}"))
        _write_record(stem, report.packet, meta)

    # ------------------------------------------------------------------
    # fleet sync inbox (written by the fleet driver, consumed on resume)
    # ------------------------------------------------------------------

    def inbox_round_dir(self, sync_round: int) -> str:
        return os.path.join(self.inbox_dir, f"round_{sync_round:03d}")

    def write_inbox_entry(self, sync_round: int, src_shard: int,
                          src_exec: int, packet: bytes,
                          meta: dict) -> None:
        """Stage one selected cross-shard seed for the next round.

        Rewriting an entry is idempotent — a sync phase interrupted and
        redone produces byte-identical files.
        """
        directory = self.inbox_round_dir(sync_round)
        os.makedirs(directory, exist_ok=True)
        _write_record(os.path.join(directory,
                                   f"s{src_shard:03d}_{src_exec:07d}"),
                      packet, meta)

    def load_inbox_rounds(self, after: int,
                          through: int) -> List[Tuple[int, List[dict]]]:
        """Staged sync rounds in ``(after, through]``, entries in the
        deterministic application order (source shard, source exec)."""
        rounds: List[Tuple[int, List[dict]]] = []
        for sync_round in range(after + 1, through + 1):
            entries = _list_records(self.inbox_round_dir(sync_round))
            if entries:
                rounds.append((sync_round, entries))
        return rounds

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self, engine) -> None:
        """Atomically snapshot every piece of mutable engine state."""
        state = {
            "format": STATE_FORMAT,
            "synced_rounds": self.synced_rounds,
            "executions": engine.stats.executions,
            "target_executions": engine.target.executions,
            "clock_ms": engine.clock.now_ms,
            "rng_state": _rng_state_to_json(engine.rng.getstate()),
            "stats": engine.stats.as_dict(),
            "edges_seen": engine.seed_pool.coverage.edges_seen,
        }
        corpus = getattr(engine, "corpus", None)
        if corpus is not None:
            state["puzzle_corpus"] = {
                "rng_state": _rng_state_to_json(corpus.rng.getstate()),
                "max_per_rule": corpus.max_per_rule,
                "total_added": corpus.total_added,
                "total_reinforced": corpus.total_reinforced,
                # order matters twice over: donor sampling walks buckets
                # in insertion order and eviction ties consume RNG per
                # entry visited, so the snapshot is a list, not a map
                "store": [[signature, [[puzzle.hex(), count]
                                       for puzzle, count in bucket.items()]]
                          for signature, bucket in corpus._store.items()],
            }
            state["cracker"] = {
                "seeds_cracked": engine.cracker.seeds_cracked,
                "models_matched": engine.cracker.models_matched,
                "puzzles_deposited": engine.cracker.puzzles_deposited,
            }
            state["pending"] = _pending_to_json(engine._pending)
        state_model = getattr(engine, "state_model", None)
        if state_model is not None and hasattr(state_model, "snapshot"):
            # learned-state campaigns: the automaton is mutable engine
            # state (walks depend on it), so it checkpoints with the RNG
            state["learner"] = state_model.snapshot()
        channel = engine.target.channel
        if channel is not None:
            # faulted campaigns: the channel RNG draws per frame, so its
            # state must rewind with the engine RNG
            state["channel"] = channel.snapshot()
        _atomic_write(self._state_path,
                      json.dumps(state, sort_keys=True) + "\n")

    def load_state(self) -> dict:
        if not self.has_state:
            raise WorkspaceError(f"{self.root} has no state.json to "
                                 "resume from")
        return _load_json(self._state_path, "state")

    def finalize(self, result_dict: dict) -> None:
        _write_json(self._result_path, result_dict)

    def load_result(self) -> Optional[dict]:
        if not os.path.exists(self._result_path):
            return None
        return _load_json(self._result_path)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def restore(self, engine) -> List[Tuple[float, int]]:
        """Rewind *engine* to the last checkpoint; returns the series.

        Append-only records past the checkpoint are pruned — the resumed
        loop re-executes that window and regenerates them identically.
        The coverage journal must rebuild the checkpoint's edge count,
        or the workspace is refused as corrupt.
        """
        from repro.core.seedpool import ValuableSeed  # late: avoid cycle

        state = self.load_state()
        exec_limit = state["executions"]
        self.synced_rounds = state.get("synced_rounds", 0)

        engine.rng.setstate(_rng_state_from_json(state["rng_state"]))
        engine.clock.now_ms = state["clock_ms"]
        engine.target.executions = state["target_executions"]
        for name, value in state["stats"].items():
            setattr(engine.stats, name, value)

        # -- corpus, crash and divergence records ---------------------------
        pool = engine.seed_pool
        for directory in (self.corpus_dir, self.crashes_dir,
                          self.divergences_dir):
            for meta in _load_entries(directory, exec_limit,
                                      self.synced_rounds):
                blob = _read_blob(meta)
                if directory == self.corpus_dir:
                    pool.seeds.append(ValuableSeed(
                        packet=blob,
                        model_name=meta["model_name"],
                        execution_index=meta["execution_index"],
                        sim_time_ms=meta["sim_time_ms"],
                        edges_touched=meta["edges_touched"],
                        path_hash=meta["path_hash"],
                    ))
                elif directory == self.crashes_dir:
                    engine.crashes.add(_report_from_meta(meta, blob),
                                       meta["hours"])
                else:
                    engine.divergences.add(_report_from_meta(meta, blob),
                                           meta["hours"])

        # -- global coverage --------------------------------------------------
        coverage = pool.coverage
        for line in _prune_journal(self._coverage_path, exec_limit,
                                   self.synced_rounds):
            coverage.merge_bucketed(line["map"])
        if coverage.edges_seen != state["edges_seen"]:
            raise WorkspaceError(
                f"{self._coverage_path} rebuilds {coverage.edges_seen} "
                f"edges but the checkpoint recorded {state['edges_seen']}; "
                "workspace is corrupt")

        # -- channel RNG -------------------------------------------------------
        if "channel" in state:
            channel = engine.target.channel
            if channel is None:
                raise WorkspaceError(
                    "workspace checkpoints a faulting channel but the "
                    "rebuilt engine has none; workspace is corrupt or "
                    "from an incompatible version")
            channel.restore(state["channel"])

        # -- Peach*-only state -------------------------------------------------
        corpus = getattr(engine, "corpus", None)
        if corpus is not None and "puzzle_corpus" in state:
            snap = state["puzzle_corpus"]
            corpus.rng.setstate(_rng_state_from_json(snap["rng_state"]))
            corpus.max_per_rule = snap["max_per_rule"]
            corpus.total_added = snap["total_added"]
            corpus.total_reinforced = snap["total_reinforced"]
            corpus._store = {
                signature: {bytes.fromhex(puzzle): count
                            for puzzle, count in bucket}
                for signature, bucket in snap["store"]
            }
            engine.cracker.seeds_cracked = state["cracker"]["seeds_cracked"]
            engine.cracker.models_matched = state["cracker"]["models_matched"]
            engine.cracker.puzzles_deposited = \
                state["cracker"]["puzzles_deposited"]
            engine._pending.clear()
            engine._pending.extend(
                _pending_from_json(state.get("pending"), engine.pit))

        # -- learned-state automaton ------------------------------------------
        if "learner" in state:
            state_model = getattr(engine, "state_model", None)
            if state_model is None or not hasattr(state_model, "restore"):
                raise WorkspaceError(
                    "workspace checkpoints a learned state automaton but "
                    "the rebuilt engine is not a learning session fuzzer; "
                    "workspace is corrupt or from an incompatible version")
            state_model.restore(state["learner"])

        return [(line["hours"], line["paths"])
                for line in _prune_journal(self._series_path, exec_limit)]

    # ------------------------------------------------------------------
    # readers (used by the fleet driver, triage and the analysis layer)
    # ------------------------------------------------------------------

    def read_coverage_journal(self, offset: int) -> Tuple[int, List[dict]]:
        """Coverage-journal records appended since byte *offset*, and the
        offset to read on from (see :func:`_read_journal`)."""
        return _read_journal(self._coverage_path, offset)

    def corpus_entry(self, exec_index: int) -> Optional[dict]:
        """The record of the local seed found at *exec_index*, if any."""
        stem = os.path.join(self.corpus_dir, f"{exec_index:07d}")
        if not os.path.exists(stem + ".json"):
            return None
        return _load_record(stem)

    #: the blob of a record this workspace listed (inbox or corpus entry)
    read_blob = staticmethod(_read_blob)

    def load_crash_reports(self) -> List[CrashReport]:
        """Every persisted unique finding in discovery order, crashes
        first, then divergences (the triage input)."""
        return [_report_from_meta(meta, _read_blob(meta))
                for directory in (self.crashes_dir, self.divergences_dir)
                for meta in _load_entries(directory)]

    def crash_times(self) -> Dict[tuple, float]:
        return {(meta["kind"], meta["site"]): meta["hours"]
                for meta in _load_entries(self.crashes_dir)}

    def corpus_path_hashes(self) -> List[int]:
        """path_hash of every persisted valuable seed, discovery order."""
        return [meta["path_hash"] for meta in _load_entries(self.corpus_dir)]

    def corpus_packets(self) -> List[bytes]:
        return [_read_blob(meta) for meta in _load_entries(self.corpus_dir)]
