"""CampaignWorkspace: everything a campaign needs to survive its process.

Layout of a workspace directory::

    <root>/
      config.json     campaign manifest: engine, target, seed, config
                      (including the live-network NetConfig, when set —
                      a killed socket campaign resumes with the exact
                      transport scenario it started with: url, framing,
                      timeout/reconnect axes, concurrency degree)
      state.json      the checkpoint: RNG/clock/corpus/stats snapshot,
                      plus what it depends on — each journal's committed
                      byte length and the crash/divergence record stems
      coverage.jsonl  the seed journal: one line per valuable seed, its
                      bucketed coverage map beside the packet (hex) and
                      the seed metadata
      series.jsonl    paths-over-time samples (the Fig. 4 series)
      crashes/        one <slug>.bin + <slug>.json per unique crash
      divergences/    one <slug>.bin + <slug>.json per unique
                      differential-oracle finding (empty unless the
                      campaign runs an oracle)
      result.json     final summary, written when the campaign completes
      repro/          triage output (minimized reproducers), if any

One durability rule: :meth:`CampaignWorkspace.checkpoint` is the only
durable point (group commit).  Between checkpoints, journal lines and
crash/divergence records wait in memory, at most ``checkpoint_every``
executions' worth.  A checkpoint appends each journal's waiting lines
in one write, writes the waiting records, fsyncs every file it wrote and
their directories, and only then atomically replaces ``state.json``.  A
durable ``state.json`` therefore never names a byte or a record that a
power loss can take away.  The workspace directory itself, and any
ancestor that :meth:`CampaignWorkspace.initialize` creates, is made
durable in its parent before the manifest is written.

``state.json`` captures *all* mutable engine state — main and corpus
RNG states, the simulated clock, engine stats, the puzzle-corpus store
(order-preserving: donor sampling and eviction tie-breaks are
order-sensitive), cracker counters, the pending semantic queue — and
:meth:`CampaignWorkspace.restore` rewinds to it: each journal is
truncated to its committed length (dropping what a checkpoint that never
completed appended, or a torn tail), record files the checkpoint does
not name are deleted, and the resumed loop deterministically regenerates
everything after the checkpoint, which is why a killed-and-resumed
campaign finishes bit-identical to an uninterrupted one.

Every file a campaign or fleet workspace writes or reads goes through
the module-level helpers below (the record seam): a *record* is a
``<stem>.bin`` blob plus its ``<stem>.json`` metadata, a *journal* an
append-only JSON-lines file, and the manifests and checkpoint are
format-checked JSON.  Resume fails with :class:`WorkspaceError`, never
a raw ``OSError``, when a journal is shorter than its committed length,
a committed line does not decode or is not a seed, a named record is
missing or does not decode, a record's blob is not the length its
metadata recorded, or the coverage journal does not rebuild the
checkpointed edge count.

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

#: bump when the on-disk layout changes incompatibly (4: every record's
#: ``.json`` holds its blob's byte length)
STATE_FORMAT = 4

#: the journals a checkpoint commits, by file name
_JOURNALS = ("coverage.jsonl", "series.jsonl")

#: the record directories whose stems a checkpoint names
_RECORD_DIRS = ("crashes", "divergences")


class WorkspaceError(RuntimeError):
    """Raised for missing, corrupt or conflicting workspace state."""


# -- the record seam ----------------------------------------------------------

def _fsync_path(path: str) -> None:
    """fsync a file or directory by name: file data, or directory
    entries (new files, renames)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _make_dirs(path: str) -> None:
    """``os.makedirs`` that makes each directory it creates durable: a
    new directory is an entry in its parent, so the parent is fsynced
    after each one (ancestors first)."""
    if os.path.isdir(path):
        return
    parent = os.path.dirname(path)
    _make_dirs(parent)
    os.mkdir(path)
    _fsync_path(parent)


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
    _fsync_path(os.path.dirname(path) or ".")


def _write_json(path: str, blob) -> None:
    """Atomically write *blob* as indented, key-sorted JSON."""
    _atomic_write(path, json.dumps(blob, indent=2, sort_keys=True) + "\n")


def _write_record(stem: str, blob: bytes, meta: dict) -> None:
    """Write one record, ``.bin`` then ``.json``, without fsync: the
    commit that names it (a checkpoint, a sync round) fsyncs it first.
    The ``.json`` holds the blob's byte length (``blob_length``), which
    :func:`_read_blob` checks."""
    with open(stem + ".bin", "wb") as handle:
        handle.write(blob)
    meta = dict(meta, blob_length=len(blob))
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _append_durably(path: str, data: bytes) -> None:
    """Append *data* to a journal in one write and fsync it."""
    with open(path, "ab") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


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
                f"{path}: {label} format {found!r} is not supported "
                f"(expected {STATE_FORMAT}); it was written by an "
                "incompatible version")
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
    """The ``.bin`` blob of a listed record, refused unless it has the
    byte length its ``.json`` recorded (an emptied or torn blob)."""
    path = meta["_stem"] + ".bin"
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise WorkspaceError(f"cannot read record blob {path} "
                             f"({exc.strerror}); workspace is "
                             "corrupt") from None
    if len(blob) != meta.get("blob_length"):
        raise WorkspaceError(
            f"record blob {path} is {len(blob)} bytes but its record "
            f"says {meta.get('blob_length')}; workspace is corrupt")
    return blob


def _read_journal(path: str, end: int, offset: int = 0) -> List[dict]:
    """The journal records between byte *offset* and the committed
    length *end*.

    Bytes past *end* are not part of the workspace and are never read.
    The file must reach *end*, the last byte before it must end a line,
    and every line must decode, or :class:`WorkspaceError`.
    """
    size = os.path.getsize(path) if os.path.exists(path) else 0
    if size < end:
        raise WorkspaceError(
            f"{path} is {size} bytes, shorter than the {end} bytes the "
            "checkpoint committed; workspace is corrupt")
    if offset == end:
        return []
    with open(path, "rb") as handle:
        handle.seek(offset)
        *lines, tail = handle.read(end - offset).split(b"\n")
    if tail:
        raise WorkspaceError(f"{path} is corrupt: the line at byte "
                             f"{end - len(tail)} has no newline")
    records = []
    for raw in lines:
        try:
            records.append(json.loads(raw))
        except ValueError:
            raise WorkspaceError(
                f"{path} is corrupt: the line at byte {offset} does not "
                "decode") from None
        offset += len(raw) + 1
    return records


def _seed_from_line(line, where: str):
    """The valuable seed the coverage-journal line *where* records."""
    from repro.core.seedpool import ValuableSeed  # late: avoid cycle

    keys = ("packet", "model_name", "exec", "sim_time_ms", "edges_touched",
            "path_hash")
    missing = [key for key in keys if key not in line] \
        if isinstance(line, dict) else list(keys)
    if missing:
        raise WorkspaceError(f"{where} is not a seed line (no {missing[0]!r}"
                             "); workspace is corrupt")
    try:
        packet = bytes.fromhex(line["packet"])
    except (TypeError, ValueError):
        raise WorkspaceError(f"{where} holds a packet that is not hex; "
                             "workspace is corrupt") from None
    return ValuableSeed(packet, *(line[key] for key in keys[1:]))


def _is_stem(stem) -> bool:
    """True for a record stem :meth:`CampaignWorkspace.record_crash`
    can write: a slug, never a path or a dot name."""
    return isinstance(stem, str) and fs_slug(stem) == stem \
        and bool(stem.strip("."))


def _commit_point(state: dict) -> Tuple[Dict[str, int], Dict[str, list]]:
    """What a checkpoint depends on: committed journal lengths and the
    record stems of each record directory, validated."""
    journals, records = state.get("journals"), state.get("records")
    if not (isinstance(journals, dict)
            and sorted(journals) == sorted(_JOURNALS)
            and all(type(length) is int and length >= 0
                    for length in journals.values())):
        raise WorkspaceError(
            f"checkpoint journals {journals!r} are not the committed "
            f"lengths of {', '.join(_JOURNALS)}; workspace is corrupt")
    if not (isinstance(records, dict)
            and sorted(records) == sorted(_RECORD_DIRS)
            and all(isinstance(stems, list) and all(map(_is_stem, stems))
                    for stems in records.values())):
        raise WorkspaceError(
            f"checkpoint records {records!r} do not name record stems of "
            f"{', '.join(_RECORD_DIRS)}; workspace is corrupt")
    return journals, records


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
        self.repro_dir = os.path.join(self.root, "repro")
        self.inbox_dir = os.path.join(self.root, "inbox")
        self._config_path = os.path.join(self.root, "config.json")
        self._state_path = os.path.join(self.root, "state.json")
        self._coverage_path = os.path.join(self.root, "coverage.jsonl")
        self._result_path = os.path.join(self.root, "result.json")
        #: fleet corpus-sync high-water mark: how many sync rounds this
        #: campaign has *applied*.  Persisted with every checkpoint, so a
        #: kill between import application and the post-import checkpoint
        #: replays the round instead of double-importing.  Always 0
        #: outside a fleet.
        self.synced_rounds = 0
        #: committed byte length of each journal (the last checkpoint's)
        self._committed = {name: 0 for name in _JOURNALS}
        #: record stems per record directory: committed, then waiting
        self._stems: Dict[str, List[str]] = \
            {name: [] for name in _RECORD_DIRS}
        #: journal lines waiting for the next checkpoint, per journal
        self._waiting_lines: Dict[str, List[str]] = \
            {name: [] for name in _JOURNALS}
        #: records waiting for the next checkpoint: (dir, stem, blob, meta)
        self._waiting_records: List[Tuple[str, str, bytes, dict]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def has_state(self) -> bool:
        return os.path.exists(self._state_path)

    def initialize(self, engine_name: str, target_name: str, seed: int,
                   config_dict: dict) -> None:
        """Create a fresh workspace; refuses to clobber an existing one.

        The workspace directory, and any missing ancestor, is made
        durable as it is created.  The empty journals and record
        directories are created before the manifest, whose directory
        fsync makes them durable with it.
        """
        if self.has_state:
            raise WorkspaceError(
                f"workspace {self.root} already holds campaign state; "
                "use `peachstar resume` (or a fresh directory) instead")
        _make_dirs(self.root)
        for name in _RECORD_DIRS:
            os.makedirs(os.path.join(self.root, name), exist_ok=True)
        for name in _JOURNALS:
            with open(os.path.join(self.root, name), "wb"):
                pass
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
    # records (wait in memory until the next checkpoint commits them)
    # ------------------------------------------------------------------

    def record_sample(self, execution: int, hours: float,
                      paths: int) -> None:
        self._waiting_lines["series.jsonl"].append(json.dumps(
            {"exec": execution, "hours": hours, "paths": paths}) + "\n")

    def record_seed(self, seed, bucketed: List[List[int]],
                    sync: Optional[Tuple[int, int, int]] = None) -> None:
        """Record one valuable seed as a coverage-journal line.

        *bucketed* is the seed's map as the journal stores it (see
        :func:`bucketed_hits`); the packet (hex) and the seed metadata
        ride beside it.  A fleet-sync import passes *sync*, its
        ``(sync_round, src_shard, src_exec)`` provenance.  Lines keep
        the seed pool's order, so restore rebuilds the pool from them.
        """
        line = {"exec": seed.execution_index, "path_hash": seed.path_hash,
                "map": bucketed, "packet": seed.packet.hex(),
                "model_name": seed.model_name,
                "sim_time_ms": seed.sim_time_ms,
                "edges_touched": seed.edges_touched}
        if sync is not None:
            line["sync_round"], line["src_shard"], line["src_exec"] = sync
        self._waiting_lines["coverage.jsonl"].append(json.dumps(line) + "\n")

    def record_crash(self, report: CrashReport, hours: float) -> None:
        """Record one *new unique* finding: a crash in ``crashes/``, a
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
            directory = "crashes"
            meta["call_sites"] = list(report.call_sites)
            if report.trace is not None:
                # session crash: the provoking step is in .bin; the full
                # trace needed to reproduce it rides along in the metadata
                meta["trace"] = report.trace.hex()
                meta["crash_step"] = report.crash_step
        else:
            directory = "divergences"
            meta["oracle"] = oracle
        stem = fs_slug(f"{report.kind}_{report.site}")
        # the checkpoint's stem list keeps discovery order
        self._stems[directory].append(stem)
        self._waiting_records.append((directory, stem, report.packet, meta))

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
        redone produces byte-identical files.  Nothing is fsynced here:
        :meth:`sync_inbox_round` commits the staged round.
        """
        directory = self.inbox_round_dir(sync_round)
        os.makedirs(directory, exist_ok=True)
        _write_record(os.path.join(directory,
                                   f"s{src_shard:03d}_{src_exec:07d}"),
                      packet, meta)

    def sync_inbox_round(self, sync_round: int) -> None:
        """Make a staged round durable: every record in it, then its
        directory and the directories that staging may have created."""
        directory = self.inbox_round_dir(sync_round)
        if not os.path.isdir(directory):
            return
        for name in sorted(os.listdir(directory)):
            _fsync_path(os.path.join(directory, name))
        for path in (directory, self.inbox_dir, self.root):
            _fsync_path(path)

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

    def _commit(self) -> None:
        """Write everything waiting and make it durable: the records
        and their directories, then one append per journal."""
        directories = set()
        for directory, stem, blob, meta in self._waiting_records:
            stem = os.path.join(self.root, directory, stem)
            _write_record(stem, blob, meta)
            _fsync_path(stem + ".bin")
            _fsync_path(stem + ".json")
            directories.add(directory)
        self._waiting_records.clear()
        for directory in sorted(directories):
            _fsync_path(os.path.join(self.root, directory))
        for name, lines in self._waiting_lines.items():
            if lines:
                data = "".join(lines).encode("utf-8")
                _append_durably(os.path.join(self.root, name), data)
                self._committed[name] += len(data)
                lines.clear()

    def checkpoint(self, engine) -> None:
        """Group commit: make every record and journal line since the
        last checkpoint durable, then atomically replace ``state.json``
        with a snapshot of every piece of mutable engine state that
        names them."""
        self._commit()
        state = {
            "format": STATE_FORMAT,
            "synced_rounds": self.synced_rounds,
            "target_executions": engine.target.executions,
            "clock_ms": engine.clock.now_ms,
            "rng_state": _rng_state_to_json(engine.rng.getstate()),
            "stats": engine.stats.as_dict(),
            "edges_seen": engine.seed_pool.coverage.edges_seen,
            "journals": dict(self._committed),
            "records": {name: list(stems)
                        for name, stems in self._stems.items()},
        }
        corpus = getattr(engine, "corpus", None)
        if corpus is not None:
            state["puzzle_corpus"] = {
                "rng_state": _rng_state_to_json(corpus.rng.getstate()),
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

    def _rewind(self, journals: Dict[str, int], records: Dict[str, list]
                ) -> Dict[str, List[dict]]:
        """Cut the files back to a commit point: truncate each journal
        to its committed length and delete the record files it does not
        name.  Returns each journal's committed lines."""
        self._committed = dict(journals)
        self._stems = {name: list(stems) for name, stems in records.items()}
        for name in _RECORD_DIRS:
            directory = os.path.join(self.root, name)
            if not os.path.isdir(directory):
                continue
            named = set(records[name])
            for entry in sorted(os.listdir(directory)):
                if os.path.splitext(entry)[0] not in named:
                    os.unlink(os.path.join(directory, entry))
        read = {}
        for name, committed in journals.items():
            path = os.path.join(self.root, name)
            if os.path.exists(path) and os.path.getsize(path) > committed:
                os.truncate(path, committed)
            read[name] = _read_journal(path, committed)
        return read

    def discard_uncommitted(self) -> None:
        """Rewind a workspace that has no checkpoint to empty: whatever
        a first checkpoint that never completed left is dropped."""
        self._rewind({name: 0 for name in _JOURNALS},
                     {name: [] for name in _RECORD_DIRS})

    def restore(self, engine) -> List[Tuple[float, int]]:
        """Rewind *engine* to the last checkpoint; returns the series.

        The files are cut back to what the checkpoint committed — the
        resumed loop re-executes the window after it and regenerates the
        rest identically.  Every journal must reach its committed
        length, every named record must load, and the coverage journal
        must rebuild the checkpoint's edge count, or the workspace is
        refused as corrupt.
        """
        state = self.load_state()
        journals, records = _commit_point(state)
        self.synced_rounds = state.get("synced_rounds", 0)

        engine.rng.setstate(_rng_state_from_json(state["rng_state"]))
        engine.clock.now_ms = state["clock_ms"]
        engine.target.executions = state["target_executions"]
        for name, value in state["stats"].items():
            setattr(engine.stats, name, value)

        read = self._rewind(journals, records)

        # -- crash and divergence records -----------------------------------
        for name, database in (("crashes", engine.crashes),
                               ("divergences", engine.divergences)):
            for meta in self._named_records(name, records[name]):
                database.add(_report_from_meta(meta, _read_blob(meta)),
                             meta["hours"])

        # -- seed pool and global coverage ----------------------------------
        pool = engine.seed_pool
        coverage = pool.coverage
        for number, line in enumerate(read["coverage.jsonl"], 1):
            where = f"{self._coverage_path} line {number}"
            pool.seeds.append(_seed_from_line(line, where))
            try:
                coverage.merge_bucketed(line["map"])
            except (KeyError, TypeError, ValueError, IndexError):
                raise WorkspaceError(f"{where} holds no bucketed map; "
                                     "workspace is corrupt") from None
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
                for line in read["series.jsonl"]]

    # ------------------------------------------------------------------
    # readers (used by the fleet driver, triage and the analysis layer)
    # ------------------------------------------------------------------

    def _named_records(self, name: str, stems: List[str]) -> List[dict]:
        """The records of directory *name* a checkpoint names as
        *stems*, in discovery order."""
        metas = []
        for stem in stems:
            path = os.path.join(self.root, name, stem)
            if not os.path.exists(path + ".json"):
                raise WorkspaceError(
                    f"the checkpoint names {path}.json, which is missing; "
                    "workspace is corrupt")
            metas.append(_load_record(path))
        return metas

    def _checkpointed_records(self, name: str) -> List[dict]:
        """The records of directory *name* the checkpoint on disk names
        (none before the first checkpoint)."""
        if not self.has_state:
            return []
        return self._named_records(
            name, _commit_point(self.load_state())[1][name])

    def read_coverage_journal(self, offset: int = 0
                              ) -> Tuple[int, List[dict]]:
        """The coverage-journal lines from byte *offset* up to the
        length the checkpoint on disk commits, and that length, the
        offset to read on from (no lines before the first checkpoint)."""
        end = 0
        if self.has_state:
            end = _commit_point(self.load_state())[0]["coverage.jsonl"]
        return end, _read_journal(self._coverage_path, end, offset)

    #: the blob of a record this workspace listed (an inbox entry)
    read_blob = staticmethod(_read_blob)

    def load_crash_reports(self) -> List[CrashReport]:
        """Every persisted unique finding in discovery order, crashes
        first, then divergences (the triage input)."""
        return [_report_from_meta(meta, _read_blob(meta))
                for name in _RECORD_DIRS
                for meta in self._checkpointed_records(name)]

    def crash_times(self) -> Dict[tuple, float]:
        return {(meta["kind"], meta["site"]): meta["hours"]
                for meta in self._checkpointed_records("crashes")}

    def corpus_path_hashes(self) -> List[int]:
        """path_hash of every persisted valuable seed, discovery order."""
        return [line["path_hash"]
                for line in self.read_coverage_journal()[1]]

    def corpus_packets(self) -> List[bytes]:
        return [bytes.fromhex(line["packet"])
                for line in self.read_coverage_journal()[1]]
