"""Power loss at every durable operation, ALICE-style.

The method of Pillai et al., "All File Systems Are Not Created Equal"
(OSDI 2014): record every file operation a persisted campaign makes,
then rebuild the disk a power loss at operation *k* leaves behind and
resume from it.  The model of what survives is the strict one: file
data only as of its last fsync (unsynced appended bytes are lost), and
directory entries — new files, renames, unlinks — only as of the last
fsync of their directory.

The recorder stands in for ``open`` and ``os`` inside the store module
(the record seam: every workspace file goes through it), so it sees the
writes, renames, truncates and fsyncs exactly as the store issues them.
A crash at *k* is the replay of the log's first *k* operations; states
that several *k* share are resumed once.  From every state, resume must
finish with the uninterrupted run's signature, journal bytes and
crash records — or, before the manifest is durable, report that there
is no workspace.
"""

import builtins
import glob
import os

import pytest

import repro.store.fleet as fleet_store
import repro.store.workspace as store
from repro.core import (
    CampaignConfig, resume_campaign, run_campaign, run_fleet,
)
from repro.protocols import get_target
from repro.store import WorkspaceError

#: a directory in the model (files are inode numbers)
_DIR = "dir"


class _LoggedFile:
    """A file opened for writing: each write is logged."""

    def __init__(self, handle, rel, recorder):
        self._handle, self._rel, self._recorder = handle, rel, recorder

    def write(self, data):
        chunk = data.encode("utf-8") if isinstance(data, str) else data
        self._recorder.ops.append(("write", self._rel, bytes(chunk)))
        return self._handle.write(data)

    def flush(self):
        self._handle.flush()

    def fileno(self):
        return self._handle.fileno()

    def close(self):
        self._recorder.fds.pop(self._handle.fileno(), None)
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _Recorder:
    """Stands in for ``open`` and ``os`` in the store module: performs
    each operation for real and logs those under *root*."""

    def __init__(self, root):
        self.root = root
        self.ops = []
        #: open descriptors under root -> relative path (fsync targets)
        self.fds = {}

    def _rel(self, path):
        path = os.path.abspath(path)
        if path != self.root and \
                not path.startswith(self.root + os.sep):
            return None
        return os.path.relpath(path, self.root)

    def open(self, path, mode="r", *args, **kwargs):
        rel = self._rel(path)
        existed = os.path.exists(path)
        handle = builtins.open(path, mode, *args, **kwargs)
        if rel is None or mode.startswith("r"):
            return handle
        if mode.startswith("w") or not existed:
            self.ops.append(("open", rel, mode.startswith("w")))
        self.fds[handle.fileno()] = rel
        return _LoggedFile(handle, rel, self)

    # -- the os module --------------------------------------------------

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        os.fsync(fd)
        if fd in self.fds:
            self.ops.append(("fsync", self.fds[fd]))

    def close(self, fd):
        self.fds.pop(fd, None)
        os.close(fd)

    def replace(self, src, dst):
        os.replace(src, dst)
        if self._rel(dst) is not None:
            self.ops.append(("rename", self._rel(src), self._rel(dst)))

    def truncate(self, path, length):
        os.truncate(path, length)
        if self._rel(path) is not None:
            self.ops.append(("truncate", self._rel(path), length))

    def unlink(self, path):
        os.unlink(path)
        if self._rel(path) is not None:
            self.ops.append(("unlink", self._rel(path)))

    def mkdir(self, path, *args):
        os.mkdir(path, *args)
        if self._rel(path) is not None:
            self.ops.append(("mkdir", self._rel(path)))

    def makedirs(self, path, exist_ok=False):
        missing = []
        head = os.path.abspath(path)
        while not os.path.exists(head):
            missing.append(head)
            head = os.path.dirname(head)
        os.makedirs(path, exist_ok=exist_ok)
        for created in reversed(missing):
            if self._rel(created) is not None:
                self.ops.append(("mkdir", self._rel(created)))


class _OsView:
    """``os`` as the store modules see it while recording: the
    recorder's stand-ins, and ``os.open`` (the recorder's ``open`` is
    the builtin's)."""

    def __init__(self, recorder):
        self._recorder = recorder

    def open(self, path, flags, *args):
        fd = os.open(path, flags, *args)
        if self._recorder._rel(path) is not None:
            self._recorder.fds[fd] = self._recorder._rel(path)
        return fd

    def __getattr__(self, name):
        return getattr(self._recorder, name)


def _record(monkeypatch, root):
    """Route the store modules' file operations through a recorder."""
    recorder = _Recorder(root)
    monkeypatch.setattr(store, "open", recorder.open, raising=False)
    monkeypatch.setattr(store, "os", _OsView(recorder))
    monkeypatch.setattr(fleet_store, "os", _OsView(recorder))
    return recorder


def _parent(rel):
    return os.path.dirname(rel) or "."


def _durable_disk(ops, k):
    """What survives a power loss before operation *k*: relative path
    -> file bytes, or ``_DIR``."""
    volatile, durable, data, synced = {}, {}, {}, {}
    for op, rel, *args in ops[:k]:
        if op == "open":
            if rel not in volatile:
                volatile[rel] = len(data)
                data[volatile[rel]] = b""
            elif args[0]:
                data[volatile[rel]] = b""
        elif op == "write":
            data[volatile[rel]] += args[0]
        elif op == "truncate":
            data[volatile[rel]] = data[volatile[rel]][:args[0]]
        elif op == "rename":
            volatile[args[0]] = volatile.pop(rel)
        elif op == "unlink":
            del volatile[rel]
        elif op == "mkdir":
            volatile[rel] = _DIR
        elif rel == "." or volatile.get(rel) == _DIR:  # fsync a directory
            for path in set(volatile) | set(durable):
                if _parent(path) == rel:
                    if path in volatile:
                        durable[path] = volatile[path]
                    else:
                        del durable[path]
        else:  # fsync a file
            synced[volatile[rel]] = data[volatile[rel]]

    def reachable(path):
        parent = _parent(path)
        return parent == "." or (durable.get(parent) == _DIR
                                 and reachable(parent))

    return {path: _DIR if inode == _DIR else synced.get(inode, b"")
            for path, inode in durable.items() if reachable(path)}


def _tree(root):
    """The real files and directories under *root*, in the form
    :func:`_durable_disk` returns."""
    tree = {}
    for directory, dirs, files in os.walk(root):
        for name in dirs:
            tree[os.path.relpath(os.path.join(directory, name), root)] = _DIR
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                tree[os.path.relpath(path, root)] = handle.read()
    return tree


def _materialize(disk, root):
    os.makedirs(root)
    for path in sorted(disk, key=lambda rel: rel.count(os.sep)):
        target = os.path.join(root, path)
        if disk[path] == _DIR:
            os.makedirs(target, exist_ok=True)
        else:
            with open(target, "wb") as handle:
                handle.write(disk[path])


def _signature(result):
    return (result.series, result.final_paths, result.final_edges,
            result.executions,
            sorted(report.dedup_key for report in result.unique_crashes),
            result.crash_times, result.stats, result.path_hashes)


def _journals_and_records(root):
    """The bytes of both journals and of every crash/divergence record."""
    paths = [os.path.join(root, name)
             for name in ("coverage.jsonl", "series.jsonl")]
    paths += sorted(glob.glob(os.path.join(root, "crashes", "*")))
    paths += sorted(glob.glob(os.path.join(root, "divergences", "*")))
    files = {}
    for path in paths:
        with open(path, "rb") as handle:
            files[os.path.relpath(path, root)] = handle.read()
    return files


@pytest.mark.parametrize("target_name,overrides,ws", [
    ("libmodbus", dict(max_executions=200), "."),
    ("iec104", dict(max_executions=200, learn_states=True), "."),
    ("libmodbus", dict(max_executions=200), os.path.join("new", "ws")),
], ids=["libmodbus", "iec104-learn-states", "libmodbus-new-root"])
def test_resume_after_power_loss_at_every_operation(
        tmp_path, monkeypatch, target_name, overrides, ws):
    """*ws* is the workspace inside the recorded disk: the disk itself,
    or a root whose parent does not exist yet either, so the campaign
    creates both."""
    spec = get_target(target_name)
    disk_root = str(tmp_path / "disk")
    os.makedirs(disk_root)
    root = os.path.normpath(os.path.join(disk_root, ws))
    config = CampaignConfig(budget_hours=24.0, record_every=10,
                            checkpoint_every=50, workspace=root,
                            **overrides)
    recorder = _record(monkeypatch, disk_root)
    full = run_campaign("peach-star", spec, seed=7, config=config)
    monkeypatch.undo()
    ops = recorder.ops
    assert sum(op == "fsync" for op, *_ in ops) >= 10
    # a finished campaign is durable whole, its directories included
    assert _durable_disk(ops, len(ops)) == _tree(disk_root)
    expected = (_signature(full), _journals_and_records(root))

    seen = set()
    for k in range(len(ops) + 1):
        disk = _durable_disk(ops, k)
        key = tuple(sorted(disk.items()))
        if key in seen:
            continue
        seen.add(key)
        crashed = str(tmp_path / f"crash{k:04d}")
        _materialize(disk, crashed)
        crashed = os.path.normpath(os.path.join(crashed, ws))
        where = f"power loss before operation {k} {ops[k:k + 1]}"
        if os.path.normpath(os.path.join(ws, "config.json")) not in disk:
            with pytest.raises(WorkspaceError, match="no config.json"):
                resume_campaign(crashed)
            continue
        resumed = resume_campaign(crashed)
        assert (_signature(resumed), _journals_and_records(crashed)) == \
            expected, where
    # the states are many: every checkpoint adds durable ones
    assert len(seen) >= 10


def test_sync_round_is_durable_before_sync_state_names_it(tmp_path,
                                                         monkeypatch):
    """A sync phase fsyncs every inbox record it staged, and the
    directories above it, before ``sync_state.json`` names the round:
    a power loss just before that rename keeps the whole round.  The
    fleet creates its root and the root's parent, which stay durable."""
    disk_root = str(tmp_path / "disk")
    os.makedirs(disk_root)
    root = os.path.join(disk_root, "new", "fleet")
    recorder = _record(monkeypatch, disk_root)
    run_fleet("peach-star", get_target("libmodbus"), workspace_dir=root,
              shards=2, seed=5, sync_every=80, max_workers=1,
              config=CampaignConfig(budget_hours=24.0, max_executions=250,
                                    record_every=10, checkpoint_every=50))
    monkeypatch.undo()
    ops = recorder.ops
    sync_state = os.path.join("new", "fleet", "sync_state.json")
    bumps = [k for k, (op, *args) in enumerate(ops)
             if op == "rename" and args[1] == sync_state]
    assert len(bumps) == 3
    staged = 0
    for sync_round, k in enumerate(bumps, 1):
        disk = _durable_disk(ops, k)
        for path in glob.glob(os.path.join(
                root, "shards", "*", "inbox", f"round_{sync_round:03d}",
                "*")):
            with open(path, "rb") as handle:
                assert disk.get(os.path.relpath(path, disk_root)) == \
                    handle.read(), (sync_round, path)
            staged += 1
    assert staged > 0
