"""Node-local persisted outputs and the coordinator's damage inventory.

On-disk layout (``repro.dfs``-compatible: one directory per node, one
single-replica file per stored object, exactly what a collocated
compute/storage node loses when it dies)::

    <root>/node03/map/job2/task1000007/part0.bin      one shuffle slice
    <root>/node03/map/job2/task1000007/meta.json      task id, origin, counts
    <root>/node03/reduce/job1/part2/s1of3.bin         one stored piece

Records are framed binary — 8-byte big-endian key, 4-byte length, value —
so a partition's bytes are a pure function of its record multiset and the
final-output checksum is comparable byte-for-byte across backends
(:func:`chain_checksum` is the single definition both the in-process and
the multi-process backend report).

Writes go through a temp file + ``os.replace`` so a ``SIGKILL`` mid-write
can never surface a torn file as a committed output: the coordinator only
learns about an output from the worker's commit message, which is sent
after the rename.

:class:`ClusterRegistry` is the coordinator-side metadata: which node
persists which map output and which reducer piece — the same shape as
:class:`repro.localexec.engine.LocalCluster`'s in-memory maps.  On a
worker death it produces the damage inventory (lost piece signatures per
partition) the shared recovery planner consumes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional

from repro.localexec.records import Record, split_of
from repro.runtime.recovery import PARENT_STRIDE, STRIDE, PieceSignature

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the baked toolchain
    _np = None

_KEY = struct.Struct(">QI")


# --------------------------------------------------------------- record codec
def _encode_uniform(records: list, values: list, length: int) -> bytes:
    """Encode a uniform-value-length batch into one preallocated output
    buffer: the frames form an ``n x (12 + length)`` matrix, so keys,
    the constant length field, and the value blob each land with a
    single vectorized column write — no per-record Python bytecode on
    the ~2M-frame batches the shuffle writes."""
    n = len(records)
    out = _np.empty((n, _KEY.size + length), dtype=_np.uint8)
    keys = _np.array([rec.key for rec in records], dtype=_np.uint64)
    out[:, :8] = keys.astype(">u8").view(_np.uint8).reshape(n, 8)
    out[:, 8:12] = _np.frombuffer(struct.pack(">I", length), _np.uint8)
    if length:
        out[:, 12:] = _np.frombuffer(b"".join(values),
                                     _np.uint8).reshape(n, length)
    return out.tobytes()


def encode_records(records: Iterable[Record]) -> bytes:
    """Canonical framed encoding of a record sequence.

    The hot path: every real workload here carries uniform-size values,
    so the frames are a fixed-stride matrix and the whole batch encodes
    with three vectorized column writes into one preallocated buffer
    instead of a two-entries-per-record Python list joined at the end
    (``benchmarks/common.py::codec_bench`` measures the difference).
    Ragged values — and keys outside the u64 range numpy can vectorize,
    which ``pack`` rejects below anyway — take the per-record loop."""
    records = records if isinstance(records, list) else list(records)
    if not records:
        return b""
    if _np is not None:
        values = [rec.value for rec in records]
        lengths = list(map(len, values))
        if min(lengths) == max(lengths):
            try:
                return _encode_uniform(records, values, lengths[0])
            except OverflowError:
                pass
    parts = []
    for rec in records:
        parts.append(_KEY.pack(rec.key, len(rec.value)))
        parts.append(rec.value)
    return b"".join(parts)


def iter_record_frames(data):
    """Yield ``(key, start, end)`` raw frame spans of the framed encoding.

    The streaming primitive behind :func:`decode_records` and
    :func:`filter_split`: walking the frames costs two struct reads per
    record and never materializes a ``Record``, which is what the shuffle
    serve path wants — it only needs keys (for split routing) and raw
    byte spans (to forward verbatim).  ``data`` may be ``bytes`` or a
    ``memoryview`` — ``unpack_from`` reads either without copying."""
    offset = 0
    size = len(data)
    while offset < size:
        if size - offset < _KEY.size:
            raise ValueError("truncated record header")
        key, length = _KEY.unpack_from(data, offset)
        end = offset + _KEY.size + length
        if end > size:
            raise ValueError("truncated record value")
        yield key, offset, end
        offset = end


def iter_records(data: bytes):
    """Lazily decode the framed encoding into :class:`Record`s."""
    for key, start, end in iter_record_frames(data):
        yield Record(key, data[start + _KEY.size:end])


def decode_records(data: bytes) -> list[Record]:
    return list(iter_records(data))


def filter_split_spans(data, split_index: int, n_splits: int
                       ) -> list[memoryview]:
    """The frames of ``data`` routing to ``split_index`` of a
    ``n_splits``-way split, as zero-copy ``memoryview`` spans.

    Adjacent kept frames coalesce into single spans, so the common case
    (long runs of same-split keys) yields a short span list the serve
    path can hand to ``socket.sendmsg`` verbatim — the filtered bytes
    are never copied into an intermediate buffer.  The spans alias
    ``data``: callers that outlive ``data`` must join first."""
    mv = data if isinstance(data, memoryview) else memoryview(data)
    if n_splits <= 1:
        return [mv] if len(mv) else []
    merged: list[list[int]] = []
    for key, start, end in iter_record_frames(mv):
        if split_of(key, n_splits) != split_index:
            continue
        if merged and merged[-1][1] == start:
            merged[-1][1] = end
        else:
            merged.append([start, end])
    return [mv[start:end] for start, end in merged]


def filter_split(data: bytes, split_index: int, n_splits: int) -> bytes:
    """Keep only the frames whose key routes to ``split_index`` of a
    ``n_splits``-way reducer split.

    Operates on raw frame spans — no ``Record`` objects, no re-encoding —
    so the shuffle server can filter a requested slice before shipping
    it: a k-way split recomputation then ships 1/k of the partition
    bytes instead of sending everything and letting each split reducer
    throw (k-1)/k of it away client-side.  Frame order is preserved, so
    the concatenation of all ``n_splits`` filtrations is a permutation-
    free repartition of ``data`` and decoding is unchanged."""
    if n_splits <= 1:
        return data
    spans = filter_split_spans(data, split_index, n_splits)
    if not spans:
        return b""
    return b"".join(spans)


def chain_checksum(final_output: dict[int, list[Record]]) -> str:
    """MD5 over the canonical encoding of the chain's final output.

    ``final_output`` maps partition -> records (as returned by
    ``LocalCluster.final_output`` or ``ChainRun.final_output``); records
    are sorted per partition before hashing, so the checksum is independent
    of piece boundaries, split ratios, and execution order."""
    h = hashlib.md5()
    for partition in sorted(final_output):
        records = sorted(final_output[partition])
        h.update(_KEY.pack(partition, len(records)))
        h.update(encode_records(records))
    return h.hexdigest()


# ---------------------------------------------------------------- memory tier
class MemoryTier:
    """A write-through RAM cache over a node's on-disk outputs.

    The hot tier of the M3R-style data plane: every committed map slice
    and reduce piece is pinned in memory at commit time and served from
    RAM on the read path (same-worker handoff, shuffle serving), while
    the on-disk file written underneath stays the durability tier RCMP
    recovery depends on.  Above ``budget`` bytes the least-recently-used
    entries *spill* — which here just means eviction, because the disk
    copy was written before the commit message, so a spilled entry is
    re-read from its file on the next access and a ``SIGKILL`` can only
    ever lose what the recovery planner already knows how to recompute.

    Keys are absolute path strings, which makes one tier shareable
    across a worker's chain-namespaced :class:`NodeStore` views and lets
    directory-level invalidation (job drops, hybrid reclaims, chain
    sweeps) evict by path prefix.  Thread-safe: task-slot threads commit
    and read while shuffle-server threads serve."""

    def __init__(self, budget: int):
        if budget <= 0:
            raise ValueError(f"memory tier budget must be positive, "
                             f"got {budget}")
        self.budget = int(budget)
        self._lock = threading.Lock()
        self._entries: dict[str, bytes] = {}  # insertion order = LRU order
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.spills = 0

    def put(self, key: str, data: bytes) -> None:
        """Pin ``data`` under ``key``, evicting LRU entries over budget.

        An object larger than the whole budget is not admitted — it
        would only evict everything else to be evicted itself next."""
        if len(data) > self.budget:
            with self._lock:
                old = self._entries.pop(key, None)
                if old is not None:
                    self.bytes -= len(old)
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= len(old)
            self._entries[key] = data
            self.bytes += len(data)
            while self.bytes > self.budget:
                evicted_key = next(iter(self._entries))
                self.bytes -= len(self._entries.pop(evicted_key))
                self.spills += 1

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            data = self._entries.get(key)
            if data is None:
                self.misses += 1
                return None
            # refresh recency: move to the tail of the insertion order
            del self._entries[key]
            self._entries[key] = data
            self.hits += 1
            return data

    def invalidate(self, key: str) -> None:
        with self._lock:
            data = self._entries.pop(key, None)
            if data is not None:
                self.bytes -= len(data)

    def invalidate_prefix(self, prefix: str) -> int:
        """Evict every entry whose key starts with ``prefix`` (a
        directory subtree being dropped/reclaimed/swept).  Returns the
        number of entries evicted."""
        with self._lock:
            doomed = [k for k in self._entries if k.startswith(prefix)]
            for key in doomed:
                self.bytes -= len(self._entries.pop(key))
            return len(doomed)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"budget": self.budget, "bytes": self.bytes,
                    "entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "spills": self.spills}


# ----------------------------------------------------------------- node store
class NodeStore:
    """One node's single-replica on-disk storage.

    ``chain`` namespaces the layout for the multi-tenant chain service:
    ``chain=None`` keeps the classic single-chain layout
    (``<root>/nodeNNN/...``) byte-for-byte, while a chain id moves every
    file under ``<root>/nodeNNN/chains/<chain>/...`` so concurrent
    chains sharing one worker pool can never collide on a
    ``(job, task)`` or ``(job, partition, split)`` path."""

    def __init__(self, root: str | Path, node: int,
                 chain: Optional[str] = None,
                 memory: Optional[MemoryTier] = None):
        self.node = node
        self.root = Path(root)
        self.chain = chain
        self.memory = memory
        self.dir = self.root / f"node{node:03d}"
        if chain is not None:
            self.dir = self.dir / "chains" / str(chain)

    def for_chain(self, chain: Optional[str]) -> "NodeStore":
        """The same node's store under ``chain``'s namespace (``self``
        when the chain id already matches — the common single-chain
        case pays nothing).  The memory tier is shared across namespace
        views: keys are absolute paths, so entries can never collide."""
        if chain == self.chain:
            return self
        return NodeStore(self.root, self.node, chain=chain,
                         memory=self.memory)

    # -- paths ----------------------------------------------------------
    def map_dir(self, job: int, task_id: int) -> Path:
        return self.dir / "map" / f"job{job}" / f"task{task_id}"

    def map_slice_path(self, job: int, task_id: int, partition: int) -> Path:
        return self.map_dir(job, task_id) / f"part{partition}.bin"

    def piece_path(self, job: int, partition: int, split_index: int,
                   n_splits: int) -> Path:
        return (self.dir / "reduce" / f"job{job}" / f"part{partition}"
                / f"s{split_index}of{n_splits}.bin")

    # -- writes ---------------------------------------------------------
    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # the tmp name carries pid + thread id: a multi-slot worker may
        # execute a re-dispatched duplicate of a task concurrently with
        # the original attempt, and two writers sharing one tmp path
        # could interleave into a torn rename
        tmp = path.with_suffix(
            path.suffix + f".{os.getpid()}-{threading.get_ident()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            # the disk tier is the durability story recovery depends on:
            # fsync before the rename so the committed name can never
            # point at data the page cache lost in a host crash
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The one tolerated crash window: dying *between* the write and
        # the rename leaves a stale ``*.tmp`` the committed name never
        # points at — the commit message is only sent after the rename,
        # so the coordinator treats the task as never-completed and
        # recomputes it; the orphan tmp is swept with its job directory.

    def _commit(self, path: Path, data: bytes) -> None:
        """Write-through commit: durable file first, then pin the bytes
        hot in the memory tier (commit order matters — a reader must
        never see a memory entry whose disk copy could still be lost to
        a ``SIGKILL``)."""
        self._write_atomic(path, data)
        if self.memory is not None:
            self.memory.put(str(path), data)

    def write_map_output(self, job: int, task_id: int,
                         origin: Optional[tuple[int, int]],
                         slices: dict[int, list[Record]]) -> dict[int, int]:
        """Persist one mapper's per-partition shuffle slices; returns the
        per-partition record counts (the commit message payload)."""
        counts = {}
        for partition, records in slices.items():
            self._commit(self.map_slice_path(job, task_id, partition),
                         encode_records(records))
            counts[partition] = len(records)
        meta = {"task_id": task_id, "origin": origin, "counts": counts}
        self._write_atomic(self.map_dir(job, task_id) / "meta.json",
                           json.dumps(meta).encode())
        return counts

    def write_piece(self, job: int, partition: int, split_index: int,
                    n_splits: int, records: list[Record]) -> int:
        self._commit(self.piece_path(job, partition, split_index, n_splits),
                     encode_records(records))
        return len(records)

    def write_piece_bytes(self, job: int, partition: int, split_index: int,
                          n_splits: int, data: bytes) -> None:
        """Persist an already-encoded piece verbatim (replica writes: the
        bytes arrive over the shuffle transport from the primary holder
        and must land byte-identical, behind the same atomic rename)."""
        self._commit(self.piece_path(job, partition, split_index, n_splits),
                     data)

    # -- reads ----------------------------------------------------------
    def read_map_slice(self, job: int, task_id: int, partition: int) -> bytes:
        """A mapper's slice for one partition (empty when the mapper
        produced no record for it)."""
        path = self.map_slice_path(job, task_id, partition)
        if self.memory is not None:
            data = self.memory.get(str(path))
            if data is not None:
                return data
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return b""
        if self.memory is not None:  # spilled entry reloads on access
            self.memory.put(str(path), data)
        return data

    def read_piece(self, job: int, partition: int, split_index: int,
                   n_splits: int) -> bytes:
        path = self.piece_path(job, partition, split_index, n_splits)
        if self.memory is not None:
            data = self.memory.get(str(path))
            if data is not None:
                return data
        data = path.read_bytes()
        if self.memory is not None:
            self.memory.put(str(path), data)
        return data

    # -- invalidation ---------------------------------------------------
    def drop_map_output(self, job: int, task_id: int) -> None:
        """Delete one persisted map output (the Fig. 5 guard)."""
        directory = self.map_dir(job, task_id)
        if self.memory is not None:
            self.memory.invalidate_prefix(str(directory))
        if not directory.is_dir():
            return
        for path in directory.iterdir():
            path.unlink(missing_ok=True)
        directory.rmdir()

    def drop_piece(self, job: int, partition: int, split_index: int,
                   n_splits: int) -> int:
        """Delete one committed reduce piece (the losing speculative
        attempt's output — the winner's copy on another node is the one
        the registry references).  Returns the bytes freed; missing file
        (the loser never wrote, or was already swept) frees nothing."""
        path = self.piece_path(job, partition, split_index, n_splits)
        if self.memory is not None:
            self.memory.invalidate(str(path))
        try:
            freed = path.stat().st_size
        except OSError:
            return 0
        path.unlink(missing_ok=True)
        return freed

    def _rm_tree(self, directory: Path) -> int:
        """Delete a job subtree bottom-up with real ``os.unlink``s;
        returns the bytes freed.  The memory tier drops the subtree's
        entries first so a concurrent reader can never be served bytes
        whose backing files are gone."""
        if self.memory is not None:
            self.memory.invalidate_prefix(str(directory))
        freed = 0
        if not directory.is_dir():
            return 0
        for path in sorted(directory.rglob("*"), reverse=True):
            if path.is_dir():
                path.rmdir()
            else:
                freed += path.stat().st_size
                path.unlink(missing_ok=True)
        directory.rmdir()
        return freed

    def drop_job(self, job: int) -> int:
        """Delete every file of one job — map slices, metas, and reducer
        pieces (orphan sweep before an OPTIMISTIC rerun).  Returns the
        bytes freed."""
        return (self._rm_tree(self.dir / "map" / f"job{job}")
                + self._rm_tree(self.dir / "reduce" / f"job{job}"))

    def sweep_chain(self, keep_reduce_jobs: Iterable[int]) -> int:
        """Close-time hygiene for a finished chain's namespace: delete
        every map output and every reduce job **not** in
        ``keep_reduce_jobs`` (the jobs the cross-run cache registered),
        then remove the namespace dir if nothing is left.  Returns the
        bytes freed."""
        if self.chain is None:
            raise ValueError("sweep_chain only applies to chain "
                             "namespaces")
        keep = set(keep_reduce_jobs)
        freed = self._rm_tree(self.dir / "map")
        root = self.dir / "reduce"
        if root.is_dir():
            for directory in sorted(root.iterdir()):
                if not directory.name.startswith("job"):
                    continue
                try:
                    job = int(directory.name[3:])
                except ValueError:
                    continue
                if job not in keep:
                    freed += self._rm_tree(directory)
            try:
                root.rmdir()
            except OSError:
                pass
        try:
            self.dir.rmdir()
        except OSError:
            pass
        return freed

    def reclaim_jobs(self, map_upto: int, piece_upto: int) -> int:
        """Hybrid reclamation (§IV-C) on a linear chain: delete persisted
        map outputs of jobs ``<= map_upto`` and reducer pieces of jobs
        ``<= piece_upto`` (the data behind an anchor sits safely in the
        replicated anchor output).  Returns the bytes freed."""
        return self.reclaim_job_sets(range(1, map_upto + 1),
                                     range(1, piece_upto + 1))

    def reclaim_job_sets(self, map_jobs: Iterable[int],
                         piece_jobs: Iterable[int]) -> int:
        """Set-based reclamation for DAGs: delete map outputs of the
        jobs in ``map_jobs`` and reducer pieces of the jobs in
        ``piece_jobs`` — the shielded cut behind the anchor frontier,
        which on a DAG need not be a contiguous index range.  Returns
        the bytes freed."""
        freed = 0
        for kind, jobs in (("map", set(map_jobs)),
                           ("reduce", set(piece_jobs))):
            root = self.dir / kind
            if not root.is_dir():
                continue
            for directory in root.iterdir():
                if not directory.name.startswith("job"):
                    continue
                try:
                    job = int(directory.name[3:])
                except ValueError:
                    continue
                if job in jobs:
                    freed += self._rm_tree(directory)
        return freed


# ------------------------------------------------------------------- registry
@dataclass(frozen=True)
class MapEntry:
    """The coordinator's record of one persisted map output."""

    job: int
    task_id: int
    node: int
    origin: Optional[tuple[int, int]]
    counts: dict[int, int] = field(hash=False, default_factory=dict)


@dataclass(frozen=True)
class PieceEntry:
    """The coordinator's record of one stored reducer piece.

    ``chain`` is the namespace the backing file lives in when it is
    *not* the owning chain's own — the cross-run cache adopts pieces in
    a donor chain's namespace.  ``None`` (the default, and the only
    value outside the cache path) means the owning chain's namespace.
    Replica copies are always written into the owning namespace, so a
    promotion after a death re-points to an own-namespace file."""

    job: int
    partition: int
    split_index: int
    n_splits: int
    node: int
    n_records: int
    chain: Optional[str] = None

    @property
    def signature(self) -> PieceSignature:
        return (self.split_index, self.n_splits)

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.job, self.partition, self.split_index, self.n_splits)


@dataclass(frozen=True)
class BlockSpec:
    """One map-task input block under the current upstream layout.

    ``source`` locates the bytes: ``("input", node, start, count)`` — a
    slice of the node's generated chain input — or
    ``("piece", job, partition, split_index, n_splits, node, start,
    count, chain)`` — a record range of a stored upstream piece, where
    the trailing ``chain`` names the namespace the piece lives in
    (``None`` = the task's own chain; a donor chain id for pieces the
    cross-run cache adopted)."""

    task_id: int
    node: int          # where the input bytes are stored (data-locality)
    source: tuple
    origin: Optional[tuple[int, int]]


class ClusterRegistry:
    """What every node persists, and what a death destroys.

    The multi-process mirror of :class:`LocalCluster`'s storage maps:
    ``map_outputs`` and ``pieces`` track committed on-disk outputs by
    owning node; :meth:`record_death` removes a dead node's entries and
    files the lost piece signatures as the damage inventory the recovery
    planner consumes.

    Replication (REPL-k baselines and hybrid anchors, §IV-C): every
    stored piece has a *holder set* — the nodes with a byte-identical
    copy on disk.  ``pieces`` keeps exactly one entry per signature (the
    primary, whose node serves reads); ``replicas`` tracks the full
    holder set.  A death removes the dead node from every holder set and
    **promotes** a surviving holder to primary instead of filing damage —
    only a piece whose last copy died becomes damage."""

    def __init__(self) -> None:
        #: (job, task_id) -> MapEntry
        self.map_outputs: dict[tuple[int, int], MapEntry] = {}
        #: job -> partition -> list[PieceEntry], sorted like the engine
        self.pieces: dict[int, dict[int, list[PieceEntry]]] = {}
        #: job -> partition -> lost piece signatures
        self.damage: dict[int, dict[int, list[PieceSignature]]] = {}
        #: piece key -> holder nodes (primary included)
        self.replicas: dict[tuple[int, int, int, int], set[int]] = {}
        #: job -> replication target its output must maintain (REPL-k:
        #: every committed job; HYBRID: the anchor jobs)
        self.replicated_jobs: dict[int, int] = {}

    # -- commits --------------------------------------------------------
    def add_map(self, entry: MapEntry) -> None:
        self.map_outputs[(entry.job, entry.task_id)] = entry

    def add_piece(self, entry: PieceEntry) -> None:
        bucket = self.pieces.setdefault(entry.job, {}).setdefault(
            entry.partition, [])
        for old in bucket:
            if old.signature == entry.signature:
                self.replicas.pop(old.key, None)
        bucket[:] = [p for p in bucket if p.signature != entry.signature]
        bucket.append(entry)
        bucket.sort(key=lambda p: (p.n_splits, p.split_index))
        self.replicas[entry.key] = {entry.node}

    def add_replica(self, job: int, partition: int, split_index: int,
                    n_splits: int, node: int) -> None:
        """Register one committed replica copy of a stored piece."""
        key = (job, partition, split_index, n_splits)
        if key not in self.replicas:
            raise KeyError(f"no primary piece for replica {key}")
        self.replicas[key].add(node)

    def holders(self, job: int, partition: int, split_index: int,
                n_splits: int) -> set[int]:
        return set(self.replicas.get(
            (job, partition, split_index, n_splits), ()))

    def mark_replicated(self, job: int, target: int) -> None:
        """Record that ``job``'s output must maintain ``target`` copies
        (re-replication restores the invariant after deaths)."""
        self.replicated_jobs[job] = target

    def under_replicated(self, n_alive: int) -> list[PieceEntry]:
        """Pieces of replication-tracked jobs holding fewer copies than
        their target (capped at the surviving-node count), ascending."""
        out: list[PieceEntry] = []
        for job in sorted(self.replicated_jobs):
            want = min(self.replicated_jobs[job], n_alive)
            for partition in sorted(self.pieces.get(job, {})):
                for entry in self.pieces[job][partition]:
                    if len(self.replicas.get(entry.key, ())) < want:
                        out.append(entry)
        return out

    def drop_map(self, job: int, task_id: int) -> Optional[MapEntry]:
        return self.map_outputs.pop((job, task_id), None)

    def drop_job(self, job: int) -> tuple[list[MapEntry],
                                          list[tuple[PieceEntry,
                                                     set[int]]]]:
        """Forget every output of one job (full re-execution recovery).

        Returns the dropped map entries and ``(piece, holder set)``
        pairs so the coordinator can sweep the backing files off the
        worker disks — dropping metadata alone leaks orphan files."""
        maps = []
        for key in [k for k in self.map_outputs if k[0] == job]:
            maps.append(self.map_outputs.pop(key))
        dropped_pieces = []
        for plist in self.pieces.pop(job, {}).values():
            for entry in plist:
                dropped_pieces.append(
                    (entry, self.replicas.pop(entry.key, {entry.node})))
        self.damage.pop(job, None)
        self.replicated_jobs.pop(job, None)
        return maps, dropped_pieces

    def reclaim_through(self, map_upto: int, piece_upto: int) -> None:
        """Forget reclaimed outputs (hybrid §IV-C) on a linear chain:
        map outputs of jobs ``<= map_upto``, pieces of jobs
        ``<= piece_upto``."""
        self.reclaim_job_sets(range(1, map_upto + 1),
                              range(1, piece_upto + 1))

    def reclaim_job_sets(self, map_jobs: Iterable[int],
                         piece_jobs: Iterable[int]) -> None:
        """Forget reclaimed outputs of explicit job sets (the DAG
        shielded cut).  The files are deleted by the workers; the
        registry must forget them too or a later death would file damage
        pointing at unlinked paths."""
        map_set, piece_set = set(map_jobs), set(piece_jobs)
        for key in [k for k in self.map_outputs if k[0] in map_set]:
            del self.map_outputs[key]
        for job in [j for j in self.pieces if j in piece_set]:
            for plist in self.pieces.pop(job).values():
                for entry in plist:
                    self.replicas.pop(entry.key, None)
            self.damage.pop(job, None)
            self.replicated_jobs.pop(job, None)

    # -- failure --------------------------------------------------------
    def record_death(self, node: int,
                     completed_jobs: int | Iterable[int]) -> None:
        """Remove the dead node's outputs; file damage for committed jobs.

        A piece with surviving replica holders is *promoted* — its
        primary entry re-points to a surviving holder — and never becomes
        damage.  Losses in a not-yet-committed job are not damage either:
        the job will simply re-run its missing work.  Only last-copy
        losses in committed jobs get signatures filed for the planner;
        ``completed_jobs`` is the done set — an int is the classic chain
        prefix ``1..k``, an iterable the explicit (possibly non-prefix)
        DAG done set."""
        if isinstance(completed_jobs, int):
            done = set(range(1, completed_jobs + 1))
        else:
            done = set(completed_jobs)
        for key in [k for k, m in self.map_outputs.items()
                    if m.node == node]:
            del self.map_outputs[key]
        for job, partitions in self.pieces.items():
            for partition, plist in list(partitions.items()):
                if not any(p.node == node for p in plist):
                    continue
                kept: list[PieceEntry] = []
                for p in plist:
                    if p.node != node:
                        kept.append(p)
                        continue
                    survivors = self.replicas.get(p.key, set()) - {node}
                    if survivors:
                        self.replicas[p.key] = survivors
                        # replicas live in the owning chain's own
                        # namespace, so promotion clears any donor chain
                        kept.append(replace(p, node=min(survivors),
                                            chain=None))
                        continue
                    self.replicas.pop(p.key, None)
                    if job in done:
                        self.damage.setdefault(job, {}).setdefault(
                            partition, []).append(p.signature)
                partitions[partition] = kept
        for holders in self.replicas.values():
            holders.discard(node)

    def damaged_jobs(self) -> list[int]:
        return sorted(j for j, d in self.damage.items()
                      if any(d.values()))

    # -- queries --------------------------------------------------------
    def map_tasks_of(self, job: int) -> list[int]:
        return sorted(t for (j, t) in self.map_outputs if j == job)

    def covered(self, job: int, partition: int) -> bool:
        """Whether the stored pieces cover the partition exactly once."""
        plist = self.pieces.get(job, {}).get(partition, [])
        return abs(sum(1.0 / p.n_splits for p in plist) - 1.0) <= 1e-9

    def coverage_complete(self, job: int, n_partitions: int) -> bool:
        return all(self.covered(job, p) for p in range(n_partitions))

    def blocks_for(self, job: int, n_nodes: int, records_per_node: int,
                   records_per_block: int,
                   parents: Optional[tuple[int, ...]] = None
                   ) -> list[BlockSpec]:
        """The map-side input blocks of ``job`` under the current layout.

        ``parents`` is the job's upstream tuple from the dependency
        graph (``None`` = the linear chain: ``(job - 1,)``, or the
        computation input for job 1).  Must enumerate exactly like
        ``LocalCluster.input_blocks`` — same task ids, same record
        ranges, same empty-piece handling — or the two backends'
        recomputation would diverge."""
        if parents is None:
            parents = (job - 1,) if job > 1 else ()
        blocks: list[BlockSpec] = []
        if not parents:
            tid = 0
            for node in range(n_nodes):
                for start in range(0, records_per_node, records_per_block):
                    count = min(records_per_block, records_per_node - start)
                    blocks.append(BlockSpec(
                        tid, node, ("input", node, start, count), None))
                    tid += 1
            return blocks
        for pos, parent in enumerate(parents):
            upstream = self.pieces.get(parent)
            if upstream is None:
                raise RuntimeError(f"job {parent} has not produced output")
            if any(self.damage.get(parent, {}).values()):
                raise RuntimeError(
                    f"job {parent} output is damaged; recompute it first")
            for partition in sorted(upstream):
                ordinal = 0
                for piece in upstream[partition]:
                    for start in range(0, max(piece.n_records, 1),
                                       records_per_block):
                        count = min(records_per_block,
                                    max(piece.n_records - start, 0))
                        blocks.append(BlockSpec(
                            pos * PARENT_STRIDE + partition * STRIDE
                            + ordinal, piece.node,
                            ("piece", piece.job, piece.partition,
                             piece.split_index, piece.n_splits, piece.node,
                             start, count, piece.chain),
                            (parent, partition)))
                        ordinal += 1
        return blocks
