"""The worker process: executes tasks against its node-local store.

One worker per simulated node.  The main loop receives commands over the
command pipe; with ``task_slots == 1`` (the default) it executes them
serially — exactly one task at a time, the classic single-slot node —
and with ``task_slots > 1`` it feeds a small pool of slot threads so one
worker process keeps several tasks in flight (the paper's surviving
parallelism, exploited *within* a node).  Map and reduce semantics reuse
the paper's UDFs from :mod:`repro.localexec.records`, so the bytes a
worker persists are identical to what the in-process backend computes
for the same task.

A worker never talks to another worker except through the shuffle:
reduce tasks fetch map-output slices from the mapper nodes' shuffle
servers (local slices are read straight from disk), and a re-homed
mapper fetches its input piece range the same way.  Fetches from
distinct source nodes run **concurrently** through a bounded fetcher
pool over :class:`~repro.runtime.transport.PeerPool`'s persistent
connections, and each response is merged into the reduce groups as it
lands.  When a fetch fails because the source died, the worker reports
``task-failed`` and returns to its loop; the coordinator's heartbeat
expiry declares the death and re-plans.

Epoch hygiene: the coordinator bumps the dispatch epoch on every death
and discards stale results, so the worker skips queued commands from a
cancelled epoch outright, and — before running the first command of a
new epoch — drains the slot pool, so recovery work never interleaves
with a cancelled epoch's stragglers on the same disk.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Callable, Optional

from repro.localexec.records import (
    Record,
    generate_records,
    map_udf,
    partition_of,
    reduce_udf,
)
from repro.runtime import shm, transport
from repro.runtime.protocol import (
    Dropped,
    JobDropped,
    MapDone,
    PieceDropped,
    Ready,
    Reclaimed,
    ReduceDone,
    ReplicaDone,
    TaskError,
    TaskFailed,
)
from repro.runtime.storage import (
    MemoryTier,
    NodeStore,
    filter_split,
    iter_records,
)

#: multiprocessing.Process target — keep the signature pickle-friendly
#: so a spawn start method works where fork is unavailable.

#: data-plane defaults, overridden per run by ``RuntimeConfig``
DEFAULT_OPTIONS = {
    "task_slots": 1,
    "fetch_parallelism": 4,
    "fetch_timeout": 5.0,
    "server_timeout": 30.0,
    "server_split_filter": True,
    "persistent_connections": True,
    "memory_budget": 64 << 20,  # hot-tier bytes per worker; 0 disables
    "shared_memory": False,
    "shm_run": "",  # run-unique segment namespace, set by WorkerPool
}


def worker_main(node: int, root: str, cmd_conn, evt_conn,
                heartbeat_interval: float, seed: int,
                records_per_node: int, value_size: int,
                options: Optional[dict] = None) -> None:
    opts = dict(DEFAULT_OPTIONS)
    opts.update(options or {})
    budget = int(opts["memory_budget"])
    memory = MemoryTier(budget) if budget > 0 else None
    store = NodeStore(root, node, memory=memory)
    evt = transport.LockedConnection(evt_conn)
    # one throttle shared by the task slots and the shuffle server: a
    # "slow" fault paces both, while the heartbeat thread keeps beating
    throttle = transport.Throttle()
    server = transport.ShuffleServer(store, timeout=opts["server_timeout"],
                                     throttle=throttle)
    transport.start_heartbeat(evt, node, heartbeat_interval)
    evt.send(Ready.of(node, port=server.port, pid=os.getpid()))
    worker = _Worker(node, store, evt, seed, records_per_node, value_size,
                     opts, throttle=throttle, server_port=server.port)
    try:
        while True:
            try:
                cmd = cmd_conn.recv()
            except transport.CHANNEL_DOWN:
                break  # coordinator is gone
            if cmd["op"] == "stop":
                break
            worker.dispatch(cmd)
    finally:
        server.close()
        worker.close()


class _SlotPool:
    """N daemon slot threads pulling task commands off one queue."""

    def __init__(self, n: int, run: Callable[[dict], None]):
        self._queue: queue.Queue = queue.Queue()
        self._run = run
        for i in range(n):
            threading.Thread(target=self._loop, name=f"slot{i}",
                             daemon=True).start()

    def _loop(self) -> None:
        while True:
            cmd = self._queue.get()
            try:
                self._run(cmd)
            finally:
                self._queue.task_done()

    def submit(self, cmd: dict) -> None:
        self._queue.put(cmd)

    def drain(self) -> None:
        """Block until every queued and running command has finished."""
        self._queue.join()


class _Worker:
    """Task execution against one node's store."""

    #: ops that run on a slot thread (everything else — ports updates,
    #: drops, sweeps, reclaims — executes inline on the command loop,
    #: which the epoch drain keeps free of concurrent task stragglers)
    TASK_OPS = ("map", "reduce", "replicate")

    def __init__(self, node: int, store: NodeStore,
                 evt: transport.LockedConnection, seed: int,
                 records_per_node: int, value_size: int,
                 options: Optional[dict] = None,
                 throttle: Optional[transport.Throttle] = None,
                 server_port: Optional[int] = None):
        opts = dict(DEFAULT_OPTIONS)
        opts.update(options or {})
        self.node = node
        self.throttle = throttle or transport.Throttle()
        self.store = store
        self.evt = evt
        self.seed = seed
        self.records_per_node = records_per_node
        self.value_size = value_size
        #: chain id -> (seed, records_per_node, value_size); the fork
        #: arguments register the default (single-chain) namespace, and
        #: the service's chain-open commands add one entry per admitted
        #: chain
        self._chains: dict = {
            None: (seed, records_per_node, value_size)}
        self._stores: dict = {None: store, store.chain: store}
        self.fetch_parallelism = max(1, int(opts["fetch_parallelism"]))
        self.server_split_filter = bool(opts["server_split_filter"])
        self.server_port = server_port
        # a fetch addressed to our own shuffle port short-circuits to the
        # local store (belt-and-braces: task paths also check explicitly
        # so the bytes are attributed to the local counter per task)
        self.pool = transport.PeerPool(
            timeout=opts["fetch_timeout"],
            persistent=opts["persistent_connections"],
            local_port=server_port, local_store=store)
        self.shm_run = str(opts["shm_run"])
        self._shm: Optional[shm.SegmentPublisher] = None
        if opts["shared_memory"] and shm.HAVE_SHM and self.shm_run:
            budget = int(opts["memory_budget"]) or (64 << 20)
            self._shm = shm.SegmentPublisher(self.shm_run, node, budget)
        # one long-lived fetcher pool shared by every task slot — a
        # per-call thread spawn would cost more than the overlap buys
        self._fetchers = (ThreadPoolExecutor(
            max_workers=self.fetch_parallelism,
            thread_name_prefix=f"fetch-node{node}")
            if self.fetch_parallelism > 1 else None)
        slots = max(1, int(opts["task_slots"]))
        self._slots = _SlotPool(slots, self.execute) if slots > 1 else None
        self._ports: dict[int, int] = {}
        self._latest_epoch = -1
        #: (chain, node) -> memoized regenerated chain input
        self._inputs: dict[tuple, list[Record]] = {}
        self._inputs_lock = threading.Lock()

    def close(self) -> None:
        if self._fetchers is not None:
            self._fetchers.shutdown(wait=False)
        self.pool.close()
        if self._shm is not None:
            self._shm.close()

    # -- command routing -------------------------------------------------
    def dispatch(self, cmd: dict) -> None:
        """Route one command from the pipe (main loop thread only)."""
        epoch = cmd.get("epoch")
        if epoch is not None and epoch > self._latest_epoch:
            # first command of a new epoch: quiesce the cancelled
            # epoch's in-flight tasks before anything newer touches the
            # store (queued stale commands fast-skip on the epoch check)
            self._latest_epoch = epoch
            if self._slots is not None:
                self._slots.drain()
        if cmd["op"] == "ports":
            # epoch-cached peer port map: sent once per epoch instead of
            # riding on every task command
            self._ports = dict(cmd["ports"])
            return
        if cmd["op"] == "throttle":
            # a "slow" fault landing: every task and shuffle response
            # from here on runs at 1/factor speed (takes effect
            # immediately, even for tasks already on slot threads)
            self.throttle.set(cmd["factor"])
            return
        if cmd["op"] == "chain-open":
            # service mode: register an admitted chain's input parameters
            # so any slot can regenerate its chain input; pipe ordering
            # guarantees this lands before the chain's first task
            self._chains[cmd["chain"]] = (
                cmd["seed"], cmd["records_per_node"], cmd["value_size"])
            return
        if cmd["op"] == "chain-close":
            # drop the finished chain's in-memory state (its params,
            # store handle, and memoized input); files stay on disk —
            # the coordinator side has already read the final output
            chain = cmd["chain"]
            self._chains.pop(chain, None)
            self._stores.pop(chain, None)
            with self._inputs_lock:
                for key in [k for k in self._inputs if k[0] == chain]:
                    del self._inputs[key]
            return
        if cmd["op"] == "chain-sweep":
            # close-time hygiene: delete the finished chain's namespace
            # files, sparing the reduce jobs the cross-run cache
            # registered.  Fire-and-forget — the chain is already closed,
            # so there is no event stream left to report on, and a
            # filesystem race must not take down the command loop.
            swept_chain, keep = cmd["chain"], set(cmd.get("keep", ()))
            if self._shm is not None:
                self._shm.unpublish_where(
                    lambda i: i[1] == swept_chain
                    and not (i[0] == "piece" and i[2] in keep))
            try:
                self.store.for_chain(swept_chain).sweep_chain(keep)
            except OSError:
                pass
            return
        if self._slots is not None and cmd["op"] in self.TASK_OPS:
            self._slots.submit(cmd)
        else:
            self.execute(cmd)

    def execute(self, cmd: dict) -> None:
        op = cmd.get("op")
        chain = cmd.get("chain")
        if cmd.get("epoch", self._latest_epoch) < self._latest_epoch:
            return  # cancelled epoch: the coordinator discards the result
        try:
            store = self._store(chain)
            if op == "map":
                self._map(cmd, chain, store)
            elif op == "reduce":
                self._reduce(cmd, chain, store)
            elif op == "replicate":
                self._replicate(cmd, chain, store)
            elif op == "drop":
                self._unpublish(lambda i: i[0] == "map" and i[1] == chain
                                and i[2] == cmd["job"]
                                and i[3] == cmd["task"])
                store.drop_map_output(cmd["job"], cmd["task"])
                self._reply(Dropped, cmd)
            elif op == "drop-piece":
                # sweep one losing speculative attempt's reduce output
                if self._shm is not None:
                    self._shm.unpublish(("piece", chain, cmd["job"],
                                         cmd["partition"], cmd["split"],
                                         cmd["n_splits"]))
                freed = store.drop_piece(cmd["job"], cmd["partition"],
                                         cmd["split"], cmd["n_splits"])
                self._reply(PieceDropped, cmd, freed=freed)
            elif op == "drop-job":
                self._unpublish(lambda i: i[1] == chain
                                and i[2] == cmd["job"])
                freed = store.drop_job(cmd["job"])
                self._reply(JobDropped, cmd, freed=freed)
            elif op == "reclaim":
                # the shielded DAG cut behind the anchor frontier (need
                # not be an index prefix)
                map_jobs = set(cmd["map_jobs"])
                piece_jobs = set(cmd["piece_jobs"])
                self._unpublish(
                    lambda i: i[1] == chain
                    and ((i[0] == "map" and i[2] in map_jobs)
                         or (i[0] == "piece" and i[2] in piece_jobs)))
                freed = store.reclaim_job_sets(map_jobs, piece_jobs)
                self._reply(Reclaimed, cmd, freed=freed)
            else:
                raise ValueError(f"unknown op {op!r}")
        except transport.FetchError as exc:
            self._reply(TaskFailed, cmd, op=op, error=str(exc))
        except Exception:
            # a software bug, not a fetch casualty: stay alive and hand
            # the coordinator the traceback, so a deterministic error
            # surfaces as a diagnostic instead of reading as a node
            # death and cascading through recovery
            self._reply(TaskError, cmd, op=op,
                        traceback=traceback.format_exc())

    def _reply(self, event, cmd: dict, **payload) -> None:
        """Send ``event`` answering ``cmd``: its header echoes the
        command's epoch, chain and task key for the coordinator's stale
        guard."""
        self.evt.send(event.of(self.node, cmd.get("epoch"),
                               cmd.get("chain"), cmd.get("key"), **payload))

    def _store(self, chain) -> NodeStore:
        """The chain-namespaced store for one command (cached; benign if
        two slots race the first construction)."""
        store = self._stores.get(chain)
        if store is None:
            store = self._stores[chain] = self.store.for_chain(chain)
        return store

    # -- shared-memory handoff -------------------------------------------
    def _unpublish(self, predicate) -> None:
        if self._shm is not None:
            self._shm.unpublish_where(predicate)

    def _publish(self, identity: tuple, data: bytes) -> None:
        if self._shm is not None:
            self._shm.publish(identity, data)

    def _attach(self, node: int, identity: tuple) -> Optional[bytes]:
        """Try the colocated peer's published segment before its socket
        (``None`` = not published; fall back to TCP)."""
        if self._shm is None:
            return None
        return shm.attach(shm.segment_name(self.shm_run, node, identity))

    # -- input ----------------------------------------------------------
    def _node_input(self, chain, node: int) -> list[Record]:
        """Any worker can regenerate any node's chain input: the input is
        a pure function of the chain's seed (the paper's randomly
        generated binary data), so a re-homed mapper needs no fetch for
        job 1.  Memoized per (chain, node) — a node's stored input is
        generated once, like ``LocalCluster._make_input``."""
        params = self._chains.get(chain)
        if params is None:
            raise RuntimeError(
                f"chain {chain!r} is not open on node {self.node}")
        seed, records_per_node, value_size = params
        with self._inputs_lock:
            records = self._inputs.get((chain, node))
            if records is None:
                records = self._inputs[(chain, node)] = generate_records(
                    records_per_node, seed=seed * 1000 + node,
                    value_size=value_size)
            return records

    def _block_records(self, cmd: dict, chain, store: NodeStore,
                       ports: dict[int, int]
                       ) -> tuple[list[Record], int, int]:
        """Resolve one map-input block; returns ``(records, bytes fetched
        over TCP, bytes resolved locally)`` — local meaning the node's
        own store (memory tier first) or a colocated peer's published
        shared-memory segment, never a socket."""
        source = cmd["source"]
        if source[0] == "input":
            _, node, start, count = source
            return self._node_input(chain, node)[start:start + count], 0, 0
        (_, job, partition, split_index, n_splits, node, start,
         count) = source[:8]
        # a 9th element names the namespace the piece lives in — a donor
        # chain for cache-adopted pieces (8-tuples: the task's own chain)
        src_chain = source[8] if len(source) > 8 else None
        piece_chain = src_chain if src_chain is not None else chain
        fetched = local = 0
        if node == self.node:
            read_store = store if src_chain is None \
                else self._store(src_chain)
            data = read_store.read_piece(job, partition, split_index,
                                         n_splits)
            local = len(data)
        else:
            data = self._attach(node, ("piece", piece_chain, job,
                                       partition, split_index, n_splits))
            if data is not None:
                local = len(data)
            else:
                data = self.pool.fetch_piece(
                    ports[node], job, partition, split_index, n_splits,
                    chain=piece_chain)
                fetched = len(data)
        records = list(iter_records(data))
        return records[start:start + count], fetched, local

    @staticmethod
    def _cmd_ports(cmd: dict, cached: dict[int, int]) -> dict[int, int]:
        """A command may carry an explicit ``ports`` override (unit
        tests, back-compat); otherwise the epoch-cached map applies."""
        return cmd.get("ports", cached)

    # -- parallel fetch --------------------------------------------------
    def _fetch_merge(self, requests: list[tuple[int, dict]],
                     ports: dict[int, int],
                     merge: Callable[[int, bytes], None]) -> int:
        """Fetch from every source node concurrently (bounded fetcher
        pool over persistent connections) and merge each response *as it
        lands* on the calling task thread.  Returns total bytes fetched;
        raises the first :class:`transport.FetchError` after all fetchers
        settle (no fetcher thread is left dangling mid-kill — a dead
        source resolves through the pool's bounded retries)."""
        if not requests:
            return 0
        if self._fetchers is None or len(requests) <= 1:
            total = 0
            for node, request in requests:
                data = self.pool.fetch(ports[node], request)
                total += len(data)
                merge(node, data)
            return total
        futures = {self._fetchers.submit(self.pool.fetch, ports[node],
                                         request): node
                   for node, request in requests}
        total = 0
        error: Optional[Exception] = None
        for future in as_completed(futures):
            node = futures[future]
            try:
                data = future.result()
            except Exception as exc:  # noqa: BLE001 — relayed below
                error = error or exc
                continue
            total += len(data)
            merge(node, data)
        if error is not None:
            raise error
        return total

    # -- tasks -----------------------------------------------------------
    def _map(self, cmd: dict, chain, store: NodeStore) -> None:
        started = time.perf_counter()
        ports = self._cmd_ports(cmd, self._ports)
        job, task_id = cmd["job"], cmd["task"]
        records, fetched, local = self._block_records(cmd, chain, store,
                                                      ports)
        slices: dict[int, list[Record]] = {}
        for record in records:
            out = map_udf(record, job)
            slices.setdefault(
                partition_of(out.key, cmd["n_partitions"]), []).append(out)
        counts = store.write_map_output(job, task_id, cmd["origin"],
                                        slices)
        if self._shm is not None:
            for partition in counts:
                self._publish(
                    ("map", chain, job, task_id, partition),
                    store.read_map_slice(job, task_id, partition))
        # the throttle stretches the task *before* its commit event, so
        # a slow node's commits land at 1/factor speed, not just its slot
        self.throttle.pace(time.perf_counter() - started)
        self._reply(MapDone, cmd, origin=cmd["origin"], counts=counts,
                    fetched=fetched, local=local)

    def _reduce(self, cmd: dict, chain, store: NodeStore) -> None:
        started = time.perf_counter()
        ports = self._cmd_ports(cmd, self._ports)
        job, partition = cmd["job"], cmd["partition"]
        split_index, n_splits = cmd["split"], cmd["n_splits"]
        by_node: dict[int, list[int]] = {}
        for task_id, node in cmd["sources"]:
            by_node.setdefault(node, []).append(task_id)
        server_filter = self.server_split_filter and n_splits > 1
        groups: dict[int, list[bytes]] = {}

        def merge(node: int, data: bytes, filtered: bool) -> None:
            if n_splits > 1 and not filtered:
                data = filter_split(data, split_index, n_splits)
            for record in iter_records(data):
                groups.setdefault(record.key, []).append(record.value)

        # local bytes mirror what the TCP path would have shipped for
        # the same slices (filtered when server-side filtering is on),
        # so tcp + local is comparable across slot/node placements
        local = 0
        requests = []
        for node, tasks in sorted(by_node.items()):
            if node == self.node:
                continue
            remaining = tasks
            if self._shm is not None:  # colocated segments beat sockets
                remaining = []
                for task_id in tasks:
                    data = self._attach(
                        node, ("map", chain, job, task_id, partition))
                    if data is None:
                        remaining.append(task_id)
                        continue
                    if server_filter:
                        data = filter_split(data, split_index, n_splits)
                    local += len(data)
                    merge(node, data, filtered=server_filter)
                if not remaining:
                    continue
            request = {"kind": "maps", "job": job, "tasks": remaining,
                       "partition": partition}
            if chain is not None:
                request["chain"] = chain
            if server_filter:
                request["split"] = split_index
                request["n_splits"] = n_splits
            requests.append((node, request))
        fetched = self._fetch_merge(
            requests, ports,
            lambda node, data: merge(node, data, filtered=server_filter))
        if self.node in by_node:  # local slices never touch the network
            own = b"".join(
                store.read_map_slice(job, task_id, partition)
                for task_id in by_node[self.node])
            if server_filter:
                own = filter_split(own, split_index, n_splits)
            local += len(own)
            merge(self.node, own, filtered=server_filter)
        records = [reduce_udf(key, values)
                   for key, values in sorted(groups.items())]
        n_records = store.write_piece(job, partition, split_index,
                                      n_splits, records)
        if self._shm is not None:
            self._publish(("piece", chain, job, partition, split_index,
                           n_splits),
                          store.read_piece(job, partition, split_index,
                                           n_splits))
        self.throttle.pace(time.perf_counter() - started)
        self._reply(ReduceDone, cmd, n_records=n_records, fetched=fetched,
                    local=local)

    def _replicate(self, cmd: dict, chain, store: NodeStore) -> None:
        """Copy one stored piece from its primary holder to this node's
        disk (REPL-k / hybrid anchors): fetch the encoded bytes over the
        shuffle transport and commit them behind the same atomic rename
        as a locally computed piece — a SIGKILL mid-copy can never leave
        a torn committed replica."""
        ports = self._cmd_ports(cmd, self._ports)
        job, partition = cmd["job"], cmd["partition"]
        split_index, n_splits = cmd["split"], cmd["n_splits"]
        source = cmd["source"]
        if source == self.node:
            raise ValueError(f"node {self.node} asked to replicate its "
                             f"own piece")
        started = time.perf_counter()
        # an adopted piece's primary lives in a donor chain's namespace;
        # the copy is always committed into this chain's own
        src_chain = cmd.get("source_chain")
        piece_chain = src_chain if src_chain is not None else chain
        fetched = local = 0
        data = self._attach(source, ("piece", piece_chain, job, partition,
                                     split_index, n_splits))
        if data is not None:
            local = len(data)
        else:
            data = self.pool.fetch_piece(
                ports[source], job, partition, split_index, n_splits,
                chain=piece_chain)
            fetched = len(data)
        store.write_piece_bytes(job, partition, split_index, n_splits,
                                data)
        # the replica copy is itself attachable: after a promotion this
        # node serves the piece, so publish under our own name
        self._publish(("piece", chain, job, partition, split_index,
                       n_splits), data)
        self.throttle.pace(time.perf_counter() - started)
        self._reply(ReplicaDone, cmd, fetched=fetched, local=local)

