"""Per-layer tracing from outside the program.

Timing wrappers are installed over the public functions of each layer,
patched where their callers look them up (``repro.runtime.worker`` binds
its own ``map_udf``, ``iter_records``, ...; methods are patched on their
class).  Nothing under ``src/`` knows it is being traced.

* **Spans** (name, start, end, parent on the same thread) wrap calls that
  do a task's worth of work: a worker ``execute``, a file write, a
  shuffle fetch.
* **Counters** (calls, seconds, hits) wrap per-record and per-event hot
  functions — the UDFs, ``MemoryTier.get``, ``Simulator.step`` — where a
  span per call would cost more than the call.  A counter's seconds are
  subtracted from the span it ran under, so layer times still add up.
  A counter nested in another counter adds its call but not its time
  (the outer one already covers it).

Wrappers are installed before ``WorkerPool.start`` so forked workers
inherit them.  Each worker keeps its spans in memory and writes them to a
spool file when ``worker_main`` returns: workers leave through
``os._exit``, so ``atexit`` never runs, and a SIGKILLed worker's spans are
lost — counted from the coordinator's dispatch log, never a failure.

All timestamps are ``time.monotonic()`` — one system-wide clock on Linux,
so a coordinator dispatch and the worker ``execute`` it caused can be
subtracted across processes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from rcmpbench.spec import median

#: span tuple fields
SID, PARENT, NAME, T0, T1, COUNTED, ATTRS = range(7)

#: worker-side span and counter names, each its own row of the task
#: layer table (``worker.execute`` self time is the worker's own row)
WORKER_LAYERS = ("worker.execute", "storage.write", "storage.fsync",
                 "storage.encode", "storage.decode", "storage.read",
                 "storage.tier_get", "transport.fetch", "transport.wait",
                 "transport.serve", "worker.udf", "worker.input")

#: worker ops that are tasks (the rest are drops, sweeps and reclaims)
TASK_OPS = ("map", "reduce", "replicate")

#: the names whose presence means a runtime layer ran
RUNTIME_NAMES = frozenset(WORKER_LAYERS) | {
    "pool.start", "pool.shutdown", "coordinator.chain",
    "coordinator.dispatch", "coordinator.pump", "recovery.plan",
    "storage.registry", "cache.adopt", "cache.admit"}


class _ThreadState:
    __slots__ = ("stack", "counters", "depth")

    def __init__(self) -> None:
        self.stack: list = []      # open span frames [sid, counted]
        self.counters: dict = {}   # name -> [calls, seconds, hits]
        self.depth = 0             # > 0 while inside a counter


class Recorder:
    """One process's spans, marks and counters, kept in memory."""

    def __init__(self) -> None:
        self.reset("coordinator")

    def reset(self, role: str) -> None:
        """Start empty — a forked worker must drop what it inherited."""
        self.role = role
        self.spans: list[tuple] = []
        #: (time, key) point events: worker event sends
        self.marks: list[tuple] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._tables: list[dict] = []
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        try:
            return self._tls.st
        except AttributeError:
            st = self._tls.st = _ThreadState()
            with self._lock:
                self._tables.append(st.counters)
            return st

    def counters(self) -> dict:
        """Counters merged across threads: name -> [calls, seconds, hits]."""
        merged: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, secs, hits) in list(table.items()):
                row = merged.setdefault(name, [0, 0.0, 0])
                row[0] += calls
                row[1] += secs
                row[2] += hits
        return merged

    def dump(self) -> dict:
        return {"role": self.role, "pid": os.getpid(),
                "spans": [list(s) for s in self.spans],
                "marks": [list(m) for m in self.marks],
                "counters": self.counters()}

    def flush(self, path: Path) -> None:
        tmp = path.with_suffix(".part")
        tmp.write_text(json.dumps(self.dump()))
        os.replace(tmp, path)


# ---------------------------------------------------------------- wrappers
def span_wrapper(rec: Recorder, name: str, fn, attrs=None):
    """Time every call of ``fn`` as a span; ``attrs(args, kwargs, result)``
    (result None when the call raised) adds a small dict to the span."""
    mono = time.monotonic

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = rec.state()
        frame = [next(rec._ids), None]
        parent = st.stack[-1][0] if st.stack else 0
        st.stack.append(frame)
        result = None
        t0 = mono()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = mono()
            st.stack.pop()
            info = attrs(args, kwargs, result) if attrs is not None else None
            rec.spans.append((frame[0], parent, name, t0, t1, frame[1],
                              info))
    return wrapper


def counter_wrapper(rec: Recorder, name: str, fn, hit=None):
    """Count calls and seconds of ``fn``; ``hit(result)`` counts hits."""
    mono = time.monotonic

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = rec.state()
        row = st.counters.get(name)
        if row is None:
            row = st.counters[name] = [0, 0.0, 0]
        if st.depth:
            result = fn(*args, **kwargs)
            row[0] += 1
            if hit is not None and hit(result):
                row[2] += 1
            return result
        st.depth = 1
        t0 = mono()
        try:
            result = fn(*args, **kwargs)
        finally:
            st.depth = 0
        dt = mono() - t0
        row[0] += 1
        row[1] += dt
        if hit is not None and hit(result):
            row[2] += 1
        if st.stack:
            frame = st.stack[-1]
            if frame[1] is None:
                frame[1] = {}
            frame[1][name] = frame[1].get(name, 0.0) + dt
        return result
    return wrapper


def wait_wrapper(rec: Recorder, name: str, fn):
    """Wrap a generator function: each time the caller blocks in
    ``next()`` is one span (``as_completed``: waiting for fetches)."""
    mono = time.monotonic

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            st = rec.state()
            frame = [next(rec._ids), None]
            parent = st.stack[-1][0] if st.stack else 0
            st.stack.append(frame)
            t0 = mono()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                t1 = mono()
                st.stack.pop()
                rec.spans.append((frame[0], parent, name, t0, t1,
                                  frame[1], None))
            yield item
    return wrapper


def mark_wrapper(rec: Recorder, fn, skip_first=("hb",)):
    """Record (time, repr) of every object sent (worker events), except
    those whose first element is in ``skip_first`` (heartbeats)."""
    mono = time.monotonic

    @functools.wraps(fn)
    def wrapper(self, obj):
        if not (isinstance(obj, tuple) and obj and obj[0] in skip_first):
            rec.marks.append((mono(), repr(obj)))
        return fn(self, obj)
    return wrapper


def _nbytes(args, kwargs, result):
    return {"bytes": len(result)} if result is not None else None


def _nbytes_arg(index):
    def attrs(args, kwargs, result):
        return {"bytes": len(args[index])}
    return attrs


def _cmd_attrs(args, kwargs, result):
    cmd = args[1]
    return {"op": cmd.get("op"), "key": repr(cmd)}


def _dispatch_attrs(args, kwargs, result):
    pool, node, cmd = args[0], args[1], args[2]
    return {"key": repr(cmd), "pid": pool.pid_of(node),
            "op": cmd.get("op")}


def _pump_attrs(args, kwargs, result):
    return {"msg": repr(result)} if result is not None else None


def _plan_attrs(args, kwargs, result):
    if result is None or not hasattr(result, "map_tasks"):
        return None
    return {"tasks": len(result.map_tasks) + len(result.reduces)}


class Instrumentation:
    """Installs every wrapper over one recorder; ``uninstall`` restores
    the originals.  A name that no longer exists is skipped and listed
    in ``missing`` (its metrics then read 0)."""

    def __init__(self, rec: Recorder, spool: Path):
        self.rec = rec
        self.spool = Path(spool)
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def _patch(self, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _span(self, owner, attr, name, attrs=None):
        self._patch(owner, attr,
                    lambda fn: span_wrapper(self.rec, name, fn, attrs))

    def _counter(self, owner, attr, name, hit=None):
        self._patch(owner, attr,
                    lambda fn: counter_wrapper(self.rec, name, fn, hit))

    def install(self) -> "Instrumentation":
        from repro.localexec import engine
        from repro.mapreduce import jobtracker
        from repro.runtime import cache, coordinator, storage, transport
        from repro.runtime import worker
        from repro.simcore import engine as simengine
        from repro.simcore import resources

        rec = self.rec
        self.spool.mkdir(parents=True, exist_ok=True)
        # --- coordinator process
        pool, run = coordinator.WorkerPool, coordinator.ChainRun
        self._span(pool, "start", "pool.start")
        self._span(pool, "shutdown", "pool.shutdown")
        self._span(pool, "dispatch", "coordinator.dispatch",
                   _dispatch_attrs)
        self._span(pool, "pump", "coordinator.pump", _pump_attrs)
        self._span(run, "run", "coordinator.chain")
        self._span(coordinator, "cascade_jobs", "recovery.plan")
        self._span(coordinator, "plan_job_recovery", "recovery.plan",
                   _plan_attrs)
        self._span(coordinator, "decode_records", "storage.decode")
        registry = storage.ClusterRegistry
        for attr, raw in list(vars(registry).items()):
            if not attr.startswith("_") and callable(raw):
                self._counter(registry, attr, "storage.registry")
        self._span(cache.CacheRegistry, "adopt", "cache.adopt")
        self._span(cache.CacheRegistry, "admit", "cache.admit")
        self._span(engine.LocalCluster, "run_job", "localexec.run_job")
        # --- simulator
        self._span(simengine.Simulator, "run", "simcore.run")
        self._counter(simengine.Simulator, "step", "simcore.step")
        self._counter(resources.FluidNetwork, "transfer",
                      "simcore.transfer")
        self._counter(jobtracker.JobTracker, "run_job", "mapreduce.run_job")
        # --- worker processes (inherited through fork)
        spool = self.spool

        def bootstrap(fn):
            @functools.wraps(fn)
            def traced_worker_main(node, *args, **kwargs):
                rec.reset(f"worker{node}")
                try:
                    return fn(node, *args, **kwargs)
                finally:
                    rec.flush(spool / f"worker-{os.getpid()}.json")
            return traced_worker_main

        self._patch(coordinator, "worker_main", bootstrap)
        self._span(worker._Worker, "execute", "worker.execute", _cmd_attrs)
        self._counter(worker, "map_udf", "worker.udf")
        self._counter(worker, "reduce_udf", "worker.udf")
        self._span(worker, "generate_records", "worker.input")
        self._patch(worker, "iter_records", lambda fn: span_wrapper(
            rec, "storage.decode",
            functools.wraps(fn)(lambda *a, **k: iter(list(fn(*a, **k))))))
        self._patch(worker, "as_completed",
                    lambda fn: wait_wrapper(rec, "transport.wait", fn))
        store = storage.NodeStore
        self._span(store, "_write_atomic", "storage.write", _nbytes_arg(1))
        self._span(os, "fsync", "storage.fsync")
        self._span(storage, "encode_records", "storage.encode", _nbytes)
        self._span(store, "read_map_slice", "storage.read")
        self._span(store, "read_piece", "storage.read")
        self._counter(storage.MemoryTier, "get", "storage.tier_get",
                      hit=lambda data: data is not None)
        self._span(transport.PeerPool, "fetch", "transport.fetch", _nbytes)
        self._span(transport, "serve_request_spans", "transport.serve")
        self._patch(transport.LockedConnection, "send",
                    lambda fn: mark_wrapper(rec, fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def worker_dumps(self) -> list[dict]:
        dumps = []
        for path in sorted(self.spool.glob("worker-*.json")):
            dumps.append(json.loads(path.read_text()))
        return dumps


# ---------------------------------------------------------------- analysis
def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict:
    """sid -> self time: a span's duration minus the part of it its
    children cover, minus the counter seconds that ran directly in it."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT]:
            children[s[PARENT]].append((s[T0], s[T1]))
    out = {}
    for s in spans:
        covered = union_length(children.get(s[SID], ()), s[T0], s[T1])
        counted = sum(s[COUNTED].values()) if s[COUNTED] else 0.0
        out[s[SID]] = (s[T1] - s[T0]) - covered - counted
    return out


def _children(spans) -> dict:
    kids = defaultdict(list)
    for s in spans:
        if s[PARENT]:
            kids[s[PARENT]].append(s[SID])
    return kids


def reconcile(spans, root_name: str) -> tuple[dict, dict, float]:
    """Layer tables of the trees rooted at ``root_name`` spans.

    Returns ``(inside, outside, worst)``: name -> exclusive seconds (span
    self times by span name, counter seconds by counter name) summed over
    every such tree, the same for spans outside all of them (fetcher and
    shuffle-server threads), and the worst per-root gap share
    ``|sum of the root's layer times - its wall| / its wall``."""
    selfs = self_times(spans)
    kids = _children(spans)
    by_sid = {s[SID]: s for s in spans}
    inside: dict = defaultdict(float)
    outside: dict = defaultdict(float)
    members: set = set()
    worst = 0.0
    for root in spans:
        if root[NAME] != root_name:
            continue
        layers: dict = defaultdict(float)
        todo = [root[SID]]
        while todo:
            sid = todo.pop()
            members.add(sid)
            s = by_sid[sid]
            layers[s[NAME]] += selfs[sid]
            for name, secs in (s[COUNTED] or {}).items():
                layers[name] += secs
            todo.extend(kids.get(sid, ()))
        wall = root[T1] - root[T0]
        if wall > 0:
            worst = max(worst, abs(sum(layers.values()) - wall) / wall)
        for name, secs in layers.items():
            inside[name] += secs
    for s in spans:
        if s[SID] not in members:
            outside[s[NAME]] += selfs[s[SID]]
            for name, secs in (s[COUNTED] or {}).items():
                outside[name] += secs
    return dict(inside), dict(outside), worst


def summarize(coord: dict, workers: list[dict], n_chains: int) -> dict:
    """Per-layer figures from one traced phase.

    ``coord`` is the coordinator recorder's dump, ``workers`` the worker
    spool dumps.  Seconds and counts are per chain; latencies are
    per-task medians.  Besides ``metrics`` it returns the reconciliation:
    the worker task layer table (``task_layers``, which sums to
    ``execute_wall``), the coordinator chain layer table, the worst gap
    of any single task / chain, and the dispatch log by worker pid."""
    per = 1.0 / max(1, n_chains)
    cspans = [tuple(s) for s in coord["spans"]]
    cinside, coutside, chain_gap = reconcile(cspans, "coordinator.chain")
    call = _merge(cinside, coutside)
    cself = self_times(cspans)
    cnt = coord["counters"]

    def walls(name):
        return [s[T1] - s[T0] for s in cspans if s[NAME] == name]

    def calls(name):
        return cnt.get(name, [0, 0.0, 0])[0]

    out: dict = {}
    out["pool.start_s"] = median(walls("pool.start"))
    out["pool.shutdown_s"] = median(walls("pool.shutdown"))
    out["coordinator.dispatch_n"] = len(walls("coordinator.dispatch")) * per
    out["coordinator.dispatch_s"] = call.get("coordinator.dispatch", 0) * per
    # readiness pumps inside pool.start are set-up, not chain time
    starting = {s[SID] for s in cspans if s[NAME] == "pool.start"}
    pumps = [s for s in cspans if s[NAME] == "coordinator.pump"
             and s[PARENT] not in starting]
    out["coordinator.pump_wait_s"] = sum(cself[s[SID]]
                                         for s in pumps) * per
    out["coordinator.events_n"] = sum(1 for s in pumps if s[ATTRS]) * per
    out["coordinator.self_s"] = call.get("coordinator.chain", 0) * per
    out["recovery.plan_n"] = len(walls("recovery.plan")) * per
    out["recovery.plan_s"] = call.get("recovery.plan", 0) * per
    out["recovery.recomputed_tasks_n"] = sum(
        s[ATTRS]["tasks"] for s in cspans
        if s[NAME] == "recovery.plan" and s[ATTRS]) * per
    out["storage.registry_s"] = call.get("storage.registry", 0) * per
    out["cache.adopt_s"] = sum(walls("cache.adopt")) * per
    out["cache.admit_s"] = sum(walls("cache.admit")) * per
    out["localexec.run_job_s"] = median(walls("localexec.run_job"))
    sim_run = sum(walls("simcore.run"))
    out["simcore.run_s"] = sim_run * per
    out["simcore.events_n"] = calls("simcore.step") * per
    out["simcore.events_per_s"] = (calls("simcore.step") / sim_run
                                   if sim_run else 0.0)
    out["simcore.transfer_n"] = calls("simcore.transfer") * per
    out["mapreduce.jobs_n"] = calls("mapreduce.run_job") * per

    # --- worker processes: task trees plus fetcher / server threads
    task_layers: dict = defaultdict(float)
    all_layers: dict = defaultdict(float)
    task_gap = 0.0
    op_wall: dict = defaultdict(float)
    n: dict = defaultdict(int)
    nbytes: dict = defaultdict(int)
    tier = [0, 0]
    sends: dict = defaultdict(list)
    starts: dict = defaultdict(list)
    for dump in workers:
        spans = [tuple(s) for s in dump["spans"]]
        inside, outside, gap = reconcile(spans, "worker.execute")
        task_gap = max(task_gap, gap)
        for name, secs in inside.items():
            task_layers[name] += secs
        for name, secs in _merge(inside, outside).items():
            all_layers[name] += secs
        for s in spans:
            n[s[NAME]] += 1
            if s[NAME] == "worker.execute":
                op_wall[s[ATTRS]["op"]] += s[T1] - s[T0]
                if s[ATTRS]["op"] in TASK_OPS:
                    n["task"] += 1
                starts[(dump["pid"], s[ATTRS]["key"])].append(s[T0])
            elif s[ATTRS] and "bytes" in s[ATTRS]:
                nbytes[s[NAME]] += s[ATTRS]["bytes"]
        for t, key in dump["marks"]:
            sends[key].append(t)
        got, _, hits = dump["counters"].get("storage.tier_get", [0, 0, 0])
        tier[0] += got
        tier[1] += hits
    out["worker.task_n"] = n["task"] * per
    out["worker.map_s"] = op_wall.get("map", 0.0) * per
    out["worker.reduce_s"] = op_wall.get("reduce", 0.0) * per
    out["worker.replicate_s"] = op_wall.get("replicate", 0.0) * per
    out["worker.udf_s"] = all_layers.get("worker.udf", 0.0) * per
    out["worker.input_s"] = all_layers.get("worker.input", 0.0) * per
    out["worker.self_s"] = all_layers.get("worker.execute", 0.0) * per
    out["storage.fsync_n"] = n["storage.fsync"] * per
    out["storage.fsync_s"] = all_layers.get("storage.fsync", 0.0) * per
    out["storage.write_n"] = n["storage.write"] * per
    out["storage.write_s"] = all_layers.get("storage.write", 0.0) * per
    out["storage.write_bytes"] = nbytes["storage.write"] * per
    out["storage.encode_s"] = all_layers.get("storage.encode", 0.0) * per
    out["storage.encode_bytes"] = nbytes["storage.encode"] * per
    out["storage.decode_s"] = all_layers.get("storage.decode", 0.0) * per
    out["storage.read_n"] = n["storage.read"] * per
    out["storage.read_s"] = (all_layers.get("storage.read", 0.0)
                             + all_layers.get("storage.tier_get", 0.0)) * per
    out["storage.tier_hit_ratio"] = tier[1] / tier[0] if tier[0] else 0.0
    out["transport.fetch_n"] = n["transport.fetch"] * per
    out["transport.fetch_s"] = all_layers.get("transport.fetch", 0.0) * per
    out["transport.wait_s"] = all_layers.get("transport.wait", 0.0) * per
    out["transport.serve_s"] = all_layers.get("transport.serve", 0.0) * per

    # --- cross-process latencies, matched by the command / event repr
    cmd_lat, evt_lat = [], []
    dispatched: dict = defaultdict(int)
    for s in cspans:
        if s[NAME] == "coordinator.dispatch" and s[ATTRS]:
            key = (s[ATTRS]["pid"], s[ATTRS]["key"])
            if s[ATTRS]["op"] in TASK_OPS:
                dispatched[s[ATTRS]["pid"]] += 1
            if starts.get(key):
                cmd_lat.append(starts[key].pop(0) - s[T0])
        elif s[NAME] == "coordinator.pump" and s[ATTRS]:
            times = sends.get(s[ATTRS]["msg"])
            if times:
                evt_lat.append(s[T1] - times.pop(0))
    out["coordinator.cmd_latency_s"] = median(cmd_lat)
    out["coordinator.event_latency_s"] = median(evt_lat)
    return {
        "metrics": out,
        "task_layers": dict(task_layers),
        "worker_layers": dict(all_layers),
        "execute_wall": sum(op_wall.values()),
        "coordinator_layers": cinside,
        "chain_wall": sum(walls("coordinator.chain")),
        "worker_gap": task_gap,
        "coordinator_gap": chain_gap,
        "dispatched_by_pid": dict(dispatched),
        "matched": {"cmd": len(cmd_lat), "event": len(evt_lat)},
        "names": sorted({s[NAME] for s in cspans} | set(cnt)
                        | {s[NAME] for d in workers for s in d["spans"]}
                        | {c for d in workers for c in d["counters"]}),
    }


def _merge(*tables) -> dict:
    merged: dict = defaultdict(float)
    for table in tables:
        for name, secs in table.items():
            merged[name] += secs
    return dict(merged)
