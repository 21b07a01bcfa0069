"""Tests for the pipelined shuffle data plane.

Fast tests cover the pieces in isolation: server-side split filtering
(property-checked against the client-side filter), persistent
``PeerPool`` connections (reuse, reconnect after a peer restart, dead
peers resolving to :class:`FetchError`), the worker's parallel fetch
merge, the once-per-epoch ports broadcast, and the `_run_tasks`
stale-message regressions.  The ``slow`` tests re-prove checksum
neutrality end to end: multi-slot workers and parallel fetches must
reproduce the in-process reference byte-for-byte under kills, and
server-side filtering must actually shrink the recompute shuffle.
"""

import multiprocessing
import socket
import time
from dataclasses import replace

import pytest

from repro.localexec import LocalJobConfig
from repro.localexec.records import generate_records, split_of
from repro.obs import RecordingTracer
from repro.runtime import protocol, transport
from repro.runtime.coordinator import (
    ChainRun,
    RuntimeConfig,
    WorkerPool,
    _Link,
)
from repro.runtime.storage import (
    NodeStore,
    decode_records,
    encode_records,
    filter_split,
)
from repro.runtime.transport import (
    FetchError,
    PeerPool,
    ShuffleServer,
    serve_request,
)
from repro.runtime.worker import _Worker

from tests.test_runtime_process import (
    CHAIN,
    KillAt,
    KillPlan,
    reference_checksum,
    run_process_chain,
)


# ------------------------------------------------------- split filtering
def test_filter_split_matches_client_side_filter():
    """Property check: the raw-frame server-side filter returns exactly
    the bytes a client-side decode/filter/encode round trip would."""
    for seed in range(4):
        records = generate_records(200, seed=seed, value_size=5 + seed)
        data = encode_records(records)
        for n_splits in (1, 2, 3, 5, 8):
            reassembled = []
            for split in range(n_splits):
                expected = encode_records(
                    [r for r in records
                     if split_of(r.key, n_splits) == split])
                got = filter_split(data, split, n_splits)
                assert got == expected
                reassembled.extend(decode_records(got))
            assert sorted(reassembled) == sorted(records)


def test_filter_split_rejects_truncated_data():
    data = encode_records(generate_records(8, seed=0))
    with pytest.raises(ValueError):
        filter_split(data[:-1], 0, 2)


def test_serve_request_filters_maps_server_side(tmp_path):
    """A ``maps`` request with split/n_splits ships the filtered slice
    concatenation; without them it ships everything."""
    store = NodeStore(tmp_path, 0)
    r1 = generate_records(40, seed=1)
    r2 = generate_records(40, seed=2)
    store.write_map_output(1, 0, 0, {0: r1})
    store.write_map_output(1, 1, 0, {0: r2})
    base = {"kind": "maps", "job": 1, "tasks": [0, 1], "partition": 0}
    full = serve_request(store, base)
    assert full == encode_records(r1) + encode_records(r2)
    for split in range(2):
        filtered = serve_request(store, {**base, "split": split,
                                         "n_splits": 2})
        assert filtered == (filter_split(encode_records(r1), split, 2)
                            + filter_split(encode_records(r2), split, 2))


# ------------------------------------------------- persistent connections
def _piece_store(tmp_path, node=0):
    store = NodeStore(tmp_path, node)
    records = generate_records(24, seed=7)
    store.write_piece(1, 0, 0, 1, records)
    return store, encode_records(records)


def test_peer_pool_reuses_one_connection(tmp_path):
    store, payload = _piece_store(tmp_path)
    server = ShuffleServer(store, timeout=5.0)
    pool = PeerPool(timeout=2.0)
    try:
        for _ in range(5):
            assert pool.fetch_piece(server.port, 1, 0, 0, 1) == payload
        time.sleep(0.05)  # let any surplus connections register
        assert server.connections_accepted == 1
    finally:
        pool.close()
        server.close()


def test_peer_pool_reconnects_after_peer_restart(tmp_path):
    """A worker that outlives its peer's restart keeps fetching: the
    pooled connection dies with the old server and is transparently
    rebuilt against the new one on the same port."""
    store, payload = _piece_store(tmp_path)
    server = ShuffleServer(store, timeout=5.0)
    port = server.port
    pool = PeerPool(timeout=2.0)
    try:
        assert pool.fetch_piece(port, 1, 0, 0, 1) == payload
        server.close()
        server = ShuffleServer(store, timeout=5.0, port=port)
        assert pool.fetch_piece(port, 1, 0, 0, 1) == payload
        assert server.connections_accepted == 1
    finally:
        pool.close()
        server.close()


def test_fetch_from_dead_peer_raises_fetch_error():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nobody listens here any more
    pool = PeerPool(timeout=0.3, retries=2, backoff=0.01)
    try:
        with pytest.raises(FetchError):
            pool.fetch_piece(port, 1, 0, 0, 1)
    finally:
        pool.close()


def test_non_persistent_pool_opens_connection_per_request(tmp_path):
    store, payload = _piece_store(tmp_path)
    server = ShuffleServer(store, timeout=5.0)
    pool = PeerPool(timeout=2.0, persistent=False)
    try:
        for _ in range(3):
            assert pool.fetch_piece(server.port, 1, 0, 0, 1) == payload
        deadline = time.monotonic() + 2.0
        while (server.connections_accepted < 3
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.connections_accepted == 3
    finally:
        pool.close()
        server.close()


# ----------------------------------------------------- parallel fetching
class _EventSink:
    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)


def _make_worker(tmp_path, node=99, **options):
    store = NodeStore(tmp_path, node)
    opts = {"fetch_timeout": 0.3, **options}
    return _Worker(node, store, _EventSink(), seed=0, records_per_node=8,
                   value_size=8, options=opts)


def test_fetch_merge_lands_all_sources(tmp_path):
    """Concurrent fetches from several source nodes merge to the same
    bytes a serial loop would collect."""
    servers, expected = [], {}
    for node in (0, 1, 2):
        store = NodeStore(tmp_path, node)
        records = generate_records(30, seed=node)
        store.write_map_output(1, node, node, {0: records})
        servers.append(ShuffleServer(store, timeout=5.0))
        expected[node] = encode_records(records)
    ports = {n: s.port for n, s in zip((0, 1, 2), servers)}
    worker = _make_worker(tmp_path, fetch_parallelism=3)
    landed = {}
    try:
        requests = [(n, {"kind": "maps", "job": 1, "tasks": [n],
                         "partition": 0}) for n in (0, 1, 2)]
        total = worker._fetch_merge(requests, ports, landed.__setitem__)
        assert landed == expected
        assert total == sum(len(v) for v in expected.values())
    finally:
        worker.close()
        for server in servers:
            server.close()


def test_fetch_merge_dead_source_raises_without_hanging(tmp_path):
    """One dead source among live ones: the live responses land, the
    dead one surfaces as FetchError once every fetcher settles — the
    task fails cleanly instead of deadlocking mid-parallel-fetch."""
    live_store = NodeStore(tmp_path, 0)
    live_store.write_map_output(1, 0, 0, {0: generate_records(10, seed=0)})
    live = ShuffleServer(live_store, timeout=5.0)
    dead = socket.socket()
    dead.bind(("127.0.0.1", 0))
    dead_port = dead.getsockname()[1]
    dead.close()
    ports = {0: live.port, 1: dead_port}
    worker = _make_worker(tmp_path, fetch_parallelism=2)
    landed = {}
    try:
        requests = [(n, {"kind": "maps", "job": 1, "tasks": [0],
                         "partition": 0}) for n in (0, 1)]
        t0 = time.monotonic()
        with pytest.raises(FetchError):
            worker._fetch_merge(requests, ports, landed.__setitem__)
        assert time.monotonic() - t0 < 5.0
        assert 0 in landed and 1 not in landed
    finally:
        worker.close()
        live.close()


# ------------------------------------------- coordinator dispatch plumbing
class _FakeProc:
    def is_alive(self):
        return True


def _fake_linked_run(tmp_path, config=None, tracer=None):
    """A pool wired to an in-test pipe pair instead of a forked worker,
    and one chain over it, so dispatch-loop behaviour is testable
    deterministically."""
    config = config or RuntimeConfig(n_nodes=1, chain=CHAIN)
    pool = WorkerPool(config, tmp_path / "cluster")
    cmd_recv, cmd_send = multiprocessing.Pipe(duplex=False)
    evt_recv, evt_send = multiprocessing.Pipe(duplex=False)
    pool._links[0] = _Link(0, _FakeProc(), cmd_send, evt_recv, pid=4242,
                           port=1, last_seen=time.monotonic())
    pool.alive = {0}
    return ChainRun(config, pool, tracer=tracer), cmd_recv, evt_send


#: the one outstanding task of the stale-guard tests, and its command
DROP_KEY = ("drop", 1, 0)
DROP_CMD = {"op": "drop", "job": 1, "task": 0}

#: event kind -> (event class, kind-specific payload)
STALE_EVENTS = {
    "map-done": (protocol.MapDone,
                 dict(origin=None, counts={0: 1}, fetched=64, local=0)),
    "reduce-done": (protocol.ReduceDone,
                    dict(n_records=4, fetched=64, local=0)),
    "replica-done": (protocol.ReplicaDone, dict(fetched=64, local=0)),
    "dropped": (protocol.Dropped, {}),
    "job-dropped": (protocol.JobDropped, dict(freed=128)),
    "reclaimed": (protocol.Reclaimed, dict(freed=128)),
    "task-failed": (protocol.TaskFailed, dict(op="drop", error="gone")),
    "task-error": (protocol.TaskError, dict(op="drop", traceback="tb")),
}

#: stale form -> the header that makes an event stale at pool epoch 3
STALE_FORMS = {
    "stale-epoch": dict(epoch=2, key=DROP_KEY),
    "foreign-chain": dict(epoch=3, chain="c9999", key=DROP_KEY),
    "not-outstanding": dict(epoch=3, key=("drop", 1, 7)),
}


@pytest.mark.parametrize("form", sorted(STALE_FORMS))
@pytest.mark.parametrize("kind", sorted(STALE_EVENTS))
def test_stale_message_from_unknown_link_is_skipped(tmp_path, kind, form):
    """Regression: a stale reply of any kind — stale epoch, another
    chain's, or for a task no longer outstanding — naming a node whose
    link is gone must be discarded by the one stale guard, not KeyError
    on the link lookup (tracing on, so an accepted event would look its
    pid up) or complete the outstanding task in its place."""
    run, cmd_recv, evt_send = _fake_linked_run(tmp_path,
                                               tracer=RecordingTracer())
    run.pool.epoch = 3
    accepted = []
    guard = run._accept

    def spy(evt, outstanding):
        if guard(evt, outstanding):
            accepted.append(evt)
            return True
        return False

    run._accept = spy
    event, payload = STALE_EVENTS[kind]
    evt_send.send(event.of(9, **STALE_FORMS[form], **payload))
    real = protocol.Dropped.of(0, epoch=3, key=DROP_KEY)
    evt_send.send(real)
    run._run_tasks({DROP_KEY: (0, DROP_CMD)}, phase="test")
    assert accepted == [real]
    # the command pipe saw the ports broadcast followed by the drop
    ops = [cmd_recv.recv()["op"] for _ in range(2)]
    assert ops == ["ports", "drop"]


def test_ports_broadcast_once_per_epoch(tmp_path):
    run, cmd_recv, evt_send = _fake_linked_run(tmp_path)
    for task in (0, 1):
        evt_send.send(protocol.Dropped.of(0, epoch=0, key=("drop", 1, task)))
        run._run_tasks({("drop", 1, task): (0, {"op": "drop", "job": 1,
                                                "task": task})},
                       phase="test")
    cmds = [cmd_recv.recv() for _ in range(3)]
    assert [c["op"] for c in cmds] == ["ports", "drop", "drop"]
    assert cmds[0]["ports"] == {0: 1}
    # a death bumps the epoch: the next dispatch re-broadcasts
    run.pool.epoch += 1
    evt_send.send(protocol.Dropped.of(0, epoch=1, key=("drop", 1, 2)))
    run._run_tasks({("drop", 1, 2): (0, {"op": "drop", "job": 1,
                                         "task": 2})}, phase="test")
    assert [cmd_recv.recv()["op"] for _ in range(2)] == ["ports", "drop"]


def test_config_validates_data_plane_knobs():
    with pytest.raises(ValueError):
        RuntimeConfig(task_slots=0)
    with pytest.raises(ValueError):
        RuntimeConfig(task_slots="many")
    with pytest.raises(ValueError):
        RuntimeConfig(fetch_parallelism=0)
    with pytest.raises(ValueError):
        RuntimeConfig(fetch_timeout=0.0)
    with pytest.raises(ValueError):  # a fetch may not eat the io budget
        RuntimeConfig(fetch_timeout=30.0, io_timeout=30.0)
    assert RuntimeConfig(task_slots="auto").resolved_task_slots >= 1
    assert RuntimeConfig(task_slots=3).resolved_task_slots == 3
    opts = RuntimeConfig(io_timeout=12.0, fetch_timeout=2.0) \
        .worker_options()
    assert opts["server_timeout"] == 12.0
    assert opts["fetch_timeout"] == 2.0


# --------------------------------------------------- end-to-end neutrality
@pytest.mark.slow
def test_kill_mid_parallel_fetch_recovers(tmp_path):
    """SIGKILL one source while multi-slot reducers are parallel-fetching
    its map outputs: the fetch failures surface as task-failed, the death
    is declared, and recovery reproduces the reference checksum — never a
    hang."""
    hooks = KillAt("reduce-dispatch", job=2, victims=[0])
    report = run_process_chain(tmp_path, hooks=hooks, task_slots=2,
                               fetch_parallelism=4)
    assert report.checksum == reference_checksum(CHAIN)
    assert [n for _, n in report.deaths] == [0]


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["rcmp", "hybrid"])
@pytest.mark.parametrize("scenario", ["none", "single", "double"])
def test_multi_slot_matrix_parity(tmp_path, strategy, scenario):
    """The checksum matrix with 4 task slots per worker: concurrency in
    the data plane must not change a single byte of any strategy's
    recovered output."""
    triggers = {"none": [],
                "single": [("job-commit", 2, 1)],
                "double": [("job-commit", 1, 1),
                           ("job-commit", 2, 2)]}[scenario]
    hooks = KillPlan(*triggers) if triggers else None
    report = run_process_chain(tmp_path, hooks=hooks, strategy=strategy,
                               task_slots=4, fetch_parallelism=4)
    assert report.checksum == reference_checksum(CHAIN)
    assert sorted(n for _, n in report.deaths) == \
        sorted(v for _, _, v in triggers)


@pytest.mark.slow
def test_server_split_filter_shrinks_recompute_shuffle(tmp_path):
    """With a 2-way split recomputation, server-side filtering must ship
    roughly half the recompute-reduce bytes the unfiltered client-side
    path pulls — at identical output checksums."""
    chain = replace(CHAIN, records_per_node=96)
    totals = {}
    for filtered in (True, False):
        hooks = KillAt("job-commit", job=2, victims=[1])
        report = run_process_chain(tmp_path / str(filtered), chain=chain,
                                   hooks=hooks,
                                   server_split_filter=filtered)
        assert report.checksum == reference_checksum(chain)
        totals[filtered] = sum(
            n for phase, n in report.shuffle_bytes.items()
            if phase.startswith("recompute-reduce"))
    assert totals[False] > 0
    assert totals[True] <= totals[False] * 0.5 * 1.35


@pytest.mark.slow
def test_transport_timeouts_follow_io_timeout(tmp_path):
    """Satellite regression: the shuffle server/fetch timeouts come from
    RuntimeConfig, not hardcoded constants — a clean run under tight but
    valid budgets still reproduces the reference."""
    report = run_process_chain(tmp_path, io_timeout=20.0,
                               fetch_timeout=2.0)
    assert report.checksum == reference_checksum(CHAIN)


def test_worker_ignores_stale_epoch_commands(tmp_path):
    """A queued command from a cancelled epoch is skipped outright once
    a newer epoch has been seen — no store mutation, no event."""
    worker = _make_worker(tmp_path, node=0)
    try:
        worker.dispatch({"op": "ports", "epoch": 5, "ports": {}})
        worker.dispatch({"op": "drop-job", "job": 1, "epoch": 4})
        assert worker.evt.sent == []
        worker.dispatch({"op": "drop-job", "job": 1, "epoch": 5})
        assert [m[0] for m in worker.evt.sent] == ["job-dropped"]
    finally:
        worker.close()


def test_transport_module_fetch_is_one_shot(tmp_path):
    store, payload = _piece_store(tmp_path)
    server = ShuffleServer(store, timeout=5.0)
    try:
        assert transport.fetch_piece(server.port, 1, 0, 0, 1) == payload
    finally:
        server.close()
