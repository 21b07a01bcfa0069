"""Process-to-process plumbing: control pipes, heartbeats, shuffle sockets.

Three channels connect a worker to the rest of the runtime:

* a **command pipe** (coordinator -> worker): task commands, invalidation
  drops, stop;
* an **event pipe** (worker -> coordinator): heartbeats, readiness, task
  commits and failures.  The worker writes it from several threads (slot
  threads and heartbeat), serialized by :class:`LockedConnection`.  A
  ``SIGKILL`` can only tear *this worker's* pipe — the coordinator reads
  a broken stream as an end-of-channel signal for that node alone, never
  a shared corrupted queue;
* a **shuffle server** (worker <-> worker): a TCP listener on the
  loopback interface serving the node's persisted files.  Reducers fetch
  map-output slices from mapper nodes; re-homed mappers fetch upstream
  piece ranges.  A dead worker's socket refuses connections, which a
  fetching worker reports as a task failure — the coordinator's heartbeat
  expiry then declares the death and triggers recovery.

The shuffle data plane is **pipelined**:

* :class:`ShuffleServer` speaks a framed request/response protocol over
  *kept-alive* connections — one connection per fetching peer instead of
  one per request — and can filter a ``maps`` slice by reducer split
  before shipping it (``split``/``n_splits`` in the request), so a k-way
  split recomputation ships 1/k of the partition bytes;
* :class:`PeerPool` is the client side: one persistent connection per
  peer port, shared across a worker's task slots (a per-peer lock
  serializes request/response framing).  A broken connection falls back
  to a clean reconnect — the retry/backoff budget is exactly what the
  old connection-per-request ``fetch`` spent, so death detection
  semantics are unchanged: a genuinely dead peer still surfaces as
  :class:`FetchError` after ``retries`` attempts.

Heartbeats follow :class:`repro.faults.HeartbeatDetector` semantics:
workers beat every ``interval`` wall-clock seconds and the coordinator
declares a node dead once ``expiry`` seconds pass without one.
``expiry == 0`` is *paper mode* — the omniscient detector: the kernel
closing the dead process's pipe is treated as an immediate declaration.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
from typing import TYPE_CHECKING, Optional

from repro.runtime.protocol import Heartbeat
from repro.runtime.storage import filter_split_spans

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

    from repro.runtime.storage import NodeStore

_LEN = struct.Struct(">Q")

#: max buffers per ``sendmsg`` call — comfortably under every platform's
#: ``IOV_MAX`` (POSIX guarantees >= 16, Linux allows 1024)
_IOV_MAX = 512

#: errors that mean "the other side of this channel is gone"
CHANNEL_DOWN = (EOFError, OSError, BrokenPipeError, ConnectionError,
                pickle.UnpicklingError)


class FetchError(RuntimeError):
    """A shuffle fetch could not be served (source likely dead)."""


class Throttle:
    """A worker's self-imposed slowdown (the ``slow`` fault kind).

    ``pace(elapsed)`` stretches a unit of work that took ``elapsed``
    seconds to ``factor * elapsed`` by sleeping the difference, so the
    task loop and shuffle serving both run at ``1/factor`` speed.  The
    heartbeat thread is deliberately *not* paced: a straggler is slow,
    not dead, and must keep beating so the detector never declares it
    lost.  Shared by the slot threads and the shuffle server; ``set`` is
    a single attribute store, safe without a lock."""

    def __init__(self, factor: float = 1.0):
        self._factor = float(factor)

    @property
    def factor(self) -> float:
        return self._factor

    def set(self, factor: float) -> None:
        if factor < 1.0:
            raise ValueError("throttle factor must be >= 1")
        self._factor = float(factor)

    def pace(self, elapsed: float) -> None:
        extra = (self._factor - 1.0) * elapsed
        if extra > 0:
            time.sleep(extra)


class LockedConnection:
    """A pipe connection whose sends are serialized across threads."""

    def __init__(self, conn: "Connection"):
        self._conn = conn
        self._lock = threading.Lock()

    def send(self, obj) -> None:
        with self._lock:
            self._conn.send(obj)


def start_heartbeat(conn: LockedConnection, node: int,
                    interval: float) -> threading.Thread:
    """Send a :class:`~repro.runtime.protocol.Heartbeat` every
    ``interval`` seconds until the process dies (daemon thread; a SIGKILL
    stops it with the process)."""
    beat_event = Heartbeat.of(node)

    def beat() -> None:
        while True:
            time.sleep(interval)
            try:
                conn.send(beat_event)
            except CHANNEL_DOWN:  # coordinator gone; nothing left to do
                return

    thread = threading.Thread(target=beat, name=f"hb-node{node}",
                              daemon=True)
    thread.start()
    return thread


# ------------------------------------------------------------- shuffle server
def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    while size:
        chunk = sock.recv(size)
        if not chunk:
            raise ConnectionError("shuffle peer closed mid-message")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def serve_request_spans(store: "NodeStore", request: dict) -> list:
    """Resolve one shuffle request into a list of raw byte spans.

    The zero-copy serve primitive: spans are the stored buffers
    themselves (``bytes`` straight from the memory tier or disk read)
    or ``memoryview`` slices of them (split filtering), never an
    intermediate concatenation — the server hands the list to
    ``socket.sendmsg`` and the kernel gathers it onto the wire.
    ``b"".join`` of the spans is the classic contiguous payload
    (:func:`serve_request`).

    ``maps`` is the bulk-shuffle request: every requested map task's
    slice for one partition in a single response (frame concatenation is
    record-list concatenation, so the reducer decodes it in one go) —
    one connection per source *node* instead of per map task.  When the
    request carries ``split``/``n_splits``, each slice is filtered by
    ``split_of`` *server-side* before shipping: the reducer of one split
    receives exactly its 1/k of the keys instead of the whole partition
    (the paper's reducer-splitting hot path, §IV-B1).

    A ``chain`` field scopes the read to that chain's namespace on the
    serving node (multi-tenant service mode); absent, the store's own
    namespace applies."""
    if "chain" in request:
        store = store.for_chain(request["chain"])
    kind = request["kind"]
    if kind == "maps":
        split = request.get("split")
        slices = (store.read_map_slice(request["job"], task,
                                       request["partition"])
                  for task in request["tasks"])
        if split is None:
            return [data for data in slices if data]
        n_splits = request["n_splits"]
        spans: list = []
        for data in slices:
            spans.extend(filter_split_spans(data, split, n_splits))
        return spans
    if kind == "piece":
        return [store.read_piece(request["job"], request["partition"],
                                 request["split"], request["n_splits"])]
    raise ValueError(f"unknown shuffle request kind {kind!r}")


def serve_request(store: "NodeStore", request: dict) -> bytes:
    """Resolve one shuffle request into one contiguous payload (the
    span list of :func:`serve_request_spans`, joined).  The local
    same-worker handoff path uses this directly — the single-span case
    (a piece fetch hitting the memory tier) returns the resident buffer
    without any copy at all."""
    spans = serve_request_spans(store, request)
    if not spans:
        return b""
    if len(spans) == 1:
        only = spans[0]
        return only.tobytes() if isinstance(only, memoryview) else only
    return b"".join(spans)


def _sendall_spans(sock: socket.socket, spans: list) -> None:
    """Send every span with scatter-gather ``sendmsg`` — no join, no
    intermediate copy.  Handles partial sends (a blocking socket under
    a timeout may write fewer bytes than offered) by trimming the
    partially-sent buffer and continuing."""
    bufs = [memoryview(s) for s in spans if len(s)]
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX
        for buf in bufs:
            sock.sendall(buf)
        return
    i = 0
    while i < len(bufs):
        sent = sock.sendmsg(bufs[i:i + _IOV_MAX])
        while sent:
            head = bufs[i]
            if sent >= len(head):
                sent -= len(head)
                i += 1
            else:
                bufs[i] = head[sent:]
                sent = 0


class ShuffleServer:
    """The node's shuffle listener: framed requests over kept-alive
    connections, served from daemon threads (one per *peer connection*,
    not one per request).

    ``timeout`` bounds how long one connection may sit mid-request (and
    how long an idle pooled connection is kept before the server drops
    it — the client's :class:`PeerPool` transparently reconnects).  It
    is plumbed from ``RuntimeConfig.io_timeout`` so a user raising the
    dispatch-stall budget raises the shuffle patience with it."""

    def __init__(self, store: "NodeStore", timeout: float = 30.0,
                 port: int = 0, throttle: Optional[Throttle] = None):
        self.store = store
        self.timeout = timeout
        self.throttle = throttle
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self.connections_accepted = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if hasattr(socket, "SO_REUSEPORT"):  # pragma: no branch
            # a restarted server must rebind its advertised port even
            # while old peer connections linger in FIN_WAIT
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEPORT, 1)
        self._listener.bind(("127.0.0.1", port))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"shuffle-node{store.node}",
            daemon=True)
        self._accept_thread.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            with conn:
                while True:
                    conn.settimeout(self.timeout)
                    size = _LEN.unpack(_recv_exact(conn, _LEN.size))[0]
                    request = pickle.loads(_recv_exact(conn, size))
                    started = time.perf_counter()
                    spans = serve_request_spans(self.store, request)
                    if self.throttle is not None:
                        self.throttle.pace(time.perf_counter() - started)
                    total = sum(len(s) for s in spans)
                    _sendall_spans(conn, [_LEN.pack(total), *spans])
        except (OSError, ConnectionError, ValueError, pickle.PickleError):
            pass  # peer closed / idle timeout / bad frame: connection done
        finally:
            with self._lock:
                self._conns.discard(conn)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener shut down
                return
            if self._closed:  # pragma: no cover - shutdown race
                conn.close()
                return
            with self._lock:
                self._conns.add(conn)
                self.connections_accepted += 1
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True).start()

    def close(self) -> None:
        """Stop accepting and tear down every live peer connection.

        The accept thread is woken (``shutdown`` on the listening
        socket) and joined *before* the listener fd is closed: closing
        an fd another thread is blocked in ``accept()`` on lets a new
        socket reuse the fd number and the stale thread steal its
        connections."""
        self._closed = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not connected / already closed: accept still wakes
        self._accept_thread.join(timeout=2.0)
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass


def start_shuffle_server(store: "NodeStore",
                         timeout: float = 30.0) -> tuple[ShuffleServer, int]:
    """Bind the node's shuffle listener; returns ``(server, port)``."""
    server = ShuffleServer(store, timeout=timeout)
    return server, server.port


# ------------------------------------------------------------- fetch clients
class _Peer:
    """One peer's pooled connection + the lock framing its use."""

    __slots__ = ("lock", "sock")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.sock: Optional[socket.socket] = None


class PeerPool:
    """Persistent per-peer shuffle connections, shared across task slots.

    ``fetch`` holds the peer's lock for one request/response exchange
    at a time, so concurrent fetches to *different* peers run in
    parallel while fetches to the same peer serialize on its one
    connection (and back off concurrently when it is down).  A
    connection that breaks (peer died, or the server dropped an idle
    connection) is discarded and rebuilt on the next attempt; after
    ``retries`` failed attempts the peer is declared unreachable via
    :class:`FetchError` — the same budget the old one-shot ``fetch``
    spent, so the coordinator's failure path sees identical timing.

    ``persistent=False`` degrades to connection-per-request (the
    pre-pipelining data plane; kept for A/B benchmarking).

    ``local_port``/``local_store`` arm the same-worker handoff: a fetch
    addressed to the worker's *own* shuffle port resolves straight from
    the local store (memory tier first) instead of opening a loopback
    socket to itself — the data never leaves the process."""

    def __init__(self, timeout: float = 5.0, retries: int = 3,
                 backoff: float = 0.05, persistent: bool = True,
                 local_port: Optional[int] = None,
                 local_store: Optional["NodeStore"] = None):
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.persistent = persistent
        self.local_port = local_port
        self.local_store = local_store
        self.local_bytes = 0  # informational; exact counts live per-task
        self._lock = threading.Lock()
        self._peers: dict[int, _Peer] = {}

    def _peer(self, port: int) -> _Peer:
        with self._lock:
            peer = self._peers.get(port)
            if peer is None:
                peer = self._peers[port] = _Peer()
            return peer

    @staticmethod
    def _drop(peer: _Peer) -> None:
        sock, peer.sock = peer.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def fetch(self, port: int, request: dict) -> bytes:
        """Fetch bytes from the peer's shuffle server (idempotent reads:
        a retry after a mid-response break simply re-sends the request).

        The peer's lock is held per *attempt* — one full framed
        request/response exchange — never across a backoff sleep, so
        concurrent tasks retrying against a dead peer back off in
        parallel instead of queueing each other's full retry budgets."""
        if port == self.local_port and self.local_store is not None:
            data = serve_request(self.local_store, request)
            self.local_bytes += len(data)
            return data
        payload = pickle.dumps(request)
        peer = self._peer(port)
        last: Optional[Exception] = None
        for attempt in range(self.retries):
            sock: Optional[socket.socket] = None
            try:
                with peer.lock:
                    sock = peer.sock
                    if sock is None:
                        sock = socket.create_connection(
                            ("127.0.0.1", port), timeout=self.timeout)
                        peer.sock = sock
                    sock.sendall(_LEN.pack(len(payload)) + payload)
                    size = _LEN.unpack(_recv_exact(sock, _LEN.size))[0]
                    data = _recv_exact(sock, size)
                    if not self.persistent:
                        self._drop(peer)
                    return data
            except (OSError, ConnectionError) as exc:
                last = exc
                with peer.lock:
                    # only un-pool the socket *we* failed on: another
                    # thread may already be mid-exchange on a fresh one
                    if peer.sock is sock:
                        peer.sock = None
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
                time.sleep(self.backoff * (attempt + 1))
        raise FetchError(f"shuffle fetch from port {port} failed: {last}")

    def fetch_piece(self, port: int, job: int, partition: int,
                    split_index: int, n_splits: int,
                    chain: Optional[str] = None) -> bytes:
        """Fetch one stored piece's bytes from a peer's shuffle server.

        Shared by re-homed mappers reading upstream piece ranges and
        replica writers copying a piece from its primary holder (the
        REPL-k / hybrid-anchor pipelined replication path).  ``chain``
        scopes the read to that chain's namespace on the serving node."""
        request = {"kind": "piece", "job": job, "partition": partition,
                   "split": split_index, "n_splits": n_splits}
        if chain is not None:
            request["chain"] = chain
        return self.fetch(port, request)

    def close(self) -> None:
        with self._lock:
            peers = list(self._peers.values())
            self._peers.clear()
        for peer in peers:
            self._drop(peer)


def fetch(port: int, request: dict, timeout: float = 5.0,
          retries: int = 3, backoff: float = 0.05) -> bytes:
    """One-shot fetch from a peer's shuffle server (fresh connection per
    request).  Workers use a :class:`PeerPool`; this stays for tools and
    tests that want a single stateless request."""
    pool = PeerPool(timeout=timeout, retries=retries, backoff=backoff,
                    persistent=False)
    try:
        return pool.fetch(port, request)
    finally:
        pool.close()


def fetch_piece(port: int, job: int, partition: int, split_index: int,
                n_splits: int, chain: Optional[str] = None) -> bytes:
    """One-shot piece fetch (see :meth:`PeerPool.fetch_piece`)."""
    request = {"kind": "piece", "job": job, "partition": partition,
               "split": split_index, "n_splits": n_splits}
    if chain is not None:
        request["chain"] = chain
    return fetch(port, request)
