"""The worker -> coordinator event protocol, defined once.

Commands (coordinator -> worker) stay plain dicts keyed by ``"op"``: they
already carry named fields.  Every event a worker sends back is a
``NamedTuple`` whose field 0 is ``kind``, followed by one common header
and then its kind-specific payload by name:

* ``node`` — the sending worker;
* ``epoch`` — the dispatch epoch of the command it answers (a death bumps
  the pool's epoch, so a reply from before the death is stale);
* ``chain`` — the chain id the command carried (``None`` in single-chain
  mode);
* ``key`` — the coordinator's task key, echoed from ``cmd["key"]``, so
  neither side rebuilds it from the payload.

Build events with each class's ``of`` constructor, which stamps ``kind``:
``MapDone.of(node, epoch=3, key=("map", 1, 0), origin=None, counts={},
fetched=0, local=0)``.  Heartbeats and readiness answer no command, so
their ``epoch``/``chain``/``key`` stay ``None``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

#: field 0 plus the header every event shares
HEADER = [("kind", str), ("node", int), ("epoch", Optional[int]),
          ("chain", Optional[str]), ("key", Optional[tuple])]


def _event(name: str, kind: str, **payload: type):
    cls = NamedTuple(name, HEADER + list(payload.items()))
    cls.KIND = kind

    def of(cls, node, epoch=None, chain=None, key=None, **fields):
        return cls(kind, node, epoch, chain, key, **fields)

    cls.of = classmethod(of)
    return cls


# liveness and startup (no command answered)
Heartbeat = _event("Heartbeat", "hb")
Ready = _event("Ready", "ready", port=int, pid=int)
# task replies: "map", "reduce", "replicate"
MapDone = _event("MapDone", "map-done", origin=Optional[tuple],
                 counts=dict, fetched=int, local=int)
ReduceDone = _event("ReduceDone", "reduce-done", n_records=int,
                    fetched=int, local=int)
ReplicaDone = _event("ReplicaDone", "replica-done", fetched=int, local=int)
# housekeeping replies: "drop", "drop-piece", "drop-job", "reclaim"
Dropped = _event("Dropped", "dropped")
PieceDropped = _event("PieceDropped", "piece-dropped", freed=int)
JobDropped = _event("JobDropped", "job-dropped", freed=int)
Reclaimed = _event("Reclaimed", "reclaimed", freed=int)
# any command that raised: a fetch casualty (retried) or a software bug
TaskFailed = _event("TaskFailed", "task-failed", op=str, error=str)
TaskError = _event("TaskError", "task-error", op=str, traceback=str)

EVENTS = (Heartbeat, Ready, MapDone, ReduceDone, ReplicaDone, Dropped,
          PieceDropped, JobDropped, Reclaimed, TaskFailed, TaskError)
