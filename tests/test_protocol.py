"""The worker -> coordinator event protocol's wire contract.

Every event crosses a pipe as a pickle, so each must round-trip with an
equal ``repr``; field 0 is its ``kind``.  The benchmark's per-layer
tracer (``rcmpbench``) relies on both: it matches a worker's sent event
to the coordinator's pumped one by ``repr`` and skips heartbeats by
element 0.  It also wraps runtime names from outside the program, so a
rename that drops one of them must fail here, not silently read 0.
"""

import pickle

import pytest

from rcmpbench.tracing import Instrumentation, Recorder
from repro.runtime import protocol


def _sample(event):
    payload = {name: f"{name}-value"
               for name in event._fields[len(protocol.HEADER):]}
    return event.of(3, epoch=7, chain="c0001", key=("map", 1, 0),
                    **payload)


@pytest.mark.parametrize("event", protocol.EVENTS, ids=lambda e: e.KIND)
def test_event_round_trips_through_pickle(event):
    evt = _sample(event)
    back = pickle.loads(pickle.dumps(evt))
    assert back == evt and repr(back) == repr(evt)
    assert type(back) is event
    assert evt[0] == evt.kind == event.KIND
    assert evt[1:5] == (evt.node, evt.epoch, evt.chain, evt.key)


def test_event_kinds_are_unique_and_heartbeats_stay_hb():
    kinds = [event.KIND for event in protocol.EVENTS]
    assert len(set(kinds)) == len(kinds)
    assert protocol.Heartbeat.of(0)[0] == "hb"


def test_bench_tracer_finds_every_name_it_wraps(tmp_path):
    instrumentation = Instrumentation(Recorder(), tmp_path)
    try:
        instrumentation.install()
        assert instrumentation.missing == []
    finally:
        instrumentation.uninstall()
