"""Tests for the benchmark's own helpers.

Run from the checkout root: ``python3 -m pytest rcmpbench/tests``."""

import json
import os
import statistics
import threading
from pathlib import Path

import pytest

from rcmpbench import hygiene, spec, tracing
from rcmpbench.tracing import (Instrumentation, Recorder, counter_wrapper,
                               reconcile, self_times, span_wrapper)

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------- percentiles
@pytest.mark.parametrize("n, want", [
    (0, None), (9, None), (99, None), (100, 90), (101, 90), (999, 90),
    (1000, 99), (9999, 99), (10000, 99.9), (50000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, want):
    assert spec.tail_percentile(n) == want
    if want is not None:
        assert n - round(n * want / 100.0) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert spec.percentile(values, 50) == 50
    assert spec.percentile(values, 90) == 90
    assert spec.percentile(reversed(values), 99) == 99
    assert spec.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        spec.percentile([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (q1, q3) == pytest.approx((9.725, 10.275))
    assert spec.quartile_spread(values) == pytest.approx(0.55 / 10.0)
    assert spec.quartile_spread([5.0] * 10) == 0.0


# ---------------------------------------------------------------- self time
def _span(sid, parent, name, t0, t1, counted=None):
    return (sid, parent, name, t0, t1, counted, None)


def test_self_time_subtracts_union_of_children_and_counters():
    spans = [
        _span(1, 0, "root", 0.0, 10.0, {"udf": 1.0}),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),       # overlaps a: union 1..6
        _span(4, 2, "leaf", 2.0, 3.0),
        _span(5, 1, "late", 9.0, 12.0),   # clipped to the parent: 9..10
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


def test_reconcile_sums_nested_tree_to_root_wall():
    spans = [
        _span(1, 0, "worker.execute", 0.0, 1.0, {"worker.udf": 0.2}),
        _span(2, 1, "storage.write", 0.3, 0.7),
        _span(3, 2, "storage.fsync", 0.4, 0.6),
        _span(4, 0, "worker.execute", 2.0, 2.5),
        _span(5, 0, "transport.fetch", 0.1, 0.9),  # a fetcher thread
    ]
    inside, outside, worst = reconcile(spans, "worker.execute")
    assert worst == pytest.approx(0.0, abs=1e-12)
    assert sum(inside.values()) == pytest.approx(1.5)
    assert inside["worker.udf"] == pytest.approx(0.2)
    assert inside["storage.fsync"] == pytest.approx(0.2)
    assert inside["storage.write"] == pytest.approx(0.2)
    assert inside["worker.execute"] == pytest.approx(0.4 + 0.5)
    assert outside == {"transport.fetch": pytest.approx(0.8)}


def test_reconcile_reports_overlapping_children_as_a_gap():
    # two same-thread children cannot overlap; if they do, the tree is
    # inconsistent and the gap shows it
    spans = [_span(1, 0, "worker.execute", 0.0, 1.0),
             _span(2, 1, "storage.write", 0.0, 0.8),
             _span(3, 1, "storage.read", 0.2, 1.0)]
    _, _, worst = reconcile(spans, "worker.execute")
    assert worst == pytest.approx(0.6)


def test_wrappers_nest_spans_and_attribute_counters():
    rec = Recorder()

    def udf(x):
        return x + 1

    counted = counter_wrapper(rec, "worker.udf", udf)

    def inner():
        return sum(counted(i) for i in range(100))

    traced_inner = span_wrapper(rec, "storage.write", inner)
    outer = span_wrapper(rec, "worker.execute",
                         lambda: traced_inner() + counted(0))
    assert outer() == sum(range(1, 101)) + 1
    by_name = {s[tracing.NAME]: s for s in rec.spans}
    write, execute = by_name["storage.write"], by_name["worker.execute"]
    assert write[tracing.PARENT] == execute[tracing.SID]
    assert set(write[tracing.COUNTED]) == {"worker.udf"}
    assert rec.counters()["worker.udf"][0] == 101
    inside, _, worst = reconcile(rec.spans, "worker.execute")
    assert worst < 1e-9
    assert inside["worker.udf"] == pytest.approx(
        rec.counters()["worker.udf"][1])


def test_counters_merge_across_threads():
    rec = Recorder()
    tick = counter_wrapper(rec, "c", lambda: None)
    threads = [threading.Thread(target=lambda: [tick() for _ in range(500)])
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert rec.counters()["c"][0] == 2000


def test_patch_restores_methods_and_staticmethods(tmp_path):
    class Box:
        @staticmethod
        def write(path, data):
            return len(data)

        def get(self, key):
            return key

    inst = Instrumentation(Recorder(), tmp_path)
    raw_write, raw_get = Box.__dict__["write"], Box.__dict__["get"]
    inst._span(Box, "write", "storage.write")
    inst._counter(Box, "get", "storage.tier_get")
    inst._span(Box, "gone", "x")
    assert Box.write("p", b"abc") == 3 and Box().get(5) == 5
    assert inst.missing == ["Box.gone"]
    inst.uninstall()
    assert Box.__dict__["write"] is raw_write
    assert Box.__dict__["get"] is raw_get


# ------------------------------------------------------------- leak checker
def test_leak_checker_separates_crash_window_tmp(tmp_path):
    killed_pid = 4242
    node = tmp_path / "node000" / "map" / "job1" / "task0"
    node.mkdir(parents=True)
    (node / "part0.bin").write_bytes(b"x")
    (node / f"part1.bin.{killed_pid}-1399.tmp").write_bytes(b"torn")
    leaks = hygiene.check_leaks(tmp_path, pids=[], killed_pids=[killed_pid],
                                fd_baseline=10, fds_now=10)
    assert leaks.clean and leaks.crash_window_tmp == 1

    (node / "meta.json.777-1.tmp").write_bytes(b"stray")
    leaks = hygiene.check_leaks(tmp_path, pids=[], killed_pids=[killed_pid],
                                fd_baseline=10, fds_now=10)
    assert not leaks.clean
    assert leaks.tmp_files == [
        "node000/map/job1/task0/meta.json.777-1.tmp"]
    assert leaks.crash_window_tmp == 1


def test_leak_checker_flags_live_pids_fds_and_segments(tmp_path):
    shm = tmp_path / "shm"
    shm.mkdir()
    (shm / "rcmpabcp0_n000_deadbeef").write_bytes(b"")
    (shm / "rcmpotherp1_n000_x").write_bytes(b"")
    leaks = hygiene.check_leaks(tmp_path / "missing", pids=[os.getpid()],
                                fd_baseline=5, fds_now=7, shm_dir=shm,
                                shm_prefix="rcmpabcp")
    assert leaks.live_pids == [os.getpid()]
    assert leaks.fd_delta == 2
    assert leaks.shm_segments == ["rcmpabcp0_n000_deadbeef"]
    assert not leaks.clean
    assert "live worker pids" in leaks.describe()


def test_pid_alive_false_for_reaped_child():
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    assert not hygiene.pid_alive(pid)
    assert hygiene.pid_alive(os.getpid())


# ------------------------------------------------------------- manifest
def test_committed_manifest_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()


def test_manifest_names_are_unique_and_bounded():
    doc = spec.manifest()
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert len(names) == len(set(names))
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in doc["end_to_end"])
