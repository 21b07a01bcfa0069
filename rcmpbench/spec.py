"""What the benchmark measures: workloads, metric names, units, bounds,
and the order statistics every timing is reported with.

This module is the single source of truth for ``BENCHMARK.json``
(``python3 rcmpbench/run.py --write-manifest`` regenerates it and
``tests/test_helpers.py`` checks the committed file still matches)."""

from __future__ import annotations

import math
import statistics

RUN_SECONDS = 35

#: workload name -> why it exists (one line each); these are gated
WORKLOADS = {
    "exec-small": "failure-free 3-job chain on a fresh 4-worker pool per "
                  "chain; per-task fixed cost (dispatch, fsync) dominates",
    "exec-recover": "5-job chain with a SIGKILL at job 3; UDF, codec, "
                    "shuffle fetch and the recompute cascade dominate",
    "sim-stic": "simulated STIC testbed, failure at job 7; measures "
                "simcore, mapreduce, dfs and core, no runtime layer",
}

#: runnable by name but not in BENCHMARK.json: its run-to-run spread on
#: a 2-CPU host exceeds the largest bound allowed (see README.md)
UNGATED = {
    "service-mix": "two tenants on one resident service: concurrent "
                   "chains, admission, replica writes, cross-run cache",
}

#: (name, unit, better, bound) — reported by every workload untraced.
#: Ten 35 s runs per workload on a 2-CPU host spread ((Q3 - Q1) / median)
#: by up to 0.095 on the timing metrics and 0.002 on memory; the host's
#: own CPU speed drifts by about that much over tens of seconds.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("chain_s_p50", "s", "lower", 0.25),
    ("chains_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_chain", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

#: end-to-end figures that apply to some workloads only; printed by
#: name in the report lines, but not part of the gated JSON result
#: (which must carry the same metric set on every workload)
WORKLOAD_SPECIFIC = [
    ("chain_s_p90", "s"),          # runs with >= 100 chains
    ("recovery_s_p50", "s"),       # exec-recover
    ("inproc_chain_s_p50", "s"),   # exec-*
    ("failed_ratio", "ratio"),     # every workload; 0 on a healthy tree
]

#: (name, unit, better) — reported by every workload's traced run
#: (0 where the layer is not exercised); counts and seconds are per
#: chain, latencies are per-task medians
PER_LAYER = [
    ("pool.start_s", "s", "lower"),
    ("pool.shutdown_s", "s", "lower"),
    ("coordinator.dispatch_n", "count", "lower"),
    ("coordinator.dispatch_s", "s", "lower"),
    ("coordinator.pump_wait_s", "s", "lower"),
    ("coordinator.events_n", "count", "lower"),
    ("coordinator.self_s", "s", "lower"),
    ("coordinator.cmd_latency_s", "s", "lower"),
    ("coordinator.event_latency_s", "s", "lower"),
    ("recovery.plan_n", "count", "lower"),
    ("recovery.plan_s", "s", "lower"),
    ("recovery.cascade_jobs_n", "count", "lower"),
    ("recovery.recomputed_tasks_n", "count", "lower"),
    ("recovery.wall_s", "s", "lower"),
    ("storage.fsync_n", "count", "lower"),
    ("storage.fsync_s", "s", "lower"),
    ("storage.write_n", "count", "lower"),
    ("storage.write_s", "s", "lower"),
    ("storage.write_bytes", "bytes", "lower"),
    ("storage.encode_s", "s", "lower"),
    ("storage.encode_bytes", "bytes", "lower"),
    ("storage.decode_s", "s", "lower"),
    ("storage.read_n", "count", "lower"),
    ("storage.read_s", "s", "lower"),
    ("storage.tier_hit_ratio", "ratio", "higher"),
    ("storage.registry_s", "s", "lower"),
    ("transport.fetch_n", "count", "lower"),
    ("transport.fetch_s", "s", "lower"),
    ("transport.wait_s", "s", "lower"),
    ("transport.serve_s", "s", "lower"),
    ("transport.bytes_tcp", "bytes", "lower"),
    ("transport.bytes_local", "bytes", "lower"),
    ("worker.task_n", "count", "lower"),
    ("worker.map_s", "s", "lower"),
    ("worker.reduce_s", "s", "lower"),
    ("worker.replicate_s", "s", "lower"),
    ("worker.udf_s", "s", "lower"),
    ("worker.input_s", "s", "lower"),
    ("worker.self_s", "s", "lower"),
    ("worker.busy_share", "ratio", "higher"),
    ("service.admission_wait_s", "s", "lower"),
    ("service.running_peak", "count", "higher"),
    ("cache.job_hit_share", "ratio", "higher"),
    ("cache.adopt_s", "s", "lower"),
    ("cache.admit_s", "s", "lower"),
    ("localexec.run_job_s", "s", "lower"),
    ("simcore.run_s", "s", "lower"),
    ("simcore.events_n", "count", "lower"),
    ("simcore.events_per_s", "1/s", "higher"),
    ("simcore.transfer_n", "count", "lower"),
    ("mapreduce.jobs_n", "count", "lower"),
    ("proc.cpu_s_coordinator", "s", "lower"),
    ("proc.cpu_s_workers", "s", "lower"),
    ("trace.chain_s_p50", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.lost_tasks", "count", "lower"),
    ("trace.worker_gap_share", "ratio", "lower"),
    ("trace.coordinator_gap_share", "ratio", "lower"),
]

#: how far (as a share of the measured wall) the layer times plus self
#: time of one task or one chain may miss that wall before the traced
#: run reports it as not reconciled
RECONCILE_TOLERANCE = 0.02


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "rcmpbench/run.py"],
        "paths": ["rcmpbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# ------------------------------------------------------------ order statistics
def median(values) -> float:
    """Median of ``values``; 0.0 for none (a layer that did not run)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int | None:
    """The highest of p90/p99/p999 (in that order of preference, highest
    first) that leaves at least ten of ``n`` samples beyond it, or None
    when even p90 would not."""
    best = None
    for q in (90, 99, 99.9):
        if n * (100 - q) / 100.0 >= 10 - 1e-9:
            best = q
    return best


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles``
    gives them — the run-to-run spread the bounds are judged against."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
