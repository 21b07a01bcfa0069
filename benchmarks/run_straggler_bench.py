#!/usr/bin/env python
"""Straggler benchmark: completion time under a throttled node, A/B.

One pinned straggler (``slow@1:F`` for F in {2, 10}) on the 4-node
process backend, across the four execution strategies, with speculative
recomputation off and on.  Every run is checksum-verified against the
failure-free in-process reference and must finish with **zero declared
deaths** — a throttled node is slow, never dead, and must never be
cascade-recovered.  Two follow-on scenarios cover the recovery surface:

* **straggler + kill**: the 10x straggler composes with a real SIGKILL
  of a healthy peer; completion splits into run time vs recovery time.
* **pre-replication**: speculation off, ``pre_replicate`` on — the
  suspected node's committed pieces gain healthy second holders.

Results land in ``benchmarks/BENCH_straggler.json`` (committed — the
perf trajectory record).  ``--check`` re-runs at a reduced scale and
fails non-zero unless speculation beats speculation-off at 10x for all
four strategies — the CI smoke for the tail-latency headline claim.

Usage::

    PYTHONPATH=src python benchmarks/run_straggler_bench.py
    PYTHONPATH=src python benchmarks/run_straggler_bench.py --check
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

from common import (
    add_check_and_out,
    finish,
    reference_checksum,
    write_payload,
)

from repro.faults import FaultModel
from repro.localexec import LocalJobConfig
from repro.runtime import RuntimeConfig, coordinator

STRATEGIES = ("rcmp", "optimistic", "repl2", "hybrid")
FACTORS = (2, 10)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=192,
                        help="chain input records per node")
    parser.add_argument("--jobs", type=int, default=3)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per (strategy, factor, mode), best-of")
    add_check_and_out(parser, "BENCH_straggler.json")
    return parser.parse_args()


def run_chain(chain: LocalJobConfig, expected: str, faults: str,
              **config_kwargs):
    config = RuntimeConfig(n_nodes=4, chain=chain, task_slots=2,
                           **config_kwargs)
    model = FaultModel.parse(faults) if faults else None
    with tempfile.TemporaryDirectory(prefix="rcmp-straggler-") as workdir:
        report = coordinator.run_chain(config, workdir, fault_model=model)
    if report.checksum != expected:
        raise SystemExit(f"checksum mismatch under {config_kwargs} "
                         f"faults={faults!r}: "
                         f"{report.checksum} != {expected}")
    return report


def summarize(report) -> dict:
    recovery = sum(w for _, kind, w in report.job_times if kind != "run")
    return {
        "wall_s": round(report.wall_time, 3),
        "recovery_s": round(recovery, 3),
        "deaths": len(report.deaths),
        "attempts": report.speculation.get("attempts", 0),
        "wins": report.speculation.get("wins", 0),
        "wasted_bytes": report.speculation.get("wasted_bytes", 0),
    }


def straggler_ab(chain: LocalJobConfig, expected: str, strategy: str,
                 factor: int, repeat: int, failures: list) -> dict:
    """Speculation off vs on under ``slow@1:factor``, best-of-N."""
    result = {}
    for label, spec in (("spec_off", False), ("spec_on", True)):
        best = None
        for _ in range(repeat):
            report = run_chain(chain, expected, f"slow@1:{factor}",
                               strategy=strategy, speculation=spec,
                               speculation_min_age=0.02)
            if report.deaths:
                failures.append(
                    f"{strategy}@{factor}x/{label}: throttled-but-alive "
                    f"node declared dead ({report.deaths})")
            row = summarize(report)
            if best is None or row["wall_s"] < best["wall_s"]:
                best = row
        result[label] = best
    result["speedup"] = round(result["spec_off"]["wall_s"]
                              / max(1e-9, result["spec_on"]["wall_s"]), 3)
    return result


def main() -> int:
    args = parse_args()
    jobs = 2 if args.check else args.jobs
    repeat = 2 if args.check else args.repeat
    chain = LocalJobConfig(n_jobs=jobs, n_partitions=args.partitions,
                           records_per_node=args.records,
                           records_per_block=16, split_ratio=2, seed=0)
    expected = reference_checksum(chain)
    failures: list[str] = []

    t0 = time.perf_counter()
    matrix: dict = {}
    for strategy in STRATEGIES:
        matrix[strategy] = {}
        for factor in FACTORS:
            ab = straggler_ab(chain, expected, strategy, factor,
                              repeat, failures)
            matrix[strategy][f"{factor}x"] = ab
            print(f"{strategy:>10s} @{factor:>2d}x: "
                  f"spec-off {ab['spec_off']['wall_s']}s vs "
                  f"spec-on {ab['spec_on']['wall_s']}s "
                  f"(speedup {ab['speedup']}x, "
                  f"{ab['spec_on']['attempts']} attempts)")

    # a 10x straggler composed with a real kill of a healthy peer:
    # recovery and speculation must coexist
    with_kill: dict = {}
    for strategy in STRATEGIES:
        report = run_chain(chain, expected,
                           "slow@1:10; kill@job2+0:node=2",
                           strategy=strategy, speculation=True,
                           speculation_min_age=0.02)
        row = summarize(report)
        with_kill[strategy] = row
        if row["deaths"] != 1:
            failures.append(f"{strategy} straggler+kill: expected exactly "
                            f"one death, saw {row['deaths']}")
        print(f"{strategy:>10s} +kill: {row['wall_s']}s "
              f"({row['recovery_s']}s recovering)")

    # pre-replication: the straggler's sole-copy pieces gain healthy
    # second holders while it is merely suspected
    report = run_chain(chain, expected, "slow@1:10",
                       pre_replicate=True)
    pre = summarize(report)
    pre["pre_replicated"] = report.speculation.get("pre_replicated", 0)
    print(f"pre-replicate: {pre['pre_replicated']} pieces copied off the "
          f"straggler in {pre['wall_s']}s")
    if pre["pre_replicated"] < 1:
        failures.append("pre-replication copied nothing off the straggler")
    if pre["deaths"]:
        failures.append("pre-replication run declared the straggler dead")

    payload = {
        "chain": {"jobs": jobs, "partitions": args.partitions,
                  "records_per_node": args.records, "nodes": 4,
                  "task_slots": 2},
        "check_mode": args.check,
        "cpu_count": os.cpu_count(),
        "straggler": matrix,
        "straggler_plus_kill": with_kill,
        "pre_replication": pre,
        "bench_wall_s": round(time.perf_counter() - t0, 1),
    }
    write_payload(payload, "BENCH_straggler.json", args.out)

    for strategy in STRATEGIES:
        ab = matrix[strategy]["10x"]
        if ab["spec_on"]["wall_s"] >= ab["spec_off"]["wall_s"]:
            failures.append(
                f"{strategy}@10x: speculation did not cut completion "
                f"({ab['spec_on']['wall_s']}s >= "
                f"{ab['spec_off']['wall_s']}s)")
        if ab["spec_on"]["attempts"] < 1:
            failures.append(f"{strategy}@10x: speculation never attempted "
                            "a backup — the comparison is vacuous")
    return finish(failures)


if __name__ == "__main__":
    raise SystemExit(main())
