#!/usr/bin/env python
"""DAG benchmark: the differential checksum matrix on non-linear graphs.

The diamond (fork/join) and the 3-dimension data-cube lattice (8
cuboids, 4 sinks) run on the 4-node process backend across the four
execution strategies under three kill schedules — none, a single
SIGKILL at a mid-DAG job start, and two kills spaced across the run.
Every run is checksum-verified byte-for-byte against the failure-free
in-process reference of the same graph, so a recovery planner mistake
on any branch (a lost record, a stale Fig. 5 map output, a sibling
branch recomputed from damaged inputs) fails the run rather than
skewing a number.

The failure-free diamond run doubles as the wave-scheduling smoke: the
independent branch jobs must commit with one shared wave wall time.

Results land in ``benchmarks/BENCH_dag.json`` (committed — the perf
trajectory record).  ``--check`` re-runs at a reduced scale and fails
non-zero on any violated claim — the CI gate for DAG recovery.

Usage::

    PYTHONPATH=src python benchmarks/run_dag_bench.py
    PYTHONPATH=src python benchmarks/run_dag_bench.py --check
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
from repro.workloads import cube_dependencies, shape_dependencies

STRATEGIES = ("rcmp", "optimistic", "repl2", "hybrid")

#: shape -> (dependencies, single-kill schedule, double-kill schedule)
SHAPES = {
    "diamond": (shape_dependencies("diamond"),
                "kill@job2+0:node=1",
                "kill@job2+0:node=1; kill@job4+0:node=2"),
    "cube3": (cube_dependencies(3),
              "kill@job5+0:node=1",
              "kill@job2+0:node=1; kill@job8+0:node=2"),
}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=192,
                        help="chain input records per node")
    parser.add_argument("--partitions", type=int, default=4)
    add_check_and_out(parser, "BENCH_dag.json")
    return parser.parse_args()


def run_chain(chain: LocalJobConfig, expected: str, faults: str,
              **config_kwargs):
    config = RuntimeConfig(n_nodes=4, chain=chain, task_slots=2,
                           **config_kwargs)
    model = FaultModel.parse(faults) if faults else None
    with tempfile.TemporaryDirectory(prefix="rcmp-dag-") as workdir:
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
        "recovered_jobs": sorted({j for j, kind, _ in report.job_times
                                  if kind in ("recompute", "rerun")}),
    }


def main() -> int:
    args = parse_args()
    records = 48 if args.check else args.records
    failures: list[str] = []

    t0 = time.perf_counter()
    matrix: dict = {}
    for shape, (deps, single, double) in SHAPES.items():
        chain = LocalJobConfig(n_jobs=len(deps),
                               n_partitions=args.partitions,
                               records_per_node=records,
                               records_per_block=16, split_ratio=2,
                               seed=0, dependencies=deps)
        expected = reference_checksum(chain)
        schedules = {"none": "", "single": single, "double": double}
        matrix[shape] = {}
        for strategy in STRATEGIES:
            matrix[shape][strategy] = {}
            for label, faults in schedules.items():
                report = run_chain(chain, expected, faults,
                                   strategy=strategy)
                row = summarize(report)
                matrix[shape][strategy][label] = row
                kills = label != "none" and (2 if label == "double" else 1)
                if row["deaths"] != (kills or 0):
                    failures.append(
                        f"{shape}/{strategy}/{label}: expected "
                        f"{kills or 0} deaths, saw {row['deaths']}")
                print(f"{shape:>8s} {strategy:>10s} {label:>6s}: "
                      f"{row['wall_s']}s "
                      f"({row['recovery_s']}s recovering, "
                      f"{row['deaths']} deaths)")
                if label == "none" and strategy == "rcmp":
                    # wave-scheduling smoke: the graph's independent
                    # jobs commit with one shared wave wall time
                    walls = {j: w for j, _, w in report.job_times}
                    graph = chain.graph()
                    for level in graph.topo_levels(
                            range(1, chain.n_jobs + 1)):
                        if len({round(walls[j], 9)
                                for j in level}) != 1:
                            failures.append(
                                f"{shape}: level {level} did not run "
                                f"as one wave (walls "
                                f"{[walls[j] for j in level]})")

    # recovery must be non-vacuous: every kill schedule on the rcmp
    # strategy recomputed at least one job
    for shape in SHAPES:
        for label in ("single", "double"):
            if not matrix[shape]["rcmp"][label]["recovered_jobs"]:
                failures.append(f"{shape}/rcmp/{label}: kill recovered "
                                "no jobs — the matrix is vacuous")

    payload = {
        "chain": {"partitions": args.partitions,
                  "records_per_node": records, "nodes": 4,
                  "task_slots": 2},
        "shapes": {shape: {"jobs": len(deps), "single": single,
                           "double": double}
                   for shape, (deps, single, double) in SHAPES.items()},
        "check_mode": args.check,
        "cpu_count": os.cpu_count(),
        "matrix": matrix,
        "bench_wall_s": round(time.perf_counter() - t0, 1),
    }
    write_payload(payload, "BENCH_dag.json", args.out)
    return finish(failures)


if __name__ == "__main__":
    raise SystemExit(main())
