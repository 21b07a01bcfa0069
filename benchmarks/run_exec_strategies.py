#!/usr/bin/env python
"""Per-strategy wall-clock comparison on the process backend.

Runs the same record-level chain under every runtime strategy — same
nodes, same kill plan, real worker processes — and writes a side-by-side
table to ``benchmarks/exec_strategies.md`` plus a machine-readable
``exec_strategies.json`` next to it (untracked output, the
``last_run.md`` convention).  Every run's checksum is verified against
the failure-free in-process reference, so the numbers are only reported
for *correct* recoveries.

Usage::

    PYTHONPATH=src python benchmarks/run_exec_strategies.py
    PYTHONPATH=src python benchmarks/run_exec_strategies.py \
        --jobs 5 --faults "kill@job3+0:node=1" --hybrid-reclaim
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.faults import FaultModel
from repro.localexec import LocalCluster, LocalJobConfig
from repro.runtime import RuntimeConfig, chain_checksum, run_chain

STRATEGIES = ("rcmp", "optimistic", "repl2", "hybrid")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--records", type=int, default=96,
                        help="chain input records per node")
    parser.add_argument("--block", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--faults", default="kill@job2+0:node=1",
                        help="fault plan applied identically to every "
                             "strategy (empty string = failure-free)")
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument("--hybrid-interval", type=int, default=2)
    parser.add_argument("--hybrid-reclaim", action="store_true",
                        help="reclaim persisted files behind hybrid "
                             "anchors")
    parser.add_argument("--out", default=None,
                        help="output markdown path (default: "
                             "benchmarks/exec_strategies.md)")
    return parser.parse_args()


def reference_checksum(chain: LocalJobConfig, n_nodes: int) -> str:
    cluster = LocalCluster(n_nodes, chain)
    cluster.run_chain()
    return chain_checksum(cluster.final_output())


def run_one(strategy: str, chain: LocalJobConfig,
            args: argparse.Namespace):
    kwargs = {}
    if strategy == "hybrid":
        kwargs = {"hybrid_interval": args.hybrid_interval,
                  "hybrid_reclaim": args.hybrid_reclaim}
    config = RuntimeConfig(n_nodes=args.nodes, chain=chain,
                           strategy=strategy, **kwargs)
    model = FaultModel.parse(args.faults) if args.faults else None
    with tempfile.TemporaryDirectory(prefix="rcmp-bench-") as workdir:
        t0 = time.perf_counter()
        report = run_chain(config, workdir, fault_model=model,
                           fault_seed=args.fault_seed)
        return report, time.perf_counter() - t0


def main() -> int:
    args = parse_args()
    chain = LocalJobConfig(n_jobs=args.jobs, n_partitions=args.partitions,
                           records_per_node=args.records,
                           records_per_block=args.block, seed=args.seed)
    expected = reference_checksum(chain, args.nodes)
    rows = []
    for strategy in STRATEGIES:
        report, wall = run_one(strategy, chain, args)
        kinds = [k for _, k, _ in report.job_times]
        rows.append({
            "strategy": strategy,
            "wall": wall,
            "deaths": len(report.deaths),
            "recomputes": kinds.count("recompute"),
            "reruns": kinds.count("rerun"),
            "re_repl": kinds.count("re-replicate"),
            "reclaimed": report.reclaimed_bytes,
            "shuffle_bytes": report.total_shuffle_bytes,
            "ok": report.checksum == expected,
        })
        print(f"{strategy:<12s} {wall:7.2f}s  deaths={len(report.deaths)}"
              f"  checksum={'ok' if rows[-1]['ok'] else 'MISMATCH'}")

    header = (f"# Process-backend strategy comparison\n\n"
              f"chain: {args.jobs} jobs x {args.partitions} partitions, "
              f"{args.records} records/node on {args.nodes} nodes; "
              f"faults: `{args.faults or 'none'}`\n\n")
    table = ["| strategy | wall (s) | deaths | recomputes | reruns "
             "| re-replications | reclaimed (B) | checksum |",
             "|---|---|---|---|---|---|---|---|"]
    for row in rows:
        table.append(
            f"| {row['strategy']} | {row['wall']:.2f} | {row['deaths']} "
            f"| {row['recomputes']} | {row['reruns']} | {row['re_repl']} "
            f"| {row['reclaimed']} "
            f"| {'ok' if row['ok'] else 'MISMATCH'} |")
    out = Path(args.out) if args.out else \
        Path(__file__).parent / "exec_strategies.md"
    out.write_text(header + "\n".join(table) + "\n")
    payload = {
        "chain": {"jobs": args.jobs, "partitions": args.partitions,
                  "records_per_node": args.records, "nodes": args.nodes,
                  "seed": args.seed},
        "faults": args.faults or None,
        "rows": rows,
    }
    json_out = out.with_suffix(".json")
    json_out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwritten to {out} and {json_out}")
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
