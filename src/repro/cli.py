"""Command-line entry point: regenerate any evaluation figure.

Usage::

    rcmp-repro list
    rcmp-repro fig8 --scale bench
    rcmp-repro all --scale ci
    rcmp-repro run --cluster stic --strategy rcmp --failures 7
    rcmp-repro run --cluster tiny --failures 2 --trace /tmp/run.json
    rcmp-repro exec --backend process --nodes 4 --faults "kill@job2+0.1"
    rcmp-repro serve --nodes 4 --port 7421 --task-slots 2 --mtbf 30
    rcmp-repro submit --port 7421 --jobs 3 --records 64 --wait
    rcmp-repro status --port 7421
    rcmp-repro analyze /tmp/run.json
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster import presets
from repro.core import strategies
from repro.core.middleware import run_chain
from repro.experiments import ALL_FIGURES
from repro.workloads.chain import build_chain

STRATEGIES = {
    "rcmp": strategies.RCMP,
    "rcmp-nosplit": strategies.RCMP_NOSPLIT,
    "repl2": strategies.REPL2,
    "repl3": strategies.REPL3,
    "optimistic": strategies.OPTIMISTIC,
    "hybrid": strategies.HYBRID,
}

CLUSTERS = {
    "stic": lambda: presets.stic(),
    "stic22": lambda: presets.stic((2, 2)),
    "dco": lambda: presets.dco(),
    "tiny": lambda: presets.tiny(4),
}


def _split_ratio(text: str):
    """argparse type for --split-ratio: an int, or "auto" (-> None)."""
    if text.lower() == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}")


def _task_slots(text: str):
    """argparse type for --task-slots: a positive int, or "auto"."""
    if text.lower() == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("--task-slots must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcmp-repro",
        description="Reproduction of RCMP (Dinu & Ng, IPDPS 2014)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible figures")

    trace_help = ("record a structured trace of every simulated run into "
                  "FILE (Chrome trace-event JSON; use a .jsonl suffix for "
                  "JSON Lines)")

    for name in ALL_FIGURES:
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--scale", default="bench",
                       choices=("ci", "bench", "paper"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trace", default=None, metavar="FILE",
                       help=trace_help)
        p.add_argument("--plot", action="store_true",
                       help="also render an ASCII plot when the figure "
                            "exposes raw series (fig2, fig10)")

    p = sub.add_parser("all", help="regenerate every figure")
    p.add_argument("--scale", default="bench",
                   choices=("ci", "bench", "paper"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, metavar="FILE", help=trace_help)

    p = sub.add_parser("run", help="run one chain execution")
    p.add_argument("--cluster", default="tiny", choices=sorted(CLUSTERS))
    p.add_argument("--strategy", default="rcmp", choices=sorted(STRATEGIES))
    p.add_argument("--jobs", type=int, default=7)
    fault_group = p.add_mutually_exclusive_group()
    fault_group.add_argument("--failures", default=None,
                             help='FAIL spec, e.g. "2" or "7,14"')
    fault_group.add_argument(
        "--faults", default=None,
        help='generalized fault spec, clauses separated by ";", e.g. '
             '"transient@job2:down=45; disk@job3+10" or '
             '"mtbf=600:transient,kill,down=60" '
             '(see repro.faults.model for the grammar)')
    p.add_argument("--mtbf", type=float, default=None,
                   help="add seeded Poisson fail-stop arrivals with this "
                        "mean time between failures (seconds)")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="dedicated RNG seed for the stochastic fault "
                        "arrival process (default: derived from --seed)")
    p.add_argument("--heartbeat-interval", type=float, default=None,
                   help="failure-detector heartbeat period (seconds)")
    p.add_argument("--heartbeat-expiry", type=float, default=None,
                   help="heartbeat silence before a node is declared dead "
                        "(0 = the paper's omniscient detector)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, metavar="FILE", help=trace_help)

    p = sub.add_parser(
        "exec",
        help="run a record-level chain on an execution backend")
    p.add_argument("--backend", default="process",
                   choices=("inproc", "process"),
                   help="inproc = the in-process LocalCluster; process = "
                        "real worker processes with live SIGKILL injection")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--jobs", type=int, default=3)
    p.add_argument("--dag", default=None, metavar="SHAPE",
                   help='DAG shape instead of a linear chain: "diamond", '
                        '"fanin:K", "fanout:K", "tree:DEPTH", '
                        '"cube:DIMS" (the cuboid lattice), or "linear"; '
                        "the shape sets the job count (--jobs is "
                        "ignored)")
    p.add_argument("--partitions", type=int, default=4)
    p.add_argument("--records", type=int, default=64,
                   help="chain input records per node")
    p.add_argument("--block", type=int, default=16,
                   help="records per map-input block")
    p.add_argument("--value-size", type=int, default=16,
                   help="record value bytes")
    p.add_argument("--split-ratio", type=_split_ratio, default=None,
                   metavar="K",
                   help='k-way reducer splitting during recovery, or '
                        '"auto" (the default) for survivors-1 — the '
                        "paper's choice, matching the simulator's "
                        "Strategy.effective_split; capped at the "
                        "surviving-node count")
    p.add_argument("--strategy", default="rcmp",
                   choices=("rcmp", "optimistic", "repl2", "repl3",
                            "hybrid"))
    p.add_argument("--hybrid-interval", type=int, default=2,
                   help="replicate every k-th job output "
                        "(--strategy hybrid)")
    p.add_argument("--hybrid-replication", type=int, default=2,
                   help="replication factor at hybrid anchors")
    p.add_argument("--hybrid-reclaim", action="store_true",
                   help="reclaim persisted outputs behind each intact "
                        "hybrid anchor")
    p.add_argument("--faults", default=None,
                   help='planned fault events, e.g. "kill@job1+5", '
                        '"kill@job2:node=3; kill@job2+0.5", or a '
                        'straggler "slow@2:10" (node 2 runs 10x slow; '
                        'the process backend throttles the live worker; '
                        'the inproc backend kills at the job boundary '
                        'and takes fail-stop only)')
    p.add_argument("--speculation", action="store_true",
                   help="launch backup attempts for tail tasks on idle "
                        "slots; first commit wins, the loser's partial "
                        "output is swept (process backend)")
    p.add_argument("--speculation-slowdown", type=float, default=2.0,
                   metavar="X",
                   help="a tail task older than X times the batch's "
                        "median committed wall earns a backup attempt")
    p.add_argument("--pre-replicate", action="store_true",
                   help="eagerly copy outputs held by a suspected-slow "
                        "node to a healthy peer so its later death "
                        "cascades nothing (process backend)")
    p.add_argument("--suspect-ratio", type=float, default=3.0,
                   metavar="R",
                   help="suspect a node slow when its commit rate times "
                        "R sits below the fleet median")
    p.add_argument("--suspect-window", type=float, default=1.0,
                   metavar="SECS",
                   help="trailing window for progress-rate suspicion")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="RNG seed picking unpinned kill victims")
    p.add_argument("--fault-scale", type=float, default=1.0,
                   help="multiply fault-plan offsets (shrink simulated-"
                        "seconds plans onto fast real runs)")
    p.add_argument("--task-slots", type=_task_slots, default=1,
                   metavar="N",
                   help='concurrent tasks per worker process: 1 (the '
                        'default) keeps classic single-slot semantics, '
                        'N > 1 runs tasks on a slot thread pool, "auto" '
                        "splits the host's cores across the workers "
                        "(process backend)")
    p.add_argument("--fetch-parallelism", type=int, default=4,
                   metavar="N",
                   help="concurrent shuffle fetches per reduce/replicate "
                        "task — source nodes are fetched in parallel and "
                        "merged as responses land (process backend)")
    p.add_argument("--no-server-filter", action="store_true",
                   help="disable server-side split filtering: k-way "
                        "split reducers pull the full partition bytes "
                        "and filter client-side (the pre-pipelining "
                        "data plane; for A/B measurement)")
    p.add_argument("--memory-budget", type=int, default=64,
                   metavar="MiB",
                   help="hot-tier bytes each worker pins in RAM: "
                        "committed map slices and reduce pieces are "
                        "served from memory and spill to their on-disk "
                        "files (the durability tier) above the budget; "
                        "0 disables the tier (default 64)")
    p.add_argument("--shared-memory", action="store_true",
                   help="publish committed outputs as shared-memory "
                        "segments so colocated workers attach instead "
                        "of fetching over loopback TCP (experimental)")
    p.add_argument("--heartbeat-interval", type=float, default=0.05,
                   help="worker heartbeat period, wall-clock seconds "
                        "(process backend)")
    p.add_argument("--heartbeat-expiry", type=float, default=0.0,
                   help="heartbeat silence before a node is declared dead "
                        "(0 = the paper's omniscient detector)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep the per-node output directories here "
                        "(default: a deleted temporary directory)")
    p.add_argument("--trace", default=None, metavar="FILE", help=trace_help)

    p = sub.add_parser(
        "serve",
        help="run a resident chain service: one shared worker pool "
             "accepting submitted chains over a TCP front door")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421,
                   help="front-door TCP port (0 = pick a free one)")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--task-slots", type=_task_slots, default=2,
                   metavar="N",
                   help="concurrent task slots per worker (chains from "
                        "different tenants share the slots)")
    p.add_argument("--policy", default="fifo", choices=("fifo", "fair"),
                   help="admission order: strict FIFO, or fair-share "
                        "(least-loaded tenant first)")
    p.add_argument("--max-concurrent", type=int, default=4,
                   help="chains allowed to run simultaneously")
    p.add_argument("--mtbf", type=float, default=None,
                   help="inject service-level fail-stop arrivals with "
                        "this mean time between failures (seconds)")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--min-alive", type=int, default=2,
                   help="never let MTBF kills reduce the pool below "
                        "this many live workers")
    p.add_argument("--replace-dead", action="store_true",
                   help="respawn a replacement worker for each dead "
                        "node so the pool does not bleed capacity")
    p.add_argument("--speculation", action="store_true",
                   help="default straggler speculation for submitted "
                        "chains (overridable per submission)")
    p.add_argument("--pre-replicate", action="store_true",
                   help="default straggler pre-replication for "
                        "submitted chains")
    p.add_argument("--heartbeat-interval", type=float, default=0.05)
    p.add_argument("--heartbeat-expiry", type=float, default=0.0)
    p.add_argument("--cache-budget", type=int, default=64, metavar="MiB",
                   help="cross-run result cache byte budget in MiB "
                        "(0 disables caching; default 64).  Cached job "
                        "outputs survive in the workdir and overlapping "
                        "submissions skip their cached prefix")
    p.add_argument("--memory-budget", type=int, default=64,
                   metavar="MiB",
                   help="per-worker hot-tier byte budget in MiB "
                        "(0 disables the memory tier; default 64)")
    p.add_argument("--shared-memory", action="store_true",
                   help="shared-memory handoff between the pool's "
                        "colocated workers (experimental)")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep the per-node chain namespaces here "
                        "(default: a deleted temporary directory; a "
                        "persistent dir keeps the result cache warm "
                        "across service restarts)")

    p = sub.add_parser("submit",
                       help="submit one chain to a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--tenant", default="default",
                   help="tenant name (drives fair-share admission)")
    p.add_argument("--jobs", type=int, default=3)
    p.add_argument("--dag", default=None, metavar="SHAPE",
                   help='DAG shape instead of a linear chain: "diamond", '
                        '"fanin:K", "fanout:K", "tree:DEPTH", '
                        '"cube:DIMS", or "linear"; the shape sets the '
                        "job count (--jobs is ignored)")
    p.add_argument("--partitions", type=int, default=4)
    p.add_argument("--records", type=int, default=64,
                   help="chain input records per node")
    p.add_argument("--block", type=int, default=16,
                   help="records per map-input block")
    p.add_argument("--value-size", type=int, default=16)
    p.add_argument("--strategy", default="rcmp",
                   choices=("rcmp", "optimistic", "repl2", "repl3",
                            "hybrid"))
    p.add_argument("--speculation", action="store_true",
                   help="straggler speculation for this chain")
    p.add_argument("--pre-replicate", action="store_true",
                   help="straggler pre-replication for this chain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-cache", action="store_true",
                   help="opt this chain out of the cross-run result "
                        "cache (no prefix adoption, no admission)")
    p.add_argument("--wait", action="store_true",
                   help="block until the chain finishes and print its "
                        "report")

    p = sub.add_parser("status",
                       help="query a running service (whole service, or "
                            "one chain with --id)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--id", default=None, metavar="CHAIN",
                   help="one chain's status instead of the service's")

    p = sub.add_parser("analyze",
                       help="utilization report from a recorded trace")
    p.add_argument("trace", help="trace file written by --trace")
    p.add_argument("--top", type=int, default=None,
                   help="only show the N busiest links")
    return parser


def _maybe_plot(name, module, args) -> None:
    from repro.analysis.plotting import line_plot

    if name == "fig2" and hasattr(module, "series"):
        series = module.series(args.scale, args.seed)
        print()
        print(line_plot(series, title="Fig. 2: CDF of new failures/day",
                        x_label="new failures per day"))
    elif name == "fig10" and hasattr(module, "curves"):
        curves = module.curves(args.scale, args.seed)
        from repro.experiments.fig10 import CHAIN_LENGTHS
        series = {k: (list(CHAIN_LENGTHS), list(v))
                  for k, v in curves.items()}
        print()
        print(line_plot(series, title="Fig. 10: slowdown vs chain length",
                        x_label="chain length (jobs)"))
    else:
        print("(no raw series exposed for this figure)")


def _traced(trace_path):
    """Context manager: record every run into ``trace_path`` (no-op when
    the path is falsy)."""
    from contextlib import nullcontext

    if not trace_path:
        return nullcontext(None)
    try:  # fail before the (possibly long) simulation, not after
        with open(trace_path, "w", encoding="utf-8"):
            pass
    except OSError as exc:
        raise SystemExit(f"rcmp-repro: cannot write trace file: {exc}")
    from repro.obs import RecordingTracer, tracing

    return tracing(RecordingTracer())


def _export_trace(tracer, trace_path) -> None:
    if tracer is None:
        return
    tracer.export(trace_path)
    print(f"trace written to {trace_path} "
          f"({len(tracer.events)} events; load in chrome://tracing, "
          f"or run: rcmp-repro analyze {trace_path})")


def _build_fault_input(args):
    """Combine --failures/--faults/--mtbf/--fault-seed into the run's
    fault input (None when no fault option was given)."""
    from dataclasses import replace

    from repro.faults import FaultModel

    if args.faults is None and args.mtbf is None \
            and args.fault_seed is None:
        return args.failures
    if args.failures is not None:
        raise SystemExit("rcmp-repro: --mtbf/--fault-seed require --faults "
                         "(or no plan at all), not the legacy --failures")
    try:
        model = FaultModel.parse(args.faults) if args.faults \
            else FaultModel()
        if args.mtbf is not None:
            model = replace(model, mtbf=args.mtbf)
        if args.fault_seed is not None:
            if not model.stochastic:
                raise ValueError("--fault-seed needs stochastic arrivals "
                                 "(--mtbf or an mtbf clause in --faults)")
            model = replace(model, seed=args.fault_seed)
    except ValueError as exc:
        raise SystemExit(f"rcmp-repro: {exc}")
    return model


def _exec_fault_model(args):
    if not args.faults:
        return None
    from repro.faults import FaultModel

    try:
        return FaultModel.parse(args.faults)
    except ValueError as exc:
        raise SystemExit(f"rcmp-repro: {exc}")


def _exec_process(args, chain, model, tracer):
    import tempfile
    from contextlib import nullcontext

    from repro.runtime import RuntimeConfig, run_chain

    try:
        kwargs = {}
        if args.strategy == "hybrid":
            kwargs = {"hybrid_interval": args.hybrid_interval,
                      "hybrid_replication": args.hybrid_replication,
                      "hybrid_reclaim": args.hybrid_reclaim}
        config = RuntimeConfig(n_nodes=args.nodes, chain=chain,
                               heartbeat_interval=args.heartbeat_interval,
                               heartbeat_expiry=args.heartbeat_expiry,
                               strategy=args.strategy,
                               task_slots=args.task_slots,
                               fetch_parallelism=args.fetch_parallelism,
                               server_split_filter=not args.no_server_filter,
                               memory_budget=args.memory_budget * (1 << 20),
                               shared_memory=args.shared_memory,
                               speculation=args.speculation,
                               speculation_slowdown=args.speculation_slowdown,
                               pre_replicate=args.pre_replicate,
                               suspect_ratio=args.suspect_ratio,
                               suspect_window=args.suspect_window,
                               **kwargs)
        workctx = (nullcontext(args.workdir) if args.workdir
                   else tempfile.TemporaryDirectory(prefix="rcmp-exec-"))
        with workctx as workdir:
            return run_chain(config, workdir, tracer=tracer,
                             fault_model=model, fault_seed=args.fault_seed,
                             fault_time_scale=args.fault_scale)
    except ValueError as exc:
        raise SystemExit(f"rcmp-repro: {exc}")


def _exec_inproc(args, chain, model, tracer):
    """The in-process backend: LocalCluster + the shared recovery rules.

    Kills land at job boundaries — the backend has no wall clock, so a
    ``+offset`` in the plan is ignored and time-anchored triggers
    (``kill@t30``) are rejected."""
    import random
    import time

    from repro.localexec import LocalCluster
    from repro.localexec.recovery import recompute_job
    from repro.obs import NULL_TRACER
    from repro.runtime import RunReport, chain_checksum
    from repro.runtime.recovery import cascade_jobs

    if args.strategy != "rcmp":
        raise SystemExit("rcmp-repro: the inproc backend recovers with "
                         "rcmp only; use --backend process for "
                         f"--strategy {args.strategy}")
    if args.speculation or args.pre_replicate:
        raise SystemExit("rcmp-repro: speculation and pre-replication "
                         "run real backup attempts on worker processes; "
                         "use --backend process")
    by_job = {}
    if model is not None:
        if model.stochastic:
            raise SystemExit("rcmp-repro: the inproc backend executes "
                             "planned kills only; mtbf arrivals are "
                             "simulator-only")
        for ev in model.events:
            if ev.kind != "fail-stop":
                raise SystemExit("rcmp-repro: the inproc backend cannot "
                                 f"inject {ev.kind!r} faults")
            if ev.at_job is None:
                raise SystemExit("rcmp-repro: the inproc backend has no "
                                 "wall clock; anchor kills to jobs "
                                 "(kill@jobN) or use --backend process")
            by_job.setdefault(ev.at_job, []).append(ev)

    tracer = tracer if tracer is not None else NULL_TRACER
    rng = random.Random(args.fault_seed)
    cluster = LocalCluster(args.nodes, chain)
    t_chain = time.monotonic()
    tracer.bind(lambda: time.monotonic() - t_chain, label="inproc-runtime")
    deaths = []
    job_times = []

    def timed(job, kind, fn):
        t0 = time.monotonic()
        span = tracer.span("job", f"job-{job}", job=job, kind=kind)
        try:
            fn()
        finally:
            span.end()
        job_times.append((job, kind, time.monotonic() - t0))

    def recover_damage():
        # the cascade is a cut over the dependency graph (ascending is
        # topological, so damaged parents recompute before consumers)
        cascade = cascade_jobs(
            cluster.graph, cluster.done_jobs,
            (j for j, d in cluster.damage.items() if any(d.values())))
        for j in cascade:
            timed(j, "recompute", lambda j=j: recompute_job(cluster, j))

    span = tracer.span("chain", f"chain-x{chain.n_jobs}",
                       nodes=args.nodes, strategy="rcmp")
    try:
        for job in range(1, chain.n_jobs + 1):
            recover_damage()
            timed(job, "run", lambda: cluster.run_job(job))
            for ev in by_job.pop(job, ()):
                victim = ev.node_id
                if victim is None:
                    candidates = sorted(cluster.alive)
                    if len(candidates) <= 1:
                        continue  # never strand the chain
                    victim = rng.choice(candidates)
                if victim in cluster.alive and len(cluster.alive) > 1:
                    cluster.kill(victim)
                    deaths.append((time.monotonic() - t_chain, victim))
                    tracer.instant("cascade", "node-death", node=victim)
        recover_damage()
    finally:
        span.end(deaths=len(deaths))
    return RunReport(checksum=chain_checksum(cluster.final_output()),
                     job_times=job_times, deaths=deaths,
                     n_nodes=args.nodes, strategy="rcmp")


def _cmd_serve(args) -> int:
    import tempfile
    from contextlib import nullcontext

    from repro.localexec import LocalJobConfig
    from repro.runtime import ChainService, MTBFKills, RuntimeConfig

    try:
        config = RuntimeConfig(
            n_nodes=args.nodes, chain=LocalJobConfig(),
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_expiry=args.heartbeat_expiry,
            task_slots=args.task_slots,
            memory_budget=args.memory_budget * (1 << 20),
            shared_memory=args.shared_memory,
            speculation=args.speculation,
            pre_replicate=args.pre_replicate)
        faults = (MTBFKills(args.mtbf, seed=args.fault_seed,
                            min_alive=args.min_alive)
                  if args.mtbf is not None else None)
        workctx = (nullcontext(args.workdir) if args.workdir
                   else tempfile.TemporaryDirectory(prefix="rcmp-serve-"))
        cache_budget = (args.cache_budget * (1 << 20)
                        if args.cache_budget > 0 else None)
        with workctx as workdir:
            with ChainService(config, workdir, policy=args.policy,
                              max_concurrent=args.max_concurrent,
                              faults=faults,
                              replace_dead=args.replace_dead,
                              cache_budget=cache_budget) as service:
                port = service.serve(host=args.host, port=args.port)
                cache_note = (f"cache={args.cache_budget}MiB"
                              if cache_budget else "cache=off")
                print(f"chain service on {args.host}:{port}  "
                      f"nodes={args.nodes} slots={args.task_slots} "
                      f"policy={args.policy} "
                      f"max_concurrent={args.max_concurrent} "
                      f"{cache_note}",
                      flush=True)
                try:
                    service.shutdown_requested.wait()
                except KeyboardInterrupt:
                    pass
                print("shutting down (draining running chains)")
        return 0
    except ValueError as exc:
        raise SystemExit(f"rcmp-repro: {exc}")


def _cmd_submit(args) -> int:
    from repro.runtime.service import request
    from repro.workloads import shape_dependencies

    try:
        dependencies = (shape_dependencies(args.dag)
                        if args.dag else None)
    except ValueError as exc:
        raise SystemExit(f"rcmp-repro: {exc}")
    n_jobs = (len(dependencies) if dependencies is not None
              else args.jobs)
    payload = {
        "op": "submit",
        "tenant": args.tenant,
        "chain": {"n_jobs": n_jobs, "n_partitions": args.partitions,
                  "records_per_node": args.records,
                  "records_per_block": args.block,
                  "value_size": args.value_size, "seed": args.seed},
        "overrides": {"strategy": args.strategy},
    }
    if dependencies is not None:
        payload["chain"]["dependencies"] = [list(d)
                                            for d in dependencies]
    if args.speculation:
        payload["overrides"]["speculation"] = True
    if args.pre_replicate:
        payload["overrides"]["pre_replicate"] = True
    if args.no_cache:
        payload["no_cache"] = True
    try:
        chain_id = request(args.port, payload, host=args.host)["id"]
    except (OSError, RuntimeError) as exc:
        raise SystemExit(f"rcmp-repro: {exc}")
    print(f"submitted {chain_id}")
    if not args.wait:
        return 0
    try:
        job = request(args.port, {"op": "wait", "id": chain_id},
                      host=args.host, timeout=600.0)["job"]
    except (OSError, RuntimeError) as exc:
        raise SystemExit(f"rcmp-repro: {exc}")
    _print_job(job)
    return 0 if job["state"] == "done" else 1


def _print_job(job: dict) -> None:
    line = (f"{job['id']:8s} {job['tenant']:<10s} {job['state']:<8s} "
            f"{job['strategy']:<10s}")
    if job.get("cached_jobs"):
        line += f" cached={job['cached_jobs']}"
    report = job.get("report")
    if report:
        line += (f" wall={report['wall_time']:.3f}s "
                 f"deaths={len(report['deaths'])} "
                 f"checksum={report['checksum'][:16]}")
    if job.get("error"):
        line += f" error: {job['error']}"
    print(line)


def _cmd_status(args) -> int:
    from repro.runtime.service import request

    try:
        status = request(args.port, {"op": "status", "id": args.id},
                         host=args.host)["status"]
    except (OSError, RuntimeError) as exc:
        raise SystemExit(f"rcmp-repro: {exc}")
    if args.id is not None:
        _print_job(status)
        return 0
    print(f"policy={status['policy']} "
          f"alive={status['alive']} epoch={status['epoch']} "
          f"queued={status['queued']} running={status['running']} "
          f"(peak {status['running_peak']}) "
          f"deaths={len(status['deaths'])}")
    cache = status.get("cache")
    if cache:
        print(f"cache: hits={cache['hits']} misses={cache['misses']} "
              f"(rate {cache['hit_rate']}) evicted={cache['evictions']} "
              f"invalidated={cache['invalidated']} "
              f"entries={cache['entries']} "
              f"bytes={cache['bytes']}/{cache['budget_bytes']}")
    for job in status["jobs"]:
        _print_job(job)
    return 0


def _cmd_exec(args) -> int:
    from repro.localexec import LocalJobConfig
    from repro.workloads import shape_dependencies

    try:
        dependencies = (shape_dependencies(args.dag)
                        if args.dag else None)
        n_jobs = (len(dependencies) if dependencies is not None
                  else args.jobs)
        chain = LocalJobConfig(n_jobs=n_jobs,
                               n_partitions=args.partitions,
                               records_per_node=args.records,
                               records_per_block=args.block,
                               value_size=args.value_size,
                               split_ratio=args.split_ratio,
                               seed=args.seed,
                               dependencies=dependencies)
    except ValueError as exc:
        raise SystemExit(f"rcmp-repro: {exc}")
    model = _exec_fault_model(args)
    with _traced(args.trace) as tracer:
        if args.backend == "process":
            report = _exec_process(args, chain, model, tracer)
        else:
            report = _exec_inproc(args, chain, model, tracer)
    print(f"backend={args.backend}  nodes={report.n_nodes}  "
          f"strategy={report.strategy}")
    print(report.render())
    _export_trace(tracer, args.trace)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, module in sorted(ALL_FIGURES.items()):
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0
    if args.command in ALL_FIGURES:
        module = ALL_FIGURES[args.command]
        with _traced(args.trace) as tracer:
            report = module.run(scale=args.scale, seed=args.seed)
        print(report.render())
        if getattr(args, "plot", False):
            _maybe_plot(args.command, module, args)
        _export_trace(tracer, args.trace)
        return 0
    if args.command == "all":
        with _traced(args.trace) as tracer:
            for name in sorted(ALL_FIGURES):
                report = ALL_FIGURES[name].run(scale=args.scale,
                                               seed=args.seed)
                print(report.render())
                print()
        _export_trace(tracer, args.trace)
        return 0
    if args.command == "run":
        cluster = CLUSTERS[args.cluster]()
        if args.heartbeat_interval is not None \
                or args.heartbeat_expiry is not None:
            from dataclasses import replace

            overrides = {}
            if args.heartbeat_interval is not None:
                overrides["heartbeat_interval"] = args.heartbeat_interval
            if args.heartbeat_expiry is not None:
                overrides["heartbeat_expiry"] = args.heartbeat_expiry
            cluster = replace(cluster, **overrides)
        failures = _build_fault_input(args)
        if args.cluster == "tiny":
            chain = build_chain(n_jobs=args.jobs,
                                per_node_input=256 * (1 << 20),
                                block_size=64 * (1 << 20))
        else:
            chain = build_chain(n_jobs=args.jobs)
        with _traced(args.trace) as tracer:
            result = run_chain(cluster, STRATEGIES[args.strategy],
                               chain=chain, failures=failures,
                               seed=args.seed)
        print(result)
        for job in result.metrics.jobs:
            print(f"  job #{job.ordinal:<3d} {job.name:<14s} "
                  f"kind={job.kind:<9s} outcome={job.outcome:<8s} "
                  f"duration={job.duration:8.1f}s")
        _export_trace(tracer, args.trace)
        return 0
    if args.command == "exec":
        return _cmd_exec(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "analyze":
        import json

        from repro.analysis.utilization import report_from_file

        try:
            print(report_from_file(args.trace, top=args.top))
        except OSError as exc:
            print(f"rcmp-repro: cannot read trace file: {exc}",
                  file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"rcmp-repro: {args.trace} is not a recorded trace "
                  f"({exc})", file=sys.stderr)
            return 2
        return 0
    return 1  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
