"""The child side of a run: measure, then turn outcomes into metrics.

Untraced (``--trace 0``) the whole ``--seconds`` budget measures the
end-to-end metrics.  Traced (``--trace 1``) the first ``REFERENCE_SHARE``
of it runs untraced as the overhead reference, then the wrappers go in
and the rest runs traced; the per-layer metrics come from that part.
"""

from __future__ import annotations

import json
from pathlib import Path

from rcmpbench import hygiene, spec, tracing, workloads
from rcmpbench.spec import median
from rcmpbench.workloads import N_NODES, Outcome

REFERENCE_SHARE = 0.3
RECOVERY_KINDS = ("recompute", "rerun")


def recovery_s(report) -> float:
    """One chain's recovery wall: its recompute / rerun job walls."""
    return sum(t for _, kind, t in report.job_times
               if kind in RECOVERY_KINDS)


def run_child(root: Path, args) -> int:
    scratch = Path(args.child).parent
    lines = ["host: " + json.dumps(hygiene.host_metadata(root))]
    if args.trace:
        ref_seconds = max(2.0, REFERENCE_SHARE * args.seconds)
        ref = workloads.run_workload(args.workload, args.seed, ref_seconds,
                                     scratch / "reference")
        rec = tracing.Recorder()
        inst = tracing.Instrumentation(rec, scratch / "spool").install()
        try:
            out = workloads.run_workload(
                args.workload, args.seed,
                max(1.0, args.seconds - ref_seconds), scratch / "traced")
        finally:
            inst.uninstall()
        metrics = per_layer(args.workload, ref, out, rec, inst, lines)
        outcomes = (ref, out)
    else:
        out = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     scratch / "measured")
        metrics = end_to_end(args.workload, out, lines)
        outcomes = (out,)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    crash_window = sum(o.crash_window_tmp for o in outcomes)
    lines.append(f"operations: attempted={attempted} failed={failed} "
                 f"failed_ratio={failed / max(1, attempted):.4f} "
                 f"crash_window_tmp={crash_window}")
    for o in outcomes:
        lines.extend(f"  error: {e}" for e in o.errors)
    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    result = {"correct": failed == 0, "attempted": max(1, attempted),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    Path(args.child).write_text(json.dumps({"lines": lines,
                                            "result": result}))
    return 0


# ----------------------------------------------------------------- end to end
def end_to_end(workload: str, out: Outcome, lines: list) -> dict:
    chains = max(1, out.chains)
    figures = {
        "setup_s": (median(out.setup_s), len(out.setup_s)),
        "chain_s_p50": (median(out.chain_s), len(out.chain_s)),
        "chains_per_s": (out.chains / out.measured_s
                         if out.measured_s else 0.0, out.chains),
        "cpu_s_per_chain": ((out.cpu_coordinator + out.cpu_workers)
                            / chains, out.chains),
        "peak_rss_mib": (out.peak_rss_kib / 1024.0, 1),
    }
    units = {n: u for n, u, *_ in spec.END_TO_END + spec.WORKLOAD_SPECIFIC}
    q = spec.tail_percentile(len(out.chain_s))
    if q is not None:
        figures[f"chain_s_p{q:g}"] = (spec.percentile(out.chain_s, q),
                                      len(out.chain_s))
        units.setdefault(f"chain_s_p{q:g}", "s")
    if workload == "exec-recover":
        figures["recovery_s_p50"] = (
            median(recovery_s(r) for r in out.reports), len(out.reports))
    if workload.startswith("exec-"):
        figures["inproc_chain_s_p50"] = (median(out.inproc_s),
                                         len(out.inproc_s))
    figures["failed_ratio"] = (out.failed / max(1, out.attempted),
                               out.attempted)
    for name, (value, n) in figures.items():
        lines.append(f"{workload} {name} = {value:.6g} {units[name]} "
                     f"(n={n})")
    return {name: figures[name][0] for name, *_ in spec.END_TO_END}


# ------------------------------------------------------------------ per layer
def per_layer(workload: str, ref: Outcome, out: Outcome,
              rec: tracing.Recorder, inst: tracing.Instrumentation,
              lines: list) -> dict:
    dumps = inst.worker_dumps()
    summary = tracing.summarize(rec.dump(), dumps, out.chains)
    m = summary["metrics"]
    per = 1.0 / max(1, out.chains)
    m["recovery.cascade_jobs_n"] = sum(
        kind in RECOVERY_KINDS for r in out.reports
        for _, kind, _ in r.job_times) * per
    m["recovery.wall_s"] = sum(recovery_s(r) for r in out.reports) * per
    m["transport.bytes_tcp"] = sum(
        r.total_shuffle_bytes_tcp for r in out.reports) * per
    m["transport.bytes_local"] = sum(
        r.total_shuffle_bytes_local for r in out.reports) * per
    runtime = workload != "sim-stic"
    wall = out.measured_s if workload == "service-mix" else sum(out.chain_s)
    m["worker.busy_share"] = (summary["execute_wall"] / (N_NODES * wall)
                              if runtime and wall else 0.0)
    extra = out.extra
    m["service.admission_wait_s"] = median(extra.get("admission_wait", []))
    m["service.running_peak"] = extra.get("running_peak", 0)
    m["cache.job_hit_share"] = (extra["hit_jobs"] / extra["submitted_jobs"]
                                if extra.get("submitted_jobs") else 0.0)
    m["proc.cpu_s_coordinator"] = out.cpu_coordinator * per
    m["proc.cpu_s_workers"] = out.cpu_workers * per
    traced_p50, ref_p50 = median(out.chain_s), median(ref.chain_s)
    m["trace.chain_s_p50"] = traced_p50
    m["trace.overhead_s"] = traced_p50 - ref_p50
    flushed = {d["pid"] for d in dumps}
    lost = sum(n for pid, n in summary["dispatched_by_pid"].items()
               if pid not in flushed)
    m["trace.lost_tasks"] = lost * per
    m["trace.worker_gap_share"] = summary["worker_gap"]
    m["trace.coordinator_gap_share"] = summary["coordinator_gap"]

    tol = spec.RECONCILE_TOLERANCE
    lines.append(f"traced: {out.chains} chains traced, {ref.chains} "
                 f"untraced reference chains")
    lines.append(
        f"tracing overhead: chain p50 {ref_p50:.4f}s untraced "
        f"(n={len(ref.chain_s)}) vs {traced_p50:.4f}s traced "
        f"(n={len(out.chain_s)}): {traced_p50 - ref_p50:+.4f}s "
        f"({_share(traced_p50 - ref_p50, ref_p50)})")
    lines.append(f"lost spans: {lost} task(s) dispatched to workers that "
                 f"never flushed (SIGKILLed on purpose)")
    if inst.missing:
        lines.append(f"wrappers skipped (name gone): {inst.missing}")
    if runtime:
        execute = summary["execute_wall"]
        lines.append(_table(
            "worker task layers (exclusive s per chain; share of "
            "summed execute wall)", summary["task_layers"], per, execute))
        lines.append(f"reconcile worker: worst task |layers + self - "
                     f"execute wall| = {summary['worker_gap']:.2%} of its "
                     f"wall (tolerance {tol:.0%}): "
                     f"{_verdict(summary['worker_gap'] <= tol)}")
        chain_wall = summary["chain_wall"]
        lines.append(_table(
            "coordinator chain layers (exclusive s per chain; share of "
            "summed ChainRun.run wall)", summary["coordinator_layers"],
            per, chain_wall))
        lines.append(f"reconcile coordinator: worst chain gap "
                     f"{summary['coordinator_gap']:.2%} (tolerance "
                     f"{tol:.0%}): "
                     f"{_verdict(summary['coordinator_gap'] <= tol)}")
        lines.append(f"latency matching: {summary['matched']['cmd']} "
                     f"commands, {summary['matched']['event']} events")
    lines.extend(reason_checks(workload, m, summary))
    for name, unit, _ in spec.PER_LAYER:
        lines.append(f"{workload} {name} = {m[name]:.6g} {unit}")
    return {name: m[name] for name, *_ in spec.PER_LAYER}


def reason_checks(workload: str, m: dict, summary: dict) -> list:
    """Does the traced run confirm why the workload exists?"""
    if workload == "exec-small":
        layers = summary["task_layers"]
        top = max(layers, key=layers.get) if layers else None
        return [f"check exec-small: largest worker-side layer is {top} "
                f"(want storage.fsync): {_verdict(top == 'storage.fsync')}"]
    if workload == "exec-recover":
        data = (m["worker.udf_s"] + m["storage.encode_s"]
                + m["storage.decode_s"] + m["transport.fetch_s"])
        return [f"check exec-recover: udf+encode+decode+fetch "
                f"{data:.4f}s vs fsync {m['storage.fsync_s']:.4f}s per "
                f"chain: {_verdict(data > m['storage.fsync_s'])}"]
    if workload == "sim-stic":
        active = sorted(set(summary["names"]) & tracing.RUNTIME_NAMES)
        return [f"check sim-stic: runtime layers active: {active or 'none'}"
                f": {_verdict(not active)}"]
    return []


def _verdict(ok: bool) -> str:
    return "ok" if ok else "NOT MET"


def _share(part: float, whole: float) -> str:
    return f"{part / whole:+.1%}" if whole else "n/a"


def _table(title: str, layers: dict, per: float, whole: float) -> str:
    rows = sorted(layers.items(), key=lambda kv: -kv[1])
    body = ", ".join(f"{name} {secs * per:.4f}s ({secs / whole:.1%})"
                     if whole else f"{name} {secs * per:.4f}s"
                     for name, secs in rows)
    return f"{title}: {body}"
