"""Run one benchmark workload and print its metrics.

    python3 rcmpbench/run.py --workload exec-small --seed 1 --seconds 15 \\
        --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The workload runs in a child process with a hard deadline;
its scratch files live under ``.bench_scratch/`` in the checkout and are
removed afterwards.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Lines before it carry host metadata, every figure with its unit
and sample count, and (traced) the layer reconciliation.

``--write-manifest`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the whole run (child included) must end well inside 180 s
PARENT_DEADLINE = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.write_manifest:
        from rcmpbench.spec import manifest
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"rcmpbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    from rcmpbench.spec import RUN_SECONDS, UNGATED, WORKLOADS
    if args.workload not in WORKLOADS and args.workload not in UNGATED:
        names = sorted(WORKLOADS) + sorted(UNGATED)
        print(f"rcmpbench: --workload must be one of {names}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = RUN_SECONDS
    if args.child:
        from rcmpbench.report import run_child
        return run_child(ROOT, args)
    return run_parent(args)


def run_parent(args) -> int:
    """Run the workload in a child process (its own session, so every
    process it forks can be killed as a group) and relay its result."""
    scratch = ROOT / ".bench_scratch" / f"run-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True)
    result_path = scratch / "result.json"
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--child", str(result_path)]
    env = dict(os.environ, TMPDIR=str(scratch / "tmp"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                 stdout=sys.stderr.fileno(),
                                 start_new_session=True)
        try:
            code = child.wait(timeout=PARENT_DEADLINE)
        except subprocess.TimeoutExpired:
            code = None
        _stop_group(child)
        if code is None:
            print(f"rcmpbench: {args.workload} exceeded "
                  f"{PARENT_DEADLINE:g}s; killed", file=sys.stderr)
            return 3
        if code != 0 or not result_path.is_file():
            print(f"rcmpbench: {args.workload} child exited {code}",
                  file=sys.stderr)
            return code or 1
        payload = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    for line in payload["lines"]:
        print(line)
    print(json.dumps(payload["result"]), flush=True)
    return 0


def _stop_group(child: subprocess.Popen) -> None:
    """SIGKILL whatever is left of the child's process group and wait
    until the group is empty (orphaned workers are not our children, so
    they are polled rather than waited for)."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
