"""The four workloads, each a closed loop driven from this process.

Only public classes drive the system: ``WorkerPool`` + ``ChainRun``,
``ChainService``, ``LocalCluster`` and ``repro.core.middleware.run_chain``.
Every chain's output is checked: process and service checksums against
the failure-free ``LocalCluster`` run of the same config (RCMP output is
failure-invariant), simulator results against the first result of the
same seed.  Every pool and service shutdown is followed by a leak check.
A wrong output, an exception, a timeout or a leak is one failed
operation; the loop carries on.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster import presets
from repro.core.middleware import run_chain
from repro.core.strategies import RCMP
from repro.faults.model import FaultModel
from repro.localexec import LocalCluster, LocalJobConfig
from repro.runtime.coordinator import ChainRun, RuntimeConfig, WorkerPool
from repro.runtime.faults import LiveFaultPlan
from repro.runtime.service import DONE, ChainService
from repro.runtime.storage import chain_checksum
from repro.simcore.engine import Simulator

from rcmpbench.hygiene import check_leaks, open_fds, read_hwm_kib

N_NODES = 4
#: hard wall-clock limit on one chain (healthy chains take < 3 s)
CHAIN_DEADLINE = 60.0
#: dispatch-stall limit handed to the runtime (well under the deadline)
IO_TIMEOUT = 20.0
#: extra ChainService start/stop cycles per service-mix run: one start
#: is too noisy a set-up sample on its own
SERVICE_SETUP_REPEATS = 8
#: cross-run cache budget that never evicts at this workload's size
CACHE_BUDGET = 1 << 30
SERVICE_STRATEGIES = ("rcmp", "repl2", "hybrid")


class ChainTimeout(Exception):
    """A chain ran past ``CHAIN_DEADLINE``."""


@contextmanager
def deadline(seconds: float):
    """Raise :class:`ChainTimeout` in the main thread after ``seconds``."""
    def fire(signum, frame):
        raise ChainTimeout(f"chain exceeded its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Outcome:
    """Everything one workload run measured."""

    chain_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    #: denominator of chains_per_s (see each workload)
    measured_s: float = 0.0
    chains: int = 0            # chains that ran to completion
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    cpu_coordinator: float = 0.0
    cpu_workers: float = 0.0
    peak_rss_kib: int = 0
    reports: list = field(default_factory=list)
    inproc_s: list = field(default_factory=list)
    crash_window_tmp: int = 0
    extra: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


# ------------------------------------------------------------------ oracle
def inproc_checksum(chain: LocalJobConfig) -> tuple[str, float]:
    """The failure-free in-process run: (checksum, wall seconds)."""
    t0 = time.monotonic()
    cluster = LocalCluster(N_NODES, chain)
    cluster.run_chain()
    wall = time.monotonic() - t0
    return chain_checksum(cluster.final_output()), wall


def verify(out: Outcome, produced: list) -> None:
    """Check ``(chain config, checksum)`` pairs against the oracle, once
    per distinct config; records one inproc wall sample per config."""
    oracle: dict = {}
    for chain, checksum in produced:
        if chain not in oracle:
            oracle[chain], wall = inproc_checksum(chain)
            out.inproc_s.append(wall)
        if checksum != oracle[chain]:
            out.fail(f"checksum {checksum} != inproc {oracle[chain]} "
                     f"for {chain}")


def _leak_check(out: Outcome, workdir: Path, pids, killed, fds0) -> None:
    gc.collect()  # let dropped pools finalize their process sentinels
    leaks = check_leaks(workdir, pids, killed, fd_baseline=fds0,
                        shm_prefix=f"rcmp{os.getpid():x}p")
    out.crash_window_tmp += leaks.crash_window_tmp
    if not leaks.clean:
        out.fail(f"leak after shutdown: {leaks.describe()}")
    shutil.rmtree(workdir, ignore_errors=True)


# ------------------------------------------------------------ exec-*
@dataclass(frozen=True)
class ExecShape:
    n_jobs: int
    records_per_node: int
    records_per_block: int
    value_size: int
    split_ratio: object
    #: SIGKILL one worker at the start of this job (None: failure-free)
    kill_job: object = None


EXEC_SHAPES = {
    "exec-small": ExecShape(3, 256, 32, 16, 1),
    "exec-recover": ExecShape(5, 4096, 1024, 64, None, kill_job=3),
}


def run_exec(name: str, seed: int, seconds: float, scratch: Path) -> Outcome:
    """One fresh pool per chain (as ``rcmp-repro exec`` does).

    ``measured_s`` is the summed pool start + run + shutdown cycles; the
    oracle runs and leak checks between chains are not timed."""
    shape = EXEC_SHAPES[name]
    rng = random.Random(f"{name}:{seed}")
    # exec-recover keeps one data seed per run (its oracle costs ~1 s)
    # and draws the victim per chain; exec-small rotates the data seed
    fixed_seed = rng.randrange(1 << 30)
    out = Outcome()
    produced = []
    stop = time.monotonic() + seconds
    i = 0
    while i == 0 or time.monotonic() < stop:
        data_seed = fixed_seed if shape.kill_job else rng.randrange(1 << 30)
        chain = LocalJobConfig(
            n_jobs=shape.n_jobs, n_partitions=4,
            records_per_node=shape.records_per_node,
            records_per_block=shape.records_per_block,
            value_size=shape.value_size, split_ratio=shape.split_ratio,
            seed=data_seed)
        faults = None
        if shape.kill_job:
            victim = rng.randrange(N_NODES)
            faults = FaultModel.parse(
                f"kill@job{shape.kill_job}+0:node={victim}")
        config = RuntimeConfig(n_nodes=N_NODES, chain=chain,
                               io_timeout=IO_TIMEOUT)
        checksum = _exec_chain(out, config, faults, scratch / f"c{i}")
        if checksum is not None:
            produced.append((chain, checksum))
        i += 1
    out.peak_rss_kib += read_hwm_kib(os.getpid())
    verify(out, produced)
    return out


def _exec_chain(out: Outcome, config: RuntimeConfig, faults,
                workdir: Path):
    out.attempted += 1
    plan = LiveFaultPlan(faults) if faults is not None else None
    fds0 = open_fds()
    cpu_self, cpu_kids = _cpu(resource.RUSAGE_SELF), \
        _cpu(resource.RUSAGE_CHILDREN)
    report = run = None
    pids: list = []
    t0 = time.monotonic()
    pool = WorkerPool(config, workdir, faults=plan)
    try:
        pool.start()
        out.setup_s.append(time.monotonic() - t0)
        pids = [pool.pid_of(n) for n in range(config.n_nodes)]
        run = ChainRun(config, pool, fault_plan=plan)
        if plan is not None:
            plan.arm_chain_start(time.monotonic())
        with deadline(CHAIN_DEADLINE):
            t1 = time.monotonic()
            report = run.run()
            out.chain_s.append(time.monotonic() - t1)
        workers_hwm = sum(read_hwm_kib(p) for p in pids)
        out.peak_rss_kib = max(out.peak_rss_kib, workers_hwm)
    except Exception as exc:  # noqa: BLE001 - a failed operation
        out.fail(f"{type(exc).__name__}: {exc}")
    finally:
        pool.shutdown()
    out.measured_s += time.monotonic() - t0
    out.cpu_coordinator += _cpu(resource.RUSAGE_SELF) - cpu_self
    out.cpu_workers += _cpu(resource.RUSAGE_CHILDREN) - cpu_kids
    killed = [pids[n] for _, n in pool.deaths if n < len(pids)]
    pool = run = None  # the leak check counts fds once the pool is gone
    _leak_check(out, workdir, pids, killed, fds0)
    if report is None:
        return None
    out.chains += 1
    out.reports.append(report)
    return report.checksum


# ------------------------------------------------------------ service-mix
def _new_service(config: RuntimeConfig, workdir: Path) -> ChainService:
    return ChainService(config, workdir, policy="fair", max_concurrent=2,
                        cache_budget=CACHE_BUDGET)


def _service_pids(svc: ChainService) -> list:
    return [svc.pool.pid_of(n) for n in range(N_NODES)]


def run_service(seed: int, seconds: float, scratch: Path) -> Outcome:
    """Two tenants (one client thread each, = ``nproc`` here) on one
    resident service.  Each submits pairs — a 3-job chain, then a 5-job
    chain on the same data seed — rotating rcmp -> repl2 -> hybrid.

    ``measured_s`` is first submit to last completion; ``setup_s`` has
    one sample per service start (``SERVICE_SETUP_REPEATS`` start/stop
    cycles plus the measured service)."""
    out = Outcome()
    template = RuntimeConfig(n_nodes=N_NODES, task_slots=2,
                             io_timeout=IO_TIMEOUT)
    for k in range(SERVICE_SETUP_REPEATS):
        out.attempted += 1  # a start / stop / leak-check cycle
        workdir = scratch / f"setup{k}"
        fds0 = open_fds()
        t0 = time.monotonic()
        svc = _new_service(template, workdir)
        try:
            svc.start()
            out.setup_s.append(time.monotonic() - t0)
            pids = _service_pids(svc)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            out.fail(f"service start: {type(exc).__name__}: {exc}")
            pids = []
        svc.shutdown()
        del svc
        _leak_check(out, workdir, pids, (), fds0)

    workdir = scratch / "service"
    fds0 = open_fds()
    cpu_self, cpu_kids = _cpu(resource.RUSAGE_SELF), \
        _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    svc = _new_service(template, workdir)
    try:
        svc.start()
    except Exception as exc:  # noqa: BLE001 - nothing left to measure
        out.attempted += 1
        out.fail(f"service start: {type(exc).__name__}: {exc}")
        svc.shutdown()
        return out
    out.setup_s.append(time.monotonic() - t0)
    pids = _service_pids(svc)
    lock = threading.Lock()
    produced: list = []
    waits: list = []
    hits = [0, 0]  # adopted jobs, submitted jobs
    start = time.monotonic()
    stop = start + seconds

    def client(tenant: int) -> None:
        rng = random.Random(f"service-mix:{seed}:{tenant}")
        pair = 0
        while time.monotonic() < stop:
            data_seed = rng.randrange(1 << 30)
            strategy = SERVICE_STRATEGIES[pair % len(SERVICE_STRATEGIES)]
            for n_jobs in (3, 5):
                chain = LocalJobConfig(n_jobs=n_jobs, n_partitions=4,
                                       records_per_node=256,
                                       records_per_block=32,
                                       value_size=16, seed=data_seed)
                with lock:
                    out.attempted += 1
                t1 = time.monotonic()
                try:
                    job = svc.submit(chain, tenant=f"t{tenant}",
                                     strategy=strategy)
                    svc.wait(job.id, timeout=CHAIN_DEADLINE)
                except Exception as exc:  # noqa: BLE001 - failed op
                    with lock:
                        out.fail(f"{type(exc).__name__}: {exc}")
                    return  # a wedged service would stall every wait
                wall = time.monotonic() - t1
                with lock:
                    if job.state != DONE:
                        out.fail(f"{job.id} {job.state}: {job.error}")
                        continue
                    out.chain_s.append(wall)
                    out.chains += 1
                    out.reports.append(job.report)
                    # plain figures only: a ChainJob keeps its ChainRun,
                    # and through it the pool, alive
                    waits.append(job.started - job.submitted)
                    hits[0] += job.adopted_jobs
                    hits[1] += n_jobs
                    produced.append((chain, job.report.checksum))
            pair += 1

    clients = [threading.Thread(target=client, args=(t,), name=f"tenant{t}")
               for t in range(2)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=seconds + CHAIN_DEADLINE + 5.0)
    out.measured_s = time.monotonic() - start
    out.peak_rss_kib = read_hwm_kib(os.getpid()) + sum(
        read_hwm_kib(p) for p in pids)
    running_peak = svc.running_peak
    svc.shutdown(drain=False)  # the clients are done: nothing to drain
    out.cpu_coordinator = _cpu(resource.RUSAGE_SELF) - cpu_self
    out.cpu_workers = _cpu(resource.RUSAGE_CHILDREN) - cpu_kids
    del svc
    _leak_check(out, workdir, pids, (), fds0)
    if any(t.is_alive() for t in clients):
        out.fail("client thread still blocked after the run")
    out.extra.update(admission_wait=waits, running_peak=running_peak,
                     hit_jobs=hits[0], submitted_jobs=hits[1])
    verify(out, produced)
    return out


# ------------------------------------------------------------ sim-stic
def run_sim(seed: int, seconds: float, scratch: Path) -> Outcome:
    """The paper's STIC testbed under RCMP with a failure at job 7 (the
    deepest cascade), one seed per run, repeated until time is up.

    ``setup_s`` is the ``run_chain`` wall minus the time spent inside
    ``Simulator.run``; ``measured_s`` is the summed ``run_chain`` walls."""
    del scratch
    out = Outcome()
    sim_seed = random.Random(f"sim-stic:{seed}").randrange(1 << 30)
    inside = [0.0]
    original = Simulator.run

    def timed_run(self, *args, **kwargs):
        t0 = time.monotonic()
        try:
            return original(self, *args, **kwargs)
        finally:
            inside[0] += time.monotonic() - t0

    Simulator.run = timed_run
    cpu0 = _cpu(resource.RUSAGE_SELF)
    first = None
    stop = time.monotonic() + seconds
    try:
        while out.attempted == 0 or time.monotonic() < stop:
            out.attempted += 1
            inside[0] = 0.0
            t0 = time.monotonic()
            try:
                with deadline(CHAIN_DEADLINE):
                    result = run_chain(presets.stic(), RCMP, n_jobs=7,
                                       failures="7", seed=sim_seed)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                out.fail(f"{type(exc).__name__}: {exc}")
                continue
            wall = time.monotonic() - t0
            out.measured_s += wall
            out.chain_s.append(wall)
            out.setup_s.append(wall - inside[0])
            out.chains += 1
            if not result.completed or result.jobs_started < 7:
                out.fail(f"chain incomplete: {result!r}")
            elif first is None:
                first = result
            elif result != first:
                out.fail(f"seed {sim_seed} repeat differs: {result!r}")
    finally:
        Simulator.run = original
    out.cpu_coordinator = _cpu(resource.RUSAGE_SELF) - cpu0
    out.peak_rss_kib = read_hwm_kib(os.getpid())
    return out


def run_workload(name: str, seed: int, seconds: float,
                 scratch: Path) -> Outcome:
    scratch.mkdir(parents=True, exist_ok=True)
    if name in EXEC_SHAPES:
        return run_exec(name, seed, seconds, scratch)
    if name == "service-mix":
        return run_service(seed, seconds, scratch)
    if name == "sim-stic":
        return run_sim(seed, seconds, scratch)
    raise ValueError(f"unknown workload {name!r}")
