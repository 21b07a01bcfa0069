"""The shared RCMP recovery planner (paper §IV-A/B).

Pure functions over plain data: given the damage inventory of one job,
the set of surviving persisted map outputs, and the alive nodes, produce
the minimal-recomputation plan — which mappers to re-execute, which
reducer pieces to regenerate (splitting a lost whole partition ``k`` ways,
capped at the surviving-node count), and which partitions the Fig. 5 rule
must invalidate downstream map outputs for.  :func:`cascade_jobs` also
understands hybrid anchors (§IV-C): an intact replicated job output
bounds the recomputation cascade from below.

Both execution backends consume the same plan:

* :mod:`repro.localexec.recovery` applies it to the in-process
  record-level cluster;
* :mod:`repro.runtime.coordinator` applies it to real worker processes.

Keeping the planner free of any engine import is what guarantees the two
backends recover byte-identically — they cannot drift apart on the rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

#: Hierarchical map-task id scheme shared with the performance layer:
#: the mappers consuming partition ``p`` of the upstream job get ids in
#: ``[p * STRIDE, (p + 1) * STRIDE)``.
STRIDE = 1_000_000

#: A job with several upstreams maps over the union of their outputs; the
#: mappers reading parent position ``i`` (the i-th entry of the job's
#: dependency tuple) get ids offset by ``i * PARENT_STRIDE``, so a task id
#: still names its exact input block: parent position, then upstream
#: partition, then block ordinal.  Parent position 0 reproduces today's
#: ids byte-for-byte, so linear chains are unchanged.
PARENT_STRIDE = STRIDE * 1000

#: ``(split_index, n_splits)`` — identity of one stored piece of a
#: partition's output; ``(0, 1)`` is the whole partition.
PieceSignature = tuple[int, int]

#: job -> partition -> list of lost piece signatures
DamageMap = Mapping[int, list[PieceSignature]]


@dataclass(frozen=True)
class JobGraph:
    """The dependency DAG of a multi-job computation.

    ``parents_of[j - 1]`` is the tuple of upstream jobs whose outputs job
    ``j`` maps over; an empty tuple means the computation's input data.
    Jobs are numbered in submission order, so every parent index is
    smaller than its consumer's — running jobs in ascending index order
    is always a valid topological order (the middleware "uses the
    dependencies to decide the order of job submission", §IV-A).

    Construction *is* the DAG guard: a spec whose edges are malformed
    (forward/self dependencies, duplicates, out-of-range indexes) raises
    ``ValueError`` here, so no entry point can silently mis-execute it.
    """

    parents_of: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.parents_of:
            raise ValueError("a computation needs at least one job")
        for j, parents in enumerate(self.parents_of, start=1):
            if len(set(parents)) != len(parents):
                raise ValueError(
                    f"job {j} lists a duplicate dependency: {parents}")
            for dep in parents:
                if not 1 <= dep < j:
                    raise ValueError(
                        f"job {j} depends on {dep}: dependencies must "
                        f"reference earlier jobs (a DAG in submission "
                        f"order)")
        consumers: dict[int, list[int]] = {}
        for j, parents in enumerate(self.parents_of, start=1):
            for dep in parents:
                consumers.setdefault(dep, []).append(j)
        object.__setattr__(self, "_consumers", {
            j: tuple(consumers.get(j, ())) for j in
            range(1, len(self.parents_of) + 1)})

    @classmethod
    def linear(cls, n_jobs: int) -> "JobGraph":
        """The paper's chain: job ``i`` feeds job ``i + 1``."""
        return cls(tuple((j - 1,) if j > 1 else ()
                         for j in range(1, n_jobs + 1)))

    @classmethod
    def from_dependencies(cls, n_jobs: int,
                          dependencies: Optional[Sequence[Sequence[int]]]
                          = None) -> "JobGraph":
        """Build a graph from a spec's ``dependencies``; ``None`` is the
        linear chain.  Raises ``ValueError`` on malformed edges."""
        if dependencies is None:
            return cls.linear(n_jobs)
        if len(dependencies) != n_jobs:
            raise ValueError(
                f"dependencies lists {len(dependencies)} jobs, "
                f"config has {n_jobs}")
        return cls(tuple(tuple(int(d) for d in deps)
                         for deps in dependencies))

    @property
    def n_jobs(self) -> int:
        return len(self.parents_of)

    def parents(self, job: int) -> tuple[int, ...]:
        if not 1 <= job <= self.n_jobs:
            raise IndexError(f"job {job} out of range")
        return self.parents_of[job - 1]

    def consumers(self, job: int) -> tuple[int, ...]:
        return self._consumers[job]  # type: ignore[attr-defined]

    def parent_pos(self, consumer: int, parent: int) -> int:
        """Position of ``parent`` in ``consumer``'s dependency tuple —
        the ``PARENT_STRIDE`` offset of the mappers reading it."""
        return self.parents(consumer).index(parent)

    def sinks(self) -> tuple[int, ...]:
        """Jobs nothing consumes — the computation's final outputs."""
        return tuple(j for j in range(1, self.n_jobs + 1)
                     if not self.consumers(j))

    def sources(self) -> tuple[int, ...]:
        """Jobs reading the computation's input data."""
        return tuple(j for j in range(1, self.n_jobs + 1)
                     if not self.parents(j))

    def is_linear(self) -> bool:
        return all(parents == ((j - 1,) if j > 1 else ())
                   for j, parents in enumerate(self.parents_of, start=1))

    def ready(self, done: Iterable[int]) -> list[int]:
        """Undone jobs whose parents are all done, ascending.  Non-empty
        whenever some job is undone: the smallest undone job's parents
        all precede it, and every smaller job is done."""
        done_set = set(done)
        return [j for j in range(1, self.n_jobs + 1)
                if j not in done_set
                and all(p in done_set for p in self.parents(j))]

    def topo_levels(self, jobs: Iterable[int]) -> list[list[int]]:
        """Partition ``jobs`` into dependency levels: every job's in-set
        parents sit in strictly earlier levels, so the jobs of one level
        are mutually independent and may execute concurrently."""
        members = set(jobs)
        level: dict[int, int] = {}
        for j in sorted(members):
            in_set = [p for p in self.parents(j) if p in members]
            level[j] = 1 + max((level[p] for p in in_set), default=0)
        out: dict[int, list[int]] = {}
        for j in sorted(members):
            out.setdefault(level[j], []).append(j)
        return [out[k] for k in sorted(out)]


@dataclass(frozen=True)
class ReduceSpec:
    """One reducer piece to regenerate, and where to run it."""

    partition: int
    split_index: int
    n_splits: int
    node: int

    @property
    def signature(self) -> PieceSignature:
        return (self.split_index, self.n_splits)


@dataclass(frozen=True)
class JobRecoveryPlan:
    """The minimal recomputation of one damaged job."""

    job: int
    #: map task ids to re-execute (their persisted outputs are gone)
    map_tasks: tuple[int, ...]
    #: reducer pieces to regenerate, in dispatch order
    reduces: tuple[ReduceSpec, ...]
    #: partitions regenerated by splitting — the Fig. 5 rule must drop
    #: the downstream map outputs derived from them
    split_partitions: tuple[int, ...]

    @property
    def split_applied(self) -> bool:
        return bool(self.split_partitions)


def effective_split_ratio(split_ratio: Optional[int], n_alive: int) -> int:
    """Reducer splitting cannot exceed the surviving-node count.

    ``None`` selects the paper's auto ratio — ``survivors - 1`` (§IV-B1:
    8 on STIC, 59 on DCO) — matching
    :meth:`repro.core.strategies.Strategy.effective_split`."""
    if n_alive < 1:
        raise ValueError("no surviving nodes")
    if split_ratio is None:
        split_ratio = max(1, n_alive - 1)
    return max(1, min(split_ratio, n_alive))


def plan_job_recovery(job: int,
                      damage: Mapping[int, list[PieceSignature]],
                      all_map_tasks: Iterable[int],
                      present_map_tasks: Iterable[int],
                      alive: Iterable[int],
                      split_ratio: Optional[int]) -> JobRecoveryPlan:
    """Plan the minimal recomputation of one damaged job.

    ``damage`` maps each affected partition to its lost piece signatures;
    ``all_map_tasks`` enumerates the job's map tasks under the *current*
    upstream layout (order preserved); ``present_map_tasks`` are the ones
    whose persisted outputs survive.  Reduce work is placed round-robin
    over the sorted ``alive`` nodes, exactly the paper's spread of
    recomputation load (§IV-B1).
    """
    if not any(damage.values()):
        raise ValueError(f"job {job} has no damage")
    alive_nodes = sorted(alive)
    ratio = effective_split_ratio(split_ratio, len(alive_nodes))

    present = set(present_map_tasks)
    map_tasks = tuple(t for t in all_map_tasks if t not in present)

    reduces: list[ReduceSpec] = []
    split_partitions: list[int] = []
    rr = 0
    for partition in sorted(damage):
        for (split_index, n_splits) in damage[partition]:
            whole = n_splits == 1
            if whole and ratio > 1:
                split_partitions.append(partition)
                for s in range(ratio):
                    node = alive_nodes[rr % len(alive_nodes)]
                    rr += 1
                    reduces.append(ReduceSpec(partition, s, ratio, node))
            else:
                node = alive_nodes[rr % len(alive_nodes)]
                rr += 1
                reduces.append(ReduceSpec(partition, split_index, n_splits,
                                          node))
    return JobRecoveryPlan(job, map_tasks, tuple(reduces),
                           tuple(split_partitions))


def cascade_jobs(graph: JobGraph, done_jobs: Iterable[int],
                 damaged_jobs: Iterable[int],
                 intact_anchors: Iterable[int] = ()) -> list[int]:
    """The recomputation cascade as a cut over the dependency graph.

    A damaged job must be recomputed exactly when some consumer still
    needs its output (paper §IV-A): the job is a sink (its output *is*
    a final result), a consumer has not finished, or a consumer is
    itself being recomputed.  Damage stranded behind intact, finished
    consumers is outside the cut — the cascade follows real edges, so
    on a DAG only the damaged *branch* recomputes while independent
    branches stay untouched.

    ``intact_anchors`` are hybrid replication points (§IV-C) whose
    output is currently intact — replicated, so a death cannot have
    damaged it.  An anchor is excluded from the damage set defensively
    and, being intact, stops the cut from propagating through it: the
    cascade is bounded by the anchor frontier, which is exactly what the
    hybrid strategy pays replication bandwidth for.

    Returns the jobs to recompute in ascending (topological) order.
    """
    done = set(done_jobs)
    damaged = set(damaged_jobs) - set(intact_anchors)
    needed: set[int] = set()
    for j in range(graph.n_jobs, 0, -1):
        if j not in damaged:
            continue
        consumers = graph.consumers(j)
        if (not consumers
                or any(c not in done for c in consumers)
                or any(c in needed for c in consumers)):
            needed.add(j)
    return sorted(needed)


def adoptable_closure(resident_jobs: Iterable[int],
                      graph: JobGraph) -> set[int]:
    """Largest parent-closed subset of ``resident_jobs`` — the cross-run
    cache's adoptable set.

    Adopting a job without its parents would leave recovery with nothing
    to cascade into if an adopted piece later dies (``blocks_for`` needs
    every upstream output to re-derive the mappers), so adoption takes
    the downward closure: a job is adoptable only if all its parents
    are.  On a DAG the result may be non-contiguous — the cached half of
    a diamond adopts even when the other branch is missing."""
    resident = set(resident_jobs)
    closed: set[int] = set()
    for j in range(1, graph.n_jobs + 1):
        if j in resident and all(p in closed for p in graph.parents(j)):
            closed.add(j)
    return closed


def hybrid_reclaimable(graph: JobGraph, done_jobs: Iterable[int],
                       intact_anchors: Iterable[int]
                       ) -> tuple[set[int], set[int]]:
    """Hybrid reclamation (§IV-C) as a graph cut: which jobs' map
    outputs and reducer pieces are now dead weight.

    A job is *shielded* when every path from it to unfinished work
    passes through an intact anchor: all its consumers are done, and
    each is an intact anchor or itself shielded.  A shielded job can
    never re-enter the cascade, so its map outputs (only needed to
    regenerate its own pieces) are reclaimable.  Its pieces are
    reclaimable too *unless* some consumer is an intact anchor that is
    not itself shielded — those pieces are the recompute inputs of the
    anchor frontier, kept defensively in case the anchor later loses
    every replica.  Sinks are never shielded: their output is the final
    result.

    Returns ``(map_jobs, piece_jobs)``.  On a linear chain with anchor
    ``a`` this is exactly the classic ``map_upto = a - 1``,
    ``piece_upto = a - 2`` bound, including multi-anchor progression.
    """
    done = set(done_jobs)
    anchors = set(intact_anchors)
    shielded: set[int] = set()
    for j in range(graph.n_jobs, 0, -1):
        consumers = graph.consumers(j)
        if consumers and all(
                c in done and (c in anchors or c in shielded)
                for c in consumers):
            shielded.add(j)
    piece_jobs = {j for j in shielded
                  if not any(c in anchors and c not in shielded
                             for c in graph.consumers(j))}
    return shielded, piece_jobs


def consumer_invalidations(consumer_map_entries: Iterable[tuple[int, object]],
                           job: int, partition: int,
                           parent_pos: int = 0) -> list[int]:
    """The Fig. 5 guard: consumer map outputs to drop after splitting.

    ``consumer_map_entries`` is ``(task_id, origin)`` for every persisted
    map output of one consumer of ``job``; ``origin`` is the
    ``(job, partition)`` the mapper's input block came from (or None for
    chain input).  A map output is doomed when its input partition of
    ``job`` was regenerated by splitting: its records were derived from
    the old block boundaries, so reusing it would duplicate some keys
    and drop others.  Entries in the partition's hierarchical id range
    are doomed too, covering re-blocked enumerations with a different
    block count; ``parent_pos`` is ``job``'s position in the consumer's
    dependency tuple (0 on a linear chain), selecting the id band of the
    mappers that read it."""
    lo = parent_pos * PARENT_STRIDE + partition * STRIDE
    hi = lo + STRIDE
    doomed = []
    for task_id, origin in consumer_map_entries:
        if origin == (job, partition) or lo <= task_id < hi:
            doomed.append(task_id)
    return doomed


def pre_replication_targets(entries: Iterable[tuple[tuple, set]],
                            suspected: set,
                            alive: Iterable[int]) -> dict:
    """Placement for straggler pre-replication: piece key -> target node.

    ``entries`` pairs each at-risk piece key with its current holder
    set; targets round-robin over the healthy (alive, not suspected)
    non-holders so the eager copies spread instead of piling onto one
    peer.  When every non-holder is itself suspected, any alive
    non-holder is still better than leaving the sole copy on the
    straggler.  Pure policy — both the live coordinator and tests call
    it with synthetic inputs."""
    alive_sorted = sorted(alive)
    healthy = [n for n in alive_sorted if n not in suspected]
    targets: dict = {}
    rr = 0
    for key, holders in entries:
        candidates = [n for n in healthy if n not in holders]
        if not candidates:
            candidates = [n for n in alive_sorted if n not in holders]
        if not candidates:
            continue
        targets[key] = candidates[rr % len(candidates)]
        rr += 1
    return targets
