"""Unit tests for the shared RCMP recovery planner and live fault plans.

The planner (:mod:`repro.runtime.recovery`) is consumed by both execution
backends; these tests pin its rules on plain data, independent of any
engine.
"""

import pytest

from repro.faults import FaultModel
from repro.runtime.faults import LiveFaultPlan
from repro.runtime.recovery import (
    PARENT_STRIDE,
    STRIDE,
    JobGraph,
    adoptable_closure,
    cascade_jobs,
    consumer_invalidations,
    effective_split_ratio,
    hybrid_reclaimable,
    plan_job_recovery,
)


# ------------------------------------------------------------------ planner
def test_effective_split_ratio_caps_at_survivors():
    assert effective_split_ratio(3, 8) == 3
    assert effective_split_ratio(3, 2) == 2
    assert effective_split_ratio(1, 4) == 1
    assert effective_split_ratio(0, 4) == 1  # never below one piece
    with pytest.raises(ValueError):
        effective_split_ratio(2, 0)


def test_plan_requires_damage():
    with pytest.raises(ValueError):
        plan_job_recovery(1, {0: []}, all_map_tasks=[0, 1],
                          present_map_tasks=[0], alive=[0, 1],
                          split_ratio=1)


def test_plan_reexecutes_only_missing_mappers():
    plan = plan_job_recovery(
        1, {2: [(0, 1)]}, all_map_tasks=[0, 1, 2, 3],
        present_map_tasks=[0, 2], alive=[0, 1, 2], split_ratio=1)
    assert plan.map_tasks == (1, 3)
    assert [(r.partition, r.split_index, r.n_splits)
            for r in plan.reduces] == [(2, 0, 1)]
    assert not plan.split_applied


def test_plan_splits_whole_partition_loss():
    plan = plan_job_recovery(
        2, {1: [(0, 1)]}, all_map_tasks=[], present_map_tasks=[],
        alive=[0, 2, 3], split_ratio=3)
    assert plan.split_partitions == (1,)
    assert plan.split_applied
    assert [(r.split_index, r.n_splits) for r in plan.reduces] == \
        [(0, 3), (1, 3), (2, 3)]
    # round-robin over the sorted alive set (paper §IV-B1 load spreading)
    assert [r.node for r in plan.reduces] == [0, 2, 3]


def test_plan_split_capped_at_surviving_nodes():
    plan = plan_job_recovery(
        2, {0: [(0, 1)]}, all_map_tasks=[], present_map_tasks=[],
        alive=[1, 3], split_ratio=4)
    assert [(r.split_index, r.n_splits) for r in plan.reduces] == \
        [(0, 2), (1, 2)]


def test_plan_partial_piece_loss_is_not_resplit():
    # one split of an already-split partition lost: regenerate exactly it
    plan = plan_job_recovery(
        3, {2: [(1, 2)]}, all_map_tasks=[], present_map_tasks=[],
        alive=[0, 1, 2, 3], split_ratio=4)
    assert [(r.partition, r.split_index, r.n_splits)
            for r in plan.reduces] == [(2, 1, 2)]
    assert not plan.split_applied


def test_effective_split_ratio_auto_is_survivors_minus_one():
    # None = auto, the paper's choice (Strategy.effective_split)
    assert effective_split_ratio(None, 4) == 3
    assert effective_split_ratio(None, 9) == 8
    assert effective_split_ratio(None, 2) == 1
    assert effective_split_ratio(None, 1) == 1  # never below one piece


def _linear_cascade(next_job, damaged, intact_anchors=()):
    """The cascade on a linear chain whose jobs before ``next_job`` are
    done (its first job is where recomputation starts)."""
    return cascade_jobs(JobGraph.linear(next_job),
                        done_jobs=range(1, next_job), damaged_jobs=damaged,
                        intact_anchors=intact_anchors)


def test_cascade_walks_contiguous_damage_only():
    assert _linear_cascade(4, []) == []
    assert _linear_cascade(4, [3]) == [3]
    assert _linear_cascade(4, [2, 3]) == [2, 3]
    # job 1 damaged but job 2 intact: the cascade does not reach job 1
    assert _linear_cascade(4, [1, 3]) == [3]
    assert _linear_cascade(1, []) == []


def test_cascade_bounded_below_by_intact_anchor():
    # an intact hybrid anchor (§IV-C) floors the walk: damage at or
    # behind it is served by the anchor's replicas, not recomputation
    assert _linear_cascade(6, [2, 4, 5], intact_anchors=[3]) == [4, 5]
    assert _linear_cascade(4, [1, 3], intact_anchors=[2]) == [3]
    # the floor is the *last* intact anchor
    assert _linear_cascade(8, [1, 3, 5, 6, 7],
                           intact_anchors=[2, 4]) == [5, 6, 7]
    # an anchor above the damage run changes nothing
    assert _linear_cascade(4, [2, 3], intact_anchors=[]) == [2, 3]
    assert _linear_cascade(6, [5], intact_anchors=[2]) == [5]


def test_consumer_invalidations_by_origin_and_id_range():
    entries = [
        (2 * STRIDE + 0, (1, 2)),       # in partition 2's id range
        (2 * STRIDE + 5, None),         # id range, unknown origin
        (3 * STRIDE + 1, (1, 3)),       # other partition
        (7, (1, 2)),                    # origin match outside the range
        (8, (1, 0)),                    # untouched
    ]
    doomed = consumer_invalidations(entries, job=1, partition=2)
    assert sorted(doomed) == [7, 2 * STRIDE + 0, 2 * STRIDE + 5]


# ------------------------------------------------------- dependency graph
DIAMOND = JobGraph(((), (1,), (1,), (2, 3)))
FAN_OUT = JobGraph(((), (1,), (1,), (1,)))
#: two independent branches off one producer: 1 -> 2 -> 4 and 1 -> 3 -> 5
TWO_BRANCH = JobGraph(((), (1,), (1,), (2,), (3,)))


def test_job_graph_rejects_malformed_edges():
    with pytest.raises(ValueError, match="duplicate"):
        JobGraph(((), (1, 1)))
    with pytest.raises(ValueError, match="earlier"):
        JobGraph(((), (2,)))        # self dependency
    with pytest.raises(ValueError, match="earlier"):
        JobGraph(((3,), (1,)))      # forward dependency
    with pytest.raises(ValueError, match="at least one job"):
        JobGraph(())
    with pytest.raises(ValueError, match="dependencies lists"):
        JobGraph.from_dependencies(3, ((), (1,)))  # length mismatch


def test_job_graph_shape_queries():
    assert DIAMOND.parents(4) == (2, 3) and DIAMOND.consumers(1) == (2, 3)
    assert DIAMOND.parent_pos(4, 3) == 1
    assert DIAMOND.sinks() == (4,) and DIAMOND.sources() == (1,)
    assert not DIAMOND.is_linear() and JobGraph.linear(3).is_linear()
    assert FAN_OUT.sinks() == (2, 3, 4)
    assert JobGraph.from_dependencies(3, None) == JobGraph.linear(3)


def test_job_graph_ready_and_topo_levels():
    assert DIAMOND.ready(()) == [1]
    assert DIAMOND.ready({1}) == [2, 3]            # one two-job wave
    assert DIAMOND.ready({1, 3}) == [2]
    assert DIAMOND.ready({1, 2, 3}) == [4]
    assert DIAMOND.topo_levels([1, 2, 3, 4]) == [[1], [2, 3], [4]]
    assert DIAMOND.topo_levels([2, 3]) == [[2, 3]]  # independent branches
    # only in-set parents order levels: job 4's parent (2) is intact, so
    # 4 may recompute alongside job 1 in the very first level
    assert TWO_BRANCH.topo_levels([1, 3, 4, 5]) == [[1, 4], [3], [5]]


def test_cascade_cuts_by_real_edges_not_job_index():
    # damage on one branch: the sibling branch is outside the cut
    assert cascade_jobs(DIAMOND, done_jobs={1, 2, 3},
                        damaged_jobs=[2]) == [2]
    # a done, intact consumer shields the damage entirely
    assert cascade_jobs(DIAMOND, done_jobs={1, 2, 3, 4},
                        damaged_jobs=[2]) == []
    # a damaged sink always recomputes, and pulls damaged parents in
    assert cascade_jobs(DIAMOND, done_jobs={1, 2, 3, 4},
                        damaged_jobs=[2, 4]) == [2, 4]
    # fan-out: the damaged sink branch pulls the shared producer in,
    # while the intact sibling sinks stay untouched
    assert cascade_jobs(FAN_OUT, done_jobs={1, 2, 3, 4},
                        damaged_jobs=[1, 3]) == [1, 3]


def test_cascade_anchor_floors_one_branch_only():
    # an intact anchor at 2 shields the shared producer: the only
    # unfinished paths pass through replicated output
    assert cascade_jobs(TWO_BRANCH, done_jobs={1, 2, 3},
                        damaged_jobs=[1, 2], intact_anchors=[2]) == []
    # without the anchor the same damage cascades
    assert cascade_jobs(TWO_BRANCH, done_jobs={1, 2, 3},
                        damaged_jobs=[1, 2]) == [1, 2]
    # an anchor on branch 2 cannot shield job 1 when branch 3 is damaged
    # too: recomputing 3 consumes 1's output directly
    assert cascade_jobs(TWO_BRANCH, done_jobs={1, 2, 3},
                        damaged_jobs=[1, 3], intact_anchors=[2]) == [1, 3]


def test_adoptable_closure_is_parent_closed_not_contiguous():
    # the cached half of a diamond adopts without the other branch
    assert adoptable_closure({1, 3}, DIAMOND) == {1, 3}
    assert adoptable_closure({2, 4}, DIAMOND) == set()   # 2 needs 1
    assert adoptable_closure({1, 2, 4}, DIAMOND) == {1, 2}  # 4 needs 3
    assert adoptable_closure({1, 2, 3, 4}, DIAMOND) == {1, 2, 3, 4}
    # chain view: the closure is exactly the longest contiguous prefix
    assert adoptable_closure({1, 2, 4}, JobGraph.linear(5)) == {1, 2}


def test_hybrid_reclaimable_matches_linear_bounds():
    # linear chain, anchors at 2 and 4, jobs 1..5 done: the classic
    # ``map_upto = a - 1``, ``piece_upto = a - 2`` bound for a = 4
    map_jobs, piece_jobs = hybrid_reclaimable(
        JobGraph.linear(6), done_jobs={1, 2, 3, 4, 5},
        intact_anchors={2, 4})
    assert map_jobs == {1, 2, 3}
    assert piece_jobs == {1, 2}


def test_hybrid_reclaimable_on_a_dag_keeps_anchor_inputs():
    # both branch heads replicated: the shared producer's map outputs
    # are dead weight, but its pieces are the anchors' recompute inputs
    map_jobs, piece_jobs = hybrid_reclaimable(
        TWO_BRANCH, done_jobs={1, 2, 3, 4, 5}, intact_anchors={2, 3})
    assert map_jobs == {1} and piece_jobs == set()


def test_consumer_invalidations_selects_parent_band():
    # a two-parent consumer: mappers reading parent position 1 sit one
    # PARENT_STRIDE higher; the Fig. 5 guard dooms only that band
    entries = [
        (PARENT_STRIDE + 2 * STRIDE + 0, None),  # parent pos 1, part 2
        (2 * STRIDE + 0, None),                  # parent pos 0, part 2
        (PARENT_STRIDE + 3 * STRIDE + 1, None),  # parent pos 1, part 3
        (7, (3, 2)),                             # origin match
    ]
    doomed = consumer_invalidations(entries, job=3, partition=2,
                                    parent_pos=1)
    assert sorted(doomed) == [7, PARENT_STRIDE + 2 * STRIDE + 0]


# ------------------------------------------------------------- live faults
def test_live_plan_rejects_non_fail_stop():
    with pytest.raises(ValueError):
        LiveFaultPlan(FaultModel.parse("transient@job2:down=30"))
    with pytest.raises(ValueError):
        LiveFaultPlan(FaultModel.parse("mtbf=600:kill"))
    with pytest.raises(ValueError):
        LiveFaultPlan(FaultModel.parse("kill@job2"), time_scale=0)


def test_live_plan_job_anchored_deadline():
    plan = LiveFaultPlan(FaultModel.parse("kill@job2+4:node=3"),
                         time_scale=0.5)
    plan.arm_chain_start(100.0)
    assert plan.due(109.0, alive=[0, 1, 2, 3]) == []
    plan.arm_job_start(2, 110.0)
    assert plan.due(111.9, alive=[0, 1, 2, 3]) == []   # 4 * 0.5 = 2s
    assert plan.due(112.0, alive=[0, 1, 2, 3]) == [3]
    assert plan.exhausted


def test_live_plan_pinned_victim_must_be_alive():
    plan = LiveFaultPlan(FaultModel.parse("kill@t1:node=2"))
    plan.arm_chain_start(0.0)
    assert plan.due(2.0, alive=[0, 1]) == []  # node 2 already dead
    assert plan.exhausted


def test_live_plan_seeded_victim_is_deterministic():
    def victims(seed):
        plan = LiveFaultPlan(FaultModel.parse("kill@t0; kill@t0"),
                             seed=seed)
        plan.arm_chain_start(0.0)
        return plan.due(1.0, alive=[0, 1, 2, 3])

    first = victims(7)
    assert first == victims(7)
    assert len(set(first)) == 2  # one deadline never picks a dead victim
