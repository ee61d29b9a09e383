"""Shard planning, executors, and serial/parallel determinism.

The crown-jewel property: however the configuration space is sharded and
however many workers execute the shards, the merged report is
byte-identical (canonical JSON) to the serial in-process enumeration.
"""

import pytest

from repro.api import sweep_objects
from repro.runtime import (
    AlgorithmSpec,
    ExtremeSummary,
    GraphSpec,
    JobSpec,
    MergedReport,
    ParallelExecutor,
    SerialExecutor,
    ShardReport,
    canonical_json,
    execute_job,
    merge_reports,
    plan_shards,
    run_shard,
)

RING_JOB = JobSpec(
    algorithm=AlgorithmSpec("fast", 3),
    graph=GraphSpec.make("ring", n=8),
    delays=(0, 1),
    fix_first_start=True,
)
TREE_JOB = JobSpec(
    algorithm=AlgorithmSpec("fast-sim", 3),
    graph=GraphSpec.make("tree", depth=2),
    delays=(0,),
    fix_first_start=False,
)


class TestPlanShards:
    def test_covers_the_space_contiguously(self):
        bounds = plan_shards(103, shard_count=16)
        assert bounds[0][0] == 0 and bounds[-1][1] == 103
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1

    def test_never_plans_more_shards_than_configs(self):
        assert len(plan_shards(3, shard_count=16)) == 3
        assert plan_shards(0) == []

    def test_shard_size_override(self):
        assert plan_shards(10, shard_size=4) == [(0, 4), (4, 8), (8, 10)]

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            plan_shards(-1)
        with pytest.raises(ValueError):
            plan_shards(10, shard_size=0)


class TestMerge:
    def summary(self, index, value):
        return ExtremeSummary(
            index=index, labels=(1, 2), starts=(0, 1), delay=0,
            time=value, cost=value,
        )

    def test_ties_break_toward_the_lowest_global_index(self):
        early = ShardReport((0, 10), 10, self.summary(3, 7), self.summary(3, 7))
        late = ShardReport((10, 20), 10, self.summary(15, 7), self.summary(15, 7))
        for order in ([early, late], [late, early]):
            merged = merge_reports(order)
            assert merged.worst_time.index == 3
            assert merged.worst_cost.index == 3

    def test_higher_value_beats_lower_index(self):
        low = ShardReport((0, 10), 10, self.summary(0, 5), self.summary(0, 5))
        high = ShardReport((10, 20), 10, self.summary(19, 6), self.summary(19, 6))
        merged = merge_reports([low, high])
        assert merged.worst_time.index == 19 and merged.max_time == 6

    def test_merge_is_arrival_order_insensitive(self):
        graph = RING_JOB.graph.build()
        total = RING_JOB.config_space_size(graph)
        shards = [RING_JOB.shard_spec(lo, hi) for lo, hi in plan_shards(total, 5)]
        reports = [run_shard(s) for s in shards]
        forward = merge_reports(reports)
        backward = merge_reports(reversed(reports))
        assert canonical_json(forward.to_dict()) == canonical_json(backward.to_dict())

    def test_round_trip(self):
        merged = merge_reports(
            [ShardReport((0, 5), 5, self.summary(2, 9), self.summary(4, 3))]
        )
        assert MergedReport.from_dict(merged.to_dict()) == merged


class TestDeterminism:
    @pytest.mark.parametrize("job", [RING_JOB, TREE_JOB], ids=["ring", "tree"])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_parallel_is_byte_identical_to_serial(self, job, workers):
        serial = execute_job(job, executor=SerialExecutor())
        parallel = execute_job(job, executor=ParallelExecutor(workers))
        assert canonical_json(serial.report.to_dict()) == canonical_json(
            parallel.report.to_dict()
        )
        assert serial.report.executions == job.config_space_size()

    @pytest.mark.parametrize("job", [RING_JOB, TREE_JOB], ids=["ring", "tree"])
    def test_runtime_matches_the_in_process_adversary(self, job):
        graph = job.graph.build()
        algorithm = job.algorithm.build(graph)
        legacy = sweep_objects(
            algorithm,
            graph,
            "g",
            delays=job.delays,
            fix_first_start=job.fix_first_start,
        )
        merged = execute_job(job, executor=ParallelExecutor(2)).report
        assert merged.max_time == legacy.max_time
        assert merged.max_cost == legacy.max_cost
        assert merged.worst_time.config == legacy.worst_time_config
        assert merged.worst_cost.config == legacy.worst_cost_config
        assert merged.executions == legacy.executions

    def test_pool_is_reused_across_map_shards_calls(self):
        with ParallelExecutor(2) as executor:
            list(executor.map_shards([RING_JOB.shard_spec(0, 5),
                                      RING_JOB.shard_spec(5, 10)]))
            first_pool = executor._pool
            assert first_pool is not None
            list(executor.map_shards([RING_JOB.shard_spec(10, 15),
                                      RING_JOB.shard_spec(15, 20)]))
            assert executor._pool is first_pool
        assert executor._pool is None  # context exit closed it

    def test_sharding_granularity_does_not_change_the_result(self):
        coarse = execute_job(RING_JOB, shard_count=2).report
        fine = execute_job(RING_JOB, shard_count=13).report
        assert coarse.shards != fine.shards
        payload = coarse.to_dict()
        payload["shards"] = fine.shards
        assert canonical_json(payload) == canonical_json(fine.to_dict())


class TestExecutors:
    def test_single_worker_degrades_to_serial(self):
        assert ParallelExecutor(1).workers == 1
        reports = list(
            ParallelExecutor(1).map_shards([RING_JOB.shard_spec(0, 4)])
        )
        assert reports[0].executions == 4

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_whole_sweep_spec_runs_unsharded(self):
        report = run_shard(RING_JOB)
        assert report.shard == (0, RING_JOB.config_space_size())
        assert report.executions == report.shard[1]


def _die_executing(spec):
    """Picklable stand-in for run_shard that dies like a killed worker."""
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerTableCache:
    def test_changed_prune_setting_builds_a_fresh_table(self, monkeypatch):
        """The per-process table cache must not pin the first prune setting.

        Pool children fork with the parent's cache, so a stale table would
        outlive a ``REPRO_PRUNE`` change in every worker of the process.
        """
        pytest.importorskip("numpy")
        from repro.api import Scenario
        from repro.sim.cube import CubeTimelineTable
        from repro.sim.prune import PRUNE_ENV

        # Spy where every shard's configurations are measured: whichever
        # table the worker hands its reducer answers evaluate_arrays.
        seen = []
        original = CubeTimelineTable.evaluate_arrays

        def spy(table, *args, **kwargs):
            seen.append(table.prune)
            return original(table, *args, **kwargs)

        monkeypatch.setattr(CubeTimelineTable, "evaluate_arrays", spy)
        scenario = Scenario(
            graph="ring",
            graph_params={"n": 7},
            algorithm="fast",
            label_space=3,
            delays=(0, 1),
        )
        monkeypatch.setenv(PRUNE_ENV, "1")
        pruned = scenario.run(engine="cube", workers=1, cache=False)
        monkeypatch.setenv(PRUNE_ENV, "0")
        unpruned = scenario.run(engine="cube", workers=1, cache=False)
        assert seen and seen[0] is True and seen[-1] is False
        assert unpruned.to_json() == pruned.to_json()


class TestPlanShardsGuards:
    def test_oversized_shard_count_never_plans_empty_shards(self):
        for total in (1, 2, 5):
            bounds = plan_shards(total, shard_count=16)
            assert len(bounds) == total
            assert all(hi > lo for lo, hi in bounds)

    def test_shard_count_is_validated_even_for_an_empty_space(self):
        # The guard must fire before the total == 0 early return.
        with pytest.raises(ValueError, match="shard_count"):
            plan_shards(0, shard_count=0)
        with pytest.raises(ValueError, match="shard_count"):
            plan_shards(10, shard_count=-3)

    def test_oversized_shard_size_is_one_whole_shard(self):
        assert plan_shards(5, shard_size=100) == [(0, 5)]


class TestShardExecutionError:
    def test_worker_death_names_the_failed_shard(self, monkeypatch):
        from repro.runtime import ShardExecutionError
        from repro.runtime import executor as executor_module

        monkeypatch.setattr(executor_module, "run_shard", _die_executing)
        executor = ParallelExecutor(2)
        specs = [RING_JOB.shard_spec(lo, hi) for lo, hi in plan_shards(8, 4)]
        with pytest.raises(ShardExecutionError) as excinfo:
            list(executor.map_shards(specs))
        err = excinfo.value
        assert err.shard in [spec.shard for spec in specs]
        assert f"[{err.shard[0]}, {err.shard[1]})" in str(err)
        assert "--cache" in str(err)
        assert "cluster run" in str(err)
        # The broken pool was dropped so a retry gets a fresh one.
        assert executor._pool is None
        executor.close()
