"""Tests for the unpruned NumPy substrate (`repro.sim.batch`).

The substrate is what the cube engine runs with pruning off
(``prune=False`` or ``REPRO_PRUNE=0``), so its search, runtime and
sampling tests drive ``engine="cube"`` unpruned over flat configuration
lists -- the chunked stream path.  The exhaustive cross-engine identity
suite lives in ``tests/sim/test_compiled.py`` (the unpruned cube leg
participates there whenever NumPy is importable); this module covers the
substrate's own surface -- availability and fallback without NumPy, the
timeline table and streaming evaluator, runtime/worker integration, and
the determinism of sampled sweeps across engines and processes.
"""

import json
import os
import subprocess
import sys

import pytest

import repro.sim.batch as batch_module
from repro.api import Scenario, sweep_objects
from repro.obs.telemetry import Telemetry
from repro.runtime import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    ParallelExecutor,
    SerialExecutor,
    execute_job,
)
from repro.runtime.spec import canonical_json
from repro.runtime.worker import run_shard
from repro.sim.adversary import (
    all_label_pairs,
    configurations,
    default_horizon,
    worst_case_search,
)
from repro.sim.batch import (
    BatchUnavailableError,
    evaluate_stream,
    numpy_available,
    require_numpy,
)
from repro.sim.compiled import TrajectoryTable
from repro.sim.prune import PRUNE_ENV
from repro.sim.simulator import PresenceModel

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the cube engine needs numpy"
)


def build_algorithm(name, graph, label_space=3):
    return AlgorithmSpec(name, label_space=label_space).build(graph)


def unpruned_search(graph, algorithm, configs, max_rounds, **options):
    """The unpruned substrate's stream search: cube, pruning off."""
    return worst_case_search(
        graph, algorithm, configs, max_rounds, engine="cube", prune=False, **options
    )


def force_chunk_size(monkeypatch, size):
    """Pin the stream chunk size by clamping both of its bounds."""
    monkeypatch.setattr(batch_module, "DEFAULT_STREAM_CHUNK", size)
    monkeypatch.setattr(batch_module, "_MAX_DERIVED_CHUNK", size)


class TestAvailability:
    def test_require_numpy_names_the_extra(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_np", None)
        assert not numpy_available()
        with pytest.raises(BatchUnavailableError, match=r"repro-rendezvous\[batch\]"):
            require_numpy("cube")

    def test_unavailable_error_is_a_value_error(self):
        assert issubclass(BatchUnavailableError, ValueError)

    def test_explicit_batch_engine_raises_without_numpy(self, ring12, monkeypatch):
        monkeypatch.setattr(batch_module, "_np", None)
        algorithm = build_algorithm("cheap", ring12)
        configs = list(configurations(ring12, [(1, 2)], delays=(0,)))
        with pytest.raises(BatchUnavailableError, match="NumPy"):
            unpruned_search(ring12, algorithm, configs, 50)

    def test_auto_without_numpy_matches_the_compiled_report(
        self, ring12, monkeypatch
    ):
        algorithm = build_algorithm("cheap", ring12)
        configs = list(configurations(ring12, all_label_pairs(3), delays=(0, 2)))

        def horizon(config):
            return default_horizon(algorithm, config)

        compiled = worst_case_search(
            ring12, algorithm, configs, horizon, engine="compiled"
        )
        monkeypatch.setattr(batch_module, "_np", None)
        auto = worst_case_search(ring12, algorithm, configs, horizon, engine="auto")
        assert auto == compiled

    def test_importing_the_module_needs_no_numpy(self, monkeypatch):
        # The guard is at use sites, not import time: numpy_available and
        # the error path must work with the module attribute cleared.
        monkeypatch.setattr(batch_module, "_np", None)
        assert batch_module.numpy_available() is False


@requires_numpy
class TestBatchTimelineTable:
    def test_evaluate_arrays_matches_the_trajectory_table(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        table = batch_module.BatchTimelineTable(ring12, algorithm)
        reference = TrajectoryTable(ring12, algorithm)
        configs = list(
            configurations(ring12, all_label_pairs(3), delays=(0, 1, 7))
        )
        horizons = [default_horizon(algorithm, config) for config in configs]
        for presence in PresenceModel:
            met, cost = table.evaluate_arrays(configs, horizons, presence)
            assert met.shape == cost.shape == (len(configs),)
            for config, horizon, time, total in zip(
                configs, horizons, met.tolist(), cost.tolist()
            ):
                expected = reference.evaluate(config, horizon, presence)
                assert (time if time >= 0 else None, total) == expected

    def test_label_matrices_are_built_once(self, ring12):
        algorithm = build_algorithm("cheap", ring12)
        table = batch_module.BatchTimelineTable(ring12, algorithm)
        first = table.timelines(1)
        assert table.timelines(1) is first
        assert len(table) == 1
        assert first.positions.shape == (12, first.length + 1)
        assert first.costs.shape == first.positions.shape

    def test_result_matches_the_simulator(self, ring12):
        algorithm = build_algorithm("fwr", ring12)
        table = batch_module.BatchTimelineTable(ring12, algorithm)
        config = next(
            iter(configurations(ring12, [(1, 3)], delays=(4,), start_pairs=[(2, 9)]))
        )
        horizon = default_horizon(algorithm, config)
        assert table.result(config, horizon) == TrajectoryTable(
            ring12, algorithm
        ).result(config, horizon)

    def test_group_matrix_cache_is_bounded(self, ring12, monkeypatch):
        monkeypatch.setattr(
            batch_module, "_MATRIX_CACHE_ELEMENTS", 4 * ring12.num_nodes**2
        )
        algorithm = build_algorithm("cheap", ring12)
        table = batch_module.BatchTimelineTable(ring12, algorithm)
        horizon = default_horizon(
            algorithm,
            next(iter(configurations(ring12, [(1, 2)], delays=(0,)))),
        )
        for delay in range(10):
            table.group_matrices((1, 2), delay, horizon + delay)
        assert len(table._matrices) <= 4
        # The most recent group is still served from the cache.
        cached = table.group_matrices((1, 2), 9, horizon + 9)
        assert table.group_matrices((1, 2), 9, horizon + 9) is cached


@requires_numpy
class TestEvaluateStream:
    def test_preserves_order_and_keys_across_chunks(self, ring12, monkeypatch):
        algorithm = build_algorithm("fast", ring12)
        table = batch_module.BatchTimelineTable(ring12, algorithm)
        reference = TrajectoryTable(ring12, algorithm)
        configs = list(configurations(ring12, all_label_pairs(3), delays=(0, 3)))

        def horizon(config):
            return default_horizon(algorithm, config)

        force_chunk_size(monkeypatch, 7)
        out = list(evaluate_stream(table, iter(configs), horizon))
        assert [len(chunk) for chunk, *_ in out] == [7] * (len(configs) // 7) + [
            len(configs) % 7
        ]
        streamed = [config for chunk, *_ in out for config in chunk]
        assert len(streamed) == len(configs)
        assert all(a is b for a, b in zip(streamed, configs))
        for chunk, horizons, met, cost in out:
            assert len(horizons) == len(met) == len(cost) == len(chunk)
            for config, rounds, time, total in zip(
                chunk, horizons, met.tolist(), cost.tolist()
            ):
                assert rounds == horizon(config)
                measured = (time if time >= 0 else None, total)
                assert measured == reference.evaluate(config, rounds)

    def test_empty_stream_yields_nothing(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        table = batch_module.BatchTimelineTable(ring12, algorithm)
        assert list(evaluate_stream(table, [], 1)) == []


@requires_numpy
class TestBatchWorstCaseSearch:
    def test_chunk_boundaries_keep_the_serial_tie_break(self, ring12, monkeypatch):
        # Force many tiny chunks: the cross-chunk strict-> reduction must
        # still keep the earliest maximiser, exactly like one serial pass.
        algorithm = build_algorithm("cheap-sim", ring12)
        configs = list(configurations(ring12, all_label_pairs(3), delays=(0,)))

        def horizon(config):
            return default_horizon(algorithm, config)

        reference = worst_case_search(
            ring12, algorithm, configs, horizon, engine="compiled"
        )
        force_chunk_size(monkeypatch, 5)
        telemetry = Telemetry()
        chunked = unpruned_search(
            ring12, algorithm, configs, horizon, telemetry=telemetry
        )
        assert chunked == reference
        assert telemetry.counters["cube.chunks"] == -(-len(configs) // 5)

    def test_failures_keep_enumeration_order(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        configs = list(configurations(ring12, [(1, 2)], fix_first_start=True))
        unpruned = unpruned_search(ring12, algorithm, configs, 1)
        reactive = worst_case_search(
            ring12, algorithm, configs, 1, engine="reactive"
        )
        assert unpruned == reactive
        assert unpruned.worst_time is None
        assert len(unpruned.failures) == 11

    def test_empty_configuration_stream(self, ring12):
        algorithm = build_algorithm("cheap", ring12)
        report = unpruned_search(ring12, algorithm, [], 1)
        assert report.worst_time is None and report.worst_cost is None
        assert report.executions == 0 and report.failures == ()

    def test_constant_horizon_matches_callable(self, ring12):
        algorithm = build_algorithm("cheap-sim", ring12)
        configs = list(configurations(ring12, all_label_pairs(3), delays=(0,)))
        horizon = default_horizon(algorithm, configs[0])
        constant = unpruned_search(ring12, algorithm, configs, horizon)
        called = unpruned_search(ring12, algorithm, configs, lambda config: horizon)
        assert constant == called


@requires_numpy
class TestRuntimeIntegration:
    @pytest.fixture(autouse=True)
    def unpruned(self, monkeypatch):
        # Workers resolve pruning through the environment, which pool
        # children inherit.
        monkeypatch.setenv(PRUNE_ENV, "0")

    def job(self, **overrides):
        base = dict(
            algorithm=AlgorithmSpec("fast", 4),
            graph=GraphSpec.make("ring", n=8),
            delays=(0, 3),
            engine="cube",
        )
        base.update(overrides)
        return JobSpec(**base)

    def test_run_shard_matches_the_reactive_worker(self):
        from repro.obs import strip_timing

        unpruned = run_shard(self.job().shard_spec(10, 40))
        reactive = run_shard(self.job(engine="reactive").shard_spec(10, 40))
        # The reports are equal (timing is non-canonical and excluded from
        # comparison); their canonical payloads are byte-identical.
        assert unpruned == reactive
        assert canonical_json(strip_timing(unpruned.to_dict())) == canonical_json(
            strip_timing(reactive.to_dict())
        )

    def test_sharded_pool_report_is_byte_identical(self):
        serial = execute_job(self.job(), executor=SerialExecutor(), shard_count=7)
        with ParallelExecutor(2) as executor:
            pooled = execute_job(self.job(), executor=executor, shard_count=7)
        assert canonical_json(pooled.report.to_dict()) == canonical_json(
            serial.report.to_dict()
        )

    def test_scenario_auto_runs_batch_with_identical_report(self):
        scenario = Scenario(
            graph="ring",
            graph_params={"n": 8},
            algorithm="fast",
            label_space=4,
            delays=(0, 2),
        )
        auto = scenario.run(engine="auto")
        serial = scenario.run(engine="serial")
        assert auto.to_json() == serial.to_json()


class TestSampledSweepDeterminism:
    """The `sample=` satellite: seeded draws, identical across engines
    and across interpreter processes."""

    #: Engine legs as ``sweep_objects`` keyword arguments.
    ENGINES = {"reactive": {"engine": "reactive"}, "compiled": {"engine": "compiled"}}
    if numpy_available():
        ENGINES["cube-unpruned"] = {"engine": "cube", "prune": False}

    def sampled_row(self, engine, prune=None):
        from repro.graphs.families import oriented_ring

        return sweep_objects(
            build_algorithm("fast", oriented_ring(12), label_space=4),
            oriented_ring(12),
            "ring-12",
            delays=(0, 2),
            sample=30,
            engine=engine,
            prune=prune,
        )

    def test_identical_rows_across_engines(self):
        rows = {name: self.sampled_row(**leg) for name, leg in self.ENGINES.items()}
        reference = rows["reactive"]
        assert reference.executions == 30
        assert all(row == reference for row in rows.values())

    def test_identical_report_in_a_fresh_process(self):
        """The default ``random.Random(0xC0FFEE)`` seed makes sampled
        sweeps reproducible across worker processes and reruns."""
        script = (
            "import json\n"
            "from repro.api import sweep_objects\n"
            "from repro.graphs.families import oriented_ring\n"
            "from repro.runtime.spec import AlgorithmSpec, canonical_json\n"
            "graph = oriented_ring(12)\n"
            "algorithm = AlgorithmSpec('fast', label_space=4).build(graph)\n"
            "row = sweep_objects(algorithm, graph, 'ring-12', delays=(0, 2),\n"
            "                    sample=30, engine='reactive')\n"
            "print(canonical_json(row.to_dict()))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        subprocess_payload = json.loads(completed.stdout)
        local_payload = json.loads(canonical_json(self.sampled_row("reactive").to_dict()))
        assert subprocess_payload == local_payload
