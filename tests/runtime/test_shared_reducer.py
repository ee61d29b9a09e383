"""Runtime shards reduce through the engines' own reducers.

A sweep split into shards and merged must report exactly what one
``worst_case_search`` over the flat configuration stream reports: the
same extremes at the same global indices, the same failures in the same
order, the same execution count.  Shards are windows of the sweep's
``ConfigCube``: the cube rungs answer them on the whole-cube tensor path
while the flat search streams in chunks, so this property pins the
window arithmetic and the runtime's merge -- on random graphs, presence
models, label pairs, delays, horizons, shard plans and chunk sizes, for
every rung.  Ablated algorithms under short horizons make failures and
ties common.
"""

import os
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import repro.runtime.worker as worker_module
from repro.core.ablations import CheapShortWait, FastNoDelimiter, FastNoDoubling
from repro.graphs.families import oriented_ring, random_tree
from repro.runtime.report import merge_reports
from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim import batch as batch_module
from repro.sim.adversary import (
    ConfigCube,
    all_label_pairs,
    configurations,
    default_horizon,
    worst_case_search,
)
from repro.sim.prune import PRUNE_ENV
from repro.sim.simulator import PresenceModel

#: rung -> (JobSpec engine, REPRO_PRUNE for the shards, search options)
RUNGS = {
    "reactive": ("reactive", "1", {"engine": "reactive"}),
    "compiled": ("compiled", "1", {"engine": "compiled"}),
    "cube-pruned": ("cube", "1", {"engine": "cube", "prune": True}),
    "cube-unpruned": ("cube", "0", {"engine": "cube", "prune": False}),
}
#: The cube rungs need NumPy; without it the property covers the other two.
AVAILABLE = sorted(
    name for name, (engine, _, _) in RUNGS.items()
    if engine != "cube" or batch_module.numpy_available()
)
REGISTERED = ("fast", "cheap", "cheap-sim", "fwr")
ABLATED = (FastNoDelimiter, FastNoDoubling, CheapShortWait)


@st.composite
def sweeps(draw):
    if draw(st.booleans()):
        graph = oriented_ring(draw(st.integers(3, 6)))
    else:
        seed = draw(st.integers(0, 99))
        graph = random_tree(draw(st.integers(3, 6)), random.Random(seed))
    label_space = draw(st.integers(2, 3))
    registered = AlgorithmSpec(draw(st.sampled_from(REGISTERED)), label_space)
    algorithm = registered.build(graph)
    if draw(st.booleans()):
        ablation = draw(st.sampled_from(ABLATED))
        algorithm = ablation(algorithm.exploration, label_space)
    pairs = list(all_label_pairs(label_space))
    label_pairs = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True)
    )
    delays = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    horizon = draw(st.one_of(st.none(), st.integers(1, 30)))
    presence = draw(st.sampled_from(["from-start", "parachute"]))
    job = JobSpec(
        algorithm=registered,
        graph=GraphSpec.make("ring", n=3),  # stands in: the drawn graph is injected
        delays=tuple(delays),
        label_pairs=tuple(label_pairs),
        fix_first_start=draw(st.booleans()),
        presence=presence,
        horizon=horizon,
    )
    total = job.config_space_size(graph)
    cuts = draw(
        st.lists(st.integers(1, max(total - 1, 1)), max_size=4, unique=True)
    )
    bounds = [0, *sorted(cut for cut in cuts if cut < total), total]
    plan = list(zip(bounds, bounds[1:]))
    return graph, algorithm, job, plan


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(sweep=sweeps(), rung=st.sampled_from(AVAILABLE), chunk=st.integers(1, 8))
def test_merged_shards_equal_one_flat_search(sweep, rung, chunk):
    graph, algorithm, job, plan = sweep
    engine, prune, options = RUNGS[rung]
    job = JobSpec(**{**job.__dict__, "engine": engine})
    flat = list(
        configurations(
            graph, job.label_pairs, job.delays, fix_first_start=job.fix_first_start
        )
    )

    def horizon(config):
        return default_horizon(algorithm, config)

    presence = PresenceModel(job.presence)
    max_rounds = job.horizon if job.horizon is not None else horizon
    with (
        mock.patch.object(worker_module, "_materialize", lambda *_: (graph, algorithm)),
        mock.patch.dict(os.environ, {PRUNE_ENV: prune}),
        mock.patch.object(batch_module, "DEFAULT_STREAM_CHUNK", chunk),
        mock.patch.object(batch_module, "_MAX_DERIVED_CHUNK", chunk),
    ):
        worker_module._trajectory_table.cache_clear()
        worker_module._cube_table.cache_clear()
        try:
            shards = [
                worker_module.run_shard(job.shard_spec(lo, hi)) for lo, hi in plan
            ]
        finally:
            worker_module._trajectory_table.cache_clear()
            worker_module._cube_table.cache_clear()
        report = worst_case_search(
            graph, algorithm, flat, max_rounds, presence, **options
        )
        if engine == "cube":
            from repro.sim.cube import CubeTimelineTable, cube_reduce

            # The flat list streams in chunks of the patched size.
            table = CubeTimelineTable(graph, algorithm, prune=options["prune"])
            streamed = cube_reduce(table, flat, max_rounds, presence)
    merged = merge_reports(shards)
    event(f"failures: {bool(report.failures)}")
    event(f"shards: {min(len(plan), 3)}")

    def summary(record):
        if record is None:
            return None
        return (flat.index(record.config), record.config, record.time, record.cost)

    def merged_summary(extreme):
        if extreme is None:
            return None
        return (extreme.index, extreme.config, extreme.time, extreme.cost)

    assert merged.executions == report.executions == len(flat)
    assert merged_summary(merged.worst_time) == summary(report.worst_time)
    assert merged_summary(merged.worst_cost) == summary(report.worst_cost)
    assert [(ref.index, ref.config) for ref in merged.failures] == [
        (flat.index(config), config) for config in report.failures
    ]
    # Shards are cube windows: no rung streams them in chunks.
    assert sum(shard.timing.chunks for shard in shards) == 0
    if engine == "cube":
        assert streamed.chunks == -(-len(flat) // chunk)
        assert streamed.executions == len(flat)


def test_a_label_pair_split_across_shards_is_scanned_once():
    """Shards of one process share the table's memoised delta rows."""
    pytest.importorskip("numpy")
    import repro.sim.cube as cube_module

    job = JobSpec(
        algorithm=AlgorithmSpec("fast", 3),
        graph=GraphSpec.make("ring", n=8),
        delays=(0, 1, 2),
        label_pairs=((1, 2),),
        engine="cube",
    )
    graph, algorithm = worker_module._materialize(job.graph, job.algorithm)
    total = job.config_space_size(graph)
    scans = []
    original = cube_module._first_colocations

    def spy(*args, **kwargs):
        scans.append(len(args[2]))  # scan groups in this pass
        return original(*args, **kwargs)

    with (
        mock.patch.dict(os.environ, {PRUNE_ENV: "1"}),
        mock.patch.object(cube_module, "_first_colocations", spy),
    ):
        worker_module._cube_table.cache_clear()
        try:
            bounds = [0, total // 4, total // 2, 3 * total // 4, total]
            shards = [
                worker_module.run_shard(job.shard_spec(lo, hi))
                for lo, hi in zip(bounds, bounds[1:])
            ]
            table = worker_module._cube_table(job.graph, job.algorithm, True)
        finally:
            worker_module._cube_table.cache_clear()
        whole = cube_module.CubeTimelineTable(graph, algorithm, prune=True)
        cube = ConfigCube.make(graph, job.label_pairs, delays=job.delays)
        reduction = cube_module.cube_reduce(
            whole, cube, lambda config: default_horizon(algorithm, config)
        )
    assert table.orbit_active
    assert scans == [3, 3]  # one pass by the first shard, one by the whole cube
    assert table.stats.orbit_cells == whole.stats.orbit_cells == 3 * 7**2
    merged = merge_reports(shards)
    assert merged.executions == reduction.executions == total
    assert merged.worst_time.index == reduction.worst_time.position
    assert merged.worst_cost.index == reduction.worst_cost.position
