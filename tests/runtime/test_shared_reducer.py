"""Runtime shards reduce through the engines' own reducers.

A sweep split into shards and merged must report exactly what one
``worst_case_search`` over the flat configuration stream reports: the
same extremes at the same global indices, the same failures in the same
order, the same execution count.  Both sides run the same per-substrate
reducer, so this property pins the one thing the runtime adds -- turning
stream positions into global indices and merging shards -- on random
graphs, label pairs, delays, horizons, shard plans and chunk sizes, for
every rung.  Ablated algorithms under short horizons make failures and
ties common.
"""

import os
import random
from unittest import mock

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import repro.runtime.worker as worker_module
from repro.core.ablations import CheapShortWait, FastNoDelimiter, FastNoDoubling
from repro.graphs.families import oriented_ring, random_tree
from repro.runtime.report import merge_reports
from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim import batch as batch_module
from repro.sim.adversary import (
    all_label_pairs,
    configurations,
    default_horizon,
    worst_case_search,
)
from repro.sim.prune import PRUNE_ENV

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
    job = JobSpec(
        algorithm=registered,
        graph=GraphSpec.make("ring", n=3),  # stands in: the drawn graph is injected
        delays=tuple(delays),
        label_pairs=tuple(label_pairs),
        fix_first_start=draw(st.booleans()),
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
            graph,
            algorithm,
            flat,
            job.horizon if job.horizon is not None else horizon,
            **options,
        )
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
    chunks = sum(shard.timing.chunks for shard in shards)
    if engine == "cube":
        assert chunks == sum(-(-(hi - lo) // chunk) for lo, hi in plan)
    else:
        assert chunks == 0
