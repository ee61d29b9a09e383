"""The function a worker process executes: one shard of adversary search.

:func:`run_shard` is deliberately a module-level function of one picklable
argument so it can be submitted to a ``ProcessPoolExecutor`` unchanged.
Graphs and algorithms are rebuilt from the spec on first use and memoised
per process (pool workers are long-lived, so a worker pays the
construction cost once per distinct job, not once per shard).

The spec's ``engine`` picks the substrate, and the shard runs through
that substrate's own reducer -- the one
:func:`repro.sim.adversary.worst_case_search` uses: the round simulator
or the compiled trajectory table under
:func:`~repro.sim.adversary.scan_reduce`, or the NumPy cube table under
:func:`repro.sim.cube.cube_reduce` (bounded vectorized chunks of the
shard's lazy configuration stream).  The compiled and cube tables are
memoised per process, so shards of one sweep share compilations.  The
reducer's stream positions become global indices by adding the shard's
lower bound, so the shard report is identical whatever the substrate.
"""

from __future__ import annotations

import time
from functools import lru_cache

from repro.core.base import RendezvousAlgorithm
from repro.graphs.port_graph import PortLabeledGraph
from repro.registry import PRESENCE_MODELS
from repro.runtime.report import ConfigRef, ExtremeSummary, ShardReport, ShardTiming
from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim.adversary import (
    Configuration,
    Extreme,
    ReactiveTable,
    default_horizon,
    scan_reduce,
)
from repro.sim.compiled import TrajectoryTable
from repro.sim.prune import resolve_prune


@lru_cache(maxsize=16)
def _materialize(
    graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec
) -> tuple[PortLabeledGraph, RendezvousAlgorithm]:
    graph = graph_spec.build()
    return graph, algorithm_spec.build(graph)


@lru_cache(maxsize=8)
def _trajectory_table(
    graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec
) -> TrajectoryTable:
    graph, algorithm = _materialize(graph_spec, algorithm_spec)
    return TrajectoryTable(graph, algorithm)


@lru_cache(maxsize=8)
def _cube_table(
    graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec, prune: bool
):
    # Imported lazily so NumPy-free workers can run the other engines.
    from repro.sim.cube import CubeTimelineTable

    graph, algorithm = _materialize(graph_spec, algorithm_spec)
    return CubeTimelineTable(graph, algorithm, prune=prune)


def _summary(extreme: Extreme | None, lo: int) -> ExtremeSummary | None:
    if extreme is None:
        return None
    config = extreme.config
    return ExtremeSummary(
        index=lo + extreme.position,
        labels=config.labels,
        starts=config.starts,
        delay=config.delay,
        time=extreme.time,
        cost=extreme.cost,
    )


def run_shard(spec: JobSpec) -> ShardReport:
    """Run every configuration in the spec's shard and keep the extremes.

    The substrate's reducer walks the shard in enumeration order with
    strict-``>`` updates, exactly as
    :func:`repro.sim.adversary.worst_case_search` would walk the slice,
    so the record kept per metric is the one with the lowest global index
    among maximisers -- the invariant
    :func:`repro.runtime.report.merge_reports` relies on.
    """
    started = time.perf_counter()  # repro: allow(REP001): ShardTiming provenance
    graph, algorithm = _materialize(spec.graph, spec.algorithm)
    presence = PRESENCE_MODELS.get(spec.presence)  # SpecError if unknown
    lo, hi = spec.shard if spec.shard is not None else (0, spec.config_space_size(graph))
    if spec.engine == "cube":
        from repro.sim.cube import cube_reduce

        # The prune setting resolves via REPRO_PRUNE, which pool/cluster
        # workers inherit from the submitting process -- pruned and
        # unpruned shards are byte-identical, so the knob never rides on
        # the spec -- but it keys the table cache, so a changed setting
        # builds a fresh table instead of reusing a stale one.
        table = _cube_table(spec.graph, spec.algorithm, resolve_prune())
        reduce = cube_reduce
    elif spec.engine == "compiled":
        table, reduce = _trajectory_table(spec.graph, spec.algorithm), scan_reduce
    else:
        table, reduce = ReactiveTable(graph, algorithm), scan_reduce
    # Tables are memoised per process, so this shard's build cost is the
    # delta of the cumulative meter: the first shard of a sweep pays the
    # builds, later shards read the cache and report ~0.
    build_start = table.build_seconds

    def horizon(config: Configuration) -> int:
        return default_horizon(algorithm, config)

    reduction = reduce(
        table,
        (config for _, config in spec.iter_shard(graph)),
        spec.horizon if spec.horizon is not None else horizon,
        presence,
    )
    return ShardReport(
        shard=(lo, hi),
        executions=reduction.executions,
        worst_time=_summary(reduction.worst_time, lo),
        worst_cost=_summary(reduction.worst_cost, lo),
        failures=tuple(
            ConfigRef(
                index=lo + position,
                labels=config.labels,
                starts=config.starts,
                delay=config.delay,
            )
            for position, config in reduction.failures
        ),
        timing=ShardTiming(
            # repro: allow(REP001): ShardTiming rides the non-canonical
            # timing channel (compare=False; stripped from reports).
            seconds=round(time.perf_counter() - started, 6),
            table_seconds=round(table.build_seconds - build_start, 6),
            engine=spec.engine,
            chunks=reduction.chunks,
        ),
    )
