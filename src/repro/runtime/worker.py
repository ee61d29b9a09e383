"""The function a worker process executes: one shard of adversary search.

:func:`run_shard` is deliberately a module-level function of one picklable
argument so it can be submitted to a ``ProcessPoolExecutor`` unchanged.
Graphs and algorithms are rebuilt from the spec on first use and memoised
per process (pool workers are long-lived, so a worker pays the
construction cost once per distinct job, not once per shard).

The spec's ``engine`` picks the per-configuration substrate: the reactive
round simulator, the compiled trajectory engine
(:mod:`repro.sim.compiled`), or the NumPy cube engine
(:mod:`repro.sim.cube`).  The compiled ``(label, start)`` trajectory
table and the cube engine's dense timeline arrays are likewise memoised
per process, so shards of one sweep share compilations.  The cube
substrate never walks the shard configuration by configuration: the
shard's lazy ``(index, configuration)`` stream is measured in bounded
vectorized chunks.  Whatever the substrate, the measured ``(time, cost)``
per configuration -- and hence the shard report -- is identical.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Iterator

from repro.core.base import RendezvousAlgorithm
from repro.graphs.port_graph import PortLabeledGraph
from repro.registry import PRESENCE_MODELS
from repro.runtime.report import ConfigRef, ExtremeSummary, ShardReport, ShardTiming
from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim.adversary import Configuration, default_horizon
from repro.sim.batch import evaluate_stream
from repro.sim.compiled import TrajectoryTable
from repro.sim.prune import resolve_prune
from repro.sim.simulator import simulate_rendezvous


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


class _ShardMeter:
    """Per-shard wall-clock bookkeeping, filled while the stream runs.

    Tables are memoised per process, so the per-shard table-build cost is
    the *delta* of the table's cumulative ``build_seconds`` across this
    shard (the first shard of a sweep pays the builds; later shards read
    the cache and report ~0).  Purely observational: the numbers ride
    back on the :class:`~repro.runtime.report.ShardTiming` and never
    influence the measurements.
    """

    def __init__(self) -> None:
        self.table_seconds = 0.0
        self.chunks = 0
        self._table = None
        self._build_start = 0.0

    def watch_table(self, table) -> None:
        self._table = table
        self._build_start = table.build_seconds

    def finish(self) -> None:
        if self._table is not None:
            self.table_seconds = self._table.build_seconds - self._build_start

    def on_chunk(self, size: int, seconds: float) -> None:
        self.chunks += 1


def _measured_stream(
    spec: JobSpec,
    graph: PortLabeledGraph,
    algorithm: RendezvousAlgorithm,
    presence,
    meter: _ShardMeter | None = None,
) -> Iterator[tuple[int, Configuration, int | None, int]]:
    """``(index, config, time, cost)`` for the shard, in enumeration order.

    One lazy stream per substrate, all field-identical: the shard loop in
    :func:`run_shard` cannot tell the engines apart.
    """

    def horizon_for(config: Configuration) -> int:
        return (
            spec.horizon
            if spec.horizon is not None
            else default_horizon(algorithm, config)
        )

    indexed = spec.iter_shard(graph)
    if spec.engine == "cube":
        # The prune setting resolves via REPRO_PRUNE, which pool/cluster
        # workers inherit from the submitting process -- pruned and
        # unpruned shards are byte-identical, so the knob never rides on
        # the spec -- but it keys the table cache, so a changed setting
        # builds a fresh table instead of reusing a stale one.
        table = _cube_table(spec.graph, spec.algorithm, resolve_prune())
        if meter is not None:
            meter.watch_table(table)
        for index, config, _horizon, time_, cost in evaluate_stream(
            table,
            ((index, config, horizon_for(config)) for index, config in indexed),
            presence,
            on_chunk=meter.on_chunk if meter is not None else None,
        ):
            yield index, config, time_, cost
    elif spec.engine == "compiled":
        table = _trajectory_table(spec.graph, spec.algorithm)
        if meter is not None:
            meter.watch_table(table)
        for index, config in indexed:
            time_, cost = table.evaluate(config, horizon_for(config), presence)
            yield index, config, time_, cost
    else:
        for index, config in indexed:
            result = simulate_rendezvous(
                graph,
                algorithm,
                labels=config.labels,
                starts=config.starts,
                delay=config.delay,
                max_rounds=horizon_for(config),
                presence=presence,
            )
            yield index, config, (result.time if result.met else None), result.cost


def run_shard(spec: JobSpec) -> ShardReport:
    """Run every configuration in the spec's shard and keep the extremes.

    Semantically identical to
    :func:`repro.sim.adversary.worst_case_search` restricted to the slice:
    strict-``>`` updates walking the shard in enumeration order, so the
    record kept per metric is the one with the lowest global index among
    maximisers -- the invariant :func:`repro.runtime.report.merge_reports`
    relies on.
    """
    started = time.perf_counter()  # repro: allow(REP001): ShardTiming provenance
    graph, algorithm = _materialize(spec.graph, spec.algorithm)
    presence = PRESENCE_MODELS.get(spec.presence)  # SpecError if unknown
    lo, hi = spec.shard if spec.shard is not None else (0, spec.config_space_size(graph))

    worst_time: ExtremeSummary | None = None
    worst_cost: ExtremeSummary | None = None
    failures: list[ConfigRef] = []
    executions = 0
    meter = _ShardMeter()

    for index, config, time_, cost in _measured_stream(
        spec, graph, algorithm, presence, meter
    ):
        executions += 1
        if time_ is None:
            failures.append(
                ConfigRef(
                    index=index,
                    labels=config.labels,
                    starts=config.starts,
                    delay=config.delay,
                )
            )
            continue
        summary = ExtremeSummary(
            index=index,
            labels=config.labels,
            starts=config.starts,
            delay=config.delay,
            time=time_,
            cost=cost,
        )
        if worst_time is None or summary.time > worst_time.time:
            worst_time = summary
        if worst_cost is None or summary.cost > worst_cost.cost:
            worst_cost = summary

    meter.finish()
    return ShardReport(
        shard=(lo, hi),
        executions=executions,
        worst_time=worst_time,
        worst_cost=worst_cost,
        failures=tuple(failures),
        timing=ShardTiming(
            # repro: allow(REP001): ShardTiming rides the non-canonical
            # timing channel (compare=False; stripped from reports).
            seconds=round(time.perf_counter() - started, 6),
            table_seconds=round(meter.table_seconds, 6),
            engine=spec.engine,
            chunks=meter.chunks,
        ),
    )
