"""Worst-case search over adversarial choices.

The paper's complexity statements quantify over *all* label pairs, *all*
pairs of distinct starting nodes and *all* wake-up delays.  This module
realises that adversary: it enumerates (or samples) the configuration space
and reports the configurations maximising time and cost, so measured
numbers can be compared against the claimed bounds and each extreme can be
replayed.

The space is a pure product, kept as axes by :class:`ConfigCube`, which
owns the index law from a global index to its configuration; a runtime
shard is a window ``[lo, hi)`` of its sweep's cube.  Each execution
substrate has one reducer from a configuration iterable to the shared
:class:`Reduction`: :func:`scan_reduce` for the reactive simulator and
the compiled trajectory table (it iterates a cube lazily),
:func:`repro.sim.cube.cube_reduce` for the NumPy cube table (it answers
a cube in tensor passes).  :func:`worst_case_search` and the runtime's
shards (:func:`repro.runtime.worker.run_shard`) both call them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator

from repro.graphs.port_graph import PortLabeledGraph
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.metrics import RendezvousResult
from repro.sim.program import ProgramFactory
from repro.sim.simulator import (
    PresenceModel,
    default_max_rounds,
    simulate_rendezvous,
)


@dataclass(frozen=True)
class Configuration:
    """One adversarial choice: labels, starting nodes and the delay."""

    labels: tuple[int, int]
    starts: tuple[int, int]
    delay: int


@dataclass(frozen=True)
class ExtremeRecord:
    """A configuration together with the result it produced."""

    config: Configuration
    result: RendezvousResult

    @property
    def time(self) -> int:
        # A hard error, not an assert: under ``python -O`` an assert
        # vanishes and a None would flow silently into max comparisons.
        if self.result.time is None:
            raise ValueError("record carries an execution that never met")
        return self.result.time

    @property
    def cost(self) -> int:
        return self.result.cost


@dataclass(frozen=True)
class WorstCaseReport:
    """Outcome of a worst-case search.

    ``failures`` lists configurations in which the agents did not meet
    within the horizon -- for a correct algorithm with a sufficient horizon
    it must be empty, and tests assert exactly that.
    """

    worst_time: ExtremeRecord | None
    worst_cost: ExtremeRecord | None
    executions: int
    failures: tuple[Configuration, ...]

    @property
    def max_time(self) -> int:
        if self.worst_time is None:
            raise ValueError("no successful execution recorded")
        return self.worst_time.time

    @property
    def max_cost(self) -> int:
        if self.worst_cost is None:
            raise ValueError("no successful execution recorded")
        return self.worst_cost.cost


def all_label_pairs(label_space: int) -> Iterator[tuple[int, int]]:
    """All ordered pairs of distinct labels from ``{1..L}``.

    Ordered pairs matter because the delay is applied to the second agent.
    """
    return itertools.permutations(range(1, label_space + 1), 2)


def default_start_pairs(
    graph: PortLabeledGraph, fix_first_start: bool = False
) -> list[tuple[int, int]]:
    """The canonical ordered start-pair enumeration of a sweep.

    This single definition fixes the global configuration ordering that
    :func:`configurations` and :class:`ConfigCube` -- hence the runtime's
    shard windows (:meth:`repro.runtime.spec.JobSpec.shard_cube`) and
    the space-size law (:meth:`~repro.runtime.spec.JobSpec.config_space_size`)
    -- all share: cached shard indices and merge tie-breaking silently
    corrupt if any of them drifts, so none of them re-implements it.
    """
    nodes = range(graph.num_nodes)
    first_nodes = [0] if fix_first_start else list(nodes)
    return [(u, v) for u in first_nodes for v in nodes if u != v]


def configurations(
    graph: PortLabeledGraph,
    label_pairs: Iterable[tuple[int, int]],
    delays: Iterable[int] = (0,),
    start_pairs: Iterable[tuple[int, int]] | None = None,
    fix_first_start: bool = False,
) -> Iterator[Configuration]:
    """Enumerate the adversarial configuration space.

    ``fix_first_start`` pins the first agent to node 0, which is sound
    (loses no worst case) exactly on port-preservingly vertex-transitive
    graphs such as oriented rings, hypercubes and tori; the caller
    asserts that property.
    """
    if start_pairs is None:
        start_pairs = default_start_pairs(graph, fix_first_start)
    else:
        start_pairs = list(start_pairs)
    label_pairs = list(label_pairs)
    delays = list(delays)
    for labels in label_pairs:
        for starts in start_pairs:
            for delay in delays:
                yield Configuration(labels=labels, starts=starts, delay=delay)


@dataclass(frozen=True)
class ConfigCube:
    """The adversarial space as a product of axes, not a flat stream.

    Iterating one yields exactly what :func:`configurations` yields, in
    the same global order (label pairs outermost, start pairs, then
    delays), so every engine accepts a cube wherever it accepts a
    configuration iterable.  The point of the class is what it *keeps*:
    the axes.  The cube engine (:mod:`repro.sim.cube`) recognises a
    :class:`ConfigCube` and answers the whole ``L(L-1) x n(n-1) x D``
    space by tensor passes over the axes -- no per-configuration Python
    objects are ever created on that path.

    A cube may be a *window*: the configurations at global indices
    ``[lo, hi)`` of the product (:meth:`window`).  Iteration and ``len``
    honour the window, and :meth:`coordinates` is the one index law
    mapping a global index to its axis positions -- the runtime's shards
    are windows of their sweep's cube.
    """

    graph: PortLabeledGraph
    label_pairs: tuple[tuple[int, int], ...]
    start_pairs: tuple[tuple[int, int], ...]
    delays: tuple[int, ...]
    lo: int = 0
    hi: int | None = None  # None: the end of the product

    def __post_init__(self) -> None:
        size = len(self.label_pairs) * len(self.start_pairs) * len(self.delays)
        hi = size if self.hi is None else self.hi
        if not 0 <= self.lo <= hi <= size:
            raise ValueError(
                f"window [{self.lo}, {hi}) is not within the cube's "
                f"{size} configurations"
            )
        object.__setattr__(self, "hi", hi)

    @classmethod
    def make(
        cls,
        graph: PortLabeledGraph,
        label_pairs: Iterable[tuple[int, int]],
        delays: Iterable[int] = (0,),
        start_pairs: Iterable[tuple[int, int]] | None = None,
        fix_first_start: bool = False,
    ) -> "ConfigCube":
        """Build a cube with :func:`configurations`' argument conventions."""
        if start_pairs is None:
            start_pairs = default_start_pairs(graph, fix_first_start)
        return cls(
            graph=graph,
            label_pairs=tuple((a, b) for a, b in label_pairs),
            start_pairs=tuple((u, v) for u, v in start_pairs),
            delays=tuple(delays),
        )

    def window(self, lo: int, hi: int) -> "ConfigCube":
        """Positions ``[lo, hi)`` of this cube, clamped like a slice.

        ``list(cube.window(lo, hi)) == list(cube)[lo:hi]`` for any
        non-negative bounds; the result is again a cube over the same
        axes, with its window in global indices.
        """
        if lo < 0 or hi < 0:
            raise ValueError(f"window bounds must be >= 0, got [{lo}, {hi})")
        start = min(self.lo + lo, self.hi)
        return replace(self, lo=start, hi=max(start, min(self.lo + hi, self.hi)))

    def coordinates(self, index: int) -> tuple[int, int, int]:
        """``(pair, start, delay)`` axis positions of global ``index``."""
        pair, rest = divmod(index, len(self.start_pairs) * len(self.delays))
        start, delay = divmod(rest, len(self.delays))
        return pair, start, delay

    def config_at(self, index: int) -> Configuration:
        """The configuration at global ``index``."""
        pair, start, delay = self.coordinates(index)
        return Configuration(
            labels=self.label_pairs[pair],
            starts=self.start_pairs[start],
            delay=self.delays[delay],
        )

    def __iter__(self) -> Iterator[Configuration]:
        remaining = len(self)
        if not remaining:
            return
        pair, start, delay = self.coordinates(self.lo)
        for labels in self.label_pairs[pair:]:
            for starts in self.start_pairs[start:]:
                for delay_value in self.delays[delay:]:
                    yield Configuration(labels=labels, starts=starts, delay=delay_value)
                    remaining -= 1
                    if not remaining:
                        return
                delay = 0
            start = 0

    def __len__(self) -> int:
        return self.hi - self.lo


def default_horizon(algorithm: Any, config: Configuration) -> int:
    """The standard round budget for one configuration.

    The later agent's schedule end plus the wake-up delay -- a correct
    algorithm must meet before both schedules run out.  A thin delegation
    to :func:`repro.sim.simulator.default_max_rounds`, the single
    statement of that formula shared with ``simulate_rendezvous``; the
    serial sweep and the runtime workers all route through here, so no
    path can disagree on ``max_rounds``.  ``algorithm`` is anything
    exposing ``schedule_length`` (every :mod:`repro.core` algorithm does).
    """
    return default_max_rounds(algorithm, config.labels, config.delay)


@dataclass(frozen=True)
class Extreme:
    """One kept extreme: its stream position, what it measured, its horizon."""

    position: int
    config: Configuration
    time: int
    cost: int
    horizon: int


@dataclass(frozen=True)
class Reduction:
    """What every substrate's reducer returns for one configuration stream.

    Positions count from 0 in stream order; ``failures`` are ``(position,
    configuration)`` pairs and ``chunks`` counts vectorized passes (0
    off the chunked stream path).  A runtime shard adds its lower bound
    to turn positions into global indices.
    """

    worst_time: Extreme | None
    worst_cost: Extreme | None
    failures: tuple[tuple[int, Configuration], ...]
    executions: int
    chunks: int = 0

    def report(self, table: Any, presence: PresenceModel) -> WorstCaseReport:
        """The search report, each distinct extreme's result rebuilt once."""

        def record(extreme: Extreme | None) -> ExtremeRecord | None:
            if extreme is None:
                return None
            result = table.result(extreme.config, extreme.horizon, presence)
            return ExtremeRecord(config=extreme.config, result=result)

        worst_time = record(self.worst_time)
        return WorstCaseReport(
            worst_time=worst_time,
            worst_cost=(
                worst_time
                if self.worst_cost == self.worst_time
                else record(self.worst_cost)
            ),
            executions=self.executions,
            failures=tuple(config for _, config in self.failures),
        )


class ReactiveTable:
    """The round simulator behind the table interface the reducers walk.

    Nothing is precomputed; :meth:`result` replays an extreme (the
    simulation is deterministic) to rebuild its full record.
    """

    build_seconds = 0.0  # nothing to build

    def __init__(self, graph: PortLabeledGraph, factory: ProgramFactory):
        self.graph = graph
        self.factory = factory

    def result(
        self, config: Configuration, max_rounds: int, presence: PresenceModel
    ) -> RendezvousResult:
        return simulate_rendezvous(
            self.graph,
            self.factory,
            labels=config.labels,
            starts=config.starts,
            delay=config.delay,
            max_rounds=max_rounds,
            presence=presence,
        )

    def evaluate(
        self, config: Configuration, max_rounds: int, presence: PresenceModel
    ) -> tuple[int | None, int]:
        result = self.result(config, max_rounds, presence)
        return (result.time if result.met else None), result.cost


def scan_reduce(
    table: Any,
    configs: Iterable[Configuration],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel = PresenceModel.FROM_START,
) -> Reduction:
    """The per-configuration reducer of the reactive and compiled substrates.

    ``table`` answers ``evaluate(config, horizon, presence)`` with
    ``(meeting time or None, cost)`` -- a :class:`ReactiveTable` or a
    :class:`~repro.sim.compiled.TrajectoryTable`.  ``configs`` is pulled
    one at a time, never listed.  Strict-``>`` updates in stream order
    keep the earliest maximiser of each metric, the tie-break that
    :func:`repro.runtime.report.merge_reports` relies on.
    """
    worst_time: Extreme | None = None
    worst_cost: Extreme | None = None
    failures: list[tuple[int, Configuration]] = []
    executions = 0
    for position, config in enumerate(configs):
        horizon = max_rounds(config) if callable(max_rounds) else max_rounds
        time_, cost = table.evaluate(config, horizon, presence)
        executions += 1
        if time_ is None:
            failures.append((position, config))
            continue
        extreme = None
        if worst_time is None or time_ > worst_time.time:
            worst_time = extreme = Extreme(position, config, time_, cost, horizon)
        if worst_cost is None or cost > worst_cost.cost:
            worst_cost = extreme or Extreme(position, config, time_, cost, horizon)
    return Reduction(worst_time, worst_cost, tuple(failures), executions)


#: Valid values of ``worst_case_search``'s ``engine`` argument.
SEARCH_ENGINES = ("reactive", "compiled", "cube", "auto")


def worst_case_search(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    configs: Iterable[Configuration],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel = PresenceModel.FROM_START,
    sample: int | None = None,
    rng: random.Random | None = None,
    engine: str = "reactive",
    telemetry: Telemetry = NULL_TELEMETRY,
    prune: bool | None = None,
) -> WorstCaseReport:
    """Run every configuration and keep the extremes.

    ``max_rounds`` may be a constant horizon or a function of the
    configuration (e.g., the algorithm's own schedule bound plus the delay).
    With ``sample`` set, at most that many configurations are examined,
    drawn uniformly with ``rng`` (exhaustiveness traded for scale).

    ``configs`` is consumed as a *stream*: with ``sample=None``, no engine
    materializes the configuration space -- the reactive loop runs one
    configuration at a time, the compiled engine scans lazily, and the
    cube engine pulls bounded chunks from any iterable that is not a
    :class:`ConfigCube`.  Only the sampling branch (which
    must see the whole population to draw from it) builds a list.

    ``engine`` selects the execution substrate and never the semantics --
    the reports are identical, field for field, trace for trace:

    * ``"reactive"`` runs each configuration through the round simulator;
    * ``"compiled"`` compiles each agent's trajectory once per
      ``(label, start)`` and scans timelines (:mod:`repro.sim.compiled`);
      requires a schedule-driven factory exposing ``schedule_length``;
    * ``"cube"`` stacks the compiled timelines into dense NumPy arrays
      (:mod:`repro.sim.batch`), tensorizes *across* label pairs and
      prunes the adversary space by rotation orbits and delay dominance
      (:mod:`repro.sim.cube`); needs the optional NumPy dependency and a
      schedule-driven factory, and is fastest when ``configs`` is a
      :class:`ConfigCube` (any other iterable streams in chunks);
    * ``"auto"`` picks the fastest sound engine for the factory: agents
      declaring ``is_oblivious`` (see
      :class:`repro.core.base.RendezvousAlgorithm`) run on ``"cube"``
      when NumPy is importable, on ``"compiled"`` otherwise; everything
      else stays reactive.

    ``prune`` is consulted by the cube engine only (``None`` resolves
    through :func:`repro.sim.prune.resolve_prune`); pruned and unpruned
    runs return byte-identical reports, and ``prune=False`` runs the
    plain unpruned NumPy passes.
    """
    if engine not in SEARCH_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {list(SEARCH_ENGINES)}"
        )
    if sample is not None:
        population = list(configs)
        if sample < len(population):
            rng = rng or random.Random(0xC0FFEE)
            population = rng.sample(population, sample)
        configs = population

    # Engine modules are imported lazily: they import this module's report
    # types, so the dependency arrow at import time points one way.
    if engine == "auto":
        if getattr(factory, "is_oblivious", False):
            from repro.sim import batch as batch_module

            engine = "cube" if batch_module.numpy_available() else "compiled"
        else:
            engine = "reactive"
    if engine == "cube":
        from repro.sim.cube import cube_worst_case_search

        return cube_worst_case_search(
            graph,
            factory,
            configs,
            max_rounds,
            presence,
            telemetry=telemetry,
            prune=prune,
        )
    if engine == "compiled":
        from repro.sim.compiled import compiled_worst_case_search

        return compiled_worst_case_search(
            graph, factory, configs, max_rounds, presence, telemetry=telemetry
        )

    table = ReactiveTable(graph, factory)
    with telemetry.span("reactive.search"):
        reduction = scan_reduce(table, configs, max_rounds, presence)
        if telemetry.enabled:
            telemetry.count("configs.evaluated", reduction.executions)
    return reduction.report(table, presence)
