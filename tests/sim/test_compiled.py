"""Cross-engine equivalence: derived engines vs. the reactive simulator.

The compiled trajectory engine (`repro.sim.compiled`) and the NumPy
cube engine (`repro.sim.cube`), pruned and over the unpruned
`repro.sim.batch` substrate, are only allowed to exist because they
are *indistinguishable* from the reactive engine: for every registered
algorithm on a small instance of every registered graph family, under
both presence models and a ``{0, 1, E}`` delay grid, the engines must
return equal :class:`~repro.sim.adversary.WorstCaseReport`\\ s --
including failure tuples, tie-broken argmax configurations, and the full
per-agent traces inside the extreme records.
"""

import pytest

from repro.core.ablations import CheapShortWait
from repro.exploration.ring import RingExploration
from repro.registry import ALGORITHMS, GRAPH_FAMILIES
from repro.runtime.spec import AlgorithmSpec
from repro.sim.adversary import (
    all_label_pairs,
    configurations,
    default_horizon,
    worst_case_search,
)
from repro.sim.batch import numpy_available
from repro.sim.compiled import (
    TrajectoryTable,
    compile_trajectory,
    compiled_worst_case_search,
)
from repro.sim.program import AgentContext
from repro.sim.simulator import PresenceModel, simulate_rendezvous

#: Every derived engine leg that must be indistinguishable from
#: "reactive" here, as ``worst_case_search`` keyword arguments.
DERIVED_ENGINES = {"compiled": {"engine": "compiled"}}
if numpy_available():
    DERIVED_ENGINES["cube-unpruned"] = {"engine": "cube", "prune": False}
    DERIVED_ENGINES["cube"] = {"engine": "cube"}

#: The smallest valid instance of every registered graph family.  A test
#: below asserts this stays in sync with the registry, so adding a family
#: without extending the equivalence suite fails loudly.
SMALL_FAMILIES = {
    "ring": {"n": 4},
    "path": {"n": 4},
    "star": {"n": 4},
    "complete": {"n": 4},
    "tree": {"depth": 1},
    "hypercube": {"dimension": 2},
    "torus": {"rows": 3, "cols": 3},
    "lollipop": {"clique_size": 3, "tail_length": 1},
    "circulant": {"n": 5, "offsets": (1, 2)},
    "complete-bipartite": {"a": 2, "b": 2},
    "petersen": {},
}

LABEL_SPACE = 3


def small_instance(family: str):
    return GRAPH_FAMILIES.entry(family).build(**SMALL_FAMILIES[family])


class UndeclaredShortWait(CheapShortWait):
    """A schedule-driven algorithm that does not declare ``is_oblivious``."""

    is_oblivious = False


def build_algorithm(name: str, graph):
    return AlgorithmSpec(name, label_space=LABEL_SPACE).build(graph)


def delay_grid(algorithm) -> tuple[int, int, int]:
    return (0, 1, algorithm.exploration_budget)


class TestSuiteCoverage:
    def test_every_registered_family_has_a_small_instance(self):
        assert set(SMALL_FAMILIES) == set(GRAPH_FAMILIES.names())

    def test_every_registered_algorithm_declares_oblivious(self):
        # All paper algorithms are wait/explore schedules; a future
        # registered algorithm that is not schedule-driven must instead be
        # added to the equivalence suite with engine="reactive" expectations.
        for entry in ALGORITHMS.entries():
            assert entry.target.is_oblivious, entry.name


@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
@pytest.mark.parametrize("algorithm_name", ALGORITHMS.names())
def test_derived_engine_reports_equal_reactive_report(family, algorithm_name):
    """The exhaustive cross-engine sweep: equal reports, field for field.

    Every derived engine leg (compiled, and cube unpruned and pruned
    when NumPy is present) is compared against one reactive reference per presence model.  Delays
    are swept even for simultaneous-start algorithms -- they then
    legitimately fail to meet in some configurations, which is exactly how
    the failure tuples' equivalence is exercised.
    """
    graph = small_instance(family)
    algorithm = build_algorithm(algorithm_name, graph)
    configs = list(
        configurations(graph, all_label_pairs(LABEL_SPACE), delays=delay_grid(algorithm))
    )

    def horizon(config):
        return default_horizon(algorithm, config)

    for presence in PresenceModel:
        reactive = worst_case_search(
            graph, algorithm, configs, horizon, presence=presence, engine="reactive"
        )
        for engine, options in DERIVED_ENGINES.items():
            derived = worst_case_search(
                graph, algorithm, configs, horizon, presence=presence, **options
            )
            assert derived == reactive, (
                f"{algorithm_name} on {family} ({presence}, {engine})"
            )


class TestTieBreaking:
    def test_enumeration_order_decides_ties_in_both_engines(self, ring12):
        """Max ties are broken by enumeration order, not by engine.

        Feeding the same configurations in reversed order must flip both
        engines to the same other argmax record -- proving ties exist and
        that the compiled engine inherits the reactive first-wins rule
        rather than accidentally agreeing.
        """
        algorithm = build_algorithm("cheap-sim", ring12)
        configs = list(
            configurations(ring12, all_label_pairs(LABEL_SPACE), delays=(0,))
        )

        def horizon(config):
            return default_horizon(algorithm, config)

        for ordering in (configs, list(reversed(configs))):
            reactive = worst_case_search(
                ring12, algorithm, ordering, horizon, engine="reactive"
            )
            for engine, options in DERIVED_ENGINES.items():
                derived = worst_case_search(
                    ring12, algorithm, ordering, horizon, **options
                )
                assert derived == reactive, engine
        forward = worst_case_search(ring12, algorithm, configs, horizon, engine="compiled")
        backward = worst_case_search(
            ring12, algorithm, list(reversed(configs)), horizon, engine="compiled"
        )
        assert forward.max_time == backward.max_time
        assert forward.worst_time.config != backward.worst_time.config


class TestEngineSelection:
    def test_auto_uses_the_fastest_engine_for_oblivious_factories(
        self, ring12, monkeypatch
    ):
        """``auto`` routes to cube with NumPy, to compiled without."""
        algorithm = build_algorithm("cheap", ring12)
        configs = list(configurations(ring12, [(1, 2)], delays=(0,)))
        calls = []
        import repro.sim.batch as batch_module
        import repro.sim.compiled as compiled_module
        import repro.sim.cube as cube_module

        def spy(name, original):
            return lambda *args, **kwargs: calls.append(name) or original(
                *args, **kwargs
            )

        monkeypatch.setattr(
            cube_module,
            "cube_worst_case_search",
            spy("cube", cube_module.cube_worst_case_search),
        )
        monkeypatch.setattr(
            compiled_module,
            "compiled_worst_case_search",
            spy("compiled", compiled_module.compiled_worst_case_search),
        )

        def search():
            worst_case_search(
                ring12,
                algorithm,
                configs,
                lambda c: default_horizon(algorithm, c),
                engine="auto",
            )

        if numpy_available():
            search()
            assert calls == ["cube"]
        calls.clear()
        monkeypatch.setattr(batch_module, "_np", None)
        search()
        assert calls == ["compiled"]

    def test_auto_falls_back_to_reactive_for_undeclared_factories(self, ring12):
        # An undeclared factory stays on the reactive engine under "auto",
        # and the explicit "compiled" override still works because this
        # one really is a schedule.
        algorithm = UndeclaredShortWait(RingExploration(12), label_space=LABEL_SPACE)
        assert not algorithm.is_oblivious
        configs = list(configurations(ring12, [(1, 2)], delays=(0,)))

        def horizon(config):
            return default_horizon(algorithm, config)

        auto = worst_case_search(ring12, algorithm, configs, horizon, engine="auto")
        forced = worst_case_search(ring12, algorithm, configs, horizon, engine="compiled")
        assert auto == forced

    def test_unknown_engine_is_rejected(self, ring12):
        algorithm = build_algorithm("cheap", ring12)
        with pytest.raises(ValueError, match="unknown engine"):
            worst_case_search(ring12, algorithm, [], 1, engine="warp")

    def test_sampling_is_engine_independent(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        configs = list(
            configurations(ring12, all_label_pairs(LABEL_SPACE), delays=(0, 2))
        )

        def horizon(config):
            return default_horizon(algorithm, config)

        reactive = worst_case_search(
            ring12, algorithm, configs, horizon, sample=25, engine="reactive"
        )
        assert reactive.executions == 25
        for engine, options in DERIVED_ENGINES.items():
            derived = worst_case_search(
                ring12, algorithm, configs, horizon, sample=25, **options
            )
            assert derived == reactive, engine


class TestCompilation:
    def test_trajectory_matches_solo_simulation(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        trajectory = compile_trajectory(ring12, algorithm, label=2, start=5)
        assert trajectory.length == algorithm.schedule_length(2)
        assert trajectory.positions[0] == 5
        assert trajectory.cumulative_cost[0] == 0
        assert trajectory.cost_through(trajectory.length) == sum(
            1 for action in trajectory.actions if action is not None
        )
        # Positions beyond the schedule repeat the final node.
        assert trajectory.position_at(trajectory.length + 100) == trajectory.positions[-1]

    def test_table_compiles_each_pair_once(self, ring12):
        algorithm = build_algorithm("cheap", ring12)
        table = TrajectoryTable(ring12, algorithm)
        first = table.trajectory(1, 0)
        assert table.trajectory(1, 0) is first
        assert len(table) == 1

    def test_single_result_equals_the_simulator(self, ring12):
        algorithm = build_algorithm("fwr", ring12)
        table = TrajectoryTable(ring12, algorithm)
        for labels, starts, delay, presence in [
            ((1, 3), (0, 7), 0, PresenceModel.FROM_START),
            ((3, 1), (2, 9), 4, PresenceModel.PARACHUTE),
            ((2, 3), (11, 1), 17, PresenceModel.FROM_START),
        ]:
            config = next(
                iter(
                    configurations(
                        ring12, [labels], delays=(delay,), start_pairs=[starts]
                    )
                )
            )
            horizon = default_horizon(algorithm, config)
            expected = simulate_rendezvous(
                ring12,
                algorithm,
                labels=labels,
                starts=starts,
                delay=delay,
                max_rounds=horizon,
                presence=presence,
            )
            assert table.result(config, horizon, presence) == expected

    def test_non_schedule_driven_program_is_rejected(self, ring12):
        class LyingFactory:
            """Claims a schedule of 3 rounds but keeps moving afterwards."""

            name = "liar"

            def schedule_length(self, label: int) -> int:
                return 3

            def __call__(self, ctx: AgentContext):
                obs = yield
                while True:
                    obs = yield 0

        with pytest.raises(ValueError, match="still active"):
            compile_trajectory(ring12, LyingFactory(), label=1, start=0)

    def test_factory_without_schedule_length_is_rejected(self, ring12):
        def bare_factory(ctx):
            obs = yield

        with pytest.raises(ValueError, match="schedule_length"):
            compile_trajectory(ring12, bare_factory, label=1, start=0)

    def test_search_without_configurations_reports_nothing(self, ring12):
        algorithm = build_algorithm("cheap", ring12)
        report = compiled_worst_case_search(ring12, algorithm, [], 1)
        assert report.worst_time is None and report.worst_cost is None
        assert report.executions == 0 and report.failures == ()
