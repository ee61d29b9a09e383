"""Tests for the worst-case adversary search."""

import pytest

from repro.core import CheapSimultaneous, Fast
from repro.core.ablations import CheapShortWait
from repro.exploration.dfs import KnownMapDFS
from repro.graphs.families import star_graph
from repro.sim.adversary import (
    Configuration,
    ExtremeRecord,
    all_label_pairs,
    configurations,
    default_horizon,
    worst_case_search,
)
from repro.sim.simulator import default_max_rounds, simulate_rendezvous


class TestConfigurationEnumeration:
    def test_all_label_pairs_ordered(self):
        pairs = list(all_label_pairs(3))
        assert (1, 2) in pairs and (2, 1) in pairs
        assert len(pairs) == 6
        assert all(a != b for a, b in pairs)

    def test_full_start_enumeration(self, ring12):
        configs = list(configurations(ring12, [(1, 2)], delays=(0,)))
        # 12 * 11 ordered start pairs.
        assert len(configs) == 132

    def test_fixed_first_start(self, ring12):
        configs = list(
            configurations(ring12, [(1, 2)], delays=(0, 5), fix_first_start=True)
        )
        assert len(configs) == 11 * 2
        assert all(config.starts[0] == 0 for config in configs)

    def test_explicit_start_pairs(self, ring12):
        configs = list(
            configurations(ring12, [(1, 2)], start_pairs=[(0, 3), (0, 9)])
        )
        assert [config.starts for config in configs] == [(0, 3), (0, 9)]


class TestWorstCaseSearch:
    def test_finds_worst_configuration(self, ring12, ring12_exploration):
        algorithm = CheapSimultaneous(ring12_exploration, label_space=4)
        report = worst_case_search(
            ring12,
            algorithm,
            configurations(ring12, all_label_pairs(4), fix_first_start=True),
            max_rounds=lambda config: max(
                algorithm.schedule_length(config.labels[0]),
                algorithm.schedule_length(config.labels[1]),
            ),
        )
        assert not report.failures
        # Worst time is achieved when the smaller label is 3 (waits 2E
        # rounds) and must then walk nearly a full exploration.
        assert report.max_time == algorithm.time_bound(3)
        assert report.max_cost <= algorithm.cost_bound()

    def test_failures_are_reported_not_raised(self, ring12, ring12_exploration):
        algorithm = Fast(ring12_exploration, label_space=4)
        report = worst_case_search(
            ring12,
            algorithm,
            configurations(ring12, [(1, 2)], fix_first_start=True),
            max_rounds=1,  # hopeless horizon
        )
        assert report.worst_time is None
        assert len(report.failures) == 11
        with pytest.raises(ValueError, match="no successful execution"):
            _ = report.max_time

    def test_unmet_record_raises_instead_of_returning_none(self, ring12, ring12_exploration):
        """Regression: ``ExtremeRecord.time`` used to be a bare assert,
        which ``python -O`` strips -- a None would then flow into max
        comparisons.  It must be a hard ValueError, like
        ``WorstCaseReport.max_time``."""
        algorithm = Fast(ring12_exploration, label_space=4)
        unmet = simulate_rendezvous(
            ring12, algorithm, labels=(1, 2), starts=(0, 6), max_rounds=1
        )
        assert not unmet.met
        record = ExtremeRecord(
            config=Configuration(labels=(1, 2), starts=(0, 6), delay=0),
            result=unmet,
        )
        with pytest.raises(ValueError, match="never met"):
            _ = record.time
        assert record.cost == unmet.cost  # cost stays well-defined

    def test_sampling_limits_executions(self, ring12, ring12_exploration):
        algorithm = Fast(ring12_exploration, label_space=4)
        report = worst_case_search(
            ring12,
            algorithm,
            configurations(ring12, all_label_pairs(4), fix_first_start=True),
            max_rounds=lambda config: algorithm.schedule_length(4),
            sample=10,
        )
        assert report.executions == 10
        assert not report.failures


class TestStreaming:
    """With ``sample=None`` the reactive sweep consumes its configuration
    stream lazily -- it must never build ``list(configs)``."""

    def interleaving_generator(self, configs, executed):
        """Yields each configuration only after the previous one ran.

        An eager ``list(...)`` pulls every item before any simulation,
        tripping the assertion -- so merely completing the sweep proves
        the path streams.
        """
        for index, config in enumerate(configs):
            assert len(executed) == index, (
                "the sweep materialized the configuration stream"
            )
            yield config

    def test_reactive_path_streams_configurations(
        self, ring12, ring12_exploration, monkeypatch
    ):
        import repro.sim.adversary as adversary_module

        algorithm = CheapSimultaneous(ring12_exploration, label_space=3)
        configs = list(configurations(ring12, [(1, 2)], fix_first_start=True))
        executed = []
        real = adversary_module.simulate_rendezvous

        def spying(*args, **kwargs):
            result = real(*args, **kwargs)
            executed.append(kwargs["labels"])
            return result

        monkeypatch.setattr(adversary_module, "simulate_rendezvous", spying)
        report = worst_case_search(
            ring12,
            algorithm,
            self.interleaving_generator(configs, executed),
            max_rounds=lambda config: default_horizon(algorithm, config),
            engine="reactive",
        )
        # Every configuration ran once, in stream order; afterwards each
        # distinct extreme is replayed once to rebuild its full record.
        extremes = {report.worst_time.config, report.worst_cost.config}
        assert report.executions == len(configs)
        assert len(executed) == len(configs) + len(extremes)

    def test_sampling_still_materializes(self, ring12, ring12_exploration):
        # The sampling branch must see the whole population; feeding it
        # the interleaving generator trips the eager-listing assertion,
        # which is exactly the documented contract.
        algorithm = CheapSimultaneous(ring12_exploration, label_space=3)
        configs = list(configurations(ring12, [(1, 2)], fix_first_start=True))
        with pytest.raises(AssertionError, match="materialized"):
            worst_case_search(
                ring12,
                algorithm,
                self.interleaving_generator(configs, executed=[]),
                max_rounds=lambda config: default_horizon(algorithm, config),
                sample=5,
                engine="reactive",
            )


class TestDefaultHorizon:
    def test_one_formula_everywhere(self, ring12, ring12_exploration):
        """``default_horizon`` and ``simulate_rendezvous``'s implicit
        horizon are the same delegation to ``default_max_rounds``."""
        algorithm = Fast(ring12_exploration, label_space=4)
        config = Configuration(labels=(3, 1), starts=(0, 5), delay=7)
        expected = 7 + max(algorithm.schedule_length(3), algorithm.schedule_length(1))
        assert default_horizon(algorithm, config) == expected
        assert default_max_rounds(algorithm, config.labels, config.delay) == expected

    def test_simulate_rendezvous_defaults_to_the_shared_horizon(self):
        """With ``max_rounds`` omitted, a failing execution runs exactly
        ``delay + max(schedule lengths)`` rounds -- no hidden slack (the
        old docstring promised one exploration of slack the code never
        added)."""
        star = star_graph(6)
        algorithm = CheapShortWait(KnownMapDFS(star), label_space=4)
        config = Configuration(labels=(2, 1), starts=(0, 5), delay=2)
        result = simulate_rendezvous(
            star, algorithm, labels=config.labels, starts=config.starts, delay=2
        )
        assert not result.met  # the ablation's known failure mode
        assert result.rounds_executed == default_horizon(algorithm, config)

    def test_factories_without_schedule_length_require_explicit_horizon(self, ring12):
        def bare_factory(ctx):
            obs = yield

        with pytest.raises(ValueError, match="max_rounds"):
            simulate_rendezvous(ring12, bare_factory, labels=(1, 2), starts=(0, 3))
