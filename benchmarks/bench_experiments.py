"""Every registered experiment, run as a benchmark.

One test per experiment id registered in ``repro.experiments``, in
campaign order: the instance constants, grids, paper-bound assertions
and table renderers live in ``repro.experiments.catalog`` (one source
of truth, shared with ``python -m repro experiments run``).  Each test
executes the full-profile campaign for its experiment, prints the
measured-vs-paper tables, and fails on any verdict regression.  Select
one experiment with ``-k``, e.g. ``-k exp01`` or ``-k ablations``.
"""

import pytest

from repro.experiments import all_experiments, render_report, run_experiment


@pytest.mark.parametrize(
    "experiment_id", [experiment.id for experiment in all_experiments()]
)
def test_experiment(experiment_id, report):
    outcome = run_experiment(experiment_id)
    report(render_report(outcome))
    assert outcome.passed, [item.name for item in outcome.failures]
