"""Shared helpers for the benchmark harness.

``bench_experiments.py`` runs every registered experiment in
``repro.experiments`` as one parametrized test: the full-profile
campaign per experiment, its measured-vs-paper tables printed (bypassing
pytest's capture so they land in the bench log), and the verdict
asserted.  ``bench_engine.py`` (a standalone script, not a pytest module)
tracks engine throughput separately.
"""

import pytest


@pytest.fixture
def report(capsys):
    """Print a table or list of lines, bypassing output capture."""

    def emit(payload):
        with capsys.disabled():
            if hasattr(payload, "render"):
                print()
                print(payload.render())
                print()
            elif isinstance(payload, str):
                print(payload)
            else:
                print()
                for line in payload:
                    print(line)
                print()

    return emit
