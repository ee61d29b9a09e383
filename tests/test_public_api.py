"""Sanity tests of the public API surface and the shipped documentation."""

import importlib
import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.graphs",
    "repro.sim",
    "repro.exploration",
    "repro.core",
    "repro.lower_bounds",
    "repro.baselines",
    "repro.analysis",
    "repro.runtime",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_exist(package_name):
    """Every name in a package's __all__ must actually be importable."""
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", ()):
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_packages_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__) > 40


class TestShippedDocs:
    def test_design_doc_covers_all_experiments(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for exp in range(1, 13):
            assert f"EXP-{exp:02d}" in design

    def test_experiments_doc_records_verdicts(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "reproduced" in experiments
        assert "Thm 3.1" in experiments or "Theorem 3.1" in experiments

    def test_readme_quickstart_is_current(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "simulate_rendezvous" in readme
        assert "pip install -e ." in readme

    def test_examples_exist(self):
        examples = list((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3

    def test_benchmarks_cover_every_experiment(self):
        # One parametrized bench runs every registered experiment.
        from repro.experiments import all_experiments

        path = REPO_ROOT / "benchmarks" / "bench_experiments.py"
        spec = importlib.util.spec_from_file_location("bench_experiments", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        (mark,) = module.test_experiment.pytestmark
        benched = set(mark.args[1])
        for exp in range(1, 13):
            assert f"exp{exp:02d}" in benched, exp
        assert benched == {experiment.id for experiment in all_experiments()}
