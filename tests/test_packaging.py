"""The package runs with exactly its declared dependencies.

``pyproject.toml`` declares no runtime dependencies, so ``import repro``
and the CLI must work in an interpreter where the optional packages are
missing.  Each check runs in a fresh interpreter with the package
blocked (``sys.modules[name] = None`` makes any import of it fail).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CLI_HELP = (
    "import runpy; sys.argv = ['repro', '--help']; "
    "runpy.run_module('repro', run_name='__main__')"
)


def run_without(package, code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.modules[{package!r}] = None; {code}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("code", ["import repro", CLI_HELP], ids=["import", "cli-help"])
def test_runs_without_networkx(code):
    result = run_without("networkx", code)
    assert result.returncode == 0, result.stderr


def test_networkx_bridge_fails_loudly_without_networkx():
    result = run_without(
        "networkx",
        "from repro.graphs import oriented_ring, to_networkx; "
        "to_networkx(oriented_ring(4))",
    )
    assert result.returncode != 0
    assert "networkx" in result.stderr
