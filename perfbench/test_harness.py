"""Self-tests for the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT, Tracer, patched, span_function, span_generator  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_main(argv: list[str]) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run.main(argv)
    assert code == 0
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


@pytest.fixture
def state(tmp_path, monkeypatch):
    """A private state directory, so tests never touch cached references."""
    monkeypatch.setattr(run, "STATE", tmp_path)
    return tmp_path


def test_tampered_reference_drives_fail_rate_above_zero(state):
    argv = ["--workload", "store-mixed", "--seed", "3", "--seconds", "0.5"]
    clean = run_main(argv)
    assert clean["correct"] and clean["failed"] == 0
    assert clean["metrics"]["success_rate"]["value"] == 1.0

    (path,) = (state / "refs").glob("store-mixed-*.json")
    reference = json.loads(path.read_text())
    name = workloads.STORE_TEMPLATES[0][0]
    reference[name]["digest"] = "0" * 64
    path.write_text(json.dumps(reference))

    tampered = run_main(argv)
    assert not tampered["correct"]
    assert tampered["failed"] > 0
    assert tampered["failed"] / tampered["attempted"] > 0
    assert tampered["metrics"]["success_rate"]["value"] < 1.0


def test_gate_counts_raised_operations_and_failed_checks():
    reference = {"a": {"digest": "x"}}
    ok = {"kind": "sweep", "key": "a", "outputs": {"digest": "x"}, "checks": {},
          "error": None}
    raised = {**ok, "outputs": {}, "error": "RuntimeError: boom"}
    unchecked = {**ok, "checks": {"warm": False}}
    assert run.gate([ok, raised, unchecked], reference)[:2] == (3, 2)


def test_wall_time_sums_per_operation_medians_of_timed_operations():
    def op(seconds, timed=True):
        return {"seconds": seconds, "configs": 10, "timed": timed}

    def measured(spin):
        # The second operation is slow once; the third is run but untimed.
        passes = [
            [op(1.0), op(2.0), op(9.0, timed=False)],
            [op(1.2), op(5.0), op(9.0, timed=False)],
            [op(0.8), op(2.2), op(9.0, timed=False)],
        ]
        return {
            "passes": [{"records": records, "probes": [spin]} for records in passes],
            "samples": {"speed_factor": workloads.NOMINAL_SPIN_S / spin},
            "setup": [{"setup_s": 0.5}],
            "peak_rss_mb": 50.0,
        }

    metrics = run.end_to_end(measured(workloads.NOMINAL_SPIN_S), 9, 0)
    assert metrics["wall_s"][0] == pytest.approx(1.0 + 2.2)
    assert metrics["configs_per_s"][0] == pytest.approx(20 / 3.2)
    timed = [1.0, 2.0, 1.2, 5.0, 0.8, 2.2]
    assert metrics["op_p50_s"][0] == pytest.approx(run.harrell_davis(timed, 0.5))
    assert metrics["op_p90_s"][0] == pytest.approx(run.harrell_davis(timed, 0.9))
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    # At half the nominal speed every time is halved back to nominal.
    slow = run.end_to_end(measured(2 * workloads.NOMINAL_SPIN_S), 9, 0)
    assert slow["wall_s"][0] == pytest.approx(1.6)
    assert slow["setup_s"][0] == pytest.approx(0.25)


def test_harrell_davis_quantiles():
    assert run.harrell_davis([3.0], 0.5) == pytest.approx(3.0)
    assert run.harrell_davis([2.0] * 7, 0.9) == pytest.approx(2.0)
    assert run.harrell_davis([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    values = [0.3, 1.1, 2.0, 2.2, 5.0, 7.5, 7.6, 9.0]
    assert run.harrell_davis(values, 0.5) < run.harrell_davis(values, 0.9) < 9.0
    scipy_stats = pytest.importorskip("scipy.stats")
    for a, b in ((4.5, 4.5), (8.1, 0.9), (2.7, 0.3)):
        for x in (0.05, 0.3, 0.5, 0.8, 0.99):
            assert run._betainc(a, b, x) == pytest.approx(
                scipy_stats.beta.cdf(x, a, b), abs=1e-9
            )


def test_metric_and_workload_names_are_valid():
    names = [*run.END_TO_END, *run.PER_LAYER, *(w["name"] for w in run.SPEC["workloads"])]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_every_declared_workload_is_implemented():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_experiment_and_sweep_has_a_layer_metric():
    from repro.experiments import all_experiments

    expected = {f"experiments.{e.id}_s" for e in all_experiments()} | {
        f"sweep.frontdoor_over_kernel.{template[0]}"
        for name in workloads.SWEEPS
        for template in workloads.SWEEP_TEMPLATES[name]
    }
    assert expected <= set(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.input_key(workload, 7) == workloads.input_key(workload, 7)
    if workload == "campaign-full":
        # Fixed by the experiment catalog, whatever the seed.
        assert workloads.input_key(workload, 7) == workloads.input_key(workload, 8)
        return
    first = [(n, s.to_dict()) for n, s in workloads.scenarios(workload, 7)]
    again = [(n, s.to_dict()) for n, s in workloads.scenarios(workload, 7)]
    other = [(n, s.to_dict()) for n, s in workloads.scenarios(workload, 8)]
    assert first == again
    assert first != other
    assert workloads.input_key(workload, 7) != workloads.input_key(workload, 8)


def test_default_seed_reproduces_the_bench_grid():
    for _name, sc in workloads.scenarios("sweep-ring", workloads.DEFAULT_SEED):
        assert sc.delays == workloads.BENCH_GRID


def test_store_scenarios_share_one_size():
    sizes = {sc.config_space_size() for _n, sc in workloads.scenarios("store-mixed", 5)}
    assert sizes == {1680}


def test_cold_tables_empties_every_worker_memo():
    import repro.runtime.worker as worker

    memos = [v for v in vars(worker).values() if hasattr(v, "cache_info")]
    (_name, sc), *_ = workloads.scenarios("store-mixed", 1)
    sc.with_overrides(label_pairs=[(1, 2)]).run(workers=1)
    assert any(memo.cache_info().currsize for memo in memos)
    workloads.cold_tables()
    assert not any(memo.cache_info().currsize for memo in memos)


def test_tracer_self_times_partition_wall_time():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    def stream():
        for _ in range(50):
            yield leaf()

    traced_leaf = span_function(tracer, leaf, "leaf")
    traced_stream = span_generator(tracer, lambda: (traced_leaf() for _ in range(50)), "stream")
    with tracer.root():
        assert sum(traced_stream()) == 50 * sum(range(2000))
        list(stream())
    assert tracer.calls["leaf"] == 50
    assert math.isclose(sum(tracer.self_s.values()), tracer.wall_s, rel_tol=1e-9)
    assert tracer.total_s["stream"] >= tracer.total_s["leaf"]


def test_patched_restores_every_binding():
    import repro.runtime.executor as executor
    import repro.runtime.runner as runner

    original = executor.plan_shards
    with patched([(executor, "plan_shards", lambda f: span_function(Tracer(), f, "p"))]):
        assert runner.plan_shards is not original
        assert executor.plan_shards is runner.plan_shards
    assert executor.plan_shards is original and runner.plan_shards is original


def test_traced_run_adds_up_to_its_wall_time(tmp_path):
    result = child.trace("store-mixed", 2, str(tmp_path))
    layers, self_s = result["layers"], result["self_s"]
    assert math.isclose(sum(self_s.values()), layers["trace.wall_s"], rel_tol=1e-9)
    assert layers["trace.unattributed_s"] == self_s[ROOT]
    reported = sum(layers[name] for name in self_s if name != ROOT)
    assert math.isclose(
        reported + layers["trace.unattributed_s"], layers["trace.wall_s"], rel_tol=1e-9
    )
    # Every traced layer is a reported metric, so no second goes unnamed.
    assert set(self_s) - {ROOT} <= set(run.PER_LAYER)
    assert layers["runtime.store.hit_ratio"] == pytest.approx(2 / 3)
